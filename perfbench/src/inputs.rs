//! Seeded input generation. Every input the program sees — CSV text and
//! request bodies — is derived here from the `--seed` argument and the
//! repository's synthetic UCI profiles.

use dfp_data::dataset::{Dataset, Value};
use dfp_data::schema::AttributeKind;
use dfp_data::synth::profile_by_name;

/// SplitMix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for sub-stream `stream` of `seed` (one per job, say).
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }

    /// `k` distinct indices from `range`, in random order.
    pub fn sample(&mut self, range: std::ops::Range<usize>, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = range.collect();
        let k = k.min(pool.len());
        for i in 0..k {
            let j = i + self.below(pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

/// The first `n` rows of a profile's canonical generator stream (salt 0,
/// the replicate the paper tables use). Rows past the profile's own size
/// are further draws from the same distribution.
pub fn profile_stream(name: &str, n: usize) -> Dataset {
    let profile = profile_by_name(name).expect("profile exists in the UCI catalog");
    let mut cfg = profile.config(0);
    cfg.n_instances = n;
    cfg.generate()
}

/// Rows `idx` of `data` as labelled CSV text (header, class column last),
/// in the format `dfp_data::csv::read_dataset` reads.
pub fn csv_text(data: &Dataset, idx: &[usize]) -> String {
    let mut out = Vec::new();
    dfp_data::csv::write_dataset(&data.subset(idx), &mut out).expect("writing to memory");
    String::from_utf8(out).expect("CSV text is UTF-8")
}

/// Row `i` of `data` as a `/predict` line: attribute values in schema order
/// without the class column, numbers with six decimals. With `unique`, see
/// [`LineTemplate::render`].
pub fn predict_line(data: &Dataset, i: usize, unique: Option<u64>) -> String {
    LineTemplate::new(data, i).render(unique)
}

/// A `/predict` line split right after its first numeric field, where a
/// unique id can go (`tail` is empty when the row has no numeric field).
pub struct LineTemplate {
    head: String,
    tail: String,
}

impl LineTemplate {
    pub fn new(data: &Dataset, i: usize) -> Self {
        let mut head = String::new();
        let mut tail = String::new();
        let mut split = false;
        for (a, cell) in data.rows[i].iter().enumerate() {
            let out = if split { &mut tail } else { &mut head };
            if a > 0 {
                out.push(',');
            }
            match (cell, &data.schema.attributes[a].kind) {
                (Value::Missing, _) => out.push('?'),
                (Value::Num(x), _) => {
                    out.push_str(&format!("{x:.6}"));
                    split = true;
                }
                (Value::Cat(v), AttributeKind::Categorical { values }) => {
                    out.push_str(&values[*v as usize])
                }
                (Value::Cat(v), AttributeKind::Numeric) => out.push_str(&v.to_string()),
            }
        }
        LineTemplate { head, tail }
    }

    /// The line; with `unique`, the first numeric field carries the id in
    /// twelve digits past its sixth decimal, so the line is new to any cache
    /// keyed on the text while the value moves by less than 1e-6.
    pub fn render(&self, unique: Option<u64>) -> String {
        match unique {
            Some(id) => format!("{}{:012}{}", self.head, id % 1_000_000_000_000, self.tail),
            None => format!("{}{}", self.head, self.tail),
        }
    }
}

/// The generator's class name of row `i`.
pub fn class_name(data: &Dataset, i: usize) -> &str {
    &data.schema.class_names[data.labels[i].index()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_samples_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::derive(7, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::derive(7, 3);
        let s = r.sample(10..20, 5);
        assert_eq!(s.len(), 5);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
        assert!(s.iter().all(|&i| (10..20).contains(&i)));
        assert_eq!(Rng::derive(7, 3).sample(10..20, 5), s);
        assert_ne!(Rng::derive(8, 3).sample(0..1000, 5), s);
    }

    #[test]
    fn stream_prefix_is_the_canonical_replicate() {
        let canonical = profile_by_name("austral").unwrap().generate();
        let longer = profile_stream("austral", canonical.len() + 10);
        assert_eq!(longer.rows[..canonical.len()], canonical.rows[..]);
        assert_eq!(longer.labels[..canonical.len()], canonical.labels[..]);
    }

    #[test]
    fn unique_lines_differ_in_text_not_in_parsed_bins() {
        let data = profile_stream("austral", 5);
        let schema = &data.schema;
        let plain = predict_line(&data, 0, None);
        let tagged = predict_line(&data, 0, Some(42));
        assert_ne!(plain, tagged);
        let parse = |l: &str| dfp_serve::rows::parse_row_line(schema, 0, l).unwrap();
        for (x, y) in parse(&plain).iter().zip(parse(&tagged)) {
            match (x, y) {
                (Value::Num(a), Value::Num(b)) => assert!((a - b).abs() < 1e-6),
                (a, b) => assert_eq!(*a, b),
            }
        }
        // A CSV round trip keeps every row and label.
        let text = csv_text(&data, &[0, 1, 2]);
        let back = dfp_data::csv::read_dataset(text.as_bytes()).unwrap();
        assert_eq!(back.len(), 3);
    }
}
