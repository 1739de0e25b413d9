//! The feature-space transform `D → D'` (paper §2): the dataset is mapped
//! into `B^{d'}` over features `I ∪ Fs` — every single item plus every
//! selected pattern. A pattern feature fires on a transaction that contains
//! all of the pattern's items; [`FeatureSpace::transform`] tests that with
//! item-bitset masks.
//!
//! Two layouts exist:
//! * **items + patterns** ([`FeatureSpace::new`]) — the paper's `Pat_All` /
//!   `Pat_FS` space `I ∪ Fs`: all single items plus selected patterns of
//!   length ≥ 2 (length-1 patterns are dropped as duplicates of items);
//! * **selected features only** ([`FeatureSpace::selected_only`]) — the
//!   `Item_FS`-style space where only an explicitly chosen feature list
//!   (any length, including single items) is kept.

use dfp_data::features::SparseBinaryMatrix;
use dfp_data::transactions::{Item, TransactionSet};
use dfp_mining::MinedPattern;

/// A fitted feature space over an item universe plus pattern features.
#[derive(Debug, Clone)]
pub struct FeatureSpace {
    /// Size of the item universe `|I|`.
    pub n_items: usize,
    /// If `true`, every single item is a feature (ids `0..n_items`) and
    /// pattern features follow; if `false`, only `patterns` are features.
    pub include_all_items: bool,
    /// Pattern features, each sorted ascending. With `include_all_items`
    /// their ids start at `n_items`, otherwise at `0`.
    pub patterns: Vec<Vec<Item>>,
    /// Number of classes (propagated into transformed matrices).
    pub n_classes: usize,
}

impl FeatureSpace {
    /// The `I ∪ Fs` space: all items plus the selected patterns.
    /// Deduplicates patterns and drops those of length < 2 (already items).
    pub fn new(n_items: usize, n_classes: usize, selected: &[MinedPattern]) -> Self {
        let mut seen = std::collections::HashSet::new();
        let patterns: Vec<Vec<Item>> = selected
            .iter()
            .filter(|p| p.items.len() >= 2)
            .filter(|p| seen.insert(p.items.clone()))
            .map(|p| p.items.clone())
            .collect();
        FeatureSpace {
            n_items,
            include_all_items: true,
            patterns,
            n_classes,
        }
    }

    /// A space containing **only** the given features (single items allowed):
    /// the `Item_FS` layout. Deduplicates, keeps any length ≥ 1.
    pub fn selected_only(n_items: usize, n_classes: usize, selected: &[MinedPattern]) -> Self {
        let mut seen = std::collections::HashSet::new();
        let patterns: Vec<Vec<Item>> = selected
            .iter()
            .filter(|p| !p.items.is_empty())
            .filter(|p| seen.insert(p.items.clone()))
            .map(|p| p.items.clone())
            .collect();
        FeatureSpace {
            n_items,
            include_all_items: false,
            patterns,
            n_classes,
        }
    }

    /// A feature space with no pattern features (the `Item_All` baseline).
    pub fn items_only(n_items: usize, n_classes: usize) -> Self {
        FeatureSpace {
            n_items,
            include_all_items: true,
            patterns: Vec::new(),
            n_classes,
        }
    }

    /// Total feature count `d'`.
    pub fn n_features(&self) -> usize {
        (if self.include_all_items {
            self.n_items
        } else {
            0
        }) + self.patterns.len()
    }

    /// Transforms a transaction database (train or test) into the extended
    /// sparse binary representation.
    ///
    /// The patterns are compiled once per call into masks over an item
    /// bitset of `⌈n_items/64⌉` words. Each transaction sets its item bits,
    /// emits every pattern whose mask is fully present (one AND-compare per
    /// word the pattern touches), then clears its bits again, so a row costs
    /// its item count plus the masks' word count.
    ///
    /// # Panics
    /// Panics if `ts` has more items than the fitted space.
    pub fn transform(&self, ts: &TransactionSet) -> SparseBinaryMatrix {
        assert!(
            ts.n_items() <= self.n_items,
            "transaction set has {} items but the feature space was fitted on {}",
            ts.n_items(),
            self.n_items
        );
        let offset = if self.include_all_items {
            self.n_items
        } else {
            0
        };
        let masks = PatternMasks::compile(&self.patterns, ts.n_items(), offset);
        let mut present = vec![0u64; ts.n_items().div_ceil(64)];
        let rows: Vec<Vec<u32>> = ts
            .transactions()
            .iter()
            .map(|tx| {
                let mut row: Vec<u32> = if self.include_all_items {
                    tx.iter().map(|i| i.0).collect()
                } else {
                    Vec::new()
                };
                for i in tx {
                    present[i.index() / 64] |= 1 << (i.index() % 64);
                }
                masks.fire(&present, &mut row);
                for i in tx {
                    present[i.index() / 64] = 0;
                }
                row
            })
            .collect();
        SparseBinaryMatrix::new(
            self.n_features(),
            rows,
            ts.labels().to_vec(),
            self.n_classes,
        )
    }
}

/// Pattern features compiled to masks over an item bitset (item `i` is bit
/// `i % 64` of word `i / 64`): each pattern keeps one `(word, bits)` pair per
/// word its items touch, and fires on a transaction whose bitset has all of
/// those bits set.
struct PatternMasks {
    /// Every pattern's `(word, bits)` pairs, pattern after pattern.
    words: Vec<(usize, u64)>,
    /// `(feature id, end)` per pattern, in feature-id order: the pattern's
    /// pairs are `words[previous end..end]`.
    patterns: Vec<(u32, usize)>,
}

impl PatternMasks {
    /// Compiles `patterns` (feature ids from `offset`) for transactions over
    /// `n_items` items. A pattern naming an item outside that universe is
    /// left out: no transaction can contain it.
    fn compile(patterns: &[Vec<Item>], n_items: usize, offset: usize) -> Self {
        let mut words: Vec<(usize, u64)> = Vec::new();
        let mut compiled = Vec::with_capacity(patterns.len());
        for (k, p) in patterns.iter().enumerate() {
            if p.iter().any(|i| i.index() >= n_items) {
                continue;
            }
            let start = words.len();
            for i in p {
                let (w, bit) = (i.index() / 64, 1u64 << (i.index() % 64));
                match words[start..].last_mut() {
                    Some((last, bits)) if *last == w => *bits |= bit,
                    _ => words.push((w, bit)),
                }
            }
            compiled.push(((offset + k) as u32, words.len()));
        }
        PatternMasks {
            words,
            patterns: compiled,
        }
    }

    /// Appends, in id order, the feature id of every pattern whose items are
    /// all set in `present`.
    fn fire(&self, present: &[u64], row: &mut Vec<u32>) {
        let mut start = 0;
        for &(id, end) in &self.patterns {
            if self.words[start..end]
                .iter()
                .all(|&(w, bits)| present[w] & bits == bits)
            {
                row.push(id);
            }
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfp_data::schema::ClassId;

    fn ts() -> TransactionSet {
        TransactionSet::new(
            4,
            2,
            vec![
                vec![Item(0), Item(1)],
                vec![Item(0), Item(2)],
                vec![Item(1), Item(2), Item(3)],
            ],
            vec![ClassId(0), ClassId(0), ClassId(1)],
        )
    }

    fn pat(items: &[u32]) -> MinedPattern {
        MinedPattern {
            items: items.iter().map(|&i| Item(i)).collect(),
            support: 1,
            class_supports: vec![1, 0],
        }
    }

    #[test]
    fn items_plus_pattern_features() {
        let fs = FeatureSpace::new(4, 2, &[pat(&[0, 1]), pat(&[1, 2])]);
        assert_eq!(fs.n_features(), 6);
        let m = fs.transform(&ts());
        // row 0 contains items 0,1 and pattern {0,1} (feature 4)
        assert_eq!(m.rows[0], vec![0, 1, 4]);
        // row 1: items 0,2; no pattern fires
        assert_eq!(m.rows[1], vec![0, 2]);
        // row 2: items 1,2,3 and pattern {1,2} (feature 5)
        assert_eq!(m.rows[2], vec![1, 2, 3, 5]);
        assert_eq!(m.labels, vec![ClassId(0), ClassId(0), ClassId(1)]);
    }

    #[test]
    fn singletons_and_duplicates_dropped_in_union_space() {
        let fs = FeatureSpace::new(4, 2, &[pat(&[2]), pat(&[0, 1]), pat(&[0, 1])]);
        assert_eq!(fs.patterns.len(), 1);
    }

    #[test]
    fn selected_only_space() {
        // Item_FS-style: keep only features {0} and {1,2}.
        let fs = FeatureSpace::selected_only(4, 2, &[pat(&[0]), pat(&[1, 2])]);
        assert_eq!(fs.n_features(), 2);
        let m = fs.transform(&ts());
        assert_eq!(m.rows[0], vec![0]); // has item 0, pattern {1,2} absent
        assert_eq!(m.rows[1], vec![0]);
        assert_eq!(m.rows[2], vec![1]); // pattern {1,2} fires as feature 1
    }

    #[test]
    fn selected_only_dedups_and_keeps_singletons() {
        let fs = FeatureSpace::selected_only(4, 2, &[pat(&[0]), pat(&[0]), pat(&[3])]);
        assert_eq!(fs.n_features(), 2);
    }

    #[test]
    fn items_only_space() {
        let fs = FeatureSpace::items_only(4, 2);
        assert_eq!(fs.n_features(), 4);
        let m = fs.transform(&ts());
        assert_eq!(m.rows[0], vec![0, 1]);
    }

    #[test]
    fn transform_applies_to_unseen_data() {
        let fs = FeatureSpace::new(4, 2, &[pat(&[0, 1])]);
        let test = TransactionSet::new(
            4,
            2,
            vec![vec![Item(0), Item(1), Item(3)]],
            vec![ClassId(1)],
        );
        let m = fs.transform(&test);
        assert_eq!(m.rows[0], vec![0, 1, 3, 4]);
    }

    #[test]
    fn patterns_beyond_a_narrower_universe_never_fire() {
        // Fitted on 130 items, applied to data itemized over 64.
        let fs = FeatureSpace::new(130, 2, &[pat(&[1, 2]), pat(&[2, 100])]);
        let test = TransactionSet::new(64, 2, vec![vec![Item(1), Item(2)]], vec![ClassId(0)]);
        assert_eq!(fs.transform(&test).rows[0], vec![1, 2, 130]);
    }

    #[test]
    #[should_panic(expected = "fitted on")]
    fn wider_test_universe_panics() {
        let fs = FeatureSpace::items_only(2, 2);
        let test = TransactionSet::new(3, 2, vec![vec![Item(2)]], vec![ClassId(0)]);
        fs.transform(&test);
    }
}
