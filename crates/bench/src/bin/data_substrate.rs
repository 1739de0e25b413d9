//! `data_substrate` — columnar/SIMD substrate benchmark → `BENCH_data_substrate.json`.
//!
//! Three sections:
//!
//! 1. **Kernel micro-bench** on 1 Mi-bit operands at dense / medium / sparse
//!    densities: the word-at-a-time scalar baseline vs. the chunked
//!    (autovectorized 4×u64) kernels vs. the adaptive `RowSet`
//!    representation picked by auto mode, plus the cache-blocked batched
//!    "one probe vs. all class masks" scan. The headline is the best
//!    `intersection_count` speedup over scalar, which must clear 4×.
//! 2. **Out-of-core profile**: a synthetic million-row CSV streamed to disk
//!    row by row, ingested back through the segmented reader, and fitted
//!    end to end (NaiveBayes, relative `min_sup` 0.4) — with peak resident
//!    memory (`VmHWM`) recorded against a fixed budget. The dataset never
//!    exists in memory as a whole.
//! 3. **Miner bit-identity**: Eclat run under `DFP_BITSET=dense`,
//!    `compressed` and `auto` must emit byte-identical pattern streams
//!    (FNV fingerprints compared).
//!
//! `DFP_FAST=1` shrinks operand counts and the profile to CI-smoke size.

use dfp_bench::report::{pattern_fingerprint, write_root_json, Json, Table};
use dfp_core::{FrameworkConfig, ModelKind, PatternClassifier};
use dfp_data::bitset::{scalar, Bitset};
use dfp_data::discretize::MdlDiscretizer;
use dfp_data::ingest::{ingest_csv, IngestOptions};
use dfp_data::rowset::{set_mode_override, BitsetMode, RowSet};
use dfp_data::synth::{profile_by_name, stream_profile};
use dfp_measures::MinSupStrategy;
use dfp_mining::{eclat, MineOptions};
use std::hint::black_box;
use std::time::Instant;

const MICRO_BITS: usize = 1 << 20;
const DENSITIES: &[f64] = &[0.5, 0.05, 0.001];
const N_MASKS: usize = 8;
const SPEEDUP_TARGET: f64 = 4.0;
/// Resident-memory ceiling for the out-of-core fit, in MiB.
const MEMORY_BUDGET_MB: u64 = 1536;

/// Deterministic xorshift64* stream for operand generation.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn bitset(&mut self, len: usize, density: f64) -> Bitset {
        let threshold = (density * u64::MAX as f64) as u64;
        let mut b = Bitset::new(len);
        for i in 0..len {
            if self.next() < threshold {
                b.set(i);
            }
        }
        b
    }
}

/// Best-of-`iters` average seconds per call over `reps` calls.
fn time_best<F: FnMut() -> usize>(mut f: F, iters: usize, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        let mut acc = 0usize;
        for _ in 0..reps {
            acc = acc.wrapping_add(black_box(f()));
        }
        black_box(acc);
        best = best.min(start.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

/// `VmHWM`/`VmRSS` in MiB from `/proc/self/status` (Linux; 0 elsewhere).
fn proc_status_mb(key: &str) -> u64 {
    let Ok(s) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in s.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let kb: u64 = rest
                .trim_start_matches(':')
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb / 1024;
        }
    }
    0
}

fn micro_section(fast: bool, table: &mut Table) -> (Vec<Json>, f64) {
    let (iters, reps) = if fast { (3, 20) } else { (5, 100) };
    let mut rows = Vec::new();
    let mut headline: f64 = 0.0;
    for &density in DENSITIES {
        let mut rng = XorShift(0x9e37_79b9 ^ (density * 1e9) as u64);
        let a = rng.bitset(MICRO_BITS, density);
        let b = rng.bitset(MICRO_BITS, density);
        let masks: Vec<Bitset> = (0..N_MASKS)
            .map(|_| rng.bitset(MICRO_BITS, density))
            .collect();
        let ra = RowSet::from_bitset(a.clone());
        let rb = RowSet::from_bitset(b.clone());

        let scalar_s = time_best(|| scalar::intersection_count(&a, &b), iters, reps);
        let chunked_s = time_best(|| a.intersection_count(&b), iters, reps);
        let rowset_s = time_best(|| ra.intersection_count(&rb), iters, reps);
        let batched_scalar_s = time_best(
            || {
                masks
                    .iter()
                    .map(|m| scalar::intersection_count(&a, m))
                    .sum()
            },
            iters,
            reps,
        );
        let batched_s = time_best(
            || a.batch_intersection_counts(&masks).iter().sum(),
            iters,
            reps,
        );

        let chunked_x = scalar_s / chunked_s;
        let rowset_x = scalar_s / rowset_s;
        let batched_x = batched_scalar_s / batched_s;
        headline = headline.max(chunked_x).max(rowset_x);
        for (name, secs, speedup) in [
            ("scalar", scalar_s, 1.0),
            ("chunked", chunked_s, chunked_x),
            ("rowset_auto", rowset_s, rowset_x),
            ("batched", batched_s, batched_x),
        ] {
            table.row(vec![
                format!("{density}"),
                name.to_string(),
                format!("{:.1}", secs * 1e9),
                format!("{speedup:.2}x"),
            ]);
        }
        rows.push(Json::obj(vec![
            ("density", Json::Num(density)),
            ("bits", Json::Int(MICRO_BITS as u64)),
            ("rowset_compressed", Json::Bool(ra.is_compressed())),
            ("scalar_ns", Json::Num(scalar_s * 1e9)),
            ("chunked_ns", Json::Num(chunked_s * 1e9)),
            ("rowset_ns", Json::Num(rowset_s * 1e9)),
            ("chunked_speedup", Json::Num(chunked_x)),
            ("rowset_speedup", Json::Num(rowset_x)),
            ("batched_masks", Json::Int(N_MASKS as u64)),
            ("batched_scalar_ns", Json::Num(batched_scalar_s * 1e9)),
            ("batched_ns", Json::Num(batched_s * 1e9)),
            ("batched_speedup", Json::Num(batched_x)),
        ]));
    }
    (rows, headline)
}

fn out_of_core_section(fast: bool) -> Json {
    let n_rows = if fast { 100_000 } else { 1_000_000 };
    let profile = stream_profile(n_rows);
    let cfg = profile.config(0);
    let csv_path = std::env::temp_dir().join(format!("dfp-substrate-{}.csv", std::process::id()));

    let start = Instant::now();
    let mut f = std::fs::File::create(&csv_path).expect("create stream CSV");
    cfg.write_csv_stream(&mut f).expect("stream CSV");
    drop(f);
    let stream_secs = start.elapsed().as_secs_f64();
    let csv_bytes = std::fs::metadata(&csv_path).map(|m| m.len()).unwrap_or(0);

    let rss_before = proc_status_mb("VmRSS");
    let start = Instant::now();
    let ingested = ingest_csv(&csv_path, &IngestOptions::default()).expect("ingest stream CSV");
    let ingest_secs = start.elapsed().as_secs_f64();

    let fit_cfg = FrameworkConfig::pat_fs()
        .with_min_sup(MinSupStrategy::Relative(0.4))
        .with_model(ModelKind::NaiveBayes);
    let start = Instant::now();
    let fitted =
        PatternClassifier::fit_transactions(&ingested.transactions, &fit_cfg).expect("fit");
    let fit_secs = start.elapsed().as_secs_f64();
    let hwm_mb = proc_status_mb("VmHWM");
    let rss_mb = proc_status_mb("VmRSS");
    std::fs::remove_file(&csv_path).ok();

    let within_budget = hwm_mb > 0 && hwm_mb <= MEMORY_BUDGET_MB;
    eprintln!(
        "out-of-core: {n_rows} rows, stream {stream_secs:.2}s, ingest {ingest_secs:.2}s, \
         fit {fit_secs:.2}s, VmHWM {hwm_mb} MiB (budget {MEMORY_BUDGET_MB} MiB)"
    );
    Json::obj(vec![
        ("rows", Json::Int(n_rows as u64)),
        ("csv_bytes", Json::Int(csv_bytes)),
        ("stream_seconds", Json::Num(stream_secs)),
        ("ingest_seconds", Json::Num(ingest_secs)),
        ("fit_seconds", Json::Num(fit_secs)),
        ("n_items", Json::Int(ingested.transactions.n_items() as u64)),
        ("n_features", Json::Int(fitted.info().n_features as u64)),
        ("vm_rss_before_mb", Json::Int(rss_before)),
        ("vm_rss_after_mb", Json::Int(rss_mb)),
        ("vm_hwm_mb", Json::Int(hwm_mb)),
        ("memory_budget_mb", Json::Int(MEMORY_BUDGET_MB)),
        ("within_budget", Json::Bool(within_budget)),
    ])
}

fn identity_section(fast: bool) -> (Vec<Json>, bool) {
    let names: &[&str] = if fast {
        &["labor", "breast"]
    } else {
        &["breast", "chess", "waveform"]
    };
    let modes = [
        ("dense", BitsetMode::Dense),
        ("compressed", BitsetMode::Compressed),
        ("auto", BitsetMode::Auto),
    ];
    let mut rows = Vec::new();
    let mut all_identical = true;
    for name in names {
        let profile = profile_by_name(name).expect("catalog profile");
        let (cat, _) = profile.generate().discretize(&MdlDiscretizer::new());
        let ts = cat.to_transactions().0;
        let min_sup = profile.default_abs_min_sup();
        let mut prints = Vec::new();
        for (label, mode) in modes {
            set_mode_override(Some(mode));
            let mined = eclat::mine(&ts, min_sup, &MineOptions::default()).expect("mine");
            prints.push((label, pattern_fingerprint(&mined), mined.len()));
        }
        set_mode_override(None);
        let identical = prints.iter().all(|(_, fp, _)| *fp == prints[0].1);
        all_identical &= identical;
        rows.push(Json::obj(vec![
            ("profile", Json::Str((*name).into())),
            ("min_sup_abs", Json::Int(min_sup as u64)),
            ("patterns", Json::Int(prints[0].2 as u64)),
            (
                "fingerprints",
                Json::Obj(
                    prints
                        .iter()
                        .map(|(label, fp, _)| {
                            ((*label).to_string(), Json::Str(format!("{fp:016x}")))
                        })
                        .collect(),
                ),
            ),
            ("identical", Json::Bool(identical)),
        ]));
    }
    (rows, all_identical)
}

fn main() {
    let fast = dfp_bench::fast_mode();

    let mut table = Table::new(vec!["density", "kernel", "ns/op", "speedup"]);
    let (micro, headline) = micro_section(fast, &mut table);
    table.print();
    eprintln!("headline intersection_count speedup vs scalar: {headline:.2}x");

    let (identity, all_identical) = identity_section(fast);
    assert!(
        all_identical,
        "miner output differs across DFP_BITSET modes"
    );

    let out_of_core = out_of_core_section(fast);

    let report = Json::obj(vec![
        ("bench", Json::Str("data_substrate".into())),
        ("fast_mode", Json::Bool(fast)),
        ("micro", Json::Arr(micro)),
        ("headline_speedup", Json::Num(headline)),
        ("speedup_target", Json::Num(SPEEDUP_TARGET)),
        (
            "meets_speedup_target",
            Json::Bool(headline >= SPEEDUP_TARGET),
        ),
        ("miner_identity", Json::Arr(identity)),
        ("out_of_core", out_of_core),
    ]);
    let path = write_root_json("BENCH_data_substrate", &report).expect("write report");
    eprintln!("wrote {}", path.display());
}
