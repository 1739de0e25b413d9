//! `data_substrate` — out-of-core fit benchmark → `BENCH_data_substrate.json`.
//!
//! A synthetic million-row CSV is streamed to disk row by row, ingested back
//! through the segmented reader, and fitted end to end (NaiveBayes, relative
//! `min_sup` 0.4). The dataset never exists in memory as a whole. Peak
//! resident memory (`VmHWM`) must stay within [`MEMORY_BUDGET_MB`] wherever
//! `/proc/self/status` is readable; the run fails otherwise.
//!
//! `DFP_FAST=1` shrinks the profile to CI-smoke size.

use dfp_bench::report::{write_root_json, Json};
use dfp_core::{FrameworkConfig, ModelKind, PatternClassifier};
use dfp_data::ingest::{ingest_csv, IngestOptions};
use dfp_data::synth::stream_profile;
use dfp_measures::MinSupStrategy;
use std::time::Instant;

/// Resident-memory ceiling for the out-of-core fit, in MiB.
const MEMORY_BUDGET_MB: u64 = 1536;

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

    eprintln!(
        "out-of-core: {n_rows} rows, stream {stream_secs:.2}s, ingest {ingest_secs:.2}s, \
         fit {fit_secs:.2}s, VmHWM {hwm_mb} MiB (budget {MEMORY_BUDGET_MB} MiB)"
    );
    assert!(
        hwm_mb <= MEMORY_BUDGET_MB,
        "out-of-core fit peaked at {hwm_mb} MiB, over the {MEMORY_BUDGET_MB} MiB budget"
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
    ])
}

fn main() {
    let fast = dfp_bench::fast_mode();
    let report = Json::obj(vec![
        ("bench", Json::Str("data_substrate".into())),
        ("fast_mode", Json::Bool(fast)),
        ("out_of_core", out_of_core_section(fast)),
    ]);
    let path = write_root_json("BENCH_data_substrate", &report).expect("write report");
    eprintln!("wrote {}", path.display());
}
