//! `perfbench`: the repository benchmark. One command runs one seeded
//! workload against the library and the in-process HTTP server, checks that
//! every output is correct, and prints its metrics:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-bulk --seed 1 --seconds 35 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics,
//! with `--trace 1` the per-layer ones from a separate traced run. The line
//! before it is the run's record: the environment, every job, the capacity
//! windows and the layer shares. `--workload all` runs the four workloads in turn,
//! each in its own process; `BENCHMARK.json` lists three of them, and
//! fit-chess runs by name only (perfbench/README.md says why).
//! `--check-repeat` runs the traced workload twice with the same seed and
//! fails unless the counts that must repeat exactly do. No `DFP_*` setting
//! is pinned: the program runs with its defaults.

mod fit;
mod inputs;
mod json;
mod serve;
mod stats;
mod sys;
mod trace;

use json::Obj;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["fit-chess", "modelsel-austral", "serve-hot", "serve-bulk"];

/// End-to-end metrics, reported on every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("max_rate", "1/s"),
    ("accuracy", "ratio"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported on every workload with `--trace 1`; a layer
/// a workload does not exercise reads 0. The serve workloads' latency tail
/// is here too: on a shared two-core host it follows the run's CPU steal
/// too closely to gate a change.
const PER_LAYER: [(&str, &str); 46] = [
    ("latency.p90_ms", "ms"),
    ("latency.p99_ms", "ms"),
    ("select.mmrfs.self_s", "s"),
    ("select.mmrfs.cpu_s", "s"),
    ("select.mmrfs.rounds", "count"),
    ("select.mmrfs.scanned", "count"),
    ("select.mmrfs.useful_ratio", "ratio"),
    ("mining.mine.self_s", "s"),
    ("mining.mine.cpu_s", "s"),
    ("mining.patterns", "count"),
    ("mining.nodes", "count"),
    ("mining.memo_hit_ratio", "ratio"),
    ("classify.train.self_s", "s"),
    ("classify.train.cpu_s", "s"),
    ("classify.predict.self_s", "s"),
    ("core.cv.self_s", "s"),
    ("core.cv.folds", "count"),
    ("data.csv.self_s", "s"),
    ("data.discretize.self_s", "s"),
    ("data.itemize.self_s", "s"),
    ("select.transform.self_s", "s"),
    ("model.encode.self_s", "s"),
    ("model.bytes", "bytes"),
    ("registry.publish.self_s", "s"),
    ("serve.batch.batches", "count"),
    ("serve.batch.mean_size", "requests"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.queue.wait_p50_ms", "ms"),
    ("serve.queue.wait_p99_ms", "ms"),
    ("client.connect_p50_ms", "ms"),
    ("client.send_p50_ms", "ms"),
    ("client.first_byte_p50_ms", "ms"),
    ("client.done_p50_ms", "ms"),
    ("serve.http.self_us", "us"),
    ("serve.rows.self_us", "us"),
    ("serve.cache.self_us", "us"),
    ("serve.transform.self_us", "us"),
    ("serve.predict.self_us", "us"),
    ("serve.render.self_us", "us"),
    ("serve.handler_p50_ms", "ms"),
    ("serve.shed", "count"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("host.steal_share", "ratio"),
    ("host.workers", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    check_repeat: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut check_repeat = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|_| "--seconds takes a number")?)
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--check-repeat" => check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; all or one of {WORKLOADS:?}"
        ));
    }
    if workload == "all" && check_repeat {
        return Err("--check-repeat takes a single workload".into());
    }
    let seconds: f64 = seconds.unwrap_or(35.0);
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        check_repeat,
    })
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures; any one fails the command.
    pub errors: Vec<String>,
    metrics: BTreeMap<String, f64>,
    /// Timing samples behind the latency metrics.
    pub samples: usize,
    /// Per-job records whose counts repeat exactly for a seed.
    pub jobs: Vec<Obj>,
    /// Serve: the capacity phase's windows.
    pub capacity: Vec<stats::Window>,
    /// Each layer's share of the traced self time.
    pub shares: BTreeMap<&'static str, f64>,
    /// Wall seconds of the run's phases, in order.
    pub phases: Vec<(&'static str, f64)>,
    /// Serve: p50, p75 and p90 latency (ms) of each nominal-rate window.
    pub windows: Vec<[f64; 3]>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        self.metrics.insert(name.into(), v);
    }

    pub fn phase(&mut self, name: &'static str, seconds: f64) {
        self.phases.push((name, seconds));
    }
}

/// The benchmark's scratch directory for this process (registry files).
fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(std::process::id().to_string())
}

fn run(opts: &Opts) -> ExitCode {
    let steal0 = sys::steal_ticks();
    let work = work_dir();
    let mut out = match opts.workload.as_str() {
        "fit-chess" => fit::run(fit::Kind::Chess, opts, &work),
        "modelsel-austral" => fit::run(fit::Kind::ModelSel, opts, &work),
        "serve-hot" => serve::run(serve::Kind::Hot, opts),
        _ => serve::run(serve::Kind::Bulk, opts),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(work.parent().expect("work dir has a parent"));
    let steal = sys::steal_share(steal0, sys::steal_ticks());
    out.set(
        "ok_ratio",
        stats::ratio(
            (out.attempted - out.failed.min(out.attempted)) as f64,
            out.attempted as f64,
        ),
    );
    if !out.metrics.contains_key("peak_rss_mb") {
        out.set("peak_rss_mb", sys::peak_rss_mib());
    }
    out.set("host.steal_share", steal);
    out.set("host.workers", dfp_par::worker_threads() as f64);

    let metric = |v: f64, unit: &str| {
        let mut m = Obj::new();
        m.num("value", v).str("unit", unit);
        m
    };
    let mut all = Obj::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if let Some(&v) = out.metrics.get(*name) {
            all.obj(name, metric(v, unit));
        }
    }
    let mut metrics = Obj::new();
    let wanted = if opts.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for (name, unit) in wanted {
        let value = match out.metrics.get(*name) {
            Some(&v) => v,
            // A layer the workload does not exercise reads 0.
            None if opts.trace => 0.0,
            None => {
                out.errors.push(format!("metric {name} was not measured"));
                continue;
            }
        };
        metrics.obj(name, metric(value, unit));
    }

    let mut record = Obj::new();
    record
        .str("workload", &opts.workload)
        .num("seconds", opts.seconds)
        .bool("trace", opts.trace);
    record.obj("env", sys::env_record(opts.seed, steal));
    record.int("samples", out.samples as u64);
    record.obj("measured", all);
    record.arr("jobs", std::mem::take(&mut out.jobs));
    record.arr(
        "capacity_windows",
        out.capacity
            .iter()
            .map(|w| {
                let mut o = Obj::new();
                o.num("rate", w.rate)
                    .num("tail_ms", w.tail_ms)
                    .int("failed", w.failed as u64);
                o
            })
            .collect(),
    );
    let mut shares = Obj::new();
    for (k, v) in &out.shares {
        shares.num(k, *v);
    }
    record.obj("layer_shares", shares);
    let mut phases = Obj::new();
    for (k, v) in &out.phases {
        phases.num(k, *v);
    }
    record.obj("phases_s", phases);
    record.arr(
        "nominal_windows_ms",
        out.windows
            .iter()
            .map(|[p50, p75, p90]| {
                let mut o = Obj::new();
                o.num("p50", *p50).num("p75", *p75).num("p90", *p90);
                o
            })
            .collect(),
    );
    let errors: Vec<Obj> = out
        .errors
        .iter()
        .map(|e| {
            let mut o = Obj::new();
            o.str("error", e);
            o
        })
        .collect();
    record.arr("errors", errors);
    for e in &out.errors {
        eprintln!("perfbench: {e}");
    }
    println!("record {}", record.render());

    let correct = out.errors.is_empty();
    let mut result = Obj::new();
    result
        .bool("correct", correct)
        .int("attempted", out.attempted.max(1))
        .int("failed", out.failed)
        .obj("metrics", metrics);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The counts that must repeat exactly for a seed.
const REPEATED: [&str; 8] = [
    "mining.patterns",
    "mining.nodes",
    "select.mmrfs.rounds",
    "select.mmrfs.scanned",
    "core.cv.folds",
    "accuracy",
    "winner",
    "model.bytes",
];

/// Runs `workload` in a child process of this executable; returns whether it
/// succeeded and its stdout.
fn child(opts: &Opts, workload: &str, trace: bool) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    Ok((
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    ))
}

/// Runs every workload in turn, each in its own process, and prints each
/// one's result line after its name.
fn run_all(opts: &Opts) -> ExitCode {
    let mut all_ok = true;
    for w in WORKLOADS {
        match child(opts, w, opts.trace) {
            Ok((ok, stdout)) => {
                all_ok &= ok;
                println!("{w} {}", stdout.lines().last().unwrap_or("{}"));
            }
            Err(e) => {
                all_ok = false;
                eprintln!("perfbench: {e}");
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the traced workload twice with the same seed in child processes and
/// compares the counts of every job both completed.
fn check_repeat(opts: &Opts) -> ExitCode {
    let mut runs = Vec::new();
    for _ in 0..2 {
        let jobs = child(opts, &opts.workload, true)
            .ok()
            .filter(|(ok, _)| *ok)
            .and_then(|(_, stdout)| {
                let line = stdout.lines().find_map(|l| l.strip_prefix("record "))?;
                match dfp_obs::json::parse(line).ok()?.get("jobs")? {
                    dfp_obs::json::Value::Arr(jobs) => Some(jobs.clone()),
                    _ => None,
                }
            });
        let Some(jobs) = jobs else {
            eprintln!("perfbench: a traced run failed or printed no record");
            return ExitCode::FAILURE;
        };
        runs.push(jobs);
    }
    let common = runs[0].len().min(runs[1].len());
    let mut mismatches = 0;
    for (j, (first, second)) in runs[0].iter().zip(&runs[1]).enumerate() {
        for key in REPEATED {
            let a = first.get(key).and_then(|v| v.as_f64());
            let b = second.get(key).and_then(|v| v.as_f64());
            if a != b {
                mismatches += 1;
                eprintln!("perfbench: job {j} {key}: {a:?} then {b:?}");
            }
        }
    }
    let mut result = Obj::new();
    result
        .str("workload", &opts.workload)
        .int("seed", opts.seed)
        .int("jobs_compared", common as u64)
        .int("mismatches", mismatches)
        .bool("repeats_exactly", common > 0 && mismatches == 0);
    println!("{}", result.render());
    if common > 0 && mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <all|{}> --seed <n> --seconds <s> --trace <0|1> [--check-repeat]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if opts.check_repeat {
        check_repeat(&opts)
    } else if opts.workload == "all" {
        run_all(&opts)
    } else {
        run(&opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_run_arguments() {
        let o = parse_args(&args(
            "--workload serve-hot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, "serve-hot");
        assert_eq!(o.seed, 7);
        assert_eq!(o.seconds, 10.0);
        assert!(o.trace);
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload all --seed 1")).is_ok());
        assert!(parse_args(&args("--workload all --seed 1 --check-repeat")).is_err());
        assert!(parse_args(&args("--workload fit-chess --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload fit-chess")).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
