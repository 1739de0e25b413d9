//! `mining_backends` — the miners over UCI profiles → `BENCH_mining_backends.json`.
//!
//! Sweeps the closed-set miner behind feature generation, Eclat (all
//! frequent sets, the ablation backend) and Apriori (the level-wise test
//! oracle) over a mix of sparse small-UCI profiles, the paper's dense
//! scalability profiles (chess / waveform / letter), and a synthetic
//! engineered to be extremely dense, mining each at the profile's default
//! relative support. Per profile the report records per-miner wall-clock /
//! pattern counts / completeness and a fingerprint of the closed sets, so a
//! change to the closed miner can be checked for identical output.
//!
//! `DFP_FAST=1` shrinks the profile list and iteration count for CI smoke;
//! each run is capped by a deadline so a pathological backend degrades to a
//! partial (flagged incomplete) result instead of hanging the sweep.

use dfp_bench::report::{pattern_fingerprint, write_root_json, Json, Table};
use dfp_data::discretize::MdlDiscretizer;
use dfp_data::synth::{profile_by_name, UciProfile};
use dfp_data::transactions::TransactionSet;
use dfp_mining::anytime::Mined;
use dfp_mining::pattern::sort_canonical;
use dfp_mining::{apriori, closed, eclat, MineOptions, MiningError};
use std::time::{Duration, Instant};

type AnytimeMiner = fn(&TransactionSet, usize, &MineOptions) -> Result<Mined, MiningError>;

/// The swept miners, in report order.
const MINERS: [(&str, AnytimeMiner); 3] = [
    ("closed", closed::mine_closed_anytime),
    ("eclat", eclat::mine_anytime),
    ("apriori", apriori::mine_anytime),
];

/// A synthetic regime denser than chess: binary attributes with heavily
/// concentrated values, so nearly every item clears `min_sup`.
fn dense_synth() -> UciProfile {
    UciProfile {
        name: "dense-synth",
        n_instances: 2000,
        n_attrs: 18,
        arity: 2,
        numeric_fraction: 0.0,
        n_classes: 2,
        priors: &[0.5, 0.5],
        default_min_sup: 0.55,
        value_concentration: 0.08,
        class_skew: 0.15,
        patterns_per_class: 3,
        pattern_len: (2, 4),
        expr_in: 0.8,
        expr_out: 0.1,
        missing_rate: 0.0,
    }
}

fn itemize(profile: &UciProfile) -> TransactionSet {
    let data = profile.generate();
    let (cat, _) = data.discretize(&MdlDiscretizer::new());
    cat.to_transactions().0
}

fn main() {
    let fast = dfp_bench::fast_mode();
    // Memoization would let the second backend answer from the first
    // backend's timing run; the sweep must measure every engine cold.
    dfp_mining::memo::set_enabled(Some(false));

    let profile_names: &[&str] = if fast {
        &["labor", "breast", "chess"]
    } else {
        &["austral", "breast", "sonar", "chess", "waveform", "letter"]
    };
    let mut profiles: Vec<UciProfile> = profile_names
        .iter()
        .map(|n| profile_by_name(n).expect("catalog profile"))
        .collect();
    profiles.push(dense_synth());

    let iters = if fast { 1 } else { 3 };
    let per_run_deadline = if fast {
        Duration::from_secs(10)
    } else {
        Duration::from_secs(60)
    };

    let mut table = Table::new(vec![
        "profile", "items", "min_sup", "miner", "seconds", "patterns", "complete",
    ]);
    let mut rows = Vec::new();
    for profile in &profiles {
        let ts = itemize(profile);
        let min_sup = ((ts.len() as f64 * profile.default_min_sup).ceil() as usize).max(1);

        let mut per_miner = Vec::new();
        let mut closed_fingerprint = String::new();
        for (name, mine) in MINERS {
            // Best-of-N wall clock; patterns/complete are run-invariant.
            let mut best = f64::INFINITY;
            let mut last: Option<Mined> = None;
            for _ in 0..iters {
                let opts = MineOptions::default().with_time_budget(per_run_deadline);
                let start = Instant::now();
                let mined = mine(&ts, min_sup, &opts).expect("anytime mining succeeds");
                let secs = start.elapsed().as_secs_f64();
                best = best.min(secs);
                last = Some(mined);
            }
            let mined = last.expect("at least one iteration");
            if name == "closed" {
                let mut sorted = mined.patterns.clone();
                sort_canonical(&mut sorted);
                closed_fingerprint = format!("{:016x}", pattern_fingerprint(&sorted));
            }
            table.row(vec![
                profile.name.to_string(),
                ts.n_items().to_string(),
                min_sup.to_string(),
                name.to_string(),
                format!("{best:.4}"),
                mined.patterns.len().to_string(),
                mined.complete.to_string(),
            ]);
            per_miner.push((
                name.to_string(),
                Json::obj(vec![
                    ("seconds", Json::Num(best)),
                    ("patterns", Json::Int(mined.patterns.len() as u64)),
                    ("complete", Json::Bool(mined.complete)),
                ]),
            ));
        }

        rows.push(Json::obj(vec![
            ("profile", Json::Str(profile.name.into())),
            ("instances", Json::Int(ts.len() as u64)),
            ("items", Json::Int(ts.n_items() as u64)),
            ("min_sup_abs", Json::Int(min_sup as u64)),
            ("closed_fingerprint", Json::Str(closed_fingerprint)),
            ("miners", Json::Obj(per_miner)),
        ]));
    }
    table.print();

    let report = Json::obj(vec![
        ("bench", Json::Str("mining_backends".into())),
        ("fast_mode", Json::Bool(fast)),
        ("iterations", Json::Int(iters as u64)),
        (
            "deadline_seconds",
            Json::Num(per_run_deadline.as_secs_f64()),
        ),
        ("profiles", Json::Arr(rows)),
    ]);
    let path =
        write_root_json("BENCH_mining_backends", &report).expect("write BENCH_mining_backends");
    eprintln!("wrote {}", path.display());
}
