//! Criterion micro-benchmarks for the miners: closed vs Eclat vs Apriori
//! (the feature-generation ablation of DESIGN.md §6.4), and the min_sup
//! sensitivity of closed mining.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dfp_data::discretize::MdlDiscretizer;
use dfp_data::synth::profile_by_name;
use dfp_data::transactions::TransactionSet;
use dfp_mining::{apriori, closed, eclat, MineOptions};
use std::hint::black_box;

fn austral_ts() -> TransactionSet {
    let data = profile_by_name("austral").expect("profile").generate();
    let (cat, _) = data.discretize(&MdlDiscretizer::new());
    cat.to_transactions().0
}

fn bench_miner_ablation(c: &mut Criterion) {
    let ts = austral_ts();
    let min_sup = (ts.len() as f64 * 0.2).ceil() as usize;
    let opts = MineOptions::default();
    let mut group = c.benchmark_group("miner_ablation_austral_minsup20pct");
    group.sample_size(10);
    group.bench_function("closed", |b| {
        b.iter(|| black_box(closed::mine_closed(&ts, min_sup, &opts).unwrap()))
    });
    group.bench_function("eclat", |b| {
        b.iter(|| black_box(eclat::mine(&ts, min_sup, &opts).unwrap()))
    });
    group.bench_function("apriori", |b| {
        b.iter(|| black_box(apriori::mine(&ts, min_sup, &opts).unwrap()))
    });
    group.finish();
}

fn bench_minsup_sensitivity(c: &mut Criterion) {
    let ts = austral_ts();
    let opts = MineOptions::default();
    let mut group = c.benchmark_group("closed_mining_vs_minsup_austral");
    group.sample_size(10);
    for pct in [30usize, 20, 15, 10] {
        let min_sup = (ts.len() * pct) / 100;
        group.bench_with_input(BenchmarkId::from_parameter(pct), &min_sup, |b, &ms| {
            b.iter(|| black_box(closed::mine_closed(&ts, ms, &opts).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_miner_ablation, bench_minsup_sensitivity);
criterion_main!(benches);
