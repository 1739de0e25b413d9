//! A second fit on an identical dataset must be answered from the mining
//! memoization cache — and memoization must be invisible in the model.

use dfpc::core::{FrameworkConfig, PatternClassifier};
use dfpc::data::dataset::{categorical_dataset, Dataset};
use dfpc::mining::memo;
use dfpc::obs::metrics::dfp::{cache_mining_hits, cache_mining_misses};
use std::sync::{Mutex, MutexGuard};

/// The memo cache and its counters are process-global; tests in this file
/// serialise on this lock so deltas are attributable.
static MEMO_LOCK: Mutex<()> = Mutex::new(());

fn lock_memo() -> MutexGuard<'static, ()> {
    let guard = MEMO_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    dfp_fault::disarm_all();
    memo::set_enabled(Some(true));
    memo::clear();
    guard
}

fn small_dataset() -> Dataset {
    let mut rows: Vec<(Vec<u32>, u32)> = Vec::new();
    for i in 0..40u32 {
        let (vals, label) = if i % 2 == 0 {
            (vec![1, 1, i % 3], 0)
        } else {
            (vec![1, 2, i % 3], 1)
        };
        rows.push((vals, label));
    }
    let borrowed: Vec<(&[u32], u32)> = rows.iter().map(|(v, l)| (&v[..], *l)).collect();
    categorical_dataset(&[3, 3, 3], 2, &borrowed)
}

/// The ISSUE acceptance check: fit, fit again on the same data, and the
/// second fit is served from the cache (hit counter moves, miss counter
/// does not move a second time for the same mine call).
#[test]
fn second_fit_on_identical_data_hits_the_mining_cache() {
    let _guard = lock_memo();
    let data = small_dataset();
    let cfg = FrameworkConfig::pat_fs();

    let hits_before = cache_mining_hits().get();
    let misses_before = cache_mining_misses().get();

    let first = PatternClassifier::fit(&data, &cfg).expect("first fit");
    let misses_after_first = cache_mining_misses().get();
    assert!(
        misses_after_first > misses_before,
        "first fit on an empty cache must miss"
    );
    assert_eq!(
        cache_mining_hits().get(),
        hits_before,
        "first fit on an empty cache must not hit"
    );

    let second = PatternClassifier::fit(&data, &cfg).expect("second fit");
    assert!(
        cache_mining_hits().get() > hits_before,
        "second fit on identical data must be answered from the cache"
    );
    assert_eq!(
        cache_mining_misses().get(),
        misses_after_first,
        "second fit must not re-run the miner"
    );

    // Memoization is invisible: same fingerprint, same predictions.
    assert_eq!(first.dataset_fingerprint(), second.dataset_fingerprint());
    let rows: Vec<Vec<u32>> = (0..6).map(|i| vec![1, 1 + (i % 2), i % 3]).collect();
    assert_eq!(first.predict_rows(&rows), second.predict_rows(&rows));
}

/// Disabling the cache really disables it: two fits, zero hits.
#[test]
fn disabled_cache_never_hits() {
    let _guard = lock_memo();
    memo::set_enabled(Some(false));
    let data = small_dataset();
    let cfg = FrameworkConfig::pat_fs();

    let hits_before = cache_mining_hits().get();
    let first = PatternClassifier::fit(&data, &cfg).expect("first fit");
    let second = PatternClassifier::fit(&data, &cfg).expect("second fit");
    assert_eq!(
        cache_mining_hits().get(),
        hits_before,
        "disabled cache must never hit"
    );
    let rows: Vec<Vec<u32>> = (0..6).map(|i| vec![1, 1 + (i % 2), i % 3]).collect();
    assert_eq!(first.predict_rows(&rows), second.predict_rows(&rows));
    memo::set_enabled(Some(true));
}

/// Switching the mining backend on identical data must never be answered
/// from another miner's cache entry: the `MinerKind` is part of the memo
/// key, so a backend switch is a miss, not a (stale) hit.
#[test]
fn backend_switch_on_identical_data_misses_the_cache() {
    let _guard = lock_memo();
    let data = small_dataset();
    use dfpc::core::MinerKind;

    let closed_cfg = FrameworkConfig::pat_fs().with_miner(MinerKind::Closed);
    let eclat_cfg = FrameworkConfig::pat_fs().with_miner(MinerKind::Eclat);

    let _warm = PatternClassifier::fit(&data, &closed_cfg).expect("closed fit");
    let hits_after_closed = cache_mining_hits().get();
    let misses_after_closed = cache_mining_misses().get();

    let _switched = PatternClassifier::fit(&data, &eclat_cfg).expect("eclat fit");
    assert_eq!(
        cache_mining_hits().get(),
        hits_after_closed,
        "a different backend must not reuse the closed miner's entry"
    );
    assert!(
        cache_mining_misses().get() > misses_after_closed,
        "the eclat fit must mine (and populate its own entry)"
    );

    // Same backend again: now it is a hit, proving the switch above missed
    // because of the miner tag and not some other key component.
    let misses_after_eclat = cache_mining_misses().get();
    let _again = PatternClassifier::fit(&data, &eclat_cfg).expect("eclat refit");
    assert!(
        cache_mining_hits().get() > hits_after_closed,
        "identical backend + data must hit"
    );
    assert_eq!(
        cache_mining_misses().get(),
        misses_after_eclat,
        "the repeat eclat fit must not re-mine"
    );
}

/// Different data means different fingerprints — a changed label flips the
/// cache key, so the cache cannot serve stale patterns.
#[test]
fn changed_data_changes_the_fingerprint() {
    let _guard = lock_memo();
    let a = small_dataset();
    let mut rows: Vec<(Vec<u32>, u32)> = Vec::new();
    for i in 0..40u32 {
        let (vals, label) = if i % 2 == 0 {
            (vec![1, 1, i % 3], 0)
        } else {
            (vec![1, 2, i % 3], if i == 39 { 0 } else { 1 })
        };
        rows.push((vals, label));
    }
    let borrowed: Vec<(&[u32], u32)> = rows.iter().map(|(v, l)| (&v[..], *l)).collect();
    let b = categorical_dataset(&[3, 3, 3], 2, &borrowed);

    let cfg = FrameworkConfig::pat_fs();
    let fit_a = PatternClassifier::fit(&a, &cfg).expect("fit a");
    let hits_after_a = cache_mining_hits().get();
    let fit_b = PatternClassifier::fit(&b, &cfg).expect("fit b");
    assert_ne!(fit_a.dataset_fingerprint(), fit_b.dataset_fingerprint());
    assert_eq!(
        cache_mining_hits().get(),
        hits_after_a,
        "different data must not hit the cache"
    );
}
