//! Graceful-degradation acceptance: anytime mining under a pattern budget
//! or deadline must keep a usable best-so-far model — flagged as degraded,
//! with accuracy within 2 points of the unbudgeted fit on planted data —
//! while strict (non-anytime) mode keeps failing loudly.

use dfpc::core::{FeatureMode, FrameworkConfig, PatternClassifier};
use dfpc::data::dataset::{categorical_dataset, Dataset};
use dfpc::data::split::stratified_holdout;
use dfpc::mining::StopReason;
use std::time::Duration;

/// Planted two-class data: the pair (a0=1, a1=1) marks class 0 and
/// (a0=1, a1=2) marks class 1; a2 is noise. Patterns and items both carry
/// signal, so a truncated pattern set still supports a strong model.
fn planted() -> Dataset {
    let mut rows: Vec<(Vec<u32>, u32)> = Vec::new();
    for i in 0..120u32 {
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

fn with_pattern_budget(mut cfg: FrameworkConfig, budget: u64) -> FrameworkConfig {
    if let FeatureMode::Patterns { mining, .. } = &mut cfg.features {
        mining.options = mining.options.clone().with_max_patterns(budget);
    }
    cfg
}

#[test]
fn budget_stopped_fit_stays_within_two_points() {
    let data = planted();
    let fold = stratified_holdout(&data.labels, 0.3, 7);
    let (train, test) = (data.subset(&fold.train), data.subset(&fold.test));

    let full_cfg = FrameworkConfig::pat_all();
    let full = PatternClassifier::fit(&train, &full_cfg).expect("unbudgeted fit");
    assert!(!full.degradation().is_degraded());
    assert!(full.degradation().mining_stopped_by.is_none());

    // A budget under the full pattern count forces a best-so-far stop.
    let tight = with_pattern_budget(FrameworkConfig::pat_all().with_anytime_mining(true), 2);
    let degraded = PatternClassifier::fit(&train, &tight).expect("anytime fit");
    let report = degraded.degradation();
    assert!(report.is_degraded(), "budget of 2 did not stop mining");
    assert_eq!(report.mining_stopped_by, Some(StopReason::PatternBudget));
    assert!(!report.mining_complete);
    // Best-so-far, not nothing: the truncated mining still yielded patterns.
    assert!(
        degraded.info().n_features > 0,
        "degraded fit produced no features"
    );

    let full_acc = full.accuracy(&test);
    let degraded_acc = degraded.accuracy(&test);
    assert!(
        full_acc - degraded_acc <= 0.02 + 1e-9,
        "degraded accuracy {degraded_acc} fell more than 2 points below {full_acc}"
    );
}

#[test]
fn strict_mode_still_fails_loudly_on_budget() {
    let data = planted();
    // Same tight budget, anytime OFF: the legacy contract holds — error,
    // not a silently truncated model.
    let strict = with_pattern_budget(FrameworkConfig::pat_all(), 2);
    assert!(PatternClassifier::fit(&data, &strict).is_err());
}

#[test]
fn zero_deadline_degrades_instead_of_failing() {
    let data = planted();
    let cfg = FrameworkConfig::pat_all()
        .with_anytime_mining(true)
        .with_mining_time_budget(Duration::ZERO);
    let fitted = PatternClassifier::fit(&data, &cfg).expect("anytime fit under deadline");
    let report = fitted.degradation();
    assert!(report.is_degraded());
    assert_eq!(report.mining_stopped_by, Some(StopReason::Deadline));
    // Items still carry the model: prediction works end to end.
    assert!(fitted.accuracy(&data) > 0.5);

    // Strict mode with the same dead deadline fails loudly.
    let strict = FrameworkConfig::pat_all().with_mining_time_budget(Duration::ZERO);
    assert!(PatternClassifier::fit(&data, &strict).is_err());
}

#[test]
fn degradation_report_is_not_persisted() {
    // The report is a fit-time diagnostic: a round-tripped artifact comes
    // back undegraded (the model itself is already truncated-but-valid).
    let data = planted();
    let tight = with_pattern_budget(FrameworkConfig::pat_all().with_anytime_mining(true), 2);
    let fitted = PatternClassifier::fit(&data, &tight).expect("anytime fit");
    assert!(fitted.degradation().is_degraded());
    let loaded = dfpc::model::from_bytes(&dfpc::model::to_bytes(&fitted)).expect("roundtrip");
    assert!(!loaded.degradation().is_degraded());
    assert_eq!(
        loaded.predict(&data).expect("loaded predict"),
        fitted.predict(&data).expect("fitted predict")
    );
}
