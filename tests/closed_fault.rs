//! The default miner's failpoint, `mining.closed`, degrades an anytime fit
//! and fails a strict one.
//!
//! The armed-site table is process-global and every pattern fit mines
//! through this site, so a site armed here would fail the unlocked fits of
//! the other suites; this test runs in its own test binary instead.

use dfpc::core::{FrameworkConfig, FrameworkError, PatternClassifier};
use dfpc::data::dataset::{categorical_dataset, Dataset};
use dfpc::mining::{MiningError, StopReason};

/// Planted two-class data: the pair (a0=1, a1=1) marks class 0 and
/// (a0=1, a1=2) marks class 1; a2 is noise.
fn planted() -> Dataset {
    let rows: Vec<(Vec<u32>, u32)> = (0..120u32)
        .map(|i| {
            if i % 2 == 0 {
                (vec![1, 1, i % 3], 0)
            } else {
                (vec![1, 2, i % 3], 1)
            }
        })
        .collect();
    let borrowed: Vec<(&[u32], u32)> = rows.iter().map(|(v, l)| (&v[..], *l)).collect();
    categorical_dataset(&[3, 3, 3], 2, &borrowed)
}

#[test]
fn closed_fault_degrades_anytime_fit_to_partial() {
    let data = planted();
    let cfg = FrameworkConfig::pat_all().with_anytime_mining(true);

    // The failpoint site is registered, so the CI fault matrix can arm it.
    assert!(
        dfpc::fault::REGISTRY
            .iter()
            .any(|(site, _)| *site == "mining.closed"),
        "mining.closed missing from the failpoint registry"
    );

    dfpc::fault::arm("mining.closed", dfpc::fault::Action::Err);
    let fitted = PatternClassifier::fit(&data, &cfg);
    dfpc::fault::disarm("mining.closed");

    // Anytime path: the injected fault yields a *partial* mining result
    // (complete = false, stopped_by = Fault("mining.closed")), not a failed
    // fit — items still carry the model.
    let fitted = fitted.expect("anytime fit degrades instead of failing");
    let report = fitted.degradation();
    assert!(report.is_degraded());
    assert!(!report.mining_complete);
    assert_eq!(
        report.mining_stopped_by,
        Some(StopReason::Fault("mining.closed"))
    );
    assert!(fitted.accuracy(&data) > 0.5);

    // Strict mode with the same armed site fails loudly instead.
    dfpc::fault::arm("mining.closed", dfpc::fault::Action::Err);
    let strict = PatternClassifier::fit(&data, &FrameworkConfig::pat_all());
    dfpc::fault::disarm("mining.closed");
    assert_eq!(
        strict.unwrap_err(),
        FrameworkError::Mining(MiningError::Injected("mining.closed"))
    );
}
