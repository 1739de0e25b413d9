//! The `mining.closed` failpoint at the miner's entry and the
//! `mining.per_class` one above it. The armed-site table is process-global,
//! and the library's unit tests mine closed sets without a lock, so a site
//! armed among them would fail them; this test runs in its own test binary
//! instead, and arms one site at a time because tests in one binary run
//! concurrently.

use dfp_data::schema::ClassId;
use dfp_data::transactions::{Item, TransactionSet};
use dfp_mining::closed::{mine_closed, mine_closed_anytime};
use dfp_mining::{mine_features, MineOptions, MiningConfig, MiningError, StopReason};

/// One-class database over items 0..5.
fn classic() -> TransactionSet {
    let rows: [&[u32]; 5] = [&[0, 1, 4], &[1, 3], &[1, 2], &[0, 1, 3], &[0, 2]];
    TransactionSet::new(
        5,
        1,
        rows.iter()
            .map(|r| r.iter().map(|&i| Item(i)).collect())
            .collect(),
        vec![ClassId(0); rows.len()],
    )
}

#[test]
fn injected_fault_degrades_anytime_and_fails_strict() {
    let cfg = MiningConfig::with_min_sup(0.2);

    dfp_fault::arm("mining.closed", dfp_fault::Action::Err);
    let mined = mine_closed_anytime(&classic(), 1, &MineOptions::default()).unwrap();
    let strict = mine_closed(&classic(), 1, &MineOptions::default());
    let features = mine_features(&classic(), &cfg);
    dfp_fault::disarm("mining.closed");
    assert!(!mined.complete);
    assert_eq!(mined.stopped_by, Some(StopReason::Fault("mining.closed")));
    assert!(mined.patterns.is_empty());
    assert_eq!(strict.unwrap_err(), MiningError::Injected("mining.closed"));
    // The per-class wrapper names the miner's site, not its own.
    assert_eq!(
        features.unwrap_err(),
        MiningError::Injected("mining.closed")
    );

    dfp_fault::arm("mining.per_class", dfp_fault::Action::Err);
    let features = mine_features(&classic(), &cfg);
    dfp_fault::disarm("mining.per_class");
    assert_eq!(
        features.unwrap_err(),
        MiningError::Injected("mining.per_class")
    );

    // Disarmed, the same call mines.
    assert!(!mine_features(&classic(), &cfg).unwrap().is_empty());
}
