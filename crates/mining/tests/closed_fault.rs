//! The `mining.closed` failpoint at the miner's entry. The armed-site table
//! is process-global, and the library's unit tests mine closed sets without
//! a lock, so a site armed among them would fail them; this test runs in
//! its own test binary instead.

use dfp_data::schema::ClassId;
use dfp_data::transactions::{Item, TransactionSet};
use dfp_mining::closed::{mine_closed, mine_closed_anytime};
use dfp_mining::{MineOptions, MiningError, StopReason};

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
    dfp_fault::arm("mining.closed", dfp_fault::Action::Err);
    let mined = mine_closed_anytime(&classic(), 1, &MineOptions::default()).unwrap();
    let strict = mine_closed(&classic(), 1, &MineOptions::default());
    dfp_fault::disarm("mining.closed");
    assert!(!mined.complete);
    assert_eq!(mined.stopped_by, Some(StopReason::Fault));
    assert!(mined.patterns.is_empty());
    assert_eq!(strict.unwrap_err(), MiningError::Injected("mining.closed"));
}
