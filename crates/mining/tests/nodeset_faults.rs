//! The `mining.nodeset` failpoint through this crate's nodeset adapter.
//! The armed-site table is process-global, and the library's unit tests
//! mine with the nodeset engine without a lock, so a site armed among them
//! would fail them; this test runs in its own test binary instead.

use dfp_data::schema::ClassId;
use dfp_data::transactions::{Item, TransactionSet};
use dfp_mining::nodeset::{mine, mine_anytime};
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
    dfp_fault::arm("mining.nodeset", dfp_fault::Action::Err);
    let mined = mine_anytime(&classic(), 1, &MineOptions::default()).unwrap();
    let strict = mine(&classic(), 1, &MineOptions::default());
    dfp_fault::disarm("mining.nodeset");
    assert!(!mined.complete);
    assert_eq!(mined.stopped_by, Some(StopReason::Fault));
    assert!(mined.patterns.is_empty());
    assert_eq!(strict.unwrap_err(), MiningError::Injected("mining.nodeset"));
}
