//! The `mining.nodeset` failpoint. The armed-site table is process-global,
//! and the library's unit tests mine without a lock, so a site armed among
//! them would fail them; this test runs in its own test binary instead.

use dfp_data::schema::ClassId;
use dfp_data::transactions::{Item, TransactionSet};
use dfp_nodeset::{mine_anytime, Limits, Stop};

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
fn fault_degrades_to_empty_incomplete() {
    dfp_fault::arm("mining.nodeset", dfp_fault::Action::Err);
    let got = mine_anytime(&classic(), 1, &Limits::default());
    dfp_fault::disarm("mining.nodeset");
    assert!(!got.complete);
    assert_eq!(got.stopped_by, Some(Stop::Fault));
    assert!(got.patterns.is_empty());
}
