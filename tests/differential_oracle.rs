//! Differential test oracle for the mining stack.
//!
//! An independent brute-force enumerator — bitmask subset enumeration,
//! sharing **no code** with `dfpc::mining` (including its own
//! `reference` module) — computes the exact frequent-itemset collection
//! for small databases. Every miner must reproduce it verbatim: Apriori,
//! Eclat, and the closed-set miner after expanding its output back to the
//! full frequent collection.
//!
//! The expansion check is the sharp one: a closed pattern's support must
//! propagate to every subset as the *maximum* over its closed supersets,
//! so any error in closure computation or support bookkeeping shows up as
//! a support mismatch here.

use dfpc::data::schema::ClassId;
use dfpc::data::transactions::{Item, TransactionSet};
use dfpc::mining::closed::{expand_frequent, mine_closed};
use dfpc::mining::pattern::{sort_canonical, RawPattern};
use dfpc::mining::{apriori, eclat, MineOptions};
use proptest::prelude::*;

/// Exhaustive oracle: enumerate every non-empty subset of the item
/// universe as a bitmask and count its support by scanning transaction
/// masks. Only valid for universes of at most 16 items; tests stay ≤ 12.
fn oracle_frequent(ts: &TransactionSet, min_sup: usize) -> Vec<RawPattern> {
    let n_items = ts.n_items();
    assert!(n_items <= 16, "oracle is exponential in the item universe");
    let masks: Vec<u16> = ts
        .transactions()
        .iter()
        .map(|t| t.iter().fold(0u16, |m, i| m | (1 << i.0)))
        .collect();
    let mut out = Vec::new();
    for subset in 1u32..(1u32 << n_items) {
        let subset = subset as u16;
        let support = masks.iter().filter(|&&m| m & subset == subset).count();
        if support >= min_sup {
            let items: Vec<Item> = (0..n_items as u32)
                .filter(|i| subset & (1 << i) != 0)
                .map(Item)
                .collect();
            out.push(RawPattern {
                items,
                support: support as u32,
            });
        }
    }
    sort_canonical(&mut out);
    out
}

/// Strategy: a random database of up to 14 transactions over up to 12
/// items (small enough for the exponential oracle, large enough that the
/// miners' pruning and recursion paths are all exercised).
fn random_db() -> impl Strategy<Value = TransactionSet> {
    (
        4usize..13,
        prop::collection::vec(prop::collection::btree_set(0u32..12, 0..=8), 1..=14),
    )
        .prop_map(|(n_items, txs)| {
            let transactions: Vec<Vec<Item>> = txs
                .into_iter()
                .map(|set| {
                    // Fold the fixed 0..12 item draw into the sampled
                    // universe size, re-deduplicating after the fold.
                    let folded: std::collections::BTreeSet<u32> =
                        set.into_iter().map(|i| i % n_items as u32).collect();
                    folded.into_iter().map(Item).collect()
                })
                .collect();
            let n = transactions.len();
            TransactionSet::new(n_items, 1, transactions, vec![ClassId(0); n])
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Apriori and Eclat each reproduce the oracle exactly — same itemsets,
    /// same supports, same canonical order.
    #[test]
    fn every_miner_reproduces_the_oracle(ts in random_db(), min_sup in 1usize..5) {
        let want = oracle_frequent(&ts, min_sup);
        let opts = MineOptions::default();
        for (name, mut got) in [
            ("apriori", apriori::mine(&ts, min_sup, &opts).unwrap()),
            ("eclat", eclat::mine(&ts, min_sup, &opts).unwrap()),
        ] {
            sort_canonical(&mut got);
            prop_assert_eq!(&got, &want, "{} diverges from the oracle", name);
        }
    }

    /// Expanding the closed-set miner's output reconstructs the complete
    /// frequent collection with exact supports (each subset inherits the
    /// maximum support over its closed supersets).
    #[test]
    fn closed_expansion_reconstructs_the_oracle(ts in random_db(), min_sup in 1usize..5) {
        let closed = mine_closed(&ts, min_sup, &MineOptions::default()).unwrap();
        let expanded = expand_frequent(&closed);
        let want = oracle_frequent(&ts, min_sup);
        prop_assert_eq!(expanded, want);
    }

    /// The closed collection is a subset of the frequent collection, and
    /// expansion never invents patterns below min_sup.
    #[test]
    fn expansion_is_sound(ts in random_db(), min_sup in 1usize..5) {
        let closed = mine_closed(&ts, min_sup, &MineOptions::default()).unwrap();
        let expanded = expand_frequent(&closed);
        for p in &expanded {
            prop_assert!(p.support as usize >= min_sup);
            prop_assert_eq!(p.support as usize, ts.support(&p.items),
                "expanded support wrong for {:?}", p.items);
        }
        // Every closed pattern survives expansion with its own support.
        for c in &closed {
            prop_assert!(
                expanded.iter().any(|p| p.items == c.items && p.support == c.support),
                "closed pattern {:?} lost in expansion", c.items
            );
        }
    }
}

/// A worked fixture where the closed → frequent expansion is easy to
/// verify by hand (the example shape of paper §3.3).
#[test]
fn expansion_golden_example() {
    // Transactions: {0,1,2} ×3, {0,1} ×2, {2} ×1. min_sup = 2.
    let ts = TransactionSet::new(
        3,
        1,
        vec![
            vec![Item(0), Item(1), Item(2)],
            vec![Item(0), Item(1), Item(2)],
            vec![Item(0), Item(1), Item(2)],
            vec![Item(0), Item(1)],
            vec![Item(0), Item(1)],
            vec![Item(2)],
        ],
        vec![ClassId(0); 6],
    );
    let closed = mine_closed(&ts, 2, &MineOptions::default()).unwrap();
    // Closed sets: {0,1} (sup 5), {2} (sup 4), {0,1,2} (sup 3).
    assert_eq!(closed.len(), 3);
    let expanded = expand_frequent(&closed);
    let lookup = |items: &[u32]| -> u32 {
        let items: Vec<Item> = items.iter().copied().map(Item).collect();
        expanded
            .iter()
            .find(|p| p.items == items)
            .unwrap_or_else(|| panic!("{items:?} missing"))
            .support
    };
    assert_eq!(lookup(&[0]), 5);
    assert_eq!(lookup(&[1]), 5);
    assert_eq!(lookup(&[2]), 4);
    assert_eq!(lookup(&[0, 1]), 5);
    assert_eq!(lookup(&[0, 2]), 3);
    assert_eq!(lookup(&[1, 2]), 3);
    assert_eq!(lookup(&[0, 1, 2]), 3);
    assert_eq!(expanded.len(), 7);
}
