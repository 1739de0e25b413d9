//! Property tests: the miners agree with each other and with a brute-force
//! reference on random transaction databases, and the closed-set invariants
//! of §3.3 hold — at the pipeline's `min_len` of 2 and under a pattern
//! budget too.

use dfpc::data::schema::ClassId;
use dfpc::data::transactions::{contains_sorted, Item, TransactionSet};
use dfpc::mining::pattern::sort_canonical;
use dfpc::mining::reference::{mine_brute_force, mine_closed_brute_force};
use dfpc::mining::{apriori, closed, count, eclat, MineOptions};
use proptest::prelude::*;

/// Strategy: a random database of up to 12 transactions over up to 8 items.
fn random_db() -> impl Strategy<Value = TransactionSet> {
    let n_items = 8usize;
    prop::collection::vec(
        prop::collection::btree_set(0u32..n_items as u32, 0..=6),
        1..=12,
    )
    .prop_map(move |txs| {
        let transactions: Vec<Vec<Item>> = txs
            .into_iter()
            .map(|set| set.into_iter().map(Item).collect())
            .collect();
        let n = transactions.len();
        TransactionSet::new(n_items, 1, transactions, vec![ClassId(0); n])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_miners_equal_brute_force(ts in random_db(), min_sup in 1usize..5) {
        let want = mine_brute_force(&ts, min_sup, None);
        let opts = MineOptions::default();
        for (name, got) in [
            ("eclat", eclat::mine(&ts, min_sup, &opts).unwrap()),
            ("apriori", apriori::mine(&ts, min_sup, &opts).unwrap()),
        ] {
            let mut got = got;
            sort_canonical(&mut got);
            prop_assert_eq!(&got, &want, "{} disagrees with brute force", name);
        }
    }

    #[test]
    fn closed_miner_equals_brute_force(ts in random_db(), min_sup in 1usize..5) {
        let mut got = closed::mine_closed(&ts, min_sup, &MineOptions::default()).unwrap();
        sort_canonical(&mut got);
        let want = mine_closed_brute_force(&ts, min_sup, None);
        prop_assert_eq!(got, want);
    }

    /// The pipeline mines at `min_len` 2: the closed sets of length ≥ 2,
    /// no more and no fewer.
    #[test]
    fn closed_miner_at_min_len_2_equals_brute_force(ts in random_db(), min_sup in 1usize..5) {
        let opts = MineOptions::default().with_min_len(2);
        let mut got = closed::mine_closed(&ts, min_sup, &opts).unwrap();
        sort_canonical(&mut got);
        let mut want = mine_closed_brute_force(&ts, min_sup, None);
        want.retain(|p| p.len() >= 2);
        prop_assert_eq!(got, want);
    }

    /// A budget-stopped run keeps at most `max_patterns` sets, each closed in
    /// the full database with its exact support, and it is complete exactly
    /// when the budget covers every closed set.
    #[test]
    fn budget_stopped_closed_sets_are_closed_and_exact(
        ts in random_db(),
        min_sup in 1usize..4,
        min_len in 1usize..3,
        budget in 1u64..40,
    ) {
        let mut all = mine_closed_brute_force(&ts, min_sup, None);
        all.retain(|p| p.len() >= min_len);
        let opts = MineOptions::default().with_min_len(min_len).with_max_patterns(budget);
        let mined = closed::mine_closed_anytime(&ts, min_sup, &opts).unwrap();
        prop_assert_eq!(mined.complete, all.len() as u64 <= budget);
        prop_assert_eq!(mined.patterns.len() as u64, budget.min(all.len() as u64));
        for p in &mined.patterns {
            prop_assert!(all.contains(p), "{:?} (support {}) is not closed", p.items, p.support);
        }
    }

    #[test]
    fn every_frequent_set_has_closed_superset_with_equal_support(
        ts in random_db(), min_sup in 1usize..4
    ) {
        let frequent = eclat::mine(&ts, min_sup, &MineOptions::default()).unwrap();
        let closed = closed::mine_closed(&ts, min_sup, &MineOptions::default()).unwrap();
        for f in &frequent {
            prop_assert!(
                closed.iter().any(|c| c.support == f.support
                    && contains_sorted(&c.items, &f.items)),
                "no closed superset for {:?} (support {})", f.items, f.support
            );
        }
    }

    #[test]
    fn closed_sets_are_maximal(ts in random_db(), min_sup in 1usize..4) {
        let closed = closed::mine_closed(&ts, min_sup, &MineOptions::default()).unwrap();
        // No closed set may strictly contain another with equal support.
        for a in &closed {
            for b in &closed {
                if a.support == b.support && a.items.len() < b.items.len() {
                    prop_assert!(
                        !contains_sorted(&b.items, &a.items),
                        "{:?} subsumed by {:?}", a.items, b.items
                    );
                }
            }
        }
    }

    #[test]
    fn counting_matches_materialisation(ts in random_db(), min_sup in 1usize..4) {
        let n = count::count_frequent(&ts, min_sup, u64::MAX).unwrap();
        let full = eclat::mine(&ts, min_sup, &MineOptions::default()).unwrap();
        prop_assert_eq!(n as usize, full.len());
    }

    #[test]
    fn supports_are_exact(ts in random_db(), min_sup in 1usize..4) {
        for p in eclat::mine(&ts, min_sup, &MineOptions::default()).unwrap() {
            prop_assert_eq!(p.support as usize, ts.support(&p.items));
        }
        for p in closed::mine_closed(&ts, min_sup, &MineOptions::default()).unwrap() {
            prop_assert_eq!(p.support as usize, ts.support(&p.items));
        }
    }

    /// Class supports attached from tidset ∩ class-mask counts equal a
    /// horizontal recount, on databases long enough to span several words.
    #[test]
    fn class_supports_match_horizontal_recount(
        txs in prop::collection::vec(prop::collection::btree_set(0u32..8, 0..=6), 1..=150),
        labels in prop::collection::vec(0u32..3, 150),
        min_sup in 1usize..4,
    ) {
        let n = txs.len();
        let transactions: Vec<Vec<Item>> = txs
            .into_iter()
            .map(|set| set.into_iter().map(Item).collect())
            .collect();
        let labels = labels[..n].iter().map(|&l| ClassId(l)).collect();
        let ts = TransactionSet::new(8, 3, transactions, labels);
        let raw = eclat::mine(&ts, min_sup, &MineOptions::default()).unwrap();
        for p in count::attach_class_supports(&ts, &raw) {
            let want: Vec<u32> = ts.class_supports(&p.items).iter().map(|&c| c as u32).collect();
            prop_assert_eq!(&p.class_supports, &want, "{:?}", &p.items);
            prop_assert_eq!(p.support as usize, ts.support(&p.items));
        }
    }

    #[test]
    fn monotonicity_in_min_sup(ts in random_db()) {
        // Raising min_sup can only shrink the frequent set.
        let mut last = usize::MAX;
        for min_sup in 1..=4usize {
            let n = eclat::mine(&ts, min_sup, &MineOptions::default()).unwrap().len();
            prop_assert!(n <= last);
            last = n;
        }
    }
}
