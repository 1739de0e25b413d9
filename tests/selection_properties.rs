//! Property tests for MMRFS (Algorithm 1) postconditions and the feature
//! transform, on random labelled databases.

use dfpc::data::schema::ClassId;
use dfpc::data::transactions::{contains_sorted, Item, TransactionSet};
use dfpc::measures::RelevanceMeasure;
use dfpc::mining::{mine_features, MinedPattern, MiningConfig};
use dfpc::select::{mmrfs, FeatureSpace, MmrfsConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn random_labelled_db() -> impl Strategy<Value = TransactionSet> {
    let n_items = 6usize;
    prop::collection::vec(
        (
            prop::collection::btree_set(0u32..n_items as u32, 1..=4),
            0u32..2,
        ),
        4..=16,
    )
    .prop_map(move |rows| {
        let (transactions, labels): (Vec<Vec<Item>>, Vec<ClassId>) = rows
            .into_iter()
            .map(|(set, l)| (set.into_iter().map(Item).collect::<Vec<_>>(), ClassId(l)))
            .unzip();
        TransactionSet::new(n_items, 2, transactions, labels)
    })
}

/// Items on either side of the 64-bit word boundaries of the transform's
/// item bitset, plus the ends of the widest universe drawn below.
const BOUNDARY_ITEMS: [u32; 6] = [0, 63, 64, 127, 128, 199];

/// Drawn item sets, each with indices that add more items to it.
type Draws = Vec<(BTreeSet<u32>, BTreeSet<usize>)>;

/// A case for the compiled transform: a universe of 1–200 items, patterns
/// made of random items plus boundary items, and rows made of random items
/// plus whole patterns or patterns missing their last item (near misses).
/// Items past the universe are folded into it.
fn wide_transform_case() -> impl Strategy<Value = (usize, Draws, Draws)> {
    (
        1usize..=200,
        prop::collection::vec(
            (
                prop::collection::btree_set(0u32..200, 0..=3),
                prop::collection::btree_set(0usize..BOUNDARY_ITEMS.len(), 0..=3),
            ),
            0..=10,
        ),
        prop::collection::vec(
            (
                prop::collection::btree_set(0u32..200, 0..=16),
                prop::collection::btree_set(0usize..20, 0..=3),
            ),
            0..=12,
        ),
    )
}

/// The transform's rows as the merge-walk subset test defines them.
fn reference_rows(fs: &FeatureSpace, ts: &TransactionSet) -> Vec<Vec<u32>> {
    let offset = if fs.include_all_items { fs.n_items } else { 0 };
    ts.transactions()
        .iter()
        .map(|tx| {
            let mut row: Vec<u32> = if fs.include_all_items {
                tx.iter().map(|i| i.0).collect()
            } else {
                Vec::new()
            };
            row.extend(
                (0..fs.patterns.len())
                    .filter(|&k| contains_sorted(tx, &fs.patterns[k]))
                    .map(|k| (offset + k) as u32),
            );
            row
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The compiled transform equals the `contains_sorted` reference across
    /// 64-bit word boundaries, on empty rows, in both layouts and with no
    /// patterns at all.
    #[test]
    fn compiled_transform_matches_merge_reference(case in wide_transform_case()) {
        let (n_items, raw_patterns, raw_rows) = case;
        let fold = |i: u32| i % n_items as u32;
        let patterns: Vec<Vec<Item>> = raw_patterns
            .iter()
            .map(|(items, boundary)| {
                let set: BTreeSet<u32> = items
                    .iter()
                    .map(|&i| fold(i))
                    .chain(boundary.iter().map(|&b| BOUNDARY_ITEMS[b]).filter(|&b| (b as usize) < n_items))
                    .collect();
                set.into_iter().map(Item).collect()
            })
            .collect();
        let mut rows: Vec<Vec<Item>> = raw_rows
            .iter()
            .map(|(items, picks)| {
                let mut set: BTreeSet<u32> = items.iter().map(|&i| fold(i)).collect();
                for &pick in picks {
                    let Some(p) = patterns.get(pick % 10) else { continue };
                    let keep = if pick >= 10 { p.len().saturating_sub(1) } else { p.len() };
                    set.extend(p[..keep].iter().map(|i| i.0));
                }
                set.into_iter().map(Item).collect()
            })
            .collect();
        rows.push(Vec::new());
        let labels = (0..rows.len()).map(|t| ClassId((t % 2) as u32)).collect();
        let ts = TransactionSet::new(n_items, 2, rows, labels);
        let selected: Vec<MinedPattern> = patterns
            .into_iter()
            .map(|items| MinedPattern { items, support: 1, class_supports: vec![1, 0] })
            .collect();
        for fs in [
            FeatureSpace::new(n_items, 2, &selected),
            FeatureSpace::selected_only(n_items, 2, &selected),
            FeatureSpace::new(n_items, 2, &[]),
            FeatureSpace::selected_only(n_items, 2, &[]),
        ] {
            let m = fs.transform(&ts);
            prop_assert_eq!(m.n_features, fs.n_features());
            prop_assert_eq!(&m.rows, &reference_rows(&fs, &ts), "{:?}", fs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Selected indices are unique, valid and start with a max-relevance
    /// pattern; every selected pattern correctly covers something.
    #[test]
    fn mmrfs_postconditions(ts in random_labelled_db(), delta in 1u32..4) {
        let candidates = mine_features(&ts, &MiningConfig::with_min_sup(0.2)).unwrap();
        let cfg = MmrfsConfig { coverage: delta, ..MmrfsConfig::default() };
        let result = mmrfs(&ts, &candidates, &cfg);

        // uniqueness + validity
        let mut seen = std::collections::HashSet::new();
        for &i in &result.selected {
            prop_assert!(i < candidates.len());
            prop_assert!(seen.insert(i), "duplicate selection {}", i);
        }

        if let Some(&first) = result.selected.first() {
            let max_rel = result
                .relevance
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(result.relevance[first] >= max_rel - 1e-12);
        }

        // every selected pattern correctly covers at least one instance
        for &i in &result.selected {
            let p = &candidates[i];
            let covers = (0..ts.len()).any(|t| {
                ts.label(t) == p.majority_class()
                    && dfpc::data::transactions::contains_sorted(ts.transaction(t), &p.items)
            });
            prop_assert!(covers, "selected pattern covers nothing correctly");
        }
    }

    /// Coverage saturation: when candidates can δ-cover everything, the
    /// run reports full coverage; and max_features is always respected.
    #[test]
    fn mmrfs_coverage_and_caps(ts in random_labelled_db(), cap in 1usize..5) {
        let candidates = mine_features(&ts, &MiningConfig::with_min_sup(0.1)).unwrap();
        let cfg = MmrfsConfig { max_features: Some(cap), ..MmrfsConfig::default() };
        let result = mmrfs(&ts, &candidates, &cfg);
        prop_assert!(result.selected.len() <= cap);
    }

    /// Transform correctness: pattern features fire exactly on transactions
    /// containing the pattern; single-item features mirror the transaction.
    #[test]
    fn transform_soundness(ts in random_labelled_db()) {
        let candidates = mine_features(&ts, &MiningConfig::with_min_sup(0.2)).unwrap();
        let fs = FeatureSpace::new(ts.n_items(), ts.n_classes(), &candidates);
        let m = fs.transform(&ts);
        prop_assert_eq!(m.len(), ts.len());
        for (t, row) in m.rows.iter().enumerate() {
            let tx = ts.transaction(t);
            for f in 0..fs.n_features() as u32 {
                let active = row.binary_search(&f).is_ok();
                let expect = if (f as usize) < ts.n_items() {
                    tx.binary_search(&Item(f)).is_ok()
                } else {
                    let p = &fs.patterns[f as usize - ts.n_items()];
                    dfpc::data::transactions::contains_sorted(tx, p)
                };
                prop_assert_eq!(active, expect, "feature {} row {}", f, t);
            }
        }
    }

    /// Relevance measures agree on ordering extremes: a perfectly
    /// discriminative pattern never ranks below a constant one.
    #[test]
    fn relevance_ordering(ts in random_labelled_db()) {
        let counts = ts.class_counts();
        prop_assume!(counts.iter().all(|&c| c > 0));
        let perfect = dfpc::mining::MinedPattern {
            items: vec![Item(0)],
            support: counts[0] as u32,
            class_supports: vec![counts[0] as u32, 0],
        };
        let flat = dfpc::mining::MinedPattern {
            items: vec![Item(1)],
            support: ts.len() as u32,
            class_supports: counts.iter().map(|&c| c as u32).collect(),
        };
        for m in [RelevanceMeasure::InfoGain, RelevanceMeasure::FisherScore] {
            prop_assert!(m.score(&perfect, &counts) >= m.score(&flat, &counts));
        }
    }
}
