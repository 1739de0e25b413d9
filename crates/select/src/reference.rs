//! Paper Algorithm 1 taken literally, as the oracle for [`crate::mmrfs`].
//!
//! Every round recomputes each remaining candidate's
//! `max_{γ ∈ Fs} R(β, γ)` from scratch, folding over `Fs` in selection
//! order from 0.0 with the strict `>`; covers come straight from the
//! transactions. No redundancy caches, no heap, no `dfp-par`.

use crate::mmrfs::{mmrfs, MmrfsConfig, SelectionResult};
use dfp_data::schema::ClassId;
use dfp_data::transactions::{contains_sorted, Item, TransactionSet};
use dfp_measures::redundancy::redundancy_from_overlap;
use dfp_measures::RelevanceMeasure;
use dfp_mining::{mine_features, MinedPattern, MinerKind, MiningConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cmp::Reverse;

fn algorithm_1(
    ts: &TransactionSet,
    candidates: &[MinedPattern],
    cfg: &MmrfsConfig,
) -> SelectionResult {
    let n = ts.len();
    let relevance = cfg.relevance.score_all(candidates, &ts.class_counts());

    // F: patterns with support, or the `max_candidates` most relevant of
    // them (ties to the lower index), scanned in candidate-index order.
    let mut f: Vec<usize> = (0..candidates.len())
        .filter(|&i| candidates[i].support > 0)
        .collect();
    if let Some(k) = cfg.max_candidates {
        f.sort_by(|&a, &b| {
            relevance[b]
                .partial_cmp(&relevance[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(&b))
        });
        f.truncate(k);
        f.sort_unstable();
    }

    let covers = |i: usize, t: usize| contains_sorted(ts.transaction(t), &candidates[i].items);
    let jaccard = |a: usize, b: usize| {
        let (mut inter, mut union) = (0usize, 0usize);
        for t in 0..n {
            let (x, y) = (covers(a, t), covers(b, t));
            inter += usize::from(x && y);
            union += usize::from(x || y);
        }
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    };

    let mut fs: Vec<usize> = Vec::new();
    let mut coverage = vec![0u32; n];
    let cap = cfg.max_features.unwrap_or(usize::MAX);
    while coverage.iter().any(|&c| c < cfg.coverage) && fs.len() < cap {
        let mut best: Option<(usize, f64)> = None;
        for &beta in &f {
            let max_red = fs.iter().fold(0.0, |max, &gamma| {
                let r = redundancy_from_overlap(
                    jaccard(gamma, beta),
                    relevance[beta],
                    relevance[gamma],
                );
                if r > max {
                    r
                } else {
                    max
                }
            });
            let gain = relevance[beta] - max_red;
            let wins = match best {
                None => gain > f64::NEG_INFINITY,
                Some((b, best_gain)) => {
                    gain > best_gain
                        || (gain == best_gain
                            && (candidates[beta].support, Reverse(beta))
                                > (candidates[b].support, Reverse(b)))
                }
            };
            if wins {
                best = Some((beta, gain));
            }
        }
        let Some((beta, _)) = best else { break };
        f.retain(|&i| i != beta);
        let majority = candidates[beta].majority_class();
        let correct: Vec<usize> = (0..n)
            .filter(|&t| covers(beta, t) && ts.label(t) == majority)
            .collect();
        if correct.iter().any(|&t| coverage[t] < cfg.coverage) {
            for t in correct {
                coverage[t] += 1;
            }
            fs.push(beta);
        }
    }

    SelectionResult {
        selected: fs,
        relevance,
        fully_covered: coverage.iter().filter(|&&c| c >= cfg.coverage).count(),
    }
}

/// Random databases over items 0..5 with up to three classes. Items 5 and
/// 6, when present, copy items 0 and 1, so distinct patterns share tidsets
/// and their gain ties fall to index. With `markers`, the next item marks
/// class 0 and the one after it class 1: perfect separators, whose Fisher
/// score is +∞ and whose gains tie across supports.
fn database() -> impl Strategy<Value = TransactionSet> {
    (
        prop::collection::vec(
            (prop::collection::btree_set(0u32..5, 0..=4), 0u32..3),
            1..=18,
        ),
        2u32..=3,
        0u32..=2,
        0u32..2,
    )
        .prop_map(|(rows, n_classes, copies, markers)| {
            let marker = 5 + copies;
            let (transactions, labels): (Vec<Vec<Item>>, Vec<ClassId>) = rows
                .into_iter()
                .map(|(set, l)| {
                    let label = l % n_classes;
                    let copied: Vec<u32> = (0..copies).filter(|c| set.contains(c)).collect();
                    let marked = (markers == 1 && label < 2).then_some(marker + label);
                    let items = set
                        .into_iter()
                        .chain(copied.into_iter().map(|c| c + 5))
                        .chain(marked);
                    (items.map(Item).collect(), ClassId(label))
                })
                .unzip();
            let n_items = marker + 2 * markers;
            TransactionSet::new(n_items as usize, n_classes as usize, transactions, labels)
        })
}

fn relevance_bits(r: &SelectionResult) -> Vec<u64> {
    r.relevance.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lazy-greedy loop selects exactly what Algorithm 1 selects, under
    /// both relevance measures (Fisher's perfect separators score +∞, so
    /// their gains can read ∞ − ∞ = NaN), δ ∈ 0..=3 and both caps. The
    /// candidates are shuffled, so that index order does not follow the
    /// miner's support order.
    #[test]
    fn lazy_greedy_equals_algorithm_1(
        ts in database(),
        min_sup in 1u32..=3,
        delta in 0u32..=3,
        fisher in 0u32..2,
        caps in (0usize..6, 0usize..16),
        order in 0u64..u64::MAX,
    ) {
        let mining = MiningConfig {
            miner: MinerKind::Eclat,
            ..MiningConfig::with_min_sup(f64::from(min_sup) / 10.0)
        };
        let mut candidates = mine_features(&ts, &mining).unwrap();
        candidates.shuffle(&mut StdRng::seed_from_u64(order));
        let cfg = MmrfsConfig {
            coverage: delta,
            relevance: if fisher == 1 {
                RelevanceMeasure::FisherScore
            } else {
                RelevanceMeasure::InfoGain
            },
            max_features: (caps.0 > 0).then_some(caps.0),
            max_candidates: (caps.1 > 0).then_some(caps.1),
        };
        let got = mmrfs(&ts, &candidates, &cfg);
        let want = algorithm_1(&ts, &candidates, &cfg);
        prop_assert_eq!(&got.selected, &want.selected, "{:?}", cfg);
        prop_assert_eq!(relevance_bits(&got), relevance_bits(&want));
        prop_assert_eq!(got.fully_covered, want.fully_covered);
    }
}

/// A pattern over `ts` with its supports counted from the transactions.
fn pattern(ts: &TransactionSet, items: &[u32]) -> MinedPattern {
    let items: Vec<Item> = items.iter().map(|&i| Item(i)).collect();
    let mut class_supports = vec![0u32; ts.n_classes()];
    for t in 0..ts.len() {
        if contains_sorted(ts.transaction(t), &items) {
            class_supports[ts.label(t).index()] += 1;
        }
    }
    MinedPattern {
        items,
        support: class_supports.iter().sum(),
        class_supports,
    }
}

/// With `max_candidates`, pool slots follow relevance, not candidate index.
/// Z (index 0, relevance 0) and T (index 2, the twin of the first pick P)
/// then tie at gain 0 and support 2 with T in the earlier slot; the tie
/// falls to the lower candidate index, Z.
#[test]
fn pruned_pool_ties_fall_to_candidate_index_not_slot() {
    let rows: [&[u32]; 6] = [&[0, 1, 3], &[0, 1], &[2], &[2, 3], &[], &[]];
    let ts = TransactionSet::new(
        4,
        2,
        rows.iter()
            .map(|r| r.iter().map(|&i| Item(i)).collect())
            .collect(),
        [0, 0, 0, 1, 1, 1].map(ClassId).to_vec(),
    );
    // Z, P, T (P's twin) and W, which the cap prunes.
    let candidates: Vec<MinedPattern> = [&[2u32][..], &[0], &[1], &[3]]
        .iter()
        .map(|items| pattern(&ts, items))
        .collect();
    let cfg = MmrfsConfig {
        coverage: 2,
        max_candidates: Some(3),
        ..MmrfsConfig::default()
    };
    let got = mmrfs(&ts, &candidates, &cfg);
    assert_eq!(got.relevance[0], 0.0);
    assert_eq!(&got.selected[..2], &[1, 0]);
    let want = algorithm_1(&ts, &candidates, &cfg);
    assert_eq!(got.selected, want.selected);
    assert_eq!(relevance_bits(&got), relevance_bits(&want));
    assert_eq!(got.fully_covered, want.fully_covered);
}
