//! The Apriori algorithm (Agrawal & Srikant, VLDB 1994) — the classic
//! level-wise baseline, kept as an independent miner that the tests and the
//! `mining_backends` bench check the vertical miners against.

use crate::anytime::{self, Mined, StopReason};
use crate::{MineOptions, MiningError, RawPattern};
use dfp_data::transactions::{contains_sorted, Item, TransactionSet};
use std::collections::HashMap;

/// Mines all frequent itemsets level-wise: candidates of size `k` are joins
/// of frequent `(k−1)`-sets sharing a `(k−2)`-prefix, pruned by the Apriori
/// property, then counted with one database scan per level.
pub fn mine(
    ts: &TransactionSet,
    min_sup: usize,
    opts: &MineOptions,
) -> Result<Vec<RawPattern>, MiningError> {
    anytime::strict(mine_anytime(ts, min_sup, opts)?, opts)
}

/// Anytime variant of [`mine`]: the pattern budget and deadline stop the
/// level-wise search and return the patterns found so far instead of failing.
pub fn mine_anytime(
    ts: &TransactionSet,
    min_sup: usize,
    opts: &MineOptions,
) -> Result<Mined, MiningError> {
    if min_sup == 0 {
        return Err(MiningError::ZeroMinSup);
    }
    let mut sp = dfp_obs::span("mine.apriori");
    let mut out: Vec<RawPattern> = Vec::new();
    let mut nodes = 0u64;
    let mined = match levels(ts, min_sup, opts, &mut out, &mut nodes) {
        Ok(()) => Mined::complete(out),
        Err(reason) => anytime::stopped_sequential(out, reason, opts),
    };
    dfp_obs::metrics::dfp::mine_nodes_explored().add(nodes);
    dfp_obs::metrics::dfp::mine_patterns_emitted().add(mined.patterns.len() as u64);
    sp.attr("min_sup", min_sup);
    sp.attr("candidates", nodes);
    sp.attr("patterns", mined.patterns.len());
    Ok(mined)
}

/// The level-wise loop; emits into `out` and stops on budget/deadline.
/// `nodes` tallies candidates considered (level-1 singletons plus every
/// joined candidate that survives Apriori pruning).
fn levels(
    ts: &TransactionSet,
    min_sup: usize,
    opts: &MineOptions,
    out: &mut Vec<RawPattern>,
    nodes: &mut u64,
) -> Result<(), StopReason> {
    // Level 1.
    let mut counts = vec![0usize; ts.n_items()];
    for tx in ts.transactions() {
        for item in tx {
            counts[item.index()] += 1;
        }
    }
    let mut level: Vec<Vec<Item>> = (0..ts.n_items())
        .filter(|&i| counts[i] >= min_sup)
        .map(|i| vec![Item(i as u32)])
        .collect();
    *nodes += ts.n_items() as u64;
    for set in &level {
        emit(set, counts[set[0].index()] as u32, opts, out)?;
    }

    let mut k = 1usize;
    while !level.is_empty() && opts.may_extend(k) {
        k += 1;
        // Join step: pairs sharing the first k-2 items.
        let mut candidates: Vec<Vec<Item>> = Vec::new();
        let prev: std::collections::HashSet<&[Item]> = level.iter().map(|s| s.as_slice()).collect();
        for i in 0..level.len() {
            for j in (i + 1)..level.len() {
                let (a, b) = (&level[i], &level[j]);
                if a[..k - 2] != b[..k - 2] {
                    continue;
                }
                let mut cand = a.clone();
                let last = b[k - 2];
                if last <= *cand.last().expect("non-empty level set") {
                    continue;
                }
                cand.push(last);
                // Prune: every (k-1)-subset must be frequent.
                let mut ok = true;
                for drop in 0..cand.len() - 2 {
                    // subsets dropping the last two are covered by a and b;
                    // check the rest
                    let mut sub = cand.clone();
                    sub.remove(drop);
                    if !prev.contains(sub.as_slice()) {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    candidates.push(cand);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        *nodes += candidates.len() as u64;
        // Count step.
        let mut cand_counts: HashMap<&[Item], usize> =
            candidates.iter().map(|c| (c.as_slice(), 0)).collect();
        for tx in ts.transactions() {
            if tx.len() < k {
                continue;
            }
            for c in &candidates {
                if contains_sorted(tx, c) {
                    *cand_counts.get_mut(c.as_slice()).expect("candidate") += 1;
                }
            }
        }
        let next: Vec<(Vec<Item>, usize)> = candidates
            .iter()
            .filter_map(|c| {
                let n = cand_counts[c.as_slice()];
                (n >= min_sup).then(|| (c.clone(), n))
            })
            .collect();
        for (set, n) in &next {
            emit(set, *n as u32, opts, out)?;
        }
        level = next.into_iter().map(|(s, _)| s).collect();
        level.sort();
    }
    Ok(())
}

fn emit(
    items: &[Item],
    support: u32,
    opts: &MineOptions,
    out: &mut Vec<RawPattern>,
) -> Result<(), StopReason> {
    if !opts.len_ok(items.len()) {
        return Ok(());
    }
    out.push(RawPattern {
        items: items.to_vec(),
        support,
    });
    anytime::check_stop(out.len(), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::sort_canonical;
    use dfp_data::schema::ClassId;

    fn db(rows: &[&[u32]]) -> TransactionSet {
        let n_items = rows
            .iter()
            .flat_map(|r| r.iter())
            .map(|&i| i as usize + 1)
            .max()
            .unwrap_or(0);
        TransactionSet::new(
            n_items,
            1,
            rows.iter()
                .map(|r| {
                    let mut v: Vec<Item> = r.iter().map(|&i| Item(i)).collect();
                    v.sort_unstable();
                    v
                })
                .collect(),
            vec![ClassId(0); rows.len()],
        )
    }

    #[test]
    fn agrees_with_eclat() {
        let ts = db(&[
            &[0, 1, 4],
            &[1, 3],
            &[1, 2],
            &[0, 1, 3],
            &[0, 2],
            &[0, 1, 2, 3],
            &[2, 3, 4],
        ]);
        for min_sup in 1..=7 {
            let mut a = mine(&ts, min_sup, &MineOptions::default()).unwrap();
            let mut e = crate::eclat::mine(&ts, min_sup, &MineOptions::default()).unwrap();
            sort_canonical(&mut a);
            sort_canonical(&mut e);
            assert_eq!(a, e, "apriori vs eclat at min_sup={min_sup}");
        }
    }

    #[test]
    fn respects_options() {
        let ts = db(&[&[0, 1, 2], &[0, 1, 2], &[0, 2]]);
        let got = mine(
            &ts,
            2,
            &MineOptions::default().with_min_len(2).with_max_len(2),
        )
        .unwrap();
        assert!(got.iter().all(|p| p.len() == 2));
        let err = mine(&ts, 1, &MineOptions::default().with_max_patterns(1)).unwrap_err();
        assert!(matches!(err, MiningError::PatternLimitExceeded { .. }));
    }

    #[test]
    fn empty_and_trivial() {
        assert!(mine(&db(&[]), 1, &MineOptions::default())
            .unwrap()
            .is_empty());
        let ts = db(&[&[0]]);
        let got = mine(&ts, 1, &MineOptions::default()).unwrap();
        assert_eq!(got.len(), 1);
    }
}
