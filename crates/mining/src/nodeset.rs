//! Adapter over the [`dfp_nodeset`] PPC-tree engine, giving it the same
//! `mine` / `mine_anytime` surface, error taxonomy, and anytime contract
//! as the other miners in this crate.
//!
//! The engine crate sits below `dfp-mining` in the dependency order and
//! carries its own limit/stop/result types; this module converts in both
//! directions. Spans (`mine.nodeset`), the `mining.nodeset` failpoint,
//! and the nodes-explored / patterns-emitted counters are produced by
//! the engine itself.

use crate::anytime::{Mined, StopReason};
use crate::{MineOptions, MiningError, RawPattern};
use dfp_data::transactions::TransactionSet;
use dfp_nodeset::{Limits, NodesetMined, Stop};

/// Mines all frequent itemsets with absolute support `>= min_sup` by
/// nodeset / DiffNodeset intersection (mode picked from data density).
///
/// Strict API: budget, deadline, and injected-fault stops are errors,
/// like every other miner's `mine`.
pub fn mine(
    ts: &TransactionSet,
    min_sup: usize,
    opts: &MineOptions,
) -> Result<Vec<RawPattern>, MiningError> {
    crate::anytime::strict(mine_anytime(ts, min_sup, opts)?, opts, "mining.nodeset")
}

/// Anytime variant of [`mine`]: the pattern budget, the deadline, and an
/// armed `mining.nodeset` failpoint stop the search and return the
/// patterns found so far instead of failing. Budget stops are
/// bit-identical across thread counts (the engine merges its parallel
/// task streams in task order and truncates at the cumulative cap).
pub fn mine_anytime(
    ts: &TransactionSet,
    min_sup: usize,
    opts: &MineOptions,
) -> Result<Mined, MiningError> {
    if min_sup == 0 {
        return Err(MiningError::ZeroMinSup);
    }
    let limits = Limits {
        min_len: opts.min_len,
        max_len: opts.max_len,
        max_patterns: opts.max_patterns,
        deadline: opts.deadline,
    };
    Ok(convert(dfp_nodeset::mine_anytime(ts, min_sup, &limits)))
}

fn convert(mined: NodesetMined) -> Mined {
    let patterns: Vec<RawPattern> = mined
        .patterns
        .into_iter()
        .map(|p| RawPattern {
            items: p.items,
            support: p.support,
        })
        .collect();
    Mined {
        patterns,
        complete: mined.complete,
        stopped_by: mined.stopped_by.map(|s| match s {
            Stop::PatternBudget => StopReason::PatternBudget,
            Stop::Deadline => StopReason::Deadline,
            Stop::Fault => StopReason::Fault,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::sort_canonical;
    use dfp_data::schema::ClassId;
    use dfp_data::transactions::Item;

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

    fn classic() -> TransactionSet {
        db(&[&[0, 1, 4], &[1, 3], &[1, 2], &[0, 1, 3], &[0, 2]])
    }

    #[test]
    fn agrees_with_eclat() {
        for min_sup in 1..=5 {
            let mut a = mine(&classic(), min_sup, &MineOptions::default()).unwrap();
            let mut b = crate::eclat::mine(&classic(), min_sup, &MineOptions::default()).unwrap();
            sort_canonical(&mut a);
            sort_canonical(&mut b);
            assert_eq!(a, b, "min_sup={min_sup}");
        }
    }

    #[test]
    fn zero_min_sup_rejected() {
        assert_eq!(
            mine(&classic(), 0, &MineOptions::default()).unwrap_err(),
            MiningError::ZeroMinSup
        );
    }

    #[test]
    fn strict_budget_aborts() {
        let err = mine(&classic(), 1, &MineOptions::default().with_max_patterns(3)).unwrap_err();
        assert_eq!(err, MiningError::PatternLimitExceeded { limit: 3 });
    }

    #[test]
    fn anytime_budget_degrades() {
        let opts = MineOptions::default().with_max_patterns(3);
        let mined = mine_anytime(&classic(), 1, &opts).unwrap();
        assert!(!mined.complete);
        assert_eq!(mined.stopped_by, Some(StopReason::PatternBudget));
        assert_eq!(mined.patterns.len(), 3);
    }
}
