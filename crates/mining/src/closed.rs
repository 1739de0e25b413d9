//! Closed frequent itemset mining by prefix-preserving closure extension.
//!
//! The paper mines **closed** patterns ("we use the closed frequent patterns
//! as features instead of frequent ones […] since for a closed pattern α and
//! its non-closed sub-pattern β, β is completely redundant w.r.t. α", §3.3).
//!
//! Closedness is decided during the search by the cover rule of Maamar et
//! al.'s ClosedPattern constraint: an itemset P is closed iff no item
//! outside P has a cover ⊇ cover(P). Duplicates are avoided by LCM's
//! prefix-preserving extension (Uno et al.). The search starts from the
//! closure of ∅ — the items present in every transaction — and grows each
//! closed set P, with tidset T and core item c (the item whose addition
//! produced P), by every frequent item e > c outside P:
//!
//! * T′ = T ∩ tids(e); e is skipped when |T′| < `min_sup`;
//! * e is skipped when some item j < e outside P has tids(j) ⊇ T′ — the
//!   closure would then change P below e, and that closed set has another
//!   parent;
//! * otherwise Q = P ∪ {e} ∪ {j > e : tids(j) ⊇ T′} is closed: it is emitted
//!   with support |T′| and extended in turn with core e.
//!
//! Every closed frequent set except the closure of ∅ has exactly one such
//! parent, so each is emitted exactly once and no post-filter runs. Tidsets
//! are dense [`Bitset`]s; each search depth copies its parent's tidset into
//! its own scratch slot and intersects there, as in [`crate::eclat`].

use crate::anytime::{self, Mined, StopReason};
use crate::{MineOptions, MiningError, RawPattern};
use dfp_data::bitset::Bitset;
use dfp_data::transactions::{Item, TransactionSet};
use std::collections::HashMap;

/// Mines all **closed** itemsets with absolute support `>= min_sup`.
///
/// `opts.min_len` filters emitted patterns; a closed set of `opts.max_len`
/// items or more is not extended (its closure may still make it longer, and
/// closedness is then relative to the explored part of the search).
/// `opts.max_patterns` bounds the number of emitted closed sets and aborts
/// with [`MiningError::PatternLimitExceeded`].
pub fn mine_closed(
    ts: &TransactionSet,
    min_sup: usize,
    opts: &MineOptions,
) -> Result<Vec<RawPattern>, MiningError> {
    anytime::strict(mine_closed_anytime(ts, min_sup, opts)?, opts)
}

/// Anytime variant of [`mine_closed`]: the budget and the deadline stop the
/// search and return the closed sets emitted so far; an armed
/// `mining.closed` failpoint returns an empty, incomplete result. Every
/// returned pattern is closed in the full database and carries its exact
/// support.
pub fn mine_closed_anytime(
    ts: &TransactionSet,
    min_sup: usize,
    opts: &MineOptions,
) -> Result<Mined, MiningError> {
    if min_sup == 0 {
        return Err(MiningError::ZeroMinSup);
    }
    let mut sp = dfp_obs::span("mine.closed");
    if let Some(dfp_fault::Action::Err) = dfp_fault::evaluate("mining.closed") {
        return Ok(Mined::stopped(
            Vec::new(),
            StopReason::Fault("mining.closed"),
        ));
    }
    let frequent: Vec<(Item, Bitset)> = ts
        .vertical()
        .into_iter()
        .enumerate()
        .filter_map(|(i, tids)| (tids.count_ones() >= min_sup).then_some((Item(i as u32), tids)))
        .collect();
    let supports: Vec<usize> = frequent.iter().map(|(_, t)| t.count_ones()).collect();
    // One slot for the root and one per depth below it; each depth adds at
    // least one item.
    let mut scratch = vec![Bitset::new(ts.len()); frequent.len() + 1];
    let mut search = Search {
        frequent: &frequent,
        supports: &supports,
        min_sup,
        opts,
        in_p: vec![false; frequent.len()],
        p: Vec::new(),
        out: Vec::new(),
        nodes: 0,
        closure_checks: 0,
    };
    // The closure of ∅: the items of every transaction.
    for k in 0..frequent.len() {
        if search.supports[k] == ts.len() {
            search.add(k);
        }
    }
    let root = if search.p.is_empty() {
        Ok(())
    } else {
        search.emit(ts.len())
    };
    let mined = match root.and_then(|()| search.extend(None, 0, &mut scratch)) {
        Ok(()) => Mined::complete(search.out),
        Err(reason) => anytime::stopped_sequential(search.out, reason, opts),
    };
    dfp_obs::metrics::dfp::mine_nodes_explored().add(search.nodes);
    dfp_obs::metrics::dfp::mine_closure_checks().add(search.closure_checks);
    dfp_obs::metrics::dfp::mine_patterns_emitted().add(mined.patterns.len() as u64);
    sp.attr("min_sup", min_sup);
    sp.attr("nodes", search.nodes);
    sp.attr("closure_checks", search.closure_checks);
    sp.attr("patterns", mined.patterns.len());
    Ok(mined)
}

/// The state of one closed-set search. Items are named by their index in
/// `frequent`, which ascends with the item id.
struct Search<'a> {
    /// The frequent items with their tidsets.
    frequent: &'a [(Item, Bitset)],
    /// `|tids(j)|` for every frequent item `j`.
    supports: &'a [usize],
    min_sup: usize,
    opts: &'a MineOptions,
    /// Membership of each frequent item in the current closed set `p`.
    in_p: Vec<bool>,
    /// The current closed set, in insertion order.
    p: Vec<usize>,
    out: Vec<RawPattern>,
    /// Closed sets reached, emitted or not.
    nodes: u64,
    /// Cover tests `tids(j) ⊇ T′` run.
    closure_checks: u64,
}

impl Search<'_> {
    fn add(&mut self, k: usize) {
        self.p.push(k);
        self.in_p[k] = true;
    }

    /// Emits the current closed set with `support` when it is long enough,
    /// then checks the stop conditions.
    fn emit(&mut self, support: usize) -> Result<(), StopReason> {
        self.nodes += 1;
        if self.opts.len_ok(self.p.len()) {
            let mut items: Vec<Item> = self.p.iter().map(|&k| self.frequent[k].0).collect();
            items.sort_unstable();
            self.out.push(RawPattern {
                items,
                support: support as u32,
            });
        }
        anytime::check_stop(self.out.len(), self.opts)
    }

    /// Extends the current closed set (tidset `tids`, `None` for every row)
    /// by each item from `first` on. `scratch[0]` receives this depth's
    /// intersections; deeper calls use the rest.
    fn extend(
        &mut self,
        tids: Option<&Bitset>,
        first: usize,
        scratch: &mut [Bitset],
    ) -> Result<(), StopReason> {
        if !self.opts.may_extend(self.p.len()) {
            return Ok(());
        }
        let frequent = self.frequent;
        let (slot, rest) = scratch
            .split_first_mut()
            .expect("scratch covers search depth");
        for e in first..frequent.len() {
            if self.in_p[e] {
                continue;
            }
            let support = match tids {
                None => self.supports[e],
                Some(t) => {
                    slot.copy_from(t);
                    slot.intersect_with_count(&frequent[e].1)
                }
            };
            if support < self.min_sup {
                continue;
            }
            let t_prime: &Bitset = match tids {
                None => &frequent[e].1,
                Some(_) => slot,
            };
            // tids(j) ⊇ T′ needs |tids(j)| ≥ |T′|: the cached supports
            // decide most items without touching a tidset.
            let supports = self.supports;
            let mut checks = 0u64;
            let mut covers = |in_p: &[bool], j: usize| {
                if in_p[j] || supports[j] < support {
                    return false;
                }
                checks += 1;
                t_prime.is_subset_of(&frequent[j].1)
            };
            if (0..e).any(|j| covers(&self.in_p, j)) {
                self.closure_checks += checks;
                continue;
            }
            let base = self.p.len();
            self.add(e);
            for j in e + 1..frequent.len() {
                if covers(&self.in_p, j) {
                    self.add(j);
                }
            }
            self.closure_checks += checks;
            self.emit(support)?;
            self.extend(Some(t_prime), e + 1, rest)?;
            for &k in &self.p[base..] {
                self.in_p[k] = false;
            }
            self.p.truncate(base);
        }
        Ok(())
    }
}

/// Expands a closed-set listing back into the **full** frequent collection:
/// every non-empty subset of every closed set, with each subset's support
/// equal to the *maximum* support among the closed sets containing it (the
/// defining property of the closed representation).
///
/// Exponential in the longest closed set — a differential-oracle helper
/// meant for test-scale databases, not production feature generation.
/// Returns canonical order (length, then lexicographic).
pub fn expand_frequent(closed: &[RawPattern]) -> Vec<RawPattern> {
    let mut best: HashMap<Vec<Item>, u32> = HashMap::new();
    let mut subset = Vec::new();
    for p in closed {
        expand_subsets(&p.items, p.support, 0, &mut subset, &mut best);
    }
    let mut out: Vec<RawPattern> = best
        .into_iter()
        .map(|(items, support)| RawPattern { items, support })
        .collect();
    crate::pattern::sort_canonical(&mut out);
    out
}

fn expand_subsets(
    items: &[Item],
    support: u32,
    start: usize,
    subset: &mut Vec<Item>,
    best: &mut HashMap<Vec<Item>, u32>,
) {
    for i in start..items.len() {
        subset.push(items[i]);
        let entry = best.entry(subset.clone()).or_insert(0);
        *entry = (*entry).max(support);
        expand_subsets(items, support, i + 1, subset, best);
        subset.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::sort_canonical;
    use crate::reference::mine_closed_brute_force;
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

    fn assert_matches_brute(ts: &TransactionSet, min_sup: usize) {
        let mut got = mine_closed(ts, min_sup, &MineOptions::default()).unwrap();
        sort_canonical(&mut got);
        let want = mine_closed_brute_force(ts, min_sup, None);
        assert_eq!(got, want, "min_sup={min_sup}");
    }

    #[test]
    fn classic_example() {
        let ts = db(&[&[0, 1, 4], &[1, 3], &[1, 2], &[0, 1, 3], &[0, 2]]);
        for min_sup in 1..=5 {
            assert_matches_brute(&ts, min_sup);
        }
    }

    #[test]
    fn identical_transactions_single_closed_set() {
        let ts = db(&[&[0, 1, 2], &[0, 1, 2], &[0, 1, 2]]);
        let got = mine_closed(&ts, 1, &MineOptions::default()).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].items, vec![Item(0), Item(1), Item(2)]);
        assert_eq!(got[0].support, 3);
    }

    #[test]
    fn nested_supports() {
        // {0} ⊃-support chain: {0} sup 4, {0,1} sup 3, {0,1,2} sup 2 — all closed.
        let ts = db(&[&[0], &[0, 1], &[0, 1, 2], &[0, 1, 2]]);
        assert_matches_brute(&ts, 1);
        let got = mine_closed(&ts, 1, &MineOptions::default()).unwrap();
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn overlapping_groups() {
        let ts = db(&[
            &[0, 1, 2, 3],
            &[0, 1, 2],
            &[0, 2, 3],
            &[1, 2, 3],
            &[0, 1],
            &[2, 3],
        ]);
        for min_sup in 1..=6 {
            assert_matches_brute(&ts, min_sup);
        }
    }

    #[test]
    fn closure_of_the_empty_set_is_emitted_once() {
        // Item 0 is in every row: {0} is the root closed set, and every
        // other closed set contains it.
        let ts = db(&[&[0, 1], &[0, 2], &[0, 1, 2]]);
        let mut got = mine_closed(&ts, 1, &MineOptions::default()).unwrap();
        sort_canonical(&mut got);
        let fmt: Vec<(Vec<u32>, u32)> = got
            .iter()
            .map(|p| (p.items.iter().map(|i| i.0).collect(), p.support))
            .collect();
        assert_eq!(
            fmt,
            vec![
                (vec![0], 3),
                (vec![0, 1], 2),
                (vec![0, 2], 2),
                (vec![0, 1, 2], 1)
            ]
        );
    }

    #[test]
    fn closed_is_subset_of_frequent_with_matching_supports() {
        let ts = db(&[
            &[0, 1, 4],
            &[1, 3],
            &[1, 2],
            &[0, 1, 3],
            &[0, 2],
            &[0, 3, 4],
        ]);
        let closed = mine_closed(&ts, 2, &MineOptions::default()).unwrap();
        for p in &closed {
            assert_eq!(p.support as usize, ts.support(&p.items));
        }
        // every frequent set must have a closed superset with equal support
        let all = crate::eclat::mine(&ts, 2, &MineOptions::default()).unwrap();
        for f in &all {
            assert!(
                closed.iter().any(|c| c.support == f.support
                    && dfp_data::transactions::contains_sorted(&c.items, &f.items)),
                "no closed superset for {:?}",
                f.items
            );
        }
    }

    #[test]
    fn budget_aborts() {
        let ts = db(&[&[0, 1, 2], &[0, 1], &[1, 2], &[0, 2]]);
        let err = mine_closed(&ts, 1, &MineOptions::default().with_max_patterns(1)).unwrap_err();
        assert!(matches!(err, MiningError::PatternLimitExceeded { .. }));
    }

    #[test]
    fn min_len_filter_applies_after_closure() {
        let ts = db(&[&[0, 1, 4], &[1, 3], &[1, 2], &[0, 1, 3], &[0, 2]]);
        let mut got = mine_closed(&ts, 1, &MineOptions::default().with_min_len(2)).unwrap();
        sort_canonical(&mut got);
        let mut want = mine_closed_brute_force(&ts, 1, None);
        want.retain(|p| p.len() >= 2);
        assert_eq!(got, want);
    }

    #[test]
    fn max_len_stops_extension_not_closure() {
        // {1} is closed with support 4; its extensions are cut at length 1,
        // but {0,2}'s closure is emitted whole.
        let ts = db(&[&[1], &[1, 3], &[1, 3], &[0, 1, 2], &[0, 2]]);
        let mut got = mine_closed(&ts, 1, &MineOptions::default().with_max_len(1)).unwrap();
        sort_canonical(&mut got);
        let fmt: Vec<(Vec<u32>, u32)> = got
            .iter()
            .map(|p| (p.items.iter().map(|i| i.0).collect(), p.support))
            .collect();
        assert_eq!(fmt, vec![(vec![1], 4), (vec![0, 2], 2)]);
    }
}
