//! Set-enumeration frequent itemset mining over nodesets and
//! DiffNodesets.
//!
//! A pattern `P` is represented by `B(P)`: the nodes labeled with `P`'s
//! *least frequent* item whose ancestor paths contain every other item of
//! `P`. Since a transaction passes through exactly one such node,
//! `support(P) = Σ count(n), n ∈ B(P)` — exact, no recounting.
//!
//! Enumeration is an Eclat-shaped DFS: each frequent item `e` roots a
//! pattern `{e}` with `B = N(e)` (its nodeset), candidate extensions are
//! the items *more frequent than* `e`, and a candidate list entry carries
//! the set for `current pattern ∪ {y}`. Two representations share the
//! DFS:
//!
//! * **plain nodesets** (`Mode::Plain`, FIN): the entry stores
//!   `B(P ∪ {y})`; extending `P` with `x` refines every remaining `y` by
//!   node-identity intersection, `B(P∪{x,y}) = B(P∪{x}) ∩ B(P∪{y})` —
//!   both operands are subsets of `N(e)` and the ancestor constraints
//!   conjoin;
//! * **DiffNodesets** (`Mode::Diff`, dFIN): the entry stores
//!   `DN(P ∪ {y}) = B(P) − B(P ∪ {y})` — what the extension *removes* —
//!   and `support(P∪{y}) = support(P) − Σ count(DN)`. The refinement is
//!   a set difference, `DN(P∪{x,y}) = DN(P∪{y}) − DN(P∪{x})`: a node of
//!   `B(P∪{x})` fails the `y` constraint exactly when it failed it under
//!   `P`. On dense data consecutive patterns share most covering nodes,
//!   so diffsets are far smaller than the nodesets they replace.
//!
//! The level-2 seeds come from one linear merge per item pair: `N(e)` and
//! `N(y)` both ascend in pre *and* post order (same-label nodes have
//! disjoint subtrees), so a two-pointer pass splits `N(e)` into the nodes
//! with and without a `y`-ancestor using the O(1) pre/post test.
//!
//! [`Mode::Auto`] picks Diff when the projected database's density
//! reaches [`DENSE_DIFF_THRESHOLD`], Plain otherwise. Both modes emit
//! identical patterns in identical order (property-tested), so the
//! switch is invisible to callers — including budget truncation.

use crate::tree::PpcTree;
use crate::{Limits, NodesetMined, Pattern, Stop};
use dfp_data::transactions::{Item, TransactionSet};
use std::time::Instant;

/// Projected-database density (mean fraction of the frequent-item
/// universe per transaction) at or above which [`Mode::Auto`] uses
/// DiffNodesets.
pub const DENSE_DIFF_THRESHOLD: f64 = 0.25;

/// Which pattern representation the DFS carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Pick from the database: Diff when dense, Plain when sparse.
    #[default]
    Auto,
    /// Plain nodesets (FIN) — intersection refinement.
    Plain,
    /// DiffNodesets (dFIN) — difference refinement.
    Diff,
}

/// Mines all frequent itemsets with absolute support `>= min_sup`,
/// best-so-far under the limits, choosing the representation by density.
///
/// The budget/determinism contract matches the workspace miners: the
/// pattern stream (and its truncation at `max_patterns`) is bit-identical
/// for every `DFP_THREADS`. An armed `mining.nodeset` failpoint degrades
/// to an empty incomplete result.
///
/// # Panics
/// Panics if `min_sup == 0` (callers gate on it — the `dfp-mining`
/// adapter returns its `ZeroMinSup` error instead).
pub fn mine_anytime(ts: &TransactionSet, min_sup: usize, limits: &Limits) -> NodesetMined {
    mine_anytime_in(ts, min_sup, limits, Mode::Auto)
}

/// [`mine_anytime`] with an explicit representation — the equivalence
/// tests force both modes over the same databases.
pub fn mine_anytime_in(
    ts: &TransactionSet,
    min_sup: usize,
    limits: &Limits,
    mode: Mode,
) -> NodesetMined {
    assert!(min_sup > 0, "absolute min_sup must be at least 1");
    let mut sp = dfp_obs::span("mine.nodeset");
    if let Some(dfp_fault::Action::Err) = dfp_fault::evaluate("mining.nodeset") {
        return NodesetMined::stopped(Vec::new(), Stop::Fault);
    }
    let tree = PpcTree::build(ts, min_sup);
    let diff = match mode {
        Mode::Plain => false,
        Mode::Diff => true,
        Mode::Auto => tree.density() >= DENSE_DIFF_THRESHOLD,
    };

    // One task per frequent item, least frequent first (the processing
    // order of the other workspace miners). Each task explores the
    // patterns whose least frequent item is its root, sequentially; the
    // merge truncates the task-ordered concatenation at the cumulative
    // budget, so the surviving prefix equals a sequential run's.
    let roots: Vec<u32> = (0..tree.n_frequent() as u32).rev().collect();
    let pairs = tree.pair_supports();
    let results: Vec<(Vec<Pattern>, Option<Stop>, u64)> = dfp_par::par_map(&roots, |&e| {
        let mut out = Vec::new();
        let mut nodes = 0u64;
        let stop = mine_root(
            &tree, &pairs, diff, e, min_sup, limits, &mut out, &mut nodes,
        )
        .err();
        (out, stop, nodes)
    });
    let nodes: u64 = results.iter().map(|(_, _, n)| n).sum();
    let mined = merge_task_outputs(
        results.into_iter().map(|(o, s, _)| (o, s)).collect(),
        limits,
    );
    dfp_obs::metrics::dfp::mine_nodes_explored().add(nodes);
    dfp_obs::metrics::dfp::mine_patterns_emitted().add(mined.patterns.len() as u64);
    sp.attr("min_sup", min_sup);
    sp.attr("mode", if diff { "diff" } else { "plain" });
    sp.attr("density", format!("{:.4}", tree.density()));
    sp.attr("nodes", nodes);
    sp.attr("patterns", mined.patterns.len());
    mined
}

/// A candidate extension during the DFS: the pattern `current ∪ {local}`,
/// its exact support, and its node list (a `B`-set in plain mode, a
/// `DN`-diffset in diff mode), ascending by node id.
struct Cand {
    local: u32,
    support: u32,
    set: Vec<u32>,
}

/// Mines every pattern whose least frequent item is `e` — the body of one
/// parallel task. Emits `{e}` first, then DFS-extends with more frequent
/// items in descending local rank. `pairs` is the precomputed level-2
/// support matrix from [`PpcTree::pair_supports`].
#[allow(clippy::too_many_arguments)]
fn mine_root(
    tree: &PpcTree,
    pairs: &[u32],
    diff: bool,
    e: u32,
    min_sup: usize,
    limits: &Limits,
    out: &mut Vec<Pattern>,
    nodes: &mut u64,
) -> Result<(), Stop> {
    *nodes += 1;
    let root_support = tree.item_support(e);
    let mut prefix = vec![e];
    if limits.len_ok(1) {
        emit(tree, &prefix, root_support, out);
        check_stop(out.len(), limits)?;
    }
    if !limits.may_extend(1) || e == 0 {
        return Ok(());
    }
    // Level-2 seeds: split N(e) by "has a y-ancestor" for each more
    // frequent y, keeping the kept-nodes (plain) or removed-nodes (diff)
    // side. The precomputed pair matrix answers the frequency check
    // first, so infrequent extensions — pruned here and never reappearing
    // deeper (anti-monotonicity) — cost no merge at all.
    let ne = tree.nodeset(e);
    let m = tree.n_frequent();
    let mut cands: Vec<Cand> = Vec::new();
    for y in (0..e).rev() {
        *nodes += 1;
        if (pairs[e as usize * m + y as usize] as usize) < min_sup {
            continue;
        }
        // `set` holds the with-ancestor side (B) in plain mode and the
        // without-ancestor side (DN, Σcount = root_support − support) in
        // diff mode; the support of {e, y} is the covered sum either way.
        let (set, support) = split_by_ancestor(tree, ne, tree.nodeset(y), diff);
        debug_assert_eq!(support, pairs[e as usize * m + y as usize]);
        cands.push(Cand {
            local: y,
            support,
            set,
        });
    }
    dfs(tree, diff, &cands, &mut prefix, min_sup, limits, out, nodes)
}

/// DFS over an equivalence class: `cands[i]` extends the current prefix;
/// its own extensions are refined from `cands[i+1..]`.
#[allow(clippy::too_many_arguments)]
fn dfs(
    tree: &PpcTree,
    diff: bool,
    cands: &[Cand],
    prefix: &mut Vec<u32>,
    min_sup: usize,
    limits: &Limits,
    out: &mut Vec<Pattern>,
    nodes: &mut u64,
) -> Result<(), Stop> {
    for (i, c) in cands.iter().enumerate() {
        prefix.push(c.local);
        if limits.len_ok(prefix.len()) {
            emit(tree, prefix, c.support, out);
            check_stop(out.len(), limits)?;
        }
        if limits.may_extend(prefix.len()) && i + 1 < cands.len() {
            let mut children: Vec<Cand> = Vec::new();
            for y in &cands[i + 1..] {
                *nodes += 1;
                let (set, support) = refine(tree, diff, c, y);
                if (support as usize) >= min_sup {
                    children.push(Cand {
                        local: y.local,
                        support,
                        set,
                    });
                }
            }
            if !children.is_empty() {
                dfs(tree, diff, &children, prefix, min_sup, limits, out, nodes)?;
            }
        }
        prefix.pop();
    }
    Ok(())
}

/// Refines candidate `y` through chosen extension `x` (both relative to
/// the same parent pattern `P`):
///
/// * plain — `B(P∪{x,y}) = B(P∪{x}) ∩ B(P∪{y})`, support is its count sum;
/// * diff — `DN(P∪{x,y}) = DN(P∪{y}) − DN(P∪{x})`,
///   `support = support(P∪{x}) − Σ count(DN)`.
fn refine(tree: &PpcTree, diff: bool, x: &Cand, y: &Cand) -> (Vec<u32>, u32) {
    if diff {
        let set = difference(&y.set, &x.set);
        let removed: u32 = set.iter().map(|&n| tree.node_count(n)).sum();
        (set, x.support - removed)
    } else {
        let set = intersect(&x.set, &y.set);
        let support: u32 = set.iter().map(|&n| tree.node_count(n)).sum();
        (set, support)
    }
}

/// Splits `ne` (nodes labeled `e`) by the existence of an ancestor in
/// `ny` (nodes labeled `y`). Returns the kept side — nodes *with* such an
/// ancestor in plain mode, nodes *without* one in diff mode — plus the
/// covered support `Σ count(n), n has y-ancestor` (= `support({e, y})`).
///
/// Linear two-pointer merge: both lists ascend in pre and post order, and
/// an ancestor must satisfy `pre < n.pre && post > n.post`, so a `y` node
/// whose subtree closed before `n`'s can never cover a later `n` either.
fn split_by_ancestor(tree: &PpcTree, ne: &[u32], ny: &[u32], diff: bool) -> (Vec<u32>, u32) {
    let mut set = Vec::new();
    let mut covered = 0u32;
    let mut j = 0usize;
    for &n in ne {
        while j < ny.len() && tree.node_post(ny[j]) < tree.node_post(n) {
            j += 1;
        }
        let has_anc = j < ny.len() && tree.is_ancestor(ny[j], n);
        if has_anc {
            covered += tree.node_count(n);
        }
        if has_anc != diff {
            set.push(n);
        }
    }
    (set, covered)
}

/// Node-identity intersection of two ascending node lists.
fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Node-identity difference `a − b` of two ascending node lists.
fn difference(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len());
    let mut j = 0usize;
    for &n in a {
        while j < b.len() && b[j] < n {
            j += 1;
        }
        if j >= b.len() || b[j] != n {
            out.push(n);
        }
    }
    out
}

/// Emits the prefix (local ranks) as a pattern in global item order.
fn emit(tree: &PpcTree, prefix: &[u32], support: u32, out: &mut Vec<Pattern>) {
    let mut items: Vec<Item> = prefix.iter().map(|&l| Item(tree.global(l))).collect();
    items.sort_unstable();
    out.push(Pattern { items, support });
}

/// Per-emission stop conditions, mirroring `dfp-mining`'s: budget first
/// (`n_emitted` strictly past the cap), then the deadline.
fn check_stop(n_emitted: usize, limits: &Limits) -> Result<(), Stop> {
    if let Some(cap) = limits.max_patterns {
        if n_emitted as u64 > cap {
            return Err(Stop::PatternBudget);
        }
    }
    if let Some(deadline) = limits.deadline {
        if Instant::now() >= deadline {
            return Err(Stop::Deadline);
        }
    }
    Ok(())
}

/// Concatenates per-task streams in task order, truncating at the
/// cumulative budget — the same merge the other workspace miners use, so
/// budget stops are bit-identical across thread counts.
fn merge_task_outputs(results: Vec<(Vec<Pattern>, Option<Stop>)>, limits: &Limits) -> NodesetMined {
    let mut out = Vec::new();
    for (task_out, task_stop) in results {
        out.extend(task_out);
        if let Some(cap) = limits.max_patterns {
            if out.len() as u64 > cap {
                out.truncate(cap as usize);
                return NodesetMined::stopped(out, Stop::PatternBudget);
            }
        }
        if let Some(reason) = task_stop {
            return NodesetMined::stopped(out, reason);
        }
    }
    NodesetMined::complete(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfp_data::schema::ClassId;
    use proptest::prelude::*;

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

    fn canonical(mut pats: Vec<Pattern>) -> Vec<(Vec<u32>, u32)> {
        pats.sort_by(|a, b| {
            a.items
                .len()
                .cmp(&b.items.len())
                .then_with(|| a.items.cmp(&b.items))
        });
        pats.into_iter()
            .map(|p| (p.items.iter().map(|i| i.0).collect(), p.support))
            .collect()
    }

    #[test]
    fn known_counts_on_classic_db() {
        for mode in [Mode::Plain, Mode::Diff, Mode::Auto] {
            let got = mine_anytime_in(&classic(), 2, &Limits::default(), mode);
            assert!(got.complete);
            assert_eq!(
                canonical(got.patterns),
                vec![
                    (vec![0], 3),
                    (vec![1], 4),
                    (vec![2], 2),
                    (vec![3], 2),
                    (vec![0, 1], 2),
                    (vec![1, 3], 2),
                ],
                "{mode:?}"
            );
        }
    }

    #[test]
    fn supports_exact_at_min_sup_one() {
        let ts = classic();
        for mode in [Mode::Plain, Mode::Diff] {
            let got = mine_anytime_in(&ts, 1, &Limits::default(), mode);
            assert!(got.complete);
            for p in &got.patterns {
                assert_eq!(
                    p.support as usize,
                    ts.support(&p.items),
                    "{mode:?} {:?}",
                    p.items
                );
            }
        }
    }

    #[test]
    fn length_limits_respected() {
        let limits = Limits {
            min_len: 2,
            max_len: Some(2),
            ..Limits::default()
        };
        let got = mine_anytime(&classic(), 1, &limits);
        assert!(got.complete);
        assert!(got.patterns.iter().all(|p| p.items.len() == 2));
    }

    #[test]
    fn budget_truncates_and_flags() {
        let limits = Limits {
            max_patterns: Some(3),
            ..Limits::default()
        };
        let got = mine_anytime(&classic(), 1, &limits);
        assert!(!got.complete);
        assert_eq!(got.stopped_by, Some(Stop::PatternBudget));
        assert_eq!(got.patterns.len(), 3);
        // The kept prefix is the unbudgeted stream's prefix.
        let full = mine_anytime(&classic(), 1, &Limits::default());
        assert_eq!(got.patterns[..], full.patterns[..3]);
    }

    #[test]
    fn empty_database() {
        let got = mine_anytime(&db(&[]), 1, &Limits::default());
        assert!(got.complete);
        assert!(got.patterns.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Plain and Diff emit identical streams (order included) on
        /// random databases — the mode switch is invisible.
        #[test]
        fn plain_and_diff_agree(
            txs in prop::collection::vec(
                prop::collection::btree_set(0u32..9, 0..=6), 1..=14),
            min_sup in 1usize..4,
        ) {
            let rows: Vec<Vec<u32>> = txs.into_iter()
                .map(|s| s.into_iter().collect()).collect();
            let refs: Vec<&[u32]> = rows.iter().map(|r| &r[..]).collect();
            let ts = db(&refs);
            let plain = mine_anytime_in(&ts, min_sup, &Limits::default(), Mode::Plain);
            let diff = mine_anytime_in(&ts, min_sup, &Limits::default(), Mode::Diff);
            prop_assert_eq!(plain, diff);
        }
    }
}
