//! MMRFS — Maximal Marginal Relevance Feature Selection (paper Algorithm 1).
//!
//! A pattern is selected when it is relevant to the class label *and* has
//! low redundancy to the patterns already selected:
//!
//! ```text
//! 1:  let α be the most relevant pattern; Fs = {α}
//! 2:  loop:
//! 3:    β = argmax_{F − Fs} g(β),  g(β) = S(β) − max_{γ ∈ Fs} R(β, γ)
//! 4:    if β correctly covers at least one instance: Fs ∪= {β}
//! 5:    F −= {β}
//! 6:    until every instance is covered δ times or F = ∅
//! ```
//!
//! "Correctly covers" follows the database-coverage tradition of CMAR: the
//! instance contains the pattern and the pattern's majority class equals the
//! instance's label.
//!
//! The argmax is lazy greedy (Minoux): as `Fs` grows, `max_{γ ∈ Fs} R(β, γ)`
//! can only rise, so a gain computed against fewer selections bounds the
//! current one from above. A max-heap holds each candidate's gain as of its
//! last evaluation; a popped candidate is refreshed only against the
//! selections made since, and wins once it is at the top with a fresh gain.
//!
//! Discards come first. Per class `c`, a dense mask holds the class-`c`
//! rows still covered fewer than δ times (none when δ = 0). A popped
//! candidate whose tidset misses its majority class's mask is dropped from
//! F at once, without a refresh; only a candidate that still covers an open
//! row is refreshed or selected. This is exact. Coverage only grows, so a
//! dropped candidate could never be selected later. Between two selections
//! every gain is fixed, so Algorithm 1 discards the candidates ranked above
//! the best-keyed one that still covers an open row and then selects it;
//! once those are dropped, that candidate is the fresh top. About 95% of
//! rounds are such discards. The loop is sequential; only the tidset
//! precompute runs on `dfp-par`.

use dfp_data::bitset::Bitset;
use dfp_data::rowset::RowSet;
use dfp_data::transactions::TransactionSet;
use dfp_measures::redundancy::redundancy_from_overlap;
use dfp_measures::RelevanceMeasure;
use dfp_mining::count::pattern_rowset;
use dfp_mining::MinedPattern;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// MMRFS configuration.
#[derive(Debug, Clone)]
pub struct MmrfsConfig {
    /// Database coverage threshold δ: selection stops once every training
    /// instance is correctly covered δ times (or candidates run out).
    pub coverage: u32,
    /// Relevance measure `S` (information gain or Fisher score).
    pub relevance: RelevanceMeasure,
    /// Hard cap on the number of selected features (`None` = coverage-only).
    pub max_features: Option<usize>,
    /// Keep only the `max_candidates` most relevant patterns before the
    /// selection loop (`None` = all). A tractability valve for very low
    /// `min_sup` runs; the paper's experiments do not need it.
    pub max_candidates: Option<usize>,
}

impl Default for MmrfsConfig {
    fn default() -> Self {
        MmrfsConfig {
            coverage: 3,
            relevance: RelevanceMeasure::InfoGain,
            max_features: None,
            max_candidates: None,
        }
    }
}

/// Outcome of a selection run.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// Indices into the input pattern slice, in selection order.
    pub selected: Vec<usize>,
    /// Relevance `S(α)` of every input pattern (by input index).
    pub relevance: Vec<f64>,
    /// How many instances ended fully covered (δ times).
    pub fully_covered: usize,
}

impl SelectionResult {
    /// Materialises the selected patterns.
    pub fn patterns(&self, candidates: &[MinedPattern]) -> Vec<MinedPattern> {
        self.selected
            .iter()
            .map(|&i| candidates[i].clone())
            .collect()
    }
}

/// A pool slot's entry in the lazy-greedy heap: its gain as of its last
/// evaluation, against the first `seen` selections.
struct Stale {
    gain: f64,
    support: u32,
    cand: usize,
    slot: usize,
    /// `max_{γ ∈ Fs[..seen]} R(·, γ)`.
    max_red: f64,
    seen: usize,
}

impl Ord for Stale {
    /// (gain, support, Reverse(candidate index)), with gains compared by
    /// `>` and `==` so that ±0.0 tie; the heap never holds a NaN gain.
    fn cmp(&self, other: &Self) -> Ordering {
        let by_gain = if self.gain > other.gain {
            Ordering::Greater
        } else if self.gain == other.gain {
            Ordering::Equal
        } else {
            Ordering::Less
        };
        by_gain.then_with(|| {
            (self.support, Reverse(self.cand)).cmp(&(other.support, Reverse(other.cand)))
        })
    }
}

impl PartialOrd for Stale {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Stale {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Stale {}

/// Runs MMRFS over candidate patterns mined from `ts`.
///
/// The result's `selected` indices refer to `candidates`. Candidates with
/// zero support never get selected (they cover nothing).
pub fn mmrfs(
    ts: &TransactionSet,
    candidates: &[MinedPattern],
    cfg: &MmrfsConfig,
) -> SelectionResult {
    let mut sp = dfp_obs::span("select.mmrfs");
    let n = ts.len();
    let class_counts = ts.class_counts();
    let relevance = cfg.relevance.score_all(candidates, &class_counts);

    // Candidate pool, optionally pruned to the most relevant K.
    let mut pool: Vec<usize> = (0..candidates.len())
        .filter(|&i| candidates[i].support > 0)
        .collect();
    if let Some(k) = cfg.max_candidates {
        if pool.len() > k {
            pool.sort_by(|&a, &b| {
                relevance[b]
                    .partial_cmp(&relevance[a])
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| a.cmp(&b))
            });
            pool.truncate(k);
        }
    }

    // Tidsets (dense or compressed row sets, following the active
    // `DFP_BITSET` mode).
    let vertical = ts.vertical_rowsets();
    let tids: Vec<RowSet> = dfp_par::par_chunks_map(&pool, 64, |&i| {
        pattern_rowset(&vertical, n, &candidates[i].items)
    });

    // `open[c]`: the class-c rows correctly covered fewer than δ times. A
    // candidate correctly covers an open row iff its tidset meets the mask
    // of its majority class.
    let mut open = vec![Bitset::new(n); ts.n_classes()];
    if cfg.coverage > 0 {
        for t in 0..n {
            open[ts.label(t).index()].set(t);
        }
    }
    let mut uncovered: usize = open.iter().map(Bitset::count_ones).sum();
    let mut coverage = vec![0u32; n];
    let mut picked: Vec<usize> = Vec::new(); // pool slots of Fs, in order

    // `slot`'s heap entry for redundancy `max_red` against the first `seen`
    // selections. A NaN or −∞ gain never wins and never rises, so it is
    // left out of the heap.
    let entry = |slot: usize, max_red: f64, seen: usize| {
        let cand = pool[slot];
        let gain = relevance[cand] - max_red;
        (gain > f64::NEG_INFINITY).then(|| Stale {
            gain,
            support: candidates[cand].support,
            cand,
            slot,
            max_red,
            seen,
        })
    };
    let mut heap: BinaryHeap<Stale> = (0..pool.len())
        .filter_map(|slot| entry(slot, 0.0, 0))
        .collect();

    // Selection-loop tallies, flushed to the global counters once at the end
    // (plain u64 bumps keep the loop free of atomic traffic). A round is one
    // candidate leaving F, selected or discarded.
    let mut rounds = 0u64;
    let mut cand_scanned = 0u64;
    let mut red_updates = 0u64;

    let cap = cfg.max_features.unwrap_or(usize::MAX);
    while uncovered > 0 && picked.len() < cap {
        let Some(mut top) = heap.pop() else {
            break; // F = ∅
        };
        cand_scanned += 1;
        let j = top.slot;
        let mask = &mut open[candidates[top.cand].majority_class().index()];
        if !tids[j].intersects(mask) {
            rounds += 1; // discarded from F without selection (Algorithm 1, line 7)
            continue;
        }
        if top.seen < picked.len() {
            // Stale: refresh against the selections made since, and requeue.
            for &sel in &picked[top.seen..] {
                let jac = tids[sel].jaccard(&tids[j]);
                let r = redundancy_from_overlap(jac, relevance[top.cand], relevance[pool[sel]]);
                if r > top.max_red {
                    top.max_red = r;
                }
            }
            red_updates += (picked.len() - top.seen) as u64;
            if let Some(refreshed) = entry(j, top.max_red, picked.len()) {
                heap.push(refreshed);
            }
            continue;
        }
        // Fresh at the top: every other entry's stale gain bounds its fresh
        // one, so β is the argmax under (gain, support, Reverse(candidate
        // index)) among the candidates that still cover an open row.
        rounds += 1;
        for t in tids[j].iter_ones() {
            if mask.get(t) {
                coverage[t] += 1;
                if coverage[t] == cfg.coverage {
                    mask.unset(t);
                    uncovered -= 1;
                }
            }
        }
        picked.push(j);
    }
    let selected: Vec<usize> = picked.iter().map(|&j| pool[j]).collect();

    dfp_obs::metrics::dfp::select_argmax_rounds().add(rounds);
    dfp_obs::metrics::dfp::select_candidates_scanned().add(cand_scanned);
    dfp_obs::metrics::dfp::select_redundancy_updates().add(red_updates);
    sp.attr("candidates", pool.len());
    sp.attr("selected", selected.len());
    sp.attr("rounds", rounds);

    SelectionResult {
        selected,
        relevance,
        fully_covered: n - uncovered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfp_data::schema::ClassId;
    use dfp_data::transactions::Item;
    use dfp_mining::{mine_features, MiningConfig};

    fn db(rows: &[(&[u32], u32)]) -> TransactionSet {
        let n_items = rows
            .iter()
            .flat_map(|(r, _)| r.iter())
            .map(|&i| i as usize + 1)
            .max()
            .unwrap_or(0);
        let n_classes = rows.iter().map(|&(_, l)| l as usize + 1).max().unwrap_or(1);
        TransactionSet::new(
            n_items,
            n_classes,
            rows.iter()
                .map(|(r, _)| {
                    let mut v: Vec<Item> = r.iter().map(|&i| Item(i)).collect();
                    v.sort_unstable();
                    v
                })
                .collect(),
            rows.iter().map(|&(_, l)| ClassId(l)).collect(),
        )
    }

    /// Item 0 marks class 0, item 1 marks class 1, item 2 is noise.
    fn marker_db() -> TransactionSet {
        db(&[
            (&[0, 2], 0),
            (&[0], 0),
            (&[0, 2], 0),
            (&[1], 1),
            (&[1, 2], 1),
            (&[1], 1),
        ])
    }

    fn mined(ts: &TransactionSet) -> Vec<MinedPattern> {
        mine_features(ts, &MiningConfig::with_min_sup(0.3)).unwrap()
    }

    #[test]
    fn first_pick_is_most_relevant() {
        let ts = marker_db();
        let cands = mined(&ts);
        let res = mmrfs(&ts, &cands, &MmrfsConfig::default());
        assert!(!res.selected.is_empty());
        let first = res.selected[0];
        let max_rel = res
            .relevance
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((res.relevance[first] - max_rel).abs() < 1e-12);
    }

    #[test]
    fn coverage_postcondition() {
        let ts = marker_db();
        let cands = mined(&ts);
        let cfg = MmrfsConfig {
            coverage: 1,
            ..MmrfsConfig::default()
        };
        let res = mmrfs(&ts, &cands, &cfg);
        // markers exist for every instance, so δ=1 must fully cover
        assert_eq!(res.fully_covered, ts.len());
    }

    #[test]
    fn higher_delta_selects_no_fewer_features() {
        let ts = marker_db();
        let cands = mined(&ts);
        let mut last = 0;
        for delta in [1u32, 2, 3] {
            let cfg = MmrfsConfig {
                coverage: delta,
                ..MmrfsConfig::default()
            };
            let got = mmrfs(&ts, &cands, &cfg).selected.len();
            assert!(got >= last, "δ={delta}: {got} < {last}");
            last = got;
        }
    }

    #[test]
    fn redundant_duplicate_pattern_deprioritised() {
        // Two identical-tidset patterns: {0} and {0,3} where 3 co-occurs
        // exactly with 0. MMRFS must not pick both before an informative
        // non-redundant pattern ({1}).
        let ts = db(&[
            (&[0, 3], 0),
            (&[0, 3], 0),
            (&[0, 3], 0),
            (&[1], 1),
            (&[1], 1),
            (&[1], 1),
        ]);
        let cands = mined(&ts);
        let cfg = MmrfsConfig {
            coverage: 2,
            ..MmrfsConfig::default()
        };
        let res = mmrfs(&ts, &cands, &cfg);
        let sel = res.patterns(&cands);
        // the first two selections must serve *different* classes — picking
        // two tidset-identical class-0 patterns back to back would mean the
        // redundancy term is inert
        assert!(sel.len() >= 2);
        assert_ne!(sel[0].majority_class(), sel[1].majority_class(), "{sel:?}");
    }

    #[test]
    fn max_features_cap() {
        let ts = marker_db();
        let cands = mined(&ts);
        let cfg = MmrfsConfig {
            max_features: Some(1),
            ..MmrfsConfig::default()
        };
        assert_eq!(mmrfs(&ts, &cands, &cfg).selected.len(), 1);
    }

    #[test]
    fn max_candidates_prunes_pool() {
        let ts = marker_db();
        let cands = mined(&ts);
        let cfg = MmrfsConfig {
            max_candidates: Some(2),
            ..MmrfsConfig::default()
        };
        let res = mmrfs(&ts, &cands, &cfg);
        assert!(res.selected.len() <= 2);
    }

    #[test]
    fn empty_candidates() {
        let ts = marker_db();
        let res = mmrfs(&ts, &[], &MmrfsConfig::default());
        assert!(res.selected.is_empty());
        assert_eq!(res.fully_covered, 0);
    }

    #[test]
    fn deterministic() {
        let ts = marker_db();
        let cands = mined(&ts);
        let a = mmrfs(&ts, &cands, &MmrfsConfig::default());
        let b = mmrfs(&ts, &cands, &MmrfsConfig::default());
        assert_eq!(a.selected, b.selected);
    }
}
