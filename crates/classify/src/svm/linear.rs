//! Linear C-SVC via dual coordinate descent (Hsieh et al., ICML 2008 — the
//! LIBLINEAR algorithm), L1 (hinge) loss, bias handled as an augmented
//! constant feature. One-vs-rest for multiclass; a two-class problem
//! solves one dual, since class 1's is class 0's with `y → −y`.
//!
//! Dual: `min_α ½ αᵀ Q̄ α − eᵀα` s.t. `0 ≤ α_i ≤ C`,
//! `Q̄_ij = y_i y_j x_iᵀ x_j`. Each coordinate step is
//! `α_i ← clip(α_i − G_i / Q_ii, [0, C])` with
//! `G_i = y_i wᵀx_i − 1` and the primal vector `w = Σ α_i y_i x_i`
//! maintained incrementally — O(nnz) per step.
//!
//! Shrinking (Hsieh et al. §3.2): a pass visits only the active set, which
//! drops variables that look bound at the optimum, so once most α sit at 0
//! a pass costs a fraction of a full one. A solve converges only on a full
//! pass over all n variables with max |PG| < `tol`, and every
//! `FULL_PASS_EVERY`-th pass is full. Tests check solves against the
//! non-shrinking solver with a duality-gap certificate: on a converged
//! solve, primal minus dual is at most `2·n·C·tol`.

use crate::{sparse_dot, Classifier};
use dfp_data::features::SparseBinaryMatrix;
use dfp_data::schema::ClassId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Linear SVM hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearSvmParams {
    /// Regularisation constant `C`.
    pub c: f64,
    /// Stop when the largest projected-gradient violation in a full pass,
    /// one over all n variables, falls below this tolerance. A pass over
    /// the shrunk active set that meets it is followed by a full pass.
    pub tol: f64,
    /// Maximum number of passes, full or over the shrunk active set; a
    /// solve that reaches it counts in `dfp_train_unconverged_total`.
    pub max_epochs: usize,
    /// Shuffle seed (training is deterministic given the seed).
    pub seed: u64,
}

impl Default for LinearSvmParams {
    fn default() -> Self {
        LinearSvmParams {
            c: 1.0,
            tol: 1e-4,
            max_epochs: 1000,
            seed: 0x5eed,
        }
    }
}

impl LinearSvmParams {
    /// Parameters with the given `C`, defaults otherwise.
    pub fn with_c(c: f64) -> Self {
        LinearSvmParams {
            c,
            ..LinearSvmParams::default()
        }
    }
}

/// A trained linear SVM (one weight vector per class, one-vs-rest).
#[derive(Debug, Clone)]
pub struct LinearSvm {
    /// `weights[c]` has `n_features + 1` entries; the last is the bias.
    weights: Vec<Vec<f64>>,
    n_features: usize,
}

impl LinearSvm {
    /// Trains on a labelled sparse binary matrix.
    ///
    /// # Panics
    /// Panics on an empty matrix.
    pub fn fit(data: &SparseBinaryMatrix, params: &LinearSvmParams) -> Self {
        assert!(!data.is_empty(), "cannot train on an empty matrix");
        let solve = |c: usize| {
            let y: Vec<f64> = data
                .labels
                .iter()
                .map(|l| if l.index() == c { 1.0 } else { -1.0 })
                .collect();
            train_binary(&data.rows, &y, data.n_features, params).0
        };
        let weights = if data.n_classes == 2 {
            // Labels −y visit the rows in the same order and see the same
            // gradients, so class 1's dual has class 0's α and every update
            // to w negated. A weight no update touched is +0.0 in both
            // duals, hence `0.0 - x`, which keeps it +0.0, and not `-x`.
            let w0 = solve(0);
            let w1 = w0.iter().map(|&x| 0.0 - x).collect();
            vec![w0, w1]
        } else {
            (0..data.n_classes).map(solve).collect()
        };
        LinearSvm {
            weights,
            n_features: data.n_features,
        }
    }

    /// Decision value `wᵀx + b` for class `c`.
    pub fn decision(&self, row: &[u32], c: usize) -> f64 {
        let w = &self.weights[c];
        let mut v = w[self.n_features]; // bias
        for &f in row {
            v += w[f as usize];
        }
        v
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.weights.len()
    }

    /// The learned weight of `feature` in class `c`'s one-vs-rest problem.
    pub fn weight(&self, c: usize, feature: usize) -> f64 {
        self.weights[c][feature]
    }

    /// The bias term of class `c`.
    pub fn bias(&self, c: usize) -> f64 {
        self.weights[c][self.n_features]
    }

    /// Number of (non-bias) features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The full per-class augmented weight vectors (bias last) — the
    /// complete trained state, for model serialization.
    pub fn weight_vectors(&self) -> &[Vec<f64>] {
        &self.weights
    }

    /// Reconstructs a model from serialized state: one augmented weight
    /// vector (`n_features + 1` entries, bias last) per class.
    ///
    /// # Panics
    /// Panics if `weights` is empty or any vector has the wrong length.
    pub fn from_parts(weights: Vec<Vec<f64>>, n_features: usize) -> Self {
        assert!(!weights.is_empty(), "need at least one class weight vector");
        for (c, w) in weights.iter().enumerate() {
            assert_eq!(
                w.len(),
                n_features + 1,
                "class {c} weight vector has wrong length"
            );
        }
        LinearSvm {
            weights,
            n_features,
        }
    }
}

impl Classifier for LinearSvm {
    fn predict(&self, row: &[u32]) -> ClassId {
        let mut best = 0usize;
        let mut best_v = f64::NEG_INFINITY;
        for c in 0..self.weights.len() {
            let v = self.decision(row, c);
            if v > best_v {
                best_v = v;
                best = c;
            }
        }
        ClassId(best as u32)
    }
}

/// Every this many passes, the solver visits all n variables whatever the
/// active set. Plain LIBLINEAR shrinking re-checks a shrunk variable only
/// once the active set meets `tol`, which a solve stopped at `max_epochs`
/// never reaches. On austral's model-selection folds, plain shrinking left
/// the C = 10 solves (all stopped at the cap) a 19× larger median relative
/// duality gap than full passes, and converged fewer C = 1 solves; at 20,
/// one more solve stopped at the cap than with full passes alone.
const FULL_PASS_EVERY: usize = 10;

/// Dual coordinate descent for one binary problem; returns the augmented
/// weight vector (bias last) and the dual variables α. A solve that stops
/// at `max_epochs` without converging counts in
/// `dfp_train_unconverged_total`.
fn train_binary(
    rows: &[Vec<u32>],
    y: &[f64],
    n_features: usize,
    params: &LinearSvmParams,
) -> (Vec<f64>, Vec<f64>) {
    let (w, alpha, converged) = solve_dual(rows, y, n_features, params);
    if !converged {
        dfp_obs::metrics::dfp::train_unconverged().inc();
    }
    (w, alpha)
}

/// The shrinking solver behind [`train_binary`]; returns w, α and whether
/// it converged.
///
/// Each pass visits the active set in a fresh random order. A variable at
/// α = 0 whose gradient is above the previous pass's largest projected
/// gradient, or at α = C with one below the smallest, leaves the set: it
/// looks bound at the optimum. A full pass restores all n variables and
/// shrinks none. One follows each pass that meets `tol` on the active set,
/// and every [`FULL_PASS_EVERY`]-th pass is one. Only a full pass with
/// max |PG| < `tol` converges. Every decision reads `g` and α alone, so
/// labels `−y` take the same path with w negated.
fn solve_dual(
    rows: &[Vec<u32>],
    y: &[f64],
    n_features: usize,
    params: &LinearSvmParams,
) -> (Vec<f64>, Vec<f64>, bool) {
    let n = rows.len();
    let mut w = vec![0.0f64; n_features + 1];
    let mut alpha = vec![0.0f64; n];
    // Q_ii = ‖x_i‖² + 1 (bias feature).
    let qii: Vec<f64> = rows.iter().map(|r| r.len() as f64 + 1.0).collect();
    // order[..active] is the active set.
    let mut order: Vec<usize> = (0..n).collect();
    let mut active = n;
    let mut rng = StdRng::seed_from_u64(params.seed);
    // The previous pass's projected-gradient extremes; ±∞ shrink nothing.
    let (mut pg_max_old, mut pg_min_old) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut met_tol = false;

    for epoch in 0..params.max_epochs {
        let full = met_tol || epoch % FULL_PASS_EVERY == 0;
        if full {
            active = n;
            (pg_max_old, pg_min_old) = (f64::INFINITY, f64::NEG_INFINITY);
        }
        order[..active].shuffle(&mut rng);
        let (mut pg_max, mut pg_min) = (f64::NEG_INFINITY, f64::INFINITY);
        let mut s = 0;
        while s < active {
            let i = order[s];
            let xi = &rows[i];
            let mut wx = w[n_features];
            for &f in xi {
                wx += w[f as usize];
            }
            let g = y[i] * wx - 1.0;
            // Projected gradient for the box constraint.
            let pg = if alpha[i] <= 0.0 {
                if g > pg_max_old {
                    active -= 1;
                    order.swap(s, active);
                    continue;
                }
                g.min(0.0)
            } else if alpha[i] >= params.c {
                if g < pg_min_old {
                    active -= 1;
                    order.swap(s, active);
                    continue;
                }
                g.max(0.0)
            } else {
                g
            };
            pg_max = pg_max.max(pg);
            pg_min = pg_min.min(pg);
            if pg.abs() > 1e-12 {
                let new_alpha = (alpha[i] - g / qii[i]).clamp(0.0, params.c);
                let d = (new_alpha - alpha[i]) * y[i];
                alpha[i] = new_alpha;
                if d != 0.0 {
                    for &f in xi {
                        w[f as usize] += d;
                    }
                    w[n_features] += d;
                }
            }
            s += 1;
        }
        // max |PG| over the pass; −∞ if every variable was shrunk.
        met_tol = pg_max.max(-pg_min) < params.tol;
        if met_tol && full {
            return (w, alpha, true);
        }
        pg_max_old = if pg_max > 0.0 { pg_max } else { f64::INFINITY };
        pg_min_old = if pg_min < 0.0 { pg_min } else { -f64::INFINITY };
    }
    (w, alpha, false)
}

/// Dual objective value `½αᵀQ̄α − eᵀα` — exposed for tests verifying the
/// optimiser actually decreases the dual.
#[doc(hidden)]
pub fn dual_objective(rows: &[Vec<u32>], y: &[f64], alpha: &[f64]) -> f64 {
    let n = rows.len();
    let mut obj = 0.0;
    for i in 0..n {
        for j in 0..n {
            let q = y[i] * y[j] * (sparse_dot(&rows[i], &rows[j]) as f64 + 1.0);
            obj += 0.5 * alpha[i] * alpha[j] * q;
        }
        obj -= alpha[i];
    }
    obj
}

/// The solver without shrinking: every pass visits all n variables. The
/// reference the shrinking solver is checked against.
#[cfg(test)]
fn solve_dual_full_passes(
    rows: &[Vec<u32>],
    y: &[f64],
    n_features: usize,
    params: &LinearSvmParams,
) -> (Vec<f64>, Vec<f64>, bool) {
    let n = rows.len();
    let mut w = vec![0.0f64; n_features + 1];
    let mut alpha = vec![0.0f64; n];
    let qii: Vec<f64> = rows.iter().map(|r| r.len() as f64 + 1.0).collect();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(params.seed);

    for _epoch in 0..params.max_epochs {
        order.shuffle(&mut rng);
        let mut max_violation = 0.0f64;
        for &i in &order {
            let xi = &rows[i];
            let mut wx = w[n_features];
            for &f in xi {
                wx += w[f as usize];
            }
            let g = y[i] * wx - 1.0;
            let pg = if alpha[i] <= 0.0 {
                g.min(0.0)
            } else if alpha[i] >= params.c {
                g.max(0.0)
            } else {
                g
            };
            if pg.abs() > max_violation {
                max_violation = pg.abs();
            }
            if pg.abs() > 1e-12 {
                let new_alpha = (alpha[i] - g / qii[i]).clamp(0.0, params.c);
                let d = (new_alpha - alpha[i]) * y[i];
                alpha[i] = new_alpha;
                if d != 0.0 {
                    for &f in xi {
                        w[f as usize] += d;
                    }
                    w[n_features] += d;
                }
            }
        }
        if max_violation < params.tol {
            return (w, alpha, true);
        }
    }
    (w, alpha, false)
}

/// The optimality certificate of a binary solve: the primal value
/// `P(w) = ½‖w‖² + C·Σ max(0, 1 − yᵢ wᵀx̃ᵢ)` and the dual value
/// `D(α) = Σαᵢ − ½‖w‖²`, in O(nnz), where x̃ᵢ appends the bias feature and
/// `w` stands for `Σαᵢyᵢx̃ᵢ`. Any primal value bounds any dual value from
/// above, and the two meet at the optimum. Where every |PG_i| < tol, each
/// term of `P − D = Σ (αᵢGᵢ + C·max(0, −Gᵢ))` is below `2·C·tol`. A
/// converged solve read each |PG_i| during its last pass, before the rest
/// of that pass moved w a little, so its gap meets `2·n·C·tol` in practice
/// rather than by proof.
#[cfg(test)]
pub(crate) fn primal_dual(
    rows: &[Vec<u32>],
    y: &[f64],
    c: f64,
    w: &[f64],
    alpha: &[f64],
) -> (f64, f64) {
    let half_ww = 0.5 * w.iter().map(|v| v * v).sum::<f64>();
    let bias = w[w.len() - 1];
    let hinge: f64 = rows
        .iter()
        .zip(y)
        .map(|(row, &yi)| {
            let wx = bias + row.iter().map(|&f| w[f as usize]).sum::<f64>();
            (1.0 - yi * wx).max(0.0)
        })
        .sum();
    let primal = half_ww + c * hinge;
    let dual = alpha.iter().sum::<f64>() - half_ww;
    (primal, dual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use std::collections::BTreeSet;

    fn matrix(
        rows: Vec<Vec<u32>>,
        labels: Vec<u32>,
        n_features: usize,
        n_classes: usize,
    ) -> SparseBinaryMatrix {
        SparseBinaryMatrix::new(
            n_features,
            rows,
            labels.into_iter().map(ClassId).collect(),
            n_classes,
        )
    }

    #[test]
    fn separable_binary_problem() {
        // Feature 0 marks class 0, feature 1 marks class 1.
        let m = matrix(
            vec![vec![0], vec![0, 2], vec![0], vec![1], vec![1, 2], vec![1]],
            vec![0, 0, 0, 1, 1, 1],
            3,
            2,
        );
        let svm = LinearSvm::fit(&m, &LinearSvmParams::default());
        assert_eq!(svm.accuracy(&m), 1.0);
        assert_eq!(svm.predict(&[0, 2]), ClassId(0));
        assert_eq!(svm.predict(&[1]), ClassId(1));
    }

    #[test]
    fn multiclass_one_vs_rest() {
        let m = matrix(
            vec![vec![0], vec![0], vec![1], vec![1], vec![2], vec![2]],
            vec![0, 0, 1, 1, 2, 2],
            3,
            3,
        );
        let svm = LinearSvm::fit(&m, &LinearSvmParams::default());
        assert_eq!(svm.n_classes(), 3);
        assert_eq!(svm.accuracy(&m), 1.0);
    }

    #[test]
    fn majority_on_uninformative_features() {
        // All rows identical; labels skewed 3:1 → must predict majority.
        let m = matrix(vec![vec![0]; 4], vec![0, 0, 0, 1], 1, 2);
        let svm = LinearSvm::fit(&m, &LinearSvmParams::default());
        assert_eq!(svm.predict(&[0]), ClassId(0));
    }

    #[test]
    fn deterministic_given_seed() {
        let m = matrix(
            vec![
                vec![0, 1],
                vec![0],
                vec![1],
                vec![2],
                vec![1, 2],
                vec![2, 3],
            ],
            vec![0, 0, 0, 1, 1, 1],
            4,
            2,
        );
        let a = LinearSvm::fit(&m, &LinearSvmParams::default());
        let b = LinearSvm::fit(&m, &LinearSvmParams::default());
        assert_eq!(a.decision(&[0, 1], 0), b.decision(&[0, 1], 0));
    }

    #[test]
    fn dual_feasibility_and_progress() {
        // Rows 1 and 4 coincide with opposite labels, so the data is not
        // separable; row 5 has no active feature.
        let rows = vec![
            vec![0u32, 3],
            vec![0, 1],
            vec![1],
            vec![2],
            vec![0, 1],
            vec![],
            vec![0, 3],
            vec![2, 3],
        ];
        let y = vec![1.0, 1.0, -1.0, -1.0, -1.0, 1.0, 1.0, -1.0];
        let params = LinearSvmParams::default();
        let (w, alpha) = train_binary(&rows, &y, 4, &params);
        assert!(
            alpha.iter().all(|&a| (0.0..=params.c).contains(&a)),
            "{alpha:?}"
        );
        // w = Σ αᵢ yᵢ x̃ᵢ, where x̃ᵢ appends the constant bias feature.
        let mut from_alpha = vec![0.0f64; 5];
        for (i, row) in rows.iter().enumerate() {
            for &f in row {
                from_alpha[f as usize] += alpha[i] * y[i];
            }
            from_alpha[4] += alpha[i] * y[i];
        }
        for (f, (a, b)) in w.iter().zip(&from_alpha).enumerate() {
            assert!((a - b).abs() < 1e-9, "w[{f}] = {a}, Σαyx̃ = {b}");
        }
        // α = 0 scores 0; the optimum lies below it and below every feasible
        // single-coordinate step of ±0.05 away from it.
        let at_alpha = dual_objective(&rows, &y, &alpha);
        assert!(at_alpha < 0.0, "{at_alpha}");
        let mut perturbed = 0;
        for i in 0..alpha.len() {
            for step in [-0.05, 0.05] {
                let mut moved = alpha.clone();
                moved[i] += step;
                if (0.0..=params.c).contains(&moved[i]) {
                    perturbed += 1;
                    let there = dual_objective(&rows, &y, &moved);
                    assert!(at_alpha < there, "α{i} {step:+}: {at_alpha} ≥ {there}");
                }
            }
        }
        assert!(perturbed >= alpha.len());
    }

    /// A seeded random two-class matrix over 8 features. Row 0 has no
    /// active feature and column 7 is never used; seeds below 10 label all
    /// rows with one class.
    fn random_two_class(seed: u64) -> (Vec<Vec<u32>>, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_rows = rng.random_range(2..40usize);
        let rows: Vec<Vec<u32>> = (0..n_rows)
            .map(|i| {
                (0..7u32)
                    .filter(|_| i > 0 && rng.random_range(0..3u32) == 0)
                    .collect()
            })
            .collect();
        let labels = (0..n_rows)
            .map(|_| {
                if seed < 10 {
                    (seed % 2) as u32
                } else {
                    rng.random_range(0..2u32)
                }
            })
            .collect();
        (rows, labels)
    }

    #[test]
    fn two_class_shortcut_is_bit_identical_to_solving_class_1() {
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in 0..60u64 {
            let (rows, labels) = random_two_class(seed);
            let params = LinearSvmParams::with_c([0.1, 1.0, 10.0][seed as usize % 3]);
            let svm = LinearSvm::fit(&matrix(rows.clone(), labels.clone(), 8, 2), &params);
            // The reference: class 1's own dual, with its own ±1 labels.
            let y1: Vec<f64> = labels
                .iter()
                .map(|&l| if l == 1 { 1.0 } else { -1.0 })
                .collect();
            let (want, _) = train_binary(&rows, &y1, 8, &params);
            assert_eq!(bits(&svm.weight_vectors()[1]), bits(&want), "seed {seed}");
            assert_eq!(svm.weight(1, 7).to_bits(), 0.0f64.to_bits(), "seed {seed}");
        }
    }

    /// The gap a converged solve of `n` rows stays within.
    fn gap_bound(n: usize, params: &LinearSvmParams) -> f64 {
        2.0 * n as f64 * params.c * params.tol
    }

    #[test]
    fn solves_stopped_at_max_epochs_are_counted() {
        // The first epoch starts at α = 0, where the first row visited has
        // violation 1 > tol, so one epoch never converges; it also leaves
        // the duality gap above the bound a converged solve meets.
        let rows = vec![vec![0u32], vec![0, 1], vec![1], vec![]];
        let y = vec![1.0, 1.0, -1.0, -1.0];
        let params = LinearSvmParams {
            max_epochs: 1,
            ..LinearSvmParams::default()
        };
        let unconverged = dfp_obs::metrics::dfp::train_unconverged();
        let before = unconverged.get();
        let (w, alpha) = train_binary(&rows, &y, 2, &params);
        // Counters are process-global and tests run concurrently.
        assert!(unconverged.get() - before >= 1);
        let (p, d) = primal_dual(&rows, &y, params.c, &w, &alpha);
        assert!(p - d > gap_bound(rows.len(), &params), "P {p}, D {d}");
    }

    /// Random sparse binary problems: 2–120 rows over 1–30 features, with
    /// the last feature never used and row 0 empty; with `one_class == 0`
    /// every row takes row 0's label.
    fn problem() -> impl Strategy<Value = (Vec<Vec<u32>>, Vec<f64>, usize, f64)> {
        (
            prop::collection::vec(
                (prop::collection::btree_set(0u32..29, 0..=8), 0u32..2),
                2..=120,
            ),
            1u32..=30,
            0u32..4,
            0usize..3,
        )
            .prop_map(|(raw, n_features, one_class, c)| {
                let used = n_features - 1;
                let rows: Vec<Vec<u32>> = raw
                    .iter()
                    .enumerate()
                    .map(|(i, (set, _))| {
                        let folded: BTreeSet<u32> = set
                            .iter()
                            .filter(|_| i > 0 && used > 0)
                            .map(|f| f % used)
                            .collect();
                        folded.into_iter().collect()
                    })
                    .collect();
                let y = raw
                    .iter()
                    .map(|&(_, l)| if one_class == 0 { raw[0].1 } else { l })
                    .map(|l| if l == 1 { 1.0 } else { -1.0 })
                    .collect();
                (rows, y, n_features as usize, [0.1, 1.0, 10.0][c])
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both solvers keep 0 ≤ α ≤ C and w = Σαᵢyᵢx̃ᵢ, a converged solve
        /// meets the gap bound, and each solver's primal value bounds the
        /// other's dual value, so both reached the same optimum.
        #[test]
        fn shrinking_solves_are_certified_against_full_passes(problem in problem()) {
            let (rows, y, n_features, c) = problem;
            let params = LinearSvmParams::with_c(c);
            let solves = [
                solve_dual(&rows, &y, n_features, &params),
                solve_dual_full_passes(&rows, &y, n_features, &params),
            ];
            let mut values = Vec::new();
            for (w, alpha, converged) in &solves {
                prop_assert!(alpha.iter().all(|&a| (0.0..=c).contains(&a)), "{:?}", alpha);
                let mut from_alpha = vec![0.0f64; n_features + 1];
                for (i, row) in rows.iter().enumerate() {
                    for &f in row {
                        from_alpha[f as usize] += alpha[i] * y[i];
                    }
                    from_alpha[n_features] += alpha[i] * y[i];
                }
                for (a, b) in w.iter().zip(&from_alpha) {
                    prop_assert!((a - b).abs() < 1e-9, "w {} against Σαyx̃ {}", a, b);
                }
                let (p, d) = primal_dual(&rows, &y, c, w, alpha);
                if *converged {
                    prop_assert!(p - d <= gap_bound(rows.len(), &params), "P {} D {}", p, d);
                }
                values.push((p, d));
            }
            let [(p_new, d_new), (p_ref, d_ref)] = [values[0], values[1]];
            prop_assert!(p_new >= d_ref - 1e-9 * p_new.abs().max(1.0), "{} < {}", p_new, d_ref);
            prop_assert!(p_ref >= d_new - 1e-9 * p_ref.abs().max(1.0), "{} < {}", p_ref, d_new);
        }
    }

    #[test]
    fn a_shrunk_pass_meeting_tol_is_not_convergence() {
        // Case 1871 of `problem()`: 104 rows over two used features, mostly
        // duplicates with conflicting labels, at C = 1. In its ninth pass
        // the active set, 46 variables, meets `tol`; most of the 58 shrunk
        // ones sit at α = C, and some are far from their KKT condition by
        // then. Stopping there would leave P − D at about 96× the bound, so
        // only the full pass that follows may decide convergence. Random
        // cases hit this about once in 5000.
        let (rows, y, n_features, c) = problem().generate(&mut StdRng::seed_from_u64(1871));
        let params = LinearSvmParams::with_c(c);
        let (w, alpha, converged) = solve_dual(&rows, &y, n_features, &params);
        let (p, d) = primal_dual(&rows, &y, c, &w, &alpha);
        assert!(converged);
        assert!(p - d <= gap_bound(rows.len(), &params), "P {p}, D {d}");
    }

    #[test]
    fn small_c_underfits_large_c_fits() {
        // One mislabeled point: large C should chase it less gracefully than
        // tiny C (which underfits toward the majority side).
        let m = matrix(
            vec![vec![0], vec![0], vec![0], vec![1], vec![1], vec![0]],
            vec![0, 0, 0, 1, 1, 1],
            2,
            2,
        );
        let loose = LinearSvm::fit(&m, &LinearSvmParams::with_c(0.01));
        let tight = LinearSvm::fit(&m, &LinearSvmParams::with_c(100.0));
        // Both should get at least the 5 consistent points right.
        assert!(loose.accuracy(&m) >= 5.0 / 6.0 - 1e-9);
        assert!(tight.accuracy(&m) >= 5.0 / 6.0 - 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_matrix_panics() {
        let m = matrix(vec![], vec![], 2, 2);
        LinearSvm::fit(&m, &LinearSvmParams::default());
    }
}
