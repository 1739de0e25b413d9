//! Pattern redundancy `R(α, β)` (paper Eq. 9) — the penalty term of MMRFS.
//!
//! `R(α, β) = P(α, β) / (P(α) + P(β) − P(α, β)) × min(S(α), S(β))`
//!
//! The first factor is the Jaccard overlap of the two patterns' tidsets; the
//! second caps redundancy at the weaker pattern's relevance, so that
//! `g(α) = S(α) − max_β R(α, β)` (Eq. 10) cannot be dragged negative by
//! overlap with an irrelevant pattern.

use dfp_data::bitset::Bitset;

/// `R(α, β)` from tidsets and relevance values.
///
/// # Panics
/// Panics if the tidsets have different lengths.
pub fn redundancy(tids_a: &Bitset, tids_b: &Bitset, s_a: f64, s_b: f64) -> f64 {
    redundancy_from_overlap(tids_a.jaccard(tids_b), s_a, s_b)
}

/// `R(α, β)` when the Jaccard overlap is already known.
pub fn redundancy_from_overlap(jaccard: f64, s_a: f64, s_b: f64) -> f64 {
    debug_assert!((0.0..=1.0 + 1e-9).contains(&jaccard), "jaccard={jaccard}");
    let s_min = s_a.min(s_b);
    if !s_min.is_finite() {
        // min(S) can only be ∞ if both are ∞ (perfect separators); the
        // overlap factor still scales it meaningfully only when positive.
        return if jaccard > 0.0 { f64::INFINITY } else { 0.0 };
    }
    jaccard * s_min
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tids(len: usize, ones: &[usize]) -> Bitset {
        Bitset::from_indices(len, ones.iter().copied())
    }

    #[test]
    fn identical_patterns_fully_redundant() {
        let a = tids(10, &[1, 2, 3]);
        let r = redundancy(&a, &a, 0.8, 0.5);
        assert!((r - 0.5).abs() < 1e-12); // jaccard 1 × min(S)
    }

    #[test]
    fn disjoint_patterns_zero_redundancy() {
        let a = tids(10, &[1, 2]);
        let b = tids(10, &[5, 6]);
        assert_eq!(redundancy(&a, &b, 0.9, 0.9), 0.0);
    }

    #[test]
    fn partial_overlap() {
        let a = tids(10, &[0, 1, 2, 3]);
        let b = tids(10, &[2, 3, 4, 5]);
        // jaccard = 2/6
        let r = redundancy(&a, &b, 0.6, 0.3);
        assert!((r - (2.0 / 6.0) * 0.3).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        let a = tids(8, &[0, 1, 2]);
        let b = tids(8, &[1, 2, 5]);
        assert_eq!(redundancy(&a, &b, 0.4, 0.7), redundancy(&b, &a, 0.7, 0.4));
    }

    #[test]
    fn bounded_by_min_relevance() {
        let a = tids(8, &[0, 1, 2]);
        let b = tids(8, &[1, 2, 5]);
        let r = redundancy(&a, &b, 0.4, 0.7);
        assert!(r <= 0.4 + 1e-12);
    }

    #[test]
    fn infinite_relevance_handling() {
        let a = tids(4, &[0, 1]);
        let b = tids(4, &[1, 2]);
        // one finite relevance caps the product
        let r = redundancy(&a, &b, f64::INFINITY, 2.0);
        assert!((r - (1.0 / 3.0) * 2.0).abs() < 1e-12);
        // both infinite with overlap → infinite redundancy
        assert_eq!(
            redundancy(&a, &b, f64::INFINITY, f64::INFINITY),
            f64::INFINITY
        );
        // both infinite, disjoint → zero
        let c = tids(4, &[3]);
        assert_eq!(redundancy(&a, &c, f64::INFINITY, f64::INFINITY), 0.0);
    }
}
