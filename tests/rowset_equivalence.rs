//! Row-set kernels at tidset scale.
//!
//! Every tidset (item column, class mask, pattern tidset, miner scratch
//! slot) is a dense `Bitset` over the rows of a database. The algebra laws
//! in `data_properties.rs` check the kernels on short sets; here the row
//! universes are the sizes real tidsets have — a thousand rows, just past
//! one 2^16-row block, and 200,000 rows — with sparse random rows and long
//! runs of full words. Each kernel must agree with a bit-by-bit reference
//! over a plain boolean membership vector.

use dfpc::data::bitset::Bitset;
use proptest::prelude::*;

/// Row universes: 1000 (ends inside a word), 70,000 (ends inside a word,
/// past one 2^16-row block) and 200,000 (ends on a word boundary).
const LENS: [usize; 3] = [1000, 70_000, 200_000];

/// A row set of `len` rows: the rows `0..run` (a run of full words plus a
/// partial one) and the rows named by `raw` modulo `len`. Returns the
/// bitset and its boolean membership reference.
fn build(len: usize, run: usize, raw: &[u64]) -> (Bitset, Vec<bool>) {
    let mut member = vec![false; len];
    for m in member.iter_mut().take(run) {
        *m = true;
    }
    for &r in raw {
        member[(r as usize) % len] = true;
    }
    let b = Bitset::from_indices(len, (0..len).filter(|&i| member[i]));
    (b, member)
}

/// The rows set in a membership reference, ascending.
fn rows(member: &[bool]) -> Vec<usize> {
    (0..member.len()).filter(|&i| member[i]).collect()
}

/// The bitset holding exactly the rows where `f(a[i], b[i])` holds.
fn combine(a: &[bool], b: &[bool], f: impl Fn(bool, bool) -> bool) -> Vec<bool> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every counting kernel agrees with a bit-by-bit count over the
    /// membership reference.
    #[test]
    fn counting_kernels_agree(
        which in 0usize..3,
        run_a in 0usize..5000,
        run_b in 0usize..5000,
        raw_a in prop::collection::vec(0u64..u64::MAX, 0..600),
        raw_b in prop::collection::vec(0u64..u64::MAX, 0..600),
    ) {
        let len = LENS[which];
        let (a, ma) = build(len, run_a, &raw_a);
        let (b, mb) = build(len, run_b, &raw_b);
        let count = |m: &[bool]| m.iter().filter(|&&x| x).count();
        let inter = count(&combine(&ma, &mb, |x, y| x && y));
        let union = count(&combine(&ma, &mb, |x, y| x || y));
        let diff = count(&combine(&ma, &mb, |x, y| x && !y));

        prop_assert_eq!(a.len(), len);
        prop_assert_eq!(a.count_ones(), count(&ma));
        prop_assert_eq!(a.is_empty(), count(&ma) == 0);
        prop_assert_eq!(a.intersection_count(&b), inter);
        prop_assert_eq!(a.union_count(&b), union);
        prop_assert_eq!(a.difference_count(&b), diff);
        prop_assert_eq!(a.intersection_union_count(&b), (inter, union));
        prop_assert!(a.intersection_count_at_least(&b, inter));
        prop_assert!(!a.intersection_count_at_least(&b, inter + 1));
        prop_assert_eq!(a.is_subset_of(&b), diff == 0);
        let want_jaccard = if union == 0 { 0.0 } else { inter as f64 / union as f64 };
        prop_assert_eq!(a.jaccard(&b), want_jaccard);
    }

    /// The materialising kernels produce the reference sets, and the
    /// miners' scratch pattern — copy the parent into a reused slot, then
    /// intersect in place — matches a fresh intersection.
    #[test]
    fn materialising_kernels_agree(
        which in 0usize..3,
        run_a in 0usize..5000,
        raw_a in prop::collection::vec(0u64..u64::MAX, 0..600),
        raw_b in prop::collection::vec(0u64..u64::MAX, 0..600),
        raw_c in prop::collection::vec(0u64..u64::MAX, 0..600),
    ) {
        let len = LENS[which];
        let (a, ma) = build(len, run_a, &raw_a);
        let (b, mb) = build(len, 0, &raw_b);
        let (c, mc) = build(len, 0, &raw_c);
        let and = combine(&ma, &mb, |x, y| x && y);

        prop_assert_eq!(a.iter_ones().collect::<Vec<_>>(), rows(&ma));
        for i in rows(&mb).into_iter().take(32) {
            prop_assert_eq!(a.get(i), ma[i], "get {}", i);
        }

        let mut ab = a.clone();
        prop_assert_eq!(ab.intersect_with_count(&b), rows(&and).len());
        prop_assert_eq!(ab.iter_ones().collect::<Vec<_>>(), rows(&and));
        let mut ab2 = a.clone();
        ab2.intersect_with(&b);
        prop_assert_eq!(&ab2, &ab);

        let mut u = a.clone();
        u.union_with(&b);
        prop_assert_eq!(u.iter_ones().collect::<Vec<_>>(),
            rows(&combine(&ma, &mb, |x, y| x || y)));
        let mut d = a.clone();
        d.subtract(&b);
        prop_assert_eq!(d.iter_ones().collect::<Vec<_>>(),
            rows(&combine(&ma, &mb, |x, y| x && !y)));

        // One scratch slot reused down a path a → a∩b → a∩b∩c, as the
        // closed miner and Eclat do per depth.
        let mut slot = Bitset::full(len);
        slot.copy_from(&a);
        prop_assert_eq!(&slot, &a);
        slot.intersect_with_count(&b);
        prop_assert_eq!(&slot, &ab);
        let abc = combine(&and, &mc, |x, y| x && y);
        prop_assert_eq!(slot.intersect_with_count(&c), rows(&abc).len());
        prop_assert_eq!(slot.iter_ones().collect::<Vec<_>>(), rows(&abc));
        slot.clear();
        prop_assert!(slot.is_empty());
    }
}
