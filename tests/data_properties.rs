//! Property tests for the data substrate: bitset algebra, discretizer
//! invariants, stratified splitting, and the dataset → transaction mapping.

use dfpc::data::bitset::Bitset;
use dfpc::data::discretize::{
    DiscretizationModel, Discretizer, EqualFrequency, EqualWidth, MdlDiscretizer,
};
use dfpc::data::schema::ClassId;
use dfpc::data::split::stratified_k_fold;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Longest bitset the kernel laws draw: four full words plus a tail.
const MAX_BITS: usize = 300;

/// A set of bit indices below [`MAX_BITS`]; each law keeps the ones below
/// its drawn length, so set density does not depend on the length.
fn indices() -> impl Strategy<Value = BTreeSet<usize>> {
    prop::collection::btree_set(0..MAX_BITS, 0..=MAX_BITS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every `Bitset` kernel agrees with the `BTreeSet` its operands were
    /// built from, at lengths that end on a word boundary and inside a word.
    #[test]
    fn bitset_algebra_laws(
        len in 0..=MAX_BITS,
        sa in indices(),
        sb in indices(),
        sc in indices(),
    ) {
        let keep = |s: BTreeSet<usize>| -> BTreeSet<usize> {
            s.into_iter().filter(|&i| i < len).collect()
        };
        let (sa, sb, sc) = (keep(sa), keep(sb), keep(sc));
        let bits = |s: &BTreeSet<usize>| Bitset::from_indices(len, s.iter().copied());
        let (a, b, c) = (bits(&sa), bits(&sb), bits(&sc));
        let and: BTreeSet<usize> = sa.intersection(&sb).copied().collect();
        let or: BTreeSet<usize> = sa.union(&sb).copied().collect();
        let diff: BTreeSet<usize> = sa.difference(&sb).copied().collect();
        let k = and.len();

        // counts
        prop_assert_eq!(a.count_ones(), sa.len());
        prop_assert_eq!(a.is_empty(), sa.is_empty());
        prop_assert_eq!(a.intersection_count(&b), k);
        prop_assert_eq!(a.union_count(&b), or.len());
        prop_assert_eq!(a.difference_count(&b), diff.len());
        prop_assert_eq!(a.intersection_union_count(&b), (k, or.len()));
        prop_assert!(a.intersection_count_at_least(&b, 0));
        prop_assert!(a.intersection_count_at_least(&b, k));
        prop_assert!(!a.intersection_count_at_least(&b, k + 1));
        let want_jaccard = if or.is_empty() { 0.0 } else { k as f64 / or.len() as f64 };
        prop_assert_eq!(a.jaccard(&b), want_jaccard);

        // in-place kernels
        let mut ab = a.clone();
        prop_assert_eq!(ab.intersect_with_count(&b), k);
        prop_assert_eq!(&ab, &bits(&and));
        let mut ab2 = a.clone();
        ab2.intersect_with(&b);
        prop_assert_eq!(&ab2, &ab);
        let mut u = a.clone();
        u.union_with(&b);
        prop_assert_eq!(&u, &bits(&or));
        let mut d = a.clone();
        d.subtract(&b);
        prop_assert_eq!(&d, &bits(&diff));
        prop_assert_eq!(
            d.iter_ones().collect::<Vec<_>>(),
            diff.iter().copied().collect::<Vec<_>>()
        );

        // subset: the random pair, true cases, and a ∩ b plus the highest
        // element of a \ b as the only stray bit
        prop_assert_eq!(a.is_subset_of(&b), sa.is_subset(&sb));
        prop_assert!(ab.is_subset_of(&a) && ab.is_subset_of(&b) && a.is_subset_of(&u));
        if let Some(&last) = diff.last() {
            let mut stray = and.clone();
            stray.insert(last);
            prop_assert!(!bits(&stray).is_subset_of(&b));
        }

        // associativity of intersection
        let mut ab_c = ab.clone();
        ab_c.intersect_with(&c);
        let mut bc = b.clone();
        bc.intersect_with(&c);
        let mut a_bc = a.clone();
        a_bc.intersect_with(&bc);
        prop_assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn discretizers_produce_valid_cut_points(
        values in prop::collection::vec((-100.0f64..100.0, 0u32..3), 0..60),
        bins in 1usize..6
    ) {
        let labelled: Vec<(f64, ClassId)> =
            values.iter().map(|&(v, l)| (v, ClassId(l))).collect();
        for cuts in [
            EqualWidth::new(bins).cut_points(&labelled, 3),
            EqualFrequency::new(bins).cut_points(&labelled, 3),
            MdlDiscretizer::new().cut_points(&labelled, 3),
        ] {
            // strictly increasing and finite
            for w in cuts.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            prop_assert!(cuts.iter().all(|c| c.is_finite()));
            // within the data range (when data exists)
            if let (Some(lo), Some(hi)) = (
                values.iter().map(|&(v, _)| v).min_by(|a, b| a.partial_cmp(b).unwrap()),
                values.iter().map(|&(v, _)| v).max_by(|a, b| a.partial_cmp(b).unwrap()),
            ) {
                prop_assert!(cuts.iter().all(|&c| c >= lo && c <= hi));
            }
        }
    }

    #[test]
    fn binning_is_exhaustive_and_monotone(
        values in prop::collection::vec((-50.0f64..50.0, 0u32..2), 4..40)
    ) {
        use dfpc::data::dataset::{Dataset, Value};
        use dfpc::data::schema::{Attribute, Schema};
        let schema = Schema::new(
            vec![Attribute::numeric("x")],
            vec!["a".into(), "b".into()],
        );
        let d = Dataset::new(
            schema,
            values.iter().map(|&(v, _)| vec![Value::Num(v)]).collect(),
            values.iter().map(|&(_, l)| ClassId(l)).collect(),
        );
        let model = DiscretizationModel::fit(&d, &EqualFrequency::new(4));
        let n_bins = model.n_bins(0).unwrap();
        let mut last_bin = 0usize;
        let mut sorted: Vec<f64> = values.iter().map(|&(v, _)| v).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for v in sorted {
            let bin = model.bin(0, v);
            prop_assert!(bin < n_bins);
            prop_assert!(bin >= last_bin, "bins must be monotone in the value");
            last_bin = bin;
        }
    }

    #[test]
    fn stratified_folds_partition_and_stratify(
        class_sizes in prop::collection::vec(3usize..20, 2..4),
        k in 2usize..4
    ) {
        let labels: Vec<ClassId> = class_sizes
            .iter()
            .enumerate()
            .flat_map(|(c, &n)| std::iter::repeat_n(ClassId(c as u32), n))
            .collect();
        let folds = stratified_k_fold(&labels, k, 17);
        prop_assert_eq!(folds.len(), k);
        let mut tested = vec![0usize; labels.len()];
        for f in &folds {
            for &t in &f.test {
                tested[t] += 1;
            }
            // stratification: per-class test counts within 1 of each other
            for (c, &size) in class_sizes.iter().enumerate() {
                let in_test = f.test.iter().filter(|&&i| labels[i] == ClassId(c as u32)).count();
                let expect = size / k;
                prop_assert!(in_test >= expect && in_test <= expect + 1);
            }
        }
        prop_assert!(tested.iter().all(|&t| t == 1), "each row tested exactly once");
    }
}
