//! Dense vs. compressed row-set equivalence.
//!
//! The adaptive substrate (`RowSet` = dense `Bitset` | roaring-style
//! `CompressedBitmap`) must be a pure representation change: every kernel
//! — intersection, union, difference, the fused pair, subset, membership,
//! iteration — must return bit-identical results across all four
//! dense/compressed operand pairings, on random densities and at the
//! array↔bitmap container boundary (4096 set bits per 2^16-bit chunk).
//! On top of the kernels, Eclat and the closed miner must emit
//! byte-identical pattern streams under `DFP_BITSET=dense`, `compressed`,
//! and `auto`.

use dfpc::data::bitset::{scalar, Bitset};
use dfpc::data::rowset::{set_mode_override, BitsetMode, CompressedBitmap, RowSet, ARRAY_MAX};
use dfpc::data::schema::ClassId;
use dfpc::data::transactions::{Item, TransactionSet};
use dfpc::mining::{closed, eclat, MineOptions};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that flip the process-global representation mode.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Universe sizes: well below one chunk, just above one chunk, several
/// chunks (exercising chunk-boundary and tail-word handling).
const LENS: [usize; 3] = [1000, 70_000, 200_000];

fn build(len: usize, raw: &[u64]) -> (Bitset, CompressedBitmap) {
    let mut idx: Vec<usize> = raw.iter().map(|&r| (r as usize) % len).collect();
    idx.sort_unstable();
    idx.dedup();
    let b = Bitset::from_indices(len, idx.iter().copied());
    let c = CompressedBitmap::from_bitset(&b);
    (b, c)
}

/// The four dense/compressed operand pairings of one logical (a, b) pair.
fn pairings(
    a: &Bitset,
    ca: &CompressedBitmap,
    b: &Bitset,
    cb: &CompressedBitmap,
) -> Vec<(String, RowSet, RowSet)> {
    let d = |x: &Bitset| RowSet::Dense(x.clone());
    let c = |x: &CompressedBitmap| RowSet::Compressed(x.clone());
    vec![
        ("dense×dense".into(), d(a), d(b)),
        ("dense×comp".into(), d(a), c(cb)),
        ("comp×dense".into(), c(ca), d(b)),
        ("comp×comp".into(), c(ca), c(cb)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every counting kernel agrees with the scalar dense baseline across
    /// all four representation pairings.
    #[test]
    fn counting_kernels_agree(
        which in 0usize..3,
        raw_a in prop::collection::vec(0u64..u64::MAX, 0..600),
        raw_b in prop::collection::vec(0u64..u64::MAX, 0..600),
    ) {
        let len = LENS[which];
        let (a, ca) = build(len, &raw_a);
        let (b, cb) = build(len, &raw_b);
        prop_assert_eq!(ca.count_ones(), a.count_ones());
        let inter = scalar::intersection_count(&a, &b);
        let union = scalar::union_count(&a, &b);
        let diff = scalar::difference_count(&a, &b);
        for (name, ra, rb) in pairings(&a, &ca, &b, &cb) {
            prop_assert_eq!(ra.intersection_count(&rb), inter, "inter {}", &name);
            prop_assert_eq!(ra.union_count(&rb), union, "union {}", &name);
            prop_assert_eq!(ra.difference_count(&rb), diff, "diff {}", &name);
            prop_assert_eq!(ra.intersection_union_count(&rb), (inter, union),
                "fused {}", &name);
            prop_assert_eq!(ra.is_subset_of(&rb), a.is_subset_of(&b), "subset {}", &name);
        }
    }

    /// Materialising kernels (`and`, `intersect_into`) and the iterators
    /// produce the same sets as dense intersection.
    #[test]
    fn materialising_kernels_agree(
        which in 0usize..3,
        raw_a in prop::collection::vec(0u64..u64::MAX, 0..600),
        raw_b in prop::collection::vec(0u64..u64::MAX, 0..600),
    ) {
        let len = LENS[which];
        let (a, ca) = build(len, &raw_a);
        let (b, cb) = build(len, &raw_b);
        let mut want = a.clone();
        let want_n = want.intersect_with_count(&b);
        let want_ones: Vec<usize> = want.iter_ones().collect();
        for (name, ra, rb) in pairings(&a, &ca, &b, &cb) {
            let anded = ra.and(&rb);
            prop_assert_eq!(anded.count_ones(), want_n, "and count {}", &name);
            prop_assert_eq!(anded.iter_ones().collect::<Vec<_>>(), want_ones.clone(),
                "and ones {}", &name);
            let mut out = RowSet::new_scratch(len);
            prop_assert_eq!(ra.intersect_into(&rb, &mut out), want_n,
                "intersect_into count {}", &name);
            prop_assert_eq!(out.to_bitset(), want.clone(), "intersect_into set {}", &name);
        }
        // Round trips and membership.
        prop_assert_eq!(ca.to_bitset(), a.clone());
        prop_assert_eq!(ca.iter_ones().collect::<Vec<_>>(),
            a.iter_ones().collect::<Vec<_>>());
        for &i in want_ones.iter().take(32) {
            prop_assert!(ca.contains(i));
            prop_assert!(cb.contains(i));
        }
    }

    /// Densities straddling the 4096-set-bit array↔bitmap container
    /// boundary keep every pairing bit-identical: `base` pushes chunk 0's
    /// cardinality right around `ARRAY_MAX` after dedup with the noise.
    #[test]
    fn container_boundary_densities_agree(
        extra in 0usize..64,
        raw_b in prop::collection::vec(0u64..u64::MAX, 0..600),
    ) {
        let len = 3 * (1 << 16);
        let count = ARRAY_MAX - 32 + extra; // spans the flip at 4096
        let idx: Vec<usize> = (0..count).collect();
        let a = Bitset::from_indices(len, idx.iter().copied());
        let ca = CompressedBitmap::from_bitset(&a);
        let (b, cb) = build(len, &raw_b);
        let inter = scalar::intersection_count(&a, &b);
        let union = scalar::union_count(&a, &b);
        for (name, ra, rb) in pairings(&a, &ca, &b, &cb) {
            prop_assert_eq!(ra.intersection_count(&rb), inter, "inter {}", &name);
            prop_assert_eq!(ra.intersection_union_count(&rb), (inter, union),
                "fused {}", &name);
        }
    }
}

/// Chunk 0 at exactly `ARRAY_MAX` stays an array container; one more bit
/// flips it to a bitmap. Both sides of the flip intersect identically.
#[test]
fn container_flip_is_lossless() {
    let len = 1 << 16;
    for count in [ARRAY_MAX, ARRAY_MAX + 1] {
        let a = Bitset::from_indices(len, (0..count).map(|i| i * 2));
        let ca = CompressedBitmap::from_bitset(&a);
        let summary = ca.container_summary();
        assert_eq!(summary.len(), 1);
        let (_, is_bitmap, card) = summary[0];
        assert_eq!(card, count);
        assert_eq!(is_bitmap, count > ARRAY_MAX, "container at {count}");
        assert_eq!(ca.to_bitset(), a);
        let b = Bitset::from_indices(len, (0..len).step_by(3));
        let cb = CompressedBitmap::from_bitset(&b);
        assert_eq!(
            ca.intersection_count(&cb),
            scalar::intersection_count(&a, &b)
        );
        assert_eq!(
            ca.intersection_count_dense(&b),
            scalar::intersection_count(&a, &b)
        );
    }
}

/// A mid-size seeded transaction database (no RNG dependency).
fn synthetic_db(n_rows: usize, n_attrs: usize, arity: u32) -> TransactionSet {
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut rows = Vec::with_capacity(n_rows);
    let mut labels = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let row: Vec<Item> = (0..n_attrs)
            .map(|a| Item(a as u32 * arity + (next() % arity as u64) as u32))
            .collect();
        rows.push(row);
        labels.push(ClassId((next() % 2) as u32));
    }
    TransactionSet::new(n_attrs * arity as usize, 2, rows, labels)
}

/// Eclat and the closed miner each emit the identical pattern stream —
/// same order, same supports — under all three `DFP_BITSET` modes.
#[test]
fn eclat_identical_across_modes() {
    let _guard = MODE_LOCK.lock().unwrap();
    let ts = synthetic_db(4000, 10, 4);
    let min_sup = ts.len() / 5;
    let opts = MineOptions::default();
    for name in ["eclat", "closed"] {
        let mut results = Vec::new();
        for mode in [BitsetMode::Dense, BitsetMode::Compressed, BitsetMode::Auto] {
            set_mode_override(Some(mode));
            let mined = match name {
                "eclat" => eclat::mine(&ts, min_sup, &opts),
                _ => closed::mine_closed(&ts, min_sup, &opts),
            };
            results.push(mined.unwrap());
        }
        set_mode_override(None);
        assert!(
            !results[0].is_empty(),
            "degenerate test: {name} mined nothing"
        );
        assert_eq!(results[0], results[1], "{name}: dense vs compressed");
        assert_eq!(results[0], results[2], "{name}: dense vs auto");
    }
}

/// Class-support attachment (batched scan) is mode-invariant too.
#[test]
fn class_supports_identical_across_modes() {
    let _guard = MODE_LOCK.lock().unwrap();
    let ts = synthetic_db(3000, 8, 3);
    let min_sup = ts.len() / 4;
    set_mode_override(Some(BitsetMode::Dense));
    let raw = eclat::mine(&ts, min_sup, &MineOptions::default()).unwrap();
    let mut attached = Vec::new();
    for mode in [BitsetMode::Dense, BitsetMode::Compressed, BitsetMode::Auto] {
        set_mode_override(Some(mode));
        attached.push(dfpc::mining::count::attach_class_supports(&ts, &raw));
    }
    set_mode_override(None);
    assert_eq!(attached[0], attached[1], "dense vs compressed");
    assert_eq!(attached[0], attached[2], "dense vs auto");
}
