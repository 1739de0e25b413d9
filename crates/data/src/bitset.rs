//! A fixed-width bitset over `u64` blocks — the workspace's one tidset type.
//!
//! Item columns, class masks and pattern tidsets are all `Bitset`s. The hot
//! operations for the paper's algorithms are:
//!
//! * [`Bitset::intersection_count`] — pattern support and the numerator of
//!   the Jaccard redundancy measure (Eq. 9);
//! * [`Bitset::union_count`] — the denominator of Eq. 9;
//! * [`Bitset::intersect_with_count`] — incremental tidset computation while
//!   extending a pattern item by item;
//! * [`Bitset::is_subset_of`] — the closed miner's cover test;
//! * [`Bitset::iter_ones`] — database-coverage bookkeeping in MMRFS.
//!
//! Every kernel is one plain loop over the word pairs.

/// A set of bit positions in `[0, len)`, stored as `u64` blocks.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitset {
    blocks: Vec<u64>,
    len: usize,
}

impl std::fmt::Debug for Bitset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter_ones()).finish()
    }
}

impl Bitset {
    /// Creates an empty bitset able to hold `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        Bitset {
            blocks: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bitset of `len` bits with every bit in `[0, len)` set.
    pub fn full(len: usize) -> Self {
        let mut b = Bitset {
            blocks: vec![!0u64; len.div_ceil(64)],
            len,
        };
        b.clear_tail();
        b
    }

    /// Builds a bitset from an iterator of bit indices.
    ///
    /// # Panics
    /// Panics if any index is `>= len`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(len: usize, indices: I) -> Self {
        let mut b = Bitset::new(len);
        for i in indices {
            b.set(i);
        }
        b
    }

    /// Number of addressable bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.blocks[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn unset(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.blocks[i / 64] &= !(1u64 << (i % 64));
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.blocks[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `|self ∩ other|` without allocating.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn intersection_count(&self, other: &Bitset) -> usize {
        self.word_pairs(other)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `|self ∪ other|` without allocating.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn union_count(&self, other: &Bitset) -> usize {
        self.word_pairs(other)
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum()
    }

    /// `|self \ other|` without allocating.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn difference_count(&self, other: &Bitset) -> usize {
        self.word_pairs(other)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// `|self ∩ other| >= min`, stopping at the word that reaches `min`.
    ///
    /// The support-pruning kernel: a DFS node that only needs to know
    /// whether an extension stays frequent can stop counting as soon as
    /// the running intersection count reaches `min`, without materialising
    /// the intersection. `min == 0` is trivially `true`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn intersection_count_at_least(&self, other: &Bitset, min: usize) -> bool {
        let mut pairs = self.word_pairs(other);
        let mut count = 0usize;
        min == 0
            || pairs.any(|(a, b)| {
                count += (a & b).count_ones() as usize;
                count >= min
            })
    }

    /// `(|self ∩ other|, |self ∪ other|)` in a single pass over the blocks.
    ///
    /// Fuses the two popcount loops of Jaccard (Eq. 9) into one.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn intersection_union_count(&self, other: &Bitset) -> (usize, usize) {
        self.word_pairs(other)
            .fold((0, 0), |(inter, union), (a, b)| {
                (
                    inter + (a & b).count_ones() as usize,
                    union + (a | b).count_ones() as usize,
                )
            })
    }

    /// In-place `self &= other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn intersect_with(&mut self, other: &Bitset) {
        self.check_same_len(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place `self &= other`, returning the resulting `count_ones` from
    /// the same pass — the incremental-tidset kernel of the vertical miners.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn intersect_with_count(&mut self, other: &Bitset) -> usize {
        self.check_same_len(other);
        let mut count = 0usize;
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
            count += a.count_ones() as usize;
        }
        count
    }

    /// In-place `self |= other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn union_with(&mut self, other: &Bitset) {
        self.check_same_len(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// In-place `self &= !other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn subtract(&mut self, other: &Bitset) {
        self.check_same_len(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !b;
        }
    }

    /// `true` iff every set bit of `self` is also set in `other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn is_subset_of(&self, other: &Bitset) -> bool {
        self.word_pairs(other).all(|(a, b)| a & !b == 0)
    }

    /// Overwrites `self` with the contents of `other` without reallocating.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &Bitset) {
        self.check_same_len(other);
        self.blocks.copy_from_slice(&other.blocks);
    }

    /// Jaccard similarity `|A∩B| / |A∪B|`, `0.0` when both are empty.
    ///
    /// This is the set-overlap factor of the paper's redundancy measure
    /// `R(α, β)` (Eq. 9).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn jaccard(&self, other: &Bitset) -> f64 {
        let (inter, union) = self.intersection_union_count(other);
        if union == 0 {
            return 0.0;
        }
        inter as f64 / union as f64
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            blocks: &self.blocks,
            next_block: 0,
            current: BlockOnes { block: 0, base: 0 },
        }
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    fn clear_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// The word pairs of two equal-length bitsets.
    fn word_pairs<'a>(&'a self, other: &'a Bitset) -> impl Iterator<Item = (u64, u64)> + 'a {
        self.check_same_len(other);
        self.blocks
            .iter()
            .copied()
            .zip(other.blocks.iter().copied())
    }

    fn check_same_len(&self, other: &Bitset) {
        assert_eq!(
            self.len, other.len,
            "bitset length mismatch: {} vs {}",
            self.len, other.len
        );
    }
}

/// Iterator over set-bit indices in ascending order
/// (see [`Bitset::iter_ones`]).
pub struct Ones<'a> {
    blocks: &'a [u64],
    next_block: usize,
    current: BlockOnes,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if let Some(i) = self.current.next() {
                return Some(i);
            }
            let bi = self.next_block;
            let &block = self.blocks.get(bi)?;
            self.next_block += 1;
            self.current = BlockOnes {
                block,
                base: bi * 64,
            };
        }
    }
}

struct BlockOnes {
    block: u64,
    base: usize,
}

impl Iterator for BlockOnes {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.block == 0 {
            return None;
        }
        let tz = self.block.trailing_zeros() as usize;
        self.block &= self.block - 1;
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitset::new(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(63) && !b.get(128));
        assert_eq!(b.count_ones(), 3);
        b.unset(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn full_respects_length() {
        let b = Bitset::full(70);
        assert_eq!(b.count_ones(), 70);
        assert_eq!(b.iter_ones().count(), 70);
        assert_eq!(b.iter_ones().last(), Some(69));
    }

    #[test]
    fn full_exact_block_boundary() {
        let b = Bitset::full(128);
        assert_eq!(b.count_ones(), 128);
    }

    #[test]
    fn empty_zero_length() {
        let b = Bitset::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(Bitset::full(0).count_ones(), 0);
    }

    #[test]
    fn intersection_union_difference_counts() {
        let a = Bitset::from_indices(100, [1, 5, 64, 99]);
        let b = Bitset::from_indices(100, [5, 64, 70]);
        assert_eq!(a.intersection_count(&b), 2);
        assert_eq!(a.union_count(&b), 5);
        assert_eq!(a.difference_count(&b), 2);
        assert_eq!(b.difference_count(&a), 1);
    }

    #[test]
    fn in_place_ops() {
        let mut a = Bitset::from_indices(100, [1, 5, 64, 99]);
        let b = Bitset::from_indices(100, [5, 64, 70]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count_ones(), 5);
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter_ones().collect::<Vec<_>>(), vec![1, 99]);
        a.intersect_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![5, 64]);
    }

    #[test]
    fn subset() {
        let a = Bitset::from_indices(10, [2, 3]);
        let b = Bitset::from_indices(10, [1, 2, 3, 7]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        assert!(Bitset::new(10).is_subset_of(&a));
    }

    #[test]
    fn jaccard_values() {
        let a = Bitset::from_indices(10, [0, 1, 2, 3]);
        let b = Bitset::from_indices(10, [2, 3, 4, 5]);
        assert!((a.jaccard(&b) - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(Bitset::new(10).jaccard(&Bitset::new(10)), 0.0);
        assert_eq!(a.jaccard(&a), 1.0);
    }

    #[test]
    fn iter_ones_order() {
        let idx = [0usize, 7, 63, 64, 65, 127, 128];
        let b = Bitset::from_indices(200, idx);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), idx.to_vec());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        Bitset::new(10).set(10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let a = Bitset::new(10);
        let b = Bitset::new(11);
        a.intersection_count(&b);
    }

    #[test]
    fn intersection_count_at_least_thresholds() {
        let a = Bitset::from_indices(200, [0, 63, 64, 65, 127, 128, 199]);
        let b = Bitset::from_indices(200, [63, 64, 128, 199, 5]);
        // |a ∩ b| = 4 ({63, 64, 128, 199})
        assert_eq!(a.intersection_count(&b), 4);
        for min in 0..=4 {
            assert!(a.intersection_count_at_least(&b, min), "min={min}");
        }
        assert!(!a.intersection_count_at_least(&b, 5));
        assert!(!a.intersection_count_at_least(&b, 100));
    }

    #[test]
    fn intersection_count_at_least_empty_and_full() {
        let empty = Bitset::new(130);
        let full = Bitset::full(130);
        assert!(empty.intersection_count_at_least(&full, 0));
        assert!(!empty.intersection_count_at_least(&full, 1));
        assert!(full.intersection_count_at_least(&full, 130));
        assert!(!full.intersection_count_at_least(&full, 131));
        let zero = Bitset::new(0);
        assert!(zero.intersection_count_at_least(&zero, 0));
        assert!(!zero.intersection_count_at_least(&zero, 1));
    }

    #[test]
    fn intersection_union_count_matches_separate_kernels() {
        let cases = [
            (Bitset::new(100), Bitset::new(100)),
            (Bitset::full(100), Bitset::full(100)),
            (Bitset::full(128), Bitset::new(128)),
            (
                Bitset::from_indices(200, [1, 5, 64, 99, 128, 150]),
                Bitset::from_indices(200, [5, 64, 70, 150, 199]),
            ),
        ];
        for (a, b) in &cases {
            let (inter, union) = a.intersection_union_count(b);
            assert_eq!(inter, a.intersection_count(b));
            assert_eq!(union, a.union_count(b));
        }
    }

    #[test]
    fn intersect_with_count_fused() {
        let mut a = Bitset::from_indices(200, [1, 5, 64, 99, 128, 150]);
        let b = Bitset::from_indices(200, [5, 64, 70, 150, 199]);
        let expect = a.intersection_count(&b);
        let got = a.intersect_with_count(&b);
        assert_eq!(got, expect);
        assert_eq!(a.count_ones(), expect);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![5, 64, 150]);
        // empty / all-ones edges
        let mut e = Bitset::new(70);
        assert_eq!(e.intersect_with_count(&Bitset::full(70)), 0);
        let mut f = Bitset::full(70);
        assert_eq!(f.intersect_with_count(&Bitset::full(70)), 70);
    }

    #[test]
    fn clear_resets() {
        let mut a = Bitset::from_indices(100, [1, 2, 3]);
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn copy_from_overwrites() {
        let mut a = Bitset::from_indices(100, [1, 2, 3]);
        let b = Bitset::from_indices(100, [7, 64]);
        a.copy_from(&b);
        assert_eq!(a, b);
    }
}
