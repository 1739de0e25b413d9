//! Adaptive row-mask representation: dense [`Bitset`] or roaring-style
//! [`CompressedBitmap`], selected per column from measured density.
//!
//! The dense representation costs `len / 8` bytes regardless of how many
//! rows an item actually covers; on large sparse transaction sets almost
//! every word the intersection kernels stream is zero. The compressed
//! representation splits the row space into 2^16-bit chunks and stores each
//! non-empty chunk as either a sorted `u16` **array container** (at most
//! [`ARRAY_MAX`] = 4096 entries, 2 bytes per set bit) or a full 8 KiB
//! **bitmap container** — the classic Roaring layout, picked per chunk so a
//! container never costs more than the denser of the two encodings.
//!
//! [`RowSet`] wraps the two behind one kernel set so miners and selectors
//! are representation-agnostic. Which side a column lands on is decided at
//! build time by [`mode`]: `DFP_BITSET=dense|compressed|auto` (or the
//! programmatic [`set_mode_override`]), where `auto` compresses a column
//! only when the universe is at least [`ARRAY_MAX`] rows *and* its density
//! is ≤ 1/64 — above that, the dense kernels' branchless word loops win.

use crate::bitset::Bitset;
use crate::kernels;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Bits per chunk of the two-level layout.
const CHUNK_BITS: usize = 1 << 16;
/// Words per bitmap container (`CHUNK_BITS / 64`).
const CHUNK_WORDS: usize = CHUNK_BITS / 64;
/// Maximum cardinality of an array container. At 4096 × 2 B an array
/// container reaches the 8 KiB of a bitmap container — past this point the
/// bitmap is both smaller and faster, so the container flips.
pub const ARRAY_MAX: usize = 4096;

/// Which row-mask representation new columns are built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitsetMode {
    /// Always the flat `u64`-block [`Bitset`].
    Dense,
    /// Always the two-level [`CompressedBitmap`].
    Compressed,
    /// Per column: compressed iff `len >= 4096` and density ≤ 1/64.
    Auto,
}

/// 0 = no override, else `BitsetMode` discriminant + 1.
static MODE_OVERRIDE: AtomicU8 = AtomicU8::new(0);
static ENV_MODE: OnceLock<BitsetMode> = OnceLock::new();

/// Forces a representation mode for subsequently built [`RowSet`]s,
/// overriding the `DFP_BITSET` environment variable; `None` removes the
/// override. Process-global — intended for tests and benches.
pub fn set_mode_override(mode: Option<BitsetMode>) {
    let v = match mode {
        None => 0,
        Some(BitsetMode::Dense) => 1,
        Some(BitsetMode::Compressed) => 2,
        Some(BitsetMode::Auto) => 3,
    };
    MODE_OVERRIDE.store(v, Ordering::SeqCst);
}

/// The active representation mode: programmatic override, else the
/// `DFP_BITSET` environment variable (`dense` / `compressed` / `auto`,
/// read once; unrecognised values fall back to `auto`), else `auto`.
pub fn mode() -> BitsetMode {
    match MODE_OVERRIDE.load(Ordering::SeqCst) {
        1 => return BitsetMode::Dense,
        2 => return BitsetMode::Compressed,
        3 => return BitsetMode::Auto,
        _ => {}
    }
    *ENV_MODE.get_or_init(|| match std::env::var("DFP_BITSET").as_deref() {
        Ok("dense") => BitsetMode::Dense,
        Ok("compressed") => BitsetMode::Compressed,
        _ => BitsetMode::Auto,
    })
}

/// The `auto` container-selection rule: compress a column of `count` set
/// bits over a `len`-row universe iff the universe is big enough for the
/// chunked layout to pay for itself and the column is sparse (≤ 1/64).
///
/// The 1/64 threshold is where sorted-array merges stop beating the dense
/// word kernels: at ~1.5% density an array container holds ~1000 of the
/// chunk's 65536 bits, and a two-pointer merge over two such arrays costs
/// about as much as AND+popcount over the chunk's 1024 words. Denser
/// columns stay dense.
pub fn auto_compress(len: usize, count: usize) -> bool {
    len >= ARRAY_MAX && count.saturating_mul(64) <= len
}

/// One non-empty 2^16-bit chunk.
#[derive(Clone, PartialEq, Eq)]
struct Chunk {
    /// Chunk index: covers bits `[key << 16, (key + 1) << 16)`.
    key: u32,
    /// Cached cardinality (always `> 0`).
    card: u32,
    data: Container,
}

#[derive(Clone, PartialEq, Eq)]
enum Container {
    /// Sorted low-16-bit values; `len <= ARRAY_MAX`.
    Array(Vec<u16>),
    /// `CHUNK_WORDS` words; used when `card > ARRAY_MAX`.
    Bitmap(Box<[u64]>),
}

/// A roaring-style compressed set of row indices in `[0, len)`.
#[derive(Clone, PartialEq, Eq)]
pub struct CompressedBitmap {
    len: usize,
    chunks: Vec<Chunk>,
}

impl std::fmt::Debug for CompressedBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter_ones()).finish()
    }
}

/// Two-pointer intersection size of sorted `u16` slices.
fn array_merge_count(a: &[u16], b: &[u16]) -> usize {
    let (mut i, mut j, mut c) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Two-pointer intersection of sorted `u16` slices.
fn array_merge(a: &[u16], b: &[u16]) -> Vec<u16> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
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

#[inline]
fn bitmap_contains(bm: &[u64], v: u16) -> bool {
    (bm[(v >> 6) as usize] >> (v & 63)) & 1 == 1
}

/// Bitmap container words → sorted value array (caller knows `card <=
/// ARRAY_MAX`).
fn bitmap_to_array(bm: &[u64], card: usize) -> Vec<u16> {
    let mut out = Vec::with_capacity(card);
    for (wi, &w) in bm.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            out.push((wi * 64 + w.trailing_zeros() as usize) as u16);
            w &= w - 1;
        }
    }
    out
}

fn array_to_bitmap(arr: &[u16]) -> Box<[u64]> {
    let mut bm = vec![0u64; CHUNK_WORDS].into_boxed_slice();
    for &v in arr {
        bm[(v >> 6) as usize] |= 1u64 << (v & 63);
    }
    bm
}

/// Normalises a raw (values, card) pair into the cheaper container.
fn normalize(values: Vec<u16>) -> Option<Chunk> {
    if values.is_empty() {
        return None;
    }
    debug_assert!(values.len() <= ARRAY_MAX);
    Some(Chunk {
        key: 0, // caller fills in
        card: values.len() as u32,
        data: Container::Array(values),
    })
}

impl CompressedBitmap {
    /// Builds from a dense bitset.
    pub fn from_bitset(b: &Bitset) -> Self {
        let blocks = b.blocks();
        let mut chunks = Vec::new();
        let mut start = 0usize;
        let mut key = 0u32;
        while start < blocks.len() {
            let end = (start + CHUNK_WORDS).min(blocks.len());
            let slice = &blocks[start..end];
            let card = kernels::count(slice);
            if card > ARRAY_MAX {
                let mut bm = vec![0u64; CHUNK_WORDS].into_boxed_slice();
                bm[..slice.len()].copy_from_slice(slice);
                chunks.push(Chunk {
                    key,
                    card: card as u32,
                    data: Container::Bitmap(bm),
                });
            } else if card > 0 {
                chunks.push(Chunk {
                    key,
                    card: card as u32,
                    data: Container::Array(bitmap_to_array(slice, card)),
                });
            }
            start = end;
            key += 1;
        }
        CompressedBitmap {
            len: b.len(),
            chunks,
        }
    }

    /// Builds from ascending row indices (all `< len`).
    ///
    /// # Panics
    /// Panics if an index is `>= len` or the sequence is not ascending.
    pub fn from_sorted_indices<I: IntoIterator<Item = usize>>(len: usize, indices: I) -> Self {
        let mut chunks: Vec<Chunk> = Vec::new();
        let mut cur_key: Option<u32> = None;
        let mut cur: Vec<u16> = Vec::new();
        let mut cur_bm: Option<Box<[u64]>> = None;
        let mut cur_card = 0usize;
        let mut last: Option<usize> = None;

        let mut flush =
            |key: Option<u32>, arr: &mut Vec<u16>, bm: &mut Option<Box<[u64]>>, card: usize| {
                let Some(key) = key else { return };
                if let Some(bm) = bm.take() {
                    chunks.push(Chunk {
                        key,
                        card: card as u32,
                        data: Container::Bitmap(bm),
                    });
                } else if let Some(mut c) = normalize(std::mem::take(arr)) {
                    c.key = key;
                    chunks.push(c);
                }
            };

        for i in indices {
            assert!(i < len, "row index {i} out of range {len}");
            assert!(last.is_none_or(|p| p < i), "indices must be ascending");
            last = Some(i);
            let key = (i / CHUNK_BITS) as u32;
            let low = (i % CHUNK_BITS) as u16;
            if cur_key != Some(key) {
                flush(cur_key, &mut cur, &mut cur_bm, cur_card);
                cur_key = Some(key);
                cur.clear();
                cur_bm = None;
                cur_card = 0;
            }
            if let Some(bm) = &mut cur_bm {
                bm[(low >> 6) as usize] |= 1u64 << (low & 63);
            } else {
                cur.push(low);
                if cur.len() > ARRAY_MAX {
                    cur_bm = Some(array_to_bitmap(&cur));
                    cur.clear();
                }
            }
            cur_card += 1;
        }
        flush(cur_key, &mut cur, &mut cur_bm, cur_card);
        CompressedBitmap { len, chunks }
    }

    /// Number of addressable rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no row is set.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Number of set rows (sum of cached container cardinalities).
    pub fn count_ones(&self) -> usize {
        self.chunks.iter().map(|c| c.card as usize).sum()
    }

    /// Membership test.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "row index {i} out of range {}", self.len);
        let key = (i / CHUNK_BITS) as u32;
        let low = (i % CHUNK_BITS) as u16;
        match self.chunks.binary_search_by_key(&key, |c| c.key) {
            Err(_) => false,
            Ok(ci) => match &self.chunks[ci].data {
                Container::Array(a) => a.binary_search(&low).is_ok(),
                Container::Bitmap(bm) => bitmap_contains(bm, low),
            },
        }
    }

    /// Expands into a dense bitset.
    pub fn to_bitset(&self) -> Bitset {
        let mut b = Bitset::new(self.len);
        let blocks = b.blocks_mut();
        for c in &self.chunks {
            let start = c.key as usize * CHUNK_WORDS;
            match &c.data {
                Container::Array(a) => {
                    for &v in a {
                        blocks[start + (v >> 6) as usize] |= 1u64 << (v & 63);
                    }
                }
                Container::Bitmap(bm) => {
                    let end = (start + CHUNK_WORDS).min(blocks.len());
                    blocks[start..end].copy_from_slice(&bm[..end - start]);
                }
            }
        }
        b
    }

    /// `|self ∩ other|`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn intersection_count(&self, other: &CompressedBitmap) -> usize {
        self.check_same_len_c(other);
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        while i < self.chunks.len() && j < other.chunks.len() {
            let (ca, cb) = (&self.chunks[i], &other.chunks[j]);
            match ca.key.cmp(&cb.key) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += match (&ca.data, &cb.data) {
                        (Container::Array(a), Container::Array(b)) => array_merge_count(a, b),
                        (Container::Array(a), Container::Bitmap(bm))
                        | (Container::Bitmap(bm), Container::Array(a)) => {
                            a.iter().filter(|&&v| bitmap_contains(bm, v)).count()
                        }
                        (Container::Bitmap(a), Container::Bitmap(b)) => kernels::and_count(a, b),
                    };
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// `|self ∩ dense|`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn intersection_count_dense(&self, dense: &Bitset) -> usize {
        self.check_same_len_d(dense);
        let blocks = dense.blocks();
        let mut count = 0usize;
        for c in &self.chunks {
            let start = c.key as usize * CHUNK_WORDS;
            let end = (start + CHUNK_WORDS).min(blocks.len());
            let slice = &blocks[start..end];
            count += match &c.data {
                Container::Array(a) => a.iter().filter(|&&v| bitmap_contains(slice, v)).count(),
                Container::Bitmap(bm) => kernels::and_count(&bm[..slice.len()], slice),
            };
        }
        count
    }

    /// `self ∩ other` as a new compressed bitmap (containers re-normalised:
    /// a bitmap∩bitmap result at or below [`ARRAY_MAX`] becomes an array).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn and(&self, other: &CompressedBitmap) -> CompressedBitmap {
        self.check_same_len_c(other);
        let mut chunks = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.chunks.len() && j < other.chunks.len() {
            let (ca, cb) = (&self.chunks[i], &other.chunks[j]);
            match ca.key.cmp(&cb.key) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    match (&ca.data, &cb.data) {
                        (Container::Array(a), Container::Array(b)) => {
                            if let Some(mut c) = normalize(array_merge(a, b)) {
                                c.key = ca.key;
                                chunks.push(c);
                            }
                        }
                        (Container::Array(a), Container::Bitmap(bm))
                        | (Container::Bitmap(bm), Container::Array(a)) => {
                            let vals: Vec<u16> = a
                                .iter()
                                .copied()
                                .filter(|&v| bitmap_contains(bm, v))
                                .collect();
                            if let Some(mut c) = normalize(vals) {
                                c.key = ca.key;
                                chunks.push(c);
                            }
                        }
                        (Container::Bitmap(a), Container::Bitmap(b)) => {
                            let mut bm = a.clone();
                            let card = kernels::and_in_place_count(&mut bm, b);
                            if card > ARRAY_MAX {
                                chunks.push(Chunk {
                                    key: ca.key,
                                    card: card as u32,
                                    data: Container::Bitmap(bm),
                                });
                            } else if card > 0 {
                                chunks.push(Chunk {
                                    key: ca.key,
                                    card: card as u32,
                                    data: Container::Array(bitmap_to_array(&bm, card)),
                                });
                            }
                        }
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        CompressedBitmap {
            len: self.len,
            chunks,
        }
    }

    /// `self ∩ dense` as a new compressed bitmap.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn and_dense(&self, dense: &Bitset) -> CompressedBitmap {
        self.check_same_len_d(dense);
        let blocks = dense.blocks();
        let mut chunks = Vec::new();
        for c in &self.chunks {
            let start = c.key as usize * CHUNK_WORDS;
            let end = (start + CHUNK_WORDS).min(blocks.len());
            let slice = &blocks[start..end];
            match &c.data {
                Container::Array(a) => {
                    let vals: Vec<u16> = a
                        .iter()
                        .copied()
                        .filter(|&v| bitmap_contains(slice, v))
                        .collect();
                    if let Some(mut ch) = normalize(vals) {
                        ch.key = c.key;
                        chunks.push(ch);
                    }
                }
                Container::Bitmap(bm) => {
                    let mut out = vec![0u64; CHUNK_WORDS].into_boxed_slice();
                    out[..slice.len()].copy_from_slice(&bm[..slice.len()]);
                    let card = kernels::and_in_place_count(&mut out[..slice.len()], slice);
                    if card > ARRAY_MAX {
                        chunks.push(Chunk {
                            key: c.key,
                            card: card as u32,
                            data: Container::Bitmap(out),
                        });
                    } else if card > 0 {
                        chunks.push(Chunk {
                            key: c.key,
                            card: card as u32,
                            data: Container::Array(bitmap_to_array(&out, card)),
                        });
                    }
                }
            }
        }
        CompressedBitmap {
            len: self.len,
            chunks,
        }
    }

    /// In-place `dense &= self`, returning the resulting popcount. Words in
    /// chunks absent from `self` are zeroed wholesale; array containers are
    /// expanded into an 8 KiB stack scratch mask per chunk.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn and_into_dense(&self, dense: &mut Bitset) -> usize {
        self.check_same_len_d(dense);
        let blocks = dense.blocks_mut();
        let mut count = 0usize;
        let mut next = 0usize; // word cursor
        for c in &self.chunks {
            let start = c.key as usize * CHUNK_WORDS;
            let end = (start + CHUNK_WORDS).min(blocks.len());
            blocks[next..start].fill(0);
            match &c.data {
                Container::Array(a) => {
                    let mut mask = [0u64; CHUNK_WORDS];
                    for &v in a.iter() {
                        mask[(v >> 6) as usize] |= 1u64 << (v & 63);
                    }
                    count +=
                        kernels::and_in_place_count(&mut blocks[start..end], &mask[..end - start]);
                }
                Container::Bitmap(bm) => {
                    count +=
                        kernels::and_in_place_count(&mut blocks[start..end], &bm[..end - start]);
                }
            }
            next = end;
        }
        blocks[next..].fill(0);
        count
    }

    /// Iterates over set row indices in ascending order.
    pub fn iter_ones(&self) -> CompressedOnes<'_> {
        CompressedOnes {
            chunks: &self.chunks,
            ci: 0,
            pos: 0,
            word: 0,
            wi: 0,
        }
    }

    /// `(key, is_bitmap, cardinality)` per chunk — test-only introspection
    /// of the container-switch rule.
    #[doc(hidden)]
    pub fn container_summary(&self) -> Vec<(u32, bool, usize)> {
        self.chunks
            .iter()
            .map(|c| {
                (
                    c.key,
                    matches!(c.data, Container::Bitmap(_)),
                    c.card as usize,
                )
            })
            .collect()
    }

    fn check_same_len_c(&self, other: &CompressedBitmap) {
        assert_eq!(
            self.len, other.len,
            "bitset length mismatch: {} vs {}",
            self.len, other.len
        );
    }

    fn check_same_len_d(&self, other: &Bitset) {
        assert_eq!(
            self.len,
            other.len(),
            "bitset length mismatch: {} vs {}",
            self.len,
            other.len()
        );
    }
}

/// Ascending iterator over a [`CompressedBitmap`]'s set rows.
pub struct CompressedOnes<'a> {
    chunks: &'a [Chunk],
    ci: usize,
    /// Next index into an array container.
    pos: usize,
    /// Remaining bits of the current bitmap word.
    word: u64,
    /// Next word index into a bitmap container.
    wi: usize,
}

impl Iterator for CompressedOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            let chunk = self.chunks.get(self.ci)?;
            let base = chunk.key as usize * CHUNK_BITS;
            match &chunk.data {
                Container::Array(a) => {
                    if let Some(&v) = a.get(self.pos) {
                        self.pos += 1;
                        return Some(base + v as usize);
                    }
                }
                Container::Bitmap(bm) => {
                    if self.word != 0 {
                        let tz = self.word.trailing_zeros() as usize;
                        self.word &= self.word - 1;
                        return Some(base + (self.wi - 1) * 64 + tz);
                    }
                    if self.wi < bm.len() {
                        self.word = bm[self.wi];
                        self.wi += 1;
                        continue;
                    }
                }
            }
            self.ci += 1;
            self.pos = 0;
            self.word = 0;
            self.wi = 0;
        }
    }
}

/// A row mask in either representation, with one kernel set over all
/// representation pairings.
#[derive(Clone, PartialEq, Eq)]
pub enum RowSet {
    /// Flat `u64`-block bitset.
    Dense(Bitset),
    /// Roaring-style two-level bitmap.
    Compressed(CompressedBitmap),
}

impl std::fmt::Debug for RowSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RowSet::Dense(b) => write!(f, "Dense{b:?}"),
            RowSet::Compressed(c) => write!(f, "Compressed{c:?}"),
        }
    }
}

impl RowSet {
    /// Wraps a dense bitset in the representation chosen by the active
    /// [`mode`] (for `Auto`, by the [`auto_compress`] density rule).
    pub fn from_bitset(b: Bitset) -> RowSet {
        match mode() {
            BitsetMode::Dense => RowSet::Dense(b),
            BitsetMode::Compressed => RowSet::Compressed(CompressedBitmap::from_bitset(&b)),
            BitsetMode::Auto => {
                if auto_compress(b.len(), b.count_ones()) {
                    RowSet::Compressed(CompressedBitmap::from_bitset(&b))
                } else {
                    RowSet::Dense(b)
                }
            }
        }
    }

    /// Builds from ascending row indices under the active [`mode`].
    pub fn from_sorted_indices(len: usize, indices: &[usize]) -> RowSet {
        match mode() {
            BitsetMode::Dense => RowSet::Dense(Bitset::from_indices(len, indices.iter().copied())),
            BitsetMode::Compressed => RowSet::Compressed(CompressedBitmap::from_sorted_indices(
                len,
                indices.iter().copied(),
            )),
            BitsetMode::Auto => {
                if auto_compress(len, indices.len()) {
                    RowSet::Compressed(CompressedBitmap::from_sorted_indices(
                        len,
                        indices.iter().copied(),
                    ))
                } else {
                    RowSet::Dense(Bitset::from_indices(len, indices.iter().copied()))
                }
            }
        }
    }

    /// An all-clear dense scratch row set (the shape `intersect_into`
    /// recycles without allocating on the dense path).
    pub fn new_scratch(len: usize) -> RowSet {
        RowSet::Dense(Bitset::new(len))
    }

    /// Number of addressable rows.
    pub fn len(&self) -> usize {
        match self {
            RowSet::Dense(b) => b.len(),
            RowSet::Compressed(c) => c.len(),
        }
    }

    /// `true` if no row is set.
    pub fn is_empty(&self) -> bool {
        match self {
            RowSet::Dense(b) => b.is_empty(),
            RowSet::Compressed(c) => c.is_empty(),
        }
    }

    /// Number of set rows.
    pub fn count_ones(&self) -> usize {
        match self {
            RowSet::Dense(b) => b.count_ones(),
            RowSet::Compressed(c) => c.count_ones(),
        }
    }

    /// Membership test.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn contains(&self, i: usize) -> bool {
        match self {
            RowSet::Dense(b) => b.get(i),
            RowSet::Compressed(c) => c.contains(i),
        }
    }

    /// Expands into a dense bitset (cloning when already dense).
    pub fn to_bitset(&self) -> Bitset {
        match self {
            RowSet::Dense(b) => b.clone(),
            RowSet::Compressed(c) => c.to_bitset(),
        }
    }

    /// `|self ∩ other|` across any representation pairing.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn intersection_count(&self, other: &RowSet) -> usize {
        match (self, other) {
            (RowSet::Dense(a), RowSet::Dense(b)) => a.intersection_count(b),
            (RowSet::Dense(d), RowSet::Compressed(c))
            | (RowSet::Compressed(c), RowSet::Dense(d)) => c.intersection_count_dense(d),
            (RowSet::Compressed(a), RowSet::Compressed(b)) => a.intersection_count(b),
        }
    }

    /// `(|self ∩ other|, |self ∪ other|)`. Dense×dense uses the fused
    /// kernel; mixed/compressed pairings derive the union from
    /// `|A| + |B| − |A∩B|` (cardinalities are cached on compressed sets).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn intersection_union_count(&self, other: &RowSet) -> (usize, usize) {
        match (self, other) {
            (RowSet::Dense(a), RowSet::Dense(b)) => a.intersection_union_count(b),
            _ => {
                let inter = self.intersection_count(other);
                (inter, self.count_ones() + other.count_ones() - inter)
            }
        }
    }

    /// `|self ∪ other|`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn union_count(&self, other: &RowSet) -> usize {
        self.intersection_union_count(other).1
    }

    /// `|self \ other|`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn difference_count(&self, other: &RowSet) -> usize {
        match (self, other) {
            (RowSet::Dense(a), RowSet::Dense(b)) => a.difference_count(b),
            _ => self.count_ones() - self.intersection_count(other),
        }
    }

    /// `true` iff every set row of `self` is also set in `other`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn is_subset_of(&self, other: &RowSet) -> bool {
        match (self, other) {
            (RowSet::Dense(a), RowSet::Dense(b)) => a.is_subset_of(b),
            _ => self.intersection_count(other) == self.count_ones(),
        }
    }

    /// `true` iff `self` and the dense mask share a row. The dense path
    /// stops at the first 4-word block that shares one.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn intersects(&self, dense: &Bitset) -> bool {
        match self {
            RowSet::Dense(b) => b.intersection_count_at_least(dense, 1),
            RowSet::Compressed(c) => c.intersection_count_dense(dense) > 0,
        }
    }

    /// Jaccard similarity `|A∩B| / |A∪B|`, `0.0` when both are empty —
    /// Eq. 9's set-overlap factor over either representation.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn jaccard(&self, other: &RowSet) -> f64 {
        let (inter, union) = self.intersection_union_count(other);
        if union == 0 {
            return 0.0;
        }
        inter as f64 / union as f64
    }

    /// Writes `self ∩ other` into `out`, returning the resulting
    /// cardinality. On the dense×dense path with a dense `out` of the same
    /// length this is strictly allocation-free (copy + fused in-place
    /// intersection); other pairings rebuild `out`'s containers, whose size
    /// is bounded by the (small) result cardinality.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn intersect_into(&self, other: &RowSet, out: &mut RowSet) -> usize {
        match (self, other) {
            (RowSet::Dense(a), RowSet::Dense(b)) => match out {
                RowSet::Dense(o) if o.len() == a.len() => {
                    o.copy_from(a);
                    o.intersect_with_count(b)
                }
                _ => {
                    let mut o = a.clone();
                    let n = o.intersect_with_count(b);
                    *out = RowSet::Dense(o);
                    n
                }
            },
            (RowSet::Compressed(c), RowSet::Dense(d))
            | (RowSet::Dense(d), RowSet::Compressed(c)) => {
                let r = c.and_dense(d);
                let n = r.count_ones();
                *out = RowSet::Compressed(r);
                n
            }
            (RowSet::Compressed(a), RowSet::Compressed(b)) => {
                let r = a.and(b);
                let n = r.count_ones();
                *out = RowSet::Compressed(r);
                n
            }
        }
    }

    /// `self ∩ other` as a new row set.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn and(&self, other: &RowSet) -> RowSet {
        match (self, other) {
            (RowSet::Dense(a), RowSet::Dense(b)) => {
                let mut o = a.clone();
                o.intersect_with(b);
                RowSet::Dense(o)
            }
            (RowSet::Compressed(c), RowSet::Dense(d))
            | (RowSet::Dense(d), RowSet::Compressed(c)) => RowSet::Compressed(c.and_dense(d)),
            (RowSet::Compressed(a), RowSet::Compressed(b)) => RowSet::Compressed(a.and(b)),
        }
    }

    /// `|self ∩ masks[j]|` for every mask. When everything is dense this is
    /// the cache-blocked [`Bitset::batch_intersection_counts`] sweep; any
    /// compressed operand falls back to per-pair counting (compressed
    /// intersections only touch non-empty chunks, so they are already
    /// bandwidth-proportional to the data that exists).
    ///
    /// # Panics
    /// Panics if any mask length differs.
    pub fn batch_intersection_counts(&self, masks: &[RowSet]) -> Vec<usize> {
        if let RowSet::Dense(probe) = self {
            if masks.iter().all(|m| matches!(m, RowSet::Dense(_))) {
                let dense: Vec<&Bitset> = masks
                    .iter()
                    .map(|m| match m {
                        RowSet::Dense(b) => b,
                        RowSet::Compressed(_) => unreachable!(),
                    })
                    .collect();
                // Mirror the Bitset tile sweep over borrowed masks.
                return batch_dense(probe, &dense);
            }
        }
        masks.iter().map(|m| self.intersection_count(m)).collect()
    }

    /// Iterates over set row indices in ascending order.
    pub fn iter_ones(&self) -> RowSetOnes<'_> {
        match self {
            RowSet::Dense(b) => RowSetOnes::Dense(b.iter_ones()),
            RowSet::Compressed(c) => RowSetOnes::Compressed(c.iter_ones()),
        }
    }

    /// `true` when this row set uses the compressed representation.
    pub fn is_compressed(&self) -> bool {
        matches!(self, RowSet::Compressed(_))
    }
}

/// Cache-blocked one-vs-many sweep over borrowed dense masks (see
/// [`Bitset::batch_intersection_counts`]).
fn batch_dense(probe: &Bitset, masks: &[&Bitset]) -> Vec<usize> {
    let pb = probe.blocks();
    let mut counts = vec![0usize; masks.len()];
    let mut start = 0usize;
    while start < pb.len() {
        let end = (start + crate::bitset::TILE_WORDS).min(pb.len());
        let tile = &pb[start..end];
        for (j, m) in masks.iter().enumerate() {
            assert_eq!(
                probe.len(),
                m.len(),
                "bitset length mismatch: {} vs {}",
                probe.len(),
                m.len()
            );
            counts[j] += kernels::and_count(tile, &m.blocks()[start..end]);
        }
        start = end;
    }
    counts
}

/// Ascending set-row iterator over either [`RowSet`] representation.
pub enum RowSetOnes<'a> {
    /// Dense block iterator.
    Dense(crate::bitset::Ones<'a>),
    /// Compressed chunk iterator.
    Compressed(CompressedOnes<'a>),
}

impl Iterator for RowSetOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            RowSetOnes::Dense(it) => it.next(),
            RowSetOnes::Compressed(it) => it.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(len: usize, step: usize) -> Vec<usize> {
        (0..len).step_by(step).collect()
    }

    fn cb(len: usize, idx: &[usize]) -> CompressedBitmap {
        CompressedBitmap::from_sorted_indices(len, idx.iter().copied())
    }

    #[test]
    fn roundtrip_via_bitset() {
        let len = 3 * CHUNK_BITS + 1234;
        let idx = sparse(len, 97);
        let dense = Bitset::from_indices(len, idx.iter().copied());
        let c = CompressedBitmap::from_bitset(&dense);
        assert_eq!(c.count_ones(), idx.len());
        assert_eq!(c.to_bitset(), dense);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), idx);
        let c2 = cb(len, &idx);
        assert_eq!(c, c2);
    }

    #[test]
    fn container_boundary_at_array_max() {
        // Exactly ARRAY_MAX bits in one chunk → array; one more → bitmap.
        let at: Vec<usize> = (0..ARRAY_MAX).collect();
        let c = cb(CHUNK_BITS, &at);
        assert_eq!(c.container_summary(), vec![(0, false, ARRAY_MAX)]);
        let over: Vec<usize> = (0..ARRAY_MAX + 1).collect();
        let c = cb(CHUNK_BITS, &over);
        assert_eq!(c.container_summary(), vec![(0, true, ARRAY_MAX + 1)]);
        // from_bitset agrees with from_sorted_indices on the boundary
        let d = Bitset::from_indices(CHUNK_BITS, over.iter().copied());
        assert_eq!(
            CompressedBitmap::from_bitset(&d).container_summary(),
            vec![(0, true, ARRAY_MAX + 1)]
        );
    }

    #[test]
    fn and_renormalises_bitmap_results() {
        // Two bitmap containers whose intersection is small → array result.
        let a: Vec<usize> = (0..2 * ARRAY_MAX).collect();
        let b: Vec<usize> = (2 * ARRAY_MAX - 10..3 * ARRAY_MAX).collect();
        let (ca, cbm) = (cb(CHUNK_BITS, &a), cb(CHUNK_BITS, &b));
        assert!(ca.container_summary()[0].1 && cbm.container_summary()[0].1);
        let inter = ca.and(&cbm);
        assert_eq!(inter.count_ones(), 10);
        assert_eq!(inter.container_summary(), vec![(0, false, 10)]);
        assert_eq!(ca.intersection_count(&cbm), 10);
    }

    #[test]
    fn cross_representation_counts_agree() {
        let len = 2 * CHUNK_BITS + 555;
        let ia = sparse(len, 3);
        let ib: Vec<usize> = (0..len).filter(|i| i % 5 == 0 || i % 7 == 2).collect();
        let (da, db) = (
            Bitset::from_indices(len, ia.iter().copied()),
            Bitset::from_indices(len, ib.iter().copied()),
        );
        let (ca, cbm) = (cb(len, &ia), cb(len, &ib));
        let expect = da.intersection_count(&db);
        assert_eq!(ca.intersection_count(&cbm), expect);
        assert_eq!(ca.intersection_count_dense(&db), expect);
        assert_eq!(cbm.intersection_count_dense(&da), expect);
        assert_eq!(ca.and(&cbm).count_ones(), expect);
        assert_eq!(ca.and_dense(&db).count_ones(), expect);
        let mut d = da.clone();
        assert_eq!(cbm.and_into_dense(&mut d), expect);
        assert_eq!(d.count_ones(), expect);
        assert_eq!(d, ca.and(&cbm).to_bitset());
    }

    #[test]
    fn rowset_kernels_cover_all_pairings() {
        let len = CHUNK_BITS + 321;
        let ia = sparse(len, 11);
        let ib = sparse(len, 4);
        let variants = |idx: &[usize]| {
            vec![
                RowSet::Dense(Bitset::from_indices(len, idx.iter().copied())),
                RowSet::Compressed(cb(len, idx)),
            ]
        };
        let da = Bitset::from_indices(len, ia.iter().copied());
        let db = Bitset::from_indices(len, ib.iter().copied());
        let (ei, eu) = da.intersection_union_count(&db);
        for a in variants(&ia) {
            for b in variants(&ib) {
                assert_eq!(a.intersection_count(&b), ei);
                assert_eq!(a.intersection_union_count(&b), (ei, eu));
                assert_eq!(a.union_count(&b), eu);
                assert_eq!(a.difference_count(&b), da.difference_count(&db));
                assert_eq!(a.jaccard(&b), da.jaccard(&db));
                assert!(!a.is_subset_of(&b));
                assert_eq!(a.and(&b).iter_ones().collect::<Vec<_>>(), {
                    let mut x = da.clone();
                    x.intersect_with(&db);
                    x.iter_ones().collect::<Vec<_>>()
                });
                let mut out = RowSet::new_scratch(len);
                assert_eq!(a.intersect_into(&b, &mut out), ei);
                assert_eq!(out.count_ones(), ei);
                assert_eq!(
                    a.batch_intersection_counts(std::slice::from_ref(&b)),
                    vec![ei]
                );
            }
        }
    }

    #[test]
    fn intersects_finds_a_lone_shared_row() {
        let len = CHUNK_BITS + 321;
        let evens = sparse(len, 2);
        let odds = Bitset::from_indices(len, (1..len).step_by(2));
        let mut last = odds.clone();
        last.set(len - 1); // even, and in the dense kernel's remainder words
        for a in [
            RowSet::Dense(Bitset::from_indices(len, evens.iter().copied())),
            RowSet::Compressed(cb(len, &evens)),
        ] {
            assert!(!a.intersects(&odds));
            assert!(a.intersects(&last));
        }
    }

    #[test]
    fn mode_override_and_auto_rule() {
        set_mode_override(Some(BitsetMode::Dense));
        assert!(!RowSet::from_sorted_indices(100_000, &[5]).is_compressed());
        set_mode_override(Some(BitsetMode::Compressed));
        assert!(RowSet::from_sorted_indices(10, &[5]).is_compressed());
        set_mode_override(Some(BitsetMode::Auto));
        // small universe → dense regardless of density
        assert!(!RowSet::from_sorted_indices(100, &[5]).is_compressed());
        // big sparse → compressed; big dense → dense
        let sparse_idx: Vec<usize> = (0..100_000).step_by(1000).collect();
        assert!(RowSet::from_sorted_indices(100_000, &sparse_idx).is_compressed());
        let dense_idx: Vec<usize> = (0..100_000).step_by(2).collect();
        assert!(!RowSet::from_sorted_indices(100_000, &dense_idx).is_compressed());
        set_mode_override(None);
    }

    #[test]
    fn contains_and_empty() {
        let c = cb(CHUNK_BITS * 2, &[3, CHUNK_BITS + 7]);
        assert!(c.contains(3) && c.contains(CHUNK_BITS + 7));
        assert!(!c.contains(4) && !c.contains(CHUNK_BITS));
        assert!(!c.is_empty());
        assert!(cb(50, &[]).is_empty());
        assert_eq!(cb(50, &[]).count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        cb(10, &[1]).intersection_count(&cb(11, &[1]));
    }
}
