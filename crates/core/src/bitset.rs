//! Dense fixed-capacity bitset used to track covered elements.
//!
//! Coverage tracking is the hottest data structure in every greedy cover
//! algorithm in this crate: each selection updates the covered-element set
//! and each candidate evaluation counts how many of a set's elements are
//! still uncovered. A flat `Vec<u64>` with popcount gives both operations
//! in a handful of instructions per 64 elements.

use std::fmt;

const WORD_BITS: usize = 64;

/// Words per block in the blocked popcount kernels: 8 × 64 bits = 512 bits,
/// one cache line on x86-64. Block granularity is what [`BlockSummary`]
/// summarises and what the `_limited` kernels use as their early-exit
/// checkpoint.
const BLOCK_WORDS: usize = 8;

/// Fused word-pair popcount: `Σ popcount(f(a[i], b[i]))`, 4-wide unrolled
/// with independent accumulators so the compiler can autovectorize the
/// `f` + popcount chain without `std::simd`.
#[inline]
fn count_words<F: Fn(u64, u64) -> u64>(a: &[u64], b: &[u64], f: F) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut c0, mut c1, mut c2, mut c3) = (0usize, 0usize, 0usize, 0usize);
    for (wa, wb) in (&mut ca).zip(&mut cb) {
        c0 += f(wa[0], wb[0]).count_ones() as usize;
        c1 += f(wa[1], wb[1]).count_ones() as usize;
        c2 += f(wa[2], wb[2]).count_ones() as usize;
        c3 += f(wa[3], wb[3]).count_ones() as usize;
    }
    let mut rest = 0usize;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        rest += f(*x, *y).count_ones() as usize;
    }
    c0 + c1 + c2 + c3 + rest
}

/// A fixed-capacity set of `usize` ids in `0..len`, stored one bit per id.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    /// Number of addressable bits (ids are `0..len`).
    len: usize,
}

impl BitSet {
    /// Creates an empty bitset able to hold ids `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0u64; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Number of addressable bits (not the number of set bits).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitset has zero capacity.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`. Returns `true` if the bit was previously unset.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let word = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let was_unset = *word & mask == 0;
        *word |= mask;
        was_unset
    }

    /// Clears bit `i`. Returns `true` if the bit was previously set.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let word = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let was_set = *word & mask != 0;
        *word &= !mask;
        was_set
    }

    /// Returns whether bit `i` is set.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// [`contains`](BitSet::contains) minus the release-mode range assert,
    /// for hot scan loops whose ids were validated against the universe
    /// once up front. Debug builds still panic on out-of-range ids; the
    /// public `contains`/`insert` keep their unconditional panicking
    /// contract.
    #[inline]
    pub(crate) fn contains_hot(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 != 0
    }

    /// [`insert`](BitSet::insert) minus the release-mode range assert —
    /// same contract as [`contains_hot`](BitSet::contains_hot).
    #[inline]
    pub(crate) fn insert_hot(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let word = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let was_unset = *word & mask == 0;
        *word |= mask;
        was_unset
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears every bit, keeping capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Sets every bit in `0..len`.
    pub fn fill(&mut self) {
        self.words.fill(!0u64);
        self.mask_tail();
    }

    /// Zeroes the bits beyond `len` in the last word so popcounts stay exact.
    fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// `self |= other`.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// `self &= other`.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// `self &= !other` (set difference).
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// `|self ∩ other|` without materializing the intersection.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        count_words(&self.words, &other.words, |a, b| a & b)
    }

    /// `|self \ other|` without materializing the difference.
    ///
    /// The greedy hot loop previously cloned a bitset and applied
    /// [`BitSet::difference_with`] just to count the survivors; this fuses
    /// the subtraction and the popcount into one pass with no temporary
    /// allocation.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn difference_count(&self, other: &BitSet) -> usize {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        count_words(&self.words, &other.words, |a, b| a & !b)
    }

    /// `|self \ other|` with an early-exit threshold: aborts block by
    /// block as soon as the running count plus `summary`'s remaining
    /// set-bit suffix proves the result is `< threshold`.
    ///
    /// `summary` must be [`BlockSummary::of`] **this** bitset (the
    /// left-hand side): since `|self \ other|` over any word range is at
    /// most `self`'s set bits in that range, the suffix is a valid upper
    /// bound on the remaining contribution. Empty `self` blocks are
    /// skipped outright and trailing empty blocks end the scan, so the
    /// full-scan case is never slower than
    /// [`difference_count`](Self::difference_count).
    ///
    /// A `threshold` of 0 disables the exit and always returns
    /// [`LimitedCount::Exact`].
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn difference_count_limited(
        &self,
        other: &BitSet,
        summary: &BlockSummary,
        threshold: usize,
    ) -> LimitedCount {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        debug_assert_eq!(
            summary.counts.len(),
            self.words.len().div_ceil(BLOCK_WORDS),
            "summary does not describe this bitset"
        );
        let mut count = 0usize;
        let pairs = self
            .words
            .chunks(BLOCK_WORDS)
            .zip(other.words.chunks(BLOCK_WORDS));
        for (j, (wa, wb)) in pairs.enumerate() {
            if summary.block_count(j) != 0 {
                count += count_words(wa, wb, |a, b| a & !b);
            }
            let remaining = summary.after(j);
            if remaining == 0 {
                return LimitedCount::Exact(count);
            }
            if count + remaining < threshold {
                // The caller only learns "provably short", so resolve
                // zero-vs-nonzero exactly: the first surviving word ends
                // the probe.
                let from = (j + 1) * BLOCK_WORDS;
                let nonzero = count > 0
                    || self.words[from..]
                        .iter()
                        .zip(&other.words[from..])
                        .any(|(a, b)| a & !b != 0);
                return LimitedCount::Short { nonzero };
            }
        }
        LimitedCount::Exact(count)
    }

    /// Read-only view of the backing words (bit `i` lives at
    /// `words()[i / 64] >> (i % 64) & 1`). Bits beyond
    /// [`len`](BitSet::len) in the last word are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Counts ids in `ids` whose bit is **not** set in `self`.
    ///
    /// This is the marginal-benefit primitive: with `self` = covered
    /// elements and `ids` = a set's element list, the result is
    /// `|MBen(s, S)|` from the paper.
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn count_unset<I>(&self, ids: I) -> usize
    where
        I: IntoIterator,
        I::Item: Into<usize>,
    {
        ids.into_iter()
            .map(Into::into)
            .filter(|&i| !self.contains(i))
            .count()
    }

    /// [`count_unset`](BitSet::count_unset) over a sorted id list, with
    /// the early exit of
    /// [`difference_count_limited`](BitSet::difference_count_limited):
    /// the result is exactly what that kernel returns for the mask of
    /// `ids` (and its [`BlockSummary`]) against `self`, at `O(ids.len())`
    /// instead of `O(len / 64)` and with no mask to build — the cheaper
    /// form for short lists.
    ///
    /// # Panics
    /// Panics if any id is out of range. `ids` must be sorted ascending
    /// without duplicates.
    pub fn count_unset_limited(&self, ids: &[u32], threshold: usize) -> LimitedCount {
        const BLOCK_BITS: usize = BLOCK_WORDS * WORD_BITS;
        let unset = |ids: &[u32]| ids.iter().filter(|&&i| !self.contains(i as usize)).count();
        // The kernel checks its exit after block 0 and after every block
        // holding ids; between those neither the count nor the suffix of
        // remaining ids changes.
        let (mut count, mut rest, mut block) = (0, ids, 0);
        loop {
            let end = rest.partition_point(|&i| i as usize / BLOCK_BITS <= block);
            count += unset(&rest[..end]);
            rest = &rest[end..];
            match rest.first() {
                None => return LimitedCount::Exact(count),
                Some(_) if count + rest.len() < threshold => {
                    let nonzero = count > 0 || rest.iter().any(|&i| !self.contains(i as usize));
                    return LimitedCount::Short { nonzero };
                }
                Some(&next) => block = next as usize / BLOCK_BITS,
            }
        }
    }

    /// Iterates over set bit indices in increasing order.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Returns the set bits as a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter_ones().collect()
    }
}

/// Per-block set-bit summary of one [`BitSet`]: the coarse "sketch" the
/// pruned scan consults before (or instead of) an exact masked count.
///
/// `counts[j]` is the popcount of block `j` (`BLOCK_WORDS` words);
/// `suffix[j]` is the popcount of blocks `j..`. Both are upper bounds on
/// any masked count restricted to those blocks, which is what makes the
/// `_limited` kernels' early exit sound.
#[derive(Clone, Debug, Default)]
pub struct BlockSummary {
    counts: Vec<u32>,
    /// `suffix.len() == counts.len() + 1`; the extra trailing 0 lets the
    /// kernels ask "bits after block j" without a branch.
    suffix: Vec<u32>,
}

impl BlockSummary {
    /// Builds the summary of `set`'s current contents.
    pub fn of(set: &BitSet) -> BlockSummary {
        let mut s = BlockSummary::default();
        s.rebuild(set);
        s
    }

    /// Recomputes the summary in place (capacity may differ from the
    /// previous build).
    pub fn rebuild(&mut self, set: &BitSet) {
        let blocks = set.words.len().div_ceil(BLOCK_WORDS);
        self.counts.clear();
        self.counts.reserve(blocks);
        for block in set.words.chunks(BLOCK_WORDS) {
            self.counts.push(block.iter().map(|w| w.count_ones()).sum());
        }
        self.suffix.clear();
        self.suffix.resize(blocks + 1, 0);
        for j in (0..blocks).rev() {
            self.suffix[j] = self.suffix[j + 1] + self.counts[j];
        }
    }

    /// Total set bits of the summarized set (at build time).
    #[inline]
    pub fn total(&self) -> usize {
        self.suffix.first().copied().unwrap_or(0) as usize
    }

    /// Set bits strictly after block `j`.
    #[inline]
    fn after(&self, j: usize) -> usize {
        self.suffix[j + 1] as usize
    }

    /// Set bits inside block `j`.
    #[inline]
    fn block_count(&self, j: usize) -> usize {
        self.counts[j] as usize
    }
}

/// Outcome of a `_limited` masked count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LimitedCount {
    /// The kernel ran to completion (or hit a provably-empty suffix);
    /// this is the exact count.
    Exact(usize),
    /// The kernel aborted early: the count is provably below the
    /// threshold. `nonzero` reports — exactly — whether the full count
    /// is at least 1, so callers can distinguish "worthless now" from
    /// "exhausted" without a second pass.
    Short {
        /// Whether the aborted count would have been `>= 1`.
        nonzero: bool,
    },
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter_ones()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a bitset sized to the largest id + 1.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let ids: Vec<usize> = iter.into_iter().collect();
        let len = ids.iter().max().map_or(0, |m| m + 1);
        let mut set = BitSet::new(len);
        for i in ids {
            set.insert(i);
        }
        set
    }
}

/// Iterator over set bit indices of a [`BitSet`].
pub struct Ones<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * WORD_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let b = BitSet::new(100);
        assert_eq!(b.len(), 100);
        assert_eq!(b.count_ones(), 0);
        assert!(!b.contains(0));
        assert!(!b.contains(99));
    }

    #[test]
    fn insert_remove_contains() {
        let mut b = BitSet::new(130);
        assert!(b.insert(0));
        assert!(b.insert(64));
        assert!(b.insert(129));
        assert!(!b.insert(64), "second insert reports already-set");
        assert!(b.contains(0) && b.contains(64) && b.contains(129));
        assert_eq!(b.count_ones(), 3);
        assert!(b.remove(64));
        assert!(!b.remove(64));
        assert!(!b.contains(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut b = BitSet::new(10);
        b.insert(10);
    }

    #[test]
    fn fill_respects_len() {
        let mut b = BitSet::new(70);
        b.fill();
        assert_eq!(b.count_ones(), 70);
        b.clear();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn fill_exact_word_boundary() {
        let mut b = BitSet::new(128);
        b.fill();
        assert_eq!(b.count_ones(), 128);
    }

    #[test]
    fn union_intersect_difference() {
        let mut a = BitSet::new(200);
        let mut b = BitSet::new(200);
        for i in [1usize, 5, 70, 150] {
            a.insert(i);
        }
        for i in [5usize, 70, 199] {
            b.insert(i);
        }
        assert_eq!(a.intersection_count(&b), 2);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 5, 70, 150, 199]);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![5, 70]);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), vec![1, 150]);
    }

    #[test]
    fn difference_count_matches_materialized_difference() {
        let mut a = BitSet::new(200);
        let mut b = BitSet::new(200);
        for i in [1usize, 5, 70, 150, 199] {
            a.insert(i);
        }
        for i in [5usize, 70, 64] {
            b.insert(i);
        }
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(a.difference_count(&b), d.count_ones());
        assert_eq!(a.difference_count(&b), 3);
        assert_eq!(b.difference_count(&a), 1);
        assert_eq!(a.difference_count(&a), 0);
    }

    #[test]
    fn count_unset_is_marginal_benefit() {
        let mut covered = BitSet::new(10);
        covered.insert(2);
        covered.insert(4);
        let members: Vec<u32> = vec![1, 2, 3, 4, 5];
        assert_eq!(covered.count_unset(members.iter().map(|&x| x as usize)), 3);
    }

    #[test]
    fn iter_ones_order_and_boundaries() {
        let mut b = BitSet::new(300);
        let ids = [0usize, 63, 64, 127, 128, 255, 299];
        for &i in &ids {
            b.insert(i);
        }
        assert_eq!(b.to_vec(), ids.to_vec());
    }

    #[test]
    fn from_iter_sizes_to_max() {
        let b: BitSet = [3usize, 9, 1].into_iter().collect();
        assert_eq!(b.len(), 10);
        assert_eq!(b.to_vec(), vec![1, 3, 9]);
    }

    #[test]
    fn empty_capacity() {
        let b = BitSet::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn debug_format_lists_members() {
        let b: BitSet = [2usize, 4].into_iter().collect();
        assert_eq!(format!("{b:?}"), "{2, 4}");
    }

    /// Deterministic pseudo-random bitset (splitmix-style) for kernel
    /// cross-checks without an RNG dependency.
    fn scrambled(len: usize, mut seed: u64, keep_one_in: u64) -> BitSet {
        let mut b = BitSet::new(len);
        for i in 0..len {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (seed >> 33).is_multiple_of(keep_one_in) {
                b.insert(i);
            }
        }
        b
    }

    fn naive_diff(a: &BitSet, b: &BitSet) -> usize {
        a.iter_ones().filter(|&i| !b.contains(i)).count()
    }

    #[test]
    fn blocked_kernels_match_naive_counts() {
        for &len in &[1usize, 63, 64, 65, 255, 256, 512, 513, 4001] {
            for seed in 0..3u64 {
                let a = scrambled(len, seed + 1, 3);
                let b = scrambled(len, seed + 77, 2);
                assert_eq!(a.difference_count(&b), naive_diff(&a, &b));
                assert_eq!(
                    a.intersection_count(&b),
                    a.iter_ones().filter(|&i| b.contains(i)).count()
                );
            }
        }
    }

    #[test]
    fn limited_count_exact_when_threshold_not_binding() {
        let a = scrambled(4001, 5, 3);
        let b = scrambled(4001, 9, 2);
        let summary = BlockSummary::of(&a);
        let exact = a.difference_count(&b);
        // Threshold 0 disables the exit; threshold == exact is reachable.
        assert_eq!(
            a.difference_count_limited(&b, &summary, 0),
            LimitedCount::Exact(exact)
        );
        assert_eq!(
            a.difference_count_limited(&b, &summary, exact),
            LimitedCount::Exact(exact)
        );
    }

    #[test]
    fn limited_count_short_is_sound_and_reports_nonzero() {
        let a = scrambled(4001, 13, 4);
        let b = scrambled(4001, 21, 2);
        let summary = BlockSummary::of(&a);
        let exact = a.difference_count(&b);
        assert!(exact > 0, "fixture must have survivors");
        match a.difference_count_limited(&b, &summary, usize::MAX) {
            LimitedCount::Short { nonzero } => assert!(nonzero),
            LimitedCount::Exact(_) => panic!("unreachable threshold must abort"),
        }
        // Every threshold must either return the exact count or a sound
        // "short" verdict (exact < threshold).
        for threshold in [1, exact / 2, exact, exact + 1, exact * 2 + 1] {
            match a.difference_count_limited(&b, &summary, threshold) {
                LimitedCount::Exact(n) => assert_eq!(n, exact),
                LimitedCount::Short { nonzero } => {
                    assert!(exact < threshold);
                    assert_eq!(nonzero, exact > 0);
                }
            }
        }
    }

    #[test]
    fn limited_count_nonzero_false_only_when_empty_difference() {
        let a = scrambled(1000, 3, 3);
        let mut b = a.clone();
        b.fill();
        let summary = BlockSummary::of(&a);
        match a.difference_count_limited(&b, &summary, usize::MAX) {
            // a \ full = empty; an unreachable threshold may abort or
            // finish at 0 depending on block layout.
            LimitedCount::Short { nonzero } => assert!(!nonzero),
            LimitedCount::Exact(n) => assert_eq!(n, 0),
        }
    }

    #[test]
    fn count_unset_limited_matches_the_mask_kernel() {
        for &len in &[1usize, 511, 512, 513, 1500, 4001] {
            for seed in 0..4u64 {
                let covered = scrambled(len, seed + 101, 2);
                for keep in [1u64, 3, 40, 700] {
                    let mask = scrambled(len, seed * 7 + keep, keep);
                    let ids: Vec<u32> = mask.iter_ones().map(|i| i as u32).collect();
                    let summary = BlockSummary::of(&mask);
                    let exact = mask.difference_count(&covered);
                    for threshold in [0, 1, 2, exact / 2, exact, exact + 1, ids.len() + 1] {
                        assert_eq!(
                            covered.count_unset_limited(&ids, threshold),
                            mask.difference_count_limited(&covered, &summary, threshold),
                            "len {len} seed {seed} keep {keep} threshold {threshold}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn block_summary_totals_and_rebuild() {
        let a = scrambled(4001, 31, 3);
        let mut s = BlockSummary::of(&a);
        assert_eq!(s.total(), a.count_ones());
        let smaller = scrambled(100, 7, 2);
        s.rebuild(&smaller);
        assert_eq!(s.total(), smaller.count_ones());
    }

    #[test]
    fn words_view_exposes_tail_invariant() {
        let mut b = BitSet::new(70);
        b.fill();
        assert_eq!(b.words().len(), 2);
        assert_eq!(b.words()[1], (1u64 << 6) - 1, "tail bits stay zero");
    }

    #[test]
    fn hot_accessors_agree_with_checked_ones() {
        let mut b = scrambled(300, 2, 3);
        for i in 0..300 {
            assert_eq!(b.contains_hot(i), b.contains(i));
        }
        b.remove(7);
        assert!(b.insert_hot(7), "hot insert reports previously-unset");
        assert!(!b.insert_hot(7), "hot insert reports already-set");
        assert!(b.contains(7));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range")]
    fn hot_contains_panics_out_of_range_in_debug() {
        let b = BitSet::new(10);
        b.contains_hot(10);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range")]
    fn hot_insert_panics_out_of_range_in_debug() {
        let mut b = BitSet::new(10);
        b.insert_hot(10);
    }
}
