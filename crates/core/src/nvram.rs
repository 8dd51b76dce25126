//! The non-volatile marking memory.
//!
//! AFRAID's only hardware addition over a plain RAID 5: one bit per
//! stripe in NVRAM, set when a write makes the stripe's parity stale
//! and cleared when the scrubber has rebuilt it. "Attempting to
//! re-mark an already-marked stripe does nothing."
//!
//! Paper §5 refinement: with `M` bits per stripe the marking can be
//! kept per *sub-row* — horizontal slices of the stripe 1/M of a
//! stripe unit tall — so the scrubber only reads the dirty fraction of
//! each unit when a small write touched a small part of the stripe.
//! [`MarkingMemory`] implements general `M >= 1`
//! ([`MarkGranularity`]); the baseline design is `M = 1`.
//!
//! The parity lag — the data bytes whose parity is stale, the input to
//! the paper's MDLR equation — is read from this memory: each marked
//! row stands for `1/M` of every data unit of its stripe, so the lag
//! is [`MarkingMemory::dirty_rows`] times the data bytes of one row.
//!
//! The marked stripes are indexed by the bitmap the paper describes, a
//! [`StripeSet`]: one bit per stripe, plus one summary bit per 64-bit
//! word of it, so the scrubber's sweep and power-on recovery skip
//! clean regions a word (64 stripes) or a summary word (4,096 stripes)
//! at a time, even at the paper array's 256 K stripes. Marking and
//! clearing are bit flips, and an NVRAM failure is a flat fill. The
//! index is an implementation structure: [`MarkingMemory::memory_bytes`]
//! prices the `M` bits per stripe alone, as before. At `M = 1` the
//! bitmap is the whole memory, a stripe's mask its bit; the per-stripe
//! row masks are kept only at `M > 1`.

use serde::{Deserialize, Serialize};

/// Number of marking bits per stripe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarkGranularity(u32);

impl MarkGranularity {
    /// The baseline: one bit per stripe.
    pub const STRIPE: MarkGranularity = MarkGranularity(1);

    /// `m` bits per stripe, each covering a horizontal 1/m slice of
    /// every unit in the stripe.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= m <= 64` (rows are stored as a u64 mask).
    pub fn rows(m: u32) -> MarkGranularity {
        assert!((1..=64).contains(&m), "granularity must be 1..=64, got {m}");
        MarkGranularity(m)
    }

    /// Bits per stripe.
    pub fn bits(self) -> u32 {
        self.0
    }
}

/// A set of stripes as a bitmap: one bit per stripe, plus one summary
/// bit per 64-bit word of bits, set exactly when that word is non-zero.
/// Iteration runs in stripe order and skips empty words through the
/// summary, so it costs what the set holds, not what the array spans.
///
/// # Examples
///
/// ```
/// use afraid::nvram::StripeSet;
///
/// let mut set = StripeSet::new(5000);
/// set.insert(4097);
/// set.insert(3);
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 4097]);
/// assert_eq!(set.iter_from(4).collect::<Vec<_>>(), vec![4097]);
/// set.remove(3);
/// assert_eq!(set.len(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripeSet {
    /// Bit `s % 64` of word `s / 64` is set iff stripe `s` is present.
    bits: Vec<u64>,
    /// Bit `w % 64` of word `w / 64` is set iff `bits[w]` is non-zero.
    summary: Vec<u64>,
    /// Stripes present.
    len: u64,
    /// Stripes the set spans.
    stripes: u64,
}

impl StripeSet {
    /// An empty set over `stripes` stripes.
    pub fn new(stripes: u64) -> StripeSet {
        let words = stripes.div_ceil(64);
        StripeSet {
            bits: vec![0; words as usize],
            summary: vec![0; words.div_ceil(64) as usize],
            len: 0,
            stripes,
        }
    }

    /// Number of stripes present.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Stripes the set spans.
    pub fn span(&self) -> u64 {
        self.stripes
    }

    /// True if no stripe is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `stripe` is present; a stripe beyond the span never is.
    pub fn contains(&self, stripe: u64) -> bool {
        self.bits
            .get((stripe / 64) as usize)
            .is_some_and(|word| word & (1 << (stripe % 64)) != 0)
    }

    /// Adds `stripe`; adding a present stripe does nothing.
    ///
    /// # Panics
    ///
    /// Panics if `stripe` is beyond the set's span.
    pub fn insert(&mut self, stripe: u64) {
        assert!(stripe < self.stripes, "stripe {stripe} out of range");
        let w = (stripe / 64) as usize;
        let bit = 1 << (stripe % 64);
        if self.bits[w] & bit == 0 {
            self.bits[w] |= bit;
            self.summary[w / 64] |= 1 << (w % 64);
            self.len += 1;
        }
    }

    /// Removes `stripe`; removing an absent stripe does nothing.
    pub fn remove(&mut self, stripe: u64) {
        if !self.contains(stripe) {
            return;
        }
        let w = (stripe / 64) as usize;
        self.bits[w] &= !(1 << (stripe % 64));
        if self.bits[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        self.len -= 1;
    }

    /// Adds every stripe of the span.
    pub fn fill(&mut self) {
        fill_bits(&mut self.bits, self.stripes);
        fill_bits(&mut self.summary, self.bits.len() as u64);
        self.len = self.stripes;
    }

    /// The present stripes, in stripe order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter_from(0)
    }

    /// The present stripes at or after `from`, in stripe order.
    pub fn iter_from(&self, from: u64) -> impl Iterator<Item = u64> + '_ {
        let mut next = from;
        std::iter::from_fn(move || {
            let stripe = self.first_from(next)?;
            next = stripe + 1;
            Some(stripe)
        })
    }

    /// The lowest present stripe at or after `from`.
    fn first_from(&self, from: u64) -> Option<u64> {
        let w = (from / 64) as usize;
        let word = self.bits.get(w)? & (u64::MAX << (from % 64));
        if word != 0 {
            return Some(w as u64 * 64 + u64::from(word.trailing_zeros()));
        }
        // The summary names the next non-empty word outright.
        let w = self.first_word_from(w + 1)?;
        let word = self.bits[w];
        debug_assert_ne!(word, 0, "summary bit {w} over an empty word");
        Some(w as u64 * 64 + u64::from(word.trailing_zeros()))
    }

    /// The lowest index at or after `from` of a non-empty word of bits.
    fn first_word_from(&self, from: usize) -> Option<usize> {
        let mut s = from / 64;
        let mut word = self.summary.get(s)? & (u64::MAX << (from % 64));
        while word == 0 {
            s += 1;
            word = *self.summary.get(s)?;
        }
        Some(s * 64 + word.trailing_zeros() as usize)
    }
}

/// Sets the low `n` bits of `words` and clears the rest.
fn fill_bits(words: &mut [u64], n: u64) {
    for (i, word) in words.iter_mut().enumerate() {
        let below = n.saturating_sub(i as u64 * 64);
        *word = if below >= 64 {
            u64::MAX
        } else {
            (1 << below) - 1
        };
    }
}

/// The dirty-stripe bitmap.
///
/// # Examples
///
/// ```
/// use afraid::nvram::{MarkGranularity, MarkingMemory};
///
/// let mut m = MarkingMemory::new(100, MarkGranularity::STRIPE);
/// m.mark(7);
/// assert!(m.is_marked(7));
/// assert_eq!(m.marked_count(), 1);
/// m.clear(7);
/// assert!(!m.is_marked(7));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarkingMemory {
    /// Per-stripe row masks at `M > 1`; non-zero = stripe unredundant.
    /// Empty at `M = 1`, where a stripe's mask is its bit in `marked`.
    rows: Vec<u64>,
    granularity: MarkGranularity,
    /// Set bits across all masks.
    dirty_rows: u64,
    /// The stripes with a non-zero mask, as the paper's bitmap.
    marked: StripeSet,
    /// True after a simulated NVRAM failure: contents untrusted.
    failed: bool,
}

impl MarkingMemory {
    /// Creates a clean marking memory for `stripes` stripes.
    pub fn new(stripes: u64, granularity: MarkGranularity) -> MarkingMemory {
        MarkingMemory {
            rows: if granularity == MarkGranularity::STRIPE {
                Vec::new()
            } else {
                vec![0; stripes as usize]
            },
            granularity,
            dirty_rows: 0,
            marked: StripeSet::new(stripes),
            failed: false,
        }
    }

    /// Marking granularity.
    pub fn granularity(&self) -> MarkGranularity {
        self.granularity
    }

    /// Number of stripes tracked.
    pub fn stripes(&self) -> u64 {
        self.marked.span()
    }

    /// NVRAM cost in bytes: `stripes * M` bits, rounded up. The paper's
    /// example — 5 disks, 8 KB units, 2 GB disks — costs ~32 KB per
    /// array at `M = 1`.
    pub fn memory_bytes(&self) -> u64 {
        (self.stripes() * u64::from(self.granularity.bits())).div_ceil(8)
    }

    /// Marks the sub-rows of `stripe` covered by the byte range
    /// `[row_from_byte, row_to_byte)` *within a stripe unit* of
    /// `unit_bytes`. For `M = 1` any write marks the single bit.
    ///
    /// Re-marking is a no-op, as the paper specifies.
    ///
    /// # Panics
    ///
    /// Panics if `stripe` is out of range or the byte range is empty
    /// or reversed.
    pub fn mark_rows(
        &mut self,
        stripe: u64,
        unit_bytes: u64,
        row_from_byte: u64,
        row_to_byte: u64,
    ) {
        assert!(row_from_byte < row_to_byte, "empty mark range");
        assert!(row_to_byte <= unit_bytes, "mark range beyond unit");
        let m = u64::from(self.granularity.bits());
        let row_h = unit_bytes.div_ceil(m);
        let first = row_from_byte / row_h;
        let last = (row_to_byte - 1) / row_h;
        let mut mask = 0u64;
        for r in first..=last {
            mask |= 1 << r;
        }
        self.mark_mask(stripe, mask);
    }

    /// Marks `stripe` entirely (all rows).
    pub fn mark(&mut self, stripe: u64) {
        self.mark_mask(stripe, self.full_mask());
    }

    /// Every row of a stripe.
    fn full_mask(&self) -> u64 {
        u64::MAX >> (64 - self.granularity.bits())
    }

    fn mark_mask(&mut self, stripe: u64, mask: u64) {
        let old = self.row_mask(stripe);
        if old == 0 && mask != 0 {
            self.marked.insert(stripe);
        }
        self.dirty_rows += u64::from((mask & !old).count_ones());
        if let Some(slot) = self.rows.get_mut(stripe as usize) {
            *slot |= mask;
        }
    }

    /// The dirty row mask of a stripe (0 = fully redundant).
    ///
    /// # Panics
    ///
    /// Panics if `stripe` is out of range.
    pub fn row_mask(&self, stripe: u64) -> u64 {
        if self.granularity == MarkGranularity::STRIPE {
            assert!(stripe < self.stripes(), "stripe {stripe} out of range");
            u64::from(self.marked.contains(stripe))
        } else {
            self.rows[stripe as usize]
        }
    }

    /// True if the stripe has stale parity.
    ///
    /// # Panics
    ///
    /// Panics if `stripe` is out of range.
    pub fn is_marked(&self, stripe: u64) -> bool {
        self.row_mask(stripe) != 0
    }

    /// Clears a stripe after its parity has been rebuilt.
    pub fn clear(&mut self, stripe: u64) {
        let old = self.row_mask(stripe);
        if old != 0 {
            self.dirty_rows -= u64::from(old.count_ones());
            self.marked.remove(stripe);
            if let Some(slot) = self.rows.get_mut(stripe as usize) {
                *slot = 0;
            }
        }
    }

    /// Clears every stripe, as recovery does once it has rebuilt or
    /// declared them all; a failed memory stays failed.
    pub fn clear_all(&mut self) {
        self.rows.fill(0);
        self.dirty_rows = 0;
        self.marked = StripeSet::new(self.stripes());
    }

    /// Number of unredundant stripes.
    pub fn marked_count(&self) -> u64 {
        self.marked.len()
    }

    /// Number of marked rows across all stripes: `M` for each fully
    /// marked stripe.
    pub fn dirty_rows(&self) -> u64 {
        self.dirty_rows
    }

    /// The marked stripes, in stripe order.
    pub fn marked(&self) -> impl Iterator<Item = u64> + '_ {
        self.marked.iter()
    }

    /// Up to `limit` marked stripes in cyclic order starting at
    /// `from` (taken modulo the stripe count). The scrubber uses this
    /// to assemble a batch; the bitmap's summary bits let the query
    /// skip clean regions, and sweeping in disk order is what makes
    /// coalescing adjacent stripes effective.
    pub fn marked_from(&self, from: u64, limit: usize) -> impl Iterator<Item = u64> + '_ {
        let start = from % self.stripes();
        self.marked
            .iter_from(start)
            .chain(self.marked().take_while(move |&s| s < start))
            .take(limit)
    }

    /// The length of the run of consecutive marked stripes starting at
    /// `stripe`, capped at `max`.
    pub fn marked_run(&self, stripe: u64, max: u64) -> u64 {
        let mut len = 0;
        while len < max && self.marked.contains(stripe + len) {
            len += 1;
        }
        len
    }

    /// Simulates an NVRAM failure: contents are lost and every stripe
    /// must be treated as potentially unredundant until a full-array
    /// sweep completes. Marks everything dirty (the conservative
    /// recovery the paper describes);
    /// [`RegionMap::fail_nvram`](crate::regions::RegionMap::fail_nvram)
    /// then unmarks the stripes that keep no parity.
    pub fn fail(&mut self) {
        self.failed = true;
        let mask = self.full_mask();
        self.rows.fill(mask);
        self.dirty_rows = self.stripes() * u64::from(self.granularity.bits());
        self.marked.fill();
    }

    /// True once [`MarkingMemory::fail`] has been invoked.
    pub fn has_failed(&self) -> bool {
        self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_clear_cycle() {
        let mut m = MarkingMemory::new(16, MarkGranularity::STRIPE);
        assert_eq!(m.marked_count(), 0);
        m.mark(3);
        m.mark(7);
        assert!(m.is_marked(3));
        assert!(!m.is_marked(4));
        assert_eq!(m.marked_count(), 2);
        m.clear(3);
        assert_eq!(m.marked_count(), 1);
        assert!(!m.is_marked(3));
    }

    #[test]
    fn remark_is_noop() {
        let mut m = MarkingMemory::new(16, MarkGranularity::STRIPE);
        m.mark(3);
        m.mark(3);
        assert_eq!(m.marked_count(), 1);
        m.clear(3);
        m.clear(3);
        assert_eq!(m.marked_count(), 0);
    }

    #[test]
    fn paper_memory_cost() {
        // "With an array that is 5 disks wide and has a stripe unit
        // size of 8KB, this is ... 3 KB of memory per 1GB of stored
        // data." 1 GB of stored data = 1 GB / (4 * 8 KB) stripes
        // = 32768 stripes = 4 KB of bits -- the paper rounds per
        // 100 KB; we just check the order of magnitude.
        let stripes_per_gb = (1u64 << 30) / (4 * 8192);
        let m = MarkingMemory::new(stripes_per_gb, MarkGranularity::STRIPE);
        let kb = m.memory_bytes() as f64 / 1024.0;
        assert!((2.0..6.0).contains(&kb), "marking memory {kb} KB/GB");
    }

    #[test]
    fn marked_from_wraps_in_cyclic_order() {
        let mut m = MarkingMemory::new(10, MarkGranularity::STRIPE);
        for s in [2, 5, 7] {
            m.mark(s);
        }
        assert_eq!(m.marked_from(0, 10).collect::<Vec<_>>(), vec![2, 5, 7]);
        assert_eq!(m.marked_from(3, 10).collect::<Vec<_>>(), vec![5, 7, 2]);
        // A start past the last mark wraps to the lowest one.
        assert_eq!(m.marked_from(8, 10).collect::<Vec<_>>(), vec![2, 5, 7]);
        // A start at or beyond the stripe count is taken modulo it.
        assert_eq!(m.marked_from(10, 10).collect::<Vec<_>>(), vec![2, 5, 7]);
        assert_eq!(m.marked_from(13, 10).collect::<Vec<_>>(), vec![5, 7, 2]);
        // The limit caps the batch below the dirty count.
        assert_eq!(m.marked_from(6, 2).collect::<Vec<_>>(), vec![7, 2]);
        assert_eq!(m.marked_from(0, 0).count(), 0);
        for s in [2, 5, 7] {
            m.clear(s);
        }
        assert_eq!(m.marked_from(0, 10).count(), 0);
    }

    #[test]
    fn marked_run_counts_adjacent() {
        let mut m = MarkingMemory::new(10, MarkGranularity::STRIPE);
        for s in [3, 4, 5, 7] {
            m.mark(s);
        }
        assert_eq!(m.marked_run(3, 8), 3);
        assert_eq!(m.marked_run(3, 2), 2);
        assert_eq!(m.marked_run(7, 8), 1);
        assert_eq!(m.marked_run(0, 8), 0);
    }

    #[test]
    fn sub_row_marking() {
        let mut m = MarkingMemory::new(4, MarkGranularity::rows(8));
        // An 8 KB unit split into 8 rows of 1 KB. Writing bytes
        // [0, 1024) dirties only row 0.
        m.mark_rows(1, 8192, 0, 1024);
        assert_eq!(m.row_mask(1), 0b1);
        // Bytes [1024, 3072) dirty rows 1-2.
        m.mark_rows(1, 8192, 1024, 3072);
        assert_eq!(m.row_mask(1), 0b111);
        // A full-unit write dirties everything.
        m.mark_rows(1, 8192, 0, 8192);
        assert_eq!(m.row_mask(1), 0xff);
        assert_eq!(m.marked_count(), 1);
    }

    #[test]
    fn sub_row_boundary_bytes() {
        let mut m = MarkingMemory::new(4, MarkGranularity::rows(4));
        // Rows of 2 KB; a write ending exactly at a row boundary must
        // not dirty the next row.
        m.mark_rows(0, 8192, 0, 2048);
        assert_eq!(m.row_mask(0), 0b1);
        m.mark_rows(0, 8192, 2048, 2049);
        assert_eq!(m.row_mask(0), 0b11);
    }

    #[test]
    fn granularity_one_marks_whole_stripe() {
        let mut m = MarkingMemory::new(4, MarkGranularity::STRIPE);
        m.mark_rows(2, 8192, 100, 101);
        assert!(m.is_marked(2));
        assert_eq!(m.row_mask(2), 1);
    }

    #[test]
    fn memory_cost_scales_with_granularity() {
        let base = MarkingMemory::new(1000, MarkGranularity::STRIPE).memory_bytes();
        let fine = MarkingMemory::new(1000, MarkGranularity::rows(8)).memory_bytes();
        assert_eq!(fine, base * 8);
    }

    #[test]
    fn nvram_failure_marks_everything() {
        let mut m = MarkingMemory::new(10, MarkGranularity::STRIPE);
        m.mark(3);
        m.fail();
        assert!(m.has_failed());
        assert_eq!(m.marked_count(), 10);
        for s in 0..10 {
            assert!(m.is_marked(s));
        }
    }

    #[test]
    fn full_granularity_64() {
        let mut m = MarkingMemory::new(2, MarkGranularity::rows(64));
        m.mark(0);
        assert_eq!(m.row_mask(0), u64::MAX);
        m.fail();
        assert_eq!(m.row_mask(1), u64::MAX);
    }

    /// The stripe and row counts agree with the masks after every kind
    /// of update, at one, eight and 64 rows a stripe.
    #[test]
    fn counts_track_the_masks() {
        fn masks(mem: &MarkingMemory) -> impl Iterator<Item = u64> + '_ {
            (0..mem.stripes()).map(|s| mem.row_mask(s))
        }
        fn check(mem: &MarkingMemory, expected_rows: u64) {
            let rows: u64 = masks(mem).map(|r| u64::from(r.count_ones())).sum();
            assert_eq!(rows, expected_rows);
            assert_eq!(mem.dirty_rows(), expected_rows);
            let nonzero = masks(mem).filter(|&r| r != 0).count();
            assert_eq!(mem.marked_count(), nonzero as u64);
        }
        // Rows dirty after: [0, 3000) on stripe 2; [1000, 5000) on
        // stripe 2, overlapping it; [8000, 8192) on stripe 5.
        for (m, after) in [(1, [1, 1, 2]), (8, [3, 5, 6]), (64, [24, 40, 42])] {
            let mut mem = MarkingMemory::new(8, MarkGranularity::rows(m));
            mem.mark_rows(2, 8192, 0, 3000);
            check(&mem, after[0]);
            mem.mark_rows(2, 8192, 1000, 5000);
            check(&mem, after[1]);
            mem.mark_rows(5, 8192, 8000, 8192);
            check(&mem, after[2]);
            // Re-marking is a no-op.
            mem.mark_rows(2, 8192, 1000, 5000);
            check(&mem, after[2]);
            mem.clear(2);
            check(&mem, after[2] - after[1]);
            mem.clear(2);
            check(&mem, after[2] - after[1]);
            mem.fail();
            check(&mem, 8 * u64::from(m));
            mem.clear(0);
            check(&mem, 7 * u64::from(m));
        }
    }

    /// The index the bitmap replaced: the masks plus an ordered set of
    /// the marked stripes. [`MarkingMemory`] must answer exactly as it
    /// does.
    struct BTreeSetIndex {
        rows: Vec<u64>,
        m: u32,
        dirty_rows: u64,
        dirty_set: std::collections::BTreeSet<u64>,
    }

    impl BTreeSetIndex {
        fn new(stripes: u64, m: u32) -> BTreeSetIndex {
            BTreeSetIndex {
                rows: vec![0; stripes as usize],
                m,
                dirty_rows: 0,
                dirty_set: std::collections::BTreeSet::new(),
            }
        }

        fn full_mask(&self) -> u64 {
            if self.m == 64 {
                u64::MAX
            } else {
                (1 << self.m) - 1
            }
        }

        fn mark_mask(&mut self, stripe: u64, mask: u64) {
            let slot = &mut self.rows[stripe as usize];
            if *slot == 0 && mask != 0 {
                self.dirty_set.insert(stripe);
            }
            self.dirty_rows += u64::from((mask & !*slot).count_ones());
            *slot |= mask;
        }

        fn mark_rows(&mut self, stripe: u64, unit_bytes: u64, from: u64, to: u64) {
            let row_h = unit_bytes.div_ceil(u64::from(self.m));
            let mask = (from / row_h..=(to - 1) / row_h).fold(0, |mask, r| mask | 1 << r);
            self.mark_mask(stripe, mask);
        }

        fn clear(&mut self, stripe: u64) {
            let slot = &mut self.rows[stripe as usize];
            if *slot != 0 {
                self.dirty_rows -= u64::from(slot.count_ones());
                self.dirty_set.remove(&stripe);
                *slot = 0;
            }
        }

        fn fail(&mut self) {
            let mask = self.full_mask();
            self.dirty_rows = self.rows.len() as u64 * u64::from(self.m);
            self.dirty_set = (0..self.rows.len() as u64).collect();
            self.rows.fill(mask);
        }

        fn marked_from(&self, from: u64, limit: usize) -> Vec<u64> {
            if self.dirty_set.is_empty() || limit == 0 {
                return Vec::new();
            }
            let start = from % self.rows.len() as u64;
            self.dirty_set
                .range(start..)
                .chain(self.dirty_set.range(..start))
                .take(limit)
                .copied()
                .collect()
        }

        fn marked_run(&self, stripe: u64, max: u64) -> u64 {
            let n = self.rows.len() as u64;
            let mut len = 0;
            while len < max && stripe + len < n && self.rows[(stripe + len) as usize] != 0 {
                len += 1;
            }
            len
        }
    }

    /// The seed of the bitmap property: `AFRAID_SEED`, default
    /// `0x0B17_0030`, so CI can rerun it at several seeds.
    #[expect(
        clippy::disallowed_methods,
        reason = "CI reruns this property at several seeds"
    )]
    fn seed() -> u64 {
        std::env::var("AFRAID_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x0B17_0030)
    }

    /// The bitmap index answers every query exactly as the ordered-set
    /// index did, after every operation of seeded random sequences of
    /// marks, sub-row marks, clears and failures, at stripe counts on
    /// both sides of a bits word (64) and of a summary word (4,096), up
    /// to past the paper array's 256 K stripes.
    #[test]
    fn bitmap_index_answers_as_the_btreeset_reference() {
        use afraid_sim::rng::SplitMix64;

        let mut rng = SplitMix64::new(seed());
        for n in [1u64, 63, 64, 65, 4_095, 4_096, 4_097, 262_145] {
            for m in [1u32, 8, 64] {
                let mut mem = MarkingMemory::new(n, MarkGranularity::rows(m));
                let mut reference = BTreeSetIndex::new(n, m);
                let mut near = 0u64;
                for op in 0..300 {
                    // Stripes cluster around a wandering point, so runs
                    // form and words fill, empty and refill.
                    let stripe = match rng.next_below(4) {
                        0 => rng.next_below(n),
                        1 => {
                            [0, 63, 64, 4_095, 4_096, n - 1][rng.next_below(6) as usize].min(n - 1)
                        }
                        _ => (near + rng.next_below(130)) % n,
                    };
                    near = stripe.saturating_sub(64);
                    match rng.next_below(100) {
                        0 => {
                            mem.fail();
                            reference.fail();
                        }
                        1..=30 => {
                            mem.mark(stripe);
                            let mask = reference.full_mask();
                            reference.mark_mask(stripe, mask);
                        }
                        31..=55 => {
                            let to = 1 + rng.next_below(8192);
                            let from = rng.next_below(to);
                            mem.mark_rows(stripe, 8192, from, to);
                            reference.mark_rows(stripe, 8192, from, to);
                        }
                        56..=61 => {
                            // Clear a run of stripes, as a scrub batch does.
                            for s in stripe..(stripe + rng.next_below(70)).min(n) {
                                mem.clear(s);
                                reference.clear(s);
                            }
                        }
                        _ => {
                            mem.clear(stripe);
                            reference.clear(stripe);
                        }
                    }
                    let ctx = format!("n {n} m {m} op {op}");
                    assert_eq!(
                        mem.marked_count(),
                        reference.dirty_set.len() as u64,
                        "{ctx}"
                    );
                    assert_eq!(mem.dirty_rows(), reference.dirty_rows, "{ctx}");
                    for _ in 0..4 {
                        let from = match rng.next_below(3) {
                            0 => rng.next_below(n),
                            1 => n + rng.next_below(3 * n),
                            _ => stripe,
                        };
                        let limit = match rng.next_below(8) {
                            0 => 0,
                            // Past the marked count, which a failure
                            // can make the whole (small) array.
                            1 => (n + 1).min(5_000) as usize,
                            _ => rng.next_below(70) as usize,
                        };
                        assert_eq!(
                            mem.marked_from(from, limit).collect::<Vec<_>>(),
                            reference.marked_from(from, limit),
                            "{ctx}: marked_from({from}, {limit})"
                        );
                        let (s, max) = (rng.next_below(n), rng.next_below(80));
                        assert_eq!(
                            mem.marked_run(s, max),
                            reference.marked_run(s, max),
                            "{ctx}"
                        );
                        assert_eq!(mem.is_marked(s), reference.rows[s as usize] != 0, "{ctx}");
                        assert_eq!(mem.row_mask(s), reference.rows[s as usize], "{ctx}");
                    }
                    assert_eq!(mem.is_marked(stripe), reference.rows[stripe as usize] != 0);
                }
                assert!(
                    mem.marked().eq(reference.dirty_set.iter().copied()),
                    "n {n} m {m}: marked stripes in order"
                );
                mem.clear_all();
                assert_eq!((mem.marked_count(), mem.dirty_rows()), (0, 0));
                assert_eq!(mem.marked_from(0, usize::MAX).count(), 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "granularity must be")]
    fn rejects_zero_granularity() {
        let _ = MarkGranularity::rows(0);
    }
}
