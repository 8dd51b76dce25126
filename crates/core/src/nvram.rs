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

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

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

/// The dirty-stripe bitmap.
///
/// # Examples
///
/// ```
/// use afraid::nvram::{MarkGranularity, MarkingMemory};
///
/// let mut m = MarkingMemory::new(100, MarkGranularity::STRIPE);
/// m.mark(7, 0, 1);
/// assert!(m.is_marked(7));
/// assert_eq!(m.marked_count(), 1);
/// m.clear(7);
/// assert!(!m.is_marked(7));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MarkingMemory {
    /// Per-stripe row masks; non-zero = stripe unredundant.
    rows: Vec<u64>,
    granularity: MarkGranularity,
    /// Count of stripes with a non-zero mask.
    dirty: u64,
    /// Ordered index of dirty stripes, so the scrubber's sweep is
    /// O(log n) rather than a scan (an implementation index, not part
    /// of the modelled NVRAM cost).
    dirty_set: BTreeSet<u64>,
    /// True after a simulated NVRAM failure: contents untrusted.
    failed: bool,
}

impl MarkingMemory {
    /// Creates a clean marking memory for `stripes` stripes.
    pub fn new(stripes: u64, granularity: MarkGranularity) -> MarkingMemory {
        MarkingMemory {
            rows: vec![0; stripes as usize],
            granularity,
            dirty: 0,
            dirty_set: BTreeSet::new(),
            failed: false,
        }
    }

    /// Marking granularity.
    pub fn granularity(&self) -> MarkGranularity {
        self.granularity
    }

    /// Number of stripes tracked.
    pub fn stripes(&self) -> u64 {
        self.rows.len() as u64
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

    /// Marks `stripe` entirely (all rows). `_unit_from`/`_unit_to` are
    /// accepted for symmetry with sub-row marking.
    pub fn mark(&mut self, stripe: u64, _unit_from: u32, _unit_to: u32) {
        let m = self.granularity.bits();
        let mask = if m == 64 { u64::MAX } else { (1u64 << m) - 1 };
        self.mark_mask(stripe, mask);
    }

    fn mark_mask(&mut self, stripe: u64, mask: u64) {
        let slot = &mut self.rows[stripe as usize];
        if *slot == 0 && mask != 0 {
            self.dirty += 1;
            self.dirty_set.insert(stripe);
        }
        *slot |= mask;
    }

    /// The dirty row mask of a stripe (0 = fully redundant).
    ///
    /// # Panics
    ///
    /// Panics if `stripe` is out of range.
    pub fn row_mask(&self, stripe: u64) -> u64 {
        self.rows[stripe as usize]
    }

    /// Fraction of the stripe's height that is dirty, in `(0, 1]`, or
    /// 0 for a clean stripe. This is the fraction of each unit the
    /// scrubber must read.
    pub fn dirty_fraction(&self, stripe: u64) -> f64 {
        let mask = self.row_mask(stripe);
        if mask == 0 {
            return 0.0;
        }
        mask.count_ones() as f64 / f64::from(self.granularity.bits())
    }

    /// True if the stripe has stale parity.
    pub fn is_marked(&self, stripe: u64) -> bool {
        self.rows[stripe as usize] != 0
    }

    /// Clears a stripe after its parity has been rebuilt.
    pub fn clear(&mut self, stripe: u64) {
        let slot = &mut self.rows[stripe as usize];
        if *slot != 0 {
            self.dirty -= 1;
            self.dirty_set.remove(&stripe);
            *slot = 0;
        }
    }

    /// Number of unredundant stripes.
    pub fn marked_count(&self) -> u64 {
        self.dirty
    }

    /// Up to `limit` marked stripes in cyclic order starting at
    /// `from` (taken modulo the stripe count). The scrubber uses this
    /// to assemble a batch in one O(limit log n) query; sweeping in
    /// disk order is what makes coalescing adjacent stripes effective.
    pub fn marked_from(&self, from: u64, limit: usize) -> Vec<u64> {
        if self.dirty == 0 || limit == 0 {
            return Vec::new();
        }
        let n = self.rows.len() as u64;
        let start = from % n;
        self.dirty_set
            .range(start..)
            .chain(self.dirty_set.range(..start))
            .take(limit)
            .copied()
            .collect()
    }

    /// The length of the run of consecutive marked stripes starting at
    /// `stripe`, capped at `max`.
    pub fn marked_run(&self, stripe: u64, max: u64) -> u64 {
        let n = self.rows.len() as u64;
        let mut len = 0;
        while len < max && stripe + len < n && self.rows[(stripe + len) as usize] != 0 {
            len += 1;
        }
        len
    }

    /// Simulates an NVRAM failure: contents are lost and every stripe
    /// must be treated as potentially unredundant until a full-array
    /// sweep completes. Marks everything dirty (the conservative
    /// recovery the paper describes).
    pub fn fail(&mut self) {
        self.failed = true;
        let m = self.granularity.bits();
        let mask = if m == 64 { u64::MAX } else { (1u64 << m) - 1 };
        self.dirty = self.rows.len() as u64;
        self.dirty_set = (0..self.rows.len() as u64).collect();
        for slot in &mut self.rows {
            *slot = mask;
        }
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
        m.mark(3, 0, 1);
        m.mark(7, 0, 1);
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
        m.mark(3, 0, 1);
        m.mark(3, 0, 1);
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
            m.mark(s, 0, 1);
        }
        assert_eq!(m.marked_from(0, 10), vec![2, 5, 7]);
        assert_eq!(m.marked_from(3, 10), vec![5, 7, 2]);
        // A start past the last mark wraps to the lowest one.
        assert_eq!(m.marked_from(8, 10), vec![2, 5, 7]);
        // A start at or beyond the stripe count is taken modulo it.
        assert_eq!(m.marked_from(10, 10), vec![2, 5, 7]);
        assert_eq!(m.marked_from(13, 10), vec![5, 7, 2]);
        // The limit caps the batch below the dirty count.
        assert_eq!(m.marked_from(6, 2), vec![7, 2]);
        assert!(m.marked_from(0, 0).is_empty());
        for s in [2, 5, 7] {
            m.clear(s);
        }
        assert!(m.marked_from(0, 10).is_empty());
    }

    #[test]
    fn marked_run_counts_adjacent() {
        let mut m = MarkingMemory::new(10, MarkGranularity::STRIPE);
        for s in [3, 4, 5, 7] {
            m.mark(s, 0, 1);
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
        assert!((m.dirty_fraction(1) - 0.125).abs() < 1e-12);
        // Bytes [1024, 3072) dirty rows 1-2.
        m.mark_rows(1, 8192, 1024, 3072);
        assert_eq!(m.row_mask(1), 0b111);
        // A full-unit write dirties everything.
        m.mark_rows(1, 8192, 0, 8192);
        assert_eq!(m.row_mask(1), 0xff);
        assert_eq!(m.dirty_fraction(1), 1.0);
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
        assert_eq!(m.dirty_fraction(2), 1.0);
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
        m.mark(3, 0, 1);
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
        m.mark(0, 0, 1);
        assert_eq!(m.row_mask(0), u64::MAX);
        m.fail();
        assert_eq!(m.row_mask(1), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "granularity must be")]
    fn rejects_zero_granularity() {
        let _ = MarkGranularity::rows(0);
    }
}
