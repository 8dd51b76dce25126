//! Left-symmetric RAID 5 data layout.
//!
//! The array exposes a linear logical address space striped across
//! `n` disks with one parity unit per stripe. The layout is the
//! classic *left-symmetric* arrangement the paper assumes: parity
//! rotates right-to-left one disk per stripe, and data units start
//! immediately after the parity disk and wrap, so consecutive logical
//! units land on consecutive disks:
//!
//! ```text
//! disk:      0    1    2    3    4
//! stripe 0:  D0   D1   D2   D3   P
//! stripe 1:  D5   D6   D7   P    D4
//! stripe 2:  D10  D11  P    D8   D9
//! ```
//!
//! RAID 0 runs are modelled — exactly as in the paper — as an AFRAID
//! that never updates parity, so they use this same layout and the
//! same usable capacity; only the parity traffic differs.

use serde::{Deserialize, Serialize};

/// Where one logical stripe unit lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitAddr {
    /// Stripe number.
    pub stripe: u64,
    /// Position among the stripe's data units, `0..n-1`.
    pub unit: u32,
    /// Disk holding the unit.
    pub disk: u32,
    /// Starting sector of the unit on that disk.
    pub disk_lba: u64,
}

/// One per-disk slice of a logical request: a contiguous sector run on
/// a single disk, within a single stripe unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitSlice {
    /// Stripe number.
    pub stripe: u64,
    /// Data-unit index within the stripe, `0..n-1`.
    pub unit: u32,
    /// Disk holding the slice.
    pub disk: u32,
    /// Starting sector on the disk.
    pub disk_lba: u64,
    /// Length in sectors.
    pub sectors: u64,
    /// Whether the slice covers its whole stripe unit.
    pub full_unit: bool,
}

/// Geometry of the striped array.
///
/// # Examples
///
/// ```
/// use afraid::layout::Layout;
///
/// // 5 disks, 8 KB stripe units, 160-sector disks: 10 stripes.
/// let l = Layout::new(5, 8192, 160);
/// assert_eq!(l.stripes(), 10);
/// assert_eq!(l.logical_capacity(), 10 * 4 * 8192);
/// // Left-symmetric: stripe 0's parity on the last disk.
/// assert_eq!(l.parity_disk(0), 4);
/// assert_eq!(l.parity_disk(1), 3);
/// // Logical byte 0 lives on disk 0, stripe 0.
/// let a = l.locate(0);
/// assert_eq!((a.stripe, a.disk), (0, 0));
/// ```
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Layout {
    disks: u32,
    /// Sectors per stripe unit.
    unit_sectors: u64,
    /// Number of whole stripes.
    stripes: u64,
}

impl Layout {
    /// Creates a layout.
    ///
    /// * `disks` — spindles in the array (data + rotating parity).
    /// * `stripe_unit_bytes` — the stripe unit ("depth"), e.g. 8 KB.
    /// * `disk_sectors` — capacity of each disk in sectors.
    ///
    /// # Panics
    ///
    /// Panics unless `disks >= 3` (RAID 5 needs two data disks for the
    /// parity to be non-trivial; the paper's arrays are 5-wide),
    /// the stripe unit is a positive multiple of the sector size, and
    /// each disk holds at least one unit.
    pub fn new(disks: u32, stripe_unit_bytes: u64, disk_sectors: u64) -> Layout {
        assert!(disks >= 3, "need at least 3 disks, got {disks}");
        // Unit masks are u64 bitmaps over data units.
        assert!(disks <= 64, "at most 64 disks supported, got {disks}");
        assert!(
            stripe_unit_bytes > 0 && stripe_unit_bytes.is_multiple_of(512),
            "stripe unit must be a positive multiple of 512, got {stripe_unit_bytes}"
        );
        let unit_sectors = stripe_unit_bytes / 512;
        let stripes = disk_sectors / unit_sectors;
        assert!(stripes > 0, "disks too small for one stripe unit");
        Layout {
            disks,
            unit_sectors,
            stripes,
        }
    }

    /// Number of spindles.
    pub fn disks(&self) -> u32 {
        self.disks
    }

    /// Data units per stripe (`disks - 1`).
    pub fn data_units(&self) -> u32 {
        self.disks - 1
    }

    /// Sectors per stripe unit.
    pub fn unit_sectors(&self) -> u64 {
        self.unit_sectors
    }

    /// Stripe unit size in bytes.
    pub fn unit_bytes(&self) -> u64 {
        self.unit_sectors * 512
    }

    /// Number of stripes.
    pub fn stripes(&self) -> u64 {
        self.stripes
    }

    /// Usable (client-visible) capacity in bytes.
    pub fn logical_capacity(&self) -> u64 {
        self.stripes * u64::from(self.data_units()) * self.unit_bytes()
    }

    /// The disk holding the parity unit of `stripe` (left-symmetric:
    /// rotates from the last disk leftwards).
    ///
    /// # Panics
    ///
    /// Panics if `stripe` is out of range.
    pub fn parity_disk(&self, stripe: u64) -> u32 {
        assert!(stripe < self.stripes, "stripe {stripe} out of range");
        let n = u64::from(self.disks);
        (self.disks - 1) - (stripe % n) as u32
    }

    /// The disk holding data unit `unit` (`0..n-1`) of `stripe`.
    /// Data units start on the disk after the parity disk and wrap.
    ///
    /// # Panics
    ///
    /// Panics if `stripe` or `unit` is out of range.
    pub fn data_disk(&self, stripe: u64, unit: u32) -> u32 {
        assert!(unit < self.data_units(), "unit {unit} out of range");
        (self.parity_disk(stripe) + 1 + unit) % self.disks
    }

    /// The data unit `disk` holds in `stripe`: the inverse of
    /// [`Layout::data_disk`], or `None` for the parity disk and for a
    /// disk outside the array.
    pub fn data_unit(&self, stripe: u64, disk: u32) -> Option<u32> {
        let parity = self.parity_disk(stripe);
        (disk != parity && disk < self.disks).then(|| (disk + self.disks - parity - 1) % self.disks)
    }

    /// First sector of stripe `stripe`'s unit on whichever disk holds
    /// it (all units of a stripe share the same per-disk offset).
    pub fn stripe_lba(&self, stripe: u64) -> u64 {
        stripe * self.unit_sectors
    }

    /// Locates the stripe unit containing logical byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` lies beyond the logical capacity.
    pub fn locate(&self, offset: u64) -> UnitAddr {
        assert!(
            offset < self.logical_capacity(),
            "offset {offset} beyond capacity {}",
            self.logical_capacity()
        );
        let unit_bytes = self.unit_bytes();
        let units_per_stripe = u64::from(self.data_units());
        let unit_index = offset / unit_bytes;
        let stripe = unit_index / units_per_stripe;
        let unit = (unit_index % units_per_stripe) as u32;
        let disk = self.data_disk(stripe, unit);
        UnitAddr {
            stripe,
            unit,
            disk,
            disk_lba: self.stripe_lba(stripe),
        }
    }

    /// Splits a logical byte range into per-disk sector slices, one per
    /// (stripe, unit) touched, in logical order.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, unaligned, or out of bounds.
    pub fn map_range(&self, offset: u64, bytes: u64) -> Vec<UnitSlice> {
        let mut slices = Vec::new();
        self.map_range_into(offset, bytes, &mut slices);
        slices
    }

    /// Allocation-free variant of [`Layout::map_range`]: clears `out`
    /// and fills it with the slices, reusing its capacity. The request
    /// hot path calls this with a scratch buffer owned by the
    /// controller so steady-state planning performs no allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, unaligned, or out of bounds.
    pub fn map_range_into(&self, offset: u64, bytes: u64, out: &mut Vec<UnitSlice>) {
        assert!(bytes > 0 && bytes.is_multiple_of(512), "bad length {bytes}");
        assert!(offset.is_multiple_of(512), "bad offset {offset}");
        assert!(
            offset + bytes <= self.logical_capacity(),
            "range [{offset}, {}) beyond capacity {}",
            offset + bytes,
            self.logical_capacity()
        );
        out.clear();
        let unit_bytes = self.unit_bytes();
        let mut cur = offset;
        let end = offset + bytes;
        while cur < end {
            let addr = self.locate(cur);
            let within = cur % unit_bytes;
            let take = (unit_bytes - within).min(end - cur);
            out.push(UnitSlice {
                stripe: addr.stripe,
                unit: addr.unit,
                disk: addr.disk,
                disk_lba: addr.disk_lba + within / 512,
                sectors: take / 512,
                full_unit: within == 0 && take == unit_bytes,
            });
            cur += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 5 disks, 8 KB units (16 sectors), 160 sectors/disk = 10 stripes.
    fn small() -> Layout {
        Layout::new(5, 8192, 160)
    }

    #[test]
    fn capacity() {
        let l = small();
        assert_eq!(l.stripes(), 10);
        assert_eq!(l.data_units(), 4);
        assert_eq!(l.unit_sectors(), 16);
        assert_eq!(l.logical_capacity(), 10 * 4 * 8192);
    }

    #[test]
    fn left_symmetric_parity_rotation() {
        let l = small();
        assert_eq!(l.parity_disk(0), 4);
        assert_eq!(l.parity_disk(1), 3);
        assert_eq!(l.parity_disk(2), 2);
        assert_eq!(l.parity_disk(3), 1);
        assert_eq!(l.parity_disk(4), 0);
        assert_eq!(l.parity_disk(5), 4);
    }

    #[test]
    fn left_symmetric_data_placement() {
        let l = small();
        // Stripe 0: parity on disk 4, data units on 0,1,2,3.
        assert_eq!(l.data_disk(0, 0), 0);
        assert_eq!(l.data_disk(0, 3), 3);
        // Stripe 1: parity on disk 3, data starts on disk 4 and wraps.
        assert_eq!(l.data_disk(1, 0), 4);
        assert_eq!(l.data_disk(1, 1), 0);
        assert_eq!(l.data_disk(1, 3), 2);
    }

    #[test]
    fn data_and_parity_disks_partition_the_array() {
        let l = small();
        for stripe in 0..l.stripes() {
            let mut seen = [false; 5];
            seen[l.parity_disk(stripe) as usize] = true;
            for unit in 0..l.data_units() {
                let d = l.data_disk(stripe, unit) as usize;
                assert!(!seen[d], "disk {d} used twice in stripe {stripe}");
                seen[d] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn consecutive_logical_units_hit_consecutive_disks() {
        let l = small();
        // Logical units 0..8 should use disks 0,1,2,3,4,0,1,2 —
        // the property that makes large sequential transfers use all
        // spindles evenly.
        let mut disks = Vec::new();
        for i in 0..8u64 {
            disks.push(l.locate(i * 8192).disk);
        }
        assert_eq!(disks, vec![0, 1, 2, 3, 4, 0, 1, 2]);
    }

    #[test]
    fn locate_basics() {
        let l = small();
        let a = l.locate(0);
        assert_eq!((a.stripe, a.unit, a.disk, a.disk_lba), (0, 0, 0, 0));
        // Last byte.
        let a = l.locate(l.logical_capacity() - 1);
        assert_eq!(a.stripe, 9);
        assert_eq!(a.unit, 3);
        assert_eq!(a.disk_lba, 9 * 16);
    }

    #[test]
    fn map_range_single_unit() {
        let l = small();
        let s = l.map_range(512, 1024);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].disk, 0);
        assert_eq!(s[0].disk_lba, 1);
        assert_eq!(s[0].sectors, 2);
        assert!(!s[0].full_unit);
    }

    #[test]
    fn map_range_full_unit_flag() {
        let l = small();
        let s = l.map_range(8192, 8192);
        assert_eq!(s.len(), 1);
        assert!(s[0].full_unit);
        assert_eq!(s[0].unit, 1);
    }

    #[test]
    fn map_range_spans_units_and_stripes() {
        let l = small();
        // 20 KB starting 4 KB into the array: 4 KB of unit 0, 8 KB of
        // unit 1, 8 KB of unit 2 (all stripe 0).
        let s = l.map_range(4096, 20480);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].sectors, 8);
        assert!(!s[0].full_unit);
        assert!(s[1].full_unit);
        assert!(s[2].full_unit);
        // Crossing into stripe 1: last unit of stripe 0 plus first of 1.
        let s = l.map_range(3 * 8192, 2 * 8192);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].stripe, 0);
        assert_eq!(s[0].unit, 3);
        assert_eq!(s[1].stripe, 1);
        assert_eq!(s[1].unit, 0);
        assert_eq!(s[1].disk, 4);
    }

    #[test]
    fn map_range_total_sectors_match() {
        let l = small();
        let s = l.map_range(1536, 50 * 512);
        let total: u64 = s.iter().map(|x| x.sectors).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn whole_stripe_mask_is_full() {
        let l = small();
        let s = l.map_range(0, 4 * 8192);
        assert!(s.iter().all(|x| x.stripe == 0 && x.full_unit));
        let mask = s.iter().fold(0u64, |m, x| m | 1 << x.unit);
        assert_eq!(mask, 0b1111);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn locate_out_of_range() {
        let l = small();
        let _ = l.locate(l.logical_capacity());
    }

    #[test]
    #[should_panic(expected = "need at least 3 disks")]
    fn too_few_disks() {
        let _ = Layout::new(2, 8192, 160);
    }

    #[test]
    fn uses_whole_disk_when_divisible() {
        let l = Layout::new(5, 8192, 163); // 3 trailing sectors unused
        assert_eq!(l.stripes(), 10);
    }

    #[test]
    fn unit_roundtrip_disk_lba() {
        let l = small();
        // Every logical 8 KB unit maps to a unique (disk, lba) pair.
        let mut seen = std::collections::BTreeSet::new();
        let units = l.logical_capacity() / 8192;
        for i in 0..units {
            let a = l.locate(i * 8192);
            assert!(seen.insert((a.disk, a.disk_lba)), "collision at unit {i}");
        }
    }
}
