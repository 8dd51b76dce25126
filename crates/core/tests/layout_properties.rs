//! Property-based tests of the striping layout and marking memory.

use afraid::layout::Layout;
use afraid::nvram::{MarkGranularity, MarkingMemory};
use proptest::prelude::*;

fn layouts() -> impl Strategy<Value = Layout> {
    (
        3u32..16,
        prop_oneof![Just(4096u64), Just(8192), Just(16384), Just(65536)],
        64u64..5000,
    )
        .prop_map(|(disks, unit, units_per_disk)| {
            Layout::new(disks, unit, units_per_disk * (unit / 512))
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// map_range splits any aligned range exactly: slices are
    /// contiguous in logical order, sector counts add up, and each
    /// slice stays inside one stripe unit on the right disk.
    #[test]
    fn map_range_partitions_exactly(
        layout in layouts(),
        start_frac in 0.0f64..1.0,
        len_sectors in 1u64..512,
    ) {
        let cap = layout.logical_capacity();
        let bytes = len_sectors * 512;
        let max_start = cap - bytes;
        let offset = ((max_start as f64 * start_frac) as u64) / 512 * 512;

        let slices = layout.map_range(offset, bytes);
        let total: u64 = slices.iter().map(|s| s.sectors).sum();
        prop_assert_eq!(total, len_sectors);

        let unit_sectors = layout.unit_sectors();
        let mut cursor = offset;
        for s in &slices {
            // Each slice is within its unit.
            let within = s.disk_lba - layout.stripe_lba(s.stripe);
            prop_assert!(within + s.sectors <= unit_sectors);
            // The slice's disk is the layout's disk for that unit.
            prop_assert_eq!(s.disk, layout.data_disk(s.stripe, s.unit));
            // Logical contiguity.
            let expect_addr = layout.locate(cursor);
            prop_assert_eq!(expect_addr.stripe, s.stripe);
            prop_assert_eq!(expect_addr.unit, s.unit);
            cursor += s.sectors * 512;
            // full_unit flag is accurate.
            prop_assert_eq!(s.full_unit, within == 0 && s.sectors == unit_sectors);
        }
        prop_assert_eq!(cursor, offset + bytes);
    }

    /// Parity and data placement partition the disks of every stripe.
    #[test]
    fn placement_partitions_disks(layout in layouts(), stripe_frac in 0.0f64..1.0) {
        let stripe = ((layout.stripes() - 1) as f64 * stripe_frac) as u64;
        let mut seen = vec![false; layout.disks() as usize];
        seen[layout.parity_disk(stripe) as usize] = true;
        prop_assert_eq!(layout.data_unit(stripe, layout.parity_disk(stripe)), None);
        for u in 0..layout.data_units() {
            let d = layout.data_disk(stripe, u);
            prop_assert_eq!(layout.data_unit(stripe, d), Some(u));
            let d = d as usize;
            prop_assert!(!seen[d]);
            seen[d] = true;
        }
        prop_assert!(seen.iter().all(|&x| x));
    }

    /// Every logical unit occupies a unique (disk, lba) slot —
    /// sampled rather than exhaustive for large layouts.
    #[test]
    fn units_never_collide(layout in layouts(), seed in any::<u64>()) {
        let mut rng = afraid_sim::rng::SplitMix64::new(seed);
        let units = layout.logical_capacity() / layout.unit_bytes();
        let mut owner = std::collections::BTreeMap::new();
        for _ in 0..200 {
            let u = rng.next_below(units);
            let a = layout.locate(u * layout.unit_bytes());
            // Same unit drawn twice is fine; a different unit at the
            // same slot is not.
            let first = *owner.entry((a.disk, a.disk_lba)).or_insert(u);
            prop_assert_eq!(first, u, "unit {} collides with unit {}", u, first);
        }
    }

    /// Marking memory: mark/clear round-trips leave it clean, counts
    /// stay consistent, and the dirty index agrees with the masks.
    #[test]
    fn marking_memory_consistent(
        stripes in 8u64..2000,
        bits in prop_oneof![Just(1u32), Just(2), Just(8), Just(16)],
        ops in prop::collection::vec((any::<bool>(), 0.0f64..1.0), 1..200),
    ) {
        let mut m = MarkingMemory::new(stripes, MarkGranularity::rows(bits));
        for (mark, frac) in ops {
            let s = ((stripes - 1) as f64 * frac) as u64;
            if mark {
                m.mark(s);
            } else {
                m.clear(s);
            }
            // Count must equal the number of marked stripes.
            let counted = (0..stripes).filter(|&x| m.is_marked(x)).count() as u64;
            prop_assert_eq!(m.marked_count(), counted);
        }
        // The cyclic iterator visits exactly the marked stripes.
        let via_iter: Vec<u64> = m.marked_from(0, stripes as usize).collect();
        prop_assert_eq!(via_iter.len() as u64, m.marked_count());
        for s in via_iter {
            prop_assert!(m.is_marked(s));
        }
        // Clearing everything empties it.
        for s in 0..stripes {
            m.clear(s);
        }
        prop_assert_eq!(m.marked_count(), 0);
        prop_assert_eq!(m.marked_from(0, stripes as usize).count(), 0);
    }
}
