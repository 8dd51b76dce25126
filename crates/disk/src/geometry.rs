//! Zoned disk geometry and logical-to-physical address mapping.
//!
//! Modern (for 1995) disks use zoned recording: cylinders are grouped
//! into zones, and outer zones pack more sectors per track because the
//! linear bit density is constant while the circumference grows. The
//! mapping from logical block address (LBA) to physical
//! cylinder/head/sector is cylinder-major: all sectors of a cylinder
//! (across every head) precede those of the next cylinder.

use serde::{Deserialize, Serialize};

/// One recording zone: a run of cylinders sharing a sectors-per-track
/// count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Zone {
    /// Number of cylinders in the zone.
    pub cylinders: u32,
    /// Sectors per track within the zone.
    pub sectors_per_track: u32,
}

/// A physical disk address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Chs {
    /// Cylinder number, 0 at the outer rim.
    pub cyl: u32,
    /// Head (surface) number within the cylinder.
    pub head: u32,
    /// Sector number within the track.
    pub sector: u32,
}

/// Zoned disk geometry.
///
/// # Examples
///
/// ```
/// use afraid_disk::geometry::{Geometry, Zone};
///
/// let g = Geometry::new(2, vec![
///     Zone { cylinders: 10, sectors_per_track: 100 },
///     Zone { cylinders: 10, sectors_per_track: 80 },
/// ]);
/// assert_eq!(g.capacity_sectors(), 10 * 2 * 100 + 10 * 2 * 80);
/// let chs = g.locate(0);
/// assert_eq!((chs.cyl, chs.head, chs.sector), (0, 0, 0));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Geometry {
    heads: u32,
    zones: Vec<Zone>,
    /// First cylinder of each zone (parallel to `zones`).
    zone_first_cyl: Vec<u32>,
    /// First LBA of each zone (parallel to `zones`).
    zone_first_lba: Vec<u64>,
    capacity: u64,
    total_cylinders: u32,
}

impl Geometry {
    /// Builds a geometry from a head count and zone table.
    ///
    /// # Panics
    ///
    /// Panics if `heads` is zero, `zones` is empty, or any zone has
    /// zero cylinders or zero sectors per track.
    pub fn new(heads: u32, zones: Vec<Zone>) -> Self {
        assert!(heads > 0, "disk needs at least one head");
        assert!(!zones.is_empty(), "disk needs at least one zone");
        let mut zone_first_cyl = Vec::with_capacity(zones.len());
        let mut zone_first_lba = Vec::with_capacity(zones.len());
        let mut cyl = 0u32;
        let mut lba = 0u64;
        for z in &zones {
            assert!(z.cylinders > 0 && z.sectors_per_track > 0, "empty zone");
            zone_first_cyl.push(cyl);
            zone_first_lba.push(lba);
            cyl += z.cylinders;
            lba += u64::from(z.cylinders) * u64::from(heads) * u64::from(z.sectors_per_track);
        }
        Geometry {
            heads,
            zones,
            zone_first_cyl,
            zone_first_lba,
            capacity: lba,
            total_cylinders: cyl,
        }
    }

    /// Total addressable sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.capacity
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity * crate::SECTOR_BYTES
    }

    /// Number of heads (data surfaces).
    pub fn heads(&self) -> u32 {
        self.heads
    }

    /// Total number of cylinders.
    pub fn cylinders(&self) -> u32 {
        self.total_cylinders
    }

    /// The zone table.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// Sectors per track at the given cylinder.
    ///
    /// # Panics
    ///
    /// Panics if `cyl` is out of range.
    pub fn sectors_per_track(&self, cyl: u32) -> u32 {
        self.zones[self.zone_index_of_cyl(cyl)].sectors_per_track
    }

    /// Maps an LBA to its physical address.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is beyond the disk capacity.
    pub fn locate(&self, lba: u64) -> Chs {
        self.locate_in_zone(lba).0
    }

    /// Maps an LBA to its physical address and the sectors per track
    /// of its zone, with a single zone lookup.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is beyond the disk capacity.
    pub fn locate_in_zone(&self, lba: u64) -> (Chs, u32) {
        assert!(
            lba < self.capacity,
            "LBA {lba} beyond capacity {}",
            self.capacity
        );
        // Find the zone by LBA (zones are few; partition_point is tidy).
        let zi = self.zone_first_lba.partition_point(|&z| z <= lba) - 1;
        let zone = &self.zones[zi];
        let spt = u64::from(zone.sectors_per_track);
        let per_cyl = spt * u64::from(self.heads);
        let off = lba - self.zone_first_lba[zi];
        let cyl = self.zone_first_cyl[zi] + (off / per_cyl) as u32;
        let within = off % per_cyl;
        let chs = Chs {
            cyl,
            head: (within / spt) as u32,
            sector: (within % spt) as u32,
        };
        (chs, zone.sectors_per_track)
    }

    /// Maps a physical address back to its LBA.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn lba_of(&self, chs: Chs) -> u64 {
        assert!(chs.cyl < self.total_cylinders, "cylinder out of range");
        assert!(chs.head < self.heads, "head out of range");
        let zi = self.zone_index_of_cyl(chs.cyl);
        let zone = &self.zones[zi];
        assert!(chs.sector < zone.sectors_per_track, "sector out of range");
        let spt = u64::from(zone.sectors_per_track);
        let per_cyl = spt * u64::from(self.heads);
        self.zone_first_lba[zi]
            + u64::from(chs.cyl - self.zone_first_cyl[zi]) * per_cyl
            + u64::from(chs.head) * spt
            + u64::from(chs.sector)
    }

    fn zone_index_of_cyl(&self, cyl: u32) -> usize {
        assert!(cyl < self.total_cylinders, "cylinder {cyl} out of range");
        self.zone_first_cyl.partition_point(|&c| c <= cyl) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_zone() -> Geometry {
        Geometry::new(
            4,
            vec![
                Zone {
                    cylinders: 100,
                    sectors_per_track: 120,
                },
                Zone {
                    cylinders: 200,
                    sectors_per_track: 80,
                },
            ],
        )
    }

    #[test]
    fn capacity() {
        let g = two_zone();
        assert_eq!(g.capacity_sectors(), 100 * 4 * 120 + 200 * 4 * 80);
        assert_eq!(g.capacity_bytes(), g.capacity_sectors() * 512);
        assert_eq!(g.cylinders(), 300);
        assert_eq!(g.heads(), 4);
    }

    #[test]
    fn locate_first_and_last() {
        let g = two_zone();
        assert_eq!(
            g.locate(0),
            Chs {
                cyl: 0,
                head: 0,
                sector: 0
            }
        );
        let last = g.capacity_sectors() - 1;
        let chs = g.locate(last);
        assert_eq!(
            chs,
            Chs {
                cyl: 299,
                head: 3,
                sector: 79
            }
        );
    }

    #[test]
    fn locate_zone_boundary() {
        let g = two_zone();
        let z0 = 100u64 * 4 * 120;
        let chs = g.locate(z0);
        assert_eq!(
            chs,
            Chs {
                cyl: 100,
                head: 0,
                sector: 0
            }
        );
        let chs = g.locate(z0 - 1);
        assert_eq!(
            chs,
            Chs {
                cyl: 99,
                head: 3,
                sector: 119
            }
        );
    }

    #[test]
    fn locate_head_boundaries() {
        let g = two_zone();
        // LBA 120 is the first sector of head 1, cylinder 0.
        assert_eq!(
            g.locate(120),
            Chs {
                cyl: 0,
                head: 1,
                sector: 0
            }
        );
        // One full cylinder is 480 sectors.
        assert_eq!(
            g.locate(480),
            Chs {
                cyl: 1,
                head: 0,
                sector: 0
            }
        );
    }

    #[test]
    fn roundtrip_lba_chs() {
        let g = two_zone();
        for lba in (0..g.capacity_sectors()).step_by(977) {
            assert_eq!(g.lba_of(g.locate(lba)), lba, "lba {lba}");
        }
        let last = g.capacity_sectors() - 1;
        assert_eq!(g.lba_of(g.locate(last)), last);
    }

    #[test]
    fn sectors_per_track_by_zone() {
        let g = two_zone();
        assert_eq!(g.sectors_per_track(0), 120);
        assert_eq!(g.sectors_per_track(99), 120);
        assert_eq!(g.sectors_per_track(100), 80);
        assert_eq!(g.sectors_per_track(299), 80);
    }

    #[test]
    fn locate_in_zone_agrees_at_every_zone_edge() {
        for g in [
            two_zone(),
            crate::model::DiskModel::hp_c3325().geometry,
            crate::model::DiskModel::test_disk().geometry,
        ] {
            let mut first = 0u64;
            for z in g.zones() {
                let len =
                    u64::from(z.cylinders) * u64::from(g.heads()) * u64::from(z.sectors_per_track);
                for lba in [first, first + len - 1] {
                    let chs = g.locate(lba);
                    assert_eq!(
                        g.locate_in_zone(lba),
                        (chs, g.sectors_per_track(chs.cyl)),
                        "lba {lba}"
                    );
                    assert_eq!(g.locate_in_zone(lba).1, z.sectors_per_track);
                    assert_eq!(g.lba_of(chs), lba);
                }
                first += len;
            }
            assert_eq!(first, g.capacity_sectors());
        }
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn locate_out_of_range() {
        let g = two_zone();
        let _ = g.locate(g.capacity_sectors());
    }

    #[test]
    #[should_panic(expected = "cylinder out of range")]
    fn lba_of_bad_cylinder() {
        let g = two_zone();
        let _ = g.lba_of(Chs {
            cyl: 300,
            head: 0,
            sector: 0,
        });
    }

    #[test]
    #[should_panic(expected = "sector out of range")]
    fn lba_of_bad_sector() {
        let g = two_zone();
        let _ = g.lba_of(Chs {
            cyl: 150,
            head: 0,
            sector: 80,
        });
    }

    #[test]
    fn single_zone_disk() {
        let g = Geometry::new(
            1,
            vec![Zone {
                cylinders: 10,
                sectors_per_track: 10,
            }],
        );
        assert_eq!(g.capacity_sectors(), 100);
        assert_eq!(
            g.locate(55),
            Chs {
                cyl: 5,
                head: 0,
                sector: 5
            }
        );
    }
}
