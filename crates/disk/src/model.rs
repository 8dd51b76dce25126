//! Disk model parameter sets.
//!
//! A [`DiskModel`] bundles everything needed to compute a request's
//! service time: geometry, seek profile, spindle speed, switch times,
//! skews, command overheads and bus rate. Presets are provided for the
//! HP C3325 — the drive the AFRAID paper modelled — and for a trivially
//! simple disk used to make unit tests readable.

use afraid_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::geometry::{Geometry, Zone};
use crate::seek::SeekProfile;

/// Complete parameter set for one disk drive model.
///
/// # Examples
///
/// ```
/// use afraid_disk::model::DiskModel;
///
/// let m = DiskModel::hp_c3325();
/// // 5400 RPM: one revolution every ~11.1 ms.
/// assert!((m.revolution().as_millis_f64() - 11.11).abs() < 0.01);
/// // ~2 GB formatted.
/// let gb = m.geometry.capacity_bytes() as f64 / 1e9;
/// assert!((1.9..2.1).contains(&gb));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DiskModel {
    /// Marketing name, e.g. `"HP C3325"`.
    pub name: String,
    /// Zoned geometry.
    pub geometry: Geometry,
    /// Seek-time curve.
    pub seek: SeekProfile,
    /// Spindle speed in revolutions per minute.
    pub rpm: f64,
    /// Time to switch between heads of one cylinder.
    pub head_switch: SimDuration,
    /// Per-command controller overhead for reads.
    pub read_overhead: SimDuration,
    /// Per-command controller overhead for writes (write settle makes
    /// it slightly larger).
    pub write_overhead: SimDuration,
    /// Track skew in sectors: rotational offset between consecutive
    /// tracks of a cylinder, sized to hide the head switch.
    pub track_skew: u32,
    /// Cylinder skew in sectors: additional offset between the last
    /// track of a cylinder and the first of the next.
    pub cylinder_skew: u32,
}

impl DiskModel {
    /// The HP C3325: 2 GB, 3.5-inch, 5400 RPM SCSI-2 drive.
    ///
    /// Calibration follows the published datasheet class: 2.5 ms
    /// track-to-track, ~10 ms average seek, 22 ms full stroke,
    /// 5400 RPM (11.1 ms revolution), zoned transfer rate of roughly
    /// 3.5–5.5 MB/s, 10 MB/s SCSI-2 bus. The zone table is chosen to
    /// give the drive's 2 GB formatted capacity.
    pub fn hp_c3325() -> Self {
        // 9 data heads, 8 zones, 4310 cylinders. Outer tracks carry 120
        // sectors (5.5 MB/s at 5400 RPM), inner tracks 76 (3.5 MB/s).
        let zones = vec![
            Zone {
                cylinders: 640,
                sectors_per_track: 120,
            },
            Zone {
                cylinders: 600,
                sectors_per_track: 114,
            },
            Zone {
                cylinders: 580,
                sectors_per_track: 108,
            },
            Zone {
                cylinders: 560,
                sectors_per_track: 102,
            },
            Zone {
                cylinders: 540,
                sectors_per_track: 96,
            },
            Zone {
                cylinders: 500,
                sectors_per_track: 88,
            },
            Zone {
                cylinders: 460,
                sectors_per_track: 82,
            },
            Zone {
                cylinders: 430,
                sectors_per_track: 76,
            },
        ];
        let geometry = Geometry::new(9, zones);
        DiskModel {
            name: "HP C3325".to_string(),
            geometry,
            seek: SeekProfile::from_calibration(2.5, 600, 9.5, 4310, 22.0),
            rpm: 5400.0,
            head_switch: SimDuration::from_micros(1_000),
            read_overhead: SimDuration::from_micros(700),
            write_overhead: SimDuration::from_micros(900),
            track_skew: 12,
            cylinder_skew: 20,
        }
    }

    /// An older-generation drive for sensitivity studies: 1 GB,
    /// 3.5-inch, 5400 RPM, in the HP C2247 class (the workstation
    /// drive of \[Ruemmler93\]'s traced systems).
    pub fn hp_c2247() -> Self {
        let zones = vec![
            Zone {
                cylinders: 500,
                sectors_per_track: 96,
            },
            Zone {
                cylinders: 450,
                sectors_per_track: 88,
            },
            Zone {
                cylinders: 420,
                sectors_per_track: 80,
            },
            Zone {
                cylinders: 400,
                sectors_per_track: 72,
            },
            Zone {
                cylinders: 280,
                sectors_per_track: 64,
            },
        ];
        let geometry = Geometry::new(13, zones);
        DiskModel {
            name: "HP C2247".to_string(),
            geometry,
            seek: SeekProfile::from_calibration(2.5, 500, 10.0, 2050, 23.0),
            rpm: 5400.0,
            head_switch: SimDuration::from_micros(1_400),
            read_overhead: SimDuration::from_micros(1_100),
            write_overhead: SimDuration::from_micros(1_300),
            track_skew: 10,
            cylinder_skew: 18,
        }
    }

    /// A faster next-generation drive for sensitivity studies: 4 GB,
    /// 3.5-inch, 7200 RPM, Barracuda-class.
    pub fn barracuda_7200() -> Self {
        let zones = vec![
            Zone {
                cylinders: 900,
                sectors_per_track: 150,
            },
            Zone {
                cylinders: 850,
                sectors_per_track: 140,
            },
            Zone {
                cylinders: 800,
                sectors_per_track: 130,
            },
            Zone {
                cylinders: 750,
                sectors_per_track: 120,
            },
            Zone {
                cylinders: 700,
                sectors_per_track: 110,
            },
            Zone {
                cylinders: 650,
                sectors_per_track: 100,
            },
            Zone {
                cylinders: 600,
                sectors_per_track: 92,
            },
        ];
        let geometry = Geometry::new(12, zones);
        DiskModel {
            name: "Barracuda 7200".to_string(),
            geometry,
            seek: SeekProfile::from_calibration(1.7, 700, 8.0, 5250, 17.0),
            rpm: 7200.0,
            head_switch: SimDuration::from_micros(800),
            read_overhead: SimDuration::from_micros(500),
            write_overhead: SimDuration::from_micros(700),
            track_skew: 16,
            cylinder_skew: 26,
        }
    }

    /// A deliberately simple disk for unit tests: one zone, constant
    /// 100 sectors/track, 4 heads, 100 cylinders, 6000 RPM (10 ms
    /// revolution → 100 µs/sector), zero skew and overhead-free.
    pub fn test_disk() -> Self {
        let geometry = Geometry::new(
            4,
            vec![Zone {
                cylinders: 100,
                sectors_per_track: 100,
            }],
        );
        DiskModel {
            name: "test".to_string(),
            geometry,
            seek: SeekProfile::from_calibration(1.0, 10, 2.0, 100, 5.0),
            rpm: 6000.0,
            head_switch: SimDuration::from_micros(500),
            read_overhead: SimDuration::ZERO,
            write_overhead: SimDuration::ZERO,
            track_skew: 0,
            cylinder_skew: 0,
        }
    }

    /// Duration of one spindle revolution.
    pub fn revolution(&self) -> SimDuration {
        SimDuration::from_secs_f64(60.0 / self.rpm)
    }

    /// Time for one sector to pass under the head on a track with
    /// `spt` sectors.
    pub fn sector_time(&self, spt: u32) -> SimDuration {
        self.revolution() / u64::from(spt)
    }

    /// Media transfer rate (bytes/s) at the given cylinder.
    pub fn media_rate(&self, cyl: u32) -> f64 {
        let spt = self.geometry.sectors_per_track(cyl);
        u64::from(spt) as f64 * crate::SECTOR_BYTES as f64 / self.revolution().as_secs_f64()
    }

    /// Capacity-weighted mean sustained media rate (bytes/s), used for
    /// scrub planning (the paper's "5 MB/s sustained" figure).
    pub fn sustained_rate(&self) -> f64 {
        let mut bytes = 0.0;
        let mut secs = 0.0;
        for z in self.geometry.zones() {
            let tracks = u64::from(z.cylinders) * u64::from(self.geometry.heads());
            let zone_bytes =
                tracks as f64 * u64::from(z.sectors_per_track) as f64 * crate::SECTOR_BYTES as f64;
            bytes += zone_bytes;
            secs += tracks as f64 * self.revolution().as_secs_f64();
        }
        bytes / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c3325_capacity_is_about_2gb() {
        let m = DiskModel::hp_c3325();
        let gb = m.geometry.capacity_bytes() as f64 / 1e9;
        assert!((1.9..2.1).contains(&gb), "capacity {gb} GB");
    }

    #[test]
    fn c3325_revolution_at_5400rpm() {
        let m = DiskModel::hp_c3325();
        let rev_ms = m.revolution().as_millis_f64();
        assert!((rev_ms - 11.111).abs() < 0.01, "rev {rev_ms} ms");
    }

    #[test]
    fn c3325_transfer_rates_span_zones() {
        let m = DiskModel::hp_c3325();
        let outer = m.media_rate(0) / 1e6;
        let inner = m.media_rate(m.geometry.cylinders() - 1) / 1e6;
        assert!(outer > inner, "outer {outer} inner {inner}");
        assert!((5.0..6.0).contains(&outer), "outer rate {outer} MB/s");
        assert!((3.0..4.0).contains(&inner), "inner rate {inner} MB/s");
    }

    #[test]
    fn c3325_sustained_rate_near_5mb() {
        // The paper: "2GB disks that can read at a sustained rate of
        // 5MB/s" (the whole-disk scrub takes ~10 minutes at this rate).
        let m = DiskModel::hp_c3325();
        let rate = m.sustained_rate() / 1e6;
        assert!((4.0..5.6).contains(&rate), "sustained {rate} MB/s");
        let scrub_minutes = m.geometry.capacity_bytes() as f64 / m.sustained_rate() / 60.0;
        assert!(
            (5.0..12.0).contains(&scrub_minutes),
            "scrub {scrub_minutes} min"
        );
    }

    #[test]
    fn sector_time_scales_with_spt() {
        let m = DiskModel::test_disk();
        // 10 ms revolution, 100 sectors/track -> 100 us/sector.
        assert_eq!(m.sector_time(100), SimDuration::from_micros(100));
        assert_eq!(m.sector_time(50), SimDuration::from_micros(200));
    }

    #[test]
    fn test_disk_capacity() {
        let m = DiskModel::test_disk();
        assert_eq!(m.geometry.capacity_sectors(), 100 * 4 * 100);
    }

    #[test]
    fn c2247_is_smaller_and_slower() {
        let old = DiskModel::hp_c2247();
        let new = DiskModel::hp_c3325();
        let gb = old.geometry.capacity_bytes() as f64 / 1e9;
        assert!((0.8..1.3).contains(&gb), "capacity {gb} GB");
        assert!(old.sustained_rate() < new.sustained_rate());
        assert!(old.read_overhead > new.read_overhead);
    }

    #[test]
    fn barracuda_is_bigger_and_faster() {
        let fast = DiskModel::barracuda_7200();
        let base = DiskModel::hp_c3325();
        let gb = fast.geometry.capacity_bytes() as f64 / 1e9;
        assert!((3.5..4.6).contains(&gb), "capacity {gb} GB");
        assert!(fast.revolution() < base.revolution());
        assert!(fast.sustained_rate() > base.sustained_rate() * 1.5);
        let mean = fast
            .seek
            .mean_random(fast.geometry.cylinders())
            .as_millis_f64();
        assert!((6.0..11.0).contains(&mean), "mean seek {mean} ms");
    }

    #[test]
    fn c3325_mean_seek_close_to_spec() {
        let m = DiskModel::hp_c3325();
        let mean = m.seek.mean_random(m.geometry.cylinders()).as_millis_f64();
        assert!((8.0..13.0).contains(&mean), "mean seek {mean} ms");
    }
}
