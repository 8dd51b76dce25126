//! Combined availability reports.
//!
//! [`AvailabilityReport`] turns measured simulation outputs (fraction
//! of time unprotected, mean parity lag) plus the Table 1 parameters
//! into the numbers the paper's Tables 3 and 4 report: disk-related
//! and overall MTTDL, and the MDLR breakdown.

use serde::{Deserialize, Serialize};

use crate::mdlr::{
    mdlr_corrupt, mdlr_evict, mdlr_latent, mdlr_raid0, mdlr_raid5_catastrophic, mdlr_support,
    mdlr_unprotected,
};
use crate::mttdl::{
    combine, mttdl_afraid, mttdl_corrupt, mttdl_evict, mttdl_latent, mttdl_raid0,
    mttdl_raid5_catastrophic,
};
use crate::params::ModelParams;
use crate::{BytesPerHour, Hours};

/// Latent-sector-error exposure inputs for the availability model.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LatentExposure {
    /// Latent error arrival rate per disk per hour.
    pub rate_per_disk_hour: f64,
    /// Mean time an error stays undetected, hours. With tour
    /// scrubbing this is half the measured tour period; without, it
    /// is effectively the disk MTTF (errors are found only when the
    /// disk dies).
    pub dwell_hours: f64,
}

/// Proactive-eviction exposure inputs for the availability model: how
/// often the health scoreboard retires a disk, and how long each
/// retirement leaves the array degraded until the rebuild completes.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EvictionExposure {
    /// Evictions per hour.
    pub rate_per_hour: f64,
    /// Mean hours an eviction's degraded window stays open.
    pub window_hours: f64,
}

/// Silent-corruption exposure inputs for the availability model: how
/// often disks lie, and how often a lie cannot be undone.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CorruptionExposure {
    /// Array-wide silent-fault arrival rate, per hour.
    pub rate_per_hour: f64,
    /// Probability a corruption is unrepairable when it surfaces —
    /// the measured declared fraction of detections under
    /// verification, or 1 for an array that never verifies.
    pub p_unrepairable: f64,
}

/// Which array design a report describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DesignKind {
    /// Unprotected striping.
    Raid0,
    /// Traditional always-redundant RAID 5.
    Raid5,
    /// Deferred-parity AFRAID (any policy).
    Afraid,
}

/// Availability metrics for one (design, workload, policy) run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AvailabilityReport {
    /// Which design.
    pub design: DesignKind,
    /// Number of data disks (array has `n_data + 1` spindles for the
    /// parity designs, `n_data + 1` striped spindles for RAID 0, so
    /// that capacities match).
    pub n_data: u32,
    /// Measured fraction of time with at least one unprotected stripe.
    pub frac_unprotected: f64,
    /// Measured mean parity lag, bytes.
    pub mean_parity_lag: f64,
    /// Disk-related mean time to data loss, hours.
    pub mttdl_disk: Hours,
    /// Overall MTTDL including support components, hours.
    pub mttdl_overall: Hours,
    /// Disk-related MDLR, bytes/hour.
    pub mdlr_disk: BytesPerHour,
    /// MDLR contribution of unprotected data alone, bytes/hour.
    pub mdlr_unprotected: BytesPerHour,
    /// Overall MDLR including support components, bytes/hour.
    pub mdlr_overall: BytesPerHour,
    /// MTTDL of the latent-sector-error mode alone, hours (infinite
    /// when no latent exposure was supplied).
    pub mttdl_latent: Hours,
    /// MDLR of the latent-sector-error mode alone, bytes/hour.
    pub mdlr_latent: BytesPerHour,
    /// MTTDL of the proactive-eviction mode alone, hours (infinite
    /// when no eviction exposure was supplied).
    pub mttdl_evict: Hours,
    /// MDLR of the proactive-eviction mode alone, bytes/hour.
    pub mdlr_evict: BytesPerHour,
    /// MTTDL of the silent-corruption mode alone, hours (infinite
    /// when no corruption exposure was supplied).
    pub mttdl_corrupt: Hours,
    /// MDLR of the silent-corruption mode alone, bytes/hour.
    pub mdlr_corrupt: BytesPerHour,
}

impl AvailabilityReport {
    /// Builds the report for a design with `n_data` data disks.
    ///
    /// For RAID 0 the unprotected inputs are ignored (the whole array
    /// is permanently unprotected by construction). For RAID 5 they
    /// must be zero. For AFRAID they are the simulation measurements.
    ///
    /// # Panics
    ///
    /// Panics if RAID 5 is passed non-zero unprotected measurements.
    pub fn build(
        design: DesignKind,
        params: &ModelParams,
        n_data: u32,
        frac_unprotected: f64,
        mean_parity_lag: f64,
    ) -> AvailabilityReport {
        Self::build_with_latent(
            design,
            params,
            n_data,
            frac_unprotected,
            mean_parity_lag,
            None,
        )
    }

    /// Like [`build`](Self::build), additionally folding a
    /// latent-sector-error exposure into the disk-related figures.
    ///
    /// The latent mode applies to the parity designs only (RAID 0 has
    /// no reconstruction to corrupt; its data-loss story is already a
    /// single-failure one), and is ignored there.
    ///
    /// # Panics
    ///
    /// As [`build`](Self::build).
    pub fn build_with_latent(
        design: DesignKind,
        params: &ModelParams,
        n_data: u32,
        frac_unprotected: f64,
        mean_parity_lag: f64,
        latent: Option<LatentExposure>,
    ) -> AvailabilityReport {
        Self::build_with_exposures(
            design,
            params,
            n_data,
            frac_unprotected,
            mean_parity_lag,
            latent,
            None,
        )
    }

    /// Like [`build_with_latent`](Self::build_with_latent),
    /// additionally folding a proactive-eviction exposure — the
    /// degraded windows a health scoreboard opens by retiring
    /// fail-slow disks — into the disk-related figures.
    ///
    /// Like the latent mode, eviction applies to the parity designs
    /// only: a RAID 0 has no spare/rebuild pipeline to evict into.
    ///
    /// # Panics
    ///
    /// As [`build`](Self::build).
    pub fn build_with_exposures(
        design: DesignKind,
        params: &ModelParams,
        n_data: u32,
        frac_unprotected: f64,
        mean_parity_lag: f64,
        latent: Option<LatentExposure>,
        evict: Option<EvictionExposure>,
    ) -> AvailabilityReport {
        Self::build_with_corruption(
            design,
            params,
            n_data,
            frac_unprotected,
            mean_parity_lag,
            latent,
            evict,
            None,
        )
    }

    /// Like [`build_with_exposures`](Self::build_with_exposures),
    /// additionally folding a silent-corruption exposure — disks that
    /// acknowledge writes while storing the wrong bytes — into the
    /// disk-related figures.
    ///
    /// Corruption applies to the parity designs only: RAID 0's
    /// single-failure story already prices every disk defect as a
    /// total loss, so a separate lying-disk term would double-count.
    ///
    /// # Panics
    ///
    /// As [`build`](Self::build).
    #[expect(clippy::too_many_arguments, reason = "one input per term of the model")]
    pub fn build_with_corruption(
        design: DesignKind,
        params: &ModelParams,
        n_data: u32,
        frac_unprotected: f64,
        mean_parity_lag: f64,
        latent: Option<LatentExposure>,
        evict: Option<EvictionExposure>,
        corrupt: Option<CorruptionExposure>,
    ) -> AvailabilityReport {
        let disks = n_data + 1;
        let (mttdl_disk, mdlr_disk, mdlr_unprot, frac, lag) = match design {
            DesignKind::Raid0 => {
                let mttdl = mttdl_raid0(params, disks);
                (mttdl, mdlr_raid0(params, disks), 0.0, 1.0, f64::NAN)
            }
            DesignKind::Raid5 => {
                assert!(
                    frac_unprotected == 0.0 && mean_parity_lag == 0.0,
                    "RAID 5 cannot have unprotected data"
                );
                (
                    mttdl_raid5_catastrophic(params, n_data),
                    mdlr_raid5_catastrophic(params, n_data),
                    0.0,
                    0.0,
                    0.0,
                )
            }
            DesignKind::Afraid => {
                let unprot = mdlr_unprotected(params, n_data, mean_parity_lag);
                (
                    mttdl_afraid(params, n_data, frac_unprotected),
                    mdlr_raid5_catastrophic(params, n_data) + unprot,
                    unprot,
                    frac_unprotected,
                    mean_parity_lag,
                )
            }
        };
        let (mttdl_lat, mdlr_lat) = match (design, latent) {
            (DesignKind::Raid0, _) | (_, None) => (f64::INFINITY, 0.0),
            (_, Some(l)) => (
                mttdl_latent(params, n_data, l.rate_per_disk_hour, l.dwell_hours),
                mdlr_latent(params, n_data, l.rate_per_disk_hour, l.dwell_hours),
            ),
        };
        let (mttdl_ev, mdlr_ev) = match (design, evict) {
            (DesignKind::Raid0, _) | (_, None) => (f64::INFINITY, 0.0),
            (_, Some(e)) => (
                mttdl_evict(params, n_data, e.rate_per_hour, e.window_hours),
                mdlr_evict(params, n_data, e.rate_per_hour, e.window_hours),
            ),
        };
        let (mttdl_cor, mdlr_cor) = match (design, corrupt) {
            (DesignKind::Raid0, _) | (_, None) => (f64::INFINITY, 0.0),
            (_, Some(c)) => (
                mttdl_corrupt(c.rate_per_hour, c.p_unrepairable),
                mdlr_corrupt(params, c.rate_per_hour, c.p_unrepairable),
            ),
        };
        let mut mttdl_disk = mttdl_disk;
        for extra in [mttdl_lat, mttdl_ev, mttdl_cor] {
            if extra.is_finite() {
                mttdl_disk = combine(&[mttdl_disk, extra]);
            }
        }
        let mdlr_disk = mdlr_disk + mdlr_lat + mdlr_ev + mdlr_cor;
        let mttdl_overall = combine(&[mttdl_disk, params.mttdl_support]);
        let mdlr_overall = mdlr_disk + mdlr_support(params, n_data, params.mttdl_support);
        AvailabilityReport {
            design,
            n_data,
            frac_unprotected: frac,
            mean_parity_lag: lag,
            mttdl_disk,
            mttdl_overall,
            mdlr_disk,
            mdlr_unprotected: mdlr_unprot,
            mdlr_overall,
            mttdl_latent: mttdl_lat,
            mdlr_latent: mdlr_lat,
            mttdl_evict: mttdl_ev,
            mdlr_evict: mdlr_ev,
            mttdl_corrupt: mttdl_cor,
            mdlr_corrupt: mdlr_cor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> ModelParams {
        ModelParams::default()
    }

    #[test]
    fn raid5_report() {
        let r = AvailabilityReport::build(DesignKind::Raid5, &p(), 4, 0.0, 0.0);
        assert!((4.0e9..4.4e9).contains(&r.mttdl_disk));
        // Overall is support-limited.
        assert!(
            (1.99e6..2.01e6).contains(&r.mttdl_overall),
            "{:.3e}",
            r.mttdl_overall
        );
        assert!(r.mdlr_unprotected == 0.0);
    }

    #[test]
    fn raid0_report() {
        let r = AvailabilityReport::build(DesignKind::Raid0, &p(), 4, 0.0, 0.0);
        assert_eq!(r.mttdl_disk, 2.0e6 / 5.0);
        assert!(r.mttdl_overall < r.mttdl_disk);
        assert_eq!(r.frac_unprotected, 1.0);
    }

    #[test]
    fn afraid_sits_between() {
        let r5 = AvailabilityReport::build(DesignKind::Raid5, &p(), 4, 0.0, 0.0);
        let r0 = AvailabilityReport::build(DesignKind::Raid0, &p(), 4, 0.0, 0.0);
        let af = AvailabilityReport::build(DesignKind::Afraid, &p(), 4, 0.05, 64.0 * 1024.0);
        assert!(af.mttdl_disk < r5.mttdl_disk);
        assert!(af.mttdl_disk > r0.mttdl_disk);
        assert!(af.mdlr_disk > r5.mdlr_disk);
        assert!(af.mdlr_disk < r0.mdlr_disk);
    }

    #[test]
    fn afraid_mdlr_dominated_by_support() {
        // Table 3's message: MDLR_unprotected under a byte per hour,
        // overall MDLR ~4 KB/hour from support.
        let af = AvailabilityReport::build(DesignKind::Afraid, &p(), 4, 0.05, 100.0 * 1024.0);
        assert!(af.mdlr_unprotected < 1.0);
        assert!(af.mdlr_overall > 3_900.0);
    }

    #[test]
    fn overall_mttdl_support_limited_for_modest_fractions() {
        // Table 4's message: support (2M h) limits overall MTTDL for
        // all but the busiest workloads.
        let af = AvailabilityReport::build(DesignKind::Afraid, &p(), 4, 0.02, 0.0);
        // Disk-related: 2e6/(5*0.02) = 2e7 h >> 2e6 support.
        assert!(
            (1.7e6..2.0e6).contains(&af.mttdl_overall),
            "{:.3e}",
            af.mttdl_overall
        );
    }

    #[test]
    #[should_panic(expected = "RAID 5 cannot have unprotected data")]
    fn raid5_rejects_unprotected_inputs() {
        let _ = AvailabilityReport::build(DesignKind::Raid5, &p(), 4, 0.1, 0.0);
    }

    #[test]
    fn no_latent_exposure_means_infinite_latent_term() {
        let r = AvailabilityReport::build(DesignKind::Afraid, &p(), 4, 0.05, 0.0);
        assert_eq!(r.mttdl_latent, f64::INFINITY);
        assert_eq!(r.mdlr_latent, 0.0);
    }

    #[test]
    fn latent_exposure_degrades_the_disk_figures() {
        let clean = AvailabilityReport::build(DesignKind::Afraid, &p(), 4, 0.05, 0.0);
        let exposed = AvailabilityReport::build_with_latent(
            DesignKind::Afraid,
            &p(),
            4,
            0.05,
            0.0,
            Some(LatentExposure {
                rate_per_disk_hour: 1e-4,
                dwell_hours: 1.0,
            }),
        );
        assert!(exposed.mttdl_latent.is_finite());
        assert!(exposed.mttdl_disk < clean.mttdl_disk);
        assert!(exposed.mdlr_disk > clean.mdlr_disk);
    }

    #[test]
    fn scrubbing_improves_the_latent_term() {
        let build = |dwell: f64| {
            AvailabilityReport::build_with_latent(
                DesignKind::Afraid,
                &p(),
                4,
                0.05,
                0.0,
                Some(LatentExposure {
                    rate_per_disk_hour: 1e-4,
                    dwell_hours: dwell,
                }),
            )
        };
        // Unscrubbed dwell ~ MTTF vs a half-hour tour: orders of
        // magnitude apart.
        let unscrubbed = build(p().mttf_disk());
        let scrubbed = build(0.25);
        assert!(scrubbed.mttdl_latent > unscrubbed.mttdl_latent * 100.0);
    }

    #[test]
    fn eviction_exposure_degrades_the_disk_figures() {
        let clean = AvailabilityReport::build(DesignKind::Afraid, &p(), 4, 0.05, 0.0);
        let exposed = AvailabilityReport::build_with_exposures(
            DesignKind::Afraid,
            &p(),
            4,
            0.05,
            0.0,
            None,
            Some(EvictionExposure {
                rate_per_hour: 1e-2,
                window_hours: 2.0,
            }),
        );
        assert!(exposed.mttdl_evict.is_finite());
        assert!(exposed.mttdl_disk < clean.mttdl_disk);
        assert!(exposed.mdlr_disk > clean.mdlr_disk);
        assert_eq!(clean.mttdl_evict, f64::INFINITY);
        assert_eq!(clean.mdlr_evict, 0.0);
    }

    #[test]
    fn raid0_ignores_eviction_exposure() {
        let r = AvailabilityReport::build_with_exposures(
            DesignKind::Raid0,
            &p(),
            4,
            0.0,
            0.0,
            None,
            Some(EvictionExposure {
                rate_per_hour: 1.0,
                window_hours: 1.0,
            }),
        );
        assert_eq!(r.mttdl_evict, f64::INFINITY);
        assert_eq!(r.mdlr_evict, 0.0);
    }

    #[test]
    fn corruption_exposure_degrades_the_disk_figures() {
        let clean = AvailabilityReport::build(DesignKind::Afraid, &p(), 4, 0.05, 0.0);
        let exposed = AvailabilityReport::build_with_corruption(
            DesignKind::Afraid,
            &p(),
            4,
            0.05,
            0.0,
            None,
            None,
            Some(CorruptionExposure {
                rate_per_hour: 1e-2,
                p_unrepairable: 0.3,
            }),
        );
        assert!(exposed.mttdl_corrupt.is_finite());
        assert!(exposed.mttdl_disk < clean.mttdl_disk);
        assert!(exposed.mdlr_disk > clean.mdlr_disk);
        assert_eq!(clean.mttdl_corrupt, f64::INFINITY);
        assert_eq!(clean.mdlr_corrupt, 0.0);
    }

    #[test]
    fn fully_repairing_verification_pays_nothing() {
        // Everything detected is repaired: p_unrepairable 0 and the
        // corruption term vanishes however fast the disks lie.
        let r = AvailabilityReport::build_with_corruption(
            DesignKind::Raid5,
            &p(),
            4,
            0.0,
            0.0,
            None,
            None,
            Some(CorruptionExposure {
                rate_per_hour: 100.0,
                p_unrepairable: 0.0,
            }),
        );
        assert_eq!(r.mttdl_corrupt, f64::INFINITY);
        assert_eq!(r.mdlr_corrupt, 0.0);
    }

    #[test]
    fn raid0_ignores_corruption_exposure() {
        let r = AvailabilityReport::build_with_corruption(
            DesignKind::Raid0,
            &p(),
            4,
            0.0,
            0.0,
            None,
            None,
            Some(CorruptionExposure {
                rate_per_hour: 1.0,
                p_unrepairable: 1.0,
            }),
        );
        assert_eq!(r.mttdl_corrupt, f64::INFINITY);
        assert_eq!(r.mdlr_corrupt, 0.0);
    }

    #[test]
    fn raid0_ignores_latent_exposure() {
        let r = AvailabilityReport::build_with_latent(
            DesignKind::Raid0,
            &p(),
            4,
            0.0,
            0.0,
            Some(LatentExposure {
                rate_per_disk_hour: 1.0,
                dwell_hours: 1.0,
            }),
        );
        assert_eq!(r.mttdl_latent, f64::INFINITY);
        assert_eq!(r.mdlr_latent, 0.0);
    }
}
