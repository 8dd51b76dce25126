//! Glue from simulation measurements to availability numbers.

use afraid_avail::params::ModelParams;
use afraid_avail::report::{
    AvailabilityReport, CorruptionExposure, DesignKind, EvictionExposure, LatentExposure,
};

use crate::config::ArrayConfig;
use crate::metrics::RunMetrics;
use crate::policy::ParityPolicy;

/// The design kind an availability report should use for a policy:
/// `NeverRebuild` is the RAID 0 model, `AlwaysRaid5` a RAID 5 (and so
/// is `ParityLogging`, whose parity plus log is always a full
/// redundancy), and everything else is AFRAID.
pub fn design_kind(policy: ParityPolicy) -> DesignKind {
    match policy {
        ParityPolicy::NeverRebuild => DesignKind::Raid0,
        ParityPolicy::AlwaysRaid5 | ParityPolicy::ParityLogging => DesignKind::Raid5,
        _ => DesignKind::Afraid,
    }
}

/// Latent-error exposure for a finished run, or `None` when the run
/// modelled no latent errors (or the design has no reconstruction to
/// corrupt).
///
/// The dwell — how long an error stays undetected — is half the
/// *measured* mean tour period when the scrubber ran (an error lands
/// uniformly within a tour, so it waits half a tour on average). If
/// scrubbing was enabled but no tour completed, the configured tour
/// period stands in. With scrubbing disabled, errors are found only
/// when the disk dies: dwell is the disk MTTF itself, which saturates
/// the latent term to RAID 0-like exposure.
pub fn latent_exposure(cfg: &ArrayConfig, metrics: &RunMetrics) -> Option<LatentExposure> {
    let rate = cfg.scrub.latent_rate_per_disk_hour;
    if rate <= 0.0 || design_kind(cfg.policy) == DesignKind::Raid0 {
        return None;
    }
    let dwell_hours = if cfg.scrub.enabled {
        let tour_secs = if metrics.scrub_tours > 0 {
            metrics.mean_tour_secs
        } else {
            cfg.scrub.tour_period.as_secs_f64()
        };
        tour_secs / 2.0 / 3600.0
    } else {
        ModelParams::default().mttf_disk()
    };
    Some(LatentExposure {
        rate_per_disk_hour: rate,
        dwell_hours,
    })
}

/// Proactive-eviction exposure for a finished run, or `None` when the
/// health scoreboard never evicted a disk (or the design has no
/// spare/rebuild pipeline). The rate extrapolates the run's eviction
/// count over its span; the window is the mean measured time from an
/// eviction to its rebuild completing.
pub fn eviction_exposure(cfg: &ArrayConfig, metrics: &RunMetrics) -> Option<EvictionExposure> {
    if metrics.evictions == 0 || design_kind(cfg.policy) == DesignKind::Raid0 {
        return None;
    }
    let span_hours = metrics.span.as_secs_f64() / 3600.0;
    if span_hours <= 0.0 {
        return None;
    }
    Some(EvictionExposure {
        rate_per_hour: metrics.evictions as f64 / span_hours,
        window_hours: metrics.evict_exposure_secs / 3600.0 / metrics.evictions as f64,
    })
}

/// Silent-corruption exposure for a finished run, or `None` when no
/// silent faults were injected (or the design's single-failure story
/// already prices disk defects). The rate extrapolates the run's
/// injected-fault count over its span. The unrepairable probability is
/// the measured declared fraction of detections when the run verified
/// reads or scrubs; an unverifying array never repairs anything, so
/// every corruption is eventually a loss (`p = 1`).
pub fn corruption_exposure(cfg: &ArrayConfig, metrics: &RunMetrics) -> Option<CorruptionExposure> {
    let i = &metrics.integrity;
    if i.injected_total() == 0 || design_kind(cfg.policy) == DesignKind::Raid0 {
        return None;
    }
    let span_hours = metrics.span.as_secs_f64() / 3600.0;
    if span_hours <= 0.0 {
        return None;
    }
    let verifying = cfg.integrity.verify_reads || cfg.integrity.verify_scrub;
    let p_unrepairable = if !verifying {
        1.0
    } else if i.detected > 0 {
        i.declared as f64 / i.detected as f64
    } else {
        0.0
    };
    Some(CorruptionExposure {
        rate_per_hour: i.injected_total() as f64 / span_hours,
        p_unrepairable,
    })
}

/// Builds the availability report for a finished run.
pub fn availability(cfg: &ArrayConfig, metrics: &RunMetrics) -> AvailabilityReport {
    let kind = design_kind(cfg.policy);
    let (frac, lag) = match kind {
        DesignKind::Afraid => (metrics.frac_unprotected, metrics.mean_parity_lag_bytes),
        _ => (0.0, 0.0),
    };
    AvailabilityReport::build(
        kind,
        &ModelParams::default(),
        cfg.n_data(),
        frac,
        lag,
        latent_exposure(cfg, metrics),
        eviction_exposure(cfg, metrics),
        corruption_exposure(cfg, metrics),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use afraid_sim::time::SimDuration;

    #[test]
    fn kinds_map_correctly() {
        assert_eq!(design_kind(ParityPolicy::NeverRebuild), DesignKind::Raid0);
        assert_eq!(design_kind(ParityPolicy::AlwaysRaid5), DesignKind::Raid5);
        assert_eq!(design_kind(ParityPolicy::ParityLogging), DesignKind::Raid5);
        assert_eq!(design_kind(ParityPolicy::IdleOnly), DesignKind::Afraid);
        assert_eq!(
            design_kind(ParityPolicy::MttdlTarget { target_hours: 1e6 }),
            DesignKind::Afraid
        );
        assert_eq!(
            design_kind(ParityPolicy::Conservative {
                lag_bound_bytes: 1 << 20
            }),
            DesignKind::Afraid
        );
    }

    fn metrics_with(tours: u64, mean_tour_secs: f64) -> RunMetrics {
        use crate::metrics::MetricsBuilder;
        use afraid_sim::time::SimTime;
        let mut b = MetricsBuilder::new(SimTime::ZERO);
        for _ in 0..tours {
            b.record_tour(SimDuration::from_secs_f64(mean_tour_secs));
        }
        b.finish(SimTime::from_secs(1))
    }

    #[test]
    fn no_latent_rate_means_no_exposure() {
        let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        assert!(latent_exposure(&cfg, &metrics_with(0, 0.0)).is_none());
    }

    #[test]
    fn raid0_never_reports_latent_exposure() {
        let mut cfg = ArrayConfig::small_test(ParityPolicy::NeverRebuild);
        cfg.scrub.latent_rate_per_disk_hour = 1.0;
        assert!(latent_exposure(&cfg, &metrics_with(0, 0.0)).is_none());
    }

    #[test]
    fn unscrubbed_dwell_is_the_disk_mttf() {
        let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        cfg.scrub.latent_rate_per_disk_hour = 1e-4;
        let e = latent_exposure(&cfg, &metrics_with(0, 0.0)).unwrap();
        assert_eq!(e.dwell_hours, ModelParams::default().mttf_disk());
        let r = availability(&cfg, &metrics_with(0, 0.0));
        assert!(r.mttdl_latent.is_finite());
    }

    #[test]
    fn scrubbed_dwell_is_half_the_measured_tour() {
        let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        cfg.scrub.enabled = true;
        cfg.scrub.latent_rate_per_disk_hour = 1e-4;
        let e = latent_exposure(&cfg, &metrics_with(3, 7200.0)).unwrap();
        assert!(
            (e.dwell_hours - 1.0).abs() < 1e-12,
            "dwell {}",
            e.dwell_hours
        );
    }

    #[test]
    fn scrubbed_but_tourless_falls_back_to_configured_period() {
        let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        cfg.scrub.enabled = true;
        cfg.scrub.latent_rate_per_disk_hour = 1e-4;
        cfg.scrub.tour_period = SimDuration::from_secs(7200);
        let e = latent_exposure(&cfg, &metrics_with(0, 0.0)).unwrap();
        assert!(
            (e.dwell_hours - 1.0).abs() < 1e-12,
            "dwell {}",
            e.dwell_hours
        );
    }

    #[test]
    fn no_evictions_means_no_exposure() {
        let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        assert!(eviction_exposure(&cfg, &metrics_with(0, 0.0)).is_none());
    }

    fn metrics_with_eviction() -> RunMetrics {
        use crate::metrics::MetricsBuilder;
        use afraid_sim::time::SimTime;
        let mut b = MetricsBuilder::new(SimTime::ZERO);
        b.record_eviction(SimTime::from_secs(100));
        b.close_eviction(SimTime::from_secs(460));
        b.finish(SimTime::from_secs(3600))
    }

    #[test]
    fn eviction_exposure_uses_measured_rate_and_window() {
        let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        let e = eviction_exposure(&cfg, &metrics_with_eviction()).unwrap();
        assert!((e.rate_per_hour - 1.0).abs() < 1e-12, "{}", e.rate_per_hour);
        assert!(
            (e.window_hours - 0.1).abs() < 1e-12,
            "window {}",
            e.window_hours
        );
        let r = availability(&cfg, &metrics_with_eviction());
        assert!(r.mttdl_evict.is_finite());
        assert!(r.mdlr_evict > 0.0);
    }

    #[test]
    fn raid0_never_reports_eviction_exposure() {
        let cfg = ArrayConfig::small_test(ParityPolicy::NeverRebuild);
        assert!(eviction_exposure(&cfg, &metrics_with_eviction()).is_none());
    }

    fn metrics_with_corruption(injected: u64, detected: u64, declared: u64) -> RunMetrics {
        use crate::integrity::IntegrityCounters;
        use crate::metrics::MetricsBuilder;
        use afraid_sim::time::SimTime;
        let mut b = MetricsBuilder::new(SimTime::ZERO);
        b.run.integrity = IntegrityCounters {
            injected_lost: injected,
            detected,
            repaired: detected - declared,
            declared,
            ..IntegrityCounters::default()
        };
        b.finish(SimTime::from_secs(3600))
    }

    #[test]
    fn no_injection_means_no_corruption_exposure() {
        let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        assert!(corruption_exposure(&cfg, &metrics_with(0, 0.0)).is_none());
    }

    #[test]
    fn corruption_exposure_uses_measured_rate_and_declared_fraction() {
        let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        cfg.integrity.verify_reads = true;
        let m = metrics_with_corruption(10, 8, 2);
        let e = corruption_exposure(&cfg, &m).unwrap();
        assert!(
            (e.rate_per_hour - 10.0).abs() < 1e-12,
            "{}",
            e.rate_per_hour
        );
        assert!(
            (e.p_unrepairable - 0.25).abs() < 1e-12,
            "{}",
            e.p_unrepairable
        );
        let r = availability(&cfg, &m);
        assert!(r.mttdl_corrupt.is_finite());
        assert!(r.mdlr_corrupt > 0.0);
    }

    #[test]
    fn unverified_corruption_is_always_lost() {
        // No verification: nothing is detected, and the model charges
        // every injected fault as an eventual loss.
        let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        let e = corruption_exposure(&cfg, &metrics_with_corruption(10, 0, 0))
            .unwrap_or_else(|| panic!("injection with no verification must still report exposure"));
        assert_eq!(e.p_unrepairable, 1.0);
    }

    #[test]
    fn raid0_never_reports_corruption_exposure() {
        let cfg = ArrayConfig::small_test(ParityPolicy::NeverRebuild);
        assert!(corruption_exposure(&cfg, &metrics_with_corruption(10, 8, 2)).is_none());
    }

    #[test]
    fn scrubbing_lifts_the_latent_mttdl() {
        let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        cfg.scrub.latent_rate_per_disk_hour = 1e-4;
        let unscrubbed = availability(&cfg, &metrics_with(0, 0.0));
        cfg.scrub.enabled = true;
        let scrubbed = availability(&cfg, &metrics_with(2, 600.0));
        assert!(
            scrubbed.mttdl_latent > unscrubbed.mttdl_latent * 2.0,
            "scrubbed {} unscrubbed {}",
            scrubbed.mttdl_latent,
            unscrubbed.mttdl_latent
        );
    }
}
