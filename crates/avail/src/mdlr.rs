//! Mean data loss rate (paper §3.2, equations 3–5).

use crate::mttdl::{
    mttdl_corrupt, mttdl_evict, mttdl_latent, mttdl_raid0, mttdl_raid5_catastrophic,
};
use crate::params::ModelParams;
use crate::{BytesPerHour, Hours};

/// Equation (3): catastrophic MDLR of a RAID 5 — a dual-disk failure
/// loses two disks' worth of stored blocks, of which `N/(N+1)` held
/// data rather than parity.
///
/// ```text
/// MDLR = 2·Vdisk · N/(N+1) · 1/MTTDL_RAID_catastrophic
/// ```
pub fn mdlr_raid5_catastrophic(params: &ModelParams, n: u32) -> BytesPerHour {
    2.0 * params.disk_bytes as f64 * f64::from(n)
        / f64::from(n + 1)
        / mttdl_raid5_catastrophic(params, n)
}

/// MDLR of an unprotected array: each single-disk failure loses one
/// disk's worth of data.
pub fn mdlr_raid0(params: &ModelParams, disks: u32) -> BytesPerHour {
    params.disk_bytes as f64 / mttdl_raid0(params, disks)
}

/// Equation (4): AFRAID's extra loss mode. While stripes are
/// unprotected, a single-disk failure loses one stripe unit per
/// unredundant stripe — on average `mean_parity_lag / N` bytes (the
/// lag counts all unprotected non-parity data; the failed disk holds
/// `1/N` of it) — at the total disk failure rate `(N+1)/MTTFdisk`.
///
/// ```text
/// MDLR_unprot = (mean_parity_lag / N) · (N+1)/MTTFdisk
/// ```
///
/// `mean_parity_lag` is the *time-averaged* amount of unredundant
/// non-parity data in bytes, measured from the simulation.
///
/// # Panics
///
/// Panics if `mean_parity_lag` is negative.
pub fn mdlr_unprotected(params: &ModelParams, n: u32, mean_parity_lag: f64) -> BytesPerHour {
    assert!(mean_parity_lag >= 0.0, "negative parity lag");
    (mean_parity_lag / f64::from(n)) * f64::from(n + 1) / params.mttf_disk()
}

/// Equation (5): total disk-related MDLR of an AFRAID array.
pub fn mdlr_afraid(params: &ModelParams, n: u32, mean_parity_lag: f64) -> BytesPerHour {
    mdlr_raid5_catastrophic(params, n) + mdlr_unprotected(params, n, mean_parity_lag)
}

/// MDLR of the latent-sector-error loss mode: when a disk failure
/// coincides with an undetected bad sector on a survivor, roughly one
/// stripe unit around the bad sector is unreconstructable. The event
/// rate is `1/MTTDL_latent` (see
/// [`mttdl_latent`]); each event costs
/// `stripe_unit` bytes. Zero when the latent term is infinite.
pub fn mdlr_latent(
    params: &ModelParams,
    n: u32,
    rate_per_disk_hour: f64,
    dwell_hours: f64,
) -> BytesPerHour {
    let mttdl = mttdl_latent(params, n, rate_per_disk_hour, dwell_hours);
    if mttdl.is_infinite() {
        return 0.0;
    }
    params.stripe_unit as f64 / mttdl
}

/// MDLR of the proactive-eviction loss mode: a survivor failing
/// inside an eviction's rebuild window loses (conservatively) the
/// evicted disk's worth of not-yet-rebuilt data. The event rate is
/// `1/MTTDL_evict` (see [`mttdl_evict`]).
/// Zero when the eviction term is infinite.
pub fn mdlr_evict(
    params: &ModelParams,
    n: u32,
    rate_per_hour: f64,
    window_hours: f64,
) -> BytesPerHour {
    let mttdl = mttdl_evict(params, n, rate_per_hour, window_hours);
    if mttdl.is_infinite() {
        return 0.0;
    }
    params.disk_bytes as f64 / mttdl
}

/// MDLR of the silent-corruption loss mode: each unrepairable
/// corruption costs roughly one stripe unit (the rotted data unit).
/// The event rate is `1/MTTDL_corrupt` (see
/// [`mttdl_corrupt`]). Zero when the
/// corruption term is infinite.
pub fn mdlr_corrupt(params: &ModelParams, rate_per_hour: f64, p_unrepairable: f64) -> BytesPerHour {
    let mttdl = mttdl_corrupt(rate_per_hour, p_unrepairable);
    if mttdl.is_infinite() {
        return 0.0;
    }
    params.stripe_unit as f64 / mttdl
}

/// MDLR contributed by support components: losing the array loses all
/// its data, at the support failure rate.
pub fn mdlr_support(params: &ModelParams, n: u32, mttdl_support: Hours) -> BytesPerHour {
    params.disk_bytes as f64 * f64::from(n) / mttdl_support
}

/// MDLR of a single-copy NVRAM holding `bytes` of dirty data with the
/// given MTTF (paper §3.4: the PrestoServe comparison).
pub fn mdlr_nvram(bytes: u64, mttf: Hours) -> BytesPerHour {
    bytes as f64 / mttf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> ModelParams {
        ModelParams::default()
    }

    #[test]
    fn paper_raid5_mdlr() {
        // "The RAID 5 array we considered earlier would have a MDLR of
        // ~0.8 bytes/hour from this failure mode."
        let m = mdlr_raid5_catastrophic(&p(), 4);
        assert!((0.7..0.9).contains(&m), "mdlr {m}");
    }

    #[test]
    fn paper_support_mdlr() {
        // "With a 2M hour MTTDL, our 5-disk array would suffer a MDLR
        // of 4.0KB/hour" (8 GB of data / 2e6 h).
        let m = mdlr_support(&p(), 4, 2.0e6);
        assert!((3_900.0..4_100.0).contains(&m), "mdlr {m}");
    }

    #[test]
    fn paper_gibson_support_mdlr() {
        // "using the 150k hour figure from [Gibson93] would increase
        // this to 53KB/hour."
        let m = mdlr_support(&p(), 4, 150_000.0);
        assert!((52_000.0..55_000.0).contains(&m), "mdlr {m}");
    }

    #[test]
    fn paper_prestoserve_mdlr() {
        // "the popular PrestoServe card has a predicted MTTF of 15k
        // hours; with 1MB of vulnerable data, this corresponds to an
        // MDLR of 67 bytes/hour."
        let m = mdlr_nvram(1_000_000, 15_000.0);
        assert!((66.0..68.0).contains(&m), "mdlr {m}");
    }

    #[test]
    fn paper_single_disk_mdlr() {
        // "If it held 2GB, its mean data loss rate would be 2-4KB/hour"
        // (for MTTF 0.5-1.0e6 raw; the paper quotes the raw rate here).
        let lo = 2.0e9 / 1.0e6;
        let hi = 2.0e9 / 0.5e6;
        assert_eq!(lo, 2000.0);
        assert_eq!(hi, 4000.0);
    }

    #[test]
    fn zero_lag_means_raid5_mdlr() {
        assert_eq!(mdlr_afraid(&p(), 4, 0.0), mdlr_raid5_catastrophic(&p(), 4));
    }

    #[test]
    fn unprotected_mdlr_scales_linearly_with_lag() {
        let one = mdlr_unprotected(&p(), 4, 1.0e6);
        let ten = mdlr_unprotected(&p(), 4, 1.0e7);
        assert!((ten / one - 10.0).abs() < 1e-9);
    }

    #[test]
    fn small_lag_mdlr_is_tiny() {
        // Table 3's headline: with a mean parity lag of ~100 KB the
        // unprotected MDLR is well under a byte per hour.
        let m = mdlr_unprotected(&p(), 4, 100.0 * 1024.0);
        assert!(m < 1.0, "mdlr {m}");
        // And utterly dominated by the support MDLR.
        assert!(m < mdlr_support(&p(), 4, 2.0e6) / 1000.0);
    }

    #[test]
    fn raid0_mdlr() {
        // 5 disks, effective MTTF 2e6 h: failures at 2.5e-6/h, each
        // losing 2 GB.
        let m = mdlr_raid0(&p(), 5);
        assert!((4_999.0..5_001.0).contains(&m), "mdlr {m}");
    }

    #[test]
    fn latent_mdlr_zero_when_clean() {
        assert_eq!(mdlr_latent(&p(), 4, 0.0, 1.0), 0.0);
        assert_eq!(mdlr_latent(&p(), 4, 1e-6, 0.0), 0.0);
    }

    #[test]
    fn evict_mdlr_zero_when_no_evictions() {
        assert_eq!(mdlr_evict(&p(), 4, 0.0, 1.0), 0.0);
        assert_eq!(mdlr_evict(&p(), 4, 1e-4, 0.0), 0.0);
    }

    #[test]
    fn evict_mdlr_charges_a_disk_per_event() {
        // Rate 1e-4/h, window 2 h: event rate 1e-4 · 8/2e6 = 4e-10/h,
        // each costing one 2 GB disk → 0.8 bytes/hour.
        let m = mdlr_evict(&p(), 4, 1e-4, 2.0);
        assert!((m - 0.8).abs() < 1e-9, "mdlr {m}");
    }

    #[test]
    fn latent_mdlr_scales_with_dwell_until_saturation() {
        let short = mdlr_latent(&p(), 4, 1e-6, 1.0);
        let long = mdlr_latent(&p(), 4, 1e-6, 10.0);
        assert!((long / short - 10.0).abs() < 1e-9);
        // Saturated (unscrubbed) case: one stripe unit per
        // latent-coincident failure, at the RAID 0-like event rate.
        let sat = mdlr_latent(&p(), 4, 1e-3, p().mttf_disk());
        let expect = p().stripe_unit as f64 * 5.0 / p().mttf_disk();
        assert!((sat - expect).abs() < 1e-12, "sat {sat} expect {expect}");
    }
}
