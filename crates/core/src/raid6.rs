//! RAID 6 + AFRAID (paper §5).
//!
//! "A RAID 6 array keeps two parity blocks for each stripe, and thus
//! pays an even higher penalty for doing small updates than does
//! RAID 5. The AFRAID technique could be combined with the RAID 6
//! parity scheme to delay either or both parity-block updates: if only
//! one was deferred, partial redundancy protection would be available
//! immediately, and full redundancy once the parity-rebuild happened
//! for the other parity block."
//!
//! The paper sketches this in a paragraph; this module makes it
//! quantitative:
//!
//! * write-path cost functions for the four designs (RAID 6, deferred
//!   Q, deferred P+Q, RAID 0);
//! * MTTDL models extending equations 1 and 2a–c to two parities:
//!   a clean RAID 6 stripe needs three failures inside the repair
//!   window to lose data; a Q-stale stripe degrades to RAID 5
//!   arithmetic; a both-stale stripe to a single-failure exposure.

//! # Examples
//!
//! ```
//! use afraid::raid6::{mttdl_defer_both, small_write_ios, Raid6Mode};
//! use afraid_avail::params::ModelParams;
//!
//! // Deferring Q saves a third of the small-write cost...
//! assert_eq!(small_write_ios(Raid6Mode::Full), 6);
//! assert_eq!(small_write_ios(Raid6Mode::DeferQ), 4);
//! // ...while keeping single-failure tolerance at all times.
//! let p = ModelParams::default();
//! assert!(mttdl_defer_both(&p, 4, 0.5, 0.0) > 1.0e9);
//! ```

use afraid_avail::mttdl::combine;
use afraid_avail::params::ModelParams;
use afraid_avail::Hours;
use serde::{Deserialize, Serialize};

/// The four write-path designs of the §5 discussion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Raid6Mode {
    /// Keep both parities consistent in the critical path.
    Full,
    /// Update P in the critical path, defer Q to idle time: partial
    /// (single-failure) protection immediately, full protection after
    /// the Q rebuild.
    DeferQ,
    /// Defer both parities: AFRAID semantics over a RAID 6 layout.
    DeferBoth,
}

/// Disk I/Os in the critical path of a small (single-unit) write.
pub fn small_write_ios(mode: Raid6Mode) -> u32 {
    match mode {
        // Read old data, old P, old Q; write data, P, Q.
        Raid6Mode::Full => 6,
        // Read old data, old P; write data, P.
        Raid6Mode::DeferQ => 4,
        // Write data.
        Raid6Mode::DeferBoth => 1,
    }
}

/// Equation (1) extended to dual parity: data loss needs three disk
/// failures, the second and third inside the repair windows.
///
/// ```text
/// MTTDL = MTTF³ / (N (N+1) (N+2) · MTTR²)
/// ```
///
/// with `n` data disks (the array has `n + 2` spindles).
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn mttdl_raid6_catastrophic(params: &ModelParams, n: u32) -> Hours {
    assert!(n > 0, "RAID 6 needs at least one data disk");
    let mttf = params.mttf_disk();
    mttf * mttf * mttf
        / (f64::from(n) * f64::from(n + 1) * f64::from(n + 2) * params.mttr_disk * params.mttr_disk)
}

/// MTTDL of a defer-both AFRAID/RAID 6: while both parities are stale
/// a single failure loses data (equation 2a's arithmetic over `n + 2`
/// spindles); while only Q is stale, RAID 5 arithmetic; otherwise full
/// RAID 6. `frac_both_stale` must not exceed `frac_q_stale` (P is
/// rebuilt no later than Q). A deferred-Q array is the case
/// `frac_both_stale = 0`: it never loses single-failure tolerance.
///
/// # Panics
///
/// Panics on out-of-range or inconsistent fractions.
pub fn mttdl_defer_both(
    params: &ModelParams,
    n: u32,
    frac_q_stale: f64,
    frac_both_stale: f64,
) -> Hours {
    assert!(
        (0.0..=1.0).contains(&frac_q_stale),
        "stale fraction out of range: {frac_q_stale}"
    );
    assert!(
        (0.0..=1.0).contains(&frac_both_stale) && frac_both_stale <= frac_q_stale,
        "inconsistent stale fractions"
    );
    let unprot = if frac_both_stale == 0.0 {
        f64::INFINITY
    } else {
        params.mttf_disk() / (f64::from(n + 2) * frac_both_stale)
    };
    // The q-only-stale share of time.
    let q_only = frac_q_stale - frac_both_stale;
    let raid5_like = if q_only == 0.0 {
        f64::INFINITY
    } else {
        let mttf = params.mttf_disk();
        mttf * mttf / (f64::from(n + 1) * f64::from(n + 2) * params.mttr_disk) / q_only
    };
    let clean = if frac_q_stale >= 1.0 {
        f64::INFINITY
    } else {
        mttdl_raid6_catastrophic(params, n) / (1.0 - frac_q_stale)
    };
    combine(&[unprot, raid5_like, clean])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> ModelParams {
        ModelParams::default()
    }

    #[test]
    fn small_write_costs_match_the_paper_story() {
        // "A RAID 6 array ... pays an even higher penalty": 6 > 4 I/Os.
        assert_eq!(small_write_ios(Raid6Mode::Full), 6);
        assert_eq!(small_write_ios(Raid6Mode::DeferQ), 4);
        assert_eq!(small_write_ios(Raid6Mode::DeferBoth), 1);
    }

    #[test]
    fn raid6_mttdl_dwarfs_raid5() {
        use afraid_avail::mttdl::mttdl_raid5_catastrophic;
        let r6 = mttdl_raid6_catastrophic(&p(), 4);
        let r5 = mttdl_raid5_catastrophic(&p(), 4);
        assert!(r6 > r5 * 1000.0, "r6 {r6:.2e} r5 {r5:.2e}");
    }

    #[test]
    fn defer_q_interpolates() {
        // Never stale: full RAID 6. Always stale: RAID 5-grade.
        let full = mttdl_defer_both(&p(), 4, 0.0, 0.0);
        assert!((full - mttdl_raid6_catastrophic(&p(), 4)).abs() / full < 1e-12);
        let always = mttdl_defer_both(&p(), 4, 1.0, 0.0);
        let mttf = p().mttf_disk();
        let raid5_like = mttf * mttf / (5.0 * 6.0 * 48.0);
        assert!((always - raid5_like).abs() / always < 1e-9);
        // Monotone in between.
        let mut last = f64::INFINITY;
        for f in [0.0, 0.01, 0.1, 0.5, 1.0] {
            let m = mttdl_defer_both(&p(), 4, f, 0.0);
            assert!(m <= last);
            last = m;
        }
    }

    #[test]
    fn defer_q_keeps_partial_protection() {
        // The §5 selling point: even with Q permanently stale, the
        // array still tolerates any single failure — MTTDL stays far
        // above a single-exposure AFRAID at the same stale fraction.
        let defer_q = mttdl_defer_both(&p(), 4, 0.2, 0.0);
        let afraid_like = afraid_avail::mttdl::mttdl_afraid_unprotected(&p(), 4, 0.2);
        assert!(
            defer_q > afraid_like * 100.0,
            "{defer_q:.2e} vs {afraid_like:.2e}"
        );
    }

    #[test]
    fn defer_both_degenerates_to_afraid_arithmetic() {
        // Both always stale: single-failure exposure over 6 spindles.
        let m = mttdl_defer_both(&p(), 4, 1.0, 1.0);
        let expect = p().mttf_disk() / 6.0;
        assert!((m - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn defer_both_ordering() {
        // For the same exposure fractions: full RAID 6 >= defer-Q >=
        // defer-both >= nothing.
        let f = 0.1;
        let r6 = mttdl_raid6_catastrophic(&p(), 4);
        let dq = mttdl_defer_both(&p(), 4, f, 0.0);
        let db = mttdl_defer_both(&p(), 4, f, f / 2.0);
        assert!(r6 > dq, "{r6:.2e} vs {dq:.2e}");
        assert!(dq > db, "{dq:.2e} vs {db:.2e}");
    }

    #[test]
    #[should_panic(expected = "inconsistent stale fractions")]
    fn defer_both_rejects_inconsistent_fractions() {
        let _ = mttdl_defer_both(&p(), 4, 0.1, 0.2);
    }
}
