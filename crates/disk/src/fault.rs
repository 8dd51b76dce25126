//! Transient per-I/O fault injection: media errors, command timeouts,
//! and fail-slow service inflation.
//!
//! Real disks rarely die cleanly. The dominant partial failure modes
//! are transient media errors (a command fails once and succeeds on
//! retry), command timeouts (the drive goes unresponsive for one
//! command), and fail-slow "limping" (electronics or remapping
//! trouble inflates every service time for a while). The
//! [`FaultInjector`] models all three deterministically:
//!
//! * each disk owns its own [`SplitMix64`] stream, forked from one
//!   master seed, so per-disk fault histories are independent yet
//!   reproducible;
//! * media-error and timeout draws are Bernoulli per *attempt*, so a
//!   controller retry redraws — exactly the transient semantics;
//! * the fail-slow window is a fixed `[start, until)` interval during
//!   which mechanical service times are multiplied by a factor; a
//!   slow command whose service exceeds the command timeout reports
//!   [`IoOutcome::Timeout`], which is how a health monitor watching
//!   the error stream notices a limping disk.
//!
//! With both rates zero and no window configured the injector draws
//! no random numbers and changes no completion time, so a faultless
//! run is bit-identical with or without it.
//!
//! Beyond the *reported* faults, the injector also models the silent
//! classes — bit-flip reads, torn writes, lost writes, and misdirected
//! writes ([`SilentProfile`]) — where the drive answers `Ok` while the
//! bytes are wrong. Silent draws come from a second, independent
//! `SplitMix64` stream so enabling them never perturbs the transient
//! fault history, and zero rates again draw nothing. The injector only
//! decides *that* a silent fault fired; the array layer above owns the
//! content model and applies the effect.

use afraid_sim::rng::SplitMix64;
use afraid_sim::time::{SimDuration, SimTime};

/// What became of one submitted disk command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoOutcome {
    /// Completed successfully at the given instant.
    Ok(SimTime),
    /// An unrecoverable-at-the-drive media error, reported at the
    /// given instant (the drive ground through its full service and
    /// internal retries before giving up).
    MediaError(SimTime),
    /// The command exceeded the command timeout; the controller hears
    /// nothing until it gives up at the given instant.
    Timeout(SimTime),
    /// The disk is failed outright: no I/O was attempted.
    Failed,
}

impl IoOutcome {
    /// The completion time of a successful command.
    ///
    /// # Panics
    ///
    /// Panics if the command did not succeed — for callers that model
    /// fault-free disks and want the old infallible-submit ergonomics.
    #[expect(clippy::panic, reason = "the documented contract of this helper")]
    pub fn expect_ok(self) -> SimTime {
        match self {
            IoOutcome::Ok(t) => t,
            other => panic!("disk I/O did not succeed: {other:?}"),
        }
    }

    /// True for [`IoOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, IoOutcome::Ok(_))
    }

    /// The instant the outcome is reported to the controller, if any
    /// I/O was attempted at all.
    pub fn report_at(&self) -> Option<SimTime> {
        match self {
            IoOutcome::Ok(t) | IoOutcome::MediaError(t) | IoOutcome::Timeout(t) => Some(*t),
            IoOutcome::Failed => None,
        }
    }
}

/// Per-attempt fault rates and the command timeout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProfile {
    /// Probability one attempt reports a transient media error.
    pub media_error_per_io: f64,
    /// Probability one attempt hangs until the command timeout.
    pub timeout_per_io: f64,
    /// Service beyond this reports [`IoOutcome::Timeout`]; also how
    /// long a hung command occupies the drive.
    pub command_timeout: SimDuration,
}

/// A fail-slow window: service times multiply by `factor` for
/// commands starting in `[start, until)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailSlowWindow {
    /// First instant of the limp.
    pub start: SimTime,
    /// End of the limp (exclusive).
    pub until: SimTime,
    /// Service-time multiplier (>= 1).
    pub factor: f64,
}

/// What one fault draw produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// No fault: the command proceeds normally.
    None,
    /// Transient media error.
    MediaError,
    /// The drive hangs on this command.
    Timeout,
}

/// Per-I/O rates for the *silent* fault classes: commands the drive
/// acknowledges with `Ok` status while returning or persisting wrong
/// bytes. These are the lying-disk modes a checksum layer exists to
/// catch — the drive itself never reports them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SilentProfile {
    /// Probability one read returns flipped bits (transient: the
    /// platter is fine, only the transferred copy is wrong).
    pub bit_flip_per_read: f64,
    /// Probability one write persists only part of its payload.
    pub torn_write_per_io: f64,
    /// Probability one write is acknowledged but never reaches the
    /// platter (the old contents survive).
    pub lost_write_per_io: f64,
    /// Probability one write lands on a neighbouring location instead
    /// of its target (the target keeps its old contents and a victim
    /// is clobbered).
    pub misdirected_write_per_io: f64,
}

impl SilentProfile {
    /// All rates zero: the profile draws nothing and injects nothing.
    pub const NONE: SilentProfile = SilentProfile {
        bit_flip_per_read: 0.0,
        torn_write_per_io: 0.0,
        lost_write_per_io: 0.0,
        misdirected_write_per_io: 0.0,
    };

    /// True when any silent rate is non-zero.
    pub fn active(&self) -> bool {
        self.bit_flip_per_read > 0.0
            || self.torn_write_per_io > 0.0
            || self.lost_write_per_io > 0.0
            || self.misdirected_write_per_io > 0.0
    }
}

/// What one silent-write draw produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SilentWriteFault {
    /// The write persisted faithfully.
    None,
    /// Only part of the payload reached the platter.
    Torn,
    /// The write was acknowledged but never persisted.
    Lost,
    /// The write landed on a neighbouring location.
    Misdirected,
}

/// One disk's deterministic fault process.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    profile: FaultProfile,
    rng: SplitMix64,
    fail_slow: Option<FailSlowWindow>,
    /// Silent corruption rates, drawn from their own stream so turning
    /// them on never perturbs the transient-fault draw sequence.
    silent: SilentProfile,
    silent_rng: SplitMix64,
    /// Patient mode: faults and timeout enforcement are bypassed (the
    /// controller is draining a condemned disk and will wait out any
    /// slowness rather than give up on it).
    patient: bool,
}

impl FaultInjector {
    /// Creates an injector over its own (already forked) RNG stream.
    pub fn new(profile: FaultProfile, rng: SplitMix64) -> FaultInjector {
        FaultInjector {
            profile,
            rng,
            fail_slow: None,
            silent: SilentProfile::NONE,
            silent_rng: SplitMix64::new(0),
            patient: false,
        }
    }

    /// Adds a fail-slow window.
    pub fn with_fail_slow(mut self, window: FailSlowWindow) -> FaultInjector {
        self.fail_slow = Some(window);
        self
    }

    /// Adds silent corruption rates over their own (already forked)
    /// RNG stream.
    pub fn with_silent(mut self, silent: SilentProfile, rng: SplitMix64) -> FaultInjector {
        self.silent = silent;
        self.silent_rng = rng;
        self
    }

    /// Installs silent corruption rates on an already-built injector
    /// (the transient profile and its stream are untouched, so adding
    /// corruption never perturbs an existing fault sequence).
    pub fn set_silent(&mut self, silent: SilentProfile, rng: SplitMix64) {
        self.silent = silent;
        self.silent_rng = rng;
    }

    /// Switches patient mode on or off.
    pub fn set_patient(&mut self, patient: bool) {
        self.patient = patient;
    }

    /// True while patient mode is active.
    pub fn is_patient(&self) -> bool {
        self.patient
    }

    /// The command timeout.
    pub fn command_timeout(&self) -> SimDuration {
        self.profile.command_timeout
    }

    /// The service-time multiplier for a command starting at `at`
    /// (1.0 outside any fail-slow window).
    pub fn slow_factor(&self, at: SimTime) -> f64 {
        match &self.fail_slow {
            Some(w) if at >= w.start && at < w.until => w.factor,
            _ => 1.0,
        }
    }

    /// Draws the fault for one attempt. Zero rates consume no random
    /// numbers; patient mode draws nothing at all.
    pub fn draw(&mut self) -> Fault {
        if self.patient {
            return Fault::None;
        }
        if self.profile.media_error_per_io > 0.0 && self.rng.chance(self.profile.media_error_per_io)
        {
            return Fault::MediaError;
        }
        if self.profile.timeout_per_io > 0.0 && self.rng.chance(self.profile.timeout_per_io) {
            return Fault::Timeout;
        }
        Fault::None
    }

    /// True when any silent corruption rate is configured.
    pub fn silent_active(&self) -> bool {
        self.silent.active()
    }

    /// Draws the silent fate of one write. Zero rates consume no
    /// random numbers; patient mode draws nothing at all (a condemned
    /// disk being drained is read-mostly and already on its way out).
    pub fn draw_silent_write(&mut self) -> SilentWriteFault {
        if self.patient {
            return SilentWriteFault::None;
        }
        if self.silent.torn_write_per_io > 0.0
            && self.silent_rng.chance(self.silent.torn_write_per_io)
        {
            return SilentWriteFault::Torn;
        }
        if self.silent.lost_write_per_io > 0.0
            && self.silent_rng.chance(self.silent.lost_write_per_io)
        {
            return SilentWriteFault::Lost;
        }
        if self.silent.misdirected_write_per_io > 0.0
            && self.silent_rng.chance(self.silent.misdirected_write_per_io)
        {
            return SilentWriteFault::Misdirected;
        }
        SilentWriteFault::None
    }

    /// Draws whether one read returns flipped bits. Zero rate consumes
    /// no random numbers; patient mode never flips.
    pub fn draw_read_flip(&mut self) -> bool {
        if self.patient {
            return false;
        }
        self.silent.bit_flip_per_read > 0.0 && self.silent_rng.chance(self.silent.bit_flip_per_read)
    }

    /// Resets the state that belonged to the physical unit after the
    /// drive is swapped for a spare: the fresh drive neither limps nor
    /// needs patient treatment. The ambient per-attempt rates remain —
    /// they model the environment, not the one bad drive.
    pub fn on_replace(&mut self) {
        self.fail_slow = None;
        self.patient = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(media: f64, timeout: f64) -> FaultProfile {
        FaultProfile {
            media_error_per_io: media,
            timeout_per_io: timeout,
            command_timeout: SimDuration::from_millis(500),
        }
    }

    #[test]
    fn certain_rates_draw_their_faults() {
        let mut inj = FaultInjector::new(profile(1.0, 0.0), SplitMix64::new(1));
        assert_eq!(inj.draw(), Fault::MediaError);
        let mut inj = FaultInjector::new(profile(0.0, 1.0), SplitMix64::new(1));
        assert_eq!(inj.draw(), Fault::Timeout);
    }

    #[test]
    fn zero_rates_never_fault() {
        let mut inj = FaultInjector::new(profile(0.0, 0.0), SplitMix64::new(7));
        for _ in 0..100 {
            assert_eq!(inj.draw(), Fault::None);
        }
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let mut a = FaultInjector::new(profile(0.3, 0.2), SplitMix64::new(99));
        let mut b = FaultInjector::new(profile(0.3, 0.2), SplitMix64::new(99));
        for _ in 0..200 {
            assert_eq!(a.draw(), b.draw());
        }
    }

    #[test]
    fn patient_mode_bypasses_draws() {
        let mut inj = FaultInjector::new(profile(1.0, 1.0), SplitMix64::new(1));
        inj.set_patient(true);
        assert_eq!(inj.draw(), Fault::None);
        inj.set_patient(false);
        assert_ne!(inj.draw(), Fault::None);
    }

    #[test]
    fn slow_factor_applies_only_inside_the_window() {
        let inj = FaultInjector::new(profile(0.0, 0.0), SplitMix64::new(1)).with_fail_slow(
            FailSlowWindow {
                start: SimTime::from_secs(10),
                until: SimTime::from_secs(20),
                factor: 8.0,
            },
        );
        assert_eq!(inj.slow_factor(SimTime::from_secs(5)), 1.0);
        assert_eq!(inj.slow_factor(SimTime::from_secs(10)), 8.0);
        assert_eq!(inj.slow_factor(SimTime::from_secs(19)), 8.0);
        assert_eq!(inj.slow_factor(SimTime::from_secs(20)), 1.0);
    }

    #[test]
    fn replace_clears_the_limp_and_patience() {
        let mut inj = FaultInjector::new(profile(0.5, 0.0), SplitMix64::new(1)).with_fail_slow(
            FailSlowWindow {
                start: SimTime::ZERO,
                until: SimTime::from_secs(100),
                factor: 4.0,
            },
        );
        inj.set_patient(true);
        inj.on_replace();
        assert!(!inj.is_patient());
        assert_eq!(inj.slow_factor(SimTime::from_secs(1)), 1.0);
    }

    #[test]
    fn outcome_helpers() {
        let t = SimTime::from_millis(3);
        assert_eq!(IoOutcome::Ok(t).expect_ok(), t);
        assert!(IoOutcome::Ok(t).is_ok());
        assert!(!IoOutcome::Failed.is_ok());
        assert_eq!(IoOutcome::MediaError(t).report_at(), Some(t));
        assert_eq!(IoOutcome::Failed.report_at(), None);
    }

    #[test]
    #[should_panic(expected = "did not succeed")]
    fn expect_ok_panics_on_fault() {
        let _ = IoOutcome::MediaError(SimTime::ZERO).expect_ok();
    }

    fn silent(flip: f64, torn: f64, lost: f64, misdirected: f64) -> SilentProfile {
        SilentProfile {
            bit_flip_per_read: flip,
            torn_write_per_io: torn,
            lost_write_per_io: lost,
            misdirected_write_per_io: misdirected,
        }
    }

    #[test]
    fn silent_profile_activity() {
        assert!(!SilentProfile::NONE.active());
        assert!(silent(0.0, 0.0, 1e-9, 0.0).active());
        let inj = FaultInjector::new(profile(0.0, 0.0), SplitMix64::new(1));
        assert!(!inj.silent_active());
    }

    #[test]
    fn certain_silent_rates_draw_their_faults() {
        let mk = |p| {
            FaultInjector::new(profile(0.0, 0.0), SplitMix64::new(1))
                .with_silent(p, SplitMix64::new(2))
        };
        assert_eq!(
            mk(silent(0.0, 1.0, 0.0, 0.0)).draw_silent_write(),
            SilentWriteFault::Torn
        );
        assert_eq!(
            mk(silent(0.0, 0.0, 1.0, 0.0)).draw_silent_write(),
            SilentWriteFault::Lost
        );
        assert_eq!(
            mk(silent(0.0, 0.0, 0.0, 1.0)).draw_silent_write(),
            SilentWriteFault::Misdirected
        );
        assert!(mk(silent(1.0, 0.0, 0.0, 0.0)).draw_read_flip());
    }

    #[test]
    fn zero_silent_rates_never_corrupt() {
        let mut inj = FaultInjector::new(profile(0.0, 0.0), SplitMix64::new(7));
        for _ in 0..100 {
            assert_eq!(inj.draw_silent_write(), SilentWriteFault::None);
            assert!(!inj.draw_read_flip());
        }
    }

    /// The silent stream is independent of the transient stream:
    /// interleaving silent draws never changes the transient sequence.
    #[test]
    fn silent_draws_do_not_perturb_transient_draws() {
        let mut plain = FaultInjector::new(profile(0.3, 0.2), SplitMix64::new(99));
        let mut mixed = FaultInjector::new(profile(0.3, 0.2), SplitMix64::new(99))
            .with_silent(silent(0.5, 0.5, 0.2, 0.1), SplitMix64::new(123));
        for _ in 0..200 {
            let _ = mixed.draw_silent_write();
            let _ = mixed.draw_read_flip();
            assert_eq!(plain.draw(), mixed.draw());
        }
    }

    #[test]
    fn silent_draws_are_deterministic_per_seed() {
        let mk = || {
            FaultInjector::new(profile(0.0, 0.0), SplitMix64::new(1))
                .with_silent(silent(0.3, 0.2, 0.1, 0.05), SplitMix64::new(77))
        };
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..200 {
            assert_eq!(a.draw_silent_write(), b.draw_silent_write());
            assert_eq!(a.draw_read_flip(), b.draw_read_flip());
        }
    }

    #[test]
    fn patient_mode_bypasses_silent_draws() {
        let mut inj = FaultInjector::new(profile(0.0, 0.0), SplitMix64::new(1))
            .with_silent(silent(1.0, 1.0, 1.0, 1.0), SplitMix64::new(2));
        inj.set_patient(true);
        assert_eq!(inj.draw_silent_write(), SilentWriteFault::None);
        assert!(!inj.draw_read_flip());
        inj.set_patient(false);
        assert_ne!(inj.draw_silent_write(), SilentWriteFault::None);
    }
}
