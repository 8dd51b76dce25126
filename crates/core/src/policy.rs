//! Parity-update policies: the performance/availability dial.
//!
//! "Unbounded AFRAID and pure RAID 5 are simply different points on a
//! continuum of allowed parity lag — and our design allows a user to
//! choose where on this scale they would like their array to be."
//!
//! * [`ParityPolicy::NeverRebuild`] — never updates parity; this is
//!   how the paper models RAID 0 ("an AFRAID that simply never did
//!   parity updates"), keeping every other code path identical.
//! * [`ParityPolicy::IdleOnly`] — the baseline AFRAID: data-only
//!   writes, parity rebuilt in idle periods.
//! * [`ParityPolicy::MttdlTarget`] — the paper's `MTTDL_x` family: the
//!   controller continuously computes the disk-related MTTDL achieved
//!   so far and reverts to RAID 5 behaviour while the target is not
//!   met; it also force-starts a scrub once more than
//!   `FORCE_SCRUB_STRIPES` stripes are unprotected.
//! * [`ParityPolicy::AlwaysRaid5`] — a traditional RAID 5.
//! * [`ParityPolicy::ParityLogging`] — parity logging \[Stodolsky93\],
//!   the paper's §2 comparator: a RAID 5 whose small writes pre-read
//!   the old data but log the parity update instead of writing it.
//! * [`ParityPolicy::Conservative`] — the §5 refinement: start as a
//!   RAID 5 and switch into AFRAID behaviour once the observed burst
//!   sizes show the redundancy deficit would stay below a bound.

use afraid_avail::params::ModelParams;
use afraid_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// MTTDL_x detail: force a parity update once this many stripes are
/// unprotected, even if the array is busy ("we had found earlier that
/// this was fairly effective and caused little performance
/// degradation").
pub const FORCE_SCRUB_STRIPES: u64 = 20;

/// MTTDL_x detail: the assumed unprotected-time cost of permitting one
/// more deferral episode (idle-detector delay plus scrub drain),
/// charged when predicting whether the target would still be met.
pub const EPISODE_EXPOSURE_SECS: f64 = 1.0;

/// How a client write is performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteMode {
    /// AFRAID: write the data, mark the stripe, defer parity.
    DataOnly,
    /// RAID 5: read-modify-write (or reconstruct-write) keeping parity
    /// consistent in the critical path.
    Raid5,
    /// Parity logging: pre-read the old data, write the new data, and
    /// append the parity update to a log replayed in bulk later.
    ParityLog,
}

/// The configured parity-update policy.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ParityPolicy {
    /// Never rebuild parity (the RAID 0 model).
    NeverRebuild,
    /// Baseline AFRAID: rebuild only in idle periods.
    IdleOnly,
    /// Keep achieved disk-related MTTDL above `target_hours`.
    MttdlTarget {
        /// The availability floor, in hours.
        target_hours: f64,
    },
    /// Traditional RAID 5: parity always consistent.
    AlwaysRaid5,
    /// Parity logging \[Stodolsky93\]: parity plus log always consistent.
    ParityLogging,
    /// Start as RAID 5; switch to AFRAID once bursts are observed to
    /// keep the deficit below `lag_bound_bytes`; fall back if the
    /// actual lag ever exceeds twice the bound.
    Conservative {
        /// Redundancy-deficit bound, in bytes of unprotected data.
        lag_bound_bytes: u64,
    },
}

/// What the controller observes at a decision point.
#[derive(Clone, Copy, Debug)]
pub struct Observations {
    /// Current simulated time.
    pub now: SimTime,
    /// Fraction of elapsed time with at least one unprotected stripe.
    pub frac_unprotected: f64,
    /// Current parity lag in bytes.
    pub lag_bytes: u64,
    /// Current number of unprotected stripes.
    pub dirty_stripes: u64,
    /// Exponentially weighted mean of bytes written per burst
    /// (between idle periods); the Conservative policy's deficit
    /// estimator.
    pub ewma_burst_bytes: f64,
}

/// What the policy directs the controller to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Directives {
    /// How to perform client writes right now.
    pub write_mode: WriteMode,
    /// Start (or continue) scrubbing immediately, even under load.
    pub scrub_now: bool,
    /// Whether idle-time scrubbing is enabled at all.
    pub scrub_on_idle: bool,
}

/// Policy state machine evaluated by the controller at decision points
/// (write admission, request completion, scrub-batch completion).
#[derive(Clone, Debug)]
pub struct PolicyEngine {
    policy: ParityPolicy,
    params: ModelParams,
    n_data: u32,
    /// MttdlTarget: currently reverted to RAID 5 mode?
    reverted: bool,
    /// Conservative: currently in AFRAID mode?
    afraid_mode: bool,
}

impl PolicyEngine {
    /// Creates the engine for an array with `n_data` data disks.
    pub fn new(policy: ParityPolicy, params: ModelParams, n_data: u32) -> PolicyEngine {
        PolicyEngine {
            policy,
            params,
            n_data,
            reverted: false,
            afraid_mode: false,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> ParityPolicy {
        self.policy
    }

    /// Evaluates the policy against current observations.
    pub fn evaluate(&mut self, obs: &Observations) -> Directives {
        match self.policy {
            ParityPolicy::NeverRebuild => Directives {
                write_mode: WriteMode::DataOnly,
                scrub_now: false,
                scrub_on_idle: false,
            },
            ParityPolicy::IdleOnly => Directives {
                write_mode: WriteMode::DataOnly,
                scrub_now: false,
                scrub_on_idle: true,
            },
            ParityPolicy::AlwaysRaid5 | ParityPolicy::ParityLogging => Directives {
                write_mode: if self.policy == ParityPolicy::AlwaysRaid5 {
                    WriteMode::Raid5
                } else {
                    WriteMode::ParityLog
                },
                // Neither design has dirty stripes of its own, but if
                // the marking memory failed the recovery sweep still
                // has to run.
                scrub_now: obs.dirty_stripes > 0,
                scrub_on_idle: true,
            },
            ParityPolicy::MttdlTarget { target_hours } => {
                let frac = obs.frac_unprotected.clamp(0.0, 1.0);
                let achieved = afraid_avail::mttdl::mttdl_afraid(&self.params, self.n_data, frac);
                // The decision is *predictive*: allowing one more
                // deferral episode costs roughly the idle-detector
                // delay plus the scrub drain of unprotected time, so
                // resume AFRAID mode only if the achieved MTTDL would
                // still meet the target with that extra exposure
                // charged. For strict targets whose whole exposure
                // budget is smaller than one episode, this keeps the
                // array in RAID 5 mode — exactly the paper's "reverts
                // to RAID 5 mode if the goal is not being met".
                let total_secs = obs.now.as_secs_f64();
                let frac_pred = if total_secs > 0.0 {
                    (frac + EPISODE_EXPOSURE_SECS / total_secs).min(1.0)
                } else {
                    1.0
                };
                let predicted =
                    afraid_avail::mttdl::mttdl_afraid(&self.params, self.n_data, frac_pred);
                if self.reverted {
                    if predicted > target_hours {
                        self.reverted = false;
                    }
                } else if achieved < target_hours * 1.1 || predicted < target_hours {
                    self.reverted = true;
                }
                let force = self.reverted || obs.dirty_stripes > FORCE_SCRUB_STRIPES;
                Directives {
                    write_mode: if self.reverted {
                        WriteMode::Raid5
                    } else {
                        WriteMode::DataOnly
                    },
                    scrub_now: force && obs.dirty_stripes > 0,
                    scrub_on_idle: true,
                }
            }
            ParityPolicy::Conservative { lag_bound_bytes } => {
                let bound = lag_bound_bytes as f64;
                if self.afraid_mode {
                    if obs.lag_bytes as f64 > 2.0 * bound {
                        self.afraid_mode = false;
                    }
                } else if obs.ewma_burst_bytes > 0.0 && obs.ewma_burst_bytes < bound {
                    // Observed bursts fit comfortably inside the bound:
                    // the workload has enough idle time for AFRAID.
                    self.afraid_mode = true;
                }
                Directives {
                    write_mode: if self.afraid_mode {
                        WriteMode::DataOnly
                    } else {
                        WriteMode::Raid5
                    },
                    scrub_now: !self.afraid_mode && obs.dirty_stripes > 0,
                    scrub_on_idle: true,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Observations late in a long run (10,000 s), so one more
    /// 1-second deferral episode only shifts the unprotected fraction
    /// by 1e-4.
    fn obs(frac: f64, lag: u64, dirty: u64, burst: f64) -> Observations {
        Observations {
            now: SimTime::from_secs(10_000),
            frac_unprotected: frac,
            lag_bytes: lag,
            dirty_stripes: dirty,
            ewma_burst_bytes: burst,
        }
    }

    fn engine(p: ParityPolicy) -> PolicyEngine {
        PolicyEngine::new(p, ModelParams::default(), 4)
    }

    #[test]
    fn never_rebuild_is_raid0() {
        let mut e = engine(ParityPolicy::NeverRebuild);
        let d = e.evaluate(&obs(1.0, 1 << 30, 10_000, 0.0));
        assert_eq!(d.write_mode, WriteMode::DataOnly);
        assert!(!d.scrub_now);
        assert!(!d.scrub_on_idle);
    }

    #[test]
    fn idle_only_never_forces() {
        let mut e = engine(ParityPolicy::IdleOnly);
        let d = e.evaluate(&obs(0.9, 1 << 30, 10_000, 0.0));
        assert_eq!(d.write_mode, WriteMode::DataOnly);
        assert!(!d.scrub_now);
        assert!(d.scrub_on_idle);
    }

    #[test]
    fn always_raid5() {
        let mut e = engine(ParityPolicy::AlwaysRaid5);
        let d = e.evaluate(&obs(0.0, 0, 0, 0.0));
        assert_eq!(d.write_mode, WriteMode::Raid5);
        assert!(!d.scrub_now);
    }

    #[test]
    fn raid5_scrubs_after_nvram_recovery_marks() {
        let mut e = engine(ParityPolicy::AlwaysRaid5);
        let d = e.evaluate(&obs(0.0, 0, 42, 0.0));
        assert!(d.scrub_now);
    }

    #[test]
    fn mttdl_target_reverts_when_behind() {
        // Target 1e8 hours; 10% unprotected time gives ~4e6 h: behind.
        let mut e = engine(ParityPolicy::MttdlTarget {
            target_hours: 1.0e8,
        });
        let d = e.evaluate(&obs(0.10, 0, 5, 0.0));
        assert_eq!(d.write_mode, WriteMode::Raid5);
        assert!(d.scrub_now);
    }

    #[test]
    fn mttdl_target_stays_afraid_when_ahead() {
        // Target 1e6 hours; 1% unprotected gives 4e7 h: comfortably met.
        let mut e = engine(ParityPolicy::MttdlTarget {
            target_hours: 1.0e6,
        });
        let d = e.evaluate(&obs(0.01, 0, 5, 0.0));
        assert_eq!(d.write_mode, WriteMode::DataOnly);
        assert!(!d.scrub_now);
    }

    #[test]
    fn mttdl_target_hysteresis() {
        let mut e = engine(ParityPolicy::MttdlTarget {
            target_hours: 4.0e7,
        });
        // frac 0.011 -> achieved ~3.6e7 < target: revert.
        assert_eq!(
            e.evaluate(&obs(0.011, 0, 1, 0.0)).write_mode,
            WriteMode::Raid5
        );
        // Above target but the predicted post-episode MTTDL
        // (frac + 1e-4 -> ~2.6e7) would miss it: stay reverted.
        assert_eq!(
            e.evaluate(&obs(0.015, 0, 1, 0.0)).write_mode,
            WriteMode::Raid5
        );
        // Comfortably above even with another episode charged
        // (frac 0.002 + 1e-4 -> ~1.9e8): back to AFRAID.
        assert_eq!(
            e.evaluate(&obs(0.002, 0, 1, 0.0)).write_mode,
            WriteMode::DataOnly
        );
    }

    #[test]
    fn mttdl_target_is_predictive_early_in_a_run() {
        // At t=60s one more 1-second episode is 1/60 of the history:
        // a strict 1e9 target must hold the array in RAID 5 mode even
        // though nothing has been exposed yet.
        let mut e = engine(ParityPolicy::MttdlTarget {
            target_hours: 1.0e9,
        });
        let early = Observations {
            now: SimTime::from_secs(60),
            frac_unprotected: 0.0,
            lag_bytes: 0,
            dirty_stripes: 0,
            ewma_burst_bytes: 0.0,
        };
        assert_eq!(e.evaluate(&early).write_mode, WriteMode::Raid5);
        // Much later, the same episode is affordable.
        let late = Observations {
            now: SimTime::from_secs(1_000_000),
            frac_unprotected: 0.0,
            lag_bytes: 0,
            dirty_stripes: 0,
            ewma_burst_bytes: 0.0,
        };
        assert_eq!(e.evaluate(&late).write_mode, WriteMode::DataOnly);
    }

    #[test]
    fn mttdl_target_forces_scrub_on_dirty_threshold() {
        let mut e = engine(ParityPolicy::MttdlTarget {
            target_hours: 1.0e6,
        });
        let d = e.evaluate(&obs(0.001, 0, FORCE_SCRUB_STRIPES + 1, 0.0));
        // Mode stays AFRAID (availability fine) but the scrub starts.
        assert_eq!(d.write_mode, WriteMode::DataOnly);
        assert!(d.scrub_now);
        let d = e.evaluate(&obs(0.001, 0, FORCE_SCRUB_STRIPES, 0.0));
        assert!(!d.scrub_now);
    }

    #[test]
    fn conservative_starts_raid5_then_switches() {
        let mut e = engine(ParityPolicy::Conservative {
            lag_bound_bytes: 1 << 20,
        });
        let d = e.evaluate(&obs(0.0, 0, 0, 0.0));
        assert_eq!(d.write_mode, WriteMode::Raid5);
        // Bursts observed to be small: switch to AFRAID.
        let d = e.evaluate(&obs(0.0, 0, 0, 64.0 * 1024.0));
        assert_eq!(d.write_mode, WriteMode::DataOnly);
    }

    #[test]
    fn conservative_falls_back_on_lag_blowout() {
        let mut e = engine(ParityPolicy::Conservative {
            lag_bound_bytes: 1 << 20,
        });
        let _ = e.evaluate(&obs(0.0, 0, 0, 1024.0)); // switch to AFRAID
        let d = e.evaluate(&obs(0.2, 4 << 20, 100, 1024.0));
        assert_eq!(d.write_mode, WriteMode::Raid5);
        assert!(d.scrub_now);
    }

    #[test]
    fn conservative_ignores_large_bursts() {
        let mut e = engine(ParityPolicy::Conservative {
            lag_bound_bytes: 1 << 20,
        });
        let d = e.evaluate(&obs(0.0, 0, 0, 10.0 * (1 << 20) as f64));
        assert_eq!(d.write_mode, WriteMode::Raid5);
    }
}
