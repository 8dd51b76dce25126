//! Crash scenarios: which machinery is mid-flight when the power dies.
//!
//! Every scenario is a fully deterministic run specification — array
//! config, trace recipe, in-run fault injections, and crash-time
//! injections — so a `(scenario, seed, duration, cut)` tuple names one
//! reproducible crash experiment.

use afraid::config::ArrayConfig;
use afraid::driver::{run_to_cut, run_to_cuts, run_trace, CrashRun, RunOptions};
use afraid::policy::ParityPolicy;
use afraid::recovery::replay;
use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::record::{IoRecord, ReqKind, Trace};
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

use crate::verdict::{judge, CutVerdict};

/// Full logical capacity of the `small_test` array: 2500 stripes of
/// 4 × 8 KB data units. Chaos traces address all of it so cut points
/// land on every stripe-geometry case.
pub const CHAOS_CAPACITY: u64 = 2500 * 4 * 8192;

/// A named crash scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Plain power loss under a bursty single-user workload: cuts land
    /// between marks, data writes, and idle-time scrubs.
    Baseline,
    /// Power loss while the parity scrubber is repairing aggressively:
    /// small batches, short idle delay, a write-heavy trace.
    ScrubRepair,
    /// Power loss while a dead disk's contents are being rebuilt onto
    /// a spare (and during the preceding degraded window).
    Rebuild,
    /// Power loss while the health scoreboard drains a fail-slow disk
    /// toward lossless eviction (and during the post-eviction rebuild).
    EvictionDrain,
    /// The crash destroys the NVRAM *and* one disk: recovery must
    /// conservatively declare every suspect unit rather than silently
    /// pass the truly-stale ones.
    NvramLoss,
    /// Power loss while disks are *lying*: torn, lost, and misdirected
    /// writes plus read bit-flips, with verify-on-read and checksum
    /// scrubs hunting them. Cuts land with live rot in every stage of
    /// disposition; recovery's power-on cross-check must finish the
    /// job (invariant 5).
    Corruption,
}

impl Scenario {
    /// Every scenario, in reporting order.
    pub const ALL: [Scenario; 6] = [
        Scenario::Baseline,
        Scenario::ScrubRepair,
        Scenario::Rebuild,
        Scenario::EvictionDrain,
        Scenario::NvramLoss,
        Scenario::Corruption,
    ];

    /// Stable name used in CLI flags, cache keys, and reports.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Baseline => "baseline",
            Scenario::ScrubRepair => "scrub",
            Scenario::Rebuild => "rebuild",
            Scenario::EvictionDrain => "evict",
            Scenario::NvramLoss => "nvram",
            Scenario::Corruption => "corrupt",
        }
    }

    /// Parses a scenario name as given to `--scenario`.
    pub fn parse(s: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|sc| sc.name() == s)
    }

    /// Builds the deterministic run specification for this scenario.
    pub fn spec(self, duration: SimDuration, seed: u64) -> ChaosSpec {
        let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        let mut opts = RunOptions::default();
        let mut kill_disk_at_cut = None;
        let mut kill_nvram_at_cut = false;
        let half = SimTime::ZERO + SimDuration::from_secs_f64(duration.as_secs_f64() * 0.5);
        match self {
            Scenario::Baseline => {}
            Scenario::ScrubRepair => {
                // Keep the scrubber busy: small batches, eager idle
                // detection, so many cuts land inside a repair batch.
                cfg.scrub_batch = 4;
                cfg.idle_delay = SimDuration::from_millis(20);
            }
            Scenario::Rebuild => {
                // Disk 2 dies at mid-run; a spare arrives shortly
                // after, so cuts cover the degraded window, the
                // rebuild sweep, and the restored tail.
                opts.fail_disk = Some((2, half));
                opts.continue_degraded = true;
                opts.spare_delay = Some(SimDuration::from_millis(200));
            }
            Scenario::EvictionDrain => {
                // Disk 2 limps hard enough to trip the scoreboard; the
                // drain, the eviction, and the post-eviction rebuild
                // are all in the cut window.
                cfg.faults.fail_slow = Some(afraid::config::FailSlowConfig {
                    disk: 2,
                    start: SimTime::ZERO + SimDuration::from_secs_f64(duration.as_secs_f64() * 0.2),
                    duration: SimDuration::from_secs(600),
                    factor: 40.0,
                });
                cfg.faults.io_timeout = SimDuration::from_millis(100);
                cfg.faults.evict_threshold = 0.5;
                cfg.faults.health_alpha = 0.4;
                cfg.faults.evict_spare_delay = SimDuration::from_millis(500);
            }
            Scenario::NvramLoss => {
                // Crash-time injection: the cut itself takes the NVRAM
                // and disk 2. Every dirty stripe with data on disk 2
                // at the cut is truly unrecoverable — recovery must
                // say so, not silently reconstruct garbage.
                kill_disk_at_cut = Some(2);
                kill_nvram_at_cut = true;
            }
            Scenario::Corruption => {
                // Silent-fault rates high enough that most cuts land
                // with live rot mid-disposition somewhere, under a
                // write-heavy trace; eager scrubbing keeps both the
                // verify-on-read and checksum-scrub paths hot. Cuts
                // are plain power losses — the interesting crash state
                // is the corruption registry itself.
                cfg.integrity.bit_flip_per_read = 5e-3;
                cfg.integrity.torn_write_per_io = 3e-2;
                cfg.integrity.lost_write_per_io = 3e-2;
                cfg.integrity.misdirected_write_per_io = 2e-2;
                cfg.integrity.verify_reads = true;
                cfg.integrity.verify_scrub = true;
                cfg.scrub.enabled = true;
                cfg.scrub_batch = 4;
                cfg.idle_delay = SimDuration::from_millis(20);
            }
        }
        ChaosSpec {
            scenario: self,
            cfg,
            opts,
            duration,
            seed,
            kill_disk_at_cut,
            kill_nvram_at_cut,
        }
    }
}

/// One reproducible crash experiment family: everything but the cut
/// point.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// The scenario this spec was built from.
    pub scenario: Scenario,
    /// Array configuration (always shadow-enabled).
    pub cfg: ArrayConfig,
    /// In-run fault injections.
    pub opts: RunOptions,
    /// Simulated trace duration.
    pub duration: SimDuration,
    /// Workload seed.
    pub seed: u64,
    /// Crash-time injection: the cut also kills this disk.
    pub kill_disk_at_cut: Option<u32>,
    /// Crash-time injection: the cut also destroys the NVRAM.
    pub kill_nvram_at_cut: bool,
}

impl ChaosSpec {
    /// Generates the scenario's trace. Deterministic in
    /// `(scenario, duration, seed)`.
    pub fn trace(&self) -> Trace {
        match self.scenario {
            // The bursty single-user trace for the plain power-loss
            // scenarios: cuts land inside bursts (dirty stripes) and
            // inside idle gaps (scrubbed, quiescent).
            Scenario::Baseline | Scenario::NvramLoss => WorkloadSpec::preset(WorkloadKind::Hplajw)
                .generate(CHAOS_CAPACITY, self.duration, self.seed),
            // The denser write-heavy trace where the crash interacts
            // with background machinery: scrub batches, the degraded/
            // rebuild window, and silent-fault injection (a per-write
            // draw) all need steady traffic.
            Scenario::ScrubRepair | Scenario::Rebuild | Scenario::Corruption => {
                WorkloadSpec::preset(WorkloadKind::Att).generate(
                    CHAOS_CAPACITY,
                    self.duration,
                    self.seed,
                )
            }
            // The eviction drain needs a steady request stream so the
            // limping disk keeps timing out: a fixed-cadence synthetic
            // trace, write-heavy, striding across the address space.
            Scenario::EvictionDrain => {
                let mut trace = Trace::new("chaos-evict", CHAOS_CAPACITY);
                let period_ms = 75u64;
                let n = (self.duration.as_secs_f64() * 1000.0 / period_ms as f64) as u64;
                for i in 0..n {
                    trace.push(IoRecord {
                        time: SimTime::from_millis(i * period_ms),
                        offset: ((i.wrapping_mul(16).wrapping_add(self.seed)) % 9_000) * 8192,
                        bytes: 2 * 8192,
                        kind: if i % 3 == 0 {
                            ReqKind::Read
                        } else {
                            ReqKind::Write
                        },
                    });
                }
                trace
            }
        }
    }

    /// Total events a full (uncut) run of this spec processes — the
    /// upper end of the cut-point range.
    pub fn total_events(&self, trace: &Trace) -> u64 {
        run_trace(&self.cfg, trace, &self.opts)
            .metrics
            .events_processed
    }

    /// Runs one crash experiment: replay to the cut, apply the
    /// crash-time injections, recover, and judge.
    pub fn run_cut(&self, trace: &Trace, cut: u64) -> CutVerdict {
        self.verdict(cut, run_to_cut(&self.cfg, trace, &self.opts, cut))
    }

    /// [`ChaosSpec::run_cut`] at each of the sorted `cuts`, in one replay.
    pub fn run_cuts(&self, trace: &Trace, cuts: &[u64]) -> Vec<CutVerdict> {
        let mut verdicts = Vec::with_capacity(cuts.len());
        run_to_cuts(&self.cfg, trace, &self.opts, cuts, |run| {
            verdicts.push(self.verdict(cuts[verdicts.len()], run));
        });
        verdicts
    }

    /// Applies the crash-time injections at `cut`, recovers, and judges.
    fn verdict(&self, cut: u64, mut run: CrashRun) -> CutVerdict {
        if let Some(disk) = self.kill_disk_at_cut {
            // If an in-run failure already left a disk dead, the
            // crash-time kill would be a second failure — array loss,
            // outside the recovery model — so it only applies while
            // the array is whole.
            if run.image.failed_disk.is_none() {
                run.image.kill_disk(disk);
            }
        }
        if self.kill_nvram_at_cut {
            run.image.kill_nvram();
        }
        let outcome = replay(&run.image);
        judge(cut, &run.image, &outcome, run.loss.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for sc in Scenario::ALL {
            assert_eq!(Scenario::parse(sc.name()), Some(sc));
        }
        assert_eq!(Scenario::parse("bogus"), None);
    }

    #[test]
    fn specs_are_shadowed_and_valid() {
        for sc in Scenario::ALL {
            let spec = sc.spec(SimDuration::from_secs(1), 42);
            assert!(spec.cfg.shadow, "{}: chaos needs ground truth", sc.name());
            assert!(spec.cfg.validate().is_ok(), "{}", sc.name());
            let trace = spec.trace();
            assert!(!trace.records.is_empty(), "{}", sc.name());
            assert!(trace.capacity <= CHAOS_CAPACITY);
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let spec = Scenario::EvictionDrain.spec(SimDuration::from_secs(1), 7);
        let a = spec.trace();
        let b = spec.trace();
        assert_eq!(a.records, b.records);
    }
}
