//! End-to-end trace-driven simulation runs.
//!
//! [`run_trace`] replays a trace through a configured array and
//! returns the full measurement set. Arrival times come from the trace
//! (open queueing); the run continues past the last arrival until all
//! requests have completed and — for parity-deferring policies — the
//! final idle period has let the scrubber drain the remaining dirty
//! stripes, so the unprotected-time accounting is honest about the
//! tail.
//!
//! [`run_to_cut`] drives the *same* loop but cuts the power after a
//! fixed number of processed events, returning the crash-durable
//! state ([`CrashImage`]) for the chaos harness to recover and
//! byte-check. Because both entry points share one step function, a
//! cut at `k` events observes exactly the state `run_trace` passed
//! through after its `k`-th event — the cut index is a pure
//! coordinate, which is what makes chaos sweeps cell-cacheable.

use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::record::Trace;
use serde::{Deserialize, Serialize};

use crate::config::ArrayConfig;
use crate::controller::{Controller, Ev};
use crate::faults::{assess_loss, DataLossReport};
use crate::metrics::RunMetrics;
use crate::recovery::CrashImage;

/// Optional fault injections and run switches.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Fail this disk at this time; the run ends there with a loss
    /// assessment.
    pub fail_disk: Option<(u32, SimTime)>,
    /// Fail the NVRAM marking memory at this time; the array starts a
    /// conservative full sweep and the run records when protection was
    /// fully restored.
    pub fail_nvram: Option<SimTime>,
    /// Host-requested parity points: at each instant, force the given
    /// byte range `(offset, bytes)` to full redundancy (paper §5's
    /// commit-like operation).
    pub parity_points: Vec<(SimTime, u64, u64)>,
    /// Keep running after the injected disk failure: reads reconstruct
    /// from the survivors, writes use the degraded paths, and scarred
    /// (lost) units return errors until rewritten.
    pub continue_degraded: bool,
    /// Install a spare this long after the failure and rebuild onto it
    /// (requires `continue_degraded`).
    pub spare_delay: Option<SimDuration>,
}

/// Everything a run produces.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    /// Performance and lag measurements.
    pub metrics: RunMetrics,
    /// Loss assessment, if a disk failure was injected.
    pub loss: Option<DataLossReport>,
    /// When the post-NVRAM-failure sweep finished, if one was injected
    /// and completed.
    pub reprotected_at: Option<SimTime>,
    /// When the rebuild sweep restored the spare, if one ran.
    pub rebuilt_at: Option<SimTime>,
    /// When the health scoreboard proactively evicted a disk, if it
    /// did.
    pub evicted_at: Option<SimTime>,
    /// Simulated end of the run.
    pub end: SimTime,
}

/// The crash-durable state at a cut, plus run context the harness
/// needs to judge the recovery.
#[derive(Clone, Debug)]
pub struct CrashRun {
    /// What survives the power cut.
    pub image: CrashImage,
    /// The loss report assessed when a disk failed *during* the run
    /// (before the cut), if one did. Units lost at the failure instant
    /// were already reported then; they are not recovery's debt.
    pub loss: Option<DataLossReport>,
    /// Events processed before the cut (equals the requested cut
    /// unless the run drained first).
    pub events_processed: u64,
}

/// One in-flight trace replay: the event loop state shared by
/// [`run_trace`] and [`run_to_cut`].
struct TraceRun<'a> {
    cfg: &'a ArrayConfig,
    trace: &'a Trace,
    opts: &'a RunOptions,
    c: Controller,
    next_arrival: usize,
    loss: Option<DataLossReport>,
    events_processed: u64,
    queue_peak: usize,
    /// Set when an injected disk failure ends the run (fail-stop mode).
    halted: bool,
}

impl<'a> TraceRun<'a> {
    fn new(cfg: &'a ArrayConfig, trace: &'a Trace, opts: &'a RunOptions) -> TraceRun<'a> {
        let mut c = Controller::new(cfg.clone());
        assert!(
            trace.capacity <= c.layout().logical_capacity(),
            "trace capacity {} exceeds array capacity {}",
            trace.capacity,
            c.layout().logical_capacity()
        );

        if let Some((disk, at)) = opts.fail_disk {
            assert!(disk < cfg.disks, "no such disk {disk}");
            c.events.schedule(at, Ev::FailDisk { disk });
        }
        if let Some(at) = opts.fail_nvram {
            c.events.schedule(at, Ev::FailNvram);
        }
        // The commit-barrier timeline is pre-scheduled in one batch:
        // a commit-heavy client can request thousands of parity points
        // over a run, and admitting them per-event would pay the
        // queue's maintenance cost once per barrier up front.
        c.events.schedule_batch(
            opts.parity_points
                .iter()
                .map(|&(at, offset, bytes)| (at, Ev::ParityPoint { offset, bytes })),
        );

        if let Some(first) = trace.records.first() {
            c.events.schedule(first.time, Ev::Arrive);
        } else {
            c.draining = true;
        }

        let queue_peak = c.events.len();
        TraceRun {
            cfg,
            trace,
            opts,
            c,
            next_arrival: 0,
            loss: None,
            events_processed: 0,
            queue_peak,
            halted: false,
        }
    }

    /// Processes one event. Returns `false` when the run is over: the
    /// queue drained, or a fail-stop disk failure ended it.
    fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        let Some((t, ev)) = self.c.events.pop() else {
            return false;
        };
        let c = &mut self.c;
        debug_assert!(t >= c.now, "time went backwards");
        c.now = t;
        self.events_processed += 1;
        match ev {
            Ev::Arrive => {
                let rec = self.trace.records[self.next_arrival];
                self.next_arrival += 1;
                if self.next_arrival < self.trace.records.len() {
                    c.events
                        .schedule(self.trace.records[self.next_arrival].time, Ev::Arrive);
                } else {
                    // No more arrivals: background work (the scrub
                    // tour in particular) must wind down.
                    c.draining = true;
                }
                c.on_arrival(rec);
            }
            Ev::FailDisk { disk } => {
                c.handle(ev);
                // Materialise latent-error arrivals up to the failure
                // instant so the assessment sees the true exposure.
                c.sync_latent();
                self.loss = Some(assess_loss(
                    c.layout(),
                    c.marks(),
                    c.shadow(),
                    &self.cfg.regions,
                    c.latent_errors(),
                    c.integrity_state(),
                    disk,
                    c.now,
                ));
                if !self.opts.continue_degraded {
                    // Fail-stop: mirror the old loop's `break`, which
                    // skipped the end-of-iteration queue-peak update.
                    self.halted = true;
                    return false;
                }
                c.enter_degraded(disk);
                if let Some(delay) = self.opts.spare_delay {
                    c.events.schedule(c.now + delay, Ev::SpareInstalled);
                }
            }
            Ev::Evict { disk } => {
                // Proactive eviction from the health scoreboard: the
                // condemned disk was drained to full redundancy first,
                // so the assessment should find nothing lost. Unlike a
                // crash, the run always continues: the array goes
                // degraded, a spare arrives after the configured
                // delay, and the rebuild restores it.
                if !c.finalize_eviction(disk) {
                    // A same-instant write re-armed the settle: mirror
                    // the old loop's `continue`, which skipped the
                    // end-of-iteration queue-peak update.
                    return true;
                }
                c.sync_latent();
                self.loss = Some(assess_loss(
                    c.layout(),
                    c.marks(),
                    c.shadow(),
                    &self.cfg.regions,
                    c.latent_errors(),
                    c.integrity_state(),
                    disk,
                    c.now,
                ));
                c.enter_degraded(disk);
                let delay = self
                    .opts
                    .spare_delay
                    .unwrap_or(self.cfg.faults.evict_spare_delay);
                c.events.schedule(c.now + delay, Ev::SpareInstalled);
            }
            other => c.handle(other),
        }
        self.queue_peak = self.queue_peak.max(self.c.events.len());
        true
    }

    fn finish(mut self) -> RunResult {
        let end = self.c.now.max(self.trace.end_time());
        self.c
            .metrics
            .set_event_stats(self.events_processed, self.queue_peak);
        if let Some(int) = self.c.integrity_state() {
            let counters = int.counters;
            self.c.metrics.set_integrity(counters);
        }
        RunResult {
            metrics: self.c.metrics.clone().finish(end),
            loss: self.loss,
            reprotected_at: self.c.reprotected_at,
            rebuilt_at: self.c.rebuilt_at,
            evicted_at: self.c.evicted_at,
            end,
        }
    }
}

/// Replays `trace` through an array configured by `cfg`.
///
/// # Panics
///
/// Panics if the configuration is invalid or the trace addresses
/// space beyond the array's logical capacity.
pub fn run_trace(cfg: &ArrayConfig, trace: &Trace, opts: &RunOptions) -> RunResult {
    let mut run = TraceRun::new(cfg, trace, opts);
    while run.step() {}
    run.finish()
}

/// Replays `trace` but cuts the power after exactly `cut` processed
/// events (or at natural drain, whichever comes first), returning the
/// crash-durable state. A cut of 0 is a crash before any event.
///
/// # Panics
///
/// Panics if the configuration has no shadow model (`cfg.shadow` must
/// be true: crash recovery is verified against it), if the
/// configuration is invalid, or if the trace exceeds the array's
/// capacity.
#[expect(
    clippy::expect_used,
    reason = "guarded: the assert!(cfg.shadow) at entry guarantees the shadow model exists"
)]
pub fn run_to_cut(cfg: &ArrayConfig, trace: &Trace, opts: &RunOptions, cut: u64) -> CrashRun {
    assert!(
        cfg.shadow,
        "run_to_cut needs cfg.shadow = true for recovery ground truth"
    );
    let mut run = TraceRun::new(cfg, trace, opts);
    while run.events_processed < cut && run.step() {}
    let image = CrashImage::capture(&run.c, run.events_processed)
        .expect("shadow model present: checked above");
    CrashRun {
        image,
        loss: run.loss,
        events_processed: run.events_processed,
    }
}
