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
//! byte-check. Because every entry point shares one step function, a
//! cut at `k` events observes exactly the state `run_trace` passed
//! through after its `k`-th event; [`run_to_cuts`] captures a whole
//! sorted cut list in one replay, each capture equal to a fresh cut.

use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::record::Trace;
use serde::{Deserialize, Serialize};

use crate::config::ArrayConfig;
use crate::controller::{Controller, Ev};
use crate::faults::DataLossReport;
use crate::metrics::RunMetrics;
use crate::recovery::CrashImage;

/// Spare installation delay after a health eviction when
/// [`RunOptions::spare_delay`] gives none.
const EVICT_SPARE_DELAY: SimDuration = SimDuration::from_secs(10);

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
    /// (requires `continue_degraded`). A health eviction takes its
    /// spare after this delay too, or after 10 s when it is unset.
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
/// [`run_trace`], [`run_to_cut`] and [`run_to_cuts`].
struct TraceRun<'a> {
    trace: &'a Trace,
    opts: &'a RunOptions,
    c: Controller,
    next_arrival: usize,
    loss: Option<DataLossReport>,
    /// Set when an injected disk failure ends the run (fail-stop mode).
    halted: bool,
}

impl<'a> TraceRun<'a> {
    /// A replay of `trace`; a `crash` run, which is cut, keeps the
    /// shadow model whatever `cfg.shadow` says.
    fn new(cfg: &ArrayConfig, trace: &'a Trace, opts: &'a RunOptions, crash: bool) -> TraceRun<'a> {
        let mut c = Controller::new(ArrayConfig {
            shadow: cfg.shadow || crash,
            ..cfg.clone()
        });
        assert!(
            trace.capacity <= c.view().layout.logical_capacity(),
            "trace capacity {} exceeds array capacity {}",
            trace.capacity,
            c.view().layout.logical_capacity()
        );

        if let Some((disk, at)) = opts.fail_disk {
            assert!(disk < cfg.disks, "no such disk {disk}");
            c.events.schedule(at, Ev::FailDisk { disk });
        }
        if let Some(at) = opts.fail_nvram {
            c.events.schedule(at, Ev::FailNvram);
        }
        // Scheduled in input order, so same-instant points fire in the
        // order the host asked for them.
        for &(at, offset, bytes) in &opts.parity_points {
            c.events.schedule(at, Ev::ParityPoint { offset, bytes });
        }

        if let Some(first) = trace.records.first() {
            c.events.schedule(first.time, Ev::Arrive);
        } else {
            c.draining = true;
        }

        c.metrics.run.event_queue_peak = c.events.len();
        TraceRun {
            trace,
            opts,
            c,
            next_arrival: 0,
            loss: None,
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
        c.metrics.run.events_processed += 1;
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
                let fail_stop = !self.opts.continue_degraded;
                self.lose_disk(disk, fail_stop, self.opts.spare_delay);
                if fail_stop {
                    // The queue peak is deliberately not updated on
                    // this exit: doing so would change the serialized
                    // `event_queue_peak` of every fail-stop run.
                    self.halted = true;
                    return false;
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
                    // A same-instant write re-armed the settle. The
                    // queue peak is deliberately not updated on this
                    // exit either, so the serialized results of
                    // eviction runs stay as recorded.
                    return true;
                }
                let delay = self.opts.spare_delay.unwrap_or(EVICT_SPARE_DELAY);
                self.lose_disk(disk, false, Some(delay));
            }
            other => c.handle(other),
        }
        let run = &mut self.c.metrics.run;
        run.event_queue_peak = run.event_queue_peak.max(self.c.events.len());
        true
    }

    /// `disk` is gone, failed or evicted: assesses what it cost, with
    /// latent-error arrivals materialised up to now so the assessment
    /// sees the true exposure. A fail-stop run (`fail_stop`) only
    /// assesses and ends here; otherwise the array goes degraded in the
    /// same pass over the stripes, and a spare is installed `spare`
    /// later, if given.
    fn lose_disk(&mut self, disk: u32, fail_stop: bool, spare: Option<SimDuration>) {
        let c = &mut self.c;
        c.sync_latent();
        if fail_stop {
            self.loss = Some(c.view().assess(disk, c.now));
            return;
        }
        self.loss = Some(c.enter_degraded(disk));
        if let Some(delay) = spare {
            c.events.schedule(c.now + delay, Ev::SpareInstalled);
        }
    }

    /// Steps until `cut` events have been processed (or the run is
    /// over), returning the events processed.
    fn step_to(&mut self, cut: u64) -> u64 {
        while self.c.metrics.run.events_processed < cut && self.step() {}
        self.c.metrics.run.events_processed
    }

    /// Cuts the power after `cut` events and captures the crash-durable
    /// state there, leaving the run to continue toward a later cut.
    fn crash_at(&mut self, cut: u64) -> CrashRun {
        let events_processed = self.step_to(cut);
        CrashRun {
            image: self.c.crash_image(events_processed),
            loss: self.loss.clone(),
            events_processed,
        }
    }

    /// [`TraceRun::crash_at`] for the run's only cut: the state moves
    /// out of the controller instead of being cloned.
    fn crash_last(mut self, cut: u64) -> CrashRun {
        let events_processed = self.step_to(cut);
        CrashRun {
            image: self.c.into_crash_image(events_processed),
            loss: self.loss,
            events_processed,
        }
    }

    fn finish(mut self) -> RunResult {
        let end = self.c.now.max(self.trace.end_time());
        if let Some(counters) = self.c.view().integrity.map(|int| int.counters) {
            self.c.metrics.run.integrity = counters;
        }
        RunResult {
            metrics: self.c.metrics.finish(end),
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
    let mut run = TraceRun::new(cfg, trace, opts, false);
    while run.step() {}
    run.finish()
}

/// Replays `trace` but cuts the power after exactly `cut` processed
/// events (or at natural drain, whichever comes first), returning the
/// crash-durable state. A cut of 0 is a crash before any event. The
/// run keeps the shadow model whatever `cfg.shadow` says: recovery is
/// verified against it.
///
/// # Panics
///
/// Panics if the configuration is invalid or the trace exceeds the
/// array's capacity.
pub fn run_to_cut(cfg: &ArrayConfig, trace: &Trace, opts: &RunOptions, cut: u64) -> CrashRun {
    TraceRun::new(cfg, trace, opts, true).crash_last(cut)
}

/// Replays `trace` once, calling `f` with what [`run_to_cut`] returns
/// at each of `cuts`, in order.
///
/// # Panics
///
/// Panics if `cuts` decreases anywhere, and wherever [`run_to_cut`] does.
pub fn run_to_cuts(
    cfg: &ArrayConfig,
    trace: &Trace,
    opts: &RunOptions,
    cuts: &[u64],
    mut f: impl FnMut(CrashRun),
) {
    assert!(
        cuts.windows(2).all(|w| w[0] <= w[1]),
        "run_to_cuts needs non-decreasing cuts"
    );
    let mut run = TraceRun::new(cfg, trace, opts, true);
    for &cut in cuts {
        f(run.crash_at(cut));
    }
}

#[cfg(test)]
mod tests {
    use afraid_trace::record::{IoRecord, ReqKind};

    use super::*;
    use crate::policy::ParityPolicy;

    /// Parity points due at one instant fire in the order the host
    /// listed them, and ahead of an arrival at that instant.
    #[test]
    fn same_instant_parity_points_fire_in_input_order() {
        let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        let at = SimTime::from_millis(5);
        let mut trace = Trace::new("one-read", 1 << 20);
        trace.records.push(IoRecord {
            time: at,
            offset: 0,
            bytes: 512,
            kind: ReqKind::Read,
        });
        let offsets = [3 << 13, 0, 7 << 13, 1 << 13];
        let opts = RunOptions {
            parity_points: offsets.iter().map(|&o| (at, o, 8192)).collect(),
            ..RunOptions::default()
        };
        let mut run = TraceRun::new(&cfg, &trace, &opts, false);
        let fired: Vec<Option<u64>> = std::iter::from_fn(|| run.c.events.pop())
            .map(|(t, ev)| match ev {
                Ev::ParityPoint { offset, .. } if t == at => Some(offset),
                Ev::Arrive if t == at => None,
                other => panic!("unexpected event {other:?} at {t:?}"),
            })
            .collect();
        let mut want: Vec<Option<u64>> = offsets.iter().copied().map(Some).collect();
        want.push(None);
        assert_eq!(fired, want);
    }
}
