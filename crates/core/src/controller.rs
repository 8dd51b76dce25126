//! The AFRAID array controller: request lifecycle, parity policies,
//! and the background scrubber, as one deterministic event machine.
//!
//! The controller reproduces the paper's experimental structure
//! (§4.1):
//!
//! * open queueing — arrivals come from the trace, independent of
//!   service;
//! * CLOOK at the host device driver, FCFS at each disk's back end
//!   (the [`afraid_disk::Disk`] is a sequential server);
//! * at most `disks` concurrently active client requests inside the
//!   array;
//! * a 256 KB write-through staging area and a 256 KB read cache with
//!   no read-ahead, so cache effects stay out of the comparison;
//! * requests are never preempted; the scrubber may only be preempted
//!   *between* batches;
//! * multiple writes to a stripe may proceed in parallel, but block
//!   while a parity rebuild of that stripe is in flight;
//! * RAID 0 is an AFRAID that never rebuilds parity, so every code
//!   path except the parity traffic is shared between the compared
//!   designs.
//!
//! Write paths: `issue_write` plans every touched stripe by one rule.
//! Every slice is written in place, except one on a dead disk, whose
//! new bytes live only in the parity until the rebuild.
//!
//! * **Data-only** — a stripe whose dead disk held its parity, or,
//!   with no dead disk, one outside RAID 5 semantics. AFRAID mode
//!   marks the touched rows in the NVRAM bitmap before the data goes
//!   out: one disk I/O per touched unit, none extra. A never-protected
//!   region keeps no parity and marks nothing.
//! * **RAID 5** — every other stripe, parity written over a row range:
//!   the union of the written rows on a clean stripe, whole units on a
//!   stale stripe or one with a dead data unit. A clean stripe takes
//!   read-modify-write (pre-read old data + old parity) when it has
//!   fewer slices than there are data units the write does not cover.
//!   Otherwise it takes reconstruct-write: pre-read every uncovered
//!   unit but the dead one, plus the old parity when the dead unit is
//!   uncovered (a full-stripe write pre-reads nothing), then write
//!   parity computed from the whole stripe. It clears the dead unit's
//!   scar when the write covers it, and a stale stripe's mark once
//!   the writes land.
//! * **Parity log** \[Stodolsky93\] — a clean stripe with no dead disk
//!   under [`WriteMode::ParityLog`] pre-reads the old data under each
//!   slice and writes the new data, but neither reads nor writes the
//!   parity: the update goes to an NVRAM log, so parity plus log stay a
//!   full redundancy. A full log buffer is flushed to a log region on
//!   disk, and a full region is replayed by log-replay batches. Every
//!   other stripe takes the RAID 5 rule.
//!
//! The scrubber coalesces runs of adjacent dirty stripes into batches:
//! one read per disk per contiguous extent, then one parity write per
//! stripe, then the marks are cleared.
//!
//! A second, lower-priority background activity shares the idle
//! detector: the latent-error *tour scrubber* (see [`crate::scrub`])
//! reads every sector of the array under an IOPS budget, repairing
//! latent sector errors from parity before a disk failure can expose
//! them. Parity scrubbing always wins: tour batches are only planned
//! while no parity scrub is active, and the tour is abandoned outright
//! in degraded mode.

#![deny(clippy::indexing_slicing)]

use std::collections::BTreeMap;
use std::ops::Range;

use afraid_disk::disk::{Disk, DiskRequest};
use afraid_disk::sched::Scheduler;
use afraid_disk::{
    FailSlowWindow, FaultInjector, FaultProfile, IoOutcome, SilentProfile, SilentWriteFault,
};
use afraid_sim::hash::FxHashMap;
use afraid_sim::queue::{EventId, EventQueue};
use afraid_sim::rng::SplitMix64;
use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::record::{IoRecord, ReqKind};

use crate::cache::ReadCache;
use crate::config::{ArrayConfig, INTEGRITY_SEED, LATENT_SEED};
use crate::faults::{ArrayView, DataLossReport, Disposition, LatentErrors};
use crate::health::Scoreboard;
use crate::idle::IdleDetector;
use crate::integrity::{reconstruct_unit, CorruptKind, IntegrityState, IntegrityVerdict};
use crate::layout::{Layout, UnitSlice};
use crate::metrics::{IoCause, MetricsBuilder};
use crate::nvram::MarkingMemory;
use crate::policy::{Directives, Observations, ParityPolicy, PolicyEngine, WriteMode};
use crate::recovery::Durable;
use crate::regions::RegionMode;
use crate::scrub::{TourScrubber, TourStep};
use crate::shadow::{version_word, ShadowArray};
use std::collections::VecDeque;

/// Service time charged for an array-cache read hit (bus + controller
/// time only; no mechanical delay).
const CACHE_HIT_LATENCY: SimDuration = SimDuration::from_micros(100);

/// EWMA weight for the per-burst write-volume estimate used by the
/// `Conservative` policy.
const BURST_EWMA_ALPHA: f64 = 0.3;

/// How quickly an I/O addressed to a known-dead disk fails back to
/// the controller.
const FAILED_IO_LATENCY: SimDuration = SimDuration::from_micros(50);

/// Backoff before the first retry of a failed disk I/O; it doubles
/// with each further retry.
const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(2);

/// A failed disk I/O is not retried later than this after its first
/// attempt.
const REQUEST_DEADLINE: SimDuration = SimDuration::from_secs(10);

/// Parity-log NVRAM buffer: it is flushed to the log region each time
/// it fills.
const LOG_BUFFER_BYTES: u64 = 64 * 1024;

/// Parity-log region: it is handed to the log replay each time it
/// fills. Two regions alternate, so logging carries on during a replay.
const LOG_REGION_BYTES: u64 = 4 * 1024 * 1024;

/// Which half of a torn write reaches the platter: the new payload's
/// upper word half lands, the lower half keeps the old bytes.
const TORN_KEEP_MASK: u64 = 0xffff_ffff_0000_0000;

/// Simulation events.
#[derive(Clone, Copy, Debug)]
pub enum Ev {
    /// Deliver the next trace record to the host queue.
    Arrive,
    /// One disk I/O belonging to client request `req` completed.
    ClientIo {
        /// Request slot.
        req: u32,
    },
    /// One disk I/O belonging to background batch `batch` of `job`
    /// completed.
    BatchIo {
        /// Which background job issued the batch.
        job: Job,
        /// Batch sequence number (guards against stale events).
        batch: u64,
    },
    /// The idle-detector timer fired.
    IdleTimer,
    /// Injected disk failure.
    FailDisk {
        /// Index of the failing disk.
        disk: u32,
    },
    /// Injected NVRAM (marking memory) failure.
    FailNvram,
    /// Host-requested parity point: make a byte range redundant now
    /// (paper §5, "analogous to the traditional database commit
    /// operation").
    ParityPoint {
        /// Logical byte offset of the range.
        offset: u64,
        /// Length of the range in bytes.
        bytes: u64,
    },
    /// A spare disk has been installed; the rebuild sweep starts.
    SpareInstalled,
    /// The tour scrubber's IOPS budget has recharged; try to plan the
    /// next batch.
    TourTick,
    /// A faulted disk I/O reached its report time (success after
    /// retry, or another error).
    IoDone {
        /// Flight table key.
        flight: u64,
    },
    /// The retry backoff for a faulted I/O expired; resubmit it.
    IoRetry {
        /// Flight table key.
        flight: u64,
    },
    /// The health scoreboard condemned a disk and its state has
    /// settled; the driver turns this into a failure + spare + rebuild
    /// (mirrors `FailDisk`, which is also driver-handled).
    Evict {
        /// Index of the condemned disk.
        disk: u32,
    },
    /// A fire-and-forget write (a read-error repair or a parity-log
    /// flush) completed; nothing depends on it.
    RepairIo,
}

/// One disk I/O in a request plan.
#[derive(Clone, Copy, Debug)]
struct PlannedIo {
    disk: u32,
    lba: u64,
    sectors: u64,
    cause: IoCause,
}

/// Retry state for one disk I/O that drew a transient fault. Clean
/// I/Os never allocate a flight: the fault-free path is structurally
/// identical to an array without fault injection.
#[derive(Clone, Copy, Debug)]
struct Flight {
    io: PlannedIo,
    /// The completion event the rest of the machine is waiting for.
    done: Ev,
    /// Attempts submitted so far (the first counts).
    attempts: u32,
    first_issued: SimTime,
    /// How the most recent attempt ended.
    last: IoOutcome,
}

/// Request phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Read,
    PreRead,
    Write,
}

/// An admitted client request.
#[derive(Debug)]
struct ActiveReq {
    arrival: SimTime,
    kind: ReqKind,
    offset: u64,
    bytes: u64,
    phase: Phase,
    pending: u32,
    /// Phase-2 I/Os (write path) issued when the pre-reads finish.
    writes: Vec<PlannedIo>,
    /// Data-unit shadow updates, applied at write-phase issue.
    shadow_writes: Vec<(u64, u32, ShadowMode)>,
    /// Marked stripes a reconstruct-write refreshes, with their hold's
    /// mark generation at planning: the mark clears once the writes
    /// land, unless the stripe was marked again mid-flight.
    clear_marks: Vec<(u64, u32)>,
    /// Stripes this write holds a "writing" reference on.
    stripes_held: Vec<u64>,
    /// Set for reads served without touching the platter (cache hits,
    /// known-bad scar fast-fails): verify-on-read has nothing to
    /// check and must not consume bit-flip draws.
    skip_verify: bool,
}

/// A stripe's "writing" hold: its in-flight client writes, and a mark
/// generation bumped whenever the stripe is marked while held (or the
/// marking memory fails). A reconstruct-write plans against the
/// generation and clears the mark at completion only if it is unchanged.
#[derive(Clone, Copy, Debug, Default)]
struct Hold {
    writes: u32,
    marks: u32,
}

/// How a data write affects the shadow parity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShadowMode {
    /// AFRAID: data only, parity left stale.
    DataOnly,
    /// RMW: incremental parity update.
    Incremental,
    /// Reconstruct-write: parity rebuilt from data afterwards.
    Rebuild,
}

/// The background jobs that run as read-then-write stripe batches.
/// Each has one batch slot, so batches of different jobs can be in
/// flight together (a parity point or an eviction starts a scrub
/// mid-tour).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Job {
    /// Parity scrub: read the dirty rows of marked stripes, write their
    /// parity, clear the marks. Locks its stripes against client
    /// writes.
    Scrub,
    /// Latent-error tour: read a stripe run on every disk, then write
    /// repairs for latent errors found on clean stripes. Never locks:
    /// it only samples sector readability, so racing writes are
    /// harmless.
    Tour,
    /// Spare rebuild: read a stripe run from every survivor, write it
    /// onto the spare. Locks its stripes against client writes.
    Rebuild,
    /// Parity-log replay: read a share of a full log region and the
    /// parity of a run of logged stripes, then write their parity.
    /// Locks its stripes against client writes.
    LogReplay,
}

/// One in-flight background batch: a read phase, then a write phase
/// planned by its job once every read has completed.
#[derive(Debug)]
struct Batch {
    /// Sequence number shared by all jobs; completion events carry it
    /// so events of an abandoned batch are recognised as stale.
    id: u64,
    stripes: Vec<u64>,
    /// Outstanding I/Os of the current phase.
    pending: u32,
    write_phase: bool,
    /// Stripes under an I/O that exhausted its retries. A failed scrub
    /// stripe stays marked for a later pass, a failed replay stripe is
    /// marked for one; any failure makes a rebuild batch redo itself.
    failed: Vec<u64>,
}

/// Degraded-mode state: one disk is dead; optionally a rebuild sweep
/// is restoring its contents onto a spare.
#[derive(Debug)]
struct Degraded {
    /// The dead (or being-rebuilt) disk.
    failed: u32,
    /// Stripes whose unit on the failed disk is known-bad (it was
    /// unredundant at the failure): reads of that unit return errors
    /// until the unit is fully rewritten.
    scarred: BTreeMap<u64, u32>,
    /// The rebuild sweep, once a spare is installed.
    rebuild: Option<Rebuild>,
}

/// Rebuild sweep progress; the batch in flight lives in the rebuild
/// slot.
#[derive(Debug)]
struct Rebuild {
    /// Stripes below this are fully restored on the spare.
    cursor_done: u64,
    /// Set when the next batch could not start because its first
    /// stripe had writes in flight; completions retry.
    stalled: bool,
}

/// Parity-logging state \[Stodolsky93\]: parity updates of logged
/// writes not yet applied in place. Empty unless writes take
/// [`WriteMode::ParityLog`].
#[derive(Debug, Default)]
struct ParityLog {
    /// Bytes of update records in the NVRAM buffer, not yet flushed.
    buffered: u64,
    /// Buffer flushes to the region being filled.
    flushes: Vec<PlannedIo>,
    /// Which of the two regions is being filled.
    region: u64,
    /// Stripes with records in that region or the buffer, each with
    /// the sector range of the parity rows its records update.
    logged: BTreeMap<u64, (u64, u64)>,
    /// Parity updates of full regions, in stripe order per region; the
    /// front ones belong to the replay batch in flight.
    replay: VecDeque<(u64, u64, u64)>,
    /// Log extents of full regions not yet read back.
    replay_log: VecDeque<PlannedIo>,
}

impl ParityLog {
    /// Buffers the update record of a `bytes`-byte write to `stripe`
    /// whose parity rows are the sectors `lo..hi`.
    fn record(&mut self, stripe: u64, lo: u64, hi: u64, bytes: u64) {
        self.buffered += bytes;
        let rows = self.logged.entry(stripe).or_insert((lo, hi));
        *rows = (rows.0.min(lo), rows.1.max(hi));
    }

    /// Hands the full region to the replay, which reads its flushes
    /// back, and starts filling the other region.
    fn seal(&mut self) {
        let logged = std::mem::take(&mut self.logged);
        self.replay
            .extend(logged.into_iter().map(|(s, (lo, hi))| (s, lo, hi)));
        let reads = self.flushes.drain(..).map(|io| PlannedIo {
            cause: IoCause::ScrubRead,
            ..io
        });
        self.replay_log.extend(reads);
        self.region ^= 1;
    }
}

/// The array controller plus its event state.
pub struct Controller {
    cfg: ArrayConfig,
    layout: Layout,
    disks: Vec<Disk>,
    marks: MarkingMemory,
    engine: PolicyEngine,
    /// Host queue: positions are logical sector numbers (CLOOK sorts
    /// by array logical block address).
    host_q: Scheduler<IoRecord>,
    reqs: Vec<Option<ActiveReq>>,
    free_slots: Vec<u32>,
    /// Admitted (in-array) client requests.
    admitted: u32,
    pub(crate) events: EventQueue<Ev>,
    pub(crate) now: SimTime,
    idle: IdleDetector,
    idle_event: Option<EventId>,
    /// One in-flight batch slot per background job.
    scrub: Option<Batch>,
    tour_batch: Option<Batch>,
    rebuild_batch: Option<Batch>,
    replay_batch: Option<Batch>,
    next_batch_id: u64,
    /// Requests admitted but blocked on a batch-locked stripe.
    blocked: Vec<u32>,
    /// Stripes with in-flight client writes.
    writing: FxHashMap<u64, Hold>,
    pub(crate) metrics: MetricsBuilder,
    shadow: Option<ShadowArray>,
    /// Per-unit checksum map and corruption registry, when the
    /// integrity subsystem is enabled (requires the shadow model).
    integrity: Option<IntegrityState>,
    read_cache: ReadCache,
    version: u64,
    /// Scrub sweep cursor.
    scrub_cursor: u64,
    /// Stripes requested by parity points, scrubbed ahead of the sweep.
    priority_scrub: VecDeque<u64>,
    /// The parity log, when writes take [`WriteMode::ParityLog`].
    plog: ParityLog,
    /// Conservative-policy burst accounting.
    burst_bytes_acc: f64,
    ewma_burst_bytes: f64,
    /// Degraded-mode state, when operating past a disk failure.
    degraded: Option<Degraded>,
    /// When the rebuild sweep finished, if one ran.
    pub(crate) rebuilt_at: Option<SimTime>,
    /// Set when the post-NVRAM-failure sweep finishes.
    pub(crate) reprotected_at: Option<SimTime>,
    /// Retry state for faulted I/Os, keyed by flight id. Empty unless
    /// fault injection is active.
    flights: FxHashMap<u64, Flight>,
    next_flight_id: u64,
    /// Per-disk EWMA health scores, when fault injection is active and
    /// eviction enabled.
    health: Option<Scoreboard>,
    /// A condemned disk draining toward eviction (patient mode while
    /// the settle scrub clears the marks).
    evicting: Option<u32>,
    /// When the scoreboard evicted a disk, if it did.
    pub(crate) evicted_at: Option<SimTime>,
    /// Latent sector error process, when configured.
    latent: Option<LatentErrors>,
    /// Tour scrubber planning state, when enabled.
    tour: Option<TourScrubber>,
    /// Pending budget-recharge wakeup.
    tour_tick: Option<EventId>,
    /// Set by the driver once the last trace record has been
    /// delivered: no more arrivals will come, so background work must
    /// wind down rather than keep the event loop alive.
    pub(crate) draining: bool,
    /// Scratch buffers reused across requests so steady-state planning
    /// performs no allocation. Each user takes a buffer with
    /// `mem::take`, fills it, and puts it back before returning; the
    /// event machine is single-threaded, so two users never overlap.
    scratch_slices: Vec<UnitSlice>,
    scratch_ios: Vec<PlannedIo>,
    scratch_stripes: Vec<u64>,
    /// Per-disk extent accumulator reused by scrub batch planning.
    scrub_extents: Vec<Vec<(u64, u64)>>,
    /// The stripe list of the last finished scrub, tour or rebuild
    /// batch, kept for the next one (see [`Controller::pooled_stripes`]).
    spare_stripes: Vec<u64>,
    /// Retired request shells whose vectors keep their capacity.
    req_pool: Vec<ActiveReq>,
}

impl Controller {
    /// Builds a controller.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation (see
    /// [`ArrayConfig::validate`]).
    #[expect(
        clippy::panic,
        reason = "documented construction-time validation: fails before any event is scheduled"
    )]
    pub fn new(cfg: ArrayConfig) -> Controller {
        if let Err(e) = cfg.validate() {
            panic!("invalid array config: {e}");
        }
        let disk_sectors = cfg.disk_model.geometry.capacity_sectors();
        let layout = Layout::new(cfg.disks, cfg.stripe_unit_bytes, disk_sectors);
        // Spin-synchronised spindles (paper §4.1): every disk shares
        // phase zero.
        let mut disks: Vec<Disk> = (0..cfg.disks)
            .map(|_| Disk::new(cfg.disk_model.clone(), SimDuration::ZERO))
            .collect();
        // Fault injection: each disk draws transient faults and silent
        // corruption (wrong bytes under an `Ok` status) from two forked
        // RNG substreams of their own, so per-disk processes are
        // independent, enabling corruption never perturbs the
        // transient-fault sequence of an existing seed, and the whole
        // run stays deterministic. A zero rate never draws from its
        // stream. With neither process active no injector is installed
        // at all, keeping the fault-free path structurally identical.
        if cfg.faults.active() || cfg.integrity.injecting() {
            let mut master = SplitMix64::new(cfg.faults.seed);
            let mut silent_master = SplitMix64::new(INTEGRITY_SEED);
            let profile = FaultProfile {
                media_error_per_io: cfg.faults.media_error_per_io,
                timeout_per_io: cfg.faults.timeout_per_io,
                command_timeout: cfg.faults.io_timeout,
            };
            let silent = SilentProfile {
                bit_flip_per_read: cfg.integrity.bit_flip_per_read,
                torn_write_per_io: cfg.integrity.torn_write_per_io,
                lost_write_per_io: cfg.integrity.lost_write_per_io,
                misdirected_write_per_io: cfg.integrity.misdirected_write_per_io,
            };
            for (i, d) in disks.iter_mut().enumerate() {
                let mut inj = FaultInjector::new(profile, master.fork());
                if let Some(fs) = cfg.faults.fail_slow.filter(|fs| fs.disk as usize == i) {
                    inj = inj.with_fail_slow(FailSlowWindow {
                        start: fs.start,
                        until: fs.start + fs.duration,
                        factor: fs.factor,
                    });
                }
                if cfg.integrity.injecting() {
                    inj = inj.with_silent(silent, silent_master.fork());
                }
                d.set_fault_injector(inj);
            }
        }
        let health = ((cfg.faults.active() || cfg.integrity.injecting())
            && cfg.faults.evict_threshold > 0.0)
            .then(|| {
                Scoreboard::new(
                    cfg.disks,
                    cfg.faults.health_alpha,
                    cfg.faults.evict_threshold,
                )
            });
        let marks = MarkingMemory::new(layout.stripes(), cfg.mark_granularity);
        let engine = PolicyEngine::new(cfg.policy, cfg.params, cfg.n_data());
        let shadow = cfg.shadow.then(|| ShadowArray::new(layout));
        // `validate` rejects integrity without the shadow model, so
        // the state is built exactly when the subsystem is on.
        let integrity = match (&shadow, cfg.integrity.active()) {
            (Some(sh), true) => Some(IntegrityState::new(sh)),
            _ => None,
        };
        // Errors only matter inside the striped region; trailing
        // sectors that belong to no stripe are never read.
        let striped_sectors = layout.stripes() * layout.unit_sectors();
        let latent = (cfg.scrub.latent_rate_per_disk_hour > 0.0).then(|| {
            LatentErrors::generate(
                cfg.disks,
                striped_sectors,
                cfg.scrub.latent_rate_per_disk_hour,
                LATENT_SEED,
            )
        });
        let tour = cfg.scrub.enabled.then(|| {
            TourScrubber::new(
                layout.stripes(),
                cfg.disks,
                cfg.scrub_batch,
                cfg.scrub.iops_budget,
                LATENT_SEED,
            )
        });
        Controller {
            host_q: Scheduler::new(cfg.host_policy),
            idle: IdleDetector::new(cfg.idle_delay),
            read_cache: ReadCache::new(cfg.read_cache_bytes, cfg.stripe_unit_bytes),
            layout,
            disks,
            marks,
            engine,
            reqs: Vec::new(),
            free_slots: Vec::new(),
            admitted: 0,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            idle_event: None,
            scrub: None,
            tour_batch: None,
            rebuild_batch: None,
            replay_batch: None,
            next_batch_id: 0,
            blocked: Vec::new(),
            writing: FxHashMap::default(),
            metrics: MetricsBuilder::new(SimTime::ZERO),
            shadow,
            integrity,
            version: 0,
            scrub_cursor: 0,
            priority_scrub: VecDeque::new(),
            plog: ParityLog::default(),
            burst_bytes_acc: 0.0,
            ewma_burst_bytes: 0.0,
            degraded: None,
            rebuilt_at: None,
            reprotected_at: None,
            flights: FxHashMap::default(),
            next_flight_id: 0,
            health,
            evicting: None,
            evicted_at: None,
            latent,
            tour,
            tour_tick: None,
            draining: false,
            scratch_slices: Vec::new(),
            scratch_ios: Vec::new(),
            scratch_stripes: Vec::new(),
            scrub_extents: Vec::new(),
            spare_stripes: Vec::new(),
            req_pool: Vec::new(),
            cfg,
        }
    }

    /// The array state: layout, marks and regions, and the shadow,
    /// integrity and latent-error models where the run keeps them.
    pub fn view(&self) -> ArrayView<'_> {
        ArrayView {
            layout: &self.layout,
            marks: &self.marks,
            regions: &self.cfg.regions,
            shadow: self.shadow.as_ref(),
            integrity: self.integrity.as_ref(),
            latent: self.latent.as_ref(),
        }
    }

    /// The crash-durable state, cloned: the controller runs on.
    pub(crate) fn durable(&self) -> Durable {
        Durable {
            marks: self.marks.clone(),
            regions: self.cfg.regions.clone(),
            shadow: self.shadow.clone(),
            failed_disk: self.dead_disk(),
            scarred: self.scarred_units(),
            integrity: self.integrity.clone(),
            at: self.now,
        }
    }

    /// The crash-durable state, moved out of a controller that is done.
    pub(crate) fn into_durable(self) -> Durable {
        Durable {
            failed_disk: self.dead_disk(),
            scarred: self.scarred_units(),
            at: self.now,
            marks: self.marks,
            regions: self.cfg.regions,
            shadow: self.shadow,
            integrity: self.integrity,
        }
    }

    /// Materialises latent-error arrivals up to the current time, so a
    /// loss assessment sees every error with onset `<= now`.
    pub(crate) fn sync_latent(&mut self) {
        let now = self.now;
        if let Some(latent) = &mut self.latent {
            latent.advance(now);
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The dead (or being-rebuilt) disk while degraded. `None` once
    /// the rebuild sweep has fully restored the spare — a crash then
    /// is an ordinary power loss.
    pub fn dead_disk(&self) -> Option<u32> {
        self.degraded.as_ref().map(|d| d.failed)
    }

    /// Scarred `(stripe, unit)` pairs: data units declared lost when
    /// the disk failed, whose reconstruction garbage was absorbed as
    /// defined content. Empty outside degraded mode.
    pub fn scarred_units(&self) -> Vec<(u64, u32)> {
        self.degraded
            .as_ref()
            .map(|d| d.scarred.iter().map(|(&s, &u)| (s, u)).collect())
            .unwrap_or_default()
    }

    /// The rebuild sweep's restored-below cursor, if a spare is being
    /// rebuilt.
    fn rebuild_cursor(&self) -> Option<u64> {
        self.degraded
            .as_ref()
            .and_then(|d| d.rebuild.as_ref())
            .map(|rb| rb.cursor_done)
    }

    /// Whether `stripe`'s parity agrees with its data
    /// ([`crate::regions::RegionMap::parity_fresh`]).
    fn parity_fresh(&self, stripe: u64) -> bool {
        self.cfg.regions.parity_fresh(&self.marks, stripe)
    }

    /// The dead disk a stripe must route around, if any (stripes the
    /// rebuild sweep has already restored use the spare normally).
    fn degraded_disk_for(&self, stripe: u64) -> Option<u32> {
        let d = self.degraded.as_ref()?;
        if let Some(rb) = &d.rebuild {
            if stripe < rb.cursor_done {
                return None;
            }
        }
        Some(d.failed)
    }

    /// True if a background batch holds this stripe against client
    /// writes (tour batches never do).
    fn stripe_locked(&self, stripe: u64) -> bool {
        [&self.scrub, &self.rebuild_batch, &self.replay_batch]
            .into_iter()
            .flatten()
            .any(|b| b.stripes.contains(&stripe))
    }

    /// True if a background batch holds any stripe `rec` touches
    /// ([`Self::stripe_locked`]).
    fn range_locked(&mut self, rec: IoRecord) -> bool {
        let mut slices = std::mem::take(&mut self.scratch_slices);
        self.layout
            .map_range_into(rec.offset, rec.bytes, &mut slices);
        let locked = slices.iter().any(|s| self.stripe_locked(s.stripe));
        self.scratch_slices = slices;
        locked
    }

    /// The batch slot of `job`.
    fn slot(&mut self, job: Job) -> &mut Option<Batch> {
        match job {
            Job::Scrub => &mut self.scrub,
            Job::Tour => &mut self.tour_batch,
            Job::Rebuild => &mut self.rebuild_batch,
            Job::LogReplay => &mut self.replay_batch,
        }
    }

    /// The rebuild sweep, while one is running.
    fn rebuild_mut(&mut self) -> Option<&mut Rebuild> {
        self.degraded.as_mut()?.rebuild.as_mut()
    }

    /// Current parity lag in bytes: each marked row leaves `1/m` of
    /// every data unit of its stripe without fresh parity.
    fn lag_bytes(&self) -> u64 {
        let row_bytes = self.layout.unit_bytes() / u64::from(self.cfg.mark_granularity.bits());
        self.marks.dirty_rows() * row_bytes * u64::from(self.layout.data_units())
    }

    /// True from an NVRAM failure until the sweep it forces has made
    /// every stripe redundant again.
    fn nvram_recovery(&self) -> bool {
        self.marks.has_failed() && self.reprotected_at.is_none()
    }

    fn observations(&self) -> Observations {
        Observations {
            now: self.now,
            frac_unprotected: self.metrics.frac_unprotected(self.now),
            lag_bytes: self.lag_bytes(),
            dirty_stripes: self.marks.marked_count(),
            ewma_burst_bytes: self.ewma_burst_bytes,
        }
    }

    fn evaluate_policy(&mut self) -> Directives {
        let obs = self.observations();
        self.engine.evaluate(&obs)
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Dispatches one event. Called by the driver loop.
    pub(crate) fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrive => unreachable!("Arrive is handled by the driver"),
            Ev::ClientIo { req } => self.on_client_io(req),
            Ev::BatchIo { job, batch } => self.on_batch_io(job, batch),
            Ev::IdleTimer => self.on_idle_timer(),
            Ev::FailDisk { disk } => self.on_disk_failure(disk),
            Ev::FailNvram => self.on_nvram_failure(),
            Ev::ParityPoint { offset, bytes } => self.request_parity_point(offset, bytes),
            Ev::SpareInstalled => self.on_spare_installed(),
            Ev::TourTick => {
                self.tour_tick = None;
                self.maybe_start_tour();
            }
            Ev::IoDone { flight } => self.on_io_done(flight),
            Ev::IoRetry { flight } => self.on_io_retry(flight),
            Ev::Evict { .. } => unreachable!("Evict is handled by the driver"),
            Ev::RepairIo => {}
        }
    }

    /// Accepts a trace record into the host queue.
    pub(crate) fn on_arrival(&mut self, rec: IoRecord) {
        self.idle.on_arrival(self.now);
        if let Some(ev) = self.idle_event.take() {
            self.events.cancel(ev);
        }
        self.host_q.push(rec.offset / 512, rec);
        self.metrics.run.host_queue_peak = self.metrics.run.host_queue_peak.max(self.host_q.len());
        self.try_dispatch();
    }

    fn try_dispatch(&mut self) {
        while self.admitted < self.cfg.disks {
            let Some(rec) = self.host_q.pop() else { break };
            self.admitted += 1;
            self.start_request(rec);
        }
    }

    fn alloc_slot(&mut self, req: ActiveReq) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            if let Some(cell) = self.reqs.get_mut(slot as usize) {
                *cell = Some(req);
                return slot;
            }
        }
        self.reqs.push(Some(req));
        (self.reqs.len() - 1) as u32
    }

    /// Pulls a request shell from the pool (or makes a fresh one) and
    /// stamps it with the request header. The pooled vectors keep their
    /// capacity across requests, so steady-state planning allocates
    /// nothing.
    fn take_shell(&mut self, rec: IoRecord, phase: Phase) -> ActiveReq {
        let mut shell = self.req_pool.pop().unwrap_or_else(|| ActiveReq {
            arrival: SimTime::ZERO,
            kind: rec.kind,
            offset: 0,
            bytes: 0,
            phase: Phase::Read,
            pending: 0,
            writes: Vec::new(),
            shadow_writes: Vec::new(),
            clear_marks: Vec::new(),
            stripes_held: Vec::new(),
            skip_verify: false,
        });
        debug_assert!(
            shell.writes.is_empty()
                && shell.shadow_writes.is_empty()
                && shell.clear_marks.is_empty()
                && shell.stripes_held.is_empty(),
            "pooled shell not cleared"
        );
        shell.arrival = rec.time;
        shell.kind = rec.kind;
        shell.offset = rec.offset;
        shell.bytes = rec.bytes;
        shell.phase = phase;
        shell.pending = 0;
        shell.skip_verify = false;
        shell
    }

    /// Returns a finished request shell to the pool, clearing its plan
    /// vectors but keeping their capacity.
    fn retire_shell(&mut self, mut req: ActiveReq) {
        req.writes.clear();
        req.shadow_writes.clear();
        req.clear_marks.clear();
        req.stripes_held.clear();
        // Bound the pool by the admission limit: at most `disks`
        // requests are ever active, plus the blocked queue.
        if self.req_pool.len() < 2 * self.cfg.disks as usize {
            self.req_pool.push(req);
        }
    }

    fn start_request(&mut self, rec: IoRecord) {
        match rec.kind {
            ReqKind::Read => self.start_read(rec),
            ReqKind::Write => self.start_write(rec),
        }
    }

    fn start_read(&mut self, rec: IoRecord) {
        let shell = self.take_shell(rec, Phase::Read);
        let slot = self.alloc_slot(shell);
        if self.read_cache.hit(rec.offset, rec.bytes) {
            self.metrics.run.read_cache_hits += 1;
            let req = self.req_mut(slot);
            req.pending = 1;
            req.skip_verify = true;
            self.events
                .schedule(self.now + CACHE_HIT_LATENCY, Ev::ClientIo { req: slot });
            return;
        }
        let mut slices = std::mem::take(&mut self.scratch_slices);
        self.layout
            .map_range_into(rec.offset, rec.bytes, &mut slices);

        // Degraded mode: a slice on the dead disk either fails fast
        // (its unit is known-bad) or is served by reconstruction from
        // the survivors.
        if let Some(d) = &self.degraded {
            let touches_scar = slices.iter().any(|s| {
                self.degraded_disk_for(s.stripe) == Some(d.failed)
                    && s.disk == d.failed
                    && d.scarred.get(&s.stripe) == Some(&s.unit)
            });
            if touches_scar {
                // The array knows the data is gone: report a media
                // error promptly rather than returning garbage.
                self.metrics.run.failed_reads += 1;
                let req = self.req_mut(slot);
                req.pending = 1;
                req.skip_verify = true;
                self.events
                    .schedule(self.now + FAILED_IO_LATENCY, Ev::ClientIo { req: slot });
                self.scratch_slices = slices;
                return;
            }
        }

        let mut ios = std::mem::take(&mut self.scratch_ios);
        for sl in &slices {
            if self.degraded_disk_for(sl.stripe) == Some(sl.disk) {
                // Reconstruct read: same sector range from every other
                // disk of the stripe (data peers + parity).
                self.each_disk(
                    Some(sl.disk),
                    sl.disk_lba,
                    sl.sectors,
                    IoCause::ReconstructRead,
                    &mut ios,
                );
            } else {
                ios.push(PlannedIo {
                    disk: sl.disk,
                    lba: sl.disk_lba,
                    sectors: sl.sectors,
                    cause: IoCause::ClientRead,
                });
            }
        }
        self.scratch_slices = slices;
        self.req_mut(slot).pending = ios.len() as u32;
        self.submit_batch(&mut ios, Ev::ClientIo { req: slot });
        self.scratch_ios = ios;
    }

    fn start_write(&mut self, rec: IoRecord) {
        let directives = self.evaluate_policy();
        // Block behind an in-flight parity update (scrub, rebuild or
        // replay batch) of any touched stripe. With no such batch in
        // flight no stripe is locked, and the range is mapped once, to
        // issue it.
        if (self.scrub.is_some() || self.rebuild_batch.is_some() || self.replay_batch.is_some())
            && self.range_locked(rec)
        {
            let shell = self.take_shell(rec, Phase::PreRead);
            let slot = self.alloc_slot(shell);
            self.blocked.push(slot);
            return;
        }

        self.issue_write(rec, directives.write_mode);
    }

    /// Plans and issues a write in the given mode. The request must not
    /// conflict with a scrub batch. Each touched stripe takes the one
    /// rule of the module doc's "Write paths".
    fn issue_write(&mut self, rec: IoRecord, mode: WriteMode) {
        self.read_cache.invalidate(rec.offset, rec.bytes);
        if self.writing.is_empty() {
            self.metrics.set_write_busy(self.now, true);
        }
        self.burst_bytes_acc += rec.bytes as f64;

        let mut slices = std::mem::take(&mut self.scratch_slices);
        self.layout
            .map_range_into(rec.offset, rec.bytes, &mut slices);

        // The plan accumulates directly into a pooled request shell and
        // a pooled pre-read buffer; stripe groups are contiguous index
        // ranges of `slices` (map_range emits slices in logical order),
        // so no per-group vectors are needed.
        let mut shell = self.take_shell(rec, Phase::Write);
        let mut prereads = std::mem::take(&mut self.scratch_ios);
        let writes = &mut shell.writes;
        let shadow_writes = &mut shell.shadow_writes;
        let clear_marks = &mut shell.clear_marks;
        let stripes_held = &mut shell.stripes_held;

        let mut start = 0usize;
        while let Some(first) = slices.get(start) {
            let stripe = first.stripe;
            let mut stop = start + 1;
            while slices.get(stop).is_some_and(|s| s.stripe == stripe) {
                stop += 1;
            }
            let group = slices.get(start..stop).unwrap_or(&[]);
            start = stop;
            stripes_held.push(stripe);
            let hold = self.writing.entry(stripe).or_default();
            hold.writes += 1;
            // Nothing below marks this stripe before a reconstruct-write
            // records the generation it plans against.
            let planned_marks = hold.marks;

            // Region overrides (paper §5): a region may pin a stripe to
            // RAID 5 or RAID 0 semantics regardless of the policy.
            // `None` is declared-unprotected storage: no marking, no
            // parity, no scrub - the loss accounting treats these
            // stripes as RAID 0 by configuration.
            let eff_mode = match self.cfg.regions.mode_of(stripe) {
                RegionMode::Default => Some(mode),
                RegionMode::AlwaysProtect => Some(WriteMode::Raid5),
                RegionMode::NeverProtect => None,
            };
            let stripe_lba = self.layout.stripe_lba(stripe);
            // The dead disk a stripe routes around holds either one of
            // its data units or its parity.
            let dead = self.degraded_disk_for(stripe);
            let dead_unit = dead.and_then(|f| self.layout.data_unit(stripe, f));

            // Every slice except the dead unit's is written in place; a
            // dead unit's new bytes live only in the recomputed parity
            // until the rebuild.
            for s in group {
                if dead != Some(s.disk) {
                    writes.push(PlannedIo {
                        disk: s.disk,
                        lba: s.disk_lba,
                        sectors: s.sectors,
                        cause: IoCause::ClientWrite,
                    });
                }
            }

            // Data-only: the dead disk held the parity, or there is no
            // dead disk (one forces RAID 5: no redundancy slack is left
            // to defer) and the stripe is outside RAID 5 semantics.
            // AFRAID marks it before the data hits disk (mark-then-write:
            // a crash in between leaves a spuriously dirty stripe, never
            // a silently stale parity).
            let data_only = match dead {
                Some(_) => dead_unit.is_none(),
                None => matches!(eff_mode, None | Some(WriteMode::DataOnly)),
            };
            if data_only {
                if dead.is_none() && eff_mode == Some(WriteMode::DataOnly) {
                    for s in group {
                        let lo = (s.disk_lba - stripe_lba) * 512;
                        self.mark_dirty(stripe, lo, lo + s.sectors * 512);
                    }
                }
                for s in group {
                    shadow_writes.push((stripe, s.unit, ShadowMode::DataOnly));
                }
                continue;
            }

            // RAID 5 over a row range: the written rows of a clean
            // stripe; whole units of a stale one (an RMW would keep its
            // parity stale: "it also starts the parity update for any
            // unprotected stripes at this time") or a degraded one.
            let clean = dead_unit.is_none() && self.parity_fresh(stripe);
            let (lo, hi) = if clean {
                group.iter().fold((u64::MAX, 0), |(lo, hi), s| {
                    let off = s.disk_lba - stripe_lba;
                    (lo.min(off), hi.max(off + s.sectors))
                })
            } else {
                (0, self.layout.unit_sectors())
            };
            let covers = |u: u32| {
                group.iter().any(|s| {
                    s.unit == u
                        && s.disk_lba - stripe_lba <= lo
                        && s.disk_lba - stripe_lba + s.sectors >= hi
                })
            };
            let uncovered = (0..self.layout.data_units())
                .filter(|&u| !covers(u))
                .count();
            let rmw = clean && group.len() < uncovered;
            let logged = rmw && eff_mode == Some(WriteMode::ParityLog);
            let shadow_mode = if rmw {
                // RMW: old data under each slice plus old parity; a
                // logged write appends the parity update to the log.
                for s in group {
                    prereads.push(PlannedIo {
                        disk: s.disk,
                        lba: s.disk_lba,
                        sectors: s.sectors,
                        cause: IoCause::RmwPreRead,
                    });
                }
                if logged {
                    let bytes = group.iter().map(|s| s.sectors * 512).sum();
                    self.plog.record(stripe, lo, hi, bytes);
                } else {
                    prereads.push(self.parity_rows(stripe, lo, hi, IoCause::RmwPreRead));
                }
                ShadowMode::Incremental
            } else {
                // Reconstruct-write: every uncovered unit but the dead
                // one, whose old value comes from the old parity.
                for u in 0..self.layout.data_units() {
                    if dead_unit != Some(u) && !covers(u) {
                        prereads.push(PlannedIo {
                            disk: self.layout.data_disk(stripe, u),
                            lba: stripe_lba + lo,
                            sectors: hi - lo,
                            cause: IoCause::RmwPreRead,
                        });
                    }
                }
                if dead_unit.is_some_and(|u| !covers(u)) {
                    prereads.push(self.parity_rows(stripe, lo, hi, IoCause::RmwPreRead));
                }
                // A fully rewritten dead unit is well-defined again, and
                // the recomputed parity clears a stale mark.
                if dead_unit.is_some_and(covers) {
                    if let Some(d) = &mut self.degraded {
                        d.scarred.remove(&stripe);
                    }
                }
                if self.marks.is_marked(stripe) {
                    clear_marks.push((stripe, planned_marks));
                }
                ShadowMode::Rebuild
            };
            for s in group {
                shadow_writes.push((stripe, s.unit, shadow_mode));
            }
            if !logged {
                writes.push(self.parity_rows(stripe, lo, hi, IoCause::ParityWrite));
            }
        }

        self.scratch_slices = slices;
        if prereads.is_empty() {
            let slot = self.alloc_slot(shell);
            self.issue_write_phase(slot);
        } else {
            shell.phase = Phase::PreRead;
            shell.pending = prereads.len() as u32;
            let slot = self.alloc_slot(shell);
            self.submit_batch(&mut prereads, Ev::ClientIo { req: slot });
        }
        self.scratch_ios = prereads;
        if self.plog.buffered >= LOG_BUFFER_BYTES {
            self.flush_log();
        }
    }

    /// The I/O on `stripe`'s parity over the sector rows `lo..hi`.
    fn parity_rows(&self, stripe: u64, lo: u64, hi: u64, cause: IoCause) -> PlannedIo {
        PlannedIo {
            disk: self.layout.parity_disk(stripe),
            lba: self.layout.stripe_lba(stripe) + lo,
            sectors: hi - lo,
            cause,
        }
    }

    fn issue_write_phase(&mut self, slot: u32) {
        let req = self.req_mut(slot);
        req.phase = Phase::Write;
        let mut writes = std::mem::take(&mut req.writes);
        req.pending = writes.len() as u32;
        let shadow_writes = std::mem::take(&mut req.shadow_writes);

        // Apply shadow content updates at write issue. The shadow and
        // integrity states are taken out for the duration so the
        // silent-fault draws can reach `&mut self` helpers.
        self.version += 1;
        let version = self.version;
        let mut rebuilt = std::mem::take(&mut self.scratch_stripes);
        let mut shadow_opt = self.shadow.take();
        let mut integrity_opt = self.integrity.take();
        if let Some(shadow) = &mut shadow_opt {
            for &(stripe, unit, mode) in &shadow_writes {
                let word = version_word(stripe, unit, version);
                // Silent write faults: the disk acknowledges the write
                // but the platter ends up holding something else. The
                // checksum map always records the *intent* — that is
                // the whole point of an end-to-end checksum.
                let fault = if integrity_opt.is_some() {
                    self.draw_write_fault(stripe, unit)
                } else {
                    SilentWriteFault::None
                };
                let prior = shadow.data_word(stripe, unit);
                let stored = match fault {
                    SilentWriteFault::None => word,
                    SilentWriteFault::Torn => (word & TORN_KEEP_MASK) | (prior & !TORN_KEEP_MASK),
                    SilentWriteFault::Lost | SilentWriteFault::Misdirected => prior,
                };
                let old = shadow.write_data(stripe, unit, stored);
                if let Some(int) = &mut integrity_opt {
                    int.record_write(stripe, unit, word);
                    if stored != word {
                        let kind = match fault {
                            SilentWriteFault::Torn => CorruptKind::Torn,
                            SilentWriteFault::Lost => CorruptKind::Lost,
                            SilentWriteFault::Misdirected => CorruptKind::Misdirected,
                            SilentWriteFault::None => unreachable!("clean writes store the intent"),
                        };
                        int.record_injection(stripe, unit, kind);
                    }
                    if fault == SilentWriteFault::Misdirected {
                        self.misdirect_victim(shadow, int, stripe, unit, word);
                    }
                }
                match mode {
                    ShadowMode::DataOnly => {}
                    ShadowMode::Incremental => {
                        // The controller computed the new parity from
                        // the pre-read old bytes and the *intended*
                        // payload, so RMW parity tracks the intent even
                        // when the data write lied — which is exactly
                        // what makes RAID 5-mode corruption repairable.
                        shadow.update_parity_incremental(stripe, old, word);
                    }
                    ShadowMode::Rebuild => {
                        if !rebuilt.contains(&stripe) {
                            rebuilt.push(stripe);
                        }
                    }
                }
            }
            for stripe in rebuilt.drain(..) {
                shadow.rebuild_parity(stripe);
            }
            // A reconstruct-write also computes parity from the intent
            // in controller memory, not from what the platter ended up
            // holding: patch the rebuilt parity for any unit this
            // request silently corrupted (prior corruption of units
            // *not* written here was pre-read as-is — physically, it
            // launders into the new parity).
            if let Some(int) = &integrity_opt {
                for &(stripe, unit, mode) in &shadow_writes {
                    if mode == ShadowMode::Rebuild && int.is_corrupt(stripe, unit) {
                        let stored = shadow.data_word(stripe, unit);
                        let intent = version_word(stripe, unit, version);
                        if stored != intent {
                            shadow.update_parity_incremental(stripe, stored, intent);
                        }
                    }
                }
            }
        }
        self.shadow = shadow_opt;
        self.integrity = integrity_opt;
        self.scratch_stripes = rebuilt;

        self.submit_batch(&mut writes, Ev::ClientIo { req: slot });
        // Hand the (now empty) plan buffers back to the request so the
        // shell pool recycles their capacity. The slot is still live:
        // completions only arrive via the event queue.
        let req = self.req_mut(slot);
        req.writes = writes;
        req.shadow_writes = shadow_writes;
    }

    /// Draws the silent fate of one data-unit write. Only client-data
    /// writes draw (parity writes are modelled faithful), degraded
    /// stripes never draw (the rebuild owns their content), and a
    /// patient (draining) disk never lies on its way out.
    fn draw_write_fault(&mut self, stripe: u64, unit: u32) -> SilentWriteFault {
        if !self.cfg.integrity.injecting() || self.degraded_disk_for(stripe).is_some() {
            return SilentWriteFault::None;
        }
        let disk = self.layout.data_disk(stripe, unit);
        match self.disk_mut(disk).fault_injector_mut() {
            Some(inj) => inj.draw_silent_write(),
            None => SilentWriteFault::None,
        }
    }

    /// A misdirected write lands its payload on the same disk's data
    /// unit of the next eligible stripe (the head settled on the wrong
    /// track); the target keeps its old bytes. The victim's checksum
    /// still describes the victim's own intent, so the clobber is
    /// detectable — and because no parity was updated for it, the
    /// victim stays parity-repairable until something launders it.
    fn misdirect_victim(
        &self,
        shadow: &mut ShadowArray,
        int: &mut IntegrityState,
        stripe: u64,
        unit: u32,
        word: u64,
    ) {
        let disk = self.layout.data_disk(stripe, unit);
        let total = self.layout.stripes();
        for step in 1..total {
            let s = (stripe + step) % total;
            // The victim must be a data unit of the same disk, on a
            // stripe the rebuild does not own.
            if self.degraded_disk_for(s).is_some() {
                continue;
            }
            let Some(vu) = self.layout.data_unit(s, disk) else {
                continue;
            };
            if shadow.data_word(s, vu) == word {
                return; // identical bytes: physically a no-op
            }
            shadow.write_data(s, vu, word);
            int.record_injection(s, vu, CorruptKind::MisdirectedVictim);
            return;
        }
    }

    fn on_client_io(&mut self, slot: u32) {
        let req = self.req_mut(slot);
        req.pending -= 1;
        if req.pending > 0 {
            return;
        }
        match req.phase {
            Phase::PreRead => self.issue_write_phase(slot),
            Phase::Read | Phase::Write => self.complete_request(slot),
        }
    }

    fn complete_request(&mut self, slot: u32) {
        if self.integrity.is_some() {
            self.verify_read(slot);
        }
        let req = self.take_req(slot);

        if req.kind == ReqKind::Read {
            self.read_cache.insert(req.offset, req.bytes);
        }

        // This request's own holds keep each entry alive until the
        // release below, so a generation it planned against is still
        // the one a later marking would have bumped.
        for &(stripe, planned) in &req.clear_marks {
            if self
                .writing
                .get(&stripe)
                .is_some_and(|h| h.marks == planned)
            {
                self.clear_mark(stripe);
            }
        }
        for stripe in &req.stripes_held {
            match self.writing.get_mut(stripe) {
                Some(h) if h.writes > 1 => h.writes -= 1,
                Some(_) => {
                    self.writing.remove(stripe);
                }
                None => unreachable!("stripe hold not found"),
            }
        }
        if req.kind == ReqKind::Write && self.writing.is_empty() {
            self.metrics.set_write_busy(self.now, false);
        }

        self.metrics
            .record_response(req.kind == ReqKind::Write, self.now.since(req.arrival));
        self.retire_shell(req);
        self.idle.on_completion(self.now);
        self.admitted -= 1;
        self.try_dispatch();

        // Policy may demand an immediate scrub (MTTDL_x behind target,
        // dirty-stripe threshold, Conservative fallback); the NVRAM
        // recovery sweep restarts here too if it stalled on busy
        // stripes.
        let d = self.evaluate_policy();
        if d.scrub_now
            || ((self.nvram_recovery() || self.evicting.is_some()) && self.marks.marked_count() > 0)
        {
            self.start_scrub();
        }
        self.arm_idle_timer(d.scrub_on_idle);
        // A stalled rebuild sweep retries once the conflicting writes
        // finish.
        if self.rebuild_mut().is_some_and(|rb| rb.stalled) {
            self.rebuild_next_batch();
        }
        self.try_finalize_eviction();
    }

    // ------------------------------------------------------------------
    // End-to-end integrity: verify-on-read and corruption resolution
    // ------------------------------------------------------------------

    /// Verify-on-read (and silent-read accounting) for a completing
    /// client read. With `verify_reads` off this only counts the
    /// corrupt words the client was handed; with it on, every returned
    /// unit is checked against its checksum: transient flips are
    /// re-read in place, persistent corruption is repaired from parity
    /// while the stripe's redundancy is fresh, and otherwise
    /// *declared* — the deferral window priced in wrong bytes instead
    /// of lost ones.
    fn verify_read(&mut self, slot: u32) {
        let (kind, phase, skip, offset, bytes) = {
            let req = self.req_mut(slot);
            (req.kind, req.phase, req.skip_verify, req.offset, req.bytes)
        };
        if kind != ReqKind::Read || phase != Phase::Read || skip {
            return;
        }
        let Some(mut int) = self.integrity.take() else {
            return;
        };
        let Some(mut shadow) = self.shadow.take() else {
            self.integrity = Some(int);
            return;
        };
        let mut slices = std::mem::take(&mut self.scratch_slices);
        self.layout.map_range_into(offset, bytes, &mut slices);
        let verify = self.cfg.integrity.verify_reads;
        let mut condemned: Option<u32> = None;
        for sl in &slices {
            // Degraded stripes are served by reconstruction and
            // byte-checked against the shadow model directly; the
            // checksum layer covers platter reads.
            if self.degraded_disk_for(sl.stripe).is_some() {
                continue;
            }
            let intact = int.verify_platter(&shadow, sl.stripe, sl.unit);
            let flipped = self
                .disk_mut(sl.disk)
                .fault_injector_mut()
                .is_some_and(|inj| inj.draw_read_flip());
            let wrong = flipped || !intact;
            if !verify {
                if wrong {
                    // The client got bytes that differ from what it
                    // last wrote, under an `Ok` status: the failure
                    // mode this subsystem exists to surface.
                    int.counters.silent_reads += 1;
                }
                continue;
            }
            if !int.detect(&shadow, sl.stripe, sl.unit) {
                if flipped && intact {
                    // The platter word checks out; only the transferred
                    // copy was flipped. A re-read returns clean bytes
                    // (the retry latency is not modelled).
                    int.counters.flip_repairs += 1;
                }
                continue;
            }
            let (tripped, verdict) = self.resolve_corrupt_unit(
                &mut shadow,
                &mut int,
                sl.stripe,
                sl.unit,
                sl.disk_lba,
                sl.sectors,
            );
            if verdict == IntegrityVerdict::Declared {
                self.metrics.run.failed_reads += 1;
            }
            if tripped && condemned.is_none() {
                condemned = Some(sl.disk);
            }
        }
        self.scratch_slices = slices;
        self.shadow = Some(shadow);
        self.integrity = Some(int);
        if let Some(disk) = condemned {
            self.begin_eviction(disk);
        }
    }

    /// Resolves one checksum-detected persistent corruption through
    /// the repair-or-declare rule ([`IntegrityState::resolve`]) and
    /// issues what its verdict implies: the in-place repair write at
    /// `lba`/`sectors`, or, on a declare while parity is fresh, the
    /// parity re-anchor write. Returns whether the corruption tripped
    /// the disk's health threshold, and the verdict.
    fn resolve_corrupt_unit(
        &mut self,
        shadow: &mut ShadowArray,
        int: &mut IntegrityState,
        stripe: u64,
        unit: u32,
        lba: u64,
        sectors: u64,
    ) -> (bool, IntegrityVerdict) {
        // A lying disk is graver than one failing loudly: fold the
        // corruption into the health scoreboard at its heavy weight.
        let disk = self.layout.data_disk(stripe, unit);
        let tripped = self
            .health
            .as_mut()
            .is_some_and(|h| h.record_corruption(disk));
        let fresh = self.parity_fresh(stripe);
        let verdict = int.resolve(shadow, stripe, unit, fresh);
        match verdict {
            IntegrityVerdict::Clean => {}
            IntegrityVerdict::Repaired => self.submit(
                PlannedIo {
                    disk,
                    lba,
                    sectors,
                    cause: IoCause::CorruptRepairWrite,
                },
                Ev::RepairIo,
            ),
            IntegrityVerdict::Declared => {
                if fresh {
                    self.submit(
                        PlannedIo {
                            disk: self.layout.parity_disk(stripe),
                            lba: self.layout.stripe_lba(stripe),
                            sectors: self.layout.unit_sectors(),
                            cause: IoCause::CorruptRepairWrite,
                        },
                        Ev::RepairIo,
                    );
                }
            }
        }
        (tripped, verdict)
    }

    /// Checksum-verifies every data unit of `stripes`, which a scrub or
    /// tour batch has just read (no extra I/O), and sends each
    /// mismatch through [`Self::resolve_corrupt_unit`]. A settling
    /// scrub stripe is marked, so its corruptions are declared, stale
    /// parity being what the mark means, before `rebuild_parity`
    /// would launder the rot into a consistent-looking stripe with no
    /// record of the loss. On an unmarked tour stripe the rule also
    /// restores parity consistency, which the latent-repair asserts
    /// rely on. Stripes still routed around a dead disk are skipped.
    /// Returns the first disk the corruption evidence condemned, if
    /// any, and the number of units declared.
    fn verify_stripes(&mut self, stripes: Range<u64>) -> (Option<u32>, u64) {
        if !self.cfg.integrity.verify_scrub {
            return (None, 0);
        }
        let Some(mut int) = self.integrity.take() else {
            return (None, 0);
        };
        let Some(mut shadow) = self.shadow.take() else {
            self.integrity = Some(int);
            return (None, 0);
        };
        let (mut condemned, mut declared) = (None, 0);
        for stripe in stripes {
            if self.degraded_disk_for(stripe).is_some() {
                continue;
            }
            for unit in 0..self.layout.data_units() {
                if !int.detect(&shadow, stripe, unit) {
                    continue;
                }
                let (tripped, verdict) = self.resolve_corrupt_unit(
                    &mut shadow,
                    &mut int,
                    stripe,
                    unit,
                    self.layout.stripe_lba(stripe),
                    self.layout.unit_sectors(),
                );
                if tripped && condemned.is_none() {
                    condemned = Some(self.layout.data_disk(stripe, unit));
                }
                declared += u64::from(verdict == IntegrityVerdict::Declared);
            }
        }
        self.shadow = Some(shadow);
        self.integrity = Some(int);
        (condemned, declared)
    }

    // ------------------------------------------------------------------
    // Checked-access helpers. Each names one structural invariant and
    // carries its `#[expect]` exactly once, so the event loop reads
    // without per-call-site exceptions.
    // ------------------------------------------------------------------

    /// Live-slot accessor. Slots are allocated by [`Self::alloc_slot`]
    /// and freed only at completion; every event naming a slot was
    /// scheduled while it was live.
    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "slot liveness: events never outlive the request slot they name"
    )]
    fn req_mut(&mut self, slot: u32) -> &mut ActiveReq {
        self.reqs[slot as usize].as_mut().expect("live request")
    }

    /// Removes and returns a slot's request; happens exactly once, at
    /// completion (or when a blocked request is re-planned).
    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "slot liveness: take happens once, at the end of the slot's lifetime"
    )]
    fn take_req(&mut self, slot: u32) -> ActiveReq {
        self.free_slots.push(slot);
        self.reqs[slot as usize].take().expect("live request")
    }

    /// Disk accessor. Disk ids originate from [`Layout`] or the
    /// config, both bounded by `cfg.disks == disks.len()`.
    #[expect(
        clippy::indexing_slicing,
        reason = "disk ids come from Layout/config and are < cfg.disks by construction"
    )]
    fn disk(&self, disk: u32) -> &Disk {
        &self.disks[disk as usize]
    }

    /// Mutable [`Self::disk`].
    #[expect(
        clippy::indexing_slicing,
        reason = "disk ids come from Layout/config and are < cfg.disks by construction"
    )]
    fn disk_mut(&mut self, disk: u32) -> &mut Disk {
        &mut self.disks[disk as usize]
    }

    /// Flight accessor. `IoDone`/`IoRetry` events are scheduled only
    /// while the flight entry is live, and removal cancels no events —
    /// it only happens in their handlers.
    #[expect(
        clippy::expect_used,
        reason = "flight liveness: IoDone/IoRetry events never outlive their flights entry"
    )]
    fn flight(&self, id: u64) -> Flight {
        *self.flights.get(&id).expect("live flight")
    }

    /// Mutable [`Self::flight`].
    #[expect(
        clippy::expect_used,
        reason = "flight liveness: IoDone/IoRetry events never outlive their flights entry"
    )]
    fn flight_mut(&mut self, id: u64) -> &mut Flight {
        self.flights.get_mut(&id).expect("live flight")
    }

    /// Pushes one `cause` extent of `sectors` at `lba` onto `ios` for
    /// every disk but `skip`, in disk order: a tour reads every disk, a
    /// degraded, fallback or rebuild read every survivor.
    fn each_disk(
        &self,
        skip: Option<u32>,
        lba: u64,
        sectors: u64,
        cause: IoCause,
        ios: &mut Vec<PlannedIo>,
    ) {
        ios.extend(
            (0..self.cfg.disks)
                .filter(|&disk| Some(disk) != skip)
                .map(|disk| PlannedIo {
                    disk,
                    lba,
                    sectors,
                    cause,
                }),
        );
    }

    /// Byte-checks, against the shadow model, that `stripe` is
    /// reconstructable from its survivors' XOR before a repair
    /// rewrites `disk`'s copy from it: otherwise the repair would
    /// overwrite client data with garbage.
    fn assert_reconstructable(&self, stripe: u64, disk: u32) {
        if let Some(shadow) = &self.shadow {
            assert!(
                shadow.parity_consistent(stripe),
                "scrub repair on inconsistent stripe {stripe} (disk {disk}): \
                 parity is stale, reconstruction would write garbage"
            );
        }
    }

    fn submit(&mut self, io: PlannedIo, ev: Ev) {
        let (at, ev) = self.submit_planned(io, ev);
        self.events.schedule(at, ev);
    }

    /// Submits a burst of planned I/Os that share one completion event.
    ///
    /// Drains `ios` (so callers can hand back a scratch buffer) and
    /// submits them in order, each completion scheduled as soon as it
    /// is planned: a burst is a few events, and
    /// [`EventQueue::schedule`]'s scan from the back places each one
    /// more cheaply than a sort of the whole burst would.
    fn submit_batch(&mut self, ios: &mut Vec<PlannedIo>, ev: Ev) {
        for io in ios.drain(..) {
            self.submit(io, ev);
        }
    }

    /// Plans the completion of one disk I/O without touching the event
    /// queue: submits to the disk, records metrics, opens a retry
    /// flight when the attempt drew a fault, and returns the `(time,
    /// event)` pair that [`Controller::submit`] schedules.
    fn submit_planned(&mut self, io: PlannedIo, ev: Ev) -> (SimTime, Ev) {
        if self.disk(io.disk).is_failed() {
            // The controller knows the disk is dead: in-flight plans
            // that still reference it complete immediately with an
            // error (no physical I/O). New plans avoid dead disks.
            return (self.now + FAILED_IO_LATENCY, ev);
        }
        let outcome = self.attempt(&io);
        match outcome {
            IoOutcome::Ok(done) => {
                self.note_disk_ok(io.disk);
                (done, ev)
            }
            IoOutcome::MediaError(report) | IoOutcome::Timeout(report) => {
                (report, self.open_flight(io, ev, outcome))
            }
            // `is_failed` was checked above; a failure event cannot
            // interleave because the machine is single-threaded.
            IoOutcome::Failed => unreachable!("submit raced a disk failure"),
        }
    }

    /// Submits one attempt of `io` to its disk and counts it.
    fn attempt(&mut self, io: &PlannedIo) -> IoOutcome {
        let now = self.now;
        let request = DiskRequest {
            lba: io.lba,
            sectors: io.sectors,
            op: io.cause.op(),
        };
        let outcome = self.disk_mut(io.disk).submit(now, &request);
        self.metrics.run.io.record(io.cause);
        outcome
    }

    // ------------------------------------------------------------------
    // Transient faults: retry machine, reconstruct fallback, eviction
    // ------------------------------------------------------------------

    fn note_disk_ok(&mut self, disk: u32) {
        if let Some(h) = &mut self.health {
            h.record_ok(disk);
        }
    }

    /// Installs retry state for an I/O whose first attempt drew a
    /// fault, and returns the `IoDone` event the caller schedules at
    /// the fault's report time.
    fn open_flight(&mut self, io: PlannedIo, done: Ev, last: IoOutcome) -> Ev {
        let id = self.next_flight_id;
        self.next_flight_id += 1;
        self.flights.insert(
            id,
            Flight {
                io,
                done,
                attempts: 1,
                first_issued: self.now,
                last,
            },
        );
        Ev::IoDone { flight: id }
    }

    /// A faulted I/O reached its report time: deliver the completion
    /// on success, otherwise retry with exponential backoff until the
    /// attempt budget or the per-request deadline runs out.
    fn on_io_done(&mut self, id: u64) {
        let fl = self.flight(id);
        match fl.last {
            IoOutcome::Ok(_) => {
                self.flights.remove(&id);
                self.note_disk_ok(fl.io.disk);
                self.metrics
                    .record_retry_success(self.now.since(fl.first_issued));
                self.handle(fl.done);
            }
            IoOutcome::MediaError(_) | IoOutcome::Timeout(_) => {
                let disk = fl.io.disk;
                let tripped = if matches!(fl.last, IoOutcome::MediaError(_)) {
                    self.metrics.run.media_errors += 1;
                    self.health
                        .as_mut()
                        .is_some_and(|h| h.record_media_error(disk))
                } else {
                    self.metrics.run.timeouts += 1;
                    self.health.as_mut().is_some_and(|h| h.record_timeout(disk))
                };
                let backoff = RETRY_BACKOFF * (1u64 << (fl.attempts - 1).min(16));
                let retry_at = self.now + backoff;
                if fl.attempts <= self.cfg.faults.max_retries
                    && retry_at < fl.first_issued + REQUEST_DEADLINE
                    && !self.disk(disk).is_failed()
                {
                    self.flight_mut(id).attempts += 1;
                    self.metrics.run.retries += 1;
                    self.events.schedule(retry_at, Ev::IoRetry { flight: id });
                } else {
                    self.exhaust_flight(id);
                }
                if tripped {
                    self.begin_eviction(disk);
                }
            }
            IoOutcome::Failed => unreachable!("a flight never attempts a failed disk"),
        }
        self.try_finalize_eviction();
    }

    /// The backoff expired: resubmit the I/O and re-arm its report.
    fn on_io_retry(&mut self, id: u64) {
        let fl = self.flight(id);
        let disk = fl.io.disk;
        if self.disk(disk).is_failed() {
            self.flights.remove(&id);
            self.events.schedule(self.now + FAILED_IO_LATENCY, fl.done);
            return;
        }
        let last = self.attempt(&fl.io);
        let report = match last {
            IoOutcome::Ok(t) | IoOutcome::MediaError(t) | IoOutcome::Timeout(t) => t,
            IoOutcome::Failed => unreachable!("retry raced a disk failure"),
        };
        self.flight_mut(id).last = last;
        self.events.schedule(report, Ev::IoDone { flight: id });
    }

    /// An I/O ran out of retries. What happens next depends on what it
    /// was for: client reads of redundant stripes fall back to
    /// reconstruction, writes leave the stripe marked unredundant (a
    /// degraded completion, never data loss), background I/Os defer
    /// their extent to a later pass.
    fn exhaust_flight(&mut self, id: u64) {
        let Some(fl) = self.flights.remove(&id) else {
            debug_assert!(false, "exhausted flight {id} is not live");
            return;
        };
        self.metrics.run.io_exhausted += 1;
        let us = self.layout.unit_sectors();
        match fl.io.cause {
            IoCause::ClientRead => self.reconstruct_fallback(fl),
            IoCause::ClientWrite | IoCause::ParityWrite | IoCause::RmwPreRead => {
                // The data (or parity under update) cannot be trusted
                // on disk: mark the stripe so the scrubber restores
                // redundancy, and let the request complete degraded.
                let stripe = fl.io.lba / us;
                let lo = (fl.io.lba - self.layout.stripe_lba(stripe)) * 512;
                self.mark_dirty(stripe, lo, lo + fl.io.sectors * 512);
                if fl.io.cause == IoCause::ClientWrite {
                    self.metrics.run.degraded_completions += 1;
                }
                self.handle(fl.done);
            }
            IoCause::ScrubRead
            | IoCause::ScrubWrite
            | IoCause::RebuildRead
            | IoCause::RebuildWrite
            | IoCause::TourRead
            | IoCause::LatentRepairWrite => {
                // The batch's job decides what a failed extent means
                // when the batch finishes.
                if let Ev::BatchIo { job, batch } = fl.done {
                    let first = fl.io.lba / us;
                    let last = (fl.io.lba + fl.io.sectors - 1) / us;
                    if let Some(b) = self.slot(job).as_mut().filter(|b| b.id == batch) {
                        for s in first..=last {
                            if b.stripes.contains(&s) && !b.failed.contains(&s) {
                                b.failed.push(s);
                            }
                        }
                    }
                }
                self.handle(fl.done);
            }
            IoCause::ReconstructRead => {
                // A survivor read failed past its budget: this read
                // genuinely cannot be served.
                self.metrics.run.failed_reads += 1;
                self.handle(fl.done);
            }
            IoCause::ReadRepairWrite | IoCause::CorruptRepairWrite => {
                // Best-effort repair; a later read or client rewrite
                // covers it.
                self.handle(fl.done);
            }
        }
    }

    /// Unrecoverable read of a *redundant* stripe: serve it by
    /// reconstruction from the survivors (the degraded-read plan), and
    /// refresh the unreadable medium in place with a fire-and-forget
    /// rewrite (read-error scrubbing).
    fn reconstruct_fallback(&mut self, fl: Flight) {
        let Ev::ClientIo { req } = fl.done else {
            unreachable!("client reads complete client requests")
        };
        let stripe = fl.io.lba / self.layout.unit_sectors();
        // A stripe with live silent corruption has a broken XOR
        // identity: reconstruction would hand back wrong bytes, so the
        // read fails honestly instead.
        let corrupt = self
            .integrity
            .as_ref()
            .is_some_and(|int| int.stripe_corrupt(stripe));
        let redundant =
            !corrupt && self.parity_fresh(stripe) && self.degraded_disk_for(stripe).is_none();
        if !redundant {
            // No parity to lean on: the read fails for real.
            self.metrics.run.failed_reads += 1;
            self.handle(fl.done);
            return;
        }
        self.assert_reconstructable(stripe, fl.io.disk);
        self.metrics.run.reconstruct_fallbacks += 1;
        // The one failed read becomes `disks - 1` survivor reads, all
        // completing into the same request slot.
        self.req_mut(req).pending += self.cfg.disks - 2;
        let mut ios = std::mem::take(&mut self.scratch_ios);
        self.each_disk(
            Some(fl.io.disk),
            fl.io.lba,
            fl.io.sectors,
            IoCause::ReconstructRead,
            &mut ios,
        );
        self.submit_batch(&mut ios, Ev::ClientIo { req });
        self.scratch_ios = ios;
        self.submit(
            PlannedIo {
                disk: fl.io.disk,
                lba: fl.io.lba,
                sectors: fl.io.sectors,
                cause: IoCause::ReadRepairWrite,
            },
            Ev::RepairIo,
        );
    }

    /// The scoreboard condemned a disk: put it in patient mode (no
    /// further stochastic faults, so the drain terminates) and settle
    /// all dirty parity before the eviction makes the array degraded —
    /// an *orderly* retirement loses nothing, unlike a crash.
    fn begin_eviction(&mut self, disk: u32) {
        if self.evicting.is_some() || self.degraded.is_some() || self.disk(disk).is_failed() {
            return;
        }
        self.evicting = Some(disk);
        self.disk_mut(disk).set_patient(true);
        if self.marks.marked_count() > 0 {
            self.start_scrub();
        }
    }

    /// Once every mark is settled and no write or faulted I/O is in
    /// flight, hand the condemned disk to the driver as an `Evict`
    /// event (processed like an injected failure, minus the loss).
    fn try_finalize_eviction(&mut self) {
        let Some(disk) = self.evicting.filter(|_| self.settled()) else {
            return;
        };
        self.evicting = None;
        self.events.schedule(self.now, Ev::Evict { disk });
    }

    /// No mark, scrub, client write or faulted I/O is outstanding.
    fn settled(&self) -> bool {
        self.scrub.is_none()
            && self.marks.marked_count() == 0
            && self.writing.is_empty()
            && self.flights.is_empty()
    }

    /// Driver-side half of the eviction. Returns false if a
    /// same-instant write dirtied the array between the settle check
    /// and this event — the settle is re-armed and the driver carries
    /// on.
    pub(crate) fn finalize_eviction(&mut self, disk: u32) -> bool {
        if !self.settled() {
            self.evicting = Some(disk);
            if self.marks.marked_count() > 0 {
                self.start_scrub();
            }
            return false;
        }
        self.disk_mut(disk).fail();
        self.evicted_at = Some(self.now);
        self.metrics.record_eviction(self.now);
        if let Some(h) = &mut self.health {
            h.reset(disk);
        }
        true
    }

    // ------------------------------------------------------------------
    // Marking and lag accounting
    // ------------------------------------------------------------------

    /// Marks a byte range (within-unit offsets) of `stripe` dirty and
    /// updates the lag integral.
    fn mark_dirty(&mut self, stripe: u64, from_byte: u64, to_byte: u64) {
        let before = self.marks.row_mask(stripe);
        self.marks
            .mark_rows(stripe, self.layout.unit_bytes(), from_byte, to_byte);
        let after = self.marks.row_mask(stripe);
        if after != before {
            if let Some(h) = self.writing.get_mut(&stripe) {
                h.marks = h.marks.wrapping_add(1);
            }
            self.push_lag();
        }
    }

    fn clear_mark(&mut self, stripe: u64) {
        if self.marks.is_marked(stripe) {
            self.marks.clear(stripe);
            self.push_lag();
        }
    }

    fn push_lag(&mut self) {
        self.metrics.set_lag(
            self.now,
            self.lag_bytes() as f64,
            self.marks.marked_count() as f64,
        );
    }

    // ------------------------------------------------------------------
    // Background batches: scrub, tour and rebuild
    // ------------------------------------------------------------------

    /// Issues the read phase of a new `job` batch over `stripes` and
    /// installs it in the job's slot. Drains `ios`.
    fn begin_batch(&mut self, job: Job, stripes: Vec<u64>, ios: &mut Vec<PlannedIo>) {
        let id = self.next_batch_id;
        self.next_batch_id += 1;
        let pending = ios.len() as u32;
        debug_assert!(pending > 0, "{job:?} batch with no reads");
        self.submit_batch(ios, Ev::BatchIo { job, batch: id });
        *self.slot(job) = Some(Batch {
            id,
            stripes,
            pending,
            write_phase: false,
            failed: Vec::new(),
        });
    }

    /// A batch stripe list holding `stripes`, in the vector the last
    /// finished scrub, tour or rebuild batch handed back. A tour batch is
    /// usually one stripe and there are millions of them per run.
    fn pooled_stripes(&mut self, stripes: Range<u64>) -> Vec<u64> {
        let mut list = std::mem::take(&mut self.spare_stripes);
        list.clear();
        list.extend(stripes);
        list
    }

    /// One I/O of a `job` batch completed. The last read hands over to
    /// the job's write phase; the last write, or a write phase with
    /// nothing to write, finishes the batch.
    fn on_batch_io(&mut self, job: Job, batch: u64) {
        let Some(b) = self.slot(job).as_mut().filter(|b| b.id == batch) else {
            return; // stale event from an abandoned batch
        };
        b.pending -= 1;
        if b.pending > 0 {
            return;
        }
        if !b.write_phase {
            b.write_phase = true;
            let mut ios = std::mem::take(&mut self.scratch_ios);
            match job {
                Job::Scrub => self.plan_scrub_writes(&mut ios),
                Job::Tour => self.plan_tour_repairs(&mut ios),
                Job::Rebuild => self.plan_rebuild_write(&mut ios),
                Job::LogReplay => self.plan_replay_writes(&mut ios),
            }
            if !ios.is_empty() {
                if let Some(b) = self.slot(job) {
                    b.pending = ios.len() as u32;
                }
                self.submit_batch(&mut ios, Ev::BatchIo { job, batch });
                self.scratch_ios = ios;
                return;
            }
            self.scratch_ios = ios;
        }
        let Some(b) = self.slot(job).take() else {
            return;
        };
        match job {
            Job::Scrub => self.finish_scrub_batch(b),
            Job::Tour => self.finish_tour_batch(b),
            Job::Rebuild => self.finish_rebuild_batch(b),
            Job::LogReplay => self.finish_replay_batch(b),
        }
    }

    // ------------------------------------------------------------------
    // Idle detection and scrubbing
    // ------------------------------------------------------------------

    fn arm_idle_timer(&mut self, scrub_on_idle: bool) {
        let conservative = matches!(self.cfg.policy, ParityPolicy::Conservative { .. });
        let wants_scrub = scrub_on_idle && self.marks.marked_count() > 0 && self.scrub.is_none();
        if !(wants_scrub || conservative || self.tour_wants_work()) {
            return;
        }
        let Some(at) = self.idle.eligible_at() else {
            return;
        };
        if let Some(ev) = self.idle_event.take() {
            self.events.cancel(ev);
        }
        self.idle_event = Some(self.events.schedule(at.max(self.now), Ev::IdleTimer));
    }

    fn on_idle_timer(&mut self) {
        self.idle_event = None;
        if !self.idle.is_idle(self.now) {
            return;
        }
        // An idle period has begun: fold the burst write volume into
        // the Conservative policy's estimator.
        if self.burst_bytes_acc > 0.0 {
            self.ewma_burst_bytes = if self.ewma_burst_bytes == 0.0 {
                self.burst_bytes_acc
            } else {
                BURST_EWMA_ALPHA * self.burst_bytes_acc
                    + (1.0 - BURST_EWMA_ALPHA) * self.ewma_burst_bytes
            };
            self.burst_bytes_acc = 0.0;
        }
        let d = self.evaluate_policy();
        if d.scrub_on_idle && self.marks.marked_count() > 0 {
            self.start_scrub();
        }
        // Parity scrubbing has priority; the tour takes the idle
        // period only when no parity scrub started.
        if self.scrub.is_none() {
            self.maybe_start_tour();
        }
    }

    /// Host-requested parity point (paper §5): queue every dirty
    /// stripe in the byte range for immediate scrubbing, ahead of the
    /// background sweep and regardless of idleness.
    pub fn request_parity_point(&mut self, offset: u64, bytes: u64) {
        let end = (offset + bytes).min(self.layout.logical_capacity());
        if offset >= end {
            return;
        }
        let first = self.layout.locate(offset).stripe;
        let last = self.layout.locate(end - 1).stripe;
        let mut queued = false;
        for stripe in first..=last {
            if self.marks.is_marked(stripe) && !self.priority_scrub.contains(&stripe) {
                self.priority_scrub.push_back(stripe);
                queued = true;
            }
        }
        self.metrics.run.parity_points += 1;
        if queued {
            self.start_scrub();
        }
    }

    /// Starts scrubbing if not already running. Whether scrubbing
    /// continues under client load is re-decided by the policy at
    /// every batch boundary.
    fn start_scrub(&mut self) {
        if self.scrub.is_some() || self.degraded.is_some() || self.marks.marked_count() == 0 {
            return;
        }
        self.scrub_next_batch();
    }

    /// Pops parity-point stripes that are still dirty and writable
    /// into `batch`, up to a batch of them.
    fn priority_batch(&mut self, batch: &mut Vec<u64>) {
        while batch.len() < self.cfg.scrub_batch as usize {
            let Some(s) = self.priority_scrub.pop_front() else {
                break;
            };
            if self.marks.is_marked(s) && !self.writing.contains_key(&s) {
                batch.push(s);
            } else if self.marks.is_marked(s) {
                // Still dirty but being written: retry later.
                self.priority_scrub.push_back(s);
                break;
            }
        }
    }

    /// Picks and issues the next scrub batch: a run of adjacent dirty
    /// stripes starting at the sweep cursor, skipping stripes with
    /// writes in flight. The stripe list is the pooled one
    /// ([`Controller::pooled_stripes`]), handed back when the batch
    /// finishes.
    fn scrub_next_batch(&mut self) {
        let total = self.layout.stripes();
        let mut batch = self.pooled_stripes(0..0);
        // Parity-point requests jump the queue.
        self.priority_batch(&mut batch);
        if batch.is_empty() {
            // One batch = one run of *adjacent* dirty stripes (so its
            // disk reads coalesce into single extents) starting at the
            // first eligible stripe past the sweep cursor. Small
            // batches keep the scrubber's preemption granularity fine;
            // stripes with client writes in flight are skipped.
            let writing = &self.writing;
            let Some(start) = self
                .marks
                .marked_from(self.scrub_cursor, 4 * self.cfg.scrub_batch as usize)
                .find(|s| !writing.contains_key(s))
            else {
                // Every nearby dirty stripe is being written: give up
                // for now; completions will retrigger.
                self.spare_stripes = batch;
                return;
            };
            let run = self.marks.marked_run(start, self.cfg.scrub_batch);
            batch.extend((start..start + run).take_while(|s| !writing.contains_key(s)));
            let last = batch.last().copied().unwrap_or(start);
            self.scrub_cursor = (last + 1) % total;
        }
        self.issue_scrub_batch(batch);
    }

    /// Issues the read phase of a scrub batch.
    fn issue_scrub_batch(&mut self, batch: Vec<u64>) {
        debug_assert!(!batch.is_empty());
        // Plan the reads: for each dirty stripe, the dirty row range of
        // every data unit; extents on the same disk merge when
        // adjacent (the coalescing optimisation).
        let mut per_disk = std::mem::take(&mut self.scrub_extents);
        per_disk.resize(self.cfg.disks as usize, Vec::new());
        for extents in &mut per_disk {
            extents.clear();
        }
        for &s in &batch {
            let (lo, sectors) = self.dirty_extent(s);
            for u in 0..self.layout.data_units() {
                let d = self.layout.data_disk(s, u) as usize;
                if let Some(extents) = per_disk.get_mut(d) {
                    match extents.last_mut() {
                        Some((lba, len)) if *lba + *len == lo => *len += sectors,
                        _ => extents.push((lo, sectors)),
                    }
                }
            }
        }

        let mut ios = std::mem::take(&mut self.scratch_ios);
        for (d, extents) in per_disk.iter_mut().enumerate() {
            for (lba, sectors) in extents.drain(..) {
                ios.push(PlannedIo {
                    disk: d as u32,
                    lba,
                    sectors,
                    cause: IoCause::ScrubRead,
                });
            }
        }
        self.scrub_extents = per_disk;
        self.begin_batch(Job::Scrub, batch, &mut ios);
        self.scratch_ios = ios;
    }

    /// Scrub write phase: one parity write per stripe over its dirty
    /// rows.
    fn plan_scrub_writes(&self, ios: &mut Vec<PlannedIo>) {
        let Some(scrub) = &self.scrub else { return };
        for &s in &scrub.stripes {
            let (lba, sectors) = self.dirty_extent(s);
            ios.push(PlannedIo {
                disk: self.layout.parity_disk(s),
                lba,
                sectors,
                cause: IoCause::ScrubWrite,
            });
        }
    }

    /// The sectors of each unit of marked `stripe` from its first
    /// marked row through its last: what a scrub reads from every data
    /// unit and writes to parity.
    fn dirty_extent(&self, stripe: u64) -> (u64, u64) {
        let mask = self.marks.row_mask(stripe);
        debug_assert!(mask != 0);
        let row_sectors = self.layout.unit_sectors() / u64::from(self.cfg.mark_granularity.bits());
        let first = u64::from(mask.trailing_zeros());
        let last = 63 - u64::from(mask.leading_zeros());
        (
            self.layout.stripe_lba(stripe) + first * row_sectors,
            (last - first + 1) * row_sectors,
        )
    }

    fn finish_scrub_batch(&mut self, scrub: Batch) {
        let mut settled = 0u64;
        let mut condemned: Option<u32> = None;
        for &s in &scrub.stripes {
            if scrub.failed.contains(&s) {
                // A scrub I/O of this stripe exhausted its retries:
                // the mark stays set and a later pass (with fresh
                // fault draws) retries it.
                continue;
            }
            // Checksum-verify the stripe *before* its parity is
            // rebuilt from the platter bytes: a lost or torn write on
            // a marked stripe would otherwise be laundered into a
            // consistent-looking stripe with no record of the loss.
            if let (Some(disk), _) = self.verify_stripes(s..s + 1) {
                condemned.get_or_insert(disk);
            }
            if let Some(shadow) = &mut self.shadow {
                shadow.rebuild_parity(s);
                // Scrub-repair parity invariant: a settled stripe's
                // parity must agree with the XOR of its data units in
                // the shadow model, or the mark clear below would hide
                // a real inconsistency.
                debug_assert!(
                    shadow.parity_consistent(s),
                    "scrub settled stripe {s} with inconsistent shadow parity"
                );
            }
            self.clear_mark(s);
            settled += 1;
        }
        self.spare_stripes = scrub.stripes;
        self.metrics.run.scrub_batches += 1;
        self.metrics.run.stripes_scrubbed += settled;
        if let Some(disk) = condemned {
            // Scrub-detected corruption condemned a disk. This may
            // start a forced settle of the remaining marks right here;
            // the continuation below is guarded against double-issuing
            // a batch.
            self.begin_eviction(disk);
        }

        if self.nvram_recovery() && self.marks.marked_count() == 0 {
            self.reprotected_at = Some(self.now);
        }

        // Unblock writes that were waiting on these stripes (they may
        // block again on the next batch).
        self.restart_blocked();

        // Continue? Forced scrubs (policy demand or NVRAM recovery)
        // keep going under load; idle scrubs are preempted between
        // batches as soon as client work appears.
        if self.marks.marked_count() == 0 {
            // Parity fully settled: an eviction settle can now
            // conclude; the rest of the idle period belongs to the
            // latent-error tour (no-op unless enabled and idle).
            self.try_finalize_eviction();
            self.maybe_start_tour();
            return;
        }
        let d = self.evaluate_policy();
        let keep_going = d.scrub_now
            || self.nvram_recovery()
            || self.evicting.is_some()
            || (d.scrub_on_idle && self.idle.is_idle(self.now));
        if keep_going {
            if self.scrub.is_none() {
                self.scrub_next_batch();
            }
        } else {
            self.arm_idle_timer(d.scrub_on_idle);
        }
    }

    // ------------------------------------------------------------------
    // Latent-error tour scrubbing
    // ------------------------------------------------------------------

    /// True if the tour scrubber could usefully run right now; decides
    /// whether the idle timer is worth arming on its behalf.
    fn tour_wants_work(&self) -> bool {
        let Some(tour) = &self.tour else { return false };
        if self.tour_batch.is_some() || self.degraded.is_some() {
            return false;
        }
        // While draining, the tour in hand is finished, but a *new*
        // tour starts only if none has completed yet — every
        // scrub-enabled run gets at least one full tour without
        // keeping the event loop alive forever.
        !(self.draining && tour.tours_done() > 0 && !tour.mid_tour())
    }

    /// Plans and issues the next tour batch if the array is idle, no
    /// parity scrub is active, and the IOPS budget allows.
    fn maybe_start_tour(&mut self) {
        if !self.tour_wants_work() || self.scrub.is_some() || !self.idle.is_idle(self.now) {
            return;
        }
        let now = self.now;
        let Some(tour) = self.tour.as_mut() else {
            return;
        };
        match tour.plan(now) {
            TourStep::Batch {
                first_stripe,
                stripes,
            } => self.issue_tour_batch(first_stripe, stripes),
            TourStep::Wait(ready) => {
                if self.tour_tick.is_none() {
                    let at = ready.max(self.now + SimDuration::from_micros(1));
                    self.tour_tick = Some(self.events.schedule(at, Ev::TourTick));
                }
            }
        }
    }

    /// Issues the read phase of a tour batch: one contiguous extent on
    /// *every* disk (parity included — full sector coverage).
    fn issue_tour_batch(&mut self, first_stripe: u64, stripes: u64) {
        let lba = self.layout.stripe_lba(first_stripe);
        let sectors = stripes * self.layout.unit_sectors();
        let mut ios = std::mem::take(&mut self.scratch_ios);
        self.each_disk(None, lba, sectors, IoCause::TourRead, &mut ios);
        let batch = self.pooled_stripes(first_stripe..first_stripe + stripes);
        self.begin_batch(Job::Tour, batch, &mut ios);
        self.scratch_ios = ios;
    }

    /// Tour write phase: detect latent errors under the batch and plan
    /// repair writes for those that are repairable. The tour already
    /// holds every unit of the batch in memory, so a repair is a
    /// single sector write — no extra reconstruction reads.
    fn plan_tour_repairs(&mut self, ios: &mut Vec<PlannedIo>) {
        let Some((first, nstripes)) = self
            .tour_batch
            .as_ref()
            .and_then(|b| Some((*b.stripes.first()?, b.stripes.len() as u64)))
        else {
            return;
        };
        // Integrity sweep first: repairs/declares here restore parity
        // consistency on unmarked stripes, which the latent-repair
        // cross-checks below assert.
        let (condemned, declared) = self.verify_stripes(first..first + nstripes);
        // A declare here also counts as a failed read, although no
        // client read failed: the serialized results keep that count
        // until their next schema change.
        self.metrics.run.failed_reads += declared;
        if let Some(disk) = condemned {
            self.begin_eviction(disk);
        }
        let unit_sectors = self.layout.unit_sectors();
        let lba0 = self.layout.stripe_lba(first);
        let span = nstripes * unit_sectors;

        let mut detected = 0u64;
        if let Some(latent) = &mut self.latent {
            latent.advance(self.now);
        }
        // No active error: nothing to detect on any disk.
        if let Some(latent) = self.latent.as_ref().filter(|l| !l.is_clear()) {
            for disk in 0..self.cfg.disks {
                for sector in latent.active_in(disk, lba0, span, self.now) {
                    detected += 1;
                    let stripe = first + (sector - lba0) / unit_sectors;
                    // Repair needs fresh parity (not marked dirty, not
                    // in a never-protected region) and the same sector
                    // of every other unit readable — a double error on
                    // one row is unreconstructable until a client
                    // rewrite.
                    let clean = self.parity_fresh(stripe);
                    let twin = (0..self.cfg.disks)
                        .any(|d| d != disk && latent.active_at(d, sector, self.now));
                    if clean && !twin {
                        ios.push(PlannedIo {
                            disk,
                            lba: sector,
                            sectors: 1,
                            cause: IoCause::LatentRepairWrite,
                        });
                    }
                }
            }
        }
        self.metrics.run.latent_detected += detected;

        // Cross-check against the shadow model: repairs were only
        // planned for stripes with fresh parity, so every stripe we are
        // about to repair must actually be reconstructable, or the
        // repair would write garbage over client data.
        for io in ios.iter() {
            self.assert_reconstructable(first + (io.lba - lba0) / unit_sectors, io.disk);
        }
        // Repairs exist only if the latent process does (it produced
        // them above), so the if-let never silently skips.
        if let Some(latent) = &mut self.latent {
            for io in ios.iter() {
                let was_bad = latent.repair(io.disk, io.lba);
                debug_assert!(was_bad);
            }
        }
        self.metrics.run.latent_repaired += ios.len() as u64;
    }

    fn finish_tour_batch(&mut self, tb: Batch) {
        let stripes = tb.stripes.len() as u64;
        self.spare_stripes = tb.stripes;
        self.metrics.run.tour_sectors_read +=
            stripes * self.layout.unit_sectors() * u64::from(self.cfg.disks);
        let now = self.now;
        if let Some(dur) = self.tour.as_mut().and_then(|t| t.complete(now, stripes)) {
            self.metrics.record_tour(dur);
        }
        // Keep touring through the idle period (budget permitting);
        // otherwise re-arm the idle timer for the next one.
        self.maybe_start_tour();
        if self.tour_batch.is_none() && self.tour_tick.is_none() {
            let d = self.evaluate_policy();
            self.arm_idle_timer(d.scrub_on_idle);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    fn on_disk_failure(&mut self, disk: u32) {
        self.disk_mut(disk).fail();
        // The driver either ends the run here ([`ArrayView::assess`])
        // or calls [`Controller::enter_degraded`] to continue.
    }

    /// Switches to degraded operation after `disk` failed, and returns
    /// the loss report. One pass classifies every stripe
    /// ([`ArrayView::classify`]), records its truth in the report, and
    /// acts on what it declares: the dead disk's data unit on a stale or
    /// never-protected stripe becomes *scarred* (reads of it fail until
    /// it is fully rewritten), and so does a poisoned stripe's unit that
    /// fails its checksum. Stripes whose *parity* lived on the dead disk
    /// stay marked until the rebuild sweep recomputes them.
    pub(crate) fn enter_degraded(&mut self, disk: u32) -> DataLossReport {
        // Abandon the scrub and rebuild batches: their remaining events
        // are ignored as stale, and no new scrubs start while degraded.
        // A parity-log replay carries on: logged stripes' parity stays
        // current, and a replay I/O aimed at the dead disk fails fast.
        self.scrub = None;
        self.rebuild_batch = None;
        // A pending eviction settle is overtaken by this failure: with
        // a disk already lost there is no slack to retire another.
        if let Some(e) = self.evicting.take() {
            self.disk_mut(e).set_patient(false);
        }
        // The latent-error tour is abandoned too: with a dead disk
        // there is no redundancy left to repair from.
        self.tour_batch = None;
        if let Some(ev) = self.tour_tick.take() {
            self.events.cancel(ev);
        }
        if let Some(ev) = self.idle_event.take() {
            self.events.cancel(ev);
        }

        // A lost unit's content is permanently whatever the survivors
        // XOR to, absorbed so the XOR identity holds again. A poisoned
        // candidate that verifies heals the lie (the rot was on the dead
        // unit itself); one that fails is scarred rather than rebuilt
        // into wrong bytes. The report reads each mark before it clears.
        let mut report = DataLossReport {
            failed_disk: disk,
            at: self.now,
            dirty_stripes: self.marks.marked_count(),
            ..DataLossReport::default()
        };
        let mut scarred: BTreeMap<u64, u32> = BTreeMap::new();
        for stripe in 0..self.layout.stripes() {
            let (declared, truth) = self.view().classify(stripe, disk);
            report.record(&self.view(), stripe, truth);
            let (unit, fresh) = match declared {
                Disposition::Unprotected(unit) | Disposition::Stale(unit) => (unit, false),
                Disposition::Poisoned(unit) => (unit, true),
                _ => continue,
            };
            let verdict = match &mut self.shadow {
                Some(shadow) => {
                    reconstruct_unit(shadow, self.integrity.as_mut(), stripe, disk, fresh)
                }
                None => IntegrityVerdict::Clean,
            };
            if !fresh || verdict == IntegrityVerdict::Declared {
                scarred.insert(stripe, unit);
            }
            self.clear_mark(stripe);
        }

        self.degraded = Some(Degraded {
            failed: disk,
            scarred,
            rebuild: None,
        });

        // Re-plan writes that were blocked behind the abandoned scrub.
        self.restart_blocked();
        report
    }

    /// Re-enters every blocked request through the planning path (they
    /// may block again).
    fn restart_blocked(&mut self) {
        for slot in std::mem::take(&mut self.blocked) {
            let req = self.take_req(slot);
            let rec = IoRecord {
                time: req.arrival,
                offset: req.offset,
                bytes: req.bytes,
                kind: req.kind,
            };
            self.retire_shell(req);
            self.start_request(rec);
        }
    }

    fn on_spare_installed(&mut self) {
        let Some(d) = &mut self.degraded else { return };
        if d.rebuild.is_some() {
            return;
        }
        let failed = d.failed;
        d.rebuild = Some(Rebuild {
            cursor_done: 0,
            stalled: false,
        });
        self.disk_mut(failed).replace();
        self.rebuild_next_batch();
    }

    /// Issues the next rebuild batch: read a contiguous extent from
    /// every survivor, then write the reconstructed extent onto the
    /// spare. Stripes with client writes in flight stall the sweep
    /// until they complete.
    fn rebuild_next_batch(&mut self) {
        let (Some(failed), Some(start)) = (self.dead_disk(), self.rebuild_cursor()) else {
            return;
        };
        let total = self.layout.stripes();
        if start >= total {
            self.finish_rebuild();
            return;
        }
        // Rebuild batches are four scrub batches long.
        let max_end = (start + 4 * self.cfg.scrub_batch).min(total);
        let mut end = start;
        while end < max_end && !self.writing.contains_key(&end) {
            end += 1;
        }
        if end == start {
            if let Some(rb) = self.rebuild_mut() {
                rb.stalled = true;
            }
            return;
        }
        let lba = self.layout.stripe_lba(start);
        let sectors = (end - start) * self.layout.unit_sectors();
        let mut ios = std::mem::take(&mut self.scratch_ios);
        self.each_disk(Some(failed), lba, sectors, IoCause::RebuildRead, &mut ios);
        let batch = self.pooled_stripes(start..end);
        self.begin_batch(Job::Rebuild, batch, &mut ios);
        self.scratch_ios = ios;
        if let Some(rb) = self.rebuild_mut() {
            rb.stalled = false;
        }
    }

    /// Rebuild write phase: the reconstructed extent onto the spare.
    fn plan_rebuild_write(&self, ios: &mut Vec<PlannedIo>) {
        let (Some(b), Some(failed)) = (&self.rebuild_batch, self.dead_disk()) else {
            return;
        };
        let Some(&first) = b.stripes.first() else {
            return;
        };
        ios.push(PlannedIo {
            disk: failed,
            lba: self.layout.stripe_lba(first),
            sectors: b.stripes.len() as u64 * self.layout.unit_sectors(),
            cause: IoCause::RebuildWrite,
        });
    }

    fn finish_rebuild_batch(&mut self, batch: Batch) {
        let Some(failed) = self.dead_disk() else {
            return;
        };
        // A rebuild I/O that exhausted its retries leaves the spare's
        // copy of the extent untrusted: the cursor stays put and the
        // batch is redone with fresh fault draws.
        if batch.failed.is_empty() {
            if let (Some(rb), Some(&last)) = (self.rebuild_mut(), batch.stripes.last()) {
                rb.cursor_done = last + 1;
            }
            for &s in &batch.stripes {
                if self.layout.parity_disk(s) == failed {
                    if let Some(shadow) = &mut self.shadow {
                        shadow.rebuild_parity(s);
                    }
                    self.clear_mark(s);
                }
            }
        }
        self.spare_stripes = batch.stripes;
        self.restart_blocked();
        self.rebuild_next_batch();
    }

    fn finish_rebuild(&mut self) {
        self.degraded = None;
        self.rebuilt_at = Some(self.now);
        // If a proactive eviction opened this exposure window, it
        // closes now: the spare holds a full copy again.
        self.metrics.close_eviction(self.now);
        // Normal operation resumes; let the policy pick up any
        // remaining background work.
        let d = self.evaluate_policy();
        self.arm_idle_timer(d.scrub_on_idle);
    }

    // ------------------------------------------------------------------
    // Parity logging
    // ------------------------------------------------------------------

    /// Flushes the NVRAM log buffer, one sequential fire-and-forget
    /// write per buffer-full, and hands each full region to the replay.
    /// A region's flushes go round-robin over the disks, each disk's
    /// share of both regions at the end of its platter.
    fn flush_log(&mut self) {
        const BUFFER_SECTORS: u64 = LOG_BUFFER_BYTES / 512;
        const REGION_FLUSHES: u64 = LOG_REGION_BYTES / LOG_BUFFER_BYTES;
        let disks = u64::from(self.cfg.disks);
        let share = REGION_FLUSHES.div_ceil(disks) * BUFFER_SECTORS;
        let base = self
            .cfg
            .disk_model
            .geometry
            .capacity_sectors()
            .saturating_sub(2 * share);
        while self.plog.buffered >= LOG_BUFFER_BYTES {
            self.plog.buffered -= LOG_BUFFER_BYTES;
            let n = self.plog.flushes.len() as u64;
            let io = PlannedIo {
                disk: (n % disks) as u32,
                lba: base + self.plog.region * share + n / disks * BUFFER_SECTORS,
                sectors: BUFFER_SECTORS,
                cause: IoCause::ScrubWrite,
            };
            self.plog.flushes.push(io);
            self.submit(io, Ev::RepairIo);
            if n + 1 == REGION_FLUSHES {
                self.plog.seal();
                self.replay_next_batch();
            }
        }
    }

    /// Issues the next replay batch: the next scrub batch's worth of
    /// logged stripes, their parity and an even share of the log still
    /// to be read.
    fn replay_next_batch(&mut self) {
        let queued = self.plog.replay.len();
        if self.replay_batch.is_some() || queued == 0 {
            return;
        }
        let run = queued.min(self.cfg.scrub_batch as usize);
        let log_reads = self.plog.replay_log.len().div_ceil(queued.div_ceil(run));
        let mut ios = std::mem::take(&mut self.scratch_ios);
        ios.extend(self.plog.replay_log.drain(..log_reads));
        let mut stripes = Vec::with_capacity(run);
        for &(s, lo, hi) in self.plog.replay.iter().take(run) {
            stripes.push(s);
            ios.push(self.parity_rows(s, lo, hi, IoCause::ScrubRead));
        }
        self.begin_batch(Job::LogReplay, stripes, &mut ios);
        self.scratch_ios = ios;
    }

    /// Replay write phase: the batch's parity updates, applied in place.
    fn plan_replay_writes(&self, ios: &mut Vec<PlannedIo>) {
        let Some(b) = &self.replay_batch else { return };
        for &(s, lo, hi) in self.plog.replay.iter().take(b.stripes.len()) {
            ios.push(self.parity_rows(s, lo, hi, IoCause::ScrubWrite));
        }
    }

    fn finish_replay_batch(&mut self, batch: Batch) {
        self.plog.replay.drain(..batch.stripes.len());
        // A replay I/O that exhausted its retries leaves the stripe's
        // parity untrusted: it is marked for the scrubber.
        for &s in &batch.failed {
            self.mark_dirty(s, 0, self.layout.unit_bytes());
        }
        self.metrics.run.scrub_batches += 1;
        self.restart_blocked();
        self.replay_next_batch();
    }

    fn on_nvram_failure(&mut self) {
        // Contents lost: conservatively treat every stripe that keeps
        // parity as unredundant and sweep the whole array ("the
        // recovery technique for a failed marking memory is simply to
        // rebuild parity for the whole array ... in parallel with
        // continued use"). An array with nothing to sweep is
        // reprotected at once. The parity log goes with the NVRAM: the
        // sweep stands in for its replay.
        self.cfg.regions.fail_nvram(&mut self.marks);
        for h in self.writing.values_mut() {
            h.marks = h.marks.wrapping_add(1);
        }
        self.push_lag();
        if self.marks.marked_count() == 0 {
            self.reprotected_at = Some(self.now);
        }
        self.plog = ParityLog::default();
        if self.replay_batch.take().is_some() {
            self.restart_blocked();
        }
        self.start_scrub();
    }
}

#[cfg(test)]
mod tests;
