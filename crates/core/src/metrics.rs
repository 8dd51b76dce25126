//! Per-run measurements.
//!
//! Everything the evaluation section needs comes out of one
//! [`RunMetrics`]: response-time statistics (Table 2 / Figures 2-4),
//! parity-lag and unprotected-time integrals (Tables 3-4, via the
//! availability equations), the disk-I/O breakdown (Figure 1), and the
//! write duty cycle (the §3.5 power model input).
//!
//! The record is live for the whole run: [`MetricsBuilder`] holds a
//! `RunMetrics` that the controller and driver count straight into
//! (I/Os by cause, scrub and tour totals, fault and integrity counters,
//! event-loop totals), beside the accumulators those counters cannot
//! express (response statistics and histograms, the lag, dirty and
//! write-busy step functions, tour durations, the open eviction
//! window). [`MetricsBuilder::finish`] fills in the fields derived from
//! those accumulators and keeps every counted field as it stands.

use afraid_disk::disk::OpKind;
use afraid_sim::stats::{Histogram, OnlineStats, TimeWeighted};
use afraid_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::integrity::IntegrityCounters;

/// Why a disk I/O was issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoCause {
    /// Client read of data units.
    ClientRead,
    /// Client write of data units.
    ClientWrite,
    /// Old-data / old-parity pre-read of a RAID 5 read-modify-write,
    /// and parity logging's old-data pre-read.
    RmwPreRead,
    /// Parity write in the client write path (RAID 5 mode).
    ParityWrite,
    /// Background scrub read; also a parity-log replay's read of the
    /// log and of the logged stripes' parity.
    ScrubRead,
    /// Background scrub parity write; also a parity-log buffer flush
    /// and a replay's parity write. Being background causes, a flush
    /// whose retries run out only completes (a client-write cause
    /// would mark whatever stripe the log's sectors fall in), and a
    /// failed replay I/O is charged to its batch.
    ScrubWrite,
    /// Degraded-mode read of survivors to reconstruct a lost unit.
    ReconstructRead,
    /// Rebuild-sweep read of a surviving disk.
    RebuildRead,
    /// Rebuild-sweep write onto the spare.
    RebuildWrite,
    /// Background tour-scrub read (latent-error detection).
    TourRead,
    /// Repair write for a latent sector error found by a tour.
    LatentRepairWrite,
    /// Rewrite of a unit whose read exhausted its retries, with data
    /// reconstructed from the survivors (read-error scrubbing).
    ReadRepairWrite,
    /// Repair write for a checksum-detected silent corruption: the
    /// unit regenerated from fresh parity, or the stripe's parity
    /// rebuilt over a declared (absorbed) corruption.
    CorruptRepairWrite,
}

impl IoCause {
    /// The direction of every I/O issued for this cause.
    pub fn op(self) -> OpKind {
        match self {
            IoCause::ClientRead
            | IoCause::RmwPreRead
            | IoCause::ScrubRead
            | IoCause::ReconstructRead
            | IoCause::RebuildRead
            | IoCause::TourRead => OpKind::Read,
            IoCause::ClientWrite
            | IoCause::ParityWrite
            | IoCause::ScrubWrite
            | IoCause::RebuildWrite
            | IoCause::LatentRepairWrite
            | IoCause::ReadRepairWrite
            | IoCause::CorruptRepairWrite => OpKind::Write,
        }
    }
}

/// Count of disk I/Os by cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoBreakdown {
    /// Client data reads.
    pub client_read: u64,
    /// Client data writes.
    pub client_write: u64,
    /// RMW pre-reads (old data + old parity).
    pub rmw_pre_read: u64,
    /// Foreground parity writes.
    pub parity_write: u64,
    /// Scrub reads (and parity-log replay reads).
    pub scrub_read: u64,
    /// Scrub parity writes (and parity-log flushes and replay writes).
    pub scrub_write: u64,
    /// Degraded-mode reconstruct reads.
    pub reconstruct_read: u64,
    /// Rebuild-sweep reads.
    pub rebuild_read: u64,
    /// Rebuild-sweep writes to the spare.
    pub rebuild_write: u64,
    /// Tour-scrub reads.
    pub tour_read: u64,
    /// Latent-error repair writes.
    pub latent_repair_write: u64,
    /// Read-error-scrubbing rewrites after reconstruct fallbacks.
    pub read_repair_write: u64,
    /// Corruption repair writes (checksum-detected silent faults).
    pub corrupt_repair_write: u64,
}

impl IoBreakdown {
    /// Records one I/O.
    pub fn record(&mut self, cause: IoCause) {
        match cause {
            IoCause::ClientRead => self.client_read += 1,
            IoCause::ClientWrite => self.client_write += 1,
            IoCause::RmwPreRead => self.rmw_pre_read += 1,
            IoCause::ParityWrite => self.parity_write += 1,
            IoCause::ScrubRead => self.scrub_read += 1,
            IoCause::ScrubWrite => self.scrub_write += 1,
            IoCause::ReconstructRead => self.reconstruct_read += 1,
            IoCause::RebuildRead => self.rebuild_read += 1,
            IoCause::RebuildWrite => self.rebuild_write += 1,
            IoCause::TourRead => self.tour_read += 1,
            IoCause::LatentRepairWrite => self.latent_repair_write += 1,
            IoCause::ReadRepairWrite => self.read_repair_write += 1,
            IoCause::CorruptRepairWrite => self.corrupt_repair_write += 1,
        }
    }

    /// Disk I/Os in the client write critical path.
    pub fn foreground_write_ios(&self) -> u64 {
        self.client_write + self.rmw_pre_read + self.parity_write
    }

    /// All disk I/Os.
    pub fn total(&self) -> u64 {
        self.client_read
            + self.client_write
            + self.rmw_pre_read
            + self.parity_write
            + self.scrub_read
            + self.scrub_write
            + self.reconstruct_read
            + self.rebuild_read
            + self.rebuild_write
            + self.tour_read
            + self.latent_repair_write
            + self.read_repair_write
            + self.corrupt_repair_write
    }
}

/// The live run record plus the accumulators [`MetricsBuilder::finish`]
/// derives the rest of [`RunMetrics`] from.
#[derive(Clone, Debug)]
pub struct MetricsBuilder {
    /// The record itself: the controller and driver count straight
    /// into it; `finish` overwrites only the derived fields.
    pub(crate) run: RunMetrics,
    start: SimTime,
    response_all: OnlineStats,
    response_read: OnlineStats,
    response_write: OnlineStats,
    histogram_ms: Histogram,
    histogram_read_ms: Histogram,
    histogram_write_ms: Histogram,
    /// First-attempt-to-success latency of retried disk I/Os.
    retry_histogram_ms: Histogram,
    /// Parity lag in bytes, as a step function of time.
    lag: TimeWeighted,
    /// Dirty-stripe count, as a step function of time.
    dirty: TimeWeighted,
    /// 1.0 while at least one client write is outstanding.
    write_busy: TimeWeighted,
    tour_secs_sum: f64,
    /// When the open eviction exposure window started, if one is open.
    evict_open: Option<SimTime>,
}

impl MetricsBuilder {
    /// Creates accumulators starting at `start`.
    pub fn new(start: SimTime) -> MetricsBuilder {
        MetricsBuilder {
            run: RunMetrics::default(),
            start,
            response_all: OnlineStats::new(),
            response_read: OnlineStats::new(),
            response_write: OnlineStats::new(),
            histogram_ms: Histogram::for_latency_ms(),
            histogram_read_ms: Histogram::for_latency_ms(),
            histogram_write_ms: Histogram::for_latency_ms(),
            retry_histogram_ms: Histogram::for_latency_ms(),
            lag: TimeWeighted::new(start, 0.0),
            dirty: TimeWeighted::new(start, 0.0),
            write_busy: TimeWeighted::new(start, 0.0),
            tour_secs_sum: 0.0,
            evict_open: None,
        }
    }

    /// Records the response time of one completed client request.
    pub fn record_response(&mut self, is_write: bool, latency: SimDuration) {
        let ms = latency.as_millis_f64();
        self.response_all.record(ms);
        if is_write {
            self.response_write.record(ms);
            self.histogram_write_ms.record(ms);
        } else {
            self.response_read.record(ms);
            self.histogram_read_ms.record(ms);
        }
        self.histogram_ms.record(ms);
    }

    /// Updates the parity-lag step function.
    pub fn set_lag(&mut self, now: SimTime, lag_bytes: f64, dirty_stripes: f64) {
        self.lag.set(now, lag_bytes);
        self.dirty.set(now, dirty_stripes);
    }

    /// Updates the outstanding-writes indicator.
    pub fn set_write_busy(&mut self, now: SimTime, busy: bool) {
        self.write_busy.set(now, if busy { 1.0 } else { 0.0 });
    }

    /// Records one completed full scrub tour.
    pub fn record_tour(&mut self, duration: SimDuration) {
        self.run.scrub_tours += 1;
        self.tour_secs_sum += duration.as_secs_f64();
    }

    /// Records a retried I/O finally succeeding, `latency` after its
    /// first attempt was issued.
    pub fn record_retry_success(&mut self, latency: SimDuration) {
        self.retry_histogram_ms.record(latency.as_millis_f64());
    }

    /// Records a proactive health eviction, opening an exposure window.
    pub fn record_eviction(&mut self, at: SimTime) {
        self.run.evictions += 1;
        self.evict_open = Some(at);
    }

    /// Closes the open eviction exposure window (rebuild finished).
    pub fn close_eviction(&mut self, at: SimTime) {
        if let Some(open) = self.evict_open.take() {
            self.run.evict_exposure_secs += at.since(open).as_secs_f64();
        }
    }

    /// Fraction of elapsed time with non-zero parity lag, up to `now`.
    pub fn frac_unprotected(&self, now: SimTime) -> f64 {
        self.lag.fraction_positive(now)
    }

    /// Finalises at `end`: fills in the derived fields and keeps every
    /// counted one as recorded.
    pub fn finish(self, end: SimTime) -> RunMetrics {
        let run = self.run;
        let span = end.since(self.start);
        let secs = span.as_secs_f64();
        RunMetrics {
            span,
            requests: self.response_all.count(),
            mean_io_ms: self.response_all.mean(),
            mean_read_ms: self.response_read.mean(),
            mean_write_ms: self.response_write.mean(),
            p95_io_ms: self.histogram_ms.quantile(0.95),
            p99_io_ms: self.histogram_ms.quantile(0.99),
            max_io_ms: self.response_all.max().max(0.0),
            mean_parity_lag_bytes: self.lag.mean(end),
            peak_parity_lag_bytes: self.lag.peak(),
            frac_unprotected: self.lag.fraction_positive(end),
            mean_dirty_stripes: self.dirty.mean(end),
            peak_dirty_stripes: self.dirty.peak() as u64,
            write_duty_cycle: self.write_busy.mean(end),
            mean_tour_secs: if run.scrub_tours == 0 {
                0.0
            } else {
                self.tour_secs_sum / run.scrub_tours as f64
            },
            p50_io_ms: self.histogram_ms.quantile(0.50),
            p50_read_ms: self.histogram_read_ms.quantile(0.50),
            p95_read_ms: self.histogram_read_ms.quantile(0.95),
            p99_read_ms: self.histogram_read_ms.quantile(0.99),
            p50_write_ms: self.histogram_write_ms.quantile(0.50),
            p95_write_ms: self.histogram_write_ms.quantile(0.95),
            p99_write_ms: self.histogram_write_ms.quantile(0.99),
            retry_p50_ms: self.retry_histogram_ms.quantile(0.50),
            retry_p95_ms: self.retry_histogram_ms.quantile(0.95),
            retry_p99_ms: self.retry_histogram_ms.quantile(0.99),
            evict_exposure_secs: run.evict_exposure_secs
                + self
                    .evict_open
                    .map_or(0.0, |open| end.saturating_since(open).as_secs_f64()),
            events_per_sim_sec: if secs > 0.0 {
                run.events_processed as f64 / secs
            } else {
                0.0
            },
            ..run
        }
    }
}

/// Final measurements for one simulation run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Simulated span of the run.
    pub span: SimDuration,
    /// Completed client requests.
    pub requests: u64,
    /// Mean client I/O time, ms — the paper's headline metric.
    pub mean_io_ms: f64,
    /// Mean read response, ms.
    pub mean_read_ms: f64,
    /// Mean write response, ms.
    pub mean_write_ms: f64,
    /// 95th percentile response, ms.
    pub p95_io_ms: f64,
    /// 99th percentile response, ms.
    pub p99_io_ms: f64,
    /// Worst response, ms.
    pub max_io_ms: f64,
    /// Time-averaged parity lag, bytes (equation 4's input).
    pub mean_parity_lag_bytes: f64,
    /// Largest instantaneous parity lag, bytes.
    pub peak_parity_lag_bytes: f64,
    /// Fraction of time with at least one unprotected stripe
    /// (equation 2a's `Tunprot/Ttotal`).
    pub frac_unprotected: f64,
    /// Time-averaged number of dirty stripes.
    pub mean_dirty_stripes: f64,
    /// Peak dirty-stripe count.
    pub peak_dirty_stripes: u64,
    /// Fraction of time with at least one outstanding client write
    /// (the §3.5 power-failure exposure).
    pub write_duty_cycle: f64,
    /// Disk I/O counts by cause.
    pub io: IoBreakdown,
    /// Array read-cache hits.
    pub read_cache_hits: u64,
    /// Scrub batches executed (parity-log replay batches included).
    pub scrub_batches: u64,
    /// Stripes made redundant by the scrubber.
    pub stripes_scrubbed: u64,
    /// Deepest host queue observed.
    pub host_queue_peak: usize,
    /// Host-requested parity points served.
    pub parity_points: u64,
    /// Failed reads, counted for five causes: a degraded-mode read of
    /// a known-bad (scarred) unit on the dead disk, failed fast; a
    /// verified client read whose corruption is declared; a
    /// reconstruct read that a survivor's exhausted retries failed; an
    /// exhausted read of a stripe with no redundancy to reconstruct
    /// from; and a corruption a scrub tour declares, although no read
    /// failed there.
    pub failed_reads: u64,
    /// Latent sector errors detected by scrub tours.
    pub latent_detected: u64,
    /// Latent sector errors repaired from parity.
    pub latent_repaired: u64,
    /// Completed full scrub tours.
    pub scrub_tours: u64,
    /// Sectors read by tour batches (all disks, parity included).
    pub tour_sectors_read: u64,
    /// Mean duration of a completed tour, seconds (0 if none).
    pub mean_tour_secs: f64,
    /// Median response, ms.
    pub p50_io_ms: f64,
    /// Median read response, ms.
    pub p50_read_ms: f64,
    /// 95th percentile read response, ms.
    pub p95_read_ms: f64,
    /// 99th percentile read response, ms.
    pub p99_read_ms: f64,
    /// Median write response, ms.
    pub p50_write_ms: f64,
    /// 95th percentile write response, ms.
    pub p95_write_ms: f64,
    /// 99th percentile write response, ms.
    pub p99_write_ms: f64,
    /// Transient media errors reported by disks.
    pub media_errors: u64,
    /// Disk command timeouts (drawn hangs and fail-slow overruns).
    pub timeouts: u64,
    /// Retry attempts issued by the controller.
    pub retries: u64,
    /// Disk I/Os that exhausted their retry budget or deadline.
    pub io_exhausted: u64,
    /// Exhausted client reads served by reconstruct-read fallback.
    pub reconstruct_fallbacks: u64,
    /// Client writes completed degraded (redundancy deferred via an
    /// NVRAM mark after an exhausted write I/O).
    pub degraded_completions: u64,
    /// Median first-attempt-to-success latency of retried I/Os, ms.
    pub retry_p50_ms: f64,
    /// 95th percentile retried-I/O latency, ms.
    pub retry_p95_ms: f64,
    /// 99th percentile retried-I/O latency, ms.
    pub retry_p99_ms: f64,
    /// Proactive health-scoreboard evictions.
    pub evictions: u64,
    /// Total time inside eviction exposure windows (evicted until the
    /// spare rebuild completed, or the run ended), seconds.
    pub evict_exposure_secs: f64,
    /// Simulation events delivered by the driver loop.
    pub events_processed: u64,
    /// Deepest event queue observed during the run.
    pub event_queue_peak: usize,
    /// Events per *simulated* second. Deterministic, unlike wall-clock
    /// event rates, so it is safe to include in serialized results that
    /// bit-identity tests compare (the repository benchmark reports the
    /// wall-clock rate as `sim_events_per_s`).
    pub events_per_sim_sec: f64,
    /// Integrity-subsystem counters: silent faults injected, detected,
    /// repaired, declared; silent reads (zero under verify-on-read).
    pub integrity: IntegrityCounters,
}

impl RunMetrics {
    /// Disk I/Os per client write in the foreground path — the
    /// Figure 1 quantity (1 for AFRAID, ~4 for RAID 5 small writes).
    pub fn write_ios_per_request(&self, writes: u64) -> f64 {
        if writes == 0 {
            return 0.0;
        }
        self.io.foreground_write_ios() as f64 / writes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_accounting() {
        let mut b = MetricsBuilder::new(SimTime::ZERO);
        b.record_response(false, SimDuration::from_millis(10));
        b.record_response(true, SimDuration::from_millis(30));
        let m = b.finish(SimTime::from_secs(1));
        assert_eq!(m.requests, 2);
        assert!((m.mean_io_ms - 20.0).abs() < 1e-9);
        assert!((m.mean_read_ms - 10.0).abs() < 1e-9);
        assert!((m.mean_write_ms - 30.0).abs() < 1e-9);
        assert!((m.max_io_ms - 30.0).abs() < 1e-9);
    }

    #[test]
    fn lag_integration() {
        let mut b = MetricsBuilder::new(SimTime::ZERO);
        b.set_lag(SimTime::from_secs(1), 32_768.0, 1.0);
        b.set_lag(SimTime::from_secs(3), 0.0, 0.0);
        let m = b.finish(SimTime::from_secs(4));
        // 32 KB for 2 s out of 4 s.
        assert!((m.mean_parity_lag_bytes - 16_384.0).abs() < 1e-6);
        assert!((m.frac_unprotected - 0.5).abs() < 1e-9);
        assert_eq!(m.peak_parity_lag_bytes, 32_768.0);
        assert_eq!(m.peak_dirty_stripes, 1);
    }

    #[test]
    fn write_duty_cycle() {
        let mut b = MetricsBuilder::new(SimTime::ZERO);
        b.set_write_busy(SimTime::from_secs(1), true);
        b.set_write_busy(SimTime::from_secs(2), false);
        let m = b.finish(SimTime::from_secs(10));
        assert!((m.write_duty_cycle - 0.1).abs() < 1e-9);
    }

    #[test]
    fn io_breakdown_totals() {
        let mut io = IoBreakdown::default();
        io.record(IoCause::ClientWrite);
        io.record(IoCause::RmwPreRead);
        io.record(IoCause::RmwPreRead);
        io.record(IoCause::ParityWrite);
        io.record(IoCause::ScrubRead);
        assert_eq!(io.foreground_write_ios(), 4);
        assert_eq!(io.total(), 5);
    }

    #[test]
    fn write_ios_per_request() {
        let mut b = MetricsBuilder::new(SimTime::ZERO);
        for _ in 0..4 {
            b.run.io.record(IoCause::ClientWrite);
        }
        let m = b.finish(SimTime::from_secs(1));
        assert!((m.write_ios_per_request(4) - 1.0).abs() < 1e-9);
        assert_eq!(m.write_ios_per_request(0), 0.0);
    }

    #[test]
    fn empty_run() {
        let b = MetricsBuilder::new(SimTime::ZERO);
        let m = b.finish(SimTime::from_secs(1));
        assert_eq!(m.requests, 0);
        assert_eq!(m.mean_io_ms, 0.0);
        assert_eq!(m.frac_unprotected, 0.0);
    }

    #[test]
    fn percentiles_ordered() {
        let mut b = MetricsBuilder::new(SimTime::ZERO);
        for i in 1..=1000u64 {
            b.record_response(false, SimDuration::from_micros(i * 100));
        }
        let m = b.finish(SimTime::from_secs(1));
        assert!(m.p50_io_ms <= m.p95_io_ms);
        assert!(m.p95_io_ms <= m.p99_io_ms);
        assert!(m.p99_io_ms <= m.max_io_ms * 1.05);
        assert!(m.mean_io_ms < m.p95_io_ms);
    }

    #[test]
    fn per_op_percentiles_split_reads_and_writes() {
        let mut b = MetricsBuilder::new(SimTime::ZERO);
        for i in 1..=100u64 {
            b.record_response(false, SimDuration::from_millis(i));
            b.record_response(true, SimDuration::from_millis(i * 10));
        }
        let m = b.finish(SimTime::from_secs(1));
        assert!(m.p50_read_ms <= m.p95_read_ms && m.p95_read_ms <= m.p99_read_ms);
        assert!(m.p50_write_ms <= m.p95_write_ms && m.p95_write_ms <= m.p99_write_ms);
        assert!(m.p50_write_ms > m.p99_read_ms);
    }

    #[test]
    fn fault_counters_accumulate() {
        let mut b = MetricsBuilder::new(SimTime::ZERO);
        b.run.timeouts += 2;
        b.record_retry_success(SimDuration::from_millis(12));
        let m = b.finish(SimTime::from_secs(1));
        assert_eq!(m.timeouts, 2);
        assert!(m.retry_p50_ms > 0.0);
    }

    #[test]
    fn eviction_window_accounting() {
        // A closed window charges evicted -> rebuilt; an open one is
        // closed at the end of the run.
        let mut b = MetricsBuilder::new(SimTime::ZERO);
        b.record_eviction(SimTime::from_secs(10));
        b.close_eviction(SimTime::from_secs(25));
        let m = b.clone().finish(SimTime::from_secs(100));
        assert_eq!(m.evictions, 1);
        assert!((m.evict_exposure_secs - 15.0).abs() < 1e-9);

        b.record_eviction(SimTime::from_secs(90));
        let m = b.finish(SimTime::from_secs(100));
        assert_eq!(m.evictions, 2);
        assert!((m.evict_exposure_secs - 25.0).abs() < 1e-9);
    }
}
