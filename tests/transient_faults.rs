//! Acceptance tests for transient-fault tolerance: per-I/O error and
//! fail-slow injection, the controller's retry/backoff machine, the
//! reconstruct-read fallback, and health-scoreboard eviction.
//!
//! The trace seed honours `AFRAID_SEED` (default 42) so CI can sweep
//! several seeds over the same invariants; anything asserting exact
//! counts pins its own seed instead.

use afraid::config::{ArrayConfig, FailSlowConfig};
use afraid::driver::{run_to_cut, run_trace, RunOptions, RunResult};
use afraid::policy::ParityPolicy;
use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::record::{IoRecord, ReqKind, Trace};
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

/// Capacity of the `small_test` array (2500 stripes x 4 x 8 KB).
const CAP: u64 = 2500 * 4 * 8192;

fn seed() -> u64 {
    std::env::var("AFRAID_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn busy_trace(secs: u64) -> Trace {
    WorkloadSpec::preset(WorkloadKind::Att).generate(CAP, SimDuration::from_secs(secs), seed())
}

/// The whole result, bit-for-bit: metrics, loss report, timestamps.
fn snapshot(r: &RunResult) -> String {
    serde_json::to_string(r).expect("result serializes")
}

/// With no fault process configured, every transient-fault knob is
/// inert: runs are byte-identical whatever the retry budget, timeout,
/// eviction threshold, or fault seed — the no-fault path draws no
/// random numbers and allocates no retry state.
#[test]
fn inactive_fault_config_changes_nothing() {
    let trace = busy_trace(60);
    let base = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    let mut tweaked = base.clone();
    tweaked.faults.max_retries = 9;
    tweaked.faults.retry_backoff = SimDuration::from_millis(1);
    tweaked.faults.request_deadline = SimDuration::from_secs(1);
    tweaked.faults.io_timeout = SimDuration::from_millis(50);
    tweaked.faults.evict_threshold = 0.9;
    tweaked.faults.health_alpha = 0.7;
    tweaked.faults.seed = 123;
    assert!(!tweaked.faults.active());

    let a = run_trace(&base, &trace, &RunOptions::default());
    let b = run_trace(&tweaked, &trace, &RunOptions::default());
    assert_eq!(snapshot(&a), snapshot(&b));
}

/// At paper-plausible transient rates every fault is absorbed by the
/// retry machine: no I/O exhausts its budget, no read fails, no write
/// completes degraded, and every request finishes.
#[test]
fn transient_read_errors_are_absorbed_by_retries() {
    let trace = busy_trace(120);
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.faults.media_error_per_io = 2.0e-3;
    cfg.faults.timeout_per_io = 1.0e-3;

    let r = run_trace(&cfg, &trace, &RunOptions::default());
    let m = &r.metrics;
    assert_eq!(m.requests as usize, trace.len());
    assert!(m.media_errors > 0, "no media errors drawn");
    assert!(m.retries >= m.media_errors + m.timeouts);
    assert_eq!(m.io_exhausted, 0, "a retry budget was exhausted");
    assert_eq!(m.reconstruct_fallbacks, 0);
    assert_eq!(m.degraded_completions, 0);
    assert_eq!(m.failed_reads, 0);
    assert!(m.retry_p50_ms > 0.0, "retried I/Os must report latency");
    assert!(m.retry_p99_ms >= m.retry_p50_ms);
    assert!(r.loss.is_none() && r.evicted_at.is_none());
}

/// Torture rates with a tiny retry budget force read exhaustion on
/// redundant stripes; the controller must serve those reads by
/// reconstruction from the survivors and queue a repair rewrite of the
/// bad unit. The shadow XOR model byte-checks every fallback.
#[test]
fn exhausted_reads_fall_back_to_reconstruction() {
    // Reads over clean (never-written, hence redundant) stripes.
    let mut trace = Trace::new("fallback", CAP);
    for i in 0..300u64 {
        trace.push(IoRecord {
            time: SimTime::from_millis(i * 20),
            offset: (i * 32 + 1) * 8192,
            bytes: 8192,
            kind: ReqKind::Read,
        });
    }
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.faults.media_error_per_io = 0.25;
    cfg.faults.max_retries = 1;
    cfg.faults.seed = 7;

    let r = run_trace(&cfg, &trace, &RunOptions::default());
    let m = &r.metrics;
    assert_eq!(m.requests as usize, trace.len());
    assert!(m.io_exhausted > 0, "rates never exhausted a read");
    assert!(m.reconstruct_fallbacks > 0, "no reconstruct fallback ran");
    assert!(
        m.io.read_repair_write > 0,
        "fallbacks must rewrite the bad unit"
    );
    assert!(m.io.reconstruct_read > 0);
    assert!(r.loss.is_none(), "no disk failed");
}

/// A fail-slow disk times out enough commands to trip the EWMA health
/// scoreboard: the controller drains it to full redundancy, evicts it
/// (losslessly — the assessment at the eviction instant must find
/// nothing exposed), and rebuilds onto a spare. Bit-identical when
/// repeated.
#[test]
fn fail_slow_disk_is_evicted_and_rebuilt() {
    let mut trace = Trace::new("failslow", CAP);
    for i in 0..400u64 {
        trace.push(IoRecord {
            time: SimTime::from_millis(i * 75),
            offset: (i * 16 % 9_000) * 8192,
            bytes: 2 * 8192,
            kind: if i % 3 == 0 {
                ReqKind::Read
            } else {
                ReqKind::Write
            },
        });
    }
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.faults.fail_slow = Some(FailSlowConfig {
        disk: 2,
        start: SimTime::from_secs(2),
        duration: SimDuration::from_secs(600),
        factor: 40.0,
    });
    cfg.faults.io_timeout = SimDuration::from_millis(100);
    cfg.faults.evict_threshold = 0.5;
    cfg.faults.health_alpha = 0.4;
    cfg.faults.evict_spare_delay = SimDuration::from_secs(2);

    let r = run_trace(&cfg, &trace, &RunOptions::default());
    let m = &r.metrics;
    assert!(m.timeouts > 0, "the limping disk never timed out");
    assert_eq!(m.evictions, 1, "scoreboard must evict exactly once");
    let evicted = r.evicted_at.expect("eviction must fire");
    let loss = r.loss.as_ref().expect("eviction assesses loss");
    assert!(
        loss.is_lossless(),
        "eviction exposed data: {} dirty stripes, {} units lost",
        loss.dirty_stripes,
        loss.lost_units
    );
    let rebuilt = r.rebuilt_at.expect("spare rebuild must finish");
    assert!(rebuilt > evicted);
    assert!(m.evict_exposure_secs > 0.0);
    assert_eq!(m.requests as usize, trace.len());

    let again = run_trace(&cfg, &trace, &RunOptions::default());
    assert_eq!(snapshot(&r), snapshot(&again));
}

/// The env-seeded fault scenario is reproducible run to run — the CI
/// seed matrix leans on this to compare whole-result snapshots.
#[test]
fn seeded_fault_runs_are_reproducible() {
    let trace = busy_trace(60);
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.faults.media_error_per_io = 5.0e-3;
    cfg.faults.timeout_per_io = 2.0e-3;
    cfg.faults.seed = seed();

    let a = run_trace(&cfg, &trace, &RunOptions::default());
    let b = run_trace(&cfg, &trace, &RunOptions::default());
    assert_eq!(snapshot(&a), snapshot(&b));
    assert!(a.metrics.media_errors > 0);
}

/// Asserts the array ends a run fully redundant: no dead disk, no
/// marked stripe, and every stripe's shadow parity equal to the XOR of
/// its data.
fn assert_ends_redundant(cfg: &ArrayConfig, trace: &Trace, opts: &RunOptions) {
    let end = run_to_cut(cfg, trace, opts, u64::MAX).image;
    assert_eq!(end.failed_disk, None, "a disk is still dead at the end");
    assert_eq!(
        end.marks.marked_count(),
        0,
        "stripes still marked at the end"
    );
    let stripes = end.shadow.layout().stripes();
    assert!(
        (0..stripes).all(|s| end.shadow.parity_consistent(s)),
        "a stripe ends with inconsistent parity"
    );
}

/// Torture rates with a one-retry budget exhaust background I/Os of
/// all three batch jobs while scrub, tour and a spare rebuild are all
/// live: failed scrub stripes stay marked for a later pass, a failed
/// rebuild batch is redone, tour repairs are best-effort. The shadow
/// model checks every repair and the loss assessment, and the run must
/// still end fully redundant.
#[test]
fn background_retry_exhaustion_still_ends_redundant() {
    let trace = busy_trace(20);
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.scrub.enabled = true;
    cfg.scrub.iops_budget = 1_000.0;
    cfg.scrub.latent_rate_per_disk_hour = 20.0;
    cfg.faults.media_error_per_io = 0.2;
    cfg.faults.max_retries = 1;
    cfg.faults.seed = seed();
    let opts = RunOptions {
        fail_disk: Some((2, SimTime::from_secs(8))),
        continue_degraded: true,
        spare_delay: Some(SimDuration::from_secs(1)),
        ..RunOptions::default()
    };

    let r = run_trace(&cfg, &trace, &opts);
    let m = &r.metrics;
    assert_eq!(m.requests as usize, trace.len());
    assert!(m.io_exhausted > 0, "no retry budget ran out");
    assert!(m.io.scrub_write > 0, "the parity scrub never ran");
    assert!(m.io.tour_read > 0, "the tour never ran");
    assert!(r.rebuilt_at.is_some(), "the rebuild never finished");
    assert_ends_redundant(&cfg, &trace, &opts);
}

/// A marking-memory failure marks every stripe; with scrub I/Os
/// running out of retries, the stripes they cover stay marked and a
/// later pass settles them, so the sweep still reprotects the array.
#[test]
fn nvram_sweep_outlasts_scrub_retry_exhaustion() {
    let trace = busy_trace(10);
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.faults.media_error_per_io = 0.2;
    cfg.faults.max_retries = 1;
    cfg.faults.seed = seed();
    let opts = RunOptions {
        fail_nvram: Some(SimTime::from_secs(2)),
        ..RunOptions::default()
    };

    let r = run_trace(&cfg, &trace, &opts);
    assert!(r.metrics.io_exhausted > 0, "no retry budget ran out");
    assert!(r.reprotected_at.is_some(), "the NVRAM sweep never finished");
    assert_ends_redundant(&cfg, &trace, &opts);
}

/// A rebuild I/O that runs out of retries makes its whole batch redo.
/// With no retries allowed every faulted I/O exhausts at once, and each
/// batch attempt writes the spare exactly once, so redos show up as
/// spare writes beyond the fault-free sweep's one per batch.
#[test]
fn rebuild_redoes_batches_whose_io_ran_out_of_retries() {
    let mut trace = Trace::new("rebuild", CAP);
    trace.push(IoRecord {
        time: SimTime::ZERO,
        offset: 0,
        bytes: 8192,
        kind: ReqKind::Write,
    });
    let opts = RunOptions {
        fail_disk: Some((1, SimTime::from_secs(2))),
        continue_degraded: true,
        spare_delay: Some(SimDuration::from_secs(1)),
        ..RunOptions::default()
    };
    let clean_cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    let mut cfg = clean_cfg.clone();
    cfg.faults.media_error_per_io = 0.05;
    cfg.faults.max_retries = 0;
    cfg.faults.seed = seed();

    let clean = run_trace(&clean_cfg, &trace, &opts);
    let r = run_trace(&cfg, &trace, &opts);
    assert!(r.metrics.io_exhausted > 0, "no retry budget ran out");
    assert!(r.rebuilt_at.is_some(), "the rebuild never finished");
    assert!(
        r.metrics.io.rebuild_write > clean.metrics.io.rebuild_write,
        "no rebuild batch was redone: {} spare writes vs {} fault-free",
        r.metrics.io.rebuild_write,
        clean.metrics.io.rebuild_write
    );
    assert_ends_redundant(&cfg, &trace, &opts);
}
