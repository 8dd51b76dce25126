//! Degraded-mode and rebuild behaviour: operating through a disk
//! failure, reconstruct reads, scarred units, spare installation, and
//! the rebuild sweep.

use afraid::config::ArrayConfig;
use afraid::driver::{run_to_cut, run_trace, RunOptions};
use afraid::policy::ParityPolicy;
use afraid::regions::{Region, RegionMap, RegionMode};
use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::record::{IoRecord, ReqKind, Trace};

/// Capacity of the `small_test` array: 2500 stripes x 4 units x 8 KB.
const CAP: u64 = 2500 * 4 * 8192;

fn trace_of(records: &[(u64, u64, u64, ReqKind)]) -> Trace {
    let mut t = Trace::new("test", CAP);
    for &(ms, offset, bytes, kind) in records {
        t.push(IoRecord {
            time: SimTime::from_millis(ms),
            offset,
            bytes,
            kind,
        });
    }
    t
}

fn degraded_opts(disk: u32, fail_ms: u64) -> RunOptions {
    RunOptions {
        fail_disk: Some((disk, SimTime::from_millis(fail_ms))),
        continue_degraded: true,
        ..RunOptions::default()
    }
}

#[test]
fn requests_complete_through_a_failure() {
    // Writes and reads spanning the failure instant: everything still
    // completes.
    let recs: Vec<(u64, u64, u64, ReqKind)> = (0..60)
        .map(|i| {
            let kind = if i % 3 == 0 {
                ReqKind::Read
            } else {
                ReqKind::Write
            };
            (i * 40, (i * 11 % 300) * 8192, 8192, kind)
        })
        .collect();
    let t = trace_of(&recs);
    let r = run_trace(
        &ArrayConfig::small_test(ParityPolicy::IdleOnly),
        &t,
        &degraded_opts(2, 1_200),
    );
    assert_eq!(r.metrics.requests, 60);
    assert!(r.loss.is_some());
}

#[test]
fn failure_with_requests_in_flight_keeps_accounting_sane() {
    // Regression test for the idle-detector underflow: a disk failure
    // while requests are in flight used to let fault-path completions
    // outnumber tracked arrivals and panic the detector. The failure
    // instant here lands in the middle of a dense burst, so several
    // requests are mid-service when the disk dies; the run must
    // complete with every request accounted for and background
    // activity (which needs a working idle detector) still happening
    // afterwards.
    let recs: Vec<(u64, u64, u64, ReqKind)> = (0..80)
        .map(|i| {
            let kind = if i % 4 == 0 {
                ReqKind::Read
            } else {
                ReqKind::Write
            };
            // 2 ms apart: far denser than a ~10 ms service time, so
            // the queue is deep when the failure hits at 80 ms.
            (i * 2, (i * 13 % 400) * 8192, 8192, kind)
        })
        .collect();
    let t = trace_of(&recs);
    let r = run_trace(
        &ArrayConfig::small_test(ParityPolicy::IdleOnly),
        &t,
        &degraded_opts(1, 80),
    );
    assert_eq!(r.metrics.requests, 80, "a request was dropped");
    assert!(r.loss.is_some());
    // Post-failure writes kept flowing (degraded mode services them).
    assert!(r.metrics.io.client_write > 0);
}

#[test]
fn degraded_read_reconstructs_from_survivors() {
    // Write stripe 0 (all clean after scrub), fail disk 0 (stripe 0
    // unit 0), then read that unit: 4 reconstruct reads instead of 1.
    let t = trace_of(&[
        (0, 0, 8192, ReqKind::Write),
        (5_000, 0, 8192, ReqKind::Read),
    ]);
    let r = run_trace(
        &ArrayConfig::small_test(ParityPolicy::IdleOnly),
        &t,
        &degraded_opts(0, 2_000),
    );
    assert_eq!(r.metrics.io.reconstruct_read, 4);
    assert_eq!(r.metrics.failed_reads, 0);
    assert!(r.loss.expect("failure injected").is_lossless());
}

#[test]
fn scarred_unit_reads_fail_until_rewritten() {
    // Dirty stripe 0 at failure: its unit on disk 0 is lost. A read
    // fails; a full-unit rewrite heals it; the next read reconstructs.
    let t = trace_of(&[
        (0, 0, 8192, ReqKind::Write), // dirty at failure (fail at 50ms < idle delay)
        (1_000, 0, 8192, ReqKind::Read), // fails: scarred
        (2_000, 0, 8192, ReqKind::Write), // full-unit rewrite heals
        (3_000, 0, 8192, ReqKind::Read), // reconstructs fine
    ]);
    let r = run_trace(
        &ArrayConfig::small_test(ParityPolicy::IdleOnly),
        &t,
        &degraded_opts(0, 50),
    );
    assert_eq!(r.metrics.failed_reads, 1);
    assert_eq!(r.metrics.io.reconstruct_read, 4);
    let loss = r.loss.expect("failure injected");
    assert_eq!(loss.lost_units, 1);
}

#[test]
fn degraded_reads_of_raid0_region_units_fail_like_lost_ones() {
    // 40 one-unit writes to units 0-39, a disk failure before the idle
    // scrub, then reads of the same units. A whole-array RAID 0
    // (never-protect) region keeps no parity, so the dead disk's units
    // are gone exactly as the unscrubbed AFRAID ones are: their reads
    // must fail, not be reconstructed from parity that was never kept.
    let mut recs: Vec<(u64, u64, u64, ReqKind)> = (0..40)
        .map(|i| (800 + 5 * i, i * 8192, 8192, ReqKind::Write))
        .collect();
    recs.extend((0..40).map(|i| (2_000 + 5 * i, i * 8192, 8192, ReqKind::Read)));
    let t = trace_of(&recs);
    for shadow in [false, true] {
        let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        cfg.shadow = shadow;
        let plain = run_trace(&cfg, &t, &degraded_opts(0, 1_000));
        assert_eq!(plain.loss.expect("failure injected").lost_units, 8);
        assert_eq!(plain.metrics.failed_reads, 8);
        assert_eq!(plain.metrics.io.reconstruct_read, 0);

        cfg.regions = RegionMap::new(vec![Region {
            first_stripe: 0,
            stripes: 2500,
            mode: RegionMode::NeverProtect,
        }]);
        let raid0 = run_trace(&cfg, &t, &degraded_opts(0, 1_000));
        let loss = raid0.loss.expect("failure injected");
        assert_eq!(loss.declared_unprotected_units, 2000);
        assert_eq!(raid0.metrics.failed_reads, 8, "shadow {shadow}");
        assert_eq!(raid0.metrics.io.reconstruct_read, 0, "shadow {shadow}");
    }
}

#[test]
fn degraded_write_to_lost_unit_uses_parity_substitution() {
    // After failing disk 0, write stripe 0 unit 0 (which lives on
    // disk 0): the data write is absorbed by the parity; pre-reads
    // fetch the surviving units.
    let t = trace_of(&[(1_000, 0, 8192, ReqKind::Write)]);
    let r = run_trace(
        &ArrayConfig::small_test(ParityPolicy::IdleOnly),
        &t,
        &degraded_opts(0, 50),
    );
    // 3 pre-reads (surviving data units), then 1 parity write; no
    // data write is possible on the dead disk.
    assert_eq!(r.metrics.io.rmw_pre_read, 3);
    assert_eq!(r.metrics.io.parity_write, 1);
    assert_eq!(r.metrics.io.client_write, 0);
}

#[test]
fn degraded_write_when_parity_disk_died_is_data_only() {
    // Stripe 0's parity lives on disk 4; with disk 4 dead a write to
    // stripe 0 is a plain data write.
    let t = trace_of(&[(1_000, 0, 8192, ReqKind::Write)]);
    let r = run_trace(
        &ArrayConfig::small_test(ParityPolicy::IdleOnly),
        &t,
        &degraded_opts(4, 50),
    );
    assert_eq!(r.metrics.io.client_write, 1);
    assert_eq!(r.metrics.io.rmw_pre_read, 0);
    assert_eq!(r.metrics.io.parity_write, 0);
}

#[test]
fn no_scrubbing_while_degraded() {
    // AFRAID writes during degraded mode keep parity via the degraded
    // paths; no scrub work appears even across long idle gaps.
    let t = trace_of(&[
        (1_000, 0, 8192, ReqKind::Write),
        (5_000, 8 * 4 * 8192, 8192, ReqKind::Write),
    ]);
    let r = run_trace(
        &ArrayConfig::small_test(ParityPolicy::IdleOnly),
        &t,
        &degraded_opts(2, 50),
    );
    assert_eq!(r.metrics.io.scrub_read, 0);
    assert_eq!(r.metrics.io.scrub_write, 0);
}

#[test]
fn rebuild_restores_the_array() {
    let t = trace_of(&[(0, 0, 8192, ReqKind::Write)]);
    let mut opts = degraded_opts(1, 2_000);
    opts.spare_delay = Some(SimDuration::from_secs(1));
    let r = run_trace(&ArrayConfig::small_test(ParityPolicy::IdleOnly), &t, &opts);
    let rebuilt = r.rebuilt_at.expect("rebuild ran");
    assert!(rebuilt > SimTime::from_secs(3));
    // The sweep read every survivor and wrote the spare: substantial
    // rebuild traffic.
    assert!(r.metrics.io.rebuild_read >= 4);
    assert!(r.metrics.io.rebuild_write >= 1);
}

#[test]
fn reads_after_rebuild_use_the_spare_directly() {
    let t = trace_of(&[
        (0, 0, 8192, ReqKind::Write),
        // Long after the rebuild finishes:
        (60_000, 0, 8192, ReqKind::Read),
    ]);
    let mut opts = degraded_opts(0, 2_000);
    opts.spare_delay = Some(SimDuration::from_secs(1));
    let r = run_trace(&ArrayConfig::small_test(ParityPolicy::IdleOnly), &t, &opts);
    let rebuilt = r.rebuilt_at.expect("rebuild ran");
    assert!(rebuilt < SimTime::from_secs(60), "rebuilt at {rebuilt}");
    // The late read is a single direct I/O, not a reconstruction.
    assert_eq!(r.metrics.io.reconstruct_read, 0);
    assert_eq!(r.metrics.io.client_read, 1);
    assert_eq!(r.metrics.failed_reads, 0);
}

#[test]
fn rebuild_runs_under_client_load() {
    // A steady stream of writes while the rebuild sweeps: both make
    // progress and every request completes.
    let recs: Vec<(u64, u64, u64, ReqKind)> = (0..200)
        .map(|i| (2_000 + i * 25, (i * 7 % 400) * 8192, 8192, ReqKind::Write))
        .collect();
    let t = trace_of(&recs);
    let mut opts = degraded_opts(3, 1_000);
    opts.spare_delay = Some(SimDuration::from_millis(500));
    let r = run_trace(&ArrayConfig::small_test(ParityPolicy::IdleOnly), &t, &opts);
    assert_eq!(r.metrics.requests, 200);
    assert!(
        r.rebuilt_at.is_some(),
        "rebuild must finish despite the load"
    );
}

#[test]
fn degraded_mean_io_worse_than_healthy_under_load() {
    // At light load a reconstruct read costs the same latency as a
    // direct read (spin-synchronised identical disks wait for the same
    // sector); the degraded cost is *throughput* — each such read
    // quadruples the disk work. Drive the array hard enough for
    // queueing to expose it.
    let recs: Vec<(u64, u64, u64, ReqKind)> = (0..600)
        .map(|i| (i * 2, (i * 13 % 500) * 8192, 8192, ReqKind::Read))
        .collect();
    let t = trace_of(&recs);
    let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    let healthy = run_trace(&cfg, &t, &RunOptions::default());
    let degraded = run_trace(&cfg, &t, &degraded_opts(2, 10));
    assert!(
        degraded.metrics.mean_io_ms > healthy.metrics.mean_io_ms * 1.2,
        "degraded {} vs healthy {}",
        degraded.metrics.mean_io_ms,
        healthy.metrics.mean_io_ms
    );
}

#[test]
fn determinism_through_failure_and_rebuild() {
    let recs: Vec<(u64, u64, u64, ReqKind)> = (0..50)
        .map(|i| {
            let kind = if i % 4 == 0 {
                ReqKind::Read
            } else {
                ReqKind::Write
            };
            (i * 100, (i * 17 % 600) * 8192, 8192, kind)
        })
        .collect();
    let t = trace_of(&recs);
    let mut opts = degraded_opts(1, 1_500);
    opts.spare_delay = Some(SimDuration::from_secs(1));
    let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    let a = run_trace(&cfg, &t, &opts);
    let b = run_trace(&cfg, &t, &opts);
    assert_eq!(a.metrics.mean_io_ms, b.metrics.mean_io_ms);
    assert_eq!(a.metrics.io, b.metrics.io);
    assert_eq!(a.rebuilt_at, b.rebuilt_at);
}

/// Failure time that lands while the run's first background batch has
/// its reads in flight: the instant that batch is issued (the event at
/// `issue_event`) plus 1 µs. Asserts the batch's first completion, the
/// next event of a fault-free run, comes later still.
fn mid_batch_failure(cfg: &ArrayConfig, t: &Trace, issue_event: u64) -> SimTime {
    let at = |cut| run_to_cut(cfg, t, &RunOptions::default(), cut).image.at;
    let fail_at = at(issue_event) + SimDuration::from_micros(1);
    assert!(
        at(issue_event + 1) > fail_at,
        "the batch's reads completed before the failure"
    );
    fail_at
}

#[test]
fn stale_scrub_completions_during_rebuild_are_ignored() {
    // Stripe 0 is dirty; its scrub batch is issued by the idle timer
    // (event 3, after the arrival and the write's completion). Disk 4,
    // the stripe's parity disk, fails while the scrub reads are in
    // flight and the spare arrives at the same instant, so the rebuild
    // starts before the abandoned scrub's completions come back. They
    // must be recognised as stale: the rebuild finishes, and
    // rebuilding the parity unit settles the stripe's mark.
    let t = trace_of(&[(0, 0, 8192, ReqKind::Write)]);
    let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    let mut opts = degraded_opts(4, 0);
    opts.fail_disk = Some((4, mid_batch_failure(&cfg, &t, 3)));
    opts.spare_delay = Some(SimDuration::ZERO);

    let r = run_trace(&cfg, &t, &opts);
    assert!(r.rebuilt_at.is_some(), "rebuild never finished");
    assert!(r.loss.as_ref().expect("failure injected").is_lossless());
    assert_eq!(r.metrics.io.scrub_read, 4, "the scrub batch never started");
    assert_eq!(
        r.metrics.io.scrub_write, 0,
        "the abandoned scrub wrote parity"
    );
    let end = run_to_cut(&cfg, &t, &opts, u64::MAX).image;
    assert_eq!(end.failed_disk, None);
    assert_eq!(end.marks.marked_count(), 0, "marks left after the rebuild");
    assert_eq!(
        serde_json::to_string(&r).unwrap(),
        serde_json::to_string(&run_trace(&cfg, &t, &opts)).unwrap()
    );
}

#[test]
fn stale_tour_completions_during_rebuild_are_ignored() {
    // No writes, so the first idle period belongs to the latent-error
    // tour: its first batch is issued by the idle timer (event 3).
    // Failing a disk mid-batch abandons the tour; the spare arrives at
    // once and the rebuild must finish regardless of the stale tour
    // completions. The tour resumes once the array is whole again.
    let t = trace_of(&[(0, 0, 8192, ReqKind::Read)]);
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.scrub.enabled = true;
    cfg.scrub.iops_budget = 1_000.0;
    let mut opts = degraded_opts(1, 0);
    opts.fail_disk = Some((1, mid_batch_failure(&cfg, &t, 3)));
    opts.spare_delay = Some(SimDuration::ZERO);

    let r = run_trace(&cfg, &t, &opts);
    let rebuilt = r.rebuilt_at.expect("rebuild never finished");
    assert!(r.end > rebuilt, "the tour did not resume after the rebuild");
    assert!(r.metrics.scrub_tours >= 1);
    assert_eq!(
        serde_json::to_string(&r).unwrap(),
        serde_json::to_string(&run_trace(&cfg, &t, &opts)).unwrap()
    );
}
