//! Behavioural tests of the array controller: I/O counts, latencies,
//! marking, scrubbing, policies, and fault handling, all on the small
//! deterministic test disk.

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions, RunResult};
use afraid::policy::ParityPolicy;
use afraid_sim::time::SimTime;
use afraid_trace::record::{IoRecord, ReqKind, Trace};

/// Capacity of the `small_test` array: 2500 stripes x 4 units x 8 KB.
const CAP: u64 = 2500 * 4 * 8192;

fn cfg(policy: ParityPolicy) -> ArrayConfig {
    ArrayConfig::small_test(policy)
}

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

fn run(policy: ParityPolicy, records: &[(u64, u64, u64, ReqKind)]) -> RunResult {
    run_trace(&cfg(policy), &trace_of(records), &RunOptions::default())
}

#[test]
fn afraid_small_write_is_one_io() {
    let r = run(ParityPolicy::IdleOnly, &[(0, 0, 8192, ReqKind::Write)]);
    assert_eq!(r.metrics.requests, 1);
    assert_eq!(r.metrics.io.client_write, 1);
    assert_eq!(r.metrics.io.rmw_pre_read, 0);
    assert_eq!(r.metrics.io.parity_write, 0);
    // The deferred parity still gets rebuilt in the idle period:
    // 4 scrub reads (one per data disk) + 1 parity write.
    assert_eq!(r.metrics.io.scrub_read, 4);
    assert_eq!(r.metrics.io.scrub_write, 1);
    assert_eq!(r.metrics.stripes_scrubbed, 1);
}

#[test]
fn raid5_small_write_is_four_ios() {
    let r = run(ParityPolicy::AlwaysRaid5, &[(0, 0, 8192, ReqKind::Write)]);
    assert_eq!(r.metrics.io.client_write, 1);
    assert_eq!(r.metrics.io.rmw_pre_read, 2); // old data + old parity
    assert_eq!(r.metrics.io.parity_write, 1);
    assert_eq!(r.metrics.io.scrub_read, 0);
    assert_eq!(r.metrics.io.foreground_write_ios(), 4);
}

#[test]
fn raid0_small_write_is_one_io_and_never_scrubs() {
    let r = run(ParityPolicy::NeverRebuild, &[(0, 0, 8192, ReqKind::Write)]);
    assert_eq!(r.metrics.io.total(), 1);
    assert_eq!(r.metrics.stripes_scrubbed, 0);
    // The stripe stays unprotected forever.
    assert!(r.metrics.frac_unprotected > 0.99);
}

#[test]
fn afraid_write_latency_beats_raid5() {
    let recs = [(0, 0, 8192, ReqKind::Write)];
    let afraid = run(ParityPolicy::IdleOnly, &recs);
    let raid5 = run(ParityPolicy::AlwaysRaid5, &recs);
    // Test disk: pure transfer 1.6 ms for AFRAID; RAID 5 pays the
    // pre-read plus a full extra revolution.
    assert!(
        afraid.metrics.mean_io_ms < 2.0,
        "afraid {}",
        afraid.metrics.mean_io_ms
    );
    assert!(
        raid5.metrics.mean_io_ms > 8.0,
        "raid5 {}",
        raid5.metrics.mean_io_ms
    );
}

#[test]
fn full_stripe_raid5_write_needs_no_prereads() {
    // 32 KB aligned to a stripe covers all four data units.
    let r = run(
        ParityPolicy::AlwaysRaid5,
        &[(0, 0, 4 * 8192, ReqKind::Write)],
    );
    assert_eq!(r.metrics.io.rmw_pre_read, 0);
    assert_eq!(r.metrics.io.client_write, 4);
    assert_eq!(r.metrics.io.parity_write, 1);
}

#[test]
fn wide_raid5_write_prefers_reconstruct() {
    // Three of four units written: reconstruct (1 pre-read) beats RMW
    // (3 + 1 pre-reads).
    let r = run(
        ParityPolicy::AlwaysRaid5,
        &[(0, 0, 3 * 8192, ReqKind::Write)],
    );
    assert_eq!(r.metrics.io.rmw_pre_read, 1);
    assert_eq!(r.metrics.io.parity_write, 1);
}

#[test]
fn reads_cost_one_io_per_unit() {
    let r = run(ParityPolicy::IdleOnly, &[(0, 0, 2 * 8192, ReqKind::Read)]);
    assert_eq!(r.metrics.io.client_read, 2);
    assert_eq!(r.metrics.io.total(), 2);
    assert_eq!(r.metrics.stripes_scrubbed, 0);
}

#[test]
fn read_cache_hits_after_first_read() {
    let mut c = cfg(ParityPolicy::IdleOnly);
    c.read_cache_bytes = 256 * 1024;
    let t = trace_of(&[(0, 0, 8192, ReqKind::Read), (100, 0, 8192, ReqKind::Read)]);
    let r = run_trace(&c, &t, &RunOptions::default());
    assert_eq!(r.metrics.read_cache_hits, 1);
    assert_eq!(r.metrics.io.client_read, 1);
}

#[test]
fn write_invalidates_read_cache() {
    let mut c = cfg(ParityPolicy::IdleOnly);
    c.read_cache_bytes = 256 * 1024;
    let t = trace_of(&[
        (0, 0, 8192, ReqKind::Read),
        (50, 0, 8192, ReqKind::Write),
        (2000, 0, 8192, ReqKind::Read),
    ]);
    let r = run_trace(&c, &t, &RunOptions::default());
    assert_eq!(r.metrics.read_cache_hits, 0);
    assert_eq!(r.metrics.io.client_read, 2);
}

#[test]
fn parity_lag_rises_then_clears() {
    let r = run(ParityPolicy::IdleOnly, &[(0, 0, 8192, ReqKind::Write)]);
    // One dirty stripe exposes all four data units: 32 KB peak lag.
    assert_eq!(r.metrics.peak_parity_lag_bytes, 4.0 * 8192.0);
    assert_eq!(r.metrics.peak_dirty_stripes, 1);
    assert_eq!(r.metrics.stripes_scrubbed, 1);
    // After the scrub the lag is gone; the mean sits between 0 and the
    // peak.
    assert!(r.metrics.mean_parity_lag_bytes > 0.0);
    assert!(r.metrics.mean_parity_lag_bytes <= 4.0 * 8192.0);
}

#[test]
fn scrub_coalesces_adjacent_stripes() {
    // Dirty stripes 0..4 via one 160 KB write (5 stripes of 32 KB).
    let r = run(
        ParityPolicy::IdleOnly,
        &[(0, 0, 5 * 4 * 8192, ReqKind::Write)],
    );
    assert_eq!(r.metrics.stripes_scrubbed, 5);
    // Coalescing: the five adjacent stripes fit in one batch (batch
    // limit 8), needing one read per data-disk extent — at most one
    // read per disk spanning the run, split where a disk holds parity
    // — far fewer than 5 stripes x 4 units.
    assert!(
        r.metrics.io.scrub_read <= 10,
        "scrub reads {} not coalesced",
        r.metrics.io.scrub_read
    );
    assert_eq!(r.metrics.io.scrub_write, 5);
    assert_eq!(r.metrics.scrub_batches, 1);
}

#[test]
fn scrub_waits_for_idle_delay() {
    // Two writes 30 ms apart: the idle detector (100 ms) must not fire
    // between them, so both stripes scrub together afterwards.
    let r = run(
        ParityPolicy::IdleOnly,
        &[
            (0, 0, 8192, ReqKind::Write),
            (30, 4 * 8192, 8192, ReqKind::Write),
        ],
    );
    assert_eq!(r.metrics.scrub_batches, 1);
    assert_eq!(r.metrics.stripes_scrubbed, 2);
    // End time reflects write -> 100 ms idle wait -> scrub.
    assert!(r.end >= SimTime::from_millis(130));
}

#[test]
fn mttdl_target_low_behaves_like_afraid() {
    // A target below RAID 0's MTTDL is always met: never reverts.
    let recs = [(0, 0, 8192, ReqKind::Write)];
    let r = run(
        ParityPolicy::MttdlTarget {
            target_hours: 1.0e5,
        },
        &recs,
    );
    assert_eq!(r.metrics.io.rmw_pre_read, 0);
    assert_eq!(r.metrics.io.parity_write, 0);
}

#[test]
fn mttdl_target_high_reverts_to_raid5() {
    // An unmeetable target (above RAID 5's catastrophic MTTDL) keeps
    // the array in RAID 5 mode once any unprotected time accrues.
    let recs: Vec<(u64, u64, u64, ReqKind)> = (0..20)
        .map(|i| (i * 500, i * 8192, 8192, ReqKind::Write))
        .collect();
    let r = run(
        ParityPolicy::MttdlTarget {
            target_hours: 1.0e10,
        },
        &recs,
    );
    // Most writes should have gone through the RAID 5 path.
    assert!(
        r.metrics.io.parity_write >= 15,
        "parity writes {}",
        r.metrics.io.parity_write
    );
}

#[test]
fn mttdl_target_forces_scrub_at_dirty_threshold() {
    // 50 writes to distinct stripes, 10 ms apart — a long burst with
    // no idle window (the detector needs 100 ms). The
    // >20-dirty-stripes rule must kick in during the burst and hold
    // the dirty count well below 50. (The forced scrub shares the
    // spindles with the writes, so the bound is soft, as the paper's
    // "fairly effective" phrasing implies.)
    let recs: Vec<(u64, u64, u64, ReqKind)> = (0..50)
        .map(|i| (i * 10, i * 4 * 8192, 8192, ReqKind::Write))
        .collect();
    let r = run(
        ParityPolicy::MttdlTarget {
            target_hours: 1.0e5,
        },
        &recs,
    );
    assert!(
        (21..40).contains(&r.metrics.peak_dirty_stripes),
        "peak {}",
        r.metrics.peak_dirty_stripes
    );
    assert_eq!(r.metrics.stripes_scrubbed, 50);
}

#[test]
fn conservative_starts_raid5() {
    let recs = [(0, 0, 8192, ReqKind::Write)];
    let r = run(
        ParityPolicy::Conservative {
            lag_bound_bytes: 1 << 20,
        },
        &recs,
    );
    // First write happens before any burst statistics exist: RAID 5.
    assert_eq!(r.metrics.io.parity_write, 1);
}

#[test]
fn conservative_switches_to_afraid_for_small_bursts() {
    // Several small bursts separated by comfortable idle gaps teach
    // the policy that deferring is safe.
    let mut recs = Vec::new();
    for burst in 0..6u64 {
        recs.push((burst * 1000, burst * 4 * 8192, 8192, ReqKind::Write));
    }
    let r = run(
        ParityPolicy::Conservative {
            lag_bound_bytes: 1 << 20,
        },
        &recs,
    );
    // Later writes go data-only: fewer parity writes than writes.
    assert!(
        r.metrics.io.parity_write < 6,
        "parity writes {}",
        r.metrics.io.parity_write
    );
    // Everything still ends up protected via idle scrubs.
    assert!(r.metrics.stripes_scrubbed >= 1);
}

#[test]
fn disk_failure_with_dirty_stripe_loses_exactly_that_unit() {
    // Write stripe 0 unit 1 (data on disk 1), then fail disk 1 before
    // the idle scrub (which needs 100 ms).
    let t = trace_of(&[(0, 8192, 8192, ReqKind::Write)]);
    let opts = RunOptions {
        fail_disk: Some((1, SimTime::from_millis(50))),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg(ParityPolicy::IdleOnly), &t, &opts);
    let loss = r.loss.expect("failure injected");
    assert_eq!(loss.lost_units, 1);
    assert_eq!(loss.lost_bytes, 8192);
    assert_eq!(loss.lost, vec![(0, 1)]);
}

#[test]
fn disk_failure_after_scrub_is_lossless() {
    let t = trace_of(&[(0, 8192, 8192, ReqKind::Write)]);
    let opts = RunOptions {
        fail_disk: Some((1, SimTime::from_secs(10))),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg(ParityPolicy::IdleOnly), &t, &opts);
    let loss = r.loss.expect("failure injected");
    assert!(loss.is_lossless(), "lost {:?}", loss.lost);
    assert_eq!(loss.dirty_stripes, 0);
}

#[test]
fn disk_failure_on_parity_disk_of_dirty_stripe_is_lossless() {
    // Stripe 0's parity lives on disk 4.
    let t = trace_of(&[(0, 0, 8192, ReqKind::Write)]);
    let opts = RunOptions {
        fail_disk: Some((4, SimTime::from_millis(50))),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg(ParityPolicy::IdleOnly), &t, &opts);
    let loss = r.loss.expect("failure injected");
    assert!(loss.is_lossless());
    assert_eq!(loss.parity_only, 1);
}

#[test]
fn raid5_never_loses_data_on_single_failure() {
    let recs: Vec<(u64, u64, u64, ReqKind)> = (0..10)
        .map(|i| (i * 20, i * 8192, 8192, ReqKind::Write))
        .collect();
    let t = trace_of(&recs);
    for disk in 0..5 {
        let opts = RunOptions {
            fail_disk: Some((disk, SimTime::from_secs(1))),
            ..RunOptions::default()
        };
        let r = run_trace(&cfg(ParityPolicy::AlwaysRaid5), &t, &opts);
        assert!(
            r.loss.expect("failure injected").is_lossless(),
            "disk {disk}"
        );
    }
}

#[test]
fn nvram_failure_triggers_full_sweep() {
    let t = trace_of(&[(0, 0, 8192, ReqKind::Write)]);
    let opts = RunOptions {
        fail_nvram: Some(SimTime::from_secs(1)),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg(ParityPolicy::IdleOnly), &t, &opts);
    let done = r.reprotected_at.expect("sweep finished");
    assert!(done > SimTime::from_secs(1));
    // The whole 2500-stripe array was rescanned.
    assert!(r.metrics.stripes_scrubbed >= 2500);
}

#[test]
fn nvram_then_disk_failure_before_sweep_ends_is_bounded_by_progress() {
    let t = trace_of(&[(0, 0, 8192, ReqKind::Write)]);
    let opts = RunOptions {
        fail_nvram: Some(SimTime::from_secs(1)),
        fail_disk: Some((2, SimTime::from_millis(1_500))),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg(ParityPolicy::IdleOnly), &t, &opts);
    let loss = r.loss.expect("failure injected");
    // Loss is bounded by the un-swept remainder, not the whole disk.
    assert!(loss.dirty_stripes < 2500);
    assert!(r.reprotected_at.is_none());
}

#[test]
fn deterministic_runs() {
    let recs: Vec<(u64, u64, u64, ReqKind)> = (0..50)
        .map(|i| {
            let kind = if i % 3 == 0 {
                ReqKind::Read
            } else {
                ReqKind::Write
            };
            (i * 17, (i * 37 % 100) * 8192, 8192, kind)
        })
        .collect();
    let a = run(ParityPolicy::IdleOnly, &recs);
    let b = run(ParityPolicy::IdleOnly, &recs);
    assert_eq!(a.metrics.mean_io_ms, b.metrics.mean_io_ms);
    assert_eq!(a.metrics.io, b.metrics.io);
    assert_eq!(a.end, b.end);
}

#[test]
fn all_requests_complete_under_load() {
    // A saturating burst: more concurrent requests than the admission
    // limit; everything must still complete, in order of the queue.
    let recs: Vec<(u64, u64, u64, ReqKind)> = (0..100)
        .map(|i| (0, (i * 13 % 500) * 8192, 8192, ReqKind::Write))
        .collect();
    for policy in [
        ParityPolicy::NeverRebuild,
        ParityPolicy::IdleOnly,
        ParityPolicy::AlwaysRaid5,
        ParityPolicy::MttdlTarget {
            target_hours: 1.0e6,
        },
    ] {
        let r = run(policy, &recs);
        assert_eq!(r.metrics.requests, 100, "policy {policy:?}");
    }
}

#[test]
fn write_duty_cycle_measured() {
    let r = run(
        ParityPolicy::IdleOnly,
        &[
            (0, 0, 8192, ReqKind::Write),
            (500, 8192, 8192, ReqKind::Read),
        ],
    );
    assert!(r.metrics.write_duty_cycle > 0.0);
    assert!(r.metrics.write_duty_cycle < 0.5);
}

#[test]
fn afraid_ios_match_raid0_in_foreground() {
    // The paper models RAID 0 as AFRAID-that-never-scrubs; their
    // foreground traffic must be identical.
    let recs: Vec<(u64, u64, u64, ReqKind)> = (0..30)
        .map(|i| (i * 50, (i * 7 % 200) * 8192, 8192, ReqKind::Write))
        .collect();
    let a = run(ParityPolicy::IdleOnly, &recs);
    let z = run(ParityPolicy::NeverRebuild, &recs);
    assert_eq!(a.metrics.io.client_write, z.metrics.io.client_write);
    assert_eq!(a.metrics.io.rmw_pre_read, z.metrics.io.rmw_pre_read);
    // And with gaps larger than service times, the latencies agree
    // too (scrubs happen strictly in idle gaps).
    assert!((a.metrics.mean_io_ms - z.metrics.mean_io_ms).abs() < 0.5);
}

#[test]
fn parity_point_scrubs_immediately() {
    // A busy stream of writes keeps the array from ever being idle;
    // a parity point on the first write's range must still force its
    // stripe redundant.
    let recs: Vec<(u64, u64, u64, ReqKind)> = (0..40)
        .map(|i| (i * 20, (i + 1) * 4 * 8192, 8192, ReqKind::Write))
        .collect();
    let t = trace_of(&recs);
    let opts = RunOptions {
        parity_points: vec![(SimTime::from_millis(100), 4 * 8192, 8192)],
        fail_disk: Some((
            // Stripe 1's written unit lives on some data disk; fail it
            // late in the burst, long before any idle period.
            {
                let l = afraid::Layout::new(5, 8192, 40_000);
                l.data_disk(1, 0)
            },
            SimTime::from_millis(700),
        )),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg(ParityPolicy::IdleOnly), &t, &opts);
    assert_eq!(r.metrics.parity_points, 1);
    let loss = r.loss.expect("failure injected");
    // Stripe 1 was committed by the parity point, so it is not among
    // the lost stripes even though its neighbours are dirty.
    assert!(
        loss.lost.iter().all(|&(s, _)| s != 1),
        "parity-pointed stripe lost: {:?}",
        loss.lost
    );
    assert!(
        loss.dirty_stripes > 0,
        "other stripes should still be dirty"
    );
}

#[test]
fn parity_point_mid_tour_scrubs_alongside_the_tour() {
    // RAID 0 never scrubs on its own, so stripe 1 stays dirty while the
    // latent-error tour sweeps back-to-back batches through the idle
    // period. A parity point mid-tour starts a scrub batch with a tour
    // batch still in flight: both finish, the stripe is settled and the
    // tour completes.
    let t = trace_of(&[(0, 4 * 8192, 8192, ReqKind::Write)]);
    let mut c = cfg(ParityPolicy::NeverRebuild);
    c.scrub.enabled = true;
    c.scrub.iops_budget = 1.0e6;
    let opts = RunOptions {
        parity_points: vec![(SimTime::from_millis(1_000), 4 * 8192, 8192)],
        ..RunOptions::default()
    };
    let plain = run_trace(&c, &t, &RunOptions::default());
    assert_eq!(plain.metrics.stripes_scrubbed, 0);
    assert!(
        plain.metrics.mean_tour_secs > 2.0,
        "the tour must still be running at the parity point"
    );

    let r = run_trace(&c, &t, &opts);
    assert_eq!(r.metrics.parity_points, 1);
    assert_eq!(r.metrics.stripes_scrubbed, 1);
    assert_eq!(r.metrics.io.scrub_write, 1);
    assert_eq!(r.metrics.scrub_tours, plain.metrics.scrub_tours);
    assert_eq!(r.metrics.tour_sectors_read, plain.metrics.tour_sectors_read);
}

#[test]
fn parity_point_on_clean_range_is_noop() {
    let t = trace_of(&[(0, 0, 8192, ReqKind::Read)]);
    let opts = RunOptions {
        parity_points: vec![(SimTime::from_millis(50), 0, 8192)],
        ..RunOptions::default()
    };
    let r = run_trace(&cfg(ParityPolicy::IdleOnly), &t, &opts);
    assert_eq!(r.metrics.parity_points, 1);
    assert_eq!(r.metrics.stripes_scrubbed, 0);
}

#[test]
fn never_protect_region_writes_one_io_under_raid5_policy() {
    use afraid::regions::{Region, RegionMap, RegionMode};
    let mut c = cfg(ParityPolicy::AlwaysRaid5);
    c.shadow = false; // NeverProtect stripes are deliberately stale
    c.regions = RegionMap::new(vec![Region {
        first_stripe: 0,
        stripes: 10,
        mode: RegionMode::NeverProtect,
    }]);
    // One write inside the region, one outside.
    let t = trace_of(&[
        (0, 0, 8192, ReqKind::Write),
        (500, 20 * 4 * 8192, 8192, ReqKind::Write),
    ]);
    let r = run_trace(&c, &t, &RunOptions::default());
    // Region write: 1 I/O; outside write: full RMW (2 pre-reads +
    // data + parity).
    assert_eq!(r.metrics.io.client_write, 2);
    assert_eq!(r.metrics.io.rmw_pre_read, 2);
    assert_eq!(r.metrics.io.parity_write, 1);
    // The region stripe is never marked, so nothing scrubs.
    assert_eq!(r.metrics.stripes_scrubbed, 0);
}

#[test]
fn always_protect_region_overrides_afraid_policy() {
    use afraid::regions::{Region, RegionMap, RegionMode};
    let mut c = cfg(ParityPolicy::IdleOnly);
    c.regions = RegionMap::new(vec![Region {
        first_stripe: 0,
        stripes: 10,
        mode: RegionMode::AlwaysProtect,
    }]);
    let t = trace_of(&[
        (0, 0, 8192, ReqKind::Write),               // inside: RAID 5 path
        (500, 20 * 4 * 8192, 8192, ReqKind::Write), // outside: deferred
    ]);
    let r = run_trace(&c, &t, &RunOptions::default());
    assert_eq!(r.metrics.io.rmw_pre_read, 2);
    assert_eq!(r.metrics.io.parity_write, 1);
    // Only the outside stripe needed a scrub.
    assert_eq!(r.metrics.stripes_scrubbed, 1);
}

#[test]
fn never_protect_region_failure_accounted_separately() {
    use afraid::regions::{Region, RegionMap, RegionMode};
    let mut c = cfg(ParityPolicy::IdleOnly);
    c.shadow = false;
    c.regions = RegionMap::new(vec![Region {
        first_stripe: 0,
        stripes: 5,
        mode: RegionMode::NeverProtect,
    }]);
    let t = trace_of(&[(0, 0, 8192, ReqKind::Write)]);
    let opts = RunOptions {
        fail_disk: Some((0, SimTime::from_secs(10))),
        ..RunOptions::default()
    };
    let r = run_trace(&c, &t, &opts);
    let loss = r.loss.expect("failure injected");
    assert!(
        loss.is_lossless(),
        "region loss must not count as AFRAID loss"
    );
    assert!(loss.declared_unprotected_units > 0);
}

/// Logical bytes of one `small_test` stripe: four 8 KB data units.
const STRIPE: u64 = 4 * 8192;

#[test]
fn parity_logging_small_write_pre_reads_old_data_only() {
    let r = run(
        ParityPolicy::ParityLogging,
        &[
            // Two slices of stripe 0 (the back of unit 0, the front of
            // unit 1), then one whole unit of stripe 1.
            (0, 4096, 8192, ReqKind::Write),
            (50, STRIPE, 8192, ReqKind::Write),
        ],
    );
    let io = r.metrics.io;
    assert_eq!(io.client_write, 3);
    // One old-data pre-read per slice, no old parity and no parity
    // write: the parity update went to the log.
    assert_eq!(io.rmw_pre_read, 3);
    assert_eq!(io.parity_write, 0);
    // 16 KB of log stays in the 64 KB buffer: no flush, no replay.
    assert_eq!(
        (io.scrub_read, io.scrub_write, r.metrics.scrub_batches),
        (0, 0, 0)
    );
    assert_eq!(r.metrics.frac_unprotected, 0.0);
    // A full-stripe write keeps RAID 5's rule: parity from the new
    // data, nothing pre-read and nothing logged.
    let full = run(
        ParityPolicy::ParityLogging,
        &[(0, 0, STRIPE, ReqKind::Write)],
    );
    assert_eq!(full.metrics.io.rmw_pre_read, 0);
    assert_eq!(full.metrics.io.parity_write, 1);
}

#[test]
fn parity_logging_read_is_single_phase() {
    // A read of a logged unit, and of one never written: each costs
    // one disk access, and neither touches the log or the parity.
    let r = run(
        ParityPolicy::ParityLogging,
        &[
            (0, 0, 8192, ReqKind::Write),
            (50, 0, 8192, ReqKind::Read),
            (100, 2 * STRIPE, 8192, ReqKind::Read),
        ],
    );
    let io = r.metrics.io;
    assert_eq!((io.client_read, io.client_write), (2, 1));
    assert_eq!((io.rmw_pre_read, io.parity_write), (1, 0));
    assert_eq!((io.scrub_read, io.scrub_write), (0, 0));
    assert_eq!(r.metrics.requests, 3);
    assert!(r.metrics.mean_read_ms > 0.0);
}

/// `n` 8 KB writes, 20 ms apart, to the first unit of stripes `0..n`:
/// eight fill the 64 KB log buffer, and 512 fill the 4 MB log region.
fn logged_writes(n: u64) -> Vec<(u64, u64, u64, ReqKind)> {
    (0..n)
        .map(|i| (i * 20, i * STRIPE, 8192, ReqKind::Write))
        .collect()
}

#[test]
fn parity_log_region_replays_and_locks_its_stripes() {
    use afraid::driver::run_to_cut;
    let c = cfg(ParityPolicy::ParityLogging);
    let t = trace_of(&logged_writes(600));
    let opts = RunOptions::default();
    let r = run_trace(&c, &t, &opts);
    let m = &r.metrics;
    // 600 writes: 75 buffer flushes; the first 64 fill the region,
    // whose 512 stripes replay in batches of eight. Each batch reads
    // one flush back and reads and writes its stripes' parity.
    assert_eq!(m.scrub_batches, 64);
    assert_eq!(m.io.scrub_write, 75 + 512);
    assert_eq!(m.io.scrub_read, 64 + 512);
    assert_eq!((m.io.rmw_pre_read, m.io.parity_write), (600, 0));
    let end = run_to_cut(&c, &t, &opts, m.events_processed).image;
    assert_eq!(end.marks.marked_count(), 0);
    for stripe in 0..600 {
        assert!(end.shadow.parity_consistent(stripe), "stripe {stripe}");
    }

    // The region fills at the 512th write, whose arrival starts the
    // replay with stripes 0..8. A write to stripe 0 arriving at the
    // same instant waits for that batch's read and write phases, each
    // at least one access on the test disk; one to a stripe outside it
    // only queues behind the replay's I/O.
    let last = 511 * 20;
    let probe = |offset: u64| {
        let mut recs = logged_writes(512);
        recs.push((last, offset, 8192, ReqKind::Write));
        run(ParityPolicy::ParityLogging, &recs)
    };
    let base = run(ParityPolicy::ParityLogging, &logged_writes(512));
    let total = |r: &RunResult| r.metrics.mean_write_ms * r.metrics.requests as f64;
    let locked = total(&probe(0)) - total(&base);
    let free = total(&probe(2000 * STRIPE)) - total(&base);
    assert!(
        locked > free + 10.0,
        "write on a replaying stripe took {locked:.2} ms, elsewhere {free:.2} ms"
    );
}

#[test]
fn parity_logging_sits_between_afraid_and_raid5() {
    use afraid_sim::time::SimDuration;
    use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};
    let t = WorkloadSpec::preset(WorkloadKind::Att).generate(CAP, SimDuration::from_secs(30), 42);
    let mean = |policy| {
        run_trace(&cfg(policy), &t, &RunOptions::default())
            .metrics
            .mean_io_ms
    };
    let (afraid, plog, raid5) = (
        mean(ParityPolicy::IdleOnly),
        mean(ParityPolicy::ParityLogging),
        mean(ParityPolicy::AlwaysRaid5),
    );
    assert!(
        afraid < plog && plog < raid5,
        "afraid {afraid:.2} ms, parity logging {plog:.2} ms, raid5 {raid5:.2} ms"
    );
}
