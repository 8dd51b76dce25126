//! Property-based tests of the AFRAID redundancy invariant.
//!
//! The central safety claim — "exactly the data units of unredundant
//! stripes on the failed disk are exposed, and nothing else" — is
//! verified here against randomly generated workloads, failure times,
//! and failed disks. The shadow XOR model inside `assess_loss`
//! cross-checks the marking memory on every stripe, so each case is a
//! full end-to-end audit of the controller's parity bookkeeping.

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions};
use afraid::faults::{assess_loss, LatentErrors};
use afraid::layout::Layout;
use afraid::nvram::{MarkGranularity, MarkingMemory};
use afraid::policy::ParityPolicy;
use afraid::regions::RegionMap;
use afraid_sim::time::SimTime;
use afraid_trace::record::{IoRecord, ReqKind, Trace};
use proptest::prelude::*;

/// Capacity of the `small_test` array (2500 stripes x 4 x 8 KB).
const CAP: u64 = 2500 * 4 * 8192;

/// A random request: arrival gap (ms), unit index, length units, write?
#[derive(Clone, Debug)]
struct Req {
    gap_ms: u64,
    unit: u64,
    units: u64,
    write: bool,
}

fn req_strategy() -> impl Strategy<Value = Req> {
    (0u64..200, 0u64..9_990, 1u64..8, any::<bool>()).prop_map(|(gap_ms, unit, units, write)| Req {
        gap_ms,
        unit,
        units,
        write,
    })
}

fn build_trace(reqs: &[Req]) -> Trace {
    let mut t = Trace::new("prop", CAP);
    let mut now = 0u64;
    for r in reqs {
        now += r.gap_ms;
        let offset = (r.unit * 8192).min(CAP - 8 * 8192);
        t.push(IoRecord {
            time: SimTime::from_millis(now),
            offset,
            bytes: r.units * 8192,
            kind: if r.write {
                ReqKind::Write
            } else {
                ReqKind::Read
            },
        });
    }
    t
}

fn policies() -> impl Strategy<Value = ParityPolicy> {
    prop_oneof![
        Just(ParityPolicy::IdleOnly),
        Just(ParityPolicy::NeverRebuild),
        Just(ParityPolicy::AlwaysRaid5),
        (1.0e6..1.0e9f64).prop_map(|t| ParityPolicy::MttdlTarget { target_hours: t }),
        (16u64..(1 << 22)).prop_map(|b| ParityPolicy::Conservative { lag_bound_bytes: b }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// A random disk failure at a random time loses exactly the dirty
    /// data units on that disk — the shadow model inside `assess_loss`
    /// panics if marks and XOR arithmetic ever disagree.
    #[test]
    fn loss_is_exactly_the_dirty_units(
        reqs in prop::collection::vec(req_strategy(), 1..60),
        policy in policies(),
        disk in 0u32..5,
        fail_ms in 1u64..20_000,
    ) {
        let trace = build_trace(&reqs);
        let cfg = ArrayConfig::small_test(policy); // shadow enabled
        let opts = RunOptions {
            fail_disk: Some((disk, SimTime::from_millis(fail_ms))),
            ..RunOptions::default()
        };
        let r = run_trace(&cfg, &trace, &opts);
        let loss = r.loss.expect("failure injected");
        // Loss accounting is internally cross-checked; on top of that:
        prop_assert!(loss.lost_units + loss.parity_only <= loss.dirty_stripes);
        prop_assert_eq!(loss.lost_bytes, loss.lost_units * 8192);
        // Each lost unit names a distinct stripe.
        let mut stripes: Vec<u64> = loss.lost.iter().map(|&(s, _)| s).collect();
        stripes.dedup();
        prop_assert_eq!(stripes.len() as u64, loss.lost_units);
    }

    /// RAID 5 mode never loses data to a single disk failure, no
    /// matter the workload or timing.
    #[test]
    fn raid5_single_failure_is_always_lossless(
        reqs in prop::collection::vec(req_strategy(), 1..40),
        disk in 0u32..5,
        fail_ms in 1u64..20_000,
    ) {
        let trace = build_trace(&reqs);
        let cfg = ArrayConfig::small_test(ParityPolicy::AlwaysRaid5);
        let opts = RunOptions {
            fail_disk: Some((disk, SimTime::from_millis(fail_ms))),
            ..RunOptions::default()
        };
        let r = run_trace(&cfg, &trace, &opts);
        prop_assert!(r.loss.expect("failure injected").is_lossless());
    }

    /// Once the workload stops, AFRAID's idle scrubber always drains
    /// the dirty set: a late failure is lossless.
    #[test]
    fn idle_scrub_always_drains(
        reqs in prop::collection::vec(req_strategy(), 1..40),
    ) {
        let trace = build_trace(&reqs);
        let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        let end = trace.end_time() + afraid_sim::time::SimDuration::from_secs(60);
        let opts = RunOptions {
            fail_disk: Some((2, end)),
            ..RunOptions::default()
        };
        let r = run_trace(&cfg, &trace, &opts);
        let loss = r.loss.expect("failure injected");
        prop_assert!(loss.is_lossless(), "dirty at end: {}", loss.dirty_stripes);
        prop_assert_eq!(loss.dirty_stripes, 0);
    }

    /// Every admitted request completes, under every policy.
    #[test]
    fn all_requests_complete(
        reqs in prop::collection::vec(req_strategy(), 1..80),
        policy in policies(),
    ) {
        let trace = build_trace(&reqs);
        let cfg = ArrayConfig::small_test(policy);
        let r = run_trace(&cfg, &trace, &RunOptions::default());
        prop_assert_eq!(r.metrics.requests as usize, trace.len());
    }

    /// Runs are bit-for-bit deterministic.
    #[test]
    fn determinism(
        reqs in prop::collection::vec(req_strategy(), 1..40),
        policy in policies(),
    ) {
        let trace = build_trace(&reqs);
        let cfg = ArrayConfig::small_test(policy);
        let a = run_trace(&cfg, &trace, &RunOptions::default());
        let b = run_trace(&cfg, &trace, &RunOptions::default());
        prop_assert_eq!(a.metrics.mean_io_ms, b.metrics.mean_io_ms);
        prop_assert_eq!(a.metrics.io, b.metrics.io);
        prop_assert_eq!(a.end, b.end);
    }

    /// DataLossReport invariants hold for arbitrary mark sets and
    /// latent error placements, assessed directly against the marking
    /// memory (no simulation in the loop): the counters, the detail
    /// vectors, and the losslessness predicate must all agree.
    #[test]
    fn loss_report_invariants_with_latent_errors(
        dirty_raw in prop::collection::vec(0u64..100, 0..20),
        errors in prop::collection::vec(
            (0u32..5, 0u64..1600, 0u64..10_000),
            0..30,
        ),
        failed_disk in 0u32..5,
        at_ms in 5_000u64..15_000,
    ) {
        let dirty: std::collections::BTreeSet<u64> = dirty_raw.into_iter().collect();
        // 100 stripes of 5 x 8 KB units over 1600-sector disks.
        let layout = Layout::new(5, 8192, 1600);
        let mut marks = MarkingMemory::new(layout.stripes(), MarkGranularity::STRIPE);
        for &s in &dirty {
            marks.mark(s);
        }
        let errs: Vec<(u32, u64, SimTime)> = errors
            .iter()
            .map(|&(d, sector, ms)| (d, sector, SimTime::from_millis(ms)))
            .collect();
        let latent = LatentErrors::with_errors(5, &errs);
        let at = SimTime::from_millis(at_ms);
        let report = assess_loss(
            &layout,
            &marks,
            None,
            &RegionMap::none(),
            Some(&latent),
            None,
            failed_disk,
            at,
        );

        prop_assert_eq!(report.dirty_stripes, dirty.len() as u64);
        prop_assert!(report.parity_only + report.lost_units <= report.dirty_stripes);
        prop_assert_eq!(report.lost.len() as u64, report.lost_units);
        prop_assert_eq!(report.latent_lost.len() as u64, report.latent_lost_units);
        prop_assert_eq!(report.lost_bytes, report.lost_units * 8192);
        prop_assert_eq!(
            report.is_lossless(),
            report.lost_bytes + report.latent_lost_bytes == 0
        );
        // Latent loss needs a latent error: no errors active by `at`
        // means no latent loss.
        if errs.iter().all(|&(_, _, t)| t > at) {
            prop_assert_eq!(report.latent_lost_units, 0);
        }
        // Latent loss only arises on *clean* stripes (dirty ones are
        // already charged to the ordinary loss path).
        for &(stripe, _) in &report.latent_lost {
            prop_assert!(!marks.is_marked(stripe), "latent loss on dirty stripe {stripe}");
        }
        // Assessment is a pure function of its inputs.
        let again = assess_loss(
            &layout,
            &marks,
            None,
            &RegionMap::none(),
            Some(&latent),
            None,
            failed_disk,
            at,
        );
        prop_assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    /// Scrub-and-latent-enabled runs are bit-for-bit deterministic,
    /// whatever the workload.
    #[test]
    fn scrubbed_runs_are_deterministic(
        reqs in prop::collection::vec(req_strategy(), 1..30),
        rate in 0.0f64..500.0,
    ) {
        let trace = build_trace(&reqs);
        let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        cfg.scrub.enabled = true;
        cfg.scrub.iops_budget = 300.0;
        cfg.scrub.latent_rate_per_disk_hour = rate;
        let a = run_trace(&cfg, &trace, &RunOptions::default());
        let b = run_trace(&cfg, &trace, &RunOptions::default());
        prop_assert_eq!(
            serde_json::to_string(&a.metrics).unwrap(),
            serde_json::to_string(&b.metrics).unwrap()
        );
        prop_assert_eq!(a.end, b.end);
    }

    /// Transient-fault runs are bit-for-bit deterministic: the same
    /// fault seed, rates, and workload give identical metrics and the
    /// identical loss report, whatever the injected failure timing.
    #[test]
    fn transient_fault_runs_are_deterministic(
        reqs in prop::collection::vec(req_strategy(), 1..40),
        fault_seed in any::<u64>(),
        media in 0.0f64..0.02,
        timeout in 0.0f64..0.01,
        disk in 0u32..5,
        fail_ms in 1u64..20_000,
    ) {
        let trace = build_trace(&reqs);
        let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        cfg.faults.media_error_per_io = media;
        cfg.faults.timeout_per_io = timeout;
        cfg.faults.seed = fault_seed;
        let opts = RunOptions {
            fail_disk: Some((disk, SimTime::from_millis(fail_ms))),
            ..RunOptions::default()
        };
        let a = run_trace(&cfg, &trace, &opts);
        let b = run_trace(&cfg, &trace, &opts);
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    /// The NVRAM-failure sweep always restores full protection, and a
    /// failure after the sweep is lossless.
    #[test]
    fn nvram_sweep_reprotects(
        reqs in prop::collection::vec(req_strategy(), 1..20),
        fail_ms in 1u64..5_000,
    ) {
        let trace = build_trace(&reqs);
        let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        let opts = RunOptions {
            fail_nvram: Some(SimTime::from_millis(fail_ms)),
            ..RunOptions::default()
        };
        let r = run_trace(&cfg, &trace, &opts);
        let done = r.reprotected_at.expect("sweep must finish");
        prop_assert!(done >= SimTime::from_millis(fail_ms));
    }
}

#[test]
fn property_harness_smoke() {
    // A plain deterministic case so a proptest regression is easy to
    // reduce by hand.
    let trace = build_trace(&[
        Req {
            gap_ms: 0,
            unit: 0,
            units: 1,
            write: true,
        },
        Req {
            gap_ms: 10,
            unit: 100,
            units: 2,
            write: true,
        },
        Req {
            gap_ms: 5,
            unit: 50,
            units: 1,
            write: false,
        },
    ]);
    let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    let opts = RunOptions {
        fail_disk: Some((0, SimTime::from_millis(40))),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg, &trace, &opts);
    let loss = r.loss.expect("failure injected");
    assert!(loss.dirty_stripes >= 1);
}
