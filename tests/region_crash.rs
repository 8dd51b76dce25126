//! Crash recovery over per-region redundancy (paper §5): a stripe in
//! a never-protected region keeps no parity, so recovery must treat
//! it as stale, never as fresh, and the judge must not ask it for
//! parity it never kept.
//!
//! Each configuration is cut at about 100 evenly spread events and
//! every cut is judged three ways: a plain power loss, a power loss
//! that also kills disk 0, and one that kills the NVRAM and disk 2.
//!
//! An NVRAM failure must likewise mark, sweep and rebuild only the
//! stripes that keep parity.
//!
//! Parity logging is judged the same way, over a run long enough to
//! fill its log region and replay it; an NVRAM failure drops its log
//! and falls back on the whole-array sweep.
//!
//! The trace seed honours `AFRAID_SEED` (default 42) so CI can sweep
//! several seeds over the same invariants.

use afraid::config::ArrayConfig;
use afraid::driver::{run_to_cuts, run_trace, RunOptions, RunResult};
use afraid::policy::ParityPolicy;
use afraid::recovery::replay;
use afraid::regions::{Region, RegionMap, RegionMode};
use afraid_chaos::{cut_points, judge};
use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

#[expect(clippy::disallowed_methods, reason = "CI reruns this at several seeds")]
fn seed() -> u64 {
    std::env::var("AFRAID_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn region(first_stripe: u64, stripes: u64, mode: RegionMode) -> Region {
    Region {
        first_stripe,
        stripes,
        mode,
    }
}

/// Sums over every judged cut, for the exercise checks. `marked`
/// leaves out the NVRAM kills, which mark every stripe that keeps
/// parity.
#[derive(Debug, Default)]
struct Tally {
    verdicts: u64,
    marked: u64,
    declared_lost: u64,
    truly_lost: u64,
    /// Scrub and log-replay batches of the whole run.
    batches: u64,
}

/// Cuts a `secs`-second Att run of `policy` over `regions` at about
/// 100 points, judges each cut plain, with disk 0 killed, and with the
/// NVRAM and disk 2 killed, and asserts that every verdict passes.
fn assert_every_cut_recovers(policy: ParityPolicy, regions: RegionMap, secs: u64) -> Tally {
    let mut cfg = ArrayConfig::small_test(policy);
    cfg.regions = regions;
    let trace = WorkloadSpec::preset(WorkloadKind::Att).generate(
        2500 * 4 * 8192,
        SimDuration::from_secs(secs),
        seed(),
    );
    let opts = RunOptions::default();
    let whole = run_trace(&cfg, &trace, &opts).metrics;
    let total = whole.events_processed;
    assert!(total > 100, "degenerate trace ({total} events)");
    let cuts = cut_points(total, 100);
    let mut tally = Tally {
        batches: whole.scrub_batches,
        ..Tally::default()
    };
    let mut failures = Vec::new();
    run_to_cuts(&cfg, &trace, &opts, &cuts, |run| {
        let cut = run.events_processed;
        for (name, kill_disk, kill_nvram) in [
            ("plain", None, false),
            ("disk 0", Some(0), false),
            ("nvram + disk 2", Some(2), true),
        ] {
            let mut image = run.image.clone();
            if let Some(disk) = kill_disk {
                image.kill_disk(disk);
            }
            if kill_nvram {
                image.kill_nvram();
            }
            let v = judge(cut, &image, &replay(&image), run.loss.as_ref());
            tally.verdicts += 1;
            if !v.nvram_failed {
                tally.marked += v.marked;
            }
            tally.declared_lost += v.declared_lost;
            tally.truly_lost += v.truly_lost;
            if !v.pass {
                failures.push(format!("cut {cut} ({name}): {:?}", v.failure));
            }
        }
    });
    assert!(
        failures.is_empty(),
        "{} of {} verdicts failed; first: {}",
        failures.len(),
        tally.verdicts,
        failures[0]
    );
    tally
}

/// A never-protected region, an always-protected region and default
/// stripes in one array.
#[test]
fn mixed_regions_recover_at_every_cut() {
    let t = assert_every_cut_recovers(
        ParityPolicy::IdleOnly,
        RegionMap::new(vec![
            region(0, 500, RegionMode::NeverProtect),
            region(1000, 500, RegionMode::AlwaysProtect),
        ]),
        5,
    );
    assert!(t.marked > 0, "no cut caught a dirty stripe: {t:?}");
    assert!(t.truly_lost > 0, "no cut lost a unit: {t:?}");
}

/// The whole array run as RAID 0: every dead-disk data unit is
/// declared lost, and no stripe is asked for parity.
#[test]
fn never_protected_array_recovers_at_every_cut() {
    let t = assert_every_cut_recovers(
        ParityPolicy::IdleOnly,
        RegionMap::new(vec![region(0, 2500, RegionMode::NeverProtect)]),
        5,
    );
    assert_eq!(t.marked, 0, "never-protected stripes were marked: {t:?}");
    assert!(t.truly_lost > 0, "no cut lost a unit: {t:?}");
    assert!(t.declared_lost >= t.truly_lost, "{t:?}");
}

/// Parity logging keeps parity plus log a full redundancy at every
/// cut, through the log replay a 40 s run fills: no cut marks a
/// stripe, and only the cuts that also lose the NVRAM declare a unit.
#[test]
fn parity_logging_recovers_at_every_cut() {
    let t = assert_every_cut_recovers(ParityPolicy::ParityLogging, RegionMap::default(), 40);
    assert!(t.batches > 0, "the log never filled: {t:?}");
    assert_eq!(t.marked, 0, "parity logging marked a stripe: {t:?}");
    assert_eq!(t.truly_lost, 0, "{t:?}");
    assert!(t.declared_lost > 0, "no NVRAM kill declared a unit: {t:?}");
}

/// The NVRAM fails at 5 s of a 20 s Att run of `policy` over
/// `regions`. Returns the run, and whether some cut after the failure
/// still had marks to sweep. Panics if any such cut has a
/// never-protected stripe marked.
fn nvram_failure_run(policy: ParityPolicy, regions: RegionMap) -> (RunResult, bool) {
    let mut cfg = ArrayConfig::small_test(policy);
    cfg.regions = regions;
    let trace = WorkloadSpec::preset(WorkloadKind::Att).generate(
        2500 * 4 * 8192,
        SimDuration::from_secs(20),
        seed(),
    );
    let opts = RunOptions {
        fail_nvram: Some(SimTime::from_secs(5)),
        ..RunOptions::default()
    };
    let result = run_trace(&cfg, &trace, &opts);
    let cuts = cut_points(result.metrics.events_processed, 100);
    let mut sweeping = false;
    run_to_cuts(&cfg, &trace, &opts, &cuts, |run| {
        let marks = &run.image.marks;
        if !marks.has_failed() {
            return;
        }
        sweeping |= marks.marked_count() > 0;
        for stripe in 0..marks.stripes() {
            assert!(
                !marks.is_marked(stripe) || cfg.regions.mode_of(stripe) != RegionMode::NeverProtect,
                "never-protected stripe {stripe} marked at cut {}",
                run.events_processed
            );
        }
    });
    (result, sweeping)
}

/// An array that keeps no parity has nothing to sweep after an NVRAM
/// failure: no scrub I/O, and reprotected at the failure instant.
#[test]
fn nvram_failure_sweeps_nothing_in_a_never_protected_array() {
    let (r, sweeping) = nvram_failure_run(
        ParityPolicy::IdleOnly,
        RegionMap::new(vec![region(0, 2500, RegionMode::NeverProtect)]),
    );
    assert!(!sweeping);
    assert_eq!(r.metrics.io.scrub_read, 0);
    assert_eq!(r.metrics.io.scrub_write, 0);
    assert_eq!(r.metrics.stripes_scrubbed, 0);
    assert_eq!(r.reprotected_at, Some(SimTime::from_secs(5)));
}

/// With a mixed map the sweep marks and rebuilds the stripes that keep
/// parity, and only those.
#[test]
fn nvram_failure_sweeps_only_protected_stripes() {
    let (r, sweeping) = nvram_failure_run(
        ParityPolicy::IdleOnly,
        RegionMap::new(vec![
            region(0, 500, RegionMode::NeverProtect),
            region(1000, 500, RegionMode::AlwaysProtect),
        ]),
    );
    assert!(sweeping, "no cut caught the sweep");
    let done = r.reprotected_at.expect("sweep finished");
    assert!(done > SimTime::from_secs(5), "reprotected at {done:?}");
    assert!(r.metrics.stripes_scrubbed >= 2000);
}

/// An NVRAM failure under parity logging drops the log with the marks:
/// the whole-array sweep stands in for its replay.
#[test]
fn nvram_failure_under_parity_logging_sweeps_the_whole_array() {
    let (r, sweeping) = nvram_failure_run(ParityPolicy::ParityLogging, RegionMap::default());
    assert!(sweeping, "no cut caught the sweep");
    let done = r.reprotected_at.expect("sweep finished");
    assert!(done > SimTime::from_secs(5), "reprotected at {done:?}");
    // Every stripe keeps parity, so the sweep marks all 2500; writes
    // that reach a marked stripe first refresh it by reconstruct-write.
    assert!(
        r.metrics.stripes_scrubbed >= 2000,
        "{}",
        r.metrics.stripes_scrubbed
    );
}
