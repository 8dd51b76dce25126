//! Tier-1 integrity gate: disks that lie never get away with it.
//!
//! These tests drive full trace replays with every silent-fault class
//! active — torn, lost, and misdirected writes plus read bit-flips —
//! and assert the end-to-end integrity contract:
//!
//! * **100% detection** under verify-on-read: zero silent reads, and
//!   every injected fault's fate is accounted for (caught by a
//!   checksum, or erased by a client overwrite before any read).
//! * **Byte-exact repair** when redundancy is fresh, **honest
//!   declaration** when the deferral window left parity stale.
//! * **Zero false positives**: a clean run never trips a checksum.
//! * **Bit-identical results** at any `--jobs`, replayable from the
//!   cross-run cell cache.

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions};
use afraid::policy::ParityPolicy;
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

/// Full logical capacity of the `small_test` array.
const CAPACITY: u64 = 2500 * 4 * 8192;

const SEED: u64 = 42;

/// The lying-disk configuration: every silent class active at rates
/// that land a healthy handful of faults per run, verify-on-read and
/// checksum scrubs on, eager tours.
fn corrupt_cfg() -> ArrayConfig {
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.integrity.bit_flip_per_read = 5e-3;
    cfg.integrity.torn_write_per_io = 3e-2;
    cfg.integrity.lost_write_per_io = 3e-2;
    cfg.integrity.misdirected_write_per_io = 2e-2;
    cfg.integrity.verify_reads = true;
    cfg.integrity.verify_scrub = true;
    cfg.scrub.enabled = true;
    cfg
}

fn att_run(cfg: &ArrayConfig, secs: u64) -> afraid::metrics::RunMetrics {
    let trace = WorkloadSpec::preset(WorkloadKind::Att).generate(
        CAPACITY,
        afraid_sim::time::SimDuration::from_secs(secs),
        SEED,
    );
    run_trace(cfg, &trace, &RunOptions::default()).metrics
}

/// Under verify-on-read, no read ever returns wrong bytes silently,
/// no clean unit ever trips a checksum, and every injected fault is
/// dispositioned — detected (then repaired or declared) or erased by
/// a client overwrite before anything read it.
#[test]
fn verify_on_read_catches_every_lie() {
    let m = att_run(&corrupt_cfg(), 10);
    let i = m.integrity;
    assert!(
        i.injected_total() >= 10,
        "trace too quiet to prove anything: {i:?}"
    );
    assert_eq!(i.silent_reads, 0, "silent read under verify-on-read: {i:?}");
    assert_eq!(i.false_positives, 0, "checksum cried wolf: {i:?}");
    assert_eq!(
        i.resolved_total(),
        i.injected_total(),
        "faults never dispositioned — the drain tour missed them: {i:?}"
    );
    assert!(i.verified_units > 0, "verification never ran: {i:?}");
    assert_eq!(i.detected, i.repaired + i.declared, "{i:?}");
}

/// With parity kept fresh (AlwaysRaid5 never defers), byte-exact
/// repair is the dominant disposition. The residue of declarations
/// comes from laundering, not deferral: a full-stripe write pre-reads
/// a still-corrupt neighbour as-is, folding the rot into the new
/// parity, after which no redundancy describes the intent.
#[test]
fn fresh_redundancy_repairs_byte_exactly() {
    let mut cfg = corrupt_cfg();
    cfg.policy = ParityPolicy::AlwaysRaid5;
    let m = att_run(&cfg, 10);
    let i = m.integrity;
    assert!(i.injected_total() >= 10, "{i:?}");
    assert_eq!(i.silent_reads, 0, "{i:?}");
    assert!(i.repaired > 0, "no repair ever exercised: {i:?}");
    assert!(
        i.repaired > i.declared,
        "fresh parity should make repair the common case: {i:?}"
    );
}

/// Under deferred parity, corruptions that surface inside the
/// deferral window are declared — honestly reported, never silently
/// passed — while those caught with parity consistent still repair.
#[test]
fn deferral_window_corruptions_are_declared() {
    let m = att_run(&corrupt_cfg(), 10);
    let i = m.integrity;
    assert!(i.repaired > 0, "no fresh-window repair: {i:?}");
    assert!(i.declared > 0, "no deferred-window declaration: {i:?}");
}

/// With injection off, a fully verified run finds nothing: no
/// detections, no declarations, no false positives.
#[test]
fn clean_run_is_false_positive_free() {
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.integrity.verify_reads = true;
    cfg.integrity.verify_scrub = true;
    cfg.scrub.enabled = true;
    let m = att_run(&cfg, 5);
    let i = m.integrity;
    assert_eq!(i.injected_total(), 0, "{i:?}");
    assert_eq!(i.detected, 0, "{i:?}");
    assert_eq!(i.false_positives, 0, "{i:?}");
    assert_eq!(i.silent_reads, 0, "{i:?}");
    assert!(i.verified_units > 0, "verification never ran: {i:?}");
}

/// With injection on but verification OFF, corrupt words reach
/// clients: the silent-read counter is the exposure this subsystem
/// exists to eliminate, so the control must show it nonzero.
#[test]
fn without_verification_lies_reach_clients() {
    let mut cfg = corrupt_cfg();
    cfg.integrity.verify_reads = false;
    cfg.integrity.verify_scrub = false;
    let m = att_run(&cfg, 10);
    let i = m.integrity;
    assert!(i.injected_total() >= 10, "{i:?}");
    assert!(
        i.silent_reads > 0,
        "control failed: nothing corrupt was ever read: {i:?}"
    );
}

/// The whole integrity pipeline is deterministic: two identical runs
/// produce identical counters.
#[test]
fn integrity_counters_are_deterministic() {
    let a = att_run(&corrupt_cfg(), 5).integrity;
    let b = att_run(&corrupt_cfg(), 5).integrity;
    assert_eq!(a, b);
}

/// When a disk dies under live corruption and the run continues
/// degraded, the units the controller scars are exactly the ones the
/// loss assessment reported: the marked stripes' dead units plus the
/// dead units whose reconstruction the rot poisoned.
#[test]
fn degraded_scars_match_the_loss_report() {
    use afraid::driver::run_to_cut;
    use afraid_sim::time::{SimDuration, SimTime};
    use std::collections::BTreeSet;

    let cfg = corrupt_cfg();
    let trace = WorkloadSpec::preset(WorkloadKind::Att).generate(
        CAPACITY,
        SimDuration::from_secs(10),
        SEED,
    );
    let opts = RunOptions {
        fail_disk: Some((2, SimTime::from_secs(6))),
        continue_degraded: true,
        ..RunOptions::default()
    };
    // The first cut after the failure: the smallest event count whose
    // crash run already carries the loss report.
    let (mut lo, mut hi) = (0u64, 1u64);
    while run_to_cut(&cfg, &trace, &opts, hi).loss.is_none() {
        lo = hi;
        hi *= 2;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if run_to_cut(&cfg, &trace, &opts, mid).loss.is_some() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let run = run_to_cut(&cfg, &trace, &opts, hi);
    let loss = run.loss.expect("the failure happened at this cut");
    let scarred: BTreeSet<(u64, u32)> = run.image.scarred.iter().copied().collect();
    let reported: BTreeSet<(u64, u32)> = loss
        .lost
        .iter()
        .chain(&loss.corrupt_lost)
        .copied()
        .collect();
    assert!(
        !loss.corrupt_lost.is_empty(),
        "no poisoned reconstruction to check: {loss:?}"
    );
    assert_eq!(scarred, reported);
}

/// `afraid-cli run --workload cello-news --policy afraid --secs 130
/// --corrupt 1e-3 --verify-reads --fail-disk 2@110 --degraded`. Entering
/// degraded mode declares dead units whose reconstruction a rotten
/// survivor poisoned; those units were never registered as corrupt, so
/// counting them let `declared` outgrow `detected` and the measured
/// unrepairable fraction exceed 1, which the availability model rejects.
#[test]
fn degraded_corruption_run_prices_availability() {
    use afraid::report::availability;
    use afraid_sim::time::{SimDuration, SimTime};

    let mut cfg = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
    cfg.integrity.bit_flip_per_read = 1e-3;
    cfg.integrity.torn_write_per_io = 1e-3;
    cfg.integrity.lost_write_per_io = 1e-3;
    cfg.integrity.misdirected_write_per_io = 1e-3;
    cfg.integrity.verify_reads = true;
    cfg.integrity.verify_scrub = true;
    cfg.shadow = true;
    // The CLI's trace capacity: ~90 % of the array's usable space.
    let unit_sectors = cfg.stripe_unit_bytes / 512;
    let stripes = cfg.disk_model.geometry.capacity_sectors() / unit_sectors;
    let capacity = stripes * u64::from(cfg.n_data()) * cfg.stripe_unit_bytes * 9 / 10;
    let trace = WorkloadSpec::preset(WorkloadKind::CelloNews).generate(
        capacity,
        SimDuration::from_secs(130),
        SEED,
    );
    let opts = RunOptions {
        fail_disk: Some((2, SimTime::from_secs(110))),
        continue_degraded: true,
        ..RunOptions::default()
    };
    let r = run_trace(&cfg, &trace, &opts);
    let i = r.metrics.integrity;
    assert!(i.declared > 0, "no declaration to price: {i:?}");
    assert!(i.declared <= i.detected, "{i:?}");
    assert_eq!(i.detected, i.repaired + i.declared, "{i:?}");
    let avail = availability(&cfg, &r.metrics);
    assert!(avail.mttdl_corrupt.is_finite(), "{avail:?}");
}
