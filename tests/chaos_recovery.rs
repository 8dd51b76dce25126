//! Tier-1 chaos gate: crash at many event boundaries, recover from
//! NVRAM + survivors, byte-check against the shadow model.
//!
//! These tests are the machine-checked form of the paper's
//! availability argument: at *every* cut point, the marking memory
//! plus the surviving disks reconstruct a fully redundant array that
//! is byte-identical to the pre-crash contents outside the declared
//! (and priced-in) loss set.

use afraid::driver::{run_to_cut, run_to_cuts};
use afraid_chaos::{cut_points, summarize, sweep, Scenario};
use afraid_sim::rng::SplitMix64;
use afraid_sim::time::SimDuration;

const SEED: u64 = 42;

/// Sweeps `n_cuts` evenly spread cuts of a `secs`-second trace and
/// asserts every one recovered. Durations are per-scenario: a sweep
/// replays the trace once per worker, but every cut still pays a
/// capture, a recovery and a byte-check of the whole array.
fn assert_all_pass(scenario: Scenario, secs: u64, n_cuts: usize) -> afraid_chaos::SweepSummary {
    let spec = scenario.spec(SimDuration::from_secs(secs), SEED);
    let trace = spec.trace();
    let total = spec.total_events(&trace);
    assert!(
        total > 100,
        "{}: degenerate trace ({total} events)",
        scenario.name()
    );
    let cuts = cut_points(total, n_cuts);
    let verdicts = sweep(&spec, &trace, &cuts, 1);
    let s = summarize(scenario.name(), &verdicts);
    assert_eq!(
        s.failed,
        0,
        "{}: {} of {} cuts failed; first: {:?}",
        scenario.name(),
        s.failed,
        s.cuts,
        s.first_failure
    );
    s
}

/// Power loss at evenly spread cuts of a bursty trace recovers
/// byte-identically, and the sweep actually exercises stale parity
/// (scrubbed stripes) and the mark-then-write window (spurious marks).
#[test]
fn baseline_power_loss_recovers_everywhere() {
    let s = assert_all_pass(Scenario::Baseline, 2, 64);
    assert!(s.scrubbed > 0, "no cut caught a stale stripe: {s:?}");
}

/// Crash during parity-scrub repair batches.
#[test]
fn crash_during_scrub_repair_recovers() {
    let s = assert_all_pass(Scenario::ScrubRepair, 1, 64);
    assert!(s.scrubbed > 0, "{s:?}");
}

/// Crash during the degraded window and the rebuild sweep: recovery
/// reconstructs the dead disk's units from the survivors.
#[test]
fn crash_during_rebuild_recovers() {
    let s = assert_all_pass(Scenario::Rebuild, 1, 64);
    assert!(
        s.reconstructed > 0,
        "no cut landed in the degraded window: {s:?}"
    );
}

/// Crash during the sick-disk eviction drain (and the post-eviction
/// rebuild).
#[test]
fn crash_during_eviction_drain_recovers() {
    let s = assert_all_pass(Scenario::EvictionDrain, 1, 64);
    assert!(
        s.reconstructed > 0,
        "no cut landed after the eviction: {s:?}"
    );
}

/// The crash destroys the NVRAM and a disk together: recovery must
/// *detect* the truly unrecoverable stripes (declare them lost), never
/// silently reconstruct garbage — and the sweep must actually contain
/// such cuts, or the test proves nothing.
#[test]
fn nvram_loss_detects_unrecoverable_stripes() {
    let s = assert_all_pass(Scenario::NvramLoss, 2, 64);
    assert!(
        s.cuts_with_true_loss > 0,
        "no cut had truly-lost units; the detection path was never exercised: {s:?}"
    );
    assert!(
        s.declared_lost_units >= s.truly_lost_units,
        "recovery declared less than the truth: {s:?}"
    );
    assert!(s.cuts_with_declared_loss >= s.cuts_with_true_loss, "{s:?}");
}

/// Power loss while disks are silently lying: cuts land with live,
/// undispositioned corruption in the registry, and the power-on
/// checksum cross-check finishes the job — repairing byte-exactly
/// where redundancy allows, declaring where it does not, and never
/// letting a corrupt word survive recovery unflagged (invariant 5).
#[test]
fn crash_with_live_corruption_recovers() {
    let s = assert_all_pass(Scenario::Corruption, 5, 64);
    assert!(
        s.cuts_with_live_corruption > 0,
        "no cut caught live rot; the cross-check was never exercised: {s:?}"
    );
    assert!(
        s.corrupt_repaired > 0,
        "no recovery-time repair exercised: {s:?}"
    );
    assert!(
        s.corrupt_declared > 0,
        "no recovery-time declaration exercised: {s:?}"
    );
    assert_eq!(s.silent_reads, 0, "verify-on-read let a lie through: {s:?}");
}

/// The acceptance sweep: ≥1000 cut points per trace across the three
/// crash scenarios, every one recovering byte-identically.
#[test]
fn thousand_cut_acceptance_sweep() {
    for (scenario, secs) in [
        (Scenario::Rebuild, 5),
        (Scenario::ScrubRepair, 5),
        (Scenario::EvictionDrain, 10),
    ] {
        let spec = scenario.spec(SimDuration::from_secs(secs), SEED);
        let trace = spec.trace();
        let total = spec.total_events(&trace);
        let cuts = cut_points(total, 1000);
        let jobs = afraid_exp::default_jobs();
        let verdicts = sweep(&spec, &trace, &cuts, jobs);
        let s = summarize(scenario.name(), &verdicts);
        assert!(
            s.cuts >= 1000,
            "{}: only {} distinct cuts",
            scenario.name(),
            s.cuts
        );
        assert_eq!(
            s.failed,
            0,
            "{}: {} of {} cuts failed; first: {:?}",
            scenario.name(),
            s.failed,
            s.cuts,
            s.first_failure
        );
    }
}

/// Verdicts are a pure function of the cut coordinate: sweeps at
/// jobs 1, 2, 3 and 4 serialize byte-identically, so uneven chunk
/// boundaries change nothing. The corruption scenario rides along
/// because its per-disk silent-fault streams are the most recent
/// determinism hazard.
#[test]
fn sweep_is_bit_identical_across_jobs() {
    for scenario in [Scenario::Rebuild, Scenario::Corruption] {
        let spec = scenario.spec(SimDuration::from_secs(1), SEED);
        let trace = spec.trace();
        let total = spec.total_events(&trace);
        let cuts = cut_points(total, 48);
        let seq = serde_json::to_string(&sweep(&spec, &trace, &cuts, 1)).unwrap();
        for jobs in [2, 3, 4] {
            let par = serde_json::to_string(&sweep(&spec, &trace, &cuts, jobs)).unwrap();
            assert_eq!(
                seq, par,
                "{scenario:?}: jobs=1 vs jobs={jobs} sweeps diverged"
            );
        }
    }
}

/// One replay stepped through a sorted cut list captures, at every
/// cut, exactly what a fresh replay cut there does — on seeded random
/// cut sets with repeats, cut 0 and cuts past the drain.
#[test]
fn run_to_cuts_matches_run_to_cut() {
    let mut rng = SplitMix64::new(SEED);
    for scenario in Scenario::ALL {
        let spec = scenario.spec(SimDuration::from_secs(1), SEED);
        let trace = spec.trace();
        let total = spec.total_events(&trace);
        let mut cuts: Vec<u64> = (0..12).map(|_| rng.next_below(total + 50)).collect();
        cuts.extend([0, cuts[0], total + 1_000]);
        cuts.sort_unstable();
        let mut seen = 0;
        run_to_cuts(&spec.cfg, &trace, &spec.opts, &cuts, |run| {
            let fresh = run_to_cut(&spec.cfg, &trace, &spec.opts, cuts[seen]);
            assert_eq!(format!("{run:?}"), format!("{fresh:?}"), "{scenario:?}");
            seen += 1;
        });
        assert_eq!(seen, cuts.len(), "{scenario:?}");
    }
}

/// A cut past the natural end of the run is a crash of a quiesced
/// array: nothing marked, nothing lost, trivially recoverable.
#[test]
fn cut_beyond_drain_is_quiescent() {
    let spec = Scenario::Baseline.spec(SimDuration::from_secs(2), SEED);
    let trace = spec.trace();
    let total = spec.total_events(&trace);
    let v = spec.run_cut(&trace, total + 10_000);
    assert!(v.pass, "{:?}", v.failure);
    assert_eq!(v.events_at_cut, total);
    assert_eq!(v.marked, 0, "drained run left dirty stripes");
    assert_eq!(v.declared_lost, 0);
}
