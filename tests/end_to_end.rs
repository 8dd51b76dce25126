//! Cross-crate integration tests: synthetic workloads (afraid-trace)
//! through the calibrated array (afraid-disk + afraid core), checked
//! against the availability mathematics (afraid-avail). These encode
//! the paper's qualitative results as invariants.

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions};
use afraid::policy::ParityPolicy;
use afraid::report::availability;
use afraid_sim::time::SimDuration;
use afraid_trace::record::Trace;
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

const CAP: u64 = 7 * 1024 * 1024 * 1024;

fn trace(kind: WorkloadKind, secs: u64) -> Trace {
    WorkloadSpec::preset(kind).generate(CAP, SimDuration::from_secs(secs), 42)
}

fn mean_io(trace: &Trace, policy: ParityPolicy) -> f64 {
    let cfg = ArrayConfig::paper_default(policy);
    run_trace(&cfg, trace, &RunOptions::default())
        .metrics
        .mean_io_ms
}

#[test]
fn afraid_tracks_raid0_on_bursty_workloads() {
    for kind in [
        WorkloadKind::Hplajw,
        WorkloadKind::Snake,
        WorkloadKind::CelloUsr,
    ] {
        let t = trace(kind, 400);
        let raid0 = mean_io(&t, ParityPolicy::NeverRebuild);
        let afraid = mean_io(&t, ParityPolicy::IdleOnly);
        assert!(
            afraid < raid0 * 1.15,
            "{}: afraid {afraid:.2}ms vs raid0 {raid0:.2}ms",
            kind.name()
        );
    }
}

#[test]
fn raid5_pays_heavily_on_write_heavy_workloads() {
    for kind in [WorkloadKind::CelloNews, WorkloadKind::Att] {
        let t = trace(kind, 120);
        let afraid = mean_io(&t, ParityPolicy::IdleOnly);
        let raid5 = mean_io(&t, ParityPolicy::AlwaysRaid5);
        assert!(
            raid5 > afraid * 2.0,
            "{}: raid5 {raid5:.2}ms vs afraid {afraid:.2}ms",
            kind.name()
        );
    }
}

#[test]
fn mttdl_ordering_raid5_over_afraid_over_raid0() {
    let t = trace(WorkloadKind::Snake, 120);
    let mut disk_mttdl = Vec::new();
    for policy in [
        ParityPolicy::AlwaysRaid5,
        ParityPolicy::IdleOnly,
        ParityPolicy::NeverRebuild,
    ] {
        let cfg = ArrayConfig::paper_default(policy);
        let r = run_trace(&cfg, &t, &RunOptions::default());
        disk_mttdl.push(availability(&cfg, &r.metrics).mttdl_disk);
    }
    assert!(
        disk_mttdl[0] > disk_mttdl[1] && disk_mttdl[1] > disk_mttdl[2],
        "ordering violated: {disk_mttdl:?}"
    );
}

#[test]
fn mttdl_x_interpolates_performance() {
    // On a busy trace, a strict target must cost more than a loose
    // one, with pure AFRAID fastest and RAID 5 slowest.
    let t = trace(WorkloadKind::Att, 180);
    let raid5 = mean_io(&t, ParityPolicy::AlwaysRaid5);
    let strict = mean_io(
        &t,
        ParityPolicy::MttdlTarget {
            target_hours: 1.0e9,
        },
    );
    let loose = mean_io(
        &t,
        ParityPolicy::MttdlTarget {
            target_hours: 1.0e6,
        },
    );
    let afraid = mean_io(&t, ParityPolicy::IdleOnly);
    assert!(
        afraid <= loose * 1.10,
        "afraid {afraid:.2} vs loose {loose:.2}"
    );
    assert!(loose < strict, "loose {loose:.2} !< strict {strict:.2}");
    assert!(
        strict < raid5 * 1.10,
        "strict {strict:.2} vs raid5 {raid5:.2}"
    );
}

#[test]
fn mttdl_x_meets_its_target() {
    // The paper: "the disk-related MTTDL was never more than 5% below
    // its target, and usually far exceeded it."
    for target in [1.0e7, 1.0e8, 1.0e9] {
        let t = trace(WorkloadKind::CelloNews, 600);
        let cfg = ArrayConfig::paper_default(ParityPolicy::MttdlTarget {
            target_hours: target,
        });
        let r = run_trace(&cfg, &t, &RunOptions::default());
        let a = availability(&cfg, &r.metrics);
        assert!(
            a.mttdl_disk >= target * 0.95,
            "target {target:.0e}: achieved {:.2e}",
            a.mttdl_disk
        );
    }
}

#[test]
fn bursty_traces_have_low_unprotected_fraction() {
    let t = trace(WorkloadKind::Hplajw, 300);
    let cfg = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
    let r = run_trace(&cfg, &t, &RunOptions::default());
    assert!(
        r.metrics.frac_unprotected < 0.15,
        "hplajw unprotected fraction {}",
        r.metrics.frac_unprotected
    );
    // And the mean parity lag is tiny (the Table 3 result).
    assert!(
        r.metrics.mean_parity_lag_bytes < 256.0 * 1024.0,
        "lag {}",
        r.metrics.mean_parity_lag_bytes
    );
}

#[test]
fn afraid_mdlr_essentially_equals_raid5() {
    // Table 3: MDLR_unprotected is under a byte per hour on bursty
    // traces, so overall MDLR matches RAID 5's.
    let t = trace(WorkloadKind::Snake, 300);
    let cfg = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
    let r = run_trace(&cfg, &t, &RunOptions::default());
    let a = availability(&cfg, &r.metrics);
    assert!(
        a.mdlr_unprotected < 1.0,
        "mdlr_unprot {}",
        a.mdlr_unprotected
    );
    let r5 = availability(
        &ArrayConfig::paper_default(ParityPolicy::AlwaysRaid5),
        &run_trace(
            &ArrayConfig::paper_default(ParityPolicy::AlwaysRaid5),
            &t,
            &RunOptions::default(),
        )
        .metrics,
    );
    let ratio = a.mdlr_overall / r5.mdlr_overall;
    assert!((0.99..1.01).contains(&ratio), "MDLR ratio {ratio}");
}

#[test]
fn write_duty_cycle_in_paper_band() {
    // The paper observed outstanding writes "up to 59% of the time,
    // with a mean of 20%" across its traces. Check our synthetic mix
    // spans a comparable range.
    let mut cycles = Vec::new();
    for kind in WorkloadKind::all() {
        let t = trace(kind, 120);
        let cfg = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
        let r = run_trace(&cfg, &t, &RunOptions::default());
        cycles.push(r.metrics.write_duty_cycle);
    }
    let max = cycles.iter().cloned().fold(0.0, f64::max);
    let min = cycles.iter().cloned().fold(1.0, f64::min);
    assert!(max > 0.05, "busiest duty cycle {max}");
    assert!(min < 0.05, "lightest duty cycle {min}");
    assert!(max < 0.8, "duty cycle {max} implausibly high");
}

#[test]
fn deterministic_across_identical_runs() {
    let t = trace(WorkloadKind::As400_2, 60);
    let cfg = ArrayConfig::paper_default(ParityPolicy::MttdlTarget {
        target_hours: 1.0e8,
    });
    let a = run_trace(&cfg, &t, &RunOptions::default());
    let b = run_trace(&cfg, &t, &RunOptions::default());
    assert_eq!(a.metrics.mean_io_ms, b.metrics.mean_io_ms);
    assert_eq!(a.metrics.io, b.metrics.io);
    assert_eq!(a.metrics.frac_unprotected, b.metrics.frac_unprotected);
    assert_eq!(a.end, b.end);
}

#[test]
fn shadow_model_stays_consistent_through_a_real_workload() {
    // Run with the shadow verifier on and a failure injection at the
    // very end: the loss assessment cross-checks every stripe's marks
    // against the XOR arithmetic and panics on any divergence.
    let t = trace(WorkloadKind::CelloNews, 60);
    let mut cfg = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
    cfg.shadow = true;
    let opts = RunOptions {
        fail_disk: Some((3, afraid_sim::time::SimTime::from_secs(55))),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg, &t, &opts);
    let loss = r.loss.expect("failure injected");
    // Loss is bounded by the dirty stripes at that instant.
    assert!(loss.lost_units <= loss.dirty_stripes);
}
