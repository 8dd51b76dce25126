//! Latent-sector-error and tour-scrubbing acceptance tests (issue
//! acceptance criteria): scrubbing at modest IOPS improves the latent
//! MTTDL term with negligible foreground cost, tours cover the whole
//! array within the configured period on idle-heavy workloads, and
//! scrub-enabled runs stay bit-for-bit deterministic.

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions, RunResult};
use afraid::policy::ParityPolicy;
use afraid::regions::{Region, RegionMap, RegionMode};
use afraid::report::availability;
use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::record::Trace;
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

/// Capacity of the `small_test` array: 2500 stripes x 4 units x 8 KB.
const CAP: u64 = 2500 * 4 * 8192;

fn trace(kind: WorkloadKind, secs: u64) -> Trace {
    WorkloadSpec::preset(kind).generate(CAP, SimDuration::from_secs(secs), 42)
}

fn scrub_cfg(enabled: bool) -> ArrayConfig {
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.scrub.enabled = enabled;
    cfg.scrub.iops_budget = 400.0;
    cfg.scrub.tour_period = SimDuration::from_secs(300);
    cfg.scrub.latent_rate_per_disk_hour = 1.0;
    cfg
}

#[test]
fn scrubbing_improves_latent_mttdl_at_negligible_cost() {
    // The headline acceptance criterion: on the busy CelloNews trace,
    // background scrubbing at a modest IOPS budget improves the latent
    // MTTDL term by at least 2x over no scrubbing, while the mean
    // foreground response time regresses by less than 5%.
    let t = trace(WorkloadKind::CelloNews, 120);
    let off = scrub_cfg(false);
    let on = scrub_cfg(true);
    let r_off = run_trace(&off, &t, &RunOptions::default());
    let r_on = run_trace(&on, &t, &RunOptions::default());

    // The drain rule guarantees at least one complete tour even on a
    // busy trace: the run extends until the tour finishes.
    assert!(r_on.metrics.scrub_tours >= 1, "no tour completed");

    let a_off = availability(&off, &r_off.metrics);
    let a_on = availability(&on, &r_on.metrics);
    assert!(
        a_on.mttdl_latent >= a_off.mttdl_latent * 2.0,
        "latent MTTDL: scrubbed {:.3e} h vs unscrubbed {:.3e} h",
        a_on.mttdl_latent,
        a_off.mttdl_latent
    );

    // Scrub I/O rides idle periods only; the foreground barely notices.
    assert!(
        r_on.metrics.mean_io_ms <= r_off.metrics.mean_io_ms * 1.05,
        "mean I/O regressed: {:.3} ms -> {:.3} ms",
        r_off.metrics.mean_io_ms,
        r_on.metrics.mean_io_ms
    );
}

#[test]
fn tour_covers_every_sector_within_the_period_when_idle() {
    // On the idle-heavy hplajw trace the scrubber must complete full
    // tours — reading every sector of every disk, parity included —
    // and each tour must fit inside the configured tour period.
    let cfg = scrub_cfg(true);
    let t = trace(WorkloadKind::Hplajw, 300);
    let r = run_trace(&cfg, &t, &RunOptions::default());
    let m = &r.metrics;
    assert!(m.scrub_tours >= 1, "no tour completed");
    assert!(
        m.mean_tour_secs <= cfg.scrub.tour_period.as_secs_f64(),
        "mean tour {:.1}s exceeds the {:.0}s period",
        m.mean_tour_secs,
        cfg.scrub.tour_period.as_secs_f64()
    );
    // One full tour reads stripes x unit_sectors x disks sectors; the
    // run completed at least `scrub_tours` of them.
    let per_tour = 2500 * (cfg.stripe_unit_bytes / 512) * u64::from(cfg.disks);
    assert!(
        m.tour_sectors_read >= per_tour * m.scrub_tours,
        "tour read {} sectors, expected at least {} over {} tours",
        m.tour_sectors_read,
        per_tour * m.scrub_tours,
        m.scrub_tours
    );
}

#[test]
fn tours_detect_and_repair_injected_latent_errors() {
    // Crank the error rate high enough that errors certainly land
    // during the run, and check the detect/repair counters move. The
    // small_test config keeps the shadow verifier on, so every repair
    // is cross-checked against the XOR arithmetic.
    let mut cfg = scrub_cfg(true);
    cfg.scrub.latent_rate_per_disk_hour = 2000.0;
    let t = trace(WorkloadKind::Hplajw, 300);
    let r = run_trace(&cfg, &t, &RunOptions::default());
    let m = &r.metrics;
    assert!(m.latent_detected > 0, "no latent errors detected");
    assert!(m.latent_repaired > 0, "no latent errors repaired");
    assert!(m.latent_repaired <= m.latent_detected);
    assert!(m.io.latent_repair_write >= m.latent_repaired);
}

#[test]
fn tours_never_repair_raid0_region_stripes() {
    // A never-protected (RAID 0) region keeps no parity, so a latent
    // error found there by a tour is detected but unrepairable: a
    // "repair" would reconstruct the sector from stale parity. The
    // shadow verifier (on in small_test) panics on any such repair.
    let mut cfg = scrub_cfg(true);
    cfg.scrub.latent_rate_per_disk_hour = 50.0;
    cfg.regions = RegionMap::new(vec![Region {
        first_stripe: 0,
        stripes: 2500,
        mode: RegionMode::NeverProtect,
    }]);
    assert!(cfg.shadow);
    let t = trace(WorkloadKind::CelloNews, 120);
    let r = run_trace(&cfg, &t, &RunOptions::default());
    let m = &r.metrics;
    assert!(m.latent_detected > 0, "no latent errors detected");
    assert_eq!(m.latent_repaired, 0, "repaired RAID 0 stripes from parity");
    assert_eq!(m.io.latent_repair_write, 0);
}

fn snapshot(r: &RunResult) -> String {
    let metrics = serde_json::to_string(&r.metrics).expect("metrics serialise");
    let loss = serde_json::to_string(&r.loss).expect("loss serialises");
    format!("{metrics}|{loss}|{}", r.end)
}

#[test]
fn scrub_enabled_runs_are_deterministic() {
    // Two identical scrub-and-latent-enabled runs must be
    // byte-identical in everything they measure — including the loss
    // assessment after an injected disk failure.
    let mut cfg = scrub_cfg(true);
    cfg.scrub.latent_rate_per_disk_hour = 500.0;
    let t = trace(WorkloadKind::CelloNews, 90);
    let opts = RunOptions {
        fail_disk: Some((2, SimTime::from_secs(85))),
        continue_degraded: true,
        ..RunOptions::default()
    };
    let a = run_trace(&cfg, &t, &opts);
    let b = run_trace(&cfg, &t, &opts);
    assert_eq!(snapshot(&a), snapshot(&b));
}

#[test]
fn unscrubbed_latent_errors_surface_as_loss_on_disk_failure() {
    // Without scrubbing, latent errors accumulate undetected; a disk
    // failure then finds clean stripes whose reconstruction sources
    // are corrupt, and the loss report must say so.
    let mut cfg = scrub_cfg(false);
    cfg.scrub.latent_rate_per_disk_hour = 5000.0;
    let t = trace(WorkloadKind::Hplajw, 120);
    let opts = RunOptions {
        fail_disk: Some((1, SimTime::from_secs(115))),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg, &t, &opts);
    let loss = r.loss.expect("failure injected");
    assert!(
        loss.latent_lost_units > 0,
        "no latent loss despite a heavy error rate"
    );
    assert_eq!(loss.latent_lost.len(), loss.latent_lost_units as usize);
    assert!(loss.latent_lost_bytes > 0);
    assert!(!loss.is_lossless());
}

#[test]
fn scrubbing_shrinks_latent_loss_exposure() {
    // Same error process, same failure instant: the scrubbed array
    // has repaired (most of) the errors the unscrubbed one still
    // carries, so its latent loss is no worse — and the detection
    // counters prove the tours did the work.
    let t = trace(WorkloadKind::Hplajw, 300);
    let opts = RunOptions {
        fail_disk: Some((3, SimTime::from_secs(295))),
        ..RunOptions::default()
    };
    let mut unscrubbed = scrub_cfg(false);
    unscrubbed.scrub.latent_rate_per_disk_hour = 2000.0;
    let mut scrubbed = scrub_cfg(true);
    scrubbed.scrub.latent_rate_per_disk_hour = 2000.0;
    let r_u = run_trace(&unscrubbed, &t, &opts);
    let r_s = run_trace(&scrubbed, &t, &opts);
    let lu = r_u.loss.expect("failure injected");
    let ls = r_s.loss.expect("failure injected");
    assert!(r_s.metrics.latent_repaired > 0, "scrubber repaired nothing");
    assert!(
        ls.latent_lost_units < lu.latent_lost_units,
        "scrubbed lost {} units, unscrubbed {}",
        ls.latent_lost_units,
        lu.latent_lost_units
    );
}
