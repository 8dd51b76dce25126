//! The shadow content model turns itself on where a run needs it: in
//! a crash run (`run_to_cut(s)`), whose recovery is judged against it,
//! and under active integrity, whose checksums are kept against its
//! words. A config that leaves `shadow` off there runs exactly as one
//! that sets it.
//!
//! The seed honours `AFRAID_SEED` (default 42) so CI can sweep several
//! seeds over the same equalities.

use afraid::config::ArrayConfig;
use afraid::driver::{run_to_cut, run_to_cuts, run_trace, RunOptions};
use afraid::policy::ParityPolicy;
use afraid_chaos::Scenario;
use afraid_sim::rng::SplitMix64;
use afraid_sim::time::SimDuration;
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

/// Capacity of the `small_test` array (2500 stripes x 4 x 8 KB).
const CAP: u64 = 2500 * 4 * 8192;

#[expect(clippy::disallowed_methods, reason = "CI reruns this at several seeds")]
fn seed() -> u64 {
    std::env::var("AFRAID_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Every chaos scenario's spec, with `shadow = false`, cuts to the
/// same crash runs as with `shadow = true`: through one replay
/// (`run_to_cuts`) at seeded cuts, and through fresh replays
/// (`run_to_cut`) at three of them.
#[test]
fn crash_runs_keep_the_shadow_without_the_flag() {
    let mut rng = SplitMix64::new(seed());
    for scenario in Scenario::ALL {
        let spec = scenario.spec(SimDuration::from_secs(1), seed());
        assert!(spec.cfg.shadow, "{scenario:?}");
        let off = ArrayConfig {
            shadow: false,
            ..spec.cfg.clone()
        };
        let trace = spec.trace();
        let total = spec.total_events(&trace);
        let mut cuts: Vec<u64> = (0..8).map(|_| rng.next_below(total + 1)).collect();
        cuts.sort_unstable();

        let mut on = Vec::new();
        run_to_cuts(&spec.cfg, &trace, &spec.opts, &cuts, |run| {
            on.push(format!("{run:?}"));
        });
        let mut seen = 0;
        run_to_cuts(&off, &trace, &spec.opts, &cuts, |run| {
            assert_eq!(
                format!("{run:?}"),
                on[seen],
                "{scenario:?} cut {}",
                cuts[seen]
            );
            seen += 1;
        });
        assert_eq!(seen, cuts.len(), "{scenario:?}");
        for i in [0, cuts.len() / 2, cuts.len() - 1] {
            let fresh = run_to_cut(&off, &trace, &spec.opts, cuts[i]);
            assert_eq!(format!("{fresh:?}"), on[i], "{scenario:?} cut {}", cuts[i]);
        }
    }
}

/// A run that injects all four silent-fault classes and verifies reads
/// and scrubs needs no `shadow = true`: it is valid without it and
/// serializes byte-identically to the run that sets it.
#[test]
fn active_integrity_brings_the_shadow_without_the_flag() {
    let mut on = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    let i = &mut on.integrity;
    i.bit_flip_per_read = 1e-3;
    i.torn_write_per_io = 1e-3;
    i.lost_write_per_io = 1e-3;
    i.misdirected_write_per_io = 1e-3;
    i.verify_reads = true;
    i.verify_scrub = true;
    let off = ArrayConfig {
        shadow: false,
        ..on.clone()
    };
    assert!(off.validate().is_ok());

    let trace =
        WorkloadSpec::preset(WorkloadKind::Att).generate(CAP, SimDuration::from_secs(60), seed());
    let with = run_trace(&on, &trace, &RunOptions::default());
    let without = run_trace(&off, &trace, &RunOptions::default());
    assert!(
        with.metrics.integrity.injected_total() > 0 && with.metrics.integrity.detected > 0,
        "no corruption injected and detected: {:?}",
        with.metrics.integrity
    );
    assert_eq!(
        serde_json::to_string(&with).expect("result serializes"),
        serde_json::to_string(&without).expect("result serializes")
    );
}
