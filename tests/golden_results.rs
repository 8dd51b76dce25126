//! The serialized results of a few short runs are pinned byte for byte
//! to `tests/golden/results/<cell>.json`. Between them the cells drive
//! every path of the event queue: multi-I/O bursts, idle-timer cancel
//! and re-arm, a pre-scheduled parity-point timeline, tour ticks under
//! transient faults, and the tour-tick cancel on entering degraded
//! mode. Three more pin an NVRAM failure's rescan, silent corruption
//! alone, and silent with transient faults up to an eviction; an NVRAM
//! failure under RAID 5 drives the reconstruct-write of marked
//! stripes, and a degraded run over a never-protected region under
//! corruption drives the dead-disk pass. Four cells pin the loss
//! report itself: a fail-stop latent loss, a disk lost during the
//! NVRAM sweep with and without the shadow model, and a fail-stop
//! loss under corruption. One chaos cut verdict adds crash recovery.
//! A deliberate result
//! change bumps its schema tag (`tests/golden_schema.rs`) and copies
//! the live output, which a failing cell writes under the target
//! directory, over the golden file.

use std::path::Path;

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions};
use afraid::policy::ParityPolicy;
use afraid::regions::{Region, RegionMap, RegionMode};
use afraid_bench::cli;
use afraid_chaos::scenario::Scenario;
use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

#[expect(
    clippy::disallowed_methods,
    reason = "reads the golden file and writes the live output beside the build"
)]
fn assert_golden(cell: &str, live: &str) {
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/results/{cell}.json"));
    if std::fs::read_to_string(&golden).unwrap_or_default() != live {
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{cell}.json"));
        std::fs::write(&dump, live).unwrap();
        panic!(
            "{cell}: differs from {}, live output in {}",
            golden.display(),
            dump.display()
        );
    }
}

fn pretty(value: &impl serde::Serialize) -> String {
    serde_json::to_string_pretty(value).unwrap() + "\n"
}

/// `(cell, afraid-cli run flags)`.
const CLI_CELLS: [(&str, &str); 12] = [
    // Multi-I/O bursts: RAID 5 read-modify-writes.
    ("raid5-bursts", "--workload cello-news --policy raid5 --secs 60"),
    // Idle-timer cancel and re-arm under AFRAID.
    ("afraid-idle", "--workload snake --secs 60"),
    // Tour ticks under transient faults.
    ("tour-transient", "--workload netware --secs 20 --scrub 50 --latent 0.01 --tour 1800 --transient 1e-3:1e-4"),
    // Entering degraded mode cancels a pending tour tick.
    ("degraded-spare", "--workload cello-usr --secs 20 --scrub 50 --latent 0.01 --tour 1800 --transient 1e-3:1e-4 --fail-disk 2@10 --degraded --spare 5"),
    // An NVRAM failure: the whole-array parity rescan and the instant
    // the array is reprotected.
    ("nvram-rescan", "--workload att --secs 30 --fail-nvram 10"),
    // After an NVRAM failure every stripe is marked, so every RAID 5
    // write is a reconstruct-write of a stale stripe.
    ("nvram-raid5", "--workload att --secs 30 --fail-nvram 10 --policy raid5"),
    // Silent corruption without transient faults.
    ("corrupt-only", "--workload cello-news --secs 30 --corrupt 1e-2 --verify-reads"),
    // Silent and transient faults on the same disks, and one eviction.
    ("corrupt-transient-evict", "--workload netware --secs 30 --corrupt 1e-3 --verify-reads --transient 1e-3:1e-4 --evict-threshold 0.5"),
    // A fail-stop loss report with a latent sector error on a clean
    // stripe.
    ("failstop-latent", "--secs 30 --latent 50 --fail-disk 2@20"),
    // A disk lost while the NVRAM sweep runs, without the shadow model:
    // every suspect data unit on the dead disk is counted lost.
    ("nvram-disk", "--workload att --secs 30 --fail-nvram 10 --fail-disk 2@12 --degraded --spare 5"),
    // The same loss with the shadow model on: suspects whose XOR holds
    // are resolved as intact, and a rotten one as corruption-lost.
    ("nvram-disk-shadow", "--workload att --secs 30 --fail-nvram 10 --fail-disk 2@12 --corrupt 1e-2"),
    // A fail-stop loss report under corruption with verification.
    ("failstop-corrupt", "--workload att --secs 30 --corrupt 1e-2 --verify-reads --fail-disk 1@20"),
];

#[test]
fn cli_runs_serialize_as_recorded() {
    for (cell, flags) in CLI_CELLS {
        let line = format!("run --json {flags}");
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        assert_eq!(cli::main(&argv, &mut out), 0, "{line}");
        assert_golden(cell, &String::from_utf8(out).unwrap());
    }
}

/// A commit-barrier timeline of 200 parity points, scheduled before
/// the first arrival as in `examples/region_tuning.rs`: a point every
/// 100 ms, each over a different 1 MB range.
#[test]
fn parity_point_timeline() {
    let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    let trace = WorkloadSpec::preset(WorkloadKind::Att).generate(
        2500 * 4 * 8192,
        SimDuration::from_secs(20),
        42,
    );
    let mb = 1 << 20;
    let points = (0..200u64).map(|i| (SimTime::from_millis(i * 100), (i * 7 % 70) * mb, mb));
    let opts = RunOptions {
        parity_points: points.collect(),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg, &trace, &opts);
    assert_eq!(r.metrics.parity_points, 200);
    assert_golden("parity-points", &pretty(&r));
}

/// A disk failure over a never-protected region plus default stripes,
/// under silent corruption with verification and tours: entering
/// degraded mode scars the dead disk's units on dirty and on
/// never-protected stripes, and sends clean stripes carrying rot
/// through the checksum.
#[test]
fn degraded_region_under_corruption() {
    let mut cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    cfg.regions = RegionMap::new(vec![Region {
        first_stripe: 0,
        stripes: 500,
        mode: RegionMode::NeverProtect,
    }]);
    let i = &mut cfg.integrity;
    (i.bit_flip_per_read, i.torn_write_per_io) = (1e-2, 1e-2);
    (i.lost_write_per_io, i.misdirected_write_per_io) = (1e-2, 1e-2);
    (i.verify_reads, i.verify_scrub) = (true, true);
    cfg.scrub.enabled = true;
    let trace = WorkloadSpec::preset(WorkloadKind::Att).generate(
        2500 * 4 * 8192,
        SimDuration::from_secs(20),
        42,
    );
    let opts = RunOptions {
        fail_disk: Some((2, SimTime::from_secs(7))),
        continue_degraded: true,
        spare_delay: Some(SimDuration::from_secs(3)),
        ..RunOptions::default()
    };
    let r = run_trace(&cfg, &trace, &opts);
    let loss = r.loss.as_ref().expect("a disk failure was injected");
    assert!(loss.lost_units > 0, "{loss:?}");
    assert!(loss.declared_unprotected_units > 0, "{loss:?}");
    assert!(loss.corrupt_lost_units > 0, "{loss:?}");
    assert_golden("degraded-regions", &pretty(&r));
}

#[test]
fn chaos_rebuild_cut_verdict() {
    let spec = Scenario::Rebuild.spec(SimDuration::from_secs(4), 42);
    let trace = spec.trace();
    let v = spec.run_cut(&trace, spec.total_events(&trace) * 3 / 4);
    assert!(v.pass, "{v:?}");
    assert_golden("chaos-rebuild-cut", &pretty(&v));
}
