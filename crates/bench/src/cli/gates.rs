//! The two sweep gates: `afraid-cli chaos` (crash recovery) and
//! `afraid-cli integrity` (silent corruption). Each prints one summary
//! table, or with `--json` the deterministic rows alone, and reports a
//! failed gate through its return value, which the front door turns
//! into exit status 1.

use std::io::{self, Write};
use std::time::Instant;

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions};
use afraid::integrity::IntegrityCounters;
use afraid::policy::ParityPolicy;
use afraid_chaos::{cut_points, summarize, sweep, Scenario};
use afraid_exp::map_parallel;
use afraid_sim::time::SimDuration;
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};
use serde::Serialize;

use super::{json, Common};
use crate::harness::header;

/// `chaos`: for each scenario, crash the array at `cuts_n` evenly
/// spread event boundaries (replay to the cut, power off, recover from
/// NVRAM + survivors, byte-check against the shadow model). `--jobs`
/// splits each sweep's cuts over workers with bit-identical output.
/// Returns whether every cut passed.
pub(super) fn chaos(
    c: &Common,
    cuts_n: usize,
    scenarios: &[Scenario],
    out: &mut dyn Write,
) -> io::Result<bool> {
    let duration = SimDuration::from_secs(c.secs);
    let head = "scenario   events   cuts failed scrubbed  spurious  reconst  declared true-lost crpt-rep crpt-dec   wall s";
    if !c.json {
        writeln!(
            out,
            "Chaos sweep: {} scenario(s), {cuts_n} cuts each, {}s traces, seed {}, jobs {}",
            scenarios.len(),
            c.secs,
            c.seed,
            c.jobs,
        )?;
        writeln!(out)?;
        header(out, head)?;
    }

    let t0 = Instant::now();
    let mut summaries = Vec::new();
    for sc in scenarios {
        let spec = sc.spec(duration, c.seed);
        let trace = spec.trace();
        let total = spec.total_events(&trace);
        let cuts = cut_points(total, cuts_n);
        let t1 = Instant::now();
        let verdicts = sweep(&spec, &trace, &cuts, c.jobs);
        let s = summarize(sc.name(), &verdicts);
        if !c.json {
            writeln!(
                out,
                "{:<9} {:>7} {:>6} {:>6} {:>8} {:>9} {:>8} {:>9} {:>9} {:>8} {:>8} {:>8.2}",
                s.scenario,
                total,
                s.cuts,
                s.failed,
                s.scrubbed,
                s.spurious_marks,
                s.reconstructed,
                s.declared_lost_units,
                s.truly_lost_units,
                s.corrupt_repaired,
                s.corrupt_declared,
                t1.elapsed().as_secs_f64(),
            )?;
            if s.failed > 0 {
                let first = s.first_failure.as_deref().unwrap_or("?");
                writeln!(out, "  FIRST FAILURE: {first}")?;
            }
        }
        summaries.push(s);
    }
    let all_passed = summaries.iter().all(|s| s.failed == 0);
    if c.json {
        json(out, &summaries)?;
    } else {
        writeln!(out)?;
        writeln!(
            out,
            "{} cut verdicts in {:.2}s; all passed: {all_passed}",
            summaries.iter().map(|s| s.cuts).sum::<u64>(),
            t0.elapsed().as_secs_f64(),
        )?;
    }
    Ok(all_passed)
}

/// One (policy, mode) cell of the integrity sweep.
#[derive(Serialize)]
struct Row {
    policy: String,
    mode: String,
    integrity: IntegrityCounters,
    injected_total: u64,
    resolved_total: u64,
    mean_io_ms: f64,
    repair_ios: u64,
}

/// `integrity`: for each (policy × verification mode) cell, replay the
/// same write-heavy Att trace against disks that lie — torn, lost, and
/// misdirected writes plus read bit-flips — and report the fate of
/// every injected fault: detected, repaired byte-exactly, declared
/// unrepairable, erased by overwrite, or silently served to a client.
/// The `off` mode is the clean control: it must find nothing and trip
/// nothing. Returns whether the gate held: no silent read outside the
/// `blind` cells and no false positive anywhere.
pub(super) fn integrity(c: &Common, out: &mut dyn Write) -> io::Result<bool> {
    let duration = SimDuration::from_secs(c.secs);
    // Shadow + integrity bookkeeping scale with stripes: use the small
    // test array so the sweep stays interactive.
    let capacity = {
        let probe = ArrayConfig::small_test(ParityPolicy::IdleOnly);
        2500 * u64::from(probe.n_data()) * probe.stripe_unit_bytes
    };
    let trace = WorkloadSpec::preset(WorkloadKind::Att).generate(capacity, duration, c.seed);

    let mut cells: Vec<(&str, &str, ArrayConfig)> = Vec::new();
    for (pname, policy) in [
        ("afraid", ParityPolicy::IdleOnly),
        ("raid5", ParityPolicy::AlwaysRaid5),
    ] {
        for mode in ["off", "blind", "verify"] {
            let mut cfg = ArrayConfig::small_test(policy);
            cfg.scrub.enabled = true;
            let i = &mut cfg.integrity;
            // `off` is the clean control: verification on, nothing to
            // find. The others inject at rates high enough that every
            // disposition shows up in every cell.
            if mode != "off" {
                i.bit_flip_per_read = 5e-3;
                i.torn_write_per_io = 3e-2;
                i.lost_write_per_io = 3e-2;
                i.misdirected_write_per_io = 2e-2;
            }
            i.verify_reads = mode != "blind";
            i.verify_scrub = mode != "blind";
            cells.push((pname, mode, cfg));
        }
    }

    let head =
        "policy  mode    injected detected repaired declared  healed  silent falsepos    io ms";
    if !c.json {
        writeln!(
            out,
            "Integrity sweep: {} cells, {}s Att trace, seed {}, jobs {}",
            cells.len(),
            c.secs,
            c.seed,
            c.jobs,
        )?;
        writeln!(out)?;
        header(out, head)?;
    }

    let t0 = Instant::now();
    let results = map_parallel(c.jobs, &cells, |_, (_, _, cfg)| {
        run_trace(cfg, &trace, &RunOptions::default())
    });

    let mut rows = Vec::new();
    let mut held = true;
    for ((pname, mode, _), result) in cells.iter().zip(results) {
        let i = result.metrics.integrity;
        if *mode != "blind" && i.silent_reads > 0 {
            eprintln!(
                "FAIL {pname}/{mode}: {} silent reads under verification",
                i.silent_reads
            );
            held = false;
        }
        if i.false_positives > 0 {
            eprintln!(
                "FAIL {pname}/{mode}: {} checksum false positives",
                i.false_positives
            );
            held = false;
        }
        if !c.json {
            writeln!(
                out,
                "{:<7} {:<7} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7} {:>8} {:>8.2}",
                pname,
                mode,
                i.injected_total(),
                i.detected,
                i.repaired,
                i.declared,
                i.self_healed,
                i.silent_reads,
                i.false_positives,
                result.metrics.mean_io_ms,
            )?;
        }
        rows.push(Row {
            policy: pname.to_string(),
            mode: mode.to_string(),
            integrity: i,
            injected_total: i.injected_total(),
            resolved_total: i.resolved_total(),
            mean_io_ms: result.metrics.mean_io_ms,
            repair_ios: result.metrics.io.corrupt_repair_write,
        });
    }
    if c.json {
        json(out, &rows)?;
    } else {
        writeln!(out)?;
        let wall = t0.elapsed().as_secs_f64();
        writeln!(out, "{} cells in {wall:.2}s", rows.len())?;
    }
    Ok(held)
}
