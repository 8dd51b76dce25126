//! Ablations beyond the paper's tables: how AFRAID's design choices
//! and §5 refinements move the numbers.
//!
//! Seven studies, the simulated ones on a representative pair of
//! workloads (bursty snake, busy att):
//!
//! 1. **Idle-detector delay** — 10 ms / 100 ms (paper) / 1 s: how
//!    quickly scrubbing starts vs how often it collides with the next
//!    burst.
//! 2. **Scrub batch size** — 1 / 8 (paper-style coalescing) / 32
//!    stripes per batch: coalescing efficiency vs preemption
//!    granularity.
//! 3. **Marking granularity** (§5) — 1 / 4 / 16 bits per stripe: finer
//!    marks shrink both scrub I/O and the loss bound.
//! 4. **Parity logging comparator** \[Stodolsky93\] — same traces through
//!    the same controller as a parity-logging array, next to AFRAID and
//!    RAID 5: full redundancy, but the old-data pre-read stays in the
//!    critical path.
//! 5. **Host scheduler** — CLOOK (paper) vs FCFS vs SSTF at the host
//!    queue.
//! 6. **Disk generation** — the same workload on 1993-, 1995- and
//!    1997-class spindles: AFRAID's win shrinks as disks get faster
//!    only if the workload stays fixed.
//! 7. **RAID 6 + AFRAID** (paper §5) — critical-path I/Os and MTTDL
//!    for full dual parity, deferred Q, and deferred P+Q.
//!
//! Every simulated study fans its variant cells over the setup's
//! workers; the two traces are generated once and shared by all cells.

use std::io::{self, Write};
use std::sync::Arc;

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions, RunResult};
use afraid::nvram::MarkGranularity;
use afraid::policy::ParityPolicy;
use afraid::raid6;
use afraid_avail::params::ModelParams;
use afraid_disk::model::DiskModel;
use afraid_disk::sched::Policy;
use afraid_exp::map_parallel;
use afraid_sim::time::SimDuration;
use afraid_trace::record::Trace;
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

use crate::harness::{self, bytes, header, hours, Setup, TRACE_CAPACITY};

/// The two workloads every simulated study runs.
const KINDS: [WorkloadKind; 2] = [WorkloadKind::Snake, WorkloadKind::Att];

/// Runs every (workload, variant) cell of a study that tweaks the
/// paper's AFRAID configuration, in workload-major order.
fn study<V: Copy + Sync>(
    setup: &Setup,
    traces: &[Arc<Trace>],
    variants: &[V],
    tweak: impl Fn(&mut ArrayConfig, V) + Sync,
) -> Vec<(WorkloadKind, V, RunResult)> {
    let cells: Vec<(usize, V)> = (0..KINDS.len())
        .flat_map(|ki| variants.iter().map(move |&v| (ki, v)))
        .collect();
    let cfg = |v: V| {
        let mut cfg = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
        tweak(&mut cfg, v);
        cfg
    };
    let results = map_parallel(setup.jobs, &cells, |_, &(ki, v)| {
        run_trace(&cfg(v), &traces[ki], &RunOptions::default())
    });
    cells
        .into_iter()
        .zip(results)
        .map(|((ki, v), r)| (KINDS[ki], v, r))
        .collect()
}

/// Writes a study's title, column header and rule.
fn heading(out: &mut dyn Write, title: &str, head: &str) -> io::Result<()> {
    writeln!(out, "\n{title}")?;
    header(out, head)
}

/// Prints all seven studies.
pub(super) fn render(setup: &Setup, out: &mut dyn Write) -> io::Result<()> {
    let (duration, seed) = (setup.duration, setup.seed);
    let secs = duration.as_secs_f64();
    let traces = afraid_exp::generate_traces(setup.jobs, &KINDS, TRACE_CAPACITY, duration, seed);
    writeln!(out, "Ablations; {secs}s traces, seed {seed}")?;

    heading(
        out,
        "1. Idle-detector delay (baseline AFRAID)",
        "workload       delay   mean io ms     mean lag   unprot%",
    )?;
    let delays = study(setup, &traces, &[10u64, 100, 1000], |cfg, ms| {
        cfg.idle_delay = SimDuration::from_millis(ms);
    });
    for (kind, delay_ms, r) in delays {
        let m = &r.metrics;
        writeln!(
            out,
            "{:<9} {:>8}ms {:>12.2} {:>12} {:>8.1}%",
            kind.name(),
            delay_ms,
            m.mean_io_ms,
            bytes(m.mean_parity_lag_bytes),
            m.frac_unprotected * 100.0
        )?;
    }

    heading(
        out,
        "2. Scrub batch size (coalescing of adjacent dirty stripes)",
        "workload    batch   mean io ms  scrub reads  stripes/read   unprot%",
    )?;
    let batches = study(setup, &traces, &[1u64, 8, 32], |cfg, batch| {
        cfg.scrub_batch = batch;
    });
    for (kind, batch, r) in batches {
        let m = &r.metrics;
        // 4 data units per stripe
        let per = m.stripes_scrubbed as f64 / m.io.scrub_read.max(1) as f64 * 4.0;
        writeln!(
            out,
            "{:<9} {:>7} {:>12.2} {:>12} {:>13.2} {:>8.1}%",
            kind.name(),
            batch,
            m.mean_io_ms,
            m.io.scrub_read,
            per,
            m.frac_unprotected * 100.0
        )?;
    }

    heading(
        out,
        "3. Marking granularity (bits per stripe, paper s5)",
        "workload    bits   mean io ms     mean lag  scrub reads  nvram cost",
    )?;
    let marks = study(setup, &traces, &[1u32, 4, 16], |cfg, bits| {
        cfg.mark_granularity = MarkGranularity::rows(bits);
    });
    // Marking memory size is a pure function of the config, so it is
    // derived at print time.
    let cfg = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
    let stripes = cfg.disk_model.geometry.capacity_sectors() / 16;
    for (kind, bits, r) in marks {
        let m = &r.metrics;
        writeln!(
            out,
            "{:<9} {:>6} {:>12.2} {:>12} {:>12} {:>11}",
            kind.name(),
            bits,
            m.mean_io_ms,
            bytes(m.mean_parity_lag_bytes),
            m.io.scrub_read,
            bytes((stripes * u64::from(bits)) as f64 / 8.0),
        )?;
    }

    heading(
        out,
        "4. Parity-logging comparator [Stodolsky93]",
        "workload  paritylog ms  afraid ms   raid5 ms  replay batches  log+parity writes",
    )?;
    let designs = [
        ParityPolicy::ParityLogging,
        ParityPolicy::IdleOnly,
        ParityPolicy::AlwaysRaid5,
    ];
    let results = study(setup, &traces, &designs, |cfg, policy| {
        cfg.policy = policy;
    });
    for row in results.chunks(designs.len()) {
        let [(kind, _, pl), (_, _, af), (_, _, r5)] = row else {
            unreachable!("one row per workload")
        };
        writeln!(
            out,
            "{:<9} {:>13.2} {:>10.2} {:>10.2} {:>15} {:>18}",
            kind.name(),
            pl.metrics.mean_io_ms,
            af.metrics.mean_io_ms,
            r5.metrics.mean_io_ms,
            pl.metrics.scrub_batches,
            pl.metrics.io.scrub_write
        )?;
    }
    write!(
        out,
        "
Parity logging keeps the old-data pre-read that AFRAID drops, and adds
log flushes, log reads and replayed parity as background work. It beats
RAID 5 on bursty snake; on busy att that work queues with client I/O.
"
    )?;

    heading(
        out,
        "5. Host scheduler (baseline AFRAID)",
        "workload    sched   mean io ms     p95 ms",
    )?;
    let scheds = [
        ("fcfs", Policy::Fcfs),
        ("clook", Policy::Clook),
        ("sstf", Policy::Sstf),
    ];
    let results = study(setup, &traces, &scheds, |cfg, (_, policy)| {
        cfg.host_policy = policy;
    });
    for (kind, (name, _), r) in results {
        let (mean, p95) = (r.metrics.mean_io_ms, r.metrics.p95_io_ms);
        writeln!(out, "{:<9} {name:>7} {mean:>12.2} {p95:>10.2}", kind.name())?;
    }

    heading(
        out,
        "6. Disk generation (att workload, all three designs)",
        "disk               raid0 ms  afraid ms   raid5 ms   speedup",
    )?;
    let models = [
        DiskModel::hp_c2247(),
        DiskModel::hp_c3325(),
        DiskModel::barracuda_7200(),
    ];
    // Regenerate the trace against each array's capacity (older disks
    // are smaller), then fan all (model, design) cells out together.
    let model_traces = map_parallel(setup.jobs, &models, |_, model| {
        let unit_sectors = 8192 / 512;
        let stripes = model.geometry.capacity_sectors() / unit_sectors;
        let capacity = (stripes * 4 * 8192).min(TRACE_CAPACITY);
        WorkloadSpec::preset(WorkloadKind::Att).generate(capacity, duration, seed)
    });
    let designs = harness::headline_designs();
    let cells: Vec<(usize, usize)> = (0..models.len())
        .flat_map(|mi| (0..designs.len()).map(move |di| (mi, di)))
        .collect();
    let means = map_parallel(setup.jobs, &cells, |_, &(mi, di)| {
        let mut cfg = ArrayConfig::paper_default(designs[di].1);
        cfg.disk_model = models[mi].clone();
        let r = run_trace(&cfg, &model_traces[mi], &RunOptions::default());
        r.metrics.mean_io_ms
    });
    for (model, row) in models.iter().zip(means.chunks(designs.len())) {
        let (raid0, afraid, raid5) = (row[0], row[1], row[2]);
        let speedup = raid5 / afraid;
        writeln!(
            out,
            "{:<16} {raid0:>10.2} {afraid:>10.2} {raid5:>10.2} {speedup:>8.2}x",
            model.name
        )?;
    }

    heading(
        out,
        "7. RAID 6 + AFRAID (paper s5): 6-disk array, small-write cost and MTTDL",
        "design        fg write I/Os   MTTDL @ 5% lag  MTTDL @ 50% lag",
    )?;
    let p = ModelParams::default();
    let n = 4; // data disks in a 6-wide RAID 6
    for (name, mode) in [
        ("raid6", raid6::Raid6Mode::Full),
        ("defer-q", raid6::Raid6Mode::DeferQ),
        ("defer-both", raid6::Raid6Mode::DeferBoth),
    ] {
        let mttdl = |frac: f64| match mode {
            raid6::Raid6Mode::Full => raid6::mttdl_raid6_catastrophic(&p, n),
            raid6::Raid6Mode::DeferQ => raid6::mttdl_defer_both(&p, n, frac, 0.0),
            raid6::Raid6Mode::DeferBoth => raid6::mttdl_defer_both(&p, n, frac, frac),
        };
        let ios = raid6::small_write_ios(mode);
        let (at5, at50) = (hours(mttdl(0.05)), hours(mttdl(0.50)));
        writeln!(out, "{name:<12} {ios:>14} {at5:>16} {at50:>16}")?;
    }
    write!(
        out,
        "
Deferring only Q keeps single-failure tolerance at all times: the s5
'partial redundancy immediately, full redundancy after the rebuild'.
"
    )
}
