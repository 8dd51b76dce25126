//! Ablations beyond the paper's tables: how AFRAID's design choices
//! and §5 refinements move the numbers.
//!
//! Four studies, each on a representative pair of workloads (bursty
//! snake, busy att):
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
//!    the parity-logging model: full redundancy, but the old-data
//!    pre-read stays in the critical path.
//! 5. **Host scheduler** — CLOOK (paper) vs FCFS vs SSTF at the host
//!    queue.
//! 6. **Disk generation** — the same workload on 1993-, 1995- and
//!    1997-class spindles: AFRAID's win shrinks as disks get faster
//!    only if the workload stays fixed.
//! 7. **RAID 6 + AFRAID** (paper §5) — critical-path I/Os and MTTDL
//!    for full dual parity, deferred Q, and deferred P+Q.
//!
//! Every simulated study fans its variant cells across `--jobs N`
//! workers; the two traces are generated once and shared by all cells.

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions};
use afraid::nvram::MarkGranularity;
use afraid::paritylog::{run_parity_logging, ParityLogConfig};
use afraid::policy::ParityPolicy;
use afraid::raid6;
use afraid_avail::params::ModelParams;
use afraid_bench::harness::{self, bytes, hours, rule};
use afraid_disk::model::DiskModel;
use afraid_disk::sched::Policy;
use afraid_sim::time::SimDuration;
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

fn main() {
    let args = harness::bench_args();
    let duration = args.duration;
    let kinds = [WorkloadKind::Snake, WorkloadKind::Att];
    let traces = harness::traces_for(&kinds, duration, args.jobs);
    let cache = harness::cell_cache(&args);
    let seed = harness::seed();
    println!(
        "Ablations; {}s traces, seed {}",
        duration.as_secs_f64(),
        seed
    );

    println!();
    println!("1. Idle-detector delay (baseline AFRAID)");
    let header = format!(
        "{:<9} {:>10} {:>12} {:>12} {:>9}",
        "workload", "delay", "mean io ms", "mean lag", "unprot%"
    );
    println!("{header}");
    rule(header.len());
    let mut cells = Vec::new();
    for ki in 0..kinds.len() {
        for delay_ms in [10u64, 100, 1000] {
            cells.push((ki, delay_ms));
        }
    }
    let delay_cfg = |delay_ms: u64| {
        let mut cfg = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
        cfg.idle_delay = SimDuration::from_millis(delay_ms);
        cfg
    };
    let results = harness::run_variants_cached(
        args.jobs,
        &cells,
        cache.as_ref(),
        |c, &(ki, delay_ms)| {
            let cfg = delay_cfg(delay_ms);
            harness::cell_key(
                c,
                &cfg,
                kinds[ki].name(),
                harness::TRACE_CAPACITY,
                duration,
                seed,
            )
        },
        |&(ki, delay_ms)| run_trace(&delay_cfg(delay_ms), &traces[ki], &RunOptions::default()),
    );
    for (&(ki, delay_ms), r) in cells.iter().zip(&results) {
        println!(
            "{:<9} {:>8}ms {:>12.2} {:>12} {:>8.1}%",
            kinds[ki].name(),
            delay_ms,
            r.metrics.mean_io_ms,
            bytes(r.metrics.mean_parity_lag_bytes),
            r.metrics.frac_unprotected * 100.0
        );
    }

    println!();
    println!("2. Scrub batch size (coalescing of adjacent dirty stripes)");
    let header = format!(
        "{:<9} {:>7} {:>12} {:>12} {:>13} {:>9}",
        "workload", "batch", "mean io ms", "scrub reads", "stripes/read", "unprot%"
    );
    println!("{header}");
    rule(header.len());
    let mut cells = Vec::new();
    for ki in 0..kinds.len() {
        for batch in [1u64, 8, 32] {
            cells.push((ki, batch));
        }
    }
    let batch_cfg = |batch: u64| {
        let mut cfg = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
        cfg.scrub_batch = batch;
        cfg
    };
    let results = harness::run_variants_cached(
        args.jobs,
        &cells,
        cache.as_ref(),
        |c, &(ki, batch)| {
            harness::cell_key(
                c,
                &batch_cfg(batch),
                kinds[ki].name(),
                harness::TRACE_CAPACITY,
                duration,
                seed,
            )
        },
        |&(ki, batch)| run_trace(&batch_cfg(batch), &traces[ki], &RunOptions::default()),
    );
    for (&(ki, batch), r) in cells.iter().zip(&results) {
        let per = r.metrics.stripes_scrubbed as f64 / r.metrics.io.scrub_read.max(1) as f64 * 4.0; // 4 data units per stripe
        println!(
            "{:<9} {:>7} {:>12.2} {:>12} {:>13.2} {:>8.1}%",
            kinds[ki].name(),
            batch,
            r.metrics.mean_io_ms,
            r.metrics.io.scrub_read,
            per,
            r.metrics.frac_unprotected * 100.0
        );
    }

    println!();
    println!("3. Marking granularity (bits per stripe, paper s5)");
    let header = format!(
        "{:<9} {:>6} {:>12} {:>12} {:>12} {:>11}",
        "workload", "bits", "mean io ms", "mean lag", "scrub reads", "nvram cost"
    );
    println!("{header}");
    rule(header.len());
    let mut cells = Vec::new();
    for ki in 0..kinds.len() {
        for bits in [1u32, 4, 16] {
            cells.push((ki, bits));
        }
    }
    let marks_cfg = |bits: u32| {
        let mut cfg = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
        cfg.mark_granularity = MarkGranularity::rows(bits);
        cfg
    };
    // Marking memory size is a pure function of the config, so it is
    // derived at print time rather than carried through the cache.
    let stripes = marks_cfg(1).disk_model.geometry.capacity_sectors() / 16;
    let results = harness::run_variants_cached(
        args.jobs,
        &cells,
        cache.as_ref(),
        |c, &(ki, bits)| {
            harness::cell_key(
                c,
                &marks_cfg(bits),
                kinds[ki].name(),
                harness::TRACE_CAPACITY,
                duration,
                seed,
            )
        },
        |&(ki, bits)| run_trace(&marks_cfg(bits), &traces[ki], &RunOptions::default()),
    );
    for (&(ki, bits), r) in cells.iter().zip(&results) {
        println!(
            "{:<9} {:>6} {:>12.2} {:>12} {:>12} {:>11}",
            kinds[ki].name(),
            bits,
            r.metrics.mean_io_ms,
            bytes(r.metrics.mean_parity_lag_bytes),
            r.metrics.io.scrub_read,
            bytes((stripes * u64::from(bits)) as f64 / 8.0),
        );
    }

    println!();
    println!("4. Parity-logging comparator [Stodolsky93]");
    let header = format!(
        "{:<9} {:>14} {:>14} {:>9} {:>9}",
        "workload", "paritylog ms", "afraid ms", "flushes", "replays"
    );
    println!("{header}");
    rule(header.len());
    let cells: Vec<usize> = (0..kinds.len()).collect();
    let results = harness::run_variants_cached(
        args.jobs,
        &cells,
        cache.as_ref(),
        |c, &ki| {
            // Salted: the payload is a (parity-log, AFRAID) pair, not a
            // plain RunResult, and the log knobs are extra coordinates.
            let cfg = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
            c.key_builder()
                .str("ablation4-paritylog-pair")
                .str(&format!("{:?}", ParityLogConfig::default()))
                .u64(seed)
                .str(kinds[ki].name())
                .u64(harness::TRACE_CAPACITY)
                .f64(duration.as_secs_f64())
                .str(&cfg.cache_encoding())
                .finish()
        },
        |&ki| {
            let cfg = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
            let pl = run_parity_logging(&cfg, &ParityLogConfig::default(), &traces[ki])
                .expect("the paper's array config is valid");
            let af = run_trace(&cfg, &traces[ki], &RunOptions::default());
            (pl, af)
        },
    );
    for (&ki, (pl, af)) in cells.iter().zip(&results) {
        println!(
            "{:<9} {:>14.2} {:>14.2} {:>9} {:>9}",
            kinds[ki].name(),
            pl.mean_io_ms,
            af.metrics.mean_io_ms,
            pl.log_flushes,
            pl.replays
        );
    }
    println!();
    println!("Expected: parity logging beats RAID 5 but keeps the pre-read cost AFRAID drops.");

    println!();
    println!("5. Host scheduler (baseline AFRAID)");
    let header = format!(
        "{:<9} {:>7} {:>12} {:>10}",
        "workload", "sched", "mean io ms", "p95 ms"
    );
    println!("{header}");
    rule(header.len());
    let scheds = [
        ("fcfs", Policy::Fcfs),
        ("clook", Policy::Clook),
        ("sstf", Policy::Sstf),
    ];
    let mut cells = Vec::new();
    for ki in 0..kinds.len() {
        for si in 0..scheds.len() {
            cells.push((ki, si));
        }
    }
    let sched_cfg = |si: usize| {
        let mut cfg = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
        cfg.host_policy = scheds[si].1;
        cfg
    };
    let results = harness::run_variants_cached(
        args.jobs,
        &cells,
        cache.as_ref(),
        |c, &(ki, si)| {
            harness::cell_key(
                c,
                &sched_cfg(si),
                kinds[ki].name(),
                harness::TRACE_CAPACITY,
                duration,
                seed,
            )
        },
        |&(ki, si)| run_trace(&sched_cfg(si), &traces[ki], &RunOptions::default()),
    );
    for (&(ki, si), r) in cells.iter().zip(&results) {
        println!(
            "{:<9} {:>7} {:>12.2} {:>10.2}",
            kinds[ki].name(),
            scheds[si].0,
            r.metrics.mean_io_ms,
            r.metrics.p95_io_ms
        );
    }

    println!();
    println!("6. Disk generation (att workload, all three designs)");
    let header = format!(
        "{:<16} {:>10} {:>10} {:>10} {:>9}",
        "disk", "raid0 ms", "afraid ms", "raid5 ms", "speedup"
    );
    println!("{header}");
    rule(header.len());
    let models = [
        DiskModel::hp_c2247(),
        DiskModel::hp_c3325(),
        DiskModel::barracuda_7200(),
    ];
    // Regenerate the trace against each array's capacity (older disks
    // are smaller), then fan all (model, design) cells out together.
    let model_traces = harness::run_variants(args.jobs, &models, |model| {
        let unit_sectors = 8192 / 512;
        let stripes = model.geometry.capacity_sectors() / unit_sectors;
        let capacity = stripes * 4 * 8192;
        WorkloadSpec::preset(WorkloadKind::Att).generate(
            capacity.min(harness::TRACE_CAPACITY),
            duration,
            harness::seed(),
        )
    });
    let designs = harness::headline_designs();
    let mut cells = Vec::new();
    for mi in 0..models.len() {
        for di in 0..designs.len() {
            cells.push((mi, di));
        }
    }
    let model_cfg = |mi: usize, di: usize| {
        let mut cfg = ArrayConfig::paper_default(designs[di].1);
        cfg.disk_model = models[mi].clone();
        cfg
    };
    let means = harness::run_variants_cached(
        args.jobs,
        &cells,
        cache.as_ref(),
        |c, &(mi, di)| {
            // Salted: the payload is a bare mean, not a RunResult, and
            // the trace capacity is re-derived from the disk model the
            // same way model_traces generated it.
            c.key_builder()
                .str("ablation6-mean-io-ms")
                .u64(seed)
                .str(WorkloadKind::Att.name())
                .u64(model_traces[mi].capacity)
                .f64(duration.as_secs_f64())
                .str(&model_cfg(mi, di).cache_encoding())
                .finish()
        },
        |&(mi, di)| {
            run_trace(
                &model_cfg(mi, di),
                &model_traces[mi],
                &RunOptions::default(),
            )
            .metrics
            .mean_io_ms
        },
    );
    for (mi, model) in models.iter().enumerate() {
        let row = &means[mi * designs.len()..(mi + 1) * designs.len()];
        println!(
            "{:<16} {:>10.2} {:>10.2} {:>10.2} {:>8.2}x",
            model.name,
            row[0],
            row[1],
            row[2],
            row[2] / row[1]
        );
    }

    println!();
    println!("7. RAID 6 + AFRAID (paper s5): 6-disk array, small-write cost and MTTDL");
    let header = format!(
        "{:<12} {:>14} {:>16} {:>16}",
        "design", "fg write I/Os", "MTTDL @ 5% lag", "MTTDL @ 50% lag"
    );
    println!("{header}");
    rule(header.len());
    let p = ModelParams::default();
    let n = 4; // data disks in a 6-wide RAID 6
    for (name, mode) in [
        ("raid6", raid6::Raid6Mode::Full),
        ("defer-q", raid6::Raid6Mode::DeferQ),
        ("defer-both", raid6::Raid6Mode::DeferBoth),
    ] {
        let mttdl = |frac: f64| match mode {
            raid6::Raid6Mode::Full => raid6::mttdl_raid6_catastrophic(&p, n),
            raid6::Raid6Mode::DeferQ => raid6::mttdl_defer_q(&p, n, frac),
            raid6::Raid6Mode::DeferBoth => raid6::mttdl_defer_both(&p, n, frac, frac),
        };
        println!(
            "{:<12} {:>14} {:>16} {:>16}",
            name,
            raid6::small_write_ios(mode),
            hours(mttdl(0.05)),
            hours(mttdl(0.50)),
        );
    }
    println!();
    println!("Deferring only Q keeps single-failure tolerance at all times: the s5");
    println!("'partial redundancy immediately, full redundancy after the rebuild'.");
    harness::print_cache_stats(cache.as_ref());
}
