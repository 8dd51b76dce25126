//! Perfbench — wall-clock benchmark of the parallel experiment engine.
//!
//! Runs a fixed (trace × policy) cell matrix twice: once at `--jobs 1`
//! (sequential reference) and once at the machine's core count, and
//! reports wall clock, wall-clock events/second, and peak event-queue
//! depth for each, plus the sequential-vs-parallel speedup and a
//! bit-identity check over the serialized [`RunResult`]s.
//!
//! An **xor micro** rides along: the chunked vs scalar parity-fold
//! delta in `afraid::shadow`.
//!
//! Usage: `perfbench [duration_secs] [--jobs N] [--cache|--no-cache]`
//!
//! `duration_secs` scales the simulated traces (default 60 s — shorter
//! than the paper tables so CI can afford it); `--jobs N` replaces the
//! core-count run with an explicit worker count. `--cache` replays
//! memoised cells — results stay bit-identical, but the timings then
//! measure cache replay rather than the engine, and the report says
//! so. Writes `BENCH_parallel_sweep.json` at the repository root.

use std::hint::black_box;
use std::time::Instant;

use afraid::layout::Layout;
use afraid::shadow::ShadowArray;
use afraid_bench::harness;
use afraid_exp::CellCache;
use afraid_trace::workloads::WorkloadKind;
use serde::Serialize;

/// Shorter default than the paper tables: perfbench exists to time the
/// engine, not to reproduce figures, and CI runs it on every push.
const DEFAULT_SECS: u64 = 60;

#[derive(Serialize)]
struct JobsRun {
    jobs: usize,
    wall_secs: f64,
    trace_gen_secs: f64,
    matrix_secs: f64,
    events_total: u64,
    /// Wall-clock event throughput. Lives only in this report — the
    /// serialized `RunResult`s stay machine-independent.
    events_per_sec_wall: f64,
    peak_queue_depth: usize,
}

#[derive(Serialize)]
struct XorMicro {
    stripes: u64,
    disks: u32,
    iters: u32,
    scalar_secs: f64,
    chunked_secs: f64,
    /// scalar time / chunked time (>1 = chunked faster).
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    duration_secs: f64,
    seed: u64,
    workloads: Vec<String>,
    policies: Vec<String>,
    cells: usize,
    runs: Vec<JobsRun>,
    speedup: f64,
    bit_identical: bool,
    /// Chunked vs scalar parity folds in the shadow model.
    xor_micro: XorMicro,
    available_parallelism: usize,
    /// True when the parallel leg ran more workers than the machine
    /// has cores: the speedup then measures scheduler contention, not
    /// the engine. Single-core machines are reported separately via
    /// `available_parallelism` and the note.
    oversubscribed: bool,
    /// True when cells were replayed from the cross-run cache; wall
    /// times then measure cache replay, not simulation.
    cache_enabled: bool,
    note: String,
}

/// Runs the full matrix at `jobs` workers and returns timing plus the
/// serialized results for the bit-identity check.
fn run_at(
    jobs: usize,
    kinds: &[WorkloadKind],
    duration: afraid_sim::time::SimDuration,
    cache: Option<&CellCache>,
) -> (JobsRun, String) {
    let policies = harness::headline_designs();
    let t0 = Instant::now();
    let traces = harness::traces_for(kinds, duration, jobs);
    let gen_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let rows = harness::run_cells_cached(
        jobs,
        kinds,
        &traces,
        harness::TRACE_CAPACITY,
        duration,
        harness::seed(),
        &policies,
        cache,
    );
    let matrix_secs = t1.elapsed().as_secs_f64();
    let wall = t0.elapsed().as_secs_f64();

    let mut events_total = 0u64;
    let mut peak = 0usize;
    let mut blob = String::new();
    for row in &rows {
        for cell in row {
            events_total += cell.result.metrics.events_processed;
            peak = peak.max(cell.result.metrics.event_queue_peak);
            blob.push_str(&serde_json::to_string(&cell.result).expect("serializable result"));
            blob.push('\n');
        }
    }
    let run = JobsRun {
        jobs,
        wall_secs: wall,
        trace_gen_secs: gen_secs,
        matrix_secs,
        events_total,
        events_per_sec_wall: if wall > 0.0 {
            events_total as f64 / wall
        } else {
            0.0
        },
        peak_queue_depth: peak,
    };
    (run, blob)
}

/// Chunked vs scalar parity folds over a dirtied shadow array.
fn run_xor_micro() -> XorMicro {
    // 5 disks x 64 Ki stripes of 8 KB units — paper geometry, scaled
    // so both legs finish well under a second.
    const STRIPES: u64 = 64 * 1024;
    const ITERS: u32 = 8;
    let layout = Layout::new(5, 8192, STRIPES * 16);
    let mut shadow = ShadowArray::new(layout);
    for stripe in 0..STRIPES {
        shadow.write_data(
            stripe,
            (stripe % 4) as u32,
            stripe.wrapping_mul(0x9e37_79b9),
        );
    }

    let t = Instant::now();
    let mut scalar_acc = 0u64;
    for _ in 0..ITERS {
        for stripe in 0..STRIPES {
            scalar_acc ^= shadow.compute_parity_scalar(stripe)
                ^ shadow.xor_survivors_scalar(stripe, (stripe % 5) as u32);
        }
    }
    let scalar_secs = t.elapsed().as_secs_f64();
    black_box(scalar_acc);

    let t = Instant::now();
    let mut chunked_acc = 0u64;
    for _ in 0..ITERS {
        for stripe in 0..STRIPES {
            chunked_acc ^=
                shadow.compute_parity(stripe) ^ shadow.xor_survivors(stripe, (stripe % 5) as u32);
        }
    }
    let chunked_secs = t.elapsed().as_secs_f64();
    black_box(chunked_acc);
    assert_eq!(
        scalar_acc, chunked_acc,
        "chunked folds diverged from scalar"
    );

    XorMicro {
        stripes: STRIPES,
        disks: layout.disks(),
        iters: ITERS,
        scalar_secs,
        chunked_secs,
        speedup: if chunked_secs > 0.0 {
            scalar_secs / chunked_secs
        } else {
            0.0
        },
    }
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let mut cache_enabled = false;
    raw.retain(|a| match a.as_str() {
        "--cache" => {
            cache_enabled = true;
            false
        }
        "--no-cache" => {
            cache_enabled = false;
            false
        }
        _ => true,
    });
    if raw.is_empty() || raw[0].starts_with("--") {
        raw.insert(0, DEFAULT_SECS.to_string());
    }
    let args = {
        let saved: Vec<String> = raw.clone();
        // Reuse the harness parser by temporarily looking like its argv.
        let (jobs, rest) = afraid_exp::jobs_from_args(&saved);
        let secs: u64 = rest
            .first()
            .map(|s| s.parse().expect("duration must be integer seconds"))
            .unwrap_or(DEFAULT_SECS);
        (afraid_sim::time::SimDuration::from_secs(secs), jobs)
    };
    let duration = args.0;
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // If --jobs was given use it for the parallel leg, else the core count.
    let par_jobs = if args.1 > 1 { args.1 } else { nproc };

    let kinds = [
        WorkloadKind::Hplajw,
        WorkloadKind::Snake,
        WorkloadKind::CelloUsr,
        WorkloadKind::Att,
    ];
    let policies = harness::headline_designs();
    println!(
        "Perfbench: {} workloads x {} policies, {}s traces, seed {}",
        kinds.len(),
        policies.len(),
        duration.as_secs_f64(),
        harness::seed()
    );
    println!("available parallelism: {nproc}; parallel leg uses jobs={par_jobs}");
    let oversubscribed = par_jobs > nproc;
    if oversubscribed {
        println!(
            "WARNING: jobs={par_jobs} exceeds available_parallelism={nproc} — the \
             parallel leg is oversubscribed and its speedup is not evidence about \
             the engine"
        );
    }
    let cache =
        cache_enabled.then(|| CellCache::new(CellCache::default_dir(), harness::RESULT_SCHEMA));
    if cache.is_some() {
        println!(
            "NOTE: --cache replays memoised cells; wall times measure cache replay, \
             not simulation"
        );
    }
    println!();

    let header = format!(
        "{:<6} {:>10} {:>10} {:>10} {:>13} {:>14} {:>11}",
        "jobs", "wall s", "gen s", "matrix s", "events", "events/s wall", "peak queue"
    );
    println!("{header}");
    harness::rule(header.len());

    let (seq, seq_blob) = run_at(1, &kinds, duration, cache.as_ref());
    print_run(&seq);
    let (par, par_blob) = run_at(par_jobs, &kinds, duration, cache.as_ref());
    print_run(&par);

    let speedup = if par.wall_secs > 0.0 {
        seq.wall_secs / par.wall_secs
    } else {
        0.0
    };
    let identical = seq_blob == par_blob;
    println!();
    println!(
        "speedup jobs={} vs jobs=1: {:.2}x; results bit-identical: {}",
        par_jobs, speedup, identical
    );
    if oversubscribed {
        println!(
            "(oversubscribed: available_parallelism={nproc} < jobs={par_jobs}; \
             a <2x — even <1x — speedup here says nothing about the engine)"
        );
    } else if nproc == 1 {
        println!(
            "(single core: a ~1x speedup is the expected result here, \
             not a regression)"
        );
    }
    assert!(identical, "parallel results diverged from sequential");
    harness::print_cache_stats(cache.as_ref());

    // XOR micro-axis: chunked vs scalar shadow parity folds.
    let xor = run_xor_micro();
    println!();
    println!(
        "xor micro ({} stripes x {} disks x {} iters): scalar {:.3}s, chunked {:.3}s, {:.2}x",
        xor.stripes, xor.disks, xor.iters, xor.scalar_secs, xor.chunked_secs, xor.speedup
    );

    // The "expect >=2x" claim only applies where the hardware can
    // deliver it; on a single-core or oversubscribed runner the note
    // must say so, or the bench trajectory reads as a regression.
    let note = if cache.is_some() {
        "cache replay run: wall times measure target/cell-cache replay, not the \
         engine; speedup is not meaningful. serialized RunResults remain \
         bit-identical by the cache's bit-identity guarantee."
            .to_string()
    } else if oversubscribed {
        format!(
            "oversubscribed run (available_parallelism={nproc}, parallel leg \
             jobs={par_jobs}): speedup reflects scheduler contention, not the \
             engine — do not read it against the >=2x multi-core expectation. \
             events_per_sec_wall is wall-clock throughput and varies by machine; \
             serialized RunResults are bit-identical across job counts by \
             construction."
        )
    } else if nproc == 1 {
        format!(
            "single-core run (available_parallelism=1, parallel leg \
             jobs={par_jobs}): there is no parallel hardware to speed anything \
             up, so a ~1x speedup is the expected result, not a regression — \
             the >=2x expectation only applies to multi-core runs. \
             events_per_sec_wall is wall-clock throughput and varies by machine; \
             serialized RunResults are bit-identical across job counts by \
             construction."
        )
    } else {
        "multi-core run: expect >=2x speedup at jobs=available_parallelism. \
         events_per_sec_wall is wall-clock throughput and varies by machine; \
         serialized RunResults are bit-identical across job counts by \
         construction."
            .to_string()
    };

    let report = Report {
        duration_secs: duration.as_secs_f64(),
        seed: harness::seed(),
        workloads: kinds.iter().map(|k| k.name().to_string()).collect(),
        policies: policies.iter().map(|(n, _)| n.clone()).collect(),
        cells: kinds.len() * policies.len(),
        runs: vec![seq, par],
        speedup,
        bit_identical: identical,
        xor_micro: xor,
        available_parallelism: nproc,
        oversubscribed,
        cache_enabled: cache.is_some(),
        note,
    };
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_parallel_sweep.json"
    );
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, json + "\n").expect("write BENCH_parallel_sweep.json");
    println!("wrote {path}");
}

fn print_run(r: &JobsRun) {
    println!(
        "{:<6} {:>10.2} {:>10.2} {:>10.2} {:>13} {:>14.0} {:>11}",
        r.jobs,
        r.wall_secs,
        r.trace_gen_secs,
        r.matrix_secs,
        r.events_total,
        r.events_per_sec_wall,
        r.peak_queue_depth
    );
}
