//! Shared experiment plumbing: configurations, runs, parallel fan-out,
//! and table formatting.
//!
//! Every bench binary takes the same CLI shape: an optional positional
//! duration in simulated seconds, plus `--jobs N` to fan independent
//! experiment cells over N worker threads (default: all cores, or
//! `AFRAID_JOBS`) and `--cache`/`--no-cache` to replay memoised cell
//! results from `target/cell-cache` (default off). Results are merged
//! in matrix order, so the printed tables are byte-identical at any
//! job count — and, by the cache's bit-identity guarantee, whether a
//! cell was simulated or replayed.

use std::sync::Arc;

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions, RunResult};
use afraid::policy::ParityPolicy;
use afraid::report::availability;
use afraid_avail::report::AvailabilityReport;
use afraid_exp::{jobs_from_args, map_parallel, run_matrix, CacheKey, CellCache};
use afraid_sim::time::SimDuration;
use afraid_trace::record::Trace;
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// Logical capacity the synthetic traces address: 7 GB, comfortably
/// inside the 5 x 2 GB array's ~7.8 GB usable space.
pub const TRACE_CAPACITY: u64 = 7 * 1024 * 1024 * 1024;

/// Default simulated duration per run, seconds.
pub const DEFAULT_DURATION_SECS: u64 = 600;

/// Schema tag baked into every cache key and entry. Bump whenever the
/// serialized shape of [`RunResult`] (or anything feeding it) changes
/// in a way the crate version does not capture.
/// v2: `RunMetrics` gained the integrity-counter block.
/// v3: the `declared` integrity counter counts registered corruptions
/// only, which changes runs that combine corruption with a disk
/// failure or eviction.
pub const RESULT_SCHEMA: &str = "afraid-cell-v3";

/// Parsed common bench arguments.
pub struct BenchArgs {
    /// Simulated duration per run.
    pub duration: SimDuration,
    /// Worker threads for cell fan-out.
    pub jobs: usize,
    /// Replay memoised cell results from the cross-run cache.
    pub cache: bool,
}

/// Parses `[duration_secs] [--jobs N] [--cache|--no-cache]` from the
/// process arguments. The cache defaults to off; the last
/// `--cache`/`--no-cache` wins.
pub fn bench_args() -> BenchArgs {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (jobs, rest) = jobs_from_args(&raw);
    let mut cache = false;
    let mut positional: Vec<String> = Vec::new();
    for a in rest {
        match a.as_str() {
            "--cache" => cache = true,
            "--no-cache" => cache = false,
            _ => positional.push(a),
        }
    }
    let secs = positional
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_DURATION_SECS);
    BenchArgs {
        duration: SimDuration::from_secs(secs),
        jobs,
        cache,
    }
}

/// Opens the cross-run cell cache at its conventional location when
/// `--cache` was given, `None` otherwise.
pub fn cell_cache(args: &BenchArgs) -> Option<CellCache> {
    args.cache
        .then(|| CellCache::new(CellCache::default_dir(), RESULT_SCHEMA))
}

/// Prints the cache counter summary if a cache was in use.
pub fn print_cache_stats(cache: Option<&CellCache>) {
    if let Some(c) = cache {
        println!("{}", c.stats().summary());
    }
}

/// Reads the duration from the first CLI argument, defaulting to
/// [`DEFAULT_DURATION_SECS`].
pub fn duration_from_args() -> SimDuration {
    bench_args().duration
}

/// Workload seed: `AFRAID_SEED` or 42.
pub fn seed() -> u64 {
    std::env::var("AFRAID_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// The policy sweep of the paper's Figures 3 and 4: RAID 5 at one end,
/// pure AFRAID at the other, `MTTDL_x` targets in between (hours),
/// with RAID 0 as the unprotected reference.
pub fn policy_sweep() -> Vec<(String, ParityPolicy)> {
    let mut v = vec![("raid5".to_string(), ParityPolicy::AlwaysRaid5)];
    for target in [3.0e9, 1.0e9, 1.0e8, 3.0e7, 1.0e7, 3.0e6, 1.0e6] {
        v.push((
            format!("mttdl_{target:.0e}"),
            ParityPolicy::MttdlTarget {
                target_hours: target,
            },
        ));
    }
    v.push(("afraid".to_string(), ParityPolicy::IdleOnly));
    v.push(("raid0".to_string(), ParityPolicy::NeverRebuild));
    v
}

/// The three headline designs of Table 2.
pub fn headline_designs() -> Vec<(String, ParityPolicy)> {
    vec![
        ("raid0".to_string(), ParityPolicy::NeverRebuild),
        ("afraid".to_string(), ParityPolicy::IdleOnly),
        ("raid5".to_string(), ParityPolicy::AlwaysRaid5),
    ]
}

/// Generates the synthetic trace for a workload.
pub fn trace_for(kind: WorkloadKind, duration: SimDuration) -> Trace {
    WorkloadSpec::preset(kind).generate(TRACE_CAPACITY, duration, seed())
}

/// Generates one shared trace per workload, fanning generation over
/// `jobs` workers. Each `Arc<Trace>` is then shared by every policy
/// cell of its row instead of being regenerated per cell.
pub fn traces_for(kinds: &[WorkloadKind], duration: SimDuration, jobs: usize) -> Vec<Arc<Trace>> {
    afraid_exp::generate_traces(jobs, kinds, TRACE_CAPACITY, duration, seed())
}

/// One finished experiment cell.
pub struct Cell {
    /// Run measurements.
    pub result: RunResult,
    /// Derived availability numbers.
    pub avail: AvailabilityReport,
}

/// Runs one (workload trace, policy) cell on the paper's array.
pub fn run_cell(trace: &Trace, policy: ParityPolicy) -> Cell {
    let cfg = ArrayConfig::paper_default(policy);
    let result = run_trace(&cfg, trace, &RunOptions::default());
    let avail = availability(&cfg, &result.metrics);
    Cell { result, avail }
}

/// Builds the cache key for one cell from its full coordinates: base
/// seed, trace identity (workload name, addressed capacity, duration),
/// and the complete array configuration (which embeds the policy,
/// `ScrubConfig` and `FaultConfig`). The builder itself salts in the
/// schema tag and crate version. Shared by the bench binaries and
/// `afraid-cli sweep`, so overlapping grids hit each other's entries.
pub fn cell_key(
    cache: &CellCache,
    cfg: &ArrayConfig,
    workload: &str,
    capacity: u64,
    duration: SimDuration,
    seed: u64,
) -> CacheKey {
    cache
        .key_builder()
        .u64(seed)
        .str(workload)
        .u64(capacity)
        .f64(duration.as_secs_f64())
        .str(&cfg.cache_encoding())
        .finish()
}

/// [`run_cell`] with optional cross-run memoisation. On a valid cache
/// hit the simulation is skipped and the stored `RunResult` replayed;
/// availability is cheaply recomputed from the replayed metrics.
pub fn run_cell_cached(
    trace: &Trace,
    policy: ParityPolicy,
    workload: &str,
    capacity: u64,
    duration: SimDuration,
    seed: u64,
    cache: Option<&CellCache>,
) -> Cell {
    let cfg = ArrayConfig::paper_default(policy);
    let result = match cache {
        Some(c) => {
            let key = cell_key(c, &cfg, workload, capacity, duration, seed);
            c.run_cached(&key, || run_trace(&cfg, trace, &RunOptions::default()))
        }
        None => run_trace(&cfg, trace, &RunOptions::default()),
    };
    let avail = availability(&cfg, &result.metrics);
    Cell { result, avail }
}

/// Runs the full (trace × policy) matrix over `jobs` workers and
/// returns rows in trace order, columns in policy order — the same
/// shape and values a sequential double loop would produce.
pub fn run_cells(
    jobs: usize,
    traces: &[Arc<Trace>],
    policies: &[(String, ParityPolicy)],
) -> Vec<Vec<Cell>> {
    run_matrix(jobs, traces, policies, |trace, (_, policy), _| {
        run_cell(trace, *policy)
    })
}

/// [`run_cells`] with optional cross-run memoisation. `kinds` must be
/// the workload list the traces were generated from (same order);
/// `capacity` and `seed` are the trace-generation coordinates, which
/// differ between the bench binaries ([`TRACE_CAPACITY`], [`seed`])
/// and `afraid-cli sweep` (capacity derived from the array).
#[expect(
    clippy::too_many_arguments,
    reason = "the cell coordinates plus the jobs count and optional cache"
)]
pub fn run_cells_cached(
    jobs: usize,
    kinds: &[WorkloadKind],
    traces: &[Arc<Trace>],
    capacity: u64,
    duration: SimDuration,
    seed: u64,
    policies: &[(String, ParityPolicy)],
    cache: Option<&CellCache>,
) -> Vec<Vec<Cell>> {
    run_matrix(jobs, traces, policies, |trace, (_, policy), key| {
        run_cell_cached(
            trace,
            *policy,
            kinds[key.trace].name(),
            capacity,
            duration,
            seed,
            cache,
        )
    })
}

/// Fans heterogeneous per-cell configurations (ablation studies) over
/// `jobs` workers, preserving input order.
pub fn run_variants<T, R, F>(jobs: usize, variants: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_parallel(jobs, variants, |_, v| f(v))
}

/// [`run_variants`] with optional cross-run memoisation: `key_of`
/// derives each variant's cache key (callers must fold in *every*
/// coordinate the variant's result depends on — typically via
/// [`cell_key`] or the cache's raw key builder).
pub fn run_variants_cached<T, R, F, K>(
    jobs: usize,
    variants: &[T],
    cache: Option<&CellCache>,
    key_of: K,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send + Serialize + Deserialize,
    F: Fn(&T) -> R + Sync,
    K: Fn(&CellCache, &T) -> CacheKey + Sync,
{
    map_parallel(jobs, variants, |_, v| match cache {
        Some(c) => c.run_cached(&key_of(c, v), || f(v)),
        None => f(v),
    })
}

/// Formats hours compactly (e.g. `4.2e9 h`).
pub fn hours(h: f64) -> String {
    if h.is_infinite() {
        "inf".to_string()
    } else {
        format!("{h:.2e}")
    }
}

/// Formats a byte count at a human scale.
pub fn bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 {
        format!("{:.1}MB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1}KB", b / 1024.0)
    } else {
        format!("{b:.1}B")
    }
}

/// Prints a rule line matching a header's width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_both_ends() {
        let sweep = policy_sweep();
        assert_eq!(sweep.first().unwrap().1, ParityPolicy::AlwaysRaid5);
        assert_eq!(sweep.last().unwrap().1, ParityPolicy::NeverRebuild);
        assert!(sweep.len() >= 8);
    }

    #[test]
    fn sweep_names_are_wellformed() {
        for (name, _) in policy_sweep() {
            assert!(!name.is_empty());
            assert!(!name.contains(' '), "bad sweep name {name:?}");
        }
        assert_eq!(policy_sweep()[1].0, "mttdl_3e9");
    }

    #[test]
    fn cell_runs_quickly_on_short_trace() {
        let trace = trace_for(WorkloadKind::Hplajw, SimDuration::from_secs(20));
        let cell = run_cell(&trace, ParityPolicy::IdleOnly);
        assert_eq!(cell.result.metrics.requests as usize, trace.len());
        assert!(cell.avail.mttdl_overall > 0.0);
    }

    #[test]
    fn matrix_matches_individual_cells() {
        let kinds = [WorkloadKind::Hplajw, WorkloadKind::Snake];
        let duration = SimDuration::from_secs(10);
        let traces = traces_for(&kinds, duration, 2);
        let policies = headline_designs();
        let rows = run_cells(4, &traces, &policies);
        assert_eq!(rows.len(), 2);
        for (t, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), 3);
            for (p, cell) in row.iter().enumerate() {
                let solo = run_cell(&traces[t], policies[p].1);
                assert_eq!(
                    cell.result.metrics.mean_io_ms,
                    solo.result.metrics.mean_io_ms
                );
                assert_eq!(
                    cell.result.metrics.events_processed,
                    solo.result.metrics.events_processed
                );
            }
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(hours(f64::INFINITY), "inf");
        assert_eq!(bytes(512.0), "512.0B");
        assert_eq!(bytes(2048.0), "2.0KB");
        assert_eq!(bytes(3.0 * 1024.0 * 1024.0), "3.0MB");
    }
}
