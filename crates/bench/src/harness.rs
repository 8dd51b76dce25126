//! Shared experiment plumbing: configurations, runs, parallel fan-out,
//! and table formatting.
//!
//! Cells fan out over `jobs` worker threads and, when a
//! [`CellCache`] is given, replay memoised results from
//! `target/cell-cache`. Results are merged in matrix order, so the
//! printed tables are byte-identical at any job count — and, by the
//! cache's bit-identity guarantee, whether a cell was simulated or
//! replayed.

use std::io::{self, Write};

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions, RunResult};
use afraid::policy::ParityPolicy;
use afraid::report::availability;
use afraid_avail::report::AvailabilityReport;
use afraid_exp::{map_parallel, run_matrix, CacheKey, CellCache};
use afraid_sim::time::SimDuration;
use afraid_trace::workloads::WorkloadKind;
use serde::{Deserialize, Serialize};

/// Logical capacity the synthetic traces address: 7 GB, comfortably
/// inside the 5 x 2 GB array's ~7.8 GB usable space.
pub const TRACE_CAPACITY: u64 = 7 * 1024 * 1024 * 1024;

/// Schema tag baked into every cache key and entry. Bump whenever the
/// serialized shape of [`RunResult`] (or anything feeding it) changes
/// in a way the crate version does not capture.
/// v2: `RunMetrics` gained the integrity-counter block.
/// v3: the `declared` integrity counter counts registered corruptions
/// only, which changes runs that combine corruption with a disk
/// failure or eviction.
pub const RESULT_SCHEMA: &str = "afraid-cell-v3";

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

/// One finished experiment cell.
pub struct Cell {
    /// Run measurements.
    pub result: RunResult,
    /// Derived availability numbers.
    pub avail: AvailabilityReport,
}

/// Builds the cache key for one cell from its full coordinates: base
/// seed, trace identity (workload name, addressed capacity, duration),
/// and the complete array configuration (which embeds the policy,
/// `ScrubConfig` and `FaultConfig`). The builder itself salts in the
/// schema tag and crate version. `afraid-cli paper` and `sweep` key
/// the same matrix cells alike, so they hit each other's entries.
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

/// The coordinates every simulated cell of a run shares.
#[derive(Clone, Copy)]
pub struct Setup<'a> {
    /// Simulated trace duration.
    pub duration: SimDuration,
    /// Workload-synthesis seed.
    pub seed: u64,
    /// Worker threads; output is byte-identical at any count.
    pub jobs: usize,
    /// Cross-run cell cache, if enabled.
    pub cache: Option<&'a CellCache>,
}

/// Generates one trace per workload in `kinds`, addressing `capacity`
/// bytes, and runs every (trace × policy) cell on the paper's array
/// over `setup.jobs` workers. Returns rows in `kinds` order, columns in
/// policy order — the same shape and values a sequential double loop
/// would produce. On a valid cache hit a cell's simulation is skipped
/// and the stored `RunResult` replayed; availability is cheaply
/// recomputed from the replayed metrics.
pub fn run_cells_cached(
    setup: &Setup,
    kinds: &[WorkloadKind],
    capacity: u64,
    policies: &[(String, ParityPolicy)],
) -> Vec<Vec<Cell>> {
    let Setup {
        duration,
        seed,
        jobs,
        cache,
    } = *setup;
    let traces = afraid_exp::generate_traces(jobs, kinds, capacity, duration, seed);
    run_matrix(jobs, &traces, policies, |trace, (_, policy), key| {
        let cfg = ArrayConfig::paper_default(*policy);
        let run = || run_trace(&cfg, trace, &RunOptions::default());
        let result = match cache {
            Some(c) => {
                let workload = kinds[key.trace].name();
                c.run_cached(&cell_key(c, &cfg, workload, capacity, duration, seed), run)
            }
            None => run(),
        };
        let avail = availability(&cfg, &result.metrics);
        Cell { result, avail }
    })
}

/// Fans heterogeneous per-cell configurations (ablation studies) over
/// `jobs` workers, preserving input order, with optional cross-run
/// memoisation: `key_of` derives each variant's cache key (callers
/// must fold in *every* coordinate the variant's result depends on —
/// typically via [`cell_key`] or the cache's raw key builder).
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

/// Writes a rule line matching a header's width.
pub fn rule(out: &mut dyn Write, width: usize) -> io::Result<()> {
    writeln!(out, "{}", "-".repeat(width))
}

/// Writes a column header and a rule of its width.
pub fn header(out: &mut dyn Write, header: &str) -> io::Result<()> {
    writeln!(out, "{header}")?;
    rule(out, header.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use afraid_trace::workloads::WorkloadSpec;

    const SEED: u64 = 42;

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
        let setup = Setup {
            duration: SimDuration::from_secs(20),
            seed: SEED,
            jobs: 1,
            cache: None,
        };
        let afraid = [("afraid".to_string(), ParityPolicy::IdleOnly)];
        let rows = run_cells_cached(&setup, &[WorkloadKind::Hplajw], TRACE_CAPACITY, &afraid);
        let trace = WorkloadSpec::preset(WorkloadKind::Hplajw).generate(
            TRACE_CAPACITY,
            setup.duration,
            SEED,
        );
        assert_eq!(rows[0][0].result.metrics.requests as usize, trace.len());
        assert!(rows[0][0].avail.mttdl_overall > 0.0);
    }

    #[test]
    fn matrix_matches_individual_cells() {
        let kinds = [WorkloadKind::Hplajw, WorkloadKind::Snake];
        let setup = Setup {
            duration: SimDuration::from_secs(10),
            seed: SEED,
            jobs: 4,
            cache: None,
        };
        let policies = headline_designs();
        let rows = run_cells_cached(&setup, &kinds, TRACE_CAPACITY, &policies);
        assert_eq!(rows.len(), 2);
        for (kind, row) in kinds.into_iter().zip(&rows) {
            assert_eq!(row.len(), 3);
            let trace = WorkloadSpec::preset(kind).generate(TRACE_CAPACITY, setup.duration, SEED);
            for ((_, policy), cell) in policies.iter().zip(row) {
                let cfg = ArrayConfig::paper_default(*policy);
                let solo = run_trace(&cfg, &trace, &RunOptions::default()).metrics;
                let m = &cell.result.metrics;
                assert_eq!(m.mean_io_ms, solo.mean_io_ms);
                assert_eq!(m.events_processed, solo.events_processed);
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
