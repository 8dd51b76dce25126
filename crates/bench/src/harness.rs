//! Shared experiment plumbing: configurations, runs, parallel fan-out,
//! and table formatting.
//!
//! Cells fan out over `jobs` worker threads. Results are merged in
//! matrix order, so the printed tables are byte-identical at any job
//! count.

use std::io::{self, Write};

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions, RunResult};
use afraid::policy::ParityPolicy;
use afraid::report::availability;
use afraid_avail::report::AvailabilityReport;
use afraid_exp::run_matrix;
use afraid_sim::time::SimDuration;
use afraid_trace::workloads::WorkloadKind;

/// Logical capacity the synthetic traces address: 7 GB, comfortably
/// inside the 5 x 2 GB array's ~7.8 GB usable space.
pub const TRACE_CAPACITY: u64 = 7 * 1024 * 1024 * 1024;

/// Schema tag of the serialized [`RunResult`]. Bump whenever its shape
/// or the values a run produces change.
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

/// The coordinates every simulated cell of a run shares.
#[derive(Clone, Copy)]
pub struct Setup {
    /// Simulated trace duration.
    pub duration: SimDuration,
    /// Workload-synthesis seed.
    pub seed: u64,
    /// Worker threads; output is byte-identical at any count.
    pub jobs: usize,
}

/// Generates one trace per workload in `kinds`, addressing `capacity`
/// bytes, and runs every (trace × policy) cell on the paper's array
/// over `setup.jobs` workers. Returns rows in `kinds` order, columns in
/// policy order — the same shape and values a sequential double loop
/// would produce.
pub fn run_cells(
    setup: &Setup,
    kinds: &[WorkloadKind],
    capacity: u64,
    policies: &[(String, ParityPolicy)],
) -> Vec<Vec<Cell>> {
    let Setup {
        duration,
        seed,
        jobs,
    } = *setup;
    let traces = afraid_exp::generate_traces(jobs, kinds, capacity, duration, seed);
    run_matrix(jobs, &traces, policies, |trace, (_, policy), _| {
        let cfg = ArrayConfig::paper_default(*policy);
        let result = run_trace(&cfg, trace, &RunOptions::default());
        let avail = availability(&cfg, &result.metrics);
        Cell { result, avail }
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
        };
        let afraid = [("afraid".to_string(), ParityPolicy::IdleOnly)];
        let rows = run_cells(&setup, &[WorkloadKind::Hplajw], TRACE_CAPACITY, &afraid);
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
        };
        let policies = headline_designs();
        let rows = run_cells(&setup, &kinds, TRACE_CAPACITY, &policies);
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
