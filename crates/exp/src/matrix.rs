//! Experiment matrices: (trace × policy) grids of independent cells.

use std::sync::Arc;

use afraid_sim::rng::SplitMix64;
use afraid_sim::time::SimDuration;
use afraid_trace::record::Trace;
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

use crate::pool::map_parallel;

/// Coordinates of one cell in an experiment matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellKey {
    /// Row: index into the trace list.
    pub trace: usize,
    /// Column: index into the policy list.
    pub policy: usize,
}

/// Derives the RNG seed for one matrix cell.
///
/// The seed is a pure function of `(base, trace, policy)`: the base
/// seed and each coordinate are pushed through SplitMix64's output
/// finaliser with distinct odd multipliers, so neighbouring cells get
/// decorrelated streams and — crucially for parallel determinism — the
/// stream a cell sees never depends on which worker ran it, in what
/// order, or how many other cells exist.
pub fn cell_seed(base: u64, trace: usize, policy: usize) -> u64 {
    let mut mix = SplitMix64::new(base);
    let stem = mix.next_u64();
    let lane = stem
        ^ (trace as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (policy as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    SplitMix64::new(lane).next_u64()
}

/// Generates one trace per workload, in parallel, and wraps each in an
/// `Arc` so every policy cell of a row shares the same trace instead
/// of regenerating it. Generation itself is deterministic per
/// `(kind, capacity, duration, seed)`, so the parallelism is free.
pub fn generate_traces(
    jobs: usize,
    kinds: &[WorkloadKind],
    capacity: u64,
    duration: SimDuration,
    seed: u64,
) -> Vec<Arc<Trace>> {
    map_parallel(jobs, kinds, |_, &kind| {
        Arc::new(WorkloadSpec::preset(kind).generate(capacity, duration, seed))
    })
}

/// Runs every (trace × policy) cell through `run`, fanning cells over
/// `jobs` workers, and returns the results grouped by trace row (row
/// order = trace order, column order = policy order).
///
/// The full matrix is flattened into one work list so workers stay
/// busy across row boundaries: with 9 traces × 10 policies and 8
/// cores, no core idles waiting for a slow row to finish.
pub fn run_matrix<P, R, F>(
    jobs: usize,
    traces: &[Arc<Trace>],
    policies: &[P],
    run: F,
) -> Vec<Vec<R>>
where
    P: Sync,
    R: Send,
    F: Fn(&Trace, &P, CellKey) -> R + Sync,
{
    let cells: Vec<CellKey> = (0..traces.len())
        .flat_map(|t| {
            (0..policies.len()).map(move |p| CellKey {
                trace: t,
                policy: p,
            })
        })
        .collect();
    let flat = map_parallel(jobs, &cells, |_, &key| {
        run(&traces[key.trace], &policies[key.policy], key)
    });

    let mut rows: Vec<Vec<R>> = Vec::with_capacity(traces.len());
    let mut it = flat.into_iter();
    for _ in 0..traces.len() {
        rows.push(it.by_ref().take(policies.len()).collect());
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use afraid_sim::time::SimDuration;

    const CAP: u64 = 64 * 1024 * 1024;

    #[test]
    fn cell_seed_is_stable_and_distinct() {
        assert_eq!(cell_seed(42, 1, 2), cell_seed(42, 1, 2));
        let mut seen = std::collections::BTreeSet::new();
        for t in 0..16 {
            for p in 0..16 {
                assert!(seen.insert(cell_seed(42, t, p)), "collision at ({t},{p})");
            }
        }
        // Different base seeds give different streams.
        assert_ne!(cell_seed(42, 0, 0), cell_seed(43, 0, 0));
    }

    #[test]
    fn cell_rng_streams_are_decorrelated() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(cell_seed(42, 0, 0));
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(cell_seed(42, 0, 1));
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn traces_shared_not_regenerated() {
        let kinds = [WorkloadKind::Hplajw, WorkloadKind::Snake];
        let t1 = generate_traces(1, &kinds, CAP, SimDuration::from_secs(5), 42);
        let t2 = generate_traces(4, &kinds, CAP, SimDuration::from_secs(5), 42);
        assert_eq!(t1.len(), 2);
        for (a, b) in t1.iter().zip(&t2) {
            assert_eq!(a.records.len(), b.records.len());
            assert_eq!(a.records, b.records);
        }
    }

    #[test]
    fn matrix_shape_and_order() {
        let kinds = [WorkloadKind::Hplajw, WorkloadKind::Snake];
        let traces = generate_traces(1, &kinds, CAP, SimDuration::from_secs(2), 42);
        let policies = ["p0", "p1", "p2"];
        let rows = run_matrix(4, &traces, &policies, |trace, policy, key| {
            (key.trace, key.policy, trace.records.len(), *policy)
        });
        assert_eq!(rows.len(), 2);
        for (t, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), 3);
            for (p, cell) in row.iter().enumerate() {
                assert_eq!(cell.0, t);
                assert_eq!(cell.1, p);
                assert_eq!(cell.3, policies[p]);
            }
        }
    }

    #[test]
    fn matrix_parallel_equals_sequential() {
        let kinds = [WorkloadKind::Hplajw, WorkloadKind::Snake];
        let traces = generate_traces(2, &kinds, CAP, SimDuration::from_secs(2), 42);
        let policies = [1u64, 2, 3];
        // A cell function that uses the per-cell RNG: still identical
        // across job counts because the seed depends only on the key.
        let run = |_t: &Trace, &p: &u64, key: CellKey| {
            let mut rng = SplitMix64::new(cell_seed(42, key.trace, key.policy));
            (0..100).map(|_| rng.next_u64() % p.max(1)).sum::<u64>()
        };
        let seq = run_matrix(1, &traces, &policies, run);
        let par = run_matrix(4, &traces, &policies, run);
        assert_eq!(seq, par);
    }
}
