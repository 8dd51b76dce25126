//! Cut-point sweeps: thousands of crash experiments from a few replays.
//!
//! A verdict is a pure function of `(scenario, seed, duration, cut)`,
//! and capturing the crash state at a cut leaves the run intact, so a
//! sweep steps one replay through its sorted cuts instead of replaying
//! from event 0 per cut. `--jobs` splits the cut list into contiguous
//! chunks, one replay each, with bit-identical output at any count; the
//! cross-run cell cache memoises a whole sweep as one entry.

use afraid_exp::{map_parallel, CellCache};
use afraid_trace::record::Trace;
use serde::{Deserialize, Serialize};

use crate::scenario::ChaosSpec;
use crate::verdict::CutVerdict;

/// Cache schema tag for chaos sweeps. Bump when the verdict shape
/// or the recovery semantics change.
/// v2: silent-corruption injection, the power-on checksum cross-check,
/// and the corruption fields in [`CutVerdict`].
pub const CHAOS_SCHEMA: &str = "afraid-chaos-cut-v2";

/// `n` cut points spread evenly over `[1, total_events]`, deduplicated
/// and sorted. Cut 0 (crash before any event) is always included: the
/// degenerate bound belongs in every sweep.
pub fn cut_points(total_events: u64, n: usize) -> Vec<u64> {
    if n == 0 {
        return Vec::new();
    }
    // Past one cut per event, more cuts only add duplicates; the cap
    // keeps an outsized request from allocating for them.
    let n = n.min(usize::try_from(total_events.max(1)).unwrap_or(usize::MAX));
    let mut cuts = Vec::with_capacity(n + 1);
    cuts.push(0);
    if n == 1 || total_events == 0 {
        cuts.push(total_events);
    } else {
        let span = total_events - 1;
        for i in 0..n {
            cuts.push(1 + span * i as u64 / (n as u64 - 1));
        }
    }
    cuts.dedup();
    cuts
}

/// Runs (or replays from cache) the verdicts for every cut, in input
/// order: the sorted `cuts` split into `jobs` contiguous chunks, one
/// replay each. The cache entry is keyed by every coordinate that can
/// change a verdict, down to the config encoding and the cut list.
pub fn sweep(
    spec: &ChaosSpec,
    trace: &Trace,
    cuts: &[u64],
    jobs: usize,
    cache: Option<&CellCache>,
) -> Vec<CutVerdict> {
    let run = || {
        let size = cuts.len().div_ceil(jobs.max(1)).max(1);
        let chunks: Vec<&[u64]> = cuts.chunks(size).collect();
        map_parallel(jobs, &chunks, |_, chunk| spec.run_cuts(trace, chunk))
            .into_iter()
            .flatten()
            .collect()
    };
    let Some(cache) = cache else {
        return run();
    };
    let mut key = cache
        .key_builder()
        .str("chaos-sweep")
        .str(spec.scenario.name())
        .str(&spec.cfg.cache_encoding())
        .str(&format!("{:?}", spec.opts))
        .str(&trace.name)
        .f64(spec.duration.as_secs_f64())
        .u64(spec.seed)
        .u64(spec.kill_disk_at_cut.map_or(u64::MAX, u64::from))
        .u64(u64::from(spec.kill_nvram_at_cut))
        .u64(cuts.len() as u64);
    for &cut in cuts {
        key = key.u64(cut);
    }
    cache.run_cached(&key.finish(), run)
}

/// Aggregate of one scenario's sweep, for reports and CI gates.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Scenario name.
    pub scenario: String,
    /// Cut points judged.
    pub cuts: u64,
    /// Cuts where all five invariants held.
    pub passed: u64,
    /// Cuts with a violated invariant (first failure quoted).
    pub failed: u64,
    /// First failure message, if any cut failed.
    pub first_failure: Option<String>,
    /// Cuts that declared at least one unit lost.
    pub cuts_with_declared_loss: u64,
    /// Cuts with at least one truly unrecoverable unit.
    pub cuts_with_true_loss: u64,
    /// Total units declared lost across all cuts.
    pub declared_lost_units: u64,
    /// Total truly lost units across all cuts.
    pub truly_lost_units: u64,
    /// Total stale-parity stripes rebuilt across all cuts.
    pub scrubbed: u64,
    /// Total spurious marks (crash between mark and write).
    pub spurious_marks: u64,
    /// Total dead-disk units reconstructed from survivors.
    pub reconstructed: u64,
    /// Cuts caught with at least one undispositioned corruption live
    /// in the registry.
    pub cuts_with_live_corruption: u64,
    /// Total corruptions repaired byte-exactly by the power-on
    /// cross-check, across all cuts.
    pub corrupt_repaired: u64,
    /// Total corruptions the power-on cross-check declared lost.
    pub corrupt_declared: u64,
    /// Total silent reads (corrupt data served without detection)
    /// before the cut. Zero whenever verify-on-read is enabled.
    pub silent_reads: u64,
}

/// Folds a sweep's verdicts into a summary row.
pub fn summarize(scenario: &str, verdicts: &[CutVerdict]) -> SweepSummary {
    let mut s = SweepSummary {
        scenario: scenario.to_string(),
        cuts: verdicts.len() as u64,
        passed: 0,
        failed: 0,
        first_failure: None,
        cuts_with_declared_loss: 0,
        cuts_with_true_loss: 0,
        declared_lost_units: 0,
        truly_lost_units: 0,
        scrubbed: 0,
        spurious_marks: 0,
        reconstructed: 0,
        cuts_with_live_corruption: 0,
        corrupt_repaired: 0,
        corrupt_declared: 0,
        silent_reads: 0,
    };
    for v in verdicts {
        if v.pass {
            s.passed += 1;
        } else {
            s.failed += 1;
            if s.first_failure.is_none() {
                s.first_failure = v.failure.clone();
            }
        }
        if v.declared_lost > 0 {
            s.cuts_with_declared_loss += 1;
        }
        if v.truly_lost > 0 {
            s.cuts_with_true_loss += 1;
        }
        s.declared_lost_units += v.declared_lost;
        s.truly_lost_units += v.truly_lost;
        s.scrubbed += v.scrubbed;
        s.spurious_marks += v.spurious_marks;
        s.reconstructed += v.reconstructed;
        if v.corrupt_live_at_cut > 0 {
            s.cuts_with_live_corruption += 1;
        }
        s.corrupt_repaired += v.corrupt_repaired;
        s.corrupt_declared += v.corrupt_declared;
        s.silent_reads += v.silent_reads;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_points_cover_both_ends() {
        let cuts = cut_points(1000, 10);
        assert_eq!(cuts[0], 0);
        assert_eq!(cuts[1], 1);
        assert_eq!(*cuts.last().unwrap(), 1000);
        assert!(cuts.windows(2).all(|w| w[0] < w[1]), "{cuts:?}");
    }

    #[test]
    fn cut_points_degenerate() {
        assert!(cut_points(1000, 0).is_empty());
        assert_eq!(cut_points(0, 4), vec![0]);
        assert_eq!(cut_points(5, 1), vec![0, 5]);
        // More requested cuts than events: dedup keeps each once.
        let cuts = cut_points(3, 100);
        assert!(cuts.len() <= 5, "{cuts:?}");
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
        for total in [0, 1, 2, 3, 1000] {
            let all: Vec<u64> = (0..=total).collect();
            assert_eq!(cut_points(total, usize::MAX), all);
            assert_eq!(cut_points(total, 1_000_000), all);
        }
    }
}
