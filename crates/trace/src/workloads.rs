//! The nine workload presets standing in for the paper's traces.
//!
//! The original traces are proprietary; these presets are synthesised
//! from the published characterisations (the paper's §4.1 and
//! \[Ruemmler93\]). The parameters encode the *relative* properties the
//! evaluation depends on — which traces are bursty, which are
//! write-heavy, which run the array near saturation:
//!
//! | trace | character | load |
//! |---|---|---|
//! | hplajw | single user, email/editing | very light, very bursty |
//! | snake | workstation-cluster file server | light, bursty |
//! | cello-usr | timesharing root//usr//users | light, bursty |
//! | cello-news | Usenet news database | moderate, write-heavy |
//! | netware | database-loading benchmark | heavy, sequential writes |
//! | att | production telephone DB | heaviest, random writes |
//! | as400-1 | production AS/400 | moderately heavy |
//! | as400-2..4 | production AS/400 | light–moderate |
//!
//! Absolute numbers are not claimed to match the original traces; the
//! reproduction's claim is that the *shape* of Figures 2–4 follows from
//! this qualitative structure.

use afraid_sim::dist::{Empirical, Exponential, Hyperexponential};
use afraid_sim::rng::SplitMix64;
use afraid_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::gen::onoff::OnOffGenerator;
use crate::gen::spatial::SpatialModel;
use crate::record::Trace;

/// Identifier for one of the nine paper workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Single-user HP-UX system (email, document editing).
    Hplajw,
    /// HP-UX file server for a workstation cluster at UC Berkeley.
    Snake,
    /// Timesharing system: root, `/usr`, `/users` disks.
    CelloUsr,
    /// The cello Usenet news database disk.
    CelloNews,
    /// Intensive database-loading benchmark on a Novell NetWare server.
    Netware,
    /// Production telephone-company database system.
    Att,
    /// Production IBM AS/400 system 1 (the busiest of the four).
    As400_1,
    /// Production IBM AS/400 system 2.
    As400_2,
    /// Production IBM AS/400 system 3.
    As400_3,
    /// Production IBM AS/400 system 4.
    As400_4,
}

impl WorkloadKind {
    /// All nine workloads, in the paper's order.
    pub fn all() -> [WorkloadKind; 10] {
        [
            WorkloadKind::Hplajw,
            WorkloadKind::Snake,
            WorkloadKind::CelloUsr,
            WorkloadKind::CelloNews,
            WorkloadKind::Netware,
            WorkloadKind::Att,
            WorkloadKind::As400_1,
            WorkloadKind::As400_2,
            WorkloadKind::As400_3,
            WorkloadKind::As400_4,
        ]
    }

    /// Canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Hplajw => "hplajw",
            WorkloadKind::Snake => "snake",
            WorkloadKind::CelloUsr => "cello-usr",
            WorkloadKind::CelloNews => "cello-news",
            WorkloadKind::Netware => "netware",
            WorkloadKind::Att => "att",
            WorkloadKind::As400_1 => "as400-1",
            WorkloadKind::As400_2 => "as400-2",
            WorkloadKind::As400_3 => "as400-3",
            WorkloadKind::As400_4 => "as400-4",
        }
    }

    /// Parses a canonical name.
    pub fn from_name(s: &str) -> Option<WorkloadKind> {
        WorkloadKind::all().into_iter().find(|k| k.name() == s)
    }
}

/// Full parameter set for one synthetic workload.
///
/// # Examples
///
/// ```
/// use afraid_sim::time::SimDuration;
/// use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};
///
/// let spec = WorkloadSpec::preset(WorkloadKind::Snake);
/// let trace = spec.generate(1 << 30, SimDuration::from_secs(30), 42);
/// assert!(!trace.is_empty());
/// // Deterministic: the same seed regenerates the same trace.
/// let again = spec.generate(1 << 30, SimDuration::from_secs(30), 42);
/// assert_eq!(trace.records, again.records);
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Canonical name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Mean requests per burst.
    pub burst_len_mean: f64,
    /// Mean intra-burst inter-arrival gap (ms).
    pub intra_gap_ms: f64,
    /// Probability an idle gap comes from the short phase.
    pub idle_short_p: f64,
    /// Mean of the short idle-gap phase (ms).
    pub idle_short_ms: f64,
    /// Mean of the long idle-gap phase (ms).
    pub idle_long_ms: f64,
    /// Fraction of requests that are writes.
    pub write_prob: f64,
    /// Request sizes in bytes with weights.
    pub sizes: &'static [(f64, f64)],
    /// Fraction of the array capacity the workload touches.
    pub footprint_frac: f64,
    /// Probability a request continues the previous sequential run.
    pub seq_prob: f64,
    /// Number of hot-region slices.
    pub regions: usize,
    /// Zipf skew across regions.
    pub zipf_s: f64,
}

impl WorkloadSpec {
    /// The preset for a given workload.
    pub fn preset(kind: WorkloadKind) -> WorkloadSpec {
        match kind {
            WorkloadKind::Hplajw => WorkloadSpec {
                name: "hplajw",
                description: "single-user HP-UX: email and document editing",
                burst_len_mean: 6.0,
                intra_gap_ms: 15.0,
                idle_short_p: 0.75,
                idle_short_ms: 300.0,
                idle_long_ms: 20_000.0,
                write_prob: 0.55,
                sizes: &[(4096.0, 0.55), (8192.0, 0.35), (16384.0, 0.10)],
                footprint_frac: 0.30,
                seq_prob: 0.30,
                regions: 16,
                zipf_s: 1.1,
            },
            WorkloadKind::Snake => WorkloadSpec {
                name: "snake",
                description: "HP-UX file server for a workstation cluster",
                burst_len_mean: 12.0,
                intra_gap_ms: 8.0,
                idle_short_p: 0.85,
                idle_short_ms: 150.0,
                idle_long_ms: 8_000.0,
                write_prob: 0.45,
                sizes: &[
                    (4096.0, 0.40),
                    (8192.0, 0.40),
                    (16384.0, 0.12),
                    (65536.0, 0.08),
                ],
                footprint_frac: 0.45,
                seq_prob: 0.40,
                regions: 16,
                zipf_s: 1.0,
            },
            WorkloadKind::CelloUsr => WorkloadSpec {
                name: "cello-usr",
                description: "timesharing system: root, /usr and /users disks",
                burst_len_mean: 10.0,
                intra_gap_ms: 10.0,
                idle_short_p: 0.80,
                idle_short_ms: 200.0,
                idle_long_ms: 10_000.0,
                write_prob: 0.50,
                sizes: &[(4096.0, 0.50), (8192.0, 0.40), (16384.0, 0.10)],
                footprint_frac: 0.40,
                seq_prob: 0.30,
                regions: 16,
                zipf_s: 1.1,
            },
            WorkloadKind::CelloNews => WorkloadSpec {
                name: "cello-news",
                description: "Usenet news database: half of all cello I/Os, write-heavy",
                burst_len_mean: 15.0,
                intra_gap_ms: 11.0,
                idle_short_p: 0.88,
                idle_short_ms: 150.0,
                idle_long_ms: 3_000.0,
                write_prob: 0.75,
                sizes: &[(4096.0, 0.45), (8192.0, 0.40), (16384.0, 0.15)],
                footprint_frac: 0.50,
                seq_prob: 0.35,
                regions: 12,
                zipf_s: 1.2,
            },
            WorkloadKind::Netware => WorkloadSpec {
                name: "netware",
                description: "intensive database-loading benchmark on NetWare",
                burst_len_mean: 30.0,
                intra_gap_ms: 25.0,
                idle_short_p: 0.88,
                idle_short_ms: 300.0,
                idle_long_ms: 4_000.0,
                write_prob: 0.85,
                sizes: &[(8192.0, 0.20), (16384.0, 0.30), (65536.0, 0.50)],
                footprint_frac: 0.70,
                seq_prob: 0.70,
                regions: 8,
                zipf_s: 0.8,
            },
            WorkloadKind::Att => WorkloadSpec {
                name: "att",
                description: "production telephone-company database (busiest trace)",
                burst_len_mean: 30.0,
                intra_gap_ms: 11.0,
                idle_short_p: 0.92,
                idle_short_ms: 250.0,
                idle_long_ms: 2_500.0,
                write_prob: 0.60,
                sizes: &[(4096.0, 0.60), (8192.0, 0.40)],
                footprint_frac: 0.60,
                seq_prob: 0.10,
                regions: 24,
                zipf_s: 1.0,
            },
            WorkloadKind::As400_1 => WorkloadSpec {
                name: "as400-1",
                description: "production IBM AS/400, system 1 (busiest of the four)",
                burst_len_mean: 20.0,
                intra_gap_ms: 9.0,
                idle_short_p: 0.88,
                idle_short_ms: 250.0,
                idle_long_ms: 3_000.0,
                write_prob: 0.55,
                sizes: &[(4096.0, 0.50), (8192.0, 0.35), (16384.0, 0.15)],
                footprint_frac: 0.55,
                seq_prob: 0.20,
                regions: 16,
                zipf_s: 1.0,
            },
            WorkloadKind::As400_2 => WorkloadSpec {
                name: "as400-2",
                description: "production IBM AS/400, system 2",
                burst_len_mean: 20.0,
                intra_gap_ms: 10.0,
                idle_short_p: 0.85,
                idle_short_ms: 200.0,
                idle_long_ms: 4_000.0,
                write_prob: 0.50,
                sizes: &[(4096.0, 0.50), (8192.0, 0.35), (16384.0, 0.15)],
                footprint_frac: 0.50,
                seq_prob: 0.25,
                regions: 16,
                zipf_s: 1.0,
            },
            WorkloadKind::As400_3 => WorkloadSpec {
                name: "as400-3",
                description: "production IBM AS/400, system 3",
                burst_len_mean: 15.0,
                intra_gap_ms: 10.0,
                idle_short_p: 0.82,
                idle_short_ms: 250.0,
                idle_long_ms: 6_000.0,
                write_prob: 0.45,
                sizes: &[(4096.0, 0.55), (8192.0, 0.35), (16384.0, 0.10)],
                footprint_frac: 0.45,
                seq_prob: 0.25,
                regions: 16,
                zipf_s: 1.0,
            },
            WorkloadKind::As400_4 => WorkloadSpec {
                name: "as400-4",
                description: "production IBM AS/400, system 4 (lightest of the four)",
                burst_len_mean: 10.0,
                intra_gap_ms: 12.0,
                idle_short_p: 0.80,
                idle_short_ms: 300.0,
                idle_long_ms: 8_000.0,
                write_prob: 0.40,
                sizes: &[(4096.0, 0.55), (8192.0, 0.35), (16384.0, 0.10)],
                footprint_frac: 0.40,
                seq_prob: 0.25,
                regions: 16,
                zipf_s: 1.0,
            },
        }
    }

    /// Estimated long-run request rate (requests per second), from the
    /// renewal structure: one burst of `burst_len_mean` requests per
    /// `burst duration + mean idle gap`.
    pub fn offered_ios_per_sec(&self) -> f64 {
        let burst_secs = (self.burst_len_mean - 1.0).max(0.0) * self.intra_gap_ms / 1e3;
        let idle_secs = (self.idle_short_p * self.idle_short_ms
            + (1.0 - self.idle_short_p) * self.idle_long_ms)
            / 1e3;
        self.burst_len_mean / (burst_secs + idle_secs)
    }

    /// Mean request size in bytes.
    pub fn mean_request_bytes(&self) -> f64 {
        let total: f64 = self.sizes.iter().map(|&(_, w)| w).sum();
        self.sizes.iter().map(|&(v, w)| v * w).sum::<f64>() / total
    }

    /// Generates a trace against `capacity` bytes lasting `duration`.
    pub fn generate(&self, capacity: u64, duration: SimDuration, seed: u64) -> Trace {
        let mut rng = SplitMix64::new(seed ^ fxhash(self.name));
        let spatial = SpatialModel::new(
            capacity,
            self.footprint_frac,
            self.seq_prob,
            self.regions,
            self.zipf_s,
        );
        let gen = OnOffGenerator {
            burst_len_mean: self.burst_len_mean,
            intra_gap: Exponential::with_mean(self.intra_gap_ms),
            idle_gap: Hyperexponential::new(
                self.idle_short_p,
                self.idle_short_ms,
                self.idle_long_ms,
            ),
            write_prob: self.write_prob,
            size_dist: Empirical::new(self.sizes),
        };
        gen.generate(self.name, capacity, duration, spatial, &mut rng)
    }
}

/// Small stable string hash so each workload gets an independent RNG
/// substream from the same user seed.
fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: u64 = 8 * 1024 * 1024 * 1024; // 8 GB array

    #[test]
    fn all_presets_generate() {
        for kind in WorkloadKind::all() {
            let spec = WorkloadSpec::preset(kind);
            let t = spec.generate(CAP, SimDuration::from_secs(60), 1);
            assert!(!t.is_empty(), "{} produced no traffic", spec.name);
            assert_eq!(t.name, kind.name());
        }
    }

    #[test]
    fn names_roundtrip() {
        for kind in WorkloadKind::all() {
            assert_eq!(WorkloadKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::from_name("nope"), None);
    }

    #[test]
    fn load_ordering_matches_paper() {
        // The paper's qualitative ordering: hplajw/snake/cello-usr are
        // bursty and light; att, cello-news, netware and as400-1 run
        // the array hardest (att in IOPS, netware in bytes).
        let rate = |k| WorkloadSpec::preset(k).offered_ios_per_sec();
        let bytes = |k| {
            let spec = WorkloadSpec::preset(k);
            spec.offered_ios_per_sec() * spec.mean_request_bytes()
        };
        for heavy in [
            WorkloadKind::Att,
            WorkloadKind::CelloNews,
            WorkloadKind::Netware,
            WorkloadKind::As400_1,
        ] {
            for light in [
                WorkloadKind::Hplajw,
                WorkloadKind::Snake,
                WorkloadKind::CelloUsr,
            ] {
                assert!(
                    rate(heavy) > rate(light),
                    "{heavy:?} not heavier than {light:?}"
                );
            }
        }
        assert!(rate(WorkloadKind::Att) > rate(WorkloadKind::CelloNews));
        assert!(bytes(WorkloadKind::Netware) > bytes(WorkloadKind::CelloNews));
        assert!(rate(WorkloadKind::As400_1) > rate(WorkloadKind::As400_4));
        assert!(rate(WorkloadKind::Hplajw) < 5.0);
        assert!(rate(WorkloadKind::Att) > 30.0);
    }

    #[test]
    fn generated_rate_tracks_estimate() {
        for kind in [
            WorkloadKind::Snake,
            WorkloadKind::Att,
            WorkloadKind::As400_2,
        ] {
            let spec = WorkloadSpec::preset(kind);
            // Long window: the heavy-tailed idle gaps make short
            // samples very noisy.
            let dur = SimDuration::from_secs(2_000);
            let t = spec.generate(CAP, dur, 7);
            let measured = t.len() as f64 / dur.as_secs_f64();
            let expect = spec.offered_ios_per_sec();
            assert!(
                (measured - expect).abs() < expect * 0.35,
                "{}: measured {measured:.1}/s vs estimate {expect:.1}/s",
                spec.name
            );
        }
    }

    #[test]
    fn write_heavy_traces_are_write_heavy() {
        let t = WorkloadSpec::preset(WorkloadKind::CelloNews).generate(
            CAP,
            SimDuration::from_secs(120),
            3,
        );
        assert!(
            t.write_fraction() > 0.65,
            "cello-news wf {}",
            t.write_fraction()
        );
        let t = WorkloadSpec::preset(WorkloadKind::Netware).generate(
            CAP,
            SimDuration::from_secs(120),
            3,
        );
        assert!(
            t.write_fraction() > 0.75,
            "netware wf {}",
            t.write_fraction()
        );
    }

    #[test]
    fn workloads_use_distinct_rng_streams() {
        let a = WorkloadSpec::preset(WorkloadKind::As400_2).generate(
            CAP,
            SimDuration::from_secs(30),
            5,
        );
        let b = WorkloadSpec::preset(WorkloadKind::As400_3).generate(
            CAP,
            SimDuration::from_secs(30),
            5,
        );
        // Same user seed, different workloads: traffic must differ.
        assert_ne!(a.records, b.records);
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = WorkloadSpec::preset(WorkloadKind::Snake);
        let a = spec.generate(CAP, SimDuration::from_secs(30), 5);
        let b = spec.generate(CAP, SimDuration::from_secs(30), 5);
        assert_eq!(a.records, b.records);
    }
}
