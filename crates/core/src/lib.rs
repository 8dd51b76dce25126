//! AFRAID — A Frequently Redundant Array of Independent Disks.
//!
//! A reproduction of Savage & Wilkes (USENIX 1996). The core idea: a
//! RAID 5 small write needs four disk I/Os in the critical path (read
//! old data, read old parity, write data, write parity); AFRAID
//! performs just the data write, marks the stripe "unredundant" in a
//! tiny NVRAM bitmap, and rebuilds parity in the idle periods between
//! bursts. Data is *frequently* redundant rather than always so — and
//! because modern-for-1996 disks fail rarely, the availability given
//! up is small and bounded, while the performance gained is nearly
//! that of an unprotected array.
//!
//! # Quick start
//!
//! ```
//! use afraid::config::ArrayConfig;
//! use afraid::driver::{run_trace, RunOptions};
//! use afraid::policy::ParityPolicy;
//! use afraid_sim::time::SimDuration;
//! use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};
//!
//! let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
//! let trace = WorkloadSpec::preset(WorkloadKind::Hplajw).generate(
//!     16 * 1024 * 1024, // keep the doctest fast
//!     SimDuration::from_secs(5),
//!     42,
//! );
//! let result = run_trace(&cfg, &trace, &RunOptions::default());
//! assert_eq!(result.metrics.requests as usize, trace.len());
//! ```
//!
//! # Module map
//!
//! | module | contents |
//! |---|---|
//! | [`layout`] | left-symmetric RAID 5 striping |
//! | [`nvram`] | the marking memory (dirty-stripe bitmap) |
//! | [`policy`] | parity-update policies: the perf/availability dial |
//! | [`controller`] | the event-driven array controller |
//! | [`driver`] | trace-driven runs |
//! | [`metrics`] | per-run measurements |
//! | [`faults`] | disk/NVRAM failure injection, latent sector errors, loss assessment |
//! | [`health`] | per-disk EWMA fault scoreboard driving proactive eviction |
//! | [`integrity`] | per-unit checksums, verify-on-read, corruption verdicts |
//! | [`shadow`] | XOR content model that *verifies* redundancy claims |
//! | [`idle`] | idle detection |
//! | [`scrub`] | latent-error tour scrubber (idle-driven, IOPS-budgeted) |
//! | [`cache`] | the array controller's read cache |
//! | [`recovery`] | post-failure rebuild time model |
//! | [`regions`] | per-region redundancy overrides (paper §5) |
//! | [`raid6`] | RAID 6 + AFRAID cost/availability models (paper §5) |
//! | [`paritylog`] | parity-logging comparator \[Stodolsky93\] |
//! | [`report`] | glue to the availability equations |

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unimplemented)]

pub mod cache;
pub mod config;
pub mod controller;
pub mod driver;
pub mod faults;
pub mod health;
pub mod idle;
pub mod integrity;
pub mod layout;
pub mod metrics;
pub mod nvram;
pub mod paritylog;
pub mod policy;
pub mod raid6;
pub mod recovery;
pub mod regions;
pub mod report;
pub mod scrub;
pub mod shadow;

pub use config::{ArrayConfig, FailSlowConfig, FaultConfig, ScrubConfig};
pub use driver::{run_trace, RunOptions, RunResult};
pub use faults::{DataLossReport, LatentErrors};
pub use health::Scoreboard;
pub use integrity::{CorruptKind, IntegrityCounters, IntegrityState, IntegrityVerdict};
pub use layout::Layout;
pub use metrics::RunMetrics;
pub use nvram::{MarkGranularity, MarkingMemory};
pub use policy::ParityPolicy;
pub use regions::{Region, RegionMap, RegionMode};
