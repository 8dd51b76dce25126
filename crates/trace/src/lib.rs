//! Synthetic I/O trace substrate.
//!
//! The AFRAID paper is trace-driven: nine proprietary workloads
//! (hplajw, snake, cello-usr, cello-news, netware, ATT, AS400-1..4)
//! replayed through the Pantheon simulator. Those traces were never
//! published, so this crate synthesises stand-ins from the published
//! characterisations (\[Ruemmler93\] and the paper's own workload
//! descriptions). What AFRAID's results depend on — and what the
//! generators therefore control — is:
//!
//! * **burst/idle structure**: requests arrive in bursts separated by
//!   idle gaps whose distribution is heavy-tailed;
//! * **write fraction**: parity lag only grows on writes;
//! * **request sizes**: small updates are where RAID 5 pays;
//! * **spatial locality**: sequential runs vs. skewed random access
//!   determine seek costs and stripe-coalescing opportunities;
//! * **offered load**: how close the array runs to saturation decides
//!   whether idle-time parity rebuilding is free.
//!
//! The module layout: [`record`] defines the trace format, [`gen`] the
//! generators, and [`workloads`] the nine presets. The
//! `trace_explorer` example characterises the presets' burstiness.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unimplemented)]

pub mod gen;
pub mod record;
pub mod workloads;

pub use gen::onoff::OnOffGenerator;
pub use gen::spatial::SpatialModel;
pub use record::{IoRecord, ReqKind, Trace};
pub use workloads::{WorkloadKind, WorkloadSpec};
