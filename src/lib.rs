//! Umbrella crate for the AFRAID reproduction.
//!
//! This crate re-exports the workspace's public surface so that the
//! examples and integration tests (and downstream users who want a
//! single dependency) can reach everything through one import:
//!
//! * [`sim`] — deterministic discrete-event simulation kernel.
//! * [`disk`] — calibrated disk model (Ruemmler-style, HP C3325 preset).
//! * [`trace`] — synthetic workload generators.
//! * [`avail`] — the paper's availability mathematics (MTTDL, MDLR).
//! * [`array`](mod@array) — the AFRAID array controller itself: layouts, policies,
//!   marking memory, scrubber, failure injection, and the end-to-end
//!   trace-driven simulation driver.
//!
//! See `README.md` for a tour and `DESIGN.md` for the system inventory.

pub use afraid as array;
pub use afraid_avail as avail;
pub use afraid_disk as disk;
pub use afraid_sim as sim;
pub use afraid_trace as trace;
