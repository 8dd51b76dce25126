//! Deterministic parallel experiment engine.
//!
//! The paper's headline results are matrices of independent cells —
//! (trace × parity policy) pairs, each a complete simulation run. The
//! runs share nothing mutable, so they parallelise perfectly; the only
//! hazard is *accidental* nondeterminism creeping in through scheduling
//! order. This crate keeps the fan-out honest:
//!
//! * [`pool::map_parallel`] spreads work over scoped `std` threads
//!   (crates.io is unreachable in the build environment, so no rayon)
//!   and merges results **by input index**, never by completion order —
//!   the output is bit-identical whether `jobs` is 1 or 64.
//! * [`matrix::cell_seed`] derives each cell's RNG seed from its matrix
//!   coordinates alone, so a cell's random stream is independent of
//!   which worker ran it, and of whether any other cell ran at all.
//! * [`matrix::generate_traces`] builds each workload trace once and
//!   shares it across every policy via `Arc` instead of regenerating it
//!   per cell.
//!
//! The engine is generic over the cell function: `crates/bench` feeds
//! it full simulation runs, while unit tests feed it toy closures.
//!
//! Because the clippy gate (see `clippy.toml`) keeps each cell a pure
//! function of its coordinates, results can also be memoised *across*
//! runs: [`cache::CellCache`] hashes the full coordinates with the fixed
//! [`afraid_sim::hash`] hasher and replays serialized results
//! bit-identically from `target/cell-cache/`.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unimplemented)]

pub mod cache;
pub mod matrix;
pub mod pool;

pub use cache::{CacheKey, CacheStats, CellCache, KeyBuilder};
pub use matrix::{cell_seed, generate_traces, run_matrix, CellKey};
pub use pool::{default_jobs, map_parallel};
