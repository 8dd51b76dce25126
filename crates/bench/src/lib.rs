//! Experiment harness and command-line front door for the AFRAID
//! reproduction.
//!
//! * [`cli`] — `afraid-cli`, the workspace's only binary: one typed
//!   parser for `run`, `sweep`, `paper`, `chaos`, `integrity`,
//!   `workloads` and `policies`. `src/bin/afraid-cli.rs` is a thin
//!   `main` around [`cli::main`], so tests drive the front end
//!   in-process.
//! * [`paper`] — the renderers behind `afraid-cli paper
//!   <fig1|table1|table2|table3|table4|fig3|fig4|ablation|all>`, which
//!   regenerates every table and figure of the paper's evaluation.
//!   Tables 2–4 and Figures 3–4 read one workload × policy
//!   [`paper::Matrix`], simulated once per call.
//! * [`harness`] — cell plumbing: the policy sweep, the matrix
//!   fan-out, and table formatting.
//!
//! Example: `cargo run --release --bin afraid-cli -- paper table2 --secs
//! 1800` (every simulated artifact defaults to 600 s traces; the
//! EXPERIMENTS.md results use 1800). This crate may read the clock, the
//! environment and the file system (see its `clippy.toml`); the
//! simulator crates may not.

pub mod cli;
pub mod harness;
pub mod paper;
