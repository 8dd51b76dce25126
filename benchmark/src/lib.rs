//! The repository benchmark: one command that times the AFRAID
//! simulator's three user-facing jobs (the paper's policy grid, chaos
//! crash-cut sweeps and fault studies) end to end, gates their outputs
//! for correctness, and in a separate traced run breaks the time down
//! by layer. See `NOTES.md` for the workloads, baselines and method.

pub mod cpu;
pub mod gate;
pub mod layers;
pub mod report;
pub mod run;
pub mod stats;
pub mod workload;
