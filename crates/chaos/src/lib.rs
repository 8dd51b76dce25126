//! Deterministic chaos harness: crash/power-loss injection with
//! verified recovery.
//!
//! AFRAID's whole bet is that the NVRAM dirty-stripe bitmap plus the
//! surviving disks are sufficient to recover a crashed array without
//! losing anything the design did not already price in. This crate
//! converts that claim from prose into a machine-checked invariant:
//!
//! 1. pick a **cut point** `k` — a count of processed events;
//! 2. replay the simulation deterministically and cut the power after
//!    exactly `k` events ([`afraid::driver::run_to_cut`]);
//! 3. optionally let the crash take a disk and/or the NVRAM with it
//!    ([`afraid::recovery::CrashImage::kill_disk`] /
//!    [`CrashImage::kill_nvram`](afraid::recovery::CrashImage::kill_nvram));
//! 4. run the power-on recovery state machine
//!    ([`afraid::recovery::replay`]), which sees only what a real
//!    controller would: the marking memory and the surviving disks;
//! 5. **byte-check** the recovered array against the shadow model's
//!    ground truth and judge the cut ([`verdict::judge`]).
//!
//! A sweep replays its trace once per worker, not once per cut:
//! [`afraid::driver::run_to_cuts`] captures a chunk of sorted cuts in
//! one pass, chunks fan out through [`afraid_exp::map_parallel`]
//! (bit-identical at any `--jobs`), and [`afraid_exp::CellCache`]
//! memoises a whole sweep as one entry.
//!
//! The scenarios ([`scenario::Scenario`]) aim the cuts at the states
//! the paper's failure-mode table worries about: mid-scrub, mid-
//! rebuild, mid-eviction-drain, and crashes that destroy the NVRAM
//! and a disk together.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unimplemented)]

pub mod scenario;
pub mod sweep;
pub mod verdict;

pub use scenario::{ChaosSpec, Scenario};
pub use sweep::{cut_points, summarize, sweep, SweepSummary, CHAOS_SCHEMA};
pub use verdict::{judge, CutVerdict};
