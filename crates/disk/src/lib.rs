//! Calibrated disk drive model in the style of Ruemmler & Wilkes,
//! *An introduction to disk drive modeling* (IEEE Computer, 1994).
//!
//! The AFRAID paper drove its Pantheon simulation with "calibrated disk
//! models" of the HP C3325 (2 GB, 3.5", 5400 RPM). This crate rebuilds
//! that model class from the published description:
//!
//! * **Zoned geometry** — outer zones hold more sectors per track, so
//!   transfer rate falls from ~5.5 MB/s at the rim to ~3.7 MB/s at the
//!   hub ([`geometry`]).
//! * **Seek curve** — square-root-shaped for short seeks (arm
//!   acceleration-limited), linear for long seeks (coast-limited),
//!   with a separate single-cylinder settle time ([`seek`]).
//! * **Rotational position** — the head's angular position is a pure
//!   function of simulated time, so rotational latency is computed
//!   exactly, and spin-synchronised arrays fall out for free by giving
//!   every disk the same phase ([`disk`]).
//! * **Skewed layout** — track and cylinder skew hide head-switch and
//!   track-to-track-seek times during sequential transfers.
//! * **Request schedulers** — FCFS, CLOOK, SSTF and SCAN ([`sched`]);
//!   the paper uses CLOOK in the host driver and FCFS at the back end.
//! * **Transient faults** — an optional deterministic per-I/O fault
//!   process: media errors, command timeouts, fail-slow service
//!   inflation, and the silent classes (bit-flip reads, torn / lost /
//!   misdirected writes) that a checksum layer exists to catch
//!   ([`fault`]).
//!
//! The model is deterministic: a request's service time depends only on
//! the disk state and the simulated clock.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unimplemented)]

pub mod disk;
pub mod fault;
pub mod geometry;
pub mod model;
pub mod sched;
pub mod seek;

pub use disk::{Disk, DiskRequest, DiskStats, OpKind};
pub use fault::{
    FailSlowWindow, FaultInjector, FaultProfile, IoOutcome, SilentProfile, SilentWriteFault,
};
pub use geometry::{Chs, Geometry, Zone};
pub use model::DiskModel;
pub use sched::{Policy, Scheduler};
pub use seek::SeekProfile;

/// Bytes per sector, fixed at the 512-byte standard of the era.
pub const SECTOR_BYTES: u64 = 512;
