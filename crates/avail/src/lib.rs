//! The AFRAID paper's availability mathematics (paper §3).
//!
//! Two complementary metrics quantify data availability:
//!
//! * **MTTDL** — mean time to (first) data loss, in hours. For a
//!   RAID 5 this is the classic dual-disk-failure formula (equation 1);
//!   AFRAID adds a single-disk-failure mode active only while some
//!   stripe is unprotected (equations 2a–2c).
//! * **MDLR** — mean data loss rate, in bytes per hour: the *amount*
//!   of data expected to be lost per unit time (equations 3–5). The
//!   paper argues this is the better lens, because losing one stripe
//!   unit is qualitatively different from losing two whole disks.
//!
//! The paper's larger point — the *end-to-end availability argument* —
//! is that support components (power supplies, controllers, cabling,
//! NVRAM, external power) dominate both metrics long before the disks
//! do; [`support`] and [`power`] model those contributions.
//!
//! All equations take time in **hours** and data in **bytes**.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unimplemented)]

pub mod mdlr;
pub mod mttdl;
pub mod params;
pub mod power;
pub mod report;
pub mod support;

pub use mdlr::{
    mdlr_afraid, mdlr_corrupt, mdlr_evict, mdlr_raid0, mdlr_raid5_catastrophic, mdlr_unprotected,
};
pub use mttdl::{
    combine, mttdl_afraid, mttdl_afraid_raid_part, mttdl_afraid_unprotected, mttdl_corrupt,
    mttdl_evict, mttdl_raid0, mttdl_raid5_catastrophic,
};
pub use params::ModelParams;
pub use report::{AvailabilityReport, CorruptionExposure, DesignKind, EvictionExposure};

/// Hours, the paper's time unit for reliability quantities.
pub type Hours = f64;

/// Bytes per hour, the unit of MDLR.
pub type BytesPerHour = f64;
