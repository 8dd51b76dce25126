//! Failure assessment: what is actually lost when a disk dies.
//!
//! "Any write to a stripe unprotects it all — not just the data being
//! written to." When a disk fails:
//!
//! * a **clean** stripe reconstructs its lost unit from the survivors
//!   and parity — no loss;
//! * a **dirty** stripe whose parity lives on the failed disk loses
//!   nothing (the stale parity was about to be rebuilt anyway);
//! * a **dirty** stripe whose *data* unit lives on the failed disk
//!   loses that unit's dirty rows — the bounded exposure equation (4)
//!   prices.
//!
//! When the shadow content model is enabled the assessment is
//! *verified*: the marking memory's opinion and the XOR arithmetic's
//! opinion must agree stripe by stripe.
//!
//! Disks also fail one sector at a time: [`LatentErrors`] models the
//! latent sector errors that make a *clean* stripe lossy, because the
//! reconstruction source needed to rebuild the failed disk's unit is
//! itself corrupt. Background scrubbing (see [`crate::scrub`]) exists
//! to find and repair these before a whole-disk failure exposes them.

use std::collections::BTreeMap;

use afraid_sim::rng::SplitMix64;
use afraid_sim::time::SimTime;
use serde::{Deserialize, Serialize};

use crate::integrity::IntegrityState;
use crate::layout::Layout;
use crate::nvram::MarkingMemory;
use crate::regions::{RegionMap, RegionMode};
use crate::shadow::{Reconstruction, ShadowArray};

/// Bytes in one disk sector — the granularity of latent errors.
pub const SECTOR_BYTES: u64 = 512;

/// Deterministic latent sector error process for one array.
///
/// Each disk develops unreadable sectors as an independent Poisson
/// process over simulated time (exponential inter-arrival, uniform
/// sector position), seeded from the run RNG so two runs with the same
/// configuration develop byte-identical error histories. Errors stay
/// latent — invisible to the host — until a scrub tour reads the
/// sector (and repairs it from parity) or a disk failure forces
/// [`assess_loss`] to reconstruct through it.
///
/// Arrival generation is lazy: [`advance`](Self::advance) materialises
/// every error with onset `<= now`, so cost is proportional to the
/// number of errors, not to elapsed time.
#[derive(Clone, Debug)]
pub struct LatentErrors {
    disks: Vec<DiskErrors>,
}

#[derive(Clone, Debug)]
struct DiskErrors {
    rng: SplitMix64,
    /// Mean arrivals per simulated second on this disk.
    rate_per_sec: f64,
    /// Sector address space errors are drawn from.
    sectors: u64,
    /// Earliest drawn-but-not-yet-materialised arrival.
    next: Option<(SimTime, u64)>,
    /// Materialised, unrepaired errors: sector -> onset time.
    active: BTreeMap<u64, SimTime>,
}

impl DiskErrors {
    fn draw(&mut self, after: SimTime) -> Option<(SimTime, u64)> {
        if self.rate_per_sec <= 0.0 || self.sectors == 0 {
            return None;
        }
        let dt_secs = -self.rng.next_f64_open().ln() / self.rate_per_sec;
        let sector = self.rng.next_below(self.sectors);
        Some((
            after + afraid_sim::time::SimDuration::from_secs_f64(dt_secs),
            sector,
        ))
    }

    fn advance(&mut self, now: SimTime) {
        while let Some((onset, sector)) = self.next {
            if onset > now {
                break;
            }
            // A second hit on an already-bad sector changes nothing;
            // keep the earliest onset.
            self.active.entry(sector).or_insert(onset);
            self.next = self.draw(onset);
        }
    }
}

impl LatentErrors {
    /// Builds the process for `disks` disks of `disk_sectors` sectors
    /// each, with `rate_per_disk_hour` mean arrivals per disk-hour.
    /// Each disk gets an independent substream forked from `seed`.
    pub fn generate(disks: u32, disk_sectors: u64, rate_per_disk_hour: f64, seed: u64) -> Self {
        assert!(
            rate_per_disk_hour.is_finite() && rate_per_disk_hour >= 0.0,
            "latent rate must be finite and non-negative"
        );
        let mut master = SplitMix64::new(seed);
        let disks = (0..disks)
            .map(|_| {
                let mut d = DiskErrors {
                    rng: master.fork(),
                    rate_per_sec: rate_per_disk_hour / 3600.0,
                    sectors: disk_sectors,
                    next: None,
                    active: BTreeMap::new(),
                };
                d.next = d.draw(SimTime::ZERO);
                d
            })
            .collect();
        LatentErrors { disks }
    }

    /// Builds a process with no arrival stream and the given errors
    /// pre-seeded: `(disk, sector, onset)`. For tests.
    pub fn with_errors(disks: u32, errors: &[(u32, u64, SimTime)]) -> Self {
        let mut out = LatentErrors {
            disks: (0..disks)
                .map(|_| DiskErrors {
                    rng: SplitMix64::new(0),
                    rate_per_sec: 0.0,
                    sectors: 0,
                    next: None,
                    active: BTreeMap::new(),
                })
                .collect(),
        };
        for &(disk, sector, onset) in errors {
            out.disks[disk as usize].active.insert(sector, onset);
        }
        out
    }

    /// Materialises every arrival with onset `<= now`.
    pub fn advance(&mut self, now: SimTime) {
        for d in &mut self.disks {
            d.advance(now);
        }
    }

    /// Sectors of `disk` in `[lba, lba + sectors)` with an active
    /// (materialised, unrepaired) error whose onset is `<= at`.
    ///
    /// Call [`advance`](Self::advance) first to materialise arrivals.
    pub fn active_in(&self, disk: u32, lba: u64, sectors: u64, at: SimTime) -> Vec<u64> {
        self.disks[disk as usize]
            .active
            .range(lba..lba + sectors)
            .filter(|&(_, &onset)| onset <= at)
            .map(|(&s, _)| s)
            .collect()
    }

    /// True if `disk` has an active error exactly at `sector`.
    pub fn active_at(&self, disk: u32, sector: u64, at: SimTime) -> bool {
        self.disks[disk as usize]
            .active
            .get(&sector)
            .is_some_and(|&onset| onset <= at)
    }

    /// Clears the error at `(disk, sector)` after a successful repair
    /// write. Returns whether an error was present.
    pub fn repair(&mut self, disk: u32, sector: u64) -> bool {
        self.disks[disk as usize].active.remove(&sector).is_some()
    }

    /// Total active errors with onset `<= at`, across all disks.
    pub fn active_count(&self, at: SimTime) -> u64 {
        self.disks
            .iter()
            .map(|d| d.active.values().filter(|&&onset| onset <= at).count() as u64)
            .sum()
    }
}

/// Outcome of a disk failure.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DataLossReport {
    /// Which disk failed.
    pub failed_disk: u32,
    /// When it failed.
    pub at: SimTime,
    /// Stripes that were unredundant at the moment of failure.
    pub dirty_stripes: u64,
    /// Dirty stripes whose lost unit was the parity unit (no data
    /// loss).
    pub parity_only: u64,
    /// Data units actually lost.
    pub lost_units: u64,
    /// Bytes of data lost (dirty rows of lost units).
    pub lost_bytes: u64,
    /// `(stripe, unit)` of each lost data unit, in stripe order.
    pub lost: Vec<(u64, u32)>,
    /// Data units lost inside declared-unprotected
    /// ([`RegionMode::NeverProtect`]) regions — storage the operator
    /// chose to run as RAID 0, accounted separately from AFRAID's
    /// exposure window.
    pub declared_unprotected_units: u64,
    /// Data units of *clean* stripes rendered partly unreadable by
    /// latent sector errors at the moment of failure — either the
    /// bad sector itself, or the failed disk's unit where a survivor's
    /// corruption blocks reconstruction.
    pub latent_lost_units: u64,
    /// Bytes lost to latent sector errors (sector granularity).
    pub latent_lost_bytes: u64,
    /// `(stripe, unit)` of each latent-lost data unit, in stripe order.
    pub latent_lost: Vec<(u64, u32)>,
    /// Data units of *clean* stripes lost because live silent
    /// corruption poisoned their reconstruction: the failed disk's
    /// unit XORs back to a word that fails its checksum. Corruptions
    /// on the dead unit itself are healed by the failure (parity still
    /// encodes the intent) and are not counted here.
    pub corrupt_lost_units: u64,
    /// `(stripe, unit)` of each corruption-lost data unit, in stripe
    /// order.
    pub corrupt_lost: Vec<(u64, u32)>,
}

impl DataLossReport {
    /// True if the failure lost no client data — no dirty-stripe
    /// exposure, latent-sector corruption, or silent-corruption
    /// poisoning.
    pub fn is_lossless(&self) -> bool {
        self.lost_units == 0 && self.latent_lost_units == 0 && self.corrupt_lost_units == 0
    }
}

/// Assesses the loss from `failed_disk` failing at `at`.
///
/// Pass `latent` (already [`advance`](LatentErrors::advance)d to `at`)
/// to additionally account latent-sector losses on clean stripes: a
/// clean stripe normally reconstructs the failed disk's unit, but not
/// through a corrupt survivor sector.
///
/// # Panics
///
/// Panics (in any build) if a shadow model is supplied and its XOR
/// arithmetic disagrees with the marking memory — that would mean the
/// controller violated the AFRAID invariant.
#[expect(
    clippy::too_many_arguments,
    reason = "each optional model is an independent input to the loss assessment"
)]
pub fn assess_loss(
    layout: &Layout,
    marks: &MarkingMemory,
    shadow: Option<&ShadowArray>,
    regions: &RegionMap,
    latent: Option<&LatentErrors>,
    integrity: Option<&IntegrityState>,
    failed_disk: u32,
    at: SimTime,
) -> DataLossReport {
    let mut report = DataLossReport {
        failed_disk,
        at,
        dirty_stripes: marks.marked_count(),
        parity_only: 0,
        lost_units: 0,
        lost_bytes: 0,
        lost: Vec::new(),
        declared_unprotected_units: 0,
        latent_lost_units: 0,
        latent_lost_bytes: 0,
        latent_lost: Vec::new(),
        corrupt_lost_units: 0,
        corrupt_lost: Vec::new(),
    };
    let m = f64::from(marks.granularity().bits());
    // After an NVRAM failure every un-swept stripe is marked "suspect":
    // the mark means "unknown", not "known stale", so the marks-vs-XOR
    // cross-check does not apply, and with a shadow model the *actual*
    // loss can be resolved exactly (really-stale suspects only).
    let nvram_suspect = marks.has_failed();
    for stripe in 0..layout.stripes() {
        let mut dirty = marks.is_marked(stripe);
        // The failed disk's data unit here, or `None` if it held parity.
        let failed_unit = layout.data_unit(stripe, failed_disk);

        if regions.mode_of(stripe) == RegionMode::NeverProtect {
            // Declared-unprotected storage: never marked, never
            // scrubbed; any data unit on the failed disk is gone by
            // configuration. The marks-vs-XOR cross-check does not
            // apply here.
            if failed_unit.is_some() {
                report.declared_unprotected_units += 1;
            }
            continue;
        }

        // Live silent corruption breaks the XOR identity *without* a
        // mark: the marks-vs-XOR cross-check below does not apply to
        // such stripes, and their loss is assessed by checksum.
        let corrupt = integrity.is_some_and(|int| int.stripe_corrupt(stripe));

        if nvram_suspect {
            if let Some(shadow) = shadow {
                if dirty && shadow.reconstruct(stripe, failed_disk) == Reconstruction::Recovered {
                    // Suspect but actually consistent: no loss.
                    dirty = false;
                }
            }
        } else if corrupt {
            // Exempt from the cross-check; assessed below.
        } else if let Some(shadow) = shadow {
            // The shadow's verdict on the failed disk's unit must match
            // the marking memory: clean => recoverable, dirty =>
            // unrecoverable (for both data and parity units, since
            // stale parity fails the XOR identity in both directions).
            let recon = shadow.reconstruct(stripe, failed_disk);
            match (dirty, recon) {
                (false, Reconstruction::Recovered) | (true, Reconstruction::Lost) => {}
                #[expect(
                    clippy::panic,
                    reason = "ground-truth cross-check: a clean mark over an unrecoverable unit means the simulator is broken, and continuing would publish wrong loss numbers"
                )]
                (false, Reconstruction::Lost) => {
                    panic!("invariant violated: stripe {stripe} clean but unit unrecoverable")
                }
                #[expect(
                    clippy::panic,
                    reason = "ground-truth cross-check, same contract as the clean-but-lost arm above"
                )]
                (true, Reconstruction::Recovered) => {
                    // Possible only if a write happened to restore the
                    // XOR identity by accident; version words make this
                    // effectively impossible, so flag it.
                    panic!("invariant violated: stripe {stripe} dirty but consistent")
                }
            }
        }

        if !dirty {
            if corrupt {
                // The failed disk's unit reconstructs to whatever the
                // poisoned XOR yields. When that candidate checksums
                // back to the client's intent, the corruption was on
                // the dead unit itself and the failure heals it; any
                // other case is a loss.
                if let (Some(unit), Some(shadow), Some(int)) = (failed_unit, shadow, integrity) {
                    let candidate = shadow.xor_survivors(stripe, failed_disk);
                    if !int.verify(stripe, unit, candidate) {
                        report.corrupt_lost_units += 1;
                        report.corrupt_lost.push((stripe, unit));
                    }
                }
                continue;
            }
            // The stripe reconstructs cleanly through parity — unless a
            // latent sector error has silently corrupted a survivor.
            if let Some(latent) = latent {
                assess_latent_stripe(layout, latent, stripe, failed_disk, at, &mut report);
            }
            continue;
        }
        if let Some(unit) = failed_unit {
            report.lost_units += 1;
            let frac = marks.row_mask(stripe).count_ones() as f64 / m;
            report.lost_bytes += (layout.unit_bytes() as f64 * frac).round() as u64;
            report.lost.push((stripe, unit));
        } else {
            report.parity_only += 1;
        }
    }
    report
}

/// Accounts latent-sector losses for one clean stripe.
///
/// A bad sector on a surviving *data* unit loses that sector outright.
/// Any bad survivor sector (data or parity) also makes the failed
/// disk's data unit unreconstructable at that row offset, so the
/// failed unit is charged those sectors too (capped at the unit size).
fn assess_latent_stripe(
    layout: &Layout,
    latent: &LatentErrors,
    stripe: u64,
    failed_disk: u32,
    at: SimTime,
    report: &mut DataLossReport,
) {
    let lba = layout.stripe_lba(stripe);
    let unit_sectors = layout.unit_sectors();
    let mut survivor_bad: u64 = 0;
    for disk in 0..layout.disks() {
        if disk == failed_disk {
            continue;
        }
        let bad = latent.active_in(disk, lba, unit_sectors, at).len() as u64;
        if bad == 0 {
            continue;
        }
        survivor_bad += bad;
        if let Some(unit) = layout.data_unit(stripe, disk) {
            report.latent_lost_units += 1;
            report.latent_lost_bytes += bad * SECTOR_BYTES;
            report.latent_lost.push((stripe, unit));
        }
    }
    if let Some(unit) = layout
        .data_unit(stripe, failed_disk)
        .filter(|_| survivor_bad > 0)
    {
        report.latent_lost_units += 1;
        report.latent_lost_bytes += survivor_bad.min(unit_sectors) * SECTOR_BYTES;
        report.latent_lost.push((stripe, unit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvram::MarkGranularity;
    use crate::regions::Region;

    fn layout() -> Layout {
        Layout::new(5, 8192, 160)
    }

    #[test]
    fn clean_array_loses_nothing() {
        let l = layout();
        let marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        let shadow = ShadowArray::new(l);
        for disk in 0..5 {
            let r = assess_loss(
                &l,
                &marks,
                Some(&shadow),
                &RegionMap::none(),
                None,
                None,
                disk,
                SimTime::ZERO,
            );
            assert!(r.is_lossless());
            assert_eq!(r.dirty_stripes, 0);
        }
    }

    #[test]
    fn dirty_stripe_loses_exactly_its_unit_on_the_failed_disk() {
        let l = layout();
        let mut marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        let mut shadow = ShadowArray::new(l);
        // AFRAID-style write to stripe 2, unit 1 (disk 3 holds parity
        // for stripe 1... compute from layout).
        shadow.write_data(2, 1, 0xabcd);
        marks.mark(2, 0, 1);

        let data_disk = l.data_disk(2, 1);
        let r = assess_loss(
            &l,
            &marks,
            Some(&shadow),
            &RegionMap::none(),
            None,
            None,
            data_disk,
            SimTime::ZERO,
        );
        assert_eq!(r.lost_units, 1);
        assert_eq!(r.lost_bytes, 8192);
        assert_eq!(r.lost, vec![(2, 1)]);

        // Losing a different data disk of the same stripe still loses
        // one unit (the whole stripe is unprotected).
        let other = l.data_disk(2, 0);
        let r = assess_loss(
            &l,
            &marks,
            Some(&shadow),
            &RegionMap::none(),
            None,
            None,
            other,
            SimTime::ZERO,
        );
        assert_eq!(r.lost_units, 1);
        assert_eq!(r.lost, vec![(2, 0)]);
    }

    #[test]
    fn parity_disk_failure_is_lossless() {
        let l = layout();
        let mut marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        let mut shadow = ShadowArray::new(l);
        shadow.write_data(4, 2, 7);
        marks.mark(4, 0, 1);
        let pd = l.parity_disk(4);
        let r = assess_loss(
            &l,
            &marks,
            Some(&shadow),
            &RegionMap::none(),
            None,
            None,
            pd,
            SimTime::ZERO,
        );
        assert!(r.is_lossless());
        assert_eq!(r.parity_only, 1);
        assert_eq!(r.dirty_stripes, 1);
    }

    #[test]
    fn scrubbed_stripe_recovers() {
        let l = layout();
        let mut marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        let mut shadow = ShadowArray::new(l);
        shadow.write_data(3, 0, 42);
        marks.mark(3, 0, 1);
        // Scrub.
        shadow.rebuild_parity(3);
        marks.clear(3);
        for disk in 0..5 {
            let r = assess_loss(
                &l,
                &marks,
                Some(&shadow),
                &RegionMap::none(),
                None,
                None,
                disk,
                SimTime::ZERO,
            );
            assert!(r.is_lossless(), "disk {disk}");
        }
    }

    #[test]
    fn sub_row_marking_bounds_loss() {
        let l = layout();
        let mut marks = MarkingMemory::new(l.stripes(), MarkGranularity::rows(8));
        // One 1 KB row dirty out of 8.
        marks.mark_rows(5, 8192, 0, 1024);
        let failed = l.data_disk(5, 2);
        let r = assess_loss(
            &l,
            &marks,
            None,
            &RegionMap::none(),
            None,
            None,
            failed,
            SimTime::ZERO,
        );
        assert_eq!(r.lost_units, 1);
        assert_eq!(r.lost_bytes, 1024);
    }

    #[test]
    #[should_panic(expected = "invariant violated")]
    fn shadow_catches_unmarked_staleness() {
        let l = layout();
        let marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        let mut shadow = ShadowArray::new(l);
        // A buggy controller wrote data without marking.
        shadow.write_data(1, 0, 13);
        let _ = assess_loss(
            &l,
            &marks,
            Some(&shadow),
            &RegionMap::none(),
            None,
            None,
            0,
            SimTime::ZERO,
        );
    }

    #[test]
    fn never_protect_regions_counted_separately() {
        let l = layout();
        let marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        let regions = RegionMap::new(vec![Region {
            first_stripe: 0,
            stripes: 3,
            mode: RegionMode::NeverProtect,
        }]);
        // No marks anywhere, but the declared-unprotected region loses
        // its data units on the failed disk (unless it held parity).
        let r = assess_loss(&l, &marks, None, &regions, None, None, 0, SimTime::ZERO);
        let expect = (0..3u64).filter(|&s| l.parity_disk(s) != 0).count() as u64;
        assert_eq!(r.declared_unprotected_units, expect);
        assert!(
            r.is_lossless(),
            "declared-unprotected loss is not AFRAID loss"
        );
    }

    #[test]
    fn multiple_dirty_stripes_accumulate() {
        let l = layout();
        let mut marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        for s in [1, 2, 3, 7] {
            marks.mark(s, 0, 1);
        }
        // Disk 0: parity for stripe 4 only (out of the dirty set none),
        // so it holds data units in all four dirty stripes.
        let r = assess_loss(
            &l,
            &marks,
            None,
            &RegionMap::none(),
            None,
            None,
            0,
            SimTime::ZERO,
        );
        let expect_parity = [1u64, 2, 3, 7]
            .iter()
            .filter(|&&s| l.parity_disk(s) == 0)
            .count() as u64;
        assert_eq!(r.parity_only, expect_parity);
        assert_eq!(r.lost_units, 4 - expect_parity);
        assert_eq!(r.lost_bytes, r.lost_units * 8192);
    }

    #[test]
    fn latent_error_on_survivor_data_unit_loses_two_units() {
        let l = layout();
        let marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        // One bad sector on stripe 2's data unit 1; fail a *different*
        // data disk of the same stripe. The bad sector is lost, and the
        // failed unit cannot be reconstructed at that row offset.
        let bad_disk = l.data_disk(2, 1);
        let bad_sector = l.stripe_lba(2) + 3;
        let latent = LatentErrors::with_errors(5, &[(bad_disk, bad_sector, SimTime::ZERO)]);
        let failed = l.data_disk(2, 0);
        let r = assess_loss(
            &l,
            &marks,
            None,
            &RegionMap::none(),
            Some(&latent),
            None,
            failed,
            SimTime::ZERO,
        );
        assert!(!r.is_lossless());
        assert_eq!(r.lost_units, 0, "no dirty-stripe loss");
        assert_eq!(r.latent_lost_units, 2);
        assert_eq!(r.latent_lost_bytes, 2 * SECTOR_BYTES);
        assert_eq!(r.latent_lost, vec![(2, 1), (2, 0)]);
    }

    #[test]
    fn latent_error_on_parity_unit_blocks_reconstruction_only() {
        let l = layout();
        let marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        let pd = l.parity_disk(3);
        let bad_sector = l.stripe_lba(3);
        let latent = LatentErrors::with_errors(5, &[(pd, bad_sector, SimTime::ZERO)]);
        // Failing a data disk: its unit is unreconstructable at that
        // offset, but the parity sector itself is not client data.
        let failed = l.data_disk(3, 2);
        let r = assess_loss(
            &l,
            &marks,
            None,
            &RegionMap::none(),
            Some(&latent),
            None,
            failed,
            SimTime::ZERO,
        );
        assert_eq!(r.latent_lost_units, 1);
        assert_eq!(r.latent_lost_bytes, SECTOR_BYTES);
        assert_eq!(r.latent_lost, vec![(3, 2)]);

        // Failing the parity disk itself: the bad parity sector was the
        // thing lost anyway — no data loss at all.
        let r = assess_loss(
            &l,
            &marks,
            None,
            &RegionMap::none(),
            Some(&latent),
            None,
            pd,
            SimTime::ZERO,
        );
        assert!(r.is_lossless());
    }

    #[test]
    fn latent_errors_on_failed_disk_are_moot() {
        let l = layout();
        let marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        // The whole disk is gone; its latent errors add nothing.
        let latent = LatentErrors::with_errors(5, &[(0, l.stripe_lba(1), SimTime::ZERO)]);
        assert!(l.parity_disk(1) != 0, "stripe 1 data unit on disk 0");
        let r = assess_loss(
            &l,
            &marks,
            None,
            &RegionMap::none(),
            Some(&latent),
            None,
            0,
            SimTime::ZERO,
        );
        assert!(r.is_lossless());
    }

    #[test]
    fn latent_error_on_dirty_stripe_not_double_counted() {
        let l = layout();
        let mut marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        marks.mark(2, 0, 1);
        let bad_disk = l.data_disk(2, 1);
        let latent = LatentErrors::with_errors(5, &[(bad_disk, l.stripe_lba(2), SimTime::ZERO)]);
        let failed = l.data_disk(2, 0);
        let r = assess_loss(
            &l,
            &marks,
            None,
            &RegionMap::none(),
            Some(&latent),
            None,
            failed,
            SimTime::ZERO,
        );
        // The dirty stripe already lost its whole unit; latent
        // accounting skips it.
        assert_eq!(r.lost_units, 1);
        assert_eq!(r.latent_lost_units, 0);
    }

    #[test]
    fn future_onset_errors_do_not_count() {
        let l = layout();
        let marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        let bad_disk = l.data_disk(2, 1);
        let later = SimTime::ZERO + afraid_sim::time::SimDuration::from_secs_f64(10.0);
        let latent = LatentErrors::with_errors(5, &[(bad_disk, l.stripe_lba(2), later)]);
        let failed = l.data_disk(2, 0);
        let r = assess_loss(
            &l,
            &marks,
            None,
            &RegionMap::none(),
            Some(&latent),
            None,
            failed,
            SimTime::ZERO,
        );
        assert!(r.is_lossless());
    }

    #[test]
    fn generated_process_is_deterministic_and_rate_scaled() {
        let mut a = LatentErrors::generate(5, 40_000, 3600.0, 42);
        let mut b = LatentErrors::generate(5, 40_000, 3600.0, 42);
        let hour = SimTime::ZERO + afraid_sim::time::SimDuration::from_secs_f64(3600.0);
        a.advance(hour);
        b.advance(hour);
        assert_eq!(a.active_count(hour), b.active_count(hour));
        // ~1 error/disk/sec over an hour on 5 disks: expect thousands.
        let n = a.active_count(hour);
        assert!(n > 1_000, "got {n} errors");
        // Zero rate generates nothing.
        let mut z = LatentErrors::generate(5, 40_000, 0.0, 42);
        z.advance(hour);
        assert_eq!(z.active_count(hour), 0);
    }

    #[test]
    fn repair_clears_the_error() {
        let mut latent = LatentErrors::with_errors(3, &[(1, 77, SimTime::ZERO)]);
        assert!(latent.active_at(1, 77, SimTime::ZERO));
        assert!(latent.repair(1, 77));
        assert!(!latent.active_at(1, 77, SimTime::ZERO));
        assert!(!latent.repair(1, 77), "second repair is a no-op");
    }
}
