//! Failure assessment: what is actually lost when a disk dies.
//!
//! "Any write to a stripe unprotects it all — not just the data being
//! written to." When a disk fails, one per-stripe rule
//! (`ArrayView::classify`) decides the dead disk's unit:
//!
//! * a **clean** stripe reconstructs its lost unit from the survivors
//!   and parity — no loss;
//! * a **dirty** stripe whose parity lives on the failed disk loses
//!   nothing (the stale parity was about to be rebuilt anyway);
//! * a **dirty** stripe whose *data* unit lives on the failed disk
//!   loses that unit's dirty rows — the bounded exposure equation (4)
//!   prices.
//!
//! It answers twice: the disposition the controller can know decides
//! what degraded mode scars and recovery declares lost; the truth the
//! shadow content model sees is what the [`DataLossReport`] measures,
//! and is cross-checked against the marks.
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
use crate::shadow::ShadowArray;

/// Bytes in one disk sector — the granularity of latent errors.
pub const SECTOR_BYTES: u64 = 512;

/// Deterministic latent sector error process for one array.
///
/// Each disk develops unreadable sectors as an independent Poisson
/// process over simulated time (exponential inter-arrival, uniform
/// sector position), seeded from the run RNG so two runs with the same
/// configuration develop byte-identical error histories. Errors stay
/// latent — invisible to the host — until a scrub tour reads the
/// sector (and repairs it from parity) or a disk failure forces the
/// loss assessment ([`ArrayView::assess`]) to reconstruct through it.
///
/// Arrival generation is lazy: [`advance`](Self::advance) materialises
/// every error with onset `<= now`, so cost is proportional to the
/// number of errors, not to elapsed time.
#[derive(Clone, Debug)]
pub struct LatentErrors {
    disks: Vec<DiskErrors>,
    /// The earliest drawn-but-not-yet-materialised onset on any disk:
    /// [`advance`](Self::advance) has nothing to do before it.
    earliest: Option<SimTime>,
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
        let mut out = LatentErrors {
            disks,
            earliest: None,
        };
        out.earliest = out.next_onset();
        out
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
            earliest: None,
        };
        for &(disk, sector, onset) in errors {
            out.disks[disk as usize].active.insert(sector, onset);
        }
        out
    }

    /// Materialises every arrival with onset `<= now`; returns at once
    /// while `now` is before every disk's next onset.
    pub fn advance(&mut self, now: SimTime) {
        if self.earliest.is_none_or(|onset| onset > now) {
            return;
        }
        for d in &mut self.disks {
            d.advance(now);
        }
        self.earliest = self.next_onset();
    }

    /// The earliest drawn-but-not-yet-materialised onset on any disk.
    fn next_onset(&self) -> Option<SimTime> {
        self.disks.iter().filter_map(|d| Some(d.next?.0)).min()
    }

    /// True while no disk holds an active (materialised, unrepaired)
    /// error, whatever its onset.
    pub fn is_clear(&self) -> bool {
        self.disks.iter().all(|d| d.active.is_empty())
    }

    /// Sectors of `disk` in `[lba, lba + sectors)` with an active
    /// (materialised, unrepaired) error whose onset is `<= at`.
    ///
    /// Call [`advance`](Self::advance) first to materialise arrivals.
    pub fn active_in(
        &self,
        disk: u32,
        lba: u64,
        sectors: u64,
        at: SimTime,
    ) -> impl Iterator<Item = u64> + '_ {
        self.disks[disk as usize]
            .active
            .range(lba..lba + sectors)
            .filter(move |&(_, &onset)| onset <= at)
            .map(|(&s, _)| s)
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
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
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

    /// Adds one stripe's truth, as [`ArrayView::classify`] found it.
    #[inline]
    pub(crate) fn record(&mut self, view: &ArrayView<'_>, stripe: u64, truth: Truth) {
        match (truth, view.layout.data_unit(stripe, self.failed_disk)) {
            (Truth::Unprotected, unit) => {
                self.declared_unprotected_units += u64::from(unit.is_some());
            }
            (Truth::Stale, None) => self.parity_only += 1,
            (Truth::Stale, Some(unit)) => {
                let m = f64::from(view.marks.granularity().bits());
                let frac = view.marks.row_mask(stripe).count_ones() as f64 / m;
                self.lost_units += 1;
                self.lost_bytes += (view.layout.unit_bytes() as f64 * frac).round() as u64;
                self.lost.push((stripe, unit));
            }
            (Truth::Corrupt(true), Some(unit)) => {
                self.corrupt_lost_units += 1;
                self.corrupt_lost.push((stripe, unit));
            }
            (Truth::Corrupt(_), _) => {}
            (Truth::Consistent, _) => {
                if let Some(latent) = view.latent {
                    let (dead, at) = (self.failed_disk, self.at);
                    assess_latent_stripe(view.layout, latent, stripe, dead, at, self);
                }
            }
        }
    }
}

/// What the controller can know of the dead disk's unit on a stripe,
/// from the marks, the regions and the corruption registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Disposition {
    /// The dead disk held the parity: every data unit survives.
    ParityOnly,
    /// A never-protected stripe keeps no parity: the data unit is gone
    /// by configuration.
    Unprotected(u32),
    /// The parity is not fresh ([`RegionMap::parity_fresh`]; after an
    /// NVRAM failure, suspect): the data unit is lost.
    Stale(u32),
    /// Fresh parity, but live corruption on the stripe: the rebuilt
    /// unit stands only if it passes its checksum.
    Poisoned(u32),
    /// Fresh parity, no live corruption: the data unit rebuilds.
    Reconstructs(u32),
}

/// What is true of a stripe: the shadow model's verdict where the run
/// keeps one, else the marks at face value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Truth {
    /// A never-protected stripe: no parity to check.
    Unprotected,
    /// The parity disagrees with the data.
    Stale,
    /// Fresh parity with live corruption; `true` when the dead data
    /// unit rebuilds to a word that fails its checksum.
    Corrupt(bool),
    /// The dead unit rebuilds, unless a latent sector error blocks it.
    Consistent,
}

/// The array state the dead-disk classifier reads; the models a run
/// does not keep are `None`.
#[derive(Clone, Copy, Debug)]
pub struct ArrayView<'a> {
    /// The array geometry.
    pub layout: &'a Layout,
    /// The marking memory.
    pub marks: &'a MarkingMemory,
    /// The per-region redundancy modes.
    pub regions: &'a RegionMap,
    /// The shadow content model: the ground truth.
    pub shadow: Option<&'a ShadowArray>,
    /// The integrity state, whose registry names corrupt stripes.
    pub integrity: Option<&'a IntegrityState>,
    /// Latent sector errors, advanced to the failure instant.
    pub latent: Option<&'a LatentErrors>,
}

impl ArrayView<'_> {
    /// Classifies the unit disk `dead` held on `stripe`. Degraded mode,
    /// power-on recovery and the loss report all decide here.
    ///
    /// # Panics
    ///
    /// Panics (in any build) if, while the NVRAM works, the shadow's
    /// XOR arithmetic disagrees with the marks on a stripe that keeps
    /// parity and carries no live corruption.
    // Inlined, as `DataLossReport::record` is: the dead-disk pass calls
    // both per stripe, and plain calls made it about 60 % slower.
    #[inline]
    pub(crate) fn classify(&self, stripe: u64, dead: u32) -> (Disposition, Truth) {
        let unit = self.layout.data_unit(stripe, dead);
        if self.regions.mode_of(stripe) == RegionMode::NeverProtect {
            let declared = unit.map_or(Disposition::ParityOnly, Disposition::Unprotected);
            return (declared, Truth::Unprotected);
        }
        let fresh = self.regions.parity_fresh(self.marks, stripe);
        let corrupt = self.integrity.is_some_and(|int| int.stripe_corrupt(stripe));
        let declared = match unit {
            None => Disposition::ParityOnly,
            Some(u) if !fresh => Disposition::Stale(u),
            Some(u) if corrupt => Disposition::Poisoned(u),
            Some(u) => Disposition::Reconstructs(u),
        };
        let mut stale = !fresh;
        if let Some(shadow) = self.shadow {
            let lost = !shadow.parity_consistent(stripe);
            if self.marks.has_failed() {
                // A suspect mark means "unknown", not "stale": the XOR
                // resolves it exactly, and there is nothing to check.
                stale = stale && lost;
            } else if !corrupt {
                // Live corruption breaks the XOR identity without a
                // mark, so only a clean stripe is cross-checked.
                #[expect(
                    clippy::panic,
                    reason = "ground-truth cross-check: marks that disagree with the XOR arithmetic mean the simulator is broken, and continuing would publish wrong loss numbers"
                )]
                if stale != lost {
                    // Dirty but consistent needs a write that restored
                    // the XOR identity by accident: version words make
                    // that effectively impossible.
                    let why = if stale {
                        "dirty but consistent"
                    } else {
                        "clean but unit unrecoverable"
                    };
                    panic!("invariant violated: stripe {stripe} {why}");
                }
            }
        }
        let truth = match (self.shadow, self.integrity) {
            _ if stale => Truth::Stale,
            _ if !corrupt => Truth::Consistent,
            // A loss unless the poisoned XOR checksums back to the
            // intent (the rot was on the dead unit, and the loss heals).
            (Some(shadow), Some(int)) => Truth::Corrupt(!int.reconstructs(shadow, stripe, dead)),
            _ => Truth::Corrupt(false),
        };
        (declared, truth)
    }

    /// Assesses the loss from disk `dead` failing at `at`, changing
    /// nothing (the fail-stop path). Panics where the classifier's
    /// cross-check fails.
    pub fn assess(&self, dead: u32, at: SimTime) -> DataLossReport {
        let mut report = DataLossReport {
            failed_disk: dead,
            at,
            dirty_stripes: self.marks.marked_count(),
            ..DataLossReport::default()
        };
        for stripe in 0..self.layout.stripes() {
            report.record(self, stripe, self.classify(stripe, dead).1);
        }
        report
    }
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
        let bad = latent.active_in(disk, lba, unit_sectors, at).count() as u64;
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

    /// The early-out in [`LatentErrors::advance`] materialises exactly
    /// what advancing every disk at every call does, over seeded
    /// streams of advances (small and large steps, repeats) and repairs
    /// at rates from sparse to several errors per step.
    #[test]
    fn advance_early_out_materialises_as_the_per_disk_loop() {
        use afraid_sim::rng::SplitMix64;
        use afraid_sim::time::SimDuration;
        let mut rng = SplitMix64::new(0x1A7E_0033);
        let mut materialised = 0;
        for case in 0..30 {
            let rate = [0.2, 2.0, 20.0][case % 3];
            let mut fast = LatentErrors::generate(5, 1 << 16, rate, rng.next_u64());
            let mut slow = fast.clone();
            let mut now = SimTime::ZERO;
            for step in 0..300 {
                let secs = match rng.next_below(3) {
                    0 => 0.0,
                    1 => rng.next_f64() * 10.0,
                    _ => rng.next_f64() * 3600.0,
                };
                now += SimDuration::from_secs_f64(secs);
                fast.advance(now);
                for d in &mut slow.disks {
                    d.advance(now);
                }
                for (disk, (a, b)) in fast.disks.iter().zip(&slow.disks).enumerate() {
                    assert_eq!(a.active, b.active, "case {case} step {step} disk {disk}");
                    assert_eq!(a.next, b.next, "case {case} step {step} disk {disk}");
                }
                assert_eq!(fast.is_clear(), fast.active_count(now) == 0);
                materialised += fast.active_count(now);
                if let Some((&sector, _)) = fast.disks[step % 5].active.first_key_value() {
                    assert!(fast.repair((step % 5) as u32, sector));
                    assert!(slow.repair((step % 5) as u32, sector));
                }
            }
        }
        assert!(materialised > 1000, "{materialised} errors materialised");
    }

    fn layout() -> Layout {
        Layout::new(5, 8192, 160)
    }

    const NO_REGIONS: &RegionMap = &RegionMap::none();

    /// An array with no regions and no integrity state.
    fn view<'a>(
        l: &'a Layout,
        marks: &'a MarkingMemory,
        shadow: Option<&'a ShadowArray>,
        latent: Option<&'a LatentErrors>,
    ) -> ArrayView<'a> {
        ArrayView {
            layout: l,
            marks,
            regions: NO_REGIONS,
            shadow,
            integrity: None,
            latent,
        }
    }

    /// The fail-stop assessment of `disk` failing at time zero.
    fn assess(
        l: &Layout,
        marks: &MarkingMemory,
        shadow: Option<&ShadowArray>,
        latent: Option<&LatentErrors>,
        disk: u32,
    ) -> DataLossReport {
        view(l, marks, shadow, latent).assess(disk, SimTime::ZERO)
    }

    #[test]
    fn clean_array_loses_nothing() {
        let l = layout();
        let marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        let shadow = ShadowArray::new(l);
        for disk in 0..5 {
            let r = assess(&l, &marks, Some(&shadow), None, disk);
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
        marks.mark(2);

        let data_disk = l.data_disk(2, 1);
        let r = assess(&l, &marks, Some(&shadow), None, data_disk);
        assert_eq!(r.lost_units, 1);
        assert_eq!(r.lost_bytes, 8192);
        assert_eq!(r.lost, vec![(2, 1)]);

        // Losing a different data disk of the same stripe still loses
        // one unit (the whole stripe is unprotected).
        let other = l.data_disk(2, 0);
        let r = assess(&l, &marks, Some(&shadow), None, other);
        assert_eq!(r.lost_units, 1);
        assert_eq!(r.lost, vec![(2, 0)]);
    }

    #[test]
    fn parity_disk_failure_is_lossless() {
        let l = layout();
        let mut marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        let mut shadow = ShadowArray::new(l);
        shadow.write_data(4, 2, 7);
        marks.mark(4);
        let pd = l.parity_disk(4);
        let r = assess(&l, &marks, Some(&shadow), None, pd);
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
        marks.mark(3);
        // Scrub.
        shadow.rebuild_parity(3);
        marks.clear(3);
        for disk in 0..5 {
            let r = assess(&l, &marks, Some(&shadow), None, disk);
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
        let r = assess(&l, &marks, None, None, failed);
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
        let _ = assess(&l, &marks, Some(&shadow), None, 0);
    }

    #[test]
    fn nvram_suspects_are_declared_stale_and_resolved_by_the_shadow() {
        let l = layout();
        let mut marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        let mut shadow = ShadowArray::new(l);
        shadow.write_data(2, 1, 0xabcd);
        marks.mark(2);
        marks.fail();
        let v = view(&l, &marks, Some(&shadow), None);
        let dead = l.data_disk(2, 1);
        // Stripe 2 really is stale; stripe `s` is only suspect.
        assert_eq!(v.classify(2, dead), (Disposition::Stale(1), Truth::Stale));
        let s = (3..l.stripes())
            .find(|&s| l.parity_disk(s) != dead)
            .unwrap();
        let u = l.data_unit(s, dead).unwrap();
        assert_eq!(
            v.classify(s, dead),
            (Disposition::Stale(u), Truth::Consistent)
        );
        let r = v.assess(dead, SimTime::ZERO);
        assert_eq!(r.dirty_stripes, l.stripes());
        assert_eq!(r.lost, vec![(2, 1)]);
        assert_eq!(r.parity_only, 0);
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
        let r = ArrayView {
            regions: &regions,
            ..view(&l, &marks, None, None)
        }
        .assess(0, SimTime::ZERO);
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
            marks.mark(s);
        }
        // Disk 0: parity for stripe 4 only (out of the dirty set none),
        // so it holds data units in all four dirty stripes.
        let r = assess(&l, &marks, None, None, 0);
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
        let r = assess(&l, &marks, None, Some(&latent), failed);
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
        let r = assess(&l, &marks, None, Some(&latent), failed);
        assert_eq!(r.latent_lost_units, 1);
        assert_eq!(r.latent_lost_bytes, SECTOR_BYTES);
        assert_eq!(r.latent_lost, vec![(3, 2)]);

        // Failing the parity disk itself: the bad parity sector was the
        // thing lost anyway — no data loss at all.
        let r = assess(&l, &marks, None, Some(&latent), pd);
        assert!(r.is_lossless());
    }

    #[test]
    fn latent_errors_on_failed_disk_are_moot() {
        let l = layout();
        let marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        // The whole disk is gone; its latent errors add nothing.
        let latent = LatentErrors::with_errors(5, &[(0, l.stripe_lba(1), SimTime::ZERO)]);
        assert!(l.parity_disk(1) != 0, "stripe 1 data unit on disk 0");
        let r = assess(&l, &marks, None, Some(&latent), 0);
        assert!(r.is_lossless());
    }

    #[test]
    fn latent_error_on_dirty_stripe_not_double_counted() {
        let l = layout();
        let mut marks = MarkingMemory::new(l.stripes(), MarkGranularity::STRIPE);
        marks.mark(2);
        let bad_disk = l.data_disk(2, 1);
        let latent = LatentErrors::with_errors(5, &[(bad_disk, l.stripe_lba(2), SimTime::ZERO)]);
        let failed = l.data_disk(2, 0);
        let r = assess(&l, &marks, None, Some(&latent), failed);
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
        let r = assess(&l, &marks, None, Some(&latent), failed);
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
