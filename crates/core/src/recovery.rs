//! Post-failure recovery: the crash-replay state machine and the
//! paper's analytic recovery-time models.
//!
//! # Crash recovery ([`CrashImage`] / [`replay`])
//!
//! AFRAID's availability argument rests on one mechanism: after a
//! crash or power loss, the NVRAM dirty-stripe bitmap plus the
//! surviving disks are *sufficient* to reconstruct a fully redundant
//! array without losing any byte the design did not already price in.
//! [`CrashImage`] captures exactly the state that survives a power
//! cut — the marking memory, the region map, the durable content
//! words, and which disk (if any) is dead — and [`replay`] runs the
//! recovery state machine a real controller would run at power-on.
//! A stripe's parity is *fresh* when [`RegionMap::parity_fresh`] says
//! so; it is *not fresh* when the stripe is marked, or lies in a
//! never-protected region, which keeps no parity:
//!
//! 1. **No dead disk**: every marked stripe gets its parity rebuilt
//!    from the (intact) data units; the rest are trusted as-is, and a
//!    never-protected stripe is left without parity. Spuriously dirty
//!    stripes — marked, but consistent, because the crash landed
//!    between the mark and the deferred write — cost one wasted scrub
//!    and nothing else.
//! 2. **Dead disk**: each stripe follows the dead-disk rule the
//!    degraded controller follows (`ArrayView::classify`). Where the
//!    dead disk held the parity (`Disposition::ParityOnly`), all data
//!    survives and recovery recomputes parity onto the spare. Where it
//!    held data under fresh parity (`Disposition::Reconstructs`,
//!    `Disposition::Poisoned`), the unit is the XOR of the survivors.
//!    Where parity is not fresh (`Disposition::Stale`,
//!    `Disposition::Unprotected`), that value is *undefined*:
//!    recovery declares the unit lost (the paper's bounded exposure, or
//!    RAID 0 by configuration) and absorbs the XOR value as its defined
//!    content so the array leaves recovery consistent.
//! 3. **NVRAM also lost**: the marking memory reports
//!    [`MarkingMemory::has_failed`] and marks every stripe that keeps
//!    parity, so every dead-disk data unit is declared lost — a
//!    conservative superset of the true loss, never a silent pass.
//!
//! With the integrity subsystem on, every unit's fate goes through the
//! controller's own repair-or-declare rule: surviving data units through
//! [`IntegrityState::resolve`] (repairable only on an intact stripe with
//! fresh parity) and the dead disk's data unit through
//! [`IntegrityState::reconstruct`], by the same function the
//! controller's `enter_degraded` calls.
//!
//! The chaos harness (`afraid-chaos`) byte-checks the outcome against
//! the shadow model's ground truth at thousands of cut points per
//! trace. Both sides cost what the crash dirtied, not what the array
//! holds: a stripe no write touched ([`touched_rows`]) holds its seed
//! content everywhere, so [`replay`] gives per-unit work only to the
//! touched and the marked stripes, and the judge sweeps only the
//! touched ones.
//!
//! # Analytic time models
//!
//! Two sweeps matter in the paper's §3:
//!
//! * After a **disk replacement**, every stripe's lost unit is
//!   reconstructed onto the spare: a whole-disk read of each survivor
//!   plus a whole-disk write, bandwidth-limited by one spindle's
//!   sustained rate, slowed by whatever fraction of disk time client
//!   traffic keeps taking. Its duration is the MTTR window during
//!   which a second failure is catastrophic.
//! * After a **marking-memory failure**, parity must be rebuilt for
//!   the whole array ("about ten minutes for an array using 2 GB
//!   disks that can read at a sustained rate of 5 MB/s"); a disk
//!   failure inside that window has unbounded-but-small exposure.

use afraid_disk::model::DiskModel;
use afraid_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::faults::{ArrayView, Disposition};
use crate::integrity::{reconstruct_unit, IntegrityState, IntegrityVerdict};
use crate::nvram::{MarkingMemory, StripeSet};
use crate::regions::RegionMap;
use crate::shadow::ShadowArray;

/// The state that survives a power cut, captured at an event
/// boundary.
///
/// Everything else the controller holds — the event queue, in-flight
/// requests, scrub and rebuild batches, retry state, health scores —
/// is volatile and deliberately absent: a crash erases it, and
/// recovery must succeed without it.
#[derive(Clone, Debug)]
pub struct CrashImage {
    /// NVRAM contents: the only controller metadata that survives.
    pub marks: MarkingMemory,
    /// The per-region redundancy modes. Configuration, not state: it
    /// survives any crash, and with the marks it decides which
    /// stripes' parity is fresh ([`RegionMap::parity_fresh`]).
    pub regions: RegionMap,
    /// Ground-truth durable content words of every unit, as of the
    /// cut. Writes are durable at issue in the shadow model, so this
    /// is "what the platters hold" at the event boundary.
    pub shadow: ShadowArray,
    /// The dead disk, if the array was degraded at the cut (or the
    /// crash itself took a disk — see [`CrashImage::kill_disk`]).
    pub failed_disk: Option<u32>,
    /// `(stripe, unit)` pairs already declared lost *before* the
    /// crash: scarred units whose reconstruction garbage was absorbed
    /// as defined content when the disk failed mid-run.
    pub scarred: Vec<(u64, u32)>,
    /// The integrity subsystem's state at the cut, when enabled. The
    /// checksum map models NVRAM/on-platter block-integrity metadata
    /// (written with the data it covers), so it survives a power cut
    /// and anchors the power-on write-intent cross-check.
    pub integrity: Option<IntegrityState>,
    /// Simulated instant of the cut.
    pub at: SimTime,
    /// Events processed before the power was cut.
    pub events_processed: u64,
}

impl CrashImage {
    /// The crash takes disk `disk` with it: its platters are
    /// unreadable at power-on. The shadow words are left intact (they
    /// are the harness's ground truth); [`replay`] scrambles the dead
    /// disk's words before reconstructing them.
    ///
    /// # Panics
    ///
    /// Panics if a disk is already dead — a double failure loses the
    /// array outright, which is outside the recovery model.
    pub fn kill_disk(&mut self, disk: u32) {
        assert!(
            self.failed_disk.is_none(),
            "disk {} already dead: a second failure is array loss",
            self.failed_disk.unwrap_or(u32::MAX)
        );
        assert!(disk < self.shadow.layout().disks(), "no such disk {disk}");
        self.failed_disk = Some(disk);
    }

    /// The crash takes the NVRAM with it: the marking memory reports
    /// failed and every stripe that keeps parity becomes suspect, as
    /// [`RegionMap::fail_nvram`] models.
    pub fn kill_nvram(&mut self) {
        self.regions.fail_nvram(&mut self.marks);
    }
}

/// One data unit recovery declares unrecoverable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LostUnit {
    /// Stripe index.
    pub stripe: u64,
    /// Data unit index within the stripe.
    pub unit: u32,
    /// Disk the unit lived on (the dead disk).
    pub disk: u32,
}

/// What the power-on replay did, plus the recovered array state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// The recovered durable contents: every stripe parity-consistent.
    pub shadow: ShadowArray,
    /// The marking memory after recovery: no stripe marked.
    pub marks: MarkingMemory,
    /// Marked stripes whose parity was actually stale and rebuilt.
    pub scrubbed: u64,
    /// Marked stripes that were already consistent (the crash landed
    /// between the mark and the deferred data write).
    pub spurious_marks: u64,
    /// Dead-disk units reconstructed from the survivors.
    pub reconstructed: u64,
    /// Data units declared lost, in stripe order. Conservative: with
    /// a failed NVRAM this covers every dead-disk data unit.
    pub declared_lost: Vec<LostUnit>,
    /// Silent corruptions the power-on cross-check repaired
    /// byte-exactly from surviving redundancy.
    pub corrupt_repaired: u64,
    /// Silent corruptions the cross-check detected but could not
    /// repair (stale or dead redundancy), in stripe order. Their
    /// platter content is absorbed as defined, never silently passed.
    pub corrupt_declared: Vec<LostUnit>,
    /// The integrity state after recovery, when the image carried one:
    /// checksums re-anchored on every declare, registry drained of
    /// everything the cross-check resolved.
    pub integrity: Option<IntegrityState>,
}

/// Word pattern written over the dead disk before reconstruction, so
/// the byte-check can only pass if the survivors truly reproduce the
/// contents.
const SCRAMBLE: u64 = 0xdead_dead_dead_dead;

/// The stripes where `shadows` or `tags` depart from a freshly
/// initialised array: a shadow row or a row of tags holding a non-zero
/// delta, or a live corruption. A stripe outside the set is untouched
/// in all of them — parity-consistent, equal across the arrays,
/// holding its intents, with nothing registered — so a recovery or
/// verdict sweep knows its answer there without per-unit work.
///
/// # Panics
///
/// Panics if `shadows` is empty.
pub fn touched_rows(shadows: &[&ShadowArray], tags: Option<&IntegrityState>) -> StripeSet {
    let mut rows = StripeSet::new(shadows[0].layout().stripes());
    for shadow in shadows {
        shadow.touched_rows().for_each(|s| rows.insert(s));
    }
    if let Some(int) = tags {
        int.touched_rows().for_each(|s| rows.insert(s));
        int.live_corrupt()
            .iter()
            .for_each(|&(s, _, _)| rows.insert(s));
    }
    rows
}

/// Runs the power-on recovery state machine over a crash image. See
/// the module docs for the three cases.
///
/// The replay uses only information a real controller has at
/// power-on: the marking memory and the surviving disks' contents.
/// The dead disk's shadow words are scrambled before reconstruction
/// so nothing can leak through.
///
/// Per-unit work goes only to the stripes a write touched
/// ([`touched_rows`]) and, without a dead disk, to the marked ones.
/// On an untouched stripe every unit verifies and the dead unit
/// rebuilds to the content it held, so there the pass only keeps the
/// ledger: a spurious mark, a reconstruction or a declared loss.
pub fn replay(image: &CrashImage) -> RecoveryOutcome {
    let mut out = RecoveryOutcome {
        shadow: image.shadow.clone(),
        marks: image.marks.clone(),
        scrubbed: 0,
        spurious_marks: 0,
        reconstructed: 0,
        declared_lost: Vec::new(),
        corrupt_repaired: 0,
        corrupt_declared: Vec::new(),
        integrity: image.integrity.clone(),
    };
    let mut touched = touched_rows(&[&image.shadow], image.integrity.as_ref());
    match image.failed_disk {
        None => {
            for stripe in image.marks.marked() {
                touched.insert(stripe);
            }
            for stripe in touched.iter() {
                out.recover_stripe(image, stripe, None);
            }
        }
        Some(f) => {
            // Dead-disk units are classified from the image's marks and
            // regions alone: recovery verifies every rebuilt unit
            // itself, and the dead disk is gone.
            let view = ArrayView {
                layout: image.shadow.layout(),
                marks: &image.marks,
                regions: &image.regions,
                shadow: None,
                integrity: None,
                latent: None,
            };
            for stripe in 0..image.shadow.layout().stripes() {
                let disposition = view.classify(stripe, f).0;
                if touched.contains(stripe) {
                    out.recover_stripe(image, stripe, Some((f, disposition)));
                    continue;
                }
                // The survivors XOR back to the untouched dead unit, so
                // its scramble and rebuild would restore the row as it
                // is, and its candidate verifies.
                match disposition {
                    Disposition::ParityOnly
                    | Disposition::Poisoned(_)
                    | Disposition::Reconstructs(_) => out.reconstructed += 1,
                    Disposition::Unprotected(unit) | Disposition::Stale(unit) => {
                        out.declared_lost.push(LostUnit {
                            stripe,
                            unit,
                            disk: f,
                        });
                    }
                }
            }
        }
    }
    out.marks.clear_all();
    out
}

impl RecoveryOutcome {
    /// Recovers one stripe of `image` into this outcome, with `dead`
    /// naming the dead disk and what it held there.
    fn recover_stripe(
        &mut self,
        image: &CrashImage,
        stripe: u64,
        dead: Option<(u32, Disposition)>,
    ) {
        let layout = *image.shadow.layout();
        let shadow = &mut self.shadow;
        // A row whose every unit verifies leaves the cross-check below
        // nothing to do; asked before the scramble, which only the dead
        // unit's verdict would see.
        let verified = self
            .integrity
            .as_ref()
            .is_none_or(|int| int.row_verifies(shadow, stripe));
        if let Some((f, _)) = dead {
            shadow.set_word(stripe, f, SCRAMBLE ^ stripe);
        }
        let fresh = image.regions.parity_fresh(&image.marks, stripe);
        // Write-intent cross-check of every surviving data unit,
        // *before* any parity rebuild could launder a torn or lost
        // write into a consistent-looking stripe. Only an intact stripe
        // with fresh parity has redundancy to repair from; everywhere
        // else mismatching survivors are declared as-is (and a rotten
        // survivor poisons the dead unit's reconstruction below, which
        // its checksum then catches).
        if let Some(int) = self.integrity.as_mut().filter(|_| !verified) {
            for unit in 0..layout.data_units() {
                if dead.is_some_and(|(f, _)| layout.data_unit(stripe, f) == Some(unit)) {
                    continue;
                }
                match int.resolve(shadow, stripe, unit, dead.is_none() && fresh) {
                    IntegrityVerdict::Clean => {}
                    IntegrityVerdict::Repaired => self.corrupt_repaired += 1,
                    IntegrityVerdict::Declared => self.corrupt_declared.push(LostUnit {
                        stripe,
                        unit,
                        disk: layout.data_disk(stripe, unit),
                    }),
                }
            }
        }
        match dead {
            None => {
                // Pure power loss: data is all present; only the parity
                // of marked stripes may be stale and need the scrub (a
                // never-protected stripe keeps none).
                if image.marks.is_marked(stripe) {
                    if shadow.parity_consistent(stripe) {
                        self.spurious_marks += 1;
                    } else {
                        shadow.rebuild_parity(stripe);
                        self.scrubbed += 1;
                    }
                }
            }
            Some((_, Disposition::ParityOnly)) => {
                // All data survives; recompute parity onto the spare. A
                // mark here meant "parity stale", which is now moot.
                shadow.rebuild_parity(stripe);
                self.reconstructed += 1;
            }
            Some((disk, Disposition::Unprotected(unit) | Disposition::Stale(unit))) => {
                // The XOR value is undefined garbage, absorbed as the
                // unit's defined content (the array must leave recovery
                // consistent) and declared lost.
                reconstruct_unit(shadow, self.integrity.as_mut(), stripe, disk, false);
                self.declared_lost.push(LostUnit { stripe, unit, disk });
            }
            Some((disk, Disposition::Poisoned(unit) | Disposition::Reconstructs(unit))) => {
                // Fresh parity: the unit reconstructs, unless a
                // survivor's rot poisoned the candidate.
                let lost = LostUnit { stripe, unit, disk };
                match reconstruct_unit(shadow, self.integrity.as_mut(), stripe, disk, true) {
                    IntegrityVerdict::Declared => self.corrupt_declared.push(lost),
                    IntegrityVerdict::Repaired => {
                        self.corrupt_repaired += 1;
                        self.reconstructed += 1;
                    }
                    IntegrityVerdict::Clean => self.reconstructed += 1,
                }
            }
        }
    }
}

/// Time to rebuild a replaced disk, reading the survivors and writing
/// the spare at the disk's sustained rate, with `client_load` of the
/// disk time consumed by foreground traffic.
///
/// # Panics
///
/// Panics if `client_load` is not in `[0, 1)`.
pub fn disk_rebuild_time(model: &DiskModel, client_load: f64) -> SimDuration {
    assert!(
        (0.0..1.0).contains(&client_load),
        "client load must be in [0,1): {client_load}"
    );
    let bytes = model.geometry.capacity_bytes() as f64;
    let rate = model.sustained_rate() * (1.0 - client_load);
    SimDuration::from_secs_f64(bytes / rate)
}

/// Time for the conservative whole-array parity sweep after an NVRAM
/// failure: one full pass over every disk in parallel, i.e. one
/// whole-disk read at the sustained rate (parity writes overlap the
/// reads of the next stripes).
pub fn nvram_rescan_time(model: &DiskModel, client_load: f64) -> SimDuration {
    // Same sweep shape as a rebuild: bounded by one spindle pass.
    disk_rebuild_time(model, client_load)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use crate::nvram::MarkGranularity;

    /// A hand-built crash image over a 5-disk, 20-stripe array.
    fn image() -> CrashImage {
        // 8 KB units are 16 sectors; 320 sectors per disk = 20 stripes.
        let layout = Layout::new(5, 8192, 320);
        CrashImage {
            marks: MarkingMemory::new(layout.stripes(), MarkGranularity::STRIPE),
            regions: RegionMap::none(),
            shadow: ShadowArray::new(layout),
            failed_disk: None,
            scarred: Vec::new(),
            integrity: None,
            at: SimTime::ZERO,
            events_processed: 0,
        }
    }

    #[test]
    fn power_loss_rebuilds_marked_parity_only() {
        let mut img = image();
        // Stripe 3: deferred write — data updated, parity stale, mark
        // set. Stripe 7: spurious mark (crash before the data write).
        img.shadow.write_data(3, 1, 0xabcd);
        img.marks.mark(3);
        img.marks.mark(7);
        let out = replay(&img);
        assert_eq!(out.scrubbed, 1);
        assert_eq!(out.spurious_marks, 1);
        assert_eq!(out.reconstructed, 0);
        assert!(out.declared_lost.is_empty());
        assert_eq!(out.marks.marked_count(), 0);
        for s in 0..img.shadow.layout().stripes() {
            assert!(out.shadow.parity_consistent(s), "stripe {s}");
        }
        let all = 0..img.shadow.layout().stripes();
        assert_eq!(
            out.shadow.data_divergence(&img.shadow, all, |_, _| false),
            None
        );
    }

    #[test]
    fn dead_disk_reconstructs_clean_and_declares_marked() {
        let mut img = image();
        // Stripe 2 is dirty with its data on the dead disk — lost.
        let f = 2u32;
        let layout = *img.shadow.layout();
        let stripe_with_data_on_f = (0..layout.stripes())
            .find(|&s| layout.parity_disk(s) != f)
            .unwrap();
        let uf = layout.data_unit(stripe_with_data_on_f, f).unwrap();
        img.shadow.write_data(stripe_with_data_on_f, uf, 0x5555);
        img.marks.mark(stripe_with_data_on_f);
        img.kill_disk(f);
        let out = replay(&img);
        assert_eq!(
            out.declared_lost,
            vec![LostUnit {
                stripe: stripe_with_data_on_f,
                unit: uf,
                disk: f
            }]
        );
        // Everything else reconstructs byte-identically.
        let all = 0..layout.stripes();
        let declared = |s, u| {
            out.declared_lost
                .iter()
                .any(|l| (l.stripe, l.unit) == (s, u))
        };
        assert_eq!(out.shadow.data_divergence(&img.shadow, all, declared), None);
        for s in 0..layout.stripes() {
            assert!(out.shadow.parity_consistent(s), "stripe {s}");
        }
        assert!(out.reconstructed > 0);
    }

    #[test]
    fn nvram_loss_is_conservative_superset() {
        let mut img = image();
        let f = 1u32;
        let layout = *img.shadow.layout();
        // One truly-stale stripe with data on f.
        let victim = (0..layout.stripes())
            .find(|&s| layout.parity_disk(s) != f)
            .unwrap();
        let uf = layout.data_unit(victim, f).unwrap();
        img.shadow.write_data(victim, uf, 0x9999);
        img.kill_nvram();
        img.kill_disk(f);
        let out = replay(&img);
        // Conservative: every data unit on f is declared, including
        // the one truly lost.
        let data_on_f = (0..layout.stripes())
            .filter(|&s| layout.parity_disk(s) != f)
            .count();
        assert_eq!(out.declared_lost.len(), data_on_f);
        assert!(out
            .declared_lost
            .iter()
            .any(|l| l.stripe == victim && l.unit == uf));
        assert_eq!(out.marks.marked_count(), 0);
        for s in 0..layout.stripes() {
            assert!(out.shadow.parity_consistent(s), "stripe {s}");
        }
    }

    #[test]
    fn power_on_cross_check_repairs_unmarked_rot() {
        use crate::integrity::{CorruptKind, IntegrityState};
        let mut img = image();
        let l = *img.shadow.layout();
        let mut int = IntegrityState::new(&img.shadow);
        // Lost write on an unmarked stripe: the RMW parity update went
        // through, the data write itself never hit the platter.
        let (s, u) = (4u64, 1u32);
        let old = img.shadow.data_word(s, u);
        let intent = 0xaaaa_u64;
        int.record_write(s, u, intent);
        int.record_injection(s, u, CorruptKind::Lost);
        img.shadow.write_data(s, u, intent);
        img.shadow.rebuild_parity(s); // parity encodes the intent
        img.shadow.set_word(s, l.data_disk(s, u), old); // data write lost
        img.integrity = Some(int);

        let out = replay(&img);
        assert_eq!(out.corrupt_repaired, 1);
        assert!(out.corrupt_declared.is_empty());
        assert_eq!(out.shadow.data_word(s, u), intent, "byte-exact repair");
        for stripe in 0..l.stripes() {
            assert!(out.shadow.parity_consistent(stripe), "stripe {stripe}");
        }
        let int = out.integrity.expect("image carried integrity state");
        assert_eq!(int.live(), 0);
        assert_eq!(
            int.divergence(&out.shadow, 0..l.stripes(), |_, _| false),
            None
        );
        assert_eq!(int.counters.repaired, 1);
    }

    #[test]
    fn power_on_cross_check_declares_marked_rot() {
        use crate::integrity::{CorruptKind, IntegrityState};
        let mut img = image();
        let l = *img.shadow.layout();
        let mut int = IntegrityState::new(&img.shadow);
        // Lost write on a *marked* stripe (AFRAID deferred the parity):
        // the platter keeps the old word and no redundancy encodes the
        // intent — the cross-check must declare, not invent data.
        let (s, u) = (6u64, 0u32);
        int.record_write(s, u, 0xbbbb);
        int.record_injection(s, u, CorruptKind::Lost);
        img.marks.mark(s);
        img.integrity = Some(int);

        let out = replay(&img);
        assert_eq!(out.corrupt_repaired, 0);
        assert_eq!(out.corrupt_declared.len(), 1);
        assert_eq!(out.corrupt_declared[0].stripe, s);
        assert_eq!(out.corrupt_declared[0].unit, u);
        assert_eq!(out.corrupt_declared[0].disk, l.data_disk(s, u));
        assert_eq!(out.marks.marked_count(), 0);
        for stripe in 0..l.stripes() {
            assert!(out.shadow.parity_consistent(stripe), "stripe {stripe}");
        }
        // The declared unit's platter content was absorbed as defined:
        // recovery leaves no *silent* divergence behind.
        let int = out.integrity.expect("image carried integrity state");
        assert_eq!(int.live(), 0);
        assert_eq!(
            int.divergence(&out.shadow, 0..l.stripes(), |_, _| false),
            None
        );
        assert_eq!(int.counters.declared, 1);
        assert_eq!(int.counters.detected, 1);
    }

    /// Lost write on data unit `u` of unmarked stripe `s`: the parity
    /// update went through, so parity encodes `intent` while the
    /// platter keeps the old word.
    fn lose_write(img: &mut CrashImage, int: &mut IntegrityState, s: u64, u: u32, intent: u64) {
        use crate::integrity::CorruptKind;
        let disk = img.shadow.layout().data_disk(s, u);
        let old = img.shadow.data_word(s, u);
        int.record_write(s, u, intent);
        int.record_injection(s, u, CorruptKind::Lost);
        img.shadow.write_data(s, u, intent);
        img.shadow.rebuild_parity(s);
        img.shadow.set_word(s, disk, old);
    }

    /// Recovery leaves every stripe consistent, nothing marked, no live
    /// corruption and no unit failing its checksum.
    fn assert_settled(out: &RecoveryOutcome) -> IntegrityState {
        let l = *out.shadow.layout();
        for stripe in 0..l.stripes() {
            assert!(out.shadow.parity_consistent(stripe), "stripe {stripe}");
        }
        assert_eq!(out.marks.marked_count(), 0);
        let int = out
            .integrity
            .clone()
            .expect("image carried integrity state");
        assert_eq!(int.live(), 0);
        assert_eq!(
            int.divergence(&out.shadow, 0..l.stripes(), |_, _| false),
            None
        );
        int
    }

    #[test]
    fn dead_parity_disk_declares_survivor_rot() {
        let mut img = image();
        let l = *img.shadow.layout();
        let mut int = IntegrityState::new(&img.shadow);
        // The dead disk held this stripe's parity: the rotten survivor
        // has no redundancy left to repair from.
        let f = 3u32;
        let s = (0..l.stripes()).find(|&s| l.parity_disk(s) == f).unwrap();
        let u = 1u32;
        lose_write(&mut img, &mut int, s, u, 0x7777);
        img.integrity = Some(int);
        img.kill_disk(f);

        let out = replay(&img);
        assert_eq!(out.corrupt_repaired, 0);
        assert_eq!(
            out.corrupt_declared,
            vec![LostUnit {
                stripe: s,
                unit: u,
                disk: l.data_disk(s, u)
            }]
        );
        assert!(out.declared_lost.is_empty());
        let int = assert_settled(&out);
        assert_eq!(int.counters.detected, 1);
        assert_eq!(int.counters.declared, 1);
    }

    #[test]
    fn dead_unit_rot_heals_on_unmarked_stripe() {
        let mut img = image();
        let l = *img.shadow.layout();
        let mut int = IntegrityState::new(&img.shadow);
        // The rot sits on the dead disk's own unit, and parity still
        // encodes the intent: reconstruction heals the lie.
        let f = 2u32;
        let s = (0..l.stripes()).find(|&s| l.parity_disk(s) != f).unwrap();
        let uf = l.data_unit(s, f).unwrap();
        let intent = 0x4242_u64;
        lose_write(&mut img, &mut int, s, uf, intent);
        img.integrity = Some(int);
        img.kill_disk(f);

        let out = replay(&img);
        assert_eq!(out.corrupt_repaired, 1);
        assert!(out.corrupt_declared.is_empty());
        assert!(out.declared_lost.is_empty());
        assert_eq!(out.shadow.data_word(s, uf), intent, "healed to the intent");
        let int = assert_settled(&out);
        assert_eq!(int.counters.repaired, 1);
        assert_eq!(int.counters.declared, 0);
    }

    #[test]
    fn poisoned_reconstruction_declares_both_units() {
        let mut img = image();
        let l = *img.shadow.layout();
        let mut int = IntegrityState::new(&img.shadow);
        // A rotten survivor poisons the XOR that rebuilds the dead
        // unit: both the liar and the dead unit are declared.
        let f = 2u32;
        let s = (0..l.stripes()).find(|&s| l.parity_disk(s) != f).unwrap();
        let uf = l.data_unit(s, f).unwrap();
        let u = (0..l.data_units()).find(|&u| u != uf).unwrap();
        lose_write(&mut img, &mut int, s, u, 0x9191);
        img.integrity = Some(int);
        img.kill_disk(f);

        let out = replay(&img);
        assert_eq!(out.corrupt_repaired, 0);
        let mut declared = out.corrupt_declared.clone();
        declared.sort();
        let mut want = vec![
            LostUnit {
                stripe: s,
                unit: u,
                disk: l.data_disk(s, u),
            },
            LostUnit {
                stripe: s,
                unit: uf,
                disk: f,
            },
        ];
        want.sort();
        assert_eq!(declared, want);
        assert!(out.declared_lost.is_empty());
        let int = assert_settled(&out);
        assert_eq!(int.counters.detected, 1);
    }

    #[test]
    #[should_panic(expected = "already dead")]
    fn double_disk_kill_rejected() {
        let mut img = image();
        img.kill_disk(0);
        img.kill_disk(1);
    }

    #[test]
    fn paper_ten_minute_rescan() {
        // "about ten minutes for an array using 2GB disks that can
        // read at a sustained rate of 5MB/s".
        let m = DiskModel::hp_c3325();
        let t = nvram_rescan_time(&m, 0.0);
        let minutes = t.as_secs_f64() / 60.0;
        assert!((5.0..12.0).contains(&minutes), "rescan {minutes} min");
    }

    #[test]
    fn client_load_stretches_rebuild() {
        let m = DiskModel::hp_c3325();
        let free = disk_rebuild_time(&m, 0.0);
        let busy = disk_rebuild_time(&m, 0.5);
        assert!((busy.as_secs_f64() / free.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rebuild_well_inside_mttr_budget() {
        // Table 1 assumes a 48 h MTTR; the mechanical rebuild itself is
        // minutes, so the repair window is dominated by humans and
        // spares logistics, not the sweep.
        let m = DiskModel::hp_c3325();
        let t = disk_rebuild_time(&m, 0.9);
        assert!(t.as_secs_f64() < 48.0 * 3600.0 / 10.0);
    }

    #[test]
    #[should_panic(expected = "client load")]
    fn rejects_full_load() {
        let _ = disk_rebuild_time(&DiskModel::hp_c3325(), 1.0);
    }
}
