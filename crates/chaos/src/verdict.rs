//! Judging one crash experiment: the invariants recovery must meet.
//!
//! Given the crash image (ground truth), the recovery outcome, and the
//! in-run loss report (units a mid-run disk failure already cost,
//! before the crash), [`judge`] enforces five invariants:
//!
//! 1. **No silent loss.** Every unit whose reconstruction is truly
//!    wrong at the cut (stale parity XOR ≠ the dead disk's real
//!    contents) must appear in recovery's declared-lost list. This is
//!    the paper's NVRAM bet: the marking memory must cover every
//!    exposed stripe.
//! 2. **Byte identity.** Every data unit *not* declared lost must be
//!    byte-identical to the pre-crash durable contents — recovery may
//!    not corrupt anything it claims to have recovered.
//! 3. **Full redundancy.** After recovery no stripe remains marked
//!    and every stripe whose region keeps parity is parity-consistent:
//!    the array leaves recovery as protected as its configuration
//!    asks. A never-protected (RAID 0) stripe keeps no parity, so
//!    none is asked of it.
//! 4. **No write hole.** Without a dead disk, every stripe whose
//!    parity is fresh
//!    ([`afraid::regions::RegionMap::parity_fresh`]: unmarked, and in a
//!    region that keeps parity) must already be parity-consistent at
//!    the cut — the mark-then-write ordering guarantees a crash can
//!    leave spuriously dirty stripes, never silently stale clean ones.
//!    Stripes carrying a live *injected* silent corruption are exempt:
//!    a lying disk breaks the XOR identity without a mark by design,
//!    and the checksum layer (invariant 5), not the marking memory,
//!    owns those.
//! 5. **No silent corruption survives a verified read.** When the run
//!    carried the integrity subsystem: no read before the cut
//!    returned wrong bytes undetected, the checksum layer reported no
//!    false positives, and after recovery every data unit verifies
//!    against its checksum — each injected corruption was either
//!    repaired byte-exactly, declared (absorbed and ledgered), or
//!    overwritten by the client before anything could read it.
//!
//! Over-declaration (declared lost but actually reconstructable) is
//! allowed and counted: it is the price of conservative recovery after
//! an NVRAM failure, bounded by the rescan sweep, not a correctness
//! bug.

use afraid::faults::DataLossReport;
use afraid::recovery::{touched_rows, CrashImage, LostUnit, RecoveryOutcome};
use afraid_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// The judged result of one cut. Serialisable and bit-stable: `chaos
/// --json` and the golden cut verdict compare it byte for byte.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CutVerdict {
    /// Requested cut point (events to process before the power cut).
    pub cut: u64,
    /// Events actually processed (less than `cut` if the run drained).
    pub events_at_cut: u64,
    /// Simulated instant of the crash.
    pub at: SimTime,
    /// Dirty stripes at the cut (after crash-time injections).
    pub marked: u64,
    /// The dead disk recovery had to route around, if any.
    pub failed_disk: Option<u32>,
    /// True when the NVRAM was untrusted at recovery.
    pub nvram_failed: bool,
    /// Units scarred (already declared lost) before the crash.
    pub scarred: u64,
    /// Marked stripes whose parity was stale and rebuilt.
    pub scrubbed: u64,
    /// Marked stripes that were already consistent (spurious marks).
    pub spurious_marks: u64,
    /// Dead-disk units reconstructed from survivors.
    pub reconstructed: u64,
    /// Units recovery declared lost.
    pub declared_lost: u64,
    /// Units whose reconstruction was truly wrong at the cut.
    pub truly_lost: u64,
    /// Conservative over-declaration: declared but reconstructable.
    pub over_declared: u64,
    /// Units lost when a disk failed mid-run (reported then, not
    /// recovery's debt).
    pub lost_at_failure: u64,
    /// Live (injected, unresolved) silent corruptions at the cut.
    pub corrupt_live_at_cut: u64,
    /// Corruptions the power-on cross-check repaired byte-exactly.
    pub corrupt_repaired: u64,
    /// Corruptions recovery detected but had to declare.
    pub corrupt_declared: u64,
    /// Reads that returned wrong bytes undetected before the cut.
    pub silent_reads: u64,
    /// All five invariants held.
    pub pass: bool,
    /// First violated invariant, when `pass` is false.
    pub failure: Option<String>,
}

/// Judges one recovered crash. See the module docs for the invariants.
///
/// Every per-stripe sweep runs over the rows a write touched in the
/// image, the outcome or the outcome's tags
/// ([`afraid::recovery::touched_rows`]), in stripe order: any other row
/// is consistent, equal in image and outcome and holds its intents, so
/// it passes every invariant and the first violation found is the one
/// a sweep over every stripe finds.
pub fn judge(
    cut: u64,
    image: &CrashImage,
    outcome: &RecoveryOutcome,
    loss_at_failure: Option<&DataLossReport>,
) -> CutVerdict {
    let layout = *image.shadow.layout();
    let mut failure: Option<String> = None;
    let rows = touched_rows(
        &[&image.shadow, &outcome.shadow],
        outcome.integrity.as_ref(),
    );

    // Corruption bookkeeping, when the run carried the integrity
    // subsystem. Live-corrupt units diverge from the client's intent
    // by injected design; recovery's disposition of them is judged by
    // invariant 5's checksum sweep, not byte identity. Every unit list
    // below is sorted by `(stripe, unit)`.
    let live_corrupt: Vec<(u64, u32)> = image
        .integrity
        .as_ref()
        .map(|int| {
            int.live_corrupt()
                .into_iter()
                .map(|(s, u, _)| (s, u))
                .collect()
        })
        .unwrap_or_default();
    let corrupt_declared = sorted_units(&outcome.corrupt_declared);

    // Ground truth: units on the dead disk whose reconstruction value
    // (XOR of survivors) differs from what the disk really held, which
    // is exactly when the stripe's XOR identity is broken.
    let mut truly: Vec<(u64, u32)> = Vec::new();
    if let Some(f) = image.failed_disk {
        for stripe in rows.iter() {
            let Some(unit) = layout.data_unit(stripe, f) else {
                continue; // parity loss is never data loss
            };
            if !image.shadow.parity_consistent(stripe) {
                // A dead unit whose XOR candidate checksums back to
                // the client's intent was corrupt *on the platter* and
                // healed by the reconstruction — better than what the
                // disk held, not a loss.
                if image.integrity.as_ref().is_some_and(|int| {
                    int.verify(stripe, unit, image.shadow.xor_survivors(stripe, f))
                }) {
                    continue;
                }
                truly.push((stripe, unit));
            }
        }
    }
    let declared = sorted_units(&outcome.declared_lost);
    let has = |units: &[(u64, u32)], su: &(u64, u32)| units.binary_search(su).is_ok();

    // 1. No silent loss. A unit recovery dispositioned through the
    // corruption path (detected, declared, absorbed) was reported,
    // just in the other ledger.
    if let Some(&(s, u)) = truly
        .iter()
        .find(|su| !has(&declared, su) && !has(&corrupt_declared, su))
    {
        failure = Some(format!(
            "silent loss: stripe {s} unit {u} is unrecoverable but was not declared lost"
        ));
    }

    // 4. No write hole: with all disks present, stripes with fresh
    // parity must already be consistent at the cut. Checked before the
    // recovered-state invariants so the root cause names the pre-crash
    // defect, not its downstream symptom. (With a dead disk the check
    // is subsumed by 1: an unmarked inconsistent stripe either holds
    // its data on survivors — harmless — or reconstructs wrongly,
    // which invariant 1 catches as undeclared loss.)
    if failure.is_none() && image.failed_disk.is_none() {
        if let Some(s) = rows.iter().find(|&s| {
            image.regions.parity_fresh(&image.marks, s)
                && !image.shadow.parity_consistent(s)
                && !image
                    .integrity
                    .as_ref()
                    .is_some_and(|int| int.stripe_corrupt(s))
        }) {
            failure = Some(format!(
                "write hole: stripe {s} is unmarked but parity-inconsistent at the cut"
            ));
        }
    }

    // 2. Byte identity outside the declared-lost and corruption-
    // touched sets. Live-corrupt units legitimately change bytes
    // during recovery (a repair restores the intent the platter never
    // held); invariant 5 checks them against the stronger ground
    // truth — the checksum of the client's last write.
    if failure.is_none() {
        let skip = |s, u| {
            let su = &(s, u);
            has(&declared, su) || has(&corrupt_declared, su) || has(&live_corrupt, su)
        };
        if let Some((s, u)) = outcome
            .shadow
            .data_divergence(&image.shadow, rows.iter(), skip)
        {
            failure = Some(format!(
                "corruption: recovered stripe {s} unit {u} diverges from pre-crash contents"
            ));
        }
    }

    // 3. Full redundancy after recovery, wherever the region keeps
    // parity.
    if failure.is_none() {
        if let Some(s) = rows.iter().find(|&s| {
            image.regions.parity_fresh(&outcome.marks, s) && !outcome.shadow.parity_consistent(s)
        }) {
            failure = Some(format!("stripe {s} left parity-inconsistent by recovery"));
        } else if outcome.marks.marked_count() != 0 {
            failure = Some(format!(
                "{} stripes left marked after recovery",
                outcome.marks.marked_count()
            ));
        }
    }

    // 5. No silent corruption survives a verified read: none before
    // the cut, no checksum false alarms, and none after recovery.
    if failure.is_none() {
        if let Some(int) = &image.integrity {
            if int.counters.silent_reads != 0 {
                failure = Some(format!(
                    "{} reads returned wrong bytes undetected before the cut",
                    int.counters.silent_reads
                ));
            } else if int.counters.false_positives != 0 {
                failure = Some(format!(
                    "{} checksum mismatches with no injected fault behind them",
                    int.counters.false_positives
                ));
            }
        }
    }
    if failure.is_none() {
        if let Some(int) = &outcome.integrity {
            if let Some((s, u)) = int.divergence(&outcome.shadow, rows.iter(), |_, _| false) {
                failure = Some(format!(
                    "silent corruption survives recovery: stripe {s} unit {u} fails its checksum"
                ));
            }
        }
    }

    let over = count_missing(&declared, &truly);
    CutVerdict {
        cut,
        events_at_cut: image.events_processed,
        at: image.at,
        marked: image.marks.marked_count(),
        failed_disk: image.failed_disk,
        nvram_failed: image.marks.has_failed(),
        scarred: image.scarred.len() as u64,
        scrubbed: outcome.scrubbed,
        spurious_marks: outcome.spurious_marks,
        reconstructed: outcome.reconstructed,
        declared_lost: declared.len() as u64,
        truly_lost: truly.len() as u64,
        over_declared: over,
        lost_at_failure: loss_at_failure.map_or(0, |l| l.lost_units),
        corrupt_live_at_cut: live_corrupt.len() as u64,
        corrupt_repaired: outcome.corrupt_repaired,
        corrupt_declared: corrupt_declared.len() as u64,
        silent_reads: image
            .integrity
            .as_ref()
            .map_or(0, |int| int.counters.silent_reads),
        pass: failure.is_none(),
        failure,
    }
}

/// The number of pairs in sorted `units` that sorted `from` lacks, by
/// one merge walk.
fn count_missing(units: &[(u64, u32)], from: &[(u64, u32)]) -> u64 {
    let mut at = 0;
    let missing = units.iter().filter(|&su| {
        while from.get(at).is_some_and(|x| x < su) {
            at += 1;
        }
        from.get(at) != Some(su)
    });
    missing.count() as u64
}

/// The `(stripe, unit)` pairs of `units`, sorted and without repeats.
fn sorted_units(units: &[LostUnit]) -> Vec<(u64, u32)> {
    let mut pairs: Vec<(u64, u32)> = units.iter().map(|l| (l.stripe, l.unit)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use afraid::layout::Layout;
    use afraid::nvram::{MarkGranularity, MarkingMemory};
    use afraid::recovery::replay;
    use afraid::regions::RegionMap;
    use afraid::shadow::ShadowArray;

    fn image() -> CrashImage {
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
    fn clean_image_passes() {
        let img = image();
        let out = replay(&img);
        let v = judge(0, &img, &out, None);
        assert!(v.pass, "{:?}", v.failure);
        assert_eq!(v.truly_lost, 0);
        assert_eq!(v.declared_lost, 0);
    }

    #[test]
    fn write_hole_is_caught() {
        let mut img = image();
        // Stale parity without a mark: the design's cardinal sin.
        img.shadow.write_data(4, 1, 0xbad);
        let out = replay(&img);
        let v = judge(0, &img, &out, None);
        assert!(!v.pass);
        assert!(v.failure.as_deref().unwrap().contains("write hole"));
    }

    #[test]
    fn silent_loss_is_caught() {
        let mut img = image();
        let layout = *img.shadow.layout();
        let f = 3u32;
        let s = (0..layout.stripes())
            .find(|&s| layout.parity_disk(s) != f)
            .unwrap();
        let u = layout.data_unit(s, f).unwrap();
        // Stale parity over the dead unit, but no mark: recovery will
        // confidently reconstruct garbage. Judge must flag it.
        img.shadow.write_data(s, u, 0x777);
        let pd = layout.parity_disk(s);
        let stale = img.shadow.word(s, pd) ^ 0x1234;
        img.shadow.set_word(s, pd, stale);
        img.kill_disk(f);
        let out = replay(&img);
        let v = judge(0, &img, &out, None);
        assert!(!v.pass);
        assert!(v.failure.as_deref().unwrap().contains("silent loss"));
    }

    #[test]
    fn nvram_kill_is_conservative_not_silent() {
        let mut img = image();
        let layout = *img.shadow.layout();
        let f = 2u32;
        let s = (0..layout.stripes())
            .find(|&s| layout.parity_disk(s) != f)
            .unwrap();
        let u = layout.data_unit(s, f).unwrap();
        // One genuinely stale stripe, properly marked — then the crash
        // takes both the NVRAM and the disk.
        img.shadow.write_data(s, u, 0xabc);
        img.marks.mark(s);
        img.kill_nvram();
        img.kill_disk(f);
        let out = replay(&img);
        let v = judge(0, &img, &out, None);
        assert!(v.pass, "{:?}", v.failure);
        assert_eq!(v.truly_lost, 1);
        assert!(v.declared_lost >= v.truly_lost);
        assert!(v.over_declared > 0, "conservative recovery over-declares");
        assert!(v.nvram_failed);
    }

    /// What the dead disk held on a stripe, as the classifier told
    /// the per-stripe replay.
    enum Held {
        Parity,
        Lost(u32),
        Rebuilds(u32),
    }

    /// The power-on replay as it swept every stripe, scrambling the
    /// whole dead disk first: the reference [`replay`] must match.
    fn reference_replay(image: &CrashImage) -> RecoveryOutcome {
        use afraid::integrity::IntegrityVerdict;
        use afraid::regions::RegionMode;

        let mut shadow = image.shadow.clone();
        let mut marks = image.marks.clone();
        let mut integrity = image.integrity.clone();
        let layout = *shadow.layout();
        if let Some(f) = image.failed_disk {
            for stripe in 0..layout.stripes() {
                shadow.set_word(stripe, f, 0xdead_dead_dead_dead ^ stripe);
            }
        }
        let mut out = RecoveryOutcome {
            shadow: image.shadow.clone(),
            marks: image.marks.clone(),
            scrubbed: 0,
            spurious_marks: 0,
            reconstructed: 0,
            declared_lost: Vec::new(),
            corrupt_repaired: 0,
            corrupt_declared: Vec::new(),
            integrity: None,
        };
        for stripe in 0..layout.stripes() {
            let fresh = image.regions.parity_fresh(&marks, stripe);
            let dead = image.failed_disk.map(|f| {
                let held = match layout.data_unit(stripe, f) {
                    None => Held::Parity,
                    Some(u) if image.regions.mode_of(stripe) == RegionMode::NeverProtect => {
                        Held::Lost(u)
                    }
                    Some(u) if !image.regions.parity_fresh(&image.marks, stripe) => Held::Lost(u),
                    Some(u) => Held::Rebuilds(u),
                };
                (f, held)
            });
            if let Some(int) = &mut integrity {
                for unit in 0..layout.data_units() {
                    if dead
                        .as_ref()
                        .is_some_and(|(f, _)| layout.data_unit(stripe, *f) == Some(unit))
                    {
                        continue;
                    }
                    match int.resolve(&mut shadow, stripe, unit, dead.is_none() && fresh) {
                        IntegrityVerdict::Clean => {}
                        IntegrityVerdict::Repaired => out.corrupt_repaired += 1,
                        IntegrityVerdict::Declared => out.corrupt_declared.push(LostUnit {
                            stripe,
                            unit,
                            disk: layout.data_disk(stripe, unit),
                        }),
                    }
                }
            }
            let mut rebuild = |shadow: &mut ShadowArray, disk, fresh| match &mut integrity {
                Some(int) => int.reconstruct(shadow, stripe, disk, fresh),
                None => {
                    shadow.rebuild_unit(stripe, disk);
                    IntegrityVerdict::Clean
                }
            };
            match dead {
                None => {
                    if marks.is_marked(stripe) {
                        if shadow.parity_consistent(stripe) {
                            out.spurious_marks += 1;
                        } else {
                            shadow.rebuild_parity(stripe);
                            out.scrubbed += 1;
                        }
                    }
                }
                Some((_, Held::Parity)) => {
                    shadow.rebuild_parity(stripe);
                    out.reconstructed += 1;
                }
                Some((disk, Held::Lost(unit))) => {
                    rebuild(&mut shadow, disk, false);
                    out.declared_lost.push(LostUnit { stripe, unit, disk });
                }
                Some((disk, Held::Rebuilds(unit))) => match rebuild(&mut shadow, disk, true) {
                    IntegrityVerdict::Declared => {
                        out.corrupt_declared.push(LostUnit { stripe, unit, disk });
                    }
                    IntegrityVerdict::Repaired => {
                        out.corrupt_repaired += 1;
                        out.reconstructed += 1;
                    }
                    IntegrityVerdict::Clean => out.reconstructed += 1,
                },
            }
            marks.clear(stripe);
        }
        out.shadow = shadow;
        out.marks = marks;
        out.integrity = integrity;
        out
    }

    /// The judge as it swept every stripe and unit with ordered sets:
    /// the reference [`judge`] must match, failure text included.
    fn reference_judge(cut: u64, image: &CrashImage, outcome: &RecoveryOutcome) -> CutVerdict {
        use std::collections::BTreeSet;

        let layout = *image.shadow.layout();
        let all = || {
            (0..layout.stripes()).flat_map(move |s| (0..layout.data_units()).map(move |u| (s, u)))
        };
        let mut failure: Option<String> = None;
        let live_corrupt: BTreeSet<(u64, u32)> = image
            .integrity
            .as_ref()
            .map(|int| {
                int.live_corrupt()
                    .into_iter()
                    .map(|(s, u, _)| (s, u))
                    .collect()
            })
            .unwrap_or_default();
        let corrupt_declared: BTreeSet<(u64, u32)> = outcome
            .corrupt_declared
            .iter()
            .map(|l| (l.stripe, l.unit))
            .collect();
        let mut truly: BTreeSet<(u64, u32)> = BTreeSet::new();
        if let Some(f) = image.failed_disk {
            for stripe in 0..layout.stripes() {
                let Some(unit) = layout.data_unit(stripe, f) else {
                    continue;
                };
                if !image.shadow.parity_consistent(stripe) {
                    if image.integrity.as_ref().is_some_and(|int| {
                        int.verify(stripe, unit, image.shadow.xor_survivors(stripe, f))
                    }) {
                        continue;
                    }
                    truly.insert((stripe, unit));
                }
            }
        }
        let declared: BTreeSet<(u64, u32)> = outcome
            .declared_lost
            .iter()
            .map(|l| (l.stripe, l.unit))
            .collect();
        if let Some(&(s, u)) = truly
            .difference(&declared)
            .find(|su| !corrupt_declared.contains(su))
        {
            failure = Some(format!(
                "silent loss: stripe {s} unit {u} is unrecoverable but was not declared lost"
            ));
        }
        if failure.is_none() && image.failed_disk.is_none() {
            if let Some(s) = (0..layout.stripes()).find(|&s| {
                image.regions.parity_fresh(&image.marks, s)
                    && !image.shadow.parity_consistent(s)
                    && !image
                        .integrity
                        .as_ref()
                        .is_some_and(|int| int.stripe_corrupt(s))
            }) {
                failure = Some(format!(
                    "write hole: stripe {s} is unmarked but parity-inconsistent at the cut"
                ));
            }
        }
        if failure.is_none() {
            let mut skip = declared.clone();
            skip.extend(corrupt_declared.iter().copied());
            skip.extend(live_corrupt.iter().copied());
            if let Some((s, u)) = all().find(|&(s, u)| {
                !skip.contains(&(s, u))
                    && outcome.shadow.data_word(s, u) != image.shadow.data_word(s, u)
            }) {
                failure = Some(format!(
                    "corruption: recovered stripe {s} unit {u} diverges from pre-crash contents"
                ));
            }
        }
        if failure.is_none() {
            if let Some(s) = (0..layout.stripes()).find(|&s| {
                image.regions.parity_fresh(&outcome.marks, s)
                    && !outcome.shadow.parity_consistent(s)
            }) {
                failure = Some(format!("stripe {s} left parity-inconsistent by recovery"));
            } else if outcome.marks.marked_count() != 0 {
                failure = Some(format!(
                    "{} stripes left marked after recovery",
                    outcome.marks.marked_count()
                ));
            }
        }
        if failure.is_none() {
            if let Some(int) = &image.integrity {
                if int.counters.silent_reads != 0 {
                    failure = Some(format!(
                        "{} reads returned wrong bytes undetected before the cut",
                        int.counters.silent_reads
                    ));
                } else if int.counters.false_positives != 0 {
                    failure = Some(format!(
                        "{} checksum mismatches with no injected fault behind them",
                        int.counters.false_positives
                    ));
                }
            }
        }
        if failure.is_none() {
            if let Some(int) = &outcome.integrity {
                if let Some((s, u)) =
                    all().find(|&(s, u)| !int.verify(s, u, outcome.shadow.data_word(s, u)))
                {
                    failure = Some(format!(
                        "silent corruption survives recovery: stripe {s} unit {u} fails its checksum"
                    ));
                }
            }
        }
        let over = declared.difference(&truly).count() as u64;
        CutVerdict {
            cut,
            events_at_cut: image.events_processed,
            at: image.at,
            marked: image.marks.marked_count(),
            failed_disk: image.failed_disk,
            nvram_failed: image.marks.has_failed(),
            scarred: image.scarred.len() as u64,
            scrubbed: outcome.scrubbed,
            spurious_marks: outcome.spurious_marks,
            reconstructed: outcome.reconstructed,
            declared_lost: declared.len() as u64,
            truly_lost: truly.len() as u64,
            over_declared: over,
            lost_at_failure: 0,
            corrupt_live_at_cut: live_corrupt.len() as u64,
            corrupt_repaired: outcome.corrupt_repaired,
            corrupt_declared: corrupt_declared.len() as u64,
            silent_reads: image
                .integrity
                .as_ref()
                .map_or(0, |int| int.counters.silent_reads),
            pass: failure.is_none(),
            failure,
        }
    }

    /// A violation planted in a crash image or its recovery outcome.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Plant {
        None,
        /// An unmarked stripe written without its parity update.
        WriteHole,
        /// Stale parity over the dead disk's unit, unmarked.
        SilentLoss,
        /// Recovery leaves a stripe's parity stale.
        StaleAfter,
        /// Recovery leaves a stripe marked.
        MarkedAfter,
        /// Recovery changes a data unit (parity re-anchored).
        DataDivergence,
        /// A marked stripe whose parity alone is stale: recovery
        /// rewrites the parity word and nothing else, which passes.
        ParityOnly,
        /// Recovery leaves a unit failing its checksum.
        ChecksumDivergence,
    }

    const PLANTS: [Plant; 8] = [
        Plant::None,
        Plant::WriteHole,
        Plant::SilentLoss,
        Plant::StaleAfter,
        Plant::MarkedAfter,
        Plant::DataDivergence,
        Plant::ParityOnly,
        Plant::ChecksumDivergence,
    ];

    /// A seeded crash image over a small array: client writes with and
    /// without deferred parity, scrubs, spurious marks, never- and
    /// always-protected regions, and, with the integrity subsystem, lost
    /// writes and misdirected-write victims; then a crash that may take
    /// a disk and the NVRAM. The stripes the run touches cluster, and
    /// every image touches its last stripe.
    fn random_image(rng: &mut afraid_sim::rng::SplitMix64, plant: Plant) -> CrashImage {
        use afraid::integrity::{CorruptKind, IntegrityState};
        use afraid::regions::{Region, RegionMode};

        let disks = 3 + rng.next_below(4) as u32;
        let stripes = [1u64, 2, 7, 63, 64, 65, 130][rng.next_below(7) as usize];
        let layout = Layout::new(disks, 8192, 16 * stripes);
        let mut regions = Vec::new();
        if stripes > 4 && rng.chance(0.4) {
            let first = rng.next_below(stripes - 2);
            let mode = if rng.chance(0.5) {
                RegionMode::NeverProtect
            } else {
                RegionMode::AlwaysProtect
            };
            let len = 1 + rng.next_below(stripes - first - 1);
            regions.push(Region {
                first_stripe: first,
                stripes: len,
                mode,
            });
        }
        let mut img = image();
        img.regions = RegionMap::new(regions);
        img.shadow = ShadowArray::new(layout);
        img.marks = MarkingMemory::new(stripes, MarkGranularity::STRIPE);
        let mut int = rng.chance(0.5).then(|| IntegrityState::new(&img.shadow));
        let unprotected = |img: &CrashImage, s| img.regions.mode_of(s) == RegionMode::NeverProtect;
        let pick = |rng: &mut afraid_sim::rng::SplitMix64, near: u64| {
            if rng.chance(0.25) {
                stripes - 1
            } else {
                (near + rng.next_below(9)) % stripes
            }
        };
        let mut near = rng.next_below(stripes);
        for _ in 0..rng.next_below(40) {
            let s = pick(rng, near);
            near = s;
            let u = rng.next_below(u64::from(layout.data_units())) as u32;
            let w = rng.next_u64();
            let (unprot, marked) = (unprotected(&img, s), img.marks.is_marked(s));
            let shadow = &mut img.shadow;
            match rng.next_below(8) {
                // A write whose parity is deferred: marked first. A
                // never-protected stripe keeps no parity and no mark.
                0..=2 => {
                    if !unprot {
                        img.marks.mark(s);
                    }
                    shadow.write_data(s, u, w);
                    int.iter_mut().for_each(|int| int.record_write(s, u, w));
                }
                // A read-modify-write: parity kept current.
                3..=5 => {
                    let old = shadow.write_data(s, u, w);
                    if !unprot {
                        shadow.update_parity_incremental(s, old, w);
                    }
                    int.iter_mut().for_each(|int| int.record_write(s, u, w));
                }
                // A scrub of a marked stripe.
                6 if marked => {
                    shadow.rebuild_parity(s);
                    img.marks.clear(s);
                }
                // A mark whose data write the crash beat.
                _ if !unprot => img.marks.mark(s),
                _ => {}
            }
        }
        // Every image touches its last stripe, consistently.
        let last = stripes - 1;
        if !img.marks.is_marked(last) && !unprotected(&img, last) {
            let (u, w) = (0, rng.next_u64());
            let old = img.shadow.write_data(last, u, w);
            img.shadow.update_parity_incremental(last, old, w);
            int.iter_mut().for_each(|int| int.record_write(last, u, w));
        }
        // Silent faults on stripes with fresh parity, after the last
        // client write, which would otherwise erase them.
        for _ in 0..int.as_ref().map_or(0, |_| rng.next_below(4)) {
            let s = pick(rng, near);
            let u = rng.next_below(u64::from(layout.data_units())) as u32;
            let w = rng.next_u64();
            let (Some(tags), false) =
                (int.as_mut(), img.marks.is_marked(s) || unprotected(&img, s))
            else {
                continue;
            };
            let shadow = &mut img.shadow;
            if rng.chance(0.5) {
                // A lost write under fresh parity.
                let old = shadow.write_data(s, u, w);
                shadow.rebuild_parity(s);
                shadow.write_data(s, u, old);
                tags.record_write(s, u, w);
                tags.record_injection(s, u, CorruptKind::Lost);
            } else {
                // A misdirected write's innocent victim.
                shadow.set_word(s, layout.data_disk(s, u), w);
                tags.record_injection(s, u, CorruptKind::MisdirectedVictim);
            }
        }
        let s = pick(rng, near);
        let clean = !img.marks.is_marked(s) && !unprotected(&img, s);
        if plant == Plant::WriteHole && clean {
            let w = rng.next_u64();
            img.shadow.write_data(s, 0, w);
            int.iter_mut().for_each(|int| int.record_write(s, 0, w));
        }
        if plant == Plant::ParityOnly && clean {
            img.marks.mark(s);
            img.shadow
                .update_parity_incremental(s, 0, rng.next_u64() | 1);
        }
        img.integrity = int;
        if plant == Plant::SilentLoss || (plant != Plant::WriteHole && rng.chance(0.4)) {
            let f = rng.next_below(u64::from(disks)) as u32;
            if plant == Plant::SilentLoss && clean {
                if let Some(u) = layout.data_unit(s, f) {
                    let w = rng.next_u64();
                    img.shadow.write_data(s, u, w);
                    if let Some(int) = &mut img.integrity {
                        int.record_write(s, u, w);
                    }
                }
            }
            img.kill_disk(f);
            if rng.chance(0.3) {
                img.kill_nvram();
            }
        }
        img
    }

    /// Plants a post-recovery violation in `out`, on the last stripe
    /// or a random one.
    fn plant_in_outcome(
        rng: &mut afraid_sim::rng::SplitMix64,
        plant: Plant,
        out: &mut RecoveryOutcome,
    ) {
        let layout = *out.shadow.layout();
        let s = if rng.chance(0.4) {
            layout.stripes() - 1
        } else {
            rng.next_below(layout.stripes())
        };
        let u = rng.next_below(u64::from(layout.data_units())) as u32;
        let w = rng.next_u64() | 1;
        match plant {
            Plant::StaleAfter => out.shadow.update_parity_incremental(s, 0, w),
            Plant::MarkedAfter => out.marks.mark(s),
            Plant::DataDivergence => {
                out.shadow.write_data(s, u, w);
                out.shadow.rebuild_parity(s);
            }
            Plant::ChecksumDivergence => {
                if let Some(int) = &mut out.integrity {
                    int.record_write(s, u, w);
                }
            }
            Plant::None | Plant::WriteHole | Plant::SilentLoss | Plant::ParityOnly => {}
        }
    }

    /// The seed of the sweep equivalence property: `AFRAID_SEED`,
    /// default `0x5EE9_0030`, so CI can rerun it at several seeds.
    #[expect(
        clippy::disallowed_methods,
        reason = "CI reruns this property at several seeds"
    )]
    fn seed() -> u64 {
        std::env::var("AFRAID_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x5EE9_0030)
    }

    /// The touched-row replay and judge answer exactly as the sweeps
    /// over every stripe did: the same recovery outcome, and the same
    /// verdict, failure text included, on seeded random crash images
    /// with one planted violation of each kind, with and without a
    /// dead disk and a lost NVRAM, and with non-empty skip sets.
    #[test]
    fn sweeps_answer_as_the_every_stripe_reference() {
        let mut rng = afraid_sim::rng::SplitMix64::new(seed());
        let mut seen = BTreeSet::new();
        for case in 0..1_200 {
            let plant = PLANTS[case % PLANTS.len()];
            let img = random_image(&mut rng, plant);
            let mut out = replay(&img);
            assert_eq!(out, reference_replay(&img), "case {case}: recovery outcome");
            plant_in_outcome(&mut rng, plant, &mut out);
            let v = judge(case as u64, &img, &out, None);
            assert_eq!(
                v,
                reference_judge(case as u64, &img, &out),
                "case {case} {plant:?}"
            );
            if plant == Plant::ParityOnly {
                assert!(v.pass, "case {case}: {:?}", v.failure);
            }
            let kind = v.failure.as_deref().map_or("pass", |f| {
                [
                    "silent loss",
                    "write hole",
                    "corruption:",
                    "left parity",
                    "left marked",
                    "fails its checksum",
                ]
                .into_iter()
                .find(|k| f.contains(k))
                .unwrap_or(f)
            });
            seen.insert(kind.to_string());
            for (skip, n) in [
                ("declared", v.declared_lost),
                ("corrupt declared", v.corrupt_declared),
                ("live", v.corrupt_live_at_cut),
                ("dead disk", u64::from(v.failed_disk.is_some())),
                ("nvram lost", u64::from(v.nvram_failed)),
            ] {
                if n > 0 {
                    seen.insert(skip.to_string());
                }
            }
        }
        assert_eq!(seen.len(), 12, "{seen:?}");
    }

    #[test]
    fn verdict_serialises_bit_stably() {
        let img = image();
        let out = replay(&img);
        let v = judge(0, &img, &out, None);
        let a = serde_json::to_string(&v).unwrap();
        let v2: CutVerdict = serde_json::from_str(&a).unwrap();
        assert_eq!(v, v2);
        assert_eq!(serde_json::to_string(&v2).unwrap(), a);
    }
}
