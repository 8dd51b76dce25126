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
//! 3. **Full redundancy.** After recovery every stripe's parity is
//!    consistent and no stripe remains marked: the array leaves
//!    recovery fully protected.
//! 4. **No write hole.** Without a dead disk, every *unmarked* stripe
//!    must already be parity-consistent at the cut — the mark-then-
//!    write ordering guarantees a crash can leave spuriously dirty
//!    stripes, never silently stale clean ones. Stripes carrying a
//!    live *injected* silent corruption are exempt: a lying disk
//!    breaks the XOR identity without a mark by design, and the
//!    checksum layer (invariant 5), not the marking memory, owns
//!    those.
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

use std::collections::BTreeSet;

use afraid::faults::DataLossReport;
use afraid::recovery::{CrashImage, RecoveryOutcome};
use afraid::shadow::Reconstruction;
use afraid_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// The judged result of one cut. Serialisable and bit-stable: this is
/// the cell payload the cross-run cache memoises.
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
pub fn judge(
    cut: u64,
    image: &CrashImage,
    outcome: &RecoveryOutcome,
    loss_at_failure: Option<&DataLossReport>,
) -> CutVerdict {
    let layout = *image.shadow.layout();
    let mut failure: Option<String> = None;

    // Corruption bookkeeping, when the run carried the integrity
    // subsystem. Live-corrupt units diverge from the client's intent
    // by injected design; recovery's disposition of them is judged by
    // invariant 5's checksum sweep, not byte identity.
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

    // Ground truth: units on the dead disk whose reconstruction value
    // (XOR of survivors) differs from what the disk really held.
    let mut truly: BTreeSet<(u64, u32)> = BTreeSet::new();
    if let Some(f) = image.failed_disk {
        for stripe in 0..layout.stripes() {
            let Some(unit) = layout.data_unit(stripe, f) else {
                continue; // parity loss is never data loss
            };
            if image.shadow.reconstruct(stripe, f) == Reconstruction::Lost {
                // A dead unit whose XOR candidate checksums back to
                // the client's intent was corrupt *on the platter* and
                // healed by the reconstruction — better than what the
                // disk held, not a loss.
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

    // 1. No silent loss. A unit recovery dispositioned through the
    // corruption path (detected, declared, absorbed) was reported,
    // just in the other ledger.
    if let Some(&(s, u)) = truly
        .difference(&declared)
        .find(|su| !corrupt_declared.contains(su))
    {
        failure = Some(format!(
            "silent loss: stripe {s} unit {u} is unrecoverable but was not declared lost"
        ));
    }

    // 4. No write hole: with all disks present, unmarked stripes must
    // already be consistent at the cut. Checked before the recovered-
    // state invariants so the root cause names the pre-crash defect,
    // not its downstream symptom. (With a dead disk the check is
    // subsumed by 1: an unmarked inconsistent stripe either holds its
    // data on survivors — harmless — or reconstructs wrongly, which
    // invariant 1 catches as undeclared loss.)
    if failure.is_none() && image.failed_disk.is_none() {
        if let Some(s) = (0..layout.stripes()).find(|&s| {
            !image.marks.is_marked(s)
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
        let mut skip = declared.clone();
        skip.extend(corrupt_declared.iter().copied());
        skip.extend(live_corrupt.iter().copied());
        if let Some((s, u)) = outcome.shadow.data_divergence(&image.shadow, &skip) {
            failure = Some(format!(
                "corruption: recovered stripe {s} unit {u} diverges from pre-crash contents"
            ));
        }
    }

    // 3. Full redundancy after recovery.
    if failure.is_none() {
        if let Some(s) = (0..layout.stripes()).find(|&s| !outcome.shadow.parity_consistent(s)) {
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
            if let Some((s, u)) = int.divergence(&outcome.shadow, &BTreeSet::new()) {
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
        nvram_failed: image.nvram_failed,
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

#[cfg(test)]
mod tests {
    use super::*;
    use afraid::layout::Layout;
    use afraid::nvram::{MarkGranularity, MarkingMemory};
    use afraid::recovery::replay;
    use afraid::shadow::ShadowArray;

    fn image() -> CrashImage {
        let layout = Layout::new(5, 8192, 320);
        CrashImage {
            marks: MarkingMemory::new(layout.stripes(), MarkGranularity::STRIPE),
            shadow: ShadowArray::new(layout),
            failed_disk: None,
            scarred: Vec::new(),
            integrity: None,
            nvram_failed: false,
            at: SimTime::ZERO,
            events_processed: 0,
            rebuild_cursor: None,
            evicting: None,
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
        img.marks.mark(s, 0, 1);
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
