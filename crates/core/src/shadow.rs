//! Shadow content model: checks, rather than assumes, redundancy.
//!
//! The simulator does not move real bytes, but correctness of the
//! AFRAID design — "exactly the blocks on unredundant stripes are
//! exposed, nothing else" — deserves verification, not assertion. The
//! shadow model gives every stripe unit a 64-bit content word. Parity
//! is the XOR of the stripe's data words, exactly mirroring a real
//! RAID 5's arithmetic:
//!
//! * a data write replaces the unit's word;
//! * a RAID 5 read-modify-write updates parity incrementally as
//!   `P' = P ⊕ old ⊕ new`;
//! * a scrub recomputes parity from scratch;
//! * reconstruction after a disk failure XORs the surviving words.
//!
//! A unit survives a disk failure iff reconstruction reproduces its
//! word. The survivors XOR to the lost word exactly when the whole
//! row XORs to zero, so [`ShadowArray::parity_consistent`] is the one
//! question every caller asks. Property tests in `faults` rely on this
//! model.
//!
//! Each word is stored as its XOR *delta* from the unit's content in a
//! freshly initialised array (a seed word per data unit, their XOR on
//! the parity unit). A fresh array is therefore all zeros, and because
//! every initial row XORs to zero, the XOR identity, scrubs and
//! reconstructions work on the deltas alone; only the calls that hand
//! out or take in a whole word pay for its seed.

use std::collections::BTreeSet;

use crate::layout::Layout;

/// Per-unit content words for the whole array.
#[derive(Clone, Debug)]
pub struct ShadowArray {
    layout: Layout,
    /// `deltas[stripe * disks + disk]`: the content of the stripe unit
    /// stored on `disk` in `stripe` (data or parity alike), XORed with
    /// that unit's initial content.
    deltas: Vec<u64>,
}

impl ShadowArray {
    /// Creates a shadow array with deterministic initial contents and
    /// consistent parity everywhere (a freshly initialised array).
    pub fn new(layout: Layout) -> ShadowArray {
        let units = layout.stripes() * u64::from(layout.disks());
        ShadowArray {
            layout,
            deltas: vec![0; units as usize],
        }
    }

    fn idx(&self, stripe: u64, disk: u32) -> usize {
        (stripe * u64::from(self.layout.disks()) + u64::from(disk)) as usize
    }

    /// The stripe's contiguous row of unit deltas, one per disk (data
    /// and parity alike). The hot XOR folds run over this slice.
    fn row(&self, stripe: u64) -> &[u64] {
        let disks = self.layout.disks() as usize;
        let start = stripe as usize * disks;
        &self.deltas[start..start + disks]
    }

    /// XOR of *every* unit in the stripe — data and parity. Zero iff
    /// the stripe's XOR identity holds. The initial contents of a row
    /// XOR to zero, so one fold over the deltas gives it; per-unit
    /// results derive from it by XORing the excluded word back out.
    fn row_xor(&self, stripe: u64) -> u64 {
        self.row(stripe).iter().fold(0, |acc, d| acc ^ d)
    }

    /// The content of the unit on `disk` in `stripe` in a freshly
    /// initialised array: its seed word for a data unit, the XOR of
    /// the stripe's seed words for the parity unit.
    fn initial(&self, stripe: u64, disk: u32) -> u64 {
        match self.layout.data_unit(stripe, disk) {
            Some(unit) => seed_word(stripe, unit),
            None => (0..self.layout.data_units()).fold(0, |acc, u| acc ^ seed_word(stripe, u)),
        }
    }

    /// The content word of the unit on `disk` in `stripe`.
    pub fn word(&self, stripe: u64, disk: u32) -> u64 {
        self.deltas[self.idx(stripe, disk)] ^ self.initial(stripe, disk)
    }

    /// The content word of data unit `unit` of `stripe`.
    pub fn data_word(&self, stripe: u64, unit: u32) -> u64 {
        self.data_delta(stripe, unit) ^ seed_word(stripe, unit)
    }

    /// Data unit `unit` of `stripe` as its [`unit_delta`].
    pub(crate) fn data_delta(&self, stripe: u64, unit: u32) -> u64 {
        self.deltas[self.idx(stripe, self.layout.data_disk(stripe, unit))]
    }

    /// Overwrites data unit `unit` of `stripe`, returning the old word
    /// (needed by the RAID 5 incremental parity update).
    pub fn write_data(&mut self, stripe: u64, unit: u32, word: u64) -> u64 {
        let seed = seed_word(stripe, unit);
        let i = self.idx(stripe, self.layout.data_disk(stripe, unit));
        std::mem::replace(&mut self.deltas[i], word ^ seed) ^ seed
    }

    /// Applies the RAID 5 incremental parity update:
    /// `P' = P ⊕ old ⊕ new`.
    pub fn update_parity_incremental(&mut self, stripe: u64, old: u64, new: u64) {
        let i = self.idx(stripe, self.layout.parity_disk(stripe));
        self.deltas[i] ^= old ^ new;
    }

    /// Recomputes parity from the data units (the scrub operation):
    /// folding the row's XOR into the parity delta zeroes the row.
    pub fn rebuild_parity(&mut self, stripe: u64) {
        let row_xor = self.row_xor(stripe);
        let i = self.idx(stripe, self.layout.parity_disk(stripe));
        self.deltas[i] ^= row_xor;
    }

    /// XOR of the stripe's data words: the row's XOR with the parity
    /// word XORed back out.
    pub fn compute_parity(&self, stripe: u64) -> u64 {
        self.xor_survivors(stripe, self.layout.parity_disk(stripe))
    }

    /// True if the stripe's XOR identity holds: the stored parity
    /// equals the XOR of the data words, so the survivors of any one
    /// lost unit XOR back to its word.
    pub fn parity_consistent(&self, stripe: u64) -> bool {
        self.row_xor(stripe) == 0
    }

    /// XOR of every unit in the stripe except the one on
    /// `failed_disk` — the value a reconstruction would produce.
    /// Row fold with the failed disk's word XORed back out.
    pub fn xor_survivors(&self, stripe: u64, failed_disk: u32) -> u64 {
        self.row_xor(stripe) ^ self.word(stripe, failed_disk)
    }

    /// Overwrites the unit on `disk` in `stripe` with the XOR of the
    /// survivors — the word a reconstruction stores — and returns it.
    pub fn rebuild_unit(&mut self, stripe: u64, disk: u32) -> u64 {
        let row_xor = self.row_xor(stripe);
        let i = self.idx(stripe, disk);
        self.deltas[i] ^= row_xor;
        self.word(stripe, disk)
    }

    /// The array layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Overwrites the raw unit word on `disk` in `stripe` — data or
    /// parity alike, bypassing all parity maintenance. Crash recovery
    /// uses this to scramble a dead disk's words before reconstructing
    /// them (so the byte-check proves the rebuilt contents came from
    /// the survivors, not from a stale copy) and to store the
    /// reconstructed words back.
    pub fn set_word(&mut self, stripe: u64, disk: u32, word: u64) {
        let i = self.idx(stripe, disk);
        self.deltas[i] = word ^ self.initial(stripe, disk);
    }

    /// Byte-check for crash recovery: the first *data* unit whose word
    /// differs from `other`'s, as `(stripe, unit)`, skipping the units
    /// in `skip` (the ones recovery declared lost). `None` means every
    /// data unit outside `skip` is byte-identical — parity words are
    /// deliberately not compared, because a recovery sweep rewrites
    /// stale parity; [`ShadowArray::parity_consistent`] judges those.
    /// Both arrays share the initial contents, so equal deltas are
    /// equal words.
    ///
    /// # Panics
    ///
    /// Panics if the two arrays have different layouts.
    pub fn data_divergence(
        &self,
        other: &ShadowArray,
        skip: &BTreeSet<(u64, u32)>,
    ) -> Option<(u64, u32)> {
        assert_eq!(
            self.deltas.len(),
            other.deltas.len(),
            "shadow layout mismatch"
        );
        for stripe in 0..self.layout.stripes() {
            // Equal rows hold equal data units; most rows of a judged
            // pair are untouched, so skip them without per-unit work.
            if self.row(stripe) == other.row(stripe) {
                continue;
            }
            for unit in 0..self.layout.data_units() {
                if skip.contains(&(stripe, unit)) {
                    continue;
                }
                if self.data_delta(stripe, unit) != other.data_delta(stripe, unit) {
                    return Some((stripe, unit));
                }
            }
        }
        None
    }
}

/// `word` stored in data unit `unit` of `stripe`, as the delta from
/// the unit's initial content that the shadow keeps; the integrity
/// tags keep intents in the same form.
pub(crate) fn unit_delta(stripe: u64, unit: u32, word: u64) -> u64 {
    word ^ seed_word(stripe, unit)
}

/// Deterministic initial content for a data unit.
fn seed_word(stripe: u64, unit: u32) -> u64 {
    let mut z = stripe
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(unit) + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

/// A fresh content word for the `version`-th write to a unit.
pub fn version_word(stripe: u64, unit: u32, version: u64) -> u64 {
    seed_word(stripe ^ version.wrapping_mul(0x2545_f491_4f6c_dd1d), unit)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn layout() -> Layout {
        Layout::new(5, 8192, 160)
    }

    /// The reference model: every unit's full content word, filled
    /// with a hash per unit at construction, and every question asked
    /// of the words themselves. [`ShadowArray`] must answer exactly as
    /// it does; `integrity::tests` drives the two side by side.
    #[derive(Clone, Debug)]
    pub(crate) struct FullWords {
        layout: Layout,
        words: Vec<u64>,
    }

    impl FullWords {
        pub(crate) fn new(layout: Layout) -> FullWords {
            let units = layout.stripes() * u64::from(layout.disks());
            let mut r = FullWords {
                layout,
                words: vec![0; units as usize],
            };
            for stripe in 0..layout.stripes() {
                for unit in 0..layout.data_units() {
                    r.write_data(stripe, unit, seed_word(stripe, unit));
                }
                r.rebuild_parity(stripe);
            }
            r
        }

        fn idx(&self, stripe: u64, disk: u32) -> usize {
            (stripe * u64::from(self.layout.disks()) + u64::from(disk)) as usize
        }

        pub(crate) fn word(&self, stripe: u64, disk: u32) -> u64 {
            self.words[self.idx(stripe, disk)]
        }

        pub(crate) fn data_word(&self, stripe: u64, unit: u32) -> u64 {
            self.word(stripe, self.layout.data_disk(stripe, unit))
        }

        pub(crate) fn write_data(&mut self, stripe: u64, unit: u32, word: u64) -> u64 {
            let i = self.idx(stripe, self.layout.data_disk(stripe, unit));
            std::mem::replace(&mut self.words[i], word)
        }

        pub(crate) fn update_parity_incremental(&mut self, stripe: u64, old: u64, new: u64) {
            let i = self.idx(stripe, self.layout.parity_disk(stripe));
            self.words[i] ^= old ^ new;
        }

        pub(crate) fn compute_parity(&self, stripe: u64) -> u64 {
            (0..self.layout.data_units()).fold(0, |acc, u| acc ^ self.data_word(stripe, u))
        }

        pub(crate) fn rebuild_parity(&mut self, stripe: u64) {
            let parity = self.compute_parity(stripe);
            self.set_word(stripe, self.layout.parity_disk(stripe), parity);
        }

        pub(crate) fn parity_consistent(&self, stripe: u64) -> bool {
            self.word(stripe, self.layout.parity_disk(stripe)) == self.compute_parity(stripe)
        }

        pub(crate) fn xor_survivors(&self, stripe: u64, failed_disk: u32) -> u64 {
            (0..self.layout.disks())
                .filter(|&d| d != failed_disk)
                .fold(0, |acc, d| acc ^ self.word(stripe, d))
        }

        /// The question the full-word model asked per lost unit: do
        /// the survivors XOR back to its word?
        pub(crate) fn reconstructs(&self, stripe: u64, failed_disk: u32) -> bool {
            self.xor_survivors(stripe, failed_disk) == self.word(stripe, failed_disk)
        }

        pub(crate) fn rebuild_unit(&mut self, stripe: u64, disk: u32) -> u64 {
            let word = self.xor_survivors(stripe, disk);
            self.set_word(stripe, disk, word);
            word
        }

        pub(crate) fn set_word(&mut self, stripe: u64, disk: u32, word: u64) {
            let i = self.idx(stripe, disk);
            self.words[i] = word;
        }

        pub(crate) fn data_divergence(
            &self,
            other: &FullWords,
            skip: &BTreeSet<(u64, u32)>,
        ) -> Option<(u64, u32)> {
            let l = self.layout;
            (0..l.stripes())
                .flat_map(|s| (0..l.data_units()).map(move |u| (s, u)))
                .find(|&(s, u)| {
                    !skip.contains(&(s, u)) && self.data_word(s, u) != other.data_word(s, u)
                })
        }
    }

    #[test]
    fn fresh_array_is_all_zeros_and_holds_the_seed_content() {
        let s = ShadowArray::new(layout());
        let r = FullWords::new(layout());
        assert!(s.deltas.iter().all(|&d| d == 0));
        for stripe in 0..s.layout().stripes() {
            for disk in 0..5 {
                assert_eq!(s.word(stripe, disk), r.word(stripe, disk));
            }
        }
    }

    #[test]
    fn fresh_array_is_consistent() {
        let s = ShadowArray::new(layout());
        for stripe in 0..s.layout().stripes() {
            assert!(s.parity_consistent(stripe), "stripe {stripe}");
        }
    }

    #[test]
    fn fresh_array_reconstructs_everywhere() {
        let s = ShadowArray::new(layout());
        for stripe in 0..s.layout().stripes() {
            for disk in 0..5 {
                assert_eq!(s.xor_survivors(stripe, disk), s.word(stripe, disk));
            }
        }
    }

    #[test]
    fn write_without_parity_update_breaks_consistency() {
        let mut s = ShadowArray::new(layout());
        s.write_data(3, 1, 0xdead_beef);
        assert!(!s.parity_consistent(3));
        // Data on a *surviving* disk is unaffected; reconstruction of
        // the written unit's disk fails.
        let written_disk = s.layout().data_disk(3, 1);
        assert_ne!(s.xor_survivors(3, written_disk), 0xdead_beef);
        // Other stripes untouched.
        assert!(s.parity_consistent(2));
    }

    #[test]
    fn incremental_update_restores_consistency() {
        let mut s = ShadowArray::new(layout());
        let old = s.write_data(3, 1, 0x1234);
        s.update_parity_incremental(3, old, 0x1234);
        assert!(s.parity_consistent(3));
        assert_eq!(s.xor_survivors(3, 0), s.word(3, 0));
    }

    #[test]
    fn scrub_rebuild_restores_consistency() {
        let mut s = ShadowArray::new(layout());
        s.write_data(4, 0, 1);
        s.write_data(4, 2, 2);
        s.write_data(4, 3, 3);
        assert!(!s.parity_consistent(4));
        s.rebuild_parity(4);
        assert!(s.parity_consistent(4));
        for disk in 0..5 {
            assert_eq!(s.xor_survivors(4, disk), s.word(4, disk));
        }
    }

    #[test]
    fn multiple_incremental_updates_compose() {
        let mut s = ShadowArray::new(layout());
        for (unit, word) in [(0u32, 10u64), (1, 20), (0, 30), (3, 40)] {
            let old = s.write_data(7, unit, word);
            s.update_parity_incremental(7, old, word);
        }
        assert!(s.parity_consistent(7));
    }

    #[test]
    fn failed_parity_disk_loses_nothing() {
        // If the failed disk holds the stripe's parity, stale parity
        // loses no data: all data units survive on other disks. The
        // reconstruction check is about the failed disk's unit only.
        let mut s = ShadowArray::new(layout());
        s.write_data(3, 1, 99);
        let pd = s.layout().parity_disk(3);
        // Reconstructing the (stale) parity unit fails, but that's
        // parity, not data; the caller (faults module) distinguishes.
        assert_ne!(s.xor_survivors(3, pd), s.word(3, pd));
        for unit in 0..4 {
            let d = s.layout().data_disk(3, unit);
            assert_ne!(d, pd);
        }
    }

    #[test]
    fn data_divergence_finds_and_skips() {
        let a = ShadowArray::new(layout());
        let mut b = a.clone();
        assert_eq!(a.data_divergence(&b, &BTreeSet::new()), None);
        b.write_data(5, 2, 0xbad);
        assert_eq!(a.data_divergence(&b, &BTreeSet::new()), Some((5, 2)));
        let skip: BTreeSet<(u64, u32)> = [(5u64, 2u32)].into_iter().collect();
        assert_eq!(a.data_divergence(&b, &skip), None);
        // Parity divergence alone is not a data divergence.
        let mut c = a.clone();
        let pd = c.layout().parity_disk(9);
        c.set_word(9, pd, 0xfeed);
        assert_eq!(a.data_divergence(&c, &BTreeSet::new()), None);
        assert!(!c.parity_consistent(9));
    }

    /// The row-equality shortcut returns exactly what a plain
    /// per-unit scan returns, on seeded random arrays whose diverging
    /// units fall both inside and outside the skip set, and whose rows
    /// sometimes differ only in parity.
    #[test]
    fn data_divergence_matches_the_per_unit_scan() {
        use afraid_sim::rng::SplitMix64;

        fn per_unit_scan(
            a: &ShadowArray,
            b: &ShadowArray,
            skip: &BTreeSet<(u64, u32)>,
        ) -> Option<(u64, u32)> {
            let l = a.layout();
            (0..l.stripes())
                .flat_map(|s| (0..l.data_units()).map(move |u| (s, u)))
                .find(|&(s, u)| !skip.contains(&(s, u)) && a.data_word(s, u) != b.data_word(s, u))
        }

        let mut rng = SplitMix64::new(0x5AD0_0013);
        let (mut found, mut clean) = (0, 0);
        for _ in 0..400 {
            let a = ShadowArray::new(layout());
            let mut b = a.clone();
            let mut skip = BTreeSet::new();
            let stripes = a.layout().stripes();
            for _ in 0..rng.next_below(6) {
                let (s, u) = (rng.next_below(stripes), rng.next_below(4) as u32);
                b.write_data(s, u, rng.next_u64());
                if rng.next_below(2) == 0 {
                    skip.insert((s, u));
                }
            }
            for _ in 0..rng.next_below(3) {
                let s = rng.next_below(stripes);
                let pd = b.layout().parity_disk(s);
                b.set_word(s, pd, rng.next_u64());
            }
            for _ in 0..rng.next_below(3) {
                skip.insert((rng.next_below(stripes), rng.next_below(4) as u32));
            }
            let want = per_unit_scan(&a, &b, &skip);
            assert_eq!(a.data_divergence(&b, &skip), want);
            assert_eq!(b.data_divergence(&a, &skip), want);
            if want.is_some() {
                found += 1;
            } else {
                clean += 1;
            }
        }
        assert!(found > 50 && clean > 50, "{found} diverging, {clean} clean");
    }

    #[test]
    fn set_word_bypasses_parity() {
        let mut s = ShadowArray::new(layout());
        let d = s.layout().data_disk(2, 0);
        s.set_word(2, d, 0x1111);
        assert_eq!(s.word(2, d), 0x1111);
        assert!(!s.parity_consistent(2));
        s.rebuild_parity(2);
        assert!(s.parity_consistent(2));
    }

    #[test]
    fn version_words_differ() {
        let a = version_word(5, 2, 1);
        let b = version_word(5, 2, 2);
        let c = version_word(5, 3, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
