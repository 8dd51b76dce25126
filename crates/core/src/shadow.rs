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
//! out or take in a whole word pay for its seed. A row of zero deltas
//! is a row no write has touched: parity-consistent, and equal in any
//! two arrays of the layout. [`ShadowArray::touched_rows`] finds the
//! others by skipping zero runs, so a crash verdict's sweeps cost what
//! the run wrote, not what the array holds.
//!
//! The deltas live in pages of 16 rows (`DeltaRows`), and a page takes
//! memory at the first non-zero write into it: an array holds memory
//! for the pages its run wrote, not for every row. A 600 s storm trace
//! over the paper array's 242,550 stripes writes 3–6 % of its rows, in
//! 21–34 % of its pages. Written pages are packed, in first-touch
//! order, into slabs of a fixed number of pages, found through a 4-byte
//! slot per page: a first touch zeroes one page at the end of the last
//! slab, and a clone (a crash image, a recovery outcome) costs one
//! allocation per slab rather than one per page. The slabs are not one
//! growing vector: a prototype that packed every page into one `Vec`
//! raised the fault-storm benchmark's median peak resident size from
//! 9.99 to 10.92 MB, because its reallocations make and free a buffer
//! of megabytes per run on the allocator's heap.

use crate::layout::Layout;

/// Per-unit content words for the whole array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShadowArray {
    layout: Layout,
    /// Row `stripe`, word `disk`: the content of the stripe unit stored
    /// on `disk` in `stripe` (data or parity alike), XORed with that
    /// unit's initial content.
    deltas: DeltaRows,
}

impl ShadowArray {
    /// Creates a shadow array with deterministic initial contents and
    /// consistent parity everywhere (a freshly initialised array).
    pub fn new(layout: Layout) -> ShadowArray {
        ShadowArray {
            layout,
            deltas: DeltaRows::new(layout.stripes(), layout.disks() as usize),
        }
    }

    /// The stripe's contiguous row of unit deltas, one per disk (data
    /// and parity alike). The hot XOR folds run over this slice.
    fn row(&self, stripe: u64) -> &[u64] {
        self.deltas.row(stripe)
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
        self.row(stripe)[disk as usize] ^ self.initial(stripe, disk)
    }

    /// The content word of data unit `unit` of `stripe`.
    pub fn data_word(&self, stripe: u64, unit: u32) -> u64 {
        self.data_delta(stripe, unit) ^ seed_word(stripe, unit)
    }

    /// Data unit `unit` of `stripe` as its [`unit_delta`].
    pub(crate) fn data_delta(&self, stripe: u64, unit: u32) -> u64 {
        self.row(stripe)[self.layout.data_disk(stripe, unit) as usize]
    }

    /// The deltas of `stripe`'s data units in unit order: its row
    /// rotated to start on the disk after the parity disk.
    pub(crate) fn data_deltas(&self, stripe: u64) -> impl Iterator<Item = u64> + '_ {
        let row = self.row(stripe);
        let parity = self.layout.parity_disk(stripe) as usize;
        row[parity + 1..].iter().chain(&row[..parity]).copied()
    }

    /// Overwrites data unit `unit` of `stripe`, returning the old word
    /// (needed by the RAID 5 incremental parity update).
    pub fn write_data(&mut self, stripe: u64, unit: u32, word: u64) -> u64 {
        let seed = seed_word(stripe, unit);
        let disk = self.layout.data_disk(stripe, unit);
        self.deltas.replace(stripe, disk as usize, word ^ seed) ^ seed
    }

    /// Applies the RAID 5 incremental parity update:
    /// `P' = P ⊕ old ⊕ new`.
    pub fn update_parity_incremental(&mut self, stripe: u64, old: u64, new: u64) {
        let disk = self.layout.parity_disk(stripe);
        self.deltas.xor(stripe, disk as usize, old ^ new);
    }

    /// Recomputes parity from the data units (the scrub operation):
    /// folding the row's XOR into the parity delta zeroes the row.
    pub fn rebuild_parity(&mut self, stripe: u64) {
        let row_xor = self.row_xor(stripe);
        let disk = self.layout.parity_disk(stripe);
        self.deltas.xor(stripe, disk as usize, row_xor);
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
        self.deltas.xor(stripe, disk as usize, row_xor);
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
        let delta = word ^ self.initial(stripe, disk);
        self.deltas.replace(stripe, disk as usize, delta);
    }

    /// The stripes whose row holds a non-zero delta, in stripe order,
    /// found in one pass over the written pages that skips zero runs.
    /// Every other row is untouched: parity-consistent, and equal to
    /// the same row of any array of this layout.
    pub fn touched_rows(&self) -> impl Iterator<Item = u64> + '_ {
        self.deltas.nonzero_rows()
    }

    /// Byte-check for crash recovery: the first *data* unit of `rows`
    /// whose word differs from `other`'s, as `(stripe, unit)`, passing
    /// over the units `skip` names (the ones recovery declared lost).
    /// `None` means every data unit of `rows` outside `skip` is
    /// byte-identical — parity words are deliberately not compared,
    /// because a recovery sweep rewrites stale parity;
    /// [`ShadowArray::parity_consistent`] judges those. Both arrays
    /// share the initial contents, so equal deltas are equal words.
    ///
    /// `rows` must run in stripe order and may leave out only stripes
    /// whose rows are equal in both arrays: every stripe qualifies, and
    /// so do the [`touched_rows`](ShadowArray::touched_rows) of the two.
    ///
    /// # Panics
    ///
    /// Panics if the two arrays have different layouts.
    pub fn data_divergence(
        &self,
        other: &ShadowArray,
        rows: impl IntoIterator<Item = u64>,
        skip: impl Fn(u64, u32) -> bool,
    ) -> Option<(u64, u32)> {
        assert_eq!(
            (self.deltas.rows(), self.deltas.width()),
            (other.deltas.rows(), other.deltas.width()),
            "shadow layout mismatch"
        );
        for stripe in rows {
            // Equal rows hold equal data units: no per-unit work.
            if self.row(stripe) == other.row(stripe) {
                continue;
            }
            for unit in 0..self.layout.data_units() {
                if skip(stripe, unit) {
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

/// The indices of the `width`-word rows of `words` that hold a non-zero
/// word, in order.
pub(crate) fn nonzero_rows(words: &[u64], width: usize) -> impl Iterator<Item = u64> + '_ {
    (0..)
        .zip(words.chunks_exact(width))
        .filter(|(_, row)| row.iter().any(|&w| w != 0))
        .map(|(row, _)| row)
}

/// Rows per page of a [`DeltaRows`]. A 600 s storm cell over the paper
/// array writes rows in 21–34 % of its 16-row pages, against 45–51 %
/// of 64-row ones.
pub(crate) const PAGE_ROWS: u64 = 16;

/// Pages per slab of a [`DeltaRows`]: 20 KB of shadow deltas on the
/// paper's 5-disk array. A store holds at most one slab's worth of
/// pages it has not written.
pub(crate) const SLAB_PAGES: usize = 32;

/// The row an absent page reads as: a layout has at most 64 disks.
static ZERO_ROW: [u64; 64] = [0; 64];

/// Rows of `width` delta words, every word zero until written, kept in
/// pages of [`PAGE_ROWS`] rows. A page takes memory at the first
/// non-zero write into it; an absent page reads as zeros. Two stores
/// are equal when every row is, however their pages were placed.
///
/// Written pages sit back to back, in first-touch order, in slabs of
/// [`SLAB_PAGES`] pages, found through a per-page slot index (4 bytes a
/// page). A slab is allocated once, with room for all its pages, and a
/// first touch zeroes one page at the end of the last slab; a clone
/// costs one allocation per slab, of the pages it holds. So the store's
/// memory tracks the pages written, in allocations of a fixed size.
/// The slabs are not one growing vector: its reallocations would make
/// and free a buffer of megabytes per run, which is carved from, and
/// returned to, the allocator's heap in ways that make a process's
/// resident size depend on what ran before it.
#[derive(Clone, Debug)]
pub(crate) struct DeltaRows {
    width: usize,
    rows: u64,
    /// `slots[row / PAGE_ROWS]`: 0 until a non-zero word is written
    /// into the page, then `k` for the `k`-th page so written, which
    /// lives in slab `(k - 1) / SLAB_PAGES`.
    slots: Vec<u32>,
    /// The written pages, [`SLAB_PAGES`] to a slab; every slab but the
    /// last is full.
    slabs: Vec<Vec<u64>>,
}

impl DeltaRows {
    /// `rows` rows of `width` words, all zero.
    ///
    /// # Panics
    ///
    /// Panics if `width` is above 64, or the pages overflow the index.
    pub(crate) fn new(rows: u64, width: usize) -> DeltaRows {
        assert!(width <= ZERO_ROW.len(), "rows of {width} words");
        let pages = rows.div_ceil(PAGE_ROWS);
        assert!(pages < u64::from(u32::MAX), "{rows} rows");
        DeltaRows {
            width,
            rows,
            slots: vec![0; pages as usize],
            slabs: Vec::new(),
        }
    }

    /// Rows stored.
    pub(crate) fn rows(&self) -> u64 {
        self.rows
    }

    /// Words per row.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Words per page.
    fn page_words(&self) -> usize {
        PAGE_ROWS as usize * self.width
    }

    /// Words per full slab.
    fn slab_words(&self) -> usize {
        SLAB_PAGES * self.page_words()
    }

    /// The words of the page in slot `slot`, or `None` for an absent
    /// page (slot 0).
    fn page(&self, slot: u32) -> Option<&[u64]> {
        let k = (slot as usize).checked_sub(1)?;
        let words = self.page_words();
        self.slabs
            .get(k / SLAB_PAGES)?
            .get(k % SLAB_PAGES * words..)?
            .get(..words)
    }

    /// Row `row`, or `None` beyond the last row.
    pub(crate) fn get_row(&self, row: u64) -> Option<&[u64]> {
        if row >= self.rows {
            return None;
        }
        let slot = *self.slots.get((row / PAGE_ROWS) as usize)?;
        match self.page(slot) {
            Some(page) => {
                let at = (row % PAGE_ROWS) as usize * self.width;
                page.get(at..at + self.width)
            }
            None => ZERO_ROW.get(..self.width),
        }
    }

    /// Row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is beyond the last row.
    pub(crate) fn row(&self, row: u64) -> &[u64] {
        match self.get_row(row) {
            Some(words) => words,
            None => out_of_range(row, self.rows),
        }
    }

    /// Row `row` for writing, its page placed at the end of the last
    /// slab (a new slab when that one is full) if absent.
    ///
    /// # Panics
    ///
    /// Panics if `row` is beyond the last row.
    fn row_mut(&mut self, row: u64) -> &mut [u64] {
        if row >= self.rows {
            out_of_range(row, self.rows);
        }
        let words = self.page_words();
        let page = (row / PAGE_ROWS) as usize;
        if self.slots[page] == 0 {
            if self
                .slabs
                .last()
                .is_none_or(|slab| slab.len() == self.slab_words())
            {
                self.slabs.push(Vec::with_capacity(self.slab_words()));
            }
            let last = self.slabs.len() - 1;
            let slab_words = self.slab_words();
            let slab = &mut self.slabs[last];
            // A clone's slabs hold only their pages: the first page
            // added to one gives it its full size.
            slab.reserve_exact(slab_words - slab.len());
            slab.resize(slab.len() + words, 0);
            self.slots[page] = (last * SLAB_PAGES + slab.len() / words) as u32;
        }
        let k = self.slots[page] as usize - 1;
        let at = k % SLAB_PAGES * words + (row % PAGE_ROWS) as usize * self.width;
        &mut self.slabs[k / SLAB_PAGES][at..at + self.width]
    }

    /// Stores `word` as word `col` of row `row` and returns the word it
    /// held. Storing zero where a zero is allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub(crate) fn replace(&mut self, row: u64, col: usize, word: u64) -> u64 {
        if word == 0 && self.row(row)[col] == 0 {
            return 0;
        }
        std::mem::replace(&mut self.row_mut(row)[col], word)
    }

    /// XORs `word` into word `col` of row `row`; XORing zero allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub(crate) fn xor(&mut self, row: u64, col: usize, word: u64) {
        if word == 0 {
            assert!(
                col < self.width && row < self.rows,
                "({row}, {col}) out of range"
            );
            return;
        }
        self.row_mut(row)[col] ^= word;
    }

    /// The written pages in row order, each with its first row.
    fn pages(&self) -> impl Iterator<Item = (u64, &[u64])> + '_ {
        (0..)
            .step_by(PAGE_ROWS as usize)
            .zip(&self.slots)
            .filter_map(|(first, &slot)| Some((first, self.page(slot)?)))
    }

    /// The rows holding a non-zero word, in order: absent pages are
    /// passed over whole, and written ones scanned by [`nonzero_rows`].
    pub(crate) fn nonzero_rows(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages()
            .flat_map(|(first, words)| nonzero_rows(words, self.width).map(move |r| first + r))
    }
}

impl PartialEq for DeltaRows {
    fn eq(&self, other: &DeltaRows) -> bool {
        let zero = |page: &[u64]| page.iter().all(|&w| w == 0);
        self.width == other.width
            && self.rows == other.rows
            && self.slots.iter().zip(&other.slots).all(|(&a, &b)| {
                match (self.page(a), other.page(b)) {
                    (Some(a), Some(b)) => a == b,
                    (Some(page), None) | (None, Some(page)) => zero(page),
                    (None, None) => true,
                }
            })
    }
}

impl Eq for DeltaRows {}

/// The panic of an out-of-range row.
#[expect(
    clippy::panic,
    reason = "an out-of-range row is a caller bug, as a slice index is"
)]
fn out_of_range(row: u64, rows: u64) -> ! {
    panic!("row {row} out of range ({rows} rows)")
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
    use std::collections::BTreeSet;

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
        assert_eq!(s.deltas, DeltaRows::new(s.layout().stripes(), 5));
        assert_eq!(s.touched_rows().count(), 0);
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
        let all = 0..a.layout().stripes();
        let mut b = a.clone();
        assert_eq!(a.data_divergence(&b, all.clone(), |_, _| false), None);
        b.write_data(5, 2, 0xbad);
        assert_eq!(
            a.data_divergence(&b, all.clone(), |_, _| false),
            Some((5, 2))
        );
        assert_eq!(
            a.data_divergence(&b, all.clone(), |s, u| (s, u) == (5, 2)),
            None
        );
        // Only the listed rows are compared.
        assert_eq!(
            a.data_divergence(&b, b.touched_rows(), |_, _| false),
            Some((5, 2))
        );
        assert_eq!(a.data_divergence(&b, [4, 6], |_, _| false), None);
        // Parity divergence alone is not a data divergence.
        let mut c = a.clone();
        let pd = c.layout().parity_disk(9);
        c.set_word(9, pd, 0xfeed);
        assert_eq!(a.data_divergence(&c, all, |_, _| false), None);
        assert!(!c.parity_consistent(9));
    }

    /// The paged store answers as a flat vector of words after every
    /// write, zeros included, over page-aligned and ragged row counts:
    /// every row reads the same, the non-zero rows come out in order,
    /// and it equals a store that was only ever given the non-zero
    /// words, which holds no all-zero page.
    #[test]
    fn delta_rows_answer_as_a_flat_vector() {
        use afraid_sim::rng::SplitMix64;
        for (rows, width) in [(1u64, 1usize), (15, 4), (16, 5), (17, 5), (100, 4)] {
            let mut rng = SplitMix64::new(rows * 31 + width as u64);
            let mut paged = DeltaRows::new(rows, width);
            let mut flat = vec![0u64; rows as usize * width];
            for _ in 0..300 {
                let row = rng.next_below(rows);
                let col = rng.next_below(width as u64) as usize;
                // Few distinct words, so rows often return to zero.
                let word = rng.next_below(4);
                let i = row as usize * width + col;
                if rng.chance(0.5) {
                    let old = std::mem::replace(&mut flat[i], word);
                    assert_eq!(paged.replace(row, col, word), old);
                } else {
                    paged.xor(row, col, word);
                    flat[i] ^= word;
                }
                for r in 0..rows {
                    assert_eq!(paged.row(r), &flat[r as usize * width..][..width]);
                }
                assert_eq!(paged.get_row(rows), None);
                assert_eq!(
                    paged.nonzero_rows().collect::<Vec<_>>(),
                    nonzero_rows(&flat, width).collect::<Vec<_>>()
                );
                let mut sparse = DeltaRows::new(rows, width);
                for (i, &w) in flat.iter().enumerate() {
                    sparse.replace((i / width) as u64, i % width, w);
                }
                assert_eq!(paged, sparse);
                assert!(sparse.pages().all(|(_, p)| p.iter().any(|&w| w != 0)));
            }
        }
        let mut d = DeltaRows::new(40, 5);
        d.replace(3, 1, 0);
        d.xor(39, 4, 0);
        assert!(
            d.slots.iter().all(|&slot| slot == 0),
            "zero writes place pages"
        );
        assert!(d.slabs.is_empty(), "zero writes allocate");
    }

    /// The reference store: one boxed page per written page, as the
    /// slab store kept its pages before slabs. [`DeltaRows`] must
    /// answer exactly as it does.
    #[derive(Clone, Debug)]
    struct BoxedPages {
        width: usize,
        rows: u64,
        pages: Vec<Option<Box<[u64]>>>,
    }

    impl BoxedPages {
        fn new(rows: u64, width: usize) -> BoxedPages {
            BoxedPages {
                width,
                rows,
                pages: vec![None; rows.div_ceil(PAGE_ROWS) as usize],
            }
        }

        fn row(&self, row: u64) -> Vec<u64> {
            assert!(row < self.rows);
            match &self.pages[(row / PAGE_ROWS) as usize] {
                Some(page) => {
                    page[(row % PAGE_ROWS) as usize * self.width..][..self.width].to_vec()
                }
                None => vec![0; self.width],
            }
        }

        fn row_mut(&mut self, row: u64) -> &mut [u64] {
            assert!(row < self.rows);
            let first = row - row % PAGE_ROWS;
            let len = PAGE_ROWS.min(self.rows - first) as usize * self.width;
            let page = self.pages[(row / PAGE_ROWS) as usize]
                .get_or_insert_with(|| vec![0; len].into_boxed_slice());
            &mut page[(row - first) as usize * self.width..][..self.width]
        }

        fn replace(&mut self, row: u64, col: usize, word: u64) -> u64 {
            if word == 0 && self.row(row)[col] == 0 {
                return 0;
            }
            std::mem::replace(&mut self.row_mut(row)[col], word)
        }

        fn xor(&mut self, row: u64, col: usize, word: u64) {
            if word != 0 {
                self.row_mut(row)[col] ^= word;
            }
        }

        fn nonzero_rows(&self) -> Vec<u64> {
            self.pages
                .iter()
                .zip((0..).step_by(PAGE_ROWS as usize))
                .filter_map(|(page, first)| page.as_deref().map(|words| (words, first)))
                .flat_map(|(words, first)| nonzero_rows(words, self.width).map(move |r| first + r))
                .collect()
        }

        fn same(&self, other: &BoxedPages) -> bool {
            let zero = |page: &[u64]| page.iter().all(|&w| w == 0);
            self.pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| match (a.as_deref(), b.as_deref()) {
                    (Some(a), Some(b)) => a == b,
                    (Some(page), None) | (None, Some(page)) => zero(page),
                    (None, None) => true,
                })
        }
    }

    /// The seed of the slab-store property: `AFRAID_SEED`, default 42,
    /// so CI can rerun it at several seeds.
    #[expect(
        clippy::disallowed_methods,
        reason = "CI reruns this property at several seeds"
    )]
    fn seed() -> u64 {
        std::env::var("AFRAID_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
    }

    /// The slab store answers as the boxed-page reference over seeded
    /// random programs of `replace`, `xor`, `clone`, `==` and
    /// `nonzero_rows` on a handful of stores of one shape: row counts
    /// from under a page to several slabs (ragged and aligned), writes
    /// drawn from few words so pages often return to zero, and clones
    /// that are written on after the copy. After every step the row
    /// written reads as the reference's, and every hundred steps every
    /// row does.
    #[test]
    fn slab_store_answers_as_the_boxed_page_reference() {
        use afraid_sim::rng::SplitMix64;
        let seed = seed();
        let mut rng = SplitMix64::new(seed);
        let slab_rows = PAGE_ROWS * SLAB_PAGES as u64;
        let (mut slabs_seen, mut equal, mut unequal) = (0, 0, 0);
        for case in 0..40 {
            let rows = match case % 4 {
                0 => 1 + rng.next_below(PAGE_ROWS),
                1 => slab_rows * (1 + rng.next_below(3)),
                _ => 1 + rng.next_below(4 * slab_rows),
            };
            let width = 1 + rng.next_below(6) as usize;
            let mut stores = vec![(DeltaRows::new(rows, width), BoxedPages::new(rows, width))];
            for step in 0..2000 {
                let ctx = format!("seed {seed} case {case} ({rows}x{width}) step {step}");
                let i = rng.next_below(stores.len() as u64) as usize;
                // Writes land on a few hot pages or anywhere, so pages
                // both fill up and scatter over slabs.
                let row = if rng.chance(0.5) {
                    rng.next_below(rows.min(3 * PAGE_ROWS))
                } else {
                    rng.next_below(rows)
                };
                let col = rng.next_below(width as u64) as usize;
                let word = rng.next_below(4);
                match rng.next_below(10) {
                    0..=3 => {
                        let (s, r) = &mut stores[i];
                        assert_eq!(
                            s.replace(row, col, word),
                            r.replace(row, col, word),
                            "{ctx}"
                        );
                    }
                    4..=6 => {
                        let (s, r) = &mut stores[i];
                        s.xor(row, col, word);
                        r.xor(row, col, word);
                    }
                    7 if stores.len() < 4 => {
                        let copy = stores[i].clone();
                        assert_eq!(copy.0.slabs.len(), stores[i].0.slabs.len(), "{ctx}");
                        stores.push(copy);
                    }
                    7 => {
                        stores.swap_remove(i);
                        continue;
                    }
                    8 => {
                        let j = rng.next_below(stores.len() as u64) as usize;
                        let want = stores[i].1.same(&stores[j].1);
                        assert_eq!(stores[i].0 == stores[j].0, want, "{ctx}: {i} == {j}");
                        if want {
                            equal += 1;
                        } else {
                            unequal += 1;
                        }
                    }
                    _ => {
                        let (s, r) = &stores[i];
                        assert_eq!(
                            s.nonzero_rows().collect::<Vec<_>>(),
                            r.nonzero_rows(),
                            "{ctx}"
                        );
                    }
                }
                let (s, r) = &stores[i];
                assert_eq!(s.row(row), &r.row(row)[..], "{ctx}: row {row}");
                if step % 100 == 99 {
                    for row in 0..rows {
                        assert_eq!(s.row(row), &r.row(row)[..], "{ctx}: row {row}");
                    }
                    assert_eq!(s.get_row(rows), None, "{ctx}");
                }
                let written = r.pages.iter().flatten().count();
                assert_eq!(
                    s.slots.iter().filter(|&&k| k != 0).count(),
                    written,
                    "{ctx}"
                );
                assert_eq!(s.slabs.len(), written.div_ceil(SLAB_PAGES), "{ctx}");
                slabs_seen = slabs_seen.max(s.slabs.len());
            }
        }
        assert!(slabs_seen >= 3, "programs reached only {slabs_seen} slabs");
        assert!(
            equal > 20 && unequal > 20,
            "{equal} equal, {unequal} unequal"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn delta_rows_refuse_a_row_beyond_the_last() {
        let mut d = DeltaRows::new(17, 5);
        d.xor(17, 0, 1);
    }

    #[test]
    fn touched_rows_name_the_rows_with_a_non_zero_delta() {
        let mut s = ShadowArray::new(layout());
        assert_eq!(s.touched_rows().count(), 0);
        let last = s.layout().stripes() - 1;
        s.write_data(last, 3, 1);
        s.write_data(0, 0, 2);
        s.rebuild_parity(0);
        let pd = s.layout().parity_disk(7);
        s.set_word(7, pd, 0xfeed);
        assert_eq!(s.touched_rows().collect::<Vec<_>>(), vec![0, 7, last]);
        // A write of the seed content leaves the row untouched.
        let seed = s.data_word(9, 1);
        s.write_data(9, 1, seed);
        assert_eq!(s.touched_rows().count(), 3);
        assert_eq!(
            nonzero_rows(&[0, 0, 5, 0, 0, 0, 0, 1], 2).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(nonzero_rows(&[], 3).count(), 0);
    }

    /// The row-equality shortcut returns exactly what a plain
    /// per-unit scan returns, on seeded random arrays whose diverging
    /// units fall both inside and outside the skip set, and whose rows
    /// sometimes differ only in parity; over every row and over the
    /// touched rows of the two arrays alike.
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
            let skipped = |s, u| skip.contains(&(s, u));
            let touched: BTreeSet<u64> = a.touched_rows().chain(b.touched_rows()).collect();
            for (x, y) in [(&a, &b), (&b, &a)] {
                assert_eq!(x.data_divergence(y, 0..stripes, skipped), want);
                assert_eq!(x.data_divergence(y, touched.iter().copied(), skipped), want);
            }
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
