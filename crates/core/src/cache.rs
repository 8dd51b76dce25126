//! Array-controller read cache.
//!
//! The paper configures the array with a small 256 KB read cache, no
//! array-level read-ahead, and a 256 KB *write-through* staging area,
//! precisely so cache effects do not contaminate the design
//! comparison ("read hits in the array's cache were rare" because the
//! hosts' file buffer caches already absorbed re-reads).
//!
//! The read cache here is an LRU over stripe-unit-aligned blocks; a
//! read hits only if *every* block it touches is resident. Writes
//! invalidate (write-through keeps the cache coherent with disk).

/// LRU block read cache.
#[derive(Clone, Debug)]
pub struct ReadCache {
    /// Block size in bytes (the stripe unit).
    block_bytes: u64,
    /// Capacity in blocks; 0 disables the cache.
    capacity: usize,
    /// Resident logical block ids; most recently used at the back. At
    /// the paper's 32 blocks a plain vector's shifts cost less than a
    /// ring buffer's index wrapping on every scan.
    blocks: Vec<u64>,
}

impl ReadCache {
    /// Creates a cache of `capacity_bytes` total over blocks of
    /// `block_bytes` (the paper: 256 KB of 8 KB units → 32 blocks).
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero.
    pub fn new(capacity_bytes: u64, block_bytes: u64) -> ReadCache {
        assert!(block_bytes > 0, "block size must be positive");
        ReadCache {
            block_bytes,
            capacity: (capacity_bytes / block_bytes) as usize,
            blocks: Vec::new(),
        }
    }

    /// True if the byte range is entirely resident; refreshes LRU
    /// positions.
    pub fn hit(&mut self, offset: u64, bytes: u64) -> bool {
        let ids = self.block_ids(offset, bytes);
        if self.capacity > 0 && ids.clone().all(|b| self.blocks.contains(&b)) {
            for b in ids {
                if let Some(i) = self.blocks.iter().position(|&x| x == b) {
                    self.blocks.remove(i);
                    self.blocks.push(b);
                }
            }
            true
        } else {
            false
        }
    }

    /// Inserts the blocks covering a completed read.
    pub fn insert(&mut self, offset: u64, bytes: u64) {
        if self.capacity == 0 {
            return;
        }
        for b in self.block_ids(offset, bytes) {
            if let Some(i) = self.blocks.iter().position(|&x| x == b) {
                self.blocks.remove(i);
            } else if self.blocks.len() == self.capacity {
                self.blocks.remove(0);
            }
            self.blocks.push(b);
        }
    }

    /// Drops blocks overlapping a written range (write-through: disk
    /// is the source of truth and stale read data must go).
    pub fn invalidate(&mut self, offset: u64, bytes: u64) {
        let first = offset / self.block_bytes;
        let last = (offset + bytes - 1) / self.block_bytes;
        self.blocks.retain(|&b| b < first || b > last);
    }

    fn block_ids(&self, offset: u64, bytes: u64) -> impl Iterator<Item = u64> + Clone {
        let first = offset / self.block_bytes;
        let last = (offset + bytes.max(1) - 1) / self.block_bytes;
        first..=last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> ReadCache {
        ReadCache::new(256 * 1024, 8192) // the paper's 32 blocks
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache();
        assert!(!c.hit(0, 8192));
        c.insert(0, 8192);
        assert!(c.hit(0, 8192));
    }

    #[test]
    fn partial_residency_is_a_miss() {
        let mut c = cache();
        c.insert(0, 8192);
        // Second half of the range is not resident.
        assert!(!c.hit(0, 16384));
        c.insert(8192, 8192);
        assert!(c.hit(0, 16384));
    }

    #[test]
    fn sub_block_reads_hit_containing_block() {
        let mut c = cache();
        c.insert(0, 8192);
        assert!(c.hit(512, 1024));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut c = cache();
        for i in 0..33u64 {
            c.insert(i * 8192, 8192);
        }
        // Block 0 evicted by the 33rd insert.
        assert!(!c.hit(0, 8192));
        assert!(c.hit(32 * 8192, 8192));
        assert!(c.hit(8192, 8192));
    }

    #[test]
    fn hit_refreshes_lru() {
        let mut c = ReadCache::new(2 * 8192, 8192);
        c.insert(0, 8192);
        c.insert(8192, 8192);
        assert!(c.hit(0, 8192)); // refresh block 0
        c.insert(2 * 8192, 8192); // evicts block 1
        assert!(c.hit(0, 8192));
        assert!(!c.hit(8192, 8192));
    }

    #[test]
    fn write_invalidates_overlap() {
        let mut c = cache();
        c.insert(0, 16384);
        c.invalidate(8192, 512);
        assert!(c.hit(0, 8192));
        assert!(!c.hit(8192, 8192));
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut c = ReadCache::new(0, 8192);
        c.insert(0, 8192);
        assert!(!c.hit(0, 8192));
    }

    /// The ring-buffer LRU the vector replaced, kept as the reference
    /// model.
    struct DequeCache {
        block_bytes: u64,
        capacity: usize,
        blocks: std::collections::VecDeque<u64>,
    }

    impl DequeCache {
        fn ids(&self, offset: u64, bytes: u64) -> std::ops::RangeInclusive<u64> {
            offset / self.block_bytes..=(offset + bytes.max(1) - 1) / self.block_bytes
        }

        fn hit(&mut self, offset: u64, bytes: u64) -> bool {
            let ids = self.ids(offset, bytes);
            if self.capacity > 0 && ids.clone().all(|b| self.blocks.contains(&b)) {
                for b in ids {
                    if let Some(i) = self.blocks.iter().position(|&x| x == b) {
                        self.blocks.remove(i);
                        self.blocks.push_back(b);
                    }
                }
                true
            } else {
                false
            }
        }

        fn insert(&mut self, offset: u64, bytes: u64) {
            if self.capacity == 0 {
                return;
            }
            for b in self.ids(offset, bytes) {
                if let Some(i) = self.blocks.iter().position(|&x| x == b) {
                    self.blocks.remove(i);
                } else if self.blocks.len() == self.capacity {
                    self.blocks.pop_front();
                }
                self.blocks.push_back(b);
            }
        }

        fn invalidate(&mut self, offset: u64, bytes: u64) {
            let first = offset / self.block_bytes;
            let last = (offset + bytes - 1) / self.block_bytes;
            self.blocks.retain(|&b| b < first || b > last);
        }
    }

    /// Seeded streams of reads, fills and writes over a span a few
    /// times the cache, at the paper's size and at tiny and disabled
    /// ones: every `hit` answers as the ring-buffer reference does, and
    /// the resident blocks stay in the same LRU order.
    #[test]
    fn vector_lru_answers_as_the_ring_buffer_reference() {
        use afraid_sim::rng::SplitMix64;

        let mut rng = SplitMix64::new(0xCAC4_E032);
        for capacity in [0u64, 1, 2, 5, 32] {
            let mut c = ReadCache::new(capacity * 8192, 8192);
            let mut reference = DequeCache {
                block_bytes: 8192,
                capacity: capacity as usize,
                blocks: Default::default(),
            };
            let span = (capacity + 2) * 3 * 8192;
            let mut hits = 0;
            for op in 0..20_000 {
                let offset = rng.next_below(span);
                let bytes = 1 + rng.next_below(4 * 8192);
                match rng.next_below(3) {
                    0 => {
                        let hit = c.hit(offset, bytes);
                        assert_eq!(
                            hit,
                            reference.hit(offset, bytes),
                            "capacity {capacity}, op {op}"
                        );
                        hits += u64::from(hit);
                    }
                    1 => {
                        c.insert(offset, bytes);
                        reference.insert(offset, bytes);
                    }
                    _ => {
                        c.invalidate(offset, bytes);
                        reference.invalidate(offset, bytes);
                    }
                }
                assert!(
                    c.blocks.iter().eq(reference.blocks.iter()),
                    "capacity {capacity}, op {op}"
                );
            }
            assert_eq!(hits > 0, capacity > 0, "capacity {capacity}: {hits} hits");
        }
    }

    #[test]
    fn reinsert_does_not_duplicate() {
        let mut c = ReadCache::new(2 * 8192, 8192);
        c.insert(0, 8192);
        c.insert(0, 8192);
        c.insert(8192, 8192);
        assert!(c.hit(0, 8192));
        assert!(c.hit(8192, 8192));
    }
}
