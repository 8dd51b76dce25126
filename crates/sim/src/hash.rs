//! A fast hasher for small integer keys.
//!
//! The simulator keeps several hash sets and maps keyed by dense
//! `u64` ids and stripe indices on its hot paths (per-stripe write
//! counts, flight tables, trace-analysis region sets). The event queue
//! is not among them: it is one sorted vector and cancels by removal,
//! so scheduling and delivering an event hash nothing.
//! SipHash's DoS resistance buys nothing there — the keys come from
//! the simulation itself, not from an adversary — so these containers
//! use a Fibonacci multiply-shift finaliser instead: one `wrapping_mul`
//! and a xor-shift, which mixes low-entropy sequential keys well enough
//! for open addressing while costing a couple of cycles.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-shift hasher for integer keys. Not for untrusted input.
#[derive(Clone, Copy, Default)]
pub struct FxU64Hasher(u64);

/// Golden-ratio constant, the usual Fibonacci-hashing multiplier.
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for FxU64Hasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (slow path): fold bytes in u64 chunks.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut z = (self.0 ^ n).wrapping_mul(PHI);
        z ^= z >> 29;
        self.0 = z;
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `BuildHasher` for [`FxU64Hasher`]-backed containers.
pub type FxBuildHasher = BuildHasherDefault<FxU64Hasher>;

/// A `HashSet<u64>` specialised for sequence-number keys.
#[expect(
    clippy::disallowed_types,
    reason = "the sanctioned alias: a fixed hasher, so iteration order is a function of the keys"
)]
pub type U64Set = std::collections::HashSet<u64, FxBuildHasher>;

/// A `HashMap` with integer keys and the fast hasher.
#[expect(
    clippy::disallowed_types,
    reason = "the sanctioned alias: a fixed hasher, so iteration order is a function of the keys"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn sequential_keys_spread() {
        // Consecutive ids must not collide in the low bits the table
        // indexes by.
        let mut low_bits = std::collections::BTreeSet::new();
        for i in 0u64..64 {
            low_bits.insert(hash_one(i) >> 57); // top 7 bits
        }
        assert!(
            low_bits.len() > 32,
            "only {} distinct buckets",
            low_bits.len()
        );
    }

    #[test]
    fn set_behaves() {
        let mut s = U64Set::default();
        for i in 0..10_000u64 {
            assert!(s.insert(i));
        }
        for i in 0..10_000u64 {
            assert!(s.contains(&i));
        }
        assert_eq!(s.len(), 10_000);
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(42u64), hash_one(42u64));
        assert_ne!(hash_one(42u64), hash_one(43u64));
    }
}
