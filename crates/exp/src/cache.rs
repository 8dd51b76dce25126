//! Cross-run cell cache: memoises serialized cell results on disk.
//!
//! PR 5's determinism gate machine-checks that every matrix cell is a
//! pure function of its coordinates — which makes those coordinates a
//! sound cache key. This module exploits that: a cell's full
//! coordinates (base seed, trace kind + capacity + duration, policy,
//! the complete `ArrayConfig` encoding, plus a code-version salt) are
//! hashed with the repo's fixed [`afraid_sim::hash::FxU64Hasher`] into
//! a 128-bit key, and the serialized result is memoised under
//! `target/cell-cache/<key>.json`.
//!
//! Invariants, in order of importance:
//!
//! 1. **Bit-identity.** A warm-cache run must produce byte-identical
//!    reports to a cold run. Entries store the exact serialized bytes
//!    a fresh run would have produced, and the vendored serde_json's
//!    `f64` formatting round-trips bit-exactly, so replaying an entry
//!    is indistinguishable from re-simulating. A tier-1 test enforces
//!    this end to end.
//! 2. **Never a panic, never a wrong result.** Unreadable, truncated,
//!    or schema-mismatched entries are *misses*: every entry is
//!    self-describing (schema tag, key echo, payload digest) and any
//!    validation failure falls back to a fresh simulation.
//! 3. **Torn-write safety under `--jobs N`.** Entries are written to a
//!    unique temp file and atomically renamed into place, so a
//!    concurrent reader sees either no entry or a complete one.
//!
//! Invalidation is by key, never by mutation: the key includes a
//! schema tag and the crate version, so a code change that bumps
//! either simply orphans old entries (the directory is disposable —
//! it lives under `target/`).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use afraid_sim::hash::FxU64Hasher;
use std::hash::Hasher;

/// A 128-bit cache key: two decorrelated [`FxU64Hasher`] lanes over
/// the same coordinate stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheKey([u64; 2]);

impl CacheKey {
    /// 32-hex-digit rendering, used as the entry's file stem.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// Distinct lane salts so the two halves of a [`CacheKey`] decorrelate
/// even though they consume the same input stream.
const LANE_SALTS: [u64; 2] = [0xafae_1d00_0000_0001, 0x5afe_c0de_0000_0002];

/// Accumulates a cell's coordinates into a [`CacheKey`].
///
/// All writes are length- or type-framed (strings are prefixed with
/// their byte length) so adjacent fields cannot alias — `("ab", "c")`
/// and `("a", "bc")` hash differently. Construction seeds both lanes
/// with the schema tag and the crate version, which is the cache's
/// invalidation salt: any result-shape or simulator change that bumps
/// either orphans all previous entries.
#[derive(Clone)]
pub struct KeyBuilder {
    lanes: [FxU64Hasher; 2],
}

impl KeyBuilder {
    /// Starts a key for the given schema tag (e.g. `"run-result-v1"`).
    pub fn new(schema: &str) -> KeyBuilder {
        let mut lanes = [FxU64Hasher::default(), FxU64Hasher::default()];
        for (lane, salt) in lanes.iter_mut().zip(LANE_SALTS) {
            lane.write_u64(salt);
        }
        KeyBuilder { lanes }
            .str(schema)
            .str(env!("CARGO_PKG_VERSION"))
    }

    /// Mixes in one integer coordinate.
    #[must_use]
    pub fn u64(mut self, v: u64) -> KeyBuilder {
        self.lanes[0].write_u64(v);
        // The second lane sees a rotated view so the two weak lanes
        // do not collapse into correlated states.
        self.lanes[1].write_u64(v.rotate_left(32));
        self
    }

    /// Mixes in one float coordinate, by bit pattern (injective, and
    /// distinguishes `-0.0` from `0.0` and every NaN payload).
    #[must_use]
    pub fn f64(self, v: f64) -> KeyBuilder {
        self.u64(v.to_bits())
    }

    /// Mixes in one string coordinate, length-framed.
    #[must_use]
    pub fn str(mut self, s: &str) -> KeyBuilder {
        self.lanes[0].write_u64(s.len() as u64);
        self.lanes[1].write_u64((s.len() as u64).rotate_left(32));
        self.lanes[0].write(s.as_bytes());
        self.lanes[1].write(s.as_bytes());
        self
    }

    /// Finalises the key.
    pub fn finish(self) -> CacheKey {
        CacheKey([self.lanes[0].finish(), self.lanes[1].finish()])
    }
}

/// Digest guarding an entry's payload against truncation/corruption.
fn payload_digest(payload: &str) -> u64 {
    let mut h = FxU64Hasher::default();
    h.write_u64(0xd16e_5700_0000_0003);
    h.write_u64(payload.len() as u64);
    h.write(payload.as_bytes());
    h.finish()
}

/// On-disk shape of one cache entry. Self-describing so a reader can
/// reject anything stale or torn without trusting the file name.
#[derive(Debug, Serialize, Deserialize)]
struct Entry {
    schema: String,
    key: String,
    digest: String,
    payload: String,
}

/// Snapshot of a cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Valid entries replayed instead of re-simulating.
    pub hits: u64,
    /// Lookups with no entry on disk (fresh run, then stored).
    pub misses: u64,
    /// Entries present but rejected — unreadable, truncated, corrupt,
    /// or schema-mismatched. Each also fell back to a fresh run.
    pub invalid: u64,
    /// Entries successfully written.
    pub stored: u64,
}

impl CacheStats {
    /// Total lookups served.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.invalid
    }

    /// One-line human summary, printed by `afraid-cli` after a table.
    pub fn summary(&self) -> String {
        format!(
            "cell cache: {} hits (simulation skipped), {} misses, {} invalid entries, {} stored",
            self.hits, self.misses, self.invalid, self.stored
        )
    }
}

/// A directory of memoised cell results. Shared by reference across
/// worker threads: all counters are atomic and all file writes are
/// atomic-rename, so `&CellCache` is safe under any `--jobs N`.
pub struct CellCache {
    dir: PathBuf,
    schema: String,
    hits: AtomicU64,
    misses: AtomicU64,
    invalid: AtomicU64,
    stored: AtomicU64,
    tmp_seq: AtomicU64,
}

/// Outcome of reading and validating an entry file.
enum ReadOutcome {
    Valid(String),
    Absent,
    Invalid,
}

impl CellCache {
    /// Opens (lazily — no I/O happens here) a cache rooted at `dir`,
    /// tagging every entry with `schema`.
    pub fn new(dir: PathBuf, schema: &str) -> CellCache {
        CellCache {
            dir,
            schema: schema.to_string(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            stored: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        }
    }

    /// The workspace-conventional cache root, `target/cell-cache`.
    pub fn default_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/cell-cache")
    }

    /// The directory entries live under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Starts a [`KeyBuilder`] seeded with this cache's schema tag.
    pub fn key_builder(&self) -> KeyBuilder {
        KeyBuilder::new(&self.schema)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Acquire),
            misses: self.misses.load(Ordering::Acquire),
            invalid: self.invalid.load(Ordering::Acquire),
            stored: self.stored.load(Ordering::Acquire),
        }
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    /// Reads and fully validates the entry for `key`. Every failure
    /// mode — missing file, unreadable bytes, malformed JSON, wrong
    /// schema tag, wrong key echo, digest mismatch — degrades to
    /// `Absent`/`Invalid`; nothing here can panic.
    #[expect(
        clippy::disallowed_methods,
        reason = "cache read: the entry is validated and replays the exact bytes a fresh run would produce; any failure falls back to simulation"
    )]
    fn read_validated(&self, key: &CacheKey) -> ReadOutcome {
        let path = self.entry_path(key);
        if !path.exists() {
            return ReadOutcome::Absent;
        }
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return ReadOutcome::Invalid,
        };
        let entry: Entry = match serde_json::from_str(&text) {
            Ok(e) => e,
            Err(_) => return ReadOutcome::Invalid,
        };
        let digest_ok = u64::from_str_radix(&entry.digest, 16)
            .map(|d| d == payload_digest(&entry.payload))
            .unwrap_or(false);
        if entry.schema == self.schema && entry.key == key.hex() && digest_ok {
            ReadOutcome::Valid(entry.payload)
        } else {
            ReadOutcome::Invalid
        }
    }

    /// Looks up the validated payload for `key`, counting the outcome.
    pub fn lookup(&self, key: &CacheKey) -> Option<String> {
        match self.read_validated(key) {
            ReadOutcome::Valid(p) => {
                self.hits.fetch_add(1, Ordering::AcqRel);
                Some(p)
            }
            ReadOutcome::Absent => {
                self.misses.fetch_add(1, Ordering::AcqRel);
                None
            }
            ReadOutcome::Invalid => {
                self.invalid.fetch_add(1, Ordering::AcqRel);
                None
            }
        }
    }

    /// Stores `payload` under `key` via temp-file-then-rename, so a
    /// concurrent reader observes either no entry or a complete one.
    /// Best-effort: I/O failure skips the store (the cache is an
    /// optimisation, never a correctness dependency).
    #[expect(
        clippy::disallowed_methods,
        reason = "cache write: atomic temp-then-rename publish of a result already computed deterministically; never read back into a result unvalidated"
    )]
    pub fn store(&self, key: &CacheKey, payload: &str) {
        let entry = Entry {
            schema: self.schema.clone(),
            key: key.hex(),
            digest: format!("{:016x}", payload_digest(payload)),
            payload: payload.to_string(),
        };
        let Ok(text) = serde_json::to_string(&entry) else {
            return;
        };
        if fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        // Unique temp name per (process, store) so parallel workers —
        // and parallel *processes* — never collide mid-write.
        // Relaxed is sound: the counter only feeds temp-file name
        // uniqueness, never results.
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".tmp-{}-{}-{}", std::process::id(), seq, key.hex()));
        if fs::write(&tmp, text.as_bytes()).is_err() {
            return;
        }
        // Rename is the atomic publish step; on failure the temp file
        // is removed and the store is skipped.
        if fs::rename(&tmp, self.entry_path(key)).is_ok() {
            self.stored.fetch_add(1, Ordering::AcqRel);
        } else {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Memoises `run` under `key`: replays a valid entry, otherwise
    /// runs fresh and stores the serialized result.
    ///
    /// On a hit the returned value is deserialized from the stored
    /// bytes; the serde layer round-trips `f64` bit-exactly, so this
    /// is indistinguishable from re-running. A validated payload that
    /// nevertheless fails to deserialise as `T` (the schema tag lied)
    /// counts as invalid and falls back to a fresh run.
    pub fn run_cached<T, F>(&self, key: &CacheKey, run: F) -> T
    where
        T: Serialize + Deserialize,
        F: FnOnce() -> T,
    {
        match self.read_validated(key) {
            ReadOutcome::Valid(payload) => match serde_json::from_str::<T>(&payload) {
                Ok(v) => {
                    self.hits.fetch_add(1, Ordering::AcqRel);
                    debug_assert_eq!(
                        serde_json::to_string(&v).ok().as_deref(),
                        Some(payload.as_str()),
                        "cache replay is not byte-stable"
                    );
                    v
                }
                Err(_) => {
                    self.invalid.fetch_add(1, Ordering::AcqRel);
                    self.run_and_store(key, run)
                }
            },
            ReadOutcome::Absent => {
                self.misses.fetch_add(1, Ordering::AcqRel);
                self.run_and_store(key, run)
            }
            ReadOutcome::Invalid => {
                self.invalid.fetch_add(1, Ordering::AcqRel);
                self.run_and_store(key, run)
            }
        }
    }

    fn run_and_store<T, F>(&self, key: &CacheKey, run: F) -> T
    where
        T: Serialize + Deserialize,
        F: FnOnce() -> T,
    {
        let v = run();
        if let Ok(payload) = serde_json::to_string(&v) {
            self.store(key, &payload);
        }
        v
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests use real cache dirs")]
mod tests {
    use super::*;

    fn tmp_cache(tag: &str) -> CellCache {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-cell-cache")
            .join(tag);
        let _ = fs::remove_dir_all(&dir);
        CellCache::new(dir, "test-v1")
    }

    #[test]
    fn keys_are_stable_and_framed() {
        let a = KeyBuilder::new("s").str("ab").str("c").finish();
        let b = KeyBuilder::new("s").str("a").str("bc").finish();
        let c = KeyBuilder::new("s").str("ab").str("c").finish();
        assert_eq!(a, c);
        assert_ne!(a, b, "string framing must prevent aliasing");
        assert_ne!(
            KeyBuilder::new("s").u64(1).finish(),
            KeyBuilder::new("s").u64(2).finish()
        );
        assert_ne!(
            KeyBuilder::new("s1").u64(1).finish(),
            KeyBuilder::new("s2").u64(1).finish(),
            "schema tag must salt the key"
        );
        assert_ne!(
            KeyBuilder::new("s").f64(0.0).finish(),
            KeyBuilder::new("s").f64(-0.0).finish(),
            "float coordinates hash by bit pattern"
        );
        assert_eq!(a.hex().len(), 32);
    }

    #[test]
    fn miss_then_store_then_hit() {
        let cache = tmp_cache("miss-store-hit");
        let key = cache.key_builder().u64(7).finish();
        let mut runs = 0u32;
        let v1: u64 = cache.run_cached(&key, || {
            runs += 1;
            42
        });
        let v2: u64 = cache.run_cached(&key, || {
            runs += 1;
            42
        });
        assert_eq!((v1, v2), (42, 42));
        assert_eq!(runs, 1, "second call must replay, not re-run");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalid, s.stored), (1, 1, 0, 1));
    }

    #[test]
    fn corrupt_entries_degrade_to_invalid_with_fresh_fallback() {
        let cache = tmp_cache("corrupt");
        let key = cache.key_builder().u64(9).finish();
        let _: u64 = cache.run_cached(&key, || 5);
        // Truncate the stored entry mid-payload.
        let path = cache.entry_path(&key);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        let v: u64 = cache.run_cached(&key, || 5);
        assert_eq!(v, 5);
        let s = cache.stats();
        assert_eq!(s.invalid, 1);
        // The fallback re-stored a good entry; next lookup hits.
        let _: u64 = cache.run_cached(&key, || unreachable!("entry must be valid again"));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn wrong_schema_or_key_echo_is_invalid() {
        let a = tmp_cache("schema-a");
        let key = a.key_builder().u64(1).finish();
        let _: u64 = a.run_cached(&key, || 3);
        // Same directory, different schema tag: the entry must not
        // replay even though the file parses.
        let b = CellCache::new(a.dir().to_path_buf(), "test-v2");
        // Note: different schema also changes the *key*, so build the
        // collision by hand — copy the entry under b's key name.
        let bkey = b.key_builder().u64(1).finish();
        fs::copy(a.entry_path(&key), b.entry_path(&bkey)).unwrap();
        let v: u64 = b.run_cached(&bkey, || 8);
        assert_eq!(v, 8, "schema-mismatched entry must not replay");
        assert_eq!(b.stats().invalid, 1);
    }

    #[test]
    fn payload_that_is_not_a_t_counts_invalid() {
        let cache = tmp_cache("wrong-type");
        let key = cache.key_builder().u64(2).finish();
        cache.store(&key, "\"not a number\"");
        let v: u64 = cache.run_cached(&key, || 11);
        assert_eq!(v, 11);
        assert_eq!(cache.stats().invalid, 1);
    }

    #[test]
    fn no_torn_temp_files_left_behind() {
        let cache = tmp_cache("tmp-clean");
        for i in 0..8u64 {
            let key = cache.key_builder().u64(i).finish();
            let _: u64 = cache.run_cached(&key, || i);
        }
        let leftovers: Vec<_> = fs::read_dir(cache.dir())
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");
    }
}
