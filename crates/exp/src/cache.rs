//! A directory of serialized payloads, keyed by a 128-bit hash. Its
//! one user is the repository benchmark's `cache.*` layer, which times
//! `store` and `lookup`; no experiment reads or writes it.
//!
//! Invariants:
//!
//! 1. **Never a panic, never a wrong payload.** Unreadable, truncated,
//!    or schema-mismatched entries are *misses*: every entry is
//!    self-describing (schema tag, key echo, payload digest) and any
//!    validation failure makes [`CellCache::lookup`] return `None`.
//! 2. **Torn-write safety under concurrency.** Entries are written to a
//!    unique temp file and atomically renamed into place, so a
//!    concurrent reader sees either no entry or a complete one.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use afraid_sim::hash::FxU64Hasher;
use std::hash::Hasher;

/// A 128-bit key: two decorrelated [`FxU64Hasher`] lanes over the same
/// coordinate stream.
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

/// Accumulates integer coordinates into a [`CacheKey`]. Construction
/// seeds both lanes with the schema tag and the crate version,
/// length-framed, so a change to either orphans every earlier entry.
#[derive(Clone)]
pub struct KeyBuilder {
    lanes: [FxU64Hasher; 2],
}

impl KeyBuilder {
    /// Starts a key for the given schema tag.
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

    /// Mixes in one string, length-framed so adjacent strings cannot
    /// alias: `("ab", "c")` and `("a", "bc")` hash differently.
    fn str(mut self, s: &str) -> KeyBuilder {
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

/// On-disk shape of one entry. Self-describing so a reader can reject
/// anything stale or torn without trusting the file name.
#[derive(Debug, Serialize, Deserialize)]
struct Entry {
    schema: String,
    key: String,
    digest: String,
    payload: String,
}

/// Snapshot of a store's counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a valid entry.
    pub hits: u64,
    /// Lookups with no entry on disk.
    pub misses: u64,
    /// Entries present but rejected: unreadable, truncated, corrupt,
    /// or schema-mismatched.
    pub invalid: u64,
    /// Entries successfully written.
    pub stored: u64,
}

impl CacheStats {
    /// Total lookups served.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.invalid
    }
}

/// A directory of stored payloads. Shared by reference across threads:
/// all counters are atomic and all file writes are atomic-rename.
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
    /// Opens (lazily — no I/O happens here) a store rooted at `dir`,
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

    /// Starts a [`KeyBuilder`] seeded with this store's schema tag.
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
        reason = "store read: the entry is validated before its payload is returned"
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
    /// Best-effort: I/O failure skips the store.
    #[expect(
        clippy::disallowed_methods,
        reason = "store write: atomic temp-then-rename publish; never read back unvalidated"
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
        // Unique temp name per (process, store) so parallel writers —
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
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests use real store dirs")]
mod tests {
    use super::*;
    use std::path::Path;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-payload-store")
            .join(tag);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tmp_cache(tag: &str) -> CellCache {
        CellCache::new(tmp_dir(tag), "test-v1")
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
        assert_eq!(a.hex().len(), 32);
    }

    #[test]
    fn miss_then_store_then_hit() {
        let cache = tmp_cache("miss-store-hit");
        let key = cache.key_builder().u64(7).finish();
        assert_eq!(cache.lookup(&key), None);
        cache.store(&key, "42");
        assert_eq!(cache.lookup(&key).as_deref(), Some("42"));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalid, s.stored), (1, 1, 0, 1));
        assert_eq!(s.lookups(), 2);
    }

    #[test]
    fn corrupt_entries_degrade_to_invalid_with_fresh_fallback() {
        let cache = tmp_cache("corrupt");
        let key = cache.key_builder().u64(9).finish();
        cache.store(&key, "5");
        // Truncate the stored entry mid-payload.
        let path = cache.entry_path(&key);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_eq!(cache.lookup(&key), None);
        assert_eq!(cache.stats().invalid, 1);
        // A fresh store replaces the damaged entry; the next lookup hits.
        cache.store(&key, "5");
        assert_eq!(cache.lookup(&key).as_deref(), Some("5"));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn wrong_schema_or_key_echo_is_invalid() {
        let dir = tmp_dir("schema");
        let a = CellCache::new(dir.clone(), "test-v1");
        let key = a.key_builder().u64(1).finish();
        a.store(&key, "3");
        // Same directory, different schema tag: the entry must not
        // come back even though the file parses. A different schema
        // also changes the key, so build the collision by hand — copy
        // the entry under b's key name.
        let b = CellCache::new(dir, "test-v2");
        let bkey = b.key_builder().u64(1).finish();
        fs::copy(a.entry_path(&key), b.entry_path(&bkey)).unwrap();
        assert_eq!(
            b.lookup(&bkey),
            None,
            "schema-mismatched entry must not replay"
        );
        assert_eq!(b.stats().invalid, 1);
        // The same file under another key of the right schema fails
        // the key echo.
        let other = a.key_builder().u64(2).finish();
        fs::copy(a.entry_path(&key), a.entry_path(&other)).unwrap();
        assert_eq!(a.lookup(&other), None, "key echo must match the file");
        assert_eq!(a.stats().invalid, 1);
    }

    #[test]
    fn no_torn_temp_files_left_behind() {
        let dir = tmp_dir("tmp-clean");
        let cache = CellCache::new(dir.clone(), "test-v1");
        for i in 0..8u64 {
            let key = cache.key_builder().u64(i).finish();
            cache.store(&key, &i.to_string());
            assert_eq!(cache.lookup(&key), Some(i.to_string()));
        }
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be renamed away");
        assert_eq!(cache.stats().stored, 8);
    }
}
