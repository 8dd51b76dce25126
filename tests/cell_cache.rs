//! Tier-1 guarantees of the cross-run cell cache: a warm-cache run
//! produces byte-identical serialized results to a cold run (and to an
//! uncached run), damaged entries degrade to misses with a fresh-run
//! fallback instead of panicking or corrupting results, and distinct
//! cell coordinates never share a key.
#![expect(clippy::disallowed_methods, reason = "tests use real cache dirs")]

use std::fs;
use std::path::PathBuf;

use afraid::config::ArrayConfig;
use afraid::policy::ParityPolicy;
use afraid_bench::harness::{self, Cell, Setup};
use afraid_exp::CellCache;
use afraid_sim::time::SimDuration;
use afraid_trace::workloads::WorkloadKind;
use proptest::prelude::*;

const CAPACITY: u64 = 512 * 1024 * 1024;
const SEED: u64 = 0xAF1D_0006;

/// Fresh cache directory per test so runs can't contaminate each other.
fn cache_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("test-cell-cache-tier1")
        .join(tag);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn kinds() -> [WorkloadKind; 3] {
    [WorkloadKind::Hplajw, WorkloadKind::Snake, WorkloadKind::Att]
}

/// Runs the matrix (optionally against `cache`) and serializes every
/// cell's `RunResult` into one byte string.
fn matrix_blob(cache: Option<&CellCache>) -> String {
    let duration = SimDuration::from_secs(20);
    let kinds = kinds();
    let policies = harness::headline_designs();
    let setup = Setup {
        duration,
        seed: SEED,
        jobs: 2,
        cache,
    };
    let rows: Vec<Vec<Cell>> = harness::run_cells_cached(&setup, &kinds, CAPACITY, &policies);
    let mut blob = String::new();
    for row in &rows {
        for cell in row {
            blob.push_str(&serde_json::to_string(&cell.result).expect("RunResult serializes"));
            blob.push('\n');
        }
    }
    blob
}

#[test]
fn warm_cache_run_is_byte_identical_to_cold() {
    let cache = CellCache::new(cache_dir("warm-vs-cold"), harness::RESULT_SCHEMA);

    let uncached = matrix_blob(None);
    let cold = matrix_blob(Some(&cache));
    let cold_stats = cache.stats();
    let warm = matrix_blob(Some(&cache));
    let stats = cache.stats();

    // The load-bearing guarantee: replayed cells are byte-identical to
    // simulated ones, so downstream reports cannot tell the difference.
    assert_eq!(cold, uncached, "cold cached run diverged from uncached");
    assert_eq!(warm, cold, "warm run diverged from cold");

    let cells = 9; // 3 workloads x 3 policies
    assert_eq!(cold_stats.misses, cells, "cold run should miss every cell");
    assert_eq!(cold_stats.stored, cells, "cold run should store every cell");
    assert_eq!(stats.hits, cells, "warm run should hit every cell");
    assert_eq!(stats.misses, cells, "warm run must add no new misses");
    assert_eq!(stats.invalid, 0, "no entry should have been rejected");
}

#[test]
fn distinct_configs_never_collide_on_a_key() {
    let cache = CellCache::new(cache_dir("collisions"), harness::RESULT_SCHEMA);
    let duration = SimDuration::from_secs(600);

    // A grid of single-field mutations around the paper default: every
    // coordinate the cache key must separate, including nested scrub
    // and fault settings that only appear via `cache_encoding`.
    let mut configs: Vec<(String, ArrayConfig)> = Vec::new();
    for policy in [
        ParityPolicy::IdleOnly,
        ParityPolicy::NeverRebuild,
        ParityPolicy::AlwaysRaid5,
        ParityPolicy::MttdlTarget {
            target_hours: 1.0e8,
        },
        ParityPolicy::MttdlTarget {
            target_hours: 1.0e7,
        },
        ParityPolicy::Conservative {
            lag_bound_bytes: 65536,
        },
    ] {
        configs.push((
            format!("policy={policy:?}"),
            ArrayConfig::paper_default(policy),
        ));
    }
    let base = || ArrayConfig::paper_default(ParityPolicy::IdleOnly);
    let mut with = |label: &str, f: &dyn Fn(&mut ArrayConfig)| {
        let mut cfg = base();
        f(&mut cfg);
        configs.push((label.to_string(), cfg));
    };
    with("disks=7", &|c| c.disks = 7);
    with("stripe=32k", &|c| c.stripe_unit_bytes = 32 * 1024);
    with("idle=2s", &|c| c.idle_delay = SimDuration::from_secs(2));
    with("batch=64", &|c| c.scrub_batch = 64);
    with("rcache=0", &|c| c.read_cache_bytes = 0);
    with("shadow", &|c| c.shadow = true);
    with("scrub-on", &|c| {
        c.scrub.enabled = true;
        c.scrub.iops_budget = 20.0;
    });
    with("latent", &|c| c.scrub.latent_rate_per_disk_hour = 0.01);
    with("media-err", &|c| c.faults.media_error_per_io = 1e-6);
    with("timeouts", &|c| c.faults.timeout_per_io = 1e-6);
    with("evict", &|c| c.faults.evict_threshold = 3.0);

    // Key each config at identical trace coordinates, plus a few
    // variations of the non-config coordinates for the default config.
    let mut keys: Vec<(String, String)> = configs
        .iter()
        .map(|(label, cfg)| {
            let key = harness::cell_key(&cache, cfg, "snake", CAPACITY, duration, SEED);
            (label.clone(), key.hex())
        })
        .collect();
    let cfg = base();
    for (label, workload, capacity, duration, seed) in [
        ("other-workload", "att", CAPACITY, duration, SEED),
        ("other-capacity", "snake", CAPACITY + 1, duration, SEED),
        (
            "other-duration",
            "snake",
            CAPACITY,
            SimDuration::from_secs(601),
            SEED,
        ),
        ("other-seed", "snake", CAPACITY, duration, SEED + 1),
    ] {
        let key = harness::cell_key(&cache, &cfg, workload, capacity, duration, seed);
        keys.push((label.to_string(), key.hex()));
    }

    for (i, (la, ka)) in keys.iter().enumerate() {
        for (lb, kb) in &keys[i + 1..] {
            assert_ne!(ka, kb, "cache key collision between {la} and {lb}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Arbitrary damage to stored entries — truncation, garbage bytes,
    /// flipped characters — must degrade to a miss with a fresh-run
    /// fallback: same bytes out, no panic, and the damage shows up in
    /// the `invalid` counter rather than in the results.
    #[test]
    fn damaged_entries_degrade_to_miss_with_fresh_fallback(
        case in 0usize..4,
        cut in 0usize..512,
        junk in prop::collection::vec(0u8..255, 1..64),
    ) {
        let cache = CellCache::new(cache_dir("damage"), harness::RESULT_SCHEMA);
        let pristine = matrix_blob(Some(&cache));

        let mut entries: Vec<PathBuf> = fs::read_dir(cache.dir())
            .expect("cache dir exists")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        entries.sort();
        prop_assert_eq!(entries.len(), 9);

        // Damage a deterministic subset so hits and invalids coexist.
        let mut damaged = 0u64;
        for path in entries.iter().step_by(2) {
            let original = fs::read(path).expect("entry readable");
            let mangled = match case {
                0 => original[..cut.min(original.len())].to_vec(), // truncate
                1 => junk.clone(),                                 // replace with garbage
                2 => {
                    // corrupt the payload in place
                    let mut v = original;
                    let at = cut.min(v.len().saturating_sub(1));
                    v[at] = v[at].wrapping_add(junk[0] | 1);
                    v
                }
                _ => Vec::new(),                                   // empty file
            };
            fs::write(path, mangled).expect("entry writable");
            damaged += 1;
        }

        let replayed = matrix_blob(Some(&cache));
        prop_assert_eq!(&replayed, &pristine, "damaged cache changed results");
        let stats = cache.stats();
        // Every damaged entry is rejected and re-run. (Truncation,
        // garbage, and emptying always break validation; a single-byte
        // corruption could in principle land on a semantically dead
        // spot, so `case` 2 only bounds the count.)
        prop_assert!(stats.invalid <= damaged, "more invalids than damaged files");
        if case != 2 {
            prop_assert_eq!(stats.invalid, damaged, "a damaged entry was accepted");
        }
        prop_assert_eq!(stats.lookups(), 18, "9 cold + 9 replay lookups");
        // ...and the rejected entries were rewritten in passing: a
        // third pass is pure hits with no new rejections.
        let again = matrix_blob(Some(&cache));
        prop_assert_eq!(&again, &pristine);
        let fin = cache.stats();
        prop_assert_eq!(fin.hits, stats.hits + 9, "third pass should be all hits");
        prop_assert_eq!(fin.invalid, stats.invalid, "third pass re-rejected an entry");
    }
}
