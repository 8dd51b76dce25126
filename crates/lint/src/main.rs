//! CLI for the workspace determinism linter.
//!
//! Usage (from the workspace root):
//!
//! ```text
//! afraid-lint [--root DIR] [--deny] [--baseline FILE] [--write-baseline] [--json]
//! ```
//!
//! * `--deny` — exit 1 on any finding (CI mode). Without it the tool
//!   reports and exits 0 so it can be used exploratorily.
//! * `--baseline FILE` — ratchet the `lint:allow` counts against the
//!   committed baseline: growth *and* silent shrink both fail.
//! * `--write-baseline` — regenerate the baseline file from the tree
//!   (requires `--baseline`); use after reviewing a new exception or
//!   removing an old one.
//! * `--json` — machine-readable findings with file:line spans, plus
//!   symbol-graph stats and the measured schema fingerprints.
//! * `--explain RULE` — print the rule's rationale and an example
//!   finding, then exit.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: afraid-lint [--root DIR] [--deny] [--baseline FILE] [--write-baseline] [--json] [--explain RULE]"
    );
    std::process::exit(2);
}

/// Per-rule rationale for `--explain`: (id, summary, example finding).
const EXPLANATIONS: &[(&str, &str, &str)] = &[
    (
        "d1",
        "No wall-clock / OS-entropy / ambient-environment APIs in the deterministic \
         crates. A cell's outcome must be a pure function of its coordinates (trace \
         seed, duration, policy, config); SystemTime, Instant, thread_rng, env::var \
         and fs reads make it depend on when/where the run happened. The bench crate \
         is allowlisted for timing; sound cache/persistence exceptions carry an \
         inline `lint:allow(d1) <reason>`.",
        "crates/exp/src/cache.rs:88: [d1] `fs::read` in a deterministic crate: \
         file-system state is an ambient input (...)",
    ),
    (
        "d2",
        "No std HashMap/HashSet in serialized or result-affecting modules: \
         RandomState seeds the hash per process, so iteration order differs across \
         runs and leaks into any output built by iteration. Use BTreeMap/BTreeSet, \
         or afraid_sim::hash::{FxHashMap, U64Set} for integer keys.",
        "crates/core/src/metrics.rs:10: [d2] `HashMap` in a serialized/result-\
         affecting module: RandomState iteration order is nondeterministic (...)",
    ),
    (
        "d3",
        "Panic-freedom budget in the event-loop hot path (controller, integrity, \
         sched, queue): .unwrap()/.expect(), panic!-family macros and \
         slice indexing are flagged unless the invariant is annotated. A panic in \
         the hot path kills every parallel job sharing the process.",
        "crates/core/src/controller.rs:210: [d3] `.unwrap()` in the event-loop hot \
         path: a panic here kills the whole experiment matrix (...)",
    ),
    (
        "d4",
        "Manifest hygiene: no Cargo.lock-bypassing dependencies (git, registry \
         versions, paths escaping the repo), every source crate opts into \
         `[lints] workspace = true`, and no `cfg!(test)` runtime branches in \
         library code (behaviour must not differ between test and production \
         builds).",
        "crates/exp/Cargo.toml:14: [d4] registry dependency `rand = \"0.8\"` \
         bypasses the vendored, locked dependency set (...)",
    ),
    (
        "d5",
        "Cache-key completeness (workspace rule). ArrayConfig::cache_encoding() \
         must be injective or warm runs replay the wrong cell: every ArrayConfig \
         field must be referenced in cache_encoding(), and every workspace struct \
         transitively embedded in the config must render through derived Debug — a \
         hand-written Debug impl can round away distinguishing bits (this repo's \
         SimTime once printed {:.3}s, merging configs that differed below a \
         millisecond). Reviewed-injective manual impls carry `lint:allow(d5)`.",
        "crates/core/src/config.rs:56: [d5] field `integrity` of `ArrayConfig` is \
         never referenced in `cache_encoding()` — an un-salted field means two \
         different configs share a cache key (...)",
    ),
    (
        "d6",
        "Schema-tag drift (workspace rule). The serialized result shapes \
         (RunMetrics/RunResult behind RESULT_SCHEMA, the chaos verdict behind \
         CHAOS_SCHEMA) are structurally fingerprinted — item kind, name, ordered \
         fields and their type identifiers, over the transitive embedding closure — \
         and pinned as `tag@fingerprint` in lint-baseline.toml's [schema] section. \
         Changing a shape without bumping its tag fails the gate: cached cells \
         written under the old shape would otherwise replay into the new one.",
        "crates/bench/src/harness.rs:38: [d6] the result shape behind \
         `RESULT_SCHEMA` changed (fingerprint 6b... -> 9d...) but the schema tag \
         is still \"afraid-cell-v2\" (...)",
    ),
    (
        "d7",
        "Call-graph panic reachability (workspace rule). Extends d3's panic budget \
         from the hand-listed hot-path files to every function reachable from the \
         event-loop entry points (run_trace, run_to_cut), by BFS over name-resolved \
         call edges. Resolution is over-approximate on purpose: a spuriously \
         flagged site costs one `lint:allow(d7)` annotation; a missed reachable \
         site costs a wedged experiment matrix. Findings carry the shortest call \
         path from the entry point.",
        "crates/core/src/recovery.rs:305: [d7] `.expect()` is reachable from the \
         event loop via run_trace -> step -> handle -> fail_disk (...)",
    ),
    (
        "d8",
        "Concurrency hygiene in thread-spawning crates (exp). The parallel engine \
         promises byte-equal results at any --jobs count; that survives only if \
         shared state synchronizes: `static mut` is an unsynchronized race, \
         `Ordering::Relaxed` has no happens-before edge (stale reads of anything \
         result-affecting), and non-scoped `thread::spawn` escapes the pool's \
         join/propagate-panic discipline. Free counters nobody reads back may keep \
         Relaxed with an annotation.",
        "crates/exp/src/cache.rs:41: [d8] `Ordering::Relaxed` in a thread-spawning \
         crate: no happens-before edge, so cross-thread reads may see stale \
         values (...)",
    ),
];

fn explain(rule: &str) -> ExitCode {
    let Some((id, summary, example)) = EXPLANATIONS.iter().find(|(id, _, _)| *id == rule) else {
        eprintln!(
            "afraid-lint: unknown rule {rule:?} (expected one of {:?})",
            EXPLANATIONS
                .iter()
                .map(|(id, _, _)| *id)
                .collect::<Vec<_>>()
        );
        return ExitCode::from(2);
    };
    println!("[{id}]");
    println!("{summary}");
    println!();
    println!("example finding:");
    println!("  {example}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut deny = false;
    let mut json = false;
    let mut baseline: Option<String> = None;
    let mut write_baseline = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => usage(),
            },
            "--deny" => deny = true,
            "--json" => json = true,
            "--baseline" => match args.next() {
                Some(file) => baseline = Some(file),
                None => usage(),
            },
            "--write-baseline" => write_baseline = true,
            "--explain" => match args.next() {
                Some(rule) => return explain(&rule),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("afraid-lint: unknown argument {other:?}");
                usage();
            }
        }
    }
    if write_baseline && baseline.is_none() {
        eprintln!("afraid-lint: --write-baseline requires --baseline FILE");
        usage();
    }

    let mut report = match afraid_lint::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "afraid-lint: cannot scan workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    if let Some(rel) = &baseline {
        if write_baseline {
            let rendered = afraid_lint::baseline::render(
                &report.allows,
                &afraid_lint::schema_section(&report),
            );
            if let Err(e) = std::fs::write(root.join(rel), rendered) {
                eprintln!("afraid-lint: cannot write baseline {rel}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("afraid-lint: wrote {rel} ({} entries)", report.allows.len());
        }
        afraid_lint::apply_baseline(&mut report, &root, rel);
    }

    if json {
        print!("{}", afraid_lint::to_json(&report));
    } else {
        for f in &report.findings {
            println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        eprintln!(
            "afraid-lint: {} finding(s) across {} file(s), {} allow annotation(s) in use",
            report.findings.len(),
            report.files_scanned,
            report.allows.values().map(|&v| u64::from(v)).sum::<u64>()
        );
        let g = &report.graph;
        eprintln!(
            "afraid-lint: graph: {} fns, {} structs, {} call edges, {} panic sites ({} reachable from the event loop)",
            g.fns, g.structs, g.call_edges, g.panic_sites, g.reachable_panic_sites
        );
    }

    if deny && !report.findings.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
