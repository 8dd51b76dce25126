//! `afraid-lint` — the workspace determinism & invariant linter.
//!
//! Every headline number in this reproduction depends on a cell's
//! outcome being a pure function of its coordinates (trace seed,
//! duration, policy, config): the parallel engine promises byte-equal
//! results at any `--jobs` count, and the MTTDL/MDLR comparisons are
//! meaningless if reruns drift. This tool makes that contract
//! machine-checked instead of convention-checked. Rules (all
//! deny-by-default, annotated exceptions ratcheted by
//! `lint-baseline.toml`):
//!
//! * **d1** — no wall-clock / OS-entropy / ambient-environment APIs
//!   (`SystemTime`, `Instant`, `thread_rng`, `env::var`,
//!   `available_parallelism`, …) in the deterministic crates;
//!   `bench` is allowlisted for timing.
//! * **d2** — no `std::collections::HashMap`/`HashSet` (RandomState
//!   iteration order) in serialized or result-affecting modules; use
//!   `BTreeMap`/`BTreeSet` or `afraid_sim::hash::{FxHashMap, U64Set}`.
//! * **d3** — panic-freedom budget in the event-loop hot path
//!   (`controller.rs`, `queue.rs`, `sched.rs`): `.unwrap()`,
//!   `.expect()`, `panic!`-family macros and slice indexing are flagged
//!   unless carried by an inline `// lint:allow(d3) <reason>`.
//! * **d4** — no `Cargo.lock`-bypassing dependencies (git, registry
//!   versions, paths escaping the repo), `[lints] workspace = true`
//!   opt-in in every source crate, and no `cfg!(test)` runtime
//!   branches in library code.
//!
//! Rules d5–d7 run over the workspace **symbol graph** (see
//! [`symbols`], [`graph`], [`wsrules`]) rather than per file:
//!
//! * **d5** — cache-key completeness: every `ArrayConfig` field (and
//!   every struct transitively embedded in it) must reach
//!   `cache_encoding()`; manual `Debug` impls in the closure need a
//!   reviewed-injective annotation.
//! * **d6** — schema-tag drift: structural fingerprints of the
//!   serialized result shapes are pinned in `lint-baseline.toml`;
//!   changing a shape without bumping its tag fails.
//! * **d7** — call-graph panic reachability: d3's panic budget,
//!   extended from the hot-path allowlist to everything reachable
//!   from `run_trace`/`run_to_cut`.
//! * **d8** — concurrency hygiene in the thread-spawning `exp` crate:
//!   `static mut`, `Ordering::Relaxed`, non-scoped `thread::spawn`.
//!
//! See `DESIGN.md` §10 and §15 for the rationale behind each rule.

pub mod baseline;
pub mod graph;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod symbols;
pub mod wsrules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{lint_source, FileClass, Finding};

use baseline::AllowCounts;
use graph::{Graph, GraphStats};
use wsrules::SchemaProbe;

/// The deterministic crate set: results must be a pure function of
/// explicit inputs everywhere in here.
const DETERMINISTIC_CRATES: &[&str] = &["avail", "chaos", "core", "disk", "exp", "sim", "trace"];

/// Crates scanned with D1 switched off (they time real execution).
const D1_EXEMPT_CRATES: &[&str] = &["bench"];

/// Event-loop hot-path files under the D3 panic budget.
const HOT_PATH_FILES: &[&str] = &[
    "crates/core/src/controller.rs",
    "crates/core/src/integrity.rs",
    "crates/disk/src/sched.rs",
    "crates/sim/src/queue.rs",
];

/// The sanctioned deterministic-hasher wrapper module (defines the
/// `FxHashMap`/`U64Set` aliases D2 points everyone at).
const D2_EXEMPT_FILES: &[&str] = &["crates/sim/src/hash.rs"];

/// Thread-spawning crates under D8's concurrency hygiene.
const CONCURRENCY_CRATES: &[&str] = &["exp"];

/// Whole-workspace lint result.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Used `lint:allow` annotations per (rule, file).
    pub allows: AllowCounts,
    /// Files scanned (repo-relative), for reporting.
    pub files_scanned: usize,
    /// Measured schema-tag probes (D6), for baseline writing/diffing.
    pub schema: Vec<SchemaProbe>,
    /// Symbol-graph statistics, for `--json` and the CI artifact.
    pub graph: GraphStats,
}

/// Classifies a repo-relative source path.
fn classify(rel: &str) -> FileClass {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    let deterministic = DETERMINISTIC_CRATES.contains(&crate_name)
        || rel.starts_with("src/") // the root package: CLI + integration surface
        || D1_EXEMPT_CRATES.contains(&crate_name); // bench: D2 still applies
    FileClass {
        deterministic,
        d1_exempt: D1_EXEMPT_CRATES.contains(&crate_name),
        d2_exempt: D2_EXEMPT_FILES.contains(&rel),
        hot_path: HOT_PATH_FILES.contains(&rel),
        concurrency: CONCURRENCY_CRATES.contains(&crate_name),
    }
}

/// D7's coverage: deterministic, not the timing-exempt bench crate
/// (its panics abort a bench, not the experiment matrix), and not
/// already under D3's stricter hot-path budget.
fn d7_covered(rel: &str) -> bool {
    let class = classify(rel);
    class.deterministic && !class.d1_exempt && !class.hot_path
}

/// Recursively collects `.rs` files under `dir`, sorted so the scan
/// order (and therefore the report) is deterministic on any OS.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints the whole workspace rooted at `root` (the directory holding
/// the workspace `Cargo.toml`). Scans `src/` of the root package and
/// of every crate under `crates/`, plus all their manifests. `tests/`,
/// `benches/`, `examples/` and `vendor/` are out of scope: test code
/// may time and hash freely.
pub fn run_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    // Per-file symbol sets for the workspace graph, and pending
    // graph-rule allows as (file, rule, line, last_line, used).
    let mut file_symbols: Vec<symbols::FileSymbols> = Vec::new();
    let mut graph_allows: Vec<(String, String, u32, u32, bool)> = Vec::new();

    // Source crates: crates/* (sorted) + the root package.
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    crate_dirs.push(root.to_path_buf());

    for dir in &crate_dirs {
        let src_dir = dir.join("src");
        if src_dir.is_dir() {
            let mut files = Vec::new();
            collect_rs(&src_dir, &mut files)?;
            for path in files {
                let rel = rel_of(root, &path);
                let src = fs::read(&path)?;
                let fr = rules::lint_source(&rel, &src, classify(&rel));
                report.findings.extend(fr.findings);
                report
                    .findings
                    .extend(rules::annotation_hygiene(&rel, &src));
                for (rule, _line) in fr.allows_used {
                    *report.allows.entry((rule, rel.clone())).or_insert(0) += 1;
                }
                for (rule, line, last_line) in fr.graph_allows {
                    graph_allows.push((rel.clone(), rule, line, last_line, false));
                }
                file_symbols.push(symbols::scan_file(&rel, &src));
                report.files_scanned += 1;
            }
        }
        let manifest_path = dir.join("Cargo.toml");
        if manifest_path.is_file() {
            let rel = rel_of(root, &manifest_path);
            let src = fs::read_to_string(&manifest_path)?;
            report
                .findings
                .extend(manifest::lint_manifest(&rel, &src, true));
            report.files_scanned += 1;
        }
    }

    // Workspace rules over the assembled symbol graph.
    let graph = Graph::build(&file_symbols);
    let mut ws_findings = wsrules::check_cache_key(&graph, wsrules::D5_ROOT.0, wsrules::D5_ROOT.1);
    let (probes, d6_findings) = wsrules::probe_schemas(&graph, wsrules::D6_BINDINGS);
    ws_findings.extend(d6_findings);
    ws_findings.extend(wsrules::check_panic_reachability(
        &graph,
        wsrules::D7_ENTRIES,
        &d7_covered,
    ));
    report.schema = probes;
    report.graph = graph.stats(wsrules::D7_ENTRIES);

    // Match graph findings against the per-file allows exported above:
    // same rule, same file, annotation covering the finding's line or
    // the line above it (the same span rule as the local rules).
    'finding: for f in ws_findings {
        for a in graph_allows.iter_mut() {
            if a.0 == f.file && a.1 == f.rule && a.3.saturating_add(1) >= f.line && a.2 <= f.line {
                a.4 = true;
                continue 'finding;
            }
        }
        report.findings.push(f);
    }
    for (file, rule, line, _, used) in &graph_allows {
        if *used {
            // Count each live annotation once, same as the local rules.
            *report
                .allows
                .entry((rule.clone(), file.clone()))
                .or_insert(0) += 1;
        } else {
            report.findings.push(Finding::new(
                file,
                *line,
                "meta",
                format!(
                    "unused lint:allow({rule}) — remove it (the ratchet counts only live allows)"
                ),
            ));
        }
    }

    report.findings.sort();
    report.findings.dedup();
    Ok(report)
}

/// Checks `report` against the committed baseline at `path`, appending
/// any ratchet findings. A missing baseline file is itself a finding
/// (the gate must never pass vacuously).
pub fn apply_baseline(report: &mut Report, root: &Path, rel_path: &str) {
    let path = root.join(rel_path);
    let src = match fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            report.findings.push(Finding::new(
                rel_path,
                0,
                "meta",
                format!("cannot read baseline: {e} — generate it with --write-baseline"),
            ));
            return;
        }
    };
    let (committed, schema, mut errs) = baseline::parse(rel_path, &src);
    report.findings.append(&mut errs);
    report
        .findings
        .extend(baseline::diff(rel_path, &report.allows, &committed));
    report.findings.extend(wsrules::check_schema_drift(
        rel_path,
        &report.schema,
        &schema,
    ));
    report.findings.sort();
}

/// The measured `[schema]` section for `--write-baseline`: const name
/// → `tag@fingerprint`.
pub fn schema_section(report: &Report) -> baseline::SchemaMap {
    report
        .schema
        .iter()
        .map(|p| (p.const_name.clone(), p.entry()))
        .collect()
}

/// Renders findings as JSON (machine-readable, stable order). Shape:
/// `{"findings": [{"file", "line", "rule", "message"}], "files_scanned": N}`.
pub fn to_json(report: &Report) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            esc(&f.file),
            f.line,
            esc(&f.rule),
            esc(&f.message)
        ));
    }
    out.push_str(&format!(
        "\n  ],\n  \"files_scanned\": {},\n  \"allow_annotations\": {},\n",
        report.files_scanned,
        report.allows.values().map(|&v| u64::from(v)).sum::<u64>()
    ));
    let g = &report.graph;
    out.push_str(&format!(
        "  \"graph\": {{\"fns\": {}, \"structs\": {}, \"call_edges\": {}, \"panic_sites\": {}, \"reachable_panic_sites\": {}}},\n",
        g.fns, g.structs, g.call_edges, g.panic_sites, g.reachable_panic_sites
    ));
    out.push_str("  \"schema\": {");
    for (i, p) in report.schema.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": \"{}\"",
            esc(&p.const_name),
            esc(&p.entry())
        ));
    }
    out.push_str("}\n}\n");
    out
}
