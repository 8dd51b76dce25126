//! Tier-1 self-check: the workspace must pass its own determinism
//! linter under the committed baseline. This is the same gate CI runs
//! via `cargo run -p afraid-lint -- --deny --baseline lint-baseline.toml`,
//! folded into `cargo test` so a violation fails fast locally.

use std::path::Path;

#[test]
fn workspace_is_lint_clean_under_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut report = match afraid_lint::run_workspace(root) {
        Ok(r) => r,
        Err(e) => panic!("lint scan failed: {e}"),
    };
    assert!(
        report.files_scanned > 40,
        "scan looks truncated: only {} files visited",
        report.files_scanned
    );
    afraid_lint::apply_baseline(&mut report, root, "lint-baseline.toml");

    if !report.findings.is_empty() {
        let mut msg = String::from(
            "workspace violates its determinism invariants (fix the code, \
             annotate with `// lint:allow(<rule>) <reason>`, or — for a \
             deliberate ratchet change — regenerate lint-baseline.toml \
             with --write-baseline):\n",
        );
        for f in &report.findings {
            msg.push_str(&format!(
                "  {}:{}: [{}] {}\n",
                f.file, f.line, f.rule, f.message
            ));
        }
        panic!("{msg}");
    }
}

#[test]
fn baseline_matches_live_allow_counts() {
    // The committed baseline must be exactly the current allow census:
    // growth is caught above; this direction catches a stale baseline
    // left behind after violations were fixed (silent slack in the
    // ratchet).
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = match afraid_lint::run_workspace(root) {
        Ok(r) => r,
        Err(e) => panic!("lint scan failed: {e}"),
    };
    let committed = std::fs::read_to_string(root.join("lint-baseline.toml")).unwrap_or_default();
    let live = afraid_lint::baseline::render(&report.allows, &afraid_lint::schema_section(&report));
    assert_eq!(
        committed, live,
        "lint-baseline.toml is out of date — regenerate with \
         `cargo run -p afraid-lint -- --baseline lint-baseline.toml --write-baseline`"
    );
}

#[test]
fn d5_canary_unsalted_field_is_exactly_one_finding() {
    // Rule d5's reason to exist: a config struct whose cache-key
    // method forgets one field must be caught, and caught precisely.
    // This fixture clones the real shape of the contract — exhaustive
    // destructuring, one field deliberately dropped on the floor.
    let fixture = br#"
        pub struct ArrayConfig {
            pub disks: u32,
            pub stripe_unit_bytes: u64,
            pub idle_delay: u64,
            pub read_ahead: u8,
        }
        impl ArrayConfig {
            pub fn cache_encoding(&self) -> String {
                let ArrayConfig { disks, stripe_unit_bytes, idle_delay, .. } = self;
                format!("{disks:?};{stripe_unit_bytes:?};{idle_delay:?}")
            }
        }
    "#;
    let symbols = afraid_lint::symbols::scan_file("fixture/config.rs", fixture);
    let graph = afraid_lint::graph::Graph::build(&[symbols]);
    let findings = afraid_lint::wsrules::check_cache_key(&graph, "ArrayConfig", "cache_encoding");
    assert_eq!(
        findings.len(),
        1,
        "expected exactly one d5 finding for the one un-salted field, got: {findings:?}"
    );
    assert_eq!(findings[0].rule, "d5");
    assert!(
        findings[0].message.contains("`read_ahead`"),
        "finding should name the dropped field: {}",
        findings[0].message
    );
}

#[test]
fn d6_canary_shape_edit_without_tag_bump_fails() {
    // Rule d6's reason to exist: editing a serialized result shape
    // while keeping the schema tag must fail the gate; bumping the
    // tag must instead demand a baseline regeneration (never pass
    // silently).
    let v1 = br#"
        pub const RESULT_SCHEMA: &str = "cell-v1";
        pub struct RunMetrics { pub reads: u64, pub writes: u64 }
    "#;
    let edited = br#"
        pub const RESULT_SCHEMA: &str = "cell-v1";
        pub struct RunMetrics { pub reads: u64, pub writes: u64, pub retries: u64 }
    "#;
    let bindings: &[(&str, &[&str])] = &[("RESULT_SCHEMA", &["RunMetrics"])];
    let probe = |src: &[u8]| {
        let g = afraid_lint::graph::Graph::build(&[afraid_lint::symbols::scan_file("m.rs", src)]);
        let (probes, errs) = afraid_lint::wsrules::probe_schemas(&g, bindings);
        assert!(errs.is_empty(), "{errs:?}");
        probes
    };
    let committed: std::collections::BTreeMap<String, String> =
        [("RESULT_SCHEMA".to_string(), probe(v1)[0].entry())]
            .into_iter()
            .collect();
    // Unchanged shape: clean.
    assert!(afraid_lint::wsrules::check_schema_drift("bl.toml", &probe(v1), &committed).is_empty());
    // Edited shape, same tag: exactly one d6 finding at the const.
    let findings = afraid_lint::wsrules::check_schema_drift("bl.toml", &probe(edited), &committed);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "d6");
    assert!(findings[0].message.contains("schema tag is still"));
}
