//! The serialized result shapes are pinned to their schema tags. Each
//! sample below is reduced to its key paths and compared with
//! `tests/golden/<tag>.keys`, so adding, removing or renaming a field
//! without bumping the tag fails here. After a deliberate bump, write
//! the new tag's file from the skeleton this test prints.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions};
use afraid::policy::ParityPolicy;
use afraid_bench::harness::RESULT_SCHEMA;
use afraid_chaos::scenario::Scenario;
use afraid_chaos::CHAOS_SCHEMA;
use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};
use serde::{Serialize, Value};

/// Every leaf path of `v`: map keys joined by `.`, sequence elements
/// as `[]`.
fn skeleton(v: &Value, path: String, out: &mut BTreeSet<String>) {
    match v {
        Value::Map(entries) => {
            for (k, v) in entries {
                skeleton(v, format!("{path}.{k}"), out);
            }
        }
        Value::Seq(items) if !items.is_empty() => {
            for v in items {
                skeleton(v, format!("{path}[]"), out);
            }
        }
        _ => {
            out.insert(path);
        }
    }
}

/// The key-path skeleton of `v`, one path per line.
fn skeleton_text(v: &Value) -> String {
    let mut keys = BTreeSet::new();
    skeleton(v, String::new(), &mut keys);
    keys.iter().map(|k| format!("{k}\n")).collect()
}

fn golden_file(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{tag}.keys"))
}

#[expect(clippy::disallowed_methods, reason = "reads the golden file")]
fn golden_keys(tag: &str) -> String {
    std::fs::read_to_string(golden_file(tag)).unwrap_or_default()
}

fn assert_golden(tag: &str, sample: &Value) {
    let live = skeleton_text(sample);
    assert!(
        golden_keys(tag) == live,
        "the serialized shape behind schema tag {tag:?} differs from {}: bump the tag \
         and record the new shape, which is:\n{live}",
        golden_file(tag).display()
    );
}

/// A cut verdict with every `Option` set.
fn cut_verdict_sample() -> Value {
    let spec = Scenario::Baseline.spec(SimDuration::from_secs(1), 42);
    let trace = spec.trace();
    let mut v = spec.run_cut(&trace, 100);
    v.failed_disk = Some(0);
    v.failure = Some(String::new());
    v.to_value()
}

#[test]
fn run_result_shape_matches_its_tag() {
    let cfg = ArrayConfig::small_test(ParityPolicy::IdleOnly);
    let trace = WorkloadSpec::preset(WorkloadKind::Att).generate(
        2500 * 4 * 8192,
        SimDuration::from_secs(5),
        42,
    );
    let opts = RunOptions {
        fail_disk: Some((1, SimTime::from_secs(2))),
        ..RunOptions::default()
    };
    let mut r = run_trace(&cfg, &trace, &opts);
    assert!(r.loss.is_some());
    r.reprotected_at = Some(r.end);
    r.rebuilt_at = Some(r.end);
    r.evicted_at = Some(r.end);
    assert_golden(RESULT_SCHEMA, &r.to_value());
}

#[test]
fn cut_verdict_shape_matches_its_tag() {
    assert_golden(CHAOS_SCHEMA, &cut_verdict_sample());
}

#[test]
fn shape_edit_without_tag_bump_fails() {
    // Adding, removing or renaming one top-level field each moves the
    // skeleton off the golden file of the unchanged tag.
    let Value::Map(fields) = cut_verdict_sample() else {
        unreachable!("a cut verdict serializes to a map")
    };
    let golden = golden_keys(CHAOS_SCHEMA);
    assert_eq!(skeleton_text(&Value::Map(fields.clone())), golden);
    let mut added = fields.clone();
    added.push(("new_field".to_string(), Value::Bool(true)));
    let removed = fields[1..].to_vec();
    let mut renamed = fields.clone();
    renamed[0].0.push_str("_renamed");
    for edited in [added, removed, renamed] {
        assert_ne!(skeleton_text(&Value::Map(edited)), golden);
    }
}
