//! Self-tests for the benchmark: a smoke-sized run of every workload
//! emits every metric `BENCHMARK.json` names, with its unit, and the
//! correctness gate counts deliberately perturbed outputs as failed.

use std::path::Path;
use std::process::Command;

use afraid_benchmark::gate::{group_digests, Gate};
use afraid_benchmark::run::run_pass;
use afraid_benchmark::workload::{cell_outcome, cut_outcome, Inputs, Scale, WorkloadId};
use afraid_chaos::Scenario;
use afraid_sim::time::SimDuration;
use serde::{Deserialize, Value};

/// Any JSON value, for reading the result line and `BENCHMARK.json`.
struct Json(Value);

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

fn parse(text: &str) -> Value {
    serde_json::from_str::<Json>(text)
        .unwrap_or_else(|e| panic!("not JSON ({e}): {text}"))
        .0
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let Some(Value::Seq(items)) = parse(&text).get(section).cloned() else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| {
            let name = m.get("name").map(str_of).expect("metric name");
            let unit = m.get("unit").map(str_of).expect("metric unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

/// Runs the benchmark binary on smoke-sized inputs and returns its exit
/// status and parsed last line.
fn run(workload: &str, trace: u8) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_afraid-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.1"])
        .args(["--trace", &trace.to_string(), "--scale", "smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("some output");
    (out.status.success(), parse(last))
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let want = declared(section);
        assert!(!want.is_empty());
        for id in WorkloadId::ALL {
            let (ok, result) = run(id.name(), trace);
            assert!(ok, "{} --trace {trace} exited nonzero", id.name());
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(result.get("failed"), Some(&Value::U64(0)));
            assert!(matches!(result.get("attempted"), Some(Value::U64(n)) if *n > 0));
            let metrics = result.get("metrics").expect("metrics object");
            let Value::Map(entries) = metrics else {
                panic!("metrics is not an object");
            };
            assert_eq!(entries.len(), want.len(), "{} --trace {trace}", id.name());
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{}: {name} missing", id.name()));
                assert_eq!(m.get("unit").map(str_of), Some(unit.as_str()), "{name}");
                assert!(
                    matches!(
                        m.get("value"),
                        Some(Value::F64(_) | Value::U64(_) | Value::I64(_))
                    ),
                    "{name} has no numeric value"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec!["--workload", "no-such-workload"],
        vec!["--workload", "paper-grid", "--trace", "2"],
        vec!["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_afraid-benchmark"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn perturbed_cell_results_count_as_failed() {
    let inputs = Inputs::build(WorkloadId::FaultStorm, Scale::SMOKE, 3);
    let pass = run_pass(&inputs);
    let recorded = group_digests(&pass.outcomes, inputs.groups());
    let mut gate = Gate::new(inputs.groups(), Some(recorded));
    assert_eq!(gate.check(&pass.outcomes), 0, "a clean pass fails");

    let Inputs::Cells { traces, cells, .. } = &inputs else {
        panic!("fault-storm is a cell workload");
    };
    let cell = &cells[0];
    let mut result = afraid::driver::run_trace(&cell.cfg, &traces[cell.trace], &cell.opts);

    // A result that differs in one field fails the digest check.
    result.metrics.mean_io_ms += 1e-9;
    let mut changed = pass.outcomes.clone();
    changed[0] = cell_outcome(cell.group, &result, true);
    assert_eq!(gate.check(&changed), 1);

    // A silent read fails the cell's own invariant even when no
    // recorded digest is checked.
    result.metrics.integrity.silent_reads = 1;
    let silent = cell_outcome(cell.group, &result, true);
    assert!(!silent.ok);
    let mut unrecorded = Gate::new(inputs.groups(), None);
    let mut leaked = pass.outcomes.clone();
    leaked[0] = silent;
    assert_eq!(unrecorded.check(&leaked), 1);
}

#[test]
fn a_failed_cut_counts_as_failed() {
    let spec = Scenario::Baseline.spec(SimDuration::from_secs(1), 3);
    let trace = spec.trace();
    let mut verdict = spec.run_cut(&trace, 10);
    assert!(verdict.pass);
    let good = cut_outcome(0, &verdict);
    let mut gate = Gate::new(1, None);
    assert_eq!(gate.check(&[good]), 0);
    verdict.pass = false;
    verdict.failure = Some("perturbed".to_string());
    assert_eq!(gate.check(&[cut_outcome(0, &verdict)]), 1);
}
