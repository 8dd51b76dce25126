//! The workspace lint policy is a tier-1 test, not a CI-only step:
//! `[workspace.lints]` in Cargo.toml, the bans in clippy.toml and the
//! crate-root and hot-path lint attributes all fail `cargo test`.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};
use std::sync::OnceLock;

use serde::Value;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Runs `cargo clippy --offline --quiet <args>` in `dir` (the clippy
/// component must be installed).
fn clippy(dir: &Path, conf_dir: Option<&Path>, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO"));
    if let Some(conf) = conf_dir {
        cmd.env("CLIPPY_CONF_DIR", conf);
    }
    let cmd = cmd
        .current_dir(dir)
        .args(["clippy", "--offline", "--quiet"]);
    cmd.args(args).output().expect("cargo clippy runs")
}

#[test]
fn workspace_is_clippy_clean() {
    let args = ["--workspace", "--all-targets", "--", "-D", "warnings"];
    let out = clippy(root(), None, &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "clippy rejects the workspace:\n{stderr}"
    );
}

/// `(line, lint)` of every diagnostic span clippy reports on the
/// canary crate, and clippy's stderr. The tests below share one run.
fn canary_diagnostics() -> &'static (BTreeSet<(u64, String)>, String) {
    static RUN: OnceLock<(BTreeSet<(u64, String)>, String)> = OnceLock::new();
    RUN.get_or_init(|| {
        let dir = root().join("tests/clippy_canary");
        let target = root().join("target/clippy-canary");
        let target = format!("--target-dir={}", target.display());
        let out = clippy(&dir, Some(root()), &["--message-format=json", &target]);
        let fired = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|line| {
                let msg = serde_json::from_str::<Value>(line)
                    .ok()?
                    .get("message")?
                    .clone();
                let (Value::Str(code), Value::Seq(spans)) =
                    (msg.get("code")?.get("code")?, msg.get("spans")?)
                else {
                    return None;
                };
                let lines = spans.iter().filter_map(|s| match s.get("line_start") {
                    Some(Value::U64(l)) => Some((*l, code.clone())),
                    _ => None,
                });
                Some(lines.collect::<Vec<_>>())
            })
            .flatten()
            .collect();
        (fired, String::from_utf8_lossy(&out.stderr).into_owned())
    })
}

/// Asserts that the canary has `count` lines marked `// fires <rule>: <lint>`
/// and that clippy reported each line's lint at that line.
fn assert_canary_fires(rule: &str, count: usize) {
    let marker = format!("// fires {rule}: ");
    let src = include_str!("clippy_canary/src/lib.rs");
    let expected: Vec<(u64, String)> = (1..)
        .zip(src.lines())
        .filter_map(|(i, l)| Some((i, l.split_once(marker.as_str())?.1.to_string())))
        .collect();
    assert_eq!(expected.len(), count, "{rule} canary markers went missing");
    let (fired, stderr) = canary_diagnostics();
    let silent: Vec<_> = expected.iter().filter(|e| !fired.contains(*e)).collect();
    assert!(
        silent.is_empty(),
        "silent {rule} canary lines: {silent:?}\nclippy said:\n{stderr}"
    );
}

#[test]
fn canary_d1_bans_clock_entropy_env_and_fs() {
    assert_canary_fires("d1", 9);
}

#[test]
fn canary_d2_bans_hash_collections() {
    assert_canary_fires("d2", 3);
}

#[test]
fn canary_d3_flags_panic_risks() {
    assert_canary_fires("d3", 6);
}

#[test]
fn canary_d8_bans_static_mut_and_detached_spawn() {
    assert_canary_fires("d8", 2);
}
