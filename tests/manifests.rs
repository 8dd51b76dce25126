//! Build hygiene the compiler cannot see. Every crate manifest keeps
//! the build offline and locked: no git or registry dependencies, no
//! path dependency that leaves the repository, and `[lints] workspace
//! = true` so the workspace lint policy reaches the crate. Library
//! sources carry no runtime `cfg!(test)` branch, which would make tests
//! exercise other code than production runs. (Clippy's
//! `disallowed-macros` cannot ban `cfg!`: every `debug_assert!` expands
//! to it.)
#![expect(clippy::disallowed_methods, reason = "reads manifests and sources")]

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The root package and every crate under `crates/`.
fn crate_dirs() -> Vec<PathBuf> {
    let crates = fs::read_dir(root().join("crates")).unwrap();
    let mut dirs: Vec<PathBuf> = crates.map(|e| e.unwrap().path()).collect();
    dirs.push(root().to_path_buf());
    dirs
}

/// `(file:line, text)` of every line under `dir` matching `hit`.
fn grep(dir: &Path, hit: &dyn Fn(&str) -> bool, out: &mut Vec<String>) {
    for path in fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if path.is_dir() {
            grep(&path, hit, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).unwrap();
            let lines = (1..).zip(text.lines()).filter(|(_, l)| hit(l));
            out.extend(lines.map(|(i, l)| format!("{}:{i}: {l}", path.display())));
        }
    }
}

/// A runtime `cfg!(test)` branch outside a comment.
fn branches_on_cfg_test(line: &str) -> bool {
    let code: String = line
        .split("//")
        .next()
        .unwrap_or("")
        .split_whitespace()
        .collect();
    code.contains("cfg!(test") || code.contains("cfg!(not(test")
}

/// Every rule break in the manifest `text` of the crate at `dir`: a
/// dependency that is neither a path inside `repo` nor `workspace =
/// true`, or a missing `[lints] workspace = true`.
fn manifest_problems(text: &str, dir: &Path, repo: &Path) -> Vec<String> {
    let (mut section, mut lints_inherited) = (String::new(), false);
    let mut problems = Vec::new();
    for line in text.lines() {
        let compact: String = line.split_whitespace().collect();
        if compact.starts_with('[') {
            section = compact.trim_matches(['[', ']']).to_string();
        }
        lints_inherited |= section == "lints" && compact == "workspace=true";
        if !section.ends_with("dependencies")
            || !compact.contains('=')
            || compact.starts_with('#')
        {
            continue;
        }
        let path = compact
            .split_once("path=\"")
            .and_then(|(_, r)| r.split_once('"'));
        let ok = match path {
            Some((p, _)) => fs::canonicalize(dir.join(p)).is_ok_and(|p| p.starts_with(repo)),
            None => compact.contains("workspace=true") && !compact.contains("git="),
        };
        if !ok {
            problems.push(line.to_string());
        }
    }
    if !lints_inherited {
        problems.push("no `[lints] workspace = true`".to_string());
    }
    problems
}

#[test]
fn manifests_stay_offline_locked_and_linted() {
    let repo = fs::canonicalize(root()).unwrap();
    let mut problems = Vec::new();
    for dir in crate_dirs() {
        let file = dir.join("Cargo.toml");
        let text = fs::read_to_string(&file).unwrap();
        let found = manifest_problems(&text, &dir, &repo);
        problems.extend(found.iter().map(|p| format!("{}: {p}", file.display())));
    }
    assert!(
        problems.is_empty(),
        "manifest violations:\n{}",
        problems.join("\n")
    );
}

/// The problems `manifest_problems` finds in a `crates/core` manifest
/// whose `[dependencies]` section is `deps`.
fn core_manifest_problems(deps: &str, lints: &str) -> Vec<String> {
    let repo = fs::canonicalize(root()).unwrap();
    let text = format!("[package]\nname = \"x\"\n\n[dependencies]\n{deps}\n\n{lints}\n");
    manifest_problems(&text, &repo.join("crates/core"), &repo)
}

const LINTS: &str = "[lints]\nworkspace = true";

#[test]
fn clean_manifest_passes() {
    let deps = "afraid-sim = { workspace = true }\n# serde = \"1\"";
    assert_eq!(core_manifest_problems(deps, LINTS), Vec::<String>::new());
}

#[test]
fn inside_path_ok() {
    let deps = "afraid-sim = { path = \"../sim\" }";
    assert_eq!(core_manifest_problems(deps, LINTS), Vec::<String>::new());
}

#[test]
fn escaping_path_flagged() {
    // The repository's parent directory exists but lies outside it.
    let deps = "outside = { path = \"../../..\" }";
    assert_eq!(core_manifest_problems(deps, LINTS), [deps]);
}

#[test]
fn git_dep_flagged() {
    let deps = "remote = { git = \"https://example.invalid/remote\" }";
    assert_eq!(core_manifest_problems(deps, LINTS), [deps]);
}

#[test]
fn registry_version_flagged() {
    let deps = "serde = \"1.0\"\nrand = { version = \"0.8\" }";
    assert_eq!(
        core_manifest_problems(deps, LINTS),
        ["serde = \"1.0\"", "rand = { version = \"0.8\" }"]
    );
}

#[test]
fn missing_lints_optin_flagged() {
    let deps = "afraid-sim = { workspace = true }";
    let problems = core_manifest_problems(deps, "[lints.rust]\nunsafe_code = \"deny\"");
    assert_eq!(problems, ["no `[lints] workspace = true`"]);
}

#[test]
fn library_code_never_branches_on_cfg_test() {
    let mut hits = Vec::new();
    for dir in crate_dirs() {
        grep(&dir.join("src"), &branches_on_cfg_test, &mut hits);
    }
    assert!(
        hits.is_empty(),
        "runtime cfg!(test) branches:\n{}",
        hits.join("\n")
    );

    // The scan still sees the canary's two marked lines, and only those.
    grep(
        &root().join("tests/clippy_canary"),
        &branches_on_cfg_test,
        &mut hits,
    );
    assert_eq!(hits.len(), 2);
    assert!(hits
        .iter()
        .all(|h| h.ends_with("// scanned: runtime cfg!(test)")));
}
