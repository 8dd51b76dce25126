//! Tier-1 checks of `afraid-cli`'s front door, driven in-process
//! through `afraid_bench::cli`: every bad flag or value is a
//! `CliError` naming the flag (exit status 2), never a panic, a silent
//! default or a silently changed run; the paper renderers survive
//! empty traces; and `paper` simulates each matrix cell once.

use afraid_bench::cli::{self, CliError, Command};
use afraid_bench::harness;
use afraid_bench::paper::{self, Artifact};
use proptest::prelude::*;

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_string).collect()
}

/// Parses `line`, expecting a rejection that names `flag`.
fn rejected(line: &str, flag: &str) -> CliError {
    let err = cli::parse(&argv(line)).expect_err(line);
    let msg = err.to_string();
    assert!(msg.contains(flag), "{line:?}: {msg:?} does not name {flag}");
    assert_eq!(cli::main(&argv(line), &mut Vec::new()), 2, "{line:?}");
    err
}

#[test]
fn bad_values_exit_2_naming_the_flag() {
    for (line, flag) in [
        ("run --secs abc", "--secs"),
        ("run --fail-disk 9@1", "--fail-disk"),
        ("run --fail-disk 1@-3", "--fail-disk"),
        ("run --fail-nvram -5", "--fail-nvram"),
        ("run --spare 10 --fail-disk 1@2", "--spare"),
        ("run --policy mttdl:-1", "--policy"),
        ("run --policy mttdl:nan", "--policy"),
        ("run --secs 18446744074", "--secs"),
        ("run --tour inf", "--tour"),
        ("run --fail-slow 2@30+600", "--fail-slow"),
        ("run --workload nosuch", "--workload"),
        ("run --jobs 2", "--jobs"),
        ("sweep --secs 0", "--secs"),
        ("paper table2 --secs abc", "--secs"),
        ("paper table2 --jobs x", "--jobs"),
        ("paper fig4 --json", "--json"),
        ("chaos --jobs x", "--jobs"),
        ("chaos --scenario nosuch", "--scenario"),
        ("integrity --jobs 0", "--jobs"),
        ("integrity --seed", "--seed"),
    ] {
        rejected(line, flag);
    }
    // The old positional duration is an error now, not a silent 600 s.
    rejected("paper table2 abc", "abc");
    assert_eq!(
        rejected("run --fail-disk 9@1", "--fail-disk"),
        CliError::Bad {
            flag: "--fail-disk".to_string(),
            value: "9@1".to_string(),
            why: "no such disk 9 in a 5-disk array".to_string(),
        }
    );
}

#[test]
fn usage_errors_exit_2() {
    for line in [
        "",
        "frobnicate",
        "paper",
        "paper table9",
        "sweep --cache",
        "paper all --no-cache",
        "chaos --cache",
        "integrity --no-cache",
    ] {
        assert!(matches!(cli::parse(&argv(line)), Err(CliError::Usage(_))));
        assert_eq!(cli::main(&argv(line), &mut Vec::new()), 2, "{line:?}");
    }
}

#[test]
fn a_spare_with_degraded_mode_is_accepted() {
    let line = "run --fail-disk 1@2 --degraded --spare 10 --disks 6";
    let Ok(Command::Run(run)) = cli::parse(&argv(line)) else {
        panic!("{line:?} rejected");
    };
    assert_eq!(run.cfg.disks, 6);
    assert!(run.opts.continue_degraded && run.opts.spare_delay.is_some());
}

#[test]
fn every_subcommand_reads_secs_the_same_way() {
    for (line, secs) in [
        ("integrity --secs 600", 600),
        ("integrity", 60),
        ("chaos --secs 7 --jobs 3", 7),
        ("paper all --secs 1800", 1800),
        ("sweep --secs 20 --full", 20),
    ] {
        let common = match cli::parse(&argv(line)).expect(line) {
            Command::Integrity(c) => c,
            Command::Chaos { common, .. }
            | Command::Paper { common, .. }
            | Command::Sweep { common, .. } => common,
            other => panic!("{line:?} parsed as {other:?}"),
        };
        assert_eq!(common.secs, secs, "{line:?}");
    }
    // The duration reaches the sweep rather than a fixed default.
    let mut out = Vec::new();
    assert_eq!(cli::main(&argv("integrity --secs 3 --jobs 2"), &mut out), 0);
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains(", 3s Att trace,"), "{text}");
}

#[test]
fn paper_all_survives_an_empty_trace() {
    // The 20 s snake trace has no requests: its speedups would be 0/0.
    let mut out = Vec::new();
    assert_eq!(
        cli::main(&argv("paper all --secs 20 --jobs 2"), &mut out),
        0
    );
    let text = String::from_utf8(out).unwrap();
    for artifact in Artifact::ALL {
        assert!(text.contains(&format!("== {} ==\n", artifact.name())));
    }
    assert!(text.contains("snake       no requests\n"));
    assert!(text.contains("left out of the means: snake (no requests)"));
    assert!(!text.contains("NaN"), "{text}");
}

#[test]
fn paper_simulates_each_matrix_cell_once() {
    let views = [
        Artifact::Table2,
        Artifact::Table3,
        Artifact::Table4,
        Artifact::Fig3,
        Artifact::Fig4,
    ];
    // `render` runs one matrix of these columns for all five views: 10
    // distinct policies, none of them asked for twice, the same columns
    // `sweep --full` runs.
    let names = |cols: Vec<(String, _)>| cols.into_iter().map(|(n, _)| n).collect::<Vec<_>>();
    let columns = names(paper::columns(&views));
    let distinct: std::collections::BTreeSet<_> = columns.iter().collect();
    assert_eq!((columns.len(), distinct.len()), (10, 10), "{columns:?}");
    assert_eq!(columns, names(harness::policy_sweep()));
    // Artifacts that read no matrix column run no matrix.
    let unmatrixed = [Artifact::Fig1, Artifact::Table1, Artifact::Ablation];
    assert!(paper::columns(&unmatrixed).is_empty());
}

/// Tokens the argv property draws from: every subcommand and flag,
/// plus values good and bad.
const TOKENS: [&str; 40] = [
    "run",
    "sweep",
    "paper",
    "chaos",
    "integrity",
    "workloads",
    "policies",
    "all",
    "table2",
    "fig4",
    "--secs",
    "--seed",
    "--jobs",
    "--json",
    "--full",
    "--cuts",
    "--scenario",
    "--workload",
    "--policy",
    "--disks",
    "--fail-disk",
    "--fail-nvram",
    "--degraded",
    "--spare",
    "--scrub",
    "--latent",
    "--tour",
    "--transient",
    "--fail-slow",
    "--evict-threshold",
    "--corrupt",
    "--verify-reads",
    "mttdl:-1",
    "2@-1",
    "-5",
    "nan",
    "abc",
    "",
    "1@2",
    "2@30+600x50",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

    #[test]
    fn parsing_arbitrary_argv_never_panics(
        picks in prop::collection::vec((0usize..TOKENS.len() + 1, any::<u64>()), 0..10),
    ) {
        let args: Vec<String> = picks
            .iter()
            .map(|&(i, n)| match TOKENS.get(i) {
                Some(t) => t.to_string(),
                // Numbers of every size, some of them negative.
                None => format!("{}", n as i64 >> (n % 64)),
            })
            .collect();
        match cli::parse(&args) {
            Ok(_) => {}
            Err(CliError::Bad { flag, .. } | CliError::Missing { flag }) => {
                prop_assert!(args.contains(&flag), "{args:?}: blamed {flag}");
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}
