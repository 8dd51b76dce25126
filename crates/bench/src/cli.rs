//! `afraid-cli`, the one front door to the simulator and to every
//! experiment of the reproduction.
//!
//! [`parse`] turns an argument list into a typed [`Command`], or into a
//! [`CliError`] that names the offending flag and value; [`execute`]
//! runs the command. [`main`] joins the two and picks the exit status:
//! 0 on success, 1 when a gate fails (a chaos cut fails recovery, an
//! integrity cell leaks) or output cannot be written, 2 when the
//! arguments are rejected. Bad input never panics.

use std::fmt;
use std::io::{self, Write};
use std::str::FromStr;

use afraid_chaos::Scenario;
use afraid_sim::time::SimDuration;
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};
use serde::Serialize;

use crate::harness::{self, Setup};
use crate::paper::{self, Artifact, Matrix};

mod gates;
mod run;

pub use run::RunArgs;

/// The help text printed with every usage error.
pub const USAGE: &str = "\
afraid-cli — AFRAID array simulator (Savage & Wilkes, USENIX 1996)

USAGE:
    afraid-cli run [OPTIONS]        replay a synthetic workload
    afraid-cli sweep [OPTIONS]      run the workload x policy matrix raw
    afraid-cli paper <ARTIFACT> [OPTIONS]
                                    regenerate a table or figure of the
                                    paper: fig1 | table1 | table2 |
                                    table3 | table4 | fig3 | fig4 |
                                    ablation | all
    afraid-cli chaos [OPTIONS]      crash the array at many cut points
                                    and verify recovery at every one
    afraid-cli integrity [OPTIONS]  silent-corruption sweep, with and
                                    without end-to-end verification
    afraid-cli workloads            list workload presets
    afraid-cli policies             list parity policies

Exit status: 0 on success, 1 when a gate fails (chaos: a cut fails
recovery; integrity: a verified cell serves a corrupt word silently,
or any cell reports a false positive), 2 on a bad argument.

SHARED OPTIONS (each means the same wherever it is accepted):
    --secs <n>            simulated trace duration in whole seconds
                          (default: run, sweep, paper 600; integrity 60;
                          chaos 5)
    --seed <n>            workload seed (default: 42)
    --jobs <n>            worker threads; output is byte-identical at
                          any count (default: AFRAID_JOBS or all cores;
                          not taken by run)
    --json                machine-readable stdout (not taken by paper)

SWEEP OPTIONS:
    --full                the full Figure 3 policy grid (RAID 5, seven
                          MTTDL_x targets, AFRAID, RAID 0) instead of
                          the three headline designs; `paper` runs the
                          same cells

CHAOS OPTIONS:
    --scenario <name>     baseline | scrub | rebuild | evict | nvram |
                          corrupt | all (default: all)
    --cuts <n>            cut points per scenario, spread evenly over
                          the run (default: 256)

RUN OPTIONS:
    --workload <name>     workload preset (default: snake)
    --policy <spec>       raid0 | afraid | raid5 | paritylog |
                          mttdl:<hours> | conservative:<bytes>
                          (default: afraid)
    --disks <n>           spindles in the array (default: 5)
    --fail-disk <d>@<s>   fail disk d at s seconds
    --fail-nvram <s>      fail the marking memory at s seconds
    --degraded            keep running after the disk failure
    --spare <s>           install a spare s seconds after the failure
                          (requires --degraded)
    --scrub <iops>        enable background tour scrubbing with this
                          disk-read IOPS budget
    --latent <rate>       latent sector errors per disk-hour (default: 0)
    --tour <secs>         target tour period for the dwell model when no
                          tour completes (default: 3600)
    --transient <p>[:<q>] per-I/O media-error probability p and command
                          timeout probability q (default: 0, faults off)
    --fail-slow <d>@<s>+<w>x<f>
                          disk d serves I/O f times slower from s seconds
                          for w seconds (trips the health scoreboard)
    --evict-threshold <t> EWMA fault score that condemns a disk for
                          proactive eviction (default: 0 = never evict)
    --corrupt <p>         disks lie: each silent-fault class (torn, lost,
                          misdirected write; read bit-flip) fires with
                          per-I/O probability p (default: 0, disks honest)
    --verify-reads        checksum-verify every read and scrub pass;
                          detected corruption is repaired from parity or
                          declared (without this, corrupt reads are silent)
";

/// A rejected command line (exit status 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand, an unknown one, a missing positional argument,
    /// or an argument the subcommand does not take.
    Usage(String),
    /// A value flag given last, with nothing after it.
    Missing {
        /// The flag.
        flag: String,
    },
    /// A value the flag cannot take.
    Bad {
        /// The flag.
        flag: String,
        /// The value as given.
        value: String,
        /// Why it was rejected.
        why: String,
    },
    /// Flags that parse one by one but together describe an invalid
    /// array.
    Config(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(what) => write!(f, "{what}"),
            CliError::Missing { flag } => write!(f, "{flag} needs a value"),
            CliError::Bad { flag, value, why } => write!(f, "{flag} '{value}': {why}"),
            CliError::Config(why) => write!(f, "invalid configuration: {why}"),
        }
    }
}

/// A parsed command line.
#[derive(Debug)]
pub enum Command {
    /// Replay one workload on one array.
    Run(Box<RunArgs>),
    /// Print the workload × policy matrix raw.
    Sweep {
        /// Shared flags.
        common: Common,
        /// The full policy sweep instead of the three headline designs.
        full: bool,
    },
    /// Crash-cut sweep over the chaos scenarios.
    Chaos {
        /// Shared flags.
        common: Common,
        /// Cut points per scenario.
        cuts: usize,
        /// Scenarios to sweep.
        scenarios: Vec<Scenario>,
    },
    /// Silent-corruption sweep.
    Integrity(Common),
    /// Regenerate tables and figures of the paper.
    Paper {
        /// Shared flags.
        common: Common,
        /// What to print, in order.
        artifacts: Vec<Artifact>,
    },
    /// List the workload presets.
    Workloads,
    /// List the parity policies.
    Policies,
}

/// The flags the simulating subcommands share.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Common {
    /// `--secs`: simulated trace duration in whole seconds.
    pub secs: u64,
    /// `--seed`: workload-synthesis seed.
    pub seed: u64,
    /// `--jobs`: worker threads, at least one.
    pub jobs: usize,
    /// `--json`: machine-readable stdout.
    pub json: bool,
}

/// Every shared flag.
const SHARED: &str = "--secs --seed --jobs --json";
/// The shared flags `paper` takes.
const PAPER: &str = "--secs --seed --jobs";

/// Largest `--secs` whose nanosecond count fits in a `u64`.
const MAX_SECS: u64 = u64::MAX / 1_000_000_000;

impl Common {
    fn new(secs: u64) -> Common {
        Common {
            secs,
            seed: 42,
            jobs: afraid_exp::default_jobs(),
            json: false,
        }
    }

    /// Applies `flag` if it is one of the shared flags in `accepted`
    /// (a space-separated list).
    fn take<'a>(
        &mut self,
        flag: &'a str,
        args: &mut Args<'a>,
        accepted: &str,
    ) -> Result<(), CliError> {
        if !accepted.split(' ').any(|f| f == flag) {
            return Err(args.unexpected(flag));
        }
        match flag {
            "--secs" => {
                let raw = args.value(flag)?;
                self.secs = field(flag, raw, raw)?;
                if !(1..=MAX_SECS).contains(&self.secs) {
                    return Err(bad(flag, raw, format!("want 1..={MAX_SECS} seconds")));
                }
            }
            "--seed" => self.seed = args.parsed(flag)?,
            "--jobs" => {
                let raw = args.value(flag)?;
                self.jobs = field(flag, raw, raw)?;
                if self.jobs == 0 {
                    return Err(bad(flag, raw, "want at least one worker"));
                }
            }
            "--json" => self.json = true,
            _ => return Err(args.unexpected(flag)),
        }
        Ok(())
    }

    /// The simulation coordinates these flags select.
    fn setup(&self) -> Setup {
        Setup {
            duration: SimDuration::from_secs(self.secs),
            seed: self.seed,
            jobs: self.jobs,
        }
    }
}

/// The argument cursor of one subcommand. Remembers every flag value it
/// handed out, so a later cross-flag check can quote it.
struct Args<'a> {
    command: &'static str,
    rest: std::slice::Iter<'a, String>,
    given: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    fn new(command: &'static str, rest: &'a [String]) -> Args<'a> {
        Args {
            command,
            rest: rest.iter(),
            given: Vec::new(),
        }
    }

    /// The next argument.
    fn next(&mut self) -> Option<&'a str> {
        self.rest.next().map(String::as_str)
    }

    /// The value after `flag`.
    fn value(&mut self, flag: &'a str) -> Result<&'a str, CliError> {
        let value = self.next().ok_or_else(|| CliError::Missing {
            flag: flag.to_string(),
        })?;
        self.given.push((flag, value));
        Ok(value)
    }

    /// The value after `flag`, parsed.
    fn parsed<T: FromStr>(&mut self, flag: &'a str) -> Result<T, CliError>
    where
        T::Err: fmt::Display,
    {
        let raw = self.value(flag)?;
        field(flag, raw, raw)
    }

    /// The last value given for `flag`.
    fn given(&self, flag: &str) -> &'a str {
        self.given
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map_or("", |&(_, v)| v)
    }

    fn unexpected(&self, arg: &str) -> CliError {
        CliError::Usage(format!("`{}` does not take '{arg}'", self.command))
    }
}

fn bad(flag: &str, value: &str, why: impl fmt::Display) -> CliError {
    CliError::Bad {
        flag: flag.to_string(),
        value: value.to_string(),
        why: why.to_string(),
    }
}

/// Parses `part` of the value `raw` given to `flag`.
fn field<T: FromStr>(flag: &str, raw: &str, part: &str) -> Result<T, CliError>
where
    T::Err: fmt::Display,
{
    part.parse()
        .map_err(|e| bad(flag, raw, format!("'{part}': {e}")))
}

/// Parses an argument list (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let Some((sub, rest)) = argv.split_first() else {
        return Err(CliError::Usage("no subcommand given".to_string()));
    };
    match sub.as_str() {
        "run" => run::parse(&mut Args::new("run", rest)).map(|r| Command::Run(Box::new(r))),
        "sweep" => {
            let mut args = Args::new("sweep", rest);
            let (mut common, mut full) = (Common::new(600), false);
            while let Some(flag) = args.next() {
                match flag {
                    "--full" => full = true,
                    _ => common.take(flag, &mut args, SHARED)?,
                }
            }
            Ok(Command::Sweep { common, full })
        }
        "chaos" => {
            let mut args = Args::new("chaos", rest);
            let (mut common, mut cuts) = (Common::new(5), 256);
            let mut scenarios = Scenario::ALL.to_vec();
            while let Some(flag) = args.next() {
                match flag {
                    "--cuts" => cuts = args.parsed(flag)?,
                    "--scenario" => {
                        let raw = args.value(flag)?;
                        scenarios = match Scenario::parse(raw) {
                            Some(sc) => vec![sc],
                            None if raw == "all" => Scenario::ALL.to_vec(),
                            None => {
                                let names = Scenario::ALL.map(|s| s.name()).join(" ");
                                return Err(bad(flag, raw, format!("want all {names}")));
                            }
                        };
                    }
                    _ => common.take(flag, &mut args, SHARED)?,
                }
            }
            Ok(Command::Chaos {
                common,
                cuts,
                scenarios,
            })
        }
        "integrity" => {
            let mut args = Args::new("integrity", rest);
            let mut common = Common::new(60);
            while let Some(flag) = args.next() {
                common.take(flag, &mut args, SHARED)?;
            }
            Ok(Command::Integrity(common))
        }
        "paper" => {
            let mut args = Args::new("paper", rest);
            let artifacts = match args.next() {
                Some("all") => Artifact::ALL.to_vec(),
                name => vec![name.and_then(Artifact::parse).ok_or_else(|| {
                    let names = Artifact::ALL.map(Artifact::name).join(" ");
                    CliError::Usage(format!("paper wants one of {names} all"))
                })?],
            };
            let mut common = Common::new(600);
            while let Some(flag) = args.next() {
                common.take(flag, &mut args, PAPER)?;
            }
            Ok(Command::Paper { common, artifacts })
        }
        "workloads" | "policies" if !rest.is_empty() => {
            Err(CliError::Usage(format!("`{sub}` takes no arguments")))
        }
        "workloads" => Ok(Command::Workloads),
        "policies" => Ok(Command::Policies),
        other => Err(CliError::Usage(format!("unknown subcommand '{other}'"))),
    }
}

/// Runs an argument list (without the program name), writing results
/// to `out` and diagnostics to stderr, and returns the exit status.
pub fn main(argv: &[String], out: &mut dyn Write) -> u8 {
    let command = match parse(argv) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("afraid-cli: {e}");
            if matches!(e, CliError::Usage(_)) {
                eprint!("{USAGE}");
            }
            return 2;
        }
    };
    match execute(command, out).and_then(|passed| out.flush().map(|()| passed)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("afraid-cli: {e}");
            1
        }
    }
}

/// Runs a parsed command. `Ok(false)` means a gate failed.
pub fn execute(command: Command, out: &mut dyn Write) -> io::Result<bool> {
    match command {
        Command::Run(args) => run::execute(&args, out).map(|()| true),
        Command::Sweep { common, full } => sweep(&common, full, out).map(|()| true),
        Command::Chaos {
            common,
            cuts,
            scenarios,
        } => gates::chaos(&common, cuts, &scenarios, out),
        Command::Integrity(common) => gates::integrity(&common, out),
        Command::Paper { common, artifacts } => {
            paper::render(&artifacts, &common.setup(), out).map(|()| true)
        }
        Command::Workloads => {
            for kind in WorkloadKind::all() {
                let spec = WorkloadSpec::preset(kind);
                writeln!(
                    out,
                    "{:<11} ~{:>5.1} req/s, {:>2.0}% writes  {}",
                    spec.name,
                    spec.offered_ios_per_sec(),
                    spec.write_prob * 100.0,
                    spec.description
                )?;
            }
            Ok(true)
        }
        Command::Policies => {
            out.write_all(
                b"\
raid0                unprotected striping (AFRAID that never scrubs)
afraid               baseline AFRAID: defer parity to idle time
raid5                traditional always-consistent RAID 5
paritylog            RAID 5 that logs parity updates [Stodolsky93]
mttdl:<hours>        keep achieved disk MTTDL above the target
conservative:<bytes> start as RAID 5, defer once bursts fit the bound
",
            )?;
            Ok(true)
        }
    }
}

/// Writes `value` as pretty JSON.
fn json(out: &mut dyn Write, value: &impl Serialize) -> io::Result<()> {
    let text = serde_json::to_string_pretty(value).map_err(|e| io::Error::other(e.to_string()))?;
    writeln!(out, "{text}")
}

/// One cell of the sweep matrix, shaped for `--json` output.
#[derive(Serialize)]
struct SweepRow {
    workload: String,
    policy: String,
    mean_io_ms: f64,
    p95_io_ms: f64,
    frac_unprotected: f64,
    mttdl_disk_hours: f64,
    mttdl_overall_hours: f64,
    events_processed: u64,
}

/// `sweep`: the paper's matrix, one line (or JSON object) per cell.
fn sweep(c: &Common, full: bool, out: &mut dyn Write) -> io::Result<()> {
    let policies = if full {
        harness::policy_sweep()
    } else {
        harness::headline_designs()
    };
    let m = Matrix::run(policies, &c.setup());
    let mut cells = Vec::new();
    for (kind, _, row) in m.workloads() {
        for ((name, _), cell) in m.policies.iter().zip(row) {
            cells.push(SweepRow {
                workload: kind.name().to_string(),
                policy: name.clone(),
                mean_io_ms: cell.result.metrics.mean_io_ms,
                p95_io_ms: cell.result.metrics.p95_io_ms,
                frac_unprotected: cell.result.metrics.frac_unprotected,
                mttdl_disk_hours: cell.avail.mttdl_disk,
                mttdl_overall_hours: cell.avail.mttdl_overall,
                events_processed: cell.result.metrics.events_processed,
            });
        }
    }

    if c.json {
        return json(out, &cells);
    }
    let (secs, seed, jobs) = (c.secs, c.seed, c.jobs);
    writeln!(out, "Sweep: {secs}s traces, seed {seed}, jobs {jobs}\n")?;
    harness::header(
        out,
        "workload    policy     mean io ms     p95 ms   unprot%  MTTDL disk h    MTTDL all h",
    )?;
    for c in &cells {
        writeln!(
            out,
            "{:<11} {:<8} {:>12.2} {:>10.2} {:>8.1}% {:>13.2e} {:>14.2e}",
            c.workload,
            c.policy,
            c.mean_io_ms,
            c.p95_io_ms,
            c.frac_unprotected * 100.0,
            c.mttdl_disk_hours,
            c.mttdl_overall_hours,
        )?;
    }
    Ok(())
}
