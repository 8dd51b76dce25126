//! Command-line arguments, set-up, the closed loop of passes, and the
//! end-to-end metrics of an untraced run.

use std::time::{Duration, Instant};

use crate::cpu::CpuRotation;
use crate::gate::{self, Gate};
use crate::report::{Metric, Report};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::workload::{Inputs, ItemOutcome, Scale, WorkloadId};

/// Fewest set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Host seconds of set-up each round spends at least, in whole builds:
/// a set-up of a few milliseconds needs many samples for a steady
/// median, and one of a few hundred takes a single build per round.
pub const SETUP_ROUND_SECS: f64 = 0.05;

/// Passes a run makes even when the time budget is spent sooner, so
/// every item has several samples.
pub const MIN_PASSES: usize = 3;

/// Parsed command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Workload to run.
    pub workload: WorkloadId,
    /// Workload seed.
    pub seed: u64,
    /// Host seconds of passes to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// What the command line asks for.
pub enum Command {
    /// One benchmark run.
    Run(Args),
    /// Print `digests.tsv` lines for every workload over a seed range.
    RecordDigests {
        /// First seed.
        first: u64,
        /// Last seed (inclusive).
        last: u64,
    },
}

/// Usage text.
pub const USAGE: &str = "usage: afraid-benchmark --workload paper-grid|chaos-cuts|fault-storm \
[--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]\n       \
afraid-benchmark --record-digests FIRST LAST\n";

/// Parses the arguments after the program name.
pub fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut scale = Scale::FULL;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        let bad = |v: &str| format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(WorkloadId::parse(&v).ok_or_else(|| bad(&v))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--scale" => {
                let v = value()?;
                scale = Scale::parse(&v).ok_or_else(|| bad(&v))?;
            }
            "--record-digests" => {
                let (a, b) = (value()?, value()?);
                let first = a.parse().map_err(|_| bad(&a))?;
                let last = b.parse().map_err(|_| bad(&b))?;
                return Ok(Command::RecordDigests { first, last });
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
        scale,
    }))
}

/// Builds the workload's inputs and returns them with the host
/// seconds the build took.
pub fn timed_setup(args: &Args) -> (Inputs, f64) {
    let t = Instant::now();
    let inputs = Inputs::build(args.workload, args.scale, args.seed);
    (inputs, t.elapsed().as_secs_f64())
}

/// Builds the inputs until [`SETUP_ROUND_SECS`] are spent, dropping
/// each copy before the next, records every build's seconds in `times`
/// and returns the last copy.
pub fn setup_round(args: &Args, times: &mut Vec<f64>) -> Inputs {
    let mut spent = 0.0;
    loop {
        let (inputs, secs) = timed_setup(args);
        times.push(secs);
        spent += secs;
        if spent >= SETUP_ROUND_SECS {
            return inputs;
        }
    }
}

/// One pass over every item: each item's host seconds and gate
/// outcome.
pub struct Pass {
    /// Host seconds per item.
    pub item_secs: Vec<f64>,
    /// Gate outcome per item.
    pub outcomes: Vec<ItemOutcome>,
}

impl Pass {
    /// Simulated events across the pass.
    pub fn events(&self) -> u64 {
        self.outcomes.iter().map(|o| o.events).sum()
    }
}

/// Each item's best (smallest) host seconds across `passes`.
/// Contention from outside the process only ever slows an item, and
/// it comes in episodes of several seconds that can cover most of a
/// run's passes: the best of an item's samples is the steadiest
/// estimate of its cost, where a median needs most samples clean.
pub fn item_best<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> Vec<f64> {
    let passes: Vec<&Pass> = passes.into_iter().collect();
    let n = passes.first().map_or(0, |p| p.item_secs.len());
    (0..n)
        .map(|i| {
            passes
                .iter()
                .map(|p| p.item_secs[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Runs every item once, in order.
pub fn run_pass(inputs: &Inputs) -> Pass {
    let mut item_secs = Vec::with_capacity(inputs.len());
    let mut outcomes = Vec::with_capacity(inputs.len());
    for i in 0..inputs.len() {
        let (o, secs) = inputs.run_item(i);
        item_secs.push(secs);
        outcomes.push(o);
    }
    Pass {
        item_secs,
        outcomes,
    }
}

/// Whether a closed loop runs another round: always until
/// [`MIN_PASSES`] rounds are done, then while a round as long as the
/// last one still ends inside `budget`, so a run does not overshoot its
/// time by most of a round.
pub fn another_round(done: usize, elapsed: Duration, last: Duration, budget: Duration) -> bool {
    done < MIN_PASSES || elapsed + last <= budget
}

/// The gate for a run: recorded digests exist only for the full-size
/// inputs.
pub fn gate_for(args: &Args, inputs: &Inputs) -> Gate {
    let recorded = (args.scale.name == Scale::FULL.name)
        .then(|| gate::recorded(args.workload.name(), args.seed))
        .flatten();
    Gate::new(inputs.groups(), recorded)
}

/// The end-to-end run: passes for `seconds` (see [`another_round`]),
/// every pass gated. The inputs are built afresh, and timed, before
/// every pass (see [`setup_round`]), so the set-up samples whose median is `setup_s` are
/// spread over the run like the pass samples, not bunched where one
/// episode of host contention can cover them all. Each round runs on
/// the next allowed CPU (see [`CpuRotation`]).
pub fn run_untraced(args: &Args) -> Report {
    let mut setup_times = Vec::new();
    let mut inputs = setup_round(args, &mut setup_times);
    let mut gate = gate_for(args, &inputs);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut last = Duration::ZERO;
    let mut passes = Vec::new();
    let mut failed = 0u64;
    let mut cpus = CpuRotation::new();
    while another_round(passes.len(), start.elapsed(), last, budget) {
        cpus.advance();
        let t = Instant::now();
        if !passes.is_empty() {
            drop(inputs);
            inputs = setup_round(args, &mut setup_times);
        }
        let pass = run_pass(&inputs);
        failed += gate.check(&pass.outcomes) as u64;
        passes.push(pass);
        last = t.elapsed();
    }
    while setup_times.len() < SETUP_REPS {
        setup_times.push(timed_setup(args).1);
    }
    println!(
        "{}: seed {}, {} items x {} passes, {} recorded digests",
        args.workload.name(),
        args.seed,
        inputs.len(),
        passes.len(),
        if gate.has_recorded() {
            "checked against"
        } else {
            "no"
        }
    );
    let item_secs = item_best(&passes);
    let wall_s: f64 = item_secs.iter().sum();
    let attempted = (inputs.len() * passes.len()) as u64;
    println!(
        "error_rate {} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted as f64
    );
    Report::new(
        attempted,
        failed,
        vec![
            Metric {
                name: "setup_s",
                value: median(&setup_times),
                unit: "s",
            },
            Metric {
                name: "wall_s",
                value: wall_s,
                unit: "s",
            },
            Metric {
                name: "sim_events_per_s",
                value: passes[0].events() as f64 / wall_s,
                unit: "1/s",
            },
            Metric {
                name: "item_p50_ms",
                value: quantile(&item_secs, 0.5) * 1e3,
                unit: "ms",
            },
            Metric {
                name: "item_p90_ms",
                value: quantile(&item_secs, 0.9) * 1e3,
                unit: "ms",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MB",
            },
        ],
    )
}

/// Prints one `digests.tsv` line per workload and seed.
pub fn record_digests(first: u64, last: u64) {
    for seed in first..=last {
        for id in WorkloadId::ALL {
            let inputs = Inputs::build(id, Scale::FULL, seed);
            let pass = run_pass(&inputs);
            assert!(
                pass.outcomes.iter().all(|o| o.ok),
                "{} seed {seed}: an item failed its own invariants",
                id.name()
            );
            let digests = gate::group_digests(&pass.outcomes, inputs.groups());
            println!("{}", gate::format_digests(id.name(), seed, &digests));
        }
    }
}
