//! The three workloads: what each one builds in set-up and what one
//! item of its closed loop runs.
//!
//! Every workload is a fixed list of items (simulation cells or chaos
//! cuts) run one after another on one thread. Items are grouped for
//! the correctness gate: a group is one paper-grid trace row, one chaos
//! scenario, or one fault-storm cell.

use std::time::Instant;

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions, RunResult};
use afraid::policy::ParityPolicy;
use afraid::report::availability;
use afraid_bench::harness;
use afraid_chaos::{cut_points, ChaosSpec, CutVerdict, Scenario};
use afraid_exp::cell_seed;
use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::record::Trace;
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

use crate::gate::fnv64;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// All ten trace presets x the paper's ten-policy sweep, no faults.
    PaperGrid,
    /// Crash cuts over all six chaos scenarios.
    ChaosCuts,
    /// Four busy presets x {afraid, raid5}, each under one of two
    /// fault mixes.
    FaultStorm,
}

impl WorkloadId {
    /// Every workload, in reporting order.
    pub const ALL: [WorkloadId; 3] = [
        WorkloadId::PaperGrid,
        WorkloadId::ChaosCuts,
        WorkloadId::FaultStorm,
    ];

    /// The name used by `--workload` and the digest file.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::PaperGrid => "paper-grid",
            WorkloadId::ChaosCuts => "chaos-cuts",
            WorkloadId::FaultStorm => "fault-storm",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. `FULL` is what the timed runs use; `SMOKE` keeps the
/// self-tests to seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// `full` or `smoke`.
    pub name: &'static str,
    /// Simulated seconds per paper-grid trace.
    pub grid_secs: u64,
    /// Simulated seconds per chaos scenario trace.
    pub chaos_secs: u64,
    /// Cut points requested per chaos trace.
    pub chaos_cuts: usize,
    /// Independent traces per chaos scenario, each from its own seed
    /// derived from the workload seed. One short trace's event count
    /// swings several-fold between seeds; the sum over many does not.
    pub chaos_replicas: usize,
    /// Simulated seconds per fault-storm trace.
    pub storm_secs: u64,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        name: "full",
        grid_secs: 600,
        chaos_secs: 20,
        chaos_cuts: 8,
        chaos_replicas: 32,
        storm_secs: 600,
    };
    /// A few-second configuration for the self-tests.
    pub const SMOKE: Scale = Scale {
        name: "smoke",
        grid_secs: 10,
        chaos_secs: 2,
        chaos_cuts: 8,
        chaos_replicas: 2,
        storm_secs: 60,
    };

    /// Parses `full` or `smoke`.
    pub fn parse(s: &str) -> Option<Scale> {
        [Scale::FULL, Scale::SMOKE]
            .into_iter()
            .find(|sc| sc.name == s)
    }
}

/// The four busy presets the fault storm replays, each with its fault
/// mix: silent corruption with verified reads, or a mid-run disk
/// failure with degraded running and a rebuild.
const STORM_KINDS: [(WorkloadKind, bool); 4] = [
    (WorkloadKind::CelloNews, true),
    (WorkloadKind::Netware, true),
    (WorkloadKind::Att, false),
    (WorkloadKind::As400_1, false),
];

/// One simulation cell: a configured array replaying one trace.
pub struct Cell {
    /// Gate group the cell belongs to.
    pub group: usize,
    /// Index into the workload's traces.
    pub trace: usize,
    /// Array configuration.
    pub cfg: ArrayConfig,
    /// Run options (fault injections).
    pub opts: RunOptions,
}

/// One chaos trace: its scenario spec, trace and cut list.
pub struct ChaosSet {
    /// Gate group: the scenario's index.
    pub group: usize,
    /// The scenario's run specification.
    pub spec: ChaosSpec,
    /// The scenario's trace.
    pub trace: Trace,
    /// Cut points, from `cut_points(total events, n)`.
    pub cuts: Vec<u64>,
}

/// A workload's generated inputs.
pub enum Inputs {
    /// Trace-replay cells (paper-grid, fault-storm).
    Cells {
        /// Shared traces, one per workload preset.
        traces: Vec<Trace>,
        /// The cells, in run order.
        cells: Vec<Cell>,
        /// Gate each cell on zero silent reads and false positives.
        check_integrity: bool,
    },
    /// Chaos cuts.
    Cuts {
        /// One set per scenario and replica, scenario-major.
        sets: Vec<ChaosSet>,
        /// Flat `(set, cut)` run order.
        order: Vec<(usize, u64)>,
    },
}

/// What one item produced, for the gate and the metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ItemOutcome {
    /// Gate group.
    pub group: usize,
    /// Hash of the item's serialized output (`RunResult` or
    /// `CutVerdict`).
    pub digest: u64,
    /// Simulated events the item processed.
    pub events: u64,
    /// The item's own invariants held (judge passed, no silent reads).
    pub ok: bool,
}

/// Trace capacity the CLI uses for an array: ~90 % of usable space.
fn cli_capacity(cfg: &ArrayConfig) -> u64 {
    let unit_sectors = cfg.stripe_unit_bytes / 512;
    let stripes = cfg.disk_model.geometry.capacity_sectors() / unit_sectors;
    stripes * u64::from(cfg.n_data()) * cfg.stripe_unit_bytes * 9 / 10
}

/// The fault-storm array: the CLI's `--scrub 50 --latent 0.01 --tour
/// 1800 --transient 1e-3:1e-4` with the shadow model on, plus
/// `--corrupt 1e-3 --verify-reads` when `corrupt`.
fn storm_config(policy: ParityPolicy, corrupt: bool) -> ArrayConfig {
    let mut cfg = ArrayConfig::paper_default(policy);
    cfg.shadow = true;
    cfg.scrub.enabled = true;
    cfg.scrub.iops_budget = 50.0;
    cfg.scrub.latent_rate_per_disk_hour = 0.01;
    cfg.scrub.tour_period = SimDuration::from_secs(1800);
    cfg.faults.media_error_per_io = 1e-3;
    cfg.faults.timeout_per_io = 1e-4;
    if corrupt {
        cfg.integrity.bit_flip_per_read = 1e-3;
        cfg.integrity.torn_write_per_io = 1e-3;
        cfg.integrity.lost_write_per_io = 1e-3;
        cfg.integrity.misdirected_write_per_io = 1e-3;
        cfg.integrity.verify_reads = true;
        cfg.integrity.verify_scrub = true;
    }
    cfg
}

/// The fault-storm run options: none for the corruption mix; for the
/// failure mix `--fail-disk 2@<mid-run> --degraded --spare 60`.
///
/// The two mixes are separate cells because together they trip the
/// simulator's loss-assessment invariant ("stripe clean but unit
/// unrecoverable") on RAID 5 cells: see `NOTES.md`.
fn storm_options(duration: SimDuration, corrupt: bool) -> RunOptions {
    if corrupt {
        return RunOptions::default();
    }
    RunOptions {
        fail_disk: Some((2, SimTime::from_secs_f64(duration.as_secs_f64() / 2.0))),
        continue_degraded: true,
        spare_delay: Some(SimDuration::from_secs(60)),
        ..RunOptions::default()
    }
}

/// Generates a workload's traces: one per paper-grid or fault-storm
/// preset, one per chaos scenario.
pub fn generate_traces(id: WorkloadId, scale: Scale, seed: u64) -> Vec<Trace> {
    match id {
        WorkloadId::PaperGrid => {
            let duration = SimDuration::from_secs(scale.grid_secs);
            WorkloadKind::all()
                .iter()
                .map(|&k| WorkloadSpec::preset(k).generate(harness::TRACE_CAPACITY, duration, seed))
                .collect()
        }
        WorkloadId::FaultStorm => {
            let duration = SimDuration::from_secs(scale.storm_secs);
            let capacity = cli_capacity(&storm_config(ParityPolicy::IdleOnly, false));
            STORM_KINDS
                .iter()
                .map(|&(k, _)| WorkloadSpec::preset(k).generate(capacity, duration, seed))
                .collect()
        }
        WorkloadId::ChaosCuts => chaos_specs(scale, seed)
            .iter()
            .map(ChaosSpec::trace)
            .collect(),
    }
}

/// Every scenario's specs, `chaos_replicas` each, scenario-major.
fn chaos_specs(scale: Scale, seed: u64) -> Vec<ChaosSpec> {
    let duration = SimDuration::from_secs(scale.chaos_secs);
    Scenario::ALL
        .iter()
        .enumerate()
        .flat_map(|(s, sc)| {
            (0..scale.chaos_replicas).map(move |r| sc.spec(duration, cell_seed(seed, s, r)))
        })
        .collect()
}

impl Inputs {
    /// Generates a workload's inputs from `seed`: traces, cells or
    /// scenario specs, and (for chaos) the cut lists. This is the
    /// benchmark's set-up.
    pub fn build(id: WorkloadId, scale: Scale, seed: u64) -> Inputs {
        let traces = generate_traces(id, scale, seed);
        match id {
            WorkloadId::PaperGrid => {
                let mut cells = Vec::new();
                for t in 0..traces.len() {
                    for (_, policy) in harness::policy_sweep() {
                        cells.push(Cell {
                            group: t,
                            trace: t,
                            cfg: ArrayConfig::paper_default(policy),
                            opts: RunOptions::default(),
                        });
                    }
                }
                Inputs::Cells {
                    traces,
                    cells,
                    check_integrity: false,
                }
            }
            WorkloadId::FaultStorm => {
                let duration = SimDuration::from_secs(scale.storm_secs);
                let mut cells = Vec::new();
                for (t, &(_, corrupt)) in STORM_KINDS.iter().enumerate() {
                    for policy in [ParityPolicy::IdleOnly, ParityPolicy::AlwaysRaid5] {
                        cells.push(Cell {
                            group: cells.len(),
                            trace: t,
                            cfg: storm_config(policy, corrupt),
                            opts: storm_options(duration, corrupt),
                        });
                    }
                }
                Inputs::Cells {
                    traces,
                    cells,
                    check_integrity: true,
                }
            }
            WorkloadId::ChaosCuts => {
                let sets: Vec<ChaosSet> = chaos_specs(scale, seed)
                    .into_iter()
                    .zip(traces)
                    .enumerate()
                    .map(|(i, (spec, trace))| {
                        let total = spec.total_events(&trace);
                        let cuts = cut_points(total, scale.chaos_cuts);
                        ChaosSet {
                            group: i / scale.chaos_replicas,
                            spec,
                            trace,
                            cuts,
                        }
                    })
                    .collect();
                let order = sets
                    .iter()
                    .enumerate()
                    .flat_map(|(s, set)| set.cuts.iter().map(move |&c| (s, c)))
                    .collect();
                Inputs::Cuts { sets, order }
            }
        }
    }

    /// Items per pass.
    pub fn len(&self) -> usize {
        match self {
            Inputs::Cells { cells, .. } => cells.len(),
            Inputs::Cuts { order, .. } => order.len(),
        }
    }

    /// True when the workload has no items (never for the presets).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gate groups per pass.
    pub fn groups(&self) -> usize {
        match self {
            Inputs::Cells { cells, .. } => cells.iter().map(|c| c.group + 1).max().unwrap_or(0),
            Inputs::Cuts { sets, .. } => sets.iter().map(|s| s.group + 1).max().unwrap_or(0),
        }
    }

    /// Trace records across the workload's traces.
    pub fn trace_records(&self) -> u64 {
        match self {
            Inputs::Cells { traces, .. } => traces.iter().map(|t| t.len() as u64).sum(),
            Inputs::Cuts { sets, .. } => sets.iter().map(|s| s.trace.len() as u64).sum(),
        }
    }

    /// Runs item `i` and returns its outcome with the host seconds its
    /// simulation took. Only the simulation is timed; hashing the
    /// output for the gate is not.
    pub fn run_item(&self, i: usize) -> (ItemOutcome, f64) {
        match self {
            Inputs::Cells {
                traces,
                cells,
                check_integrity,
            } => {
                let cell = &cells[i];
                let t = Instant::now();
                let result = run_cell(cell, &traces[cell.trace]);
                let secs = t.elapsed().as_secs_f64();
                (cell_outcome(cell.group, &result, *check_integrity), secs)
            }
            Inputs::Cuts { sets, order } => {
                let (s, cut) = order[i];
                let set = &sets[s];
                let t = Instant::now();
                let verdict = set.spec.run_cut(&set.trace, cut);
                let secs = t.elapsed().as_secs_f64();
                (cut_outcome(set.group, &verdict), secs)
            }
        }
    }
}

/// One cell as the sweeps run it: the replay plus its availability
/// report.
pub fn run_cell(cell: &Cell, trace: &Trace) -> RunResult {
    let result = run_trace(&cell.cfg, trace, &cell.opts);
    std::hint::black_box(availability(&cell.cfg, &result.metrics));
    result
}

/// Gate outcome of a cell's result.
pub fn cell_outcome(group: usize, result: &RunResult, check_integrity: bool) -> ItemOutcome {
    let integrity = &result.metrics.integrity;
    ItemOutcome {
        group,
        digest: fnv64(
            serde_json::to_string(result)
                .expect("RunResult serializes")
                .as_bytes(),
        ),
        events: result.metrics.events_processed,
        ok: !check_integrity || (integrity.silent_reads == 0 && integrity.false_positives == 0),
    }
}

/// Gate outcome of a cut's verdict.
pub fn cut_outcome(group: usize, verdict: &CutVerdict) -> ItemOutcome {
    ItemOutcome {
        group,
        digest: fnv64(
            serde_json::to_string(verdict)
                .expect("CutVerdict serializes")
                .as_bytes(),
        ),
        events: verdict.events_at_cut,
        ok: verdict.pass,
    }
}
