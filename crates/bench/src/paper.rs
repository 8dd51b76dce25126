//! The paper's evaluation section, regenerated by `afraid-cli paper`.
//!
//! | artifact | regenerates |
//! |---|---|
//! | `fig1` | Figure 1 — the small-update problem (I/Os per write) |
//! | `table1` | Table 1 — model parameters and derived sanity checks |
//! | `table2` | Table 2 / Figure 2 — relative performance across workloads |
//! | `table3` | Table 3 — parity lag, unprotected time, MDLR |
//! | `table4` | Table 4 — disk-related and overall MTTDL |
//! | `fig3` | Figure 3 — the performance/availability trade-off curve |
//! | `fig4` | Figure 4 — per-trace performance vs parity-update policy |
//! | `ablation` | design-choice ablations (beyond the paper) |
//!
//! Tables 2–4 and Figures 3–4 are five views of one experiment: every
//! workload preset under the policies of [`harness::policy_sweep`].
//! [`render`] runs the [`Matrix`] once, with just the columns the
//! requested artifacts read, and each renderer picks its columns by
//! policy name. `afraid-cli sweep` prints the same matrix raw. A
//! workload whose trace is empty prints as "no requests" and is left
//! out of every geometric mean.

use std::io::{self, Write};

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions};
use afraid::policy::ParityPolicy;
use afraid_avail::mttdl::{mttdl_raid0, mttdl_raid5_catastrophic};
use afraid_avail::params::ModelParams;
use afraid_avail::power::{mttdl_power, MTTF_MAINS, MTTF_UPS};
use afraid_avail::support::SupportModel;
use afraid_avail::{mdlr, mttdl};
use afraid_disk::model::DiskModel;
use afraid_exp::map_parallel;
use afraid_sim::stats::geometric_mean;
use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::record::{IoRecord, ReqKind, Trace};
use afraid_trace::workloads::WorkloadKind;

use crate::harness::{self, bytes, header, hours, rule, Cell, Setup, TRACE_CAPACITY};

mod ablation;

/// One table or figure of the paper's evaluation, or the ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Artifact {
    Fig1,
    Table1,
    Table2,
    Table3,
    Table4,
    Fig3,
    Fig4,
    Ablation,
}

/// Table 2's columns: the three headline designs.
const TABLE2: [&str; 3] = ["raid0", "afraid", "raid5"];
/// Table 3's columns.
const TABLE3: [&str; 4] = ["afraid", "mttdl_1e9", "mttdl_1e7", "raid5"];
/// Table 4's columns.
const TABLE4: [&str; 4] = ["afraid", "mttdl_1e9", "mttdl_1e8", "mttdl_1e7"];

impl Artifact {
    /// Every artifact, in the order `paper all` prints them.
    pub const ALL: [Artifact; 8] = [
        Artifact::Fig1,
        Artifact::Table1,
        Artifact::Table2,
        Artifact::Table3,
        Artifact::Table4,
        Artifact::Fig3,
        Artifact::Fig4,
        Artifact::Ablation,
    ];

    /// The name `afraid-cli paper` takes.
    pub fn name(self) -> &'static str {
        const NAMES: [&str; 8] = [
            "fig1", "table1", "table2", "table3", "table4", "fig3", "fig4", "ablation",
        ];
        NAMES[self as usize]
    }

    /// Parses an artifact name.
    pub fn parse(s: &str) -> Option<Artifact> {
        Artifact::ALL.into_iter().find(|a| a.name() == s)
    }

    /// Whether this artifact reads the matrix column of `policy`.
    fn reads(self, policy: &str) -> bool {
        match self {
            Artifact::Table2 => TABLE2.contains(&policy),
            Artifact::Table3 => TABLE3.contains(&policy),
            Artifact::Table4 => TABLE4.contains(&policy),
            Artifact::Fig3 | Artifact::Fig4 => true,
            Artifact::Fig1 | Artifact::Table1 | Artifact::Ablation => false,
        }
    }
}

/// Every workload preset, on [`TRACE_CAPACITY`], under a list of
/// parity policies.
pub struct Matrix {
    /// Simulated trace duration.
    pub(crate) duration: SimDuration,
    /// Workload-synthesis seed.
    pub(crate) seed: u64,
    /// Column names and policies, in run order.
    pub(crate) policies: Vec<(String, ParityPolicy)>,
    /// One row per workload, in [`WorkloadKind::all`] order, one cell
    /// per policy.
    pub(crate) rows: Vec<Vec<Cell>>,
}

impl Matrix {
    /// Simulates every cell, once.
    pub fn run(policies: Vec<(String, ParityPolicy)>, setup: &Setup) -> Matrix {
        let kinds = WorkloadKind::all();
        let rows = harness::run_cells(setup, &kinds, TRACE_CAPACITY, &policies);
        Matrix {
            duration: setup.duration,
            seed: setup.seed,
            policies,
            rows,
        }
    }

    /// `(workload, requests in its trace, cells)` per row.
    pub fn workloads(&self) -> impl Iterator<Item = (WorkloadKind, u64, &[Cell])> {
        let requests = |row: &[Cell]| row.first().map_or(0, |c| c.result.metrics.requests);
        WorkloadKind::all()
            .into_iter()
            .zip(&self.rows)
            .map(move |(kind, row)| (kind, requests(row), row.as_slice()))
    }

    /// The column index of `policy`.
    fn col(&self, policy: &str) -> usize {
        self.policies
            .iter()
            .position(|(name, _)| name == policy)
            .expect("the matrix holds every column a requested artifact reads")
    }

    /// The "{secs}s traces, seed {seed}" suffix of every title.
    fn coords(&self) -> String {
        format!(
            "{}s traces, seed {}",
            self.duration.as_secs_f64(),
            self.seed
        )
    }
}

/// The matrix columns `artifacts` read, in [`harness::policy_sweep`]
/// order, each once: [`render`] runs one [`Matrix`] of exactly these,
/// so every cell any artifact needs is simulated once.
pub fn columns(artifacts: &[Artifact]) -> Vec<(String, ParityPolicy)> {
    harness::policy_sweep()
        .into_iter()
        .filter(|(name, _)| artifacts.iter().any(|a| a.reads(name)))
        .collect()
}

/// Renders `artifacts` in order, under `== name ==` headers when there
/// is more than one.
pub fn render(artifacts: &[Artifact], setup: &Setup, out: &mut dyn Write) -> io::Result<()> {
    let columns = columns(artifacts);
    let matrix = (!columns.is_empty()).then(|| Matrix::run(columns, setup));
    let m = || matrix.as_ref().expect("a matrix artifact was requested");
    for &artifact in artifacts {
        if artifacts.len() > 1 {
            writeln!(out, "== {} ==", artifact.name())?;
        }
        match artifact {
            Artifact::Fig1 => fig1(setup, out)?,
            Artifact::Table1 => table1(out)?,
            Artifact::Table2 => table2(m(), out)?,
            Artifact::Table3 => table3(m(), out)?,
            Artifact::Table4 => table4(m(), out)?,
            Artifact::Fig3 => fig3(m(), out)?,
            Artifact::Fig4 => fig4(m(), out)?,
            Artifact::Ablation => ablation::render(setup, out)?,
        }
    }
    Ok(())
}

/// The row a workload with an empty trace gets instead of its cells.
fn no_requests(out: &mut dyn Write, kind: WorkloadKind) -> io::Result<()> {
    writeln!(out, "{:<11} no requests", kind.name())
}

/// [`geometric_mean`], or NaN when every workload was left out.
fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        geometric_mean(xs)
    }
}

/// Figure 1 — the small-update problem.
///
/// The paper's Figure 1 illustrates why RAID 5 small writes are slow:
/// four disk I/Os in the critical path (read old data, read old
/// parity, write data, write parity) against AFRAID's single data
/// write. This performs one 8 KB write against each design and reports
/// the foreground I/O count and response time, plus the deferred work
/// AFRAID does later.
fn fig1(setup: &Setup, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Figure 1: the small-update problem (one 8 KB write, 5-disk HP C3325 array)\n"
    )?;
    header(
        out,
        "design     fg I/Os  pre-reads     writes  latency(ms) deferred I/Os",
    )?;
    let cap = TRACE_CAPACITY;
    let designs = harness::headline_designs();
    let results = map_parallel(setup.jobs, &designs, |_, (_, policy)| {
        let mut trace = Trace::new("small-write", cap);
        trace.push(IoRecord {
            time: SimTime::ZERO,
            offset: 0,
            bytes: 8 * 1024,
            kind: ReqKind::Write,
        });
        let cfg = ArrayConfig::paper_default(*policy);
        run_trace(&cfg, &trace, &RunOptions::default())
    });
    for ((name, _), r) in designs.iter().zip(&results) {
        let io = r.metrics.io;
        writeln!(
            out,
            "{:<8} {:>9} {:>10} {:>10} {:>12.2} {:>12}",
            name,
            io.foreground_write_ios(),
            io.rmw_pre_read,
            io.client_write + io.parity_write,
            r.metrics.mean_io_ms,
            io.scrub_read + io.scrub_write,
        )?;
    }
    write!(
        out,
        "
Paper: RAID 5 needs 3-4 I/Os in the critical path; AFRAID needs 1.
AFRAID's 5 deferred I/Os (4 stripe reads + 1 parity write) run in idle time.
"
    )
}

/// Table 1 — values assumed for calculations in the paper, plus the
/// derived sanity numbers quoted in §3, so a reader can verify the
/// availability machinery reproduces every worked example in the text.
fn table1(out: &mut dyn Write) -> io::Result<()> {
    let p = ModelParams::default();
    let (coverage, mttr, unit_kb) = (p.coverage, p.mttr_disk, p.stripe_unit / 1024);
    let (mttf_raw, support) = (hours(p.mttf_disk_raw), hours(p.mttdl_support));
    let disk_gb = p.disk_bytes / 1_000_000_000;
    let mttf = hours(p.mttf_disk());
    let raid5 = hours(mttdl::mttdl_raid5_catastrophic(&p, 4));
    let raid5_mdlr = mdlr::mdlr_raid5_catastrophic(&p, 4);
    let support_2m = mdlr::mdlr_support(&p, 4, 2.0e6);
    let support_150k = mdlr::mdlr_support(&p, 4, 150_000.0);
    let presto = mdlr::mdlr_nvram(1_000_000, 15_000.0);
    let mains = hours(mttdl_power(MTTF_MAINS, 0.10));
    let ups = hours(mttdl_power(MTTF_UPS, 0.10));
    let bom = hours(SupportModel::conservative_array().mttdl());
    let rescan = afraid::recovery::nvram_rescan_time(&DiskModel::hp_c3325(), 0.0);
    let rescan_min = rescan.as_secs_f64() / 60.0;
    let lifetime_loss = (1.0 - (-26_280.0f64 / 1.0e6).exp()) * 100.0;
    write!(
        out,
        "\
Table 1: values assumed for calculations in this paper
------------------------------------------------------
disk MTTF (raw)                  {mttf_raw} hours
support hardware MTTDL           {support} hours
disk failure-prediction coverage {coverage}
mean time to repair              {mttr} hours
stripe unit size                 {unit_kb} KB
disk size                        {disk_gb} GB

Derived quantities quoted in the paper's text (5-disk array):
--------------------------------------------------------------
effective disk MTTF (coverage-adjusted)   {mttf} h   (paper: 2M)
RAID 5 catastrophic MTTDL  (eq 1)         {raid5} h   (paper: ~4e9, '475,000 years')
RAID 5 catastrophic MDLR   (eq 3)         {raid5_mdlr:.2} B/h (paper: ~0.8 bytes/hour)
support MDLR at 2M h                      {support_2m:.0} B/h (paper: 4.0 KB/hour)
support MDLR at Gibson's 150k h           {support_150k:.0} B/h (paper: 53 KB/hour)
PrestoServe NVRAM MDLR (1 MB, 15k h)      {presto:.0} B/h (paper: 67 bytes/hour)
mains power MTTDL at 10% write duty       {mains} h   (paper: 43k hours)
with a 200k-hour UPS                      {ups} h   (paper: 2M hours)
discrete support bill-of-materials MTTDL  {bom} h   (paper: quotes 270k-5M)
whole-array parity rescan (NVRAM loss)    {rescan_min:.1} min (paper: 'about ten minutes')
a 1M-hour MTTDL over a 3-year lifetime    {lifetime_loss:.1}% loss likelihood (paper: 2.6%)
"
    )
}

/// Table 2 / Figure 2 — relative performance of RAID 0, AFRAID and
/// RAID 5 across the workloads.
///
/// The paper's claims this regenerates: "pure AFRAID performance is
/// very close to that of RAID 0"; "the performance of the baseline
/// AFRAID was a geometric mean of 4.1 times that of RAID 5 across our
/// test workloads. By comparison, RAID 0 performance was 4.2 times
/// that of RAID 5."
fn table2(m: &Matrix, out: &mut dyn Write) -> io::Result<()> {
    let coords = m.coords();
    writeln!(
        out,
        "Table 2 / Figure 2: mean I/O time (ms) per design; {coords}\n"
    )?;
    let head =
        "workload    requests      raid0     afraid      raid5 afraid-speedup  raid0-speedup";
    header(out, head)?;
    let cols = TABLE2.map(|p| m.col(p));
    let (mut afraid_speedups, mut raid0_speedups) = (Vec::new(), Vec::new());
    for (kind, requests, row) in m.workloads() {
        if requests == 0 {
            no_requests(out, kind)?;
            continue;
        }
        let [raid0, afraid, raid5] = cols.map(|c| row[c].result.metrics.mean_io_ms);
        let (afraid_x, raid0_x) = (raid5 / afraid, raid5 / raid0);
        afraid_speedups.push(afraid_x);
        raid0_speedups.push(raid0_x);
        let name = kind.name();
        writeln!(
            out,
            "{name:<11} {requests:>8} {raid0:>10.2} {afraid:>10.2} {raid5:>10.2} {afraid_x:>13.2}x {raid0_x:>13.2}x"
        )?;
    }
    rule(out, head.len())?;
    let (afraid_x, raid0_x) = (geomean(&afraid_speedups), geomean(&raid0_speedups));
    write!(
        out,
        "{:<53} {afraid_x:>13.2}x {raid0_x:>13.2}x

Paper: AFRAID 4.1x RAID 5 (geometric mean); RAID 0 4.2x RAID 5.
",
        "geom. mean"
    )
}

/// Table 3 — parity lag, unprotected time, and the resulting MDLR for
/// the baseline AFRAID and the `MTTDL_x` policies.
///
/// The paper's claims: "the AFRAID contribution to MDLR from
/// unprotected data is extremely low: with the exception of the heavy
/// load from the ATT trace, MDLR_unprotected contributes less than one
/// byte per hour"; "MDLR_unprotected drops to less than 0.1 bytes/hour
/// if any of the MTTDL_x policies are used"; "AFRAID and RAID 5 have
/// essentially identical MDLRs" (both dominated by support components).
fn table3(m: &Matrix, out: &mut dyn Write) -> io::Result<()> {
    let coords = m.coords();
    writeln!(
        out,
        "Table 3: parity lag and mean data loss rate; {coords}\n"
    )?;
    let head = "workload    policy           mean lag   unprot% MDLRunprot B/h  MDLRdisk B/h   MDLRall B/h";
    header(out, head)?;
    for (kind, requests, row) in m.workloads() {
        if requests == 0 {
            no_requests(out, kind)?;
        }
        for name in TABLE3.into_iter().filter(|_| requests > 0) {
            let cell = &row[m.col(name)];
            let (r, a) = (&cell.result.metrics, &cell.avail);
            writeln!(
                out,
                "{:<11} {:<12} {:>12} {:>8.1}% {:>14.3} {:>13.3} {:>13.0}",
                kind.name(),
                name,
                bytes(r.mean_parity_lag_bytes),
                r.frac_unprotected * 100.0,
                a.mdlr_unprotected,
                a.mdlr_disk,
                a.mdlr_overall,
            )?;
        }
        rule(out, head.len())?;
    }
    write!(
        out,
        "
Paper: MDLR_unprotected < 1 B/h except ATT; < 0.1 B/h under MTTDL_x;
overall MDLR ~4 KB/h everywhere (support-component dominated).
"
    )
}

/// Table 4 — disk-related and overall MTTDL per workload and policy.
///
/// The paper's claims: "even the baseline AFRAID design is uniformly
/// better than an unprotected disk array. It delivers a geometric mean
/// MTTDL 4.3 times better than RAID 0, and is only a factor of 1.8
/// worse than pure RAID 5"; "the disk-related MTTDL was never more
/// than 5% below its target [for MTTDL_x], and usually far exceeded
/// it"; "the dominant factor in overall MTTDL comes from the support
/// components, which limit overall MTTDL to 2 million hours for all
/// but the baseline AFRAID with the busiest workloads".
fn table4(m: &Matrix, out: &mut dyn Write) -> io::Result<()> {
    let p = ModelParams::default();
    let (coords, raid0) = (m.coords(), mttdl_raid0(&p, 5));
    let raid5 = mttdl_raid5_catastrophic(&p, 4);
    let (raid5_h, raid0_h, support_h) = (hours(raid5), hours(raid0), hours(p.mttdl_support));
    write!(
        out,
        "Table 4: mean time to data loss; {coords}

references: RAID 5 disk-related {raid5_h} h, RAID 0 {raid0_h} h, support {support_h} h

"
    )?;
    let head = "workload    policy         unprot%   MTTDL disk h MTTDL overall h  vs target";
    header(out, head)?;
    let (mut afraid_disk, mut afraid_overall) = (Vec::new(), Vec::new());
    for (kind, requests, row) in m.workloads() {
        if requests == 0 {
            no_requests(out, kind)?;
        }
        for name in TABLE4.into_iter().filter(|_| requests > 0) {
            let c = m.col(name);
            let (r, a) = (&row[c].result.metrics, &row[c].avail);
            if name == "afraid" {
                afraid_disk.push(a.mttdl_disk);
                afraid_overall.push(a.mttdl_overall);
            }
            let vs_target = match m.policies[c].1 {
                ParityPolicy::MttdlTarget { target_hours } => {
                    format!("{:>9.2}x", a.mttdl_disk / target_hours)
                }
                _ => "-".to_string(),
            };
            writeln!(
                out,
                "{:<11} {:<12} {:>8.1}% {:>14} {:>14} {:>10}",
                kind.name(),
                name,
                r.frac_unprotected * 100.0,
                hours(a.mttdl_disk),
                hours(a.mttdl_overall),
                vs_target,
            )?;
        }
        rule(out, head.len())?;
    }
    let (disk, overall) = (geomean(&afraid_disk), geomean(&afraid_overall));
    let (disk_x, overall_x) = (
        disk / raid0,
        mttdl::combine(&[raid5, p.mttdl_support]) / overall,
    );
    let (disk, overall) = (hours(disk), hours(overall));
    write!(
        out,
        "
baseline AFRAID geometric means: disk MTTDL {disk} h = {disk_x:.1}x RAID 0 (disk); \
overall MTTDL {overall} h = {overall_x:.1}x below RAID 5 (overall)
Paper: 4.3x better than RAID 0; a factor of 1.8 worse than pure RAID 5.
"
    )
}

/// Figure 3 — how little availability buys how much performance.
///
/// The paper's Figure 3 plots relative performance (x) against
/// relative availability (y), both normalised to RAID 5, as the
/// `MTTDL_x` target sweeps from RAID 5 (top left) to pure AFRAID
/// (bottom right), using geometric means across all workloads. The
/// quoted points: "AFRAID offers 42% better performance for only 10%
/// less availability, and 97% better for 23% less. By the time pure
/// AFRAID is reached ... performance is 4.1 times better than RAID 5,
/// at a cost of less than half its availability."
fn fig3(m: &Matrix, out: &mut dyn Write) -> io::Result<()> {
    let coords = m.coords();
    writeln!(
        out,
        "Figure 3: performance vs availability (geometric means over all workloads, \
         normalised to RAID 5); {coords}\n"
    )?;
    // The RAID 5 column is the per-workload performance reference; the
    // last workload's RAID 5 cell is the availability reference.
    let raid5 = m.col("raid5");
    let raid5_overall = m
        .rows
        .last()
        .map(|row| row[raid5].avail.mttdl_overall)
        .expect("at least one workload");
    header(
        out,
        "policy          rel. perf      perf gain    rel. avail  avail given up",
    )?;
    for (p, (name, _)) in m.policies.iter().enumerate() {
        let (mut perf_ratio, mut avail_ratio) = (Vec::new(), Vec::new());
        for (_, _, row) in m.workloads().filter(|&(_, requests, _)| requests > 0) {
            let cell = &row[p];
            perf_ratio.push(row[raid5].result.metrics.mean_io_ms / cell.result.metrics.mean_io_ms);
            avail_ratio.push(cell.avail.mttdl_overall / raid5_overall);
        }
        let (perf, avail) = (geomean(&perf_ratio), geomean(&avail_ratio));
        let (perf_gain, avail_lost) = ((perf - 1.0) * 100.0, (avail - 1.0) * 100.0);
        writeln!(
            out,
            "{name:<12} {perf:>11.2}x {perf_gain:>+13.0}% {avail:>12.2}x {avail_lost:>+14.0}%"
        )?;
    }
    for (kind, _, _) in m.workloads().filter(|&(_, requests, _)| requests == 0) {
        writeln!(out, "left out of the means: {} (no requests)", kind.name())?;
    }
    write!(
        out,
        "
Paper: +42% perf for -10% availability; +97% for -23%;
pure AFRAID 4.1x perf for less than half RAID 5's availability.
"
    )
}

/// Figure 4 — mean I/O time per trace as the parity-update policy
/// sweeps from RAID 5 to pure AFRAID.
///
/// The paper's reading of the figure: "the highly bursty workloads
/// such as snake, hplajw, and cello-usr show relatively little change
/// in mean I/O time as availability is increased ... In workloads with
/// fewer idle periods and more write traffic, such as AS400-1 and ATT,
/// there is a smooth decline in mean I/O time as MTTDL is increased
/// across the entire range between RAID 5 and pure AFRAID."
fn fig4(m: &Matrix, out: &mut dyn Write) -> io::Result<()> {
    let coords = m.coords();
    writeln!(
        out,
        "Figure 4: mean I/O time (ms) per trace vs parity-update policy; {coords}\n"
    )?;
    let mut head = format!("{:<11}", "workload");
    for (name, _) in &m.policies {
        head.push_str(&format!(" {name:>10}"));
    }
    header(out, &head)?;
    for (kind, requests, cells) in m.workloads() {
        if requests == 0 {
            no_requests(out, kind)?;
            continue;
        }
        let mut row = format!("{:<11}", kind.name());
        for cell in cells {
            row.push_str(&format!(" {:>10.2}", cell.result.metrics.mean_io_ms));
        }
        writeln!(out, "{row}")?;
    }
    write!(
        out,
        "
Reading guide: columns run from RAID 5 (left) through MTTDL_x targets to
pure AFRAID and RAID 0 (right). Bursty traces are nearly flat once any
deferral is allowed; busy traces decline smoothly across the whole range.
"
    )
}
