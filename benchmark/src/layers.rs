//! The traced run: per-layer metrics and their reconciliation.
//!
//! The benchmark sees each layer from outside. Spans recorded around
//! the benchmark's own calls into public functions (`run_trace`,
//! `report::availability`, `run_to_cut`, `recovery::replay`,
//! `chaos::judge`) time the coarse layers directly. The layers inside
//! `run_trace` are attributed: the count the run already exports in
//! `RunMetrics` times a cost per operation, measured by calling the
//! layer's public function (`EventQueue`, `Layout::map_range_into`,
//! `Disk::submit`, `IntegrityState::verify`) on the workload's own
//! inputs. What the attributed layers do not cover is the controller
//! residual.

use std::fs;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use afraid::config::ArrayConfig;
use afraid::controller::Ev;
use afraid::driver::{run_to_cut, run_trace, RunResult};
use afraid::integrity::IntegrityState;
use afraid::layout::{Layout, UnitSlice};
use afraid::metrics::RunMetrics;
use afraid::recovery::replay;
use afraid::report::availability;
use afraid::shadow::ShadowArray;
use afraid_chaos::{judge, CutVerdict};
use afraid_disk::{Disk, DiskRequest, OpKind};
use afraid_exp::CellCache;
use afraid_sim::queue::EventQueue;
use afraid_sim::rng::SplitMix64;
use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::record::{ReqKind, Trace};

use crate::cpu::CpuRotation;
use crate::report::{Metric, Report};
use crate::run::{another_round, gate_for, item_best, run_pass, Args, Pass, SETUP_REPS};
use crate::stats::median;
use crate::workload::{cell_outcome, cut_outcome, generate_traces, Inputs, WorkloadId};

/// Repetitions of each per-operation cost measurement; the best is
/// kept, as for the item times.
const MICRO_REPS: usize = 5;

/// Trace records per trace fed to the layout, disk and integrity
/// micro-measurements.
const MICRO_RECORDS_PER_TRACE: usize = 20_000;

/// Schedule+pop pairs per queue micro-measurement.
const QUEUE_OPS: usize = 400_000;

/// Cache schema tag for the benchmark's scratch cache.
const CACHE_SCHEMA: &str = "afraid-benchmark-v1";

/// One timed interval recorded by the benchmark.
#[derive(Clone, Copy, Debug)]
struct Span {
    /// Traced pass the span belongs to.
    pass: u32,
    /// Layer boundary name.
    name: &'static str,
    /// Item index within the pass; spans of one item share it.
    item: u32,
    /// Index of the enclosing span, for child spans.
    parent: Option<u32>,
    /// Start, ns since the run began.
    start_ns: u64,
    /// End, ns since the run began.
    end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder, written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    pass: u32,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            pass: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a root span for `item`; children record against the index
    /// this returns.
    fn open(&mut self, name: &'static str, item: usize) -> u32 {
        let at = self.now();
        self.push(name, item, None, at, at)
    }

    fn close(&mut self, id: u32) {
        let at = self.now();
        self.spans[id as usize].end_ns = at;
    }

    fn push(
        &mut self,
        name: &'static str,
        item: usize,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            pass: self.pass,
            name,
            item: item as u32,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `f` inside a child span of `parent`.
    fn child<T>(
        &mut self,
        name: &'static str,
        item: usize,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, item, Some(parent), start, end);
        out
    }

    /// Host seconds of the spans named `name`: each item's best across
    /// the traced passes, summed over items (the estimator the
    /// end-to-end metrics use).
    fn item_total(&self, name: &str) -> f64 {
        let mut per_item: Vec<Vec<f64>> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let i = s.item as usize;
            if per_item.len() <= i {
                per_item.resize(i + 1, Vec::new());
            }
            per_item[i].push(s.secs());
        }
        per_item
            .iter()
            .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
            .sum()
    }

    /// Duration of each root span of the current pass, in item order.
    fn root_secs(&self, first_span: usize) -> Vec<f64> {
        self.spans[first_span..]
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"pass\": {}, \"name\": \"{}\", \"item\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.pass, s.name, s.item, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Counts the simulator exports in `RunMetrics`, summed over runs.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    events: u64,
    queue_peak: usize,
    requests: u64,
    ios: u64,
    retries: u64,
    background_ios: u64,
    verified_units: u64,
}

impl Counts {
    fn add(&mut self, m: &RunMetrics) {
        let io = &m.io;
        self.events += m.events_processed;
        self.queue_peak = self.queue_peak.max(m.event_queue_peak);
        self.requests += m.requests;
        self.ios += io.total();
        self.retries += m.retries;
        self.background_ios += io.scrub_read
            + io.scrub_write
            + io.tour_read
            + io.rebuild_read
            + io.rebuild_write
            + io.latent_repair_write
            + io.read_repair_write
            + io.corrupt_repair_write;
        self.verified_units += m.integrity.verified_units;
    }
}

/// One traced pass: its items timed by their root spans, and the
/// outputs the per-layer metrics need (identical in every pass).
struct TracedPass {
    pass: Pass,
    counts: Counts,
    /// Serialized outputs, for the serde and cache layers.
    payloads: Vec<String>,
    /// Cuts: events replayed before the power cuts.
    prefix_events: u64,
}

/// One traced pass over a cell workload.
fn traced_cells(inputs: &Inputs, tracer: &mut Tracer) -> TracedPass {
    let Inputs::Cells {
        traces,
        cells,
        check_integrity,
    } = inputs
    else {
        unreachable!("traced_cells takes a cell workload");
    };
    let first_span = tracer.spans.len();
    let mut counts = Counts::default();
    let mut outcomes = Vec::with_capacity(cells.len());
    let mut results = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let root = tracer.open("cell", i);
        let result = tracer.child("driver.run_trace", i, root, || {
            run_trace(&cell.cfg, &traces[cell.trace], &cell.opts)
        });
        tracer.child("report.availability", i, root, || {
            black_box(availability(&cell.cfg, &result.metrics))
        });
        tracer.close(root);
        counts.add(&result.metrics);
        outcomes.push(cell_outcome(cell.group, &result, *check_integrity));
        results.push(result);
    }
    TracedPass {
        pass: Pass {
            item_secs: tracer.root_secs(first_span),
            outcomes,
        },
        counts,
        payloads: results
            .iter()
            .map(|r| serde_json::to_string(r).expect("RunResult serializes"))
            .collect(),
        prefix_events: 0,
    }
}

/// One traced pass over the chaos cuts, with `ChaosSpec::run_cut`
/// split into its calls.
fn traced_cuts(inputs: &Inputs, tracer: &mut Tracer) -> TracedPass {
    let Inputs::Cuts { sets, order } = inputs else {
        unreachable!("traced_cuts takes the chaos workload");
    };
    let first_span = tracer.spans.len();
    let mut prefix_events = 0;
    let mut outcomes = Vec::with_capacity(order.len());
    let mut verdicts: Vec<CutVerdict> = Vec::with_capacity(order.len());
    for (i, &(s, cut)) in order.iter().enumerate() {
        let set = &sets[s];
        let spec = &set.spec;
        let root = tracer.open("cut", i);
        let mut run = tracer.child("driver.run_to_cut", i, root, || {
            run_to_cut(&spec.cfg, &set.trace, &spec.opts, cut)
        });
        tracer.child("inject", i, root, || {
            if let Some(disk) = spec.kill_disk_at_cut {
                if run.image.failed_disk.is_none() {
                    run.image.kill_disk(disk);
                }
            }
            if spec.kill_nvram_at_cut {
                run.image.kill_nvram();
            }
        });
        let outcome = tracer.child("recovery.replay", i, root, || replay(&run.image));
        let verdict = tracer.child("verdict.judge", i, root, || {
            judge(cut, &run.image, &outcome, run.loss.as_ref())
        });
        tracer.close(root);
        prefix_events += run.events_processed;
        outcomes.push(cut_outcome(set.group, &verdict));
        verdicts.push(verdict);
    }
    TracedPass {
        pass: Pass {
            item_secs: tracer.root_secs(first_span),
            outcomes,
        },
        counts: Counts::default(),
        payloads: verdicts
            .iter()
            .map(|v| serde_json::to_string(v).expect("CutVerdict serializes"))
            .collect(),
        prefix_events,
    }
}

/// Best host seconds of `f` over [`MICRO_REPS`] calls.
fn timed<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..MICRO_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// ns per schedule+pop pair on an `EventQueue<Ev>` held at `depth`
/// pending events, with completion-like offsets of up to 30 ms.
fn queue_ns_per_op(depth: usize, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let mut offset = move || SimDuration::from_nanos(rng.next_u64() % 30_000_000);
    let secs = timed(|| {
        let mut q: EventQueue<Ev> = EventQueue::new();
        for _ in 0..depth.max(1) {
            q.schedule(SimTime::ZERO + offset(), Ev::Arrive);
        }
        for _ in 0..QUEUE_OPS {
            let (at, ev) = q.pop().expect("the queue never drains below `depth`");
            q.schedule(at + offset(), ev);
        }
        q.len()
    });
    secs * 1e9 / QUEUE_OPS as f64
}

/// Per-operation costs of the layers under `run_trace`, measured on
/// the workload's own trace records and array geometry.
#[derive(Clone, Copy, Debug, Default)]
struct LayerCosts {
    ns_per_map: f64,
    ns_per_submit: f64,
    ns_per_verify: f64,
    ns_per_parity: f64,
}

fn layer_costs(cfg: &ArrayConfig, traces: &[&Trace]) -> LayerCosts {
    let layout = Layout::new(
        cfg.disks,
        cfg.stripe_unit_bytes,
        cfg.disk_model.geometry.capacity_sectors(),
    );
    let records: Vec<_> = traces
        .iter()
        .flat_map(|t| t.records.iter().take(MICRO_RECORDS_PER_TRACE))
        .copied()
        .collect();
    let mut buf: Vec<UnitSlice> = Vec::with_capacity(64);
    let map_secs = timed(|| {
        let mut n = 0usize;
        for r in &records {
            layout.map_range_into(r.offset, r.bytes, &mut buf);
            n += black_box(&buf).len();
        }
        n
    });

    let mut slices: Vec<(SimTime, OpKind, UnitSlice)> = Vec::new();
    for r in &records {
        layout.map_range_into(r.offset, r.bytes, &mut buf);
        let op = match r.kind {
            ReqKind::Read => OpKind::Read,
            ReqKind::Write => OpKind::Write,
        };
        slices.extend(buf.iter().map(|&s| (r.time, op, s)));
    }
    let submit_secs = timed(|| {
        let mut disks: Vec<Disk> = (0..cfg.disks)
            .map(|_| Disk::new(cfg.disk_model.clone(), SimDuration::ZERO))
            .collect();
        for &(at, op, s) in &slices {
            let req = DiskRequest {
                lba: s.disk_lba,
                sectors: s.sectors,
                op,
            };
            black_box(disks[s.disk as usize].submit(at, &req));
        }
    });

    let shadow = ShadowArray::new(layout);
    let integrity = IntegrityState::new(&shadow);
    let verify_secs = timed(|| {
        slices
            .iter()
            .filter(|(_, _, s)| {
                integrity.verify(s.stripe, s.unit, shadow.data_word(s.stripe, s.unit))
            })
            .count()
    });
    let parity_secs = timed(|| {
        slices
            .iter()
            .fold(0u64, |acc, (_, _, s)| acc ^ shadow.compute_parity(s.stripe))
    });

    let per = |secs: f64, n: usize| secs * 1e9 / n.max(1) as f64;
    LayerCosts {
        ns_per_map: per(map_secs, records.len()),
        ns_per_submit: per(submit_secs, slices.len()),
        ns_per_verify: per(verify_secs, slices.len()),
        ns_per_parity: per(parity_secs, slices.len()),
    }
}

/// Host seconds of serde encode and decode over the pass's outputs,
/// and the bytes encoded. Decoded values must re-encode to the same
/// bytes; the mismatches are returned as failures.
fn serde_layer(id: WorkloadId, payloads: &[String]) -> (f64, f64, u64, u64) {
    let bytes = payloads.iter().map(|p| p.len() as u64).sum();
    let (encode_s, decode_s, mismatches) = match id {
        WorkloadId::ChaosCuts => {
            let values: Vec<CutVerdict> = payloads
                .iter()
                .map(|p| serde_json::from_str(p).expect("verdict payload decodes"))
                .collect();
            serde_round_trip(&values, payloads)
        }
        _ => {
            let values: Vec<RunResult> = payloads
                .iter()
                .map(|p| serde_json::from_str(p).expect("result payload decodes"))
                .collect();
            serde_round_trip(&values, payloads)
        }
    };
    (encode_s, decode_s, bytes, mismatches)
}

fn serde_round_trip<T: serde::Serialize + serde::Deserialize>(
    values: &[T],
    payloads: &[String],
) -> (f64, f64, u64) {
    let encode_s = timed(|| {
        values
            .iter()
            .map(|v| serde_json::to_string(v).expect("value serializes").len())
            .sum::<usize>()
    });
    let decode_s = timed(|| {
        payloads
            .iter()
            .filter(|p| serde_json::from_str::<T>(p).is_ok())
            .count()
    });
    let mismatches = values
        .iter()
        .zip(payloads)
        .filter(|(v, p)| serde_json::to_string(*v).ok().as_deref() != Some(p.as_str()))
        .count() as u64;
    (encode_s, decode_s, mismatches)
}

/// Host seconds to store and look up every payload in a fresh
/// `CellCache` under `dir`, the hit ratio, and payloads that came back
/// different.
fn cache_layer(dir: &Path, seed: u64, payloads: &[String]) -> (f64, f64, f64, u64) {
    let _ = fs::remove_dir_all(dir);
    let cache = CellCache::new(dir.to_path_buf(), CACHE_SCHEMA);
    let keys: Vec<_> = (0..payloads.len())
        .map(|i| cache.key_builder().u64(seed).u64(i as u64).finish())
        .collect();
    let t = Instant::now();
    for (k, p) in keys.iter().zip(payloads) {
        cache.store(k, p);
    }
    let store_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let found: Vec<Option<String>> = keys.iter().map(|k| cache.lookup(k)).collect();
    let lookup_s = t.elapsed().as_secs_f64();
    let stats = cache.stats();
    let hit_ratio = stats.hits as f64 / stats.lookups().max(1) as f64;
    let wrong = found
        .iter()
        .zip(payloads)
        .filter(|(f, p)| f.as_deref() != Some(p.as_str()))
        .count() as u64;
    let _ = fs::remove_dir_all(dir);
    (store_s, lookup_s, hit_ratio, wrong)
}

/// Where the benchmark writes spans and its scratch cache: a
/// git-ignored directory at the repository root.
pub fn out_dir() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().unwrap_or(manifest).join(".bench_out")
}

/// The traced run. Untraced and traced passes alternate until the
/// time budget is spent (at least [`crate::run::MIN_PASSES`] of each). Span times
/// are per-item bests across the traced passes, summed; the tracing
/// overhead is the traced minus the untraced `wall_s` estimate.
pub fn run_traced(args: &Args) -> Report {
    let inputs = Inputs::build(args.workload, args.scale, args.seed);
    let trace_gen_s = median(
        &(0..SETUP_REPS)
            .map(|_| trace_gen_secs(args))
            .collect::<Vec<_>>(),
    );

    let mut gate = gate_for(args, &inputs);
    let mut tracer = Tracer::new();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut failed = 0u64;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut last = Duration::ZERO;
    let mut cpus = CpuRotation::new();
    while another_round(traced.len(), start.elapsed(), last, budget) {
        cpus.advance();
        let t = Instant::now();
        let pass = run_pass(&inputs);
        failed += gate.check(&pass.outcomes) as u64;
        untraced.push(pass);
        tracer.pass = traced.len() as u32;
        let tp = match &inputs {
            Inputs::Cells { .. } => traced_cells(&inputs, &mut tracer),
            Inputs::Cuts { .. } => traced_cuts(&inputs, &mut tracer),
        };
        failed += gate.check(&tp.pass.outcomes) as u64;
        traced.push(tp);
        last = t.elapsed();
    }
    let attempted = (inputs.len() * (untraced.len() + traced.len())) as u64;
    let last = traced.last().expect("at least MIN_PASSES traced passes");
    let overhead_s: f64 = item_best(traced.iter().map(|t| &t.pass))
        .iter()
        .sum::<f64>()
        - item_best(&untraced).iter().sum::<f64>();

    // The whole-run layers. Cell workloads take them from the traced
    // passes; chaos from the full (uncut) runs its cut lists are built
    // from.
    let (counts, run_s, avail_s) = match &inputs {
        Inputs::Cells { .. } => (
            last.counts,
            tracer.item_total("driver.run_trace"),
            tracer.item_total("report.availability"),
        ),
        Inputs::Cuts { sets, .. } => {
            let mut counts = Counts::default();
            let mut run_s = 0.0;
            let mut avail_s = 0.0;
            for set in sets {
                let spec = &set.spec;
                run_s += timed(|| run_trace(&spec.cfg, &set.trace, &spec.opts));
                let result = run_trace(&spec.cfg, &set.trace, &spec.opts);
                avail_s += timed(|| availability(&spec.cfg, &result.metrics));
                counts.add(&result.metrics);
            }
            (counts, run_s, avail_s)
        }
    };

    let (cfg, trace_refs): (ArrayConfig, Vec<&Trace>) = match &inputs {
        Inputs::Cells { traces, cells, .. } => (cells[0].cfg.clone(), traces.iter().collect()),
        Inputs::Cuts { sets, .. } => (
            sets[0].spec.cfg.clone(),
            sets.iter().map(|s| &s.trace).collect(),
        ),
    };
    let costs = layer_costs(&cfg, &trace_refs);
    let queue_ns = queue_ns_per_op(counts.queue_peak, args.seed);

    let queue_s = counts.events as f64 * queue_ns * 1e-9;
    let disk_s = counts.ios as f64 * costs.ns_per_submit * 1e-9;
    let layout_s = counts.requests as f64 * costs.ns_per_map * 1e-9;
    let integrity_s = counts.verified_units as f64 * costs.ns_per_verify * 1e-9;
    let residual_s = run_s - (queue_s + disk_s + layout_s + integrity_s);

    // The chaos path, per cut. `run_to_cut` at k=0 is the fixed cost
    // every cut pays (controller and shadow construction) before it
    // replays its prefix.
    let cut = match &inputs {
        Inputs::Cuts { sets, .. } => {
            let setup: f64 = sets
                .iter()
                .map(|set| {
                    let spec = &set.spec;
                    set.cuts.len() as f64
                        * timed(|| run_to_cut(&spec.cfg, &set.trace, &spec.opts, 0))
                })
                .sum();
            CutSplit {
                count: inputs.len() as f64,
                setup_s: setup,
                prefix_s: tracer.item_total("driver.run_to_cut") - setup,
                inject_s: tracer.item_total("inject"),
                replay_s: tracer.item_total("recovery.replay"),
                judge_s: tracer.item_total("verdict.judge"),
                total_s: tracer.item_total("cut"),
            }
        }
        Inputs::Cells { .. } => CutSplit::default(),
    };

    // Serde and the cell cache, on the outputs of a traced pass.
    let (encode_s, decode_s, serde_bytes, serde_bad) = serde_layer(args.workload, &last.payloads);
    let cache_dir = out_dir().join(format!(
        "cache-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let (store_s, lookup_s, hit_ratio, cache_bad) =
        cache_layer(&cache_dir, args.seed, &last.payloads);
    failed += serde_bad + cache_bad;

    println!(
        "{}: seed {}, {} items, {} untraced + {} traced passes, {} recorded digests",
        args.workload.name(),
        args.seed,
        inputs.len(),
        untraced.len(),
        traced.len(),
        if gate.has_recorded() {
            "checked against"
        } else {
            "no"
        }
    );
    let whole = if matches!(inputs, Inputs::Cuts { .. }) {
        "the full scenario runs"
    } else {
        "the traced passes"
    };
    print_split(
        &format!("reconciliation of driver.run_s over {whole}:"),
        "= driver.run_s",
        run_s,
        &[
            ("queue.attributed_s", queue_s),
            ("disk.attributed_s", disk_s),
            ("layout.attributed_s", layout_s),
            ("integrity.attributed_s", integrity_s),
            ("controller.residual_s", residual_s),
        ],
    );
    if cut.count > 0.0 {
        let spans = cut.setup_s + cut.prefix_s + cut.replay_s + cut.judge_s + cut.inject_s;
        print_split(
            &format!("reconciliation of the cut spans ({} cuts):", cut.count),
            "= cut spans",
            cut.total_s,
            &[
                ("cut.setup_s", cut.setup_s),
                ("cut.prefix_s", cut.prefix_s),
                ("recovery.replay_s", cut.replay_s),
                ("verdict.judge_s", cut.judge_s),
                ("crash-time injection", cut.inject_s),
                ("unattributed", cut.total_s - spans),
            ],
        );
    }
    println!("tracing.overhead_s {overhead_s:.6} (traced minus untraced wall_s estimate)");

    let spans_path = out_dir().join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match tracer.dump(&spans_path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans.len(),
            spans_path.display()
        ),
        Err(e) => println!("spans: not written ({e})"),
    }

    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    Report::new(
        attempted,
        failed,
        vec![
            m("trace.records", inputs.trace_records() as f64, "count"),
            m("trace.gen_s", trace_gen_s, "s"),
            m("driver.events", counts.events as f64, "count"),
            m("driver.run_s", run_s, "s"),
            m(
                "driver.ns_per_event",
                run_s * 1e9 / counts.events.max(1) as f64,
                "ns",
            ),
            m("driver.queue_peak", counts.queue_peak as f64, "count"),
            m("queue.ns_per_op", queue_ns, "ns"),
            m("queue.attributed_s", queue_s, "s"),
            m("disk.ios", counts.ios as f64, "count"),
            m("disk.ns_per_submit", costs.ns_per_submit, "ns"),
            m("disk.attributed_s", disk_s, "s"),
            m(
                "disk.retry_ratio",
                ratio(counts.retries, counts.ios),
                "ratio",
            ),
            m(
                "disk.background_share",
                ratio(counts.background_ios, counts.ios),
                "ratio",
            ),
            m("layout.maps", counts.requests as f64, "count"),
            m("layout.ns_per_map", costs.ns_per_map, "ns"),
            m("layout.attributed_s", layout_s, "s"),
            m(
                "integrity.verified_units",
                counts.verified_units as f64,
                "count",
            ),
            m("integrity.ns_per_verify", costs.ns_per_verify, "ns"),
            m("integrity.attributed_s", integrity_s, "s"),
            m("shadow.ns_per_parity", costs.ns_per_parity, "ns"),
            m("controller.residual_s", residual_s, "s"),
            m("controller.residual_share", residual_s / run_s, "ratio"),
            m("cut.count", cut.count, "count"),
            m("cut.setup_s", cut.setup_s, "s"),
            m("cut.prefix_s", cut.prefix_s, "s"),
            m("cut.prefix_events", last.prefix_events as f64, "count"),
            m("recovery.replay_s", cut.replay_s, "s"),
            m("verdict.judge_s", cut.judge_s, "s"),
            m("avail.s", avail_s, "s"),
            m("serde.encode_s", encode_s, "s"),
            m("serde.decode_s", decode_s, "s"),
            m("serde.bytes", serde_bytes as f64, "bytes"),
            m("cache.store_s", store_s, "s"),
            m("cache.lookup_s", lookup_s, "s"),
            m("cache.hit_ratio", hit_ratio, "ratio"),
            m("tracing.overhead_s", overhead_s, "s"),
        ],
    )
}

/// The chaos path's time split, from the cut spans.
#[derive(Clone, Copy, Debug, Default)]
struct CutSplit {
    count: f64,
    setup_s: f64,
    prefix_s: f64,
    inject_s: f64,
    replay_s: f64,
    judge_s: f64,
    total_s: f64,
}

/// Prints parts of a total with their shares, then the total.
fn print_split(title: &str, total_name: &str, total: f64, parts: &[(&str, f64)]) {
    println!("{title}");
    let share = |s: f64| if total > 0.0 { 100.0 * s / total } else { 0.0 };
    for (name, s) in parts {
        println!("  {name:<24} {s:>12.6} s {:>6.1} %", share(*s));
    }
    println!("  {total_name:<24} {total:>12.6} s  100.0 %");
}

/// Host seconds to generate the workload's traces once.
fn trace_gen_secs(args: &Args) -> f64 {
    let t = Instant::now();
    black_box(generate_traces(args.workload, args.scale, args.seed));
    t.elapsed().as_secs_f64()
}
