//! `afraid-cli` — run AFRAID simulations from the command line.
//!
//! ```text
//! afraid-cli run --workload snake --policy afraid --secs 600
//! afraid-cli run --workload att --policy mttdl:1e8 --fail-disk 2@300 --degraded
//! afraid-cli sweep --secs 120 --jobs 4
//! afraid-cli chaos --scenario rebuild --cuts 500 --jobs 4
//! afraid-cli workloads
//! afraid-cli policies
//! ```

use afraid::config::ArrayConfig;
use afraid::driver::{run_trace, RunOptions};
use afraid::policy::ParityPolicy;
use afraid::report::availability;
use afraid_bench::harness;
use afraid_chaos::Scenario;
use afraid_exp::CellCache;
use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};
use std::process::ExitCode;

const USAGE: &str = "\
afraid-cli — AFRAID array simulator (Savage & Wilkes, USENIX 1996)

USAGE:
    afraid-cli run [OPTIONS]     replay a synthetic workload
    afraid-cli sweep [OPTIONS]   run the full workload x policy matrix
    afraid-cli chaos [OPTIONS]   crash the array at many cut points and
                                 verify recovery at every one
    afraid-cli workloads         list workload presets
    afraid-cli policies          list parity policies

CHAOS OPTIONS:
    --scenario <name>     baseline | scrub | rebuild | evict | nvram |
                          corrupt | all (default: all)
    --cuts <n>            cut points per scenario, spread evenly over
                          the run (default: 256)
    --secs <n>            simulated trace duration (default: 5; chaos
                          replays the run once per cut, keep it short)
    --seed <n>            workload seed (default: 42)
    --jobs <n>            worker threads; verdicts are bit-identical at
                          any job count (default: all cores)
    --cache               replay memoised cut verdicts from
                          target/cell-cache
    --no-cache            disable the cell cache (default)
    --json                emit per-scenario summaries as JSON; cache
                          counters then go to stderr
    exits nonzero if any cut fails recovery verification

SWEEP OPTIONS:
    --secs <n>            simulated trace duration (default: 600)
    --seed <n>            workload seed (default: 42)
    --jobs <n>            worker threads; results are bit-identical for
                          any job count (default: all cores)
    --full                run the full Figure 3 policy grid (RAID 5,
                          seven MTTDL_x targets, AFRAID, RAID 0)
                          instead of the three headline designs
    --cache               replay memoised cells from target/cell-cache;
                          results are bit-identical to a fresh run
    --no-cache            disable the cell cache (default)
    --json                emit the matrix as JSON; cache counters then
                          go to stderr so stdout stays byte-comparable
                          between cold and warm runs

RUN OPTIONS:
    --workload <name>     workload preset (default: snake)
    --policy <spec>       raid0 | afraid | raid5 | mttdl:<hours> |
                          conservative:<bytes> (default: afraid)
    --secs <n>            simulated trace duration (default: 600)
    --seed <n>            workload seed (default: 42)
    --disks <n>           spindles in the array (default: 5)
    --fail-disk <d>@<s>   fail disk d at s seconds
    --fail-nvram <s>      fail the marking memory at s seconds
    --degraded            keep running after the disk failure
    --spare <s>           install a spare s seconds after the failure
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
    --json                emit the full result as JSON
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("sweep") => sweep(&args[1..]),
        Some("chaos") => chaos(&args[1..]),
        Some("workloads") => {
            for kind in WorkloadKind::all() {
                let spec = WorkloadSpec::preset(kind);
                println!(
                    "{:<11} ~{:>5.1} req/s, {:>2.0}% writes  {}",
                    spec.name,
                    spec.offered_ios_per_sec(),
                    spec.write_prob * 100.0,
                    spec.description
                );
            }
            ExitCode::SUCCESS
        }
        Some("policies") => {
            println!("raid0                unprotected striping (AFRAID that never scrubs)");
            println!("afraid               baseline AFRAID: defer parity to idle time");
            println!("raid5                traditional always-consistent RAID 5");
            println!("mttdl:<hours>        keep achieved disk MTTDL above the target");
            println!("conservative:<bytes> start as RAID 5, defer once bursts fit the bound");
            ExitCode::SUCCESS
        }
        _ => {
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn parse_policy(s: &str) -> Option<ParityPolicy> {
    match s {
        "raid0" => Some(ParityPolicy::NeverRebuild),
        "afraid" => Some(ParityPolicy::IdleOnly),
        "raid5" => Some(ParityPolicy::AlwaysRaid5),
        _ => {
            if let Some(h) = s.strip_prefix("mttdl:") {
                return h
                    .parse()
                    .ok()
                    .map(|target_hours| ParityPolicy::MttdlTarget { target_hours });
            }
            if let Some(b) = s.strip_prefix("conservative:") {
                return b
                    .parse()
                    .ok()
                    .map(|lag_bound_bytes| ParityPolicy::Conservative { lag_bound_bytes });
            }
            None
        }
    }
}

/// One cell of the sweep matrix, shaped for `--json` output.
#[derive(serde::Serialize)]
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

fn sweep(args: &[String]) -> ExitCode {
    let mut secs = 600u64;
    let mut seed = 42u64;
    let mut jobs = afraid_exp::default_jobs();
    let mut json = false;
    let mut full = false;
    let mut use_cache = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Option<String> {
            let v = it.next().cloned();
            if v.is_none() {
                eprintln!("missing value for {what}");
            }
            v
        };
        match arg.as_str() {
            "--secs" => match value("--secs").and_then(|v| v.parse().ok()) {
                Some(v) => secs = v,
                None => return ExitCode::FAILURE,
            },
            "--seed" => match value("--seed").and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return ExitCode::FAILURE,
            },
            "--jobs" => match value("--jobs").and_then(|v| v.parse().ok()) {
                Some(v) => jobs = v,
                None => return ExitCode::FAILURE,
            },
            "--full" => full = true,
            "--cache" => use_cache = true,
            "--no-cache" => use_cache = false,
            "--json" => json = true,
            other => {
                eprintln!("unknown option '{other}'");
                eprint!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let policies = if full {
        harness::policy_sweep()
    } else {
        harness::headline_designs()
    };
    let cfg = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
    let unit_sectors = cfg.stripe_unit_bytes / 512;
    let stripes = cfg.disk_model.geometry.capacity_sectors() / unit_sectors;
    let capacity = stripes * u64::from(cfg.n_data()) * cfg.stripe_unit_bytes * 9 / 10;

    let kinds = WorkloadKind::all();
    let duration = SimDuration::from_secs(secs);
    let cache = use_cache.then(|| CellCache::new(CellCache::default_dir(), harness::RESULT_SCHEMA));
    let traces = afraid_exp::generate_traces(jobs, &kinds, capacity, duration, seed);
    let rows = harness::run_cells_cached(
        jobs,
        &kinds,
        &traces,
        capacity,
        duration,
        seed,
        &policies,
        cache.as_ref(),
    );

    let mut cells = Vec::new();
    for (kind, row) in kinds.iter().zip(&rows) {
        for ((name, _), cell) in policies.iter().zip(row) {
            cells.push(SweepRow {
                workload: kind.name().to_string(),
                policy: name.to_string(),
                mean_io_ms: cell.result.metrics.mean_io_ms,
                p95_io_ms: cell.result.metrics.p95_io_ms,
                frac_unprotected: cell.result.metrics.frac_unprotected,
                mttdl_disk_hours: cell.avail.mttdl_disk,
                mttdl_overall_hours: cell.avail.mttdl_overall,
                events_processed: cell.result.metrics.events_processed,
            });
        }
    }

    if json {
        match serde_json::to_string_pretty(&cells) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("serialisation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        // Counters go to stderr: stdout stays a pure cells array, so
        // cold and warm runs can be compared byte-for-byte.
        if let Some(c) = &cache {
            match serde_json::to_string(&c.stats()) {
                Ok(s) => eprintln!("{s}"),
                Err(e) => {
                    eprintln!("cache stats serialisation failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    println!("Sweep: {secs}s traces, seed {seed}, jobs {jobs}");
    println!();
    let header = format!(
        "{:<11} {:<8} {:>12} {:>10} {:>9} {:>13} {:>14}",
        "workload", "policy", "mean io ms", "p95 ms", "unprot%", "MTTDL disk h", "MTTDL all h"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
    for c in &cells {
        println!(
            "{:<11} {:<8} {:>12.2} {:>10.2} {:>8.1}% {:>13.2e} {:>14.2e}",
            c.workload,
            c.policy,
            c.mean_io_ms,
            c.p95_io_ms,
            c.frac_unprotected * 100.0,
            c.mttdl_disk_hours,
            c.mttdl_overall_hours,
        );
    }
    if let Some(c) = &cache {
        println!();
        println!("{}", c.stats().summary());
    }
    ExitCode::SUCCESS
}

fn chaos(args: &[String]) -> ExitCode {
    let mut secs = 5u64;
    let mut seed = 42u64;
    let mut cuts_n = 256usize;
    let mut jobs = afraid_exp::default_jobs();
    let mut scenarios: Vec<Scenario> = Scenario::ALL.to_vec();
    let mut use_cache = false;
    let mut json = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Option<String> {
            let v = it.next().cloned();
            if v.is_none() {
                eprintln!("missing value for {what}");
            }
            v
        };
        match arg.as_str() {
            "--secs" => match value("--secs").and_then(|v| v.parse().ok()) {
                Some(v) => secs = v,
                None => return ExitCode::FAILURE,
            },
            "--seed" => match value("--seed").and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return ExitCode::FAILURE,
            },
            "--cuts" => match value("--cuts").and_then(|v| v.parse().ok()) {
                Some(v) => cuts_n = v,
                None => return ExitCode::FAILURE,
            },
            "--jobs" => match value("--jobs").and_then(|v| v.parse().ok()) {
                Some(v) => jobs = v,
                None => return ExitCode::FAILURE,
            },
            "--scenario" => {
                let Some(v) = value("--scenario") else {
                    return ExitCode::FAILURE;
                };
                if v == "all" {
                    scenarios = Scenario::ALL.to_vec();
                } else {
                    match Scenario::parse(&v) {
                        Some(sc) => scenarios = vec![sc],
                        None => {
                            eprintln!(
                                "unknown scenario '{v}' (want all {})",
                                Scenario::ALL.map(|s| s.name()).join(" ")
                            );
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            "--cache" => use_cache = true,
            "--no-cache" => use_cache = false,
            "--json" => json = true,
            other => {
                eprintln!("unknown option '{other}'");
                eprint!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let duration = SimDuration::from_secs(secs);
    let cache =
        use_cache.then(|| CellCache::new(CellCache::default_dir(), afraid_chaos::CHAOS_SCHEMA));
    let mut summaries = Vec::new();
    for sc in &scenarios {
        let spec = sc.spec(duration, seed);
        let trace = spec.trace();
        let total = spec.total_events(&trace);
        let cuts = afraid_chaos::cut_points(total, cuts_n);
        let verdicts = afraid_chaos::sweep(&spec, &trace, &cuts, jobs, cache.as_ref());
        summaries.push(afraid_chaos::summarize(sc.name(), &verdicts));
    }
    let all_passed = summaries.iter().all(|s| s.failed == 0);

    if json {
        match serde_json::to_string_pretty(&summaries) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("serialisation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        // Counters go to stderr so cold and warm stdout stay
        // byte-comparable (same convention as `sweep --json`).
        if let Some(c) = &cache {
            match serde_json::to_string(&c.stats()) {
                Ok(s) => eprintln!("{s}"),
                Err(e) => {
                    eprintln!("cache stats serialisation failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    } else {
        println!("Chaos: {secs}s traces, seed {seed}, jobs {jobs}, {cuts_n} cuts per scenario");
        println!();
        let header = format!(
            "{:<9} {:>6} {:>6} {:>8} {:>8} {:>9} {:>9}",
            "scenario", "cuts", "failed", "scrubbed", "reconst", "declared", "true-lost"
        );
        println!("{header}");
        println!("{}", "-".repeat(header.len()));
        for s in &summaries {
            println!(
                "{:<9} {:>6} {:>6} {:>8} {:>8} {:>9} {:>9}",
                s.scenario,
                s.cuts,
                s.failed,
                s.scrubbed,
                s.reconstructed,
                s.declared_lost_units,
                s.truly_lost_units,
            );
            if let Some(f) = &s.first_failure {
                println!("  FIRST FAILURE: {f}");
            }
        }
        if let Some(c) = &cache {
            println!();
            println!("{}", c.stats().summary());
        }
    }
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &[String]) -> ExitCode {
    let mut workload = WorkloadKind::Snake;
    let mut policy = ParityPolicy::IdleOnly;
    let mut secs = 600u64;
    let mut seed = 42u64;
    let mut disks = 5u32;
    let mut opts = RunOptions::default();
    let mut json = false;
    let mut scrub = afraid::config::ScrubConfig::default();
    let mut faults = afraid::config::FaultConfig::default();
    let mut integrity = afraid::config::IntegrityConfig::default();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Option<String> {
            let v = it.next().cloned();
            if v.is_none() {
                eprintln!("missing value for {what}");
            }
            v
        };
        match arg.as_str() {
            "--workload" => {
                let Some(v) = value("--workload") else {
                    return ExitCode::FAILURE;
                };
                match WorkloadKind::from_name(&v) {
                    Some(k) => workload = k,
                    None => {
                        eprintln!("unknown workload '{v}' (see `afraid-cli workloads`)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--policy" => {
                let Some(v) = value("--policy") else {
                    return ExitCode::FAILURE;
                };
                match parse_policy(&v) {
                    Some(p) => policy = p,
                    None => {
                        eprintln!("unknown policy '{v}' (see `afraid-cli policies`)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--secs" => match value("--secs").and_then(|v| v.parse().ok()) {
                Some(v) => secs = v,
                None => return ExitCode::FAILURE,
            },
            "--seed" => match value("--seed").and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return ExitCode::FAILURE,
            },
            "--disks" => match value("--disks").and_then(|v| v.parse().ok()) {
                Some(v) => disks = v,
                None => return ExitCode::FAILURE,
            },
            "--fail-disk" => {
                let Some(v) = value("--fail-disk") else {
                    return ExitCode::FAILURE;
                };
                let Some((d, s)) = v.split_once('@') else {
                    eprintln!("--fail-disk wants <disk>@<seconds>, got '{v}'");
                    return ExitCode::FAILURE;
                };
                match (d.parse(), s.parse::<f64>()) {
                    (Ok(d), Ok(s)) => {
                        opts.fail_disk = Some((d, SimTime::from_secs_f64(s)));
                    }
                    _ => {
                        eprintln!("--fail-disk wants <disk>@<seconds>, got '{v}'");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--fail-nvram" => match value("--fail-nvram").and_then(|v| v.parse::<f64>().ok()) {
                Some(s) => opts.fail_nvram = Some(SimTime::from_secs_f64(s)),
                None => return ExitCode::FAILURE,
            },
            "--degraded" => opts.continue_degraded = true,
            "--spare" => match value("--spare").and_then(|v| v.parse::<f64>().ok()) {
                Some(s) => opts.spare_delay = Some(SimDuration::from_secs_f64(s)),
                None => return ExitCode::FAILURE,
            },
            "--scrub" => match value("--scrub").and_then(|v| v.parse::<f64>().ok()) {
                Some(iops) => {
                    scrub.enabled = true;
                    scrub.iops_budget = iops;
                }
                None => return ExitCode::FAILURE,
            },
            "--latent" => match value("--latent").and_then(|v| v.parse::<f64>().ok()) {
                Some(rate) => scrub.latent_rate_per_disk_hour = rate,
                None => return ExitCode::FAILURE,
            },
            "--tour" => match value("--tour").and_then(|v| v.parse::<f64>().ok()) {
                Some(s) => scrub.tour_period = SimDuration::from_secs_f64(s),
                None => return ExitCode::FAILURE,
            },
            "--transient" => {
                let Some(v) = value("--transient") else {
                    return ExitCode::FAILURE;
                };
                let (p, q) = match v.split_once(':') {
                    Some((p, q)) => (p.parse::<f64>(), q.parse::<f64>()),
                    None => (v.parse::<f64>(), Ok(0.0)),
                };
                match (p, q) {
                    (Ok(p), Ok(q)) => {
                        faults.media_error_per_io = p;
                        faults.timeout_per_io = q;
                    }
                    _ => {
                        eprintln!("--transient wants <p>[:<q>], got '{v}'");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--fail-slow" => {
                let Some(v) = value("--fail-slow") else {
                    return ExitCode::FAILURE;
                };
                let parsed = v.split_once('@').and_then(|(d, rest)| {
                    let (s, rest) = rest.split_once('+')?;
                    let (w, f) = rest.split_once('x')?;
                    Some((
                        d.parse::<u32>().ok()?,
                        s.parse::<f64>().ok()?,
                        w.parse::<f64>().ok()?,
                        f.parse::<f64>().ok()?,
                    ))
                });
                match parsed {
                    Some((disk, start, window, factor)) => {
                        faults.fail_slow = Some(afraid::config::FailSlowConfig {
                            disk,
                            start: SimTime::from_secs_f64(start),
                            duration: SimDuration::from_secs_f64(window),
                            factor,
                        });
                    }
                    None => {
                        eprintln!("--fail-slow wants <disk>@<start>+<window>x<factor>, got '{v}'");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--evict-threshold" => {
                match value("--evict-threshold").and_then(|v| v.parse::<f64>().ok()) {
                    Some(t) => faults.evict_threshold = t,
                    None => return ExitCode::FAILURE,
                }
            }
            "--corrupt" => match value("--corrupt").and_then(|v| v.parse::<f64>().ok()) {
                Some(p) => {
                    integrity.bit_flip_per_read = p;
                    integrity.torn_write_per_io = p;
                    integrity.lost_write_per_io = p;
                    integrity.misdirected_write_per_io = p;
                }
                None => return ExitCode::FAILURE,
            },
            "--verify-reads" => {
                integrity.verify_reads = true;
                integrity.verify_scrub = true;
            }
            "--json" => json = true,
            other => {
                eprintln!("unknown option '{other}'");
                eprint!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut cfg = ArrayConfig::paper_default(policy);
    cfg.disks = disks;
    cfg.scrub = scrub;
    cfg.faults = faults;
    cfg.integrity = integrity;
    // Checksums are kept against the intended contents, so injection
    // and verification both need the shadow content model.
    if cfg.integrity.active() {
        cfg.shadow = true;
    }
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        return ExitCode::FAILURE;
    }

    // Trace capacity: ~90% of the array's usable space.
    let unit_sectors = cfg.stripe_unit_bytes / 512;
    let stripes = cfg.disk_model.geometry.capacity_sectors() / unit_sectors;
    let capacity = stripes * u64::from(cfg.n_data()) * cfg.stripe_unit_bytes * 9 / 10;
    let spec = WorkloadSpec::preset(workload);
    let trace = spec.generate(capacity, SimDuration::from_secs(secs), seed);

    let result = run_trace(&cfg, &trace, &opts);
    if json {
        match serde_json::to_string_pretty(&result) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("serialisation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    let m = &result.metrics;
    println!(
        "workload     {} ({} requests over {:.0}s, seed {seed})",
        spec.name, m.requests, secs
    );
    println!(
        "policy       {policy:?} on {disks} x {}",
        cfg.disk_model.name
    );
    println!();
    println!(
        "mean I/O     {:.2} ms (reads {:.2}, writes {:.2})",
        m.mean_io_ms, m.mean_read_ms, m.mean_write_ms
    );
    println!(
        "p50/p95/p99  {:.2} / {:.2} / {:.2} ms (reads {:.2} / {:.2} / {:.2}, writes {:.2} / {:.2} / {:.2})",
        m.p50_io_ms,
        m.p95_io_ms,
        m.p99_io_ms,
        m.p50_read_ms,
        m.p95_read_ms,
        m.p99_read_ms,
        m.p50_write_ms,
        m.p95_write_ms,
        m.p99_write_ms
    );
    println!(
        "parity lag   mean {:.1} KB, peak {:.1} KB, unprotected {:.2}% of time",
        m.mean_parity_lag_bytes / 1024.0,
        m.peak_parity_lag_bytes / 1024.0,
        m.frac_unprotected * 100.0
    );
    println!("disk I/Os    {:?}", m.io);
    println!(
        "scrubbing    {} stripes in {} batches",
        m.stripes_scrubbed, m.scrub_batches
    );
    if cfg.scrub.enabled || cfg.scrub.latent_rate_per_disk_hour > 0.0 {
        println!(
            "tour scrub   {} tours (mean {:.1}s), {} sectors read, latent {} found / {} repaired",
            m.scrub_tours,
            m.mean_tour_secs,
            m.tour_sectors_read,
            m.latent_detected,
            m.latent_repaired
        );
    }
    if cfg.faults.active() {
        println!(
            "transient    {} media errors, {} timeouts; {} retries (p50/p95/p99 {:.2} / {:.2} / {:.2} ms to recover)",
            m.media_errors, m.timeouts, m.retries, m.retry_p50_ms, m.retry_p95_ms, m.retry_p99_ms
        );
        println!(
            "             {} exhausted, {} reconstruct-read fallbacks, {} degraded write completions",
            m.io_exhausted, m.reconstruct_fallbacks, m.degraded_completions
        );
        if m.evictions > 0 {
            println!(
                "eviction     {} disk(s) evicted, exposure window {:.1}s",
                m.evictions, m.evict_exposure_secs
            );
        }
    }
    if cfg.integrity.active() {
        let i = &m.integrity;
        println!(
            "integrity    {} silent faults injected ({} torn, {} lost, {} misdirected, {} victim)",
            i.injected_total(),
            i.injected_torn,
            i.injected_lost,
            i.injected_misdirected,
            i.injected_victim
        );
        println!(
            "             {} detected: {} repaired byte-exactly, {} declared; {} erased by overwrite",
            i.detected, i.repaired, i.declared, i.self_healed
        );
        println!(
            "             {} silent reads, {} false positives ({} units verified, {} flips re-read)",
            i.silent_reads, i.false_positives, i.verified_units, i.flip_repairs
        );
    }
    let avail = availability(&cfg, m);
    println!(
        "MTTDL        disk-related {:.2e} h, overall {:.2e} h",
        avail.mttdl_disk, avail.mttdl_overall
    );
    if avail.mttdl_latent.is_finite() {
        println!(
            "MTTDL latent {:.2e} h ({:.3} B/h)",
            avail.mttdl_latent, avail.mdlr_latent
        );
    }
    if avail.mttdl_evict.is_finite() {
        println!(
            "MTTDL evict  {:.2e} h ({:.3} B/h)",
            avail.mttdl_evict, avail.mdlr_evict
        );
    }
    if avail.mttdl_corrupt.is_finite() {
        println!(
            "MTTDL corrupt {:.2e} h ({:.3} B/h)",
            avail.mttdl_corrupt, avail.mdlr_corrupt
        );
    }
    println!(
        "MDLR         disk {:.3} B/h (unprotected part {:.3}), overall {:.0} B/h",
        avail.mdlr_disk, avail.mdlr_unprotected, avail.mdlr_overall
    );
    if let Some(loss) = &result.loss {
        println!();
        println!(
            "disk {} failed at {}: {} dirty stripes, {} data units lost ({} bytes)",
            loss.failed_disk, loss.at, loss.dirty_stripes, loss.lost_units, loss.lost_bytes
        );
        if loss.latent_lost_units > 0 {
            println!(
                "latent loss  {} units ({} bytes) from undetected sector errors",
                loss.latent_lost_units, loss.latent_lost_bytes
            );
        }
    }
    if let Some(t) = result.reprotected_at {
        println!("NVRAM-loss sweep completed at {t}");
    }
    if let Some(t) = result.evicted_at {
        println!("health scoreboard evicted disk at {t}");
    }
    if let Some(t) = result.rebuilt_at {
        println!("spare rebuild completed at {t}");
    }
    ExitCode::SUCCESS
}
