//! `afraid-cli run`: replay one synthetic workload on one array.

use std::io::{self, Write};

use afraid::config::{ArrayConfig, FailSlowConfig};
use afraid::driver::{run_trace, RunOptions};
use afraid::policy::ParityPolicy;
use afraid::report::availability;
use afraid_sim::time::{SimDuration, SimTime};
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

use super::{bad, field, json, Args, CliError, Common, MAX_SECS};

/// A parsed, validated `run` command.
#[derive(Debug)]
pub struct RunArgs {
    /// `--secs`, `--seed` and `--json`.
    pub common: Common,
    /// The workload preset to replay.
    pub workload: WorkloadKind,
    /// The array, valid by [`ArrayConfig::validate`].
    pub cfg: ArrayConfig,
    /// Fault injections, valid by [`RunOptions::validate`].
    pub opts: RunOptions,
}

/// The shared flags `run` takes.
const SHARED: &str = "--secs --seed --json";

/// The `run` flag behind each [`RunOptions`] field that
/// [`RunOptions::validate`] can reject.
const OPTION_FLAGS: [(&str, &str); 2] = [("fail_disk", "--fail-disk"), ("spare_delay", "--spare")];

/// Parses `part` of `raw` as simulated seconds: finite, not negative,
/// and within the `u64` nanosecond range.
fn seconds(flag: &str, raw: &str, part: &str) -> Result<f64, CliError> {
    let s: f64 = field(flag, raw, part)?;
    if (0.0..=MAX_SECS as f64).contains(&s) {
        Ok(s)
    } else {
        Err(bad(
            flag,
            raw,
            format!("'{part}' is not a time in 0..={MAX_SECS} seconds"),
        ))
    }
}

/// Parses a `--policy` spec.
fn policy(flag: &str, raw: &str) -> Result<ParityPolicy, CliError> {
    match raw {
        "raid0" => return Ok(ParityPolicy::NeverRebuild),
        "afraid" => return Ok(ParityPolicy::IdleOnly),
        "raid5" => return Ok(ParityPolicy::AlwaysRaid5),
        "paritylog" => return Ok(ParityPolicy::ParityLogging),
        _ => {}
    }
    if let Some(h) = raw.strip_prefix("mttdl:") {
        let target_hours: f64 = field(flag, raw, h)?;
        if !(target_hours.is_finite() && target_hours > 0.0) {
            return Err(bad(
                flag,
                raw,
                "the MTTDL target must be a positive number of hours",
            ));
        }
        return Ok(ParityPolicy::MttdlTarget { target_hours });
    }
    if let Some(b) = raw.strip_prefix("conservative:") {
        let lag_bound_bytes = field(flag, raw, b)?;
        return Ok(ParityPolicy::Conservative { lag_bound_bytes });
    }
    Err(bad(
        flag,
        raw,
        "want raid0 | afraid | raid5 | paritylog | mttdl:<hours> | conservative:<bytes>",
    ))
}

/// Parses the `run` flags and validates the array and options they
/// describe.
pub(super) fn parse(args: &mut Args) -> Result<RunArgs, CliError> {
    let mut common = Common::new(600);
    let mut workload = WorkloadKind::Snake;
    let mut cfg = ArrayConfig::paper_default(ParityPolicy::IdleOnly);
    let mut opts = RunOptions::default();
    while let Some(flag) = args.next() {
        match flag {
            "--workload" => {
                let raw = args.value(flag)?;
                workload = WorkloadKind::from_name(raw).ok_or_else(|| {
                    bad(flag, raw, "unknown workload (see `afraid-cli workloads`)")
                })?;
            }
            "--policy" => cfg.policy = policy(flag, args.value(flag)?)?,
            "--disks" => cfg.disks = args.parsed(flag)?,
            "--fail-disk" => {
                let raw = args.value(flag)?;
                let (d, s) = raw
                    .split_once('@')
                    .ok_or_else(|| bad(flag, raw, "want <disk>@<seconds>"))?;
                let at = SimTime::from_secs_f64(seconds(flag, raw, s)?);
                opts.fail_disk = Some((field(flag, raw, d)?, at));
            }
            "--fail-nvram" => {
                let raw = args.value(flag)?;
                opts.fail_nvram = Some(SimTime::from_secs_f64(seconds(flag, raw, raw)?));
            }
            "--degraded" => opts.continue_degraded = true,
            "--spare" => {
                let raw = args.value(flag)?;
                opts.spare_delay = Some(SimDuration::from_secs_f64(seconds(flag, raw, raw)?));
            }
            "--scrub" => {
                cfg.scrub.enabled = true;
                cfg.scrub.iops_budget = args.parsed(flag)?;
            }
            "--latent" => cfg.scrub.latent_rate_per_disk_hour = args.parsed(flag)?,
            "--tour" => {
                let raw = args.value(flag)?;
                cfg.scrub.tour_period = SimDuration::from_secs_f64(seconds(flag, raw, raw)?);
            }
            "--transient" => {
                let raw = args.value(flag)?;
                let (p, q) = raw.split_once(':').unwrap_or((raw, "0"));
                cfg.faults.media_error_per_io = field(flag, raw, p)?;
                cfg.faults.timeout_per_io = field(flag, raw, q)?;
            }
            "--fail-slow" => {
                let raw = args.value(flag)?;
                let shape = || bad(flag, raw, "want <disk>@<start>+<window>x<factor>");
                let (d, rest) = raw.split_once('@').ok_or_else(shape)?;
                let (s, rest) = rest.split_once('+').ok_or_else(shape)?;
                let (w, f) = rest.split_once('x').ok_or_else(shape)?;
                cfg.faults.fail_slow = Some(FailSlowConfig {
                    disk: field(flag, raw, d)?,
                    start: SimTime::from_secs_f64(seconds(flag, raw, s)?),
                    duration: SimDuration::from_secs_f64(seconds(flag, raw, w)?),
                    factor: field(flag, raw, f)?,
                });
            }
            "--evict-threshold" => cfg.faults.evict_threshold = args.parsed(flag)?,
            "--corrupt" => {
                let p = args.parsed(flag)?;
                let i = &mut cfg.integrity;
                i.bit_flip_per_read = p;
                i.torn_write_per_io = p;
                i.lost_write_per_io = p;
                i.misdirected_write_per_io = p;
            }
            "--verify-reads" => {
                cfg.integrity.verify_reads = true;
                cfg.integrity.verify_scrub = true;
            }
            _ => common.take(flag, args, SHARED)?,
        }
    }
    cfg.validate().map_err(CliError::Config)?;
    opts.validate(&cfg).map_err(|e| {
        let (field, why) = e.split_once(": ").unwrap_or(("", &e));
        match OPTION_FLAGS.iter().find(|(f, _)| *f == field) {
            Some(&(_, flag)) => bad(flag, args.given(flag), why),
            None => CliError::Config(e.clone()),
        }
    })?;
    Ok(RunArgs {
        common,
        workload,
        cfg,
        opts,
    })
}

/// Runs the workload and prints the result.
pub(super) fn execute(args: &RunArgs, out: &mut dyn Write) -> io::Result<()> {
    let RunArgs {
        common,
        workload,
        cfg,
        opts,
    } = args;
    let (secs, seed) = (common.secs, common.seed);
    // Trace capacity: ~90% of the array's usable space, which --disks
    // changes.
    let unit_sectors = cfg.stripe_unit_bytes / 512;
    let stripes = cfg.disk_model.geometry.capacity_sectors() / unit_sectors;
    let capacity = stripes * u64::from(cfg.n_data()) * cfg.stripe_unit_bytes * 9 / 10;
    let spec = WorkloadSpec::preset(*workload);
    let trace = spec.generate(capacity, SimDuration::from_secs(secs), seed);

    let result = run_trace(cfg, &trace, opts);
    if common.json {
        return json(out, &result);
    }

    let m = &result.metrics;
    writeln!(
        out,
        "workload     {} ({} requests over {:.0}s, seed {seed})",
        spec.name, m.requests, secs
    )?;
    writeln!(
        out,
        "policy       {:?} on {} x {}",
        cfg.policy, cfg.disks, cfg.disk_model.name
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "mean I/O     {:.2} ms (reads {:.2}, writes {:.2})",
        m.mean_io_ms, m.mean_read_ms, m.mean_write_ms
    )?;
    let pcts = |p50: f64, p95: f64, p99: f64| format!("{p50:.2} / {p95:.2} / {p99:.2}");
    let all = pcts(m.p50_io_ms, m.p95_io_ms, m.p99_io_ms);
    let reads = pcts(m.p50_read_ms, m.p95_read_ms, m.p99_read_ms);
    let writes = pcts(m.p50_write_ms, m.p95_write_ms, m.p99_write_ms);
    writeln!(
        out,
        "p50/p95/p99  {all} ms (reads {reads}, writes {writes})"
    )?;
    writeln!(
        out,
        "parity lag   mean {:.1} KB, peak {:.1} KB, unprotected {:.2}% of time",
        m.mean_parity_lag_bytes / 1024.0,
        m.peak_parity_lag_bytes / 1024.0,
        m.frac_unprotected * 100.0
    )?;
    writeln!(out, "disk I/Os    {:?}", m.io)?;
    writeln!(
        out,
        "scrubbing    {} stripes in {} batches",
        m.stripes_scrubbed, m.scrub_batches
    )?;
    if cfg.scrub.enabled || cfg.scrub.latent_rate_per_disk_hour > 0.0 {
        writeln!(
            out,
            "tour scrub   {} tours (mean {:.1}s), {} sectors read, latent {} found / {} repaired",
            m.scrub_tours,
            m.mean_tour_secs,
            m.tour_sectors_read,
            m.latent_detected,
            m.latent_repaired
        )?;
    }
    if cfg.faults.active() {
        let retry = pcts(m.retry_p50_ms, m.retry_p95_ms, m.retry_p99_ms);
        writeln!(
            out,
            "transient    {} media errors, {} timeouts; {} retries (p50/p95/p99 {retry} ms to recover)",
            m.media_errors, m.timeouts, m.retries
        )?;
        writeln!(
            out,
            "             {} exhausted, {} reconstruct-read fallbacks, {} degraded write completions",
            m.io_exhausted, m.reconstruct_fallbacks, m.degraded_completions
        )?;
        if m.evictions > 0 {
            writeln!(
                out,
                "eviction     {} disk(s) evicted, exposure window {:.1}s",
                m.evictions, m.evict_exposure_secs
            )?;
        }
    }
    if cfg.integrity.active() {
        let i = &m.integrity;
        writeln!(
            out,
            "integrity    {} silent faults injected ({} torn, {} lost, {} misdirected, {} victim)",
            i.injected_total(),
            i.injected_torn,
            i.injected_lost,
            i.injected_misdirected,
            i.injected_victim
        )?;
        writeln!(
            out,
            "             {} detected: {} repaired byte-exactly, {} declared; {} erased by overwrite",
            i.detected, i.repaired, i.declared, i.self_healed
        )?;
        writeln!(
            out,
            "             {} silent reads, {} false positives ({} units verified, {} flips re-read)",
            i.silent_reads, i.false_positives, i.verified_units, i.flip_repairs
        )?;
    }
    let avail = availability(cfg, m);
    writeln!(
        out,
        "MTTDL        disk-related {:.2e} h, overall {:.2e} h",
        avail.mttdl_disk, avail.mttdl_overall
    )?;
    for (label, mttdl, mdlr) in [
        ("MTTDL latent", avail.mttdl_latent, avail.mdlr_latent),
        ("MTTDL evict ", avail.mttdl_evict, avail.mdlr_evict),
        ("MTTDL corrupt", avail.mttdl_corrupt, avail.mdlr_corrupt),
    ] {
        if mttdl.is_finite() {
            writeln!(out, "{label} {mttdl:.2e} h ({mdlr:.3} B/h)")?;
        }
    }
    writeln!(
        out,
        "MDLR         disk {:.3} B/h (unprotected part {:.3}), overall {:.0} B/h",
        avail.mdlr_disk, avail.mdlr_unprotected, avail.mdlr_overall
    )?;
    if let Some(loss) = &result.loss {
        writeln!(out)?;
        writeln!(
            out,
            "disk {} failed at {}: {} dirty stripes, {} data units lost ({} bytes)",
            loss.failed_disk, loss.at, loss.dirty_stripes, loss.lost_units, loss.lost_bytes
        )?;
        if loss.latent_lost_units > 0 {
            writeln!(
                out,
                "latent loss  {} units ({} bytes) from undetected sector errors",
                loss.latent_lost_units, loss.latent_lost_bytes
            )?;
        }
    }
    for (what, at) in [
        ("NVRAM-loss sweep completed", result.reprotected_at),
        ("health scoreboard evicted disk", result.evicted_at),
        ("spare rebuild completed", result.rebuilt_at),
    ] {
        if let Some(t) = at {
            writeln!(out, "{what} at {t}")?;
        }
    }
    Ok(())
}
