//! Trace explorer: characterise the nine synthetic workloads the way
//! \[Ruemmler93\] characterised the originals — rates, write fractions,
//! and above all burstiness (AFRAID's entire premise is that idle
//! time exists to scrub in).
//!
//! [`TraceProfile`] condenses a trace into the numbers that matter for
//! AFRAID: offered load, write fraction, request-size mix, and — above
//! all — the idle-time structure, because idle periods are where parity
//! gets rebuilt. "Real-life workloads really are bursty" is one of the
//! paper's stated lessons; the idle fraction is how this reproduction
//! checks its synthetic traces honour that.
//!
//! Run with: `cargo run --release --example trace_explorer`; its unit
//! tests run under `cargo test`.

use afraid_sim::hash::U64Set;
use afraid_sim::stats::OnlineStats;
use afraid_sim::time::SimDuration;
use afraid_trace::record::{ReqKind, Trace};
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

/// Summary statistics for one trace.
#[cfg_attr(
    not(test),
    expect(
        dead_code,
        reason = "the table prints a subset; the tests read every field"
    )
)]
struct TraceProfile {
    /// Trace name.
    name: String,
    /// Number of requests.
    requests: u64,
    /// Reads.
    reads: u64,
    /// Writes.
    writes: u64,
    /// Trace span, first to last arrival.
    span: SimDuration,
    /// Mean request rate over the span (requests/s).
    rate: f64,
    /// Fraction of requests that are writes.
    write_fraction: f64,
    /// Mean request size in bytes.
    mean_bytes: f64,
    /// Total bytes transferred.
    total_bytes: u64,
    /// Approximate footprint: number of distinct 1 MB regions touched,
    /// in bytes.
    footprint_bytes: u64,
    /// Coefficient of variation of inter-arrival times (1 ≈ Poisson,
    /// larger = burstier).
    interarrival_cov: f64,
    /// Idle periods: gaps between consecutive arrivals exceeding the
    /// threshold used at construction.
    idle_periods: u64,
    /// Total idle time across those periods.
    idle_time: SimDuration,
    /// `idle_time / span`.
    idle_fraction: f64,
    /// Mean idle-period length.
    mean_idle: SimDuration,
}

impl TraceProfile {
    /// Profiles a trace, counting as "idle" any inter-arrival gap of at
    /// least `idle_threshold` (the AFRAID idle detector's 100 ms is the
    /// natural choice).
    fn new(trace: &Trace, idle_threshold: SimDuration) -> TraceProfile {
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut bytes = OnlineStats::new();
        let mut regions = U64Set::default();
        for r in &trace.records {
            match r.kind {
                ReqKind::Read => reads += 1,
                ReqKind::Write => writes += 1,
            }
            bytes.record(r.bytes as f64);
            let first = r.offset >> 20;
            let last = (r.offset + r.bytes - 1) >> 20;
            for region in first..=last {
                regions.insert(region);
            }
        }

        let mut inter = OnlineStats::new();
        let mut idle_periods = 0u64;
        let mut idle_time = SimDuration::ZERO;
        for w in trace.records.windows(2) {
            let gap = w[1].time.since(w[0].time);
            inter.record(gap.as_secs_f64());
            if gap >= idle_threshold {
                idle_periods += 1;
                idle_time += gap;
            }
        }

        let span = trace.span();
        let requests = trace.records.len() as u64;
        let rate = if span.is_zero() {
            0.0
        } else {
            requests as f64 / span.as_secs_f64()
        };
        let cov = if inter.mean() > 0.0 {
            inter.std_dev() / inter.mean()
        } else {
            0.0
        };
        TraceProfile {
            name: trace.name.clone(),
            requests,
            reads,
            writes,
            span,
            rate,
            write_fraction: trace.write_fraction(),
            mean_bytes: bytes.mean(),
            total_bytes: trace.total_bytes(),
            footprint_bytes: (regions.len() as u64) << 20,
            interarrival_cov: cov,
            idle_periods,
            idle_time,
            idle_fraction: if span.is_zero() {
                0.0
            } else {
                idle_time.as_secs_f64() / span.as_secs_f64()
            },
            mean_idle: if idle_periods == 0 {
                SimDuration::ZERO
            } else {
                idle_time / idle_periods
            },
        }
    }
}

fn main() {
    let capacity = 7 * 1024 * 1024 * 1024;
    let duration = SimDuration::from_secs(600);
    // The AFRAID idle detector's threshold: gaps at least this long
    // are scrubbing opportunities.
    let idle_threshold = SimDuration::from_millis(100);

    println!(
        "{:<11} {:>8} {:>8} {:>8} {:>9} {:>7} {:>9} {:>9}",
        "workload", "reqs", "rate/s", "write%", "mean KB", "CoV", "idle%", "mean idle"
    );
    for kind in WorkloadKind::all() {
        let spec = WorkloadSpec::preset(kind);
        let trace = spec.generate(capacity, duration, 42);
        let p = TraceProfile::new(&trace, idle_threshold);
        println!(
            "{:<11} {:>8} {:>8.1} {:>7.0}% {:>9.1} {:>7.2} {:>8.1}% {:>8.2}s",
            p.name,
            p.requests,
            p.rate,
            p.write_fraction * 100.0,
            p.mean_bytes / 1024.0,
            p.interarrival_cov,
            p.idle_fraction * 100.0,
            p.mean_idle.as_secs_f64(),
        );
    }
    println!();
    println!("CoV > 1 means burstier than Poisson; idle% is time inside gaps >= 100 ms —");
    println!("the windows AFRAID scrubs in. Note how even the 'busy' traces keep idle time.");
}

#[cfg(test)]
mod tests {
    use super::*;
    use afraid_sim::time::SimTime;
    use afraid_trace::record::IoRecord;

    fn burst_trace() -> Trace {
        // Two bursts of 3 requests 1 ms apart, separated by a 1 s gap.
        let mut t = Trace::new("bursts", 1 << 30);
        let mut push = |ms: u64, kind| {
            t.push(IoRecord {
                time: SimTime::from_millis(ms),
                offset: 0,
                bytes: 4096,
                kind,
            })
        };
        for ms in [0, 1, 2, 1002, 1003, 1004] {
            push(
                ms,
                if ms % 2 == 0 {
                    ReqKind::Read
                } else {
                    ReqKind::Write
                },
            );
        }
        t
    }

    #[test]
    fn counts_and_rates() {
        let p = TraceProfile::new(&burst_trace(), SimDuration::from_millis(100));
        assert_eq!(p.requests, 6);
        assert_eq!(p.reads + p.writes, 6);
        assert_eq!(p.span, SimDuration::from_millis(1004));
        assert!((p.rate - 6.0 / 1.004).abs() < 0.01);
        assert_eq!(p.mean_bytes, 4096.0);
        assert_eq!(p.total_bytes, 6 * 4096);
    }

    #[test]
    fn idle_detection() {
        let p = TraceProfile::new(&burst_trace(), SimDuration::from_millis(100));
        assert_eq!(p.idle_periods, 1);
        assert_eq!(p.idle_time, SimDuration::from_millis(1000));
        assert!((p.idle_fraction - 1000.0 / 1004.0).abs() < 1e-9);
        assert_eq!(p.mean_idle, SimDuration::from_secs(1));
    }

    #[test]
    fn threshold_sensitivity() {
        // With a 2 s threshold the 1 s gap no longer counts as idle.
        let p = TraceProfile::new(&burst_trace(), SimDuration::from_secs(2));
        assert_eq!(p.idle_periods, 0);
        assert_eq!(p.mean_idle, SimDuration::ZERO);
    }

    #[test]
    fn footprint_counts_regions() {
        let mut t = Trace::new("fp", 1 << 30);
        t.push(IoRecord {
            time: SimTime::ZERO,
            offset: 0,
            bytes: 4096,
            kind: ReqKind::Read,
        });
        t.push(IoRecord {
            time: SimTime::from_millis(1),
            offset: 10 << 20,
            bytes: 4096,
            kind: ReqKind::Read,
        });
        // A request spanning a 1 MB boundary touches two regions.
        t.push(IoRecord {
            time: SimTime::from_millis(2),
            offset: (20 << 20) - 2048,
            bytes: 4096,
            kind: ReqKind::Read,
        });
        let p = TraceProfile::new(&t, SimDuration::from_millis(100));
        assert_eq!(p.footprint_bytes, 4 << 20);
    }

    #[test]
    fn empty_trace_profile() {
        let t = Trace::new("empty", 1 << 20);
        let p = TraceProfile::new(&t, SimDuration::from_millis(100));
        assert_eq!(p.requests, 0);
        assert_eq!(p.rate, 0.0);
        assert_eq!(p.idle_fraction, 0.0);
    }

    #[test]
    fn bursty_workloads_show_high_idle_fraction() {
        // The paper's premise: bursty traces leave most wall-clock time
        // idle. hplajw must show large idle fraction; att small.
        let cap = 8u64 << 30;
        let dur = SimDuration::from_secs(300);
        let hplajw = WorkloadSpec::preset(WorkloadKind::Hplajw).generate(cap, dur, 1);
        let att = WorkloadSpec::preset(WorkloadKind::Att).generate(cap, dur, 1);
        let ph = TraceProfile::new(&hplajw, SimDuration::from_millis(100));
        let pa = TraceProfile::new(&att, SimDuration::from_millis(100));
        assert!(
            ph.idle_fraction > 0.8,
            "hplajw idle fraction {}",
            ph.idle_fraction
        );
        assert!(pa.idle_fraction < ph.idle_fraction);
        assert!(
            ph.interarrival_cov > 1.5,
            "hplajw CoV {}",
            ph.interarrival_cov
        );
    }
}
