//! Trace explorer: characterise the nine synthetic workloads the way
//! \[Ruemmler93\] characterised the originals — rates, write fractions,
//! and above all burstiness (AFRAID's entire premise is that idle
//! time exists to scrub in).
//!
//! Run with: `cargo run --release --example trace_explorer`

use afraid_sim::time::SimDuration;
use afraid_trace::analysis::TraceProfile;
use afraid_trace::workloads::{WorkloadKind, WorkloadSpec};

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
