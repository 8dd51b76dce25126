//! `afraid-cli` — run AFRAID simulations and regenerate the paper's
//! tables and figures from the command line.
//!
//! ```text
//! afraid-cli run --workload snake --policy afraid --secs 600
//! afraid-cli run --workload att --policy mttdl:1e8 --fail-disk 2@300 --degraded
//! afraid-cli sweep --secs 120 --jobs 4
//! afraid-cli paper all --secs 1800
//! afraid-cli chaos --scenario rebuild --cuts 500 --jobs 4
//! afraid-cli integrity --secs 60
//! afraid-cli workloads
//! afraid-cli policies
//! ```
//!
//! Everything lives in `afraid_bench::cli`; see its docs for the exit
//! status.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args_os()
        .skip(1)
        .map(|a| a.to_string_lossy().into_owned())
        .collect();
    ExitCode::from(afraid_bench::cli::main(
        &args,
        &mut std::io::stdout().lock(),
    ))
}
