//! `afraid-benchmark --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`: prints a human-readable summary and, as its last
//! line, one JSON result object. Exits nonzero when an output fails
//! the correctness gate or the arguments are bad.

use std::process::ExitCode;

use afraid_benchmark::layers::run_traced;
use afraid_benchmark::run::{parse_args, record_digests, run_untraced, Command, USAGE};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(Command::Run(args)) => {
            let report = if args.trace {
                run_traced(&args)
            } else {
                run_untraced(&args)
            };
            print!("{}", report.table());
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(Command::RecordDigests { first, last }) => {
            record_digests(first, last);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
