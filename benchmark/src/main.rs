//! `anomex-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a details line, then one JSON line with every metric; exits
//! non-zero without a result when the run cannot be measured or fails
//! its correctness gate.

use std::process::ExitCode;

use anomex_e2e_bench::{run, Args};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(output) => {
            println!("details: {}", output.details_line());
            println!("{}", output.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
