//! `perf`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perf --workload <bulk-place|churn|serve|recover> [--seed N] [--seconds S]
//!      [--trace 0|1] [--smoke] [--out DIR]
//! ```
//!
//! The last line of standard output is the result, `{"correct",
//! "attempted", "failed", "metrics"}`: the end-to-end metrics, or with
//! `--trace 1` the per-layer ones. The line before it is the full record
//! (provenance and each metric's spread). Exit status: 0 when every check
//! passed, 1 when a check failed (the result is still printed) or an
//! operation failed (nothing is printed), 2 on bad arguments.

use cubefit_perfbench::run::{run, Options};
use cubefit_perfbench::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perf --workload <bulk-place|churn|serve|recover> [--seed N] \
                     [--seconds S] [--trace 0|1] [--smoke] [--out DIR]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: Workload::BulkPlace,
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            options.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => options.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            "--out" => options.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(outcome) => {
            for failure in &outcome.failures {
                eprintln!("perf: check failed: {failure}");
            }
            println!("{}", outcome.record);
            println!("{}", outcome.result);
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perf: {} failed: {e}", options.workload.name());
            ExitCode::FAILURE
        }
    }
}
