//! Benchmark command line.
//!
//! ```text
//! perfbench --workload <serve-attack|serve-bare|serve-sharded|dfz-churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints facts about the run and the correctness gates on stderr, and
//! the result as one JSON object on the last line of stdout. Exits 1
//! when a correctness gate fails, 2 on a usage error. A traced run
//! writes its spans to `.bench_trace/<workload>-seed<n>.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{run, Options, Size, Workload};

const USAGE: &str =
    "usage: perfbench --workload <serve-attack|serve-bare|serve-sharded|dfz-churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::ServeAttack,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        trace_dir: Some(PathBuf::from(".bench_trace")),
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for (key, value) in &report.facts {
        eprintln!("{key}: {value}");
    }
    for v in &report.violations {
        eprintln!("GATE FAILED: {v}");
    }
    println!("{}", report.to_json());
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
