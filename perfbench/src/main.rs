//! QuClassi benchmark: end-to-end metrics (`--trace 0`) or the per-layer
//! ledger (`--trace 1`) of one workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire_iris --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the JSON result. The exit code is
//! 1 when any answer was wrong and 2 on a usage or run error.

mod data;
mod ledger;
mod openloop;
mod report;
mod serving;
mod stats;
mod workload;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        let names: Vec<_> = workload::specs().iter().map(|s| s.name).collect();
        eprintln!("unknown workload {:?}; known: {names:?}", args.workload);
        return ExitCode::from(2);
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {} on {} cores\n{:?}\n{:?}\nbatch executor threads {}",
        spec.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        quclassi_serve::ServeConfig::default(),
        quclassi_serve::WireConfig::default(),
        serving::default_executor().threads(),
    );
    let result = if args.trace {
        ledger::run_traced(&spec, args.seed, args.seconds)
    } else {
        workload::run_timed(&spec, args.seed, args.seconds)
    };
    match result {
        Ok(report) => {
            print!("{}", report.table());
            println!("{}", report.json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::from(2)
        }
    }
}
