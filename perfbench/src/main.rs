//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <calibrate|dse|dnn_eval|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a manifest line (machine, seed, digest, statistics) and, as the
//! last line, `{"correct", "attempted", "failed", "metrics"}`.  Exits 1
//! when any operation failed and 2 on a usage error.

use perfbench::runner::{self, json_number, Options, Outcome};
use perfbench::workloads::calibrate::Calibrate;
use perfbench::workloads::dnn_eval::DnnEval;
use perfbench::workloads::dse::Dse;
use perfbench::workloads::serve::Serve;
use perfbench::{BenchError, Config};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <calibrate|dse|dnn_eval|serve> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let parsed = value.parse::<f64>().ok();
                seconds = Some(
                    parsed
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = Config {
        seed: args.seed,
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        tiny: false,
    };
    let options = Options {
        seconds: args.seconds,
        trace: args.trace,
        out_dir: PathBuf::from(".bench_build").join("perfbench"),
    };
    let result: Result<Outcome, BenchError> = match args.workload.as_str() {
        "calibrate" => runner::run::<Calibrate>(&config, &options),
        "dse" => runner::run::<Dse>(&config, &options),
        "dnn_eval" => runner::run::<DnnEval>(&config, &options),
        "serve" => runner::run::<Serve>(&config, &options),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(outcome) => {
            let manifest: Vec<String> = outcome
                .manifest
                .iter()
                .map(|(key, value)| format!("\"{key}\": {value}"))
                .collect();
            println!("{{\"manifest\": {{{}}}}}", manifest.join(", "));
            for error in &outcome.errors {
                eprintln!("failed: {error}");
            }
            println!("{}", result_line(&outcome));
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(err) => {
            eprintln!("set-up failed: {err}");
            ExitCode::from(1)
        }
    }
}
