//! `optima` — the multiplexed experiment runner.
//!
//! One binary drives every registered paper experiment:
//!
//! ```text
//! optima list                                   # enumerate the registry
//! optima run fig5_pvt --profile fast            # one experiment, text output
//! optima run --all --profile fast --json reports/
//! optima design-md                              # regenerate DESIGN.md
//! ```
//!
//! `run` executes the requested experiments in registry order, prints each
//! text report to stdout and (with `--json DIR`) writes one structured JSON
//! report per experiment.  The process exits non-zero when **any**
//! experiment fails or returns an empty report — every remaining experiment
//! still runs, so one broken figure cannot hide another.

use optima_bench::experiments::{self, BenchError, Experiment, ExperimentContext, Profile};
use optima_bench::json::Json;
use optima_circuit::array::ArrayConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "\
optima — unified runner for the paper's figure/table/ablation experiments

USAGE:
    optima list                      list every registered experiment
    optima run [NAME]... [OPTIONS]   run experiments (in registry order)
    optima design-md                 print the generated DESIGN.md index

OPTIONS (run):
    --all                 run every registered experiment
    --profile fast|full   execution profile (default full)
    --seed N              base RNG seed (default 42)
    --threads N           sweep-engine worker threads (default 0 = auto)
    --json DIR            additionally write DIR/<name>.json per experiment

ARRAY GEOMETRY (run; default: the paper's 16x4 INT4 macro):
    --operand-bits N      logical operand width, 1..=8 (widths beyond the
                          4-bit analog slice are composed from multiple
                          passes; unless --columns is given, columns grow to
                          hold the whole stored word)
    --slice-bits N        analog slice width per pass (default 4)
    --rows N              cells per bit-line (default 16)
    --columns N           bit-line columns per row (default 4)
    --mux N               columns sharing one converter pair (default 1)
    --spares N            replica spare columns for defect repair (default 0;
                          fault_sweep adds its own spares when left at 0)

RELIABILITY (run; consumed by the fault_sweep experiment):
    --defect-rate R       pin the defect-rate grid to [0, R] instead of the
                          profile's built-in rate ladder
    --lifetime-steps N    pin the lifetime grid to [0, N] aging steps

SERVING (run; consumed by the serving_load experiment):
    --max-batch N         pin the coalescer's batch-size cap instead of the
                          profile's built-in policy grid
    --max-delay-us N      pin the coalescer's close deadline in microseconds
    --shards N            pin the worker-shard count

EXIT STATUS:
    0 when every requested experiment succeeds with a non-empty report;
    1 when any experiment fails (all requested experiments still run);
    2 on a usage error.
";

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n\n{USAGE}");
    std::process::exit(2);
}

struct RunOptions {
    names: Vec<String>,
    all: bool,
    profile: Option<Profile>,
    seed: u64,
    threads: usize,
    json_dir: Option<PathBuf>,
    array: ArrayConfig,
    defect_rate: Option<f64>,
    lifetime_steps: Option<usize>,
    max_batch: Option<usize>,
    max_delay_us: Option<u64>,
    serve_shards: Option<usize>,
}

fn parse_run_options(args: &[String]) -> RunOptions {
    let mut options = RunOptions {
        names: Vec::new(),
        all: false,
        profile: None,
        seed: 42,
        threads: 0,
        json_dir: None,
        array: ArrayConfig::default(),
        defect_rate: None,
        lifetime_steps: None,
        max_batch: None,
        max_delay_us: None,
        serve_shards: None,
    };
    let mut columns_given = false;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        i += 1;
        let mut value_for = |flag: &str| -> String {
            let value = args
                .get(i)
                .unwrap_or_else(|| usage_error(&format!("{flag} expects a value")))
                .clone();
            i += 1;
            value
        };
        match arg.as_str() {
            "--all" => options.all = true,
            "--profile" => {
                let value = value_for("--profile");
                options.profile = Some(Profile::parse(&value).unwrap_or_else(|| {
                    usage_error(&format!(
                        "unknown profile {value:?} (expected fast or full)"
                    ))
                }));
            }
            "--seed" => {
                let value = value_for("--seed");
                options.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --seed {value:?}")));
            }
            "--threads" => {
                let value = value_for("--threads");
                options.threads = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --threads {value:?}")));
            }
            "--json" => options.json_dir = Some(PathBuf::from(value_for("--json"))),
            "--operand-bits" => {
                let value = value_for("--operand-bits");
                options.array.operand_bits = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --operand-bits {value:?}")));
            }
            "--slice-bits" => {
                let value = value_for("--slice-bits");
                options.array.slice_bits = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --slice-bits {value:?}")));
            }
            "--rows" => {
                let value = value_for("--rows");
                options.array.rows = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --rows {value:?}")));
            }
            "--columns" => {
                let value = value_for("--columns");
                options.array.columns = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --columns {value:?}")));
                columns_given = true;
            }
            "--mux" => {
                let value = value_for("--mux");
                options.array.column_mux = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --mux {value:?}")));
            }
            "--spares" => {
                let value = value_for("--spares");
                options.array.spare_columns = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --spares {value:?}")));
            }
            "--defect-rate" => {
                let value = value_for("--defect-rate");
                let rate: f64 = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --defect-rate {value:?}")));
                if !(0.0..=1.0).contains(&rate) {
                    usage_error(&format!("--defect-rate must be within 0..=1, got {value}"));
                }
                options.defect_rate = Some(rate);
            }
            "--lifetime-steps" => {
                let value = value_for("--lifetime-steps");
                options.lifetime_steps = Some(value.parse().unwrap_or_else(|_| {
                    usage_error(&format!("invalid --lifetime-steps {value:?}"))
                }));
            }
            "--max-batch" => {
                let value = value_for("--max-batch");
                let max_batch: usize = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --max-batch {value:?}")));
                if max_batch == 0 {
                    usage_error("--max-batch must be at least 1");
                }
                options.max_batch = Some(max_batch);
            }
            "--max-delay-us" => {
                let value = value_for("--max-delay-us");
                options.max_delay_us =
                    Some(value.parse().unwrap_or_else(|_| {
                        usage_error(&format!("invalid --max-delay-us {value:?}"))
                    }));
            }
            "--shards" => {
                let value = value_for("--shards");
                let shards: usize = value
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid --shards {value:?}")));
                if shards == 0 {
                    usage_error("--shards must be at least 1");
                }
                options.serve_shards = Some(shards);
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown option {flag}")),
            name => options.names.push(name.to_string()),
        }
    }
    // A wide operand needs a row wide enough to store it; grow the default
    // column count unless the user pinned it explicitly
    // (`--operand-bits 8` alone selects the 16×8 INT8 preset).
    if !columns_given {
        options.array.columns = options.array.columns.max(options.array.operand_bits as u16);
    }
    if let Err(err) = options.array.validate() {
        usage_error(&format!("invalid array geometry: {err}"));
    }
    options
}

fn cmd_list() {
    let experiments = experiments::registry();
    let width = experiments
        .iter()
        .map(|e| e.name().len())
        .max()
        .unwrap_or(0);
    println!("{} registered experiments:\n", experiments.len());
    for experiment in experiments {
        println!(
            "  {:width$}  {:22}  {}",
            experiment.name(),
            experiment.paper_ref(),
            experiment.description(),
        );
    }
    println!("\nRun one with `optima run <name>`, everything with `optima run --all`.");
}

/// Builds the JSON envelope around one experiment's report.
fn report_envelope(
    experiment: &dyn Experiment,
    profile: Profile,
    seed: u64,
    array: &ArrayConfig,
    report: &optima_bench::report::Report,
    elapsed_seconds: f64,
) -> Json {
    Json::object(vec![
        ("schema", Json::str("optima-report.v1")),
        ("experiment", Json::str(experiment.name())),
        ("paper_ref", Json::str(experiment.paper_ref())),
        ("description", Json::str(experiment.description())),
        ("profile", Json::str(profile.name())),
        ("geometry", Json::str(array.describe())),
        // Seeds are u64; values beyond i64::MAX have no JSON integer
        // representation here, so they fall back to a decimal string rather
        // than being recorded as a wrong (negative) number.
        (
            "seed",
            i64::try_from(seed)
                .map(Json::Int)
                .unwrap_or_else(|_| Json::str(seed.to_string())),
        ),
        ("elapsed_seconds", Json::Fixed(elapsed_seconds, 3)),
        ("items", report.to_json()),
    ])
}

fn cmd_run(args: &[String]) -> i32 {
    let options = parse_run_options(args);
    let profile = options.profile.unwrap_or(Profile::Full);
    let selected: Vec<&'static dyn Experiment> = if options.all {
        if !options.names.is_empty() {
            usage_error("--all cannot be combined with explicit experiment names");
        }
        experiments::registry().to_vec()
    } else {
        if options.names.is_empty() {
            usage_error("specify experiment names or --all");
        }
        options
            .names
            .iter()
            .map(|name| {
                experiments::find(name).unwrap_or_else(|| {
                    usage_error(&format!("unknown experiment {name:?}; see `optima list`"))
                })
            })
            .collect()
    };

    if let Some(dir) = &options.json_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {err}", dir.display());
            return 1;
        }
    }

    // One context for the whole run: profile/seed/threads are constant, and
    // sharing it keeps the lazily-calibrated handle alive across
    // experiments, so every experiment at the same geometry reuses one
    // in-process calibration.
    let mut ctx = ExperimentContext::new(profile)
        .with_seed(options.seed)
        .with_threads(options.threads)
        .with_array(options.array);
    if let Some(rate) = options.defect_rate {
        ctx = ctx.with_defect_rate(rate);
    }
    if let Some(steps) = options.lifetime_steps {
        ctx = ctx.with_lifetime_steps(steps);
    }
    if let Some(max_batch) = options.max_batch {
        ctx = ctx.with_max_batch(max_batch);
    }
    if let Some(max_delay_us) = options.max_delay_us {
        ctx = ctx.with_max_delay_us(max_delay_us);
    }
    if let Some(shards) = options.serve_shards {
        ctx = ctx.with_serve_shards(shards);
    }
    let mut failures: Vec<(String, String)> = Vec::new();
    for (i, experiment) in selected.iter().enumerate() {
        if i > 0 {
            println!();
        }
        eprintln!(
            "[{}/{}] running {} ({}, profile {})",
            i + 1,
            selected.len(),
            experiment.name(),
            experiment.paper_ref(),
            profile.name()
        );
        let start = Instant::now();
        let outcome = experiment.run(&mut ctx);
        let elapsed = start.elapsed().as_secs_f64();
        match outcome {
            Ok(report) if report.is_empty() => {
                failures.push((
                    experiment.name().to_string(),
                    "experiment returned an empty report".to_string(),
                ));
                eprintln!("error: {} returned an empty report", experiment.name());
            }
            Ok(report) => {
                print!("{}", report.render_text());
                if let Some(dir) = &options.json_dir {
                    let envelope = report_envelope(
                        *experiment,
                        profile,
                        options.seed,
                        &options.array,
                        &report,
                        elapsed,
                    );
                    let path = dir.join(format!("{}.json", experiment.name()));
                    if let Err(err) = write_json(&path, &envelope) {
                        failures.push((experiment.name().to_string(), err.to_string()));
                        eprintln!("error: {err}");
                    }
                }
            }
            Err(err) => {
                failures.push((experiment.name().to_string(), err.to_string()));
                eprintln!("error: {} failed: {err}", experiment.name());
            }
        }
    }

    eprintln!(
        "\n{} of {} experiments succeeded",
        selected.len() - failures.len(),
        selected.len()
    );
    if failures.is_empty() {
        0
    } else {
        for (name, message) in &failures {
            eprintln!("  FAILED {name}: {message}");
        }
        1
    }
}

fn write_json(path: &Path, document: &Json) -> Result<(), BenchError> {
    std::fs::write(path, document.render()).map_err(|source| BenchError::Io {
        path: path.display().to_string(),
        source,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            if args.len() > 1 {
                usage_error("list takes no arguments");
            }
            cmd_list();
        }
        Some("run") => std::process::exit(cmd_run(&args[1..])),
        Some("design-md") => print!("{}", experiments::design_md()),
        Some("--help") | Some("-h") | Some("help") => print!("{USAGE}"),
        Some(other) => usage_error(&format!("unknown command {other:?}")),
        None => usage_error("missing command"),
    }
}
