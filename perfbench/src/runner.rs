//! Drives one workload: set-up, the timed closed loop, the single-thread
//! re-run, the machine probes and the metrics.

use crate::checks::Ledger;
use crate::machine::{self, Machine};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::workloads::Workload;
use crate::{BenchError, Config};
use optima_core::sweep::stream_seed;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up runs at least this many times per run, and more while the
/// repeats take less than [`SETUP_MIN_SECONDS`]; `setup_s` is the median.
pub const SETUP_MIN_REPEATS: usize = 3;
/// Set-up time below which cheap set-ups are repeated further.
pub const SETUP_MIN_SECONDS: f64 = 1.0;
/// Most set-up repeats per run.
pub const SETUP_MAX_REPEATS: usize = 15;
/// Unit identifier of spans recorded during set-up.
pub const SETUP_UNIT: u64 = u64::MAX;
/// Stream tag choosing the unit re-run at one thread.
const SERIAL_SAMPLE_STREAM: u64 = 0x005e_71a1;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit of the value.
    pub unit: &'static str,
}

/// How to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Minimum measuring time; the loop then finishes its current cycle.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Directory for the private calibration state and the span dump.
    pub out_dir: PathBuf,
}

/// The result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations attempted: every unit execution, including the
    /// single-thread re-run.
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// The first few failures.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Run facts as (key, JSON-encoded value).
    pub manifest: Vec<(String, String)>,
}

impl Outcome {
    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

struct Session<W> {
    state: W,
    ledger: Ledger,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl<W: Workload> Session<W> {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// Runs, times and checks unit `id`; returns its wall time and work.
    fn execute(&mut self, id: u64, threads: usize, tracer: &mut Tracer) -> Option<(f64, u64)> {
        self.attempted += 1;
        tracer.set_unit(id);
        let span = tracer.begin("bench.unit");
        let start = Instant::now();
        let result = self.state.run_unit(id, threads, tracer);
        let seconds = start.elapsed().as_secs_f64();
        tracer.end(span);
        let checked = result.and_then(|work| {
            let fingerprint = self.state.check_unit(id, tracer)?;
            self.ledger.record(id % W::CYCLE, fingerprint)?;
            Ok(work)
        });
        match checked {
            Ok(work) => Some((seconds, work)),
            Err(err) => {
                self.fail(format!("unit {id} at {threads} thread(s): {err}"));
                None
            }
        }
    }
}

fn json_string(value: &str) -> String {
    let mut out = String::from("\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float as JSON: all its digits, `null` when not finite.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn setup_done(config: &Config, seconds: &[f64]) -> bool {
    let repeats = seconds.len();
    if config.tiny {
        return repeats >= 1;
    }
    repeats >= SETUP_MAX_REPEATS
        || (repeats >= SETUP_MIN_REPEATS && seconds.iter().sum::<f64>() >= SETUP_MIN_SECONDS)
}

/// Runs workload `W`.
///
/// # Errors
///
/// Fails only when set-up fails or the private directory cannot be
/// created; unit failures are counted in the [`Outcome`].
pub fn run<W: Workload>(config: &Config, options: &Options) -> Result<Outcome, BenchError> {
    let dir = options
        .out_dir
        .join(format!("run-{}-{}", W::NAME, std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let result = run_in::<W>(config, options, &dir);
    // Best effort: a leftover private directory affects no later run.
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in<W: Workload>(
    config: &Config,
    options: &Options,
    dir: &std::path::Path,
) -> Result<Outcome, BenchError> {
    let machine = Machine::detect();
    let threads = config.threads;
    let mut tracer = Tracer::new(options.trace);

    tracer.set_unit(SETUP_UNIT);
    let mut setup_seconds = Vec::new();
    let mut state = None;
    while !setup_done(config, &setup_seconds) {
        drop(state.take());
        let start = Instant::now();
        state = Some(W::setup(config, dir, &mut tracer)?);
        setup_seconds.push(start.elapsed().as_secs_f64());
    }
    let repeats = setup_seconds.len();
    let mut session = Session {
        state: state.ok_or_else(|| BenchError("set-up never ran".to_string()))?,
        ledger: Ledger::default(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };

    // The closed loop: at least one full cycle, then whole cycles until
    // the measuring time is up.  In a traced run every unit runs twice,
    // untraced and traced in alternating order, to measure the overhead.
    let mut unit_seconds = Vec::new();
    let mut config_seconds = vec![Vec::new(); W::CYCLE as usize];
    let mut config_work = vec![0u64; W::CYCLE as usize];
    let mut plain = Tracer::new(false);
    let (mut plain_seconds, mut traced_seconds) = (0.0, 0.0);
    let start = Instant::now();
    let mut id = 0u64;
    while id < W::CYCLE
        || !id.is_multiple_of(W::CYCLE)
        || start.elapsed().as_secs_f64() < options.seconds
    {
        if options.trace {
            let traced_first = id % 2 == 1;
            let mut pair = [None, None];
            for pass in 0..2 {
                let traced = (pass == 0) == traced_first;
                let sink = if traced { &mut tracer } else { &mut plain };
                pair[usize::from(traced)] = session.execute(id, threads, sink);
            }
            if let [Some((plain_s, _)), Some((traced_s, _))] = pair {
                plain_seconds += plain_s;
                traced_seconds += traced_s;
            }
        } else if let Some((seconds, items)) = session.execute(id, threads, &mut tracer) {
            unit_seconds.push(seconds);
            let key = (id % W::CYCLE) as usize;
            config_seconds[key].push(seconds);
            config_work[key] = items;
        }
        id += 1;
    }
    let units = id;

    // One sampled unit again at one thread: bit-identical or failed.
    let sample = stream_seed(config.seed, SERIAL_SAMPLE_STREAM) % W::CYCLE;
    let mut serial = Tracer::new(options.trace);
    session.execute(sample, 1, &mut serial);

    // Before the probes, whose buffers are not the workload's memory.
    let peak_rss_mb = match machine::peak_rss_mb() {
        Ok(mb) => mb,
        Err(err) => {
            session.fail(format!("peak RSS: {err}"));
            f64::NAN
        }
    };
    let (fma_rounds, copy_bytes) = if config.tiny {
        (100_000, 1 << 20)
    } else {
        (10_000_000, 32 << 20)
    };
    let fma_gflops = machine::fma_gflops(&machine, fma_rounds);
    let copy_gbps = machine::copy_gbps(&machine, copy_bytes);

    let statistics = session.state.statistics();
    let mut manifest: Vec<(String, String)> = vec![
        ("workload".into(), json_string(W::NAME)),
        ("seed".into(), config.seed.to_string()),
        ("nproc".into(), machine.nproc.to_string()),
        ("threads".into(), threads.to_string()),
        ("avx2".into(), machine.avx2.to_string()),
        ("fma".into(), machine.fma.to_string()),
        ("kernel_arm".into(), json_string(machine.kernel_arm())),
        ("trace".into(), options.trace.to_string()),
        ("units".into(), units.to_string()),
        ("work_item".into(), json_string(W::WORK)),
        (
            "digest".into(),
            json_string(&format!("{:016x}", session.ledger.digest(W::CYCLE))),
        ),
        ("setup_repeats".into(), repeats.to_string()),
        ("machine.fma_gflops".into(), json_number(fma_gflops)),
        ("machine.copy_gbps".into(), json_number(copy_gbps)),
    ];
    for (name, value) in &statistics {
        manifest.push(((*name).into(), json_number(*value)));
    }

    let metrics = if options.trace {
        let parallel = tracer.total_in_unit(W::PARALLEL_SPAN, sample);
        let efficiency = serial.total(W::PARALLEL_SPAN).0 / (threads as f64 * parallel);
        let overhead_pct = 100.0 * (traced_seconds / plain_seconds - 1.0);
        // Self time of every layer span inside the units plus the
        // benchmark's own time (`bench.unit`) accounts for the unit wall time.
        let (self_times, unit_total) = tracer.self_times_within("bench.unit");
        let shares: Vec<String> = self_times
            .iter()
            .map(|(name, seconds)| {
                format!("\"{name}\": {}", json_number(100.0 * seconds / unit_total))
            })
            .collect();
        manifest.push((
            "unit_self_time_pct".into(),
            format!("{{{}}}", shares.join(", ")),
        ));
        let bench_self_pct = 100.0
            * ratio(
                self_times.get("bench.unit").copied().unwrap_or(0.0),
                unit_total,
            );
        if let Err(err) = tracer.write_jsonl(&options.out_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            W::NAME,
            config.seed
        ))) {
            session.fail(format!("writing the span dump: {err}"));
        }
        per_layer(
            &tracer,
            efficiency,
            overhead_pct,
            bench_self_pct,
            &statistics,
            fma_gflops,
            copy_gbps,
        )
    } else {
        // Work of one cycle over the sum of each configuration's median
        // unit time: a burst of interference on the host moves a median
        // far less than it moves a total.
        let cycle_seconds: f64 = config_seconds.iter().map(|s| median(s)).sum();
        let throughput = config_work.iter().sum::<u64>() as f64 / cycle_seconds;
        let tail = tail(&unit_seconds);
        if let Some(tail) = tail {
            manifest.push(("unit_tail_rank".into(), tail.rank.to_string()));
            manifest.push(("unit_tail_samples".into(), tail.samples.to_string()));
            manifest.push(("unit_tail_percentile".into(), json_number(tail.percentile)));
        }
        manifest.push((W::THROUGHPUT.into(), json_number(throughput)));
        vec![
            Metric {
                name: "setup_s",
                value: median(&setup_seconds),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb,
                unit: "MB",
            },
            Metric {
                name: "throughput_per_s",
                value: throughput,
                unit: "1/s",
            },
            Metric {
                name: "unit_p50_ms",
                value: 1e3 * median(&unit_seconds),
                unit: "ms",
            },
            Metric {
                name: "unit_tail_ms",
                value: tail.map_or(f64::NAN, |t| 1e3 * t.value),
                unit: "ms",
            },
        ]
    };
    manifest.push((
        "errors".into(),
        format!(
            "[{}]",
            session
                .errors
                .iter()
                .map(|e| json_string(e))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ));

    Ok(Outcome {
        attempted: session.attempted,
        failed: session.failed,
        errors: session.errors,
        metrics,
        manifest,
    })
}

/// `numerator / denominator`, 0 when the layer did no work on this
/// workload.
fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Per-layer metrics from the traced run.  A layer the workload does not
/// exercise reports 0.
fn per_layer(
    tracer: &Tracer,
    efficiency: f64,
    overhead_pct: f64,
    bench_self_pct: f64,
    statistics: &[(&'static str, f64)],
    fma_gflops: f64,
    copy_gbps: f64,
) -> Vec<Metric> {
    let total = |name: &str| tracer.total(name).0;
    let count = |name: &str| tracer.counted(name);
    let us = |name: &str| 1e6 * tracer.mean(name);
    let ms = |name: &str| 1e3 * tracer.mean(name);
    let statistic = |name: &str| {
        statistics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let (calibrations, explorations) = (
        tracer.total("core.calibration.run").1,
        tracer.total("imc.dse.explore").1,
    );

    let metric = |name, value, unit| Metric { name, value, unit };
    vec![
        metric(
            "circuit.transient.query_us",
            us("circuit.transient.query"),
            "us",
        ),
        metric(
            "circuit.montecarlo.sample_us",
            us("circuit.montecarlo.sample"),
            "us",
        ),
        metric("core.calibration.run_ms", ms("core.calibration.run"), "ms"),
        metric(
            "core.calibration.circuit_simulations",
            ratio(
                count("core.calibration.circuit_simulations"),
                calibrations as f64,
            ),
            "count",
        ),
        metric(
            "core.evaluation.rms_errors_ms",
            ms("core.evaluation.rms_errors"),
            "ms",
        ),
        metric(
            "core.evaluation.rms_error_mv",
            statistic("rms_error_mv"),
            "mV",
        ),
        metric(
            "core.model.query_us",
            1e6 * ratio(total("core.model.sweep"), count("core.model.queries")),
            "us",
        ),
        metric(
            "core.model.mc_sample_ns",
            1e9 * ratio(total("core.model.mc_sweep"), count("core.model.mc_samples")),
            "ns",
        ),
        metric(
            "section5.sweep_speedup_x",
            ratio(total("circuit.transient.query"), total("core.model.sweep")),
            "x",
        ),
        metric(
            "section5.mc_speedup_x",
            ratio(
                total("circuit.montecarlo.sample"),
                total("core.model.mc_sweep"),
            ),
            "x",
        ),
        metric("core.snapshot.save_ms", ms("core.snapshot.save"), "ms"),
        metric("core.snapshot.load_ms", ms("core.snapshot.load"), "ms"),
        metric(
            "core.snapshot.hit",
            ratio(count("core.snapshot.hits"), count("core.snapshot.loads")),
            "ratio",
        ),
        metric("core.sweep.efficiency", efficiency, "ratio"),
        metric("imc.dse.explore_ms", ms("imc.dse.explore"), "ms"),
        metric(
            "imc.dse.corner_us",
            1e6 * ratio(total("imc.dse.explore"), count("imc.dse.corners")),
            "us",
        ),
        metric(
            "imc.dse.valid_ratio",
            ratio(count("imc.dse.corners"), count("imc.dse.grid_points")),
            "ratio",
        ),
        metric("imc.fom.select_us", us("imc.fom.select"), "us"),
        metric("imc.pvt.int4_ms", ms("imc.pvt.int4"), "ms"),
        metric("imc.pvt.int8_ms", ms("imc.pvt.int8"), "ms"),
        metric(
            "imc.pvt.mc_multiplies",
            ratio(count("imc.pvt.mc_multiplies"), explorations as f64),
            "count",
        ),
        metric("imc.multiplier.table_us", us("imc.multiplier.table"), "us"),
        metric(
            "dnn.training.epoch_ms",
            1e3 * ratio(total("dnn.training.train"), count("dnn.training.epochs")),
            "ms",
        ),
        metric("dnn.quantized.build_ms", ms("dnn.quantized.build"), "ms"),
        metric(
            "dnn.quantized.image_us",
            1e6 * ratio(total("dnn.quantized.eval"), count("dnn.quantized.images")),
            "us",
        ),
        metric(
            "dnn.quantized.lut_gathers_per_s",
            ratio(count("dnn.quantized.macs"), total("dnn.quantized.eval")),
            "1/s",
        ),
        metric(
            "dnn.network.image_us",
            1e6 * ratio(total("dnn.network.eval"), count("dnn.network.images")),
            "us",
        ),
        metric(
            "dnn.network.float_gflops",
            ratio(
                2.0 * count("dnn.network.macs"),
                1e9 * total("dnn.network.eval"),
            ),
            "GFLOP/s",
        ),
        metric("dnn.eval.top1_pct", statistic("top1_pct"), "%"),
        metric(
            "dnn.quantized.forward_us",
            us("dnn.quantized.forward"),
            "us",
        ),
        metric("serve.plan.burst_us", us("serve.plan.build"), "us"),
        metric("serve.pool.burst_us", us("serve.pool.execute"), "us"),
        metric(
            "serve.pool.mean_batch",
            ratio(count("serve.served"), count("serve.batches")),
            "count",
        ),
        metric(
            "serve.plan.served_ratio",
            ratio(count("serve.served"), count("serve.requests")),
            "ratio",
        ),
        metric("bench.self_pct", bench_self_pct, "%"),
        metric("bench.trace_overhead_pct", overhead_pct, "%"),
        metric("machine.fma_gflops", fma_gflops, "GFLOP/s"),
        metric("machine.copy_gbps", copy_gbps, "GB/s"),
    ]
}
