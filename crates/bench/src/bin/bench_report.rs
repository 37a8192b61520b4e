//! Machine-readable perf reports: writes `BENCH_dnn.json`,
//! `BENCH_analog.json` and `BENCH_serving.json`.
//!
//! Measures the "before" (naive scalar kernels, per-product dynamic
//! dispatch, serial evaluation, per-pair analog evaluation) and "after"
//! (im2col + blocked GEMM, flattened product LUT, parallel batched
//! evaluation, batched analog grids) sides of the hot paths on identical
//! workloads, and emits the wall-clock numbers plus speedups as JSON so the
//! repository's perf trajectory is machine-checkable from this PR onward.
//!
//! Both reports also verify — and fail the process on violation — that each
//! fast path produces **bit-identical** results to its reference path
//! (quantized LUT logits vs. dynamic dispatch, batched multiplier tables
//! and corner metrics vs. the scalar loops), so a perf regression hunt can
//! never silently trade correctness for speed.
//!
//! The DNN report additionally enforces [`SPEEDUP_FLOORS`]: each committed
//! workload must hold roughly 80 % of the speedup recorded in the checked-in
//! `BENCH_dnn.json`, and the process exits nonzero when one regresses.
//!
//! ```bash
//! OPTIMA_PROFILE=fast cargo run --release --bin bench_report   # CI quick mode
//! cargo run --release --bin bench_report                       # full workload
//! ```

use optima_bench::experiments::Profile;
use optima_bench::json::Json;
use optima_bench::{calibrated_models, naive_network_forward};
use optima_circuit::technology::Technology;
use optima_core::calibration::{CalibrationConfig, Calibrator};
use optima_core::snapshot;
use optima_dnn::data::{Dataset, SyntheticImageConfig};
use optima_dnn::eval::evaluate_batched;
use optima_dnn::layers::{Conv2d, Dense, Flatten, Layer, MaxPool2d, Relu};
use optima_dnn::multiplier::{DynDispatchProducts, ExactInt4Products};
use optima_dnn::network::Network;
use optima_dnn::quantized::QuantizedNetwork;
use optima_dnn::reference;
use optima_dnn::scratch::KernelScratch;
use optima_dnn::Tensor;
use optima_imc::metrics::{evaluate_multiplier_at, evaluate_multiplier_at_scalar};
use optima_imc::multiplier::{InSramMultiplier, MultiplierConfig, MultiplierTable};
use optima_math::units::{Celsius, Volts};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Committed speedup floors for the DNN workloads: roughly 80 % of the
/// speedups recorded in the checked-in `BENCH_dnn.json`.  `bench_report`
/// exits nonzero when a measured speedup falls below its floor, so a hot-path
/// regression fails CI instead of silently rewriting the perf trajectory.
/// Quick mode halves the floors — 30-iteration runs on shared runners are
/// noisy — while still catching order-of-magnitude regressions.
const SPEEDUP_FLOORS: &[(&str, f64)] = &[
    ("conv2d_forward_8to16_16x16_k3", 18.0),
    ("dense_forward_1024to256", 5.0),
    ("quantized_forward_3ch_16x16_int4", 18.0),
    ("float_dataset_eval_16x16", 9.0),
    ("quantized_dataset_eval_16x16_int4", 14.0),
];

/// One before/after workload measurement.
struct Workload {
    name: &'static str,
    baseline: &'static str,
    optimized: &'static str,
    baseline_seconds: f64,
    optimized_seconds: f64,
    iterations: usize,
    /// Multiply-accumulate FLOPs one iteration performs (0 when the workload
    /// has no meaningful FLOP count, e.g. wall-clock-only measurements).
    flops_per_iteration: f64,
    /// Product-LUT gathers one iteration performs (0 for float workloads).
    lut_lookups_per_iteration: f64,
}

impl Workload {
    fn speedup(&self) -> f64 {
        self.baseline_seconds / self.optimized_seconds.max(1e-12)
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::str(self.name)),
            ("baseline", Json::str(self.baseline)),
            ("optimized", Json::str(self.optimized)),
            ("iterations", Json::Int(self.iterations as i64)),
            ("baseline_seconds", Json::Fixed(self.baseline_seconds, 6)),
            ("optimized_seconds", Json::Fixed(self.optimized_seconds, 6)),
            (
                "baseline_throughput_per_second",
                Json::Fixed(self.iterations as f64 / self.baseline_seconds.max(1e-12), 2),
            ),
            (
                "optimized_throughput_per_second",
                Json::Fixed(
                    self.iterations as f64 / self.optimized_seconds.max(1e-12),
                    2,
                ),
            ),
            ("speedup", Json::Fixed(self.speedup(), 2)),
        ];
        if self.flops_per_iteration > 0.0 {
            let total = self.flops_per_iteration * self.iterations as f64;
            fields.push((
                "baseline_gflops",
                Json::Fixed(total / self.baseline_seconds.max(1e-12) / 1e9, 3),
            ));
            fields.push((
                "optimized_gflops",
                Json::Fixed(total / self.optimized_seconds.max(1e-12) / 1e9, 3),
            ));
        }
        if self.lut_lookups_per_iteration > 0.0 {
            let total = self.lut_lookups_per_iteration * self.iterations as f64;
            fields.push((
                "optimized_lut_lookups_per_second",
                Json::Fixed(total / self.optimized_seconds.max(1e-12), 0),
            ));
        }
        fields.push((
            "speedup_floor",
            match SPEEDUP_FLOORS.iter().find(|(name, _)| *name == self.name) {
                Some(&(_, floor)) => Json::Fixed(floor, 2),
                None => Json::Null,
            },
        ));
        Json::object(fields)
    }
}

/// Fails the process when a DNN workload's measured speedup regresses below
/// its committed floor (halved in quick mode to absorb runner noise).
fn enforce_speedup_floors(workloads: &[Workload], quick: bool) {
    let relax = if quick { 0.5 } else { 1.0 };
    let mut failed = false;
    for &(name, floor) in SPEEDUP_FLOORS {
        let Some(workload) = workloads.iter().find(|w| w.name == name) else {
            eprintln!("speedup floor names an unknown workload: {name}");
            failed = true;
            continue;
        };
        let floor = floor * relax;
        if workload.speedup() < floor {
            eprintln!(
                "{name}: measured speedup {:.2}x is below the committed floor {floor:.2}x",
                workload.speedup()
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Times `iterations` runs of `f` after one warm-up run.
fn time_iterations(iterations: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iterations {
        f();
    }
    start.elapsed().as_secs_f64()
}

fn random_image(channels: usize, size: usize, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Tensor::from_vec(
        &[channels, size, size],
        (0..channels * size * size)
            .map(|_| rng.gen::<f32>())
            .collect(),
    )
    .expect("image shape matches its data")
}

fn eval_network(channels: usize, size: usize, classes: usize) -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    Network::new(vec![
        Box::new(Conv2d::new(channels, 8, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new()),
        Box::new(Conv2d::new(8, 16, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(16 * (size / 4) * (size / 4), classes, &mut rng)),
    ])
}

/// Product-LUT gathers in one forward pass of [`eval_network`]: one lookup
/// per (weight-code, activation) MAC in the two conv layers and the dense
/// head.
fn eval_network_lut_lookups(channels: usize, size: usize, classes: usize) -> f64 {
    let conv1 = 8 * (channels * 3 * 3) * (size * size);
    let pooled = size / 2;
    let conv2 = 16 * (8 * 3 * 3) * (pooled * pooled);
    let dense = 16 * (size / 4) * (size / 4) * classes;
    (conv1 + conv2 + dense) as f64
}

fn main() {
    let quick = Profile::from_env().is_fast();
    let iterations = if quick { 30 } else { 200 };
    let mut workloads = Vec::new();

    // 1. Convolution forward: naive six-deep loop vs. packed-panel GEMM
    //    through the zero-allocation scratch arena (the steady-state path).
    {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let conv = Conv2d::new(8, 16, 3, &mut rng);
        let image = random_image(8, 16, 1);
        let mut scratch = KernelScratch::new();
        let mut output = Tensor::default();
        conv.infer_into(&image, &mut output, &mut scratch)
            .expect("conv shapes fit");
        assert_eq!(
            output,
            conv.clone().forward(&image).expect("conv shapes fit"),
            "scratch conv path must be bit-identical to the training forward"
        );
        let baseline_seconds = time_iterations(iterations, || {
            black_box(reference::conv2d_forward(
                image.data(),
                8,
                16,
                16,
                conv.weights(),
                conv.bias(),
                16,
                3,
            ));
        });
        let optimized_seconds = time_iterations(iterations, || {
            conv.infer_into(&image, &mut output, &mut scratch)
                .expect("conv shapes fit");
            black_box(output.data());
        });
        workloads.push(Workload {
            name: "conv2d_forward_8to16_16x16_k3",
            baseline: "naive-scalar",
            optimized: "packed-gemm-scratch",
            baseline_seconds,
            optimized_seconds,
            iterations,
            // 2 FLOPs per MAC over out_channels × patch × output pixels.
            flops_per_iteration: (2 * 16 * (8 * 3 * 3) * (16 * 16)) as f64,
            lut_lookups_per_iteration: 0.0,
        });
    }

    // 2. Dense forward: scalar dot loop vs. unrolled GEMV.
    {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let dense = Dense::new(1024, 256, &mut rng);
        let input = random_image(1, 32, 2)
            .reshaped(&[1024])
            .expect("1024 elements");
        let baseline_seconds = time_iterations(iterations, || {
            black_box(reference::dense_forward(
                input.data(),
                dense.weights(),
                dense.bias(),
                1024,
                256,
            ));
        });
        let mut scratch = KernelScratch::new();
        let mut output = Tensor::default();
        dense
            .infer_into(&input, &mut output, &mut scratch)
            .expect("dense shapes fit");
        assert_eq!(
            output,
            dense.clone().forward(&input).expect("dense shapes fit"),
            "scratch dense path must be bit-identical to the training forward"
        );
        let optimized_seconds = time_iterations(iterations, || {
            dense
                .infer_into(&input, &mut output, &mut scratch)
                .expect("dense shapes fit");
            black_box(output.data());
        });
        workloads.push(Workload {
            name: "dense_forward_1024to256",
            baseline: "naive-scalar",
            optimized: "packed-gemv-scratch",
            baseline_seconds,
            optimized_seconds,
            iterations,
            flops_per_iteration: (2 * 1024 * 256) as f64,
            lut_lookups_per_iteration: 0.0,
        });
    }

    // 3. Quantized forward: per-product dynamic dispatch vs. flat 256-entry
    //    LUT — with a bit-identity check on every iteration's input.
    {
        let network = eval_network(3, 16, 10);
        let lut = QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products))
            .expect("quantization succeeds");
        let dyn_dispatch = QuantizedNetwork::from_network(
            &network,
            Arc::new(DynDispatchProducts(Arc::new(ExactInt4Products))),
        )
        .expect("quantization succeeds");
        assert!(lut.uses_snapshot() && !dyn_dispatch.uses_snapshot());
        let image = random_image(3, 16, 3);
        let mut scratch = KernelScratch::new();
        let reference_logits = dyn_dispatch.forward(&image).expect("shapes fit");
        let lut_logits = lut
            .forward_with(&image, &mut scratch)
            .expect("shapes fit")
            .clone();
        assert_eq!(
            reference_logits, lut_logits,
            "quantized gather output must be bit-identical to the reference"
        );
        let baseline_seconds = time_iterations(iterations, || {
            black_box(dyn_dispatch.forward(&image).expect("shapes fit"));
        });
        let optimized_seconds = time_iterations(iterations, || {
            black_box(lut.forward_with(&image, &mut scratch).expect("shapes fit"));
        });
        workloads.push(Workload {
            name: "quantized_forward_3ch_16x16_int4",
            baseline: "dyn-dispatch",
            optimized: "lut-gather-scratch",
            baseline_seconds,
            optimized_seconds,
            iterations,
            flops_per_iteration: 0.0,
            lut_lookups_per_iteration: eval_network_lut_lookups(3, 16, 10),
        });
    }

    // 4. End-to-end dataset evaluation (the table2/table3 inner loop):
    //    naive serial kernels vs. im2col/LUT kernels + parallel fan-out.
    {
        let config = SyntheticImageConfig {
            classes: 8,
            train_per_class: 0,
            test_per_class: if quick { 8 } else { 25 },
            ..SyntheticImageConfig::imagenet_like()
        };
        let dataset = Dataset::synthetic(config);
        let shape = dataset.image_shape().to_vec();
        let network = eval_network(shape[0], shape[1], dataset.classes());
        let passes = if quick { 2 } else { 5 };

        let baseline_seconds = time_iterations(passes, || {
            for (image, &label) in dataset.test_iter() {
                let logits = naive_network_forward(&network, image);
                black_box(logits.argmax() == Some(label));
            }
        });
        let optimized_seconds = time_iterations(passes, || {
            black_box(evaluate_batched(&network, &dataset, 0).expect("evaluation succeeds"));
        });
        workloads.push(Workload {
            name: "float_dataset_eval_16x16",
            baseline: "naive-serial",
            optimized: "packed-gemm-parallel-scratch",
            baseline_seconds,
            optimized_seconds,
            iterations: passes * dataset.test_len(),
            // 2 FLOPs per MAC, one network forward per iteration (image).
            flops_per_iteration: 2.0
                * eval_network_lut_lookups(shape[0], shape[1], dataset.classes()),
            lut_lookups_per_iteration: 0.0,
        });

        // The same dataset through the quantized engine, checking that the
        // fast path stays bit-identical to the reference on every image.
        let lut = QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products))
            .expect("quantization succeeds");
        let dyn_dispatch = QuantizedNetwork::from_network(
            &network,
            Arc::new(DynDispatchProducts(Arc::new(ExactInt4Products))),
        )
        .expect("quantization succeeds");
        for (image, _) in dataset.test_iter() {
            assert_eq!(
                dyn_dispatch.forward(image).expect("shapes fit"),
                lut.forward(image).expect("shapes fit"),
                "quantized LUT output must be bit-identical to the reference"
            );
        }
        let baseline_seconds = time_iterations(passes, || {
            for (image, &label) in dataset.test_iter() {
                let logits = dyn_dispatch.forward(image).expect("shapes fit");
                black_box(logits.argmax() == Some(label));
            }
        });
        let optimized_seconds = time_iterations(passes, || {
            black_box(evaluate_batched(&lut, &dataset, 0).expect("evaluation succeeds"));
        });
        workloads.push(Workload {
            name: "quantized_dataset_eval_16x16_int4",
            baseline: "dyn-dispatch-serial",
            optimized: "lut-gather-parallel-scratch",
            baseline_seconds,
            optimized_seconds,
            iterations: passes * dataset.test_len(),
            flops_per_iteration: 0.0,
            lut_lookups_per_iteration: eval_network_lut_lookups(
                shape[0],
                shape[1],
                dataset.classes(),
            ),
        });
    }

    write_report(
        "BENCH_dnn.json",
        "dnn-inference-hot-path",
        "quantized_equivalence",
        quick,
        &workloads,
    );
    print_report(
        "DNN kernel perf report (written to BENCH_dnn.json)",
        &workloads,
    );
    enforce_speedup_floors(&workloads, quick);

    let analog = analog_workloads(quick);
    write_report(
        "BENCH_analog.json",
        "analog-mac-hot-path",
        "analog_equivalence",
        quick,
        &analog,
    );
    print_report(
        "Analog MAC perf report (written to BENCH_analog.json)",
        &analog,
    );

    serving_section(quick);
}

/// The serving section: the same sweep, gate set and `BENCH_serving.json`
/// schema as the `serving_load` experiment (`optima_bench::serving` is the
/// shared core).  Bit identity against the single-request path is checked
/// at every grid point, and a violated sustained-throughput floor or
/// p50/p99 latency ceiling (floor halved / ceilings doubled in quick mode)
/// exits nonzero like the speedup floors above.
fn serving_section(quick: bool) {
    use optima_bench::serving;
    let spec = serving::SweepSpec::for_profile(quick);
    match serving::run_and_write(&spec, 42, quick, "bench_report") {
        Ok(report) => {
            let gates = serving::gate_outcome(&report);
            println!(
                "# Serving perf report (written to {})\n",
                serving::REPORT_PATH
            );
            for point in &report.points {
                println!(
                    "rate {:>6.0} req/s  batch<={:<2} delay<={:<5} us  {} shard(s)   \
                     p50 {:>6} us  p99 {:>6} us  {:>8.0} req/s",
                    point.rate_per_sec,
                    point.max_batch,
                    point.max_delay_us,
                    point.shards,
                    point.wall_p50_us,
                    point.wall_p99_us,
                    point.wall_throughput_per_sec,
                );
            }
            println!(
                "\nsustained {:.0} req/s (floor {:.0}); worst p50 {} us / p99 {} us \
                 (ceilings {} / {} us); {} bit-identity checks passed\n",
                gates.sustained_throughput_per_sec,
                gates.throughput_floor_per_sec,
                gates.worst_p50_us,
                gates.worst_p99_us,
                gates.p50_ceiling_us,
                gates.p99_ceiling_us,
                report.bit_identity_checks,
            );
        }
        Err(err) => {
            eprintln!("serving gate failed: {err}");
            std::process::exit(1);
        }
    }
}

/// The analog hot-path workloads: multiplier-table construction and a PVT
/// corner sweep, scalar per-pair path vs. batched analog grids — each gated
/// by a bit-identity check — plus calibration snapshot load vs. a full
/// recalibration.
fn analog_workloads(quick: bool) -> Vec<Workload> {
    let iterations = if quick { 10 } else { 50 };
    let mut workloads = Vec::new();

    let (_, models) = calibrated_models(true);
    let multiplier = InSramMultiplier::new(models, MultiplierConfig::paper_fom_corner())
        .expect("paper corner is valid");
    let at = multiplier.nominal_operating_point();

    // 1. 16×16 multiplier-table construction.
    {
        let scalar = MultiplierTable::from_multiplier_scalar(&multiplier, at)
            .expect("scalar table build succeeds");
        let batched = MultiplierTable::from_multiplier(&multiplier, at)
            .expect("batched table build succeeds");
        assert_eq!(
            scalar, batched,
            "batched multiplier table must be bit-identical to the scalar path"
        );
        let baseline_seconds = time_iterations(iterations, || {
            black_box(MultiplierTable::from_multiplier_scalar(&multiplier, at).unwrap());
        });
        let optimized_seconds = time_iterations(iterations, || {
            black_box(MultiplierTable::from_multiplier(&multiplier, at).unwrap());
        });
        workloads.push(Workload {
            name: "multiplier_table_build_16x16",
            baseline: "scalar-per-pair",
            optimized: "batched-analog-grid",
            baseline_seconds,
            optimized_seconds,
            iterations,
            flops_per_iteration: 0.0,
            lut_lookups_per_iteration: 0.0,
        });
    }

    // 2. PVT corner sweep: 9 corners × full input space (the Fig. 8 inner
    //    loop shape).
    {
        let corners: Vec<_> = [0.95, 1.0, 1.05]
            .iter()
            .flat_map(|&vdd| {
                [0.0, 25.0, 60.0]
                    .iter()
                    .map(move |&t| optima_imc::multiplier::OperatingPoint {
                        vdd: Volts(vdd),
                        temperature: Celsius(t),
                    })
            })
            .collect();
        for &corner in &corners {
            assert_eq!(
                evaluate_multiplier_at_scalar(&multiplier, corner).unwrap(),
                evaluate_multiplier_at(&multiplier, corner).unwrap(),
                "batched corner metrics must be bit-identical to the scalar path"
            );
        }
        let passes = if quick { 3 } else { 10 };
        let baseline_seconds = time_iterations(passes, || {
            for &corner in &corners {
                black_box(evaluate_multiplier_at_scalar(&multiplier, corner).unwrap());
            }
        });
        let optimized_seconds = time_iterations(passes, || {
            for &corner in &corners {
                black_box(evaluate_multiplier_at(&multiplier, corner).unwrap());
            }
        });
        workloads.push(Workload {
            name: "pvt_corner_sweep_9_corners",
            baseline: "scalar-per-pair",
            optimized: "batched-analog-grid",
            baseline_seconds,
            optimized_seconds,
            iterations: passes * corners.len(),
            flops_per_iteration: 0.0,
            lut_lookups_per_iteration: 0.0,
        });
    }

    // 3. Experiment start-up: full fast-grid recalibration vs. loading the
    //    persistent snapshot (what every experiment binary now does).
    {
        let technology = Technology::tsmc65_like();
        let config = CalibrationConfig::fast();
        let dir = std::env::temp_dir().join(format!("optima-bench-report-{}", std::process::id()));
        let path = dir.join("calibration-fast.v1.snap");
        let calibrate_start = Instant::now();
        let outcome = Calibrator::new(technology.clone(), config.clone())
            .run()
            .expect("calibration succeeds");
        let baseline_seconds = calibrate_start.elapsed().as_secs_f64();
        let array = optima_circuit::array::ArrayConfig::default();
        snapshot::save(&path, &outcome, &technology, &config, &array)
            .expect("snapshot save succeeds");
        let load_start = Instant::now();
        let loaded =
            snapshot::load(&path, &technology, &config, &array).expect("snapshot load succeeds");
        let optimized_seconds = load_start.elapsed().as_secs_f64();
        assert_eq!(outcome, loaded, "snapshot load must be bit-exact");
        std::fs::remove_dir_all(&dir).ok();
        workloads.push(Workload {
            name: "experiment_startup_fast_calibration",
            baseline: "recalibrate",
            optimized: "snapshot-load",
            baseline_seconds,
            optimized_seconds,
            iterations: 1,
            flops_per_iteration: 0.0,
            lut_lookups_per_iteration: 0.0,
        });
    }

    workloads
}

fn write_report(
    path: &str,
    report_name: &str,
    equivalence_key: &str,
    quick: bool,
    workloads: &[Workload],
) {
    // Emitted through the shared serializer of `optima_bench::json` — the
    // same writer behind the structured experiment reports.
    let document = Json::object(vec![
        ("report", Json::str(report_name)),
        ("generated_by", Json::str("bench_report")),
        ("quick_mode", Json::Bool(quick)),
        (equivalence_key, Json::str("bit-identical")),
        (
            "workloads",
            Json::Array(workloads.iter().map(Workload::to_json).collect()),
        ),
    ]);
    std::fs::write(path, document.render())
        .unwrap_or_else(|err| panic!("{path} is writable: {err}"));
}

fn print_report(title: &str, workloads: &[Workload]) {
    println!("# {title}\n");
    for workload in workloads {
        println!(
            "{:<36} {:>10.3} ms -> {:>10.3} ms   {:>6.1}x  ({} vs {})",
            workload.name,
            workload.baseline_seconds * 1e3,
            workload.optimized_seconds * 1e3,
            workload.speedup(),
            workload.baseline,
            workload.optimized,
        );
    }
    println!();
}
