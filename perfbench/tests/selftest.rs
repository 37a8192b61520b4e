//! Self-tests of the benchmark: tiny smoke runs of every workload, checks
//! that trip on perturbed outputs, and the DSE grid domain.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use optima_circuit::array::ArrayConfig;
use optima_circuit::technology::Technology;
use optima_core::calibration::{CalibrationConfig, Calibrator};
use optima_imc::dse::{DesignPoint, DesignPointResult, DesignSpace, DesignSpaceExplorer};
use optima_imc::fom::select_corners;
use optima_imc::metrics::MultiplierMetrics;
use optima_math::units::{FemtoJoules, Seconds, Volts};
use perfbench::checks::{self, Ledger};
use perfbench::digest::Digest;
use perfbench::runner::{self, Options, Outcome};
use perfbench::workloads::calibrate::Calibrate;
use perfbench::workloads::dnn_eval::DnnEval;
use perfbench::workloads::dse::{self, Dse, TAU0_NS, VDAC_FULL_SCALE_V, VDAC_ZERO_V};
use perfbench::workloads::serve::Serve;
use perfbench::workloads::Workload;
use perfbench::Config;
use std::path::PathBuf;

/// Metric names of one section of `BENCHMARK.json` (`"end_to_end"` or
/// `"per_layer"`), in file order.
fn listed_metrics(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section is present");
    let rest = &text[start..];
    let end = rest[1..]
        .find("\"per_layer\"")
        .map_or(rest.len(), |i| i + 1);
    rest[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|chunk| chunk[..chunk.find('"').expect("closing quote")].to_string())
        .collect()
}

fn smoke<W: Workload>(trace: bool) -> Outcome {
    let options = Options {
        seconds: 0.0,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest"),
    };
    let config = Config {
        seed: 7,
        threads: 2,
        tiny: true,
    };
    let outcome = runner::run::<W>(&config, &options).expect("set-up succeeds");
    assert!(outcome.correct(), "{}: {:?}", W::NAME, outcome.errors);
    assert!(
        outcome.attempted > W::CYCLE,
        "a cycle plus the single-thread re-run"
    );
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    let listed = listed_metrics(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(
        names,
        listed,
        "{} reports the metrics BENCHMARK.json lists",
        W::NAME
    );
    outcome
}

fn smoke_both<W: Workload>() {
    let untraced = smoke::<W>(false);
    assert!(untraced
        .metrics
        .iter()
        .all(|m| m.value.is_finite() && m.value > 0.0));
    smoke::<W>(true);
}

#[test]
fn calibrate_smoke_run() {
    smoke_both::<Calibrate>();
}

#[test]
fn dse_smoke_run() {
    smoke_both::<Dse>();
}

#[test]
fn dnn_eval_smoke_run() {
    smoke_both::<DnnEval>();
}

#[test]
fn serve_smoke_run() {
    smoke_both::<Serve>();
}

#[test]
fn value_checks_trip_on_perturbed_outputs() {
    let logits = [0.25f32, -1.5, 3.0];
    assert!(checks::bit_identical("logits", &logits, &logits).is_ok());
    let mut perturbed = logits;
    perturbed[1] = f32::from_bits(perturbed[1].to_bits() + 1);
    assert!(checks::bit_identical("logits", &perturbed, &logits).is_err());
    assert!(checks::bit_identical("logits", &logits[..2], &logits).is_err());

    assert!(checks::all_finite("v", &[1.0, 2.0]).is_ok());
    assert!(checks::all_finite("v", &[1.0, f64::NAN]).is_err());
    assert!(checks::within("mean", 0.52, 0.5, 0.05).is_ok());
    assert!(checks::within("mean", 0.56, 0.5, 0.05).is_err());
    assert!(checks::within("mean", f64::NAN, 0.5, 0.05).is_err());
    assert!(checks::count("n", 1034, 1034).is_ok());
    assert!(checks::count("n", 1033, 1034).is_err());
}

fn result(tau0: f64, epsilon: f64, energy: f64, sigma: f64) -> DesignPointResult {
    DesignPointResult {
        point: DesignPoint {
            tau0: Seconds(tau0),
            vdac_zero: Volts(0.3),
            vdac_full_scale: Volts(1.0),
            array: ArrayConfig::paper(),
        },
        metrics: MultiplierMetrics {
            epsilon_mul: epsilon,
            rms_error_lsb: epsilon,
            max_error_lsb: epsilon,
            energy_per_multiply: FemtoJoules(energy),
            energy_per_operation: FemtoJoules(energy),
            sigma_at_max_discharge: Volts(sigma),
            worst_case_sigma: Volts(sigma),
        },
    }
}

#[test]
fn selection_check_trips_on_a_perturbed_corner() {
    let mut results = vec![
        result(0.16e-9, 5.0, 40.0, 0.005),
        result(0.18e-9, 15.0, 30.0, 0.006),
        result(0.24e-9, 10.0, 70.0, 0.003),
    ];
    let selected = select_corners(&results).unwrap();
    assert!(checks::selection_consistent(&results, &selected).is_ok());
    for (index, perturb) in [
        |r: &mut DesignPointResult| r.metrics.epsilon_mul = 1.0,
        |r: &mut DesignPointResult| r.metrics.energy_per_multiply = FemtoJoules(1.0),
        |r: &mut DesignPointResult| r.metrics.sigma_at_max_discharge = Volts(0.001),
    ]
    .into_iter()
    .enumerate()
    {
        let original = results[(index + 1) % 3];
        perturb(&mut results[(index + 1) % 3]);
        assert!(checks::selection_consistent(&results, &selected).is_err());
        results[(index + 1) % 3] = original;
    }
}

#[test]
fn fingerprint_ledger_trips_on_a_perturbed_repeat() {
    let fingerprint = |value: f64| {
        let mut digest = Digest::new();
        digest.f64s(&[1.0, value]);
        digest.finish()
    };
    let mut ledger = Ledger::default();
    ledger.record(0, fingerprint(2.0)).unwrap();
    ledger.record(1, fingerprint(3.0)).unwrap();
    let digest = ledger.digest(2);
    assert!(ledger.record(0, fingerprint(2.0)).is_ok());
    let one_ulp = f64::from_bits(2.0f64.to_bits() + 1);
    assert_ne!(fingerprint(2.0), fingerprint(one_ulp));
    assert!(ledger.record(0, fingerprint(one_ulp)).is_err());
    assert_eq!(
        ledger.digest(2),
        digest,
        "a rejected repeat leaves the digest"
    );
}

#[test]
fn seeded_dse_grids_stay_in_the_validated_domain() {
    let inside = |values: &[f64], (lo, hi): (f64, f64)| {
        values.iter().all(|&v| (lo..=hi).contains(&v)) && values.windows(2).all(|w| w[0] < w[1])
    };
    for seed in 0..200 {
        for round in 0..Dse::CYCLE {
            let space = dse::design_space(seed, round, false);
            let tau0_ns: Vec<f64> = space.tau0_values.iter().map(|t| t * 1e9).collect();
            assert!(
                inside(&tau0_ns, TAU0_NS),
                "seed {seed} round {round}: {tau0_ns:?}"
            );
            assert!(inside(&space.vdac_zero_values, VDAC_ZERO_V));
            assert!(inside(&space.vdac_full_scale_values, VDAC_FULL_SCALE_V));
            assert_eq!(space.len(), 640, "every V_DAC,0 < V_DAC,FS pair is valid");
        }
    }
}

#[test]
fn tau0_beyond_the_domain_leaves_the_calibrated_time_range() {
    let models = Calibrator::new(Technology::tsmc65_like(), CalibrationConfig::fast())
        .run()
        .expect("calibration succeeds")
        .into_models();
    let explorer = DesignSpaceExplorer::new(models).with_threads(1);
    let space = |tau0_ns: f64| DesignSpace {
        tau0_values: vec![tau0_ns * 1e-9],
        vdac_zero_values: vec![0.45],
        vdac_full_scale_values: vec![1.0],
        array_configs: vec![ArrayConfig::paper()],
    };
    assert!(explorer.explore(&space(TAU0_NS.1)).is_ok());
    let err = explorer
        .explore(&space(0.28))
        .expect_err("8 x 0.28 ns exceeds 2 ns");
    assert!(format!("{err:?}").contains("2.24"), "{err:?}");
}
