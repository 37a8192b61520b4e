//! Integration test: calibration → multiplier → design-space exploration →
//! corner selection, spanning `optima-core` and `optima-imc`.

use optima_suite::optima_circuit::prelude::*;
use optima_suite::optima_core::calibration::{CalibrationConfig, Calibrator};
use optima_suite::optima_core::model::suite::ModelSuite;
use optima_suite::optima_imc::dse::{DesignSpace, DesignSpaceExplorer};
use optima_suite::optima_imc::fom::select_corners;
use optima_suite::optima_imc::metrics::evaluate_multiplier;
use optima_suite::optima_imc::multiplier::{InSramMultiplier, MultiplierConfig};
use optima_suite::optima_imc::pareto::pareto_front;
use optima_suite::optima_imc::pvt_analysis::{PvtAnalysis, PvtAnalysisConfig};

fn calibrated_models() -> ModelSuite {
    Calibrator::new(Technology::tsmc65_like(), CalibrationConfig::fast())
        .run()
        .expect("calibration succeeds")
        .into_models()
}

#[test]
fn fom_corner_multiplier_is_reasonably_accurate_with_calibrated_models() {
    let models = calibrated_models();
    let multiplier = InSramMultiplier::new(models, MultiplierConfig::paper_fom_corner())
        .expect("corner configuration is valid");
    let metrics = evaluate_multiplier(&multiplier);
    // The paper reports 4.78 LSB average error for its fom corner; our
    // substrate differs, but the error must stay in the single-digit to
    // low-double-digit LSB range and the energy in the tens of femtojoules.
    assert!(
        metrics.epsilon_mul < 30.0,
        "fom corner error {} LSB is implausibly high",
        metrics.epsilon_mul
    );
    assert!(metrics.energy_per_multiply.0 > 1.0);
    assert!(metrics.energy_per_multiply.0 < 500.0);
}

#[test]
fn exploration_and_corner_selection_follow_the_paper_trends() {
    let models = calibrated_models();
    let explorer = DesignSpaceExplorer::new(models).with_threads(4);
    let results = explorer
        .explore(&DesignSpace::paper_sweep())
        .expect("exploration succeeds");
    assert_eq!(results.len(), 48);

    let selected = select_corners(&results).expect("selection succeeds");
    // power uses the smallest energy by definition.
    for result in &results {
        assert!(
            selected.power.metrics.energy_per_multiply.0
                <= result.metrics.energy_per_multiply.0 + 1e-9
        );
    }
    // The fom corner must beat the power corner on accuracy.
    assert!(selected.fom.metrics.epsilon_mul <= selected.power.metrics.epsilon_mul + 1e-9);

    // Energy grows with V_DAC,FS for fixed other parameters (Fig. 7 trend).
    let mut by_fs: Vec<&_> = results
        .iter()
        .filter(|r| {
            (r.point.tau0.0 - 0.16e-9).abs() < 1e-15 && (r.point.vdac_zero.0 - 0.3).abs() < 1e-12
        })
        .collect();
    by_fs.sort_by(|a, b| {
        a.point
            .vdac_full_scale
            .0
            .total_cmp(&b.point.vdac_full_scale.0)
    });
    for pair in by_fs.windows(2) {
        assert!(
            pair[1].metrics.energy_per_multiply.0 >= pair[0].metrics.energy_per_multiply.0,
            "energy must grow with V_DAC,FS"
        );
    }

    // The Pareto front is non-empty and contains the power corner.
    let front = pareto_front(&results);
    assert!(!front.is_empty());
    assert!(front.iter().any(|r| (r.metrics.energy_per_multiply.0
        - selected.power.metrics.energy_per_multiply.0)
        .abs()
        < 1e-9));
}

#[test]
fn pvt_analysis_reports_bounded_voltage_and_temperature_sensitivity() {
    let models = calibrated_models();
    let multiplier = InSramMultiplier::new(models, MultiplierConfig::paper_fom_corner())
        .expect("corner configuration is valid");
    let analysis =
        PvtAnalysis::run(&multiplier, &PvtAnalysisConfig::fast()).expect("analysis succeeds");

    // Both operating-condition sweeps must be populated and their influence on
    // the error must stay bounded (a few LSB over the swept windows); the
    // paper's Fig. 8 shows both voltage and temperature exerting a visible
    // but limited effect on the fom corner.
    let spread = |values: &[f64]| {
        values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - values.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    let supply_spread = spread(&analysis.supply_sweep.average_error_lsb);
    let temperature_spread = spread(&analysis.temperature_sweep.average_error_lsb);
    assert!(supply_spread.is_finite() && supply_spread >= 0.0);
    assert!(temperature_spread.is_finite() && temperature_spread >= 0.0);
    assert!(
        supply_spread < 20.0,
        "supply influence {supply_spread} LSB is implausible"
    );
    assert!(
        temperature_spread < 20.0,
        "temperature influence {temperature_spread} LSB is implausible"
    );
    assert!(analysis.worst_case_sigma > 0.0);
    assert!(!analysis.result_profile.expected_results.is_empty());
}
