//! Integration test: the full calibration → model → evaluation pipeline
//! spanning `optima-circuit`, `optima-math` and `optima-core`.

use optima_suite::optima_circuit::montecarlo::MismatchSample;
use optima_suite::optima_circuit::prelude::*;
use optima_suite::optima_circuit::pvt::linspace;
use optima_suite::optima_core::calibration::{CalibrationConfig, Calibrator};

#[test]
fn calibrated_models_reproduce_the_golden_reference_across_the_grid() {
    let technology = Technology::tsmc65_like();
    let outcome = Calibrator::new(technology.clone(), CalibrationConfig::fast())
        .run()
        .expect("calibration succeeds");
    let models = outcome.models().clone();
    let simulator = TransientSimulator::new(technology.clone());
    let nominal = PvtConditions::nominal(&technology);

    // The fitted model must stay within a few millivolt of the circuit
    // simulator over an entire held-out grid (not just single points).
    let mut worst = 0.0f64;
    for &v_wl in &linspace(0.5, 0.98, 7) {
        let stimulus = DischargeStimulus {
            word_line_voltage: Volts(v_wl),
            duration: Seconds(2e-9),
            time_steps: 300,
            ..DischargeStimulus::default()
        };
        let waveform = simulator
            .discharge_waveform(&stimulus, &nominal, &MismatchSample::none())
            .unwrap();
        for &t in &linspace(0.3e-9, 1.9e-9, 6) {
            let reference = waveform.sample_at(Seconds(t)).unwrap().0;
            let predicted = models
                .bitline_voltage(Seconds(t), Volts(v_wl), Volts(1.0), Celsius(25.0))
                .unwrap()
                .0;
            worst = worst.max((reference - predicted).abs());
        }
    }
    assert!(
        worst < 0.025,
        "worst model deviation {worst} V is too large"
    );
}
