//! Quickstart: calibrate the OPTIMA models and read an in-SRAM multiplier's table.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use optima_suite::optima_circuit::prelude::*;
use optima_suite::optima_core::calibration::{CalibrationConfig, Calibrator};
use optima_suite::optima_imc::multiplier::{InSramMultiplier, MultiplierConfig, MultiplierTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the technology and calibrate the OPTIMA models against the
    //    golden-reference transient simulator (the slow-but-accurate path).
    let technology = Technology::tsmc65_like();
    println!("Calibrating OPTIMA models for {} ...", technology.name);
    let outcome = Calibrator::new(technology, CalibrationConfig::fast()).run()?;
    let report = outcome.report();
    println!(
        "  basic discharge RMS: {:.2} mV (from {} circuit simulations)",
        report.basic_discharge_rms_mv, report.circuit_simulations
    );

    // 2. Evaluate a single discharge without solving differential equations.
    let models = outcome.models().clone();
    let v_bl = models.bitline_voltage(Seconds(1.0e-9), Volts(0.8), Volts(1.0), Celsius(25.0))?;
    println!("  V_BL after 1 ns at V_WL = 0.8 V: {:.4} V", v_bl.0);

    // 3. Build the paper's fom-corner 4-bit multiplier and read its table.
    let multiplier = InSramMultiplier::new(models, MultiplierConfig::paper_fom_corner())?;
    let table =
        MultiplierTable::from_multiplier(&multiplier, multiplier.nominal_operating_point())?;
    for (a, d) in [(3u16, 5u16), (9, 11), (15, 15)] {
        let result = table.lookup(a, d);
        let expected = a * d;
        println!(
            "  {a:2} x {d:2} -> {result:3} (expected {expected:3}, error {:+} LSB)",
            i32::from(result) - i32::from(expected)
        );
    }
    println!(
        "  {:.1} fJ per multiply on average over the input space",
        table.average_multiply_energy().0
    );
    Ok(())
}
