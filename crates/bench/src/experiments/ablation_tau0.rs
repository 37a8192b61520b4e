//! Ablation — ADC sampling time τ0 vs. accuracy and energy.
//!
//! Section III-1: small τ0 keeps the pass transistors in saturation but
//! shrinks the voltage swing (worse SNR); large τ0 increases swing and energy
//! and eventually pushes the discharge into the linear region.  This ablation
//! sweeps τ0 beyond the paper's three values.

use super::{BenchError, Experiment, ExperimentContext};
use crate::report::{Column, Report, Scalar, Table};
use optima_imc::metrics::evaluate_multiplier;
use optima_imc::multiplier::{InSramMultiplier, MultiplierConfig};
use optima_math::units::{Seconds, Volts};

pub struct AblationTau0;

impl Experiment for AblationTau0 {
    fn name(&self) -> &'static str {
        "ablation_tau0"
    }

    fn description(&self) -> &'static str {
        "tau0 sweep beyond the paper's grid: accuracy, energy and FOM trade-off"
    }

    fn paper_ref(&self) -> &'static str {
        "ablation (Sec. III-1)"
    }

    fn run(&self, ctx: &mut ExperimentContext) -> Result<Report, BenchError> {
        let models = ctx.models()?;
        let mut report = Report::new();
        report
            .heading(
                1,
                "Ablation — tau0 sweep at V_DAC,0 = 0.3 V, V_DAC,FS = 1.0 V",
            )
            .blank();
        let mut table = Table::new(vec![
            Column::unit("tau0", "ns"),
            Column::unit("eps_mul", "LSB"),
            Column::unit("E_mul", "fJ"),
            Column::unit("sigma@max", "mV"),
            Column::plain("FOM"),
        ]);
        for tau0_ps in [80, 120, 160, 200, 240] {
            let tau0 = Seconds(tau0_ps as f64 * 1e-12);
            let config = MultiplierConfig::new(tau0, Volts(0.3), Volts(1.0));
            let multiplier = InSramMultiplier::new(models.clone(), config)?;
            let metrics = evaluate_multiplier(&multiplier)?;
            table.push_row(vec![
                Scalar::Float(tau0.0 * 1e9, 2),
                Scalar::Float(metrics.epsilon_mul, 2),
                Scalar::Float(metrics.energy_per_multiply.0, 1),
                Scalar::Float(metrics.sigma_at_max_discharge.0 * 1e3, 2),
                Scalar::Float(metrics.figure_of_merit(), 4),
            ]);
        }
        report.table(table);
        report
            .blank()
            .note("Energy grows monotonically with tau0 while the accuracy changes little —")
            .note("the paper's observation that tau0 'has minimal influence on accuracy'.");
        Ok(report)
    }
}
