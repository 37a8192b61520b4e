//! Ablation — linear vs. square-root pre-distorted word-line DAC.
//!
//! Section III-1 of the paper notes that the quadratic device current makes a
//! conventional (linear) DAC produce nonlinear multiplication results and
//! mentions the nonlinear DAC of ref. [15] as a potential fix.  This ablation
//! quantifies that effect with the OPTIMA models.

use super::{BenchError, Experiment, ExperimentContext};
use crate::report::{Column, Report, Scalar, Table};
use optima_circuit::dac::DacTransfer;
use optima_imc::metrics::evaluate_multiplier;
use optima_imc::multiplier::InSramMultiplier;

pub struct AblationDac;

impl Experiment for AblationDac {
    fn name(&self) -> &'static str {
        "ablation_dac"
    }

    fn description(&self) -> &'static str {
        "Linear vs. square-root pre-distorted word-line DAC across the Table I corners"
    }

    fn paper_ref(&self) -> &'static str {
        "ablation (Sec. III-1)"
    }

    fn run(&self, ctx: &mut ExperimentContext) -> Result<Report, BenchError> {
        let models = ctx.models()?;
        let mut report = Report::new();
        report
            .heading(1, "Ablation — DAC transfer curve vs. multiplier accuracy")
            .blank();
        let mut table = Table::new(vec![
            Column::plain("Corner"),
            Column::plain("DAC transfer"),
            Column::unit("eps_mul", "LSB"),
            Column::unit("max error", "LSB"),
            Column::unit("E_mul", "fJ"),
        ]);
        for (name, config) in crate::paper_corners() {
            for (label, transfer) in [
                ("linear", DacTransfer::Linear),
                ("sqrt pre-distortion", DacTransfer::SquareRootPredistortion),
            ] {
                let multiplier =
                    InSramMultiplier::new(models.clone(), config.with_dac_transfer(transfer))?;
                let metrics = evaluate_multiplier(&multiplier)?;
                table.push_row(vec![
                    Scalar::text(name),
                    Scalar::text(label),
                    Scalar::Float(metrics.epsilon_mul, 2),
                    Scalar::Float(metrics.max_error_lsb, 1),
                    Scalar::Float(metrics.energy_per_multiply.0, 1),
                ]);
            }
        }
        report.table(table);
        report
            .blank()
            .note("The square-root pre-distortion linearises the quadratic device current and")
            .note("reduces the multiplication error, at the cost of a harder DAC implementation")
            .note("(which is why the paper's main flow keeps the linear DAC).");
        Ok(report)
    }
}
