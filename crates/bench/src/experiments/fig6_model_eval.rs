//! Fig. 6 — OPTIMA discharge/energy model evaluation.
//!
//! Calibrates the models against the golden-reference circuit simulator and
//! reports the held-out RMS modeling errors of all six models (the paper
//! reports 0.76 mV, 0.88 mV, 0.76 mV, 0.59 mV, 0.15 fJ and 0.74 fJ for its
//! TSMC 65 nm reference; ours differ in absolute value because the golden
//! reference is a different simulator, but they must stay well below an ADC
//! LSB).

use super::{BenchError, Experiment, ExperimentContext};
use crate::report::{Column, Report, Scalar, Table};
use optima_core::evaluation::ModelEvaluator;

pub struct Fig6ModelEval;

impl Experiment for Fig6ModelEval {
    fn name(&self) -> &'static str {
        "fig6_model_eval"
    }

    fn description(&self) -> &'static str {
        "Training residuals and held-out RMS errors of the six fitted models (Eqs. 3-8)"
    }

    fn paper_ref(&self) -> &'static str {
        "Fig. 6"
    }

    fn run(&self, ctx: &mut ExperimentContext) -> Result<Report, BenchError> {
        let fast = ctx.is_fast();
        let (technology, outcome) = ctx.calibration()?.clone();
        let cal_report = *outcome.report();
        let mut report = Report::new();

        report
            .heading(1, "Fig. 6 — OPTIMA model calibration and evaluation")
            .blank()
            .note(format!(
                "Calibration used {} transient circuit simulations and {} training samples.",
                cal_report.circuit_simulations, cal_report.training_samples
            ))
            .blank()
            .heading(2, "Training residuals")
            .blank();

        let mut training = Table::new(vec![Column::plain("Model"), Column::plain("Training RMS")]);
        for (model, rms, unit) in [
            (
                "basic discharge (Eq. 3)",
                cal_report.basic_discharge_rms_mv,
                "mV",
            ),
            ("supply (Eq. 4)", cal_report.supply_rms_mv, "mV"),
            ("temperature (Eq. 5)", cal_report.temperature_rms_mv, "mV"),
            (
                "mismatch sigma (Eq. 6)",
                cal_report.mismatch_sigma_rms_mv,
                "mV",
            ),
            ("write energy (Eq. 7)", cal_report.write_energy_rms_fj, "fJ"),
            (
                "discharge energy (Eq. 8)",
                cal_report.discharge_energy_rms_fj,
                "fJ",
            ),
        ] {
            training.push_row(vec![
                Scalar::text(model),
                Scalar::Suffixed(rms, 3, if unit == "mV" { " mV" } else { " fJ" }),
            ]);
        }
        report.table(training);

        let evaluator = ModelEvaluator::new(technology, outcome.into_models())
            .with_reference_time_steps(if fast { 150 } else { 400 });
        let grid = if fast { 4 } else { 8 };
        let mc = if fast { 20 } else { 100 };
        let held_out = evaluator.rms_errors(grid, mc)?;

        report
            .blank()
            .heading(
                2,
                format!(
                    "Held-out RMS errors (Fig. 6 equivalent; '{}' vs '{}' through one DischargeBackend interface)",
                    evaluator.reference_backend().backend_name(),
                    evaluator.fitted_backend().backend_name()
                ),
            )
            .blank();
        let mut table = Table::new(vec![
            Column::plain("Model"),
            Column::plain("Held-out RMS"),
            Column::plain("Paper (TSMC 65 nm)"),
        ]);
        for (model, rms, suffix, paper) in [
            (
                "basic discharge (Eq. 3)",
                held_out.basic_discharge_mv,
                " mV",
                "0.76 mV",
            ),
            ("supply (Eq. 4)", held_out.supply_mv, " mV", "0.88 mV"),
            (
                "temperature (Eq. 5)",
                held_out.temperature_mv,
                " mV",
                "0.76 mV",
            ),
            (
                "mismatch sigma (Eq. 6)",
                held_out.mismatch_sigma_mv,
                " mV",
                "0.59 mV",
            ),
            (
                "write energy (Eq. 7)",
                held_out.write_energy_fj,
                " fJ",
                "0.15 fJ",
            ),
            (
                "discharge energy (Eq. 8)",
                held_out.discharge_energy_fj,
                " fJ",
                "0.74 fJ",
            ),
        ] {
            table.push_row(vec![
                Scalar::text(model),
                Scalar::Suffixed(rms, 3, suffix),
                Scalar::text(paper),
            ]);
        }
        report.table(table);
        let worst = held_out.worst_voltage_error_mv();
        report.blank().metric_line(
            "worst_voltage_model_rms_mv",
            Scalar::Float(worst, 3),
            Some("mV"),
            format!("Worst voltage-model RMS error: {worst:.3} mV (paper headline: 0.88 mV)."),
        );
        Ok(report)
    }
}
