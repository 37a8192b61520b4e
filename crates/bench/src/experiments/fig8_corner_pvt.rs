//! Fig. 8 — PVT and mismatch analysis of the selected corners.
//!
//! For the *fom*, *power* and *variation* corners of Table I: average
//! multiplication error and analog standard deviation as a function of the
//! expected result (left panels) and the influence of supply-voltage and
//! temperature variations on the error (right panels).

use super::{BenchError, Experiment, ExperimentContext};
use crate::report::{Column, Report, Scalar, Table};
use optima_imc::multiplier::InSramMultiplier;
use optima_imc::pvt_analysis::{PvtAnalysis, PvtAnalysisConfig};

pub struct Fig8CornerPvt;

impl Experiment for Fig8CornerPvt {
    fn name(&self) -> &'static str {
        "fig8_corner_pvt"
    }

    fn description(&self) -> &'static str {
        "Per-corner PVT and mismatch Monte-Carlo analysis of the Table I corners"
    }

    fn paper_ref(&self) -> &'static str {
        "Fig. 8"
    }

    fn run(&self, ctx: &mut ExperimentContext) -> Result<Report, BenchError> {
        let models = ctx.models()?;
        let config = if ctx.is_fast() {
            PvtAnalysisConfig::fast()
        } else {
            PvtAnalysisConfig::default()
        };
        let mut report = Report::new();

        report
            .heading(1, "Fig. 8 — corner PVT and mismatch analysis")
            .blank();
        for (name, corner_config) in ctx.corners() {
            let multiplier = InSramMultiplier::new(models.clone(), corner_config)?;
            let analysis = PvtAnalysis::run(&multiplier, &config)?;

            report.heading(2, format!("Corner `{name}`")).blank();
            report
                .metric_line(
                    format!("{name}.nominal_epsilon_mul_lsb"),
                    Scalar::Float(analysis.nominal_epsilon_mul, 2),
                    Some("LSB"),
                    format!(
                        "Average error: {:.2} LSB, worst-case analog sigma: {:.2} mV",
                        analysis.nominal_epsilon_mul,
                        analysis.worst_case_sigma * 1e3
                    ),
                )
                .hidden_metric(
                    format!("{name}.worst_case_sigma_mv"),
                    Scalar::Float(analysis.worst_case_sigma * 1e3, 2),
                    Some("mV"),
                )
                .blank();

            report
                .heading(3, "Error / sigma vs. expected result (left panel, binned)")
                .blank();
            let mut binned = Table::new(vec![
                Column::plain("expected result"),
                Column::unit("avg error", "LSB"),
                Column::unit("analog sigma", "mV"),
            ]);
            // Bin the 116 distinct expected results into coarse ranges for
            // readability.
            let profile = &analysis.result_profile;
            for range_start in (0..=200).step_by(50) {
                let range_end = range_start + 50;
                let indices: Vec<usize> = profile
                    .expected_results
                    .iter()
                    .enumerate()
                    .filter(|(_, &r)| (range_start..range_end).contains(&(r as usize)))
                    .map(|(i, _)| i)
                    .collect();
                if indices.is_empty() {
                    continue;
                }
                let avg_error = indices
                    .iter()
                    .map(|&i| profile.average_error_lsb[i])
                    .sum::<f64>()
                    / indices.len() as f64;
                let avg_sigma = indices
                    .iter()
                    .map(|&i| profile.analog_sigma[i])
                    .sum::<f64>()
                    / indices.len() as f64;
                binned.push_row(vec![
                    Scalar::text(format!("{range_start}..{range_end}")),
                    Scalar::Float(avg_error, 2),
                    Scalar::Float(avg_sigma * 1e3, 2),
                ]);
            }
            report.table(binned);

            report
                .blank()
                .heading(3, "Error vs. supply voltage (right panel)")
                .blank();
            let mut supply = Table::new(vec![
                Column::unit("VDD", "V"),
                Column::unit("avg error", "LSB"),
            ]);
            for (vdd, error) in analysis
                .supply_sweep
                .condition_values
                .iter()
                .zip(analysis.supply_sweep.average_error_lsb.iter())
            {
                supply.push_row(vec![Scalar::Float(*vdd, 2), Scalar::Float(*error, 2)]);
            }
            report.table(supply);

            report
                .blank()
                .heading(3, "Error vs. temperature (right panel)")
                .blank();
            let mut temperature = Table::new(vec![
                Column::unit("T", "degC"),
                Column::unit("avg error", "LSB"),
            ]);
            for (temp, error) in analysis
                .temperature_sweep
                .condition_values
                .iter()
                .zip(analysis.temperature_sweep.average_error_lsb.iter())
            {
                temperature.push_row(vec![Scalar::Float(*temp, 0), Scalar::Float(*error, 2)]);
            }
            report.table(temperature);

            let mc = &analysis.mismatch_monte_carlo;
            report
                .blank()
                .heading(
                    3,
                    format!(
                        "Mismatch Monte Carlo ({} instances)",
                        mc.per_sample_error_lsb.len()
                    ),
                )
                .blank();
            let mut monte_carlo = Table::new(vec![
                Column::unit("mean error", "LSB"),
                Column::unit("sigma", "LSB"),
                Column::unit("worst", "LSB"),
            ]);
            monte_carlo.push_row(vec![
                Scalar::Float(mc.mean_error_lsb, 3),
                Scalar::Float(mc.std_error_lsb, 3),
                Scalar::Float(mc.worst_error_lsb, 3),
            ]);
            report.table(monte_carlo);
            report.blank();
        }
        report
            .note("Expected shape (paper): the power corner struggles everywhere, the variation")
            .note("corner is poor for small expected results but robust for large ones, and the")
            .note("fom corner is the least susceptible to voltage and temperature variations.");
        Ok(report)
    }
}
