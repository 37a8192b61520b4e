//! Fig. 7 — design-space exploration of the 4-bit in-SRAM multiplier.
//!
//! Sweeps the paper's 48 design corners (τ0 × V_DAC,0 × V_DAC,FS) with the
//! OPTIMA models and prints the two panels of Fig. 7: error and energy as a
//! function of V_DAC,FS for several V_DAC,0 values (left, τ0 = 0.16 ns) and
//! as a function of τ0 for several V_DAC,FS values (right, V_DAC,0 = 0.4 V).
//!
//! When the context selects a non-default [`ArrayConfig`], the array geometry
//! becomes a fourth sweep axis co-explored with the electrical parameters
//! (the paper macro plus the selected geometry), and a third panel compares
//! the best corners per geometry.  At the default geometry the output is the
//! paper figure, unchanged.

use super::{BenchError, Experiment, ExperimentContext};
use crate::report::{Column, Report, Scalar, Table};
use optima_circuit::array::ArrayConfig;
use optima_imc::dse::{DesignSpace, DesignSpaceExplorer};

pub struct Fig7Dse;

impl Experiment for Fig7Dse {
    fn name(&self) -> &'static str {
        "fig7_dse"
    }

    fn description(&self) -> &'static str {
        "48-corner design-space exploration: error/energy vs. DAC span and tau0"
    }

    fn paper_ref(&self) -> &'static str {
        "Fig. 7"
    }

    fn run(&self, ctx: &mut ExperimentContext) -> Result<Report, BenchError> {
        let models = ctx.models()?;
        // The sweep is error-strict (a failing corner aborts the run naming
        // the corner — corners are never silently dropped) and bit-identical
        // at any thread count.
        let explorer = DesignSpaceExplorer::new(models).with_threads(ctx.threads());
        let selected = ctx.array();
        let space = if selected.is_paper() {
            DesignSpace::paper_sweep()
        } else {
            // Geometry joins the electrical axes: every (tau0, DAC) corner is
            // evaluated on both the paper macro and the selected array.
            DesignSpace::paper_sweep().with_arrays(vec![ArrayConfig::default(), selected])
        };
        let mut report = Report::new();
        report
            .heading(
                1,
                format!(
                    "Fig. 7 — design-space exploration ({} corners, {} worker threads)",
                    space.len(),
                    ctx.effective_threads()
                ),
            )
            .blank();
        let results = explorer.explore(&space)?;
        if results.len() != space.len() {
            return Err(BenchError::Failed(format!(
                "error-strict sweep must cover every corner: got {} of {}",
                results.len(),
                space.len()
            )));
        }

        report
            .heading(
                2,
                "Left panel: sweep of V_DAC,FS for each V_DAC,0 (tau0 = 0.16 ns)",
            )
            .blank();
        let mut left = Table::new(vec![
            Column::unit("V_DAC,0", "V"),
            Column::unit("V_DAC,FS", "V"),
            Column::unit("avg error", "LSB"),
            Column::unit("avg energy/op", "fJ"),
        ]);
        for result in &results {
            if result.point.array.is_paper() && (result.point.tau0.0 - 0.16e-9).abs() < 1e-15 {
                left.push_row(vec![
                    Scalar::Float(result.point.vdac_zero.0, 1),
                    Scalar::Float(result.point.vdac_full_scale.0, 1),
                    Scalar::Float(result.metrics.epsilon_mul, 2),
                    Scalar::Float(result.metrics.energy_per_multiply.0, 2),
                ]);
            }
        }
        report.table(left);

        report
            .blank()
            .heading(
                2,
                "Right panel: sweep of tau0 for each V_DAC,FS (V_DAC,0 = 0.4 V)",
            )
            .blank();
        let mut right = Table::new(vec![
            Column::unit("tau0", "ns"),
            Column::unit("V_DAC,FS", "V"),
            Column::unit("avg error", "LSB"),
            Column::unit("avg energy/op", "fJ"),
        ]);
        for result in &results {
            if result.point.array.is_paper() && (result.point.vdac_zero.0 - 0.4).abs() < 1e-12 {
                right.push_row(vec![
                    Scalar::Float(result.point.tau0.0 * 1e9, 2),
                    Scalar::Float(result.point.vdac_full_scale.0, 1),
                    Scalar::Float(result.metrics.epsilon_mul, 2),
                    Scalar::Float(result.metrics.energy_per_multiply.0, 2),
                ]);
            }
        }
        report.table(right);

        if !selected.is_paper() {
            report
                .blank()
                .heading(2, "Geometry co-exploration: best corner per array")
                .blank();
            let mut best = Table::new(vec![
                Column::plain("Geometry"),
                Column::unit("tau0", "ns"),
                Column::unit("V_DAC,0", "V"),
                Column::unit("V_DAC,FS", "V"),
                Column::unit("min avg error", "LSB"),
                Column::unit("energy/op", "fJ"),
            ]);
            for array in [ArrayConfig::default(), selected] {
                let winner = results
                    .iter()
                    .filter(|r| r.point.array == array)
                    .min_by(|a, b| a.metrics.epsilon_mul.total_cmp(&b.metrics.epsilon_mul))
                    .ok_or_else(|| {
                        BenchError::Failed(format!(
                            "co-explored sweep has no corners for geometry {}",
                            array.describe()
                        ))
                    })?;
                best.push_row(vec![
                    Scalar::text(array.describe()),
                    Scalar::Float(winner.point.tau0.0 * 1e9, 2),
                    Scalar::Float(winner.point.vdac_zero.0, 1),
                    Scalar::Float(winner.point.vdac_full_scale.0, 1),
                    Scalar::Float(winner.metrics.epsilon_mul, 2),
                    Scalar::Float(winner.metrics.energy_per_multiply.0, 2),
                ]);
            }
            report.table(best);
        }

        report
            .blank()
            .note("Expected shape (paper): higher V_DAC,FS costs linearly more energy but improves")
            .note(
                "accuracy in most cases; raising V_DAC,0 or tau0 also costs energy, where V_DAC,0",
            )
            .note("helps the error and tau0 has little accuracy influence.");
        Ok(report)
    }
}
