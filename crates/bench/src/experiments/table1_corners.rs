//! Table I — selected design corners.
//!
//! Explores the 48-corner design space, computes the figure of merit
//! (Eq. 9) and selects the *fom*, *power* and *variation* corners, printing
//! their parameters, ϵ_mul and E_mul next to the paper's values.

use super::{BenchError, Experiment, ExperimentContext};
use crate::report::{Column, Report, Scalar, Table};
use optima_imc::dse::{DesignSpace, DesignSpaceExplorer};
use optima_imc::fom::select_corners;
use optima_imc::pareto::pareto_front;

pub struct Table1Corners;

impl Experiment for Table1Corners {
    fn name(&self) -> &'static str {
        "table1_corners"
    }

    fn description(&self) -> &'static str {
        "Figure-of-merit corner selection over the 48-corner design space, plus the Pareto front"
    }

    fn paper_ref(&self) -> &'static str {
        "Table I"
    }

    fn run(&self, ctx: &mut ExperimentContext) -> Result<Report, BenchError> {
        let models = ctx.models()?;
        let explorer = DesignSpaceExplorer::new(models).with_threads(ctx.threads());
        let results = explorer.explore(&DesignSpace::paper_sweep())?;
        let selected = select_corners(&results)?;
        let mut report = Report::new();

        report
            .heading(1, "Table I — selected design corners")
            .blank();
        let mut table = Table::new(vec![
            Column::plain("Corner"),
            Column::unit("tau0", "ns"),
            Column::unit("V_DAC,0", "V"),
            Column::unit("V_DAC,FS", "V"),
            Column::unit("eps_mul", "LSB"),
            Column::unit("E_mul", "fJ"),
            Column::unit("sigma@max", "mV"),
            Column::plain("FOM"),
        ]);
        for (name, corner) in [
            ("fom", &selected.fom),
            ("power", &selected.power),
            ("variation", &selected.variation),
        ] {
            table.push_row(vec![
                Scalar::text(name),
                Scalar::Float(corner.point.tau0.0 * 1e9, 2),
                Scalar::Float(corner.point.vdac_zero.0, 1),
                Scalar::Float(corner.point.vdac_full_scale.0, 1),
                Scalar::Float(corner.metrics.epsilon_mul, 2),
                Scalar::Float(corner.metrics.energy_per_multiply.0, 1),
                Scalar::Float(corner.metrics.sigma_at_max_discharge.0 * 1e3, 2),
                Scalar::Float(corner.metrics.figure_of_merit(), 4),
            ]);
        }
        report.table(table);

        report.blank().note("Paper values for reference:");
        let mut paper = Table::new(vec![
            Column::plain("Corner"),
            Column::unit("tau0", "ns"),
            Column::unit("V_DAC,0", "V"),
            Column::unit("V_DAC,FS", "V"),
            Column::plain("eps_mul"),
            Column::plain("E_mul"),
        ]);
        for row in [
            ["fom", "0.16", "0.3", "1.0", "4.78", "44 fJ"],
            ["power", "0.16", "0.3", "0.7", "15", "37 fJ"],
            ["variation", "0.24", "0.4", "1.0", "9.6", "69.8 fJ"],
        ] {
            paper.push_row(row.iter().map(|cell| Scalar::text(*cell)).collect());
        }
        report.table(paper);

        let front = pareto_front(&results);
        report.blank().metric_line(
            "pareto_front_size",
            Scalar::Int(front.len() as i64),
            None,
            format!(
                "Pareto-optimal corners over (energy, error): {} of {}",
                front.len(),
                results.len()
            ),
        );
        let mut pareto = Table::new(vec![
            Column::unit("tau0", "ns"),
            Column::unit("V_DAC,0", "V"),
            Column::unit("V_DAC,FS", "V"),
            Column::unit("eps_mul", "LSB"),
            Column::unit("E_mul", "fJ"),
        ]);
        for corner in &front {
            pareto.push_row(vec![
                Scalar::Float(corner.point.tau0.0 * 1e9, 2),
                Scalar::Float(corner.point.vdac_zero.0, 1),
                Scalar::Float(corner.point.vdac_full_scale.0, 1),
                Scalar::Float(corner.metrics.epsilon_mul, 2),
                Scalar::Float(corner.metrics.energy_per_multiply.0, 1),
            ]);
        }
        report.table(pareto);
        Ok(report)
    }
}
