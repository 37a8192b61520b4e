//! Serving-engine load sweep: admission, batch-size distribution and
//! virtual latency percentiles over arrival rate × batch policy.
//!
//! The experiment drives the `optima_serve` pipeline (bounded queue →
//! batch coalescer → worker-shard pool) with the deterministic open-loop
//! load generator and an INT4-quantized CNN probe.  Every reported number
//! comes from the plan's virtual clock, so the table and
//! `BENCH_serving.json` are the same on every run.  The sweep, its gates
//! and the `BENCH_serving.json` schema live in [`crate::serving`].
//!
//! The experiment gates itself on bit identity (every served request's
//! logits equal a lone `forward_with` call) and the coalesce-wait bound;
//! a violation returns [`BenchError::Failed`] so the `optima` runner exits
//! nonzero.

use super::{BenchError, Experiment, ExperimentContext};
use crate::report::{Column, Report, Scalar, Table};
use crate::serving;

pub struct ServingLoad;

impl Experiment for ServingLoad {
    fn name(&self) -> &'static str {
        "serving_load"
    }

    fn description(&self) -> &'static str {
        "batched serving engine under open-loop load: arrival rate x batch policy sweep with bit-identity and coalesce-wait gates and virtual p50/p99 latency (writes BENCH_serving.json)"
    }

    fn paper_ref(&self) -> &'static str {
        "serving ext."
    }

    fn run(&self, ctx: &mut ExperimentContext) -> Result<Report, BenchError> {
        let report = serving::run_and_write(ctx.seed(), ctx.profile())?;

        let mut out = Report::new();
        out.heading(1, "Serving load — admission and virtual latency")
            .blank()
            .note(format!(
                "INT4 CNN probe; {} bit-identity checks against the single-request \
                 path passed; worst coalescing wait {} us (virtual clock)",
                report.bit_identity_checks, report.max_coalesce_wait_us,
            ))
            .blank();
        let mut table = Table::new(vec![
            Column::unit("Rate", "req/s"),
            Column::plain("Max batch"),
            Column::unit("Max delay", "us"),
            Column::plain("Shards"),
            Column::plain("Served"),
            Column::plain("Rejected"),
            Column::plain("Mean batch"),
            Column::unit("Virtual p50", "us"),
            Column::unit("Virtual p99", "us"),
        ]);
        for point in &report.points {
            table.push_row(vec![
                Scalar::Float(point.rate_per_sec, 0),
                Scalar::Int(point.max_batch as i64),
                Scalar::Int(point.max_delay_us as i64),
                Scalar::Int(point.shards as i64),
                Scalar::Int(point.served as i64),
                Scalar::Int(point.rejected as i64),
                Scalar::Float(point.mean_batch, 2),
                Scalar::Int(point.virtual_p50_us as i64),
                Scalar::Int(point.virtual_p99_us as i64),
            ]);
        }
        out.table(table);
        out.blank().note(format!(
            "machine-readable sweep written to {}",
            serving::REPORT_PATH
        ));
        Ok(out)
    }
}
