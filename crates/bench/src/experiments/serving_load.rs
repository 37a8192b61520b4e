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
//! nonzero.  `--max-batch`, `--max-delay-us` and `--shards` pin the grid
//! to a single policy/shard point instead of the profile defaults.

use super::{BenchError, Experiment, ExperimentContext};
use crate::report::{Column, Report, Scalar, Table};
use crate::serving::{self, SweepSpec};

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
        let defaults = SweepSpec::for_profile(ctx.profile());
        // CLI-pinned knobs collapse their grid axis to the pinned value;
        // a half-pinned policy borrows the other half from the default
        // balanced point.
        let policies = match (ctx.max_batch(), ctx.max_delay_us()) {
            (None, None) => defaults.policies,
            (max_batch, max_delay_us) => {
                vec![(max_batch.unwrap_or(8), max_delay_us.unwrap_or(500))]
            }
        };
        let shards = match ctx.serve_shards() {
            Some(shards) => vec![shards],
            None => defaults.shards,
        };
        let spec = SweepSpec {
            rates: defaults.rates,
            policies,
            shards,
            requests: defaults.requests,
        };

        let report = serving::run_and_write(&spec, ctx.seed(), ctx.profile())?;

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
