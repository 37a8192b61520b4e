//! Serving-engine load sweep behind the `serving_load` experiment.
//!
//! One sweep, one gate set, one `BENCH_serving.json` schema
//! (`optima-serving.v2`).  The sweep drives the `optima_serve` engine
//! (bounded queue → batch coalescer → shard pool) over a grid of arrival
//! rates × batch policies × shard counts with an INT4-quantized CNN probe,
//! and self-gates on two deterministic invariants:
//!
//! 1. **bit identity** — every served request's logits equal a lone
//!    `forward_with` call on the same image, at every grid point (the
//!    acceptance anchor: batching and sharding may never change results);
//! 2. **coalesce-wait bound** — no batch closes later than its oldest
//!    member's arrival plus `max_delay_us`.
//!
//! Every reported number comes from the plan's virtual clock, so the report
//! is a pure function of the seed and the grid and is byte-identical from
//! run to run.  Wall-clock serving times come from the `perfbench` `serve`
//! workload.  A violated gate surfaces as [`BenchError::Failed`], which the
//! `optima` runner turns into a nonzero exit.

use crate::experiments::BenchError;
use crate::json::Json;
use optima_dnn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use optima_dnn::multiplier::ExactInt4Products;
use optima_dnn::network::Network;
use optima_dnn::quantized::QuantizedNetwork;
use optima_dnn::scratch::KernelScratch;
use optima_dnn::Tensor;
use optima_serve::{BatchPolicy, LoadPattern, ServeConfig, ServiceModel, ServingEngine};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// File the machine-readable serving sweep lands in (current working
/// directory, next to `BENCH_reliability.json`).
pub const REPORT_PATH: &str = "BENCH_serving.json";

/// Schema marker of [`REPORT_PATH`] (grepped by CI).
pub const SCHEMA: &str = "optima-serving.v2";

/// The sweep grid: every combination of rate × policy × shard count runs
/// once.
pub struct SweepSpec {
    /// Open-loop arrival rates, in requests per second.
    pub rates: Vec<f64>,
    /// `(max_batch, max_delay_us)` coalescing policies.
    pub policies: Vec<(usize, u64)>,
    /// Worker shard counts.
    pub shards: Vec<usize>,
    /// Submissions per grid point.
    pub requests: usize,
}

impl SweepSpec {
    /// The profile-default grid: 2×2×1 in quick mode, 3×3×2 at full
    /// fidelity.
    pub fn for_profile(quick: bool) -> SweepSpec {
        if quick {
            SweepSpec {
                rates: vec![2_000.0, 8_000.0],
                policies: vec![(1, 0), (8, 500)],
                shards: vec![2],
                requests: 96,
            }
        } else {
            SweepSpec {
                rates: vec![1_000.0, 4_000.0, 16_000.0],
                policies: vec![(1, 0), (4, 250), (8, 500)],
                shards: vec![1, 4],
                requests: 384,
            }
        }
    }
}

/// One grid point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    pub rate_per_sec: f64,
    pub max_batch: usize,
    pub max_delay_us: u64,
    pub shards: usize,
    pub requests: usize,
    pub served: usize,
    pub rejected: usize,
    pub batches: usize,
    pub mean_batch: f64,
    pub largest_batch: usize,
    /// Worst coalescing wait (batch close − oldest arrival), virtual µs.
    pub max_coalesce_wait_us: u64,
    /// Virtual end-to-end percentiles from the deterministic plan.
    pub virtual_p50_us: u64,
    pub virtual_p99_us: u64,
}

/// The full sweep result.
pub struct ServingReport {
    pub points: Vec<SweepPoint>,
    /// Served-request logits compared against the single-request path.
    pub bit_identity_checks: usize,
    /// Worst coalescing wait across the sweep.
    pub max_coalesce_wait_us: u64,
    pub quick: bool,
}

/// The CNN probe the sweep serves: the repo's standard 1×8×8 four-class
/// shape, INT4-quantized through the exact product table (no calibration
/// dependency — serving perf is orthogonal to the analog models).
fn serving_probe(seed: u64) -> Result<QuantizedNetwork, BenchError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e57_e000);
    let network = Network::new(vec![
        Box::new(Conv2d::new(1, 4, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(4 * 4 * 4, 4, &mut rng)),
    ]);
    Ok(QuantizedNetwork::from_network(
        &network,
        Arc::new(ExactInt4Products),
    )?)
}

/// The request image pool: 8 deterministic 1×8×8 images.
fn serving_images(seed: u64) -> Vec<Tensor> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1AE5);
    (0..8)
        .map(|_| {
            Tensor::from_vec(
                &[1, 8, 8],
                (0..64).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect(),
            )
            .expect("probe image shape matches its data")
        })
        .collect()
}

/// Runs the sweep and writes [`REPORT_PATH`].
pub fn run_and_write(
    spec: &SweepSpec,
    seed: u64,
    quick: bool,
) -> Result<ServingReport, BenchError> {
    let report = run_sweep(spec, seed, quick)?;
    write_json(&report)?;
    Ok(report)
}

/// Runs every grid point and checks both gates inline.
fn run_sweep(spec: &SweepSpec, seed: u64, quick: bool) -> Result<ServingReport, BenchError> {
    let probe = serving_probe(seed)?;
    let images = serving_images(seed);
    // Reference logits once per pool image: the single-request path every
    // served request is compared against.
    let mut scratch = KernelScratch::new();
    let expected: Vec<Tensor> = images
        .iter()
        .map(|image| Ok(probe.forward_with(image, &mut scratch)?.clone()))
        .collect::<Result<_, BenchError>>()?;

    let mut points = Vec::new();
    let mut bit_identity_checks = 0usize;
    for &rate_per_sec in &spec.rates {
        for &(max_batch, max_delay_us) in &spec.policies {
            for &shards in &spec.shards {
                let config = ServeConfig {
                    policy: BatchPolicy {
                        max_batch,
                        max_delay_us,
                    },
                    shards,
                    queue_capacity: (8 * max_batch).max(64),
                    service: ServiceModel::default(),
                };
                let pattern = LoadPattern::OpenLoop {
                    rate_per_sec,
                    requests: spec.requests,
                };
                let mut engine = ServingEngine::new(config)?;
                engine.run(&pattern, seed, &images, &probe)?;
                let plan = engine.last_plan().expect("engine just ran");

                // Gate 1: bit identity against the single-request path, for
                // every served request of every grid point.
                for (request, planned) in plan.requests().iter().enumerate() {
                    let Some(served) = engine.logits(request) else {
                        continue;
                    };
                    if *served != expected[planned.image] {
                        return Err(BenchError::Failed(format!(
                            "served logits diverged from the single-request path \
                             (rate {rate_per_sec}, policy ({max_batch}, {max_delay_us} us), \
                             {shards} shards, request {request})"
                        )));
                    }
                    bit_identity_checks += 1;
                }

                // Gate 2: the coalescer honoured max_delay (a violation is a
                // planner bug).
                let max_coalesce_wait_us = plan
                    .batches()
                    .iter()
                    .map(|b| b.close_us - b.first_arrival_us)
                    .max()
                    .unwrap_or(0);
                if max_coalesce_wait_us > max_delay_us {
                    return Err(BenchError::Failed(format!(
                        "a batch waited {max_coalesce_wait_us} us to close, past the \
                         {max_delay_us} us policy bound (rate {rate_per_sec}, {shards} shards)"
                    )));
                }

                let virtual_latency = plan.virtual_latency();
                points.push(SweepPoint {
                    rate_per_sec,
                    max_batch,
                    max_delay_us,
                    shards,
                    requests: plan.requests().len(),
                    served: plan.served(),
                    rejected: plan.rejected(),
                    batches: plan.batches().len(),
                    mean_batch: plan.mean_batch(),
                    largest_batch: plan.max_batch(),
                    max_coalesce_wait_us,
                    virtual_p50_us: virtual_latency.p50(),
                    virtual_p99_us: virtual_latency.p99(),
                });
            }
        }
    }

    let max_coalesce_wait_us = points
        .iter()
        .map(|p| p.max_coalesce_wait_us)
        .max()
        .unwrap_or(0);
    Ok(ServingReport {
        points,
        bit_identity_checks,
        max_coalesce_wait_us,
        quick,
    })
}

/// Writes the machine-readable sweep ([`SCHEMA`]) to [`REPORT_PATH`].
fn write_json(report: &ServingReport) -> Result<(), BenchError> {
    let document = Json::object(vec![
        ("schema", Json::str(SCHEMA)),
        ("report", Json::str("serving-load")),
        ("generated_by", Json::str("serving_load")),
        ("quick_mode", Json::Bool(report.quick)),
        ("bit_identity", Json::str("bit-identical")),
        (
            "bit_identity_checks",
            Json::Int(report.bit_identity_checks as i64),
        ),
        (
            "max_coalesce_wait_us",
            Json::Int(report.max_coalesce_wait_us as i64),
        ),
        (
            "points",
            Json::Array(
                report
                    .points
                    .iter()
                    .map(|point| {
                        Json::object(vec![
                            ("rate_per_sec", Json::Fixed(point.rate_per_sec, 0)),
                            ("max_batch", Json::Int(point.max_batch as i64)),
                            ("max_delay_us", Json::Int(point.max_delay_us as i64)),
                            ("shards", Json::Int(point.shards as i64)),
                            ("requests", Json::Int(point.requests as i64)),
                            ("served", Json::Int(point.served as i64)),
                            ("rejected", Json::Int(point.rejected as i64)),
                            ("batches", Json::Int(point.batches as i64)),
                            ("mean_batch", Json::Fixed(point.mean_batch, 2)),
                            ("largest_batch", Json::Int(point.largest_batch as i64)),
                            (
                                "max_coalesce_wait_us",
                                Json::Int(point.max_coalesce_wait_us as i64),
                            ),
                            ("virtual_p50_us", Json::Int(point.virtual_p50_us as i64)),
                            ("virtual_p99_us", Json::Int(point.virtual_p99_us as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(REPORT_PATH, document.render()).map_err(|source| BenchError::Io {
        path: REPORT_PATH.to_string(),
        source,
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tiny_sweep_passes_its_deterministic_gates() {
        let spec = SweepSpec {
            rates: vec![4_000.0],
            policies: vec![(4, 300)],
            shards: vec![2],
            requests: 32,
        };
        let report = run_sweep(&spec, 42, true).expect("sweep runs");
        assert_eq!(report.points.len(), 1);
        let point = &report.points[0];
        assert_eq!(point.served + point.rejected, 32);
        assert!(report.bit_identity_checks >= point.served);
        assert!(point.max_coalesce_wait_us <= 300);
        // Every number is virtual, so a second sweep reproduces it exactly.
        let again = run_sweep(&spec, 42, true).expect("sweep runs");
        assert_eq!(report.points, again.points);
    }
}
