//! `serve`: closed-loop serving of the 3×16×16 INT4 probe CNN.
//!
//! One unit is one burst of [`CLIENTS`] concurrent clients with zero think
//! time, planned by `Plan::build` and executed by a `ShardPool` with one
//! shard per thread — the two stages `ServingEngine::run` composes, called
//! separately so each gets its own span.  Set-up checks that the engine
//! itself serves the same logits.

use super::Workload;
use crate::checks;
use crate::digest::Digest;
use crate::trace::Tracer;
use crate::{BenchError, Config};
use optima_core::sweep::stream_seed;
use optima_dnn::data::{Dataset, SyntheticImageConfig};
use optima_dnn::layers::{Conv2d, Dense, Flatten, Layer, MaxPool2d, Relu};
use optima_dnn::multiplier::ExactInt4Products;
use optima_dnn::network::Network;
use optima_dnn::quantized::QuantizedNetwork;
use optima_dnn::scratch::KernelScratch;
use optima_dnn::training::{Trainer, TrainingConfig};
use optima_dnn::Tensor;
use optima_serve::{
    BatchPolicy, LoadPattern, Plan, ServeConfig, ServiceModel, ServingEngine, ShardPool,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Concurrent clients of one burst.
pub const CLIENTS: usize = 32;
/// Requests of one burst: enough that a burst outlasts scheduler noise.
pub const BURST_REQUESTS: usize = 4096;
/// Every this many requests, the lone reference call is traced.
const TRACED_FORWARD_STRIDE: usize = 64;
/// Largest coalesced batch.
pub const MAX_BATCH: usize = 8;

/// The probe CNN: two 3×3 conv/ReLU/max-pool stages and a dense head.
fn probe_network(channels: usize, size: usize, classes: usize, seed: u64) -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(channels, 8, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new()),
        Box::new(Conv2d::new(8, 16, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(16 * (size / 4) * (size / 4), classes, &mut rng)),
    ];
    Network::new(layers)
}

fn serve_config(shards: usize) -> Result<ServeConfig, BenchError> {
    Ok(ServeConfig {
        policy: BatchPolicy::new(MAX_BATCH, 100)?,
        shards,
        queue_capacity: CLIENTS,
        service: ServiceModel::default(),
    })
}

/// Workload state.
#[derive(Debug)]
pub struct Serve {
    seed: u64,
    requests: usize,
    images: Vec<Tensor>,
    model: QuantizedNetwork,
    pools: BTreeMap<usize, ShardPool>,
    scratch: KernelScratch,
    last: Option<(Plan, usize)>,
}

impl Serve {
    fn pattern(&self) -> LoadPattern {
        LoadPattern::ClosedLoop {
            clients: CLIENTS,
            think_us: 0,
            requests: self.requests,
        }
    }

    /// Checks every served request against a lone `forward_with` call and
    /// digests the served logits in request order.
    fn verify(
        &mut self,
        plan: &Plan,
        served: impl Fn(usize) -> Option<Tensor>,
        tracer: &mut Tracer,
    ) -> Result<u64, BenchError> {
        checks::count("served requests", plan.served(), plan.requests().len())?;
        let mut digest = Digest::new();
        for (index, request) in plan.requests().iter().enumerate() {
            let logits = served(index)
                .ok_or_else(|| BenchError(format!("request {index} has no logits")))?;
            let image = &self.images[request.image];
            let mut forward = || self.model.forward_with(image, &mut self.scratch).cloned();
            // A sample of the lone calls is traced, which keeps the span
            // dump small.
            let lone = if index % TRACED_FORWARD_STRIDE == 0 {
                tracer.span("dnn.quantized.forward", forward)
            } else {
                forward()
            }?;
            checks::bit_identical(
                &format!("request {index} logits"),
                logits.data(),
                lone.data(),
            )?;
            digest.u64(request.image as u64).f32s(logits.data());
        }
        Ok(digest.finish())
    }
}

impl Workload for Serve {
    const NAME: &'static str = "serve";
    const WORK: &'static str = "requests";
    const THROUGHPUT: &'static str = "requests_per_s";
    const CYCLE: u64 = 8;
    const PARALLEL_SPAN: &'static str = "serve.pool.execute";

    fn setup(config: &Config, _dir: &Path, tracer: &mut Tracer) -> Result<Self, BenchError> {
        let base = SyntheticImageConfig::imagenet_like();
        let dataset = Dataset::synthetic(SyntheticImageConfig {
            seed: stream_seed(config.seed, 0x5e4e),
            ..if config.tiny {
                SyntheticImageConfig {
                    train_per_class: 2,
                    test_per_class: 2,
                    ..base
                }
            } else {
                base
            }
        });
        let shape = dataset.image_shape().to_vec();
        let mut network = probe_network(shape[0], shape[1], dataset.classes(), config.seed);
        let trainer = Trainer::new(TrainingConfig {
            epochs: 1,
            learning_rate: 0.02,
            learning_rate_decay: 0.9,
        });
        tracer.span("dnn.training.train", || {
            trainer.train(&mut network, &dataset)
        })?;
        tracer.count("dnn.training.epochs", 1.0);
        let model = tracer.span("dnn.quantized.build", || {
            QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products))
        })?;
        let images: Vec<Tensor> = dataset
            .test_iter()
            .map(|(image, _)| image.clone())
            .collect();
        let mut serve = Serve {
            seed: config.seed,
            requests: if config.tiny { CLIENTS } else { BURST_REQUESTS },
            images,
            model,
            pools: BTreeMap::new(),
            scratch: KernelScratch::new(),
            last: None,
        };

        let mut engine = ServingEngine::new(serve_config(config.threads)?)?;
        engine.run(&serve.pattern(), config.seed, &serve.images, &serve.model)?;
        let plan = engine
            .last_plan()
            .cloned()
            .ok_or_else(|| BenchError("engine kept no plan".to_string()))?;
        serve.verify(&plan, |request| engine.logits(request).cloned(), tracer)?;
        Ok(serve)
    }

    fn run_unit(
        &mut self,
        id: u64,
        threads: usize,
        tracer: &mut Tracer,
    ) -> Result<u64, BenchError> {
        let burst_seed = stream_seed(self.seed, id % Self::CYCLE);
        let config = serve_config(threads)?;
        let pattern = self.pattern();
        let plan = tracer.span("serve.plan.build", || {
            Plan::build(&config, &pattern, burst_seed, self.images.len())
        })?;
        let pool = match self.pools.entry(threads) {
            std::collections::btree_map::Entry::Occupied(entry) => entry.into_mut(),
            std::collections::btree_map::Entry::Vacant(entry) => {
                entry.insert(ShardPool::new(threads)?)
            }
        };
        tracer.span("serve.pool.execute", || {
            pool.execute(&plan, &self.images, &self.model)
        })?;
        tracer.count("serve.requests", plan.requests().len() as f64);
        tracer.count("serve.served", plan.served() as f64);
        tracer.count("serve.batches", plan.batches().len() as f64);
        let served = plan.served();
        self.last = Some((plan, threads));
        Ok(served as u64)
    }

    fn check_unit(&mut self, _id: u64, tracer: &mut Tracer) -> Result<u64, BenchError> {
        let (plan, threads) = self
            .last
            .take()
            .ok_or_else(|| BenchError("no burst ran".to_string()))?;
        let pool = self
            .pools
            .remove(&threads)
            .ok_or_else(|| BenchError("no pool for the burst".to_string()))?;
        let fingerprint = self.verify(
            &plan,
            |request| pool.logits(&plan, request).cloned(),
            tracer,
        );
        self.pools.insert(threads, pool);
        fingerprint
    }

    fn statistics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}
