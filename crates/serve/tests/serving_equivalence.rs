//! End-to-end equivalence and error-propagation tests for the engine.
//!
//! The headline acceptance property: serving a request through the queue →
//! coalescer → shard pool pipeline produces logits **bit-identical** to a
//! lone `predict_with` call, at every shard count (1..=8) and under
//! different batch policies.

use optima_dnn::error::DnnError;
use optima_dnn::eval::BatchInferenceModel;
use optima_dnn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use optima_dnn::multiplier::ExactInt4Products;
use optima_dnn::network::Network;
use optima_dnn::quantized::QuantizedNetwork;
use optima_dnn::scratch::KernelScratch;
use optima_dnn::Tensor;
use optima_serve::{
    BatchPolicy, LoadPattern, Plan, ServeConfig, ServeError, ServiceModel, ServingEngine, ShardPool,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn small_cnn() -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    Network::new(vec![
        Box::new(Conv2d::new(1, 4, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(4 * 4 * 4, 3, &mut rng)),
    ])
}

fn image_pool(count: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            Tensor::from_vec(
                &[1, 8, 8],
                (0..64).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect(),
            )
            .unwrap()
        })
        .collect()
}

fn serve_config(max_batch: usize, max_delay_us: u64, shards: usize) -> ServeConfig {
    ServeConfig {
        policy: BatchPolicy {
            max_batch,
            max_delay_us,
        },
        shards,
        queue_capacity: 256,
        service: ServiceModel::default(),
    }
}

#[test]
fn served_logits_are_bit_identical_to_single_request_calls_at_any_shard_count() {
    let network = small_cnn();
    let quantized = QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
    let images = image_pool(12, 5);
    let pattern = LoadPattern::OpenLoop {
        rate_per_sec: 2000.0,
        requests: 64,
    };
    for (max_batch, max_delay_us) in [(1, 0), (4, 300), (8, 1500)] {
        for shards in 1..=8 {
            let mut engine =
                ServingEngine::new(serve_config(max_batch, max_delay_us, shards)).unwrap();
            engine.run(&pattern, 42, &images, &quantized).unwrap();
            let plan = engine.last_plan().unwrap();
            assert_eq!(plan.rejected(), 0);
            for request in 0..plan.requests().len() {
                let image = plan.requests()[request].image;
                let mut scratch = KernelScratch::new();
                let expected = quantized
                    .forward_with(&images[image], &mut scratch)
                    .unwrap();
                assert_eq!(
                    expected,
                    engine.logits(request).unwrap(),
                    "policy ({max_batch}, {max_delay_us}), {shards} shards, request {request}"
                );
            }
        }
    }
}

#[test]
fn float_path_serves_bit_identical_logits_too() {
    let network = small_cnn();
    let images = image_pool(6, 9);
    let pattern = LoadPattern::ClosedLoop {
        clients: 4,
        think_us: 200,
        requests: 40,
    };
    for shards in [1, 3] {
        let mut engine = ServingEngine::new(serve_config(4, 400, shards)).unwrap();
        engine.run(&pattern, 7, &images, &network).unwrap();
        let plan = engine.last_plan().unwrap();
        for request in 0..plan.requests().len() {
            let Some(served) = engine.logits(request) else {
                continue;
            };
            let image = plan.requests()[request].image;
            let mut scratch = KernelScratch::new();
            let expected = network.infer_with(&images[image], &mut scratch).unwrap();
            assert_eq!(expected, served, "{shards} shards, request {request}");
        }
        let stats = engine.wall_stats().unwrap();
        assert_eq!(stats.latency.count() as usize, plan.served());
        assert!(stats.throughput_per_sec > 0.0);
    }
}

#[test]
fn wall_stats_merge_matches_the_per_shard_histograms() {
    let network = small_cnn();
    let images = image_pool(8, 11);
    let pattern = LoadPattern::OpenLoop {
        rate_per_sec: 3000.0,
        requests: 48,
    };
    let mut engine = ServingEngine::new(serve_config(4, 250, 4)).unwrap();
    engine.run(&pattern, 3, &images, &network).unwrap();
    let stats = engine.wall_stats().unwrap();
    let per_shard_total: u64 = stats.per_shard.iter().map(|h| h.count()).sum();
    assert_eq!(stats.latency.count(), per_shard_total);
    assert!(stats.latency.max_us() >= stats.latency.p50());
    // The virtual timeline reports the same served population.
    let plan = engine.last_plan().unwrap();
    assert_eq!(plan.virtual_latency().count() as usize, plan.served());
}

/// A model that panics on every request (drives the shard-panic path).
struct PanickingModel;

impl BatchInferenceModel for PanickingModel {
    fn predict_with<'s>(
        &self,
        _image: &Tensor,
        _scratch: &'s mut KernelScratch,
    ) -> Result<&'s Tensor, DnnError> {
        panic!("injected failure");
    }
}

#[test]
fn a_panicking_shard_surfaces_as_a_typed_error() {
    let images = image_pool(4, 13);
    let config = serve_config(2, 100, 2);
    let pattern = LoadPattern::OpenLoop {
        rate_per_sec: 1000.0,
        requests: 8,
    };
    let plan = Plan::build(&config, &pattern, 1, images.len()).unwrap();
    let mut pool = ShardPool::new(2).unwrap();
    match pool.execute(&plan, &images, &PanickingModel) {
        Err(ServeError::ShardPanicked { shard }) => assert!(shard < 2),
        other => panic!("expected ShardPanicked, got {other:?}"),
    }
}

#[test]
fn an_inference_error_names_the_failing_request() {
    let network = small_cnn();
    // One malformed image in the pool: requests that draw it must fail.
    let mut images = image_pool(4, 17);
    images[2] = Tensor::zeros(&[2, 8, 8]);
    let config = serve_config(4, 200, 1);
    let pattern = LoadPattern::OpenLoop {
        rate_per_sec: 1000.0,
        requests: 16,
    };
    let plan = Plan::build(&config, &pattern, 1, images.len()).unwrap();
    let failing: Vec<u64> = plan
        .requests()
        .iter()
        .filter(|r| r.image == 2)
        .map(|r| r.id)
        .collect();
    assert!(!failing.is_empty(), "no request drew the malformed image");
    let mut pool = ShardPool::new(1).unwrap();
    match pool.execute(&plan, &images, &network) {
        Err(ServeError::RequestFailed { request, source }) => {
            assert!(failing.contains(&request));
            assert!(matches!(source, DnnError::ShapeMismatch { .. }));
        }
        other => panic!("expected RequestFailed, got {other:?}"),
    }
}

#[test]
fn mismatched_pool_or_image_count_is_rejected() {
    let images = image_pool(4, 19);
    let config = serve_config(2, 100, 2);
    let pattern = LoadPattern::OpenLoop {
        rate_per_sec: 1000.0,
        requests: 4,
    };
    let plan = Plan::build(&config, &pattern, 1, images.len()).unwrap();
    let network = small_cnn();
    // Wrong shard count.
    let mut pool = ShardPool::new(3).unwrap();
    assert!(matches!(
        pool.execute(&plan, &images, &network),
        Err(ServeError::InvalidConfig { .. })
    ));
    // Wrong image-pool size.
    let mut pool = ShardPool::new(2).unwrap();
    assert!(matches!(
        pool.execute(&plan, &images[..3], &network),
        Err(ServeError::InvalidConfig { .. })
    ));
}
