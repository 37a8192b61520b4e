//! Allocation-count regression gates for the zero-allocation steady state.
//!
//! A thread-local counting `#[global_allocator]` wraps the system allocator
//! and counts every `alloc`/`realloc` on the current thread.  Because the
//! counter is per-thread, each `#[test]` (which the harness runs on its own
//! thread) observes exactly the allocations it causes itself, with no
//! cross-test noise.  The gates pin the tentpole property of the scratch
//! arena work: once a [`KernelScratch`] has warmed up to a network's
//! high-water mark, `Network::infer_with`, `QuantizedNetwork::forward_with`
//! and the serial `evaluate_batched` path perform **zero** heap allocations
//! per image.

use optima_dnn::data::{Dataset, SyntheticImageConfig};
use optima_dnn::eval::{evaluate_batched, BatchInferenceModel};
use optima_dnn::layers::{Conv2d, Dense, Flatten, GlobalAvgPool, MaxPool2d, Relu, ResidualBlock};
use optima_dnn::multiplier::ExactInt4Products;
use optima_dnn::network::Network;
use optima_dnn::quantized::QuantizedNetwork;
use optima_dnn::scratch::KernelScratch;
use optima_dnn::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    // `Cell<u64>` has no destructor, so touching it from inside the
    // allocator cannot recurse through TLS teardown.
    static ALLOCATION_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper counting allocations per thread.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_COUNT.with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATION_COUNT.with(|count| count.set(count.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATION_COUNT.with(|count| count.get())
}

/// One of every layer kind, so the gates cover the whole zoo.
fn full_zoo_network() -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    Network::new(vec![
        Box::new(Conv2d::new(1, 4, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new()),
        Box::new(ResidualBlock::new(4, 3, &mut rng)),
        Box::new(GlobalAvgPool::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(4, 3, &mut rng)),
    ])
}

fn random_images(count: usize, seed: u64) -> Vec<Tensor> {
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

#[test]
fn float_inference_steady_state_performs_zero_allocations_per_image() {
    let network = full_zoo_network();
    let images = random_images(12, 7);
    let mut scratch = KernelScratch::new();
    // Warm-up: grows the arena to the high-water mark and builds the
    // packed-weight plans.
    for image in images.iter().take(4) {
        network.infer_with(image, &mut scratch).unwrap();
    }
    let before = allocations();
    for image in &images {
        let logits = network.infer_with(image, &mut scratch).unwrap();
        assert_eq!(logits.len(), 3);
    }
    assert_eq!(
        allocations(),
        before,
        "warm steady-state infer_with must not allocate"
    );
}

#[test]
fn quantized_inference_steady_state_performs_zero_allocations_per_image() {
    let network = full_zoo_network();
    let quantized = QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
    let images = random_images(12, 8);
    let mut scratch = KernelScratch::new();
    for image in images.iter().take(4) {
        quantized.forward_with(image, &mut scratch).unwrap();
    }
    let before = allocations();
    for image in &images {
        let logits = quantized.forward_with(image, &mut scratch).unwrap();
        assert_eq!(logits.len(), 3);
    }
    assert_eq!(
        allocations(),
        before,
        "warm steady-state forward_with must not allocate"
    );
}

#[test]
fn predict_with_steady_state_performs_zero_allocations_per_image() {
    // The trait path used by the batched evaluator, end to end with scoring.
    let network = full_zoo_network();
    let images = random_images(10, 9);
    let mut scratch = KernelScratch::new();
    for image in images.iter().take(4) {
        BatchInferenceModel::predict_with(&network, image, &mut scratch).unwrap();
    }
    let before = allocations();
    for image in &images {
        BatchInferenceModel::predict_with(&network, image, &mut scratch).unwrap();
    }
    assert_eq!(allocations(), before);
}

#[test]
fn batched_evaluation_allocations_do_not_scale_with_the_dataset() {
    // `threads = 1` keeps the whole sweep (and one cold KernelScratch) on
    // this thread, where the TLS counter sees it.  The per-call overhead is
    // the sample/result vectors plus the arena warm-up — all independent of
    // the image count — so evaluating far more images must cost far fewer
    // than one allocation per image.
    let dataset = Dataset::synthetic(SyntheticImageConfig {
        test_per_class: 40,
        ..SyntheticImageConfig::tiny()
    });
    let network = full_zoo_network();
    let image_count = dataset.test_len() as u64;
    assert!(image_count >= 120);

    // Cold run: packs the weight plans (cached on the network).
    evaluate_batched(&network, &dataset, 1).unwrap();
    let before = allocations();
    evaluate_batched(&network, &dataset, 1).unwrap();
    let spent = allocations() - before;
    assert!(
        spent < image_count / 2,
        "evaluate_batched spent {spent} allocations over {image_count} images \
         — the steady state is allocating per image"
    );
}
