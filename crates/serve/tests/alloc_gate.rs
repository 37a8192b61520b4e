//! Allocation-count regression gate for the serving steady state.
//!
//! The same thread-local counting `#[global_allocator]` technique as the
//! DNN crate's `alloc_gate`: once the shard pool has warmed up (scratch
//! arenas at their high-water mark, output slabs sized, weight panels
//! packed), replaying a burst of planned requests performs **zero** heap
//! allocations.  The pool runs single-shard so the whole burst executes
//! inline on this thread, where the TLS counter sees every allocation
//! (worker threads would count against their own counters — and spawning
//! them allocates on the spawner).

use optima_dnn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use optima_dnn::multiplier::ExactInt4Products;
use optima_dnn::network::Network;
use optima_dnn::quantized::QuantizedNetwork;
use optima_dnn::scratch::KernelScratch;
use optima_dnn::Tensor;
use optima_serve::{BatchPolicy, LoadPattern, Plan, ServeConfig, ServiceModel, ShardPool};
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

fn small_cnn() -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
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

fn burst_plan(shards: usize, requests: usize, images: usize) -> Plan {
    let config = ServeConfig {
        policy: BatchPolicy {
            max_batch: 8,
            max_delay_us: 400,
        },
        shards,
        queue_capacity: requests,
        service: ServiceModel::default(),
    };
    let pattern = LoadPattern::OpenLoop {
        rate_per_sec: 4000.0,
        requests,
    };
    Plan::build(&config, &pattern, 42, images).unwrap()
}

#[test]
fn warm_shard_pool_burst_performs_zero_allocations() {
    let network = small_cnn();
    let quantized = QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
    let images = image_pool(8, 3);
    let plan = burst_plan(1, 96, images.len());
    assert_eq!(plan.rejected(), 0);
    let mut pool = ShardPool::new(1).unwrap();
    // Warm-up: sizes the output slab, grows the scratch arena to the
    // high-water mark and packs the weight panels.
    pool.execute(&plan, &images, &quantized).unwrap();
    pool.execute(&plan, &images, &quantized).unwrap();

    let before = allocations();
    pool.execute(&plan, &images, &quantized).unwrap();
    assert_eq!(
        allocations(),
        before,
        "a warm single-shard burst of {} requests must not allocate",
        plan.served()
    );
    // The results are still live and correct after the zero-alloc burst.
    let mut scratch = KernelScratch::new();
    let first_image = plan.requests()[0].image;
    let expected = quantized
        .forward_with(&images[first_image], &mut scratch)
        .unwrap();
    assert_eq!(expected, pool.logits(&plan, 0).unwrap());
}
