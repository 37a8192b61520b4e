//! The worker-shard pool: plan execution over real kernels.
//!
//! Each shard owns one [`KernelScratch`] arena and a preallocated output
//! slab sized to the members the plan routed to it.  Executing a plan
//! walks every shard's batches in close order, runs each member through
//! the model's scratch-arena inference path
//! ([`BatchInferenceModel::predict_with`], i.e. `Network::infer_with` /
//! `QuantizedNetwork::forward_with`) and copies the logits into the
//! member's slot — so after the first warm-up burst the steady state
//! performs **zero** heap allocations per request (pinned by the crate's
//! counting-allocator test).  With more than one shard the pool spans
//! scoped threads, one per shard; a single-shard pool runs inline on the
//! caller's thread.
//!
//! Because the plan fixes batch composition and slot assignment up front,
//! the logits of every request are **bit-identical to a lone
//! `predict_with` call** — independent of shard count, batch policy and
//! thread interleaving.  The pool reads no clock: its execution time is
//! measured from the outside, by the `perfbench` `serve` workload.

use crate::error::ServeError;
use crate::plan::Plan;
use optima_dnn::eval::BatchInferenceModel;
use optima_dnn::scratch::KernelScratch;
use optima_dnn::Tensor;

/// One worker shard: a scratch arena plus its output slab.
#[derive(Debug, Default)]
struct ShardState {
    scratch: KernelScratch,
    /// Logits per member slot, in the shard's batch/coalescing order.
    outputs: Vec<Tensor>,
}

/// A pool of worker shards executing planned batches.
#[derive(Debug)]
pub struct ShardPool {
    shards: Vec<ShardState>,
}

impl ShardPool {
    /// A pool of `shards` workers.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero shard count.
    pub fn new(shards: usize) -> Result<Self, ServeError> {
        if shards == 0 {
            return Err(ServeError::InvalidConfig {
                context: "shard count must be at least 1".to_string(),
            });
        }
        Ok(ShardPool {
            shards: (0..shards).map(|_| ShardState::default()).collect(),
        })
    }

    /// Executes every planned batch against `model`, drawing request
    /// images from `images` (the pool the plan was built for).
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidConfig`] — the plan was built for a
    ///   different shard count or image-pool size.
    /// * [`ServeError::RequestFailed`] — inference failed; the lowest
    ///   failing shard's error is returned.
    /// * [`ServeError::ShardPanicked`] — a worker thread panicked.
    pub fn execute<M: BatchInferenceModel>(
        &mut self,
        plan: &Plan,
        images: &[Tensor],
        model: &M,
    ) -> Result<(), ServeError> {
        if plan.config().shards != self.shards.len() {
            return Err(ServeError::InvalidConfig {
                context: format!(
                    "plan was built for {} shards but the pool has {}",
                    plan.config().shards,
                    self.shards.len()
                ),
            });
        }
        if plan.image_count() != images.len() {
            return Err(ServeError::InvalidConfig {
                context: format!(
                    "plan indexes an image pool of {} but {} images were provided",
                    plan.image_count(),
                    images.len()
                ),
            });
        }
        for (shard, state) in self.shards.iter_mut().enumerate() {
            state
                .outputs
                .resize_with(plan.shard_member_count(shard), Tensor::default);
        }
        if self.shards.len() == 1 {
            return run_shard(0, &mut self.shards[0], plan, images, model);
        }
        let results: Vec<Result<(), ServeError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(shard, state)| {
                    scope.spawn(move || run_shard(shard, state, plan, images, model))
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(shard, handle)| {
                    handle
                        .join()
                        .unwrap_or(Err(ServeError::ShardPanicked { shard }))
                })
                .collect()
        });
        for result in results {
            result?;
        }
        Ok(())
    }

    /// The logits the last execution produced for `request`, or `None` for
    /// a rejected request.
    pub fn logits(&self, plan: &Plan, request: usize) -> Option<&Tensor> {
        let batch = plan.requests().get(request)?.batch?;
        let shard = plan.batches()[batch].shard;
        self.shards[shard].outputs.get(plan.slot(request))
    }
}

/// Runs every batch the plan routed to `shard`, in close order.
fn run_shard<M: BatchInferenceModel>(
    shard: usize,
    state: &mut ShardState,
    plan: &Plan,
    images: &[Tensor],
    model: &M,
) -> Result<(), ServeError> {
    let ShardState { scratch, outputs } = state;
    for (batch_index, batch) in plan.batches().iter().enumerate() {
        if batch.shard != shard {
            continue;
        }
        // optima-lint: hot
        for &request in plan.batch_members(batch_index) {
            let planned = plan.requests()[request];
            match model.predict_with(&images[planned.image], scratch) {
                Ok(logits) => outputs[plan.slot(request)].copy_from(logits),
                Err(source) => {
                    return Err(ServeError::RequestFailed {
                        request: planned.id,
                        source,
                    })
                }
            }
        }
        // optima-lint: end-hot
    }
    Ok(())
}
