//! The top-level serving engine: plan, execute, inspect.

use crate::error::ServeError;
use crate::load::LoadPattern;
use crate::plan::{Plan, ServeConfig};
use crate::pool::ShardPool;
use optima_dnn::eval::BatchInferenceModel;
use optima_dnn::Tensor;

/// A serving engine bound to one configuration: a shard pool that plans
/// and executes load patterns, retaining the last plan for inspection.
///
/// The pool's scratch arenas and output slabs persist across runs, so a
/// warm engine re-running a pattern of the same shape allocates nothing
/// per request (the crate's counting-allocator test pins this on the
/// single-shard inline path).
#[derive(Debug)]
pub struct ServingEngine {
    config: ServeConfig,
    pool: ShardPool,
    plan: Option<Plan>,
}

impl ServingEngine {
    /// An engine for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an invalid configuration.
    pub fn new(config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        Ok(ServingEngine {
            pool: ShardPool::new(config.shards)?,
            config,
            plan: None,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Plans `pattern` deterministically from `seed` and executes every
    /// batch against `model` over the `images` pool.
    ///
    /// # Errors
    ///
    /// Propagates planning and execution errors; see
    /// [`Plan::build`] and [`ShardPool::execute`].
    pub fn run<M: BatchInferenceModel>(
        &mut self,
        pattern: &LoadPattern,
        seed: u64,
        images: &[Tensor],
        model: &M,
    ) -> Result<(), ServeError> {
        let plan = Plan::build(&self.config, pattern, seed, images.len())?;
        self.pool.execute(&plan, images, model)?;
        self.plan = Some(plan);
        Ok(())
    }

    /// The most recent run's plan.
    pub fn last_plan(&self) -> Option<&Plan> {
        self.plan.as_ref()
    }

    /// The logits of request `request` from the most recent run, or
    /// `None` for a rejected (or unknown) request.
    pub fn logits(&self, request: usize) -> Option<&Tensor> {
        self.plan
            .as_ref()
            .and_then(|plan| self.pool.logits(plan, request))
    }
}
