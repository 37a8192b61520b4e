//! `optima_serve` — a synchronous, deterministic-by-construction serving
//! engine for the quantized in-SRAM-multiplier DNN.
//!
//! The repo's inference substrate answers "how accurate and how fast is
//! one forward pass"; this crate answers the ROADMAP's serving question —
//! what throughput and tail latency the macro sustains when single-image
//! requests arrive as traffic.  The pipeline:
//!
//! 1. **Admission** — a bounded [`queue::RequestQueue`].  Capacity covers
//!    every admitted-but-incomplete request; exhaustion is a typed
//!    [`error::ServeError::QueueOverflow`] naming the capacity.
//!    Backpressure, never a silent drop.
//! 2. **Coalescing** — a batch closes at [`policy::BatchPolicy::max_batch`]
//!    requests or when its oldest member has waited
//!    [`policy::BatchPolicy::max_delay_us`], whichever comes first.
//!    Planning runs on a **virtual clock** ([`plan::Plan::build`]), so
//!    every batching decision is replayable and machine-independent.
//! 3. **Execution** — a [`pool::ShardPool`] of workers, one
//!    `KernelScratch` arena per shard, running the scratch-arena inference
//!    paths (`Network::infer_with` / `QuantizedNetwork::forward_with`).
//!    The warm steady state allocates nothing per request, and results are
//!    bit-identical to lone single-request calls at any shard count.
//! 4. **Reporting** — log2-bucketed [`histogram::LatencyHistogram`]s
//!    (rank-exact percentiles, mergeable across shards) over the plan's
//!    virtual timeline.  The crate reads no clock; wall-clock serving times
//!    come from the `perfbench` `serve` workload.
//!
//! Load comes from the deterministic open-/closed-loop generators in
//! [`load`], seeded through the same `stream_seed` discipline as the sweep
//! engine.  [`engine::ServingEngine`] ties the stages together.

#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod histogram;
pub mod load;
pub mod plan;
pub mod policy;
pub mod pool;
pub mod queue;

pub use engine::ServingEngine;
pub use error::ServeError;
pub use histogram::LatencyHistogram;
pub use load::LoadPattern;
pub use plan::{Plan, PlannedBatch, PlannedRequest, ServeConfig};
pub use policy::{BatchPolicy, ServiceModel};
pub use pool::ShardPool;
pub use queue::{Request, RequestQueue};
