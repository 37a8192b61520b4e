//! Umbrella crate of the OPTIMA reproduction workspace.
//!
//! This crate only re-exports the member crates so that the runnable
//! examples in `examples/` and the cross-crate integration tests in `tests/`
//! have a single dependency to pull in.  The actual functionality lives in:
//!
//! * [`optima_math`] — numeric foundations,
//! * [`optima_circuit`] — golden-reference analog circuit simulator,
//! * [`optima_core`] — the OPTIMA behavioural models, calibration and
//!   evaluation,
//! * [`optima_imc`] — the 4-bit in-SRAM multiplier case study and
//!   design-space exploration,
//! * [`optima_dnn`] — the quantized DNN substrate used for the application
//!   analysis,
//! * [`optima_serve`] — the batched inference serving engine (queue,
//!   coalescer, shard workers, latency histograms).

pub use optima_circuit;
pub use optima_core;
pub use optima_dnn;
pub use optima_imc;
pub use optima_math;
pub use optima_serve;
