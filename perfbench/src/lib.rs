//! The OPTIMA workspace benchmark.
//!
//! One binary runs one of four closed-loop workloads from a seed, measures
//! it for a fixed number of seconds and prints one JSON result line:
//!
//! * `calibrate` — golden RK transients and least-squares fits
//!   (`Calibrator::run`, held-out evaluation, the Section V queries);
//! * `dse` — fitted-model design-space exploration, corner selection and
//!   PVT sign-off, with no golden simulation after set-up;
//! * `dnn_eval` — the Table II/III multiplier-substitution loop;
//! * `serve` — closed-loop bursts through the batch planner and shard pool.
//!
//! Every layer is driven through public functions of the library crates.
//! With `--trace 1` the benchmark records spans around its own calls into
//! each layer and reports per-layer metrics instead of end-to-end ones.

pub mod checks;
pub mod digest;
pub mod machine;
pub mod runner;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::fmt;

/// Any failure of a benchmark operation: a library error, a failed
/// correctness check or an I/O error.  Each one counts as a failed
/// operation.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchError(pub String);

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

macro_rules! from_error {
    ($($ty:ty),*) => {
        $(impl From<$ty> for BenchError {
            fn from(err: $ty) -> Self {
                BenchError(err.to_string())
            }
        })*
    };
}

from_error!(
    optima_core::ModelError,
    optima_circuit::error::CircuitError,
    optima_imc::error::ImcError,
    optima_dnn::DnnError,
    optima_serve::ServeError,
    std::io::Error
);

/// Settings shared by every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Worker threads (and serving shards) of every parallel call.
    pub threads: usize,
    /// Shrinks every workload to a smoke-test size.
    pub tiny: bool,
}
