//! The four workloads.
//!
//! Each is a closed loop with one caller: the runner calls
//! [`Workload::run_unit`] (timed), then [`Workload::check_unit`] (untimed),
//! then the next unit.  Unit configurations repeat with period
//! [`Workload::CYCLE`], so every repeat is also a determinism check.

pub mod calibrate;
pub mod dnn_eval;
pub mod dse;
pub mod serve;

use crate::trace::Tracer;
use crate::{BenchError, Config};
use std::path::Path;

/// One benchmark workload.
pub trait Workload: Sized {
    /// Name used on the command line.
    const NAME: &'static str;
    /// What one item of [`Workload::run_unit`]'s work count is.
    const WORK: &'static str;
    /// End-to-end name of the throughput metric on this workload.
    const THROUGHPUT: &'static str;
    /// Number of distinct unit configurations; unit `id` runs
    /// configuration `id % CYCLE`.
    const CYCLE: u64;
    /// Span of the unit's main parallel call, used for the sweep efficiency.
    const PARALLEL_SPAN: &'static str;

    /// Builds the workload state.  Timed as the run's set-up.
    ///
    /// # Errors
    ///
    /// Any library error or failed set-up check.
    fn setup(config: &Config, dir: &Path, tracer: &mut Tracer) -> Result<Self, BenchError>;

    /// Runs unit `id` with `threads` workers and returns how many work
    /// items it completed.  Timed.
    ///
    /// # Errors
    ///
    /// Any library error.
    fn run_unit(&mut self, id: u64, threads: usize, tracer: &mut Tracer)
        -> Result<u64, BenchError>;

    /// Checks the outputs of the last [`Workload::run_unit`] call and
    /// returns their fingerprint, a digest of every simulated statistic.
    ///
    /// # Errors
    ///
    /// The first failed correctness check.
    fn check_unit(&mut self, id: u64, tracer: &mut Tracer) -> Result<u64, BenchError>;

    /// Simulated statistics reported with the result, as (name, value).
    fn statistics(&self) -> Vec<(&'static str, f64)>;
}
