//! Batching policy and the virtual service-time model.

use crate::error::ServeError;

/// The coalescer's latency/efficiency trade-off.
///
/// A batch closes as soon as it holds `max_batch` requests **or** its oldest
/// request has waited `max_delay_us` — whichever comes first.  Larger
/// batches amortize the packed-panel / LUT sweep set-up across more images;
/// a smaller delay bounds the coalescing contribution to tail latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum number of requests per batch (≥ 1).
    pub max_batch: usize,
    /// Maximum time (virtual microseconds) a request may wait for its batch
    /// to close.  `0` disables coalescing: every request is its own batch.
    pub max_delay_us: u64,
}

impl BatchPolicy {
    /// A validated policy.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `max_batch` is zero.
    pub fn new(max_batch: usize, max_delay_us: u64) -> Result<Self, ServeError> {
        let policy = BatchPolicy {
            max_batch,
            max_delay_us,
        };
        policy.validate()?;
        Ok(policy)
    }

    /// Checks the policy invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `max_batch` is zero.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig {
                context: "max_batch must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

/// Fixed virtual cost of serving one batch, used by the planner's
/// deterministic clock.
///
/// Virtual time makes batching decisions replayable: the same arrivals,
/// policy and service model always produce the same plan, on any machine.
/// The model is not fitted to measured batch durations; those come from the
/// `perfbench` `serve` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceModel {
    /// Per-batch fixed overhead in virtual microseconds (dispatch, panel
    /// reuse set-up).
    pub batch_overhead_us: u64,
    /// Marginal virtual microseconds per image in the batch.
    pub per_image_us: u64,
}

impl ServiceModel {
    /// Virtual service time of a batch of `batch` images.
    pub fn service_us(&self, batch: usize) -> u64 {
        self.batch_overhead_us + self.per_image_us * batch as u64
    }
}

impl Default for ServiceModel {
    /// Loosely calibrated to the repo's tiny probe CNN on the snapshot LUT
    /// path: tens of microseconds per image with a small per-batch set-up.
    fn default() -> Self {
        ServiceModel {
            batch_overhead_us: 20,
            per_image_us: 40,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_max_batch_is_rejected() {
        let err = BatchPolicy::new(0, 100).unwrap_err();
        assert!(err.to_string().contains("max_batch"));
        assert!(BatchPolicy::new(1, 0).is_ok());
    }

    #[test]
    fn service_time_is_affine_in_the_batch_size() {
        let model = ServiceModel {
            batch_overhead_us: 10,
            per_image_us: 7,
        };
        assert_eq!(model.service_us(0), 10);
        assert_eq!(model.service_us(1), 17);
        assert_eq!(model.service_us(8), 66);
    }
}
