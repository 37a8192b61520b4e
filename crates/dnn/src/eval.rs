//! Accuracy evaluation: top-1 / top-5 classification accuracy.
//!
//! Both the FLOAT32 [`Network`] and the INT4 [`QuantizedNetwork`] implement
//! [`BatchInferenceModel`], so the one evaluation loop, [`evaluate_batched`],
//! produces every column of the paper's Tables II and III.
//!
//! Dataset evaluation is embarrassingly parallel over images, so
//! [`evaluate_batched`] fans the test split out over
//! [`optima_core::sweep::par_map_sweep_with`] — the workspace's
//! error-strict, deterministic parallel sweep engine — with one prediction
//! per sweep item and one [`KernelScratch`] arena per worker thread.
//! [`BatchInferenceModel::predict_with`] takes `&self` (and models are
//! `Sync`), which is what lets every worker thread read the same network
//! without cloning it; once each worker's arena has warmed up, the steady
//! state performs zero heap allocations per image (pinned by the
//! workspace's counting-allocator test).  `threads = 1` is the serial loop.

use crate::data::Dataset;
use crate::error::DnnError;
use crate::network::Network;
use crate::quantized::QuantizedNetwork;
use crate::scratch::KernelScratch;
use crate::tensor::Tensor;
use optima_core::sweep::par_map_sweep_with;
use serde::{Deserialize, Serialize};

/// Anything that can classify one image through a shared reference, making
/// it usable from several evaluation threads at once.
pub trait BatchInferenceModel: Sync {
    /// Produces class logits for one image without mutating the model,
    /// drawing every intermediate buffer from the caller's scratch arena and
    /// returning the logits by reference into it (valid until the next call
    /// that borrows the same scratch).
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    fn predict_with<'s>(
        &self,
        image: &Tensor,
        scratch: &'s mut KernelScratch,
    ) -> Result<&'s Tensor, DnnError>;
}

impl BatchInferenceModel for Network {
    fn predict_with<'s>(
        &self,
        image: &Tensor,
        scratch: &'s mut KernelScratch,
    ) -> Result<&'s Tensor, DnnError> {
        self.infer_with(image, scratch)
    }
}

impl BatchInferenceModel for QuantizedNetwork {
    fn predict_with<'s>(
        &self,
        image: &Tensor,
        scratch: &'s mut KernelScratch,
    ) -> Result<&'s Tensor, DnnError> {
        self.forward_with(image, scratch)
    }
}

/// Result of evaluating a model on a dataset's test split.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EvaluationReport {
    /// Fraction of samples whose top prediction is the true class.
    pub top1: f64,
    /// Fraction of samples whose true class is among the five highest logits.
    pub top5: f64,
    /// Number of evaluated samples.
    pub samples: usize,
}

impl EvaluationReport {
    /// Top-1 accuracy in percent.
    pub fn top1_percent(&self) -> f64 {
        self.top1 * 100.0
    }

    /// Top-5 accuracy in percent.
    pub fn top5_percent(&self) -> f64 {
        self.top5 * 100.0
    }
}

/// Per-sample hit flags, reduced into an [`EvaluationReport`].
///
/// The top-5 check counts the elements ranking ahead of the label under
/// [`Tensor::top_k`]'s total order (descending [`f32::total_cmp`], ties
/// broken by ascending index) instead of materialising the top-5 index
/// vector — semantically identical (pinned by a test) but allocation-free,
/// which keeps the batched evaluator's steady state at zero allocations
/// per image.
fn score(logits: &Tensor, label: usize) -> (bool, bool) {
    let top1 = logits.argmax() == Some(label);
    let top5 = match logits.data().get(label) {
        None => false,
        Some(target) => {
            let ahead = logits
                .data()
                .iter()
                .enumerate()
                .filter(|&(i, v)| match v.total_cmp(target) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Equal => i < label,
                    std::cmp::Ordering::Less => false,
                })
                .count();
            ahead < 5
        }
    };
    (top1, top5)
}

fn reduce(hits: impl IntoIterator<Item = (bool, bool)>) -> EvaluationReport {
    let mut top1_hits = 0usize;
    let mut top5_hits = 0usize;
    let mut samples = 0usize;
    for (top1, top5) in hits {
        top1_hits += usize::from(top1);
        top5_hits += usize::from(top5);
        samples += 1;
    }
    let denominator = samples.max(1) as f64;
    EvaluationReport {
        top1: top1_hits as f64 / denominator,
        top5: top5_hits as f64 / denominator,
        samples,
    }
}

/// Evaluates a model on the test split of `dataset` with a per-image
/// parallel fan-out over [`optima_core::sweep::par_map_sweep_with`].
///
/// `threads = 0` selects the automatic thread count (the
/// `OPTIMA_SWEEP_THREADS` environment variable, then the machine's
/// available parallelism) and `threads = 1` the serial loop.  The sweep
/// engine reassembles per-image results in dataset order and fails on the
/// lowest failing image index, so the report is identical at any thread
/// count.  Each worker thread owns one [`KernelScratch`] arena reused across
/// its whole chunk of images, so the steady state allocates nothing per
/// image.
///
/// # Errors
///
/// Returns [`DnnError::EvaluationFailed`] naming the first (lowest) failing
/// image index, wrapping the underlying inference error.
pub fn evaluate_batched(
    model: &(impl BatchInferenceModel + ?Sized),
    dataset: &Dataset,
    threads: usize,
) -> Result<EvaluationReport, DnnError> {
    let samples: Vec<(&Tensor, usize)> = dataset
        .test_iter()
        .map(|(image, &label)| (image, label))
        .collect();
    let hits = par_map_sweep_with(
        &samples,
        threads,
        KernelScratch::new,
        |scratch, _, &(image, label)| {
            Ok::<_, DnnError>(score(model.predict_with(image, scratch)?, label))
        },
    )
    .map_err(|failure| DnnError::EvaluationFailed {
        image_index: failure.index,
        source: Box::new(failure.source),
    })?;
    Ok(reduce(hits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticImageConfig;
    use crate::layers::{Dense, Flatten, Relu};
    use crate::multiplier::ExactInt4Products;
    use crate::training::{Trainer, TrainingConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    fn trained_setup() -> (Network, Dataset) {
        let dataset = Dataset::synthetic(SyntheticImageConfig::tiny());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut network = Network::new(vec![
            Box::new(Flatten::new()),
            Box::new(Dense::new(64, 32, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(32, 3, &mut rng)),
        ]);
        Trainer::new(TrainingConfig {
            epochs: 12,
            learning_rate: 0.05,
            learning_rate_decay: 0.95,
        })
        .train(&mut network, &dataset)
        .unwrap();
        (network, dataset)
    }

    #[test]
    fn trained_network_beats_chance_and_top5_dominates_top1() {
        let (network, dataset) = trained_setup();
        let report = evaluate_batched(&network, &dataset, 1).unwrap();
        assert_eq!(report.samples, dataset.test_len());
        assert!(report.top1 > 0.5, "top-1 {} too low", report.top1);
        assert!(report.top5 >= report.top1);
        assert!((report.top1_percent() - report.top1 * 100.0).abs() < 1e-9);
        assert!((report.top5_percent() - report.top5 * 100.0).abs() < 1e-9);
    }

    /// The serial reference: one `predict_with` and `score` per test image.
    fn serial_loop(model: &impl BatchInferenceModel, dataset: &Dataset) -> EvaluationReport {
        let mut scratch = KernelScratch::new();
        reduce(
            dataset.test_iter().map(|(image, &label)| {
                score(model.predict_with(image, &mut scratch).unwrap(), label)
            }),
        )
    }

    #[test]
    fn batched_evaluation_matches_the_serial_loop_at_any_thread_count() {
        let (network, dataset) = trained_setup();
        let quantized =
            QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        let float_serial = serial_loop(&network, &dataset);
        let quantized_serial = serial_loop(&quantized, &dataset);
        assert_eq!(float_serial.samples, dataset.test_len());
        for threads in [1, 2, 3, 8] {
            let batched = evaluate_batched(&network, &dataset, threads).unwrap();
            assert_eq!(batched, float_serial, "float, threads = {threads}");
            let batched = evaluate_batched(&quantized, &dataset, threads).unwrap();
            assert_eq!(batched, quantized_serial, "quantized, threads = {threads}");
        }
    }

    #[test]
    fn batched_evaluation_reports_inference_errors() {
        let dataset = Dataset::synthetic(SyntheticImageConfig::tiny());
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        // Wrong input width: every image fails with a shape mismatch.
        let network = Network::new(vec![
            Box::new(Flatten::new()),
            Box::new(Dense::new(63, 3, &mut rng)),
        ]);
        assert!(evaluate_batched(&network, &dataset, 2).is_err());
    }

    #[test]
    fn quantized_network_evaluates_through_the_same_interface() {
        let (network, dataset) = trained_setup();
        let quantized =
            QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        let report = evaluate_batched(&quantized, &dataset, 1).unwrap();
        assert!(report.top1 > 0.4, "quantized top-1 {} too low", report.top1);
    }

    #[test]
    fn score_rank_count_matches_the_top_k_semantics() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for case in 0..200 {
            let len = rng.gen_range(1..12usize);
            let mut data: Vec<f32> = (0..len)
                .map(|_| {
                    // Coarse values force frequent exact ties.
                    (rng.gen_range(-3i32..4) as f32) * 0.5
                })
                .collect();
            if case % 7 == 0 {
                let nan_at = rng.gen_range(0..len);
                data[nan_at] = f32::NAN;
            }
            let logits = Tensor::from_slice(&data);
            for label in 0..len {
                let (_, top5) = score(&logits, label);
                assert_eq!(
                    top5,
                    logits.top_k(5).contains(&label),
                    "case {case}, label {label}, data {data:?}"
                );
            }
            // An out-of-range label is never a hit.
            assert_eq!(score(&logits, len), (false, false));
        }
    }

    #[test]
    fn empty_test_split_yields_zero_accuracies() {
        let dataset = Dataset::synthetic(SyntheticImageConfig {
            test_per_class: 0,
            ..SyntheticImageConfig::tiny()
        });
        let (network, _) = trained_setup();
        let report = evaluate_batched(&network, &dataset, 1).unwrap();
        assert_eq!(report.samples, 0);
        assert_eq!(report.top1, 0.0);
    }
}
