//! Loss functions and a simple SGD trainer.

use crate::data::Dataset;
use crate::error::DnnError;
use crate::multiplier::ProductTable;
use crate::network::Network;
use crate::quantized::QuantizedNetwork;
use crate::scratch::KernelScratch;
use crate::tensor::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Deterministic per-epoch visit order of the training split.
///
/// The synthetic datasets store their samples grouped by class; per-sample
/// SGD over that order leaves the network biased towards the last class of
/// every epoch, so training must shuffle. A fixed seed mixed with the epoch
/// keeps runs reproducible.
fn epoch_order(samples: usize, epoch: usize) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0000 ^ epoch as u64);
    let mut order: Vec<usize> = (0..samples).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter()
        .map(|&e| e / sum.max(f32::MIN_POSITIVE))
        .collect()
}

/// Cross-entropy loss of `logits` against a class label, together with the
/// gradient of the loss with respect to the logits.
///
/// # Errors
///
/// Returns [`DnnError::InvalidLabel`] when the label is out of range.
pub fn cross_entropy_with_gradient(
    logits: &Tensor,
    label: usize,
) -> Result<(f32, Tensor), DnnError> {
    if label >= logits.len() {
        return Err(DnnError::InvalidLabel {
            label,
            classes: logits.len(),
        });
    }
    let probabilities = softmax(logits.data());
    let loss = -probabilities[label].max(1e-12).ln();
    let mut grad = probabilities;
    grad[label] -= 1.0;
    Ok((loss, Tensor::from_slice(&grad)))
}

/// Configuration of a training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Multiplicative learning-rate decay applied after every epoch.
    pub learning_rate_decay: f32,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            epochs: 10,
            learning_rate: 0.02,
            learning_rate_decay: 0.9,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Average cross-entropy loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Training-set accuracy per epoch.
    pub epoch_accuracies: Vec<f64>,
}

/// Plain stochastic-gradient-descent trainer.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainingConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainingConfig) -> Self {
        Trainer { config }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainingConfig {
        &self.config
    }

    /// Trains `network` on `dataset`'s training split.
    ///
    /// # Errors
    ///
    /// Propagates forward/backward shape errors and invalid labels.
    pub fn train(
        &self,
        network: &mut Network,
        dataset: &Dataset,
    ) -> Result<TrainingHistory, DnnError> {
        self.run_epochs(network, dataset, |network, learning_rate| {
            network.apply_gradients(learning_rate)
        })
    }

    /// Trains only the final layer of `network` (transfer-learning head
    /// retraining): gradients are propagated but only the last layer's
    /// parameters are updated.
    ///
    /// # Errors
    ///
    /// Propagates forward/backward shape errors and invalid labels.
    pub fn train_head_only(
        &self,
        network: &mut Network,
        dataset: &Dataset,
    ) -> Result<TrainingHistory, DnnError> {
        self.run_epochs(network, dataset, |network, learning_rate| {
            // Only the head learns; everything else keeps its weights.
            let last = network.len() - 1;
            for (index, layer) in network.layers_mut().iter_mut().enumerate() {
                if index == last {
                    layer.apply_gradients(learning_rate);
                } else {
                    layer.zero_gradients();
                }
            }
        })
    }

    /// Noise-aware fine-tuning against a (possibly faulted) product table:
    /// each epoch re-quantises the float network through `products`, computes
    /// the loss from the *quantised* logits (so the head sees exactly the
    /// errors the deployed faulted multiplier makes) and back-propagates it
    /// through the float network with a straight-through estimator, updating
    /// only the head.  This is the standard recovery step for in-memory
    /// compute accelerators whose arrays degrade in the field: the backbone
    /// keeps its pre-trained features, the head learns around the fault
    /// pattern.
    ///
    /// # Errors
    ///
    /// Propagates quantisation, forward/backward shape and label errors.
    pub fn fine_tune_quantized(
        &self,
        network: &mut Network,
        dataset: &Dataset,
        products: &Arc<dyn ProductTable>,
    ) -> Result<TrainingHistory, DnnError> {
        let mut history = TrainingHistory::default();
        let mut learning_rate = self.config.learning_rate;
        let samples: Vec<(&Tensor, &usize)> = dataset.train_iter().collect();
        let mut scratch = KernelScratch::new();
        for epoch in 0..self.config.epochs {
            // Re-quantise once per epoch so the quantised view tracks the
            // head updates of the previous epoch.
            let quantized = QuantizedNetwork::from_network(network, Arc::clone(products))?;
            let mut losses = Vec::with_capacity(dataset.train_len());
            let mut correct = 0usize;
            for &index in &epoch_order(samples.len(), epoch) {
                let (image, label) = samples[index];
                let noisy_logits = quantized.forward_with(image, &mut scratch)?;
                if noisy_logits.argmax() == Some(*label) {
                    correct += 1;
                }
                let (loss, grad) = cross_entropy_with_gradient(noisy_logits, *label)?;
                losses.push(loss);
                // Straight-through estimator: the float forward populates the
                // layer caches, the gradient of the noisy loss flows back
                // through them, and only the head applies it.
                let _ = network.forward(image)?;
                network.backward(&grad)?;
                let last = network.len() - 1;
                for (layer_index, layer) in network.layers_mut().iter_mut().enumerate() {
                    if layer_index == last {
                        layer.apply_gradients(learning_rate);
                    } else {
                        layer.zero_gradients();
                    }
                }
            }
            history
                .epoch_losses
                .push(losses.iter().sum::<f32>() / losses.len().max(1) as f32);
            history
                .epoch_accuracies
                .push(correct as f64 / dataset.train_len().max(1) as f64);
            learning_rate *= self.config.learning_rate_decay;
        }
        Ok(history)
    }

    /// The shared SGD epoch loop; `apply` consumes the accumulated gradients
    /// after each sample's backward pass.
    fn run_epochs(
        &self,
        network: &mut Network,
        dataset: &Dataset,
        mut apply: impl FnMut(&mut Network, f32),
    ) -> Result<TrainingHistory, DnnError> {
        let mut history = TrainingHistory::default();
        let mut learning_rate = self.config.learning_rate;
        let samples: Vec<(&Tensor, &usize)> = dataset.train_iter().collect();
        for epoch in 0..self.config.epochs {
            let mut losses = Vec::with_capacity(dataset.train_len());
            let mut correct = 0usize;
            for &index in &epoch_order(samples.len(), epoch) {
                let (image, label) = samples[index];
                let logits = network.forward(image)?;
                if logits.argmax() == Some(*label) {
                    correct += 1;
                }
                let (loss, grad) = cross_entropy_with_gradient(&logits, *label)?;
                losses.push(loss);
                network.backward(&grad)?;
                apply(network, learning_rate);
            }
            history
                .epoch_losses
                .push(losses.iter().sum::<f32>() / losses.len().max(1) as f32);
            history
                .epoch_accuracies
                .push(correct as f64 / dataset.train_len().max(1) as f64);
            learning_rate *= self.config.learning_rate_decay;
        }
        Ok(history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, SyntheticImageConfig};
    use crate::layers::{Dense, Flatten, Relu};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn softmax_normalises_and_orders() {
        let probabilities = softmax(&[1.0, 2.0, 3.0]);
        assert!((probabilities.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(probabilities[2] > probabilities[1]);
        assert!(probabilities[1] > probabilities[0]);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero() {
        let logits = Tensor::from_slice(&[0.5, -0.2, 1.0]);
        let (loss, grad) = cross_entropy_with_gradient(&logits, 2).unwrap();
        assert!(loss > 0.0);
        assert!(grad.data().iter().sum::<f32>().abs() < 1e-6);
        assert!(grad.data()[2] < 0.0);
        assert!(cross_entropy_with_gradient(&logits, 5).is_err());
    }

    fn tiny_dataset() -> Dataset {
        Dataset::synthetic(SyntheticImageConfig {
            classes: 3,
            image_size: 6,
            channels: 1,
            train_per_class: 12,
            test_per_class: 4,
            noise_level: 0.1,
            seed: 7,
        })
    }

    fn mlp(classes: usize) -> Network {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        Network::new(vec![
            Box::new(Flatten::new()),
            Box::new(Dense::new(36, 24, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(24, classes, &mut rng)),
        ])
    }

    #[test]
    fn training_reduces_loss_and_reaches_good_accuracy() {
        let dataset = tiny_dataset();
        let mut network = mlp(3);
        let trainer = Trainer::new(TrainingConfig {
            epochs: 15,
            learning_rate: 0.05,
            learning_rate_decay: 0.95,
        });
        let history = trainer.train(&mut network, &dataset).unwrap();
        assert_eq!(history.epoch_losses.len(), 15);
        assert!(history.epoch_losses.last().unwrap() < &history.epoch_losses[0]);
        assert!(
            *history.epoch_accuracies.last().unwrap() > 0.8,
            "training accuracy too low: {:?}",
            history.epoch_accuracies.last()
        );
    }

    #[test]
    fn noise_aware_fine_tuning_recovers_accuracy() {
        use crate::multiplier::ProductTable;
        use crate::quantized::QuantizedNetwork;
        use std::sync::Arc;

        /// A product table whose MSB weight column is stuck at zero — the
        /// kind of systematic error a defective array column produces.
        struct StuckMsbProducts;
        impl ProductTable for StuckMsbProducts {
            fn product(&self, a: u8, b: u8) -> u16 {
                (a & 0x7) as u16 * b as u16
            }
            fn name(&self) -> String {
                "stuck-msb".to_string()
            }
        }

        fn quantized_test_accuracy(network: &Network, products: &Arc<dyn ProductTable>) -> f64 {
            let quantized = QuantizedNetwork::from_network(network, Arc::clone(products)).unwrap();
            let dataset = tiny_dataset();
            let mut correct = 0usize;
            let mut total = 0usize;
            for (image, label) in dataset.test_iter() {
                if quantized.forward(image).unwrap().argmax() == Some(*label) {
                    correct += 1;
                }
                total += 1;
            }
            correct as f64 / total as f64
        }

        let dataset = tiny_dataset();
        let mut network = mlp(3);
        let trainer = Trainer::new(TrainingConfig {
            epochs: 12,
            learning_rate: 0.05,
            learning_rate_decay: 0.95,
        });
        trainer.train(&mut network, &dataset).unwrap();
        let faulted: Arc<dyn ProductTable> = Arc::new(StuckMsbProducts);
        let before = quantized_test_accuracy(&network, &faulted);

        // Capture backbone weights, fine-tune the head against the faulted
        // products, then measure again with the same faulted table.
        let backbone_before: Vec<f32> = network.layers()[1]
            .as_any()
            .downcast_ref::<Dense>()
            .unwrap()
            .weights()
            .to_vec();
        let tuner = Trainer::new(TrainingConfig {
            epochs: 6,
            learning_rate: 0.05,
            learning_rate_decay: 0.95,
        });
        let history = tuner
            .fine_tune_quantized(&mut network, &dataset, &faulted)
            .unwrap();
        assert_eq!(history.epoch_losses.len(), 6);
        let backbone_after: Vec<f32> = network.layers()[1]
            .as_any()
            .downcast_ref::<Dense>()
            .unwrap()
            .weights()
            .to_vec();
        assert_eq!(
            backbone_before, backbone_after,
            "fine-tuning must leave the backbone frozen"
        );
        let after = quantized_test_accuracy(&network, &faulted);
        assert!(
            after >= before,
            "fine-tuning must not hurt faulted accuracy: {before} -> {after}"
        );
    }

    #[test]
    fn head_only_training_leaves_backbone_untouched() {
        let dataset = tiny_dataset();
        let mut network = mlp(3);
        // Capture the first dense layer's weights before head training.
        let before: Vec<f32> = network.layers()[1]
            .as_any()
            .downcast_ref::<Dense>()
            .unwrap()
            .weights()
            .to_vec();
        let trainer = Trainer::new(TrainingConfig {
            epochs: 2,
            learning_rate: 0.05,
            learning_rate_decay: 1.0,
        });
        trainer.train_head_only(&mut network, &dataset).unwrap();
        let after: Vec<f32> = network.layers()[1]
            .as_any()
            .downcast_ref::<Dense>()
            .unwrap()
            .weights()
            .to_vec();
        assert_eq!(before, after, "backbone weights must stay frozen");
    }
}
