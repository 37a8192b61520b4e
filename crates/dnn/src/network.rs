//! Sequential networks of layers.
//!
//! A [`Network`] has one training path ([`Network::forward`] /
//! [`Network::backward`], `&mut self`) and one inference path
//! ([`Network::infer_with`], `&self`, every buffer drawn from a
//! [`KernelScratch`] arena).

use crate::error::DnnError;
use crate::layers::Layer;
use crate::scratch::KernelScratch;
use crate::tensor::Tensor;

/// A sequential feed-forward network.
///
/// # Example
///
/// ```rust
/// use optima_dnn::layers::{Dense, Relu};
/// use optima_dnn::network::Network;
/// use optima_dnn::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mut net = Network::new(vec![
///     Box::new(Dense::new(4, 8, &mut rng)),
///     Box::new(Relu::new()),
///     Box::new(Dense::new(8, 2, &mut rng)),
/// ]);
/// let logits = net.forward(&Tensor::from_slice(&[0.1, 0.2, 0.3, 0.4])).unwrap();
/// assert_eq!(logits.len(), 2);
/// ```
#[derive(Debug)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates a network from an ordered list of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Network { layers }
    }

    /// The layers of the network.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layers (used by transfer learning to swap the head).
    pub fn layers_mut(&mut self) -> &mut Vec<Box<dyn Layer>> {
        &mut self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` for an empty network.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs a forward pass through every layer.
    ///
    /// The first layer borrows `input`; after that the activation tensor is
    /// threaded through the stack *by value*, so shape-preserving layers
    /// (ReLU, flatten) run in place and no layer ever clones a tensor.  The
    /// zero-clone property is pinned by a unit test that counts
    /// `Tensor::clone` calls.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, DnnError> {
        let mut layers = self.layers.iter_mut();
        let mut current = match layers.next() {
            Some(first) => first.forward(input)?,
            None => return Ok(input.clone()),
        };
        for layer in layers {
            current = layer.forward_owned(current)?;
        }
        Ok(current)
    }

    /// Runs an inference pass with every buffer drawn from `scratch`,
    /// without mutating any layer state.
    ///
    /// Unlike [`Network::forward`] this takes `&self`, which is what allows
    /// one network to be shared across the threads of the batched dataset
    /// evaluator ([`crate::eval::evaluate_batched`]); nothing is cached, so
    /// no backward pass is possible afterwards.  The output is bit-identical
    /// to `forward`'s.  The activations ping-pong between two pool tensors,
    /// and the result is parked in the arena and returned by reference
    /// (valid until the next call that borrows the same scratch).  After the
    /// first few calls have grown the buffers to the network's high-water
    /// mark, the steady state performs **zero** heap allocations per image;
    /// the workspace's counting-allocator test pins that property.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors (leased buffers are returned to the
    /// pool on the error path, so a failed call leaks nothing).
    pub fn infer_with<'s>(
        &self,
        input: &Tensor,
        scratch: &'s mut KernelScratch,
    ) -> Result<&'s Tensor, DnnError> {
        let mut current = scratch.lease();
        let mut next = scratch.lease();
        let result = self.infer_ping_pong(input, &mut current, &mut next, scratch);
        scratch.release(next);
        match result {
            Ok(()) => Ok(scratch.store_result(current)),
            Err(error) => {
                scratch.release(current);
                Err(error)
            }
        }
    }

    /// The layer loop of [`Network::infer_with`]: `current` holds the layer
    /// input, `next` receives the output, and the two swap roles each step.
    fn infer_ping_pong(
        &self,
        input: &Tensor,
        current: &mut Tensor,
        next: &mut Tensor,
        scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        let mut layers = self.layers.iter();
        match layers.next() {
            Some(first) => first.infer_into(input, current, scratch)?,
            None => current.copy_from(input),
        }
        for layer in layers {
            layer.infer_into(current, next, scratch)?;
            std::mem::swap(current, next);
        }
        Ok(())
    }

    /// Runs a backward pass (after a forward pass) and accumulates gradients.
    ///
    /// Like [`Network::forward`], the gradient tensor is threaded through by
    /// value so in-place layers avoid allocating.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (e.g. backward before forward).
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, DnnError> {
        let mut layers = self.layers.iter_mut().rev();
        let mut grad = match layers.next() {
            Some(last) => last.backward(grad_output)?,
            None => return Ok(grad_output.clone()),
        };
        for layer in layers {
            grad = layer.backward_owned(grad)?;
        }
        Ok(grad)
    }

    /// Applies accumulated gradients to every layer.
    pub fn apply_gradients(&mut self, learning_rate: f32) {
        for layer in &mut self.layers {
            layer.apply_gradients(learning_rate);
        }
    }

    /// Clears accumulated gradients in every layer.
    pub fn zero_gradients(&mut self) {
        for layer in &mut self.layers {
            layer.zero_gradients();
        }
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_count()).sum()
    }

    /// Total number of scalar multiplications of one forward pass for an
    /// input of the given shape (the multiplication counts of Table II).
    ///
    /// # Errors
    ///
    /// Propagates shape-propagation errors.
    pub fn multiplications(&self, input_shape: &[usize]) -> Result<u64, DnnError> {
        let mut shape = input_shape.to_vec();
        let mut total = 0u64;
        for layer in &self.layers {
            total += layer.multiplications(&shape);
            shape = layer.output_shape(&shape)?;
        }
        Ok(total)
    }

    /// Output shape of the network for the given input shape.
    ///
    /// # Errors
    ///
    /// Propagates shape-propagation errors.
    pub fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, DnnError> {
        let mut shape = input_shape.to_vec();
        for layer in &self.layers {
            shape = layer.output_shape(&shape)?;
        }
        Ok(shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn tiny_cnn() -> Network {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        Network::new(vec![
            Box::new(Conv2d::new(1, 2, 3, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(2 * 2 * 2, 3, &mut rng)),
        ])
    }

    #[test]
    fn forward_produces_the_expected_output_shape() {
        let mut net = tiny_cnn();
        assert_eq!(net.len(), 5);
        assert!(!net.is_empty());
        assert_eq!(net.output_shape(&[1, 4, 4]).unwrap(), vec![3]);
        let out = net.forward(&Tensor::zeros(&[1, 4, 4])).unwrap();
        assert_eq!(out.shape(), &[3]);
    }

    #[test]
    fn multiplication_count_matches_layer_sums() {
        let net = tiny_cnn();
        // conv: 4*4*2*1*9 = 288, dense: 8*3 = 24
        assert_eq!(net.multiplications(&[1, 4, 4]).unwrap(), 288 + 24);
        assert!(net.parameter_count() > 0);
    }

    #[test]
    fn backward_and_gradient_application_run_end_to_end() {
        let mut net = tiny_cnn();
        let input =
            Tensor::from_vec(&[1, 4, 4], (0..16).map(|i| i as f32 * 0.05).collect()).unwrap();
        let out = net.forward(&input).unwrap();
        let grad = Tensor::from_vec(out.shape(), vec![1.0; out.len()]).unwrap();
        let grad_input = net.backward(&grad).unwrap();
        assert_eq!(grad_input.shape(), input.shape());
        net.apply_gradients(0.01);
        net.zero_gradients();
    }

    #[test]
    fn shape_errors_propagate() {
        let mut net = tiny_cnn();
        assert!(net.forward(&Tensor::zeros(&[2, 4, 4])).is_err());
        assert!(net.multiplications(&[2, 4, 4]).is_err());
    }

    #[test]
    fn infer_with_matches_forward_and_leaves_no_backward_state() {
        use crate::layers::{GlobalAvgPool, ResidualBlock};
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        // One of every layer kind, so the scratch path covers the whole zoo.
        let zoo = |rng: &mut ChaCha8Rng| {
            Network::new(vec![
                Box::new(Conv2d::new(1, 4, 3, rng)),
                Box::new(Relu::new()),
                Box::new(MaxPool2d::new()),
                Box::new(ResidualBlock::new(4, 3, rng)),
                Box::new(GlobalAvgPool::new()),
                Box::new(Flatten::new()),
                Box::new(Dense::new(4, 3, rng)),
            ])
        };
        let mut net = zoo(&mut rng);
        let mut scratch = crate::scratch::KernelScratch::new();
        for seed in 0..4u64 {
            let mut data_rng = ChaCha8Rng::seed_from_u64(seed);
            let input = Tensor::from_vec(
                &[1, 8, 8],
                (0..64).map(|_| data_rng.gen::<f32>() * 2.0 - 1.0).collect(),
            )
            .unwrap();
            let pooled = net.infer_with(&input, &mut scratch).unwrap().clone();
            assert_eq!(pooled, net.forward(&input).unwrap(), "seed {seed}");
        }
        // infer_with must not enable a backward pass on a fresh network.
        let mut fresh = zoo(&mut ChaCha8Rng::seed_from_u64(21));
        let _ = fresh
            .infer_with(&Tensor::zeros(&[1, 8, 8]), &mut scratch)
            .unwrap();
        assert!(fresh.backward(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn infer_with_recovers_after_a_shape_error() {
        let net = tiny_cnn();
        let input =
            Tensor::from_vec(&[1, 4, 4], (0..16).map(|i| i as f32 * 0.07).collect()).unwrap();
        let expected = net
            .infer_with(&input, &mut crate::scratch::KernelScratch::new())
            .unwrap()
            .clone();
        let mut scratch = crate::scratch::KernelScratch::new();
        assert!(net
            .infer_with(&Tensor::zeros(&[2, 4, 4]), &mut scratch)
            .is_err());
        assert_eq!(&expected, net.infer_with(&input, &mut scratch).unwrap());
    }

    #[test]
    fn infer_with_on_an_empty_network_copies_the_input() {
        let net = Network::new(Vec::new());
        let mut scratch = crate::scratch::KernelScratch::new();
        let input = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(&input, net.infer_with(&input, &mut scratch).unwrap());
    }

    #[test]
    fn forward_and_backward_perform_zero_tensor_clones() {
        use crate::layers::{GlobalAvgPool, ResidualBlock};
        use crate::tensor::clone_count;
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        // One of every layer kind, so the audit covers the whole zoo.
        let mut net = Network::new(vec![
            Box::new(Conv2d::new(1, 4, 3, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new()),
            Box::new(ResidualBlock::new(4, 3, &mut rng)),
            Box::new(GlobalAvgPool::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(4, 3, &mut rng)),
        ]);
        let input = Tensor::from_vec(
            &[1, 8, 8],
            (0..64).map(|i| (i as f32 * 0.11).sin()).collect(),
        )
        .unwrap();
        // Warm up scratch buffers, then measure a full training step.
        let out = net.forward(&input).unwrap();
        let grad = Tensor::from_vec(out.shape(), vec![1.0; out.len()]).unwrap();
        net.backward(&grad).unwrap();

        let before = clone_count();
        let out = net.forward(&input).unwrap();
        let grad = Tensor::from_vec(out.shape(), vec![1.0; out.len()]).unwrap();
        net.backward(&grad).unwrap();
        assert_eq!(
            clone_count(),
            before,
            "forward/backward must perform zero intermediate Tensor clones"
        );
    }
}
