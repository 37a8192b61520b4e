//! Fully connected (dense) layer.
//!
//! Forward and backward run on the [`optima_math::gemm`] kernels: the
//! forward pass is one packed-panel [`PackedGemm::gemv_into`] over a weight
//! plan that is packed once and cached until the weights change, the weight
//! gradient one rank-1 [`ger`] update and the input gradient one [`gemv_t`]
//! — all over contiguous slices with no per-element bounds checks.  The
//! layer copies the forward input into a reusable flat buffer instead of
//! cloning the tensor.

use crate::error::DnnError;
use crate::layers::Layer;
use crate::scratch::KernelScratch;
use crate::tensor::Tensor;
use optima_math::gemm::{gemv_t, ger, PackedGemm};
use rand::Rng;
use std::any::Any;
use std::sync::OnceLock;

/// A fully connected layer `y = W·x + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    inputs: usize,
    outputs: usize,
    /// Row-major `[outputs × inputs]` weight matrix.
    weights: Vec<f32>,
    bias: Vec<f32>,
    grad_weights: Vec<f32>,
    grad_bias: Vec<f32>,
    /// Flat copy of the last forward input (allocation reused across calls).
    cached_input: Vec<f32>,
    forward_ran: bool,
    /// Packed-panel GEMM plan over the current weights, built lazily on the
    /// first forward and reset by any weight mutation.
    plan: OnceLock<PackedGemm>,
}

impl Dense {
    /// Creates a dense layer with He-initialised weights.
    pub fn new<R: Rng + ?Sized>(inputs: usize, outputs: usize, rng: &mut R) -> Self {
        let scale = (2.0 / inputs as f32).sqrt();
        let weights = (0..inputs * outputs)
            .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        Dense {
            inputs,
            outputs,
            weights,
            bias: vec![0.0; outputs],
            grad_weights: vec![0.0; inputs * outputs],
            grad_bias: vec![0.0; outputs],
            cached_input: Vec::new(),
            forward_ran: false,
            plan: OnceLock::new(),
        }
    }

    /// Drops the cached packed-weight plan; the next forward repacks.
    fn invalidate_plan(&mut self) {
        self.plan = OnceLock::new();
    }

    /// Packed-panel plan over the current weights, built on first use and
    /// shared by `forward` and `infer_into`.
    fn plan(&self) -> &PackedGemm {
        self.plan
            .get_or_init(|| PackedGemm::pack(self.outputs, self.inputs, &self.weights))
    }

    /// `y = W·x + b` into `output`: the one affine kernel behind both
    /// `forward` and `infer_into`.
    fn affine_into(&self, input: &Tensor, output: &mut Tensor) -> Result<(), DnnError> {
        if input.len() != self.inputs {
            return Err(DnnError::ShapeMismatch {
                expected: vec![self.inputs],
                found: input.shape().to_vec(),
            });
        }
        output.resize_to(&[self.outputs]);
        let out = output.data_mut();
        out.copy_from_slice(&self.bias);
        self.plan().gemv_into(input.data(), out);
        Ok(())
    }

    /// Number of input features.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of output features.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// The weight matrix in row-major `[outputs × inputs]` order.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Overwrites the weights (e.g. to load externally trained parameters).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] when the length differs from the
    /// layer's weight count.
    pub fn set_weights(&mut self, weights: &[f32]) -> Result<(), DnnError> {
        if weights.len() != self.weights.len() {
            return Err(DnnError::ShapeMismatch {
                expected: vec![self.weights.len()],
                found: vec![weights.len()],
            });
        }
        self.weights.copy_from_slice(weights);
        self.invalidate_plan();
        Ok(())
    }

    /// Overwrites the bias vector.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] when the length differs from the
    /// number of outputs.
    pub fn set_bias(&mut self, bias: &[f32]) -> Result<(), DnnError> {
        if bias.len() != self.bias.len() {
            return Err(DnnError::ShapeMismatch {
                expected: vec![self.bias.len()],
                found: vec![bias.len()],
            });
        }
        self.bias.copy_from_slice(bias);
        Ok(())
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, DnnError> {
        let mut output = Tensor::default();
        self.affine_into(input, &mut output)?;
        self.cached_input.clear();
        self.cached_input.extend_from_slice(input.data());
        self.forward_ran = true;
        Ok(output)
    }

    fn infer_into(
        &self,
        input: &Tensor,
        output: &mut Tensor,
        _scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        self.affine_into(input, output)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, DnnError> {
        if !self.forward_ran {
            return Err(DnnError::InvalidConfiguration {
                context: "dense backward called before forward".to_string(),
            });
        }
        if grad_output.len() != self.outputs {
            return Err(DnnError::ShapeMismatch {
                expected: vec![self.outputs],
                found: grad_output.shape().to_vec(),
            });
        }
        let g = grad_output.data();
        for (grad_bias, &go) in self.grad_bias.iter_mut().zip(g.iter()) {
            *grad_bias += go;
        }
        // ∂L/∂W += g·xᵀ, ∂L/∂x = Wᵀ·g.
        ger(
            self.outputs,
            self.inputs,
            g,
            &self.cached_input,
            &mut self.grad_weights,
        );
        let mut grad_input = vec![0.0f32; self.inputs];
        gemv_t(self.outputs, self.inputs, &self.weights, g, &mut grad_input);
        Tensor::from_vec(&[self.inputs], grad_input)
    }

    fn apply_gradients(&mut self, learning_rate: f32) {
        for (w, g) in self.weights.iter_mut().zip(self.grad_weights.iter()) {
            *w -= learning_rate * g;
        }
        for (b, g) in self.bias.iter_mut().zip(self.grad_bias.iter()) {
            *b -= learning_rate * g;
        }
        self.invalidate_plan();
        self.zero_gradients();
    }

    fn zero_gradients(&mut self) {
        self.grad_weights.iter_mut().for_each(|g| *g = 0.0);
        self.grad_bias.iter_mut().for_each(|g| *g = 0.0);
    }

    fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, DnnError> {
        let elements: usize = input_shape.iter().product();
        if elements != self.inputs {
            return Err(DnnError::ShapeMismatch {
                expected: vec![self.inputs],
                found: input_shape.to_vec(),
            });
        }
        Ok(vec![self.outputs])
    }

    fn multiplications(&self, _input_shape: &[usize]) -> u64 {
        (self.inputs * self.outputs) as u64
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_dense() -> Dense {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut layer = Dense::new(3, 2, &mut rng);
        layer.weights = vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5];
        layer.bias = vec![0.1, -0.1];
        layer
    }

    #[test]
    fn forward_computes_affine_map() {
        let mut layer = tiny_dense();
        let out = layer
            .forward(&Tensor::from_slice(&[1.0, 2.0, 3.0]))
            .unwrap();
        assert!((out.data()[0] - (1.0 - 3.0 + 0.1)).abs() < 1e-6);
        assert!((out.data()[1] - (0.5 + 1.0 + 1.5 - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn forward_rejects_wrong_input_size() {
        let mut layer = tiny_dense();
        assert!(layer.forward(&Tensor::from_slice(&[1.0, 2.0])).is_err());
        assert!(layer.output_shape(&[4]).is_err());
        assert_eq!(layer.output_shape(&[3]).unwrap(), vec![2]);
        assert_eq!(layer.multiplications(&[3]), 6);
        assert_eq!(layer.parameter_count(), 8);
    }

    #[test]
    fn numerical_gradient_check() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut layer = Dense::new(4, 3, &mut rng);
        let input = Tensor::from_slice(&[0.3, -0.2, 0.8, 0.1]);
        // Loss = sum(outputs); its gradient w.r.t. outputs is all ones.
        let output = layer.forward(&input).unwrap();
        let loss = |o: &Tensor| o.data().iter().sum::<f32>();
        let base_loss = loss(&output);
        let grad_input = layer
            .backward(&Tensor::from_slice(&[1.0, 1.0, 1.0]))
            .unwrap();

        let eps = 1e-3;
        for i in 0..4 {
            let mut perturbed = input.clone();
            perturbed.data_mut()[i] += eps;
            let mut probe = layer.clone();
            let new_loss = loss(&probe.forward(&perturbed).unwrap());
            let numeric = (new_loss - base_loss) / eps;
            assert!(
                (numeric - grad_input.data()[i]).abs() < 1e-2,
                "grad mismatch at {i}: analytic {} vs numeric {numeric}",
                grad_input.data()[i]
            );
        }
    }

    #[test]
    fn sgd_step_reduces_simple_loss() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut layer = Dense::new(2, 1, &mut rng);
        let input = Tensor::from_slice(&[1.0, -1.0]);
        let target = 2.0;
        let mut last_loss = f32::INFINITY;
        for _ in 0..50 {
            let out = layer.forward(&input).unwrap();
            let error = out.data()[0] - target;
            let loss = error * error;
            layer.backward(&Tensor::from_slice(&[2.0 * error])).unwrap();
            layer.apply_gradients(0.1);
            assert!(loss <= last_loss + 1e-4);
            last_loss = loss;
        }
        assert!(last_loss < 1e-3);
    }

    #[test]
    fn backward_before_forward_is_an_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut layer = Dense::new(2, 2, &mut rng);
        assert!(layer.backward(&Tensor::from_slice(&[1.0, 1.0])).is_err());
    }
}
