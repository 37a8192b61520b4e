//! Neural-network layers with forward and backward passes.
//!
//! All layers implement the [`Layer`] trait.  Training runs through
//! [`Layer::forward`]/[`Layer::backward`]: layers cache whatever they need
//! from the forward pass so that a subsequent `backward` call can produce the
//! input gradient and accumulate parameter gradients.  Inference has exactly
//! one path, [`Layer::infer_into`], which takes `&self`, writes into a
//! caller-owned tensor and draws every intermediate buffer from a
//! [`KernelScratch`] arena.

pub mod conv;
pub mod dense;
pub mod pool;
pub mod residual;

pub use conv::Conv2d;
pub use dense::Dense;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use residual::ResidualBlock;

use crate::error::DnnError;
use crate::scratch::KernelScratch;
use crate::tensor::Tensor;
use std::any::Any;

/// A neural-network layer.
///
/// The `forward`/`backward` pair follows the usual reverse-mode convention:
/// `backward` receives `∂L/∂output` and returns `∂L/∂input`, accumulating
/// `∂L/∂parameters` internally until [`Layer::apply_gradients`] is called.
///
/// [`Network`](crate::network::Network) threads tensors through the layer
/// stack *by value* via [`Layer::forward_owned`]/[`Layer::backward_owned`],
/// so shape-preserving layers (ReLU, flatten) can work in place instead of
/// allocating; the borrowing `forward`/`backward` remain the methods a layer
/// must implement.  [`Layer::infer_into`] is the immutable inference path
/// used by the parallel dataset evaluator: it computes the same output as
/// `forward` without touching any cached state, which is what makes a
/// `Network` shareable across evaluation threads.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Short human-readable layer name.
    fn name(&self) -> &'static str;

    /// Computes the layer output and caches what `backward` will need.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] for inputs of the wrong shape.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, DnnError>;

    /// Like [`Layer::forward`], but consumes the input tensor so in-place
    /// layers can reuse its buffer.  The default delegates to `forward`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] for inputs of the wrong shape.
    fn forward_owned(&mut self, input: Tensor) -> Result<Tensor, DnnError> {
        self.forward(&input)
    }

    /// Computes the layer output without mutating any cached state, writing
    /// it into a caller-owned tensor and drawing all intermediate buffers
    /// from the scratch arena, so the steady state allocates nothing.
    /// `output` is resized in place; its previous contents are irrelevant.
    /// Bit-identical to [`Layer::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] for inputs of the wrong shape.
    fn infer_into(
        &self,
        input: &Tensor,
        output: &mut Tensor,
        scratch: &mut KernelScratch,
    ) -> Result<(), DnnError>;

    /// Propagates the output gradient back to the input, accumulating
    /// parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfiguration`] when called before `forward`.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, DnnError>;

    /// Like [`Layer::backward`], but consumes the gradient tensor so
    /// in-place layers can reuse its buffer.  The default delegates to
    /// `backward`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfiguration`] when called before `forward`.
    fn backward_owned(&mut self, grad_output: Tensor) -> Result<Tensor, DnnError> {
        self.backward(&grad_output)
    }

    /// Applies the accumulated gradients with a plain SGD step and clears them.
    fn apply_gradients(&mut self, _learning_rate: f32) {}

    /// Clears any accumulated gradients without applying them.
    fn zero_gradients(&mut self) {}

    /// Number of trainable parameters.
    fn parameter_count(&self) -> usize {
        0
    }

    /// Output shape for a given input shape.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::ShapeMismatch`] for unsupported input shapes.
    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, DnnError>;

    /// Number of scalar multiplications one forward pass performs for the
    /// given input shape (used for the multiplication counts of Table II).
    fn multiplications(&self, _input_shape: &[usize]) -> u64 {
        0
    }

    /// Dynamic-cast support used by the INT4 quantizer.
    fn as_any(&self) -> &dyn Any;
}

/// Rectified linear unit activation.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, DnnError> {
        self.mask.clear();
        self.mask.extend(input.data().iter().map(|&v| v > 0.0));
        Ok(input.map(|v| v.max(0.0)))
    }

    fn forward_owned(&mut self, mut input: Tensor) -> Result<Tensor, DnnError> {
        self.mask.clear();
        self.mask.extend(input.data().iter().map(|&v| v > 0.0));
        input.map_inplace(|v| v.max(0.0));
        Ok(input)
    }

    fn infer_into(
        &self,
        input: &Tensor,
        output: &mut Tensor,
        _scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        output.copy_from(input);
        output.map_inplace(|v| v.max(0.0));
        Ok(())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, DnnError> {
        if self.mask.len() != grad_output.len() {
            return Err(DnnError::InvalidConfiguration {
                context: "relu backward called before forward".to_string(),
            });
        }
        let data = grad_output
            .data()
            .iter()
            .zip(self.mask.iter())
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_output.shape(), data)
    }

    fn backward_owned(&mut self, mut grad_output: Tensor) -> Result<Tensor, DnnError> {
        if self.mask.len() != grad_output.len() {
            return Err(DnnError::InvalidConfiguration {
                context: "relu backward called before forward".to_string(),
            });
        }
        for (g, &m) in grad_output.data_mut().iter_mut().zip(self.mask.iter()) {
            if !m {
                *g = 0.0;
            }
        }
        Ok(grad_output)
    }

    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, DnnError> {
        Ok(input_shape.to_vec())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Flattens any tensor into a 1-D vector.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, DnnError> {
        self.input_shape = input.shape().to_vec();
        input.reshaped(&[input.len()])
    }

    fn forward_owned(&mut self, mut input: Tensor) -> Result<Tensor, DnnError> {
        self.input_shape.clear();
        self.input_shape.extend_from_slice(input.shape());
        input.reshape_in_place(&[input.len()])?;
        Ok(input)
    }

    fn infer_into(
        &self,
        input: &Tensor,
        output: &mut Tensor,
        _scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        output.copy_from(input);
        output.reshape_in_place(&[input.len()])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, DnnError> {
        if self.input_shape.is_empty() {
            return Err(DnnError::InvalidConfiguration {
                context: "flatten backward called before forward".to_string(),
            });
        }
        grad_output.reshaped(&self.input_shape)
    }

    fn backward_owned(&mut self, mut grad_output: Tensor) -> Result<Tensor, DnnError> {
        if self.input_shape.is_empty() {
            return Err(DnnError::InvalidConfiguration {
                context: "flatten backward called before forward".to_string(),
            });
        }
        grad_output.reshape_in_place(&self.input_shape)?;
        Ok(grad_output)
    }

    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, DnnError> {
        Ok(vec![input_shape.iter().product()])
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_and_backward() {
        let mut relu = Relu::new();
        let input = Tensor::from_slice(&[-1.0, 2.0, -3.0, 4.0]);
        let output = relu.forward(&input).unwrap();
        assert_eq!(output.data(), &[0.0, 2.0, 0.0, 4.0]);
        let grad = relu
            .backward(&Tensor::from_slice(&[1.0, 1.0, 1.0, 1.0]))
            .unwrap();
        assert_eq!(grad.data(), &[0.0, 1.0, 0.0, 1.0]);
        assert_eq!(relu.output_shape(&[4]).unwrap(), vec![4]);
        assert_eq!(relu.parameter_count(), 0);
    }

    #[test]
    fn relu_backward_without_forward_is_an_error() {
        let mut relu = Relu::new();
        assert!(relu.backward(&Tensor::from_slice(&[1.0])).is_err());
    }

    #[test]
    fn flatten_round_trip() {
        let mut flatten = Flatten::new();
        let input = Tensor::zeros(&[2, 3, 3]);
        let output = flatten.forward(&input).unwrap();
        assert_eq!(output.shape(), &[18]);
        let grad = flatten.backward(&Tensor::zeros(&[18])).unwrap();
        assert_eq!(grad.shape(), &[2, 3, 3]);
        assert_eq!(flatten.output_shape(&[2, 3, 3]).unwrap(), vec![18]);
        let mut fresh = Flatten::new();
        assert!(fresh.backward(&Tensor::zeros(&[18])).is_err());
    }

    #[test]
    fn infer_into_matches_forward_bit_for_bit_for_every_layer_kind() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut layers: Vec<(Box<dyn Layer>, Vec<usize>)> = vec![
            (Box::new(Conv2d::new(2, 3, 3, &mut rng)), vec![2, 5, 7]),
            (Box::new(Dense::new(12, 5, &mut rng)), vec![12]),
            (Box::new(Relu::new()), vec![2, 3, 4]),
            (Box::new(Flatten::new()), vec![2, 3, 4]),
            (Box::new(MaxPool2d::new()), vec![2, 5, 6]),
            (Box::new(GlobalAvgPool::new()), vec![3, 4, 5]),
            (Box::new(ResidualBlock::new(2, 3, &mut rng)), vec![2, 6, 5]),
        ];
        // One scratch and one output tensor serve every layer in turn.
        let mut scratch = KernelScratch::new();
        let mut output = Tensor::default();
        for (layer, shape) in &mut layers {
            let len = shape.iter().product::<usize>();
            let input = Tensor::from_vec(
                shape,
                (0..len).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect(),
            )
            .unwrap();
            layer.infer_into(&input, &mut output, &mut scratch).unwrap();
            let forwarded = layer.forward(&input).unwrap();
            assert_eq!(output.shape(), forwarded.shape(), "{}", layer.name());
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&output), bits(&forwarded), "{}", layer.name());
        }
    }
}
