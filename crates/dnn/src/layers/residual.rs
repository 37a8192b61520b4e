//! Residual block (two convolutions with an identity skip connection).
//!
//! The ResNet-style models of [`crate::models`] are built from these blocks,
//! mirroring (at reduced scale) the bottleneck blocks of ResNet-50/101 used
//! in the paper's Table II/III experiments.

use crate::error::DnnError;
use crate::layers::conv::Conv2d;
use crate::layers::{Layer, Relu};
use crate::scratch::KernelScratch;
use crate::tensor::Tensor;
use rand::Rng;
use std::any::Any;

/// `y = relu(conv2(relu(conv1(x))) + x)` with channel-preserving convolutions.
#[derive(Debug)]
pub struct ResidualBlock {
    conv1: Conv2d,
    relu1: Relu,
    conv2: Conv2d,
    relu_out: Relu,
    forward_ran: bool,
}

impl ResidualBlock {
    /// Creates a residual block operating on `channels` feature maps.
    pub fn new<R: Rng + ?Sized>(channels: usize, kernel: usize, rng: &mut R) -> Self {
        ResidualBlock {
            conv1: Conv2d::new(channels, channels, kernel, rng),
            relu1: Relu::new(),
            conv2: Conv2d::new(channels, channels, kernel, rng),
            relu_out: Relu::new(),
            forward_ran: false,
        }
    }

    /// The two inner convolutions (used by the INT4 quantizer).
    pub fn convolutions(&self) -> (&Conv2d, &Conv2d) {
        (&self.conv1, &self.conv2)
    }
}

impl Layer for ResidualBlock {
    fn name(&self) -> &'static str {
        "residual_block"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, DnnError> {
        // The branch tensors are threaded through by value (in-place ReLU,
        // accumulating skip add); the input is never cloned.
        let branch = self.conv1.forward(input)?;
        let branch = self.relu1.forward_owned(branch)?;
        let mut branch = self.conv2.forward(&branch)?;
        branch.add_assign(input)?;
        self.forward_ran = true;
        self.relu_out.forward_owned(branch)
    }

    fn infer_into(
        &self,
        input: &Tensor,
        output: &mut Tensor,
        scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        // The branch activation lives in a leased pool tensor so the block
        // allocates nothing once the pool has warmed up.
        let mut branch = scratch.lease();
        let result = (|| {
            self.conv1.infer_into(input, &mut branch, scratch)?;
            branch.map_inplace(|v| v.max(0.0));
            self.conv2.infer_into(&branch, output, scratch)?;
            output.add_assign(input)?;
            output.map_inplace(|v| v.max(0.0));
            Ok(())
        })();
        scratch.release(branch);
        result
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, DnnError> {
        if !self.forward_ran {
            return Err(DnnError::InvalidConfiguration {
                context: "residual backward called before forward".to_string(),
            });
        }
        let grad_sum = self.relu_out.backward(grad_output)?;
        // The sum node fans the gradient out to the branch and the skip path.
        let grad_branch = self.conv2.backward(&grad_sum)?;
        let grad_branch = self.relu1.backward_owned(grad_branch)?;
        let mut grad_input = self.conv1.backward(&grad_branch)?;
        grad_input.add_assign(&grad_sum)?;
        Ok(grad_input)
    }

    fn apply_gradients(&mut self, learning_rate: f32) {
        self.conv1.apply_gradients(learning_rate);
        self.conv2.apply_gradients(learning_rate);
    }

    fn zero_gradients(&mut self) {
        self.conv1.zero_gradients();
        self.conv2.zero_gradients();
    }

    fn parameter_count(&self) -> usize {
        self.conv1.parameter_count() + self.conv2.parameter_count()
    }

    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, DnnError> {
        // Channel-preserving: output shape equals input shape.
        self.conv1.output_shape(input_shape)?;
        Ok(input_shape.to_vec())
    }

    fn multiplications(&self, input_shape: &[usize]) -> u64 {
        self.conv1.multiplications(input_shape) + self.conv2.multiplications(input_shape)
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

    #[test]
    fn forward_preserves_shape_and_uses_the_skip_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut block = ResidualBlock::new(2, 3, &mut rng);
        // Zero out the convolutions so the block reduces to relu(x).
        let zero_weights = vec![0.0; block.conv1.weights().len()];
        block.conv1.set_weights(&zero_weights).unwrap();
        block.conv2.set_weights(&zero_weights).unwrap();
        block.conv1.set_bias(&[0.0, 0.0]).unwrap();
        block.conv2.set_bias(&[0.0, 0.0]).unwrap();
        let input =
            Tensor::from_vec(&[2, 2, 2], vec![1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, 8.0]).unwrap();
        let output = block.forward(&input).unwrap();
        assert_eq!(output.shape(), input.shape());
        assert_eq!(output.data()[0], 1.0);
        assert_eq!(output.data()[1], 0.0); // negative input clipped by the output relu
    }

    #[test]
    fn numerical_gradient_check_through_the_block() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut block = ResidualBlock::new(1, 3, &mut rng);
        let input =
            Tensor::from_vec(&[1, 3, 3], (0..9).map(|i| 0.1 * i as f32 + 0.05).collect()).unwrap();
        let output = block.forward(&input).unwrap();
        let base_loss: f32 = output.data().iter().sum();
        let ones = Tensor::from_vec(output.shape(), vec![1.0; output.len()]).unwrap();
        let grad_input = block.backward(&ones).unwrap();

        let eps = 1e-3;
        for probe in [0usize, 4, 8] {
            let mut perturbed = input.clone();
            perturbed.data_mut()[probe] += eps;
            let mut rng2 = ChaCha8Rng::seed_from_u64(5);
            let mut fresh = ResidualBlock::new(1, 3, &mut rng2);
            let new_loss: f32 = fresh.forward(&perturbed).unwrap().data().iter().sum();
            let numeric = (new_loss - base_loss) / eps;
            let analytic = grad_input.data()[probe];
            assert!(
                (numeric - analytic).abs() < 5e-2,
                "grad mismatch at {probe}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn shape_and_multiplication_accounting() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let block = ResidualBlock::new(4, 3, &mut rng);
        assert_eq!(block.output_shape(&[4, 8, 8]).unwrap(), vec![4, 8, 8]);
        assert!(block.output_shape(&[3, 8, 8]).is_err());
        assert_eq!(block.multiplications(&[4, 8, 8]), 2 * 8 * 8 * 4 * 4 * 9);
        assert_eq!(block.parameter_count(), 2 * (4 * 4 * 9 + 4));
        let (c1, c2) = block.convolutions();
        assert_eq!(c1.out_channels(), 4);
        assert_eq!(c2.in_channels(), 4);
    }

    #[test]
    fn backward_before_forward_is_an_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut block = ResidualBlock::new(1, 3, &mut rng);
        assert!(block.backward(&Tensor::zeros(&[1, 2, 2])).is_err());
    }
}
