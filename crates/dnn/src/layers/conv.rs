//! 2-D convolution layer (same padding, stride 1).
//!
//! The forward and backward passes are lowered onto im2col + GEMM (see
//! [`crate::im2col`] and [`optima_math::gemm`]): the input is unrolled into
//! a `[in_c·k², h·w]` patch matrix once, after which the convolution is a
//! single dense matrix product over contiguous memory.  The forward product
//! runs on the packed-panel 8-wide micro-kernel: the weight matrix is
//! packed **once** into a [`PackedGemm`] plan that is cached on the layer
//! and invalidated whenever the weights change, so a whole batch of images
//! reuses one packing.  The patch matrix is cached between forward and
//! backward — the backward pass needs exactly the same patches for the
//! weight gradient — so the layer never clones its input tensor.  The
//! original six-deep scalar loop survives as the oracle of the equivalence
//! tests (`tests/dnn_kernels.rs`).

use crate::error::DnnError;
use crate::im2col::{col2im_add, im2col};
use crate::layers::Layer;
use crate::scratch::KernelScratch;
use crate::tensor::Tensor;
use optima_math::gemm::{gemm_nt, gemm_tn, GemmScratch, PackedGemm};
use rand::Rng;
use std::any::Any;
use std::sync::OnceLock;

/// A 2-D convolution over `[C, H, W]` tensors with "same" padding and stride 1.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    /// Weights in `[out_c, in_c, k, k]` order.
    weights: Vec<f32>,
    bias: Vec<f32>,
    grad_weights: Vec<f32>,
    grad_bias: Vec<f32>,
    /// im2col patches of the last forward input (reused by `backward`).
    cols: Vec<f32>,
    /// Scratch for the patch-space gradient in `backward`.
    grad_cols: Vec<f32>,
    /// Spatial size of the last forward input; `None` before any forward.
    cached_spatial: Option<(usize, usize)>,
    /// Packed-panel GEMM plan over the current weights, built lazily on the
    /// first forward and reset by any weight mutation.
    plan: OnceLock<PackedGemm>,
    /// Packed-`B` arena for the `&mut self` training path (the immutable
    /// inference paths draw theirs from the caller's [`KernelScratch`]).
    gemm_scratch: GemmScratch,
}

impl Conv2d {
    /// Creates a convolution layer with He-initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is even or zero (only odd kernels keep "same"
    /// padding symmetric).
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        rng: &mut R,
    ) -> Self {
        assert!(kernel % 2 == 1 && kernel > 0, "kernel size must be odd");
        let fan_in = in_channels * kernel * kernel;
        let scale = (2.0 / fan_in as f32).sqrt();
        let weights = (0..out_channels * fan_in)
            .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            weights,
            bias: vec![0.0; out_channels],
            grad_weights: vec![0.0; out_channels * fan_in],
            grad_bias: vec![0.0; out_channels],
            cols: Vec::new(),
            grad_cols: Vec::new(),
            cached_spatial: None,
            plan: OnceLock::new(),
            gemm_scratch: GemmScratch::new(),
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Weights in `[out_c, in_c, k, k]` order.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Bias per output channel.
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
    /// number of output channels.
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

    /// Drops the cached packed-weight plan; the next forward repacks.
    fn invalidate_plan(&mut self) {
        self.plan = OnceLock::new();
    }

    /// Packed-panel plan over the current weights, built on first use.
    ///
    /// Packing happens at most once per weight version: `forward` and
    /// `infer_into` share this plan, so a whole evaluation batch pays the
    /// packing cost a single time.
    fn plan(&self) -> &PackedGemm {
        self.plan.get_or_init(|| {
            let patch = self.in_channels * self.kernel * self.kernel;
            PackedGemm::pack(self.out_channels, patch, &self.weights)
        })
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize), DnnError> {
        let shape = input.shape();
        if shape.len() != 3 || shape[0] != self.in_channels {
            return Err(DnnError::ShapeMismatch {
                expected: vec![self.in_channels, 0, 0],
                found: shape.to_vec(),
            });
        }
        Ok((shape[1], shape[2]))
    }

    /// im2col + packed GEMM into `output`; `cols` receives the patch
    /// matrix.  The one convolution kernel behind both `forward` and
    /// `infer_into`, which differ only in where `cols` and the packed-`B`
    /// arena live.
    fn run_forward(
        &self,
        input: &Tensor,
        output: &mut Tensor,
        cols: &mut Vec<f32>,
        gemm_scratch: &mut GemmScratch,
    ) -> Result<(), DnnError> {
        let (height, width) = self.check_input(input)?;
        let hw = height * width;
        im2col(
            input.data(),
            0.0,
            self.in_channels,
            height,
            width,
            self.kernel,
            cols,
        );
        output.resize_to(&[self.out_channels, height, width]);
        let out = output.data_mut();
        for (row, &b) in out.chunks_exact_mut(hw.max(1)).zip(self.bias.iter()) {
            row.fill(b);
        }
        self.plan().gemm_into(hw, cols, out, gemm_scratch);
        Ok(())
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, DnnError> {
        let mut output = Tensor::default();
        let mut cols = std::mem::take(&mut self.cols);
        let mut gemm_scratch = std::mem::take(&mut self.gemm_scratch);
        let result = self.run_forward(input, &mut output, &mut cols, &mut gemm_scratch);
        self.cols = cols;
        self.gemm_scratch = gemm_scratch;
        result?;
        self.cached_spatial = Some((output.shape()[1], output.shape()[2]));
        Ok(output)
    }

    fn infer_into(
        &self,
        input: &Tensor,
        output: &mut Tensor,
        scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        self.run_forward(input, output, &mut scratch.cols, &mut scratch.gemm)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, DnnError> {
        let (height, width) =
            self.cached_spatial
                .ok_or_else(|| DnnError::InvalidConfiguration {
                    context: "conv2d backward called before forward".to_string(),
                })?;
        if grad_output.shape() != [self.out_channels, height, width] {
            return Err(DnnError::ShapeMismatch {
                expected: vec![self.out_channels, height, width],
                found: grad_output.shape().to_vec(),
            });
        }
        let hw = height * width;
        let patch = self.in_channels * self.kernel * self.kernel;
        let grad = grad_output.data();

        // ∂L/∂bias: one row-sum per output channel.
        for (oc, grad_bias) in self.grad_bias.iter_mut().enumerate() {
            *grad_bias += grad[oc * hw..(oc + 1) * hw].iter().sum::<f32>();
        }
        // ∂L/∂W += G · colsᵀ — the cached forward patches are the activations.
        gemm_nt(
            self.out_channels,
            hw,
            patch,
            grad,
            &self.cols,
            &mut self.grad_weights,
        );
        // ∂L/∂cols = Wᵀ · G, then scatter back to image layout.
        self.grad_cols.clear();
        self.grad_cols.resize(patch * hw, 0.0);
        gemm_tn(
            patch,
            self.out_channels,
            hw,
            &self.weights,
            grad,
            &mut self.grad_cols,
        );
        let mut grad_input = Tensor::zeros(&[self.in_channels, height, width]);
        col2im_add(
            &self.grad_cols,
            self.in_channels,
            height,
            width,
            self.kernel,
            grad_input.data_mut(),
        );
        Ok(grad_input)
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
        if input_shape.len() != 3 || input_shape[0] != self.in_channels {
            return Err(DnnError::ShapeMismatch {
                expected: vec![self.in_channels, 0, 0],
                found: input_shape.to_vec(),
            });
        }
        Ok(vec![self.out_channels, input_shape[1], input_shape[2]])
    }

    fn multiplications(&self, input_shape: &[usize]) -> u64 {
        if input_shape.len() != 3 {
            return 0;
        }
        let spatial = (input_shape[1] * input_shape[2]) as u64;
        spatial
            * self.out_channels as u64
            * self.in_channels as u64
            * (self.kernel * self.kernel) as u64
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
    fn identity_kernel_preserves_input() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut conv = Conv2d::new(1, 1, 3, &mut rng);
        conv.weights.iter_mut().for_each(|w| *w = 0.0);
        conv.weights[4] = 1.0; // centre tap
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let output = conv.forward(&input).unwrap();
        assert_eq!(output.data(), input.data());
    }

    #[test]
    fn shape_validation() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut conv = Conv2d::new(3, 8, 3, &mut rng);
        assert!(conv.forward(&Tensor::zeros(&[1, 4, 4])).is_err());
        assert_eq!(conv.output_shape(&[3, 8, 8]).unwrap(), vec![8, 8, 8]);
        assert!(conv.output_shape(&[2, 8, 8]).is_err());
        assert_eq!(conv.multiplications(&[3, 8, 8]), 8 * 8 * 8 * 3 * 9);
        assert_eq!(conv.parameter_count(), 8 * 3 * 9 + 8);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let _ = Conv2d::new(1, 1, 2, &mut rng);
    }

    #[test]
    fn numerical_gradient_check() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut conv = Conv2d::new(2, 2, 3, &mut rng);
        let input = Tensor::from_vec(
            &[2, 3, 3],
            (0..18).map(|i| (i as f32 * 0.13).sin()).collect(),
        )
        .unwrap();
        let output = conv.forward(&input).unwrap();
        let base_loss: f32 = output.data().iter().sum();
        let ones = Tensor::from_vec(output.shape(), vec![1.0; output.len()]).unwrap();
        let grad_input = conv.backward(&ones).unwrap();

        let eps = 1e-3;
        for probe_index in [0usize, 5, 9, 17] {
            let mut perturbed = input.clone();
            perturbed.data_mut()[probe_index] += eps;
            let mut fresh = conv.clone();
            let new_loss: f32 = fresh.forward(&perturbed).unwrap().data().iter().sum();
            let numeric = (new_loss - base_loss) / eps;
            let analytic = grad_input.data()[probe_index];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "grad mismatch at {probe_index}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn backward_before_forward_is_an_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut conv = Conv2d::new(1, 1, 3, &mut rng);
        assert!(conv.backward(&Tensor::zeros(&[1, 2, 2])).is_err());
    }

    #[test]
    fn training_reduces_loss_on_a_tiny_target() {
        // Learn to double the input with a 1x1-channel conv.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut conv = Conv2d::new(1, 1, 3, &mut rng);
        let input =
            Tensor::from_vec(&[1, 3, 3], (1..=9).map(|v| v as f32 * 0.1).collect()).unwrap();
        let target: Vec<f32> = input.data().iter().map(|v| v * 2.0).collect();
        let mut last = f32::INFINITY;
        for _ in 0..100 {
            let out = conv.forward(&input).unwrap();
            let grad: Vec<f32> = out
                .data()
                .iter()
                .zip(target.iter())
                .map(|(o, t)| 2.0 * (o - t))
                .collect();
            let loss: f32 = out
                .data()
                .iter()
                .zip(target.iter())
                .map(|(o, t)| (o - t) * (o - t))
                .sum();
            conv.backward(&Tensor::from_vec(out.shape(), grad).unwrap())
                .unwrap();
            conv.apply_gradients(0.05);
            last = loss;
        }
        assert!(last < 0.05, "loss did not decrease enough: {last}");
    }
}
