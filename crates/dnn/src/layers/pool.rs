//! Pooling layers: 2×2 max pooling and global average pooling.

use crate::error::DnnError;
use crate::layers::Layer;
use crate::scratch::KernelScratch;
use crate::tensor::Tensor;
use std::any::Any;

/// 2×2 max pooling with stride 2 over `[C, H, W]` tensors.
///
/// Odd trailing rows/columns are dropped (floor division), matching the
/// behaviour of typical CNN frameworks with default settings.
#[derive(Debug, Clone, Default)]
pub struct MaxPool2d {
    input_shape: Vec<usize>,
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a 2×2 max-pooling layer.
    pub fn new() -> Self {
        MaxPool2d::default()
    }
}

/// One shared window scan for `forward` and `infer_into`: validates the
/// shape once, then indexes the flat slice directly (no per-element `at3`
/// shape asserts), reporting each window's maximum and its flat input index
/// to `record` so the two paths cannot drift apart — not even in their NaN
/// tie-breaking.
fn max_pool_scan_into(
    input: &Tensor,
    output: &mut Tensor,
    mut record: impl FnMut(usize, f32),
) -> Result<(), DnnError> {
    let shape = input.shape();
    if shape.len() != 3 || shape[1] < 2 || shape[2] < 2 {
        return Err(DnnError::ShapeMismatch {
            expected: vec![0, 2, 2],
            found: shape.to_vec(),
        });
    }
    let (channels, height, width) = (shape[0], shape[1], shape[2]);
    let (out_h, out_w) = (height / 2, width / 2);
    let data = input.data();
    output.resize_to(&[channels, out_h, out_w]);
    let out = output.data_mut();
    for c in 0..channels {
        for y in 0..out_h {
            let top = (c * height + 2 * y) * width;
            let bottom = top + width;
            let out_row = (c * out_h + y) * out_w;
            for x in 0..out_w {
                let candidates = [
                    (top + 2 * x, data[top + 2 * x]),
                    (top + 2 * x + 1, data[top + 2 * x + 1]),
                    (bottom + 2 * x, data[bottom + 2 * x]),
                    (bottom + 2 * x + 1, data[bottom + 2 * x + 1]),
                ];
                let mut best = (0usize, f32::NEG_INFINITY);
                for &(index, value) in &candidates {
                    if value > best.1 {
                        best = (index, value);
                    }
                }
                out[out_row + x] = best.1;
                record(best.0, best.1);
            }
        }
    }
    Ok(())
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, DnnError> {
        // Commit the cached state only after a successful scan: a failed
        // forward must not leave a stale input_shape paired with a cleared
        // argmax, which would make a later backward silently return zeros.
        let mut argmax = Vec::new();
        let mut output = Tensor::default();
        max_pool_scan_into(input, &mut output, |index, _| argmax.push(index))?;
        self.argmax = argmax;
        self.input_shape = input.shape().to_vec();
        Ok(output)
    }

    fn infer_into(
        &self,
        input: &Tensor,
        output: &mut Tensor,
        _scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        max_pool_scan_into(input, output, |_, _| {})
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, DnnError> {
        if self.input_shape.is_empty() {
            return Err(DnnError::InvalidConfiguration {
                context: "maxpool backward called before forward".to_string(),
            });
        }
        let mut grad_input = Tensor::zeros(&self.input_shape);
        for (flat, &source) in self.argmax.iter().enumerate() {
            grad_input.data_mut()[source] += grad_output.data()[flat];
        }
        Ok(grad_input)
    }

    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, DnnError> {
        if input_shape.len() != 3 {
            return Err(DnnError::ShapeMismatch {
                expected: vec![0, 2, 2],
                found: input_shape.to_vec(),
            });
        }
        Ok(vec![input_shape[0], input_shape[1] / 2, input_shape[2] / 2])
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Global average pooling: `[C, H, W]` → `[C]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    input_shape: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool::default()
    }
}

/// Averages contiguous channel slices of a `[C, H, W]` tensor into `output`:
/// the one kernel behind both `forward` and `infer_into`.  A zero-spatial
/// input with channels (e.g. `[2, 0, 3]`) has nothing to average and is a
/// shape error.
fn global_avg_pool_into(input: &Tensor, output: &mut Tensor) -> Result<(), DnnError> {
    let shape = input.shape();
    if shape.len() != 3 {
        return Err(DnnError::ShapeMismatch {
            expected: vec![0, 0, 0],
            found: shape.to_vec(),
        });
    }
    let (channels, height, width) = (shape[0], shape[1], shape[2]);
    let spatial = height * width;
    if channels != 0 && spatial == 0 {
        return Err(DnnError::ShapeMismatch {
            expected: vec![channels],
            found: vec![0],
        });
    }
    output.resize_to(&[channels]);
    for (slot, channel) in output
        .data_mut()
        .iter_mut()
        .zip(input.data().chunks_exact(spatial.max(1)))
    {
        *slot = channel.iter().sum::<f32>() / spatial as f32;
    }
    Ok(())
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &'static str {
        "global_avg_pool"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, DnnError> {
        let mut output = Tensor::default();
        global_avg_pool_into(input, &mut output)?;
        self.input_shape = input.shape().to_vec();
        Ok(output)
    }

    fn infer_into(
        &self,
        input: &Tensor,
        output: &mut Tensor,
        _scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        global_avg_pool_into(input, output)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, DnnError> {
        if self.input_shape.is_empty() {
            return Err(DnnError::InvalidConfiguration {
                context: "global average pool backward called before forward".to_string(),
            });
        }
        if grad_output.len() != self.input_shape[0] {
            return Err(DnnError::ShapeMismatch {
                expected: vec![self.input_shape[0]],
                found: grad_output.shape().to_vec(),
            });
        }
        let (height, width) = (self.input_shape[1], self.input_shape[2]);
        let spatial = height * width;
        let mut grad_input = Tensor::zeros(&self.input_shape);
        for (channel, &g) in grad_input
            .data_mut()
            .chunks_exact_mut(spatial.max(1))
            .zip(grad_output.data().iter())
        {
            channel.fill(g / spatial as f32);
        }
        Ok(grad_input)
    }

    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, DnnError> {
        if input_shape.len() != 3 {
            return Err(DnnError::ShapeMismatch {
                expected: vec![0, 0, 0],
                found: input_shape.to_vec(),
            });
        }
        Ok(vec![input_shape[0]])
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_selects_maxima_and_routes_gradients() {
        let mut pool = MaxPool2d::new();
        let input =
            Tensor::from_vec(&[1, 2, 4], vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 8.0, 1.0]).unwrap();
        let output = pool.forward(&input).unwrap();
        assert_eq!(output.shape(), &[1, 1, 2]);
        assert_eq!(output.data(), &[5.0, 8.0]);
        let grad = pool
            .backward(&Tensor::from_vec(&[1, 1, 2], vec![1.0, 2.0]).unwrap())
            .unwrap();
        assert_eq!(grad.data(), &[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn maxpool_validates_shapes() {
        let mut pool = MaxPool2d::new();
        assert!(pool.forward(&Tensor::zeros(&[4])).is_err());
        assert!(pool.forward(&Tensor::zeros(&[1, 1, 1])).is_err());
        assert_eq!(pool.output_shape(&[3, 8, 8]).unwrap(), vec![3, 4, 4]);
        assert!(pool.output_shape(&[8]).is_err());
        let mut fresh = MaxPool2d::new();
        assert!(fresh.backward(&Tensor::zeros(&[1, 1, 1])).is_err());
    }

    #[test]
    fn global_avg_pool_averages_and_spreads_gradient() {
        let mut pool = GlobalAvgPool::new();
        let input = Tensor::from_vec(&[2, 1, 2], vec![1.0, 3.0, 5.0, 7.0]).unwrap();
        let output = pool.forward(&input).unwrap();
        assert_eq!(output.data(), &[2.0, 6.0]);
        let grad = pool.backward(&Tensor::from_slice(&[1.0, 2.0])).unwrap();
        assert_eq!(grad.data(), &[0.5, 0.5, 1.0, 1.0]);
        assert_eq!(pool.output_shape(&[2, 1, 2]).unwrap(), vec![2]);
        let mut fresh = GlobalAvgPool::new();
        assert!(fresh.backward(&Tensor::from_slice(&[1.0])).is_err());
        assert!(fresh.forward(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn global_avg_pool_rejects_a_zero_spatial_input_on_both_paths() {
        let input = Tensor::zeros(&[2, 0, 3]);
        let expected = DnnError::ShapeMismatch {
            expected: vec![2],
            found: vec![0],
        };
        let mut pool = GlobalAvgPool::new();
        assert_eq!(pool.forward(&input).unwrap_err(), expected);
        let mut output = Tensor::default();
        let inferred = pool.infer_into(&input, &mut output, &mut KernelScratch::new());
        assert_eq!(inferred.unwrap_err(), expected);
        // No channels means nothing to average: an empty output, not an error.
        let empty = pool.forward(&Tensor::zeros(&[0, 0, 3])).unwrap();
        assert_eq!(empty.shape(), &[0]);
    }
}
