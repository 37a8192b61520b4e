//! Naive scalar reference kernels.
//!
//! These are the original six-deep-loop implementations that the im2col +
//! GEMM hot path replaced.  They are kept — unoptimized on purpose — as the
//! ground truth for the equivalence test suite.  Do not call them from
//! production code paths.

/// Naive "same"-padded, stride-1 convolution forward pass.
///
/// `input` is `[in_channels, height, width]` flat, `weights` is
/// `[out_channels, in_channels, kernel, kernel]` flat; returns the
/// `[out_channels, height, width]` output.
#[allow(clippy::too_many_arguments)] // deliberately a raw flat-slice kernel
pub fn conv2d_forward(
    input: &[f32],
    in_channels: usize,
    height: usize,
    width: usize,
    weights: &[f32],
    bias: &[f32],
    out_channels: usize,
    kernel: usize,
) -> Vec<f32> {
    let pad = kernel / 2;
    let mut output = vec![0.0f32; out_channels * height * width];
    for oc in 0..out_channels {
        for y in 0..height {
            for x in 0..width {
                let mut acc = bias[oc];
                for ic in 0..in_channels {
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let iy = y as isize + ky as isize - pad as isize;
                            let ix = x as isize + kx as isize - pad as isize;
                            if iy < 0 || ix < 0 || iy >= height as isize || ix >= width as isize {
                                continue;
                            }
                            acc += weights[((oc * in_channels + ic) * kernel + ky) * kernel + kx]
                                * input[(ic * height + iy as usize) * width + ix as usize];
                        }
                    }
                }
                output[(oc * height + y) * width + x] = acc;
            }
        }
    }
    output
}

/// Naive dense forward pass: `y = W·x + b` with a scalar dot-product loop.
///
/// `weights` is row-major `[outputs × inputs]`.
pub fn dense_forward(
    x: &[f32],
    weights: &[f32],
    bias: &[f32],
    inputs: usize,
    outputs: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; outputs];
    for (o, out_value) in out.iter_mut().enumerate() {
        let mut acc = bias[o];
        for (w, &xi) in weights[o * inputs..(o + 1) * inputs].iter().zip(x.iter()) {
            acc += w * xi;
        }
        *out_value = acc;
    }
    out
}
