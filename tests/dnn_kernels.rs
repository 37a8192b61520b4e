//! Equivalence suite for the DNN inference hot path: the im2col + GEMM and
//! flat-LUT kernels must reproduce the naive scalar reference kernels —
//! within 1e-4 for FLOAT32, bit-identically for the integer-accumulating
//! quantized path — over randomly drawn channel/kernel/size combinations.
//!
//! The quantized path's oracle is [`per_product_forward`] below: it calls
//! [`ProductTable::product`] through the trait object once per nonzero
//! product instead of reading a snapshotted lookup table.

use optima_suite::optima_dnn::eval::evaluate_batched;
use optima_suite::optima_dnn::layers::{
    Conv2d, Dense, Flatten, GlobalAvgPool, Layer, MaxPool2d, Relu, ResidualBlock,
};
use optima_suite::optima_dnn::multiplier::{ComposedProducts, ExactInt4Products, ProductTable};
use optima_suite::optima_dnn::network::Network;
use optima_suite::optima_dnn::prelude::{Dataset, SyntheticImageConfig};
use optima_suite::optima_dnn::quantization::{
    quantize_activations_bits_into, quantize_weights_bits,
};
use optima_suite::optima_dnn::quantized::QuantizedNetwork;
use optima_suite::optima_dnn::scratch::KernelScratch;
use optima_suite::optima_dnn::Tensor;
use optima_suite::optima_math::gemm::{
    gemm, packed_gemm_model, packed_gemv_model, GemmScratch, PackedGemm,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn random_tensor(shape: &[usize], rng: &mut ChaCha8Rng) -> Tensor {
    Tensor::from_vec(
        shape,
        (0..shape.iter().product::<usize>())
            .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
            .collect(),
    )
    .unwrap()
}

/// One layer's scratch-arena inference pass with a fresh arena.
fn infer_fresh(layer: &dyn Layer, input: &Tensor) -> Tensor {
    let mut output = Tensor::default();
    layer
        .infer_into(input, &mut output, &mut KernelScratch::new())
        .unwrap();
    output
}

/// Quantized convolution with one [`ProductTable::product`] call per
/// nonzero product pair, accumulated in `i64` ("same" padding, stride 1).
fn per_product_conv(conv: &Conv2d, table: &dyn ProductTable, input: &Tensor) -> Tensor {
    let bits = table.operand_bits();
    let (weights, weight_params) = quantize_weights_bits(conv.weights(), bits);
    let mut activations = Vec::new();
    let activation_params = quantize_activations_bits_into(input.data(), bits, &mut activations);
    let scale = weight_params.scale * activation_params.scale;
    let (in_channels, height, width) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    assert_eq!(in_channels, conv.in_channels());
    let k = conv.kernel();
    let pad = (k / 2) as isize;
    let mut output = Tensor::zeros(&[conv.out_channels(), height, width]);
    let out = output.data_mut();
    for oc in 0..conv.out_channels() {
        for y in 0..height {
            for x in 0..width {
                let mut accumulator: i64 = 0;
                for ic in 0..in_channels {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = y as isize + ky as isize - pad;
                            let ix = x as isize + kx as isize - pad;
                            if iy < 0 || ix < 0 || iy >= height as isize || ix >= width as isize {
                                continue;
                            }
                            let weight = weights[((oc * in_channels + ic) * k + ky) * k + kx];
                            let activation =
                                activations[(ic * height + iy as usize) * width + ix as usize];
                            if weight == 0 || activation == 0 {
                                continue;
                            }
                            let magnitude = table.product(activation, weight.unsigned_abs());
                            accumulator += weight.signum() as i64 * magnitude as i64;
                        }
                    }
                }
                out[(oc * height + y) * width + x] = accumulator as f32 * scale + conv.bias()[oc];
            }
        }
    }
    output
}

/// Quantized dense layer with one [`ProductTable::product`] call per
/// nonzero product pair, accumulated in `i64`.
fn per_product_dense(dense: &Dense, table: &dyn ProductTable, input: &Tensor) -> Tensor {
    let bits = table.operand_bits();
    let (weights, weight_params) = quantize_weights_bits(dense.weights(), bits);
    let mut activations = Vec::new();
    let activation_params = quantize_activations_bits_into(input.data(), bits, &mut activations);
    let scale = weight_params.scale * activation_params.scale;
    assert_eq!(activations.len(), dense.inputs());
    let output = (0..dense.outputs())
        .map(|o| {
            let row = &weights[o * dense.inputs()..(o + 1) * dense.inputs()];
            let mut accumulator: i64 = 0;
            for (&weight, &activation) in row.iter().zip(&activations) {
                if weight == 0 || activation == 0 {
                    continue;
                }
                let magnitude = table.product(activation, weight.unsigned_abs());
                accumulator += weight.signum() as i64 * magnitude as i64;
            }
            accumulator as f32 * scale + dense.bias()[o]
        })
        .collect();
    Tensor::from_vec(&[dense.outputs()], output).unwrap()
}

/// The per-product reference of [`QuantizedNetwork::forward`]: walks
/// `network`'s layers, quantizing each convolution and dense layer at the
/// table's operand width and multiplying through [`per_product_conv`] /
/// [`per_product_dense`].  The residual add and every other layer run in
/// float, as in the quantized network.
fn per_product_forward(network: &Network, table: &dyn ProductTable, image: &Tensor) -> Tensor {
    let relu = |mut tensor: Tensor| {
        tensor.map_inplace(|v| v.max(0.0));
        tensor
    };
    let mut current = image.clone();
    for layer in network.layers() {
        let any = layer.as_any();
        current = if let Some(conv) = any.downcast_ref::<Conv2d>() {
            per_product_conv(conv, table, &current)
        } else if let Some(dense) = any.downcast_ref::<Dense>() {
            per_product_dense(dense, table, &current)
        } else if let Some(block) = any.downcast_ref::<ResidualBlock>() {
            let (conv1, conv2) = block.convolutions();
            let branch = relu(per_product_conv(conv1, table, &current));
            let mut output = per_product_conv(conv2, table, &branch);
            output.add_assign(&current).unwrap();
            relu(output)
        } else if any.downcast_ref::<Relu>().is_some() {
            relu(current)
        } else if any.downcast_ref::<Flatten>().is_some() {
            let len = current.len();
            current.reshaped(&[len]).unwrap()
        } else {
            infer_fresh(layer.as_ref(), &current)
        };
    }
    current
}

/// Naive "same"-padded, stride-1 convolution forward pass.
///
/// `input` is `[in_channels, height, width]` flat, `weights` is
/// `[out_channels, in_channels, kernel, kernel]` flat; returns the
/// `[out_channels, height, width]` output.
#[allow(clippy::too_many_arguments)] // deliberately a raw flat-slice kernel
fn conv2d_forward(
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
fn dense_forward(
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

/// The LUT forward of `network` quantized against `table`, asserted
/// bit-identical to [`per_product_forward`], and returned.
fn assert_lut_matches_per_product(
    network: &Network,
    table: Arc<dyn ProductTable>,
    image: &Tensor,
) -> Tensor {
    let lut = QuantizedNetwork::from_network(network, table.clone())
        .unwrap()
        .forward(image)
        .unwrap();
    let reference = per_product_forward(network, table.as_ref(), image);
    let bits = |tensor: &Tensor| {
        tensor
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(lut.shape(), reference.shape(), "table {}", table.name());
    assert_eq!(bits(&lut), bits(&reference), "table {}", table.name());
    lut
}

/// A 3×16×16, ten-class CNN with a conv stem and one identity residual
/// block: conv 3→8, ReLU, residual block (8 channels), pool, global
/// average pool, dense.
fn residual_network() -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    Network::new(vec![
        Box::new(Conv2d::new(3, 8, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(ResidualBlock::new(8, 3, &mut rng)),
        Box::new(MaxPool2d::new()),
        Box::new(GlobalAvgPool::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(8, 10, &mut rng)),
    ])
}

/// A synthetic INT4 product table whose largest entry is about `max`: the
/// exact product rescaled so that 15 × 7 lands near `max`, plus a small
/// operand hash that varies the low byte.  `max` picks the kernel arm: the
/// byte-shuffle sweep widens its `i16` lanes every `i16::MAX / max` rows,
/// and tables above `i16::MAX` take the `vpgatherdd` sweep.
#[derive(Debug)]
struct LargeEntries {
    max: u16,
}

impl ProductTable for LargeEntries {
    fn product(&self, a: u8, b: u8) -> u16 {
        let scaled = a as u32 * b as u32 * (self.max as u32 - 15) / (15 * 7);
        (scaled + (a as u32 * 7 + b as u32 * 13) % 16) as u16
    }
    fn name(&self) -> String {
        format!("large-entries-{}", self.max)
    }
}

/// A 3×16×16, ten-class CNN with two conv stages: conv 3→8, ReLU, pool,
/// conv 8→16, ReLU, pool, flatten, dense.
fn multi_channel_network() -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    Network::new(vec![
        Box::new(Conv2d::new(3, 8, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new()),
        Box::new(Conv2d::new(8, 16, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(16 * 4 * 4, 10, &mut rng)),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conv2d's im2col + GEMM forward matches the naive six-deep loop
    /// within 1e-4 over random channel/kernel/size combinations.
    #[test]
    fn conv_forward_matches_the_naive_reference(
        in_channels in 1usize..4,
        out_channels in 1usize..5,
        kernel_index in 0usize..3,
        height in 1usize..10,
        width in 1usize..10,
        seed in 0u64..1_000,
    ) {
        let kernel = [1usize, 3, 5][kernel_index];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let conv = Conv2d::new(in_channels, out_channels, kernel, &mut rng);
        let input = random_tensor(&[in_channels, height, width], &mut rng);
        let fast = infer_fresh(&conv, &input);
        let naive = conv2d_forward(
            input.data(),
            in_channels,
            height,
            width,
            conv.weights(),
            conv.bias(),
            out_channels,
            kernel,
        );
        for (index, (&a, &b)) in fast.data().iter().zip(naive.iter()).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-4,
                "element {index}: optimized {a} vs reference {b}"
            );
        }
    }

    /// Dense's GEMV forward matches the naive dot-product loop within 1e-4.
    #[test]
    fn dense_forward_matches_the_naive_reference(
        inputs in 1usize..200,
        outputs in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let dense = Dense::new(inputs, outputs, &mut rng);
        let input = random_tensor(&[inputs], &mut rng);
        let fast = infer_fresh(&dense, &input);
        let naive = dense_forward(
            input.data(),
            dense.weights(),
            dense.bias(),
            inputs,
            outputs,
        );
        for (index, (&a, &b)) in fast.data().iter().zip(naive.iter()).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-4,
                "element {index}: optimized {a} vs reference {b}"
            );
        }
    }

    /// The blocked GEMM matches a naive triple loop within 1e-4.
    #[test]
    fn gemm_matches_a_naive_triple_loop(
        m in 1usize..40,
        k in 1usize..60,
        n in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen::<f32>() - 0.5).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen::<f32>() - 0.5).collect();
        let mut c = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut c);
        for i in 0..m {
            for j in 0..n {
                let expected: f32 = (0..k).map(|kk| a[i * k + kk] * b[kk * n + j]).sum();
                prop_assert!(
                    (c[i * n + j] - expected).abs() <= 1e-4,
                    "C[{i},{j}]: {} vs {expected}",
                    c[i * n + j]
                );
            }
        }
    }

    /// The quantized LUT path is bit-identical to the per-product
    /// dynamic-dispatch reference ([`per_product_forward`]) on
    /// whole-network forwards: a single-conv 1-channel net and a two-conv
    /// 3-channel net.
    #[test]
    fn quantized_lut_is_bit_identical_to_dyn_dispatch(
        image_seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let network = Network::new(vec![
            Box::new(Conv2d::new(1, 4, 3, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(4 * 4 * 4, 3, &mut rng)),
        ]);
        let mut rng = ChaCha8Rng::seed_from_u64(image_seed);
        let image = Tensor::from_vec(
            &[1, 8, 8],
            (0..64).map(|_| rng.gen::<f32>()).collect(),
        )
        .unwrap();
        assert_lut_matches_per_product(&network, Arc::new(ExactInt4Products), &image);

        let image = Tensor::from_vec(
            &[3, 16, 16],
            (0..3 * 16 * 16).map(|_| rng.gen::<f32>()).collect(),
        )
        .unwrap();
        assert_lut_matches_per_product(
            &multi_channel_network(),
            Arc::new(ExactInt4Products),
            &image,
        );
    }

    /// The packed-panel GEMM is **exactly** (bit-for-bit) the lane-ordered
    /// scalar model over random shapes, including M/K/N not divisible by the
    /// 8-wide panel height, with the packed-B scratch reused across calls.
    #[test]
    fn packed_gemm_is_exactly_the_lane_ordered_model(
        m in 1usize..40,
        k in 1usize..60,
        n in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen::<f32>() - 0.5).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen::<f32>() - 0.5).collect();
        // Accumulate into a nonzero C so `+=` semantics are covered too.
        let seeded: Vec<f32> = (0..m * n).map(|_| rng.gen::<f32>() - 0.5).collect();

        let plan = PackedGemm::pack(m, k, &a);
        let mut scratch = GemmScratch::new();
        let mut packed = seeded.clone();
        // Two passes with the same scratch: reuse must not change results.
        plan.gemm_into(n, &b, &mut packed, &mut scratch);
        plan.gemm_into(n, &b, &mut packed, &mut scratch);

        let mut expected = seeded;
        packed_gemm_model(m, k, n, &a, &b, &mut expected);
        packed_gemm_model(m, k, n, &a, &b, &mut expected);

        for (index, (got, want)) in packed.iter().zip(expected.iter()).enumerate() {
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "element {}: packed {} vs model {}",
                index,
                got,
                want
            );
        }
    }

    /// The packed GEMV (n = 1 fast path) is exactly the lane-ordered model.
    #[test]
    fn packed_gemv_is_exactly_the_lane_ordered_model(
        m in 1usize..48,
        k in 1usize..60,
        seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen::<f32>() - 0.5).collect();
        let x: Vec<f32> = (0..k).map(|_| rng.gen::<f32>() - 0.5).collect();
        let seeded: Vec<f32> = (0..m).map(|_| rng.gen::<f32>() - 0.5).collect();

        let plan = PackedGemm::pack(m, k, &a);
        let mut packed = seeded.clone();
        plan.gemv_into(&x, &mut packed);

        let mut expected = seeded;
        packed_gemv_model(m, k, &a, &x, &mut expected);

        for (index, (got, want)) in packed.iter().zip(expected.iter()).enumerate() {
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "row {}: packed {} vs model {}",
                index,
                got,
                want
            );
        }
    }

    /// The LUT sweep's 32-pixel row steps, its 8-pixel remainder blocks
    /// and its scalar tail all match the per-product dynamic-dispatch
    /// reference ([`per_product_forward`]) bit for bit, at INT4 (byte-shuffle sweep) and at INT8
    /// composed from 2 × INT4 slices (`vpgatherdd` sweep).  Images are
    /// `height × width` with `hw` from 30 to 312 pixels, so every
    /// `hw % 32` and `hw % 8` remainder occurs.  The scratch path
    /// (`forward_with`, one arena shared across both networks) must also
    /// equal a fresh-arena `forward`.
    #[test]
    fn lut_sweep_blocks_and_tail_match_dyn_dispatch(
        height in 6usize..9,
        width in 5usize..40,
        image_seed in 0u64..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let network = Network::new(vec![
            Box::new(Conv2d::new(1, 4, 3, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(4 * height * width, 3, &mut rng)),
        ]);
        let mut rng = ChaCha8Rng::seed_from_u64(image_seed);
        let image = Tensor::from_vec(
            &[1, height, width],
            (0..height * width).map(|_| rng.gen::<f32>()).collect(),
        )
        .unwrap();
        let mut scratch = KernelScratch::new();
        for table in [
            Arc::new(ExactInt4Products) as Arc<dyn ProductTable>,
            Arc::new(ComposedProducts::new(Arc::new(ExactInt4Products), 2)),
        ] {
            let flat = assert_lut_matches_per_product(&network, table.clone(), &image);
            let quantized = QuantizedNetwork::from_network(&network, table).unwrap();
            let gathered = quantized.forward_with(&image, &mut scratch).unwrap();
            prop_assert_eq!(gathered, &flat);
        }
    }
}

#[test]
fn large_entry_int4_tables_match_dyn_dispatch() {
    // Largest entries near 32 000 widen the shuffle sweep's i16 lanes after
    // every row, near 16 000 every second row, near 8 000 every fourth;
    // 40 000 exceeds i16::MAX and must take the vpgatherdd sweep instead.
    let networks = [multi_channel_network(), residual_network()];
    for max in [32_000u16, 16_000, 8_000, 40_000] {
        for network in &networks {
            let mut rng = ChaCha8Rng::seed_from_u64(max as u64);
            for _ in 0..4 {
                let image = Tensor::from_vec(
                    &[3, 16, 16],
                    (0..3 * 16 * 16).map(|_| rng.gen::<f32>()).collect(),
                )
                .unwrap();
                assert_lut_matches_per_product(network, Arc::new(LargeEntries { max }), &image);
            }
        }
    }
}

#[test]
fn snapshot_covers_every_product_pair() {
    // A table that records which (a, |w|) pairs were probed during the
    // snapshot: all 15 × 7 nonzero combinations must be covered.
    #[derive(Debug)]
    // optima-lint: allow(R2) -- membership-only set; the test never iterates it
    struct Probing(std::sync::Mutex<std::collections::HashSet<(u8, u8)>>);
    impl ProductTable for Probing {
        fn product(&self, a: u8, b: u8) -> u16 {
            self.0.lock().unwrap().insert((a, b));
            a as u16 * b as u16
        }
        fn name(&self) -> String {
            "probing".to_string()
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let network = Network::new(vec![Box::new(Dense::new(4, 2, &mut rng)) as Box<dyn Layer>]);
    let probing = Arc::new(Probing(std::sync::Mutex::new(Default::default())));
    let _ = QuantizedNetwork::from_network(&network, probing.clone()).unwrap();
    let seen = probing.0.lock().unwrap();
    assert_eq!(seen.len(), 15 * 7, "snapshot must probe all nonzero pairs");
    assert!(!seen.iter().any(|&(a, b)| a == 0 || b == 0));
}

#[test]
fn batched_evaluation_is_deterministic_across_thread_counts() {
    let dataset = Dataset::synthetic(SyntheticImageConfig::tiny());
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let network = Network::new(vec![
        Box::new(Conv2d::new(1, 2, 3, &mut rng)) as Box<dyn Layer>,
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(2 * 8 * 8, 3, &mut rng)),
    ]);
    let serial = evaluate_batched(&network, &dataset, 1).unwrap();
    for threads in [1, 2, 5, 16] {
        assert_eq!(
            evaluate_batched(&network, &dataset, threads).unwrap(),
            serial,
            "threads = {threads}"
        );
    }
}

#[test]
fn quantized_batched_evaluation_is_identical_at_one_through_eight_threads() {
    // The per-worker KernelScratch arenas route every image through the
    // 8-pixel gather kernels; the result must not depend on how the sweep
    // is partitioned.
    let dataset = Dataset::synthetic(SyntheticImageConfig::tiny());
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let network = Network::new(vec![
        Box::new(Conv2d::new(1, 2, 3, &mut rng)) as Box<dyn Layer>,
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(2 * 8 * 8, 3, &mut rng)),
    ]);
    for table in [
        Arc::new(ExactInt4Products) as Arc<dyn ProductTable>,
        Arc::new(ComposedProducts::new(Arc::new(ExactInt4Products), 2)),
    ] {
        let quantized = QuantizedNetwork::from_network(&network, table).unwrap();
        let serial = evaluate_batched(&quantized, &dataset, 1).unwrap();
        for threads in 1..=8 {
            assert_eq!(
                evaluate_batched(&quantized, &dataset, threads).unwrap(),
                serial,
                "threads = {threads}"
            );
        }
    }
}

#[test]
fn forward_matches_the_naive_reference_over_random_shapes() {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    for case in 0..40u64 {
        let mut shape_rng = ChaCha8Rng::seed_from_u64(case);
        let in_channels = shape_rng.gen_range(1..4usize);
        let out_channels = shape_rng.gen_range(1..5usize);
        let kernel = [1, 3, 5][shape_rng.gen_range(0..3usize)];
        let height = shape_rng.gen_range(1..9usize);
        let width = shape_rng.gen_range(1..9usize);
        let mut conv = Conv2d::new(in_channels, out_channels, kernel, &mut rng);
        let bias: Vec<f32> = (0..out_channels).map(|_| rng.gen::<f32>() - 0.5).collect();
        conv.set_bias(&bias).unwrap();
        let input = Tensor::from_vec(
            &[in_channels, height, width],
            (0..in_channels * height * width)
                .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
                .collect(),
        )
        .unwrap();
        let fast = conv.forward(&input).unwrap();
        let naive = conv2d_forward(
            input.data(),
            in_channels,
            height,
            width,
            conv.weights(),
            conv.bias(),
            out_channels,
            kernel,
        );
        for (i, (&a, &b)) in fast.data().iter().zip(naive.iter()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-4,
                "case {case} ({in_channels}x{height}x{width} k{kernel}) element {i}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn forward_matches_the_naive_reference_over_random_sizes() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    for &(inputs, outputs) in &[(1usize, 1usize), (3, 7), (16, 5), (65, 33), (128, 10)] {
        let mut layer = Dense::new(inputs, outputs, &mut rng);
        let bias: Vec<f32> = (0..outputs).map(|_| rng.gen::<f32>() - 0.5).collect();
        layer.set_bias(&bias).unwrap();
        let x: Vec<f32> = (0..inputs).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
        let input = Tensor::from_slice(&x);
        let fast = layer.forward(&input).unwrap();
        let naive = dense_forward(&x, layer.weights(), layer.bias(), inputs, outputs);
        for (i, (&a, &b)) in fast.data().iter().zip(naive.iter()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-4,
                "{inputs}->{outputs} element {i}: {a} vs {b}"
            );
        }
    }
}
