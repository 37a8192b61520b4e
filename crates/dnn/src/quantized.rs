//! Narrow-integer quantized inference with pluggable product tables.
//!
//! [`QuantizedNetwork::from_network`] converts a trained FLOAT32 [`Network`]
//! into a quantized network (post-training quantization of all convolution
//! and dense weights) whose every magnitude product is routed through a
//! [`ProductTable`] — either an exact baseline or one of the in-SRAM
//! multiplier corners.  The operand width follows
//! [`ProductTable::operand_bits`]: 4 bits reproduces the paper's Tables II
//! and III pipeline, while wider tables (e.g. a composed INT8 geometry) run
//! the same engine with proportionally wider codes.
//!
//! # Execution strategy
//!
//! Inference has one entry point, [`QuantizedNetwork::forward_with`], which
//! draws every buffer from a [`KernelScratch`] arena
//! ([`QuantizedNetwork::forward`] is a one-line allocating wrapper over it).
//! Construction snapshots all `1 << 2·operand_bits` signed products of the
//! (pure) product table into a flat lookup table once, and inference
//! accumulates integer products over contiguous im2col patches — one array
//! index per product instead of one virtual call, with convolutions lowered
//! through the same [`crate::im2col`] unrolling as the FLOAT32 path.
//! Accumulation is in the integer domain, so the output is **bit-identical**
//! to calling [`ProductTable::product`] once per nonzero product pair — the
//! per-product reference of the equivalence tests in `tests/dnn_kernels.rs`.

use crate::error::DnnError;
use crate::im2col::im2col;
use crate::layers::{Conv2d, Dense, Flatten, GlobalAvgPool, Layer, MaxPool2d, Relu, ResidualBlock};
use crate::multiplier::ProductTable;
use crate::network::Network;
use crate::quantization::{
    quantize_activations_bits_into, quantize_weights_bits, QuantizationParams,
};
use crate::scratch::KernelScratch;
use crate::tensor::Tensor;
use std::sync::Arc;

/// Pixels gathered per LUT sweep step; matches the f32 micro-kernel's
/// [`optima_math::gemm::LANES`] so both hot paths vectorize the same way.
pub const GATHER_LANES: usize = 8;

/// Signed products of one weight code against all activation magnitudes,
/// flattened per weight so the inner inference loop reads a contiguous
/// `2^bits`-entry sub-table.
///
/// Index layout: `lut[code * 2^bits + activation]` with
/// `code = weight + 2^(bits−1)` (weights span `−(2^(bits−1)−1)…2^(bits−1)−1`);
/// `2^bits` entries per code, `1 << 2·bits` entries total (256 for the
/// paper's INT4 default).  Entries where either operand is zero are zero:
/// a zero operand skips the multiplier, even for non-ideal tables whose
/// hardware would produce a nonzero "product" with zero.
fn snapshot_products(products: &dyn ProductTable) -> Box<[i32]> {
    let bits = products.operand_bits();
    let stride = 1usize << bits;
    let half = (stride / 2) as i32;
    let mut lut = vec![0i32; stride * stride].into_boxed_slice();
    for weight in (1 - half)..half {
        let code = (weight + half) as usize;
        if weight == 0 {
            continue;
        }
        for activation in 1..stride {
            let magnitude = products.product(activation as u8, weight.unsigned_abs() as u8);
            lut[code * stride + activation] = weight.signum() * magnitude as i32;
        }
    }
    lut
}

/// A snapshotted product table as the sweep kernels consume it.
#[derive(Debug)]
struct ProductLut {
    /// Operand width in bits; sub-tables are `2^bits` entries long.
    bits: u8,
    /// The flat signed-product table of [`snapshot_products`].
    entries: Box<[i32]>,
    /// Largest entry magnitude; decides whether the sweeps may accumulate
    /// in `i32` lanes (see [`lut_fits_i32`]) and how many rows the INT4
    /// shuffle sweep may sum in `i16` lanes.
    max_abs: i64,
    /// INT4 tables whose entries all fit an `i16` only: every code's
    /// sub-table split into a low-byte and a high-byte 16-byte plane,
    /// `byte_planes[code * 32 + plane * 16 + activation]` (512 bytes), the
    /// operands of the `vpshufb` lookups in [`sweep4_shuffle16`].
    byte_planes: Option<Box<[u8]>>,
}

impl ProductLut {
    fn new(entries: Box<[i32]>, bits: u8) -> Self {
        let max_abs = entries
            .iter()
            .fold(0i64, |max, &v| max.max((v as i64).abs()));
        let byte_planes = (bits == 4 && max_abs <= i16::MAX as i64).then(|| {
            entries
                .chunks_exact(16)
                .flat_map(|sub| {
                    let low = sub.iter().map(|&v| v as i16 as u16 as u8);
                    let high = sub.iter().map(|&v| ((v as i16 as u16) >> 8) as u8);
                    low.chain(high)
                })
                .collect::<Box<[u8]>>()
        });
        ProductLut {
            bits,
            entries,
            max_abs,
            byte_planes,
        }
    }

    fn stride(&self) -> usize {
        1usize << self.bits
    }
}

/// Whether per-lane accumulators summing up to `depth` LUT entries of
/// magnitude at most `lut_max_abs` fit in an `i32`.  Integer addition is
/// associative, so the `i32` and `i64` lane paths produce bit-identical
/// sums whenever this holds; the `i64` fallback only exists for degenerate
/// tables whose entries could overflow 32 bits mid-sum.
fn lut_fits_i32(depth: usize, lut_max_abs: i64) -> bool {
    depth as i64 <= i32::MAX as i64 / lut_max_abs.max(1)
}

/// Accumulates `BLOCKS` consecutive `GATHER_LANES`-pixel blocks of the
/// im2col patch matrix: for every weight code, gathers the code's contiguous
/// `stride`-entry LUT sub-table at the blocks' activation codes and adds
/// into `BLOCKS × 8` integer lanes held in registers.
///
/// Two deliberate choices keep the inner loop branch- and bounds-check-free:
///
/// * zero-weight codes index an all-zero LUT sub-table, so the rows are
///   accumulated unconditionally instead of branching on the (data-dependent,
///   poorly predicted) zero test — the integer sums are unchanged;
/// * activation codes are masked with `stride - 1` (`stride` is a power of
///   two and the quantizer emits codes `< stride`, so the mask never alters
///   an index) — the compiler can then prove every gather stays inside the
///   `stride`-long sub-table and drops the per-element bounds check.
///
/// Each pixel's accumulator sums its rows in ascending order regardless of
/// `BLOCKS`, so every block width produces bit-identical results.
#[inline(always)]
fn gather_lanes<T, const BLOCKS: usize>(
    codes: &[u8],
    cols: &[u8],
    hw: usize,
    x0: usize,
    lut: &[i32],
    stride: usize,
) -> [[T; GATHER_LANES]; BLOCKS]
where
    T: Copy + Default + std::ops::AddAssign + From<i32>,
{
    // optima-lint: hot
    let mask = stride - 1;
    let mut acc = [[T::default(); GATHER_LANES]; BLOCKS];
    for (&code, row) in codes.iter().zip(cols.chunks_exact(hw)) {
        let sub = &lut[code as usize * stride..code as usize * stride + stride];
        let pixels = &row[x0..x0 + BLOCKS * GATHER_LANES];
        for (acc_lanes, block) in acc.iter_mut().zip(pixels.chunks_exact(GATHER_LANES)) {
            for (lane, &activation) in acc_lanes.iter_mut().zip(block.iter()) {
                *lane += T::from(sub[activation as usize & mask]);
            }
        }
    }
    // optima-lint: end-hot
    acc
}

/// Scales one gather's accumulator blocks into the output row.  `i32` and
/// `i64` accumulators widen through `i64` on the way to `f32`; both casts of
/// the same integer value round to the same `f32`, so the two dispatch arms
/// stay bit-identical.
#[inline(always)]
fn store_blocks<T, const BLOCKS: usize>(
    acc: &[[T; GATHER_LANES]; BLOCKS],
    out: &mut [f32],
    scale: f32,
    bias: f32,
) where
    T: Copy + Into<i64>,
{
    for (lanes, out_block) in acc.iter().zip(out.chunks_exact_mut(GATHER_LANES)) {
        for (out, &lane) in out_block.iter_mut().zip(lanes.iter()) {
            *out = lane.into() as f32 * scale + bias;
        }
    }
}

/// The scalar sweep of the last `hw % 8` pixels: `cols` and `out` both
/// start at the first tail pixel, and each pixel sums its nonzero weight
/// codes' products in an `i64`.
#[inline(always)]
fn scalar_tail(
    codes: &[u8],
    cols: &[u8],
    hw: usize,
    lut: &ProductLut,
    scale: f32,
    bias: f32,
    out: &mut [f32],
) {
    let stride = lut.stride();
    let zero_code = (stride / 2) as u8;
    for (x, out) in out.iter_mut().enumerate() {
        let mut acc: i64 = 0;
        for (row, &code) in codes.iter().enumerate() {
            if code == zero_code {
                continue;
            }
            acc += lut.entries[code as usize * stride + cols[row * hw + x] as usize] as i64;
        }
        *out = acc as f32 * scale + bias;
    }
}

/// The portable convolution LUT sweep: walks the `[patch, hw]` im2col
/// matrix 32 pixels at a time (four
/// 8-lane blocks per row sweep, amortising the per-row sub-table setup of
/// [`gather_lanes`]), then 8 at a time, then finishes the `hw % 8` tail with
/// a scalar loop.  Bit-identical to a row-outer scalar sweep because integer
/// addition is associative and each pixel's rows accumulate in ascending
/// order at every block width.
#[inline(always)]
fn conv_lut_core_body(
    conv: &QConv,
    cols: &[u8],
    hw: usize,
    lut: &ProductLut,
    scale: f32,
    out: &mut [f32],
) {
    const SWEEP: usize = 4; // blocks per wide row sweep: 32 pixels
    let stride = lut.stride();
    let entries = &lut.entries[..];
    let patch = conv.in_channels * conv.kernel * conv.kernel;
    let narrow = lut_fits_i32(patch, lut.max_abs);
    // optima-lint: hot
    for (oc, out_row) in out.chunks_exact_mut(hw).enumerate() {
        let codes = &conv.codes[oc * patch..(oc + 1) * patch];
        let bias = conv.bias[oc];
        let mut x0 = 0usize;
        if narrow {
            while x0 + SWEEP * GATHER_LANES <= hw {
                let acc: [[i32; GATHER_LANES]; SWEEP] =
                    gather_lanes(codes, cols, hw, x0, entries, stride);
                store_blocks(&acc, &mut out_row[x0..], scale, bias);
                x0 += SWEEP * GATHER_LANES;
            }
            while x0 + GATHER_LANES <= hw {
                let acc: [[i32; GATHER_LANES]; 1] =
                    gather_lanes(codes, cols, hw, x0, entries, stride);
                store_blocks(&acc, &mut out_row[x0..], scale, bias);
                x0 += GATHER_LANES;
            }
        } else {
            while x0 + SWEEP * GATHER_LANES <= hw {
                let acc: [[i64; GATHER_LANES]; SWEEP] =
                    gather_lanes(codes, cols, hw, x0, entries, stride);
                store_blocks(&acc, &mut out_row[x0..], scale, bias);
                x0 += SWEEP * GATHER_LANES;
            }
            while x0 + GATHER_LANES <= hw {
                let acc: [[i64; GATHER_LANES]; 1] =
                    gather_lanes(codes, cols, hw, x0, entries, stride);
                store_blocks(&acc, &mut out_row[x0..], scale, bias);
                x0 += GATHER_LANES;
            }
        }
        scalar_tail(codes, &cols[x0..], hw, lut, scale, bias, &mut out_row[x0..]);
    }
    // optima-lint: end-hot
}

/// One 8-pixel row sweep through the patch matrix with `vpgatherdd`: the
/// block's eight LUT lookups run as one hardware gather.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn sweep1_gather(
    codes: &[u8],
    cols: &[u8],
    hw: usize,
    x0: usize,
    lut: &[i32],
    stride: usize,
    lane_mask: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let mut acc = _mm256_setzero_si256();
    for (&code, row) in codes.iter().zip(cols.chunks_exact(hw)) {
        // SAFETY: the masked sub-table index stays below `stride` and the
        // masked code keeps `code * stride + stride - 1` below
        // `lut.len() == stride * stride`, so every gather reads inside
        // `lut`; the 8-byte activation load sits inside `row` because the
        // caller guarantees `x0 + 8 <= hw == row.len()`.
        let sub = lut.as_ptr().add((code as usize & (stride - 1)) * stride);
        let bytes = _mm_loadl_epi64(row.as_ptr().add(x0) as *const __m128i);
        let idx = _mm256_and_si256(_mm256_cvtepu8_epi32(bytes), lane_mask);
        acc = _mm256_add_epi32(acc, _mm256_i32gather_epi32::<4>(sub, idx));
    }
    acc
}

/// One 16-pixel row sweep through the patch matrix with `vpgatherdd`: each
/// 8-pixel block's LUT lookups run as one hardware gather, with two
/// independent accumulators to hide gather latency.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn sweep2_gather(
    codes: &[u8],
    cols: &[u8],
    hw: usize,
    x0: usize,
    lut: &[i32],
    stride: usize,
    lane_mask: std::arch::x86_64::__m256i,
) -> [std::arch::x86_64::__m256i; 2] {
    use std::arch::x86_64::*;
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    for (&code, row) in codes.iter().zip(cols.chunks_exact(hw)) {
        // SAFETY: as in `sweep1_gather`, with the caller guaranteeing
        // `x0 + 16 <= hw == row.len()` for the two 8-byte loads.
        let sub = lut.as_ptr().add((code as usize & (stride - 1)) * stride);
        let bytes0 = _mm_loadl_epi64(row.as_ptr().add(x0) as *const __m128i);
        let bytes1 = _mm_loadl_epi64(row.as_ptr().add(x0 + GATHER_LANES) as *const __m128i);
        let idx0 = _mm256_and_si256(_mm256_cvtepu8_epi32(bytes0), lane_mask);
        let idx1 = _mm256_and_si256(_mm256_cvtepu8_epi32(bytes1), lane_mask);
        acc0 = _mm256_add_epi32(acc0, _mm256_i32gather_epi32::<4>(sub, idx0));
        acc1 = _mm256_add_epi32(acc1, _mm256_i32gather_epi32::<4>(sub, idx1));
    }
    [acc0, acc1]
}

/// One 32-pixel row sweep specialised to INT4 tables whose entries fit an
/// `i16`.  A weight code's 16-entry sub-table, split into a low-byte and a
/// high-byte plane ([`ProductLut::byte_planes`]), fits one `vpshufb`
/// operand per plane, so a row's 32 lookups are two byte shuffles of one
/// 32-byte activation load (masked with `0x0F`, a no-op on quantizer
/// codes).  Interleaving the two shuffled planes (`vpunpck{l,h}bw`)
/// rebuilds the signed products as `i16` lanes: one accumulator holds
/// pixels 0–7 and 16–23, the other 8–15 and 24–31.
///
/// Every `rows_per_widen = i16::MAX / max_abs` rows the `i16` partial sums
/// are sign-extended into four `i32` accumulators in pixel order, so no
/// `i16` lane can overflow; the `i32` sums then equal the portable body's
/// exactly (the caller has checked [`lut_fits_i32`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn sweep4_shuffle16(
    codes: &[u8],
    cols: &[u8],
    hw: usize,
    x0: usize,
    planes: &[u8],
    rows_per_widen: usize,
) -> [std::arch::x86_64::__m256i; 4] {
    use std::arch::x86_64::*;
    let nibble = _mm256_set1_epi8(0x0F);
    let mut wide = [_mm256_setzero_si256(); 4];
    // optima-lint: hot
    for (code_run, row_run) in codes
        .chunks(rows_per_widen)
        .zip(cols.chunks(rows_per_widen * hw))
    {
        let mut acc_lo = _mm256_setzero_si256();
        let mut acc_hi = _mm256_setzero_si256();
        for (&code, row) in code_run.iter().zip(row_run.chunks_exact(hw)) {
            // SAFETY: the masked code keeps the 32-byte plane pair inside
            // `planes.len() == 512`, and the caller guarantees
            // `x0 + 32 <= hw == row.len()` for the activation load.
            let plane = planes.as_ptr().add((code as usize & 15) * 32);
            let low = _mm256_broadcastsi128_si256(_mm_loadu_si128(plane as *const __m128i));
            let high =
                _mm256_broadcastsi128_si256(_mm_loadu_si128(plane.add(16) as *const __m128i));
            let idx = _mm256_and_si256(
                _mm256_loadu_si256(row.as_ptr().add(x0) as *const __m256i),
                nibble,
            );
            let low = _mm256_shuffle_epi8(low, idx);
            let high = _mm256_shuffle_epi8(high, idx);
            acc_lo = _mm256_add_epi16(acc_lo, _mm256_unpacklo_epi8(low, high));
            acc_hi = _mm256_add_epi16(acc_hi, _mm256_unpackhi_epi8(low, high));
        }
        let widened = [
            _mm256_castsi256_si128(acc_lo),
            _mm256_castsi256_si128(acc_hi),
            _mm256_extracti128_si256::<1>(acc_lo),
            _mm256_extracti128_si256::<1>(acc_hi),
        ];
        for (acc, half) in wide.iter_mut().zip(widened) {
            *acc = _mm256_add_epi32(*acc, _mm256_cvtepi16_epi32(half));
        }
    }
    // optima-lint: end-hot
    wide
}

/// Spills `N` eight-lane `i32` accumulators (in pixel order) and scales
/// them into the output row through [`store_blocks`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn store_vectors<const N: usize>(
    acc: [std::arch::x86_64::__m256i; N],
    out: &mut [f32],
    scale: f32,
    bias: f32,
) {
    use std::arch::x86_64::*;
    let mut lanes = [[0i32; GATHER_LANES]; N];
    for (block, vector) in lanes.iter_mut().zip(acc) {
        // SAFETY: each block is exactly one 32-byte `[i32; 8]`.
        _mm256_storeu_si256(block.as_mut_ptr() as *mut __m256i, vector);
    }
    store_blocks(&lanes, out, scale, bias);
}

/// AVX2 clone of the convolution LUT sweep.  INT4 tables with `i16`-sized
/// entries run 32 pixels per row step through [`sweep4_shuffle16`]; every
/// other table runs 16 pixels per row step through [`sweep2_gather`]'s
/// `vpgatherdd` lookups.  The remaining `hw % 32` (or `hw % 16`) pixels take
/// 8-pixel gathers and the scalar tail.  The looked-up values and each
/// pixel's integer sum are unchanged, so the clone is bit-identical to the
/// portable body.  The `i64` wide-accumulator case has no packed lookup; it
/// falls through to the portable body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conv_lut_core_avx2(
    conv: &QConv,
    cols: &[u8],
    hw: usize,
    lut: &ProductLut,
    scale: f32,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;

    let stride = lut.stride();
    let entries = &lut.entries[..];
    let patch = conv.in_channels * conv.kernel * conv.kernel;
    if !lut_fits_i32(patch, lut.max_abs) {
        return conv_lut_core_body(conv, cols, hw, lut, scale, out);
    }
    // `byte_planes` exists only for `max_abs <= i16::MAX`, so at least one
    // row fits the `i16` lanes.
    let rows_per_widen = (i16::MAX as i64 / lut.max_abs.max(1)) as usize;
    // The mask is a no-op on well-formed inputs (the quantizer emits codes
    // `< stride` on both operands); it bounds every gather inside `lut`
    // regardless, which is what makes the raw-pointer gathers sound.
    let lane_mask = _mm256_set1_epi32((stride - 1) as i32);
    // optima-lint: hot
    for (oc, out_row) in out.chunks_exact_mut(hw).enumerate() {
        let codes = &conv.codes[oc * patch..(oc + 1) * patch];
        let bias = conv.bias[oc];
        let mut x0 = 0usize;
        // SAFETY for every sweep: each loop condition bounds the activation
        // loads by `hw == row.len()`, and masked codes/indices bound every
        // table read (see the helpers' safety comments).
        if let Some(planes) = lut.byte_planes.as_deref() {
            while x0 + 4 * GATHER_LANES <= hw {
                let acc = sweep4_shuffle16(codes, cols, hw, x0, planes, rows_per_widen);
                store_vectors(acc, &mut out_row[x0..], scale, bias);
                x0 += 4 * GATHER_LANES;
            }
        } else {
            while x0 + 2 * GATHER_LANES <= hw {
                let acc = sweep2_gather(codes, cols, hw, x0, entries, stride, lane_mask);
                store_vectors(acc, &mut out_row[x0..], scale, bias);
                x0 += 2 * GATHER_LANES;
            }
        }
        while x0 + GATHER_LANES <= hw {
            let acc = sweep1_gather(codes, cols, hw, x0, entries, stride, lane_mask);
            store_vectors([acc], &mut out_row[x0..], scale, bias);
            x0 += GATHER_LANES;
        }
        scalar_tail(codes, &cols[x0..], hw, lut, scale, bias, &mut out_row[x0..]);
    }
    // optima-lint: end-hot
}

/// Dispatches the convolution LUT sweep to the AVX2 clone when the CPU
/// supports it, falling back to the portable body otherwise.
fn conv_lut_core(
    conv: &QConv,
    cols: &[u8],
    hw: usize,
    lut: &ProductLut,
    scale: f32,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 clone only runs after the (cached) runtime
        // feature check above confirmed the CPU supports it.
        return unsafe { conv_lut_core_avx2(conv, cols, hw, lut, scale, out) };
    }
    conv_lut_core_body(conv, cols, hw, lut, scale, out);
}

/// The dense LUT sweep: eight integer lanes stream the (code, activation)
/// pairs of one output
/// row, the lanes fold into an `i64`, and a scalar loop takes the
/// `inputs % 8` tail.  Zero codes index all-zero LUT sub-tables, so no
/// skip test is needed.
fn dense_lut_core(
    dense: &QDense,
    activations: &[u8],
    lut: &ProductLut,
    scale: f32,
    out: &mut [f32],
) {
    let stride = lut.stride();
    let lut_entries = &lut.entries[..];
    let narrow = lut_fits_i32(dense.inputs, lut.max_abs);
    // optima-lint: hot
    for (o, out_value) in out.iter_mut().enumerate() {
        let codes = &dense.codes[o * dense.inputs..(o + 1) * dense.inputs];
        let mut total: i64 = 0;
        let code_chunks = codes.chunks_exact(GATHER_LANES);
        let act_chunks = activations.chunks_exact(GATHER_LANES);
        let code_tail = code_chunks.remainder();
        let act_tail = act_chunks.remainder();
        if narrow {
            let mut acc = [0i32; GATHER_LANES];
            for (code_block, act_block) in code_chunks.zip(act_chunks) {
                for ((lane, &code), &activation) in
                    acc.iter_mut().zip(code_block.iter()).zip(act_block.iter())
                {
                    *lane += lut_entries[code as usize * stride + activation as usize];
                }
            }
            for &lane in &acc {
                total += lane as i64;
            }
        } else {
            let mut acc = [0i64; GATHER_LANES];
            for (code_block, act_block) in code_chunks.zip(act_chunks) {
                for ((lane, &code), &activation) in
                    acc.iter_mut().zip(code_block.iter()).zip(act_block.iter())
                {
                    *lane += lut_entries[code as usize * stride + activation as usize] as i64;
                }
            }
            for &lane in &acc {
                total += lane;
            }
        }
        for (&code, &activation) in code_tail.iter().zip(act_tail.iter()) {
            total += lut_entries[code as usize * stride + activation as usize] as i64;
        }
        *out_value = total as f32 * scale + dense.bias[o];
    }
    // optima-lint: end-hot
}

/// Quantized convolution parameters.
#[derive(Debug, Clone)]
struct QConv {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    /// Quantized weights in `[out_c, in_c, k, k]` order as LUT codes
    /// (`weight + 2^(bits−1)`).
    codes: Vec<u8>,
    weight_params: QuantizationParams,
    bias: Vec<f32>,
}

/// Quantized dense parameters.
#[derive(Debug, Clone)]
struct QDense {
    inputs: usize,
    outputs: usize,
    /// Quantized weights in `[outputs, inputs]` order as LUT codes
    /// (`weight + 2^(bits−1)`).
    codes: Vec<u8>,
    weight_params: QuantizationParams,
    bias: Vec<f32>,
}

fn weight_codes(weights: &[i8], bits: u8) -> Vec<u8> {
    let half = 1i16 << (bits - 1);
    weights.iter().map(|&w| (w as i16 + half) as u8).collect()
}

/// One layer of the quantized network.
#[derive(Debug, Clone)]
enum QLayer {
    Conv(QConv),
    Dense(QDense),
    Residual { conv1: QConv, conv2: QConv },
    Relu,
    MaxPool,
    GlobalAvgPool,
    Flatten,
}

/// A quantized network executing all products through a [`ProductTable`].
///
/// The operand width (and with it the LUT geometry and quantization ranges)
/// follows [`ProductTable::operand_bits`]; 4 bits is the paper's INT4
/// pipeline.
#[derive(Debug)]
pub struct QuantizedNetwork {
    layers: Vec<QLayer>,
    /// Operand width in bits, cached from the product table.
    bits: u8,
    /// Flat signed-product table (`1 << 2·bits` entries) with its byte
    /// planes.
    lut: ProductLut,
}

impl QuantizedNetwork {
    /// Quantizes a trained FLOAT32 network at the product table's operand
    /// width.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfiguration`] when the network contains a
    /// layer type the quantizer does not support, or the product table
    /// reports an operand width outside 1..=8 bits.
    pub fn from_network(
        network: &Network,
        products: Arc<dyn ProductTable>,
    ) -> Result<Self, DnnError> {
        let bits = products.operand_bits();
        if !(1..=8).contains(&bits) {
            return Err(DnnError::InvalidConfiguration {
                context: format!(
                    "product table '{}' reports an operand width of {bits} bits (need 1..=8)",
                    products.name()
                ),
            });
        }
        let mut layers = Vec::with_capacity(network.len());
        for layer in network.layers() {
            layers.push(Self::convert_layer(layer.as_ref(), bits)?);
        }
        let lut = ProductLut::new(snapshot_products(products.as_ref()), bits);
        Ok(QuantizedNetwork { layers, bits, lut })
    }

    fn convert_layer(layer: &dyn Layer, bits: u8) -> Result<QLayer, DnnError> {
        let any = layer.as_any();
        if let Some(conv) = any.downcast_ref::<Conv2d>() {
            return Ok(QLayer::Conv(Self::convert_conv(conv, bits)));
        }
        if let Some(dense) = any.downcast_ref::<Dense>() {
            let (weights, weight_params) = quantize_weights_bits(dense.weights(), bits);
            return Ok(QLayer::Dense(QDense {
                inputs: dense.inputs(),
                outputs: dense.outputs(),
                codes: weight_codes(&weights, bits),
                weight_params,
                bias: dense.bias().to_vec(),
            }));
        }
        if let Some(block) = any.downcast_ref::<ResidualBlock>() {
            let (conv1, conv2) = block.convolutions();
            return Ok(QLayer::Residual {
                conv1: Self::convert_conv(conv1, bits),
                conv2: Self::convert_conv(conv2, bits),
            });
        }
        if any.downcast_ref::<Relu>().is_some() {
            return Ok(QLayer::Relu);
        }
        if any.downcast_ref::<MaxPool2d>().is_some() {
            return Ok(QLayer::MaxPool);
        }
        if any.downcast_ref::<GlobalAvgPool>().is_some() {
            return Ok(QLayer::GlobalAvgPool);
        }
        if any.downcast_ref::<Flatten>().is_some() {
            return Ok(QLayer::Flatten);
        }
        Err(DnnError::InvalidConfiguration {
            context: format!("layer '{}' cannot be quantized", layer.name()),
        })
    }

    fn convert_conv(conv: &Conv2d, bits: u8) -> QConv {
        let (weights, weight_params) = quantize_weights_bits(conv.weights(), bits);
        QConv {
            in_channels: conv.in_channels(),
            out_channels: conv.out_channels(),
            kernel: conv.kernel(),
            codes: weight_codes(&weights, bits),
            weight_params,
            bias: conv.bias().to_vec(),
        }
    }

    /// Operand width in bits (4 for the paper's INT4 pipeline).
    pub fn operand_bits(&self) -> u8 {
        self.bits
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` for an empty network.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs quantized inference on one input image through
    /// [`QuantizedNetwork::forward_with`] with a fresh scratch arena.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, DnnError> {
        self.forward_with(input, &mut KernelScratch::new()).cloned()
    }

    /// Runs quantized inference with every buffer drawn from `scratch`.
    ///
    /// Quantized activation codes, u8 im2col patches and the ping-pong
    /// activation tensors all live in the arena, and the result is returned
    /// by reference (valid until the next call that borrows the same
    /// scratch).  The steady state performs **zero** heap allocations per
    /// image.  Activation quantization is per image, so results never
    /// depend on what else the scratch has seen.
    ///
    /// # Errors
    ///
    /// Propagates shape errors; leased buffers are returned to the pool on
    /// the error path.
    pub fn forward_with<'s>(
        &self,
        input: &Tensor,
        scratch: &'s mut KernelScratch,
    ) -> Result<&'s Tensor, DnnError> {
        let mut current = scratch.lease();
        let mut next = scratch.lease();
        let result = self.forward_ping_pong(input, &mut current, &mut next, scratch);
        scratch.release(next);
        match result {
            Ok(()) => Ok(scratch.store_result(current)),
            Err(error) => {
                scratch.release(current);
                Err(error)
            }
        }
    }

    /// The layer loop of [`QuantizedNetwork::forward_with`].
    fn forward_ping_pong(
        &self,
        input: &Tensor,
        current: &mut Tensor,
        next: &mut Tensor,
        scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        let mut layers = self.layers.iter();
        match layers.next() {
            Some(first) => self.forward_layer_into(first, input, current, scratch)?,
            None => current.copy_from(input),
        }
        for layer in layers {
            self.forward_layer_into(layer, current, next, scratch)?;
            std::mem::swap(current, next);
        }
        Ok(())
    }

    fn forward_layer_into(
        &self,
        layer: &QLayer,
        input: &Tensor,
        output: &mut Tensor,
        scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        match layer {
            QLayer::Conv(conv) => self.forward_conv_into(conv, input, output, scratch),
            QLayer::Dense(dense) => self.forward_dense_into(dense, input, output, scratch),
            QLayer::Residual { conv1, conv2 } => {
                let mut branch = scratch.lease();
                let result = (|| {
                    self.forward_conv_into(conv1, input, &mut branch, scratch)?;
                    branch.map_inplace(|v| v.max(0.0));
                    self.forward_conv_into(conv2, &branch, output, scratch)?;
                    output.add_assign(input)?;
                    output.map_inplace(|v| v.max(0.0));
                    Ok(())
                })();
                scratch.release(branch);
                result
            }
            QLayer::Relu => {
                output.copy_from(input);
                output.map_inplace(|v| v.max(0.0));
                Ok(())
            }
            QLayer::MaxPool => MaxPool2d::new().infer_into(input, output, scratch),
            QLayer::GlobalAvgPool => GlobalAvgPool::new().infer_into(input, output, scratch),
            QLayer::Flatten => {
                output.copy_from(input);
                output.reshape_in_place(&[input.len()])
            }
        }
    }

    /// Scratch-arena convolution: [`conv_lut_core`] over arena-held
    /// activation codes and patches.
    fn forward_conv_into(
        &self,
        conv: &QConv,
        input: &Tensor,
        output: &mut Tensor,
        scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        let shape = input.shape();
        if shape.len() != 3 || shape[0] != conv.in_channels {
            return Err(DnnError::ShapeMismatch {
                expected: vec![conv.in_channels, 0, 0],
                found: shape.to_vec(),
            });
        }
        let (height, width) = (shape[1], shape[2]);
        let activation_params =
            quantize_activations_bits_into(input.data(), self.bits, &mut scratch.qactivations);
        let scale = conv.weight_params.scale * activation_params.scale;
        im2col(
            &scratch.qactivations,
            0u8,
            conv.in_channels,
            height,
            width,
            conv.kernel,
            &mut scratch.qcols,
        );
        output.resize_to(&[conv.out_channels, height, width]);
        conv_lut_core(
            conv,
            &scratch.qcols,
            height * width,
            &self.lut,
            scale,
            output.data_mut(),
        );
        Ok(())
    }

    /// Scratch-arena dense layer: [`dense_lut_core`] over arena-held
    /// activation codes.
    fn forward_dense_into(
        &self,
        dense: &QDense,
        input: &Tensor,
        output: &mut Tensor,
        scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        if input.len() != dense.inputs {
            return Err(DnnError::ShapeMismatch {
                expected: vec![dense.inputs],
                found: input.shape().to_vec(),
            });
        }
        let activation_params =
            quantize_activations_bits_into(input.data(), self.bits, &mut scratch.qactivations);
        let scale = dense.weight_params.scale * activation_params.scale;
        output.resize_to(&[dense.outputs]);
        dense_lut_core(
            dense,
            &scratch.qactivations,
            &self.lut,
            scale,
            output.data_mut(),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, SyntheticImageConfig};
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
    use crate::multiplier::{ComposedProducts, ExactInt4Products, ExactProducts, InMemoryProducts};
    use crate::training::{Trainer, TrainingConfig};
    use optima_imc::multiplier::MultiplierTable;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn small_cnn(classes: usize) -> Network {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        Network::new(vec![
            Box::new(Conv2d::new(1, 4, 3, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(4 * 4 * 4, classes, &mut rng)),
        ])
    }

    #[test]
    fn quantized_network_mirrors_float_network_closely() {
        let dataset = Dataset::synthetic(SyntheticImageConfig::tiny());
        let mut network = small_cnn(3);
        Trainer::new(TrainingConfig {
            epochs: 8,
            learning_rate: 0.05,
            learning_rate_decay: 0.95,
        })
        .train(&mut network, &dataset)
        .unwrap();

        let quantized =
            QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        assert_eq!(quantized.len(), network.len());
        assert!(!quantized.is_empty());

        // On most samples the INT4 prediction should match the FLOAT32 one.
        let mut agreement = 0usize;
        let mut total = 0usize;
        for (image, _) in dataset.test_iter() {
            let float_prediction = network.forward(image).unwrap().argmax();
            let int4_prediction = quantized.forward(image).unwrap().argmax();
            if float_prediction == int4_prediction {
                agreement += 1;
            }
            total += 1;
        }
        assert!(
            agreement * 10 >= total * 7,
            "only {agreement}/{total} predictions agree after quantization"
        );
    }

    #[test]
    fn exact_table_and_exact_products_give_identical_results() {
        let network = small_cnn(3);
        let via_products =
            QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        let via_table = QuantizedNetwork::from_network(
            &network,
            Arc::new(InMemoryProducts::new(MultiplierTable::exact(), "exact")),
        )
        .unwrap();
        let image =
            Tensor::from_vec(&[1, 8, 8], (0..64).map(|i| (i % 7) as f32 / 7.0).collect()).unwrap();
        assert_eq!(
            via_products.forward(&image).unwrap(),
            via_table.forward(&image).unwrap()
        );
    }

    #[test]
    fn shape_errors_are_reported() {
        let network = small_cnn(3);
        let quantized =
            QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        assert!(quantized.forward(&Tensor::zeros(&[2, 8, 8])).is_err());
    }

    #[test]
    fn operand_width_follows_the_product_table() {
        let network = small_cnn(3);
        let int4 = QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        assert_eq!(int4.operand_bits(), 4);
        let int8 =
            QuantizedNetwork::from_network(&network, Arc::new(ExactProducts::new(8))).unwrap();
        assert_eq!(int8.operand_bits(), 8);
    }

    #[test]
    fn forward_with_matches_forward_bit_for_bit() {
        // A reused scratch must reproduce a fresh one exactly at both the
        // INT4 and composed INT8 widths, with one scratch shared across all
        // images (and across the two widths).
        let network = small_cnn(3);
        let int4 = QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        let int8 = QuantizedNetwork::from_network(
            &network,
            Arc::new(ComposedProducts::new(Arc::new(ExactInt4Products), 2)),
        )
        .unwrap();
        let mut scratch = KernelScratch::new();
        for seed in 0..5u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let image =
                Tensor::from_vec(&[1, 8, 8], (0..64).map(|_| rng.gen::<f32>()).collect()).unwrap();
            for quantized in [&int4, &int8] {
                let allocating = quantized.forward(&image).unwrap();
                let pooled = quantized.forward_with(&image, &mut scratch).unwrap();
                assert_eq!(&allocating, pooled, "seed {seed}");
            }
        }
    }

    #[test]
    fn forward_with_recovers_after_a_shape_error() {
        let network = small_cnn(3);
        let quantized =
            QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        let mut scratch = KernelScratch::new();
        let image =
            Tensor::from_vec(&[1, 8, 8], (0..64).map(|i| (i % 9) as f32 / 9.0).collect()).unwrap();
        let allocating = quantized.forward(&image).unwrap();
        assert_eq!(
            &allocating,
            quantized.forward_with(&image, &mut scratch).unwrap()
        );
        // A shape error releases the leased buffers and leaves the scratch usable.
        assert!(quantized
            .forward_with(&Tensor::zeros(&[2, 8, 8]), &mut scratch)
            .is_err());
        assert_eq!(
            &allocating,
            quantized.forward_with(&image, &mut scratch).unwrap()
        );
    }

    /// A random product table for `bits`-wide operands with entries in
    /// `±max_abs`; the zero-weight code's sub-table stays all zero, as in
    /// every snapshot (the scalar tail skips that code).
    fn random_lut(bits: u8, max_abs: i32, rng: &mut ChaCha8Rng) -> ProductLut {
        let stride = 1usize << bits;
        let mut entries: Box<[i32]> = (0..stride * stride)
            .map(|_| rng.gen_range(-max_abs..=max_abs))
            .collect();
        entries[stride / 2 * stride..(stride / 2 + 1) * stride].fill(0);
        ProductLut::new(entries, bits)
    }

    #[test]
    fn portable_and_dispatched_conv_sweeps_match_a_scalar_sum() {
        // Runs the portable body next to the dispatched sweep (the AVX2
        // clone on AVX2 hosts) over INT4 and INT8 tables: entries small
        // enough for long i16 runs, at the i16 edge (widening after every
        // row), beyond i16 (vpgatherdd), and large enough to force i64
        // accumulation.  Both must equal a plain i64 sum bit for bit.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for (bits, max_abs, in_channels) in [
            (4u8, 105, 8),
            (4, 4_000, 8),
            (4, i16::MAX as i32, 3),
            (4, 1 << 20, 3),
            (4, 1 << 28, 1),
            (8, 16_129, 3),
            (8, 1 << 28, 1),
        ] {
            let lut = random_lut(bits, max_abs, &mut rng);
            let stride = lut.stride();
            let narrow = max_abs < 1 << 28;
            for hw in [7usize, 8, 16, 24, 40, 64, 100, 256] {
                let out_channels = 3;
                let patch = in_channels * 9;
                assert_eq!(lut_fits_i32(patch, lut.max_abs), narrow);
                let conv = QConv {
                    in_channels,
                    out_channels,
                    kernel: 3,
                    codes: (0..out_channels * patch)
                        .map(|_| rng.gen_range(0..stride) as u8)
                        .collect(),
                    weight_params: QuantizationParams { scale: 1.0, bits },
                    bias: (0..out_channels).map(|_| rng.gen::<f32>()).collect(),
                };
                let cols: Vec<u8> = (0..patch * hw)
                    .map(|_| rng.gen_range(0..stride) as u8)
                    .collect();
                let scale = 0.37f32;
                let mut portable = vec![0.0f32; out_channels * hw];
                let mut dispatched = vec![0.0f32; out_channels * hw];
                conv_lut_core_body(&conv, &cols, hw, &lut, scale, &mut portable);
                conv_lut_core(&conv, &cols, hw, &lut, scale, &mut dispatched);
                for (index, (&a, &b)) in portable.iter().zip(&dispatched).enumerate() {
                    let (oc, x) = (index / hw, index % hw);
                    let sum: i64 = (0..patch)
                        .map(|row| {
                            let code = conv.codes[oc * patch + row] as usize;
                            lut.entries[code * stride + cols[row * hw + x] as usize] as i64
                        })
                        .sum();
                    let expected = sum as f32 * scale + conv.bias[oc];
                    let case = format!("bits {bits}, max {max_abs}, hw {hw}, pixel {index}");
                    assert_eq!(a.to_bits(), expected.to_bits(), "portable: {case}");
                    assert_eq!(b.to_bits(), expected.to_bits(), "dispatched: {case}");
                }
            }
        }
    }

    #[test]
    fn byte_planes_exist_only_for_int4_tables_within_i16() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let planes = random_lut(4, i16::MAX as i32, &mut rng);
        let bytes = planes.byte_planes.as_deref().unwrap();
        assert_eq!(bytes.len(), 512);
        for (code, sub) in planes.entries.chunks_exact(16).enumerate() {
            for (activation, &entry) in sub.iter().enumerate() {
                let low = bytes[code * 32 + activation];
                let high = bytes[code * 32 + 16 + activation];
                assert_eq!(i16::from_le_bytes([low, high]) as i32, entry);
            }
        }
        assert!(random_lut(4, 40_000, &mut rng).byte_planes.is_none());
        assert!(random_lut(8, 100, &mut rng).byte_planes.is_none());
    }

    #[test]
    fn int8_inference_tracks_the_float_network_more_closely_than_int4() {
        // Wider codes mean finer quantization: the exact INT8 network's
        // output must sit at least as close to the FLOAT32 output as the
        // exact INT4 network's on average.
        let dataset = Dataset::synthetic(SyntheticImageConfig::tiny());
        let mut network = small_cnn(3);
        Trainer::new(TrainingConfig {
            epochs: 4,
            learning_rate: 0.05,
            learning_rate_decay: 0.95,
        })
        .train(&mut network, &dataset)
        .unwrap();
        let int4 = QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        let int8 =
            QuantizedNetwork::from_network(&network, Arc::new(ExactProducts::new(8))).unwrap();
        let mut err4 = 0.0f64;
        let mut err8 = 0.0f64;
        for (image, _) in dataset.test_iter().take(8) {
            let float_out = network.forward(image).unwrap();
            let out4 = int4.forward(image).unwrap();
            let out8 = int8.forward(image).unwrap();
            for ((f, q4), q8) in float_out.data().iter().zip(out4.data()).zip(out8.data()) {
                err4 += (f - q4).abs() as f64;
                err8 += (f - q8).abs() as f64;
            }
        }
        assert!(err8 <= err4, "INT8 drift {err8} exceeds INT4 drift {err4}");
    }
}
