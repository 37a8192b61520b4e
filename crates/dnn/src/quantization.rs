//! Post-training quantization to narrow integer widths.
//!
//! The paper quantizes pre-trained FLOAT32 networks to an INT4 representation
//! following the TensorFlow-Lite scheme with INT8 replaced by INT4.  This
//! module implements the corresponding per-tensor affine quantizers:
//! symmetric signed quantization for weights (range −7…7 at 4 bits) and
//! unsigned quantization for (non-negative, post-ReLU) activations (range
//! 0…15 at 4 bits).
//!
//! The operand width is a parameter (1..=8 bits) so the same quantizers serve
//! any `optima_circuit::array::ArrayConfig` geometry; the paper's INT4
//! pipeline is `bits = 4`.

use serde::{Deserialize, Serialize};

/// Largest magnitude of a symmetric signed `bits`-wide value,
/// `2^(bits−1) − 1` (e.g. 7 at 4 bits, 127 at 8 bits).
pub fn signed_max(bits: u8) -> i8 {
    debug_assert!((1..=8).contains(&bits));
    ((1u16 << (bits - 1)) - 1) as i8
}

/// Largest unsigned `bits`-wide value, `2^bits − 1` (e.g. 15 at 4 bits).
pub fn unsigned_max(bits: u8) -> u8 {
    debug_assert!((1..=8).contains(&bits));
    ((1u16 << bits) - 1) as u8
}

/// Per-tensor quantization parameters (scale only; zero point is always 0).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantizationParams {
    /// Real value represented by one integer step.
    pub scale: f32,
    /// Operand width in bits; sets the clamping range of the quantizers.
    pub bits: u8,
}

impl QuantizationParams {
    /// Parameters for symmetric signed quantization of `data` to `bits` bits.
    pub fn symmetric_for_bits(data: &[f32], bits: u8) -> Self {
        let max_abs = data.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
        QuantizationParams {
            scale: if max_abs > 0.0 {
                max_abs / signed_max(bits) as f32
            } else {
                1.0
            },
            bits,
        }
    }

    /// Parameters for unsigned quantization of non-negative `data` to `bits`
    /// bits.
    pub fn unsigned_for_bits(data: &[f32], bits: u8) -> Self {
        let max = data.iter().fold(0.0f32, |acc, v| acc.max(*v));
        QuantizationParams {
            scale: if max > 0.0 {
                max / unsigned_max(bits) as f32
            } else {
                1.0
            },
            bits,
        }
    }

    /// Quantizes one value to a signed `bits`-wide integer.
    pub fn quantize_signed(&self, value: f32) -> i8 {
        let max = signed_max(self.bits) as f32;
        (value / self.scale).round().clamp(-max, max) as i8
    }

    /// Quantizes one (non-negative) value to an unsigned `bits`-wide integer:
    /// `value / scale` rounded half away from zero and clamped to
    /// `0..=2^bits − 1`, with NaN quantizing to 0.
    ///
    /// The quotient is clamped before it is rounded, which gives the same
    /// code because the bounds are integers.  Rounding then adds
    /// `0.5 − 2⁻²⁵` and truncates, which is exact for every clamped value
    /// (the addition rounds up to the next integer only from a tie or
    /// above).  No `roundf` call or saturating cast is left, so activation
    /// loops vectorize.
    pub fn quantize_unsigned(&self, value: f32) -> u8 {
        const JUST_BELOW_HALF: f32 = 0.5 - 1.0 / (1u32 << 25) as f32;
        let max = unsigned_max(self.bits) as f32;
        let quotient = value.max(0.0) / self.scale;
        let quotient = if quotient > 0.0 { quotient } else { 0.0 }; // NaN → 0
        let quotient = if quotient < max { quotient } else { max };
        // SAFETY: the clamps leave `quotient` in `0..=255`, so the rounded
        // sum is finite and below 256: inside both `i32` and `u8`.
        unsafe { (quotient + JUST_BELOW_HALF).to_int_unchecked::<i32>() as u8 }
    }
}

/// Quantizes a weight slice symmetrically to `bits` bits.
pub fn quantize_weights_bits(weights: &[f32], bits: u8) -> (Vec<i8>, QuantizationParams) {
    let params = QuantizationParams::symmetric_for_bits(weights, bits);
    let quantized = weights.iter().map(|&w| params.quantize_signed(w)).collect();
    (quantized, params)
}

/// Quantizes an activation slice (clamped at zero) to unsigned `bits` bits
/// into a caller-provided buffer, reusing its capacity.
pub fn quantize_activations_bits_into(
    activations: &[f32],
    bits: u8,
    out: &mut Vec<u8>,
) -> QuantizationParams {
    let params = QuantizationParams::unsigned_for_bits(activations, bits);
    out.clear();
    out.extend(activations.iter().map(|&a| params.quantize_unsigned(a)));
    params
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_quantization_round_trips_within_half_step() {
        let weights = [-0.9, -0.3, 0.0, 0.45, 0.9];
        let (quantized, params) = quantize_weights_bits(&weights, 4);
        assert_eq!(quantized.len(), weights.len());
        assert!(quantized.iter().all(|&q| (-7..=7).contains(&q)));
        for (&w, &q) in weights.iter().zip(quantized.iter()) {
            let reconstructed = q as f32 * params.scale;
            assert!((reconstructed - w).abs() <= params.scale * 0.5 + 1e-6);
        }
        // The extreme value maps to the extreme code.
        assert_eq!(quantized[0], -7);
        assert_eq!(quantized[4], 7);
    }

    #[test]
    fn unsigned_quantization_clamps_negatives() {
        let activations = [-0.2, 0.0, 0.5, 1.0];
        let mut quantized = Vec::new();
        let params = quantize_activations_bits_into(&activations, 4, &mut quantized);
        assert_eq!(quantized[0], 0);
        assert_eq!(quantized[3], 15);
        assert!((quantized[2] as f32 * params.scale - 0.5).abs() < params.scale);
    }

    #[test]
    fn all_zero_input_uses_unit_scale() {
        let (quantized, params) = quantize_weights_bits(&[0.0, 0.0], 4);
        assert_eq!(quantized, vec![0, 0]);
        assert_eq!(params.scale, 1.0);
        let mut quantized = Vec::new();
        let params = quantize_activations_bits_into(&[0.0], 4, &mut quantized);
        assert_eq!(quantized, vec![0]);
        assert_eq!(params.scale, 1.0);
    }

    #[test]
    fn quantization_error_shrinks_for_narrow_ranges() {
        let wide = QuantizationParams::symmetric_for_bits(&[-2.0, 2.0], 4);
        let narrow = QuantizationParams::symmetric_for_bits(&[-0.1, 0.1], 4);
        assert!(narrow.scale < wide.scale);
    }

    #[test]
    fn unsigned_quantization_matches_round_then_clamp() {
        // The rounded-then-clamped formula the quantizer replaces, over
        // quotients on a fine grid, every tie k + 0.5 and its float
        // neighbours, the integers, and the special values, at every width.
        let oracle = |quotient: f32, bits: u8| {
            quotient
                .max(0.0)
                .round()
                .clamp(0.0, unsigned_max(bits) as f32) as u8
        };
        let mut quotients = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            -0.0,
            0.0,
            -3.0,
            0.5 - 1.0 / (1u32 << 25) as f32,
            8_388_607.5,
            8_388_609.0,
        ];
        for k in 0..300 {
            for base in [k as f32, k as f32 + 0.5] {
                let bits = base.to_bits();
                quotients.extend((bits.saturating_sub(3)..=bits + 3).map(f32::from_bits));
            }
        }
        quotients.extend((0..300_000).map(|i| i as f32 * 0.001));
        for bits in 1..=8u8 {
            let params = QuantizationParams { scale: 1.0, bits };
            for &quotient in &quotients {
                assert_eq!(
                    params.quantize_unsigned(quotient),
                    oracle(quotient, bits),
                    "quotient {quotient:e} at {bits} bits"
                );
            }
        }
    }

    #[test]
    fn width_limits_follow_the_bit_count() {
        assert_eq!(signed_max(4), 7);
        assert_eq!(unsigned_max(4), 15);
        assert_eq!(signed_max(8), 127);
        assert_eq!(unsigned_max(8), 255);
        assert_eq!(signed_max(1), 0);
        assert_eq!(unsigned_max(1), 1);
    }

    #[test]
    fn eight_bit_quantization_uses_the_wider_range() {
        let weights = [-1.0, 1.0, 0.5];
        let (quantized, params) = quantize_weights_bits(&weights, 8);
        assert_eq!(quantized[0], -127);
        assert_eq!(quantized[1], 127);
        assert!(params.scale < QuantizationParams::symmetric_for_bits(&weights, 4).scale);
        let activations = [0.0, 1.0, 0.25];
        let mut quantized = Vec::new();
        quantize_activations_bits_into(&activations, 8, &mut quantized);
        assert_eq!(quantized[1], 255);
    }
}
