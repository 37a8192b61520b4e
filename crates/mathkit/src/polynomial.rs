//! Dense univariate polynomials.
//!
//! The OPTIMA discharge and energy models (paper Eqs. 3–8) are built from
//! low-degree polynomials `p_n(X)`; this module provides the polynomial type
//! those models store and evaluate.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense univariate polynomial with `f64` coefficients.
///
/// Coefficients are stored in ascending-power order:
/// `coeffs[k]` multiplies `x^k`.
///
/// # Example
///
/// ```rust
/// use optima_math::Polynomial;
///
/// // 1 + 2x + 3x^2
/// let p = Polynomial::new(vec![1.0, 2.0, 3.0]);
/// assert_eq!(p.eval(2.0), 17.0);
/// assert_eq!(p.degree(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial from coefficients in ascending-power order.
    ///
    /// An empty coefficient list produces the zero polynomial.
    pub fn new(coeffs: Vec<f64>) -> Self {
        let mut poly = Polynomial { coeffs };
        poly.trim();
        poly
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial { coeffs: vec![0.0] }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: f64) -> Self {
        Polynomial { coeffs: vec![c] }
    }

    /// The identity polynomial `x`.
    pub fn identity() -> Self {
        Polynomial {
            coeffs: vec![0.0, 1.0],
        }
    }

    /// Returns the coefficients in ascending-power order.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Degree of the polynomial (the zero polynomial has degree 0).
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Returns `true` if every coefficient is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0.0)
    }

    /// Evaluates the polynomial at `x` using Horner's scheme.
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs
            .iter()
            .rev()
            .fold(0.0, |acc, &c| acc.mul_add(x, c))
    }

    /// Evaluates the polynomial at every point of `xs`.
    ///
    /// Bit-identical to calling [`Polynomial::eval`] per point (see
    /// [`Polynomial::eval_many_into`]).
    pub fn eval_many(&self, xs: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; xs.len()];
        self.eval_many_into(xs, &mut out);
        out
    }

    /// Evaluates the polynomial at every point of `xs` into `out`.
    ///
    /// This is the batched Horner kernel of the analog hot path: points are
    /// processed in blocks of [`Polynomial::EVAL_LANES`] with the coefficient
    /// loop outermost, so the per-point accumulator updates vectorise across
    /// the block.  Every point still performs exactly the same `mul_add`
    /// sequence as [`Polynomial::eval`] (same order, same seed value), so the
    /// results are bit-identical to the scalar path for all inputs,
    /// including NaN and infinities.
    ///
    /// # Panics
    ///
    /// Panics when `xs` and `out` have different lengths.
    // The batched Horner kernels evaluate millions of points per DSE sweep;
    // R4 forbids allocation in this region.
    // optima-lint: hot
    pub fn eval_many_into(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(
            xs.len(),
            out.len(),
            "eval_many_into needs one output slot per point"
        );
        let mut chunks = xs.chunks_exact(Self::EVAL_LANES);
        let mut out_chunks = out.chunks_exact_mut(Self::EVAL_LANES);
        for (chunk, out_chunk) in (&mut chunks).zip(&mut out_chunks) {
            let mut acc = [0.0_f64; Self::EVAL_LANES];
            for &c in self.coeffs.iter().rev() {
                for (a, &x) in acc.iter_mut().zip(chunk) {
                    *a = a.mul_add(x, c);
                }
            }
            out_chunk.copy_from_slice(&acc);
        }
        for (o, &x) in out_chunks
            .into_remainder()
            .iter_mut()
            .zip(chunks.remainder())
        {
            *o = self.eval(x);
        }
    }

    /// Evaluates the polynomial at every point of `xs`, overwriting each
    /// point with its value (the allocation-free variant used by the batched
    /// model fills).  Bit-identical to the scalar path, like
    /// [`Polynomial::eval_many_into`].
    pub fn eval_many_in_place(&self, xs: &mut [f64]) {
        let mut chunks = xs.chunks_exact_mut(Self::EVAL_LANES);
        for chunk in &mut chunks {
            let mut acc = [0.0_f64; Self::EVAL_LANES];
            for &c in self.coeffs.iter().rev() {
                for (a, &x) in acc.iter_mut().zip(chunk.iter()) {
                    *a = a.mul_add(x, c);
                }
            }
            chunk.copy_from_slice(&acc);
        }
        for x in chunks.into_remainder() {
            *x = self.eval(*x);
        }
    }
    // optima-lint: end-hot

    /// Block width of the batched Horner evaluation.
    pub const EVAL_LANES: usize = 8;

    /// Scales every coefficient by `factor`.
    pub fn scale(&self, factor: f64) -> Polynomial {
        Polynomial::new(self.coeffs.iter().map(|&c| c * factor).collect())
    }

    fn trim(&mut self) {
        while self.coeffs.len() > 1 && self.coeffs.last() == Some(&0.0) {
            self.coeffs.pop();
        }
        if self.coeffs.is_empty() {
            self.coeffs.push(0.0);
        }
    }
}

impl Default for Polynomial {
    fn default() -> Self {
        Polynomial::zero()
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, &c) in self.coeffs.iter().enumerate() {
            if c == 0.0 && self.coeffs.len() > 1 {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            match k {
                0 => write!(f, "{c}")?,
                1 => write!(f, "{c}*x")?,
                _ => write!(f, "{c}*x^{k}")?,
            }
            first = false;
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horner_matches_naive_evaluation() {
        let p = Polynomial::new(vec![1.0, -2.0, 0.5, 3.0]);
        for x in [-2.0, -0.5, 0.0, 0.3, 1.7] {
            let naive = 1.0 - 2.0 * x + 0.5 * x * x + 3.0 * x * x * x;
            assert!((p.eval(x) - naive).abs() < 1e-12);
        }
    }

    #[test]
    fn trailing_zero_coefficients_are_trimmed() {
        let p = Polynomial::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), 1);
        assert_eq!(p.coeffs(), &[1.0, 2.0]);
    }

    #[test]
    fn display_formats_nonzero_terms() {
        let p = Polynomial::new(vec![1.0, 0.0, 2.0]);
        assert_eq!(p.to_string(), "1 + 2*x^2");
        assert_eq!(Polynomial::zero().to_string(), "0");
    }

    #[test]
    fn zero_polynomial_properties() {
        let z = Polynomial::zero();
        assert!(z.is_zero());
        assert_eq!(z.degree(), 0);
        assert_eq!(z.eval(123.0), 0.0);
    }

    #[test]
    fn eval_many_matches_eval() {
        let p = Polynomial::new(vec![0.5, 1.5]);
        let xs = [0.0, 1.0, 2.0];
        assert_eq!(p.eval_many(&xs), vec![0.5, 2.0, 3.5]);
    }

    #[test]
    fn batched_eval_is_bit_identical_to_scalar_eval() {
        // Lengths around the block width exercise both the blocked kernel
        // and the remainder loop.
        let p = Polynomial::new(vec![0.17, -2.3, 0.031, 1.9, -0.44]);
        for len in [0, 1, 7, 8, 9, 16, 33] {
            let xs: Vec<f64> = (0..len).map(|i| -1.3 + 0.37 * i as f64).collect();
            let expected: Vec<f64> = xs.iter().map(|&x| p.eval(x)).collect();
            let batched = p.eval_many(&xs);
            assert_eq!(
                expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                batched.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "len = {len}"
            );
            let mut in_place = xs.clone();
            p.eval_many_in_place(&mut in_place);
            assert_eq!(batched, in_place, "len = {len}");
        }
    }

    #[test]
    fn batched_eval_propagates_non_finite_inputs_like_scalar_eval() {
        let constant = Polynomial::constant(2.5);
        let xs = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0];
        let batched = constant.eval_many(&xs);
        for (&x, &v) in xs.iter().zip(&batched) {
            let scalar = constant.eval(x);
            assert_eq!(scalar.to_bits(), v.to_bits(), "x = {x}");
        }
    }

    #[test]
    #[should_panic(expected = "one output slot per point")]
    fn eval_many_into_rejects_mismatched_lengths() {
        let p = Polynomial::identity();
        let mut out = [0.0; 2];
        p.eval_many_into(&[1.0, 2.0, 3.0], &mut out);
    }
}
