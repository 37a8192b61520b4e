//! Least-squares fitting of polynomial models.
//!
//! The OPTIMA models of paper Eqs. 3–8 are all of one of two shapes:
//!
//! 1. a univariate polynomial `p_n(x)` (write energy, supply-voltage factor,
//!    temperature coefficient), fitted with [`polynomial_fit`], or
//! 2. a *separable* product of two univariate polynomials
//!    `p_a(x) · p_b(y)` (discharge `p4(Vod)·p2(t)`, mismatch `p3(t)·p3(VWL)`),
//!    fitted with [`SeparableFit`].

use crate::error::MathError;
use crate::linalg::Matrix;
use crate::polynomial::Polynomial;
use crate::stats;
use serde::{Deserialize, Serialize};

/// Fits a univariate polynomial of the given degree to `(xs, ys)` samples.
///
/// # Errors
///
/// * [`MathError::DimensionMismatch`] if `xs.len() != ys.len()`.
/// * [`MathError::InsufficientData`] if fewer than `degree + 1` samples are given.
/// * [`MathError::SingularMatrix`] if the sample abscissae are degenerate.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), optima_math::MathError> {
/// use optima_math::lsq::polynomial_fit;
/// let xs = [0.0, 1.0, 2.0, 3.0];
/// let ys = [1.0, 3.0, 5.0, 7.0];
/// let line = polynomial_fit(&xs, &ys, 1)?;
/// assert!((line.eval(10.0) - 21.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn polynomial_fit(xs: &[f64], ys: &[f64], degree: usize) -> Result<Polynomial, MathError> {
    if xs.len() != ys.len() {
        return Err(MathError::DimensionMismatch {
            left: xs.len(),
            right: ys.len(),
        });
    }
    let coeff_count = degree + 1;
    if xs.len() < coeff_count {
        return Err(MathError::InsufficientData {
            samples: xs.len(),
            coefficients: coeff_count,
        });
    }
    let design = Matrix::from_fn(xs.len(), coeff_count, |i, j| xs[i].powi(j as i32));
    let coeffs = design.solve_least_squares(ys)?;
    Ok(Polynomial::new(coeffs))
}

/// A separable two-factor fit `f(x, y) ≈ p_a(x) · p_b(y)`, obtained by
/// alternating least squares.
///
/// The paper's Eq. 3 (`p4(Vod) · p2(t)`) and Eq. 6 (`p3(t) · p3(VWL)`) have
/// exactly this shape.  Because the product of the two factors is only
/// determined up to a scalar, the second factor is normalised so that its
/// largest-magnitude coefficient is `1.0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeparableFit {
    factor_x: Polynomial,
    factor_y: Polynomial,
    iterations: usize,
    residual_rms: f64,
}

impl SeparableFit {
    /// Fits `z ≈ p_a(x) · p_b(y)` with the given factor degrees.
    ///
    /// # Errors
    ///
    /// Propagates fit errors from the inner least-squares solves and rejects
    /// sample vectors of differing lengths.
    pub fn fit(
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        degree_x: usize,
        degree_y: usize,
        iterations: usize,
    ) -> Result<Self, MathError> {
        if xs.len() != ys.len() || xs.len() != zs.len() {
            return Err(MathError::DimensionMismatch {
                left: xs.len(),
                right: ys.len().min(zs.len()),
            });
        }
        if xs.is_empty() {
            return Err(MathError::InsufficientData {
                samples: 0,
                coefficients: degree_x + degree_y + 2,
            });
        }

        // Initialise the y-factor to the constant 1 and alternate:
        //   fix p_b, fit p_a by weighted LSQ; fix p_a, fit p_b; repeat.
        let mut factor_y = Polynomial::constant(1.0);
        let mut factor_x = Polynomial::constant(1.0);
        let mut performed = 0;
        for _ in 0..iterations.max(1) {
            factor_x = fit_factor(xs, ys, zs, &factor_y, degree_x)?;
            factor_y = fit_factor(ys, xs, zs, &factor_x, degree_y)?;
            performed += 1;
        }
        // Normalise: push the scale into factor_x.
        let scale = factor_y.coeffs().iter().cloned().fold(0.0_f64, |acc, c| {
            if c.abs() > acc.abs() {
                c
            } else {
                acc
            }
        });
        if scale.abs() > 1e-300 {
            factor_y = factor_y.scale(1.0 / scale);
            factor_x = factor_x.scale(scale);
        }

        let residuals: Vec<f64> = xs
            .iter()
            .zip(ys.iter())
            .zip(zs.iter())
            .map(|((&x, &y), &z)| z - factor_x.eval(x) * factor_y.eval(y))
            .collect();
        Ok(SeparableFit {
            factor_x,
            factor_y,
            iterations: performed,
            residual_rms: stats::rms(&residuals),
        })
    }

    /// The factor polynomial in the first variable.
    pub fn factor_x(&self) -> &Polynomial {
        &self.factor_x
    }

    /// The factor polynomial in the second variable.
    pub fn factor_y(&self) -> &Polynomial {
        &self.factor_y
    }

    /// Number of alternating-least-squares iterations performed.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// RMS of the training residuals.
    pub fn residual_rms(&self) -> f64 {
        self.residual_rms
    }

    /// Evaluates the separable model at `(x, y)`.
    pub fn eval(&self, x: f64, y: f64) -> f64 {
        self.factor_x.eval(x) * self.factor_y.eval(y)
    }
}

/// Fits the polynomial `p` in `primary` such that `p(primary) * other_poly(secondary) ≈ z`.
fn fit_factor(
    primary: &[f64],
    secondary: &[f64],
    zs: &[f64],
    other_poly: &Polynomial,
    degree: usize,
) -> Result<Polynomial, MathError> {
    let coeff_count = degree + 1;
    if primary.len() < coeff_count {
        return Err(MathError::InsufficientData {
            samples: primary.len(),
            coefficients: coeff_count,
        });
    }
    let design = Matrix::from_fn(primary.len(), coeff_count, |i, j| {
        other_poly.eval(secondary[i]) * primary[i].powi(j as i32)
    });
    let coeffs = design.solve_least_squares(zs)?;
    Ok(Polynomial::new(coeffs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_slope_and_intercept() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -0.3 + 1.7 * x).collect();
        let p = polynomial_fit(&xs, &ys, 1).unwrap();
        assert!((p.coeffs()[0] + 0.3).abs() < 1e-10);
        assert!((p.coeffs()[1] - 1.7).abs() < 1e-10);
    }

    #[test]
    fn quartic_fit_is_exact_on_quartic_data() {
        let truth = Polynomial::new(vec![0.2, -1.0, 0.5, 0.1, -0.02]);
        let xs: Vec<f64> = (0..40).map(|i| -2.0 + i as f64 * 0.1).collect();
        let ys = truth.eval_many(&xs);
        let p = polynomial_fit(&xs, &ys, 4).unwrap();
        for (a, b) in p.coeffs().iter().zip(truth.coeffs()) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn fit_rejects_insufficient_samples() {
        assert!(matches!(
            polynomial_fit(&[1.0, 2.0], &[1.0, 2.0], 2).unwrap_err(),
            MathError::InsufficientData { .. }
        ));
    }

    #[test]
    fn fit_rejects_mismatched_lengths() {
        assert!(matches!(
            polynomial_fit(&[1.0, 2.0, 3.0], &[1.0, 2.0], 1).unwrap_err(),
            MathError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn separable_fit_recovers_product_structure() {
        // z = (0.5 + x^2) * (2 - y)
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut zs = Vec::new();
        for i in 0..15 {
            for j in 0..15 {
                let x = -1.0 + i as f64 * 0.15;
                let y = j as f64 * 0.1;
                xs.push(x);
                ys.push(y);
                zs.push((0.5 + x * x) * (2.0 - y));
            }
        }
        let fit = SeparableFit::fit(&xs, &ys, &zs, 2, 1, 8).unwrap();
        assert!(fit.residual_rms() < 1e-8, "rms = {}", fit.residual_rms());
        assert!((fit.eval(0.3, 0.7) - (0.5 + 0.09) * 1.3).abs() < 1e-6);
        assert!(fit.iterations() >= 1);
    }

    #[test]
    fn separable_fit_rejects_empty_and_mismatched_input() {
        assert!(SeparableFit::fit(&[], &[], &[], 1, 1, 3).is_err());
        assert!(SeparableFit::fit(&[1.0], &[1.0, 2.0], &[1.0], 1, 1, 3).is_err());
    }
}
