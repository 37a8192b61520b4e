//! Small dense linear algebra: a row-major matrix and a Householder-QR
//! least-squares solver.
//!
//! The least-squares fits used by OPTIMA involve design matrices with at most
//! a few thousand rows and a handful of columns, so a straightforward dense
//! implementation is more than adequate and keeps the dependency set minimal.

use crate::error::MathError;
use serde::{Deserialize, Serialize};
use std::ops::{Index, IndexMut};

/// A dense column vector of `f64`.
pub type Vector = Vec<f64>;

/// A dense row-major matrix of `f64`.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), optima_math::MathError> {
/// use optima_math::Matrix;
///
/// // Fit y = 1 + 2x through three consistent samples.
/// let xs = [0.0, 1.0, 2.0];
/// let a = Matrix::from_fn(3, 2, |i, j| if j == 0 { 1.0 } else { xs[i] });
/// let x = a.solve_least_squares(&[1.0, 3.0, 5.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a closure evaluated at every `(row, col)` index.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Solves the least-squares problem `min ||A x - b||` via Householder QR.
    ///
    /// Works for over-determined systems (`rows >= cols`), which is the shape
    /// of every fit performed by the OPTIMA calibration pipeline.
    ///
    /// # Errors
    ///
    /// * [`MathError::InsufficientData`] if `rows < cols`.
    /// * [`MathError::DimensionMismatch`] if `b.len() != rows`.
    /// * [`MathError::SingularMatrix`] if the columns are linearly dependent.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vector, MathError> {
        if self.rows < self.cols {
            return Err(MathError::InsufficientData {
                samples: self.rows,
                coefficients: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(MathError::DimensionMismatch {
                left: self.rows,
                right: b.len(),
            });
        }
        let m = self.rows;
        let n = self.cols;
        let mut r = self.data.clone();
        let mut rhs = b.to_vec();

        // Householder QR: transform A -> R in place, applying the same
        // reflections to the right-hand side.
        for col in 0..n {
            let mut norm = 0.0;
            for row in col..m {
                norm += r[row * n + col] * r[row * n + col];
            }
            let norm = norm.sqrt();
            if norm < 1e-300 {
                return Err(MathError::SingularMatrix);
            }
            let alpha = if r[col * n + col] > 0.0 { -norm } else { norm };
            let mut v = vec![0.0; m];
            v[col] = r[col * n + col] - alpha;
            for row in (col + 1)..m {
                v[row] = r[row * n + col];
            }
            let vtv: f64 = v[col..].iter().map(|x| x * x).sum();
            if vtv < 1e-300 {
                continue;
            }

            // Apply H = I - 2 v v^T / (v^T v) to the remaining columns of R.
            for j in col..n {
                let dot: f64 = (col..m).map(|row| v[row] * r[row * n + j]).sum();
                let scale = 2.0 * dot / vtv;
                for row in col..m {
                    r[row * n + j] -= scale * v[row];
                }
            }
            // And to the right-hand side.
            let dot: f64 = (col..m).map(|row| v[row] * rhs[row]).sum();
            let scale = 2.0 * dot / vtv;
            for row in col..m {
                rhs[row] -= scale * v[row];
            }
        }

        // Back substitution on the upper-triangular system R x = Q^T b.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = rhs[i];
            for k in (i + 1)..n {
                sum -= r[i * n + k] * x[k];
            }
            let diag = r[i * n + i];
            if diag.abs() < 1e-12 {
                return Err(MathError::SingularMatrix);
            }
            x[i] = sum / diag;
        }
        Ok(x)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_squares_recovers_exact_solution_when_consistent() {
        // Overdetermined but consistent: y = 1 + 2x sampled at 5 points.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let a = Matrix::from_fn(5, 2, |i, j| if j == 0 { 1.0 } else { xs[i] });
        let b: Vec<f64> = xs.iter().map(|x| 1.0 + 2.0 * x).collect();
        let sol = a.solve_least_squares(&b).unwrap();
        assert!((sol[0] - 1.0).abs() < 1e-10);
        assert!((sol[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn least_squares_minimises_residual() {
        // Inconsistent system: best fit of a constant to [0, 1, 2] is 1.
        let a = Matrix::from_fn(3, 1, |_, _| 1.0);
        let sol = a.solve_least_squares(&[0.0, 1.0, 2.0]).unwrap();
        assert!((sol[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_rejects_underdetermined() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.solve_least_squares(&[0.0, 0.0]).unwrap_err(),
            MathError::InsufficientData { .. }
        ));
    }
}
