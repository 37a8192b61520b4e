//! Numeric foundations for the OPTIMA reproduction.
//!
//! The OPTIMA modeling framework ([`optima-core`]) fits low-degree polynomial
//! models to circuit-simulation data and evaluates them inside a fast
//! discrete-time simulator.  This crate provides all numeric machinery those
//! steps need, implemented from scratch so the workspace stays within the
//! small set of approved dependencies:
//!
//! * [`polynomial`] — dense univariate polynomials with Horner evaluation
//!   (scalar and batched).
//! * [`gemm`] — cache-blocked `f32` GEMM/GEMV kernels backing the DNN
//!   inference hot path in `optima_dnn`.
//! * [`linalg`] — a small dense matrix and its Householder-QR least-squares
//!   solver.
//! * [`lsq`] — univariate polynomial fits and separable two-variable
//!   `p_a(x) · p_b(y)` fits, exactly the shapes required by the paper's
//!   Eqs. 3–8.
//! * [`stats`] — mean, standard deviation, RMS, min and max.
//! * [`distributions`] — Gaussian sampling used for transistor mismatch
//!   Monte Carlo.
//! * [`seed`] — SplitMix64 seed-stream derivation shared by the sweep
//!   engine, Monte-Carlo sampling and the defect-map sampler.
//! * [`interp`] — linear interpolation over sampled waveforms.
//! * [`units`] — `Volts`, `Seconds`, `Celsius`, … newtypes that keep the
//!   analog quantities in the rest of the workspace type-safe.
//!
//! # Example
//!
//! Fit a quadratic to noisy samples and evaluate it:
//!
//! ```rust
//! # fn main() -> Result<(), optima_math::MathError> {
//! use optima_math::lsq::polynomial_fit;
//!
//! let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 1.0 + 2.0 * x - 0.5 * x * x).collect();
//! let poly = polynomial_fit(&xs, &ys, 2)?;
//! assert!((poly.eval(1.0) - 2.5).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod distributions;
pub mod error;
pub mod gemm;
pub mod interp;
pub mod linalg;
pub mod lsq;
pub mod polynomial;
pub mod seed;
pub mod stats;
pub mod units;

pub use error::MathError;
pub use linalg::{Matrix, Vector};
pub use polynomial::Polynomial;
