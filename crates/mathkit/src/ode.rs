//! Ordinary-differential-equation integrators.
//!
//! The golden-reference circuit simulator in `optima-circuit` integrates the
//! bit-line node equation `C · dV/dt = −I(V, t)` over time.  The paper's whole
//! point is that this (slow but accurate) integration can be replaced by
//! cheap polynomial models; we therefore need a solid reference integrator to
//! (a) produce calibration data and (b) measure the speed-up against.

use crate::error::MathError;
use serde::{Deserialize, Serialize};

/// A single `(time, state)` sample of an ODE solution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OdeSample {
    /// Time of the sample.
    pub time: f64,
    /// State vector at that time.
    pub state: Vec<f64>,
}

/// Full trajectory produced by an integrator.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OdeSolution {
    /// Chronologically ordered samples, the first being the initial condition.
    pub samples: Vec<OdeSample>,
    /// Number of derivative evaluations performed (a proxy for simulation cost).
    pub derivative_evaluations: usize,
}

impl OdeSolution {
    /// Times of all samples.
    pub fn times(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.time).collect()
    }

    /// The `i`-th state component over time.
    ///
    /// # Panics
    ///
    /// Panics if any sample has fewer than `i + 1` components.
    pub fn component(&self, i: usize) -> Vec<f64> {
        self.samples.iter().map(|s| s.state[i]).collect()
    }

    /// The final state, if any integration step was produced.
    pub fn final_state(&self) -> Option<&[f64]> {
        self.samples.last().map(|s| s.state.as_slice())
    }
}

/// Integrates `dy/dt = f(t, y)` with the classic fixed-step fourth-order
/// Runge–Kutta method.
///
/// # Errors
///
/// Returns [`MathError::InvalidArgument`] if `t_end <= t_start`, `steps == 0`
/// or the initial state is empty.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), optima_math::MathError> {
/// use optima_math::ode::rk4;
///
/// // dy/dt = -y, y(0) = 1  =>  y(1) = e^-1
/// let sol = rk4(|_t, y, dy| dy[0] = -y[0], &[1.0], 0.0, 1.0, 100)?;
/// let y_end = sol.final_state().expect("solution exists")[0];
/// assert!((y_end - (-1.0f64).exp()).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn rk4<F>(
    mut f: F,
    y0: &[f64],
    t_start: f64,
    t_end: f64,
    steps: usize,
) -> Result<OdeSolution, MathError>
where
    F: FnMut(f64, &[f64], &mut [f64]),
{
    if t_end <= t_start {
        return Err(MathError::InvalidArgument {
            context: format!("integration interval [{t_start}, {t_end}] is empty"),
        });
    }
    if steps == 0 {
        return Err(MathError::InvalidArgument {
            context: "rk4 requires at least one step".to_string(),
        });
    }
    if y0.is_empty() {
        return Err(MathError::InvalidArgument {
            context: "initial state must not be empty".to_string(),
        });
    }

    let n = y0.len();
    let h = (t_end - t_start) / steps as f64;
    let mut y = y0.to_vec();
    let mut t = t_start;
    let mut evals = 0usize;

    let mut samples = Vec::with_capacity(steps + 1);
    samples.push(OdeSample {
        time: t,
        state: y.clone(),
    });

    let mut k1 = vec![0.0; n];
    let mut k2 = vec![0.0; n];
    let mut k3 = vec![0.0; n];
    let mut k4 = vec![0.0; n];
    let mut scratch = vec![0.0; n];

    for _ in 0..steps {
        f(t, &y, &mut k1);
        for i in 0..n {
            scratch[i] = y[i] + 0.5 * h * k1[i];
        }
        f(t + 0.5 * h, &scratch, &mut k2);
        for i in 0..n {
            scratch[i] = y[i] + 0.5 * h * k2[i];
        }
        f(t + 0.5 * h, &scratch, &mut k3);
        for i in 0..n {
            scratch[i] = y[i] + h * k3[i];
        }
        f(t + h, &scratch, &mut k4);
        evals += 4;

        for i in 0..n {
            y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        t += h;
        samples.push(OdeSample {
            time: t,
            state: y.clone(),
        });
    }

    Ok(OdeSolution {
        samples,
        derivative_evaluations: evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rk4_solves_exponential_decay() {
        let sol = rk4(|_t, y, dy| dy[0] = -2.0 * y[0], &[1.0], 0.0, 1.0, 200).unwrap();
        let y_end = sol.final_state().unwrap()[0];
        assert!((y_end - (-2.0f64).exp()).abs() < 1e-9);
        assert_eq!(sol.samples.len(), 201);
        assert_eq!(sol.derivative_evaluations, 800);
    }

    #[test]
    fn rk4_solves_harmonic_oscillator() {
        // y'' = -y as a 2-state system; after 2π the state returns to the start.
        let two_pi = 2.0 * std::f64::consts::PI;
        let sol = rk4(
            |_t, y, dy| {
                dy[0] = y[1];
                dy[1] = -y[0];
            },
            &[1.0, 0.0],
            0.0,
            two_pi,
            2000,
        )
        .unwrap();
        let end = sol.final_state().unwrap();
        assert!((end[0] - 1.0).abs() < 1e-6);
        assert!(end[1].abs() < 1e-6);
    }

    #[test]
    fn rk4_validates_arguments() {
        assert!(rk4(|_t, _y, _dy| {}, &[1.0], 1.0, 0.0, 10).is_err());
        assert!(rk4(|_t, _y, _dy| {}, &[1.0], 0.0, 1.0, 0).is_err());
        assert!(rk4(|_t, _y, _dy| {}, &[], 0.0, 1.0, 10).is_err());
    }

    #[test]
    fn solution_accessors() {
        let sol = rk4(|_t, y, dy| dy[0] = -y[0], &[1.0], 0.0, 1.0, 4).unwrap();
        assert_eq!(sol.times().len(), 5);
        assert_eq!(sol.component(0).len(), 5);
        assert!(sol.component(0)[4] < 1.0);
    }
}
