//! Transistor-mismatch model (paper Eq. 6).
//!
//! Mismatch causes Gaussian variations of the bit-line voltage whose standard
//! deviation is modeled as `σ(t, V_WL) = p3(t) · p3(V_WL)`.  During
//! behavioural simulation the Gaussian with this σ is sampled for each
//! discharge, exactly as described in Section IV-C of the paper.

use crate::model::to_nanoseconds;
use optima_math::distributions::Gaussian;
use optima_math::units::{Seconds, Volts};
use optima_math::Polynomial;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The Eq. 6 mismatch-σ model.
///
/// # Example
///
/// ```rust
/// use optima_core::model::mismatch::MismatchSigmaModel;
/// use optima_math::Polynomial;
/// use optima_math::units::{Seconds, Volts};
///
/// // σ = 1 mV · t[ns] · V_WL
/// let model = MismatchSigmaModel::new(
///     Polynomial::new(vec![0.0, 1e-3]),
///     Polynomial::new(vec![0.0, 1.0]),
/// );
/// let sigma = model.sigma(Seconds(1e-9), Volts(0.8));
/// assert!((sigma.0 - 0.8e-3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MismatchSigmaModel {
    /// `p3(t)` — time factor (argument in nanoseconds).
    factor_time: Polynomial,
    /// `p3(V_WL)` — word-line voltage factor.
    factor_wordline: Polynomial,
}

impl MismatchSigmaModel {
    /// Builds the model from its two fitted factors.
    pub fn new(factor_time: Polynomial, factor_wordline: Polynomial) -> Self {
        MismatchSigmaModel {
            factor_time,
            factor_wordline,
        }
    }

    /// A model with zero mismatch everywhere.
    pub fn zero() -> Self {
        MismatchSigmaModel {
            factor_time: Polynomial::zero(),
            factor_wordline: Polynomial::zero(),
        }
    }

    /// The fitted time factor.
    pub fn factor_time(&self) -> &Polynomial {
        &self.factor_time
    }

    /// The fitted word-line factor.
    pub fn factor_wordline(&self) -> &Polynomial {
        &self.factor_wordline
    }

    /// Standard deviation of the bit-line voltage at `(t, V_WL)`.
    ///
    /// Negative products (possible outside the calibrated domain) are clamped
    /// to zero, since a standard deviation cannot be negative.  A NaN product
    /// (a broken fit, or `inf · 0`) is returned as NaN, so callers that
    /// reject a non-finite σ see it instead of a silent "no mismatch".
    pub fn sigma(&self, time: Seconds, word_line: Volts) -> Volts {
        let t_ns = to_nanoseconds(time.0);
        let sigma = self.factor_time.eval(t_ns) * self.factor_wordline.eval(word_line.0);
        if sigma.is_nan() {
            return Volts(sigma);
        }
        Volts(sigma.max(0.0))
    }

    /// Draws one Gaussian deviation sample for a discharge at `(t, V_WL)`.
    ///
    /// # Panics
    ///
    /// Panics if the σ at `(t, V_WL)` is not finite (see [`Gaussian::new`]).
    pub fn sample_deviation<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        time: Seconds,
        word_line: Volts,
    ) -> Volts {
        let sigma = self.sigma(time, word_line);
        if sigma.0 == 0.0 {
            return Volts(0.0);
        }
        Volts(Gaussian::new(0.0, sigma.0).sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optima_math::stats;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy_model() -> MismatchSigmaModel {
        MismatchSigmaModel::new(
            Polynomial::new(vec![0.0, 2e-3]),
            Polynomial::new(vec![0.0, 1.0]),
        )
    }

    #[test]
    fn sigma_grows_with_time_and_wordline() {
        // Fig. 5d: the mismatch-induced deviation grows with the applied WL voltage.
        let model = toy_model();
        let s_small = model.sigma(Seconds(0.2e-9), Volts(0.5)).0;
        let s_time = model.sigma(Seconds(1.0e-9), Volts(0.5)).0;
        let s_vwl = model.sigma(Seconds(0.2e-9), Volts(1.0)).0;
        assert!(s_time > s_small);
        assert!(s_vwl > s_small);
    }

    #[test]
    fn sigma_is_never_negative() {
        let model =
            MismatchSigmaModel::new(Polynomial::new(vec![-1.0]), Polynomial::new(vec![1.0]));
        assert_eq!(model.sigma(Seconds(1e-9), Volts(0.8)).0, 0.0);
    }

    #[test]
    fn nan_sigma_is_not_clamped_to_zero() {
        let model =
            MismatchSigmaModel::new(Polynomial::new(vec![f64::NAN]), Polynomial::new(vec![1.0]));
        assert!(model.sigma(Seconds(1e-9), Volts(0.8)).0.is_nan());
        // `inf · 0` is NaN as well.
        let model = MismatchSigmaModel::new(
            Polynomial::new(vec![f64::INFINITY]),
            Polynomial::new(vec![0.0, 1.0]),
        );
        assert!(model.sigma(Seconds(1e-9), Volts(0.0)).0.is_nan());
    }

    #[test]
    fn zero_model_produces_zero_samples() {
        let model = MismatchSigmaModel::zero();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(
            model
                .sample_deviation(&mut rng, Seconds(1e-9), Volts(0.8))
                .0,
            0.0
        );
    }

    #[test]
    fn sample_statistics_match_sigma() {
        let model = toy_model();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let sigma = model.sigma(Seconds(1e-9), Volts(0.8)).0;
        let samples: Vec<f64> = (0..20_000)
            .map(|_| {
                model
                    .sample_deviation(&mut rng, Seconds(1e-9), Volts(0.8))
                    .0
            })
            .collect();
        assert!(stats::mean(&samples).abs() < sigma * 0.05);
        assert!((stats::std_dev(&samples) - sigma).abs() < sigma * 0.05);
    }

    #[test]
    fn accessors_expose_factors() {
        let model = toy_model();
        assert_eq!(model.factor_time().degree(), 1);
        assert_eq!(model.factor_wordline().degree(), 1);
    }
}
