//! Transistor-mismatch Monte Carlo sampling.
//!
//! Local (random) process variation is modeled as independent Gaussian
//! perturbations of the access-transistor threshold voltage and
//! transconductance.  Fig. 5d of the paper shows 1000 such samples; the
//! mismatch model of OPTIMA (Eq. 6) is fitted against exactly this kind of
//! sweep.

use crate::technology::Technology;
use optima_math::distributions::Gaussian;
use optima_math::units::Volts;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One sampled mismatch realisation applied to a device.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MismatchSample {
    /// Threshold-voltage deviation of the device.
    pub delta_vth: Volts,
    /// Relative transconductance deviation (`Δβ / β`).
    pub delta_beta_rel: f64,
}

impl MismatchSample {
    /// The mismatch-free (nominal) sample.
    pub fn none() -> Self {
        MismatchSample::default()
    }
}

/// Gaussian mismatch model of a technology.
///
/// # Example
///
/// ```rust
/// use optima_circuit::prelude::*;
///
/// let tech = Technology::tsmc65_like();
/// let model = MismatchModel::from_technology(&tech);
/// let samples = model.sample_n(1000, 42);
/// assert_eq!(samples.len(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MismatchModel {
    vth_sigma: Volts,
    beta_sigma_rel: f64,
}

impl MismatchModel {
    /// Builds the mismatch model from a technology's matching figures.
    pub fn from_technology(tech: &Technology) -> Self {
        MismatchModel {
            vth_sigma: tech.sigma_vth_mismatch,
            beta_sigma_rel: tech.sigma_beta_mismatch,
        }
    }

    /// Creates a model with explicit sigmas.
    ///
    /// # Panics
    ///
    /// Panics if either sigma is negative.
    pub fn new(vth_sigma: Volts, beta_sigma_rel: f64) -> Self {
        assert!(vth_sigma.0 >= 0.0, "vth sigma must be non-negative");
        assert!(beta_sigma_rel >= 0.0, "beta sigma must be non-negative");
        MismatchModel {
            vth_sigma,
            beta_sigma_rel,
        }
    }

    /// One-sigma threshold-voltage mismatch.
    pub fn vth_sigma(&self) -> Volts {
        self.vth_sigma
    }

    /// One-sigma relative transconductance mismatch.
    pub fn beta_sigma_rel(&self) -> f64 {
        self.beta_sigma_rel
    }

    /// Draws a single mismatch sample from the provided RNG.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> MismatchSample {
        let vth_dist = Gaussian::new(0.0, self.vth_sigma.0);
        let beta_dist = Gaussian::new(0.0, self.beta_sigma_rel);
        MismatchSample {
            delta_vth: Volts(vth_dist.sample(rng)),
            // Clamp so that beta never becomes negative even in extreme tails.
            delta_beta_rel: beta_dist.sample(rng).max(-0.9),
        }
    }

    /// Draws `n` samples from a deterministic, seeded RNG.
    pub fn sample_n(&self, n: usize, seed: u64) -> Vec<MismatchSample> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optima_math::stats;

    #[test]
    fn nominal_sample_is_zero() {
        let nominal = MismatchSample::none();
        assert_eq!(nominal.delta_vth, Volts(0.0));
        assert_eq!(nominal.delta_beta_rel, 0.0);
    }

    #[test]
    fn sample_statistics_match_model_sigmas() {
        let tech = Technology::tsmc65_like();
        let model = MismatchModel::from_technology(&tech);
        let samples = model.sample_n(20_000, 7);
        let vths: Vec<f64> = samples.iter().map(|s| s.delta_vth.0).collect();
        let betas: Vec<f64> = samples.iter().map(|s| s.delta_beta_rel).collect();
        assert!((stats::mean(&vths)).abs() < 1e-3);
        assert!((stats::std_dev(&vths) - model.vth_sigma().0).abs() < 0.1 * model.vth_sigma().0);
        assert!(
            (stats::std_dev(&betas) - model.beta_sigma_rel()).abs() < 0.1 * model.beta_sigma_rel()
        );
    }

    #[test]
    fn sampling_is_reproducible_for_equal_seeds() {
        let model = MismatchModel::new(Volts(0.01), 0.02);
        assert_eq!(model.sample_n(16, 3), model.sample_n(16, 3));
        assert_ne!(model.sample_n(16, 3), model.sample_n(16, 4));
    }

    #[test]
    fn beta_deviation_never_reaches_minus_one() {
        let model = MismatchModel::new(Volts(0.0), 5.0);
        let samples = model.sample_n(5000, 11);
        assert!(samples.iter().all(|s| s.delta_beta_rel > -1.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_is_rejected() {
        let _ = MismatchModel::new(Volts(-0.01), 0.0);
    }
}
