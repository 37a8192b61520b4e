//! Random-number helpers for Monte Carlo analyses.
//!
//! Transistor mismatch is modeled in the paper as Gaussian variation of the
//! bit-line voltage (Eq. 6) and of the device parameters in the
//! golden-reference simulator.  All sampling goes through [`rand`] so that the
//! caller controls seeding (deterministic, reproducible experiments).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A normal (Gaussian) distribution parameterised by mean and standard deviation.
///
/// Sampling uses the Box–Muller transform, so it only requires a uniform
/// random source and no external distribution crates.
///
/// # Example
///
/// ```rust
/// use optima_math::distributions::Gaussian;
/// use rand::SeedableRng;
///
/// let dist = Gaussian::new(0.0, 1.0);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let sample = dist.sample(&mut rng);
/// assert!(sample.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gaussian {
    mean: f64,
    std_dev: f64,
}

impl Gaussian {
    /// Creates a Gaussian with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or not finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            std_dev >= 0.0 && std_dev.is_finite(),
            "standard deviation must be finite and non-negative"
        );
        Gaussian { mean, std_dev }
    }

    /// The standard normal distribution `N(0, 1)`.
    pub fn standard() -> Self {
        Gaussian::new(0.0, 1.0)
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// Draws a standard-normal sample using the Box–Muller transform.
///
/// It consumes two `u64` words of `rng` (the radius, then the angle) and
/// is the `z` of [`Gaussian::sample`], which returns `mean + std_dev · z`;
/// a caller that draws many normals ahead of time and scales them later
/// gets the same bits as sampling each [`Gaussian`] in turn.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard against u1 == 0 which would give ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn draw(dist: &Gaussian, rng: &mut ChaCha8Rng, n: usize) -> Vec<f64> {
        (0..n).map(|_| dist.sample(rng)).collect()
    }

    #[test]
    fn sample_statistics_match_parameters() {
        let dist = Gaussian::new(2.0, 0.5);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let samples = draw(&dist, &mut rng, 20_000);
        assert!((stats::mean(&samples) - 2.0).abs() < 0.02);
        assert!((stats::std_dev(&samples) - 0.5).abs() < 0.02);
    }

    #[test]
    fn zero_std_dev_is_deterministic() {
        let dist = Gaussian::new(1.5, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(dist.sample(&mut rng), 1.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_std_dev_panics() {
        let _ = Gaussian::new(0.0, -1.0);
    }

    #[test]
    fn seeded_sampling_is_reproducible() {
        let dist = Gaussian::standard();
        let mut rng_a = ChaCha8Rng::seed_from_u64(99);
        let mut rng_b = ChaCha8Rng::seed_from_u64(99);
        assert_eq!(draw(&dist, &mut rng_a, 10), draw(&dist, &mut rng_b, 10));
    }
}
