//! Sampled analog waveforms.
//!
//! Transient simulations produce `(time, voltage)` series; the calibration
//! pipeline samples them at the ADC sampling instants and the figure
//! harnesses print them directly.

use crate::error::CircuitError;
use optima_math::interp;
use optima_math::units::{Seconds, Volts};
use serde::{Deserialize, Serialize};

/// A uniformly or non-uniformly sampled voltage waveform.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), optima_circuit::CircuitError> {
/// use optima_circuit::waveform::Waveform;
/// use optima_math::units::{Seconds, Volts};
///
/// let wf = Waveform::from_samples(vec![0.0, 1e-9, 2e-9], vec![1.0, 0.8, 0.6])?;
/// assert_eq!(wf.sample_at(Seconds(0.5e-9))?, Volts(0.9));
/// assert_eq!(wf.final_value(), 0.6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Waveform {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl Waveform {
    /// Builds a waveform from raw time/value vectors.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidOperatingPoint`] when the vectors have
    /// different lengths, fewer than two samples, or times that are not
    /// strictly increasing (a NaN time included).
    pub fn from_samples(times: Vec<f64>, values: Vec<f64>) -> Result<Self, CircuitError> {
        if times.len() != values.len() {
            return Err(CircuitError::InvalidOperatingPoint {
                context: format!(
                    "waveform time/value length mismatch: {} vs {}",
                    times.len(),
                    values.len()
                ),
            });
        }
        if times.len() < 2 {
            return Err(CircuitError::InvalidOperatingPoint {
                context: "waveform needs at least two samples".to_string(),
            });
        }
        check_axis(&times)?;
        Ok(Waveform { times, values })
    }

    /// Sample times in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values in volts.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if the waveform holds no samples (only possible for
    /// `Waveform::default()`).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Initial value of the waveform.
    ///
    /// # Panics
    ///
    /// Panics on an empty (default-constructed) waveform.
    pub fn initial_value(&self) -> f64 {
        self.values[0]
    }

    /// Final value of the waveform.
    ///
    /// # Panics
    ///
    /// Panics on an empty (default-constructed) waveform.
    pub fn final_value(&self) -> f64 {
        // optima-lint: allow(R3) -- the panic is part of the documented contract above
        *self.values.last().expect("waveform has samples")
    }

    /// Minimum value over the whole waveform.
    pub fn min_value(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Total downward swing (initial − minimum).
    pub fn swing(&self) -> f64 {
        self.initial_value() - self.min_value()
    }

    /// Linearly interpolated value at time `t` (clamped to the waveform span).
    ///
    /// # Errors
    ///
    /// Returns an error for a NaN `t` and for default-constructed, empty
    /// waveforms.
    pub fn sample_at(&self, t: Seconds) -> Result<Volts, CircuitError> {
        // `from_samples` is the only way to a non-empty waveform and it
        // checked the axis, so the interpolation skips the O(n) re-check.
        let v = interp::linear_sorted(&self.times, &self.values, t.0)?;
        Ok(Volts(v))
    }
}

/// Rejects a time axis that is not strictly increasing, NaN included, so a
/// NaN time fails here instead of surfacing later as an interpolation error.
pub(crate) fn check_axis(times: &[f64]) -> Result<(), CircuitError> {
    if !interp::strictly_ascending(times) {
        return Err(CircuitError::InvalidOperatingPoint {
            context: "waveform times must be strictly increasing".to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Waveform {
        Waveform::from_samples(vec![0.0, 1.0, 2.0, 3.0], vec![1.0, 0.8, 0.5, 0.4]).unwrap()
    }

    #[test]
    fn construction_validates_input() {
        assert!(Waveform::from_samples(vec![0.0], vec![1.0]).is_err());
        assert!(Waveform::from_samples(vec![0.0, 1.0], vec![1.0]).is_err());
        assert!(Waveform::from_samples(vec![1.0, 0.5], vec![1.0, 1.0]).is_err());
        assert!(Waveform::from_samples(vec![0.0, 1.0], vec![1.0, 0.9]).is_ok());
    }

    #[test]
    fn construction_rejects_a_nan_time() {
        for times in [
            vec![0.0, f64::NAN, 2.0],
            vec![f64::NAN, 1.0, 2.0],
            vec![0.0, 1.0, f64::NAN],
        ] {
            assert!(matches!(
                Waveform::from_samples(times, vec![1.0, 0.9, 0.8]),
                Err(CircuitError::InvalidOperatingPoint { .. })
            ));
        }
    }

    #[test]
    fn sampling_rejects_nan_and_empty_waveforms() {
        assert!(ramp().sample_at(Seconds(f64::NAN)).is_err());
        assert!(Waveform::default().sample_at(Seconds(0.0)).is_err());
    }

    #[test]
    fn basic_accessors() {
        let wf = ramp();
        assert_eq!(wf.len(), 4);
        assert!(!wf.is_empty());
        assert_eq!(wf.initial_value(), 1.0);
        assert_eq!(wf.final_value(), 0.4);
        assert_eq!(wf.min_value(), 0.4);
        assert!((wf.swing() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn sampling_interpolates_and_clamps() {
        let wf = ramp();
        assert!((wf.sample_at(Seconds(0.5)).unwrap().0 - 0.9).abs() < 1e-12);
        assert_eq!(wf.sample_at(Seconds(-1.0)).unwrap().0, 1.0);
        assert_eq!(wf.sample_at(Seconds(10.0)).unwrap().0, 0.4);
    }
}
