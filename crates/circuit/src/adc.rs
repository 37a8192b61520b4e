//! Bit-line analog-to-digital converter (ADC).
//!
//! After the weighted discharge phases the combined bit-line voltage is
//! sampled and converted to a digital result.  The error metric of the design
//! space exploration (ϵ_mul) is expressed in LSBs of this converter, so its
//! quantisation behaviour directly defines the multiplier accuracy.

use crate::error::CircuitError;
use optima_math::units::Volts;
use serde::{Deserialize, Serialize};

/// A behavioural successive-approximation ADC.
///
/// The converter digitises the *discharge* `ΔV = V_precharge − V_BL`
/// over the range `[0, full_scale]` into `2^bits` codes.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), optima_circuit::CircuitError> {
/// use optima_circuit::adc::Adc;
/// use optima_math::units::Volts;
///
/// let adc = Adc::new(8, Volts(0.6))?;
/// assert_eq!(adc.quantize(Volts(0.0))?, 0);
/// assert_eq!(adc.quantize(Volts(0.6))?, 255);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Adc {
    bits: u8,
    full_scale: Volts,
}

impl Adc {
    /// Creates an ADC with the given resolution and full-scale discharge range.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConverterConfig`] for a zero or >16-bit
    /// resolution or a non-positive full-scale range.
    pub fn new(bits: u8, full_scale: Volts) -> Result<Self, CircuitError> {
        if bits == 0 || bits > 16 {
            return Err(CircuitError::InvalidConverterConfig {
                context: format!("adc resolution {bits} bits outside supported range 1..=16"),
            });
        }
        if full_scale.0 <= 0.0 || !full_scale.0.is_finite() {
            return Err(CircuitError::InvalidConverterConfig {
                context: format!("adc full scale must be positive, got {}", full_scale.0),
            });
        }
        Ok(Adc { bits, full_scale })
    }

    /// ADC resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Full-scale discharge range.
    pub fn full_scale(&self) -> Volts {
        self.full_scale
    }

    /// Largest output code.
    pub fn max_code(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// Quantises a discharge voltage into a digital code (round-to-nearest,
    /// clamped to the code range).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidOperatingPoint`] for a non-finite input.
    pub fn quantize(&self, discharge: Volts) -> Result<u32, CircuitError> {
        if !discharge.0.is_finite() {
            return Err(CircuitError::InvalidOperatingPoint {
                context: "adc input voltage must be finite".to_string(),
            });
        }
        let normalized = (discharge.0 / self.full_scale.0).clamp(0.0, 1.0);
        let code = (normalized * self.max_code() as f64).round() as u32;
        Ok(code.min(self.max_code()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_parameters() {
        assert!(Adc::new(0, Volts(0.5)).is_err());
        assert!(Adc::new(17, Volts(0.5)).is_err());
        assert!(Adc::new(8, Volts(0.0)).is_err());
        assert!(Adc::new(8, Volts(-0.5)).is_err());
        assert!(Adc::new(8, Volts(f64::NAN)).is_err());
    }

    #[test]
    fn quantization_endpoints_and_clamping() {
        let adc = Adc::new(4, Volts(0.5)).unwrap();
        assert_eq!(adc.quantize(Volts(0.0)).unwrap(), 0);
        assert_eq!(adc.quantize(Volts(0.5)).unwrap(), 15);
        assert_eq!(adc.quantize(Volts(1.5)).unwrap(), 15);
        assert_eq!(adc.quantize(Volts(-0.2)).unwrap(), 0);
        assert!(adc.quantize(Volts(f64::NAN)).is_err());
    }

    #[test]
    fn quantization_is_monotone() {
        let adc = Adc::new(6, Volts(0.6)).unwrap();
        let mut last = 0;
        for i in 0..=60 {
            let v = Volts(0.01 * i as f64);
            let code = adc.quantize(v).unwrap();
            assert!(code >= last, "codes must be non-decreasing");
            last = code;
        }
        assert_eq!(last, adc.max_code());
    }
}
