//! Word-line digital-to-analog converter (DAC).
//!
//! The multi-bit multiplication scheme of the paper (Section II-B, idea 1)
//! quantises the word-line voltage with a DAC: the input operand selects one
//! of `2^bits` word-line voltages between `V_DAC,0` (code 0) and `V_DAC,FS`
//! (full-scale code).  Two of the three design-space parameters explored in
//! Section V are exactly these two voltages.

use crate::error::CircuitError;
use optima_math::units::Volts;
use serde::{Deserialize, Serialize};

/// Transfer-curve shape of the DAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum DacTransfer {
    /// Conventional linear DAC (the paper's default).
    #[default]
    Linear,
    /// Square-root pre-distorted DAC that linearises the quadratic
    /// device current, as proposed in ref. \[15\] of the paper (AID).  Included
    /// for the ablation study.
    SquareRootPredistortion,
}

/// A behavioural word-line DAC.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), optima_circuit::CircuitError> {
/// use optima_circuit::dac::Dac;
/// use optima_math::units::Volts;
///
/// let dac = Dac::new(4, Volts(0.3), Volts(1.0))?;
/// assert_eq!(dac.output(0)?, Volts(0.3));
/// assert_eq!(dac.output(15)?, Volts(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dac {
    bits: u8,
    zero_voltage: Volts,
    full_scale_voltage: Volts,
    transfer: DacTransfer,
}

/// Relative supply-voltage sensitivity of the DAC output: the fraction of a
/// relative supply error that appears on the output (1.0 = fully
/// supply-referred, 0.0 = ideal bandgap reference).
const SUPPLY_SENSITIVITY: f64 = 0.35;

impl Dac {
    /// Creates a linear DAC with the given resolution and output range.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConverterConfig`] when `bits` is zero or
    /// above 8, or when the zero-code voltage is not below the full-scale voltage.
    pub fn new(
        bits: u8,
        zero_voltage: Volts,
        full_scale_voltage: Volts,
    ) -> Result<Self, CircuitError> {
        if bits == 0 || bits > 8 {
            return Err(CircuitError::InvalidConverterConfig {
                context: format!("dac resolution {bits} bits outside supported range 1..=8"),
            });
        }
        if zero_voltage.0 >= full_scale_voltage.0 {
            return Err(CircuitError::InvalidConverterConfig {
                context: format!(
                    "dac zero voltage {} must be below full-scale {}",
                    zero_voltage.0, full_scale_voltage.0
                ),
            });
        }
        if zero_voltage.0 < 0.0 {
            return Err(CircuitError::InvalidConverterConfig {
                context: "dac zero voltage must be non-negative".to_string(),
            });
        }
        Ok(Dac {
            bits,
            zero_voltage,
            full_scale_voltage,
            transfer: DacTransfer::Linear,
        })
    }

    /// Switches the DAC to the given transfer curve (builder style).
    pub fn with_transfer(mut self, transfer: DacTransfer) -> Self {
        self.transfer = transfer;
        self
    }

    /// DAC resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Output voltage for code 0.
    pub fn zero_voltage(&self) -> Volts {
        self.zero_voltage
    }

    /// Output voltage for the full-scale code.
    pub fn full_scale_voltage(&self) -> Volts {
        self.full_scale_voltage
    }

    /// Largest representable code.
    pub fn max_code(&self) -> u16 {
        (1u16 << self.bits) - 1
    }

    /// Nominal output voltage for `code`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConverterConfig`] when `code` exceeds the
    /// DAC resolution.
    pub fn output(&self, code: u16) -> Result<Volts, CircuitError> {
        if code > self.max_code() {
            return Err(CircuitError::InvalidConverterConfig {
                context: format!("code {code} exceeds {}-bit dac range", self.bits),
            });
        }
        let normalized = code as f64 / self.max_code() as f64;
        let shaped = match self.transfer {
            DacTransfer::Linear => normalized,
            DacTransfer::SquareRootPredistortion => normalized.sqrt(),
        };
        Ok(Volts(
            self.zero_voltage.0 + shaped * (self.full_scale_voltage.0 - self.zero_voltage.0),
        ))
    }

    /// Output voltage for `code` under a non-nominal supply voltage.
    ///
    /// The paper notes that supply-voltage changes "do not only affect the
    /// SRAM circuit, but also the thresholds of ADCs and DACs": a fraction of
    /// the relative supply error (35 %, the DAC's supply sensitivity) appears
    /// as a multiplicative error on the DAC output.
    ///
    /// # Errors
    ///
    /// Same as [`Dac::output`].
    pub fn output_with_supply(
        &self,
        code: u16,
        vdd: Volts,
        vdd_nominal: Volts,
    ) -> Result<Volts, CircuitError> {
        let nominal = self.output(code)?;
        let relative_error = (vdd.0 - vdd_nominal.0) / vdd_nominal.0;
        Ok(Volts(
            nominal.0 * (1.0 + SUPPLY_SENSITIVITY * relative_error),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_dac_endpoints_and_midpoint() {
        let dac = Dac::new(4, Volts(0.4), Volts(1.0)).unwrap();
        assert_eq!(dac.output(0).unwrap(), Volts(0.4));
        assert_eq!(dac.output(15).unwrap(), Volts(1.0));
        let mid = dac.output(8).unwrap().0;
        assert!((mid - (0.4 + 8.0 / 15.0 * 0.6)).abs() < 1e-12);
        assert_eq!(dac.max_code(), 15);
    }

    #[test]
    fn construction_validates_parameters() {
        assert!(Dac::new(0, Volts(0.3), Volts(1.0)).is_err());
        assert!(Dac::new(9, Volts(0.3), Volts(1.0)).is_err());
        assert!(Dac::new(4, Volts(1.0), Volts(0.3)).is_err());
        assert!(Dac::new(4, Volts(-0.1), Volts(1.0)).is_err());
    }

    #[test]
    fn out_of_range_code_is_rejected() {
        let dac = Dac::new(4, Volts(0.3), Volts(1.0)).unwrap();
        assert!(dac.output(16).is_err());
        assert!(dac.output(15).is_ok());
    }

    #[test]
    fn sqrt_predistortion_raises_mid_codes() {
        let linear = Dac::new(4, Volts(0.3), Volts(1.0)).unwrap();
        let nonlinear = linear.with_transfer(DacTransfer::SquareRootPredistortion);
        // Endpoints are unchanged, intermediate codes are pushed up.
        assert_eq!(nonlinear.output(0).unwrap(), linear.output(0).unwrap());
        assert_eq!(nonlinear.output(15).unwrap(), linear.output(15).unwrap());
        assert!(nonlinear.output(4).unwrap().0 > linear.output(4).unwrap().0);
    }

    #[test]
    fn supply_sensitivity_shifts_output() {
        let dac = Dac::new(4, Volts(0.3), Volts(1.0)).unwrap();
        let nominal = dac
            .output_with_supply(10, Volts(1.0), Volts(1.0))
            .unwrap()
            .0;
        let high = dac
            .output_with_supply(10, Volts(1.1), Volts(1.0))
            .unwrap()
            .0;
        let low = dac
            .output_with_supply(10, Volts(0.9), Volts(1.0))
            .unwrap()
            .0;
        assert!(high > nominal && low < nominal);
        // Sensitivity below 1.0 attenuates the error.
        assert!((high - nominal) < nominal * 0.1);
    }
}
