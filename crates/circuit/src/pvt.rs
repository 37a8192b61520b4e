//! Process / voltage / temperature operating conditions.
//!
//! Section III-2 of the paper analyses how supply voltage, temperature,
//! process corners and transistor mismatch move the bit-line discharge
//! (Fig. 5).  This module provides the operating-point type shared by the
//! golden-reference simulator and the OPTIMA behavioural models, plus the
//! [`linspace`] grid helper used by the calibration pipeline and the
//! experiment harnesses.

use crate::technology::{ProcessCorner, Technology};
use optima_math::units::{Celsius, Volts};
use serde::{Deserialize, Serialize};

/// A process/voltage/temperature operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PvtConditions {
    /// Supply voltage.
    pub vdd: Volts,
    /// Junction temperature.
    pub temperature: Celsius,
    /// Systematic process corner.
    pub corner: ProcessCorner,
}

impl PvtConditions {
    /// Nominal conditions of the given technology (typical corner, nominal
    /// VDD and temperature).
    pub fn nominal(tech: &Technology) -> Self {
        PvtConditions {
            vdd: tech.vdd_nominal,
            temperature: tech.temperature_nominal,
            corner: ProcessCorner::TypicalTypical,
        }
    }

    /// Returns a copy with a different supply voltage.
    pub fn with_vdd(mut self, vdd: Volts) -> Self {
        self.vdd = vdd;
        self
    }

    /// Returns a copy with a different temperature.
    pub fn with_temperature(mut self, temperature: Celsius) -> Self {
        self.temperature = temperature;
        self
    }

    /// Returns a copy with a different process corner.
    pub fn with_corner(mut self, corner: ProcessCorner) -> Self {
        self.corner = corner;
        self
    }

    /// Supply-voltage deviation from the technology's nominal VDD.
    pub fn delta_vdd(&self, tech: &Technology) -> Volts {
        Volts(self.vdd.0 - tech.vdd_nominal.0)
    }
}

/// `count` evenly spaced values from `lo` to `hi` inclusive.
///
/// # Panics
///
/// Panics if `count == 0`.
pub fn linspace(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    assert!(count > 0, "linspace needs at least one point");
    if count == 1 {
        return vec![lo];
    }
    let step = (hi - lo) / (count - 1) as f64;
    (0..count).map(|i| lo + step * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_conditions_match_technology() {
        let tech = Technology::tsmc65_like();
        let pvt = PvtConditions::nominal(&tech);
        assert_eq!(pvt.vdd, tech.vdd_nominal);
        assert_eq!(pvt.temperature, tech.temperature_nominal);
        assert_eq!(pvt.corner, ProcessCorner::TypicalTypical);
        assert_eq!(pvt.delta_vdd(&tech).0, 0.0);
    }

    #[test]
    fn builders_replace_fields() {
        let tech = Technology::tsmc65_like();
        let pvt = PvtConditions::nominal(&tech)
            .with_vdd(Volts(0.9))
            .with_temperature(Celsius(85.0))
            .with_corner(ProcessCorner::SlowSlow);
        assert_eq!(pvt.vdd.0, 0.9);
        assert_eq!(pvt.temperature.0, 85.0);
        assert_eq!(pvt.corner, ProcessCorner::SlowSlow);
        assert!((pvt.delta_vdd(&tech).0 + 0.1).abs() < 1e-12);
    }

    #[test]
    fn linspace_endpoints_and_spacing() {
        let v = linspace(0.0, 1.0, 5);
        assert_eq!(v, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(linspace(2.0, 3.0, 1), vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn linspace_rejects_zero_count() {
        let _ = linspace(0.0, 1.0, 0);
    }
}
