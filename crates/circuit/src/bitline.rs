//! Bit-line model: capacitance, pre-charge and charge bookkeeping.
//!
//! In the discharge-based computing scheme both bit-lines are pre-charged to
//! VDD before every operation (Fig. 3 of the paper); computation then pulls
//! charge off BLB through the accessed cell.  The energy cost of the scheme
//! is dominated by replacing that charge during the next pre-charge phase,
//! which is what [`BitLine::precharge_energy`] accounts for.

use crate::error::CircuitError;
use crate::technology::Technology;
use optima_math::units::{Farads, Joules, Volts};
use serde::{Deserialize, Serialize};

/// A single bit-line (or bit-line-bar) of an SRAM column.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BitLine {
    capacitance: Farads,
    voltage: Volts,
}

impl BitLine {
    /// Creates a bit-line for a column with `cells` attached cells, initially
    /// pre-charged to `vdd`.
    pub fn for_column(tech: &Technology, cells: usize, vdd: Volts) -> Self {
        BitLine {
            capacitance: tech.bitline_capacitance(cells),
            voltage: vdd,
        }
    }

    /// Creates a bit-line with an explicit capacitance, pre-charged to `vdd`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidOperatingPoint`] for non-positive capacitance.
    pub fn new(capacitance: Farads, vdd: Volts) -> Result<Self, CircuitError> {
        if capacitance.0 <= 0.0 || !capacitance.0.is_finite() {
            return Err(CircuitError::InvalidOperatingPoint {
                context: format!(
                    "bit-line capacitance must be positive, got {}",
                    capacitance.0
                ),
            });
        }
        Ok(BitLine {
            capacitance,
            voltage: vdd,
        })
    }

    /// Total capacitance of the bit-line.
    pub fn capacitance(&self) -> Farads {
        self.capacitance
    }

    /// Present bit-line voltage.
    pub fn voltage(&self) -> Volts {
        self.voltage
    }

    /// Sets the bit-line voltage directly (used by the transient integrator).
    pub fn set_voltage(&mut self, voltage: Volts) {
        self.voltage = voltage;
    }

    /// Pre-charges the bit-line back to `vdd`, returning the energy drawn from
    /// the supply to do so: `E = C · VDD · ΔV`.
    pub fn precharge(&mut self, vdd: Volts) -> Joules {
        let delta = (vdd.0 - self.voltage.0).max(0.0);
        let energy = self.capacitance.0 * vdd.0 * delta;
        self.voltage = vdd;
        Joules(energy)
    }

    /// Energy the supply must deliver to restore the line from its current
    /// voltage to `vdd`, without changing the state.
    pub fn precharge_energy(&self, vdd: Volts) -> Joules {
        let delta = (vdd.0 - self.voltage.0).max(0.0);
        Joules(self.capacitance.0 * vdd.0 * delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_bitline_uses_technology_capacitance() {
        let tech = Technology::tsmc65_like();
        let bl = BitLine::for_column(&tech, 16, Volts(1.0));
        assert_eq!(bl.capacitance(), tech.bitline_capacitance(16));
        assert_eq!(bl.voltage(), Volts(1.0));
    }

    #[test]
    fn invalid_capacitance_is_rejected() {
        assert!(BitLine::new(Farads(0.0), Volts(1.0)).is_err());
        assert!(BitLine::new(Farads(-1e-15), Volts(1.0)).is_err());
        assert!(BitLine::new(Farads(f64::NAN), Volts(1.0)).is_err());
    }

    #[test]
    fn precharge_energy_matches_c_vdd_dv() {
        let mut bl = BitLine::new(Farads(20e-15), Volts(1.0)).unwrap();
        bl.set_voltage(Volts(0.7));
        let expected = 20e-15 * 1.0 * 0.3;
        assert!((bl.precharge_energy(Volts(1.0)).0 - expected).abs() < 1e-20);
        let drawn = bl.precharge(Volts(1.0));
        assert!((drawn.0 - expected).abs() < 1e-20);
        assert_eq!(bl.voltage(), Volts(1.0));
        // A second pre-charge costs nothing.
        assert_eq!(bl.precharge(Volts(1.0)).0, 0.0);
    }

    #[test]
    fn precharge_to_lower_vdd_never_returns_negative_energy() {
        let bl = BitLine::new(Farads(10e-15), Volts(1.0)).unwrap();
        assert_eq!(bl.precharge_energy(Volts(0.9)).0, 0.0);
    }
}
