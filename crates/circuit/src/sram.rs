//! The 6T SRAM cell (Fig. 2 of the paper).
//!
//! For discharge-based computing the relevant analog behaviour of a cell is
//! the current it sinks from the bit-line-bar when (a) it stores a logic '1'
//! and (b) its word-line is driven to some analog voltage `V_WL`.  The
//! current path is the series connection of the access transistor (gate at
//! `V_WL`) and the pull-down transistor (gate at the full internal node
//! voltage), with the access transistor dominating because its gate voltage
//! is the smaller of the two.

use crate::montecarlo::MismatchSample;
use crate::mosfet::{GateBias, Mosfet, MosfetKind};
use crate::pvt::PvtConditions;
use crate::technology::Technology;
use optima_math::units::{Amperes, Volts};
use serde::{Deserialize, Serialize};

/// A single 6T SRAM cell.
///
/// # Example
///
/// ```rust
/// use optima_circuit::prelude::*;
///
/// let tech = Technology::tsmc65_like();
/// let pvt = PvtConditions::nominal(&tech);
/// let cell = SramCell::new(true, &tech, &pvt, &MismatchSample::none());
/// // A cell storing '1' sinks current when the word line is high...
/// assert!(cell.discharge_current(Volts(1.0), Volts(1.0)).0 > 0.0);
/// // ...while a cell storing '0' does not discharge BLB at all.
/// let zero_cell = SramCell::new(false, &tech, &pvt, &MismatchSample::none());
/// assert_eq!(zero_cell.discharge_current(Volts(1.0), Volts(1.0)).0, 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SramCell {
    stored_bit: bool,
    access: Mosfet,
    pulldown: Mosfet,
    /// Voltage of the internal '1' storage node (tracks the supply voltage).
    internal_high: Volts,
    /// Degradation of the series path relative to the access device alone.
    ///
    /// The pull-down device has its gate at the full internal '1' level, so it
    /// is stronger than the access device; the series stack still conducts a
    /// little less than the access device alone would.
    series_factor: f64,
}

impl SramCell {
    /// Creates a cell holding `stored_bit` under the given operating conditions.
    pub fn new(
        stored_bit: bool,
        tech: &Technology,
        pvt: &PvtConditions,
        mismatch: &MismatchSample,
    ) -> Self {
        SramCell {
            stored_bit,
            access: Mosfet::new(MosfetKind::Nmos, tech, pvt, mismatch),
            pulldown: Mosfet::new(MosfetKind::Nmos, tech, pvt, &MismatchSample::none()),
            internal_high: pvt.vdd,
            series_factor: 0.92,
        }
    }

    /// Current the cell sinks from BLB when the word-line is at `v_wl` and
    /// the bit-line-bar is at `v_blb`.
    ///
    /// A cell storing '0' has its BLB-side internal node at '1', so the
    /// pull-down of that branch is off and no discharge occurs — the
    /// multiplication property `δV ∝ V_WL · d` of Eq. 1.
    pub fn discharge_current(&self, v_wl: Volts, v_blb: Volts) -> Amperes {
        self.at_word_line(v_wl).discharge_current(v_blb)
    }

    /// The cell with its word line held at `v_wl`, for evaluating
    /// [`SramCell::discharge_current`] at many bit-line voltages.
    pub(crate) fn at_word_line(&self, v_wl: Volts) -> WordLineBias {
        WordLineBias {
            stored_bit: self.stored_bit,
            // Access device: gate at V_WL, source at the (low) internal node,
            // drain at the bit-line-bar.
            access: self.access.at_gate(v_wl),
            // Pull-down device: gate at the internal '1' level (which tracks
            // the supply); it limits the current only marginally, captured by
            // the series factor.
            pulldown: self.pulldown.at_gate(self.internal_high),
            series_factor: self.series_factor,
        }
    }
}

/// An [`SramCell`] at a fixed word-line voltage, from [`SramCell::at_word_line`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WordLineBias {
    pub(crate) stored_bit: bool,
    pub(crate) access: GateBias,
    pub(crate) pulldown: GateBias,
    pub(crate) series_factor: f64,
}

impl WordLineBias {
    /// Current the cell sinks from BLB at bit-line-bar voltage `v_blb`; see
    /// [`SramCell::discharge_current`].
    pub fn discharge_current(&self, v_blb: Volts) -> Amperes {
        if !self.stored_bit {
            return Amperes(0.0);
        }
        let access_current = self.access.drain_current(v_blb);
        let pulldown_limit = self.pulldown.drain_current(v_blb);
        Amperes(access_current.0.min(pulldown_limit.0) * self.series_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Technology, PvtConditions) {
        let tech = Technology::tsmc65_like();
        let pvt = PvtConditions::nominal(&tech);
        (tech, pvt)
    }

    #[test]
    fn zero_cell_never_discharges() {
        let (tech, pvt) = setup();
        let cell = SramCell::new(false, &tech, &pvt, &MismatchSample::none());
        for v_wl in [0.0, 0.4, 0.7, 1.0] {
            assert_eq!(cell.discharge_current(Volts(v_wl), Volts(1.0)).0, 0.0);
        }
    }

    #[test]
    fn one_cell_discharge_grows_with_word_line_voltage() {
        let (tech, pvt) = setup();
        let cell = SramCell::new(true, &tech, &pvt, &MismatchSample::none());
        let i_low = cell.discharge_current(Volts(0.5), Volts(1.0)).0;
        let i_mid = cell.discharge_current(Volts(0.7), Volts(1.0)).0;
        let i_high = cell.discharge_current(Volts(1.0), Volts(1.0)).0;
        assert!(i_low < i_mid && i_mid < i_high);
    }

    #[test]
    fn subthreshold_word_line_still_leaks_slightly() {
        // Section III-1: applying a '0' WL voltage to a cell storing '1'
        // still produces a small discharge.
        let (tech, pvt) = setup();
        let cell = SramCell::new(true, &tech, &pvt, &MismatchSample::none());
        let leak = cell.discharge_current(Volts(0.3), Volts(1.0)).0;
        assert!(leak > 0.0);
        assert!(leak < cell.discharge_current(Volts(1.0), Volts(1.0)).0 * 1e-2);
    }
}
