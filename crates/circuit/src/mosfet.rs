//! MOSFET drain-current model.
//!
//! A square-law model with channel-length modulation and an exponential
//! subthreshold region.  This is deliberately a *behavioural* device model —
//! the point of the golden reference is not SPICE-level accuracy but a
//! physically plausible nonlinear system that exhibits the paper's error
//! sources: the quadratic `I(V_GS)` relationship (Fig. 4b), the
//! saturation→linear transition (Eq. 2) and the residual subthreshold
//! discharge for `V_WL < Vth` (Fig. 4a).

use crate::montecarlo::MismatchSample;
use crate::pvt::PvtConditions;
use crate::technology::Technology;
use optima_math::units::{Amperes, Volts};
use serde::{Deserialize, Serialize};

/// Polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MosfetKind {
    /// N-channel device (pull-down / access transistors of the 6T cell).
    Nmos,
    /// P-channel device (pre-charge transistors, pull-ups of the cell).
    Pmos,
}

/// Operating region of a MOSFET at a given bias point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperatingRegion {
    /// `V_GS` below threshold: only subthreshold leakage flows.
    Subthreshold,
    /// `V_DS < V_GS − Vth`: resistive (triode) operation.
    Linear,
    /// `V_DS ≥ V_GS − Vth`: current saturates (apart from λ·V_DS).
    Saturation,
}

/// An individual MOSFET instance with per-device mismatch applied.
///
/// # Example
///
/// ```rust
/// use optima_circuit::prelude::*;
///
/// let tech = Technology::tsmc65_like();
/// let pvt = PvtConditions::nominal(&tech);
/// let fet = Mosfet::new(MosfetKind::Nmos, &tech, &pvt, &MismatchSample::none());
/// let strong = fet.drain_current(Volts(1.0), Volts(1.0));
/// let weak = fet.drain_current(Volts(0.3), Volts(1.0));
/// assert!(strong.0 > 100.0 * weak.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mosfet {
    kind: MosfetKind,
    threshold: Volts,
    beta: f64,
    lambda: f64,
    subthreshold_swing: f64,
}

impl Mosfet {
    /// Creates a device for the given technology, operating point and mismatch sample.
    pub fn new(
        kind: MosfetKind,
        tech: &Technology,
        pvt: &PvtConditions,
        mismatch: &MismatchSample,
    ) -> Self {
        let (threshold, beta) = match kind {
            MosfetKind::Nmos => {
                let vth = tech.nmos_vth_effective(pvt.corner, pvt.temperature);
                let beta = tech.nmos_beta_effective(pvt.corner, pvt.temperature);
                (
                    Volts(vth.0 + mismatch.delta_vth.0),
                    beta * (1.0 + mismatch.delta_beta_rel),
                )
            }
            MosfetKind::Pmos => {
                // PMOS devices only participate in pre-charge; corner handling
                // mirrors the NMOS path with the PMOS parameters.
                let delta_t = pvt.temperature.0 - tech.temperature_nominal.0;
                let vth = tech.pmos_vth.0 + tech.vth_temp_coefficient * delta_t;
                (
                    Volts(vth + mismatch.delta_vth.0),
                    tech.pmos_beta * (1.0 + mismatch.delta_beta_rel),
                )
            }
        };
        Mosfet {
            kind,
            threshold,
            beta,
            lambda: tech.channel_length_modulation,
            subthreshold_swing: tech.subthreshold_swing,
        }
    }

    /// The device polarity.
    pub fn kind(&self) -> MosfetKind {
        self.kind
    }

    /// Effective threshold voltage (including corner, temperature and mismatch).
    pub fn threshold(&self) -> Volts {
        self.threshold
    }

    /// Effective transconductance parameter (A/V²).
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Operating region at the given gate-source / drain-source bias.
    ///
    /// Both voltages are interpreted in the device's own polarity (i.e. pass
    /// positive magnitudes for a PMOS as well).
    pub fn region(&self, v_gs: Volts, v_ds: Volts) -> OperatingRegion {
        let overdrive = v_gs.0 - self.threshold.0;
        if overdrive <= 0.0 {
            OperatingRegion::Subthreshold
        } else if v_ds.0 < overdrive {
            OperatingRegion::Linear
        } else {
            OperatingRegion::Saturation
        }
    }

    /// Drain current at the given bias (both voltages as positive magnitudes).
    ///
    /// The three regions are stitched continuously:
    /// * subthreshold: `I0 · exp(overdrive / n·kT-equivalent swing)`,
    /// * linear: `β · (overdrive − V_DS/2) · V_DS`,
    /// * saturation: `β/2 · overdrive² · (1 + λ·V_DS)`.
    pub fn drain_current(&self, v_gs: Volts, v_ds: Volts) -> Amperes {
        self.at_gate(v_gs).drain_current(v_ds)
    }

    /// The device with its gate held at `v_gs`: the terms of
    /// [`Mosfet::drain_current`] that depend only on the gate, evaluated once.
    pub(crate) fn at_gate(&self, v_gs: Volts) -> GateBias {
        let overdrive = v_gs.0 - self.threshold.0;
        let subthreshold = if overdrive <= 0.0 {
            // Subthreshold: anchor the exponential at the current the
            // square-law predicts for a small positive overdrive so the two
            // regions join continuously.
            let anchor_overdrive = 0.02;
            let anchor = 0.5 * self.beta * anchor_overdrive * anchor_overdrive;
            let decades = (overdrive - anchor_overdrive) / self.subthreshold_swing;
            anchor * 10f64.powf(decades)
        } else {
            0.0
        };
        GateBias {
            overdrive,
            beta: self.beta,
            saturation: 0.5 * self.beta * overdrive * overdrive,
            lambda: self.lambda,
            subthreshold,
        }
    }
}

/// A [`Mosfet`] at a fixed gate voltage, from [`Mosfet::at_gate`].
///
/// A bit-line transient holds the word line constant, so the gate-only terms
/// (overdrive, square-law prefactor and the subthreshold `powf`) are computed
/// once per transient instead of once per derivative evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GateBias {
    overdrive: f64,
    beta: f64,
    /// `β/2 · overdrive²`, the saturation current before channel-length modulation.
    saturation: f64,
    lambda: f64,
    /// Subthreshold current before drain saturation (zero above threshold).
    subthreshold: f64,
}

impl GateBias {
    /// Drain current at drain-source voltage `v_ds`; see [`Mosfet::drain_current`].
    pub fn drain_current(&self, v_ds: Volts) -> Amperes {
        let v_ds = v_ds.0.max(0.0);
        let overdrive = self.overdrive;
        let current = if overdrive <= 0.0 {
            // Drain-source saturation of the exponential for very small V_DS.
            self.subthreshold * (1.0 - (-v_ds / 0.026).exp())
        } else if v_ds < overdrive {
            self.beta * (overdrive - 0.5 * v_ds) * v_ds
        } else {
            // Channel-length modulation referenced to the saturation point so
            // the current is continuous across the linear/saturation boundary.
            self.saturation * (1.0 + self.lambda * (v_ds - overdrive))
        };
        Amperes(current.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pvt::PvtConditions;

    fn nominal_nmos() -> Mosfet {
        let tech = Technology::tsmc65_like();
        let pvt = PvtConditions::nominal(&tech);
        Mosfet::new(MosfetKind::Nmos, &tech, &pvt, &MismatchSample::none())
    }

    #[test]
    fn regions_are_classified_correctly() {
        let fet = nominal_nmos();
        assert_eq!(
            fet.region(Volts(0.3), Volts(1.0)),
            OperatingRegion::Subthreshold
        );
        assert_eq!(fet.region(Volts(1.0), Volts(0.1)), OperatingRegion::Linear);
        assert_eq!(
            fet.region(Volts(1.0), Volts(1.0)),
            OperatingRegion::Saturation
        );
    }

    #[test]
    fn current_increases_quadratically_with_overdrive() {
        let fet = nominal_nmos();
        let i1 = fet.drain_current(Volts(0.65), Volts(1.0)).0; // overdrive 0.2
        let i2 = fet.drain_current(Volts(0.85), Volts(1.0)).0; // overdrive 0.4
        let ratio = i2 / i1;
        assert!(
            ratio > 3.5 && ratio < 4.6,
            "expected roughly quadratic scaling, got ratio {ratio}"
        );
    }

    #[test]
    fn subthreshold_current_is_small_but_nonzero() {
        let fet = nominal_nmos();
        let sub = fet.drain_current(Volts(0.3), Volts(1.0)).0;
        let strong = fet.drain_current(Volts(1.0), Volts(1.0)).0;
        assert!(sub > 0.0, "subthreshold leakage must be nonzero");
        assert!(sub < strong * 1e-2, "subthreshold must be orders smaller");
    }

    #[test]
    fn linear_region_reduces_current() {
        let fet = nominal_nmos();
        let sat = fet.drain_current(Volts(1.0), Volts(0.8)).0;
        let lin = fet.drain_current(Volts(1.0), Volts(0.1)).0;
        assert!(lin < sat, "linear-region current must be below saturation");
    }

    #[test]
    fn current_is_continuous_at_region_boundaries() {
        let fet = nominal_nmos();
        // Across the linear/saturation boundary.
        let overdrive = 1.0 - fet.threshold().0;
        let below = fet.drain_current(Volts(1.0), Volts(overdrive - 1e-6)).0;
        let above = fet.drain_current(Volts(1.0), Volts(overdrive + 1e-6)).0;
        assert!((below - above).abs() / above < 1e-3);
        // Across the threshold.
        let just_below = fet
            .drain_current(Volts(fet.threshold().0 - 1e-4), Volts(1.0))
            .0;
        let just_above = fet
            .drain_current(Volts(fet.threshold().0 + 0.02), Volts(1.0))
            .0;
        assert!(just_below < just_above);
        assert!(just_above / just_below < 10.0);
    }

    #[test]
    fn zero_vds_gives_zero_current() {
        let fet = nominal_nmos();
        assert_eq!(fet.drain_current(Volts(1.0), Volts(0.0)).0, 0.0);
        assert!(fet.drain_current(Volts(0.2), Volts(0.0)).0 < 1e-15);
    }

    #[test]
    fn mismatch_shifts_current() {
        let tech = Technology::tsmc65_like();
        let pvt = PvtConditions::nominal(&tech);
        let slow = Mosfet::new(
            MosfetKind::Nmos,
            &tech,
            &pvt,
            &MismatchSample {
                delta_vth: Volts(0.03),
                delta_beta_rel: -0.05,
            },
        );
        let nominal = nominal_nmos();
        assert!(
            slow.drain_current(Volts(0.8), Volts(1.0)).0
                < nominal.drain_current(Volts(0.8), Volts(1.0)).0
        );
    }

    #[test]
    fn pmos_device_constructs_and_conducts() {
        let tech = Technology::tsmc65_like();
        let pvt = PvtConditions::nominal(&tech);
        let fet = Mosfet::new(MosfetKind::Pmos, &tech, &pvt, &MismatchSample::none());
        assert_eq!(fet.kind(), MosfetKind::Pmos);
        assert!(fet.drain_current(Volts(1.0), Volts(0.5)).0 > 0.0);
    }

    #[test]
    fn gate_hoisting_is_bit_identical_to_the_inline_formula() {
        // The drain-current model evaluated in one piece, every gate-only term
        // recomputed per call.
        fn inline(fet: &Mosfet, tech: &Technology, v_gs: f64, v_ds: f64) -> f64 {
            let v_ds = v_ds.max(0.0);
            let overdrive = v_gs - fet.threshold().0;
            let current = if overdrive <= 0.0 {
                let anchor_overdrive = 0.02;
                let anchor = 0.5 * fet.beta() * anchor_overdrive * anchor_overdrive;
                let decades = (overdrive - anchor_overdrive) / tech.subthreshold_swing;
                let sat = anchor * 10f64.powf(decades);
                sat * (1.0 - (-v_ds / 0.026).exp())
            } else if v_ds < overdrive {
                fet.beta() * (overdrive - 0.5 * v_ds) * v_ds
            } else {
                0.5 * fet.beta()
                    * overdrive
                    * overdrive
                    * (1.0 + tech.channel_length_modulation * (v_ds - overdrive))
            };
            current.max(0.0)
        }
        let tech = Technology::tsmc65_like();
        let pvt = PvtConditions::nominal(&tech);
        let mismatch = MismatchSample {
            delta_vth: Volts(-0.012),
            delta_beta_rel: 0.027,
        };
        for kind in [MosfetKind::Nmos, MosfetKind::Pmos] {
            let fet = Mosfet::new(kind, &tech, &pvt, &mismatch);
            for v_gs in [0.0, 0.2, 0.3, 0.44, 0.45, 0.47, 0.6, 0.8, 1.0, 1.2] {
                let gate = fet.at_gate(Volts(v_gs));
                for v_ds in [-0.1, 0.0, 1e-3, 0.05, 0.2, 0.35, 0.55, 0.8, 1.0, 1.1] {
                    let expected = inline(&fet, &tech, v_gs, v_ds).to_bits();
                    assert_eq!(gate.drain_current(Volts(v_ds)).0.to_bits(), expected);
                    assert_eq!(
                        fet.drain_current(Volts(v_gs), Volts(v_ds)).0.to_bits(),
                        expected
                    );
                }
            }
        }
    }
}
