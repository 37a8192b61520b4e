//! Golden-reference analog simulator for discharge-based in-SRAM computing.
//!
//! The OPTIMA paper fits its behavioural models against transient circuit
//! simulations of a TSMC 65 nm technology (Cadence Virtuoso).  Neither the
//! foundry models nor the commercial simulator are available, so this crate
//! implements the closest open equivalent from scratch:
//!
//! * [`technology`] — a 65 nm-class CMOS technology description with process
//!   corners and temperature dependence,
//! * [`mosfet`] — a square-law + subthreshold MOSFET current model,
//! * [`sram`] — the 6T SRAM cell (Fig. 2 of the paper),
//! * [`transient`] — ODE-based transient simulation of the bit-line discharge
//!   (the *slow but accurate* reference OPTIMA is benchmarked against),
//! * [`pvt`] — process/voltage/temperature operating points (Fig. 5),
//! * [`defects`] — per-cell defect maps (stuck-at cells, open/shorted
//!   bit-lines, retention drift) and lifetime aging trajectories,
//! * [`montecarlo`] — transistor mismatch sampling (Fig. 5d),
//! * [`energy`] — closed-form write and discharge energies (Eqs. 7–8
//!   reference data),
//! * [`dac`] / [`adc`] — circuit-level data converters used by the 4-bit
//!   multiplier case study,
//! * [`waveform`] — sampled analog waveforms.
//!
//! The transistor parameters are chosen so that the nominal bit-line
//! discharge reproduces the qualitative behaviour of the paper's Figs. 4–5:
//! VDD = 1.0 V, Vth ≈ 0.45 V, nanosecond-scale discharge, saturation-to-linear
//! bend once the bit-line drops below `V_WL − Vth`, weak subthreshold
//! discharge for `V_WL < Vth`, and clearly visible VDD/process/mismatch
//! sensitivity with only minor temperature sensitivity.
//!
//! # Example
//!
//! ```rust
//! # fn main() -> Result<(), optima_circuit::CircuitError> {
//! use optima_circuit::prelude::*;
//!
//! let tech = Technology::tsmc65_like();
//! let pvt = PvtConditions::nominal(&tech);
//! let sim = TransientSimulator::new(tech);
//! let stimulus = DischargeStimulus {
//!     word_line_voltage: Volts(0.8),
//!     stored_bit: true,
//!     duration: Seconds(2e-9),
//!     ..DischargeStimulus::default()
//! };
//! let waveform = sim.discharge_waveform(&stimulus, &pvt, &MismatchSample::none())?;
//! assert!(waveform.final_value() < 1.0); // the bit-line discharged
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adc;
pub mod array;
pub mod dac;
pub mod defects;
pub mod energy;
pub mod error;
pub mod montecarlo;
pub mod mosfet;
pub mod pvt;
pub mod sram;
pub mod technology;
pub mod transient;
pub mod waveform;

pub use error::CircuitError;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::adc::Adc;
    pub use crate::array::ArrayConfig;
    pub use crate::dac::Dac;
    pub use crate::defects::{
        BitLineFault, CellDefect, DefectCounts, DefectMap, DefectModel, LifetimePoint,
        LifetimeTrajectory,
    };
    pub use crate::error::CircuitError;
    pub use crate::montecarlo::{MismatchModel, MismatchSample};
    pub use crate::mosfet::{Mosfet, MosfetKind};
    pub use crate::pvt::PvtConditions;
    pub use crate::sram::SramCell;
    pub use crate::technology::{ProcessCorner, Technology};
    pub use crate::transient::{DischargeStimulus, TransientSimulator};
    pub use crate::waveform::Waveform;
    pub use optima_math::units::{Celsius, FemtoJoules, Joules, NanoSeconds, Seconds, Volts};
}
