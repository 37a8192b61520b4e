//! In-SRAM multiplier case study (paper Section V).
//!
//! This crate applies the OPTIMA models of [`optima_core`] to the 4-bit
//! discharge-based multiplication circuit of the paper's ref. \[8\] (IMAC):
//! one operand is stored as a 4-bit word in an SRAM row, the other is applied
//! as an analog word-line voltage generated by a 4-bit DAC, the four
//! bit-line-bars discharge for `τ0, 2τ0, 4τ0, 8τ0` to implement bit
//! weighting, and the combined discharge is captured by an ADC.
//!
//! On top of the multiplier model the crate provides the paper's
//! design-space exploration flow:
//!
//! * [`multiplier`] — the behavioural 4-bit multiplier, read out as a
//!   pre-computed table of every operand pair's result and the average
//!   energy, which the DNN experiments look products up in,
//! * [`metrics`] — exhaustive input-space evaluation (ϵ_mul, E_mul, analog σ),
//! * [`dse`] — the 48-corner design-space exploration of Fig. 7,
//! * [`fom`] — figure-of-merit computation (Eq. 9) and the *fom* / *power* /
//!   *variation* corner selection of Table I,
//! * [`pvt_analysis`] — the PVT and mismatch analysis of Fig. 8,
//! * [`pareto`] — Pareto-front extraction over (energy, error),
//! * [`reliability`] — replica-column redundancy planning and the fault
//!   state injected into the analog multiply path,
//! * [`sota`] — the published state-of-the-art design points of Fig. 1.
//!
//! # Example
//!
//! ```rust,no_run
//! # fn main() -> Result<(), optima_imc::ImcError> {
//! use optima_circuit::prelude::*;
//! use optima_core::calibration::{CalibrationConfig, Calibrator};
//! use optima_imc::multiplier::{InSramMultiplier, MultiplierConfig, MultiplierTable};
//!
//! let technology = Technology::tsmc65_like();
//! let models = Calibrator::new(technology, CalibrationConfig::fast())
//!     .run()?
//!     .into_models();
//! let m = InSramMultiplier::new(models, MultiplierConfig::paper_fom_corner())?;
//! let table = MultiplierTable::from_multiplier(&m, m.nominal_operating_point())?;
//! println!("9 × 11 -> {} (expected 99)", table.lookup(9, 11));
//! println!("{:.1} fJ per multiply", table.average_multiply_energy().0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dse;
pub mod error;
pub mod fom;
pub mod metrics;
pub mod multiplier;
pub mod pareto;
pub mod pvt_analysis;
pub mod reliability;
pub mod sota;
#[cfg(test)]
pub(crate) mod testsupport;

pub use error::ImcError;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::dse::{DesignPoint, DesignPointResult, DesignSpace, DesignSpaceExplorer};
    pub use crate::error::ImcError;
    pub use crate::fom::{CornerKind, SelectedCorners};
    pub use crate::metrics::{evaluate_multiplier, MultiplierMetrics};
    pub use crate::multiplier::{InSramMultiplier, MultiplierConfig, MultiplierTable};
    pub use crate::pareto::pareto_front;
    pub use crate::pvt_analysis::{PvtAnalysis, PvtAnalysisConfig};
    pub use crate::reliability::{ColumnRemap, FaultState};
    pub use crate::sota::{published_design_points, SotaDesignPoint};
    pub use optima_math::units::{Celsius, FemtoJoules, NanoSeconds, Seconds, Volts};
}
