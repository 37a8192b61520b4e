//! OPTIMA: behavioural modeling framework for discharge-based in-SRAM computing.
//!
//! This crate is the Rust reproduction of the paper's primary contribution
//! (Section IV): instead of solving circuit differential equations for every
//! operation, OPTIMA
//!
//! 1. runs thorough multi-corner circuit simulations once
//!    (using [`optima_circuit`] as the golden reference),
//! 2. fits parameterised polynomial *discharge models* (Eqs. 3–6) and
//!    *energy models* (Eqs. 7–8) to the resulting data with least squares
//!    ([`calibration`]),
//! 3. evaluates those models inside a fast discrete-time framework that
//!    executes the in-SRAM multiplication
//!    (`optima_imc::multiplier::InSramMultiplier`), and
//! 4. quantifies the model accuracy (RMS error, Fig. 6) against circuit
//!    simulation ([`evaluation`]); the speed-up over it is timed by the
//!    `perfbench` workspace.
//!
//! # Quick start
//!
//! ```rust,no_run
//! # fn main() -> Result<(), optima_core::ModelError> {
//! use optima_circuit::prelude::*;
//! use optima_core::calibration::{CalibrationConfig, Calibrator};
//! use optima_math::units::{Celsius, Seconds, Volts};
//!
//! // 1. Calibrate the models against the golden-reference simulator.
//! let technology = Technology::tsmc65_like();
//! let calibrator = Calibrator::new(technology.clone(), CalibrationConfig::default());
//! let calibration = calibrator.run()?;
//!
//! // 2. Evaluate a discharge without solving any differential equation.
//! let models = calibration.models();
//! let v_bl = models.bitline_voltage(
//!     Seconds(1.0e-9), Volts(0.8), Volts(1.0), Celsius(25.0),
//! )?;
//! println!("V_BL after 1 ns at V_WL = 0.8 V: {v_bl}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod calibration;
pub mod error;
pub mod evaluation;
pub mod model;
pub mod snapshot;
pub mod sweep;

pub use backend::DischargeBackend;
pub use error::ModelError;
pub use model::suite::ModelSuite;

/// Convenient re-exports of the types most users need.
pub mod prelude {
    pub use crate::backend::DischargeBackend;
    pub use crate::calibration::{
        CalibrationConfig, CalibrationOutcome, CalibrationReport, Calibrator,
    };
    pub use crate::error::ModelError;
    pub use crate::evaluation::{ModelEvaluator, RmsErrorReport};
    pub use crate::model::discharge::DischargeModel;
    pub use crate::model::energy::{DischargeEnergyModel, WriteEnergyModel};
    pub use crate::model::mismatch::MismatchSigmaModel;
    pub use crate::model::suite::ModelSuite;
    pub use crate::sweep::{par_map_sweep, stream_seed, SweepError};
    pub use optima_math::units::{Celsius, FemtoJoules, Joules, Seconds, Volts};
}
