//! Shared fixtures for the unit tests of this crate (compiled only for tests).

use crate::error::ImcError;
use crate::multiplier::{InSramMultiplier, MultiplierConfig};
use crate::reliability::FaultState;
use optima_circuit::array::ArrayConfig;
use optima_circuit::defects::{
    BitLineFault, CellDefect, DefectMap, DefectModel, LifetimeTrajectory,
};
use optima_core::model::discharge::DischargeModel;
use optima_core::model::energy::{DischargeEnergyModel, WriteEnergyModel};
use optima_core::model::mismatch::MismatchSigmaModel;
use optima_core::model::suite::ModelSuite;
use optima_core::model::supply::SupplyModel;
use optima_core::model::temperature::TemperatureModel;
use optima_math::units::{Celsius, Seconds, Volts};
use optima_math::Polynomial;

/// A suite whose discharge is exactly linear in overdrive and time:
/// `ΔV = 0.25 V/(V·ns) · V_od · t`.  With a linear DAC whose zero code sits at
/// the threshold voltage, the resulting multiplier is nearly ideal, which
/// makes expected results easy to reason about in tests.
pub(crate) fn linear_suite() -> ModelSuite {
    ModelSuite::new(
        DischargeModel::new(
            Volts(1.0),
            Volts(0.45),
            Polynomial::new(vec![0.0, -0.25]),
            Polynomial::new(vec![0.0, 1.0]),
            (0.0, 3.0),
            (0.0, 1.1),
        ),
        SupplyModel::identity(Volts(1.0)),
        TemperatureModel::identity(Celsius(25.0)),
        MismatchSigmaModel::new(
            Polynomial::new(vec![0.0, 1e-3]),
            Polynomial::new(vec![0.0, 1.0]),
        ),
        WriteEnergyModel::new(Polynomial::new(vec![11.0]), Polynomial::new(vec![1.0])),
        DischargeEnergyModel::new(
            Polynomial::new(vec![1.0]),
            Polynomial::new(vec![0.0, 45.0]),
            Polynomial::new(vec![1.0]),
        ),
    )
}

/// Like [`linear_suite`] but with supply and temperature sensitivity, so PVT
/// sweeps actually move the results.
pub(crate) fn pvt_sensitive_suite() -> ModelSuite {
    ModelSuite::new(
        DischargeModel::new(
            Volts(1.0),
            Volts(0.45),
            Polynomial::new(vec![0.0, -0.25]),
            Polynomial::new(vec![0.0, 1.0]),
            (0.0, 3.0),
            (0.0, 1.1),
        ),
        SupplyModel::new(Volts(1.0), Polynomial::new(vec![1.0, 0.6]), (0.9, 1.1)),
        TemperatureModel::new(Celsius(25.0), Polynomial::new(vec![1e-4]), (-40.0, 125.0)),
        MismatchSigmaModel::new(
            Polynomial::new(vec![0.0, 1.5e-3]),
            Polynomial::new(vec![0.0, 1.0]),
        ),
        WriteEnergyModel::new(
            Polynomial::new(vec![0.0, 0.0, 11.0]),
            Polynomial::new(vec![1.0, 4e-4]),
        ),
        DischargeEnergyModel::new(
            Polynomial::new(vec![0.0, 1.0]),
            Polynomial::new(vec![0.0, 45.0]),
            Polynomial::new(vec![1.0, 3e-4]),
        ),
    )
}

/// Like [`pvt_sensitive_suite`] but with cubic and quadratic discharge
/// factors, so the batched fills exercise every Horner stage of Eqs. 3–5.
pub(crate) fn nonlinear_pvt_suite() -> ModelSuite {
    ModelSuite::new(
        DischargeModel::new(
            Volts(1.0),
            Volts(0.45),
            Polynomial::new(vec![0.0, -0.25, 0.02, -0.003]),
            Polynomial::new(vec![0.0, 1.0, -0.05]),
            (0.0, 3.0),
            (0.0, 1.1),
        ),
        SupplyModel::new(Volts(1.0), Polynomial::new(vec![1.0, 0.6]), (0.9, 1.1)),
        TemperatureModel::new(Celsius(25.0), Polynomial::new(vec![1e-4]), (-40.0, 125.0)),
        MismatchSigmaModel::new(
            Polynomial::new(vec![0.0, 1.5e-3]),
            Polynomial::new(vec![0.0, 1.0]),
        ),
        WriteEnergyModel::new(
            Polynomial::new(vec![0.0, 0.0, 11.0]),
            Polynomial::new(vec![1.0, 4e-4]),
        ),
        DischargeEnergyModel::new(
            Polynomial::new(vec![0.0, 1.0]),
            Polynomial::new(vec![0.0, 45.0]),
            Polynomial::new(vec![1.0, 3e-4]),
        ),
    )
}

/// A near-ideal paper-geometry design point: the DAC's zero code sits at
/// the threshold voltage, so the overdrive is proportional to the DAC code
/// and products are exact up to quantisation.
pub(crate) fn ideal_config() -> MultiplierConfig {
    MultiplierConfig::new(Seconds(0.16e-9), Volts(0.45), Volts(1.0))
}

/// [`ideal_config`] on the composed INT8 geometry (four 4-bit passes).
pub(crate) fn int8_config() -> MultiplierConfig {
    ideal_config().with_array(ArrayConfig::int8())
}

/// [`ideal_config`] on INT8 composed from 2-bit slices: four slices per
/// operand, sixteen passes.
pub(crate) fn int8_two_bit_config() -> MultiplierConfig {
    ideal_config().with_array(ArrayConfig {
        slice_bits: 2,
        ..ArrayConfig::int8()
    })
}

/// [`linear_suite`] with 20× its mismatch σ (up to tens of millivolts,
/// several product LSBs), so that most Gaussian draws move a readout code
/// and a draw taken from the wrong stream position shows in the
/// Monte-Carlo errors.
pub(crate) fn noisy_linear_suite() -> ModelSuite {
    let base = linear_suite();
    ModelSuite::new(
        base.discharge_model().clone(),
        base.supply_model().clone(),
        base.temperature_model().clone(),
        MismatchSigmaModel::new(
            Polynomial::new(vec![0.0, 2e-2]),
            Polynomial::new(vec![0.0, 1.0]),
        ),
        base.write_energy_model().clone(),
        base.discharge_energy_model().clone(),
    )
}

/// A paper-geometry multiplier on `suite` with every fault kind attached:
/// one shorted and one open data bit-line, a stuck cell of each kind on the
/// stored row, retention drift and V_th aging.
pub(crate) fn faulted_multiplier(suite: ModelSuite) -> Result<InSramMultiplier, ImcError> {
    multiplier_with_faults(suite, true)
}

/// [`faulted_multiplier`] without the shorted bit-line, whose full-rail
/// discharge saturates every code: one open data bit-line, a stuck cell of
/// each kind and one healthy cell on the stored row, retention drift and
/// V_th aging, so that cell mismatch can move a result.
pub(crate) fn unshorted_faulted_multiplier(
    suite: ModelSuite,
) -> Result<InSramMultiplier, ImcError> {
    multiplier_with_faults(suite, false)
}

/// The first sampled paper-geometry fault state with one open bit-line, a
/// shorted one when `shorted`, a stuck cell of each kind on the stored row
/// and (without the short) one healthy cell, attached to a multiplier on
/// `suite`.
fn multiplier_with_faults(suite: ModelSuite, shorted: bool) -> Result<InSramMultiplier, ImcError> {
    let array = ArrayConfig::paper();
    for seed in 0..10_000u64 {
        let map = DefectMap::sample(
            &array,
            &DefectModel {
                stuck_at_zero_rate: 0.3,
                stuck_at_one_rate: 0.3,
                open_bitline_rate: 0.2,
                short_bitline_rate: if shorted { 0.2 } else { 0.0 },
                retention_sigma: 0.1,
                seed,
            },
        )?;
        let bitlines: Vec<BitLineFault> = (0..4).map(|c| map.bitline_unchecked(c)).collect();
        let cells: Vec<CellDefect> = (0..4)
            .filter(|&c| bitlines[c as usize] == BitLineFault::Healthy)
            .map(|c| map.cell_unchecked(0, c))
            .collect();
        let count = |fault| bitlines.iter().filter(|&&b| b == fault).count();
        if count(BitLineFault::Shorted) == usize::from(shorted)
            && count(BitLineFault::Open) == 1
            && cells.contains(&CellDefect::StuckAtZero)
            && cells.contains(&CellDefect::StuckAtOne)
            && (shorted || cells.contains(&CellDefect::Healthy))
        {
            assert!((0..4).any(|c| map.drift_unchecked(0, c) != 0.0));
            let state = FaultState::unmitigated(&array, map, 0)?
                .with_lifetime(&LifetimeTrajectory::nbti_like().at(3));
            assert!(state.vth_shift() > 0.0);
            return InSramMultiplier::new(suite, ideal_config())?.with_faults(state);
        }
    }
    Err(ImcError::InvalidConfiguration {
        context: "no defect map with the requested fault kinds found".to_string(),
    })
}
