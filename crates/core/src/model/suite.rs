//! The combined OPTIMA model suite.
//!
//! [`ModelSuite`] bundles the discharge, supply, temperature, mismatch and
//! energy models into the single object used by the in-SRAM multiplier case
//! study and the DNN evaluation.

use crate::error::ModelError;
use crate::model::discharge::DischargeModel;
use crate::model::energy::{DischargeEnergyModel, WriteEnergyModel};
use crate::model::mismatch::MismatchSigmaModel;
use crate::model::supply::SupplyModel;
use crate::model::temperature::TemperatureModel;
use optima_math::units::{Celsius, FemtoJoules, Seconds, Volts};
use serde::{Deserialize, Serialize};

/// All OPTIMA behavioural models of one calibrated technology.
///
/// Constructed by [`crate::calibration::Calibrator::run`]; the individual
/// models can also be assembled by hand (e.g. in tests or to load previously
/// exported coefficients).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSuite {
    discharge: DischargeModel,
    supply: SupplyModel,
    temperature: TemperatureModel,
    mismatch: MismatchSigmaModel,
    write_energy: WriteEnergyModel,
    discharge_energy: DischargeEnergyModel,
}

impl ModelSuite {
    /// Assembles a suite from its individually fitted models.
    pub fn new(
        discharge: DischargeModel,
        supply: SupplyModel,
        temperature: TemperatureModel,
        mismatch: MismatchSigmaModel,
        write_energy: WriteEnergyModel,
        discharge_energy: DischargeEnergyModel,
    ) -> Self {
        ModelSuite {
            discharge,
            supply,
            temperature,
            mismatch,
            write_energy,
            discharge_energy,
        }
    }

    /// The Eq. 3 discharge model.
    pub fn discharge_model(&self) -> &DischargeModel {
        &self.discharge
    }

    /// The Eq. 4 supply model.
    pub fn supply_model(&self) -> &SupplyModel {
        &self.supply
    }

    /// The Eq. 5 temperature model.
    pub fn temperature_model(&self) -> &TemperatureModel {
        &self.temperature
    }

    /// The Eq. 6 mismatch model.
    pub fn mismatch_model(&self) -> &MismatchSigmaModel {
        &self.mismatch
    }

    /// The Eq. 7 write-energy model.
    pub fn write_energy_model(&self) -> &WriteEnergyModel {
        &self.write_energy
    }

    /// The Eq. 8 discharge-energy model.
    pub fn discharge_energy_model(&self) -> &DischargeEnergyModel {
        &self.discharge_energy
    }

    /// Nominal supply voltage of the calibrated technology.
    pub fn vdd_nominal(&self) -> Volts {
        self.discharge.vdd_nominal()
    }

    /// Nominal temperature of the calibrated technology.
    pub fn temperature_nominal(&self) -> Celsius {
        self.temperature.temperature_nominal()
    }

    /// Bit-line voltage after a discharge of duration `time` at word-line
    /// voltage `word_line`, for a cell storing '1', under the given supply
    /// and temperature (Eqs. 3–5 combined).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfCalibrationRange`] when `(time, word_line)`
    /// lies outside the calibrated domain.
    pub fn bitline_voltage(
        &self,
        time: Seconds,
        word_line: Volts,
        vdd: Volts,
        temperature: Celsius,
    ) -> Result<Volts, ModelError> {
        self.discharge.check_domain(time, word_line)?;
        Ok(Volts(self.bitline_voltage_unchecked(
            time,
            word_line,
            vdd,
            temperature,
        )))
    }

    /// Unchecked fast path of [`ModelSuite::bitline_voltage`] used inside hot
    /// loops (the domain should be validated once up front).
    pub fn bitline_voltage_unchecked(
        &self,
        time: Seconds,
        word_line: Volts,
        vdd: Volts,
        temperature: Celsius,
    ) -> f64 {
        let base = self.discharge.bitline_voltage_unchecked(time, word_line);
        let with_supply = self.supply.apply(base, vdd);
        self.temperature
            .apply(with_supply, time, word_line, temperature)
    }

    /// Fills `out[i]` with the bit-line voltage at `times[i]` (batched
    /// Eqs. 3–5, no domain validation).
    ///
    /// The per-condition scalars — overdrive factor, supply correction and
    /// temperature sensitivity — are evaluated once, and the time polynomial
    /// runs through the blocked Horner kernel; every point performs the same
    /// floating-point operations in the same order as
    /// [`ModelSuite::bitline_voltage_unchecked`], so the fill is
    /// bit-identical to the scalar path.
    ///
    /// # Panics
    ///
    /// Panics when `times` and `out` have different lengths.
    pub fn fill_bitline_voltages_unchecked(
        &self,
        times: &[Seconds],
        word_line: Volts,
        vdd: Volts,
        temperature: Celsius,
        out: &mut [f64],
    ) {
        self.discharge
            .fill_bitline_voltages_unchecked(times, word_line, out);
        let supply_factor = self.supply.factor(vdd);
        let delta_t = temperature.0 - self.temperature.temperature_nominal().0;
        let sensitivity = self.temperature.sensitivity().eval(word_line.0);
        for (o, t) in out.iter_mut().zip(times) {
            let with_supply = (*o * supply_factor).max(0.0);
            let t_ns = crate::model::to_nanoseconds(t.0);
            *o = (with_supply + t_ns * delta_t * sensitivity).max(0.0);
        }
    }

    /// Fills `out[i]` with the discharge `ΔV_BL` at `times[i]` for a cell
    /// storing `stored_bit` (the batched equivalent of
    /// [`ModelSuite::discharge`], bit-identical to calling it per point).
    ///
    /// This is the kernel behind the batched multiplier-table construction
    /// and the PVT corner sweeps: one call evaluates a whole time grid at a
    /// fixed word-line voltage, with each `(time, word_line)` point still
    /// validated against the calibrated domain.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfCalibrationRange`] for the first (lowest
    /// index) point outside the calibrated domain; `out` is unspecified in
    /// that case.
    ///
    /// # Panics
    ///
    /// Panics when `times` and `out` have different lengths.
    pub fn fill_discharges(
        &self,
        times: &[Seconds],
        word_line: Volts,
        stored_bit: bool,
        vdd: Volts,
        temperature: Celsius,
        out: &mut [f64],
    ) -> Result<(), ModelError> {
        assert_eq!(
            times.len(),
            out.len(),
            "fill_discharges needs one output slot per time"
        );
        if !stored_bit {
            out.fill(0.0);
            return Ok(());
        }
        for &t in times {
            self.discharge.check_domain(t, word_line)?;
        }
        self.fill_bitline_voltages_unchecked(times, word_line, vdd, temperature, out);
        let precharge = self.precharge_level(vdd);
        for o in out.iter_mut() {
            *o = (precharge.0 - *o).max(0.0);
        }
        Ok(())
    }

    /// Bit-line discharge `ΔV_BL` (relative to the supply-scaled pre-charge
    /// level) for a cell storing `stored_bit`.
    ///
    /// A cell storing '0' does not discharge at all (Eq. 1), which is where
    /// the multiplication property comes from.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfCalibrationRange`] outside the calibrated domain.
    pub fn discharge(
        &self,
        time: Seconds,
        word_line: Volts,
        stored_bit: bool,
        vdd: Volts,
        temperature: Celsius,
    ) -> Result<Volts, ModelError> {
        if !stored_bit {
            return Ok(Volts(0.0));
        }
        let precharge_level = self.precharge_level(vdd);
        let v_bl = self.bitline_voltage(time, word_line, vdd, temperature)?;
        Ok(Volts((precharge_level.0 - v_bl.0).max(0.0)))
    }

    /// The pre-charge level the bit-line starts from at the given supply
    /// voltage (the supply-corrected model value at `t = 0`).
    pub fn precharge_level(&self, vdd: Volts) -> Volts {
        let base = self.discharge.vdd_nominal().0;
        Volts(self.supply.apply(base, vdd))
    }

    /// Mismatch standard deviation at `(time, word_line)` (Eq. 6).
    pub fn mismatch_sigma(&self, time: Seconds, word_line: Volts) -> Volts {
        self.mismatch.sigma(time, word_line)
    }

    /// Write energy at the given operating point (Eq. 7).
    pub fn write_energy(&self, vdd: Volts, temperature: Celsius) -> FemtoJoules {
        self.write_energy.energy(vdd, temperature)
    }

    /// Discharge energy for an achieved discharge `delta_v` (Eq. 8).
    pub fn discharge_energy(
        &self,
        delta_v: Volts,
        vdd: Volts,
        temperature: Celsius,
    ) -> FemtoJoules {
        self.discharge_energy.energy(delta_v, vdd, temperature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optima_math::Polynomial;

    /// A hand-assembled suite with simple analytic behaviour:
    /// ΔV = 0.3·V_od·t[ns], ±2 % per 0.1 V supply error, tiny temperature term.
    pub(crate) fn toy_suite() -> ModelSuite {
        ModelSuite::new(
            DischargeModel::new(
                Volts(1.0),
                Volts(0.45),
                Polynomial::new(vec![0.0, -0.3]),
                Polynomial::new(vec![0.0, 1.0]),
                (0.0, 3.0),
                (0.0, 1.1),
            ),
            SupplyModel::new(Volts(1.0), Polynomial::new(vec![1.0, 0.2]), (0.9, 1.1)),
            TemperatureModel::new(Celsius(25.0), Polynomial::new(vec![5e-5]), (-40.0, 125.0)),
            MismatchSigmaModel::new(
                Polynomial::new(vec![0.0, 2e-3]),
                Polynomial::new(vec![0.0, 1.0]),
            ),
            WriteEnergyModel::new(
                Polynomial::new(vec![0.0, 0.0, 25.0]),
                Polynomial::new(vec![1.0, 5e-4]),
            ),
            DischargeEnergyModel::new(
                Polynomial::new(vec![0.0, 1.0]),
                Polynomial::new(vec![0.0, 40.0]),
                Polynomial::new(vec![1.0, 3e-4]),
            ),
        )
    }

    #[test]
    fn zero_stored_bit_never_discharges() {
        let suite = toy_suite();
        let d = suite
            .discharge(Seconds(1e-9), Volts(1.0), false, Volts(1.0), Celsius(25.0))
            .unwrap();
        assert_eq!(d.0, 0.0);
    }

    #[test]
    fn discharge_combines_all_corrections() {
        let suite = toy_suite();
        let nominal = suite
            .discharge(Seconds(1e-9), Volts(0.85), true, Volts(1.0), Celsius(25.0))
            .unwrap()
            .0;
        assert!((nominal - 0.3 * 0.4).abs() < 1e-9);
        // Higher supply scales both the pre-charge level and the curve.
        let high_vdd = suite
            .discharge(Seconds(1e-9), Volts(0.85), true, Volts(1.1), Celsius(25.0))
            .unwrap()
            .0;
        assert!((high_vdd - nominal).abs() < 0.05);
        // Hot silicon adds the (small) additive term.
        let hot = suite
            .discharge(Seconds(1e-9), Volts(0.85), true, Volts(1.0), Celsius(125.0))
            .unwrap()
            .0;
        assert!((hot - nominal).abs() < 0.02);
        assert!(hot != nominal);
    }

    #[test]
    fn precharge_level_tracks_supply() {
        let suite = toy_suite();
        assert!((suite.precharge_level(Volts(1.0)).0 - 1.0).abs() < 1e-12);
        assert!(suite.precharge_level(Volts(1.1)).0 > 1.0);
        assert!(suite.precharge_level(Volts(0.9)).0 < 1.0);
    }

    #[test]
    fn out_of_range_queries_are_rejected() {
        let suite = toy_suite();
        assert!(suite
            .bitline_voltage(Seconds(10e-9), Volts(0.8), Volts(1.0), Celsius(25.0))
            .is_err());
        assert!(suite
            .discharge(Seconds(1e-9), Volts(2.0), true, Volts(1.0), Celsius(25.0))
            .is_err());
    }

    #[test]
    fn batched_fills_are_bit_identical_to_scalar_paths() {
        let suite = toy_suite();
        let times: Vec<Seconds> = (0..11)
            .map(|i| Seconds(0.1e-9 + 0.17e-9 * i as f64))
            .collect();
        let word_lines = [Volts(0.6), Volts(0.85), Volts(1.0)];
        let vdd = Volts(1.05);
        let temp = Celsius(75.0);

        let mut voltages = vec![0.0; times.len()];
        let mut discharges = vec![0.0; times.len()];
        for &word_line in &word_lines {
            suite.fill_bitline_voltages_unchecked(&times, word_line, vdd, temp, &mut voltages);
            suite
                .fill_discharges(&times, word_line, true, vdd, temp, &mut discharges)
                .unwrap();
            for (i, &t) in times.iter().enumerate() {
                let scalar_v = suite.bitline_voltage_unchecked(t, word_line, vdd, temp);
                let scalar_d = suite.discharge(t, word_line, true, vdd, temp).unwrap().0;
                assert_eq!(scalar_v.to_bits(), voltages[i].to_bits());
                assert_eq!(scalar_d.to_bits(), discharges[i].to_bits());
            }
        }

        // A stored '0' never discharges, batched or scalar.
        suite
            .fill_discharges(&times, Volts(0.9), false, vdd, temp, &mut discharges)
            .unwrap();
        assert!(discharges.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn batched_discharge_fill_validates_every_grid_point() {
        let suite = toy_suite();
        let mut out = [0.0; 2];
        // 10 ns is far outside the 3 ns calibrated window of the toy suite.
        let err = suite
            .fill_discharges(
                &[Seconds(1e-9), Seconds(10e-9)],
                Volts(0.9),
                true,
                Volts(1.0),
                Celsius(25.0),
                &mut out,
            )
            .unwrap_err();
        assert!(matches!(err, ModelError::OutOfCalibrationRange { .. }));
    }

    #[test]
    fn accessors_return_component_models() {
        let suite = toy_suite();
        assert_eq!(suite.vdd_nominal(), Volts(1.0));
        assert_eq!(suite.temperature_nominal(), Celsius(25.0));
        assert_eq!(suite.discharge_model().threshold(), Volts(0.45));
        assert_eq!(suite.supply_model().vdd_nominal(), Volts(1.0));
        assert!(suite.mismatch_model().sigma(Seconds(1e-9), Volts(1.0)).0 > 0.0);
        assert!(
            suite
                .write_energy_model()
                .energy(Volts(1.0), Celsius(25.0))
                .0
                > 0.0
        );
        assert!(
            suite
                .discharge_energy_model()
                .energy(Volts(0.1), Volts(1.0), Celsius(25.0))
                .0
                > 0.0
        );
        assert!(suite.temperature_model().sensitivity().coeffs()[0] > 0.0);
    }
}
