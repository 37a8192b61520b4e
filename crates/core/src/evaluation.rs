//! Model evaluation: held-out RMS errors (Fig. 6).
//!
//! The paper validates OPTIMA's **accuracy** as the RMS error of each model
//! against circuit simulation on a grid that was *not* used for fitting
//! (Section IV-C reports 0.76 mV, 0.88 mV, 0.76 mV, 0.59 mV, 0.15 fJ and
//! 0.74 fJ for the six models).  Its Section V **speed-up** of the models
//! over circuit simulation is a timing, and timings come from the `perfbench`
//! workspace (`section5.sweep_speedup_x`, `section5.mc_speedup_x`).
//!
//! The evaluation runs through the [`DischargeBackend`] interface: the
//! golden [`TransientSimulator`] and the fitted [`ModelSuite`] answer the
//! identical waveform/energy queries, so "accuracy" is always the residual
//! between two backends.  The only exceptions are the Eq. 6 σ-model checks
//! (mismatch sampling has no common shape across the backends) and the
//! Eq. 3 basic-model residual, which deliberately measures the
//! *uncorrected* sub-model.

use crate::backend::DischargeBackend;
use crate::error::ModelError;
use crate::model::suite::ModelSuite;
use crate::sweep::par_map_sweep;
use optima_circuit::montecarlo::MismatchModel;
use optima_circuit::pvt::{linspace, PvtConditions};
use optima_circuit::technology::Technology;
use optima_circuit::transient::{DischargeStimulus, TransientSimulator};
use optima_math::stats;
use optima_math::units::{Celsius, Seconds, Volts};
use serde::{Deserialize, Serialize};

/// Held-out RMS errors of the six OPTIMA models (the Fig. 6 numbers).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RmsErrorReport {
    /// Basic discharge model (Eq. 3), millivolts.
    pub basic_discharge_mv: f64,
    /// Supply-corrected model (Eq. 4), millivolts.
    pub supply_mv: f64,
    /// Temperature-corrected model (Eq. 5), millivolts.
    pub temperature_mv: f64,
    /// Mismatch σ model (Eq. 6), millivolts.
    pub mismatch_sigma_mv: f64,
    /// Write-energy model (Eq. 7), femtojoules.
    pub write_energy_fj: f64,
    /// Discharge-energy model (Eq. 8), femtojoules.
    pub discharge_energy_fj: f64,
}

impl RmsErrorReport {
    /// The largest voltage-model error of the report (mV), the headline
    /// number quoted in the paper's abstract (0.88 mV there).
    pub fn worst_voltage_error_mv(&self) -> f64 {
        self.basic_discharge_mv
            .max(self.supply_mv)
            .max(self.temperature_mv)
            .max(self.mismatch_sigma_mv)
    }
}

/// Evaluates a fitted [`ModelSuite`] against the golden-reference simulator,
/// with both sides queried through the [`DischargeBackend`] interface.
#[derive(Debug, Clone)]
pub struct ModelEvaluator {
    technology: Technology,
    golden: TransientSimulator,
    models: ModelSuite,
    cells_on_bitline: usize,
    reference_time_steps: usize,
    threads: usize,
}

impl ModelEvaluator {
    /// Creates an evaluator for the given technology and fitted models.
    pub fn new(technology: Technology, models: ModelSuite) -> Self {
        ModelEvaluator {
            golden: TransientSimulator::new(technology.clone()),
            technology,
            models,
            cells_on_bitline: 16,
            reference_time_steps: 400,
            threads: 0,
        }
    }

    /// The fitted models being evaluated.
    pub fn models(&self) -> &ModelSuite {
        &self.models
    }

    /// The golden-reference backend the models are evaluated against.
    pub fn reference_backend(&self) -> &dyn DischargeBackend {
        &self.golden
    }

    /// The fitted backend under evaluation.
    pub fn fitted_backend(&self) -> &dyn DischargeBackend {
        &self.models
    }

    /// Overrides the reference-simulation fidelity (builder style), used by
    /// tests to keep runtimes short.
    pub fn with_reference_time_steps(mut self, steps: usize) -> Self {
        self.reference_time_steps = steps.max(10);
        self
    }

    /// Sets the sweep worker-thread count (builder style, `0` = automatic).
    /// Every reported number is bit-identical for any thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn stimulus(&self, v_wl: f64, duration: Seconds) -> DischargeStimulus {
        DischargeStimulus {
            word_line_voltage: Volts(v_wl),
            stored_bit: true,
            duration,
            cells_on_bitline: self.cells_on_bitline,
            time_steps: self.reference_time_steps,
        }
    }

    /// Computes held-out RMS errors on grids offset from the typical
    /// calibration grids (the Fig. 6 evaluation).
    ///
    /// `grid_points` controls the density of the held-out grid; 6–10 is
    /// enough for a stable estimate.
    ///
    /// # Errors
    ///
    /// Propagates circuit-simulation and interpolation errors.
    pub fn rms_errors(
        &self,
        grid_points: usize,
        mc_samples: usize,
    ) -> Result<RmsErrorReport, ModelError> {
        let grid_points = grid_points.max(3);
        let simulator = &self.golden;
        let fitted = &self.models;
        let nominal = PvtConditions::nominal(&self.technology);
        let duration = Seconds(2e-9);
        // Held-out grid: offset from the default calibration grid.
        let wordlines = linspace(0.47 + 0.013, 0.97, grid_points);
        let times: Vec<f64> = linspace(0.25e-9, 1.95e-9, grid_points);
        let sample_times: Vec<Seconds> = times.iter().map(|&t| Seconds(t)).collect();

        // Eq. 3 (nominal conditions).  Each held-out grid is evaluated with
        // the error-strict parallel sweep engine: one item per reference
        // transient, residual rows reassembled in grid order so the reported
        // RMS numbers are bit-identical at any thread count.  The reference
        // comes through the backend interface; the prediction deliberately
        // queries the *uncorrected* Eq. 3 sub-model below it.
        let residuals_basic: Vec<f64> = par_map_sweep(&wordlines, self.threads, |_, &v_wl| {
            let reference = simulator.bitline_voltages(
                &self.stimulus(v_wl, duration),
                &nominal,
                &sample_times,
            )?;
            let row: Vec<f64> = sample_times
                .iter()
                .zip(&reference)
                .map(|(&t, &r)| {
                    r - self
                        .models
                        .discharge_model()
                        .bitline_voltage_unchecked(t, Volts(v_wl))
                })
                .collect();
            Ok::<_, ModelError>(row)
        })
        .map_err(|err| {
            let item = format!("held-out discharge grid V_WL = {} V", wordlines[err.index]);
            ModelError::from_sweep(err, item)
        })?
        .into_iter()
        .flatten()
        .collect();

        // Eq. 4 (supply sweep): both sides answer the same backend query.
        let supply_grid: Vec<(f64, f64)> = linspace(0.92, 1.08, 3)
            .iter()
            .flat_map(|&vdd| wordlines.iter().map(move |&v_wl| (vdd, v_wl)))
            .collect();
        let residuals_supply: Vec<f64> =
            par_map_sweep(&supply_grid, self.threads, |_, &(vdd, v_wl)| {
                let pvt = nominal.with_vdd(Volts(vdd));
                let stimulus = self.stimulus(v_wl, duration);
                let reference = simulator.bitline_voltages(&stimulus, &pvt, &sample_times)?;
                let predicted = fitted.bitline_voltages(&stimulus, &pvt, &sample_times)?;
                let row: Vec<f64> = reference
                    .iter()
                    .zip(&predicted)
                    .map(|(r, p)| r - p)
                    .collect();
                Ok::<_, ModelError>(row)
            })
            .map_err(|err| {
                let (vdd, v_wl) = supply_grid[err.index];
                ModelError::from_sweep(
                    err,
                    format!("held-out supply grid V_DD = {vdd} V, V_WL = {v_wl} V"),
                )
            })?
            .into_iter()
            .flatten()
            .collect();

        // Eq. 5 (temperature sweep).
        let temperature_grid: Vec<(f64, f64)> = [-20.0, 50.0, 100.0]
            .iter()
            .flat_map(|&temp| wordlines.iter().map(move |&v_wl| (temp, v_wl)))
            .collect();
        let residuals_temperature: Vec<f64> =
            par_map_sweep(&temperature_grid, self.threads, |_, &(temp, v_wl)| {
                let pvt = nominal.with_temperature(Celsius(temp));
                let stimulus = self.stimulus(v_wl, duration);
                let reference = simulator.bitline_voltages(&stimulus, &pvt, &sample_times)?;
                let predicted = fitted.bitline_voltages(&stimulus, &pvt, &sample_times)?;
                let row: Vec<f64> = reference
                    .iter()
                    .zip(&predicted)
                    .map(|(r, p)| r - p)
                    .collect();
                Ok::<_, ModelError>(row)
            })
            .map_err(|err| {
                let (temp, v_wl) = temperature_grid[err.index];
                ModelError::from_sweep(
                    err,
                    format!("held-out temperature grid T = {temp} degC, V_WL = {v_wl} V"),
                )
            })?
            .into_iter()
            .flatten()
            .collect();

        // Eq. 6 (mismatch σ).  Every word-line grid point shares the same
        // fixed-seed sample set (as the serial code did), drawn once up
        // front, so the Monte-Carlo reference is independent of the thread
        // count by construction.
        let mismatch_model = MismatchModel::from_technology(&self.technology);
        let mc = mc_samples.max(10);
        let mismatch_samples = mismatch_model.sample_n(mc, 0xe7a1);
        let residuals_sigma: Vec<f64> = par_map_sweep(&wordlines, self.threads, |_, &v_wl| {
            let mut per_time: Vec<Vec<f64>> = vec![Vec::new(); times.len()];
            for sample in &mismatch_samples {
                let waveform = simulator.discharge_waveform(
                    &self.stimulus(v_wl, duration),
                    &nominal,
                    sample,
                )?;
                for (i, &t) in times.iter().enumerate() {
                    per_time[i].push(waveform.sample_at(Seconds(t))?.0);
                }
            }
            let row: Vec<f64> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    let reference_sigma = stats::std_dev(&per_time[i]);
                    let predicted_sigma = self.models.mismatch_sigma(Seconds(t), Volts(v_wl)).0;
                    reference_sigma - predicted_sigma
                })
                .collect();
            Ok::<_, ModelError>(row)
        })
        .map_err(|err| {
            let item = format!("held-out mismatch grid V_WL = {} V", wordlines[err.index]);
            ModelError::from_sweep(err, item)
        })?
        .into_iter()
        .flatten()
        .collect();

        // Eq. 7 (write energy): both backends answer the same energy query.
        let write_grid: Vec<(f64, f64)> = linspace(0.92, 1.08, 4)
            .iter()
            .flat_map(|&vdd| {
                [-20.0, 10.0, 60.0, 110.0]
                    .iter()
                    .map(move |&temp| (vdd, temp))
            })
            .collect();
        let residuals_write: Vec<f64> =
            par_map_sweep(&write_grid, self.threads, |_, &(vdd, temp)| {
                let pvt = nominal.with_vdd(Volts(vdd)).with_temperature(Celsius(temp));
                let reference = DischargeBackend::write_energy(simulator, &pvt)?.0;
                let predicted = DischargeBackend::write_energy(fitted, &pvt)?.0;
                Ok::<_, ModelError>(reference - predicted)
            })
            .map_err(|err| {
                let (vdd, temp) = write_grid[err.index];
                ModelError::from_sweep(
                    err,
                    format!("held-out write-energy grid V_DD = {vdd} V, T = {temp} degC"),
                )
            })?;

        // Eq. 8 (discharge energy): the golden backend supplies the achieved
        // delta, then both backends price the same discharge.
        let discharge_grid: Vec<(f64, f64)> = linspace(0.92, 1.08, 3)
            .iter()
            .flat_map(|&vdd| wordlines.iter().map(move |&v_wl| (vdd, v_wl)))
            .collect();
        let residuals_discharge_energy: Vec<f64> =
            par_map_sweep(&discharge_grid, self.threads, |_, &(vdd, v_wl)| {
                let pvt = nominal.with_vdd(Volts(vdd));
                let stimulus = self.stimulus(v_wl, duration);
                let delta = DischargeBackend::discharge_delta(simulator, &stimulus, &pvt)?;
                let reference =
                    DischargeBackend::discharge_energy(simulator, &stimulus, &pvt, delta)?.0;
                let predicted =
                    DischargeBackend::discharge_energy(fitted, &stimulus, &pvt, delta)?.0;
                Ok::<_, ModelError>(reference - predicted)
            })
            .map_err(|err| {
                let (vdd, v_wl) = discharge_grid[err.index];
                ModelError::from_sweep(
                    err,
                    format!("held-out discharge-energy grid V_DD = {vdd} V, V_WL = {v_wl} V"),
                )
            })?;

        Ok(RmsErrorReport {
            basic_discharge_mv: stats::rms(&residuals_basic) * 1e3,
            supply_mv: stats::rms(&residuals_supply) * 1e3,
            temperature_mv: stats::rms(&residuals_temperature) * 1e3,
            mismatch_sigma_mv: stats::rms(&residuals_sigma) * 1e3,
            write_energy_fj: stats::rms(&residuals_write),
            discharge_energy_fj: stats::rms(&residuals_discharge_energy),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::{CalibrationConfig, Calibrator};

    fn evaluator() -> ModelEvaluator {
        let tech = Technology::tsmc65_like();
        let models = Calibrator::new(tech.clone(), CalibrationConfig::fast())
            .run()
            .expect("calibration succeeds")
            .into_models();
        ModelEvaluator::new(tech, models).with_reference_time_steps(200)
    }

    #[test]
    fn rms_errors_are_below_an_adc_lsb() {
        let report = evaluator().rms_errors(4, 20).unwrap();
        // For an 8-bit ADC over ~0.5 V the LSB is ~2 mV; for the 4-bit result
        // range it is tens of mV.  The models must be well below that.
        assert!(report.basic_discharge_mv < 10.0, "{report:?}");
        assert!(report.supply_mv < 40.0, "{report:?}");
        assert!(report.temperature_mv < 25.0, "{report:?}");
        assert!(report.mismatch_sigma_mv < 5.0, "{report:?}");
        assert!(report.write_energy_fj < 1.0, "{report:?}");
        assert!(report.discharge_energy_fj < 2.0, "{report:?}");
        assert!(report.worst_voltage_error_mv() >= report.basic_discharge_mv);
    }

    #[test]
    fn rms_errors_are_bit_identical_at_any_thread_count() {
        let evaluator = evaluator();
        let serial = evaluator.clone().with_threads(1).rms_errors(4, 20).unwrap();
        let parallel = evaluator.with_threads(8).rms_errors(4, 20).unwrap();
        assert_eq!(serial, parallel);
    }
}
