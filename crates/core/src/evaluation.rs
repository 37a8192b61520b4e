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
//! between two backends.  The golden waveforms and `ΔV`s run in lock-step
//! batches ([`TransientSimulator::fill_transients`]), which answer every
//! query bit for bit as the golden backend does.  The only exceptions to
//! the shared interface are the Eq. 6 σ-model checks (mismatch sampling has
//! no common shape across the backends; the golden Monte Carlo runs one
//! query per instance through the same batches) and the Eq. 3 basic-model
//! residual, which deliberately measures the *uncorrected* sub-model.

use crate::backend::{golden_sigmas, golden_sweep, grid_queries, DischargeBackend};
use crate::error::ModelError;
use crate::model::suite::ModelSuite;
use crate::sweep::{par_map_sweep, par_map_sweep_with, SweepError};
use optima_circuit::montecarlo::MismatchModel;
use optima_circuit::pvt::{linspace, PvtConditions};
use optima_circuit::technology::Technology;
use optima_circuit::transient::{
    DischargeStimulus, LaneBuffer, TransientQuery, TransientSimulator,
};
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

    /// The residuals `golden − fitted` of each held-out query at `times`, in
    /// query order, and each query's golden `ΔV`.  A failure names the
    /// lowest failing query, the golden side first, where a sweep of one
    /// query per item stops.
    fn held_out_residuals(
        &self,
        queries: &[TransientQuery],
        times: &[Seconds],
    ) -> Result<(Vec<f64>, Vec<f64>), SweepError<ModelError>> {
        let golden = golden_sweep(&self.golden, queries, times, self.threads);
        let answered = golden
            .as_ref()
            .map_or_else(|err| err.index, |_| queries.len());
        let mut predicted = vec![0.0; queries.len() * times.len()];
        let predictions = queries.iter().zip(predicted.chunks_exact_mut(times.len()));
        for (index, (query, out)) in predictions.take(answered).enumerate() {
            self.models
                .fill_bitline_voltages(&query.stimulus, &query.pvt, times, out)
                .map_err(|source| SweepError { index, source })?;
        }
        let golden = golden?;
        let residuals = golden
            .voltages
            .iter()
            .zip(&predicted)
            .map(|(r, p)| r - p)
            .collect();
        Ok((residuals, golden.deltas))
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
        let sample_times: Vec<Seconds> = linspace(0.25e-9, 1.95e-9, grid_points)
            .into_iter()
            .map(Seconds)
            .collect();

        // Eq. 3 (nominal conditions).  Each held-out grid runs its reference
        // transients in lock-step chunks over the error-strict parallel
        // sweep engine and gets them back in grid order, so the reported
        // RMS numbers are bit-identical at any thread count.  The
        // reference equals the golden backend's answer bit for bit; the
        // prediction deliberately queries the *uncorrected* Eq. 3 sub-model
        // below the fitted backend.
        let stimulus = |v_wl: f64| self.stimulus(v_wl, duration);
        let basic_queries: Vec<TransientQuery> = wordlines
            .iter()
            .map(|&v_wl| TransientQuery::nominal(stimulus(v_wl), nominal))
            .collect();
        let basic = golden_sweep(simulator, &basic_queries, &sample_times, self.threads).map_err(
            |err| {
                let item = format!("held-out discharge grid V_WL = {} V", wordlines[err.index]);
                ModelError::from_sweep(err, item)
            },
        )?;
        let basic_model = self.models.discharge_model();
        let mut residuals_basic = Vec::with_capacity(basic.voltages.len());
        for (&v_wl, reference) in wordlines
            .iter()
            .zip(basic.voltages.chunks_exact(sample_times.len()))
        {
            for (&t, &r) in sample_times.iter().zip(reference) {
                residuals_basic.push(r - basic_model.bitline_voltage_unchecked(t, Volts(v_wl)));
            }
        }

        // Eq. 4 (supply sweep): both sides answer the same backend query.
        let (supply_grid, supply_queries) =
            grid_queries(&linspace(0.92, 1.08, 3), &wordlines, stimulus, |vdd| {
                nominal.with_vdd(Volts(vdd))
            });
        let (residuals_supply, supply_deltas) = self
            .held_out_residuals(&supply_queries, &sample_times)
            .map_err(|err| {
                let (vdd, v_wl) = supply_grid[err.index];
                ModelError::from_sweep(
                    err,
                    format!("held-out supply grid V_DD = {vdd} V, V_WL = {v_wl} V"),
                )
            })?;

        // Eq. 5 (temperature sweep).
        let (temperature_grid, temperature_queries) =
            grid_queries(&[-20.0, 50.0, 100.0], &wordlines, stimulus, |temp| {
                nominal.with_temperature(Celsius(temp))
            });
        let (residuals_temperature, _) = self
            .held_out_residuals(&temperature_queries, &sample_times)
            .map_err(|err| {
                let (temp, v_wl) = temperature_grid[err.index];
                ModelError::from_sweep(
                    err,
                    format!("held-out temperature grid T = {temp} degC, V_WL = {v_wl} V"),
                )
            })?;

        // Eq. 6 (mismatch σ).  Every word-line grid point shares the same
        // fixed-seed sample set (as the serial code did), drawn once up
        // front, so the Monte-Carlo reference is independent of the thread
        // count by construction.
        let mismatch_model = MismatchModel::from_technology(&self.technology);
        let mc = mc_samples.max(10);
        let mismatch_samples = mismatch_model.sample_n(mc, 0xe7a1);
        let residuals_sigma: Vec<f64> = par_map_sweep_with(
            &wordlines,
            self.threads,
            LaneBuffer::default,
            |buffer, _, &v_wl| {
                let reference = golden_sigmas(
                    simulator,
                    stimulus(v_wl),
                    nominal,
                    &mismatch_samples,
                    &sample_times,
                    buffer,
                )?;
                let row: Vec<f64> = sample_times
                    .iter()
                    .zip(reference)
                    .map(|(&t, sigma)| sigma - self.models.mismatch_sigma(t, Volts(v_wl)).0)
                    .collect();
                Ok::<_, ModelError>(row)
            },
        )
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

        // Eq. 8 (discharge energy): the golden Eq. 4 grid supplies the
        // achieved deltas, then both backends price the same discharge.
        let residuals_discharge_energy = supply_queries
            .iter()
            .zip(&supply_deltas)
            .map(|(TransientQuery { stimulus, pvt, .. }, &delta)| {
                let delta = Volts(delta);
                let reference =
                    DischargeBackend::discharge_energy(simulator, stimulus, pvt, delta)?.0;
                let predicted = DischargeBackend::discharge_energy(fitted, stimulus, pvt, delta)?.0;
                Ok(reference - predicted)
            })
            .collect::<Result<Vec<f64>, ModelError>>()?;

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

    /// A held-out query outside the calibrated word-line range names its
    /// grid point as a sweep of one transient per item did: the fitted side
    /// of the Eq. 4 grid fails at V_WL = 0.97 V, grid index 3.
    #[test]
    fn held_out_sweep_errors_name_the_failing_grid_point() {
        let tech = Technology::tsmc65_like();
        let config = CalibrationConfig {
            wordline_voltages: linspace(0.3, 0.8, 8),
            ..CalibrationConfig::fast()
        };
        let models = Calibrator::new(tech.clone(), config)
            .run()
            .expect("calibration succeeds")
            .into_models();
        let item = "held-out supply grid V_DD = 0.92 V, V_WL = 0.97 V";
        for threads in [1, 3] {
            let err = ModelEvaluator::new(tech.clone(), models.clone())
                .with_reference_time_steps(200)
                .with_threads(threads)
                .rms_errors(4, 20)
                .unwrap_err();
            let ModelError::SweepFailed {
                index,
                item: failed_item,
                ..
            } = &err
            else {
                panic!("expected a sweep failure, got {err:?}");
            };
            assert_eq!((*index, failed_item.as_str()), (3, item));
            assert_eq!(
                err.to_string(),
                format!(
                    "sweep item 3 ({item}) failed: word-line voltage [V] = 0.97 outside \
                     calibrated range [0.3, 0.8]"
                )
            );
        }
    }

    #[test]
    fn rms_errors_are_bit_identical_at_any_thread_count() {
        let evaluator = evaluator();
        let serial = evaluator.clone().with_threads(1).rms_errors(4, 20).unwrap();
        let parallel = evaluator.with_threads(8).rms_errors(4, 20).unwrap();
        assert_eq!(serial, parallel);
    }
}
