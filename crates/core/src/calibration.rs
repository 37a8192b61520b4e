//! Calibration of the OPTIMA models against golden-reference circuit simulation.
//!
//! This reproduces the workflow of Section IV of the paper:
//!
//! 1. **Execute thorough multi-corner circuit simulations** — transient
//!    discharge sweeps over word-line voltage, supply voltage, temperature
//!    and transistor mismatch using [`optima_circuit::transient`].
//! 2. **Develop behavioural models** — least-squares fits of the polynomial
//!    models of Eqs. 3–8 to that data ([`optima_math::lsq`]).
//! 3. **Incorporate the models into a discrete-time simulation framework** —
//!    the fitted [`ModelSuite`] feeds the in-SRAM multiplier of `optima-imc`
//!    (`optima_imc::multiplier::InSramMultiplier`), which executes each
//!    multiplication as a sequence of discrete bit-line discharges.

use crate::backend::{golden_sigmas, golden_sweep, grid_queries, DischargeBackend};
use crate::error::ModelError;
use crate::model::discharge::DischargeModel;
use crate::model::energy::{DischargeEnergyModel, WriteEnergyModel};
use crate::model::mismatch::MismatchSigmaModel;
use crate::model::suite::ModelSuite;
use crate::model::supply::SupplyModel;
use crate::model::temperature::TemperatureModel;
use crate::sweep::{par_map_sweep, par_map_sweep_with};
use optima_circuit::montecarlo::MismatchModel;
use optima_circuit::pvt::{linspace, PvtConditions};
use optima_circuit::technology::Technology;
use optima_circuit::transient::{
    DischargeStimulus, LaneBuffer, TransientQuery, TransientSimulator,
};
use optima_math::lsq::{polynomial_fit, SeparableFit};
use optima_math::stats;
use optima_math::units::{Celsius, Seconds, Volts};
use serde::{Deserialize, Serialize};

/// Polynomial degrees of the fitted models (the paper's choices by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelDegrees {
    /// Degree of `p(V_od)` in Eq. 3 (paper: 4).
    pub overdrive: usize,
    /// Degree of `p(t)` in Eq. 3 (paper: 2).
    pub time: usize,
    /// Degree of `p(ΔV_DD)` in Eq. 4 (paper: 2).
    pub supply: usize,
    /// Degree of `p(V_WL)` in Eq. 5 (paper: 3).
    pub temperature: usize,
    /// Degree of `p(t)` in Eq. 6 (paper: 3).
    pub mismatch_time: usize,
    /// Degree of `p(V_WL)` in Eq. 6 (paper: 3).
    pub mismatch_wordline: usize,
    /// Degree of `p(V_DD)` in Eq. 7 (paper: 2).
    pub write_vdd: usize,
    /// Degree of `p(T)` in Eq. 7 (paper: 1).
    pub write_temperature: usize,
    /// Degree of `p(V_DD)` in Eq. 8 (paper: 1).
    pub discharge_energy_vdd: usize,
    /// Degree of `p(ΔV_BL)` in Eq. 8 (paper: 3).
    pub discharge_energy_delta: usize,
    /// Degree of `p(T)` in Eq. 8 (paper: 1).
    pub discharge_energy_temperature: usize,
}

impl Default for ModelDegrees {
    fn default() -> Self {
        ModelDegrees {
            overdrive: 4,
            time: 2,
            supply: 2,
            temperature: 3,
            mismatch_time: 3,
            mismatch_wordline: 3,
            write_vdd: 2,
            write_temperature: 1,
            discharge_energy_vdd: 1,
            discharge_energy_delta: 3,
            discharge_energy_temperature: 1,
        }
    }
}

/// Configuration of the calibration sweep grids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationConfig {
    /// Word-line voltages of the basic discharge sweep (volts).
    pub wordline_voltages: Vec<f64>,
    /// Number of time samples extracted from every simulated waveform.
    pub time_samples: usize,
    /// Duration of every discharge transient.
    pub max_time: Seconds,
    /// Supply voltages of the Eq. 4 sweep (volts).
    pub supply_voltages: Vec<f64>,
    /// Temperatures of the Eq. 5 sweep (°C).
    pub temperatures: Vec<f64>,
    /// Word-line voltages used for the supply/temperature/mismatch sweeps
    /// (a subset keeps the calibration fast).
    pub secondary_wordline_voltages: Vec<f64>,
    /// Number of Monte Carlo samples per grid point for the Eq. 6 fit.
    pub mismatch_samples: usize,
    /// Number of time grid points for the Eq. 6 fit.
    pub mismatch_time_points: usize,
    /// RNG seed for the mismatch sampling.
    pub seed: u64,
    /// Number of cells attached to the simulated bit-line.
    pub cells_on_bitline: usize,
    /// Integration steps of the golden-reference transient solver.
    pub reference_time_steps: usize,
    /// Polynomial degrees of all models.
    pub degrees: ModelDegrees,
    /// Worker threads of the calibration sweeps (`0` = automatic, see
    /// [`optima_core::sweep::default_threads`](crate::sweep::default_threads)).
    /// The fitted models are bit-identical for any thread count.
    pub threads: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            wordline_voltages: linspace(0.35, 1.0, 14),
            time_samples: 32,
            max_time: Seconds(2e-9),
            supply_voltages: linspace(0.9, 1.1, 5),
            temperatures: vec![-40.0, 0.0, 25.0, 75.0, 125.0],
            secondary_wordline_voltages: linspace(0.45, 1.0, 6),
            mismatch_samples: 150,
            mismatch_time_points: 8,
            seed: 0x517e_ca11,
            cells_on_bitline: 16,
            reference_time_steps: 400,
            degrees: ModelDegrees::default(),
            threads: 0,
        }
    }
}

impl CalibrationConfig {
    /// A reduced configuration for unit tests and quick experiments
    /// (coarser grids, fewer Monte Carlo samples).
    pub fn fast() -> Self {
        CalibrationConfig {
            // Keep the same lower word-line bound as the default grid so that
            // models calibrated with the fast grid still cover the paper's
            // V_DAC,0 = 0.3 V design corners.
            wordline_voltages: linspace(0.3, 1.0, 8),
            time_samples: 16,
            supply_voltages: linspace(0.9, 1.1, 3),
            temperatures: vec![0.0, 25.0, 75.0],
            secondary_wordline_voltages: linspace(0.5, 1.0, 4),
            mismatch_samples: 40,
            mismatch_time_points: 5,
            reference_time_steps: 200,
            ..CalibrationConfig::default()
        }
    }
}

/// Training-residual summary of one calibration run.
///
/// The held-out evaluation equivalent of the paper's Fig. 6 numbers is
/// produced by [`crate::evaluation::ModelEvaluator::rms_errors`]; the values
/// here are the residuals on the *training* grid and serve as a quick sanity
/// check that each fit converged.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// RMS residual of the basic discharge fit (millivolts).
    pub basic_discharge_rms_mv: f64,
    /// RMS residual of the supply-corrected model (millivolts).
    pub supply_rms_mv: f64,
    /// RMS residual of the temperature-corrected model (millivolts).
    pub temperature_rms_mv: f64,
    /// RMS residual of the mismatch σ fit (millivolts).
    pub mismatch_sigma_rms_mv: f64,
    /// RMS residual of the write-energy fit (femtojoules).
    pub write_energy_rms_fj: f64,
    /// RMS residual of the discharge-energy fit (femtojoules).
    pub discharge_energy_rms_fj: f64,
    /// Number of transient circuit simulations executed during calibration.
    pub circuit_simulations: usize,
    /// Number of scalar training samples used across all fits.
    pub training_samples: usize,
}

/// Result of a calibration run: the fitted models plus the training report.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationOutcome {
    models: ModelSuite,
    report: CalibrationReport,
}

impl CalibrationOutcome {
    /// Reassembles an outcome from its parts (used by snapshot loading and
    /// by tests that construct hand-made outcomes).
    pub fn from_parts(models: ModelSuite, report: CalibrationReport) -> Self {
        CalibrationOutcome { models, report }
    }

    /// The fitted model suite.
    pub fn models(&self) -> &ModelSuite {
        &self.models
    }

    /// Consumes the outcome and returns the fitted model suite.
    pub fn into_models(self) -> ModelSuite {
        self.models
    }

    /// The training-residual report.
    pub fn report(&self) -> &CalibrationReport {
        &self.report
    }
}

/// Runs circuit-simulation sweeps and fits the OPTIMA models.
#[derive(Debug, Clone)]
pub struct Calibrator {
    technology: Technology,
    config: CalibrationConfig,
}

impl Calibrator {
    /// Creates a calibrator for the given technology and sweep configuration.
    pub fn new(technology: Technology, config: CalibrationConfig) -> Self {
        Calibrator { technology, config }
    }

    /// The sweep configuration.
    pub fn config(&self) -> &CalibrationConfig {
        &self.config
    }

    /// The technology being calibrated.
    pub fn technology(&self) -> &Technology {
        &self.technology
    }

    /// Runs the full calibration: circuit sweeps, least-squares fits,
    /// residual reporting.
    ///
    /// The golden transients of the Eq. 3/4/5 waveform sweeps and the Eq. 8
    /// `ΔV` sweeps run in lock-step chunks of
    /// [`LANES`](optima_circuit::transient::LANES) queries through
    /// [`TransientSimulator::fill_transients`], fanned out over the sweep
    /// workers.  Every sample and `ΔV` equals, bit for bit, the answer of
    /// the golden simulator's [`DischargeBackend`] interface — the interface
    /// the fitted models implement — and the energies come through that
    /// interface, so the residuals measured here and the held-out errors of
    /// [`crate::evaluation::ModelEvaluator`] are defined against one
    /// contract.  The Eq. 6 mismatch Monte Carlo runs one query per
    /// [`optima_circuit::montecarlo::MismatchSample`] instance, which has no
    /// fitted-side equivalent, through the same
    /// [`TransientSimulator::fill_transients`] batches, one word line per
    /// sweep item.  Each grid point stays its own transient, so
    /// [`CalibrationReport::circuit_simulations`] counts one per point.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CalibrationFailed`] when a fit cannot be
    /// performed (degenerate grids) and propagates circuit/numeric errors.
    pub fn run(&self) -> Result<CalibrationOutcome, ModelError> {
        let simulator = TransientSimulator::new(self.technology.clone());
        let nominal = PvtConditions::nominal(&self.technology);
        let mut report = CalibrationReport::default();

        let discharge = self.fit_discharge(&simulator, &nominal, &mut report)?;
        let supply = self.fit_supply(&simulator, &nominal, &discharge, &mut report)?;
        let temperature =
            self.fit_temperature(&simulator, &nominal, &discharge, &supply, &mut report)?;
        let mismatch = self.fit_mismatch(&simulator, &nominal, &mut report)?;
        let write_energy = self.fit_write_energy(&simulator, &nominal, &mut report)?;
        let discharge_energy = self.fit_discharge_energy(&simulator, &nominal, &mut report)?;

        let models = ModelSuite::new(
            discharge,
            supply,
            temperature,
            mismatch,
            write_energy,
            discharge_energy,
        );
        Ok(CalibrationOutcome { models, report })
    }

    /// Time grid (seconds) at which every waveform is sampled, excluding `t = 0`.
    fn time_grid(&self) -> Vec<f64> {
        let n = self.config.time_samples.max(2);
        (1..=n)
            .map(|i| self.config.max_time.0 * i as f64 / n as f64)
            .collect()
    }

    /// The [`time_grid`](Calibrator::time_grid) as typed seconds, the form
    /// the [`DischargeBackend`] interface consumes.
    fn time_grid_seconds(&self) -> Vec<Seconds> {
        self.time_grid().into_iter().map(Seconds).collect()
    }

    fn stimulus(&self, v_wl: f64) -> DischargeStimulus {
        DischargeStimulus {
            word_line_voltage: Volts(v_wl),
            stored_bit: true,
            duration: self.config.max_time,
            cells_on_bitline: self.config.cells_on_bitline,
            time_steps: self.config.reference_time_steps,
        }
    }

    /// The `conditions × secondary_wordline_voltages` grid and its golden
    /// queries at the operating points `pvt(condition)`.
    fn secondary_grid(
        &self,
        conditions: &[f64],
        pvt: impl Fn(f64) -> PvtConditions,
    ) -> (Vec<(f64, f64)>, Vec<TransientQuery>) {
        let wordlines = &self.config.secondary_wordline_voltages;
        grid_queries(conditions, wordlines, |v_wl| self.stimulus(v_wl), pvt)
    }

    /// Eq. 3: separable fit of `V_BL − V_DD` over `(V_od, t)`.
    fn fit_discharge(
        &self,
        simulator: &TransientSimulator,
        nominal: &PvtConditions,
        report: &mut CalibrationReport,
    ) -> Result<DischargeModel, ModelError> {
        let vth = self.technology.nmos_vth.0;
        let times = self.time_grid();
        let sample_times = self.time_grid_seconds();

        // One transient simulation per word-line voltage, batched in
        // lock-step chunks swept in parallel and answered in grid order, so
        // the fit input (and thus the fitted model) is bit-identical at any
        // thread count.
        let wordlines = &self.config.wordline_voltages;
        let queries: Vec<TransientQuery> = wordlines
            .iter()
            .map(|&v_wl| TransientQuery::nominal(self.stimulus(v_wl), *nominal))
            .collect();
        let golden = golden_sweep(simulator, &queries, &sample_times, self.config.threads)
            .map_err(|err| {
                let item = format!("discharge sweep V_WL = {} V", wordlines[err.index]);
                ModelError::from_sweep(err, item)
            })?;
        report.circuit_simulations += wordlines.len();

        let mut overdrives = Vec::new();
        let mut time_ns = Vec::new();
        let mut drops = Vec::new();
        for (&v_wl, voltages) in wordlines
            .iter()
            .zip(golden.voltages.chunks_exact(times.len()))
        {
            for (&t, &v) in times.iter().zip(voltages) {
                overdrives.push(v_wl - vth);
                time_ns.push(t * 1e9);
                drops.push(v - nominal.vdd.0);
            }
        }
        report.training_samples += drops.len();

        let fit = SeparableFit::fit(
            &overdrives,
            &time_ns,
            &drops,
            self.config.degrees.overdrive,
            self.config.degrees.time,
            10,
        )
        .map_err(|err| ModelError::CalibrationFailed {
            model: "discharge (Eq. 3)".to_string(),
            reason: err.to_string(),
        })?;
        report.basic_discharge_rms_mv = fit.residual_rms() * 1e3;

        let vwl_lo = self
            .config
            .wordline_voltages
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let vwl_hi = self
            .config
            .wordline_voltages
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        Ok(DischargeModel::new(
            nominal.vdd,
            Volts(vth),
            fit.factor_x().clone(),
            fit.factor_y().clone(),
            (0.0, self.config.max_time.0 * 1e9),
            (vwl_lo, vwl_hi),
        ))
    }

    /// Eq. 4: fit the multiplicative `p2(ΔV_DD)` correction.
    fn fit_supply(
        &self,
        simulator: &TransientSimulator,
        nominal: &PvtConditions,
        discharge: &DischargeModel,
        report: &mut CalibrationReport,
    ) -> Result<SupplyModel, ModelError> {
        let times = self.time_grid();
        let sample_times = self.time_grid_seconds();
        let (grid, queries) = self.secondary_grid(&self.config.supply_voltages, |vdd| {
            nominal.with_vdd(Volts(vdd))
        });
        let golden = golden_sweep(simulator, &queries, &sample_times, self.config.threads)
            .map_err(|err| {
                let (vdd, v_wl) = grid[err.index];
                ModelError::from_sweep(err, format!("supply sweep V_DD = {vdd} V, V_WL = {v_wl} V"))
            })?;
        report.circuit_simulations += grid.len();

        let mut delta_vdds = Vec::new();
        let mut ratios = Vec::new();
        let mut reference = Vec::new();
        let mut predicted_base = Vec::new();
        for (&(vdd, v_wl), voltages) in grid.iter().zip(golden.voltages.chunks_exact(times.len())) {
            for (&t, &v_circuit) in times.iter().zip(voltages) {
                let v_base = discharge.bitline_voltage_unchecked(Seconds(t), Volts(v_wl));
                if v_base > 0.05 {
                    delta_vdds.push(vdd - nominal.vdd.0);
                    ratios.push(v_circuit / v_base);
                    reference.push(v_circuit);
                    predicted_base.push(v_base);
                }
            }
        }
        report.training_samples += ratios.len();

        let correction =
            polynomial_fit(&delta_vdds, &ratios, self.config.degrees.supply).map_err(|err| {
                ModelError::CalibrationFailed {
                    model: "supply (Eq. 4)".to_string(),
                    reason: err.to_string(),
                }
            })?;

        // Training residual of the corrected model, in mV.
        let residuals: Vec<f64> = reference
            .iter()
            .zip(predicted_base.iter())
            .zip(delta_vdds.iter())
            .map(|((v_ref, v_base), dv)| v_ref - v_base * correction.eval(*dv))
            .collect();
        report.supply_rms_mv = stats::rms(&residuals) * 1e3;

        let lo = self
            .config
            .supply_voltages
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .config
            .supply_voltages
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        Ok(SupplyModel::new(nominal.vdd, correction, (lo, hi)))
    }

    /// Eq. 5: fit the additive temperature sensitivity `p3(V_WL)`.
    fn fit_temperature(
        &self,
        simulator: &TransientSimulator,
        nominal: &PvtConditions,
        discharge: &DischargeModel,
        supply: &SupplyModel,
        report: &mut CalibrationReport,
    ) -> Result<TemperatureModel, ModelError> {
        let times = self.time_grid();
        let t_nominal = self.technology.temperature_nominal.0;
        // Per sample: (v_circuit, v_model, t_ns, ΔT, v_wl).
        let sample_times = self.time_grid_seconds();
        let (grid, queries) = self.secondary_grid(&self.config.temperatures, |temp| {
            nominal.with_temperature(Celsius(temp))
        });
        let golden = golden_sweep(simulator, &queries, &sample_times, self.config.threads)
            .map_err(|err| {
                let (temp, v_wl) = grid[err.index];
                ModelError::from_sweep(
                    err,
                    format!("temperature sweep T = {temp} degC, V_WL = {v_wl} V"),
                )
            })?;
        report.circuit_simulations += grid.len();

        let mut samples = Vec::with_capacity(golden.voltages.len());
        for (&(temp, v_wl), voltages) in grid.iter().zip(golden.voltages.chunks_exact(times.len()))
        {
            let delta_t = temp - t_nominal;
            for (&t, &v_circuit) in times.iter().zip(voltages) {
                let base = discharge.bitline_voltage_unchecked(Seconds(t), Volts(v_wl));
                let v_model = supply.apply(base, nominal.vdd);
                samples.push((v_circuit, v_model, t * 1e9, delta_t, v_wl));
            }
        }
        let mut wordlines = Vec::new();
        let mut scaled_residuals = Vec::new();
        for &(v_circuit, v_model, t_ns, delta_t, v_wl) in &samples {
            // Only use samples with a meaningful scale factor for the fit.
            if delta_t.abs() > 1.0 && t_ns > 0.2 {
                wordlines.push(v_wl);
                scaled_residuals.push((v_circuit - v_model) / (t_ns * delta_t));
            }
        }
        report.training_samples += wordlines.len();

        let sensitivity = polynomial_fit(
            &wordlines,
            &scaled_residuals,
            self.config.degrees.temperature,
        )
        .map_err(|err| ModelError::CalibrationFailed {
            model: "temperature (Eq. 5)".to_string(),
            reason: err.to_string(),
        })?;

        let residuals: Vec<f64> = samples
            .iter()
            .map(|&(v_ref, v_model, t_ns, delta_t, v_wl)| {
                v_ref - (v_model + t_ns * delta_t * sensitivity.eval(v_wl))
            })
            .collect();
        report.temperature_rms_mv = stats::rms(&residuals) * 1e3;

        let lo = self
            .config
            .temperatures
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .config
            .temperatures
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        Ok(TemperatureModel::new(
            Celsius(t_nominal),
            sensitivity,
            (lo, hi),
        ))
    }

    /// Eq. 6: Monte Carlo sweep and separable fit of the σ surface.
    fn fit_mismatch(
        &self,
        simulator: &TransientSimulator,
        nominal: &PvtConditions,
        report: &mut CalibrationReport,
    ) -> Result<MismatchSigmaModel, ModelError> {
        let mismatch_model = MismatchModel::from_technology(&self.technology);
        let n_time = self.config.mismatch_time_points.max(2);
        let times: Vec<Seconds> = (1..=n_time)
            .map(|i| Seconds(self.config.max_time.0 * i as f64 / n_time as f64))
            .collect();

        // Each word-line grid point draws its own seeded Monte-Carlo stream
        // (seed + wl_index, as the serial code always did), so the sampled
        // waveforms — and therefore the fitted σ surface — do not depend on
        // how grid points are distributed over worker threads.
        let rows = par_map_sweep_with(
            &self.config.secondary_wordline_voltages,
            self.config.threads,
            LaneBuffer::default,
            |buffer, wl_index, &v_wl| {
                let samples = mismatch_model.sample_n(
                    self.config.mismatch_samples,
                    self.config.seed.wrapping_add(wl_index as u64),
                );
                let stimulus = self.stimulus(v_wl);
                let sigmas =
                    golden_sigmas(simulator, stimulus, *nominal, &samples, &times, buffer)?;
                let row: Vec<(f64, f64, f64)> = times
                    .iter()
                    .zip(sigmas)
                    .map(|(&t, sigma)| (t.0 * 1e9, v_wl, sigma))
                    .collect();
                Ok::<_, ModelError>(row)
            },
        )
        .map_err(|err| {
            let item = format!(
                "mismatch Monte-Carlo sweep V_WL = {} V",
                self.config.secondary_wordline_voltages[err.index]
            );
            ModelError::from_sweep(err, item)
        })?;
        report.circuit_simulations +=
            self.config.secondary_wordline_voltages.len() * self.config.mismatch_samples;

        let mut grid_time_ns = Vec::new();
        let mut grid_wordline = Vec::new();
        let mut grid_sigma = Vec::new();
        for (t_ns, v_wl, sigma) in rows.into_iter().flatten() {
            grid_time_ns.push(t_ns);
            grid_wordline.push(v_wl);
            grid_sigma.push(sigma);
        }
        report.training_samples += grid_sigma.len();

        let fit = SeparableFit::fit(
            &grid_time_ns,
            &grid_wordline,
            &grid_sigma,
            self.config.degrees.mismatch_time,
            self.config.degrees.mismatch_wordline,
            10,
        )
        .map_err(|err| ModelError::CalibrationFailed {
            model: "mismatch (Eq. 6)".to_string(),
            reason: err.to_string(),
        })?;
        report.mismatch_sigma_rms_mv = fit.residual_rms() * 1e3;

        Ok(MismatchSigmaModel::new(
            fit.factor_x().clone(),
            fit.factor_y().clone(),
        ))
    }

    /// Eq. 7: separable fit of the write energy over `(V_DD, T)`.
    fn fit_write_energy(
        &self,
        simulator: &TransientSimulator,
        nominal: &PvtConditions,
        report: &mut CalibrationReport,
    ) -> Result<WriteEnergyModel, ModelError> {
        let grid: Vec<(f64, f64)> = self
            .config
            .supply_voltages
            .iter()
            .flat_map(|&vdd| {
                self.config
                    .temperatures
                    .iter()
                    .map(move |&temp| (vdd, temp))
            })
            .collect();
        let energies = par_map_sweep(&grid, self.config.threads, |_, &(vdd, temp)| {
            let pvt = nominal.with_vdd(Volts(vdd)).with_temperature(Celsius(temp));
            let e = DischargeBackend::write_energy(simulator, &pvt)?;
            Ok::<_, ModelError>(e.0)
        })
        .map_err(|err| {
            let (vdd, temp) = grid[err.index];
            ModelError::from_sweep(
                err,
                format!("write-energy sweep V_DD = {vdd} V, T = {temp} degC"),
            )
        })?;

        let (vdds, temps): (Vec<f64>, Vec<f64>) = grid.iter().copied().unzip();
        let energies_fj = energies;
        report.training_samples += energies_fj.len();

        let fit = SeparableFit::fit(
            &vdds,
            &temps,
            &energies_fj,
            self.config.degrees.write_vdd,
            self.config.degrees.write_temperature,
            10,
        )
        .map_err(|err| ModelError::CalibrationFailed {
            model: "write energy (Eq. 7)".to_string(),
            reason: err.to_string(),
        })?;
        report.write_energy_rms_fj = fit.residual_rms();

        Ok(WriteEnergyModel::new(
            fit.factor_x().clone(),
            fit.factor_y().clone(),
        ))
    }

    /// Eq. 8: fit of the discharge energy as `p1(V_DD) · p3(ΔV_BL) · p1(T)`.
    fn fit_discharge_energy(
        &self,
        simulator: &TransientSimulator,
        nominal: &PvtConditions,
        report: &mut CalibrationReport,
    ) -> Result<DischargeEnergyModel, ModelError> {
        // Stage 1: nominal temperature, sweep (V_DD, V_WL) → fit p1(VDD)·p3(ΔV).
        let (stage1_grid, stage1_queries) = self
            .secondary_grid(&self.config.supply_voltages, |vdd| {
                nominal.with_vdd(Volts(vdd))
            });
        let delta_vs = golden_sweep(simulator, &stage1_queries, &[], self.config.threads)
            .map_err(|err| {
                let (vdd, v_wl) = stage1_grid[err.index];
                ModelError::from_sweep(
                    err,
                    format!("discharge-energy sweep V_DD = {vdd} V, V_WL = {v_wl} V"),
                )
            })?
            .deltas;
        report.circuit_simulations += stage1_grid.len();

        let vdds: Vec<f64> = stage1_grid.iter().map(|&(vdd, _)| vdd).collect();
        let energies_fj = golden_energies(simulator, &stage1_queries, &delta_vs)?;
        let stage1 = SeparableFit::fit(
            &delta_vs,
            &vdds,
            &energies_fj,
            self.config.degrees.discharge_energy_delta,
            self.config.degrees.discharge_energy_vdd,
            10,
        )
        .map_err(|err| ModelError::CalibrationFailed {
            model: "discharge energy (Eq. 8, stage 1)".to_string(),
            reason: err.to_string(),
        })?;

        // Stage 2: temperature factor from the nominal-supply temperature sweep.
        let (stage2_grid, stage2_queries) = self
            .secondary_grid(&self.config.temperatures, |temp| {
                nominal.with_temperature(Celsius(temp))
            });
        let stage2_deltas = golden_sweep(simulator, &stage2_queries, &[], self.config.threads)
            .map_err(|err| {
                let (temp, v_wl) = stage2_grid[err.index];
                ModelError::from_sweep(
                    err,
                    format!("discharge-energy sweep T = {temp} degC, V_WL = {v_wl} V"),
                )
            })?
            .deltas;
        report.circuit_simulations += stage2_grid.len();
        let stage2_energies = golden_energies(simulator, &stage2_queries, &stage2_deltas)?;

        let mut temps = Vec::new();
        let mut ratios = Vec::new();
        let mut stage2_reference = Vec::new();
        let mut stage2_base = Vec::new();
        let stage2_rows = stage2_grid.iter().zip(&stage2_deltas).zip(stage2_energies);
        for ((&(temp, _), &delta), e) in stage2_rows {
            let base = stage1.eval(delta, nominal.vdd.0);
            if base > 1e-6 {
                temps.push(temp);
                ratios.push(e / base);
                stage2_reference.push(e);
                stage2_base.push(base);
            }
        }
        report.training_samples += energies_fj.len() + ratios.len();

        let temperature_factor = polynomial_fit(
            &temps,
            &ratios,
            self.config.degrees.discharge_energy_temperature,
        )
        .map_err(|err| ModelError::CalibrationFailed {
            model: "discharge energy (Eq. 8, stage 2)".to_string(),
            reason: err.to_string(),
        })?;

        let residuals: Vec<f64> = stage2_reference
            .iter()
            .zip(stage2_base.iter())
            .zip(temps.iter())
            .map(|((e, base), t)| e - base * temperature_factor.eval(*t))
            .collect();
        report.discharge_energy_rms_fj = stats::rms(&residuals);

        Ok(DischargeEnergyModel::new(
            stage1.factor_y().clone(),
            stage1.factor_x().clone(),
            temperature_factor,
        ))
    }
}

/// The golden discharge energy (fJ) of each query at its achieved `ΔV`.
fn golden_energies(
    simulator: &TransientSimulator,
    queries: &[TransientQuery],
    deltas: &[f64],
) -> Result<Vec<f64>, ModelError> {
    queries
        .iter()
        .zip(deltas)
        .map(|(query, &delta)| {
            let energy = DischargeBackend::discharge_energy(
                simulator,
                &query.stimulus,
                &query.pvt,
                Volts(delta),
            )?;
            Ok(energy.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use optima_circuit::montecarlo::MismatchSample;

    fn calibrated() -> CalibrationOutcome {
        let tech = Technology::tsmc65_like();
        Calibrator::new(tech, CalibrationConfig::fast())
            .run()
            .expect("calibration succeeds")
    }

    #[test]
    fn calibration_produces_small_training_residuals() {
        let outcome = calibrated();
        let report = outcome.report();
        // The paper reports sub-millivolt RMS errors; our golden reference is
        // different, so we only require "clearly below an ADC LSB" (a few mV).
        assert!(
            report.basic_discharge_rms_mv < 10.0,
            "basic discharge rms {} mV too large",
            report.basic_discharge_rms_mv
        );
        assert!(report.supply_rms_mv < 40.0);
        assert!(report.temperature_rms_mv < 25.0);
        assert!(report.mismatch_sigma_rms_mv < 5.0);
        assert!(report.write_energy_rms_fj < 1.0);
        assert!(report.discharge_energy_rms_fj < 2.0);
        assert!(report.circuit_simulations > 50);
        assert!(report.training_samples > 200);
    }

    #[test]
    fn calibrated_discharge_tracks_circuit_simulation() {
        let tech = Technology::tsmc65_like();
        let outcome = calibrated();
        let models = outcome.models();
        let simulator = TransientSimulator::new(tech.clone());
        let nominal = PvtConditions::nominal(&tech);

        for &v_wl in &[0.55, 0.7, 0.85, 1.0] {
            for &t in &[0.4e-9, 1.0e-9, 1.6e-9] {
                let stim = DischargeStimulus {
                    word_line_voltage: Volts(v_wl),
                    duration: Seconds(2e-9),
                    cells_on_bitline: 16,
                    time_steps: 400,
                    stored_bit: true,
                };
                let waveform = simulator
                    .discharge_waveform(&stim, &nominal, &MismatchSample::none())
                    .unwrap();
                let reference = waveform.sample_at(Seconds(t)).unwrap().0;
                let predicted = models
                    .bitline_voltage(Seconds(t), Volts(v_wl), Volts(1.0), Celsius(25.0))
                    .unwrap()
                    .0;
                assert!(
                    (reference - predicted).abs() < 0.02,
                    "model deviates by {} V at v_wl={v_wl}, t={t}",
                    (reference - predicted).abs()
                );
            }
        }
    }

    #[test]
    fn calibrated_mismatch_sigma_grows_with_wordline_voltage() {
        let outcome = calibrated();
        let models = outcome.models();
        let low = models.mismatch_sigma(Seconds(1.5e-9), Volts(0.6)).0;
        let high = models.mismatch_sigma(Seconds(1.5e-9), Volts(1.0)).0;
        assert!(
            high > low,
            "Fig. 5d behaviour missing: sigma(1.0 V) = {high} <= sigma(0.6 V) = {low}"
        );
    }

    #[test]
    fn calibrated_energy_models_are_physical() {
        let outcome = calibrated();
        let models = outcome.models();
        let write_nominal = models.write_energy(Volts(1.0), Celsius(25.0)).0;
        let write_high = models.write_energy(Volts(1.1), Celsius(25.0)).0;
        assert!(write_nominal > 0.0);
        assert!(write_high > write_nominal);
        let e_small = models
            .discharge_energy(Volts(0.05), Volts(1.0), Celsius(25.0))
            .0;
        let e_large = models
            .discharge_energy(Volts(0.35), Volts(1.0), Celsius(25.0))
            .0;
        assert!(e_large > e_small);
    }

    #[test]
    fn calibration_is_bit_identical_at_any_thread_count() {
        // The fitted models are built from sweep data reassembled in grid
        // order (with per-grid-point Monte-Carlo streams), so the fits must
        // not depend on how the sweeps are distributed over threads.
        let tech = Technology::tsmc65_like();
        let serial = Calibrator::new(
            tech.clone(),
            CalibrationConfig {
                threads: 1,
                ..CalibrationConfig::fast()
            },
        )
        .run()
        .unwrap();
        let parallel = Calibrator::new(
            tech,
            CalibrationConfig {
                threads: 8,
                ..CalibrationConfig::fast()
            },
        )
        .run()
        .unwrap();
        assert_eq!(serial.models(), parallel.models());
        assert_eq!(serial.report(), parallel.report());
    }

    /// A failing golden transient names its grid point as a sweep of one
    /// transient per item did: the NaN supply of the Eq. 4 sweep, at grid
    /// index 18 (the default grid's second lock-step chunk) and at index 4
    /// (inside the fast grid's first chunk), at one and three threads.
    #[test]
    fn sweep_errors_name_the_failing_grid_point() {
        let tech = Technology::tsmc65_like();
        let cases = [
            (
                CalibrationConfig {
                    supply_voltages: vec![0.9, 0.95, 1.0, f64::NAN, 1.1],
                    ..CalibrationConfig::default()
                },
                18,
                "supply sweep V_DD = NaN V, V_WL = 0.45 V",
            ),
            (
                CalibrationConfig {
                    supply_voltages: vec![0.9, f64::NAN, 1.1],
                    ..CalibrationConfig::fast()
                },
                4,
                "supply sweep V_DD = NaN V, V_WL = 0.5 V",
            ),
        ];
        for (config, index, item) in cases {
            for threads in [1, 3] {
                let config = CalibrationConfig {
                    threads,
                    ..config.clone()
                };
                let err = Calibrator::new(tech.clone(), config).run().unwrap_err();
                let ModelError::SweepFailed {
                    index: failed,
                    item: failed_item,
                    ..
                } = &err
                else {
                    panic!("expected a sweep failure, got {err:?}");
                };
                assert_eq!((*failed, failed_item.as_str()), (index, item));
                assert_eq!(
                    err.to_string(),
                    format!(
                        "sweep item {index} ({item}) failed: circuit simulation error: \
                         invalid operating point: supply voltage must be positive and \
                         finite, got NaN"
                    )
                );
            }
        }
    }

    #[test]
    fn fast_config_is_smaller_than_default() {
        let fast = CalibrationConfig::fast();
        let default = CalibrationConfig::default();
        assert!(fast.wordline_voltages.len() < default.wordline_voltages.len());
        assert!(fast.mismatch_samples < default.mismatch_samples);
        assert_eq!(default.degrees, ModelDegrees::default());
    }

    #[test]
    fn outcome_accessors() {
        let outcome = calibrated();
        assert_eq!(outcome.models().vdd_nominal(), Volts(1.0));
        let models = outcome.clone().into_models();
        assert_eq!(&models, outcome.models());
    }
}
