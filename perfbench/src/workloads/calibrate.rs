//! `calibrate`: the golden-reference-heavy path.
//!
//! One unit, at one array height (rows cycle over 16, 32, 64 and 128):
//! `Calibrator::run` on the default grid, the held-out
//! `ModelEvaluator::rms_errors(10, 150)`, and the Section V queries — a
//! 16 × 16 word-line × time sweep and 300 mismatch samples — answered by
//! both the golden `TransientSimulator` and the fitted `ModelSuite`, each
//! side on one thread.

use super::Workload;
use crate::checks;
use crate::digest::Digest;
use crate::setup::{calibrate_private, calibration_config};
use crate::trace::Tracer;
use crate::{BenchError, Config};
use optima_circuit::montecarlo::MismatchModel;
use optima_circuit::pvt::{linspace, PvtConditions};
use optima_circuit::technology::Technology;
use optima_circuit::transient::{DischargeStimulus, TransientSimulator};
use optima_core::backend::DischargeBackend;
use optima_core::calibration::{CalibrationConfig, CalibrationReport, Calibrator};
use optima_core::evaluation::{ModelEvaluator, RmsErrorReport};
use optima_core::sweep::stream_seed;
use optima_core::ModelSuite;
use optima_math::units::{Celsius, Seconds, Volts};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;

/// Array heights the units cycle over.
pub const HEIGHTS: [u16; 4] = [16, 32, 64, 128];

/// Word-line voltage and sampling instant of the Monte-Carlo query.
const MC_WORD_LINE: f64 = 0.8;
const MC_TIME: f64 = 1.0e-9;

/// Sizes of one unit.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    held_out_grid: usize,
    held_out_mc: usize,
    sweep_points: usize,
    mc_samples: usize,
}

/// Outputs of the last unit.
#[derive(Debug, Clone, Default)]
struct Outputs {
    config: Option<CalibrationConfig>,
    report: CalibrationReport,
    rms: RmsErrorReport,
    circuit_sweep: Vec<f64>,
    model_sweep: Vec<f64>,
    circuit_mc: Vec<f64>,
    model_mc: Vec<f64>,
}

/// Workload state.
#[derive(Debug)]
pub struct Calibrate {
    config: Config,
    technology: Technology,
    simulator: TransientSimulator,
    sizes: Sizes,
    last: Outputs,
    worst_rms_16_rows_mv: f64,
}

/// Circuit simulations `Calibrator::run` performs on `config`'s grids.
pub fn expected_circuit_simulations(config: &CalibrationConfig) -> usize {
    let secondary = config.secondary_wordline_voltages.len();
    config.wordline_voltages.len()
        + secondary
            * (2 * config.supply_voltages.len()
                + 2 * config.temperatures.len()
                + config.mismatch_samples)
}

impl Calibrate {
    fn stimulus(v_wl: f64, rows: u16) -> DischargeStimulus {
        DischargeStimulus {
            word_line_voltage: Volts(v_wl),
            stored_bit: true,
            duration: Seconds(2e-9),
            cells_on_bitline: usize::from(rows),
            time_steps: 400,
        }
    }

    /// The Section V queries, golden side then fitted side, both serial.
    fn section5(
        &mut self,
        models: &ModelSuite,
        rows: u16,
        mc_seed: u64,
        tracer: &mut Tracer,
    ) -> Result<(), BenchError> {
        let nominal = PvtConditions::nominal(&self.technology);
        let n = self.sizes.sweep_points;
        let wordlines = linspace(0.5, 1.0, n);
        let times: Vec<Seconds> = linspace(0.2e-9, 1.9e-9, n)
            .into_iter()
            .map(Seconds)
            .collect();

        let out = &mut self.last;
        out.circuit_sweep.clear();
        for &v_wl in &wordlines {
            let row = tracer.span("circuit.transient.query", || {
                self.simulator
                    .bitline_voltages(&Self::stimulus(v_wl, rows), &nominal, &times)
            })?;
            out.circuit_sweep.extend(row);
        }

        out.model_sweep.clear();
        out.model_sweep.resize(n * n, 0.0);
        let span = tracer.begin("core.model.sweep");
        for (&v_wl, row) in wordlines.iter().zip(out.model_sweep.chunks_mut(n)) {
            models.fill_bitline_voltages(&Self::stimulus(v_wl, rows), &nominal, &times, row)?;
        }
        tracer.end(span);
        tracer.count("core.model.queries", n as f64);

        let samples = MismatchModel::from_technology(&self.technology)
            .sample_n(self.sizes.mc_samples, mc_seed);
        let stimulus = Self::stimulus(MC_WORD_LINE, rows);
        out.circuit_mc.clear();
        for sample in &samples {
            let v = tracer.span("circuit.montecarlo.sample", || {
                self.simulator
                    .discharge_waveform(&stimulus, &nominal, sample)
                    .and_then(|waveform| waveform.sample_at(Seconds(MC_TIME)))
            })?;
            out.circuit_mc.push(v.0);
        }

        let mut rngs: Vec<ChaCha8Rng> = (0..samples.len() as u64)
            .map(|i| ChaCha8Rng::seed_from_u64(stream_seed(mc_seed, i)))
            .collect();
        out.model_mc.clear();
        let temperature = Celsius(self.technology.temperature_nominal.0);
        let span = tracer.begin("core.model.mc_sweep");
        for rng in &mut rngs {
            let t = Seconds(MC_TIME);
            let wl = Volts(MC_WORD_LINE);
            let v = models.bitline_voltage(t, wl, nominal.vdd, temperature)?;
            let deviation = models.mismatch_model().sample_deviation(rng, t, wl);
            out.model_mc.push(v.0 + deviation.0);
        }
        tracer.end(span);
        tracer.count("core.model.mc_samples", samples.len() as f64);
        Ok(())
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

impl Workload for Calibrate {
    const NAME: &'static str = "calibrate";
    const WORK: &'static str = "calibrations";
    const THROUGHPUT: &'static str = "calibrations_per_s";
    const CYCLE: u64 = HEIGHTS.len() as u64;
    const PARALLEL_SPAN: &'static str = "core.calibration.run";

    fn setup(config: &Config, dir: &Path, tracer: &mut Tracer) -> Result<Self, BenchError> {
        let calibration = calibration_config(16, config.seed, config.threads, config.tiny);
        let calibrated = calibrate_private(dir, &calibration, tracer)?;
        tracer.count(
            "core.calibration.circuit_simulations",
            calibrated.outcome.report().circuit_simulations as f64,
        );
        if !calibrated.snapshot_hit {
            return Err(BenchError(
                "calibration snapshot did not reload".to_string(),
            ));
        }
        let sizes = if config.tiny {
            Sizes {
                held_out_grid: 4,
                held_out_mc: 20,
                sweep_points: 4,
                mc_samples: 20,
            }
        } else {
            Sizes {
                held_out_grid: 10,
                held_out_mc: 150,
                sweep_points: 16,
                mc_samples: 300,
            }
        };
        Ok(Calibrate {
            config: *config,
            simulator: TransientSimulator::new(calibrated.technology.clone()),
            technology: calibrated.technology,
            sizes,
            last: Outputs::default(),
            worst_rms_16_rows_mv: 0.0,
        })
    }

    fn run_unit(
        &mut self,
        id: u64,
        threads: usize,
        tracer: &mut Tracer,
    ) -> Result<u64, BenchError> {
        let key = id % Self::CYCLE;
        let rows = HEIGHTS[key as usize];
        let seed = stream_seed(self.config.seed, key);
        let calibration = calibration_config(rows, seed, threads, self.config.tiny);
        let outcome = tracer.span("core.calibration.run", || {
            Calibrator::new(self.technology.clone(), calibration.clone()).run()
        })?;
        tracer.count(
            "core.calibration.circuit_simulations",
            outcome.report().circuit_simulations as f64,
        );
        let evaluator = ModelEvaluator::new(self.technology.clone(), outcome.models().clone())
            .with_threads(threads);
        let rms = tracer.span("core.evaluation.rms_errors", || {
            evaluator.rms_errors(self.sizes.held_out_grid, self.sizes.held_out_mc)
        })?;
        self.last.config = Some(calibration);
        self.last.report = *outcome.report();
        self.last.rms = rms;
        self.section5(outcome.models(), rows, seed, tracer)?;
        Ok(1)
    }

    fn check_unit(&mut self, id: u64, _tracer: &mut Tracer) -> Result<u64, BenchError> {
        let out = &self.last;
        let config = out
            .config
            .as_ref()
            .ok_or_else(|| BenchError("no unit ran".to_string()))?;
        checks::count(
            "circuit simulations",
            out.report.circuit_simulations,
            expected_circuit_simulations(config),
        )?;
        let rms = &out.rms;
        let errors = [
            rms.basic_discharge_mv,
            rms.supply_mv,
            rms.temperature_mv,
            rms.mismatch_sigma_mv,
            rms.write_energy_fj,
            rms.discharge_energy_fj,
        ];
        checks::all_finite("held-out RMS errors", &errors)?;
        if HEIGHTS[(id % Self::CYCLE) as usize] == 16 {
            // The held-out reference simulates the paper's 16-row bit-line,
            // so only that height is held to the accuracy band.
            checks::within(
                "worst held-out voltage RMS error (mV)",
                rms.worst_voltage_error_mv(),
                0.0,
                50.0,
            )?;
            self.worst_rms_16_rows_mv = rms.worst_voltage_error_mv();
        }
        checks::all_finite("circuit sweep", &out.circuit_sweep)?;
        checks::all_finite("model sweep", &out.model_sweep)?;
        let circuit_mean = mean(&out.circuit_sweep);
        checks::within(
            "Section V sweep mean, model vs circuit (V)",
            mean(&out.model_sweep),
            circuit_mean,
            0.1 * circuit_mean.abs(),
        )?;
        checks::within(
            "Section V Monte-Carlo mean, model vs circuit (V)",
            mean(&out.model_mc),
            mean(&out.circuit_mc),
            0.05,
        )?;

        let report = &out.report;
        let mut digest = Digest::new();
        digest
            .f64(report.basic_discharge_rms_mv)
            .f64(report.supply_rms_mv)
            .f64(report.temperature_rms_mv)
            .f64(report.mismatch_sigma_rms_mv)
            .f64(report.write_energy_rms_fj)
            .f64(report.discharge_energy_rms_fj)
            .u64(report.circuit_simulations as u64)
            .u64(report.training_samples as u64)
            .f64s(&errors)
            .f64s(&out.circuit_sweep)
            .f64s(&out.model_sweep)
            .f64s(&out.circuit_mc)
            .f64s(&out.model_mc);
        Ok(digest.finish())
    }

    fn statistics(&self) -> Vec<(&'static str, f64)> {
        vec![("rms_error_mv", self.worst_rms_16_rows_mv)]
    }
}
