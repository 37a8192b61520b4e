//! The unified discharge-backend interface.
//!
//! The paper's entire value proposition is a runtime ratio between two ways
//! of answering the same questions about one bit-line discharge:
//!
//! * the **golden reference** — differential-equation circuit simulation
//!   ([`optima_circuit::transient::TransientSimulator`], slow but exact), and
//! * the **fitted OPTIMA models** — polynomial evaluation
//!   ([`ModelSuite`], fast, calibrated against the former).
//!
//! [`DischargeBackend`] is the common interface both implement: the
//! discharge waveform sampled on an arbitrary time grid and the
//! write/discharge energies, all at an explicit [`PvtConditions`] operating
//! point.  The discharge `ΔV_BL` is each side's own call
//! ([`TransientSimulator::discharge_delta`], [`ModelSuite::discharge`]).  Calibration residual measurement,
//! held-out evaluation ([`crate::evaluation::ModelEvaluator`]) and the
//! `perfbench` speed-up timings all route through this trait, so accuracy
//! and speed-up are always measured between two interchangeable backends
//! rather than through per-call-site glue.
//!
//! Two deliberate asymmetries remain below the interface:
//!
//! * **Mismatch** — the golden reference perturbs device parameters with a
//!   [`optima_circuit::montecarlo::MismatchSample`] per instance, while the
//!   fitted side samples the Eq. 6 σ-model; the shapes are incompatible, so
//!   the golden Monte Carlo (`golden_sigmas`) runs below the interface, one
//!   [`TransientQuery`] per instance through
//!   [`TransientSimulator::fill_transients`], the batch of every golden sweep.
//! * **Process corner** — the fitted models are calibrated at the typical
//!   corner; the [`ModelSuite`] backend ignores `pvt.corner` (documented on
//!   the impl), while the golden backend honours it.

use crate::error::ModelError;
use crate::model::suite::ModelSuite;
use crate::sweep::{par_map_sweep_with, SweepError};
use optima_circuit::energy as circuit_energy;
use optima_circuit::montecarlo::MismatchSample;
use optima_circuit::pvt::PvtConditions;
use optima_circuit::transient::{
    DischargeStimulus, LaneBuffer, TransientQuery, TransientSimulator, LANES,
};
use optima_circuit::CircuitError;
use optima_math::stats;
use optima_math::units::{FemtoJoules, Seconds, Volts};

/// A backend that can answer the analog questions about one bit-line
/// discharge operation at an explicit PVT operating point.
///
/// Implemented by the golden-reference [`TransientSimulator`] (RK circuit
/// integration) and by the fitted [`ModelSuite`] (batched polynomial
/// evaluation).  See the [module docs](self) for what deliberately stays
/// outside the interface.
pub trait DischargeBackend: Sync {
    /// Short human-readable backend name for reports and error messages.
    fn backend_name(&self) -> &'static str;

    /// Fills `out[i]` with the bit-line voltage at `times[i]` during the
    /// discharge described by `stimulus` at `pvt`.
    ///
    /// Every time must lie within `[0, stimulus.duration]`.
    ///
    /// # Errors
    ///
    /// Propagates circuit-simulation or model-evaluation errors.
    fn fill_bitline_voltages(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        times: &[Seconds],
        out: &mut [f64],
    ) -> Result<(), ModelError>;

    /// Allocating convenience wrapper around
    /// [`DischargeBackend::fill_bitline_voltages`].
    ///
    /// # Errors
    ///
    /// Same as [`DischargeBackend::fill_bitline_voltages`].
    fn bitline_voltages(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        times: &[Seconds],
    ) -> Result<Vec<f64>, ModelError> {
        let mut out = vec![0.0; times.len()];
        self.fill_bitline_voltages(stimulus, pvt, times, &mut out)?;
        Ok(out)
    }

    /// Energy of writing one cell at `pvt` (Eq. 7 territory).
    ///
    /// # Errors
    ///
    /// Propagates circuit-simulation or model-evaluation errors.
    fn write_energy(&self, pvt: &PvtConditions) -> Result<FemtoJoules, ModelError>;

    /// Energy of one discharge that achieved `delta` on the bit-line of
    /// `stimulus` at `pvt` (Eq. 8 territory).
    ///
    /// # Errors
    ///
    /// Propagates circuit-simulation or model-evaluation errors.
    fn discharge_energy(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        delta: Volts,
    ) -> Result<FemtoJoules, ModelError>;
}

/// The golden reference: every query runs the RK transient integrator (one
/// integration per waveform query, sampled on the requested grid) or the
/// analytic circuit energy models.
impl DischargeBackend for TransientSimulator {
    fn backend_name(&self) -> &'static str {
        "golden-rk-circuit"
    }

    fn fill_bitline_voltages(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        times: &[Seconds],
        out: &mut [f64],
    ) -> Result<(), ModelError> {
        assert_eq!(
            times.len(),
            out.len(),
            "fill_bitline_voltages needs one output slot per time"
        );
        let waveform = self.discharge_waveform(stimulus, pvt, &MismatchSample::none())?;
        for (o, &t) in out.iter_mut().zip(times) {
            *o = waveform.sample_at(t)?.0;
        }
        Ok(())
    }

    fn write_energy(&self, pvt: &PvtConditions) -> Result<FemtoJoules, ModelError> {
        Ok(circuit_energy::write_energy(self.technology(), pvt).to_femtojoules())
    }

    fn discharge_energy(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        delta: Volts,
    ) -> Result<FemtoJoules, ModelError> {
        Ok(circuit_energy::discharge_energy(
            self.technology(),
            pvt,
            stimulus.cells_on_bitline,
            delta,
        )
        .to_femtojoules())
    }
}

/// The golden circuit's answers to a batch of queries, in query order.
#[derive(Debug, Default)]
pub(crate) struct GoldenSamples {
    /// Query `k` at `times[j]` in `voltages[k * times.len() + j]`.
    pub(crate) voltages: Vec<f64>,
    /// Query `k`'s discharge `ΔV = V(0) − V(duration)` in `deltas[k]`.
    pub(crate) deltas: Vec<f64>,
}

/// Answers `queries` on the golden circuit, sampled at `times`, in
/// lock-step batches.
///
/// Each sweep item is one chunk of [`LANES`] queries through
/// [`TransientSimulator::fill_transients`], and each worker reuses one lane
/// buffer.  The samples and `ΔV`s equal the golden backend's per-query
/// answers bit for bit at any thread count, and so does the error: a chunk
/// whose batch fails reruns its queries one at a time, so the
/// [`SweepError`] names the lowest failing query, where a sweep of one
/// query per item stops.
pub(crate) fn golden_sweep(
    simulator: &TransientSimulator,
    queries: &[TransientQuery],
    times: &[Seconds],
    threads: usize,
) -> Result<GoldenSamples, SweepError<ModelError>> {
    let columns = times.len();
    let chunks: Vec<&[TransientQuery]> = queries.chunks(LANES).collect();
    let answers = par_map_sweep_with(
        &chunks,
        threads,
        LaneBuffer::default,
        |buffer, chunk_index, chunk| {
            let mut answer = GoldenSamples {
                voltages: vec![0.0; chunk.len() * columns],
                deltas: vec![0.0; chunk.len()],
            };
            let (voltages, deltas) = (&mut answer.voltages, &mut answer.deltas);
            if let Err(err) = simulator.fill_transients(chunk, times, buffer, voltages, deltas) {
                for k in 0..chunk.len() {
                    let samples = &mut voltages[k * columns..(k + 1) * columns];
                    simulator
                        .fill_transients(&chunk[k..=k], times, buffer, samples, &mut deltas[k..=k])
                        .map_err(|err| SweepError {
                            index: chunk_index * LANES + k,
                            source: err.into(),
                        })?;
                }
                return Err(SweepError {
                    index: chunk_index * LANES,
                    source: err.into(),
                });
            }
            Ok(answer)
        },
    )
    .map_err(|err| err.source)?;
    let mut samples = GoldenSamples::default();
    for answer in answers {
        samples.voltages.extend(answer.voltages);
        samples.deltas.extend(answer.deltas);
    }
    Ok(samples)
}

/// The `conditions × wordlines` grid, condition-major, and one golden query
/// per point: the mismatch-free cell of `stimulus(V_WL)` at the operating
/// point `pvt(condition)`.
pub(crate) fn grid_queries(
    conditions: &[f64],
    wordlines: &[f64],
    stimulus: impl Fn(f64) -> DischargeStimulus,
    pvt: impl Fn(f64) -> PvtConditions,
) -> (Vec<(f64, f64)>, Vec<TransientQuery>) {
    let grid: Vec<(f64, f64)> = conditions
        .iter()
        .flat_map(|&condition| wordlines.iter().map(move |&v_wl| (condition, v_wl)))
        .collect();
    let queries = grid
        .iter()
        .map(|&(condition, v_wl)| TransientQuery::nominal(stimulus(v_wl), pvt(condition)))
        .collect();
    (grid, queries)
}

/// The golden Monte-Carlo σ of the bit-line voltage at each of `times`:
/// one transient of `stimulus` at `pvt` per mismatch instance in `samples`,
/// in one [`TransientSimulator::fill_transients`] batch, with each time's
/// voltages gathered in sample order into [`stats::std_dev`].
pub(crate) fn golden_sigmas(
    simulator: &TransientSimulator,
    stimulus: DischargeStimulus,
    pvt: PvtConditions,
    samples: &[MismatchSample],
    times: &[Seconds],
    buffer: &mut LaneBuffer,
) -> Result<Vec<f64>, CircuitError> {
    let queries: Vec<TransientQuery> = samples
        .iter()
        .map(|&mismatch| TransientQuery {
            stimulus,
            pvt,
            mismatch,
        })
        .collect();
    let columns = times.len();
    let mut voltages = vec![0.0; queries.len() * columns];
    let mut deltas = vec![0.0; queries.len()];
    simulator.fill_transients(&queries, times, buffer, &mut voltages, &mut deltas)?;
    let mut at_time = Vec::with_capacity(queries.len());
    Ok((0..columns)
        .map(|j| {
            at_time.clear();
            at_time.extend(voltages.iter().skip(j).step_by(columns));
            stats::std_dev(&at_time)
        })
        .collect())
}

/// The fitted OPTIMA models: every query is batched polynomial evaluation
/// (Eqs. 3–8) — no differential equations are solved, which is where the
/// paper's speed-up comes from.
///
/// `stimulus.time_steps` and `stimulus.cells_on_bitline` are ignored (the
/// fitted surfaces already absorbed the calibrated bit-line loading), and so
/// is `pvt.corner`: the models are calibrated at the typical corner.
impl DischargeBackend for ModelSuite {
    fn backend_name(&self) -> &'static str {
        "fitted-optima-models"
    }

    fn fill_bitline_voltages(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        times: &[Seconds],
        out: &mut [f64],
    ) -> Result<(), ModelError> {
        assert_eq!(
            times.len(),
            out.len(),
            "fill_bitline_voltages needs one output slot per time"
        );
        if !stimulus.stored_bit {
            out.fill(self.precharge_level(pvt.vdd).0);
            return Ok(());
        }
        for &t in times {
            self.discharge_model()
                .check_domain(t, stimulus.word_line_voltage)?;
        }
        self.fill_bitline_voltages_unchecked(
            times,
            stimulus.word_line_voltage,
            pvt.vdd,
            pvt.temperature,
            out,
        );
        Ok(())
    }

    fn write_energy(&self, pvt: &PvtConditions) -> Result<FemtoJoules, ModelError> {
        Ok(ModelSuite::write_energy(self, pvt.vdd, pvt.temperature))
    }

    fn discharge_energy(
        &self,
        _stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        delta: Volts,
    ) -> Result<FemtoJoules, ModelError> {
        Ok(ModelSuite::discharge_energy(
            self,
            delta,
            pvt.vdd,
            pvt.temperature,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::{CalibrationConfig, Calibrator};
    use optima_circuit::technology::Technology;
    use optima_math::units::Celsius;

    fn backends() -> (Technology, TransientSimulator, ModelSuite) {
        let tech = Technology::tsmc65_like();
        let models = Calibrator::new(tech.clone(), CalibrationConfig::fast())
            .run()
            .expect("calibration succeeds")
            .into_models();
        (tech.clone(), TransientSimulator::new(tech), models)
    }

    fn stimulus(v_wl: f64) -> DischargeStimulus {
        DischargeStimulus {
            word_line_voltage: Volts(v_wl),
            stored_bit: true,
            duration: Seconds(2e-9),
            cells_on_bitline: 16,
            time_steps: 200,
        }
    }

    #[test]
    fn both_backends_agree_on_the_waveform_within_calibration_accuracy() {
        let (tech, golden, fitted) = backends();
        let pvt = PvtConditions::nominal(&tech);
        let times: Vec<Seconds> = (1..=6).map(|i| Seconds(0.3e-9 * i as f64)).collect();
        let stim = stimulus(0.8);
        let reference = golden.bitline_voltages(&stim, &pvt, &times).unwrap();
        let predicted = fitted.bitline_voltages(&stim, &pvt, &times).unwrap();
        for (r, p) in reference.iter().zip(&predicted) {
            assert!((r - p).abs() < 0.02, "reference {r} vs fitted {p}");
        }
        assert_ne!(golden.backend_name(), fitted.backend_name());
    }

    #[test]
    fn fitted_backend_matches_the_scalar_model_suite_bit_for_bit() {
        let (tech, _, fitted) = backends();
        let pvt = PvtConditions::nominal(&tech).with_temperature(Celsius(60.0));
        let times: Vec<Seconds> = (1..=9).map(|i| Seconds(0.2e-9 * i as f64)).collect();
        let stim = stimulus(0.75);
        let batched = fitted.bitline_voltages(&stim, &pvt, &times).unwrap();
        for (&t, v) in times.iter().zip(&batched) {
            let scalar = fitted.bitline_voltage_unchecked(
                t,
                stim.word_line_voltage,
                pvt.vdd,
                pvt.temperature,
            );
            assert_eq!(scalar.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn stored_zero_keeps_both_backends_at_the_precharge_level() {
        let (tech, golden, fitted) = backends();
        let pvt = PvtConditions::nominal(&tech);
        let stim = DischargeStimulus {
            stored_bit: false,
            ..stimulus(0.8)
        };
        let times = [Seconds(1e-9)];
        let golden_v = golden.bitline_voltages(&stim, &pvt, &times).unwrap()[0];
        let fitted_v = fitted.bitline_voltages(&stim, &pvt, &times).unwrap()[0];
        assert!((golden_v - pvt.vdd.0).abs() < 1e-9);
        assert!((fitted_v - fitted.precharge_level(pvt.vdd).0).abs() < 1e-12);
    }

    #[test]
    fn energies_agree_within_calibration_accuracy() {
        let (tech, golden, fitted) = backends();
        let pvt = PvtConditions::nominal(&tech);
        let stim = stimulus(0.8);
        let w_ref = DischargeBackend::write_energy(&golden, &pvt).unwrap().0;
        let w_fit = DischargeBackend::write_energy(&fitted, &pvt).unwrap().0;
        assert!((w_ref - w_fit).abs() < 1.0, "write {w_ref} vs {w_fit} fJ");
        let delta = golden
            .discharge_delta(&stim, &pvt, &MismatchSample::none())
            .unwrap();
        let d_ref = DischargeBackend::discharge_energy(&golden, &stim, &pvt, delta)
            .unwrap()
            .0;
        let d_fit = DischargeBackend::discharge_energy(&fitted, &stim, &pvt, delta)
            .unwrap()
            .0;
        assert!(
            (d_ref - d_fit).abs() < 2.0,
            "discharge {d_ref} vs {d_fit} fJ"
        );
    }

    #[test]
    fn fitted_backend_rejects_out_of_domain_grids() {
        let (tech, _, fitted) = backends();
        let pvt = PvtConditions::nominal(&tech);
        let err = fitted
            .bitline_voltages(&stimulus(0.8), &pvt, &[Seconds(10e-9)])
            .unwrap_err();
        assert!(matches!(err, ModelError::OutOfCalibrationRange { .. }));
    }
}
