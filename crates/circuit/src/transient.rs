//! Transient (time-domain) simulation of the bit-line discharge.
//!
//! This is the *golden reference*: the bit-line node equation
//! `C_BL · dV_BLB/dt = −I_cell(V_WL, V_BLB)` is integrated with a fine-grained
//! Runge–Kutta scheme, exactly the kind of differential-equation solving the
//! paper describes as accurate but slow.  The OPTIMA behavioural models in
//! `optima-core` are calibrated against and evaluated against the waveforms
//! produced here, and the paper's speed-up claim is measured as the runtime
//! ratio between this simulator and the fitted models.
//!
//! One private fixed-step RK4 kernel does all the integration.  It steps up
//! to eight bit-lines in lock-step, stage by stage, so the serial divide and
//! `exp` latency of one instance's RK chain overlaps the independent chains
//! of the others, and it writes every step straight into a caller-owned
//! buffer.  A single waveform ([`TransientSimulator::discharge_waveform`]) is
//! the one-lane case; a mismatch Monte Carlo
//! ([`TransientSimulator::fill_mismatch_voltages`]) runs eight instances per
//! pass.  Each lane performs exactly the same float operations in the same
//! order whatever its neighbours, so every lane is bit-identical to a lone
//! transient of the same instance.

use crate::error::CircuitError;
use crate::montecarlo::MismatchSample;
use crate::pvt::PvtConditions;
use crate::sram::{SramCell, WordLineBias};
use crate::technology::Technology;
use crate::waveform::{self, Waveform};
use optima_math::interp;
use optima_math::units::{Seconds, Volts};
use serde::{Deserialize, Serialize};

/// Stimulus description for a single-cell discharge experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DischargeStimulus {
    /// Analog word-line voltage applied during the discharge phase.
    pub word_line_voltage: Volts,
    /// Data bit stored in the accessed cell ('1' discharges BLB).
    pub stored_bit: bool,
    /// Duration of the discharge phase.
    pub duration: Seconds,
    /// Number of cells attached to the bit-line (sets its capacitance).
    pub cells_on_bitline: usize,
    /// Number of integration steps of the fixed-step reference solver.
    pub time_steps: usize,
}

impl Default for DischargeStimulus {
    fn default() -> Self {
        DischargeStimulus {
            word_line_voltage: Volts(1.0),
            stored_bit: true,
            duration: Seconds(2e-9),
            cells_on_bitline: 16,
            time_steps: 400,
        }
    }
}

/// The golden-reference transient simulator.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), optima_circuit::CircuitError> {
/// use optima_circuit::prelude::*;
///
/// let tech = Technology::tsmc65_like();
/// let sim = TransientSimulator::new(tech.clone());
/// let pvt = PvtConditions::nominal(&tech);
/// let wf = sim.discharge_waveform(&DischargeStimulus::default(), &pvt, &MismatchSample::none())?;
/// assert!(wf.final_value() < wf.initial_value());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransientSimulator {
    technology: Technology,
}

impl TransientSimulator {
    /// Creates a simulator for the given technology.
    pub fn new(technology: Technology) -> Self {
        TransientSimulator { technology }
    }

    /// The technology the simulator was built for.
    pub fn technology(&self) -> &Technology {
        &self.technology
    }

    /// Simulates the BLB voltage over time for one discharge operation.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidOperatingPoint`] for non-physical
    /// stimulus parameters (non-positive duration, zero steps, V_WL outside
    /// `[0, 1.5·VDD]` or NaN, a supply that is not positive and finite, a
    /// temperature that is not finite) and for a step too small to advance
    /// the time axis.
    pub fn discharge_waveform(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        mismatch: &MismatchSample,
    ) -> Result<Waveform, CircuitError> {
        self.validate(stimulus, pvt)?;
        let cell = SramCell::new(stimulus.stored_bit, &self.technology, pvt, mismatch)
            .at_word_line(stimulus.word_line_voltage);
        let nodes = stimulus.time_steps + 1;
        let mut times = vec![0.0; nodes];
        let mut values = vec![0.0; nodes];
        let h = time_axis(stimulus, &mut times);
        integrate(
            &[cell],
            self.capacitance(stimulus),
            pvt.vdd.0,
            h,
            nodes,
            &mut values,
        );
        Waveform::from_samples(times, values)
    }

    /// Runs one transient per mismatch instance and samples each at `times`,
    /// eight instances at a time through the lock-step kernel; no per-instance
    /// waveform is built.
    ///
    /// `out[j * mismatch.len() + k]` receives instance `k` at `times[j]`, so
    /// the `mismatch.len()` values at one time are contiguous.  Every value
    /// equals `discharge_waveform(stimulus, pvt, &mismatch[k])?.sample_at(times[j])?`
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Same as [`TransientSimulator::discharge_waveform`] followed by
    /// [`Waveform::sample_at`] (a NaN query time).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != mismatch.len() * times.len()`.
    pub fn fill_mismatch_voltages(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        mismatch: &[MismatchSample],
        times: &[Seconds],
        out: &mut [f64],
    ) -> Result<(), CircuitError> {
        assert_eq!(
            out.len(),
            mismatch.len() * times.len(),
            "fill_mismatch_voltages needs one output slot per instance and time"
        );
        self.validate(stimulus, pvt)?;
        let nodes = stimulus.time_steps + 1;
        let mut axis = vec![0.0; nodes];
        let h = time_axis(stimulus, &mut axis);
        waveform::check_axis(&axis)?;
        let capacitance = self.capacitance(stimulus);
        let cell = |sample: &MismatchSample| {
            SramCell::new(stimulus.stored_bit, &self.technology, pvt, sample)
                .at_word_line(stimulus.word_line_voltage)
        };
        let instances = mismatch.len();
        let mut values = vec![0.0; LANES * nodes];
        for (chunk_index, chunk) in mismatch.chunks(LANES).enumerate() {
            let mut cells = [cell(&chunk[0]); LANES];
            for (slot, sample) in cells.iter_mut().zip(chunk).skip(1) {
                *slot = cell(sample);
            }
            let lanes = chunk.len();
            integrate(
                &cells[..lanes],
                capacitance,
                pvt.vdd.0,
                h,
                nodes,
                &mut values,
            );
            for (lane, waveform) in values.chunks_exact(nodes).take(lanes).enumerate() {
                let instance = chunk_index * LANES + lane;
                for (j, t) in times.iter().enumerate() {
                    out[j * instances + instance] = interp::linear_sorted(&axis, waveform, t.0)?;
                }
            }
        }
        Ok(())
    }

    /// Convenience wrapper returning only the discharge `ΔV_BL` observed at
    /// the end of the stimulus (initial voltage − final voltage).
    ///
    /// # Errors
    ///
    /// Same as [`TransientSimulator::discharge_waveform`].
    pub fn discharge_delta(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        mismatch: &MismatchSample,
    ) -> Result<Volts, CircuitError> {
        let waveform = self.discharge_waveform(stimulus, pvt, mismatch)?;
        Ok(Volts(waveform.initial_value() - waveform.final_value()))
    }

    fn capacitance(&self, stimulus: &DischargeStimulus) -> f64 {
        self.technology
            .bitline_capacitance(stimulus.cells_on_bitline)
            .0
    }

    fn validate(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
    ) -> Result<(), CircuitError> {
        if stimulus.duration.0 <= 0.0 || !stimulus.duration.0.is_finite() {
            return Err(CircuitError::InvalidOperatingPoint {
                context: format!(
                    "discharge duration must be positive, got {}",
                    stimulus.duration.0
                ),
            });
        }
        if stimulus.time_steps == 0 {
            return Err(CircuitError::InvalidOperatingPoint {
                context: "time_steps must be non-zero".to_string(),
            });
        }
        if stimulus.cells_on_bitline == 0 {
            return Err(CircuitError::InvalidOperatingPoint {
                context: "a bit-line needs at least one attached cell".to_string(),
            });
        }
        // Every comparison below is written to fail on NaN.
        let vdd = pvt.vdd.0;
        if !(vdd > 0.0 && vdd.is_finite()) {
            return Err(CircuitError::InvalidOperatingPoint {
                context: format!("supply voltage must be positive and finite, got {vdd}"),
            });
        }
        let v_wl = stimulus.word_line_voltage.0;
        if !(0.0..=1.5 * vdd).contains(&v_wl) {
            return Err(CircuitError::InvalidOperatingPoint {
                context: format!("word-line voltage {v_wl} outside [0, {}]", 1.5 * vdd),
            });
        }
        if !pvt.temperature.0.is_finite() {
            return Err(CircuitError::InvalidOperatingPoint {
                context: format!("temperature must be finite, got {}", pvt.temperature.0),
            });
        }
        Ok(())
    }
}

/// Bit-lines the RK4 kernel integrates in lock-step.
const LANES: usize = 8;

/// Fills `times` with the shared time axis, `t` from `0.0` advanced by `+= h`
/// per step, and returns the step `h`.
fn time_axis(stimulus: &DischargeStimulus, times: &mut [f64]) -> f64 {
    let h = stimulus.duration.0 / stimulus.time_steps as f64;
    let mut t = 0.0;
    for slot in times.iter_mut() {
        *slot = t;
        t += h;
    }
    h
}

/// Integrates `C · dV/dt = −I(V)` from `V = vdd` for `cells.len() <= LANES`
/// bit-lines in lock-step with the classic fixed-step RK4 scheme.
///
/// Lane `l`'s voltage at node `i < nodes` lands in `values[l * nodes + i]`.
/// Each lane runs exactly the arithmetic of a lone RK4 chain.
fn integrate(
    cells: &[WordLineBias],
    capacitance: f64,
    vdd: f64,
    h: f64,
    nodes: usize,
    values: &mut [f64],
) {
    let lanes = cells.len();
    debug_assert!(lanes <= LANES && values.len() >= lanes * nodes);
    let slope = |cell: &WordLineBias, v: f64| {
        let current = cell.discharge_current(Volts(v.max(0.0))).0;
        -current / capacitance
    };
    let mut y = [vdd; LANES];
    let (mut k1, mut k2, mut k3) = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
    for lane in 0..lanes {
        values[lane * nodes] = vdd;
    }
    // optima-lint: hot
    for node in 1..nodes {
        for l in 0..lanes {
            k1[l] = slope(&cells[l], y[l]);
        }
        for l in 0..lanes {
            k2[l] = slope(&cells[l], y[l] + 0.5 * h * k1[l]);
        }
        for l in 0..lanes {
            k3[l] = slope(&cells[l], y[l] + 0.5 * h * k2[l]);
        }
        for l in 0..lanes {
            let k4 = slope(&cells[l], y[l] + h * k3[l]);
            y[l] += h / 6.0 * (k1[l] + 2.0 * k2[l] + 2.0 * k3[l] + k4);
            values[l * nodes + node] = y[l];
        }
    }
    // optima-lint: end-hot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technology::ProcessCorner;
    use optima_math::units::Celsius;

    fn sim() -> (TransientSimulator, PvtConditions) {
        let tech = Technology::tsmc65_like();
        let pvt = PvtConditions::nominal(&tech);
        (TransientSimulator::new(tech), pvt)
    }

    /// The generic fixed-step RK4 loop the simulator used to call: a
    /// `Vec`-per-step reference integrator of `dy/dt = f(t, y)`, returning
    /// every `(t, y)` sample.
    fn rk4<F>(mut f: F, y0: &[f64], t_end: f64, steps: usize) -> Vec<(f64, Vec<f64>)>
    where
        F: FnMut(f64, &[f64], &mut [f64]),
    {
        let n = y0.len();
        let h = (t_end - 0.0) / steps as f64;
        let mut y = y0.to_vec();
        let mut t = 0.0;
        let mut samples = vec![(t, y.clone())];
        let (mut k1, mut k2, mut k3, mut k4) =
            (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut scratch = vec![0.0; n];
        for _ in 0..steps {
            f(t, &y, &mut k1);
            for i in 0..n {
                scratch[i] = y[i] + 0.5 * h * k1[i];
            }
            f(t + 0.5 * h, &scratch, &mut k2);
            for i in 0..n {
                scratch[i] = y[i] + 0.5 * h * k2[i];
            }
            f(t + 0.5 * h, &scratch, &mut k3);
            for i in 0..n {
                scratch[i] = y[i] + h * k3[i];
            }
            f(t + h, &scratch, &mut k4);
            for i in 0..n {
                y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
            t += h;
            samples.push((t, y.clone()));
        }
        samples
    }

    /// The bit-line transient through the reference loop, with the cell
    /// current evaluated from scratch at every derivative call.
    fn oracle(
        sim: &TransientSimulator,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        mismatch: &MismatchSample,
    ) -> Vec<(f64, Vec<f64>)> {
        let cell = SramCell::new(stimulus.stored_bit, sim.technology(), pvt, mismatch);
        let capacitance = sim
            .technology()
            .bitline_capacitance(stimulus.cells_on_bitline)
            .0;
        let v_wl = stimulus.word_line_voltage;
        rk4(
            |_t, state, derivative| {
                let v_blb = Volts(state[0].max(0.0));
                let current = cell.discharge_current(v_wl, v_blb).0;
                derivative[0] = -current / capacitance;
            },
            &[pvt.vdd.0],
            stimulus.duration.0,
            stimulus.time_steps,
        )
    }

    #[test]
    fn waveforms_are_bit_identical_to_the_reference_rk4_loop() {
        let (sim, nominal) = sim();
        let stimulus = |v_wl: f64, stored_bit: bool| DischargeStimulus {
            word_line_voltage: Volts(v_wl),
            stored_bit,
            duration: Seconds(1.5e-9),
            time_steps: 150,
            ..DischargeStimulus::default()
        };
        let skewed = MismatchSample {
            delta_vth: Volts(0.017),
            delta_beta_rel: -0.031,
        };
        let none = MismatchSample::none();
        let cases = [
            ("stored 0", stimulus(0.8, false), nominal, none),
            ("subthreshold 0.3 V", stimulus(0.3, true), nominal, none),
            ("nominal 0.8 V", stimulus(0.8, true), nominal, none),
            (
                "FF",
                stimulus(0.7, true),
                nominal.with_corner(ProcessCorner::FastFast),
                none,
            ),
            (
                "TT",
                stimulus(0.7, true),
                nominal.with_corner(ProcessCorner::TypicalTypical),
                none,
            ),
            (
                "SS",
                stimulus(0.7, true),
                nominal.with_corner(ProcessCorner::SlowSlow),
                none,
            ),
            (
                "VDD 0.9 V",
                stimulus(0.9, true),
                nominal.with_vdd(Volts(0.9)),
                none,
            ),
            (
                "VDD 1.1 V",
                stimulus(1.1, true),
                nominal.with_vdd(Volts(1.1)),
                none,
            ),
            (
                "T -40",
                stimulus(0.6, true),
                nominal.with_temperature(Celsius(-40.0)),
                none,
            ),
            (
                "T 125",
                stimulus(0.6, true),
                nominal.with_temperature(Celsius(125.0)),
                none,
            ),
            ("mismatch", stimulus(0.75, true), nominal, skewed),
            (
                "mismatch subthreshold",
                stimulus(0.4, true),
                nominal,
                skewed,
            ),
        ];
        for (name, stimulus, pvt, mismatch) in cases {
            let wf = sim.discharge_waveform(&stimulus, &pvt, &mismatch).unwrap();
            let expected = oracle(&sim, &stimulus, &pvt, &mismatch);
            assert_eq!(wf.len(), expected.len(), "{name}");
            for (i, (t, y)) in expected.iter().enumerate() {
                assert_eq!(wf.times()[i].to_bits(), t.to_bits(), "{name}: t[{i}]");
                assert_eq!(wf.values()[i].to_bits(), y[0].to_bits(), "{name}: v[{i}]");
            }
        }
    }

    #[test]
    fn mismatch_fill_reports_the_same_errors() {
        let (sim, pvt) = sim();
        let samples = [MismatchSample::none(); 3];
        let mut out = vec![0.0; 3];
        let bad = DischargeStimulus {
            time_steps: 0,
            ..DischargeStimulus::default()
        };
        assert!(sim
            .fill_mismatch_voltages(&bad, &pvt, &samples, &[Seconds(1e-9)], &mut out)
            .is_err());
        assert!(sim
            .fill_mismatch_voltages(
                &DischargeStimulus::default(),
                &pvt,
                &samples,
                &[Seconds(f64::NAN)],
                &mut out
            )
            .is_err());
        sim.fill_mismatch_voltages(&DischargeStimulus::default(), &pvt, &[], &[], &mut [])
            .unwrap();
    }

    #[test]
    fn stored_zero_keeps_bitline_at_vdd() {
        let (sim, pvt) = sim();
        let stimulus = DischargeStimulus {
            stored_bit: false,
            ..DischargeStimulus::default()
        };
        let wf = sim
            .discharge_waveform(&stimulus, &pvt, &MismatchSample::none())
            .unwrap();
        assert!(wf.swing() < 1e-9, "a '0' cell must not discharge BLB");
    }

    #[test]
    fn discharge_grows_with_word_line_voltage() {
        // The monotone V_WL dependency of Fig. 4b.
        let (sim, pvt) = sim();
        let mut previous = 0.0;
        for v_wl in [0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
            let stimulus = DischargeStimulus {
                word_line_voltage: Volts(v_wl),
                duration: Seconds(0.5e-9),
                ..DischargeStimulus::default()
            };
            let delta = sim
                .discharge_delta(&stimulus, &pvt, &MismatchSample::none())
                .unwrap()
                .0;
            assert!(delta > previous, "ΔV must grow with V_WL");
            previous = delta;
        }
    }

    #[test]
    fn discharge_is_nonlinear_in_word_line_voltage() {
        // Quadratic device current ⇒ doubling the overdrive should much more
        // than double the discharge (Section III-1).
        let (sim, pvt) = sim();
        let delta = |v_wl: f64| {
            sim.discharge_delta(
                &DischargeStimulus {
                    word_line_voltage: Volts(v_wl),
                    duration: Seconds(0.4e-9),
                    ..DischargeStimulus::default()
                },
                &pvt,
                &MismatchSample::none(),
            )
            .unwrap()
            .0
        };
        let low = delta(0.65); // overdrive 0.2
        let high = delta(0.85); // overdrive 0.4
        assert!(high > 2.5 * low, "nonlinearity missing: {low} vs {high}");
    }

    #[test]
    fn sub_threshold_word_line_produces_small_discharge() {
        let (sim, pvt) = sim();
        let stimulus = DischargeStimulus {
            word_line_voltage: Volts(0.3),
            ..DischargeStimulus::default()
        };
        let delta = sim
            .discharge_delta(&stimulus, &pvt, &MismatchSample::none())
            .unwrap()
            .0;
        assert!(delta > 0.0, "subthreshold leakage discharge expected");
        assert!(delta < 0.05, "subthreshold discharge must stay small");
    }

    #[test]
    fn discharge_saturates_towards_linear_region() {
        // Over a long window the discharge rate slows once V_BLB < V_WL − Vth
        // (Fig. 4a dotted saturation curves).
        let (sim, pvt) = sim();
        let stimulus = DischargeStimulus {
            word_line_voltage: Volts(1.0),
            duration: Seconds(4e-9),
            time_steps: 800,
            ..DischargeStimulus::default()
        };
        let wf = sim
            .discharge_waveform(&stimulus, &pvt, &MismatchSample::none())
            .unwrap();
        let early_rate = wf.values()[0] - wf.sample_at(Seconds(0.5e-9)).unwrap().0;
        let late_start = wf.sample_at(Seconds(3.0e-9)).unwrap().0;
        let late_rate = late_start - wf.sample_at(Seconds(3.5e-9)).unwrap().0;
        assert!(
            late_rate < early_rate * 0.8,
            "discharge should slow down late: early {early_rate}, late {late_rate}"
        );
    }

    #[test]
    fn supply_voltage_shifts_the_whole_curve() {
        let (sim, _) = sim();
        let tech = Technology::tsmc65_like();
        let wf_low = sim
            .discharge_waveform(
                &DischargeStimulus::default(),
                &PvtConditions::nominal(&tech).with_vdd(Volts(0.9)),
                &MismatchSample::none(),
            )
            .unwrap();
        let wf_high = sim
            .discharge_waveform(
                &DischargeStimulus::default(),
                &PvtConditions::nominal(&tech).with_vdd(Volts(1.1)),
                &MismatchSample::none(),
            )
            .unwrap();
        assert!((wf_low.initial_value() - 0.9).abs() < 1e-9);
        assert!((wf_high.initial_value() - 1.1).abs() < 1e-9);
    }

    #[test]
    fn process_corners_order_the_discharge() {
        let (sim, pvt) = sim();
        let delta_for = |corner| {
            sim.discharge_delta(
                &DischargeStimulus {
                    word_line_voltage: Volts(0.8),
                    duration: Seconds(0.5e-9),
                    ..DischargeStimulus::default()
                },
                &pvt.with_corner(corner),
                &MismatchSample::none(),
            )
            .unwrap()
            .0
        };
        let fast = delta_for(ProcessCorner::FastFast);
        let typical = delta_for(ProcessCorner::TypicalTypical);
        let slow = delta_for(ProcessCorner::SlowSlow);
        assert!(fast > typical && typical > slow);
    }

    #[test]
    fn temperature_effect_is_minor_compared_to_vdd_effect() {
        // Fig. 5: temperature barely moves the discharge, supply voltage moves it a lot.
        let (sim, pvt) = sim();
        let stim = DischargeStimulus {
            word_line_voltage: Volts(0.8),
            duration: Seconds(0.5e-9),
            ..DischargeStimulus::default()
        };
        let nominal = sim
            .discharge_waveform(&stim, &pvt, &MismatchSample::none())
            .unwrap();
        let hot = sim
            .discharge_waveform(
                &stim,
                &pvt.with_temperature(Celsius(125.0)),
                &MismatchSample::none(),
            )
            .unwrap();
        let high_vdd = sim
            .discharge_waveform(&stim, &pvt.with_vdd(Volts(1.1)), &MismatchSample::none())
            .unwrap();
        // The supply shift moves the entire V_BL(t) curve (Fig. 5a), while the
        // temperature shift only perturbs it slightly (Fig. 5b).
        let temp_shift = (hot.final_value() - nominal.final_value()).abs();
        let vdd_shift = (high_vdd.final_value() - nominal.final_value()).abs();
        assert!(
            temp_shift < nominal.swing() * 0.25,
            "temperature effect too large: {temp_shift}"
        );
        assert!(
            vdd_shift > temp_shift,
            "VDD must matter more than temperature"
        );
    }

    #[test]
    fn mismatch_changes_the_discharge() {
        let (sim, pvt) = sim();
        let stim = DischargeStimulus {
            word_line_voltage: Volts(0.8),
            duration: Seconds(0.5e-9),
            ..DischargeStimulus::default()
        };
        let nominal = sim
            .discharge_delta(&stim, &pvt, &MismatchSample::none())
            .unwrap()
            .0;
        let slow_device = sim
            .discharge_delta(
                &stim,
                &pvt,
                &MismatchSample {
                    delta_vth: Volts(0.02),
                    delta_beta_rel: -0.04,
                },
            )
            .unwrap()
            .0;
        assert!(slow_device < nominal);
    }

    /// Requires `discharge_delta` and `fill_mismatch_voltages`, which share
    /// the operating-point validation, to reject `stimulus` at `pvt` with
    /// [`CircuitError::InvalidOperatingPoint`].
    fn assert_invalid_operating_point(stimulus: &DischargeStimulus, pvt: &PvtConditions) {
        let (sim, _) = sim();
        let delta = sim.discharge_delta(stimulus, pvt, &MismatchSample::none());
        assert!(
            matches!(delta, Err(CircuitError::InvalidOperatingPoint { .. })),
            "discharge_delta: {delta:?}"
        );
        let mut out = [0.0; 2];
        let fill = sim.fill_mismatch_voltages(
            stimulus,
            pvt,
            &[MismatchSample::none(); 2],
            &[Seconds(0.5e-9)],
            &mut out,
        );
        assert!(
            matches!(fill, Err(CircuitError::InvalidOperatingPoint { .. })),
            "fill_mismatch_voltages: {fill:?}"
        );
    }

    #[test]
    fn nan_word_line_voltage_is_rejected() {
        let (_, pvt) = sim();
        let stimulus = DischargeStimulus {
            word_line_voltage: Volts(f64::NAN),
            ..DischargeStimulus::default()
        };
        assert_invalid_operating_point(&stimulus, &pvt);
    }

    #[test]
    fn nan_supply_voltage_is_rejected() {
        let (_, pvt) = sim();
        let pvt = PvtConditions {
            vdd: Volts(f64::NAN),
            ..pvt
        };
        assert_invalid_operating_point(&DischargeStimulus::default(), &pvt);
    }

    #[test]
    fn infinite_supply_voltage_is_rejected() {
        let (_, pvt) = sim();
        let pvt = PvtConditions {
            vdd: Volts(f64::INFINITY),
            ..pvt
        };
        assert_invalid_operating_point(&DischargeStimulus::default(), &pvt);
    }

    #[test]
    fn nan_temperature_is_rejected() {
        let (_, pvt) = sim();
        let pvt = PvtConditions {
            temperature: Celsius(f64::NAN),
            ..pvt
        };
        assert_invalid_operating_point(&DischargeStimulus::default(), &pvt);
    }

    #[test]
    fn invalid_stimuli_are_rejected() {
        let (sim, pvt) = sim();
        let bad_duration = DischargeStimulus {
            duration: Seconds(0.0),
            ..DischargeStimulus::default()
        };
        assert!(sim
            .discharge_waveform(&bad_duration, &pvt, &MismatchSample::none())
            .is_err());
        let bad_steps = DischargeStimulus {
            time_steps: 0,
            ..DischargeStimulus::default()
        };
        assert!(sim
            .discharge_waveform(&bad_steps, &pvt, &MismatchSample::none())
            .is_err());
        let bad_vwl = DischargeStimulus {
            word_line_voltage: Volts(2.0),
            ..DischargeStimulus::default()
        };
        assert!(sim
            .discharge_waveform(&bad_vwl, &pvt, &MismatchSample::none())
            .is_err());
        let bad_cells = DischargeStimulus {
            cells_on_bitline: 0,
            ..DischargeStimulus::default()
        };
        assert!(sim
            .discharge_waveform(&bad_cells, &pvt, &MismatchSample::none())
            .is_err());
    }
}
