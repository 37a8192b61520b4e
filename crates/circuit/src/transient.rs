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
//! One private fixed-step RK4 scheme does all the integration, in two forms
//! that perform the same float operations in the same order, each writing
//! the nodes its caller reads straight into a caller-owned buffer (a batch
//! keeps only the nodes its query times interpolate between, and the first
//! and last):
//!
//! * A lone transient ([`TransientSimulator::discharge_waveform`], and a
//!   batch chunk of one query) runs a scalar chain.
//! * A batch ([`TransientSimulator::fill_transients`], the one batched entry
//!   point, which also runs every mismatch Monte Carlo as one query per
//!   instance) steps up to [`LANES`] bit-lines in lock-step, stage by
//!   stage, so the divide latency of one chain overlaps the others.  Each
//!   lane has its own cell and its own supply (its initial voltage); the
//!   lanes share the bit-line capacitance, the step and the node count.  The
//!   lane body is branch-free over fixed `[f64; LANES]` arrays: it computes
//!   both the linear and the saturation current of each device and selects
//!   one, so it vectorises, and it has an AVX2 clone chosen at run time.
//! * A lane that stores a 0, or whose access or pull-down device sits at or
//!   below threshold, takes the scalar current instead, lane by lane, so only
//!   subthreshold lanes call `exp`.
//!
//! Every lane is therefore bit-identical to a lone transient of its query.

use crate::error::CircuitError;
use crate::montecarlo::MismatchSample;
use crate::mosfet::GateBias;
use crate::pvt::PvtConditions;
use crate::sram::{SramCell, WordLineBias};
use crate::technology::Technology;
use crate::waveform::{self, Waveform};
use optima_math::interp::{self, Bracket};
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

/// One transient of a batch: a stimulus at an operating point, through one
/// mismatch instance of the cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientQuery {
    /// The discharge stimulus.
    pub stimulus: DischargeStimulus,
    /// The operating point.
    pub pvt: PvtConditions,
    /// The cell's mismatch instance.
    pub mismatch: MismatchSample,
}

impl TransientQuery {
    /// A query through the mismatch-free cell.
    pub fn nominal(stimulus: DischargeStimulus, pvt: PvtConditions) -> Self {
        TransientQuery {
            stimulus,
            pvt,
            mismatch: MismatchSample::none(),
        }
    }
}

/// The scratch of [`TransientSimulator::fill_transients`]: the shared time
/// axis, the nodes the query times read and each lane's voltages at those
/// nodes.  Keep one per worker; it grows to the largest batch it has seen
/// and is then reused.
#[derive(Debug, Clone, Default)]
pub struct LaneBuffer {
    axis: Vec<f64>,
    /// Ascending node indices a batch keeps: node 0, the last node and the
    /// nodes every query time reads.
    kept: Vec<usize>,
    /// Each query time's bracket, indexing `kept`.
    brackets: Vec<Bracket>,
    /// Lane `l`'s voltage at `kept[s]` in `values[l * kept.len() + s]`.
    values: Vec<f64>,
}

impl LaneBuffer {
    /// Lays out the buffer for a batch of `shape` read at `times`, returns
    /// the step.
    fn prepare(
        &mut self,
        shape: &DischargeStimulus,
        times: &[Seconds],
    ) -> Result<f64, CircuitError> {
        let nodes = shape.time_steps + 1;
        self.axis.resize(nodes, 0.0);
        let h = time_axis(shape, &mut self.axis);
        waveform::check_axis(&self.axis)?;
        self.brackets.clear();
        self.kept.clear();
        self.kept.extend([0, nodes - 1]);
        for t in times {
            let bracket = interp::bracket_sorted(&self.axis, t.0)?;
            match bracket {
                Bracket::At(i) => self.kept.push(i),
                Bracket::Between(i, _) => self.kept.extend([i - 1, i]),
            }
            self.brackets.push(bracket);
        }
        self.kept.sort_unstable();
        self.kept.dedup();
        let kept = &self.kept;
        for bracket in &mut self.brackets {
            *bracket = bracket.reindex(|node| kept.partition_point(|&k| k < node));
        }
        self.values.resize(LANES * kept.len(), 0.0);
        Ok(h)
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
        let lane = self.lane(stimulus, pvt, mismatch);
        let nodes = stimulus.time_steps + 1;
        let mut times = vec![0.0; nodes];
        let mut values = vec![0.0; nodes];
        let h = time_axis(stimulus, &mut times);
        let capacitance = self.capacitance(stimulus);
        integrate_lone(&lane, capacitance, h, nodes, |node, v| values[node] = v);
        Waveform::from_samples(times, values)
    }

    /// Runs one transient per query, [`LANES`] queries at a time through the
    /// lock-step kernel, and samples each at `times`; no waveform is built.
    ///
    /// `voltages[k * times.len() + j]` receives query `k` at `times[j]`, and
    /// `deltas[k]` its discharge `V(0) − V(duration)`.  Every value equals
    /// `discharge_waveform(..)?.sample_at(times[j])?` and every delta
    /// `discharge_delta(..)?` of the same query bit for bit.  The queries
    /// must share the duration, step count and bit-line cells; word line,
    /// stored bit, operating point and mismatch are free per query.
    ///
    /// # Errors
    ///
    /// Same as [`TransientSimulator::discharge_waveform`] for any query
    /// followed by [`Waveform::sample_at`] (a NaN query time), and
    /// [`CircuitError::InvalidOperatingPoint`] when the queries do not share
    /// one duration, step count and bit-line.
    ///
    /// # Panics
    ///
    /// Panics if `voltages.len() != queries.len() * times.len()` or
    /// `deltas.len() != queries.len()`.
    pub fn fill_transients(
        &self,
        queries: &[TransientQuery],
        times: &[Seconds],
        buffer: &mut LaneBuffer,
        voltages: &mut [f64],
        deltas: &mut [f64],
    ) -> Result<(), CircuitError> {
        self.fill_transients_with(integrate_lanes, queries, times, buffer, voltages, deltas)
    }

    /// [`TransientSimulator::fill_transients`] through the lane kernel
    /// `kernel`.
    fn fill_transients_with(
        &self,
        kernel: LaneKernel,
        queries: &[TransientQuery],
        times: &[Seconds],
        buffer: &mut LaneBuffer,
        voltages: &mut [f64],
        deltas: &mut [f64],
    ) -> Result<(), CircuitError> {
        assert!(
            voltages.len() == queries.len() * times.len() && deltas.len() == queries.len(),
            "fill_transients needs one voltage per query and time and one delta per query"
        );
        let Some(first) = queries.first() else {
            return Ok(());
        };
        let shape = first.stimulus;
        for query in queries {
            self.validate(&query.stimulus, &query.pvt)?;
            let stimulus = &query.stimulus;
            if (
                stimulus.duration,
                stimulus.time_steps,
                stimulus.cells_on_bitline,
            ) != (shape.duration, shape.time_steps, shape.cells_on_bitline)
            {
                return Err(CircuitError::InvalidOperatingPoint {
                    context: "a batch of transients shares one duration, step count and bit-line"
                        .to_string(),
                });
            }
        }
        // Chunks of LANES queries in lock-step, a chunk of one through the
        // scalar chain, each keeping only the nodes `times` read.
        let h = buffer.prepare(&shape, times)?;
        let capacitance = self.capacitance(&shape);
        let nodes = shape.time_steps + 1;
        let LaneBuffer {
            kept,
            brackets,
            values,
            ..
        } = buffer;
        let columns = times.len();
        let lane = |query: &TransientQuery| self.lane(&query.stimulus, &query.pvt, &query.mismatch);
        let chunks = queries.chunks(LANES).zip(deltas.chunks_mut(LANES));
        for (c, (chunk, chunk_deltas)) in chunks.enumerate() {
            let first = lane(&chunk[0]);
            if chunk.len() == 1 {
                let mut slot = 0;
                integrate_lone(&first, capacitance, h, nodes, |node, v| {
                    if kept.get(slot) == Some(&node) {
                        values[slot] = v;
                        slot += 1;
                    }
                });
            } else {
                let mut lanes = [first; LANES];
                for (slot, query) in lanes[1..].iter_mut().zip(&chunk[1..]) {
                    *slot = lane(query);
                }
                let set = LaneSet::new(capacitance, &lanes, chunk.len());
                kernel(&set, h, kept, values);
            }
            let lane_values = values.chunks_exact(kept.len()).zip(chunk_deltas);
            for (k, (values, delta)) in lane_values.enumerate() {
                let row = (c * LANES + k) * columns;
                for (slot, bracket) in voltages[row..row + columns].iter_mut().zip(&*brackets) {
                    *slot = bracket.interpolate(|s| values[s]);
                }
                *delta = values[0] - values[values.len() - 1];
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

    /// The cell of one transient with its word line held, and its supply.
    fn lane(
        &self,
        stimulus: &DischargeStimulus,
        pvt: &PvtConditions,
        mismatch: &MismatchSample,
    ) -> Lane {
        Lane {
            cell: SramCell::new(stimulus.stored_bit, &self.technology, pvt, mismatch)
                .at_word_line(stimulus.word_line_voltage),
            vdd: pvt.vdd.0,
        }
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

/// Bit-lines the lock-step RK4 kernel integrates at once.
pub const LANES: usize = 16;

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

/// One transient's cell, with its word line held, and its supply (the
/// bit-line's initial voltage).
#[derive(Debug, Clone, Copy)]
struct Lane {
    cell: WordLineBias,
    vdd: f64,
}

/// The RK4 slope `−I(V)/C` of `cell` at bit-line voltage `v`.
fn slope(cell: &WordLineBias, capacitance: f64, v: f64) -> f64 {
    -cell.discharge_current(Volts(v.max(0.0))).0 / capacitance
}

/// Integrates `C · dV/dt = −I(V)` from `V = vdd` for one lane with the
/// classic fixed-step RK4 scheme over `nodes` nodes, handing every node's
/// voltage to `store(node, v)`.
fn integrate_lone(
    lane: &Lane,
    capacitance: f64,
    h: f64,
    nodes: usize,
    mut store: impl FnMut(usize, f64),
) {
    let slope = |v: f64| slope(&lane.cell, capacitance, v);
    let mut y = lane.vdd;
    store(0, y);
    // optima-lint: hot
    for node in 1..nodes {
        let k1 = slope(y);
        let k2 = slope(y + 0.5 * h * k1);
        let k3 = slope(y + 0.5 * h * k2);
        let k4 = slope(y + h * k3);
        y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
        store(node, y);
    }
    // optima-lint: end-hot
}

/// A lock-step kernel: integrates every lane of the set with step `h` up to
/// the last node of the ascending `kept`, which starts at node 0, and stores
/// lane `l`'s voltage at `kept[s]` in `values[l * kept.len() + s]`.
type LaneKernel = fn(&LaneSet, f64, &[usize], &mut [f64]);

/// One device's gate-only terms across the lanes.
#[derive(Debug, Clone, Copy)]
struct GateLanes {
    overdrive: [f64; LANES],
    beta: [f64; LANES],
    saturation: [f64; LANES],
    lambda: [f64; LANES],
}

impl GateLanes {
    fn new(gate: impl Fn(usize) -> GateBias) -> Self {
        GateLanes {
            overdrive: std::array::from_fn(|l| gate(l).overdrive),
            beta: std::array::from_fn(|l| gate(l).beta),
            saturation: std::array::from_fn(|l| gate(l).saturation),
            lambda: std::array::from_fn(|l| gate(l).lambda),
        }
    }

    /// Lane `l`'s drain current at `v_ds` above threshold: the IEEE
    /// operations of `GateBias::drain_current` in the same order, with both
    /// the linear and the saturation current computed and one selected.
    #[inline(always)]
    fn drain_current(&self, l: usize, v_ds: f64) -> f64 {
        let v_ds = v_ds.max(0.0);
        let overdrive = self.overdrive[l];
        let linear = self.beta[l] * (overdrive - 0.5 * v_ds) * v_ds;
        let saturated = self.saturation[l] * (1.0 + self.lambda[l] * (v_ds - overdrive));
        let current = if v_ds < overdrive { linear } else { saturated };
        current.max(0.0)
    }
}

/// Two to [`LANES`] lanes of one bit-line, laid out field by field for the
/// branch-free body.  The slots past `lanes` repeat lane 0 and are never
/// read back.
#[derive(Debug, Clone)]
struct LaneSet {
    lanes: usize,
    capacitance: f64,
    vdd: [f64; LANES],
    access: GateLanes,
    pulldown: GateLanes,
    series_factor: [f64; LANES],
    cells: [WordLineBias; LANES],
    /// The lanes the branch-free body cannot answer (a stored 0, or a
    /// device at or below threshold), in its first `scalar_lanes` slots.
    scalar: [usize; LANES],
    scalar_lanes: usize,
}

impl LaneSet {
    fn new(capacitance: f64, chunk: &[Lane; LANES], lanes: usize) -> Self {
        let cells: [WordLineBias; LANES] = std::array::from_fn(|l| chunk[l].cell);
        let mut scalar = [0; LANES];
        let mut scalar_lanes = 0;
        for (l, cell) in cells.iter().enumerate().take(lanes) {
            if !(cell.stored_bit && cell.access.overdrive > 0.0 && cell.pulldown.overdrive > 0.0) {
                scalar[scalar_lanes] = l;
                scalar_lanes += 1;
            }
        }
        LaneSet {
            lanes,
            capacitance,
            vdd: std::array::from_fn(|l| chunk[l].vdd),
            access: GateLanes::new(|l| cells[l].access),
            pulldown: GateLanes::new(|l| cells[l].pulldown),
            series_factor: std::array::from_fn(|l| cells[l].series_factor),
            cells,
            scalar,
            scalar_lanes,
        }
    }
}

// optima-lint: hot

/// Every lane's slope `−I(V)/C` at `v`: the branch-free cell current
/// (`WordLineBias::discharge_current` above threshold), then the scalar
/// current in the lanes listed as scalar.
#[inline(always)]
fn lane_slopes(set: &LaneSet, v: &[f64; LANES], slopes: &mut [f64; LANES]) {
    for l in 0..LANES {
        let v_blb = v[l].max(0.0);
        let access = set.access.drain_current(l, v_blb);
        let pulldown = set.pulldown.drain_current(l, v_blb);
        slopes[l] = -(access.min(pulldown) * set.series_factor[l]) / set.capacitance;
    }
    for &l in &set.scalar[..set.scalar_lanes] {
        slopes[l] = slope(&set.cells[l], set.capacitance, v[l]);
    }
}

/// The lock-step RK4 kernel (a [`LaneKernel`]): every lane runs the
/// arithmetic of [`integrate_lone`], stage by stage across the lanes.
#[inline(always)]
fn integrate_lanes_body(set: &LaneSet, h: f64, kept: &[usize], values: &mut [f64]) {
    let slots = kept.len();
    let mut y = set.vdd;
    let mut stage = [0.0; LANES];
    let (mut k1, mut k2, mut k3, mut k4) = ([0.0; LANES], [0.0; LANES], [0.0; LANES], [0.0; LANES]);
    for (l, &vdd) in y.iter().enumerate().take(set.lanes) {
        values[l * slots] = vdd;
    }
    let mut slot = 1;
    for node in 1..=kept[slots - 1] {
        lane_slopes(set, &y, &mut k1);
        for l in 0..LANES {
            stage[l] = y[l] + 0.5 * h * k1[l];
        }
        lane_slopes(set, &stage, &mut k2);
        for l in 0..LANES {
            stage[l] = y[l] + 0.5 * h * k2[l];
        }
        lane_slopes(set, &stage, &mut k3);
        for l in 0..LANES {
            stage[l] = y[l] + h * k3[l];
        }
        lane_slopes(set, &stage, &mut k4);
        for l in 0..LANES {
            y[l] += h / 6.0 * (k1[l] + 2.0 * k2[l] + 2.0 * k3[l] + k4[l]);
        }
        if kept.get(slot) == Some(&node) {
            for (l, &v) in y.iter().enumerate().take(set.lanes) {
                values[l * slots + slot] = v;
            }
            slot += 1;
        }
    }
}

// The same body compiled for AVX2: a `[f64; LANES]` row is four ymm
// registers instead of eight xmm ones.  Both clones run the identical IEEE
// operations in the identical order (no FMA contraction), so they are
// bit-identical to each other and to the scalar chain.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn integrate_lanes_avx2(set: &LaneSet, h: f64, kept: &[usize], values: &mut [f64]) {
    integrate_lanes_body(set, h, kept, values);
}

/// The lock-step kernel of this CPU: the AVX2 clone where available, the
/// portable body otherwise.
fn integrate_lanes(set: &LaneSet, h: f64, kept: &[usize], values: &mut [f64]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 clone only runs after the (cached) runtime
        // feature check above confirmed the CPU supports it.
        return unsafe { integrate_lanes_avx2(set, h, kept, values) };
    }
    integrate_lanes_body(set, h, kept, values);
}

// optima-lint: end-hot

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

    /// Runs `queries` through `fill_transients` with the lane kernel
    /// `kernel` and requires every sample to equal the lone waveform's
    /// `sample_at` and every delta `discharge_delta`, bit for bit.
    fn assert_batch_matches_lone_transients(
        sim: &TransientSimulator,
        (name, kernel): (&str, LaneKernel),
        queries: &[TransientQuery],
        times: &[Seconds],
        buffer: &mut LaneBuffer,
    ) {
        let n = queries.len();
        let mut voltages = vec![f64::NAN; n * times.len()];
        let mut deltas = vec![f64::NAN; n];
        sim.fill_transients_with(kernel, queries, times, buffer, &mut voltages, &mut deltas)
            .unwrap();
        for (k, query) in queries.iter().enumerate() {
            let (stimulus, pvt, mismatch) = (&query.stimulus, &query.pvt, &query.mismatch);
            let waveform = sim.discharge_waveform(stimulus, pvt, mismatch).unwrap();
            for (j, &t) in times.iter().enumerate() {
                assert_eq!(
                    voltages[k * times.len() + j].to_bits(),
                    waveform.sample_at(t).unwrap().0.to_bits(),
                    "{name}, {n} lanes, query {k} ({query:?}), t = {}",
                    t.0
                );
            }
            let delta = sim.discharge_delta(stimulus, pvt, mismatch).unwrap().0;
            assert_eq!(
                deltas[k].to_bits(),
                delta.to_bits(),
                "{name}, {n} lanes, query {k}"
            );
        }
    }

    #[test]
    fn batched_lanes_are_bit_identical_to_lone_transients() {
        let (sim, nominal) = sim();
        let skewed = MismatchSample {
            delta_vth: Volts(0.021),
            delta_beta_rel: -0.037,
        };
        let query = |v_wl: f64, stored_bit: bool, pvt: PvtConditions, mismatch| TransientQuery {
            stimulus: DischargeStimulus {
                word_line_voltage: Volts(v_wl),
                stored_bit,
                duration: Seconds(1.5e-9),
                time_steps: 150,
                ..DischargeStimulus::default()
            },
            pvt,
            mismatch,
        };
        let none = MismatchSample::none();
        // Subthreshold, at V_th and strong word lines, both supplies, both
        // temperature extremes, both skewed corners, a stored 0 and a
        // mismatched cell, so every chunk mixes scalar and branch-free lanes.
        let mix = [
            query(0.3, true, nominal, none),
            query(0.8, true, nominal.with_vdd(Volts(0.9)), none),
            query(0.45, true, nominal, none),
            query(1.1, true, nominal.with_vdd(Volts(1.1)), none),
            query(0.6, true, nominal.with_temperature(Celsius(-40.0)), none),
            query(0.9, false, nominal, none),
            query(0.7, true, nominal.with_temperature(Celsius(125.0)), none),
            query(
                0.75,
                true,
                nominal.with_corner(ProcessCorner::FastFast),
                none,
            ),
            query(
                1.0,
                true,
                nominal.with_corner(ProcessCorner::SlowSlow),
                none,
            ),
            query(0.65, true, nominal, skewed),
            query(0.45, true, nominal.with_vdd(Volts(1.1)), skewed),
            query(1.1, true, nominal.with_vdd(Volts(0.9)), none),
        ];
        let axis_step = 1.5e-9 / 150.0;
        let times = [0.0, 3.0 * axis_step, 40.4 * axis_step, 1.5e-9].map(Seconds);
        let mut kernels: Vec<(&str, LaneKernel)> = vec![("portable", integrate_lanes_body)];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: only reached once the CPU is known to support AVX2.
            kernels.push(("avx2", |set, h, kept, values| unsafe {
                integrate_lanes_avx2(set, h, kept, values)
            }));
        }
        for kernel in kernels {
            let mut buffer = LaneBuffer::default();
            for count in [1, 2, 15, 16, 17, 35] {
                let queries: Vec<TransientQuery> =
                    (0..count).map(|k| mix[(k + count) % mix.len()]).collect();
                assert_batch_matches_lone_transients(&sim, kernel, &queries, &times, &mut buffer);
            }
        }
    }

    #[test]
    fn a_batch_shares_one_duration_step_count_and_bit_line() {
        let (sim, pvt) = sim();
        let query = TransientQuery::nominal(DischargeStimulus::default(), pvt);
        let other = |stimulus| TransientQuery::nominal(stimulus, pvt);
        for stimulus in [
            DischargeStimulus {
                duration: Seconds(1e-9),
                ..query.stimulus
            },
            DischargeStimulus {
                time_steps: 100,
                ..query.stimulus
            },
            DischargeStimulus {
                cells_on_bitline: 32,
                ..query.stimulus
            },
        ] {
            let result = sim.fill_transients(
                &[query, other(stimulus)],
                &[],
                &mut LaneBuffer::default(),
                &mut [],
                &mut [0.0; 2],
            );
            assert!(
                matches!(result, Err(CircuitError::InvalidOperatingPoint { .. })),
                "{result:?}"
            );
        }
        sim.fill_transients(
            &[],
            &[Seconds(1e-9)],
            &mut LaneBuffer::default(),
            &mut [],
            &mut [],
        )
        .unwrap();
    }

    #[test]
    fn a_nan_query_time_is_rejected() {
        let (sim, pvt) = sim();
        let result = sim.fill_transients(
            &[TransientQuery::nominal(DischargeStimulus::default(), pvt); 3],
            &[Seconds(f64::NAN)],
            &mut LaneBuffer::default(),
            &mut [0.0; 3],
            &mut [0.0; 3],
        );
        assert!(result.is_err(), "{result:?}");
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

    /// Requires `discharge_delta` and `fill_transients`, which share the
    /// operating-point validation, to reject `stimulus` at `pvt` with
    /// [`CircuitError::InvalidOperatingPoint`].
    fn assert_invalid_operating_point(stimulus: &DischargeStimulus, pvt: &PvtConditions) {
        let (sim, _) = sim();
        let delta = sim.discharge_delta(stimulus, pvt, &MismatchSample::none());
        assert!(
            matches!(delta, Err(CircuitError::InvalidOperatingPoint { .. })),
            "discharge_delta: {delta:?}"
        );
        let mut out = [0.0; 2];
        // The invalid query second in a batch, after a valid one.
        let valid = TransientQuery::nominal(
            DischargeStimulus::default(),
            PvtConditions::nominal(sim.technology()),
        );
        let batch = sim.fill_transients(
            &[valid, TransientQuery::nominal(*stimulus, *pvt)],
            &[Seconds(0.5e-9)],
            &mut LaneBuffer::default(),
            &mut out,
            &mut [0.0; 2],
        );
        assert!(
            matches!(batch, Err(CircuitError::InvalidOperatingPoint { .. })),
            "fill_transients: {batch:?}"
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
        let (_, pvt) = sim();
        for bad in [
            DischargeStimulus {
                duration: Seconds(0.0),
                ..DischargeStimulus::default()
            },
            DischargeStimulus {
                time_steps: 0,
                ..DischargeStimulus::default()
            },
            DischargeStimulus {
                word_line_voltage: Volts(2.0),
                ..DischargeStimulus::default()
            },
            DischargeStimulus {
                cells_on_bitline: 0,
                ..DischargeStimulus::default()
            },
        ] {
            assert_invalid_operating_point(&bad, &pvt);
        }
    }
}
