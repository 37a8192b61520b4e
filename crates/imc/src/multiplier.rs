//! The behavioural discharge-based in-SRAM multiplier.
//!
//! The circuit (paper Section V, based on ref. \[8\]) multiplies an operand
//! `a` applied through a word-line DAC with an operand `d` stored in an SRAM
//! row.  Each stored bit `d_i` gates the discharge of its own bit-line-bar;
//! bit weighting is achieved by letting column `i` discharge for `2^i · τ0`.
//! The discharges are then combined by charge sharing and digitised by an
//! ADC.
//!
//! The paper's macro is the fixed 16×4 INT4 array; here the geometry is data
//! ([`ArrayConfig`]): one analog pass handles a `slice_bits`-wide slice of
//! each operand, and wider operands (e.g. INT8 on a 4-bit array) are composed
//! from `slices² ` passes with digital shift-add accumulation.  The default
//! geometry reproduces the paper's array bit-for-bit.

use crate::error::ImcError;
use crate::reliability::FaultState;
use optima_circuit::adc::Adc;
use optima_circuit::array::ArrayConfig;
use optima_circuit::dac::{Dac, DacTransfer};
use optima_core::model::suite::ModelSuite;
use optima_math::distributions::Gaussian;
use optima_math::units::{Celsius, FemtoJoules, Seconds, Volts};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Operand bits of the paper's default array geometry.
///
/// Kept for the fixed-width call sites of the paper experiments; geometry-
/// aware code should use [`ArrayConfig::operand_bits`] instead.
pub const OPERAND_BITS: u8 = 4;

/// Largest operand value of the paper's default geometry (`2^4 − 1`).
pub const OPERAND_MAX: u16 = (1 << OPERAND_BITS) - 1;

/// Largest exact product of the paper's default geometry (`15 × 15`).
pub const PRODUCT_MAX: u16 = OPERAND_MAX * OPERAND_MAX;

/// Static configuration of one multiplier design point.
///
/// The first three fields are exactly the design-space parameters explored in
/// the paper's Fig. 7 / Table I; the array geometry generalises the paper's
/// fixed 16×4 INT4 macro.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiplierConfig {
    /// Discharge time of the least-significant bit-line (`τ0`).
    pub tau0: Seconds,
    /// DAC output voltage for input code 0 (`V_DAC,0`).
    pub vdac_zero: Volts,
    /// DAC full-scale output voltage (`V_DAC,FS`).
    pub vdac_full_scale: Volts,
    /// DAC transfer curve (linear in the paper; square-root pre-distortion
    /// available for the ablation study).
    pub dac_transfer: DacTransfer,
    /// Array geometry (defaults to the paper's 16×4 INT4 macro).
    pub array: ArrayConfig,
}

impl MultiplierConfig {
    /// Creates a configuration from the three design-space parameters with a
    /// linear DAC and the paper's default array geometry.
    pub fn new(tau0: Seconds, vdac_zero: Volts, vdac_full_scale: Volts) -> Self {
        MultiplierConfig {
            tau0,
            vdac_zero,
            vdac_full_scale,
            dac_transfer: DacTransfer::Linear,
            array: ArrayConfig::default(),
        }
    }

    /// The paper's *fom* corner (Table I): τ0 = 0.16 ns, V_DAC,0 = 0.3 V,
    /// V_DAC,FS = 1.0 V.
    pub fn paper_fom_corner() -> Self {
        MultiplierConfig::new(Seconds(0.16e-9), Volts(0.3), Volts(1.0))
    }

    /// The paper's *power* corner (Table I): τ0 = 0.16 ns, V_DAC,0 = 0.3 V,
    /// V_DAC,FS = 0.7 V.
    pub fn paper_power_corner() -> Self {
        MultiplierConfig::new(Seconds(0.16e-9), Volts(0.3), Volts(0.7))
    }

    /// The paper's *variation* corner (Table I): τ0 = 0.24 ns, V_DAC,0 = 0.4 V,
    /// V_DAC,FS = 1.0 V.
    pub fn paper_variation_corner() -> Self {
        MultiplierConfig::new(Seconds(0.24e-9), Volts(0.4), Volts(1.0))
    }

    /// Switches the DAC transfer curve (builder style).
    pub fn with_dac_transfer(mut self, transfer: DacTransfer) -> Self {
        self.dac_transfer = transfer;
        self
    }

    /// Switches the array geometry (builder style).
    pub fn with_array(mut self, array: ArrayConfig) -> Self {
        self.array = array;
        self
    }
}

/// Result of one in-SRAM multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiplyOutcome {
    /// Digitised product (in product LSBs, ideally `a · d`).
    pub result: u16,
    /// Exact product `a · d`.
    pub expected: u16,
    /// Combined analog discharge presented to the ADC (for composed
    /// geometries: the mean over the analog passes).
    pub combined_discharge: Volts,
    /// Energy of the multiplication (discharges + converter overhead over
    /// every analog pass), excluding the operand write.
    pub multiply_energy: FemtoJoules,
    /// Energy of writing the stored operand (one cell write per operand bit).
    pub write_energy: FemtoJoules,
}

impl MultiplyOutcome {
    /// Signed error in product LSBs (`result − expected`).
    pub fn error_lsb(&self) -> f64 {
        self.result as f64 - self.expected as f64
    }

    /// Total energy of write + multiplication.
    pub fn total_energy(&self) -> FemtoJoules {
        FemtoJoules(self.multiply_energy.0 + self.write_energy.0)
    }
}

/// Operating conditions of a multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Supply voltage.
    pub vdd: Volts,
    /// Junction temperature.
    pub temperature: Celsius,
}

/// The behavioural in-SRAM multiplier.
#[derive(Debug, Clone)]
pub struct InSramMultiplier {
    models: ModelSuite,
    config: MultiplierConfig,
    dac: Dac,
    adc: Adc,
    /// Volts of combined discharge per slice-product LSB, determined by a
    /// one-time least-squares calibration over the slice input space.
    volts_per_lsb: f64,
    /// Fixed converter overhead charged per analog pass, amortised over the
    /// column-mux group.
    converter_overhead: FemtoJoules,
    nominal: OperatingPoint,
    /// Optional reliability fault state (defects, redundancy remap, aging).
    /// `None` is the pristine fast path and executes exactly the historic
    /// float operations; a pristine `Some` state is bit-identical to it
    /// (property-tested).
    faults: Option<FaultState>,
}

impl InSramMultiplier {
    /// Builds a multiplier for the given fitted models and design point.
    ///
    /// Construction performs a one-time transfer-curve calibration (the
    /// mapping from combined discharge to product LSBs) at nominal
    /// conditions, mirroring how the readout reference of the real circuit
    /// would be trimmed.
    ///
    /// # Errors
    ///
    /// * [`ImcError::InvalidConfiguration`] if the DAC voltages are
    ///   inconsistent, `τ0` is non-positive or the array geometry is invalid.
    /// * Propagates model-evaluation errors if the configuration drives the
    ///   models outside their calibrated domain.
    pub fn new(models: ModelSuite, config: MultiplierConfig) -> Result<Self, ImcError> {
        if config.tau0.0 <= 0.0 || !config.tau0.0.is_finite() {
            return Err(ImcError::InvalidConfiguration {
                context: format!("tau0 must be positive, got {}", config.tau0.0),
            });
        }
        config
            .array
            .validate()
            .map_err(|err| ImcError::InvalidConfiguration {
                context: err.to_string(),
            })?;
        let dac = Dac::new(
            config.array.dac_bits(),
            config.vdac_zero,
            config.vdac_full_scale,
        )
        .map_err(|err| ImcError::InvalidConfiguration {
            context: err.to_string(),
        })?
        .with_transfer(config.dac_transfer);
        // The ADC digitises the combined discharge of one pass; its range is
        // set after the transfer calibration so that one code equals one
        // slice-product LSB.
        let adc = Adc::new(config.array.adc_bits(), Volts(1.0)).map_err(|err| {
            ImcError::InvalidConfiguration {
                context: err.to_string(),
            }
        })?;
        let nominal = OperatingPoint {
            vdd: models.vdd_nominal(),
            temperature: models.temperature_nominal(),
        };

        let mut multiplier = InSramMultiplier {
            models,
            config,
            dac,
            adc,
            volts_per_lsb: 1.0,
            converter_overhead: FemtoJoules(2.0 / config.array.column_mux as f64),
            nominal,
            faults: None,
        };
        multiplier.calibrate_transfer()?;
        Ok(multiplier)
    }

    /// The design-point configuration.
    pub fn config(&self) -> &MultiplierConfig {
        &self.config
    }

    /// The array geometry the multiplier was generated for.
    pub fn array(&self) -> &ArrayConfig {
        &self.config.array
    }

    /// The fitted models driving the multiplier.
    pub fn models(&self) -> &ModelSuite {
        &self.models
    }

    /// Volts of combined discharge corresponding to one product LSB.
    pub fn volts_per_lsb(&self) -> Volts {
        Volts(self.volts_per_lsb)
    }

    /// Nominal operating point used for calibration.
    pub fn nominal_operating_point(&self) -> OperatingPoint {
        self.nominal
    }

    /// Attaches a reliability fault state (builder style): every subsequent
    /// multiplication sees the faulted cell behaviour — stuck cells gate the
    /// discharge, open bit-lines contribute nothing, shorted bit-lines
    /// discharge the full rail, retention drift scales each column's ΔV and
    /// the accumulated V_th aging shaves the word-line overdrive.
    ///
    /// The transfer trim ([`InSramMultiplier::volts_per_lsb`]) is *not*
    /// re-calibrated: the readout reference of the real circuit is trimmed
    /// once at test time on (presumed-good) reference columns, so deployed
    /// defects and aging show up as output error, exactly as in the field.
    ///
    /// # Errors
    ///
    /// [`ImcError::InvalidConfiguration`] when the fault state was built for
    /// a different array geometry.
    pub fn with_faults(mut self, faults: FaultState) -> Result<Self, ImcError> {
        if faults.array() != &self.config.array {
            return Err(ImcError::InvalidConfiguration {
                context: format!(
                    "fault state keyed to {} cannot attach to a {} multiplier",
                    faults.array().describe(),
                    self.config.array.describe()
                ),
            });
        }
        self.faults = Some(faults);
        Ok(self)
    }

    /// The attached reliability fault state, if any.
    pub fn faults(&self) -> Option<&FaultState> {
        self.faults.as_ref()
    }

    /// Applies the accumulated V_th aging to a word-line voltage.  Without a
    /// fault state this is the identity (no float operations at all), so the
    /// pristine path stays bit-identical.
    #[inline]
    fn aged_word_line(&self, word_line: Volts) -> Volts {
        match &self.faults {
            None => word_line,
            Some(faults) => Volts((word_line.0 - faults.vth_shift()).max(0.0)),
        }
    }

    /// Least-squares calibration of the discharge-to-LSB transfer factor over
    /// the full slice input space at nominal conditions (batched: the analog
    /// grid is evaluated once, then combined per operand pair).
    ///
    /// Composed geometries calibrate the single analog pass; the digital
    /// shift-add composition is exact and needs no trimming of its own.
    fn calibrate_transfer(&mut self) -> Result<(), ImcError> {
        let grid = self.analog_grid(self.nominal)?;
        let slice_max = self.config.array.slice_max();
        let mut numerator = 0.0;
        let mut denominator = 0.0;
        for a in 0..=slice_max {
            for d in 0..=slice_max {
                let discharge = grid.combined_discharge(a, d);
                let expected = (a * d) as f64;
                numerator += discharge * expected;
                denominator += expected * expected;
            }
        }
        if denominator <= 0.0 || numerator <= 0.0 {
            return Err(ImcError::InvalidConfiguration {
                context: "transfer calibration produced no usable discharge".to_string(),
            });
        }
        self.volts_per_lsb = numerator / denominator;
        Ok(())
    }

    /// Discharge duration of column `bit` (`2^bit · τ0`).
    fn column_duration(&self, bit: u8) -> Seconds {
        Seconds(self.config.tau0.0 * (1u32 << bit) as f64)
    }

    /// Precomputes every per-(slice operand, column) analog quantity at `at`
    /// through the batched model fills.
    ///
    /// This is the batched analog hot path: one word-line voltage per slice
    /// operand and `slice_bits` discharges/energies each are evaluated once,
    /// and the operand pairs of the full input space are then combined from
    /// them — bit-identical to evaluating each pair through the scalar
    /// [`InSramMultiplier::multiply_at`] path, because a pair's discharge is
    /// the same sum of the same per-column values in the same (bit-ascending)
    /// order, pass by pass.
    ///
    /// # Errors
    ///
    /// Propagates converter and model-evaluation errors, in the same
    /// operand-major order as the scalar input-space loop.
    pub fn analog_grid(&self, at: OperatingPoint) -> Result<AnalogOperandGrid, ImcError> {
        let array = &self.config.array;
        let operands = array.slice_max() as usize + 1;
        let bits = array.slice_bits as usize;
        let durations: Vec<Seconds> = (0..array.slice_bits)
            .map(|b| self.column_duration(b))
            .collect();
        let mut word_lines = Vec::with_capacity(operands);
        let mut deltas = vec![0.0; operands * bits];
        let mut energies = vec![0.0; operands * bits];
        for a in 0..operands {
            let word_line = self.aged_word_line(self.dac.output_with_supply(
                a as u16,
                at.vdd,
                self.models.vdd_nominal(),
            )?);
            word_lines.push(word_line);
            let delta_row = &mut deltas[a * bits..(a + 1) * bits];
            self.models.fill_discharges(
                &durations,
                word_line,
                true,
                at.vdd,
                at.temperature,
                delta_row,
            )?;
            for (energy, &delta) in energies[a * bits..(a + 1) * bits]
                .iter_mut()
                .zip(&*delta_row)
            {
                *energy = self
                    .models
                    .discharge_energy(Volts(delta), at.vdd, at.temperature)
                    .0;
            }
        }
        Ok(AnalogOperandGrid {
            slice_bits: array.slice_bits,
            word_lines,
            deltas,
            energies,
            write_energy: FemtoJoules(
                self.models.write_energy(at.vdd, at.temperature).0 * array.operand_bits as f64,
            ),
        })
    }

    /// Evaluates the full input space at `at` through the batched analog
    /// grid, returning the outcomes in operand-major order (`a` outer, `d`
    /// inner) — bit-identical to calling [`InSramMultiplier::multiply_at`]
    /// for every pair.
    ///
    /// # Errors
    ///
    /// Same as [`InSramMultiplier::analog_grid`].
    pub fn outcome_grid(&self, at: OperatingPoint) -> Result<Vec<MultiplyOutcome>, ImcError> {
        let grid = self.analog_grid(at)?;
        let max = self.config.array.operand_max();
        let mut outcomes = Vec::with_capacity(self.config.array.input_space());
        for a in 0..=max {
            for d in 0..=max {
                outcomes.push(self.compose_outcome(
                    a,
                    d,
                    |pass, a_slice, d_slice| self.grid_discharge(&grid, pass, a_slice, d_slice, at),
                    |pass, a_slice, bit| self.grid_energy(&grid, pass, a_slice, bit, at),
                    grid.write_energy,
                ));
            }
        }
        Ok(outcomes)
    }

    /// Combined discharge of one pass from the precomputed grid, applying
    /// the fault state when one is attached.  The `None` arm is the historic
    /// pristine path; the faulted arm mirrors the scalar
    /// [`InSramMultiplier::slice_discharge`] transform per `(pass, bit)`, so
    /// the batched and scalar faulted paths stay bit-identical.
    fn grid_discharge(
        &self,
        grid: &AnalogOperandGrid,
        pass: usize,
        a_slice: u16,
        d_slice: u16,
        at: OperatingPoint,
    ) -> f64 {
        match &self.faults {
            None => grid.combined_discharge(a_slice, d_slice),
            Some(faults) => {
                let mut total = 0.0;
                for bit in 0..grid.slice_bits {
                    let stored = (d_slice >> bit) & 1 == 1;
                    if !faults.column_discharges(pass, bit, stored) {
                        continue;
                    }
                    if faults.is_shorted(pass, bit) {
                        total += at.vdd.0;
                        continue;
                    }
                    total += faults.scaled_delta(pass, bit, grid.delta(a_slice, bit));
                }
                total / grid.slice_bits as f64
            }
        }
    }

    /// Per-column discharge energy from the precomputed grid, applying the
    /// fault state when one is attached (shorted bit-lines burn the energy
    /// of a full-rail discharge; drifted cells the energy of their scaled
    /// ΔV).
    fn grid_energy(
        &self,
        grid: &AnalogOperandGrid,
        pass: usize,
        a_slice: u16,
        bit: u8,
        at: OperatingPoint,
    ) -> f64 {
        match &self.faults {
            None => grid.energy(a_slice, bit),
            Some(faults) => {
                let delta = if faults.is_shorted(pass, bit) {
                    at.vdd.0
                } else {
                    faults.scaled_delta(pass, bit, grid.delta(a_slice, bit))
                };
                self.models
                    .discharge_energy(Volts(delta), at.vdd, at.temperature)
                    .0
            }
        }
    }

    /// Precomputes everything a mismatch Monte-Carlo multiply at `at` needs
    /// that no sample can change: the nominal [`AnalogOperandGrid`] and the
    /// Eq. 6 σ of every `(slice operand, column)`, evaluated at the grid's
    /// own (supply-adjusted, aged) word lines — exactly the σ the scalar
    /// [`InSramMultiplier::multiply_with_mismatch`] draws with.
    ///
    /// # Errors
    ///
    /// * [`ImcError::NonFiniteSigma`] naming the first (operand-major)
    ///   `(slice operand, column)` whose σ is not finite, so a broken Eq. 6
    ///   fit fails here instead of panicking inside a sampling worker.
    /// * Same as [`InSramMultiplier::analog_grid`].
    pub(crate) fn mismatch_grid(&self, at: OperatingPoint) -> Result<MismatchGrid, ImcError> {
        let analog = self.analog_grid(at)?;
        let bits = self.config.array.slice_bits;
        let mut sigmas = Vec::with_capacity(analog.word_lines.len() * bits as usize);
        for (a, &word_line) in analog.word_lines.iter().enumerate() {
            for bit in 0..bits {
                let sigma = self
                    .models
                    .mismatch_sigma(self.column_duration(bit), word_line)
                    .0;
                if !sigma.is_finite() {
                    return Err(ImcError::NonFiniteSigma {
                        slice_operand: a as u16,
                        column: bit,
                        sigma,
                    });
                }
                sigmas.push(sigma);
            }
        }
        Ok(MismatchGrid { analog, sigmas, at })
    }

    /// One mismatch Monte-Carlo multiplication off a precomputed
    /// [`MismatchGrid`] built by this multiplier — bit-identical to
    /// [`InSramMultiplier::multiply_with_mismatch`] at the grid's operating
    /// point, including where the RNG stream ends up: every discharging,
    /// non-shorted column draws one `Gaussian::new(0, σ)` sample when σ ≠ 0,
    /// in pass order and then bit order, and nothing else is evaluated per
    /// sample.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::OperandOutOfRange`] for operands above
    /// [`ArrayConfig::operand_max`].
    pub(crate) fn multiply_on_mismatch_grid<R: Rng + ?Sized>(
        &self,
        grid: &MismatchGrid,
        rng: &mut R,
        a: u16,
        d: u16,
    ) -> Result<MultiplyOutcome, ImcError> {
        self.check_operands(a, d)?;
        let analog = &grid.analog;
        Ok(self.compose_outcome(
            a,
            d,
            |pass, a_slice, d_slice| {
                self.sampled_discharge(grid, &mut *rng, pass, a_slice, d_slice)
            },
            |pass, a_slice, bit| self.grid_energy(analog, pass, a_slice, bit, grid.at),
            analog.write_energy,
        ))
    }

    /// Combined discharge of one pass with mismatch sampling, off the
    /// precomputed grid: the per-column transform of the scalar
    /// [`InSramMultiplier::slice_discharge`] with the nominal ΔV and σ looked
    /// up instead of evaluated.
    fn sampled_discharge<R: Rng + ?Sized>(
        &self,
        grid: &MismatchGrid,
        rng: &mut R,
        pass: usize,
        a_slice: u16,
        d_slice: u16,
    ) -> f64 {
        let slice_bits = grid.analog.slice_bits;
        let mut total = 0.0;
        for bit in 0..slice_bits {
            let stored = (d_slice >> bit) & 1 == 1;
            let discharges = match &self.faults {
                None => stored,
                Some(faults) => faults.column_discharges(pass, bit, stored),
            };
            if !discharges {
                continue;
            }
            if let Some(faults) = &self.faults {
                if faults.is_shorted(pass, bit) {
                    total += grid.at.vdd.0;
                    continue;
                }
            }
            let sigma = grid.sigma(a_slice, bit);
            let deviation = if sigma == 0.0 {
                0.0
            } else {
                Gaussian::new(0.0, sigma).sample(rng)
            };
            let delta = (grid.analog.delta(a_slice, bit) + deviation).max(0.0);
            total += match &self.faults {
                None => delta,
                Some(faults) => faults.scaled_delta(pass, bit, delta),
            };
        }
        total / slice_bits as f64
    }

    /// Analog mismatch σ of every operand pair, in operand-major order —
    /// bit-identical to calling [`InSramMultiplier::analog_sigma`] for every
    /// pair, from `slice_bits` σ-model evaluations per slice operand instead
    /// of one per set bit of every pair.
    ///
    /// # Errors
    ///
    /// Propagates converter errors.
    pub fn analog_sigma_grid(&self) -> Result<Vec<Volts>, ImcError> {
        let array = &self.config.array;
        let slice_operands = array.slice_max() as usize + 1;
        let bits = array.slice_bits as usize;
        let mut sigmas = vec![0.0; slice_operands * bits];
        for a in 0..slice_operands {
            let word_line = self.dac.output(a as u16)?;
            for bit in 0..array.slice_bits {
                sigmas[a * bits + bit as usize] = self
                    .models
                    .mismatch_sigma(self.column_duration(bit), word_line)
                    .0;
            }
        }
        let max = array.operand_max();
        let mut grid = Vec::with_capacity(array.input_space());
        for a in 0..=max {
            for d in 0..=max {
                let sigma = self.fold_passes(a, d, 0.0f64, |worst, _, a_slice, d_slice| {
                    let mut variance = 0.0;
                    for bit in 0..bits {
                        if (d_slice >> bit) & 1 == 1 {
                            let sigma = sigmas[a_slice as usize * bits + bit];
                            variance += sigma * sigma;
                        }
                    }
                    worst.max(variance.sqrt() / bits as f64)
                });
                grid.push(Volts(sigma));
            }
        }
        Ok(grid)
    }

    /// Charge-shared combined discharge of one analog pass (`pass` in the
    /// composed pass order) for the slice operands `a_slice` (DAC input) and
    /// `d_slice` (stored slice), optionally with mismatch sampling.
    ///
    /// An attached fault state changes which columns discharge (stuck cells,
    /// open/shorted bit-lines via the redundancy remap of `pass`) and scales
    /// each surviving column's ΔV by its retention drift; shorted bit-lines
    /// contribute the full rail without a model evaluation (and consume no
    /// mismatch sample — a shorted column has no transistor to mismatch).
    fn slice_discharge<R: Rng + ?Sized>(
        &self,
        pass: usize,
        a_slice: u16,
        d_slice: u16,
        at: OperatingPoint,
        mut rng: Option<&mut R>,
    ) -> Result<f64, ImcError> {
        let word_line = self.aged_word_line(self.dac.output_with_supply(
            a_slice,
            at.vdd,
            self.models.vdd_nominal(),
        )?);
        let mut total = 0.0;
        for bit in 0..self.config.array.slice_bits {
            let stored = (d_slice >> bit) & 1 == 1;
            let discharges = match &self.faults {
                None => stored,
                Some(faults) => faults.column_discharges(pass, bit, stored),
            };
            if !discharges {
                continue;
            }
            if let Some(faults) = &self.faults {
                if faults.is_shorted(pass, bit) {
                    total += at.vdd.0;
                    continue;
                }
            }
            let duration = self.column_duration(bit);
            let delta = match rng.as_mut() {
                Some(rng) => self.models.discharge_with_mismatch(
                    &mut **rng,
                    duration,
                    word_line,
                    true,
                    at.vdd,
                    at.temperature,
                )?,
                None => self
                    .models
                    .discharge(duration, word_line, true, at.vdd, at.temperature)?,
            };
            total += match &self.faults {
                None => delta.0,
                Some(faults) => faults.scaled_delta(pass, bit, delta.0),
            };
        }
        // Charge sharing across the slice's sampling capacitors averages the
        // individual discharges.
        Ok(total / self.config.array.slice_bits as f64)
    }

    /// Analog standard deviation of the combined discharge for `(a, d)` due
    /// to transistor mismatch (root-sum-square of the per-column σ within one
    /// pass; for composed geometries the worst pass, since every pass is
    /// digitised on its own).
    ///
    /// # Errors
    ///
    /// Propagates converter errors for out-of-range operands.
    pub fn analog_sigma(&self, a: u16, d: u16) -> Result<Volts, ImcError> {
        self.check_operands(a, d)?;
        let array = &self.config.array;
        let slices = array.slices() as u16;
        let shift = array.slice_bits as u16;
        let mask = array.slice_max();
        let mut worst = 0.0f64;
        for i in 0..slices {
            let a_slice = (a >> (i * shift)) & mask;
            let word_line = self.dac.output(a_slice)?;
            for j in 0..slices {
                let d_slice = (d >> (j * shift)) & mask;
                let mut variance = 0.0;
                for bit in 0..array.slice_bits {
                    if (d_slice >> bit) & 1 == 0 {
                        continue;
                    }
                    let sigma = self
                        .models
                        .mismatch_sigma(self.column_duration(bit), word_line)
                        .0;
                    variance += sigma * sigma;
                }
                worst = worst.max(variance.sqrt() / array.slice_bits as f64);
            }
        }
        Ok(Volts(worst))
    }

    fn check_operands(&self, a: u16, d: u16) -> Result<(), ImcError> {
        let max = self.config.array.operand_max();
        if a > max {
            return Err(ImcError::OperandOutOfRange { value: a, max });
        }
        if d > max {
            return Err(ImcError::OperandOutOfRange { value: d, max });
        }
        Ok(())
    }

    /// Performs one multiplication at nominal conditions.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::OperandOutOfRange`] for operands above
    /// [`ArrayConfig::operand_max`] and propagates model errors.
    pub fn multiply(&self, a: u16, d: u16) -> Result<MultiplyOutcome, ImcError> {
        self.multiply_at(a, d, self.nominal)
    }

    /// Performs one multiplication at an explicit operating point.
    ///
    /// # Errors
    ///
    /// Same as [`InSramMultiplier::multiply`].
    pub fn multiply_at(
        &self,
        a: u16,
        d: u16,
        at: OperatingPoint,
    ) -> Result<MultiplyOutcome, ImcError> {
        self.check_operands(a, d)?;
        self.multiply_inner::<rand_chacha::ChaCha8Rng>(a, d, at, None)
    }

    /// Performs one multiplication with per-column mismatch sampling (one
    /// Monte Carlo instance; composed geometries sample every pass
    /// independently, in pass order).
    ///
    /// This evaluates the fitted models live for every pair; the Fig. 8
    /// Monte Carlo draws the same samples off a precomputed grid instead and
    /// is pinned bit-identical to this per-pair reference.
    ///
    /// # Errors
    ///
    /// Same as [`InSramMultiplier::multiply`].
    pub fn multiply_with_mismatch<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        a: u16,
        d: u16,
        at: OperatingPoint,
    ) -> Result<MultiplyOutcome, ImcError> {
        self.check_operands(a, d)?;
        self.multiply_inner(a, d, at, Some(rng))
    }

    /// Shared scalar multiply path: evaluates every analog pass through the
    /// live models (optionally with mismatch sampling, consuming the RNG in
    /// pass order), then composes the digital result.
    fn multiply_inner<R: Rng + ?Sized>(
        &self,
        a: u16,
        d: u16,
        at: OperatingPoint,
        mut rng: Option<&mut R>,
    ) -> Result<MultiplyOutcome, ImcError> {
        let array = &self.config.array;
        let slices = array.slices() as u16;
        let shift = array.slice_bits as u16;
        let mask = array.slice_max();
        let mut discharges = Vec::with_capacity(array.passes() as usize);
        for i in 0..slices {
            let a_slice = (a >> (i * shift)) & mask;
            for j in 0..slices {
                let d_slice = (d >> (j * shift)) & mask;
                let pass = discharges.len();
                discharges.push(self.slice_discharge(
                    pass,
                    a_slice,
                    d_slice,
                    at,
                    rng.as_deref_mut(),
                )?);
            }
        }
        let write_energy = FemtoJoules(
            self.models.write_energy(at.vdd, at.temperature).0 * array.operand_bits as f64,
        );
        // Energy readout mirrors the real circuit: it cannot fail once the
        // pass discharges above succeeded, so fall back to zero-energy terms
        // instead of propagating.
        let column_energy = |pass: usize, a_slice: u16, bit: u8| {
            if let Some(faults) = &self.faults {
                if faults.is_shorted(pass, bit) {
                    return self
                        .models
                        .discharge_energy(Volts(at.vdd.0), at.vdd, at.temperature)
                        .0;
                }
            }
            let word_line = self.aged_word_line(
                self.dac
                    .output_with_supply(a_slice, at.vdd, self.models.vdd_nominal())
                    .unwrap_or(Volts(self.config.vdac_zero.0)),
            );
            let delta = self
                .models
                .discharge(
                    self.column_duration(bit),
                    word_line,
                    true,
                    at.vdd,
                    at.temperature,
                )
                .map(|v| v.0)
                .unwrap_or(0.0);
            let delta = match &self.faults {
                None => delta,
                Some(faults) => faults.scaled_delta(pass, bit, delta),
            };
            self.models
                .discharge_energy(Volts(delta), at.vdd, at.temperature)
                .0
        };
        Ok(self.compose_outcome(
            a,
            d,
            |pass, _, _| discharges[pass],
            column_energy,
            write_energy,
        ))
    }

    /// Folds `combine` over the analog passes of the pair `(a, d)` in pass
    /// order (`a`-slice outer, `d`-slice inner, both low-to-high), passing
    /// `(accumulator, pass_index, a_slice, d_slice)`.
    fn fold_passes<T>(
        &self,
        a: u16,
        d: u16,
        init: T,
        mut combine: impl FnMut(T, usize, u16, u16) -> T,
    ) -> T {
        let array = &self.config.array;
        let slices = array.slices() as u16;
        let shift = array.slice_bits as u16;
        let mask = array.slice_max();
        let mut acc = init;
        let mut pass = 0usize;
        for i in 0..slices {
            let a_slice = (a >> (i * shift)) & mask;
            for j in 0..slices {
                let d_slice = (d >> (j * shift)) & mask;
                acc = combine(acc, pass, a_slice, d_slice);
                pass += 1;
            }
        }
        acc
    }

    /// Shared readout back half of the scalar and batched multiply paths:
    /// per-pass ADC quantisation of the combined discharge, digital
    /// shift-add composition across the passes, and the per-set-bit energy
    /// combination.  Only how the per-pass discharge and per-column energy
    /// are obtained differs between the callers (live model evaluation vs.
    /// precomputed grid, with or without mismatch sampling), so any change
    /// to the readout model lands in every path.
    fn compose_outcome(
        &self,
        a: u16,
        d: u16,
        mut slice_discharge: impl FnMut(usize, u16, u16) -> f64,
        column_energy: impl Fn(usize, u16, u8) -> f64,
        write_energy: FemtoJoules,
    ) -> MultiplyOutcome {
        let array = &self.config.array;
        let slice_bits = array.slice_bits;
        let passes = array.passes() as f64;
        let max_code = self.adc.max_code() as f64;
        struct Acc {
            result: u32,
            discharge_sum: f64,
            multiply_energy: f64,
        }
        let acc = self.fold_passes(
            a,
            d,
            Acc {
                result: 0,
                discharge_sum: 0.0,
                multiply_energy: 0.0,
            },
            |mut acc, pass, a_slice, d_slice| {
                let discharge = slice_discharge(pass, a_slice, d_slice);
                acc.discharge_sum += discharge;
                // Round-to-nearest quantisation in slice-product LSB units,
                // clamped to the ADC code range of one pass.
                let raw = (discharge / self.volts_per_lsb).round();
                let code = raw.clamp(0.0, max_code) as u32;
                // Which pass this slice pair is determines its digital weight.
                let weight = {
                    let slices = array.slices() as usize;
                    ((pass / slices + pass % slices) * slice_bits as usize) as u32
                };
                acc.result += code << weight;
                acc.multiply_energy += self.converter_overhead.0;
                // Energy follows the columns that actually discharge: a
                // fault state can gate a stored 1 off (stuck-at-0, open
                // bit-line) or a stored 0 on (stuck-at-1, short).
                let gates = match &self.faults {
                    None => d_slice,
                    Some(faults) => faults.gate_bits(pass, d_slice),
                };
                for bit in 0..slice_bits {
                    if (gates >> bit) & 1 == 1 {
                        acc.multiply_energy += column_energy(pass, a_slice, bit);
                    }
                }
                acc
            },
        );
        MultiplyOutcome {
            // Non-ideal slice results can overshoot the exact product range;
            // the digital accumulator saturates at the u16 result width.
            result: acc.result.min(u16::MAX as u32) as u16,
            expected: a * d,
            combined_discharge: Volts(acc.discharge_sum / passes),
            multiply_energy: FemtoJoules(acc.multiply_energy),
            write_energy,
        }
    }
}

/// Per-(slice operand, column) analog quantities of one multiplier at one
/// operating point, precomputed through the batched model fills.
///
/// Built by [`InSramMultiplier::analog_grid`]; the operand pairs of the full
/// input space combine these `(slice_max + 1) × slice_bits` values instead of
/// re-evaluating the fitted polynomials per pair.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogOperandGrid {
    /// Slice width the grid was generated for (row stride of the flats).
    slice_bits: u8,
    /// Word-line voltage per slice operand `a`.
    word_lines: Vec<Volts>,
    /// Discharge `ΔV` per `(a, bit)`, row-major with `slice_bits` per row.
    deltas: Vec<f64>,
    /// Discharge energy per `(a, bit)` (femtojoules).
    energies: Vec<f64>,
    /// Energy of writing one full-width stored operand.
    write_energy: FemtoJoules,
}

impl AnalogOperandGrid {
    /// Discharge `ΔV` of column `bit` for slice operand `a`.
    fn delta(&self, a: u16, bit: u8) -> f64 {
        self.deltas[a as usize * self.slice_bits as usize + bit as usize]
    }

    /// Discharge energy of column `bit` for slice operand `a` (femtojoules).
    fn energy(&self, a: u16, bit: u8) -> f64 {
        self.energies[a as usize * self.slice_bits as usize + bit as usize]
    }

    /// Charge-shared combined discharge of one pass for the slice pair
    /// `(a, d)`: the same per-column values summed in the same bit-ascending
    /// order as the scalar multiply path, so the result is bit-identical to
    /// it.
    pub fn combined_discharge(&self, a: u16, d: u16) -> f64 {
        let mut total = 0.0;
        for bit in 0..self.slice_bits {
            if (d >> bit) & 1 == 1 {
                total += self.delta(a, bit);
            }
        }
        total / self.slice_bits as f64
    }

    /// Word-line voltage the DAC produced for slice operand `a`.
    pub fn word_line(&self, a: u16) -> Volts {
        self.word_lines[a as usize]
    }
}

/// The sample-invariant part of a mismatch Monte Carlo at one operating
/// point: the nominal [`AnalogOperandGrid`] plus the Eq. 6 σ per
/// `(slice operand, column)`, validated finite.
///
/// Built by [`InSramMultiplier::mismatch_grid`] and consumed by
/// [`InSramMultiplier::multiply_on_mismatch_grid`] of the same multiplier.
#[derive(Debug)]
pub(crate) struct MismatchGrid {
    analog: AnalogOperandGrid,
    /// Mismatch σ per `(a, bit)` in volts, laid out like the grid's deltas.
    sigmas: Vec<f64>,
    /// Operating point the grid was evaluated at.
    at: OperatingPoint,
}

impl MismatchGrid {
    /// Mismatch σ of column `bit` for slice operand `a` (volts).
    fn sigma(&self, a: u16, bit: u8) -> f64 {
        self.sigmas[a as usize * self.analog.slice_bits as usize + bit as usize]
    }
}

/// A pre-computed result table of a multiplier configuration over its full
/// input space.
///
/// The DNN experiments perform millions of multiplications; looking the
/// results up in a table is the standard way to make that tractable and is
/// behaviourally identical because the multiplier is deterministic at a fixed
/// operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiplierTable {
    operand_bits: u8,
    results: Vec<u16>,
    average_multiply_energy: FemtoJoules,
    average_total_energy: FemtoJoules,
}

impl MultiplierTable {
    /// Builds the table by evaluating every operand pair at the given
    /// operating point through the batched analog grid
    /// ([`InSramMultiplier::outcome_grid`]).
    ///
    /// Bit-identical to [`MultiplierTable::from_multiplier_scalar`] — the
    /// equivalence is enforced by property tests and re-checked by the
    /// `analog_mac` bench report.
    ///
    /// # Errors
    ///
    /// Propagates multiplier errors.
    pub fn from_multiplier(
        multiplier: &InSramMultiplier,
        at: OperatingPoint,
    ) -> Result<Self, ImcError> {
        Self::from_outcomes(
            multiplier.outcome_grid(at)?,
            multiplier.array().operand_bits,
        )
    }

    /// Builds the table through the scalar per-pair multiply path — the
    /// reference implementation the batched
    /// [`MultiplierTable::from_multiplier`] is verified against.
    ///
    /// # Errors
    ///
    /// Propagates multiplier errors.
    pub fn from_multiplier_scalar(
        multiplier: &InSramMultiplier,
        at: OperatingPoint,
    ) -> Result<Self, ImcError> {
        let max = multiplier.array().operand_max();
        let mut outcomes = Vec::with_capacity(multiplier.array().input_space());
        for a in 0..=max {
            for d in 0..=max {
                outcomes.push(multiplier.multiply_at(a, d, at)?);
            }
        }
        Self::from_outcomes(outcomes, multiplier.array().operand_bits)
    }

    fn from_outcomes(outcomes: Vec<MultiplyOutcome>, operand_bits: u8) -> Result<Self, ImcError> {
        let mut results = Vec::with_capacity(outcomes.len());
        let mut energy_sum = 0.0;
        let mut total_sum = 0.0;
        for outcome in &outcomes {
            results.push(outcome.result);
            energy_sum += outcome.multiply_energy.0;
            total_sum += outcome.total_energy().0;
        }
        let count = outcomes.len() as f64;
        Ok(MultiplierTable {
            operand_bits,
            results,
            average_multiply_energy: FemtoJoules(energy_sum / count),
            average_total_energy: FemtoJoules(total_sum / count),
        })
    }

    /// An ideal (error-free) 4-bit table, used as the exact-INT4 baseline.
    pub fn exact() -> Self {
        Self::exact_for_bits(OPERAND_BITS)
    }

    /// An ideal (error-free) table over `operand_bits`-wide operands (1..=8).
    ///
    /// # Panics
    ///
    /// Panics if `operand_bits` is outside 1..=8 (products must fit `u16`).
    pub fn exact_for_bits(operand_bits: u8) -> Self {
        assert!(
            (1..=8).contains(&operand_bits),
            "exact table supports 1..=8 operand bits"
        );
        let max = (1u32 << operand_bits) as u16 - 1;
        let mut results = Vec::with_capacity((max as usize + 1) * (max as usize + 1));
        for a in 0..=max {
            for d in 0..=max {
                results.push(a * d);
            }
        }
        MultiplierTable {
            operand_bits,
            results,
            average_multiply_energy: FemtoJoules(0.0),
            average_total_energy: FemtoJoules(0.0),
        }
    }

    /// Operand width of the table's input space.
    pub fn operand_bits(&self) -> u8 {
        self.operand_bits
    }

    /// Largest operand the table covers.
    pub fn operand_max(&self) -> u16 {
        (1u32 << self.operand_bits) as u16 - 1
    }

    /// Looks up the multiplier output for `(a, d)`.
    ///
    /// # Panics
    ///
    /// Panics if either operand exceeds [`MultiplierTable::operand_max`].
    pub fn lookup(&self, a: u16, d: u16) -> u16 {
        let max = self.operand_max();
        assert!(
            a <= max && d <= max,
            "operands must be {}-bit",
            self.operand_bits
        );
        self.results[a as usize * (max as usize + 1) + d as usize]
    }

    /// Average multiplication energy over the input space.
    pub fn average_multiply_energy(&self) -> FemtoJoules {
        self.average_multiply_energy
    }

    /// Average write + multiplication energy over the input space.
    pub fn average_total_energy(&self) -> FemtoJoules {
        self.average_total_energy
    }

    /// Mean absolute error of the table against exact multiplication (LSBs).
    pub fn mean_absolute_error(&self) -> f64 {
        let max = self.operand_max();
        let mut total = 0.0;
        for a in 0..=max {
            for d in 0..=max {
                total += (self.lookup(a, d) as f64 - (a * d) as f64).abs();
            }
        }
        total / self.results.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::linear_suite;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn ideal_config() -> MultiplierConfig {
        // Zero code at the threshold voltage makes the overdrive proportional
        // to the DAC code, so products are exact up to quantisation.
        MultiplierConfig::new(Seconds(0.16e-9), Volts(0.45), Volts(1.0))
    }

    fn int8_config() -> MultiplierConfig {
        ideal_config().with_array(ArrayConfig::int8())
    }

    #[test]
    fn near_ideal_multiplier_reproduces_products() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        for (a, d) in [(0, 0), (1, 1), (3, 5), (7, 9), (15, 15), (15, 1), (2, 8)] {
            let outcome = multiplier.multiply(a, d).unwrap();
            assert_eq!(outcome.expected, a * d);
            assert!(
                outcome.error_lsb().abs() <= 1.0,
                "{a} x {d}: got {} expected {}",
                outcome.result,
                outcome.expected
            );
        }
    }

    #[test]
    fn zero_operands_produce_zero() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        assert_eq!(multiplier.multiply(0, 9).unwrap().result, 0);
        assert_eq!(multiplier.multiply(9, 0).unwrap().result, 0);
    }

    #[test]
    fn operands_above_fifteen_are_rejected() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        assert!(matches!(
            multiplier.multiply(16, 3),
            Err(ImcError::OperandOutOfRange { .. })
        ));
        assert!(matches!(
            multiplier.multiply(3, 99),
            Err(ImcError::OperandOutOfRange { .. })
        ));
    }

    #[test]
    fn operand_range_follows_the_geometry() {
        let multiplier = InSramMultiplier::new(linear_suite(), int8_config()).unwrap();
        assert!(multiplier.multiply(255, 255).is_ok());
        assert!(matches!(
            multiplier.multiply(256, 1),
            Err(ImcError::OperandOutOfRange { max: 255, .. })
        ));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(InSramMultiplier::new(
            linear_suite(),
            MultiplierConfig::new(Seconds(0.0), Volts(0.3), Volts(1.0))
        )
        .is_err());
        assert!(InSramMultiplier::new(
            linear_suite(),
            MultiplierConfig::new(Seconds(0.16e-9), Volts(1.0), Volts(0.7))
        )
        .is_err());
        // Geometry validation is part of construction.
        let broken = ideal_config().with_array(ArrayConfig {
            operand_bits: 6,
            ..ArrayConfig::default()
        });
        assert!(matches!(
            InSramMultiplier::new(linear_suite(), broken),
            Err(ImcError::InvalidConfiguration { .. })
        ));
    }

    #[test]
    fn energy_grows_with_stored_operand_weight() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let light = multiplier.multiply(15, 1).unwrap().multiply_energy.0;
        let heavy = multiplier.multiply(15, 15).unwrap().multiply_energy.0;
        assert!(heavy > light);
        let outcome = multiplier.multiply(15, 15).unwrap();
        assert!(outcome.write_energy.0 > 0.0);
        assert!(outcome.total_energy().0 > outcome.multiply_energy.0);
    }

    #[test]
    fn paper_corner_constructors_match_table_one() {
        let fom = MultiplierConfig::paper_fom_corner();
        assert!((fom.tau0.0 - 0.16e-9).abs() < 1e-15);
        assert_eq!(fom.vdac_zero, Volts(0.3));
        assert_eq!(fom.vdac_full_scale, Volts(1.0));
        assert!(fom.array.is_paper());
        let power = MultiplierConfig::paper_power_corner();
        assert_eq!(power.vdac_full_scale, Volts(0.7));
        let variation = MultiplierConfig::paper_variation_corner();
        assert!((variation.tau0.0 - 0.24e-9).abs() < 1e-15);
        assert_eq!(variation.vdac_zero, Volts(0.4));
    }

    #[test]
    fn mismatch_sampling_perturbs_results_reproducibly() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let at = multiplier.nominal_operating_point();
        let mut rng_a = ChaCha8Rng::seed_from_u64(3);
        let mut rng_b = ChaCha8Rng::seed_from_u64(3);
        let a = multiplier
            .multiply_with_mismatch(&mut rng_a, 12, 13, at)
            .unwrap();
        let b = multiplier
            .multiply_with_mismatch(&mut rng_b, 12, 13, at)
            .unwrap();
        assert_eq!(a.combined_discharge, b.combined_discharge);
        // Across many samples the result must deviate from nominal sometimes.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let nominal = multiplier.multiply(12, 13).unwrap().combined_discharge.0;
        let any_different = (0..64).any(|_| {
            let sampled = multiplier
                .multiply_with_mismatch(&mut rng, 12, 13, at)
                .unwrap()
                .combined_discharge
                .0;
            (sampled - nominal).abs() > 1e-6
        });
        assert!(any_different);
    }

    #[test]
    fn analog_sigma_grows_with_operands() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let small = multiplier.analog_sigma(3, 1).unwrap().0;
        let large = multiplier.analog_sigma(15, 15).unwrap().0;
        assert!(large > small);
        assert_eq!(multiplier.analog_sigma(5, 0).unwrap().0, 0.0);
        assert!(multiplier.analog_sigma(16, 0).is_err());
    }

    #[test]
    fn table_matches_direct_multiplication() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let at = multiplier.nominal_operating_point();
        let table = MultiplierTable::from_multiplier(&multiplier, at).unwrap();
        for (a, d) in [(0, 0), (3, 4), (15, 15), (9, 2)] {
            assert_eq!(
                table.lookup(a, d),
                multiplier.multiply(a, d).unwrap().result
            );
        }
        assert!(table.average_multiply_energy().0 > 0.0);
        assert!(table.average_total_energy().0 > table.average_multiply_energy().0);
        assert!(table.mean_absolute_error() < 1.0);
    }

    #[test]
    fn batched_outcome_grid_is_bit_identical_to_scalar_multiplication() {
        for suite in [
            crate::testsupport::linear_suite(),
            crate::testsupport::pvt_sensitive_suite(),
        ] {
            let multiplier = InSramMultiplier::new(suite, ideal_config()).unwrap();
            for at in [
                multiplier.nominal_operating_point(),
                OperatingPoint {
                    vdd: Volts(0.95),
                    temperature: Celsius(60.0),
                },
            ] {
                let outcomes = multiplier.outcome_grid(at).unwrap();
                let sigmas = multiplier.analog_sigma_grid().unwrap();
                assert_eq!(outcomes.len(), 256);
                for a in 0..=OPERAND_MAX {
                    for d in 0..=OPERAND_MAX {
                        let index = (a * (OPERAND_MAX + 1) + d) as usize;
                        let scalar = multiplier.multiply_at(a, d, at).unwrap();
                        assert_eq!(outcomes[index], scalar, "a = {a}, d = {d}");
                        let scalar_sigma = multiplier.analog_sigma(a, d).unwrap();
                        assert_eq!(
                            sigmas[index].0.to_bits(),
                            scalar_sigma.0.to_bits(),
                            "sigma at a = {a}, d = {d}"
                        );
                    }
                }
            }
        }
    }

    /// Every field of an outcome as raw bits, so `-0.0`/`0.0` and NaN
    /// payloads count as differences.
    fn outcome_bits(outcome: &MultiplyOutcome) -> (u16, u16, u64, u64, u64) {
        (
            outcome.result,
            outcome.expected,
            outcome.combined_discharge.0.to_bits(),
            outcome.multiply_energy.0.to_bits(),
            outcome.write_energy.0.to_bits(),
        )
    }

    /// Runs one RNG stream through the whole input space at `at`, once via
    /// the scalar `multiply_with_mismatch` oracle and once via the mismatch
    /// grid, and requires bit-identical outcomes and equal stream positions
    /// afterwards (so neither path draws a sample the other skips).
    fn assert_mismatch_grid_matches_scalar(multiplier: &InSramMultiplier, at: OperatingPoint) {
        let grid = multiplier.mismatch_grid(at).unwrap();
        let mut scalar_rng = ChaCha8Rng::seed_from_u64(0x5eed);
        let mut grid_rng = scalar_rng.clone();
        let max = multiplier.array().operand_max();
        for a in 0..=max {
            for d in 0..=max {
                let scalar = multiplier
                    .multiply_with_mismatch(&mut scalar_rng, a, d, at)
                    .unwrap();
                let sampled = multiplier
                    .multiply_on_mismatch_grid(&grid, &mut grid_rng, a, d)
                    .unwrap();
                assert_eq!(
                    outcome_bits(&sampled),
                    outcome_bits(&scalar),
                    "a = {a}, d = {d}"
                );
            }
        }
        assert_eq!(grid_rng.next_u64(), scalar_rng.next_u64());
    }

    #[test]
    fn mismatch_grid_is_bit_identical_to_scalar_mismatch_sampling() {
        // A zero-code DAC output of 0 V gives σ = 0 at a = 0, which must
        // draw nothing on either path.
        let zero_word_line = MultiplierConfig::new(Seconds(0.16e-9), Volts(0.0), Volts(1.0));
        for suite in [linear_suite(), crate::testsupport::pvt_sensitive_suite()] {
            for config in [ideal_config(), zero_word_line] {
                let multiplier = InSramMultiplier::new(suite.clone(), config).unwrap();
                for at in [
                    multiplier.nominal_operating_point(),
                    OperatingPoint {
                        vdd: Volts(0.95),
                        temperature: Celsius(60.0),
                    },
                ] {
                    assert_mismatch_grid_matches_scalar(&multiplier, at);
                }
            }
        }
    }

    #[test]
    fn int8_mismatch_grid_is_bit_identical_to_scalar_mismatch_sampling() {
        let multiplier = InSramMultiplier::new(linear_suite(), int8_config()).unwrap();
        assert_eq!(multiplier.array().passes(), 4);
        assert_mismatch_grid_matches_scalar(&multiplier, multiplier.nominal_operating_point());
    }

    #[test]
    fn faulted_mismatch_grid_is_bit_identical_to_scalar_mismatch_sampling() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::{
            BitLineFault, CellDefect, DefectMap, DefectModel, LifetimeTrajectory,
        };
        let array = ArrayConfig::paper();
        // One shorted and one open data bit-line, a stuck cell of each kind
        // on the stored row, and retention drift on every cell.
        let map = (0..10_000u64)
            .find_map(|seed| {
                let map = DefectMap::sample(
                    &array,
                    &DefectModel {
                        stuck_at_zero_rate: 0.3,
                        stuck_at_one_rate: 0.3,
                        open_bitline_rate: 0.2,
                        short_bitline_rate: 0.2,
                        retention_sigma: 0.1,
                        seed,
                    },
                )
                .unwrap();
                let bitlines: Vec<BitLineFault> =
                    (0..4).map(|c| map.bitline_unchecked(c)).collect();
                let cells: Vec<CellDefect> = (0..4)
                    .filter(|&c| bitlines[c as usize] == BitLineFault::Healthy)
                    .map(|c| map.cell_unchecked(0, c))
                    .collect();
                let one = |fault| bitlines.iter().filter(|&&b| b == fault).count() == 1;
                (one(BitLineFault::Shorted)
                    && one(BitLineFault::Open)
                    && cells.contains(&CellDefect::StuckAtZero)
                    && cells.contains(&CellDefect::StuckAtOne))
                .then_some(map)
            })
            .expect("no defect map with every fault kind found");
        assert!((0..4).any(|c| map.drift_unchecked(0, c) != 0.0));
        let state = FaultState::unmitigated(&array, map, 0)
            .unwrap()
            .with_lifetime(&LifetimeTrajectory::nbti_like().at(3));
        assert!(state.vth_shift() > 0.0);
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config())
            .unwrap()
            .with_faults(state)
            .unwrap();
        assert_mismatch_grid_matches_scalar(&multiplier, multiplier.nominal_operating_point());
    }

    #[test]
    fn int8_outcome_grid_is_bit_identical_to_scalar_composition() {
        let multiplier = InSramMultiplier::new(linear_suite(), int8_config()).unwrap();
        let at = multiplier.nominal_operating_point();
        let outcomes = multiplier.outcome_grid(at).unwrap();
        let sigmas = multiplier.analog_sigma_grid().unwrap();
        assert_eq!(outcomes.len(), 65536);
        // The full 256×256 space is slow through the live scalar path; a
        // stratified sample (all slice-boundary patterns plus a diagonal)
        // covers every composition case.
        let probes: Vec<u16> = (0..=255u16)
            .filter(|&v| v % 17 == 0 || !(18..=238).contains(&v) || v % 16 == 0)
            .collect();
        for &a in &probes {
            for &d in &probes {
                let index = a as usize * 256 + d as usize;
                let scalar = multiplier.multiply_at(a, d, at).unwrap();
                assert_eq!(outcomes[index], scalar, "a = {a}, d = {d}");
                let scalar_sigma = multiplier.analog_sigma(a, d).unwrap();
                assert_eq!(
                    sigmas[index].0.to_bits(),
                    scalar_sigma.0.to_bits(),
                    "sigma at a = {a}, d = {d}"
                );
            }
        }
    }

    #[test]
    fn int8_composition_matches_the_widened_slice_reference() {
        // The composed result must equal the digital shift-add of the four
        // 4-bit slice multiplications performed by the equivalent paper-
        // geometry multiplier: composition adds no analog behaviour of its
        // own.
        let wide = InSramMultiplier::new(linear_suite(), int8_config()).unwrap();
        let narrow = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        assert_eq!(
            wide.volts_per_lsb().0.to_bits(),
            narrow.volts_per_lsb().0.to_bits()
        );
        let at = wide.nominal_operating_point();
        for (a, d) in [
            (0u16, 0u16),
            (1, 255),
            (255, 255),
            (170, 85),
            (37, 201),
            (16, 16),
        ] {
            let composed = wide.multiply_at(a, d, at).unwrap();
            let mut reference: u32 = 0;
            for i in 0..2u16 {
                for j in 0..2u16 {
                    let a_slice = (a >> (4 * i)) & 0xF;
                    let d_slice = (d >> (4 * j)) & 0xF;
                    let code = narrow.multiply_at(a_slice, d_slice, at).unwrap().result;
                    reference += (code as u32) << (4 * (i + j));
                }
            }
            assert_eq!(
                composed.result as u32,
                reference.min(u16::MAX as u32),
                "a = {a}, d = {d}"
            );
            assert_eq!(composed.expected, a * d);
        }
    }

    #[test]
    fn batched_table_is_bit_identical_to_scalar_table() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let at = multiplier.nominal_operating_point();
        let batched = MultiplierTable::from_multiplier(&multiplier, at).unwrap();
        let scalar = MultiplierTable::from_multiplier_scalar(&multiplier, at).unwrap();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn analog_grid_exposes_per_column_quantities() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let grid = multiplier
            .analog_grid(multiplier.nominal_operating_point())
            .unwrap();
        // d = 1 uses only column 0, so the combined discharge is delta/4.
        let single = grid.combined_discharge(9, 1);
        assert!(single > 0.0);
        assert_eq!(grid.combined_discharge(9, 0), 0.0);
        // Word lines grow with the DAC code for a linear transfer.
        assert!(grid.word_line(15).0 > grid.word_line(0).0);
    }

    #[test]
    fn exact_table_has_zero_error() {
        let table = MultiplierTable::exact();
        assert_eq!(table.operand_bits(), 4);
        assert_eq!(table.lookup(7, 8), 56);
        assert_eq!(table.mean_absolute_error(), 0.0);
        assert_eq!(table.average_multiply_energy().0, 0.0);
        let wide = MultiplierTable::exact_for_bits(8);
        assert_eq!(wide.lookup(255, 255), 65025);
        assert_eq!(wide.mean_absolute_error(), 0.0);
    }

    #[test]
    #[should_panic(expected = "4-bit")]
    fn table_lookup_panics_on_out_of_range_operand() {
        let table = MultiplierTable::exact();
        let _ = table.lookup(16, 0);
    }

    #[test]
    fn supply_shift_changes_the_result() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let nominal = multiplier.multiply(10, 10).unwrap();
        let low_supply = multiplier
            .multiply_at(
                10,
                10,
                OperatingPoint {
                    vdd: Volts(0.9),
                    temperature: Celsius(25.0),
                },
            )
            .unwrap();
        // With the identity supply model the only effect is the DAC reference,
        // which lowers the word-line voltage and therefore the result.
        assert!(low_supply.result <= nominal.result);
    }

    #[test]
    fn pristine_fault_state_is_bit_identical_to_no_fault_state() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::DefectMap;
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let at = multiplier.nominal_operating_point();
        let baseline = MultiplierTable::from_multiplier(&multiplier, at).unwrap();
        let array = *multiplier.array();
        let state = FaultState::unmitigated(&array, DefectMap::none(&array), 0).unwrap();
        let faulted = multiplier.with_faults(state).unwrap();
        assert!(faulted.faults().unwrap().is_pristine());
        let table = MultiplierTable::from_multiplier(&faulted, at).unwrap();
        assert_eq!(table, baseline);
        let scalar = MultiplierTable::from_multiplier_scalar(&faulted, at).unwrap();
        assert_eq!(scalar, baseline);
    }

    #[test]
    fn faulted_grid_is_bit_identical_to_faulted_scalar() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::{DefectMap, DefectModel, LifetimeTrajectory};
        let array = ArrayConfig::paper().with_spares(2);
        let config = ideal_config().with_array(array);
        let map = DefectMap::sample(&array, &DefectModel::uniform(0.25, 17)).unwrap();
        let state = FaultState::unmitigated(&array, map, 0)
            .unwrap()
            .with_lifetime(&LifetimeTrajectory::nbti_like().at(3));
        let multiplier = InSramMultiplier::new(linear_suite(), config)
            .unwrap()
            .with_faults(state)
            .unwrap();
        let at = multiplier.nominal_operating_point();
        let batched = MultiplierTable::from_multiplier(&multiplier, at).unwrap();
        let scalar = MultiplierTable::from_multiplier_scalar(&multiplier, at).unwrap();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn stuck_at_zero_column_zeroes_its_bit_weight() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::{CellDefect, DefectMap, DefectModel};
        let array = ArrayConfig::paper();
        // Find a map whose row 0 has a stuck-at-0 cell on a healthy bit-line
        // and nothing else wrong in the word.
        let (map, column) = (0..10_000u64)
            .find_map(|seed| {
                let map = DefectMap::sample(
                    &array,
                    &DefectModel {
                        stuck_at_zero_rate: 0.15,
                        ..DefectModel::pristine(seed)
                    },
                )
                .unwrap();
                let stuck: Vec<u16> = (0..4)
                    .filter(|&c| map.cell_unchecked(0, c) == CellDefect::StuckAtZero)
                    .collect();
                (stuck.len() == 1).then(|| (map.clone(), stuck[0]))
            })
            .expect("no single stuck-at-0 map found");
        let state = FaultState::unmitigated(&array, map, 0).unwrap();
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config())
            .unwrap()
            .with_faults(state)
            .unwrap();
        // Storing exactly the stuck bit yields zero; the other bits survive.
        let d = 1u16 << column;
        assert_eq!(multiplier.multiply(15, d).unwrap().result, 0);
        let healthy_bit = (0..4).find(|&b| b != column).unwrap();
        assert!(multiplier.multiply(15, 1 << healthy_bit).unwrap().result > 0);
    }

    #[test]
    fn shorted_bitline_inflates_results_and_energy() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::{BitLineFault, DefectMap, DefectModel};
        let array = ArrayConfig::paper();
        let map = (0..10_000u64)
            .find_map(|seed| {
                let map = DefectMap::sample(
                    &array,
                    &DefectModel {
                        short_bitline_rate: 0.12,
                        ..DefectModel::pristine(seed)
                    },
                )
                .unwrap();
                (0..4)
                    .any(|c| map.bitline_unchecked(c) == BitLineFault::Shorted)
                    .then_some(map)
            })
            .expect("no shorted-bit-line map found");
        let column = (0..4)
            .find(|&c| map.bitline_unchecked(c) == BitLineFault::Shorted)
            .unwrap();
        let state = FaultState::unmitigated(&array, map, 0).unwrap();
        let pristine = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let faulted = pristine.clone().with_faults(state).unwrap();
        // A stored 0 on the shorted column still discharges the full rail:
        // the result and the energy both exceed the pristine multiplier's.
        let d_without = 0u16; // nothing stored at all
        let good = pristine.multiply(15, d_without).unwrap();
        let bad = faulted.multiply(15, d_without).unwrap();
        assert!(bad.result > good.result, "short must inflate the product");
        assert!(bad.multiply_energy.0 > good.multiply_energy.0);
        let _ = column;
    }

    #[test]
    fn vth_aging_weakens_the_discharge() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::{DefectMap, LifetimeTrajectory};
        let array = ArrayConfig::paper();
        let pristine = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let aged_state = FaultState::unmitigated(&array, DefectMap::none(&array), 0)
            .unwrap()
            .with_lifetime(&LifetimeTrajectory::nbti_like().at(10));
        let aged = pristine.clone().with_faults(aged_state).unwrap();
        let fresh = pristine.multiply(15, 15).unwrap();
        let old = aged.multiply(15, 15).unwrap();
        assert!(
            old.combined_discharge.0 < fresh.combined_discharge.0,
            "V_th aging must weaken the discharge: {} vs {}",
            old.combined_discharge.0,
            fresh.combined_discharge.0
        );
        assert!(old.result <= fresh.result);
    }

    #[test]
    fn redundancy_remap_repairs_a_defective_column() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::{DefectMap, DefectModel};
        let array = ArrayConfig::paper().with_spares(2);
        let config = ideal_config().with_array(array);
        // A map with at least one hard fault in row 0's word but clean spares.
        let map = (0..10_000u64)
            .find_map(|seed| {
                let map = DefectMap::sample(
                    &array,
                    &DefectModel {
                        stuck_at_zero_rate: 0.2,
                        ..DefectModel::pristine(seed)
                    },
                )
                .unwrap();
                let word_faults = (0..4).filter(|&c| map.is_hard_faulted(0, c)).count();
                let spare_faults = (4..6).filter(|&c| map.is_hard_faulted(0, c)).count();
                ((1..=2).contains(&word_faults) && spare_faults == 0).then_some(map)
            })
            .expect("no repairable map found");
        let at;
        let unmitigated = {
            let state = FaultState::unmitigated(&array, map.clone(), 0).unwrap();
            let m = InSramMultiplier::new(linear_suite(), config)
                .unwrap()
                .with_faults(state)
                .unwrap();
            at = m.nominal_operating_point();
            MultiplierTable::from_multiplier(&m, at).unwrap()
        };
        let repaired = {
            let state = FaultState::with_redundancy(&array, map, 0).unwrap();
            assert!(state.remap().remapped() >= 1);
            let m = InSramMultiplier::new(linear_suite(), config)
                .unwrap()
                .with_faults(state)
                .unwrap();
            MultiplierTable::from_multiplier(&m, at).unwrap()
        };
        assert!(
            repaired.mean_absolute_error() < unmitigated.mean_absolute_error(),
            "redundancy must reduce the table error: {} vs {}",
            repaired.mean_absolute_error(),
            unmitigated.mean_absolute_error()
        );
        // Clean spares restore the pristine table exactly.
        let pristine = InSramMultiplier::new(linear_suite(), config).unwrap();
        let baseline = MultiplierTable::from_multiplier(&pristine, at).unwrap();
        assert_eq!(
            repaired.mean_absolute_error(),
            baseline.mean_absolute_error()
        );
    }

    #[test]
    fn fault_state_geometry_must_match_the_multiplier() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::DefectMap;
        let spare_array = ArrayConfig::paper().with_spares(2);
        let state =
            FaultState::unmitigated(&spare_array, DefectMap::none(&spare_array), 0).unwrap();
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let err = multiplier.with_faults(state).unwrap_err();
        assert!(matches!(err, ImcError::InvalidConfiguration { .. }));
        assert!(err.to_string().contains("+2sp"), "{err}");
    }

    #[test]
    fn column_mux_amortises_the_converter_overhead() {
        let base = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let muxed_config = ideal_config().with_array(ArrayConfig {
            columns: 8,
            column_mux: 2,
            ..ArrayConfig::default()
        });
        let muxed = InSramMultiplier::new(linear_suite(), muxed_config).unwrap();
        let e_base = base.multiply(9, 9).unwrap().multiply_energy.0;
        let e_muxed = muxed.multiply(9, 9).unwrap().multiply_energy.0;
        // Same discharges, half the fixed converter overhead.
        assert!((e_base - e_muxed - 1.0).abs() < 1e-12);
        assert_eq!(
            base.multiply(9, 9).unwrap().result,
            muxed.multiply(9, 9).unwrap().result
        );
    }
}
