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
//!
//! Construction evaluates the fitted models once, into the nominal analog
//! grid and its Eq. 6 σ table; every nominal readout reads them, and only an
//! off-nominal operating point or an aging fault state builds a new grid.
//!
//! Every result is read off one code table per grid (`code_table`: one ADC
//! code per (pass, slice pair)), summed over each pair's passes.  Only the energy is a per-pair chain, in
//! pass order, through the same per-column fault rule as the discharge.

use crate::error::ImcError;
use crate::reliability::FaultState;
use optima_circuit::adc::Adc;
use optima_circuit::array::ArrayConfig;
use optima_circuit::dac::{Dac, DacTransfer};
use optima_core::model::suite::ModelSuite;
use optima_math::units::{Celsius, FemtoJoules, Seconds, Volts};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

#[cfg(test)]
pub(crate) mod reference;

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
    /// The analog grid at `nominal` under `faults`.
    grid: AnalogOperandGrid,
    /// The finite Eq. 6 σ table of `grid` ([`InSramMultiplier::mismatch_sigmas`]).
    sigmas: Vec<f64>,
}

impl InSramMultiplier {
    /// Builds a multiplier for the given fitted models and design point.
    ///
    /// Construction builds the nominal analog grid and its Eq. 6 σ table
    /// once, then performs a one-time transfer-curve calibration (the
    /// mapping from combined discharge to product LSBs) on that grid,
    /// mirroring how the readout reference of the real circuit would be
    /// trimmed.
    ///
    /// # Errors
    ///
    /// * [`ImcError::InvalidConfiguration`] if the DAC voltages are
    ///   inconsistent, `τ0` is non-positive or the array geometry is invalid.
    /// * Propagates model-evaluation errors if the configuration drives the
    ///   models outside their calibrated domain.
    /// * [`ImcError::NonFiniteSigma`] naming the first (operand-major)
    ///   `(slice operand, column)` whose Eq. 6 σ is not finite.
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
            grid: AnalogOperandGrid::default(),
            sigmas: Vec::new(),
        };
        multiplier.build_nominal_grid()?;
        multiplier.calibrate_transfer()?;
        Ok(multiplier)
    }

    /// Builds the kept nominal grid and σ table under the attached faults.
    fn build_nominal_grid(&mut self) -> Result<(), ImcError> {
        self.grid = self.analog_grid(self.nominal)?;
        self.sigmas = self.mismatch_sigmas(&self.grid)?;
        Ok(())
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
    /// The nominal grid and σ table are rebuilt at the aged word lines.
    ///
    /// # Errors
    ///
    /// * [`ImcError::InvalidConfiguration`] when the fault state was built
    ///   for a different array geometry.
    /// * The model-evaluation and [`ImcError::NonFiniteSigma`] errors of
    ///   [`InSramMultiplier::new`], at the aged word lines.
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
        self.build_nominal_grid()?;
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
    /// the full slice input space on the kept nominal grid.
    ///
    /// Composed geometries calibrate the single analog pass; the digital
    /// shift-add composition is exact and needs no trimming of its own.
    /// Each slice pair's combined discharge comes from the prefix sums of
    /// the code table ([`slice_sums`] over the pristine
    /// [`InSramMultiplier::column_discharge`]).
    fn calibrate_transfer(&mut self) -> Result<(), ImcError> {
        let slice_bits = self.config.array.slice_bits;
        let slice_operands = usize::from(self.config.array.slice_max()) + 1;
        let mut sums = [0.0; MAX_SLICE_TABLE];
        let sums = &mut sums[..slice_operands];
        let mut numerator = 0.0;
        let mut denominator = 0.0;
        for a in 0..slice_operands {
            slice_sums(sums, slice_bits, |bit| {
                self.column_discharge(&self.grid, self.nominal, None, 0, a as u16, bit)
            });
            for (d, &sum) in sums.iter().enumerate() {
                let discharge = sum / f64::from(slice_bits);
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
    /// This is the multiplier's one analog path: one word-line voltage per
    /// slice operand and `slice_bits` discharges/energies each are evaluated
    /// once, and every multiplication combines its operand pair from them.
    /// A pair's discharge is the same sum of the same per-column values in
    /// the same (bit-ascending) order, pass by pass, as evaluating the fitted
    /// models live for that pair; the unit tests pin the two bit-identical.
    ///
    /// # Errors
    ///
    /// Propagates converter and model-evaluation errors, slice operand by
    /// slice operand in ascending order.
    pub(crate) fn analog_grid(&self, at: OperatingPoint) -> Result<AnalogOperandGrid, ImcError> {
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

    /// The kept grid when `at` is the nominal operating point, otherwise a
    /// fresh [`InSramMultiplier::analog_grid`].
    fn grid_at(&self, at: OperatingPoint) -> Result<Cow<'_, AnalogOperandGrid>, ImcError> {
        if at == self.nominal {
            Ok(Cow::Borrowed(&self.grid))
        } else {
            self.analog_grid(at).map(Cow::Owned)
        }
    }

    /// The grid at `at` ([`InSramMultiplier::grid_at`]) and its pristine
    /// [`InSramMultiplier::code_table`].
    ///
    /// # Errors
    ///
    /// Propagates converter and model-evaluation errors, slice operand by
    /// slice operand in ascending order.
    pub(crate) fn grid_and_codes(
        &self,
        at: OperatingPoint,
    ) -> Result<(Cow<'_, AnalogOperandGrid>, Vec<u32>), ImcError> {
        let grid = self.grid_at(at)?;
        let mut codes = Vec::new();
        self.code_table(&grid, at, None, &mut codes);
        Ok((grid, codes))
    }

    /// The digitised result of every operand pair at `at`, in operand-major
    /// order, read off [`InSramMultiplier::grid_and_codes`].
    #[cfg(test)]
    pub(crate) fn result_grid(&self, at: OperatingPoint) -> Result<Vec<u16>, ImcError> {
        Ok(self.collect_results(&self.grid_and_codes(at)?.1))
    }

    /// The [`InSramMultiplier::code_table`] of the kept nominal grid, into
    /// `codes`: the pristine readout, or with `normals` the Monte-Carlo chip
    /// whose data column `c` draws `normals[c]`, perturbed by the kept σ
    /// table.
    pub(crate) fn nominal_code_table(&self, normals: Option<&[f64]>, codes: &mut Vec<u32>) {
        let sigmas = &self.sigmas;
        let instance = normals.map(|normals| MismatchInstance { sigmas, normals });
        self.code_table(&self.grid, self.nominal, instance, codes);
    }

    /// Writes the weighted ADC code of every (pass, slice pair) off a grid
    /// built at `at` into `codes`, pass-major, `a_slice` then `d_slice`:
    /// `passes × (slice_max + 1)²` codes, 1,024 for INT8 on the paper array.
    /// `codes` is resized in place, so a reused buffer allocates nothing.
    ///
    /// Each (pass, slice operand) row takes every column's
    /// [`InSramMultiplier::column_discharge`] once, for a stored 0 and a
    /// stored 1, and builds the combined discharge of all `2^slice_bits`
    /// stored slices by bit-ascending prefix sums ([`slice_sums`]): about one
    /// add per table entry, in the order of a per-slice loop over its columns,
    /// so every code keeps the bits of that loop.  The charge-shared average
    /// is then read out by [`InSramMultiplier::weighted_code`].  Pristine,
    /// faulted and Monte-Carlo chips (`instance`) all take this one path.
    pub(crate) fn code_table(
        &self,
        grid: &AnalogOperandGrid,
        at: OperatingPoint,
        instance: Option<MismatchInstance<'_>>,
        codes: &mut Vec<u32>,
    ) {
        let slice_bits = self.config.array.slice_bits;
        let slice_operands = usize::from(self.config.array.slice_max()) + 1;
        let passes = usize::from(self.config.array.passes());
        codes.resize(passes * slice_operands * slice_operands, 0);
        let mut discharges = [0.0; MAX_SLICE_TABLE];
        let discharges = &mut discharges[..slice_operands];
        // optima-lint: hot
        // `(0, 0)` visits every pass once, in pass order.
        self.fold_passes(0, 0, (), |(), pass| {
            for a_slice in 0..slice_operands {
                slice_sums(discharges, slice_bits, |bit| {
                    self.column_discharge(grid, at, instance, pass.index, a_slice as u16, bit)
                });
                let start = (pass.index * slice_operands + a_slice) * slice_operands;
                for (code, &discharge) in codes[start..start + slice_operands]
                    .iter_mut()
                    .zip(&*discharges)
                {
                    *code = self.weighted_code(discharge / f64::from(slice_bits), pass);
                }
            }
        });
        // optima-lint: end-hot
    }

    /// Visits the result of every operand pair read off a
    /// [`InSramMultiplier::code_table`], in operand-major order, as
    /// `visit(a, d, result)`: each pair sums its passes' codes and
    /// saturates, as [`InSramMultiplier::multiply_at`] does.  The sums
    /// are exact `u32` arithmetic, taken per operand row
    /// ([`InSramMultiplier::pair_fold`]): each d-slice position's codes are
    /// summed over the row's a-slices once, then spread over every `d` at
    /// one add per pair, for any slice count.  Nothing is allocated.
    pub(crate) fn pair_results(&self, codes: &[u32], mut visit: impl FnMut(u16, u16, u16)) {
        self.pair_fold(
            codes,
            0,
            |sum, code| sum + code,
            |a, d, sum| visit(a, d, saturate_result(sum)),
        );
    }

    /// Visits the outcome of every operand pair off the kept nominal grid, in
    /// operand-major order: the result read off the grid's pristine code
    /// table `codes` ([`InSramMultiplier::nominal_code_table`]) by
    /// [`InSramMultiplier::pair_results`], and the energy of
    /// [`InSramMultiplier::pair_energy`].  Nothing is allocated.
    pub(crate) fn nominal_pair_outcomes(
        &self,
        codes: &[u32],
        mut visit: impl FnMut(MultiplyOutcome),
    ) {
        self.pair_results(codes, |a, d, result| {
            visit(self.outcome(&self.grid, self.nominal, a, d, result))
        });
    }

    /// The outcome of the pair `(a, d)` whose passes' codes sum to `result`,
    /// off `grid` built at `at`.
    fn outcome(
        &self,
        grid: &AnalogOperandGrid,
        at: OperatingPoint,
        a: u16,
        d: u16,
        result: u16,
    ) -> MultiplyOutcome {
        MultiplyOutcome {
            result,
            expected: a * d,
            multiply_energy: FemtoJoules(self.pair_energy(grid, at, a, d)),
            write_energy: grid.write_energy,
        }
    }

    /// [`InSramMultiplier::pair_results`] collected in operand-major order.
    #[cfg(test)]
    pub(crate) fn collect_results(&self, codes: &[u32]) -> Vec<u16> {
        let mut results = Vec::with_capacity(self.config.array.input_space());
        self.pair_results(codes, |_, _, result| results.push(result));
        results
    }

    /// Folds the entries of a pass-major `(pass, a_slice, d_slice)` table
    /// over each operand pair's passes and visits every pair in
    /// operand-major order, as `visit(a, d, folded)`.
    ///
    /// Per operand `a`, each d-slice position first folds its entries over
    /// the slices of `a`: `slice_max + 1` partial folds per position, the
    /// lowest position's straight into the row of all `d`.  The row is then
    /// spread from the higher positions' partials, lowest first, as
    /// [`slice_sums`] spreads columns: each entry extends the fold of its
    /// lower slices by one `combine`.  This regroups the pair's passes, so
    /// `combine` must not depend on their order and `zero` must be its
    /// identity: exact integer sums, or the maximum of non-negative values.
    /// Nothing is allocated.
    fn pair_fold<T: Copy>(
        &self,
        table: &[T],
        zero: T,
        combine: impl Fn(T, T) -> T,
        mut visit: impl FnMut(u16, u16, T),
    ) {
        let array = &self.config.array;
        let slices = usize::from(array.slices());
        let slice_operands = usize::from(array.slice_max()) + 1;
        let mut row = [zero; MAX_SLICE_TABLE];
        let row = &mut row[..=usize::from(array.operand_max())];
        let mut partials = [zero; MAX_SLICE_TABLE];
        let partials = &mut partials[..(slices - 1) * slice_operands];
        // optima-lint: hot
        for a in 0..=array.operand_max() {
            row[..slice_operands].fill(zero);
            partials.fill(zero);
            self.fold_passes(a, 0, (), |(), pass| {
                let folds = match pass.index % slices {
                    0 => &mut row[..slice_operands],
                    position => &mut partials[(position - 1) * slice_operands..][..slice_operands],
                };
                let start = pass.code_index(slice_operands);
                for (fold, &entry) in folds.iter_mut().zip(&table[start..start + slice_operands]) {
                    *fold = combine(*fold, entry);
                }
            });
            let mut filled = slice_operands;
            for position in partials.chunks_exact(slice_operands) {
                // Descending, so the filled prefix is read before the
                // slice value 0 extends it in place.
                for (d_slice, &partial) in position.iter().enumerate().rev() {
                    for low in 0..filled {
                        row[d_slice * filled + low] = combine(row[low], partial);
                    }
                }
                filled *= slice_operands;
            }
            for (d, &folded) in (0..).zip(&*row) {
                visit(a, d, folded);
            }
        }
        // optima-lint: end-hot
    }

    /// How the column of `(pass, bit)` responds to the bit `stored` written
    /// there, under the attached fault state.
    #[inline]
    fn column(&self, pass: usize, bit: u8, stored: bool) -> Column {
        match &self.faults {
            None if stored => Column::Cell,
            None => Column::Off,
            Some(faults) if !faults.column_discharges(pass, bit, stored) => Column::Off,
            Some(faults) if faults.is_shorted(pass, bit) => Column::Shorted,
            Some(_) => Column::Cell,
        }
    }

    /// What the column of `(pass, bit)` adds to the combined discharge of
    /// slice operand `a_slice` off `grid`, for a stored 0 and a stored 1
    /// (`None` where it does not discharge): the one per-cell rule of every
    /// readout.  A shorted bit-line discharges the full rail.  A cell
    /// discharges its ΔV; on a Monte-Carlo `instance` it adds `σ·z` of its
    /// data column and clamps at zero, then an attached fault state scales
    /// it by the cell's retention drift.  Each step is the float operation
    /// a live per-pair model evaluation performs (tested bit-identical).
    #[inline]
    fn column_discharge(
        &self,
        grid: &AnalogOperandGrid,
        at: OperatingPoint,
        instance: Option<MismatchInstance<'_>>,
        pass: usize,
        a_slice: u16,
        bit: u8,
    ) -> [Option<f64>; 2] {
        let cell = || {
            let mut delta = grid.delta(a_slice, bit);
            if let Some(instance) = instance {
                let slice_bits = usize::from(grid.slice_bits);
                // Pass `p` reads d-slice `p % slices`, as `FaultState` maps it.
                let slices = usize::from(self.config.array.slices());
                let column = (pass % slices) * slice_bits + usize::from(bit);
                let sigma = instance.sigmas[usize::from(a_slice) * slice_bits + usize::from(bit)];
                delta = (delta + sigma * instance.normals[column]).max(0.0);
            }
            match &self.faults {
                None => delta,
                Some(faults) => faults.scaled_delta(pass, bit, delta),
            }
        };
        let discharge = |stored| match self.column(pass, bit, stored) {
            Column::Off => None,
            Column::Shorted => Some(at.vdd.0),
            Column::Cell => Some(cell()),
        };
        [discharge(false), discharge(true)]
    }

    /// Multiplication energy of the pair `(a, d)` off `grid` built at `at`,
    /// excluding the write: per pass, in pass order, the converter overhead,
    /// then the energy of each column that discharges, in bit-ascending
    /// order.  The columns follow [`InSramMultiplier::column`], the rule of
    /// the discharge: a shorted bit-line burns the energy of a full-rail
    /// discharge, a cell the grid's energy, or under an attached fault state
    /// the energy of its drifted ΔV.
    fn pair_energy(&self, grid: &AnalogOperandGrid, at: OperatingPoint, a: u16, d: u16) -> f64 {
        let discharge_energy = |delta| {
            self.models
                .discharge_energy(Volts(delta), at.vdd, at.temperature)
                .0
        };
        self.fold_passes(a, d, 0.0, |mut energy, pass| {
            energy += self.converter_overhead.0;
            for bit in 0..grid.slice_bits {
                let stored = (pass.d_slice >> bit) & 1 == 1;
                energy += match self.column(pass.index, bit, stored) {
                    Column::Off => continue,
                    Column::Shorted => discharge_energy(at.vdd.0),
                    Column::Cell => match &self.faults {
                        None => grid.energy(pass.a_slice, bit),
                        Some(faults) => discharge_energy(faults.scaled_delta(
                            pass.index,
                            bit,
                            grid.delta(pass.a_slice, bit),
                        )),
                    },
                };
            }
            energy
        })
    }

    /// The Eq. 6 σ of every `(slice operand, column)` of `grid`, laid out
    /// like the grid's discharges and evaluated at the grid's own
    /// (supply-adjusted, aged) word lines — exactly the σ a live per-pair
    /// evaluation would use.
    ///
    /// # Errors
    ///
    /// [`ImcError::NonFiniteSigma`] naming the first (operand-major)
    /// `(slice operand, column)` whose σ is not finite, so a broken Eq. 6
    /// fit fails the multiplier's construction.
    pub(crate) fn mismatch_sigmas(&self, grid: &AnalogOperandGrid) -> Result<Vec<f64>, ImcError> {
        let bits = self.config.array.slice_bits;
        let mut sigmas = Vec::with_capacity(grid.word_lines.len() * bits as usize);
        for (a, &word_line) in grid.word_lines.iter().enumerate() {
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
        Ok(sigmas)
    }

    /// Analog mismatch σ of every operand pair at the nominal operating
    /// point, in operand-major order: the root-sum-square of the kept
    /// per-column σ table within one pass, and for composed geometries the
    /// worst pass, since every pass is digitised on its own.  Only the
    /// columns whose cell discharges contribute, by the rule the Monte
    /// Carlo applies: an attached fault state's stuck cells and open
    /// bit-lines gate a column off or on, and a shorted bit-line has no
    /// cell to mismatch.  Each `(pass, slice pair)` takes one
    /// root-sum-square of its bit-ascending prefix sum, and each operand
    /// row folds the per-pass maxima once.  Like the Monte Carlo, it sees
    /// the aged word lines of an attached fault state.
    pub fn analog_sigma_grid(&self) -> Vec<Volts> {
        let mut grid = Vec::with_capacity(self.config.array.input_space());
        self.pair_fold(&self.pass_sigmas(), 0.0, f64::max, |_, _, sigma| {
            grid.push(Volts(sigma))
        });
        grid
    }

    /// The σ of [`InSramMultiplier::analog_sigma_grid`] at its last pair
    /// `(operand_max, operand_max)` and its largest σ, folded off the same
    /// per-row fold without collecting the grid.
    pub(crate) fn sigma_extremes(&self) -> (Volts, Volts) {
        let (mut last, mut worst) = (0.0, 0.0);
        self.pair_fold(&self.pass_sigmas(), 0.0, f64::max, |_, _, sigma| {
            last = sigma;
            worst = f64::max(worst, sigma);
        });
        (Volts(last), Volts(worst))
    }

    /// The σ of every `(pass, a_slice, d_slice)`, pass-major, the table
    /// [`InSramMultiplier::analog_sigma_grid`] folds per operand pair.
    fn pass_sigmas(&self) -> Vec<f64> {
        let array = &self.config.array;
        let slice_operands = usize::from(array.slice_max()) + 1;
        let bits = usize::from(array.slice_bits);
        let mut sigmas = vec![0.0; usize::from(array.passes()) * slice_operands * slice_operands];
        let mut variances = [0.0; MAX_SLICE_TABLE];
        let variances = &mut variances[..slice_operands];
        for (pass, rows) in sigmas
            .chunks_exact_mut(slice_operands * slice_operands)
            .enumerate()
        {
            for (row, column_sigmas) in rows
                .chunks_exact_mut(slice_operands)
                .zip(self.sigmas.chunks_exact(bits))
            {
                slice_sums(variances, array.slice_bits, |bit| {
                    let sigma = column_sigmas[usize::from(bit)];
                    let variance = |stored| {
                        (self.column(pass, bit, stored) == Column::Cell).then_some(sigma * sigma)
                    };
                    [variance(false), variance(true)]
                });
                for (sigma, &variance) in row.iter_mut().zip(&*variances) {
                    *sigma = variance.sqrt() / bits as f64;
                }
            }
        }
        sigmas
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
    /// Same as [`InSramMultiplier::multiply_at`].
    pub fn multiply(&self, a: u16, d: u16) -> Result<MultiplyOutcome, ImcError> {
        self.multiply_at(a, d, self.nominal)
    }

    /// Performs one multiplication at an explicit operating point: the sum
    /// of the pair's codes in the code table of the grid at `at`, saturated,
    /// and the pair's energy chain.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::OperandOutOfRange`] for operands above
    /// [`ArrayConfig::operand_max`].  Otherwise it fails exactly when the
    /// grid at `at` fails: a model error for any slice operand fails every
    /// pair, not only the pairs that use it.
    pub fn multiply_at(
        &self,
        a: u16,
        d: u16,
        at: OperatingPoint,
    ) -> Result<MultiplyOutcome, ImcError> {
        self.check_operands(a, d)?;
        let (grid, codes) = self.grid_and_codes(at)?;
        let slice_operands = usize::from(self.config.array.slice_max()) + 1;
        let sum = self.fold_passes(a, d, 0, |sum, pass| {
            sum + codes[pass.code_index(slice_operands)]
        });
        Ok(self.outcome(&grid, at, a, d, saturate_result(sum)))
    }

    /// Folds `combine` over the analog passes of the pair `(a, d)` in pass
    /// order (`a`-slice outer, `d`-slice inner, both low-to-high).
    fn fold_passes<T>(&self, a: u16, d: u16, init: T, mut combine: impl FnMut(T, Pass) -> T) -> T {
        let array = &self.config.array;
        let slices = array.slices() as u16;
        let shift = array.slice_bits as u16;
        let mask = array.slice_max();
        let mut acc = init;
        let mut index = 0usize;
        for i in 0..slices {
            let a_slice = (a >> (i * shift)) & mask;
            for j in 0..slices {
                let d_slice = (d >> (j * shift)) & mask;
                let weight = u32::from((i + j) * shift);
                acc = combine(
                    acc,
                    Pass {
                        index,
                        weight,
                        a_slice,
                        d_slice,
                    },
                );
                index += 1;
            }
        }
        acc
    }

    /// The readout of one pass: round-to-nearest quantisation of its
    /// combined discharge in slice-product LSB units, clamped to the ADC
    /// code range, shifted to the pass's digital weight.  Only
    /// [`InSramMultiplier::code_table`] reads out a discharge, so every
    /// result of every readout goes through here.
    #[inline]
    fn weighted_code(&self, discharge: f64, pass: Pass) -> u32 {
        quantise(discharge / self.volts_per_lsb, self.adc.max_code()) << pass.weight
    }
}

/// Non-ideal slice results can overshoot the exact product range; the
/// digital shift-add accumulator saturates at the `u16` result width.
fn saturate_result(result: u32) -> u16 {
    result.min(u16::MAX as u32) as u16
}

/// `level.round().clamp(0.0, max_code as f64) as u32`, without the float
/// rounding call: a level below one half (or NaN) reads 0, one at or above
/// `max_code` reads `max_code`, and any other level rounds half away from
/// zero off its exact integer and fractional parts.
#[inline]
fn quantise(level: f64, max_code: u32) -> u32 {
    if level >= f64::from(max_code) {
        max_code
    } else if level >= 0.5 {
        // `0.5 <= level < max_code`: the cast truncates exactly and the
        // subtraction leaves the exact fractional part.
        let whole = level as u32;
        whole + u32::from(level - f64::from(whole) >= 0.5)
    } else {
        0
    }
}

/// Capacity of the per-row scratch of the readout tables: `2^slice_bits`
/// stored slices, and `slices · 2^slice_bits` per-row partials, are at most
/// 256 for every valid geometry (operand and slice widths of 1..=8 bits).
const MAX_SLICE_TABLE: usize = 256;

/// Fills `sums[d]`, for every stored slice `d < 2^slice_bits`, with the
/// bit-ascending sum from `0.0` of `column(bit)[d's bit]`, skipping `None`.
///
/// Slices that share their lower bits share that prefix: bit `b` extends
/// each of the `2^b` filled prefixes into a slice with bit `b` clear and
/// one with it set, by one add or none, exactly where a per-slice loop over
/// the columns adds or skips.  So each entry has the bits of that loop, at
/// about one add per entry.
fn slice_sums(sums: &mut [f64], slice_bits: u8, mut column: impl FnMut(u8) -> [Option<f64>; 2]) {
    sums[0] = 0.0;
    for bit in 0..slice_bits {
        let [zero, one] = column(bit);
        let filled = 1usize << bit;
        let (low, high) = sums[..2 * filled].split_at_mut(filled);
        for (prefix, extended) in low.iter_mut().zip(high) {
            *extended = one.map_or(*prefix, |value| *prefix + value);
            if let Some(value) = zero {
                *prefix += value;
            }
        }
    }
}

/// How the column of one (pass, bit) responds to the bit written there,
/// as [`InSramMultiplier::column`] reads it off the attached fault state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Column {
    /// No discharge: a stored 0 on a healthy column, a stuck-at-0 cell or
    /// an open bit-line.
    Off,
    /// The cell discharges the bit-line by its (mismatched, drifted) ΔV.
    Cell,
    /// A bit-line shorted to ground: the full rail, with no cell involved.
    Shorted,
}

/// One analog pass of a (possibly composed) multiplication, as
/// [`InSramMultiplier::fold_passes`] visits it.
#[derive(Debug, Clone, Copy)]
struct Pass {
    /// Position in pass order (`a`-slice outer, `d`-slice inner).
    index: usize,
    /// Digital weight of the pass's code, `(i + j) · slice_bits` for
    /// `a`-slice `i` and `d`-slice `j`.
    weight: u32,
    /// Slice `i` of the DAC operand `a`.
    a_slice: u16,
    /// Slice `j` of the stored operand `d`.
    d_slice: u16,
}

impl Pass {
    /// Position of the pass's entry in a pass-major table laid out `a_slice`
    /// then `d_slice`, over `slice_operands` values per slice.
    fn code_index(&self, slice_operands: usize) -> usize {
        (self.index * slice_operands + usize::from(self.a_slice)) * slice_operands
            + usize::from(self.d_slice)
    }
}

/// Per-(slice operand, column) analog quantities of one multiplier at one
/// operating point, precomputed through the batched model fills.
///
/// Built by [`InSramMultiplier::analog_grid`]; the multiplier keeps the one
/// at its nominal operating point.  The operand pairs of the full input
/// space combine these `(slice_max + 1) × slice_bits` values instead of
/// re-evaluating the fitted polynomials per pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct AnalogOperandGrid {
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
}

/// One Monte-Carlo instance: a chip whose every cell keeps one mismatch
/// draw for all the operations it takes part in, read out through
/// [`InSramMultiplier::code_table`].
///
/// The cell on data column `c` of the stored word discharges by
/// `ΔV + σ·normals[c]`, clamped at zero, where `σ` is the Eq. 6 σ of its
/// `(slice operand, column)`.  Pass `p` at bit `b` reads data column
/// `(p % slices) · slice_bits + b`, so the passes of a composed geometry
/// that share a stored slice share its cells' draws.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MismatchInstance<'a> {
    /// Eq. 6 σ per `(slice operand, column)` in volts, laid out like the
    /// grid's discharges ([`InSramMultiplier::mismatch_sigmas`]).
    pub(crate) sigmas: &'a [f64],
    /// One standard normal per data column of the stored word, in column
    /// order.
    pub(crate) normals: &'a [f64],
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
    /// Builds the table of every operand pair at the given operating point:
    /// the results read off the code table of the grid at `at`, and the
    /// energies of each pair's chain, averaged in operand-major order.
    ///
    /// # Errors
    ///
    /// Propagates multiplier errors.
    pub fn from_multiplier(
        multiplier: &InSramMultiplier,
        at: OperatingPoint,
    ) -> Result<Self, ImcError> {
        let (grid, codes) = multiplier.grid_and_codes(at)?;
        let mut results = Vec::with_capacity(multiplier.array().input_space());
        let mut energy_sum = 0.0;
        let mut total_sum = 0.0;
        multiplier.pair_results(&codes, |a, d, result| {
            let outcome = multiplier.outcome(&grid, at, a, d, result);
            results.push(result);
            energy_sum += outcome.multiply_energy.0;
            total_sum += outcome.total_energy().0;
        });
        let count = results.len() as f64;
        Ok(MultiplierTable {
            operand_bits: multiplier.array().operand_bits,
            results,
            average_multiply_energy: FemtoJoules(energy_sum / count),
            average_total_energy: FemtoJoules(total_sum / count),
        })
    }

    /// An ideal (error-free) table over the paper array's 4-bit operands,
    /// used as the exact-INT4 baseline.
    pub fn exact() -> Self {
        Self::exact_for_bits(ArrayConfig::paper().operand_bits)
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
    use crate::testsupport::{faulted_multiplier, ideal_config, int8_config, linear_suite};

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
    fn analog_sigma_grows_with_operands() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let sigmas = multiplier.analog_sigma_grid();
        let sigma = |a: usize, d: usize| sigmas[a * 16 + d].0;
        assert!(sigma(15, 15) > sigma(3, 1));
        assert_eq!(sigma(5, 0), 0.0);
    }

    /// The readout's quantiser is `round`, then `clamp`, then the cast,
    /// at every half-code boundary and its neighbours, out of range, at
    /// the float specials and at random levels, for ADC widths 1–16.
    #[test]
    fn quantise_is_round_then_clamp() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x9a47);
        for bits in 1..=16u32 {
            let max_code = (1u32 << bits) - 1;
            let mut levels = vec![
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN_POSITIVE,
                -0.0,
                0.0,
                -0.5,
                0.499_999_999_999_999_94,
                1e300,
                f64::from(max_code),
            ];
            for k in 0..=max_code.min(600) + 2 {
                for level in [f64::from(k), f64::from(k) + 0.5] {
                    let up = f64::from_bits(level.to_bits() + 1);
                    levels.extend([level, up, -level]);
                    if level > 0.0 {
                        levels.push(f64::from_bits(level.to_bits() - 1));
                    }
                }
            }
            for half in [f64::from(max_code) - 0.5, f64::from(max_code) + 0.5] {
                levels.extend([
                    half,
                    f64::from_bits(half.to_bits() - 1),
                    f64::from_bits(half.to_bits() + 1),
                ]);
            }
            levels.extend((0..2000).map(|_| rng.gen::<f64>() * 1.2 * f64::from(max_code)));
            for level in levels {
                let expected = level.round().clamp(0.0, f64::from(max_code)) as u32;
                assert_eq!(
                    quantise(level, max_code),
                    expected,
                    "{level:e}, max {max_code}"
                );
            }
        }
    }

    /// The prefix-sum table has the bits of a per-slice loop that adds
    /// each column's value for its stored bit in bit-ascending order from
    /// `0.0`, skipping the columns that do not discharge.  The values span
    /// six decades, so any other summation order shows in the low bits.
    #[test]
    fn slice_sums_match_a_per_slice_loop() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x51ce);
        let mut sums = [0.0; MAX_SLICE_TABLE];
        for slice_bits in 1..=8u8 {
            for _ in 0..50 {
                let value = |rng: &mut rand_chacha::ChaCha8Rng| {
                    rng.gen_bool(0.8)
                        .then(|| 10f64.powf(rng.gen_range(-3.0..3.0)))
                };
                let columns: Vec<[Option<f64>; 2]> = (0..slice_bits)
                    .map(|_| [value(&mut rng), value(&mut rng)])
                    .collect();
                let sums = &mut sums[..1 << slice_bits];
                slice_sums(sums, slice_bits, |bit| columns[usize::from(bit)]);
                for (d, sum) in sums.iter().enumerate() {
                    let mut total = 0.0;
                    for (bit, column) in columns.iter().enumerate() {
                        if let Some(value) = column[(d >> bit) & 1] {
                            total += value;
                        }
                    }
                    assert_eq!(sum.to_bits(), total.to_bits(), "{slice_bits} bits, d = {d}");
                }
            }
        }
    }

    /// On the faulted chip no column follows the stored bit: the shorted
    /// bit-line has no cell to mismatch, the open bit-line and the
    /// stuck-at-0 cell never discharge, and the stuck-at-1 cell always
    /// does.  So every σ is the stuck-at-1 cell's alone, whatever `d`
    /// stores — also for `d = 0`, which has no stored 1 bit to count.
    #[test]
    fn faulted_sigma_counts_the_cells_that_discharge() {
        let multiplier = faulted_multiplier(linear_suite()).unwrap();
        let faults = multiplier.faults().unwrap();
        let discharging: Vec<u8> = (0..4)
            .filter(|&bit| faults.column_discharges(0, bit, false) && !faults.is_shorted(0, bit))
            .collect();
        assert_eq!(discharging.len(), 1);
        let sigmas = multiplier.analog_sigma_grid();
        for a in 0..16 {
            let cell = multiplier.sigmas[a * 4 + usize::from(discharging[0])];
            let expected = (0.0 + cell * cell).sqrt() / 4.0;
            for d in 0..16 {
                assert_eq!(
                    sigmas[a * 16 + d].0.to_bits(),
                    expected.to_bits(),
                    "a = {a}, d = {d}"
                );
            }
        }
        assert!(sigmas[15 * 16].0 > 0.0);
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

    /// The kept nominal grid and σ table are what a fresh build at the
    /// nominal point gives, also after attaching a fault state whose V_th
    /// aging moves the word lines.
    #[test]
    fn kept_grid_and_sigmas_match_a_fresh_nominal_build() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::{DefectMap, LifetimeTrajectory};
        let new = |config| InSramMultiplier::new(linear_suite(), config).unwrap();
        let pristine = new(ideal_config());
        assert!(pristine.grid.delta(9, 0) > 0.0);
        assert!(pristine.grid.word_lines[15].0 > pristine.grid.word_lines[0].0);
        let array = ArrayConfig::paper();
        let aged_state = FaultState::unmitigated(&array, DefectMap::none(&array), 0)
            .unwrap()
            .with_lifetime(&LifetimeTrajectory::nbti_like().at(10));
        let aged = pristine.clone().with_faults(aged_state).unwrap();
        assert_ne!(aged.grid.word_lines, pristine.grid.word_lines);
        for (name, multiplier) in [
            ("int4", pristine),
            ("int8", new(int8_config())),
            ("faulted", faulted_multiplier(linear_suite()).unwrap()),
            ("aged", aged),
        ] {
            let fresh = multiplier.analog_grid(multiplier.nominal).unwrap();
            assert_eq!(multiplier.grid, fresh, "{name}");
            let sigmas = multiplier.mismatch_sigmas(&fresh).unwrap();
            assert_eq!(multiplier.sigmas, sigmas, "{name}");
        }
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
        // The aged word lines weaken every cell that discharges at all.
        let pairs = aged.grid.deltas.iter().zip(&pristine.grid.deltas);
        assert!(pairs
            .clone()
            .all(|(old, fresh)| old < fresh || *fresh == 0.0));
        assert!(pairs.clone().any(|(old, _)| *old > 0.0));
        let fresh = pristine.multiply(15, 15).unwrap();
        let old = aged.multiply(15, 15).unwrap();
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
