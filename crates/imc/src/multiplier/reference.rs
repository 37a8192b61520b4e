//! The live per-pair multiply path, kept as the oracle of the unit tests.
//!
//! Every analog pass evaluates the fitted models through
//! [`ModelSuite::discharge`](optima_core::model::suite::ModelSuite::discharge)
//! for just the columns the pair needs.  A mismatch Monte-Carlo instance is
//! one chip: one standard normal per data column of the stored word, frozen
//! for every pair, which perturbs each discharging cell by the Eq. 6 σ of
//! its `(t, V_WL)` times its column's normal.  The oracle composes its own
//! outcome: each pass rounds its discharge with `f64::round` and `clamp`,
//! the codes add up shifted by their digital weight, and the energy gates
//! each column by the fault state's own accessors.  Its metrics and tables
//! buffer every outcome and average them as floats.
//!
//! The library reads every multiplication off the precomputed grids instead:
//! every result off the code table [`InSramMultiplier::code_table`], every
//! energy off the per-pair chain [`InSramMultiplier::pair_energy`], and
//! every σ off [`InSramMultiplier::analog_sigma_grid`], at the nominal point
//! off the multiplier's kept grid; the tests below pin them bit-identical.

use super::{InSramMultiplier, MultiplierTable, MultiplyOutcome, OperatingPoint};
use crate::error::ImcError;
use crate::metrics::MultiplierMetrics;
use optima_math::stats;
use optima_math::units::{FemtoJoules, Volts};

/// Charge-shared combined discharge of one analog pass (`pass` in the
/// composed pass order) for the slice operands `a_slice` (DAC input) and
/// `d_slice` (stored slice), optionally on a mismatch instance.
///
/// An attached fault state changes which columns discharge (stuck cells,
/// open/shorted bit-lines via the redundancy remap of `pass`) and scales
/// each surviving column's ΔV by its retention drift; shorted bit-lines
/// contribute the full rail without a model evaluation (and see no
/// mismatch — a shorted column has no transistor to mismatch).  An
/// instance's `normals` hold one standard normal per data column; pass
/// `pass` at bit `b` reads column `(pass % slices) · slice_bits + b`.
fn slice_discharge(
    m: &InSramMultiplier,
    pass: usize,
    a_slice: u16,
    d_slice: u16,
    at: OperatingPoint,
    normals: Option<&[f64]>,
) -> Result<f64, ImcError> {
    let array = &m.config.array;
    let word_line = m.aged_word_line(m.dac.output_with_supply(
        a_slice,
        at.vdd,
        m.models.vdd_nominal(),
    )?);
    let mut total = 0.0;
    for bit in 0..array.slice_bits {
        let stored = (d_slice >> bit) & 1 == 1;
        let discharges = match &m.faults {
            None => stored,
            Some(faults) => faults.column_discharges(pass, bit, stored),
        };
        if !discharges {
            continue;
        }
        if let Some(faults) = &m.faults {
            if faults.is_shorted(pass, bit) {
                total += at.vdd.0;
                continue;
            }
        }
        let duration = m.column_duration(bit);
        let nominal = m
            .models
            .discharge(duration, word_line, true, at.vdd, at.temperature)?
            .0;
        let delta = match normals {
            Some(normals) => {
                let sigma = m.models.mismatch_sigma(duration, word_line).0;
                let column =
                    (pass % array.slices() as usize) * array.slice_bits as usize + bit as usize;
                (nominal + sigma * normals[column]).max(0.0)
            }
            None => nominal,
        };
        total += match &m.faults {
            None => delta,
            Some(faults) => faults.scaled_delta(pass, bit, delta),
        };
    }
    // Charge sharing across the slice's sampling capacitors averages the
    // individual discharges.
    Ok(total / array.slice_bits as f64)
}

/// One multiplication through the live models (optionally on a mismatch
/// instance): per pass in pass order, the rounded, clamped code of the
/// pass's discharge shifted by its weight, and the energy of the converter
/// overhead and of every column that discharges, in bit-ascending order.
fn multiply_inner(
    m: &InSramMultiplier,
    a: u16,
    d: u16,
    at: OperatingPoint,
    normals: Option<&[f64]>,
) -> Result<MultiplyOutcome, ImcError> {
    m.check_operands(a, d)?;
    let array = &m.config.array;
    let slices = array.slices() as u16;
    let shift = array.slice_bits as u16;
    let mask = array.slice_max();
    let max_code = f64::from(m.adc.max_code());
    // Energy readout mirrors the real circuit: it cannot fail once the
    // pass discharges succeeded, so fall back to zero-energy terms instead
    // of propagating.
    let column_energy = |pass: usize, a_slice: u16, bit: u8| {
        if let Some(faults) = &m.faults {
            if faults.is_shorted(pass, bit) {
                return m
                    .models
                    .discharge_energy(Volts(at.vdd.0), at.vdd, at.temperature)
                    .0;
            }
        }
        let word_line = m.aged_word_line(
            m.dac
                .output_with_supply(a_slice, at.vdd, m.models.vdd_nominal())
                .unwrap_or(Volts(m.config.vdac_zero.0)),
        );
        let delta = m
            .models
            .discharge(
                m.column_duration(bit),
                word_line,
                true,
                at.vdd,
                at.temperature,
            )
            .map(|v| v.0)
            .unwrap_or(0.0);
        let delta = match &m.faults {
            None => delta,
            Some(faults) => faults.scaled_delta(pass, bit, delta),
        };
        m.models
            .discharge_energy(Volts(delta), at.vdd, at.temperature)
            .0
    };
    let mut result = 0u32;
    let mut multiply_energy = 0.0;
    for i in 0..slices {
        let a_slice = (a >> (i * shift)) & mask;
        for j in 0..slices {
            let d_slice = (d >> (j * shift)) & mask;
            let pass = usize::from(i * slices + j);
            let discharge = slice_discharge(m, pass, a_slice, d_slice, at, normals)?;
            let code = (discharge / m.volts_per_lsb).round().clamp(0.0, max_code) as u32;
            result += code << ((i + j) * shift);
            multiply_energy += m.converter_overhead.0;
            for bit in 0..array.slice_bits {
                let stored = (d_slice >> bit) & 1 == 1;
                let discharges = match &m.faults {
                    None => stored,
                    Some(faults) => faults.column_discharges(pass, bit, stored),
                };
                if discharges {
                    multiply_energy += column_energy(pass, a_slice, bit);
                }
            }
        }
    }
    Ok(MultiplyOutcome {
        result: result.min(u32::from(u16::MAX)) as u16,
        expected: a * d,
        multiply_energy: FemtoJoules(multiply_energy),
        write_energy: FemtoJoules(
            m.models.write_energy(at.vdd, at.temperature).0 * array.operand_bits as f64,
        ),
    })
}

/// One multiplication at `at` through the live models.
pub(crate) fn multiply_at(
    m: &InSramMultiplier,
    a: u16,
    d: u16,
    at: OperatingPoint,
) -> Result<MultiplyOutcome, ImcError> {
    multiply_inner(m, a, d, at, None)
}

/// One multiplication at `at` through the live models on the mismatch
/// instance whose cells draw `normals` (one standard normal per data column
/// of the stored word, in column order).  Walking every pair with the same
/// `normals` walks one chip.
pub(crate) fn multiply_with_mismatch(
    m: &InSramMultiplier,
    normals: &[f64],
    a: u16,
    d: u16,
    at: OperatingPoint,
) -> Result<MultiplyOutcome, ImcError> {
    multiply_inner(m, a, d, at, Some(normals))
}

/// Analog σ of the combined discharge for `(a, d)` at the (aged) nominal
/// word lines: the root-sum-square of the per-column σ within one pass, the
/// worst pass for composed geometries.  A column contributes where its cell
/// discharges, as in [`slice_discharge`]: the fault state gates stuck cells
/// and open bit-lines, and a shorted bit-line has no cell to mismatch.
pub(crate) fn analog_sigma(m: &InSramMultiplier, a: u16, d: u16) -> Result<Volts, ImcError> {
    m.check_operands(a, d)?;
    let array = &m.config.array;
    let slices = array.slices() as u16;
    let shift = array.slice_bits as u16;
    let mask = array.slice_max();
    let mut worst = 0.0f64;
    for i in 0..slices {
        let a_slice = (a >> (i * shift)) & mask;
        let word_line = m.aged_word_line(m.dac.output(a_slice)?);
        for j in 0..slices {
            let d_slice = (d >> (j * shift)) & mask;
            let pass = usize::from(i * slices + j);
            let mut variance = 0.0;
            for bit in 0..array.slice_bits {
                let stored = (d_slice >> bit) & 1 == 1;
                let cell = match &m.faults {
                    None => stored,
                    Some(faults) => {
                        faults.column_discharges(pass, bit, stored) && !faults.is_shorted(pass, bit)
                    }
                };
                if !cell {
                    continue;
                }
                let sigma = m.models.mismatch_sigma(m.column_duration(bit), word_line).0;
                variance += sigma * sigma;
            }
            worst = worst.max(variance.sqrt() / array.slice_bits as f64);
        }
    }
    Ok(Volts(worst))
}

/// Every operand pair's outcome at `at`, one [`multiply_at`] per pair, in
/// operand-major order.
fn outcomes(m: &InSramMultiplier, at: OperatingPoint) -> Result<Vec<MultiplyOutcome>, ImcError> {
    let max = m.array().operand_max();
    let mut outcomes = Vec::with_capacity(m.array().input_space());
    for a in 0..=max {
        for d in 0..=max {
            outcomes.push(multiply_at(m, a, d, at)?);
        }
    }
    Ok(outcomes)
}

/// The float mean of `value` over `outcomes`, as [`stats::mean`] sums it.
fn mean(outcomes: &[MultiplyOutcome], value: impl Fn(&MultiplyOutcome) -> f64) -> f64 {
    stats::mean(&outcomes.iter().map(value).collect::<Vec<_>>())
}

/// The input-space metrics at the nominal point, one [`multiply_at`] and
/// one [`analog_sigma`] per pair, averaged as floats.
pub(crate) fn input_space(m: &InSramMultiplier) -> Result<MultiplierMetrics, ImcError> {
    let outcomes = outcomes(m, m.nominal_operating_point())?;
    let max = m.array().operand_max();
    let mut worst_sigma = 0.0f64;
    for a in 0..=max {
        for d in 0..=max {
            worst_sigma = worst_sigma.max(analog_sigma(m, a, d)?.0);
        }
    }
    let errors: Vec<f64> = outcomes.iter().map(MultiplyOutcome::error_lsb).collect();
    Ok(MultiplierMetrics {
        epsilon_mul: mean(&outcomes, |o| o.error_lsb().abs()),
        rms_error_lsb: stats::rms(&errors),
        max_error_lsb: errors.iter().map(|e| e.abs()).fold(0.0, f64::max),
        energy_per_multiply: FemtoJoules(mean(&outcomes, |o| o.multiply_energy.0)),
        energy_per_operation: FemtoJoules(mean(&outcomes, |o| o.total_energy().0)),
        sigma_at_max_discharge: analog_sigma(m, max, max)?,
        worst_case_sigma: Volts(worst_sigma),
    })
}

/// The multiplier table at `at`, one [`multiply_at`] per pair.
pub(crate) fn table(m: &InSramMultiplier, at: OperatingPoint) -> Result<MultiplierTable, ImcError> {
    let outcomes = outcomes(m, at)?;
    Ok(MultiplierTable {
        operand_bits: m.array().operand_bits,
        results: outcomes.iter().map(|o| o.result).collect(),
        average_multiply_energy: FemtoJoules(mean(&outcomes, |o| o.multiply_energy.0)),
        average_total_energy: FemtoJoules(mean(&outcomes, |o| o.total_energy().0)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{DesignSpace, DesignSpaceExplorer};
    use crate::metrics::evaluate_multiplier;
    use crate::multiplier::{MismatchInstance, MultiplierConfig};
    use crate::testsupport::{
        faulted_multiplier, ideal_config, int8_config, int8_two_bit_config, linear_suite,
        noisy_linear_suite, nonlinear_pvt_suite, pvt_sensitive_suite, unshorted_faulted_multiplier,
    };
    use optima_circuit::array::ArrayConfig;
    use optima_core::sweep::stream_seed;
    use optima_math::distributions::standard_normal;
    use optima_math::units::{Celsius, Seconds};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The standard normals of Monte-Carlo instance `instance`: one per data
    /// column of the stored word, from the instance's own stream.
    fn instance_normals(m: &InSramMultiplier, instance: u64) -> Vec<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(0x5eed, instance));
        (0..m.array().operand_bits)
            .map(|_| standard_normal(&mut rng))
            .collect()
    }

    #[test]
    fn mismatch_sampling_perturbs_results_reproducibly() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let at = multiplier.nominal_operating_point();
        let normals = instance_normals(&multiplier, 3);
        let a = multiply_with_mismatch(&multiplier, &normals, 12, 13, at).unwrap();
        let b = multiply_with_mismatch(&multiplier, &normals, 12, 13, at).unwrap();
        assert_eq!(a, b);
        // Across many instances the discharge must deviate from nominal
        // sometimes.
        let discharge =
            |normals: Option<&[f64]>| slice_discharge(&multiplier, 0, 12, 13, at, normals).unwrap();
        let nominal = discharge(None);
        let any_different = (0..64).any(|instance| {
            let normals = instance_normals(&multiplier, instance);
            (discharge(Some(&normals)) - nominal).abs() > 1e-6
        });
        assert!(any_different);
    }

    /// `multiply_at` against the live oracle, whole outcomes (energies
    /// included) pair by pair, at the nominal point and off it, on a
    /// pristine chip of two suites and on the faulted chip.
    #[test]
    fn batched_outcomes_are_bit_identical_to_scalar_multiplication() {
        let new = |suite| InSramMultiplier::new(suite, ideal_config()).unwrap();
        for multiplier in [
            new(linear_suite()),
            new(pvt_sensitive_suite()),
            faulted_multiplier(linear_suite()).unwrap(),
        ] {
            for at in [
                multiplier.nominal_operating_point(),
                OperatingPoint {
                    vdd: Volts(0.95),
                    temperature: Celsius(60.0),
                },
            ] {
                for a in 0..=15u16 {
                    for d in 0..=15u16 {
                        assert_eq!(
                            multiplier.multiply_at(a, d, at).unwrap(),
                            multiply_at(&multiplier, a, d, at).unwrap(),
                            "{at:?}: a = {a}, d = {d}"
                        );
                    }
                }
            }
        }
    }

    /// `result_grid` against the live `multiply_at(..).result`, and
    /// `analog_sigma_grid` against the live [`analog_sigma`] by bits, on
    /// one, two and four slices per operand.  The faulted chip's V_th aging
    /// moves its word lines and its faults gate which cells carry
    /// mismatch, so its σ differs from its pristine twin's.
    #[test]
    fn result_grid_is_bit_identical_to_scalar_results() {
        let int4: Vec<u16> = (0..=15).collect();
        let cases = [
            (
                "int4 linear",
                InSramMultiplier::new(linear_suite(), ideal_config()).unwrap(),
                int4.clone(),
            ),
            (
                "int4 pvt sensitive",
                InSramMultiplier::new(pvt_sensitive_suite(), ideal_config()).unwrap(),
                int4.clone(),
            ),
            (
                "int8",
                InSramMultiplier::new(linear_suite(), int8_config()).unwrap(),
                int8_probes(),
            ),
            ("faulted", faulted_multiplier(linear_suite()).unwrap(), int4),
            (
                "int8 2-bit slices",
                InSramMultiplier::new(linear_suite(), int8_two_bit_config()).unwrap(),
                int8_probes(),
            ),
        ];
        assert_ne!(
            cases[3].1.analog_sigma_grid(),
            cases[0].1.analog_sigma_grid()
        );
        for (name, multiplier, operands) in &cases {
            let rows = multiplier.array().operand_max() as usize + 1;
            let sigmas = multiplier.analog_sigma_grid();
            assert_eq!(sigmas.len(), rows * rows);
            for at in [
                multiplier.nominal_operating_point(),
                OperatingPoint {
                    vdd: Volts(0.95),
                    temperature: Celsius(60.0),
                },
            ] {
                let results = multiplier.result_grid(at).unwrap();
                assert_eq!(results.len(), rows * rows);
                for &a in operands {
                    for &d in operands {
                        let index = a as usize * rows + d as usize;
                        let scalar = multiply_at(multiplier, a, d, at).unwrap();
                        assert_eq!(
                            results[index], scalar.result,
                            "{name}, {at:?}: a = {a}, d = {d}"
                        );
                        let scalar_sigma = analog_sigma(multiplier, a, d).unwrap();
                        assert_eq!(
                            sigmas[index].0.to_bits(),
                            scalar_sigma.0.to_bits(),
                            "{name}: sigma at a = {a}, d = {d}"
                        );
                    }
                }
            }
        }
    }

    /// INT8 operands covering every composition case: the full 256×256
    /// space is slow through the live scalar path, so all slice-boundary
    /// patterns plus a diagonal.
    fn int8_probes() -> Vec<u16> {
        (0..=255u16)
            .filter(|&v| v % 17 == 0 || !(18..=238).contains(&v) || v % 16 == 0)
            .collect()
    }

    /// Monte-Carlo instances read out through the code table, as the
    /// Fig. 8 Monte Carlo reads them, against the per-pair oracle walking
    /// the same chip, pair by pair and bit for bit.  The noisy suite makes
    /// most normals move a code, so a cell that reads the wrong column's
    /// normal shows; the V_DAC,0 = 0 V corner has σ = 0 at a = 0.  The
    /// geometries take one, two and four slices per operand; the unshorted
    /// faulted chip is the faulted chip on which mismatch shows.
    #[test]
    fn mismatch_instance_readout_is_bit_identical_to_the_per_pair_oracle() {
        let noisy = |config| InSramMultiplier::new(noisy_linear_suite(), config).unwrap();
        let int4: Vec<u16> = (0..=15).collect();
        let zero_word_line = MultiplierConfig::new(Seconds(0.16e-9), Volts(0.0), Volts(1.0));
        let cases = [
            ("int4", noisy(ideal_config()), int4.clone()),
            ("zero word line", noisy(zero_word_line), int4.clone()),
            ("int8", noisy(int8_config()), int8_probes()),
            (
                "int8 2-bit slices",
                noisy(int8_two_bit_config()),
                int8_probes(),
            ),
            (
                "faulted",
                faulted_multiplier(noisy_linear_suite()).unwrap(),
                int4.clone(),
            ),
            (
                "unshorted faulted",
                unshorted_faulted_multiplier(noisy_linear_suite()).unwrap(),
                int4,
            ),
        ];
        for (name, multiplier, operands) in &cases {
            let rows = multiplier.array().operand_max() as usize + 1;
            for at in [
                multiplier.nominal_operating_point(),
                OperatingPoint {
                    vdd: Volts(0.95),
                    temperature: Celsius(60.0),
                },
            ] {
                let grid = multiplier.analog_grid(at).unwrap();
                let sigmas = multiplier.mismatch_sigmas(&grid).unwrap();
                let nominal = multiplier.result_grid(at).unwrap();
                let mut moved = 0;
                for instance in 0..2 {
                    let normals = instance_normals(multiplier, instance);
                    let chip = MismatchInstance {
                        sigmas: &sigmas,
                        normals: &normals,
                    };
                    let mut codes = Vec::new();
                    multiplier.code_table(&grid, at, Some(chip), &mut codes);
                    let results = multiplier.collect_results(&codes);
                    assert_eq!(results.len(), rows * rows);
                    for &a in operands {
                        for &d in operands {
                            let oracle =
                                multiply_with_mismatch(multiplier, &normals, a, d, at).unwrap();
                            assert_eq!(
                                results[a as usize * rows + d as usize],
                                oracle.result,
                                "{name}, {at:?}, instance {instance}: a = {a}, d = {d}"
                            );
                        }
                    }
                    moved += results.iter().zip(&nominal).filter(|(r, n)| r != n).count();
                }
                // The faulted chip's shorted bit-line saturates every code,
                // so no mismatch can show there.
                assert!(
                    moved > 0 || *name == "faulted",
                    "{name}, {at:?}: no instance moved a result"
                );
            }
        }
    }

    /// With σ = 0 every cell keeps its nominal ΔV whatever its normal, so
    /// the instance readout is exactly the pristine code table.
    #[test]
    fn a_zero_sigma_instance_reads_the_nominal_results() {
        let noisy = |config| InSramMultiplier::new(noisy_linear_suite(), config).unwrap();
        for multiplier in [
            noisy(ideal_config()),
            noisy(int8_config()),
            faulted_multiplier(noisy_linear_suite()).unwrap(),
        ] {
            let at = multiplier.nominal_operating_point();
            let zeros = vec![0.0; multiplier.sigmas.len()];
            let normals = instance_normals(&multiplier, 7);
            let chip = MismatchInstance {
                sigmas: &zeros,
                normals: &normals,
            };
            let mut codes = Vec::new();
            multiplier.code_table(&multiplier.grid, at, Some(chip), &mut codes);
            let results = multiplier.collect_results(&codes);
            assert_eq!(results, multiplier.result_grid(at).unwrap());
        }
    }

    /// `multiply_at` on 4 and 16 passes against the live oracle, whole
    /// outcomes pair by pair: an energy chain regrouped across passes shows
    /// in a pair's low bits, though the table averages round it away.
    #[test]
    fn int8_outcomes_are_bit_identical_to_scalar_composition() {
        let probes = int8_probes();
        for config in [int8_config(), int8_two_bit_config()] {
            let multiplier = InSramMultiplier::new(linear_suite(), config).unwrap();
            let at = multiplier.nominal_operating_point();
            for &a in &probes {
                for &d in &probes {
                    assert_eq!(
                        multiplier.multiply_at(a, d, at).unwrap(),
                        multiply_at(&multiplier, a, d, at).unwrap(),
                        "{}: a = {a}, d = {d}",
                        multiplier.array().describe()
                    );
                }
            }
        }
    }

    /// The table's results and energy averages against one live evaluation
    /// per pair, also off the nominal point on the faulted chip and on 16
    /// passes of 2-bit slices.
    #[test]
    fn batched_table_is_bit_identical_to_scalar_table() {
        let off_nominal = OperatingPoint {
            vdd: Volts(0.95),
            temperature: Celsius(60.0),
        };
        let int4 = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let two_bit = InSramMultiplier::new(linear_suite(), int8_two_bit_config()).unwrap();
        let faulted = faulted_multiplier(linear_suite()).unwrap();
        for (name, multiplier, at) in [
            ("int4", &int4, int4.nominal_operating_point()),
            ("faulted off nominal", &faulted, off_nominal),
            ("2-bit slices", &two_bit, two_bit.nominal_operating_point()),
            ("2-bit slices off nominal", &two_bit, off_nominal),
        ] {
            let batched = MultiplierTable::from_multiplier(multiplier, at).unwrap();
            assert_eq!(batched, table(multiplier, at).unwrap(), "{name}");
        }
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
        let batched = MultiplierTable::from_multiplier(&faulted, at).unwrap();
        assert_eq!(batched, baseline);
        let scalar = table(&faulted, at).unwrap();
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
        let scalar = table(&multiplier, at).unwrap();
        assert_eq!(batched, scalar);
    }

    /// The corner metrics off the kept grid and σ table against one live
    /// evaluation per pair, on one, two and four slices per operand,
    /// including the faulted chips' gated columns and an aged chip's word
    /// lines.
    #[test]
    fn batched_metrics_are_bit_identical_to_the_scalar_reference() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::{DefectMap, LifetimeTrajectory};
        let new = |config| InSramMultiplier::new(linear_suite(), config).unwrap();
        let array = ArrayConfig::paper();
        let aged = FaultState::unmitigated(&array, DefectMap::none(&array), 0)
            .unwrap()
            .with_lifetime(&LifetimeTrajectory::nbti_like().at(10));
        for multiplier in [
            new(ideal_config()).with_faults(aged).unwrap(),
            new(int8_two_bit_config()),
            unshorted_faulted_multiplier(linear_suite()).unwrap(),
            new(ideal_config()),
            // Zero code well below the threshold voltage: small DAC codes
            // produce almost no discharge.
            new(MultiplierConfig::new(
                Seconds(0.16e-9),
                Volts(0.1),
                Volts(1.0),
            )),
            new(int8_config()),
            faulted_multiplier(linear_suite()).unwrap(),
        ] {
            let batched = evaluate_multiplier(&multiplier);
            assert_eq!(batched, input_space(&multiplier).unwrap());
            assert!(batched.epsilon_mul.is_finite());
            assert!(batched.energy_per_multiply.0 > 0.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Multiplier-table construction and every pair's `multiply_at` off
        /// the analog grid are bit-identical to the live per-pair path for
        /// arbitrary design points and operating points, including
        /// off-nominal VDD × temperature corners, and so are the nominal
        /// corner metrics.
        #[test]
        fn batched_multiplier_table_is_bit_identical_to_scalar(
            tau0_ps in 100.0f64..300.0,
            vdac_zero in 0.3f64..0.6,
            vdd in 0.95f64..1.05,
            temp in 0.0f64..60.0,
        ) {
            let multiplier = InSramMultiplier::new(
                nonlinear_pvt_suite(),
                MultiplierConfig::new(Seconds(tau0_ps * 1e-12), Volts(vdac_zero), Volts(1.0)),
            )
            .unwrap();
            let at = OperatingPoint {
                vdd: Volts(vdd),
                temperature: Celsius(temp),
            };
            let batched = MultiplierTable::from_multiplier(&multiplier, at).unwrap();
            prop_assert_eq!(batched, table(&multiplier, at).unwrap());
            prop_assert_eq!(
                evaluate_multiplier(&multiplier),
                input_space(&multiplier).unwrap()
            );
            for a in 0..=15u16 {
                for d in 0..=15u16 {
                    prop_assert_eq!(
                        multiplier.multiply_at(a, d, at).unwrap(),
                        multiply_at(&multiplier, a, d, at).unwrap()
                    );
                }
            }
        }

    }

    /// Every corner of the small design space, explored through the
    /// analog grids, has the metrics of the live per-pair reference.
    #[test]
    fn explored_corners_match_the_scalar_reference() {
        let space = DesignSpace::small();
        let results = DesignSpaceExplorer::new(nonlinear_pvt_suite())
            .explore(&space)
            .unwrap();
        assert_eq!(results.len(), space.len());
        for result in &results {
            let multiplier =
                InSramMultiplier::new(nonlinear_pvt_suite(), result.point.to_config()).unwrap();
            let reference = input_space(&multiplier).unwrap();
            assert_eq!(result.metrics, reference, "{:?}", result.point);
        }
    }
}
