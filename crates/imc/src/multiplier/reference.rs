//! The live per-pair multiply path, kept as the oracle of the unit tests.
//!
//! Every analog pass evaluates the fitted models through
//! [`ModelSuite::discharge`](optima_core::model::suite::ModelSuite::discharge)
//! for just the columns the pair needs, optionally adding one mismatch
//! deviation per column.  The library reads every multiplication off the
//! precomputed grids instead ([`InSramMultiplier::outcome_grid`], the code
//! table [`InSramMultiplier::result_grid`],
//! [`InSramMultiplier::analog_sigma_grid`] and the row-batched mismatch
//! readout of the Fig. 8 Monte Carlo); the tests below pin them
//! bit-identical to this path.

use super::{InSramMultiplier, MultiplierTable, MultiplyOutcome, OperatingPoint};
use crate::error::ImcError;
use crate::metrics::{metrics_from, MultiplierMetrics};
use optima_math::units::{FemtoJoules, Volts};
use rand::Rng;

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
    m: &InSramMultiplier,
    pass: usize,
    a_slice: u16,
    d_slice: u16,
    at: OperatingPoint,
    mut rng: Option<&mut R>,
) -> Result<f64, ImcError> {
    let word_line = m.aged_word_line(m.dac.output_with_supply(
        a_slice,
        at.vdd,
        m.models.vdd_nominal(),
    )?);
    let mut total = 0.0;
    for bit in 0..m.config.array.slice_bits {
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
        let delta = match rng.as_mut() {
            Some(rng) => {
                let deviation = m
                    .models
                    .mismatch_model()
                    .sample_deviation(&mut **rng, duration, word_line);
                (nominal + deviation.0).max(0.0)
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
    Ok(total / m.config.array.slice_bits as f64)
}

/// One multiplication through the live models (optionally with mismatch
/// sampling, consuming the RNG in pass order), composed by the library's
/// own readout.
fn multiply_inner<R: Rng + ?Sized>(
    m: &InSramMultiplier,
    a: u16,
    d: u16,
    at: OperatingPoint,
    mut rng: Option<&mut R>,
) -> Result<MultiplyOutcome, ImcError> {
    m.check_operands(a, d)?;
    let array = &m.config.array;
    let slices = array.slices() as u16;
    let shift = array.slice_bits as u16;
    let mask = array.slice_max();
    let mut discharges = Vec::with_capacity(array.passes() as usize);
    for i in 0..slices {
        let a_slice = (a >> (i * shift)) & mask;
        for j in 0..slices {
            let d_slice = (d >> (j * shift)) & mask;
            let pass = discharges.len();
            discharges.push(slice_discharge(
                m,
                pass,
                a_slice,
                d_slice,
                at,
                rng.as_deref_mut(),
            )?);
        }
    }
    let write_energy =
        FemtoJoules(m.models.write_energy(at.vdd, at.temperature).0 * array.operand_bits as f64);
    // Energy readout mirrors the real circuit: it cannot fail once the
    // pass discharges above succeeded, so fall back to zero-energy terms
    // instead of propagating.
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
    Ok(m.compose_outcome(
        a,
        d,
        |pass, _, _| discharges[pass],
        column_energy,
        write_energy,
    ))
}

/// One multiplication at `at` through the live models.
pub(crate) fn multiply_at(
    m: &InSramMultiplier,
    a: u16,
    d: u16,
    at: OperatingPoint,
) -> Result<MultiplyOutcome, ImcError> {
    multiply_inner::<rand_chacha::ChaCha8Rng>(m, a, d, at, None)
}

/// One mismatch Monte Carlo multiplication at `at` through the live models
/// (composed geometries sample every pass independently, in pass order).
pub(crate) fn multiply_with_mismatch<R: Rng + ?Sized>(
    m: &InSramMultiplier,
    rng: &mut R,
    a: u16,
    d: u16,
    at: OperatingPoint,
) -> Result<MultiplyOutcome, ImcError> {
    multiply_inner(m, a, d, at, Some(rng))
}

/// Analog σ of the combined discharge for `(a, d)`: the root-sum-square of
/// the per-column σ within one pass, the worst pass for composed geometries.
pub(crate) fn analog_sigma(m: &InSramMultiplier, a: u16, d: u16) -> Result<Volts, ImcError> {
    m.check_operands(a, d)?;
    let array = &m.config.array;
    let slices = array.slices() as u16;
    let shift = array.slice_bits as u16;
    let mask = array.slice_max();
    let mut worst = 0.0f64;
    for i in 0..slices {
        let a_slice = (a >> (i * shift)) & mask;
        let word_line = m.dac.output(a_slice)?;
        for j in 0..slices {
            let d_slice = (d >> (j * shift)) & mask;
            let mut variance = 0.0;
            for bit in 0..array.slice_bits {
                if (d_slice >> bit) & 1 == 0 {
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

/// The input-space metrics at `at`, one [`multiply_at`] and one
/// [`analog_sigma`] per pair.
pub(crate) fn input_space(
    m: &InSramMultiplier,
    at: OperatingPoint,
) -> Result<MultiplierMetrics, ImcError> {
    let max = m.array().operand_max();
    let mut outcomes = Vec::with_capacity(m.array().input_space());
    let mut sigmas = Vec::with_capacity(m.array().input_space());
    for a in 0..=max {
        for d in 0..=max {
            outcomes.push(multiply_at(m, a, d, at)?);
            sigmas.push(analog_sigma(m, a, d)?);
        }
    }
    metrics_from(&outcomes, &sigmas)
}

/// The multiplier table at `at`, one [`multiply_at`] per pair.
pub(crate) fn table(m: &InSramMultiplier, at: OperatingPoint) -> Result<MultiplierTable, ImcError> {
    let max = m.array().operand_max();
    let mut outcomes = Vec::with_capacity(m.array().input_space());
    for a in 0..=max {
        for d in 0..=max {
            outcomes.push(multiply_at(m, a, d, at)?);
        }
    }
    MultiplierTable::from_outcomes(outcomes, m.array().operand_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{DesignSpace, DesignSpaceExplorer};
    use crate::metrics::evaluate_multiplier_at;
    use crate::multiplier::{MultiplierConfig, WORDS_PER_DRAW};
    use crate::testsupport::{
        faulted_multiplier, ideal_config, int8_config, linear_suite, nonlinear_pvt_suite,
        pvt_sensitive_suite,
    };
    use optima_circuit::array::ArrayConfig;
    use optima_math::distributions::standard_normal;
    use optima_math::units::{Celsius, Seconds};
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn mismatch_sampling_perturbs_results_reproducibly() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let at = multiplier.nominal_operating_point();
        let mut rng_a = ChaCha8Rng::seed_from_u64(3);
        let mut rng_b = ChaCha8Rng::seed_from_u64(3);
        let a = multiply_with_mismatch(&multiplier, &mut rng_a, 12, 13, at).unwrap();
        let b = multiply_with_mismatch(&multiplier, &mut rng_b, 12, 13, at).unwrap();
        assert_eq!(a.combined_discharge, b.combined_discharge);
        // Across many samples the result must deviate from nominal sometimes.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let nominal = multiplier.multiply(12, 13).unwrap().combined_discharge.0;
        let any_different = (0..64).any(|_| {
            let sampled = multiply_with_mismatch(&multiplier, &mut rng, 12, 13, at)
                .unwrap()
                .combined_discharge
                .0;
            (sampled - nominal).abs() > 1e-6
        });
        assert!(any_different);
    }

    #[test]
    fn batched_outcome_grid_is_bit_identical_to_scalar_multiplication() {
        for suite in [linear_suite(), pvt_sensitive_suite()] {
            let multiplier = InSramMultiplier::new(suite, ideal_config()).unwrap();
            for at in [
                multiplier.nominal_operating_point(),
                OperatingPoint {
                    vdd: Volts(0.95),
                    temperature: Celsius(60.0),
                },
            ] {
                let outcomes = multiplier.outcome_grid(at).unwrap();
                assert_eq!(outcomes.len(), 256);
                for a in 0..=15u16 {
                    for d in 0..=15u16 {
                        let index = (a * 16 + d) as usize;
                        let scalar = multiply_at(&multiplier, a, d, at).unwrap();
                        assert_eq!(outcomes[index], scalar, "a = {a}, d = {d}");
                    }
                }
            }
        }
    }

    /// `result_grid` against the live `multiply_at(..).result`, and
    /// `analog_sigma_grid` against the live [`analog_sigma`] by bits.
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
        ];
        for (name, multiplier, operands) in &cases {
            let rows = multiplier.array().operand_max() as usize + 1;
            let sigmas = multiplier.analog_sigma_grid().unwrap();
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

    /// Runs one RNG stream through the whole input space at `at`, once via
    /// the scalar `multiply_with_mismatch` oracle and once row-batched, as
    /// the Monte Carlo does: each row's
    /// [`InSramMultiplier::row_mismatch_draws`] standard normals are drawn
    /// up front and read out pair by pair by
    /// [`InSramMultiplier::mismatch_result`].  Results must be equal pair by
    /// pair.  Each pair must take as many normals as
    /// [`InSramMultiplier::mismatch_draws`] counts, and the oracle must
    /// consume [`WORDS_PER_DRAW`] words per counted draw; each row must use
    /// all of its normals, and the two streams must stand at the same
    /// position after every row (so neither path draws a sample the other
    /// skips).
    fn assert_mismatch_grid_matches_scalar(multiplier: &InSramMultiplier, at: OperatingPoint) {
        let grid = multiplier.mismatch_grid(at).unwrap();
        let row_draws = multiplier.row_mismatch_draws(&grid);
        let mut scalar_rng = ChaCha8Rng::seed_from_u64(0x5eed);
        let mut grid_rng = scalar_rng.clone();
        let max = multiplier.array().operand_max();
        assert_eq!(row_draws.len(), max as usize + 1);
        for a in 0..=max {
            let normals: Vec<f64> = (0..row_draws[a as usize])
                .map(|_| standard_normal(&mut grid_rng))
                .collect();
            let mut next = 0;
            for d in 0..=max {
                let before = scalar_rng.get_word_pos();
                let scalar = multiply_with_mismatch(multiplier, &mut scalar_rng, a, d, at).unwrap();
                let words = scalar_rng.get_word_pos() - before;
                let draws = multiplier.mismatch_draws(&grid, a, d);
                assert_eq!(
                    words,
                    WORDS_PER_DRAW * u128::from(draws),
                    "a = {a}, d = {d}"
                );
                let first = next;
                let result = multiplier.mismatch_result(&grid, a, d, &normals, &mut next);
                assert_eq!(result, scalar.result, "a = {a}, d = {d}");
                assert_eq!((next - first) as u64, draws, "a = {a}, d = {d}");
            }
            assert_eq!(next, normals.len(), "row a = {a}");
            assert_eq!(
                grid_rng.get_word_pos(),
                scalar_rng.get_word_pos(),
                "row a = {a}"
            );
        }
        assert_eq!(grid_rng.next_u64(), scalar_rng.next_u64());
    }

    #[test]
    fn mismatch_grid_is_bit_identical_to_scalar_mismatch_sampling() {
        // A zero-code DAC output of 0 V gives σ = 0 at a = 0, which must
        // draw nothing on either path.
        let zero_word_line = MultiplierConfig::new(Seconds(0.16e-9), Volts(0.0), Volts(1.0));
        for suite in [linear_suite(), pvt_sensitive_suite()] {
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
        let multiplier = faulted_multiplier(linear_suite()).unwrap();
        assert_mismatch_grid_matches_scalar(&multiplier, multiplier.nominal_operating_point());
    }

    #[test]
    fn int8_outcome_grid_is_bit_identical_to_scalar_composition() {
        let multiplier = InSramMultiplier::new(linear_suite(), int8_config()).unwrap();
        let at = multiplier.nominal_operating_point();
        let outcomes = multiplier.outcome_grid(at).unwrap();
        assert_eq!(outcomes.len(), 65536);
        let probes = int8_probes();
        for &a in &probes {
            for &d in &probes {
                let index = a as usize * 256 + d as usize;
                let scalar = multiply_at(&multiplier, a, d, at).unwrap();
                assert_eq!(outcomes[index], scalar, "a = {a}, d = {d}");
            }
        }
    }

    #[test]
    fn batched_table_is_bit_identical_to_scalar_table() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let at = multiplier.nominal_operating_point();
        let batched = MultiplierTable::from_multiplier(&multiplier, at).unwrap();
        let scalar = table(&multiplier, at).unwrap();
        assert_eq!(batched, scalar);
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

    #[test]
    fn batched_metrics_are_bit_identical_to_the_scalar_reference() {
        for config in [
            ideal_config(),
            // Zero code well below the threshold voltage: small DAC codes
            // produce almost no discharge.
            MultiplierConfig::new(Seconds(0.16e-9), Volts(0.1), Volts(1.0)),
        ] {
            let multiplier = InSramMultiplier::new(linear_suite(), config).unwrap();
            let at = multiplier.nominal_operating_point();
            let batched = evaluate_multiplier_at(&multiplier, at).unwrap();
            let scalar = input_space(&multiplier, at).unwrap();
            assert_eq!(batched, scalar);
        }
    }

    #[test]
    fn int8_metrics_are_bit_identical_between_batched_and_scalar() {
        let multiplier = InSramMultiplier::new(linear_suite(), int8_config()).unwrap();
        let at = multiplier.nominal_operating_point();
        let batched = evaluate_multiplier_at(&multiplier, at).unwrap();
        let scalar = input_space(&multiplier, at).unwrap();
        assert_eq!(batched, scalar);
        assert!(batched.epsilon_mul.is_finite());
        assert!(batched.energy_per_multiply.0 > 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Multiplier-table construction, the input-space outcomes and the
        /// corner metrics off the analog grid are bit-identical to the live
        /// per-pair path for arbitrary design points and operating points,
        /// including off-nominal VDD × temperature corners.
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
                evaluate_multiplier_at(&multiplier, at).unwrap(),
                input_space(&multiplier, at).unwrap()
            );
            let outcomes = multiplier.outcome_grid(at).unwrap();
            for a in 0..=15u16 {
                for d in 0..=15u16 {
                    let scalar_outcome = multiply_at(&multiplier, a, d, at).unwrap();
                    prop_assert_eq!(outcomes[(a * 16 + d) as usize], scalar_outcome);
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
            let reference = input_space(&multiplier, multiplier.nominal_operating_point()).unwrap();
            assert_eq!(result.metrics, reference, "{:?}", result.point);
        }
    }
}
