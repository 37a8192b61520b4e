//! PVT and mismatch analysis of selected multiplier corners (paper Fig. 8).
//!
//! For each selected corner the paper reports:
//!
//! * the average multiplication result deviation and the analog standard
//!   deviation as a function of the expected result (Fig. 8 left),
//! * the influence of supply-voltage and temperature variations on the error
//!   level (Fig. 8 right), and
//! * the mismatch Monte-Carlo error distribution (the 28.1×-accelerated
//!   sweep of Section V).
//!
//! All three sweeps run on the error-strict parallel engine of
//! [`optima_core::sweep`]: a failing supply or temperature condition aborts
//! the analysis with [`ImcError::CornerFailed`] naming it, and every
//! reported number — including the Monte-Carlo statistics, which draw one
//! split-seed RNG stream per instance — is bit-identical for any thread
//! count.
//!
//! Every sweep reads only digitised results, so none takes the per-pair
//! energy chain of [`InSramMultiplier::multiply_at`].  The supply and
//! temperature conditions run as one sweep over a single list of operating
//! points.  The multiplier's
//! code table (`code_table`) reads an analog grid out once per (pass, slice
//! pair) — `passes × (slice_max + 1)²` ADC codes, 1,024 for INT8 — building
//! each (pass, slice operand) row of discharges by bit-ascending prefix
//! sums, about one add per code.  `pair_results` then folds the codes per operand
//! row: each d-slice position's codes are summed over the row's a-slices
//! once and spread over every `d`, one add per pair.  The results are
//! bit-identical to a per-pair loop over the live models; the expected
//! product is `a · d` of the visited pair.  Nothing here builds the nominal
//! analog grid: the nominal profile, the σ profile and every Monte-Carlo
//! instance read the grid and Eq. 6 σ table that the multiplier built once,
//! at construction, and so does a supply or temperature condition equal to
//! the nominal point.  The analog σ profile
//! ([`InSramMultiplier::analog_sigma_grid`]) takes one root-sum-square per
//! (pass, slice pair) over the cells that discharge, by the rule the Monte
//! Carlo applies, and each operand pair's worst pass through the same
//! per-row fold.
//!
//! A Monte-Carlo instance is one chip.  Eq. 6 is fitted to the spread of
//! ΔV across mismatch instances, where an instance is one physical cell.
//! On the golden circuit a cell's deviation from the nominal ΔV moves with
//! itself across the discharge times of one chip (correlation 1.000) and
//! largely across its word-line voltages (0.953 between 0.5 V and 0.7 V),
//! pinned by a unit test below; a frozen instance takes that correlation
//! as 1.  So instance `k` draws one standard normal `z[c]` per data
//! column `c` of the stored word, in column order, from the stream
//! [`optima_core::sweep::stream_seed`]`(seed, k)` — 4 normals for INT4,
//! 8 for INT8 — and keeps them for every operand pair.  Each discharging
//! cell reads `max(ΔV + σ·z[c], 0)`, with the Eq. 6 σ of its
//! `(slice operand, column)` evaluated at the grid's own supply-adjusted,
//! aged word lines, the same table the σ profile reads; a σ that is not
//! finite fails [`InSramMultiplier::new`] with [`ImcError::NonFiniteSigma`],
//! so no analysis runs on it.  The instance is then read out by the same
//! code table and per-row fold as the nominal profile, in the normal and
//! code buffers its sweep worker keeps, and adds every pair's |error|
//! straight into an integer sum: every sum is an exact `f64`, so each
//! instance's mean error has the same bits whatever the thread count.  The
//! nominal error bins and ε_mul sum integer errors the same way.

use crate::error::ImcError;
use crate::multiplier::{InSramMultiplier, OperatingPoint};
use optima_circuit::pvt::linspace;
use optima_core::sweep::{par_map_sweep, par_map_sweep_with, stream_seed, SweepError};
use optima_math::distributions::standard_normal;
use optima_math::stats;
use optima_math::units::{Celsius, Volts};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;

/// Configuration of the PVT analysis sweeps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PvtAnalysisConfig {
    /// Supply voltages of the voltage sweep (volts).
    pub supply_voltages: Vec<f64>,
    /// Temperatures of the temperature sweep (°C).
    pub temperatures: Vec<f64>,
    /// Number of mismatch Monte Carlo instances.  Each instance is one chip:
    /// every cell keeps one mismatch draw while the chip multiplies the full
    /// input space of the analysed geometry.
    pub mismatch_samples: usize,
    /// Base RNG seed of the Monte Carlo sampling; every instance derives its
    /// own independent stream from it (see
    /// [`optima_core::sweep::stream_seed`]).
    pub seed: u64,
    /// Worker threads of the sweeps (`0` = automatic, see
    /// [`optima_core::sweep::default_threads`]).
    pub threads: usize,
}

impl Default for PvtAnalysisConfig {
    fn default() -> Self {
        PvtAnalysisConfig {
            supply_voltages: linspace(0.9, 1.1, 5),
            temperatures: linspace(0.0, 60.0, 4),
            mismatch_samples: 50,
            seed: 0xf188,
            threads: 0,
        }
    }
}

impl PvtAnalysisConfig {
    /// A reduced configuration for tests.
    pub fn fast() -> Self {
        PvtAnalysisConfig {
            supply_voltages: vec![0.95, 1.0, 1.05],
            temperatures: vec![0.0, 25.0, 60.0],
            mismatch_samples: 12,
            ..PvtAnalysisConfig::default()
        }
    }
}

/// Error statistics binned by the expected multiplication result (Fig. 8 left).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ResultProfile {
    /// Expected results (0..=product_max) that occur in the input space, ascending.
    pub expected_results: Vec<u16>,
    /// Average signed error (result − expected) per expected result, in LSBs.
    pub average_error_lsb: Vec<f64>,
    /// Average analog mismatch standard deviation per expected result, in volts.
    pub analog_sigma: Vec<f64>,
}

/// Average error as a function of one varied operating-condition axis (Fig. 8 right).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ConditionSweep {
    /// The swept condition values (volts or °C).
    pub condition_values: Vec<f64>,
    /// Average absolute error over the input space at each condition, in LSBs.
    pub average_error_lsb: Vec<f64>,
}

/// Mismatch Monte-Carlo error statistics over the full input space.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MismatchMonteCarlo {
    /// Average absolute error of each Monte-Carlo instance, in LSBs, in
    /// sample order (sample `i` uses the RNG stream derived for index `i`).
    pub per_sample_error_lsb: Vec<f64>,
    /// Mean of the per-sample average errors, in LSBs.
    pub mean_error_lsb: f64,
    /// Standard deviation of the per-sample average errors, in LSBs.
    pub std_error_lsb: f64,
    /// Worst per-sample average error, in LSBs.
    pub worst_error_lsb: f64,
}

/// Full Fig. 8 analysis result for one corner.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PvtAnalysis {
    /// Error/σ versus expected result at nominal conditions.
    pub result_profile: ResultProfile,
    /// Error versus supply voltage.
    pub supply_sweep: ConditionSweep,
    /// Error versus temperature.
    pub temperature_sweep: ConditionSweep,
    /// Mismatch Monte-Carlo error statistics at nominal conditions.
    pub mismatch_monte_carlo: MismatchMonteCarlo,
    /// Worst-case analog standard deviation observed (volts).
    pub worst_case_sigma: f64,
    /// Average error over the whole input space at nominal conditions (LSBs).
    pub nominal_epsilon_mul: f64,
}

impl PvtAnalysis {
    /// Runs the full analysis for one multiplier corner.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::CornerFailed`] naming the first failing supply or
    /// temperature condition; no partial analysis is ever returned.  The
    /// nominal profile and the Monte Carlo read the multiplier's kept grid
    /// and σ table, which cannot fail (a non-finite σ already failed
    /// [`InSramMultiplier::new`] with [`ImcError::NonFiniteSigma`]).
    pub fn run(
        multiplier: &InSramMultiplier,
        config: &PvtAnalysisConfig,
    ) -> Result<Self, ImcError> {
        let nominal = multiplier.nominal_operating_point();
        let operand_max = multiplier.array().operand_max();
        let product_max = multiplier.array().product_max();
        let input_space = multiplier.array().input_space();

        // ---- Fig. 8 left: error and sigma binned by expected result ----
        // The whole input space is read out from one code table of the
        // multiplier's kept nominal grid, which the Monte Carlo below reads
        // as well; results come in operand-major order, so binning sees
        // samples in the same (a, d) order as the historical serial double
        // loop — and the table itself is bit-identical to that loop.
        let mut codes = Vec::new();
        multiplier.nominal_code_table(None, &mut codes);
        let sigmas = multiplier.analog_sigma_grid();

        // Flat per-expected bins.  Errors are integers, so their sums are
        // exact and any grouping gives the mean bits of a float sum; the σ
        // sums are floats and are added in pair order from -0.0, as
        // `Iterator::sum` does.
        let bins = product_max as usize + 1;
        let mut error_sums = vec![0i64; bins];
        let mut sigma_sums = vec![-0.0f64; bins];
        let mut counts = vec![0u32; bins];
        let mut abs_error_sum = 0u64;
        let mut worst_sigma: f64 = 0.0;
        let rows = usize::from(operand_max) + 1;
        multiplier.pair_results(&codes, |a, d, result| {
            let expected = a * d;
            let bin = usize::from(expected);
            let sigma = sigmas[usize::from(a) * rows + usize::from(d)].0;
            error_sums[bin] += i64::from(result) - i64::from(expected);
            sigma_sums[bin] += sigma;
            counts[bin] += 1;
            abs_error_sum += u64::from(result.abs_diff(expected));
            worst_sigma = worst_sigma.max(sigma);
        });

        let mut result_profile = ResultProfile::default();
        for (expected, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            result_profile.expected_results.push(expected as u16);
            result_profile
                .average_error_lsb
                .push(error_sums[expected] as f64 / f64::from(count));
            result_profile
                .analog_sigma
                .push(sigma_sums[expected] / f64::from(count));
        }

        // ---- Fig. 8 right: error vs supply voltage and temperature ----
        // One sweep over the supply conditions, then the temperatures, so
        // the workers start once.  The lowest failing index is a supply
        // condition whenever one fails, as if the supply sweep ran first.
        let supplies = config.supply_voltages.len();
        let conditions: Vec<OperatingPoint> = config
            .supply_voltages
            .iter()
            .map(|&vdd| OperatingPoint {
                vdd: Volts(vdd),
                temperature: nominal.temperature,
            })
            .chain(config.temperatures.iter().map(|&temp| OperatingPoint {
                vdd: nominal.vdd,
                temperature: Celsius(temp),
            }))
            .collect();
        let mut errors = par_map_sweep(&conditions, config.threads, |_, &at| {
            average_error_at(multiplier, at)
        })
        .map_err(|err| {
            let (index, corner) = match err.index.checked_sub(supplies) {
                None => {
                    let vdd = config.supply_voltages[err.index];
                    (err.index, format!("supply sweep V_DD = {vdd} V"))
                }
                Some(index) => {
                    let temp = config.temperatures[index];
                    (index, format!("temperature sweep T = {temp} degC"))
                }
            };
            let source = err.source;
            ImcError::from_sweep(SweepError { index, source }, corner)
        })?;
        let temperature_sweep = ConditionSweep {
            condition_values: config.temperatures.clone(),
            average_error_lsb: errors.split_off(supplies),
        };
        let supply_sweep = ConditionSweep {
            condition_values: config.supply_voltages.clone(),
            average_error_lsb: errors,
        };

        // ---- Mismatch Monte Carlo: one chip per instance ----
        let columns = usize::from(multiplier.array().operand_bits);
        let instances: Vec<u64> = (0..config.mismatch_samples as u64).collect();
        // Each worker reuses one normal and one code buffer across its
        // instances.  The kept σ table was validated at construction, so no
        // instance can fail.
        let error_sums = match par_map_sweep_with(
            &instances,
            config.threads,
            || (vec![0.0; columns], Vec::new()),
            |(normals, codes), _, &instance| {
                // optima-lint: hot
                let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(config.seed, instance));
                for normal in normals.iter_mut() {
                    *normal = standard_normal(&mut rng);
                }
                multiplier.nominal_code_table(Some(normals), codes);
                let error_sum = absolute_error_sum(multiplier, codes);
                // optima-lint: end-hot
                Ok::<_, Infallible>(error_sum)
            },
        ) {
            Ok(sums) => sums,
            Err(impossible) => match impossible.source {},
        };
        // Every |error| is at most 65,535 and an instance has at most 65,536
        // of them, so each sum is an exact f64 and the mean has the bits of
        // summing the errors one by one.
        let per_sample_error_lsb: Vec<f64> = error_sums
            .iter()
            .map(|&sum| sum as f64 / input_space as f64)
            .collect();
        let mismatch_monte_carlo = MismatchMonteCarlo {
            mean_error_lsb: stats::mean(&per_sample_error_lsb),
            std_error_lsb: stats::std_dev(&per_sample_error_lsb),
            worst_error_lsb: per_sample_error_lsb.iter().cloned().fold(0.0, f64::max),
            per_sample_error_lsb,
        };

        Ok(PvtAnalysis {
            result_profile,
            supply_sweep,
            temperature_sweep,
            mismatch_monte_carlo,
            worst_case_sigma: worst_sigma,
            nominal_epsilon_mul: abs_error_sum as f64 / input_space as f64,
        })
    }
}

/// Average absolute error over the full input space at one operating point,
/// read out from the pristine code table
/// ([`InSramMultiplier::grid_and_codes`]).
fn average_error_at(multiplier: &InSramMultiplier, at: OperatingPoint) -> Result<f64, ImcError> {
    let (_, codes) = multiplier.grid_and_codes(at)?;
    let sum = absolute_error_sum(multiplier, &codes);
    Ok(sum as f64 / multiplier.array().input_space() as f64)
}

/// The exact integer sum of every operand pair's |result − expected|, the
/// results read off `codes` ([`InSramMultiplier::pair_results`]) without
/// collecting them.
fn absolute_error_sum(multiplier: &InSramMultiplier, codes: &[u32]) -> u64 {
    let mut sum = 0u64;
    multiplier.pair_results(codes, |a, d, result| {
        sum += u64::from(result.abs_diff(a * d))
    });
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{DesignSpace, DesignSpaceExplorer};
    use crate::multiplier::{reference, MultiplierConfig};
    use crate::testsupport::{
        faulted_multiplier, ideal_config, int8_config, int8_two_bit_config, linear_suite,
        noisy_linear_suite, pvt_sensitive_suite, unshorted_faulted_multiplier,
    };
    use optima_circuit::array::ArrayConfig;
    use optima_core::model::mismatch::MismatchSigmaModel;
    use optima_core::model::suite::ModelSuite;
    use optima_math::units::Seconds;
    use optima_math::Polynomial;

    fn multiplier(suite_sensitive: bool) -> InSramMultiplier {
        let suite = if suite_sensitive {
            pvt_sensitive_suite()
        } else {
            linear_suite()
        };
        InSramMultiplier::new(
            suite,
            MultiplierConfig::new(Seconds(0.16e-9), Volts(0.45), Volts(1.0)),
        )
        .unwrap()
    }

    fn analysis(suite_sensitive: bool) -> PvtAnalysis {
        PvtAnalysis::run(&multiplier(suite_sensitive), &PvtAnalysisConfig::fast()).unwrap()
    }

    #[test]
    fn result_profile_covers_the_product_range() {
        let analysis = analysis(false);
        let profile = &analysis.result_profile;
        assert_eq!(profile.expected_results[0], 0);
        assert_eq!(*profile.expected_results.last().unwrap(), 15 * 15);
        assert_eq!(
            profile.expected_results.len(),
            profile.average_error_lsb.len()
        );
        assert_eq!(profile.expected_results.len(), profile.analog_sigma.len());
        // Expected results of a 4x4-bit multiplier: not every integer occurs
        // (e.g. 211 is prime and > 15), so the list is shorter than 226.
        assert!(profile.expected_results.len() < 15 * 15 + 1);
    }

    #[test]
    fn analog_sigma_grows_with_expected_result() {
        let analysis = analysis(false);
        let profile = &analysis.result_profile;
        let first_nonzero = profile.analog_sigma.iter().position(|&s| s > 0.0).unwrap();
        assert!(profile.analog_sigma.last().unwrap() > &profile.analog_sigma[first_nonzero]);
    }

    #[test]
    fn off_nominal_supply_increases_error_for_sensitive_models() {
        let analysis = analysis(true);
        let sweep = &analysis.supply_sweep;
        let nominal_index = sweep
            .condition_values
            .iter()
            .position(|&v| (v - 1.0).abs() < 1e-9)
            .unwrap();
        let nominal_error = sweep.average_error_lsb[nominal_index];
        let worst = sweep
            .average_error_lsb
            .iter()
            .cloned()
            .fold(0.0_f64, f64::max);
        assert!(worst >= nominal_error);
        assert!(
            worst > nominal_error + 0.5,
            "supply sweep should visibly degrade the error"
        );
    }

    #[test]
    fn temperature_sweep_is_present_and_mild() {
        let analysis = analysis(true);
        assert_eq!(
            analysis.temperature_sweep.condition_values.len(),
            analysis.temperature_sweep.average_error_lsb.len()
        );
        // Temperature influence exists but stays well below the supply influence.
        let temp_spread = analysis
            .temperature_sweep
            .average_error_lsb
            .iter()
            .cloned()
            .fold(0.0_f64, f64::max)
            - analysis
                .temperature_sweep
                .average_error_lsb
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
        let supply_spread = analysis
            .supply_sweep
            .average_error_lsb
            .iter()
            .cloned()
            .fold(0.0_f64, f64::max)
            - analysis
                .supply_sweep
                .average_error_lsb
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
        assert!(temp_spread <= supply_spread);
    }

    #[test]
    fn nominal_epsilon_and_worst_sigma_are_populated() {
        let analysis = analysis(false);
        assert!(analysis.nominal_epsilon_mul < 1.0);
        assert!(analysis.worst_case_sigma > 0.0);
    }

    #[test]
    fn monte_carlo_statistics_are_populated() {
        let analysis = analysis(false);
        let mc = &analysis.mismatch_monte_carlo;
        assert_eq!(
            mc.per_sample_error_lsb.len(),
            PvtAnalysisConfig::fast().mismatch_samples
        );
        assert!(mc.mean_error_lsb.is_finite());
        assert!(mc.worst_error_lsb >= mc.mean_error_lsb);
        assert!(mc.std_error_lsb >= 0.0);
    }

    #[test]
    fn analysis_follows_the_array_geometry() {
        // A composed INT8 corner runs the same analysis end-to-end: bins
        // cover the widened product range and the Monte Carlo still resolves.
        let multiplier = InSramMultiplier::new(
            linear_suite(),
            MultiplierConfig::new(Seconds(0.16e-9), Volts(0.45), Volts(1.0))
                .with_array(ArrayConfig::int8()),
        )
        .unwrap();
        let config = PvtAnalysisConfig {
            mismatch_samples: 2,
            supply_voltages: vec![1.0],
            temperatures: vec![25.0],
            ..PvtAnalysisConfig::fast()
        };
        let analysis = PvtAnalysis::run(&multiplier, &config).unwrap();
        let profile = &analysis.result_profile;
        assert_eq!(profile.expected_results[0], 0);
        assert_eq!(*profile.expected_results.last().unwrap(), 65025);
        assert!(analysis.nominal_epsilon_mul.is_finite());
        assert_eq!(analysis.mismatch_monte_carlo.per_sample_error_lsb.len(), 2);
    }

    /// The supply and temperature conditions share one sweep, but a failing
    /// supply condition is still reported by its index among the supply
    /// voltages: at V_DD = 2 V the DAC's full-scale word line leaves the
    /// discharge model's calibrated domain.
    #[test]
    fn a_failing_supply_condition_names_itself() {
        for threads in [1, 2, 5] {
            let config = PvtAnalysisConfig {
                supply_voltages: vec![1.0, 2.0, 3.0],
                mismatch_samples: 1,
                threads,
                ..PvtAnalysisConfig::fast()
            };
            let err = PvtAnalysis::run(&multiplier(false), &config).unwrap_err();
            let corner = "sweep corner 1 (supply sweep V_DD = 2 V) failed";
            assert!(
                err.to_string().starts_with(corner),
                "{threads} threads: {err}"
            );
        }
    }

    #[test]
    fn non_finite_mismatch_sigma_fails_the_analysis_instead_of_panicking() {
        // An Eq. 6 factor of +inf would reach `Gaussian::new` inside a sweep
        // worker, and a NaN one used to read as σ = 0 ("no mismatch"); the
        // kept σ table is validated when the multiplier is built instead, so
        // neither an analysis nor a design-space corner runs on it.
        for factor in [f64::INFINITY, f64::NAN] {
            let base = linear_suite();
            let suite = ModelSuite::new(
                base.discharge_model().clone(),
                base.supply_model().clone(),
                base.temperature_model().clone(),
                MismatchSigmaModel::new(Polynomial::new(vec![factor]), Polynomial::new(vec![1.0])),
                base.write_energy_model().clone(),
                base.discharge_energy_model().clone(),
            );
            let is_first_column = |err: &ImcError| {
                matches!(
                    err,
                    ImcError::NonFiniteSigma {
                        slice_operand: 0,
                        column: 0,
                        ..
                    }
                )
            };
            let err = InSramMultiplier::new(suite.clone(), ideal_config()).unwrap_err();
            assert!(is_first_column(&err), "{factor}: {err}");
            match DesignSpaceExplorer::new(suite).explore(&DesignSpace::small()) {
                Err(ImcError::CornerFailed { source, .. }) if is_first_column(&source) => {}
                other => panic!("{factor}: expected a non-finite sigma error, got {other:?}"),
            }
        }
    }

    /// Per-instance mean |error| of a plain serial walk through the live
    /// per-pair oracle: each instance draws its chip's normals from a fresh
    /// stream, then every pair in `(a, d)` order evaluates the models on
    /// that chip, the errors buffered as floats and averaged.
    fn walked_monte_carlo(multiplier: &InSramMultiplier, config: &PvtAnalysisConfig) -> Vec<f64> {
        let at = multiplier.nominal_operating_point();
        let max = multiplier.array().operand_max();
        (0..config.mismatch_samples as u64)
            .map(|instance| {
                let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(config.seed, instance));
                let normals: Vec<f64> = (0..multiplier.array().operand_bits)
                    .map(|_| standard_normal(&mut rng))
                    .collect();
                let mut errors = Vec::new();
                for a in 0..=max {
                    for d in 0..=max {
                        let outcome =
                            reference::multiply_with_mismatch(multiplier, &normals, a, d, at)
                                .unwrap();
                        errors.push(outcome.error_lsb().abs());
                    }
                }
                stats::mean(&errors)
            })
            .collect()
    }

    #[test]
    fn analysis_is_bit_identical_at_any_thread_count() {
        // The full analysis — including the Monte-Carlo sweep, whose
        // instances draw independent split-seed RNG streams — must not
        // depend on how work is distributed over threads, and one thread
        // must match the serial walk of the per-pair oracle.  The noisy
        // suite makes most normals move a code, so an instance that reads a
        // cell's normal from the wrong column or the wrong stream changes
        // its error.  The V_DAC,0 = 0 V corner has σ = 0 at a = 0.
        let noisy = |config| InSramMultiplier::new(noisy_linear_suite(), config).unwrap();
        let zero_word_line = MultiplierConfig::new(Seconds(0.16e-9), Volts(0.0), Volts(1.0));
        let mut cases = vec![("pvt sensitive", multiplier(true), PvtAnalysisConfig::fast())];
        for (name, multiplier) in [
            ("int4", noisy(ideal_config())),
            ("int8", noisy(int8_config())),
            ("int8 2-bit slices", noisy(int8_two_bit_config())),
            ("faulted", faulted_multiplier(noisy_linear_suite()).unwrap()),
            (
                "unshorted faulted",
                unshorted_faulted_multiplier(noisy_linear_suite()).unwrap(),
            ),
            ("zero word line", noisy(zero_word_line)),
        ] {
            for mismatch_samples in [1, 3] {
                let config = PvtAnalysisConfig {
                    supply_voltages: vec![1.0],
                    temperatures: vec![25.0],
                    mismatch_samples,
                    ..PvtAnalysisConfig::fast()
                };
                cases.push((name, multiplier.clone(), config));
            }
        }
        let bits = |errors: &[f64]| errors.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        for (name, multiplier, config) in &cases {
            let samples = config.mismatch_samples;
            let at = |threads| PvtAnalysisConfig {
                threads,
                ..config.clone()
            };
            let serial = PvtAnalysis::run(multiplier, &at(1)).unwrap();
            assert_eq!(
                bits(&serial.mismatch_monte_carlo.per_sample_error_lsb),
                bits(&walked_monte_carlo(multiplier, config)),
                "{name}, {samples} sample(s)"
            );
            for threads in [2, 3, 8, 64] {
                let split = PvtAnalysis::run(multiplier, &at(threads)).unwrap();
                assert_eq!(
                    serial, split,
                    "{name}, {samples} sample(s), {threads} threads"
                );
            }
        }
    }

    /// Pearson correlation of two equally long series.
    fn correlation(x: &[f64], y: &[f64]) -> f64 {
        let (mx, my) = (stats::mean(x), stats::mean(y));
        let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
        for (&a, &b) in x.iter().zip(y) {
            sxy += (a - mx) * (b - my);
            sxx += (a - mx) * (a - mx);
            syy += (b - my) * (b - my);
        }
        sxy / (sxx * syy).sqrt()
    }

    /// The physical premise of a frozen instance, on the golden circuit: a
    /// mismatched cell's deviation from the nominal ΔV moves with itself
    /// across the discharge times and word-line voltages one chip sees.
    /// 400 cells at nominal PVT, each correlated with itself across
    /// t = 0.16 ns and 1.28 ns at V_WL = 0.7 V (measured 1.000), and across
    /// V_WL = 0.5 V and 0.7 V at t = 1.28 ns (measured 0.953).
    #[test]
    fn golden_cell_mismatch_is_frozen_across_operating_points() {
        use optima_circuit::prelude::{
            DischargeStimulus, MismatchModel, MismatchSample, PvtConditions, Technology,
            TransientSimulator,
        };
        use optima_circuit::transient::{LaneBuffer, TransientQuery};
        let technology = Technology::tsmc65_like();
        let simulator = TransientSimulator::new(technology.clone());
        let pvt = PvtConditions::nominal(&technology);
        let mut cells = vec![MismatchSample::none()];
        cells.extend(MismatchModel::from_technology(&technology).sample_n(400, 0x6011));
        let times = [Seconds(0.0), Seconds(0.16e-9), Seconds(1.28e-9)];
        // Per query time after 0, each mismatched cell's ΔV minus the
        // nominal cell's.
        let deviations = |word_line: f64| -> Vec<Vec<f64>> {
            let stimulus = DischargeStimulus {
                word_line_voltage: Volts(word_line),
                duration: Seconds(1.28e-9),
                ..DischargeStimulus::default()
            };
            let queries: Vec<TransientQuery> = cells
                .iter()
                .map(|&mismatch| TransientQuery {
                    stimulus,
                    pvt,
                    mismatch,
                })
                .collect();
            let mut voltages = vec![0.0; cells.len() * times.len()];
            let mut deltas = vec![0.0; cells.len()];
            simulator
                .fill_transients(
                    &queries,
                    &times,
                    &mut LaneBuffer::default(),
                    &mut voltages,
                    &mut deltas,
                )
                .unwrap();
            let delta =
                |k: usize, j: usize| voltages[k * times.len()] - voltages[k * times.len() + j];
            let deviation = |j| (1..cells.len()).map(move |k| delta(k, j) - delta(0, j));
            (1..times.len()).map(|j| deviation(j).collect()).collect()
        };
        let (low, high) = (deviations(0.5), deviations(0.7));
        let across_time = correlation(&high[0], &high[1]);
        let across_word_line = correlation(&low[1], &high[1]);
        assert!(across_time > 0.999, "across t: {across_time}");
        assert!(across_word_line > 0.9, "across V_WL: {across_word_line}");
    }
}
