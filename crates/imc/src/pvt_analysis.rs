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
//! [`optima_core::sweep`]: a failing condition aborts the analysis with
//! [`ImcError::CornerFailed`] naming it, and every reported number —
//! including the Monte-Carlo statistics, which draw one split-seed RNG
//! stream per sample — is bit-identical for any thread count.  Inside each
//! swept condition the full operand grid is evaluated through the batched
//! analog path ([`InSramMultiplier::outcome_grid`]), which is bit-identical
//! to a per-pair loop over the live models.
//!
//! The mismatch Monte Carlo runs off a table built once per analysis: the
//! nominal analog grid (ΔV and discharge energy per slice operand and
//! column) plus the Eq. 6 σ per slice operand and column, evaluated at the
//! grid's own supply-adjusted, aged word lines.  A σ that is not finite
//! fails the analysis with [`ImcError::NonFiniteSigma`] before any sample
//! runs.  A sample then only draws its Gaussians and composes the readout,
//! bit-identical to drawing each column's deviation while evaluating the
//! fitted models live for every pair (the per-pair reference in the
//! multiplier's unit tests).  Each sample's RNG stream is consumed in this order:
//! operand `a` outer, operand `d` inner, then analog pass, then bit
//! (ascending); one `Gaussian::new(0, σ)` draw is taken per column that
//! discharges (stored 1 or stuck-at-1) and is not shorted, and columns with
//! σ = 0 draw nothing.

use crate::error::ImcError;
use crate::multiplier::{InSramMultiplier, OperatingPoint};
use optima_circuit::pvt::linspace;
use optima_core::sweep::{par_map_sweep, par_map_sweep_with, stream_seed};
use optima_math::stats;
use optima_math::units::{Celsius, Volts};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the PVT analysis sweeps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PvtAnalysisConfig {
    /// Supply voltages of the voltage sweep (volts).
    pub supply_voltages: Vec<f64>,
    /// Temperatures of the temperature sweep (°C).
    pub temperatures: Vec<f64>,
    /// Number of mismatch Monte Carlo instances (each covers the full
    /// input space of the analysed geometry).
    pub mismatch_samples: usize,
    /// Base RNG seed of the Monte Carlo sampling; every sample derives its
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
    /// Returns [`ImcError::CornerFailed`] naming the first failing sweep
    /// condition; no partial analysis is ever returned.  A non-finite
    /// mismatch σ fails before the Monte Carlo starts, as a `CornerFailed`
    /// wrapping [`ImcError::NonFiniteSigma`].
    pub fn run(
        multiplier: &InSramMultiplier,
        config: &PvtAnalysisConfig,
    ) -> Result<Self, ImcError> {
        let nominal = multiplier.nominal_operating_point();
        let operand_max = multiplier.array().operand_max();
        let product_max = multiplier.array().product_max();
        let input_space = multiplier.array().input_space();

        // ---- Fig. 8 left: error and sigma binned by expected result ----
        // The whole input space is evaluated in one batched analog-grid
        // pass ([`InSramMultiplier::outcome_grid`]); outcomes come back in
        // operand-major order, so binning sees samples in the same (a, d)
        // order as the historical serial double loop — and the grid itself is
        // bit-identical to that loop.
        let outcomes =
            multiplier
                .outcome_grid(nominal)
                .map_err(|source| ImcError::CornerFailed {
                    index: 0,
                    corner: "nominal input-space grid".to_string(),
                    source: Box::new(source),
                })?;
        let sigmas = multiplier
            .analog_sigma_grid()
            .map_err(|source| ImcError::CornerFailed {
                index: 0,
                corner: "nominal input-space sigma grid".to_string(),
                source: Box::new(source),
            })?;

        let mut per_expected_error: Vec<Vec<f64>> = vec![Vec::new(); product_max as usize + 1];
        let mut per_expected_sigma: Vec<Vec<f64>> = vec![Vec::new(); product_max as usize + 1];
        let mut abs_errors = Vec::with_capacity(input_space);
        let mut worst_sigma: f64 = 0.0;
        for (outcome, sigma) in outcomes.iter().zip(&sigmas) {
            let error_lsb = outcome.error_lsb();
            per_expected_error[outcome.expected as usize].push(error_lsb);
            per_expected_sigma[outcome.expected as usize].push(sigma.0);
            abs_errors.push(error_lsb.abs());
            worst_sigma = worst_sigma.max(sigma.0);
        }

        let mut result_profile = ResultProfile::default();
        for expected in 0..=product_max as usize {
            if per_expected_error[expected].is_empty() {
                continue;
            }
            result_profile.expected_results.push(expected as u16);
            result_profile
                .average_error_lsb
                .push(stats::mean(&per_expected_error[expected]));
            result_profile
                .analog_sigma
                .push(stats::mean(&per_expected_sigma[expected]));
        }

        // ---- Fig. 8 right: error vs supply voltage and temperature ----
        let supply_errors = par_map_sweep(&config.supply_voltages, config.threads, |_, &vdd| {
            average_error_at(
                multiplier,
                OperatingPoint {
                    vdd: Volts(vdd),
                    temperature: nominal.temperature,
                },
            )
        })
        .map_err(|err| {
            let vdd = config.supply_voltages[err.index];
            ImcError::from_sweep(err, format!("supply sweep V_DD = {vdd} V"))
        })?;
        let supply_sweep = ConditionSweep {
            condition_values: config.supply_voltages.clone(),
            average_error_lsb: supply_errors,
        };

        let temperature_errors = par_map_sweep(&config.temperatures, config.threads, |_, &temp| {
            average_error_at(
                multiplier,
                OperatingPoint {
                    vdd: nominal.vdd,
                    temperature: Celsius(temp),
                },
            )
        })
        .map_err(|err| {
            let temp = config.temperatures[err.index];
            ImcError::from_sweep(err, format!("temperature sweep T = {temp} degC"))
        })?;
        let temperature_sweep = ConditionSweep {
            condition_values: config.temperatures.clone(),
            average_error_lsb: temperature_errors,
        };

        // ---- Mismatch Monte Carlo: one split-seed RNG stream per sample ----
        let grid = multiplier
            .mismatch_grid(nominal)
            .map_err(|source| ImcError::CornerFailed {
                index: 0,
                corner: "nominal mismatch sigma table".to_string(),
                source: Box::new(source),
            })?;
        let sample_indices: Vec<u64> = (0..config.mismatch_samples as u64).collect();
        let per_sample_error_lsb = par_map_sweep_with(
            &sample_indices,
            config.threads,
            || Vec::with_capacity(input_space),
            |errors: &mut Vec<f64>, _, &sample| {
                let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(config.seed, sample));
                errors.clear();
                // optima-lint: hot
                for a in 0..=operand_max {
                    for d in 0..=operand_max {
                        let outcome =
                            multiplier.multiply_on_mismatch_grid(&grid, &mut rng, a, d)?;
                        errors.push(outcome.error_lsb().abs());
                    }
                }
                // optima-lint: end-hot
                Ok::<_, ImcError>(stats::mean(errors))
            },
        )
        .map_err(|err| {
            let sample = sample_indices[err.index];
            ImcError::from_sweep(err, format!("mismatch Monte-Carlo sample {sample}"))
        })?;
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
            nominal_epsilon_mul: stats::mean(&abs_errors),
        })
    }
}

/// Average absolute error over the full input space at one operating point,
/// evaluated through the batched analog grid (bit-identical to the scalar
/// per-pair loop it replaced).
fn average_error_at(multiplier: &InSramMultiplier, at: OperatingPoint) -> Result<f64, ImcError> {
    let errors: Vec<f64> = multiplier
        .outcome_grid(at)?
        .iter()
        .map(|outcome| outcome.error_lsb().abs())
        .collect();
    Ok(stats::mean(&errors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::MultiplierConfig;
    use crate::testsupport::{linear_suite, pvt_sensitive_suite};
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

    #[test]
    fn non_finite_mismatch_sigma_fails_the_analysis_instead_of_panicking() {
        // An Eq. 6 factor of +inf would reach `Gaussian::new` inside a sweep
        // worker; the σ table is validated up front instead.
        let base = linear_suite();
        let suite = ModelSuite::new(
            base.discharge_model().clone(),
            base.supply_model().clone(),
            base.temperature_model().clone(),
            MismatchSigmaModel::new(
                Polynomial::new(vec![f64::INFINITY]),
                Polynomial::new(vec![1.0]),
            ),
            base.write_energy_model().clone(),
            base.discharge_energy_model().clone(),
        );
        let multiplier = InSramMultiplier::new(
            suite,
            MultiplierConfig::new(Seconds(0.16e-9), Volts(0.45), Volts(1.0)),
        )
        .unwrap();
        let config = PvtAnalysisConfig {
            threads: 2,
            ..PvtAnalysisConfig::fast()
        };
        match PvtAnalysis::run(&multiplier, &config) {
            Err(ImcError::CornerFailed { source, .. }) => assert!(
                matches!(
                    *source,
                    ImcError::NonFiniteSigma {
                        slice_operand: 0,
                        column: 0,
                        ..
                    }
                ),
                "{source}"
            ),
            other => panic!("expected a non-finite sigma error, got {other:?}"),
        }
    }

    #[test]
    fn analysis_is_bit_identical_at_any_thread_count() {
        // The full analysis — including the Monte-Carlo sweep, whose samples
        // draw independent split-seed RNG streams — must not depend on how
        // work is distributed over threads.
        let multiplier = multiplier(true);
        let serial = PvtAnalysis::run(
            &multiplier,
            &PvtAnalysisConfig {
                threads: 1,
                ..PvtAnalysisConfig::fast()
            },
        )
        .unwrap();
        for threads in [2, 8] {
            let parallel = PvtAnalysis::run(
                &multiplier,
                &PvtAnalysisConfig {
                    threads,
                    ..PvtAnalysisConfig::fast()
                },
            )
            .unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }
}
