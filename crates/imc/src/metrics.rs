//! Exhaustive input-space evaluation of a multiplier design point.
//!
//! The design-space exploration of Fig. 7 characterises every corner by the
//! average multiplication error after quantisation (`ϵ_mul`, in product LSBs)
//! and the average energy per operation (`E_mul`); the corner selection of
//! Table I additionally needs the analog standard deviation at the maximum
//! discharge.
//!
//! Both are read off the multiplier's kept nominal grid and σ table, which
//! construction built and validated, so the evaluation cannot fail.  The
//! results come from the grid's code table, so the error statistics are
//! exact integer sums; only the energies are float sums, one per-pair chain
//! at a time, in operand-major order.

use crate::multiplier::InSramMultiplier;
use optima_math::units::{FemtoJoules, Volts};
use serde::{Deserialize, Serialize};

/// Aggregate metrics of one multiplier design point over its full input
/// space (16×16 for the paper's default geometry).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiplierMetrics {
    /// Average absolute error after quantisation, in product LSBs (`ϵ_mul`).
    pub epsilon_mul: f64,
    /// Root-mean-square error in product LSBs.
    pub rms_error_lsb: f64,
    /// Worst-case absolute error in product LSBs.
    pub max_error_lsb: f64,
    /// Average multiplication energy per operation (`E_mul`), excluding writes.
    pub energy_per_multiply: FemtoJoules,
    /// Average total (write + multiply) energy per operation.
    pub energy_per_operation: FemtoJoules,
    /// Analog mismatch standard deviation at the maximum discharge, the
    /// pair `(operand_max, operand_max)`: (15, 15) for INT4, (255, 255) for
    /// INT8.
    pub sigma_at_max_discharge: Volts,
    /// Worst-case analog mismatch standard deviation over the input space.
    pub worst_case_sigma: Volts,
}

impl MultiplierMetrics {
    /// Figure of merit of the paper's Eq. 9: `FOM = 1 / (ϵ_mul · E_mul)`.
    pub fn figure_of_merit(&self) -> f64 {
        let denominator = self.epsilon_mul.max(1e-9) * self.energy_per_multiply.0.max(1e-9);
        1.0 / denominator
    }
}

/// Evaluates a multiplier over the full input space at its nominal
/// operating point, off the kept grid: the last and the largest σ of
/// [`InSramMultiplier::analog_sigma_grid`], folded without collecting it,
/// and every pair's result and energy read off the grid's code table.
///
/// Every |error| is at most 65,535 and there are at most 65,536 pairs, so
/// the integer sums of |error| and error² are exact in an `f64`: ε_mul and
/// the RMS error have the bits of summing the errors one by one as floats.
/// The energies are summed from zero in operand-major order.
pub fn evaluate_multiplier(multiplier: &InSramMultiplier) -> MultiplierMetrics {
    let (sigma_at_max_discharge, worst_case_sigma) = multiplier.sigma_extremes();
    let mut codes = Vec::new();
    multiplier.nominal_code_table(None, &mut codes);
    let (mut abs_sum, mut square_sum, mut max_error) = (0u64, 0u64, 0u64);
    let at = multiplier.nominal_operating_point();
    // optima-lint: hot
    let (energy_per_multiply, energy_per_operation) =
        multiplier.pair_readout(&multiplier.grid, at, &codes, |a, d, result| {
            let error = u64::from(result.abs_diff(a * d));
            abs_sum += error;
            square_sum += error * error;
            max_error = max_error.max(error);
        });
    // optima-lint: end-hot
    let count = multiplier.array().input_space() as f64;
    MultiplierMetrics {
        epsilon_mul: abs_sum as f64 / count,
        rms_error_lsb: (square_sum as f64 / count).sqrt(),
        max_error_lsb: max_error as f64,
        energy_per_multiply,
        energy_per_operation,
        sigma_at_max_discharge,
        worst_case_sigma,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::MultiplierConfig;
    use optima_math::units::{Seconds, Volts};

    fn near_ideal() -> InSramMultiplier {
        InSramMultiplier::new(
            crate::testsupport::linear_suite(),
            MultiplierConfig::new(Seconds(0.16e-9), Volts(0.45), Volts(1.0)),
        )
        .unwrap()
    }

    fn nonlinear() -> InSramMultiplier {
        // Zero code well below the threshold voltage: small DAC codes produce
        // almost no discharge, which is the paper's "variation corner" failure
        // mode for small operands.
        InSramMultiplier::new(
            crate::testsupport::linear_suite(),
            MultiplierConfig::new(Seconds(0.16e-9), Volts(0.1), Volts(1.0)),
        )
        .unwrap()
    }

    #[test]
    fn near_ideal_configuration_has_sub_lsb_error() {
        let metrics = evaluate_multiplier(&near_ideal());
        assert!(
            metrics.epsilon_mul < 1.0,
            "epsilon = {}",
            metrics.epsilon_mul
        );
        assert!(metrics.rms_error_lsb < 1.5);
        assert!(metrics.max_error_lsb <= 3.0);
        assert!(metrics.energy_per_multiply.0 > 0.0);
        assert!(metrics.energy_per_operation.0 > metrics.energy_per_multiply.0);
    }

    #[test]
    fn misaligned_dac_zero_increases_error() {
        let good = evaluate_multiplier(&near_ideal());
        let bad = evaluate_multiplier(&nonlinear());
        assert!(
            bad.epsilon_mul > good.epsilon_mul,
            "bad {} <= good {}",
            bad.epsilon_mul,
            good.epsilon_mul
        );
    }

    #[test]
    fn sigma_metrics_are_consistent() {
        let metrics = evaluate_multiplier(&near_ideal());
        assert!(metrics.worst_case_sigma.0 >= metrics.sigma_at_max_discharge.0 - 1e-12);
        assert!(metrics.sigma_at_max_discharge.0 > 0.0);
    }

    #[test]
    fn figure_of_merit_prefers_accurate_and_efficient_corners() {
        let good = evaluate_multiplier(&near_ideal());
        let bad = evaluate_multiplier(&nonlinear());
        assert!(good.figure_of_merit() > bad.figure_of_merit());
    }
}
