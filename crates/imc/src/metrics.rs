//! Exhaustive input-space evaluation of a multiplier design point.
//!
//! The design-space exploration of Fig. 7 characterises every corner by the
//! average multiplication error after quantisation (`ϵ_mul`, in product LSBs)
//! and the average energy per operation (`E_mul`); the corner selection of
//! Table I additionally needs the analog standard deviation at the maximum
//! discharge.
//!
//! Both are read off the multiplier's kept nominal grid and σ table, which
//! construction built and validated, so the evaluation cannot fail.

use crate::multiplier::{InSramMultiplier, MultiplyOutcome};
use optima_math::stats;
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
    /// Analog mismatch standard deviation at the maximum discharge (a = d = 15).
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

/// Aggregates per-pair outcomes and analog σ, both in operand-major order.
pub(crate) fn metrics_from(outcomes: &[MultiplyOutcome], sigmas: &[Volts]) -> MultiplierMetrics {
    let mut abs_errors = Vec::with_capacity(outcomes.len());
    let mut signed_errors = Vec::with_capacity(outcomes.len());
    let mut multiply_energies = Vec::with_capacity(outcomes.len());
    let mut total_energies = Vec::with_capacity(outcomes.len());
    let mut worst_sigma: f64 = 0.0;

    for (outcome, sigma) in outcomes.iter().zip(sigmas) {
        signed_errors.push(outcome.error_lsb());
        abs_errors.push(outcome.error_lsb().abs());
        multiply_energies.push(outcome.multiply_energy.0);
        total_energies.push(outcome.total_energy().0);
        worst_sigma = worst_sigma.max(sigma.0);
    }

    MultiplierMetrics {
        epsilon_mul: stats::mean(&abs_errors),
        rms_error_lsb: stats::rms(&signed_errors),
        max_error_lsb: abs_errors.iter().cloned().fold(0.0, f64::max),
        energy_per_multiply: FemtoJoules(stats::mean(&multiply_energies)),
        energy_per_operation: FemtoJoules(stats::mean(&total_energies)),
        // The last grid entry is (a, d) = (max, max): the maximum discharge.
        // optima-lint: allow(R3) -- the operand grid always has at least (0, 0)
        sigma_at_max_discharge: *sigmas.last().expect("input space is never empty"),
        worst_case_sigma: Volts(worst_sigma),
    }
}

/// Evaluates a multiplier over the full input space at its nominal
/// operating point: the outcomes of [`InSramMultiplier::outcome_grid`] and
/// the σ of [`InSramMultiplier::analog_sigma_grid`], both off the kept grid.
pub fn evaluate_multiplier(multiplier: &InSramMultiplier) -> MultiplierMetrics {
    metrics_from(
        &multiplier.nominal_outcomes(),
        &multiplier.analog_sigma_grid(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::{MultiplierConfig, OPERAND_BITS};
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

    #[test]
    fn operand_bits_constant_is_four() {
        assert_eq!(OPERAND_BITS, 4);
    }
}
