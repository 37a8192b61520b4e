//! Correctness checks on workload outputs.
//!
//! Each check is a pure function of the outputs it inspects and returns a
//! [`BenchError`] naming the mismatch; the runner counts every error as a
//! failed operation.  None of them relies on a reference oracle inside the
//! library crates.

use crate::BenchError;
use optima_imc::dse::DesignPointResult;
use optima_imc::fom::SelectedCorners;
use std::collections::BTreeMap;

fn fail(message: String) -> Result<(), BenchError> {
    Err(BenchError(message))
}

/// Two `f32` outputs are bit-identical.
///
/// # Errors
///
/// Names the first differing element.
pub fn bit_identical(what: &str, got: &[f32], expected: &[f32]) -> Result<(), BenchError> {
    if got.len() != expected.len() {
        return fail(format!(
            "{what}: {} values, expected {}",
            got.len(),
            expected.len()
        ));
    }
    match got
        .iter()
        .zip(expected)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        Some(i) => fail(format!(
            "{what}: element {i} is {} not {}",
            got[i], expected[i]
        )),
        None => Ok(()),
    }
}

/// Every value is finite.
///
/// # Errors
///
/// Names the first non-finite value.
pub fn all_finite(what: &str, values: &[f64]) -> Result<(), BenchError> {
    match values.iter().position(|v| !v.is_finite()) {
        Some(i) => fail(format!("{what}: value {i} is {}", values[i])),
        None => Ok(()),
    }
}

/// `got` lies within `tolerance` of `expected`.
///
/// # Errors
///
/// Fails outside the tolerance or for a non-finite value.
pub fn within(what: &str, got: f64, expected: f64, tolerance: f64) -> Result<(), BenchError> {
    if (got - expected).abs() <= tolerance {
        Ok(())
    } else {
        fail(format!(
            "{what}: {got} differs from {expected} by more than {tolerance}"
        ))
    }
}

/// A count matches its expected value exactly.
///
/// # Errors
///
/// Fails on any difference.
pub fn count(what: &str, got: usize, expected: usize) -> Result<(), BenchError> {
    if got == expected {
        Ok(())
    } else {
        fail(format!("{what}: {got}, expected {expected}"))
    }
}

/// The selected corners are the optima of the explored results: the fom
/// corner has the highest figure of merit, the power corner the lowest
/// energy and the variation corner the smallest σ at maximum discharge.
///
/// # Errors
///
/// Names the first corner that some explored result beats.
pub fn selection_consistent(
    results: &[DesignPointResult],
    selected: &SelectedCorners,
) -> Result<(), BenchError> {
    for result in results {
        let metrics = &result.metrics;
        if metrics.figure_of_merit() > selected.fom.metrics.figure_of_merit() {
            return fail(format!("fom corner beaten by {:?}", result.point));
        }
        if metrics.energy_per_multiply.0 < selected.power.metrics.energy_per_multiply.0 {
            return fail(format!("power corner beaten by {:?}", result.point));
        }
        if metrics.sigma_at_max_discharge.0 < selected.variation.metrics.sigma_at_max_discharge.0 {
            return fail(format!("variation corner beaten by {:?}", result.point));
        }
    }
    Ok(())
}

/// Fingerprints of unit outputs, keyed by the unit's configuration.
///
/// The first execution of a configuration sets its fingerprint; every later
/// execution (a repeated cycle, the traced twin of an untraced unit, or the
/// single-thread re-run) must reproduce it bit for bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    fingerprints: BTreeMap<u64, u64>,
}

impl Ledger {
    /// Records the fingerprint of configuration `key`.
    ///
    /// # Errors
    ///
    /// Fails when `key` was recorded before with another fingerprint.
    pub fn record(&mut self, key: u64, fingerprint: u64) -> Result<(), BenchError> {
        match *self.fingerprints.entry(key).or_insert(fingerprint) {
            first if first == fingerprint => Ok(()),
            first => fail(format!(
                "unit configuration {key}: fingerprint {fingerprint:016x} differs from {first:016x}"
            )),
        }
    }

    /// Digest of the fingerprints of configurations `0..cycle`, in order.
    pub fn digest(&self, cycle: u64) -> u64 {
        let mut digest = crate::digest::Digest::new();
        for key in 0..cycle {
            digest.u64(self.fingerprints.get(&key).copied().unwrap_or(0));
        }
        digest.finish()
    }
}
