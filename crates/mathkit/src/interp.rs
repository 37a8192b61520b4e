//! Interpolation over sampled waveforms.
//!
//! The circuit simulator produces discretely sampled bit-line waveforms; the
//! calibration pipeline and the ADC sampling code look up voltages at
//! arbitrary times, which requires linear interpolation.

use crate::error::MathError;

/// Linearly interpolates `ys` sampled at ascending abscissae `xs` at position `x`.
///
/// Values outside the sampled range are clamped to the boundary samples,
/// which matches how a sampled waveform is extended in practice (the bit-line
/// holds its final value).
///
/// # Errors
///
/// * [`MathError::DimensionMismatch`] if `xs.len() != ys.len()`.
/// * [`MathError::InvalidArgument`] if fewer than two samples are given,
///   `xs` is not strictly ascending (which also rejects NaN abscissae), or
///   `x` is NaN.
pub fn linear(xs: &[f64], ys: &[f64], x: f64) -> Result<f64, MathError> {
    check_shape(xs, ys)?;
    if !strictly_ascending(xs) {
        return Err(MathError::InvalidArgument {
            context: "abscissae must be strictly ascending".to_string(),
        });
    }
    linear_sorted(xs, ys, x)
}

/// [`linear`] for an axis the caller has already checked: it skips the O(n)
/// strictly-ascending scan and does only O(1) checks and the binary search.
///
/// If `xs` is not strictly ascending, the result is unspecified.
///
/// # Errors
///
/// * [`MathError::DimensionMismatch`] if `xs.len() != ys.len()`.
/// * [`MathError::InvalidArgument`] if fewer than two samples are given or
///   `x` is NaN.
pub fn linear_sorted(xs: &[f64], ys: &[f64], x: f64) -> Result<f64, MathError> {
    check_shape(xs, ys)?;
    Ok(bracket_sorted(xs, x)?.interpolate(|i| ys[i]))
}

/// Where a query position falls on a sorted axis: the sample
/// [`linear_sorted`] returns, or the interval it interpolates in.
///
/// One bracket serves every series sampled on the same axis, so a caller
/// that samples many series at the same positions searches the axis once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bracket {
    /// The sample at this index: a clamped end or an exact hit.
    At(usize),
    /// Strictly inside the interval from sample `i − 1` to sample `i`, the
    /// fraction `frac` of the way along it.
    Between(usize, f64),
}

impl Bracket {
    /// The bracket with its sample indices mapped through `index`; an
    /// interval's two samples must stay adjacent.
    pub fn reindex(self, index: impl Fn(usize) -> usize) -> Bracket {
        match self {
            Bracket::At(i) => Bracket::At(index(i)),
            Bracket::Between(i, frac) => Bracket::Between(index(i), frac),
        }
    }

    /// The interpolated value of the series whose sample `i` is `y(i)`,
    /// bit-identical to [`linear_sorted`] over the same samples.
    pub fn interpolate(self, y: impl Fn(usize) -> f64) -> f64 {
        match self {
            Bracket::At(i) => y(i),
            Bracket::Between(i, frac) => {
                let (y0, y1) = (y(i - 1), y(i));
                y0 + frac * (y1 - y0)
            }
        }
    }
}

/// The [`Bracket`] of `x` on an axis the caller has already checked (see
/// [`linear_sorted`]).
///
/// # Errors
///
/// [`MathError::InvalidArgument`] if fewer than two samples are given or
/// `x` is NaN.
pub fn bracket_sorted(xs: &[f64], x: f64) -> Result<Bracket, MathError> {
    if xs.len() < 2 {
        return Err(too_few_samples());
    }
    if x.is_nan() {
        return Err(MathError::InvalidArgument {
            context: "interpolation query position is NaN".to_string(),
        });
    }
    let last = xs.len() - 1;
    if x <= xs[0] {
        return Ok(Bracket::At(0));
    }
    if x >= xs[last] {
        return Ok(Bracket::At(last));
    }
    // Binary search for the bracketing interval (total order: never panics).
    Ok(match xs.binary_search_by(|probe| probe.total_cmp(&x)) {
        Ok(i) => Bracket::At(i),
        Err(i) => Bracket::Between(i, (x - xs[i - 1]) / (xs[i] - xs[i - 1])),
    })
}

/// Whether every abscissa is strictly below the next; an axis containing NaN
/// is not ascending.
pub fn strictly_ascending(xs: &[f64]) -> bool {
    // Anything but `Some(Less)` — including the NaN case `None` — fails, so
    // an axis containing NaN is rejected here rather than slipping past.
    xs.windows(2)
        // optima-lint: allow(R1) -- NaN rejection is the point: None != Some(Less) fails the axis
        .all(|w| w[0].partial_cmp(&w[1]) == Some(std::cmp::Ordering::Less))
}

fn check_shape(xs: &[f64], ys: &[f64]) -> Result<(), MathError> {
    if xs.len() != ys.len() {
        return Err(MathError::DimensionMismatch {
            left: xs.len(),
            right: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(too_few_samples());
    }
    Ok(())
}

fn too_few_samples() -> MathError {
    MathError::InvalidArgument {
        context: "linear interpolation needs at least two samples".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_interpolation_midpoint() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 10.0, 40.0];
        assert_eq!(linear(&xs, &ys, 0.5).unwrap(), 5.0);
        assert_eq!(linear(&xs, &ys, 1.5).unwrap(), 25.0);
        assert_eq!(linear(&xs, &ys, 1.0).unwrap(), 10.0);
    }

    #[test]
    fn linear_interpolation_clamps_out_of_range() {
        let xs = [0.0, 1.0];
        let ys = [2.0, 3.0];
        assert_eq!(linear(&xs, &ys, -5.0).unwrap(), 2.0);
        assert_eq!(linear(&xs, &ys, 5.0).unwrap(), 3.0);
    }

    #[test]
    fn linear_interpolation_validates_input() {
        assert!(linear(&[0.0], &[1.0], 0.0).is_err());
        assert!(linear(&[0.0, 1.0], &[1.0], 0.5).is_err());
        assert!(linear(&[1.0, 0.0], &[1.0, 2.0], 0.5).is_err());
    }

    #[test]
    fn linear_interpolation_rejects_nan_instead_of_panicking() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 10.0, 40.0];
        // NaN query: typed error, no panic from the interval search.
        assert!(matches!(
            linear(&xs, &ys, f64::NAN),
            Err(MathError::InvalidArgument { .. })
        ));
        // NaN abscissa: rejected by the ascending check.
        assert!(matches!(
            linear(&[0.0, f64::NAN, 2.0], &ys, 0.5),
            Err(MathError::InvalidArgument { .. })
        ));
        // Infinite queries still clamp like any other out-of-range position.
        assert_eq!(linear(&xs, &ys, f64::INFINITY).unwrap(), 40.0);
        assert_eq!(linear(&xs, &ys, f64::NEG_INFINITY).unwrap(), 0.0);
    }
}
