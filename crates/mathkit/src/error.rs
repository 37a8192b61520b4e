//! Error type shared by all numeric routines in this crate.

use std::fmt;

/// Error returned by the numeric routines of `optima-math`.
///
/// # Example
///
/// ```rust
/// use optima_math::lsq::polynomial_fit;
/// use optima_math::MathError;
///
/// // Fitting a degree-3 polynomial to two samples is under-determined.
/// let err = polynomial_fit(&[0.0, 1.0], &[0.0, 1.0], 3).unwrap_err();
/// assert!(matches!(err, MathError::InsufficientData { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MathError {
    /// Two inputs that must share a length (e.g. `xs` and `ys` of a fit) do not.
    DimensionMismatch {
        /// Length of the first operand.
        left: usize,
        /// Length of the second operand.
        right: usize,
    },
    /// The linear system is singular (or numerically so) and cannot be solved.
    SingularMatrix,
    /// A fit was requested with fewer samples than free coefficients.
    InsufficientData {
        /// Number of samples provided.
        samples: usize,
        /// Number of coefficients that would have to be determined.
        coefficients: usize,
    },
    /// An argument was outside its valid domain (negative degree, empty slice, NaN, …).
    InvalidArgument {
        /// Human-readable description of the violated requirement.
        context: String,
    },
}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathError::DimensionMismatch { left, right } => {
                write!(f, "dimension mismatch: {left} vs {right}")
            }
            MathError::SingularMatrix => write!(f, "matrix is singular to working precision"),
            MathError::InsufficientData {
                samples,
                coefficients,
            } => write!(
                f,
                "insufficient data: {samples} samples for {coefficients} coefficients"
            ),
            MathError::InvalidArgument { context } => write!(f, "invalid argument: {context}"),
        }
    }
}

impl std::error::Error for MathError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = MathError::DimensionMismatch { left: 3, right: 4 };
        let text = err.to_string();
        assert!(text.contains('3') && text.contains('4'));
        assert!(text.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MathError>();
    }

    #[test]
    fn singular_matrix_display() {
        assert_eq!(
            MathError::SingularMatrix.to_string(),
            "matrix is singular to working precision"
        );
    }
}
