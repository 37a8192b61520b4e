//! Error type for the circuit-level simulator.

use optima_math::MathError;
use std::fmt;

/// Error returned by circuit-level simulation routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CircuitError {
    /// A voltage, time or other physical quantity was outside its valid range.
    InvalidOperatingPoint {
        /// Human-readable description of the violated constraint.
        context: String,
    },
    /// A two-dimensional array access (e.g. into a defect map) was outside
    /// the array geometry.  Carries the full coordinate so a failure deep in
    /// a sweep names the exact cell instead of a flat index.
    CellOutOfRange {
        /// Requested row.
        row: u16,
        /// Requested (physical) column.
        column: u16,
        /// Number of valid rows.
        rows: u16,
        /// Number of valid (physical) columns.
        columns: u16,
    },
    /// The underlying numeric routine failed.
    Numeric(MathError),
    /// A converter (DAC/ADC) was configured inconsistently.
    InvalidConverterConfig {
        /// Human-readable description of the inconsistency.
        context: String,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::InvalidOperatingPoint { context } => {
                write!(f, "invalid operating point: {context}")
            }
            CircuitError::CellOutOfRange {
                row,
                column,
                rows,
                columns,
            } => {
                write!(
                    f,
                    "array cell (row {row}, column {column}) out of range for a \
                     {rows}x{columns} array"
                )
            }
            CircuitError::Numeric(err) => write!(f, "numeric error: {err}"),
            CircuitError::InvalidConverterConfig { context } => {
                write!(f, "invalid converter configuration: {context}")
            }
        }
    }
}

impl std::error::Error for CircuitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CircuitError::Numeric(err) => Some(err),
            _ => None,
        }
    }
}

impl From<MathError> for CircuitError {
    fn from(err: MathError) -> Self {
        CircuitError::Numeric(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let err = CircuitError::CellOutOfRange {
            row: 16,
            column: 5,
            rows: 16,
            columns: 6,
        };
        assert_eq!(
            err.to_string(),
            "array cell (row 16, column 5) out of range for a 16x6 array"
        );
        let err = CircuitError::from(MathError::SingularMatrix);
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CircuitError>();
    }

    #[test]
    fn source_points_to_math_error() {
        use std::error::Error;
        let err = CircuitError::from(MathError::SingularMatrix);
        assert!(err.source().is_some());
        let err = CircuitError::InvalidOperatingPoint {
            context: "x".into(),
        };
        assert!(err.source().is_none());
    }
}
