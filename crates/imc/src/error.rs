//! Error type of the in-SRAM multiplier case study.

use optima_circuit::CircuitError;
use optima_core::ModelError;
use std::fmt;

/// Error returned by the multiplier, design-space exploration and PVT analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ImcError {
    /// A multiplier operand exceeded the 4-bit range.
    OperandOutOfRange {
        /// The offending operand value.
        value: u16,
        /// The largest representable operand.
        max: u16,
    },
    /// The multiplier configuration is inconsistent (e.g. `V_DAC,0 ≥ V_DAC,FS`).
    InvalidConfiguration {
        /// Human-readable description of the inconsistency.
        context: String,
    },
    /// The design space contains no corners.
    EmptyDesignSpace,
    /// One corner of an error-strict parallel sweep failed (design-space
    /// exploration, PVT sweep or Monte-Carlo sweep).  No partial result is
    /// returned and the lowest failing corner is named.
    CornerFailed {
        /// Zero-based index of the failing corner in the swept grid.
        index: usize,
        /// Human-readable description of the failing corner.
        corner: String,
        /// The underlying error.
        source: Box<ImcError>,
    },
    /// A defective array column could not be remapped because every spare
    /// column is already used or itself defective.  Names the exact failing
    /// coordinate — row, logical column and the analog slice pass that
    /// consumes it — so a defect-triggered [`ImcError::CornerFailed`] deep
    /// in a sweep is actionable.
    UnrepairableDefect {
        /// Array row of the stored operand.
        row: u16,
        /// Logical (data) column that is defective.
        column: u16,
        /// Analog slice pass (d-slice index) that reads the column.
        slice_pass: u16,
        /// Number of spare columns the geometry provides.
        spares: u16,
    },
    /// The Eq. 6 mismatch σ of one `(slice operand, column)` is not finite
    /// (NaN included), so no Gaussian mismatch sample can be drawn for it
    /// and no analog σ reported.  Raised once when a σ table is built: a
    /// Monte Carlo's, before any sample runs, or the input-space σ profile.
    NonFiniteSigma {
        /// Slice operand (DAC input code) whose word line gives the σ.
        slice_operand: u16,
        /// Column (bit position within the slice) whose duration gives the σ.
        column: u8,
        /// The offending σ value (volts).
        sigma: f64,
    },
    /// Error bubbled up from the OPTIMA models.
    Model(ModelError),
    /// Error bubbled up from the circuit-level converters.
    Circuit(CircuitError),
}

impl fmt::Display for ImcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImcError::OperandOutOfRange { value, max } => {
                write!(f, "operand {value} exceeds the maximum {max}")
            }
            ImcError::InvalidConfiguration { context } => {
                write!(f, "invalid multiplier configuration: {context}")
            }
            ImcError::EmptyDesignSpace => write!(f, "design space contains no corners"),
            ImcError::CornerFailed {
                index,
                corner,
                source,
            } => {
                write!(f, "sweep corner {index} ({corner}) failed: {source}")
            }
            ImcError::UnrepairableDefect {
                row,
                column,
                slice_pass,
                spares,
            } => {
                write!(
                    f,
                    "unrepairable defect at array cell (row {row}, column {column}, slice pass \
                     {slice_pass}): all {spares} spare columns are exhausted or defective"
                )
            }
            ImcError::NonFiniteSigma {
                slice_operand,
                column,
                sigma,
            } => write!(
                f,
                "mismatch sigma {sigma} V at slice operand {slice_operand}, column {column} is \
                 not finite"
            ),
            ImcError::Model(err) => write!(f, "model error: {err}"),
            ImcError::Circuit(err) => write!(f, "circuit error: {err}"),
        }
    }
}

impl std::error::Error for ImcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImcError::Model(err) => Some(err),
            ImcError::Circuit(err) => Some(err),
            ImcError::CornerFailed { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl ImcError {
    /// Wraps an [`optima_core::sweep::SweepError`] with a human-readable
    /// description of the failing corner.
    pub fn from_sweep(
        err: optima_core::sweep::SweepError<ImcError>,
        corner: impl Into<String>,
    ) -> Self {
        ImcError::CornerFailed {
            index: err.index,
            corner: corner.into(),
            source: Box::new(err.source),
        }
    }
}

impl From<ModelError> for ImcError {
    fn from(err: ModelError) -> Self {
        ImcError::Model(err)
    }
}

impl From<CircuitError> for ImcError {
    fn from(err: CircuitError) -> Self {
        ImcError::Circuit(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let err = ImcError::OperandOutOfRange { value: 16, max: 15 };
        assert!(err.to_string().contains("16"));
        assert!(ImcError::EmptyDesignSpace
            .to_string()
            .contains("no corners"));
    }

    #[test]
    fn unrepairable_defect_names_the_full_coordinate() {
        let err = ImcError::UnrepairableDefect {
            row: 3,
            column: 6,
            slice_pass: 1,
            spares: 2,
        };
        let message = err.to_string();
        assert!(message.contains("row 3"), "{message}");
        assert!(message.contains("column 6"), "{message}");
        assert!(message.contains("slice pass 1"), "{message}");
        assert!(message.contains("2 spare"), "{message}");
    }

    #[test]
    fn corner_failed_chain_surfaces_the_defect_coordinate() {
        // The display chain a sweep user actually sees: the corner wrapper
        // must carry the nested coordinate through, not swallow it.
        let err = ImcError::CornerFailed {
            index: 7,
            corner: "rate 0.2, lifetime step 3".to_string(),
            source: Box::new(ImcError::UnrepairableDefect {
                row: 0,
                column: 2,
                slice_pass: 0,
                spares: 0,
            }),
        };
        let message = err.to_string();
        assert!(message.contains("corner 7"), "{message}");
        assert!(
            message.contains("(row 0, column 2, slice pass 0)"),
            "{message}"
        );
        use std::error::Error;
        assert!(err.source().is_some());
    }

    #[test]
    fn non_finite_sigma_names_the_operand_and_column() {
        let message = ImcError::NonFiniteSigma {
            slice_operand: 9,
            column: 2,
            sigma: f64::INFINITY,
        }
        .to_string();
        assert!(message.contains("slice operand 9"), "{message}");
        assert!(message.contains("column 2"), "{message}");
        assert!(message.contains("inf"), "{message}");
    }

    #[test]
    fn conversions_preserve_sources() {
        use std::error::Error;
        let err: ImcError = ModelError::NotCalibrated {
            model: "discharge".to_string(),
        }
        .into();
        assert!(err.source().is_some());
        let err: ImcError = CircuitError::InvalidConverterConfig {
            context: "x".to_string(),
        }
        .into();
        assert!(matches!(err, ImcError::Circuit(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ImcError>();
    }
}
