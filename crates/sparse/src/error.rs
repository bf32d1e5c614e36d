//! Error type shared by all sparse-matrix constructors and I/O.

use crate::format::SparseFormat;
use std::fmt;

/// Errors produced by format constructors, conversions, and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// A coordinate was outside the declared matrix dimensions.
    IndexOutOfBounds {
        row: usize,
        col: usize,
        nrows: usize,
        ncols: usize,
    },
    /// A matrix dimension was zero where a non-empty matrix is required.
    EmptyDimension { nrows: usize, ncols: usize },
    /// Converting to DIA would materialise more diagonals than the limit.
    TooManyDiagonals { ndiags: usize, limit: usize },
    /// Converting to ELL would materialise a row width above the limit.
    RowTooWide { width: usize, limit: usize },
    /// The format is a name the cost models price, with no storage
    /// type or kernel to convert to (BSR, CSR5, merge-path CSR).
    NoKernel { format: SparseFormat },
    /// Structural invariant violated (sortedness, duplicate entry, ...).
    InvalidStructure(String),
    /// Input/x/y vector length did not match the matrix shape.
    DimensionMismatch {
        expected: usize,
        got: usize,
        what: &'static str,
    },
    /// MatrixMarket parse failure with the offending line number.
    Parse { line: usize, message: String },
    /// Underlying I/O failure (message only, to keep the error `Clone`).
    Io(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(
                f,
                "entry ({row}, {col}) is outside the {nrows}x{ncols} matrix"
            ),
            SparseError::EmptyDimension { nrows, ncols } => {
                write!(f, "matrix dimensions must be positive, got {nrows}x{ncols}")
            }
            SparseError::TooManyDiagonals { ndiags, limit } => write!(
                f,
                "DIA conversion needs {ndiags} diagonals, above the limit of {limit}"
            ),
            SparseError::RowTooWide { width, limit } => write!(
                f,
                "ELL conversion needs row width {width}, above the limit of {limit}"
            ),
            SparseError::NoKernel { format } => write!(
                f,
                "{format} has no kernel: the cost models price this format by name only"
            ),
            SparseError::InvalidStructure(msg) => write!(f, "invalid structure: {msg}"),
            SparseError::DimensionMismatch {
                expected,
                got,
                what,
            } => write!(f, "{what} length mismatch: expected {expected}, got {got}"),
            SparseError::Parse { line, message } => {
                write!(f, "MatrixMarket parse error at line {line}: {message}")
            }
            SparseError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_coordinates() {
        let e = SparseError::IndexOutOfBounds {
            row: 5,
            col: 7,
            nrows: 4,
            ncols: 4,
        };
        let s = e.to_string();
        assert!(s.contains("(5, 7)") && s.contains("4x4"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: SparseError = io.into();
        assert!(matches!(e, SparseError::Io(_)));
        assert!(e.to_string().contains("missing"));
    }

    #[test]
    fn errors_are_cloneable_and_comparable() {
        let e = SparseError::TooManyDiagonals {
            ndiags: 10,
            limit: 5,
        };
        assert_eq!(e.clone(), e);
    }
}
