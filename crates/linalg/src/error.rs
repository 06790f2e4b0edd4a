use std::error::Error;
use std::fmt;

/// Error type for linear-algebra operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Shape of the left operand as `(rows, cols)`.
        left: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        right: (usize, usize),
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// A matrix expected to be positive definite (or at least full rank)
    /// turned out singular to working precision.
    Singular,
    /// A matrix constructor was given rows of unequal lengths.
    RaggedRows {
        /// Length of the first row.
        expected: usize,
        /// Length of the offending row.
        found: usize,
    },
    /// An operation that requires a non-empty matrix was given an empty one.
    Empty,
    /// A worker closure of a parallel section
    /// ([`crate::parallel::try_par_fill`] or its map adapters) panicked.
    ///
    /// The panic was caught and isolated: sibling workers finished (or were
    /// abandoned) cleanly and the process keeps running.
    WorkerPanic {
        /// Index of the first item (block, for `try_par_fill`) whose closure
        /// panicked.
        index: usize,
        /// The panic payload rendered as text (`"..."` for non-string
        /// payloads).
        message: String,
    },
    /// A [`crate::parallel::CancelToken`] fired (explicit cancellation or an
    /// expired deadline) before a parallel section finished; all partial
    /// results were discarded.
    Cancelled,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { left, right, op } => write!(
                f,
                "shape mismatch in {op}: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::RaggedRows { expected, found } => {
                write!(f, "ragged rows: expected length {expected}, found {found}")
            }
            LinalgError::Empty => write!(f, "operation requires a non-empty matrix"),
            LinalgError::WorkerPanic { index, message } => {
                write!(f, "parallel worker panicked on item {index}: {message}")
            }
            LinalgError::Cancelled => {
                write!(
                    f,
                    "parallel section cancelled (token fired or deadline passed)"
                )
            }
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let err = LinalgError::ShapeMismatch {
            left: (2, 3),
            right: (4, 5),
            op: "mul",
        };
        assert_eq!(err.to_string(), "shape mismatch in mul: 2x3 vs 4x5");
    }

    #[test]
    fn display_singular() {
        assert_eq!(
            LinalgError::Singular.to_string(),
            "matrix is singular to working precision"
        );
    }

    #[test]
    fn display_worker_panic() {
        let err = LinalgError::WorkerPanic {
            index: 4,
            message: "boom".into(),
        };
        assert_eq!(err.to_string(), "parallel worker panicked on item 4: boom");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
