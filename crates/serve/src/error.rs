//! Typed errors of the serving tier.

use std::error::Error;
use std::fmt;

use edm_core::EdmError;

/// What went wrong on a serving-tier entry point.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded ingest queue was full and the configured backpressure
    /// policy was [`crate::BackpressurePolicy::Reject`]. The batch was
    /// returned untouched to the caller (inside the `Err` at the call
    /// site that produced this) — retry later or switch policy.
    QueueFull {
        /// Configured queue capacity, in batches.
        capacity: usize,
    },
    /// The writer thread panicked. The serving handle is poisoned: all
    /// further ingest fails with this error, while readers keep getting
    /// the last snapshot published before the panic.
    WriterPanicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The server is shutting down (or already shut down); no further
    /// ingest is accepted.
    ShutDown,
    /// A point of the batch is one the engine would refuse: its timestamp
    /// is NaN, infinite, or behind a timestamp queued before it, or it has
    /// another coordinate count than the stream or a non-finite
    /// coordinate. The whole batch was refused; nothing of it was queued.
    /// Match with `matches!` when `error` may hold a NaN, which never
    /// equals itself.
    InvalidPoint {
        /// Position of the offending point in the batch.
        index: usize,
        /// The engine's verdict on the point.
        error: EdmError,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "ingest queue full ({capacity} batches) and policy is Reject")
            }
            ServeError::WriterPanicked { message } => {
                write!(f, "writer thread panicked: {message}")
            }
            ServeError::ShutDown => write!(f, "server is shut down"),
            ServeError::InvalidPoint { index, error } => {
                write!(f, "batch refused at point {index}: {error}")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::InvalidPoint { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(ServeError::QueueFull { capacity: 8 }.to_string().contains("8 batches"));
        assert!(ServeError::WriterPanicked { message: "boom".into() }.to_string().contains("boom"));
        assert!(ServeError::ShutDown.to_string().contains("shut down"));
        let refused =
            ServeError::InvalidPoint { index: 3, error: EdmError::NonFiniteTime { t: f64::NAN } };
        assert!(refused.to_string().contains("point 3") && refused.to_string().contains("NaN"));
        assert!(refused.source().is_some());
        let refused = ServeError::InvalidPoint {
            index: 0,
            error: EdmError::DimensionMismatch { expected: 2, got: 16 },
        };
        assert!(refused.to_string().contains("point 0") && refused.to_string().contains("16"));
    }
}
