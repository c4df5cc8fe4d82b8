//! Typed errors of the engine's fallible entry points.

use edm_common::time::Timestamp;

use crate::config::ConfigError;

/// An error from a fallible engine operation.
///
/// The hot path ([`crate::EdmStream::insert`]) stays infallible; callers
/// that ingest from untrusted transports use
/// [`crate::EdmStream::try_insert`] and match on this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdmError {
    /// A configuration was rejected (carries the builder's verdict).
    Config(ConfigError),
    /// A point arrived with a timestamp behind the stream clock. Every
    /// structure in the engine assumes in-order arrival (paper §3.1).
    TimeRegression {
        /// The engine's current stream time.
        now: Timestamp,
        /// The offending earlier timestamp.
        t: Timestamp,
    },
    /// A point arrived with a NaN or infinite timestamp. The stream clock
    /// and every decay computation need finite times. Match with
    /// `matches!`: NaN never equals itself.
    NonFiniteTime {
        /// The offending timestamp.
        t: Timestamp,
    },
    /// A point's coordinate count differs from the stream's, which its
    /// first point set ([`crate::EdmStream::dimension`]). The distance
    /// kernels compare coordinate by coordinate and would read past the
    /// shorter payload or ignore the longer one's tail.
    DimensionMismatch {
        /// The stream's coordinate count.
        expected: usize,
        /// The offending point's coordinate count.
        got: usize,
    },
    /// A point has a NaN or infinite coordinate. Its distance to every
    /// cell would be NaN or infinite, so it would found a cell no later
    /// point could ever reach.
    NonFiniteCoordinate {
        /// The first offending axis.
        axis: usize,
    },
}

impl std::fmt::Display for EdmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdmError::Config(e) => write!(f, "invalid configuration: {e}"),
            EdmError::TimeRegression { now, t } => {
                write!(f, "stream time went backwards: now {now}, got {t}")
            }
            EdmError::NonFiniteTime { t } => write!(f, "stream time must be finite, got {t}"),
            EdmError::DimensionMismatch { expected, got } => {
                write!(f, "point has {got} coordinates, the stream has {expected}")
            }
            EdmError::NonFiniteCoordinate { axis } => {
                write!(f, "coordinate {axis} of the point is not finite")
            }
        }
    }
}

impl std::error::Error for EdmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdmError::Config(e) => Some(e),
            EdmError::TimeRegression { .. }
            | EdmError::NonFiniteTime { .. }
            | EdmError::DimensionMismatch { .. }
            | EdmError::NonFiniteCoordinate { .. } => None,
        }
    }
}

impl From<ConfigError> for EdmError {
    fn from(e: ConfigError) -> Self {
        EdmError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        let e = EdmError::TimeRegression { now: 5.0, t: 3.0 };
        let msg = e.to_string();
        assert!(msg.contains('5') && msg.contains('3'), "{msg}");
        assert!(EdmError::NonFiniteTime { t: f64::NAN }.to_string().contains("NaN"));
        let msg = EdmError::DimensionMismatch { expected: 2, got: 16 }.to_string();
        assert!(msg.contains("16 coordinates") && msg.contains("has 2"), "{msg}");
        assert!(EdmError::NonFiniteCoordinate { axis: 3 }.to_string().contains("coordinate 3"));
        let c: EdmError = ConfigError::ZeroInitPoints.into();
        assert!(c.to_string().contains("init_points"));
    }

    #[test]
    fn config_errors_chain_as_source() {
        use std::error::Error;
        let e: EdmError = ConfigError::ZeroTauEvery.into();
        assert!(e.source().is_some());
        assert!(EdmError::TimeRegression { now: 1.0, t: 0.0 }.source().is_none());
    }
}
