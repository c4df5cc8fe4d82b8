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
}

impl std::fmt::Display for EdmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdmError::Config(e) => write!(f, "invalid configuration: {e}"),
            EdmError::TimeRegression { now, t } => {
                write!(f, "stream time went backwards: now {now}, got {t}")
            }
            EdmError::NonFiniteTime { t } => write!(f, "stream time must be finite, got {t}"),
        }
    }
}

impl std::error::Error for EdmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EdmError::Config(e) => Some(e),
            EdmError::TimeRegression { .. } | EdmError::NonFiniteTime { .. } => None,
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
