//! # edm-common
//!
//! Shared substrate for the EDMStream reproduction: data point
//! representations, distance metrics, the exponential decay model that
//! underpins every density computation in the paper, timestamps and stream
//! clocks, a fast hash map for integer keys, and small statistics helpers.
//!
//! The crates higher in the stack (`edm-data`, `edm-dp`, `edm-core`,
//! `edm-baselines`, `edm-metrics`) all build on these primitives, so the
//! types here are deliberately small, `Clone`-cheap where possible, and
//! free of any clustering policy.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod decay;
pub mod hash;
pub mod metric;
pub mod point;
pub mod stats;
pub mod time;

pub use decay::DecayModel;
pub use metric::{Euclidean, Jaccard, Metric};
pub use point::{DenseVector, GridCoords, TokenSet};
pub use time::{StreamClock, Timestamp};
