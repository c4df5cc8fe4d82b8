//! # edm-data
//!
//! Stream model and dataset generators for the EDMStream reproduction.
//!
//! * [`stream`] — timestamped, optionally-labeled stream points and
//!   materialized labeled streams (paper §3.1's `S^N = {p_i^{t_i}}`).
//! * [`clusterer`] — the [`clusterer::StreamClusterer`] trait implemented by
//!   EDMStream and by every baseline, so the harness can drive them
//!   uniformly.
//! * [`gen`] — deterministic synthetic generators for the six datasets of
//!   the paper's Table 2 (SDS, HDS and surrogates for KDDCUP99, CoverType,
//!   PAMAP2, NADS). The real datasets are not bundled, so each surrogate
//!   reproduces the shape, class skew and drift the paper's experiments
//!   lean on; each generator's module docs say what it keeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clusterer;
pub mod gen;
pub mod stream;

pub use clusterer::StreamClusterer;
pub use stream::{LabeledStream, StreamPoint};
