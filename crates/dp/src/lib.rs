//! # edm-dp
//!
//! Batch clustering substrates for the EDMStream reproduction:
//!
//! * [`dp`] — Density Peaks clustering (Rodriguez & Laio, Science 2014),
//!   the batch algorithm EDMStream streams-ifies (paper §2.1); also the
//!   initialization step of the stream engine.
//! * [`decision`] — the (ρ, δ) *decision graph* used to pick cluster
//!   centers and the τ threshold (paper Fig 2 / Fig 15).
//! * [`dbscan`] — DBSCAN (Ester et al., KDD'96), the offline step of the
//!   DenStream baseline and the contrast algorithm of paper §2.3.
//! * [`kmeans`] — Lloyd's k-means with k-means++ seeding, the other
//!   classic offline recluster the related work uses.
//! * [`util`] — pairwise-distance quantile sampling, the paper's method of
//!   choosing the cell radius `r` (§6.7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dbscan;
pub mod decision;
pub mod dp;
pub mod kmeans;
pub mod util;

pub use decision::DecisionGraph;
pub use dp::{DpConfig, DpResult};
