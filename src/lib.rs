//! # edmstream
//!
//! A Rust reproduction of **"Clustering Stream Data by Exploring the
//! Evolution of Density Mountain"** (Gong, Zhang & Yu, VLDB 2017) — the
//! EDMStream algorithm, its substrates, its density-based competitors, and
//! the paper's full experimental harness.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`core`] — the EDMStream engine ([`EdmStream`], [`EdmConfig`]):
//!   cluster-cells, the DP-Tree, outlier reservoir, the two dependency
//!   filters, adaptive τ, and evolution tracking with provenance
//!   queries ([`EdmStream::lineage_of`], [`EdmStream::digest_since`],
//!   rolling [`ClusterSummary`]s).
//! * [`common`] — payload types ([`DenseVector`], [`TokenSet`]), metrics
//!   ([`Euclidean`], [`Jaccard`]), and the decay model ([`DecayModel`]).
//! * [`data`] — stream model, the [`StreamClusterer`] trait, and the six
//!   dataset generators of the paper's Table 2.
//! * [`dp`] — batch Density Peaks clustering, decision graphs, DBSCAN,
//!   k-means.
//! * [`baselines`] — D-Stream, DenStream, DBSTREAM, MR-Stream.
//! * [`metrics`] — CMM and classic external quality criteria.
//! * [`serve`] — the concurrent serving tier ([`EdmServer`],
//!   [`ServeHandle`]): lock-free snapshot publication, bounded ingest
//!   queue with backpressure, reader-side evolution digests, serving
//!   observability, the typed query surface ([`Query`],
//!   [`QueryResponse`]), and a TCP network front end
//!   ([`serve::net::NetServer`]).
//!
//! The API follows a **builder → session → snapshot** shape: configure
//! with [`EdmConfig::builder`] (typed [`ConfigError`]s instead of panics),
//! feed the [`EdmStream`] session one point or one batch at a time, then
//! read frozen [`ClusterSnapshot`]s and drain evolution events.
//!
//! ```
//! use edmstream::{EdmConfig, EdmStream, Euclidean, DenseVector};
//!
//! let cfg = EdmConfig::builder(0.5)
//!     .rate(100.0)
//!     .beta(6e-5)
//!     .init_points(16)
//!     .build()?;
//! let mut engine = EdmStream::new(cfg, Euclidean);
//! let batch: Vec<(DenseVector, f64)> = (0..64)
//!     .map(|i| {
//!         let x = if i % 2 == 0 { 0.0 } else { 8.0 };
//!         (DenseVector::from([x, 0.1 * (i % 4) as f64]), i as f64 / 100.0)
//!     })
//!     .collect();
//! engine.insert_batch(&batch);
//!
//! let snapshot = engine.snapshot(0.64);
//! assert_eq!(snapshot.n_clusters(), 2);
//! let events = engine.take_events();
//! assert!(!events.is_empty());
//! # Ok::<(), edmstream::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use edm_baselines as baselines;
pub use edm_common as common;
pub use edm_core as core;
pub use edm_data as data;
pub use edm_dp as dp;
pub use edm_metrics as metrics;
pub use edm_serve as serve;

pub use edm_common::decay::DecayModel;
pub use edm_common::metric::{Euclidean, Jaccard, Metric};
pub use edm_common::point::{DenseVector, GridCoords, TokenSet};
pub use edm_core::{
    live_pool_workers, AdjustKind, BirthKind, BoundingBox, ClusterEnd, ClusterId, ClusterInfo,
    ClusterSnapshot, ClusterSummary, ConfigError, DigestWindow, EdmConfig, EdmConfigBuilder,
    EdmError, EdmStream, EndKind, EngineStats, Event, EventCursor, EventKind, EvolutionDigest,
    EvolveError, FilterConfig, GenerationRecord, Lineage, LineageGraph, LineageNode, MassDrift,
    MergeEdge, NeighborIndexKind, SplitEdge, TauMode,
};
pub use edm_data::clusterer::StreamClusterer;
pub use edm_serve::{
    Assignment, BackpressurePolicy, ClusterMiss, DimensionMismatch, EdmServer, HealthStatus, Query,
    QueryError, QueryResponse, ServeConfig, ServeConfigBuilder, ServeConfigError, ServeError,
    ServeHandle, ServeStats,
};
