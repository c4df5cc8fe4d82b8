//! # edm-serve
//!
//! A concurrent serving tier over [`edm_core::EdmStream`] — the paper's
//! real-time story (§6.3.1 reports ~7 ms response against a continuously
//! updating clustering) made operational: ingest keeps running on a
//! dedicated writer thread while unbounded concurrent readers answer
//! `cluster_of` / `n_clusters` / `decision_graph` from the latest
//! *published* snapshot, never blocking the writer and never taking a
//! lock on the read path.
//!
//! The engine's query layer is strictly `&self` and its snapshots are
//! owned + `Send`/`Sync`, so serving reduces to one mechanism:
//! **generation-stamped snapshot publication** through a hand-rolled
//! double-buffered [`swap::SwapCell`] (the vendor tree is offline, so the
//! usual `arc-swap` crate is reimplemented in ~60 lines of audited
//! `unsafe` — see `swap.rs` for the full protocol and safety argument;
//! this is the only `unsafe` module in the workspace's first-party
//! crates).
//!
//! ```
//! use std::num::{NonZeroU64, NonZeroUsize};
//! use edm_core::{EdmConfig, EdmStream};
//! use edm_common::metric::Euclidean;
//! use edm_common::point::DenseVector;
//! use edm_serve::{EdmServer, ServeConfig};
//!
//! let cfg = EdmConfig::builder(0.5).rate(100.0).beta(6e-5).init_points(16).build()?;
//! let server = EdmServer::spawn(EdmStream::new(cfg, Euclidean), ServeConfig::default());
//! let handle = server.handle(); // clone freely across reader threads
//!
//! let batch: Vec<(DenseVector, f64)> = (0..64)
//!     .map(|i| {
//!         let x = if i % 2 == 0 { 0.0 } else { 8.0 };
//!         (DenseVector::from([x, 0.1 * (i % 4) as f64]), i as f64 / 100.0)
//!     })
//!     .collect();
//! server.ingest(batch)?;
//!
//! let engine = server.shutdown()?; // drain + final publish + engine back
//! assert_eq!(handle.n_clusters(), 2);
//! assert!(handle.cluster_of(&DenseVector::from([0.1, 0.1])).is_some());
//! assert!(handle.generation() >= 2); // spawn + final publish at least
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Paper map
//!
//! | Piece | Paper anchor | Serves |
//! |---|---|---|
//! | [`SnapshotPublisher`] / [`swap::SwapCell`] | §6.3.1 real-time response | queries answered from maintained state at memory-read cost, independent of ingest |
//! | [`Published::cluster_of`] | §3.1 / Def. 4 | point→cluster via nearest cell seed within `r`, on the frozen view |
//! | [`ServeConfig::publish_every_batches`] | §4 "cluster evolves as points arrive" | staleness/throughput knob: how much evolution accumulates between published views |
//! | [`ServeStats`] | §6.3 experiments | the observability the paper's latency/throughput tables need |
//! | [`ServeHandle::execute`] / [`Query`] | §6.3.1 query kinds | one typed evaluation path shared by in-process readers and remote clients |
//! | [`net::NetServer`] | §6.3.1 "monitoring applications" | the paper's remote dashboards: the same queries over TCP, answers identical by construction |

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod error;
pub mod net;
mod publish;
mod query;
mod queue;
mod server;
mod stats;
pub mod swap;

pub use config::{BackpressurePolicy, ServeConfig, ServeConfigBuilder, ServeConfigError};
pub use error::ServeError;
pub use publish::{Published, SnapshotPublisher, SnapshotSource};
pub use query::{
    Assignment, ClusterMiss, DimensionMismatch, HealthStatus, Query, QueryError, QueryResponse,
};
pub use server::{EdmServer, ServeHandle};
pub use stats::ServeStats;
