//! # edm-core
//!
//! EDMStream — stream clustering by exploring the evolution of density
//! mountains (Gong, Zhang & Yu, VLDB 2017).
//!
//! The engine summarizes the stream into **cluster-cells** (Def. 4),
//! arranges the active cells in a **DP-Tree** whose parent edges point at
//! each cell's nearest denser neighbor (§2.2), and reads clusters off the
//! tree as maximal strongly-dependent subtrees (Def. 2). Two filtering
//! theorems make the per-point dependency maintenance cheap (§4.2), an
//! **outlier reservoir** holds low-density cells with provable recycling
//! and size bounds (§4.3–4.4, Thm 3), an adaptive **τ** controller tracks
//! the cluster-separation threshold as the stream drifts (§5), and a
//! **cluster registry** turns tree updates into emerge / disappear /
//! split / merge / adjust events (§3.3).
//!
//! The public API follows a **builder → session → snapshot** shape:
//! configure through [`EdmConfig::builder`] (typed [`ConfigError`]s, no
//! panicking path), feed the [`EdmStream`] session through `insert` /
//! [`EdmStream::insert_batch`] (or the fallible
//! [`EdmStream::try_insert`]), then query frozen state through
//! [`EdmStream::snapshot`] and drain evolution events with
//! [`EdmStream::take_events`] / [`EdmStream::events_since`].
//!
//! ```
//! use edm_core::{EdmConfig, EdmStream};
//! use edm_common::metric::Euclidean;
//! use edm_common::point::DenseVector;
//!
//! let cfg = EdmConfig::builder(0.5) // cell radius r
//!     .rate(100.0)                  // expected points/sec
//!     .beta(6e-5)                   // activation threshold ≈ 3 points
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
//! assert!(engine.is_initialized());
//!
//! let snap = engine.snapshot(0.64);
//! assert_eq!(snap.n_clusters(), 2);
//! for event in engine.take_events() {
//!     println!("{:.2}s {:?}", event.t, event.kind);
//! }
//! # Ok::<(), edm_core::ConfigError>(())
//! ```
//!
//! # Paper map
//!
//! Every module implements a named piece of the paper; read them side by
//! side:
//!
//! | Module | Paper anchor | Implements |
//! |---|---|---|
//! | [`cell`] | §3.2 Def. 4, Eq. 6–8 | cluster-cells, lazily decayed density, the strict density order |
//! | [`slab`] | §4.3–4.4 | stable-id cell storage with slot recycling |
//! | [`tree`] | §2.2, Def. 1–3 | DP-Tree edges, strong links, MSDSubTree traversals, invariants |
//! | [`index`] | §4.1 "New point assignment", §4.3 dependency recomputation | sub-linear neighbor lookup over cell seeds, one index per engine, picked when the first cell enters it: uniform grid at bucket side `r` up to `GRID_MAX_DIM` = 5 coordinates, best-first cover tree (triangle-inequality pruning) above that and for coordinate-less payloads, linear-scan fallback |
//! | [`engine`] | §4, Fig 5 | the pipeline facade over the three layers below |
//! | `engine/ingest.rs` | §4.1 | assignment, new-cell admission, emergence, the initialization batch pass |
//! | `engine/maintain.rs` | §4.2–4.4, Thm 1–3 | dependency maintenance, decay sweep, idle-queue ΔT_del recycling |
//! | `engine/order.rs` | §4.2 Thm 1 | active cells in density order: the window of cells an absorb overtook, the prefix below the threshold |
//! | `engine/parallel.rs` | §6.3 (throughput) | parallel probe phase of batch ingest (probe-then-commit; serial-exact): chunks drained from a mutex-guarded queue, commits applied serially in timestamp order — the update order §4.2's dependency-maintenance arguments assume |
//! | `engine/pool.rs` | §6.3 (throughput) | persistent worker pool for the probe fan-out: parked workers, lazy spawn, join on drop, a panic-safe check-in barrier around the one `unsafe` lifetime erasure |
//! | `engine/query.rs` | §3.1, §6.3.1 | clusters, decision graph, snapshots, membership queries, invariant checkers |
//! | [`filters`] | §4.2 Thm 1–2, Fig 11 | density & triangle-inequality update filters, runtime counters |
//! | `edm_common::metric` kernels | §4.2 Thm 2, §6.3 | chunked 4-lane Euclidean kernels; `dist_upper_bounded` early-exits once the partial sum proves the Theorem-2 bound `\|dist(p,c) − dist(p,c′)\| > δ_c` — exact below the bound, so filter decisions are unchanged; `dist_batch` amortizes cover-tree child sweeps |
//! | [`tau`] | §5, Table 4 | the F(τ) objective, α learning, the adaptive τ controller |
//! | [`evolution`] | §3.1 Table 1, §3.3 | emerge / disappear / split / merge / adjust detection, bounded event log |
//! | [`evolve`] | §5 evolution tracking, Figs 7–8 | lineage (identity matching over the event history), per-cluster summaries, windowed `digest_since` evolution digests |
//! | [`snapshot`] | §6.3.1 | owned, frozen views of the clustering for queries off the hot path |
//! | [`config`] | §6.1, Table 2 | validated parameters, the builder, derived thresholds |
//! | [`error`] | — | typed errors of the fallible entry points |

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod cell;
pub mod config;
pub mod engine;
pub mod error;
pub mod evolution;
pub mod evolve;
pub mod filters;
pub mod index;
pub mod slab;
pub mod snapshot;
pub mod tau;
pub mod tree;

pub use cell::{Cell, CellId};
pub use config::{ConfigError, EdmConfig, EdmConfigBuilder};
pub use engine::{live_pool_workers, EdmStream, PointGate};
pub use error::EdmError;
pub use evolution::{AdjustKind, ClusterId, Event, EventCursor, EventKind, EvolutionLog};
pub use evolve::{
    BirthKind, BoundingBox, ClusterEnd, ClusterSummary, DigestWindow, EndKind, EvolutionDigest,
    EvolveError, GenerationRecord, Lineage, LineageGraph, LineageNode, MassDrift, MergeEdge,
    SplitEdge,
};
pub use filters::{EngineStats, FilterConfig};
pub use index::{
    CoverTree, LinearScan, NeighborIndex, NeighborIndexKind, UniformGrid, GRID_MAX_DIM,
};
pub use snapshot::{ClusterInfo, ClusterSnapshot};
pub use tau::TauMode;
