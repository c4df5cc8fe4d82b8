//! Neighbor indexes over the cell slab (paper §4.1, assignment step).
//!
//! Every per-point operation of the engine starts with a neighbor
//! question — *which cell seed is within `r` of this point?* (assignment,
//! `cluster_of`) or *which is the nearest cell satisfying a predicate?*
//! (dependency recomputation). Answering by scanning the whole slab makes
//! insert cost grow linearly with cell count, which defeats the paper's
//! cheap-maintenance claim as soon as the outlier reservoir grows. This
//! module abstracts the question behind [`NeighborIndex`] and provides
//! three implementations:
//!
//! * [`UniformGrid`] — seeds quantized into a uniform grid of bucket side
//!   `r` (the cluster-cell radius), so an assignment query probes only the
//!   3^d neighborhood shell of the query's bucket, and nearest-matching
//!   queries expand Chebyshev shells outward until the bucket geometry
//!   proves no closer cell can exist. Sound for payloads exposing
//!   coordinates ([`edm_common::point::GridCoords`]) under any metric that
//!   dominates per-axis coordinate differences (all Minkowski metrics).
//!   Payloads without coordinates transparently fall back to scanning.
//! * [`CoverTree`] — a best-first metric tree over cell seeds, pruning
//!   whole subtrees through triangle-inequality covering-radius bounds.
//!   Needs no coordinates at all — only the metric axioms (the
//!   [`edm_common::metric::Metric::is_metric`] opt-in) — which makes it
//!   the index of choice for high-dimensional payloads, where uniform
//!   buckets degenerate into occupied-bucket sweeps, and for
//!   coordinate-less payloads like token sets, which the grid can only
//!   scan.
//! * [`LinearScan`] — the exact full scan, as a fallback for arbitrary
//!   metric spaces and as the reference implementation the property suite
//!   compares the other backends against.
//!
//! All are *exact*: they return the same nearest cell (identical
//! distance-then-id tie-breaking) the brute-force scan would, so the index
//! kind never changes clustering output — only the number of distance
//! computations, which the engine counts in
//! [`crate::EngineStats::index_probed`] / [`crate::EngineStats::index_pruned`].
//! The engine picks its index once, when the first cell enters it
//! ([`CellIndex::from_config`]): the kind the configuration asked for, or,
//! left to the engine, the grid for payloads of at most [`GRID_MAX_DIM`]
//! coordinates and the cover tree above that and for coordinate-less
//! payloads. An empty linear scan stands in until then, and the index
//! picked is kept for the engine's whole life.

mod cover;
mod grid;
mod linear;

pub use cover::CoverTree;
pub use grid::UniformGrid;
pub use linear::LinearScan;

use edm_common::metric::Metric;
use edm_common::point::GridCoords;
use serde::{Deserialize, Serialize};

use crate::cell::{Cell, CellId};
use crate::slab::CellSlab;

/// Most coordinates a payload may have for the engine to pick the grid
/// when the configuration leaves the index to it. Up to 5-d an assignment
/// probe reads a 3^d bucket shell of at most 243 buckets and the grid
/// outruns the cover tree; from 6-d on the shell turns into a sweep of
/// every occupied bucket, and the tree wins on clustered layouts and on
/// the 34–54-d dataset surrogates. The `index_choice` section of
/// `BENCH_ingest.json` records the runs, including a stream on which
/// nearly every point founds a cell and the grid holds out to 7-d.
pub const GRID_MAX_DIM: usize = 5;

/// Which neighbor index the engine builds — the
/// [`crate::EdmConfigBuilder::neighbor_index`] knob. Left unset, the
/// engine picks one from the stream's first point
/// ([`CellIndex::from_config`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NeighborIndexKind {
    /// Brute-force full scan over the slab. Exact for every metric space;
    /// insert cost grows linearly with cell count.
    LinearScan,
    /// Uniform grid over cell seeds, with bucket side equal to the
    /// cluster-cell radius `r`, so the 3^d neighborhood shell covers every
    /// assignment query. Exact whenever the payload exposes coordinates
    /// and the metric dominates per-axis coordinate differences (see
    /// [`edm_common::point::GridCoords`]); payloads without coordinates
    /// degrade to a linear scan inside the grid, and the engine
    /// downgrades the whole index to [`LinearScan`] for metrics that do
    /// not assert the bound via
    /// [`edm_common::metric::Metric::dominates_coordinate_axes`] — a
    /// custom metric can never be silently mis-pruned. The engine's pick
    /// for payloads of at most [`GRID_MAX_DIM`] coordinates.
    Grid,
    /// Best-first metric tree over cell seeds ([`CoverTree`]). Exact for
    /// any true metric — the engine downgrades it to [`LinearScan`]
    /// unless the metric vouches for the triangle inequality via
    /// [`edm_common::metric::Metric::is_metric`]. Unlike the grid it
    /// needs no coordinate embedding, so it indexes token sets and other
    /// coordinate-less payloads, and it keeps pruning in high dimensions
    /// where uniform buckets degenerate into occupied-bucket sweeps. The
    /// engine's pick above [`GRID_MAX_DIM`] coordinates and for
    /// coordinate-less payloads under a true metric.
    CoverTree,
}

/// A spatial index over the live cells of a [`CellSlab`].
///
/// The engine keeps the index coherent with the slab: [`on_insert`] on
/// every cell birth, [`on_remove`] on every reservoir recycling. Cells
/// moving between the DP-Tree and the reservoir stay indexed — both can
/// absorb points — and queries that only concern active cells filter
/// through their predicate instead.
///
/// All query methods are **exact**: given the same slab they must return
/// the cell the brute-force scan would, breaking distance ties toward the
/// lower [`CellId`].
///
/// [`on_insert`]: NeighborIndex::on_insert
/// [`on_remove`]: NeighborIndex::on_remove
pub trait NeighborIndex<P> {
    /// Registers a freshly inserted cell. The cell is already live in
    /// `slab` (so `slab.get(id).seed` is `seed`), and `metric` is the
    /// engine's metric — metric-tree backends route the insertion through
    /// distance computations against seeds fetched from the slab;
    /// coordinate-quantizing backends ignore both.
    fn on_insert<M: Metric<P>>(&mut self, id: CellId, seed: &P, slab: &CellSlab<P>, metric: &M);

    /// Unregisters a cell removed from the slab (reservoir recycling).
    /// Called **after** `slab.remove(id)` — `seed` carries the removed
    /// cell's seed, while `slab` holds every still-live cell (metric-tree
    /// backends re-hang the removed node's orphans against it).
    fn on_remove<M: Metric<P>>(&mut self, id: CellId, seed: &P, slab: &CellSlab<P>, metric: &M);

    /// The nearest cell whose seed lies within `radius` of `q`, with its
    /// distance; `None` when no cell is that close. Calls `on_probe` once
    /// per distance actually computed, so callers can account probes and
    /// cache the exact distances (the engine stamps its scratch table,
    /// which feeds the Theorem 2 triangle filter for free).
    fn nearest_within<M: Metric<P>>(
        &self,
        q: &P,
        radius: f64,
        slab: &CellSlab<P>,
        metric: &M,
        on_probe: &mut dyn FnMut(CellId, f64),
    ) -> Option<(CellId, f64)>;

    /// The nearest cell satisfying `pred`, searched without a radius cap
    /// (dependency recomputation: nearest *denser active* cell). The
    /// predicate sees the candidate id and cell before any distance is
    /// computed.
    fn nearest_matching<M: Metric<P>>(
        &self,
        q: &P,
        slab: &CellSlab<P>,
        metric: &M,
        pred: &mut dyn FnMut(CellId, &Cell<P>) -> bool,
    ) -> Option<(CellId, f64)>;

    /// Whether the index can prove `metric.dist(q, seed) - p_dist > delta`
    /// without a metric evaluation — the exact prune test of the engine's
    /// Theorem-2 fallback path, for cells whose exact distance the
    /// assignment probe skipped. Coordinate-backed indexes walk the axes
    /// and stop at the first one that proves it; an index that can prove
    /// nothing answers `false`.
    fn lower_bound_prunes(&self, q: &P, seed: &P, p_dist: f64, delta: f64) -> bool;

    /// Whether a cell birth with seed `changed_seed` could alter the
    /// result **or the probed set** of
    /// [`NeighborIndex::nearest_within`]`(q, radius, ..)`. The parallel
    /// batch committer asks this to decide which pre-computed assignment
    /// probes survive an earlier commit's cell birth; a stale probe is
    /// simply redone serially, so the method affects only throughput,
    /// never output.
    ///
    /// Implementations must be **conservative**: return `true` whenever
    /// the probe cannot be proven untouched. The default claims every
    /// birth conflicts — exact for the linear scan, which probes every
    /// live cell, and the cover tree's answer too: a birth widens the
    /// covering radii along its whole insertion path, which can change
    /// what a distant query expands. Only the grid overrides it, with a
    /// per-axis horizon around the query's bucket shell.
    fn probe_conflicts(&self, _q: &P, _changed_seed: &P, _radius: f64) -> bool {
        true
    }

    /// Periodic self-maintenance hook, called from the engine's
    /// maintenance cadence. The cover tree re-tightens its covering radii
    /// here; the return value counts the changes that invalidate any
    /// cached probe state the parallel committer holds (counted in
    /// [`crate::EngineStats::grid_rebuilds`]). `metric` lets metric-tree
    /// backends recompute exact bounds. The grid and the linear scan keep
    /// the default no-op.
    fn maintain<M: Metric<P>>(&mut self, _slab: &CellSlab<P>, _metric: &M) -> u64 {
        0
    }

    /// Verifies that the index holds exactly the live slab cells, each
    /// filed where its seed says it belongs, and that every internal
    /// pruning bound is sound against the metric (test support).
    fn check_coherence<M: Metric<P>>(&self, slab: &CellSlab<P>, metric: &M) -> Result<(), String>;
}

/// The Theorem-2 fallback prune on coordinates: true iff some axis
/// satisfies `|q_i − seed_i| - p_dist > delta`, i.e. iff the Chebyshev
/// (L∞) distance between the two coordinate embeddings, a sound lower
/// bound on any metric that dominates per-axis coordinate differences,
/// proves `dist(q, seed) - p_dist > delta`. `fl(u - p_dist)` is monotone
/// non-decreasing in `u`, so "some axis proves it" and "the maximum axis
/// proves it" are the same decision, bit for bit; far cells exit on
/// their first separated axis instead of walking every coordinate.
/// `false` when either payload has no coordinates or the
/// dimensionalities disagree.
pub(crate) fn chebyshev_prunes<P: GridCoords>(q: &P, seed: &P, p_dist: f64, delta: f64) -> bool {
    match (q.grid_coords(), seed.grid_coords()) {
        (Some(a), Some(b)) if a.len() == b.len() => {
            a.iter().zip(b.iter()).any(|(x, y)| (x - y).abs() - p_dist > delta)
        }
        _ => false,
    }
}

/// Strict "closer" order used by every index: nearer wins, equal distances
/// break toward the lower cell id. Total, so visitation order never
/// changes the winner — the property that keeps all index kinds
/// observationally identical.
#[inline]
pub(crate) fn closer(d: f64, id: CellId, best: Option<(CellId, f64)>) -> bool {
    match best {
        Some((bid, bd)) => d < bd || (d == bd && id < bid),
        None => true,
    }
}

/// The engine's concrete index: static dispatch over the three
/// implementations (no boxing on the hot path).
#[derive(Debug, Clone)]
pub enum CellIndex {
    /// Brute-force fallback.
    Linear(LinearScan),
    /// Uniform grid over seeds.
    Grid(UniformGrid),
    /// Best-first metric tree over seeds.
    Cover(CoverTree),
}

impl CellIndex {
    /// Builds the engine's index: the whole decision, made once, when the
    /// stream's first cell enters the index. `requested` is the
    /// configured kind, `r` the cluster-cell radius (the grid's bucket
    /// side) and `dim` the first cell's coordinate count (`None` for
    /// coordinate-less payloads).
    ///
    /// Left unset, the kind is picked from `dim` and the metric's
    /// markers: the grid for at most [`GRID_MAX_DIM`] coordinates under a
    /// metric that [dominates the coordinate
    /// axes](edm_common::metric::Metric::dominates_coordinate_axes);
    /// otherwise the cover tree for a [true
    /// metric](edm_common::metric::Metric::is_metric) (token sets under
    /// Jaccard included); otherwise the grid when the axes are dominated;
    /// otherwise the linear scan. A requested kind is taken as it is.
    ///
    /// Either way a backend is only built when the metric vouches for the
    /// capability its pruning rests on — the grid for the axis bound, the
    /// cover tree for the triangle inequality — and anything else gets
    /// the exact linear scan, so a custom metric can never make an index
    /// silently drop a true neighbor. A degenerate radius (zero,
    /// negative, non-finite) also builds the linear scan instead of a
    /// grid, rather than panicking: the builder rejects such configs with
    /// typed [`crate::ConfigError`]s, so this only triggers for configs
    /// smuggled past validation (deserialization, FFI), where the
    /// engine's contract is debug-assert-only.
    pub fn from_config<P, M: Metric<P>>(
        requested: Option<NeighborIndexKind>,
        r: f64,
        dim: Option<usize>,
        metric: &M,
    ) -> Self {
        let axis_bound = metric.dominates_coordinate_axes();
        let kind = requested.unwrap_or(match dim {
            Some(d) if axis_bound && d <= GRID_MAX_DIM => NeighborIndexKind::Grid,
            _ if metric.is_metric() => NeighborIndexKind::CoverTree,
            _ if axis_bound => NeighborIndexKind::Grid,
            _ => NeighborIndexKind::LinearScan,
        });
        match kind {
            NeighborIndexKind::CoverTree if metric.is_metric() => {
                CellIndex::Cover(CoverTree::new(axis_bound))
            }
            NeighborIndexKind::Grid if axis_bound && r.is_finite() && r > 0.0 => {
                CellIndex::Grid(UniformGrid::new(r))
            }
            _ => CellIndex::Linear(LinearScan),
        }
    }

    /// Fig-style label of the implementation.
    pub fn label(&self) -> &'static str {
        match self {
            CellIndex::Linear(_) => "linear",
            CellIndex::Grid(_) => "grid",
            CellIndex::Cover(_) => "cover-tree",
        }
    }
}

impl<P: GridCoords> NeighborIndex<P> for CellIndex {
    fn on_insert<M: Metric<P>>(&mut self, id: CellId, seed: &P, slab: &CellSlab<P>, metric: &M) {
        match self {
            CellIndex::Linear(ix) => ix.on_insert(id, seed, slab, metric),
            CellIndex::Grid(ix) => ix.on_insert(id, seed, slab, metric),
            CellIndex::Cover(ix) => ix.on_insert(id, seed, slab, metric),
        }
    }

    fn on_remove<M: Metric<P>>(&mut self, id: CellId, seed: &P, slab: &CellSlab<P>, metric: &M) {
        match self {
            CellIndex::Linear(ix) => ix.on_remove(id, seed, slab, metric),
            CellIndex::Grid(ix) => ix.on_remove(id, seed, slab, metric),
            CellIndex::Cover(ix) => ix.on_remove(id, seed, slab, metric),
        }
    }

    fn nearest_within<M: Metric<P>>(
        &self,
        q: &P,
        radius: f64,
        slab: &CellSlab<P>,
        metric: &M,
        on_probe: &mut dyn FnMut(CellId, f64),
    ) -> Option<(CellId, f64)> {
        match self {
            CellIndex::Linear(ix) => ix.nearest_within(q, radius, slab, metric, on_probe),
            CellIndex::Grid(ix) => ix.nearest_within(q, radius, slab, metric, on_probe),
            CellIndex::Cover(ix) => ix.nearest_within(q, radius, slab, metric, on_probe),
        }
    }

    fn nearest_matching<M: Metric<P>>(
        &self,
        q: &P,
        slab: &CellSlab<P>,
        metric: &M,
        pred: &mut dyn FnMut(CellId, &Cell<P>) -> bool,
    ) -> Option<(CellId, f64)> {
        match self {
            CellIndex::Linear(ix) => ix.nearest_matching(q, slab, metric, pred),
            CellIndex::Grid(ix) => ix.nearest_matching(q, slab, metric, pred),
            CellIndex::Cover(ix) => ix.nearest_matching(q, slab, metric, pred),
        }
    }

    fn lower_bound_prunes(&self, q: &P, seed: &P, p_dist: f64, delta: f64) -> bool {
        match self {
            CellIndex::Linear(ix) => {
                NeighborIndex::<P>::lower_bound_prunes(ix, q, seed, p_dist, delta)
            }
            CellIndex::Grid(ix) => {
                NeighborIndex::<P>::lower_bound_prunes(ix, q, seed, p_dist, delta)
            }
            CellIndex::Cover(ix) => {
                NeighborIndex::<P>::lower_bound_prunes(ix, q, seed, p_dist, delta)
            }
        }
    }

    fn probe_conflicts(&self, q: &P, changed_seed: &P, radius: f64) -> bool {
        match self {
            CellIndex::Linear(ix) => ix.probe_conflicts(q, changed_seed, radius),
            CellIndex::Grid(ix) => ix.probe_conflicts(q, changed_seed, radius),
            CellIndex::Cover(ix) => ix.probe_conflicts(q, changed_seed, radius),
        }
    }

    fn maintain<M: Metric<P>>(&mut self, slab: &CellSlab<P>, metric: &M) -> u64 {
        match self {
            CellIndex::Linear(_) | CellIndex::Grid(_) => 0,
            CellIndex::Cover(ix) => NeighborIndex::maintain(ix, slab, metric),
        }
    }

    fn check_coherence<M: Metric<P>>(&self, slab: &CellSlab<P>, metric: &M) -> Result<(), String> {
        match self {
            CellIndex::Linear(ix) => ix.check_coherence(slab, metric),
            CellIndex::Grid(ix) => ix.check_coherence(slab, metric),
            CellIndex::Cover(ix) => ix.check_coherence(slab, metric),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_common::metric::Euclidean;
    use edm_common::point::DenseVector;

    fn label(kind: Option<NeighborIndexKind>, dim: usize) -> &'static str {
        CellIndex::from_config::<DenseVector, _>(kind, 0.5, Some(dim), &Euclidean).label()
    }

    #[test]
    fn from_config_builds_what_was_asked() {
        for dim in [2, 16] {
            assert_eq!(label(Some(NeighborIndexKind::LinearScan), dim), "linear");
            assert_eq!(label(Some(NeighborIndexKind::Grid), dim), "grid");
            assert_eq!(label(Some(NeighborIndexKind::CoverTree), dim), "cover-tree");
        }
    }

    #[test]
    fn degenerate_sides_degrade_to_the_linear_scan_without_panicking() {
        // The grid's bucket side is the radius `r`. Smuggled configs
        // (deserialization/FFI) bypass builder validation; the engine must
        // not panic in release builds.
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            for kind in [Some(NeighborIndexKind::Grid), None] {
                let ix = CellIndex::from_config::<DenseVector, _>(kind, bad, Some(2), &Euclidean);
                assert_eq!(ix.label(), "linear", "radius {bad} must degrade");
            }
        }
    }
}
