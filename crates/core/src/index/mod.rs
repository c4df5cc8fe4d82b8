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
//! The engine picks its index once, at construction
//! ([`CellIndex::from_config`]), and keeps it for its whole life.

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

/// Which neighbor index the engine builds — the
/// [`crate::EdmConfigBuilder::neighbor_index`] knob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
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
    /// custom metric can never be silently mis-pruned. The default.
    #[default]
    Grid,
    /// Best-first metric tree over cell seeds ([`CoverTree`]). Exact for
    /// any true metric — the engine downgrades it to [`LinearScan`]
    /// unless the metric vouches for the triangle inequality via
    /// [`edm_common::metric::Metric::is_metric`]. Unlike the grid it
    /// needs no coordinate embedding, so it indexes token sets and other
    /// coordinate-less payloads, and it keeps pruning in high dimensions
    /// where uniform buckets degenerate into occupied-bucket sweeps.
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

    /// A sound lower bound on `metric.dist(q, seed)` that costs no metric
    /// evaluation; `0.0` when the index can prove nothing. Used by the
    /// engine to run the triangle filter on cells whose exact distance the
    /// assignment probe skipped.
    fn distance_lower_bound(&self, q: &P, seed: &P) -> f64;

    /// Whether the index can prove `metric.dist(q, seed) - p_dist > delta`
    /// without a metric evaluation — the exact prune test of the engine's
    /// Theorem-2 fallback path, fused so the index can short-circuit. The
    /// default derives the decision from
    /// [`NeighborIndex::distance_lower_bound`]; coordinate-backed indexes
    /// override it with a per-axis walk that reaches the identical
    /// decision (the test is monotone in the bound, so the first axis that
    /// proves it settles it) in O(1) for well-separated cells instead of
    /// O(d) for every candidate.
    fn lower_bound_prunes(&self, q: &P, seed: &P, p_dist: f64, delta: f64) -> bool {
        self.distance_lower_bound(q, seed) - p_dist > delta
    }

    /// Whether a structural change at `changed` — a cell with seed
    /// `changed_seed` inserted into (or removed from) this index — could
    /// alter the result **or the probed set** of
    /// [`NeighborIndex::nearest_within`]`(q, radius, ..)`. The parallel
    /// batch committer asks this to decide which pre-computed assignment
    /// probes survive an earlier commit's cell birth; a stale probe is
    /// simply redone serially, so the method affects only throughput,
    /// never output. `slab` and `metric` let structural backends (the
    /// cover tree) measure a real change horizon instead of claiming
    /// everything; `changed` may or may not still be live in `slab`.
    ///
    /// Implementations must be **conservative**: return `true` whenever
    /// the probe cannot be proven untouched. The default claims every
    /// change conflicts — exact for the linear scan, which probes every
    /// live cell.
    fn probe_conflicts<M: Metric<P>>(
        &self,
        _q: &P,
        _changed: CellId,
        _changed_seed: &P,
        _radius: f64,
        _slab: &CellSlab<P>,
        _metric: &M,
    ) -> bool {
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

/// Chebyshev (L∞) distance between two payloads' coordinate embeddings —
/// `0.0` when either has none or the dimensionalities disagree. A sound
/// lower bound on any metric that dominates per-axis coordinate
/// differences; shared by the grid and cover-tree
/// [`NeighborIndex::distance_lower_bound`] implementations.
pub(crate) fn chebyshev_lower_bound<P: GridCoords>(q: &P, seed: &P) -> f64 {
    match (q.grid_coords(), seed.grid_coords()) {
        (Some(a), Some(b)) if a.len() == b.len() => {
            a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
        }
        _ => 0.0,
    }
}

/// Short-circuiting form of the Theorem-2 fallback prune: true iff
/// `chebyshev_lower_bound(q, seed) - p_dist > delta`, decided at the first
/// axis that proves it. `fl(u - p_dist)` is monotone non-decreasing in
/// `u`, so "some axis proves it" and "the maximum axis proves it" are the
/// same decision, bit for bit — only the cost changes: far cells exit on
/// their first separated axis instead of walking every coordinate.
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
    /// Builds the index a configuration asks for; `r` is the cluster-cell
    /// radius (the grid's bucket side) and `axis_bound` whether the
    /// engine's metric dominates per-axis coordinate differences (lets the
    /// cover tree hand out Chebyshev
    /// [`NeighborIndex::distance_lower_bound`]s; the grid is only ever
    /// asked for when it holds — the engine downgrades unsound kinds
    /// before this call). The choice is final: no index is re-selected or
    /// re-tuned afterwards.
    ///
    /// A degenerate radius (zero, negative, non-finite) builds the linear
    /// scan instead of a grid, rather than panicking: the builder rejects
    /// such configs with typed [`crate::ConfigError`]s, so this only
    /// triggers for configs smuggled past validation (deserialization,
    /// FFI), where the engine's contract is debug-assert-only.
    pub fn from_config(kind: NeighborIndexKind, r: f64, axis_bound: bool) -> Self {
        match kind {
            NeighborIndexKind::LinearScan => CellIndex::Linear(LinearScan),
            NeighborIndexKind::CoverTree => CellIndex::Cover(CoverTree::new(axis_bound)),
            NeighborIndexKind::Grid if r.is_finite() && r > 0.0 => {
                CellIndex::Grid(UniformGrid::new(r))
            }
            NeighborIndexKind::Grid => CellIndex::Linear(LinearScan),
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

    /// Whether any cell birth inside the axis-aligned bounding box
    /// `[min, max]` could conflict with a `nearest_within(q, radius, ..)`
    /// probe — the bounding-box generalization of
    /// [`NeighborIndex::probe_conflicts`], used by the batch committer's
    /// birth ledger once a round has seen too many births to track
    /// individually. Lives in the index (not the ledger) because the
    /// coordless / dimension-mismatch escapes need the grid's tracked
    /// dimensionality to stay sound. Conservative `true` for backends
    /// with no box geometry: the linear scan probes everything, and the
    /// cover tree's change horizon is per-change, not global.
    pub(crate) fn bbox_conflicts<P: GridCoords>(
        &self,
        q: &P,
        min: &[f64],
        max: &[f64],
        radius: f64,
    ) -> bool {
        match self {
            CellIndex::Grid(g) => g.bbox_conflicts(q, min, max, radius),
            CellIndex::Linear(_) | CellIndex::Cover(_) => true,
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

    fn distance_lower_bound(&self, q: &P, seed: &P) -> f64 {
        match self {
            CellIndex::Linear(ix) => NeighborIndex::<P>::distance_lower_bound(ix, q, seed),
            CellIndex::Grid(ix) => NeighborIndex::<P>::distance_lower_bound(ix, q, seed),
            CellIndex::Cover(ix) => NeighborIndex::<P>::distance_lower_bound(ix, q, seed),
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

    fn probe_conflicts<M: Metric<P>>(
        &self,
        q: &P,
        changed: CellId,
        changed_seed: &P,
        radius: f64,
        slab: &CellSlab<P>,
        metric: &M,
    ) -> bool {
        match self {
            CellIndex::Linear(ix) => {
                ix.probe_conflicts(q, changed, changed_seed, radius, slab, metric)
            }
            CellIndex::Grid(ix) => {
                ix.probe_conflicts(q, changed, changed_seed, radius, slab, metric)
            }
            CellIndex::Cover(ix) => {
                ix.probe_conflicts(q, changed, changed_seed, radius, slab, metric)
            }
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

    #[test]
    fn from_config_builds_what_was_asked() {
        assert_eq!(
            CellIndex::from_config(NeighborIndexKind::LinearScan, 0.5, true).label(),
            "linear"
        );
        assert_eq!(CellIndex::from_config(NeighborIndexKind::Grid, 0.5, true).label(), "grid");
        assert_eq!(
            CellIndex::from_config(NeighborIndexKind::CoverTree, 0.5, true).label(),
            "cover-tree"
        );
    }

    #[test]
    fn degenerate_sides_degrade_to_the_linear_scan_without_panicking() {
        // The grid's bucket side is the radius `r`. Smuggled configs
        // (deserialization/FFI) bypass builder validation; the engine must
        // not panic in release builds.
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let ix = CellIndex::from_config(NeighborIndexKind::Grid, bad, true);
            assert_eq!(ix.label(), "linear", "radius {bad} must degrade");
        }
    }
}
