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
//!   When the bucket side is the engine's default (not user-pinned), the
//!   grid auto-tunes it: mean occupancy leaving a target band triggers an
//!   O(n) rebuild at a refined/coarsened side (counted in
//!   [`crate::EngineStats::grid_rebuilds`]).
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
//! distance-then-id tie-breaking) the brute-force scan would, so switching
//! index kinds never changes clustering output — only the number of
//! distance computations, which the engine counts in
//! [`crate::EngineStats::index_probed`] / [`crate::EngineStats::index_pruned`].

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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NeighborIndexKind {
    /// Brute-force full scan over the slab. Exact for every metric space;
    /// insert cost grows linearly with cell count.
    LinearScan,
    /// Uniform grid over cell seeds. Exact whenever the payload exposes
    /// coordinates and the metric dominates per-axis coordinate
    /// differences (see [`edm_common::point::GridCoords`]); payloads
    /// without coordinates degrade to a linear scan inside the grid, and
    /// the engine downgrades the whole index to [`LinearScan`] for
    /// metrics that do not assert the bound via
    /// [`edm_common::metric::Metric::dominates_coordinate_axes`] — a
    /// custom metric can never be silently mis-pruned.
    Grid {
        /// Bucket side length; `None` uses the cluster-cell radius `r`,
        /// which makes the 3^d neighborhood shell cover every assignment
        /// query. Must be positive and finite when given.
        side: Option<f64>,
    },
    /// Best-first metric tree over cell seeds ([`CoverTree`]). Exact for
    /// any true metric — the engine downgrades it to [`LinearScan`]
    /// unless the metric vouches for the triangle inequality via
    /// [`edm_common::metric::Metric::is_metric`]. Unlike the grid it
    /// needs no coordinate embedding, so it indexes token sets and other
    /// coordinate-less payloads, and it keeps pruning in high dimensions
    /// where uniform buckets degenerate into occupied-bucket sweeps.
    CoverTree,
    /// Runtime backend selection: the engine starts on the cheapest
    /// backend the metric's capability markers allow (grid when the
    /// metric dominates coordinate axes, else cover tree, else linear
    /// scan) and re-evaluates the choice at every maintenance cadence
    /// from observed workload statistics — grid-bucket occupancy vs the
    /// 3^d candidate-shell cost, and the engine's probed/pruned counters.
    /// A switch drains the old backend and refiles every cell into the
    /// new one (O(cells), counted both as a rebuild in
    /// [`crate::EngineStats::grid_rebuilds`] and as a selection event in
    /// [`crate::EngineStats::index_switches`]); consecutive-agreement
    /// hysteresis with a doubling confirmation requirement keeps the
    /// selector from flapping. All candidate backends are exact, so a
    /// switch never changes clustering output — only throughput.
    Auto,
}

impl Default for NeighborIndexKind {
    fn default() -> Self {
        NeighborIndexKind::Grid { side: None }
    }
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
    /// maintenance cadence: indexes that tune their own layout (grid
    /// bucket-side auto-tuning, cover-tree covering-radius re-tightening,
    /// auto-selection backend switches) work here and return the number
    /// of full rebuilds performed — a rebuild invalidates any cached
    /// probe state the parallel committer holds. `metric` lets
    /// metric-tree backends recompute exact bounds. Stateless indexes
    /// keep the default no-op.
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

/// The engine's concrete index: static dispatch over the three fixed
/// implementations (no boxing on the hot path) plus the boxed
/// auto-selecting wrapper.
#[derive(Debug, Clone)]
pub enum CellIndex {
    /// Brute-force fallback.
    Linear(LinearScan),
    /// Uniform grid over seeds.
    Grid(UniformGrid),
    /// Best-first metric tree over seeds.
    Cover(CoverTree),
    /// Runtime-selected backend ([`NeighborIndexKind::Auto`]); boxed so
    /// the selector's bookkeeping does not widen every fixed variant.
    Auto(Box<AutoCell>),
}

impl CellIndex {
    /// Builds the index a configuration asks for; `r` is the cluster-cell
    /// radius (the grid's default bucket side), `axis_bound` whether the engine's metric dominates per-axis
    /// coordinate differences (lets the cover tree hand out Chebyshev
    /// [`NeighborIndex::distance_lower_bound`]s; the grid kinds are only
    /// ever constructed when it holds), and `true_metric` whether the
    /// metric vouches for the triangle inequality (gates the cover tree
    /// as an [`NeighborIndexKind::Auto`] candidate — fixed kinds are
    /// downgraded by the engine before this call). A defaulted side
    /// (`side: None`) enables occupancy auto-tuning — the side is the
    /// engine's guess, free to refine; an explicit side is pinned.
    ///
    /// A degenerate side (zero, negative, non-finite) degrades to the
    /// linear scan instead of panicking: the builder
    /// rejects such configs with typed [`crate::ConfigError`]s, so this
    /// only triggers for configs smuggled past validation
    /// (deserialization, FFI), where the engine's contract is
    /// debug-assert-only.
    pub fn from_config(
        kind: NeighborIndexKind,
        r: f64,
        axis_bound: bool,
        true_metric: bool,
    ) -> Self {
        match kind {
            NeighborIndexKind::LinearScan => CellIndex::Linear(LinearScan),
            NeighborIndexKind::CoverTree => CellIndex::Cover(CoverTree::new(axis_bound)),
            NeighborIndexKind::Grid { side } => {
                let auto_tune = side.is_none();
                let side = side.unwrap_or(r);
                if !side.is_finite() || side <= 0.0 {
                    CellIndex::Linear(LinearScan)
                } else if auto_tune {
                    CellIndex::Grid(UniformGrid::auto_tuned(side))
                } else {
                    CellIndex::Grid(UniformGrid::new(side))
                }
            }
            NeighborIndexKind::Auto => {
                let can_grid = axis_bound && r.is_finite() && r > 0.0;
                if !can_grid && !true_metric {
                    // Neither candidate backend is sound for this metric;
                    // a selector with one option is dead weight.
                    CellIndex::Linear(LinearScan)
                } else {
                    CellIndex::Auto(Box::new(AutoCell::new(r, can_grid, true_metric)))
                }
            }
        }
    }

    /// Fig-style label of the active implementation; the auto selector
    /// reports its currently selected backend behind an `auto:` prefix.
    pub fn label(&self) -> &'static str {
        match self {
            CellIndex::Linear(_) => "linear",
            CellIndex::Grid(_) => "grid",
            CellIndex::Cover(_) => "cover-tree",
            CellIndex::Auto(a) => match &a.inner {
                CellIndex::Linear(_) => "auto:linear",
                CellIndex::Grid(_) => "auto:grid",
                CellIndex::Cover(_) => "auto:cover-tree",
                CellIndex::Auto(_) => unreachable!("auto index cannot nest"),
            },
        }
    }

    /// Feeds the engine's cumulative probe accounting
    /// ([`crate::EngineStats::index_probed`] /
    /// [`crate::EngineStats::index_pruned`]) to the auto selector, which
    /// turns the per-cadence deltas into its prune-effectiveness signal.
    /// No-op for fixed backends. Called right before
    /// [`NeighborIndex::maintain`] on the maintenance cadence, so the
    /// inputs to every selection decision are deterministic — identical
    /// for the serial and parallel ingest paths, which keeps the two
    /// bit-identical even through backend switches.
    pub fn note_probe_stats(&mut self, probed: u64, pruned: u64) {
        if let CellIndex::Auto(a) = self {
            a.cur_probed = probed;
            a.cur_pruned = pruned;
        }
    }

    /// Backend switches performed by the auto selector so far (`0` for
    /// fixed backends) — mirrored into
    /// [`crate::EngineStats::index_switches`].
    pub fn auto_switches(&self) -> u64 {
        match self {
            CellIndex::Auto(a) => a.switches,
            _ => 0,
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
            CellIndex::Auto(a) => a.inner.bbox_conflicts(q, min, max, radius),
            CellIndex::Linear(_) | CellIndex::Cover(_) => true,
        }
    }
}

/// Candidate backend families the auto selector can pick between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AutoChoice {
    /// Uniform grid.
    Grid,
    /// Cover tree.
    Cover,
    /// Linear scan — only when no capability admits a better backend.
    Linear,
}

/// Live cells below which the auto selector never reconsiders its
/// backend: tiny populations make every backend cheap and every workload
/// statistic noisy (mirrors the grid's own auto-tune floor).
const AUTO_MIN_CELLS: usize = 256;
/// Fraction of probes the index must fail to prune before the selector
/// calls the current backend ineffective on prune-rate grounds.
const AUTO_POOR_PRUNE: f64 = 0.25;
/// Probe-accounting volume (probed + pruned since the last decision)
/// below which the prune-rate signal is considered noise.
const AUTO_MIN_EVIDENCE: u64 = 1024;
/// Consecutive agreeing decisions required before the first switch.
const AUTO_STREAK_INITIAL: u32 = 2;
/// Cap on the doubling confirmation requirement: even a workload that
/// has caused several switches can still earn another within a bounded
/// number of maintenance cadences.
const AUTO_STREAK_MAX: u32 = 64;

/// Runtime index auto-selection ([`NeighborIndexKind::Auto`]): wraps one
/// concrete backend and re-evaluates the choice at every maintenance
/// cadence from deterministic workload statistics.
///
/// Selection signals, in order of precedence:
///
/// 1. **Capability** — a coordinate-less (or dimension-mixed) seed makes
///    the grid family a mere scan wrapper, so the first one observed
///    forces the metric-tree side immediately (no hysteresis: this is a
///    soundness-of-purpose signal, not a statistical one).
/// 2. **Sweep regime** — when the 3^d assignment shell holds more
///    candidate buckets than the grid has occupied ones, grid queries
///    have degenerated into occupied-bucket sweeps (the high-dimensional
///    failure mode the ROADMAP names); the cover tree's measured-distance
///    pruning is the right tool. While on the cover tree the occupied
///    bucket count is unavailable, so the live cell count stands in — an
///    upper bound on occupied buckets, making the test conservative
///    about switching *back* to the grid.
/// 3. **Prune rate** — a grid that computes distances to more than
///    `AUTO_POOR_PRUNE` of the slab per probe (with at least
///    `AUTO_MIN_EVIDENCE` accounted probes as evidence) is not earning
///    its keep either.
///
/// A decision differing from the current backend must repeat on
/// consecutive cadences (`streak_required` times, doubling after every
/// switch up to `AUTO_STREAK_MAX`) before the switch happens; any
/// agreeing decision resets the streak. The switch itself drains the old
/// backend and refiles every live cell in slab order — O(cells), counted
/// as a rebuild (which invalidates the parallel committer's cached
/// probes) and as a selection event.
#[derive(Debug, Clone)]
pub struct AutoCell {
    /// The currently selected backend (never `Auto` itself).
    inner: CellIndex,
    /// Cluster-cell radius — the grid side used when (re)building a grid
    /// backend.
    r: f64,
    /// Whether the grid family is sound for the engine's metric/payload.
    can_grid: bool,
    /// Whether the cover tree is sound for the engine's metric.
    can_cover: bool,
    /// Dimensionality of the first coordinate-bearing seed observed.
    dim: Option<usize>,
    /// Set once any seed arrives without coordinates (or with a
    /// dimensionality disagreeing with `dim`) — from then on the grid
    /// family degrades to scanning side lists, so the selector abandons
    /// it for good.
    coordless_seen: bool,
    /// Cumulative engine probe counters, fed by
    /// [`CellIndex::note_probe_stats`] before each decision.
    cur_probed: u64,
    cur_pruned: u64,
    /// The counters as of the previous decision (delta basis).
    last_probed: u64,
    last_pruned: u64,
    /// The backend the previous differing decision wanted, and how many
    /// consecutive cadences have wanted it.
    streak_choice: AutoChoice,
    streak: u32,
    /// Consecutive agreeing decisions required before the next switch.
    streak_required: u32,
    /// Backend switches performed (selection events).
    switches: u64,
}

impl AutoCell {
    /// Creates the selector on its starting backend: the grid when the
    /// capabilities allow it (the engine default — cheapest when sound),
    /// else the cover tree, else the linear scan.
    fn new(r: f64, can_grid: bool, can_cover: bool) -> Self {
        let start = if can_grid {
            AutoChoice::Grid
        } else if can_cover {
            AutoChoice::Cover
        } else {
            AutoChoice::Linear
        };
        AutoCell {
            inner: Self::build(start, r),
            r,
            can_grid,
            can_cover,
            dim: None,
            coordless_seen: false,
            cur_probed: 0,
            cur_pruned: 0,
            last_probed: 0,
            last_pruned: 0,
            streak_choice: start,
            streak: 0,
            streak_required: AUTO_STREAK_INITIAL,
            switches: 0,
        }
    }

    /// Builds an empty backend of the chosen family. Grid sides always
    /// auto-tune: under `Auto` the side is the engine's guess by
    /// definition.
    fn build(choice: AutoChoice, r: f64) -> CellIndex {
        match choice {
            AutoChoice::Linear => CellIndex::Linear(LinearScan),
            AutoChoice::Cover => CellIndex::Cover(CoverTree::new(true)),
            AutoChoice::Grid => CellIndex::Grid(UniformGrid::auto_tuned(r)),
        }
    }

    /// The family of the current backend.
    fn current(&self) -> AutoChoice {
        match &self.inner {
            CellIndex::Linear(_) => AutoChoice::Linear,
            CellIndex::Grid(_) => AutoChoice::Grid,
            CellIndex::Cover(_) => AutoChoice::Cover,
            CellIndex::Auto(_) => unreachable!("auto index cannot nest"),
        }
    }

    /// Tracks payload capability from an inserted seed (dimensionality,
    /// coordinate-lessness).
    fn observe<P: GridCoords>(&mut self, seed: &P) {
        match seed.grid_coords() {
            None => self.coordless_seen = true,
            Some(c) => match self.dim {
                None => self.dim = Some(c.len()),
                Some(d) if d != c.len() => self.coordless_seen = true,
                Some(_) => {}
            },
        }
    }

    /// Occupied buckets of a grid-family backend, `None` otherwise.
    fn occupied_buckets(&self) -> Option<usize> {
        match &self.inner {
            CellIndex::Grid(g) => Some(g.occupied_buckets()),
            _ => None,
        }
    }

    /// The backend this cadence's statistics argue for.
    fn desired<P>(&self, slab: &CellSlab<P>) -> AutoChoice {
        if self.coordless_seen || !self.can_grid {
            return if self.can_cover { AutoChoice::Cover } else { AutoChoice::Linear };
        }
        // 3^d candidate shell vs the structures it would be enumerated
        // against: occupied buckets when a grid is live, the live cell
        // count (an upper bound on occupied buckets) otherwise.
        let cube = self.dim.map_or(1.0, |d| 3.0_f64.powi(d.min(i32::MAX as usize) as i32));
        let dense = self.occupied_buckets().unwrap_or(slab.len());
        let sweep_regime = cube > dense as f64;
        // Prune effectiveness of the current backend since the last
        // decision, judged only with enough evidence.
        let dp = self.cur_probed.saturating_sub(self.last_probed);
        let dr = self.cur_pruned.saturating_sub(self.last_pruned);
        let poor_prune = dp + dr >= AUTO_MIN_EVIDENCE
            && dp as f64 > AUTO_POOR_PRUNE * (dp + dr) as f64
            && self.current() == AutoChoice::Grid;
        if (sweep_regime || poor_prune) && self.can_cover {
            AutoChoice::Cover
        } else {
            AutoChoice::Grid
        }
    }

    /// One selection decision at maintenance cadence; returns 1 when a
    /// backend switch (a full rebuild) happened.
    fn decide<P: GridCoords, M: Metric<P>>(&mut self, slab: &CellSlab<P>, metric: &M) -> u64 {
        // Capability loss switches immediately — statistics cannot argue
        // a coordinate-less payload back onto the grid.
        let capability_forced =
            (self.coordless_seen || !self.can_grid) && self.current() == AutoChoice::Grid;
        if !capability_forced && slab.len() < AUTO_MIN_CELLS {
            self.settle();
            return 0;
        }
        let desired = self.desired(slab);
        if desired == self.current() {
            self.settle();
            return 0;
        }
        if !capability_forced {
            if desired == self.streak_choice {
                self.streak += 1;
            } else {
                self.streak_choice = desired;
                self.streak = 1;
            }
            if self.streak < self.streak_required {
                // Not confirmed yet; keep the probe-delta basis moving so
                // the next decision judges fresh evidence.
                self.last_probed = self.cur_probed;
                self.last_pruned = self.cur_pruned;
                return 0;
            }
        }
        self.switch_to(desired, slab, metric);
        1
    }

    /// Resets hysteresis after a decision that agreed with the current
    /// backend, and re-bases the probe-delta window.
    fn settle(&mut self) {
        self.streak_choice = self.current();
        self.streak = 0;
        self.last_probed = self.cur_probed;
        self.last_pruned = self.cur_pruned;
    }

    /// Drains the current backend and refiles every live cell into a
    /// fresh one of the chosen family, in slab order (deterministic for
    /// a given operation history, so serial and parallel ingest switch
    /// identically).
    fn switch_to<P: GridCoords, M: Metric<P>>(
        &mut self,
        choice: AutoChoice,
        slab: &CellSlab<P>,
        metric: &M,
    ) {
        let mut fresh = Self::build(choice, self.r);
        for (id, cell) in slab.iter() {
            fresh.on_insert(id, &cell.seed, slab, metric);
        }
        self.inner = fresh;
        self.switches += 1;
        self.streak_required = (self.streak_required * 2).min(AUTO_STREAK_MAX);
        self.settle();
    }
}

impl<P: GridCoords> NeighborIndex<P> for CellIndex {
    fn on_insert<M: Metric<P>>(&mut self, id: CellId, seed: &P, slab: &CellSlab<P>, metric: &M) {
        match self {
            CellIndex::Linear(ix) => ix.on_insert(id, seed, slab, metric),
            CellIndex::Grid(ix) => ix.on_insert(id, seed, slab, metric),
            CellIndex::Cover(ix) => ix.on_insert(id, seed, slab, metric),
            CellIndex::Auto(a) => {
                a.observe(seed);
                a.inner.on_insert(id, seed, slab, metric);
            }
        }
    }

    fn on_remove<M: Metric<P>>(&mut self, id: CellId, seed: &P, slab: &CellSlab<P>, metric: &M) {
        match self {
            CellIndex::Linear(ix) => ix.on_remove(id, seed, slab, metric),
            CellIndex::Grid(ix) => ix.on_remove(id, seed, slab, metric),
            CellIndex::Cover(ix) => ix.on_remove(id, seed, slab, metric),
            CellIndex::Auto(a) => a.inner.on_remove(id, seed, slab, metric),
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
            CellIndex::Auto(a) => a.inner.nearest_within(q, radius, slab, metric, on_probe),
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
            CellIndex::Auto(a) => a.inner.nearest_matching(q, slab, metric, pred),
        }
    }

    fn distance_lower_bound(&self, q: &P, seed: &P) -> f64 {
        match self {
            CellIndex::Linear(ix) => NeighborIndex::<P>::distance_lower_bound(ix, q, seed),
            CellIndex::Grid(ix) => NeighborIndex::<P>::distance_lower_bound(ix, q, seed),
            CellIndex::Cover(ix) => NeighborIndex::<P>::distance_lower_bound(ix, q, seed),
            CellIndex::Auto(a) => a.inner.distance_lower_bound(q, seed),
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
            CellIndex::Auto(a) => a.inner.lower_bound_prunes(q, seed, p_dist, delta),
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
            CellIndex::Auto(a) => {
                a.inner.probe_conflicts(q, changed, changed_seed, radius, slab, metric)
            }
        }
    }

    fn maintain<M: Metric<P>>(&mut self, slab: &CellSlab<P>, metric: &M) -> u64 {
        match self {
            CellIndex::Linear(_) => 0,
            CellIndex::Grid(ix) => ix.maintain(slab),
            CellIndex::Cover(ix) => NeighborIndex::maintain(ix, slab, metric),
            CellIndex::Auto(a) => {
                // The current backend maintains itself first (grid side
                // retuning, cover-tree radius re-tightening), then the
                // selector reconsiders the backend with fresh statistics.
                let inner = a.inner.maintain(slab, metric);
                inner + a.decide(slab, metric)
            }
        }
    }

    fn check_coherence<M: Metric<P>>(&self, slab: &CellSlab<P>, metric: &M) -> Result<(), String> {
        match self {
            CellIndex::Linear(ix) => ix.check_coherence(slab, metric),
            CellIndex::Grid(ix) => ix.check_coherence(slab, metric),
            CellIndex::Cover(ix) => ix.check_coherence(slab, metric),
            CellIndex::Auto(a) => a.inner.check_coherence(slab, metric),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_config_builds_what_was_asked() {
        assert_eq!(
            CellIndex::from_config(NeighborIndexKind::LinearScan, 0.5, true, true).label(),
            "linear"
        );
        assert_eq!(
            CellIndex::from_config(NeighborIndexKind::Grid { side: None }, 0.5, true, true).label(),
            "grid"
        );
        assert_eq!(
            CellIndex::from_config(NeighborIndexKind::Grid { side: Some(2.0) }, 0.5, true, true)
                .label(),
            "grid"
        );
        assert_eq!(
            CellIndex::from_config(NeighborIndexKind::CoverTree, 0.5, true, true).label(),
            "cover-tree"
        );
    }

    #[test]
    fn auto_starts_on_the_best_capability_backend() {
        // Axis-dominating metric: the grid is sound and cheapest.
        assert_eq!(
            CellIndex::from_config(NeighborIndexKind::Auto, 0.5, true, true).label(),
            "auto:grid"
        );
        // True metric without coordinates (token sets): cover tree,
        // immediately — no warm-up on a backend that can only scan.
        assert_eq!(
            CellIndex::from_config(NeighborIndexKind::Auto, 0.5, false, true).label(),
            "auto:cover-tree"
        );
        // A metric claiming nothing leaves the selector one option; the
        // wrapper is dropped entirely.
        assert_eq!(
            CellIndex::from_config(NeighborIndexKind::Auto, 0.5, false, false).label(),
            "linear"
        );
        // A degenerate radius only poisons the grid side.
        assert_eq!(
            CellIndex::from_config(NeighborIndexKind::Auto, f64::NAN, true, true).label(),
            "auto:cover-tree"
        );
        assert_eq!(
            CellIndex::from_config(NeighborIndexKind::Auto, f64::NAN, true, false).label(),
            "linear"
        );
    }

    #[test]
    fn degenerate_sides_degrade_to_the_linear_scan_without_panicking() {
        // Smuggled configs (deserialization/FFI) bypass builder validation;
        // the engine must not panic in release builds.
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let ix = CellIndex::from_config(
                NeighborIndexKind::Grid { side: Some(bad) },
                0.5,
                true,
                true,
            );
            assert_eq!(ix.label(), "linear", "side {bad} must degrade");
        }
        // A degenerate radius poisons the default side the same way.
        let ix =
            CellIndex::from_config(NeighborIndexKind::Grid { side: None }, f64::NAN, true, true);
        assert_eq!(ix.label(), "linear");
    }

    #[test]
    fn auto_switches_to_the_cover_tree_when_coordinates_disappear() {
        use edm_common::metric::Jaccard;
        use edm_common::point::TokenSet;
        let mut ix = CellIndex::from_config(NeighborIndexKind::Auto, 0.5, true, true);
        // `can_grid` came from the engine's metric capability; feed the
        // selector a coordinate-less payload stream (possible because
        // capability markers are per-metric, not per-payload-instance).
        assert_eq!(ix.label(), "auto:grid");
        let mut slab: CellSlab<TokenSet> = CellSlab::new();
        let id = slab.insert(Cell::new(TokenSet::new(vec![1, 2, 3]), 0.0));
        ix.on_insert(id, &slab.get(id).seed, &slab, &Jaccard);
        // Capability loss bypasses both the population floor and
        // hysteresis: the very next maintenance cadence switches.
        assert_eq!(ix.maintain(&slab, &Jaccard), 1);
        assert_eq!(ix.label(), "auto:cover-tree");
        assert_eq!(ix.auto_switches(), 1);
        assert!(ix.check_coherence(&slab, &Jaccard).is_ok());
        // The statistics can never argue their way back onto the grid.
        assert_eq!(ix.maintain(&slab, &Jaccard), 0);
        assert_eq!(ix.label(), "auto:cover-tree");
    }
}
