//! The EDMStream engine (paper §4), as a layered pipeline.
//!
//! Processing per stream point (Fig 5) flows through three layers, each
//! owned by one submodule, with [`EdmStream`] as the thin facade tying
//! them together over shared state:
//!
//! * [`ingest`](self) — **assignment + admission** (`ingest.rs`): the
//!   nearest cell seed within `r` absorbs the point, else a new inactive
//!   cell is born into the outlier reservoir; a reservoir cell crossing
//!   the active threshold is inserted into the DP-Tree. The seed lookup
//!   goes through the configured [`crate::index::NeighborIndex`] (which
//!   keeps it sub-linear in cell count for coordinate payloads), and the
//!   initialization batch pass lives here too.
//! * [`maintain`](self) — **dependency + decay + recycling**
//!   (`maintain.rs`): the absorbing cell rose in the density order; only
//!   cells it *overtook* can change dependency (Theorem 1), and the
//!   triangle inequality prunes most of those (Theorem 2). On the
//!   maintenance cadence, active cells falling below the threshold move
//!   (with their whole subtree) to the reservoir, and reservoir cells
//!   idle past ΔT_del are recycled (Theorem 3) — found through an
//!   idle-ordered queue, never by scanning the slab.
//! * [`query`](self) — **read models** (`query.rs`): clusters, the
//!   decision graph, frozen [`crate::ClusterSnapshot`]s, point-membership
//!   lookups, the event-log cursors, and the invariant checkers tests
//!   drive.
//!
//! Structural changes mark the tree dirty; the evolution registry then
//! diffs the MSDSubTree partition and records emerge / disappear / split /
//! merge / adjust events (§3.3). The adaptive-τ controller re-optimizes
//! the separation threshold on a configurable cadence (§5).
//!
//! The layering is behavioral documentation, not just file hygiene: no
//! query ever mutates engine state, ingest is the only layer that creates
//! cells, and maintain is the only layer that deletes them — so the
//! index/slab coherence argument reduces to auditing two submodules.

mod ingest;
mod maintain;
mod parallel;
#[allow(unsafe_code)]
mod pool;
mod query;
#[cfg(test)]
mod tests;

pub use pool::live_pool_workers;

use edm_common::decay::DecayModel;
use edm_common::metric::Metric;
use edm_common::point::GridCoords;
use edm_common::time::Timestamp;

use crate::cell::CellId;
use crate::config::EdmConfig;
use crate::evolution::{ClusterRegistry, EvolutionLog};
use crate::evolve::EvolutionTracker;
use crate::filters::EngineStats;
use crate::index::CellIndex;
use crate::slab::CellSlab;
use crate::tau::TauController;

use ingest::{BirthLedger, ScratchDistances};
use maintain::IdleQueue;
use parallel::ProbePool;
use pool::WorkerPool;

/// Engine phase: caching the initialization buffer, or running.
enum Phase<P> {
    Caching(Vec<(P, Timestamp)>),
    Running,
}

/// The EDMStream engine, generic over payload type and metric.
///
/// A facade over the three pipeline layers (see the module docs): the
/// struct owns all shared state; `ingest.rs`, `maintain.rs` and
/// `query.rs` each implement their slice of the behavior as inherent
/// methods on it.
pub struct EdmStream<P, M> {
    cfg: EdmConfig,
    metric: M,
    slab: CellSlab<P>,
    phase: Phase<P>,
    tau_ctl: TauController,
    registry: ClusterRegistry,
    log: EvolutionLog,
    /// Incremental consumer of the event log: lineage graph, rolling
    /// summaries, and the sealed per-generation digest records behind
    /// `lineage_of` / `digest_since`.
    tracker: EvolutionTracker,
    stats: EngineStats,
    /// Neighbor index over cell seeds; answers assignment and
    /// nearest-denser queries without scanning the whole slab.
    index: CellIndex,
    /// |p, s_c| per slab slot, filled by the assignment scan of the current
    /// point (feeds the triangle filter for free, paper §4.2).
    scratch: ScratchDistances,
    /// Inactive cells ordered by idle time — the recycling layer pops
    /// expired cells from here instead of sweeping the slab (ΔT_del
    /// recycling in O(recycled), not O(total cells)).
    idle: IdleQueue,
    /// Reusable result buffers for the parallel probe phase of
    /// `insert_batch` (idle while `ingest_threads` is 1).
    probe_pool: ProbePool,
    /// The persistent worker pool the probe fan-out dispatches through.
    /// Spawns `ingest_threads − 1` parked threads lazily on the first
    /// real round; joined when the engine drops.
    workers: WorkerPool,
    /// Birth tracking for the batch commit loop's probe revalidation
    /// decisions (reused across rounds).
    ledger: BirthLedger<P>,
    active_thr: f64,
    dt_del: f64,
    start: Option<Timestamp>,
    now: Timestamp,
    /// The DP-Tree population: ids of all currently active cells. Kept so
    /// the per-absorb dependency candidate pass walks only the tree, not
    /// the (much larger) reservoir-dominated slab.
    active_ids: Vec<CellId>,
    /// The densest active cell (the DP-Tree root, by the single-root
    /// invariant). Densities decay uniformly, so only an absorbing or
    /// freshly activated cell can displace it — an O(1) comparison per
    /// absorb. Lets `recompute_dep` skip the nearest-denser search
    /// outright when the rising cell *is* the new maximum, the one case
    /// where that search would otherwise exhaust the whole index proving
    /// a negative.
    apex: Option<CellId>,
    reservoir_peak: usize,
    structure_dirty: bool,
}

impl<P: Clone + GridCoords + Send + Sync, M: Metric<P>> EdmStream<P, M> {
    /// Creates an engine; the first `cfg.init_points` inserts are buffered
    /// for the initialization step.
    ///
    /// Never fails: an [`EdmConfig`] can only be obtained from
    /// [`EdmConfig::builder`], whose `build()` already validated it.
    /// Configs smuggled in from outside the builder (deserialization,
    /// FFI) are the caller's responsibility — gate them through
    /// [`EdmConfig::check`]; this constructor only debug-asserts.
    pub fn new(cfg: EdmConfig, metric: M) -> Self {
        debug_assert!(cfg.check().is_ok(), "config bypassed builder validation: {:?}", cfg.check());
        // Test-harness knob: `EDM_FORCE_INGEST_THREADS=<n>` forces the
        // parallel batch-ingest path onto engines that left the knob at
        // its default — so an entire test suite can run an extra pass
        // with phase-1 probing live (the CI test matrix does exactly that;
        // `cargo test` builds with debug assertions, so the knob is live
        // there). It is deliberately ignored when the caller chose a
        // value — and compiled out of release builds entirely, where a
        // stray environment variable must never change library behavior
        // (the release default really is the serial loop, byte for byte).
        #[cfg(debug_assertions)]
        let cfg = {
            let mut cfg = cfg;
            if cfg.ingest_threads() == 1 {
                if let Some(n) = std::env::var("EDM_FORCE_INGEST_THREADS")
                    .ok()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 1)
                {
                    cfg.ingest_threads = n;
                }
            }
            cfg
        };
        let active_thr = cfg.active_threshold();
        let dt_del = cfg.delta_t_del();
        // Each index backend is only built when the metric vouches for
        // the capability its pruning rests on: the grid needs the
        // axis-domination bound ([`Metric::dominates_coordinate_axes`]),
        // the cover tree needs the triangle inequality
        // ([`Metric::is_metric`]). Anything else gets the exact linear
        // scan, so a custom metric can never make an index silently drop
        // a true neighbor. The index chosen here is kept for the engine's
        // whole life.
        let axis_bound = metric.dominates_coordinate_axes();
        let index_kind = match cfg.neighbor_index() {
            crate::index::NeighborIndexKind::Grid if !axis_bound => {
                crate::index::NeighborIndexKind::LinearScan
            }
            crate::index::NeighborIndexKind::CoverTree if !metric.is_metric() => {
                crate::index::NeighborIndexKind::LinearScan
            }
            kind => kind,
        };
        EdmStream {
            tau_ctl: TauController::new(cfg.tau_mode()),
            phase: Phase::Caching(Vec::with_capacity(cfg.init_points())),
            metric,
            slab: CellSlab::new(),
            registry: ClusterRegistry::new(),
            log: EvolutionLog::with_capacity(cfg.event_capacity()),
            tracker: EvolutionTracker::new(cfg.event_capacity(), cfg.digest_history()),
            stats: EngineStats::default(),
            index: CellIndex::from_config(index_kind, cfg.r(), axis_bound),
            scratch: ScratchDistances::default(),
            idle: IdleQueue::default(),
            probe_pool: ProbePool::default(),
            workers: WorkerPool::new(cfg.ingest_threads()),
            ledger: BirthLedger::default(),
            active_thr,
            dt_del,
            start: None,
            now: 0.0,
            active_ids: Vec::new(),
            apex: None,
            reservoir_peak: 0,
            structure_dirty: false,
            cfg,
        }
    }

    /// Decay model in use.
    #[inline]
    fn decay(&self) -> &DecayModel {
        &self.cfg.decay
    }

    /// The activation threshold at time `t` (age-adjusted unless disabled;
    /// floored at 1 so a threshold below a single fresh point never
    /// occurs). See `EdmConfig::age_adjusted_threshold`.
    #[inline]
    fn threshold_at(&self, t: Timestamp) -> f64 {
        if !self.cfg.age_adjusted_threshold {
            return self.active_thr;
        }
        let age = (t - self.start.unwrap_or(t)).max(0.0);
        let ret = self.cfg.decay.retention();
        (self.active_thr * (1.0 - ret.powf(age))).max(1.0)
    }
}

/// Strict density order with id tie-break (ids ascending win).
#[inline]
fn denser_scalar(rho_a: f64, id_a: CellId, rho_b: f64, id_b: CellId) -> bool {
    rho_a > rho_b || (rho_a == rho_b && id_a < id_b)
}

/// Largest-gap τ heuristic over sorted δ values (the simulated user of the
/// initialization step; mirrors `edm_dp::DecisionGraph::suggest_tau`).
///
/// Root cells carry δ = ∞, which is an *absence* of a dependent distance,
/// not a gap: any infinite tail is dropped before the scan (the engine
/// already passes finite-only slices, but raw decision-graph deltas reach
/// here through tests and external callers). With fewer than two finite
/// values — single-cell and all-root streams — there is no gap to read
/// and the caller falls back to the `4r` scale, the same anchor
/// [`EdmStream::decision_graph`] displays the root at.
fn suggest_tau_from_deltas(sorted: &[f64]) -> Option<f64> {
    let finite = match sorted.iter().position(|d| !d.is_finite()) {
        Some(i) => &sorted[..i],
        None => sorted,
    };
    if finite.len() < 2 {
        return None;
    }
    let mut best = (0.0f64, None);
    for w in finite.windows(2) {
        let gap = w[1] / w[0].max(1e-12);
        if gap > best.0 {
            best = (gap, Some(0.5 * (w[0] + w[1])));
        }
    }
    best.1
}

/// Compile-time `Send + Sync` audit of the engine and its parallel-ingest
/// machinery: the probe phase shares the index and slab across pool
/// workers, and [`crate::ClusterSnapshot`]'s docs promise it ships across
/// threads — neither claim may silently rot. The crate's single audited
/// `unsafe` boundary is `engine/pool.rs` (the persistent pool's
/// lifetime-erased job publication); the probe fan-out layered on it is
/// safe code checked by these bounds.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<ProbePool>();
    assert_send_sync::<WorkerPool>();
    assert_send_sync::<crate::index::CellIndex>();
    assert_send_sync::<crate::index::UniformGrid>();
    assert_send_sync::<crate::index::CoverTree>();
    assert_send_sync::<crate::slab::CellSlab<edm_common::point::DenseVector>>();
    assert_send_sync::<EdmStream<edm_common::point::DenseVector, edm_common::metric::Euclidean>>();
    assert_send_sync::<EdmStream<edm_common::point::TokenSet, edm_common::metric::Jaccard>>();
};

impl<P: Clone + GridCoords + Send + Sync, M: Metric<P>> edm_data::clusterer::StreamClusterer<P>
    for EdmStream<P, M>
{
    fn name(&self) -> &'static str {
        "EDMStream"
    }

    fn insert(&mut self, payload: &P, t: Timestamp) {
        EdmStream::insert(self, payload, t);
    }

    fn insert_batch(&mut self, batch: &[(P, Timestamp)]) {
        EdmStream::insert_batch(self, batch);
    }

    fn prepare(&mut self, _t: Timestamp) {
        // EDMStream maintains clusters online; the only deferred work is
        // the initialization of a stream shorter than the init buffer.
        self.force_init();
    }

    fn cluster_of(&self, payload: &P, t: Timestamp) -> Option<usize> {
        EdmStream::cluster_of(self, payload, t).map(|c| c as usize)
    }

    fn n_clusters(&self, _t: Timestamp) -> usize {
        EdmStream::n_clusters(self)
    }

    fn n_summaries(&self) -> usize {
        self.n_cells()
    }
}
