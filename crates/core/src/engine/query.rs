//! Query layer: read models over the engine's maintained state.
//!
//! Everything here is `&self` — queries never mutate the engine, which is
//! what makes [`EdmStream::snapshot`] a cheap freeze and lets reporting
//! code run concurrently with ingestion in caller-managed setups. The
//! invariant checkers the property suite drives live here too: they are
//! read models over the same state, just with test-grade thoroughness.

use std::collections::hash_map::Entry;

use edm_common::hash::{fx_map, FxHashMap};
use edm_common::metric::Metric;
use edm_common::point::GridCoords;
use edm_common::time::Timestamp;

use crate::cell::CellId;
use crate::config::EdmConfig;
use crate::evolution::{ClusterId, Event, EventCursor};
use crate::evolve::{
    BoundingBox, ClusterSummary, DigestWindow, EvolutionDigest, EvolveError, Lineage, LineageGraph,
};
use crate::filters::EngineStats;
use crate::index::NeighborIndex;
use crate::slab::CellSlab;
use crate::snapshot::{ClusterInfo, ClusterSnapshot};
use crate::tree;

use super::EdmStream;

impl<P: Clone + GridCoords + Send + Sync, M: Metric<P>> EdmStream<P, M> {
    /// Engine configuration.
    pub fn config(&self) -> &EdmConfig {
        &self.cfg
    }

    /// The distance metric the engine was built with. Serving layers use
    /// this to answer point-level queries (e.g. nearest published seed)
    /// with *the same* geometry the engine clusters under.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Current τ.
    pub fn tau(&self) -> f64 {
        self.tau_ctl.tau()
    }

    /// Learned / configured α.
    pub fn alpha(&self) -> f64 {
        self.tau_ctl.alpha()
    }

    /// Runtime statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Human-readable label of the neighbor-index backend the engine
    /// built (`"linear"`, `"grid"` or `"cover-tree"`) — after any
    /// capability downgrade, so a grid config on a metric without the
    /// axis bound reports `"linear"`. The index is picked when the
    /// stream's first cell enters it; before that this names the empty
    /// stand-in, `"linear"`.
    pub fn index_label(&self) -> &'static str {
        self.index.label()
    }

    /// Drains the buffered evolution events, oldest first. Subsequent
    /// calls return only events recorded in between — the "consume the
    /// narrative as it happens" pattern of the paper's Figs 7–8.
    pub fn take_events(&mut self) -> Vec<Event> {
        self.log.drain()
    }

    /// Returns the buffered events at or after `cursor`, oldest first,
    /// without consuming them. Pair with [`EdmStream::event_cursor`] for
    /// incremental, non-destructive consumption by multiple readers.
    pub fn events_since(&self, cursor: EventCursor) -> Vec<Event> {
        self.log.events_since(cursor).cloned().collect()
    }

    /// Cursor after the newest recorded event.
    pub fn event_cursor(&self) -> EventCursor {
        self.log.cursor()
    }

    /// Total evolution events ever recorded (monotonic).
    pub fn events_recorded(&self) -> u64 {
        self.log.total()
    }

    /// Events lost to the bounded buffer (evicted or drained) — if a
    /// cursor reader observes this exceeding its cursor, it fell behind
    /// the `event_capacity` it configured.
    pub fn events_evicted(&self) -> u64 {
        self.log.evicted()
    }

    /// Number of active cells (DP-Tree nodes).
    pub fn active_len(&self) -> usize {
        self.active_ids.len()
    }

    /// Number of inactive cells (outlier reservoir population).
    pub fn reservoir_len(&self) -> usize {
        self.slab.len() - self.active_ids.len()
    }

    /// Largest reservoir population observed (Fig 16).
    pub fn reservoir_peak(&self) -> usize {
        self.reservoir_peak
    }

    /// Total live cells.
    pub fn n_cells(&self) -> usize {
        self.slab.len()
    }

    /// Current number of clusters (MSDSubTrees).
    pub fn n_clusters(&self) -> usize {
        let tau = self.tau_ctl.tau();
        self.active_ids
            .iter()
            .filter(|&&id| {
                let c = self.slab.get(id);
                c.dep.is_none() || c.delta > tau
            })
            .count()
    }

    /// Active ids in ascending order — the iteration order every
    /// *observable* output (clusters, decision graph) is built in, so
    /// results never depend on activation history. O(a log a) in the
    /// active count only; the reservoir is never touched.
    pub(super) fn sorted_active_ids(&self) -> Vec<CellId> {
        let mut ids = self.active_ids.clone();
        ids.sort_unstable();
        ids
    }

    pub(super) fn update_reservoir_peak(&mut self) {
        let r = self.reservoir_len();
        if r > self.reservoir_peak {
            self.reservoir_peak = r;
        }
    }

    /// Freezes the full clustering state at time `t` into an owned,
    /// read-only [`ClusterSnapshot`]: cluster infos, the member column, τ,
    /// the decision graph, per-cluster summaries, population and runtime
    /// counters, and an event cursor aligned with the snapshot instant.
    /// Reporting and metrics code works off the frozen view instead of
    /// re-entering the engine.
    ///
    /// One walk over the active cells in ascending id order, reading each
    /// cell once: its density decayed to `t` is its decision-graph value,
    /// its share of the cluster density and its summary weight. Its
    /// cluster is the label the evolution diff keeps on it, the cluster's
    /// root read from the registry; an engine that does not track
    /// evolution keeps no labels, so there each cell walks to its strong
    /// root. Summaries (only while evolution is tracked) hold the
    /// density-weighted centroid and bounding box over the member-cell
    /// seeds (`None` for coordinate-less payloads), mass, and birth time
    /// from the identity registry; their generations are stamped with the
    /// current publication count, and the engine's rolling map (see
    /// [`EdmStream::summary_of`]) preserves each cluster's true first
    /// observation.
    ///
    /// ```
    /// use edm_core::{EdmConfig, EdmStream};
    /// use edm_common::metric::Euclidean;
    /// use edm_common::point::DenseVector;
    ///
    /// let cfg = EdmConfig::builder(0.5).rate(100.0).beta(6e-5).init_points(8).build()?;
    /// let mut engine = EdmStream::new(cfg, Euclidean);
    /// for i in 0..32 {
    ///     let x = if i % 2 == 0 { 0.0 } else { 9.0 };
    ///     engine.insert(&DenseVector::from([x, 0.0]), i as f64 / 100.0);
    /// }
    /// let snap = engine.snapshot(0.32);
    /// assert_eq!(snap.n_clusters(), 2);
    /// assert_eq!(snap.points(), 32);
    /// // The snapshot is detached: it stays valid while the engine moves on.
    /// engine.insert(&DenseVector::from([50.0, 50.0]), 0.4);
    /// assert_eq!(snap.n_clusters(), 2);
    /// # Ok::<(), edm_core::ConfigError>(())
    /// ```
    pub fn snapshot(&self, t: Timestamp) -> ClusterSnapshot {
        let tau = self.tau_ctl.tau();
        let track = self.cfg.track_evolution;
        let ids = self.sorted_active_ids();
        let n_clusters = self.registry.n_clusters();
        let mut rho = Vec::with_capacity(ids.len());
        let mut delta = Vec::with_capacity(ids.len());
        let mut members = Vec::with_capacity(ids.len());
        // Clusters in the order of their lowest member id; `slot_of` maps
        // a cluster id to its place here and in `extents`.
        let mut clusters: Vec<ClusterInfo> = Vec::with_capacity(n_clusters);
        let mut slot_of: FxHashMap<ClusterId, usize> = fx_map();
        slot_of.reserve(n_clusters);
        // Geometry only for summaries, so only while evolution is tracked,
        // and only for payloads with coordinates.
        let mut extents =
            self.dim.filter(|_| track).map(|dim| Extents::with_capacity(dim, n_clusters));
        let mut max_finite = 0.0f64;
        for id in ids {
            let cell = self.slab.get(id);
            let density = cell.rho_at(t, self.decay());
            rho.push(density);
            delta.push(cell.delta);
            if cell.delta.is_finite() {
                max_finite = max_finite.max(cell.delta);
            }
            let (cluster, walked) = match cell.cluster {
                Some(cluster) => (cluster, None),
                None => {
                    let root = tree::strong_root(&self.slab, id, tau);
                    (self.registry.cluster_at_root(root).unwrap_or(root.0 as u64), Some(root))
                }
            };
            members.push((id, cluster));
            let k = match slot_of.entry(cluster) {
                Entry::Occupied(slot) => *slot.get(),
                Entry::Vacant(slot) => {
                    let (root, size) = match walked {
                        Some(root) => (root, 1),
                        None => {
                            let meta = self
                                .registry
                                .cluster(cluster)
                                .expect("the evolution diff labels cells with live clusters");
                            (meta.root, meta.size)
                        }
                    };
                    let cells = Vec::with_capacity(size);
                    clusters.push(ClusterInfo { id: cluster, root, cells, density: 0.0 });
                    *slot.insert(clusters.len() - 1)
                }
            };
            clusters[k].cells.push(id);
            clusters[k].density += density;
            if let (Some(extents), Some(x)) = (extents.as_mut(), cell.seed.grid_coords()) {
                extents.add(k, x, density.max(0.0));
            }
        }
        let root_display = if max_finite > 0.0 { max_finite * 1.05 } else { 4.0 * self.cfg.r };
        for d in delta.iter_mut() {
            if !d.is_finite() {
                *d = root_display;
            }
        }
        let mut summaries: Vec<ClusterSummary> = Vec::new();
        if track {
            let generation = self.stats.snapshots_published;
            summaries = clusters
                .iter()
                .enumerate()
                .map(|(k, c)| {
                    // A fully decayed cluster falls back to the unweighted
                    // seed mean.
                    let (centroid, bounds) = extents
                        .as_ref()
                        .map(|e| e.geometry(k, || self.seed_mean(&c.cells, e.dim)))
                        .unzip();
                    ClusterSummary {
                        cluster: c.id,
                        cells: c.cells.len(),
                        mass: c.density,
                        centroid,
                        bounds,
                        born: self.registry.cluster(c.id).map_or(t, |m| m.born),
                        as_of: t,
                        first_generation: generation,
                        last_seen: generation,
                    }
                })
                .collect();
            summaries.sort_unstable_by_key(|s| s.cluster);
        }
        clusters.sort_unstable_by_key(|c| c.root);
        ClusterSnapshot {
            t,
            tau,
            alpha: self.tau_ctl.alpha(),
            clusters,
            members,
            summaries,
            rho,
            delta,
            active_cells: self.active_ids.len(),
            reservoir_cells: self.reservoir_len(),
            reservoir_peak: self.reservoir_peak,
            points: self.stats.points,
            event_cursor: self.log.cursor(),
            stats: self.stats.clone(),
            generation: self.stats.snapshots_published,
        }
    }

    /// Unweighted mean of the seeds of `cells` (`dim` coordinates each,
    /// summed in the order given): the centroid of a cluster whose
    /// density decayed to zero.
    fn seed_mean(&self, cells: &[CellId], dim: usize) -> Vec<f64> {
        let n = cells.len() as f64;
        cells.iter().fold(vec![0.0; dim], |mut acc, &cell| {
            let x =
                self.slab.get(cell).seed.grid_coords().expect("summarized seeds have coordinates");
            for (a, v) in acc.iter_mut().zip(x) {
                *a += v / n;
            }
            acc
        })
    }

    /// Freezes and **publishes** a snapshot: exactly [`EdmStream::snapshot`]
    /// plus a bump of [`EngineStats::snapshots_published`], which becomes
    /// the snapshot's [`crate::ClusterSnapshot::generation`] (1 for the
    /// first publication — strictly monotone across a session). This is
    /// the serving tier's entry point: a publisher that hands frozen
    /// views to concurrent readers stamps each one here, so readers can
    /// order what they observe and the publication cadence shows up in
    /// the engine's own counters. Requires `&mut self` (the count is
    /// engine state); passive reporting that should not perturb the
    /// counters keeps using `snapshot()`. The time spent here, freeze and
    /// seal, accumulates in [`EngineStats::publish_nanos`].
    pub fn publish_snapshot(&mut self, t: Timestamp) -> ClusterSnapshot {
        let started = std::time::Instant::now();
        self.stats.snapshots_published += 1;
        let snap = self.snapshot(t);
        if self.cfg.track_evolution {
            // Belt and braces: the tracker is already synced after every
            // diff, but a sync here is free when nothing is new and
            // keeps the sealed record correct if a future code path
            // records events outside `run_diff`.
            self.tracker.sync(&self.log);
            // One summary per cluster, ascending by id, mass = density.
            let live = snap.summaries().iter().map(|s| (s.cluster, s.mass)).collect();
            self.tracker.seal(snap.generation(), t, live, snap.summaries());
        }
        self.stats.publish_nanos += started.elapsed().as_nanos() as u64;
        snap
    }

    // ----- evolution queries (lineage, digests, rolling summaries) -----

    /// Resolves the provenance of `cluster`: its ancestry through split
    /// parents and its current identity through the transitive merge
    /// chain — "which of today's clusters is yesterday's #3?".
    ///
    /// Refuses with a typed [`EvolveError`] when evolution tracking is
    /// disabled, when events were lost to the bounded log before the
    /// tracker read them (the graph would be missing edges), or when the
    /// id was never observed.
    pub fn lineage_of(&self, cluster: ClusterId) -> Result<Lineage, EvolveError> {
        if !self.cfg.track_evolution {
            return Err(EvolveError::EvolutionDisabled);
        }
        if self.tracker.lost() > 0 {
            return Err(EvolveError::EventsLost { lost: self.tracker.lost() });
        }
        self.tracker.graph().lineage_of(cluster).ok_or(EvolveError::UnknownCluster { cluster })
    }

    /// The raw lineage graph the tracker has replayed so far — every
    /// cluster id ever observed with its birth and end. Unlike
    /// [`EdmStream::lineage_of`] this access is not loss-gated; check
    /// [`EdmStream::evolution_events_lost`] before trusting provenance
    /// read off it.
    pub fn lineage_graph(&self) -> &LineageGraph {
        self.tracker.graph()
    }

    /// Events evicted from the bounded log before the lineage tracker
    /// consumed them. Non-zero means lineage answers would be missing
    /// history — [`EdmStream::lineage_of`] refuses rather than guessing.
    pub fn evolution_events_lost(&self) -> u64 {
        self.tracker.lost()
    }

    /// What changed since generation `from`: births, deaths, merges,
    /// splits and mass drift up to the newest published generation. See
    /// [`DigestWindow::digest`] for the windowing and error contract.
    pub fn digest_since(&self, from: u64) -> Result<EvolutionDigest, EvolveError> {
        self.digest_window().digest_since(from)
    }

    /// What changed in the window `(from, to]` of published generations.
    pub fn digest_between(&self, from: u64, to: u64) -> Result<EvolutionDigest, EvolveError> {
        self.digest_window().digest(from, to)
    }

    /// A cheap `Arc`-shared view of the sealed per-generation records —
    /// what the serving tier attaches to each published payload so that
    /// readers compute digests without re-entering the engine.
    pub fn digest_window(&self) -> DigestWindow {
        self.tracker.window(self.cfg.track_evolution)
    }

    /// The rolling publish-cadence summary of `cluster`, if held: unlike
    /// the per-snapshot [`ClusterSnapshot::summaries`] it preserves the
    /// cluster's true first-observed generation and survives (for a
    /// while) past the cluster's death. `None` when the cluster was
    /// never published, or its era left the digest history.
    pub fn summary_of(&self, cluster: ClusterId) -> Option<&ClusterSummary> {
        self.tracker.summary_of(cluster)
    }

    /// All rolling publish-cadence summaries, ascending by cluster id.
    pub fn tracked_summaries(&self) -> impl Iterator<Item = &ClusterSummary> {
        self.tracker.summaries()
    }

    /// The engine's stream clock: the largest timestamp ingested so far
    /// (0 before the first point). Callers that freeze snapshots on a
    /// wall-clock cadence rather than per batch — the serving tier's ΔT
    /// publication mode — use this to snapshot "now" without threading
    /// the last batch's timestamps around.
    pub fn stream_time(&self) -> Timestamp {
        self.now
    }

    /// The stream's coordinate count, taken from its first point: `None`
    /// before the first point and for payloads without coordinates. The
    /// checked entry points refuse a point of any other count
    /// ([`crate::EdmError::DimensionMismatch`]).
    pub fn dimension(&self) -> Option<usize> {
        self.dim
    }

    /// The current clusters (MSDSubTrees) with their member cells and
    /// densities decayed to `t`, ordered by root cell id: a view of the
    /// [`EdmStream::snapshot`] freeze.
    pub fn clusters(&self, t: Timestamp) -> Vec<ClusterInfo> {
        self.snapshot(t).clusters
    }

    /// Cluster id of the nearest cell within `r`, or `None` when the
    /// point falls into no cell, an inactive (outlier) cell, or a cell
    /// whose density **decayed to `t`** no longer clears the activation
    /// threshold. The last case is what makes `t` meaningful: the decay
    /// sweep only demotes cells on the maintenance cadence, so between
    /// sweeps the tree can hold cells that are already below threshold at
    /// `t` — this query answers as if the sweep had just run, instead of
    /// leaking the stale structure. Resolved through the neighbor index,
    /// so the cost matches an insert's assignment step rather than a full
    /// slab scan.
    pub fn cluster_of(&self, p: &P, t: Timestamp) -> Option<ClusterId> {
        match self.nearest_cell(p) {
            Some((id, _)) => {
                let cell = self.slab.get(id);
                if !cell.active || cell.rho_at(t, self.decay()) < self.threshold_at(t) {
                    return None;
                }
                let root = tree::strong_root(&self.slab, id, self.tau_ctl.tau());
                self.registry.cluster_at_root(root).or(Some(root.0 as u64))
            }
            _ => None,
        }
    }

    /// The (ρ, δ) pairs of all active cells at time `t`, in ascending
    /// cell-id order — the decision graph of Fig 2b/15, a view of the
    /// [`EdmStream::snapshot`] freeze. The root's infinite δ is reported
    /// as 1.05× the largest finite δ so it plots at the top of the graph;
    /// when **no** finite δ exists (single-cell and all-root streams) the
    /// root is anchored at `4r` — the same scale the τ₀ fallback of the
    /// initialization step uses — instead of an arbitrary constant, so
    /// the displayed graph and the engine's τ stay on one scale.
    pub fn decision_graph(&self, t: Timestamp) -> (Vec<f64>, Vec<f64>) {
        let snap = self.snapshot(t);
        (snap.rho, snap.delta)
    }

    /// Sorted finite δ values of active cells (adaptive-τ input).
    pub(super) fn active_deltas_sorted(&self) -> Vec<f64> {
        let mut ds: Vec<f64> = self
            .active_ids
            .iter()
            .map(|&id| self.slab.get(id).delta)
            .filter(|d| d.is_finite())
            .collect();
        ds.sort_by(|a, b| a.partial_cmp(b).expect("delta NaN"));
        ds
    }

    /// Read access to the cell slab (tests and diagnostics).
    pub fn slab(&self) -> &CellSlab<P> {
        &self.slab
    }

    /// Verifies all DP-Tree invariants at time `t`, plus the active-cell
    /// registry, the density order Theorem 1's window reads (every active
    /// cell filed once, under the key its stored density gives, sorted),
    /// the idle queue's coverage of the reservoir (every inactive cell
    /// must have a live queue entry, or recycling would leak it forever)
    /// and the cluster labels the evolution diff maintains — test support.
    pub fn check_invariants(&self, t: Timestamp) -> Result<(), String> {
        self.check_labels()?;
        tree::check_invariants(&self.slab, t, self.decay())?;
        let truly_active = self.slab.iter().filter(|(_, c)| c.active).count();
        if truly_active != self.active_ids.len() {
            return Err(format!(
                "active registry holds {} ids, slab has {truly_active} active cells",
                self.active_ids.len()
            ));
        }
        let mut seen = edm_common::hash::fx_set();
        for &id in &self.active_ids {
            if !self.slab.contains(id) || !self.slab.get(id).active {
                return Err(format!("active registry lists non-active {id}"));
            }
            if !seen.insert(id) {
                return Err(format!("active registry lists {id} twice"));
            }
        }
        self.order
            .check(self.slab.iter().filter(|(_, c)| c.active).map(|(id, c)| (id, c.raw_rho())))?;
        // Idle-queue coverage: each reservoir cell has an entry carrying
        // its *current* absorption time (stale extras are fine — they are
        // dropped lazily — but a missing live entry is a leak).
        if self.is_initialized() {
            let mut live = edm_common::hash::fx_set();
            for (id, la) in self.idle.iter() {
                if self.slab.contains(id) {
                    let cell = self.slab.get(id);
                    if !cell.active && cell.last_absorb == la {
                        live.insert(id);
                    }
                }
            }
            for (id, cell) in self.slab.iter() {
                if !cell.active && !live.contains(&id) {
                    return Err(format!("idle queue lost reservoir cell {id}"));
                }
            }
        }
        match (self.apex, self.densest_active(t)) {
            (a, b) if a == b => Ok(()),
            (a, b) => Err(format!("apex is {a:?}, densest active cell is {b:?}")),
        }
    }

    /// The labels the evolution diff leaves behind equal the full
    /// partition: each active cell carries the cluster registered at its
    /// strong root, the registry holds exactly the current strong roots
    /// with their member counts, and inactive cells carry no label. With
    /// evolution not tracked, nothing is labelled or registered.
    fn check_labels(&self) -> Result<(), String> {
        if !self.cfg.track_evolution {
            if let Some((id, _)) = self.slab.iter().find(|(_, c)| c.cluster.is_some()) {
                return Err(format!("{id} is labelled while evolution is not tracked"));
            }
            if self.registry.n_clusters() != 0 {
                return Err("clusters registered while evolution is not tracked".into());
            }
            return Ok(());
        }
        if let Some((id, _)) = self.slab.iter().find(|(_, c)| !c.active && c.cluster.is_some()) {
            return Err(format!("inactive {id} keeps a cluster label"));
        }
        let tau = self.tau_ctl.tau();
        let mut sizes: edm_common::hash::FxHashMap<CellId, usize> = edm_common::hash::fx_map();
        for &id in &self.active_ids {
            let root = tree::strong_root(&self.slab, id, tau);
            *sizes.entry(root).or_insert(0) += 1;
            let label = self.slab.get(id).cluster;
            let want = self.registry.cluster_at_root(root);
            if want.is_none() || label != want {
                return Err(format!("{id} carries {label:?}, its strong root {root} has {want:?}"));
            }
        }
        self.registry.check_roots()?;
        if self.registry.n_clusters() != sizes.len() {
            return Err(format!(
                "registry holds {} clusters, the tree has {} strong roots",
                self.registry.n_clusters(),
                sizes.len()
            ));
        }
        for (id, meta) in self.registry.clusters() {
            if sizes.get(&meta.root) != Some(&meta.size) {
                return Err(format!(
                    "cluster {id} records {} members at {}, the tree has {:?}",
                    meta.size,
                    meta.root,
                    sizes.get(&meta.root)
                ));
            }
        }
        Ok(())
    }

    /// Verifies the neighbor index mirrors the live slab exactly — every
    /// live cell filed once where its seed says, nothing stale, and every
    /// internal pruning bound sound against the metric (test support; the
    /// index proptests call this after every operation).
    pub fn check_index(&self) -> Result<(), String> {
        self.index.check_coherence(&self.slab, &self.metric)
    }

    /// Entries currently held by the idle recycling queue, stale included
    /// (diagnostics; the compaction bound keeps this within a small
    /// factor of the reservoir population).
    pub fn idle_queue_len(&self) -> usize {
        self.idle.len()
    }
}

/// The running density-weighted extent of each cluster's member seeds,
/// flat: cluster slot `k` owns `sum`, `min` and `max` at `k·dim..(k+1)·dim`.
/// Seeds are added in ascending cell-id order, the first one opening the
/// slot (`sum = x·w`, `min = max = x`), so every value is the same `f64`
/// a per-cluster pass over the same cells computes.
struct Extents {
    dim: usize,
    sum: Vec<f64>,
    min: Vec<f64>,
    max: Vec<f64>,
    /// Summed weight per slot.
    total: Vec<f64>,
}

impl Extents {
    /// Room for `slots` slots of `dim` coordinates: a tracked engine's
    /// registry holds the exact cluster count, so the vectors never grow.
    fn with_capacity(dim: usize, slots: usize) -> Self {
        Extents {
            dim,
            sum: Vec::with_capacity(slots * dim),
            min: Vec::with_capacity(slots * dim),
            max: Vec::with_capacity(slots * dim),
            total: Vec::with_capacity(slots),
        }
    }

    /// Adds seed `x` of weight `w` to slot `k`; `k` one past the last slot
    /// opens it with `x` as its first seed.
    fn add(&mut self, k: usize, x: &[f64], w: f64) {
        debug_assert_eq!(x.len(), self.dim, "every seed of a stream has its coordinate count");
        if k == self.total.len() {
            self.sum.extend(x.iter().map(|v| v * w));
            self.min.extend_from_slice(x);
            self.max.extend_from_slice(x);
            self.total.push(w);
            return;
        }
        let at = k * self.dim..(k + 1) * self.dim;
        let (sum, min, max) =
            (&mut self.sum[at.clone()], &mut self.min[at.clone()], &mut self.max[at]);
        for (((s, lo), hi), &v) in sum.iter_mut().zip(min.iter_mut()).zip(max.iter_mut()).zip(x) {
            *s += v * w;
            *lo = lo.min(v);
            *hi = hi.max(v);
        }
        self.total[k] += w;
    }

    /// Slot `k`'s density-weighted centroid and bounding box. A slot whose
    /// weights sum to zero takes `unweighted()` as its centroid.
    fn geometry(&self, k: usize, unweighted: impl FnOnce() -> Vec<f64>) -> (Vec<f64>, BoundingBox) {
        let at = k * self.dim..(k + 1) * self.dim;
        let total = self.total[k];
        let centroid = if total > 0.0 {
            self.sum[at.clone()].iter().map(|s| s / total).collect()
        } else {
            unweighted()
        };
        (centroid, BoundingBox { min: self.min[at.clone()].to_vec(), max: self.max[at].to_vec() })
    }
}
