//! Query layer: read models over the engine's maintained state.
//!
//! Everything here is `&self` — queries never mutate the engine, which is
//! what makes [`EdmStream::snapshot`] a cheap freeze and lets reporting
//! code run concurrently with ingestion in caller-managed setups. The
//! invariant checkers the property suite drives live here too: they are
//! read models over the same state, just with test-grade thoroughness.

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
    /// read-only [`ClusterSnapshot`]: cluster infos, τ, the decision
    /// graph, population and runtime counters, and an event cursor
    /// aligned with the snapshot instant. Reporting and metrics code
    /// works off the frozen view instead of re-entering the engine.
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
        let (rho, delta) = self.decision_graph(t);
        let clusters = self.clusters(t);
        let summaries = self.summaries_for(t, &clusters);
        ClusterSnapshot {
            t,
            tau: self.tau_ctl.tau(),
            alpha: self.tau_ctl.alpha(),
            clusters,
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

    /// Freezes and **publishes** a snapshot: exactly [`EdmStream::snapshot`]
    /// plus a bump of [`EngineStats::snapshots_published`], which becomes
    /// the snapshot's [`crate::ClusterSnapshot::generation`] (1 for the
    /// first publication — strictly monotone across a session). This is
    /// the serving tier's entry point: a publisher that hands frozen
    /// views to concurrent readers stamps each one here, so readers can
    /// order what they observe and the publication cadence shows up in
    /// the engine's own counters. Requires `&mut self` (the count is
    /// engine state); passive reporting that should not perturb the
    /// counters keeps using `snapshot()`.
    pub fn publish_snapshot(&mut self, t: Timestamp) -> ClusterSnapshot {
        self.stats.snapshots_published += 1;
        let snap = self.snapshot(t);
        if self.cfg.track_evolution {
            // Belt and braces: the tracker is already synced after every
            // diff, but a sync here is free when nothing is new and
            // keeps the sealed record correct if a future code path
            // records events outside `run_diff`.
            self.tracker.sync(&self.log);
            let mut live: Vec<(ClusterId, f64)> =
                snap.clusters().iter().map(|c| (c.id, c.density)).collect();
            live.sort_unstable_by_key(|&(id, _)| id);
            self.tracker.seal(snap.generation(), t, live, snap.summaries());
        }
        snap
    }

    /// Compact summaries of `clusters`, ascending by cluster id:
    /// density-weighted centroid and bounding box over the member-cell
    /// seeds (`None` for coordinate-less payloads), mass, and birth time
    /// from the identity registry. Empty while evolution is not tracked:
    /// the ids are then root cell ids, not persistent identities.
    /// Generations are stamped with the current publication count; the
    /// engine's rolling map (see [`EdmStream::summary_of`]) preserves each
    /// cluster's true first observation.
    fn summaries_for(&self, t: Timestamp, clusters: &[ClusterInfo]) -> Vec<ClusterSummary> {
        if !self.cfg.track_evolution {
            return Vec::new();
        }
        let born: edm_common::hash::FxHashMap<ClusterId, Timestamp> =
            self.registry.clusters().map(|(id, m)| (id, m.born)).collect();
        let generation = self.stats.snapshots_published;
        let mut out: Vec<ClusterSummary> = clusters
            .iter()
            .map(|c| {
                // Running density-weighted extent: (Σw·x, min, max, Σw).
                struct Extent {
                    sum: Vec<f64>,
                    min: Vec<f64>,
                    max: Vec<f64>,
                    total: f64,
                }
                let mut weighted: Option<Extent> = None;
                let mut coords_ok = true;
                for &cell in &c.cells {
                    let cref = self.slab.get(cell);
                    let Some(x) = cref.seed.grid_coords() else {
                        coords_ok = false;
                        break;
                    };
                    let w = cref.rho_at(t, self.decay()).max(0.0);
                    match &mut weighted {
                        None => {
                            weighted = Some(Extent {
                                sum: x.iter().map(|v| v * w).collect(),
                                min: x.to_vec(),
                                max: x.to_vec(),
                                total: w,
                            });
                        }
                        Some(Extent { sum, min, max, total }) => {
                            for (i, v) in x.iter().enumerate() {
                                sum[i] += v * w;
                                min[i] = min[i].min(*v);
                                max[i] = max[i].max(*v);
                            }
                            *total += w;
                        }
                    }
                }
                let (centroid, bounds) = match (coords_ok, weighted) {
                    (true, Some(Extent { sum, min, max, total })) => {
                        let centroid = if total > 0.0 {
                            sum.iter().map(|s| s / total).collect()
                        } else {
                            // Fully decayed cluster: fall back to the
                            // unweighted seed mean.
                            let n = c.cells.len() as f64;
                            c.cells.iter().fold(vec![0.0; min.len()], |mut acc, &cell| {
                                for (i, v) in self
                                    .slab
                                    .get(cell)
                                    .seed
                                    .grid_coords()
                                    .expect("coords_ok checked above")
                                    .iter()
                                    .enumerate()
                                {
                                    acc[i] += v / n;
                                }
                                acc
                            })
                        };
                        (Some(centroid), Some(BoundingBox { min, max }))
                    }
                    _ => (None, None),
                };
                ClusterSummary {
                    cluster: c.id,
                    cells: c.cells.len(),
                    mass: c.density,
                    centroid,
                    bounds,
                    born: born.get(&c.id).copied().unwrap_or(t),
                    as_of: t,
                    first_generation: generation,
                    last_seen: generation,
                }
            })
            .collect();
        out.sort_unstable_by_key(|s| s.cluster);
        out
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

    /// Snapshot of the current clusters.
    pub fn clusters(&self, t: Timestamp) -> Vec<ClusterInfo> {
        let tau = self.tau_ctl.tau();
        let mut by_root: std::collections::HashMap<CellId, ClusterInfo> = Default::default();
        for id in self.sorted_active_ids() {
            let cell = self.slab.get(id);
            let root = tree::strong_root(&self.slab, id, tau);
            let info = by_root.entry(root).or_insert_with(|| ClusterInfo {
                id: self.registry.cluster_at_root(root).unwrap_or(root.0 as u64),
                root,
                cells: Vec::new(),
                density: 0.0,
            });
            info.cells.push(id);
            info.density += cell.rho_at(t, self.decay());
        }
        let mut v: Vec<ClusterInfo> = by_root.into_values().collect();
        v.sort_by_key(|c| c.root);
        v
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

    /// The (ρ, δ) pairs of all active cells at time `t` — the decision
    /// graph of Fig 2b/15. The root's infinite δ is reported as 1.05× the
    /// largest finite δ so it plots at the top of the graph; when **no**
    /// finite δ exists (single-cell and all-root streams) the root is
    /// anchored at `4r` — the same scale the τ₀ fallback of the
    /// initialization step uses — instead of an arbitrary constant, so
    /// the displayed graph and the engine's τ stay on one scale.
    pub fn decision_graph(&self, t: Timestamp) -> (Vec<f64>, Vec<f64>) {
        let mut rho = Vec::new();
        let mut delta = Vec::new();
        for id in self.sorted_active_ids() {
            let cell = self.slab.get(id);
            rho.push(cell.rho_at(t, self.decay()));
            delta.push(cell.delta);
        }
        let max_finite = delta.iter().copied().filter(|d| d.is_finite()).fold(0.0, f64::max);
        let root_display = if max_finite > 0.0 { max_finite * 1.05 } else { 4.0 * self.cfg.r };
        for d in delta.iter_mut() {
            if !d.is_finite() {
                *d = root_display;
            }
        }
        (rho, delta)
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
