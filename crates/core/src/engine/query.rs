//! Query layer: read models over the engine's maintained state.
//!
//! Everything here is `&self` — queries never mutate the engine, which is
//! what makes [`EdmStream::snapshot`] a cheap freeze and lets reporting
//! code run concurrently with ingestion in caller-managed setups. The
//! invariant checkers the property suite drives live here too: they are
//! read models over the same state, just with test-grade thoroughness.

use std::collections::BTreeMap;
use std::sync::Arc;

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

    /// Current number of clusters (MSDSubTrees), as the identity registry
    /// holds them.
    pub fn n_clusters(&self) -> usize {
        self.registry.n_clusters()
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
    /// The parts that depend only on membership (each cluster's ascending
    /// cell list and seed bounding box, and the member column over them)
    /// come from the engine's shared parts, rebuilt first for the clusters
    /// a cell entered or left since they were last brought up to date; a
    /// plain freeze rebuilds a copy, [`EdmStream::publish_snapshot`] the
    /// engine's own. The rest moves with decay and is recomputed: one pass
    /// over the clusters, each walking its cells in ascending id order,
    /// reads each cell's density decayed to `t` once as its decision-graph
    /// value, its share of the cluster density and its weight in the
    /// cluster's density-weighted seed centroid. Each cluster's root and
    /// birth time come from the identity registry. Summaries hold the
    /// centroid and bounding box (`None` for coordinate-less payloads),
    /// mass, and birth time; their generations are stamped with the
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
        if !self.parts.is_stale() {
            return self.freeze(t, &self.parts);
        }
        let mut parts = self.parts.clone();
        self.refresh_parts(&mut parts);
        self.freeze(t, &parts)
    }

    /// The freeze over up-to-date `parts`: one pass over the clusters,
    /// each walking its cells in ascending id order.
    fn freeze(&self, t: Timestamp, parts: &SharedParts) -> ClusterSnapshot {
        let n = parts.members.len();
        debug_assert_eq!(n, self.active_ids.len(), "the column holds every active cell");
        let mut rho = vec![0.0; n];
        let mut delta = vec![0.0; n];
        let mut positions = parts.positions.iter();
        let generation = self.stats.snapshots_published;
        let mut clusters = Vec::with_capacity(parts.clusters.len());
        let mut summaries = Vec::with_capacity(parts.clusters.len());
        for part in &parts.clusters {
            let mut density = 0.0;
            // The density-weighted seed sum, only for payloads with
            // coordinates. It opens at −0.0 so that the first seed's
            // product is kept to the bit (−0.0 + x is x for every x, while
            // +0.0 + −0.0 is +0.0), and so does the summed weight.
            let mut centroid = self.dim.map(|dim| vec![-0.0; dim]);
            let mut total = -0.0;
            for (&id, &at) in part.cells.iter().zip(positions.by_ref()) {
                let cell = self.slab.get(id);
                let cell_density = cell.rho_at(t, self.decay());
                rho[at as usize] = cell_density;
                delta[at as usize] = cell.delta;
                density += cell_density;
                if let Some(sum) = centroid.as_mut() {
                    let x = cell.seed.grid_coords().expect("summarized seeds have coordinates");
                    let w = cell_density.max(0.0);
                    for (s, &v) in sum.iter_mut().zip(x) {
                        *s += v * w;
                    }
                    total += w;
                }
            }
            // A fully decayed cluster falls back to the unweighted seed mean.
            if let Some(sum) = centroid.as_mut() {
                if total > 0.0 {
                    sum.iter_mut().for_each(|s| *s /= total);
                } else {
                    *sum = self.seed_mean(&part.cells, sum.len());
                }
            }
            let meta =
                self.registry.cluster(part.id).expect("the shared parts are of live clusters");
            clusters.push(ClusterInfo {
                id: part.id,
                root: meta.root,
                cells: Arc::clone(&part.cells),
                density,
            });
            summaries.push(ClusterSummary {
                cluster: part.id,
                cells: part.cells.len(),
                mass: density,
                centroid,
                bounds: part.bounds.clone(),
                born: meta.born,
                as_of: t,
                first_generation: generation,
                last_seen: generation,
            });
        }
        clusters.sort_unstable_by_key(|c| c.root);
        self.frozen(t, clusters, Arc::clone(&parts.members), summaries, rho, delta)
    }

    /// Wraps a freeze's parts into the snapshot, with the root's infinite
    /// δ remapped for display (see [`EdmStream::decision_graph`]) and the
    /// engine's counters as of now.
    fn frozen(
        &self,
        t: Timestamp,
        clusters: Vec<ClusterInfo>,
        members: Arc<[(CellId, ClusterId)]>,
        summaries: Vec<ClusterSummary>,
        rho: Vec<f64>,
        mut delta: Vec<f64>,
    ) -> ClusterSnapshot {
        let max_finite = delta.iter().copied().filter(|d| d.is_finite()).fold(0.0, f64::max);
        let root_display = if max_finite > 0.0 { max_finite * 1.05 } else { 4.0 * self.cfg.r };
        for d in delta.iter_mut() {
            if !d.is_finite() {
                *d = root_display;
            }
        }
        ClusterSnapshot {
            t,
            tau: self.tau_ctl.tau(),
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

    /// Brings `parts` up to date with the cluster labels. One walk over the
    /// active cells in ascending id order gives the member column, every
    /// part's positions in it and each marked cluster's members; a marked
    /// cluster that died loses its part. A rebuilt part whose cells came
    /// out the same keeps its old cell list, and its old box too when the
    /// new one has the same bits, and the old column stays when the new
    /// one is equal, so every part is shared for exactly as long as its
    /// contents hold.
    fn refresh_parts(&self, parts: &mut SharedParts) {
        let mut stale = std::mem::take(&mut parts.stale);
        if std::mem::take(&mut parts.all_stale) {
            stale.extend(parts.clusters.iter().map(|part| part.id));
            stale.extend(self.registry.clusters().map(|(id, _)| id));
        }
        stale.sort_unstable();
        stale.dedup();
        // The live clusters in id order, each with its old part (if any),
        // its member count and whether it is rebuilt. The counts lay the
        // clusters' runs of `positions` (and of `cells`) out back to back.
        let mut held = std::mem::take(&mut parts.clusters).into_iter().peekable();
        let mut live: Vec<(ClusterId, usize, Option<ClusterPart>, bool)> =
            Vec::with_capacity(self.registry.n_clusters());
        let keep = |part: ClusterPart| (part.id, part.cells.len(), Some(part), false);
        for &id in &stale {
            live.extend(std::iter::from_fn(|| held.next_if(|part| part.id < id)).map(keep));
            let previous = held.next_if(|part| part.id == id);
            if let Some(meta) = self.registry.cluster(id) {
                live.push((id, meta.size, previous, true));
            }
        }
        live.extend(held.map(keep));
        let mut run: FxHashMap<ClusterId, usize> = fx_map();
        run.reserve(live.len());
        let mut starts = Vec::with_capacity(live.len() + 1);
        starts.push(0);
        for (k, &(id, size, _, _)) in live.iter().enumerate() {
            run.insert(id, starts[k]);
            starts.push(starts[k] + size);
        }
        let n = self.active_ids.len();
        let mut column = Vec::with_capacity(n);
        let mut positions = vec![0u32; n];
        let mut cells = vec![CellId(0); n];
        for id in self.sorted_active_ids() {
            let cluster = self.slab.get(id).cluster.expect("active cells carry a label");
            let at = run.get_mut(&cluster).expect("labels name live clusters");
            positions[*at] = column.len() as u32;
            cells[*at] = id;
            *at += 1;
            column.push((id, cluster));
        }
        parts.clusters = live
            .into_iter()
            .enumerate()
            .map(|(k, (id, _, previous, marked))| {
                assert_eq!(
                    run[&id],
                    starts[k + 1],
                    "cluster {id}'s member count is its label count"
                );
                let cells = &cells[starts[k]..starts[k + 1]];
                match previous {
                    Some(previous) if !marked => previous,
                    Some(previous) if *previous.cells == *cells => {
                        let fresh = self.dim.map(|_| self.seed_bounds(cells));
                        let bounds = match (previous.bounds, fresh) {
                            (Some(kept), Some(fresh)) if same_bits(&kept, &fresh) => Some(kept),
                            (_, fresh) => fresh.map(Arc::new),
                        };
                        ClusterPart { bounds, ..previous }
                    }
                    _ => {
                        let bounds = self.dim.map(|_| Arc::new(self.seed_bounds(cells)));
                        ClusterPart { id, cells: cells.into(), bounds }
                    }
                }
            })
            .collect();
        if *parts.members != *column {
            parts.members = column.into();
        }
        parts.positions = positions;
        stale.clear();
        parts.stale = stale;
    }

    /// Per-axis minimum and maximum over the seeds of `cells`, folded in
    /// the order given from the first seed on.
    fn seed_bounds(&self, cells: &[CellId]) -> BoundingBox {
        let mut seeds = cells.iter().map(|&cell| {
            self.slab.get(cell).seed.grid_coords().expect("summarized seeds have coordinates")
        });
        let first = seeds.next().expect("clusters have members");
        let (mut min, mut max) = (first.to_vec(), first.to_vec());
        for x in seeds {
            for ((lo, hi), &v) in min.iter_mut().zip(max.iter_mut()).zip(x) {
                *lo = lo.min(v);
                *hi = hi.max(v);
            }
        }
        BoundingBox { min, max }
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
    /// counters keeps using `snapshot()`. Unlike a plain freeze it brings
    /// the engine's own shared parts up to date, so the next publication
    /// shares every part no cell entered or left since. The time spent
    /// here, the parts, freeze and seal, accumulates in
    /// [`EngineStats::publish_nanos`].
    pub fn publish_snapshot(&mut self, t: Timestamp) -> ClusterSnapshot {
        let started = std::time::Instant::now();
        self.stats.snapshots_published += 1;
        if self.parts.is_stale() {
            let mut parts = std::mem::take(&mut self.parts);
            self.refresh_parts(&mut parts);
            self.parts = parts;
        }
        let snap = self.snapshot(t);
        // Every event-recording site is followed by `run_diff`, whose
        // sync leaves nothing for the sealed record to miss.
        debug_assert!(self.tracker.has_read(&self.log), "events logged outside `run_diff`");
        // One summary per cluster, ascending by id, mass = density.
        let live = snap.summaries().iter().map(|s| (s.cluster, s.mass)).collect();
        self.tracker.seal(snap.generation(), t, live, snap.summaries());
        self.stats.publish_nanos += started.elapsed().as_nanos() as u64;
        snap
    }

    // ----- evolution queries (lineage, digests, rolling summaries) -----

    /// Resolves the provenance of `cluster`: its ancestry through split
    /// parents and its current identity through the transitive merge
    /// chain — "which of today's clusters is yesterday's #3?".
    ///
    /// Refuses with a typed [`EvolveError`] when events were lost to the
    /// bounded log before the tracker read them (the graph would be
    /// missing edges), or when the id was never observed.
    pub fn lineage_of(&self, cluster: ClusterId) -> Result<Lineage, EvolveError> {
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
        self.tracker.window()
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

    /// Cluster id of the nearest cell within `r` (the label the evolution
    /// diff gave that cell), or `None` when the point falls into no cell,
    /// an inactive (outlier) cell, or a cell whose density **decayed to
    /// `t`** no longer clears the activation threshold. The last case is
    /// what makes `t` meaningful: the decay sweep only demotes cells on
    /// the maintenance cadence, so between sweeps the tree can hold cells
    /// that are already below threshold at `t` — this query answers as if
    /// the sweep had just run, instead of leaking the stale structure.
    /// Resolved through the neighbor index, so the cost matches an
    /// insert's assignment step rather than a full slab scan.
    pub fn cluster_of(&self, p: &P, t: Timestamp) -> Option<ClusterId> {
        let (id, _) = self.nearest_cell(p)?;
        let cell = self.slab.get(id);
        if !cell.active || cell.rho_at(t, self.decay()) < self.threshold_at(t) {
            return None;
        }
        cell.cluster
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
    /// must have a live queue entry, or recycling would leak it forever),
    /// the cluster labels the evolution diff maintains and the shared
    /// parts the freeze reads — test support.
    pub fn check_invariants(&self, t: Timestamp) -> Result<(), String> {
        self.check_labels()?;
        self.check_parts()?;
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
    /// with their member counts, and inactive cells carry no label.
    fn check_labels(&self) -> Result<(), String> {
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

    /// Every shared part not marked stale equals what a rebuild would
    /// give: its cluster's current members, ascending, and their seeds'
    /// bounding box to the bit. The member column holds exactly the active
    /// cells of unmarked clusters with their labels, ascending, and every
    /// position names its cell's entry.
    fn check_parts(&self) -> Result<(), String> {
        let parts = &self.parts;
        if parts.all_stale {
            return Ok(()); // every part is rebuilt before the next freeze
        }
        let stale: edm_common::hash::FxHashSet<ClusterId> = parts.stale.iter().copied().collect();
        let mut want: BTreeMap<ClusterId, Vec<CellId>> = BTreeMap::new();
        let mut want_column = Vec::new();
        for id in self.sorted_active_ids() {
            let Some(label) = self.slab.get(id).cluster else {
                return Err(format!("active {id} carries no cluster label"));
            };
            if !stale.contains(&label) {
                want.entry(label).or_default().push(id);
                want_column.push((id, label));
            }
        }
        if !parts.clusters.windows(2).all(|w| w[0].id < w[1].id) {
            return Err("shared parts are not strictly ascending by cluster id".into());
        }
        for part in parts.clusters.iter().filter(|part| !stale.contains(&part.id)) {
            let cells = want.remove(&part.id).unwrap_or_default();
            if *part.cells != *cells {
                return Err(format!(
                    "cluster {} shares cells {:?}, its members are {cells:?}",
                    part.id, part.cells
                ));
            }
            let bounds = self.dim.map(|_| self.seed_bounds(&cells));
            let same = match (&part.bounds, &bounds) {
                (Some(held), Some(fresh)) => same_bits(held, fresh),
                (held, fresh) => held.is_none() && fresh.is_none(),
            };
            if !same {
                return Err(format!(
                    "cluster {} shares bounds {:?}, its seeds give {bounds:?}",
                    part.id, part.bounds
                ));
            }
        }
        if let Some((id, cells)) = want.first_key_value() {
            return Err(format!("unmarked cluster {id} with members {cells:?} has no shared part"));
        }
        let column: Vec<(CellId, ClusterId)> =
            parts.members.iter().filter(|(_, c)| !stale.contains(c)).copied().collect();
        if column != want_column {
            return Err(format!("member column {column:?}, the labels give {want_column:?}"));
        }
        let mut positions = parts.positions.iter();
        let positions_hold = parts.positions.len() == parts.members.len()
            && parts.clusters.iter().all(|part| {
                part.cells
                    .iter()
                    .zip(positions.by_ref())
                    .all(|(&cell, &at)| parts.members.get(at as usize) == Some(&(cell, part.id)))
            });
        if !positions_hold {
            return Err("a position names another member of the column".into());
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

/// The parts of a freeze that depend only on cluster membership, kept
/// by the engine between freezes (see the `snapshot` module docs).
/// A cluster a cell entered or left is *stale*: the evolution diff and the
/// decay sweep, the two sites that write or clear cluster labels, mark it,
/// and the next freeze rebuilds its part from the tree.
#[derive(Debug, Clone, Default)]
pub(super) struct SharedParts {
    /// The live clusters' parts, ascending by cluster id.
    clusters: Vec<ClusterPart>,
    /// Every active cell with its cluster, ascending by cell id.
    members: Arc<[(CellId, ClusterId)]>,
    /// Where each part's cells sit in `members`: the parts' runs in part
    /// order, each cell's position in the order of the part's cells.
    positions: Vec<u32>,
    /// Clusters marked since the parts were last brought up to date, with
    /// repeats.
    stale: Vec<ClusterId>,
    /// Set instead of growing `stale` past its bound: every cluster is
    /// rebuilt.
    all_stale: bool,
}

/// One cluster's membership-only part.
#[derive(Debug, Clone)]
struct ClusterPart {
    id: ClusterId,
    /// Member cells, ascending.
    cells: Arc<[CellId]>,
    /// Bounding box of the members' seeds; `None` for coordinate-less
    /// payloads.
    bounds: Option<Arc<BoundingBox>>,
}

impl SharedParts {
    /// Marks `cluster` stale: a cell entered or left it.
    pub(super) fn mark(&mut self, cluster: ClusterId) {
        if self.all_stale || self.stale.last() == Some(&cluster) {
            return;
        }
        self.stale.push(cluster);
        // A stream that is never frozen keeps marking clusters that have
        // long died; past a bound, forget them and rebuild everything.
        let bound = 64 + 2 * self.clusters.len();
        if self.stale.len() > bound {
            self.stale.sort_unstable();
            self.stale.dedup();
            if self.stale.len() > bound / 2 {
                self.stale.clear();
                self.all_stale = true;
            }
        }
    }

    /// Whether some part must be rebuilt before a freeze.
    fn is_stale(&self) -> bool {
        self.all_stale || !self.stale.is_empty()
    }
}

/// Whether two boxes are the same to the bit, signs of zero included.
fn same_bits(a: &BoundingBox, b: &BoundingBox) -> bool {
    let same = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    same(&a.min, &b.min) && same(&a.max, &b.max)
}
