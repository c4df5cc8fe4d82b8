//! Snapshot publication: the compound published payload and the
//! cadence-driven publisher.
//!
//! A [`edm_core::ClusterSnapshot`] alone cannot answer *point-level*
//! queries — it stores cluster structure, not cell seeds. The serving
//! tier therefore publishes a [`Published`] payload: the snapshot **plus**
//! a member table over the active cells' seeds, each member's cluster and
//! the cell radius `r`, which is exactly what `cluster_of` needs (paper
//! §3.1: a point belongs to the cluster of its cell, i.e. of the nearest
//! seed within `r`).
//!
//! The member table answers that nearest-seed question without visiting
//! every member. It holds the seeds in ascending cell-id order, one pivot
//! (the member farthest from the lowest-id member) and every member's
//! distance to the pivot, sorted. A probe takes one distance, to the
//! pivot, binary-searches it among the sorted keys and walks outward,
//! always to the side with the smaller key gap. Once the gap exceeds the
//! best distance found, the triangle inequality `|d(q,p) − d(x,p)| ≤
//! d(q,x)` — the bound behind the paper's Theorem 2 filter — says no
//! member farther along can win or tie, and the walk stops. This is the
//! one-pivot form of LAESA (Micó, Oncina & Vidal, 1994). A metric that
//! does not opt into [`Metric::is_metric`] gets no pivot: every key is 0,
//! the walk never stops early and visits the members in cell-id order,
//! which is the plain scan.
//!
//! Building a table clones every member seed and takes two distances per
//! member. [`SnapshotPublisher`] skips that while the member set is
//! unchanged: a cell's seed never changes while the cell lives, and a
//! [`CellId`] names another cell only after recycling frees its slot
//! (counted in [`edm_core::EngineStats::recycled`]). So the same sorted
//! member ids at the same recycle count mean the same seeds, and the next
//! payload shares the previous table. Cluster labels are rebuilt on every
//! publication.

use std::sync::Arc;
use std::time::{Duration, Instant};

use edm_common::metric::Metric;
use edm_common::point::GridCoords;
use edm_core::cell::CellId;
use edm_core::evolution::ClusterId;
use edm_core::slab::CellSlab;
use edm_core::{ClusterSnapshot, DigestWindow, EdmStream, EvolutionDigest, EvolveError};

use crate::query::{Assignment, DimensionMismatch};
use crate::swap::SwapCell;

/// Relative slack on the member walk's stop test, after the cover tree's
/// `RADIUS_SLACK`: the walk stops only once the key gap exceeds the best
/// distance by this share of the distances involved, so rounding in the
/// computed distances can never drop a winner or a tie.
const GAP_SLACK: f64 = 1e-9;

/// The nearest-seed index over one member set. Immutable once built, and
/// shared by every publication with the same member set.
#[derive(Debug)]
struct MemberTable<P> {
    /// Member cell ids, ascending. A member's index here is its table
    /// position; positions break distance ties, toward the lower cell id.
    ids: Vec<CellId>,
    /// Member seeds, in table order.
    seeds: Vec<P>,
    /// `(distance to the pivot, table position)` of every member, ascending
    /// by distance, then position. Every key is 0 when there is no pivot.
    keys: Vec<(f64, usize)>,
    /// Table position of the pivot; `None` when there are no members or the
    /// metric does not vouch for the triangle inequality.
    pivot: Option<usize>,
    /// Coordinate count of the seeds; `None` when there are no members or
    /// the payload has no coordinates (token sets).
    dim: Option<usize>,
    /// The engine's recycle count when the table was built: with `ids`,
    /// the key under which a later publication may reuse the table.
    recycled: u64,
    /// Name of the metric the keys were computed under.
    metric: &'static str,
}

impl<P> MemberTable<P> {
    /// Freezes the seeds of the members `ids` (ascending) out of `slab`.
    fn build<M: Metric<P>>(ids: Vec<CellId>, recycled: u64, slab: &CellSlab<P>, metric: &M) -> Self
    where
        P: Clone + GridCoords,
    {
        let seeds: Vec<P> = ids.iter().map(|&cell| slab.get(cell).seed.clone()).collect();
        // Every payload of a stream has the same dimensionality
        // (`GridCoords` contract), so the first member speaks for all.
        let dim = seeds.first().and_then(P::grid_coords).map(<[f64]>::len);
        let pivot = match seeds.first() {
            Some(lowest) if metric.is_metric() => {
                let mut farthest = (0, 0.0);
                for (i, seed) in seeds.iter().enumerate() {
                    let d = metric.dist(seed, lowest);
                    if d > farthest.1 {
                        farthest = (i, d);
                    }
                }
                Some(farthest.0)
            }
            _ => None,
        };
        // Same argument order as the probe's `dist(p, pivot)`.
        let mut keys: Vec<(f64, usize)> = seeds
            .iter()
            .enumerate()
            .map(|(i, seed)| (pivot.map_or(0.0, |pv| metric.dist(seed, &seeds[pv])), i))
            .collect();
        // Stable: positions stay ascending among equal keys.
        keys.sort_by(|a, b| a.0.total_cmp(&b.0));
        MemberTable { ids, seeds, keys, pivot, dim, recycled, metric: metric.name() }
    }

    /// Whether the table's seeds are those of the members `ids`
    /// (ascending) at the recycle count `recycled`.
    fn holds(&self, ids: &[CellId], recycled: u64) -> bool {
        self.recycled == recycled && self.ids == ids
    }

    /// The member nearest to `p` as `(distance, table position)`, ties
    /// toward the lower position; `None` when the table is empty. Visits
    /// members in ascending key gap and answers exactly what a scan in
    /// cell-id order keeping the first strictly smaller distance would.
    fn nearest<M: Metric<P>>(&self, p: &P, metric: &M) -> Option<(f64, usize)> {
        let dq = self.pivot.map_or(0.0, |pv| metric.dist(p, &self.seeds[pv]));
        let start = self.keys.partition_point(|&(k, _)| k < dq);
        let (mut below, mut above) = (start, start);
        let mut best: Option<(f64, usize)> = None;
        loop {
            let down = below.checked_sub(1).map(|i| dq - self.keys[i].0);
            let up = self.keys.get(above).map(|&(k, _)| k - dq);
            let (gap, at) = match (down, up) {
                (Some(g), h) if h.is_none_or(|h| g <= h) => {
                    below -= 1;
                    (g, below)
                }
                (_, Some(h)) => {
                    above += 1;
                    (h, above - 1)
                }
                _ => break,
            };
            // Every member left on either side lies at least `gap` from `p`.
            if best.is_some_and(|(bd, _)| gap > bd + (bd + dq) * GAP_SLACK) {
                break;
            }
            let pos = self.keys[at].1;
            let d = metric.dist(p, &self.seeds[pos]);
            if best.is_none_or(|(bd, bpos)| d < bd || (d == bd && pos < bpos)) {
                best = Some((d, pos));
            }
        }
        best
    }
}

/// One published view: a frozen snapshot plus the point-level lookup
/// data readers need to answer `cluster_of` without the engine.
#[derive(Debug, Clone)]
pub struct Published<P> {
    snapshot: ClusterSnapshot,
    /// Nearest-seed index over the active cells; shared with earlier
    /// payloads of the same member set.
    table: Arc<MemberTable<P>>,
    /// Cluster of each table member, in table order.
    clusters: Vec<ClusterId>,
    /// Cell radius: the assignment cutoff for `cluster_of`.
    r: f64,
    /// `Arc`-shared view of the engine's sealed generation records at
    /// freeze time; readers compute evolution digests from it without
    /// ever re-entering (or blocking) the writer.
    window: DigestWindow,
    published_at: Instant,
}

impl<P> Published<P> {
    /// Freezes the engine's current state into a publishable payload and
    /// counts the publication in the engine's stats (via
    /// [`EdmStream::publish_snapshot`]). Always builds a fresh member
    /// table.
    pub fn freeze<M: Metric<P>>(engine: &mut EdmStream<P, M>) -> Self
    where
        P: Clone + GridCoords + Send + Sync,
    {
        Self::freeze_after(engine, None)
    }

    /// [`Published::freeze`], sharing `previous`'s member table when the
    /// member set is the one it was built from.
    fn freeze_after<M: Metric<P>>(
        engine: &mut EdmStream<P, M>,
        previous: Option<&Published<P>>,
    ) -> Self
    where
        P: Clone + GridCoords + Send + Sync,
    {
        let snapshot = engine.publish_snapshot(engine.stream_time());
        let mut members = Vec::with_capacity(snapshot.active_cells());
        for cluster in snapshot.clusters() {
            for &cell in &cluster.cells {
                members.push((cell, cluster.id));
            }
        }
        members.sort_by_key(|&(cell, _)| cell);
        let (ids, clusters): (Vec<CellId>, Vec<ClusterId>) = members.into_iter().unzip();
        let recycled = engine.stats().recycled;
        let table = match previous {
            Some(prev) if prev.table.holds(&ids, recycled) => Arc::clone(&prev.table),
            _ => Arc::new(MemberTable::build(ids, recycled, engine.slab(), engine.metric())),
        };
        let r = engine.config().r();
        // After publish_snapshot: the window includes the record this
        // very publication just sealed.
        let window = engine.digest_window();
        Published { snapshot, table, clusters, r, window, published_at: Instant::now() }
    }

    /// The frozen cluster snapshot.
    pub fn snapshot(&self) -> &ClusterSnapshot {
        &self.snapshot
    }

    /// Publication generation (1-based, strictly monotone across one
    /// publisher's output).
    pub fn generation(&self) -> u64 {
        self.snapshot.generation()
    }

    /// Stream time the payload reflects.
    pub fn as_of(&self) -> f64 {
        self.snapshot.as_of()
    }

    /// Wall-clock age of this publication.
    pub fn age(&self) -> Duration {
        self.published_at.elapsed()
    }

    /// Number of `(cell, cluster, seed)` members frozen (== active cells
    /// in clusters at publication time).
    pub fn n_members(&self) -> usize {
        self.clusters.len()
    }

    /// The `(oldest, latest)` generations this payload can digest over,
    /// or `None` when evolution tracking is disabled. The latest held
    /// generation is this payload's own [`Published::generation`].
    pub fn digest_generations(&self) -> Option<(u64, u64)> {
        self.window.generations()
    }

    /// What changed since generation `from`, up to this payload's own
    /// generation: births, deaths, merges, splits and mass drift (see
    /// [`EvolutionDigest`]). Computed entirely from the frozen window —
    /// the writer is never touched. Like every published read, the
    /// answer is as stale as the payload itself
    /// ([`Published::generation`] names the horizon).
    pub fn digest_since(&self, from: u64) -> Result<EvolutionDigest, EvolveError> {
        self.window.digest_since(from)
    }

    /// What changed in the window `(from, to]` of published generations,
    /// both within this payload's held history.
    pub fn digest_between(&self, from: u64, to: u64) -> Result<EvolutionDigest, EvolveError> {
        self.window.digest(from, to)
    }

    /// The cluster a fresh point would join: the cluster of the nearest
    /// published seed within `r` under `metric` (ties broken toward the
    /// lower cell id, matching the engine's assignment scan). `None`
    /// means the point would currently be an outlier, or that it has
    /// another dimensionality than the members ([`Published::assign`]
    /// tells the two apart). `metric` must be the engine's metric: the
    /// member table is ordered under it.
    ///
    /// This answers from the *published* state — a point ingested after
    /// the snapshot froze may land elsewhere once the next generation is
    /// published; that staleness window is the serving tradeoff
    /// (`ServeConfig::publish_every_batches`).
    pub fn cluster_of<M: Metric<P>>(&self, p: &P, metric: &M) -> Option<ClusterId>
    where
        P: GridCoords,
    {
        self.assign(p, metric).ok()?.membership()
    }

    /// [`Published::cluster_of`] with the miss reason kept: the same
    /// nearest-seed-within-`r` search, but a miss distinguishes an empty
    /// snapshot (nothing clustered yet) from a genuine outlier, and a
    /// hit reports the winning distance. `metric` must be the engine's
    /// metric: the member table is ordered under it. A point whose
    /// coordinate count differs from the members' is refused before any
    /// distance is taken: the kernels compare coordinate by coordinate,
    /// so against a shorter or longer seed they would index past its end
    /// (a panic) or silently ignore the coordinates the two do not share.
    pub fn assign<M: Metric<P>>(&self, p: &P, metric: &M) -> Result<Assignment, DimensionMismatch>
    where
        P: GridCoords,
    {
        if let (Some(expected), Some(coords)) = (self.table.dim, p.grid_coords()) {
            if coords.len() != expected {
                return Err(DimensionMismatch { expected, got: coords.len() });
            }
        }
        debug_assert_eq!(
            metric.name(),
            self.table.metric,
            "assign must use the engine's metric: the member table is ordered under it"
        );
        Ok(match self.table.nearest(p, metric) {
            None => Assignment::EmptySnapshot,
            Some((d, pos)) if d <= self.r => {
                Assignment::Member { cluster: self.clusters[pos], distance: d }
            }
            Some((d, _)) => Assignment::OutOfRadius { nearest: d, r: self.r },
        })
    }
}

/// The reader side of a publisher: a cloneable, lock-free view of the
/// latest [`Published`] payload. All [`crate::ServeHandle`] reads go
/// through one of these.
pub struct SnapshotSource<P> {
    cell: Arc<SwapCell<Published<P>>>,
}

impl<P> Clone for SnapshotSource<P> {
    fn clone(&self) -> Self {
        SnapshotSource { cell: Arc::clone(&self.cell) }
    }
}

impl<P> SnapshotSource<P> {
    /// The latest published payload. Lock-free; never blocks on the
    /// writer.
    pub fn latest(&self) -> Arc<Published<P>> {
        self.cell.load()
    }

    /// Generation of the latest published payload.
    pub fn generation(&self) -> u64 {
        self.latest().generation()
    }
}

/// The writer side: owns the publication cadence and swaps fresh
/// [`Published`] payloads into the shared cell.
///
/// Single-owner by construction (not `Clone`, methods take `&mut self`),
/// which is what makes the underlying [`SwapCell`] single-writer. The
/// serving tier drives one of these from its writer thread;
/// [`SnapshotPublisher::new`] performs the initial publication
/// synchronously, so readers always observe *some* payload.
pub struct SnapshotPublisher<P> {
    cell: Arc<SwapCell<Published<P>>>,
    every_batches: u64,
    interval: Option<Duration>,
    batches_since_publish: u64,
    last_publish: Instant,
}

impl<P: Clone + GridCoords + Send + Sync> SnapshotPublisher<P> {
    /// Publishes the engine's current state as generation 1 (well,
    /// `engine.stats().snapshots_published + 1`) and returns the
    /// publisher configured for the given cadence: republish after every
    /// `every_batches` ingested batches, and additionally whenever
    /// `interval` wall-clock time has passed (if set).
    pub fn new<M: Metric<P>>(
        engine: &mut EdmStream<P, M>,
        every_batches: u64,
        interval: Option<Duration>,
    ) -> Self {
        let first = Published::freeze(engine);
        SnapshotPublisher {
            cell: Arc::new(SwapCell::new(Arc::new(first))),
            every_batches: every_batches.max(1),
            interval,
            batches_since_publish: 0,
            last_publish: Instant::now(),
        }
    }

    /// A new reader handle onto this publisher's output.
    pub fn source(&self) -> SnapshotSource<P> {
        SnapshotSource { cell: Arc::clone(&self.cell) }
    }

    /// Unconditionally publishes the engine's current state. The new
    /// payload shares the replaced payload's member table when the member
    /// set has not changed, so `engine` must be the engine this publisher
    /// was created with.
    pub fn publish<M: Metric<P>>(&mut self, engine: &mut EdmStream<P, M>) {
        let next = Published::freeze_after(engine, Some(&self.cell.load()));
        self.cell.store(Arc::new(next));
        self.batches_since_publish = 0;
        self.last_publish = Instant::now();
    }

    /// Notes one ingested batch; publishes iff that completes the
    /// every-K-batches cadence. Returns whether it published.
    pub fn note_batch<M: Metric<P>>(&mut self, engine: &mut EdmStream<P, M>) -> bool {
        self.batches_since_publish += 1;
        if self.batches_since_publish >= self.every_batches {
            self.publish(engine);
            true
        } else {
            false
        }
    }

    /// Publishes iff the wall-clock interval cadence is due. Returns
    /// whether it published.
    pub fn publish_if_due<M: Metric<P>>(&mut self, engine: &mut EdmStream<P, M>) -> bool {
        match self.interval {
            Some(dt) if self.last_publish.elapsed() >= dt => {
                self.publish(engine);
                true
            }
            _ => false,
        }
    }

    /// How long the writer may sleep waiting for work before the interval
    /// cadence needs a publication; `None` when publication is purely
    /// batch-driven.
    pub fn poll_timeout(&self) -> Option<Duration> {
        self.interval.map(|dt| dt.saturating_sub(self.last_publish.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use edm_common::metric::Euclidean;
    use edm_common::point::DenseVector;
    use edm_core::EdmConfig;

    use super::*;

    fn engine() -> EdmStream<DenseVector, Euclidean> {
        let cfg = EdmConfig::builder(0.5)
            .rate(100.0)
            .beta_for_threshold(3.0)
            .age_adjusted_threshold(false)
            .init_points(4)
            .maintenance_every(1)
            .recycle_horizon(5.0)
            .build()
            .expect("valid test configuration");
        EdmStream::new(cfg, Euclidean)
    }

    /// Four points on each of `sites`, round-robin, 10 ms apart: enough
    /// to activate every one of them.
    fn feed(e: &mut EdmStream<DenseVector, Euclidean>, sites: &[[f64; 2]], t: &mut f64) {
        for _ in 0..4 {
            for &site in sites {
                *t += 0.01;
                e.insert(&DenseVector::from(site), *t);
            }
        }
    }

    #[test]
    fn publications_of_an_unchanged_member_set_share_one_table() {
        let mut e = engine();
        let mut t = 0.0;
        feed(&mut e, &[[0.0, 0.0], [4.0, 0.0]], &mut t);
        let mut publisher = SnapshotPublisher::new(&mut e, 1, None);
        let first = publisher.source().latest();
        assert_eq!(first.n_members(), 2);
        publisher.publish(&mut e);
        let second = publisher.source().latest();
        assert_eq!(second.generation(), first.generation() + 1);
        assert!(Arc::ptr_eq(&first.table, &second.table));
        // Points absorbed by members leave the member set alone.
        feed(&mut e, &[[0.0, 0.0]], &mut t);
        publisher.publish(&mut e);
        assert!(Arc::ptr_eq(&second.table, &publisher.source().latest().table));
        // A fresh freeze always builds its own table.
        assert!(!Arc::ptr_eq(&Published::freeze(&mut e).table, &second.table));
    }

    #[test]
    fn a_recycle_forces_a_rebuild_of_the_same_member_ids() {
        let mut e = engine();
        let parking = DenseVector::from([40.0, 0.0]);
        let mut t = 0.0;
        e.insert(&parking, t);
        feed(&mut e, &[[0.0, 0.0]], &mut t);
        let mut publisher = SnapshotPublisher::new(&mut e, 1, None);
        let before = publisher.source().latest();
        assert_eq!(before.n_members(), 1);
        // Past the horizon, a point on the parking cell keeps that cell
        // alive while its maintenance tick recycles the decayed member;
        // the next cell born takes the freed slot.
        t += 400.0;
        e.insert(&parking, t);
        assert_eq!(e.stats().recycled, 1);
        feed(&mut e, &[[1.0, 0.0]], &mut t);
        publisher.publish(&mut e);
        let after = publisher.source().latest();
        assert_eq!(after.table.ids, before.table.ids);
        assert!(!Arc::ptr_eq(&before.table, &after.table));
        let on_new_seed = after.assign(&DenseVector::from([1.0, 0.0]), &Euclidean);
        assert!(
            matches!(on_new_seed, Ok(Assignment::Member { distance, .. }) if distance == 0.0),
            "{on_new_seed:?}"
        );
    }
}
