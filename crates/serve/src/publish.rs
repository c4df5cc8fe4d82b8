//! Snapshot publication: the compound published payload and the
//! cadence-driven publisher.
//!
//! A [`edm_core::ClusterSnapshot`] alone cannot answer *point-level*
//! queries — it stores cluster structure, not cell seeds. The serving
//! tier therefore publishes a [`Published`] payload: the snapshot **plus**
//! the active cells' `(cell, cluster, seed)` triples and the cell radius
//! `r`, which is exactly what `cluster_of` needs (paper §3.1: a point
//! belongs to the cluster of its cell, i.e. of the nearest seed within
//! `r`). Freezing the members costs one pass over the active cells — the
//! same order as the snapshot freeze itself.

use std::sync::Arc;
use std::time::{Duration, Instant};

use edm_common::metric::Metric;
use edm_common::point::GridCoords;
use edm_core::cell::CellId;
use edm_core::evolution::ClusterId;
use edm_core::{ClusterSnapshot, DigestWindow, EdmStream, EvolutionDigest, EvolveError};

use crate::query::{Assignment, DimensionMismatch};
use crate::swap::SwapCell;

/// One published view: a frozen snapshot plus the point-level lookup
/// data readers need to answer `cluster_of` without the engine.
#[derive(Debug, Clone)]
pub struct Published<P> {
    snapshot: ClusterSnapshot,
    /// `(cell, cluster, seed)` of every active cell, sorted by cell id so
    /// the nearest-seed tie-break below is deterministic.
    members: Vec<(CellId, ClusterId, P)>,
    /// Cell radius: the assignment cutoff for `cluster_of`.
    r: f64,
    /// Coordinate count of the member seeds; `None` when there are no
    /// members or the payload has no coordinates (token sets).
    dim: Option<usize>,
    /// `Arc`-shared view of the engine's sealed generation records at
    /// freeze time; readers compute evolution digests from it without
    /// ever re-entering (or blocking) the writer.
    window: DigestWindow,
    published_at: Instant,
}

impl<P> Published<P> {
    /// Freezes the engine's current state into a publishable payload and
    /// counts the publication in the engine's stats (via
    /// [`EdmStream::publish_snapshot`]).
    pub fn freeze<M: Metric<P>>(engine: &mut EdmStream<P, M>) -> Self
    where
        P: Clone + GridCoords + Send + Sync,
    {
        let snapshot = engine.publish_snapshot(engine.stream_time());
        let mut members = Vec::with_capacity(snapshot.active_cells());
        for cluster in snapshot.clusters() {
            for &cell in &cluster.cells {
                members.push((cell, cluster.id, engine.slab().get(cell).seed.clone()));
            }
        }
        members.sort_by_key(|&(cell, _, _)| cell);
        let r = engine.config().r();
        // Every payload of a stream has the same dimensionality
        // (`GridCoords` contract), so the first member speaks for all.
        let dim = members.first().and_then(|(_, _, seed)| seed.grid_coords()).map(<[f64]>::len);
        // After publish_snapshot: the window includes the record this
        // very publication just sealed.
        let window = engine.digest_window();
        Published { snapshot, members, r, dim, window, published_at: Instant::now() }
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
        self.members.len()
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
    /// tells the two apart).
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
    /// nearest-seed-within-`r` scan, but a miss distinguishes an empty
    /// snapshot (nothing clustered yet) from a genuine outlier, and a
    /// hit reports the winning distance. A point whose coordinate count
    /// differs from the members' is refused before any distance is
    /// taken: the kernels compare coordinate by coordinate, so against a
    /// shorter or longer seed they would index past its end (a panic) or
    /// silently ignore the coordinates the two do not share.
    pub fn assign<M: Metric<P>>(&self, p: &P, metric: &M) -> Result<Assignment, DimensionMismatch>
    where
        P: GridCoords,
    {
        if let (Some(expected), Some(coords)) = (self.dim, p.grid_coords()) {
            if coords.len() != expected {
                return Err(DimensionMismatch { expected, got: coords.len() });
            }
        }
        let mut best: Option<(f64, ClusterId)> = None;
        for (_, cluster, seed) in &self.members {
            let d = metric.dist(p, seed);
            if best.is_none_or(|(bd, _)| d < bd) {
                // Strict `<` + id-sorted members = lowest-id winner on
                // ties, without tracking ids here.
                best = Some((d, *cluster));
            }
        }
        Ok(match best {
            None => Assignment::EmptySnapshot,
            Some((d, cluster)) if d <= self.r => Assignment::Member { cluster, distance: d },
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

    /// Unconditionally publishes the engine's current state.
    pub fn publish<M: Metric<P>>(&mut self, engine: &mut EdmStream<P, M>) {
        self.cell.store(Arc::new(Published::freeze(engine)));
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
