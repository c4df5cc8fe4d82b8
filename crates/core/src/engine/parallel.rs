//! Parallel probe phase of batch ingest (probe-then-commit).
//!
//! [`EdmStream::insert_batch`] with `ingest_threads > 1` splits each batch
//! into two phases:
//!
//! 1. **Probe** (parallel, here): every point's assignment query — the
//!    nearest cell seed within `r`, resolved through the neighbor index —
//!    runs against `&self` engine state, fanned out across the engine's
//!    persistent [`super::pool::WorkerPool`]. This is safe because queries
//!    are strictly read-only (the layering contract of [`super`]) and is
//!    where an insert spends most of its time in absorb-dominated steady
//!    state.
//! 2. **Commit** (in `ingest.rs`): points apply serially, in timestamp
//!    order. A pre-computed probe is only trusted while no earlier commit
//!    in the same batch could have changed its answer *or its probed
//!    set*: a cell birth near the point (decided by
//!    [`crate::index::NeighborIndex::probe_conflicts`]), any recycling,
//!    or a grid rebuild sends the point back through the serial scan —
//!    counted in [`crate::EngineStats::probe_revalidations`]. Output is
//!    therefore observationally identical to the serial per-point loop at
//!    every thread count; parallelism only changes who computes the
//!    probes.
//!
//! The pool's threads persist across rounds and park between them, so
//! steady-state probing costs a wake/park cycle instead of a spawn/join
//! pair. A round's batch is split into chunks several times smaller than
//! an even per-thread share and handed out from a mutex-guarded queue
//! that every participant drains, so a thread that drew cheap probes
//! takes over the tail from one that drew expensive ones. The
//! [`ProbeSlot`] result buffers persist on the engine, so a steady-state
//! round allocates nothing.

use std::sync::Mutex;

use edm_common::metric::Metric;
use edm_common::point::GridCoords;
use edm_common::time::Timestamp;

use crate::cell::CellId;
use crate::index::{CellIndex, NeighborIndex};
use crate::slab::CellSlab;

use super::pool::WorkerPool;

/// Probe chunks per participating thread: finer than one chunk per
/// thread so an unlucky thread's expensive tail is taken over by the
/// others, coarse enough that queue-lock traffic stays negligible.
const TASKS_PER_PARTICIPANT: usize = 4;

/// Minimum probe-chunk length — below this, queue traffic would rival
/// the probes themselves, and a round that fits one chunk runs inline.
const MIN_CHUNK: usize = 16;

/// One point's resolved assignment probe, computed against the engine
/// state at probe time.
#[derive(Debug, Clone, Default)]
pub(super) struct ProbeSlot {
    /// The nearest cell within `r`, if any — what
    /// `EdmStream::scan_distances` would have returned.
    pub(super) best: Option<(CellId, f64)>,
    /// Every (cell, distance) the index actually computed, in probe
    /// order — replayed into the engine's epoch-stamped scratch table at
    /// commit time, where it feeds the Theorem 2 triangle filter exactly
    /// like a serial scan's recordings would.
    pub(super) probes: Vec<(CellId, f64)>,
}

/// Reusable result slots for the probe phase; they persist across
/// batches so steady-state probing allocates nothing.
#[derive(Debug, Default)]
pub(super) struct ProbePool {
    slots: Vec<ProbeSlot>,
}

impl ProbePool {
    /// Probes every point of `batch` against the (frozen, shared) index
    /// and slab, fanning chunks out across `workers`, and returns one
    /// filled slot per point, in batch order.
    ///
    /// The calling thread drains the chunk queue like any pool worker,
    /// so `threads = 1` (or a single-chunk round) degenerates to an
    /// inline loop without waking anyone.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn run<P, M>(
        &mut self,
        workers: &mut WorkerPool,
        threads: usize,
        batch: &[(P, Timestamp)],
        index: &CellIndex,
        slab: &CellSlab<P>,
        metric: &M,
        radius: f64,
    ) -> &mut [ProbeSlot]
    where
        P: Clone + GridCoords + Sync,
        M: Metric<P>,
    {
        let n = batch.len();
        if self.slots.len() < n {
            self.slots.resize_with(n, ProbeSlot::default);
        }
        let participants = threads.min(n).max(1);
        let chunk = n.div_ceil(participants * TASKS_PER_PARTICIPANT).max(MIN_CHUNK);
        if participants == 1 || n <= chunk {
            for ((p, _), slot) in batch.iter().zip(self.slots.iter_mut()) {
                probe_one(index, slab, metric, radius, p, slot);
            }
            return &mut self.slots[..n];
        }
        let queue = Mutex::new(batch.chunks(chunk).zip(self.slots[..n].chunks_mut(chunk)));
        workers.run(&|| loop {
            // The guard drops at the end of this statement, so probes run
            // outside the lock and a panicking probe cannot poison it.
            let Some((points, slots)) =
                queue.lock().expect("probes run outside the queue lock").next()
            else {
                return;
            };
            for ((p, _), slot) in points.iter().zip(slots) {
                probe_one(index, slab, metric, radius, p, slot);
            }
        });
        &mut self.slots[..n]
    }
}

/// Resolves one point's assignment probe into its slot, recording every
/// distance the index computes (mirroring `EdmStream::scan_distances`,
/// minus the engine-side bookkeeping the commit phase replays).
fn probe_one<P: Clone + GridCoords, M: Metric<P>>(
    index: &CellIndex,
    slab: &CellSlab<P>,
    metric: &M,
    radius: f64,
    p: &P,
    slot: &mut ProbeSlot,
) {
    let ProbeSlot { best, probes } = slot;
    probes.clear();
    *best = index.nearest_within(p, radius, slab, metric, &mut |id, d| probes.push((id, d)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use edm_common::metric::Euclidean;
    use edm_common::point::DenseVector;

    fn slab_grid(n: usize) -> (CellSlab<DenseVector>, CellIndex) {
        let mut slab = CellSlab::new();
        let mut index = CellIndex::from_config(
            crate::index::NeighborIndexKind::Grid { side: None },
            0.5,
            true,
            true,
        );
        for i in 0..n {
            let seed = DenseVector::from([(i % 16) as f64 * 2.0, (i / 16) as f64 * 2.0]);
            let id = slab.insert(Cell::new(seed, 0.0));
            index.on_insert(id, &slab.get(id).seed, &slab, &Euclidean);
        }
        (slab, index)
    }

    #[test]
    fn pool_matches_direct_probes_at_every_thread_count() {
        let (slab, index) = slab_grid(64);
        let batch: Vec<(DenseVector, Timestamp)> = (0..137)
            .map(|i| (DenseVector::from([(i % 16) as f64 * 2.0 + 0.1, 0.2]), i as f64))
            .collect();
        let mut reference: Vec<ProbeSlot> = Vec::new();
        for (p, _) in &batch {
            let mut slot = ProbeSlot::default();
            probe_one(&index, &slab, &Euclidean, 0.5, p, &mut slot);
            reference.push(slot);
        }
        for threads in [1, 2, 4, 64] {
            let mut workers = WorkerPool::new(threads);
            let mut pool = ProbePool::default();
            let slots = pool.run(&mut workers, threads, &batch, &index, &slab, &Euclidean, 0.5);
            assert_eq!(slots.len(), batch.len());
            for (got, want) in slots.iter().zip(&reference) {
                assert_eq!(got.best, want.best, "threads={threads}");
                assert_eq!(got.probes, want.probes, "threads={threads}");
            }
        }
    }

    #[test]
    fn pool_reuses_slots_across_batches() {
        let (slab, index) = slab_grid(16);
        let batch: Vec<(DenseVector, Timestamp)> =
            (0..8).map(|i| (DenseVector::from([i as f64 * 2.0, 0.0]), i as f64)).collect();
        let mut workers = WorkerPool::new(2);
        let mut pool = ProbePool::default();
        pool.run(&mut workers, 2, &batch, &index, &slab, &Euclidean, 0.5);
        // A second, smaller batch must only see freshly cleared slots.
        let small: Vec<(DenseVector, Timestamp)> = vec![(DenseVector::from([1000.0, 1000.0]), 9.0)];
        let slots = pool.run(&mut workers, 2, &small, &index, &slab, &Euclidean, 0.5);
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].best, None);
        assert!(slots[0].probes.is_empty(), "stale probes must not leak across batches");
    }

    #[test]
    fn large_rounds_reuse_the_same_persistent_workers() {
        let (slab, index) = slab_grid(64);
        let batch: Vec<(DenseVector, Timestamp)> = (0..512)
            .map(|i| (DenseVector::from([(i % 16) as f64 * 2.0 + 0.1, 0.2]), i as f64))
            .collect();
        let mut workers = WorkerPool::new(4);
        let mut pool = ProbePool::default();
        for round in 1..=5 {
            pool.run(&mut workers, 4, &batch, &index, &slab, &Euclidean, 0.5);
            assert_eq!(workers.rounds(), round, "each batch is one pool round");
        }
        assert_eq!(workers.spawned(), 3, "no per-batch spawn: workers persist");
    }
}
