//! Parallel batch ingest must be *observationally equivalent* to the
//! serial per-point loop: same cells, same dependency tree, same cluster
//! partition, same τ, same evolution events, and the same engine stats
//! modulo the parallel-path counters (`probe_tasks`,
//! `probe_revalidations`, `parallel_batches`) and wall-clock timings.
//! This is the exactness contract that makes `ingest_threads` a pure
//! throughput knob: turning it up can never change clustering output.
//!
//! The property runs random streams through threads ∈ {1, 2, 4} with
//! random chunking, across the init-phase boundary (small init buffers
//! mean some chunks straddle initialization), with the maintenance
//! cadence firing mid-batch, and with a ΔT_del recycling horizon short
//! enough that cells die while probes for later points are already
//! computed — the hardest case for probe revalidation.

use edmstream::{DenseVector, EdmConfig, EdmStream, Euclidean, Event, NeighborIndexKind};
use proptest::prelude::*;
use std::num::NonZeroUsize;

fn engine_with_index(
    threads: usize,
    recycle_horizon: f64,
    index: impl Into<Option<NeighborIndexKind>>,
) -> EdmStream<DenseVector, Euclidean> {
    let cfg = EdmConfig::builder(0.8)
        .rate(100.0)
        .beta_for_threshold(3.0)
        .init_points(25)
        .tau_every(16)
        .maintenance_every(8)
        .recycle_horizon(recycle_horizon)
        .neighbor_index(index)
        .ingest_threads(NonZeroUsize::new(threads).expect("nonzero"))
        .build()
        .expect("valid test configuration");
    EdmStream::new(cfg, Euclidean)
}

fn engine(threads: usize, recycle_horizon: f64) -> EdmStream<DenseVector, Euclidean> {
    engine_with_index(threads, recycle_horizon, None)
}

/// Per-cell `(slot, dep, delta, active, raw_rho)` tree state.
type CellState = Vec<(u32, Option<u32>, f64, bool, f64)>;

/// Full observable state, with stats normalized through
/// `EngineStats::normalized_for_equivalence` — the engine-side single
/// source of truth for which fields may legitimately differ between
/// serial and parallel ingestion.
fn observe(
    engine: &mut EdmStream<DenseVector, Euclidean>,
    t: f64,
) -> (CellState, Vec<Vec<u32>>, f64, Vec<Event>, String) {
    let mut cells: CellState = engine
        .slab()
        .iter()
        .map(|(id, c)| (id.0, c.dep.map(|d| d.0), c.delta, c.active, c.raw_rho().0))
        .collect();
    cells.sort_by_key(|c| c.0);
    let snap = engine.snapshot(t);
    let clusters: Vec<Vec<u32>> =
        snap.clusters().iter().map(|c| c.cells.iter().map(|id| id.0).collect()).collect();
    let stats = snap.stats().normalized_for_equivalence();
    (cells, clusters, snap.tau(), engine.take_events(), format!("{stats:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_ingest_is_observationally_equivalent_for_all_thread_counts(
        points in prop::collection::vec(((-5.0f64..15.0), (-3.0f64..3.0)), 60..280),
        chunk in 1usize..96,
        recycle_fast in 0usize..2,
    ) {
        let batch: Vec<(DenseVector, f64)> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (DenseVector::from([x, y]), i as f64 / 100.0))
            .collect();
        let t = batch.len() as f64 / 100.0;
        // A ~1 s horizon recycles cells while the stream still runs; the
        // long horizon keeps every cell alive — both shapes must agree.
        let horizon = if recycle_fast == 1 { 1.0 } else { 1e9 };

        // Reference: one insert per point on the serial engine.
        let mut reference = engine(1, horizon);
        for (p, ts) in &batch {
            reference.insert(p, *ts);
        }
        let want = observe(&mut reference, t);

        for threads in [1usize, 2, 4] {
            let mut e = engine(threads, horizon);
            for window in batch.chunks(chunk) {
                e.insert_batch(window);
            }
            let got = observe(&mut e, t);
            prop_assert_eq!(&got.0, &want.0, "cell state diverged (threads={})", threads);
            prop_assert_eq!(&got.1, &want.1, "clusters diverged (threads={})", threads);
            prop_assert_eq!(got.2, want.2, "tau diverged (threads={})", threads);
            prop_assert_eq!(&got.3, &want.3, "events diverged (threads={})", threads);
            prop_assert_eq!(&got.4, &want.4, "stats diverged (threads={})", threads);
            prop_assert!(e.check_invariants(t).is_ok());
            prop_assert!(e.check_index().is_ok());
        }
    }

    /// The cover tree's `probe_conflicts` is maximally conservative (any
    /// birth invalidates every pending probe, since radii widen along
    /// arbitrary insertion paths); the parallel pipeline must therefore
    /// stay *exact* over it — same cells, tree, clusters, τ, events and
    /// stats as one serial insert per point — across recycling and
    /// chunking, at every thread count.
    #[test]
    fn cover_tree_parallel_ingest_is_observationally_equivalent(
        points in prop::collection::vec(((-5.0f64..15.0), (-3.0f64..3.0)), 60..240),
        chunk in 1usize..96,
        recycle_fast in 0usize..2,
    ) {
        let batch: Vec<(DenseVector, f64)> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (DenseVector::from([x, y]), i as f64 / 100.0))
            .collect();
        let t = batch.len() as f64 / 100.0;
        let horizon = if recycle_fast == 1 { 1.0 } else { 1e9 };

        let mut reference = engine_with_index(1, horizon, NeighborIndexKind::CoverTree);
        for (p, ts) in &batch {
            reference.insert(p, *ts);
        }
        let want = observe(&mut reference, t);

        for threads in [2usize, 4] {
            let mut e = engine_with_index(threads, horizon, NeighborIndexKind::CoverTree);
            for window in batch.chunks(chunk) {
                e.insert_batch(window);
            }
            let got = observe(&mut e, t);
            prop_assert_eq!(&got, &want, "threads={}", threads);
            prop_assert!(e.check_invariants(t).is_ok());
            prop_assert!(e.check_index().is_ok());
        }
    }

    #[test]
    fn force_init_mid_stream_keeps_parallel_and_serial_aligned(
        points in prop::collection::vec(((-4.0f64..12.0), (-2.0f64..2.0)), 10..80),
        cut in 1usize..9,
    ) {
        // `force_init` before the buffer fills (short streams, early
        // queries) is the other init-phase boundary: everything after it
        // runs the live path even though fewer than `init_points` arrived.
        let batch: Vec<(DenseVector, f64)> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (DenseVector::from([x, y]), i as f64 / 100.0))
            .collect();
        let cut = cut.min(batch.len());
        let t = batch.len() as f64 / 100.0;

        let mut reference = engine(1, 1e9);
        for (p, ts) in &batch[..cut] {
            reference.insert(p, *ts);
        }
        reference.force_init();
        for (p, ts) in &batch[cut..] {
            reference.insert(p, *ts);
        }
        let want = observe(&mut reference, t);

        for threads in [2usize, 4] {
            let mut e = engine(threads, 1e9);
            e.insert_batch(&batch[..cut]);
            e.force_init();
            e.insert_batch(&batch[cut..]);
            let got = observe(&mut e, t);
            prop_assert_eq!(&got, &want, "threads={}", threads);
        }
    }
}
