//! Dropping an engine mid-stream must join every pool worker: the
//! persistent pool owns real OS threads, so a missed join is a thread
//! leak that outlives the engine. This lives in its own test binary so
//! `live_pool_workers()` — a process-wide counter — is not perturbed by
//! concurrent engine-spawning tests in other suites.

use edmstream::{live_pool_workers, DenseVector, EdmConfig, EdmStream, Euclidean};
use std::num::NonZeroUsize;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// `live_pool_workers()` is process-wide, so even within this binary the
/// tests must not overlap; each takes this lock first.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn engine(threads: usize) -> EdmStream<DenseVector, Euclidean> {
    let cfg = EdmConfig::builder(0.8)
        .rate(100.0)
        .beta_for_threshold(3.0)
        .init_points(25)
        .ingest_threads(NonZeroUsize::new(threads).expect("nonzero"))
        .build()
        .expect("valid test configuration");
    EdmStream::new(cfg, Euclidean)
}

fn batch(n: usize) -> Vec<(DenseVector, f64)> {
    (0..n)
        .map(|i| {
            let x = (i % 16) as f64 * 2.5;
            let y = (i / 16 % 16) as f64 * 2.5;
            (DenseVector::from([x, y]), i as f64 / 100.0)
        })
        .collect()
}

/// Waits for the live-worker count to return to `baseline`. Worker exit
/// is asynchronous only in the narrow window between `Drop` signalling
/// shutdown and `join` returning, so this should converge immediately;
/// the timeout exists to turn a leak into a readable failure.
fn assert_workers_drain_to(baseline: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let live = live_pool_workers();
        if live == baseline {
            return;
        }
        assert!(Instant::now() < deadline, "pool workers leaked: {live} live, expected {baseline}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn dropping_engine_mid_batch_joins_all_workers() {
    let _guard = exclusive();
    let baseline = live_pool_workers();

    {
        let mut e = engine(4);
        // Enough points to leave init and fan out probe rounds — the
        // pool is hot (workers parked between rounds, not
        // exited) at the moment the engine is dropped.
        let points = batch(700);
        for window in points.chunks(64) {
            e.insert_batch(window);
        }
        assert!(
            live_pool_workers() >= baseline + 3,
            "a 4-thread engine should keep 3 persistent workers alive"
        );
        assert!(e.stats().pool_rounds > 0, "pool never dispatched a round");
        // Drop with work freshly completed and workers parked.
    }

    assert_workers_drain_to(baseline);
}

#[test]
fn serial_engine_spawns_no_workers() {
    // The forced-threads CI leg reroutes `ingest_threads: 1` back to 4 in
    // debug builds (see engine/mod.rs), which defeats this test's point.
    if std::env::var_os("EDM_FORCE_INGEST_THREADS").is_some() {
        return;
    }
    let _guard = exclusive();
    let baseline = live_pool_workers();
    let mut e = engine(1);
    e.insert_batch(&batch(300));
    assert_eq!(live_pool_workers(), baseline, "ingest_threads=1 must not spawn pool workers");
    assert_eq!(e.stats().pool_rounds, 0, "serial engines run every round inline");
    drop(e);
    assert_workers_drain_to(baseline);
}

#[test]
fn repeated_engine_churn_does_not_accumulate_threads() {
    let _guard = exclusive();
    let baseline = live_pool_workers();
    for _ in 0..8 {
        let mut e = engine(4);
        e.insert_batch(&batch(200));
        drop(e);
        assert_workers_drain_to(baseline);
    }
}
