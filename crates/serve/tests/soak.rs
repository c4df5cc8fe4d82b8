//! Multi-threaded soak: N reader threads hammer every read API while one
//! producer drives sustained ingest. Each observed payload must be
//! internally coherent (snapshot and membership data frozen together,
//! never a torn mix of two generations) and the generation sequence each
//! reader observes must be monotone.

use std::num::{NonZeroU64, NonZeroUsize};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use edm_common::metric::{Euclidean, Metric};
use edm_common::point::DenseVector;
use edm_core::{EdmConfig, EdmStream};
use edm_serve::{BackpressurePolicy, EdmServer, ServeConfig, ServeError};

/// Two well-separated blobs around (0,0) and (10,0); points alternate.
fn blob_batch(start: usize, n: usize) -> Vec<(DenseVector, f64)> {
    (start..start + n)
        .map(|i| {
            let cx = if i % 2 == 0 { 0.0 } else { 10.0 };
            let jx = 0.3 * ((i / 2) % 5) as f64 * if i % 4 < 2 { 1.0 } else { -1.0 };
            let jy = 0.3 * ((i / 3) % 5) as f64 - 0.6;
            (DenseVector::from([cx + jx, jy]), i as f64 / 1000.0)
        })
        .collect()
}

fn engine() -> EdmStream<DenseVector, Euclidean> {
    let cfg = EdmConfig::builder(1.2)
        .rate(1000.0)
        .beta_for_threshold(3.0)
        .init_points(64)
        .build()
        .expect("valid test configuration");
    EdmStream::new(cfg, Euclidean)
}

#[test]
fn readers_see_coherent_monotone_snapshots_under_sustained_ingest() {
    let server = EdmServer::spawn(
        engine(),
        ServeConfig {
            queue_capacity: NonZeroUsize::new(8).unwrap(),
            publish_every_batches: NonZeroU64::new(1).unwrap(),
            publish_interval: Some(Duration::from_millis(5)),
            policy: BackpressurePolicy::Block,
        },
    );
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4)
        .map(|reader| {
            let handle = server.handle();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut last_generation = 0u64;
                let mut last_points = 0u64;
                let mut reads = 0u64;
                while !stop.load(SeqCst) {
                    let payload = handle.latest();
                    let snap = payload.snapshot();

                    // Coherence: members and snapshot froze together.
                    let in_clusters: usize = snap.clusters().iter().map(|c| c.cells.len()).sum();
                    assert_eq!(
                        payload.n_members(),
                        in_clusters,
                        "reader {reader}: members/snapshot torn"
                    );
                    let (rho, delta) = snap.decision_graph();
                    assert_eq!(rho.len(), delta.len(), "reader {reader}: graph torn");
                    assert_eq!(
                        rho.len(),
                        snap.active_cells(),
                        "reader {reader}: graph/census torn"
                    );

                    // Monotonicity: publication never goes backwards.
                    let generation = payload.generation();
                    assert!(
                        generation >= last_generation,
                        "reader {reader}: generation regressed {last_generation} -> {generation}"
                    );
                    if generation == last_generation {
                        assert_eq!(
                            snap.points(),
                            last_points,
                            "reader {reader}: same generation, different payload"
                        );
                    } else {
                        assert!(
                            snap.points() >= last_points,
                            "reader {reader}: points regressed across generations"
                        );
                    }
                    last_generation = generation;
                    last_points = snap.points();

                    // Exercise the rest of the read API; once the two
                    // blobs emerge, the blob centers must resolve to two
                    // distinct clusters of the *same* published view.
                    let left = payload.cluster_of(&DenseVector::from([0.0, 0.0]), &Euclidean);
                    let right = payload.cluster_of(&DenseVector::from([10.0, 0.0]), &Euclidean);
                    if let (Some(l), Some(r)) = (left, right) {
                        // 10 units apart at r = 1.2: never one cluster.
                        assert_ne!(l, r, "reader {reader}: blobs merged in one view");
                    }
                    let _ = handle.n_clusters();
                    let _ = handle.decision_graph();
                    let _ = handle.snapshot_age();
                    assert!(handle.health().is_ok());
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    // Sustained ingest for ~600 ms (or 200 batches, whichever first).
    let started = Instant::now();
    let mut offset = 0usize;
    let mut batches = 0u64;
    while started.elapsed() < Duration::from_millis(600) && batches < 200 {
        server.ingest(blob_batch(offset, 64)).expect("Block ingest");
        offset += 64;
        batches += 1;
    }

    let handle = server.handle();
    let engine = server.shutdown().expect("clean shutdown");
    stop.store(true, SeqCst);
    let total_reads: u64 = readers.into_iter().map(|r| r.join().expect("reader ok")).sum();

    // Everything queued was ingested (Block is lossless), the final
    // generation covers spawn + per-batch + drain publications, and the
    // read counters actually counted the hammering.
    assert_eq!(engine.stats().points, (offset) as u64);
    let stats = handle.stats();
    assert_eq!(stats.ingested_points, offset as u64);
    assert_eq!(stats.dropped_points, 0);
    assert_eq!(stats.rejected_points, 0);
    assert!(stats.queue_depth_hwm <= 8);
    assert_eq!(stats.queue_depth, 0, "drained on shutdown");
    assert!(stats.generation > batches, "per-batch cadence plus final publish");
    assert!(total_reads > 0, "readers made progress");
    assert!(
        stats.reads_snapshot
            + stats.reads_cluster_of
            + stats.reads_n_clusters
            + stats.reads_decision_graph
            > 0
    );
    assert!(!stats.poisoned);

    // Post-shutdown: the payload readers hold reflects the full stream.
    assert_eq!(handle.latest().snapshot().points(), offset as u64);
}

#[test]
fn drop_oldest_bounds_the_queue_and_counts_losses() {
    let server = EdmServer::spawn(
        engine(),
        ServeConfig {
            queue_capacity: NonZeroUsize::new(1).unwrap(),
            publish_every_batches: NonZeroU64::new(u64::MAX).unwrap(),
            publish_interval: None,
            policy: BackpressurePolicy::DropOldest,
        },
    );
    let handle = server.handle();
    for i in 0..200 {
        server.ingest(blob_batch(i * 8, 8)).expect("DropOldest never errors");
    }
    let engine = server.shutdown().expect("clean shutdown");
    // Conservation law: every accepted point was either ingested or
    // counted as dropped — nothing silently vanishes.
    let stats = handle.stats();
    assert_eq!(stats.enqueued_points, 200 * 8);
    assert_eq!(stats.ingested_points + stats.dropped_points, 200 * 8);
    assert_eq!(engine.stats().points, stats.ingested_points);
    assert_eq!(stats.rejected_points, 0);
    assert!(stats.queue_depth_hwm <= 1);
}

#[test]
fn reject_returns_queue_full_and_counts_rejections() {
    let server = EdmServer::spawn(
        engine(),
        ServeConfig {
            queue_capacity: NonZeroUsize::new(1).unwrap(),
            publish_every_batches: NonZeroU64::new(u64::MAX).unwrap(),
            publish_interval: None,
            policy: BackpressurePolicy::Reject,
        },
    );
    let mut rejected = 0u64;
    for i in 0..200 {
        match server.ingest(blob_batch(i * 8, 8)) {
            Ok(()) => {}
            Err(ServeError::QueueFull { capacity }) => {
                assert_eq!(capacity, 1);
                rejected += 8;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    let stats = server.stats();
    assert_eq!(stats.rejected_points, rejected);
    assert_eq!(stats.dropped_points, 0);
    server.shutdown().expect("clean shutdown");
}

/// A metric that panics on a sentinel coordinate — an injectable writer
/// crash that happens mid-`insert_batch`, exactly where a real engine
/// bug would.
#[derive(Clone)]
struct PanicOnSentinel;

const SENTINEL_X: f64 = 0.424_242;

impl Metric<DenseVector> for PanicOnSentinel {
    fn dist(&self, a: &DenseVector, b: &DenseVector) -> f64 {
        if a.coords()[0] == SENTINEL_X || b.coords()[0] == SENTINEL_X {
            panic!("sentinel point reached the metric");
        }
        a.dist(b)
    }

    fn name(&self) -> &'static str {
        "panic-on-sentinel"
    }
}

#[test]
fn writer_panic_poisons_ingest_but_readers_keep_the_last_snapshot() {
    let cfg = EdmConfig::builder(1.2)
        .rate(1000.0)
        .beta_for_threshold(3.0)
        .init_points(16)
        .build()
        .expect("valid test configuration");
    let server = EdmServer::spawn(EdmStream::new(cfg, PanicOnSentinel), ServeConfig::default());
    let handle = server.handle();

    // Healthy ingest past the init phase, so live cells exist and the
    // sentinel point (placed inside the left blob) is guaranteed to be
    // probed against their seeds.
    for i in 0..4 {
        server.ingest(blob_batch(i * 32, 32)).expect("healthy ingest");
    }
    // Publication cadence is per-batch; wait until all four landed so
    // `generation_before` is stable before the crash.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.generation() < 5 {
        assert!(Instant::now() < deadline, "writer never caught up");
        thread::sleep(Duration::from_millis(2));
    }
    let generation_before = handle.generation();

    server
        .ingest(vec![(DenseVector::from([SENTINEL_X, 0.0]), 0.2)])
        .expect("enqueue succeeds; the panic happens on the writer");

    // The poison must land: retry ingest until the typed error surfaces.
    // Each retry carries later timestamps than the sentinel and the
    // retries before it.
    let deadline = Instant::now() + Duration::from_secs(5);
    for retry in 0.. {
        match server.ingest(blob_batch(200 + 4 * retry, 4)) {
            Err(ServeError::WriterPanicked { message }) => {
                assert!(message.contains("sentinel"), "got: {message}");
                break;
            }
            Ok(()) | Err(ServeError::ShutDown) => {
                assert!(Instant::now() < deadline, "poison never surfaced");
                thread::sleep(Duration::from_millis(5));
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    // Readers are not hung and still serve the pre-panic publication.
    assert_eq!(handle.generation(), generation_before);
    assert!(matches!(handle.health(), Err(ServeError::WriterPanicked { .. })));
    assert!(handle.stats().poisoned);

    // Shutdown reports the panic instead of pretending success.
    match server.shutdown() {
        Err(ServeError::WriterPanicked { .. }) => {}
        Err(other) => panic!("expected WriterPanicked, got {other:?}"),
        Ok(_) => panic!("expected WriterPanicked, got a healthy engine"),
    }
}

#[test]
fn shutdown_of_idle_server_publishes_final_generation() {
    let server = EdmServer::spawn(engine(), ServeConfig::default());
    let handle = server.handle();
    assert_eq!(handle.generation(), 1);
    let engine = server.shutdown().expect("clean shutdown");
    assert_eq!(handle.generation(), 2, "drain publishes even with no ingest");
    assert_eq!(engine.stats().snapshots_published, 2);
}

#[test]
fn digest_readers_see_monotone_composable_windows_under_sustained_ingest() {
    use edm_core::{ClusterId, EvolveError};

    let server = EdmServer::spawn(
        engine(),
        ServeConfig {
            queue_capacity: NonZeroUsize::new(8).unwrap(),
            publish_every_batches: NonZeroU64::new(1).unwrap(),
            publish_interval: Some(Duration::from_millis(5)),
            policy: BackpressurePolicy::Block,
        },
    );
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4)
        .map(|reader| {
            let handle = server.handle();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut last_window = (0u64, 0u64);
                let mut composed = 0u64;
                while !stop.load(SeqCst) {
                    // All window reads below come from ONE payload, so the
                    // algebra must hold exactly; `handle`-level digest
                    // calls may race to a newer payload and are checked
                    // separately.
                    let payload = handle.latest();
                    let Some((oldest, latest)) = payload.digest_generations() else {
                        continue;
                    };
                    assert!(oldest <= latest, "reader {reader}: inverted window bounds");
                    assert_eq!(
                        latest,
                        payload.generation(),
                        "reader {reader}: window head must be the payload's own generation"
                    );
                    // Monotone: neither edge of the window ever regresses.
                    assert!(
                        (oldest, latest) >= last_window,
                        "reader {reader}: window regressed {last_window:?} -> ({oldest}, {latest})"
                    );
                    last_window = (oldest, latest);

                    // Composability: digest(o→m) ⊎ digest(m→l) == digest(o→l)
                    // on cluster-id sets and event tallies.
                    let mid = oldest + (latest - oldest) / 2;
                    let left = payload.digest_between(oldest, mid).expect("held window");
                    let right = payload.digest_between(mid, latest).expect("held window");
                    let whole = payload.digest_between(oldest, latest).expect("held window");
                    let cat = |a: &[ClusterId], b: &[ClusterId]| {
                        let mut v: Vec<ClusterId> = a.iter().chain(b).copied().collect();
                        v.sort_unstable();
                        v
                    };
                    assert_eq!(
                        cat(&left.births, &right.births),
                        whole.births,
                        "reader {reader}: births don't compose"
                    );
                    assert_eq!(
                        cat(&left.deaths, &right.deaths),
                        whole.deaths,
                        "reader {reader}: deaths don't compose"
                    );
                    assert_eq!(left.merges.len() + right.merges.len(), whole.merges.len());
                    assert_eq!(left.splits.len() + right.splits.len(), whole.splits.len());
                    assert_eq!(left.adjustments + right.adjustments, whole.adjustments);

                    // Handle-level reads race against publication: the
                    // window may have slid past `mid` by the time they
                    // load the (newer) payload — but the only acceptable
                    // failure is the typed eviction error.
                    match handle.digest_since(mid) {
                        Ok(d) => assert!(d.to_generation >= latest),
                        Err(EvolveError::EvictedGeneration { requested, oldest }) => {
                            assert!(requested < oldest)
                        }
                        Err(other) => panic!("reader {reader}: unexpected {other}"),
                    }
                    assert!(handle.digest_generations().is_some());
                    composed += 1;
                }
                composed
            })
        })
        .collect();

    // Sustained ingest; Block policy means the writer keeps up and the
    // reader-side digest computation never stalls it.
    let started = Instant::now();
    let mut offset = 0usize;
    let mut batches = 0u64;
    while started.elapsed() < Duration::from_millis(600) && batches < 200 {
        server.ingest(blob_batch(offset, 64)).expect("Block ingest");
        offset += 64;
        batches += 1;
    }

    let handle = server.handle();
    let engine = server.shutdown().expect("clean shutdown");
    stop.store(true, SeqCst);
    let total_composed: u64 = readers.into_iter().map(|r| r.join().expect("reader ok")).sum();

    assert!(total_composed > 0, "digest readers made progress");
    let stats = handle.stats();
    assert!(stats.reads_digest > 0, "digest reads were counted");
    assert!(!stats.poisoned);
    assert_eq!(engine.stats().points, offset as u64, "digest serving never lost ingest");

    // The final payload digests cleanly over its whole held window.
    let payload = handle.latest();
    let (oldest, latest) = payload.digest_generations().expect("evolution on by default");
    let whole = payload.digest_between(oldest, latest).expect("held window");
    assert_eq!((whole.from_generation, whole.to_generation), (oldest, latest));
}

#[test]
fn parallel_engine_drains_and_shuts_down_cleanly() {
    // The writer thread owns an engine whose ingest probes fan out to a
    // persistent worker pool (4 threads). Shutdown must drain every
    // queued batch into the engine — no point lost, no worker leaked, no
    // poisoned writer.
    let workers_before = edm_core::live_pool_workers();
    let cfg = EdmConfig::builder(1.2)
        .rate(1000.0)
        .beta_for_threshold(3.0)
        .init_points(64)
        .ingest_threads(NonZeroUsize::new(4).expect("nonzero"))
        .build()
        .expect("valid test configuration");
    let server = EdmServer::spawn(
        EdmStream::new(cfg, Euclidean),
        ServeConfig {
            queue_capacity: NonZeroUsize::new(4).unwrap(),
            publish_every_batches: NonZeroU64::new(2).unwrap(),
            publish_interval: None,
            policy: BackpressurePolicy::Block,
        },
    );
    let handle = server.handle();

    let mut fed = 0u64;
    for batch_no in 0..40 {
        let batch = blob_batch(batch_no * 128, 128);
        fed += batch.len() as u64;
        server.ingest(batch).expect("backpressure blocks, never errors");
    }

    let engine = server.shutdown().expect("clean shutdown after drain");
    assert_eq!(engine.stats().points, fed, "shutdown lost queued batches");
    assert!(engine.stats().pool_rounds > 0, "parallel engine never used its pool");
    assert!(handle.health().is_ok(), "drained writer must not be poisoned");
    assert_eq!(
        handle.stats().ingested_points,
        fed,
        "every queued point must be applied before shutdown returns"
    );

    // Dropping the recovered engine joins its pool workers; poll briefly
    // because other tests in this binary may be spawning engines too.
    drop(engine);
    let deadline = Instant::now() + Duration::from_secs(10);
    while edm_core::live_pool_workers() > workers_before {
        assert!(Instant::now() < deadline, "pool workers leaked through serve shutdown");
        thread::sleep(Duration::from_millis(10));
    }
}
