//! The serving tier: a dedicated writer thread owning the engine, a
//! bounded ingest queue in front of it, and cheap concurrent read
//! handles behind the lock-free snapshot publication.
//!
//! ```text
//! producers --ingest()--> [BatchQueue] --pop--> writer thread
//!                                               ├─ insert_batch
//!                                               └─ SnapshotPublisher ──store──┐
//!                                                                        [SwapCell]
//! readers  --ServeHandle reads-- (lock-free load) <─────────────────────────┘
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use edm_common::metric::Metric;
use edm_common::point::GridCoords;
use edm_common::time::Timestamp;
use edm_core::evolution::ClusterId;
use edm_core::{EdmStream, PointGate};

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::publish::{Published, SnapshotPublisher, SnapshotSource};
use crate::query::{
    Assignment, ClusterMiss, DimensionMismatch, HealthStatus, Query, QueryError, QueryResponse,
};
use crate::queue::{BatchQueue, Popped, PushOutcome};
use crate::stats::{Counters, ServeStats};

/// State shared by producers, readers, and the writer thread.
struct Shared<P> {
    source: SnapshotSource<P>,
    queue: BatchQueue<P>,
    counters: Counters,
    /// Set (with the message below) when the writer loop panicked.
    poisoned: AtomicBool,
    poison_message: Mutex<Option<String>>,
}

impl<P> Shared<P> {
    fn poison_error(&self) -> Option<ServeError> {
        if self.poisoned.load(SeqCst) {
            let message = self
                .poison_message
                .lock()
                .unwrap()
                .clone()
                .unwrap_or_else(|| "unknown panic".into());
            Some(ServeError::WriterPanicked { message })
        } else {
            None
        }
    }

    fn stats(&self) -> ServeStats {
        use std::sync::atomic::Ordering::Relaxed;
        let latest = self.source.latest();
        let (queue_depth, queue_depth_hwm) = self.queue.depth();
        ServeStats {
            generation: latest.generation(),
            snapshot_age: latest.age(),
            queue_depth,
            queue_depth_hwm,
            enqueued_points: self.counters.enqueued_points.load(Relaxed),
            ingested_points: self.counters.ingested_points.load(Relaxed),
            dropped_points: self.counters.dropped_points.load(Relaxed),
            rejected_points: self.counters.rejected_points.load(Relaxed),
            reads_cluster_of: self.counters.reads_cluster_of.load(Relaxed),
            reads_n_clusters: self.counters.reads_n_clusters.load(Relaxed),
            reads_decision_graph: self.counters.reads_decision_graph.load(Relaxed),
            reads_snapshot: self.counters.reads_snapshot.load(Relaxed),
            reads_digest: self.counters.reads_digest.load(Relaxed),
            net_connections: self.counters.net_connections.load(Relaxed),
            net_connections_rejected: self.counters.net_rejected_connections.load(Relaxed),
            net_queries: self.counters.net_queries.load(Relaxed),
            net_query_errors: self.counters.net_query_errors.load(Relaxed),
            net_protocol_errors: self.counters.net_protocol_errors.load(Relaxed),
            poisoned: self.poisoned.load(SeqCst),
        }
    }
}

/// A running serving tier around one [`EdmStream`].
///
/// [`EdmServer::spawn`] publishes the engine's current state, moves the
/// engine onto a dedicated writer thread, and returns this front end.
/// Producers push timestamped batches through [`EdmServer::ingest`]
/// (backpressure per [`crate::BackpressurePolicy`]); any number of
/// [`ServeHandle`] clones answer queries from the latest published
/// snapshot without ever blocking the writer or each other.
/// [`EdmServer::shutdown`] drains the queue, publishes a final snapshot,
/// and hands the engine back.
///
/// Dropping the server without `shutdown` closes the queue and joins the
/// writer (discarding the engine) — no thread is leaked either way.
pub struct EdmServer<P, M: Metric<P>> {
    /// The server's own read handle — the canonical query path.
    /// `stats`/`health` delegate here so the server and every cloned
    /// [`ServeHandle`] answer from literally the same code.
    handle: ServeHandle<P, M>,
    writer: Option<JoinHandle<EdmStream<P, M>>>,
    capacity: usize,
    policy: crate::BackpressurePolicy,
}

impl<P, M> EdmServer<P, M>
where
    P: Clone + GridCoords + Send + Sync + 'static,
    M: Metric<P> + Clone + 'static,
{
    /// Starts the serving tier: publishes the engine's current state
    /// (generation includes any prior `publish_snapshot` calls), then
    /// moves the engine onto a writer thread driven by `cfg`.
    pub fn spawn(mut engine: EdmStream<P, M>, cfg: ServeConfig) -> Self {
        let publisher = SnapshotPublisher::new(
            &mut engine,
            cfg.publish_every_batches.get(),
            cfg.publish_interval,
        );
        let metric = engine.metric().clone();
        let shared = Arc::new(Shared {
            source: publisher.source(),
            queue: BatchQueue::new(
                cfg.queue_capacity.get(),
                PointGate::new(engine.stream_time(), engine.dimension()),
            ),
            counters: Counters::default(),
            poisoned: AtomicBool::new(false),
            poison_message: Mutex::new(None),
        });
        let writer_shared = Arc::clone(&shared);
        let writer = std::thread::Builder::new()
            .name("edm-serve-writer".into())
            .spawn(move || writer_loop(engine, publisher, writer_shared))
            .expect("spawn edm-serve writer thread");
        EdmServer {
            handle: ServeHandle { shared, metric },
            writer: Some(writer),
            capacity: cfg.queue_capacity.get(),
            policy: cfg.policy,
        }
    }

    /// Queues one timestamped batch for ingestion. Behavior on a full
    /// queue follows the configured [`crate::BackpressurePolicy`]; a
    /// poisoned or shut-down server fails with the corresponding
    /// [`ServeError`], returning the batch's points uningested.
    ///
    /// Points are checked as [`EdmStream::try_insert_batch`] checks them
    /// ([`edm_core::PointGate`]), in order, against the largest timestamp
    /// already queued (the engine's stream time before any) and the
    /// stream's coordinate count (the engine's at spawn, or else the first
    /// queued point's). A batch with a NaN, infinite or regressed
    /// timestamp, a point of another coordinate count or a non-finite
    /// coordinate is refused whole with [`ServeError::InvalidPoint`] and
    /// leaves the queue as it was.
    pub fn ingest(&self, batch: Vec<(P, Timestamp)>) -> Result<(), ServeError> {
        let shared = &self.handle.shared;
        if let Some(err) = shared.poison_error() {
            return Err(err);
        }
        let n = batch.len() as u64;
        let c = &shared.counters;
        match shared.queue.push(batch, self.policy) {
            PushOutcome::Queued => {
                c.add(&c.enqueued_points, n);
                Ok(())
            }
            PushOutcome::QueuedDroppingOldest(dropped) => {
                c.add(&c.enqueued_points, n);
                c.add(&c.dropped_points, dropped);
                Ok(())
            }
            PushOutcome::Rejected => {
                c.add(&c.rejected_points, n);
                Err(ServeError::QueueFull { capacity: self.capacity })
            }
            PushOutcome::Closed => Err(shared.poison_error().unwrap_or(ServeError::ShutDown)),
            PushOutcome::Refused { index, error } => Err(ServeError::InvalidPoint { index, error }),
        }
    }

    /// A new concurrent read handle. Cheap (an `Arc` clone plus the
    /// metric); spawn as many as there are readers.
    pub fn handle(&self) -> ServeHandle<P, M> {
        self.handle.clone()
    }

    /// Current serving statistics. Delegates to [`ServeHandle::stats`] —
    /// the handle is the canonical read path.
    pub fn stats(&self) -> ServeStats {
        self.handle.stats()
    }

    /// `Err(WriterPanicked)` once the writer thread has panicked, `Ok`
    /// otherwise. Delegates to [`ServeHandle::health`].
    pub fn health(&self) -> Result<(), ServeError> {
        self.handle.health()
    }

    /// Graceful shutdown: stop accepting ingest, let the writer drain
    /// every queued batch, publish a final snapshot (so readers holding
    /// a [`ServeHandle`] see the complete stream), and hand the engine
    /// back. Fails with [`ServeError::WriterPanicked`] if the writer
    /// panicked before or during the drain.
    pub fn shutdown(mut self) -> Result<EdmStream<P, M>, ServeError> {
        self.handle.shared.queue.close();
        let writer = self.writer.take().expect("writer present until shutdown");
        let engine = writer.join().map_err(|_| ServeError::WriterPanicked {
            message: "writer thread died outside its panic guard".into(),
        })?;
        match self.handle.shared.poison_error() {
            Some(err) => Err(err),
            None => Ok(engine),
        }
    }
}

impl<P, M: Metric<P>> Drop for EdmServer<P, M> {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            self.handle.shared.queue.close();
            let _ = writer.join();
        }
    }
}

/// The writer thread body: pop → ingest → publish-on-cadence, panic
/// isolated so a poisoned engine can never hang producers or readers.
fn writer_loop<P, M>(
    mut engine: EdmStream<P, M>,
    mut publisher: SnapshotPublisher<P>,
    shared: Arc<Shared<P>>,
) -> EdmStream<P, M>
where
    P: Clone + GridCoords + Send + Sync,
    M: Metric<P>,
{
    let outcome = catch_unwind(AssertUnwindSafe(|| loop {
        match shared.queue.pop(publisher.poll_timeout()) {
            Popped::Batch(batch) => {
                engine.insert_batch(&batch);
                let c = &shared.counters;
                c.add(&c.ingested_points, batch.len() as u64);
                publisher.note_batch(&mut engine);
                // A long pop-wait may have pushed the timer past due too.
                publisher.publish_if_due(&mut engine);
            }
            Popped::TimedOut => {
                publisher.publish_if_due(&mut engine);
            }
            Popped::Closed => {
                // Drained. Final publish so the last generation reflects
                // every ingested point.
                publisher.publish(&mut engine);
                break;
            }
        }
    }));
    if let Err(payload) = outcome {
        let message = panic_message(&*payload);
        *shared.poison_message.lock().unwrap() = Some(message);
        shared.poisoned.store(true, SeqCst);
        // Unblock producers: no more batches will ever be consumed.
        shared.queue.close();
        shared.queue.clear();
    }
    engine
}

/// Best-effort stringification of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// A concurrent read handle over the latest published snapshot.
///
/// Every method answers from the most recent [`Published`] payload via a
/// lock-free load — readers never block on the writer, on producers, or
/// on each other, and a panicked writer leaves reads serving the last
/// good snapshot. Clone freely across threads.
pub struct ServeHandle<P, M: Metric<P>> {
    shared: Arc<Shared<P>>,
    metric: M,
}

impl<P, M: Metric<P> + Clone> Clone for ServeHandle<P, M> {
    fn clone(&self) -> Self {
        ServeHandle { shared: Arc::clone(&self.shared), metric: self.metric.clone() }
    }
}

impl<P: GridCoords, M: Metric<P>> ServeHandle<P, M> {
    /// Evaluates one typed [`Query`] against the latest published
    /// snapshot — **the** evaluation path of the serving tier. Every
    /// inherent convenience method below is a thin wrapper over this
    /// function, and the TCP front end ([`crate::net::NetServer`])
    /// dispatches decoded frames straight into it, so an in-process
    /// caller and a remote client asking the same question run the same
    /// code and get the same answer by construction.
    ///
    /// A `ClusterOf` miss is *data* ([`Assignment`]), not an error;
    /// [`QueryError`] is reserved for typed refusals (the digest window
    /// contract, and a `ClusterOf` point whose dimensionality differs
    /// from the published members'). Lock-free like every handle read.
    pub fn execute(&self, query: &Query<P>) -> Result<QueryResponse, QueryError> {
        let c = &self.shared.counters;
        match query {
            Query::ClusterOf { point } => Ok(QueryResponse::ClusterOf(self.assign_probe(point)?)),
            Query::NClusters => {
                c.add(&c.reads_n_clusters, 1);
                Ok(QueryResponse::NClusters(self.shared.source.latest().snapshot().n_clusters()))
            }
            Query::DecisionGraph => {
                c.add(&c.reads_decision_graph, 1);
                let latest = self.shared.source.latest();
                let (rho, delta) = latest.snapshot().decision_graph();
                Ok(QueryResponse::DecisionGraph { rho: rho.to_vec(), delta: delta.to_vec() })
            }
            Query::DigestSince { from } => {
                c.add(&c.reads_digest, 1);
                let digest = self.shared.source.latest().digest_since(*from)?;
                Ok(QueryResponse::Digest(digest))
            }
            Query::DigestBetween { from, to } => {
                c.add(&c.reads_digest, 1);
                let digest = self.shared.source.latest().digest_between(*from, *to)?;
                Ok(QueryResponse::Digest(digest))
            }
            Query::Generation => {
                c.add(&c.reads_snapshot, 1);
                Ok(QueryResponse::Generation(self.shared.source.generation()))
            }
            Query::SnapshotAge => {
                c.add(&c.reads_snapshot, 1);
                // Truncated to microseconds: the handle and the wire
                // answer at the same (ample) resolution.
                let age = self.shared.source.latest().age();
                Ok(QueryResponse::SnapshotAge(Duration::from_micros(age.as_micros() as u64)))
            }
            Query::Stats => Ok(QueryResponse::Stats(self.shared.stats())),
            Query::Health => {
                let status = match self.shared.poison_error() {
                    Some(ServeError::WriterPanicked { message }) => {
                        HealthStatus::WriterPanicked { message }
                    }
                    _ => HealthStatus::Ok,
                };
                Ok(QueryResponse::Health(status))
            }
        }
    }

    /// The one `ClusterOf` evaluation, shared between [`Query`] dispatch
    /// and the borrowing wrappers below (which thereby skip the point
    /// clone an owned `Query` would force onto the hot read path).
    fn assign_probe(&self, p: &P) -> Result<Assignment, DimensionMismatch> {
        let c = &self.shared.counters;
        c.add(&c.reads_cluster_of, 1);
        self.shared.source.latest().assign(p, &self.metric)
    }

    /// The latest published payload (snapshot + membership data), for
    /// multi-field reads that must be mutually coherent: one `latest()`
    /// is one frozen generation, whereas two separate handle calls may
    /// straddle a publication. (Deliberately not a [`Query`]: an `Arc`
    /// into the payload cannot cross a wire.)
    pub fn latest(&self) -> Arc<Published<P>> {
        let c = &self.shared.counters;
        c.add(&c.reads_snapshot, 1);
        self.shared.source.latest()
    }

    /// The cluster a fresh point would join, per the published state:
    /// nearest published seed within `r` under the engine's own metric
    /// (`None` = outlier, or a point of another dimensionality). See
    /// [`Published::cluster_of`] for staleness semantics, and
    /// [`ServeHandle::try_cluster_of`] for the typed-miss form.
    pub fn cluster_of(&self, p: &P) -> Option<ClusterId> {
        self.assign_probe(p).ok()?.membership()
    }

    /// [`ServeHandle::cluster_of`] with the miss reason kept: `Ok` is
    /// the winning `(cluster, distance)`, `Err` says *why* the probe
    /// missed — [`ClusterMiss::EmptySnapshot`] (nothing clustered yet;
    /// wait for a publication) vs [`ClusterMiss::OutOfRadius`] (a
    /// genuine outlier, with the distance it missed by) vs
    /// [`ClusterMiss::DimensionMismatch`] (a point the members cannot be
    /// compared with). Shares [`ServeHandle::execute`]'s `ClusterOf`
    /// evaluation.
    pub fn try_cluster_of(&self, p: &P) -> Result<(ClusterId, f64), ClusterMiss> {
        match self.assign_probe(p) {
            Ok(Assignment::Member { cluster, distance }) => Ok((cluster, distance)),
            Ok(Assignment::EmptySnapshot) => Err(ClusterMiss::EmptySnapshot),
            Ok(Assignment::OutOfRadius { nearest, r }) => {
                Err(ClusterMiss::OutOfRadius { nearest, r })
            }
            Err(m) => Err(ClusterMiss::DimensionMismatch(m)),
        }
    }

    /// Number of clusters in the published snapshot.
    pub fn n_clusters(&self) -> usize {
        match self.execute(&Query::NClusters) {
            Ok(QueryResponse::NClusters(n)) => n,
            _ => unreachable!("NClusters answers NClusters and never errors"),
        }
    }

    /// The published (ρ, δ) decision graph, cloned out so the caller
    /// holds no borrow into the payload.
    pub fn decision_graph(&self) -> (Vec<f64>, Vec<f64>) {
        match self.execute(&Query::DecisionGraph) {
            Ok(QueryResponse::DecisionGraph { rho, delta }) => (rho, delta),
            _ => unreachable!("DecisionGraph answers DecisionGraph and never errors"),
        }
    }

    /// What changed since generation `from`, per the latest published
    /// payload: births, deaths, merges, splits and mass drift up to the
    /// payload's own generation. Computed entirely from the payload's
    /// frozen digest window — a lock-free read that never blocks the
    /// writer. Dashboards poll this with the generation they last
    /// rendered; a typed [`edm_core::EvolveError`] tells them when that
    /// generation has already left the bounded history (re-render from
    /// the full snapshot instead).
    pub fn digest_since(
        &self,
        from: u64,
    ) -> Result<edm_core::EvolutionDigest, edm_core::EvolveError> {
        match self.execute(&Query::DigestSince { from }) {
            Ok(QueryResponse::Digest(d)) => Ok(d),
            Err(QueryError::Evolve(e)) => Err(e),
            _ => unreachable!("DigestSince answers Digest"),
        }
    }

    /// What changed in the window `(from, to]` of published generations,
    /// per the latest published payload.
    pub fn digest_between(
        &self,
        from: u64,
        to: u64,
    ) -> Result<edm_core::EvolutionDigest, edm_core::EvolveError> {
        match self.execute(&Query::DigestBetween { from, to }) {
            Ok(QueryResponse::Digest(d)) => Ok(d),
            Err(QueryError::Evolve(e)) => Err(e),
            _ => unreachable!("DigestBetween answers Digest"),
        }
    }

    /// The `(oldest, latest)` generations the latest published payload
    /// can digest over (see [`crate::Published::digest_generations`]).
    pub fn digest_generations(&self) -> Option<(u64, u64)> {
        let c = &self.shared.counters;
        c.add(&c.reads_digest, 1);
        self.shared.source.latest().digest_generations()
    }

    /// Generation of the published snapshot (1-based, monotone).
    pub fn generation(&self) -> u64 {
        match self.execute(&Query::Generation) {
            Ok(QueryResponse::Generation(g)) => g,
            _ => unreachable!("Generation answers Generation and never errors"),
        }
    }

    /// Wall-clock age of the published snapshot (microsecond
    /// granularity).
    pub fn snapshot_age(&self) -> Duration {
        match self.execute(&Query::SnapshotAge) {
            Ok(QueryResponse::SnapshotAge(age)) => age,
            _ => unreachable!("SnapshotAge answers SnapshotAge and never errors"),
        }
    }

    /// Current serving statistics — the canonical path
    /// ([`EdmServer::stats`] delegates here).
    pub fn stats(&self) -> ServeStats {
        match self.execute(&Query::Stats) {
            Ok(QueryResponse::Stats(s)) => s,
            _ => unreachable!("Stats answers Stats and never errors"),
        }
    }

    /// `Err(WriterPanicked)` once the writer thread has panicked, `Ok`
    /// otherwise — the canonical path ([`EdmServer::health`] delegates
    /// here).
    pub fn health(&self) -> Result<(), ServeError> {
        match self.execute(&Query::Health) {
            Ok(QueryResponse::Health(HealthStatus::Ok)) => Ok(()),
            Ok(QueryResponse::Health(HealthStatus::WriterPanicked { message })) => {
                Err(ServeError::WriterPanicked { message })
            }
            _ => unreachable!("Health answers Health and never errors"),
        }
    }

    /// The shared counters, for the network front end's bookkeeping
    /// (accepted/rejected connections, protocol errors).
    pub(crate) fn counters(&self) -> &Counters {
        &self.shared.counters
    }
}
