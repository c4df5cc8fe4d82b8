//! Shared synthetic bench scenarios.
//!
//! The same workloads are driven from three places — the criterion-style
//! benches (`parallel_batch_ingest`, `index_scaling`), which record the
//! committed `BENCH_ingest.json` baseline, and the `bench_regression` CI
//! gate, which re-measures them fresh. Keeping the generators here means
//! the gate provably smokes the *same* scenario the baseline recorded,
//! not a drifted copy.

use std::num::{NonZeroU64, NonZeroUsize};

use edm_common::metric::{Euclidean, Metric};
use edm_common::point::DenseVector;
use edm_core::index::NeighborIndexKind;
use edm_core::{EdmConfig, EdmStream, TauMode};
use edm_serve::{BackpressurePolicy, EdmServer, ServeConfig, ServeHandle};

// ----- crowded 8-d steady state (`parallel_batch_ingest`) -----

/// Reservoir population of the crowded 8-d scenario.
pub const CROWDED_CELLS: usize = 8_192;
/// Dimensionality of the crowded scenario.
pub const CROWDED_DIM: usize = 8;
/// Seeds per grid bucket: every bucket holds this many pairwise
/// r-separated seeds, so each assignment probe compares against a full
/// bucket.
pub const CROWDED_PER_BUCKET: usize = 8;

/// The `j`-th crowded-scenario seed: a 2-d lattice of bucket sites
/// (spacing 2.0 on dims 0–1), each crowded with [`CROWDED_PER_BUCKET`]
/// seeds that are pairwise farther than r apart yet share the bucket —
/// offsets 0.45·mask over dims 2–7 with even-popcount masks give
/// pairwise distance at least 0.45·√2 ≈ 0.64 (above r = 0.5) while every
/// coordinate stays inside the 0.5-cube. This is how r-separated seeds
/// really pack in high dimensions, and it pushes every probe onto the
/// occupied-bucket sweep path.
pub fn crowded_seed(j: usize) -> DenseVector {
    /// Six-bit even-popcount masks, pairwise Hamming distance ≥ 2.
    const MASKS: [u8; CROWDED_PER_BUCKET] =
        [0b000000, 0b000011, 0b000101, 0b000110, 0b001001, 0b001010, 0b001100, 0b010010];
    let lattice_side = crowded_lattice_side();
    let site = j / CROWDED_PER_BUCKET;
    let mask = MASKS[j % CROWDED_PER_BUCKET];
    let mut c = vec![0.0; CROWDED_DIM];
    c[0] = (site % lattice_side) as f64 * 2.0;
    c[1] = (site / lattice_side) as f64 * 2.0;
    for (bit, coord) in c.iter_mut().skip(2).enumerate() {
        if mask >> bit & 1 == 1 {
            *coord = 0.45;
        }
    }
    DenseVector::new(c)
}

fn crowded_lattice_side() -> usize {
    (CROWDED_CELLS.div_ceil(CROWDED_PER_BUCKET) as f64).sqrt().ceil() as usize
}

/// Builds a warmed engine holding [`CROWDED_CELLS`] reservoir cells in
/// the crowded 8-d layout, with the given ingest-thread knob. Returns
/// the engine and its stream clock. The engine is pinned to the grid
/// (left to itself it would pick the cover tree at 8-d): the scenario is
/// the grid's crowded-bucket stress.
pub fn crowded_engine(threads: usize) -> (EdmStream<DenseVector, Euclidean>, f64) {
    let cfg = EdmConfig::builder(0.5)
        .rate(1_000.0)
        .beta_for_threshold(1e5)
        .age_adjusted_threshold(false)
        .init_points(1)
        .tau_every(1 << 40)
        .maintenance_every(64)
        .recycle_horizon(f64::MAX)
        .neighbor_index(NeighborIndexKind::Grid)
        .ingest_threads(NonZeroUsize::new(threads).expect("bench thread counts are nonzero"))
        .build()
        .expect("valid bench configuration");
    let mut e = EdmStream::new(cfg, Euclidean);
    let mut t = 0.0;
    for j in 0..CROWDED_CELLS {
        t += 1e-4;
        e.insert(&crowded_seed(j), t);
    }
    assert_eq!(e.n_cells(), CROWDED_CELLS, "every seed must found its own cell");
    (e, t)
}

/// Probe sites cycling over existing crowded-scenario cells (jittered
/// within r): always absorbed, never a new cell, so batches exercise
/// pure assignment.
pub fn crowded_probe_sites() -> Vec<DenseVector> {
    (0..64)
        .map(|i| {
            // Sit on the mask-0 seed of site i, nudged within r on dim 0.
            let mut p = crowded_seed(i * CROWDED_PER_BUCKET);
            p.coords_mut()[0] += (i % 5) as f64 * 0.05;
            p
        })
        .collect()
}

/// Points per pass of [`parallel_measure`], in the committed
/// `parallel_batch_ingest` section and in the gate's smoke alike.
pub const PARALLEL_POINTS: usize = 1 << 14;

/// One pass of the parallel batch-ingest steady state: a fresh
/// [`crowded_engine`] with `threads` ingest threads takes one untimed
/// warm-up batch (the first parallel round sizes the slot buffers), then
/// `points` absorb probes from [`crowded_probe_sites`] in batches of
/// `batch`, timing only the `insert_batch` calls. Returns the points/s
/// and the share of parallel probes the commit phase redid.
pub fn parallel_measure(threads: usize, batch: usize, points: usize) -> (f64, f64) {
    let (mut e, mut t) = crowded_engine(threads);
    let sites = crowded_probe_sites();
    let mut i = 0usize;
    let mut make_batch = |n: usize, t: &mut f64| -> Vec<(DenseVector, f64)> {
        (0..n)
            .map(|_| {
                *t += 1e-6;
                i += 1;
                (sites[i % sites.len()].clone(), *t)
            })
            .collect()
    };
    let warm = make_batch(batch, &mut t);
    e.insert_batch(&warm);
    let rounds = points / batch;
    let batches: Vec<Vec<(DenseVector, f64)>> =
        (0..rounds).map(|_| make_batch(batch, &mut t)).collect();
    let (reval_before, tasks_before) = (e.stats().probe_revalidations, e.stats().probe_tasks);
    let start = std::time::Instant::now();
    for b in &batches {
        e.insert_batch(b);
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(e.n_cells(), CROWDED_CELLS, "bench stream must not create or recycle cells");
    let tasks = (e.stats().probe_tasks - tasks_before).max(1);
    let redone = (e.stats().probe_revalidations - reval_before) as f64 / tasks as f64;
    ((rounds * batch) as f64 / elapsed, redone)
}

// ----- high-dimensional clustered scenario (`index_scaling_highd`) -----

/// Seeds per r-cube cluster. Offsets of 0.45 over even-popcount masks
/// keep members pairwise ≥ 0.45·√2 ≈ 0.64 apart (every seed founds its
/// own cell at r = 0.5) while every coordinate stays inside one side-0.5
/// bucket.
pub const HIGHD_PER_CLUSTER: usize = 8;
/// Seed clusters taking absorb traffic (their cells are activated in
/// warmup). They are 64 sites of 8 seeds, not 64 MSDSubTrees: see
/// [`highd_engine`] for why the engine sees one cluster.
pub const HIGHD_HOT_CLUSTERS: usize = 64;
/// Background reservoir clusters (inactive one-point cells). Many
/// *spread* clusters are the grid's pain: each is one more occupied
/// bucket the per-query sweep must visit, while the cover tree reaches
/// the relevant region through its hierarchy.
pub const HIGHD_COLD_CLUSTERS: usize = 960;

/// The `k`-th member of cluster `c` in `d` dimensions: cluster sites on
/// a spacing-2 lattice over dims 0–1, member offsets 0.45·mask over the
/// remaining dims (masks: the first even-popcount words — any two
/// distinct even-weight words differ in ≥ 2 bits).
pub fn highd_seed(c: usize, k: usize, d: usize) -> DenseVector {
    let mut coords = vec![0.0; d];
    coords[0] = (c % 32) as f64 * 2.0;
    coords[1] = (c / 32) as f64 * 2.0;
    let mut mask = 0u64;
    let mut found = 0;
    for w in 0u64.. {
        if w.count_ones() % 2 == 0 {
            if found == k {
                mask = w;
                break;
            }
            found += 1;
        }
    }
    for (bit, coord) in coords.iter_mut().skip(2).enumerate() {
        if bit < 62 && mask >> bit & 1 == 1 {
            *coord = 0.45;
        }
    }
    DenseVector::new(coords)
}

/// Builds a warmed high-d engine: [`HIGHD_HOT_CLUSTERS`] clusters of
/// active cells (absorb traffic keeps overtaking inside them, so
/// nearest-denser recomputation fires on the measured path) plus
/// [`HIGHD_COLD_CLUSTERS`] clusters of inactive reservoir cells the
/// index must keep pruning. `kind` pins the index (`None` leaves the pick
/// to the engine). Returns the engine and its stream clock.
///
/// The engine clusters the hot cells as one MSDSubTree (`n_clusters()`
/// reads 1 before and after the probes): with `init_points(1)` there is
/// no decision graph to read τ₀ from, so τ₀ falls back to 4r = 2.0, τ is
/// never re-optimized, and no dependency between sites 2.0 apart is
/// longer than τ. Every probe re-points a dependency, and the evolution
/// diff regroups the whole MSDSubTree it reaches: 201.6 cells and 4–5 µs
/// of `EngineStats::diff_nanos` per probe in a 2,048-probe replay at
/// d = 16 and 51, where a whole probe took 10–14 µs on the cover tree
/// (2-vCPU host).
pub fn highd_engine(
    kind: impl Into<Option<NeighborIndexKind>>,
    d: usize,
) -> (EdmStream<DenseVector, Euclidean>, f64) {
    let cfg = EdmConfig::builder(0.5)
        .rate(1_000.0)
        .beta_for_threshold(3.0)
        .age_adjusted_threshold(false)
        .init_points(1)
        .tau_every(1 << 40)
        .maintenance_every(1 << 40)
        .recycle_horizon(f64::MAX)
        .neighbor_index(kind)
        .build()
        .expect("valid bench configuration");
    let mut e = EdmStream::new(cfg, Euclidean);
    let mut t = 0.0;
    // Reservoir first (ids don't matter; traffic never reaches them).
    for c in 0..HIGHD_COLD_CLUSTERS {
        for k in 0..HIGHD_PER_CLUSTER {
            t += 1e-4;
            e.insert(&highd_seed(HIGHD_HOT_CLUSTERS + c, k, d), t);
        }
    }
    // Hot cells: 4 sustained points clears the ≈ 3-point threshold.
    for _ in 0..4 {
        for c in 0..HIGHD_HOT_CLUSTERS {
            for k in 0..HIGHD_PER_CLUSTER {
                t += 1e-4;
                e.insert(&highd_seed(c, k, d), t);
            }
        }
    }
    assert_eq!(e.n_cells(), (HIGHD_HOT_CLUSTERS + HIGHD_COLD_CLUSTERS) * HIGHD_PER_CLUSTER);
    assert_eq!(
        e.active_len(),
        HIGHD_HOT_CLUSTERS * HIGHD_PER_CLUSTER,
        "warmup must activate the hot set"
    );
    (e, t)
}

/// Probe sites cycling over the hot cells (jittered within r on dim 0,
/// which keeps each probe nearest its own seed): every insert absorbs
/// and rises one active cell past round-robin peers — the overtaking
/// pattern that drives `recompute_dep`.
pub fn highd_probes(d: usize) -> Vec<DenseVector> {
    (0..HIGHD_HOT_CLUSTERS * HIGHD_PER_CLUSTER)
        .map(|i| {
            let mut p = highd_seed(i / HIGHD_PER_CLUSTER, i % HIGHD_PER_CLUSTER, d);
            p.coords_mut()[0] += (i % 5) as f64 * 0.04;
            p
        })
        .collect()
}

/// Streams `points` absorb probes through a warmed high-d engine and
/// returns `(points_per_sec, dep_recomputes, diff_ns_per_point)` — the
/// measurement both the committed `index_scaling_highd` section and the
/// CI gate's fresh smoke derive from. The last is the run's
/// `EngineStats::diff_nanos` per probe: how much of each insert the
/// evolution diff took.
pub fn highd_measure(kind: NeighborIndexKind, d: usize, points: usize) -> (f64, u64, f64) {
    let (mut e, mut t) = highd_engine(kind, d);
    let probes = highd_probes(d);
    let (recomputes_before, diff_before) = (e.stats().dep_recomputes, e.stats().diff_nanos);
    let start = std::time::Instant::now();
    for i in 0..points {
        t += 1e-5;
        e.insert(&probes[i % probes.len()], t);
    }
    let pps = points as f64 / start.elapsed().as_secs_f64();
    let diff_ns = (e.stats().diff_nanos - diff_before) as f64 / points as f64;
    (pps, e.stats().dep_recomputes - recomputes_before, diff_ns)
}

// ----- raw distance-kernel scenario (`kernel`) -----

/// Deterministic pseudo-random unit-cube vectors for the kernel bench —
/// a fixed pool large enough to defeat trivial caching of one operand
/// pair, small enough to stay L1/L2-resident (the engine's slab is too).
pub fn kernel_pool(d: usize, n: usize) -> Vec<DenseVector> {
    (0..n)
        .map(|i| {
            DenseVector::new(
                (0..d)
                    .map(|k| ((i * 31 + k * 7919 + 13) % 1997) as f64 / 1997.0)
                    .collect::<Vec<f64>>(),
            )
        })
        .collect()
}

/// The scalar reference kernel: the strict sequential accumulation the
/// engine used before the chunked kernels landed. Kept here (not in
/// `edm-common`) so the committed `kernel` section always prices the
/// chunked path against the same naive baseline.
#[inline(never)]
pub fn kernel_scalar_dist(a: &DenseVector, b: &DenseVector) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.coords().iter().zip(b.coords().iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc.sqrt()
}

/// Times `evals` distance evaluations at dimensionality `d` through the
/// scalar reference and through [`Metric::dist`] (the chunked kernel),
/// returning `(scalar_per_sec, chunked_per_sec)`. Both passes walk the
/// identical operand sequence and fold results into a black-boxed sink so
/// neither loop can be elided.
pub fn kernel_measure(d: usize, evals: usize) -> (f64, f64) {
    let pool = kernel_pool(d, 256);
    let time_pass = |f: &dyn Fn(&DenseVector, &DenseVector) -> f64| -> f64 {
        let mut sink = 0.0;
        let start = std::time::Instant::now();
        for i in 0..evals {
            let a = &pool[i % pool.len()];
            let b = &pool[(i * 7 + 1) % pool.len()];
            sink += f(a, b);
        }
        std::hint::black_box(sink);
        evals as f64 / start.elapsed().as_secs_f64()
    };
    let scalar = time_pass(&kernel_scalar_dist);
    let chunked = time_pass(&|a, b| Euclidean.dist(a, b));
    (scalar, chunked)
}

// ----- mixed read/write serving scenario (`mixed_read_write`) -----

/// Dimensionality of the serving scenario: the high-d clustered layout
/// at a size where `cluster_of` does real nearest-seed work (512 active
/// member cells) without drowning the read-latency signal in distance
/// arithmetic.
pub const SERVE_DIM: usize = 16;

/// One measured mixed read/write run.
pub struct MixedRun {
    /// Concurrent reader threads that hammered `cluster_of`.
    pub readers: usize,
    /// Sustained ingest throughput while the readers ran.
    pub points_per_sec: f64,
    /// Aggregate read throughput across all readers.
    pub reads_per_sec: f64,
    /// Median `cluster_of` latency, microseconds.
    pub read_p50_us: f64,
    /// 99th-percentile `cluster_of` latency, microseconds.
    pub read_p99_us: f64,
}

/// Streams `points` absorb probes through an [`EdmServer`] (64-batch
/// queue, `Block`, republish every 4 batches) while `readers` threads
/// time every `cluster_of` against the published snapshots — the
/// latency-under-ingest measurement both the committed
/// `mixed_read_write` section and the CI gate's fresh smoke derive from.
///
/// The engine is the warmed [`highd_engine`] hot/cold layout
/// ([`SERVE_DIM`] dims, on the index the engine picks there: the cover
/// tree) and the probes are [`highd_probes`] absorb traffic, so ingest
/// exercises the same steady state as the index-scaling scenario while
/// every read resolves to a real cluster.
pub fn mixed_measure(readers: usize, points: usize, batch: usize) -> MixedRun {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let (engine, mut t) = highd_engine(None, SERVE_DIM);
    let server = EdmServer::spawn(
        engine,
        ServeConfig {
            queue_capacity: NonZeroUsize::new(64).expect("nonzero"),
            publish_every_batches: NonZeroU64::new(4).expect("nonzero"),
            publish_interval: None,
            policy: BackpressurePolicy::Block,
        },
    );
    let probes = Arc::new(highd_probes(SERVE_DIM));
    let rounds = points / batch;
    let batches: Vec<Vec<(DenseVector, f64)>> = (0..rounds)
        .map(|_| {
            (0..batch)
                .map(|j| {
                    t += 1e-5;
                    (probes[(j * 3) % probes.len()].clone(), t)
                })
                .collect()
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let reader_threads: Vec<_> = (0..readers)
        .map(|rid| {
            let handle = server.handle();
            let probes = Arc::clone(&probes);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut latencies_ns: Vec<u64> = Vec::with_capacity(1 << 18);
                let mut hits = 0u64;
                let mut i = rid;
                while !stop.load(Ordering::Relaxed) {
                    let p = &probes[i % probes.len()];
                    i += 7;
                    let begin = std::time::Instant::now();
                    if handle.cluster_of(p).is_some() {
                        hits += 1;
                    }
                    latencies_ns.push(begin.elapsed().as_nanos() as u64);
                }
                (latencies_ns, hits)
            })
        })
        .collect();

    // Time enqueue + drain + final publish: that is the writer's actual
    // sustained cost, not just the queue push.
    let start = std::time::Instant::now();
    for b in batches {
        server.ingest(b).expect("Block ingest never fails");
    }
    server.shutdown().expect("writer survives the bench stream");
    let elapsed = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);

    let mut latencies_ns: Vec<u64> = Vec::new();
    let mut hits = 0u64;
    for r in reader_threads {
        let (lat, h) = r.join().expect("reader thread ok");
        latencies_ns.extend(lat);
        hits += h;
    }
    assert_eq!(
        hits,
        latencies_ns.len() as u64,
        "every probe sits within r of an active seed — reads must all resolve"
    );
    latencies_ns.sort_unstable();
    let percentile = |q: f64| -> f64 {
        if latencies_ns.is_empty() {
            return 0.0;
        }
        let idx = ((latencies_ns.len() as f64 * q) as usize).min(latencies_ns.len() - 1);
        latencies_ns[idx] as f64 / 1_000.0
    };
    MixedRun {
        readers,
        points_per_sec: (rounds * batch) as f64 / elapsed,
        reads_per_sec: latencies_ns.len() as f64 / elapsed,
        read_p50_us: percentile(0.50),
        read_p99_us: percentile(0.99),
    }
}

// ----- network read latency scenario (`net_read_latency`) -----

/// One measured loopback-vs-in-process read-latency run.
pub struct NetRun {
    /// Timed queries per path.
    pub queries: usize,
    /// Median in-process `cluster_of` latency, microseconds.
    pub local_p50_us: f64,
    /// 99th-percentile in-process `cluster_of` latency, microseconds.
    pub local_p99_us: f64,
    /// Median loopback TCP `cluster_of` latency, microseconds.
    pub net_p50_us: f64,
    /// 99th-percentile loopback TCP `cluster_of` latency, microseconds.
    pub net_p99_us: f64,
    /// Timed loopback `digest_since` round trips.
    pub digest_queries: usize,
    /// Mass drifts each timed digest answer carries.
    pub digest_drifts: usize,
    /// Median loopback TCP `digest_since` latency, microseconds.
    pub digest_net_p50_us: f64,
    /// 99th-percentile loopback TCP `digest_since` latency, microseconds.
    pub digest_net_p99_us: f64,
}

impl NetRun {
    /// This run as one entry of the `net_read_latency` section of
    /// `BENCH_ingest.json`.
    pub fn json_entry(&self) -> String {
        format!(
            "{{\"queries\": {}, \"local_p50_us\": {:.2}, \"local_p99_us\": {:.2}, \
             \"net_p50_us\": {:.2}, \"net_p99_us\": {:.2}, \"digest_queries\": {}, \
             \"digest_drifts\": {}, \"digest_net_p50_us\": {:.2}, \"digest_net_p99_us\": {:.2}}}",
            self.queries,
            self.local_p50_us,
            self.local_p99_us,
            self.net_p50_us,
            self.net_p99_us,
            self.digest_queries,
            self.digest_drifts,
            self.digest_net_p50_us,
            self.digest_net_p99_us
        )
    }
}

/// Clusters of the digest snapshot [`net_measure`] serves: one per hot
/// site of a 16-d [`highd_seed`] layout, each drifting in mass between
/// publications — the evolution digest a remote monitor polls.
pub const DIGEST_CLUSTERS: usize = 256;

/// A quiesced served snapshot whose digest window holds a mass drift for
/// each of [`DIGEST_CLUSTERS`] clusters, and the generation to digest
/// from.
fn digest_handle() -> (ServeHandle<DenseVector, Euclidean>, u64) {
    // One cluster per site: the static τ sits above every within-site
    // dependent distance (≤ 0.9) and below the 2.0 site spacing.
    let cfg = EdmConfig::builder(0.5)
        .rate(1_000.0)
        .beta_for_threshold(3.0)
        .age_adjusted_threshold(false)
        .init_points(1)
        .recycle_horizon(f64::MAX)
        .tau_mode(TauMode::Static(1.4))
        .build()
        .expect("valid digest configuration");
    let mut engine = EdmStream::new(cfg, Euclidean);
    let mut t = 0.0;
    let mut sweep = || -> Vec<(DenseVector, f64)> {
        let mut batch = Vec::with_capacity(DIGEST_CLUSTERS * HIGHD_PER_CLUSTER);
        for c in 0..DIGEST_CLUSTERS {
            for k in 0..HIGHD_PER_CLUSTER {
                t += 1e-4;
                batch.push((highd_seed(c, k, SERVE_DIM), t));
            }
        }
        batch
    };
    // Four sweeps clear the ≈ 3-point activation threshold everywhere.
    for _ in 0..4 {
        engine.insert_batch(&sweep());
    }
    let server = EdmServer::spawn(engine, ServeConfig::default());
    // Each later sweep is one publication; every cluster's mass moves
    // between them.
    for _ in 0..4 {
        server.ingest(sweep()).expect("Block ingest never fails");
    }
    let handle = server.handle();
    server.shutdown().expect("writer survives the digest stream");
    let (oldest, _) = handle.digest_generations().expect("a published payload holds its record");
    (handle, oldest)
}

fn latency_percentiles(mut latencies_ns: Vec<u64>) -> (f64, f64) {
    latencies_ns.sort_unstable();
    let percentile = |q: f64| -> f64 {
        if latencies_ns.is_empty() {
            return 0.0;
        }
        let idx = ((latencies_ns.len() as f64 * q) as usize).min(latencies_ns.len() - 1);
        latencies_ns[idx] as f64 / 1_000.0
    };
    (percentile(0.50), percentile(0.99))
}

/// Times `queries` sequential `cluster_of` probes twice against one
/// quiesced served snapshot — once through [`ServeHandle::cluster_of`]
/// in-process, once through a [`NetClient`] over loopback TCP — and
/// reports both latency distributions. The delta is the whole cost of
/// the network front end (frame codec + syscalls + loopback RTT); the
/// answers themselves are identical by construction, which the loopback
/// test suite locks down byte-for-byte. Next to the probe it times
/// `digest_queries` loopback `digest_since` round trips whose answers
/// carry a mass drift per cluster of a [`DIGEST_CLUSTERS`]-cluster
/// snapshot: the large frame a remote monitor decodes.
///
/// [`ServeHandle::cluster_of`]: edm_serve::ServeHandle::cluster_of
/// [`NetClient`]: edm_serve::net::NetClient
pub fn net_measure(queries: usize, warm_points: usize, digest_queries: usize) -> NetRun {
    use edm_serve::net::{NetClient, NetConfig, NetServer};
    use edm_serve::{Query, QueryResponse};

    // Same warmed layout as the mixed scenario, quiesced: ingest a warm
    // stream, drain, final publish — every probe then reads one frozen
    // generation and the measurement is pure read-path latency.
    let (engine, mut t) = highd_engine(None, SERVE_DIM);
    let server = EdmServer::spawn(
        engine,
        ServeConfig::builder()
            .queue_capacity(64)
            .publish_every_batches(4)
            .build()
            .expect("valid serve configuration"),
    );
    let probes = highd_probes(SERVE_DIM);
    let warm: Vec<(DenseVector, f64)> = (0..warm_points)
        .map(|j| {
            t += 1e-5;
            (probes[(j * 3) % probes.len()].clone(), t)
        })
        .collect();
    for chunk in warm.chunks(256) {
        server.ingest(chunk.to_vec()).expect("Block ingest never fails");
    }
    let handle = server.handle();
    server.shutdown().expect("writer survives the warm stream");

    // In-process baseline.
    let mut local_ns = Vec::with_capacity(queries);
    for i in 0..queries {
        let p = &probes[(i * 7) % probes.len()];
        let begin = std::time::Instant::now();
        let hit = handle.cluster_of(p).is_some();
        local_ns.push(begin.elapsed().as_nanos() as u64);
        assert!(hit, "warmed probes always resolve");
    }

    // The same probes over loopback TCP.
    let net = NetServer::bind(handle, NetConfig::builder().build().expect("valid net config"))
        .expect("bind loopback");
    let mut client = NetClient::connect(net.local_addr()).expect("connect loopback");
    let mut net_ns = Vec::with_capacity(queries);
    for i in 0..queries {
        let q = Query::ClusterOf { point: probes[(i * 7) % probes.len()].clone() };
        let begin = std::time::Instant::now();
        let response = client.query(&q).expect("loopback query");
        net_ns.push(begin.elapsed().as_nanos() as u64);
        assert!(
            matches!(response, QueryResponse::ClusterOf(a) if a.membership().is_some()),
            "warmed probes resolve over the wire too"
        );
    }
    net.shutdown();

    let (handle, from) = digest_handle();
    let net = NetServer::bind(handle, NetConfig::builder().build().expect("valid net config"))
        .expect("bind loopback");
    let mut client = NetClient::connect(net.local_addr()).expect("connect loopback");
    let digest = Query::<DenseVector>::DigestSince { from };
    let mut digest_ns = Vec::with_capacity(digest_queries);
    let mut digest_drifts = 0;
    for _ in 0..digest_queries {
        let begin = std::time::Instant::now();
        let response = client.query(&digest).expect("loopback digest");
        digest_ns.push(begin.elapsed().as_nanos() as u64);
        match response {
            QueryResponse::Digest(d) => digest_drifts = d.drifts.len(),
            other => panic!("digest_since answered {other:?}"),
        }
    }
    assert!(digest_drifts >= DIGEST_CLUSTERS, "every cluster drifts: {digest_drifts} drifts");
    net.shutdown();

    let (local_p50_us, local_p99_us) = latency_percentiles(local_ns);
    let (net_p50_us, net_p99_us) = latency_percentiles(net_ns);
    let (digest_net_p50_us, digest_net_p99_us) = latency_percentiles(digest_ns);
    NetRun {
        queries,
        local_p50_us,
        local_p99_us,
        net_p50_us,
        net_p99_us,
        digest_queries,
        digest_drifts,
        digest_net_p50_us,
        digest_net_p99_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crowded_seeds_share_buckets_but_stay_r_separated() {
        for j in 1..CROWDED_PER_BUCKET {
            let d = crowded_seed(0).dist(&crowded_seed(j));
            assert!(d > 0.5, "bucket-mates must exceed r (got {d})");
            assert!(d < 1.0, "bucket-mates must share the r-cube region (got {d})");
        }
    }

    #[test]
    fn highd_cluster_members_are_r_separated_in_both_dims() {
        for &d in &[16usize, 51] {
            for k in 1..HIGHD_PER_CLUSTER {
                let dist = highd_seed(0, 0, d).dist(&highd_seed(0, k, d));
                assert!(dist > 0.5, "d={d}: members must exceed r (got {dist})");
            }
            let cross = highd_seed(0, 0, d).dist(&highd_seed(1, 0, d));
            assert!((cross - 2.0).abs() < 1e-9, "adjacent cluster sites sit 2 apart");
        }
    }
}
