//! `net_monitor` — read-heavy remote monitoring over loopback TCP.
//!
//! A 16-d hot/cold layout built from `edm_bench::scenarios::highd_seed`:
//! [`HOT_CLUSTERS`] sites of active member cells (a few thousand published
//! seeds per snapshot) next to [`COLD_CLUSTERS`] sites of one-point
//! reservoir cells. It is served by `EdmServer` (default `ServeConfig`) and
//! a `NetServer` on loopback. The main thread ingests absorb traffic open
//! loop at a low fixed rate; one client thread on one `NetClient`
//! connection runs a closed-loop query sequence fixed by the seed: mostly
//! `ClusterOf` on probes within r of a hot seed, plus a small fixed share of
//! `Stats` and `DigestSince`. Every `ClusterOf` probe must resolve.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use edm_bench::scenarios::highd_seed;
use edm_common::metric::Euclidean;
use edm_common::point::DenseVector;
use edm_core::{EdmConfig, TauMode};
use edm_serve::net::wire::{decode_query, decode_result, encode_query, encode_result};
use edm_serve::net::{NetClient, NetConfig, NetServer};
use edm_serve::{EdmServer, Published, Query, QueryResponse, ServeConfig, ServeHandle};

use super::{Freshness, RunArgs, RunOutput};
use crate::oracle::Engine;
use crate::outcome::Outcome;
use crate::report::{E2e, Metrics};
use crate::rng::Rng;
use crate::sched::{DueIndex, Schedule};
use crate::stats::Summary;
use crate::trace::{span, Layers, Span, Tracer};

/// Dimensionality of the layout.
pub const DIM: usize = 16;
/// Lattice sites whose member cells are active and take absorb traffic.
pub const HOT_CLUSTERS: usize = 256;
/// Lattice sites of one-point reservoir cells.
pub const COLD_CLUSTERS: usize = 512;
/// Member cells per site: 256 × 8 = 2048 published seeds per snapshot.
pub const PER_SITE: usize = 8;
/// Cell radius.
pub const R: f64 = 0.5;
/// Offered ingest rate, points per wall (and stream) second.
pub const OFFERED_RATE: f64 = 500.0;
/// Points per `EdmServer::ingest` batch.
pub const BATCH: usize = 4;
/// Largest probe offset from its hot seed, along dimension 0 (< r, and
/// small enough that the seed stays the probe's nearest).
const JITTER: f64 = 0.2;
/// Query mix, per mille: `ClusterOf`, then `Stats`; the rest (0.5%)
/// `DigestSince`. Digest answers carry every cluster's drift and cost ~50
/// `ClusterOf` round trips, so their share stays well below 1%: the
/// printed tails then measure `ClusterOf`, not a boundary between kinds.
const MIX_CLUSTER_OF: u64 = 965;
const MIX_STATS: u64 = 30;
/// Length of one trial: latencies are reduced per window, then the run
/// reports the median across windows.
const TRIAL: Duration = Duration::from_secs(5);
/// Set-ups timed before the served phase, and again after it.
const SETUPS_EACH_SIDE: usize = 6;
/// Queries replayed for the TCP ↔ in-process byte-equality oracle.
const ORACLE_QUERIES: usize = 512;
/// The client samples freshness before every this-many-th query and keeps
/// that query's round trip and, for `ClusterOf`, its answer for purity.
/// Per-query buffers grow with the closed-loop query rate; kept for every
/// query they made `peak_rss_mb` follow `queries_per_s` (~38 bytes a query,
/// a spread of 0.11 over ten seeds) instead of the served system's memory.
const SAMPLE_EVERY: u64 = 16;

type Handle = ServeHandle<DenseVector, Euclidean>;

/// A probe within r of hot member `(site, k)`, labelled with its site.
fn hot_probe(rng: &mut Rng) -> (DenseVector, u32) {
    let site = rng.below(HOT_CLUSTERS as u64) as usize;
    let k = rng.below(PER_SITE as u64) as usize;
    let mut p = highd_seed(site, k, DIM);
    p.coords_mut()[0] += JITTER * rng.unit();
    (p, site as u32)
}

/// Reservoir recycling horizon, stream seconds: past any run, so the cold
/// layout stays in the index (Theorem 3 alone would recycle a one-point
/// cell after ~1.1 s at this rate and threshold).
const RECYCLE_HORIZON: f64 = 3_600.0;

/// Cluster-separation threshold: above every within-site dependent
/// distance (≤ 0.9) and below the 2.0 site spacing, so each hot site is
/// one cluster.
const TAU: f64 = 1.4;

/// The engine configuration: radius [`R`], rate [`OFFERED_RATE`], a
/// 3-point activation threshold without age adjustment, the cold layout
/// kept, one cluster per hot site, defaults otherwise.
fn config() -> EdmConfig {
    EdmConfig::builder(R)
        .rate(OFFERED_RATE)
        .beta_for_threshold(3.0)
        .age_adjusted_threshold(false)
        .recycle_horizon(RECYCLE_HORIZON)
        .tau_mode(TauMode::Static(TAU))
        .build()
        .expect("valid net_monitor configuration")
}

/// The layout's warm-up stream: every cold member once, then every hot
/// member four times (clearing the 3-point threshold). Returns the points
/// and the stream clock after them.
fn warm_points() -> (Vec<(DenseVector, f64)>, f64) {
    let mut t = 0.0;
    let mut pts = Vec::new();
    for c in 0..COLD_CLUSTERS {
        for k in 0..PER_SITE {
            t += 1e-4;
            pts.push((highd_seed(HOT_CLUSTERS + c, k, DIM), t));
        }
    }
    for _ in 0..4 {
        for c in 0..HOT_CLUSTERS {
            for k in 0..PER_SITE {
                t += 1e-4;
                pts.push((highd_seed(c, k, DIM), t));
            }
        }
    }
    (pts, t)
}

/// A warmed engine holding the layout.
fn warm_engine(warm: &[(DenseVector, f64)]) -> Engine {
    let mut e = Engine::new(config(), Euclidean);
    e.insert_batch(warm);
    e
}

/// The generated inputs: the layout's warm-up stream and the ingest
/// schedule.
pub struct Inputs {
    warm: Vec<(DenseVector, f64)>,
    batches: Vec<Vec<(DenseVector, f64)>>,
    due: DueIndex,
}

/// Generates the layout and the ingest schedule. This is the benchmark's
/// input, not the system's set-up, so it is not timed.
pub fn inputs(seed: u64, seconds: f64) -> Inputs {
    let (warm, t_warm) = warm_points();
    let mut rng = Rng::new(seed, 5);
    let n_batches = ((seconds * OFFERED_RATE) as usize).div_ceil(BATCH).max(1);
    let mut i = 0u64;
    let batches: Vec<Vec<(DenseVector, f64)>> = (0..n_batches)
        .map(|_| {
            (0..BATCH)
                .map(|_| {
                    i += 1;
                    (hot_probe(&mut rng).0, t_warm + i as f64 / OFFERED_RATE)
                })
                .collect()
        })
        .collect();
    let schedule = Schedule::new(Instant::now(), OFFERED_RATE / BATCH as f64);
    let due = DueIndex::new(
        batches.iter().map(|b| b.last().expect("non-empty batch").1).collect(),
        (0..n_batches as u64).map(|k| schedule.offset_ns(k)).collect(),
    );
    Inputs { warm, batches, due }
}

/// A running server, its TCP front end and one connected client.
pub struct Live {
    server: EdmServer<DenseVector, Euclidean>,
    net: NetServer,
    client: NetClient,
    last_gen: u64,
}

/// The timed set-up: spawns the server on `engine`, warmed beforehand,
/// binds the front end and connects the client. Warming the engine is
/// left out of the timed part: it is the bulk high-d ingest whose speed
/// drifted 15–30% between runs on the reference host, and timed it spread
/// `setup_s` by 0.17–0.25. The traced run splits the same ingest path, on
/// the served stream, into layers.
pub fn setup(engine: Engine) -> Live {
    let server = EdmServer::spawn(engine, ServeConfig::default());
    let net =
        NetServer::bind(server.handle(), NetConfig::builder().build().expect("default net config"))
            .expect("bind loopback");
    let mut client = NetClient::connect(net.local_addr()).expect("connect loopback");
    let last_gen = match client.query::<DenseVector>(&Query::Generation) {
        Ok(QueryResponse::Generation(g)) => g,
        other => panic!("generation query at connect answered {other:?}"),
    };
    Live { server, net, client, last_gen }
}

/// What the client thread measured.
#[derive(Default)]
struct ClientOut {
    staleness_ms: Vec<f64>,
    update_us: Vec<f64>,
    /// Round trips of the sampled queries, µs.
    rtt_us: Vec<f64>,
    /// Queries completed.
    queries: u64,
    /// Queries per second of each closed trial window.
    trial_rates: Vec<f64>,
    /// RTTs of the untraced first half (traced runs only).
    untraced_rtt_us: Vec<f64>,
    socket_ns: Vec<f64>,
    /// End offsets of each closed trial window (update, staleness, RTT).
    trial_ends: Vec<[usize; 3]>,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
    wall_s: f64,
    preds: Vec<Option<usize>>,
    truth: Vec<Option<u32>>,
    outcome: Outcome,
    spans: Vec<Span>,
}

fn execute_name<P>(q: &Query<P>) -> &'static str {
    match q {
        Query::ClusterOf { .. } => "execute.cluster_of",
        Query::Stats => "execute.stats",
        _ => "execute.digest_since",
    }
}

/// Re-runs one query's server path on this thread, each stage a span —
/// `encode_query → decode_query → execute → encode_result → decode_result`
/// (plus `latest → assign` for `ClusterOf`) — and returns the stages' total
/// self time and the request and response sizes.
fn decompose(
    tr: &mut Tracer,
    handle: &Handle,
    q: &Query<DenseVector>,
    k: u64,
) -> (u64, usize, usize) {
    let t0 = tr.now();
    let request = tr.time("wire.encode_query", k, || encode_query(q));
    let decoded = tr.time("wire.decode_query", k, || decode_query::<DenseVector>(&request));
    let decoded = decoded.expect("the codec decodes its own encoding");
    let answer = tr.time(execute_name(q), k, || handle.execute(&decoded));
    let response = tr.time("wire.encode_result", k, || encode_result(&Ok(answer)));
    std::hint::black_box(tr.time("wire.decode_result", k, || decode_result(&response)));
    let codec_and_execute = tr.now() - t0;
    if let Query::ClusterOf { point } = q {
        let snap = tr.time("swap.load", k, || handle.latest());
        std::hint::black_box(tr.time("assign", k, || snap.assign(point, &Euclidean)));
    }
    (codec_and_execute, request.len(), response.len())
}

/// The closed-loop client. In a traced run the first half is untraced
/// (the overhead baseline) and the second half records spans.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    client: &mut NetClient,
    handle: &Handle,
    due: &DueIndex,
    start: Instant,
    stop: &AtomicBool,
    mut rng: Rng,
    mut last_gen: u64,
    traced_from: Option<(Instant, Instant)>,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut fresh = Freshness::new(due, start);
    let mut tr: Option<Tracer> = None;
    let mut root = None;
    let mut k = 0u64;
    let mut next_trial = start + TRIAL;
    let mut window = (start, 0u64);
    while !stop.load(Ordering::Acquire) {
        if Instant::now() >= next_trial {
            out.trial_ends.push([
                fresh.update_us.len(),
                fresh.staleness_ms.len(),
                out.rtt_us.len(),
            ]);
            let (now, (t, n)) = (Instant::now(), window);
            out.trial_rates.push((k - n) as f64 / (now - t).as_secs_f64());
            window = (now, k);
            next_trial += TRIAL;
        }
        if let Some((epoch, from)) = traced_from {
            if tr.is_none() && Instant::now() >= from {
                let mut t = Tracer::new(epoch);
                root = Some(t.open("bench.client", 0));
                out.untraced_rtt_us = std::mem::take(&mut out.rtt_us);
                tr = Some(t);
            }
        }
        let sampled = k.is_multiple_of(SAMPLE_EVERY);
        if sampled {
            fresh.sample(&handle.latest());
        }
        let pick = rng.below(1000);
        let (query, label) = if pick < MIX_CLUSTER_OF {
            let (p, site) = hot_probe(&mut rng);
            (Query::ClusterOf { point: p }, Some(site))
        } else if pick < MIX_CLUSTER_OF + MIX_STATS {
            (Query::Stats, None)
        } else {
            (Query::DigestSince { from: last_gen.saturating_sub(8).max(1) }, None)
        };
        let t0 = Instant::now();
        let answer = span(&mut tr, "net.query", k, || client.query(&query));
        let rtt = t0.elapsed();
        if sampled {
            out.rtt_us.push(rtt.as_nanos() as f64 / 1e3);
        }
        if let Some(t) = tr.as_mut() {
            let (stages, req, resp) = decompose(t, handle, &query, k);
            out.socket_ns.push((rtt.as_nanos() as u64).saturating_sub(stages) as f64);
            out.request_bytes.push(req as f64);
            out.response_bytes.push(resp as f64);
        }
        match (label, answer) {
            (Some(site), Ok(QueryResponse::ClusterOf(a))) => {
                if sampled {
                    out.truth.push(Some(site));
                    out.preds.push(a.membership().map(|c| c as usize));
                }
                out.outcome.check(a.membership().is_some(), || {
                    format!("probe within r of hot site {site} did not resolve: {a:?}")
                });
            }
            (None, Ok(QueryResponse::Stats(s))) => {
                last_gen = s.generation;
                out.outcome.ok();
            }
            (None, Ok(QueryResponse::Digest(_))) => out.outcome.ok(),
            (_, other) => out.outcome.fail(format!("{} answered {other:?}", query.name())),
        }
        k += 1;
    }
    out.queries = k;
    out.wall_s = start.elapsed().as_secs_f64();
    if let (Some(mut t), Some(id)) = (tr, root) {
        t.close(id);
        out.spans = t.into_spans();
    }
    out.staleness_ms = fresh.staleness_ms;
    out.update_us = fresh.update_us;
    out
}

/// The measured phase's results.
struct Served {
    client: ClientOut,
    ingest_wall_s: f64,
    lateness_us: Vec<f64>,
    gen_spans: Vec<Span>,
}

/// Offers every batch on schedule while the client runs, waits until the
/// last batch is visible, then stops the client.
fn serve(
    live: &mut Live,
    inp: &Inputs,
    seed: u64,
    epoch: Option<Instant>,
    half: f64,
    outcome: &mut Outcome,
) -> Served {
    let handle = live.server.handle();
    let stop = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(2);
    let schedule = Schedule::new(start, OFFERED_RATE / BATCH as f64);
    let traced_from = epoch.map(|e| (e, start + Duration::from_secs_f64(half)));
    let Live { client, server, last_gen, .. } = live;
    let (client_out, produced) = std::thread::scope(|scope| {
        let (h, d, st, g) = (&handle, &inp.due, &stop, *last_gen);
        let rng = Rng::new(seed, 6);
        let c = scope.spawn(move || client_loop(client, h, d, start, st, rng, g, traced_from));
        let produced = super::produce(server, &inp.batches, schedule, epoch, outcome);
        stop.store(true, Ordering::Release);
        (c.join().expect("client thread"), produced)
    });
    Served {
        client: client_out,
        ingest_wall_s: (produced.visible_at - start).as_secs_f64(),
        lateness_us: produced.lateness_us,
        gen_spans: produced.spans,
    }
}

/// Shuts the writer down, checks what it committed and its invariants, and
/// checks that a seeded sample of TCP answers byte-equals in-process
/// `execute` on the final snapshot. Returns the server's final counters.
fn oracle(
    live: Live,
    inp: &Inputs,
    seed: u64,
    outcome: &mut Outcome,
) -> Result<edm_serve::ServeStats, String> {
    let Live { server, net, mut client, .. } = live;
    let handle = server.handle();
    let stats = handle.stats();
    let offered = (inp.batches.len() * BATCH) as u64;
    outcome.check(stats.ingested_points == offered, || {
        format!("writer committed {} of {offered} points", stats.ingested_points)
    });
    let engine = server.shutdown().map_err(|e| format!("writer failed: {e}"))?;
    let inv = engine.check_invariants(engine.stream_time());
    outcome.check(inv.is_ok(), || format!("served engine invariants: {inv:?}"));
    let generation = handle.latest().generation();
    let mut rng = Rng::new(seed, 7);
    for i in 0..ORACLE_QUERIES {
        let query = match i % 8 {
            0 => Query::NClusters,
            1 => Query::Generation,
            2 => Query::DigestSince { from: generation.saturating_sub(8).max(1) },
            3 => Query::DecisionGraph,
            4 => {
                // Far from every site: an outlier answer.
                let mut p = highd_seed(rng.below(HOT_CLUSTERS as u64) as usize, 0, DIM);
                p.coords_mut()[1] += 1.0 + rng.unit();
                Query::ClusterOf { point: p }
            }
            _ => Query::ClusterOf { point: hot_probe(&mut rng).0 },
        };
        let local = encode_result(&Ok(handle.execute(&query)));
        match client.exchange(&encode_query(&query)) {
            Ok(remote) => outcome.check(remote == local, || {
                format!("TCP answer to {} differs from in-process execute", query.name())
            }),
            Err(e) => outcome.fail(format!("TCP {} failed: {e}", query.name())),
        }
    }
    drop(client);
    net.shutdown();
    Ok(stats)
}

/// Runs the workload.
pub fn run(args: RunArgs) -> Result<RunOutput, String> {
    if args.trace {
        return run_traced(args);
    }
    let mut outcome = Outcome::default();
    let inp = inputs(args.seed, args.seconds);
    let (mut live, mut setup_s) =
        super::repeat_setup(SETUPS_EACH_SIDE, || warm_engine(&inp.warm), setup);
    let served = serve(&mut live, &inp, args.seed, None, 0.0, &mut outcome);
    let c = served.client;
    outcome.merge(c.outcome);
    oracle(live, &inp, args.seed, &mut outcome)?;
    let peak_rss_mb = crate::host::peak_rss_mb();
    setup_s.extend(super::repeat_setup(SETUPS_EACH_SIDE, || warm_engine(&inp.warm), setup).1);
    let e2e = E2e {
        setup_s,
        ingest_points: (inp.batches.len() * BATCH) as u64,
        ingest_wall_s: served.ingest_wall_s,
        update_us: c.update_us,
        update_how: "per observed publication: publish instant minus the due time of the \
                     newest batch it reflects",
        staleness_ms: c.staleness_ms,
        staleness_how: "sampled before every 16th client query: now minus the due time of \
                        the newest point in latest().as_of()",
        queries: c.queries,
        query_us: c.rtt_us,
        query_how: "one NetClient::query round trip, closed loop, every 16th query",
        query_wall_s: c.wall_s,
        query_rates: c.trial_rates,
        purity: super::purity(&c.preds, &c.truth).0,
        lateness_us: served.lateness_us,
        trial_ends: c.trial_ends,
        peak_rss_mb,
    };
    let metrics = e2e.reduce(&outcome)?;
    Ok(RunOutput { outcome, metrics, spans: Vec::new() })
}

/// Traced run: the served phase with an untraced first half and a traced
/// second half on the client (real `NetClient::query` next to its
/// decomposition on the client thread), spans around the producer's
/// `ingest`, then the writer's calls replayed on this thread.
fn run_traced(args: RunArgs) -> Result<RunOutput, String> {
    let mut outcome = Outcome::default();
    let inp = inputs(args.seed, args.seconds);
    let mut live = setup(warm_engine(&inp.warm));
    let epoch = Instant::now();
    let served = serve(&mut live, &inp, args.seed, Some(epoch), args.seconds / 2.0, &mut outcome);
    let stats = oracle(live, &inp, args.seed, &mut outcome)?;
    let Inputs { warm, batches, .. } = inp;
    let mut c = served.client;
    outcome.merge(std::mem::take(&mut c.outcome));

    let mut tr = Tracer::new(epoch);
    let mut replayed = warm_engine(&warm);
    // Counters of the warm-up, which is set-up, not workload.
    let warm_stats = replayed.stats().clone();
    let mut members = Vec::with_capacity(batches.len());
    let root = tr.open("bench.replay", 0);
    let mut cells_peak = 0;
    for (b, batch) in batches.iter().enumerate() {
        cells_peak = cells_peak.max(super::traced_inserts(
            &mut replayed,
            batch,
            &mut tr,
            (b * BATCH) as u64,
        ));
        let p = tr.time("publish.freeze", b as u64, || Published::freeze(&mut replayed));
        members.push(p.n_members() as f64);
    }
    tr.close(root);
    outcome.ok_n(batches.len() as u64);
    let kernel_points: Vec<DenseVector> =
        batches.iter().flatten().take(65_536).map(|(p, _)| p.clone()).collect();
    let root = tr.open("bench.kernel", 0);
    let dist_ns = super::kernel_dist(&kernel_points, &mut tr);
    tr.close(root);
    let main_spans = tr.into_spans();

    let mut layers = Layers::default();
    for spans in [&main_spans, &c.spans, &served.gen_spans] {
        layers.add(spans);
    }
    let mut m = Metrics::default();
    let replay_stats = super::stats_delta(replayed.stats(), &warm_stats);
    super::engine_layer_metrics(&mut m, &replay_stats, &layers, cells_peak);
    super::set_coverage(&mut m, &layers);
    m.set(
        "kernel.dist_ns",
        dist_ns,
        "p50 per-call Metric::dist over the served stream's own points",
    );
    m.set(
        "publish.freeze_ns",
        layers.p50("publish.freeze"),
        "p50 Published::freeze in the writer replay",
    );
    members.sort_unstable_by(f64::total_cmp);
    m.set("publish.members", crate::stats::median(&members), "median Published::n_members");
    for (metric, layer) in [
        ("assign.ns", "assign"),
        ("swap.load_ns", "swap.load"),
        ("execute.cluster_of_ns", "execute.cluster_of"),
        ("execute.stats_ns", "execute.stats"),
        ("evolve.digest_ns", "execute.digest_since"),
        ("wire.encode_query_ns", "wire.encode_query"),
        ("wire.decode_query_ns", "wire.decode_query"),
        ("wire.encode_result_ns", "wire.encode_result"),
        ("wire.decode_result_ns", "wire.decode_result"),
        ("net.rtt_ns", "net.query"),
    ] {
        m.set(metric, layers.p50(layer), format!("p50 of {} traced queries", layers.count(layer)));
    }
    for (metric, samples, what) in [
        ("wire.request_bytes", &mut c.request_bytes, "request payload bytes"),
        ("wire.response_bytes", &mut c.response_bytes, "response payload bytes"),
        ("net.socket_ns", &mut c.socket_ns, "RTT minus codec and execute time of the same query"),
    ] {
        if let Some(s) = Summary::of(samples) {
            m.set(metric, s.median, format!("median {what}, n={}", s.n));
        }
    }
    m.set(
        "queue.ingest_wait_ns",
        layers.quantile("queue.ingest", 9_900),
        format!("p99 EdmServer::ingest of {} batches", layers.count("queue.ingest")),
    );
    m.set("queue.depth_hwm", stats.queue_depth_hwm as f64, "ServeStats::queue_depth_hwm");
    m.set("queue.dropped", stats.dropped_points as f64, "ServeStats::dropped_points");
    m.set("queue.rejected", stats.rejected_points as f64, "ServeStats::rejected_points");
    let mut late = served.lateness_us.clone();
    if let Some(s) = Summary::of(&mut late) {
        m.set("gen.lateness_p99_us", s.p99, format!("p99 of {} open-loop sends", s.n));
    }
    let traced = Summary::of(&mut c.rtt_us);
    let untraced = Summary::of(&mut c.untraced_rtt_us);
    if let (Some(t), Some(u)) = (traced, untraced) {
        m.set(
            "trace.overhead",
            t.median / u.median,
            format!("p50 RTT traced half ({}) ÷ untraced half ({})", t.n, u.n),
        );
    }
    Ok(RunOutput {
        outcome,
        metrics: m,
        spans: vec![("main", main_spans), ("client", c.spans), ("producer", served.gen_spans)],
    })
}
