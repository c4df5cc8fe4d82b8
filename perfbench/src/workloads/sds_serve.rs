//! `sds_serve` — write-heavy serving of the scripted SDS evolution.
//!
//! The 2-d SDS script (merge, emergence, disappearance, split) is scaled to
//! [`LAP_POINTS`] points over its 20 s of stream time and served through an
//! `EdmServer` at the default `ServeConfig` (publish every batch, `Block`)
//! over an engine with `ingest_threads` [`INGEST_THREADS`] and evolution
//! tracking on. The main thread offers [`BATCH`]-point batches open loop at
//! [`OFFERED_RATE`]; one reader thread issues an open-loop [`READ_RATE`]
//! `execute` mix (`ClusterOf` on recent stream points, `NClusters`,
//! `Generation`, `DigestSince(gen − 8)`) and samples freshness after each
//! query. Each lap replays the script from an empty engine; laps repeat
//! until the measured time is used up.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use edm_bench::catalog::{self, DatasetId};
use edm_common::metric::Euclidean;
use edm_common::point::DenseVector;
use edm_core::EdmConfig;
use edm_data::gen::sds;
use edm_data::stream::LabeledStream;
use edm_serve::{EdmServer, Published, Query, QueryResponse, ServeConfig, ServeHandle};

use super::{Freshness, RunArgs, RunOutput};
use crate::oracle::{compare, fingerprint, Engine, Fingerprint};
use crate::outcome::Outcome;
use crate::report::{E2e, Metrics};
use crate::rng::{derive_seed, Rng};
use crate::sched::{wait_until, DueIndex, Schedule};
use crate::trace::{span, Layers, Span, Tracer};

/// Stream points per lap (the 20 s script at [`STREAM_RATE`]).
pub const LAP_POINTS: usize = 400_000;
/// Stream arrival rate, points per stream second.
pub const STREAM_RATE: f64 = 20_000.0;
/// Points per `EdmServer::ingest` batch.
pub const BATCH: usize = 256;
/// Offered ingest rate, points per wall second: about a sixth of what the
/// served writer sustains alone (≈650k pts/s on the reference 2-vCPU host).
/// At 300k pts/s the medians held but every tail swung 50–70% from run to
/// run: the writer's two probe threads then held both vCPUs often enough
/// that the reader's and producer's wake-ups queued behind them.
pub const OFFERED_RATE: f64 = 100_000.0;
/// Offered read rate, queries per wall second.
pub const READ_RATE: f64 = 500.0;
/// The reader wakes this early and spins until each due time: a wake-up
/// while the writer's two probe threads hold both CPUs can wait hundreds
/// of µs, and that scheduler delay would otherwise set the read tail.
const READER_SPIN: Duration = Duration::from_micros(300);
/// Probe-phase worker threads of the served engine.
pub const INGEST_THREADS: usize = 2;
/// Reader mix, percent: `ClusterOf`, `NClusters`, `Generation`; the rest
/// (5%) `DigestSince(gen − 8)`, the slowest kind. No kind's cumulative
/// share sits near 50% or 90%, so neither reported percentile falls on a
/// boundary between two kinds' latencies.
const MIX_CLUSTER_OF: u64 = 75;
const MIX_N_CLUSTERS: u64 = 10;
const MIX_GENERATION: u64 = 10;
/// `ClusterOf` probes are drawn from this many most recently due points.
const RECENT: u64 = 1_024;

type Handle = ServeHandle<DenseVector, Euclidean>;

/// The generated lap and its schedule.
pub struct Inputs {
    stream: LabeledStream<DenseVector>,
    batches: Vec<Vec<(DenseVector, f64)>>,
    due: DueIndex,
    cfg: EdmConfig,
}

impl Inputs {
    fn t_end(&self) -> f64 {
        self.stream.points.last().map_or(0.0, |p| p.ts)
    }

    /// The same engine configuration with the serial ingest loop.
    fn serial_cfg(&self) -> EdmConfig {
        self.cfg
            .to_builder()
            .ingest_threads(NonZeroUsize::new(1).expect("nonzero"))
            .build()
            .expect("serial variant of a valid config")
    }

    fn batch_period_ns(&self) -> f64 {
        1e9 * BATCH as f64 / OFFERED_RATE
    }
}

/// Generates the lap and schedules its batches. This is the benchmark's
/// input, not the system's set-up, so it is not timed.
pub fn inputs(seed: u64) -> Inputs {
    let stream = sds::generate(&sds::SdsConfig {
        n: LAP_POINTS,
        rate: STREAM_RATE,
        seed: derive_seed(seed, 4),
        ..Default::default()
    });
    let cfg = catalog::edm_config(DatasetId::Sds, stream.default_r, STREAM_RATE)
        .to_builder()
        .ingest_threads(NonZeroUsize::new(INGEST_THREADS).expect("nonzero"))
        .build()
        .expect("the catalog SDS config stays valid with parallel ingest");
    let batches: Vec<Vec<(DenseVector, f64)>> = stream
        .points
        .chunks(BATCH)
        .map(|c| c.iter().map(|p| (p.payload.clone(), p.ts)).collect())
        .collect();
    let schedule = Schedule::new(Instant::now(), OFFERED_RATE / BATCH as f64);
    let due = DueIndex::new(
        batches.iter().map(|b| b.last().expect("non-empty batch").1).collect(),
        (0..batches.len() as u64).map(|k| schedule.offset_ns(k)).collect(),
    );
    Inputs { stream, batches, due, cfg }
}

/// Set-ups timed before each lap.
const SETUPS_PER_LAP: usize = 8;

/// The timed set-up, what each lap does before its first batch: build an
/// engine and spawn a server on it; then shut it down. Warming it on the
/// lap's first batches was left out: that compute ran at either ~28 or
/// ~40 ms depending on the host's state, which swamped the set-up itself.
fn setup(cfg: &EdmConfig) {
    let server = EdmServer::spawn(Engine::new(cfg.clone(), Euclidean), ServeConfig::default());
    server.shutdown().expect("an idle writer shuts down");
}

/// What the reader thread measured.
#[derive(Default)]
struct ReaderOut {
    staleness_ms: Vec<f64>,
    update_us: Vec<f64>,
    query_us: Vec<f64>,
    lateness_us: Vec<f64>,
    queries: u64,
    wall_s: f64,
    preds: Vec<Option<usize>>,
    truth: Vec<Option<u32>>,
    outcome: Outcome,
    spans: Vec<Span>,
}

/// The open-loop reader: one query per tick of a [`READ_RATE`] schedule,
/// timed from its due time. Each query is prepared before its due time and
/// the freshness sample is taken after it answers, so only the wait and
/// `execute` fall inside the timed interval.
fn reader(
    handle: &Handle,
    s: &Inputs,
    start: Instant,
    stop: &AtomicBool,
    mut rng: Rng,
    mut tr: Option<Tracer>,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut fresh = Freshness::new(&s.due, start);
    let schedule = Schedule::new(start, READ_RATE);
    let n = s.stream.len() as u64;
    let mut last_gen = 1u64;
    let mut k = 0u64;
    while !stop.load(Ordering::Acquire) {
        let due = schedule.due(k);
        let pick = rng.below(100);
        let query = if pick < MIX_CLUSTER_OF {
            let due_batches = (schedule.offset_ns(k) as f64 / s.batch_period_ns()) as u64 + 1;
            let newest = (due_batches * BATCH as u64).min(n) - 1;
            let idx = newest.saturating_sub(rng.below(RECENT)) as usize;
            let p = &s.stream.points[idx];
            out.truth.push(p.label);
            Query::ClusterOf { point: p.payload.clone() }
        } else if pick < MIX_CLUSTER_OF + MIX_N_CLUSTERS {
            Query::NClusters
        } else if pick < MIX_CLUSTER_OF + MIX_N_CLUSTERS + MIX_GENERATION {
            Query::Generation
        } else {
            Query::DigestSince { from: last_gen.saturating_sub(8).max(1) }
        };
        let name = match query {
            Query::ClusterOf { .. } => "execute.cluster_of",
            Query::NClusters => "execute.n_clusters",
            Query::DigestSince { .. } => "execute.digest_since",
            _ => "execute.generation",
        };
        out.lateness_us.push(wait_until(due, READER_SPIN).as_nanos() as f64 / 1e3);
        let tick = tr.as_mut().map(|t| t.open("bench.tick", k));
        let answer = span(&mut tr, name, k, || handle.execute(&query));
        out.query_us.push(Instant::now().saturating_duration_since(due).as_nanos() as f64 / 1e3);
        out.queries += 1;
        let snap = span(&mut tr, "swap.load", k, || handle.latest());
        fresh.sample(&snap);
        last_gen = snap.generation();
        if let (Some(t), Query::ClusterOf { point }) = (tr.as_mut(), &query) {
            std::hint::black_box(t.time("assign", k, || snap.assign(point, &Euclidean)));
        }
        match (&query, answer) {
            (Query::ClusterOf { .. }, Ok(QueryResponse::ClusterOf(a))) => {
                out.preds.push(a.membership().map(|c| c as usize));
                out.outcome.ok();
            }
            (Query::ClusterOf { .. }, other) => {
                out.preds.push(None);
                out.outcome.fail(format!("ClusterOf answered {other:?}"));
            }
            (_, Ok(_)) => out.outcome.ok(),
            (q, Err(e)) => out.outcome.fail(format!("{} refused: {e}", q.name())),
        }
        if let (Some(t), Some(id)) = (tr.as_mut(), tick) {
            t.close(id);
        }
        k += 1;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.staleness_ms = fresh.staleness_ms;
    out.update_us = fresh.update_us;
    out.spans = tr.map(Tracer::into_spans).unwrap_or_default();
    out
}

/// One measured lap.
struct Lap {
    reader: ReaderOut,
    ingest_wall_s: f64,
    lateness_us: Vec<f64>,
    engine: Engine,
    gen_spans: Vec<Span>,
    depth_hwm: usize,
    dropped: u64,
    rejected: u64,
}

/// Serves one lap: spawn, offer every batch on schedule while the reader
/// runs, wait until the last batch is visible, stop the reader, shut down.
fn lap(
    s: &Inputs,
    seed: u64,
    lap_no: u64,
    epoch: Option<Instant>,
    outcome: &mut Outcome,
) -> Result<Lap, String> {
    let server = EdmServer::spawn(Engine::new(s.cfg.clone(), Euclidean), ServeConfig::default());
    let handle = server.handle();
    let stop = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(2);
    let schedule = Schedule::new(start, OFFERED_RATE / BATCH as f64);
    let (reader_out, produced) = std::thread::scope(|scope| {
        let rng = Rng::new(seed, 100 + lap_no);
        let reader_tr = epoch.map(Tracer::new);
        let (h, st) = (&handle, &stop);
        let reader = scope.spawn(move || reader(h, s, start, st, rng, reader_tr));
        let produced = super::produce(&server, &s.batches, schedule, epoch, outcome);
        stop.store(true, Ordering::Release);
        (reader.join().expect("reader thread"), produced)
    });
    let stats = handle.stats();
    let engine = server.shutdown().map_err(|e| format!("writer failed: {e}"))?;
    outcome.check(stats.ingested_points == LAP_POINTS as u64, || {
        format!("writer committed {} of {LAP_POINTS} points", stats.ingested_points)
    });
    Ok(Lap {
        reader: reader_out,
        ingest_wall_s: (produced.visible_at - start).as_secs_f64(),
        lateness_us: produced.lateness_us,
        engine,
        gen_spans: produced.spans,
        depth_hwm: stats.queue_depth_hwm,
        dropped: stats.dropped_points,
        rejected: stats.rejected_points,
    })
}

/// The serial (`ingest_threads` 1) reference a served engine must equal.
fn reference(s: &Inputs) -> Fingerprint {
    let mut e = Engine::new(s.serial_cfg(), Euclidean);
    for b in &s.batches {
        e.insert_batch(b);
    }
    fingerprint(&mut e, s.t_end())
}

/// Checks a served engine's invariants and returns its fingerprint.
fn served_fingerprint(s: &Inputs, mut engine: Engine, outcome: &mut Outcome) -> Fingerprint {
    let inv = engine.check_invariants(s.t_end());
    outcome.check(inv.is_ok(), || format!("served engine invariants: {inv:?}"));
    fingerprint(&mut engine, s.t_end())
}

/// Runs the workload.
pub fn run(args: RunArgs) -> Result<RunOutput, String> {
    if args.trace {
        return run_traced(args);
    }
    let mut outcome = Outcome::default();
    let s = inputs(args.seed);
    let lap_wall = LAP_POINTS as f64 / OFFERED_RATE;
    let laps = (args.seconds / lap_wall).round().max(1.0) as u64;
    let mut e2e = E2e {
        update_how: "per observed publication: publish instant minus the due time of the \
                     newest batch it reflects",
        staleness_how: "sampled after each open-loop read: now minus the due time of the \
                        newest point in latest().as_of()",
        query_how: "one execute call, open loop, timed from its due time",
        ..E2e::default()
    };
    let (mut preds, mut truth) = (Vec::new(), Vec::new());
    let mut served = Vec::new();
    for lap_no in 0..laps {
        e2e.setup_s.extend(super::repeat_setup(SETUPS_PER_LAP, || (), |()| setup(&s.cfg)).1);
        let mut l = lap(&s, args.seed, lap_no, None, &mut outcome)?;
        e2e.ingest_points += LAP_POINTS as u64;
        e2e.ingest_wall_s += l.ingest_wall_s;
        e2e.update_us.append(&mut l.reader.update_us);
        e2e.staleness_ms.append(&mut l.reader.staleness_ms);
        e2e.query_us.append(&mut l.reader.query_us);
        e2e.queries += l.reader.queries;
        e2e.query_wall_s += l.reader.wall_s;
        e2e.query_rates.push(l.reader.queries as f64 / l.reader.wall_s);
        e2e.lateness_us.append(&mut l.lateness_us);
        e2e.lateness_us.append(&mut l.reader.lateness_us);
        preds.append(&mut l.reader.preds);
        truth.append(&mut l.reader.truth);
        outcome.merge(l.reader.outcome);
        e2e.end_trial();
        served.push(served_fingerprint(&s, l.engine, &mut outcome));
    }
    let expected = reference(&s);
    for (i, f) in served.iter().enumerate() {
        let verdict = compare(f, &expected);
        outcome.check(verdict.is_ok(), || {
            format!("lap {i}: served engine differs from serial replay: {verdict:?}")
        });
    }
    e2e.purity = super::purity(&preds, &truth).0;
    let metrics = e2e.reduce(&outcome)?;
    Ok(RunOutput { outcome, metrics, spans: Vec::new() })
}

/// Traced run: one live lap with spans around the reader's and the
/// producer's calls; then the writer's calls replayed on this thread
/// (`insert_batch` per batch, `Published::freeze` per publication) once
/// untraced and once traced; then a serial per-point pass that splits the
/// engine's time into layers.
fn run_traced(args: RunArgs) -> Result<RunOutput, String> {
    let mut outcome = Outcome::default();
    let s = inputs(args.seed);
    let epoch = Instant::now();
    let mut l = lap(&s, args.seed, 0, Some(epoch), &mut outcome)?;
    outcome.merge(std::mem::take(&mut l.reader.outcome));
    let expected = reference(&s);
    let verdict = compare(&served_fingerprint(&s, l.engine, &mut outcome), &expected);
    outcome.check(verdict.is_ok(), || {
        format!("served engine differs from serial replay: {verdict:?}")
    });

    let replay = |tr: &mut Option<Tracer>, members: &mut Vec<f64>| -> (Engine, f64) {
        let mut e = Engine::new(s.cfg.clone(), Euclidean);
        let t0 = Instant::now();
        for (b, batch) in s.batches.iter().enumerate() {
            span(tr, "engine.insert_batch", b as u64, || e.insert_batch(batch));
            let p = span(tr, "publish.freeze", b as u64, || Published::freeze(&mut e));
            members.push(p.n_members() as f64);
        }
        (e, t0.elapsed().as_secs_f64())
    };
    let (_, untraced_s) = replay(&mut None, &mut Vec::new());
    let mut tr = Some(Tracer::new(epoch));
    let mut members = Vec::new();
    let root = tr.as_mut().map(|t| t.open("bench.replay", 0));
    let (replayed, traced_s) = replay(&mut tr, &mut members);
    let mut tr = tr.expect("tracer present");
    tr.close(root.expect("root span"));
    outcome.ok_n(2 * s.batches.len() as u64);

    let mut serial = Engine::new(s.serial_cfg(), Euclidean);
    let points: Vec<(DenseVector, f64)> = s.batches.iter().flatten().cloned().collect();
    let root = tr.open("bench.serial", 0);
    let cells_peak = super::traced_inserts(&mut serial, &points, &mut tr, 0);
    tr.close(root);
    let kernel_points: Vec<DenseVector> =
        points.iter().take(65_536).map(|(p, _)| p.clone()).collect();
    let root = tr.open("bench.kernel", 0);
    let dist_ns = super::kernel_dist(&kernel_points, &mut tr);
    tr.close(root);
    outcome.ok_n(points.len() as u64);

    let main_spans = tr.into_spans();
    let mut layers = Layers::default();
    for spans in [&main_spans, &l.reader.spans, &l.gen_spans] {
        layers.add(spans);
    }
    let mut m = Metrics::default();
    super::engine_layer_metrics(&mut m, serial.stats(), &layers, cells_peak);
    super::set_coverage(&mut m, &layers);
    m.set("kernel.dist_ns", dist_ns, "p50 per-call Metric::dist over the lap's own points");
    let rs = replayed.stats();
    let round = layers.p50("engine.insert_batch");
    m.set(
        "parallel.round_ns",
        round,
        format!("p50 insert_batch of {BATCH} points in the writer replay"),
    );
    m.set(
        "parallel.revalidation_ratio",
        rs.probe_revalidation_rate(),
        format!("{} revalidations of {} probe tasks", rs.probe_revalidations, rs.probe_tasks),
    );
    m.set("pool.rounds", rs.pool_rounds as f64, "EngineStats::pool_rounds of the writer replay");
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
        ("execute.n_clusters_ns", "execute.n_clusters"),
        ("evolve.digest_ns", "execute.digest_since"),
    ] {
        m.set(metric, layers.p50(layer), format!("p50 of {} live reads", layers.count(layer)));
    }
    m.set(
        "queue.ingest_wait_ns",
        layers.quantile("queue.ingest", 9_900),
        format!("p99 EdmServer::ingest of {} batches", layers.count("queue.ingest")),
    );
    m.set("queue.depth_hwm", l.depth_hwm as f64, "ServeStats::queue_depth_hwm");
    m.set("queue.dropped", l.dropped as f64, "ServeStats::dropped_points");
    m.set("queue.rejected", l.rejected as f64, "ServeStats::rejected_points");
    let mut late: Vec<f64> = l.lateness_us.iter().chain(&l.reader.lateness_us).copied().collect();
    if let Some(sum) = crate::stats::Summary::of(&mut late) {
        m.set("gen.lateness_p99_us", sum.p99, format!("p99 of {} open-loop sends", sum.n));
    }
    m.set("trace.overhead", traced_s / untraced_s, "traced ÷ untraced writer replay, same batches");
    Ok(RunOutput {
        outcome,
        metrics: m,
        spans: vec![("main", main_spans), ("reader", l.reader.spans), ("producer", l.gen_spans)],
    })
}
