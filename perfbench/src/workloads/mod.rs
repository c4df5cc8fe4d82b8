//! The two workloads and what they share: set-up repetition, the
//! freshness sampler, the open-loop producer, and the traced per-point
//! ingest pass that splits engine time into layers.

pub mod net_monitor;
pub mod sds_serve;

use std::time::{Duration, Instant};

use edm_common::metric::{Euclidean, Metric};
use edm_common::point::DenseVector;
use edm_core::EngineStats;
use edm_serve::{EdmServer, Published};

use crate::oracle::Engine;
use crate::outcome::Outcome;
use crate::report::Metrics;
use crate::sched::{ns_since, wait_until, DueIndex, Schedule, SPIN_MARGIN};
use crate::trace::{span, Layers, Span, Tracer};

/// Command-line knobs of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Seed every generator and probe order derives from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// What a workload hands back.
pub struct RunOutput {
    /// Attempted / failed operations, oracle checks included.
    pub outcome: Outcome,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Recorded spans per thread (traced runs only).
    pub spans: Vec<(&'static str, Vec<Span>)>,
}

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 2] = ["sds_serve", "net_monitor"];

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, args: RunArgs) -> Option<Result<RunOutput, String>> {
    Some(match name {
        "sds_serve" => sds_serve::run(args),
        "net_monitor" => net_monitor::run(args),
        _ => return None,
    })
}

/// Runs `setup` `n` times on what `prepare` hands it, returning the last
/// result and every set-up's wall seconds; only `setup` is timed. Earlier
/// results are dropped (servers shut down) before the next set-up starts.
/// `setup_s` is the median over a run's set-ups; the workloads spread them
/// over the run, because the reference host's speed shifts over seconds
/// and set-ups taken at one moment all share its state.
pub fn repeat_setup<U, T>(
    n: usize,
    mut prepare: impl FnMut() -> U,
    mut setup: impl FnMut(U) -> T,
) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let input = prepare();
        let t0 = Instant::now();
        last = Some(setup(input));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Samples how fresh the published view is, from a reader's schedule.
///
/// Staleness: now minus the due time of the newest point the latest
/// snapshot reflects. Update latency: for each newly observed snapshot,
/// its publication instant (`now − age`) minus the due time of the newest
/// batch it reflects — due time to visible, queue wait and publish
/// included.
pub struct Freshness<'a> {
    due: &'a DueIndex,
    start: Instant,
    last_as_of: f64,
    /// Staleness samples, ms.
    pub staleness_ms: Vec<f64>,
    /// Update latency samples, µs.
    pub update_us: Vec<f64>,
}

impl<'a> Freshness<'a> {
    /// A sampler against `due`, whose offsets count from `start`.
    pub fn new(due: &'a DueIndex, start: Instant) -> Self {
        Freshness {
            due,
            start,
            last_as_of: f64::NEG_INFINITY,
            staleness_ms: Vec::new(),
            update_us: Vec::new(),
        }
    }

    /// Takes one sample off `snap`, the latest published view.
    pub fn sample(&mut self, snap: &Published<DenseVector>) {
        let now = Instant::now();
        let as_of = snap.as_of();
        if let Some(ns) = self.due.staleness_ns(as_of, ns_since(self.start, now)) {
            self.staleness_ms.push(ns as f64 / 1e6);
        }
        if as_of > self.last_as_of {
            self.last_as_of = as_of;
            if let Some(b) = self.due.newest_visible(as_of) {
                let published = now.checked_sub(snap.age()).unwrap_or(now);
                let visible_ns = ns_since(self.start, published);
                self.update_us.push(visible_ns.saturating_sub(self.due.due_ns(b)) as f64 / 1e3);
            }
        }
    }
}

/// Give up waiting for the last batch to become visible after this long.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// What the open-loop producer measured.
pub struct Produced {
    /// How late each send was behind its due time, µs.
    pub lateness_us: Vec<f64>,
    /// When the last batch became visible in the published snapshot.
    pub visible_at: Instant,
    /// Per-batch `bench.tick` / `queue.ingest` spans (traced runs only).
    pub spans: Vec<Span>,
}

/// The open-loop producer of the serving workloads: offers batch `b` to
/// `server` at `schedule.due(b)` (cloned beforehand, so only the wait and
/// `EdmServer::ingest` follow the due time), then waits until the last
/// batch is visible in the published snapshot.
pub fn produce(
    server: &EdmServer<DenseVector, Euclidean>,
    batches: &[Vec<(DenseVector, f64)>],
    schedule: Schedule,
    epoch: Option<Instant>,
    outcome: &mut Outcome,
) -> Produced {
    let mut tr = epoch.map(Tracer::new);
    let mut lateness_us = Vec::with_capacity(batches.len());
    for (b, batch) in batches.iter().enumerate() {
        let batch = batch.clone();
        lateness_us.push(wait_until(schedule.due(b as u64), SPIN_MARGIN).as_nanos() as f64 / 1e3);
        let tick = tr.as_mut().map(|t| t.open("bench.tick", b as u64));
        let sent = span(&mut tr, "queue.ingest", b as u64, || server.ingest(batch));
        if let (Some(t), Some(id)) = (tr.as_mut(), tick) {
            t.close(id);
        }
        match sent {
            Ok(()) => outcome.ok(),
            Err(e) => outcome.fail(format!("ingest of batch {b} refused: {e}")),
        }
    }
    let t_end = batches.last().and_then(|b| b.last()).map_or(0.0, |p| p.1);
    let handle = server.handle();
    let waited = Instant::now();
    while handle.latest().as_of() < t_end && waited.elapsed() < DRAIN_TIMEOUT {
        std::thread::sleep(Duration::from_micros(20));
    }
    Produced {
        lateness_us,
        visible_at: Instant::now(),
        spans: tr.map(Tracer::into_spans).unwrap_or_default(),
    }
}

/// Inserts `points` one `insert` call at a time, recording each call as a
/// span named by what it did — read off the engine's counters before and
/// after: `ingest.init` (initialization buffer), `tau.tick` / `maintain.tick`
/// (the call landed on the τ / maintenance cadence), `ingest.activation`,
/// `ingest.birth`, else `ingest.absorb`. The engine's own
/// `dep_update_nanos` delta becomes a `dep.update` child span, so insert
/// self times exclude Theorem-1/2 dependency maintenance. Returns the
/// largest cell count seen.
pub fn traced_inserts(
    e: &mut Engine,
    points: &[(DenseVector, f64)],
    tr: &mut Tracer,
    req0: u64,
) -> usize {
    let every_m = e.config().maintenance_every();
    let every_t = e.config().tau_every();
    let mut peak = e.n_cells();
    for (i, (p, t)) in points.iter().enumerate() {
        let was_init = e.is_initialized();
        let s = e.stats();
        let (births, activations, dep_ns) = (s.new_cells, s.activations, s.dep_update_nanos);
        let start = tr.now();
        e.insert(p, *t);
        let end = tr.now();
        let s = e.stats();
        let n = s.points;
        let name = if !was_init {
            "ingest.init"
        } else if n.is_multiple_of(every_t) {
            "tau.tick"
        } else if n.is_multiple_of(every_m) {
            "maintain.tick"
        } else if s.activations > activations {
            "ingest.activation"
        } else if s.new_cells > births {
            "ingest.birth"
        } else {
            "ingest.absorb"
        };
        let req = req0 + i as u64;
        let id = tr.record(name, req, start, end, None);
        let dep = s.dep_update_nanos - dep_ns;
        if dep > 0 {
            tr.record("dep.update", req, start, (start + dep).min(end), Some(id));
        }
        peak = peak.max(e.n_cells());
    }
    peak
}

/// Times `Metric::dist` over consecutive pairs of `points` in blocks of
/// 256 calls, one `kernel.dist` span per block, and returns the median
/// per-call time in ns.
pub fn kernel_dist(points: &[DenseVector], tr: &mut Tracer) -> f64 {
    const BLOCK: usize = 256;
    let mut per_call = Vec::new();
    let mut sink = 0.0;
    for (b, block) in points.windows(2).collect::<Vec<_>>().chunks(BLOCK).enumerate() {
        if block.len() < BLOCK {
            break;
        }
        let start = tr.now();
        for w in block {
            sink += Euclidean.dist(std::hint::black_box(&w[0]), std::hint::black_box(&w[1]));
        }
        let end = tr.now();
        tr.record("kernel.dist", b as u64, start, end, None);
        per_call.push((end - start) as f64 / BLOCK as f64);
    }
    std::hint::black_box(sink);
    per_call.sort_unstable_by(f64::total_cmp);
    if per_call.is_empty() {
        0.0
    } else {
        crate::stats::median(&per_call)
    }
}

/// The counters [`engine_layer_metrics`] reads, as `after − before`: what
/// one engine did between two snapshots of its stats.
pub fn stats_delta(after: &EngineStats, before: &EngineStats) -> EngineStats {
    EngineStats {
        points: after.points - before.points,
        index_probed: after.index_probed - before.index_probed,
        index_pruned: after.index_pruned - before.index_pruned,
        index_switches: after.index_switches - before.index_switches,
        grid_rebuilds: after.grid_rebuilds - before.grid_rebuilds,
        dep_update_nanos: after.dep_update_nanos - before.dep_update_nanos,
        dep_candidates: after.dep_candidates - before.dep_candidates,
        filtered_density: after.filtered_density - before.filtered_density,
        filtered_triangle: after.filtered_triangle - before.filtered_triangle,
        dep_recomputes: after.dep_recomputes - before.dep_recomputes,
        recycled: after.recycled - before.recycled,
        activations: after.activations - before.activations,
        deactivations: after.deactivations - before.deactivations,
        events: after.events - before.events,
        ..EngineStats::default()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Sets the engine-side per-layer metrics: the ingest, index, dependency
/// and maintenance counters of `s` plus the per-point span self times of
/// `layers` (from [`traced_inserts`]).
pub fn engine_layer_metrics(m: &mut Metrics, s: &EngineStats, layers: &Layers, cells_peak: usize) {
    let p50 = |layer: &str| {
        (layers.p50(layer), format!("p50 self time of {} calls", layers.count(layer)))
    };
    for (metric, layer) in [
        ("ingest.absorb_ns", "ingest.absorb"),
        ("ingest.birth_ns", "ingest.birth"),
        ("ingest.activation_ns", "ingest.activation"),
        ("maintain.tick_ns", "maintain.tick"),
        ("tau.tick_ns", "tau.tick"),
    ] {
        let (v, note) = p50(layer);
        m.set(metric, v, note);
    }
    m.set("ingest.probes_per_point", ratio(s.index_probed, s.points), "index_probed / points");
    m.set(
        "ingest.prune_ratio",
        ratio(s.index_pruned, s.index_probed + s.index_pruned),
        "index_pruned / (index_probed + index_pruned)",
    );
    m.set("index.switches", s.index_switches as f64, "EngineStats::index_switches");
    m.set("index.grid_rebuilds", s.grid_rebuilds as f64, "EngineStats::grid_rebuilds");
    m.set("dep.ns_per_point", ratio(s.dep_update_nanos, s.points), "dep_update_nanos / points");
    m.set(
        "dep.filter_ratio",
        ratio(s.filtered_density + s.filtered_triangle, s.dep_candidates),
        "(filtered_density + filtered_triangle) / dep_candidates",
    );
    m.set("dep.recomputes", s.dep_recomputes as f64, "EngineStats::dep_recomputes");
    m.set("maintain.recycled", s.recycled as f64, "EngineStats::recycled");
    m.set("maintain.activations", s.activations as f64, "EngineStats::activations");
    m.set("maintain.deactivations", s.deactivations as f64, "EngineStats::deactivations");
    m.set("maintain.cells_peak", cells_peak as f64, "largest n_cells() after any insert");
    m.set("evolve.events", s.events as f64, "EngineStats::events");
}

/// Sets `trace.coverage` from `layers`.
pub fn set_coverage(m: &mut Metrics, layers: &Layers) {
    m.set(
        "trace.coverage",
        layers.coverage(),
        format!(
            "layer self time {:.3} s of traced wall {:.3} s",
            layers.layer_total as f64 / 1e9,
            layers.root_total as f64 / 1e9
        ),
    );
}

/// Purity of `preds` against `truth`, with the contingency's object count.
pub fn purity(preds: &[Option<usize>], truth: &[Option<u32>]) -> (f64, u64) {
    let c = edm_metrics::external::Contingency::new(preds, truth);
    (edm_metrics::external::purity(&c), c.n)
}
