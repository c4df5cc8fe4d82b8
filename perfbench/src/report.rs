//! Metric names, the end-to-end reduction, and the result line.

use std::collections::BTreeMap;

use crate::outcome::Outcome;
use crate::stats::Summary;

/// End-to-end metrics `(name, unit)`, printed by every untraced run. The
/// same list, with bounds, is `end_to_end` in `BENCHMARK.json`. Runs also
/// print `update_p90_us`, `query_p50_us`, `query_p90_us`, `error_rate` and
/// `gen.lateness_p99_us` as human-readable lines; they are not gated (see
/// the README).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ingest_pts_per_s", "pts/s"),
    ("update_p50_us", "us"),
    ("staleness_p50_ms", "ms"),
    ("staleness_p90_ms", "ms"),
    ("queries_per_s", "q/s"),
    ("purity", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. The same
/// list is `per_layer` in `BENCHMARK.json`. A layer a workload does not
/// pass through reports 0 (and `n/a` in the human-readable lines).
pub const PER_LAYER: [(&str, &str); 44] = [
    ("ingest.absorb_ns", "ns"),
    ("ingest.birth_ns", "ns"),
    ("ingest.activation_ns", "ns"),
    ("ingest.probes_per_point", "count"),
    ("ingest.prune_ratio", "ratio"),
    ("index.switches", "count"),
    ("index.grid_rebuilds", "count"),
    ("kernel.dist_ns", "ns"),
    ("dep.ns_per_point", "ns"),
    ("dep.filter_ratio", "ratio"),
    ("dep.recomputes", "count"),
    ("maintain.tick_ns", "ns"),
    ("tau.tick_ns", "ns"),
    ("maintain.recycled", "count"),
    ("maintain.activations", "count"),
    ("maintain.deactivations", "count"),
    ("maintain.cells_peak", "count"),
    ("parallel.round_ns", "ns"),
    ("parallel.revalidation_ratio", "ratio"),
    ("pool.rounds", "count"),
    ("evolve.events", "count"),
    ("evolve.digest_ns", "ns"),
    ("publish.freeze_ns", "ns"),
    ("publish.members", "count"),
    ("assign.ns", "ns"),
    ("swap.load_ns", "ns"),
    ("execute.cluster_of_ns", "ns"),
    ("execute.n_clusters_ns", "ns"),
    ("execute.stats_ns", "ns"),
    ("queue.ingest_wait_ns", "ns"),
    ("queue.depth_hwm", "count"),
    ("queue.dropped", "count"),
    ("queue.rejected", "count"),
    ("wire.encode_query_ns", "ns"),
    ("wire.decode_query_ns", "ns"),
    ("wire.encode_result_ns", "ns"),
    ("wire.decode_result_ns", "ns"),
    ("wire.request_bytes", "bytes"),
    ("wire.response_bytes", "bytes"),
    ("net.rtt_ns", "ns"),
    ("net.socket_ns", "ns"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("gen.lateness_p99_us", "us"),
];

/// Measured values by metric name, each with a human-readable note
/// (sample count, percentile, definition) for the report lines.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.values.insert(name, (value, note.into()));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// Human-readable lines for the metrics in `defs`, plus any extras.
    pub fn lines(&self, defs: &[(&str, &str)]) -> Vec<String> {
        let mut out: Vec<String> = defs
            .iter()
            .map(|(name, unit)| match self.values.get(name) {
                Some((v, note)) => format!("metric {name} = {v} {unit}  ({note})"),
                None => format!("metric {name} = n/a (layer not on this workload's path)"),
            })
            .collect();
        for (name, (v, note)) in &self.values {
            if !defs.iter().any(|(n, _)| n == name) {
                out.push(format!("metric {name} = {v}  ({note})"));
            }
        }
        out
    }
}

/// The raw samples an untraced run collects, split into trials (an
/// `sds_serve` lap, a `net_monitor` window);
/// [`E2e::reduce`] turns them into the end-to-end metrics.
#[derive(Debug, Default)]
pub struct E2e {
    /// Seconds per repeated set-up.
    pub setup_s: Vec<f64>,
    /// Points committed in the measured window.
    pub ingest_points: u64,
    /// Wall seconds from first batch to the last one committed and visible.
    pub ingest_wall_s: f64,
    /// Per-batch update latency samples, µs.
    pub update_us: Vec<f64>,
    /// How the update latency was taken (for the report).
    pub update_how: &'static str,
    /// Staleness samples, ms.
    pub staleness_ms: Vec<f64>,
    /// How staleness was sampled (for the report).
    pub staleness_how: &'static str,
    /// Per-query latency samples, µs.
    pub query_us: Vec<f64>,
    /// How query latency was timed (for the report).
    pub query_how: &'static str,
    /// Queries completed.
    pub queries: u64,
    /// Wall seconds the query loop ran.
    pub query_wall_s: f64,
    /// Queries per second of each trial; `queries_per_s` is their median.
    pub query_rates: Vec<f64>,
    /// Purity of `cluster_of` answers against the generator's labels.
    pub purity: f64,
    /// Open-loop generator lateness samples, µs.
    pub lateness_us: Vec<f64>,
    /// End offsets into `update_us`, `staleness_ms` and `query_us` of each
    /// closed trial.
    pub trial_ends: Vec<[usize; 3]>,
    /// `VmHWM` when the measured workload ended, MB, for a workload that
    /// times set-ups after it; `None` reads it in [`E2e::reduce`].
    pub peak_rss_mb: Option<f64>,
}

/// Trials with fewer samples than this are left out of the per-trial
/// medians (their p90 would have fewer than 10 samples beyond it).
const MIN_TRIAL_SAMPLES: usize = 100;

/// A latency reduced per trial: the median across trials of each trial's
/// p50 and p90, with the pooled sample's summary for the report.
struct PerTrial {
    p50: f64,
    p90: f64,
    trials: usize,
    pooled: Summary,
}

impl PerTrial {
    fn of(samples: &[f64], ends: &[usize], what: &str) -> Result<PerTrial, String> {
        let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
        let mut start = 0;
        for &end in ends.iter().chain(std::iter::once(&samples.len())) {
            let mut t = samples[start..end.max(start)].to_vec();
            start = end.max(start);
            if t.len() < MIN_TRIAL_SAMPLES {
                continue;
            }
            t.sort_unstable_by(f64::total_cmp);
            p50s.push(crate::stats::median(&t));
            p90s.push(crate::stats::percentile(&t, 9_000));
        }
        let pooled =
            Summary::of(&mut samples.to_vec()).ok_or_else(|| format!("no {what} samples"))?;
        if p50s.is_empty() {
            return Err(format!("no trial holds {MIN_TRIAL_SAMPLES} {what} samples"));
        }
        p50s.sort_unstable_by(f64::total_cmp);
        p90s.sort_unstable_by(f64::total_cmp);
        let trials = p50s.len();
        Ok(PerTrial {
            p50: crate::stats::median(&p50s),
            p90: crate::stats::median(&p90s),
            trials,
            pooled,
        })
    }

    fn note(&self, how: &str) -> String {
        let s = &self.pooled;
        let support = if s.p99_supported() { "" } else { " (<10 samples beyond it)" };
        let tail = match s.tail_bp {
            Some(bp) => format!(", highest supported p{} = {}", bp as f64 / 100.0, s.tail),
            None => String::new(),
        };
        format!(
            "{how}; median over {} trials of per-trial values; pooled n={}, p50={}, p99={}{support}{tail}",
            self.trials, s.n, s.median, s.p99
        )
    }
}

impl E2e {
    /// Closes the current trial at the samples recorded so far.
    pub fn end_trial(&mut self) {
        self.trial_ends.push([self.update_us.len(), self.staleness_ms.len(), self.query_us.len()]);
    }

    /// Reduces the samples to the end-to-end metrics plus `error_rate`,
    /// which travels as the result line's `failed`/`attempted`.
    pub fn reduce(mut self, outcome: &Outcome) -> Result<Metrics, String> {
        let mut m = Metrics::default();
        let setup = Summary::of(&mut self.setup_s).ok_or("no set-up was timed")?;
        m.set("setup_s", setup.median, format!("median of {} set-ups", setup.n));
        if self.ingest_wall_s <= 0.0 || self.ingest_points == 0 {
            return Err("no ingest was measured".into());
        }
        m.set(
            "ingest_pts_per_s",
            self.ingest_points as f64 / self.ingest_wall_s,
            format!("{} points in {:.3} s", self.ingest_points, self.ingest_wall_s),
        );
        let ends = |k: usize| self.trial_ends.iter().map(|e| e[k]).collect::<Vec<_>>();
        for (k, samples, how, what, p50, p90) in [
            (
                0,
                &self.update_us,
                self.update_how,
                "update latency",
                "update_p50_us",
                "update_p90_us",
            ),
            (
                1,
                &self.staleness_ms,
                self.staleness_how,
                "staleness",
                "staleness_p50_ms",
                "staleness_p90_ms",
            ),
            (2, &self.query_us, self.query_how, "query latency", "query_p50_us", "query_p90_us"),
        ] {
            let t = PerTrial::of(samples, &ends(k), what)?;
            let note = t.note(how);
            m.set(p50, t.p50, note.clone());
            m.set(p90, t.p90, note);
        }
        let rates = Summary::of(&mut self.query_rates).ok_or("no query trial was measured")?;
        m.set(
            "queries_per_s",
            rates.median,
            format!(
                "median over {} trials of per-trial rates; pooled {} queries in {:.3} s",
                rates.n, self.queries, self.query_wall_s
            ),
        );
        m.set("purity", self.purity, "edm_metrics::external::purity of cluster_of answers");
        let rss = self.peak_rss_mb.or_else(crate::host::peak_rss_mb).ok_or("VmHWM unavailable")?;
        m.set("peak_rss_mb", rss, "VmHWM at the end of the workload");
        m.set(
            "error_rate",
            outcome.error_rate(),
            format!("{} failed of {} attempted", outcome.failed, outcome.attempted),
        );
        if let Some(late) = Summary::of(&mut self.lateness_us) {
            m.set("gen.lateness_p99_us", late.p99, format!("open-loop generators, n={}", late.n));
        }
        Ok(m)
    }
}

/// Formats a finite number for JSON with all its digits.
fn json_number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `defs` (a missing one is
/// an error when `required`, else reported as 0).
pub fn result_line(
    outcome: &Outcome,
    metrics: &Metrics,
    defs: &[(&str, &str)],
    required: bool,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for (name, unit) in defs {
        let value = match metrics.get(name) {
            Some(v) => v,
            None if required => return Err(format!("metric {name} was not measured")),
            None => 0.0,
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)?
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    ))
}
