//! In-memory spans recorded around the public calls the benchmark makes.
//!
//! A span has a name (its layer), start and end in nanoseconds after the
//! tracer's epoch, a parent (the span open when it started), and a request
//! id shared by every span of one batch or query. A layer's self time is
//! its span's duration minus the part of it covered by child spans. Spans
//! stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Names starting with this prefix are benchmark glue (roots and phases),
/// not layers of the system under test.
pub const BENCH_PREFIX: &str = "bench.";

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in its tracer.
    pub id: u32,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Layer name.
    pub name: &'static str,
    /// Request (batch or query) id.
    pub req: u64,
    /// Start, nanoseconds after the epoch.
    pub start: u64,
    /// End, nanoseconds after the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A single thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer timing against `epoch` (share one epoch across threads so
    /// their spans line up).
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new(), open: Vec::new() }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn parent(&self) -> u32 {
        self.open.last().copied().unwrap_or(NO_PARENT)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, req: u64) -> u32 {
        let start = self.now();
        let id = self.spans.len() as u32;
        self.spans.push(Span { id, parent: self.parent(), name, req, start, end: start });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: u32) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id as usize].end = end;
    }

    /// Records an already-timed span as a child of the innermost open span
    /// (or of `parent` when given).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        start: u64,
        end: u64,
        parent: Option<u32>,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let parent = parent.unwrap_or_else(|| self.parent());
        self.spans.push(Span { id, parent, name, req, start, end: end.max(start) });
        id
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, req);
        let out = f();
        self.close(id);
        out
    }

    /// Consumes the tracer, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "tracer dropped with open spans");
        self.spans
    }
}

/// Times `f` as a span when a tracer is present; just runs it otherwise.
pub fn span<R>(tr: &mut Option<Tracer>, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.time(name, req, f),
        None => f(),
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.clamp(lo, hi), e.clamp(lo, hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span (index-aligned with `spans`): its duration
/// minus the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration() - covered(kids, s.start, s.end))
        .collect()
}

/// Per-layer self times of a set of tracers' spans.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Self times (ns) of every span, grouped by layer name.
    pub self_ns: BTreeMap<&'static str, Vec<f64>>,
    /// Σ self time of non-glue layers, ns.
    pub layer_total: u64,
    /// Σ duration of root spans, ns (the traced wall time).
    pub root_total: u64,
}

impl Layers {
    /// Accumulates one tracer's spans.
    pub fn add(&mut self, spans: &[Span]) {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            if s.parent == NO_PARENT {
                self.root_total += s.duration();
            }
            if !s.name.starts_with(BENCH_PREFIX) {
                self.layer_total += own;
            }
            self.self_ns.entry(s.name).or_default().push(own as f64);
        }
    }

    /// Σ layer self time ÷ traced wall time (0 with nothing traced).
    pub fn coverage(&self) -> f64 {
        if self.root_total == 0 {
            0.0
        } else {
            self.layer_total as f64 / self.root_total as f64
        }
    }

    /// Median self time of `layer` in ns (0 when the layer never ran).
    pub fn p50(&self, layer: &str) -> f64 {
        self.quantile(layer, 5_000)
    }

    /// The `bp`-basis-point percentile of `layer`'s self times, ns.
    pub fn quantile(&self, layer: &str, bp: u32) -> f64 {
        match self.self_ns.get(layer) {
            Some(v) if !v.is_empty() => {
                let mut v = v.clone();
                v.sort_unstable_by(f64::total_cmp);
                if bp == 5_000 {
                    crate::stats::median(&v)
                } else {
                    crate::stats::percentile(&v, bp)
                }
            }
            _ => 0.0,
        }
    }

    /// Number of spans of `layer`.
    pub fn count(&self, layer: &str) -> usize {
        self.self_ns.get(layer).map_or(0, Vec::len)
    }
}

/// Writes every tracer's spans as tab-separated lines
/// (`thread id parent name req start_ns end_ns`) to `path`.
pub fn write_spans(
    path: &std::path::Path,
    header: &str,
    threads: &[(&str, &[Span])],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# {header}")?;
    writeln!(out, "thread\tid\tparent\tname\treq\tstart_ns\tend_ns")?;
    for (thread, spans) in threads {
        for s in spans.iter() {
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            writeln!(
                out,
                "{thread}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.name, s.req, s.start, s.end
            )?;
        }
    }
    out.flush()
}
