//! Self-tests of the benchmark's own arithmetic: percentiles, the
//! `as_of` → staleness conversion, span self times and coverage, and the
//! error accounting that turns a wrong answer into a failed run.

use edm_common::metric::Euclidean;
use edm_common::point::DenseVector;
use edm_core::EdmConfig;
use edm_perfbench::oracle::{compare, fingerprint, Engine};
use edm_perfbench::outcome::Outcome;
use edm_perfbench::report::{result_line, Metrics, END_TO_END, PER_LAYER};
use edm_perfbench::sched::DueIndex;
use edm_perfbench::stats::{beyond, median, percentile, rank, supports, Summary};
use edm_perfbench::trace::{self_times, Layers, Span, Tracer, NO_PARENT};

#[test]
fn percentile_ranks_are_exact_nearest_ranks() {
    assert_eq!(rank(1000, 9_900), 990);
    assert_eq!(beyond(1000, 9_900), 10);
    assert!(supports(1000, 9_900));
    assert!(!supports(999, 9_900), "999 samples leave only 9 beyond p99");
    assert_eq!(rank(1, 9_900), 1);
    let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 9_900), 990.0);
    assert_eq!(percentile(&sorted, 5_000), 500.0);
    assert_eq!(median(&sorted), 500.5);
    assert_eq!(median(&[1.0, 2.0, 7.0]), 2.0);
}

#[test]
fn summary_reports_median_and_the_highest_supported_percentile() {
    let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let s = Summary::of(&mut v).expect("non-empty");
    assert_eq!((s.n, s.median, s.p99), (1000, 500.5, 990.0));
    assert_eq!(s.tail_bp, Some(9_900));
    assert!(s.p99_supported());

    let mut v: Vec<f64> = (1..=999).map(f64::from).collect();
    let s = Summary::of(&mut v).expect("non-empty");
    assert_eq!(s.tail_bp, Some(9_500), "p99 lacks 10 samples beyond it at n=999");
    assert!(!s.p99_supported());

    let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(Summary::of(&mut v).expect("non-empty").tail_bp, Some(5_000));
    let mut v: Vec<f64> = (1..=11).map(f64::from).collect();
    assert_eq!(Summary::of(&mut v).expect("non-empty").tail_bp, None);
    assert!(Summary::of(&mut []).is_none());
}

#[test]
fn staleness_counts_from_the_due_time_of_the_newest_visible_batch() {
    let due = DueIndex::new(vec![0.1, 0.2, 0.3], vec![0, 1_000, 2_000]);
    assert_eq!(due.newest_visible(0.05), None, "nothing committed yet");
    assert_eq!(due.staleness_ns(0.05, 9_999), None);
    assert_eq!(due.newest_visible(0.2), Some(1));
    assert_eq!(due.staleness_ns(0.2, 5_000), Some(4_000));
    assert_eq!(due.newest_visible(0.25), Some(1), "a partial batch is never visible");
    assert_eq!(due.staleness_ns(0.3, 2_500), Some(500));
    assert_eq!(due.staleness_ns(0.3, 1_500), Some(0), "never negative");
}

fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
    Span { id, parent, name, req: 0, start, end }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span(0, NO_PARENT, "bench.root", 0, 100),
        span(1, 0, "a", 10, 40),
        span(2, 0, "b", 30, 60), // overlaps a: the union is [10, 60]
        span(3, 1, "c", 15, 20),
        span(4, 0, "d", 90, 130), // clipped to the parent's interval
    ];
    assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 40]);
    let mut layers = Layers::default();
    layers.add(&spans);
    assert_eq!(layers.root_total, 100);
    assert_eq!(layers.layer_total, 25 + 30 + 5 + 40);
    assert!((layers.coverage() - 1.0).abs() < 1e-12);
    assert_eq!(layers.p50("a"), 25.0);
    assert_eq!(layers.count("missing"), 0);
    assert_eq!(layers.p50("missing"), 0.0);
}

#[test]
fn tracer_nests_spans_and_coverage_excludes_glue() {
    let mut tr = Tracer::new(std::time::Instant::now());
    let root = tr.open("bench.root", 0);
    let inner = tr.open("layer", 1);
    let t = tr.now();
    tr.record("child", 1, t, t, None);
    tr.close(inner);
    tr.close(root);
    let spans = tr.into_spans();
    assert_eq!(spans[1].parent, 0);
    assert_eq!(spans[2].parent, 1);
    let mut layers = Layers::default();
    layers.add(&spans);
    let own = self_times(&spans);
    assert_eq!(layers.layer_total, own[1] + own[2]);
    assert!(layers.coverage() <= 1.0);
}

fn small_engine(points: &[(f64, f64)]) -> Engine {
    let cfg = EdmConfig::builder(0.5)
        .rate(100.0)
        .beta_for_threshold(3.0)
        .init_points(8)
        .build()
        .expect("valid test configuration");
    let mut e = Engine::new(cfg, Euclidean);
    for (i, &(x, y)) in points.iter().enumerate() {
        e.insert(&DenseVector::from([x, y]), i as f64 / 100.0);
    }
    e
}

#[test]
fn an_injected_wrong_answer_fails_the_run() {
    let stream: Vec<(f64, f64)> =
        (0..64).map(|i| (f64::from(i % 2) * 6.0, 0.1 * f64::from(i % 4))).collect();
    let t = 0.64;
    let mut a = small_engine(&stream);
    let mut b = small_engine(&stream);
    assert_eq!(compare(&fingerprint(&mut a, t), &fingerprint(&mut b, t)), Ok(()));

    // One point moved far from both groups: it founds a cell of its own.
    let mut wrong = stream.clone();
    wrong[40] = (20.0, 20.0);
    let mut c = small_engine(&stream);
    let mut d = small_engine(&wrong);
    let verdict = compare(&fingerprint(&mut c, t), &fingerprint(&mut d, t));
    assert!(verdict.is_err(), "a perturbed stream must not pass the oracle");

    let mut outcome = Outcome::default();
    outcome.ok_n(99);
    outcome.check(verdict.is_ok(), || format!("oracle: {verdict:?}"));
    assert_eq!((outcome.attempted, outcome.failed), (100, 1));
    assert!((outcome.error_rate() - 0.01).abs() < 1e-12);
    assert!(!outcome.correct());
    assert_eq!(outcome.messages.len(), 1);

    let line =
        result_line(&outcome, &Metrics::default(), &PER_LAYER, false).expect("optional metrics");
    assert!(
        line.starts_with("{\"correct\": false, \"attempted\": 100, \"failed\": 1, \"metrics\": {")
    );
    assert!(
        result_line(&outcome, &Metrics::default(), &END_TO_END, true).is_err(),
        "an untraced result must carry every end-to-end metric"
    );
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed: Vec<&str> = edm_perfbench::workloads::NAMES
        .into_iter()
        .filter(|w| json.contains(&format!("\"name\": \"{w}\", \"why\"")))
        .collect();
    assert_eq!(listed, edm_perfbench::workloads::NAMES, "every workload is listed");
    let names = json.matches("\"name\":").count();
    assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + listed.len());
}
