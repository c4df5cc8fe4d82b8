//! Criterion bench: per-point insert latency vs. live cell count, linear
//! scan vs. uniform-grid vs. cover-tree neighbor index.
//!
//! Three scenarios:
//!
//! * **`index_scaling_insert`** isolates the assignment path (the
//!   per-point cost the paper's §6.3 throughput claims rest on): a large,
//!   well-separated reservoir of inactive cells with a steady stream of
//!   points absorbed by a small working set — no activations, no
//!   dependency churn. The linear scan touches every cell per insert, so
//!   its latency grows with the slab; the grid probes only the 3^d bucket
//!   shell and stays flat.
//! * **`index_scaling_active_absorb`** exercises the *dependency
//!   maintenance* regime instead: a fixed set of active cells taking all
//!   the traffic (every insert runs the Theorem 1/2 candidate pass) while
//!   the reservoir grows in the background. The active-cell registry
//!   keeps the candidate pass proportional to the tree, so this must also
//!   stay flat as the reservoir scales.
//! * **`index_scaling_highd`** is the regime the ROADMAP's k-NN item
//!   names: d ∈ {16, 51} with r-separated seeds *clustered* dozens to an
//!   r-cube (how high-dimensional data actually packs), absorb traffic
//!   into a large active set so the §4.3 nearest-denser recomputation
//!   fires constantly. Here the grid's 3^d shell enumeration is
//!   impossible and every query falls back to the occupied-bucket sweep
//!   plus full crowded-bucket scans; the cover tree prunes by measured
//!   distances instead and must beat the grid ≥ 2× at d = 51 (the PR 5
//!   acceptance bar, recorded in `BENCH_ingest.json` for the
//!   bench-regression CI gate to check).
//!
//! Expected shape: `linear/8192` ≈ 4× `linear/2048` (linear in cells)
//! while `grid/8192` ≈ `grid/2048`, with grid ≥ 3× faster than linear
//! from 2048 cells on; `active_absorb` flat in reservoir size for both
//! index kinds.
//!
//! The grid series also prices the query-path allocation removal (PR 4):
//! replacing the per-probe bucket-key allocations (`Box<[i64]>` from
//! `key_of`, two `Vec`s per shell walk) with per-thread reusable scratch
//! buffers cut `index_scaling_insert/grid` min latency from ~0.034 to
//! ~0.029 ms per 200 inserts (~15%) on the reference container.

use std::path::Path;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edm_bench::report::merge_bench_json;
use edm_common::metric::Euclidean;
use edm_common::point::DenseVector;
use edm_core::index::NeighborIndexKind;
use edm_core::{EdmConfig, EdmStream};

/// Points inserted per timed sample — smooths timer resolution.
const BATCH: usize = 200;

/// Builds an engine holding `n_cells` well-separated reservoir cells.
///
/// Spacing 2.0 with r = 0.5 keeps every seed in its own grid bucket; the
/// activation threshold is far above anything the bench feeds, so the
/// population is stable and the measurement is pure assignment cost.
fn seeded_engine(
    kind: NeighborIndexKind,
    n_cells: usize,
) -> (EdmStream<DenseVector, Euclidean>, f64) {
    let cfg = EdmConfig::builder(0.5)
        .rate(1_000.0)
        .beta_for_threshold(1e5)
        .age_adjusted_threshold(false)
        .init_points(1)
        .tau_every(1 << 40)
        .maintenance_every(1 << 40)
        .recycle_horizon(f64::MAX)
        .track_evolution(false)
        .neighbor_index(kind)
        .build()
        .expect("valid bench configuration");
    let mut e = EdmStream::new(cfg, Euclidean);
    let side = (n_cells as f64).sqrt().ceil() as usize;
    let mut t = 0.0;
    let mut made = 0;
    'outer: for gy in 0..side {
        for gx in 0..side {
            t += 1e-4;
            e.insert(&DenseVector::from([gx as f64 * 2.0, gy as f64 * 2.0]), t);
            made += 1;
            if made == n_cells {
                break 'outer;
            }
        }
    }
    assert_eq!(e.n_cells(), n_cells, "every seed must found its own cell");
    (e, t)
}

fn bench_index_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_scaling_insert");
    group.sample_size(30);
    for &n_cells in &[512usize, 2_048, 8_192] {
        for (label, kind) in
            [("linear", NeighborIndexKind::LinearScan), ("grid", NeighborIndexKind::Grid)]
        {
            let (mut e, mut t) = seeded_engine(kind, n_cells);
            // Probes cycle over a small working set of existing cell
            // sites (jittered within r): always absorbed, never a new
            // cell, so the population stays fixed at n_cells.
            let probes: Vec<DenseVector> = (0..64)
                .map(|i| {
                    let jitter = (i % 5) as f64 * 0.05;
                    DenseVector::from([(i % 8) as f64 * 2.0 + jitter, (i / 8) as f64 * 2.0])
                })
                .collect();
            let mut i = 0usize;
            group.bench_function(BenchmarkId::new(label, n_cells), |b| {
                b.iter(|| {
                    for _ in 0..BATCH {
                        t += 1e-5;
                        e.insert(&probes[i % probes.len()], t);
                        i += 1;
                    }
                })
            });
            assert_eq!(e.n_cells(), n_cells, "bench stream must not create cells");
        }
    }
    group.finish();
}

/// Dependency-maintenance regime: absorbs into a fixed active set while
/// the inactive reservoir scales. Flat latency here means the candidate
/// pass walks the tree, not the slab.
fn bench_active_absorb(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_scaling_active_absorb");
    group.sample_size(30);
    for &n_reservoir in &[512usize, 2_048, 8_192] {
        for (label, kind) in
            [("linear", NeighborIndexKind::LinearScan), ("grid", NeighborIndexKind::Grid)]
        {
            // Activation threshold ≈ 3 sustained points: the 64 hot sites
            // activate during warmup, the one-point reservoir seeds never
            // do. Decay ~0.2 %/s over the bench's microsecond timestamps
            // keeps the actives comfortably above the threshold.
            let cfg = EdmConfig::builder(0.5)
                .rate(1_000.0)
                .beta_for_threshold(3.0)
                .age_adjusted_threshold(false)
                .init_points(1)
                .tau_every(1 << 40)
                .maintenance_every(1 << 40)
                .recycle_horizon(f64::MAX)
                .track_evolution(false)
                .neighbor_index(kind)
                .build()
                .expect("valid bench configuration");
            let mut e = EdmStream::new(cfg, Euclidean);
            let mut t = 0.0;
            // Reservoir: one-point cells on a far-away lattice.
            let side = (n_reservoir as f64).sqrt().ceil() as usize;
            let mut made = 0;
            'outer: for gy in 0..side {
                for gx in 0..side {
                    t += 1e-4;
                    e.insert(&DenseVector::from([gx as f64 * 2.0, 100.0 + gy as f64 * 2.0]), t);
                    made += 1;
                    if made == n_reservoir {
                        break 'outer;
                    }
                }
            }
            // Hot set: 64 sites fed until active.
            let probes: Vec<DenseVector> = (0..64)
                .map(|i| DenseVector::from([(i % 8) as f64 * 2.0, (i / 8) as f64 * 2.0]))
                .collect();
            for _ in 0..6 {
                for p in &probes {
                    t += 1e-4;
                    e.insert(p, t);
                }
            }
            assert_eq!(e.active_len(), 64, "warmup must activate exactly the hot set");
            let mut i = 0usize;
            group.bench_function(BenchmarkId::new(label, n_reservoir), |b| {
                b.iter(|| {
                    for _ in 0..BATCH {
                        t += 1e-5;
                        e.insert(&probes[i % probes.len()], t);
                        i += 1;
                    }
                })
            });
            assert_eq!(e.active_len(), 64, "bench stream must not change the active set");
        }
    }
    group.finish();
}

// ----- high-dimensional clustered scenario (cover tree vs grid) -----
//
// Scenario generators live in `edm_bench::scenarios` so the
// `bench_regression` CI gate provably re-measures the same workload this
// bench commits to `BENCH_ingest.json`.

use edm_bench::scenarios::{self, HIGHD_HOT_CLUSTERS, HIGHD_PER_CLUSTER};

/// Inserts timed per (d, index) configuration in the JSON emit pass.
const HD_POINTS: usize = 8_192;

const HD_KINDS: [(&str, NeighborIndexKind); 3] = [
    ("linear", NeighborIndexKind::LinearScan),
    ("grid", NeighborIndexKind::Grid),
    ("cover", NeighborIndexKind::CoverTree),
];

fn bench_highd(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_scaling_highd");
    group.sample_size(10);
    for &d in &[16usize, 51] {
        for (label, kind) in HD_KINDS {
            let (mut e, mut t) = scenarios::highd_engine(kind, d);
            let probes = scenarios::highd_probes(d);
            let mut i = 0usize;
            group.bench_function(BenchmarkId::new(label, d), |b| {
                b.iter(|| {
                    for _ in 0..BATCH {
                        t += 1e-5;
                        e.insert(&probes[i % probes.len()], t);
                        i += 1;
                    }
                })
            });
            assert_eq!(e.active_len(), HIGHD_HOT_CLUSTERS * HIGHD_PER_CLUSTER);
        }
    }
    group.finish();
}

/// One timed pass per (d, index), written into the committed
/// `BENCH_ingest.json` — the machine-readable record the bench-regression
/// CI job checks the cover-vs-grid speedup against (and re-measures
/// fresh through the same `scenarios::highd_measure`).
fn emit_highd_json(c: &mut Criterion) {
    let _ = c; // runs as a criterion group member; needs no bencher
    let mut entries: Vec<String> = Vec::new();
    for &d in &[16usize, 51] {
        for (label, kind) in HD_KINDS {
            let (pps, recomputes) = scenarios::highd_measure(kind, d, HD_POINTS);
            assert!(recomputes > 0, "the scenario must drive nearest-denser recomputation");
            entries.push(format!(
                "{{\"d\": {d}, \"index\": \"{label}\", \"points_per_sec\": {pps:.0}, \
                 \"dep_recomputes\": {recomputes}}}"
            ));
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ingest.json");
    merge_bench_json(&path, "index_scaling_highd", &format!("[{}]", entries.join(", ")))
        .expect("write bench json");
    println!("[written {}]", path.display());
}

/// Distance evaluations per second at the two high-d bench
/// dimensionalities, through the naive sequential accumulation the engine
/// shipped before the chunked kernels vs. `Metric::dist` today — the raw
/// per-eval multiplier underneath every `index_scaling_highd` number,
/// recorded so kernel regressions are visible separately from pruning
/// regressions.
fn emit_kernel_json(c: &mut Criterion) {
    let _ = c; // runs as a criterion group member; needs no bencher
    let mut entries: Vec<String> = Vec::new();
    for &d in &[16usize, 51] {
        let (scalar, chunked) = scenarios::kernel_measure(d, KERNEL_EVALS);
        entries.push(format!(
            "{{\"d\": {d}, \"scalar_per_sec\": {scalar:.0}, \"chunked_per_sec\": {chunked:.0}, \
             \"speedup\": {:.2}}}",
            chunked / scalar
        ));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ingest.json");
    merge_bench_json(&path, "kernel", &format!("[{}]", entries.join(", ")))
        .expect("write bench json");
    println!("[written {}]", path.display());
}

/// Distance evaluations timed per (dimensionality, kernel path) in the
/// `kernel` emit pass.
const KERNEL_EVALS: usize = 4_000_000;

criterion_group!(
    benches,
    bench_index_scaling,
    bench_active_absorb,
    bench_highd,
    emit_highd_json,
    emit_kernel_json
);
criterion_main!(benches);
