//! Ablation benches for two of the engine's design choices:
//!
//! * adaptive vs static τ (does the re-optimization cadence cost anything?)
//! * cell radius r (granularity vs per-point cost — Fig 17's microscopic view)

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use edm_bench::catalog::{self, DatasetId};
use edm_common::metric::Euclidean;
use edm_core::{EdmStream, TauMode};

fn run_stream(cfg: edm_core::EdmConfig, ds: &catalog::Dataset) -> usize {
    let mut e = EdmStream::new(cfg, Euclidean);
    for p in ds.stream.iter() {
        e.insert(&p.payload, p.ts);
    }
    e.n_cells()
}

fn bench_ablations(c: &mut Criterion) {
    let ds = catalog::load(DatasetId::Pamap2, 0.01, 1_000.0);

    let mut group = c.benchmark_group("ablation_tau_mode");
    group.sample_size(10);
    for (label, mode) in
        [("adaptive", TauMode::Adaptive { alpha: None }), ("static", TauMode::Static(5.0))]
    {
        let cfg = ds.edm.to_builder().tau_mode(mode).build().unwrap();
        group.bench_function(label, |b| {
            b.iter_batched(|| cfg.clone(), |cfg| run_stream(cfg, &ds), BatchSize::SmallInput)
        });
    }
    group.finish();

    let mut group = c.benchmark_group("ablation_radius");
    group.sample_size(10);
    for r in [2.5f64, 5.0, 10.0] {
        let cfg = ds.edm.to_builder().r(r).build().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(r), &cfg, |b, cfg| {
            b.iter_batched(|| cfg.clone(), |cfg| run_stream(cfg, &ds), BatchSize::SmallInput)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
