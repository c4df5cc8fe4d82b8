//! Criterion bench for the Fig 11 ablation: dependency maintenance with
//! wf / df / df+tif filter configurations on the same stream.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use edm_bench::catalog::{self, DatasetId};
use edm_common::metric::Euclidean;
use edm_core::{EdmStream, FilterConfig};

fn bench_filters(c: &mut Criterion) {
    let ds = catalog::load(DatasetId::Kdd, 0.01, 1_000.0);
    let mut group = c.benchmark_group("filters_kdd");
    group.sample_size(10);
    for filters in [FilterConfig::none(), FilterConfig::density_only(), FilterConfig::all()] {
        let cfg = ds.edm.to_builder().filters(filters).build().unwrap();
        group.bench_function(filters.label(), |b| {
            b.iter_batched(
                || EdmStream::new(cfg.clone(), Euclidean),
                |mut e| {
                    for p in ds.stream.iter() {
                        e.insert(&p.payload, p.ts);
                    }
                    e
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_filters);
criterion_main!(benches);
