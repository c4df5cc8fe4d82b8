//! Criterion micro-bench: EDMStream per-point insert latency on each
//! dataset surrogate (the microscopic view of paper Fig 9).
//!
//! Besides the criterion samples, the run rewrites the `insert_latency`
//! section of the committed `BENCH_ingest.json` (points/sec per dataset,
//! measured over one full serial pass) so per-point latency is tracked
//! machine-readably across PRs alongside the batch-ingest numbers.

use std::path::Path;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use edm_bench::catalog::{self, DatasetId};
use edm_bench::report::merge_bench_json;
use edm_common::metric::Euclidean;
use edm_core::EdmStream;

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("edmstream_insert");
    group.sample_size(10);
    for id in [DatasetId::Kdd, DatasetId::CoverType, DatasetId::Pamap2] {
        let ds = catalog::load(id, 0.01, 1_000.0);
        group.bench_function(ds.id.name(), |b| {
            b.iter_batched(
                || {
                    // Warm engine: initialized and past the init buffer.
                    let mut e = EdmStream::new(ds.edm.clone(), Euclidean);
                    for p in ds.stream.iter().take(2_000) {
                        e.insert(&p.payload, p.ts);
                    }
                    e
                },
                |mut e| {
                    for p in ds.stream.iter().skip(2_000) {
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

/// One timed serial pass per dataset, written into `BENCH_ingest.json`.
/// Runs first in the group, in a fresh process, as the `bench_regression`
/// smoke that gates against it does: after the criterion samples the
/// allocator hands back warm pages, which made the short KDDCUP99 pass
/// record about 1.5× what a fresh process measures.
fn emit_json(c: &mut Criterion) {
    let _ = c; // runs as a criterion group member; needs no bencher
    let mut entries: Vec<String> = Vec::new();
    for id in [DatasetId::Kdd, DatasetId::CoverType, DatasetId::Pamap2] {
        let ds = catalog::load(id, 0.01, 1_000.0);
        let mut e = EdmStream::new(ds.edm.clone(), Euclidean);
        for p in ds.stream.iter().take(2_000) {
            e.insert(&p.payload, p.ts);
        }
        let start = Instant::now();
        let mut n = 0u64;
        for p in ds.stream.iter().skip(2_000) {
            e.insert(&p.payload, p.ts);
            n += 1;
        }
        let pps = n as f64 / start.elapsed().as_secs_f64();
        entries.push(format!(
            "{{\"dataset\": \"{}\", \"points_per_sec\": {:.0}}}",
            ds.id.name(),
            pps
        ));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ingest.json");
    merge_bench_json(&path, "insert_latency", &format!("[{}]", entries.join(", ")))
        .expect("write bench json");
    println!("[written {}]", path.display());
}

criterion_group!(benches, emit_json, bench_insert);
criterion_main!(benches);
