//! Criterion bench: steady-state maintenance cost vs. slab size.
//!
//! **`maintenance_scaling`** isolates the per-point cost of the
//! maintenance cadence while the outlier reservoir grows: a fixed hot set
//! of 64 active cells takes all the traffic (constant decay-sweep work)
//! over reservoirs of 512–32 768 idle cells that never expire. Before the
//! idle-ordered recycling queue, every `maintenance_every` points paid an
//! O(total cells) slab walk looking for expired cells — latency grew with
//! the reservoir. With the queue, recycling peeks the oldest idle entry
//! and stops (nothing is expired), so the series must stay **flat** as
//! the reservoir scales. That flatness *is* the acceptance criterion for
//! the O(recycled) claim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edm_common::metric::Euclidean;
use edm_common::point::DenseVector;
use edm_core::{EdmConfig, EdmStream};

/// Points inserted per timed sample — smooths timer resolution.
const BATCH: usize = 200;

/// Engine with a 64-cell active hot set and `n_reservoir` idle cells that
/// never expire, running the maintenance cadence every 16 points.
fn engine_with_reservoir(n_reservoir: usize) -> (EdmStream<DenseVector, Euclidean>, f64) {
    let cfg = EdmConfig::builder(0.5)
        .rate(1_000.0)
        .beta_for_threshold(3.0)
        .age_adjusted_threshold(false)
        .init_points(1)
        .tau_every(1 << 40)
        .maintenance_every(16)
        .recycle_horizon(f64::MAX)
        .track_evolution(false)
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
    let probes: Vec<DenseVector> =
        (0..64).map(|i| DenseVector::from([(i % 8) as f64 * 2.0, (i / 8) as f64 * 2.0])).collect();
    for _ in 0..6 {
        for p in &probes {
            t += 1e-4;
            e.insert(p, t);
        }
    }
    assert_eq!(e.active_len(), 64, "warmup must activate exactly the hot set");
    assert_eq!(e.reservoir_len(), n_reservoir, "reservoir must hold every idle cell");
    (e, t)
}

/// Maintenance cost vs. reservoir size: flat ⇔ recycling is O(recycled),
/// growing ⇔ something still walks the slab.
fn bench_maintenance_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("maintenance_scaling");
    group.sample_size(30);
    for &n_reservoir in &[512usize, 2_048, 8_192, 32_768] {
        let (mut e, mut t) = engine_with_reservoir(n_reservoir);
        let probes: Vec<DenseVector> = (0..64)
            .map(|i| DenseVector::from([(i % 8) as f64 * 2.0, (i / 8) as f64 * 2.0]))
            .collect();
        let mut i = 0usize;
        group.bench_function(BenchmarkId::new("grid", n_reservoir), |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    t += 1e-5;
                    e.insert(&probes[i % probes.len()], t);
                    i += 1;
                }
            })
        });
        assert_eq!(e.reservoir_len(), n_reservoir, "bench stream must not recycle or create");
    }
    group.finish();
}

criterion_group!(benches, bench_maintenance_scaling);
criterion_main!(benches);
