//! Allocation budget of a served writer's steady-state publication.
//!
//! On a quiesced 16-d layout of 64 clusters of 8 member cells, a
//! `SnapshotPublisher::publish` after a 4-point batch that only absorbs
//! into members must allocate at most one buffer per cluster (its
//! centroid, which moves with decay) plus a fixed number for the payload
//! itself. Everything that depends only on membership (cell lists,
//! bounding boxes, the member column, the member table) is shared with
//! the previous payload. The allocator counts per thread, so the
//! harness's other threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use edm_common::metric::Euclidean;
use edm_common::point::DenseVector;
use edm_core::{EdmConfig, EdmStream, TauMode};
use edm_serve::SnapshotPublisher;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count is a const-initialized thread-local `Cell`, which neither
// allocates nor needs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const DIM: usize = 16;
const SITES: usize = 64;
const PER_SITE: usize = 8;
/// What a publication may allocate besides one centroid per cluster: the
/// snapshot's decision-graph, cluster and summary vectors, the sealed
/// generation record and its live list, the payload and its digest window.
const FIXED: usize = 16;

/// The `k`-th member of site `c`, as `edm_bench::scenarios::highd_seed`
/// lays it out: sites on a spacing-2 lattice over dims 0–1, members 0.45
/// apart on the other dims (distinct even-popcount masks, so any two
/// members of a site differ on at least two dims).
fn highd_seed(c: usize, k: usize) -> DenseVector {
    let mut coords = vec![0.0; DIM];
    coords[0] = (c % 32) as f64 * 2.0;
    coords[1] = (c / 32) as f64 * 2.0;
    let mask = (0u64..).filter(|w| w.count_ones() % 2 == 0).nth(k).expect("masks are unbounded");
    for (bit, coord) in coords.iter_mut().skip(2).enumerate() {
        if mask >> bit & 1 == 1 {
            *coord = 0.45;
        }
    }
    DenseVector::new(coords)
}

#[test]
fn a_publication_after_an_absorb_only_batch_allocates_one_centroid_per_cluster() {
    let cfg = EdmConfig::builder(0.5)
        .rate(1_000.0)
        .beta_for_threshold(3.0)
        .age_adjusted_threshold(false)
        .recycle_horizon(f64::MAX)
        // Above every within-site dependent distance, below the spacing.
        .tau_mode(TauMode::Static(1.4))
        .build()
        .expect("valid test configuration");
    let mut e = EdmStream::new(cfg, Euclidean);
    let mut t = 0.0;
    let mut warm = Vec::new();
    for _ in 0..4 {
        for c in 0..SITES {
            for k in 0..PER_SITE {
                t += 1e-4;
                warm.push((highd_seed(c, k), t));
            }
        }
    }
    e.insert_batch(&warm);
    assert_eq!(e.active_len(), SITES * PER_SITE, "warm-up activates every member");

    let mut publisher = SnapshotPublisher::new(&mut e, 1, None);
    let mut counts = Vec::new();
    for round in 0..8 {
        // Four points within 0.2 of members of four sites: absorbs only.
        let batch: Vec<(DenseVector, f64)> = (0..4)
            .map(|i| {
                let mut p = highd_seed((round * 4 + i) * 7 % SITES, (round + i) % PER_SITE);
                p.coords_mut()[0] += 0.1;
                t += 1e-4;
                (p, t)
            })
            .collect();
        let absorbed = e.stats().absorbed;
        e.insert_batch(&batch);
        assert_eq!(e.stats().absorbed, absorbed + 4, "every point is absorbed");
        counts.push(allocations(|| publisher.publish(&mut e)));
    }
    let latest = publisher.source().latest();
    let clusters = latest.snapshot().n_clusters();
    assert_eq!(clusters, SITES);
    assert_eq!(latest.n_members(), SITES * PER_SITE);
    let worst = *counts.iter().max().expect("eight publications");
    assert!(
        worst <= clusters + FIXED,
        "a publication allocated {worst} buffers for {clusters} clusters (rounds: {counts:?}); \
         the budget is one centroid per cluster plus {FIXED}"
    );
}
