//! Property tests for the neighbor-index subsystem.
//!
//! Two contracts guard the sub-linear indexes (grid and cover tree):
//!
//! 1. **Observational equivalence** — an engine backed by a grid index
//!    must produce *identical* clustering output to one backed by the
//!    brute-force linear scan on the same stream: same cells, same
//!    dependency tree, same τ, same cluster partition, same evolution
//!    events, same `cluster_of` answers. An index is an access path,
//!    never a policy.
//! 2. **Coherence** — across arbitrary interleavings of inserts, cell
//!    births, activations, demotions, and reservoir recycling (driven by
//!    the idle-ordered queue), the index must mirror the live slab
//!    exactly (no stale entry survives a recycled cell, no live cell
//!    goes missing), and the idle queue must keep every reservoir cell
//!    recyclable (checked inside `check_invariants`).

use edm_common::metric::Euclidean;
use edm_common::point::DenseVector;
use edm_core::index::NeighborIndexKind;
use edm_core::{EdmConfig, EdmStream, Event};
use proptest::prelude::*;

fn engine_with(kind: NeighborIndexKind) -> EdmStream<DenseVector, Euclidean> {
    let cfg = EdmConfig::builder(0.8)
        .rate(100.0)
        .beta_for_threshold(3.0)
        .init_points(25)
        .tau_every(16)
        .maintenance_every(8)
        .neighbor_index(kind)
        .build()
        .expect("valid test configuration");
    EdmStream::new(cfg, Euclidean)
}

/// Full observable state: per-cell tree data, cluster partition, τ, events.
type Observed = (Vec<(u32, Option<u32>, f64, bool)>, Vec<Vec<u32>>, f64, Vec<Event>);

fn observe(engine: &mut EdmStream<DenseVector, Euclidean>, t: f64) -> Observed {
    let mut cells: Vec<(u32, Option<u32>, f64, bool)> =
        engine.slab().iter().map(|(id, c)| (id.0, c.dep.map(|d| d.0), c.delta, c.active)).collect();
    cells.sort_by_key(|c| c.0);
    let snap = engine.snapshot(t);
    let clusters: Vec<Vec<u32>> =
        snap.clusters().iter().map(|c| c.cells.iter().map(|id| id.0).collect()).collect();
    (cells, clusters, snap.tau(), engine.take_events())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The grid path is observationally equivalent to the linear scan on
    /// random streams — the tentpole's exactness claim.
    #[test]
    fn grid_and_linear_scan_produce_identical_clustering(
        points in prop::collection::vec(((-5.0f64..15.0), (-3.0f64..3.0)), 60..300),
    ) {
        let mut linear = engine_with(NeighborIndexKind::LinearScan);
        let mut grid = engine_with(NeighborIndexKind::Grid);
        for (i, &(x, y)) in points.iter().enumerate() {
            let t = i as f64 / 100.0;
            let p = DenseVector::from([x, y]);
            linear.insert(&p, t);
            grid.insert(&p, t);
        }
        let t = points.len() as f64 / 100.0;
        linear.force_init();
        grid.force_init();
        prop_assert_eq!(observe(&mut linear, t), observe(&mut grid, t));
        // Point-membership queries agree on a probe lattice too.
        for gx in -2..8 {
            for gy in -2..2 {
                let probe = DenseVector::from([gx as f64 * 2.0, gy as f64 * 2.0]);
                prop_assert_eq!(linear.cluster_of(&probe, t), grid.cluster_of(&probe, t));
            }
        }
        // And the grid did not silently fall back to scanning everything:
        // identical output must have cost fewer distance computations
        // (the streams always spread cells across many buckets).
        prop_assert!(
            grid.stats().index_pruned > 0,
            "grid pruned nothing over {} cells",
            grid.n_cells()
        );
        prop_assert!(grid.stats().index_probed < linear.stats().index_probed);
    }

    /// Insert order + reservoir recycling never leave a stale entry in the
    /// index: its contents equal the live slab seeds after arbitrary
    /// interleavings of dense traffic, far-flung outliers, and time jumps
    /// large enough to trigger ΔT_del recycling — driven by the idle
    /// queue, whose reservoir coverage `check_invariants` verifies at
    /// every step.
    #[test]
    fn index_mirrors_slab_across_recycling_interleavings(
        ops in prop::collection::vec(
            ((-20.0f64..20.0), (-20.0f64..20.0), any::<bool>()),
            40..200,
        ),
    ) {
        let cfg = EdmConfig::builder(0.8)
            .rate(100.0)
            .beta_for_threshold(3.0)
            .init_points(10)
            .tau_every(16)
            .maintenance_every(4)
            .recycle_horizon(5.0)
            .build()
            .expect("valid test configuration");
        let mut e = EdmStream::new(cfg, Euclidean);
        let mut t = 0.0;
        for (i, &(x, y, jump)) in ops.iter().enumerate() {
            // Jumps outrun the 5 s recycling horizon; dense points keep a
            // few cells alive so recycling interleaves with fresh births.
            t += if jump { 7.0 } else { 0.01 };
            e.insert(&DenseVector::from([x, y]), t);
            prop_assert!(e.check_index().is_ok(), "index diverged: {:?}", e.check_index());
            // Tree + active-registry + idle-queue invariants, on a
            // cadence (pricier).
            if i % 7 == 0 && e.is_initialized() {
                prop_assert!(e.check_invariants(t).is_ok(), "{:?}", e.check_invariants(t));
            }
        }
        e.force_init();
        prop_assert!(e.check_index().is_ok());
        prop_assert!(e.check_invariants(t).is_ok());
        // The horizon jumps must actually have exercised recycling for
        // this property to mean anything.
        if ops.iter().filter(|(_, _, j)| *j).count() >= 5 {
            prop_assert!(e.stats().recycled > 0, "recycling never fired");
        }
    }

    /// The cover tree is observationally equivalent to the linear scan on
    /// random streams — same contract the grid carries, proven through
    /// measured-distance pruning instead of bucket geometry. Runs in both
    /// serial and (under `EDM_FORCE_INGEST_THREADS`, which the CI matrix
    /// sets) forced-parallel ingest, where the tree's maximally
    /// conservative `probe_conflicts` must keep probe replay exact.
    #[test]
    fn cover_tree_matches_linear_scan(
        points in prop::collection::vec(((-5.0f64..15.0), (-3.0f64..3.0)), 60..300),
    ) {
        let mut linear = engine_with(NeighborIndexKind::LinearScan);
        let mut cover = engine_with(NeighborIndexKind::CoverTree);
        for (i, &(x, y)) in points.iter().enumerate() {
            let t = i as f64 / 100.0;
            let p = DenseVector::from([x, y]);
            linear.insert(&p, t);
            cover.insert(&p, t);
        }
        let t = points.len() as f64 / 100.0;
        linear.force_init();
        cover.force_init();
        prop_assert_eq!(observe(&mut linear, t), observe(&mut cover, t));
        for gx in -2..8 {
            for gy in -2..2 {
                let probe = DenseVector::from([gx as f64 * 2.0, gy as f64 * 2.0]);
                prop_assert_eq!(linear.cluster_of(&probe, t), cover.cluster_of(&probe, t));
            }
        }
        // The tree never probes more than the scan would (it degenerates
        // to the scan at worst).
        prop_assert!(cover.stats().index_probed <= linear.stats().index_probed);
        prop_assert!(cover.check_index().is_ok());
    }

    /// ΔT_del recycling interleavings keep the cover tree exact and
    /// coherent: removals re-hang whole subtrees through
    /// triangle-inequality radius bounds, and neither a stale node nor an
    /// unsound covering radius may survive (`check_index` verifies every
    /// node against every ancestor's radius, and the equivalence against
    /// the linear scan proves the searches stayed exact).
    #[test]
    fn cover_tree_matches_linear_scan_across_recycling_interleavings(
        ops in prop::collection::vec(
            ((-20.0f64..20.0), (-20.0f64..20.0), any::<bool>()),
            40..200,
        ),
    ) {
        let cfg = |kind| {
            EdmConfig::builder(0.8)
                .rate(100.0)
                .beta_for_threshold(3.0)
                .init_points(10)
                .tau_every(16)
                .maintenance_every(4)
                .recycle_horizon(5.0)
                .neighbor_index(kind)
                .build()
                .expect("valid test configuration")
        };
        let mut linear = EdmStream::new(cfg(NeighborIndexKind::LinearScan), Euclidean);
        let mut cover = EdmStream::new(cfg(NeighborIndexKind::CoverTree), Euclidean);
        let mut t = 0.0;
        for (i, &(x, y, jump)) in ops.iter().enumerate() {
            t += if jump { 7.0 } else { 0.01 };
            let p = DenseVector::from([x, y]);
            linear.insert(&p, t);
            cover.insert(&p, t);
            prop_assert!(cover.check_index().is_ok(), "index diverged: {:?}", cover.check_index());
            if i % 7 == 0 && cover.is_initialized() {
                prop_assert!(cover.check_invariants(t).is_ok(), "{:?}", cover.check_invariants(t));
            }
        }
        linear.force_init();
        cover.force_init();
        prop_assert_eq!(observe(&mut linear, t), observe(&mut cover, t));
        prop_assert!(cover.check_index().is_ok());
        prop_assert!(cover.check_invariants(t).is_ok());
        if ops.iter().filter(|(_, _, j)| *j).count() >= 5 {
            prop_assert!(cover.stats().recycled > 0, "recycling never fired");
        }
    }

    /// High-dimensional grids stay exact: on an 8-d stream where up to 12
    /// pairwise-r-separated seeds share one bucket (so every probe takes
    /// the occupied-bucket sweep over buckets holding more than 8 seeds),
    /// interleaved with ΔT_del recycling jumps, the grid and the cover
    /// tree must match the linear scan exactly and stay coherent after
    /// every insert.
    #[test]
    fn crowded_8d_buckets_match_linear_scan_across_recycling(
        ops in prop::collection::vec(
            ((0usize..3), (0usize..CROWD.len()), (0.0f64..0.02), any::<bool>()),
            40..160,
        ),
    ) {
        let cfg = |kind| {
            EdmConfig::builder(0.8)
                .rate(100.0)
                .beta_for_threshold(3.0)
                .init_points(10)
                .tau_every(16)
                .maintenance_every(4)
                .recycle_horizon(5.0)
                .neighbor_index(kind)
                .build()
                .expect("valid test configuration")
        };
        let mut linear = EdmStream::new(cfg(NeighborIndexKind::LinearScan), Euclidean);
        let mut grid = EdmStream::new(cfg(NeighborIndexKind::Grid), Euclidean);
        let mut cover = EdmStream::new(cfg(NeighborIndexKind::CoverTree), Euclidean);
        prop_assert_eq!(grid.index_label(), "grid");
        // Warm-up: seed every code in every bucket, then the random ops.
        let warmup = (0..3).flat_map(|b| (0..CROWD.len()).map(move |c| (b, c, 0.0, false)));
        let mut t = 0.0;
        for (i, (bucket, code, jitter, jump)) in warmup.chain(ops.iter().copied()).enumerate() {
            t += if jump { 7.0 } else { 0.01 };
            let p = crowd_point(bucket, code, jitter);
            for e in [&mut linear, &mut grid, &mut cover] {
                e.insert(&p, t);
                prop_assert!(e.check_index().is_ok(), "index diverged: {:?}", e.check_index());
                if i % 7 == 0 && e.is_initialized() {
                    prop_assert!(e.check_invariants(t).is_ok(), "{:?}", e.check_invariants(t));
                }
            }
        }
        for e in [&mut linear, &mut grid, &mut cover] {
            e.force_init();
        }
        let reference = observe(&mut linear, t);
        prop_assert_eq!(&reference, &observe(&mut grid, t));
        prop_assert_eq!(&reference, &observe(&mut cover, t));
        // The sweep still prunes buckets beyond the probe's reach.
        prop_assert!(grid.stats().index_pruned > 0, "grid pruned nothing");
        if ops.iter().filter(|op| op.3).count() >= 5 {
            prop_assert!(grid.stats().recycled > 0, "recycling never fired");
        }
    }
}

/// Even-weight 8-bit codes: distinct codes differ on at least two axes.
const CROWD: [u32; 12] = [0, 3, 5, 6, 9, 10, 12, 15, 17, 18, 20, 23];

/// An 8-d point of crowd `code` in bucket `bucket` (bucket side 0.8 = r):
/// every coordinate sits at `0.02 + 0.7·bit + jitter` inside its bucket,
/// with the jitter under 0.02, so points of distinct codes lie at least
/// 0.68·√2 ≈ 0.96 > r apart and still share one bucket. Buckets sit 4
/// apart on the first axis.
fn crowd_point(bucket: usize, code: usize, jitter: f64) -> DenseVector {
    DenseVector::from(std::array::from_fn::<f64, 8, _>(|k| {
        let base = if k == 0 { 4.0 * bucket as f64 } else { 0.0 };
        let bit = f64::from(CROWD[code] >> k & 1);
        base + 0.02 + 0.7 * bit + jitter * (k + 1) as f64 / 8.0
    }))
}
