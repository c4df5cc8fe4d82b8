//! Engine behavior tests, exercising all three pipeline layers through
//! the public facade.

use super::*;
use crate::evolution::{EventCursor, EventKind};
use crate::filters::FilterConfig;
use crate::tau::TauMode;
use edm_common::metric::Euclidean;
use edm_common::point::DenseVector;

/// A small-scale config: rate 100 pt/s, activation threshold ≈ 3.
fn mini_cfg(r: f64) -> EdmConfig {
    EdmConfig::builder(r)
        .rate(100.0)
        .beta_for_threshold(3.0)
        .init_points(40)
        .tau_every(16)
        .maintenance_every(8)
        .build()
        .expect("mini config is valid")
}

/// Two tight blobs far apart; points alternate between them.
fn feed_two_blobs(engine: &mut EdmStream<DenseVector, Euclidean>, n: usize) {
    for i in 0..n {
        let t = i as f64 / 100.0;
        let jitter = (i % 5) as f64 * 0.05;
        let p = if i % 2 == 0 {
            DenseVector::from([jitter, 0.0])
        } else {
            DenseVector::from([10.0 + jitter, 0.0])
        };
        engine.insert(&p, t);
    }
}

#[test]
fn initialization_builds_two_clusters() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    feed_two_blobs(&mut e, 200);
    assert!(e.is_initialized());
    assert_eq!(e.n_clusters(), 2, "tau = {}", e.tau());
    assert!(e.check_invariants(2.0).is_ok());
}

#[test]
fn cluster_of_distinguishes_blobs_and_outliers() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    feed_two_blobs(&mut e, 300);
    let t = 3.0;
    let a = e.cluster_of(&DenseVector::from([0.1, 0.0]), t);
    let b = e.cluster_of(&DenseVector::from([10.1, 0.0]), t);
    let far = e.cluster_of(&DenseVector::from([500.0, 0.0]), t);
    assert!(a.is_some() && b.is_some());
    assert_ne!(a, b);
    assert_eq!(far, None);
}

#[test]
fn cluster_of_decays_candidates_to_the_query_time() {
    // The decay sweep only demotes cells on the maintenance cadence; the
    // query must not leak the stale structure in between. A cell dense at
    // t=3 but starved long past its decay horizon answers None — the same
    // verdict the sweep would reach at that instant.
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    feed_two_blobs(&mut e, 300);
    let probe = DenseVector::from([0.1, 0.0]);
    assert!(e.cluster_of(&probe, 3.0).is_some());
    // Threshold ≈ 3, blob density ≈ 75: below threshold after
    // ln(3/75)/ln(0.998) ≈ 1600 s. Far past that, the answer flips to
    // None without a single additional insert or sweep.
    assert_eq!(e.cluster_of(&probe, 3.0 + 5_000.0), None);
}

#[test]
fn invariants_hold_throughout_a_noisy_stream() {
    let mut e = EdmStream::new(mini_cfg(0.6), Euclidean);
    // Deterministic pseudo-noise around three moving centers.
    let mut x = 0u64;
    for i in 0..600 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = ((x >> 33) as f64) / (u32::MAX as f64 / 2.0);
        let c = (i % 3) as f64 * 6.0 + (i as f64) * 0.002;
        let p = DenseVector::from([c + u * 0.8, u * 0.5]);
        let t = i as f64 / 100.0;
        e.insert(&p, t);
        if i % 50 == 0 && e.is_initialized() {
            e.check_invariants(t).unwrap();
        }
    }
    e.check_invariants(6.0).unwrap();
}

#[test]
fn filters_do_not_change_the_result() {
    // The theorems claim the filters are exact: the final tree must be
    // identical with and without them.
    let run = |filters: FilterConfig| {
        let cfg = mini_cfg(0.6).to_builder().filters(filters).build().unwrap();
        let mut e = EdmStream::new(cfg, Euclidean);
        let mut x = 7u64;
        for i in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((x >> 33) as f64) / (u32::MAX as f64 / 2.0);
            let c = (i % 2) as f64 * 8.0;
            e.insert(&DenseVector::from([c + u, u * 0.3]), i as f64 / 100.0);
        }
        // Capture (dep, delta) per live cell id.
        let mut state: Vec<(u32, Option<CellId>, f64)> =
            e.slab().iter().map(|(id, c)| (id.0, c.dep, c.delta)).collect();
        state.sort_by_key(|s| s.0);
        state
    };
    let wf = run(FilterConfig::none());
    let df = run(FilterConfig::density_only());
    let all = run(FilterConfig::all());
    assert_eq!(wf, df, "density filter changed the outcome");
    assert_eq!(df, all, "triangle filter changed the outcome");
}

#[test]
fn filters_reduce_work() {
    // Three blobs with very different arrival rates: the cells end up
    // far apart in the density order, so most absorptions leave the
    // sparser cells strictly below the window — exactly what Theorem 1
    // prunes. (With two equally-fed blobs the cells leapfrog each other
    // every point and nothing can be pruned.)
    let feed = |e: &mut EdmStream<DenseVector, Euclidean>| {
        for i in 0..600usize {
            let t = i as f64 / 100.0;
            let which = match i % 20 {
                0 => 2usize,     // 5% to blob 2
                x if x < 6 => 1, // 25% to blob 1
                _ => 0,          // 70% to blob 0
            };
            let jitter = (i % 5) as f64 * 0.05;
            e.insert(&DenseVector::from([which as f64 * 10.0 + jitter, 0.0]), t);
        }
    };
    let run = |filters: FilterConfig| {
        let cfg = mini_cfg(0.6).to_builder().filters(filters).build().unwrap();
        let mut e = EdmStream::new(cfg, Euclidean);
        feed(&mut e);
        (e.stats().filtered_density, e.stats().filtered_triangle)
    };
    let (fd, _) = run(FilterConfig::all());
    assert!(fd > 0, "density filter should prune candidates");
    let (fd_off, _) = run(FilterConfig::none());
    assert_eq!(fd_off, 0);
}

#[test]
fn reservoir_cells_activate_on_absorption() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    feed_two_blobs(&mut e, 100);
    let before_active = e.active_len();
    // Hammer a brand-new location until its cell activates.
    for i in 0..40 {
        let t = 1.0 + i as f64 / 100.0;
        e.insert(&DenseVector::from([50.0, 50.0]), t);
    }
    assert!(e.active_len() > before_active, "new region never activated");
    assert!(e.stats().activations > 0);
    assert!(e.check_invariants(1.4).is_ok());
}

#[test]
fn starved_cluster_decays_to_reservoir() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    feed_two_blobs(&mut e, 200);
    assert_eq!(e.n_clusters(), 2);
    // Feed only the left blob; advance time far enough for the right
    // blob's cells (thr ≈ 3) to decay below threshold.
    // Density ~50 → below 3 after ln(3/50)/ln(0.998) ≈ 1400 s.
    for i in 0..2_000 {
        let t = 2.0 + i as f64;
        e.insert(&DenseVector::from([(i % 5) as f64 * 0.05, 0.0]), t);
    }
    assert_eq!(e.n_clusters(), 1, "right blob should have decayed");
    assert!(e.stats().deactivations > 0);
    assert!(e
        .events_since(EventCursor::START)
        .iter()
        .any(|ev| matches!(ev.kind, EventKind::Disappear { .. })));
}

#[test]
fn outdated_reservoir_cells_are_recycled() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    feed_two_blobs(&mut e, 100);
    // A lone outlier cell.
    e.insert(&DenseVector::from([99.0, 99.0]), 1.0);
    let with_outlier = e.n_cells();
    // ΔT_del at rate 100, thr 3 is well under an hour; advance far past.
    let dt = e.config().delta_t_del();
    for i in 0..200 {
        let t = 2.0 + dt + i as f64;
        e.insert(&DenseVector::from([(i % 5) as f64 * 0.05, 0.0]), t);
    }
    assert!(e.stats().recycled > 0, "outlier cell should be recycled");
    assert!(e.n_cells() < with_outlier + 200);
}

#[test]
fn reabsorbed_reservoir_cells_outlive_their_stale_idle_entries() {
    // A reservoir cell touched again inside the horizon must not be
    // recycled off its *old* idle entry: the queue's lazy invalidation
    // has to drop the superseded entry when it expires. Threshold pinned
    // sky-high so re-touches never activate anything.
    let cfg = mini_cfg(0.5)
        .to_builder()
        .beta_for_threshold(1e4)
        .age_adjusted_threshold(false)
        .recycle_horizon(10.0)
        .maintenance_every(4)
        .build()
        .unwrap();
    let mut e = EdmStream::new(cfg, Euclidean);
    feed_two_blobs(&mut e, 100);
    let outlier = DenseVector::from([77.0, 77.0]);
    e.insert(&outlier, 1.0);
    // Keep the outlier warm: re-touch every 6 s (inside the 10 s horizon)
    // while the clock runs far past the first entry's expiry, feeding the
    // left blob alongside so maintenance cadences keep firing.
    for i in 1..=10 {
        let t = 1.0 + 6.0 * i as f64;
        e.insert(&outlier, t);
        for j in 0..4 {
            e.insert(&DenseVector::from([0.05 * j as f64, 0.0]), t + 0.01);
        }
    }
    assert!(
        e.nearest_cell(&outlier).is_some(),
        "warm outlier cell must survive its stale idle entries"
    );
    assert!(e.cluster_of(&outlier, 61.0).is_none(), "it must still be an outlier, not a cluster");
    // Stop touching it: the last entry expires and the cell goes.
    for i in 0..40 {
        let t = 72.0 + i as f64;
        e.insert(&DenseVector::from([(i % 5) as f64 * 0.05, 0.0]), t);
    }
    assert!(e.nearest_cell(&outlier).is_none(), "idle outlier must be recycled");
    assert!(e.stats().recycled > 0);
    e.check_index().unwrap();
    e.check_invariants(120.0).unwrap();
}

#[test]
fn idle_queue_stays_bounded_under_reservoir_churn() {
    // Every re-absorb of a reservoir cell pushes a fresh queue entry;
    // compaction must keep the backlog within a small factor of the
    // reservoir instead of growing with the stream. Threshold pinned
    // sky-high and recycling pushed past the test horizon, so all churn
    // stays in the reservoir.
    let cfg = mini_cfg(0.5)
        .to_builder()
        .beta_for_threshold(1e4)
        .age_adjusted_threshold(false)
        .recycle_horizon(1e6)
        .maintenance_every(8)
        .build()
        .unwrap();
    let mut e = EdmStream::new(cfg, Euclidean);
    // 50 reservoir sites, each touched ~40 times, never activating.
    for round in 0..40 {
        for site in 0..50 {
            let t = (round * 50 + site) as f64;
            e.insert(&DenseVector::from([site as f64 * 5.0, 40.0]), t);
        }
    }
    let reservoir = e.reservoir_len();
    assert_eq!(reservoir, e.n_cells(), "nothing may activate in this regime");
    assert!(reservoir > 0);
    assert!(
        e.idle_queue_len() <= (2 * reservoir).max(64) + reservoir,
        "queue holds {} entries for a {reservoir}-cell reservoir",
        e.idle_queue_len()
    );
    e.check_invariants(2000.0).unwrap();
}

#[test]
fn merge_event_fires_when_blobs_bridge() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    // Two blobs at distance 6 (r = 0.5): distinct clusters.
    for i in 0..300 {
        let t = i as f64 / 100.0;
        let jitter = (i % 5) as f64 * 0.05;
        let p = if i % 2 == 0 {
            DenseVector::from([jitter, 0.0])
        } else {
            DenseVector::from([6.0 + jitter, 0.0])
        };
        e.insert(&p, t);
    }
    assert_eq!(e.n_clusters(), 2, "tau {}", e.tau());
    // Fill the valley: a dense bridge between them.
    for i in 0..1_200 {
        let t = 3.0 + i as f64 / 100.0;
        let x = 0.5 + 5.0 * ((i % 11) as f64 / 11.0);
        e.insert(&DenseVector::from([x, 0.0]), t);
    }
    assert_eq!(e.n_clusters(), 1, "bridge should merge the blobs (tau {})", e.tau());
    assert!(
        e.events_since(EventCursor::START)
            .iter()
            .any(|ev| matches!(ev.kind, EventKind::Merge { .. })),
        "no merge event recorded; events: {:?}",
        e.events_recorded()
    );
}

#[test]
fn stream_clusterer_interface_works() {
    use edm_data::clusterer::StreamClusterer;
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    let p = DenseVector::from([0.0, 0.0]);
    StreamClusterer::insert(&mut e, &p, 0.0);
    // Queries answer from prepared state only: before `prepare`, a
    // stream still inside the init buffer reports nothing.
    assert_eq!(StreamClusterer::n_clusters(&e, 0.0), 0);
    // `prepare` forces initialization. With the age-adjusted threshold
    // a lone fresh point bootstraps one cluster (the threshold floor
    // is exactly one fresh point).
    StreamClusterer::prepare(&mut e, 0.0);
    assert_eq!(StreamClusterer::n_clusters(&e, 0.0), 1);
    assert!(e.is_initialized());
    assert_eq!(StreamClusterer::name(&e), "EDMStream");
}

#[test]
fn try_insert_rejects_time_regression_and_batch_reports_index() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    assert!(e.try_insert(&DenseVector::from([0.0, 0.0]), 1.0).is_ok());
    let err = e.try_insert(&DenseVector::from([1.0, 0.0]), 0.5).unwrap_err();
    assert_eq!(err, crate::error::EdmError::TimeRegression { now: 1.0, t: 0.5 });
    // Batch: index 1 regresses; point 0 is already ingested.
    let points = e.stats().points;
    let batch = vec![
        (DenseVector::from([0.1, 0.0]), 1.5),
        (DenseVector::from([0.2, 0.0]), 0.2),
        (DenseVector::from([0.3, 0.0]), 2.0),
    ];
    let (i, err) = e.try_insert_batch(&batch).unwrap_err();
    assert_eq!(i, 1);
    assert!(matches!(err, crate::error::EdmError::TimeRegression { .. }));
    assert_eq!(e.stats().points, points + 1);
}

#[test]
fn snapshot_freezes_state_and_aligns_event_cursor() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    feed_two_blobs(&mut e, 300);
    let snap = e.snapshot(3.0);
    assert_eq!(snap.n_clusters(), 2);
    assert_eq!(snap.n_clusters(), e.n_clusters());
    assert_eq!(snap.active_cells(), e.active_len());
    assert_eq!(snap.n_cells(), e.n_cells());
    assert_eq!(snap.points(), 300);
    assert!((snap.tau() - e.tau()).abs() < 1e-12);
    let (rho, delta) = snap.decision_graph();
    assert_eq!(rho.len(), e.active_len());
    assert!(delta.iter().all(|d| d.is_finite()));
    // Nothing new happened since the snapshot: its cursor sees no events.
    assert!(e.events_since(snap.event_cursor()).is_empty());
    // The snapshot stays valid after the engine moves on.
    for i in 0..400 {
        e.insert(&DenseVector::from([50.0, 50.0]), 3.0 + i as f64 / 100.0);
    }
    assert_eq!(snap.n_clusters(), 2);
}

#[test]
fn take_events_drains_incrementally() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    feed_two_blobs(&mut e, 200);
    let first = e.take_events();
    assert!(!first.is_empty(), "initialization must emerge clusters");
    assert!(e.take_events().is_empty(), "drained log must be empty");
    let recorded = e.events_recorded();
    // A new dense region triggers fresh events only.
    for i in 0..60 {
        e.insert(&DenseVector::from([50.0, 50.0]), 2.0 + i as f64 / 100.0);
    }
    let fresh = e.take_events();
    assert!(!fresh.is_empty(), "emergence must be recorded");
    assert_eq!(e.events_recorded(), recorded + fresh.len() as u64);
}

#[test]
fn decision_graph_reports_finite_deltas() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    feed_two_blobs(&mut e, 300);
    let (rho, delta) = e.decision_graph(3.0);
    assert_eq!(rho.len(), delta.len());
    assert!(!rho.is_empty());
    assert!(delta.iter().all(|d| d.is_finite()));
    // Exactly one cell (the root) carries the display-max δ.
    let max = delta.iter().cloned().fold(0.0, f64::max);
    assert!(delta.iter().filter(|&&d| d == max).count() >= 1);
}

#[test]
fn static_tau_is_respected() {
    let cfg = mini_cfg(0.5).to_builder().tau_mode(TauMode::Static(2.5)).build().unwrap();
    let mut e = EdmStream::new(cfg, Euclidean);
    feed_two_blobs(&mut e, 300);
    assert_eq!(e.tau(), 2.5);
}

#[test]
fn single_cell_stream_anchors_root_delta_at_the_tau_fallback() {
    // One point → one active root with δ = ∞ and no finite δ anywhere.
    // Regression: the decision graph used to display that root at a
    // hardcoded 1.0 while the τ initializer fell back to 4r, so the
    // "user" saw a graph on a different scale than the τ in force.
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    e.insert(&DenseVector::from([3.0, 3.0]), 0.0);
    e.force_init();
    assert_eq!(e.active_len(), 1);
    let (rho, delta) = e.decision_graph(0.0);
    assert_eq!(rho.len(), 1);
    assert_eq!(delta, vec![4.0 * 0.5], "root must display at the 4r fallback scale");
    assert_eq!(e.tau(), 4.0 * 0.5, "adaptive τ₀ falls back to 4r with no finite δ");
    assert_eq!(e.n_clusters(), 1);
}

#[test]
fn all_root_stream_keeps_graph_and_tau_consistent() {
    // Every active cell its own cluster (tiny static τ): the single
    // tree root still carries δ = ∞ and must display at 1.05× the
    // largest *finite* δ — never at a value below it, and never at a
    // constant detached from the data scale.
    let cfg = mini_cfg(0.5).to_builder().tau_mode(TauMode::Static(0.01)).build().unwrap();
    let mut e = EdmStream::new(cfg, Euclidean);
    feed_two_blobs(&mut e, 300);
    assert_eq!(e.n_clusters(), e.active_len(), "tiny τ: every active cell is a root");
    let (_, delta) = e.decision_graph(3.0);
    let max_finite = e
        .slab()
        .iter()
        .filter(|(_, c)| c.active && c.delta.is_finite())
        .map(|(_, c)| c.delta)
        .fold(0.0, f64::max);
    assert!(max_finite > 0.0);
    let display_max = delta.iter().cloned().fold(0.0, f64::max);
    assert!((display_max - 1.05 * max_finite).abs() < 1e-9, "{display_max} vs {max_finite}");
}

#[test]
fn suggest_tau_ignores_infinite_root_deltas() {
    // Raw decision-graph slices include the root's ∞; the gap scan
    // must not treat it as the largest gap.
    assert_eq!(suggest_tau_from_deltas(&[1.0, 1.1, f64::INFINITY]), Some(1.05));
    assert_eq!(suggest_tau_from_deltas(&[1.0, f64::INFINITY]), None);
    assert_eq!(suggest_tau_from_deltas(&[f64::INFINITY, f64::INFINITY]), None);
    assert_eq!(suggest_tau_from_deltas(&[2.0]), None);
}

#[test]
fn grid_index_prunes_assignment_work_and_stays_coherent() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    // Many well-separated cells, then traffic to one of them.
    for i in 0..40 {
        e.insert(
            &DenseVector::from([(i % 8) as f64 * 5.0, (i / 8) as f64 * 5.0]),
            i as f64 / 100.0,
        );
    }
    e.force_init();
    for i in 0..200 {
        e.insert(&DenseVector::from([0.1, 0.1]), 1.0 + i as f64 / 100.0);
    }
    assert!(e.stats().index_pruned > 0, "grid should skip far cells");
    assert!(e.stats().index_prune_rate() > 0.5, "rate {}", e.stats().index_prune_rate());
    e.check_index().unwrap();
    let snap = e.snapshot(3.0);
    assert_eq!(snap.stats().index_pruned, e.stats().index_pruned);
}

#[test]
fn grid_downgrades_for_metrics_without_the_axis_bound() {
    // A scaled Euclidean violates dist >= |a[k]-b[k]|: coordinate
    // distance 3 is metric distance 0.3 < r, so a grid probing only
    // nearby buckets would silently miss the absorbing cell and
    // spawn a spurious one. The engine must downgrade to the exact
    // scan because the metric never vouched for the bound.
    struct ScaledEuclidean;
    impl Metric<DenseVector> for ScaledEuclidean {
        fn dist(&self, a: &DenseVector, b: &DenseVector) -> f64 {
            0.1 * a.dist(b)
        }
        fn name(&self) -> &'static str {
            "scaled-euclidean"
        }
        // dominates_coordinate_axes: default false.
    }
    let mut e = EdmStream::new(mini_cfg(0.5), ScaledEuclidean);
    e.insert(&DenseVector::from([0.0, 0.0]), 0.0);
    e.force_init();
    // Coordinate distance 3.0 >> r, metric distance 0.3 < r: absorbed.
    for i in 1..40 {
        e.insert(&DenseVector::from([3.0, 0.0]), i as f64 / 100.0);
    }
    assert_eq!(e.n_cells(), 1, "the far-in-coordinates point must still absorb");
    assert_eq!(e.stats().index_pruned, 0, "engine must run the exact scan");
    e.check_index().unwrap();
}

#[test]
fn linear_scan_index_probes_everything() {
    let cfg = mini_cfg(0.5)
        .to_builder()
        .neighbor_index(crate::index::NeighborIndexKind::LinearScan)
        .build()
        .unwrap();
    let mut e = EdmStream::new(cfg, Euclidean);
    feed_two_blobs(&mut e, 200);
    assert_eq!(e.stats().index_pruned, 0);
    assert!(e.stats().index_probed > 0);
    e.check_index().unwrap();
}

#[test]
fn stats_count_points_and_cells() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    feed_two_blobs(&mut e, 150);
    assert_eq!(e.stats().points, 150);
    assert!(e.stats().absorbed > 0);
    // A far-away point after initialization must seed a fresh cell.
    e.insert(&DenseVector::from([321.0, 321.0]), 1.51);
    assert_eq!(e.stats().new_cells, 1);
    assert!(e.n_cells() >= 3);
}

// ----- cover-tree neighbor index -----

#[test]
fn cover_tree_engine_matches_the_linear_scan() {
    // Facade-level smoke check (the proptest suite does the heavy
    // lifting): identical clustering output, and the tree must actually
    // have pruned probes the scan paid for.
    let cover_cfg = mini_cfg(0.5)
        .to_builder()
        .neighbor_index(crate::index::NeighborIndexKind::CoverTree)
        .build()
        .unwrap();
    let linear_cfg = mini_cfg(0.5)
        .to_builder()
        .neighbor_index(crate::index::NeighborIndexKind::LinearScan)
        .build()
        .unwrap();
    let mut cover = EdmStream::new(cover_cfg, Euclidean);
    let mut linear = EdmStream::new(linear_cfg, Euclidean);
    feed_two_blobs(&mut cover, 300);
    feed_two_blobs(&mut linear, 300);
    // A far-flung reservoir lattice plus concentrated traffic: enough
    // population that subtree pruning actually engages (a tree of a
    // handful of cells is all root fanout — it degenerates to a scan).
    for e in [&mut cover, &mut linear] {
        for i in 0..120 {
            e.insert(
                &DenseVector::from([(i % 12) as f64 * 6.0, 20.0 + (i / 12) as f64 * 6.0]),
                3.0 + i as f64 / 100.0,
            );
        }
        for i in 0..200 {
            e.insert(&DenseVector::from([0.05, 0.0]), 4.2 + i as f64 / 100.0);
        }
    }
    let t = 6.2;
    let (c_cells, c_clusters, c_tau, c_events, _) = observe(&mut cover, t);
    let (l_cells, l_clusters, l_tau, l_events, _) = observe(&mut linear, t);
    assert_eq!(c_cells, l_cells);
    assert_eq!(c_clusters, l_clusters);
    assert_eq!(c_tau, l_tau);
    assert_eq!(c_events, l_events);
    assert!(cover.stats().index_pruned > 0, "the tree must prune probes");
    assert!(cover.stats().index_probed < linear.stats().index_probed);
    cover.check_index().unwrap();
    cover.check_invariants(t).unwrap();
}

#[test]
fn cover_tree_indexes_token_sets_the_grid_can_only_scan() {
    use edm_common::metric::Jaccard;
    use edm_common::point::TokenSet;
    // Jaccard is a true metric but has no coordinate embedding: the
    // default grid config downgrades to the linear scan, while the cover
    // tree indexes the sets for real — same output, fewer probes.
    let base = EdmConfig::builder(0.6)
        .rate(100.0)
        .beta_for_threshold(2.0)
        .init_points(10)
        .maintenance_every(8)
        .build()
        .unwrap();
    let cover_cfg = base
        .to_builder()
        .neighbor_index(crate::index::NeighborIndexKind::CoverTree)
        .build()
        .unwrap();
    // 8 disjoint topics (cross-topic Jaccard distance 1.0) of 6 variants
    // each ({t, t+k} pairs: in-topic distance 2/3 > r, so every variant
    // founds its own cell yet routes under its topic-mates in the tree).
    // That gives the tree topic-pure subtrees with covering radii well
    // under the cross-topic distance — the structure pruning needs, and
    // one no coordinate grid could ever see for sets.
    let stream: Vec<(TokenSet, f64)> = (0..600)
        .map(|i| {
            let topic = (i % 8) as u32 * 100;
            let k = 1 + ((i / 8) % 6) as u32;
            (TokenSet::new(vec![topic, topic + k]), i as f64 / 100.0)
        })
        .collect();
    let mut scan = EdmStream::new(base, Jaccard);
    let mut tree = EdmStream::new(cover_cfg, Jaccard);
    for (p, t) in &stream {
        scan.insert(p, *t);
        tree.insert(p, *t);
    }
    assert_eq!(scan.n_clusters(), tree.n_clusters());
    assert_eq!(scan.n_cells(), tree.n_cells());
    assert_eq!(scan.stats().absorbed, tree.stats().absorbed);
    assert_eq!(scan.stats().index_pruned, 0, "grid config must have downgraded to the scan");
    assert!(tree.stats().index_pruned > 0, "the tree must prune even without coordinates");
    tree.check_index().unwrap();
    tree.check_invariants(6.0).unwrap();
}

#[test]
fn cover_tree_downgrades_for_distances_that_never_vouched_for_the_axioms() {
    // A distance that stays silent about the metric axioms must not get
    // triangle-inequality pruning: the engine runs the exact scan.
    struct Unvouched;
    impl Metric<DenseVector> for Unvouched {
        fn dist(&self, a: &DenseVector, b: &DenseVector) -> f64 {
            a.dist(b)
        }
        fn name(&self) -> &'static str {
            "unvouched"
        }
        // is_metric: default false.
    }
    let cfg = mini_cfg(0.5)
        .to_builder()
        .neighbor_index(crate::index::NeighborIndexKind::CoverTree)
        .build()
        .unwrap();
    let mut e = EdmStream::new(cfg, Unvouched);
    for i in 0..100 {
        e.insert(&DenseVector::from([(i % 10) as f64 * 4.0, 0.0]), i as f64 / 100.0);
    }
    assert_eq!(e.stats().index_pruned, 0, "engine must run the exact scan");
    assert!(e.stats().index_probed > 0);
    e.check_index().unwrap();
}

// ----- parallel probe-then-commit batch ingest -----

/// Full observable state of an engine: per-cell tree data, cluster
/// partition, τ, drained events, and stats normalized through
/// [`EngineStats::normalized_for_equivalence`] (the one source of truth
/// for which fields may differ between serial and parallel ingestion).
#[allow(clippy::type_complexity)]
fn observe(
    e: &mut EdmStream<DenseVector, Euclidean>,
    t: f64,
) -> (Vec<(u32, Option<u32>, f64, bool, f64)>, Vec<Vec<u32>>, f64, Vec<crate::Event>, String) {
    let mut cells: Vec<(u32, Option<u32>, f64, bool, f64)> = e
        .slab()
        .iter()
        .map(|(id, c)| (id.0, c.dep.map(|d| d.0), c.delta, c.active, c.raw_rho().0))
        .collect();
    cells.sort_by_key(|c| c.0);
    let snap = e.snapshot(t);
    let clusters: Vec<Vec<u32>> =
        snap.clusters().iter().map(|c| c.cells.iter().map(|id| id.0).collect()).collect();
    let stats = e.stats().normalized_for_equivalence();
    (cells, clusters, snap.tau(), e.take_events(), format!("{stats:?}"))
}

fn parallel_cfg(threads: usize) -> EdmConfig {
    mini_cfg(0.5)
        .to_builder()
        .ingest_threads(std::num::NonZeroUsize::new(threads).unwrap())
        .build()
        .unwrap()
}

/// A stream that exercises birth, absorption, activation, decay,
/// recycling and the init boundary: clustered sites plus wandering
/// outliers, with a recycling horizon short enough to fire mid-stream.
fn churny_batch(n: usize) -> Vec<(DenseVector, f64)> {
    let mut batch = Vec::with_capacity(n);
    let mut x = 7u64;
    for i in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let t = i as f64 / 100.0;
        let p = match x % 10 {
            0..=3 => DenseVector::from([(x % 7) as f64 * 0.1, 0.0]),
            4..=7 => DenseVector::from([10.0 + (x % 5) as f64 * 0.1, 1.0]),
            _ => DenseVector::from([(x % 97) as f64 * 3.0, 50.0 + (x % 31) as f64 * 3.0]),
        };
        batch.push((p, t));
    }
    batch
}

#[test]
fn parallel_batches_match_the_serial_loop_exactly() {
    let batch = churny_batch(700);
    let t = batch.len() as f64 / 100.0;
    let mut serial = EdmStream::new(
        parallel_cfg(1).to_builder().recycle_horizon(2.0).build().unwrap(),
        Euclidean,
    );
    for (p, ts) in &batch {
        serial.insert(p, *ts);
    }
    let want = observe(&mut serial, t);
    for threads in [2usize, 4] {
        let cfg = parallel_cfg(threads).to_builder().recycle_horizon(2.0).build().unwrap();
        for chunk in [33usize, 256, 701] {
            let mut e = EdmStream::new(cfg.clone(), Euclidean);
            for window in batch.chunks(chunk) {
                e.insert_batch(window);
            }
            let got = observe(&mut e, t);
            assert_eq!(got, want, "threads={threads}, chunk={chunk}");
            assert!(e.check_invariants(t).is_ok());
            assert!(e.check_index().is_ok());
        }
    }
}

#[test]
fn parallel_path_counts_probes_and_revalidations() {
    let batch = churny_batch(600);
    let mut e = EdmStream::new(parallel_cfg(3), Euclidean);
    e.insert_batch(&batch);
    let s = e.stats();
    assert!(s.parallel_batches > 0, "the two-phase path must engage");
    assert!(s.probe_tasks > 0);
    // The outlier tail keeps birthing cells, so some probes must have
    // been revalidated — and never more than were fanned out.
    assert!(s.probe_revalidations > 0, "churny stream must trigger revalidation");
    assert!(s.probe_revalidations <= s.probe_tasks);
    assert!(s.probe_revalidation_rate() > 0.0);
    // Serial ingestion leaves all three counters untouched — unless the
    // CI harness knob is forcing the parallel path onto default engines,
    // in which case there is no serial engine to observe.
    if std::env::var_os("EDM_FORCE_INGEST_THREADS").is_none() {
        let mut serial = EdmStream::new(parallel_cfg(1), Euclidean);
        serial.insert_batch(&batch);
        assert_eq!(serial.stats().probe_tasks, 0);
        assert_eq!(serial.stats().parallel_batches, 0);
        assert_eq!(serial.stats().probe_revalidations, 0);
    }
}

#[test]
fn parallel_counters_freeze_into_snapshots() {
    let batch = churny_batch(300);
    let mut e = EdmStream::new(parallel_cfg(2), Euclidean);
    e.insert_batch(&batch);
    let snap = e.snapshot(3.0);
    assert_eq!(snap.stats().probe_tasks, e.stats().probe_tasks);
    assert_eq!(snap.stats().parallel_batches, e.stats().parallel_batches);
    assert!(snap.stats().probe_tasks > 0);
}

#[test]
fn parallel_try_insert_batch_ingests_the_prefix_and_reports_the_offender() {
    let mut serial = EdmStream::new(parallel_cfg(1), Euclidean);
    let mut parallel = EdmStream::new(parallel_cfg(4), Euclidean);
    // Warm both past initialization so the parallel path is really live.
    let warm = churny_batch(120);
    serial.insert_batch(&warm);
    parallel.insert_batch(&warm);
    assert!(parallel.is_initialized());
    let mut bad = churny_batch(80);
    for (i, (_, t)) in bad.iter_mut().enumerate() {
        *t = 2.0 + i as f64 / 100.0;
    }
    bad[50].1 = 0.5; // regression behind both the stream clock and the batch
    let se = serial.try_insert_batch(&bad).unwrap_err();
    let pe = parallel.try_insert_batch(&bad).unwrap_err();
    assert_eq!(se, pe);
    assert_eq!(se.0, 50);
    assert_eq!(serial.stats().points, parallel.stats().points);
    let t = 3.0;
    assert_eq!(observe(&mut serial, t).0, observe(&mut parallel, t).0);
}

#[test]
fn parallel_path_works_for_coordinate_less_payloads() {
    use edm_common::metric::Jaccard;
    use edm_common::point::TokenSet;
    // TokenSet has no grid coordinates: the engine runs the linear scan
    // and every birth conflicts with every pending probe — the parallel
    // path must stay correct (if slower) under total invalidation.
    let cfg = EdmConfig::builder(0.6)
        .rate(100.0)
        .beta_for_threshold(2.0)
        .init_points(10)
        .maintenance_every(8)
        .build()
        .unwrap();
    let par_cfg =
        cfg.to_builder().ingest_threads(std::num::NonZeroUsize::new(3).unwrap()).build().unwrap();
    let batch: Vec<(TokenSet, f64)> = (0..200)
        .map(|i| {
            let base = (i % 3) as u32 * 100;
            (TokenSet::new(vec![base, base + 1, base + 2, (i as u32) % 5 + base]), i as f64 / 100.0)
        })
        .collect();
    let mut serial = EdmStream::new(cfg, Jaccard);
    for (p, t) in &batch {
        serial.insert(p, *t);
    }
    let mut parallel = EdmStream::new(par_cfg, Jaccard);
    parallel.insert_batch(&batch);
    assert_eq!(serial.n_clusters(), parallel.n_clusters());
    assert_eq!(serial.n_cells(), parallel.n_cells());
    assert_eq!(serial.stats().points, parallel.stats().points);
    assert_eq!(serial.stats().absorbed, parallel.stats().absorbed);
    assert!(parallel.stats().probe_tasks > 0);
}

#[test]
fn cover_tree_parallel_ingest_matches_the_serial_loop() {
    // The forced-threads CI leg only covers engines that defaulted their
    // index, so the explicit cover-tree + parallel combination gets its
    // own equivalence check: the tree's birth-conflict horizons and
    // radius re-tightening must keep cached probes exactly replayable.
    let batch = churny_batch(600);
    let t = batch.len() as f64 / 100.0;
    let cover = |threads: usize| {
        parallel_cfg(threads)
            .to_builder()
            .neighbor_index(crate::index::NeighborIndexKind::CoverTree)
            .recycle_horizon(2.0)
            .build()
            .unwrap()
    };
    let mut serial = EdmStream::new(cover(1), Euclidean);
    for (p, ts) in &batch {
        serial.insert(p, *ts);
    }
    let mut parallel = EdmStream::new(cover(4), Euclidean);
    for window in batch.chunks(128) {
        parallel.insert_batch(window);
    }
    assert_eq!(observe(&mut serial, t), observe(&mut parallel, t));
    assert!(parallel.stats().probe_tasks > 0);
    assert!(parallel.check_index().is_ok());
    assert!(parallel.check_invariants(t).is_ok());
}

#[test]
fn far_births_no_longer_revalidate_unrelated_probes() {
    // One far-away birth at the head of a round must not force the
    // hundreds of origin-cluster probes behind it to be redone: the
    // index's conflict geometry clears them, and the engine meters every
    // probe so kept.
    let mut e = EdmStream::new(parallel_cfg(2), Euclidean);
    let warm: Vec<(DenseVector, f64)> = (0..120)
        .map(|i| (DenseVector::from([(i % 5) as f64 * 0.1, 0.0]), i as f64 / 100.0))
        .collect();
    e.insert_batch(&warm);
    assert!(e.is_initialized());
    let mut round: Vec<(DenseVector, f64)> = vec![(DenseVector::from([50.0, 50.0]), 1.2)];
    round.extend((0..200).map(|i| (DenseVector::from([0.05, 0.0]), 1.21 + i as f64 / 1000.0)));
    e.insert_batch(&round);
    let s = e.stats();
    assert!(s.probe_revalidations_avoided > 0, "origin probes must replay despite the far birth");
    // And the saving is invisible to the equivalence contract.
    assert_eq!(s.normalized_for_equivalence().probe_revalidations_avoided, 0);
}

#[test]
fn publish_snapshot_stamps_monotone_generations() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    feed_two_blobs(&mut e, 200);
    // A passive freeze observes generation 0 and counts nothing.
    let passive = e.snapshot(2.0);
    assert_eq!(passive.generation(), 0);
    assert_eq!(passive.stats().snapshots_published, 0);
    // Publications count themselves: generation == publications so far,
    // and the frozen stats agree with the stamp.
    let first = e.publish_snapshot(2.0);
    assert_eq!(first.generation(), 1);
    assert_eq!(first.stats().snapshots_published, 1);
    let second = e.publish_snapshot(2.0);
    assert_eq!(second.generation(), 2);
    // Publication is pure observation: the clustering is untouched and a
    // later passive freeze sees the count without bumping it.
    assert_eq!(first.n_clusters(), second.n_clusters());
    assert_eq!(e.snapshot(2.0).generation(), 2);
    assert_eq!(e.stats().snapshots_published, 2);
    // Equivalence normalization treats publication as an observer
    // artifact, like the parallel-path counters.
    assert_eq!(e.stats().normalized_for_equivalence().snapshots_published, 0);
    // as_of is the freeze time.
    assert_eq!(second.as_of(), 2.0);
}

#[test]
fn stream_time_tracks_the_newest_ingested_timestamp() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    assert_eq!(e.stream_time(), 0.0);
    feed_two_blobs(&mut e, 150);
    assert!((e.stream_time() - 149.0 / 100.0).abs() < 1e-12);
}

#[test]
fn lineage_resolves_a_real_merge_through_ingest() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    for i in 0..300 {
        let t = i as f64 / 100.0;
        let jitter = (i % 5) as f64 * 0.05;
        let p = if i % 2 == 0 {
            DenseVector::from([jitter, 0.0])
        } else {
            DenseVector::from([6.0 + jitter, 0.0])
        };
        e.insert(&p, t);
    }
    assert_eq!(e.n_clusters(), 2);
    for i in 0..1_200 {
        let t = 3.0 + i as f64 / 100.0;
        let x = 0.5 + 5.0 * ((i % 11) as f64 / 11.0);
        e.insert(&DenseVector::from([x, 0.0]), t);
    }
    assert_eq!(e.n_clusters(), 1, "bridge should merge the blobs");
    assert_eq!(e.evolution_events_lost(), 0);
    // Find the merge in the log and cross-check the lineage answer.
    let merge = e
        .events_since(EventCursor::START)
        .into_iter()
        .find(|ev| matches!(ev.kind, EventKind::Merge { .. }))
        .expect("merge recorded");
    let EventKind::Merge { from, into } = merge.kind else { unreachable!() };
    for victim in from {
        let lineage = e.lineage_of(victim).expect("lossless run answers lineage");
        // First hop of the identity chain is this merge's survivor; the
        // survivor may itself be absorbed later, so the chain resolves
        // transitively to a cluster that is alive at stream end (exactly
        // one cluster remains).
        assert_eq!(lineage.absorbed_into.first().copied(), Some(into));
        assert!(!lineage.ancestry[0].is_alive(), "victim identity must have ended");
        assert!(lineage.alive, "the merged identity lives on");
        assert!(
            e.lineage_graph().node(lineage.current).expect("tracked").is_alive(),
            "current must name the live cluster"
        );
        // The chain the lineage reports is the chain the graph records.
        let mut cur = victim;
        for &hop in &lineage.absorbed_into {
            use crate::evolve::EndKind;
            let end = e.lineage_graph().node(cur).expect("tracked").end.expect("absorbed");
            assert_eq!(end.kind, EndKind::MergedInto { survivor: hop });
            cur = hop;
        }
        assert_eq!(cur, lineage.current);
    }
}

#[test]
fn digest_since_reports_a_merge_between_publications() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    for i in 0..300 {
        let t = i as f64 / 100.0;
        let jitter = (i % 5) as f64 * 0.05;
        let p = if i % 2 == 0 {
            DenseVector::from([jitter, 0.0])
        } else {
            DenseVector::from([6.0 + jitter, 0.0])
        };
        e.insert(&p, t);
    }
    let before = e.publish_snapshot(3.0);
    assert_eq!(before.n_clusters(), 2);
    for i in 0..1_200 {
        let t = 3.0 + i as f64 / 100.0;
        let x = 0.5 + 5.0 * ((i % 11) as f64 / 11.0);
        e.insert(&DenseVector::from([x, 0.0]), t);
    }
    let after = e.publish_snapshot(15.0);
    assert_eq!(after.n_clusters(), 1);
    let d = e.digest_since(before.generation()).expect("window held");
    assert_eq!((d.from_generation, d.to_generation), (before.generation(), after.generation()));
    assert!(!d.merges.is_empty(), "digest missed the merge");
    assert!(!d.is_quiet());
    // Every merge victim is a death; the survivor is not.
    for m in &d.merges {
        for victim in &m.from {
            assert!(d.deaths.contains(victim));
        }
    }
    // Drift entries exist exactly for clusters alive at both window
    // ends: the final survivor carries one iff it predates the window
    // (it may have been born mid-window, e.g. as the bridge's own
    // emergent cluster).
    let survivor = d.merges.last().expect("merge present").into;
    assert_eq!(
        d.drift_of(survivor).is_some(),
        !d.births.contains(&survivor),
        "drift iff the survivor was alive at the window start"
    );
    for drift in &d.drifts {
        assert!(!d.births.contains(&drift.cluster), "mid-window births cannot drift");
        assert!(!d.deaths.contains(&drift.cluster), "mid-window deaths cannot drift");
    }
}

#[test]
fn publish_cadence_summaries_track_centroid_mass_and_extent() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    feed_two_blobs(&mut e, 300);
    let snap = e.publish_snapshot(3.0);
    assert_eq!(snap.summaries().len(), 2, "one summary per live cluster");
    for s in snap.summaries() {
        assert!(s.mass > 0.0);
        assert!(s.cells > 0);
        assert_eq!((s.first_generation, s.last_seen), (snap.generation(), snap.generation()));
        let centroid = s.centroid.as_ref().expect("dense payloads have centroids");
        let bounds = s.bounds.as_ref().expect("dense payloads have bounds");
        assert!(bounds.contains(centroid), "centroid inside its own bounding box");
        // Blobs sit at x≈0 and x≈10: each centroid hugs one of them.
        assert!(centroid[0] < 1.0 || (centroid[0] - 10.0).abs() < 1.0, "centroid {centroid:?}");
    }
    // The rolling tracker agrees with the per-snapshot view, and keeps
    // `first_generation` pinned across republications.
    let again = e.publish_snapshot(3.1);
    for s in again.summaries() {
        let rolling = e.summary_of(s.cluster).expect("tracked");
        assert_eq!(rolling.first_generation, snap.generation());
        assert_eq!(rolling.last_seen, again.generation());
    }
    assert_eq!(e.tracked_summaries().count(), 2);
}
