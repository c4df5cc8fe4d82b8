//! Engine behavior tests, exercising all three pipeline layers through
//! the public facade.

use super::*;
use crate::evolution::{EventCursor, EventKind};
use crate::filters::FilterConfig;
use crate::tau::TauMode;
use edm_common::metric::Euclidean;
use edm_common::point::DenseVector;
use std::sync::Arc;

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
fn try_insert_rejects_non_finite_timestamps_and_batch_reports_index() {
    use crate::error::EdmError;
    for threads in [1usize, 4] {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut e = EdmStream::new(parallel_cfg(threads), Euclidean);
            feed_two_blobs(&mut e, 100);
            let now = e.stream_time();
            let err = e.try_insert(&DenseVector::from([0.1, 0.0]), bad).unwrap_err();
            assert!(
                matches!(err, EdmError::NonFiniteTime { t } if t.to_bits() == bad.to_bits()),
                "{bad}: {err:?}"
            );
            assert_eq!(e.stream_time(), now, "{bad} moved the clock");
            // Batch: index 2 is the offender; points 0 and 1 are ingested.
            let points = e.stats().points;
            let batch: Vec<(DenseVector, f64)> = [now + 0.01, now + 0.02, bad, now + 0.03]
                .iter()
                .map(|&t| (DenseVector::from([0.1, 0.0]), t))
                .collect();
            let (i, err) = e.try_insert_batch(&batch).unwrap_err();
            assert_eq!(i, 2, "threads={threads}, {bad}");
            assert!(matches!(err, EdmError::NonFiniteTime { .. }), "{bad}: {err:?}");
            assert_eq!(e.stats().points, points + 2);
            assert_eq!(e.stream_time(), now + 0.02);
            e.check_invariants(e.stream_time()).unwrap();
            // The clock still accepts finite points afterwards.
            e.try_insert(&DenseVector::from([0.1, 0.0]), now + 0.03).unwrap();
        }
    }
}

#[test]
fn points_of_another_dimensionality_are_refused_with_their_index() {
    use crate::error::EdmError;
    for threads in [1usize, 4] {
        for bad_dim in [1usize, 16] {
            let mut e = EdmStream::new(parallel_cfg(threads), Euclidean);
            assert_eq!(e.dimension(), None);
            feed_two_blobs(&mut e, 100);
            assert_eq!(e.dimension(), Some(2));
            let now = e.stream_time();
            let bad = DenseVector::new(vec![0.1; bad_dim]);
            let mismatch = EdmError::DimensionMismatch { expected: 2, got: bad_dim };
            assert_eq!(e.try_insert(&bad, now + 0.01), Err(mismatch));
            assert_eq!(e.stream_time(), now, "a refused point moved the clock");
            // Batch: index 2 is the offender; points 0 and 1 are ingested.
            let points = e.stats().points;
            let mut batch: Vec<(DenseVector, f64)> = (1..=4)
                .map(|k| (DenseVector::from([0.1 * k as f64, 0.0]), now + 0.01 * k as f64))
                .collect();
            batch[2].0 = bad.clone();
            assert_eq!(e.try_insert_batch(&batch), Err((2, mismatch)), "threads={threads}");
            assert_eq!(e.stats().points, points + 2);
            assert_eq!(e.stream_time(), now + 0.02);
            e.check_invariants(e.stream_time()).unwrap();
            e.check_index().unwrap();
            // The stream keeps accepting its own dimensionality.
            e.try_insert(&DenseVector::from([0.1, 0.0]), now + 0.03).unwrap();
            assert_eq!(e.dimension(), Some(2));
        }
    }
}

#[test]
fn non_finite_coordinates_are_refused_and_found_no_cells() {
    use crate::error::EdmError;
    for threads in [1usize, 4] {
        let mut e = EdmStream::new(parallel_cfg(threads), Euclidean);
        feed_two_blobs(&mut e, 100);
        let cells = e.n_cells();
        let mut t = e.stream_time();
        for i in 0..64 {
            t += 0.01;
            let bad = if i % 2 == 0 { [f64::NAN, 0.0] } else { [0.0, f64::NEG_INFINITY] };
            let axis = i % 2;
            let err = e.try_insert(&DenseVector::from(bad), t).unwrap_err();
            assert_eq!(err, EdmError::NonFiniteCoordinate { axis }, "point {i}");
        }
        assert_eq!(e.n_cells(), cells, "a refused point founded a cell");
        let batch = vec![
            (DenseVector::from([0.1, 0.0]), t),
            (DenseVector::from([f64::INFINITY, 0.0]), t),
            (DenseVector::from([0.1, 0.0]), t),
        ];
        assert_eq!(
            e.try_insert_batch(&batch),
            Err((1, EdmError::NonFiniteCoordinate { axis: 0 })),
            "threads={threads}"
        );
        assert_eq!(e.n_cells(), cells);
        e.check_invariants(t).unwrap();
    }
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
    let grid = mini_cfg(0.5)
        .to_builder()
        .neighbor_index(crate::index::NeighborIndexKind::Grid)
        .build()
        .unwrap();
    let mut e = EdmStream::new(grid, ScaledEuclidean);
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

// ----- the engine's pick of neighbor index -----

/// The index an engine with `cfg` and `metric` builds for a stream of
/// `dim`-d points, read after initialization.
fn picked_for<M: Metric<DenseVector>>(cfg: EdmConfig, metric: M, dim: usize) -> &'static str {
    let mut e = EdmStream::new(cfg, metric);
    assert_eq!(e.index_label(), "linear", "the empty stand-in");
    for i in 0..60 {
        let mut p = DenseVector::zeros(dim);
        p.coords_mut()[0] = (i % 6) as f64 * 3.0;
        e.insert(&p, i as f64 / 100.0);
    }
    assert!(e.is_initialized());
    e.check_index().unwrap();
    e.index_label()
}

#[test]
fn the_engine_picks_the_grid_for_low_dimensional_vectors() {
    assert_eq!(picked_for(mini_cfg(0.5), Euclidean, 2), "grid");
    assert_eq!(picked_for(mini_cfg(0.5), Euclidean, crate::index::GRID_MAX_DIM), "grid");
}

#[test]
fn the_engine_picks_the_cover_tree_above_the_grid_limit() {
    assert_eq!(picked_for(mini_cfg(0.5), Euclidean, crate::index::GRID_MAX_DIM + 1), "cover-tree");
    assert_eq!(picked_for(mini_cfg(0.5), Euclidean, 16), "cover-tree");
}

#[test]
fn the_engine_picks_the_cover_tree_for_token_sets() {
    use edm_common::metric::Jaccard;
    use edm_common::point::TokenSet;
    let mut e = EdmStream::new(mini_cfg(0.6), Jaccard);
    assert_eq!(e.index_label(), "linear");
    for i in 0..60u32 {
        e.insert(&TokenSet::new(vec![i % 6 * 10, i % 6 * 10 + 1]), f64::from(i) / 100.0);
    }
    assert_eq!(e.dimension(), None, "token sets have no coordinates");
    assert_eq!(e.index_label(), "cover-tree");
    e.check_index().unwrap();
}

#[test]
fn the_engine_scans_for_a_metric_with_neither_marker() {
    struct Unmarked;
    impl Metric<DenseVector> for Unmarked {
        fn dist(&self, a: &DenseVector, b: &DenseVector) -> f64 {
            a.dist(b)
        }
        fn name(&self) -> &'static str {
            "unmarked"
        }
    }
    assert_eq!(picked_for(mini_cfg(0.5), Unmarked, 2), "linear");
    assert_eq!(picked_for(mini_cfg(0.5), Unmarked, 16), "linear");
}

#[test]
fn an_explicit_index_kind_wins_over_the_pick() {
    use crate::index::NeighborIndexKind;
    let with = |kind| mini_cfg(0.5).to_builder().neighbor_index(kind).build().unwrap();
    assert_eq!(picked_for(with(NeighborIndexKind::Grid), Euclidean, 16), "grid");
    assert_eq!(picked_for(with(NeighborIndexKind::CoverTree), Euclidean, 2), "cover-tree");
    assert_eq!(picked_for(with(NeighborIndexKind::LinearScan), Euclidean, 2), "linear");
    assert_eq!(picked_for(with(NeighborIndexKind::LinearScan), Euclidean, 16), "linear");
}

#[test]
fn an_empty_initialization_leaves_the_pick_to_the_first_point() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    e.force_init();
    assert!(e.is_initialized());
    assert_eq!(e.index_label(), "linear", "no cell yet: the stand-in");
    let mut t = 0.0;
    for i in 0..200 {
        t += 0.01;
        let mut p = DenseVector::zeros(16);
        p.coords_mut()[i % 8] = (i % 5) as f64 * 2.0;
        e.insert(&p, t);
    }
    assert_eq!(e.dimension(), Some(16));
    assert_eq!(e.index_label(), "cover-tree");
    assert!(e.stats().index_pruned > 0, "the tree prunes");
    e.check_index().unwrap();
    e.check_invariants(t).unwrap();
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
    // Jaccard is a true metric but has no coordinate embedding: a grid
    // config downgrades to the linear scan, while the cover tree indexes
    // the sets for real — same output, fewer probes.
    let base = EdmConfig::builder(0.6)
        .rate(100.0)
        .beta_for_threshold(2.0)
        .init_points(10)
        .maintenance_every(8)
        .neighbor_index(crate::index::NeighborIndexKind::Grid)
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
    // TokenSet has no grid coordinates: the engine picks the cover tree,
    // on which every birth redoes the rest of its round's probes — the
    // parallel path must stay exact under it.
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
    // own equivalence check: the tree's births and radius re-tightening
    // must keep cached probes exactly replayable.
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
    // grid's horizon clears them, and the engine meters every probe so
    // kept.
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

/// Feeds `points` one at a time to a fresh engine on `serial_cfg` and
/// checks that it observes at `t` what `parallel`, already fed the same
/// points in batches, observes.
fn assert_batch_matches_serial(
    serial_cfg: EdmConfig,
    parallel: &mut EdmStream<DenseVector, Euclidean>,
    points: &[(DenseVector, f64)],
    t: f64,
) {
    let mut serial = EdmStream::new(serial_cfg, Euclidean);
    for (p, ts) in points {
        serial.insert(p, *ts);
    }
    assert_eq!(observe(&mut serial, t), observe(parallel, t));
}

#[test]
fn cover_tree_births_redo_every_later_probe_of_the_round() {
    // The cover tree clears no probe after a birth. The layout is one in
    // which a proof over its covering radii could clear the origin
    // probes: the far birth lands inside a far cluster's subtree and
    // widens no radius on the origin's path (a sentinel farther out
    // fixes the root's). Every probe behind the birth is redone anyway.
    let cover = |threads: usize| {
        parallel_cfg(threads)
            .to_builder()
            .neighbor_index(crate::index::NeighborIndexKind::CoverTree)
            .build()
            .unwrap()
    };
    let mut points: Vec<(DenseVector, f64)> = [
        [0.0, 0.0],
        [300.0, 300.0],
        [100.0, 100.0],
        [101.0, 100.0],
        [100.0, 101.0],
        [101.0, 101.0],
    ]
    .iter()
    .enumerate()
    .map(|(i, &c)| (DenseVector::from(c), i as f64 / 100.0))
    .collect();
    points.extend(
        (6..120).map(|i| (DenseVector::from([(i % 5) as f64 * 0.1, 0.0]), i as f64 / 100.0)),
    );
    let mut e = EdmStream::new(cover(2), Euclidean);
    e.insert_batch(&points);
    assert!(e.is_initialized());
    let before = e.stats().clone();
    let mut round: Vec<(DenseVector, f64)> = vec![(DenseVector::from([100.5, 100.5]), 1.2)];
    round.extend((0..200).map(|i| (DenseVector::from([0.05, 0.0]), 1.21 + i as f64 / 1000.0)));
    e.insert_batch(&round);
    let s = e.stats();
    assert_eq!(s.new_cells - before.new_cells, 1, "the round opens with one birth");
    assert_eq!(
        s.probe_revalidations - before.probe_revalidations,
        200,
        "every probe behind the birth is redone"
    );
    assert_eq!(s.probe_revalidations_avoided, 0);
    points.extend(round);
    assert_batch_matches_serial(cover(1), &mut e, &points, 1.5);
}

#[test]
fn births_past_the_tracked_ones_redo_every_later_probe_of_the_round() {
    // On the grid, each of a round's first MAX_BIRTH_TRACKING births
    // clears the far probes behind it. The next birth saturates the
    // ledger: every probe after it is redone, however far it lies.
    use super::ingest::MAX_BIRTH_TRACKING;
    let mut e = EdmStream::new(parallel_cfg(2), Euclidean);
    let mut points: Vec<(DenseVector, f64)> = (0..120)
        .map(|i| (DenseVector::from([(i % 5) as f64 * 0.1, 0.0]), i as f64 / 100.0))
        .collect();
    e.insert_batch(&points);
    assert!(e.is_initialized());
    assert_eq!(e.index_label(), "grid");
    let before = e.stats().clone();
    let far = MAX_BIRTH_TRACKING + 8;
    let mut round: Vec<(DenseVector, f64)> = (0..far)
        .map(|k| (DenseVector::from([50.0 + 3.0 * k as f64, 50.0]), 1.2 + k as f64 / 1000.0))
        .collect();
    round.extend((0..200).map(|i| (DenseVector::from([0.05, 0.0]), 1.3 + i as f64 / 1000.0)));
    e.insert_batch(&round);
    let s = e.stats();
    assert_eq!(s.new_cells - before.new_cells, far as u64, "every far point founds a cell");
    // Births 2 to MAX_BIRTH_TRACKING + 1 were each cleared against the
    // tracked births before them.
    assert_eq!(
        s.probe_revalidations_avoided - before.probe_revalidations_avoided,
        MAX_BIRTH_TRACKING as u64
    );
    assert_eq!(
        s.probe_revalidations - before.probe_revalidations,
        (round.len() - MAX_BIRTH_TRACKING - 1) as u64,
        "every probe after the saturating birth is redone"
    );
    points.extend(round);
    assert_batch_matches_serial(parallel_cfg(1), &mut e, &points, 1.6);
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

// ----- the evolution diff over touched clusters == the full diff -----

/// The reference evolution bookkeeping, the full diff: every active cell
/// regrouped by strong root and every live cluster matched, on its own
/// registry, log and labels. The engine's sweep events (`BecameOutliers`)
/// are logged outside the diff, so the replica's log has none.
struct FullDiffReplica {
    registry: crate::evolution::ClusterRegistry,
    log: crate::evolution::EvolutionLog,
    labels: edm_common::hash::FxHashMap<CellId, crate::evolution::ClusterId>,
}

impl FullDiffReplica {
    fn new() -> Self {
        FullDiffReplica {
            registry: crate::evolution::ClusterRegistry::new(),
            log: crate::evolution::EvolutionLog::new(),
            labels: edm_common::hash::fx_map(),
        }
    }

    /// Diffs `e`'s whole current partition at `t`.
    fn diff(&mut self, e: &EdmStream<DenseVector, Euclidean>, t: f64) {
        use crate::evolution::GroupInput;
        // A cell that left the tree lost its label; one that entered has none.
        self.labels.retain(|&id, _| e.slab.contains(id) && e.slab.get(id).active);
        let mut groups: std::collections::BTreeMap<CellId, GroupInput> = Default::default();
        for id in e.sorted_active_ids() {
            let root = crate::tree::strong_root(&e.slab, id, e.tau());
            groups
                .entry(root)
                .or_insert_with(|| GroupInput { root, members: Vec::new() })
                .members
                .push((id, self.labels.get(&id).copied()));
        }
        let groups: Vec<GroupInput> = groups.into_values().collect();
        let live: Vec<u64> = self.registry.clusters().map(|(id, _)| id).collect();
        for (cell, id) in self.registry.diff(t, &groups, &live, &mut self.log) {
            self.labels.insert(cell, id);
        }
    }
}

/// Live clusters of a registry as sorted `(root, id, size, born)` rows.
fn registry_rows(reg: &crate::evolution::ClusterRegistry) -> Vec<(u32, u64, usize, u64)> {
    let mut rows: Vec<(u32, u64, usize, u64)> =
        reg.clusters().map(|(id, m)| (m.root.0, id, m.size, m.born.to_bits())).collect();
    rows.sort_unstable();
    rows
}

/// The reference streams' config: density halves every stream second, so
/// the sweep demotes starved cells within a few hundred points, and
/// reservoir cells idle for 2 s are recycled.
fn reference_cfg(tau: TauMode) -> EdmConfig {
    EdmConfig::builder(0.5)
        .rate(100.0)
        .decay(edm_common::decay::DecayModel::new(0.5, 1.0))
        .beta_for_threshold(3.0)
        .init_points(20)
        .tau_every(8)
        .maintenance_every(4)
        .recycle_horizon(2.0)
        .tau_mode(tau)
        .build()
        .expect("reference config is valid")
}

/// One reference-stream point, from its index `i` and the raw draws:
/// mostly four blobs, one of which starves in each 80-point phase so
/// clusters die and return; a bridge between the two nearest blobs that
/// can merge them and, once it decays, split them again; and outliers
/// that seed reservoir cells.
fn reference_point(i: usize, site: u64, u: f64, v: f64) -> DenseVector {
    const BLOBS: [[f64; 2]; 4] = [[0.0, 0.0], [1.6, 0.0], [6.0, 0.0], [6.0, 4.0]];
    match site {
        0..=5 => {
            let starved = (i / 80) % 4;
            let mut b = site as usize % 4;
            if b == starved {
                b = (b + 1) % 4;
            }
            DenseVector::from([BLOBS[b][0] + 0.6 * u - 0.3, BLOBS[b][1] + 0.6 * v - 0.3])
        }
        6 => DenseVector::from([0.8 + 0.4 * u - 0.2, 0.2 * v]),
        _ => DenseVector::from([30.0 * u - 10.0, 30.0 * v - 10.0]),
    }
}

/// What a reference stream put the engine through.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    births: u64,
    activations: u64,
    deactivations: u64,
    recycled: u64,
    tau_changes: u64,
    emerges: u64,
    disappears: u64,
    splits: u64,
    merges: u64,
}

/// Drives one engine over `ops` (`(site, u, v, step)` draws) and checks it
/// after every point against a [`FullDiffReplica`]: the same diff events
/// in the same order, the same label on every active cell, the same
/// registered clusters, and `check_invariants` (whose label check covers
/// the registry against the tree).
fn run_against_full_diff(tau: TauMode, ops: &[(u64, f64, f64, u64)]) -> Result<Coverage, String> {
    let mut e = EdmStream::new(reference_cfg(tau), Euclidean);
    let mut replica = FullDiffReplica::new();
    let (mut seen, mut seen_replica) = (EventCursor::START, EventCursor::START);
    let mut cov = Coverage::default();
    let mut t = 0.0;
    for (i, &(site, u, v, step)) in ops.iter().enumerate() {
        t += if step == 0 { 1.0 + 2.0 * u } else { 0.01 };
        let tau_before = e.tau();
        e.insert(&reference_point(i, site, u, v), t);
        // Adaptive τ starts infinite; its first finite value is τ₀.
        if tau_before.is_finite() && e.tau() != tau_before {
            cov.tau_changes += 1;
        }
        replica.diff(&e, t);
        let got: Vec<crate::Event> = e
            .events_since(seen)
            .into_iter()
            .filter(|ev| {
                !matches!(
                    ev.kind,
                    EventKind::Adjust { kind: crate::evolution::AdjustKind::BecameOutliers, .. }
                )
            })
            .collect();
        let want: Vec<crate::Event> = replica.log.events_since(seen_replica).cloned().collect();
        if got != want {
            return Err(format!("point {i} (t={t}): events {got:?}, full diff {want:?}"));
        }
        for ev in &got {
            match ev.kind {
                EventKind::Emerge { .. } => cov.emerges += 1,
                EventKind::Disappear { .. } => cov.disappears += 1,
                EventKind::Split { .. } => cov.splits += 1,
                EventKind::Merge { .. } => cov.merges += 1,
                EventKind::Adjust { .. } => {}
            }
        }
        seen = e.event_cursor();
        seen_replica = replica.log.cursor();
        for &id in &e.active_ids {
            let (label, want) = (e.slab.get(id).cluster, replica.labels.get(&id).copied());
            if label != want {
                return Err(format!("point {i}: {id} labelled {label:?}, full diff {want:?}"));
            }
        }
        let (rows, want) = (registry_rows(&e.registry), registry_rows(&replica.registry));
        if rows != want {
            return Err(format!("point {i}: clusters {rows:?}, full diff {want:?}"));
        }
        e.check_invariants(t).map_err(|err| format!("point {i}: {err}"))?;
    }
    let s = e.stats();
    cov.births = s.new_cells;
    cov.activations = s.activations;
    cov.deactivations = s.deactivations;
    cov.recycled = s.recycled;
    Ok(cov)
}

/// Ops for [`run_against_full_diff`]: site 0–7, two unit draws, and a
/// step in 0–39 (0 jumps the clock 1–3 s, anything else advances 10 ms).
fn reference_ops() -> impl proptest::prelude::Strategy<Value = Vec<(u64, f64, f64, u64)>> {
    proptest::prelude::prop::collection::vec(
        (0u64..8, 0.0f64..1.0, 0.0f64..1.0, 0u64..40),
        100..500,
    )
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// Diffing only the clusters a structural change reached yields the
    /// full diff's events, labels and registry after every point, under a
    /// fixed and an adaptive τ.
    #[test]
    fn touched_cluster_diff_matches_the_full_diff(
        ops in reference_ops(),
        adaptive in proptest::prelude::any::<bool>(),
    ) {
        let tau = if adaptive { TauMode::Adaptive { alpha: None } } else { TauMode::Static(1.0) };
        if let Err(e) = run_against_full_diff(tau, &ops) {
            return Err(format!("{tau:?}: {e}"));
        }
    }
}

/// The reference streams reach every kind of structural change the
/// restricted diff must handle, under both τ modes.
#[test]
fn reference_streams_cover_every_structural_change() {
    for tau in [TauMode::Static(1.0), TauMode::Adaptive { alpha: None }] {
        let mut total = Coverage::default();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..4 {
            let ops: Vec<(u64, f64, f64, u64)> = (0..400)
                .map(|_| {
                    let unit = |r: u64| (r >> 11) as f64 / (1u64 << 53) as f64;
                    (draw() % 8, unit(draw()), unit(draw()), draw() % 40)
                })
                .collect();
            let c = run_against_full_diff(tau, &ops).unwrap();
            total.births += c.births;
            total.activations += c.activations;
            total.deactivations += c.deactivations;
            total.recycled += c.recycled;
            total.tau_changes += c.tau_changes;
            total.emerges += c.emerges;
            total.disappears += c.disappears;
            total.splits += c.splits;
            total.merges += c.merges;
        }
        let Coverage {
            births,
            activations,
            deactivations,
            recycled,
            tau_changes,
            emerges,
            disappears,
            splits,
            merges,
        } = total;
        assert!(
            [births, activations, deactivations, recycled, emerges, disappears, splits, merges]
                .iter()
                .all(|&n| n > 0),
            "{tau:?}: {total:?}"
        );
        assert_eq!(tau_changes > 0, matches!(tau, TauMode::Adaptive { .. }), "{tau:?}: {total:?}");
    }
}

#[test]
fn publish_nanos_grow_on_publication_only() {
    let mut e = EdmStream::new(mini_cfg(0.5), Euclidean);
    feed_two_blobs(&mut e, 200);
    assert_eq!(e.stats().publish_nanos, 0, "ingest publishes nothing");
    let _ = e.publish_snapshot(2.0);
    let after_first = e.stats().publish_nanos;
    assert!(after_first > 0, "the publication is timed");
    let _ = e.snapshot(2.0);
    assert_eq!(e.stats().publish_nanos, after_first, "a plain freeze is not a publication");
    let _ = e.publish_snapshot(2.0);
    assert!(e.stats().publish_nanos > after_first);
    // Wall clock: exempt from the equivalence contract.
    assert_eq!(e.stats().normalized_for_equivalence().publish_nanos, 0);
}

// ----- the one-pass freeze == the three passes it replaced -----

/// The clusters as the engine used to extract them: a strong-root walk
/// per active cell in ascending id order, grouped through a map.
fn reference_clusters(e: &EdmStream<DenseVector, Euclidean>, t: f64) -> Vec<crate::ClusterInfo> {
    let tau = e.tau_ctl.tau();
    let mut by_root: std::collections::HashMap<CellId, (crate::ClusterInfo, Vec<CellId>)> =
        Default::default();
    for id in e.sorted_active_ids() {
        let cell = e.slab.get(id);
        let root = crate::tree::strong_root(&e.slab, id, tau);
        let (info, cells) = by_root.entry(root).or_insert_with(|| {
            let id = e.registry.cluster_at_root(root).expect("every strong root is registered");
            (crate::ClusterInfo { id, root, cells: Arc::new([]), density: 0.0 }, Vec::new())
        });
        cells.push(id);
        info.density += cell.rho_at(t, e.decay());
    }
    let mut v: Vec<crate::ClusterInfo> = by_root
        .into_values()
        .map(|(info, cells)| crate::ClusterInfo { cells: cells.into(), ..info })
        .collect();
    v.sort_by_key(|c| c.root);
    v
}

/// The decision graph as its own pass over the active cells.
fn reference_decision_graph(e: &EdmStream<DenseVector, Euclidean>, t: f64) -> (Vec<f64>, Vec<f64>) {
    let mut rho = Vec::new();
    let mut delta = Vec::new();
    for id in e.sorted_active_ids() {
        let cell = e.slab.get(id);
        rho.push(cell.rho_at(t, e.decay()));
        delta.push(cell.delta);
    }
    let max_finite = delta.iter().copied().filter(|d| d.is_finite()).fold(0.0, f64::max);
    let root_display = if max_finite > 0.0 { max_finite * 1.05 } else { 4.0 * e.cfg.r };
    for d in delta.iter_mut() {
        if !d.is_finite() {
            *d = root_display;
        }
    }
    (rho, delta)
}

/// The summaries as their own pass over each cluster's cells, with
/// indexed `f64::min` / `max`.
fn reference_summaries(
    e: &EdmStream<DenseVector, Euclidean>,
    t: f64,
    clusters: &[crate::ClusterInfo],
) -> Vec<crate::evolve::ClusterSummary> {
    use crate::evolve::{BoundingBox, ClusterSummary};
    let born: edm_common::hash::FxHashMap<crate::evolution::ClusterId, f64> =
        e.registry.clusters().map(|(id, m)| (id, m.born)).collect();
    let generation = e.stats.snapshots_published;
    let mut out: Vec<ClusterSummary> = clusters
        .iter()
        .map(|c| {
            struct Extent {
                sum: Vec<f64>,
                min: Vec<f64>,
                max: Vec<f64>,
                total: f64,
            }
            let mut weighted: Option<Extent> = None;
            for &cell in c.cells.iter() {
                let cref = e.slab.get(cell);
                let x = cref.seed.grid_coords().expect("dense vectors have coordinates");
                let w = cref.rho_at(t, e.decay()).max(0.0);
                match &mut weighted {
                    None => {
                        weighted = Some(Extent {
                            sum: x.iter().map(|v| v * w).collect(),
                            min: x.to_vec(),
                            max: x.to_vec(),
                            total: w,
                        });
                    }
                    Some(Extent { sum, min, max, total }) => {
                        for (i, v) in x.iter().enumerate() {
                            sum[i] += v * w;
                            min[i] = min[i].min(*v);
                            max[i] = max[i].max(*v);
                        }
                        *total += w;
                    }
                }
            }
            let Extent { sum, min, max, total } = weighted.expect("clusters have members");
            let centroid = if total > 0.0 {
                sum.iter().map(|s| s / total).collect()
            } else {
                let n = c.cells.len() as f64;
                c.cells.iter().fold(vec![0.0; min.len()], |mut acc, &cell| {
                    let x = e.slab.get(cell).seed.grid_coords().expect("dense");
                    for (i, v) in x.iter().enumerate() {
                        acc[i] += v / n;
                    }
                    acc
                })
            };
            ClusterSummary {
                cluster: c.id,
                cells: c.cells.len(),
                mass: c.density,
                centroid: Some(centroid),
                bounds: Some(Arc::new(BoundingBox { min, max })),
                born: born.get(&c.id).copied().unwrap_or(t),
                as_of: t,
                first_generation: generation,
                last_seen: generation,
            }
        })
        .collect();
    out.sort_unstable_by_key(|s| s.cluster);
    out
}

/// Every float of a summary as bits: equal keys mean identical summaries,
/// signs of zero included.
type SummaryBits = (u64, usize, u64, Option<Vec<u64>>, Option<[Vec<u64>; 2]>, u64, u64, u64, u64);

fn summary_bits(s: &crate::evolve::ClusterSummary) -> SummaryBits {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    (
        s.cluster,
        s.cells,
        s.mass.to_bits(),
        s.centroid.as_deref().map(bits),
        s.bounds.as_ref().map(|b| [bits(&b.min), bits(&b.max)]),
        s.born.to_bits(),
        s.as_of.to_bits(),
        s.first_generation,
        s.last_seen,
    )
}

/// `(id, root, cells, density bits)` per cluster.
fn cluster_bits(clusters: &[crate::ClusterInfo]) -> Vec<(u64, u32, Vec<u32>, u64)> {
    clusters
        .iter()
        .map(|c| (c.id, c.root.0, c.cells.iter().map(|id| id.0).collect(), c.density.to_bits()))
        .collect()
}

fn float_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks `snap`, frozen from `e` at `t`, against the three passes it
/// replaced, computed from the same engine state; returns whether a
/// summary took the unweighted-mean centroid (every weight decayed to 0).
fn check_freeze(
    e: &EdmStream<DenseVector, Euclidean>,
    t: f64,
    snap: &crate::ClusterSnapshot,
) -> Result<bool, String> {
    let clusters = reference_clusters(e, t);
    if cluster_bits(snap.clusters()) != cluster_bits(&clusters) {
        return Err(format!("t={t}: clusters {:?}, reference {clusters:?}", snap.clusters()));
    }
    let mut flat: Vec<(CellId, u64)> =
        clusters.iter().flat_map(|c| c.cells.iter().map(move |&cell| (cell, c.id))).collect();
    flat.sort_unstable_by_key(|&(cell, _)| cell);
    if snap.members() != flat.as_slice() {
        return Err(format!("t={t}: members {:?}, flattened clusters {flat:?}", snap.members()));
    }
    let (rho, delta) = reference_decision_graph(e, t);
    let (got_rho, got_delta) = snap.decision_graph();
    if (float_bits(got_rho), float_bits(got_delta)) != (float_bits(&rho), float_bits(&delta)) {
        return Err(format!(
            "t={t}: decision graph {got_rho:?} {got_delta:?}, reference {rho:?} {delta:?}"
        ));
    }
    let summaries = reference_summaries(e, t, &clusters);
    let got: Vec<SummaryBits> = snap.summaries().iter().map(summary_bits).collect();
    let want: Vec<SummaryBits> = summaries.iter().map(summary_bits).collect();
    if got != want {
        return Err(format!("t={t}: summaries {:?}, reference {summaries:?}", snap.summaries()));
    }
    Ok(summaries.iter().any(|s| s.mass == 0.0))
}

/// The rolling summary map as the tracker kept it before sealing in place:
/// every sealed summary cloned and inserted over the entry it replaces.
#[derive(Default)]
struct RollingReference(std::collections::BTreeMap<u64, crate::evolve::ClusterSummary>);

impl RollingReference {
    fn seal(&mut self, generation: u64, summaries: &[crate::evolve::ClusterSummary], oldest: u64) {
        for s in summaries {
            let mut s = s.clone();
            if let Some(prev) = self.0.get(&s.cluster) {
                s.first_generation = prev.first_generation;
            }
            s.last_seen = generation;
            self.0.insert(s.cluster, s);
        }
        self.0.retain(|_, s| s.last_seen >= oldest);
    }
}

/// One freeze-reference point: [`reference_point`]'s 2-d stream, with the
/// second coordinate set to +0.0 or −0.0 one time in four each, widened
/// to `dim` coordinates of +0.0, −0.0 or ±0.05-scale offsets picked by
/// `bits`. Seeds then share axes whose only difference is the sign of
/// zero, which the bounding boxes must keep.
fn freeze_point(i: usize, site: u64, u: f64, v: f64, bits: u64, dim: usize) -> DenseVector {
    let mut c = reference_point(i, site, u, v).coords().to_vec();
    match bits & 3 {
        0 => c[1] = 0.0,
        1 => c[1] = -0.0,
        _ => {}
    }
    for axis in 2..dim {
        c.push(match (bits >> (2 * axis)) & 3 {
            0 => 0.0,
            1 => -0.0,
            2 => 0.05 * u,
            _ => -0.05 * v,
        });
    }
    DenseVector::new(c)
}

/// What a freeze-reference stream reached.
#[derive(Debug, Default, Clone, Copy)]
struct FreezeCoverage {
    deactivations: u64,
    recycled: u64,
    tau_changes: u64,
    publications: u64,
    multi_cell_clusters: u64,
    decayed_centroids: u64,
    signed_zero_bounds: u64,
}

/// Drives one engine over `ops` (`(site, u, v, step, zero bits)` draws)
/// and checks every freeze against the reference passes: a `snapshot` at
/// the stream time after every point (after every chunk on the batch
/// path) and far past it, where every density has decayed to zero, and on
/// every fifth step a `publish_snapshot` whose rolling summaries must
/// equal the clone-and-insert reference map. After every point the
/// engine's `n_clusters` and its `cluster_of` at each member's seed that
/// clears the threshold answer as the freeze does.
fn run_against_reference_freeze(
    tau: TauMode,
    dim: usize,
    batch: bool,
    ops: &[(u64, f64, f64, u64, u64)],
) -> Result<FreezeCoverage, String> {
    let threads = std::num::NonZeroUsize::new(if batch { 2 } else { 1 }).expect("nonzero");
    let cfg = reference_cfg(tau).to_builder().ingest_threads(threads);
    let mut e = EdmStream::new(cfg.build().expect("valid"), Euclidean);
    let mut rolling = RollingReference::default();
    let mut cov = FreezeCoverage::default();
    let mut t = 0.0;
    let mut points: Vec<(DenseVector, f64)> = Vec::new();
    for (i, &(site, u, v, step, bits)) in ops.iter().enumerate() {
        t += if step == 0 { 1.0 + 2.0 * u } else { 0.01 };
        points.push((freeze_point(i, site, u, v, bits, dim), t));
        // The batch path ingests chunks of 1–8 points.
        if batch && (bits >> 40) % 8 != 0 && i + 1 < ops.len() {
            continue;
        }
        let tau_before = e.tau();
        if batch {
            e.insert_batch(&points);
        } else {
            e.insert(&points[0].0, t);
        }
        points.clear();
        if tau_before.is_finite() && e.tau() != tau_before {
            cov.tau_changes += 1;
        }
        for at in [t, t + 5_000.0] {
            let snap = e.snapshot(at);
            if check_freeze(&e, at, &snap).map_err(|err| format!("point {i}: {err}"))? {
                cov.decayed_centroids += 1;
            }
            let (rho, delta) = e.decision_graph(at);
            if (float_bits(&rho), float_bits(&delta))
                != (float_bits(snap.decision_graph().0), float_bits(snap.decision_graph().1))
            {
                return Err(format!("point {i}: decision_graph() is not the freeze's"));
            }
            if cluster_bits(&e.clusters(at)) != cluster_bits(snap.clusters()) {
                return Err(format!("point {i}: clusters() is not the freeze's"));
            }
        }
        let snap = e.snapshot(t);
        if e.n_clusters() != snap.n_clusters() {
            return Err(format!(
                "point {i}: n_clusters() {}, the freeze has {}",
                e.n_clusters(),
                snap.n_clusters()
            ));
        }
        for &(cell, cluster) in snap.members() {
            let c = e.slab.get(cell);
            if c.rho_at(t, e.decay()) < e.threshold_at(t) {
                continue;
            }
            let got = e.cluster_of(&c.seed, t);
            if got != Some(cluster) {
                return Err(format!(
                    "point {i}: cluster_of({cell}'s seed) {got:?}, freeze {cluster}"
                ));
            }
        }
        if i % 5 == 4 {
            let snap = e.publish_snapshot(t);
            check_freeze(&e, t, &snap).map_err(|err| format!("point {i}, published: {err}"))?;
            cov.publications += 1;
            let oldest = e.digest_window().generations().map_or(snap.generation(), |g| g.0);
            rolling.seal(snap.generation(), snap.summaries(), oldest);
            let got: Vec<SummaryBits> = e.tracked_summaries().map(summary_bits).collect();
            let want: Vec<SummaryBits> = rolling.0.values().map(summary_bits).collect();
            if got != want {
                return Err(format!("point {i}: rolling summaries {got:?}, reference {want:?}"));
            }
            for s in snap.summaries() {
                let b = s.bounds.as_ref().expect("dense vectors have bounds");
                let signed = |v: &[f64]| v.iter().any(|x| *x == 0.0 && x.is_sign_negative());
                if s.cells > 1 && (signed(&b.min) || signed(&b.max)) {
                    cov.signed_zero_bounds += 1;
                }
            }
            cov.multi_cell_clusters +=
                snap.clusters().iter().filter(|c| c.cells.len() > 1).count() as u64;
        }
    }
    cov.deactivations = e.stats().deactivations;
    cov.recycled = e.stats().recycled;
    Ok(cov)
}

/// Ops for [`run_against_reference_freeze`]: [`reference_ops`]' draws
/// plus 64 bits of zero signs, offsets and chunk lengths.
fn freeze_ops() -> impl proptest::prelude::Strategy<Value = Vec<(u64, f64, f64, u64, u64)>> {
    proptest::prelude::prop::collection::vec(
        (0u64..8, 0.0f64..1.0, 0.0f64..1.0, 0u64..40, proptest::prelude::any::<u64>()),
        100..400,
    )
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// The one-pass freeze equals the clusters, decision graph and
    /// summaries of the three passes it replaced, bit for bit, and the
    /// rolling summaries sealed in place equal the cloned ones: 2-d (grid)
    /// and 16-d (cover tree), static or adaptive τ, serial inserts or
    /// parallel batches.
    #[test]
    fn the_one_pass_freeze_equals_the_three_pass_reference(
        ops in freeze_ops(),
        wide in proptest::prelude::any::<bool>(),
        adaptive in proptest::prelude::any::<bool>(),
        batch in proptest::prelude::any::<bool>(),
    ) {
        let tau = if adaptive { TauMode::Adaptive { alpha: None } } else { TauMode::Static(1.0) };
        let dim = if wide { 16 } else { 2 };
        if let Err(e) = run_against_reference_freeze(tau, dim, batch, &ops) {
            return Err(format!("{tau:?}, {dim}-d, batch {batch}: {e}"));
        }
    }
}

/// The freeze-reference streams reach what the one-pass freeze must get
/// right: decay sweeps, recycling, τ changes, multi-cell clusters,
/// centroids of fully decayed clusters and bounding boxes holding −0.0.
#[test]
fn freeze_reference_streams_reach_every_path() {
    for (tau, dim, batch) in
        [(TauMode::Static(1.0), 2, false), (TauMode::Adaptive { alpha: None }, 16, true)]
    {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let unit = |r: u64| (r >> 11) as f64 / (1u64 << 53) as f64;
        let ops: Vec<(u64, f64, f64, u64, u64)> = (0..600)
            .map(|_| (draw() % 8, unit(draw()), unit(draw()), draw() % 40, draw()))
            .collect();
        let c = run_against_reference_freeze(tau, dim, batch, &ops).unwrap();
        assert!(
            [
                c.deactivations,
                c.recycled,
                c.publications,
                c.multi_cell_clusters,
                c.decayed_centroids,
                c.signed_zero_bounds
            ]
            .iter()
            .all(|&n| n > 0),
            "{tau:?}, {dim}-d: {c:?}"
        );
        assert_eq!(c.tau_changes > 0, matches!(tau, TauMode::Adaptive { .. }), "{tau:?}: {c:?}");
    }
}

// ----- shared parts follow membership exactly -----

/// What a sharing stream put the engine and its publications through.
#[derive(Debug, Default, Clone, Copy)]
struct SharingCoverage {
    activations: u64,
    deactivations: u64,
    recycled: u64,
    tau_changes: u64,
    splits: u64,
    merges: u64,
    /// Clusters of consecutive publications with the same id, by whether
    /// their cell lists were shared or rebuilt.
    shared_clusters: u64,
    rebuilt_clusters: u64,
    /// Publications that shared the previous member column, and those
    /// that did not.
    shared_columns: u64,
    rebuilt_columns: u64,
}

/// Checks `next` against `prev`, the publication before it: every cluster
/// of both shares its cell list exactly when the cells are the same, and
/// its bounding box exactly when the cells and the box's bits are the
/// same (a recycled id can come back with another seed); the member
/// column is shared exactly when it is the same. Counts into `cov`.
fn check_sharing(
    prev: &crate::ClusterSnapshot,
    next: &crate::ClusterSnapshot,
    cov: &mut SharingCoverage,
) -> Result<(), String> {
    let same_column = prev.members() == next.members();
    if next.shares_members_with(prev) != same_column {
        return Err(format!(
            "member column shared: {}, unchanged: {same_column}",
            next.shares_members_with(prev)
        ));
    }
    if same_column {
        cov.shared_columns += 1;
    } else {
        cov.rebuilt_columns += 1;
    }
    for c in next.clusters() {
        let Some(p) = prev.cluster(c.id) else { continue };
        let same_cells = p.cells == c.cells;
        if Arc::ptr_eq(&p.cells, &c.cells) != same_cells {
            return Err(format!(
                "cluster {}: cells {:?} → {:?}, shared: {}",
                c.id, p.cells, c.cells, !same_cells
            ));
        }
        if same_cells {
            cov.shared_clusters += 1;
        } else {
            cov.rebuilt_clusters += 1;
        }
        let bounds = |s: &crate::ClusterSnapshot| {
            s.summary(c.id)
                .and_then(|summary| summary.bounds.clone())
                .expect("dense vectors have bounds")
        };
        let (before, after) = (bounds(prev), bounds(next));
        let same_box = float_bits(&before.min) == float_bits(&after.min)
            && float_bits(&before.max) == float_bits(&after.max);
        if Arc::ptr_eq(&before, &after) != (same_cells && same_box) {
            return Err(format!(
                "cluster {}: bounds {before:?} → {after:?}, cells unchanged: {same_cells}",
                c.id
            ));
        }
    }
    Ok(())
}

/// Drives one engine over the reference stream `ops`, publishing after
/// every `every`-th point and checking every publication against the one
/// before it ([`check_sharing`]) and against the three-pass reference,
/// with `check_invariants` (which checks every shared part against its
/// cluster's members) after every point.
fn run_sharing(
    tau: TauMode,
    every: usize,
    ops: &[(u64, f64, f64, u64)],
) -> Result<SharingCoverage, String> {
    let mut e = EdmStream::new(reference_cfg(tau), Euclidean);
    let mut cov = SharingCoverage::default();
    let mut previous: Option<crate::ClusterSnapshot> = None;
    let mut t = 0.0;
    for (i, &(site, u, v, step)) in ops.iter().enumerate() {
        t += if step == 0 { 1.0 + 2.0 * u } else { 0.01 };
        let tau_before = e.tau();
        e.insert(&reference_point(i, site, u, v), t);
        if tau_before.is_finite() && e.tau() != tau_before {
            cov.tau_changes += 1;
        }
        e.check_invariants(t).map_err(|err| format!("point {i}: {err}"))?;
        if i % every != every - 1 {
            continue;
        }
        let next = e.publish_snapshot(t);
        check_freeze(&e, t, &next).map_err(|err| format!("point {i}: {err}"))?;
        if let Some(prev) = &previous {
            check_sharing(prev, &next, &mut cov).map_err(|err| format!("point {i}: {err}"))?;
        }
        previous = Some(next);
    }
    for ev in e.take_events() {
        match ev.kind {
            EventKind::Split { .. } => cov.splits += 1,
            EventKind::Merge { .. } => cov.merges += 1,
            _ => {}
        }
    }
    let s = e.stats();
    (cov.activations, cov.deactivations, cov.recycled) =
        (s.activations, s.deactivations, s.recycled);
    Ok(cov)
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

    /// Each publication shares a cluster's cell list and bounding box, and
    /// the member column, with the publication before it exactly when
    /// they are unchanged, publishing after every point or every third.
    #[test]
    fn publications_share_exactly_the_unchanged_parts(
        ops in reference_ops(),
        adaptive in proptest::prelude::any::<bool>(),
        every in 1usize..4,
    ) {
        let tau = if adaptive { TauMode::Adaptive { alpha: None } } else { TauMode::Static(1.0) };
        if let Err(e) = run_sharing(tau, every, &ops) {
            return Err(format!("{tau:?}, every {every}: {e}"));
        }
    }
}

/// The sharing streams reach activation, the decay sweep, recycling,
/// merges, splits and τ changes, and publications that share some parts
/// and rebuild others.
#[test]
fn sharing_streams_reach_every_membership_change() {
    for (tau, every) in [(TauMode::Static(1.0), 1), (TauMode::Adaptive { alpha: None }, 3)] {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let unit = |r: u64| (r >> 11) as f64 / (1u64 << 53) as f64;
        let ops: Vec<(u64, f64, f64, u64)> =
            (0..1_600).map(|_| (draw() % 8, unit(draw()), unit(draw()), draw() % 40)).collect();
        let c = run_sharing(tau, every, &ops).unwrap();
        assert!(
            [
                c.activations,
                c.deactivations,
                c.recycled,
                c.splits,
                c.merges,
                c.shared_clusters,
                c.rebuilt_clusters,
                c.shared_columns,
                c.rebuilt_columns
            ]
            .iter()
            .all(|&n| n > 0),
            "{tau:?}: {c:?}"
        );
        assert_eq!(c.tau_changes > 0, matches!(tau, TauMode::Adaptive { .. }), "{tau:?}: {c:?}");
    }
}
