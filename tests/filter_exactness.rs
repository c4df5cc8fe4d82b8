//! Property test (cross-crate): the paper's two filtering theorems are
//! *exact* — on arbitrary random streams, running the engine with no
//! filters, the density filter, or both must produce identical DP-Trees
//! and identical clusterings. This is the reproduction's most important
//! correctness property: if a filter ever skipped a necessary update, the
//! trees would diverge.
//!
//! With the density filter on, Theorem 1 visits only the window of the
//! density order the absorbing cell crossed, so the lock-step property
//! below also checks that window against the full walk after every point,
//! including exact density ties on both sides of the id tie-break.

use edmstream::{
    DecayModel, DenseVector, EdmConfig, EdmStream, Euclidean, Event, FilterConfig, TauMode,
};
use proptest::prelude::*;

/// Final `(slot, dep, delta, active, cluster)` state per cell.
fn final_state(points: &[(f64, f64)], filters: FilterConfig) -> Vec<(u32, Option<u32>, f64, bool)> {
    let cfg = EdmConfig::builder(0.8)
        .rate(100.0)
        .beta_for_threshold(3.0)
        .init_points(20)
        .tau_mode(TauMode::Static(3.0))
        .filters(filters)
        .build()
        .expect("valid test configuration");
    let mut engine = EdmStream::new(cfg, Euclidean);
    for (i, &(x, y)) in points.iter().enumerate() {
        engine.insert(&DenseVector::from([x, y]), i as f64 / 100.0);
    }
    let t = points.len() as f64 / 100.0;
    engine.check_invariants(t).expect("invariants violated");
    let mut v: Vec<(u32, Option<u32>, f64, bool)> =
        engine.slab().iter().map(|(id, c)| (id.0, c.dep.map(|d| d.0), c.delta, c.active)).collect();
    v.sort_by_key(|s| s.0);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn filters_are_exact_on_random_streams(
        points in prop::collection::vec(
            ((-3.0f64..13.0), (-3.0f64..3.0)),
            120..400,
        )
    ) {
        let wf = final_state(&points, FilterConfig::none());
        let df = final_state(&points, FilterConfig::density_only());
        let all = final_state(&points, FilterConfig::all());
        prop_assert_eq!(&wf, &df, "density filter changed the tree");
        prop_assert_eq!(&df, &all, "triangle filter changed the tree");
    }

    #[test]
    fn clustered_blob_streams_keep_invariants(
        centers in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 2..5),
        n in 150usize..400,
    ) {
        let cfg = EdmConfig::builder(1.0)
            .rate(100.0)
            .beta_for_threshold(3.0)
            .init_points(30)
            .build()
            .expect("valid test configuration");
        let mut engine = EdmStream::new(cfg, Euclidean);
        for i in 0..n {
            let c = &centers[i % centers.len()];
            let jitter = (i % 9) as f64 * 0.15;
            engine.insert(
                &DenseVector::from([c.0 + jitter, c.1 - jitter * 0.5]),
                i as f64 / 100.0,
            );
        }
        let t = n as f64 / 100.0;
        engine.check_invariants(t).expect("invariants violated");
        // Every active cell belongs to exactly one cluster (the
        // MSDSubTrees partition the active set).
        let total: usize = engine.clusters(t).iter().map(|c| c.cells.len()).sum();
        prop_assert_eq!(total, engine.active_len());
    }
}

/// A deterministic pseudo-random sequence (splitmix64) driving the
/// lock-step streams from one proptest-chosen seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// A stream of `dim`-d points at integer timestamps from `epoch`. Sites on
/// the integer lattice (one cell each at r = 0.8) come in twins that are
/// always hit at the same timestamps, in random order within it, so the
/// twins share `(ρ, t_ρ)` before every tick and whichever absorbs first
/// meets the other exactly at its window's edge, on either side of the id
/// tie-break. Sites hit on different periods go silent for a while, and
/// some gaps last many seconds, so cells decay out of the tree; far
/// outliers fill the reservoir and get recycled.
fn lockstep_stream(mix: &mut Mix, dim: usize, epoch: f64) -> Vec<(DenseVector, f64)> {
    let span = if dim == 2 { 6 } else { 3 };
    let sites: Vec<Vec<f64>> = (0..2 * (3 + mix.below(4)))
        .map(|_| (0..dim).map(|_| mix.below(span) as f64).collect())
        .collect();
    let twins = sites.len() / 2;
    let period: Vec<usize> = (0..twins).map(|_| [1, 1, 2, 3][mix.below(4)]).collect();
    let mut silent_until = vec![0usize; twins];
    let mut points = Vec::new();
    let mut clock = 0u64;
    for tick in 0..70 {
        clock += if mix.chance(6) { 4 + mix.below(20) as u64 } else { 1 };
        let t = epoch + clock as f64;
        let mut due: Vec<Vec<f64>> = Vec::new();
        for g in 0..twins {
            if tick % period[g] != 0 || tick < silent_until[g] {
                continue;
            }
            if mix.chance(4) {
                silent_until[g] = tick + 5 + mix.below(20);
            }
            due.push(sites[2 * g].clone());
            due.push(sites[2 * g + 1].clone());
        }
        if mix.chance(25) {
            due.push((0..dim).map(|_| 20.0 + mix.below(40) as f64).collect());
        }
        while !due.is_empty() {
            let site = due.swap_remove(mix.below(due.len()));
            points.push((DenseVector::from(site), t));
        }
    }
    points
}

fn lockstep_engine(dim: usize, filters: FilterConfig) -> EdmStream<DenseVector, Euclidean> {
    let cfg = EdmConfig::builder(0.8)
        .decay(DecayModel::new(0.9, 1.0))
        .rate(10.0)
        .beta_for_threshold(3.0)
        .init_points(if dim == 2 { 12 } else { 16 })
        .tau_mode(TauMode::Adaptive { alpha: None })
        .tau_every(7)
        .maintenance_every(3)
        .recycle_horizon(15.0)
        .filters(filters)
        .build()
        .expect("valid test configuration");
    EdmStream::new(cfg, Euclidean)
}

/// Per cell `(slot, dep, δ bits, active, ρ bits, t_ρ bits, label)`.
type CellState = (u32, Option<u32>, u64, bool, u64, u64, Option<u64>);

fn cell_states(engine: &EdmStream<DenseVector, Euclidean>) -> Vec<CellState> {
    let mut v: Vec<CellState> = engine
        .slab()
        .iter()
        .map(|(id, c)| {
            let (rho, t_rho) = c.raw_rho();
            (
                id.0,
                c.dep.map(|d| d.0),
                c.delta.to_bits(),
                c.active,
                rho.to_bits(),
                t_rho.to_bits(),
                c.cluster,
            )
        })
        .collect();
    v.sort_by_key(|s| s.0);
    v
}

/// Which side of the id tie-break the absorbing cell of `p` is on, when it
/// shares its stored density with another active cell: `Some(true)` when
/// the absorbing cell has the lower id of the tie.
fn tie_side(engine: &EdmStream<DenseVector, Euclidean>, p: &DenseVector) -> Option<bool> {
    let slab = engine.slab();
    let (riser, cell) = slab.iter().find(|(_, c)| c.active && &c.seed == p)?;
    let rival =
        slab.iter().find(|&(id, c)| id != riser && c.active && c.raw_rho() == cell.raw_rho())?;
    Some(riser < rival.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn filters_match_the_full_walk_after_every_point(seed in any::<u64>()) {
        let mut ties = [0usize; 2];
        for (dim, epoch) in [(2, 0.0), (2, 1.7e9), (16, 0.0), (16, 1.7e9)] {
            let mut mix = Mix(seed ^ dim as u64 ^ epoch as u64);
            let stream = lockstep_stream(&mut mix, dim, epoch);
            let filters = [FilterConfig::none(), FilterConfig::density_only(), FilterConfig::all()];
            let mut engines: Vec<_> = filters.iter().map(|&f| lockstep_engine(dim, f)).collect();
            for (i, (p, t)) in stream.iter().enumerate() {
                if let Some(lower) = tie_side(&engines[2], p) {
                    ties[lower as usize] += 1;
                }
                for e in engines.iter_mut() {
                    e.insert(p, *t);
                }
                engines[2]
                    .check_invariants(*t)
                    .map_err(|e| format!("d={dim} epoch={epoch} point {i}: {e}"))?;
                let events: Vec<Vec<Event>> = engines.iter_mut().map(|e| e.take_events()).collect();
                let reference = cell_states(&engines[0]);
                let stats0 = engines[0].stats().clone();
                for (k, e) in engines.iter().enumerate().skip(1) {
                    let label = filters[k].label();
                    let at = format!("{label}, d={dim} epoch={epoch} point {i}");
                    prop_assert_eq!(&cell_states(e), &reference, "cells differ: {}", at);
                    prop_assert_eq!(&events[k], &events[0], "events differ: {}", at);
                    let stats = e.stats();
                    prop_assert_eq!(stats.dep_candidates, stats0.dep_candidates, "{}", at);
                    prop_assert_eq!(stats.dep_updates, stats0.dep_updates, "{}", at);
                    prop_assert_eq!(stats.dep_recomputes, stats0.dep_recomputes, "{}", at);
                }
            }
            let s = engines[2].stats();
            prop_assert!(
                s.deactivations > 0 && s.recycled > 0 && s.events > 0,
                "d={} epoch={}: decay and recycling never fired: {:?}", dim, epoch, s
            );
        }
        prop_assert!(ties[0] > 0 && ties[1] > 0, "density ties on both sides: {:?}", ties);
    }
}
