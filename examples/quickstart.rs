//! Quickstart: cluster a simple evolving 2-D stream and watch the result
//! update in real time — a new cluster emerges, an old one fades away.
//!
//! Walks the whole builder → session → snapshot API: typed configuration
//! errors, batch ingestion, frozen read-only snapshots, and draining the
//! evolution-event log.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use edmstream::{
    DecayModel, DenseVector, EdmConfig, EdmStream, Euclidean, EventKind, NeighborIndexKind, TauMode,
};

fn main() {
    // An engine for 2-D points: cells of radius 0.5, a 100 pt/s stream,
    // a decay half-life of ~6 s (yesterday's points barely matter), and
    // an activation threshold of roughly three sustained points/sec.
    // `build()` returns a typed `ConfigError` instead of panicking —
    // `beta(0.0)` here would give `Err(ConfigError::BetaOutOfRange { .. })`.
    let cfg = EdmConfig::builder(0.5)
        .rate(100.0)
        .decay(DecayModel::new(0.998, 60.0))
        .beta(3.4e-3)
        .init_points(100)
        .recycle_horizon(30.0)
        // Play the paper's interactive user: peaks at dependent distance
        // ≥ 2 are separate clusters. The adaptive policy has its own
        // example (`adaptive_tau`).
        .tau_mode(TauMode::Static(2.0))
        // The default — spelled out here to show the knob: cell lookups go
        // through a uniform grid with bucket side r, so an insert probes
        // only the 3x3 bucket shell around the point instead of every
        // cell. `LinearScan` is the exact fallback for exotic metrics.
        // With `side: None` the grid also auto-tunes its bucket side when
        // mean occupancy leaves the target band (EngineStats counts the
        // rebuilds in `grid_rebuilds`).
        .neighbor_index(NeighborIndexKind::Grid { side: None })
        // Batch ingest can fan its assignment probes out across worker
        // threads (probe-then-commit; output identical to the serial
        // loop at any count — see the README's "Threading model"). Two
        // threads here so the quickstart exercises the parallel path;
        // `EngineStats::probe_tasks` / `probe_revalidations` meter it.
        .ingest_threads(std::num::NonZeroUsize::new(2).expect("2 is nonzero"))
        .build()
        .expect("valid quickstart configuration");
    let mut engine = EdmStream::new(cfg, Euclidean);

    // Phase 1: two stationary clusters, ingested as one batch.
    let mut t = 0.0;
    let tick = |t: &mut f64| {
        *t += 0.01;
        *t
    };
    let batch: Vec<(DenseVector, f64)> = (0..1_500)
        .map(|i| {
            let x = if i % 2 == 0 { 0.0 } else { 10.0 };
            let jitter = (i % 7) as f64 * 0.1;
            (DenseVector::from([x + jitter, jitter * 0.5]), tick(&mut t))
        })
        .collect();
    engine.insert_batch(&batch);
    let snap = engine.snapshot(t);
    println!(
        "after two blobs:                 {} clusters (tau = {:.2})",
        snap.n_clusters(),
        snap.tau()
    );

    // Phase 2: a third cluster emerges somewhere new.
    for i in 0..1_000 {
        let jitter = (i % 7) as f64 * 0.1;
        engine.insert(&DenseVector::from([5.0 + jitter, 8.0 + jitter * 0.3]), tick(&mut t));
    }
    println!("after a new region:              {} clusters", engine.snapshot(t).n_clusters());

    // Phase 3: the right blob's source dries up; only the left blob and
    // the new region keep producing. The right cluster decays through the
    // density threshold, moves to the outlier reservoir, and disappears.
    for i in 0..5_000 {
        let jitter = (i % 7) as f64 * 0.1;
        let p = if i % 2 == 0 {
            DenseVector::from([jitter, jitter * 0.5])
        } else {
            DenseVector::from([5.0 + jitter, 8.0 + jitter * 0.3])
        };
        engine.insert(&p, tick(&mut t));
    }
    // A snapshot is an owned, frozen view: queries keep answering from it
    // even while the engine moves on.
    let snap = engine.snapshot(t);
    println!("after the right source dries up: {} clusters", snap.n_clusters());

    // Where does a fresh point belong?
    for probe in [
        DenseVector::from([5.2, 8.1]),   // inside the new region
        DenseVector::from([10.2, 0.1]),  // the faded region
        DenseVector::from([42.0, 42.0]), // nowhere
    ] {
        match engine.cluster_of(&probe, t) {
            Some(id) => println!("probe {probe:?} -> cluster {id}"),
            None => println!("probe {probe:?} -> outlier"),
        }
    }

    // A late, out-of-order packet is rejected with a typed error instead
    // of corrupting the stream clock.
    let stale = engine.try_insert(&DenseVector::from([0.0, 0.0]), t - 5.0);
    println!("stale packet: {}", stale.unwrap_err());

    // Draining the evolution log consumes the whole story so far.
    let events = engine.take_events();
    let (mut em, mut di, mut sp, mut me, mut ad) = (0, 0, 0, 0, 0);
    for ev in &events {
        match ev.kind {
            EventKind::Emerge { .. } => em += 1,
            EventKind::Disappear { .. } => di += 1,
            EventKind::Split { .. } => sp += 1,
            EventKind::Merge { .. } => me += 1,
            EventKind::Adjust { .. } => ad += 1,
        }
    }
    println!("evolution events: {em} emerge, {di} disappear, {sp} split, {me} merge, {ad} adjust");
    assert!(engine.take_events().is_empty(), "second drain is empty");
    println!(
        "engine state: {} cells ({} active, {} in reservoir), {} points in {:.1} stream-seconds",
        snap.n_cells(),
        snap.active_cells(),
        snap.reservoir_cells(),
        snap.points(),
        t
    );
    // How much work the grid index saved: of all live cells the linear
    // scan would have touched per insert, what fraction was never probed.
    let stats = engine.stats();
    println!(
        "neighbor index: {} distances computed, {} cells skipped ({:.1}% pruned)",
        stats.index_probed,
        stats.index_pruned,
        100.0 * stats.index_prune_rate()
    );
    // The batch above went through the two-phase parallel path: probes
    // fanned out, commits serial, conflicts re-probed.
    println!(
        "parallel ingest: {} probes fanned out over {} batch(es), {} revalidated serially",
        stats.probe_tasks, stats.parallel_batches, stats.probe_revalidations
    );
}
