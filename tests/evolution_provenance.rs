//! Provenance test suite: the evolution subsystem's lineage and digest
//! answers must agree with a brute-force replay of the raw event log.
//!
//! Two independent oracles lock the tentpole down:
//!
//! 1. **Replay maps** — a from-scratch fold of the drained events into
//!    plain `born`/`ended` maps (sharing no code with `LineageGraph`),
//!    against which every `lineage_of` answer is checked edge by edge:
//!    the ancestry chain terminates at a recorded birth, every split
//!    parent and merge survivor matches the `EventKind` history, and the
//!    current-identity walk equals the transitive merge chain.
//! 2. **Digest algebra** — `digest(g1→g2) ⊎ digest(g2→g3)` must equal
//!    `digest(g1→g3)` exactly (disjoint unions — cluster ids are never
//!    reused), for every generation triple the run produced.
//!
//! Both properties are driven over random streams, with recycling
//! interleavings on and off, across the Grid and CoverTree backends.
//! Deterministic companions below the proptest block pin the
//! typed-error contract: disabled tracking, lossy windows, evicted
//! generations, and cursor-past-eviction detection.

use std::collections::BTreeMap;

use edmstream::{
    BirthKind, ClusterId, DenseVector, EdmConfig, EdmStream, EndKind, Euclidean, Event, EventKind,
    EvolveError, LineageGraph, NeighborIndexKind,
};
use proptest::prelude::*;

fn engine(kind: NeighborIndexKind, recycle: bool) -> EdmStream<DenseVector, Euclidean> {
    let mut b = EdmConfig::builder(0.8)
        .rate(100.0)
        .beta_for_threshold(3.0)
        .init_points(25)
        .tau_every(16)
        .maintenance_every(8)
        .neighbor_index(kind);
    if recycle {
        b = b.recycle_horizon(5.0);
    }
    EdmStream::new(b.build().expect("valid test configuration"), Euclidean)
}

/// Brute-force fold of the raw event log into birth/end maps — the
/// independent oracle the lineage answers are checked against.
#[derive(Default)]
struct Replay {
    born: BTreeMap<ClusterId, (f64, BirthKind)>,
    ended: BTreeMap<ClusterId, (f64, EndKind)>,
}

impl Replay {
    fn from_events(events: &[Event]) -> Self {
        let mut r = Replay::default();
        for e in events {
            match &e.kind {
                EventKind::Emerge { cluster } => {
                    r.born.entry(*cluster).or_insert((e.t, BirthKind::Emerged));
                }
                EventKind::Split { from, into } => {
                    for c in into {
                        r.born.entry(*c).or_insert((e.t, BirthKind::SplitFrom { parent: *from }));
                    }
                }
                EventKind::Merge { from, into } => {
                    for c in from {
                        r.ended.entry(*c).or_insert((e.t, EndKind::MergedInto { survivor: *into }));
                    }
                }
                EventKind::Disappear { cluster } => {
                    r.ended.entry(*cluster).or_insert((e.t, EndKind::Disappeared));
                }
                EventKind::Adjust { .. } => {}
            }
        }
        r
    }

    /// The transitive merge chain from `c`: the survivors hopped through,
    /// and whether the final identity is alive.
    fn merge_chain(&self, c: ClusterId) -> (Vec<ClusterId>, ClusterId, bool) {
        let mut hops = Vec::new();
        let mut cur = c;
        while let Some(&(_, EndKind::MergedInto { survivor })) = self.ended.get(&cur) {
            hops.push(survivor);
            cur = survivor;
        }
        (hops, cur, !self.ended.contains_key(&cur))
    }
}

/// Runs `points` through the engine, draining the raw event log as we go
/// (user drains must never disturb the tracker) and sealing a generation
/// every `publish_every` points. Returns the accumulated raw log.
fn drive(
    e: &mut EdmStream<DenseVector, Euclidean>,
    points: &[(f64, f64, bool)],
    publish_every: usize,
) -> Vec<Event> {
    let mut raw = Vec::new();
    let mut t = 0.0;
    // `events_evicted` counts drains as well as overflow; overflow is the
    // difference between it and what we have deliberately taken.
    let mut drained = 0u64;
    for (i, &(x, y, jump)) in points.iter().enumerate() {
        t += if jump { 7.0 } else { 0.01 };
        e.insert(&DenseVector::from([x, y]), t);
        if i % 3 == 0 {
            assert_eq!(e.events_evicted(), drained, "raw log overflowed mid-drive");
            let taken = e.take_events();
            drained += taken.len() as u64;
            raw.extend(taken);
        }
        if (i + 1) % publish_every == 0 {
            e.publish_snapshot(t);
        }
    }
    e.force_init();
    e.publish_snapshot(t);
    assert_eq!(e.events_evicted(), drained, "raw log overflowed mid-drive");
    raw.extend(e.take_events());
    raw
}

/// Checks every `lineage_of` answer against the replay maps.
fn assert_lineage_matches_replay(e: &EdmStream<DenseVector, Euclidean>, replay: &Replay) {
    // The graph knows exactly the ids the raw log ever bore.
    let graph_ids: Vec<ClusterId> = e.lineage_graph().nodes().map(|n| n.cluster).collect();
    let replay_ids: Vec<ClusterId> = replay.born.keys().copied().collect();
    assert_eq!(graph_ids, replay_ids, "lineage graph and raw replay disagree on cluster ids");

    for &id in &replay_ids {
        let lineage = e.lineage_of(id).expect("lossless run must answer lineage");
        assert_eq!(lineage.cluster, id);
        assert_eq!(lineage.ancestry[0].cluster, id, "ancestry must start at the queried id");

        // Every ancestry hop is a recorded split edge; the chain ends at a
        // recorded emergence.
        for (i, node) in lineage.ancestry.iter().enumerate() {
            let &(born_t, birth) = replay.born.get(&node.cluster).expect("ancestor recorded");
            assert_eq!((node.born, node.birth), (born_t, birth), "birth edge mismatch");
            let expect_end = replay.ended.get(&node.cluster).copied();
            assert_eq!(
                node.end.map(|end| (end.t, end.kind)),
                expect_end,
                "end edge mismatch for cluster {}",
                node.cluster
            );
            match birth {
                BirthKind::SplitFrom { parent } => {
                    assert!(parent < node.cluster, "split parents must predate fragments");
                    assert_eq!(
                        lineage.ancestry.get(i + 1).map(|n| n.cluster),
                        Some(parent),
                        "ancestry must step through the split parent"
                    );
                }
                BirthKind::Emerged => {
                    assert_eq!(i + 1, lineage.ancestry.len(), "chain must stop at an emergence");
                }
            }
        }

        // Current identity is the transitive merge chain, verbatim.
        let (hops, current, alive) = replay.merge_chain(id);
        assert_eq!(lineage.absorbed_into, hops, "merge hops mismatch for cluster {id}");
        assert_eq!(lineage.current, current, "current identity mismatch for cluster {id}");
        assert_eq!(lineage.alive, alive, "liveness mismatch for cluster {id}");
    }

    // The graph itself must equal a from-scratch replay of the raw log —
    // incremental syncs may not drift from the batch fold.
    assert_eq!(
        e.lineage_graph(),
        &LineageGraph::from_events(&replay_events(replay)),
        "incremental graph drifted from batch replay"
    );
}

/// Reconstructs a minimal event list from the replay maps (one event per
/// recorded edge) — enough for `LineageGraph::from_events` to rebuild the
/// same node set. Kept separate so the graph comparison doesn't reuse the
/// original slice by accident.
fn replay_events(replay: &Replay) -> Vec<Event> {
    let mut events = Vec::new();
    for (&c, &(t, birth)) in &replay.born {
        let kind = match birth {
            BirthKind::Emerged => EventKind::Emerge { cluster: c },
            BirthKind::SplitFrom { parent } => EventKind::Split { from: parent, into: vec![c] },
        };
        events.push(Event { t, kind });
    }
    for (&c, &(t, end)) in &replay.ended {
        let kind = match end {
            EndKind::Disappeared => EventKind::Disappear { cluster: c },
            EndKind::MergedInto { survivor } => EventKind::Merge { from: vec![c], into: survivor },
        };
        events.push(Event { t, kind });
    }
    // Replay order must be birth-before-end per id; sorting by time with
    // births first on ties achieves that (ends never precede births).
    events.sort_by(|a, b| {
        a.t.partial_cmp(&b.t).expect("no NaN times").then_with(|| {
            let rank = |e: &Event| {
                matches!(e.kind, EventKind::Merge { .. } | EventKind::Disappear { .. }) as u8
            };
            rank(a).cmp(&rank(b))
        })
    });
    events
}

/// Checks `digest(g1→g2) ⊎ digest(g2→g3) == digest(g1→g3)` for every
/// generation triple in the published window.
fn assert_digests_compose(e: &EdmStream<DenseVector, Euclidean>) {
    let Some((oldest, latest)) = e.digest_window().generations() else {
        return;
    };
    for g1 in oldest..=latest {
        for g2 in g1..=latest {
            for g3 in g2..=latest {
                let left = e.digest_between(g1, g2).expect("window held");
                let right = e.digest_between(g2, g3).expect("window held");
                let whole = e.digest_between(g1, g3).expect("window held");
                let cat = |a: &[ClusterId], b: &[ClusterId]| {
                    let mut v: Vec<ClusterId> = a.iter().chain(b).copied().collect();
                    v.sort_unstable();
                    v
                };
                assert_eq!(cat(&left.births, &right.births), whole.births, "births don't compose");
                assert_eq!(cat(&left.deaths, &right.deaths), whole.deaths, "deaths don't compose");
                assert_eq!(left.merges.len() + right.merges.len(), whole.merges.len());
                assert_eq!(left.splits.len() + right.splits.len(), whole.splits.len());
                assert_eq!(left.adjustments + right.adjustments, whole.adjustments);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Lineage answers agree with brute-force replay on random streams,
    /// with ΔT_del recycling interleavings, across both index
    /// backends — and the digest algebra composes over every generation
    /// triple the run published.
    #[test]
    fn lineage_and_digests_agree_with_raw_replay(
        points in prop::collection::vec(
            ((-20.0f64..20.0), (-20.0f64..20.0), any::<bool>()),
            60..220,
        ),
        backend_ix in 0usize..2,
        recycle in any::<bool>(),
    ) {
        let kind = [NeighborIndexKind::Grid, NeighborIndexKind::CoverTree][backend_ix];
        // Recycling off → drop the time jumps so the stream stays dense.
        let pts: Vec<(f64, f64, bool)> =
            points.iter().map(|&(x, y, j)| (x, y, j && recycle)).collect();
        let mut e = engine(kind, recycle);
        let raw = drive(&mut e, &pts, 40);
        prop_assert_eq!(e.evolution_events_lost(), 0, "ample capacity must stay lossless");
        let replay = Replay::from_events(&raw);
        assert_lineage_matches_replay(&e, &replay);
        assert_digests_compose(&e);
    }

    /// The digest's event tally over the full published window equals the
    /// raw log's tally of post-first-publication events: nothing is
    /// dropped, nothing is double-counted.
    #[test]
    fn full_window_digest_tallies_the_raw_log(
        points in prop::collection::vec(
            ((-20.0f64..20.0), (-20.0f64..20.0), any::<bool>()),
            80..200,
        ),
    ) {
        let mut e = engine(NeighborIndexKind::Grid, true);
        // Publish generation 1 immediately so every structural event of
        // the run lands strictly inside the digest window (events before
        // the first sealed generation are outside any window).
        e.publish_snapshot(0.0);
        let raw = drive(&mut e, &points, 30);
        let (oldest, latest) = e.digest_window().generations().expect("published");
        prop_assert_eq!(oldest, 1);
        let d = e.digest_between(oldest, latest).expect("window held");
        let merges = raw.iter().filter(|e| matches!(e.kind, EventKind::Merge { .. })).count();
        let splits = raw.iter().filter(|e| matches!(e.kind, EventKind::Split { .. })).count();
        let adjusts = raw.iter().filter(|e| matches!(e.kind, EventKind::Adjust { .. })).count();
        prop_assert_eq!(d.merges.len(), merges);
        prop_assert_eq!(d.splits.len(), splits);
        prop_assert_eq!(d.adjustments as usize, adjusts);
        // Births = emergences + split fragments; deaths = disappearances
        // + merge victims.
        let births: usize = raw.iter().map(|e| match &e.kind {
            EventKind::Emerge { .. } => 1,
            EventKind::Split { into, .. } => into.len(),
            _ => 0,
        }).sum();
        let deaths: usize = raw.iter().map(|e| match &e.kind {
            EventKind::Disappear { .. } => 1,
            EventKind::Merge { from, .. } => from.len(),
            _ => 0,
        }).sum();
        prop_assert_eq!(d.births.len(), births);
        prop_assert_eq!(d.deaths.len(), deaths);
    }
}

/// Two far blobs: the smallest stream that reliably produces two clusters
/// (and thus multi-event diffs) right at initialization.
fn two_blob_points(n: usize) -> Vec<(DenseVector, f64)> {
    (0..n)
        .map(|i| {
            let x = if i % 2 == 0 { 0.0 } else { 12.0 };
            (DenseVector::from([x + 0.05 * (i % 5) as f64, 0.1 * (i % 3) as f64]), i as f64 / 100.0)
        })
        .collect()
}

#[test]
fn digest_window_errors_are_typed_and_ordered() {
    let cfg = EdmConfig::builder(0.8)
        .rate(100.0)
        .beta_for_threshold(3.0)
        .init_points(16)
        .digest_history(2)
        .build()
        .expect("valid configuration");
    let mut e = EdmStream::new(cfg, Euclidean);
    // Before any publication: no generations to digest over.
    assert_eq!(e.digest_since(1), Err(EvolveError::NoGenerations));
    for (p, t) in two_blob_points(64) {
        e.insert(&p, t);
    }
    for k in 0..5 {
        e.publish_snapshot(0.64 + k as f64 * 0.01);
    }
    // History holds 2 generations: 4 and 5.
    assert_eq!(e.digest_window().generations(), Some((4, 5)));
    assert_eq!(e.digest_between(4, 5).map(|d| (d.from_generation, d.to_generation)), Ok((4, 5)));
    assert_eq!(e.digest_since(1), Err(EvolveError::EvictedGeneration { requested: 1, oldest: 4 }));
    assert_eq!(e.digest_since(9), Err(EvolveError::FutureGeneration { requested: 9, latest: 5 }));
    assert_eq!(e.digest_between(5, 4), Err(EvolveError::InvertedWindow { from: 5, to: 4 }));
}

#[test]
fn event_loss_poisons_lineage_and_the_lossy_window_only() {
    // Capacity 1: initialization's multi-cluster diff pushes more than
    // one event in a single `run_diff`, evicting past the tracker's
    // cursor before it can sync — real, detected loss.
    let cfg = EdmConfig::builder(0.8)
        .rate(100.0)
        .beta_for_threshold(3.0)
        .init_points(16)
        .event_capacity(1)
        .build()
        .expect("valid configuration");
    let mut e = EdmStream::new(cfg, Euclidean);
    // Seal generation 1 while the stream is still empty, so the lossy
    // stretch lands strictly *inside* a digestible window (events sealed
    // into the very first generation a reader holds predate any window).
    e.publish_snapshot(0.0);
    for (p, t) in two_blob_points(64) {
        e.insert(&p, t);
    }
    assert!(e.evolution_events_lost() > 0, "capacity 1 must lose events in the init diff");
    // Lineage refuses outright: history is provably incomplete.
    assert_eq!(e.lineage_of(0), Err(EvolveError::EventsLost { lost: e.evolution_events_lost() }));
    // The un-gated graph stays readable for forensics.
    assert!(!e.lineage_graph().is_empty());

    // Generation 2 seals the lossy stretch and poisons exactly the
    // windows that contain it; later clean windows still answer.
    e.publish_snapshot(0.64);
    let lossy = e.digest_since(1);
    assert!(
        matches!(lossy, Err(EvolveError::LossyWindow { .. })),
        "digest over the lossy stretch must refuse, got {lossy:?}"
    );
    e.publish_snapshot(0.65);
    assert!(e.digest_between(2, 3).is_ok(), "clean window past the loss must answer");
    assert!(
        matches!(e.digest_since(1), Err(EvolveError::LossyWindow { .. })),
        "windows spanning the loss stay poisoned"
    );
}

#[test]
fn cursor_past_eviction_is_detectable_before_lineage_drops_history() {
    // A reader holding an old cursor can always detect eviction via
    // `events_evicted` before trusting `events_since` — the same signal
    // the tracker uses to refuse lineage.
    let cfg = EdmConfig::builder(0.8)
        .rate(100.0)
        .beta_for_threshold(3.0)
        .init_points(16)
        .event_capacity(1)
        .build()
        .expect("valid configuration");
    let mut e = EdmStream::new(cfg, Euclidean);
    let stale = e.event_cursor();
    assert_eq!(e.events_evicted(), 0);
    for (p, t) in two_blob_points(64) {
        e.insert(&p, t);
    }
    // The log wrapped: the stale cursor predates the evicted horizon, and
    // the counter says so before any `events_since` read — the number of
    // events the stale reader silently missed is exactly `evicted`.
    assert!(e.events_evicted() > 0, "capacity 1 must evict");
    let visible = e.events_since(stale);
    assert!(visible.len() <= 1, "capacity 1 buffers at most one event");
    assert!(
        e.events_evicted() >= e.evolution_events_lost(),
        "the tracker can never lose more than the log evicted"
    );
    // The engine-level gate reports the same condition as a typed error.
    assert!(matches!(e.lineage_of(0), Err(EvolveError::EventsLost { .. })));
}
