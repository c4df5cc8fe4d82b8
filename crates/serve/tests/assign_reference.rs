//! `Published::assign` answers exactly what the linear scan it replaced
//! did: the same variant, the same cluster and the same distance bits.
//!
//! The reference below is that scan, rebuilt from the engine's own
//! snapshot and slab: every member seed in ascending cell-id order,
//! keeping the first strictly smaller distance. Seeds sit on a
//! half-integer lattice and probes on quarter steps, so many distances tie
//! exactly and the lowest-id tie-break decides the cluster. Both ways to a
//! payload are checked: a fresh [`Published::freeze`], and
//! [`SnapshotPublisher::publish`], which reuses the previous member table
//! while the member set is unchanged. The publisher's stream jumps past a
//! short recycling horizon between phases, so slots are freed and taken
//! by new cells between publications. A metric that does not opt into
//! `Metric::is_metric` covers the table's no-pivot path. Every payload's
//! members, the cells and labels `assign` answers from, must be the
//! snapshot's clusters flattened and sorted by cell id, on fresh and on
//! reused tables alike.

use edm_common::metric::{Euclidean, Metric};
use edm_common::point::DenseVector;
use edm_core::cell::CellId;
use edm_core::evolution::ClusterId;
use edm_core::{EdmConfig, EdmStream, TauMode};
use edm_serve::{Assignment, Published, SnapshotPublisher};
use proptest::prelude::*;

/// Cell radius: above the quarter-step diagonal (√0.125 ≈ 0.354), below
/// the half-integer lattice spacing, so every lattice site is its own cell.
const R: f64 = 0.36;

/// L1 distance, which does not opt into `Metric::is_metric`: the member
/// table gets no pivot and walks every member.
#[derive(Debug, Clone, Copy)]
struct Manhattan;

impl Metric<DenseVector> for Manhattan {
    fn dist(&self, a: &DenseVector, b: &DenseVector) -> f64 {
        a.coords().iter().zip(b.coords()).map(|(x, y)| (x - y).abs()).sum()
    }

    fn name(&self) -> &'static str {
        "manhattan"
    }
}

/// The scan `Published::assign` replaced.
struct Scan {
    /// `(cluster, seed)` of every member, in ascending cell-id order.
    members: Vec<(ClusterId, DenseVector)>,
    r: f64,
}

impl Scan {
    fn of<M: Metric<DenseVector>>(engine: &EdmStream<DenseVector, M>) -> Scan {
        let snapshot = engine.snapshot(engine.stream_time());
        let mut members = Vec::new();
        for cluster in snapshot.clusters() {
            for &cell in cluster.cells.iter() {
                members.push((cell, cluster.id, engine.slab().get(cell).seed.clone()));
            }
        }
        members.sort_by_key(|&(cell, _, _)| cell);
        let members = members.into_iter().map(|(_, cluster, seed)| (cluster, seed)).collect();
        Scan { members, r: engine.config().r() }
    }

    fn assign<M: Metric<DenseVector>>(&self, p: &DenseVector, metric: &M) -> Assignment {
        let mut best: Option<(f64, ClusterId)> = None;
        for (cluster, seed) in &self.members {
            let d = metric.dist(p, seed);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, *cluster));
            }
        }
        match best {
            None => Assignment::EmptySnapshot,
            Some((d, cluster)) if d <= self.r => Assignment::Member { cluster, distance: d },
            Some((d, _)) => Assignment::OutOfRadius { nearest: d, r: self.r },
        }
    }
}

/// Variant, cluster and float bits: equal keys mean identical answers.
fn key(a: Assignment) -> (&'static str, Option<ClusterId>, u64, u64) {
    match a {
        Assignment::Member { cluster, distance } => {
            ("member", Some(cluster), distance.to_bits(), 0)
        }
        Assignment::EmptySnapshot => ("empty_snapshot", None, 0, 0),
        Assignment::OutOfRadius { nearest, r } => {
            ("out_of_radius", None, nearest.to_bits(), r.to_bits())
        }
    }
}

/// SplitMix64: the test's inputs all derive from one drawn seed.
struct Rng(u64);

impl Rng {
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
}

/// Engine dimensionalities under test.
const DIMS: [usize; 6] = [1, 2, 3, 4, 5, 16];

/// Lattice sites, 0.5 apart: the first three axes span [0, 4]; the other
/// axes of a 16-d site sit at 0 or (one time in four) 0.5.
fn sites(rng: &mut Rng, dim: usize) -> Vec<DenseVector> {
    let n = 4 + rng.below(37);
    (0..n)
        .map(|_| {
            let coords: Vec<f64> = (0..dim)
                .map(|axis| {
                    let steps =
                        if axis < 3 { rng.below(9) } else { usize::from(rng.below(4) == 0) };
                    0.5 * steps as f64
                })
                .collect();
            DenseVector::new(coords)
        })
        .collect()
}

/// Probes on quarter steps: most near a site (ties between neighbouring
/// sites), some anywhere in a wider box (mostly beyond `R`), and one whose
/// distances overflow to infinity.
fn probes(rng: &mut Rng, sites: &[DenseVector], dim: usize) -> Vec<DenseVector> {
    const OFFSETS: [f64; 7] = [-0.5, -0.25, 0.0, 0.0, 0.0, 0.25, 0.5];
    let mut out: Vec<DenseVector> = (0..48)
        .map(|i| {
            if i % 3 == 2 {
                return DenseVector::new(
                    (0..dim).map(|_| 0.25 * rng.below(24) as f64 - 1.0).collect::<Vec<_>>(),
                );
            }
            let mut p = sites[rng.below(sites.len())].clone();
            for _ in 0..dim.min(3) {
                let axis = rng.below(dim);
                p.coords_mut()[axis] += OFFSETS[rng.below(OFFSETS.len())];
            }
            p
        })
        .collect();
    let mut far = sites[0].clone();
    far.coords_mut()[0] = 1e200;
    out.push(far);
    out
}

fn engine<M: Metric<DenseVector>>(metric: M, tau: f64) -> EdmStream<DenseVector, M> {
    let cfg = EdmConfig::builder(R)
        .rate(100.0)
        .beta_for_threshold(3.0)
        .age_adjusted_threshold(false)
        .init_points(4)
        .tau_mode(TauMode::Static(tau))
        .maintenance_every(1)
        .recycle_horizon(5.0)
        .build()
        .expect("valid test configuration");
    EdmStream::new(cfg, metric)
}

/// Static τ choices: below the lattice spacing every cell is its own
/// cluster, so every tie crosses clusters; above it, sites merge.
const TAUS: [f64; 3] = [0.4, 0.75, 1.5];

/// Each of `sites` four times round-robin, 10 ms apart: enough to
/// activate every one of them.
fn sweeps(sites: &[DenseVector], t: &mut f64) -> Vec<(DenseVector, f64)> {
    let mut batch = Vec::new();
    for _ in 0..4 {
        for s in sites {
            *t += 0.01;
            batch.push((s.clone(), *t));
        }
    }
    batch
}

/// A point far from every lattice site, on axis 0.
fn far_out(sites: &[DenseVector], x: f64) -> DenseVector {
    let mut p = sites[0].clone();
    p.coords_mut()[0] = x;
    p
}

/// Asserts that `published` answers every probe as the scan of `engine`.
fn assert_matches_scan<M: Metric<DenseVector>>(
    published: &Published<DenseVector>,
    engine: &EdmStream<DenseVector, M>,
    probes: &[DenseVector],
) {
    let scan = Scan::of(engine);
    assert_eq!(published.n_members(), scan.members.len());
    // The member ids and labels `assign` answers from are the snapshot's
    // clusters, flattened and sorted by cell id.
    let mut flat: Vec<(CellId, ClusterId)> = published
        .snapshot()
        .clusters()
        .iter()
        .flat_map(|c| c.cells.iter().map(move |&cell| (cell, c.id)))
        .collect();
    flat.sort_by_key(|&(cell, _)| cell);
    assert_eq!(
        published.members().collect::<Vec<_>>(),
        flat,
        "generation {}",
        published.generation()
    );
    for p in probes {
        assert_eq!(
            key(published.assign(p, engine.metric()).expect("same dimensionality")),
            key(scan.assign(p, engine.metric())),
            "generation {}, probe {p:?}",
            published.generation()
        );
    }
}

fn check_fresh<M: Metric<DenseVector>>(metric: M, seed: u64, dim: usize, tau: f64) {
    let mut rng = Rng(seed);
    let pool = sites(&mut rng, dim);
    let mut e = engine(metric, tau);
    let mut t = 0.0;
    // Two growing site sets, each with a few reservoir outliers, each
    // checked on a fresh freeze.
    for n in [1 + pool.len() / 2, pool.len()] {
        let mut batch = sweeps(&pool[..n], &mut t);
        for _ in 0..rng.below(3) {
            t += 0.01;
            batch.push((far_out(&pool, 40.0 + 2.0 * rng.below(8) as f64), t));
        }
        e.insert_batch(&batch);
        let published = Published::freeze(&mut e);
        assert_matches_scan(&published, &e, &probes(&mut rng, &pool, dim));
    }
}

fn check_published<M: Metric<DenseVector>>(metric: M, seed: u64, dim: usize, tau: f64) {
    let mut rng = Rng(seed);
    let pool = sites(&mut rng, dim);
    let mut e = engine(metric, tau);
    let mut publisher = SnapshotPublisher::new(&mut e, 1, None);
    let parking = far_out(&pool, 40.0);
    let mut t = 0.0;
    // Every phase feeds as many sites and opens with a point on one
    // parking cell, which it keeps alive in the reservoir. After the jump
    // past the recycling horizon, that point's maintenance tick recycles
    // every other cell, so the phase's new cells take exactly the freed
    // slots: a member set can come back with the same ids and other seeds.
    let per_phase = 1 + rng.below(pool.len());
    for _ in 0..4 {
        let from = rng.below(pool.len() - per_phase + 1);
        let mut batch = vec![(parking.clone(), t)];
        batch.extend(sweeps(&pool[from..from + per_phase], &mut t));
        // Publish after random chunks, or only once the phase is in.
        let chunk = if rng.below(2) == 0 { batch.len() } else { 1 + rng.below(batch.len()) };
        for chunk in batch.chunks(chunk) {
            e.insert_batch(chunk);
            for _ in 0..1 + rng.below(2) {
                publisher.publish(&mut e);
                assert_matches_scan(
                    &publisher.source().latest(),
                    &e,
                    &probes(&mut rng, &pool, dim),
                );
            }
        }
        // Every cell decays out of the DP-Tree (the paper's retention
        // needs ~150 s to drop 4 points below 3) and passes the horizon.
        t += 400.0;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fresh_freezes_answer_what_the_scan_did(
        seed in any::<u64>(),
        dim in 0usize..6,
        tau in 0usize..3,
        manhattan in any::<bool>(),
    ) {
        if manhattan {
            check_fresh(Manhattan, seed, DIMS[dim], TAUS[tau]);
        } else {
            check_fresh(Euclidean, seed, DIMS[dim], TAUS[tau]);
        }
    }

    #[test]
    fn published_payloads_answer_what_the_scan_did(
        seed in any::<u64>(),
        dim in 0usize..6,
        tau in 0usize..3,
        manhattan in any::<bool>(),
    ) {
        if manhattan {
            check_published(Manhattan, seed, DIMS[dim], TAUS[tau]);
        } else {
            check_published(Euclidean, seed, DIMS[dim], TAUS[tau]);
        }
    }
}

#[test]
fn an_empty_snapshot_answers_empty_both_ways() {
    let mut e = engine(Euclidean, TAUS[0]);
    let probe = DenseVector::from([0.25, 0.5]);
    let scan = Scan::of(&e);
    assert_eq!(key(scan.assign(&probe, &Euclidean)), key(Assignment::EmptySnapshot));
    let fresh = Published::freeze(&mut e);
    assert_eq!(fresh.assign(&probe, &Euclidean), Ok(Assignment::EmptySnapshot));
    let mut publisher = SnapshotPublisher::new(&mut e, 1, None);
    publisher.publish(&mut e);
    assert_eq!(
        publisher.source().latest().assign(&probe, &Euclidean),
        Ok(Assignment::EmptySnapshot)
    );
}
