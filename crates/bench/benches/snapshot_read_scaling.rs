//! Snapshot read and publication cost against member count: one quiesced
//! 16-d `scenarios::highd_seed` layout (eight member cells per lattice
//! site, one cluster per site) at several active-member counts, each
//! measured on three paths of the serving tier:
//!
//! * `Published::assign` p50/p99, in process, on probes within 0.2 of a
//!   member — the nearest-seed search behind every `cluster_of`;
//! * `Published::freeze` p50 — a publication that builds its member
//!   table from scratch;
//! * `SnapshotPublisher::publish` p50 with the member set unchanged and
//!   nothing ingested in between (`publish_reuse`);
//! * `SnapshotPublisher::publish` p50 right after a 4-point batch that
//!   absorbs within 0.2 of members (`publish_after_absorb`) — a served
//!   writer's steady state, where every density has moved but no cell has
//!   entered or left a cluster;
//!
//! and on the writer's side, `EdmStream::insert` p50 of one absorb within
//! 0.2 of a member — the path every point of a served writer takes,
//! evolution diff included.
//!
//! Read cost should stay nearly flat as the member count grows; the
//! publication costs grow with it.
//!
//! Besides the console table, the run rewrites the `snapshot_read_scaling`
//! (and `host`) section of the committed `BENCH_ingest.json`. The section
//! is recorded, not gated.

use std::path::Path;
use std::time::Instant;

use edm_bench::report::merge_bench_json;
use edm_bench::scenarios::highd_seed;
use edm_common::metric::Euclidean;
use edm_common::point::DenseVector;
use edm_core::{EdmConfig, EdmStream, TauMode};
use edm_serve::{Published, SnapshotPublisher};

/// Dimensionality of the layout.
const DIM: usize = 16;
/// Member cells per lattice site.
const PER_SITE: usize = 8;
/// Active member counts measured.
const MEMBERS: [usize; 3] = [512, 2_048, 8_192];
/// Timed `assign` calls per member count (after one untimed pass).
const PROBES: usize = 1 << 14;
/// Timed publications per path and member count.
const PUBLICATIONS: usize = 64;
/// Timed absorbs per member count, after the publications.
const ABSORBS: usize = 2_048;
/// Points per ingested batch before a `publish_after_absorb` publication.
const BATCH: usize = 4;
/// Largest probe offset from its member, along dimension 0.
const JITTER: f64 = 0.2;

/// A warmed engine whose `members` cells are all active: every member
/// of `members / PER_SITE` sites four times (clearing the 3-point
/// threshold), one cluster per site.
fn engine(members: usize) -> EdmStream<DenseVector, Euclidean> {
    let cfg = EdmConfig::builder(0.5)
        .rate(1_000.0)
        .beta_for_threshold(3.0)
        .age_adjusted_threshold(false)
        .recycle_horizon(f64::MAX)
        // Above every within-site dependent distance (≤ 0.9), below the
        // 2.0 site spacing.
        .tau_mode(TauMode::Static(1.4))
        .build()
        .expect("valid bench configuration");
    let mut e = EdmStream::new(cfg, Euclidean);
    let mut t = 0.0;
    let mut warm = Vec::with_capacity(4 * members);
    for _ in 0..4 {
        for c in 0..members / PER_SITE {
            for k in 0..PER_SITE {
                t += 1e-4;
                warm.push((highd_seed(c, k, DIM), t));
            }
        }
    }
    e.insert_batch(&warm);
    assert_eq!(e.active_len(), members, "warm-up must activate every member");
    e
}

/// Deterministic probes, each within [`JITTER`] of a member on dim 0.
fn probes(members: usize) -> Vec<DenseVector> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    (0..PROBES)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let m = (state % members as u64) as usize;
            let mut p = highd_seed(m / PER_SITE, m % PER_SITE, DIM);
            p.coords_mut()[0] += JITTER * ((state >> 32) as f64 / u32::MAX as f64);
            p
        })
        .collect()
}

fn percentile(sorted_ns: &[u64], q: f64) -> f64 {
    let idx = ((sorted_ns.len() as f64 * q) as usize).min(sorted_ns.len() - 1);
    sorted_ns[idx] as f64 / 1_000.0
}

/// Times `f` once per call, `n` calls; returns the sorted nanoseconds.
fn timed(n: usize, mut f: impl FnMut(usize)) -> Vec<u64> {
    let mut ns: Vec<u64> = (0..n)
        .map(|i| {
            let begin = Instant::now();
            f(i);
            begin.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    ns
}

struct Row {
    members: usize,
    warm_s: f64,
    assign_p50_us: f64,
    assign_p99_us: f64,
    freeze_p50_us: f64,
    publish_reuse_p50_us: f64,
    publish_after_absorb_p50_us: f64,
    absorb_p50_us: f64,
}

fn measure(members: usize) -> Row {
    let begin = Instant::now();
    let mut e = engine(members);
    let warm_s = begin.elapsed().as_secs_f64();

    let snap = Published::freeze(&mut e);
    assert_eq!(snap.n_members(), members);
    let probes = probes(members);
    let assign = |i: usize| {
        let hit = snap.assign(std::hint::black_box(&probes[i]), &Euclidean);
        assert!(std::hint::black_box(hit).is_ok_and(|a| a.membership().is_some()));
    };
    (0..PROBES).for_each(assign);
    let assign_ns = timed(PROBES, assign);

    let freeze_ns = timed(PUBLICATIONS, |_| {
        std::hint::black_box(Published::freeze(&mut e));
    });

    let mut publisher = SnapshotPublisher::new(&mut e, 1, None);
    let publish_ns = timed(PUBLICATIONS, |_| publisher.publish(&mut e));
    assert_eq!(publisher.source().latest().n_members(), members);

    let mut t = e.stream_time();
    let absorbed = e.stats().absorbed;
    let mut after_absorb_ns: Vec<u64> = (0..PUBLICATIONS)
        .map(|i| {
            let batch: Vec<(DenseVector, f64)> = (0..BATCH)
                .map(|k| {
                    t += 1e-4;
                    (probes[(i * BATCH + k) % PROBES].clone(), t)
                })
                .collect();
            e.insert_batch(&batch);
            let begin = Instant::now();
            publisher.publish(&mut e);
            begin.elapsed().as_nanos() as u64
        })
        .collect();
    after_absorb_ns.sort_unstable();
    assert_eq!(
        e.stats().absorbed,
        absorbed + (PUBLICATIONS * BATCH) as u64,
        "every batch point must absorb"
    );
    let absorbed = e.stats().absorbed;
    let absorb_ns = timed(ABSORBS, |i| {
        t += 1e-4;
        e.insert(std::hint::black_box(&probes[i]), t);
    });
    assert_eq!(e.stats().absorbed, absorbed + ABSORBS as u64, "every probe must absorb");

    Row {
        members,
        warm_s,
        assign_p50_us: percentile(&assign_ns, 0.50),
        assign_p99_us: percentile(&assign_ns, 0.99),
        freeze_p50_us: percentile(&freeze_ns, 0.50),
        publish_reuse_p50_us: percentile(&publish_ns, 0.50),
        publish_after_absorb_p50_us: percentile(&after_absorb_ns, 0.50),
        absorb_p50_us: percentile(&absorb_ns, 0.50),
    }
}

fn main() {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "snapshot_read_scaling: {DIM}-d highd layout, {PROBES} probes, \
         {PUBLICATIONS} publications and {ABSORBS} absorbs per size, {cpus} cpu(s)"
    );
    let rows: Vec<Row> = MEMBERS.iter().map(|&m| measure(m)).collect();
    for r in &rows {
        println!(
            "snapshot_read_scaling/members{}: assign p50 {:.2} us, p99 {:.2} us; \
             freeze p50 {:.1} us; publish (unchanged members) p50 {:.1} us; \
             publish after a {BATCH}-point absorb p50 {:.1} us; absorb p50 {:.1} us; \
             warm-up {:.1} s",
            r.members,
            r.assign_p50_us,
            r.assign_p99_us,
            r.freeze_p50_us,
            r.publish_reuse_p50_us,
            r.publish_after_absorb_p50_us,
            r.absorb_p50_us,
            r.warm_s
        );
    }

    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"members\": {}, \"assign_p50_us\": {:.2}, \"assign_p99_us\": {:.2}, \
                 \"freeze_p50_us\": {:.1}, \"publish_reuse_p50_us\": {:.1}, \
                 \"publish_after_absorb_p50_us\": {:.1}, \"absorb_p50_us\": {:.1}}}",
                r.members,
                r.assign_p50_us,
                r.assign_p99_us,
                r.freeze_p50_us,
                r.publish_reuse_p50_us,
                r.publish_after_absorb_p50_us,
                r.absorb_p50_us
            )
        })
        .collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_ingest.json");
    merge_bench_json(&path, "host", &format!("{{\"cpus\": {cpus}}}")).expect("write bench json");
    merge_bench_json(&path, "snapshot_read_scaling", &format!("[{}]", entries.join(", ")))
        .expect("write bench json");
    println!("[written {}]", path.display());
}
