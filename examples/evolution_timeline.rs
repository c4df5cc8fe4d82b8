//! Replay of the paper's Fig 6/7 story: the scripted SDS stream, with a
//! per-second cluster-count timeline and the full evolution narrative
//! (approach → merge → emerge → disappear → split).
//!
//! ```text
//! cargo run --release --example evolution_timeline
//! ```

use edmstream::data::gen::sds::{self, SdsConfig};
use edmstream::{DecayModel, DenseVector, EdmConfig, EdmStream, Euclidean, EventKind};

fn main() {
    let stream = sds::generate(&SdsConfig::default());
    println!("SDS: {} points over {:.0} seconds\n", stream.len(), stream.duration());

    // SDS plays out in 20 s, so it needs a fast-forgetting decay model
    // (half-life ≈ 1.7 s): with the paper's 346 s half-life a faded
    // component would still be active when the script moves on.
    let cfg = EdmConfig::builder(0.3)
        .decay(DecayModel::new(0.998, 200.0))
        .beta(3e-3)
        .rate(1_000.0)
        .recycle_horizon(5.0)
        .tau_every(128)
        .build()
        .expect("valid SDS configuration");
    let mut engine: EdmStream<DenseVector, Euclidean> = EdmStream::new(cfg, Euclidean);

    let mut next = 1.0;
    for p in stream.iter() {
        engine.insert(&p.payload, p.ts);
        // Drain events as they happen: each is delivered exactly once.
        for ev in engine.take_events() {
            match &ev.kind {
                EventKind::Emerge { cluster } => {
                    println!("  {:>5.2}s  + cluster {cluster} emerged", ev.t)
                }
                EventKind::Disappear { cluster } => {
                    println!("  {:>5.2}s  - cluster {cluster} disappeared", ev.t)
                }
                EventKind::Split { from, into } => {
                    println!("  {:>5.2}s  cluster {from} split off {into:?}", ev.t)
                }
                EventKind::Merge { from, into } => {
                    println!("  {:>5.2}s  clusters {from:?} merged into {into}", ev.t)
                }
                EventKind::Adjust { .. } => {}
            }
        }
        if p.ts >= next {
            // `publish_snapshot` (not `snapshot`) seals a generation, so
            // the digest queries below have one record per second.
            let snap = engine.publish_snapshot(p.ts);
            let bar = "#".repeat(snap.n_clusters());
            println!(
                "t={:>2.0}s  clusters {:<3} {bar}  (tau {:.2}, {} active cells)",
                next,
                snap.n_clusters(),
                snap.tau(),
                snap.active_cells()
            );
            next += 1.0;
        }
    }
    println!("\n(the script: two clusters approach and merge ~8-9s; a new one");
    println!(" emerges ~12-13s; the old one dies ~14-17s; the survivor splits)");

    // ---- evolution queries over the finished run ----
    // The digest answers "what changed since generation G" in one struct:
    // ask it across the whole run, and across just the second half.
    let (oldest, latest) = engine.digest_window().generations().expect("generations sealed");
    let whole = engine.digest_since(oldest).expect("window held");
    println!(
        "\ndigest g{oldest}→g{latest}: {} births, {} deaths, {} merges, {} splits, \
         {} adjustments",
        whole.births.len(),
        whole.deaths.len(),
        whole.merges.len(),
        whole.splits.len(),
        whole.adjustments
    );
    let mid = oldest + (latest - oldest) / 2;
    let half = engine.digest_between(mid, latest).expect("window held");
    println!("digest g{mid}→g{latest}: births {:?}, deaths {:?}", half.births, half.deaths);

    // Lineage resolves identity through merges and splits: pick the first
    // merge of the run and ask where the absorbed cluster's points answer
    // to today.
    if let Some(merge) = whole.merges.first() {
        let victim = merge.from[0];
        let lineage = engine.lineage_of(victim).expect("lossless run");
        println!(
            "\ncluster {victim} was absorbed at t={:.2}s; its identity chain {:?} \
             resolves to cluster {} ({})",
            merge.t,
            lineage.absorbed_into,
            lineage.current,
            if lineage.alive { "alive" } else { "since died" }
        );
        // The rolling summary outlives the cluster itself (for as long as
        // its era stays inside the digest history).
        if let Some(summary) = engine.summary_of(victim) {
            println!(
                "its last summary: mass {:.1}, {} cells, centroid {:?}",
                summary.mass, summary.cells, summary.centroid
            );
        }
    }
    if let Some(split) = whole.splits.first() {
        let fragment = split.into[0];
        let lineage = engine.lineage_of(fragment).expect("lossless run");
        println!(
            "cluster {fragment} split off at t={:.2}s; its ancestry runs back to \
             cluster {} via {} hop(s)",
            split.t,
            lineage.progenitor(),
            lineage.ancestry.len() - 1
        );
    }
}
