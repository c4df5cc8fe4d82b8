//! News-topic monitoring over a token-set stream (the paper's §6.2.2 use
//! case): cluster headlines under Jaccard distance and report topic
//! births, deaths, splits and merges as they happen.
//!
//! ```text
//! cargo run --release --example news_topics
//! ```

use edmstream::data::gen::nads::{self, NadsConfig};
use edmstream::{EdmConfig, EdmStream, EventKind, Jaccard, TauMode};

fn main() {
    let ncfg = NadsConfig { n: 60_000, ..Default::default() };
    let stream = nads::generate(&ncfg);
    println!(
        "streaming {} headlines over {} calendar days ({} topics in ground truth)\n",
        stream.len(),
        nads::DAYS,
        stream.n_classes
    );

    // Engine over token sets, the NADS parameterization: news decay
    // (half-life ≈ one calendar day), β putting the activation threshold
    // at a density of 3 headlines, and a static τ of 0.75, between the
    // Jaccard distance of a topic's stories (≈ 0.7) and that of unrelated
    // topics (≳ 0.9).
    let rate = stream.len() as f64 / (nads::DAYS * ncfg.seconds_per_day);
    let decay = edmstream::DecayModel::new(0.998, 60.0);
    let cfg = EdmConfig::builder(0.4)
        .decay(decay)
        .rate(rate)
        .beta(3.0 * (1.0 - decay.retention()) / rate)
        .init_points(500)
        .recycle_horizon(5.0 * ncfg.seconds_per_day)
        .tau_mode(TauMode::Static(0.75))
        // Token sets have no coordinate embedding, so the engine indexes
        // them with the cover tree, which prunes by Jaccard distance
        // alone (`engine.index_label()` says so below).
        .build()
        .expect("valid NADS configuration");
    let mut engine = EdmStream::new(cfg, Jaccard);

    // Non-destructive incremental reads: a cursor remembers where this
    // consumer got to, so other readers could drain independently.
    let mut cursor = edmstream::EventCursor::START;
    let mut last_day_report = 0i64;
    for p in stream.iter() {
        engine.insert(&p.payload, p.ts);
        // Print structural events as the stream plays.
        let fresh = engine.events_since(cursor);
        cursor = engine.event_cursor();
        for ev in &fresh {
            let day = nads::day_of(ev.t, &ncfg);
            match &ev.kind {
                EventKind::Split { from, into } => {
                    println!(
                        "[{}] topic split: cluster {from} -> new {into:?}",
                        nads::format_day(day)
                    );
                }
                EventKind::Merge { from, into } => {
                    println!("[{}] topics merged: {from:?} -> {into}", nads::format_day(day));
                }
                _ => {}
            }
        }
        // A compact daily status line (every 10 days).
        let day = nads::day_of(p.ts, &ncfg) as i64;
        if day >= last_day_report + 10 {
            last_day_report = day;
            println!(
                "[{}] tracking {} live topics over {} active story-cells",
                nads::format_day(day as f64),
                engine.n_clusters(),
                engine.active_len()
            );
        }
    }
    println!(
        "\ndone: {} headlines, {} evolution events, final topic count {} ({} index)",
        engine.stats().points,
        engine.events_recorded(),
        engine.n_clusters(),
        engine.index_label()
    );
}
