//! Evolution queries: summaries, lineage, and windowed digests (§5's
//! evolution-tracking claims turned into an API).
//!
//! [`crate::evolution`] *records* what happened to the density mountain —
//! emerge / disappear / split / merge / adjust events in a bounded log.
//! This module *answers questions* about it:
//!
//! * **Summaries** ([`ClusterSummary`]): compact per-cluster state —
//!   centroid, mass, bounding extent, birth time, first/last-seen
//!   publication generation — maintained incrementally at publish
//!   cadence, so a dashboard can label clusters without walking cells.
//! * **Lineage** ([`Lineage`], [`LineageGraph`]): identity matching over
//!   the event history. `lineage_of(id)` answers "which of today's
//!   clusters is yesterday's #3?" with merge/split provenance resolved
//!   transitively — the ancestry chain through split parents and the
//!   forward chain through merge survivors.
//! * **Digests** ([`EvolutionDigest`], [`DigestWindow`]): "what changed
//!   since generation G" — births, deaths, merges, splits and mass drift
//!   between two published generations. Digests are computed from sealed
//!   per-generation records, entirely on the reader side, so the serving
//!   tier ships them through its lock-free snapshot path without ever
//!   blocking the writer.
//!
//! Every query is **loss-aware**: the event log is bounded, so history
//! can be evicted before the tracker reads it. When that happens the
//! affected queries return a typed [`EvolveError`] instead of a silently
//! wrong answer — the contract the provenance test suite locks down.

mod digest;
mod lineage;
mod summary;
mod tracker;

pub use digest::{
    DigestWindow, EvolutionDigest, GenerationRecord, MassDrift, MergeEdge, SplitEdge,
};
pub use lineage::{BirthKind, ClusterEnd, EndKind, Lineage, LineageGraph, LineageNode};
pub use summary::{BoundingBox, ClusterSummary};
pub(crate) use tracker::EvolutionTracker;

use serde::{Deserialize, Serialize};

use crate::evolution::ClusterId;

/// Why an evolution query could not be answered.
///
/// These are *contract* errors, not bugs: the log and the generation
/// history are bounded, so a consumer can always ask about history that
/// is gone. The API refuses with the precise reason instead of
/// fabricating an answer from partial data. Crosses the serving tier's
/// wire protocol, hence the serde markers alongside the digest types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvolveError {
    /// Structural events were evicted from the bounded log before the
    /// lineage tracker consumed them (a single tree diff emitted more
    /// events than `event_capacity`). The lineage graph is missing edges
    /// and any provenance answer would be unreliable.
    EventsLost {
        /// How many events were lost.
        lost: u64,
    },
    /// No cluster with this id was ever observed by the tracker.
    UnknownCluster {
        /// The unknown id.
        cluster: ClusterId,
    },
    /// No generation has been published yet (digests are anchored at
    /// published generations; see `EdmStream::publish_snapshot`).
    NoGenerations,
    /// The requested generation lies after the newest published one.
    FutureGeneration {
        /// The requested generation.
        requested: u64,
        /// The newest published generation.
        latest: u64,
    },
    /// The requested generation was evicted from the bounded digest
    /// history (see `EdmConfigBuilder::digest_history`).
    EvictedGeneration {
        /// The requested generation.
        requested: u64,
        /// The oldest generation still held.
        oldest: u64,
    },
    /// `from > to` — the window is inverted.
    InvertedWindow {
        /// Requested window start.
        from: u64,
        /// Requested window end.
        to: u64,
    },
    /// Events inside the requested window were dropped before they could
    /// be sealed into a generation record, so the digest would undercount
    /// changes.
    LossyWindow {
        /// Requested window start.
        from: u64,
        /// Requested window end.
        to: u64,
        /// How many events the window is missing.
        lost: u64,
    },
}

impl std::fmt::Display for EvolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvolveError::EventsLost { lost } => {
                write!(f, "{lost} evolution events were evicted before the tracker read them")
            }
            EvolveError::UnknownCluster { cluster } => {
                write!(f, "cluster {cluster} was never observed")
            }
            EvolveError::NoGenerations => {
                write!(f, "no snapshot generation has been published yet")
            }
            EvolveError::FutureGeneration { requested, latest } => {
                write!(f, "generation {requested} not published yet (latest is {latest})")
            }
            EvolveError::EvictedGeneration { requested, oldest } => {
                write!(
                    f,
                    "generation {requested} evicted from digest history (oldest held is {oldest})"
                )
            }
            EvolveError::InvertedWindow { from, to } => {
                write!(f, "inverted digest window: from {from} > to {to}")
            }
            EvolveError::LossyWindow { from, to, lost } => {
                write!(f, "digest window {from}..{to} is missing {lost} evicted events")
            }
        }
    }
}

impl std::error::Error for EvolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_parameters() {
        assert!(EvolveError::EventsLost { lost: 7 }.to_string().contains('7'));
        assert!(EvolveError::UnknownCluster { cluster: 42 }.to_string().contains("42"));
        assert!(EvolveError::NoGenerations.to_string().contains("generation"));
        let msg = EvolveError::FutureGeneration { requested: 9, latest: 3 }.to_string();
        assert!(msg.contains('9') && msg.contains('3'), "{msg}");
        let msg = EvolveError::EvictedGeneration { requested: 1, oldest: 5 }.to_string();
        assert!(msg.contains('1') && msg.contains('5'), "{msg}");
        let msg = EvolveError::InvertedWindow { from: 4, to: 2 }.to_string();
        assert!(msg.contains('4') && msg.contains('2'), "{msg}");
        let msg = EvolveError::LossyWindow { from: 1, to: 2, lost: 3 }.to_string();
        assert!(msg.contains('3'), "{msg}");
    }
}
