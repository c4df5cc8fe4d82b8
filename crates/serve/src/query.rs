//! The typed, transport-agnostic query surface of the serving tier.
//!
//! [`crate::ServeHandle`] used to be a bag of ad-hoc methods with mixed
//! contracts (`cluster_of` returning a bare `Option`, `digest_since`
//! returning a core error, `stats` infallible). This module redesigns
//! that surface into **one evaluation path**: every question a reader can
//! ask is a [`Query`] variant, every answer a [`QueryResponse`], every
//! refusal a [`QueryError`], and
//! [`crate::ServeHandle::execute`] is the single function mapping one to
//! the other. The inherent convenience methods (`cluster_of`,
//! `n_clusters`, …) remain, but as thin wrappers over `execute` — which
//! is what makes in-process callers and the TCP front end
//! ([`crate::net`]) *answers-identical by construction*: both funnel
//! through the same match arm, the network merely adds a wire encoding
//! on each side.

use std::time::Duration;

use edm_core::evolution::ClusterId;
use edm_core::{EvolutionDigest, EvolveError};

use crate::stats::ServeStats;

/// One question against the latest published snapshot.
///
/// The generic payload `P` only matters to [`Query::ClusterOf`]; every
/// other variant is payload-free. The variant set is closed and small on
/// purpose — it is also the wire protocol's request vocabulary (see
/// [`crate::net::wire`]), so adding a variant means extending the codec
/// and its round-trip proptests in the same change.
#[derive(Debug, Clone, PartialEq)]
pub enum Query<P> {
    /// Which cluster would this point join right now?
    ClusterOf {
        /// The probe point, under the engine's own metric.
        point: P,
    },
    /// How many clusters does the published snapshot hold?
    NClusters,
    /// The published (ρ, δ) decision graph.
    DecisionGraph,
    /// What changed since generation `from` (up to the published head)?
    DigestSince {
        /// Window start generation (exclusive for events).
        from: u64,
    },
    /// What changed in the window `(from, to]` of published generations?
    DigestBetween {
        /// Window start generation (exclusive for events).
        from: u64,
        /// Window end generation (inclusive).
        to: u64,
    },
    /// Generation of the published snapshot (1-based, monotone).
    Generation,
    /// Wall-clock age of the published snapshot.
    SnapshotAge,
    /// The serving tier's statistics counters.
    Stats,
    /// Is the writer thread still alive?
    Health,
}

impl<P> Query<P> {
    /// Stable lower-snake name of the variant — the request tag on the
    /// wire and the label in per-query logs.
    pub fn name(&self) -> &'static str {
        match self {
            Query::ClusterOf { .. } => "cluster_of",
            Query::NClusters => "n_clusters",
            Query::DecisionGraph => "decision_graph",
            Query::DigestSince { .. } => "digest_since",
            Query::DigestBetween { .. } => "digest_between",
            Query::Generation => "generation",
            Query::SnapshotAge => "snapshot_age",
            Query::Stats => "stats",
            Query::Health => "health",
        }
    }
}

/// Where a [`Query::ClusterOf`] probe landed.
///
/// The three-way outcome replaces the old bare `Option<ClusterId>`: a
/// miss now says *why* — nothing has been clustered yet versus the point
/// genuinely sitting outside every cluster's reach — which is the
/// difference between "wait for the first publication" and "this point
/// is an outlier" for a monitoring client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Assignment {
    /// The point falls within `r` of a published cluster seed.
    Member {
        /// The cluster of the nearest seed within `r` (ties toward the
        /// lower cell id, matching the engine's assignment scan).
        cluster: ClusterId,
        /// Distance to that winning seed.
        distance: f64,
    },
    /// The published snapshot holds no cluster members at all — the
    /// stream has not produced a cluster yet (or everything decayed).
    EmptySnapshot,
    /// Seeds exist, but the nearest one lies beyond the cell radius `r`:
    /// the point would currently be an outlier.
    OutOfRadius {
        /// Distance to the nearest published seed (> `r`).
        nearest: f64,
        /// The cell radius the point failed to reach.
        r: f64,
    },
}

impl Assignment {
    /// The membership as the old `Option` contract: `Some(cluster)` on
    /// [`Assignment::Member`], `None` on either miss.
    pub fn membership(&self) -> Option<ClusterId> {
        match self {
            Assignment::Member { cluster, .. } => Some(*cluster),
            _ => None,
        }
    }
}

/// Why a [`Query::ClusterOf`] probe missed — the `Err` side of
/// [`crate::ServeHandle::try_cluster_of`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterMiss {
    /// The published snapshot holds no cluster members at all.
    EmptySnapshot,
    /// The nearest published seed lies beyond the cell radius.
    OutOfRadius {
        /// Distance to the nearest published seed (> `r`).
        nearest: f64,
        /// The cell radius the point failed to reach.
        r: f64,
    },
    /// The point cannot be compared with the published seeds at all.
    DimensionMismatch(DimensionMismatch),
}

impl std::fmt::Display for ClusterMiss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterMiss::EmptySnapshot => {
                write!(f, "the published snapshot holds no cluster members yet")
            }
            ClusterMiss::OutOfRadius { nearest, r } => {
                write!(f, "nearest published seed at distance {nearest} exceeds the radius {r}")
            }
            ClusterMiss::DimensionMismatch(m) => m.fmt(f),
        }
    }
}

impl std::error::Error for ClusterMiss {}

/// A [`Query::ClusterOf`] point whose dimensionality differs from the
/// published member seeds'. Distances between such points mean nothing
/// (the kernels compare coordinate by coordinate), so the probe is
/// refused instead of answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimensionMismatch {
    /// Dimensionality of the published member seeds.
    pub expected: usize,
    /// Dimensionality of the refused point.
    pub got: usize,
}

impl std::fmt::Display for DimensionMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "point has {} coordinates but the published members have {}",
            self.got, self.expected
        )
    }
}

impl std::error::Error for DimensionMismatch {}

/// The writer thread's liveness, as a value (the query form of
/// [`crate::ServeHandle::health`]).
#[derive(Debug, Clone, PartialEq)]
pub enum HealthStatus {
    /// The writer thread is alive (or exited cleanly after a drain).
    Ok,
    /// The writer thread panicked; ingest fails, reads serve the last
    /// published snapshot.
    WriterPanicked {
        /// The panic payload, stringified.
        message: String,
    },
}

impl HealthStatus {
    /// `true` on [`HealthStatus::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, HealthStatus::Ok)
    }
}

/// One answer from [`crate::ServeHandle::execute`]. Variants pair with
/// [`Query`] one-to-one except the two digest queries, which share
/// [`QueryResponse::Digest`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Answer to [`Query::ClusterOf`].
    ClusterOf(Assignment),
    /// Answer to [`Query::NClusters`].
    NClusters(usize),
    /// Answer to [`Query::DecisionGraph`]: the (ρ, δ) columns, index-
    /// aligned.
    DecisionGraph {
        /// Densities of the active cells.
        rho: Vec<f64>,
        /// Dependent distances of the active cells.
        delta: Vec<f64>,
    },
    /// Answer to [`Query::DigestSince`] / [`Query::DigestBetween`].
    Digest(EvolutionDigest),
    /// Answer to [`Query::Generation`].
    Generation(u64),
    /// Answer to [`Query::SnapshotAge`]. Microsecond granularity — the
    /// wire codec round-trips ages exactly at this resolution.
    SnapshotAge(Duration),
    /// Answer to [`Query::Stats`].
    Stats(ServeStats),
    /// Answer to [`Query::Health`].
    Health(HealthStatus),
}

impl QueryResponse {
    /// Stable lower-snake name of the variant (the response tag on the
    /// wire).
    pub fn name(&self) -> &'static str {
        match self {
            QueryResponse::ClusterOf(_) => "cluster_of",
            QueryResponse::NClusters(_) => "n_clusters",
            QueryResponse::DecisionGraph { .. } => "decision_graph",
            QueryResponse::Digest(_) => "digest",
            QueryResponse::Generation(_) => "generation",
            QueryResponse::SnapshotAge(_) => "snapshot_age",
            QueryResponse::Stats(_) => "stats",
            QueryResponse::Health(_) => "health",
        }
    }
}

/// Why [`crate::ServeHandle::execute`] refused to answer. Domain
/// refusals only — transport problems are [`crate::net::NetError`] /
/// protocol errors, and a `ClusterOf` miss is data
/// ([`Assignment`]), not an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A digest query hit the bounded evolution history's contract
    /// (window evicted, future generation, tracking disabled, …).
    Evolve(EvolveError),
    /// A `ClusterOf` point of another dimensionality than the published
    /// members.
    DimensionMismatch(DimensionMismatch),
}

impl QueryError {
    /// Stable wire code of the variant (the `"code"` of its error frame).
    pub fn code(&self) -> &'static str {
        match self {
            QueryError::Evolve(_) => "evolve",
            QueryError::DimensionMismatch(_) => "dimension_mismatch",
        }
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Evolve(e) => write!(f, "evolution query refused: {e}"),
            QueryError::DimensionMismatch(m) => write!(f, "cluster_of refused: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<EvolveError> for QueryError {
    fn from(e: EvolveError) -> Self {
        QueryError::Evolve(e)
    }
}

impl From<DimensionMismatch> for QueryError {
    fn from(m: DimensionMismatch) -> Self {
        QueryError::DimensionMismatch(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_names_are_stable_wire_tags() {
        let q: Query<()> = Query::DigestBetween { from: 1, to: 2 };
        assert_eq!(q.name(), "digest_between");
        assert_eq!(Query::<()>::Health.name(), "health");
        assert_eq!(Query::ClusterOf { point: () }.name(), "cluster_of");
    }

    #[test]
    fn assignment_membership_matches_the_old_option_contract() {
        assert_eq!(Assignment::Member { cluster: 7, distance: 0.1 }.membership(), Some(7));
        assert_eq!(Assignment::EmptySnapshot.membership(), None);
        assert_eq!(Assignment::OutOfRadius { nearest: 2.0, r: 0.5 }.membership(), None);
    }

    #[test]
    fn errors_display_their_reason() {
        let miss = ClusterMiss::OutOfRadius { nearest: 2.0, r: 0.5 };
        assert!(miss.to_string().contains("2"));
        let err = QueryError::Evolve(EvolveError::NoGenerations);
        assert!(err.to_string().contains("refused"));
        let mismatch = DimensionMismatch { expected: 16, got: 3 };
        assert!(QueryError::from(mismatch).to_string().contains("3 coordinates"));
        assert_eq!(QueryError::from(mismatch).code(), "dimension_mismatch");
        assert_eq!(ClusterMiss::DimensionMismatch(mismatch).to_string(), mismatch.to_string());
        assert!(HealthStatus::Ok.is_ok());
        assert!(!HealthStatus::WriterPanicked { message: "boom".into() }.is_ok());
    }
}
