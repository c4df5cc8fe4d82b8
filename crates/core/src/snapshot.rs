//! Owned, read-only views of the engine's clustering state.
//!
//! [`crate::EdmStream::snapshot`] freezes the MSDSubTree partition, τ, the
//! decision graph and the population counters into a [`ClusterSnapshot`]
//! that metrics and reporting code can hold, ship across threads, or diff
//! against later snapshots — without re-entering (or borrowing) the
//! engine. This is the §6.3.1 story at the API level: cluster queries are
//! answered online from maintained state, so freezing them is cheap.
//!
//! A freeze shares what depends only on cluster membership and recomputes
//! what moves with decay. The engine keeps each live cluster's ascending
//! cell list ([`ClusterInfo::cells`]) and seed bounding box
//! ([`crate::ClusterSummary::bounds`]) behind an `Arc`, with one member
//! column ([`ClusterSnapshot::members`]) over all of them, and hands the
//! same allocations to every snapshot until a cell enters or leaves the
//! cluster. The evolution diff and the decay sweep, the only writers of
//! cluster labels, mark such clusters; the next freeze rebuilds just those
//! parts and keeps a rebuilt part's old allocation when its contents came
//! out the same. Densities decay with time for every cell alike, so each
//! freeze walks every cluster's cells once, in ascending id order, and
//! reads each cell's density decayed to `t`: its decision-graph value, its
//! share of the cluster density and its weight in the cluster's ρ-weighted
//! centroid, summed in the same order as a pass that shares nothing, so
//! every value is the same `f64`. The engine's
//! [`crate::EdmStream::clusters`] and [`crate::EdmStream::decision_graph`]
//! are views of the freeze.

use std::sync::Arc;

use edm_common::time::Timestamp;

use crate::cell::CellId;
use crate::evolution::{ClusterId, EventCursor};
use crate::evolve::ClusterSummary;
use crate::filters::EngineStats;

/// A summary of one current cluster (one MSDSubTree, paper Def. 2).
#[derive(Debug, Clone)]
pub struct ClusterInfo {
    /// Persistent cluster id from the identity registry, as
    /// [`crate::EdmStream::cluster_of`] answers.
    pub id: ClusterId,
    /// Root cell (the cluster center, paper Def. 2).
    pub root: CellId,
    /// Member cells, ascending by id. Shared with the other snapshots in
    /// which the cluster has exactly these members.
    pub cells: Arc<[CellId]>,
    /// Total decayed density of the member cells.
    pub density: f64,
}

/// A frozen view of the clustering at one instant.
///
/// Owned data, no borrow of the engine; `Send` whenever the payload type
/// is irrelevant (the snapshot stores none of it).
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    pub(crate) t: Timestamp,
    pub(crate) tau: f64,
    pub(crate) alpha: f64,
    pub(crate) clusters: Vec<ClusterInfo>,
    /// Every active cell with its cluster id, ascending by cell id;
    /// shared with the other snapshots of the same partition.
    pub(crate) members: Arc<[(CellId, ClusterId)]>,
    /// Compact per-cluster summaries of the clusters with a registered
    /// persistent identity, ascending by cluster id.
    pub(crate) summaries: Vec<ClusterSummary>,
    /// Decision-graph densities of the active cells (Fig 2b/15).
    pub(crate) rho: Vec<f64>,
    /// Decision-graph dependent distances, with the root's infinite δ
    /// remapped to 1.05× the largest finite δ for plotting.
    pub(crate) delta: Vec<f64>,
    pub(crate) active_cells: usize,
    pub(crate) reservoir_cells: usize,
    pub(crate) reservoir_peak: usize,
    pub(crate) points: u64,
    pub(crate) event_cursor: EventCursor,
    pub(crate) stats: EngineStats,
    /// Publication generation: how many snapshots had been *published*
    /// (via [`crate::EdmStream::publish_snapshot`]) when this one was
    /// frozen, including itself if it was the published one. Plain
    /// [`crate::EdmStream::snapshot`] freezes carry the count as of the
    /// freeze; 0 means no snapshot was ever published.
    pub(crate) generation: u64,
}

/// The module docs promise snapshots can "ship across threads" — hold the
/// promise at compile time.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<ClusterSnapshot>();
    assert_send_sync::<ClusterInfo>();
};

impl ClusterSnapshot {
    /// Stream time the snapshot was taken at.
    pub fn t(&self) -> Timestamp {
        self.t
    }

    /// Stream time the snapshot reflects — an alias of [`ClusterSnapshot::t`]
    /// reading naturally at serving call sites ("state as of `t`"). A
    /// consumer comparing this against the live stream clock gets the
    /// snapshot's *stream-time* staleness; the serving tier's wall-clock
    /// age is a separate number (`edm-serve`'s `ServeStats`).
    pub fn as_of(&self) -> Timestamp {
        self.t
    }

    /// Publication generation at freeze time: the total number of
    /// snapshots published through [`crate::EdmStream::publish_snapshot`],
    /// counting this one if it was published. Strictly monotone over a
    /// publisher's output — concurrent readers use it to order the frozen
    /// views they observe. 0 = nothing was ever published.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The separation threshold τ in force.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The adaptive-τ balance parameter α (learned or configured).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of clusters (MSDSubTrees).
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The clusters, ordered by root cell id.
    pub fn clusters(&self) -> &[ClusterInfo] {
        &self.clusters
    }

    /// Compact per-cluster summaries (centroid, mass, bounding extent,
    /// birth time), one per cluster, ascending by cluster id; geometry is
    /// `None` for coordinate-less payloads (see [`ClusterSummary`]).
    pub fn summaries(&self) -> &[ClusterSummary] {
        &self.summaries
    }

    /// The summary of cluster `id`, if it is live and identity-tracked.
    /// Binary search over the id-sorted summaries.
    pub fn summary(&self, id: ClusterId) -> Option<&ClusterSummary> {
        let at = self.summaries.binary_search_by_key(&id, |s| s.cluster).ok()?;
        Some(&self.summaries[at])
    }

    /// Looks up a cluster by its persistent id.
    pub fn cluster(&self, id: ClusterId) -> Option<&ClusterInfo> {
        self.clusters.iter().find(|c| c.id == id)
    }

    /// Every active cell with the id of its cluster, ascending by cell id:
    /// the member column the serving tier's member table is built from.
    /// Holds exactly the cells of [`ClusterSnapshot::clusters`].
    pub fn members(&self) -> &[(CellId, ClusterId)] {
        &self.members
    }

    /// Whether `other` holds this snapshot's member column itself, not a
    /// copy: then both froze the same active cells in the same clusters.
    /// The engine shares the column between snapshots while no cell
    /// enters or leaves a cluster, so a consumer that indexes the members
    /// (the serving tier's member table) can keep its index by this test
    /// alone. `false` says nothing: equal columns may still be copies
    /// (a plain [`crate::EdmStream::snapshot`] taken while a cluster's
    /// membership has changed since the last publication builds its own).
    pub fn shares_members_with(&self, other: &ClusterSnapshot) -> bool {
        Arc::ptr_eq(&self.members, &other.members)
    }

    /// Persistent cluster id of the cluster containing `cell`, if any.
    /// Binary search over the member column.
    pub fn cluster_of_cell(&self, cell: CellId) -> Option<ClusterId> {
        let at = self.members.binary_search_by_key(&cell, |&(c, _)| c).ok()?;
        Some(self.members[at].1)
    }

    /// The (ρ, δ) decision graph of the active cells (Fig 2b/15); the
    /// root's infinite δ is remapped to 1.05× the largest finite δ.
    pub fn decision_graph(&self) -> (&[f64], &[f64]) {
        (&self.rho, &self.delta)
    }

    /// Number of active cells (DP-Tree nodes).
    pub fn active_cells(&self) -> usize {
        self.active_cells
    }

    /// Number of inactive cells (outlier reservoir population).
    pub fn reservoir_cells(&self) -> usize {
        self.reservoir_cells
    }

    /// Largest reservoir population observed so far (Fig 16).
    pub fn reservoir_peak(&self) -> usize {
        self.reservoir_peak
    }

    /// Total live cells.
    pub fn n_cells(&self) -> usize {
        self.active_cells + self.reservoir_cells
    }

    /// Stream points processed up to the snapshot.
    pub fn points(&self) -> u64 {
        self.points
    }

    /// Cursor after the newest evolution event at snapshot time — feed to
    /// `EdmStream::events_since` to read exactly the events after this
    /// frozen view.
    pub fn event_cursor(&self) -> EventCursor {
        self.event_cursor
    }

    /// Summed decayed density over all clusters.
    pub fn total_density(&self) -> f64 {
        self.clusters.iter().map(|c| c.density).sum()
    }

    /// The engine's runtime counters frozen at snapshot time — filter and
    /// neighbor-index effectiveness ([`EngineStats::filter_rate`],
    /// [`EngineStats::index_prune_rate`]) without re-entering the engine.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> ClusterSnapshot {
        ClusterSnapshot {
            t: 2.0,
            tau: 1.5,
            alpha: 0.6,
            clusters: vec![
                ClusterInfo {
                    id: 7,
                    root: CellId(1),
                    cells: Arc::new([CellId(1), CellId(2)]),
                    density: 10.0,
                },
                ClusterInfo { id: 9, root: CellId(5), cells: Arc::new([CellId(5)]), density: 4.0 },
            ],
            members: Arc::new([(CellId(1), 7), (CellId(2), 7), (CellId(5), 9)]),
            summaries: vec![
                ClusterSummary {
                    cluster: 7,
                    cells: 2,
                    mass: 10.0,
                    centroid: Some(vec![0.5, 0.0]),
                    bounds: None,
                    born: 0.5,
                    as_of: 2.0,
                    first_generation: 3,
                    last_seen: 3,
                },
                ClusterSummary {
                    cluster: 9,
                    cells: 1,
                    mass: 4.0,
                    centroid: Some(vec![2.5, 0.0]),
                    bounds: None,
                    born: 1.5,
                    as_of: 2.0,
                    first_generation: 3,
                    last_seen: 3,
                },
            ],
            rho: vec![8.0, 2.0, 4.0],
            delta: vec![3.0, 0.4, 2.0],
            active_cells: 3,
            reservoir_cells: 2,
            reservoir_peak: 4,
            points: 100,
            event_cursor: EventCursor::START,
            stats: EngineStats {
                points: 100,
                index_probed: 40,
                index_pruned: 60,
                ..Default::default()
            },
            generation: 3,
        }
    }

    #[test]
    fn accessors_reflect_frozen_state() {
        let s = snap();
        assert_eq!(s.n_clusters(), 2);
        assert_eq!(s.n_cells(), 5);
        assert_eq!(s.cluster(9).unwrap().root, CellId(5));
        assert!(s.cluster(1).is_none());
        assert_eq!(s.cluster_of_cell(CellId(1)), Some(7));
        assert_eq!(s.cluster_of_cell(CellId(2)), Some(7));
        assert_eq!(s.cluster_of_cell(CellId(5)), Some(9));
        // Absent cells below, between and above the members.
        for absent in [0, 3, 4, 6, 100] {
            assert_eq!(s.cluster_of_cell(CellId(absent)), None, "cell {absent}");
        }
        assert!((s.total_density() - 14.0).abs() < 1e-12);
        let (rho, delta) = s.decision_graph();
        assert_eq!(rho.len(), delta.len());
        assert_eq!(s.stats().points, 100);
        assert!((s.stats().index_prune_rate() - 0.6).abs() < 1e-12);
        assert_eq!(s.generation(), 3);
        assert_eq!(s.as_of(), s.t());
        assert_eq!(s.summaries().len(), 2);
        assert_eq!(s.summary(7).unwrap().cells, 2);
        assert_eq!(s.summary(9).unwrap().cells, 1);
        // Absent ids below, between and above the summarized ones.
        for absent in [0, 6, 8, 10, 400] {
            assert!(s.summary(absent).is_none(), "cluster {absent}");
        }
    }
}
