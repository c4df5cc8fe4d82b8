//! The engine-side evolution tracker: consumes the bounded event log
//! incrementally, maintains the lineage graph and the rolling summary
//! map, and seals one [`GenerationRecord`] per snapshot publication.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use edm_common::time::Timestamp;

use super::digest::{DigestWindow, GenerationRecord};
use super::lineage::LineageGraph;
use super::summary::ClusterSummary;
use crate::evolution::{ClusterId, Event, EventCursor, EvolutionLog};

/// Incremental consumer of the [`EvolutionLog`].
///
/// Synced by the engine right after every tree diff (the only site that
/// records structural events), so the tracker's cursor normally never
/// falls behind the log's eviction point — loss is only possible when a
/// *single* diff records more events than `event_capacity`. When it does
/// happen the tracker counts the loss instead of guessing: lineage
/// queries fail with `EvolveError::EventsLost`, and the generation
/// record sealed over the lossy interval poisons digests covering it.
#[derive(Debug, Clone)]
pub(crate) struct EvolutionTracker {
    graph: LineageGraph,
    /// Sequence number of the next log event to consume.
    cursor: u64,
    /// Total events evicted before the tracker could read them.
    lost: u64,
    /// Events since the last sealed generation (bounded at `pending_cap`).
    pending: VecDeque<Event>,
    /// Pending-interval events dropped to the bound (or lost to log
    /// eviction); rolled into the next sealed record's `lost`.
    pending_lost: u64,
    pending_cap: usize,
    /// Sealed generation records, oldest first, bounded at `history_cap`.
    history: VecDeque<Arc<GenerationRecord>>,
    history_cap: usize,
    /// Rolling per-cluster summaries at publish cadence.
    summaries: BTreeMap<ClusterId, ClusterSummary>,
}

impl EvolutionTracker {
    /// `pending_cap` bounds the events buffered between publications
    /// (mirror of the log's `event_capacity`); `history_cap` bounds the
    /// sealed generation records (`digest_history`). Zeros are clamped to
    /// 1 — the config builder rejects them before they can reach here.
    pub(crate) fn new(pending_cap: usize, history_cap: usize) -> Self {
        EvolutionTracker {
            graph: LineageGraph::new(),
            cursor: 0,
            lost: 0,
            pending: VecDeque::new(),
            pending_lost: 0,
            pending_cap: pending_cap.max(1),
            history: VecDeque::new(),
            history_cap: history_cap.max(1),
            summaries: BTreeMap::new(),
        }
    }

    /// Consumes every log event at or after the tracker's cursor,
    /// folding it into the lineage graph and the pending interval.
    /// Detects (and counts) events already evicted from the log.
    pub(crate) fn sync(&mut self, log: &EvolutionLog) {
        let first_buffered = log.evicted();
        if self.cursor < first_buffered {
            let lost = first_buffered - self.cursor;
            self.lost += lost;
            self.pending_lost += lost;
            self.cursor = first_buffered;
        }
        for e in log.events_since(EventCursor(self.cursor)) {
            self.graph.apply(e);
            if self.pending.len() >= self.pending_cap {
                self.pending.pop_front();
                self.pending_lost += 1;
            }
            self.pending.push_back(e.clone());
        }
        self.cursor = log.cursor().seq();
    }

    /// Whether the tracker has consumed every event `log` has recorded.
    pub(crate) fn has_read(&self, log: &EvolutionLog) -> bool {
        self.cursor == log.cursor().seq()
    }

    /// Seals the pending interval into the record of `generation`:
    /// `live` is the `(cluster, mass)` list at the publication instant
    /// (ascending by id) and `summaries` the freshly frozen per-cluster
    /// summaries, merged into the rolling map (preserving each cluster's
    /// true `first_generation`). A cluster already held is updated in
    /// place: its centroid vector is reused, and its bounds become the
    /// snapshot's shared box.
    pub(crate) fn seal(
        &mut self,
        generation: u64,
        t: Timestamp,
        live: Vec<(ClusterId, f64)>,
        summaries: &[ClusterSummary],
    ) {
        debug_assert!(live.windows(2).all(|w| w[0].0 < w[1].0), "live list must ascend by id");
        let record = GenerationRecord {
            generation,
            t,
            live,
            events: std::mem::take(&mut self.pending).into(),
            lost: std::mem::take(&mut self.pending_lost),
        };
        self.history.push_back(Arc::new(record));
        if self.history.len() > self.history_cap {
            self.history.pop_front();
        }

        // Both sides ascend by cluster id: one merge walk updates every
        // held cluster in place and collects the newcomers.
        debug_assert!(summaries.windows(2).all(|w| w[0].cluster < w[1].cluster));
        let mut newcomers = Vec::new();
        let mut held = self.summaries.iter_mut().peekable();
        for s in summaries {
            while held.next_if(|(&id, _)| id < s.cluster).is_some() {}
            let Some((_, kept)) = held.next_if(|(&id, _)| id == s.cluster) else {
                newcomers.push(ClusterSummary { last_seen: generation, ..s.clone() });
                continue;
            };
            // Field by field, so the held centroid keeps its allocation;
            // `first_generation` stays.
            let ClusterSummary {
                cluster: _,
                cells,
                mass,
                centroid,
                bounds,
                born,
                as_of,
                first_generation: _,
                last_seen: _,
            } = s;
            kept.cells = *cells;
            kept.mass = *mass;
            kept.centroid.clone_from(centroid);
            kept.bounds = bounds.clone();
            kept.born = *born;
            kept.as_of = *as_of;
            kept.last_seen = generation;
        }
        self.summaries.extend(newcomers.into_iter().map(|s| (s.cluster, s)));
        // Keep dead clusters' summaries only while their era is still
        // inside the digest history; beyond it they are unreachable by
        // any answerable query and would grow without bound.
        let oldest_held = self.history.front().map_or(generation, |r| r.generation);
        self.summaries.retain(|_, s| s.last_seen >= oldest_held);
    }

    /// The lineage graph replayed so far.
    pub(crate) fn graph(&self) -> &LineageGraph {
        &self.graph
    }

    /// Total events evicted before the tracker could read them.
    pub(crate) fn lost(&self) -> u64 {
        self.lost
    }

    /// A cheap `Arc`-shared view of the sealed generation records.
    pub(crate) fn window(&self) -> DigestWindow {
        DigestWindow { records: self.history.iter().cloned().collect() }
    }

    /// The rolling summary of `cluster`, if still held.
    pub(crate) fn summary_of(&self, cluster: ClusterId) -> Option<&ClusterSummary> {
        self.summaries.get(&cluster)
    }

    /// All rolling summaries, ascending by cluster id.
    pub(crate) fn summaries(&self) -> impl Iterator<Item = &ClusterSummary> {
        self.summaries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolution::EventKind;

    fn summary(cluster: ClusterId, generation: u64) -> ClusterSummary {
        ClusterSummary {
            cluster,
            cells: 1,
            mass: 1.0,
            centroid: None,
            bounds: None,
            born: 0.0,
            as_of: generation as f64,
            first_generation: generation,
            last_seen: generation,
        }
    }

    #[test]
    fn sync_consumes_incrementally() {
        let mut log = EvolutionLog::with_capacity(16);
        let mut tr = EvolutionTracker::new(16, 4);
        log.push(0.0, EventKind::Emerge { cluster: 0 });
        tr.sync(&log);
        assert_eq!(tr.graph().len(), 1);
        assert_eq!(tr.lost(), 0);
        log.push(1.0, EventKind::Emerge { cluster: 1 });
        tr.sync(&log);
        tr.sync(&log); // idempotent: nothing new to read
        assert_eq!(tr.graph().len(), 2);
        assert_eq!(tr.pending.len(), 2);
    }

    #[test]
    fn eviction_between_syncs_is_counted_as_loss() {
        let mut log = EvolutionLog::with_capacity(2);
        let mut tr = EvolutionTracker::new(16, 4);
        for i in 0..5u64 {
            log.push(i as f64, EventKind::Emerge { cluster: i });
        }
        tr.sync(&log);
        assert_eq!(tr.lost(), 3, "capacity 2 kept only the last 2 of 5");
        assert_eq!(tr.graph().len(), 2);
        // The loss is permanent and carried into the next sealed record.
        tr.seal(1, 5.0, vec![], &[]);
        assert_eq!(tr.window().records().next().unwrap().lost(), 3);
    }

    #[test]
    fn user_drains_between_syncs_do_not_count_as_loss() {
        let mut log = EvolutionLog::with_capacity(16);
        let mut tr = EvolutionTracker::new(16, 4);
        log.push(0.0, EventKind::Emerge { cluster: 0 });
        tr.sync(&log);
        let _ = log.drain(); // consumer took the events after the tracker
        tr.sync(&log);
        assert_eq!(tr.lost(), 0);
        assert_eq!(tr.graph().len(), 1);
    }

    #[test]
    fn seal_bounds_history_and_preserves_first_generation() {
        let log = EvolutionLog::with_capacity(16);
        let mut tr = EvolutionTracker::new(16, 2);
        tr.sync(&log);
        tr.seal(1, 1.0, vec![(7, 1.0)], &[summary(7, 1)]);
        tr.seal(2, 2.0, vec![(7, 2.0)], &[summary(7, 2)]);
        tr.seal(3, 3.0, vec![(7, 3.0)], &[summary(7, 3)]);
        let w = tr.window();
        assert_eq!(w.generations(), Some((2, 3)), "history bounded at 2");
        let s = tr.summary_of(7).unwrap();
        assert_eq!(s.first_generation, 1, "first observation survives the merge");
        assert_eq!(s.last_seen, 3);
        assert_eq!(tr.summaries().count(), 1);
    }

    #[test]
    fn a_continuing_cluster_is_updated_in_place() {
        use crate::evolve::BoundingBox;
        let shaped = |generation: u64, x: f64| ClusterSummary {
            mass: x,
            centroid: Some(vec![x, -x]),
            bounds: Some(Arc::new(BoundingBox { min: vec![x - 1.0; 2], max: vec![x + 1.0; 2] })),
            ..summary(7, generation)
        };
        let mut tr = EvolutionTracker::new(16, 4);
        tr.seal(1, 1.0, vec![(7, 0.5)], &[shaped(1, 0.5)]);
        let centroid_at = |s: &ClusterSummary| s.centroid.as_ref().unwrap().as_ptr();
        let before = centroid_at(tr.summary_of(7).unwrap());
        let sealed = shaped(2, 4.0);
        tr.seal(2, 2.0, vec![(7, 4.0)], std::slice::from_ref(&sealed));
        let held = tr.summary_of(7).unwrap();
        assert_eq!(*held, ClusterSummary { first_generation: 1, ..shaped(2, 4.0) });
        assert_eq!(centroid_at(held), before, "the held centroid vector was reused");
        let (held_box, sealed_box) = (held.bounds.as_ref(), sealed.bounds.as_ref());
        assert!(Arc::ptr_eq(held_box.unwrap(), sealed_box.unwrap()), "the box is shared");
        // A cluster that loses its geometry loses it in the rolling map too.
        tr.seal(3, 3.0, vec![(7, 1.0)], &[summary(7, 3)]);
        assert_eq!(
            *tr.summary_of(7).unwrap(),
            ClusterSummary { first_generation: 1, ..summary(7, 3) }
        );
    }

    #[test]
    fn dead_summaries_are_pruned_once_their_era_leaves_the_history() {
        let mut tr = EvolutionTracker::new(16, 2);
        tr.seal(1, 1.0, vec![(0, 1.0)], &[summary(0, 1)]);
        // Cluster 0 is gone from generation 2 on.
        tr.seal(2, 2.0, vec![], &[]);
        assert!(tr.summary_of(0).is_some(), "still inside the held history");
        tr.seal(3, 3.0, vec![], &[]);
        assert!(tr.summary_of(0).is_none(), "era evicted with generation 1");
    }
}
