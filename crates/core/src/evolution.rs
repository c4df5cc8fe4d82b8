//! Cluster evolution tracking (paper §3.1 Table 1, §3.3).
//!
//! The five evolution types — **emerge**, **disappear**, **split**,
//! **merge**, **adjust** — are detected by diffing consecutive MSDSubTree
//! partitions of the DP-Tree. Cluster *identity* persists across updates by
//! maximum member overlap (the MONIC/MEC notion the paper cites): each new
//! subtree inherits the id of the old cluster contributing most of its
//! cells, greedily by overlap size, and the leftover flows become events.
//!
//! The engine diffs only on points that changed the tree structure
//! (dependency switch, activation, deactivation, τ change), and then only
//! the MSDSubTrees that change reached. Each point records its touched
//! cells (re-pointed, recomputed or activated) and the clusters the decay
//! sweep took cells from. The diff regroups the closure of those: the
//! touched cells' current subtrees, plus, for every cluster that a
//! collected member carries or that lost cells to the sweep, the subtree
//! now holding that cluster's old root, repeated until nothing new is
//! reached.
//!
//! A diff therefore costs O(cells in the changed clusters), not O(active
//! cells); an absorb that restructures nothing costs nothing. The result
//! is the full diff's. A cluster outside the closure has the same members
//! and root as at the last diff, so the full diff would match it to itself
//! with no event and no fresh id. Leaving it out changes no id, label or
//! event. A τ change or the initialization touches every active cell,
//! which makes that diff the full one.

use std::collections::BTreeMap;

use edm_common::hash::{fx_map, FxHashMap, FxHashSet};
use edm_common::time::Timestamp;
use serde::{Deserialize, Serialize};

use crate::cell::CellId;

/// Persistent cluster identifier (stable across tree updates).
pub type ClusterId = u64;

/// The paper's three adjustment flavors (Table 1, "Adjust").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdjustKind {
    /// Cells moved from one surviving cluster to another.
    Moved {
        /// Cluster the cells left.
        from: ClusterId,
    },
    /// Former outliers (reservoir cells) joined the cluster.
    OutliersJoined,
    /// Cells of the cluster decayed into outliers.
    BecameOutliers,
}

/// One evolution event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A cluster was born with no predecessor (`∅ → C`).
    Emerge {
        /// The new cluster.
        cluster: ClusterId,
    },
    /// A cluster ended with no successor (`C → ∅`).
    Disappear {
        /// The deceased cluster.
        cluster: ClusterId,
    },
    /// One cluster split into several (`C → {C1..Cx}`); `from` keeps its id
    /// in the largest fragment, `into` lists the new fragment ids.
    Split {
        /// The cluster that split (surviving in its largest fragment).
        from: ClusterId,
        /// Newly created fragment clusters.
        into: Vec<ClusterId>,
    },
    /// Several clusters merged into one (`{C1..Cx} → C`).
    Merge {
        /// The absorbed clusters (their ids end here).
        from: Vec<ClusterId>,
        /// The surviving cluster.
        into: ClusterId,
    },
    /// Membership adjustment that changes no cluster count.
    Adjust {
        /// Which flavor of adjustment.
        kind: AdjustKind,
        /// The cluster gaining (Moved/OutliersJoined) or losing
        /// (BecameOutliers) cells.
        cluster: ClusterId,
        /// Number of cells involved.
        cells: u32,
    },
}

/// A timestamped evolution event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Stream time of the structural change.
    pub t: Timestamp,
    /// What happened.
    pub kind: EventKind,
}

/// Position in the evolution-event sequence, for incremental consumption
/// via `events_since`-style queries. Cursors are cheap, copyable, and
/// remain valid across drains: events recorded before the cursor are never
/// re-delivered, whether they were taken, read, or evicted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EventCursor(pub(crate) u64);

impl EventCursor {
    /// The cursor before the first event (reads everything still buffered).
    pub const START: EventCursor = EventCursor(0);

    /// Sequence number of the next event this cursor would observe.
    pub fn seq(&self) -> u64 {
        self.0
    }
}

/// Bounded log of evolution events.
///
/// Events carry monotonically increasing sequence numbers. The log keeps at
/// most `capacity` buffered events; recording past the bound evicts the
/// oldest (tracked by [`EvolutionLog::evicted`]). Consumers either drain
/// destructively ([`EvolutionLog::drain`]) or read incrementally from an
/// [`EventCursor`] ([`EvolutionLog::events_since`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvolutionLog {
    events: std::collections::VecDeque<Event>,
    capacity: usize,
    /// Sequence number the next pushed event will receive.
    next_seq: u64,
}

impl Default for EvolutionLog {
    fn default() -> Self {
        EvolutionLog::with_capacity(crate::config::DEFAULT_EVENT_CAPACITY)
    }
}

impl EvolutionLog {
    /// Creates an empty log with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty log bounded at `capacity` buffered events.
    ///
    /// `capacity` 0 is clamped to 1 (the config builder rejects it before
    /// it can reach here).
    pub fn with_capacity(capacity: usize) -> Self {
        EvolutionLog {
            events: std::collections::VecDeque::new(),
            capacity: capacity.max(1),
            next_seq: 0,
        }
    }

    /// Records an event, evicting the oldest if the buffer is full.
    pub fn push(&mut self, t: Timestamp, kind: EventKind) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(Event { t, kind });
        self.next_seq += 1;
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Configured buffer bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (monotonic; survives drains/evictions).
    pub fn total(&self) -> u64 {
        self.next_seq
    }

    /// Events no longer buffered (evicted past capacity or drained).
    pub fn evicted(&self) -> u64 {
        self.next_seq - self.events.len() as u64
    }

    /// Cursor after the newest recorded event.
    pub fn cursor(&self) -> EventCursor {
        EventCursor(self.next_seq)
    }

    /// Removes and returns every buffered event, oldest first.
    pub fn drain(&mut self) -> Vec<Event> {
        self.events.drain(..).collect()
    }

    /// Iterates over the buffered events at or after `cursor`, oldest
    /// first. Events already evicted are silently skipped — compare the
    /// cursor against [`EvolutionLog::evicted`] to detect loss.
    pub fn events_since(&self, cursor: EventCursor) -> impl Iterator<Item = &Event> + '_ {
        let first_buffered = self.next_seq - self.events.len() as u64;
        let skip = cursor.0.saturating_sub(first_buffered) as usize;
        self.events.iter().skip(skip)
    }

    /// Counts of buffered (emerge, disappear, split, merge, adjust) events.
    pub fn counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0);
        for e in &self.events {
            match e.kind {
                EventKind::Emerge { .. } => c.0 += 1,
                EventKind::Disappear { .. } => c.1 += 1,
                EventKind::Split { .. } => c.2 += 1,
                EventKind::Merge { .. } => c.3 += 1,
                EventKind::Adjust { .. } => c.4 += 1,
            }
        }
        c
    }
}

/// Metadata of a live cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterMeta {
    /// Current MSDSubTree root cell.
    pub root: CellId,
    /// Number of member cells at the last diff.
    pub size: usize,
    /// Stream time of birth.
    pub born: Timestamp,
}

/// One MSDSubTree handed to [`ClusterRegistry::diff`]: its root and its
/// members tagged with their previous cluster id (`None` = fresh cell).
#[derive(Debug, Clone)]
pub struct GroupInput {
    /// Subtree root cell.
    pub root: CellId,
    /// `(member cell, previous cluster id)` pairs; must include the root.
    pub members: Vec<(CellId, Option<ClusterId>)>,
}

/// Tracks cluster identity over time and emits evolution events.
#[derive(Debug, Clone, Default)]
pub struct ClusterRegistry {
    next_id: ClusterId,
    clusters: FxHashMap<ClusterId, ClusterMeta>,
    root_to_cluster: FxHashMap<CellId, ClusterId>,
}

impl ClusterRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live clusters.
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Live clusters as `(id, meta)` pairs (unordered).
    pub fn clusters(&self) -> impl Iterator<Item = (ClusterId, &ClusterMeta)> {
        self.clusters.iter().map(|(&id, m)| (id, m))
    }

    /// Cluster id currently rooted at `root`, if any.
    pub fn cluster_at_root(&self, root: CellId) -> Option<ClusterId> {
        self.root_to_cluster.get(&root).copied()
    }

    fn fresh_id(&mut self) -> ClusterId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Metadata of live cluster `id`, if it is live.
    pub(crate) fn cluster(&self, id: ClusterId) -> Option<&ClusterMeta> {
        self.clusters.get(&id)
    }

    /// Reconciles new MSDSubTrees with the clusters they replace,
    /// recording events into `log` and returning the new
    /// `(cell, cluster id)` assignment for the engine to write back.
    ///
    /// The old side of the match is every live cluster that a member of
    /// `groups` carries, plus the live clusters in `decayed`: those that
    /// lost cells to the outlier reservoir, whose remaining members (if
    /// any) must still be in `groups`. Every surviving member of an old
    /// cluster must be in `groups`, so that each group is a whole current
    /// MSDSubTree. Live clusters outside the old side are kept as they
    /// are. Passing every current subtree and every live id as `decayed`
    /// is the full diff; a caller that passes only the subtrees a change
    /// reached gets the same ids and events, because the full diff maps
    /// every other cluster to itself with no event.
    ///
    /// Events come out kind by kind (Emerge, Split, Disappear, Merge,
    /// Adjust) and, within a kind, in ascending cluster-id order: Split by
    /// `from`, Merge by `into`, Moved by `from` within each group (groups
    /// in the order given).
    pub fn diff(
        &mut self,
        t: Timestamp,
        groups: &[GroupInput],
        decayed: &[ClusterId],
        log: &mut EvolutionLog,
    ) -> Vec<(CellId, ClusterId)> {
        // 1. Vote counting: for each group, how many members came from each
        //    old cluster (ascending by id), and how many are fresh.
        let mut votes: Vec<Vec<(ClusterId, usize)>> = Vec::with_capacity(groups.len());
        let mut fresh: Vec<usize> = Vec::with_capacity(groups.len());
        let mut labels: Vec<ClusterId> = Vec::new();
        for g in groups {
            labels.clear();
            labels.extend(g.members.iter().filter_map(|&(_, old)| old));
            labels.sort_unstable();
            let mut v: Vec<(ClusterId, usize)> = Vec::new();
            for &id in &labels {
                match v.last_mut() {
                    Some((last, n)) if *last == id => *n += 1,
                    _ => v.push((id, 1)),
                }
            }
            fresh.push(g.members.len() - labels.len());
            votes.push(v);
        }
        let mut old_ids: Vec<ClusterId> = votes
            .iter()
            .flatten()
            .map(|&(id, _)| id)
            .chain(decayed.iter().copied())
            .filter(|id| self.clusters.contains_key(id))
            .collect();
        old_ids.sort_unstable();
        old_ids.dedup();

        // 2. Greedy max-overlap matching: (votes, group, old id) descending.
        let mut claims: Vec<(usize, usize, ClusterId)> = Vec::new();
        for (gi, v) in votes.iter().enumerate() {
            for &(old, n) in v {
                if self.clusters.contains_key(&old) {
                    claims.push((n, gi, old));
                }
            }
        }
        // Deterministic order: by votes desc, then group index, then old id.
        claims.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut group_id: Vec<Option<ClusterId>> = vec![None; groups.len()];
        let mut claimed: FxHashSet<ClusterId> = FxHashSet::default();
        for (_, gi, old) in &claims {
            if group_id[*gi].is_none() && !claimed.contains(old) {
                group_id[*gi] = Some(*old);
                claimed.insert(*old);
            }
        }

        // 3. Unmatched groups get fresh ids; classify as Split (their
        //    dominant old cluster persists elsewhere) or Emerge.
        let mut splits: BTreeMap<ClusterId, Vec<ClusterId>> = BTreeMap::new();
        for gi in 0..groups.len() {
            if group_id[gi].is_some() {
                continue;
            }
            let id = self.fresh_id();
            group_id[gi] = Some(id);
            let dominant = votes[gi].iter().max_by_key(|(cid, n)| (*n, u64::MAX - *cid));
            match dominant {
                Some(&(old, n)) if n > 0 => splits.entry(old).or_default().push(id),
                _ => log.push(t, EventKind::Emerge { cluster: id }),
            }
        }
        for (old, into) in splits {
            log.push(t, EventKind::Split { from: old, into });
        }

        // 4. Old clusters nobody claimed: Merge when their members
        //    majority-flowed into another cluster, Disappear otherwise.
        //    `best[old]` is the group holding most of `old`'s members
        //    (lowest group index on ties).
        let mut best: FxHashMap<ClusterId, (usize, usize)> = fx_map();
        for (gi, v) in votes.iter().enumerate() {
            for &(old, n) in v {
                let entry = best.entry(old).or_insert((n, gi));
                if n > entry.0 {
                    *entry = (n, gi);
                }
            }
        }
        let mut merges: BTreeMap<ClusterId, Vec<ClusterId>> = BTreeMap::new();
        for &old in &old_ids {
            if claimed.contains(&old) {
                continue;
            }
            match best.get(&old) {
                Some(&(n, gi)) if n > 0 => {
                    let target = group_id[gi].expect("assigned above");
                    merges.entry(target).or_default().push(old);
                }
                _ => log.push(t, EventKind::Disappear { cluster: old }),
            }
        }
        for (into, from) in merges {
            log.push(t, EventKind::Merge { from, into });
        }

        // 5. Adjust events: cross-cluster flows not explained by the
        //    structural events above, and outliers joining a continuing
        //    cluster.
        for (gi, g) in groups.iter().enumerate() {
            let id = group_id[gi].expect("assigned above");
            let continuing = claimed.contains(&id);
            for &(old, n) in &votes[gi] {
                if old != id && claimed.contains(&old) {
                    log.push(
                        t,
                        EventKind::Adjust {
                            kind: AdjustKind::Moved { from: old },
                            cluster: id,
                            cells: n as u32,
                        },
                    );
                }
            }
            if continuing && fresh[gi] > 0 && !g.members.is_empty() && fresh[gi] < g.members.len() {
                log.push(
                    t,
                    EventKind::Adjust {
                        kind: AdjustKind::OutliersJoined,
                        cluster: id,
                        cells: fresh[gi] as u32,
                    },
                );
            }
        }

        // 6. Replace the old side's metadata in place and produce the
        //    write-back assignment. Every old entry leaves before any new
        //    one enters: an old root may head a different group now.
        let mut born: FxHashMap<ClusterId, Timestamp> = fx_map();
        for old in old_ids {
            let meta = self.clusters.remove(&old).expect("old ids are live");
            self.root_to_cluster.remove(&meta.root);
            born.insert(old, meta.born);
        }
        let mut assignments = Vec::with_capacity(groups.iter().map(|g| g.members.len()).sum());
        for (gi, g) in groups.iter().enumerate() {
            let id = group_id[gi].expect("assigned above");
            let born = born.get(&id).copied().unwrap_or(t);
            self.clusters.insert(id, ClusterMeta { root: g.root, size: g.members.len(), born });
            self.root_to_cluster.insert(g.root, id);
            assignments.extend(g.members.iter().map(|&(cell, _)| (cell, id)));
        }
        assignments
    }

    /// Checks that the root index is the exact inverse of the clusters'
    /// roots (invariant checks).
    pub(crate) fn check_roots(&self) -> Result<(), String> {
        if self.root_to_cluster.len() != self.clusters.len() {
            return Err(format!(
                "registry indexes {} roots for {} clusters",
                self.root_to_cluster.len(),
                self.clusters.len()
            ));
        }
        for (&id, meta) in &self.clusters {
            if self.root_to_cluster.get(&meta.root) != Some(&id) {
                return Err(format!("cluster {id}'s root {} is not indexed to it", meta.root));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(i: u32) -> CellId {
        CellId(i)
    }

    fn group(root: u32, members: &[(u32, Option<ClusterId>)]) -> GroupInput {
        GroupInput {
            root: cid(root),
            members: members.iter().map(|(c, o)| (cid(*c), *o)).collect(),
        }
    }

    fn diff(
        reg: &mut ClusterRegistry,
        t: f64,
        groups: Vec<GroupInput>,
        log: &mut EvolutionLog,
    ) -> FxHashMap<CellId, ClusterId> {
        let live: Vec<ClusterId> = reg.clusters().map(|(id, _)| id).collect();
        reg.diff(t, &groups, &live, log).into_iter().collect()
    }

    #[test]
    fn first_diff_emerges_all_clusters() {
        let mut reg = ClusterRegistry::new();
        let mut log = EvolutionLog::new();
        let a = diff(
            &mut reg,
            0.0,
            vec![group(0, &[(0, None), (1, None)]), group(2, &[(2, None)])],
            &mut log,
        );
        assert_eq!(reg.n_clusters(), 2);
        assert_eq!(log.counts(), (2, 0, 0, 0, 0));
        assert_eq!(a[&cid(0)], a[&cid(1)]);
        assert_ne!(a[&cid(0)], a[&cid(2)]);
    }

    #[test]
    fn stable_partition_produces_no_events() {
        let mut reg = ClusterRegistry::new();
        let mut log = EvolutionLog::new();
        let a = diff(&mut reg, 0.0, vec![group(0, &[(0, None), (1, None)])], &mut log);
        let id = a[&cid(0)];
        let b = diff(&mut reg, 1.0, vec![group(0, &[(0, Some(id)), (1, Some(id))])], &mut log);
        assert_eq!(b[&cid(0)], id, "identity persists");
        assert_eq!(log.counts(), (1, 0, 0, 0, 0), "only the initial emerge");
    }

    #[test]
    fn split_keeps_id_on_largest_fragment() {
        let mut reg = ClusterRegistry::new();
        let mut log = EvolutionLog::new();
        let a = diff(&mut reg, 0.0, vec![group(0, &[(0, None), (1, None), (2, None)])], &mut log);
        let id = a[&cid(0)];
        // Split: {0,1} stays, {2} leaves.
        let b = diff(
            &mut reg,
            1.0,
            vec![group(0, &[(0, Some(id)), (1, Some(id))]), group(2, &[(2, Some(id))])],
            &mut log,
        );
        assert_eq!(b[&cid(0)], id, "largest fragment keeps id");
        assert_ne!(b[&cid(2)], id);
        let split_events: Vec<&Event> = log
            .events_since(EventCursor::START)
            .filter(|e| matches!(e.kind, EventKind::Split { .. }))
            .collect();
        assert_eq!(split_events.len(), 1);
        if let EventKind::Split { from, into } = &split_events[0].kind {
            assert_eq!(*from, id);
            assert_eq!(into, &vec![b[&cid(2)]]);
        }
    }

    #[test]
    fn merge_ends_absorbed_cluster() {
        let mut reg = ClusterRegistry::new();
        let mut log = EvolutionLog::new();
        let a = diff(
            &mut reg,
            0.0,
            vec![group(0, &[(0, None), (1, None)]), group(2, &[(2, None)])],
            &mut log,
        );
        let (big, small) = (a[&cid(0)], a[&cid(2)]);
        let b = diff(
            &mut reg,
            1.0,
            vec![group(0, &[(0, Some(big)), (1, Some(big)), (2, Some(small))])],
            &mut log,
        );
        assert_eq!(b[&cid(2)], big, "absorbed members adopt surviving id");
        assert_eq!(reg.n_clusters(), 1);
        let merge: Vec<&Event> = log
            .events_since(EventCursor::START)
            .filter(|e| matches!(e.kind, EventKind::Merge { .. }))
            .collect();
        assert_eq!(merge.len(), 1);
        if let EventKind::Merge { from, into } = &merge[0].kind {
            assert_eq!(from, &vec![small]);
            assert_eq!(*into, big);
        }
    }

    #[test]
    fn disappear_when_members_vanish() {
        let mut reg = ClusterRegistry::new();
        let mut log = EvolutionLog::new();
        let a = diff(&mut reg, 0.0, vec![group(0, &[(0, None)]), group(1, &[(1, None)])], &mut log);
        let dead = a[&cid(1)];
        // Next diff: cluster at root 1 is simply gone (cells deactivated).
        diff(&mut reg, 1.0, vec![group(0, &[(0, Some(a[&cid(0)]))])], &mut log);
        assert_eq!(reg.n_clusters(), 1);
        assert!(log
            .events_since(EventCursor::START)
            .any(|e| e.kind == EventKind::Disappear { cluster: dead }));
    }

    #[test]
    fn outliers_joining_is_an_adjust() {
        let mut reg = ClusterRegistry::new();
        let mut log = EvolutionLog::new();
        let a = diff(&mut reg, 0.0, vec![group(0, &[(0, None), (1, None)])], &mut log);
        let id = a[&cid(0)];
        diff(&mut reg, 1.0, vec![group(0, &[(0, Some(id)), (1, Some(id)), (7, None)])], &mut log);
        assert!(log.events_since(EventCursor::START).any(|e| matches!(
            e.kind,
            EventKind::Adjust { kind: AdjustKind::OutliersJoined, cells: 1, .. }
        )));
    }

    #[test]
    fn moved_cells_between_surviving_clusters_is_an_adjust() {
        let mut reg = ClusterRegistry::new();
        let mut log = EvolutionLog::new();
        let a = diff(
            &mut reg,
            0.0,
            vec![group(0, &[(0, None), (1, None), (2, None)]), group(5, &[(5, None), (6, None)])],
            &mut log,
        );
        let (x, y) = (a[&cid(0)], a[&cid(5)]);
        diff(
            &mut reg,
            1.0,
            vec![
                group(0, &[(0, Some(x)), (1, Some(x))]),
                group(5, &[(5, Some(y)), (6, Some(y)), (2, Some(x))]),
            ],
            &mut log,
        );
        assert!(log.events_since(EventCursor::START).any(|e| matches!(
            e.kind,
            EventKind::Adjust { kind: AdjustKind::Moved { from }, cluster, cells: 1 }
                if from == x && cluster == y
        )));
        // Both clusters persist: no split/merge/disappear recorded.
        let (_, d, s, m, _) = log.counts();
        assert_eq!((d, s, m), (0, 0, 0));
    }

    #[test]
    fn bounded_log_evicts_oldest() {
        let mut log = EvolutionLog::with_capacity(4);
        for i in 0..10u64 {
            log.push(i as f64, EventKind::Emerge { cluster: i });
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.total(), 10);
        assert_eq!(log.evicted(), 6);
        let buffered: Vec<u64> = log
            .events_since(EventCursor::START)
            .map(|e| match e.kind {
                EventKind::Emerge { cluster } => cluster,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(buffered, vec![6, 7, 8, 9]);
    }

    #[test]
    fn cursor_reads_are_incremental_and_drain_is_destructive() {
        let mut log = EvolutionLog::with_capacity(16);
        log.push(0.0, EventKind::Emerge { cluster: 0 });
        let cursor = log.cursor();
        assert_eq!(cursor.seq(), 1);
        log.push(1.0, EventKind::Emerge { cluster: 1 });
        let fresh: Vec<&Event> = log.events_since(cursor).collect();
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].kind, EventKind::Emerge { cluster: 1 });
        // Draining empties the buffer but keeps the sequence monotonic.
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert!(log.is_empty());
        assert_eq!(log.total(), 2);
        assert_eq!(log.events_since(EventCursor::START).count(), 0);
        log.push(2.0, EventKind::Emerge { cluster: 2 });
        assert_eq!(log.events_since(cursor).count(), 1);
    }

    #[test]
    fn root_lookup_tracks_current_roots() {
        let mut reg = ClusterRegistry::new();
        let mut log = EvolutionLog::new();
        let a = diff(&mut reg, 0.0, vec![group(3, &[(3, None)])], &mut log);
        assert_eq!(reg.cluster_at_root(cid(3)), Some(a[&cid(3)]));
        // Re-rooting: same members, new root cell.
        let id = a[&cid(3)];
        diff(&mut reg, 1.0, vec![group(9, &[(3, Some(id)), (9, None)])], &mut log);
        assert_eq!(reg.cluster_at_root(cid(9)), Some(id));
        assert_eq!(reg.cluster_at_root(cid(3)), None);
    }

    #[test]
    fn partial_diff_leaves_clusters_outside_its_old_side_alone() {
        let mut reg = ClusterRegistry::new();
        let mut log = EvolutionLog::new();
        let a = diff(
            &mut reg,
            0.0,
            vec![group(0, &[(0, None), (1, None)]), group(5, &[(5, None), (6, None)])],
            &mut log,
        );
        let (x, y) = (a[&cid(0)], a[&cid(5)]);
        // Only y's subtree is handed over (re-rooted at 6); x is not on the
        // old side, so it keeps its root, size and birth.
        let b = reg.diff(1.0, &[group(6, &[(5, Some(y)), (6, Some(y))])], &[], &mut log);
        assert_eq!(b, vec![(cid(5), y), (cid(6), y)]);
        assert_eq!(reg.n_clusters(), 2);
        assert_eq!((reg.cluster_at_root(cid(0)), reg.cluster_at_root(cid(6))), (Some(x), Some(y)));
        assert_eq!(reg.cluster_at_root(cid(5)), None);
        let meta = reg.cluster(x).expect("x is live");
        assert_eq!((meta.root, meta.size, meta.born), (cid(0), 2, 0.0));
        // A cluster that lost every cell reaches the diff through `decayed`.
        reg.diff(2.0, &[], &[x], &mut log);
        assert_eq!(reg.n_clusters(), 1);
        assert_eq!(log.counts(), (2, 1, 0, 0, 0));
        assert!(reg.check_roots().is_ok());
    }

    #[test]
    fn events_of_one_diff_come_out_in_ascending_cluster_id_order() {
        let mut reg = ClusterRegistry::new();
        let mut log = EvolutionLog::new();
        // Six singleton clusters, ids 0..6 in root order.
        let singletons: Vec<GroupInput> = (0..6).map(|i| group(i, &[(i, None)])).collect();
        let a = diff(&mut reg, 0.0, singletons, &mut log);
        let id = |c: u32| a[&cid(c)];
        let cursor = log.cursor();
        // 1 merges into 0 and 3 into 2; 4 and 5 vanish.
        diff(
            &mut reg,
            1.0,
            vec![
                group(0, &[(0, Some(id(0))), (1, Some(id(1)))]),
                group(2, &[(2, Some(id(2))), (3, Some(id(3)))]),
            ],
            &mut log,
        );
        let kinds: Vec<EventKind> = log.events_since(cursor).map(|e| e.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Disappear { cluster: id(4) },
                EventKind::Disappear { cluster: id(5) },
                EventKind::Merge { from: vec![id(1)], into: id(0) },
                EventKind::Merge { from: vec![id(3)], into: id(2) },
            ]
        );
        // Both survivors split: Split events ascend by `from`; each
        // fragment's cells also count as moved out of its parent.
        let cursor = log.cursor();
        let b = diff(
            &mut reg,
            2.0,
            vec![
                group(0, &[(0, Some(id(0)))]),
                group(1, &[(1, Some(id(0)))]),
                group(2, &[(2, Some(id(2)))]),
                group(3, &[(3, Some(id(2)))]),
            ],
            &mut log,
        );
        let kinds: Vec<EventKind> = log.events_since(cursor).map(|e| e.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Split { from: id(0), into: vec![b[&cid(1)]] },
                EventKind::Split { from: id(2), into: vec![b[&cid(3)]] },
                EventKind::Adjust {
                    kind: AdjustKind::Moved { from: id(0) },
                    cluster: b[&cid(1)],
                    cells: 1,
                },
                EventKind::Adjust {
                    kind: AdjustKind::Moved { from: id(2) },
                    cluster: b[&cid(3)],
                    cells: 1,
                },
            ]
        );
    }
}
