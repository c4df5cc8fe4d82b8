//! Windowed evolution digests: "what changed since generation G".
//!
//! Every published snapshot seals a [`GenerationRecord`]: the structural
//! events since the previous publication plus the live `(cluster, mass)`
//! list at the publication instant. A [`DigestWindow`] is a cheap
//! `Arc`-shared view of the recent records; [`DigestWindow::digest`]
//! folds the records of `(from, to]` into an [`EvolutionDigest`].
//!
//! Digests **compose**: cluster ids are never reused, so the birth/death
//! sets of `digest(G1, G2)` and `digest(G2, G3)` are disjoint and their
//! union is exactly `digest(G1, G3)`'s — the algebra the serving-tier
//! soak test verifies under concurrent ingest.

use std::sync::Arc;

use edm_common::time::Timestamp;
use serde::{Deserialize, Serialize};

use super::EvolveError;
use crate::evolution::{ClusterId, Event, EventKind};

/// Everything sealed at one snapshot publication: the structural events
/// since the previous publication and the live clusters at the instant.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationRecord {
    pub(crate) generation: u64,
    pub(crate) t: Timestamp,
    /// Live `(cluster, mass)` pairs at publication, ascending by id.
    pub(crate) live: Vec<(ClusterId, f64)>,
    /// Events recorded in `(previous generation, this one]`.
    pub(crate) events: Vec<Event>,
    /// Events of this interval dropped before sealing (bounded buffers);
    /// non-zero poisons digests over any window containing the interval.
    pub(crate) lost: u64,
}

impl GenerationRecord {
    /// The publication generation this record seals.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Stream time of the publication.
    pub fn t(&self) -> Timestamp {
        self.t
    }

    /// Live `(cluster, mass)` pairs at publication, ascending by id.
    pub fn live(&self) -> &[(ClusterId, f64)] {
        &self.live
    }

    /// The structural events recorded since the previous publication.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events of this interval lost to bounded buffers before sealing.
    pub fn lost(&self) -> u64 {
        self.lost
    }
}

/// One merge observed inside a digest window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergeEdge {
    /// Stream time of the merge.
    pub t: Timestamp,
    /// The absorbed clusters (their identities ended here).
    pub from: Vec<ClusterId>,
    /// The surviving cluster.
    pub into: ClusterId,
}

/// One split observed inside a digest window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitEdge {
    /// Stream time of the split.
    pub t: Timestamp,
    /// The cluster that split (keeping its id in the largest fragment).
    pub from: ClusterId,
    /// The newly created fragments.
    pub into: Vec<ClusterId>,
}

/// Mass change of a cluster alive at both ends of a digest window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MassDrift {
    /// The surviving cluster.
    pub cluster: ClusterId,
    /// Its mass at the window's start generation.
    pub from_mass: f64,
    /// Its mass at the window's end generation.
    pub to_mass: f64,
}

impl MassDrift {
    /// Signed mass change over the window.
    pub fn delta(&self) -> f64 {
        self.to_mass - self.from_mass
    }
}

/// What changed between two published generations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvolutionDigest {
    /// Window start generation (exclusive for events, the baseline for
    /// mass drift).
    pub from_generation: u64,
    /// Window end generation (inclusive).
    pub to_generation: u64,
    /// Stream time of the start generation's publication.
    pub from_t: Timestamp,
    /// Stream time of the end generation's publication.
    pub to_t: Timestamp,
    /// Clusters born in the window (emerged or split off), ascending. A
    /// cluster both born and ended inside the window appears in births
    /// *and* deaths.
    pub births: Vec<ClusterId>,
    /// Cluster identities that ended in the window (disappeared or
    /// absorbed by a merge), ascending.
    pub deaths: Vec<ClusterId>,
    /// Merges in the window, in event order.
    pub merges: Vec<MergeEdge>,
    /// Splits in the window, in event order.
    pub splits: Vec<SplitEdge>,
    /// Number of membership adjustments (no identity change) observed.
    pub adjustments: u64,
    /// Mass drift of every cluster alive at both window ends, ascending
    /// by id.
    pub drifts: Vec<MassDrift>,
}

impl EvolutionDigest {
    /// True when nothing changed in the window (no structural events; a
    /// cluster may still have drifted in mass — check
    /// [`EvolutionDigest::drifts`]).
    pub fn is_quiet(&self) -> bool {
        self.births.is_empty()
            && self.deaths.is_empty()
            && self.merges.is_empty()
            && self.splits.is_empty()
            && self.adjustments == 0
    }

    /// The drift entry of `cluster`, if it survived the whole window.
    pub fn drift_of(&self, cluster: ClusterId) -> Option<&MassDrift> {
        self.drifts.iter().find(|d| d.cluster == cluster)
    }

    /// Net cluster-count change over the window (births − deaths).
    pub fn net_growth(&self) -> i64 {
        self.births.len() as i64 - self.deaths.len() as i64
    }
}

/// A cheap, shareable view of the recent [`GenerationRecord`]s.
///
/// Cloning copies `Arc`s, not records — this is what the serving tier
/// attaches to every published payload, so readers compute digests
/// entirely on their side of the swap cell and the writer is never
/// blocked by a digest query.
#[derive(Debug, Clone, Default)]
pub struct DigestWindow {
    /// Records ascending by generation; generations are consecutive.
    pub(crate) records: Vec<Arc<GenerationRecord>>,
}

impl DigestWindow {
    /// Number of generation records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no generation record is held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The `(oldest, latest)` generations held, or `None` when nothing
    /// was published yet.
    pub fn generations(&self) -> Option<(u64, u64)> {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => Some((a.generation, b.generation)),
            _ => None,
        }
    }

    /// The held records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &GenerationRecord> {
        self.records.iter().map(Arc::as_ref)
    }

    /// Digest of everything after generation `from`, up to the newest
    /// held generation. `digest(from, latest)` in one call.
    pub fn digest_since(&self, from: u64) -> Result<EvolutionDigest, EvolveError> {
        let (_, latest) = self.generations().ok_or(EvolveError::NoGenerations)?;
        if from > latest {
            // `digest` would report this as an inverted window (we pass
            // `to = latest`); the caller's actual mistake is asking about
            // a generation that has not been published yet.
            return Err(EvolveError::FutureGeneration { requested: from, latest });
        }
        self.digest(from, latest)
    }

    /// Digest of the window `(from, to]`: structural events strictly
    /// after `from`'s publication up to and including `to`'s, with mass
    /// drift measured between the two publication instants. `from == to`
    /// yields a valid, quiet digest.
    ///
    /// Refuses with a typed [`EvolveError`] when the window is inverted,
    /// reaches beyond the held history on either side, or contains an
    /// interval whose events were lost to bounded buffers.
    pub fn digest(&self, from: u64, to: u64) -> Result<EvolutionDigest, EvolveError> {
        let (oldest, latest) = self.generations().ok_or(EvolveError::NoGenerations)?;
        if from > to {
            return Err(EvolveError::InvertedWindow { from, to });
        }
        if to > latest {
            return Err(EvolveError::FutureGeneration { requested: to, latest });
        }
        if from < oldest {
            return Err(EvolveError::EvictedGeneration { requested: from, oldest });
        }
        // Generations are consecutive (one per publication), so the
        // record of generation g sits at index g - oldest.
        let idx = |g: u64| (g - oldest) as usize;
        let base = &self.records[idx(from)];
        let head = &self.records[idx(to)];
        debug_assert_eq!(base.generation, from);
        debug_assert_eq!(head.generation, to);

        let window = &self.records[idx(from) + 1..=idx(to)];
        let lost: u64 = window.iter().map(|r| r.lost).sum();
        if lost > 0 {
            return Err(EvolveError::LossyWindow { from, to, lost });
        }

        let mut births = Vec::new();
        let mut deaths = Vec::new();
        let mut merges = Vec::new();
        let mut splits = Vec::new();
        let mut adjustments = 0u64;
        for rec in window {
            for e in &rec.events {
                match &e.kind {
                    EventKind::Emerge { cluster } => births.push(*cluster),
                    EventKind::Disappear { cluster } => deaths.push(*cluster),
                    EventKind::Split { from, into } => {
                        births.extend(into.iter().copied());
                        splits.push(SplitEdge { t: e.t, from: *from, into: into.clone() });
                    }
                    EventKind::Merge { from, into } => {
                        deaths.extend(from.iter().copied());
                        merges.push(MergeEdge { t: e.t, from: from.clone(), into: *into });
                    }
                    EventKind::Adjust { .. } => adjustments += 1,
                }
            }
        }
        births.sort_unstable();
        deaths.sort_unstable();

        // Mass drift: clusters live at both endpoints (both lists are
        // ascending by id — a linear merge).
        let mut drifts = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < base.live.len() && j < head.live.len() {
            let (ida, ma) = base.live[i];
            let (idb, mb) = head.live[j];
            match ida.cmp(&idb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    drifts.push(MassDrift { cluster: ida, from_mass: ma, to_mass: mb });
                    i += 1;
                    j += 1;
                }
            }
        }

        Ok(EvolutionDigest {
            from_generation: from,
            to_generation: to,
            from_t: base.t,
            to_t: head.t,
            births,
            deaths,
            merges,
            splits,
            adjustments,
            drifts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        generation: u64,
        t: f64,
        live: &[(u64, f64)],
        events: Vec<Event>,
    ) -> Arc<GenerationRecord> {
        Arc::new(GenerationRecord { generation, t, live: live.to_vec(), events, lost: 0 })
    }

    fn ev(t: f64, kind: EventKind) -> Event {
        Event { t, kind }
    }

    fn window(records: Vec<Arc<GenerationRecord>>) -> DigestWindow {
        DigestWindow { records }
    }

    #[test]
    fn empty_window_has_no_generations() {
        let w = window(vec![]);
        assert_eq!(w.generations(), None);
        assert_eq!(w.digest_since(0), Err(EvolveError::NoGenerations));
    }

    #[test]
    fn window_bounds_are_typed_errors() {
        let w = window(vec![rec(3, 1.0, &[(0, 5.0)], vec![]), rec(4, 2.0, &[(0, 5.0)], vec![])]);
        assert_eq!(w.generations(), Some((3, 4)));
        assert_eq!(w.digest(2, 4), Err(EvolveError::EvictedGeneration { requested: 2, oldest: 3 }));
        assert_eq!(w.digest(3, 5), Err(EvolveError::FutureGeneration { requested: 5, latest: 4 }));
        assert_eq!(w.digest(4, 3), Err(EvolveError::InvertedWindow { from: 4, to: 3 }));
    }

    #[test]
    fn quiet_window_digest_is_quiet_but_tracks_drift() {
        let w = window(vec![
            rec(1, 1.0, &[(0, 5.0), (1, 2.0)], vec![]),
            rec(2, 2.0, &[(0, 7.5), (1, 1.0)], vec![]),
        ]);
        let d = w.digest(1, 2).unwrap();
        assert!(d.is_quiet());
        assert_eq!(d.net_growth(), 0);
        assert_eq!(d.drift_of(0).unwrap().delta(), 2.5);
        assert_eq!(d.drift_of(1).unwrap().delta(), -1.0);
        assert!(d.drift_of(9).is_none());
        // from == to: valid, quiet, and every live cluster "drifts" by 0.
        let same = w.digest(2, 2).unwrap();
        assert!(same.is_quiet());
        assert!(same.drifts.iter().all(|d| d.delta() == 0.0));
    }

    #[test]
    fn events_land_in_the_right_buckets() {
        let w = window(vec![
            rec(1, 1.0, &[(0, 5.0), (1, 2.0)], vec![]),
            rec(
                2,
                2.0,
                &[(0, 6.0), (2, 1.0), (3, 1.5)],
                vec![
                    ev(1.5, EventKind::Split { from: 0, into: vec![2] }),
                    ev(1.6, EventKind::Emerge { cluster: 3 }),
                    ev(1.7, EventKind::Disappear { cluster: 1 }),
                    ev(
                        1.8,
                        EventKind::Adjust {
                            kind: crate::evolution::AdjustKind::OutliersJoined,
                            cluster: 0,
                            cells: 2,
                        },
                    ),
                ],
            ),
            rec(3, 3.0, &[(0, 8.0)], vec![ev(2.5, EventKind::Merge { from: vec![2, 3], into: 0 })]),
        ]);
        let d = w.digest(1, 3).unwrap();
        assert_eq!(d.births, vec![2, 3]);
        assert_eq!(d.deaths, vec![1, 2, 3], "born-and-died ids appear in both");
        assert_eq!(d.splits.len(), 1);
        assert_eq!(d.merges.len(), 1);
        assert_eq!(d.merges[0].from, vec![2, 3]);
        assert_eq!(d.merges[0].into, 0);
        assert_eq!(d.adjustments, 1);
        assert_eq!(d.net_growth(), -1);
        // Only cluster 0 survived the whole window.
        assert_eq!(d.drifts.len(), 1);
        assert_eq!(d.drift_of(0).unwrap().delta(), 3.0);
    }

    #[test]
    fn digests_compose_on_id_sets() {
        let w = window(vec![
            rec(1, 1.0, &[(0, 1.0)], vec![]),
            rec(2, 2.0, &[(0, 1.0), (1, 1.0)], vec![ev(1.5, EventKind::Emerge { cluster: 1 })]),
            rec(3, 3.0, &[(0, 2.0)], vec![ev(2.5, EventKind::Merge { from: vec![1], into: 0 })]),
        ]);
        let a = w.digest(1, 2).unwrap();
        let b = w.digest(2, 3).unwrap();
        let full = w.digest(1, 3).unwrap();
        let mut births: Vec<u64> = a.births.iter().chain(&b.births).copied().collect();
        births.sort_unstable();
        let mut deaths: Vec<u64> = a.deaths.iter().chain(&b.deaths).copied().collect();
        deaths.sort_unstable();
        assert_eq!(births, full.births);
        assert_eq!(deaths, full.deaths);
    }

    #[test]
    fn lossy_interval_poisons_only_windows_containing_it() {
        let mut lossy = GenerationRecord {
            generation: 2,
            t: 2.0,
            live: vec![(0, 1.0)],
            events: vec![],
            lost: 0,
        };
        lossy.lost = 5;
        let w = window(vec![
            rec(1, 1.0, &[(0, 1.0)], vec![]),
            Arc::new(lossy),
            rec(3, 3.0, &[(0, 1.0)], vec![]),
        ]);
        assert_eq!(w.digest(1, 3), Err(EvolveError::LossyWindow { from: 1, to: 3, lost: 5 }));
        assert_eq!(w.digest(1, 2), Err(EvolveError::LossyWindow { from: 1, to: 2, lost: 5 }));
        // The post-loss window is still answerable.
        assert!(w.digest(2, 3).is_ok());
    }
}
