//! Maintenance layer: dependency updates, decay, recycling (paper §4.2–4.4).
//!
//! The only layer that *deletes* cells. Three responsibilities:
//!
//! * **Dependency maintenance** (§4.2) — when a cell absorbs a point it
//!   rises in the density order; Theorem 1 limits the cells whose
//!   dependency could change to the window of the order it crossed (see
//!   `order.rs`), Theorem 2 prunes most of those, and the neighbor index
//!   answers the nearest-denser search when the riser overtook its own
//!   dependency.
//! * **Decay sweep** (§4.3) — on the maintenance cadence, top-most active
//!   cells below the threshold move (with their whole subtree — children
//!   are always sparser) back to the outlier reservoir. Only the prefix of
//!   the density order below the threshold is visited.
//! * **Recycling** (§4.4, Theorem 3) — reservoir cells idle past ΔT_del
//!   can never become active again and are deleted. Expired cells are
//!   found through the [`IdleQueue`], an idle-ordered priority queue with
//!   lazy invalidation: each pop is an expired (or stale) entry, so the
//!   cost per sweep is O(recycled + stale), **never** O(total cells) —
//!   the full-slab walk this replaces was the last linear scan in the
//!   engine's steady state.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use edm_common::hash::{fx_set, FxHashSet};
use edm_common::metric::Metric;
use edm_common::point::GridCoords;
use edm_common::time::Timestamp;

use crate::cell::CellId;
use crate::evolution::{AdjustKind, ClusterId, EventKind, GroupInput};
use crate::index::NeighborIndex;
use crate::tree;

use super::{denser_scalar, EdmStream};

/// An idle-queue entry: the absorption time a cell was filed under.
/// Ordered oldest-first (via `Reverse` in the heap) with id tie-breaks so
/// queue behavior is deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
struct IdleKey {
    last_absorb: Timestamp,
    id: CellId,
}

impl Eq for IdleKey {}

impl Ord for IdleKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.last_absorb.total_cmp(&other.last_absorb).then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for IdleKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Inactive cells keyed by last absorption time, oldest first.
///
/// Writers push a fresh entry whenever a cell (re)enters or re-touches
/// the reservoir: birth, absorb-while-inactive, demotion from the tree.
/// Entries are never searched or deleted in place — a cell that was
/// re-absorbed or activated leaves its old entries behind as *stale*, and
/// the reader drops them on pop by comparing the entry's timestamp with
/// the cell's current `last_absorb` (a recycled slot's reused id can
/// never collide: the new cell's absorption time is necessarily later
/// than any entry that outlived the old one, see
/// [`EdmStream::check_invariants`]'s coverage check).
///
/// Lazy invalidation trades heap size for O(1) updates; [`IdleQueue::compact`]
/// bounds the trade by rebuilding from live entries once stale ones
/// dominate, at cost amortized against the pushes that created them.
#[derive(Debug, Clone, Default)]
pub(super) struct IdleQueue {
    heap: BinaryHeap<Reverse<IdleKey>>,
}

impl IdleQueue {
    /// Files `id` as idle since `last_absorb` (superseding — lazily — any
    /// earlier entry for the same cell).
    pub(super) fn push(&mut self, id: CellId, last_absorb: Timestamp) {
        self.heap.push(Reverse(IdleKey { last_absorb, id }));
    }

    /// Oldest entry, if any (stale or not — the caller validates).
    fn peek(&self) -> Option<IdleKey> {
        self.heap.peek().map(|Reverse(k)| *k)
    }

    /// Removes and returns the oldest entry.
    fn pop(&mut self) -> Option<IdleKey> {
        self.heap.pop().map(|Reverse(k)| k)
    }

    /// Entries currently queued (live + stale).
    pub(super) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Iterates all queued entries in unspecified order (invariant checks).
    pub(super) fn iter(&self) -> impl Iterator<Item = (CellId, Timestamp)> + '_ {
        self.heap.iter().map(|Reverse(k)| (k.id, k.last_absorb))
    }

    /// Drops every stale entry, keeping only those `is_live` vouches for.
    /// O(len); callers trigger it only after the queue at least doubled
    /// past the live population, so the cost amortizes to O(1) per push.
    fn compact(&mut self, is_live: impl Fn(&IdleKey) -> bool) {
        let entries = std::mem::take(&mut self.heap).into_vec();
        self.heap = entries.into_iter().filter(|Reverse(k)| is_live(k)).collect();
    }
}

impl<P: Clone + GridCoords + Send + Sync, M: Metric<P>> EdmStream<P, M> {
    // ----- dependency maintenance (paper §4.2) -----

    /// Handles the density rise of `cprime` (which just absorbed `p`) from
    /// `before` to `after` at time `t`. When `freshly_activated`, `cprime`
    /// just entered the tree and needs its own dependency computed
    /// unconditionally.
    pub(super) fn dependency_maintenance(
        &mut self,
        p: &P,
        cprime: CellId,
        before: f64,
        after: f64,
        t: Timestamp,
        freshly_activated: bool,
    ) {
        let started = std::time::Instant::now();
        let filters = self.cfg.filters;
        let p_dist_cprime = self.scratch.get(cprime.0 as usize).unwrap_or(0.0);

        // Apex maintenance: only the rising cell can displace the current
        // maximum (uniform decay keeps every other pair's order fixed).
        let displaced = match self.apex {
            Some(apex) if apex != cprime => {
                let rho_apex = self.slab.get(apex).rho_at(t, self.decay());
                denser_scalar(after, cprime, rho_apex, apex)
            }
            Some(_) => false, // cprime already is the apex
            None => true,
        };
        if displaced {
            self.apex = Some(cprime);
        }

        // Candidate pass: cells whose dependency may now be `cprime`.
        let mut candidates: Vec<CellId> = Vec::new();
        if filters.density {
            // Theorem 1 first: only the cells `cprime` overtook can switch
            // to it, and they are the run of the density order between its
            // density before and after. The window's keys decide the cells
            // well inside it; those near an edge (ties, rounding) take the
            // exact test. Every other tree member is skipped unvisited and
            // counted as filtered, as the full walk would have counted it.
            let window = self.order.window(before, after, t);
            let others = self.active_ids.len() as u64 - 1;
            let mut overtaken = 0u64;
            for &(key, id) in window.entries {
                if id == cprime {
                    continue;
                }
                if !window.is_inside(key) {
                    let rho_c = self.slab.get(id).rho_at(t, self.decay());
                    let was_denser_c = denser_scalar(rho_c, id, before, cprime);
                    if !was_denser_c || denser_scalar(rho_c, id, after, cprime) {
                        continue;
                    }
                }
                overtaken += 1;
                if filters.triangle && self.triangle_prunes(p, id, p_dist_cprime) {
                    self.stats.filtered_triangle += 1;
                    continue;
                }
                candidates.push(id);
            }
            self.stats.dep_candidates += others;
            self.stats.filtered_density += others - overtaken;
        } else {
            // No Theorem 1 (the wf / tif series of Fig 11): every tree
            // member is a candidate.
            for &id in &self.active_ids {
                if id == cprime {
                    continue;
                }
                self.stats.dep_candidates += 1;
                if filters.triangle && self.triangle_prunes(p, id, p_dist_cprime) {
                    self.stats.filtered_triangle += 1;
                    continue;
                }
                // `cprime` must now outrank `c` for any update to be
                // possible; this is not a filter but the update rule itself.
                let rho_c = self.slab.get(id).rho_at(t, self.decay());
                if denser_scalar(rho_c, id, after, cprime) {
                    continue;
                }
                candidates.push(id);
            }
        }
        for c in candidates {
            // The distance only matters when it beats δ_c; past that bound
            // the bounded kernel's early exit is free (any value > δ_c is
            // discarded, and within the bound it is exact).
            let delta = self.slab.get(c).delta;
            let d = self.metric.dist_upper_bounded(
                &self.slab.get(c).seed,
                &self.slab.get(cprime).seed,
                delta,
            );
            if d < self.slab.get(c).delta {
                tree::set_dep(&mut self.slab, c, cprime, d);
                self.stats.dep_updates += 1;
                self.touched.push(c);
            }
        }

        // Did `cprime` overtake its own dependency? Then its δ must be
        // recomputed against the (shrunken) set of denser cells.
        let needs_recompute = if freshly_activated {
            true
        } else {
            match self.slab.get(cprime).dep {
                Some(dep) => {
                    let rho_dep = self.slab.get(dep).rho_at(t, self.decay());
                    !denser_scalar(rho_dep, dep, after, cprime)
                }
                None => false, // already the root; absorbing keeps it there
            }
        };
        if needs_recompute {
            self.stats.dep_recomputes += 1;
            self.recompute_dep(cprime, after, t);
            // Also how a freshly activated cell reaches the next diff.
            self.touched.push(cprime);
        }
        self.stats.dep_update_nanos += started.elapsed().as_nanos() as u64;
    }

    /// Theorem 2: whether `c` cannot switch to the riser `cprime`, because
    /// `||p,s_c| − |p,s_c'|| > δ_c`. `|p,s_c|` and `|p,s_c'|` are already in
    /// scratch when the assignment probe reached both cells, so the common
    /// case costs two reads. Cells the probe did not reach fall back to the
    /// index's distance lower bound, which can only prune a subset of what
    /// the exact check would (still Theorem 2, one-sided), so filtering
    /// stays exact either way.
    fn triangle_prunes(&self, p: &P, c: CellId, p_dist_cprime: f64) -> bool {
        let cell = self.slab.get(c);
        match self.scratch.get(c.0 as usize) {
            Some(p_dist_c) => (p_dist_c - p_dist_cprime).abs() > cell.delta,
            None => self.index.lower_bound_prunes(p, &cell.seed, p_dist_cprime, cell.delta),
        }
    }

    /// Recomputes `cell`'s dependency: the nearest denser active cell,
    /// found through the neighbor index (expanding-shell search under the
    /// grid, full scan under the linear fallback). When `cell` is the
    /// apex there is nothing denser to find — it becomes the root without
    /// any search, which is exactly the case where a search could only
    /// terminate by exhausting the index.
    fn recompute_dep(&mut self, cell: CellId, rho_cell: f64, t: Timestamp) {
        if self.apex == Some(cell) {
            tree::detach(&mut self.slab, cell);
            return;
        }
        let decay = self.cfg.decay;
        let best = {
            let q = &self.slab.get(cell).seed;
            self.index.nearest_matching(q, &self.slab, &self.metric, &mut |id, other| {
                id != cell
                    && other.active
                    && denser_scalar(other.rho_at(t, &decay), id, rho_cell, cell)
            })
        };
        tree::detach(&mut self.slab, cell);
        if let Some((dep, d)) = best {
            tree::attach(&mut self.slab, cell, dep, d);
        }
    }

    // ----- decay sweep and recycling (paper §4.3–4.4) -----

    pub(super) fn maintenance(&mut self, t: Timestamp) {
        // Cluster-cell decay: find top-most active cells below the
        // threshold; their subtrees (all sparser) decay with them.
        let thr = self.threshold_at(t);
        let mut decayed_tops: Vec<CellId> = Vec::new();
        for &(_, id) in self.order.below(thr, t) {
            let cell = self.slab.get(id);
            if cell.rho_at(t, self.decay()) >= thr {
                continue;
            }
            let parent_above = match cell.dep {
                Some(p) => self.slab.get(p).rho_at(t, self.decay()) >= thr,
                None => true,
            };
            if parent_above {
                decayed_tops.push(id);
            }
        }
        if !decayed_tops.is_empty() {
            let mut removed: Vec<CellId> = Vec::new();
            // BTreeMap, not HashMap: the loop below emits one Adjust event
            // per cluster, and event order must be identical across engine
            // instances (the equivalence suites compare event streams) —
            // a hashed iteration order is randomized per instance.
            let mut by_cluster: std::collections::BTreeMap<ClusterId, u32> =
                std::collections::BTreeMap::new();
            for top in decayed_tops {
                tree::detach(&mut self.slab, top);
                removed.clear();
                tree::collect_subtree(&self.slab, top, &mut removed);
                for &id in removed.iter() {
                    let cell = self.slab.get_mut(id);
                    cell.active = false;
                    cell.dep = None;
                    cell.delta = f64::INFINITY;
                    cell.children.clear();
                    // Only a cell activated by this very point, which the
                    // diff below labels, carries none.
                    if let Some(cluster) = cell.cluster.take() {
                        *by_cluster.entry(cluster).or_insert(0) += 1;
                    }
                    self.stats.deactivations += 1;
                    // Back in the reservoir: idle clock starts from the
                    // cell's last absorption.
                    let filed_at = cell.last_absorb;
                    self.idle.push(id, filed_at);
                }
            }
            // Compact the registry once per sweep (deactivations are
            // batched and rare relative to inserts).
            let slab = &self.slab;
            self.active_ids.retain(|&id| slab.get(id).active);
            self.order.retain(|id| slab.get(id).active);
            if self.apex.is_some_and(|a| !self.slab.get(a).active) {
                self.apex = self.densest_active(t);
            }
            // The next diff reconsiders every cluster that lost cells here.
            for (cluster, cells) in by_cluster {
                self.log.push(
                    t,
                    EventKind::Adjust { kind: AdjustKind::BecameOutliers, cluster, cells },
                );
                self.stats.events += 1;
                self.decayed.push(cluster);
                self.parts.mark(cluster);
            }
        }
        // Memory recycling: inactive cells idle for ΔT_del are deleted
        // (Theorem 3: they can never become active again in time). The
        // idle queue hands over exactly the expired candidates — popping
        // stops at the first unexpired entry, so steady-state cost is
        // O(recycled + stale), independent of slab size.
        while let Some(entry) = self.idle.peek() {
            if t - entry.last_absorb <= self.dt_del {
                break; // oldest entry not yet expired — nothing else is
            }
            self.idle.pop();
            if !self.slab.contains(entry.id) {
                continue; // stale: the cell was already recycled
            }
            let cell = self.slab.get(entry.id);
            if cell.active || cell.last_absorb != entry.last_absorb {
                continue; // stale: superseded by activation or re-absorb
            }
            let cell = self.slab.remove(entry.id);
            self.index.on_remove(entry.id, &cell.seed, &self.slab, &self.metric);
            self.stats.recycled += 1;
        }
        // Bound the stale backlog: once the queue outgrows twice the
        // reservoir, at least half its entries are stale — rebuild from
        // the live ones (amortized O(1) per push, and no slab walk).
        if self.idle.len() > 64 && self.idle.len() > 2 * self.reservoir_len() {
            let slab = &self.slab;
            self.idle.compact(|k| {
                slab.contains(k.id) && {
                    let c = slab.get(k.id);
                    !c.active && c.last_absorb == k.last_absorb
                }
            });
        }
        // Index self-maintenance: cover-tree radius re-tightening, counted
        // so the parallel commit loop invalidates cached probes whenever
        // the index's pruning bounds changed under them.
        self.stats.grid_rebuilds += self.index.maintain(&self.slab, &self.metric);
    }

    // ----- evolution bookkeeping (paper §3.3) -----

    /// Diffs the MSDSubTrees this point's structural changes reached
    /// against the clusters they replace, writes the new labels back and
    /// clears the touched-cell record.
    pub(super) fn run_diff(&mut self, t: Timestamp) {
        let started = std::time::Instant::now();
        let mut touched = std::mem::take(&mut self.touched);
        let mut decayed = std::mem::take(&mut self.decayed);
        let groups = self.reached_subtrees(&touched, &decayed);
        self.stats.diff_cells += groups.iter().map(|g| g.members.len() as u64).sum::<u64>();
        let before = self.log.total();
        let assignments = self.registry.diff(t, &groups, &decayed, &mut self.log);
        self.stats.events += self.log.total() - before;
        // A cell whose label changes left one cluster and entered
        // another: neither keeps its shared parts.
        let labelled = groups.iter().flat_map(|g| &g.members);
        for (&(cell, old), (assigned, cid)) in labelled.zip(assignments) {
            debug_assert_eq!(cell, assigned, "the diff assigns the members in the order given");
            if old != Some(cid) {
                self.parts.mark(cid);
                if let Some(old) = old {
                    self.parts.mark(old);
                }
            }
            self.slab.get_mut(cell).cluster = Some(cid);
        }
        // Every event-recording site funnels through here (each of the
        // sweep's adjust events files a decayed cluster, so a diff — and
        // this sync — always follows), which keeps the lineage tracker's
        // cursor ahead of the log's eviction point unless one diff alone
        // overflows `event_capacity`.
        self.tracker.sync(&self.log);
        self.stats.diff_nanos += started.elapsed().as_nanos() as u64;
        touched.clear();
        decayed.clear();
        self.touched = touched;
        self.decayed = decayed;
    }

    /// The MSDSubTrees a structural change reached, ascending by root,
    /// each with its members' current labels: the closure of the touched
    /// cells' subtrees and the decayed clusters under "a collected member
    /// carries cluster X" ⇒ "collect the subtree now holding X's old
    /// root". A cluster outside the closure has the same members and root
    /// as at the last diff — so the full diff over every active cell would
    /// map it to itself with no event, and leaving it out changes neither
    /// ids nor events.
    fn reached_subtrees(&self, touched: &[CellId], decayed: &[ClusterId]) -> Vec<GroupInput> {
        let tau = self.tau_ctl.tau();
        let slab = &self.slab;
        let in_tree = |id: CellId| slab.contains(id) && slab.get(id).active;
        let mut roots: Vec<CellId> = touched
            .iter()
            .filter(|&&c| in_tree(c))
            .map(|&c| tree::strong_root(slab, c, tau))
            .collect();
        let mut ids: Vec<ClusterId> = decayed.to_vec();
        let mut seen_roots: FxHashSet<CellId> = fx_set();
        let mut seen_ids: FxHashSet<ClusterId> = fx_set();
        let mut groups = Vec::new();
        let mut cells = Vec::new();
        loop {
            if let Some(id) = ids.pop() {
                if !seen_ids.insert(id) {
                    continue;
                }
                if let Some(meta) = self.registry.cluster(id) {
                    if in_tree(meta.root) {
                        roots.push(tree::strong_root(slab, meta.root, tau));
                    }
                }
                continue;
            }
            let Some(root) = roots.pop() else { break };
            if !seen_roots.insert(root) {
                continue;
            }
            cells.clear();
            tree::collect_strong_subtree(slab, root, tau, &mut cells);
            let members: Vec<(CellId, Option<ClusterId>)> =
                cells.iter().map(|&c| (c, slab.get(c).cluster)).collect();
            ids.extend(members.iter().filter_map(|&(_, label)| label));
            groups.push(GroupInput { root, members });
        }
        groups.sort_unstable_by_key(|g| g.root);
        groups
    }

    /// The densest active cell at `t` by full scan of the registry
    /// (apex re-election after the incumbent decays; rare).
    pub(super) fn densest_active(&self, t: Timestamp) -> Option<CellId> {
        let mut best: Option<(f64, CellId)> = None;
        for &id in &self.active_ids {
            let rho = self.slab.get(id).rho_at(t, self.decay());
            if best.is_none_or(|(brho, bid)| denser_scalar(rho, id, brho, bid)) {
                best = Some((rho, id));
            }
        }
        best.map(|(_, id)| id)
    }
}
