//! Best-first metric-tree neighbor index (a simplified cover tree).
//!
//! High-dimensional payloads break the uniform grid twice over: a 3^d
//! candidate-shell enumeration is astronomically larger than the occupied
//! bucket set (so every query flips to the occupied-bucket sweep), and
//! r-separated seeds pack dozens deep into a single r-cube (so the
//! surviving buckets are long id lists scanned in full). The ROADMAP
//! names exactly this regime (PAMAP2, d = 51) as the reason the grid's
//! `recompute_dep` search degenerates. Metric trees prune by *measured
//! distances* instead of coordinate geometry, which is the only pruning
//! device that keeps working when coordinates stop being informative —
//! and the only one available at all for payloads without coordinates
//! (token sets under Jaccard), which the grid can merely scan.
//!
//! [`CoverTree`] is a simplified cover tree in the spirit of Beygelzimer
//! et al. (2006) / Izbicki & Shelton (2015), reduced to the invariant
//! that actually carries exactness:
//!
//! > every node stores a **covering radius** that upper-bounds the
//! > distance from its seed to every descendant's seed.
//!
//! Given that single invariant, the triangle inequality makes
//! `d(q, node) − node.radius` a sound lower bound on the distance from
//! `q` to anything in the node's subtree, and a best-first search over a
//! min-heap of those bounds is exact: it can stop the moment the
//! smallest outstanding bound exceeds the best hit found (strictly — on
//! equality the subtree is still expanded, which is what preserves the
//! id tie-break all index backends share). Tree *shape* affects only how
//! fast the bounds tighten, never what the search returns; likewise,
//! radii are allowed to be stale-large after removals — a looser bound
//! prunes less, it cannot prune wrong.
//!
//! Structural maintenance is deliberately cheap:
//!
//! * **insert** keeps the cover-tree *level* discipline: every node
//!   carries an integer level `ℓ` with cover distance `2^ℓ`, a child
//!   always sits within its parent's cover distance, and a fresh node
//!   attaches one level below the deepest node that covers it (raising
//!   the root's level first when nothing does). Scale stratification is
//!   what makes the shape track the data's own hierarchy regardless of
//!   arrival order: coarse levels route between regions, fine levels
//!   separate r-spaced neighbors, and the depth of any chain is bounded
//!   by `log(span / separation)` instead of the population. Cost:
//!   O(fanout · depth) metric evaluations, each also folded into the
//!   path's covering radii;
//! * **remove** re-hangs the removed node's children onto its parent and
//!   widens the parent's radius by `d(parent, removed) + removed.radius`
//!   (a sound triangle-inequality bound on every re-hung descendant) —
//!   exactly one metric evaluation, no re-insertion cascade. Re-hung
//!   nodes keep their levels; the level discipline may loosen, but it
//!   only ever steered the shape — exactness rides on the radii alone.
//!
//! The paper connection: this search replaces the grid's expanding-shell
//! walk in the §4.3 dependency-recomputation step (`recompute_dep`'s
//! nearest *denser active* cell) and in the §4.1 assignment probe, while
//! the distances it computes still stream into the engine's scratch
//! table, feeding the Theorem 2 triangle filter exactly as before.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use edm_common::hash::{fx_map, FxHashMap};
use edm_common::metric::Metric;
use edm_common::point::GridCoords;

use crate::cell::{Cell, CellId};
use crate::slab::CellSlab;

use super::{chebyshev_prunes, closer, NeighborIndex};

/// Relative inflation applied to triangle-inequality radius updates on
/// removal, so float rounding in the `d + radius` sum can never leave a
/// stored covering radius a few ulps below a descendant's true distance.
const RADIUS_SLACK: f64 = 1.0 + 1e-9;

/// Metric-evaluation budget per maintenance cadence for re-tightening
/// removal-widened covering radii (see [`CoverTree::retighten`]): enough
/// to retire a recycling wave's worth of dirty nodes within a few
/// cadences, small enough that a maintenance tick never stalls ingest.
/// Stale-large radii are sound, so deferring the remainder costs pruning
/// power only.
const RETIGHTEN_BUDGET: usize = 4096;

/// One tree node: a live cell plus its subtree bookkeeping.
#[derive(Debug, Clone)]
struct Node {
    /// The cell this node represents (its seed lives in the slab).
    id: CellId,
    /// Arena index of the parent; `None` for the root.
    parent: Option<usize>,
    /// Arena indices of the children, in attachment order.
    children: Vec<usize>,
    /// Covering radius: an upper bound on the distance from this node's
    /// seed to every descendant's seed. Grows on insert/re-hang, never
    /// shrinks — stale-large is sound, merely less selective.
    radius: f64,
    /// Cover-tree level: fresh children attach within cover distance
    /// `base^level` of this node, one level below it. Purely a shape
    /// heuristic (removal re-hangs ignore it); exactness never reads it.
    level: i32,
}

/// Expansion base of the level ladder. The classic cover-tree
/// implementations use 1.3 rather than the paper's 2: finer strata
/// separate scales whose ratio is under 2 (Jaccard topics at distance
/// 1.0 over in-topic variants at 2/3, say) at the price of a deeper —
/// still logarithmic — tree.
const COVER_BASE: f64 = 1.3;

/// The cover distance of a level: `base^ℓ`.
#[inline]
fn covdist(level: i32) -> f64 {
    COVER_BASE.powi(level)
}

/// Best-first search frontier entry: the lower bound on any distance
/// inside `node`'s subtree. Ordered by bound, then arena index, so the
/// expansion order (and with it the probed set the parallel replay must
/// reproduce) is deterministic.
#[derive(Debug, PartialEq)]
struct Frontier {
    lb: f64,
    node: usize,
}

impl Eq for Frontier {}

impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.lb.total_cmp(&other.lb).then(self.node.cmp(&other.node))
    }
}

impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

thread_local! {
    /// Per-thread reusable frontier heap — the same device as the grid's
    /// `KeyScratch`: queries run per insert, so a fresh `BinaryHeap`
    /// each time would be the hot path's recurring allocation, and
    /// thread-locality keeps concurrent probes of the parallel batch
    /// fan-out lock-free. Queries never re-enter the index (the probe
    /// callbacks only record distances / read the slab), so each query
    /// can hold the borrow; the heap is always drained-or-cleared before
    /// release.
    static FRONTIER_SCRATCH: std::cell::RefCell<BinaryHeap<Reverse<Frontier>>> =
        const { std::cell::RefCell::new(BinaryHeap::new()) };
}

/// Simplified cover tree over cell seeds; exact for any true metric.
#[derive(Debug, Clone)]
pub struct CoverTree {
    /// Node arena with free-list slot reuse (ids stay stable while a
    /// node lives, which the deterministic frontier order relies on).
    nodes: Vec<Node>,
    /// Freed arena slots awaiting reuse.
    free: Vec<usize>,
    /// Arena index of the root, `None` while empty.
    root: Option<usize>,
    /// Cell id → arena index, for O(1) removal lookup.
    loc: FxHashMap<CellId, usize>,
    /// Whether the engine's metric dominates per-axis coordinate
    /// differences, enabling the Chebyshev bound of
    /// [`NeighborIndex::lower_bound_prunes`]. Pure-metric payloads (token
    /// sets) leave this off, and the index then prunes nothing there.
    axis_lower_bound: bool,
    /// Arena indices whose covering radius was widened by a removal
    /// re-hang — the only radius updates that *over*-estimate (insert
    /// folds store true descendant distances). The maintenance cadence
    /// re-tightens them to exact subtree maxima; entries may be stale
    /// (node since freed or reused), so consumers re-validate against
    /// `loc` before touching anything.
    dirty: Vec<usize>,
}

impl CoverTree {
    /// Creates an empty tree. `axis_lower_bound` states whether the
    /// engine's metric dominates per-axis coordinate differences (see
    /// [`edm_common::metric::Metric::dominates_coordinate_axes`]); it
    /// only affects [`NeighborIndex::lower_bound_prunes`], never the
    /// tree search itself.
    pub fn new(axis_lower_bound: bool) -> Self {
        CoverTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: None,
            loc: fx_map(),
            axis_lower_bound,
            dirty: Vec::new(),
        }
    }

    /// Cells currently indexed.
    pub fn len(&self) -> usize {
        self.loc.len()
    }

    /// True while no cell is indexed.
    pub fn is_empty(&self) -> bool {
        self.loc.is_empty()
    }

    /// Allocates an arena slot for a fresh leaf at `level`.
    fn alloc(&mut self, id: CellId, parent: Option<usize>, level: i32) -> usize {
        let node = Node { id, parent, children: Vec::new(), radius: 0.0, level };
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = node;
                idx
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    /// Distance from `q` to the seed of arena node `idx`.
    fn dist_to<P, M: Metric<P>>(&self, idx: usize, q: &P, slab: &CellSlab<P>, metric: &M) -> f64 {
        metric.dist(q, &slab.get(self.nodes[idx].id).seed)
    }

    /// Walks a subtree depth-first (coherence checks).
    fn walk(&self, idx: usize, f: &mut dyn FnMut(usize)) {
        f(idx);
        for &c in &self.nodes[idx].children {
            self.walk(c, f);
        }
    }

    /// Exact covering radius of arena node `idx`: the maximum measured
    /// distance from its seed to any descendant's seed (0 for a leaf).
    /// O(subtree) metric evaluations.
    fn exact_radius<P, M: Metric<P>>(&self, idx: usize, slab: &CellSlab<P>, metric: &M) -> f64 {
        let seed = &slab.get(self.nodes[idx].id).seed;
        let mut max = 0.0f64;
        for &c in &self.nodes[idx].children {
            self.walk(c, &mut |n| {
                max = max.max(metric.dist(seed, &slab.get(self.nodes[n].id).seed));
            });
        }
        max
    }

    /// Re-tightens covering radii loosened by removal re-hangs (the
    /// `maintain`-cadence satellite of the radius invariant): each dirty
    /// node still alive gets its radius recomputed to the exact subtree
    /// maximum. Exact radii can only be **smaller** than the stored
    /// triangle-inequality bounds, so tightening never breaks the
    /// ancestor invariant — it just restores the pruning power removals
    /// leak. Work is budgeted per cadence ([`RETIGHTEN_BUDGET`] metric
    /// evaluations, give or take one subtree); the remainder stays dirty
    /// for the next cadence, and a stale-large radius in the meantime is
    /// sound. Returns the number of nodes re-tightened.
    pub(crate) fn retighten<P, M: Metric<P>>(&mut self, slab: &CellSlab<P>, metric: &M) -> u64 {
        let mut done = 0u64;
        let mut spent = 0usize;
        let mut i = 0;
        while i < self.dirty.len() {
            if spent >= RETIGHTEN_BUDGET {
                break;
            }
            let idx = self.dirty[i];
            i += 1;
            // A dirty entry is only actionable while the arena slot still
            // holds the node it referred to — freed or reused slots are
            // someone else's (already-tight) node now.
            let live = idx < self.nodes.len()
                && self.loc.get(&self.nodes[idx].id) == Some(&idx)
                && !self.dirty[..i - 1].contains(&idx);
            if !live {
                continue;
            }
            let mut size = 0usize;
            self.walk(idx, &mut |_| size += 1);
            spent += size;
            self.nodes[idx].radius = self.exact_radius(idx, slab, metric);
            done += 1;
        }
        self.dirty.drain(..i);
        done
    }
}

impl<P: GridCoords> NeighborIndex<P> for CoverTree {
    fn on_insert<M: Metric<P>>(&mut self, id: CellId, seed: &P, slab: &CellSlab<P>, metric: &M) {
        let Some(root) = self.root else {
            let idx = self.alloc(id, None, 0);
            self.root = Some(idx);
            self.loc.insert(id, idx);
            return;
        };
        // Raise the root's level until its cover distance reaches the
        // new seed (the node stays put — a higher level only widens what
        // it may adopt; existing children remain covered a fortiori).
        let d_root = self.dist_to(root, seed, slab, metric);
        while d_root > covdist(self.nodes[root].level) {
            self.nodes[root].level += 1;
        }
        // Descend into the nearest child whose cover distance still
        // reaches the seed; where none does, the seed separates at this
        // scale and attaches here, one level down. The new seed becomes
        // a descendant of every node on the path, so each path node's
        // covering radius absorbs its distance. Levels shrink
        // geometrically along any path, which bounds chains through
        // crowded regions by log(cover span / seed separation).
        let mut cur = root;
        let mut d_cur = d_root;
        let mut seeds: Vec<&P> = Vec::new();
        let mut dists: Vec<f64> = Vec::new();
        let idx = loop {
            let node = &mut self.nodes[cur];
            node.radius = node.radius.max(d_cur);
            // One batched kernel call covers the whole sibling set
            // (distances are bit-identical to per-child `dist`, so the
            // routing — and with it the tree shape — is unchanged).
            seeds.clear();
            seeds
                .extend(self.nodes[cur].children.iter().map(|&c| &slab.get(self.nodes[c].id).seed));
            metric.dist_batch(seed, &seeds, &mut dists);
            let mut best: Option<(f64, usize)> = None;
            for (ci, &d) in dists.iter().enumerate() {
                let child = self.nodes[cur].children[ci];
                if d > covdist(self.nodes[child].level) {
                    continue; // out of this child's cover
                }
                // Ties break toward the lower cell id, so the shape never
                // depends on arena-slot reuse history.
                let better = match best {
                    Some((bd, bidx)) => {
                        d < bd || (d == bd && self.nodes[child].id < self.nodes[bidx].id)
                    }
                    None => true,
                };
                if better {
                    best = Some((d, child));
                }
            }
            match best {
                Some((d, child)) => {
                    cur = child;
                    d_cur = d;
                }
                None => {
                    let level = self.nodes[cur].level - 1;
                    let idx = self.alloc(id, Some(cur), level);
                    self.nodes[cur].children.push(idx);
                    break idx;
                }
            }
        };
        self.loc.insert(id, idx);
    }

    fn on_remove<M: Metric<P>>(&mut self, id: CellId, seed: &P, slab: &CellSlab<P>, metric: &M) {
        let idx = self.loc.remove(&id).expect("removing cell unknown to the cover tree");
        let Node { parent, children, radius, .. } = std::mem::replace(
            &mut self.nodes[idx],
            Node { id, parent: None, children: Vec::new(), radius: 0.0, level: 0 },
        );
        match parent {
            Some(p) => {
                // Re-hang the orphans onto the parent. Any former
                // descendant x satisfies d(p, x) ≤ d(p, removed) +
                // d(removed, x) ≤ d(p, removed) + removed.radius, so one
                // measured distance widens p's radius soundly for the
                // whole re-hung brood (slack absorbs float rounding in
                // the sum). Ancestors above p already cover x — it was
                // their descendant all along.
                let pos = self.nodes[p]
                    .children
                    .iter()
                    .position(|&c| c == idx)
                    .expect("node missing from its parent's child list");
                self.nodes[p].children.swap_remove(pos);
                if !children.is_empty() {
                    let d = metric.dist(seed, &slab.get(self.nodes[p].id).seed);
                    let widened = (d + radius) * RADIUS_SLACK;
                    if widened > self.nodes[p].radius {
                        // The only radius update that over-estimates;
                        // queue it for exact re-tightening at maintenance
                        // cadence.
                        self.nodes[p].radius = widened;
                        self.dirty.push(p);
                    }
                    for c in &children {
                        self.nodes[*c].parent = Some(p);
                    }
                    self.nodes[p].children.extend(children);
                }
            }
            None => {
                // Root removal: promote the first child (deterministic —
                // attachment order is part of the op history) and re-hang
                // its siblings under it, bounding the new root's radius
                // through the removed root the same way.
                match children.split_first() {
                    None => self.root = None,
                    Some((&new_root, siblings)) => {
                        self.nodes[new_root].parent = None;
                        self.root = Some(new_root);
                        if !siblings.is_empty() {
                            let d = metric.dist(seed, &slab.get(self.nodes[new_root].id).seed);
                            let widened = (d + radius) * RADIUS_SLACK;
                            if widened > self.nodes[new_root].radius {
                                self.nodes[new_root].radius = widened;
                                self.dirty.push(new_root);
                            }
                            for c in siblings {
                                self.nodes[*c].parent = Some(new_root);
                            }
                            self.nodes[new_root].children.extend_from_slice(siblings);
                        }
                    }
                }
            }
        }
        self.free.push(idx);
    }

    fn nearest_within<M: Metric<P>>(
        &self,
        q: &P,
        radius: f64,
        slab: &CellSlab<P>,
        metric: &M,
        on_probe: &mut dyn FnMut(CellId, f64),
    ) -> Option<(CellId, f64)> {
        let root = self.root?;
        let mut best: Option<(CellId, f64)> = None;
        FRONTIER_SCRATCH.with(|scratch| {
            let frontier = &mut *scratch.borrow_mut();
            frontier.clear();
            // Batch buffers for sibling-set expansion; `dist_batch`
            // results are bit-identical to per-child `dist`, so the
            // probed set, every `on_probe` value, and the id tie-break
            // all match the scalar search exactly.
            let mut seeds: Vec<&P> = Vec::new();
            let mut dists: Vec<f64> = Vec::new();
            let d_root = metric.dist(q, &slab.get(self.nodes[root].id).seed);
            on_probe(self.nodes[root].id, d_root);
            if closer(d_root, self.nodes[root].id, best) {
                best = Some((self.nodes[root].id, d_root));
            }
            if !self.nodes[root].children.is_empty() {
                frontier.push(Reverse(Frontier {
                    lb: (d_root - self.nodes[root].radius).max(0.0),
                    node: root,
                }));
            }
            while let Some(Reverse(Frontier { lb, node })) = frontier.pop() {
                // Nothing beyond min(best, radius) can matter; strict `>`
                // so equal-bound subtrees still expand and the id
                // tie-break stays identical to the brute-force scan. The
                // frontier is a min-heap, so the first unhelpful bound
                // ends the search.
                let bound = best.map_or(radius, |(_, bd)| bd.min(radius));
                if lb > bound {
                    frontier.clear();
                    break;
                }
                let children = &self.nodes[node].children;
                seeds.clear();
                seeds.extend(children.iter().map(|&c| &slab.get(self.nodes[c].id).seed));
                metric.dist_batch(q, &seeds, &mut dists);
                for (&c, &d) in children.iter().zip(dists.iter()) {
                    let child = &self.nodes[c];
                    on_probe(child.id, d);
                    if closer(d, child.id, best) {
                        best = Some((child.id, d));
                    }
                    if !child.children.is_empty() {
                        frontier
                            .push(Reverse(Frontier { lb: (d - child.radius).max(0.0), node: c }));
                    }
                }
            }
        });
        best.filter(|&(_, d)| d <= radius)
    }

    fn nearest_matching<M: Metric<P>>(
        &self,
        q: &P,
        slab: &CellSlab<P>,
        metric: &M,
        pred: &mut dyn FnMut(CellId, &Cell<P>) -> bool,
    ) -> Option<(CellId, f64)> {
        let root = self.root?;
        let mut best: Option<(CellId, f64)> = None;
        FRONTIER_SCRATCH.with(|scratch| {
            let frontier = &mut *scratch.borrow_mut();
            frontier.clear();
            // Non-matching nodes still route the search (their covering
            // radius bounds their subtree regardless), they just never
            // become candidates — the unbounded analogue of the grid's
            // predicate handling in its shell walk. This search has no
            // probe callback, so two kernel-level savings are free:
            //
            // * a non-matching **leaf** contributes neither a candidate
            //   nor a frontier entry — its distance is never read, so the
            //   evaluation is skipped outright (dependency predicates
            //   reject most cells, making this the common case);
            // * every other evaluation runs under the bound
            //   `best + radius`: a node farther than that can neither
            //   displace the best (it is farther than best, ties
            //   included, because within-bound results are exact) nor
            //   survive the frontier cut (its lower bound `d − radius`
            //   already exceeds best, and the early-exit value — a sound
            //   lower bound on the true distance — keeps `d − radius`
            //   sound, merely looser, which can only expand *more*, never
            //   less, so exactness holds). In fact with this bound the
            //   expansion set is *identical* to the exact search's:
            //   within the bound the value is exact, and past it both
            //   verdicts are "prune".
            let mut visit =
                |idx: usize,
                 best: &mut Option<(CellId, f64)>,
                 frontier: &mut BinaryHeap<Reverse<Frontier>>| {
                    let node = &self.nodes[idx];
                    let matches = pred(node.id, slab.get(node.id));
                    if !matches && node.children.is_empty() {
                        return;
                    }
                    let bound = best.map_or(f64::INFINITY, |(_, bd)| bd + node.radius);
                    let d = metric.dist_upper_bounded(q, &slab.get(node.id).seed, bound);
                    if matches && closer(d, node.id, *best) {
                        *best = Some((node.id, d));
                    }
                    if !node.children.is_empty() {
                        frontier
                            .push(Reverse(Frontier { lb: (d - node.radius).max(0.0), node: idx }));
                    }
                };
            visit(root, &mut best, frontier);
            while let Some(Reverse(Frontier { lb, node })) = frontier.pop() {
                if let Some((_, bd)) = best {
                    if lb > bd {
                        frontier.clear();
                        break;
                    }
                }
                for ci in 0..self.nodes[node].children.len() {
                    visit(self.nodes[node].children[ci], &mut best, frontier);
                }
            }
        });
        best
    }

    fn lower_bound_prunes(&self, q: &P, seed: &P, p_dist: f64, delta: f64) -> bool {
        // The tree's own bounds need a measured distance to q, which this
        // test must not spend; the coordinate Chebyshev bound is free and
        // sound whenever the metric dominates per-axis differences.
        self.axis_lower_bound && chebyshev_prunes(q, seed, p_dist, delta)
    }

    fn maintain<M: Metric<P>>(&mut self, slab: &CellSlab<P>, metric: &M) -> u64 {
        // Re-tightening *shrinks* covering radii, which tightens search
        // lower bounds and can shrink the probed set of a cached parallel
        // probe — so a cadence that actually re-tightened something must
        // count as a rebuild, invalidating the batch committer's cached
        // probes exactly like recycling does.
        u64::from(self.retighten(slab, metric) > 0)
    }

    fn check_coherence<M: Metric<P>>(&self, slab: &CellSlab<P>, metric: &M) -> Result<(), String> {
        if self.loc.len() != slab.len() {
            return Err(format!("tree holds {} cells, slab holds {}", self.loc.len(), slab.len()));
        }
        for (id, _) in slab.iter() {
            let &idx = self.loc.get(&id).ok_or(format!("{id} missing from the cover tree"))?;
            if self.nodes[idx].id != id {
                return Err(format!("{id} maps to a node holding {}", self.nodes[idx].id));
            }
        }
        let Some(root) = self.root else {
            return if self.loc.is_empty() {
                Ok(())
            } else {
                Err("rootless tree still maps cells".into())
            };
        };
        if self.nodes[root].parent.is_some() {
            return Err("root has a parent".into());
        }
        // Structure: every mapped node reachable exactly once, child and
        // parent links mutually consistent.
        let mut reached = 0usize;
        let mut err: Option<String> = None;
        self.walk(root, &mut |idx| {
            reached += 1;
            for &c in &self.nodes[idx].children {
                if self.nodes[c].parent != Some(idx) {
                    err = Some(format!("child {c} of {idx} disowns its parent"));
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        if reached != self.loc.len() {
            return Err(format!("{reached} nodes reachable, {} mapped", self.loc.len()));
        }
        // The exactness invariant: every node's seed lies within each
        // ancestor's covering radius (tiny tolerance for the inflated
        // float sums of removal re-hangs).
        for (&id, &idx) in &self.loc {
            let seed = &slab.get(id).seed;
            let mut anc = self.nodes[idx].parent;
            while let Some(a) = anc {
                let node = &self.nodes[a];
                let d = metric.dist(seed, &slab.get(node.id).seed);
                if d > node.radius * RADIUS_SLACK + 1e-12 {
                    return Err(format!(
                        "{id} at distance {d} escapes ancestor {}'s covering radius {}",
                        node.id, node.radius
                    ));
                }
                anc = node.parent;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_common::metric::{Euclidean, Jaccard};
    use edm_common::point::{DenseVector, TokenSet};

    fn v(x: f64, y: f64) -> DenseVector {
        DenseVector::from([x, y])
    }

    /// Deterministic pseudo-random scatter of `n` 2-d seeds.
    fn scattered(n: usize) -> (CoverTree, CellSlab<DenseVector>, Vec<CellId>) {
        let mut tree = CoverTree::new(true);
        let mut slab = CellSlab::new();
        let mut ids = Vec::new();
        let mut x = 3u64;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = ((x >> 33) % 1000) as f64 / 25.0;
            let b = ((x >> 13) % 1000) as f64 / 25.0;
            let id = slab.insert(Cell::new(v(a, b), 0.0));
            tree.on_insert(id, &slab.get(id).seed, &slab, &Euclidean);
            ids.push(id);
        }
        (tree, slab, ids)
    }

    fn brute_nearest(
        slab: &CellSlab<DenseVector>,
        q: &DenseVector,
        radius: f64,
    ) -> Option<(CellId, f64)> {
        slab.iter()
            .map(|(id, c)| (id, c.seed.dist(q)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
            .filter(|&(_, d)| d <= radius)
    }

    #[test]
    fn nearest_within_matches_brute_force_on_scattered_seeds() {
        let (tree, slab, _) = scattered(200);
        assert!(tree.check_coherence(&slab, &Euclidean).is_ok());
        let mut x = 11u64;
        for _ in 0..50 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let q = v(((x >> 33) % 1200) as f64 / 25.0 - 4.0, ((x >> 13) % 1200) as f64 / 25.0);
            for radius in [0.5, 3.0, 1e9] {
                let hit = tree.nearest_within(&q, radius, &slab, &Euclidean, &mut |_, _| {});
                assert_eq!(hit, brute_nearest(&slab, &q, radius), "q={q:?} radius={radius}");
            }
        }
    }

    #[test]
    fn search_prunes_far_subtrees() {
        // Two far-apart blobs: querying inside one must not probe most of
        // the other (the whole point of the tree).
        let mut tree = CoverTree::new(true);
        let mut slab = CellSlab::new();
        for i in 0..200 {
            let base = if i % 2 == 0 { 0.0 } else { 500.0 };
            let id = slab.insert(Cell::new(v(base + (i / 2 % 10) as f64, (i / 20) as f64), 0.0));
            tree.on_insert(id, &slab.get(id).seed, &slab, &Euclidean);
        }
        let mut probed = 0;
        let hit =
            tree.nearest_within(&v(1.1, 0.2), 2.0, &slab, &Euclidean, &mut |_, _| probed += 1);
        assert!(hit.is_some());
        assert!(probed < slab.len() / 2, "probed {probed} of {}", slab.len());
    }

    #[test]
    fn nearest_matching_is_exact_under_a_predicate() {
        let (tree, slab, ids) = scattered(150);
        let banned: std::collections::HashSet<CellId> = ids.iter().step_by(3).copied().collect();
        let q = v(20.0, 20.0);
        let hit = tree.nearest_matching(&q, &slab, &Euclidean, &mut |id, _| !banned.contains(&id));
        let brute = slab
            .iter()
            .filter(|(id, _)| !banned.contains(id))
            .map(|(id, c)| (id, c.seed.dist(&q)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        assert_eq!(hit, brute);
        assert_eq!(tree.nearest_matching(&q, &slab, &Euclidean, &mut |_, _| false), None);
    }

    #[test]
    fn removal_rehangs_orphans_and_stays_exact() {
        let (mut tree, mut slab, ids) = scattered(120);
        // Remove every third cell — interior routing nodes included — and
        // re-verify exactness and coherence after each removal.
        for (k, &id) in ids.iter().enumerate() {
            if k % 3 != 0 {
                continue;
            }
            let cell = slab.remove(id);
            tree.on_remove(id, &cell.seed, &slab, &Euclidean);
            assert!(tree.check_coherence(&slab, &Euclidean).is_ok(), "after removing {id}");
        }
        let q = v(15.0, 22.0);
        let hit = tree.nearest_within(&q, 1e9, &slab, &Euclidean, &mut |_, _| {});
        assert_eq!(hit, brute_nearest(&slab, &q, 1e9));
    }

    #[test]
    fn removing_the_root_promotes_a_child() {
        let mut tree = CoverTree::new(true);
        let mut slab = CellSlab::new();
        let ids: Vec<CellId> = (0..20)
            .map(|i| {
                let id = slab.insert(Cell::new(v(i as f64, 0.0), 0.0));
                tree.on_insert(id, &slab.get(id).seed, &slab, &Euclidean);
                id
            })
            .collect();
        // ids[0] seeded the root.
        let cell = slab.remove(ids[0]);
        tree.on_remove(ids[0], &cell.seed, &slab, &Euclidean);
        assert!(tree.check_coherence(&slab, &Euclidean).is_ok());
        let hit = tree.nearest_within(&v(7.2, 0.0), 0.5, &slab, &Euclidean, &mut |_, _| {});
        assert_eq!(hit.map(|(id, _)| id), Some(ids[7]));
        // Empty the tree entirely; it must survive and report empty.
        for &id in &ids[1..] {
            let cell = slab.remove(id);
            tree.on_remove(id, &cell.seed, &slab, &Euclidean);
        }
        assert!(tree.is_empty());
        assert!(tree.check_coherence(&slab, &Euclidean).is_ok());
        assert_eq!(tree.nearest_within(&v(0.0, 0.0), 1e9, &slab, &Euclidean, &mut |_, _| {}), None);
    }

    #[test]
    fn ties_break_toward_the_lower_id() {
        let mut tree = CoverTree::new(true);
        let mut slab = CellSlab::new();
        let a = slab.insert(Cell::new(v(-1.0, 0.0), 0.0));
        tree.on_insert(a, &slab.get(a).seed, &slab, &Euclidean);
        let b = slab.insert(Cell::new(v(1.0, 0.0), 0.0));
        tree.on_insert(b, &slab.get(b).seed, &slab, &Euclidean);
        let q = v(0.0, 0.0);
        let hit = tree.nearest_within(&q, 2.0, &slab, &Euclidean, &mut |_, _| {});
        assert_eq!(hit.map(|(id, _)| id), Some(a));
        let m = tree.nearest_matching(&q, &slab, &Euclidean, &mut |_, _| true);
        assert_eq!(m.map(|(id, _)| id), Some(a));
    }

    #[test]
    fn indexes_token_sets_without_coordinates() {
        // The grid can only scan token sets; the tree actually routes
        // them — and must stay exact under the Jaccard metric.
        let mut tree = CoverTree::new(false);
        let mut slab = CellSlab::new();
        let mut ids = Vec::new();
        for topic in 0u32..3 {
            for k in 0u32..6 {
                let base = topic * 100;
                let id =
                    slab.insert(Cell::new(TokenSet::new(vec![base, base + 1, base + 2 + k]), 0.0));
                tree.on_insert(id, &slab.get(id).seed, &slab, &Jaccard);
                ids.push(id);
            }
        }
        assert!(tree.check_coherence(&slab, &Jaccard).is_ok());
        let q = TokenSet::new(vec![100, 101, 103]);
        let hit = tree.nearest_within(&q, 0.9, &slab, &Jaccard, &mut |_, _| {});
        let brute = slab
            .iter()
            .map(|(id, c)| (id, c.seed.jaccard_dist(&q)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
            .filter(|&(_, d)| d <= 0.9);
        assert_eq!(hit, brute);
        // No coordinates → no free lower bound: a disjoint seed, at
        // Jaccard distance 1, is not pruned even at the bound's edge,
        // where a gap of 0 equals p_dist + delta.
        let far = &slab.get(ids[0]).seed;
        assert_eq!(q.jaccard_dist(far), 1.0);
        assert!(!NeighborIndex::<TokenSet>::lower_bound_prunes(&tree, &q, far, 0.0, 0.0));
        let cell = slab.remove(ids[3]);
        tree.on_remove(ids[3], &cell.seed, &slab, &Jaccard);
        assert!(tree.check_coherence(&slab, &Jaccard).is_ok());
    }

    #[test]
    fn axis_bound_flag_gates_the_chebyshev_lower_bound() {
        // The Chebyshev gap of (0, 0) to (3, -1.5) is 3 = p_dist + delta
        // exactly: no prune. The next representable gap above it prunes,
        // but only with the axis bound on.
        let with = CoverTree::new(true);
        let without = CoverTree::new(false);
        let (edge, above) = (v(3.0, -1.5), v(3.0f64.next_up(), -1.5));
        let prunes = |tree: &CoverTree, seed: &DenseVector| {
            NeighborIndex::<DenseVector>::lower_bound_prunes(tree, &v(0.0, 0.0), seed, 1.0, 2.0)
        };
        assert!(!prunes(&with, &edge));
        assert!(prunes(&with, &above));
        assert!(!prunes(&without, &edge));
        assert!(!prunes(&without, &above));
    }

    #[test]
    fn retighten_restores_exact_radii_after_removals() {
        let (mut tree, mut slab, ids) = scattered(150);
        for (k, &id) in ids.iter().enumerate() {
            if k % 2 != 0 {
                continue;
            }
            let cell = slab.remove(id);
            tree.on_remove(id, &cell.seed, &slab, &Euclidean);
        }
        assert!(!tree.dirty.is_empty(), "removal re-hangs must queue dirty radii");
        let retightened = tree.retighten(&slab, &Euclidean);
        assert!(retightened > 0);
        assert!(tree.dirty.is_empty(), "the budget comfortably covers this population");
        // Every radius is now the exact subtree maximum: still an upper
        // bound (coherence) and no looser than any descendant demands.
        assert!(tree.check_coherence(&slab, &Euclidean).is_ok());
        for (&id, &idx) in &tree.loc {
            let exact = tree.exact_radius(idx, &slab, &Euclidean);
            assert!(
                tree.nodes[idx].radius >= exact,
                "{id}: stored radius {} under-covers exact {exact}",
                tree.nodes[idx].radius
            );
        }
        let mut probed_tight = 0;
        let q = v(20.0, 20.0);
        let hit = tree.nearest_within(&q, 1e9, &slab, &Euclidean, &mut |_, _| probed_tight += 1);
        assert_eq!(hit, brute_nearest(&slab, &q, 1e9));
        // And the specific nodes that were re-tightened are exact.
        for &idx in tree.loc.values() {
            if tree.nodes[idx].children.is_empty() {
                assert_eq!(tree.nodes[idx].radius.min(0.0), 0.0);
            }
        }
    }

    #[test]
    fn maintain_reports_a_rebuild_only_when_radii_actually_tightened() {
        let (mut tree, mut slab, ids) = scattered(60);
        assert_eq!(NeighborIndex::<DenseVector>::maintain(&mut tree, &slab, &Euclidean), 0);
        for &id in ids.iter().take(20) {
            let cell = slab.remove(id);
            tree.on_remove(id, &cell.seed, &slab, &Euclidean);
        }
        let had_dirty = !tree.dirty.is_empty();
        let reported = NeighborIndex::<DenseVector>::maintain(&mut tree, &slab, &Euclidean);
        assert_eq!(reported, u64::from(had_dirty));
        assert_eq!(NeighborIndex::<DenseVector>::maintain(&mut tree, &slab, &Euclidean), 0);
        assert!(tree.check_coherence(&slab, &Euclidean).is_ok());
    }
}
