//! Uniform-grid neighbor index over cell seeds.
//!
//! Seeds are quantized into buckets of side `s` (by default the
//! cluster-cell radius `r`). Two facts make the bucket geometry a sound
//! pruning device for any metric dominating per-axis coordinate
//! differences (see [`edm_common::point::GridCoords`]):
//!
//! 1. a seed whose bucket key differs from the query's by `k` on some axis
//!    lies **strictly farther** than `(k − 1)·s` from the query, so
//! 2. an assignment query of radius `r` only needs the buckets within
//!    Chebyshev distance `⌈r/s⌉` of the query's bucket (for `s = r`: the
//!    3^d neighborhood shell), and a nearest-matching search can stop as
//!    soon as the next shell's lower bound exceeds the best hit so far.
//!
//! This is the same grid-partitioning idea D-Stream builds its whole
//! synopsis on, applied here purely as an *access path*: the grid stores
//! cell ids, never densities, so it cannot drift from the slab. Payloads
//! without coordinates (and streams whose dimensionality disagrees with
//! the first seed seen) land in an unbucketed side list that every query
//! scans — the degradation path that keeps arbitrary metrics exact.
//!
//! When a query would enumerate more candidate buckets than the grid has
//! occupied ones (high dimensions, huge radii), it flips to iterating the
//! occupied buckets instead, so no query is ever asymptotically worse than
//! the linear scan it replaces.

use std::cell::RefCell;

use edm_common::hash::{fx_map, FxHashMap};
use edm_common::metric::Metric;
use edm_common::point::GridCoords;

use crate::cell::{Cell, CellId};
use crate::slab::CellSlab;

use super::{chebyshev_lower_bound, chebyshev_prunes, closer, NeighborIndex};

/// Reusable integer-key buffers for the query hot path.
///
/// Every assignment probe needs the query's bucket key, and every shell
/// enumeration needs an offset cursor plus a candidate-key buffer.
/// Allocating those per probe (`Box<[i64]>` from `key_of`, two `Vec`s
/// inside the shell walker) was the last steady-state allocation on the
/// insert path; these buffers live per thread and are reused across
/// probes — which also keeps queries `&self` and lock-free under the
/// parallel batch-ingest fan-out, where several threads probe one grid
/// concurrently.
#[derive(Default)]
struct KeyScratch {
    center: Vec<i64>,
    off: Vec<i64>,
    key: Vec<i64>,
}

thread_local! {
    /// Per-thread query scratch. Queries never re-enter the index (the
    /// probe callbacks only record distances / read the slab), so the
    /// whole query can hold the borrow.
    static KEY_SCRATCH: RefCell<KeyScratch> = RefCell::default();
}

/// Mean bucketed-cells-per-occupied-bucket above which an auto-tuning
/// grid halves its side (crowded buckets make every probe scan long id
/// lists — the high-dimensional degeneration ROADMAP flags for PAMAP2).
const OCCUPANCY_HI: f64 = 8.0;
/// Mean occupancy below which an auto-tuning grid doubles a previously
/// refined side back toward its initial value (population shrank, e.g.
/// after heavy recycling; a finer grid than needed wastes probe shells).
const OCCUPANCY_LO: f64 = 1.2;
/// Bucketed-cell count below which auto-tuning never engages — rebuilds
/// on tiny populations cost more than crowded buckets do.
const AUTO_TUNE_MIN_CELLS: usize = 256;
/// Finest side auto-tuning may reach, as a fraction of the initial side.
const AUTO_TUNE_MAX_REFINE: f64 = 1024.0;

/// Uniform grid over cell seeds with bucket side `side`.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    /// Bucket side length (defaults to the cluster-cell radius `r`).
    side: f64,
    /// The side the grid was built with — the coarsest (and default)
    /// side auto-tuning is allowed to return to.
    initial_side: f64,
    /// Whether occupancy-band auto-tuning may rebuild the grid.
    auto_tune: bool,
    /// Rebuilds performed by auto-tuning (mirrored into
    /// [`crate::EngineStats::grid_rebuilds`]).
    rebuilds: u64,
    /// Bucketed-cell count at the last rebuild; coarsening only engages
    /// after the population halves, so refine → thin-out → coarsen cannot
    /// oscillate on a steady population.
    cells_at_rebuild: usize,
    /// Dimensionality of the bucketed seeds, fixed by the first one seen.
    dim: Option<usize>,
    /// Cells currently filed in coordinate buckets — kept incrementally
    /// so the occupancy probe of the auto-tuner is O(1), not a walk over
    /// every occupied bucket each maintenance cadence.
    n_bucketed: usize,
    /// Occupied buckets only; values are the ids of the seeds inside.
    buckets: FxHashMap<Box<[i64]>, Vec<CellId>>,
    /// Cells whose payload exposes no coordinates (or the wrong
    /// dimensionality) — scanned by every query.
    unbucketed: Vec<CellId>,
    /// Bounding box of occupied bucket keys, grown on insert. Never
    /// shrunk on remove (only a search-termination bound, so a stale,
    /// too-large box is harmless); reset when the grid empties.
    lo: Vec<i64>,
    hi: Vec<i64>,
}

impl UniformGrid {
    /// Creates an empty grid with the given bucket side, auto-tuning off
    /// (the side is pinned; an explicitly configured side is a user
    /// decision the index must respect).
    ///
    /// # Panics
    /// Panics unless `side` is positive and finite — enforced earlier by
    /// config validation ([`crate::ConfigError::NonPositiveGridSide`]).
    pub fn new(side: f64) -> Self {
        assert!(side > 0.0 && side.is_finite(), "grid side must be positive and finite");
        UniformGrid {
            side,
            initial_side: side,
            auto_tune: false,
            rebuilds: 0,
            cells_at_rebuild: 0,
            dim: None,
            n_bucketed: 0,
            buckets: fx_map(),
            unbucketed: Vec::new(),
            lo: Vec::new(),
            hi: Vec::new(),
        }
    }

    /// Creates an empty grid that may refine its side when mean bucket
    /// occupancy leaves the target band (see [`UniformGrid::maintain`]).
    /// Used for the defaulted `side: None` configuration, where the side
    /// is the engine's guess rather than the user's choice.
    pub fn auto_tuned(side: f64) -> Self {
        UniformGrid { auto_tune: true, ..UniformGrid::new(side) }
    }

    /// Bucket side length currently in force.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Number of occupied buckets (diagnostics).
    pub fn occupied_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Bucketed cells per occupied bucket (`0` while empty) — the
    /// quantity auto-tuning keeps inside its target band.
    pub fn mean_occupancy(&self) -> f64 {
        if self.buckets.is_empty() {
            0.0
        } else {
            self.bucketed_len() as f64 / self.buckets.len() as f64
        }
    }

    /// Auto-tuning rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The per-axis distance beyond which a coordinate-bearing structural
    /// change provably cannot alter a `nearest_within(q, radius, ..)`
    /// probe — the same `(reach + 1) · side` geometry `probe_conflicts`
    /// applies per birth, exposed so the batch committer's birth ledger
    /// can test a whole *bounding box* of overflowed births at once.
    pub(crate) fn conflict_horizon(&self, radius: f64) -> f64 {
        let reach = (radius / self.side).ceil().min(i64::MAX as f64);
        (reach + 1.0) * self.side
    }

    /// Whether *any* birth inside the axis-aligned box `[min, max]` could
    /// conflict with a `nearest_within(q, radius, ..)` probe — the
    /// bounding-box generalization of
    /// [`NeighborIndex::probe_conflicts`], used by the batch committer's
    /// birth ledger once it stops tracking births individually. The box
    /// only ever holds coordinate-bearing births of one dimensionality
    /// (`min.len()`); the same coordless / dimension-mismatch escapes as
    /// the per-birth check apply, because a mismatched birth lands in the
    /// unbucketed list every query scans.
    pub(crate) fn bbox_conflicts<P: GridCoords>(
        &self,
        q: &P,
        min: &[f64],
        max: &[f64],
        radius: f64,
    ) -> bool {
        let Some(qc) = q.grid_coords() else {
            return true; // coordinate-less query scans every bucket
        };
        if qc.len() != min.len() || self.dim.is_some_and(|d| d != min.len()) {
            return true; // dimension mismatch: births are unbucketed
        }
        let horizon = self.conflict_horizon(radius);
        // A birth in the box can reach the probe only if, on every axis,
        // the interval `[lo, hi]` comes within the horizon of the query —
        // the per-axis distance to an interval, against the same
        // `(reach + 1)·side` bound `probe_conflicts` uses per birth.
        qc.iter().zip(min.iter().zip(max.iter())).all(|(a, (lo, hi))| {
            let d = if a < lo {
                lo - a
            } else if a > hi {
                a - hi
            } else {
                0.0
            };
            d <= horizon
        })
    }

    /// Cells filed in coordinate buckets (excludes the unbucketed list).
    /// O(1): queried on every maintenance cadence (occupancy probe); the
    /// counter's agreement with the buckets is verified in
    /// `check_coherence`, off the hot path.
    fn bucketed_len(&self) -> usize {
        self.n_bucketed
    }

    /// Total cells the grid holds (bucketed + unbucketed).
    fn indexed_len(&self) -> usize {
        self.bucketed_len() + self.unbucketed.len()
    }

    /// Checks that `id` (with seed coordinates `coords`) is filed exactly
    /// once where this grid's quantization says it belongs.
    fn check_filed(&self, id: CellId, coords: Option<&[f64]>) -> Result<(), String> {
        match self.key_of(coords) {
            Some(key) => {
                let bucket = self.buckets.get(&key).ok_or(format!("{id}: bucket missing"))?;
                if bucket.iter().filter(|&&c| c == id).count() != 1 {
                    return Err(format!("{id} not filed exactly once in its bucket"));
                }
            }
            None => {
                if self.unbucketed.iter().filter(|&&c| c == id).count() != 1 {
                    return Err(format!("{id} not filed exactly once in the unbucketed list"));
                }
            }
        }
        Ok(())
    }

    /// Occupancy-band auto-tuning (the ROADMAP "bucket side auto-tuning"
    /// item): when the mean occupancy of occupied buckets leaves the
    /// `[OCCUPANCY_LO, OCCUPANCY_HI]` band, pick a better side and rebuild
    /// the grid from `slab` in O(cells held). Crowded buckets (high-d
    /// streams pack many r-separated seeds per r-cube) halve the side;
    /// a refined grid whose population has since halved coarsens back
    /// toward the initial side. Returns rebuilds performed (0 or 1).
    ///
    /// Correctness never depends on the side — every query derives its
    /// reach from the side in force — so tuning is pure access-path
    /// optimization, invisible to clustering output.
    pub fn maintain<P: GridCoords>(&mut self, slab: &CellSlab<P>) -> u64 {
        if !self.auto_tune || self.buckets.is_empty() {
            return 0;
        }
        let n = self.bucketed_len();
        if n < AUTO_TUNE_MIN_CELLS {
            return 0;
        }
        let occupancy = n as f64 / self.buckets.len() as f64;
        let new_side = if occupancy > OCCUPANCY_HI {
            let floor = self.initial_side / AUTO_TUNE_MAX_REFINE;
            (self.side * 0.5).max(floor)
        } else if occupancy < OCCUPANCY_LO
            && self.side < self.initial_side
            && n < self.cells_at_rebuild / 2
        {
            (self.side * 2.0).min(self.initial_side)
        } else {
            return 0;
        };
        if new_side == self.side {
            return 0;
        }
        self.side = new_side;
        self.rebuild(slab);
        self.cells_at_rebuild = self.bucketed_len();
        self.rebuilds += 1;
        1
    }

    /// Re-files every cell this grid holds under the current side, in one
    /// O(cells held) pass.
    fn rebuild<P: GridCoords>(&mut self, slab: &CellSlab<P>) {
        let ids: Vec<CellId> = self.buckets.drain().flat_map(|(_, ids)| ids).collect();
        self.n_bucketed = 0;
        self.lo.clear();
        self.hi.clear();
        for id in ids {
            self.file(id, slab.get(id).seed.grid_coords());
        }
    }

    /// Files a cell under the current side (shared by insert + rebuild).
    fn file(&mut self, id: CellId, coords: Option<&[f64]>) {
        if self.dim.is_none() {
            self.dim = coords.map(|c| c.len());
        }
        match self.key_of(coords) {
            Some(key) => {
                if self.buckets.is_empty() {
                    self.lo = key.to_vec();
                    self.hi = key.to_vec();
                } else {
                    for ((l, h), &k) in self.lo.iter_mut().zip(self.hi.iter_mut()).zip(key.iter()) {
                        *l = (*l).min(k);
                        *h = (*h).max(k);
                    }
                }
                self.buckets.entry(key).or_default().push(id);
                self.n_bucketed += 1;
            }
            None => self.unbucketed.push(id),
        }
    }

    /// Quantizes coordinates into a bucket key.
    fn key(&self, coords: &[f64]) -> Box<[i64]> {
        coords.iter().map(|&x| (x / self.side).floor() as i64).collect()
    }

    /// The bucket key of a seed, or `None` when it must stay unbucketed.
    fn key_of(&self, coords: Option<&[f64]>) -> Option<Box<[i64]>> {
        let c = coords?;
        match self.dim {
            Some(d) if d != c.len() => None,
            _ => Some(self.key(c)),
        }
    }

    /// Quantizes into a reusable buffer (the query paths' allocation-free
    /// variant of [`UniformGrid::key_of`]); `false` means the coordinates
    /// have no bucket (missing or dimension-mismatched) and the caller
    /// must treat the query as coordinate-less.
    fn key_of_into(&self, coords: Option<&[f64]>, out: &mut Vec<i64>) -> bool {
        let Some(c) = coords else { return false };
        if matches!(self.dim, Some(d) if d != c.len()) {
            return false;
        }
        out.clear();
        out.extend(c.iter().map(|&x| (x / self.side).floor() as i64));
        true
    }

    /// Cost of enumerating the full cube of reach `k` around a key —
    /// compared against the occupied-bucket count to decide between
    /// shell enumeration and an occupied-bucket sweep.
    fn cube_cost(&self, reach: i64) -> f64 {
        let d = self.dim.map_or(0, |d| d as i32);
        ((2 * reach + 1) as f64).powi(d)
    }

    /// Chebyshev distance between two bucket keys.
    fn key_chebyshev(a: &[i64], b: &[i64]) -> i64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.saturating_sub(*y).saturating_abs())
            .max()
            .unwrap_or(0)
    }

    /// Largest Chebyshev distance from `center` to any occupied bucket
    /// (via the bounding box) — the search horizon for expanding shells.
    fn max_reach(&self, center: &[i64]) -> i64 {
        center
            .iter()
            .zip(self.lo.iter().zip(self.hi.iter()))
            .map(|(&c, (&lo, &hi))| (c.saturating_sub(lo)).max(hi.saturating_sub(c)).max(0))
            .max()
            .unwrap_or(0)
    }

    /// Calls `f` with every bucket key in the cube of Chebyshev reach `k`
    /// around `center` whose Chebyshev distance is **exactly** `k` when
    /// `shell_only`, or at most `k` otherwise. `off` and `key` are caller
    /// scratch (the per-thread [`KeyScratch`]) so shell walks allocate
    /// nothing.
    fn for_each_key(
        center: &[i64],
        k: i64,
        shell_only: bool,
        off: &mut Vec<i64>,
        key: &mut Vec<i64>,
        f: &mut dyn FnMut(&[i64]),
    ) {
        let d = center.len();
        off.clear();
        off.resize(d, -k);
        key.clear();
        key.resize(d, 0);
        loop {
            if !shell_only || off.iter().any(|&o| o.abs() == k) {
                for i in 0..d {
                    key[i] = center[i].saturating_add(off[i]);
                }
                f(key);
            }
            let mut axis = 0;
            loop {
                if axis == d {
                    return;
                }
                off[axis] += 1;
                if off[axis] > k {
                    off[axis] = -k;
                    axis += 1;
                } else {
                    break;
                }
            }
        }
    }
}

impl<P: GridCoords> NeighborIndex<P> for UniformGrid {
    fn on_insert<M: Metric<P>>(&mut self, id: CellId, seed: &P, _slab: &CellSlab<P>, _metric: &M) {
        self.file(id, seed.grid_coords());
    }

    fn on_remove<M: Metric<P>>(&mut self, id: CellId, seed: &P, _slab: &CellSlab<P>, _metric: &M) {
        if let Some(key) = self.key_of(seed.grid_coords()) {
            let bucket = self.buckets.get_mut(&key).expect("removing cell from unknown bucket");
            let pos = bucket.iter().position(|&c| c == id).expect("cell missing from its bucket");
            bucket.swap_remove(pos);
            self.n_bucketed -= 1;
            if bucket.is_empty() {
                self.buckets.remove(&key);
            }
        } else {
            let pos = self
                .unbucketed
                .iter()
                .position(|&c| c == id)
                .expect("cell missing from unbucketed list");
            self.unbucketed.swap_remove(pos);
        }
    }

    fn nearest_within<M: Metric<P>>(
        &self,
        q: &P,
        radius: f64,
        slab: &CellSlab<P>,
        metric: &M,
        on_probe: &mut dyn FnMut(CellId, f64),
    ) -> Option<(CellId, f64)> {
        let mut best: Option<(CellId, f64)> = None;
        KEY_SCRATCH.with(|scratch| {
            let KeyScratch { center, off, key } = &mut *scratch.borrow_mut();
            let consider = |id: CellId,
                            best: &mut Option<(CellId, f64)>,
                            probe: &mut dyn FnMut(CellId, f64)| {
                let d = metric.dist(q, &slab.get(id).seed);
                probe(id, d);
                if closer(d, id, *best) {
                    *best = Some((id, d));
                }
            };
            for &id in &self.unbucketed {
                consider(id, &mut best, on_probe);
            }
            if self.key_of_into(q.grid_coords(), center) {
                if !self.buckets.is_empty() {
                    // Shells k with (k − 1)·side >= radius cannot hold a
                    // seed within radius, so reach = ceil(radius / side).
                    let reach = (radius / self.side).ceil().min(i64::MAX as f64) as i64;
                    if self.cube_cost(reach) > self.buckets.len() as f64 {
                        // Enumerating 3^d candidate keys would cost more
                        // than sweeping the occupied buckets (high d);
                        // sweep them, but keep the geometric pruning: a
                        // bucket at key-Chebyshev distance > reach cannot
                        // hold a seed within the radius, so only its
                        // in-reach peers get their distances computed —
                        // one batched kernel call per surviving bucket.
                        // The batch buffers are per-sweep allocations, but
                        // this branch only runs when the sweep dominates
                        // (hundreds of metric evaluations amortize them);
                        // the shell path below stays allocation-free.
                        let mut seeds: Vec<&P> = Vec::new();
                        let mut dists: Vec<f64> = Vec::new();
                        for (bkey, ids) in &self.buckets {
                            if Self::key_chebyshev(bkey, center) <= reach {
                                seeds.clear();
                                seeds.extend(ids.iter().map(|&id| &slab.get(id).seed));
                                metric.dist_batch(q, &seeds, &mut dists);
                                for (&id, &d) in ids.iter().zip(dists.iter()) {
                                    on_probe(id, d);
                                    if closer(d, id, best) {
                                        best = Some((id, d));
                                    }
                                }
                            }
                        }
                    } else {
                        Self::for_each_key(center, reach, false, off, key, &mut |bkey| {
                            if let Some(ids) = self.buckets.get(bkey) {
                                ids.iter().for_each(|&id| consider(id, &mut best, on_probe));
                            }
                        });
                    }
                }
            } else {
                // Coordinate-less query: no geometry to prune with.
                for ids in self.buckets.values() {
                    ids.iter().for_each(|&id| consider(id, &mut best, on_probe));
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
        let mut best: Option<(CellId, f64)> = None;
        KEY_SCRATCH.with(|scratch| {
            let KeyScratch { center, off, key } = &mut *scratch.borrow_mut();
            let mut consider = |id: CellId, best: &mut Option<(CellId, f64)>| {
                let cell = slab.get(id);
                if !pred(id, cell) {
                    return;
                }
                // Bounded kernel: a candidate can only displace the best
                // when its distance is at most the best distance, so the
                // metric may bail out past that bound — the early-exit
                // value is > best (and ≥ nothing else reads it), which
                // loses the `closer` comparison exactly like the true
                // distance would, ties included (exact-within-bound
                // covers the d == best case).
                let bound = best.map_or(f64::INFINITY, |(_, bd)| bd);
                let d = metric.dist_upper_bounded(q, &cell.seed, bound);
                if closer(d, id, *best) {
                    *best = Some((id, d));
                }
            };
            for &id in &self.unbucketed {
                consider(id, &mut best);
            }
            if !self.key_of_into(q.grid_coords(), center) || self.buckets.is_empty() {
                for ids in self.buckets.values() {
                    ids.iter().for_each(|&id| consider(id, &mut best));
                }
                return;
            }
            let max_reach = self.max_reach(center);
            let mut k: i64 = 0;
            while k <= max_reach {
                if self.cube_cost(k) > self.buckets.len() as f64 {
                    // Enumerating shells is now costlier than sweeping every
                    // occupied bucket not yet visited (Chebyshev >= k). A
                    // bucket's seeds all lie strictly farther than
                    // (cheb − 1)·side, so buckets whose bound already meets
                    // the best distance cannot win or tie and are skipped.
                    for (bkey, ids) in &self.buckets {
                        let cheb = Self::key_chebyshev(bkey, center);
                        let beatable =
                            best.is_none_or(|(_, bd)| ((cheb - 1).max(0) as f64) * self.side < bd);
                        if cheb >= k && beatable {
                            ids.iter().for_each(|&id| consider(id, &mut best));
                        }
                    }
                    return;
                }
                Self::for_each_key(center, k, true, off, key, &mut |bkey| {
                    if let Some(ids) = self.buckets.get(bkey) {
                        ids.iter().for_each(|&id| consider(id, &mut best));
                    }
                });
                // Every seed in shells > k lies strictly farther than k·side,
                // so a best at or under that bound can no longer be beaten
                // (nor tied — strictness protects the id tie-break).
                if let Some((_, bd)) = best {
                    if k as f64 * self.side >= bd {
                        break;
                    }
                }
                k += 1;
            }
        });
        best
    }

    fn distance_lower_bound(&self, q: &P, seed: &P) -> f64 {
        // Chebyshev distance: sound for any metric dominating per-axis
        // coordinate differences (the GridCoords contract), and tighter
        // than what bucket keys alone could prove.
        chebyshev_lower_bound(q, seed)
    }

    fn lower_bound_prunes(&self, q: &P, seed: &P, p_dist: f64, delta: f64) -> bool {
        chebyshev_prunes(q, seed, p_dist, delta)
    }

    fn probe_conflicts<M: Metric<P>>(
        &self,
        q: &P,
        _changed: CellId,
        changed: &P,
        radius: f64,
        _slab: &CellSlab<P>,
        _metric: &M,
    ) -> bool {
        let (Some(qc), Some(cc)) = (q.grid_coords(), changed.grid_coords()) else {
            // No geometry to prove anything with: a coordinate-less cell
            // lands in the unbucketed list every query scans, and a
            // coordinate-less query scans every bucket.
            return true;
        };
        // A dimension-mismatched seed is unbucketed (scanned by every
        // query); a dimension-mismatched query scans every bucket.
        if qc.len() != cc.len() || self.dim.is_some_and(|d| d != cc.len()) {
            return true;
        }
        // The probed set of `nearest_within` is exactly the unbucketed
        // list plus the buckets within key-Chebyshev `reach` of the
        // query's bucket (both enumeration strategies visit that same
        // set). Keys are floors, so a seed farther than (reach + 1)·side
        // on some axis is strictly beyond reach and can neither enter nor
        // leave the set.
        let horizon = self.conflict_horizon(radius);
        qc.iter().zip(cc.iter()).all(|(a, b)| (a - b).abs() <= horizon)
    }

    fn check_coherence<M: Metric<P>>(&self, slab: &CellSlab<P>, _metric: &M) -> Result<(), String> {
        let counted = self.buckets.values().map(Vec::len).sum::<usize>();
        if counted != self.n_bucketed {
            return Err(format!(
                "occupancy counter says {} cells, buckets hold {counted}",
                self.n_bucketed
            ));
        }
        let indexed = self.indexed_len();
        if indexed != slab.len() {
            return Err(format!("index holds {indexed} cells, slab holds {}", slab.len()));
        }
        for (id, cell) in slab.iter() {
            self.check_filed(id, cell.seed.grid_coords())?;
        }
        // Counts match and every live cell is filed once where it belongs,
        // so no dead id can be hiding anywhere.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_common::metric::Euclidean;
    use edm_common::point::DenseVector;

    fn v(x: f64, y: f64) -> DenseVector {
        DenseVector::from([x, y])
    }

    fn populated() -> (UniformGrid, CellSlab<DenseVector>, Vec<CellId>) {
        let mut grid = UniformGrid::new(1.0);
        let mut slab = CellSlab::new();
        let seeds = [v(0.1, 0.1), v(0.9, 0.2), v(5.5, 5.5), v(-3.2, 4.0)];
        let mut ids = Vec::new();
        for s in seeds {
            let id = slab.insert(Cell::new(s, 0.0));
            grid.on_insert(id, &slab.get(id).seed, &slab, &Euclidean);
            ids.push(id);
        }
        (grid, slab, ids)
    }

    #[test]
    fn nearest_within_finds_only_close_cells() {
        let (grid, slab, ids) = populated();
        let hit = grid.nearest_within(&v(0.2, 0.2), 1.0, &slab, &Euclidean, &mut |_, _| {});
        assert_eq!(hit.map(|(id, _)| id), Some(ids[0]));
        assert_eq!(
            grid.nearest_within(&v(50.0, 50.0), 1.0, &slab, &Euclidean, &mut |_, _| {}),
            None
        );
    }

    #[test]
    fn nearest_within_prunes_far_buckets() {
        // Enough occupied buckets that probing the 3x3 shell beats the
        // full sweep (the cost heuristic needs > 9 buckets to engage).
        let mut grid = UniformGrid::new(1.0);
        let mut slab = CellSlab::new();
        for i in 0..25 {
            let id = slab.insert(Cell::new(v((i % 5) as f64 * 3.0, (i / 5) as f64 * 3.0), 0.0));
            grid.on_insert(id, &slab.get(id).seed, &slab, &Euclidean);
        }
        let mut probed = 0;
        let hit =
            grid.nearest_within(&v(0.2, 0.2), 1.0, &slab, &Euclidean, &mut |_, _| probed += 1);
        assert!(hit.is_some());
        assert!(probed < slab.len(), "probed {probed} of {}", slab.len());
    }

    #[test]
    fn nearest_matching_expands_until_it_proves_optimality() {
        let (grid, slab, ids) = populated();
        // Nearest to the far corner, excluding the corner cell itself.
        let skip = ids[2];
        let hit = grid.nearest_matching(&v(5.6, 5.6), &slab, &Euclidean, &mut |id, _| id != skip);
        let brute = slab
            .iter()
            .filter(|&(id, _)| id != skip)
            .map(|(id, c)| (id, c.seed.dist(&v(5.6, 5.6))))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .map(|(id, _)| id);
        assert_eq!(hit.map(|(id, _)| id), brute);
    }

    #[test]
    fn remove_keeps_the_grid_coherent() {
        let (mut grid, mut slab, ids) = populated();
        assert!(grid.check_coherence(&slab, &Euclidean).is_ok());
        let cell = slab.remove(ids[1]);
        grid.on_remove(ids[1], &cell.seed, &slab, &Euclidean);
        assert!(grid.check_coherence(&slab, &Euclidean).is_ok());
        let hit = grid.nearest_within(&v(0.9, 0.2), 0.5, &slab, &Euclidean, &mut |_, _| {});
        assert_ne!(hit.map(|(id, _)| id), Some(ids[1]));
    }

    #[test]
    fn lower_bound_is_chebyshev() {
        let grid = UniformGrid::new(1.0);
        let lb =
            NeighborIndex::<DenseVector>::distance_lower_bound(&grid, &v(0.0, 0.0), &v(3.0, -1.5));
        assert_eq!(lb, 3.0);
        assert!(lb <= v(0.0, 0.0).dist(&v(3.0, -1.5)));
    }

    #[test]
    fn coordinate_less_payloads_fall_back_to_scanning() {
        use edm_common::metric::Jaccard;
        use edm_common::point::TokenSet;
        let mut grid = UniformGrid::new(1.0);
        let mut slab = CellSlab::new();
        let a = slab.insert(Cell::new(TokenSet::new(vec![1, 2, 3]), 0.0));
        let b = slab.insert(Cell::new(TokenSet::new(vec![7, 8]), 0.0));
        grid.on_insert(a, &slab.get(a).seed, &slab, &Jaccard);
        grid.on_insert(b, &slab.get(b).seed, &slab, &Jaccard);
        assert!(grid.check_coherence(&slab, &Jaccard).is_ok());
        let q = TokenSet::new(vec![1, 2, 4]);
        let hit = grid.nearest_within(&q, 0.9, &slab, &Jaccard, &mut |_, _| {});
        assert_eq!(hit.map(|(id, _)| id), Some(a));
        let cell = slab.remove(b);
        grid.on_remove(b, &cell.seed, &slab, &Jaccard);
        assert!(grid.check_coherence(&slab, &Jaccard).is_ok());
    }

    /// Crowds one r-cube with hundreds of pairwise-far seeds (possible in
    /// high dimensions: coordinates in {0, 0.9}^8 with even weight are
    /// pairwise ≥ 0.9·√2 apart yet share the side-1 bucket at the origin).
    fn crowded_8d_slab(n: usize) -> (CellSlab<DenseVector>, Vec<CellId>) {
        let mut slab = CellSlab::new();
        let mut ids = Vec::new();
        let mut w = 0u16;
        while ids.len() < n {
            w += 1;
            if !w.count_ones().is_multiple_of(2) || w >= 1 << 8 {
                continue;
            }
            let coords: Vec<f64> =
                (0..8).map(|b| if w >> b & 1 == 1 { 0.9 } else { 0.0 }).collect();
            ids.push(slab.insert(Cell::new(DenseVector::new(coords), 0.0)));
        }
        (slab, ids)
    }

    #[test]
    fn auto_tuning_refines_crowded_buckets_and_stays_coherent() {
        let mut grid = UniformGrid::auto_tuned(1.0);
        let (mut slab, ids) = crowded_8d_slab(120);
        // Clone the crowd at a far offset so the population clears the
        // minimum-cells bar while every bucket stays overfull.
        let far: Vec<CellId> = (0..4)
            .flat_map(|k| {
                ids.iter()
                    .map(|&id| {
                        let mut coords = slab.get(id).seed.coords().to_vec();
                        coords[0] += 50.0 * (k + 1) as f64;
                        slab.insert(Cell::new(DenseVector::new(coords), 0.0))
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        for &id in ids.iter().chain(far.iter()) {
            grid.on_insert(id, &slab.get(id).seed, &slab, &Euclidean);
        }
        assert!(grid.mean_occupancy() > OCCUPANCY_HI);
        let before = grid.side();
        assert_eq!(grid.maintain(&slab), 1, "crowded grid must rebuild");
        assert!(grid.side() < before);
        assert_eq!(grid.rebuilds(), 1);
        assert!(grid.check_coherence(&slab, &Euclidean).is_ok());
        // Queries stay exact across the retune.
        let q = DenseVector::new(vec![0.05; 8]);
        let hit = grid.nearest_matching(&q, &slab, &Euclidean, &mut |_, _| true);
        let brute = slab
            .iter()
            .map(|(id, c)| (id, c.seed.dist(&q)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .map(|(id, _)| id);
        assert_eq!(hit.map(|(id, _)| id), brute);
        // A pinned side never tunes, however crowded.
        let mut pinned = UniformGrid::new(1.0);
        for &id in ids.iter().chain(far.iter()) {
            pinned.on_insert(id, &slab.get(id).seed, &slab, &Euclidean);
        }
        assert_eq!(pinned.maintain(&slab), 0);
        assert_eq!(pinned.side(), 1.0);
        // Coarsening re-engages only once the population halves (600 cells
        // at the refine; 280 survivors clear the minimum-cells bar while
        // sitting under half), and the band settles without oscillating.
        let all: Vec<CellId> = slab.iter().map(|(id, _)| id).collect();
        for &id in all.iter().skip(280) {
            let cell = slab.remove(id);
            grid.on_remove(id, &cell.seed, &slab, &Euclidean);
        }
        let mut rounds = 0;
        while grid.maintain(&slab) == 1 {
            rounds += 1;
            assert!(rounds < 32, "auto-tuning must settle, not oscillate");
        }
        assert!(grid.rebuilds() > 1, "the shrunken population must coarsen at least once");
        assert!(grid.check_coherence(&slab, &Euclidean).is_ok());
    }

    #[test]
    fn ties_break_toward_the_lower_id_across_buckets() {
        let mut grid = UniformGrid::new(1.0);
        let mut slab = CellSlab::new();
        // Equidistant seeds in different buckets around the query.
        let a = slab.insert(Cell::new(v(-1.0, 0.0), 0.0));
        let b = slab.insert(Cell::new(v(1.0, 0.0), 0.0));
        grid.on_insert(a, &slab.get(a).seed, &slab, &Euclidean);
        grid.on_insert(b, &slab.get(b).seed, &slab, &Euclidean);
        let hit = grid.nearest_within(&v(0.0, 0.0), 2.0, &slab, &Euclidean, &mut |_, _| {});
        assert_eq!(hit.map(|(id, _)| id), Some(a));
        let m = grid.nearest_matching(&v(0.0, 0.0), &slab, &Euclidean, &mut |_, _| true);
        assert_eq!(m.map(|(id, _)| id), Some(a));
        assert!(b > a);
    }
}
