//! Ingest layer: point assignment and new-cell admission (paper §4.1).
//!
//! The only layer that *creates* cells. Every entry point funnels into
//! [`EdmStream::process`]: resolve the assignment query through the
//! neighbor index, absorb or admit, then hand density-order consequences
//! to the maintenance layer and fire the cadenced sweeps. The
//! initialization batch pass (§4.1 "Initialization") lives here too — it
//! is admission in bulk.

use edm_common::metric::Metric;
use edm_common::point::GridCoords;
use edm_common::time::Timestamp;

use crate::cell::{Cell, CellId};
use crate::error::EdmError;
use crate::index::{CellIndex, NeighborIndex};
use crate::tree;

use super::order::DensityOrder;
use super::parallel::ProbeSlot;
use super::{suggest_tau_from_deltas, EdmStream, Phase};

/// Points handed to one parallel probe-then-commit round. Bounding the
/// round keeps phase-1 results fresh: probes run against the state at the
/// round's start, so the longer the round, the more commits can invalidate
/// the tail (each invalidation re-probes serially — correct, just wasted
/// work).
const PARALLEL_CHUNK: usize = 1024;

/// Cell births tracked individually per round. Past that churn, per-birth
/// checks would cost more than the probes they might save, so the next
/// birth saturates the birth ledger, which then claims every remaining
/// probe of the round.
pub(super) const MAX_BIRTH_TRACKING: usize = 32;

/// Cell births of the current commit round — the structure behind the
/// commit loop's "is this cached probe still valid?" question.
///
/// The first [`MAX_BIRTH_TRACKING`] births are tracked by seed and
/// checked through [`NeighborIndex::probe_conflicts`]; a further birth
/// saturates the ledger, and every later probe in the round is redone.
/// Both answers are conservative, so the ledger only ever decides *who
/// re-probes*, never what the engine outputs. Lives on the engine so the
/// tracked list is reused across rounds.
#[derive(Debug, Clone)]
pub(super) struct BirthLedger<P> {
    tracked: Vec<P>,
    saturated: bool,
}

// Manual impl: `derive(Default)` would demand `P: Default`, which the
// payload never needs to satisfy — the empty ledger holds no payloads.
impl<P> Default for BirthLedger<P> {
    fn default() -> Self {
        BirthLedger { tracked: Vec::new(), saturated: false }
    }
}

impl<P: Clone + GridCoords> BirthLedger<P> {
    /// Clears the ledger for a new round.
    fn reset(&mut self) {
        self.tracked.clear();
        self.saturated = false;
    }

    /// Whether any birth has been recorded this round.
    fn any_births(&self) -> bool {
        !self.tracked.is_empty()
    }

    /// Records the seed of a cell born this round.
    fn record(&mut self, seed: &P) {
        if self.tracked.len() < MAX_BIRTH_TRACKING {
            self.tracked.push(seed.clone());
        } else {
            self.saturated = true;
        }
    }

    /// Whether any recorded birth could have changed the answer (or the
    /// probed set) of this point's phase-1 probe.
    fn conflicts(&self, index: &CellIndex, p: &P, radius: f64) -> bool {
        self.saturated || self.tracked.iter().any(|b| index.probe_conflicts(p, b, radius))
    }
}

/// Per-point distance cache over slab slots with O(1) reset.
///
/// The assignment scan records every |p, s_c| it actually computes; the
/// Theorem 2 triangle filter then reads them back for free. Entries are
/// validated by an epoch stamp instead of clearing the table each point —
/// a grid-indexed scan probes only a handful of cells, and wiping the
/// whole table would itself be the linear cost the index removes.
#[derive(Debug, Clone, Default)]
pub(super) struct ScratchDistances {
    dist: Vec<f64>,
    stamp: Vec<u64>,
    epoch: u64,
}

impl ScratchDistances {
    /// Starts a new point's scan: grows to `slots` and invalidates every
    /// previous entry by bumping the epoch.
    fn begin(&mut self, slots: usize) {
        self.dist.resize(slots, f64::INFINITY);
        self.stamp.resize(slots, 0);
        self.epoch += 1;
    }

    /// Records the exact distance for a slot.
    #[inline]
    fn set(&mut self, slot: usize, d: f64) {
        self.dist[slot] = d;
        self.stamp[slot] = self.epoch;
    }

    /// The exact distance for a slot, if this point's scan computed it.
    #[inline]
    pub(super) fn get(&self, slot: usize) -> Option<f64> {
        (self.stamp.get(slot) == Some(&self.epoch)).then(|| self.dist[slot])
    }
}

/// The admission rule of the checked entry points, with the state it
/// checks against: the stream clock and the stream's coordinate count.
///
/// A point is admitted when its timestamp is finite and not behind the
/// clock (within a 1e-9 s tolerance) and, if it has coordinates, they are
/// finite and as many as the stream's (set by the first point admitted).
/// [`EdmStream::try_insert`] and [`EdmStream::try_insert_batch`] check
/// against the engine's own clock and coordinate count; a front end that
/// queues points for an engine starts a gate from the engine's
/// [`EdmStream::stream_time`] and [`EdmStream::dimension`] and admits
/// every point it queues through it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointGate {
    now: Timestamp,
    dim: Option<usize>,
}

impl PointGate {
    /// A gate at stream time `now` expecting `dim` coordinates per point;
    /// `None` takes the count from the first point admitted.
    pub fn new(now: Timestamp, dim: Option<usize>) -> Self {
        PointGate { now, dim }
    }

    /// Admits `(p, t)`: checks it and, when it passes, moves the clock up
    /// to `t` and takes the point's coordinate count if the gate had none.
    ///
    /// # Errors
    /// [`EdmError::NonFiniteTime`] for a NaN or ±∞ `t`,
    /// [`EdmError::TimeRegression`] for a `t` behind the clock,
    /// [`EdmError::DimensionMismatch`] for a point of another coordinate
    /// count and [`EdmError::NonFiniteCoordinate`] for a NaN or ±∞
    /// coordinate, checked in that order. A refused point leaves the gate
    /// as it was.
    pub fn admit<P: GridCoords>(&mut self, p: &P, t: Timestamp) -> Result<(), EdmError> {
        if !t.is_finite() {
            return Err(EdmError::NonFiniteTime { t });
        }
        if t < self.now - 1e-9 {
            return Err(EdmError::TimeRegression { now: self.now, t });
        }
        if let Some(coords) = p.grid_coords() {
            if let Some(expected) = self.dim.filter(|&d| d != coords.len()) {
                return Err(EdmError::DimensionMismatch { expected, got: coords.len() });
            }
            if let Some(axis) = coords.iter().position(|x| !x.is_finite()) {
                return Err(EdmError::NonFiniteCoordinate { axis });
            }
            self.dim = Some(coords.len());
        }
        self.now = self.now.max(t);
        Ok(())
    }
}

impl<P: Clone + GridCoords + Send + Sync, M: Metric<P>> EdmStream<P, M> {
    /// Feeds one stream point — the infallible hot path. A point the
    /// checked entry points would refuse (a bad timestamp, a coordinate
    /// count other than the stream's, a non-finite coordinate) is a debug
    /// assertion here; ingest from untrusted transports through
    /// [`EdmStream::try_insert`] instead.
    pub fn insert(&mut self, p: &P, t: Timestamp) {
        debug_assert_eq!(self.gate().admit(p, t), Ok(()), "point refused by the admission gate");
        if self.start.is_none() {
            self.start = Some(t);
            self.dim = p.grid_coords().map(<[f64]>::len);
        }
        self.now = self.now.max(t);
        self.stats.points += 1;
        match &mut self.phase {
            Phase::Caching(buf) => {
                buf.push((p.clone(), t));
                if buf.len() >= self.cfg.init_points {
                    self.initialize();
                }
            }
            Phase::Running => self.process(p, t),
        }
    }

    /// Feeds one stream point, refusing what [`PointGate::admit`]
    /// refuses instead of asserting: a NaN or infinite timestamp
    /// ([`EdmError::NonFiniteTime`]), one behind the stream clock
    /// ([`EdmError::TimeRegression`]), a coordinate count other than the
    /// stream's ([`EdmError::DimensionMismatch`]) and a NaN or infinite
    /// coordinate ([`EdmError::NonFiniteCoordinate`]).
    pub fn try_insert(&mut self, p: &P, t: Timestamp) -> Result<(), EdmError> {
        self.gate().admit(p, t)?;
        self.insert(p, t);
        Ok(())
    }

    /// The admission gate at the engine's current clock and coordinate
    /// count.
    fn gate(&self) -> PointGate {
        PointGate::new(self.now, self.dim)
    }

    /// Feeds a batch of stream points in order. Observationally equivalent
    /// to inserting each point individually — batching exists so callers
    /// (and the [`edm_data::clusterer::StreamClusterer`] harness) drive
    /// one uniform interface; per-point maintenance cadences still fire at
    /// the same points.
    ///
    /// With [`crate::EdmConfigBuilder::ingest_threads`] above 1 the batch
    /// runs the two-phase probe-then-commit pipeline: assignment probes
    /// fan out across the engine's persistent worker pool against
    /// read-only state, then commits apply serially in timestamp order,
    /// re-probing any point an earlier commit's structural change could
    /// have affected (see the `engine/parallel.rs` module docs and the
    /// README's "Threading model"). Output is identical either way — the
    /// default of 1 thread *is* the plain serial loop.
    pub fn insert_batch(&mut self, batch: &[(P, Timestamp)]) {
        if self.cfg.ingest_threads <= 1 {
            for (p, t) in batch {
                self.insert(p, *t);
            }
            return;
        }
        let mut rest = batch;
        // The initialization buffer fills serially: initialization is
        // already a batch pass of its own, and its cells are born at
        // unpredictable points — not worth probing ahead of. So does
        // everything up to the stream's first cell, which picks the index
        // the probes read.
        while let Some(((p, t), tail)) = rest.split_first() {
            if self.index_picked {
                break;
            }
            self.insert(p, *t);
            rest = tail;
        }
        while !rest.is_empty() {
            // A round this small cannot amortize even a pool wake-up.
            if rest.len() < 2 {
                for (p, t) in rest {
                    self.insert(p, *t);
                }
                return;
            }
            let take = rest.len().min(PARALLEL_CHUNK);
            let (round, tail) = rest.split_at(take);
            self.probe_then_commit(round);
            rest = tail;
        }
    }

    /// Batch variant of [`EdmStream::try_insert`]: stops at the first
    /// point it refuses, reporting its index alongside the error; points
    /// before it are already ingested.
    pub fn try_insert_batch(&mut self, batch: &[(P, Timestamp)]) -> Result<(), (usize, EdmError)> {
        if self.cfg.ingest_threads <= 1 {
            for (i, (p, t)) in batch.iter().enumerate() {
                self.try_insert(p, *t).map_err(|e| (i, e))?;
            }
            return Ok(());
        }
        // Find the first offender upfront so the parallel path only ever
        // sees a clean prefix; like the serial loop, everything before the
        // offender is ingested.
        let mut gate = self.gate();
        for (i, (p, t)) in batch.iter().enumerate() {
            if let Err(e) = gate.admit(p, *t) {
                self.insert_batch(&batch[..i]);
                return Err((i, e));
            }
        }
        self.insert_batch(batch);
        Ok(())
    }

    // ----- parallel probe-then-commit (see `parallel.rs`) -----

    /// One bounded round of the two-phase pipeline: fan the round's
    /// assignment probes out across the worker pool (phase 1, read-only),
    /// then commit serially in timestamp order (phase 2), revalidating
    /// every probe whose answer an earlier commit could have changed — so
    /// output is identical to the serial loop.
    fn probe_then_commit(&mut self, round: &[(P, Timestamp)]) {
        let radius = self.cfg.r;
        let mut pool = std::mem::take(&mut self.probe_pool);
        let slots = pool.run(
            &mut self.workers,
            self.cfg.ingest_threads,
            round,
            &self.index,
            &self.slab,
            &self.metric,
            radius,
        );
        self.stats.probe_tasks += round.len() as u64;
        self.stats.parallel_batches += 1;

        // Commit phase. A cached probe stays valid while the structures it
        // read are untouched *near the point*: cell births go into the
        // birth ledger, where only the grid's per-birth horizon can clear
        // a probe; recycling and cover-tree radius re-tightening (counted
        // in `grid_rebuilds`; both only possible inside the maintenance
        // cadence) invalidate every remaining probe — they remove cells or
        // tighten search bounds, which birth tracking cannot describe.
        let mut ledger = std::mem::take(&mut self.ledger);
        ledger.reset();
        let mut invalidate_all = false;
        let recycled_before = self.stats.recycled;
        let rebuilds_before = self.stats.grid_rebuilds;
        for ((p, t), slot) in round.iter().zip(slots.iter()) {
            debug_assert_eq!(
                self.gate().admit(p, *t),
                Ok(()),
                "point refused by the admission gate"
            );
            self.now = self.now.max(*t);
            self.stats.points += 1;
            let stale = invalidate_all || ledger.conflicts(&self.index, p, radius);
            let nearest = if stale {
                self.stats.probe_revalidations += 1;
                self.scan_distances(p)
            } else {
                if ledger.any_births() {
                    // A birth happened but the grid's horizon cleared
                    // this probe.
                    self.stats.probe_revalidations_avoided += 1;
                }
                self.replay_probe(slot)
            };
            if let Some(born) = self.process_resolved(p, *t, nearest) {
                ledger.record(&self.slab.get(born).seed);
            }
            if self.stats.recycled != recycled_before || self.stats.grid_rebuilds != rebuilds_before
            {
                invalidate_all = true;
            }
        }
        self.ledger = ledger;
        self.probe_pool = pool;
        self.stats.pool_rounds = self.workers.rounds();
    }

    /// Replays a still-valid cached probe: stamps its recorded distances
    /// into the scratch table and accounts the counters exactly as the
    /// serial scan at this instant would have (the probed set is identical
    /// by the validity argument; the pruned count uses the *current* slab
    /// population, which is what the serial scan would see).
    fn replay_probe(&mut self, slot: &ProbeSlot) -> Option<(CellId, f64)> {
        self.scratch.begin(self.slab.capacity_slots());
        for &(id, d) in &slot.probes {
            self.scratch.set(id.0 as usize, d);
        }
        self.stats.index_probed += slot.probes.len() as u64;
        self.stats.index_pruned += self.slab.len() as u64 - slot.probes.len() as u64;
        slot.best
    }

    /// Forces initialization with whatever is buffered (no-op when already
    /// running). Needed for streams shorter than `init_points` and before
    /// early queries.
    pub fn force_init(&mut self) {
        if matches!(self.phase, Phase::Caching(_)) {
            self.initialize();
        }
    }

    /// True once the initialization step has run.
    pub fn is_initialized(&self) -> bool {
        matches!(self.phase, Phase::Running)
    }

    // ----- initialization (paper §4.1 "Initialization") -----

    fn initialize(&mut self) {
        let buf = match std::mem::replace(&mut self.phase, Phase::Running) {
            Phase::Caching(buf) => buf,
            Phase::Running => return,
        };
        let t = self.now;
        // Build cells by sequential nearest-seed assignment.
        for (p, tp) in buf {
            match self.nearest_cell(&p) {
                Some((cid, _)) => {
                    let decay = self.cfg.decay;
                    self.slab.get_mut(cid).absorb(tp, &decay);
                }
                None => {
                    let id = self.slab.insert(Cell::new(p, tp));
                    self.index_birth(id);
                }
            }
        }
        // Activate dense cells and wire the DP-Tree among them, scanning in
        // density order (the O(k²) batch pass the paper performs once).
        let mut order: Vec<(f64, CellId)> =
            self.slab.iter().map(|(id, c)| (c.rho_at(t, self.decay()), id)).collect();
        order.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("density NaN").then(a.1.cmp(&b.1)));
        let thr = self.threshold_at(t);
        let mut placed: Vec<CellId> = Vec::new();
        for &(rho, id) in &order {
            if rho < thr {
                break; // sorted: everything after is inactive too
            }
            self.slab.get_mut(id).active = true;
            self.active_ids.push(id);
            let mut best: Option<(f64, CellId)> = None;
            for &prev in &placed {
                let d = self.metric.dist(&self.slab.get(id).seed, &self.slab.get(prev).seed);
                if best.is_none_or(|(bd, bid)| d < bd || (d == bd && prev < bid)) {
                    best = Some((d, prev));
                }
            }
            if let Some((d, dep)) = best {
                tree::attach(&mut self.slab, id, dep, d);
            }
            placed.push(id);
        }
        // The density-ordered pass placed the densest cell first.
        self.apex = placed.first().copied();
        let slab = &self.slab;
        self.order = DensityOrder::build(
            &self.cfg.decay,
            self.start.unwrap_or(t),
            placed.iter().map(|&id| (id, slab.get(id).raw_rho())),
        );
        // Cells left in the reservoir enter the idle order with their
        // final absorption time — from here on the recycling layer never
        // looks at the slab to find them.
        for (id, cell) in self.slab.iter() {
            if !cell.active {
                self.idle.push(id, cell.last_absorb);
            }
        }
        // τ initialization: the "user" picks τ₀ from the decision graph
        // (largest-gap heuristic unless configured explicitly).
        let mut deltas = self.active_deltas_sorted();
        let tau0 = self
            .cfg
            .tau0
            .unwrap_or_else(|| suggest_tau_from_deltas(&deltas).unwrap_or(4.0 * self.cfg.r));
        self.tau_ctl.initialize(&deltas, tau0);
        deltas.clear();
        self.touched.extend_from_slice(&self.active_ids);
        self.run_diff(t);
        self.update_reservoir_peak();
    }

    // ----- per-point processing (paper §4.1 "Key Operations") -----

    fn process(&mut self, p: &P, t: Timestamp) {
        let nearest = self.scan_distances(p);
        self.process_resolved(p, t, nearest);
    }

    /// Everything `process` does after the assignment probe. Shared by the
    /// serial path (which just probed) and the parallel commit loop (which
    /// replayed a phase-1 probe); both must already have filled the
    /// scratch table for this point. Returns the id of the cell the point
    /// seeded, if it seeded one — the commit loop's conflict-tracking
    /// input.
    fn process_resolved(
        &mut self,
        p: &P,
        t: Timestamp,
        nearest: Option<(CellId, f64)>,
    ) -> Option<CellId> {
        let mut born = None;
        match nearest {
            Some((cid, _)) => {
                self.stats.absorbed += 1;
                let decay = self.cfg.decay;
                let cell = self.slab.get_mut(cid);
                let filed = cell.raw_rho();
                let (before, after) = cell.absorb(t, &decay);
                if cell.active {
                    self.order.refile(cid, filed, (after, t));
                    self.dependency_maintenance(p, cid, before, after, t, false);
                } else if after >= self.threshold_at(t) {
                    // Cluster-cell emergence (DP-Tree insertion, §4.3).
                    self.slab.get_mut(cid).active = true;
                    self.active_ids.push(cid);
                    self.order.insert(cid, (after, t));
                    self.stats.activations += 1;
                    self.dependency_maintenance(p, cid, before, after, t, true);
                } else {
                    // Still in the reservoir; its idle clock restarts
                    // (the entry carrying the old absorption time goes
                    // stale and is dropped lazily on pop).
                    self.idle.push(cid, t);
                }
            }
            None => {
                // New cluster-cell, cached in the reservoir (low density).
                self.stats.new_cells += 1;
                let id = self.slab.insert(Cell::new(p.clone(), t));
                self.index_birth(id);
                self.idle.push(id, t);
                born = Some(id);
            }
        }
        if self.stats.points.is_multiple_of(self.cfg.maintenance_every) {
            self.maintenance(t);
        }
        if self.stats.points.is_multiple_of(self.cfg.tau_every) {
            let deltas = self.active_deltas_sorted();
            if self.tau_ctl.update(&deltas) {
                // A new τ can re-cut any strong link.
                self.touched.extend_from_slice(&self.active_ids);
            }
        }
        if !self.touched.is_empty() || !self.decayed.is_empty() {
            self.run_diff(t);
        }
        self.update_reservoir_peak();
        born
    }

    /// Files a newborn cell in the neighbor index. The stream's first
    /// cell picks the index from its seed's coordinate count
    /// ([`CellIndex::from_config`]) in place of the empty linear scan the
    /// engine was built with; nothing is picked again, even if the slab
    /// later empties.
    fn index_birth(&mut self, id: CellId) {
        let seed = &self.slab.get(id).seed;
        if !self.index_picked {
            let dim = seed.grid_coords().map(<[f64]>::len);
            self.index =
                CellIndex::from_config(self.cfg.neighbor_index(), self.cfg.r(), dim, &self.metric);
            self.index_picked = true;
        }
        self.index.on_insert(id, seed, &self.slab, &self.metric);
    }

    /// Resolves the assignment query through the neighbor index: the
    /// nearest cell within `r`, stamping every distance the index actually
    /// computed into the scratch table (the triangle filter's free input)
    /// and accounting probed vs. pruned cells.
    fn scan_distances(&mut self, p: &P) -> Option<(CellId, f64)> {
        self.scratch.begin(self.slab.capacity_slots());
        let scratch = &mut self.scratch;
        let mut probed = 0u64;
        let best =
            self.index.nearest_within(p, self.cfg.r, &self.slab, &self.metric, &mut |id, d| {
                probed += 1;
                scratch.set(id.0 as usize, d);
            });
        self.stats.index_probed += probed;
        self.stats.index_pruned += self.slab.len() as u64 - probed;
        best
    }

    /// Nearest cell within `r` without touching scratch (initialization
    /// and query paths).
    pub(super) fn nearest_cell(&self, p: &P) -> Option<(CellId, f64)> {
        self.index.nearest_within(p, self.cfg.r, &self.slab, &self.metric, &mut |_, _| {})
    }
}
