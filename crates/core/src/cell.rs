//! Cluster-cells (paper Definition 4).
//!
//! A cluster-cell summarizes the points that fell within radius `r` of its
//! seed: the tuple `{s_c, ρ_c^t, δ_c^t}` plus the bookkeeping the stream
//! engine needs (dependency pointer, children, last-absorption time).
//! Densities decay lazily — the cell stores `(ρ, t_ρ)` and evaluates
//! `ρ · a^{λ(t − t_ρ)}` on demand, which is sound because every cell decays
//! at the same rate (paper §4.2).

use edm_common::decay::DecayModel;
use edm_common::time::Timestamp;
use serde::{Deserialize, Serialize};

/// Stable identifier of a cluster-cell within the engine's slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId(pub u32);

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A cluster-cell: seed payload plus timely density and tree state.
#[derive(Debug, Clone)]
pub struct Cell<P> {
    /// The seed point `s_c`; all summarized points were within `r` of it.
    pub seed: P,
    /// Density at `rho_time` (Eq. 6, maintained by Eq. 8).
    rho: f64,
    /// Instant at which `rho` was last materialized.
    rho_time: Timestamp,
    /// Dependency: the nearest active cell with higher density (`None` for
    /// the DP-Tree root).
    pub dep: Option<CellId>,
    /// Dependent distance δ to `dep` (`+∞` for the root).
    pub delta: f64,
    /// Children in the DP-Tree (cells whose dependency is this cell).
    pub children: Vec<CellId>,
    /// When the cell last absorbed a point (drives reservoir recycling).
    pub last_absorb: Timestamp,
    /// Lifetime count of absorbed points (diagnostics only).
    pub absorbed: u64,
    /// Whether the cell currently lives in the DP-Tree (vs. the reservoir).
    pub active: bool,
    /// Current cluster id tag, managed by the evolution registry.
    pub cluster: Option<u64>,
}

impl<P> Cell<P> {
    /// Creates a fresh cell seeded by a point arriving at `t` (ρ = 1).
    pub fn new(seed: P, t: Timestamp) -> Self {
        Cell {
            seed,
            rho: 1.0,
            rho_time: t,
            dep: None,
            delta: f64::INFINITY,
            children: Vec::new(),
            last_absorb: t,
            absorbed: 1,
            active: false,
            cluster: None,
        }
    }

    /// Density decayed to time `t` (lazy evaluation of Eq. 6).
    #[inline]
    pub fn rho_at(&self, t: Timestamp, decay: &DecayModel) -> f64 {
        self.rho * decay.factor(t - self.rho_time)
    }

    /// Absorbs one point at time `t` (Eq. 8) and returns
    /// `(density_before, density_after)` both evaluated at `t` — the pair
    /// the density filter's window needs.
    pub fn absorb(&mut self, t: Timestamp, decay: &DecayModel) -> (f64, f64) {
        let before = self.rho_at(t, decay);
        self.rho = before + 1.0;
        self.rho_time = t;
        self.last_absorb = t;
        self.absorbed += 1;
        (before, self.rho)
    }

    /// Rebases the stored density to time `t` without absorbing. Useful for
    /// keeping `rho_time` fresh in long-lived cells (pure refactoring of
    /// the lazy representation; the value at any `t' ≥ t` is unchanged).
    pub fn rebase(&mut self, t: Timestamp, decay: &DecayModel) {
        self.rho = self.rho_at(t, decay);
        self.rho_time = t;
    }

    /// Raw stored density and its epoch: the key the engine's density
    /// order files the cell under is computed from this pair.
    pub fn raw_rho(&self) -> (f64, Timestamp) {
        (self.rho, self.rho_time)
    }
}

/// Strict density total order at time `t`: ties broken by cell id (lower id
/// counts as denser) so every comparison in the engine is deterministic.
#[inline]
pub fn denser<P>(
    a: &Cell<P>,
    a_id: CellId,
    b: &Cell<P>,
    b_id: CellId,
    t: Timestamp,
    decay: &DecayModel,
) -> bool {
    let ra = a.rho_at(t, decay);
    let rb = b.rho_at(t, decay);
    ra > rb || (ra == rb && a_id < b_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decay() -> DecayModel {
        DecayModel::paper_default()
    }

    #[test]
    fn new_cell_has_unit_density_at_birth() {
        let c = Cell::new((), 5.0);
        assert_eq!(c.rho_at(5.0, &decay()), 1.0);
        assert!(!c.active);
        assert!(c.dep.is_none());
        assert_eq!(c.delta, f64::INFINITY);
    }

    #[test]
    fn density_decays_between_observations() {
        let c = Cell::new((), 0.0);
        let r1 = c.rho_at(1.0, &decay());
        let r2 = c.rho_at(2.0, &decay());
        assert!((r1 - 0.998).abs() < 1e-12);
        assert!(r2 < r1);
    }

    #[test]
    fn absorb_applies_eq8_and_reports_window() {
        let mut c = Cell::new((), 0.0);
        let (before, after) = c.absorb(1.0, &decay());
        assert!((before - 0.998).abs() < 1e-12);
        assert!((after - 1.998).abs() < 1e-12);
        assert_eq!(c.absorbed, 2);
        assert_eq!(c.last_absorb, 1.0);
    }

    #[test]
    fn rebase_preserves_future_values() {
        let mut a = Cell::new((), 0.0);
        let b = Cell::new((), 0.0);
        a.absorb(1.0, &decay());
        let mut a2 = a.clone();
        a2.rebase(3.0, &decay());
        for t in [3.0, 5.0, 100.0] {
            assert!((a.rho_at(t, &decay()) - a2.rho_at(t, &decay())).abs() < 1e-12);
        }
        let _ = b;
    }

    #[test]
    fn denser_is_a_strict_total_order_under_ties() {
        let a = Cell::new((), 0.0);
        let b = Cell::new((), 0.0);
        let (ia, ib) = (CellId(1), CellId(2));
        // Identical densities: lower id wins, antisymmetric.
        assert!(denser(&a, ia, &b, ib, 1.0, &decay()));
        assert!(!denser(&b, ib, &a, ia, 1.0, &decay()));
    }

    #[test]
    fn denser_respects_actual_density() {
        let mut a = Cell::new((), 0.0);
        let b = Cell::new((), 0.0);
        a.absorb(0.5, &decay());
        assert!(denser(&a, CellId(9), &b, CellId(1), 1.0, &decay()));
    }

    #[test]
    fn order_is_stable_under_shared_decay() {
        // Theorem 1's foundation: without absorption, order never flips.
        let mut a = Cell::new((), 0.0);
        a.absorb(0.1, &decay());
        let b = Cell::new((), 0.0);
        for t in [1.0, 10.0, 500.0] {
            assert!(denser(&a, CellId(0), &b, CellId(1), t, &decay()));
        }
    }
}
