//! The density order of the active cells (paper §4.2, Theorem 1).
//!
//! Every cell decays at the same rate, so two cells' densities change
//! order only when one of them absorbs a point. The order files each
//! active cell under the key
//!
//! ```text
//! key = ln ρ − ln(a)·λ·(t_ρ − t₀)
//! ```
//!
//! taken from its stored `(ρ, t_ρ)` ([`crate::Cell::raw_rho`]) and the
//! stream's first timestamp `t₀`. Since `ln ρ_c(t) = key_c + ln(a)·λ·(t − t₀)`
//! and the second term is the same for every cell, key order is density
//! order at every `t`, up to rounding. A key only changes when its cell
//! absorbs, so the order changes only when a cell absorbs, activates or
//! decays out of the tree.
//!
//! Two readers use it. When a cell rises from `before` to `after`,
//! Theorem 1 names the cells it overtook: exactly those whose density at
//! `t` lies between the two, one contiguous run of the order
//! ([`DensityOrder::window`]). The decay sweep needs the cells below the
//! activation threshold: a prefix ([`DensityOrder::below`]).
//!
//! The keys and the densities the engine's exact checks compare are
//! computed along different float paths, so the keys only choose whom to
//! visit: each range is widened by a rounding slack, and a key within the
//! slack of an edge is left to the exact check. Only keys farther inside
//! are decided by the key alone. The slack assumes the engine's clock
//! contract: no point is processed more than the 1e-9 s tolerance behind
//! a stored `t_ρ` (the checked entry points enforce it).

use edm_common::decay::DecayModel;
use edm_common::time::Timestamp;

use crate::cell::CellId;

/// Relative rounding allowance of a key comparison. The keys and the
/// exact densities each carry a few ulps of error in the magnitudes
/// involved (`ln ρ` and `ln(a)·λ·(t − t₀)`); this is ~4,500 ulps.
const REL_SLACK: f64 = 1e-12;

/// How far a point may arrive behind the stream clock (the same tolerance
/// as the timestamp gate): over that gap a stored density is not decayed
/// at all, while its key assumes it grew.
const TIME_TOLERANCE: f64 = 1e-9;

/// Below this, a density's rounding is no longer relative (subnormal
/// decay factors), so a window reaching down to it decides every cell by
/// the exact check.
const NORMAL_FLOOR: f64 = 1e-150;

/// The active cells sorted by `(key, id)`, ascending.
#[derive(Debug, Clone)]
pub(crate) struct DensityOrder {
    entries: Vec<(f64, CellId)>,
    /// `ln(a)·λ`, negative.
    rate: f64,
    /// `t₀`, the stream's first timestamp.
    origin: Timestamp,
}

/// The run of the order a density rise from `before` to `after` crossed,
/// widened by the rounding slack.
pub(crate) struct Window<'a> {
    /// The entries to visit, ascending.
    pub(crate) entries: &'a [(f64, CellId)],
    /// Keys strictly between these two lie more than the slack inside
    /// both edges: their cell's density at `t` is above `before` and below
    /// `after`, without an exact check.
    inside: (f64, f64),
}

impl Window<'_> {
    /// Whether the entry's key alone proves the cell was overtaken.
    #[inline]
    pub(crate) fn is_inside(&self, key: f64) -> bool {
        key > self.inside.0 && key < self.inside.1
    }
}

/// `(key, id)` order.
#[inline]
fn precedes(a: (f64, CellId), b: (f64, CellId)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

impl DensityOrder {
    /// An order over `cells`, given as `(id, (ρ, t_ρ))`, keyed from the
    /// stream's first timestamp `origin`.
    pub(crate) fn build(
        decay: &DecayModel,
        origin: Timestamp,
        cells: impl IntoIterator<Item = (CellId, (f64, Timestamp))>,
    ) -> Self {
        let mut order =
            DensityOrder { entries: Vec::new(), rate: decay.a().ln() * decay.lambda(), origin };
        order.entries = cells.into_iter().map(|(id, raw)| (order.key(raw), id)).collect();
        order.entries.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        order
    }

    /// The key of a stored `(ρ, t_ρ)`. Also the key of a density `ρ`
    /// evaluated at `t` when given `(ρ, t)`.
    #[inline]
    fn key(&self, (rho, t_rho): (f64, Timestamp)) -> f64 {
        rho.ln() - self.rate * (t_rho - self.origin)
    }

    /// Rounding allowance at time `t` for comparisons among keys of
    /// magnitude up to `magnitude`.
    #[inline]
    fn slack(&self, t: Timestamp, magnitude: f64) -> f64 {
        REL_SLACK * (1.0 + magnitude + (self.rate * (t - self.origin)).abs())
            + self.rate.abs() * TIME_TOLERANCE
    }

    /// Position of `(key, id)`, which must be filed.
    fn position(&self, entry: (f64, CellId)) -> usize {
        let i = self.entries.partition_point(|&e| precedes(e, entry));
        assert!(
            self.entries.get(i).is_some_and(|e| e.1 == entry.1),
            "{} is not filed under key {}",
            entry.1,
            entry.0
        );
        i
    }

    /// Files a newly activated cell with stored density `raw`.
    pub(crate) fn insert(&mut self, id: CellId, raw: (f64, Timestamp)) {
        let entry = (self.key(raw), id);
        let i = self.entries.partition_point(|&e| precedes(e, entry));
        self.entries.insert(i, entry);
    }

    /// Re-files `id` after an absorb moved its stored density from `old`
    /// to `new`: one rotation over the entries it passed.
    pub(crate) fn refile(&mut self, id: CellId, old: (f64, Timestamp), new: (f64, Timestamp)) {
        let from = self.position((self.key(old), id));
        let entry = (self.key(new), id);
        if precedes(self.entries[from], entry) {
            let passed = self.entries[from + 1..].partition_point(|&e| precedes(e, entry));
            self.entries[from..=from + passed].rotate_left(1);
            self.entries[from + passed] = entry;
        } else {
            // Only rounding can lower the key of a rising density.
            let to = self.entries[..from].partition_point(|&e| precedes(e, entry));
            self.entries[to..=from].rotate_right(1);
            self.entries[to] = entry;
        }
    }

    /// Keeps only the cells `keep` vouches for.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(CellId) -> bool) {
        self.entries.retain(|&(_, id)| keep(id));
    }

    /// The cells a density rise from `before` to `after` at `t` can have
    /// overtaken (Theorem 1): every cell whose density at `t` lies in
    /// `[before, after]` is in the window, up to the id tie-break at both
    /// edges, which the exact check settles.
    pub(crate) fn window(&self, before: f64, after: f64, t: Timestamp) -> Window<'_> {
        let hi = self.key((after, t));
        let (lo, slack) = if before >= NORMAL_FLOOR {
            let lo = self.key((before, t));
            (lo, self.slack(t, lo.abs() + hi.abs()))
        } else {
            (f64::NEG_INFINITY, self.slack(t, hi.abs()))
        };
        let from = self.entries.partition_point(|e| e.0 < lo - slack);
        let to = self.entries.partition_point(|e| e.0 <= hi + slack).max(from);
        let inside = if lo.is_finite() { (lo + slack, hi - slack) } else { (f64::INFINITY, 0.0) };
        Window { entries: &self.entries[from..to], inside }
    }

    /// A prefix of the order holding every cell whose density at `t` is
    /// below `threshold`, plus those within the rounding slack of it.
    pub(crate) fn below(&self, threshold: f64, t: Timestamp) -> &[(f64, CellId)] {
        let k = self.key((threshold, t));
        let edge = k + self.slack(t, k.abs());
        &self.entries[..self.entries.partition_point(|e| e.0 <= edge)]
    }

    /// Checks that the order files exactly `active`, given as
    /// `(id, (ρ, t_ρ))`, each once under the key its stored density gives,
    /// sorted by `(key, id)`.
    pub(crate) fn check(
        &self,
        active: impl IntoIterator<Item = (CellId, (f64, Timestamp))>,
    ) -> Result<(), String> {
        if let Some(w) = self.entries.windows(2).find(|w| !precedes(w[0], w[1])) {
            return Err(format!("density order is unsorted at {:?} then {:?}", w[0], w[1]));
        }
        let mut filed: edm_common::hash::FxHashMap<CellId, f64> =
            self.entries.iter().map(|&(k, id)| (id, k)).collect();
        for (id, raw) in active {
            match filed.remove(&id) {
                Some(k) if k.to_bits() == self.key(raw).to_bits() => {}
                Some(k) => {
                    return Err(format!(
                        "{id} is filed under key {k}, its density {raw:?} gives {}",
                        self.key(raw)
                    ))
                }
                None => return Err(format!("active {id} is missing from the density order")),
            }
        }
        match filed.keys().next() {
            Some(id) => Err(format!("density order files {id}, which is not active")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::denser_scalar;

    /// A deterministic pseudo-random sequence (splitmix64).
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Cells with stored densities on a coarse lattice — integer
    /// timestamps and small integer-ish densities — so that exact ties
    /// and near-ties between cells are common.
    fn cells(mix: &mut Mix, n: usize, origin: f64) -> Vec<(CellId, (f64, Timestamp))> {
        (0..n)
            .map(|i| {
                let rho = 1.0 + mix.below(6) as f64 + [0.0, 0.5, 0.998][mix.below(3) as usize];
                let t_rho = origin + mix.below(40) as f64;
                (CellId(i as u32), (rho, t_rho))
            })
            .collect()
    }

    fn rho_at(decay: &DecayModel, (rho, t_rho): (f64, Timestamp), t: Timestamp) -> f64 {
        rho * decay.factor(t - t_rho)
    }

    #[test]
    fn windows_hold_every_overtaken_cell_and_decide_the_inside_exactly() {
        let decay = DecayModel::paper_default();
        for (seed, origin) in [(1u64, 0.0), (2, 1.7e9), (3, 12.5)] {
            let mut mix = Mix(seed);
            let cells = cells(&mut mix, 300, origin);
            let order = DensityOrder::build(&decay, origin, cells.iter().copied());
            order.check(cells.iter().copied()).unwrap();
            let t = origin + 40.0 + mix.below(3) as f64;
            let mut inside = 0;
            for &(riser, raw) in &cells {
                let before = rho_at(&decay, raw, t);
                let after = before + 1.0;
                let window = order.window(before, after, t);
                let visited: Vec<CellId> = window.entries.iter().map(|e| e.1).collect();
                for &(id, raw_c) in &cells {
                    if id == riser {
                        continue;
                    }
                    let rho_c = rho_at(&decay, raw_c, t);
                    let overtaken = denser_scalar(rho_c, id, before, riser)
                        && !denser_scalar(rho_c, id, after, riser);
                    if overtaken {
                        assert!(visited.contains(&id), "{riser} overtook {id} outside the window");
                    }
                }
                for &(key, id) in window.entries {
                    if id != riser && window.is_inside(key) {
                        inside += 1;
                        let rho_c = rho_at(&decay, cells[id.0 as usize].1, t);
                        assert!(rho_c > before && rho_c < after, "{id} decided wrongly");
                    }
                }
            }
            assert!(inside > 0, "no window had an inside");
        }
    }

    #[test]
    fn ties_at_both_edges_are_visited() {
        // Three cells share one stored density: whichever rises, the other
        // two sit exactly on its window's lower edge.
        let decay = DecayModel::paper_default();
        let origin = 1.7e9;
        let raw = (3.0, origin + 7.0);
        let cells = [(CellId(4), raw), (CellId(5), raw), (CellId(6), raw)];
        let order = DensityOrder::build(&decay, origin, cells);
        let t = origin + 9.0;
        let before = rho_at(&decay, raw, t);
        for (riser, _) in cells {
            let window = order.window(before, before + 1.0, t);
            assert_eq!(window.entries.len(), 3, "{riser}");
            assert!(window.entries.iter().all(|e| !window.is_inside(e.0)));
        }
        // A density exactly `after` lies on the upper edge.
        let top = (before + 1.0, t);
        let order = DensityOrder::build(&decay, origin, [(CellId(1), top), (CellId(2), raw)]);
        let window = order.window(before, before + 1.0, t);
        assert_eq!(window.entries.len(), 2);
    }

    #[test]
    fn prefixes_hold_every_cell_below_the_threshold() {
        let decay = DecayModel::paper_default();
        for (seed, origin) in [(7u64, 0.0), (8, 1.7e9)] {
            let mut mix = Mix(seed);
            let cells = cells(&mut mix, 300, origin);
            let order = DensityOrder::build(&decay, origin, cells.iter().copied());
            let t = origin + 45.0;
            for thr in [1.0, 2.5, 3.0, 4.0, 7.998, 100.0] {
                let prefix: Vec<CellId> = order.below(thr, t).iter().map(|e| e.1).collect();
                for &(id, raw) in &cells {
                    if rho_at(&decay, raw, t) < thr {
                        assert!(prefix.contains(&id), "{id} below {thr} outside the prefix");
                    }
                }
            }
        }
        // A cell exactly at the threshold is within the slack.
        let origin = 5.0;
        let order = DensityOrder::build(&decay, origin, [(CellId(0), (4.0, 9.0))]);
        assert_eq!(order.below(4.0, 9.0).len(), 1);
    }

    #[test]
    fn refiling_keeps_the_order_sorted_both_ways() {
        let decay = DecayModel::paper_default();
        let mut mix = Mix(11);
        let mut cells = cells(&mut mix, 64, 0.0);
        let mut order = DensityOrder::build(&decay, 0.0, cells.iter().copied());
        for step in 0..500 {
            let i = mix.below(cells.len() as u64) as usize;
            let old = cells[i].1;
            // Mostly absorbs at a later time; every 7th step lowers the
            // stored density, the mirror case rounding can cause.
            let new = if step % 7 == 0 {
                (old.0 * 0.5, old.1)
            } else {
                let t = old.1 + mix.below(5) as f64;
                (rho_at(&decay, old, t) + 1.0, t)
            };
            order.refile(cells[i].0, old, new);
            cells[i].1 = new;
            order.check(cells.iter().copied()).unwrap();
        }
        order.retain(|id| id.0 % 2 == 0);
        order.insert(CellId(1), cells[1].1);
        order.check(cells.iter().copied().filter(|(id, _)| id.0 % 2 == 0 || id.0 == 1)).unwrap();
    }

    #[test]
    fn check_names_what_is_wrong() {
        let decay = DecayModel::paper_default();
        let cells = [(CellId(0), (2.0, 1.0)), (CellId(1), (3.0, 1.0))];
        let order = DensityOrder::build(&decay, 0.0, cells);
        assert!(order.check(cells).is_ok());
        let err = order.check([cells[0]]).unwrap_err();
        assert!(err.contains("not active"), "{err}");
        let err = order.check([cells[0], cells[1], (CellId(2), (1.0, 1.0))]).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        let err = order.check([cells[0], (CellId(1), (3.0, 2.0))]).unwrap_err();
        assert!(err.contains("filed under"), "{err}");
    }
}
