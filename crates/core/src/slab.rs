//! A slab allocator for cluster-cells.
//!
//! Cells are created when new regions of space appear and deleted when the
//! reservoir recycles them (paper §4.4). The DP-Tree stores `CellId` edges,
//! so ids must stay stable across unrelated insertions and removals — a
//! `Vec<Option<Cell>>` with a free list gives O(1) insert/remove/lookup and
//! cache-friendly iteration without invalidating ids.

use crate::cell::{Cell, CellId};

/// Slab of cells with stable ids and slot reuse.
#[derive(Debug, Clone, Default)]
pub struct CellSlab<P> {
    slots: Vec<Option<Cell<P>>>,
    free: Vec<u32>,
    len: usize,
}

impl<P> CellSlab<P> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        CellSlab { slots: Vec::new(), free: Vec::new(), len: 0 }
    }

    /// Number of live cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no cells are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots (live + free); scratch buffers indexed by slot use
    /// this as their length.
    pub fn capacity_slots(&self) -> usize {
        self.slots.len()
    }

    /// Inserts a cell, reusing a free slot when available.
    pub fn insert(&mut self, cell: Cell<P>) -> CellId {
        self.len += 1;
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(cell);
            CellId(slot)
        } else {
            self.slots.push(Some(cell));
            CellId((self.slots.len() - 1) as u32)
        }
    }

    /// Removes a cell, returning it.
    ///
    /// # Panics
    /// Panics when the id is dead — removing twice is an engine logic bug
    /// worth failing loudly on.
    pub fn remove(&mut self, id: CellId) -> Cell<P> {
        let cell = self.slots[id.0 as usize].take().expect("removing dead cell id");
        self.free.push(id.0);
        self.len -= 1;
        cell
    }

    /// Shared access to a live cell.
    ///
    /// # Panics
    /// Panics on a dead id (engine invariant violation).
    #[inline]
    pub fn get(&self, id: CellId) -> &Cell<P> {
        self.slots[id.0 as usize].as_ref().expect("dead cell id")
    }

    /// Mutable access to a live cell.
    #[inline]
    pub fn get_mut(&mut self, id: CellId) -> &mut Cell<P> {
        self.slots[id.0 as usize].as_mut().expect("dead cell id")
    }

    /// Whether `id` refers to a live cell.
    #[inline]
    pub fn contains(&self, id: CellId) -> bool {
        self.slots.get(id.0 as usize).is_some_and(|s| s.is_some())
    }

    /// Iterates over `(id, cell)` pairs of live cells.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &Cell<P>)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|c| (CellId(i as u32), c)))
    }

    /// Iterates over ids of live cells.
    pub fn ids(&self) -> impl Iterator<Item = CellId> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|_| CellId(i as u32)))
    }

    /// Mutable pairwise access to two distinct cells (tree edge updates
    /// touch parent and child together).
    ///
    /// # Panics
    /// Panics when `a == b` or either id is dead.
    pub fn get2_mut(&mut self, a: CellId, b: CellId) -> (&mut Cell<P>, &mut Cell<P>) {
        assert_ne!(a, b, "get2_mut requires distinct ids");
        let (lo, hi) = if a.0 < b.0 { (a, b) } else { (b, a) };
        let (left, right) = self.slots.split_at_mut(hi.0 as usize);
        let lo_cell = left[lo.0 as usize].as_mut().expect("dead cell id");
        let hi_cell = right[0].as_mut().expect("dead cell id");
        if a.0 < b.0 {
            (lo_cell, hi_cell)
        } else {
            (hi_cell, lo_cell)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(x: u32) -> Cell<u32> {
        Cell::new(x, 0.0)
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut s = CellSlab::new();
        let a = s.insert(cell(10));
        let b = s.insert(cell(20));
        assert_eq!(s.get(a).seed, 10);
        assert_eq!(s.get(b).seed, 20);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn remove_frees_slot_for_reuse() {
        let mut s = CellSlab::new();
        let a = s.insert(cell(1));
        let _b = s.insert(cell(2));
        let removed = s.remove(a);
        assert_eq!(removed.seed, 1);
        assert!(!s.contains(a));
        let c = s.insert(cell(3));
        assert_eq!(c, a, "slot must be reused");
        assert_eq!(s.get(c).seed, 3);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "dead cell id")]
    fn get_dead_id_panics() {
        let mut s = CellSlab::new();
        let a = s.insert(cell(1));
        s.remove(a);
        s.get(a);
    }

    #[test]
    fn iter_skips_dead_slots() {
        let mut s = CellSlab::new();
        let a = s.insert(cell(1));
        let _b = s.insert(cell(2));
        let _c = s.insert(cell(3));
        s.remove(a);
        let seeds: Vec<u32> = s.iter().map(|(_, c)| c.seed).collect();
        assert_eq!(seeds, vec![2, 3]);
        assert_eq!(s.ids().count(), 2);
    }

    #[test]
    fn get2_mut_returns_both_in_argument_order() {
        let mut s = CellSlab::new();
        let a = s.insert(cell(1));
        let b = s.insert(cell(2));
        {
            let (ca, cb) = s.get2_mut(a, b);
            ca.seed = 100;
            cb.seed = 200;
        }
        let (cb, ca) = s.get2_mut(b, a);
        assert_eq!(cb.seed, 200);
        assert_eq!(ca.seed, 100);
    }

    #[test]
    #[should_panic(expected = "distinct ids")]
    fn get2_mut_same_id_panics() {
        let mut s = CellSlab::new();
        let a = s.insert(cell(1));
        s.get2_mut(a, a);
    }

    #[test]
    fn capacity_slots_grows_monotonically() {
        let mut s = CellSlab::new();
        let a = s.insert(cell(1));
        s.insert(cell(2));
        s.remove(a);
        assert_eq!(s.capacity_slots(), 2);
        s.insert(cell(3));
        assert_eq!(s.capacity_slots(), 2);
        s.insert(cell(4));
        assert_eq!(s.capacity_slots(), 3);
    }
}
