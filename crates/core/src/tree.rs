//! DP-Tree operations (paper §2.2, §4.2).
//!
//! The DP-Tree is stored implicitly in the cells: `dep` is the parent edge
//! (the nearest active cell of higher density) and `children` is its
//! reverse. These free functions keep the two sides consistent and provide
//! the traversals the engine and the evolution tracker need. Strong links
//! are links with `δ ≤ τ`; maximal strongly-dependent subtrees
//! (MSDSubTrees) are the clusters (Definition 2).

use edm_common::decay::DecayModel;
use edm_common::time::Timestamp;

use crate::cell::{denser, CellId};
use crate::slab::CellSlab;

/// Attaches `child` under `parent` with dependent distance `delta`.
/// The child must currently be detached (`dep == None`).
pub fn attach<P>(slab: &mut CellSlab<P>, child: CellId, parent: CellId, delta: f64) {
    debug_assert!(slab.get(child).dep.is_none(), "attach requires a detached child");
    debug_assert_ne!(child, parent, "a cell cannot depend on itself");
    {
        let c = slab.get_mut(child);
        c.dep = Some(parent);
        c.delta = delta;
    }
    slab.get_mut(parent).children.push(child);
}

/// Detaches `child` from its parent (if any); the child becomes a root with
/// `δ = ∞` until re-attached. Returns the former parent.
pub fn detach<P>(slab: &mut CellSlab<P>, child: CellId) -> Option<CellId> {
    let old = slab.get(child).dep;
    if let Some(p) = old {
        let parent = slab.get_mut(p);
        let pos = parent
            .children
            .iter()
            .position(|&c| c == child)
            .expect("child missing from parent's children list");
        parent.children.swap_remove(pos);
        let c = slab.get_mut(child);
        c.dep = None;
        c.delta = f64::INFINITY;
    }
    old
}

/// Re-points `child`'s dependency to `new_parent` at distance `delta`
/// (the single-pointer update the paper highlights as the cheap operation).
pub fn set_dep<P>(slab: &mut CellSlab<P>, child: CellId, new_parent: CellId, delta: f64) {
    detach(slab, child);
    attach(slab, child, new_parent, delta);
}

/// Walks up strong links from `id` and returns its MSDSubTree root.
pub fn strong_root<P>(slab: &CellSlab<P>, id: CellId, tau: f64) -> CellId {
    let mut cur = id;
    loop {
        let cell = slab.get(cur);
        match cell.dep {
            Some(p) if cell.delta <= tau => cur = p,
            _ => return cur,
        }
    }
}

/// Collects `root` and every descendant (children closure) into `out`.
pub fn collect_subtree<P>(slab: &CellSlab<P>, root: CellId, out: &mut Vec<CellId>) {
    out.push(root);
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        for &c in &slab.get(id).children {
            out.push(c);
            stack.push(c);
        }
    }
}

/// Collects the MSDSubTree headed by `root` into `out`: `root` and every
/// descendant reached over strong links (`δ ≤ τ`). `root` must be a strong
/// root for the result to be a whole subtree.
pub fn collect_strong_subtree<P>(
    slab: &CellSlab<P>,
    root: CellId,
    tau: f64,
    out: &mut Vec<CellId>,
) {
    let mut next = out.len();
    out.push(root);
    while let Some(&id) = out.get(next) {
        next += 1;
        for &c in &slab.get(id).children {
            if slab.get(c).delta <= tau {
                out.push(c);
            }
        }
    }
}

/// All current MSDSubTree roots among active cells: cells whose link is
/// absent or weak (`δ > τ`).
pub fn strong_roots<P>(slab: &CellSlab<P>, tau: f64) -> Vec<CellId> {
    slab.iter()
        .filter(|(_, c)| c.active && (c.dep.is_none() || c.delta > tau))
        .map(|(id, _)| id)
        .collect()
}

/// Validates every structural invariant of the DP-Tree; used by tests and
/// the property suite. Returns an error string describing the first
/// violation found.
pub fn check_invariants<P>(
    slab: &CellSlab<P>,
    t: Timestamp,
    decay: &DecayModel,
) -> Result<(), String> {
    let active: Vec<CellId> = slab.iter().filter(|(_, c)| c.active).map(|(id, _)| id).collect();
    for &id in &active {
        let cell = slab.get(id);
        match cell.dep {
            None => {
                if cell.delta.is_finite() {
                    return Err(format!("root {id} has finite delta {}", cell.delta));
                }
            }
            Some(p) => {
                if !slab.contains(p) {
                    return Err(format!("{id} depends on dead cell {p}"));
                }
                let parent = slab.get(p);
                if !parent.active {
                    return Err(format!("{id} depends on inactive {p}"));
                }
                if !denser(parent, p, cell, id, t, decay) {
                    return Err(format!(
                        "{id} (rho {}) depends on non-denser {p} (rho {})",
                        cell.rho_at(t, decay),
                        parent.rho_at(t, decay)
                    ));
                }
                let times = parent.children.iter().filter(|&&c| c == id).count();
                if times != 1 {
                    return Err(format!("{p} lists child {id} {times} times"));
                }
            }
        }
        for &c in &cell.children {
            if !slab.contains(c) {
                return Err(format!("{id} lists dead child {c}"));
            }
            if slab.get(c).dep != Some(id) {
                return Err(format!("{id} lists {c} whose dep is {:?}", slab.get(c).dep));
            }
        }
        // Acyclicity: the dep chain must terminate within |active| steps.
        let mut cur = id;
        for _ in 0..=active.len() {
            match slab.get(cur).dep {
                Some(p) => cur = p,
                None => break,
            }
        }
        if slab.get(cur).dep.is_some() {
            return Err(format!("dependency cycle reachable from {id}"));
        }
        // Inactive cells must never appear in children lists of actives
        // (checked from the child side above via dep==Some(id)).
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;

    fn decay() -> DecayModel {
        DecayModel::paper_default()
    }

    /// Builds a slab of `n` active cells where cell i has density n-i
    /// (cell 0 densest), no edges yet.
    fn slab_with(n: usize) -> (CellSlab<u32>, Vec<CellId>) {
        let mut slab = CellSlab::new();
        let mut ids = Vec::new();
        for i in 0..n {
            let mut cell = Cell::new(i as u32, 0.0);
            for _ in 0..(n - i) {
                cell.absorb(0.0, &decay());
            }
            cell.active = true;
            ids.push(slab.insert(cell));
        }
        (slab, ids)
    }

    #[test]
    fn attach_detach_roundtrip() {
        let (mut slab, ids) = slab_with(3);
        attach(&mut slab, ids[1], ids[0], 1.0);
        attach(&mut slab, ids[2], ids[1], 0.5);
        assert_eq!(slab.get(ids[0]).children, vec![ids[1]]);
        assert!(check_invariants(&slab, 0.0, &decay()).is_ok());
        let old = detach(&mut slab, ids[1]);
        assert_eq!(old, Some(ids[0]));
        assert!(slab.get(ids[0]).children.is_empty());
        assert!(slab.get(ids[1]).dep.is_none());
        assert_eq!(slab.get(ids[1]).delta, f64::INFINITY);
        // ids[2] still hangs under ids[1]: the subtree moved with it.
        assert_eq!(slab.get(ids[1]).children, vec![ids[2]]);
    }

    #[test]
    fn set_dep_moves_between_parents() {
        let (mut slab, ids) = slab_with(3);
        attach(&mut slab, ids[2], ids[0], 2.0);
        set_dep(&mut slab, ids[2], ids[1], 0.7);
        assert!(slab.get(ids[0]).children.is_empty());
        assert_eq!(slab.get(ids[1]).children, vec![ids[2]]);
        assert_eq!(slab.get(ids[2]).delta, 0.7);
        assert!(check_invariants(&slab, 0.0, &decay()).is_ok());
    }

    #[test]
    fn strong_root_stops_at_weak_link() {
        let (mut slab, ids) = slab_with(4);
        attach(&mut slab, ids[1], ids[0], 5.0); // weak under tau=1
        attach(&mut slab, ids[2], ids[1], 0.5); // strong
        attach(&mut slab, ids[3], ids[2], 0.5); // strong
        assert_eq!(strong_root(&slab, ids[3], 1.0), ids[1]);
        assert_eq!(strong_root(&slab, ids[1], 1.0), ids[1]);
        assert_eq!(strong_root(&slab, ids[0], 1.0), ids[0]);
        // Raising tau merges everything into the global root.
        assert_eq!(strong_root(&slab, ids[3], 10.0), ids[0]);
    }

    #[test]
    fn strong_subtree_stops_at_weak_links() {
        let (mut slab, ids) = slab_with(5);
        attach(&mut slab, ids[1], ids[0], 5.0); // weak under tau=1
        attach(&mut slab, ids[2], ids[1], 0.5);
        attach(&mut slab, ids[3], ids[2], 0.5);
        attach(&mut slab, ids[4], ids[0], 0.5);
        let mut out = Vec::new();
        collect_strong_subtree(&slab, ids[0], 1.0, &mut out);
        out.sort();
        assert_eq!(out, vec![ids[0], ids[4]]);
        out.clear();
        collect_strong_subtree(&slab, ids[1], 1.0, &mut out);
        out.sort();
        assert_eq!(out, vec![ids[1], ids[2], ids[3]]);
        for &id in &out {
            assert_eq!(strong_root(&slab, id, 1.0), ids[1]);
        }
    }

    #[test]
    fn strong_roots_enumerates_cluster_heads() {
        let (mut slab, ids) = slab_with(4);
        attach(&mut slab, ids[1], ids[0], 5.0);
        attach(&mut slab, ids[2], ids[1], 0.5);
        attach(&mut slab, ids[3], ids[2], 0.5);
        let mut roots = strong_roots(&slab, 1.0);
        roots.sort();
        assert_eq!(roots, vec![ids[0], ids[1]]);
    }

    #[test]
    fn collect_subtree_gets_descendants() {
        let (mut slab, ids) = slab_with(4);
        attach(&mut slab, ids[1], ids[0], 1.0);
        attach(&mut slab, ids[2], ids[1], 1.0);
        attach(&mut slab, ids[3], ids[0], 1.0);
        let mut out = Vec::new();
        collect_subtree(&slab, ids[1], &mut out);
        out.sort();
        assert_eq!(out, vec![ids[1], ids[2]]);
        let mut all = Vec::new();
        collect_subtree(&slab, ids[0], &mut all);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn invariants_catch_density_inversion() {
        let (mut slab, ids) = slab_with(2);
        // Attach the denser cell under the sparser one: invalid.
        attach(&mut slab, ids[0], ids[1], 1.0);
        let err = check_invariants(&slab, 0.0, &decay()).unwrap_err();
        assert!(err.contains("non-denser"), "{err}");
    }

    #[test]
    fn invariants_catch_dangling_children() {
        let (mut slab, ids) = slab_with(3);
        attach(&mut slab, ids[1], ids[0], 1.0);
        // Corrupt: manually add a bogus child entry.
        slab.get_mut(ids[0]).children.push(ids[2]);
        let err = check_invariants(&slab, 0.0, &decay()).unwrap_err();
        assert!(err.contains("whose dep is"), "{err}");
    }

    #[test]
    fn invariants_ok_on_empty_and_singleton() {
        let slab: CellSlab<u32> = CellSlab::new();
        assert!(check_invariants(&slab, 0.0, &decay()).is_ok());
        let (slab, _) = slab_with(1);
        assert!(check_invariants(&slab, 0.0, &decay()).is_ok());
    }
}
