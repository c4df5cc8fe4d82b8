//! The brute-force neighbor "index": an exact scan over the whole slab.
//!
//! This is the seed implementation the engine used before grid indexing
//! existed, preserved behind the [`NeighborIndex`] trait for two reasons:
//! it is the only exact option for metric spaces without a coordinate
//! embedding, and it is the reference the property suite compares
//! [`super::UniformGrid`] against. It keeps no state of its own — the slab
//! *is* the index.

use edm_common::metric::Metric;

use crate::cell::{Cell, CellId};
use crate::slab::CellSlab;

use super::{closer, NeighborIndex};

/// Stateless full-scan fallback; exact for every metric.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinearScan;

impl<P> NeighborIndex<P> for LinearScan {
    fn on_insert<M: Metric<P>>(
        &mut self,
        _id: CellId,
        _seed: &P,
        _slab: &CellSlab<P>,
        _metric: &M,
    ) {
    }

    fn on_remove<M: Metric<P>>(
        &mut self,
        _id: CellId,
        _seed: &P,
        _slab: &CellSlab<P>,
        _metric: &M,
    ) {
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
        for (id, cell) in slab.iter() {
            let d = metric.dist(q, &cell.seed);
            on_probe(id, d);
            if closer(d, id, best) {
                best = Some((id, d));
            }
        }
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
        for (id, cell) in slab.iter() {
            if !pred(id, cell) {
                continue;
            }
            let d = metric.dist(q, &cell.seed);
            if closer(d, id, best) {
                best = Some((id, d));
            }
        }
        best
    }

    fn lower_bound_prunes(&self, _q: &P, _seed: &P, _p_dist: f64, _delta: f64) -> bool {
        // The scan probes everything, so the engine never needs a bound
        // from it; prove nothing.
        false
    }

    fn check_coherence<M: Metric<P>>(
        &self,
        _slab: &CellSlab<P>,
        _metric: &M,
    ) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_common::metric::Euclidean;
    use edm_common::point::DenseVector;

    fn slab3() -> (CellSlab<DenseVector>, Vec<CellId>) {
        let mut slab = CellSlab::new();
        let ids = vec![
            slab.insert(Cell::new(DenseVector::from([0.0, 0.0]), 0.0)),
            slab.insert(Cell::new(DenseVector::from([2.0, 0.0]), 0.0)),
            slab.insert(Cell::new(DenseVector::from([5.0, 0.0]), 0.0)),
        ];
        (slab, ids)
    }

    #[test]
    fn nearest_within_respects_radius_and_probes_everything() {
        let (slab, ids) = slab3();
        let ix = LinearScan;
        let mut probes = 0;
        let q = DenseVector::from([1.9, 0.0]);
        let hit = ix.nearest_within(&q, 0.5, &slab, &Euclidean, &mut |_, _| probes += 1);
        assert_eq!(hit, Some((ids[1], slab.get(ids[1]).seed.dist(&q))));
        assert_eq!(probes, 3);
        probes = 0;
        let miss = ix.nearest_within(
            &DenseVector::from([10.0, 0.0]),
            0.5,
            &slab,
            &Euclidean,
            &mut |_, _| probes += 1,
        );
        assert_eq!(miss, None);
        assert_eq!(probes, 3);
    }

    #[test]
    fn nearest_matching_applies_the_predicate() {
        let (slab, ids) = slab3();
        let ix = LinearScan;
        let q = DenseVector::from([0.1, 0.0]);
        let banned = ids[0];
        let hit = ix.nearest_matching(&q, &slab, &Euclidean, &mut |id, _| id != banned);
        assert_eq!(hit.map(|(id, _)| id), Some(ids[1]));
        assert_eq!(ix.nearest_matching(&q, &slab, &Euclidean, &mut |_, _| false), None);
    }

    #[test]
    fn ties_break_toward_the_lower_id() {
        let mut slab = CellSlab::new();
        let a = slab.insert(Cell::new(DenseVector::from([-1.0, 0.0]), 0.0));
        let _b = slab.insert(Cell::new(DenseVector::from([1.0, 0.0]), 0.0));
        let ix = LinearScan;
        let q = DenseVector::from([0.0, 0.0]);
        let hit = ix.nearest_within(&q, 2.0, &slab, &Euclidean, &mut |_, _| {});
        assert_eq!(hit.map(|(id, _)| id), Some(a));
    }
}
