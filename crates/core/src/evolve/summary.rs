//! Compact per-cluster summaries for dashboards and digests.

use std::sync::Arc;

use edm_common::time::Timestamp;
use serde::{Deserialize, Serialize};

use crate::evolution::ClusterId;

/// Axis-aligned bounding box of a cluster's member-cell seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    /// Per-axis minimum over the member seeds.
    pub min: Vec<f64>,
    /// Per-axis maximum over the member seeds.
    pub max: Vec<f64>,
}

impl BoundingBox {
    /// Per-axis side lengths (`max - min`).
    pub fn extent(&self) -> Vec<f64> {
        self.min.iter().zip(&self.max).map(|(lo, hi)| hi - lo).collect()
    }

    /// True when `x` lies inside the box on every axis (inclusive).
    pub fn contains(&self, x: &[f64]) -> bool {
        x.len() == self.min.len()
            && x.iter().zip(self.min.iter().zip(&self.max)).all(|(v, (lo, hi))| lo <= v && v <= hi)
    }
}

/// A compact summary of one cluster: what a monitoring consumer needs to
/// label, place, and size it without walking its member cells.
///
/// Snapshots carry a summary per cluster with a registered identity
/// (frozen at the snapshot instant); the engine additionally maintains a
/// rolling map of summaries at *publish* cadence, where
/// [`ClusterSummary::first_generation`] / [`ClusterSummary::last_seen`]
/// record the publication window the cluster was observed in.
///
/// Geometry ([`ClusterSummary::centroid`], [`ClusterSummary::bounds`]) is
/// only available for payloads that expose coordinates
/// ([`edm_common::point::GridCoords`], e.g. dense vectors); for
/// coordinate-less payloads such as token sets both are `None` while
/// mass, size and lifetime remain exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSummary {
    /// Persistent cluster id.
    pub cluster: ClusterId,
    /// Number of member cells.
    pub cells: usize,
    /// Total decayed density of the member cells ("mass").
    pub mass: f64,
    /// Density-weighted mean of the member-cell seeds; `None` for
    /// coordinate-less payloads.
    pub centroid: Option<Vec<f64>>,
    /// Axis-aligned bounding box of the member-cell seeds; `None` for
    /// coordinate-less payloads. It depends on membership only, so the
    /// engine shares one box between every snapshot in which the
    /// cluster's member cells are the same.
    pub bounds: Option<Arc<BoundingBox>>,
    /// Stream time the cluster was born (from the identity registry).
    pub born: Timestamp,
    /// Stream time this summary reflects.
    pub as_of: Timestamp,
    /// First publication generation this cluster was observed in (equals
    /// the snapshot's generation on a freshly frozen summary; the
    /// engine's rolling map preserves the true first observation).
    pub first_generation: u64,
    /// Last publication generation this cluster was observed in.
    pub last_seen: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounding_box_extent_and_containment() {
        let b = BoundingBox { min: vec![0.0, -1.0], max: vec![2.0, 3.0] };
        assert_eq!(b.extent(), vec![2.0, 4.0]);
        assert!(b.contains(&[1.0, 0.0]));
        assert!(b.contains(&[0.0, -1.0]), "inclusive at the corners");
        assert!(!b.contains(&[3.0, 0.0]));
        assert!(!b.contains(&[1.0]), "dimension mismatch is never inside");
    }
}
