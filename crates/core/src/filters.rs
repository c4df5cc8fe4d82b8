//! The two dependency-update filters (paper Theorems 1 and 2) and the
//! engine's instrumentation counters.
//!
//! When cell `c'` absorbs a point, in principle every other cell's
//! dependency could change. The paper proves two exemptions:
//!
//! * **Density filter (Thm 1)** — only cells that `c'` *overtook* in the
//!   density order can be affected: `ρ_c^{t_j} ≥ ρ_{c'}^{t_j}` and
//!   `ρ_c^{t_{j+1}} < ρ_{c'}^{t_{j+1}}`. All others keep their dependency.
//! * **Triangle-inequality filter (Thm 2)** — among those, any cell with
//!   `||p,s_c| − |p,s_{c'}|| > δ_c` cannot switch to `c'`, because the
//!   triangle inequality bounds `|s_c,s_{c'}| > δ_c`. Both distances are
//!   already known from the assignment scan, so this check is free.
//!
//! `FilterConfig` lets each theorem be disabled independently — that is the
//! wf / df / df+tif ablation of the paper's Fig 11 — and `EngineStats`
//! records what each filter did plus the accumulated wall-clock time of the
//! dependency-maintenance phase.

use serde::{Deserialize, Serialize};

/// Which update filters are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterConfig {
    /// Theorem 1: density-window filtering.
    pub density: bool,
    /// Theorem 2: triangle-inequality filtering.
    pub triangle: bool,
}

impl FilterConfig {
    /// No filtering ("wf" in Fig 11): every active cell is a candidate on
    /// every absorption.
    pub fn none() -> Self {
        FilterConfig { density: false, triangle: false }
    }

    /// Density filter only ("df").
    pub fn density_only() -> Self {
        FilterConfig { density: true, triangle: false }
    }

    /// Both filters ("df+tif") — the paper's default configuration.
    pub fn all() -> Self {
        FilterConfig { density: true, triangle: true }
    }

    /// Fig 11 series label for this configuration.
    pub fn label(&self) -> &'static str {
        match (self.density, self.triangle) {
            (false, false) => "wf",
            (true, false) => "df",
            (false, true) => "tif",
            (true, true) => "df+tif",
        }
    }
}

impl Default for FilterConfig {
    fn default() -> Self {
        Self::all()
    }
}

/// Counters and timings the engine accumulates while running.
///
/// Plain integers, cheap to clone; snapshots freeze a clone so reporting
/// code reads counters off the hot path.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EngineStats {
    /// Stream points processed (including the initialization buffer).
    pub points: u64,
    /// Points absorbed by an existing cell.
    pub absorbed: u64,
    /// Points that seeded a brand-new cell.
    pub new_cells: u64,
    /// Dependency-maintenance candidates examined before filtering.
    pub dep_candidates: u64,
    /// Candidates discarded by the density filter (Thm 1).
    pub filtered_density: u64,
    /// Candidates discarded by the triangle filter (Thm 2).
    pub filtered_triangle: u64,
    /// Dependencies actually re-pointed.
    pub dep_updates: u64,
    /// Full δ recomputations (absorbing cell overtook its own dependency).
    pub dep_recomputes: u64,
    /// Accumulated wall-clock nanoseconds in dependency maintenance —
    /// the quantity Fig 11 plots.
    pub dep_update_nanos: u64,
    /// Cells moved reservoir → DP-Tree (emergence).
    pub activations: u64,
    /// Cells moved DP-Tree → reservoir (decay).
    pub deactivations: u64,
    /// Outdated cells deleted from the reservoir (Theorem 3 recycling).
    pub recycled: u64,
    /// Evolution events recorded.
    pub events: u64,
    /// Cells whose distance the neighbor index actually computed during
    /// assignment scans.
    pub index_probed: u64,
    /// Cells the neighbor index skipped during assignment scans (live
    /// cells minus probes) — zero under
    /// [`crate::index::NeighborIndexKind::LinearScan`].
    pub index_pruned: u64,
    /// Maintenance cadences on which the cover tree re-tightened its
    /// covering radii (each invalidates the parallel committer's cached
    /// probes). Always zero on the grid and the linear scan, which keep a
    /// fixed layout. The name predates that: it is kept because the
    /// repository benchmark reads the field as `index.grid_rebuilds`.
    pub grid_rebuilds: u64,
    /// Assignment probes computed by the parallel probe phase of
    /// `insert_batch` (phase 1 of probe-then-commit; zero when
    /// `ingest_threads` is 1).
    pub probe_tasks: u64,
    /// Pre-computed probes the commit phase had to redo serially because
    /// an earlier commit in the same batch touched their neighborhood
    /// (cell births nearby, recycling, or a cover-tree re-tightening).
    /// High values mean the workload creates/recycles too much for the
    /// batch size — the two-phase path degrades toward serial cost, never
    /// toward wrong output.
    pub probe_revalidations: u64,
    /// Batches (sub-batches of `insert_batch`) that took the two-phase
    /// probe-then-commit path instead of the serial per-point loop.
    pub parallel_batches: u64,
    /// Snapshots published through `EdmStream::publish_snapshot` — the
    /// serving tier's publication cadence, visible in the same counters
    /// every other engine activity reports through. Plain `snapshot()`
    /// freezes are *not* counted: they are private reads, not
    /// publications. Serde-defaulted so stats persisted before the field
    /// existed still load.
    #[serde(default)]
    pub snapshots_published: u64,
    /// Cached parallel probes the commit phase *kept* after a cell birth
    /// in the same batch, because the index's conflict geometry proved
    /// the birth could not have reached the probe's neighborhood. Before
    /// the per-index horizons, every one of these would have been a
    /// serial revalidation — the counter meters what the finer
    /// `probe_conflicts` checks save. Zero when `ingest_threads` is 1.
    /// Serde-defaulted so stats persisted before the field existed still
    /// load.
    #[serde(default)]
    pub probe_revalidations_avoided: u64,
    /// Neighbor-index backend switches. Always zero: the engine picks its
    /// index once, at construction, and never switches it. Kept because
    /// the repository benchmark reads the field as `index.switches`.
    /// Serde-defaulted so stats persisted before the field existed still
    /// load.
    #[serde(default)]
    pub index_switches: u64,
    /// Rounds the persistent ingest worker pool dispatched to its parked
    /// workers — one wake/park cycle each (inline degenerate rounds are
    /// not counted: nobody was woken). Before PR 9 every one of these was
    /// a `thread::scope` spawn/join; now it is a condvar signal, and this
    /// counter is how that coordination cost stays observable. Zero when
    /// `ingest_threads` is 1. Serde-defaulted so stats persisted before
    /// the field existed still load.
    #[serde(default)]
    pub pool_rounds: u64,
}

impl EngineStats {
    /// Accumulated dependency-update time in milliseconds (Fig 11's y-axis).
    pub fn dep_update_millis(&self) -> f64 {
        self.dep_update_nanos as f64 / 1e6
    }

    /// Fraction of candidates each filter removed — a quick health check
    /// that the theorems are actually pruning work.
    pub fn filter_rate(&self) -> f64 {
        if self.dep_candidates == 0 {
            0.0
        } else {
            (self.filtered_density + self.filtered_triangle) as f64 / self.dep_candidates as f64
        }
    }

    /// A copy with every field exempt from the **parallel == serial
    /// observational-equivalence contract** zeroed: the parallel-path
    /// counters (`probe_tasks`, `probe_revalidations`,
    /// `probe_revalidations_avoided`, `parallel_batches`, `pool_rounds`)
    /// describe *who computed* the work
    /// rather than clustering output, `dep_update_nanos` is wall clock,
    /// and `snapshots_published` counts how often the state was
    /// *observed* (published) rather than what was clustered. All other
    /// counters must match exactly between a serial and a parallel (or
    /// served) ingestion of the same stream — the equivalence suites
    /// compare through this one normalizer, so this method *is* the
    /// exemption list.
    pub fn normalized_for_equivalence(&self) -> EngineStats {
        EngineStats {
            probe_tasks: 0,
            probe_revalidations: 0,
            probe_revalidations_avoided: 0,
            parallel_batches: 0,
            pool_rounds: 0,
            dep_update_nanos: 0,
            snapshots_published: 0,
            ..self.clone()
        }
    }

    /// Fraction of parallel probe tasks the commit phase had to redo
    /// serially — how often batch-internal structural churn invalidated
    /// phase-1 work. Near 0 in absorb-dominated steady state; rising
    /// values say the batch size outruns the workload's stability.
    pub fn probe_revalidation_rate(&self) -> f64 {
        if self.probe_tasks == 0 {
            0.0
        } else {
            self.probe_revalidations as f64 / self.probe_tasks as f64
        }
    }

    /// Fraction of live cells the neighbor index skipped during assignment
    /// scans — how much the grid index is actually buying.
    pub fn index_prune_rate(&self) -> f64 {
        let total = self.index_probed + self.index_pruned;
        if total == 0 {
            0.0
        } else {
            self.index_pruned as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_fig11_series() {
        assert_eq!(FilterConfig::none().label(), "wf");
        assert_eq!(FilterConfig::density_only().label(), "df");
        assert_eq!(FilterConfig::all().label(), "df+tif");
    }

    #[test]
    fn default_enables_both_filters() {
        let f = FilterConfig::default();
        assert!(f.density && f.triangle);
    }

    #[test]
    fn stats_derived_quantities() {
        let s = EngineStats {
            dep_candidates: 100,
            filtered_density: 60,
            filtered_triangle: 20,
            dep_update_nanos: 2_500_000,
            ..Default::default()
        };
        assert!((s.filter_rate() - 0.8).abs() < 1e-12);
        assert!((s.dep_update_millis() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = EngineStats::default();
        assert_eq!(s.filter_rate(), 0.0);
        assert_eq!(s.dep_update_millis(), 0.0);
        assert_eq!(s.index_prune_rate(), 0.0);
        assert_eq!(s.probe_revalidation_rate(), 0.0);
    }

    #[test]
    fn probe_revalidation_rate_is_redone_over_tasks() {
        let s = EngineStats { probe_tasks: 200, probe_revalidations: 30, ..Default::default() };
        assert!((s.probe_revalidation_rate() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn index_prune_rate_is_pruned_over_scanned() {
        let s = EngineStats { index_probed: 25, index_pruned: 75, ..Default::default() };
        assert!((s.index_prune_rate() - 0.75).abs() < 1e-12);
    }
}
