//! Engine configuration: the builder, the validated config, and the typed
//! configuration errors.
//!
//! Configurations are constructed through [`EdmConfig::builder`], whose
//! [`EdmConfigBuilder::build`] validates every parameter and returns a
//! typed [`ConfigError`] instead of panicking. A built [`EdmConfig`] is
//! immutable from the outside (read access through getters); derive a
//! modified copy with [`EdmConfig::to_builder`]. This is what lets
//! [`crate::EdmStream::new`] accept any `EdmConfig` without a failure
//! path: the builder cannot emit an invalid combination. Code ingesting
//! configs from *outside* the builder (deserialization, FFI) must gate
//! them through [`EdmConfig::check`] first.

use edm_common::decay::DecayModel;
use serde::{Deserialize, Serialize};

use crate::filters::FilterConfig;
use crate::index::NeighborIndexKind;
use crate::tau::TauMode;

/// Default bound on the buffered evolution-event backlog.
pub const DEFAULT_EVENT_CAPACITY: usize = 16_384;

/// Default bound on the sealed per-generation digest history.
pub const DEFAULT_DIGEST_HISTORY: usize = 64;

/// A rejected engine configuration (from [`EdmConfigBuilder::build`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// Cluster-cell radius `r` must be positive.
    NonPositiveRadius {
        /// The offending radius.
        r: f64,
    },
    /// Stream rate `v` must be positive.
    NonPositiveRate {
        /// The offending rate.
        rate: f64,
    },
    /// β outside the admissible range of the paper's §4.3 (the active
    /// threshold must sit strictly between one fresh point and the total
    /// stream mass).
    BetaOutOfRange {
        /// The offending β.
        beta: f64,
        /// Exclusive lower admissible bound.
        lo: f64,
        /// Exclusive upper admissible bound.
        hi: f64,
    },
    /// The initialization buffer must hold at least one point.
    ZeroInitPoints,
    /// The τ re-optimization cadence must be positive.
    ZeroTauEvery,
    /// The maintenance cadence must be positive.
    ZeroMaintenanceEvery,
    /// A static τ must be positive.
    NonPositiveStaticTau {
        /// The offending τ.
        tau: f64,
    },
    /// An explicit τ₀ pick must be positive.
    NonPositiveTau0 {
        /// The offending τ₀.
        tau: f64,
    },
    /// An explicit reservoir recycling horizon must be positive.
    NonPositiveRecycleHorizon {
        /// The offending horizon, in seconds.
        seconds: f64,
    },
    /// The evolution-event buffer needs room for at least one event.
    ZeroEventCapacity,
    /// The digest history needs room for at least one generation record.
    ZeroDigestHistory,
    /// Batch ingest needs at least one thread. Unreachable through the
    /// builder (whose setter takes a [`std::num::NonZeroUsize`]); guards
    /// configs smuggled in from deserialization/FFI.
    ZeroIngestThreads,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonPositiveRadius { r } => {
                write!(f, "cell radius must be positive (got {r})")
            }
            ConfigError::NonPositiveRate { rate } => {
                write!(f, "stream rate must be positive (got {rate})")
            }
            ConfigError::BetaOutOfRange { beta, lo, hi } => {
                write!(f, "beta {beta} outside admissible range ({lo:e}, {hi})")
            }
            ConfigError::ZeroInitPoints => write!(f, "init_points must be positive"),
            ConfigError::ZeroTauEvery => write!(f, "tau_every must be positive"),
            ConfigError::ZeroMaintenanceEvery => {
                write!(f, "maintenance_every must be positive")
            }
            ConfigError::NonPositiveStaticTau { tau } => {
                write!(f, "static tau must be positive (got {tau})")
            }
            ConfigError::NonPositiveTau0 { tau } => write!(f, "tau0 must be positive (got {tau})"),
            ConfigError::NonPositiveRecycleHorizon { seconds } => {
                write!(f, "recycle_horizon must be positive (got {seconds} s)")
            }
            ConfigError::ZeroEventCapacity => write!(f, "event_capacity must be positive"),
            ConfigError::ZeroDigestHistory => write!(f, "digest_history must be positive"),
            ConfigError::ZeroIngestThreads => {
                write!(f, "batch ingest needs at least one thread")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validated configuration of the EDMStream engine.
///
/// Defaults reproduce the paper's §6.1 setup: `a = 0.998`, `λ = 1`,
/// `β = 0.0021`, stream rate 1,000 pt/s, both update filters on, adaptive τ
/// with α learned from the initial decision graph.
///
/// ```
/// use edm_core::EdmConfig;
///
/// let cfg = EdmConfig::builder(0.5).rate(100.0).beta(6e-5).build()?;
/// assert_eq!(cfg.r(), 0.5);
/// // Derive a variant without re-specifying everything:
/// let short = cfg.to_builder().event_capacity(64).build()?;
/// assert_eq!(short.event_capacity(), 64);
/// assert_eq!(short.r(), 0.5);
/// # Ok::<(), edm_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdmConfig {
    /// Cluster-cell radius `r` (paper Table 2 lists one per dataset; §6.7
    /// recommends the 0.5–2 % pairwise-distance quantile).
    pub(crate) r: f64,
    /// Decay model (paper Eq. 3).
    pub(crate) decay: DecayModel,
    /// Active-cell threshold factor β (paper §4.3).
    pub(crate) beta: f64,
    /// Expected stream rate `v` in points/sec.
    pub(crate) rate: f64,
    /// Points cached before the initialization step (paper §4.1).
    pub(crate) init_points: usize,
    /// τ policy (static or adaptive; paper §5).
    pub(crate) tau_mode: TauMode,
    /// The "user's pick" τ₀; `None` uses the largest-gap heuristic.
    pub(crate) tau0: Option<f64>,
    /// Re-optimize τ every this many points (adaptive mode only).
    pub(crate) tau_every: u64,
    /// Run the decay/recycling sweep every this many points.
    pub(crate) maintenance_every: u64,
    /// Dependency-update filters (paper Theorems 1–2; Fig 11 ablation).
    pub(crate) filters: FilterConfig,
    /// Override for the reservoir recycling horizon in seconds.
    pub(crate) recycle_horizon: Option<f64>,
    /// Scale the activation threshold by the stream's accumulated mass.
    pub(crate) age_adjusted_threshold: bool,
    /// Bound on the buffered evolution-event backlog; oldest events are
    /// evicted past it (see `EdmStream::take_events` / `events_since`).
    pub(crate) event_capacity: usize,
    /// Bound on the sealed per-generation digest history (how far back
    /// `EdmStream::digest_since` can reach, in published generations).
    /// Defaulted on deserialization so configs persisted before the
    /// field existed still load.
    #[serde(default = "default_digest_history")]
    pub(crate) digest_history: usize,
    /// Neighbor-index backing for cell assignment and dependency search;
    /// `None` leaves the pick to the engine. Defaulted on deserialization
    /// so configs persisted before the field existed still load.
    #[serde(default)]
    pub(crate) neighbor_index: Option<NeighborIndexKind>,
    /// Worker threads for the probe phase of batch ingest (1 = the plain
    /// serial per-point loop). Stored as a plain `usize` for serde
    /// compatibility; the builder setter takes a `NonZeroUsize` so zero is
    /// unrepresentable through the API, and [`EdmConfig::check`] rejects
    /// smuggled zeros.
    #[serde(default = "default_ingest_threads")]
    pub(crate) ingest_threads: usize,
}

/// Serde default for [`EdmConfig::digest_history`]: configs persisted
/// before the field existed load with the default window.
fn default_digest_history() -> usize {
    DEFAULT_DIGEST_HISTORY
}

/// Serde default for [`EdmConfig::ingest_threads`]: configs persisted
/// before the field existed load as serial batch ingest.
fn default_ingest_threads() -> usize {
    1
}

impl EdmConfig {
    /// Starts a builder from the paper-default configuration for a dataset
    /// with cell radius `r`.
    pub fn builder(r: f64) -> EdmConfigBuilder {
        EdmConfigBuilder {
            cfg: EdmConfig {
                r,
                decay: DecayModel::paper_default(),
                beta: 0.0021,
                rate: 1_000.0,
                init_points: 1_000,
                tau_mode: TauMode::Adaptive { alpha: None },
                tau0: None,
                tau_every: 256,
                maintenance_every: 64,
                filters: FilterConfig::all(),
                recycle_horizon: None,
                age_adjusted_threshold: true,
                event_capacity: DEFAULT_EVENT_CAPACITY,
                digest_history: default_digest_history(),
                neighbor_index: None,
                ingest_threads: default_ingest_threads(),
            },
        }
    }

    /// A builder pre-loaded with this configuration, for deriving variants.
    pub fn to_builder(&self) -> EdmConfigBuilder {
        EdmConfigBuilder { cfg: self.clone() }
    }

    /// Re-checks every parameter, returning the same verdicts as
    /// [`EdmConfigBuilder::build`].
    ///
    /// The builder is the only safe construction path, but a config can
    /// still arrive from outside it (deserialization, FFI); boundary code
    /// ingesting such configs should call this before handing them to the
    /// engine, which only debug-asserts validity.
    pub fn check(&self) -> Result<(), ConfigError> {
        // NaN counts as non-positive: reject anything not strictly above 0.
        if self.r <= 0.0 || self.r.is_nan() {
            return Err(ConfigError::NonPositiveRadius { r: self.r });
        }
        if self.rate <= 0.0 || self.rate.is_nan() {
            return Err(ConfigError::NonPositiveRate { rate: self.rate });
        }
        let (lo, hi) = self.decay.beta_range(self.rate);
        if !(self.beta > lo && self.beta < hi) {
            return Err(ConfigError::BetaOutOfRange { beta: self.beta, lo, hi });
        }
        if self.init_points == 0 {
            return Err(ConfigError::ZeroInitPoints);
        }
        if self.tau_every == 0 {
            return Err(ConfigError::ZeroTauEvery);
        }
        if self.maintenance_every == 0 {
            return Err(ConfigError::ZeroMaintenanceEvery);
        }
        if let TauMode::Static(tau) = self.tau_mode {
            if tau <= 0.0 || tau.is_nan() {
                return Err(ConfigError::NonPositiveStaticTau { tau });
            }
        }
        if let Some(tau) = self.tau0.filter(|&t| t <= 0.0 || t.is_nan()) {
            return Err(ConfigError::NonPositiveTau0 { tau });
        }
        if let Some(seconds) = self.recycle_horizon.filter(|&s| s <= 0.0 || s.is_nan()) {
            return Err(ConfigError::NonPositiveRecycleHorizon { seconds });
        }
        if self.event_capacity == 0 {
            return Err(ConfigError::ZeroEventCapacity);
        }
        if self.digest_history == 0 {
            return Err(ConfigError::ZeroDigestHistory);
        }
        if self.ingest_threads == 0 {
            return Err(ConfigError::ZeroIngestThreads);
        }
        Ok(())
    }

    // ----- getters -----

    /// Cluster-cell radius `r`.
    pub fn r(&self) -> f64 {
        self.r
    }

    /// Decay model (paper Eq. 3).
    pub fn decay(&self) -> DecayModel {
        self.decay
    }

    /// Active-cell threshold factor β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Expected stream rate in points/sec.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Size of the initialization buffer.
    pub fn init_points(&self) -> usize {
        self.init_points
    }

    /// τ policy.
    pub fn tau_mode(&self) -> TauMode {
        self.tau_mode
    }

    /// Explicit τ₀ pick, if any.
    pub fn tau0(&self) -> Option<f64> {
        self.tau0
    }

    /// τ re-optimization cadence in points.
    pub fn tau_every(&self) -> u64 {
        self.tau_every
    }

    /// Maintenance sweep cadence in points.
    pub fn maintenance_every(&self) -> u64 {
        self.maintenance_every
    }

    /// Dependency-update filter configuration.
    pub fn filters(&self) -> FilterConfig {
        self.filters
    }

    /// Recycling-horizon override in seconds, if any.
    pub fn recycle_horizon(&self) -> Option<f64> {
        self.recycle_horizon
    }

    /// Whether the activation threshold is age-adjusted.
    pub fn age_adjusted_threshold(&self) -> bool {
        self.age_adjusted_threshold
    }

    /// Bound on the buffered evolution-event backlog.
    pub fn event_capacity(&self) -> usize {
        self.event_capacity
    }

    /// Bound on the sealed per-generation digest history.
    pub fn digest_history(&self) -> usize {
        self.digest_history
    }

    /// The requested neighbor-index backing for cell assignment and
    /// dependency search; `None` (the default) leaves the pick to the
    /// engine, which makes it when the stream's first cell enters the
    /// index. [`crate::EdmStream::index_label`] names the backend built.
    pub fn neighbor_index(&self) -> Option<NeighborIndexKind> {
        self.neighbor_index
    }

    /// Worker threads for the probe phase of batch ingest (1 = serial).
    pub fn ingest_threads(&self) -> usize {
        self.ingest_threads
    }

    // ----- derived quantities -----

    /// The active-cell density threshold `β·v/(1−a^λ)` this config implies.
    pub fn active_threshold(&self) -> f64 {
        self.decay.active_threshold(self.beta, self.rate)
    }

    /// The safe-deletion horizon ΔT_del this config implies (Theorem 3,
    /// unless overridden by `recycle_horizon`).
    pub fn delta_t_del(&self) -> f64 {
        self.recycle_horizon.unwrap_or_else(|| self.decay.delta_t_del(self.beta, self.rate))
    }

    /// Theoretical reservoir bound `ΔT_del·v + 1/β` (paper §4.4, Fig 16).
    pub fn reservoir_bound(&self) -> f64 {
        self.delta_t_del() * self.rate + 1.0 / self.beta
    }
}

/// Builder for [`EdmConfig`]; start from [`EdmConfig::builder`] or
/// [`EdmConfig::to_builder`], chain setters, finish with
/// [`EdmConfigBuilder::build`]. Wraps an unvalidated config, so adding a
/// field touches only the struct, its getter, and its setter.
#[derive(Debug, Clone)]
pub struct EdmConfigBuilder {
    cfg: EdmConfig,
}

impl EdmConfigBuilder {
    /// Sets the cluster-cell radius `r`.
    pub fn r(mut self, r: f64) -> Self {
        self.cfg.r = r;
        self
    }

    /// Sets the decay model (paper Eq. 3).
    pub fn decay(mut self, decay: DecayModel) -> Self {
        self.cfg.decay = decay;
        self
    }

    /// Sets the active-cell threshold factor β (paper §4.3).
    pub fn beta(mut self, beta: f64) -> Self {
        self.cfg.beta = beta;
        self
    }

    /// Sets the expected stream rate `v` in points/sec.
    pub fn rate(mut self, rate: f64) -> Self {
        self.cfg.rate = rate;
        self
    }

    /// Sets β so the steady-state activation threshold equals `thr`
    /// decayed points under the builder's *current* decay model and rate —
    /// call after [`EdmConfigBuilder::decay`] / [`EdmConfigBuilder::rate`].
    /// Test and demo configs use this to pin "a cell stays active on ~N
    /// sustained points" without re-deriving the decay algebra.
    pub fn beta_for_threshold(mut self, thr: f64) -> Self {
        self.cfg.beta = thr * (1.0 - self.cfg.decay.retention()) / self.cfg.rate;
        self
    }

    /// Sets the initialization-buffer size (paper §4.1).
    pub fn init_points(mut self, n: usize) -> Self {
        self.cfg.init_points = n;
        self
    }

    /// Sets the τ policy (paper §5).
    pub fn tau_mode(mut self, mode: TauMode) -> Self {
        self.cfg.tau_mode = mode;
        self
    }

    /// Pins the "user's pick" τ₀ from the initial decision graph; `None`
    /// restores the default (simulating the interaction with the
    /// largest-gap heuristic). A pick must be positive
    /// ([`ConfigError::NonPositiveTau0`]; NaN is rejected, +∞ accepted).
    pub fn tau0(mut self, tau0: impl Into<Option<f64>>) -> Self {
        self.cfg.tau0 = tau0.into();
        self
    }

    /// Sets the τ re-optimization cadence in points (adaptive mode only).
    pub fn tau_every(mut self, every: u64) -> Self {
        self.cfg.tau_every = every;
        self
    }

    /// Sets the decay/recycling sweep cadence in points.
    pub fn maintenance_every(mut self, every: u64) -> Self {
        self.cfg.maintenance_every = every;
        self
    }

    /// Sets the dependency-update filters (Fig 11 ablation).
    pub fn filters(mut self, filters: FilterConfig) -> Self {
        self.cfg.filters = filters;
        self
    }

    /// Overrides the reservoir recycling horizon in seconds; `None`
    /// restores the paper's Theorem 3 formula, which degenerates for
    /// strongly decaying configurations (large λ) — see the module docs.
    /// An override must be positive
    /// ([`ConfigError::NonPositiveRecycleHorizon`]; NaN is rejected, +∞
    /// accepted and never recycles).
    pub fn recycle_horizon(mut self, seconds: impl Into<Option<f64>>) -> Self {
        self.cfg.recycle_horizon = seconds.into();
        self
    }

    /// Enables/disables the age-adjusted activation threshold
    /// `thr(t) = β·v·(1−a^{λ·age})/(1−a^λ)`. The paper's fixed threshold is
    /// this formula's steady state; disable for the strict paper formula.
    pub fn age_adjusted_threshold(mut self, on: bool) -> Self {
        self.cfg.age_adjusted_threshold = on;
        self
    }

    /// Bounds the buffered evolution-event backlog (oldest events are
    /// evicted past the bound; drain with `EdmStream::take_events`).
    pub fn event_capacity(mut self, capacity: usize) -> Self {
        self.cfg.event_capacity = capacity;
        self
    }

    /// Bounds the sealed per-generation digest history: how many
    /// published generations `EdmStream::digest_since` /
    /// `digest_between` can reach back over. Each held generation costs
    /// one record (its interval's structural events plus the live
    /// cluster list); windows reaching past the bound fail with
    /// `EvolveError::EvictedGeneration` instead of answering partially.
    pub fn digest_history(mut self, generations: usize) -> Self {
        self.cfg.digest_history = generations;
        self
    }

    /// Requests the neighbor index backing cell assignment and dependency
    /// search; `None` restores the default, which leaves the pick to the
    /// engine. Either way the engine builds the index once, when the
    /// stream's first cell enters it, and never switches or re-tunes it.
    /// Left to the engine, payloads of at most
    /// [`crate::index::GRID_MAX_DIM`] coordinates get
    /// [`NeighborIndexKind::Grid`], which buckets seeds at side `r` and
    /// probes only the 3^d bucket shell around each point (sub-linear in
    /// cell count); higher-dimensional and coordinate-less payloads (token
    /// sets) get [`NeighborIndexKind::CoverTree`], which prunes through
    /// measured distances instead of coordinate geometry, because above
    /// 5-d the grid's shell degenerates into a sweep of every occupied
    /// bucket. A requested kind is built as asked, which is how tests and
    /// benches compare backends. The engine downgrades `Grid` to
    /// [`NeighborIndexKind::LinearScan`] unless the metric asserts the
    /// grid's soundness bound through
    /// [`edm_common::metric::Metric::dominates_coordinate_axes`] (see
    /// [`edm_common::point::GridCoords`]), and `CoverTree` unless it
    /// asserts the triangle inequality through
    /// [`edm_common::metric::Metric::is_metric`] — so custom metrics stay
    /// exact without touching this knob.
    pub fn neighbor_index(mut self, kind: impl Into<Option<NeighborIndexKind>>) -> Self {
        self.cfg.neighbor_index = kind.into();
        self
    }

    /// Worker threads for the **probe phase** of [`crate::EdmStream::insert_batch`]
    /// (and `try_insert_batch`). The default of 1 keeps batch ingest on the
    /// exact serial per-point loop; any higher count fans the batch's
    /// read-only assignment probes out across that many threads (the
    /// caller plus a persistent worker pool), while the commit phase stays serial in timestamp order and
    /// re-probes any point whose neighborhood an earlier commit touched —
    /// so clustering output is observationally identical to the serial
    /// loop at every thread count (see the engine's threading-model docs).
    /// Taking a `NonZeroUsize` keeps a zero thread count unrepresentable
    /// through the builder.
    pub fn ingest_threads(mut self, threads: std::num::NonZeroUsize) -> Self {
        self.cfg.ingest_threads = threads.get();
        self
    }

    /// Validates the parameters and produces the configuration.
    pub fn build(self) -> Result<EdmConfig, ConfigError> {
        self.cfg.check()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_consistent() {
        let cfg = EdmConfig::builder(0.3).build().unwrap();
        assert!((cfg.active_threshold() - 1050.0).abs() < 1e-6);
        assert!(cfg.delta_t_del() > 0.0);
        assert!(cfg.reservoir_bound() > cfg.delta_t_del() * cfg.rate());
        assert_eq!(cfg.event_capacity(), DEFAULT_EVENT_CAPACITY);
        assert_eq!(cfg.digest_history(), DEFAULT_DIGEST_HISTORY);
    }

    #[test]
    fn digest_history_is_settable_and_rejects_zero() {
        let cfg = EdmConfig::builder(0.5).digest_history(8).build().unwrap();
        assert_eq!(cfg.digest_history(), 8);
        assert_eq!(
            EdmConfig::builder(0.5).digest_history(0).build().unwrap_err(),
            ConfigError::ZeroDigestHistory
        );
        assert!(ConfigError::ZeroDigestHistory.to_string().contains("digest_history"));
    }

    #[test]
    fn rejects_zero_radius() {
        assert_eq!(
            EdmConfig::builder(0.0).build().unwrap_err(),
            ConfigError::NonPositiveRadius { r: 0.0 }
        );
    }

    #[test]
    fn rejects_beta_below_lower_bound() {
        match EdmConfig::builder(1.0).beta(1e-9).build() {
            Err(ConfigError::BetaOutOfRange { beta, lo, .. }) => {
                assert_eq!(beta, 1e-9);
                assert!(lo > 1e-9 || beta <= lo);
            }
            other => panic!("expected BetaOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn rejects_nonpositive_static_tau() {
        let err = EdmConfig::builder(1.0).tau_mode(TauMode::Static(0.0)).build().unwrap_err();
        assert_eq!(err, ConfigError::NonPositiveStaticTau { tau: 0.0 });
    }

    #[test]
    fn beta_can_be_tuned_for_short_streams() {
        // Short demo streams (SDS) need a lower activation threshold; the
        // admissible range allows it.
        let cfg = EdmConfig::builder(0.3).beta(1e-4).build().unwrap();
        assert!((cfg.active_threshold() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn to_builder_round_trips() {
        let cfg = EdmConfig::builder(0.7)
            .rate(250.0)
            .beta(1e-4)
            .init_points(64)
            .tau0(3.5)
            .recycle_horizon(12.0)
            .event_capacity(128)
            .build()
            .unwrap();
        let copy = cfg.to_builder().build().unwrap();
        assert_eq!(copy.r(), 0.7);
        assert_eq!(copy.rate(), 250.0);
        assert_eq!(copy.tau0(), Some(3.5));
        assert_eq!(copy.recycle_horizon(), Some(12.0));
        assert_eq!(copy.event_capacity(), 128);
    }

    #[test]
    fn beta_for_threshold_targets_the_active_threshold() {
        let cfg = EdmConfig::builder(0.5).rate(100.0).beta_for_threshold(3.0).build().unwrap();
        assert!((cfg.active_threshold() - 3.0).abs() < 1e-9);
        // Order-sensitive: uses the decay/rate configured at call time.
        let fast = EdmConfig::builder(0.5)
            .rate(1_000.0)
            .decay(DecayModel::new(0.998, 200.0))
            .beta_for_threshold(10.0)
            .build()
            .unwrap();
        assert!((fast.active_threshold() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn option_setters_can_clear_overrides() {
        let cfg = EdmConfig::builder(0.5).tau0(2.0).recycle_horizon(9.0).build().unwrap();
        let cleared = cfg.to_builder().tau0(None).recycle_horizon(None).build().unwrap();
        assert_eq!(cleared.tau0(), None);
        assert_eq!(cleared.recycle_horizon(), None);
        assert!(cleared.check().is_ok());
    }

    #[test]
    fn default_neighbor_index_is_left_to_the_engine() {
        let cfg = EdmConfig::builder(0.5).build().unwrap();
        assert_eq!(cfg.neighbor_index(), None);
        let linear =
            cfg.to_builder().neighbor_index(NeighborIndexKind::LinearScan).build().unwrap();
        assert_eq!(linear.neighbor_index(), Some(NeighborIndexKind::LinearScan));
        assert_eq!(
            linear.to_builder().neighbor_index(None).build().unwrap().neighbor_index(),
            None
        );
    }

    #[test]
    fn rejects_nonpositive_tau0_and_recycle_horizon() {
        for bad in [0.0, -1.0, f64::NAN] {
            let err = EdmConfig::builder(0.5).tau0(bad).build().unwrap_err();
            assert!(matches!(err, ConfigError::NonPositiveTau0 { .. }), "{bad}: {err:?}");
            let err = EdmConfig::builder(0.5).recycle_horizon(bad).build().unwrap_err();
            assert!(matches!(err, ConfigError::NonPositiveRecycleHorizon { .. }), "{bad}: {err:?}");
            // Configs smuggled past the builder are caught by check().
            let mut smuggled = EdmConfig::builder(0.5).build().unwrap();
            smuggled.tau0 = Some(bad);
            assert!(matches!(smuggled.check(), Err(ConfigError::NonPositiveTau0 { .. })));
            smuggled.tau0 = None;
            smuggled.recycle_horizon = Some(bad);
            assert!(matches!(smuggled.check(), Err(ConfigError::NonPositiveRecycleHorizon { .. })));
        }
        // Every value in use stays valid, +∞ included (the static-τ rule).
        for ok in [2.0, 3.5, f64::INFINITY] {
            assert!(EdmConfig::builder(0.5).tau0(ok).build().is_ok(), "tau0 {ok}");
        }
        for ok in [2.0, 3_600.0, 1e6, f64::MAX, f64::INFINITY] {
            assert!(EdmConfig::builder(0.5).recycle_horizon(ok).build().is_ok(), "horizon {ok}");
        }
        assert!(ConfigError::NonPositiveTau0 { tau: -1.0 }.to_string().contains("-1"));
        assert!(ConfigError::NonPositiveRecycleHorizon { seconds: -2.0 }
            .to_string()
            .contains("-2"));
    }

    #[test]
    fn ingest_threads_default_to_one_and_reject_smuggled_zero() {
        let cfg = EdmConfig::builder(0.5).build().unwrap();
        assert_eq!(cfg.ingest_threads(), 1);
        let parallel = cfg
            .to_builder()
            .ingest_threads(std::num::NonZeroUsize::new(4).unwrap())
            .build()
            .unwrap();
        assert_eq!(parallel.ingest_threads(), 4);
        // A zero smuggled past the builder (deserialization/FFI) is caught
        // by check().
        let mut smuggled = parallel.clone();
        smuggled.ingest_threads = 0;
        assert_eq!(smuggled.check().unwrap_err(), ConfigError::ZeroIngestThreads);
    }

    #[test]
    fn errors_render_their_parameters() {
        let msg = ConfigError::NonPositiveRadius { r: -1.0 }.to_string();
        assert!(msg.contains("-1"), "{msg}");
        let msg = ConfigError::BetaOutOfRange { beta: 9.0, lo: 1e-6, hi: 0.5 }.to_string();
        assert!(msg.contains('9'), "{msg}");
    }
}
