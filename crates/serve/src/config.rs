//! Serving-tier configuration: queue sizing, backpressure, publication
//! cadence.

use std::num::{NonZeroU64, NonZeroUsize};
use std::time::Duration;

/// What [`crate::EdmServer::ingest`] does when the bounded queue is full.
///
/// | Policy | Producer sees | Data loss | Use when |
/// |---|---|---|---|
/// | `Block` | waits for queue space | none | the producer can tolerate latency (offline replay, batch ETL) |
/// | `DropOldest` | `Ok`, oldest queued batch discarded | oldest unprocessed data | freshest-data-wins telemetry; staleness is worse than loss |
/// | `Reject` | `Err(QueueFull)` immediately | caller's choice | the producer has its own retry/shed logic |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the producer until the writer frees a slot (lossless).
    #[default]
    Block,
    /// Drop the oldest queued batch to make room (bounded staleness,
    /// lossy). Dropped points are counted in
    /// [`crate::ServeStats::dropped_points`].
    DropOldest,
    /// Fail fast with [`crate::ServeError::QueueFull`], leaving the queue
    /// untouched. Rejected points are counted in
    /// [`crate::ServeStats::rejected_points`].
    Reject,
}

/// Configuration of [`crate::EdmServer::spawn`].
///
/// Build one with [`ServeConfig::builder`] — plain integers in, typed
/// [`ServeConfigError`] out, mirroring `EdmConfigBuilder`:
///
/// ```
/// use edm_serve::{BackpressurePolicy, ServeConfig};
/// let cfg = ServeConfig::builder()
///     .queue_capacity(128)
///     .publish_every_batches(4)
///     .policy(BackpressurePolicy::DropOldest)
///     .build()?;
/// assert_eq!(cfg.queue_capacity.get(), 128);
/// # Ok::<(), edm_serve::ServeConfigError>(())
/// ```
///
/// Struct-literal construction still compiles (the fields are `NonZero`,
/// so a literal is valid by construction) but is a legacy spelling —
/// prefer the builder, which takes plain numbers and reports mistakes as
/// [`ServeConfigError`] values instead of forcing `NonZero::new(…)
/// .unwrap()` at every call site. The defaults — 64-batch queue, publish
/// after every batch, no timer, `Block` — serve fresh snapshots
/// losslessly and suit tests and demos; production ingest at high rate
/// usually raises `publish_every_batches`. A publication shares each
/// cluster whose members did not change with the previous payload, but it
/// still recomputes every active cell's decayed density and every
/// cluster's centroid, so its cost grows with the active cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bounded ingest queue capacity, **in batches** (whatever batch
    /// granularity the producer pushes). Bounds both memory and the
    /// worst-case snapshot staleness under `Block`.
    pub queue_capacity: NonZeroUsize,
    /// Publish a fresh snapshot after every K ingested batches.
    pub publish_every_batches: NonZeroU64,
    /// Additionally publish whenever this much wall-clock time passed
    /// since the last publication — keeps `snapshot_age` bounded on idle
    /// or slow streams. `None` disables the timer (publication is then
    /// purely batch-driven).
    pub publish_interval: Option<Duration>,
    /// Full-queue behavior.
    pub policy: BackpressurePolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: NonZeroUsize::new(64).unwrap(),
            publish_every_batches: NonZeroU64::new(1).unwrap(),
            publish_interval: None,
            policy: BackpressurePolicy::Block,
        }
    }
}

impl ServeConfig {
    /// A builder starting from the defaults.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder::default()
    }
}

/// Why a serving-tier configuration was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `queue_capacity` must be ≥ 1 batch (a zero-capacity queue could
    /// never admit work).
    ZeroQueueCapacity,
    /// `publish_every_batches` must be ≥ 1 (a zero cadence would never
    /// publish).
    ZeroPublishEveryBatches,
    /// `publish_interval` must be positive when set (a zero interval
    /// would spin the writer on publications).
    ZeroPublishInterval,
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeConfigError::ZeroQueueCapacity => {
                write!(f, "queue_capacity must be at least 1 batch")
            }
            ServeConfigError::ZeroPublishEveryBatches => {
                write!(f, "publish_every_batches must be at least 1")
            }
            ServeConfigError::ZeroPublishInterval => {
                write!(f, "publish_interval must be positive when set")
            }
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// Fallible builder for [`ServeConfig`] — plain numbers in, typed
/// [`ServeConfigError`] out (the `EdmConfigBuilder` pattern applied to
/// the serving tier). Obtain via [`ServeConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    queue_capacity: usize,
    publish_every_batches: u64,
    publish_interval: Option<Duration>,
    policy: BackpressurePolicy,
}

impl Default for ServeConfigBuilder {
    fn default() -> Self {
        let d = ServeConfig::default();
        ServeConfigBuilder {
            queue_capacity: d.queue_capacity.get(),
            publish_every_batches: d.publish_every_batches.get(),
            publish_interval: d.publish_interval,
            policy: d.policy,
        }
    }
}

impl ServeConfigBuilder {
    /// Bounded ingest queue capacity, in batches (≥ 1).
    pub fn queue_capacity(mut self, batches: usize) -> Self {
        self.queue_capacity = batches;
        self
    }

    /// Publish a fresh snapshot after every K ingested batches (≥ 1).
    pub fn publish_every_batches(mut self, k: u64) -> Self {
        self.publish_every_batches = k;
        self
    }

    /// Additionally publish whenever this much wall-clock time passed
    /// since the last publication (must be positive). See
    /// [`ServeConfig::publish_interval`].
    pub fn publish_interval(mut self, interval: Duration) -> Self {
        self.publish_interval = Some(interval);
        self
    }

    /// Full-queue behavior.
    pub fn policy(mut self, policy: BackpressurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<ServeConfig, ServeConfigError> {
        let queue_capacity =
            NonZeroUsize::new(self.queue_capacity).ok_or(ServeConfigError::ZeroQueueCapacity)?;
        let publish_every_batches = NonZeroU64::new(self.publish_every_batches)
            .ok_or(ServeConfigError::ZeroPublishEveryBatches)?;
        if self.publish_interval.is_some_and(|dt| dt.is_zero()) {
            return Err(ServeConfigError::ZeroPublishInterval);
        }
        Ok(ServeConfig {
            queue_capacity,
            publish_every_batches,
            publish_interval: self.publish_interval,
            policy: self.policy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_lossless_and_fresh() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.queue_capacity.get(), 64);
        assert_eq!(cfg.publish_every_batches.get(), 1);
        assert!(cfg.publish_interval.is_none());
        assert_eq!(cfg.policy, BackpressurePolicy::Block);
        assert_eq!(BackpressurePolicy::default(), BackpressurePolicy::Block);
    }

    #[test]
    fn builder_defaults_match_the_struct_defaults() {
        let built = ServeConfig::builder().build().unwrap();
        let def = ServeConfig::default();
        assert_eq!(built.queue_capacity, def.queue_capacity);
        assert_eq!(built.publish_every_batches, def.publish_every_batches);
        assert_eq!(built.publish_interval, def.publish_interval);
        assert_eq!(built.policy, def.policy);
    }

    #[test]
    fn builder_applies_every_knob() {
        let cfg = ServeConfig::builder()
            .queue_capacity(7)
            .publish_every_batches(3)
            .publish_interval(Duration::from_millis(20))
            .policy(BackpressurePolicy::Reject)
            .build()
            .unwrap();
        assert_eq!(cfg.queue_capacity.get(), 7);
        assert_eq!(cfg.publish_every_batches.get(), 3);
        assert_eq!(cfg.publish_interval, Some(Duration::from_millis(20)));
        assert_eq!(cfg.policy, BackpressurePolicy::Reject);
    }

    #[test]
    fn builder_rejections_are_typed_per_field() {
        assert_eq!(
            ServeConfig::builder().queue_capacity(0).build(),
            Err(ServeConfigError::ZeroQueueCapacity)
        );
        assert_eq!(
            ServeConfig::builder().publish_every_batches(0).build(),
            Err(ServeConfigError::ZeroPublishEveryBatches)
        );
        assert_eq!(
            ServeConfig::builder().publish_interval(Duration::ZERO).build(),
            Err(ServeConfigError::ZeroPublishInterval)
        );
        assert!(ServeConfigError::ZeroQueueCapacity.to_string().contains("queue_capacity"));
    }
}
