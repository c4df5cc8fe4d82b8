//! Open-loop scheduling and the staleness arithmetic built on it.
//!
//! An open-loop generator issues event `k` at its due time
//! `start + k · period`, whether or not the system kept up. Latencies are
//! measured from the due time, so a stall that delays later events counts
//! against every one of them; how late the generator itself ran is
//! reported next to them (`gen.lateness_p99_us`).

use std::time::{Duration, Instant};

/// Default spin margin: sleep ends this long before a due time and the
/// rest is spun, because a plain sleep overshoots by the kernel's timer
/// slack (~50 µs).
pub const SPIN_MARGIN: Duration = Duration::from_micros(100);

/// A fixed-rate schedule: event `k` is due `k · period` after `start`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period_ns: f64,
}

impl Schedule {
    /// A schedule of `rate` events per second starting at `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        assert!(rate > 0.0, "open-loop rate must be positive");
        Schedule { start, period_ns: 1e9 / rate }
    }

    /// When event `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        self.start + Duration::from_nanos(self.offset_ns(k))
    }

    /// Due time of event `k`, in nanoseconds after the start.
    pub fn offset_ns(&self, k: u64) -> u64 {
        (k as f64 * self.period_ns).round() as u64
    }
}

/// Blocks until `due`, sleeping until `margin` before it and spinning the
/// rest, and returns how late the caller got there.
pub fn wait_until(due: Instant, margin: Duration) -> Duration {
    loop {
        let now = Instant::now();
        if now >= due {
            return now - due;
        }
        let left = due - now;
        if left > margin {
            std::thread::sleep(left - margin);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Maps a published snapshot's stream time back to wall-clock due times.
///
/// Batch `b` holds stream points whose newest timestamp is `last_ts[b]` and
/// was due (handed to the system) `due_ns[b]` after the schedule start. The
/// writer commits and publishes whole batches, so a snapshot whose
/// `as_of` equals `last_ts[b]` reflects every point up to batch `b`.
#[derive(Debug, Clone, Default)]
pub struct DueIndex {
    last_ts: Vec<f64>,
    due_ns: Vec<u64>,
}

impl DueIndex {
    /// Builds the index; `last_ts` must be non-decreasing.
    pub fn new(last_ts: Vec<f64>, due_ns: Vec<u64>) -> Self {
        assert_eq!(last_ts.len(), due_ns.len(), "one due time per batch");
        assert!(last_ts.windows(2).all(|w| w[0] <= w[1]), "batches must be in stream order");
        DueIndex { last_ts, due_ns }
    }

    /// The newest batch a snapshot at stream time `as_of` reflects, if any.
    pub fn newest_visible(&self, as_of: f64) -> Option<usize> {
        self.last_ts.partition_point(|&t| t <= as_of).checked_sub(1)
    }

    /// Due time of batch `b`, in nanoseconds after the schedule start.
    pub fn due_ns(&self, b: usize) -> u64 {
        self.due_ns[b]
    }

    /// Staleness at wall offset `now_ns` (after the schedule start) of a
    /// snapshot at stream time `as_of`: how long ago the newest point it
    /// reflects was due. `None` before the first batch is visible.
    pub fn staleness_ns(&self, as_of: f64, now_ns: u64) -> Option<u64> {
        self.newest_visible(as_of).map(|b| now_ns.saturating_sub(self.due_ns[b]))
    }
}

/// Nanoseconds from `start` to `t` (0 when `t` is earlier).
pub fn ns_since(start: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(start).as_nanos() as u64
}
