//! The bounded ingest queue between producers and the writer thread.
//!
//! `std::sync::mpsc::sync_channel` bounds a queue but cannot express
//! [`BackpressurePolicy::DropOldest`] (no way to evict from the far end),
//! so the queue is a `Mutex<VecDeque>` with two condvars — the classic
//! bounded-buffer shape. Locking here is fine: the ISSUE's lock-freedom
//! requirement is about the **read path** (snapshot loads), which never
//! touches this queue.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use edm_common::point::GridCoords;
use edm_common::time::Timestamp;
use edm_core::{EdmError, PointGate};

use crate::config::BackpressurePolicy;

/// One queued unit of work: a timestamped batch, as handed to
/// `EdmStream::insert_batch`.
pub(crate) type Batch<P> = Vec<(P, Timestamp)>;

/// Result of [`BatchQueue::push`].
#[derive(Debug, PartialEq)]
pub(crate) enum PushOutcome {
    /// Batch accepted.
    Queued,
    /// Batch accepted after evicting the oldest queued batch
    /// (`DropOldest`); carries the number of points evicted.
    QueuedDroppingOldest(u64),
    /// Batch refused, queue untouched (`Reject`).
    Rejected,
    /// The queue is closed (shutdown started / writer gone).
    Closed,
    /// Batch refused, queue and gate untouched: the point at `index` is
    /// one the engine would refuse.
    Refused {
        /// Position of the offending point in the batch.
        index: usize,
        /// The engine's verdict on the point.
        error: EdmError,
    },
}

/// Result of [`BatchQueue::pop`].
#[derive(Debug)]
pub(crate) enum Popped<P> {
    /// A batch to ingest.
    Batch(Batch<P>),
    /// The timeout elapsed with the queue empty (used for timer-driven
    /// publication cadence).
    TimedOut,
    /// Queue closed *and* drained — the writer should finish up.
    Closed,
}

struct Inner<P> {
    queue: VecDeque<Batch<P>>,
    open: bool,
    /// Deepest the queue has ever been, in batches.
    hwm: usize,
    /// The engine's admission gate, moved past every point queued so far
    /// (its clock is the largest timestamp queued, the engine's stream
    /// time when nothing was): every queued point is admitted through it,
    /// in order, so the writer only ever sees points the engine accepts.
    gate: PointGate,
}

impl<P: GridCoords> Inner<P> {
    /// Admits `batch`'s points in order through a copy of the gate, as
    /// the engine's `try_insert_batch` would, and returns the gate after
    /// it.
    fn check(&self, batch: &Batch<P>) -> Result<PointGate, (usize, EdmError)> {
        let mut gate = self.gate;
        for (i, (p, t)) in batch.iter().enumerate() {
            gate.admit(p, *t).map_err(|e| (i, e))?;
        }
        Ok(gate)
    }
}

/// Bounded multi-producer / single-consumer batch queue with pluggable
/// full-queue behavior.
pub(crate) struct BatchQueue<P> {
    inner: Mutex<Inner<P>>,
    /// Signalled when a batch arrives or the queue closes.
    not_empty: Condvar,
    /// Signalled when a slot frees up or the queue closes.
    not_full: Condvar,
    capacity: usize,
}

impl<P> BatchQueue<P> {
    /// An empty queue whose gate starts as `gate`, the admission state of
    /// the engine it feeds.
    pub(crate) fn new(capacity: usize, gate: PointGate) -> Self {
        assert!(capacity > 0, "queue capacity is NonZeroUsize upstream");
        BatchQueue {
            inner: Mutex::new(Inner { queue: VecDeque::new(), open: true, hwm: 0, gate }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `batch` under `policy`, unless a point in it is one the
    /// engine would refuse after everything queued before it. Blocks only
    /// under [`BackpressurePolicy::Block`] with a full queue.
    pub(crate) fn push(&self, batch: Batch<P>, policy: BackpressurePolicy) -> PushOutcome
    where
        P: GridCoords,
    {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if !inner.open {
                return PushOutcome::Closed;
            }
            // Checked again after every wait: another producer's batch may
            // have moved the gate meanwhile.
            let gate = match inner.check(&batch) {
                Ok(gate) => gate,
                Err((index, error)) => return PushOutcome::Refused { index, error },
            };
            if inner.queue.len() < self.capacity {
                inner.gate = gate;
                inner.queue.push_back(batch);
                inner.hwm = inner.hwm.max(inner.queue.len());
                drop(inner);
                self.not_empty.notify_one();
                return PushOutcome::Queued;
            }
            match policy {
                BackpressurePolicy::Block => {
                    inner = self.not_full.wait(inner).unwrap();
                }
                BackpressurePolicy::DropOldest => {
                    // The evicted batch's timestamps stay on the gate's
                    // clock: the writer will never see them, but the
                    // points after them were checked against them.
                    let dropped = inner.queue.pop_front().map(|b| b.len() as u64).unwrap_or(0);
                    inner.gate = gate;
                    inner.queue.push_back(batch);
                    inner.hwm = inner.hwm.max(inner.queue.len());
                    drop(inner);
                    self.not_empty.notify_one();
                    return PushOutcome::QueuedDroppingOldest(dropped);
                }
                BackpressurePolicy::Reject => return PushOutcome::Rejected,
            }
        }
    }

    /// Dequeues the oldest batch, waiting up to `timeout` (forever when
    /// `None`). Keeps returning queued batches after `close` until the
    /// queue drains — that is the graceful-shutdown drain.
    pub(crate) fn pop(&self, timeout: Option<Duration>) -> Popped<P> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(batch) = inner.queue.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Popped::Batch(batch);
            }
            if !inner.open {
                return Popped::Closed;
            }
            match timeout {
                Some(dur) => {
                    let (guard, res) = self.not_empty.wait_timeout(inner, dur).unwrap();
                    inner = guard;
                    if res.timed_out() {
                        // Report the timeout even if a batch slipped in at
                        // the deadline; the caller just loops to pop it.
                        if inner.queue.is_empty() {
                            return Popped::TimedOut;
                        }
                    }
                }
                None => inner = self.not_empty.wait(inner).unwrap(),
            }
        }
    }

    /// Closes the queue: producers get [`PushOutcome::Closed`], the
    /// consumer drains what is left and then sees [`Popped::Closed`].
    pub(crate) fn close(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.open = false;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Discards all queued batches (panic path: unblock producers fast).
    pub(crate) fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.queue.clear();
        drop(inner);
        self.not_full.notify_all();
    }

    /// `(current depth, high-water mark)`, in batches.
    pub(crate) fn depth(&self) -> (usize, usize) {
        let inner = self.inner.lock().unwrap();
        (inner.queue.len(), inner.hwm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_common::point::DenseVector;
    use std::sync::Arc;
    use std::thread;

    /// A gate at `clock` that takes the coordinate count from the first
    /// point queued.
    fn at(clock: Timestamp) -> PointGate {
        PointGate::new(clock, None)
    }

    /// `n` 1-d points at one instant: valid after any batch these tests
    /// queue.
    fn batch(n: usize) -> Batch<DenseVector> {
        (0..n).map(|i| (DenseVector::from([i as f64]), 0.0)).collect()
    }

    #[test]
    fn fifo_order_and_hwm() {
        let q: BatchQueue<DenseVector> = BatchQueue::new(4, at(0.0));
        assert_eq!(q.push(batch(1), BackpressurePolicy::Reject), PushOutcome::Queued);
        assert_eq!(q.push(batch(2), BackpressurePolicy::Reject), PushOutcome::Queued);
        assert_eq!(q.depth(), (2, 2));
        match q.pop(None) {
            Popped::Batch(b) => assert_eq!(b.len(), 1),
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(q.depth(), (1, 2));
    }

    #[test]
    fn reject_policy_leaves_queue_untouched() {
        let q: BatchQueue<DenseVector> = BatchQueue::new(2, at(0.0));
        q.push(batch(1), BackpressurePolicy::Reject);
        q.push(batch(2), BackpressurePolicy::Reject);
        assert_eq!(q.push(batch(3), BackpressurePolicy::Reject), PushOutcome::Rejected);
        assert_eq!(q.depth(), (2, 2));
    }

    #[test]
    fn drop_oldest_evicts_front_and_reports_points() {
        let q: BatchQueue<DenseVector> = BatchQueue::new(2, at(0.0));
        q.push(batch(5), BackpressurePolicy::DropOldest);
        q.push(batch(1), BackpressurePolicy::DropOldest);
        assert_eq!(
            q.push(batch(2), BackpressurePolicy::DropOldest),
            PushOutcome::QueuedDroppingOldest(5)
        );
        // Front is now the 1-point batch.
        match q.pop(None) {
            Popped::Batch(b) => assert_eq!(b.len(), 1),
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn block_policy_waits_for_consumer() {
        let q: Arc<BatchQueue<DenseVector>> = Arc::new(BatchQueue::new(1, at(0.0)));
        q.push(batch(1), BackpressurePolicy::Block);
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(batch(2), BackpressurePolicy::Block))
        };
        // Give the producer time to block, then free a slot.
        thread::sleep(Duration::from_millis(20));
        assert!(matches!(q.pop(None), Popped::Batch(_)));
        assert_eq!(producer.join().unwrap(), PushOutcome::Queued);
        assert!(matches!(q.pop(None), Popped::Batch(_)));
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q: BatchQueue<DenseVector> = BatchQueue::new(4, at(0.0));
        q.push(batch(1), BackpressurePolicy::Block);
        q.close();
        assert_eq!(q.push(batch(9), BackpressurePolicy::Block), PushOutcome::Closed);
        assert!(matches!(q.pop(None), Popped::Batch(_)));
        assert!(matches!(q.pop(None), Popped::Closed));
    }

    #[test]
    fn close_wakes_blocked_producer() {
        let q: Arc<BatchQueue<DenseVector>> = Arc::new(BatchQueue::new(1, at(0.0)));
        q.push(batch(1), BackpressurePolicy::Block);
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(batch(2), BackpressurePolicy::Block))
        };
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(producer.join().unwrap(), PushOutcome::Closed);
    }

    #[test]
    fn timestamps_are_checked_against_every_queued_batch() {
        let q: BatchQueue<DenseVector> = BatchQueue::new(1, at(2.0));
        let timed =
            |ts: &[f64]| ts.iter().map(|&t| (DenseVector::from([0.0]), t)).collect::<Batch<_>>();
        assert_eq!(
            q.push(timed(&[2.0, 1.5]), BackpressurePolicy::DropOldest),
            PushOutcome::Refused { index: 1, error: EdmError::TimeRegression { now: 2.0, t: 1.5 } }
        );
        assert!(matches!(
            q.push(timed(&[3.0, f64::NAN]), BackpressurePolicy::DropOldest),
            PushOutcome::Refused { index: 1, error: EdmError::NonFiniteTime { .. } }
        ));
        assert_eq!(q.depth(), (0, 0));
        assert_eq!(q.push(timed(&[3.0, 5.0]), BackpressurePolicy::DropOldest), PushOutcome::Queued);
        // Evicting that batch keeps its timestamps on the clock.
        assert_eq!(
            q.push(timed(&[5.0]), BackpressurePolicy::DropOldest),
            PushOutcome::QueuedDroppingOldest(2)
        );
        assert_eq!(
            q.push(timed(&[4.0]), BackpressurePolicy::DropOldest),
            PushOutcome::Refused { index: 0, error: EdmError::TimeRegression { now: 5.0, t: 4.0 } }
        );
    }

    #[test]
    fn pop_times_out_when_idle() {
        let q: BatchQueue<DenseVector> = BatchQueue::new(1, at(0.0));
        assert!(matches!(q.pop(Some(Duration::from_millis(5))), Popped::TimedOut));
    }
}
