//! Persistent worker pool for the parallel probe phase of batch ingest.
//!
//! Spawning fresh `std::thread::scope` workers for *every* batch round is
//! correct, but the spawn/join pair is pure coordination overhead paid
//! per round. [`WorkerPool`] avoids it: `ingest_threads − 1` OS threads
//! are spawned once (lazily, on the first round that can use them),
//! **park** on a condvar between rounds, and are joined when the engine
//! is dropped. Its one user is the probe fan-out (`parallel.rs`); on the
//! served SDS workload (2-vCPU host) a fresh scope per round measured
//! 11–72% slower per update than the parked pool over four seeds.
//!
//! # The round protocol
//!
//! A round is `run(f)`: call `f()` on the calling thread and on every
//! worker that wakes while the round is published, and do not return
//! before every one of those calls has finished. `f` is expected to
//! drain shared work (the probe phase hands out chunks from a
//! mutex-guarded queue), so a worker that wakes late — after the caller
//! already emptied the queue — simply finds nothing to do. One
//! configured thread degenerates to a plain inline call with no parking
//! and no wake-ups.
//!
//! # Safety
//!
//! This module is the engine's one audited `unsafe` boundary (the
//! workspace precedent is `edm-serve`'s `SwapCell`). The single unsafe
//! idea: `run` erases the borrow lifetime of its closure reference to
//! `'static` so parked OS threads can see it. That is sound because
//! `run` reconstructs exactly the guarantee `std::thread::scope`
//! provides — **the borrow outlives every use** — via a barrier:
//!
//! * A worker may only obtain the job under the state mutex, *while the
//!   job is published* (`PoolState::job` is `Some`), and checks in by
//!   incrementing `PoolState::active_workers` under the same lock.
//! * Every call of `f` on a worker happens between that check-in and the
//!   worker's check-out (decrement under the lock, then notify).
//! * `run` returns only after its own call of `f` has finished **and**
//!   `active_workers == 0` — at which point it unpublishes the job,
//!   still under the lock. A worker that wakes late finds `job == None`
//!   and parks again without ever touching the stale pointer.
//!
//! So no thread can hold, or later acquire, the erased reference once
//! `run` returns: the borrow provably outlives every dereference, which
//! is the exact obligation the lifetime erasure discharges. A panic in
//! `f` — on a worker or on the caller — is caught, flagged, and re-raised
//! on the calling thread after the barrier, mirroring scoped-spawn
//! behavior without poisoning the pool (workers survive and park for the
//! next round).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Process-wide count of live pool worker threads. Incremented when a
/// worker starts, decremented (panic-safely) when it exits; exported as
/// [`crate::live_pool_workers`] so leak checks — "dropping the engine
/// joined every worker" — are observable from outside the crate.
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Number of `WorkerPool` worker threads currently alive in this
/// process, across all engines. A diagnostic for tests and operators:
/// after an engine is dropped, its workers are joined synchronously, so
/// a count that stays elevated is a thread leak.
pub fn live_pool_workers() -> usize {
    LIVE_WORKERS.load(Ordering::SeqCst)
}

/// Decrements [`LIVE_WORKERS`] even if the worker unwinds.
struct WorkerGuard;

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A round's work order: the round closure with its borrow lifetime
/// erased to `'static`; only dereferenced between a worker's check-in
/// and check-out, which the caller's barrier confines to the lifetime of
/// the real borrow (see the module-level safety argument).
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn() + Sync + 'static));

// SAFETY: `Job` is a shared-reference-like handle (`&dyn Fn + Sync`
// behind the erasure), so sending it to another thread is sending a
// `&T where T: Sync` — sound. The *lifetime* obligation is discharged by
// the barrier protocol, not by this impl.
unsafe impl Send for Job {}

/// Mutex-guarded pool state: round publication and the check-in ledger.
struct PoolState {
    /// Bumped once per dispatched round; a worker re-parks without
    /// joining when the epoch it last served is still current.
    epoch: u64,
    /// The published round, `None` between rounds. Publication is the
    /// only gate through which a worker may obtain the erased closure.
    job: Option<Job>,
    /// Workers currently between check-in and check-out — the barrier
    /// that proves no worker still holds the erased borrow.
    active_workers: usize,
    /// Set by `Drop`; workers exit instead of parking.
    shutdown: bool,
}

/// State shared between the caller and the workers.
struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between rounds.
    work: Condvar,
    /// The caller parks here while checked-in workers finish.
    done: Condvar,
    /// A call of the round closure panicked; the caller re-raises after
    /// the barrier.
    panicked: AtomicBool,
}

/// The worker thread body: park, check in, run the round, check out,
/// repeat.
fn worker_loop(shared: Arc<PoolShared>) {
    let _guard = WorkerGuard;
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool mutex never poisons: calls are caught");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if let Some(job) = st.job {
                        st.active_workers += 1;
                        break job;
                    }
                    // Round already unpublished — arrived too late; the
                    // epoch is recorded so the next wake isn't a re-run.
                }
                st = shared.work.wait(st).expect("pool mutex never poisons");
            }
        };
        // SAFETY: obtained under publication between check-in and
        // check-out; the caller's barrier keeps the real borrow alive
        // until check-out (module-level argument).
        let f = unsafe { &*job.0 };
        if catch_unwind(AssertUnwindSafe(f)).is_err() {
            shared.panicked.store(true, Ordering::SeqCst);
        }
        {
            let mut st = shared.state.lock().expect("pool mutex never poisons");
            st.active_workers -= 1;
        }
        shared.done.notify_all();
    }
}

/// Persistent, parkable worker threads sized by `ingest_threads`.
///
/// The pool spawns lazily: a serial engine (`ingest_threads == 1`), or a
/// parallel engine that never sees a batch, owns no threads at all.
/// Dropping the pool (with the engine) signals shutdown and joins every
/// worker synchronously — no detached threads survive the engine.
pub(super) struct WorkerPool {
    /// Worker threads to run besides the caller (`ingest_threads − 1`).
    target: usize,
    shared: Option<Arc<PoolShared>>,
    handles: Vec<JoinHandle<()>>,
    /// Rounds dispatched to parked workers (wake/park cycles). Inline
    /// rounds of a one-thread pool are not counted: nothing was woken.
    rounds: u64,
}

impl WorkerPool {
    /// A pool for `threads` total participants (the calling thread plus
    /// `threads − 1` workers, spawned on first use).
    pub(super) fn new(threads: usize) -> Self {
        WorkerPool {
            target: threads.saturating_sub(1),
            shared: None,
            handles: Vec::new(),
            rounds: 0,
        }
    }

    /// Rounds dispatched to parked workers so far.
    pub(super) fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Worker threads currently spawned (0 until the first real round).
    #[cfg(test)]
    pub(super) fn spawned(&self) -> usize {
        self.handles.len()
    }

    fn ensure_spawned(&mut self) -> &Arc<PoolShared> {
        if self.shared.is_none() {
            let shared = Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    job: None,
                    active_workers: 0,
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
                panicked: AtomicBool::new(false),
            });
            for _ in 0..self.target {
                let shared = Arc::clone(&shared);
                LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
                self.handles.push(
                    std::thread::Builder::new()
                        .name("edm-pool-worker".into())
                        .spawn(move || worker_loop(shared))
                        .expect("spawning a pool worker thread"),
                );
            }
            self.shared = Some(shared);
        }
        self.shared.as_ref().expect("just ensured")
    }

    /// Calls `f` once on the calling thread and at most once on each
    /// worker that wakes while the round is published, returning only
    /// when every call has finished (the barrier the module docs
    /// describe). With one configured participant this is a plain inline
    /// call.
    ///
    /// # Panics
    /// Re-raises (once, on the calling thread, after the barrier) when
    /// any call panicked.
    pub(super) fn run(&mut self, f: &(dyn Fn() + Sync)) {
        if self.target == 0 {
            f();
            return;
        }
        self.rounds += 1;
        let shared = self.ensure_spawned();
        shared.panicked.store(false, Ordering::SeqCst);
        {
            let mut st = shared.state.lock().expect("pool mutex never poisons");
            st.epoch += 1;
            // SAFETY: lifetime erasure to `'static`; every dereference is
            // confined between worker check-in and check-out, and the
            // barrier below outlives all of them — see the module docs.
            let f: *const (dyn Fn() + Sync + 'static) =
                unsafe { std::mem::transmute(f as *const (dyn Fn() + Sync)) };
            st.job = Some(Job(f));
        }
        shared.work.notify_all();
        // The caller takes part like any worker; catching its panic keeps
        // it from unwinding past the barrier while workers hold the job.
        if catch_unwind(AssertUnwindSafe(f)).is_err() {
            shared.panicked.store(true, Ordering::SeqCst);
        }
        // Barrier: no worker still between check-in and check-out (it
        // could still be holding the erased borrow).
        {
            let mut st = shared.state.lock().expect("pool mutex never poisons");
            while st.active_workers > 0 {
                st = shared.done.wait(st).expect("pool mutex never poisons");
            }
            st.job = None;
        }
        if shared.panicked.load(Ordering::SeqCst) {
            panic!("worker pool: a parallel task panicked (state may be inconsistent)");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            {
                let mut st = shared.state.lock().expect("pool mutex never poisons");
                st.shutdown = true;
            }
            shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Weak;

    /// A round closure that drains `0..tasks` from a shared cursor —
    /// the shape of the probe phase's chunk queue.
    fn drain(next: &AtomicUsize, tasks: usize, mut each: impl FnMut(usize)) {
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            if i >= tasks {
                return;
            }
            each(i);
        }
    }

    #[test]
    fn runs_every_task_exactly_once_at_various_widths() {
        for threads in [1usize, 2, 4, 8] {
            let mut pool = WorkerPool::new(threads);
            for tasks in [0usize, 1, 3, 64, 257] {
                let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
                let next = AtomicUsize::new(0);
                let calls = AtomicUsize::new(0);
                pool.run(&|| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    drain(&next, tasks, |i| {
                        hits[i].fetch_add(1, Ordering::SeqCst);
                    });
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                    "threads={threads}, tasks={tasks}"
                );
                let calls = calls.load(Ordering::SeqCst);
                assert!((1..=threads).contains(&calls), "at most one call per participant");
            }
        }
    }

    #[test]
    fn single_thread_pool_spawns_nothing_and_counts_no_rounds() {
        let mut pool = WorkerPool::new(1);
        let hit = AtomicUsize::new(0);
        pool.run(&|| {
            hit.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hit.load(Ordering::SeqCst), 1, "inline: exactly the caller's call");
        assert_eq!(pool.spawned(), 0);
        assert_eq!(pool.rounds(), 0, "inline rounds wake nobody");
    }

    #[test]
    fn rounds_and_reuse_across_many_dispatches() {
        let mut pool = WorkerPool::new(4);
        for round in 1..=50u64 {
            let sum = AtomicUsize::new(0);
            let next = AtomicUsize::new(0);
            pool.run(&|| {
                drain(&next, 32, |i| {
                    sum.fetch_add(i + 1, Ordering::SeqCst);
                });
            });
            assert_eq!(sum.load(Ordering::SeqCst), 32 * 33 / 2);
            assert_eq!(pool.rounds(), round);
            assert_eq!(pool.spawned(), 3, "workers persist across rounds");
        }
    }

    #[test]
    fn drop_joins_every_worker() {
        let weak: Weak<PoolShared>;
        {
            let mut pool = WorkerPool::new(4);
            pool.run(&|| {});
            weak = Arc::downgrade(pool.shared.as_ref().expect("spawned"));
            assert_eq!(pool.spawned(), 3);
        }
        // Workers each held an `Arc<PoolShared>`; join-on-drop means all
        // clones are gone by the time `drop` returns.
        assert!(weak.upgrade().is_none(), "a worker outlived the pool");
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let mut pool = WorkerPool::new(4);
        // A panic on the caller's own call still waits out the barrier.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|| panic!("boom on every participant"));
        }));
        assert!(caught.is_err(), "panic must reach the caller");
        // A panic on a worker only: the caller holds the round open until
        // some worker has checked in, so the worker call is certain.
        let workers_in = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|| {
                if std::thread::current().name() == Some("edm-pool-worker") {
                    workers_in.fetch_add(1, Ordering::SeqCst);
                    panic!("boom on a worker");
                }
                while workers_in.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
            });
        }));
        assert!(caught.is_err(), "a worker's panic must reach the caller");
        // The pool is still usable afterwards.
        let hits = AtomicUsize::new(0);
        let next = AtomicUsize::new(0);
        pool.run(&|| {
            drain(&next, 8, |_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 8);
        assert_eq!(pool.spawned(), 3, "panicking calls kill no worker");
    }
}
