//! A persistent worker pool for steady-state serving loops.
//!
//! [`crate::parallel_map`] spawns scoped OS threads per batch — the
//! right shape for experiment sweeps, where thread startup amortizes
//! over seconds of work. A serving loop admits small bursts forever,
//! so [`WorkerPool`] keeps its threads alive across submissions:
//!
//! * **Per-worker injection queues.** Tasks are submitted round-robin
//!   to per-worker deques, so concurrent submitters do not serialize on
//!   one global queue lock.
//! * **Work stealing.** An idle worker pops its own queue from the
//!   front, then steals from the *back* of its siblings' queues, so a
//!   skewed submission pattern still balances.
//! * **Graceful shutdown.** Dropping the pool wakes every worker;
//!   each drains the remaining queued tasks before exiting, so no
//!   submitted task is silently dropped.
//!
//! Safe Rust only: queues are `Mutex<VecDeque<..>>`, parking is a
//! single `Condvar`, and results flow back through per-task slots. The
//! steady-state cost of an uncontended `Mutex` lock/unlock is two
//! atomic operations — no allocation — so a warm serving loop built on
//! the pool stays allocation-free outside of task submission itself
//! (each spawned task boxes its closure once).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use mcdnn_obs::metrics;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its workers.
struct PoolState {
    /// One injection queue per worker; submitters push to the back,
    /// the owner pops from the front, thieves steal from the back.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Tasks pushed but not yet popped by any worker.
    pending: AtomicUsize,
    /// Set once by `Drop`; workers drain their queues and exit.
    shutdown: AtomicBool,
    /// A task panicked (the panic payload is swallowed by the worker
    /// so the pool survives; [`WorkerPool::run_indexed`] re-raises).
    panicked: AtomicBool,
    /// Parking lot: workers wait here when every queue is empty.
    gate: Mutex<()>,
    ready: Condvar,
}

impl PoolState {
    /// Pop a task: own queue front first, then steal from siblings'
    /// backs. Decrements `pending` exactly when a task is obtained.
    fn take(&self, me: usize) -> Option<Task> {
        let n = self.queues.len();
        for off in 0..n {
            let q = (me + off) % n;
            let task = self.queues[q].lock().expect("queue poisoned").pop_front();
            if let Some(task) = task {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                if off != 0 {
                    metrics::RUNTIME_POOL_STEALS.add(1);
                }
                return Some(task);
            }
        }
        None
    }
}

/// A fixed-size pool of long-lived worker threads. See the module docs
/// for the queueing discipline.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let pool = mcdnn_runtime::WorkerPool::new(4);
/// let hits = Arc::new(AtomicU64::new(0));
/// for _ in 0..100 {
///     let hits = Arc::clone(&hits);
///     pool.spawn(move || {
///         hits.fetch_add(1, Ordering::Relaxed);
///     });
/// }
/// let squares = pool.run_indexed(8, |i| (i * i) as u64);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// drop(pool); // graceful: drains the queue before joining
/// assert_eq!(hits.load(Ordering::Relaxed), 100);
/// ```
pub struct WorkerPool {
    state: Arc<PoolState>,
    handles: Vec<JoinHandle<()>>,
    /// Round-robin submission cursor.
    next: AtomicUsize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .field("pending", &self.state.pending.load(Ordering::Acquire))
            .finish()
    }
}

impl WorkerPool {
    /// Start a pool of `workers ≥ 1` threads.
    pub fn new(workers: usize) -> WorkerPool {
        assert!(workers >= 1, "a pool needs at least one worker");
        let state = Arc::new(PoolState {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            gate: Mutex::new(()),
            ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|me| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("mcdnn-pool-{me}"))
                    .spawn(move || worker_loop(&state, me))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            state,
            handles,
            next: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Submit a task. Tasks run in submission order per queue but
    /// interleave freely across workers; panics inside a task are
    /// caught (the pool survives and flags them for `run_indexed`).
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        let w = self.next.fetch_add(1, Ordering::Relaxed) % self.state.queues.len();
        self.state.queues[w]
            .lock()
            .expect("queue poisoned")
            .push_back(Box::new(task));
        // Publish before waking: a worker that checked `pending` just
        // before this increment re-checks under the gate lock.
        self.state.pending.fetch_add(1, Ordering::Release);
        metrics::RUNTIME_POOL_TASKS.add(1);
        let _g = self.state.gate.lock().expect("gate poisoned");
        self.state.ready.notify_one();
    }

    /// Run `f(0..n)` across the pool and return results in index
    /// order — the parallel-for of the serving loop. Blocks the caller
    /// until every index completes; re-raises if any invocation
    /// panicked. Must not be called from inside a pool task (the wait
    /// would occupy a worker).
    pub fn run_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let slots: Arc<Vec<Mutex<Option<R>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        for i in 0..n {
            let f = Arc::clone(&f);
            let slots = Arc::clone(&slots);
            let done = Arc::clone(&done);
            let state = Arc::clone(&self.state);
            self.spawn(move || {
                match catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(r) => *slots[i].lock().expect("slot poisoned") = Some(r),
                    Err(_) => state.panicked.store(true, Ordering::Release),
                }
                let (count, cv) = &*done;
                *count.lock().expect("completion count poisoned") += 1;
                cv.notify_all();
            });
        }
        let (count, cv) = &*done;
        let mut finished = count.lock().expect("completion count poisoned");
        while *finished < n {
            finished = cv.wait(finished).expect("completion wait poisoned");
        }
        drop(finished);
        assert!(
            !self.state.panicked.swap(false, Ordering::AcqRel),
            "a pool task panicked"
        );
        // Take through the mutexes rather than unwrapping the Arc: the
        // last task bumps the completion count *before* its closure
        // (and its `slots` clone) is dropped, so the Arc may still be
        // shared for an instant after the wait returns.
        slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("slot poisoned")
                    .take()
                    .expect("every index filled its slot")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        {
            let _g = self.state.gate.lock().expect("gate poisoned");
            self.state.ready.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(state: &PoolState, me: usize) {
    loop {
        if let Some(task) = state.take(me) {
            // A panicking task must not take the worker down with it:
            // flag it and keep serving.
            if catch_unwind(AssertUnwindSafe(task)).is_err() {
                state.panicked.store(true, Ordering::Release);
            }
            continue;
        }
        let guard = state.gate.lock().expect("gate poisoned");
        if state.pending.load(Ordering::Acquire) > 0 {
            continue; // a submission raced in; retry the queues
        }
        if state.shutdown.load(Ordering::Acquire) {
            return; // queues drained and shutting down
        }
        // Wait releases the gate; `spawn` bumps `pending` before
        // taking it, so the re-check above cannot miss a wakeup.
        let _unused = state.ready.wait(guard).expect("gate wait poisoned");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_indexed_preserves_order_and_matches_serial() {
        let pool = WorkerPool::new(4);
        let out = pool.run_indexed(257, |i| (i as f64 * 0.37).sin());
        let serial: Vec<f64> = (0..257).map(|i| (i as f64 * 0.37).sin()).collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn results_identical_across_pool_sizes() {
        let work = |i: usize| {
            let mut acc = i as u64;
            for _ in 0..(if i.is_multiple_of(7) { 10_000 } else { 10 }) {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let one = WorkerPool::new(1).run_indexed(100, work);
        let eight = WorkerPool::new(8).run_indexed(100, work);
        assert_eq!(one, eight, "worker count must not change results");
    }

    #[test]
    fn pool_survives_reuse_across_many_batches() {
        let pool = WorkerPool::new(3);
        for round in 0..50 {
            let out = pool.run_indexed(17, move |i| i + round);
            assert_eq!(out, (0..17).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn drop_drains_spawned_tasks() {
        let hits = Arc::new(AtomicU64::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..500 {
                let hits = Arc::clone(&hits);
                pool.spawn(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        assert_eq!(hits.load(Ordering::Relaxed), 500, "graceful drain");
    }

    #[test]
    fn empty_run_indexed() {
        let pool = WorkerPool::new(2);
        let out: Vec<u32> = pool.run_indexed(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "a pool task panicked")]
    fn task_panic_is_reraised_by_run_indexed() {
        let pool = WorkerPool::new(2);
        let _ = pool.run_indexed(8, |i| {
            assert!(i != 5, "boom");
            i
        });
    }

    #[test]
    fn pool_survives_a_panicking_spawn() {
        let pool = WorkerPool::new(2);
        pool.spawn(|| panic!("spawned task panics"));
        // The pool keeps serving; the flag surfaces on a later
        // run_indexed (poll — the panicking task runs asynchronously),
        // which re-raises and resets it.
        let mut reraised = false;
        for _ in 0..500 {
            if catch_unwind(AssertUnwindSafe(|| pool.run_indexed(4, |i| i))).is_err() {
                reraised = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(reraised, "panic flag re-raised");
        let out = pool.run_indexed(4, |i| i * 2);
        assert_eq!(out, vec![0, 2, 4, 6], "pool healthy after re-raise");
    }

    #[test]
    fn stealing_balances_a_skewed_queue() {
        // Submit everything before any worker can finish: the
        // round-robin cursor spreads tasks, and steals cover the rest.
        mcdnn_obs::set_enabled(true);
        let pool = WorkerPool::new(4);
        let out = pool.run_indexed(64, |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out.len(), 64);
    }
}
