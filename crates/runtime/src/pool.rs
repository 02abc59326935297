//! A persistent worker pool for steady-state serving loops.
//!
//! [`crate::parallel_map`] spawns scoped threads per sweep; a serving
//! loop runs small batches forever, so [`WorkerPool`] keeps its threads
//! alive. Every caller submits one batch from one thread and blocks on
//! it, so the pool is one FIFO task queue and a shutdown flag under one
//! `Mutex`, plus one `Condvar` the workers wait on. A pool of width `n`
//! runs a batch on `n` threads: the submitter and `n - 1` long-lived
//! workers. [`WorkerPool::run_indexed`] pushes a whole batch under one
//! lock and wakes the workers once; the submitter then runs queued tasks
//! until the queue is empty and waits for the tasks still running on
//! workers, the last of which wakes it. Task `i` writes result slot `i`
//! whichever thread runs it, so results come back in index order and no
//! output or work counter depends on the pool width.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

use mcdnn_obs::metrics;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// The task queue and the shutdown flag, under the pool's one lock.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// One `run_indexed` call: task `i` stores its outcome in `slots[i]`
/// and counts itself off `remaining`.
struct Batch<R> {
    remaining: usize,
    slots: Vec<Option<thread::Result<R>>>,
}

/// A fixed-width pool: long-lived worker threads that run each batch
/// with its submitter. See the module docs for the queueing discipline.
///
/// ```
/// let pool = mcdnn_runtime::WorkerPool::new(4);
/// let squares = pool.run_indexed(8, |i| (i * i) as u64);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub struct WorkerPool {
    /// The queue, and the condvar workers wait on for a task or shutdown.
    shared: Arc<(Mutex<Queue>, Condvar)>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("width", &(self.handles.len() + 1))
            .finish()
    }
}

impl WorkerPool {
    /// Start a pool of width `workers ≥ 1`: `workers - 1` long-lived
    /// threads, which run each batch with its submitter. A pool of
    /// width 1 runs every batch on the submitting thread.
    pub fn new(workers: usize) -> WorkerPool {
        assert!(workers >= 1, "a pool needs at least one worker");
        let shared = Arc::new((Mutex::default(), Condvar::new()));
        let handles = (1..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("mcdnn-pool-{me}"))
                    .spawn(move || work(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Run `f(0..n)` across the pool and return results in index
    /// order — the parallel-for of the serving loop. The calling
    /// thread runs queued tasks alongside the workers, then blocks
    /// until every index completes; if any invocation panicked, panics
    /// once they all have, and the pool stays usable. Must not be
    /// called from inside a pool task (the wait would occupy a worker).
    pub fn run_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        if n == 0 {
            return Vec::new();
        }
        let f = Arc::new(f);
        let batch = Batch {
            remaining: n,
            slots: (0..n).map(|_| None).collect(),
        };
        let batch = Arc::new((Mutex::new(batch), Condvar::new()));
        let (queue, ready) = &*self.shared;
        let mut queue = queue.lock().expect("pool queue poisoned");
        for i in 0..n {
            let (f, batch) = (Arc::clone(&f), Arc::clone(&batch));
            queue.tasks.push_back(Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| f(i)));
                let (progress, done) = &*batch;
                let mut progress = progress.lock().expect("batch poisoned");
                progress.slots[i] = Some(outcome);
                progress.remaining -= 1;
                let last = progress.remaining == 0;
                drop(progress);
                if last {
                    done.notify_one();
                }
            }));
        }
        drop(queue);
        metrics::RUNTIME_POOL_TASKS.add(n as u64);
        ready.notify_all();
        // The submitter works too, so its core is busy wherever the
        // scheduler puts the workers: two workers woken together can
        // share one core for a whole batch, which on a 2-vCPU host
        // doubled the time of 5% to over a quarter of serve calls, a
        // share that changed from run to run.
        while let Some(task) = self.pop() {
            task();
        }
        let (progress, done) = &*batch;
        let progress = progress.lock().expect("batch poisoned");
        let mut progress = done
            .wait_while(progress, |b| b.remaining > 0)
            .expect("batch poisoned");
        std::mem::take(&mut progress.slots)
            .into_iter()
            .map(|slot| match slot.expect("every task stored its outcome") {
                Ok(r) => r,
                Err(_) => panic!("a pool task panicked"),
            })
            .collect()
    }

    /// The front queued task, if any: the submitter's share of a batch
    /// (or of another caller's, which stores its result all the same).
    fn pop(&self) -> Option<Task> {
        let (queue, _) = &*self.shared;
        queue.lock().expect("pool queue poisoned").tasks.pop_front()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let (queue, ready) = &*self.shared;
        // No lock holder can leave the queue half-updated, and `Drop`
        // must not panic.
        queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A worker: run queued tasks in FIFO order until the queue is empty
/// and the pool is shutting down. Tasks catch their own panics.
fn work((queue, ready): &(Mutex<Queue>, Condvar)) {
    loop {
        let guard = queue.lock().expect("pool queue poisoned");
        let mut guard = ready
            .wait_while(guard, |q| q.tasks.is_empty() && !q.shutdown)
            .expect("pool queue poisoned");
        let Some(task) = guard.tasks.pop_front() else {
            return;
        };
        drop(guard);
        task();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_order_and_matches_serial() {
        let pool = WorkerPool::new(4);
        let out = pool.run_indexed(257, |i| (i as f64 * 0.37).sin());
        let serial: Vec<f64> = (0..257).map(|i| (i as f64 * 0.37).sin()).collect();
        assert_eq!(out, serial);
    }

    #[test]
    fn a_width_one_pool_runs_on_the_submitter() {
        let pool = WorkerPool::new(1);
        let caller = thread::current().id();
        let ran = pool.run_indexed(16, |_| thread::current().id());
        assert!(ran.iter().all(|&id| id == caller));
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
    fn empty_run_indexed() {
        let pool = WorkerPool::new(2);
        let out: Vec<u32> = pool.run_indexed(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "a pool task panicked")]
    fn task_panic_is_reraised_by_run_indexed() {
        let pool = WorkerPool::new(2);
        let boom = |i: usize| {
            assert!(i != 5, "boom");
            i
        };
        let reraised = catch_unwind(AssertUnwindSafe(|| pool.run_indexed(8, boom)))
            .expect_err("the task's panic reaches the submitter");
        let out = pool.run_indexed(4, |i| i * 2);
        assert_eq!(out, vec![0, 2, 4, 6], "the pool serves the next batch");
        std::panic::resume_unwind(reraised);
    }

    #[test]
    fn a_skewed_batch_completes() {
        // A few slow tasks at the front of the queue: the other workers
        // take the cheap rest meanwhile.
        let pool = WorkerPool::new(4);
        let out = pool.run_indexed(64, |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn the_submitter_runs_tasks_alongside_the_workers() {
        // Two tasks that each wait for the other to start: a width-2
        // pool's one worker alone cannot finish them, the worker and
        // the submitter can.
        let pool = WorkerPool::new(2);
        let started = Arc::new((Mutex::new(0), Condvar::new()));
        let caller = thread::current().id();
        let ran = pool.run_indexed(2, move |_| {
            let (count, both) = &*started;
            let mut count = count.lock().unwrap();
            *count += 1;
            both.notify_all();
            let timeout = std::time::Duration::from_secs(10);
            let (count, _) = both.wait_timeout_while(count, timeout, |c| *c < 2).unwrap();
            (*count == 2, thread::current().id())
        });
        assert!(ran.iter().all(|&(met, _)| met), "a task waited alone");
        assert_ne!(ran[0].1, ran[1].1);
        assert!(ran.iter().any(|&(_, id)| id == caller));
    }
}
