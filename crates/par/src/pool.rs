//! The worker pool, its (private) scopes, and the two data-parallel
//! helpers built on them.
//!
//! Safety note: [`Scope::spawn`] erases the closure's lifetime to `'static`
//! so it can sit in the shared queue. This is sound because the scope
//! *always* joins every spawned task before returning (including on panic),
//! so no borrow outlives the frame it came from — the same argument as
//! `std::thread::scope`. While a scope waits it helps execute queued jobs,
//! so nested scopes on the same pool cannot deadlock.

use std::any::Any;
use std::collections::VecDeque;
use std::mem;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Lock `m` whether or not a thread panicked while holding it. Every job
/// runs under `catch_unwind` and outside these locks, and each critical
/// section is a single queue or slot operation, so the data behind a
/// poisoned lock is still valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared state between the pool handle, its workers, and waiting scopes.
struct Shared {
    /// FIFO of jobs any thread may push to and pop from.
    queue: Mutex<VecDeque<Job>>,
    /// Signaled when a job is pushed; workers sleep on it when idle.
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    shutdown: AtomicBool,
    /// Number of workers currently parked on the condvar. Lets `push_job`
    /// skip the lock entirely while the crew is busy (the common case in a
    /// tight scope), which matters on fine-grained workloads.
    sleepers: AtomicUsize,
}

impl Shared {
    fn pop(&self) -> Option<Job> {
        lock(&self.queue).pop_front()
    }
}

/// A fixed crew of worker threads with a shared job queue.
///
/// Dropping the pool shuts the workers down after the queue drains of the
/// jobs they have already started; scopes guarantee the queue is empty of
/// their jobs before that point.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// A pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fem2-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Pool {
            shared,
            workers,
            threads,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` with a [`Scope`] that can spawn borrowing tasks; returns when
    /// every spawned task has finished. The first task panic (or a panic in
    /// `f` itself) is propagated to the caller after the join.
    fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'env, '_>) -> R,
    {
        let state = ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        let scope = Scope {
            pool: self,
            state: &state,
            _env: std::marker::PhantomData,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Join: help run jobs while any task is outstanding.
        while state.pending.load(Ordering::Acquire) != 0 {
            if let Some(job) = self.shared.pop() {
                job();
            } else {
                std::hint::spin_loop();
                std::thread::yield_now();
            }
        }
        if let Some(p) = lock(&state.panic).take() {
            panic::resume_unwind(p);
        }
        match result {
            Ok(r) => r,
            Err(p) => panic::resume_unwind(p),
        }
    }

    /// Map every index of `range` through `map` and combine the results with
    /// `reduce`, starting from `identity`.
    ///
    /// Deterministic: each chunk folds left-to-right and chunk partials are
    /// folded in chunk order, so the combination tree is a function of
    /// `(range, grain)` only — not of thread timing.
    pub fn map_reduce_index<T, M, R>(
        &self,
        range: Range<usize>,
        grain: usize,
        map: M,
        reduce: R,
        identity: T,
    ) -> T
    where
        T: Clone + Send + Sync,
        M: Fn(usize) -> T + Sync,
        R: Fn(T, T) -> T + Sync + Send,
    {
        let grain = grain.max(1);
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            return identity;
        }
        let nchunks = len.div_ceil(grain);
        let mut partials: Vec<Option<T>> = vec![None; nchunks];
        {
            let map = &map;
            let reduce = &reduce;
            let identity_ref = &identity;
            self.scope(|s| {
                for (c, slot) in partials.iter_mut().enumerate() {
                    let start = range.start + c * grain;
                    let end = (start + grain).min(range.end);
                    s.spawn(move || {
                        let mut acc = identity_ref.clone();
                        for i in start..end {
                            acc = reduce(acc, map(i));
                        }
                        *slot = Some(acc);
                    });
                }
            });
        }
        partials
            .into_iter()
            .map(|p| p.expect("scope joined all chunks"))
            .fold(identity, reduce)
    }

    fn push_job(&self, job: Job) {
        lock(&self.shared.queue).push_back(job);
        // Wake one sleeping worker — but only pay for the lock if someone
        // is actually parked.
        if self.shared.sleepers.load(Ordering::Acquire) > 0 {
            let _g = lock(&self.shared.sleep_lock);
            self.shared.sleep_cv.notify_one();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = lock(&self.shared.sleep_lock);
            self.shared.sleep_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        if let Some(job) = shared.pop() {
            job();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut guard = lock(&shared.sleep_lock);
        shared.sleepers.fetch_add(1, Ordering::AcqRel);
        // Re-check under the lock to avoid missing a push that happened
        // between the pop above and taking the lock.
        if lock(&shared.queue).is_empty() && !shared.shutdown.load(Ordering::Acquire) {
            guard = shared
                .sleep_cv
                .wait_timeout(guard, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        shared.sleepers.fetch_sub(1, Ordering::AcqRel);
        drop(guard);
    }
}

struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A structured-parallelism scope tied to a [`Pool`]; see [`Pool::scope`].
struct Scope<'env, 'state> {
    pool: &'state Pool,
    state: &'state ScopeState,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env, 'state> Scope<'env, 'state> {
    /// Spawn a task that may borrow from the environment enclosing the
    /// scope. The task runs on the pool (or on the scope's own thread while
    /// it joins). Panics inside tasks are captured and re-thrown by
    /// [`Pool::scope`].
    fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        if self.pool.threads == 1 {
            // A single-worker pool has no concurrency to win, so run the
            // task inline on the spawning thread. This skips the boxing,
            // queue traffic, and wakeups entirely — on fine-grained
            // workloads (many small scopes) that overhead would otherwise
            // dominate. Panics still surface through the scope's slot so
            // propagation matches the queued path.
            let result = panic::catch_unwind(AssertUnwindSafe(f));
            if let Err(p) = result {
                let mut slot = lock(&self.state.panic);
                if slot.is_none() {
                    *slot = Some(p);
                }
            }
            return;
        }
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        // Erase the borrow lifetime: sound because `Pool::scope` joins every
        // task before the environment frame is released.
        let state_ptr: *const ScopeState = self.state;
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: the transmute only erases the `'env` lifetime of the boxed
        // closure (`Box<dyn FnOnce + Send + 'env>` -> `Box<dyn FnOnce + Send
        // + 'static>`); layout of a boxed trait object does not depend on its
        // lifetime bound. The erased borrow cannot dangle because
        // `Pool::scope`'s join loop blocks until `state.pending` reaches
        // zero, i.e. every spawned task has finished, before the `'env`
        // environment frame can be released.
        let task: Job = unsafe { mem::transmute(task) };
        let state_addr = state_ptr as usize;
        let job: Job = Box::new(move || {
            // SAFETY: `state_addr` is the address of the `ScopeState` that
            // `Pool::scope` keeps alive on its stack until its join loop
            // has observed `pending == 0`. This job holds a `pending` count (the
            // `fetch_add` above precedes `push_job`, and the matching
            // `fetch_sub` is the last thing this closure does), so the
            // referenced state outlives every dereference here.
            let state = unsafe { &*(state_addr as *const ScopeState) };
            let result = panic::catch_unwind(AssertUnwindSafe(task));
            if let Err(p) = result {
                let mut slot = lock(&state.panic);
                if slot.is_none() {
                    *slot = Some(p);
                }
            }
            state.pending.fetch_sub(1, Ordering::AcqRel);
        });
        self.pool.push_job(job);
    }
}

/// Split `data` into disjoint chunks of at most `chunk` elements and call
/// `f(chunk_index, chunk)` for each in parallel on `pool`.
///
/// Disjointness comes from `chunks_mut`, so no synchronization is needed
/// inside `f`.
pub fn chunks_mut<T, F>(pool: &Pool, data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk = chunk.max(1);
    let f = &f;
    pool.scope(|s| {
        for (c, piece) in data.chunks_mut(chunk).enumerate() {
            s.spawn(move || f(c, piece));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_at_least_one_thread() {
        let p = Pool::new(0);
        assert_eq!(p.threads(), 1);
        let p = Pool::new(3);
        assert_eq!(p.threads(), 3);
    }

    #[test]
    fn scope_joins_all_tasks() {
        let p = Pool::new(4);
        let count = AtomicUsize::new(0);
        p.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scope_returns_value() {
        let p = Pool::new(2);
        let r = p.scope(|_| 42);
        assert_eq!(r, 42);
    }

    #[test]
    fn tasks_borrow_environment() {
        let p = Pool::new(4);
        let mut results = vec![0u64; 64];
        p.scope(|s| {
            for (i, slot) in results.iter_mut().enumerate() {
                s.spawn(move || *slot = (i * i) as u64);
            }
        });
        for (i, &r) in results.iter().enumerate() {
            assert_eq!(r, (i * i) as u64);
        }
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let p = Pool::new(1); // single worker: join-helping must kick in
        let count = AtomicUsize::new(0);
        p.scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    p.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                count.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn task_panic_propagates() {
        let p = Pool::new(2);
        p.scope(|s| {
            s.spawn(|| panic!("boom"));
        });
    }

    #[test]
    fn panic_does_not_poison_pool() {
        let p = Pool::new(2);
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            p.scope(|s| {
                s.spawn(|| panic!("first"));
            });
        }));
        assert!(r.is_err());
        // Pool still works after a panicking scope.
        let count = AtomicUsize::new(0);
        p.scope(|s| {
            for _ in 0..10 {
                s.spawn(|| {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn map_reduce_sums_correctly() {
        let p = Pool::new(4);
        for grain in [1, 7, 64, 10_000] {
            let s = p.map_reduce_index(0..5000, grain, |i| i as u64, |a, b| a + b, 0);
            assert_eq!(s, 4999 * 5000 / 2, "grain {grain}");
        }
    }

    #[test]
    fn map_reduce_empty_range_gives_identity() {
        let p = Pool::new(2);
        let s = p.map_reduce_index(3..3, 8, |_| 1u64, |a, b| a + b, 123);
        assert_eq!(s, 123);
    }

    #[test]
    fn map_reduce_float_deterministic() {
        let p = Pool::new(8);
        let vals: Vec<f64> = (0..4096)
            .map(|i| ((i * 2654435761u64 as usize) % 1000) as f64 * 0.001)
            .collect();
        let runs: Vec<f64> = (0..5)
            .map(|_| p.map_reduce_index(0..vals.len(), 100, |i| vals[i], |a, b| a + b, 0.0))
            .collect();
        // Bitwise identical across runs.
        for r in &runs[1..] {
            assert_eq!(r.to_bits(), runs[0].to_bits());
        }
    }

    #[test]
    fn chunks_mut_disjoint_coverage() {
        let p = Pool::new(4);
        let mut data = vec![0u32; 500];
        chunks_mut(&p, &mut data, 33, |c, piece| {
            for x in piece.iter_mut() {
                *x = c as u32 + 1;
            }
        });
        assert!(data.iter().all(|&x| x != 0));
        // Chunk 0 covers [0,33)
        assert_eq!(data[0], 1);
        assert_eq!(data[32], 1);
        assert_eq!(data[33], 2);
    }

    #[test]
    fn many_small_scopes() {
        let p = Pool::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            p.scope(|s| {
                s.spawn(|| {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        for _ in 0..10 {
            let p = Pool::new(3);
            chunks_mut(&p, &mut [0u8; 100], 10, |_, _| {});
            drop(p);
        }
    }

    #[test]
    fn parallel_matches_sequential_on_random_data() {
        let p = Pool::new(4);
        let data: Vec<i64> = (0..10_000)
            .map(|i| ((i * 31 + 7) % 1000) as i64 - 500)
            .collect();
        let seq: i64 = data.iter().map(|x| x * x).sum();
        let par = p.map_reduce_index(0..data.len(), 128, |i| data[i] * data[i], |a, b| a + b, 0);
        assert_eq!(seq, par);
    }
}
