//! A small persistent thread pool with a data-parallel `parallel_for`.
//!
//! The NN substrate is compute-bound on convolution and matrix products.
//! Spawning OS threads per layer call would dominate runtime, so a single
//! process-wide pool is created lazily and reused. Work is distributed via an
//! atomic index counter (self-scheduling), which balances uneven per-item
//! costs such as im2col on boundary samples.
//!
//! The pool intentionally exposes only *fork-join* parallelism: `parallel_for`
//! does not return until every index has been processed, which is what makes
//! lending non-`'static` closures to the workers sound.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex};

thread_local! {
    /// Whether the current thread is executing a pool job. Nested
    /// `parallel_for` calls from inside a job run inline instead of
    /// re-submitting: the outer fan-out already saturates the pool, and a
    /// nested submission would deadlock on the single-job-in-flight lock.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// RAII marker flagging the current thread as executing pool work.
struct JobScope;

impl JobScope {
    fn enter() -> Self {
        IN_POOL_JOB.with(|flag| flag.set(true));
        JobScope
    }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        IN_POOL_JOB.with(|flag| flag.set(false));
    }
}

/// Environment variable overriding the number of worker threads.
pub const THREADS_ENV: &str = "BITROBUST_THREADS";

/// Work items below this count run inline; the pool is not worth waking.
const SERIAL_CUTOFF: usize = 2;

type Task = dyn Fn(usize) + Sync;

/// The panic of a job's lowest panicking index, with that index.
type Panic = (usize, Box<dyn Any + Send>);

/// A type-erased pointer to the submitted closure plus its iteration state.
///
/// The raw pointer borrows from the submitting stack frame. This is sound
/// because [`ThreadPool::parallel_for`] does not return (nor unwind) until
/// every worker has finished executing the job (see `active` accounting
/// below): task panics are caught on every thread, so each worker always
/// reaches its decrement.
#[derive(Clone)]
struct Job {
    func: *const Task,
    next: Arc<AtomicUsize>,
    n: usize,
    panic: Arc<Mutex<Option<Panic>>>,
}

impl Job {
    /// Claims and runs indices until none are left. A panicking task is
    /// caught and recorded, and no further indices are claimed; indices
    /// already claimed still finish. Every index below a panicking one was
    /// claimed before it, so the recorded lowest panicking index does not
    /// depend on scheduling when task panics depend only on their index.
    fn run(&self, func: &(dyn Fn(usize) + Sync + '_)) {
        let _scope = JobScope::enter();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| func(i))) {
                self.next.store(self.n, Ordering::Relaxed);
                let mut panic = self.panic.lock();
                if panic.as_ref().is_none_or(|&(first, _)| i < first) {
                    *panic = Some((i, payload));
                }
            }
        }
    }
}

// SAFETY: the closure behind `func` is `Sync`, and the pointer is only
// dereferenced while the submitting frame is provably alive (the submitter
// blocks until `active == 0`).
unsafe impl Send for Job {}

struct State {
    job: Option<Job>,
    epoch: u64,
    active: usize,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    work_ready: Condvar,
    work_done: Condvar,
}

/// A fixed-size fork-join thread pool.
///
/// Most users never construct one: [`parallel_for`] uses a lazily created
/// process-wide pool sized from `std::thread::available_parallelism`, capped
/// by the `BITROBUST_THREADS` environment variable.
///
/// # Examples
///
/// ```
/// let sums: Vec<std::sync::atomic::AtomicU64> =
///     (0..128).map(|_| std::sync::atomic::AtomicU64::new(0)).collect();
/// bitrobust_tensor::parallel_for(128, |i| {
///     sums[i].store(i as u64 * 2, std::sync::atomic::Ordering::Relaxed);
/// });
/// assert_eq!(sums[64].load(std::sync::atomic::Ordering::Relaxed), 128);
/// ```
pub struct ThreadPool {
    inner: Arc<Inner>,
    submit_lock: Mutex<()>,
    workers: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("workers", &self.workers).finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `workers` background threads.
    ///
    /// The submitting thread also participates in each job, so total
    /// parallelism is `workers + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`; use [`ThreadPool::serial`] for a pool that
    /// runs everything inline.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "ThreadPool::new requires at least one worker");
        let inner = Arc::new(Inner {
            state: Mutex::new(State { job: None, epoch: 0, active: 0, shutdown: false }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        });
        for _ in 0..workers {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("bitrobust-pool".into())
                .spawn(move || worker_loop(&inner))
                .expect("failed to spawn pool worker");
        }
        Self { inner, submit_lock: Mutex::new(()), workers }
    }

    /// Creates a degenerate pool that executes jobs on the calling thread.
    pub fn serial() -> Self {
        Self {
            inner: Arc::new(Inner {
                state: Mutex::new(State { job: None, epoch: 0, active: 0, shutdown: false }),
                work_ready: Condvar::new(),
                work_done: Condvar::new(),
            }),
            submit_lock: Mutex::new(()),
            workers: 0,
        }
    }

    /// Number of background worker threads (0 for a serial pool).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Invokes `f(i)` for every `i in 0..n`, distributing indices over the
    /// pool. Blocks until all invocations complete.
    ///
    /// Indices are claimed dynamically, so per-index workloads may be uneven.
    /// `f` must be safe to call concurrently from multiple threads.
    ///
    /// Nesting is supported: a `parallel_for` issued from inside a running
    /// job executes its iterations inline on the calling worker (the outer
    /// fan-out already owns the pool), so parallel layers can be driven from
    /// parallel outer loops such as the fault-injection campaign engine.
    ///
    /// # Panics
    ///
    /// If `f` panics, the panic propagates to the caller once every thread
    /// has left the job; the pool stays usable. When several indices panic,
    /// the lowest one's payload is resumed. Indices not yet claimed when
    /// the first panic is caught are skipped.
    pub fn parallel_for<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if n == 0 {
            return;
        }
        if self.workers == 0 || n < SERIAL_CUTOFF || IN_POOL_JOB.with(Cell::get) {
            bitrobust_obs::counter_add("pool.inline", 1);
            for i in 0..n {
                f(i);
            }
            return;
        }
        bitrobust_obs::counter_add("pool.jobs", 1);

        // One job in flight at a time; concurrent submitters queue here.
        let _guard = self.submit_lock.lock();

        let f_ref: &(dyn Fn(usize) + Sync + '_) = &f;
        // SAFETY: lifetime erasure only; the pointer is dropped before this
        // function returns (workers finish before `active` reaches zero).
        let f_static: &'static Task = unsafe { std::mem::transmute(f_ref) };
        let job = Job {
            func: f_static as *const Task,
            next: Arc::new(AtomicUsize::new(0)),
            n,
            panic: Arc::new(Mutex::new(None)),
        };

        let epoch;
        {
            let mut state = self.inner.state.lock();
            state.job = Some(job.clone());
            state.epoch += 1;
            state.active = self.workers;
            epoch = state.epoch;
        }
        self.inner.work_ready.notify_all();

        // The submitter chips in instead of idling.
        job.run(f_ref);

        let mut state = self.inner.state.lock();
        while !(state.active == 0 && state.epoch == epoch) {
            self.inner.work_done.wait(&mut state);
        }
        state.job = None;
        drop(state);
        let panic = job.panic.lock().take();
        if let Some((_, payload)) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock();
        state.shutdown = true;
        drop(state);
        self.inner.work_ready.notify_all();
    }
}

fn worker_loop(inner: &Inner) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut state = inner.state.lock();
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != last_epoch {
                    last_epoch = state.epoch;
                    break state.job.clone().expect("epoch advanced without a job");
                }
                inner.work_ready.wait(&mut state);
            }
        };

        // SAFETY: the submitter keeps the closure alive until `active == 0`,
        // which we only signal after the last dereference below.
        let func = unsafe { &*job.func };
        job.run(func);

        let mut state = inner.state.lock();
        state.active -= 1;
        if state.active == 0 {
            inner.work_done.notify_all();
        }
    }
}

fn global_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let available = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(available)
            .clamp(1, 64);
        if threads <= 1 {
            ThreadPool::serial()
        } else {
            // The submitter participates, so spawn one fewer worker.
            ThreadPool::new(threads - 1)
        }
    })
}

/// Runs `f(i)` for `i in 0..n` on the process-wide pool.
///
/// See [`ThreadPool::parallel_for`] for the contract on `f`.
pub fn parallel_for<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    global_pool().parallel_for(n, f);
}

/// Total parallelism of the process-wide pool (background workers plus the
/// submitting thread; `1` for a serial pool). This is the authoritative
/// thread count for benchmark reports — it reflects the `BITROBUST_THREADS`
/// override and clamping exactly as the pool applied them.
pub fn pool_parallelism() -> usize {
    global_pool().workers() + 1
}

/// Splits `out` into `n = out.len().div_ceil(chunk)` consecutive chunks and
/// runs `f(i, chunk_i)` in parallel, handing each invocation exclusive access
/// to its chunk.
///
/// This is the workhorse for per-sample parallelism: a batched tensor's data
/// is a contiguous buffer, and each sample occupies a disjoint `chunk`-sized
/// region.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn parallel_for_disjoint_chunks<F>(out: &mut [f32], chunk: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let len = out.len();
    if len == 0 {
        return;
    }
    let n = len.div_ceil(chunk);
    let base = SendPtr(out.as_mut_ptr());
    // Capture the Send+Sync wrapper by reference, not its raw-pointer field
    // (edition-2021 closures would otherwise capture the non-Send field).
    let base = &base;
    parallel_for(n, |i| {
        let start = i * chunk;
        let end = (start + chunk).min(len);
        // SAFETY: chunks [start, end) are pairwise disjoint and within bounds;
        // `out` is exclusively borrowed for the duration of this call.
        let slice = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
        f(i, slice);
    });
}

#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
// SAFETY: used only to carve provably disjoint sub-slices across threads.
unsafe impl Send for SendPtr {}
// SAFETY: shared references to SendPtr only copy the address; all writes go
// through the disjoint sub-slices derived above, never through `&SendPtr`.
unsafe impl Sync for SendPtr {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_for_visits_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_zero_and_one() {
        parallel_for(0, |_| panic!("must not be called"));
        let hit = AtomicUsize::new(0);
        parallel_for(1, |i| {
            assert_eq!(i, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = ThreadPool::new(3);
        for round in 0..100 {
            let counter = AtomicUsize::new(0);
            pool.parallel_for(round % 7 + 1, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), round % 7 + 1);
        }
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = ThreadPool::serial();
        let counter = AtomicUsize::new(0);
        pool.parallel_for(10, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn disjoint_chunks_cover_buffer_exactly() {
        let mut buf = vec![0.0f32; 103]; // deliberately not a multiple of chunk
        parallel_for_disjoint_chunks(&mut buf, 10, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i as f32 + 1.0;
            }
        });
        assert!(buf.iter().all(|&v| v > 0.0));
        assert_eq!(buf[0], 1.0);
        assert_eq!(buf[100], 11.0);
        assert_eq!(buf[102], 11.0);
    }

    #[test]
    fn disjoint_chunks_empty_buffer_is_noop() {
        let mut buf: Vec<f32> = Vec::new();
        parallel_for_disjoint_chunks(&mut buf, 4, |_, _| panic!("must not run"));
    }

    #[test]
    fn nested_parallel_for_runs_inline_without_deadlock() {
        // Every (i, j) pair must be visited exactly once; the inner call
        // runs inline on whichever thread claimed `i`.
        let hits: Vec<Vec<AtomicUsize>> =
            (0..16).map(|_| (0..8).map(|_| AtomicUsize::new(0)).collect()).collect();
        parallel_for(16, |i| {
            parallel_for(8, |j| {
                hits[i][j].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().flatten().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_disjoint_chunks_cover_buffer() {
        let results: Vec<Mutex<Vec<f32>>> = (0..6).map(|_| Mutex::new(Vec::new())).collect();
        parallel_for(6, |i| {
            let mut buf = vec![0.0f32; 32];
            parallel_for_disjoint_chunks(&mut buf, 8, |j, chunk| {
                for v in chunk.iter_mut() {
                    *v = (i * 10 + j) as f32;
                }
            });
            *results[i].lock() = buf;
        });
        for (i, slot) in results.iter().enumerate() {
            let buf = slot.lock();
            assert_eq!(buf[0], (i * 10) as f32);
            assert_eq!(buf[31], (i * 10 + 3) as f32);
        }
    }

    #[test]
    fn task_panics_propagate_lowest_index_and_pool_survives() {
        // Runs on a helper thread so a pool that hangs after a task panic
        // fails the test instead of stalling it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = ThreadPool::new(3);
            let mut messages = Vec::new();
            for panic_at in [&[1][..], &[40], &[1, 40], &[63], &[0, 1, 2, 3]] {
                for _ in 0..10 {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        pool.parallel_for(64, |i| {
                            if panic_at.contains(&i) {
                                panic!("task {i} failed");
                            }
                        })
                    }));
                    let payload = outcome.expect_err("a task panic must reach the submitter");
                    let message = payload.downcast::<String>().map(|m| *m).unwrap_or_default();
                    messages.push((panic_at[0], message));
                }
            }
            let counter = AtomicUsize::new(0);
            pool.parallel_for(64, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            tx.send((messages, counter.into_inner())).expect("receiver alive");
        });
        let (messages, after) = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("parallel_for hung after a task panic");
        for (lowest, message) in messages {
            assert_eq!(message, format!("task {lowest} failed"));
        }
        assert_eq!(after, 64, "the pool must stay usable after a task panic");
    }

    #[test]
    fn concurrent_submitters_serialize_safely() {
        let pool = std::sync::Arc::new(ThreadPool::new(2));
        let total = std::sync::Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = std::sync::Arc::clone(&pool);
                let total = std::sync::Arc::clone(&total);
                s.spawn(move || {
                    for _ in 0..25 {
                        pool.parallel_for(8, |_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 25 * 8);
    }
}
