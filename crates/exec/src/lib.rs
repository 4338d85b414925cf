//! Deterministic parallel execution for the KB-TIM hot paths.
//!
//! Every parallel loop in the workspace follows one discipline so that
//! **results are bit-identical for any thread count**:
//!
//! 1. work is split into *shards* whose count and boundaries depend only
//!    on the problem size ([`shard_count`] / [`shard_range`]), never on
//!    how many threads happen to run;
//! 2. each shard owns an independent RNG stream derived from a base seed
//!    and its shard index ([`shard_seed`]), so no shard ever observes
//!    another shard's draws;
//! 3. shard outputs are merged in shard-index order.
//!
//! [`ExecPool`] schedules shards over a **persistent** engine
//! ([`ExecPool::new`]): a long-lived worker pool of parked OS threads
//! sharing an injector slot — one job at a time, shards claimed from an
//! atomic counter. Workers spawn lazily on the first parallel call and
//! then stay parked between calls, so a serving tier pays thread-spawn
//! cost once per process, not once per query. If a second job arrives
//! while one is running (concurrent queries against a shared index),
//! the submitter degrades to inline execution — same answer, no
//! queueing latency cliff, no possibility of deadlock on re-entrant
//! submission. (This crate's own tests keep the original
//! `std::thread::scope` engine, workers spawned per call, as the
//! determinism *oracle* the persistent engine is compared with.)
//!
//! With one thread (or one shard) — [`ExecPool::sequential`] — a call
//! is an inline loop with zero synchronization. Worker-local scratch state (e.g. an
//! `RrSampler`'s stamp arrays) is supported through
//! [`ExecPool::map_shards_with`] — scratch reuse is safe precisely
//! because shard outputs are functions of (shard index, base seed) alone.

#![deny(missing_docs)]

use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Default work-shard granularity (items per shard) for batch sampling.
///
/// Coarse enough to amortize scheduling, fine enough to load-balance the
/// skewed RR-set sizes of power-law graphs. Part of the deterministic
/// output contract: changing it changes which RNG stream draws which
/// sample (but never the distribution).
pub const DEFAULT_SHARD_SIZE: usize = 512;

/// Derive the RNG seed of shard `shard` from a base seed.
///
/// The XOR'd value feeds `SmallRng::seed_from_u64`, which expands it with
/// SplitMix64, so consecutive shard ids yield uncorrelated streams.
#[inline]
pub fn shard_seed(base: u64, shard: u64) -> u64 {
    base ^ shard
}

/// Number of shards needed to cover `total` items at `shard_size` each.
#[inline]
pub fn shard_count(total: usize, shard_size: usize) -> usize {
    assert!(shard_size > 0, "shard_size must be positive");
    total.div_ceil(shard_size)
}

/// Item range of shard `shard` (the final shard may be short).
#[inline]
pub fn shard_range(total: usize, shard_size: usize, shard: usize) -> Range<usize> {
    let start = shard * shard_size;
    start..((start + shard_size).min(total))
}

/// A deterministic parallel executor with a fixed worker count.
///
/// Cloning is cheap and shares the underlying worker pool.
/// Constructing a pool is free: workers spawn lazily on the first
/// parallel call.
#[derive(Debug, Clone)]
pub struct ExecPool {
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    /// One thread: every call is an inline loop.
    Inline,
    /// Workers spawned per call under `std::thread::scope` — the
    /// original engine, kept as the tests' determinism oracle.
    #[cfg(test)]
    Scoped { threads: usize },
    /// Long-lived parked workers shared by every clone of this pool.
    Persistent(Arc<Persistent>),
}

#[derive(Debug)]
struct Persistent {
    threads: usize,
    /// Spawned on the first parallel call; parked between calls.
    workers: OnceLock<WorkerPool>,
}

fn resolve_threads(threads: Option<usize>) -> usize {
    match threads {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

impl ExecPool {
    /// Persistent pool with an explicit worker count; `None` uses the
    /// machine's available parallelism. Workers spawn on first use and
    /// stay parked between calls until the last clone drops.
    pub fn new(threads: Option<usize>) -> ExecPool {
        let threads = resolve_threads(threads);
        if threads <= 1 {
            // One thread never schedules anything: skip the machinery.
            return ExecPool::sequential();
        }
        ExecPool {
            inner: Inner::Persistent(Arc::new(Persistent { threads, workers: OnceLock::new() })),
        }
    }

    /// Scoped pool (workers spawned per call) — the oracle the
    /// persistent engine is tested against.
    #[cfg(test)]
    fn scoped(threads: Option<usize>) -> ExecPool {
        ExecPool { inner: Inner::Scoped { threads: resolve_threads(threads) } }
    }

    /// Single-threaded pool (inline execution, no synchronization).
    pub fn sequential() -> ExecPool {
        ExecPool { inner: Inner::Inline }
    }

    /// Worker count this pool schedules onto.
    pub fn threads(&self) -> usize {
        match &self.inner {
            Inner::Inline => 1,
            #[cfg(test)]
            Inner::Scoped { threads } => *threads,
            Inner::Persistent(p) => p.threads,
        }
    }

    /// Whether this pool keeps long-lived workers between calls.
    pub fn is_persistent(&self) -> bool {
        matches!(self.inner, Inner::Persistent(_))
    }

    /// Map `f` over shard indices `0..num_shards`, returning outputs in
    /// shard order regardless of execution interleaving.
    pub fn map_shards<T, F>(&self, num_shards: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_shards_with(num_shards, || (), |(), shard| f(shard))
    }

    /// [`ExecPool::map_shards`] with worker-local scratch state: `init`
    /// runs once per worker, and `f` receives the worker's state mutably.
    ///
    /// Shard outputs must be functions of the shard index alone (not of
    /// the scratch contents), which every caller in this workspace
    /// guarantees by re-seeding per shard.
    pub fn map_shards_with<S, T, I, F>(&self, num_shards: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        if num_shards == 0 {
            return Vec::new();
        }
        // Failpoint on the job-dispatch edge: `delay` stalls the fan-out,
        // `panic` kills the submitting side mid-dispatch (the containment
        // tier must survive both). `err` has no meaning here — dispatch
        // is infallible — so an armed `err` action passes through.
        let _ = kbtim_fault::inject("exec.dispatch");
        let workers = self.threads().min(num_shards);
        if workers <= 1 {
            let mut state = init();
            return (0..num_shards).map(|shard| f(&mut state, shard)).collect();
        }

        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..num_shards).map(|_| Mutex::new(None)).collect();
        // The whole per-worker loop, shared by both engines: claim shards
        // from the atomic counter until drained, writing outputs into
        // their shard's slot. Which worker runs which shard varies; where
        // each output lands does not.
        let worker_loop = || {
            let mut state = init();
            loop {
                let shard = next.fetch_add(1, Ordering::Relaxed);
                if shard >= num_shards {
                    break;
                }
                let out = f(&mut state, shard);
                *slots[shard].lock().expect("result slot poisoned") = Some(out);
            }
        };

        match &self.inner {
            Inner::Inline => unreachable!("one worker runs inline above"),
            #[cfg(test)]
            Inner::Scoped { .. } => {
                std::thread::scope(|scope| {
                    // The submitting thread participates too, so `workers`
                    // threads total run the loop (same as the persistent
                    // engine — and one fewer spawn than before). Spawn by
                    // shared reference: every worker runs the same `Fn`.
                    let worker: &(dyn Fn() + Sync) = &worker_loop;
                    for _ in 1..workers {
                        scope.spawn(worker);
                    }
                    worker_loop();
                });
            }
            Inner::Persistent(p) => {
                let pool = p.workers.get_or_init(|| WorkerPool::spawn(p.threads - 1));
                pool.run(&worker_loop);
            }
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every shard produced a result")
            })
            .collect()
    }
}

/// Type-erased pointer to a submitted job's worker loop.
///
/// The pointee lives on the submitting thread's stack; [`WorkerPool::run`]
/// guarantees it stays alive until every worker has exited the loop (the
/// submitter blocks until `active == 0` after retracting the job), which
/// is what makes the lifetime erasure sound.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared-reference callable from any
// thread) and `WorkerPool::run` keeps it alive for as long as any worker
// can hold the pointer.
unsafe impl Send for TaskPtr {}

#[derive(Clone, Copy)]
struct Job {
    task: TaskPtr,
    /// Publication sequence number, so a worker never runs one job twice.
    epoch: u64,
}

#[derive(Default)]
struct PoolState {
    /// The injector slot: at most one job at a time. Retracted (set back
    /// to `None`) by the submitter before it returns.
    job: Option<Job>,
    /// Sequence number of the most recently published job.
    epoch: u64,
    /// Workers currently inside a job's loop.
    active: usize,
    /// First panic payload observed by a worker during the current job.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    work: Condvar,
    /// The submitter parks here while stragglers finish.
    done: Condvar,
}

/// Long-lived parked worker threads executing one injected job at a time.
///
/// Not constructed directly — [`ExecPool::new`] owns one lazily. Exposed
/// only through the `ExecPool` API so every call site keeps the shard
/// determinism contract.
#[derive(Debug)]
struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PoolShared { .. }")
    }
}

impl WorkerPool {
    /// Spawn `extra_workers` parked threads (the submitting thread is the
    /// +1 that brings a pool to its full worker count).
    fn spawn(extra_workers: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..extra_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("kbtim-exec-{i}"))
                    .spawn(move || worker_main(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Execute `task` on every pool worker plus the calling thread, then
    /// block until all of them have left the loop.
    ///
    /// If the injector slot is occupied (another thread's job is in
    /// flight), the task runs entirely inline on the caller — the shard
    /// loop is self-contained, so the answer is identical and re-entrant
    /// submission can never deadlock.
    fn run(&self, task: &(dyn Fn() + Sync)) {
        // SAFETY: `run` does not return until `active == 0` with the job
        // retracted, so no worker can dereference the pointer after the
        // referent's stack frame dies (see TaskPtr).
        let raw = TaskPtr(unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(task)
        });
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            if st.job.is_some() {
                drop(st);
                task(); // contended: degrade to inline, same answer
                return;
            }
            st.epoch += 1;
            st.job = Some(Job { task: raw, epoch: st.epoch });
            self.shared.work.notify_all();
        }
        // Participate; a panicking task must not skip the retraction
        // below (workers still hold the pointer), so catch and re-throw
        // after the barrier.
        let mine = std::panic::catch_unwind(AssertUnwindSafe(task));
        let theirs = {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.job = None; // retract: late wake-ups go back to sleep
            while st.active > 0 {
                st = self.shared.done.wait(st).expect("pool state poisoned");
            }
            st.panic.take()
        };
        if let Err(payload) = mine {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            std::panic::resume_unwind(payload);
        }
    }
}

fn worker_main(shared: &PoolShared) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                match st.job {
                    Some(job) if job.epoch > seen_epoch => {
                        st.active += 1;
                        break job;
                    }
                    _ => st = shared.work.wait(st).expect("pool state poisoned"),
                }
            }
        };
        seen_epoch = job.epoch;
        // SAFETY: `active` was incremented under the lock while the job
        // was published, so WorkerPool::run is still blocked in its
        // `active > 0` wait and the pointee is alive.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job.task.0)() }));
        let mut st = shared.state.lock().expect("pool state poisoned");
        if let Err(payload) = result {
            // Keep the first payload; the submitter re-throws it. The
            // worker itself survives, so the pool never shrinks.
            st.panic.get_or_insert(payload);
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_all();
        }
        drop(st);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state poisoned");
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A waker-coupled completion queue: worker threads push finished
/// results, an event loop drains them in batches.
///
/// The serving tier's epoll loop blocks in `epoll_wait`, so a plain
/// channel is not enough — something must kick the loop awake when a
/// result lands. `CompletionQueue` couples the hand-off with that kick:
/// every [`CompletionQueue::push`] appends under the mutex and then
/// invokes the waker (an `eventfd` write in the serving tier; a no-op or
/// condvar notify elsewhere). The consumer drains the whole backlog in
/// one lock acquisition with [`CompletionQueue::drain_into`], so a burst
/// of completions costs one wake-up and one allocation-free swap, not
/// one syscall per result.
pub struct CompletionQueue<T> {
    items: Mutex<Vec<T>>,
    waker: Box<dyn Fn() + Send + Sync>,
}

impl<T> std::fmt::Debug for CompletionQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CompletionQueue { .. }")
    }
}

impl<T> CompletionQueue<T> {
    /// A queue whose pushes invoke `waker` after publishing the item.
    pub fn new(waker: impl Fn() + Send + Sync + 'static) -> CompletionQueue<T> {
        CompletionQueue { items: Mutex::new(Vec::new()), waker: Box::new(waker) }
    }

    /// Publish one completed item, then wake the consumer. The item is
    /// visible to [`CompletionQueue::drain_into`] before the waker runs,
    /// so a consumer woken by this call always observes it.
    pub fn push(&self, item: T) {
        self.push_all([item]);
    }

    /// Publish a batch of completed items in order, then wake the
    /// consumer **once**: a producer that finishes several results
    /// together hands them over together, so the consumer handles them
    /// in one wake-up instead of racing the producer item by item.
    pub fn push_all(&self, batch: impl IntoIterator<Item = T>) {
        self.items.lock().expect("completion queue poisoned").extend(batch);
        (self.waker)();
    }

    /// Move every queued item into `out` (appending), in push order.
    /// Returns how many items were drained.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        let mut items = self.items.lock().expect("completion queue poisoned");
        let n = items.len();
        out.append(&mut items);
        n
    }

    /// Items currently queued (racy by nature; for stats and tests).
    pub fn len(&self) -> usize {
        self.items.lock().expect("completion queue poisoned").len()
    }

    /// Whether the queue is currently empty (racy by nature).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn shard_geometry() {
        assert_eq!(shard_count(0, 512), 0);
        assert_eq!(shard_count(1, 512), 1);
        assert_eq!(shard_count(512, 512), 1);
        assert_eq!(shard_count(513, 512), 2);
        assert_eq!(shard_range(1000, 512, 0), 0..512);
        assert_eq!(shard_range(1000, 512, 1), 512..1000);
    }

    #[test]
    fn outputs_in_shard_order() {
        for pool in [ExecPool::new(Some(4)), ExecPool::scoped(Some(4))] {
            let out = pool.map_shards(100, |shard| shard * 2);
            assert_eq!(out, (0..100).map(|s| s * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn identical_across_thread_counts_and_engines() {
        // The deterministic contract: same shard outputs for 1 vs N
        // threads, scoped or persistent, including when shards draw
        // randomness from their derived streams.
        let run = |pool: ExecPool| -> Vec<Vec<u32>> {
            pool.map_shards(37, |shard| {
                let mut rng = SmallRng::seed_from_u64(shard_seed(99, shard as u64));
                (0..20).map(|_| rng.gen_range(0..1000u32)).collect()
            })
        };
        let single = run(ExecPool::sequential());
        for threads in [2, 4, 8] {
            assert_eq!(single, run(ExecPool::new(Some(threads))), "persistent threads={threads}");
            assert_eq!(single, run(ExecPool::scoped(Some(threads))), "scoped threads={threads}");
        }
    }

    #[test]
    fn persistent_pool_reused_across_calls() {
        // Same pool instance over many calls: workers spawn once (lazily)
        // and every call still honours the shard-order contract.
        let pool = ExecPool::new(Some(4));
        for round in 0..50 {
            let out = pool.map_shards(23, move |shard| shard * 31 + round);
            assert_eq!(out, (0..23).map(|s| s * 31 + round).collect::<Vec<_>>(), "round {round}");
        }
        assert!(pool.is_persistent());
    }

    #[test]
    fn clones_share_one_worker_pool() {
        let pool = ExecPool::new(Some(3));
        let clone = pool.clone();
        let a = pool.map_shards(10, |s| s);
        let b = clone.map_shards(10, |s| s);
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_submissions_both_complete() {
        // Two threads submitting to one shared pool: one wins the
        // injector slot, the other degrades to inline — both answers are
        // complete and correct.
        let pool = ExecPool::new(Some(4));
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for t in 0..4 {
                let pool = pool.clone();
                joins.push(scope.spawn(move || pool.map_shards(200, move |s| s as u64 + t)));
            }
            for (t, join) in joins.into_iter().enumerate() {
                let out = join.join().expect("submitter panicked");
                assert_eq!(out, (0..200).map(|s| s as u64 + t as u64).collect::<Vec<_>>());
            }
        });
    }

    #[test]
    fn reentrant_submission_runs_inline() {
        // A shard body submitting to its own pool must not deadlock: the
        // slot is occupied, so the nested call runs inline.
        let pool = ExecPool::new(Some(2));
        let nested = pool.clone();
        let out = pool.map_shards(4, move |shard| {
            let inner: usize = nested.map_shards(3, |s| s).into_iter().sum();
            shard * 10 + inner
        });
        assert_eq!(out, vec![3, 13, 23, 33]);
    }

    #[test]
    fn worker_state_reused_but_results_pure() {
        for pool in [ExecPool::new(Some(3)), ExecPool::scoped(Some(3))] {
            // State counts calls; outputs ignore it, so order
            // independence holds.
            let out = pool.map_shards_with(
                50,
                || 0usize,
                |calls, shard| {
                    *calls += 1;
                    shard + 1
                },
            );
            assert_eq!(out, (1..=50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_shard() {
        for pool in [ExecPool::new(Some(8)), ExecPool::scoped(Some(8))] {
            assert!(pool.map_shards(0, |s| s).is_empty());
            assert_eq!(pool.map_shards(1, |s| s), vec![0]);
        }
    }

    #[test]
    fn pool_sizing() {
        assert_eq!(ExecPool::sequential().threads(), 1);
        assert_eq!(ExecPool::new(Some(0)).threads(), 1);
        assert_eq!(ExecPool::new(Some(6)).threads(), 6);
        assert!(ExecPool::new(None).threads() >= 1);
        assert_eq!(ExecPool::scoped(Some(5)).threads(), 5);
        assert!(!ExecPool::sequential().is_persistent());
        assert!(!ExecPool::scoped(Some(4)).is_persistent());
    }

    #[test]
    fn panic_in_shard_propagates_and_pool_survives() {
        let pool = ExecPool::new(Some(4));
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map_shards(64, |shard| {
                if shard == 13 {
                    panic!("boom in shard 13");
                }
                shard
            })
        }));
        assert!(attempt.is_err(), "shard panic must propagate to the submitter");
        // The pool must still work afterwards: workers caught the panic
        // instead of dying.
        let out = pool.map_shards(16, |s| s);
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "shard_size must be positive")]
    fn zero_shard_size_rejected() {
        shard_count(10, 0);
    }

    #[test]
    fn completion_queue_wakes_and_drains_in_order() {
        let wakes = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&wakes);
        let queue: CompletionQueue<u32> = CompletionQueue::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert!(queue.is_empty());

        // Concurrent pushes: every item arrives exactly once and every
        // push fired the waker.
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let queue = &queue;
                scope.spawn(move || {
                    for i in 0..25 {
                        queue.push(t * 100 + i);
                    }
                });
            }
        });
        assert_eq!(wakes.load(Ordering::SeqCst), 100);
        assert_eq!(queue.len(), 100);

        let mut out = Vec::new();
        assert_eq!(queue.drain_into(&mut out), 100);
        assert!(queue.is_empty());
        out.sort_unstable();
        let expected: Vec<u32> = (0..4).flat_map(|t| (0..25).map(move |i| t * 100 + i)).collect();
        assert_eq!(out, expected);

        // Per-producer FIFO: one producer's items drain in push order.
        queue.push(3);
        queue.push(1);
        queue.push(2);
        let mut out = Vec::new();
        queue.drain_into(&mut out);
        assert_eq!(out, vec![3, 1, 2]);

        // A batch lands whole, in order, behind one wake-up.
        let before = wakes.load(Ordering::SeqCst);
        queue.push_all([7, 5, 6]);
        assert_eq!(wakes.load(Ordering::SeqCst), before + 1);
        let mut out = Vec::new();
        queue.drain_into(&mut out);
        assert_eq!(out, vec![7, 5, 6]);
    }
}
