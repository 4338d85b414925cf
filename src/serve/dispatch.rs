//! The epoll front end's execution stage: admitted requests flow from
//! the event loop into a fair queue, a fixed worker pool dequeues
//! per-(connection × index) windows, runs them through the engine, and
//! hands rendered responses back over a waker-coupled completion queue.
//!
//! Fairness: the queue keys work on `(connection, route)` and rotates a
//! ring of keys, taking one request per key per pass. A client that
//! pipelines 1000 requests gets exactly one slot per rotation, the same
//! as a client with one request — so a firehose connection cannot
//! starve the others, and no index monopolizes the workers just
//! because its clients are chattier.
//!
//! Batching: when the engine has a batch window configured, a worker
//! dequeues a whole *window* of same-route requests (the fair rotation
//! bounded by the planner's cap) and executes it via
//! [`QueryEngine::query_window`] — the ready queue has already
//! collected the concurrency a condvar admission window would wait
//! for, which is what lets the batch leader stop sleeping (the
//! `BENCH_batch.json` 1-client regression this PR retires).
//!
//! Windows follow the traffic, not the race between threads: the event
//! loop hands over what one pass over its ready connections admitted in
//! one [`Dispatcher::submit_all`], a worker takes at most its share of
//! the admitted work ([`window_share`]), and a window's answers go back
//! in one [`CompletionQueue::push_all`]. Without these a worker woken
//! by the first request of a burst ran it alone while its peer took the
//! other fifteen, or took all sixteen while its peer slept — which of
//! the two depended on microseconds, and a window's decode is shared by
//! its members, so throughput depended on them too.

use super::{
    execute_rendered, render_result, OwnedPermit, Router, ServeCtx, ServeOp, ServeRequest,
};
use kbtim_exec::CompletionQueue;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Planner cap reused as the dequeue window size when the engine
/// batches (mirrors the `Batcher::max_requests` default).
const BATCH_WINDOW_MAX: usize = 64;

/// How many requests a worker dequeues at most: its share of the
/// admitted work — `queued` plus what the workers are `running` — and
/// never more than the planner's cap. A pool facing one burst splits it
/// (every core decodes and counts) where the first worker awake would
/// have taken all of it; under a standing queue every worker takes full
/// windows.
fn window_share(queued: usize, running: usize, workers: usize) -> usize {
    (queued + running).div_ceil(workers).clamp(1, BATCH_WINDOW_MAX)
}

/// One admitted request travelling from the event loop to a worker.
pub(crate) struct Pending {
    /// Connection the response goes back to.
    pub conn: u64,
    /// Route id ([`Router::resolve`]) — the engine that answers.
    pub route: usize,
    /// The parsed request.
    pub req: ServeRequest,
    /// Effective deadline, computed at admission.
    pub deadline: Option<Instant>,
    /// The admission slot; released when this struct drops (response
    /// enqueued, or the dispatcher dropped the request on shutdown).
    #[allow(dead_code)] // held for its Drop
    pub permit: Option<OwnedPermit>,
}

/// The per-(connection × route) fair queue. Not thread-safe by itself;
/// [`Dispatcher`] wraps it in a mutex.
#[derive(Default)]
pub(crate) struct FairQueue {
    /// Rotation ring of keys with non-empty queues, in arrival order.
    keys: VecDeque<(u64, usize)>,
    queues: HashMap<(u64, usize), VecDeque<Pending>>,
    len: usize,
}

impl FairQueue {
    pub(crate) fn push(&mut self, item: Pending) {
        let key = (item.conn, item.route);
        let queue = self.queues.entry(key).or_default();
        if queue.is_empty() {
            self.keys.push_back(key);
        }
        queue.push_back(item);
        self.len += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The route the next dequeue will serve (the front key's).
    fn front_route(&self) -> Option<usize> {
        self.keys.front().map(|&(_, route)| route)
    }

    /// Dequeue up to `max` requests of one route — the front key's, so
    /// head-of-line order decides which index runs next. Each rotation
    /// pass takes at most one request per key, so every connection
    /// queued on this route contributes before any contributes twice;
    /// keys of other routes keep their ring position.
    pub(crate) fn pop_window(&mut self, max: usize) -> Vec<Pending> {
        let mut out = Vec::new();
        let Some(route) = self.front_route() else {
            return out;
        };
        loop {
            let ring = self.keys.len();
            if ring == 0 || out.len() >= max {
                break;
            }
            let mut took = false;
            for _ in 0..ring {
                if out.len() >= max {
                    break;
                }
                let key = self.keys.pop_front().expect("ring length checked");
                if key.1 == route {
                    let queue = self.queues.get_mut(&key).expect("ring key has a queue");
                    out.push(queue.pop_front().expect("ring queues are non-empty"));
                    self.len -= 1;
                    took = true;
                    if queue.is_empty() {
                        self.queues.remove(&key);
                        continue; // key leaves the ring
                    }
                }
                self.keys.push_back(key);
            }
            if !took {
                break; // only other routes remain queued
            }
        }
        out
    }
}

struct Shared {
    queue: Mutex<FairQueue>,
    ready: Condvar,
    stop: AtomicBool,
    /// Set when the drain grace expired: workers exit without draining
    /// what is still queued (the queued `Pending`s are dropped by
    /// [`Dispatcher::stop_and_join`], releasing their permits).
    abandon: AtomicBool,
    completions: CompletionQueue<(u64, String)>,
    /// Requests the workers hold right now: dequeued, not yet answered.
    running: AtomicUsize,
    workers: usize,
    router: Arc<Router>,
    ctx: Arc<ServeCtx>,
}

/// The worker pool bridging the event loop and the engines.
pub(crate) struct Dispatcher {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Dispatcher {
    /// Spawn `workers` threads (min 1). `waker` runs after every
    /// completed response lands — the event loop passes its eventfd
    /// signal so `epoll_wait` wakes.
    pub(crate) fn new(
        router: Arc<Router>,
        ctx: Arc<ServeCtx>,
        workers: usize,
        waker: impl Fn() + Send + Sync + 'static,
    ) -> Dispatcher {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(FairQueue::default()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
            abandon: AtomicBool::new(false),
            completions: CompletionQueue::new(waker),
            running: AtomicUsize::new(0),
            workers,
            router,
            ctx,
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("kbtim-serve-{i}"))
                    .spawn(move || worker_main(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Dispatcher { shared, workers }
    }

    /// Hand the pool everything one event-loop pass admitted (drains
    /// `items`): queued under one lock, so the workers woken see the
    /// whole burst and split it, not its first request.
    pub(crate) fn submit_all(&self, items: &mut Vec<Pending>) {
        let burst = items.len();
        let mut queue = self.shared.queue.lock().expect("dispatch queue poisoned");
        for item in items.drain(..) {
            queue.push(item);
        }
        drop(queue);
        match burst {
            0 => {}
            1 => self.shared.ready.notify_one(),
            _ => self.shared.ready.notify_all(),
        }
    }

    /// Move every finished `(conn, response)` pair into `out`.
    pub(crate) fn drain_completions(&self, out: &mut Vec<(u64, String)>) -> usize {
        self.shared.completions.drain_into(out)
    }

    /// Requests queued but not yet picked up by a worker.
    pub(crate) fn queued(&self) -> usize {
        self.shared.queue.lock().expect("dispatch queue poisoned").len()
    }

    /// Stop the workers. With `finish_queued` (a clean drain: nothing
    /// was pending when the loop decided to exit), workers first
    /// finish everything still queued and are joined; completions
    /// pushed during the drain still reach
    /// [`Dispatcher::drain_completions`] afterwards.
    ///
    /// Without it — the drain grace expired — the queued `Pending`s
    /// are dropped on the spot (counted as shed; their admission
    /// permits release), workers exit after at most their current
    /// window, and they are detached rather than joined: a query
    /// wedged inside the engine must not pin shutdown past the grace,
    /// exactly as the threads front end's detached handlers cannot.
    pub(crate) fn stop_and_join(&mut self, finish_queued: bool) {
        if !finish_queued {
            self.shared.abandon.store(true, Ordering::SeqCst);
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.ready.notify_all();
        if finish_queued {
            for worker in self.workers.drain(..) {
                let _ = worker.join();
            }
        } else {
            self.workers.clear();
            let abandoned =
                std::mem::take(&mut *self.shared.queue.lock().expect("dispatch queue poisoned"));
            for _ in 0..abandoned.len() {
                self.shared.ctx.count_shed();
            }
            // Dropping the queue drops its Pendings, releasing their
            // admission permits.
            drop(abandoned);
        }
    }
}

fn worker_main(shared: &Shared) {
    loop {
        let window = {
            let mut queue = shared.queue.lock().expect("dispatch queue poisoned");
            loop {
                if shared.abandon.load(Ordering::SeqCst) {
                    return; // grace expired: leave the queue for stop_and_join to drop
                }
                if !queue.is_empty() {
                    break;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return; // queue drained, shutdown requested
                }
                queue = shared.ready.wait(queue).expect("dispatch queue poisoned");
            }
            let route = queue.front_route().expect("non-empty queue has a front");
            // A batching engine profits from whole windows; without a
            // window the engine coalesces per request and a window of 1
            // preserves the PR-7 execution path exactly.
            let max = if shared.router.engine_at(route).batch_window().is_some() {
                window_share(queue.len(), shared.running.load(Ordering::SeqCst), shared.workers)
            } else {
                1
            };
            let window = queue.pop_window(max);
            shared.running.fetch_add(window.len(), Ordering::SeqCst);
            window
        };
        let taken = window.len();
        execute_window(shared, window);
        shared.running.fetch_sub(taken, Ordering::SeqCst);
    }
}

/// Run one dequeued window and push its responses. Every `Pending` is
/// answered exactly once; permits release as the items drop.
fn execute_window(shared: &Shared, window: Vec<Pending>) {
    debug_assert!(!window.is_empty(), "workers only dequeue non-empty windows");
    let route = window[0].route;
    let engine = shared.router.engine_at(route);
    let ctx = &shared.ctx;

    // Non-batching engines take the PR-7 per-request path unchanged
    // (window size is pinned to 1 for them — coalescing happens in the
    // engine). Batching engines must NOT: `execute_rendered` would
    // route into the planner's condvar admission window, and with
    // several workers the elected leader always finds company pending
    // and sleeps out the full window per request. The ready queue
    // already collected the concurrency — `query_window` runs the
    // batch directly, even a batch of one.
    if window.len() == 1 && engine.batch_window().is_none() {
        let item = &window[0];
        let rendered = execute_rendered(engine, ctx, &item.req, item.deadline);
        shared.completions.push((item.conn, rendered));
        return;
    }

    // Split out requests already expired at dequeue — the same
    // admission-expiry check `execute_rendered` applies — then run the
    // rest as one shared batch. Mutation ops never batch: each runs on
    // its own through the per-request path (serialized on the delta
    // tier's writer lane), so a window mixing queries and writes
    // answers both correctly.
    let now = Instant::now();
    let mut live: Vec<&Pending> = Vec::with_capacity(window.len());
    for item in &window {
        if !matches!(item.req.op, ServeOp::Query) {
            let rendered = execute_rendered(engine, ctx, &item.req, item.deadline);
            shared.completions.push((item.conn, rendered));
        } else if item.deadline.is_some_and(|d| now >= d) {
            ctx.count_expired();
            shared.completions.push((
                item.conn,
                super::render_error(
                    item.req.id,
                    "deadline_exceeded",
                    "deadline expired at admission",
                    ctx.front_end(),
                ),
            ));
        } else {
            live.push(item);
        }
    }
    if live.is_empty() {
        return;
    }

    let requests: Vec<_> =
        live.iter().map(|item| (item.req.request.clone(), item.deadline)).collect();
    match catch_unwind(AssertUnwindSafe(|| engine.query_window(&requests))) {
        // The window's answers exist together, so they go back
        // together: one wake-up of the event loop, one write per
        // connection, and the clients' next requests arrive as a burst.
        Ok(results) => shared.completions.push_all(
            live.iter()
                .zip(results)
                .map(|(item, result)| {
                    (item.conn, render_result(engine, ctx, &item.req, Ok(result)))
                })
                .collect::<Vec<_>>(),
        ),
        // The whole window shares the execution, so the whole window
        // shares the containment: each request gets the structured
        // panic response its connection expects.
        Err(_) => shared.completions.push_all(
            live.iter()
                .map(|item| {
                    let panicked = Err(Box::new(()) as Box<dyn std::any::Any + Send>);
                    (item.conn, render_result(engine, ctx, &item.req, panicked))
                })
                .collect::<Vec<_>>(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbtim_index::{Algo, EngineRequest};

    fn pending(conn: u64, route: usize, tag: u32) -> Pending {
        Pending {
            conn,
            route,
            req: ServeRequest {
                id: Some(tag as u64),
                index: None,
                deadline_ms: None,
                op: ServeOp::Query,
                request: EngineRequest { topics: vec![tag], k: 1, algo: Algo::Auto },
            },
            deadline: None,
            permit: None,
        }
    }

    fn tags(window: &[Pending]) -> Vec<(u64, u32)> {
        window.iter().map(|p| (p.conn, p.req.request.topics[0])).collect()
    }

    #[test]
    fn fair_queue_rotates_across_connections() {
        let mut queue = FairQueue::default();
        // Connection 1 floods route 0; connections 2 and 3 each queue one.
        for tag in 0..4 {
            queue.push(pending(1, 0, tag));
        }
        queue.push(pending(2, 0, 10));
        queue.push(pending(3, 0, 20));
        assert_eq!(queue.len(), 6);

        // One request per connection per rotation pass: the flooder
        // contributes one, then the others, then the flooder again.
        let window = queue.pop_window(4);
        assert_eq!(tags(&window), vec![(1, 0), (2, 10), (3, 20), (1, 1)]);
        let window = queue.pop_window(10);
        assert_eq!(tags(&window), vec![(1, 2), (1, 3)]);
        assert!(queue.is_empty());
        assert!(queue.pop_window(8).is_empty());
    }

    #[test]
    fn fair_queue_windows_are_single_route() {
        let mut queue = FairQueue::default();
        queue.push(pending(1, 0, 0));
        queue.push(pending(1, 1, 100));
        queue.push(pending(2, 0, 1));
        queue.push(pending(2, 1, 101));

        // Front key is (1, route 0): the window takes route 0 from both
        // connections and leaves route 1 queued.
        let window = queue.pop_window(10);
        assert_eq!(tags(&window), vec![(1, 0), (2, 1)]);
        assert_eq!(queue.len(), 2);

        // Next window serves route 1, preserving ring order.
        let window = queue.pop_window(10);
        assert_eq!(tags(&window), vec![(1, 100), (2, 101)]);
        assert!(queue.is_empty());
    }

    #[test]
    fn a_window_is_a_workers_share_of_the_admitted_work() {
        // One burst, an idle pool: every worker gets a part.
        assert_eq!(window_share(16, 0, 2), 8);
        assert_eq!(window_share(8, 8, 2), 8);
        assert_eq!(window_share(5, 0, 4), 2);
        // A lone request is never held back; a peer's large window does
        // not shrink what is queued behind it.
        assert_eq!(window_share(1, 0, 2), 1);
        assert_eq!(window_share(3, 13, 2), 8);
        // A standing queue fills whole windows up to the planner's cap.
        assert_eq!(window_share(200, 64, 2), BATCH_WINDOW_MAX);
        assert_eq!(window_share(40, 0, 1), 40);
    }

    #[test]
    fn fair_queue_respects_window_cap() {
        let mut queue = FairQueue::default();
        for conn in 1..=3 {
            for tag in 0..3 {
                queue.push(pending(conn, 0, conn as u32 * 10 + tag));
            }
        }
        let window = queue.pop_window(2);
        assert_eq!(tags(&window), vec![(1, 10), (2, 20)]);
        assert_eq!(queue.len(), 7);
        // The interrupted rotation resumes where it left off.
        let window = queue.pop_window(100);
        assert_eq!(
            tags(&window),
            vec![(3, 30), (1, 11), (2, 21), (3, 31), (1, 12), (2, 22), (3, 32)]
        );
    }
}
