//! The execution stage of the TCP transport (Linux, beside `conn` and
//! `sys`): admitted requests enter a fair queue, a fixed worker pool
//! dequeues per-(connection × index) windows, runs each through
//! [`execute_window`](super::execute_window), and hands the rendered
//! responses to the transport's `deliver` hook. This is the one place a
//! window of concurrent requests is formed. A request whose keyword
//! set's cached run covers it never gets here: the admission chain
//! answered it on the loop thread. The stdin stream has no second
//! request to queue, so it answers on its reading thread instead
//! ([`handle_line_ctx`](super::handle_line_ctx)).
//!
//! Fairness: the queue keys work on `(connection, route)` and rotates a
//! ring of keys, taking one request per key per pass. A client that
//! pipelines 1000 requests gets exactly one slot per rotation, the same
//! as a client with one request — so a firehose connection cannot
//! starve the others, and no index monopolizes the workers just
//! because its clients are chattier.
//!
//! Windows follow the traffic, not the race between threads — nobody
//! waits to fill one. The loop hands over what it admitted together in
//! one [`Dispatcher::submit_all`] (one pass over its ready connections),
//! a worker takes at most its share of the admitted work
//! ([`window_share`]) — whatever queued while the workers were busy —
//! and a window's answers go back in one `deliver` call. Without these a worker woken by the first
//! request of a burst ran it alone while its peer took the other
//! fifteen, or took all sixteen while its peer slept — which of the two
//! depended on microseconds, and a window's decode is shared by its
//! members, so throughput depended on them too.

use super::{execute_window, Admitted, Router, ServeCtx};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Cap on a dequeued window.
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

/// One admitted request travelling from a transport to a worker. Its
/// admission slot releases when this struct drops: response delivered,
/// or the request dropped with the queue on an expired drain.
pub(crate) struct Pending {
    /// Connection the response goes back to.
    pub conn: u64,
    /// What the admission chain admitted.
    pub admitted: Admitted,
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
        let key = (item.conn, item.admitted.route);
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

/// A window's `(connection, response)` pairs, as handed to a
/// transport's `deliver` hook.
pub(crate) type Answered = Vec<(u64, String)>;

struct Shared {
    queue: Mutex<FairQueue>,
    ready: Condvar,
    stop: AtomicBool,
    /// Set when the drain grace expired: workers exit without draining
    /// what is still queued (the queued `Pending`s are dropped by
    /// [`Dispatcher::stop_and_join`], releasing their permits).
    abandon: AtomicBool,
    /// Where a window's `(connection, response)` pairs go, all at once.
    deliver: Box<dyn Fn(Answered) + Send + Sync>,
    /// Requests the workers hold right now: dequeued, not yet answered.
    running: AtomicUsize,
    workers: usize,
    router: Arc<Router>,
    ctx: Arc<ServeCtx>,
}

/// The worker pool bridging the TCP transport and the engines.
pub(crate) struct Dispatcher {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Dispatcher {
    /// Spawn `workers` threads (`0` = the machine's available
    /// parallelism). `deliver` receives each window's
    /// `(connection, response)` pairs together, on the worker that ran
    /// it — the epoll transport writes them to their sockets there and
    /// tells its loop which connections it touched.
    pub(crate) fn new(
        router: Arc<Router>,
        ctx: Arc<ServeCtx>,
        workers: usize,
        deliver: impl Fn(Answered) + Send + Sync + 'static,
    ) -> Dispatcher {
        let workers = match workers {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(FairQueue::default()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
            abandon: AtomicBool::new(false),
            deliver: Box::new(deliver),
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
        Dispatcher { shared, workers: Mutex::new(workers) }
    }

    /// Hand the pool everything a transport admitted together (drains
    /// `items`): queued under one lock, so the workers woken see the
    /// whole burst and split it, not its first request. Once the pool
    /// has been stopped nobody would answer, so `items` is left as it
    /// is for the caller to refuse.
    pub(crate) fn submit_all(&self, items: &mut Vec<Pending>) {
        let burst = items.len();
        let mut queue = self.shared.queue.lock().expect("dispatch queue poisoned");
        if self.shared.stop.load(Ordering::SeqCst) {
            return;
        }
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

    /// Requests queued but not yet picked up by a worker.
    pub(crate) fn queued(&self) -> usize {
        self.shared.queue.lock().expect("dispatch queue poisoned").len()
    }

    /// Stop the workers. With `finish_queued` (a clean drain: nothing
    /// was pending when the transport decided to exit), workers first
    /// finish everything still queued and are joined; every response
    /// has been delivered when this returns.
    ///
    /// Without it — the drain grace expired — the queued `Pending`s
    /// are dropped on the spot (counted as shed; their admission
    /// permits release), workers exit after at most their current
    /// window, and they are detached rather than joined: a query
    /// wedged inside the engine must not pin shutdown past the grace.
    pub(crate) fn stop_and_join(&self, finish_queued: bool) {
        if !finish_queued {
            self.shared.abandon.store(true, Ordering::SeqCst);
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.ready.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        if finish_queued {
            for worker in workers {
                let _ = worker.join();
            }
        } else {
            drop(workers);
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
            // An engine served with `--batch 0` asks for no batching:
            // its windows are pinned to one request.
            let max = if shared.router.engine_at(route).batch_window().is_some() {
                window_share(queue.len(), shared.running.load(Ordering::SeqCst), shared.workers)
            } else {
                1
            };
            let window = queue.pop_window(max);
            shared.running.fetch_add(window.len(), Ordering::SeqCst);
            window
        };
        // The window's answers exist together, so they go back
        // together: one wake-up of the transport, one write per
        // connection, and the clients' next requests arrive as a burst.
        let engine = shared.router.engine_at(window[0].admitted.route);
        let admitted: Vec<&Admitted> = window.iter().map(|item| &item.admitted).collect();
        let responses = execute_window(engine, &shared.ctx, &admitted);
        let taken = window.len();
        let answered: Answered = window.iter().map(|item| item.conn).zip(responses).collect();
        // Release the admission slots before any client can read its
        // answer and send the next request.
        drop(window);
        (shared.deliver)(answered);
        shared.running.fetch_sub(taken, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::super::ServeRequest;
    use super::*;

    fn pending(conn: u64, route: usize, tag: u32) -> Pending {
        let req = ServeRequest::parse(&format!("{{\"topics\":[{tag}],\"k\":1}}")).unwrap();
        let _permit = ServeCtx::unlimited().admit().unwrap();
        Pending { conn, admitted: Admitted { route, req, deadline: None, _permit } }
    }

    fn tags(window: &[Pending]) -> Vec<(u64, u32)> {
        window.iter().map(|p| (p.conn, p.admitted.req.request.topics[0])).collect()
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
