//! The TCP front end (Linux): one event-loop thread multiplexing every
//! connection, pipelined requests fanned into a fixed worker pool.
//!
//! Layout of the machine:
//!
//! * **Event loop (this module)** — nonblocking accept, per-connection
//!   nonblocking reads through an incremental [`LineFramer`](super::LineFramer)
//!   (the framer stdin reads through too), response
//!   outboxes with `EPOLLOUT` re-arm, and the drain state machine.
//! * **Dispatch (`super::dispatch`)** — the stage every transport
//!   shares: admitted requests enter a per-(connection × index) fair
//!   queue, one loop pass's worth at a time; workers dequeue windows
//!   (each at most its share) and execute them through
//!   [`kbtim_index::QueryEngine::query_window`].
//! * **Hand-off (`super::conn`, `super::sys`)** — the worker that
//!   rendered a window writes each connection's answers to its socket
//!   itself (one write per connection, serialized with the loop's own
//!   writes by the connection's outbox lock), then names the
//!   connections it touched in a [`kbtim_exec::CompletionQueue`] whose
//!   waker writes an `eventfd`, kicking `epoll_wait`: the loop flushes
//!   what a socket did not take, re-arms interest and closes what is
//!   finished. An answer therefore reaches its client without waiting
//!   for the loop thread to wake.
//!
//! Pipelining: a client may write many request lines without reading;
//! responses come back **in completion order**, matched by the echoed
//! `id` (normative semantics in `docs/PROTOCOL.md`). Backpressure is
//! per connection: at most `pipeline_depth` requests in flight —
//! beyond that, requests are shed with `overloaded` — and `outbox_cap`
//! bytes of unread responses, past which the loop *stops reading* the
//! connection (`EPOLLIN` drops until the outbox drains back under the
//! cap), so a client that pipelines without reading is throttled by
//! TCP instead of growing server memory without bound.
//!
//! Admission is the one chain every transport calls (`admit_line`),
//! with this transport's per-connection bounds passed in; the books
//! are the same [`ServeCtx`], so permits, deadlines, failpoint
//! containment, and the drained stats line work unchanged across
//! front ends. Whatever line the chain returns instead of an admitted
//! request — a refusal, or the answer sliced from a cached greedy run —
//! the loop queues on the connection's outbox itself: a cache hit
//! wakes no worker and no eventfd, and may overtake the connection's
//! earlier requests still with the workers.
//!
//! Connections are addressed by a **monotonic id**, never by fd: the
//! kernel reuses fds the moment a connection closes, and a completion
//! for a dead connection must be dropped, not delivered to whoever
//! inherited the number.

use super::Router;
use super::ServeCtx;
use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs of [`serve_epoll`]. Defaults match the CLI's.
#[derive(Debug, Clone)]
pub struct EpollConfig {
    /// Accepted-connection cap; further connects get a best-effort
    /// `overloaded` line and are dropped (`--max-conns`).
    pub max_conns: usize,
    /// Kernel accept backlog (`listen(2)`), for connect bursts.
    pub backlog: i32,
    /// Worker threads executing queries; `0` = the machine's available
    /// parallelism.
    pub workers: usize,
    /// Per-connection outbox cap in bytes: beyond this many unread
    /// response bytes the loop stops reading the connection (read
    /// interest re-arms once the outbox drains), so unread responses
    /// become TCP backpressure on the client, not server memory.
    pub outbox_cap: usize,
    /// Per-request line cap (`--max-line`), enforced by the framer.
    pub max_line: usize,
    /// Per-connection pipeline depth: at most this many requests in
    /// flight per connection; excess is shed with `overloaded`.
    pub pipeline_depth: usize,
    /// Drain grace: after shutdown begins, in-flight work gets this
    /// long to finish before the loop gives up.
    pub grace: Duration,
    /// Watch stdin for EOF as a drain channel (the supervisor-pipe
    /// contract). The CLI enables this only when stdin is a pipe or
    /// socket, so a daemon with stdin on `/dev/null` no longer drains
    /// immediately.
    pub watch_stdin: bool,
}

impl Default for EpollConfig {
    fn default() -> EpollConfig {
        EpollConfig {
            max_conns: 4096,
            backlog: 1024,
            workers: 0,
            outbox_cap: 256 * 1024,
            max_line: 1 << 20,
            pipeline_depth: 128,
            grace: Duration::from_secs(10),
            watch_stdin: false,
        }
    }
}

/// Serve `listener` on the epoll event loop until drain, then return
/// (the caller reports [`ServeCtx::stats_line`]). Linux only — other
/// platforms get `ErrorKind::Unsupported`; stdin mode
/// ([`super::serve_stdio`]) runs everywhere.
#[cfg(not(target_os = "linux"))]
pub fn serve_epoll(
    _listener: TcpListener,
    _router: Arc<Router>,
    _ctx: Arc<ServeCtx>,
    _cfg: EpollConfig,
) -> io::Result<()> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "`serve --listen` needs Linux; stdin mode runs everywhere",
    ))
}

/// Serve `listener` on the epoll event loop until drain, then return
/// (the caller reports [`ServeCtx::stats_line`]).
#[cfg(target_os = "linux")]
pub fn serve_epoll(
    listener: TcpListener,
    router: Arc<Router>,
    ctx: Arc<ServeCtx>,
    cfg: EpollConfig,
) -> io::Result<()> {
    use std::os::unix::io::AsRawFd;

    let epoll = super::sys::Epoll::new()?;
    let wake = Arc::new(super::sys::EventFd::new()?);
    listener.set_nonblocking(true)?;
    super::sys::set_backlog(listener.as_raw_fd(), cfg.backlog)?;
    epoll.add(listener.as_raw_fd(), linux::TOK_LISTENER)?;
    epoll.add(wake.as_raw_fd(), linux::TOK_WAKE)?;
    if cfg.watch_stdin {
        // Fails with EPERM when stdin is a regular file (epoll cannot
        // watch those); the drain channels are then SIGTERM and client
        // EOF only.
        let _ = epoll.add(0, linux::TOK_STDIN);
    }
    let completions = {
        let wake = Arc::clone(&wake);
        Arc::new(kbtim_exec::CompletionQueue::new(move || wake.signal()))
    };
    let wires = Arc::new(linux::Wires::default());
    let dispatcher = {
        let (completions, wires) = (Arc::clone(&completions), Arc::clone(&wires));
        super::dispatch::Dispatcher::new(
            Arc::clone(&router),
            Arc::clone(&ctx),
            cfg.workers,
            move |window| completions.push_all(wires.write_window(window)),
        )
    };
    linux::EventLoop {
        epoll,
        wake,
        listener,
        router,
        ctx,
        cfg,
        dispatcher,
        completions,
        wires,
        conns: std::collections::HashMap::new(),
        next_id: linux::FIRST_CONN,
        accepting: true,
        buf: vec![0u8; 64 * 1024],
        scratch: Vec::new(),
        staged: Vec::new(),
    }
    .run()
}

#[cfg(target_os = "linux")]
mod linux {
    use super::super::conn::{Conn, Wire};
    use super::super::dispatch::{Answered, Dispatcher, Pending};
    use super::super::framer::FramedLine;
    use super::super::sys::{self, EpollEvent, EventFd};
    use super::super::term_signal;
    use super::super::{admit_line, render_error, Router, ServeCtx};
    use super::EpollConfig;
    use kbtim_exec::CompletionQueue;
    use std::collections::HashMap;
    use std::io::{self, Read, Write};
    use std::net::TcpListener;
    use std::os::unix::io::AsRawFd;
    use std::sync::{Arc, Mutex, PoisonError};
    use std::time::Instant;

    /// Fixed epoll tokens; connection ids start above them and only
    /// grow, so a token is never ambiguous.
    pub(super) const TOK_LISTENER: u64 = 0;
    pub(super) const TOK_WAKE: u64 = 1;
    pub(super) const TOK_STDIN: u64 = 2;
    pub(super) const FIRST_CONN: u64 = 3;

    /// The write sides of the open connections, by connection id: where
    /// a worker finds the socket its answers go to. The loop adds a
    /// connection when it accepts it and removes it when it closes it.
    #[derive(Default)]
    pub(super) struct Wires(Mutex<HashMap<u64, Arc<Wire>>>);

    impl Wires {
        fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<Wire>>> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Write a window's answers, one write per connection, and
        /// return the connections written to (each once) for the loop
        /// to look after. An answer whose connection has since closed
        /// is dropped — its admission permit was already released when
        /// its `Pending` dropped.
        pub(super) fn write_window(&self, window: Answered) -> Vec<u64> {
            let mut per_conn: Vec<(u64, Vec<u8>, usize)> = Vec::new();
            for (id, response) in window {
                let at = match per_conn.iter().position(|(conn, ..)| *conn == id) {
                    Some(at) => at,
                    None => {
                        per_conn.push((id, Vec::with_capacity(response.len() + 1), 0));
                        per_conn.len() - 1
                    }
                };
                let (_, lines, answered) = &mut per_conn[at];
                lines.extend_from_slice(response.as_bytes());
                lines.push(b'\n');
                *answered += 1;
            }
            per_conn
                .into_iter()
                .map(|(id, lines, answered)| {
                    let wire = self.lock().get(&id).cloned();
                    if let Some(wire) = wire {
                        wire.answer(&lines, answered);
                    }
                    id
                })
                .collect()
        }
    }

    pub(super) struct EventLoop {
        pub epoll: sys::Epoll,
        pub wake: Arc<EventFd>,
        pub listener: TcpListener,
        pub router: Arc<Router>,
        pub ctx: Arc<ServeCtx>,
        pub cfg: EpollConfig,
        pub dispatcher: Dispatcher,
        /// The connections a worker has just written answers to.
        pub completions: Arc<CompletionQueue<u64>>,
        pub wires: Arc<Wires>,
        pub conns: HashMap<u64, Conn>,
        pub next_id: u64,
        pub accepting: bool,
        /// Shared read scratch — one buffer for every connection, since
        /// reads happen one connection at a time on the loop thread.
        pub buf: Vec<u8>,
        /// Reusable completion drain buffer.
        pub scratch: Vec<u64>,
        /// Requests admitted during the current pass over the ready
        /// connections, handed to the dispatcher together when it ends.
        pub staged: Vec<Pending>,
    }

    impl EventLoop {
        pub(super) fn run(mut self) -> io::Result<()> {
            let mut events = vec![EpollEvent::default(); 1024];
            let mut drain_deadline: Option<Instant> = None;
            // Cleared when the grace expires with work still pending:
            // the dispatcher then abandons its queue instead of
            // draining it, so a wedged query cannot pin shutdown.
            let mut graceful = true;
            loop {
                if term_signal::pending() {
                    self.ctx.begin_shutdown();
                }
                if self.ctx.is_shutting_down() && self.accepting {
                    // Drain begins: stop accepting; queued and in-flight
                    // requests finish, outboxes flush, then the loop
                    // exits (or the grace expires).
                    self.accepting = false;
                    let _ = self.epoll.del(self.listener.as_raw_fd());
                    drain_deadline = Some(Instant::now() + self.cfg.grace);
                }
                if let Some(deadline) = drain_deadline {
                    let idle = self.dispatcher.queued() == 0
                        && self.ctx.inflight() == 0
                        && self.conns.values().all(|conn| conn.wire.done());
                    if idle {
                        break;
                    }
                    if Instant::now() >= deadline {
                        graceful = false;
                        break;
                    }
                }
                // The timeout bounds how stale a signal-only shutdown
                // can go unnoticed (a signal also interrupts the wait
                // with EINTR, reported as zero events).
                let n = self.epoll.wait(&mut events, 100)?;
                for event in &events[..n] {
                    // Copy out of the (packed) event before use.
                    let (token, bits) = (event.token, event.events);
                    match token {
                        TOK_LISTENER => self.accept_ready(),
                        TOK_WAKE => self.wake.drain(),
                        TOK_STDIN => self.stdin_ready(),
                        id => self.conn_ready(id, bits),
                    }
                }
                // One hand-over per pass: a burst of pipelined requests
                // reaches the workers whole (see `dispatch`).
                self.dispatcher.submit_all(&mut self.staged);
                self.apply_completions();
            }
            // Drain tail: finish whatever is still queued (unless the
            // grace expired — then the queue is abandoned and its
            // permits released), deliver the final completions, flush
            // best-effort, report.
            self.dispatcher.stop_and_join(graceful);
            self.apply_completions();
            let ids: Vec<u64> = self.conns.keys().copied().collect();
            for id in ids {
                self.flush_and_rearm(id);
            }
            Ok(())
        }

        /// Accept until the listener would block. Connections beyond
        /// the cap (or arriving mid-drain) get one best-effort error
        /// line on the still-blocking socket and are dropped.
        fn accept_ready(&mut self) {
            if !self.accepting {
                return;
            }
            loop {
                let stream = match self.listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        // Transient accept failures (a client resetting
                        // mid-handshake, fd exhaustion) must not take
                        // down every established connection.
                        eprintln!("kbtim serve: accept error: {e}");
                        break;
                    }
                };
                if self.ctx.is_shutting_down() {
                    self.ctx.count_shed();
                    let _ = writeln!(
                        &stream,
                        "{}",
                        render_error(
                            None,
                            "shutting_down",
                            "server is draining; connection rejected",
                            self.ctx.front_end(),
                        )
                    );
                    continue;
                }
                if self.conns.len() >= self.cfg.max_conns {
                    self.ctx.count_shed();
                    let _ = writeln!(
                        &stream,
                        "{}",
                        render_error(
                            None,
                            "overloaded",
                            &format!("connection limit reached ({} open)", self.cfg.max_conns),
                            self.ctx.front_end(),
                        )
                    );
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Pipelined line-JSON is exactly the traffic Nagle
                // penalizes: a response burst held back waiting for an
                // ACK the client's next request would carry anyway.
                let _ = stream.set_nodelay(true);
                let id = self.next_id;
                self.next_id += 1;
                if self.epoll.add(stream.as_raw_fd(), id).is_err() {
                    continue;
                }
                let conn = Conn::new(stream, self.cfg.max_line);
                self.wires.lock().insert(id, Arc::clone(&conn.wire));
                self.conns.insert(id, conn);
            }
        }

        /// Stdin readable: consume; EOF (or error) begins the drain.
        /// The latch is just another fd on the loop, no watcher thread.
        fn stdin_ready(&mut self) {
            let mut sink = [0u8; 4096];
            match io::stdin().lock().read(&mut sink) {
                Ok(0) | Err(_) => {
                    let _ = self.epoll.del(0);
                    self.ctx.begin_shutdown();
                }
                Ok(_) => {}
            }
        }

        /// Readiness on a connection: read (and frame, and dispatch)
        /// whatever arrived, then flush whatever fits.
        fn conn_ready(&mut self, id: u64, bits: u32) {
            let readable =
                bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0;
            if readable && !self.read_ready(id) {
                self.close_conn(id);
                return;
            }
            self.flush_and_rearm(id);
        }

        /// Drain the socket's read side into the framer and process the
        /// completed lines, one chunk at a time so the outbox cap is
        /// honored *between* chunks: a connection whose outbox is over
        /// cap stops being read — the bytes stay in the kernel buffer
        /// and TCP pushes back on the client — and [`flush_and_rearm`]
        /// drops its `EPOLLIN` interest until the outbox drains back
        /// under the cap (a level-triggered `EPOLLIN` on data we refuse
        /// to read would otherwise spin). Returns `false` if the
        /// connection died.
        ///
        /// [`flush_and_rearm`]: EventLoop::flush_and_rearm
        fn read_ready(&mut self, id: u64) -> bool {
            let mut lines: Vec<FramedLine> = Vec::new();
            loop {
                lines.clear();
                let mut closed = false;
                {
                    let Some(conn) = self.conns.get_mut(&id) else {
                        return true;
                    };
                    if conn.read_closed || conn.wire.unsent() > self.cfg.outbox_cap {
                        return true;
                    }
                    loop {
                        match (&conn.wire.stream).read(&mut self.buf) {
                            Ok(0) => {
                                conn.read_closed = true;
                                if let Some(last) = conn.framer.finish() {
                                    lines.push(last);
                                }
                                closed = true;
                                break;
                            }
                            Ok(n) => {
                                conn.framer.push(&self.buf[..n], &mut lines);
                                break;
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(_) => return false,
                        }
                    }
                }
                for line in lines.drain(..) {
                    self.process_line(id, line);
                }
                if closed {
                    return true;
                }
            }
        }

        /// One framed request line: admission happens here on the loop
        /// thread (cheap, and refusals and cache hits answer
        /// immediately), the admitted request goes through the fair
        /// queue to a worker, which writes the response.
        fn process_line(&mut self, id: u64, line: FramedLine) {
            let Some(wire) = self.conns.get(&id).map(|conn| &conn.wire) else {
                return;
            };
            let line = match line {
                FramedLine::TooLong => {
                    wire.enqueue_response(&render_error(
                        None,
                        "bad_request",
                        &format!("request line exceeds {} bytes", self.cfg.max_line),
                        self.ctx.front_end(),
                    ));
                    return;
                }
                FramedLine::Line(line) => line,
            };
            let line = line.trim();
            if line.is_empty() {
                return;
            }
            // Per-connection backpressure. Over-cap outboxes pause
            // *reading* (see `read_ready`), so the outbox branch only
            // fires for lines framed from the chunk that pushed the
            // outbox over — a bounded tail, not an amplification loop:
            // after this chunk the connection is not read again until
            // the client drains below the cap.
            let cfg = &self.cfg;
            let conn_full = || {
                if wire.pending() >= cfg.pipeline_depth {
                    Some(format!("pipeline full ({} requests in flight)", cfg.pipeline_depth))
                } else if wire.unsent() > cfg.outbox_cap {
                    Some(format!("outbox full ({} bytes unread)", cfg.outbox_cap))
                } else {
                    None
                }
            };
            match admit_line(&self.router, &self.ctx, line, conn_full) {
                Ok(admitted) => {
                    wire.submitted();
                    self.staged.push(Pending { conn: id, admitted });
                }
                Err(refusal) => wire.enqueue_response(&refusal),
            }
        }

        /// Look after the connections the workers have answered on:
        /// flush what a socket did not take at once, re-arm interest,
        /// close what is finished.
        fn apply_completions(&mut self) {
            self.scratch.clear();
            self.completions.drain_into(&mut self.scratch);
            let answered = std::mem::take(&mut self.scratch);
            for &id in &answered {
                self.flush_and_rearm(id);
            }
            // Keep the allocation for the next drain.
            self.scratch = answered;
        }

        /// Flush the outbox, re-arm epoll interest to match the new
        /// state, and close the connection if it is finished (or dead).
        fn flush_and_rearm(&mut self, id: u64) {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let fd = conn.wire.stream.as_raw_fd();
            match conn.wire.flush() {
                Err(_) => self.close_conn(id),
                Ok(drained) => {
                    if conn.read_closed && conn.wire.done() {
                        self.close_conn(id);
                        return;
                    }
                    let want_write = !drained;
                    // Read interest drops after the peer half-closes
                    // (a level-triggered EOF would fire forever) and
                    // while the outbox is over cap (backpressure: the
                    // client must drain responses before the loop
                    // reads more requests); it re-arms as completions
                    // flush the outbox back under the cap.
                    let want_read = !conn.read_closed && conn.wire.unsent() <= self.cfg.outbox_cap;
                    if (conn.want_write != want_write || conn.want_read != want_read)
                        && self.epoll.modify(fd, id, want_read, want_write).is_ok()
                    {
                        conn.want_read = want_read;
                        conn.want_write = want_write;
                    }
                }
            }
        }

        fn close_conn(&mut self, id: u64) {
            self.wires.lock().remove(&id);
            if let Some(conn) = self.conns.remove(&id) {
                let _ = self.epoll.del(conn.wire.stream.as_raw_fd());
            }
        }
    }
}
