//! The portable blocking transports: one OS thread per TCP connection
//! ([`serve_threads`], `--front-end threads` on every platform the
//! workspace builds on) and the stdin/stdout stream ([`serve_stdio`]).
//!
//! Both are the same per-stream loop: frame a line, admit it, submit
//! it to the shared dispatcher, wait for the one reply, write it — or
//! write at once what the admission chain answered itself (a refusal,
//! or a cached run's answer). A
//! stream is strictly serial — a request line is read only after the
//! previous response was written, so pipelining clients still *work*
//! (the kernel buffers their burst) but get no concurrency within a
//! connection; that is the epoll transport's job ([`super::epoll`]).
//! Across connections the requests meet in the dispatcher's fair queue
//! like any other transport's, so they share windows (and decodes) and
//! run on its bounded worker pool.

use super::dispatch::{Dispatcher, Pending};
use super::{
    admit_line, read_bounded_line, render_error, render_shutting_down, term_signal, LineRead,
    Router, ServeCtx,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where each live stream waits for the reply to its one outstanding
/// request, by connection id.
type Mailboxes = Mutex<HashMap<u64, Sender<String>>>;

/// What the blocking streams of one server share.
struct Streams {
    router: Arc<Router>,
    ctx: Arc<ServeCtx>,
    max_line: usize,
    dispatcher: Dispatcher,
    mailboxes: Arc<Mailboxes>,
    next_conn: AtomicU64,
}

impl Streams {
    fn new(router: Arc<Router>, ctx: Arc<ServeCtx>, max_line: usize, workers: usize) -> Streams {
        let mailboxes = Arc::new(Mailboxes::default());
        let dispatcher = {
            let mailboxes = Arc::clone(&mailboxes);
            Dispatcher::new(Arc::clone(&router), Arc::clone(&ctx), workers, move |window| {
                let mailboxes = mailboxes.lock().expect("mailboxes poisoned");
                for (conn, response) in window {
                    // A stream that died under its request left no box.
                    if let Some(mailbox) = mailboxes.get(&conn) {
                        let _ = mailbox.send(response);
                    }
                }
            })
        };
        Streams { router, ctx, max_line, dispatcher, mailboxes, next_conn: AtomicU64::new(0) }
    }

    /// Serve one stream until EOF, a dead peer, or `stop` (checked
    /// between requests).
    fn serve(
        &self,
        reader: &mut impl BufRead,
        writer: &mut impl Write,
        stop: fn() -> bool,
    ) -> std::io::Result<()> {
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let (mailbox, replies) = channel();
        self.mailboxes.lock().expect("mailboxes poisoned").insert(conn, mailbox);
        let served = self.serve_lines(conn, &replies, reader, writer, stop);
        self.mailboxes.lock().expect("mailboxes poisoned").remove(&conn);
        served
    }

    fn serve_lines(
        &self,
        conn: u64,
        replies: &Receiver<String>,
        reader: &mut impl BufRead,
        writer: &mut impl Write,
        stop: fn() -> bool,
    ) -> std::io::Result<()> {
        while !stop() {
            let response = match read_bounded_line(reader, self.max_line)? {
                LineRead::Eof => break,
                LineRead::TooLong => render_error(
                    None,
                    "bad_request",
                    &format!("request line exceeds {} bytes", self.max_line),
                    self.ctx.front_end(),
                ),
                LineRead::Line(line) => {
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    match admit_line(&self.router, &self.ctx, line, || None) {
                        Ok(admitted) => match self.answer(Pending { conn, admitted }, replies) {
                            Some(response) => response,
                            None => break,
                        },
                        Err(refusal) => refusal,
                    }
                }
            };
            writeln!(writer, "{response}")?;
            writer.flush()?;
        }
        Ok(())
    }

    /// Submit one admitted request and wait for its reply. `None` when
    /// no reply will come: the drain grace expired under the request.
    fn answer(&self, pending: Pending, replies: &Receiver<String>) -> Option<String> {
        let mut one = vec![pending];
        self.dispatcher.submit_all(&mut one);
        match one.pop() {
            None => replies.recv().ok(),
            // Admitted a moment before the drain finished: the workers
            // are gone, and the slot releases as `refused` drops.
            Some(refused) => {
                self.ctx.count_shed();
                Some(render_shutting_down(refused.admitted.req.id, &self.ctx))
            }
        }
    }

    /// Let admitted requests finish — the grace bound keeps a wedged
    /// query from pinning shutdown forever — then stop the workers.
    fn drain(&self, grace: Duration) {
        let deadline = Instant::now() + grace;
        while self.ctx.inflight() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.dispatcher.stop_and_join(self.ctx.inflight() == 0);
        // Streams still waiting on an abandoned request wake up and
        // close.
        self.mailboxes.lock().expect("mailboxes poisoned").clear();
    }
}

/// Serve `listener` until drain (SIGTERM/SIGINT, stdin EOF when
/// `watch_stdin`, or [`ServeCtx::begin_shutdown`] from elsewhere), one
/// thread per connection, queries on `workers` dispatcher threads (`0`
/// = the machine's available parallelism).
///
/// `watch_stdin` spawns the stdin watcher: EOF on stdin begins the
/// drain, giving supervisors a portable shutdown channel besides
/// SIGTERM. Pass `false` when stdin is not a meaningful channel — a
/// daemon started with stdin on `/dev/null` would otherwise drain
/// immediately (the caveat `docs/OPERATIONS.md` documents; the CLI
/// detects this case and disables the watcher).
///
/// Returns once the drain grace expires or every admitted request has
/// finished; the caller reports [`ServeCtx::stats_line`].
pub fn serve_threads(
    listener: TcpListener,
    router: Arc<Router>,
    ctx: Arc<ServeCtx>,
    max_line: usize,
    workers: usize,
    watch_stdin: bool,
    grace: Duration,
) -> std::io::Result<()> {
    // Nonblocking accept so the loop can poll the shutdown latch: a
    // blocked `accept(2)` would pin the process until one more client
    // happened to connect.
    listener.set_nonblocking(true)?;
    if watch_stdin {
        let ctx = Arc::clone(&ctx);
        std::thread::spawn(move || {
            use std::io::Read;
            let mut sink = [0u8; 4096];
            let mut stdin = std::io::stdin();
            loop {
                match stdin.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            ctx.begin_shutdown();
        });
    }
    let streams = Arc::new(Streams::new(router, Arc::clone(&ctx), max_line, workers));
    loop {
        if term_signal::pending() {
            ctx.begin_shutdown();
        }
        if ctx.is_shutting_down() {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            // Transient accept failures (a client resetting mid
            // handshake, fd exhaustion) must not take down every
            // established connection.
            Err(e) => {
                eprintln!("kbtim serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        // The listener is nonblocking only for the poll loop;
        // per-connection reads stay blocking.
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        // One small response line per request is Nagle's worst case;
        // don't hold it back waiting for a piggyback ACK.
        let _ = stream.set_nodelay(true);
        let streams = Arc::clone(&streams);
        // Detached: a connection outlives the drain if its client does,
        // answering `shutting_down` until the process exits.
        std::thread::spawn(move || {
            let Ok(mut writer) = stream.try_clone() else {
                return;
            };
            let _ = streams.serve(&mut BufReader::new(stream), &mut writer, || false);
        });
    }
    streams.drain(grace);
    Ok(())
}

/// Serve stdin → stdout as one stream until EOF or SIGTERM/SIGINT (the
/// stream is strictly serial, so the termination latch is observed
/// between requests), then drain. Queries run on `workers` dispatcher
/// threads like any other transport's.
pub fn serve_stdio(
    router: Arc<Router>,
    ctx: Arc<ServeCtx>,
    max_line: usize,
    workers: usize,
) -> std::io::Result<()> {
    let streams = Streams::new(router, Arc::clone(&ctx), max_line, workers);
    let served = streams.serve(
        &mut std::io::stdin().lock(),
        &mut std::io::stdout().lock(),
        term_signal::pending,
    );
    ctx.begin_shutdown();
    streams.drain(Duration::ZERO);
    served
}
