//! Per-connection state for the epoll front end: the nonblocking
//! stream, the incremental line framer feeding requests in, and the
//! bounded outbox draining responses out.

use super::framer::LineFramer;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One client connection multiplexed by the event loop. Addressed by a
/// monotonic connection id — the epoll token and the completion
/// address. Never an fd: fds are reused by the kernel the moment a
/// connection closes, and a stale completion must miss, not land on
/// whoever inherited the number.
pub(crate) struct Conn {
    /// The socket and its write side, shared with the workers.
    pub wire: Arc<Wire>,
    /// Reassembles torn request lines across reads.
    pub framer: LineFramer,
    /// Whether the connection is currently registered for `EPOLLIN`
    /// (mirrors the kernel-side interest so re-arms are cheap). Read
    /// interest drops while the outbox is over its cap — backpressure
    /// on a client that pipelines without reading — and after the peer
    /// half-closes.
    pub want_read: bool,
    /// Whether the connection is currently registered for `EPOLLOUT`
    /// (mirrors the kernel-side interest so re-arms are cheap).
    pub want_write: bool,
    /// The client half-closed (EOF / `EPOLLRDHUP`): no more requests
    /// will arrive; the connection closes once `pending` and the outbox
    /// both drain.
    pub read_closed: bool,
}

/// What of a connection the event loop shares with the dispatcher's
/// workers: a worker writes the answers it rendered straight to the
/// socket instead of waking the loop to do it, so an answer's latency
/// does not include a second thread wake-up — whose cost, unlike the
/// work, depends on where the scheduler happened to put the two
/// threads. Everything the socket does not take at once stays in
/// `outbox` for the loop, which owns `EPOLLOUT` and the connection's
/// lifetime.
pub(crate) struct Wire {
    /// The nonblocking stream. The loop reads it; writes go through
    /// `outbox`'s lock, so lines never interleave.
    pub stream: TcpStream,
    /// Bytes of rendered responses not yet accepted by the socket.
    outbox: Mutex<VecDeque<u8>>,
    /// Requests handed to the dispatcher and not yet answered — the
    /// per-connection pipeline depth.
    pending: AtomicUsize,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, max_line: usize) -> Conn {
        Conn {
            wire: Arc::new(Wire {
                stream,
                outbox: Mutex::new(VecDeque::new()),
                pending: AtomicUsize::new(0),
            }),
            framer: LineFramer::new(max_line),
            want_read: true,
            want_write: false,
            read_closed: false,
        }
    }
}

impl Wire {
    fn outbox(&self) -> MutexGuard<'_, VecDeque<u8>> {
        // A panic while the lock is held leaves whole lines behind, so
        // the bytes are still good.
        self.outbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queue one rendered response line (newline appended) for the
    /// loop's next [`Wire::flush`].
    pub(crate) fn enqueue_response(&self, line: &str) {
        let mut outbox = self.outbox();
        outbox.extend(line.as_bytes());
        outbox.push_back(b'\n');
    }

    /// One more request of this connection is with the dispatcher.
    pub(crate) fn submitted(&self) {
        self.pending.fetch_add(1, Ordering::SeqCst);
    }

    /// Requests with the dispatcher, not yet answered.
    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// Unsent response bytes.
    pub(crate) fn unsent(&self) -> usize {
        self.outbox().len()
    }

    /// A worker's answers to `answered` of this connection's requests,
    /// newline-terminated, in order: written to the socket now unless
    /// earlier bytes are still waiting, in which case (or for whatever
    /// the socket does not take) they queue behind those. The requests
    /// stop counting as pending *before* their answers can be read, so
    /// a client at its pipeline depth may send the next one the moment
    /// it has read this. A dead socket is the loop's to find: the bytes
    /// stay in the outbox and its flush meets the same error.
    pub(crate) fn answer(&self, lines: &[u8], answered: usize) {
        self.pending.fetch_sub(answered, Ordering::SeqCst);
        let mut outbox = self.outbox();
        let mut rest = lines;
        while outbox.is_empty() && !rest.is_empty() {
            match (&self.stream).write(rest) {
                Ok(n) if n > 0 => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => break,
            }
        }
        outbox.extend(rest);
    }

    /// Write as much of the outbox as the socket accepts right now.
    /// `Ok(true)` means fully drained; `Ok(false)` means the socket
    /// would block and `EPOLLOUT` should stay armed. Errors mean the
    /// connection is dead.
    pub(crate) fn flush(&self) -> io::Result<bool> {
        let mut outbox = self.outbox();
        while !outbox.is_empty() {
            let (front, _) = outbox.as_slices();
            match (&self.stream).write(front) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    outbox.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Whether every accepted request has been answered and flushed —
    /// a half-closed connection may be dropped once this holds.
    pub(crate) fn done(&self) -> bool {
        self.pending() == 0 && self.unsent() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn a_workers_answer_queues_behind_unsent_bytes_and_frees_the_pipeline_first() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let conn = Conn::new(server, 1024);
        let wire = &conn.wire;

        // Nothing waiting: the answer goes straight to the socket.
        wire.submitted();
        wire.answer(b"one\n", 1);
        assert!(wire.done());
        let mut got = [0u8; 4];
        client.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"one\n");

        // A refusal the loop has queued but not flushed stays ahead of
        // the worker's answer, and the answer waits for the flush.
        wire.submitted();
        wire.submitted();
        wire.enqueue_response("refused");
        wire.answer(b"two\nthree\n", 2);
        assert_eq!((wire.pending(), wire.unsent()), (0, 18));
        assert!(wire.flush().unwrap());
        assert!(wire.done());
        let mut got = [0u8; 18];
        client.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"refused\ntwo\nthree\n");
    }
}
