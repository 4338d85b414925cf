//! The stdin/stdout stream: the one blocking, strictly serial
//! transport. It stays off the epoll loop because epoll cannot
//! register a regular file, and `kbtim serve < requests` must work.
//!
//! Blocking reads go through the same [`LineFramer`] as every TCP
//! connection (same cap, same resync). Each line is admitted, and what
//! the admission chain did not answer itself (a refusal, or a cached
//! run's answer) goes to the shared dispatcher; the stream waits for
//! that one reply and writes it before it takes the next line. So
//! responses come back in request order, and a window never holds more
//! than this stream's one request.

use super::dispatch::{Dispatcher, Pending};
use super::{admit_line, render_error, term_signal, FramedLine, LineFramer, Router, ServeCtx};
use std::io::{self, Read, Write};
use std::sync::mpsc::channel;
use std::sync::Arc;

/// Serve stdin → stdout until EOF or SIGTERM/SIGINT (observed between
/// requests), then drain. Queries run on `workers` dispatcher threads
/// (`0` = the machine's available parallelism).
pub fn serve_stdio(
    router: Arc<Router>,
    ctx: Arc<ServeCtx>,
    max_line: usize,
    workers: usize,
) -> io::Result<()> {
    let (reply, replies) = channel();
    let dispatcher =
        Dispatcher::new(Arc::clone(&router), Arc::clone(&ctx), workers, move |window| {
            for (_, response) in window {
                let _ = reply.send(response);
            }
        });
    let mut framer = LineFramer::new(max_line);
    let (mut stdin, mut stdout) = (io::stdin().lock(), io::stdout().lock());
    let mut buf = vec![0u8; 64 * 1024];
    let mut lines = Vec::new();
    let served = 'read: loop {
        if term_signal::pending() {
            break Ok(());
        }
        let eof = match stdin.read(&mut buf) {
            Ok(0) => {
                lines.extend(framer.finish());
                true
            }
            Ok(n) => {
                framer.push(&buf[..n], &mut lines);
                false
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => break Err(e),
        };
        for line in lines.drain(..) {
            if term_signal::pending() {
                break 'read Ok(());
            }
            let response = match line {
                FramedLine::TooLong => render_error(
                    None,
                    "bad_request",
                    &format!("request line exceeds {max_line} bytes"),
                    ctx.front_end(),
                ),
                FramedLine::Line(line) => {
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    match admit_line(&router, &ctx, line, || None) {
                        Ok(admitted) => {
                            dispatcher.submit_all(&mut vec![Pending { conn: 0, admitted }]);
                            match replies.recv() {
                                Ok(response) => response,
                                Err(_) => break 'read Ok(()),
                            }
                        }
                        Err(refusal) => refusal,
                    }
                }
            };
            if let Err(e) = writeln!(stdout, "{response}").and_then(|()| stdout.flush()) {
                break 'read Err(e);
            }
        }
        if eof {
            break Ok(());
        }
    };
    ctx.begin_shutdown();
    dispatcher.stop_and_join(ctx.inflight() == 0);
    served
}
