//! The stdin/stdout stream: the one blocking, strictly serial
//! transport. It stays off the epoll loop because epoll cannot
//! register a regular file, and `kbtim serve < requests` must work.
//!
//! Blocking reads go through the same [`LineFramer`] as every TCP
//! connection (same cap, same resync). Each line is answered on the
//! reading thread by [`handle_line_ctx`] — the admission chain, then a
//! window of one — and written before the next line is taken, so
//! responses come back in request order. A stream that never holds a
//! second request has nothing to queue and no window to share, so no
//! dispatcher runs behind it.

use super::{handle_line_ctx, render_error, term_signal, FramedLine, LineFramer, Router, ServeCtx};
use std::io::{self, Read, Write};

/// Serve stdin → stdout until EOF or SIGTERM/SIGINT (observed between
/// requests), then drain.
pub fn serve_stdio(router: &Router, ctx: &ServeCtx, max_line: usize) -> io::Result<()> {
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
                    handle_line_ctx(router, ctx, line)
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
    served
}
