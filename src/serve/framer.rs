//! Line framing with a hard per-line byte cap: [`LineFramer`] is fed
//! whatever bytes a read produced — a nonblocking socket read on the
//! epoll loop, a blocking stdin read — and yields the lines they
//! completed. An oversized line — including a hostile newline-free
//! stream — costs at most the cap in buffering, is reported once, and
//! the stream resyncs at the next newline. Invalid UTF-8 is replaced,
//! to be rejected by the JSON parser downstream.

fn finish_line(mut buf: Vec<u8>) -> String {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8_lossy(&buf).into_owned()
}

/// One framed line from a [`LineFramer`].
#[derive(Debug, PartialEq, Eq)]
pub enum FramedLine {
    /// A complete line, newline stripped (trailing `\r` too).
    Line(String),
    /// A line exceeded the cap; its bytes were discarded through the
    /// terminating newline and the stream is resynced. Answer with
    /// `bad_request` and keep framing.
    TooLong,
}

/// Incremental line framer: push whatever bytes arrived, collect the
/// complete lines they finished. Where the bytes are torn does not
/// matter — the proptest in `tests/protocol.rs` frames every stream
/// torn at arbitrary cuts and in one push, and requires the same
/// lines.
#[derive(Debug)]
pub struct LineFramer {
    buf: Vec<u8>,
    max_len: usize,
    /// Inside an oversized line: discard until the next newline, then
    /// report one `TooLong`.
    overflow: bool,
}

impl LineFramer {
    /// A framer enforcing `max_len` bytes per line (newline excluded).
    pub fn new(max_len: usize) -> LineFramer {
        LineFramer { buf: Vec::new(), max_len, overflow: false }
    }

    /// Feed `chunk` and append every line it completed to `out`.
    pub fn push(&mut self, chunk: &[u8], out: &mut Vec<FramedLine>) {
        let mut rest = chunk;
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            if !self.overflow && self.buf.len() + pos > self.max_len {
                self.overflow = true;
                self.buf.clear();
            } else if !self.overflow {
                self.buf.extend_from_slice(&rest[..pos]);
            }
            out.push(if self.overflow {
                FramedLine::TooLong
            } else {
                FramedLine::Line(finish_line(std::mem::take(&mut self.buf)))
            });
            self.overflow = false;
            rest = &rest[pos + 1..];
        }
        if !self.overflow && self.buf.len() + rest.len() > self.max_len {
            self.overflow = true;
            self.buf.clear();
        } else if !self.overflow {
            self.buf.extend_from_slice(rest);
        }
    }

    /// End of stream: the final unterminated line, if any (an
    /// oversized one is one more `TooLong`).
    pub fn finish(&mut self) -> Option<FramedLine> {
        if self.overflow {
            self.overflow = false;
            Some(FramedLine::TooLong)
        } else if self.buf.is_empty() {
            None
        } else {
            Some(FramedLine::Line(finish_line(std::mem::take(&mut self.buf))))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_all(framer: &mut LineFramer, chunks: &[&[u8]]) -> Vec<FramedLine> {
        let mut out = Vec::new();
        for chunk in chunks {
            framer.push(chunk, &mut out);
        }
        if let Some(last) = framer.finish() {
            out.push(last);
        }
        out
    }

    #[test]
    fn framer_reassembles_torn_lines() {
        let mut framer = LineFramer::new(64);
        let got = frame_all(&mut framer, &[b"{\"a\"", b":1}\n{\"b\":", b"2}\n", b"tail"]);
        assert_eq!(
            got,
            vec![
                FramedLine::Line("{\"a\":1}".into()),
                FramedLine::Line("{\"b\":2}".into()),
                FramedLine::Line("tail".into()),
            ]
        );
    }

    #[test]
    fn framer_caps_and_resyncs_like_the_reader() {
        // One oversized line (fed in pieces, none individually over the
        // cap) yields exactly one TooLong and the next line survives.
        let mut framer = LineFramer::new(8);
        let got = frame_all(&mut framer, &[b"0123", b"4567", b"89\nok\n"]);
        assert_eq!(got, vec![FramedLine::TooLong, FramedLine::Line("ok".into())]);

        // Unterminated overflow at EOF still reports once.
        let mut framer = LineFramer::new(4);
        let got = frame_all(&mut framer, &[b"toolongtail"]);
        assert_eq!(got, vec![FramedLine::TooLong]);

        // Exactly at the cap is fine; one byte over is not.
        let mut framer = LineFramer::new(9);
        let got = frame_all(&mut framer, &[b"nine char\n"]);
        assert_eq!(got, vec![FramedLine::Line("nine char".into())]);
        let mut framer = LineFramer::new(8);
        let got = frame_all(&mut framer, &[b"nine char\n"]);
        assert_eq!(got, vec![FramedLine::TooLong]);
    }

    #[test]
    fn framer_strips_crlf_and_replaces_bad_utf8() {
        let mut framer = LineFramer::new(64);
        let got = frame_all(&mut framer, &[b"a\r\n", &[0xff, 0xfe, b'\n']]);
        assert_eq!(
            got,
            vec![FramedLine::Line("a".into()), FramedLine::Line("\u{fffd}\u{fffd}".into())]
        );
    }
}
