//! Wire-protocol robustness: the JSON subset parser must never panic
//! on any byte sequence, nesting is depth-capped (a hostile `[[[[…`
//! line must fail as a parse error, not a stack overflow), oversized
//! request lines are shed and resynced by the line framer wherever its
//! input is torn, and the admission/deadline request plumbing parses
//! as documented.

use kbtim::serve::{FramedLine, Json, LineFramer, ServeRequest};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Arbitrary bytes (as lossy UTF-8) through the full request parser:
    /// any outcome is fine, panicking is not.
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&line);
        let _ = ServeRequest::parse(&line);
    }

    /// Arbitrary *almost-JSON* — mutated well-formed requests — through
    /// the parser: the adversarial neighborhood of real traffic.
    #[test]
    fn parser_never_panics_near_valid_requests(
        topics in proptest::collection::vec(0u32..100, 0..4),
        k in 0u32..20,
        flip in any::<proptest::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let mut line =
            format!("{{\"topics\":{topics:?},\"k\":{k},\"deadline_ms\":5}}").into_bytes();
        let at = flip.index(line.len());
        line[at] = byte;
        let line = String::from_utf8_lossy(&line).into_owned();
        let _ = ServeRequest::parse(&line);
    }
}

#[test]
fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
    // Far deeper than any stack could take recursively at one frame
    // per byte; the depth cap must reject it gracefully.
    for open in ["[", "{\"a\":["] {
        let hostile = open.repeat(200_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }
    // The cap leaves all realistic protocol nesting untouched.
    let fine = format!("{}1{}", "[".repeat(60), "]".repeat(60));
    assert!(Json::parse(&fine).is_ok());
}

#[test]
fn deadline_ms_field_parses_and_validates() {
    let req = ServeRequest::parse(r#"{"topics":[1],"deadline_ms":250}"#).unwrap();
    assert_eq!(req.deadline_ms, Some(250));
    let req = ServeRequest::parse(r#"{"topics":[1]}"#).unwrap();
    assert_eq!(req.deadline_ms, None);
    // Zero is legal (deterministically expired), negatives and
    // non-numbers are not.
    assert_eq!(
        ServeRequest::parse(r#"{"topics":[1],"deadline_ms":0}"#).unwrap().deadline_ms,
        Some(0)
    );
    for bad in [
        r#"{"topics":[1],"deadline_ms":-5}"#,
        r#"{"topics":[1],"deadline_ms":1.5}"#,
        r#"{"topics":[1],"deadline_ms":"fast"}"#,
    ] {
        assert_eq!(ServeRequest::parse(bad).unwrap_err().code, "bad_request", "{bad}");
    }
}

/// Frame `bytes` fed in `chunk`-byte pieces, end of stream included —
/// the way a read loop hands a framer what each read produced.
fn frame(bytes: &[u8], chunk: usize, cap: usize) -> Vec<FramedLine> {
    let mut framer = LineFramer::new(cap);
    let mut out = Vec::new();
    for piece in bytes.chunks(chunk) {
        framer.push(piece, &mut out);
    }
    out.extend(framer.finish());
    out
}

#[test]
fn bounded_reader_sheds_oversized_lines_and_resyncs() {
    let line = |s: &str| FramedLine::Line(s.into());
    let giant = "x".repeat(300);
    let input = format!("short line\n{giant}\nafter\n");
    // The 300-byte line exceeds the cap: shed, stream resynced at the
    // next newline — the following request is intact.
    assert_eq!(
        frame(input.as_bytes(), 16, 100),
        vec![line("short line"), FramedLine::TooLong, line("after")]
    );
    // A line of exactly the cap is allowed (the cap is inclusive), one
    // byte over is not.
    assert_eq!(frame(b"nine char\n", 16, 9), vec![line("nine char")]);
    assert_eq!(frame(b"nine char\n", 16, 8), vec![FramedLine::TooLong]);
    assert_eq!(frame(b"", 16, 100), vec![]);

    // CRLF is stripped; a final unterminated line still arrives.
    assert_eq!(frame(b"a\r\ntail", 16, 100), vec![line("a"), line("tail")]);

    // An oversized *unterminated* trailing chunk is also shed, without
    // ever buffering more than the cap.
    assert_eq!(frame(b"yyyyyyyyyyyyyyyyyyyyyyyy", 16, 8), vec![FramedLine::TooLong]);
}

proptest! {
    /// The framer agrees with `str::lines` whenever every line fits the
    /// cap, for arbitrary chunking (tiny pieces).
    #[test]
    fn bounded_reader_matches_lines_under_the_cap(
        lines in proptest::collection::vec("[a-z]{0,40}", 0..8),
    ) {
        let input = lines.iter().map(|l| format!("{l}\n")).collect::<String>();
        let want: Vec<FramedLine> = lines.iter().cloned().map(FramedLine::Line).collect();
        prop_assert_eq!(frame(input.as_bytes(), 4, 64), want);
    }

    /// Where a stream is torn does not change how it frames: the same
    /// bytes (newlines, CRLF, invalid UTF-8, oversized runs) torn at
    /// arbitrary cuts give the same lines, the same `TooLong` sheds and
    /// the same resync as one push — and one push frames as splitting
    /// the bytes at every newline does.
    #[test]
    fn torn_bytes_frame_as_one_push(
        raw in proptest::collection::vec(any::<u8>(), 0..200),
        cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..8),
        cap in 1usize..32,
    ) {
        // Skew toward newlines, CR and invalid UTF-8 — uniform bytes
        // would almost never produce a line boundary or an exact-cap
        // line.
        const ALPHABET: &[u8] = b"aaaabbbb\n\n\n\r\r\xff{\x00";
        let bytes: Vec<u8> = raw.iter().map(|&b| ALPHABET[b as usize % ALPHABET.len()]).collect();
        let whole = frame(&bytes, bytes.len().max(1), cap);
        let mut split: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        if split.last().is_some_and(|tail| tail.is_empty()) {
            split.pop();
        }
        let oracle: Vec<FramedLine> = split
            .into_iter()
            .map(|line| match line {
                line if line.len() > cap => FramedLine::TooLong,
                line => FramedLine::Line(
                    String::from_utf8_lossy(line.strip_suffix(b"\r").unwrap_or(line)).into_owned(),
                ),
            })
            .collect();
        prop_assert_eq!(&whole, &oracle);

        let mut at: Vec<usize> = cuts.iter().map(|c| c.index(bytes.len() + 1)).collect();
        at.sort_unstable();
        at.dedup();
        let mut framer = LineFramer::new(cap);
        let mut torn = Vec::new();
        let mut prev = 0;
        for cut in at.into_iter().chain(std::iter::once(bytes.len())) {
            framer.push(&bytes[prev..cut], &mut torn);
            prev = cut;
        }
        torn.extend(framer.finish());

        prop_assert_eq!(whole, torn);
    }
}
