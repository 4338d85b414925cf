//! Integer compression codecs for the KB-TIM disk indexes.
//!
//! The paper compresses its RR-set and inverted-list indexes with FastPFOR
//! (the codec used by Apache Lucene 4.6) and reports roughly 40–50 % space
//! savings at negligible build-time cost (Table 4). This crate provides the
//! equivalent building blocks from scratch:
//!
//! * [`varint`] — LEB128 variable-length encoding for `u32`/`u64`.
//! * [`delta`] — delta transforms for sorted id sequences.
//! * [`bitpack`] — frame-of-reference bit-packing of fixed-size blocks.
//! * [`list`] — the composed posting-list codec used by `kbtim-index`:
//!   sorted `u32` lists are delta-coded, split into blocks of 128, and each
//!   block is bit-packed with its minimal width; the tail is varint-coded.
//! * [`stream`] — block-wide columns of `kbtim-index`'s inverted-list
//!   blocks: `n` arbitrary `u32`s in the same 128-value frames + varint
//!   tail, with no per-list framing in between.
//!
//! All codecs are pure functions over byte buffers: no I/O, no allocation
//! beyond the output buffers, and every encoder has a matching decoder with
//! a round-trip property test.
//!
//! The hot decode loops (block unpack, gap prefix sum) additionally have
//! runtime-dispatched SSE2/AVX2 kernels in [`simd`]; the scalar paths
//! stay as the oracle and the only code on non-x86-64 targets.

// Every unsafe operation inside the SIMD kernels' `unsafe fn`s must be
// individually justified, not blanket-covered by the fn signature.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bitpack;
pub mod delta;
pub mod list;
pub mod simd;
pub mod stream;
pub mod varint;

/// Errors produced while decoding compressed data.
///
/// Encoding is infallible; decoding validates framing so that a truncated or
/// corrupted buffer is reported instead of producing garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a complete value was decoded.
    UnexpectedEof,
    /// A varint ran over its maximum permitted length.
    VarintOverflow,
    /// A bit width outside `0..=32` was encountered.
    InvalidBitWidth(u8),
    /// A decoded delta sequence was not monotonically increasing.
    NonMonotonic,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of compressed input"),
            CodecError::VarintOverflow => write!(f, "varint exceeds maximum length"),
            CodecError::InvalidBitWidth(w) => write!(f, "invalid bit width {w} (expected 0..=32)"),
            CodecError::NonMonotonic => write!(f, "decoded sequence is not sorted"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Which byte-level codec a segment uses for its integer lists.
///
/// `Raw` mirrors the paper's *uncompressed* index configuration and `Packed`
/// its FastPFOR-compressed configuration (Table 4 compares the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Codec {
    /// Little-endian fixed-width `u32`s — fastest decode, largest files.
    Raw,
    /// Delta + frame-of-reference bit-packing — the compressed default.
    #[default]
    Packed,
}

impl Codec {
    /// Encode a **sorted** (non-decreasing) list of `u32` into `out`.
    ///
    /// The encoding is self-delimiting: it starts with the element count, so
    /// lists can be concatenated back-to-back in a segment block.
    pub fn encode_sorted(&self, values: &[u32], out: &mut Vec<u8>) {
        match self {
            Codec::Raw => list::encode_raw(values, out),
            Codec::Packed => list::encode_packed(values, out),
        }
    }

    /// Decode one list previously written by [`Codec::encode_sorted`],
    /// appending the values to `out` and returning the number of input bytes
    /// consumed.
    pub fn decode_sorted(&self, input: &[u8], out: &mut Vec<u32>) -> Result<usize, CodecError> {
        match self {
            Codec::Raw => list::decode_raw(input, out),
            Codec::Packed => list::decode_packed(input, out),
        }
    }

    /// Bulk-decode `count` back-to-back lists straight into one
    /// caller-owned CSR arena: values append to `ids`, and after each
    /// list its end boundary (`ids.len()`) is pushed to `offsets`.
    /// Callers seed `offsets` with the current arena length to get a
    /// leading boundary. Returns the input bytes consumed.
    ///
    /// This is the bulk decode of `RR_BLOCK` payloads (inverted-list
    /// blocks are columnar, see [`stream`]): no per-list `Vec`, no
    /// intermediate gap buffer — one pass from the (possibly
    /// memory-mapped) block bytes into the caller's arena.
    pub fn decode_lists_into(
        &self,
        input: &[u8],
        count: usize,
        ids: &mut Vec<u32>,
        offsets: &mut Vec<u32>,
    ) -> Result<usize, CodecError> {
        let mut pos = 0usize;
        offsets.reserve(count);
        for _ in 0..count {
            pos += self.decode_sorted(&input[pos..], ids)?;
            let end = u32::try_from(ids.len()).map_err(|_| CodecError::NonMonotonic)?;
            offsets.push(end);
        }
        Ok(pos)
    }

    /// Stable on-disk tag for this codec.
    pub fn tag(&self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::Packed => 1,
        }
    }

    /// Inverse of [`Codec::tag`].
    pub fn from_tag(tag: u8) -> Option<Codec> {
        match tag {
            0 => Some(Codec::Raw),
            1 => Some(Codec::Packed),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_tag_roundtrip() {
        for codec in [Codec::Raw, Codec::Packed] {
            assert_eq!(Codec::from_tag(codec.tag()), Some(codec));
        }
        assert_eq!(Codec::from_tag(7), None);
    }

    #[test]
    fn encode_decode_both_codecs() {
        let values: Vec<u32> = (0..1000).map(|i| i * 3).collect();
        for codec in [Codec::Raw, Codec::Packed] {
            let mut buf = Vec::new();
            codec.encode_sorted(&values, &mut buf);
            let mut decoded = Vec::new();
            let used = codec.decode_sorted(&buf, &mut decoded).unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(decoded, values);
        }
    }

    #[test]
    fn packed_is_smaller_on_dense_lists() {
        let values: Vec<u32> = (0..4096).collect();
        let mut raw = Vec::new();
        Codec::Raw.encode_sorted(&values, &mut raw);
        let mut packed = Vec::new();
        Codec::Packed.encode_sorted(&values, &mut packed);
        assert!(
            packed.len() * 4 < raw.len(),
            "packed {} should be well under raw {}",
            packed.len(),
            raw.len()
        );
    }

    #[test]
    fn decode_lists_into_matches_sequential_decode() {
        let lists: Vec<Vec<u32>> = vec![vec![1, 5, 9], vec![], vec![2, 2, 100_000], vec![7]];
        for codec in [Codec::Raw, Codec::Packed] {
            let mut buf = Vec::new();
            for list in &lists {
                codec.encode_sorted(list, &mut buf);
            }
            let mut ids = Vec::new();
            let mut offsets = vec![0u32];
            let used = codec.decode_lists_into(&buf, lists.len(), &mut ids, &mut offsets).unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(offsets.len(), lists.len() + 1);
            for (i, list) in lists.iter().enumerate() {
                assert_eq!(
                    &ids[offsets[i] as usize..offsets[i + 1] as usize],
                    list.as_slice(),
                    "list {i}"
                );
            }
        }
    }

    #[test]
    fn concatenated_lists_decode_in_sequence() {
        let a: Vec<u32> = vec![1, 5, 9];
        let b: Vec<u32> = vec![2, 2, 100_000];
        for codec in [Codec::Raw, Codec::Packed] {
            let mut buf = Vec::new();
            codec.encode_sorted(&a, &mut buf);
            codec.encode_sorted(&b, &mut buf);
            let mut out = Vec::new();
            let used_a = codec.decode_sorted(&buf, &mut out).unwrap();
            assert_eq!(out, a);
            out.clear();
            codec.decode_sorted(&buf[used_a..], &mut out).unwrap();
            assert_eq!(out, b);
        }
    }

    #[test]
    fn display_covers_all_errors() {
        let errors = [
            CodecError::UnexpectedEof,
            CodecError::VarintOverflow,
            CodecError::InvalidBitWidth(40),
            CodecError::NonMonotonic,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
