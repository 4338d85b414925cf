//! The composed posting-list codec used by the disk indexes.
//!
//! Layout of one `Packed` list (all integers little-endian bit streams or
//! LEB128 varints):
//!
//! ```text
//! varint  n                    element count
//! varint  first                first (absolute) value, when n > 0
//! repeat for each full block of 128 gaps (n-1 gaps total):
//!     u8      width            bits per gap (0..=32)
//!     bytes   width*128/8      bit-packed gaps
//! repeat for the (n-1) % 128 tail gaps:
//!     varint  gap
//! ```
//!
//! Storing the first value outside the gap stream keeps a large absolute id
//! from inflating the first block's bit width.
//!
//! The `Raw` layout is `varint n` followed by `n` fixed `u32` little-endian
//! values (no delta), mirroring the paper's uncompressed configuration.

use crate::bitpack::{self, BLOCK_LEN};
use crate::varint;
use crate::CodecError;

/// Encode a sorted list as fixed-width little-endian `u32`s.
pub fn encode_raw(values: &[u32], out: &mut Vec<u8>) {
    varint::write_u32(values.len() as u32, out);
    out.reserve(values.len() * 4);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decode a list written by [`encode_raw`]; returns bytes consumed.
pub fn decode_raw(input: &[u8], out: &mut Vec<u32>) -> Result<usize, CodecError> {
    let (n, pos) = varint::read_u32(input)?;
    let need = (n as usize).checked_mul(4).ok_or(CodecError::UnexpectedEof)?;
    let words = input[pos..].get(..need).ok_or(CodecError::UnexpectedEof)?;
    out.extend(words.chunks_exact(4).map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]])));
    Ok(pos + need)
}

/// Encode a sorted list with delta + block bit-packing.
pub fn encode_packed(values: &[u32], out: &mut Vec<u8>) {
    debug_assert!(values.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
    varint::write_u32(values.len() as u32, out);
    let Some((&first, rest)) = values.split_first() else {
        return;
    };
    varint::write_u32(first, out);

    // Gaps between consecutive values (rest[i] - prev).
    let mut gaps = Vec::with_capacity(rest.len());
    let mut prev = first;
    for &v in rest {
        gaps.push(v.wrapping_sub(prev));
        prev = v;
    }

    let mut chunks = gaps.chunks_exact(BLOCK_LEN);
    for block in chunks.by_ref() {
        let width = bitpack::max_bits(block);
        out.push(width);
        bitpack::pack_block(block, width, out);
    }
    for &gap in chunks.remainder() {
        varint::write_u32(gap, out);
    }
}

/// Decode a list written by [`encode_packed`]; returns bytes consumed.
pub fn decode_packed(input: &[u8], out: &mut Vec<u32>) -> Result<usize, CodecError> {
    let (n, mut pos) = varint::read_u32(input)?;
    let n = n as usize;
    if n == 0 {
        return Ok(pos);
    }
    let (first, used) = varint::read_u32(&input[pos..])?;
    pos += used;
    let start = out.len();
    out.reserve(n);
    out.push(first);

    let gap_count = n - 1;
    let full_blocks = gap_count / BLOCK_LEN;
    for _ in 0..full_blocks {
        let width = *input.get(pos).ok_or(CodecError::UnexpectedEof)?;
        pos += 1;
        pos += bitpack::unpack_block(&input[pos..], width, out)?;
    }
    for _ in 0..(gap_count % BLOCK_LEN) {
        let (gap, used) = varint::read_u32(&input[pos..])?;
        out.push(gap);
        pos += used;
    }
    // Prefix-sum the gaps back into absolute values (the first slot
    // already holds the absolute first value, which is exactly a gap
    // from 0, so the shared — SIMD-dispatched — undelta applies as-is).
    crate::delta::undelta_in_place(&mut out[start..])?;
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_packed(values: &[u32]) {
        let mut buf = Vec::new();
        encode_packed(values, &mut buf);
        let mut out = Vec::new();
        let used = decode_packed(&buf, &mut out).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(out, values);
    }

    #[test]
    fn empty_list() {
        roundtrip_packed(&[]);
        let mut buf = Vec::new();
        encode_raw(&[], &mut buf);
        let mut out = Vec::new();
        assert_eq!(decode_raw(&buf, &mut out).unwrap(), buf.len());
        assert!(out.is_empty());
    }

    #[test]
    fn exactly_one_block() {
        let values: Vec<u32> = (0..128u32).map(|i| i * 7).collect();
        roundtrip_packed(&values);
    }

    #[test]
    fn block_plus_tail() {
        let values: Vec<u32> = (0..300u32).map(|i| i * i).collect();
        roundtrip_packed(&values);
    }

    #[test]
    fn duplicates_allowed() {
        let values = vec![5u32; 500];
        roundtrip_packed(&values);
    }

    #[test]
    fn large_first_value() {
        let values = vec![u32::MAX - 2, u32::MAX - 1, u32::MAX];
        roundtrip_packed(&values);
    }

    #[test]
    fn truncation_detected_everywhere() {
        let values: Vec<u32> = (0..200u32).map(|i| i * 3 + 1).collect();
        let mut buf = Vec::new();
        encode_packed(&values, &mut buf);
        for cut in 0..buf.len() {
            let mut out = Vec::new();
            assert!(
                decode_packed(&buf[..cut], &mut out).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    #[test]
    fn raw_truncation_detected() {
        let values: Vec<u32> = (0..50u32).collect();
        let mut buf = Vec::new();
        encode_raw(&values, &mut buf);
        let mut out = Vec::new();
        assert_eq!(
            decode_raw(&buf[..buf.len() - 1], &mut out).unwrap_err(),
            CodecError::UnexpectedEof
        );
    }

    #[test]
    fn decode_appends_to_existing_output() {
        let mut out = vec![99u32];
        let mut buf = Vec::new();
        encode_packed(&[1, 2, 3], &mut buf);
        decode_packed(&buf, &mut out).unwrap();
        assert_eq!(out, vec![99, 1, 2, 3]);
    }

    #[test]
    fn dense_gaps_compress_well() {
        // Consecutive ids → all gaps are 1 → one bit per element.
        let values: Vec<u32> = (1000..1000 + 1280).collect();
        let mut buf = Vec::new();
        encode_packed(&values, &mut buf);
        // 9 full blocks * 17 bytes + 127 one-byte tail varints + header
        // ≈ 285 bytes, far below the 5 KiB raw encoding.
        assert!(buf.len() < 320, "got {}", buf.len());
    }
}
