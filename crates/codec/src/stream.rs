//! Block-wide integer streams: `n` arbitrary `u32`s coded back to back,
//! the count carried by the caller's own header.
//!
//! Where [`crate::list`] frames one *sorted list* at a time (count,
//! first value, gaps), a stream is what a columnar block stores per
//! column — all user gaps of an inverted-list block, all its tagged
//! rr-id gaps — so even a block of two-id lists fills whole 128-value
//! frames and reaches the SIMD unpack kernels.
//!
//! ```text
//! Packed:  repeat for each full frame of 128 values:
//!              u8     width            bits per value (0..=32)
//!              bytes  width*128/8      bit-packed values
//!          repeat for the n % 128 tail values:
//!              varint value
//! Raw:     n little-endian u32
//! ```
//!
//! No transform is applied: callers that store ascending values write
//! their own gaps and prefix-sum after decoding.

use crate::bitpack::{self, BLOCK_LEN};
use crate::simd::SimdLevel;
use crate::{varint, Codec, CodecError};
use std::mem::MaybeUninit;

impl Codec {
    /// Append the stream encoding of `values` to `out`. The count is not
    /// stored; pass it back to [`Codec::decode_stream`].
    pub fn encode_stream(&self, values: impl IntoIterator<Item = u32>, out: &mut Vec<u8>) {
        match self {
            Codec::Raw => {
                for v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Codec::Packed => {
                let mut frame = [0u32; BLOCK_LEN];
                let mut filled = 0;
                for v in values {
                    frame[filled] = v;
                    filled += 1;
                    if filled == BLOCK_LEN {
                        let width = bitpack::max_bits(&frame);
                        out.push(width);
                        bitpack::pack_block(&frame, width, out);
                        filled = 0;
                    }
                }
                for &v in &frame[..filled] {
                    varint::write_u32(v, out);
                }
            }
        }
    }

    /// Decode a stream of exactly `n` values written by
    /// [`Codec::encode_stream`], appending them to `out`; returns the
    /// input bytes consumed.
    ///
    /// `n` is checked against what `input` could possibly hold *before*
    /// anything is reserved, so a hostile count is an
    /// [`CodecError::UnexpectedEof`], never an allocation.
    pub fn decode_stream(
        &self,
        input: &[u8],
        n: usize,
        out: &mut Vec<u32>,
    ) -> Result<usize, CodecError> {
        self.decode_stream_with(crate::simd::active_level(), input, n, out)
    }

    /// [`Codec::decode_stream`] at an explicit kernel tier (unsupported
    /// tiers clamp to the best the CPU has) — how the tests cover every
    /// tier on one host.
    pub(crate) fn decode_stream_with(
        &self,
        level: SimdLevel,
        input: &[u8],
        n: usize,
        out: &mut Vec<u32>,
    ) -> Result<usize, CodecError> {
        // The least `n` values can occupy: 4 bytes each raw; packed, a
        // width byte per full frame plus a byte per tail value.
        let floor = match self {
            Codec::Raw => n.checked_mul(4).ok_or(CodecError::UnexpectedEof)?,
            Codec::Packed => n / BLOCK_LEN + n % BLOCK_LEN,
        };
        if input.len() < floor {
            return Err(CodecError::UnexpectedEof);
        }
        // Filled through the spare capacity, not zeroed first: each
        // decoder below overwrites all `n` slots or fails.
        out.reserve(n);
        let dst = &mut out.spare_capacity_mut()[..n];
        let used = match self {
            Codec::Raw => {
                // `input` holds at least `floor = 4 n` bytes, so the
                // zip ends with `dst`.
                for (slot, bytes) in dst.iter_mut().zip(input.chunks_exact(4)) {
                    slot.write(u32::from_le_bytes(bytes.try_into().expect("chunks_exact(4)")));
                }
                floor
            }
            Codec::Packed => decode_packed(level, input, dst)?,
        };
        // SAFETY: `reserve` made room for `n` more values, and the arm
        // taken wrote every one of them: `Raw` by the zip above,
        // `Packed` by `decode_packed` returning `Ok`.
        unsafe { out.set_len(out.len() + n) };
        Ok(used)
    }
}

/// Fill `dst` from a `Packed` stream; returns the bytes consumed. `Ok`
/// means every slot of `dst` has been written.
fn decode_packed(
    level: SimdLevel,
    input: &[u8],
    dst: &mut [MaybeUninit<u32>],
) -> Result<usize, CodecError> {
    let mut pos = 0usize;
    let mut frames = dst.chunks_exact_mut(BLOCK_LEN);
    for frame in frames.by_ref() {
        let width = *input.get(pos).ok_or(CodecError::UnexpectedEof)?;
        pos += 1;
        pos += bitpack::unpack_block_into(level, &input[pos..], width, frame)?;
    }
    for slot in frames.into_remainder() {
        let (v, used) = varint::read_u32(&input[pos..])?;
        slot.write(v);
        pos += used;
    }
    Ok(pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::supported_levels;

    fn values(n: usize, max: u32) -> Vec<u32> {
        let mut v: Vec<u32> = (0..n as u64)
            .map(|i| (i.wrapping_mul(2_654_435_761) % (max as u64 + 1)) as u32)
            .collect();
        if let Some(last) = v.last_mut() {
            *last = max; // the widest value always occurs
        }
        v
    }

    #[test]
    fn round_trips_at_frame_boundaries_on_every_tier() {
        for n in [0usize, 1, 127, 128, 129, 1000] {
            for max in [0u32, 1, 300, (1 << 17) - 1, u32::MAX >> 1, u32::MAX] {
                let input = values(n, max);
                for codec in [Codec::Raw, Codec::Packed] {
                    let mut buf = Vec::new();
                    codec.encode_stream(input.iter().copied(), &mut buf);
                    buf.push(0xAB); // a following stream's first byte
                    for &level in supported_levels() {
                        let mut out = vec![7u32];
                        let used = codec.decode_stream_with(level, &buf, n, &mut out).unwrap();
                        assert_eq!(used, buf.len() - 1, "{codec:?} n={n} max={max}");
                        assert_eq!(out[0], 7, "decode appends");
                        assert_eq!(&out[1..], input, "{codec:?} n={n} {}", level.name());
                    }
                }
            }
        }
    }

    #[test]
    fn truncations_error_and_leave_the_output_alone() {
        let input = values(300, 70_000);
        for codec in [Codec::Raw, Codec::Packed] {
            let mut buf = Vec::new();
            codec.encode_stream(input.iter().copied(), &mut buf);
            for cut in 0..buf.len() {
                let mut out = vec![1u32, 2];
                assert!(codec.decode_stream(&buf[..cut], 300, &mut out).is_err(), "cut {cut}");
                assert_eq!(out, [1, 2]);
            }
        }
    }

    #[test]
    fn hostile_counts_fail_before_reserving() {
        for codec in [Codec::Raw, Codec::Packed] {
            let mut buf = Vec::new();
            codec.encode_stream([1u32, 2, 3], &mut buf);
            for n in [buf.len() * BLOCK_LEN + BLOCK_LEN, u32::MAX as usize, usize::MAX] {
                let mut out = Vec::new();
                assert_eq!(
                    codec.decode_stream(&buf, n, &mut out).unwrap_err(),
                    CodecError::UnexpectedEof
                );
                assert_eq!(out.capacity(), 0, "{codec:?} n={n}: nothing reserved");
            }
        }
    }

    #[test]
    fn invalid_frame_width_is_rejected() {
        let mut buf = Vec::new();
        Codec::Packed.encode_stream(values(128, 9), &mut buf);
        buf[0] = 33;
        let mut out = Vec::new();
        assert_eq!(
            Codec::Packed.decode_stream(&buf, 128, &mut out).unwrap_err(),
            CodecError::InvalidBitWidth(33)
        );
    }
}
