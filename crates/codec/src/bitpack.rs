//! Frame-of-reference bit-packing of fixed-size integer blocks.
//!
//! A block of [`BLOCK_LEN`] `u32` values is stored with a single bit width
//! `b = max(bits(v))`: each value occupies exactly `b` bits in a contiguous
//! little-endian bit stream, so a block costs `1 + 4·b` bytes instead of
//! 512. This is the core of PFoR-style codecs (the paper uses FastPFOR);
//! we omit exception patching because delta-coded posting-list gaps in this
//! workload are uniformly small and patching buys little for the extra
//! branchiness.

use crate::CodecError;
use std::mem::MaybeUninit;

/// Number of values per packed block. 128 matches common PFoR layouts and
/// keeps each block's packed payload a whole number of bytes for any width.
pub const BLOCK_LEN: usize = 128;

/// Number of bits needed to represent `v` (0 for 0).
#[inline]
pub fn bits_needed(v: u32) -> u8 {
    (32 - v.leading_zeros()) as u8
}

/// Widest value in a slice, in bits.
#[inline]
pub fn max_bits(values: &[u32]) -> u8 {
    values.iter().fold(0u8, |acc, &v| acc.max(bits_needed(v)))
}

/// Pack exactly [`BLOCK_LEN`] values with the given `width` into `out`.
///
/// `width` must satisfy `max_bits(values) <= width <= 32`. The output is
/// `width * BLOCK_LEN / 8` bytes (always whole because `BLOCK_LEN` is a
/// multiple of 8).
///
/// # Panics
///
/// Panics if `values.len() != BLOCK_LEN` or a value does not fit in `width`.
pub fn pack_block(values: &[u32], width: u8, out: &mut Vec<u8>) {
    assert_eq!(values.len(), BLOCK_LEN, "pack_block requires a full block");
    assert!(width <= 32, "width must be <= 32");
    if width == 0 {
        assert!(values.iter().all(|&v| v == 0));
        return;
    }
    let mask: u64 = if width == 32 { u32::MAX as u64 } else { (1u64 << width) - 1 };
    let mut acc: u64 = 0;
    let mut acc_bits: u32 = 0;
    for &v in values {
        assert!((v as u64) <= mask, "value {v} does not fit in {width} bits");
        acc |= (v as u64) << acc_bits;
        acc_bits += width as u32;
        while acc_bits >= 8 {
            out.push((acc & 0xff) as u8);
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    debug_assert_eq!(acc_bits, 0, "BLOCK_LEN * width is a multiple of 8");
}

/// Unpack one block previously written by [`pack_block`].
///
/// Appends [`BLOCK_LEN`] values to `out` and returns the number of input
/// bytes consumed. Dispatches to the fastest [`crate::simd`] kernel the
/// CPU supports (and the `KBTIM_SIMD` knob allows); the output is
/// bit-identical to [`unpack_block_scalar`] for every width and input.
pub fn unpack_block(input: &[u8], width: u8, out: &mut Vec<u32>) -> Result<usize, CodecError> {
    unpack_block_with(crate::simd::active_level(), input, width, out)
}

/// [`unpack_block`] at an explicit kernel tier — the test/bench hook
/// behind the SIMD-vs-scalar equality proptests. Unsupported tiers are
/// clamped to the best the CPU has.
#[doc(hidden)]
pub fn unpack_block_with(
    level: crate::simd::SimdLevel,
    input: &[u8],
    width: u8,
    out: &mut Vec<u32>,
) -> Result<usize, CodecError> {
    append_block(out, |dst| unpack_block_into(level, input, width, dst))
}

/// The portable scalar unpack — the oracle the SIMD kernels are
/// proptested against, and the only path on non-x86-64 targets.
pub fn unpack_block_scalar(
    input: &[u8],
    width: u8,
    out: &mut Vec<u32>,
) -> Result<usize, CodecError> {
    append_block(out, |dst| unpack_block_into(crate::simd::SimdLevel::Scalar, input, width, dst))
}

/// Let `unpack` fill one block of `out`'s spare capacity and keep it if
/// that succeeds (an error leaves `out` as it was). The block is not
/// zeroed first: the unpack overwrites every slot.
fn append_block(
    out: &mut Vec<u32>,
    unpack: impl FnOnce(&mut [MaybeUninit<u32>]) -> Result<usize, CodecError>,
) -> Result<usize, CodecError> {
    out.reserve(BLOCK_LEN);
    let used = unpack(&mut out.spare_capacity_mut()[..BLOCK_LEN])?;
    // SAFETY: `reserve` made room for `BLOCK_LEN` more values and
    // `unpack` — `unpack_block_into`, which returned `Ok` — wrote all of
    // them.
    unsafe { out.set_len(out.len() + BLOCK_LEN) };
    Ok(used)
}

/// [`unpack_block_with`] into a caller-sized slice of exactly
/// [`BLOCK_LEN`] slots — what a decoder that sized its whole output up
/// front (see [`crate::stream`]) calls once per frame. The slots may be
/// uninitialized: `Ok` means every one of them has been written (the
/// contract the callers' `set_len` rests on); an error may have written
/// some.
pub(crate) fn unpack_block_into(
    level: crate::simd::SimdLevel,
    input: &[u8],
    width: u8,
    dst: &mut [MaybeUninit<u32>],
) -> Result<usize, CodecError> {
    assert_eq!(dst.len(), BLOCK_LEN, "unpack_block_into fills exactly one block");
    if width > 32 {
        return Err(CodecError::InvalidBitWidth(width));
    }
    if width == 0 {
        dst.fill(MaybeUninit::new(0));
        return Ok(0);
    }
    let byte_len = width as usize * BLOCK_LEN / 8;
    if input.len() < byte_len {
        return Err(CodecError::UnexpectedEof);
    }
    #[cfg(target_arch = "x86_64")]
    {
        let level = crate::simd::clamp_supported(level);
        if level > crate::simd::SimdLevel::Scalar {
            crate::simd::unpack_block_simd(level, input, width, dst);
            return Ok(byte_len);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = level;
    let mask: u64 = if width == 32 { u32::MAX as u64 } else { (1u64 << width) - 1 };
    let mut acc: u64 = 0;
    let mut acc_bits: u32 = 0;
    let mut bytes = input[..byte_len].iter();
    for slot in dst.iter_mut() {
        while acc_bits < width as u32 {
            // Framing guarantees enough bytes; the iterator cannot run dry.
            let byte = *bytes.next().expect("length checked above");
            acc |= (byte as u64) << acc_bits;
            acc_bits += 8;
        }
        slot.write((acc & mask) as u32);
        acc >>= width;
        acc_bits -= width as u32;
    }
    Ok(byte_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u32]) {
        let width = max_bits(values);
        let mut packed = Vec::new();
        pack_block(values, width, &mut packed);
        let mut unpacked = Vec::new();
        let used = unpack_block(&packed, width, &mut unpacked).unwrap();
        assert_eq!(used, packed.len());
        assert_eq!(unpacked, values);
    }

    #[test]
    fn zeros_pack_to_nothing() {
        let values = [0u32; BLOCK_LEN];
        let mut packed = Vec::new();
        pack_block(&values, 0, &mut packed);
        assert!(packed.is_empty());
        roundtrip(&values);
    }

    #[test]
    fn all_widths_roundtrip() {
        for width in 1..=32u8 {
            let max = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
            let values: Vec<u32> =
                (0..BLOCK_LEN as u32).map(|i| i.wrapping_mul(2_654_435_761) % max.max(1)).collect();
            let mut with_max = values;
            with_max[0] = max; // force the full width to be exercised
            roundtrip(&with_max);
        }
    }

    #[test]
    fn packed_size_is_exact() {
        for width in 1..=32u8 {
            let values = [if width == 32 { u32::MAX } else { (1u32 << width) - 1 }; BLOCK_LEN];
            let mut packed = Vec::new();
            pack_block(&values, width, &mut packed);
            assert_eq!(packed.len(), width as usize * BLOCK_LEN / 8);
        }
    }

    #[test]
    fn bits_needed_edges() {
        assert_eq!(bits_needed(0), 0);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(2), 2);
        assert_eq!(bits_needed(3), 2);
        assert_eq!(bits_needed(u32::MAX), 32);
    }

    #[test]
    fn truncated_block_is_eof() {
        let values = [5u32; BLOCK_LEN];
        let mut packed = Vec::new();
        pack_block(&values, 3, &mut packed);
        let mut out = Vec::new();
        assert_eq!(
            unpack_block(&packed[..packed.len() - 1], 3, &mut out).unwrap_err(),
            CodecError::UnexpectedEof
        );
    }

    #[test]
    fn invalid_width_rejected() {
        let mut out = Vec::new();
        assert_eq!(
            unpack_block(&[0u8; 1024], 33, &mut out).unwrap_err(),
            CodecError::InvalidBitWidth(33)
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let mut values = [0u32; BLOCK_LEN];
        values[7] = 8; // needs 4 bits
        let mut out = Vec::new();
        pack_block(&values, 3, &mut out);
    }
}
