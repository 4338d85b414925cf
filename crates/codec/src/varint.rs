//! LEB128 variable-length integer encoding.
//!
//! Small values dominate both delta-coded posting lists and segment framing
//! metadata, so a byte-oriented varint gives most of the win of heavier
//! codecs at trivial code cost. `u32` values take 1–5 bytes, `u64` 1–10.

use crate::CodecError;

/// Maximum encoded size of a `u32` varint.
pub const MAX_VARINT32_LEN: usize = 5;
/// Maximum encoded size of a `u64` varint.
pub const MAX_VARINT64_LEN: usize = 10;

/// Append the LEB128 encoding of `value` to `out`.
#[inline]
pub fn write_u32(mut value: u32, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append the LEB128 encoding of `value` to `out`.
#[inline]
pub fn write_u64(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a `u32` varint from the front of `input`.
///
/// Returns the value and the number of bytes consumed.
#[inline]
pub fn read_u32(input: &[u8]) -> Result<(u32, usize), CodecError> {
    let mut value: u32 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate().take(MAX_VARINT32_LEN) {
        let part = (byte & 0x7f) as u32;
        // The final (5th) byte may only carry 4 significant bits.
        if shift == 28 && part > 0x0f {
            return Err(CodecError::VarintOverflow);
        }
        value |= part << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    if input.len() < MAX_VARINT32_LEN {
        Err(CodecError::UnexpectedEof)
    } else {
        Err(CodecError::VarintOverflow)
    }
}

/// Decode `n` consecutive `u32` varints from the front of `input`,
/// appending the values to `out`; returns the bytes consumed. Values,
/// count and error are those of `n` calls of [`read_u32`]; on an error
/// `out` keeps the values decoded before it.
///
/// For runs of mostly one- to three-byte values (ids in the tens of
/// thousands), where [`read_u32`]'s per-byte loop mispredicts its exit
/// on every length change. Each value is read through a four-byte
/// window: the first clear continuation bit gives the length, a mask
/// and three shifts give the value, with no branch on either. The last
/// few bytes of the input, and four- and five-byte values, go through
/// [`read_u32`].
pub fn read_u32_run(input: &[u8], n: usize, out: &mut Vec<u32>) -> Result<usize, CodecError> {
    // Every value takes a byte, so a hostile `n` reserves no more than
    // the input could hold.
    out.reserve(n.min(input.len()));
    let mut pos = 0usize;
    for _ in 0..n {
        if let Some(window) = input.get(pos..pos + 4) {
            let word = u32::from_le_bytes(window.try_into().expect("four bytes"));
            // Bit 7, 15 or 23: the final byte of a 1-, 2- or 3-byte value.
            let ends = !word & 0x0080_8080;
            if ends != 0 {
                let end_bit = ends.trailing_zeros();
                let bytes = word & (u32::MAX >> (31 - end_bit));
                out.push(bytes & 0x7f | (bytes & 0x7f00) >> 1 | (bytes & 0x7f_0000) >> 2);
                pos += (end_bit as usize + 1) / 8;
                continue;
            }
        }
        let (value, used) = read_u32(&input[pos..])?;
        out.push(value);
        pos += used;
    }
    Ok(pos)
}

/// Decode a `u64` varint from the front of `input`.
///
/// Returns the value and the number of bytes consumed.
#[inline]
pub fn read_u64(input: &[u8]) -> Result<(u64, usize), CodecError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate().take(MAX_VARINT64_LEN) {
        let part = (byte & 0x7f) as u64;
        // The final (10th) byte may only carry a single significant bit.
        if shift == 63 && part > 1 {
            return Err(CodecError::VarintOverflow);
        }
        value |= part << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    if input.len() < MAX_VARINT64_LEN {
        Err(CodecError::UnexpectedEof)
    } else {
        Err(CodecError::VarintOverflow)
    }
}

/// Zig-zag map a signed value to unsigned so small magnitudes stay small.
#[inline]
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip_boundaries() {
        let cases = [
            0u32,
            1,
            127,
            128,
            16_383,
            16_384,
            2_097_151,
            2_097_152,
            268_435_455,
            268_435_456,
            u32::MAX,
        ];
        for &v in &cases {
            let mut buf = Vec::new();
            write_u32(v, &mut buf);
            assert!(buf.len() <= MAX_VARINT32_LEN);
            let (decoded, used) = read_u32(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn u64_roundtrip_boundaries() {
        let cases = [0u64, 1, 127, 128, u32::MAX as u64, u64::MAX / 2, u64::MAX];
        for &v in &cases {
            let mut buf = Vec::new();
            write_u64(v, &mut buf);
            assert!(buf.len() <= MAX_VARINT64_LEN);
            let (decoded, used) = read_u64(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn encoded_length_grows_with_magnitude() {
        let mut one = Vec::new();
        write_u32(1, &mut one);
        let mut max = Vec::new();
        write_u32(u32::MAX, &mut max);
        assert_eq!(one.len(), 1);
        assert_eq!(max.len(), 5);
    }

    #[test]
    fn truncated_input_is_eof() {
        let mut buf = Vec::new();
        write_u32(u32::MAX, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(read_u32(&buf[..cut]).unwrap_err(), CodecError::UnexpectedEof);
        }
    }

    #[test]
    fn run_reads_every_length_and_stops_where_read_u32_would() {
        let values = [0u32, 127, 128, 16_383, 16_384, 2_097_151, 2_097_152, u32::MAX, 5];
        let mut buf = Vec::new();
        values.iter().for_each(|&v| write_u32(v, &mut buf));
        let mut out = vec![9];
        assert_eq!(read_u32_run(&buf, values.len(), &mut out), Ok(buf.len()));
        assert_eq!(out[1..], values);
        // Fewer than asked for stops early; more than encoded is an EOF.
        out.clear();
        assert_eq!(read_u32_run(&buf, 2, &mut out), Ok(2));
        assert_eq!(out, [0, 127]);
        assert_eq!(read_u32_run(&buf, values.len() + 1, &mut out), Err(CodecError::UnexpectedEof));
        // A non-canonical zero ([0x80, 0x00]) reads as read_u32 reads it.
        out.clear();
        assert_eq!(read_u32_run(&[0x80, 0x00, 0x01, 0x01, 0x01], 3, &mut out), Ok(4));
        assert_eq!(out, [0, 1, 1]);
        assert_eq!(
            read_u32_run(&[1, 0xff, 0xff, 0xff, 0xff, 0x7f], 2, &mut out),
            Err(CodecError::VarintOverflow)
        );
        assert_eq!(read_u32_run(&[], usize::MAX, &mut Vec::new()), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn overlong_u32_is_overflow() {
        // Five continuation bytes carrying more than 32 bits of payload.
        let buf = [0xff, 0xff, 0xff, 0xff, 0x7f];
        assert_eq!(read_u32(&buf).unwrap_err(), CodecError::VarintOverflow);
    }

    #[test]
    fn overlong_u64_is_overflow() {
        let buf = [0xff; 10];
        assert_eq!(read_u64(&buf).unwrap_err(), CodecError::VarintOverflow);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [-1i64, 0, 1, -2, 2, i64::MIN, i64::MAX, -123_456_789] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_small() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
    }
}
