//! Property-based round-trip tests for every codec layer, including the
//! SIMD-vs-scalar bit-equality contract: every runtime-dispatched kernel
//! tier the host supports must reproduce the scalar oracle exactly — for
//! every width 0..=32, every lane remainder, truncated inputs, and
//! corrupt (overflowing) gap streams.

use kbtim_codec::{bitpack, delta, list, simd, varint, Codec};
use proptest::prelude::*;

fn sorted_vec(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(any::<u32>(), 0..max_len).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

/// One full block of values that fit a random width, so every width
/// 0..=32 (and therefore every per-width kernel, the gather path, and
/// the shift/mask fallback) gets exercised.
fn block_for_width() -> impl Strategy<Value = (u8, Vec<u32>)> {
    (0u8..=32).prop_flat_map(|w| {
        let max = match w {
            0 => 0,
            32 => u32::MAX,
            _ => (1u32 << w) - 1,
        };
        proptest::collection::vec(0..=max, bitpack::BLOCK_LEN).prop_map(move |v| (w, v))
    })
}

proptest! {
    #[test]
    fn varint_u32_roundtrip(v in any::<u32>()) {
        let mut buf = Vec::new();
        varint::write_u32(v, &mut buf);
        let (decoded, used) = varint::read_u32(&buf).unwrap();
        prop_assert_eq!(decoded, v);
        prop_assert_eq!(used, buf.len());
    }

    #[test]
    fn varint_u64_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        varint::write_u64(v, &mut buf);
        let (decoded, used) = varint::read_u64(&buf).unwrap();
        prop_assert_eq!(decoded, v);
        prop_assert_eq!(used, buf.len());
    }

    /// The bulk reader is `n` calls of `read_u32`: same values, same
    /// bytes consumed, same error — on encoded runs of every length
    /// mix, their truncations, and arbitrary bytes (over-long and
    /// overflowing encodings included).
    #[test]
    fn varint_run_matches_repeated_read_u32(
        values in proptest::collection::vec(
            prop_oneof![0u32..128, 0u32..70_000, 0u32..3_000_000, any::<u32>()], 0..80),
        noise in proptest::collection::vec(any::<u8>(), 0..40),
        cut in any::<proptest::sample::Index>(),
        extra in 0usize..3,
    ) {
        let mut encoded = Vec::new();
        values.iter().for_each(|&v| varint::write_u32(v, &mut encoded));
        let truncated = &encoded[..cut.index(encoded.len() + 1)];
        let mut mixed = noise.clone();
        mixed.extend_from_slice(&encoded);
        for (input, n) in [
            (&encoded[..], values.len()),
            (&encoded[..], values.len() + extra),
            (truncated, values.len()),
            (&noise[..], noise.len()),
            (&mixed[..], values.len() + extra),
        ] {
            let mut want = Vec::new();
            let mut pos = 0usize;
            let mut want_result = Ok(());
            for _ in 0..n {
                match varint::read_u32(&input[pos..]) {
                    Ok((v, used)) => {
                        want.push(v);
                        pos += used;
                    }
                    Err(e) => {
                        want_result = Err(e);
                        break;
                    }
                }
            }
            let mut got = Vec::new();
            let got_result = varint::read_u32_run(input, n, &mut got);
            prop_assert_eq!(got_result, want_result.map(|()| pos));
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn zigzag_roundtrip(v in any::<i64>()) {
        prop_assert_eq!(varint::zigzag_decode(varint::zigzag_encode(v)), v);
    }

    #[test]
    fn delta_roundtrip(values in sorted_vec(600)) {
        let mut work = values.clone();
        delta::delta_in_place(&mut work);
        delta::undelta_in_place(&mut work).unwrap();
        prop_assert_eq!(work, values);
    }

    #[test]
    fn bitpack_roundtrip(values in proptest::collection::vec(any::<u32>(), bitpack::BLOCK_LEN)) {
        let width = bitpack::max_bits(&values);
        let mut packed = Vec::new();
        bitpack::pack_block(&values, width, &mut packed);
        let mut out = Vec::new();
        let used = bitpack::unpack_block(&packed, width, &mut out).unwrap();
        prop_assert_eq!(used, packed.len());
        prop_assert_eq!(out, values);
    }

    #[test]
    fn packed_list_roundtrip(values in sorted_vec(1000)) {
        let mut buf = Vec::new();
        list::encode_packed(&values, &mut buf);
        let mut out = Vec::new();
        let used = list::decode_packed(&buf, &mut out).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(out, values);
    }

    #[test]
    fn raw_list_roundtrip(values in sorted_vec(1000)) {
        let mut buf = Vec::new();
        list::encode_raw(&values, &mut buf);
        let mut out = Vec::new();
        let used = list::decode_raw(&buf, &mut out).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(out, values);
    }

    #[test]
    fn codecs_agree(values in sorted_vec(800)) {
        for codec in [Codec::Raw, Codec::Packed] {
            let mut buf = Vec::new();
            codec.encode_sorted(&values, &mut buf);
            let mut out = Vec::new();
            codec.decode_sorted(&buf, &mut out).unwrap();
            prop_assert_eq!(&out, &values);
        }
    }

    #[test]
    fn concatenated_stream_roundtrip(lists in proptest::collection::vec(sorted_vec(120), 0..12)) {
        for codec in [Codec::Raw, Codec::Packed] {
            let mut buf = Vec::new();
            for l in &lists {
                codec.encode_sorted(l, &mut buf);
            }
            let mut pos = 0;
            for l in &lists {
                let mut out = Vec::new();
                pos += codec.decode_sorted(&buf[pos..], &mut out).unwrap();
                prop_assert_eq!(&out, l);
            }
            prop_assert_eq!(pos, buf.len());
        }
    }

    /// Decoding never panics on arbitrary bytes — it either succeeds or
    /// returns a structured error.
    #[test]
    fn decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let mut out = Vec::new();
        let _ = list::decode_packed(&bytes, &mut out);
        out.clear();
        let _ = list::decode_raw(&bytes, &mut out);
    }

    /// Every supported kernel tier unpacks bit-identically to the scalar
    /// oracle for every width. `pad` varies the trailing bytes after the
    /// block: 0 exercises the end-of-segment bounds fallbacks (gather /
    /// unaligned-load windows that would overrun), larger values the
    /// mid-stream fast paths.
    #[test]
    fn simd_unpack_matches_scalar_for_all_widths(
        (width, values) in block_for_width(),
        pad in 0usize..9,
    ) {
        let mut packed = Vec::new();
        bitpack::pack_block(&values, width, &mut packed);
        let byte_len = packed.len();
        packed.resize(byte_len + pad, 0xAB);
        let mut oracle = vec![7u32]; // decode appends, never clears
        let used = bitpack::unpack_block_scalar(&packed, width, &mut oracle).unwrap();
        prop_assert_eq!(used, byte_len);
        prop_assert_eq!(&oracle[1..], values.as_slice());
        for &level in simd::supported_levels() {
            let mut out = vec![7u32];
            let used = bitpack::unpack_block_with(level, &packed, width, &mut out).unwrap();
            prop_assert_eq!(used, byte_len, "width {} level {}", width, level.name());
            prop_assert_eq!(&out, &oracle, "width {} level {}", width, level.name());
        }
    }

    /// Error cases agree across tiers too: truncated payloads are
    /// `UnexpectedEof`, oversized widths `InvalidBitWidth`, and neither
    /// appends anything.
    #[test]
    fn simd_unpack_error_cases_match_scalar(
        (width, values) in block_for_width(),
        cut in 1usize..32,
        bad_width in 33u8..=255,
    ) {
        let mut packed = Vec::new();
        bitpack::pack_block(&values, width, &mut packed);
        for &level in simd::supported_levels() {
            if width > 0 {
                let cut = cut.min(packed.len());
                let mut out = vec![7u32];
                prop_assert_eq!(
                    bitpack::unpack_block_with(level, &packed[..packed.len() - cut], width, &mut out)
                        .unwrap_err(),
                    kbtim_codec::CodecError::UnexpectedEof
                );
                prop_assert_eq!(&out, &vec![7u32], "EOF must not append ({})", level.name());
            }
            let mut out = Vec::new();
            prop_assert_eq!(
                bitpack::unpack_block_with(level, &packed, bad_width, &mut out).unwrap_err(),
                kbtim_codec::CodecError::InvalidBitWidth(bad_width)
            );
            prop_assert!(out.is_empty());
        }
    }

    /// The SIMD-dispatched gap decoders match the scalar oracle on
    /// arbitrary gap streams — including corrupt (overflowing) ones,
    /// where the error *and* the partially written output must be
    /// bit-identical.
    #[test]
    fn simd_gap_decode_matches_scalar(gaps in proptest::collection::vec(any::<u32>(), 0..600)) {
        // The oracle: the documented scalar semantics, computed by hand.
        let mut oracle_out = vec![42u32];
        let mut oracle_err = None;
        let mut acc = 0u32;
        for &g in &gaps {
            match acc.checked_add(g) {
                Some(next) => {
                    acc = next;
                    oracle_out.push(acc);
                }
                None => {
                    oracle_err = Some(kbtim_codec::CodecError::NonMonotonic);
                    break;
                }
            }
        }

        let mut out = vec![42u32];
        let got = delta::decode_deltas_into(&gaps, &mut out);
        prop_assert_eq!(got.err(), oracle_err.clone());
        prop_assert_eq!(&out, &oracle_out);

        // undelta_in_place agrees element for element with its scalar twin.
        let mut fast = gaps.clone();
        let mut slow = gaps.clone();
        let fast_res = delta::undelta_in_place(&mut fast);
        let slow_res = delta::undelta_in_place_scalar(&mut slow);
        prop_assert_eq!(fast_res.err(), slow_res.err());
        prop_assert_eq!(fast, slow);
    }

    /// Every tier of the tagged-gap scan agrees with the scalar tier on
    /// *arbitrary* words — any tag pattern, ids past 2^31, any claimed
    /// list count: the same verdict, and on success the same ids,
    /// offsets and or-of-ids. No tier writes outside the `offsets` it
    /// was handed, whatever the tags say.
    #[test]
    fn tagged_gap_scan_matches_scalar_on_arbitrary_words(
        words in proptest::collection::vec(any::<u32>(), 0..300),
        small in proptest::collection::vec(0u32..64, 0..300),
        claimed_delta in -9i64..10,
    ) {
        for stream in [words, small] {
            let tags = stream.iter().filter(|&&w| w & 1 == 1).count() as i64;
            // The true count most of the time, a wrong one otherwise.
            let n_lists = (tags + claimed_delta.clamp(-1, 1) * (claimed_delta.abs() / 5))
                .clamp(0, stream.len() as i64 + 8) as usize;
            let mut oracle_ids = stream.clone();
            let mut oracle_offsets = vec![0u32; n_lists + 1];
            let oracle = simd::scan_tagged_gaps(
                simd::SimdLevel::Scalar, &mut oracle_ids, &mut oracle_offsets,
            );
            prop_assert_eq!(oracle.is_some(), tags as usize == n_lists);
            for &level in simd::supported_levels() {
                const CANARY: u32 = 0xDEAD_BEEF;
                let mut ids = stream.clone();
                let mut fenced = vec![CANARY; n_lists + 1 + 16];
                let got = simd::scan_tagged_gaps(level, &mut ids, &mut fenced[..n_lists + 1]);
                prop_assert_eq!(got, oracle, "{} n_lists {}", level.name(), n_lists);
                prop_assert!(
                    fenced[n_lists + 1..].iter().all(|&w| w == CANARY),
                    "{} wrote past offsets", level.name()
                );
                if got.is_some() {
                    prop_assert_eq!(&ids, &oracle_ids, "{}", level.name());
                    prop_assert_eq!(&fenced[..n_lists + 1], &oracle_offsets[..], "{}", level.name());
                }
            }
        }
    }
}
