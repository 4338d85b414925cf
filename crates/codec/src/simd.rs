//! Runtime-dispatched SIMD kernels for the hot decode loops.
//!
//! The decode cost of a KB-TIM query is dominated by two loops: gap
//! unpacking in [`crate::bitpack::unpack_block`] and the prefix sum that
//! turns gaps back into absolute ids ([`crate::delta`]). Both are
//! data-parallel, so this module provides `std::arch` x86-64 kernels for
//! them behind a safe dispatch:
//!
//! * **Per-width unpack** (SSE2, baseline on x86-64) for the
//!   byte-periodic widths 4 / 8 / 16 / 32 — pure load + widen/shuffle,
//!   no bit arithmetic at all.
//! * **Gather unpack** (AVX2) for widths 1..=25: every group of 8
//!   packed values starts on an exact byte boundary (`8·w` bits is a
//!   whole number of bytes), so one `vpgatherdd` + `vpsrlvd` + mask
//!   produces 8 values per instruction group.
//! * **Shift/mask fallback** for the remaining widths: branch-free
//!   unaligned 64-bit loads (`shift ≤ 7` plus `w ≤ 32` bits always fit
//!   in one `u64` window).
//! * **Prefix sum** (SSE2) for gap reconstruction, used once a cheap
//!   read-only `u64` total proves no `u32` overflow can occur — corrupt
//!   inputs take the scalar path so error positions and partial output
//!   stay bit-identical to the scalar oracle.
//!
//! Dispatch is decided once per process ([`active_level`]): the best
//! instruction set the CPU reports, optionally capped by the
//! `KBTIM_SIMD` environment variable (`scalar` / `sse2` / `avx2`) so CI
//! can force-cover the non-AVX2 paths on an AVX2 host. The dispatcher
//! never selects a level the CPU does not support, and every kernel is
//! proptested bit-identical to the scalar oracle for all widths 0..=32
//! (`tests/proptests.rs`).
//!
//! Non-x86-64 targets compile to the scalar paths only; no kernel code
//! is even built there.

use crate::bitpack::BLOCK_LEN;
use std::sync::OnceLock;

/// Instruction-set tier a decode kernel may use. Ordered: a level
/// implies every lower one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar code — the oracle every kernel is tested against.
    Scalar,
    /// SSE2 (baseline on x86-64): per-width unpack + prefix sum.
    Sse2,
    /// AVX2: adds the gather-based generic unpack.
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name (the `KBTIM_SIMD` spelling).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Parse the `KBTIM_SIMD` spelling.
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s {
            "scalar" => Some(SimdLevel::Scalar),
            "sse2" => Some(SimdLevel::Sse2),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }
}

/// The levels this CPU can actually run, ascending (always starts with
/// [`SimdLevel::Scalar`]). Test suites iterate this list so every
/// supported kernel is exercised on whatever host runs them.
pub fn supported_levels() -> &'static [SimdLevel] {
    #[cfg(target_arch = "x86_64")]
    {
        // SSE2 is part of the x86-64 baseline; only AVX2 needs a check.
        if std::arch::is_x86_feature_detected!("avx2") {
            &[SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
        } else {
            &[SimdLevel::Scalar, SimdLevel::Sse2]
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        &[SimdLevel::Scalar]
    }
}

/// Clamp a requested level to what the CPU supports (the dispatcher must
/// never select an unsupported kernel).
pub fn clamp_supported(level: SimdLevel) -> SimdLevel {
    let supported = supported_levels();
    *supported.iter().rfind(|&&l| l <= level).unwrap_or(&SimdLevel::Scalar)
}

/// The level the hot paths dispatch to: the best supported level,
/// optionally capped by `KBTIM_SIMD=scalar|sse2|avx2`. Decided once per
/// process and cached.
pub fn active_level() -> SimdLevel {
    static ACTIVE: OnceLock<SimdLevel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let best = *supported_levels().last().expect("scalar is always supported");
        match std::env::var("KBTIM_SIMD") {
            Ok(s) => match SimdLevel::parse(&s) {
                Some(cap) => clamp_supported(cap.min(best)),
                None => best, // unknown spelling: ignore the knob
            },
            Err(_) => best,
        }
    })
}

/// Unpack one full block (`width` in `1..=32`, `input.len() >=
/// width*BLOCK_LEN/8`, `dst.len() == BLOCK_LEN` — all validated by the
/// caller) into `dst` with the given kernel tier.
///
/// `level` must be supported (callers go through [`clamp_supported`] or
/// [`active_level`]); [`SimdLevel::Scalar`] must be handled by the
/// caller (this function is only compiled/called on x86-64).
#[cfg(target_arch = "x86_64")]
pub(crate) fn unpack_block_simd(level: SimdLevel, input: &[u8], width: u8, dst: &mut [u32]) {
    debug_assert!((1..=32).contains(&width));
    debug_assert!(input.len() >= width as usize * BLOCK_LEN / 8);
    debug_assert_eq!(dst.len(), BLOCK_LEN);
    let width = width as usize;
    match width {
        4 => x86::unpack_w4(input, dst),
        8 => x86::unpack_w8(input, dst),
        16 => x86::unpack_w16(input, dst),
        32 => x86::unpack_w32(input, dst),
        1..=25 if level >= SimdLevel::Avx2 => {
            // SAFETY: the dispatcher only passes Avx2 when
            // `supported_levels()` includes it (runtime-detected).
            unsafe { x86::unpack_gather_avx2(input, width, dst) }
        }
        _ => x86::unpack_generic(input, width, dst, 0),
    }
}

/// Whether [`prefix_sum_checked`] could possibly run for a slice of
/// `len` — callers that must stage data before the sum (e.g.
/// [`crate::delta::decode_deltas_into`]) use this to skip the staging
/// copy when the scalar loop is going to run anyway.
pub(crate) fn prefix_sum_viable(len: usize) -> bool {
    cfg!(target_arch = "x86_64") && len >= 8 && active_level() > SimdLevel::Scalar
}

/// In-place wrapping prefix sum over `values` (carry-in 0) **iff** SIMD
/// is active and a read-only `u64` total proves no step can overflow
/// `u32`. Returns `false` without touching `values` otherwise — the
/// caller's scalar path then reproduces the oracle's exact error
/// position and partial-output state on corrupt input.
pub(crate) fn prefix_sum_checked(values: &mut [u32]) -> bool {
    prefix_sum_checked_at(active_level(), values)
}

/// [`prefix_sum_checked`] at an explicit kernel tier (test/bench hook).
pub(crate) fn prefix_sum_checked_at(level: SimdLevel, values: &mut [u32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // Below ~2 vectors the setup + total pass costs more than it saves.
        if level >= SimdLevel::Sse2 && values.len() >= 8 {
            let total: u64 = values.iter().map(|&v| v as u64).sum();
            if total <= u32::MAX as u64 {
                // Gaps are non-negative, so partial sums are monotone in
                // u64: total fitting u32 ⟺ every prefix fits u32.
                x86::prefix_sum_sse2(values, 0);
                return true;
            }
            return false;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = level;
    let _ = values;
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The kernels proper. Every `unsafe` block states which bound makes
    //! its loads/stores in-range; SSE2 needs no feature check (x86-64
    //! baseline), AVX2 entry points are `target_feature`-gated and only
    //! reached through runtime detection.
    #![deny(unsafe_op_in_unsafe_fn)]

    use core::arch::x86_64::*;

    /// Widen 16 packed bytes to 16 `u32` at `dst` (LSB-first order).
    ///
    /// # Safety
    ///
    /// `dst` must point at ≥ 16 writable `u32` slots.
    #[inline]
    unsafe fn store_widened_bytes(b: __m128i, dst: *mut u32) {
        // SAFETY: stores cover dst[0..16], guaranteed writable by the
        // caller; SSE2 is baseline on x86-64.
        unsafe {
            let zero = _mm_setzero_si128();
            let lo = _mm_unpacklo_epi8(b, zero);
            let hi = _mm_unpackhi_epi8(b, zero);
            _mm_storeu_si128(dst.cast(), _mm_unpacklo_epi16(lo, zero));
            _mm_storeu_si128(dst.add(4).cast(), _mm_unpackhi_epi16(lo, zero));
            _mm_storeu_si128(dst.add(8).cast(), _mm_unpacklo_epi16(hi, zero));
            _mm_storeu_si128(dst.add(12).cast(), _mm_unpackhi_epi16(hi, zero));
        }
    }

    /// Width-4 block: each byte holds two nibbles, low nibble first.
    pub(super) fn unpack_w4(input: &[u8], dst: &mut [u32]) {
        assert!(input.len() >= 64 && dst.len() == 128);
        // SAFETY: loads stay in input[..64] and stores in dst[..128]
        // (asserted above); SSE2 is baseline on x86-64.
        unsafe {
            let nib = _mm_set1_epi8(0x0f);
            for g in 0..4 {
                let b = _mm_loadu_si128(input.as_ptr().add(g * 16).cast());
                let lo = _mm_and_si128(b, nib);
                let hi = _mm_and_si128(_mm_srli_epi16::<4>(b), nib);
                // Interleave to [lo0, hi0, lo1, hi1, ...] — the LSB-first
                // value order within each byte.
                let d = dst.as_mut_ptr().add(g * 32);
                store_widened_bytes(_mm_unpacklo_epi8(lo, hi), d);
                store_widened_bytes(_mm_unpackhi_epi8(lo, hi), d.add(16));
            }
        }
    }

    /// Width-8 block: one byte per value.
    pub(super) fn unpack_w8(input: &[u8], dst: &mut [u32]) {
        assert!(input.len() >= 128 && dst.len() == 128);
        // SAFETY: loads stay in input[..128] and stores in dst[..128]
        // (asserted above); SSE2 is baseline on x86-64.
        unsafe {
            for g in 0..8 {
                let b = _mm_loadu_si128(input.as_ptr().add(g * 16).cast());
                store_widened_bytes(b, dst.as_mut_ptr().add(g * 16));
            }
        }
    }

    /// Width-16 block: one little-endian `u16` per value.
    pub(super) fn unpack_w16(input: &[u8], dst: &mut [u32]) {
        assert!(input.len() >= 256 && dst.len() == 128);
        // SAFETY: loads stay in input[..256] and stores in dst[..128]
        // (asserted above); SSE2 is baseline on x86-64.
        unsafe {
            let zero = _mm_setzero_si128();
            for g in 0..16 {
                let b = _mm_loadu_si128(input.as_ptr().add(g * 16).cast());
                let d = dst.as_mut_ptr().add(g * 8);
                _mm_storeu_si128(d.cast(), _mm_unpacklo_epi16(b, zero));
                _mm_storeu_si128(d.add(4).cast(), _mm_unpackhi_epi16(b, zero));
            }
        }
    }

    /// Width-32 block: a straight little-endian copy.
    pub(super) fn unpack_w32(input: &[u8], dst: &mut [u32]) {
        for (slot, ch) in dst.iter_mut().zip(input.chunks_exact(4)) {
            *slot = u32::from_le_bytes(ch.try_into().expect("chunks_exact(4)"));
        }
    }

    /// Generic shift/mask unpack of `dst[from..]` (value `j` occupies
    /// bits `j*width .. (j+1)*width` of `input`, LSB-first): a
    /// branch-free unaligned `u64` load per value — `shift ≤ 7` plus
    /// `width ≤ 32` always fit in one 64-bit window. Values whose 8-byte
    /// window would overrun `input` (only possible near the end of a
    /// segment's last block) take a zero-padded buffered load instead.
    pub(super) fn unpack_generic(input: &[u8], width: usize, dst: &mut [u32], from: usize) {
        debug_assert!((1..=32).contains(&width));
        let byte_len = width * dst.len() / 8;
        debug_assert!(input.len() >= byte_len);
        let mask: u64 = if width == 32 { u32::MAX as u64 } else { (1u64 << width) - 1 };
        // Largest value count whose 8-byte window fits the *full* input
        // slice (blocks are usually mid-stream, so trailing bytes of the
        // next block make every window fit).
        let safe = if input.len() >= 8 {
            (((input.len() - 8) * 8 + 7) / width + 1).min(dst.len())
        } else {
            0
        };
        let base = input.as_ptr();
        for (j, slot) in dst.iter_mut().enumerate().skip(from) {
            let bit = j * width;
            let word = if j < safe {
                // SAFETY: `j < safe` ⇒ bit/8 + 8 ≤ input.len(), so the
                // unaligned 8-byte read stays inside `input`.
                unsafe { base.add(bit / 8).cast::<u64>().read_unaligned() }
            } else {
                // Tail: assemble the window from the ≤ 8 in-frame bytes
                // (value j's bits end before byte_len, so the zero pad
                // is never read through the mask).
                let byte = bit / 8;
                let mut tmp = [0u8; 8];
                let n = (byte_len - byte).min(8);
                tmp[..n].copy_from_slice(&input[byte..byte + n]);
                u64::from_le_bytes(tmp)
            };
            *slot = ((word >> (bit % 8)) & mask) as u32;
        }
    }

    /// AVX2 gather unpack for widths 1..=25: every group of 8 values
    /// spans exactly `width` bytes, so per-group byte offsets and bit
    /// shifts are constants — one gather + variable shift + mask per 8
    /// values. Lane shifts peak at 7, and `7 + width ≤ 32` for
    /// `width ≤ 25`, so a 4-byte gather window always holds a full
    /// value.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (runtime-detected by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn unpack_gather_avx2(input: &[u8], width: usize, dst: &mut [u32]) {
        debug_assert!((1..=25).contains(&width));
        debug_assert_eq!(dst.len() % 8, 0);
        let mut offs = [0i32; 8];
        let mut shifts = [0i32; 8];
        for l in 0..8 {
            offs[l] = ((l * width) / 8) as i32;
            shifts[l] = ((l * width) % 8) as i32;
        }
        // Furthest byte any lane's 4-byte window reaches past a group's
        // base; groups beyond `safe_groups` would read past `input` and
        // fall back to the buffered generic path instead.
        let lane_end = offs[7] as usize + 4;
        let groups = dst.len() / 8;
        let safe_groups = match input.len().checked_sub(lane_end) {
            Some(limit) => (limit / width + 1).min(groups),
            None => 0,
        };
        // SAFETY: AVX2 is guaranteed by the caller ([`target_feature`]
        // covers the intrinsics); group g's furthest load is 4 bytes at
        // `g*width + offs[7]` and `g*width + lane_end ≤ input.len()` for
        // every `g < safe_groups`; stores cover dst[..safe_groups*8].
        unsafe {
            let mask = _mm256_set1_epi32(((1u32 << width) - 1) as i32);
            let voff = _mm256_loadu_si256(offs.as_ptr().cast());
            let vshift = _mm256_loadu_si256(shifts.as_ptr().cast());
            for g in 0..safe_groups {
                let base = input.as_ptr().add(g * width);
                let v = _mm256_i32gather_epi32::<1>(base.cast(), voff);
                let v = _mm256_srlv_epi32(v, vshift);
                let v = _mm256_and_si256(v, mask);
                _mm256_storeu_si256(dst.as_mut_ptr().add(g * 8).cast(), v);
            }
        }
        if safe_groups < groups {
            unpack_generic(input, width, dst, safe_groups * 8);
        }
    }

    /// In-place wrapping prefix sum with carry-in (the caller proved no
    /// overflow for valid data; wrapping keeps corrupt data well-defined
    /// until the scalar recheck).
    pub(super) fn prefix_sum_sse2(values: &mut [u32], carry_in: u32) {
        // SAFETY: loads/stores walk 4-lane chunks inside `values`
        // (`vec_len ≤ values.len()`); SSE2 is baseline on x86-64.
        let vec_len = values.len() & !3;
        let mut carry = unsafe {
            let mut vcarry = _mm_set1_epi32(carry_in as i32);
            let ptr = values.as_mut_ptr();
            let mut i = 0;
            while i < vec_len {
                let p = ptr.add(i).cast::<__m128i>();
                let mut x = _mm_loadu_si128(p);
                // Hillis–Steele within the vector: after two steps lane
                // l holds v[i..=i+l]'s sum; add the running carry.
                x = _mm_add_epi32(x, _mm_slli_si128::<4>(x));
                x = _mm_add_epi32(x, _mm_slli_si128::<8>(x));
                x = _mm_add_epi32(x, vcarry);
                _mm_storeu_si128(p, x);
                vcarry = _mm_shuffle_epi32::<0xFF>(x);
                i += 4;
            }
            _mm_cvtsi128_si32(vcarry) as u32
        };
        for v in &mut values[vec_len..] {
            carry = carry.wrapping_add(*v);
            *v = carry;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_levels_start_at_scalar_and_ascend() {
        let levels = supported_levels();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn clamp_never_exceeds_support() {
        for &level in &[SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
            let clamped = clamp_supported(level);
            assert!(clamped <= level);
            assert!(supported_levels().contains(&clamped));
        }
    }

    #[test]
    fn active_level_is_supported() {
        assert!(supported_levels().contains(&active_level()));
    }

    #[test]
    fn level_names_roundtrip() {
        for &level in &[SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
            assert_eq!(SimdLevel::parse(level.name()), Some(level));
        }
        assert_eq!(SimdLevel::parse("neon"), None);
    }

    #[test]
    fn prefix_sum_checked_matches_scalar_when_it_runs() {
        let gaps: Vec<u32> = (0..257).map(|i| (i * 2_654_435_761u64 % 977) as u32).collect();
        for &level in supported_levels() {
            let mut work = gaps.clone();
            let ran = prefix_sum_checked_at(level, &mut work);
            if level == SimdLevel::Scalar {
                assert!(!ran, "scalar tier must leave the input to the oracle loop");
                continue;
            }
            #[cfg(target_arch = "x86_64")]
            {
                assert!(ran);
                let mut oracle = gaps.clone();
                let mut acc = 0u32;
                for v in oracle.iter_mut() {
                    acc += *v;
                    *v = acc;
                }
                assert_eq!(work, oracle, "{}", level.name());
            }
        }
    }

    #[test]
    fn prefix_sum_checked_refuses_overflow_untouched() {
        let gaps = vec![u32::MAX, 1, 2, 3, 4, 5, 6, 7, 8];
        for &level in supported_levels() {
            let mut work = gaps.clone();
            assert!(!prefix_sum_checked_at(level, &mut work), "{}", level.name());
            assert_eq!(work, gaps, "refusal must not mutate ({})", level.name());
        }
    }
}
