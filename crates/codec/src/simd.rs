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
//! * **Segmented scan** (AVX2) for a columnar inverted-list block's
//!   tagged id stream ([`scan_tagged_gaps`]): a prefix sum that restarts
//!   at every list-start tag and left-packs the start positions into
//!   the list offsets, eight values per step.
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
use std::mem::MaybeUninit;
use std::sync::OnceLock;

/// Instruction-set tier a decode kernel may use. Ordered: a level
/// implies every lower one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar code — the oracle every kernel is tested against.
    Scalar,
    /// SSE2 (baseline on x86-64): per-width unpack + prefix sum.
    Sse2,
    /// AVX2 (+ POPCNT): adds the gather-based generic unpack and the
    /// segmented tagged-gap scan.
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
        // SSE2 is part of the x86-64 baseline; only AVX2 needs a check
        // (with POPCNT, which the scan kernel counts list starts with
        // and every AVX2 CPU has).
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("popcnt")
        {
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
/// caller) into `dst` with the given kernel tier. Every kernel writes
/// every slot of `dst` and reads none.
///
/// `level` must be supported (callers go through [`clamp_supported`] or
/// [`active_level`]); [`SimdLevel::Scalar`] must be handled by the
/// caller (this function is only compiled/called on x86-64).
#[cfg(target_arch = "x86_64")]
pub(crate) fn unpack_block_simd(
    level: SimdLevel,
    input: &[u8],
    width: u8,
    dst: &mut [MaybeUninit<u32>],
) {
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

/// Finish a tagged-gap stream in place: the id column of a columnar
/// inverted-list block, all lists back to back. A value with bit 0 set
/// starts a list and carries that list's first id in its upper 31 bits;
/// a value with bit 0 clear carries the gap to the id before it.
///
/// On return `ids[i]` is the absolute id, `offsets[l]` the position of
/// list `l`'s first id and the last slot `ids.len()` — a CSR over the
/// `offsets.len() - 1` lists the caller expects. Returns the bitwise or
/// of every id (how the caller bounds them all at once), or `None` when
/// the stream does not hold exactly that many start tags; `ids` and
/// `offsets` are then left in an unspecified state. The caller checks
/// that `ids[0]` is tagged — with an untagged first value the offsets
/// are meaningless, though never out of bounds.
///
/// `level` picks the kernel tier — [`active_level`] on the decode path,
/// each of [`supported_levels`] in the tests that hold the tiers equal;
/// a tier the CPU lacks clamps to the best it has.
///
/// # Panics
///
/// Panics if `offsets` is empty or `ids` holds more than `u32::MAX`
/// values.
pub fn scan_tagged_gaps(level: SimdLevel, ids: &mut [u32], offsets: &mut [u32]) -> Option<u32> {
    assert!(!offsets.is_empty(), "offsets holds a closing boundary");
    assert!(u32::try_from(ids.len()).is_ok(), "positions are u32");
    #[cfg(target_arch = "x86_64")]
    if clamp_supported(level) >= SimdLevel::Avx2 {
        // SAFETY: `clamp_supported` only returns Avx2 when
        // `supported_levels()` detected AVX2 and POPCNT on this CPU.
        return unsafe { x86::scan_tagged_gaps_avx2(ids, offsets) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = level;
    scan_tagged_gaps_scalar(ids, offsets)
}

/// The `Scalar` / `Sse2` tier of [`scan_tagged_gaps`], and the oracle
/// the AVX2 kernel is tested against.
fn scan_tagged_gaps_scalar(ids: &mut [u32], offsets: &mut [u32]) -> Option<u32> {
    let n_lists = offsets.len() - 1;
    let starts = ids.iter().filter(|&&tagged| tagged & 1 == 1).count();
    if starts != n_lists {
        return None;
    }
    // One pass, no data-dependent branch: every id writes its position
    // into the slot of the next list to start (a list start then moves
    // on, so a slot keeps its own list's first position; the last slot
    // is set below) and restarts or continues the running sum under a
    // mask.
    let (mut list, mut acc, mut seen_bits) = (0usize, 0u32, 0u32);
    for (pos, id) in ids.iter_mut().enumerate() {
        let (start, gap) = (*id & 1, *id >> 1);
        offsets[list] = pos as u32;
        list += start as usize;
        acc = gap.wrapping_add(acc & start.wrapping_sub(1));
        seen_bits |= acc;
        *id = acc;
    }
    offsets[n_lists] = ids.len() as u32;
    Some(seen_bits)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The kernels proper. Every `unsafe` block states which bound makes
    //! its loads/stores in-range; SSE2 needs no feature check (x86-64
    //! baseline), AVX2 entry points are `target_feature`-gated and only
    //! reached through runtime detection.
    #![deny(unsafe_op_in_unsafe_fn)]

    use core::arch::x86_64::*;
    use std::mem::MaybeUninit;

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
    pub(super) fn unpack_w4(input: &[u8], dst: &mut [MaybeUninit<u32>]) {
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
                let d = dst.as_mut_ptr().cast::<u32>().add(g * 32);
                store_widened_bytes(_mm_unpacklo_epi8(lo, hi), d);
                store_widened_bytes(_mm_unpackhi_epi8(lo, hi), d.add(16));
            }
        }
    }

    /// Width-8 block: one byte per value.
    pub(super) fn unpack_w8(input: &[u8], dst: &mut [MaybeUninit<u32>]) {
        assert!(input.len() >= 128 && dst.len() == 128);
        // SAFETY: loads stay in input[..128] and stores in dst[..128]
        // (asserted above); SSE2 is baseline on x86-64.
        unsafe {
            for g in 0..8 {
                let b = _mm_loadu_si128(input.as_ptr().add(g * 16).cast());
                store_widened_bytes(b, dst.as_mut_ptr().cast::<u32>().add(g * 16));
            }
        }
    }

    /// Width-16 block: one little-endian `u16` per value.
    pub(super) fn unpack_w16(input: &[u8], dst: &mut [MaybeUninit<u32>]) {
        assert!(input.len() >= 256 && dst.len() == 128);
        // SAFETY: loads stay in input[..256] and stores in dst[..128]
        // (asserted above); SSE2 is baseline on x86-64.
        unsafe {
            let zero = _mm_setzero_si128();
            for g in 0..16 {
                let b = _mm_loadu_si128(input.as_ptr().add(g * 16).cast());
                let d = dst.as_mut_ptr().cast::<u32>().add(g * 8);
                _mm_storeu_si128(d.cast(), _mm_unpacklo_epi16(b, zero));
                _mm_storeu_si128(d.add(4).cast(), _mm_unpackhi_epi16(b, zero));
            }
        }
    }

    /// Width-32 block: a straight little-endian copy.
    pub(super) fn unpack_w32(input: &[u8], dst: &mut [MaybeUninit<u32>]) {
        assert!(input.len() >= dst.len() * 4);
        for (slot, ch) in dst.iter_mut().zip(input.chunks_exact(4)) {
            slot.write(u32::from_le_bytes(ch.try_into().expect("chunks_exact(4)")));
        }
    }

    /// Generic shift/mask unpack of `dst[from..]` (value `j` occupies
    /// bits `j*width .. (j+1)*width` of `input`, LSB-first): a
    /// branch-free unaligned `u64` load per value — `shift ≤ 7` plus
    /// `width ≤ 32` always fit in one 64-bit window. Values whose 8-byte
    /// window would overrun `input` (only possible near the end of a
    /// segment's last block) take a zero-padded buffered load instead.
    pub(super) fn unpack_generic(
        input: &[u8],
        width: usize,
        dst: &mut [MaybeUninit<u32>],
        from: usize,
    ) {
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
            slot.write(((word >> (bit % 8)) & mask) as u32);
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
    pub(super) unsafe fn unpack_gather_avx2(
        input: &[u8],
        width: usize,
        dst: &mut [MaybeUninit<u32>],
    ) {
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

    /// `LEFT_PACK[bits]` lists the set bits of `bits`, ascending: the
    /// lane permutation that moves the flagged lanes of a vector to its
    /// front (8 KiB).
    static LEFT_PACK: [[u32; 8]; 256] = {
        let mut table = [[0u32; 8]; 256];
        let mut bits = 0;
        while bits < 256 {
            let (mut lane, mut out) = (0, 0);
            while lane < 8 {
                if bits >> lane & 1 == 1 {
                    table[bits][out] = lane as u32;
                    out += 1;
                }
                lane += 1;
            }
            bits += 1;
        }
        table
    };

    /// AVX2 tier of [`super::scan_tagged_gaps`]: an 8-lane segmented
    /// inclusive scan. Within each 128-bit half two shift / and-not /
    /// add steps sum every lane back to the nearest list start, a third
    /// carries the low half's total into the high half, and lane 7 of
    /// the previous vector is added to the lanes no start precedes.
    /// The start tags' `movemask` selects a [`LEFT_PACK`] row that moves
    /// the start positions to the front of one 8-lane store into
    /// `offsets`; their `popcnt` advances the list cursor. The last
    /// `ids.len() % 8` values take a scalar step each.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and POPCNT (runtime-detected by the
    /// dispatcher).
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) unsafe fn scan_tagged_gaps_avx2(
        ids: &mut [u32],
        offsets: &mut [u32],
    ) -> Option<u32> {
        let n_lists = offsets.len() - 1;
        let vec_len = ids.len() & !7;
        let one = _mm256_set1_epi32(1);
        let low_half = _mm256_setr_epi32(-1, -1, -1, -1, 0, 0, 0, 0);
        let lane3 = _mm256_set1_epi32(3);
        let lane7 = _mm256_set1_epi32(7);
        let mut positions = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut carry = _mm256_setzero_si256();
        let mut seen = _mm256_setzero_si256();
        let mut list = 0usize;
        for group in ids[..vec_len].chunks_exact_mut(8) {
            // SAFETY: `group` is exactly 8 `u32`s; the load is unaligned.
            let x = unsafe { _mm256_loadu_si256(group.as_ptr().cast()) };
            let starts = _mm256_cmpeq_epi32(_mm256_and_si256(x, one), one);
            let mut v = _mm256_srli_epi32::<1>(x);
            // `m`: a list starts at or before this lane (within the
            // lanes summed so far), so nothing further back is added.
            let mut m = starts;
            v = _mm256_add_epi32(v, _mm256_andnot_si256(m, _mm256_slli_si256::<4>(v)));
            m = _mm256_or_si256(m, _mm256_slli_si256::<4>(m));
            v = _mm256_add_epi32(v, _mm256_andnot_si256(m, _mm256_slli_si256::<8>(v)));
            m = _mm256_or_si256(m, _mm256_slli_si256::<8>(m));
            // Low half's total (lane 3) into the high half.
            let across = _mm256_permutevar8x32_epi32(v, lane3);
            v = _mm256_add_epi32(v, _mm256_andnot_si256(_mm256_or_si256(m, low_half), across));
            let m_across = _mm256_andnot_si256(low_half, _mm256_permutevar8x32_epi32(m, lane3));
            m = _mm256_or_si256(m, m_across);
            v = _mm256_add_epi32(v, _mm256_andnot_si256(m, carry));
            // SAFETY: `group` is exactly 8 writable `u32`s.
            unsafe { _mm256_storeu_si256(group.as_mut_ptr().cast(), v) };
            seen = _mm256_or_si256(seen, v);
            carry = _mm256_permutevar8x32_epi32(v, lane7);

            let bits = _mm256_movemask_ps(_mm256_castsi256_ps(starts)) as usize;
            let count = bits.count_ones() as usize;
            if list + count > n_lists {
                return None; // more start tags than lists: refuse before the store
            }
            // SAFETY: `bits < 256` (eight mask bits) and every row holds
            // 8 `u32`s.
            let row = unsafe { _mm256_loadu_si256(LEFT_PACK[bits].as_ptr().cast()) };
            let packed = _mm256_permutevar8x32_epi32(positions, row);
            match offsets.get_mut(list..list + 8) {
                // SAFETY: `slots` is exactly 8 writable `u32`s inside
                // `offsets`; lanes past `count` are overwritten by later
                // starts or by the closing boundary.
                Some(slots) => unsafe { _mm256_storeu_si256(slots.as_mut_ptr().cast(), packed) },
                // Fewer than 8 slots left: copy the `count` real lanes.
                None => {
                    let mut lanes = [0u32; 8];
                    // SAFETY: `lanes` is exactly 8 writable `u32`s.
                    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), packed) };
                    offsets[list..list + count].copy_from_slice(&lanes[..count]);
                }
            }
            list += count;
            positions = _mm256_add_epi32(positions, _mm256_set1_epi32(8));
        }

        let mut lanes = [0u32; 8];
        // SAFETY: `lanes` is exactly 8 writable `u32`s.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), seen) };
        let mut seen_bits = lanes.iter().fold(0, |all, &lane| all | lane);
        let mut acc = _mm256_extract_epi32::<0>(carry) as u32;
        for (pos, id) in ids.iter_mut().enumerate().skip(vec_len) {
            let (start, gap) = (*id & 1, *id >> 1);
            if start == 1 {
                *offsets[..n_lists].get_mut(list)? = pos as u32;
                list += 1;
            }
            acc = gap.wrapping_add(acc & start.wrapping_sub(1));
            seen_bits |= acc;
            *id = acc;
        }
        if list != n_lists {
            return None;
        }
        offsets[n_lists] = ids.len() as u32;
        Some(seen_bits)
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

    /// Tagged stream of the given lists (each non-empty, ascending).
    fn tagged(lists: &[Vec<u32>]) -> Vec<u32> {
        let mut out = Vec::new();
        for list in lists {
            out.push(list[0] << 1 | 1);
            out.extend(list.windows(2).map(|w| (w[1] - w[0]) << 1));
        }
        out
    }

    /// `count` lists whose lengths cycle through `lens`.
    fn lists_of(count: usize, lens: &[usize]) -> Vec<Vec<u32>> {
        (0..count)
            .map(|l| {
                let first = (l * 37 % 101) as u32;
                (0..lens[l % lens.len()]).map(|j| first + (j * (l % 5 + 1)) as u32).collect()
            })
            .collect()
    }

    #[test]
    fn tagged_gap_scan_rebuilds_lists_on_every_tier() {
        // Singletons (a start in every lane), long runs (no start for
        // whole vectors), mixes, and every tail length 0..8.
        for lens in [&[1][..], &[2], &[40], &[1, 9, 2, 17, 3], &[8], &[7, 1]] {
            for count in [0usize, 1, 2, 7, 8, 9, 31, 64] {
                let lists = lists_of(count, lens);
                let stream = tagged(&lists);
                for &level in supported_levels() {
                    let mut ids = stream.clone();
                    let mut offsets = vec![u32::MAX; count + 1];
                    let seen = scan_tagged_gaps(level, &mut ids, &mut offsets)
                        .unwrap_or_else(|| panic!("{} {lens:?} x {count}", level.name()));
                    assert_eq!(ids, lists.concat(), "{} {lens:?} x {count}", level.name());
                    assert_eq!(seen, ids.iter().fold(0, |all, &id| all | id));
                    let mut at = 0u32;
                    for (l, list) in lists.iter().enumerate() {
                        assert_eq!(offsets[l], at, "{} list {l}", level.name());
                        at += list.len() as u32;
                    }
                    assert_eq!(offsets[count], at);
                }
            }
        }
    }

    #[test]
    fn tagged_gap_scan_refuses_a_wrong_list_count_inside_its_slice() {
        const CANARY: u32 = 0xDEAD_BEEF;
        let stream = tagged(&lists_of(40, &[1, 3, 1, 1, 12]));
        for &level in supported_levels() {
            // Fewer slots than start tags (down to none at all), and more.
            for claimed in [0usize, 1, 7, 8, 39, 41, 48, 200] {
                let mut ids = stream.clone();
                let mut fenced = vec![CANARY; claimed + 1 + 16];
                let verdict = scan_tagged_gaps(level, &mut ids, &mut fenced[..claimed + 1]);
                assert_eq!(verdict, None, "{} claimed {claimed}", level.name());
                assert!(
                    fenced[claimed + 1..].iter().all(|&w| w == CANARY),
                    "{} claimed {claimed}: wrote past offsets",
                    level.name()
                );
            }
        }
    }
}
