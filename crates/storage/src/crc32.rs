//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`): carry-less-multiply
//! folding where the CPU has it, slicing-by-8 tables everywhere else.
//!
//! Every segment block stores a checksum so that bit rot or a bad partial
//! write is detected at read time rather than decoded into a corrupt index.
//! The `file` backend re-verifies a block on every read, so on a cold
//! request the checksum sees every byte the decoder sees. Two kernels
//! compute the same value ([`Kernel`]):
//!
//! * **`clmul`** (x86-64 with PCLMULQDQ): four 128-bit accumulators fold
//!   64 input bytes per step with `_mm_clmulepi64_si128`, then 4 × 128 →
//!   128 → 64 bits and a Barrett reduction to the 32-bit state. Measured
//!   on the benchmark fixture's 244 KB `il` blocks (2-vCPU VM): ≈ 21 GB/s,
//!   ≈ 12 µs a block.
//! * **`table`** (slicing-by-8, 8 KiB of tables): eight lookups fold
//!   eight bytes per step. Measured on the same blocks: ≈ 1.4 GB/s,
//!   ≈ 175 µs a block. It is the whole kernel on other CPUs and under
//!   `KBTIM_SIMD=scalar`, and finishes the < 64-byte remainder the
//!   folding loop leaves.
//!
//! The kernel is chosen once per process ([`active_kernel`]); both take and
//! return the raw (un-inverted) state, so a [`Crc32`] may cross kernels
//! between `update` calls and a stream split anywhere yields the same
//! value.

use std::sync::OnceLock;

/// `TABLES[0]` is the classic bytewise table for the reflected IEEE
/// polynomial; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which lets one step consume eight bytes (8 KiB in total).
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Which implementation [`Crc32::update`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Slicing-by-8 table lookups — portable, and the oracle's family.
    Table,
    /// PCLMULQDQ folding, 64 bytes per step (x86-64 only).
    Clmul,
}

impl Kernel {
    /// Stable lowercase name (what the `kernels:` banner clause prints).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Table => "table",
            Kernel::Clmul => "clmul",
        }
    }
}

/// The kernel every checksum in this process uses: [`Kernel::Clmul`]
/// when the CPU reports PCLMULQDQ, unless `KBTIM_SIMD=scalar` (the knob
/// that also caps the codec's kernels) forces the table path. Decided
/// once and cached.
pub fn active_kernel() -> Kernel {
    static ACTIVE: OnceLock<Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let capped = std::env::var("KBTIM_SIMD").is_ok_and(|s| s == "scalar");
        if clmul_supported() && !capped {
            Kernel::Clmul
        } else {
            Kernel::Table
        }
    })
}

fn clmul_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("pclmulqdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Advance the raw state `crc` over `data`, eight bytes per step.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = t[0][((crc ^ byte as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    crc
}

/// Advance the raw state `crc` over `data` with `kernel`. A
/// [`Kernel::Clmul`] request on a CPU without PCLMULQDQ runs the table
/// kernel instead — same value, and the dispatch can never reach an
/// instruction the host lacks.
fn update_with(kernel: Kernel, crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Clmul && data.len() >= x86::FOLD_BYTES && clmul_supported() {
        let folded = data.len() - data.len() % x86::FOLD_BYTES;
        // SAFETY: `clmul_supported()` just reported PCLMULQDQ on this
        // CPU (SSE2 is part of the x86-64 baseline).
        let crc = unsafe { x86::fold_clmul(crc, &data[..folded]) };
        return update_table(crc, &data[folded..]);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = kernel;
    update_table(crc, data)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The folding kernel, after Gopal et al., *Fast CRC Computation for
    //! Generic Polynomials Using PCLMULQDQ* (Intel, 2009), in the
    //! bit-reflected form zlib uses.
    #![deny(unsafe_op_in_unsafe_fn)]

    use core::arch::x86_64::*;

    /// Bytes one folding step consumes: four 128-bit lanes.
    pub(super) const FOLD_BYTES: usize = 64;

    // x^n mod P(x) for the distances the folds bridge, bit-reflected and
    // shifted left by one as the reflected multiply needs.
    /// Fold across 512 bits (the four-lane stride).
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold across 128 bits (lane into lane).
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// 96 → 64 bits.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial P(x) and the Barrett constant µ = ⌊x^64 / P(x)⌋.
    const POLY: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Advance the raw CRC state `crc` over `data`.
    ///
    /// `data.len()` must be a non-zero multiple of [`FOLD_BYTES`]
    /// (asserted).
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ (runtime-detected by the caller).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn fold_clmul(crc: u32, data: &[u8]) -> u32 {
        assert!(!data.is_empty() && data.len().is_multiple_of(FOLD_BYTES));
        let mut blocks = data.chunks_exact(FOLD_BYTES);
        // `lane * k` for both halves of the key pair, summed: the lane
        // moved forward by the distance the pair encodes. (Register-only
        // intrinsics are safe to call here: this fn enables their
        // features.)
        let fold = |lane: __m128i, k: __m128i| -> __m128i {
            _mm_xor_si128(
                _mm_clmulepi64_si128::<0x00>(lane, k),
                _mm_clmulepi64_si128::<0x11>(lane, k),
            )
        };
        let load = |block: &[u8], lane: usize| -> __m128i {
            let bytes = &block[lane * 16..lane * 16 + 16];
            // SAFETY: `bytes` is a bounds-checked 16-byte slice and the
            // load is unaligned; SSE2 is baseline on x86-64.
            unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
        };
        let first = blocks.next().expect("asserted non-empty");
        let mut x = [load(first, 0), load(first, 1), load(first, 2), load(first, 3)];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in blocks {
            for (lane, acc) in x.iter_mut().enumerate() {
                *acc = _mm_xor_si128(fold(*acc, k1k2), load(block, lane));
            }
        }

        // Four lanes into one.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = x[0];
        for &next in &x[1..] {
            acc = _mm_xor_si128(fold(acc, k3k4), next);
        }

        // 128 → 64 bits.
        let low32 = _mm_set_epi32(0, -1, 0, -1);
        let mut r =
            _mm_xor_si128(_mm_srli_si128::<8>(acc), _mm_clmulepi64_si128::<0x10>(acc, k3k4));
        r = _mm_xor_si128(
            _mm_srli_si128::<4>(r),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(r, low32), _mm_set_epi64x(0, K5)),
        );

        // Barrett reduction to the 32-bit state.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(r, low32), poly_mu);
        t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly_mu);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(r, t))) as u32
    }
}

/// Streaming CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update_with(active_kernel(), self.state, data);
    }

    /// Finish and return the checksum value.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot checksum of a byte slice.
pub fn checksum(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KERNELS: [Kernel; 2] = [Kernel::Table, Kernel::Clmul];

    /// The one-byte-per-step table walk both kernels replaced — kept as
    /// the reference they must agree with.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc = TABLES[0][((crc ^ byte as u32) & 0xff) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    /// One-shot checksum through a named kernel (no env var needed to
    /// reach the table path on a CLMUL host).
    fn checksum_with(kernel: Kernel, data: &[u8]) -> u32 {
        streamed_with(kernel, data, &[])
    }

    /// `data` fed to `kernel` in pieces cut at `cuts` (ascending).
    fn streamed_with(kernel: Kernel, data: &[u8], cuts: &[usize]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        let mut from = 0;
        for &cut in cuts.iter().chain([&data.len()]) {
            state = update_with(kernel, state, &data[from..cut]);
            from = cut;
        }
        state ^ 0xFFFF_FFFF
    }

    /// Deterministic filler with no short period.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn the_host_kernel_is_what_the_dispatch_reports() {
        // Holds under any `KBTIM_SIMD` cap: the cap only ever lowers.
        assert!(active_kernel() == Kernel::Table || clmul_supported());
        assert_eq!(Kernel::Table.name(), "table");
        assert_eq!(Kernel::Clmul.name(), "clmul");
    }

    #[test]
    fn known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        for (input, want) in [
            (&b""[..], 0x0000_0000u32),
            (b"a", 0xE8B7_BE43),
            (b"abc", 0x3524_41C2),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ] {
            assert_eq!(checksum(input), want);
            assert_eq!(bytewise(input), want);
            for kernel in KERNELS {
                assert_eq!(checksum_with(kernel, input), want, "{}", kernel.name());
                // The same vector behind a whole fold of zeros' worth of
                // prefix exercises the folding loop on it too.
                let mut long = noise(128);
                long.extend_from_slice(input);
                assert_eq!(checksum_with(kernel, &long), bytewise(&long), "{}", kernel.name());
            }
        }
    }

    #[test]
    fn every_kernel_boundary_matches_bytewise() {
        let big = noise((1 << 20) + 77);
        let lengths = [0, 1, 15, 16, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097, (1 << 20) + 77];
        for len in lengths {
            let data = &big[..len];
            let want = bytewise(data);
            for kernel in KERNELS {
                assert_eq!(checksum_with(kernel, data), want, "{} len {len}", kernel.name());
            }
        }
    }

    #[test]
    fn streaming_splits_inside_a_lane_and_inside_a_fold() {
        let data = noise(64 * 5 + 9);
        let want = bytewise(&data);
        for kernel in KERNELS {
            for cuts in [
                &[7][..],               // inside the first 16-byte lane
                &[16 + 5],              // inside the second lane
                &[40],                  // inside the first 64-byte fold
                &[64],                  // exactly on a fold
                &[64 + 23, 64 * 3 + 1], // both pieces start mid-fold
                &[1, 2, 3, 200, 201],   // short heads, then a long run
                &[0, 0, 329, 329],      // empty updates
            ] {
                assert_eq!(
                    streamed_with(kernel, &data, cuts),
                    want,
                    "{} cuts {cuts:?}",
                    kernel.name()
                );
            }
            // A stream may change kernels between updates.
            let other = if kernel == Kernel::Table { Kernel::Clmul } else { Kernel::Table };
            let head = update_with(kernel, 0xFFFF_FFFF, &data[..150]);
            assert_eq!(update_with(other, head, &data[150..]) ^ 0xFFFF_FFFF, want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Both kernels ≡ bytewise for every length 0..4096 at every
        /// start offset within a 16-byte lane, and under arbitrary
        /// streaming splits (each `update` restarts the stride).
        #[test]
        fn sliced_matches_bytewise_reference(
            buf in proptest::collection::vec(any::<u8>(), 0..4112),
            splits in proptest::collection::vec(0usize..4096, 0..6),
        ) {
            for align in 0..16.min(buf.len() + 1) {
                let data = &buf[align..];
                let want = bytewise(data);
                prop_assert_eq!(checksum(data), want, "align {} len {}", align, data.len());

                let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
                cuts.sort_unstable();
                for kernel in KERNELS {
                    prop_assert_eq!(
                        checksum_with(kernel, data), want,
                        "{} align {} len {}", kernel.name(), align, data.len()
                    );
                    prop_assert_eq!(
                        streamed_with(kernel, data, &cuts), want,
                        "{} align {} streaming", kernel.name(), align
                    );
                }

                let mut streaming = Crc32::new();
                let mut from = 0;
                for cut in cuts.into_iter().chain([data.len()]) {
                    streaming.update(&data[from..cut]);
                    from = cut;
                }
                prop_assert_eq!(streaming.finalize(), want, "align {} streaming", align);
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        for kernel in KERNELS {
            let mut data = vec![0u8; 128];
            let base = checksum_with(kernel, &data);
            for byte in 0..data.len() {
                for bit in 0..8 {
                    data[byte] ^= 1 << bit;
                    assert_ne!(
                        checksum_with(kernel, &data),
                        base,
                        "{}: flip at {byte}:{bit} undetected",
                        kernel.name()
                    );
                    data[byte] ^= 1 << bit;
                }
            }
        }
    }
}
