//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), slicing-by-8.
//!
//! Every segment block stores a checksum so that bit rot or a bad partial
//! write is detected at read time rather than decoded into a corrupt index.
//! The `file` backend re-verifies a block on every read, so the checksum
//! runs at memory speed: eight table lookups fold eight input bytes per
//! step instead of one.

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
        let t = &TABLES;
        let mut crc = self.state;
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
        self.state = crc;
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

    /// The one-byte-per-step table walk the sliced kernel replaced —
    /// kept as the reference it must agree with.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc = TABLES[0][((crc ^ byte as u32) & 0xff) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
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
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Sliced ≡ bytewise for every length 0..4096 at every start
        /// offset within an 8-byte word, and under arbitrary streaming
        /// splits (each `update` restarts the 8-byte stride).
        #[test]
        fn sliced_matches_bytewise_reference(
            buf in proptest::collection::vec(any::<u8>(), 0..4104),
            splits in proptest::collection::vec(0usize..4096, 0..6),
        ) {
            for align in 0..8.min(buf.len() + 1) {
                let data = &buf[align..];
                let want = bytewise(data);
                prop_assert_eq!(checksum(data), want, "align {} len {}", align, data.len());

                let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
                cuts.sort_unstable();
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
        let mut data = vec![0u8; 128];
        let base = checksum(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(checksum(&data), base, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
