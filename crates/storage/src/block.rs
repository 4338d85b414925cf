//! The zero-copy serving tier: one [`BlockSource`] behind every query path.
//!
//! The paper charges every query for the bytes and positioned reads it
//! performs (Table 6, Figures 5–7), which the positioned-file
//! [`SegmentReader`] models faithfully — but a production serving tier
//! wants the opposite trade: segments whose pages the kernel already
//! caches should hand out **borrowed `&[u8]` views** of them instead of
//! copying every block into a fresh allocation. [`BlockSource`] is that
//! seam. It exposes the same named-block/range API as [`SegmentReader`]
//! over two backends selected by [`ServingMode`]:
//!
//! * [`ServingMode::File`] — the positioned-read path: every access
//!   copies into a buffer and is counted as read ops/bytes/seeks. The
//!   faithful-measurement backend.
//! * [`ServingMode::Mmap`] — a read-only `mmap(2)` of the file (Linux);
//!   block and range views borrow from the mapping, and accesses are
//!   counted as `cache_hits`/`bytes_served`, never as reads. Pages are
//!   shared with the kernel cache, so a disk index and its serving copy
//!   cost the bytes once. Where the mapping is unavailable (off Linux, or
//!   a refused `mmap`) the open degrades to `File`.
//!
//! Integrity: the `File` backend verifies a block's CRC on every
//! `read_block`. The `Mmap` backend verifies each block's CRC **once, on
//! first access** (block *or* range — range reads are therefore
//! checksummed here, which the file backend cannot do), and remembers the
//! verification in an atomic flag; a flipped byte anywhere in a block's
//! payload is rejected on both backends before any caller decodes it.
//! Segments are published by rename ([`crate::segment::SegmentWriter`]),
//! so a live mapping never sees its file rewritten under a verified flag.

use crate::cache::PageCache;
use crate::mmap::{MmapAdvice, MmapRegion};
use crate::segment::{parse_segment_slice, BlockEntry, BlockInfo, SegmentReader};
use crate::segment::{Result, StorageError};
use crate::{crc32, IoStats};
use std::fs::File;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Which backend a [`BlockSource`] serves from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServingMode {
    /// Positioned, counted, copying file reads (the measurement backend).
    #[default]
    File,
    /// Read-only memory mapping (Linux); degrades to `File` where the
    /// mapping is unavailable.
    Mmap,
}

impl ServingMode {
    /// Parse the CLI spelling (`file` / `mmap`).
    pub fn parse(s: &str) -> Option<ServingMode> {
        match s {
            "file" => Some(ServingMode::File),
            "mmap" => Some(ServingMode::Mmap),
            _ => None,
        }
    }

    /// Stable lowercase name (the CLI spelling).
    pub fn name(&self) -> &'static str {
        match self {
            ServingMode::File => "file",
            ServingMode::Mmap => "mmap",
        }
    }
}

impl std::fmt::Display for ServingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A block or range view returned by [`BlockSource`]: borrowed straight
/// from the mapping on the mmap backend, owned on the file backend.
///
/// Dereferences to `[u8]`; decoders take `&[u8]` and never know which
/// backend produced the bytes.
#[derive(Debug)]
pub enum BlockView<'a> {
    /// Bytes copied out of the file by a positioned read.
    Owned(Vec<u8>),
    /// Bytes borrowed from the source's mapped pages.
    Borrowed(&'a [u8]),
}

impl Deref for BlockView<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            BlockView::Owned(v) => v,
            BlockView::Borrowed(s) => s,
        }
    }
}

impl AsRef<[u8]> for BlockView<'_> {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// The shareable core of a mapped segment: one mapping, the parsed
/// directory and the per-block first-access CRC verification flags.
///
/// This is the unit a [`PageCache`] dedupes — N handles of one segment
/// hold `Arc`s to a single `SegmentPages`, so the mapping (and the
/// verification work) exist once per process while per-handle state
/// ([`IoStats`]) stays with each [`BlockSource`]. Sharing the `verified`
/// flags is sound because they describe the bytes, not the handle: a
/// block verified through one handle *is* verified for every other
/// handle of the same pages.
pub(crate) struct SegmentPages {
    region: MmapRegion,
    entries: Vec<BlockEntry>,
    /// `verified[i]` — block `i`'s payload CRC has been checked against
    /// the directory. Relaxed ordering suffices: re-verifying a block on
    /// a race is correct, just redundant.
    verified: Vec<AtomicBool>,
}

impl SegmentPages {
    /// Map the whole segment at `path`.
    pub(crate) fn load(path: &Path) -> Result<SegmentPages> {
        if kbtim_fault::inject("storage.open") {
            return Err(crate::segment::injected_io("storage.open"));
        }
        if kbtim_fault::inject("storage.map") {
            return Err(crate::segment::injected_io("storage.map"));
        }
        let region = MmapRegion::map(&File::open(path)?)?;
        // Queries will touch this mapping soon (start readahead now) and
        // then access blocks/ranges in effectively random order (stop
        // speculative readahead afterwards). Both are best-effort hints.
        region.advise(MmapAdvice::WillNeed);
        region.advise(MmapAdvice::Random);
        let entries = parse_segment_slice(region.as_slice())?;
        let verified = entries.iter().map(|_| AtomicBool::new(false)).collect();
        Ok(SegmentPages { region, entries, verified })
    }

    /// Size of the mapping in bytes.
    pub(crate) fn len(&self) -> usize {
        self.region.as_slice().len()
    }

    fn entry_index(&self, name: &str) -> Result<usize> {
        self.entries
            .iter()
            .position(|e| e.name == name)
            .ok_or_else(|| StorageError::MissingBlock(name.to_string()))
    }

    /// The whole payload of block `i`, CRC-verified on first access.
    fn verified_payload(&self, i: usize) -> Result<&[u8]> {
        let entry = &self.entries[i];
        let payload =
            &self.region.as_slice()[entry.offset as usize..(entry.offset + entry.len) as usize];
        if !self.verified[i].load(Ordering::Relaxed) {
            if kbtim_fault::inject("storage.crc") || crc32::checksum(payload) != entry.crc {
                return Err(StorageError::Corrupt(format!(
                    "checksum mismatch in block {}",
                    entry.name
                )));
            }
            self.verified[i].store(true, Ordering::Relaxed);
        }
        Ok(payload)
    }
}

/// One handle's view of a mapped segment: shared pages plus the
/// handle-private accounting.
struct ZeroCopySegment {
    pages: Arc<SegmentPages>,
    stats: IoStats,
    path: PathBuf,
}

impl ZeroCopySegment {
    fn read_block(&self, name: &str) -> Result<&[u8]> {
        let i = self.pages.entry_index(name)?;
        let payload = self.pages.verified_payload(i)?;
        self.stats.record_served(payload.len() as u64);
        Ok(payload)
    }

    fn read_range(&self, name: &str, offset: u64, len: u64) -> Result<&[u8]> {
        let i = self.pages.entry_index(name)?;
        let entry_len = self.pages.entries[i].len;
        if offset.checked_add(len).is_none_or(|end| end > entry_len) {
            return Err(StorageError::RangeOutOfBounds {
                block: name.to_string(),
                offset,
                len,
                block_len: entry_len,
            });
        }
        let payload = self.pages.verified_payload(i)?;
        self.stats.record_served(len);
        Ok(&payload[offset as usize..(offset + len) as usize])
    }
}

/// One segment served through a backend-neutral block/range-view API.
///
/// Every method mirrors [`SegmentReader`]; the only behavioral difference
/// between backends is *where the bytes come from* and *which counters
/// record the access* — payload bytes, checksum outcomes, and errors are
/// identical, which the serving-equivalence proptests enforce.
pub struct BlockSource {
    inner: SourceInner,
}

enum SourceInner {
    File(SegmentReader),
    ZeroCopy(ZeroCopySegment),
}

impl BlockSource {
    /// Open `path` with the requested backend and a private mapping. See
    /// [`BlockSource::open_shared`] for the deduplicating variant.
    pub fn open(path: impl AsRef<Path>, stats: IoStats, mode: ServingMode) -> Result<BlockSource> {
        BlockSource::open_shared(path, stats, mode, &PageCache::new())
    }

    /// Open `path` with the requested backend through a [`PageCache`]:
    /// if the cache already holds a live mapping of this segment, this
    /// handle shares it instead of mapping its own — N open handles, one
    /// mapping.
    ///
    /// Sharing is invisible in behavior: payload bytes, checksum
    /// outcomes and errors are identical, and `stats` still counts only
    /// *this* handle's accesses. `File` mode is never cached (it keeps
    /// nothing resident).
    ///
    /// A mapping that fails to *open* with an I/O error degrades
    /// gracefully instead of failing the caller: `Mmap` → `File` (served
    /// bytes are identical on both backends, so the answer cannot change
    /// — only the counters and residency do). Structural errors
    /// ([`StorageError::Corrupt`]) never degrade: the data is damaged the
    /// same way on both backends.
    pub fn open_shared(
        path: impl AsRef<Path>,
        stats: IoStats,
        mode: ServingMode,
        cache: &PageCache,
    ) -> Result<BlockSource> {
        let path = path.as_ref();
        if mode == ServingMode::Mmap {
            match cache.get_or_load(path) {
                Ok(pages) => {
                    let path = path.to_path_buf();
                    let inner = SourceInner::ZeroCopy(ZeroCopySegment { pages, stats, path });
                    return Ok(BlockSource { inner });
                }
                Err(e) => degrade_to_file(path, e)?,
            }
        }
        Ok(BlockSource::from_reader(SegmentReader::open(path, stats)?))
    }

    /// Stable identity of the mapping this handle serves from: its base
    /// address, or 0 for the file backend. Two handles deduped through
    /// one [`PageCache`] report the same value — the observable form of
    /// "one resident copy".
    pub fn pages_addr(&self) -> usize {
        match &self.inner {
            SourceInner::File(_) => 0,
            SourceInner::ZeroCopy(z) => z.pages.region.as_slice().as_ptr() as usize,
        }
    }

    /// Wrap an already-open positioned reader as a `File`-mode source.
    pub fn from_reader(reader: SegmentReader) -> BlockSource {
        BlockSource { inner: SourceInner::File(reader) }
    }

    /// The backend this source serves from.
    pub fn mode(&self) -> ServingMode {
        match &self.inner {
            SourceInner::File(_) => ServingMode::File,
            SourceInner::ZeroCopy(_) => ServingMode::Mmap,
        }
    }

    /// Names and sizes of every block.
    pub fn blocks(&self) -> Vec<BlockInfo> {
        match &self.inner {
            SourceInner::File(r) => r.blocks(),
            SourceInner::ZeroCopy(z) => z
                .pages
                .entries
                .iter()
                .map(|e| BlockInfo { name: e.name.clone(), len: e.len })
                .collect(),
        }
    }

    /// Length of a named block's payload in bytes.
    pub fn block_len(&self, name: &str) -> Result<u64> {
        match &self.inner {
            SourceInner::File(r) => r.block_len(name),
            SourceInner::ZeroCopy(z) => Ok(z.pages.entries[z.pages.entry_index(name)?].len),
        }
    }

    /// A view of a whole block, checksum-verified on every backend.
    pub fn read_block(&self, name: &str) -> Result<BlockView<'_>> {
        match &self.inner {
            SourceInner::File(r) => Ok(BlockView::Owned(r.read_block(name)?)),
            SourceInner::ZeroCopy(z) => Ok(BlockView::Borrowed(z.read_block(name)?)),
        }
    }

    /// A view of `len` bytes starting `offset` bytes into the block.
    ///
    /// Zero-copy backends verify the whole containing block's CRC on its
    /// first access; the file backend cannot verify ranges (the CRC
    /// covers whole blocks) and reads them unchecked, as before.
    pub fn read_range(&self, name: &str, offset: u64, len: u64) -> Result<BlockView<'_>> {
        match &self.inner {
            SourceInner::File(r) => Ok(BlockView::Owned(r.read_range(name, offset, len)?)),
            SourceInner::ZeroCopy(z) => Ok(BlockView::Borrowed(z.read_range(name, offset, len)?)),
        }
    }

    /// [`BlockSource::read_block`] through a caller-owned scratch buffer:
    /// zero-copy backends ignore `scratch` and return a borrowed view;
    /// the file backend reads into `scratch` (resized, no allocation in
    /// steady state) and returns a slice of it.
    pub fn read_block_in<'a>(&'a self, name: &str, scratch: &'a mut Vec<u8>) -> Result<&'a [u8]> {
        match &self.inner {
            SourceInner::File(r) => {
                r.read_block_into(name, scratch)?;
                Ok(scratch.as_slice())
            }
            SourceInner::ZeroCopy(z) => z.read_block(name),
        }
    }

    /// [`BlockSource::read_range`] through a caller-owned scratch buffer
    /// (see [`BlockSource::read_block_in`]).
    pub fn read_range_in<'a>(
        &'a self,
        name: &str,
        offset: u64,
        len: u64,
        scratch: &'a mut Vec<u8>,
    ) -> Result<&'a [u8]> {
        match &self.inner {
            SourceInner::File(r) => {
                r.read_range_into(name, offset, len, scratch)?;
                Ok(scratch.as_slice())
            }
            SourceInner::ZeroCopy(z) => z.read_range(name, offset, len),
        }
    }

    /// The shared I/O counters this source records into.
    pub fn stats(&self) -> &IoStats {
        match &self.inner {
            SourceInner::File(r) => r.stats(),
            SourceInner::ZeroCopy(z) => &z.stats,
        }
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        match &self.inner {
            SourceInner::File(r) => r.path(),
            SourceInner::ZeroCopy(z) => &z.path,
        }
    }

    /// Total on-disk size of the segment file.
    pub fn file_len(&self) -> Result<u64> {
        match &self.inner {
            SourceInner::File(r) => r.file_len(),
            SourceInner::ZeroCopy(z) => Ok(z.pages.len() as u64),
        }
    }

    /// Bytes of segment data this source keeps resident (0 for the file
    /// backend; the arena/mapping size otherwise). Mmap pages are shared
    /// with the kernel cache, so this is an upper bound there.
    pub fn resident_bytes(&self) -> u64 {
        match &self.inner {
            SourceInner::File(_) => 0,
            SourceInner::ZeroCopy(z) => z.pages.len() as u64,
        }
    }
}

/// Whether a mapping that failed to open with `error` falls back to the
/// file backend: `Ok` (reported on stderr) to degrade, the error itself
/// when the failure is structural, not environmental.
fn degrade_to_file(path: &Path, error: StorageError) -> Result<()> {
    // Only environmental failures degrade. Structural damage (Corrupt)
    // and a missing/unreadable file fail identically on both backends,
    // so falling back would just retry the same failure.
    match &error {
        StorageError::Io(io)
            if !matches!(
                io.kind(),
                std::io::ErrorKind::NotFound | std::io::ErrorKind::PermissionDenied
            ) => {}
        _ => return Err(error),
    }
    eprintln!(
        "kbtim-storage: mmap backend failed to open {} ({error}); degrading to file",
        path.display()
    );
    Ok(())
}

/// Every mode that opens as itself on the current platform (`mmap`
/// degrades to `file` off Linux), for tests and benches that sweep
/// backends.
pub fn all_modes() -> Vec<ServingMode> {
    let mut modes = vec![ServingMode::File];
    if cfg!(target_os = "linux") {
        modes.push(ServingMode::Mmap);
    }
    modes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegmentWriter;
    use crate::TempDir;

    fn write_demo(path: &Path) {
        let mut writer = SegmentWriter::create(path).unwrap();
        writer.write_block("alpha", b"hello world").unwrap();
        writer.write_block("beta", b"0123456789").unwrap();
        writer.write_block("empty", b"").unwrap();
        writer.finish().unwrap();
    }

    #[test]
    fn all_backends_serve_identical_bytes() {
        let dir = TempDir::new("blocksrc").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        for mode in all_modes() {
            let src = BlockSource::open(&path, IoStats::new(), mode).unwrap();
            assert_eq!(&*src.read_block("alpha").unwrap(), b"hello world", "{mode}");
            assert_eq!(&*src.read_block("empty").unwrap(), b"", "{mode}");
            assert_eq!(&*src.read_range("beta", 3, 4).unwrap(), b"3456", "{mode}");
            assert_eq!(src.block_len("beta").unwrap(), 10);
            assert_eq!(src.blocks().len(), 3);
            assert!(matches!(
                src.read_range("beta", 8, 5).unwrap_err(),
                StorageError::RangeOutOfBounds { .. }
            ));
            assert!(matches!(src.read_block("nope").unwrap_err(), StorageError::MissingBlock(_)));
        }
    }

    #[test]
    fn scratch_reads_match_view_reads() {
        let dir = TempDir::new("blocksrc-scratch").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let mut scratch = Vec::new();
        for mode in all_modes() {
            let src = BlockSource::open(&path, IoStats::new(), mode).unwrap();
            assert_eq!(src.read_block_in("alpha", &mut scratch).unwrap(), b"hello world");
            assert_eq!(src.read_range_in("beta", 0, 2, &mut scratch).unwrap(), b"01");
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn file_mode_counts_reads_zero_copy_counts_hits() {
        let dir = TempDir::new("blocksrc-stats").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);

        let stats = IoStats::new();
        let src = BlockSource::open(&path, stats.clone(), ServingMode::File).unwrap();
        src.read_block("alpha").unwrap();
        src.read_range("beta", 0, 4).unwrap();
        assert_eq!(stats.read_ops(), 2);
        assert_eq!(stats.bytes_read(), 11 + 4);
        assert_eq!(stats.cache_hits(), 0);

        let mode = ServingMode::Mmap;
        let stats = IoStats::new();
        let src = BlockSource::open(&path, stats.clone(), mode).unwrap();
        src.read_block("alpha").unwrap();
        src.read_range("beta", 0, 4).unwrap();
        assert_eq!(stats.read_ops(), 0, "{mode}: zero-copy must not count reads");
        assert_eq!(stats.bytes_read(), 0, "{mode}");
        assert_eq!(stats.cache_hits(), 2, "{mode}");
        assert_eq!(stats.bytes_served(), 11 + 4, "{mode}");
    }

    #[test]
    fn corruption_rejected_on_every_backend() {
        let dir = TempDir::new("blocksrc-crc").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        // Flip one payload byte of "alpha" (first block, right after the
        // 16-byte header).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[16] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        for mode in all_modes() {
            let src = BlockSource::open(&path, IoStats::new(), mode).unwrap();
            assert!(
                matches!(src.read_block("alpha").unwrap_err(), StorageError::Corrupt(_)),
                "{mode}: flipped byte must fail CRC"
            );
            // Zero-copy backends also catch it on range reads; untouched
            // blocks still serve.
            if mode != ServingMode::File {
                assert!(src.read_range("alpha", 0, 2).is_err(), "{mode}");
            }
            assert_eq!(&*src.read_block("beta").unwrap(), b"0123456789", "{mode}");
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn verification_happens_once_then_serves() {
        let dir = TempDir::new("blocksrc-once").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let src = BlockSource::open(&path, IoStats::new(), ServingMode::Mmap).unwrap();
        // Range before block: the first access verifies, later ones reuse.
        assert_eq!(&*src.read_range("alpha", 6, 5).unwrap(), b"world");
        assert_eq!(&*src.read_block("alpha").unwrap(), b"hello world");
        assert_eq!(src.stats().cache_hits(), 2);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn mode_and_resident_bytes_reported() {
        let dir = TempDir::new("blocksrc-mode").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let file_len = std::fs::metadata(&path).unwrap().len();
        let file = BlockSource::open(&path, IoStats::new(), ServingMode::File).unwrap();
        assert_eq!(file.mode(), ServingMode::File);
        assert_eq!(file.resident_bytes(), 0);
        assert_eq!(file.file_len().unwrap(), file_len);
        let res = BlockSource::open(&path, IoStats::new(), ServingMode::Mmap).unwrap();
        assert_eq!(res.mode(), ServingMode::Mmap);
        assert_eq!(res.resident_bytes(), file_len);
        assert_eq!(res.file_len().unwrap(), file_len);
    }

    #[test]
    fn serving_mode_parse_roundtrip() {
        for mode in all_modes() {
            assert_eq!(ServingMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(ServingMode::parse("disk"), None);
        assert_eq!(ServingMode::default(), ServingMode::File);
    }
}
