//! Append-once segment files with a named-block directory.
//!
//! A segment holds the on-disk index for one keyword (or a whole index's
//! metadata). Blocks are written once, back to back, by [`SegmentWriter`];
//! a directory with per-block offsets and CRC-32 checksums is appended at
//! the end, followed by a fixed-size footer:
//!
//! ```text
//! +--------+----------------+-----------+--------+
//! | header | block payloads | directory | footer |
//! +--------+----------------+-----------+--------+
//! header    = magic "KBTIMSG1", version u32le, reserved u32le
//! directory = count u32le, then per block:
//!             name_len u16le, name bytes, offset u64le, len u64le, crc u32le
//! footer    = dir_offset u64le, dir_len u64le, dir_crc u32le, magic
//! ```
//!
//! [`SegmentReader`] supports whole-block reads (checksum-verified) and
//! positioned range reads within a block (for loading an RR-set prefix or a
//! single IRR partition without touching the rest of the file). All reads
//! are recorded in a shared [`IoStats`].

use crate::crc32::{self, Crc32};
use crate::IoStats;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(unix))]
use std::sync::Mutex;
use std::time::Duration;

const MAGIC: &[u8; 8] = b"KBTIMSG1";
/// Container version. 2: keyword segments carry columnar `il` / `ilp`
/// blocks (see `kbtim-index`'s `format` module). There is no reader for
/// version 1; `kbtim build` from the dataset is the migration.
const VERSION: u32 = 2;
pub(crate) const HEADER_LEN: u64 = 16;
pub(crate) const FOOTER_LEN: u64 = 8 + 8 + 4 + 8;

/// Errors from segment reading/writing.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Structural damage: bad magic, truncated framing, or CRC mismatch.
    Corrupt(String),
    /// A requested block name is not present in the directory.
    MissingBlock(String),
    /// A block with the same name was written twice.
    DuplicateBlock(String),
    /// A range read extends past the end of the block.
    RangeOutOfBounds {
        /// Block that was being read.
        block: String,
        /// Requested start offset within the block.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual block length.
        block_len: u64,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt segment: {msg}"),
            StorageError::MissingBlock(name) => write!(f, "missing block: {name}"),
            StorageError::DuplicateBlock(name) => write!(f, "duplicate block: {name}"),
            StorageError::RangeOutOfBounds { block, offset, len, block_len } => {
                write!(f, "range {offset}+{len} out of bounds for block {block} (len {block_len})")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience alias for fallible storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Whether an error is worth retrying: interrupted or timed-out reads
/// come back fine on the next attempt; corruption and missing blocks
/// never do.
pub fn is_transient(e: &StorageError) -> bool {
    matches!(
        e,
        StorageError::Io(io) if matches!(
            io.kind(),
            std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
        )
    )
}

/// Run `op`, retrying transient I/O failures ([`is_transient`]) up to
/// three times with exponential backoff (50 µs, 200 µs, 800 µs) before
/// giving up. Non-transient errors surface immediately.
pub(crate) fn with_read_retries<T>(mut op: impl FnMut() -> Result<T>) -> Result<T> {
    const RETRIES: u32 = 3;
    let mut backoff = Duration::from_micros(50);
    let mut attempt = 0;
    loop {
        match op() {
            Err(e) if is_transient(&e) && attempt < RETRIES => {
                attempt += 1;
                std::thread::sleep(backoff);
                backoff *= 4;
            }
            other => return other,
        }
    }
}

/// The error an armed `err`-action failpoint injects on a read path:
/// transient by construction, so the retry tier can mask a bounded burst.
pub(crate) fn injected_io(name: &str) -> StorageError {
    StorageError::Io(std::io::Error::new(
        std::io::ErrorKind::Interrupted,
        format!("injected fault: {name}"),
    ))
}

/// Lock recovering from poisoning: a panic elsewhere (e.g. an armed
/// `panic` failpoint unwinding through a request thread) must not wedge
/// every later reader — the guarded state is consistent between lock
/// ops, so the data is safe to reuse.
#[cfg(not(unix))]
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[derive(Debug, Clone)]
pub(crate) struct BlockEntry {
    pub(crate) name: String,
    pub(crate) offset: u64,
    pub(crate) len: u64,
    pub(crate) crc: u32,
}

/// Writes a segment file: header, then blocks, then directory + footer.
///
/// The bytes go to a sibling `<path>.tmp` that [`SegmentWriter::finish`]
/// renames over `path`, so a segment is published whole and a file that
/// readers hold open or mapped is replaced, never rewritten under them. A
/// writer dropped before `finish` removes its temp file and leaves `path`
/// as it was.
#[derive(Debug)]
pub struct SegmentWriter {
    file: BufWriter<File>,
    path: PathBuf,
    tmp: PathBuf,
    position: u64,
    entries: Vec<BlockEntry>,
    open_block: Option<(String, u64, Crc32)>,
    finished: bool,
}

impl SegmentWriter {
    /// Start the segment that `finish` publishes at `path`, and write the
    /// header.
    pub fn create(path: impl AsRef<Path>) -> Result<SegmentWriter> {
        let path = path.as_ref().to_path_buf();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let file = File::create(&tmp)?;
        let mut writer = SegmentWriter {
            file: BufWriter::new(file),
            path,
            tmp,
            position: 0,
            entries: Vec::new(),
            open_block: None,
            finished: false,
        };
        writer.file.write_all(MAGIC)?;
        writer.file.write_all(&VERSION.to_le_bytes())?;
        writer.file.write_all(&0u32.to_le_bytes())?;
        writer.position = HEADER_LEN;
        Ok(writer)
    }

    /// Begin a streaming block. Data is appended with [`SegmentWriter::write`]
    /// until [`SegmentWriter::end_block`].
    pub fn begin_block(&mut self, name: &str) -> Result<()> {
        assert!(self.open_block.is_none(), "previous block not closed");
        if self.entries.iter().any(|e| e.name == name) {
            return Err(StorageError::DuplicateBlock(name.to_string()));
        }
        self.open_block = Some((name.to_string(), self.position, Crc32::new()));
        Ok(())
    }

    /// Append payload bytes to the currently open block.
    pub fn write(&mut self, data: &[u8]) -> Result<()> {
        let (_, _, crc) = self.open_block.as_mut().expect("no open block");
        crc.update(data);
        self.file.write_all(data)?;
        self.position += data.len() as u64;
        Ok(())
    }

    /// Close the currently open block, recording its directory entry.
    pub fn end_block(&mut self) -> Result<()> {
        let (name, offset, crc) = self.open_block.take().expect("no open block");
        self.entries.push(BlockEntry {
            name,
            offset,
            len: self.position - offset,
            crc: crc.finalize(),
        });
        Ok(())
    }

    /// Write a complete block in one call.
    pub fn write_block(&mut self, name: &str, data: &[u8]) -> Result<()> {
        self.begin_block(name)?;
        self.write(data)?;
        self.end_block()
    }

    /// Current byte offset within the block being written (0 at block start).
    pub fn block_position(&self) -> u64 {
        let (_, start, _) = self.open_block.as_ref().expect("no open block");
        self.position - start
    }

    /// Write directory + footer, flush, and rename the finished file over
    /// the segment's path.
    ///
    /// Returns the total file size in bytes.
    pub fn finish(mut self) -> Result<u64> {
        assert!(self.open_block.is_none(), "block still open at finish");
        let dir_offset = self.position;
        let mut dir = Vec::new();
        dir.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for entry in &self.entries {
            let name = entry.name.as_bytes();
            dir.extend_from_slice(&(name.len() as u16).to_le_bytes());
            dir.extend_from_slice(name);
            dir.extend_from_slice(&entry.offset.to_le_bytes());
            dir.extend_from_slice(&entry.len.to_le_bytes());
            dir.extend_from_slice(&entry.crc.to_le_bytes());
        }
        let dir_crc = crc32::checksum(&dir);
        self.file.write_all(&dir)?;
        self.file.write_all(&dir_offset.to_le_bytes())?;
        self.file.write_all(&(dir.len() as u64).to_le_bytes())?;
        self.file.write_all(&dir_crc.to_le_bytes())?;
        self.file.write_all(MAGIC)?;
        self.file.flush()?;
        std::fs::rename(&self.tmp, &self.path)?;
        self.finished = true;
        let total = dir_offset + dir.len() as u64 + FOOTER_LEN;
        Ok(total)
    }

    /// Path this writer is producing.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SegmentWriter {
    fn drop(&mut self) {
        if !self.finished {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Metadata for one block, from the segment directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// Block name.
    pub name: String,
    /// Payload length in bytes.
    pub len: u64,
}

/// Reads a segment file with positioned, counted, checksum-verified reads.
///
/// `&self` methods may be shared across threads: on Unix a read is one
/// `pread(2)` that neither moves nor waits for a file cursor, so readers
/// of one segment run side by side (elsewhere they take turns on a
/// locked `seek` + `read`).
#[derive(Debug)]
pub struct SegmentReader {
    file: PositionedFile,
    entries: Vec<BlockEntry>,
    stats: IoStats,
    path: PathBuf,
}

#[derive(Debug)]
struct PositionedFile {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: Mutex<File>,
    /// Where this handle's most recent read ended, for seek accounting.
    /// Swapped once per read, after the bytes arrived: under concurrent
    /// readers a "seek" is a read that did not start where the handle's
    /// previous read — whichever thread made it — ended. `Relaxed`: the
    /// value feeds one statistic and publishes no other data.
    last_end: AtomicU64,
}

impl PositionedFile {
    fn new(file: File) -> PositionedFile {
        #[cfg(not(unix))]
        let file = Mutex::new(file);
        PositionedFile { file, last_end: AtomicU64::new(0) }
    }

    /// Fill `buf` from `offset` and book the read. `read_ops` /
    /// `bytes_read` count exactly the reads that succeeded, whatever
    /// the interleaving.
    fn read_at(&self, offset: u64, buf: &mut [u8], stats: &IoStats) -> Result<()> {
        #[cfg(unix)]
        std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset)?;
        #[cfg(not(unix))]
        {
            let mut file = lock_recover(&self.file);
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(buf)?;
        }
        let end = offset + buf.len() as u64;
        let seeked = self.last_end.swap(end, Ordering::Relaxed) != offset;
        stats.record_read(buf.len() as u64, seeked);
        Ok(())
    }
}

impl SegmentReader {
    /// Open a segment, validating the footer and directory checksums.
    pub fn open(path: impl AsRef<Path>, stats: IoStats) -> Result<SegmentReader> {
        if kbtim_fault::inject("storage.open") {
            return Err(injected_io("storage.open"));
        }
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN + FOOTER_LEN {
            return Err(StorageError::Corrupt("file shorter than framing".into()));
        }

        // Header.
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        check_header(&header)?;

        // Footer.
        let mut footer = [0u8; FOOTER_LEN as usize];
        file.seek(SeekFrom::Start(file_len - FOOTER_LEN))?;
        file.read_exact(&mut footer)?;
        let (dir_offset, dir_len, dir_crc) = check_footer(&footer, file_len)?;

        // Directory.
        let mut dir = vec![0u8; dir_len as usize];
        file.seek(SeekFrom::Start(dir_offset))?;
        file.read_exact(&mut dir)?;
        if crc32::checksum(&dir) != dir_crc {
            return Err(StorageError::Corrupt("directory checksum mismatch".into()));
        }
        let entries = parse_directory(&dir, dir_offset)?;

        Ok(SegmentReader { file: PositionedFile::new(file), entries, stats, path })
    }

    /// Names and sizes of every block.
    pub fn blocks(&self) -> Vec<BlockInfo> {
        self.entries.iter().map(|e| BlockInfo { name: e.name.clone(), len: e.len }).collect()
    }

    /// Length of a named block's payload in bytes.
    pub fn block_len(&self, name: &str) -> Result<u64> {
        Ok(self.entry(name)?.len)
    }

    /// Read a whole block and verify its checksum.
    pub fn read_block(&self, name: &str) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.read_block_into(name, &mut buf)?;
        Ok(buf)
    }

    /// [`SegmentReader::read_block`] into a caller-owned buffer (resized
    /// to the block length), so steady-state readers allocate nothing.
    pub fn read_block_into(&self, name: &str, buf: &mut Vec<u8>) -> Result<()> {
        let entry = self.entry(name)?.clone();
        // Not cleared first: the read overwrites every byte, so only
        // growth past the buffer's previous length is zero-filled.
        buf.resize(entry.len as usize, 0);
        with_read_retries(|| {
            if kbtim_fault::inject("storage.read") {
                return Err(injected_io("storage.read"));
            }
            self.file.read_at(entry.offset, buf, &self.stats)
        })?;
        if kbtim_fault::inject("storage.crc") || crc32::checksum(buf) != entry.crc {
            return Err(StorageError::Corrupt(format!("checksum mismatch in block {name}")));
        }
        Ok(())
    }

    /// Read `len` bytes starting `offset` bytes into the named block.
    ///
    /// Range reads cannot be checksum-verified (the CRC covers the whole
    /// block); they exist so queries can load an RR-set prefix or a single
    /// IRR partition without paying for the full block.
    pub fn read_range(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.read_range_into(name, offset, len, &mut buf)?;
        Ok(buf)
    }

    /// [`SegmentReader::read_range`] into a caller-owned buffer (resized
    /// to `len`, see [`SegmentReader::read_block_into`]).
    pub fn read_range_into(
        &self,
        name: &str,
        offset: u64,
        len: u64,
        buf: &mut Vec<u8>,
    ) -> Result<()> {
        let entry = self.entry(name)?.clone();
        if offset.checked_add(len).is_none_or(|end| end > entry.len) {
            return Err(StorageError::RangeOutOfBounds {
                block: name.to_string(),
                offset,
                len,
                block_len: entry.len,
            });
        }
        buf.resize(len as usize, 0);
        with_read_retries(|| {
            if kbtim_fault::inject("storage.read") {
                return Err(injected_io("storage.read"));
            }
            self.file.read_at(entry.offset + offset, buf, &self.stats)
        })?;
        Ok(())
    }

    /// The shared I/O counters this reader records into.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total on-disk size of the segment file.
    pub fn file_len(&self) -> Result<u64> {
        Ok(std::fs::metadata(&self.path)?.len())
    }

    fn entry(&self, name: &str) -> Result<&BlockEntry> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| StorageError::MissingBlock(name.to_string()))
    }
}

/// Validate the fixed 16-byte header (magic, version, reserved field).
fn check_header(header: &[u8]) -> Result<()> {
    if &header[0..8] != MAGIC {
        return Err(StorageError::Corrupt("bad header magic".into()));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("fixed slice"));
    if version != VERSION {
        return Err(StorageError::Corrupt(format!("unsupported version {version}")));
    }
    let reserved = u32::from_le_bytes(header[12..16].try_into().expect("fixed slice"));
    if reserved != 0 {
        return Err(StorageError::Corrupt("nonzero reserved header field".into()));
    }
    Ok(())
}

/// Validate the fixed footer against the total file length and return
/// `(dir_offset, dir_len, dir_crc)`. Framing arithmetic is checked, so a
/// forged footer can never wrap into "valid" bounds.
fn check_footer(footer: &[u8], file_len: u64) -> Result<(u64, u64, u32)> {
    if &footer[20..28] != MAGIC {
        return Err(StorageError::Corrupt("bad footer magic".into()));
    }
    let dir_offset = u64::from_le_bytes(footer[0..8].try_into().expect("fixed slice"));
    let dir_len = u64::from_le_bytes(footer[8..16].try_into().expect("fixed slice"));
    let dir_crc = u32::from_le_bytes(footer[16..20].try_into().expect("fixed slice"));
    let end = dir_offset.checked_add(dir_len).and_then(|v| v.checked_add(FOOTER_LEN));
    if end != Some(file_len) {
        return Err(StorageError::Corrupt("directory framing mismatch".into()));
    }
    Ok((dir_offset, dir_len, dir_crc))
}

/// A cheap content discriminator for the segment at `path`: the footer's
/// directory CRC (which covers every block's name, extent, *and* payload
/// CRC) mixed with the directory extent. Two rewrites of the same path
/// with different payload bytes produce different tags with CRC-grade
/// probability even when file length and mtime collide — exactly the
/// same-second same-length rewrite a fast flush/compact cycle produces.
/// The index fingerprint folds this in to close that staleness window.
/// One 28-byte read, no payload I/O.
pub fn footer_tag(path: impl AsRef<Path>) -> Result<u64> {
    let mut file = File::open(path.as_ref())?;
    let file_len = file.metadata()?.len();
    if file_len < HEADER_LEN + FOOTER_LEN {
        return Err(StorageError::Corrupt("file shorter than framing".into()));
    }
    let mut footer = [0u8; FOOTER_LEN as usize];
    file.seek(SeekFrom::Start(file_len - FOOTER_LEN))?;
    file.read_exact(&mut footer)?;
    let (dir_offset, dir_len, dir_crc) = check_footer(&footer, file_len)?;
    Ok(((dir_crc as u64) << 32) ^ dir_offset.wrapping_mul(0x9E37_79B9) ^ dir_len)
}

/// Validate the framing of a whole segment held in memory and return its
/// directory. Used by the mmap backend of
/// [`crate::block::BlockSource`]; runs exactly the same [`check_header`]
/// / [`check_footer`] / directory-CRC / [`parse_directory`] chain as
/// [`SegmentReader::open`], so the two paths cannot drift.
pub(crate) fn parse_segment_slice(bytes: &[u8]) -> Result<Vec<BlockEntry>> {
    let file_len = bytes.len() as u64;
    if file_len < HEADER_LEN + FOOTER_LEN {
        return Err(StorageError::Corrupt("file shorter than framing".into()));
    }
    check_header(&bytes[..HEADER_LEN as usize])?;
    let footer = &bytes[(file_len - FOOTER_LEN) as usize..];
    let (dir_offset, dir_len, dir_crc) = check_footer(footer, file_len)?;
    let dir = &bytes[dir_offset as usize..(dir_offset + dir_len) as usize];
    if crc32::checksum(dir) != dir_crc {
        return Err(StorageError::Corrupt("directory checksum mismatch".into()));
    }
    parse_directory(dir, dir_offset)
}

fn parse_directory(dir: &[u8], dir_offset: u64) -> Result<Vec<BlockEntry>> {
    let corrupt = |msg: &str| StorageError::Corrupt(msg.to_string());
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
        if *pos + n > dir.len() {
            return Err(corrupt("directory truncated"));
        }
        let slice = &dir[*pos..*pos + n];
        *pos += n;
        Ok(slice)
    };
    let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("fixed")) as usize;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("fixed")) as usize;
        let name = std::str::from_utf8(take(&mut pos, name_len)?)
            .map_err(|_| corrupt("block name not utf-8"))?
            .to_string();
        let offset = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("fixed"));
        let len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("fixed"));
        let crc = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("fixed"));
        // Checked: a forged entry must not wrap into "valid" bounds (the
        // zero-copy backends slice payloads straight out of these
        // extents, so out-of-bounds here must be an error, not a panic).
        let end = offset.checked_add(len).ok_or_else(|| corrupt("block extent out of bounds"))?;
        if offset < HEADER_LEN || end > dir_offset {
            return Err(corrupt("block extent out of bounds"));
        }
        entries.push(BlockEntry { name, offset, len, crc });
    }
    if pos != dir.len() {
        return Err(corrupt("trailing bytes in directory"));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    fn write_demo(path: &Path) {
        let mut writer = SegmentWriter::create(path).unwrap();
        writer.write_block("alpha", b"hello world").unwrap();
        writer.begin_block("beta").unwrap();
        writer.write(b"chunk-1/").unwrap();
        writer.write(b"chunk-2").unwrap();
        writer.end_block().unwrap();
        writer.write_block("empty", b"").unwrap();
        writer.finish().unwrap();
    }

    #[test]
    fn roundtrip_blocks() {
        let dir = TempDir::new("seg").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let reader = SegmentReader::open(&path, IoStats::new()).unwrap();
        assert_eq!(reader.read_block("alpha").unwrap(), b"hello world");
        assert_eq!(reader.read_block("beta").unwrap(), b"chunk-1/chunk-2");
        assert_eq!(reader.read_block("empty").unwrap(), b"");
        assert_eq!(reader.block_len("beta").unwrap(), 15);
        let names: Vec<String> = reader.blocks().into_iter().map(|b| b.name).collect();
        assert_eq!(names, vec!["alpha", "beta", "empty"]);
    }

    #[test]
    fn range_reads() {
        let dir = TempDir::new("seg").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let reader = SegmentReader::open(&path, IoStats::new()).unwrap();
        assert_eq!(reader.read_range("alpha", 6, 5).unwrap(), b"world");
        assert_eq!(reader.read_range("beta", 0, 7).unwrap(), b"chunk-1");
        assert!(matches!(
            reader.read_range("alpha", 8, 10).unwrap_err(),
            StorageError::RangeOutOfBounds { .. }
        ));
    }

    #[test]
    fn io_stats_recorded() {
        let dir = TempDir::new("seg").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let stats = IoStats::new();
        let reader = SegmentReader::open(&path, stats.clone()).unwrap();
        assert_eq!(stats.read_ops(), 0, "open() reads are not charged to queries");
        reader.read_block("alpha").unwrap();
        reader.read_range("alpha", 0, 4).unwrap();
        assert_eq!(stats.read_ops(), 2);
        assert_eq!(stats.bytes_read(), 11 + 4);
    }

    #[test]
    fn sequential_reads_do_not_seek() {
        let dir = TempDir::new("seg").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let stats = IoStats::new();
        let reader = SegmentReader::open(&path, stats.clone()).unwrap();
        reader.read_range("alpha", 0, 4).unwrap(); // seek (from 0 to header end)
        reader.read_range("alpha", 4, 4).unwrap(); // continues where we left off
        reader.read_range("alpha", 0, 4).unwrap(); // jumps back: seek
        assert_eq!(stats.seeks(), 2);
    }

    #[test]
    fn concurrent_readers_share_one_handle_and_the_totals_stay_exact() {
        let dir = TempDir::new("seg").unwrap();
        let path = dir.path().join("big.seg");
        let blocks: Vec<(String, Vec<u8>)> = (0..4u8)
            .map(|b| (format!("b{b}"), (0..50_000u32).map(|i| (i as u8) ^ b).collect()))
            .collect();
        let mut writer = SegmentWriter::create(&path).unwrap();
        for (name, bytes) in &blocks {
            writer.write_block(name, bytes).unwrap();
        }
        writer.finish().unwrap();

        let stats = IoStats::new();
        let reader = SegmentReader::open(&path, stats.clone()).unwrap();
        const THREADS: usize = 4;
        const ROUNDS: usize = 25;
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (reader, blocks, start) = (&reader, &blocks, &start);
                scope.spawn(move || {
                    let mut buf = Vec::new();
                    start.wait();
                    for round in 0..ROUNDS {
                        let (name, want) = &blocks[(t + round) % blocks.len()];
                        reader.read_block_into(name, &mut buf).unwrap();
                        assert_eq!(&buf, want, "thread {t} round {round}");
                        reader.read_range_into(name, 10, 100, &mut buf).unwrap();
                        assert_eq!(buf, want[10..110], "thread {t} round {round}");
                    }
                });
            }
        });
        // Whatever the interleaving: every read is booked once, with
        // its own length; a seek is at most one per read.
        let reads = (THREADS * ROUNDS * 2) as u64;
        assert_eq!(stats.read_ops(), reads);
        assert_eq!(stats.bytes_read(), (THREADS * ROUNDS) as u64 * (50_000 + 100));
        assert!(stats.seeks() <= reads);
    }

    #[test]
    fn duplicate_block_rejected() {
        let dir = TempDir::new("seg").unwrap();
        let path = dir.path().join("dup.seg");
        let mut writer = SegmentWriter::create(&path).unwrap();
        writer.write_block("a", b"1").unwrap();
        assert!(matches!(
            writer.write_block("a", b"2").unwrap_err(),
            StorageError::DuplicateBlock(_)
        ));
    }

    #[test]
    fn missing_block_reported() {
        let dir = TempDir::new("seg").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let reader = SegmentReader::open(&path, IoStats::new()).unwrap();
        assert!(matches!(reader.read_block("nope").unwrap_err(), StorageError::MissingBlock(_)));
    }

    #[test]
    fn corruption_detected_in_block() {
        let dir = TempDir::new("seg").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        // Flip one payload byte of "alpha" (payload starts right after header).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN as usize] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let reader = SegmentReader::open(&path, IoStats::new()).unwrap();
        assert!(matches!(reader.read_block("alpha").unwrap_err(), StorageError::Corrupt(_)));
    }

    #[test]
    fn corruption_detected_in_directory() {
        let dir = TempDir::new("seg").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        // Somewhere inside the directory, before the footer.
        bytes[n - FOOTER_LEN as usize - 3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentReader::open(&path, IoStats::new()).unwrap_err(),
            StorageError::Corrupt(_)
        ));
    }

    #[test]
    fn truncated_file_rejected() {
        let dir = TempDir::new("seg").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(SegmentReader::open(&path, IoStats::new()).is_err());
    }

    #[test]
    fn empty_segment_roundtrips() {
        let dir = TempDir::new("seg").unwrap();
        let path = dir.path().join("empty.seg");
        let writer = SegmentWriter::create(&path).unwrap();
        writer.finish().unwrap();
        let reader = SegmentReader::open(&path, IoStats::new()).unwrap();
        assert!(reader.blocks().is_empty());
    }

    #[test]
    fn block_position_tracks_stream() {
        let dir = TempDir::new("seg").unwrap();
        let path = dir.path().join("pos.seg");
        let mut writer = SegmentWriter::create(&path).unwrap();
        writer.begin_block("x").unwrap();
        assert_eq!(writer.block_position(), 0);
        writer.write(b"12345").unwrap();
        assert_eq!(writer.block_position(), 5);
        writer.write(b"678").unwrap();
        assert_eq!(writer.block_position(), 8);
        writer.end_block().unwrap();
        writer.finish().unwrap();
    }

    #[test]
    fn unfinished_writer_leaves_the_old_file_and_no_temp() {
        let dir = TempDir::new("seg").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let before = std::fs::read(&path).unwrap();
        let mut writer = SegmentWriter::create(&path).unwrap();
        writer.write_block("alpha", b"never published").unwrap();
        drop(writer);
        assert_eq!(std::fs::read(&path).unwrap(), before, "old segment must be untouched");
        let names: Vec<_> =
            std::fs::read_dir(dir.path()).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["demo.seg"], "no temp file may remain");
    }

    #[test]
    fn file_len_matches_finish_return() {
        let dir = TempDir::new("seg").unwrap();
        let path = dir.path().join("len.seg");
        let mut writer = SegmentWriter::create(&path).unwrap();
        writer.write_block("a", &[7u8; 1000]).unwrap();
        let reported = writer.finish().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), reported);
    }
}
