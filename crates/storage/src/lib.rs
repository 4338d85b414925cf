//! Disk substrate for the KB-TIM indexes.
//!
//! The paper's RR and IRR indexes are *disk-resident*: queries are charged
//! for every byte and every positioned read they perform (Table 6 reports
//! I/O counts, Figures 5–7 report RR sets loaded). This crate provides the
//! small storage layer those measurements sit on:
//!
//! * [`IoStats`] — shared atomic counters for read ops, bytes and seeks,
//!   plus zero-copy `cache_hits`/`bytes_served` for the mapped backend.
//! * [`crc32`] — checksums protecting every block (corruption is detected,
//!   never silently decoded).
//! * [`segment`] — an append-once segment-file format with a named-block
//!   directory, written by [`segment::SegmentWriter`] and read back with
//!   positioned, counted reads by [`segment::SegmentReader`].
//! * [`block`] — the [`BlockSource`] serving tier: one block/range-view
//!   API over two backends (positioned file reads, and an mmap mapping on
//!   Linux), so every query path reads through the same abstraction
//!   regardless of where the bytes live. Each mapped open owns its
//!   mapping; the kernel's page cache is what shares a file's pages
//!   between mappings.
//! * [`TempDir`] — a scoped scratch directory for tests and benches.
//!
//! The format is deliberately simple (magic, version, blocks, directory,
//! footer) — a purpose-built substitute for the ad-hoc binary files the
//! paper's C++ implementation used, with integrity checking added.

#![deny(missing_docs)]

pub mod block;
pub mod crc32;
#[cfg(target_os = "linux")]
pub(crate) mod mmap;
pub mod segment;

/// Off Linux nothing is mapped: `map` refuses with `Unsupported` (the
/// `mmap` backend degrades to `file`), so no region ever exists.
#[cfg(not(target_os = "linux"))]
pub(crate) mod mmap {
    pub(crate) enum MmapAdvice {
        Random,
        WillNeed,
    }

    pub(crate) enum MmapRegion {}

    impl MmapRegion {
        pub(crate) fn map(_file: &std::fs::File) -> std::io::Result<MmapRegion> {
            Err(std::io::Error::new(std::io::ErrorKind::Unsupported, "mmap is Linux-only"))
        }

        pub(crate) fn advise(&self, _advice: MmapAdvice) {}

        pub(crate) fn as_slice(&self) -> &[u8] {
            match *self {}
        }
    }
}

pub use block::{BlockSource, BlockView, ServingMode};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe I/O counters.
///
/// Cloning the handle shares the underlying counters, so a single
/// [`IoStats`] can aggregate activity across every file a query touches.
#[derive(Debug, Default, Clone)]
pub struct IoStats {
    inner: Arc<IoStatsInner>,
}

#[derive(Debug, Default)]
struct IoStatsInner {
    read_ops: AtomicU64,
    bytes_read: AtomicU64,
    seeks: AtomicU64,
    write_ops: AtomicU64,
    bytes_written: AtomicU64,
    cache_hits: AtomicU64,
    bytes_served: AtomicU64,
}

impl IoStats {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one positioned read of `bytes` bytes; `seeked` marks a
    /// non-sequential access (the read did not start where the previous one
    /// ended).
    pub fn record_read(&self, bytes: u64, seeked: bool) {
        self.inner.read_ops.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        if seeked {
            self.inner.seeks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one write of `bytes` bytes.
    pub fn record_write(&self, bytes: u64) {
        self.inner.write_ops.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one zero-copy access of `bytes` bytes served from
    /// memory-mapped pages. These accesses perform no positioned read,
    /// so they must not inflate `read_ops`/`bytes_read` — but silently
    /// reporting zero I/O would make backend comparisons dishonest, so
    /// they are counted separately.
    pub fn record_served(&self, bytes: u64) {
        self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_served.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Number of positioned read calls.
    pub fn read_ops(&self) -> u64 {
        self.inner.read_ops.load(Ordering::Relaxed)
    }

    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.inner.bytes_read.load(Ordering::Relaxed)
    }

    /// Number of non-sequential (seeking) reads.
    pub fn seeks(&self) -> u64 {
        self.inner.seeks.load(Ordering::Relaxed)
    }

    /// Number of write calls.
    pub fn write_ops(&self) -> u64 {
        self.inner.write_ops.load(Ordering::Relaxed)
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.inner.bytes_written.load(Ordering::Relaxed)
    }

    /// Number of zero-copy block/range accesses.
    pub fn cache_hits(&self) -> u64 {
        self.inner.cache_hits.load(Ordering::Relaxed)
    }

    /// Total bytes served from mapped pages without a read.
    pub fn bytes_served(&self) -> u64 {
        self.inner.bytes_served.load(Ordering::Relaxed)
    }

    /// Reset every counter to zero (used between measured queries).
    pub fn reset(&self) {
        self.inner.read_ops.store(0, Ordering::Relaxed);
        self.inner.bytes_read.store(0, Ordering::Relaxed);
        self.inner.seeks.store(0, Ordering::Relaxed);
        self.inner.write_ops.store(0, Ordering::Relaxed);
        self.inner.bytes_written.store(0, Ordering::Relaxed);
        self.inner.cache_hits.store(0, Ordering::Relaxed);
        self.inner.bytes_served.store(0, Ordering::Relaxed);
    }

    /// Snapshot of the counters as plain numbers.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            read_ops: self.read_ops(),
            bytes_read: self.bytes_read(),
            seeks: self.seeks(),
            write_ops: self.write_ops(),
            bytes_written: self.bytes_written(),
            cache_hits: self.cache_hits(),
            bytes_served: self.bytes_served(),
        }
    }
}

/// Immutable copy of [`IoStats`] counters at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Number of positioned read calls.
    pub read_ops: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Number of non-sequential reads.
    pub seeks: u64,
    /// Number of write calls.
    pub write_ops: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Number of zero-copy block/range accesses (mmap backend).
    pub cache_hits: u64,
    /// Total bytes served zero-copy, without a positioned read.
    pub bytes_served: u64,
}

impl IoSnapshot {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            read_ops: self.read_ops.saturating_sub(earlier.read_ops),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            seeks: self.seeks.saturating_sub(earlier.seeks),
            write_ops: self.write_ops.saturating_sub(earlier.write_ops),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            bytes_served: self.bytes_served.saturating_sub(earlier.bytes_served),
        }
    }
}

/// A scratch directory removed on drop.
///
/// Each instance gets a unique path under the system temp dir; tests and
/// benches use it so index files never leak between runs.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh unique directory with the given human-readable prefix.
    pub fn new(prefix: &str) -> std::io::Result<TempDir> {
        use std::sync::atomic::AtomicU32;
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path = std::env::temp_dir().join(format!("{prefix}-{pid}-{n}-{nanos}"));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_stats_accumulate() {
        let stats = IoStats::new();
        stats.record_read(100, false);
        stats.record_read(50, true);
        stats.record_write(8);
        assert_eq!(stats.read_ops(), 2);
        assert_eq!(stats.bytes_read(), 150);
        assert_eq!(stats.seeks(), 1);
        assert_eq!(stats.write_ops(), 1);
        assert_eq!(stats.bytes_written(), 8);
    }

    #[test]
    fn served_counters_are_distinct_from_reads() {
        let stats = IoStats::new();
        stats.record_served(4096);
        stats.record_served(100);
        assert_eq!(stats.cache_hits(), 2);
        assert_eq!(stats.bytes_served(), 4196);
        assert_eq!(stats.read_ops(), 0, "zero-copy hits are not positioned reads");
        assert_eq!(stats.bytes_read(), 0);
        let snap = stats.snapshot();
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.bytes_served, 4196);
        stats.reset();
        assert_eq!(stats.cache_hits(), 0);
        assert_eq!(stats.bytes_served(), 0);
    }

    #[test]
    fn io_stats_shared_between_clones() {
        let a = IoStats::new();
        let b = a.clone();
        b.record_read(10, false);
        assert_eq!(a.read_ops(), 1);
        a.reset();
        assert_eq!(b.read_ops(), 0);
    }

    #[test]
    fn snapshot_since() {
        let stats = IoStats::new();
        stats.record_read(10, true);
        let first = stats.snapshot();
        stats.record_read(30, false);
        let second = stats.snapshot();
        let delta = second.since(&first);
        assert_eq!(delta.read_ops, 1);
        assert_eq!(delta.bytes_read, 30);
        assert_eq!(delta.seeks, 0);
    }

    #[test]
    fn temp_dir_created_and_removed() {
        let path;
        {
            let dir = TempDir::new("kbtim-test").unwrap();
            path = dir.path().to_path_buf();
            assert!(path.is_dir());
            std::fs::write(path.join("x"), b"hi").unwrap();
        }
        assert!(!path.exists());
    }

    #[test]
    fn temp_dirs_are_unique() {
        let a = TempDir::new("kbtim-test").unwrap();
        let b = TempDir::new("kbtim-test").unwrap();
        assert_ne!(a.path(), b.path());
    }
}
