//! Process-wide page cache: N open handles of one segment, one mapping.
//!
//! The zero-copy backend ([`crate::ServingMode::Mmap`]) keeps a whole
//! segment mapped per open [`crate::BlockSource`]. A serving process
//! routinely opens the same index many times — one handle per client
//! session, a validator next to a query engine — and without
//! coordination each open would map, parse and verify its own copy.
//! [`PageCache`] is that coordination: a map from *segment identity*
//! (canonical path + file length + mtime + footer tag) to a [`Weak`]
//! reference of the mapped segment pages.
//!
//! * **Dedup**: [`crate::BlockSource::open_shared`] upgrades the weak
//!   entry when the pages are still alive anywhere in the process, so
//!   two handles share one mapping (observable via
//!   [`crate::BlockSource::pages_addr`]).
//! * **Lifetime**: the cache holds only `Weak`s — it never pins pages.
//!   When the last handle drops, the mapping is released and the dead
//!   entry is pruned on the next access.
//! * **Accuracy per handle**: [`crate::IoStats`] lives with the handle,
//!   not the pages, so shared pages never blur per-handle accounting.
//! * **Staleness**: the identity includes length, mtime and footer tag,
//!   so a segment replaced at its path loads fresh pages instead of
//!   serving the old bytes (live handles of the old file keep their old
//!   pages, as they must: segments are published by rename, so the old
//!   file lives on under its mappings).
//!
//! One process-wide instance is available via [`PageCache::global`];
//! scoped caches can be constructed for tests or tenant isolation.

use crate::block::SegmentPages;
use crate::segment::Result;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::SystemTime;

/// Identity of one loaded segment. Length and mtime guard against a
/// file being replaced at the same path; the footer tag
/// ([`crate::segment::footer_tag`]) guards against the rewrite those
/// two miss — a same-second same-length replacement, which fast
/// flush/compact cycles produce routinely.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    path: PathBuf,
    len: u64,
    mtime: Option<SystemTime>,
    tag: u64,
}

/// One table entry: either live pages (weakly held) or a load in
/// flight that followers of the same key wait on.
enum Slot {
    Ready(Weak<SegmentPages>),
    Loading(Arc<LoadFlight>),
}

impl Slot {
    /// Whether this entry still holds anything reachable.
    fn is_live(&self) -> bool {
        match self {
            Slot::Ready(weak) => weak.strong_count() > 0,
            Slot::Loading(_) => true,
        }
    }
}

/// A cold segment being loaded by one thread. Completion carries the
/// pages on success or `None` on failure — a failed load wakes the
/// followers to retry (and surface their own I/O error) rather than
/// cloning an unclonable error.
struct LoadFlight {
    done: Mutex<Option<Option<Arc<SegmentPages>>>>,
    cv: Condvar,
}

impl LoadFlight {
    fn new() -> LoadFlight {
        LoadFlight { done: Mutex::new(None), cv: Condvar::new() }
    }

    fn complete(&self, pages: Option<Arc<SegmentPages>>) {
        *self.done.lock().expect("load flight poisoned") = Some(pages);
        self.cv.notify_all();
    }

    fn wait(&self) -> Option<Arc<SegmentPages>> {
        let mut done = self.done.lock().expect("load flight poisoned");
        loop {
            if let Some(result) = done.as_ref() {
                return result.clone();
            }
            done = self.cv.wait(done).expect("load flight poisoned");
        }
    }
}

/// A process-wide (or scoped) dedup table for mapped segment pages.
///
/// Cheap to construct and safe to share by reference from any thread;
/// all methods take `&self`.
#[derive(Default)]
pub struct PageCache {
    inner: Mutex<HashMap<CacheKey, Slot>>,
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PageCache { .. }")
    }
}

impl PageCache {
    /// A fresh, empty cache.
    pub fn new() -> PageCache {
        PageCache::default()
    }

    /// The process-wide cache every serving component defaults to.
    pub fn global() -> &'static PageCache {
        static GLOBAL: OnceLock<PageCache> = OnceLock::new();
        GLOBAL.get_or_init(PageCache::new)
    }

    /// Shared pages for the segment at `path`: the live mapping if one
    /// exists, a fresh load otherwise.
    ///
    /// A miss's I/O happens *outside* the table lock: the loader leaves
    /// a [`LoadFlight`] in the slot, so racing opens of the same cold
    /// segment still do the I/O once while opens of *other* segments
    /// proceed unblocked (one process-wide cache must never serialize
    /// unrelated indexes behind one slow load).
    pub(crate) fn get_or_load(&self, path: &Path) -> Result<Arc<SegmentPages>> {
        let meta = std::fs::metadata(path)?;
        let key = CacheKey {
            path: std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf()),
            len: meta.len(),
            mtime: meta.modified().ok(),
            tag: crate::segment::footer_tag(path)?,
        };
        enum Action {
            Use(Arc<SegmentPages>),
            Wait(Arc<LoadFlight>),
            Load(Arc<LoadFlight>),
        }
        loop {
            let action = {
                let mut table = self.inner.lock().expect("page cache poisoned");
                let live = match table.get(&key) {
                    Some(Slot::Ready(weak)) => weak.upgrade().map(Action::Use),
                    Some(Slot::Loading(flight)) => Some(Action::Wait(Arc::clone(flight))),
                    None => None,
                };
                live.unwrap_or_else(|| {
                    // Miss (or dead entry): this thread becomes the
                    // loader and leaves a flight for followers.
                    let flight = Arc::new(LoadFlight::new());
                    table.insert(key.clone(), Slot::Loading(Arc::clone(&flight)));
                    Action::Load(flight)
                })
            };
            match action {
                Action::Use(pages) => return Ok(pages),
                Action::Wait(flight) => {
                    if let Some(pages) = flight.wait() {
                        return Ok(pages);
                    }
                    // The loader we waited on failed; retry — we either
                    // become the loader ourselves (and surface the real
                    // I/O error) or join a newer successful load.
                }
                Action::Load(flight) => {
                    let loaded = SegmentPages::load(path);
                    let mut table = self.inner.lock().expect("page cache poisoned");
                    return match loaded {
                        Ok(pages) => {
                            let pages = Arc::new(pages);
                            table.insert(key, Slot::Ready(Arc::downgrade(&pages)));
                            flight.complete(Some(Arc::clone(&pages)));
                            Ok(pages)
                        }
                        Err(e) => {
                            table.remove(&key);
                            flight.complete(None);
                            Err(e)
                        }
                    };
                }
            }
        }
    }

    /// Number of segments with live (still-referenced or loading)
    /// pages.
    pub fn segments(&self) -> usize {
        let mut table = self.inner.lock().expect("page cache poisoned");
        table.retain(|_, slot| slot.is_live());
        table.len()
    }

    /// Total bytes of live mappings, each counted once
    /// however many handles share it — the honest process footprint,
    /// where summing per-handle `resident_bytes` would double-count.
    pub fn resident_bytes(&self) -> u64 {
        let mut table = self.inner.lock().expect("page cache poisoned");
        table.retain(|_, slot| slot.is_live());
        table
            .values()
            .filter_map(|slot| match slot {
                Slot::Ready(weak) => weak.upgrade().map(|pages| pages.len() as u64),
                Slot::Loading(_) => None,
            })
            .sum()
    }
}

// Every test here shares or maps pages, which only Linux has.
#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::segment::SegmentWriter;
    use crate::{BlockSource, IoStats, ServingMode, TempDir};

    fn write_demo(path: &Path) {
        let mut writer = SegmentWriter::create(path).unwrap();
        writer.write_block("alpha", b"hello world").unwrap();
        writer.write_block("beta", b"0123456789").unwrap();
        writer.finish().unwrap();
    }

    #[test]
    fn two_handles_share_one_copy() {
        let dir = TempDir::new("pagecache").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let file_len = std::fs::metadata(&path).unwrap().len();
        let cache = PageCache::new();

        let a = BlockSource::open_shared(&path, IoStats::new(), ServingMode::Mmap, &cache).unwrap();
        let b = BlockSource::open_shared(&path, IoStats::new(), ServingMode::Mmap, &cache).unwrap();
        assert_eq!(a.pages_addr(), b.pages_addr(), "both handles must serve one arena");
        assert_ne!(a.pages_addr(), 0);
        assert_eq!(cache.segments(), 1);
        assert_eq!(cache.resident_bytes(), file_len, "one copy, not two");
        // Each handle still reports its full view.
        assert_eq!(a.resident_bytes(), file_len);
        assert_eq!(b.resident_bytes(), file_len);
        // Bytes identical through both.
        assert_eq!(&*a.read_block("alpha").unwrap(), b"hello world");
        assert_eq!(&*b.read_block("alpha").unwrap(), b"hello world");
    }

    #[test]
    fn per_handle_stats_stay_separate() {
        let dir = TempDir::new("pagecache-stats").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let cache = PageCache::new();
        let stats_a = IoStats::new();
        let stats_b = IoStats::new();
        let a =
            BlockSource::open_shared(&path, stats_a.clone(), ServingMode::Mmap, &cache).unwrap();
        let b =
            BlockSource::open_shared(&path, stats_b.clone(), ServingMode::Mmap, &cache).unwrap();
        a.read_block("alpha").unwrap();
        a.read_range("beta", 0, 4).unwrap();
        b.read_block("beta").unwrap();
        assert_eq!(stats_a.cache_hits(), 2, "only A's accesses on A's counters");
        assert_eq!(stats_a.bytes_served(), 11 + 4);
        assert_eq!(stats_b.cache_hits(), 1);
        assert_eq!(stats_b.bytes_served(), 10);
    }

    #[test]
    fn unshared_opens_do_not_dedupe() {
        let dir = TempDir::new("pagecache-unshared").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let a = BlockSource::open(&path, IoStats::new(), ServingMode::Mmap).unwrap();
        let b = BlockSource::open(&path, IoStats::new(), ServingMode::Mmap).unwrap();
        assert_ne!(a.pages_addr(), b.pages_addr(), "plain open keeps private pages");
    }

    #[test]
    fn dead_entries_pruned_and_reloaded() {
        let dir = TempDir::new("pagecache-prune").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let cache = PageCache::new();
        let first_addr = {
            let src =
                BlockSource::open_shared(&path, IoStats::new(), ServingMode::Mmap, &cache).unwrap();
            assert_eq!(cache.segments(), 1);
            src.pages_addr()
        };
        // Last handle dropped: the cache no longer pins anything.
        assert_eq!(cache.segments(), 0);
        assert_eq!(cache.resident_bytes(), 0);
        // A later open loads fresh pages (possibly at a new address).
        let src =
            BlockSource::open_shared(&path, IoStats::new(), ServingMode::Mmap, &cache).unwrap();
        assert_ne!(src.pages_addr(), 0);
        let _ = first_addr; // identity of freed pages is meaningless
        assert_eq!(cache.segments(), 1);
    }

    #[test]
    fn rewritten_file_is_not_served_stale() {
        let dir = TempDir::new("pagecache-stale").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let cache = PageCache::new();
        let old =
            BlockSource::open_shared(&path, IoStats::new(), ServingMode::Mmap, &cache).unwrap();
        assert_eq!(&*old.read_block("alpha").unwrap(), b"hello world");

        // Replace the segment at the same path with different content
        // (different length → different identity even on coarse mtime).
        let mut writer = SegmentWriter::create(&path).unwrap();
        writer.write_block("alpha", b"replacement!!").unwrap();
        writer.finish().unwrap();

        let new =
            BlockSource::open_shared(&path, IoStats::new(), ServingMode::Mmap, &cache).unwrap();
        assert_eq!(&*new.read_block("alpha").unwrap(), b"replacement!!");
        // The old handle keeps its old (still-valid) pages.
        assert_eq!(&*old.read_block("alpha").unwrap(), b"hello world");
        assert_ne!(old.pages_addr(), new.pages_addr());
    }

    #[test]
    fn same_length_same_mtime_rewrite_is_not_served_stale() {
        // The staleness window the footer tag closes: a rewrite that
        // preserves both the file length and the mtime (fast
        // flush/compact cycles land within one mtime tick routinely) —
        // path + len + mtime alone would serve the old pages.
        let dir = TempDir::new("pagecache-stale-tag").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let before = std::fs::metadata(&path).unwrap();
        let cache = PageCache::new();
        let old =
            BlockSource::open_shared(&path, IoStats::new(), ServingMode::Mmap, &cache).unwrap();
        assert_eq!(&*old.read_block("alpha").unwrap(), b"hello world");

        // Same block names, same payload lengths, different bytes —
        // the rewritten file is byte-length-identical to the original.
        let mut writer = SegmentWriter::create(&path).unwrap();
        writer.write_block("alpha", b"jello world").unwrap();
        writer.write_block("beta", b"9876543210").unwrap();
        writer.finish().unwrap();
        let after = std::fs::metadata(&path).unwrap();
        assert_eq!(before.len(), after.len(), "rewrite must be length-preserving");
        // Pin the mtime back to the original's: the worst case of two
        // rebuilds inside one filesystem timestamp tick, deterministic.
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_modified(before.modified().unwrap()).unwrap();
        drop(file);
        assert_eq!(
            std::fs::metadata(&path).unwrap().modified().unwrap(),
            before.modified().unwrap()
        );

        let new =
            BlockSource::open_shared(&path, IoStats::new(), ServingMode::Mmap, &cache).unwrap();
        assert_eq!(&*new.read_block("alpha").unwrap(), b"jello world", "stale pages served");
        // The old handle keeps its old (still-valid) pages.
        assert_eq!(&*old.read_block("alpha").unwrap(), b"hello world");
        assert_ne!(old.pages_addr(), new.pages_addr());
    }

    #[test]
    fn file_mode_bypasses_the_cache() {
        let dir = TempDir::new("pagecache-file").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let cache = PageCache::new();
        let src =
            BlockSource::open_shared(&path, IoStats::new(), ServingMode::File, &cache).unwrap();
        assert_eq!(src.pages_addr(), 0);
        assert_eq!(cache.segments(), 0);
        assert_eq!(&*src.read_block("alpha").unwrap(), b"hello world");
    }

    #[test]
    fn global_cache_is_one_instance() {
        assert!(std::ptr::eq(PageCache::global(), PageCache::global()));
    }

    #[test]
    fn failed_load_clears_the_slot() {
        let dir = TempDir::new("pagecache-fail").unwrap();
        let path = dir.path().join("bogus.seg");
        std::fs::write(&path, b"not a segment at all").unwrap();
        let cache = PageCache::new();
        let err = BlockSource::open_shared(&path, IoStats::new(), ServingMode::Mmap, &cache);
        assert!(err.is_err(), "garbage must not parse");
        // No loading flight left behind: the table is empty and a valid
        // segment opens fine afterwards.
        assert_eq!(cache.segments(), 0);
        let good = dir.path().join("good.seg");
        write_demo(&good);
        let src =
            BlockSource::open_shared(&good, IoStats::new(), ServingMode::Mmap, &cache).unwrap();
        assert_eq!(&*src.read_block("alpha").unwrap(), b"hello world");
    }

    #[test]
    fn racing_cold_opens_share_one_load() {
        let dir = TempDir::new("pagecache-race").unwrap();
        let path = dir.path().join("demo.seg");
        write_demo(&path);
        let cache = PageCache::new();
        let clients = 8;
        let barrier = std::sync::Barrier::new(clients);
        // Keep every handle alive until the end: the cache holds only
        // weak references, so a dropped handle would legitimately force
        // the next open to reload.
        let sources: Vec<BlockSource> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..clients)
                .map(|_| {
                    let (cache, path, barrier) = (&cache, &path, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        BlockSource::open_shared(path, IoStats::new(), ServingMode::Mmap, cache)
                            .unwrap()
                    })
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        // One loader, everyone else joined its flight or upgraded the
        // live entry: a single arena.
        let addrs: Vec<usize> = sources.iter().map(BlockSource::pages_addr).collect();
        assert!(addrs.windows(2).all(|w| w[0] == w[1]), "{addrs:?}");
        assert_eq!(cache.segments(), 1);
    }
}
