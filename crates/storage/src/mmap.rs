//! Minimal read-only `mmap(2)` shim for Linux.
//!
//! The workspace vendors no platform crates, so the two syscalls the
//! zero-copy serving backend needs are declared as raw `extern "C"`
//! bindings against the C library the binary already links. Only what
//! [`crate::block::BlockSource`] requires is exposed: map a whole file
//! read-only, view it as `&[u8]`, unmap on drop. Everything else (the
//! directory parsing, checksums, counters) lives in safe code. Off Linux
//! a stub takes this module's place whose `map` fails with
//! `ErrorKind::Unsupported`, so every `mmap` open degrades to `file`.

use std::fs::File;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::AsRawFd;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        length: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, length: usize) -> c_int;
    fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
}

const PROT_READ: c_int = 0x1;
const MAP_PRIVATE: c_int = 0x02;
const MADV_RANDOM: c_int = 1;
const MADV_WILLNEED: c_int = 3;

/// Access-pattern hints forwarded to `madvise(2)`.
///
/// Purely advisory: errors are swallowed (a kernel that ignores the hint
/// serves the same bytes, just with default readahead), and off Linux
/// no region exists to take one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MmapAdvice {
    /// Expect random block/range access: disable speculative readahead
    /// so partition-at-a-time IRR queries don't drag neighbouring pages
    /// in with every fault.
    Random,
    /// Expect the mapping to be used soon: start readahead now, so the
    /// first queries after open fault on warm pages.
    WillNeed,
}

/// A read-only, whole-file private mapping. Pages are shared with the
/// kernel page cache, so several mappings of one segment cost its bytes
/// once.
#[derive(Debug)]
pub(crate) struct MmapRegion {
    ptr: *mut c_void,
    len: usize,
}

// SAFETY: the mapping is PROT_READ and never handed out mutably; the
// region behaves like an `Arc<[u8]>` that the kernel owns.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Map the whole of `file` read-only. Fails with the OS error if the
    /// kernel refuses (e.g. exhausted address space).
    pub(crate) fn map(file: &File) -> std::io::Result<MmapRegion> {
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            // mmap(2) rejects zero-length mappings; an empty region needs
            // no pages at all.
            return Ok(MmapRegion { ptr: std::ptr::null_mut(), len: 0 });
        }
        // SAFETY: null hint, private read-only mapping over a file
        // descriptor we own for the duration of the call; the kernel
        // validates fd/len/offset and reports MAP_FAILED on error.
        let ptr =
            unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0) };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(MmapRegion { ptr, len })
    }

    /// Forward an access-pattern hint to the kernel. Best-effort: a
    /// refused hint changes nothing about correctness, so the return
    /// code is deliberately ignored.
    pub(crate) fn advise(&self, advice: MmapAdvice) {
        if self.len == 0 {
            return;
        }
        let advice = match advice {
            MmapAdvice::Random => MADV_RANDOM,
            MmapAdvice::WillNeed => MADV_WILLNEED,
        };
        // SAFETY: exact ptr/len pair returned by mmap above; madvise
        // never invalidates the mapping.
        unsafe { madvise(self.ptr, self.len, advice) };
    }

    /// The mapped bytes.
    pub(crate) fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr/len come from a successful PROT_READ mapping that
        // lives as long as `self`; the file is append-once and never
        // truncated by this crate while mapped.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: exact ptr/len pair returned by mmap above.
            unsafe { munmap(self.ptr, self.len) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    #[test]
    fn maps_file_contents() {
        let dir = TempDir::new("mmap").unwrap();
        let path = dir.path().join("data.bin");
        std::fs::write(&path, b"mapped bytes here").unwrap();
        let file = File::open(&path).unwrap();
        let region = MmapRegion::map(&file).unwrap();
        assert_eq!(region.as_slice(), b"mapped bytes here");
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let dir = TempDir::new("mmap-empty").unwrap();
        let path = dir.path().join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let file = File::open(&path).unwrap();
        let region = MmapRegion::map(&file).unwrap();
        assert!(region.as_slice().is_empty());
    }

    #[test]
    fn advise_is_harmless_on_any_region() {
        let dir = TempDir::new("mmap-advise").unwrap();
        let path = dir.path().join("data.bin");
        std::fs::write(&path, vec![3u8; 4096]).unwrap();
        let file = File::open(&path).unwrap();
        let region = MmapRegion::map(&file).unwrap();
        region.advise(MmapAdvice::WillNeed);
        region.advise(MmapAdvice::Random);
        assert!(region.as_slice().iter().all(|&b| b == 3), "hints must not change the bytes");
        // Empty regions take the early-out path.
        let empty = MmapRegion { ptr: std::ptr::null_mut(), len: 0 };
        empty.advise(MmapAdvice::Random);
    }

    #[test]
    fn mapping_outlives_the_file_handle() {
        let dir = TempDir::new("mmap-close").unwrap();
        let path = dir.path().join("data.bin");
        std::fs::write(&path, vec![7u8; 8192]).unwrap();
        let region = {
            let file = File::open(&path).unwrap();
            MmapRegion::map(&file).unwrap()
            // `file` drops (fd closes) here; the mapping must survive.
        };
        assert!(region.as_slice().iter().all(|&b| b == 7));
    }
}
