//! Thin Linux syscall bindings for the epoll front end — the same
//! no-deps discipline as `kbtim-storage`'s mmap shim: raw `extern "C"`
//! declarations of exactly the calls used, constants copied from the
//! kernel ABI, and RAII wrappers so a dropped loop never leaks a file
//! descriptor. Linux-only: off Linux `serve --listen` refuses to
//! start, and stdin mode is what runs.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_uint};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};

// Kernel ABI constants (uapi/linux/eventpoll.h, sys/eventfd.h).
const EPOLL_CLOEXEC: c_int = 0x80000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
const EFD_NONBLOCK: c_int = 0x800;
const EFD_CLOEXEC: c_int = 0x80000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn listen(sockfd: c_int, backlog: c_int) -> c_int;
}

/// One readiness event. Packed on x86-64 (the kernel ABI packs it
/// there); natural layout elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub(crate) struct EpollEvent {
    /// `EPOLLIN` / `EPOLLOUT` / error bits.
    pub events: u32,
    /// The caller's token, returned verbatim (the loop uses connection
    /// ids).
    pub token: u64,
}

/// An `epoll(7)` instance. The fd is owned through a `File` so it
/// closes on drop without a dedicated `close(2)` extern.
pub(crate) struct Epoll {
    file: File,
}

impl Epoll {
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 has no memory preconditions; a valid
        // new fd (or -1) comes back, and File takes sole ownership.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { file: unsafe { File::from_raw_fd(fd) } })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, token };
        // SAFETY: `ev` outlives the call (the kernel copies it) and the
        // epoll fd is valid for self's lifetime.
        let rc = unsafe { epoll_ctl(self.file.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Watch `fd` (level-triggered) for readability. Write interest is
    /// re-armed later via [`Epoll::modify`] as the outbox fills and
    /// drains.
    pub(crate) fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest(true, false), token)
    }

    /// Re-arm `fd` with new interest: `readable` goes false once the
    /// peer half-closes (a level-triggered EOF would otherwise fire
    /// forever), `writable` toggles with the outbox. Error/hang-up
    /// events are always delivered, even with both off.
    pub(crate) fn modify(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest(readable, writable), token)
    }

    /// Stop watching `fd`.
    pub(crate) fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout_ms` for events. A signal interrupting the
    /// wait (`EINTR`) reports zero events — the caller's loop polls the
    /// termination latch right after, which is exactly why the wait
    /// carries a timeout at all.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the out-buffer is valid for `events.len()` entries
        // and the kernel writes at most that many.
        let rc = unsafe {
            epoll_wait(
                self.file.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as c_int,
                timeout_ms,
            )
        };
        if rc < 0 {
            let err = io::Error::last_os_error();
            return if err.kind() == io::ErrorKind::Interrupted { Ok(0) } else { Err(err) };
        }
        Ok(rc as usize)
    }
}

fn interest(readable: bool, writable: bool) -> u32 {
    (if readable { EPOLLIN | EPOLLRDHUP } else { 0 }) | (if writable { EPOLLOUT } else { 0 })
}

/// An `eventfd(2)` wake-up channel: workers signal it when a completed
/// response is ready, unblocking the event loop's `epoll_wait`.
pub(crate) struct EventFd {
    file: File,
}

impl EventFd {
    pub(crate) fn new() -> io::Result<EventFd> {
        // SAFETY: no memory preconditions; File takes sole ownership of
        // the returned fd.
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { file: unsafe { File::from_raw_fd(fd) } })
    }

    pub(crate) fn as_raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Wake the loop. A saturated counter (`WouldBlock`) is already a
    /// pending wake-up, so it is not an error.
    pub(crate) fn signal(&self) {
        let _ = (&self.file).write_all(&1u64.to_ne_bytes());
    }

    /// Consume pending wake-ups so level-triggered epoll stops
    /// reporting the fd readable.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 8];
        while (&self.file).read_exact(&mut buf).is_ok() {}
    }
}

/// Re-issue `listen(2)` on an already-listening socket to set its
/// accept backlog — `std::net::TcpListener` offers no backlog knob, and
/// a burst of thousands of advertisers connecting at once overflows the
/// default.
pub(crate) fn set_backlog(fd: RawFd, backlog: i32) -> io::Result<()> {
    // SAFETY: plain syscall on a valid listening socket fd.
    let rc = unsafe { listen(fd, backlog) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_signals_and_drains() {
        let efd = EventFd::new().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(efd.as_raw_fd(), 7).unwrap();

        // Nothing signalled yet: a zero-timeout wait reports nothing.
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        efd.signal();
        efd.signal();
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
        let (got_events, token) = (events[0].events, events[0].token);
        assert_eq!(token, 7);
        assert_ne!(got_events & EPOLLIN, 0);

        // Drained: level-triggered readiness goes away.
        efd.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        epoll.del(efd.as_raw_fd()).unwrap();
    }
}
