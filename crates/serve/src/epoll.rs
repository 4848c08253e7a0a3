//! The event loop's readiness primitives: a few-line `extern "C"` binding
//! to Linux `epoll` and `eventfd`. std already links libc, so this needs no
//! crate; the serve crate is Linux-only anyway (`/proc` in
//! [`crate::workload`]).
//!
//! Every descriptor is registered once, edge-triggered: the loop is told
//! when new bytes (or, for sockets, new send-buffer room) arrive and must
//! then drain until `WouldBlock`. No per-request `epoll_ctl` is ever
//! needed, and closing a descriptor removes it from the set.

use std::fs::File;
use std::io::{self, ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

const EPOLL_CLOEXEC: i32 = 0o2_000_000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;
const EFD_CLOEXEC: i32 = 0o2_000_000;
const EFD_NONBLOCK: i32 = 0o4_000;

/// `struct epoll_event`. The kernel packs it on x86_64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub struct Event {
    events: u32,
    data: u64,
}

impl Event {
    /// The token the descriptor was registered with.
    pub fn token(&self) -> u64 {
        self.data
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// Takes ownership of a descriptor a syscall returned, mapping `-1` to the
/// thread's `errno`.
///
/// # Safety
/// `fd` is `-1` or an open descriptor that nothing else owns or closes.
unsafe fn owned(fd: i32) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: the caller guarantees `fd` is open and unowned.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// What a registration reports.
#[derive(Clone, Copy)]
pub enum Interest {
    /// New bytes (or connections, or wakes) to read.
    Read,
    /// New bytes, new send-buffer room, and peer hang-up: a connection.
    /// Not for the eventfd, whose every read is itself a write-room edge.
    ReadWrite,
}

/// An epoll set.
pub struct Poller {
    fd: OwnedFd,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        // SAFETY: no pointers; the kernel returns a fresh descriptor or -1.
        Ok(Poller { fd: unsafe { owned(epoll_create1(EPOLL_CLOEXEC)) }? })
    }

    /// Adds `fd`, edge-triggered for `interest`, reporting `token`.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let events = match interest {
            Interest::Read => EPOLLIN,
            Interest::ReadWrite => EPOLLIN | EPOLLOUT | EPOLLRDHUP,
        };
        let mut event = Event { events: events | EPOLLET, data: token };
        // SAFETY: `event` is a valid `struct epoll_event` for the call.
        if unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut event) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until a registered descriptor is ready or `timeout` passes
    /// (`None` waits indefinitely), filling `events` and returning how many
    /// it filled. The timeout rounds up to whole milliseconds, so a wait
    /// never ends before its deadline. An interrupted wait returns 0.
    pub fn wait(&self, events: &mut [Event], timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms = timeout
            .map_or(-1, |t| i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX));
        let capacity = i32::try_from(events.len()).unwrap_or(i32::MAX);
        // SAFETY: `events` is writable for `capacity` entries.
        let n =
            unsafe { epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), capacity, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            return if err.kind() == ErrorKind::Interrupted { Ok(0) } else { Err(err) };
        }
        Ok(n as usize)
    }
}

/// A nonblocking eventfd: any thread can [`wake`](Waker::wake) an epoll
/// set it is registered in.
pub struct Waker {
    file: File,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        // SAFETY: no pointers; the kernel returns a fresh descriptor or -1.
        let fd = unsafe { owned(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) }?;
        Ok(Waker { file: File::from(fd) })
    }

    /// Makes the descriptor readable. A full counter (`WouldBlock`) is
    /// already readable, so every error is safe to ignore.
    pub fn wake(&self) {
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }

    /// Consumes pending wakes, so the next [`wake`](Waker::wake) is a
    /// fresh edge.
    pub fn reset(&self) {
        let _ = (&self.file).read(&mut [0u8; 8]);
    }
}

impl AsRawFd for Waker {
    fn as_raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn a_wake_ends_the_wait_and_an_idle_set_times_out() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.as_raw_fd(), 7, Interest::Read).unwrap();
        let mut events = [Event::default(); 4];

        let started = Instant::now();
        assert_eq!(poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(started.elapsed() >= Duration::from_millis(20), "a wait ended early");

        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(10));
                waker.wake();
            });
            assert_eq!(poller.wait(&mut events, None).unwrap(), 1);
        });
        assert_eq!(events[0].token(), 7);
        waker.reset();
        assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)).unwrap(), 0);
    }
}
