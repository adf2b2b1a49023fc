//! Readiness polling without libc: thin `poll(2)` / `epoll(7)` shims.
//!
//! The event-loop core needs exactly one OS facility the Rust standard
//! library doesn't expose — "which of these sockets are readable or
//! writable right now?". On Linux we declare `poll(2)` and the epoll
//! family directly (the same pattern `server.rs` already uses for
//! `signal(2)`: an `extern "C"` block against the platform libc the
//! binary is linked to anyway, no crate dependency). On other Unixes
//! we fall back to a short-sleep "everything might be ready" tick —
//! spurious readiness is fine because every consumer handles
//! `WouldBlock`.
//!
//! Two tiers:
//! - [`wait`]: stateless one-shot `poll(2)` over an interest slice.
//!   O(interests) per call — right for small, shifting fd sets (the
//!   bench driver's in-flight window, tests).
//! - [`Poller`]: a persistent registration set (epoll on Linux). The
//!   kernel tracks the fds; each wait returns only the *ready* ones,
//!   so a 10k-connection server pays O(ready), not O(connections),
//!   per tick. This is what lets the event core hold its 1k-connection
//!   throughput at 10k.
//!
//! Also here, for the same no-deps reason:
//! - [`Waker`]: a nonblocking [`UnixStream`] pair that lets the
//!   dispatcher thread interrupt the poll wait when batched replies
//!   complete (satellite: readiness wakeups instead of sleep ticks);
//! - [`raise_nofile_limit`]: a `setrlimit(RLIMIT_NOFILE)` shim so the
//!   connection-scaling bench can open 2×10k sockets in one process.

use std::io::{Read, Write};
use std::os::unix::io::RawFd;
use std::os::unix::net::UnixStream;
use std::sync::Mutex;
use std::time::Duration;

/// What a caller wants to hear about one fd.
#[derive(Clone, Copy, Debug)]
pub struct Interest {
    pub fd: RawFd,
    pub read: bool,
    pub write: bool,
}

/// What the poll reported for one fd (same index as the interest).
#[derive(Clone, Copy, Debug, Default)]
pub struct Readiness {
    pub readable: bool,
    pub writable: bool,
    /// Error/hangup/invalid — the connection should be read (to drain
    /// the EOF) or reaped.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct pollfd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        // int poll(struct pollfd *fds, nfds_t nfds, int timeout);
        // nfds_t is unsigned long on Linux.
        pub fn poll(fds: *mut pollfd, nfds: u64, timeout: i32) -> i32;
    }
}

/// Blocks until at least one interest is ready, the timeout elapses,
/// or a signal interrupts. Returns one [`Readiness`] per interest, in
/// order; all-false on timeout.
#[cfg(target_os = "linux")]
pub fn wait(interests: &[Interest], timeout: Duration) -> Vec<Readiness> {
    let mut fds: Vec<sys::pollfd> = interests
        .iter()
        .map(|i| sys::pollfd {
            fd: i.fd,
            events: (if i.read { sys::POLLIN } else { 0 })
                | (if i.write { sys::POLLOUT } else { 0 }),
            revents: 0,
        })
        .collect();
    let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
    if rc <= 0 {
        // Timeout, or EINTR (a signal): either way report nothing
        // ready; the loop re-checks shutdown flags and polls again.
        return vec![Readiness::default(); interests.len()];
    }
    fds.iter()
        .map(|p| Readiness {
            readable: p.revents & sys::POLLIN != 0,
            writable: p.revents & sys::POLLOUT != 0,
            hangup: p.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0,
        })
        .collect()
}

/// Portable fallback: a short sleep, then "everything you asked about
/// may be ready". Spurious readiness is safe — nonblocking reads and
/// writes simply return `WouldBlock` — it just costs extra syscalls.
#[cfg(not(target_os = "linux"))]
pub fn wait(interests: &[Interest], timeout: Duration) -> Vec<Readiness> {
    std::thread::sleep(timeout.min(Duration::from_millis(5)));
    interests
        .iter()
        .map(|i| Readiness {
            readable: i.read,
            writable: i.write,
            hangup: false,
        })
        .collect()
}

/// A cross-thread poll interrupter: the write half is `wake()`-able
/// from any thread, the read half sits in the event loop's interest
/// set so a wake turns into POLLIN readiness.
pub struct Waker {
    tx: Mutex<UnixStream>,
}

/// The event-loop half of a [`Waker`]: poll its `fd()`, then `drain()`
/// when it reads ready.
pub struct WakeRx {
    rx: UnixStream,
}

/// Builds a connected waker pair. Both halves are nonblocking: a full
/// pipe means a wake is already pending, which is all we need.
pub fn waker() -> std::io::Result<(Waker, WakeRx)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx: Mutex::new(tx) }, WakeRx { rx }))
}

impl Waker {
    /// Interrupts the poll wait. Idempotent while a wake is pending.
    pub fn wake(&self) {
        let mut tx = self.tx.lock().unwrap();
        // WouldBlock ⇒ the pipe already holds an undrained wake; any
        // other error ⇒ the loop is gone and nobody is listening.
        let _ = tx.write(&[1]);
    }
}

impl WakeRx {
    pub fn fd(&self) -> RawFd {
        use std::os::unix::io::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// Swallows every pending wake byte.
    pub fn drain(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.rx.read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// One ready fd from [`Poller::wait`], tagged with the caller's token.
#[derive(Clone, Copy, Debug)]
pub struct PollEvent {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Error/hangup/invalid — the connection should be read (to drain
    /// the EOF) or reaped.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod epoll_sys {
    // The kernel reads/writes epoll_event as a packed 12-byte record on
    // x86-64 (and a naturally aligned one elsewhere); mirror libc's
    // layout exactly or the event array is misparsed.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: i32 = 0x80000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut epoll_event) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut epoll_event, maxevents: i32, timeout: i32)
            -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

/// A persistent readiness-notification set: epoll-backed on Linux, a
/// registration list replayed through [`wait`] elsewhere. Registrations
/// survive across waits, so the per-tick cost is O(ready fds).
#[cfg(target_os = "linux")]
pub struct Poller {
    epfd: i32,
    buf: Vec<epoll_sys::epoll_event>,
}

#[cfg(target_os = "linux")]
impl Poller {
    pub fn new() -> std::io::Result<Poller> {
        let epfd = unsafe { epoll_sys::epoll_create1(epoll_sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            buf: vec![epoll_sys::epoll_event { events: 0, data: 0 }; 1024],
        })
    }

    fn mask(read: bool, write: bool) -> u32 {
        (if read { epoll_sys::EPOLLIN } else { 0 }) | (if write { epoll_sys::EPOLLOUT } else { 0 })
    }

    fn ctl(&mut self, op: i32, fd: RawFd, token: u64, read: bool, write: bool) -> i32 {
        let mut ev = epoll_sys::epoll_event {
            events: Self::mask(read, write),
            data: token,
        };
        unsafe { epoll_sys::epoll_ctl(self.epfd, op, fd, &mut ev) }
    }

    /// Registers an fd. The token comes back verbatim in every event.
    pub fn add(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> std::io::Result<()> {
        if self.ctl(epoll_sys::EPOLL_CTL_ADD, fd, token, read, write) != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    /// Rewrites an fd's interest mask. Best-effort: a racing close is
    /// benign (the fd left the set on close).
    pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) {
        let _ = self.ctl(epoll_sys::EPOLL_CTL_MOD, fd, token, read, write);
    }

    /// Drops an fd from the set. Closing the fd does this implicitly;
    /// explicit removal keeps the fallback backend in sync too.
    pub fn remove(&mut self, fd: RawFd) {
        let _ = self.ctl(epoll_sys::EPOLL_CTL_DEL, fd, 0, false, false);
    }

    /// Blocks until something is ready or the timeout elapses, filling
    /// `out` with one event per ready fd (empty on timeout/EINTR).
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) {
        out.clear();
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        let n = unsafe {
            epoll_sys::epoll_wait(self.epfd, self.buf.as_mut_ptr(), self.buf.len() as i32, ms)
        };
        for ev in self.buf.iter().take(n.max(0) as usize) {
            let bits = ev.events;
            out.push(PollEvent {
                token: ev.data,
                readable: bits & epoll_sys::EPOLLIN != 0,
                writable: bits & epoll_sys::EPOLLOUT != 0,
                hangup: bits & (epoll_sys::EPOLLERR | epoll_sys::EPOLLHUP) != 0,
            });
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            epoll_sys::close(self.epfd);
        }
    }
}

/// Fallback backend: remembers registrations and replays them through
/// the stateless [`wait`] each tick — O(registered) per wait, which is
/// fine for the platforms that land here. Compiled on every platform
/// (it's [`Poller`] off Linux) so the Linux CI run exercises the exact
/// registration-replay code other Unixes ship with; on Linux the
/// stateless [`wait`] underneath is `poll(2)`, so its reports are real
/// readiness, not the sleep-tick approximation.
pub struct FallbackPoller {
    regs: Vec<(RawFd, u64, bool, bool)>,
}

/// Off Linux, the registration-replay fallback *is* the poller.
#[cfg(not(target_os = "linux"))]
pub type Poller = FallbackPoller;

impl FallbackPoller {
    pub fn new() -> std::io::Result<FallbackPoller> {
        Ok(FallbackPoller { regs: Vec::new() })
    }

    pub fn add(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> std::io::Result<()> {
        self.regs.push((fd, token, read, write));
        Ok(())
    }

    pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) {
        if let Some(r) = self.regs.iter_mut().find(|r| r.0 == fd) {
            *r = (fd, token, read, write);
        }
    }

    pub fn remove(&mut self, fd: RawFd) {
        self.regs.retain(|r| r.0 != fd);
    }

    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) {
        out.clear();
        let interests: Vec<Interest> = self
            .regs
            .iter()
            .map(|&(fd, _, read, write)| Interest { fd, read, write })
            .collect();
        for (r, &(_, token, ..)) in wait(&interests, timeout).iter().zip(self.regs.iter()) {
            if r.readable || r.writable || r.hangup {
                out.push(PollEvent {
                    token,
                    readable: r.readable,
                    writable: r.writable,
                    hangup: r.hangup,
                });
            }
        }
    }
}

#[cfg(target_os = "linux")]
mod rlimit_sys {
    #[repr(C)]
    pub struct rlimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    pub const RLIMIT_NOFILE: i32 = 7;

    extern "C" {
        pub fn getrlimit(resource: i32, rlim: *mut rlimit) -> i32;
        pub fn setrlimit(resource: i32, rlim: *const rlimit) -> i32;
    }
}

/// Tries to raise the open-file soft limit to at least `want`,
/// returning the soft limit actually in effect afterwards. Used by the
/// connection-scaling bench (10k connections ⇒ 20k+ fds in one
/// process); callers scale their plans down to whatever comes back.
#[cfg(target_os = "linux")]
pub fn raise_nofile_limit(want: u64) -> u64 {
    unsafe {
        let mut cur = rlimit_sys::rlimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        if rlimit_sys::getrlimit(rlimit_sys::RLIMIT_NOFILE, &mut cur) != 0 {
            return want.min(1024);
        }
        if cur.rlim_cur >= want {
            return cur.rlim_cur;
        }
        // Privileged processes may raise the hard limit too; others
        // get clamped at rlim_max by the kernel, so try the generous
        // ask first and fall back to the hard cap.
        let generous = rlimit_sys::rlimit {
            rlim_cur: want,
            rlim_max: cur.rlim_max.max(want),
        };
        if rlimit_sys::setrlimit(rlimit_sys::RLIMIT_NOFILE, &generous) != 0 {
            let clamped = rlimit_sys::rlimit {
                rlim_cur: want.min(cur.rlim_max),
                rlim_max: cur.rlim_max,
            };
            let _ = rlimit_sys::setrlimit(rlimit_sys::RLIMIT_NOFILE, &clamped);
        }
        if rlimit_sys::getrlimit(rlimit_sys::RLIMIT_NOFILE, &mut cur) != 0 {
            return want.min(1024);
        }
        cur.rlim_cur
    }
}

/// Non-Linux: report the current limit as unknown-but-probably-fine;
/// the bench will find out from `accept`/`connect` errors and shrink.
#[cfg(not(target_os = "linux"))]
pub fn raise_nofile_limit(want: u64) -> u64 {
    want
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn waker_interrupts_and_drains() {
        let (waker, mut rx) = waker().expect("waker pair");
        waker.wake();
        waker.wake(); // coalesces, never blocks
        let ready = wait(
            &[Interest {
                fd: rx.fd(),
                read: true,
                write: false,
            }],
            Duration::from_secs(5),
        );
        assert!(ready[0].readable, "wake byte must trip POLLIN");
        rx.drain();
        let ready = wait(
            &[Interest {
                fd: rx.fd(),
                read: true,
                write: false,
            }],
            Duration::from_millis(10),
        );
        assert!(!ready[0].readable || cfg!(not(target_os = "linux")));
    }

    #[test]
    fn poll_reports_connectable_listener_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let ready = wait(
            &[Interest {
                fd: listener.as_raw_fd(),
                read: true,
                write: false,
            }],
            Duration::from_millis(20),
        );
        assert!(!ready[0].readable, "nothing pending yet");
        let _client = TcpStream::connect(addr).expect("connect");
        let ready = wait(
            &[Interest {
                fd: listener.as_raw_fd(),
                read: true,
                write: false,
            }],
            Duration::from_secs(5),
        );
        assert!(ready[0].readable, "pending accept must trip POLLIN");
    }

    #[test]
    fn poller_tracks_registrations_across_waits() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let mut poller = Poller::new().expect("poller");
        poller
            .add(listener.as_raw_fd(), 7, true, false)
            .expect("add listener");
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(20));
        // (The non-Linux fallback reports spurious readiness by design.)
        assert!(
            events.is_empty() || cfg!(not(target_os = "linux")),
            "nothing pending yet: {events:?}"
        );
        let _client = TcpStream::connect(addr).expect("connect");
        poller.wait(&mut events, Duration::from_secs(5));
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "pending accept must surface with its token: {events:?}"
        );
        // After removal the pending accept no longer reports.
        poller.remove(listener.as_raw_fd());
        poller.wait(&mut events, Duration::from_millis(20));
        assert!(
            !events.iter().any(|e| e.token == 7),
            "removed fd must not report: {events:?}"
        );
    }

    /// The registration-replay fallback must tick the same way the
    /// platform poller does: on a connected loopback pair, quiet fds
    /// stay quiet, a written byte trips readability on exactly the
    /// right token, and write interest reports writable. On Linux both
    /// sides of the comparison are real kernel readiness (epoll vs
    /// `poll(2)` replay), so the assertions are exact.
    #[test]
    fn fallback_poller_matches_platform_poller_on_loopback_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        client.set_nonblocking(true).unwrap();
        server.set_nonblocking(true).unwrap();

        let mut platform = Poller::new().expect("platform poller");
        let mut fallback = FallbackPoller::new().expect("fallback poller");
        platform.add(client.as_raw_fd(), 1, true, false).unwrap();
        platform.add(server.as_raw_fd(), 2, true, false).unwrap();
        fallback.add(client.as_raw_fd(), 1, true, false).unwrap();
        fallback.add(server.as_raw_fd(), 2, true, false).unwrap();

        let tick = |poller: &mut dyn FnMut(&mut Vec<PollEvent>, Duration)| {
            let mut events = Vec::new();
            poller(&mut events, Duration::from_millis(200));
            let mut tokens: Vec<u64> = events
                .iter()
                .filter(|e| e.readable)
                .map(|e| e.token)
                .collect();
            tokens.sort_unstable();
            tokens
        };

        // Quiet pair: neither backend reports readable fds. (Off Linux
        // the fallback is allowed its by-design spurious readiness, so
        // the exact comparisons below are gated to Linux.)
        if cfg!(target_os = "linux") {
            assert_eq!(tick(&mut |ev, t| platform.wait(ev, t)), Vec::<u64>::new());
            assert_eq!(tick(&mut |ev, t| fallback.wait(ev, t)), Vec::<u64>::new());
        }

        // One byte client→server: both backends must report exactly the
        // server token readable, and keep reporting it until drained.
        (&client).write_all(&[0x42]).expect("write");
        let expect = vec![2u64];
        assert_eq!(tick(&mut |ev, t| platform.wait(ev, t)), expect);
        if cfg!(target_os = "linux") {
            assert_eq!(
                tick(&mut |ev, t| fallback.wait(ev, t)),
                expect,
                "fallback replay must match epoll on the written fd"
            );
        } else {
            assert!(tick(&mut |ev, t| fallback.wait(ev, t)).contains(&2));
        }

        // Drain, then flip the server registration to write interest:
        // an idle socket with buffer space is writable under both.
        let mut sink = [0u8; 8];
        let _ = (&server).read(&mut sink);
        platform.modify(server.as_raw_fd(), 2, false, true);
        fallback.modify(server.as_raw_fd(), 2, false, true);
        let writable = |events: &Vec<PollEvent>| events.iter().any(|e| e.token == 2 && e.writable);
        let mut events = Vec::new();
        platform.wait(&mut events, Duration::from_millis(200));
        assert!(writable(&events), "epoll: {events:?}");
        fallback.wait(&mut events, Duration::from_millis(200));
        assert!(writable(&events), "fallback: {events:?}");
        if cfg!(target_os = "linux") {
            assert!(
                !events.iter().any(|e| e.token == 1),
                "quiet client must stay quiet under the fallback: {events:?}"
            );
        }

        // Removal is honored by the replay list just like the kernel set.
        fallback.remove(server.as_raw_fd());
        fallback.wait(&mut events, Duration::from_millis(50));
        assert!(
            !events.iter().any(|e| e.token == 2),
            "removed fd must not report: {events:?}"
        );
    }

    #[test]
    fn nofile_limit_reports_something_sane() {
        let got = raise_nofile_limit(4096);
        assert!(got >= 256, "soft nofile limit {got} suspiciously low");
    }
}
