//! Thin, dependency-free readiness multiplexing over `poll(2)` and
//! `epoll(7)`.
//!
//! The serving stack's event-driven session engine multiplexes every
//! connected socket on a fixed set of event-loop threads; this module is
//! the only place it touches the operating system's readiness interface.
//! It binds the system calls directly through the C library the Rust
//! standard library already links — no `libc` crate, no async runtime —
//! and keeps the surface tiny: a [`Reactor`] trait with two std-only
//! implementations, a [`Waker`] built on a non-blocking `UnixStream`
//! pair so other threads can interrupt a sleeping reactor, and the raw
//! [`poll_fds`]/[`PollFd`] primitives the portable backend is built on.
//!
//! The backend is fixed at build time by the target OS:
//! [`PlatformReactor`] is [`EpollReactor`] on Linux and [`PollReactor`]
//! everywhere else. There is no runtime switch, because the two do the
//! same work and only their wait cost differs. [`PollReactor`] sweeps
//! every registered descriptor in one `poll(2)` call per wait, so a
//! wakeup costs O(registered) in user and kernel time. [`EpollReactor`]
//! keeps interest registered in the kernel across waits and caches each
//! descriptor's interest in user space. It issues `epoll_ctl` **only
//! when a session's computed interest actually changes**, so an idle
//! session costs no syscall per iteration and `epoll_wait` returns in
//! O(ready). With one ready session among N idle ones, a poll wakeup
//! took ≈0.6 ms at N = 2,000 and ≈3 ms at N = 9,000, against under
//! 1 µs for epoll (DESIGN.md §15.1). [`PollReactor`] stays compiled on Linux
//! too: it is the only backend off Linux, and the contract test below
//! runs on both.
//!
//! # The `Reactor` contract
//!
//! Implementations agree on these semantics, and one generic unit test
//! (`reactor_contract`) holds both backends to them:
//!
//! - **Spurious wakeups are allowed.** [`Reactor::wait`] may report a
//!   descriptor that then yields `WouldBlock`; callers must treat
//!   readiness as a hint and retry on the next event.
//! - **Hangup and error are always reported**, whether or not the caller
//!   registered read or write interest — a reactor never hides a dying
//!   descriptor behind an empty interest set.
//! - **EOF counts as readable.** A peer hangup surfaces through
//!   [`ReadyEvent::readable`] so the owner performs the read that
//!   observes EOF (or the pending error) and tears the session down, the
//!   same way on every backend.
//! - **[`Reactor::register`] is an upsert**: first call adds the
//!   descriptor, later calls update its interest, and updates that match
//!   the cached interest are free (no syscall).
//! - **[`Reactor::deregister`] must precede `close(2)`** of the
//!   descriptor; afterwards no further events for it are delivered.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::os::fd::RawFd;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// Readiness: data can be read without blocking (`POLLIN`).
pub const POLLIN: i16 = 0x001;
/// Readiness: data can be written without blocking (`POLLOUT`).
pub const POLLOUT: i16 = 0x004;
/// Condition: an error is pending on the descriptor (`POLLERR`).
pub const POLLERR: i16 = 0x008;
/// Condition: the peer hung up (`POLLHUP`).
pub const POLLHUP: i16 = 0x010;
/// Condition: the descriptor is not open (`POLLNVAL`).
pub const POLLNVAL: i16 = 0x020;

/// One entry of a `poll(2)` set: a file descriptor, the events the
/// caller is interested in, and the events the kernel reported. Layout
/// matches `struct pollfd` exactly (three naturally-aligned fields, no
/// padding), so a `&mut [PollFd]` can be handed to the system call
/// directly.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// An entry watching `fd` for readability and/or writability.
    /// `POLLERR`/`POLLHUP` are always reported by the kernel and need no
    /// registration.
    pub fn new(fd: RawFd, read: bool, write: bool) -> PollFd {
        let mut events = 0i16;
        if read {
            events |= POLLIN;
        }
        if write {
            events |= POLLOUT;
        }
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The descriptor this entry watches.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// True when the kernel reported any event at all on this entry.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }

    /// True when a read will not block — includes hangup and error, which
    /// a read must observe (as EOF or a hard error) to make progress.
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }

    /// True when a write will not block.
    pub fn writable(&self) -> bool {
        self.revents & POLLOUT != 0
    }

    /// True when the descriptor is in an error or invalid state and the
    /// connection should be torn down.
    pub fn error(&self) -> bool {
        self.revents & (POLLERR | POLLNVAL) != 0
    }

    /// True when the peer hung up its end.
    pub fn hangup(&self) -> bool {
        self.revents & POLLHUP != 0
    }
}

// `poll(2)` from the C library the standard library already links. The
// signature matches POSIX: `int poll(struct pollfd *fds, nfds_t nfds,
// int timeout)`; `nfds_t` is `unsigned long` on every supported Unix.
extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int)
        -> std::ffi::c_int;
}

/// Wait until at least one entry is ready or the timeout passes. Returns
/// the number of ready entries (0 on timeout). `EINTR` is retried
/// transparently; the timeout is re-armed in full on retry, which biases
/// long — acceptable for an event loop that re-checks its work queues on
/// every wakeup anyway.
pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let millis = timeout.as_millis().min(std::ffi::c_int::MAX as u128) as std::ffi::c_int;
    loop {
        // SAFETY: `fds` is a valid, exclusively-borrowed slice of
        // `#[repr(C)]` pollfd-layout structs; the kernel writes only the
        // `revents` fields within bounds.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, millis) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            continue;
        }
        return Err(err);
    }
}

/// What a registered descriptor should be watched for. Hangup and error
/// conditions are always reported and need no registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report when a read would not block (includes EOF and errors).
    pub read: bool,
    /// Report when a write would not block.
    pub write: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle session.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };

    /// Interest covering both directions.
    pub fn new(read: bool, write: bool) -> Interest {
        Interest { read, write }
    }
}

/// One readiness report from [`Reactor::wait`], carrying the token the
/// descriptor was registered under. Accessors share the exact semantics
/// of [`PollFd`] so swapping backends cannot change how the engine
/// interprets an event.
#[derive(Debug, Clone, Copy)]
pub struct ReadyEvent {
    token: u64,
    revents: i16,
}

impl ReadyEvent {
    /// The token supplied at registration time.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// True when a read will not block — includes hangup and error, which
    /// a read must observe (as EOF or a hard error) to make progress.
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }

    /// True when a write will not block.
    pub fn writable(&self) -> bool {
        self.revents & POLLOUT != 0
    }

    /// True when the descriptor is in an error or invalid state and the
    /// connection should be torn down.
    pub fn error(&self) -> bool {
        self.revents & (POLLERR | POLLNVAL) != 0
    }

    /// True when the peer hung up its end.
    pub fn hangup(&self) -> bool {
        self.revents & POLLHUP != 0
    }
}

/// Cumulative counters a reactor keeps about its own syscall traffic;
/// surfaced per shard through the server's STATS reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Blocking wait syscalls issued (`poll`/`epoll_wait`).
    pub wait_calls: u64,
    /// Interest-mutation syscalls issued (`epoll_ctl`; always zero for
    /// the `poll` backend, which carries interest in each wait call).
    pub ctl_calls: u64,
    /// Readiness events handed back to the caller across all waits.
    pub events_dispatched: u64,
}

/// A readiness multiplexer the session engine drives. See the module
/// docs for the cross-backend contract (spurious wakeups allowed,
/// hangup/error always reported, register-as-upsert, deregister before
/// close).
pub trait Reactor: Send {
    /// Add `fd` under `token`, or update its interest if already
    /// registered. Re-registering with unchanged interest is free.
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;

    /// Stop watching `fd`. Must be called before the descriptor is
    /// closed; afterwards no further events for it are delivered.
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;

    /// Wait until at least one registered descriptor is ready or the
    /// timeout passes. Clears `events` and fills it with the ready set;
    /// returns the number of events (0 on timeout).
    fn wait(&mut self, timeout: Duration, events: &mut Vec<ReadyEvent>) -> io::Result<usize>;

    /// Cumulative syscall counters for this reactor instance.
    fn stats(&self) -> ReactorStats;
}

/// The reactor the serving engine drives on this target: [`EpollReactor`]
/// on Linux.
#[cfg(target_os = "linux")]
pub type PlatformReactor = EpollReactor;

/// The reactor the serving engine drives on this target: [`PollReactor`]
/// off Linux.
#[cfg(not(target_os = "linux"))]
pub type PlatformReactor = PollReactor;

/// The portable backend: an interest table swept by one `poll(2)` call
/// per wait. A `BTreeMap` keeps the sweep order deterministic (and keeps
/// the determinism linter quiet without an allowlist entry).
pub struct PollReactor {
    interests: BTreeMap<RawFd, (u64, Interest)>,
    scratch: Vec<PollFd>,
    stats: ReactorStats,
}

impl PollReactor {
    /// An empty reactor; registration populates the table. Never fails;
    /// the `io::Result` matches [`EpollReactor::new`] so either type can
    /// stand behind [`PlatformReactor`].
    pub fn new() -> io::Result<PollReactor> {
        Ok(PollReactor {
            interests: BTreeMap::new(),
            scratch: Vec::new(),
            stats: ReactorStats::default(),
        })
    }
}

impl Reactor for PollReactor {
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.interests.insert(fd, (token, interest));
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.interests.remove(&fd);
        Ok(())
    }

    fn wait(&mut self, timeout: Duration, events: &mut Vec<ReadyEvent>) -> io::Result<usize> {
        events.clear();
        self.scratch.clear();
        for (&fd, &(_, interest)) in &self.interests {
            self.scratch
                .push(PollFd::new(fd, interest.read, interest.write));
        }
        self.stats.wait_calls += 1;
        let n = poll_fds(&mut self.scratch, timeout)?;
        if n > 0 {
            for entry in &self.scratch {
                if entry.ready() {
                    let (token, _) = self.interests[&entry.fd()];
                    events.push(ReadyEvent {
                        token,
                        revents: entry.revents,
                    });
                }
            }
        }
        self.stats.events_dispatched += events.len() as u64;
        Ok(events.len())
    }

    fn stats(&self) -> ReactorStats {
        self.stats
    }
}

/// `struct epoll_event`: a 32-bit event mask plus 64 bits of user data
/// (we store the registration token). The kernel ABI packs this struct
/// on x86-64 only; other architectures use natural alignment.
#[cfg(target_os = "linux")]
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(target_os = "linux")]
const EPOLL_CTL_ADD: std::ffi::c_int = 1;
#[cfg(target_os = "linux")]
const EPOLL_CTL_DEL: std::ffi::c_int = 2;
#[cfg(target_os = "linux")]
const EPOLL_CTL_MOD: std::ffi::c_int = 3;
#[cfg(target_os = "linux")]
const EPOLL_CLOEXEC: std::ffi::c_int = 0x80000;
// epoll's event bits coincide with poll's for everything this module
// registers or reports (IN/OUT/ERR/HUP), so translating a kernel report
// into `ReadyEvent`'s poll-bit representation is a masked narrowing.
#[cfg(target_os = "linux")]
const EPOLL_REPORT_MASK: u32 = (POLLIN | POLLOUT | POLLERR | POLLHUP) as u32;

// `epoll(7)` and `close(2)` from the C library the standard library
// already links, same binding style as `poll` above.
#[cfg(target_os = "linux")]
extern "C" {
    fn epoll_create1(flags: std::ffi::c_int) -> std::ffi::c_int;
    fn epoll_ctl(
        epfd: std::ffi::c_int,
        op: std::ffi::c_int,
        fd: std::ffi::c_int,
        event: *mut EpollEvent,
    ) -> std::ffi::c_int;
    fn epoll_wait(
        epfd: std::ffi::c_int,
        events: *mut EpollEvent,
        maxevents: std::ffi::c_int,
        timeout: std::ffi::c_int,
    ) -> std::ffi::c_int;
    fn close(fd: std::ffi::c_int) -> std::ffi::c_int;
}

/// The Linux backend: kernel-resident interest behind a user-space
/// cache, so `epoll_ctl` is issued only when a descriptor's `(token,
/// interest)` actually changes. Level-triggered throughout — the engine
/// may leave bytes unconsumed between iterations, and level triggering
/// re-reports them without edge-triggered re-arm bookkeeping.
#[cfg(target_os = "linux")]
pub struct EpollReactor {
    epfd: RawFd,
    interests: BTreeMap<RawFd, (u64, Interest)>,
    scratch: Vec<EpollEvent>,
    stats: ReactorStats,
}

#[cfg(target_os = "linux")]
impl EpollReactor {
    /// A fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<EpollReactor> {
        // SAFETY: plain syscall, no pointers.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollReactor {
            epfd,
            interests: BTreeMap::new(),
            scratch: Vec::new(),
            stats: ReactorStats::default(),
        })
    }

    fn ctl(
        &mut self,
        op: std::ffi::c_int,
        fd: RawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: (interest.read as u32 * POLLIN as u32)
                | (interest.write as u32 * POLLOUT as u32),
            data: token,
        };
        self.stats.ctl_calls += 1;
        // SAFETY: `ev` is a valid exclusive borrow of a `#[repr(C)]`
        // epoll_event; the kernel only reads it (and ignores it for DEL).
        if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Reactor for EpollReactor {
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self.interests.get(&fd) {
            Some(&cached) if cached == (token, interest) => Ok(()),
            Some(_) => {
                self.ctl(EPOLL_CTL_MOD, fd, token, interest)?;
                self.interests.insert(fd, (token, interest));
                Ok(())
            }
            None => {
                self.ctl(EPOLL_CTL_ADD, fd, token, interest)?;
                self.interests.insert(fd, (token, interest));
                Ok(())
            }
        }
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        if self.interests.remove(&fd).is_none() {
            return Ok(());
        }
        match self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::new(false, false)) {
            Ok(()) => Ok(()),
            // The kernel auto-deregisters a closed descriptor; a DEL
            // racing that close is not an engine bug.
            Err(e) if matches!(e.raw_os_error(), Some(2 /* ENOENT */) | Some(9 /* EBADF */)) => {
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn wait(&mut self, timeout: Duration, events: &mut Vec<ReadyEvent>) -> io::Result<usize> {
        events.clear();
        let cap = self.interests.len().clamp(64, 4096);
        self.scratch.resize(cap, EpollEvent { events: 0, data: 0 });
        let millis = timeout.as_millis().min(std::ffi::c_int::MAX as u128) as std::ffi::c_int;
        let n = loop {
            self.stats.wait_calls += 1;
            // SAFETY: `scratch` is a valid, exclusively-borrowed buffer of
            // `cap` epoll_event slots; the kernel writes at most `cap`.
            let rc = unsafe {
                epoll_wait(
                    self.epfd,
                    self.scratch.as_mut_ptr(),
                    cap as std::ffi::c_int,
                    millis,
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return Err(err);
        };
        for ev in &self.scratch[..n] {
            let raw = { *ev };
            events.push(ReadyEvent {
                token: raw.data,
                revents: (raw.events & EPOLL_REPORT_MASK) as i16,
            });
        }
        self.stats.events_dispatched += n as u64;
        Ok(n)
    }

    fn stats(&self) -> ReactorStats {
        self.stats
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollReactor {
    fn drop(&mut self) {
        // SAFETY: `epfd` is owned by this reactor and closed exactly once.
        unsafe {
            close(self.epfd);
        }
    }
}

/// A cross-thread wakeup channel for a poller: the receiving half joins
/// the poll set, senders write a byte to interrupt the sleep.
///
/// Built on a non-blocking `UnixStream` pair instead of a pipe so the
/// whole module stays inside `std`. The socket buffer bounds queued
/// wakeups; a full buffer means a wakeup is already pending, so the
/// `WouldBlock` on [`WakeHandle::wake`] is ignored by design.
#[derive(Debug)]
pub struct Waker {
    rx: UnixStream,
    tx: Arc<UnixStream>,
}

/// The sending half of a [`Waker`]; cheap to clone and share across
/// worker threads.
#[derive(Debug, Clone)]
pub struct WakeHandle {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// A fresh waker pair, both halves non-blocking.
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            rx,
            tx: Arc::new(tx),
        })
    }

    /// The descriptor to register (read interest) with the reactor.
    pub fn fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// A sending handle for other threads.
    pub fn handle(&self) -> WakeHandle {
        WakeHandle {
            tx: Arc::clone(&self.tx),
        }
    }

    /// Consume every pending wakeup byte so the poll set goes quiet
    /// until the next [`WakeHandle::wake`].
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(0) => return, // sender half gone; nothing more to drain
                Ok(_) => continue,
                Err(_) => return, // WouldBlock (drained) or a dead pair
            }
        }
    }
}

impl WakeHandle {
    /// Interrupt the poller. A full socket buffer means a wakeup is
    /// already pending, so every error is ignorable.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// `struct rlimit` for [`raise_nofile_limit`]; `rlim_t` is 64-bit on
/// every supported Unix.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: std::ffi::c_int = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: std::ffi::c_int = 8;

extern "C" {
    fn getrlimit(resource: std::ffi::c_int, rlim: *mut RLimit) -> std::ffi::c_int;
    fn setrlimit(resource: std::ffi::c_int, rlim: *const RLimit) -> std::ffi::c_int;
}

/// Raise this process's soft open-file limit to its hard limit and
/// return the resulting soft limit. The idle-session scale tests open
/// thousands (up to 100k+) of sockets; default soft limits (often 1024)
/// would fail the test for reasons that have nothing to do with the
/// server.
pub fn raise_nofile_limit() -> io::Result<u64> {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid exclusive borrow of a `#[repr(C)]` rlimit.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    if lim.cur < lim.max {
        let want = RLimit {
            cur: lim.max,
            max: lim.max,
        };
        // SAFETY: `want` outlives the call; setrlimit only reads it.
        if unsafe { setrlimit(RLIMIT_NOFILE, &want) } != 0 {
            return Err(io::Error::last_os_error());
        }
        lim.cur = lim.max;
    }
    Ok(lim.cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn timeout_returns_zero_ready() {
        let waker = Waker::new().expect("waker");
        let mut fds = [PollFd::new(waker.fd(), true, false)];
        let n = poll_fds(&mut fds, Duration::from_millis(10)).expect("poll");
        assert_eq!(n, 0);
        assert!(!fds[0].ready());
    }

    #[test]
    fn waker_interrupts_and_drains() {
        let waker = Waker::new().expect("waker");
        let handle = waker.handle();
        handle.wake();
        let mut fds = [PollFd::new(waker.fd(), true, false)];
        let n = poll_fds(&mut fds, Duration::from_secs(5)).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        waker.drain();
        let mut fds = [PollFd::new(waker.fd(), true, false)];
        let n = poll_fds(&mut fds, Duration::from_millis(5)).expect("poll again");
        assert_eq!(n, 0, "drain consumed the wakeup byte");
    }

    #[test]
    fn wake_handle_clones_share_the_channel() {
        let waker = Waker::new().expect("waker");
        let a = waker.handle();
        let b = a.clone();
        drop(a);
        b.wake();
        let mut fds = [PollFd::new(waker.fd(), true, false)];
        assert_eq!(poll_fds(&mut fds, Duration::from_secs(5)).expect("poll"), 1);
    }

    #[test]
    fn tcp_readiness_and_hangup_are_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        // Nothing sent yet: not readable.
        let mut fds = [PollFd::new(server.as_raw_fd(), true, false)];
        assert_eq!(
            poll_fds(&mut fds, Duration::from_millis(5)).expect("poll"),
            0
        );

        // Bytes in flight: readable.
        client.write_all(b"ping").expect("write");
        let mut fds = [PollFd::new(server.as_raw_fd(), true, false)];
        assert_eq!(poll_fds(&mut fds, Duration::from_secs(5)).expect("poll"), 1);
        assert!(fds[0].readable());

        // Peer gone: readable (EOF) and eventually HUP.
        drop(client);
        let mut fds = [PollFd::new(server.as_raw_fd(), true, false)];
        assert_eq!(poll_fds(&mut fds, Duration::from_secs(5)).expect("poll"), 1);
        assert!(fds[0].readable(), "EOF counts as readable");
    }

    #[test]
    fn nofile_limit_is_raised_or_already_maxed() {
        let lim = raise_nofile_limit().expect("rlimit");
        assert!(lim >= 256, "usable descriptor budget: {lim}");
        // Idempotent.
        assert_eq!(raise_nofile_limit().expect("rlimit again"), lim);
    }

    /// The [`Reactor`] contract, checked against one backend. Each stage
    /// takes a fresh reactor from `new`; the counters of the last stage
    /// are returned so callers can pin backend-specific syscall counts.
    fn check_contract<R: Reactor>(name: &str, new: fn() -> io::Result<R>) -> ReactorStats {
        // A TCP pair is quiet, then readable on bytes, then readable on
        // EOF, always under the registered token.
        let mut reactor = new().expect("reactor");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        let fd = server.as_raw_fd();
        reactor.register(fd, 7, Interest::READ).expect("register");
        let mut events = Vec::new();
        let n = reactor
            .wait(Duration::from_millis(5), &mut events)
            .expect("wait");
        assert_eq!(n, 0, "{name}: quiet socket reported ready");
        client.write_all(b"ping").expect("write");
        let n = reactor
            .wait(Duration::from_secs(5), &mut events)
            .expect("wait");
        assert_eq!(n, 1, "{name}: bytes must wake the reactor");
        assert_eq!(events[0].token(), 7);
        assert!(events[0].readable(), "{name}: bytes are readable");
        drop(client);
        let n = reactor
            .wait(Duration::from_secs(5), &mut events)
            .expect("wait");
        assert_eq!(n, 1, "{name}: hangup must wake the reactor");
        assert!(events[0].readable(), "{name}: EOF counts as readable");
        reactor.deregister(fd).expect("deregister");

        // Hangup surfaces with no registered interest at all. A dropped
        // `UnixStream` peer closes both directions, which is what raises
        // a true `POLLHUP`; a TCP FIN half-close only makes the socket
        // readable.
        let mut reactor = new().expect("reactor");
        let (local, peer) = UnixStream::pair().expect("pair");
        local.set_nonblocking(true).expect("nonblocking");
        reactor
            .register(local.as_raw_fd(), 1, Interest::new(false, false))
            .expect("register");
        drop(peer);
        let n = reactor
            .wait(Duration::from_secs(5), &mut events)
            .expect("wait");
        assert_eq!(n, 1, "{name}: hangup must be reported unregistered");
        assert!(events[0].hangup() || events[0].readable());

        // After `deregister`, an open and readable descriptor goes silent.
        let mut reactor = new().expect("reactor");
        let (a, mut b) = UnixStream::pair().expect("pair");
        a.set_nonblocking(true).expect("nonblocking");
        reactor
            .register(a.as_raw_fd(), 9, Interest::READ)
            .expect("register");
        b.write_all(b"x").expect("write");
        let n = reactor
            .wait(Duration::from_secs(5), &mut events)
            .expect("wait");
        assert_eq!(n, 1, "{name}: registered fd reports data");
        reactor.deregister(a.as_raw_fd()).expect("deregister");
        let n = reactor
            .wait(Duration::from_millis(20), &mut events)
            .expect("wait");
        assert_eq!(n, 0, "{name}: deregistered fd must go silent");

        // The counters track waits and dispatched events.
        let mut reactor = new().expect("reactor");
        let (a, mut b) = UnixStream::pair().expect("pair");
        a.set_nonblocking(true).expect("nonblocking");
        reactor
            .register(a.as_raw_fd(), 1, Interest::READ)
            .expect("register");
        reactor
            .wait(Duration::from_millis(1), &mut events)
            .expect("idle wait");
        b.write_all(b"x").expect("write");
        reactor
            .wait(Duration::from_secs(5), &mut events)
            .expect("busy wait");
        let stats = reactor.stats();
        assert_eq!(stats.wait_calls, 2, "{name}");
        assert_eq!(stats.events_dispatched, 1, "{name}");
        stats
    }

    /// Both backends keep the [`Reactor`] contract: the single
    /// backend-equivalence check, run wherever both compile.
    #[test]
    fn reactor_contract() {
        let poll = check_contract("poll", PollReactor::new);
        assert_eq!(poll.ctl_calls, 0, "poll issues no ctl syscalls");
        #[cfg(target_os = "linux")]
        check_contract("epoll", EpollReactor::new);
    }

    /// The epoll interest cache: `epoll_ctl` is issued only when a
    /// descriptor's `(token, interest)` actually changes.
    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_ctl_is_issued_only_on_interest_change() {
        let mut reactor = EpollReactor::new().expect("epoll");
        let (a, _b) = UnixStream::pair().expect("pair");
        let fd = a.as_raw_fd();

        reactor.register(fd, 1, Interest::READ).expect("add");
        assert_eq!(reactor.stats().ctl_calls, 1, "first register is an ADD");

        // Unchanged interest: cached, no syscall.
        reactor.register(fd, 1, Interest::READ).expect("re-add");
        reactor.register(fd, 1, Interest::READ).expect("re-add");
        assert_eq!(reactor.stats().ctl_calls, 1, "unchanged interest is free");

        // Changed interest: exactly one MOD.
        reactor
            .register(fd, 1, Interest::new(true, true))
            .expect("mod");
        assert_eq!(reactor.stats().ctl_calls, 2, "interest change is one MOD");

        // Changed token only: also a MOD (the kernel carries the token).
        reactor
            .register(fd, 2, Interest::new(true, true))
            .expect("mod token");
        assert_eq!(reactor.stats().ctl_calls, 3);

        // Deregister: one DEL; a second deregister is cached out.
        reactor.deregister(fd).expect("del");
        assert_eq!(reactor.stats().ctl_calls, 4);
        reactor.deregister(fd).expect("re-del");
        assert_eq!(reactor.stats().ctl_calls, 4, "double deregister is free");

        // Re-register after deregister is an ADD again.
        reactor.register(fd, 3, Interest::READ).expect("re-add");
        assert_eq!(reactor.stats().ctl_calls, 5);
    }
}
