//! Every kernel call `kite-net` makes outside `std`: epoll, eventfd,
//! `poll(2)`, the nonblocking connect, the `SO_REUSEADDR` listener and
//! `signal(2)` (the `kite-node` daemon).
//!
//! The workspace deliberately carries no `libc`/`mio`/`tokio` crates, so
//! these are hand-declared `extern "C"` functions, all in this one module.
//! Sockets are IPv4 (`sockaddr_in`, `AF_INET`): an address string is bound
//! or dialled at the first IPv4 address it resolves to ([`resolve_ipv4`]).
//! Everything here is Linux-specific; the declarations match glibc's ABI on
//! x86_64 (where `struct epoll_event` is packed) and the generic layout
//! elsewhere.

use std::io;
use std::net::{SocketAddr, SocketAddrV4, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};

// epoll_ctl ops.
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

/// Readable readiness (also delivered with HUP/ERR so reads observe EOF).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (connect completion / ring drain).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd.
pub const EPOLLERR: u32 = 0x008;
/// Hangup (peer closed both directions).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write side.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: i32 = 0x80000;
const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;
const SOCK_NONBLOCK: i32 = 0x800;
const SOCK_CLOEXEC: i32 = 0x80000;
const SOL_SOCKET: i32 = 1;
const SO_REUSEADDR: i32 = 2;
const SO_ERROR: i32 = 4;
const EINPROGRESS: i32 = 115;
/// Pending-connection queue of a fabric or metrics listener.
const LISTEN_BACKLOG: i32 = 128;
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// glibc packs `struct epoll_event` on x86_64 only.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
struct SockaddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

impl SockaddrIn {
    fn new(addr: &SocketAddrV4) -> SockaddrIn {
        SockaddrIn {
            sin_family: AF_INET as u16,
            sin_port: addr.port().to_be(),
            sin_addr: u32::from_ne_bytes(addr.ip().octets()),
            sin_zero: [0; 8],
        }
    }
}

/// `struct pollfd` (poll(2)) — identical layout on every Linux ABI.
#[repr(C)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// An entry waiting for `fd` to become readable (or to hang up/error,
    /// which `poll` reports regardless of the requested events).
    pub fn readable(fd: RawFd) -> PollFd {
        PollFd { fd, events: POLL_IN, revents: 0 }
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
    fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
    fn listen(fd: i32, backlog: i32) -> i32;
    fn getsockopt(fd: i32, level: i32, optname: i32, optval: *mut i32, optlen: *mut u32) -> i32;
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// `POLLIN` for [`wait_readable`]/[`wait_rw`].
const POLL_IN: i16 = 0x001;
/// `POLLOUT` for [`wait_rw`].
const POLL_OUT: i16 = 0x004;

/// Block the calling thread until `fd` is readable (or `timeout_ms`
/// passes; `-1` = forever). Returns `Ok(true)` if readable/closed,
/// `Ok(false)` on timeout. The single-connection client uses this instead
/// of a spin/park loop — on a loaded (or single-core) box, a thread that
/// sleeps in `poll(2)` leaves the CPU to the event loops it is waiting on.
pub fn wait_readable(fd: RawFd, timeout_ms: i32) -> io::Result<bool> {
    wait_fd(fd, POLL_IN, timeout_ms)
}

/// Block until `fd` is readable **or** writable (used while flushing a
/// full outbound buffer without deadlocking against inbound completions).
pub fn wait_rw(fd: RawFd, timeout_ms: i32) -> io::Result<bool> {
    wait_fd(fd, POLL_IN | POLL_OUT, timeout_ms)
}

fn wait_fd(fd: RawFd, events: i16, timeout_ms: i32) -> io::Result<bool> {
    Ok(poll_fds(&mut [PollFd { fd, events, revents: 0 }], timeout_ms)? > 0)
}

/// Block the calling thread until any of `fds` is ready (or `timeout_ms`
/// passes; `-1` = forever) and return how many are — 0 on timeout or a
/// signal. `kite-node`'s main thread sleeps here on its stop eventfd.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `fds` is a live, exclusively borrowed slice of values with the
    // kernel's pollfd layout, and nfds is exactly its length, so the kernel
    // reads and writes only inside it.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

const MAX_EVENTS: usize = 64;

/// Thin level-triggered epoll wrapper. Tokens are opaque `u64`s chosen by the
/// event loop; one `Poller` is owned by exactly one worker thread.
pub struct Poller {
    epfd: i32,
    buf: [EpollEvent; MAX_EVENTS],
}

impl Poller {
    /// Create a new epoll instance.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: no pointers cross the boundary; the returned fd (or -1)
        // is validated below before use.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd, buf: [EpollEvent { events: 0, data: 0 }; MAX_EVENTS] })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = EpollEvent { events: interest, data: token };
        // SAFETY: `ev` is a live stack value with the ABI-matching layout
        // declared above; the kernel reads it before the call returns.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` with the given token and interest mask.
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest | EPOLLRDHUP)
    }

    /// Change the interest mask of an already-registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest | EPOLLRDHUP)
    }

    /// Deregister an fd. Missing registrations are ignored (close already
    /// removes fds from epoll sets).
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        match self.ctl(EPOLL_CTL_DEL, fd, 0, 0) {
            Err(e) if e.raw_os_error() == Some(2) => Ok(()), // ENOENT
            other => other,
        }
    }

    /// Wait up to `timeout_ms` (`0` = poll, `-1` = forever) and append
    /// `(token, events)` pairs to `out`. Returns the number of events.
    pub fn wait(&mut self, out: &mut Vec<(u64, u32)>, timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `self.buf` holds MAX_EVENTS initialized entries and we
        // pass exactly that capacity, so the kernel cannot write past it.
        let n = unsafe { epoll_wait(self.epfd, self.buf.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for i in 0..n as usize {
            let ev = self.buf[i];
            out.push((ev.data, ev.events));
        }
        Ok(n as usize)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` was returned by epoll_create1 and is owned solely
        // by this Poller; nobody closes it before Drop.
        unsafe { close(self.epfd) };
    }
}

/// Cross-thread wakeup for an event loop parked in `epoll_wait`: an eventfd
/// registered in the loop's poller. `wake()` is cheap and async-signal-safe.
pub struct Waker {
    fd: i32,
}

impl Waker {
    /// Create a nonblocking eventfd.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: no pointers cross the boundary; the returned fd (or -1)
        // is validated below before use.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Waker { fd })
    }

    /// Raw fd for poller registration.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Make the owning loop's next `epoll_wait` return immediately.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: the pointer covers exactly the 8 live bytes of `one`;
        // eventfd writes consume a u64 counter increment.
        unsafe { write(self.fd, &one as *const u64 as *const u8, 8) };
    }

    /// Clear the pending wakeup count (called by the loop after readiness).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: `buf` is 8 writable bytes and we ask for exactly 8; a
        // short or failed read leaves it initialized either way.
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: `fd` came from eventfd and is owned solely by this Waker.
        unsafe { close(self.fd) };
    }
}

/// The first IPv4 address of `addrs` (a resolver's answer, in its order):
/// the one the fabric binds or dials.
pub fn first_ipv4(addrs: impl IntoIterator<Item = SocketAddr>) -> Option<SocketAddrV4> {
    addrs.into_iter().find_map(|a| match a {
        SocketAddr::V4(v4) => Some(v4),
        SocketAddr::V6(_) => None,
    })
}

/// Resolve `addr` (`host:port`) to its first IPv4 address.
pub fn resolve_ipv4(addr: &str) -> io::Result<SocketAddrV4> {
    first_ipv4(addr.to_socket_addrs()?).ok_or_else(|| {
        io::Error::new(io::ErrorKind::AddrNotAvailable, format!("{addr} has no IPv4 address"))
    })
}

/// Start a nonblocking IPv4 connect. Returns the in-progress stream; the
/// caller registers it for `EPOLLOUT` and checks [`take_socket_error`] once
/// writable.
pub fn connect_nonblocking(addr: &SocketAddrV4) -> io::Result<TcpStream> {
    // SAFETY: no pointers cross the boundary; the returned fd (or -1) is
    // validated below before use.
    let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    let sa = SockaddrIn::new(addr);
    // SAFETY: `sa` is a live stack value and the length passed is exactly
    // its size, so the kernel reads only initialized memory.
    let rc = unsafe { connect(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINPROGRESS) {
            // SAFETY: `fd` was created above and is not yet owned by any
            // wrapper; closing it here is the only cleanup path.
            unsafe { close(fd) };
            return Err(err);
        }
    }
    // SAFETY: fd is a freshly created, connected-or-connecting socket owned
    // by nobody else; from_raw_fd transfers that sole ownership.
    Ok(unsafe { TcpStream::from_raw_fd(fd) })
}

/// Fetch and clear `SO_ERROR` — `Ok(())` means the nonblocking connect (or the
/// socket generally) is healthy.
pub fn take_socket_error(stream: &TcpStream) -> io::Result<()> {
    let mut err: i32 = 0;
    let mut len: u32 = 4;
    // SAFETY: `err`/`len` are live stack values sized for SO_ERROR's i32
    // result; the kernel writes at most `len` bytes.
    let rc = unsafe { getsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_ERROR, &mut err, &mut len) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    if err != 0 {
        return Err(io::Error::from_raw_os_error(err));
    }
    Ok(())
}

/// Bind a listener on `addr` with `SO_REUSEADDR`: a SIGKILLed node leaves
/// its accepted sockets in TIME_WAIT on the fabric port, and a restarted
/// replica must rebind the same address *now*, not in 60 seconds. `std`'s
/// `TcpListener::bind` does not set the option.
pub fn listen_reuseaddr(addr: &SocketAddrV4) -> io::Result<TcpListener> {
    // SAFETY: no pointers cross the boundary; the returned fd (or -1) is
    // validated below before use.
    let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    let (one, sa) = (1i32, SockaddrIn::new(addr));
    // SAFETY: `one` and `sa` are live stack values and each length passed
    // is exactly its size, so the kernel reads only initialized memory.
    let rc = unsafe {
        setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4);
        match bind(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32) {
            0 => listen(fd, LISTEN_BACKLOG),
            err => err,
        }
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        // SAFETY: `fd` was created above and is not yet owned by any
        // wrapper; closing it here is the only cleanup path.
        unsafe { close(fd) };
        return Err(err);
    }
    // SAFETY: fd is a freshly created, listening socket owned by nobody
    // else; from_raw_fd transfers that sole ownership.
    Ok(unsafe { TcpListener::from_raw_fd(fd) })
}

/// Install `handler` for SIGTERM and SIGINT (`signal(2)`).
///
/// # Safety
///
/// `handler` runs in signal context: it must be async-signal-safe.
// SAFETY: that obligation is the caller's; the body passes plain ints and a
// function pointer.
pub unsafe fn on_stop_signals(handler: extern "C" fn(i32)) {
    // SAFETY: as above.
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_ipv4_address_is_picked_past_ipv6_ones() {
        let addr = |s: &str| s.parse::<SocketAddr>().unwrap();
        let answer = [addr("[::1]:7100"), addr("127.0.0.1:7100"), addr("10.0.0.1:7100")];
        assert_eq!(first_ipv4(answer), Some("127.0.0.1:7100".parse().unwrap()));
        assert_eq!(first_ipv4([addr("[::1]:7100")]), None);
        assert_eq!(first_ipv4([]), None);
    }
}
