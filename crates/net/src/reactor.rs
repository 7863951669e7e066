//! The epoll reactor: edge-triggered readiness, fused into the
//! work-stealing runtime's parker.
//!
//! There is no dedicated IO thread. The reactor implements
//! [`tokio::IoDriver`], so whichever worker runs out of tasks claims the
//! driver seat and blocks in `epoll_wait` — readiness events are turned
//! into task wakeups *on a worker thread*, which means a woken
//! connection task lands in that worker's LIFO slot and is usually
//! polled next (the PR-7 message-passing hot path, now fed by the
//! kernel). An [`eventfd`](crate::sys::eventfd_new) registered as token
//! 0 is the unpark pipe: its counter semantics make unpark sticky, as
//! the `IoDriver` contract requires.
//!
//! Registration is once-per-socket with the full interest set
//! (`IN | OUT | RDHUP`, edge-triggered): there is no `EPOLL_CTL_MOD`
//! churn on the hot path. Each socket's [`IoEntry`] carries a readiness
//! word that edge events OR into, and per-direction waker cells. The
//! word also counts dispatches (a tick, as in tokio's `ScheduledIo`): an
//! IO path snapshots the word before its syscall and, after a
//! `WouldBlock` or a short transfer, clears its bit only if no edge was
//! dispatched since the snapshot. A clear bit then parks without a
//! syscall, a stale edge costs at most one failed syscall, and no event
//! is lost. Hang-up and error edges also set a sticky read-closed bit,
//! so EOF that arrived with the data a short read consumed still
//! resolves.

use crate::sys;
use std::collections::HashMap;
use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Waker;
use std::time::Duration;

/// Readiness bits in [`IoEntry::readiness`].
pub(crate) const READ_READY: u64 = 0b001;
pub(crate) const WRITE_READY: u64 = 0b010;
/// Sticky: the peer hung up or the socket errored, so reads never block
/// again (they return EOF or the error). Never cleared.
pub(crate) const READ_CLOSED: u64 = 0b100;
/// One dispatch in the tick field above the readiness bits.
const TICK: u64 = 1 << 8;

/// The eventfd's reserved token; sockets start at 1.
const WAKE_TOKEN: u64 = 0;

/// Per-socket reactor state, shared between the owning [`Async`]
/// wrapper and the dispatch loop.
///
/// [`Async`]: crate::conn::Async
pub(crate) struct IoEntry {
    /// OR-accumulated edge readiness in the low bits, the dispatch tick
    /// above them. IO paths clear a bit only while the tick still equals
    /// their pre-syscall snapshot's.
    readiness: AtomicU64,
    read_waker: Mutex<Option<Waker>>,
    write_waker: Mutex<Option<Waker>>,
}

impl IoEntry {
    /// Sets readiness bits, advances the tick and wakes the parked sides.
    /// Dispatch-side. Bits and tick move in one RMW: a clear that sees
    /// the old tick happens before it and so cannot erase its bits.
    fn dispatch(&self, bits: u64) {
        let _ = self
            .readiness
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |r| {
                Some((r | bits).wrapping_add(TICK))
            });
        if bits & READ_READY != 0 {
            let w = self
                .read_waker
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take();
            if let Some(w) = w {
                w.wake();
            }
        }
        if bits & WRITE_READY != 0 {
            let w = self
                .write_waker
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take();
            if let Some(w) = w {
                w.wake();
            }
        }
    }

    /// The readiness word, taken before an IO attempt.
    pub(crate) fn snapshot(&self) -> u64 {
        self.readiness.load(Ordering::Acquire)
    }

    /// Whether `snapshot` lets direction `bit` try a syscall: its edge
    /// bit is set, or (for reads) the peer has hung up.
    pub(crate) fn is_ready(snapshot: u64, bit: u64) -> bool {
        let sticky = if bit == READ_READY { READ_CLOSED } else { 0 };
        snapshot & (bit | sticky) != 0
    }

    /// Consumes `bit` after a `WouldBlock` or a short transfer that
    /// started at `snapshot`. Returns `false`, leaving the bit set, when
    /// an edge was dispatched since the snapshot: the caller must retry
    /// rather than park, since the syscall may predate that edge's data.
    pub(crate) fn clear_ready(&self, bit: u64, snapshot: u64) -> bool {
        let tick = snapshot & !(TICK - 1);
        self.readiness
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |r| {
                (r & !(TICK - 1) == tick).then_some(r & !bit)
            })
            .is_ok()
    }

    /// Parks `waker` on one direction. The caller must re-check readiness
    /// after this (two-phase, same shape as the channel futures): an edge
    /// dispatched before the registration has already set the bit and
    /// advanced the tick, which the re-check observes; one dispatched
    /// after it finds the waker.
    pub(crate) fn register(&self, bit: u64, waker: &Waker) {
        let cell = if bit == READ_READY {
            &self.read_waker
        } else {
            &self.write_waker
        };
        let mut slot = cell.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(waker.clone());
    }
}

/// The shared epoll reactor. One per broker/load-generator process is
/// typical (created alongside the runtime and installed with
/// [`tokio::runtime::Builder::io_driver`]), but nothing prevents several
/// — each is fully self-contained.
pub struct Reactor {
    epfd: RawFd,
    wake_fd: RawFd,
    entries: Mutex<HashMap<u64, Arc<IoEntry>>>,
    next_token: AtomicU64,
    /// Readiness events dispatched since creation (observability; the
    /// harness folds this into its tables).
    dispatched: AtomicU64,
}

impl Reactor {
    /// Creates the epoll instance and its eventfd unpark pipe.
    pub fn new() -> io::Result<Arc<Reactor>> {
        let epfd = sys::epoll_create()?;
        let wake_fd = match sys::eventfd_new() {
            Ok(fd) => fd,
            Err(e) => {
                sys::close_fd(epfd);
                return Err(e);
            }
        };
        if let Err(e) = sys::epoll_ctl_op(
            epfd,
            sys::EPOLL_CTL_ADD,
            wake_fd,
            // Level-triggered on purpose: the counter stays readable (and
            // the next `epoll_wait` returns immediately) until the park
            // path drains it — sticky unpark.
            sys::EPOLLIN,
            WAKE_TOKEN,
        ) {
            sys::close_fd(wake_fd);
            sys::close_fd(epfd);
            return Err(e);
        }
        Ok(Arc::new(Reactor {
            epfd,
            wake_fd,
            entries: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(WAKE_TOKEN + 1),
            dispatched: AtomicU64::new(0),
        }))
    }

    /// Registers `fd` with the full edge-triggered interest set and
    /// returns its entry + token. The fd must already be nonblocking.
    pub(crate) fn register(&self, fd: RawFd) -> io::Result<(u64, Arc<IoEntry>)> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(IoEntry {
            // Born ready: the first IO attempt goes straight to the
            // syscall anyway, and an already-readable socket registered
            // after its data arrived produces no future edge.
            readiness: AtomicU64::new(READ_READY | WRITE_READY),
            read_waker: Mutex::new(None),
            write_waker: Mutex::new(None),
        });
        {
            let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            entries.insert(token, entry.clone());
        }
        let interest = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
        if let Err(e) = sys::epoll_ctl_op(self.epfd, sys::EPOLL_CTL_ADD, fd, interest, token) {
            let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            entries.remove(&token);
            return Err(e);
        }
        Ok((token, entry))
    }

    /// Removes `fd` from the epoll set. Called from `Async::drop`; the
    /// kernel also auto-deregisters on close, so failure is ignorable.
    pub(crate) fn deregister(&self, fd: RawFd, token: u64) {
        let _ = sys::epoll_ctl_op(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.remove(&token);
    }

    /// Readiness events dispatched since creation.
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// One `epoll_wait` + dispatch pass. Shared by the `IoDriver` park
    /// path and the tests.
    fn turn(&self, timeout: Option<Duration>) {
        let timeout_ms: i32 = match timeout {
            // A spinning worker's non-blocking turn.
            Some(t) if t.is_zero() => 0,
            // Round up so a 100µs deadline doesn't spin at timeout 0.
            Some(t) => t.as_millis().saturating_add(1).min(i32::MAX as u128) as i32,
            None => -1,
        };
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let n = match sys::epoll_wait_events(self.epfd, &mut buf, timeout_ms) {
            Ok(n) => n,
            Err(_) => return,
        };
        let mut woke = 0u64;
        for ev in &buf[..n] {
            // Copy out of the (packed on x86_64) event before using.
            let token = ev.data;
            let events = ev.events;
            if token == WAKE_TOKEN {
                sys::eventfd_drain(self.wake_fd);
                continue;
            }
            let entry = {
                let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
                entries.get(&token).cloned()
            };
            let Some(entry) = entry else {
                // Deregistered between the kernel queueing the event and
                // us draining it; stale, ignore.
                continue;
            };
            let mut bits = 0;
            if events & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                bits |= READ_READY;
            }
            if events & (sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                bits |= READ_CLOSED;
            }
            if events & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                bits |= WRITE_READY;
            }
            entry.dispatch(bits);
            woke += 1;
        }
        if woke > 0 {
            self.dispatched.fetch_add(woke, Ordering::Relaxed);
        }
    }
}

impl tokio::IoDriver for Reactor {
    fn park(&self, timeout: Option<Duration>) {
        self.turn(timeout);
    }

    fn unpark(&self) {
        sys::eventfd_signal(self.wake_fd);
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        sys::close_fd(self.wake_fd);
        sys::close_fd(self.epfd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use tokio::IoDriver;

    #[test]
    fn unpark_interrupts_an_indefinite_park() {
        let reactor = Reactor::new().expect("reactor");
        let r2 = reactor.clone();
        let waiter = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            r2.park(None);
            t0.elapsed()
        });
        std::thread::sleep(Duration::from_millis(30));
        reactor.unpark();
        let waited = waiter.join().expect("park thread");
        assert!(waited >= Duration::from_millis(25), "park actually blocked");
        assert!(
            waited < Duration::from_secs(30),
            "unpark broke the indefinite wait"
        );
        // Sticky: an unpark with nobody parked makes the *next* park
        // return promptly.
        reactor.unpark();
        let t0 = std::time::Instant::now();
        reactor.park(None);
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn park_times_out_without_events() {
        let reactor = Reactor::new().expect("reactor");
        let t0 = std::time::Instant::now();
        reactor.park(Some(Duration::from_millis(20)));
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(15));
        assert!(waited < Duration::from_secs(10));
    }

    #[test]
    fn edge_readiness_reaches_the_registered_waker() {
        let reactor = Reactor::new().expect("reactor");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        let (_token, entry) = reactor.register(server.as_raw_fd()).expect("register");
        // Drain the born-ready bits so the next READ_READY can only come
        // from a dispatched edge.
        let born = entry.snapshot();
        assert!(entry.clear_ready(READ_READY, born));
        assert!(entry.clear_ready(WRITE_READY, born));
        assert!(!IoEntry::is_ready(entry.snapshot(), READ_READY));

        let woken = Arc::new(std::sync::atomic::AtomicBool::new(false));
        struct FlagWake(Arc<std::sync::atomic::AtomicBool>);
        impl std::task::Wake for FlagWake {
            fn wake(self: Arc<Self>) {
                self.0.store(true, Ordering::Release);
            }
        }
        let waker = Waker::from(Arc::new(FlagWake(woken.clone())));
        entry.register(READ_READY, &waker);

        client.write_all(b"ping").expect("client write");
        // One reactor turn must pick up the edge and fire the waker.
        reactor.turn(Some(Duration::from_secs(5)));
        assert!(woken.load(Ordering::Acquire), "read waker fired");
        assert!(
            IoEntry::is_ready(entry.snapshot(), READ_READY),
            "readiness bit was set"
        );
        assert!(
            !entry.clear_ready(READ_READY, born),
            "a clear from before the edge keeps its bit"
        );
        let mut buf = [0u8; 8];
        let mut sref = &server;
        assert_eq!(sref.read(&mut buf).expect("read"), 4);
        assert!(reactor.dispatched() > 0);
    }
}
