//! Nonblocking socket adapters over the reactor: `Async<T>` and its
//! TcpListener/TcpStream conveniences.
//!
//! The IO poll protocol is the same two-phase shape as the channel
//! futures (attempt → register → re-check). Snapshot the socket's
//! [`IoEntry`] readiness; if the direction's bit is clear, no edge came
//! since the last drain, so park the waker and re-check without a
//! syscall. Otherwise try the syscall; on `WouldBlock`, park the waker,
//! then *consume* the bit — unless an edge was dispatched since the
//! snapshot, in which case the attempt retries instead of parking over a
//! lost event. A short read or write also consumes the bit the same way:
//! it drained the socket, so the next attempt waits for a fresh edge
//! instead of paying a `WouldBlock`. Edge-triggered epoll makes the
//! consume step mandatory: the kernel will not repeat an edge.
//!
//! Read and write sides park independently (separate waker cells), so a
//! connection's reader task and writer task can share one
//! `Arc<Async<TcpStream>>` — `std` implements `Read`/`Write` for
//! `&TcpStream`, which is what makes `&self` IO sound here.

use crate::reactor::{IoEntry, Reactor, READ_READY, WRITE_READY};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::Arc;
use std::task::{Context, Poll};

/// A socket registered with the reactor. IO methods take `&self`; the
/// per-direction wakers serialize nothing — two tasks reading at once is
/// allowed (they race for bytes, as on a raw fd).
pub struct Async<T: AsRawFd> {
    io: T,
    reactor: Arc<Reactor>,
    fd: RawFd,
    token: u64,
    entry: Arc<IoEntry>,
}

impl<T: AsRawFd> Async<T> {
    /// Registers `io` (which must already be nonblocking) with the
    /// reactor.
    pub fn new(reactor: Arc<Reactor>, io: T) -> io::Result<Async<T>> {
        let fd = io.as_raw_fd();
        let (token, entry) = reactor.register(fd)?;
        Ok(Async {
            io,
            reactor,
            fd,
            token,
            entry,
        })
    }

    /// The wrapped socket.
    pub fn get_ref(&self) -> &T {
        &self.io
    }

    /// One attempt → register → re-check poll step over `op`, which
    /// returns its result and whether it drained the socket (a short
    /// transfer).
    fn poll_io<R>(
        &self,
        bit: u64,
        cx: &mut Context<'_>,
        op: &mut impl FnMut(&T) -> io::Result<(R, bool)>,
    ) -> Poll<io::Result<R>> {
        loop {
            let snapshot = self.entry.snapshot();
            if !IoEntry::is_ready(snapshot, bit) {
                // Drained, and no edge since: park without a syscall,
                // unless one lands before the registration does.
                self.entry.register(bit, cx.waker());
                if IoEntry::is_ready(self.entry.snapshot(), bit) {
                    continue;
                }
                return Poll::Pending;
            }
            match op(&self.io) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.entry.register(bit, cx.waker());
                    if self.entry.clear_ready(bit, snapshot) {
                        return Poll::Pending;
                    }
                    // An edge was dispatched since the snapshot; its data
                    // may postdate the syscall, so retry rather than park.
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Ok((res, drained)) => {
                    if drained {
                        self.entry.clear_ready(bit, snapshot);
                    }
                    return Poll::Ready(Ok(res));
                }
                Err(e) => return Poll::Ready(Err(e)),
            }
        }
    }

    /// Runs `op` when the direction `bit` is ready, parking in between.
    async fn io_with<R>(
        &self,
        bit: u64,
        mut op: impl FnMut(&T) -> io::Result<(R, bool)>,
    ) -> io::Result<R> {
        std::future::poll_fn(|cx| self.poll_io(bit, cx, &mut op)).await
    }
}

impl<T: AsRawFd> Drop for Async<T> {
    fn drop(&mut self) {
        self.reactor.deregister(self.fd, self.token);
    }
}

impl Async<TcpListener> {
    /// Binds a nonblocking listener on `addr` and registers it.
    pub fn bind(reactor: Arc<Reactor>, addr: &str) -> io::Result<Async<TcpListener>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Async::new(reactor, listener)
    }

    /// Accepts one connection; the returned stream is nonblocking,
    /// `TCP_NODELAY` like [`connect`](Async::connect)'s, and registered
    /// with the same reactor. Without `TCP_NODELAY`, a small frame
    /// written while the previous one is unacknowledged (a `BUSY` then
    /// its `ACK`) waits in Nagle's buffer for the peer's delayed ACK, up
    /// to 40 ms on Linux, and a stop-and-wait client waits with it.
    pub async fn accept(&self) -> io::Result<(Async<TcpStream>, SocketAddr)> {
        let (stream, peer) = self
            .io_with(READ_READY, |l| l.accept().map(|a| (a, false)))
            .await?;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok((Async::new(self.reactor.clone(), stream)?, peer))
    }

    /// The bound address (for `bind("127.0.0.1:0")`-style tests).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.io.local_addr()
    }
}

impl Async<TcpStream> {
    /// Connects to `addr` and registers the stream. The connect itself
    /// is the blocking `std` call — instantaneous on the loopback paths
    /// this crate serves — and the socket goes nonblocking before any
    /// IO.
    pub fn connect(reactor: Arc<Reactor>, addr: SocketAddr) -> io::Result<Async<TcpStream>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Async::new(reactor, stream)
    }

    /// Reads into `buf`; resolves with `Ok(0)` at EOF.
    pub async fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        self.io_with(READ_READY, |mut s| short(s.read(buf), buf.len()))
            .await
    }

    /// Writes the whole of `buf`, parking on a full socket buffer.
    pub async fn write_all(&self, buf: &[u8]) -> io::Result<()> {
        let mut done = 0;
        while done < buf.len() {
            let rest = &buf[done..];
            let n = self
                .io_with(WRITE_READY, |mut s| short(s.write(rest), rest.len()))
                .await?;
            if n == 0 {
                return Err(io::ErrorKind::WriteZero.into());
            }
            done += n;
        }
        Ok(())
    }

    /// Shuts down the write side (half-close), letting the peer's reads
    /// drain to EOF.
    pub fn shutdown_write(&self) {
        let _ = self.io.shutdown(std::net::Shutdown::Write);
    }
}

/// Tags a transfer of up to `want` bytes with whether it came up short,
/// i.e. drained a stream socket's buffer.
fn short(res: io::Result<usize>, want: usize) -> io::Result<(usize, bool)> {
    res.map(|n| (n, n < want))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn rt_with_reactor() -> (tokio::runtime::Runtime, Arc<Reactor>) {
        let reactor = Reactor::new().expect("reactor");
        let rt = tokio::runtime::Builder::new_multi_thread()
            .worker_threads(2)
            .io_driver(reactor.clone())
            .enable_all()
            .build()
            .expect("runtime");
        (rt, reactor)
    }

    #[test]
    fn echo_roundtrip_over_the_reactor() {
        let (rt, reactor) = rt_with_reactor();
        rt.block_on(async move {
            let listener = Async::bind(reactor.clone(), "127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let server = tokio::spawn(async move {
                let (conn, _) = listener.accept().await.expect("accept");
                let mut buf = [0u8; 64];
                loop {
                    let n = conn.read(&mut buf).await.expect("server read");
                    if n == 0 {
                        break;
                    }
                    conn.write_all(&buf[..n]).await.expect("server write");
                }
            });
            let client = Async::connect(reactor, addr).expect("connect");
            for round in 0..32u8 {
                let msg = [round; 16];
                client.write_all(&msg).await.expect("client write");
                let mut got = [0u8; 16];
                let mut at = 0;
                while at < got.len() {
                    let n = client.read(&mut got[at..]).await.expect("client read");
                    assert_ne!(n, 0, "server closed early");
                    at += n;
                }
                assert_eq!(got, msg);
            }
            client.shutdown_write();
            tokio::time::timeout(Duration::from_secs(10), server)
                .await
                .expect("server finished")
                .expect("server task");
        });
    }

    /// Both ends send small frames unbatched: with Nagle on, the second
    /// of two back-to-back frames waits for the peer's delayed ACK.
    #[test]
    fn accepted_and_connected_streams_disable_nagle() {
        let (rt, reactor) = rt_with_reactor();
        rt.block_on(async move {
            let listener = Async::bind(reactor.clone(), "127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let client = Async::connect(reactor, addr).expect("connect");
            let (server, _) = listener.accept().await.expect("accept");
            assert!(client.get_ref().nodelay().expect("client nodelay"));
            assert!(server.get_ref().nodelay().expect("server nodelay"));
        });
    }

    #[test]
    fn large_transfer_exercises_partial_writes() {
        let (rt, reactor) = rt_with_reactor();
        rt.block_on(async move {
            let listener = Async::bind(reactor.clone(), "127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            // 4 MiB >> any socket buffer: the writer must park on
            // WRITE_READY while the reader catches up.
            let payload: Vec<u8> = (0..4 * 1024 * 1024u32).map(|i| i as u8).collect();
            let expect = payload.clone();
            let server = tokio::spawn(async move {
                let (conn, _) = listener.accept().await.expect("accept");
                conn.write_all(&payload).await.expect("server write");
                conn.shutdown_write();
            });
            let client = Async::connect(reactor, addr).expect("connect");
            let mut got = Vec::with_capacity(expect.len());
            let mut buf = vec![0u8; 64 * 1024];
            loop {
                let n = client.read(&mut buf).await.expect("client read");
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            assert_eq!(got.len(), expect.len());
            assert_eq!(got, expect);
            server.await.expect("server task");
        });
    }

    /// A waker that counts its wakes.
    #[derive(Default)]
    struct CountWake(std::sync::atomic::AtomicUsize);

    impl std::task::Wake for CountWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl CountWake {
        fn wakes(&self) -> usize {
            self.0.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    /// A registered server end and its client, over loopback.
    fn pair(reactor: &Arc<Reactor>) -> (Async<TcpStream>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        (
            Async::new(reactor.clone(), server).expect("register"),
            client,
        )
    }

    /// Turns the reactor until `waker` has been woken `past` times.
    fn turn_until_woken(reactor: &Reactor, waker: &CountWake, past: usize) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while waker.wakes() <= past {
            assert!(std::time::Instant::now() < deadline, "no edge dispatched");
            tokio::IoDriver::park(reactor, Some(Duration::from_millis(10)));
        }
    }

    /// Syscalls and `WouldBlock`s of a counting read op.
    #[derive(Default)]
    struct Calls {
        syscalls: usize,
        would_block: usize,
    }

    /// A read into a 64-byte buffer that counts into `calls`.
    fn counting_read(
        calls: &mut Calls,
    ) -> impl FnMut(&TcpStream) -> io::Result<(usize, bool)> + '_ {
        let mut buf = [0u8; 64];
        move |mut s: &TcpStream| {
            calls.syscalls += 1;
            let res = short(s.read(&mut buf), buf.len());
            if matches!(&res, Err(e) if e.kind() == io::ErrorKind::WouldBlock) {
                calls.would_block += 1;
            }
            res
        }
    }

    /// Drives `poll_io` by hand: once a short read has drained the
    /// socket, the next read parks without a syscall, and the edge that
    /// wakes it delivers data on the first try. Over many rounds a parked
    /// read costs at most one failed syscall (the born-ready probe).
    #[test]
    fn a_parked_read_costs_at_most_one_failed_syscall() {
        let reactor = Reactor::new().expect("reactor");
        let (conn, mut client) = pair(&reactor);
        let wake = Arc::new(CountWake::default());
        let waker = std::task::Waker::from(wake.clone());
        let mut cx = Context::from_waker(&waker);
        let mut calls = Calls::default();
        let mut read = counting_read(&mut calls);
        assert!(conn.poll_io(READ_READY, &mut cx, &mut read).is_pending());
        const ROUNDS: usize = 50;
        for _ in 0..ROUNDS {
            let woken = wake.wakes();
            client.write_all(b"ping").expect("client write");
            turn_until_woken(&reactor, &wake, woken);
            match conn.poll_io(READ_READY, &mut cx, &mut read) {
                Poll::Ready(Ok(n)) => assert_eq!(n, 4),
                other => panic!("a woken read must deliver the data: {other:?}"),
            }
            assert!(conn.poll_io(READ_READY, &mut cx, &mut read).is_pending());
        }
        drop(read);
        assert_eq!(calls.syscalls, ROUNDS + 1, "one syscall per delivered read");
        assert!(calls.would_block <= 1, "{} failed reads", calls.would_block);
    }

    /// The data and the FIN arrive in one edge; a short read consumes the
    /// data and the read bit, and the sticky read-closed bit still lets
    /// the next read see EOF instead of parking forever.
    #[test]
    fn eof_after_a_short_read_still_resolves() {
        let reactor = Reactor::new().expect("reactor");
        let (conn, mut client) = pair(&reactor);
        let wake = Arc::new(CountWake::default());
        let waker = std::task::Waker::from(wake.clone());
        let mut cx = Context::from_waker(&waker);
        let mut calls = Calls::default();
        let mut read = counting_read(&mut calls);
        assert!(conn.poll_io(READ_READY, &mut cx, &mut read).is_pending());
        client.write_all(b"last").expect("client write");
        client
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        // Both segments are in before the edge is harvested, so one
        // dispatch carries data and hang-up together.
        std::thread::sleep(Duration::from_millis(20));
        turn_until_woken(&reactor, &wake, 0);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while conn.entry.snapshot() & crate::reactor::READ_CLOSED == 0 {
            assert!(std::time::Instant::now() < deadline, "no hang-up edge");
            tokio::IoDriver::park(&*reactor, Some(Duration::from_millis(10)));
        }
        match conn.poll_io(READ_READY, &mut cx, &mut read) {
            Poll::Ready(Ok(4)) => {}
            other => panic!("expected the short read of the data: {other:?}"),
        }
        match conn.poll_io(READ_READY, &mut cx, &mut read) {
            Poll::Ready(Ok(0)) => {}
            other => panic!("EOF must resolve after a short read: {other:?}"),
        }
    }
}
