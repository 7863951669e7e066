//! The topic broker: fan-in from per-connection publishers, fan-out to
//! subscriber groups, bounded end to end.
//!
//! Every topic is a [`ShardedQueue`]-backed [`AsyncQueue`] of [`NetMsg`].
//! The wiring maps network roles onto the PR-9 arity machinery:
//!
//! * **Publishers are lane-pinned.** A connection's `PUB`s go through
//!   `handle_pinned(conn_id % lanes)` + `send_with_handle`, so one
//!   publisher's messages live in one lane in order — per-publisher FIFO
//!   is unconditional (a pinned handle never steals or spills), and with
//!   the default [`LanePolicy::MpscFastPath`] lanes the fan-in rides the
//!   wait-free FAA ticket path.
//! * **Subscribers are forwarder tasks** racing `topic.recv()` against
//!   the connection's stop signal. One subscriber per topic keeps the
//!   MPSC ring's single consumer seat (claimed and released per recv —
//!   the registry handoff); a second *concurrent* subscriber trips the
//!   sticky registry demotion to MPMC, observable via
//!   [`Broker::lane_promoted`]. Delivery is work-queue semantics: each
//!   message reaches exactly one subscriber of its topic.
//! * **Backpressure is the queue's own `Full`.** A publish that hits a
//!   full lane gets a `BUSY` frame, and the broker then *awaits* the
//!   pinned send before reading another byte from that connection — the
//!   read loop itself is the suspended-reads valve, so a hot publisher
//!   is throttled to exactly the topic's drain rate with O(capacity)
//!   memory. The advisory [`AsyncQueue::is_full`] watermark is counted
//!   (`watermark_hits`) one step before the hard `Full` lands.
//!
//! **Teardown conserves values.** A subscriber that vanishes mid-stream
//! (EOF without `CLOSE`) marks the connection dirty: queued-but-unsent
//! deliveries in its outbox are republished to their topics instead of
//! being written into a dead socket, and its forwarders republish
//! anything they were holding. Republished messages rejoin at the tail
//! (at-least-once, possibly reordered relative to the original stream —
//! the price of not losing them). A clean `CLOSE` drains the outbox to
//! the wire, replies `CLOSE`, and half-closes.
//!
//! [`ShardedQueue`]: nbq_core::ShardedQueue
//! [`LanePolicy::MpscFastPath`]: nbq_core::LanePolicy

use crate::conn::Async;
use crate::frame::{self, Decoder, Frame};
use crate::reactor::Reactor;
use nbq_async::AsyncQueue;
use nbq_core::{CasQueue, LanePolicy, ShardedConfig, ShardedQueue};
use nbq_util::queue::{ConcurrentQueue, LaneFactory, TrySendError};
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-connection outbox capacity, in frames.
const OUTBOX_CAPACITY: usize = 256;
/// Read-buffer size per connection.
const READ_BUFFER: usize = 16 * 1024;
/// Coalesce up to this many bytes per `write_all`.
const WRITE_BATCH: usize = 32 * 1024;

/// One message crossing a topic queue.
pub struct NetMsg {
    /// Opaque message bytes (the load generator stamps a timestamp in
    /// the first 8).
    pub payload: Vec<u8>,
}

/// Broker construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct BrokerConfig {
    /// Sharded lanes per topic. Lane *capacity* is the factory's
    /// business — the queues it builds bound each lane, and that bound
    /// is the backpressure limit `BUSY` enforces.
    pub lanes: usize,
    /// Which fast-path rings each topic lane composes.
    pub lane_policy: LanePolicy,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            lanes: 2,
            lane_policy: LanePolicy::MpscFastPath,
        }
    }
}

/// Monotonic broker event counters (a snapshot; see [`Broker::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Frames decoded off the wire.
    pub frames_in: u64,
    /// Frames written to the wire.
    pub frames_out: u64,
    /// `PUB`s accepted into a topic queue.
    pub published: u64,
    /// `MSG`s fully written to a subscriber's socket.
    pub delivered: u64,
    /// `BUSY` backpressure events (a publish hit `Full`).
    pub busy: u64,
    /// Advisory full-watermark sightings just before a publish.
    pub watermark_hits: u64,
    /// Messages republished during teardown instead of being dropped.
    pub requeued: u64,
    /// Connections dropped for malformed or protocol-violating input.
    pub malformed: u64,
    /// Topics created.
    pub topics: u64,
}

#[derive(Default)]
struct StatCells {
    connections: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    published: AtomicU64,
    delivered: AtomicU64,
    busy: AtomicU64,
    watermark_hits: AtomicU64,
    requeued: AtomicU64,
    malformed: AtomicU64,
    topics: AtomicU64,
}

impl StatCells {
    fn bump(cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
    }
}

type TopicQueue<Q> = AsyncQueue<NetMsg, ShardedQueue<NetMsg, Q>>;

struct Topic<Q: ConcurrentQueue<NetMsg>> {
    name: String,
    queue: TopicQueue<Q>,
}

/// What the writer task pulls off a connection's outbox.
enum Out<Q: ConcurrentQueue<NetMsg>> {
    /// A pre-encoded control frame (`ACK`/`BUSY`/`CLOSE`).
    Frame(Vec<u8>),
    /// A message to encode as `MSG` at write time — kept unencoded so a
    /// dirty teardown can republish it to its topic instead.
    Deliver { topic: Arc<Topic<Q>>, msg: NetMsg },
}

/// Per-connection state shared by the reader, writer, and forwarders.
struct Conn<Q: ConcurrentQueue<NetMsg>> {
    stream: Async<TcpStream>,
    /// Bounded frame outbox; closing it is the writer's shutdown signal
    /// (close drains, so a clean `CLOSE` flushes everything first).
    outbox: AsyncQueue<Out<Q>, CasQueue<Out<Q>>>,
    /// Closed ⇒ the connection is going away; forwarders race their
    /// `recv` against this.
    stop: AsyncQueue<(), CasQueue<()>>,
    /// Dirty teardown: the peer vanished without `CLOSE`, so pending
    /// deliveries must be republished, not written into a dead socket.
    dirty: AtomicBool,
}

impl<Q: ConcurrentQueue<NetMsg>> Conn<Q> {
    fn begin_teardown(&self, dirty: bool) {
        if dirty {
            self.dirty.store(true, Ordering::Release);
        }
        self.stop.close();
        self.outbox.close();
    }
}

/// The topic broker, generic over the per-lane queue factory — the same
/// [`LaneFactory`] seam the harness uses to swap cas/llsc/scq/wcq
/// backbones under every experiment.
pub struct Broker<F: LaneFactory<NetMsg>> {
    config: BrokerConfig,
    factory: Mutex<F>,
    topics: Mutex<HashMap<String, Arc<Topic<F::Lane>>>>,
    reactor: Arc<Reactor>,
    stats: StatCells,
    next_conn: AtomicU64,
}

impl<F> Broker<F>
where
    F: LaneFactory<NetMsg> + Send + 'static,
    F::Lane: Send + Sync + 'static,
{
    /// Builds a broker whose topics are sharded over `factory`-built
    /// lanes.
    pub fn new(reactor: Arc<Reactor>, config: BrokerConfig, factory: F) -> Arc<Broker<F>> {
        Arc::new(Broker {
            config,
            factory: Mutex::new(factory),
            topics: Mutex::new(HashMap::new()),
            reactor,
            stats: StatCells::default(),
            next_conn: AtomicU64::new(0),
        })
    }

    /// The reactor this broker registers its sockets with (install the
    /// same one as the runtime's IO driver).
    pub fn reactor(&self) -> &Arc<Reactor> {
        &self.reactor
    }

    /// A snapshot of the broker's event counters.
    pub fn stats(&self) -> BrokerStats {
        let s = &self.stats;
        BrokerStats {
            connections: s.connections.load(Ordering::Relaxed),
            frames_in: s.frames_in.load(Ordering::Relaxed),
            frames_out: s.frames_out.load(Ordering::Relaxed),
            published: s.published.load(Ordering::Relaxed),
            delivered: s.delivered.load(Ordering::Relaxed),
            busy: s.busy.load(Ordering::Relaxed),
            watermark_hits: s.watermark_hits.load(Ordering::Relaxed),
            requeued: s.requeued.load(Ordering::Relaxed),
            malformed: s.malformed.load(Ordering::Relaxed),
            topics: s.topics.load(Ordering::Relaxed),
        }
    }

    /// Whether `topic`'s lane `lane` has had its fast-path ring promoted
    /// (stickily demoted to MPMC service — e.g. by a second concurrent
    /// subscriber on a fan-in lane). `None` for unknown topics or lanes
    /// without an active ring.
    pub fn lane_promoted(&self, topic: &str, lane: usize) -> Option<bool> {
        let t = {
            let topics = self.topics.lock().unwrap_or_else(|e| e.into_inner());
            topics.get(topic).cloned()
        }?;
        t.queue.inner().lane_promoted(lane)
    }

    /// Advisory occupancy of `topic`'s queue (see [`AsyncQueue::len`]).
    pub fn topic_len(&self, topic: &str) -> Option<usize> {
        let t = {
            let topics = self.topics.lock().unwrap_or_else(|e| e.into_inner());
            topics.get(topic).cloned()
        }?;
        t.queue.len()
    }

    fn topic(&self, name: &str) -> Arc<Topic<F::Lane>> {
        let mut topics = self.topics.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = topics.get(name) {
            return t.clone();
        }
        let sharded = {
            let mut factory = self.factory.lock().unwrap_or_else(|e| e.into_inner());
            let config = ShardedConfig {
                lanes: self.config.lanes,
                lane_policy: self.config.lane_policy,
            };
            ShardedQueue::with_config(config, |lane| factory.make_lane(lane))
        };
        let t = Arc::new(Topic {
            name: name.to_owned(),
            queue: AsyncQueue::new(sharded),
        });
        topics.insert(name.to_owned(), t.clone());
        StatCells::bump(&self.stats.topics);
        t
    }

    /// Accept loop: serves until the runtime is torn down (spawn this).
    pub async fn serve(self: Arc<Self>, listener: Async<std::net::TcpListener>) {
        loop {
            match listener.accept().await {
                Ok((stream, _peer)) => {
                    StatCells::bump(&self.stats.connections);
                    let broker = self.clone();
                    tokio::spawn(async move { broker.handle_connection(stream).await });
                }
                Err(_) => {
                    // Transient accept failure (EMFILE burst, aborted
                    // handshake): back off briefly rather than hot-loop.
                    tokio::time::sleep(std::time::Duration::from_millis(5)).await;
                }
            }
        }
    }

    /// One connection: runs the read loop inline, with the writer spawned
    /// alongside.
    pub async fn handle_connection(self: Arc<Self>, stream: Async<TcpStream>) {
        let conn_id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::new(Conn {
            stream,
            outbox: AsyncQueue::new(CasQueue::with_capacity(OUTBOX_CAPACITY)),
            stop: AsyncQueue::new(CasQueue::with_capacity(1)),
            dirty: AtomicBool::new(false),
        });
        let writer = {
            let broker = self.clone();
            let conn = conn.clone();
            tokio::spawn(async move { broker.writer(conn).await })
        };
        self.reader(&conn, conn_id).await;
        let _ = writer.await;
    }

    /// Enqueues a pre-encoded control frame; `Err` means the connection
    /// is already tearing down.
    async fn enqueue_frame(&self, conn: &Arc<Conn<F::Lane>>, bytes: Vec<u8>) -> Result<(), ()> {
        conn.outbox
            .send(Out::Frame(bytes))
            .await
            .map_err(|_closed| ())
    }

    async fn reader(self: &Arc<Self>, conn: &Arc<Conn<F::Lane>>, conn_id: u64) {
        let mut decoder = Decoder::new();
        let mut buf = vec![0u8; READ_BUFFER];
        let mut acks: u64 = 0;
        'conn: loop {
            let n = match conn.stream.read(&mut buf).await {
                Ok(0) | Err(_) => break 'conn,
                Ok(n) => n,
            };
            if conn.stop.is_closed() {
                // The writer hit a dead socket and started teardown.
                break 'conn;
            }
            decoder.extend(&buf[..n]);
            loop {
                match decoder.next_frame() {
                    Ok(None) => break,
                    Ok(Some(fr)) => {
                        StatCells::bump(&self.stats.frames_in);
                        match fr {
                            Frame::Pub { topic, payload } => {
                                acks += 1;
                                if self
                                    .publish(conn, conn_id, &topic, NetMsg { payload }, acks)
                                    .await
                                    .is_err()
                                {
                                    break 'conn;
                                }
                            }
                            Frame::Sub { topic } => {
                                let t = self.topic(&topic);
                                let broker = self.clone();
                                let conn = conn.clone();
                                tokio::spawn(async move { broker.forwarder(t, conn).await });
                            }
                            Frame::Close => {
                                // Orderly: flush the outbox (queued ACKs
                                // and deliveries), reply CLOSE, half-close.
                                let _ =
                                    self.enqueue_frame(conn, frame::encode(&Frame::Close)).await;
                                conn.begin_teardown(false);
                                return;
                            }
                            // Server→client frames arriving at the server
                            // are protocol violations.
                            Frame::Msg { .. } | Frame::Ack { .. } | Frame::Busy { .. } => {
                                StatCells::bump(&self.stats.malformed);
                                break 'conn;
                            }
                        }
                    }
                    Err(_) => {
                        StatCells::bump(&self.stats.malformed);
                        break 'conn;
                    }
                }
            }
        }
        conn.begin_teardown(true);
    }

    /// One `PUB`: pinned-lane try, `BUSY` + suspended-read await on
    /// `Full`, then the `ACK`. `Err` ⇒ drop the connection.
    async fn publish(
        self: &Arc<Self>,
        conn: &Arc<Conn<F::Lane>>,
        conn_id: u64,
        topic: &str,
        msg: NetMsg,
        seq: u64,
    ) -> Result<(), ()> {
        let t = self.topic(topic);
        let lane = (conn_id as usize) % self.config.lanes;
        if t.queue.is_full() == Some(true) {
            // Advisory watermark: the hard Full below enforces; this
            // counter is the early-warning signal the tables report.
            StatCells::bump(&self.stats.watermark_hits);
        }
        let mut pinned = t.queue.inner().handle_pinned(lane);
        match t.queue.try_send_with_handle(&mut pinned, msg) {
            Ok(()) => {}
            Err(TrySendError::Closed(_)) => return Err(()),
            Err(TrySendError::Full(msg)) => {
                drop(pinned);
                StatCells::bump(&self.stats.busy);
                self.enqueue_frame(
                    conn,
                    frame::encode(&Frame::Busy {
                        topic: t.name.clone(),
                    }),
                )
                .await?;
                // Protocol-level backpressure: the reader sits here —
                // not reading — until the lane drains. Pinned, so the
                // wait cannot spill the value into another lane and
                // break this publisher's FIFO.
                if t.queue
                    .send_with_handle(t.queue.inner().handle_pinned(lane), msg)
                    .await
                    .is_err()
                {
                    return Err(());
                }
            }
        }
        StatCells::bump(&self.stats.published);
        self.enqueue_frame(conn, frame::encode(&Frame::Ack { seq }))
            .await
    }

    /// One subscription: races the topic against the connection's stop
    /// signal, forwarding into the bounded outbox.
    async fn forwarder(self: Arc<Self>, topic: Arc<Topic<F::Lane>>, conn: Arc<Conn<F::Lane>>) {
        use futures::future::{select, Either};
        loop {
            let recv = topic.queue.recv();
            let stop = conn.stop.recv();
            match select(recv, stop).await {
                Either::Left((Some(msg), _)) => {
                    let out = Out::Deliver {
                        topic: topic.clone(),
                        msg,
                    };
                    if let Err(closed) = conn.outbox.send(out).await {
                        // Outbox closed under us: the value goes back to
                        // the topic, not into the void.
                        self.republish(closed.0).await;
                        return;
                    }
                }
                // Topic closed (broker-wide shutdown): nothing to forward.
                Either::Left((None, _)) => return,
                // Connection tearing down; the dropped recv future holds
                // no value (items are only taken inside poll).
                Either::Right((_, _recv)) => return,
            }
        }
    }

    /// Returns a teardown-stranded message to its topic (tail position —
    /// at-least-once, documented).
    async fn republish(&self, out: Out<F::Lane>) {
        if let Out::Deliver { topic, msg } = out {
            StatCells::bump(&self.stats.requeued);
            // A Full topic parks here until capacity frees; Closed only
            // happens at broker-wide shutdown, where the value dies with
            // the process anyway.
            let _ = topic.queue.send(msg).await;
        }
    }

    /// The writer task: batches outbox frames into one buffer per wake,
    /// honors dirty teardown, republishes on write failure.
    async fn writer(self: Arc<Self>, conn: Arc<Conn<F::Lane>>) {
        let mut buf: Vec<u8> = Vec::with_capacity(WRITE_BATCH);
        loop {
            let Some(first) = conn.outbox.recv().await else {
                // Closed and drained: orderly exit.
                conn.stream.shutdown_write();
                return;
            };
            buf.clear();
            let mut delivers_in_buf: u64 = 0;
            let mut frames_in_buf: u64 = 0;
            let mut next = Some(first);
            loop {
                let Some(out) = next.take() else { break };
                if conn.dirty.load(Ordering::Acquire) {
                    // Peer is gone: deliveries rejoin their topic instead
                    // of being encoded at a dead socket.
                    self.republish(out).await;
                } else {
                    match out {
                        Out::Frame(bytes) => buf.extend_from_slice(&bytes),
                        Out::Deliver { ref topic, ref msg } => {
                            frame::encode_msg_into(&topic.name, &msg.payload, &mut buf);
                            delivers_in_buf += 1;
                        }
                    }
                    frames_in_buf += 1;
                }
                if buf.len() < WRITE_BATCH {
                    next = conn.outbox.try_recv();
                }
            }
            if buf.is_empty() {
                continue;
            }
            if conn.stream.write_all(&buf).await.is_err() {
                // Dead socket: everything still queued gets republished;
                // what was already handed to the kernel is the
                // documented loss boundary (the peer may or may not
                // have read it).
                conn.begin_teardown(true);
                while let Some(out) = conn.outbox.try_recv() {
                    self.republish(out).await;
                }
                // Wake a reader parked in read(): kill the socket.
                let _ = conn.stream.get_ref().shutdown(std::net::Shutdown::Both);
                return;
            }
            self.stats
                .frames_out
                .fetch_add(frames_in_buf, Ordering::Relaxed);
            self.stats
                .delivered
                .fetch_add(delivers_in_buf, Ordering::Relaxed);
        }
    }
}
