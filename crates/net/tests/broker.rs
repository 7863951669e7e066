//! Loopback integration tests for the broker: per-publisher FIFO, BUSY
//! backpressure, lossless subscriber disconnect (with the fast-path
//! registry demotion observed), and clean CLOSE draining.

use nbq_core::CasQueue;
use nbq_net::frame::{self, Decoder, Frame};
use nbq_net::{Async, Broker, BrokerConfig, NetMsg, Reactor};
use nbq_util::queue::LaneFactory;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runtime + broker (CAS-queue lanes of `lane_cap`) + listener on an
/// ephemeral loopback port.
fn setup(
    config: BrokerConfig,
    lane_cap: usize,
) -> (
    tokio::runtime::Runtime,
    Arc<Broker<impl LaneFactory<NetMsg, Lane = CasQueue<NetMsg>> + Send + 'static>>,
    SocketAddr,
) {
    let reactor = Reactor::new().expect("reactor");
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(2)
        .io_driver(reactor.clone())
        .enable_all()
        .build()
        .expect("runtime");
    let broker = Broker::new(reactor.clone(), config, move |_lane: usize| {
        CasQueue::with_capacity(lane_cap)
    });
    let addr = rt.block_on(async {
        let listener = Async::bind(reactor, "127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        tokio::spawn(broker.clone().serve(listener));
        addr
    });
    (rt, broker, addr)
}

/// A test client: framed reads over the raw stream.
struct Client {
    stream: Async<TcpStream>,
    dec: Decoder,
    buf: Vec<u8>,
}

impl Client {
    fn connect(reactor: Arc<Reactor>, addr: SocketAddr) -> Client {
        Client {
            stream: Async::connect(reactor, addr).expect("connect"),
            dec: Decoder::new(),
            buf: vec![0u8; 16 * 1024],
        }
    }

    async fn send(&self, fr: &Frame) {
        self.stream
            .write_all(&frame::encode(fr))
            .await
            .expect("send");
    }

    /// Next frame, or `None` at EOF.
    async fn read_frame(&mut self) -> Option<Frame> {
        loop {
            if let Some(fr) = self.dec.next_frame().expect("well-formed reply") {
                return Some(fr);
            }
            match self.stream.read(&mut self.buf).await {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.dec.extend(&self.buf[..n]),
            }
        }
    }

    /// Frames already written by the broker before a half-close: drain
    /// the readable side to EOF.
    async fn drain_to_eof(&mut self) -> Vec<Frame> {
        let mut out = Vec::new();
        while let Some(fr) = self.read_frame().await {
            out.push(fr);
        }
        out
    }
}

fn tag(publisher: u64, seq: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(16);
    p.extend_from_slice(&publisher.to_le_bytes());
    p.extend_from_slice(&seq.to_le_bytes());
    p
}

fn untag(payload: &[u8]) -> (u64, u64) {
    (
        u64::from_le_bytes(payload[..8].try_into().expect("tag")),
        u64::from_le_bytes(payload[8..16].try_into().expect("tag")),
    )
}

/// Two pipelining publishers on one topic: the single subscriber must
/// see each publisher's messages in strictly increasing order (lanes
/// are pinned per connection — per-publisher FIFO is unconditional),
/// and every message exactly once.
#[test]
fn per_publisher_fifo_holds_through_the_wire() {
    const N: u64 = 100;
    let (rt, broker, addr) = setup(BrokerConfig::default(), 1024);
    let reactor = broker.reactor().clone();
    rt.block_on(async move {
        let mut sub = Client::connect(reactor.clone(), addr);
        sub.send(&Frame::Sub {
            topic: "orders".into(),
        })
        .await;

        let mut pubs = Vec::new();
        for p in 0..2u64 {
            let reactor = reactor.clone();
            pubs.push(tokio::spawn(async move {
                let mut client = Client::connect(reactor, addr);
                // Pipeline: write all PUBs, then collect all ACKs.
                for seq in 0..N {
                    client
                        .send(&Frame::Pub {
                            topic: "orders".into(),
                            payload: tag(p, seq),
                        })
                        .await;
                }
                for expect in 1..=N {
                    match client.read_frame().await {
                        Some(Frame::Ack { seq }) => assert_eq!(seq, expect),
                        other => panic!("publisher {p}: expected ACK, got {other:?}"),
                    }
                }
            }));
        }

        let mut last: HashMap<u64, u64> = HashMap::new();
        let mut seen = 0u64;
        while seen < 2 * N {
            match sub.read_frame().await {
                Some(Frame::Msg { topic, payload }) => {
                    assert_eq!(topic, "orders");
                    let (p, seq) = untag(&payload);
                    match last.get(&p) {
                        None => assert_eq!(seq, 0, "publisher {p} started at {seq}"),
                        Some(&prev) => {
                            assert_eq!(seq, prev + 1, "publisher {p} reordered: {prev} then {seq}")
                        }
                    }
                    last.insert(p, seq);
                    seen += 1;
                }
                other => panic!("subscriber: expected MSG, got {other:?}"),
            }
        }
        for task in pubs {
            task.await.expect("publisher");
        }
        assert_eq!(last.len(), 2);
    });
}

/// A publisher racing ahead of a tiny topic gets a `BUSY` frame, its
/// reads suspend until the lane drains, and not one message is lost:
/// the delayed ACKs all arrive once a subscriber shows up.
#[test]
fn busy_backpressure_roundtrip_is_lossless() {
    const N: u64 = 24;
    let (rt, broker, addr) = setup(
        BrokerConfig {
            lanes: 1,
            ..BrokerConfig::default()
        },
        2,
    );
    let reactor = broker.reactor().clone();
    rt.block_on(async move {
        let mut publisher = Client::connect(reactor.clone(), addr);
        // No subscriber yet: the topic cannot drain, so the lane (MPMC
        // capacity 2 plus its fan-in ring) must fill and the broker must
        // answer BUSY and stop reading.
        for seq in 0..N {
            publisher
                .send(&Frame::Pub {
                    topic: "firehose".into(),
                    payload: tag(0, seq),
                })
                .await;
        }

        // First replies must include a BUSY before the ACKs can finish.
        let mut acked = 0u64;
        let mut busy = 0u64;
        let collector = async {
            while acked < N {
                match publisher.read_frame().await {
                    Some(Frame::Ack { seq }) => {
                        acked += 1;
                        assert_eq!(seq, acked);
                    }
                    Some(Frame::Busy { topic }) => {
                        assert_eq!(topic, "firehose");
                        busy += 1;
                    }
                    other => panic!("expected ACK/BUSY, got {other:?}"),
                }
                if busy > 0 {
                    // Saturation reached: now release the pressure by
                    // subscribing.
                    break;
                }
            }
        };
        collector.await;
        assert!(busy > 0, "tiny lane never reported BUSY");

        let mut sub = Client::connect(reactor.clone(), addr);
        sub.send(&Frame::Sub {
            topic: "firehose".into(),
        })
        .await;
        let mut got = 0u64;
        let drain = async {
            while got < N {
                match sub.read_frame().await {
                    Some(Frame::Msg { payload, .. }) => {
                        let (_, seq) = untag(&payload);
                        assert_eq!(seq, got, "work-queue order from a single publisher");
                        got += 1;
                    }
                    other => panic!("expected MSG, got {other:?}"),
                }
            }
        };
        let acks = async {
            while acked < N {
                match publisher.read_frame().await {
                    Some(Frame::Ack { seq }) => {
                        acked += 1;
                        assert_eq!(seq, acked);
                    }
                    Some(Frame::Busy { .. }) => busy += 1,
                    other => panic!("expected ACK/BUSY, got {other:?}"),
                }
            }
        };
        // Draining cannot depend on the publisher's ACK reads (the ACK
        // socket never fills at this scale), so sequence them.
        drain.await;
        acks.await;
        assert_eq!(got, N, "every message delivered despite backpressure");
        assert!(broker.stats().busy > 0, "broker must have counted the Full");
    });
}

/// Two subscribers split one publisher's stream (work-queue semantics);
/// one vanishes mid-stream without CLOSE. Nothing is lost: frames the
/// broker already wrote stay readable past the half-close, everything
/// still queued for the dead connection is republished to the survivor,
/// and ids(A) ⊎ ids(B) is exactly the published set. The two concurrent
/// forwarders also trip the fan-in ring's sticky consumer-side
/// promotion, observable through the registry.
#[test]
fn subscriber_disconnect_loses_nothing_and_demotes_the_lane() {
    const N: u64 = 300;
    let (rt, broker, addr) = setup(
        BrokerConfig {
            lanes: 1,
            ..BrokerConfig::default()
        },
        32,
    );
    let reactor = broker.reactor().clone();
    rt.block_on(async move {
        let mut sub_a = Client::connect(reactor.clone(), addr);
        sub_a
            .send(&Frame::Sub {
                topic: "feed".into(),
            })
            .await;
        let mut sub_b = Client::connect(reactor.clone(), addr);
        sub_b
            .send(&Frame::Sub {
                topic: "feed".into(),
            })
            .await;

        let publisher = {
            let reactor = reactor.clone();
            tokio::spawn(async move {
                let mut client = Client::connect(reactor, addr);
                for seq in 0..N {
                    client
                        .send(&Frame::Pub {
                            topic: "feed".into(),
                            payload: tag(0, seq),
                        })
                        .await;
                    match client.read_frame().await {
                        Some(Frame::Ack { .. }) => {}
                        Some(Frame::Busy { .. }) => match client.read_frame().await {
                            Some(Frame::Ack { .. }) => {}
                            other => panic!("expected delayed ACK, got {other:?}"),
                        },
                        other => panic!("expected ACK, got {other:?}"),
                    }
                }
            })
        };

        // A takes a 20-message prefix, then vanishes without CLOSE
        // (write-side half-close models the crash: no more input to the
        // broker, but bytes already on the wire stay readable). The two
        // forwarders park on the topic's FIFO waiter list in turn, so
        // neither starves the other: A must get its whole prefix, each
        // message within the timeout.
        let mut ids_a = Vec::new();
        for i in 0..20 {
            match tokio::time::timeout(Duration::from_millis(500), sub_a.read_frame()).await {
                Ok(Some(Frame::Msg { payload, .. })) => ids_a.push(untag(&payload).1),
                Ok(other) => panic!("sub A: expected MSG, got {other:?}"),
                Err(_) => panic!("sub A starved: no MSG within 500 ms after {i} of 20"),
            }
        }
        sub_a.stream.shutdown_write();
        // Whatever the broker had already committed to A's socket
        // arrives before EOF; count it all.
        for fr in sub_a.drain_to_eof().await {
            match fr {
                Frame::Msg { payload, .. } => ids_a.push(untag(&payload).1),
                Frame::Close => {}
                other => panic!("sub A tail: unexpected {other:?}"),
            }
        }

        // B absorbs the rest, including anything republished from A's
        // dead outbox. A bounded per-read timeout turns a lost message
        // into a loud failure instead of a hang.
        let mut ids_b = Vec::new();
        while ids_a.len() + ids_b.len() < N as usize {
            match tokio::time::timeout(Duration::from_secs(30), sub_b.read_frame()).await {
                Ok(Some(Frame::Msg { payload, .. })) => ids_b.push(untag(&payload).1),
                Ok(other) => panic!("sub B: expected MSG, got {other:?}"),
                Err(_) => panic!(
                    "message lost: A={} B={} of {N} (stats {:?})",
                    ids_a.len(),
                    ids_b.len(),
                    broker.stats()
                ),
            }
        }
        publisher.await.expect("publisher");

        let mut all: Vec<u64> = ids_a.iter().chain(ids_b.iter()).copied().collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..N).collect();
        assert_eq!(
            all, expect,
            "ids(A) ⊎ ids(B) must be exactly the published set"
        );

        // Two concurrent forwarders on a 1-lane MPSC-fast-path topic:
        // the second consumer claim must have stickily promoted the ring.
        assert_eq!(broker.lane_promoted("feed", 0), Some(true));
        let requeued = broker.stats().requeued;
        assert!(
            ids_a.len() < N as usize,
            "A must have disconnected mid-stream for the test to mean anything"
        );
        // Republishing only happens if A's outbox held undelivered
        // frames at teardown — racy, so just require consistency.
        assert!(requeued <= N);
    });
}

/// CLOSE is a drain barrier: every ACK for the pipelined PUBs arrives
/// before the echoed CLOSE, which precedes EOF.
#[test]
fn clean_close_drains_the_outbox_before_eof() {
    const N: u64 = 50;
    let (rt, broker, addr) = setup(BrokerConfig::default(), 1024);
    let reactor = broker.reactor().clone();
    rt.block_on(async move {
        let mut client = Client::connect(reactor, addr);
        for seq in 0..N {
            client
                .send(&Frame::Pub {
                    topic: "t".into(),
                    payload: tag(0, seq),
                })
                .await;
        }
        client.send(&Frame::Close).await;
        let frames = client.drain_to_eof().await;
        assert_eq!(frames.len() as u64, N + 1);
        for (i, fr) in frames.iter().take(N as usize).enumerate() {
            match fr {
                Frame::Ack { seq } => assert_eq!(*seq, i as u64 + 1),
                other => panic!("expected ACK #{i}, got {other:?}"),
            }
        }
        assert_eq!(frames.last(), Some(&Frame::Close));
        assert_eq!(broker.stats().published, N);
    });
}

/// The CLOSE drain holds for queued *deliveries* too: a subscriber that
/// CLOSEs while messages stream at it still gets everything already
/// committed to its outbox before the echoed CLOSE.
#[test]
fn subscriber_close_flushes_pending_deliveries() {
    let (rt, broker, addr) = setup(BrokerConfig::default(), 1024);
    let reactor = broker.reactor().clone();
    rt.block_on(async move {
        let mut sub = Client::connect(reactor.clone(), addr);
        sub.send(&Frame::Sub { topic: "s".into() }).await;
        let mut publisher = Client::connect(reactor.clone(), addr);
        for seq in 0..10u64 {
            publisher
                .send(&Frame::Pub {
                    topic: "s".into(),
                    payload: tag(0, seq),
                })
                .await;
        }
        for _ in 0..10 {
            match publisher.read_frame().await {
                Some(Frame::Ack { .. }) | Some(Frame::Busy { .. }) => {}
                other => panic!("expected ACK, got {other:?}"),
            }
        }
        // All 10 landed in the topic. CLOSE must flush whatever was
        // already committed to this subscriber's outbox; anything the
        // forwarder had not yet committed is republished to the topic —
        // conservation, not delivery, is the invariant.
        sub.send(&Frame::Close).await;
        let frames = sub.drain_to_eof().await;
        let msgs = frames
            .iter()
            .filter(|f| matches!(f, Frame::Msg { .. }))
            .count();
        assert_eq!(frames.last(), Some(&Frame::Close));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let queued = broker.topic_len("s").expect("topic exists");
            if msgs + queued == 10 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "conservation failed: {msgs} delivered + {queued} queued != 10"
            );
            tokio::time::sleep(Duration::from_millis(2)).await;
        }
    });
}
