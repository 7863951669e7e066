//! Same-process network load generator: thousands of loopback
//! connections through broker → topic queue → broker → subscriber, with
//! latency stamped through the full kernel path.
//!
//! Connections come in pairs sharing a topic: the even half publishes,
//! the odd half subscribes. Publishers run stop-and-wait (`PUB`, await
//! `ACK`) so per-connection in-flight is bounded by the protocol, and
//! record the `ACK` round-trip; subscribers timestamp-decode each `MSG`
//! against a shared [`Instant`] anchor for the true end-to-end latency
//! (publish syscall → queue → epoll wakeup → delivery read). `BUSY`
//! frames observed client-side are counted — that is backpressure
//! working, not an error.
//!
//! Everything runs on one runtime whose IO driver is the broker's
//! [`Reactor`], so the measurement includes the real scheduling story:
//! workers park in `epoll_wait` and readiness lands in the dispatching
//! worker's LIFO slot.

use crate::broker::{Broker, BrokerConfig, BrokerStats, NetMsg};
use crate::conn::Async;
use crate::frame::{self, Decoder, Frame};
use crate::reactor::Reactor;
use nbq_util::latency::LatencyHistogram;
use nbq_util::queue::LaneFactory;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Total connections (rounded up to even; half publish, half
    /// subscribe).
    pub connections: usize,
    /// `PUB`s per publisher connection.
    pub messages_per_publisher: usize,
    /// Payload size in bytes (min 8 — the first 8 carry the timestamp).
    pub payload_bytes: usize,
    /// Connection *pairs* sharing each topic (fan-in × fan-out degree).
    pub pairs_per_topic: usize,
    /// Runtime worker threads.
    pub workers: usize,
    /// Broker construction parameters.
    pub broker: BrokerConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            connections: 1024,
            messages_per_publisher: 20,
            payload_bytes: 64,
            pairs_per_topic: 8,
            workers: 2,
            broker: BrokerConfig::default(),
        }
    }
}

/// What one load run measured.
#[derive(Debug)]
pub struct NetReport {
    /// Wall-clock of the publish/deliver phase (connections excluded).
    pub elapsed: Duration,
    /// Messages published (equals the config's publisher count ×
    /// messages each).
    pub published: u64,
    /// Messages received by subscribers (must equal `published` — the
    /// conservation check).
    pub delivered: u64,
    /// `BUSY` frames observed client-side.
    pub busy_observed: u64,
    /// Publish→deliver latency through the full network path.
    pub e2e: LatencyHistogram,
    /// `PUB`→`ACK` round-trip as the publisher saw it.
    pub ack_rtt: LatencyHistogram,
    /// The broker's own counters at the end of the run.
    pub broker: BrokerStats,
}

impl NetReport {
    /// Delivered messages per second of the publish phase.
    pub fn throughput(&self) -> f64 {
        self.delivered as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

struct SharedRun {
    anchor: Instant,
    delivered: AtomicU64,
    busy_observed: AtomicU64,
}

/// Runs the broker under `config.connections` loopback connections with
/// topics backed by `factory`-built lanes, and reports throughput plus
/// end-to-end and ACK-RTT histograms.
///
/// Panics on protocol violations (lost values, malformed replies) — a
/// failed conservation check is a bug, not a data point.
pub fn run_workload_net<F>(config: NetConfig, factory: F) -> NetReport
where
    F: LaneFactory<NetMsg> + Send + 'static,
    F::Lane: Send + Sync + 'static,
{
    let pairs = config.connections.div_ceil(2).max(1);
    let payload_bytes = config.payload_bytes.max(8);
    let topics = pairs.div_ceil(config.pairs_per_topic.max(1));
    let reactor = Reactor::new().expect("reactor");
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(config.workers.max(1))
        .io_driver(reactor.clone())
        .enable_all()
        .build()
        .expect("runtime");
    let broker = Broker::new(reactor.clone(), config.broker, factory);
    let shared = Arc::new(SharedRun {
        anchor: Instant::now(),
        delivered: AtomicU64::new(0),
        busy_observed: AtomicU64::new(0),
    });
    let expected = (pairs * config.messages_per_publisher) as u64;

    rt.block_on(async {
        let listener = Async::bind(broker.reactor().clone(), "127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        tokio::spawn(broker.clone().serve(listener));

        // Subscribers first, serially, so every topic has a consumer
        // before the first PUB (otherwise early messages just queue and
        // the small lane capacities spend the whole warmup in BUSY).
        let mut sub_streams: Vec<Arc<Async<TcpStream>>> = Vec::with_capacity(pairs);
        let mut sub_tasks = Vec::with_capacity(pairs);
        let mut connected = 0;
        for pair in 0..pairs {
            let topic = format!("t{}", pair % topics);
            let stream = Arc::new(
                connect_within_backlog(&broker, addr, &mut connected)
                    .await
                    .expect("subscriber connect"),
            );
            stream
                .write_all(&frame::encode(&Frame::Sub { topic }))
                .await
                .expect("SUB write");
            sub_streams.push(stream.clone());
            let shared = shared.clone();
            sub_tasks.push(tokio::spawn(subscriber(stream, shared)));
        }

        let start = Instant::now();
        let mut pub_tasks = Vec::with_capacity(pairs);
        for pair in 0..pairs {
            let topic = format!("t{}", pair % topics);
            let stream = connect_within_backlog(&broker, addr, &mut connected)
                .await
                .expect("publisher connect");
            let shared = shared.clone();
            pub_tasks.push(tokio::spawn(publisher(
                stream,
                topic,
                config.messages_per_publisher,
                payload_bytes,
                shared,
            )));
        }

        let mut ack_rtt = LatencyHistogram::new();
        for task in pub_tasks {
            let hist = task.await.expect("publisher task");
            ack_rtt.merge(&hist);
        }
        // Publishers are done; wait for the queues to drain to the
        // subscribers (conservation: every published message arrives).
        let deadline = Instant::now() + Duration::from_secs(120);
        while shared.delivered.load(Ordering::Relaxed) < expected {
            if Instant::now() >= deadline {
                let lens: Vec<(String, Option<usize>)> = (0..topics)
                    .map(|t| {
                        let name = format!("t{t}");
                        let len = broker.topic_len(&name);
                        (name, len)
                    })
                    .collect();
                panic!(
                    "conservation timeout: delivered {} of {expected}; broker {:?}; topic lens {lens:?}",
                    shared.delivered.load(Ordering::Relaxed),
                    broker.stats(),
                );
            }
            tokio::time::sleep(Duration::from_millis(2)).await;
        }
        let elapsed = start.elapsed();

        // Everything is delivered: kill the subscriber sockets (reads
        // return 0/reset) and collect the histograms.
        for stream in &sub_streams {
            let _ = stream.get_ref().shutdown(std::net::Shutdown::Both);
        }
        let mut e2e = LatencyHistogram::new();
        for task in sub_tasks {
            let hist = task.await.expect("subscriber task");
            e2e.merge(&hist);
        }
        let delivered = shared.delivered.load(Ordering::Relaxed);
        assert_eq!(delivered, expected, "delivered ≠ published");
        NetReport {
            elapsed,
            published: expected,
            delivered,
            busy_observed: shared.busy_observed.load(Ordering::Relaxed),
            e2e,
            ack_rtt,
            broker: broker.stats(),
        }
    })
}

/// Connections the generator lets run ahead of the broker's accept
/// loop. `Async::bind` listens with std's backlog of 128; once the accept
/// queue overflows the kernel drops the SYN and retries it only after
/// 1 s, so a run would time that retransmit instead of the broker.
const MAX_UNACCEPTED: u64 = 64;

/// Connects to the broker at `addr` once it has accepted all but
/// `MAX_UNACCEPTED` of the `connected` connections made so far.
async fn connect_within_backlog<F>(
    broker: &Broker<F>,
    addr: std::net::SocketAddr,
    connected: &mut u64,
) -> std::io::Result<Async<TcpStream>>
where
    F: LaneFactory<NetMsg> + Send + 'static,
    F::Lane: Send + Sync + 'static,
{
    while *connected >= broker.stats().connections + MAX_UNACCEPTED {
        tokio::time::sleep(Duration::from_micros(100)).await;
    }
    *connected += 1;
    Async::connect(broker.reactor().clone(), addr)
}

async fn publisher(
    stream: Async<TcpStream>,
    topic: String,
    messages: usize,
    payload_bytes: usize,
    shared: Arc<SharedRun>,
) -> LatencyHistogram {
    let mut hist = LatencyHistogram::new();
    let mut decoder = Decoder::new();
    let mut buf = vec![0u8; 4096];
    let mut payload = vec![0u8; payload_bytes];
    for seq in 1..=messages as u64 {
        let stamp = shared.anchor.elapsed().as_nanos() as u64;
        payload[..8].copy_from_slice(&stamp.to_le_bytes());
        let sent = Instant::now();
        stream
            .write_all(&frame::encode(&Frame::Pub {
                topic: topic.clone(),
                payload: payload.clone(),
            }))
            .await
            .expect("PUB write");
        // Stop-and-wait: one ACK per PUB bounds this connection's
        // in-flight to 1. BUSY frames may arrive first — count them and
        // keep reading; the delayed ACK is the backpressure release.
        'await_ack: loop {
            while let Some(fr) = decoder.next_frame().expect("publisher decode") {
                match fr {
                    Frame::Ack { seq: acked } => {
                        assert_eq!(acked, seq, "ACKs arrived out of order");
                        hist.record(sent.elapsed());
                        break 'await_ack;
                    }
                    Frame::Busy { .. } => {
                        shared.busy_observed.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("unexpected frame at publisher: {other:?}"),
                }
            }
            let n = stream.read(&mut buf).await.expect("publisher read");
            assert_ne!(n, 0, "broker closed publisher mid-run");
            decoder.extend(&buf[..n]);
        }
    }
    // Orderly goodbye: CLOSE, then drain to the echoed CLOSE/EOF.
    stream
        .write_all(&frame::encode(&Frame::Close))
        .await
        .expect("CLOSE write");
    loop {
        match stream.read(&mut buf).await {
            Ok(0) | Err(_) => break,
            Ok(n) => decoder.extend(&buf[..n]),
        }
    }
    hist
}

async fn subscriber(stream: Arc<Async<TcpStream>>, shared: Arc<SharedRun>) -> LatencyHistogram {
    let mut hist = LatencyHistogram::new();
    let mut decoder = Decoder::new();
    let mut buf = vec![0u8; 16 * 1024];
    loop {
        let n = match stream.read(&mut buf).await {
            // EOF or the main task's shutdown: done.
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        decoder.extend(&buf[..n]);
        while let Some(fr) = decoder.next_frame().expect("subscriber decode") {
            match fr {
                Frame::Msg { payload, .. } => {
                    let stamp = u64::from_le_bytes(payload[..8].try_into().expect("stamp"));
                    let now = shared.anchor.elapsed().as_nanos() as u64;
                    hist.record_ns(now.saturating_sub(stamp));
                    shared.delivered.fetch_add(1, Ordering::Relaxed);
                }
                Frame::Close => {}
                other => panic!("unexpected frame at subscriber: {other:?}"),
            }
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbq_core::CasQueue;

    #[test]
    fn small_run_conserves_every_message() {
        let report = run_workload_net(
            NetConfig {
                connections: 32,
                messages_per_publisher: 10,
                payload_bytes: 16,
                pairs_per_topic: 4,
                workers: 2,
                broker: BrokerConfig::default(),
            },
            |_lane: usize| CasQueue::<NetMsg>::with_capacity(64),
        );
        assert_eq!(report.published, 160);
        assert_eq!(report.delivered, 160);
        assert_eq!(report.e2e.count(), 160);
        assert_eq!(report.ack_rtt.count(), 160);
        assert_eq!(report.broker.delivered, 160);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn tiny_lanes_surface_busy_backpressure_without_loss() {
        let report = run_workload_net(
            NetConfig {
                connections: 8,
                messages_per_publisher: 50,
                payload_bytes: 8,
                pairs_per_topic: 4,
                workers: 2,
                broker: BrokerConfig {
                    lanes: 1,
                    ..BrokerConfig::default()
                },
            },
            |_lane: usize| CasQueue::<NetMsg>::with_capacity(2),
        );
        assert_eq!(report.delivered, 200);
        // With capacity 2 and 4 stop-and-wait publishers per topic the
        // lane must saturate at least occasionally; the broker count is
        // authoritative (the client sees BUSY only when it races ahead).
        assert_eq!(report.broker.published, 200);
    }
}
