//! `broker`: the pipe flow through `nbq-net` over loopback. One publisher
//! connection and one subscriber connection share one topic with one
//! `MpscFastPath` lane. Publishing is stop-and-wait `PUB`/`ACK` with
//! 64-byte payloads; everything runs on one two-worker runtime whose IO
//! driver is the broker's `Reactor`. The client below uses only the
//! public `Broker`, `Async` and `frame` API.

use crate::async_pipe::{executor_counters, executor_layers, start_runtime};
use crate::check::{failures, mix64, Tally};
use crate::measure::{ratio, stamp, Counter, Phase, Quantiles, Samples};
use crate::pipe::CAPACITY;
use crate::RigOut;
use nbq_core::{CasQueue, LanePolicy};
use nbq_net::{frame, Async, Broker, BrokerConfig, Decoder, Frame, NetMsg, Reactor};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAYLOAD: usize = 64;
const WARM: u64 = 2_000;
const TOPIC: &str = "ladder";
/// How long the subscriber may lag the publisher once the run stops.
const DRAIN: Duration = Duration::from_secs(20);

/// Payload: seq, send stamp, then seed-derived filler checked on receipt.
fn fill(seed: u64, seq: u64, sent_ns: u64, out: &mut [u8]) {
    out[..8].copy_from_slice(&seq.to_le_bytes());
    out[8..16].copy_from_slice(&sent_ns.to_le_bytes());
    for (i, chunk) in out[16..].chunks_mut(8).enumerate() {
        let word = mix64(seed ^ seq.rotate_left(17) ^ i as u64);
        chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
    }
}

fn word(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(w)
}

#[derive(Default)]
struct PubOut {
    sent: u64,
    faults: u64,
    encode: Option<Samples>,
    write: Option<Samples>,
    ack_rtt: Option<Samples>,
}

struct SubOut {
    faults: u64,
    corrupt: u64,
    reads: u64,
    msgs: u64,
    decode: Option<Samples>,
    latency: Samples,
    tally: Tally,
}

pub fn rig(seed: u64, traced: bool, seconds: f64) -> RigOut {
    let start = Instant::now();
    let anchor = start;
    let reactor = Reactor::new().expect("create the epoll reactor");
    let rt = start_runtime(
        tokio::runtime::Builder::new_multi_thread().io_driver(reactor.clone()),
        2,
    );
    let config = BrokerConfig {
        lanes: 1,
        lane_policy: LanePolicy::MpscFastPath,
        ..BrokerConfig::default()
    };
    let broker = Broker::new(reactor.clone(), config, |_lane: usize| {
        CasQueue::<NetMsg>::with_capacity(CAPACITY)
    });
    let listener = Async::bind(reactor.clone(), "127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("listener address");
    let server = rt.spawn(broker.clone().serve(listener));
    let phase = Arc::new(Phase::default());
    let progress = Arc::new(Counter::default());
    let delivered = Arc::new(AtomicU64::new(0));

    let sub_stream =
        Arc::new(Async::connect(reactor.clone(), addr).expect("connect the subscriber"));
    let subscriber = rt.spawn({
        let (stream, phase, delivered) = (sub_stream.clone(), phase.clone(), delivered.clone());
        async move { subscribe(&stream, seed, &phase, &delivered, traced, anchor).await }
    });
    let pub_stream = Async::connect(reactor.clone(), addr).expect("connect the publisher");
    let publisher = rt.spawn({
        let (phase, progress) = (phase.clone(), progress.clone());
        async move { publish(pub_stream, seed, &phase, &progress, traced, anchor).await }
    });

    phase.wait_ready(2);
    let setup_s = start.elapsed().as_secs_f64();
    // Reactor dispatches and broker BUSY events.
    let net = || [reactor.dispatched(), broker.stats().busy];
    let (exec0, net0) = (executor_counters(&rt), net());
    let (items, window_s) = phase.window(seconds, || progress.get());
    let (exec1, net1) = (executor_counters(&rt), net());
    let pub_out = rt.block_on(publisher).expect("broker publisher panicked");
    let deadline = Instant::now() + DRAIN;
    while delivered.load(Ordering::Acquire) < pub_out.sent && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    // Everything sent has arrived (or never will): end the subscriber.
    let _ = sub_stream.get_ref().shutdown(Shutdown::Both);
    let sub_out = rt.block_on(subscriber).expect("broker subscriber panicked");
    server.abort();
    drop(rt);

    let mut layers = Vec::new();
    if traced {
        let q = |s: &Option<Samples>| Quantiles::of(s.as_ref());
        let (enc, dec, write, rtt) = (
            q(&pub_out.encode),
            q(&sub_out.decode),
            q(&pub_out.write),
            q(&pub_out.ack_rtt),
        );
        let per_msg = |i: usize| ratio((net1[i] - net0[i]) as f64, items as f64);
        layers = vec![
            ("net.frame.encode_ns_p50", enc.p50_ns),
            ("net.frame.decode_ns_p50", dec.p50_ns),
            ("net.conn.write_ns_p50", write.p50_ns),
            (
                "net.conn.reads_per_msg",
                ratio(sub_out.reads as f64, sub_out.msgs as f64),
            ),
            ("net.reactor.dispatched_per_msg", per_msg(0)),
            ("net.broker.ack_rtt_us_p50", rtt.p50_ns / 1e3),
            ("net.broker.ack_rtt_us_p99", rtt.p99_ns / 1e3),
            ("net.broker.busy_per_msg", per_msg(1)),
        ];
        layers.extend(executor_layers(exec0, exec1, items));
    }
    RigOut {
        setup_s,
        attempted: pub_out.sent,
        failed: failures(&[pub_out.sent], &[sub_out.tally])
            + pub_out.faults
            + sub_out.faults
            + sub_out.corrupt,
        items,
        window_s,
        latency: Quantiles::of([&sub_out.latency]),
        layers,
    }
}

async fn publish(
    stream: Async<TcpStream>,
    seed: u64,
    phase: &Phase,
    progress: &Counter,
    traced: bool,
    anchor: Instant,
) -> PubOut {
    let mut out = PubOut {
        encode: traced.then(Samples::new),
        write: traced.then(Samples::new),
        ack_rtt: traced.then(Samples::new),
        ..PubOut::default()
    };
    let mut decoder = Decoder::new();
    let mut buf = vec![0u8; 4096];
    let mut payload = vec![0u8; PAYLOAD];
    'run: while !phase.stopped() {
        let timing = traced && phase.timing();
        let seq = out.sent;
        fill(seed, seq, stamp(anchor), &mut payload);
        let msg = Frame::Pub {
            topic: TOPIC.to_owned(),
            payload: payload.clone(),
        };
        let t0 = Instant::now();
        let bytes = frame::encode(&msg);
        let t1 = Instant::now();
        let written = stream.write_all(&bytes).await;
        if timing {
            if let (Some(e), Some(w)) = (out.encode.as_mut(), out.write.as_mut()) {
                e.record(t1 - t0);
                w.record(t1.elapsed());
            }
        }
        if written.is_err() {
            out.faults += 1;
            break;
        }
        // Stop-and-wait: the ACK for this PUB, with any BUSY before it.
        loop {
            match decoder.next_frame() {
                Ok(Some(Frame::Ack { seq: acked })) => {
                    out.faults += u64::from(acked != seq + 1);
                    if let (true, Some(s)) = (timing, out.ack_rtt.as_mut()) {
                        s.record(t1.elapsed());
                    }
                    break;
                }
                Ok(Some(Frame::Busy { .. })) => continue,
                Ok(None) => {}
                Ok(Some(_)) | Err(_) => {
                    out.faults += 1;
                    break 'run;
                }
            }
            match stream.read(&mut buf).await {
                Ok(n) if n > 0 => decoder.extend(&buf[..n]),
                _ => {
                    out.faults += 1;
                    break 'run;
                }
            }
        }
        out.sent += 1;
        progress.set(out.sent);
        if out.sent == WARM {
            phase.arrive();
        }
    }
    if out.sent < WARM {
        phase.arrive();
    }
    // Orderly goodbye: CLOSE, then read to the broker's half-close.
    if stream
        .write_all(&frame::encode(&Frame::Close))
        .await
        .is_ok()
    {
        while let Ok(n) = stream.read(&mut buf).await {
            if n == 0 {
                break;
            }
        }
    }
    out
}

async fn subscribe(
    stream: &Async<TcpStream>,
    seed: u64,
    phase: &Phase,
    delivered: &AtomicU64,
    traced: bool,
    anchor: Instant,
) -> SubOut {
    let mut out = SubOut {
        faults: 0,
        corrupt: 0,
        reads: 0,
        msgs: 0,
        decode: traced.then(Samples::new),
        latency: Samples::new(),
        tally: Tally::new(1),
    };
    let mut expect = vec![0u8; PAYLOAD];
    let mut buf = vec![0u8; 16 * 1024];
    let mut decoder = Decoder::new();
    let mut received = 0u64;
    let sub = frame::encode(&Frame::Sub {
        topic: TOPIC.to_owned(),
    });
    if stream.write_all(&sub).await.is_err() {
        out.faults += 1;
    }
    'run: loop {
        let n = match stream.read(&mut buf).await {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let timing = phase.timing();
        out.reads += u64::from(timing);
        decoder.extend(&buf[..n]);
        loop {
            let t0 = Instant::now();
            let payload = match decoder.next_frame() {
                Ok(Some(Frame::Msg { payload, .. })) => payload,
                Ok(None) => break,
                Ok(Some(Frame::Close)) => continue,
                Ok(Some(_)) | Err(_) => {
                    out.faults += 1;
                    break 'run;
                }
            };
            if let (true, Some(s)) = (timing, out.decode.as_mut()) {
                s.record(t0.elapsed());
            }
            if payload.len() != PAYLOAD {
                out.corrupt += 1;
                continue;
            }
            let (seq, sent_ns) = (word(&payload, 0), word(&payload, 8));
            fill(seed, seq, sent_ns, &mut expect);
            out.corrupt += u64::from(payload != expect);
            out.tally.observe(0, seq);
            if timing {
                out.msgs += 1;
                out.latency.record_ns(stamp(anchor).saturating_sub(sent_ns));
            }
            received += 1;
            delivered.store(received, Ordering::Release);
            if received == WARM {
                phase.arrive();
            }
        }
    }
    if received < WARM {
        phase.arrive();
    }
    out
}
