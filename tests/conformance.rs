//! Cross-crate conformance suite: every queue in the workspace — the
//! paper's two algorithms and every baseline — must satisfy the same
//! behavioural contract through the common `ConcurrentQueue` trait.

use nbq::baselines::{
    HerlihyWingQueue, LmsQueue, MsDohertyQueue, MsQueue, MutexQueue, ScanMode, ScqQueue,
    ShannQueue, TreiberQueue, TsigasZhangQueue, ValoisQueue, WcqQueue,
};
use nbq::{
    CasQueue, ConcurrentQueue, LanePolicy, LlScQueue, MpscRing, QueueHandle, ShardedConfig,
    ShardedQueue, SpmcRing, SpscRing,
};

/// FIFO order, empty semantics, interleaving, value ownership.
fn conformance_suite<Q: ConcurrentQueue<String>>(make: impl Fn(usize) -> Q) {
    // Order.
    let q = make(16);
    let mut h = q.handle();
    assert_eq!(
        h.dequeue(),
        None,
        "{}: new queue is empty",
        q.algorithm_name()
    );
    for i in 0..10 {
        h.enqueue(format!("v{i}")).unwrap();
    }
    for i in 0..10 {
        assert_eq!(
            h.dequeue().as_deref(),
            Some(format!("v{i}").as_str()),
            "{}: FIFO order",
            q.algorithm_name()
        );
    }
    assert_eq!(h.dequeue(), None);

    // Interleaving with wraparound (several laps of a small array).
    let q = make(4);
    let mut h = q.handle();
    for round in 0..100 {
        h.enqueue(format!("a{round}")).unwrap();
        h.enqueue(format!("b{round}")).unwrap();
        assert_eq!(h.dequeue().as_deref(), Some(format!("a{round}").as_str()));
        assert_eq!(h.dequeue().as_deref(), Some(format!("b{round}").as_str()));
    }

    // Two handles see one queue.
    let q = make(8);
    let mut producer = q.handle();
    let mut consumer = q.handle();
    producer.enqueue("x".into()).unwrap();
    assert_eq!(consumer.dequeue().as_deref(), Some("x"));
}

/// Bounded queues: Full returns the value; space reappears after dequeue.
fn bounded_suite<Q: ConcurrentQueue<String>>(make: impl Fn(usize) -> Q) {
    let q = make(2);
    let cap = ConcurrentQueue::capacity(&q).expect("bounded");
    let mut h = q.handle();
    for i in 0..cap {
        h.enqueue(format!("fill{i}")).unwrap();
    }
    let back = h.enqueue("overflow".into()).unwrap_err().into_inner();
    assert_eq!(
        back,
        "overflow",
        "{}: Full returns value",
        q.algorithm_name()
    );
    assert_eq!(h.dequeue().as_deref(), Some("fill0"));
    h.enqueue("refill".into()).unwrap();
    let mut drained = Vec::new();
    while let Some(v) = h.dequeue() {
        drained.push(v);
    }
    assert_eq!(drained.last().map(String::as_str), Some("refill"));
}

/// Batch calls must be observably equivalent to element-wise loops,
/// whether a queue runs the trait defaults or a native override.
fn batch_suite<Q: ConcurrentQueue<String>>(make: impl Fn(usize) -> Q) {
    let q = make(16);
    let mut h = q.handle();
    let n = h.enqueue_batch((0..10).map(|i| format!("v{i}"))).unwrap();
    assert_eq!(n, 10, "{}", q.algorithm_name());
    let mut out = Vec::new();
    assert_eq!(h.dequeue_batch(&mut out, 4), 4, "{}", q.algorithm_name());
    assert_eq!(
        h.dequeue_batch(&mut out, 64),
        6,
        "{}: stops at empty",
        q.algorithm_name()
    );
    let expect: Vec<String> = (0..10).map(|i| format!("v{i}")).collect();
    assert_eq!(out, expect, "{}: batch FIFO order", q.algorithm_name());
    assert_eq!(h.dequeue(), None);

    // Degenerate calls.
    assert_eq!(h.enqueue_batch(std::iter::empty()).unwrap(), 0);
    assert_eq!(h.dequeue_batch(&mut out, 8), 0);
    assert_eq!(h.dequeue_batch(&mut out, 0), 0);
    // An oversized request must not open a gated ring's count.
    assert_eq!(h.dequeue_batch(&mut out, usize::MAX), 0);
    assert_eq!(
        h.dequeue(),
        None,
        "{}: nothing invented",
        q.algorithm_name()
    );

    // Batch and single ops interleave on one FIFO stream.
    h.enqueue("s1".into()).unwrap();
    h.enqueue_batch(["s2".to_string(), "s3".to_string()].into_iter())
        .unwrap();
    assert_eq!(h.dequeue().as_deref(), Some("s1"));
    out.clear();
    assert_eq!(h.dequeue_batch(&mut out, 8), 2);
    assert_eq!(out, vec!["s2".to_string(), "s3".to_string()]);
}

/// Bounded queues: a batch that exceeds free space lands a FIFO prefix
/// and returns the exact suffix, matching what an element-wise loop
/// would have done.
fn bounded_batch_suite<Q: ConcurrentQueue<String>>(make: impl Fn(usize) -> Q) {
    let q = make(4);
    let cap = ConcurrentQueue::capacity(&q).expect("bounded");
    let mut h = q.handle();
    let e = h
        .enqueue_batch((0..cap + 3).map(|i| format!("b{i}")))
        .unwrap_err();
    assert_eq!(e.enqueued, cap, "{}", q.algorithm_name());
    let expect_left: Vec<String> = (cap..cap + 3).map(|i| format!("b{i}")).collect();
    assert_eq!(e.remaining, expect_left, "{}", q.algorithm_name());
    let mut out = Vec::new();
    assert_eq!(h.dequeue_batch(&mut out, cap + 8), cap);
    let expect_in: Vec<String> = (0..cap).map(|i| format!("b{i}")).collect();
    assert_eq!(
        out,
        expect_in,
        "{}: prefix landed in order",
        q.algorithm_name()
    );
}

/// Drop frees everything exactly once (no leak, no double free).
fn drop_suite<Q: ConcurrentQueue<DropCounter>>(make: impl Fn(usize) -> Q) {
    use std::sync::atomic::Ordering;
    let drops = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    {
        let q = make(16);
        let mut h = q.handle();
        for _ in 0..10 {
            h.enqueue(DropCounter(drops.clone())).unwrap();
        }
        for _ in 0..3 {
            drop(h.dequeue());
        }
        assert_eq!(drops.load(Ordering::SeqCst), 3, "{}", q.algorithm_name());
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        10,
        "queue drop frees the rest"
    );
}

struct DropCounter(std::sync::Arc<std::sync::atomic::AtomicUsize>);
impl Drop for DropCounter {
    fn drop(&mut self) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }
}

#[test]
fn cas_queue_conformance() {
    conformance_suite(CasQueue::<String>::with_capacity);
    batch_suite(CasQueue::<String>::with_capacity);
    bounded_batch_suite(CasQueue::<String>::with_capacity);
    bounded_suite(CasQueue::<String>::with_capacity);
    drop_suite(CasQueue::<DropCounter>::with_capacity);
}

#[test]
fn llsc_queue_conformance() {
    conformance_suite(LlScQueue::<String>::with_capacity);
    batch_suite(LlScQueue::<String>::with_capacity);
    bounded_batch_suite(LlScQueue::<String>::with_capacity);
    bounded_suite(LlScQueue::<String>::with_capacity);
    drop_suite(LlScQueue::<DropCounter>::with_capacity);
}

#[test]
fn shann_queue_conformance() {
    conformance_suite(ShannQueue::<String>::with_capacity);
    batch_suite(ShannQueue::<String>::with_capacity);
    bounded_batch_suite(ShannQueue::<String>::with_capacity);
    bounded_suite(ShannQueue::<String>::with_capacity);
    drop_suite(ShannQueue::<DropCounter>::with_capacity);
}

#[test]
fn tsigas_zhang_conformance() {
    conformance_suite(TsigasZhangQueue::<String>::with_capacity);
    batch_suite(TsigasZhangQueue::<String>::with_capacity);
    bounded_batch_suite(TsigasZhangQueue::<String>::with_capacity);
    bounded_suite(TsigasZhangQueue::<String>::with_capacity);
    drop_suite(TsigasZhangQueue::<DropCounter>::with_capacity);
}

#[test]
fn mutex_queue_conformance() {
    conformance_suite(MutexQueue::<String>::with_capacity);
    batch_suite(MutexQueue::<String>::with_capacity);
    bounded_batch_suite(MutexQueue::<String>::with_capacity);
    bounded_suite(MutexQueue::<String>::with_capacity);
}

#[test]
fn ms_hp_sorted_conformance() {
    conformance_suite(|_| MsQueue::<String>::new(ScanMode::Sorted));
    batch_suite(|_| MsQueue::<String>::new(ScanMode::Sorted));
    drop_suite(|_| MsQueue::<DropCounter>::new(ScanMode::Sorted));
}

#[test]
fn ms_hp_unsorted_conformance() {
    conformance_suite(|_| MsQueue::<String>::new(ScanMode::Unsorted));
    batch_suite(|_| MsQueue::<String>::new(ScanMode::Unsorted));
    drop_suite(|_| MsQueue::<DropCounter>::new(ScanMode::Unsorted));
}

#[test]
fn ms_doherty_conformance() {
    conformance_suite(|_| MsDohertyQueue::<String>::new());
    batch_suite(|_| MsDohertyQueue::<String>::new());
    drop_suite(|_| MsDohertyQueue::<DropCounter>::new());
}

#[test]
fn herlihy_wing_conformance() {
    conformance_suite(|_| HerlihyWingQueue::<String>::with_history_capacity(65_536));
    batch_suite(|_| HerlihyWingQueue::<String>::with_history_capacity(65_536));
    drop_suite(|_| HerlihyWingQueue::<DropCounter>::with_history_capacity(65_536));
}

#[test]
fn lms_conformance() {
    conformance_suite(|_| LmsQueue::<String>::new());
    batch_suite(|_| LmsQueue::<String>::new());
    drop_suite(|_| LmsQueue::<DropCounter>::new());
}

#[test]
fn treiber_conformance() {
    conformance_suite(|_| TreiberQueue::<String>::new());
    batch_suite(|_| TreiberQueue::<String>::new());
    drop_suite(|_| TreiberQueue::<DropCounter>::new());
}

#[test]
fn scq_conformance() {
    conformance_suite(ScqQueue::<String>::with_capacity);
    batch_suite(ScqQueue::<String>::with_capacity);
    bounded_batch_suite(ScqQueue::<String>::with_capacity);
    bounded_suite(ScqQueue::<String>::with_capacity);
    drop_suite(ScqQueue::<DropCounter>::with_capacity);
}

#[test]
fn wcq_conformance() {
    conformance_suite(WcqQueue::<String>::with_capacity);
    batch_suite(WcqQueue::<String>::with_capacity);
    bounded_batch_suite(WcqQueue::<String>::with_capacity);
    bounded_suite(WcqQueue::<String>::with_capacity);
    drop_suite(WcqQueue::<DropCounter>::with_capacity);
}

#[test]
fn wcq_slow_path_conformance() {
    // Patience 0 routes every operation through the helping records, so
    // the whole behavioural contract holds on the slow path alone.
    conformance_suite(|cap| WcqQueue::<String>::with_patience(cap, 0));
    batch_suite(|cap| WcqQueue::<String>::with_patience(cap, 0));
    bounded_batch_suite(|cap| WcqQueue::<String>::with_patience(cap, 0));
    bounded_suite(|cap| WcqQueue::<String>::with_patience(cap, 0));
    drop_suite(|cap| WcqQueue::<DropCounter>::with_patience(cap, 0));
}

#[test]
fn valois_conformance() {
    conformance_suite(ValoisQueue::<String>::with_capacity);
    batch_suite(ValoisQueue::<String>::with_capacity);
    bounded_batch_suite(ValoisQueue::<String>::with_capacity);
    bounded_suite(ValoisQueue::<String>::with_capacity);
    drop_suite(ValoisQueue::<DropCounter>::with_capacity);
}

/// One sharded queue per lane kind, all over the same inner factory, so
/// the suites exercise the `LanePolicy` axis rather than the inner queue.
fn sharded_kind<T: Send>(
    lanes: usize,
    policy: LanePolicy,
    cap: usize,
) -> ShardedQueue<T, CasQueue<T>> {
    let mut config = ShardedConfig::with_lanes(lanes);
    config.lane_policy = policy;
    ShardedQueue::with_config(config, |_| CasQueue::with_capacity(cap))
}

#[test]
fn sharded_mpmc_lane_conformance() {
    conformance_suite(|cap| sharded_kind::<String>(1, LanePolicy::Mpmc, cap));
    batch_suite(|cap| sharded_kind::<String>(1, LanePolicy::Mpmc, cap));
    bounded_suite(|cap| sharded_kind::<String>(1, LanePolicy::Mpmc, cap));
    bounded_batch_suite(|cap| sharded_kind::<String>(1, LanePolicy::Mpmc, cap));
    drop_suite(|cap| sharded_kind::<DropCounter>(1, LanePolicy::Mpmc, cap));
}

#[test]
fn sharded_spsc_lane_conformance() {
    // On a single fast-path lane every handle lands on lane 0, so the
    // suites' producers and consumers claim the ring endpoints and the
    // whole run stays on the wait-free path. The bounded suites apply
    // too: `capacity()` reports the conservative reachable bound (the
    // MPMC share, to which the ring is sized), so an unpromoted ring
    // producer fills exactly to the advertised capacity before `Full`.
    conformance_suite(|cap| sharded_kind::<String>(1, LanePolicy::SpscFastPath, cap));
    batch_suite(|cap| sharded_kind::<String>(1, LanePolicy::SpscFastPath, cap));
    bounded_suite(|cap| sharded_kind::<String>(1, LanePolicy::SpscFastPath, cap));
    bounded_batch_suite(|cap| sharded_kind::<String>(1, LanePolicy::SpscFastPath, cap));
    drop_suite(|cap| sharded_kind::<DropCounter>(1, LanePolicy::SpscFastPath, cap));
}

#[test]
fn spsc_ring_conformance() {
    // The raw ring is a bona fide `ConcurrentQueue` for one producer and
    // one consumer; every single-threaded suite fits that arity.
    conformance_suite(SpscRing::<String>::with_capacity);
    batch_suite(SpscRing::<String>::with_capacity);
    bounded_suite(SpscRing::<String>::with_capacity);
    bounded_batch_suite(SpscRing::<String>::with_capacity);
    drop_suite(SpscRing::<DropCounter>::with_capacity);
}

#[test]
fn sharded_mpsc_lane_conformance() {
    conformance_suite(|cap| sharded_kind::<String>(1, LanePolicy::MpscFastPath, cap));
    batch_suite(|cap| sharded_kind::<String>(1, LanePolicy::MpscFastPath, cap));
    bounded_suite(|cap| sharded_kind::<String>(1, LanePolicy::MpscFastPath, cap));
    bounded_batch_suite(|cap| sharded_kind::<String>(1, LanePolicy::MpscFastPath, cap));
    drop_suite(|cap| sharded_kind::<DropCounter>(1, LanePolicy::MpscFastPath, cap));
}

#[test]
fn sharded_spmc_lane_conformance() {
    conformance_suite(|cap| sharded_kind::<String>(1, LanePolicy::SpmcFastPath, cap));
    batch_suite(|cap| sharded_kind::<String>(1, LanePolicy::SpmcFastPath, cap));
    bounded_suite(|cap| sharded_kind::<String>(1, LanePolicy::SpmcFastPath, cap));
    bounded_batch_suite(|cap| sharded_kind::<String>(1, LanePolicy::SpmcFastPath, cap));
    drop_suite(|cap| sharded_kind::<DropCounter>(1, LanePolicy::SpmcFastPath, cap));
}

#[test]
fn mpsc_ring_conformance() {
    // The raw half-relaxed ring: any number of producers, one consumer.
    // The single-threaded suites exercise its 1p/1c corner.
    conformance_suite(MpscRing::<String>::with_capacity);
    batch_suite(MpscRing::<String>::with_capacity);
    bounded_suite(MpscRing::<String>::with_capacity);
    bounded_batch_suite(MpscRing::<String>::with_capacity);
    drop_suite(MpscRing::<DropCounter>::with_capacity);
}

#[test]
fn spmc_ring_conformance() {
    conformance_suite(SpmcRing::<String>::with_capacity);
    batch_suite(SpmcRing::<String>::with_capacity);
    bounded_suite(SpmcRing::<String>::with_capacity);
    bounded_batch_suite(SpmcRing::<String>::with_capacity);
    drop_suite(SpmcRing::<DropCounter>::with_capacity);
}

#[test]
fn sharded_mixed_lanes_keep_per_lane_fifo_under_pinning() {
    let q = sharded_kind::<String>(4, LanePolicy::SpscFastPath, 8);
    for lane in 0..4 {
        assert!(q.lane_has_fast_path(lane));
        let mut h = q.handle_pinned(lane);
        for i in 0..5 {
            h.enqueue(format!("l{lane}v{i}")).unwrap();
        }
    }
    assert_eq!(ConcurrentQueue::len(&q), Some(20));
    for lane in 0..4 {
        let mut h = q.handle_pinned(lane);
        for i in 0..5 {
            assert_eq!(
                h.dequeue().as_deref(),
                Some(format!("l{lane}v{i}").as_str()),
                "lane {lane} keeps strict FIFO on its own stream"
            );
        }
    }
    assert_eq!(ConcurrentQueue::is_empty(&q), Some(true));
}

/// ISSUE misuse case: a second live producer on an SPSC lane is not
/// corruption — it promotes the lane to its MPMC queue, and every value
/// from both producers survives the switch.
#[test]
fn second_producer_on_an_spsc_lane_promotes_not_corrupts() {
    let q = sharded_kind::<u64>(1, LanePolicy::SpscFastPath, 64);
    let mut first = q.handle_pinned(0);
    let mut second = q.handle_pinned(0);

    first.enqueue(1).unwrap();
    assert_eq!(q.lane_promoted(0), Some(false));
    // The second registrant trips the arity registry: the lane promotes
    // instead of letting two pushers race the wait-free ring.
    second.enqueue(2).unwrap();
    assert_eq!(q.lane_promoted(0), Some(true));
    first.enqueue(3).unwrap();
    second.enqueue(4).unwrap();

    let mut got = Vec::new();
    let mut consumer = q.handle_pinned(0);
    while let Some(v) = consumer.dequeue() {
        got.push(v);
    }
    // Per-producer order survives promotion even though the global
    // interleaving is unspecified.
    let pos = |v: u64| got.iter().position(|&x| x == v).unwrap();
    assert!(pos(1) < pos(3), "first producer's stream stays ordered");
    assert!(pos(2) < pos(4), "second producer's stream stays ordered");
    got.sort_unstable();
    assert_eq!(got, vec![1, 2, 3, 4], "no value lost or duplicated");
    assert_eq!(ConcurrentQueue::len(&q), Some(0));
    // Promotion is sticky: the lane stays on the MPMC path.
    assert_eq!(q.lane_promoted(0), Some(true));
}

/// ISSUE misuse mirror for the MPSC lane: its *single* side is the
/// consumer, so a second live consumer demotes the lane — producers may
/// fan in freely without ever promoting.
#[test]
fn second_consumer_on_an_mpsc_lane_demotes_not_corrupts() {
    let q = sharded_kind::<u64>(1, LanePolicy::MpscFastPath, 64);
    let mut p1 = q.handle_pinned(0);
    let mut p2 = q.handle_pinned(0);
    p1.enqueue(1).unwrap();
    p2.enqueue(2).unwrap();
    assert_eq!(
        q.lane_promoted(0),
        Some(false),
        "the multi side never forces promotion"
    );
    let mut c1 = q.handle_pinned(0);
    let mut got = Vec::new();
    got.extend(c1.dequeue());
    assert_eq!(q.lane_promoted(0), Some(false));
    // Second registrant of the single (consumer) side: demote, don't race
    // the wait-free pop.
    let mut c2 = q.handle_pinned(0);
    got.extend(c2.dequeue());
    assert_eq!(q.lane_promoted(0), Some(true));
    p1.enqueue(3).unwrap();
    p2.enqueue(4).unwrap();
    while let Some(v) = c1.dequeue() {
        got.push(v);
    }
    drop(c1);
    while let Some(v) = c2.dequeue() {
        got.push(v);
    }
    got.sort_unstable();
    assert_eq!(got, vec![1, 2, 3, 4], "no value lost or duplicated");
    assert_eq!(ConcurrentQueue::len(&q), Some(0));
    assert_eq!(q.lane_promoted(0), Some(true), "demotion is sticky");
}

/// ISSUE misuse mirror for the SPMC lane: its *single* side is the
/// producer, so a second live producer demotes — consumers fan out
/// freely without ever promoting.
#[test]
fn second_producer_on_an_spmc_lane_demotes_not_corrupts() {
    let q = sharded_kind::<u64>(1, LanePolicy::SpmcFastPath, 64);
    let mut c1 = q.handle_pinned(0);
    let mut c2 = q.handle_pinned(0);
    let mut p1 = q.handle_pinned(0);
    p1.enqueue(1).unwrap();
    assert_eq!(c1.dequeue(), Some(1));
    assert_eq!(
        q.lane_promoted(0),
        Some(false),
        "any number of draining consumers is the ring's normal mode"
    );
    let mut p2 = q.handle_pinned(0);
    p2.enqueue(2).unwrap();
    assert_eq!(
        q.lane_promoted(0),
        Some(true),
        "second registrant of the single (producer) side demotes"
    );
    p1.enqueue(3).unwrap();
    p2.enqueue(4).unwrap();
    let mut got = vec![1];
    while let Some(v) = c1.dequeue() {
        got.push(v);
    }
    while let Some(v) = c2.dequeue() {
        got.push(v);
    }
    got.sort_unstable();
    assert_eq!(got, vec![1, 2, 3, 4], "no value lost or duplicated");
    assert_eq!(ConcurrentQueue::len(&q), Some(0));
    assert_eq!(q.lane_promoted(0), Some(true), "demotion is sticky");
}

#[test]
fn blocking_adapter_over_cas_queue() {
    use nbq::BlockingQueue;
    let q = BlockingQueue::new(CasQueue::<String>::with_capacity(4));
    let mut h = q.handle();
    h.try_send("a".into()).unwrap();
    assert_eq!(h.try_recv().as_deref(), Some("a"));
    // Blocking recv across threads.
    let got = std::thread::scope(|s| {
        let consumer = s.spawn(|| q.handle().recv());
        q.handle().try_send("b".into()).unwrap();
        consumer.join().unwrap()
    });
    assert_eq!(got.as_deref(), Some("b"));
}

#[test]
fn algorithm_names_are_distinct() {
    let names = [
        ConcurrentQueue::<String>::algorithm_name(&CasQueue::with_capacity(2)),
        ConcurrentQueue::<String>::algorithm_name(&LlScQueue::with_capacity(2)),
        ConcurrentQueue::<String>::algorithm_name(&ShannQueue::with_capacity(2)),
        ConcurrentQueue::<String>::algorithm_name(&TsigasZhangQueue::with_capacity(2)),
        ConcurrentQueue::<String>::algorithm_name(&MutexQueue::with_capacity(2)),
        ConcurrentQueue::<String>::algorithm_name(&MsQueue::new(ScanMode::Sorted)),
        ConcurrentQueue::<String>::algorithm_name(&MsQueue::new(ScanMode::Unsorted)),
        ConcurrentQueue::<String>::algorithm_name(&MsDohertyQueue::new()),
        ConcurrentQueue::<String>::algorithm_name(&HerlihyWingQueue::with_history_capacity(1)),
        ConcurrentQueue::<String>::algorithm_name(&ValoisQueue::with_capacity(2)),
        ConcurrentQueue::<String>::algorithm_name(&TreiberQueue::new()),
        ConcurrentQueue::<String>::algorithm_name(&LmsQueue::new()),
        ConcurrentQueue::<String>::algorithm_name(&ScqQueue::with_capacity(2)),
        ConcurrentQueue::<String>::algorithm_name(&WcqQueue::with_capacity(2)),
    ];
    let mut unique = names.to_vec();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names: {names:?}");
}

#[test]
fn occupancy_observers_report_through_the_trait() {
    // Array queues derive occupancy from Tail - Head.
    let q = CasQueue::<String>::with_capacity(4);
    assert_eq!(ConcurrentQueue::len(&q), Some(0));
    assert_eq!(ConcurrentQueue::is_empty(&q), Some(true));
    q.handle().enqueue("x".into()).unwrap();
    assert_eq!(ConcurrentQueue::len(&q), Some(1));
    assert_eq!(ConcurrentQueue::is_empty(&q), Some(false));

    for (len, is_empty) in [
        {
            let q = LlScQueue::<String>::with_capacity(4);
            q.handle().enqueue("x".into()).unwrap();
            (ConcurrentQueue::len(&q), ConcurrentQueue::is_empty(&q))
        },
        {
            let q = ShannQueue::<String>::with_capacity(4);
            q.handle().enqueue("x".into()).unwrap();
            (ConcurrentQueue::len(&q), ConcurrentQueue::is_empty(&q))
        },
        {
            let q = TsigasZhangQueue::<String>::with_capacity(4);
            q.handle().enqueue("x".into()).unwrap();
            (ConcurrentQueue::len(&q), ConcurrentQueue::is_empty(&q))
        },
    ] {
        assert_eq!(len, Some(1));
        assert_eq!(is_empty, Some(false));
    }

    // List-based queues without a counter keep the None default.
    assert_eq!(
        ConcurrentQueue::<String>::len(&MsQueue::new(ScanMode::Sorted)),
        None
    );
    assert_eq!(
        ConcurrentQueue::<String>::is_empty(&TreiberQueue::<String>::new()),
        None
    );
}

#[test]
fn modern_rivals_report_through_the_trait() {
    use nbq::QueueKind;

    // Both rivals round capacity up to a power of two and derive
    // occupancy from their allocated ring.
    let q = ScqQueue::<String>::with_capacity(5);
    assert_eq!(ConcurrentQueue::capacity(&q), Some(8));
    assert_eq!(ConcurrentQueue::len(&q), Some(0));
    q.handle().enqueue("x".into()).unwrap();
    assert_eq!(ConcurrentQueue::len(&q), Some(1));
    assert_eq!(ConcurrentQueue::is_empty(&q), Some(false));
    assert_eq!(ConcurrentQueue::kind(&q), QueueKind::mpmc());

    let q = WcqQueue::<String>::with_capacity(5);
    assert_eq!(ConcurrentQueue::capacity(&q), Some(8));
    assert_eq!(ConcurrentQueue::len(&q), Some(0));
    q.handle().enqueue("x".into()).unwrap();
    assert_eq!(ConcurrentQueue::len(&q), Some(1));
    assert_eq!(ConcurrentQueue::is_empty(&q), Some(false));
    assert_eq!(ConcurrentQueue::kind(&q), QueueKind::mpmc_wait_free());
}

#[test]
fn unbounded_queues_report_no_capacity() {
    assert_eq!(
        ConcurrentQueue::<String>::capacity(&MsQueue::new(ScanMode::Sorted)),
        None
    );
    assert_eq!(
        ConcurrentQueue::<String>::capacity(&MsDohertyQueue::new()),
        None
    );
    assert_eq!(
        ConcurrentQueue::<String>::capacity(&CasQueue::with_capacity(5)),
        Some(8),
        "array queues round capacity up to a power of two"
    );
}
