//! Property-based tests (proptest): random operation sequences against a
//! reference model, differential testing of the LL/SC emulations, and
//! cross-validation of the two linearizability checkers.

use nbq::baselines::cycle::{cycle_eq, cycle_lt, ones, pos_le, position_cycle};
use nbq::baselines::scq::{scq_cycle, scq_cycle_bits, scq_idx, scq_is_safe, scq_pack};
use nbq::baselines::wcq::{
    wcq_cycle, wcq_cycle_bits, wcq_idx, wcq_is_live, wcq_is_safe, wcq_pack, wcq_tag,
    DEFAULT_PATIENCE,
};
use nbq::baselines::{
    HerlihyWingQueue, LmsQueue, MsQueue, ScanMode, ScqQueue, ShannQueue, TreiberQueue,
    TsigasZhangQueue, ValoisQueue, WcqQueue,
};
use nbq::lincheck::{
    check_history, check_linearizable, check_value_integrity, History, Op, OpKind, SearchResult,
};
use nbq::llsc::{FaultPlan, LlScCell, OracleCell, VersionedCell, WeakCell};
use nbq::{CasQueue, ConcurrentQueue, LlScQueue, QueueHandle, ShardedQueue};
use nbq_util::ring_slot;
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

/// A single-threaded op script.
#[derive(Debug, Clone)]
enum ScriptOp {
    Enqueue(u64),
    Dequeue,
}

fn script_strategy(max_len: usize) -> impl Strategy<Value = Vec<ScriptOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..1_000_000).prop_map(ScriptOp::Enqueue),
            Just(ScriptOp::Dequeue),
        ],
        0..max_len,
    )
}

/// Replays a script against a queue and a VecDeque model with the same
/// capacity; results must agree exactly (sequential linearizability).
fn assert_matches_model<Q: ConcurrentQueue<u64>>(queue: &Q, script: &[ScriptOp]) {
    let cap = ConcurrentQueue::capacity(queue);
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut h = queue.handle();
    for (i, op) in script.iter().enumerate() {
        match op {
            ScriptOp::Enqueue(v) => {
                let queue_result = h.enqueue(*v);
                let model_full = cap.is_some_and(|c| model.len() >= c);
                match (queue_result, model_full) {
                    (Ok(()), false) => model.push_back(*v),
                    (Err(e), true) => assert_eq!(e.into_inner(), *v),
                    (Ok(()), true) => panic!(
                        "{} op {i}: accepted into a full queue",
                        queue.algorithm_name()
                    ),
                    (Err(_), false) => panic!(
                        "{} op {i}: rejected though model has {} < cap {:?}",
                        queue.algorithm_name(),
                        model.len(),
                        cap
                    ),
                }
            }
            ScriptOp::Dequeue => {
                assert_eq!(
                    h.dequeue(),
                    model.pop_front(),
                    "{} op {i}: dequeue mismatch",
                    queue.algorithm_name()
                );
            }
        }
    }
    // Drain and compare the tails.
    let mut rest = Vec::new();
    while let Some(v) = h.dequeue() {
        rest.push(v);
    }
    assert_eq!(rest, model.into_iter().collect::<Vec<_>>());
}

/// A single-threaded script mixing batch calls with element-wise ops.
#[derive(Debug, Clone)]
enum BatchScriptOp {
    Enqueue,
    Dequeue,
    /// Enqueue a batch of this many fresh values (0 = empty batch).
    EnqueueBatch(usize),
    /// Dequeue up to this many values (0 = degenerate request).
    DequeueBatch(usize),
}

fn batch_script_strategy(max_len: usize) -> impl Strategy<Value = Vec<BatchScriptOp>> {
    prop::collection::vec(
        prop_oneof![
            Just(BatchScriptOp::Enqueue),
            Just(BatchScriptOp::Dequeue),
            // Up to 16: with capacities drawn from 1..12 this covers
            // batches strictly larger than the whole queue.
            (0usize..17).prop_map(BatchScriptOp::EnqueueBatch),
            (0usize..17).prop_map(BatchScriptOp::DequeueBatch),
        ],
        0..max_len,
    )
}

/// Replays a batch script against a queue and a VecDeque model, checking
/// every partial-acceptance boundary exactly, while recording a history
/// whose value integrity is then checked through `lincheck`.
fn assert_batch_matches_model<Q: ConcurrentQueue<u64>>(queue: &Q, script: &[BatchScriptOp]) {
    let cap = ConcurrentQueue::capacity(queue).expect("batch model tests need a bounded queue");
    let name = queue.algorithm_name();
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut h = queue.handle();
    let mut tag = 0u64;
    let mut ts = 0u64;
    let mut ops: Vec<Op> = Vec::new();
    let mut record = |kind: OpKind, ts: &mut u64| {
        ops.push(Op {
            thread: 0,
            kind,
            start: *ts,
            end: *ts + 1,
        });
        *ts += 2;
    };
    for (i, op) in script.iter().enumerate() {
        match op {
            BatchScriptOp::Enqueue => {
                tag += 1;
                let accepted = h.enqueue(tag).is_ok();
                assert_eq!(
                    accepted,
                    model.len() < cap,
                    "{name} op {i}: single enqueue full-boundary mismatch"
                );
                if accepted {
                    model.push_back(tag);
                }
                record(
                    if accepted {
                        OpKind::Enqueue(tag)
                    } else {
                        OpKind::EnqueueFull(tag)
                    },
                    &mut ts,
                );
            }
            BatchScriptOp::Dequeue => {
                let got = h.dequeue();
                assert_eq!(got, model.pop_front(), "{name} op {i}: dequeue mismatch");
                record(OpKind::Dequeue(got), &mut ts);
            }
            BatchScriptOp::EnqueueBatch(len) => {
                let values: Vec<u64> = (0..*len)
                    .map(|_| {
                        tag += 1;
                        tag
                    })
                    .collect();
                let free = cap - model.len();
                match h.enqueue_batch(values.clone().into_iter()) {
                    Ok(n) => {
                        assert_eq!(n, values.len(), "{name} op {i}: wrong Ok count");
                        assert!(
                            values.len() <= free,
                            "{name} op {i}: accepted {n} with only {free} free"
                        );
                        model.extend(&values);
                        for &v in &values {
                            record(OpKind::Enqueue(v), &mut ts);
                        }
                    }
                    Err(e) => {
                        assert!(
                            values.len() > free,
                            "{name} op {i}: rejected batch of {} with {free} free",
                            values.len()
                        );
                        assert_eq!(e.enqueued, free, "{name} op {i}: partial-fill count");
                        assert_eq!(
                            e.remaining,
                            &values[free..],
                            "{name} op {i}: leftovers not the in-order tail"
                        );
                        model.extend(&values[..free]);
                        for &v in &values[..free] {
                            record(OpKind::Enqueue(v), &mut ts);
                        }
                        for &v in &values[free..] {
                            record(OpKind::EnqueueFull(v), &mut ts);
                        }
                    }
                }
            }
            BatchScriptOp::DequeueBatch(max) => {
                let mut out = Vec::new();
                let got = h.dequeue_batch(&mut out, *max);
                assert_eq!(got, out.len(), "{name} op {i}: count/out disagree");
                let expect: Vec<u64> = (0..(*max).min(model.len()))
                    .map(|_| model.pop_front().expect("sized by min"))
                    .collect();
                assert_eq!(out, expect, "{name} op {i}: batch dequeue mismatch");
                if got == 0 && *max > 0 {
                    record(OpKind::Dequeue(None), &mut ts);
                }
                for &v in &out {
                    record(OpKind::Dequeue(Some(v)), &mut ts);
                }
            }
        }
    }
    // Drain the tail and close out the history.
    let mut rest = Vec::new();
    while let Some(v) = h.dequeue() {
        record(OpKind::Dequeue(Some(v)), &mut ts);
        rest.push(v);
    }
    assert_eq!(rest, model.into_iter().collect::<Vec<_>>(), "{name}: tail");
    let history = History { ops };
    check_value_integrity(&history)
        .unwrap_or_else(|v| panic!("{name}: batch history integrity: {v}"));
    check_history(&history).unwrap_or_else(|v| panic!("{name}: batch history: {v}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cas_queue_matches_model(script in script_strategy(120), cap in 1usize..20) {
        assert_matches_model(&CasQueue::<u64>::with_capacity(cap), &script);
    }

    #[test]
    fn cas_queue_batches_match_model(script in batch_script_strategy(60), cap in 1usize..12) {
        // Covers zero-length batches, batches larger than the capacity,
        // and batch/element interleavings on one queue in a single sweep.
        assert_batch_matches_model(&CasQueue::<u64>::with_capacity(cap), &script);
    }

    #[test]
    fn llsc_queue_batches_match_model(script in batch_script_strategy(60), cap in 1usize..12) {
        assert_batch_matches_model(&LlScQueue::<u64>::with_capacity(cap), &script);
    }

    #[test]
    fn mutex_queue_batches_match_model_via_defaults(
        script in batch_script_strategy(50),
        cap in 1usize..10,
    ) {
        // The element-wise default impls must obey the same contract as
        // the native overrides.
        assert_batch_matches_model(
            &nbq::baselines::MutexQueue::<u64>::with_capacity(cap),
            &script,
        );
    }

    #[test]
    fn sharded_queue_conserves_values_through_batches(
        script in batch_script_strategy(60),
        lanes in 1usize..5,
        per_lane_cap in 1usize..8,
    ) {
        // The sharded frontend reorders across lanes, so it cannot be
        // held to the single-FIFO model; what it must never do is lose
        // or duplicate a value, including when a batch spills on Full.
        let q = ShardedQueue::with_lanes(lanes, |_| CasQueue::<u64>::with_capacity(per_lane_cap));
        let mut h = q.handle();
        let mut tag = 0u64;
        let mut accepted: HashSet<u64> = HashSet::new();
        let mut drained: Vec<u64> = Vec::new();
        for op in &script {
            match op {
                BatchScriptOp::Enqueue => {
                    tag += 1;
                    if h.enqueue(tag).is_ok() {
                        accepted.insert(tag);
                    }
                }
                BatchScriptOp::Dequeue => drained.extend(h.dequeue()),
                BatchScriptOp::EnqueueBatch(len) => {
                    let values: Vec<u64> = (0..*len).map(|_| { tag += 1; tag }).collect();
                    match h.enqueue_batch(values.clone().into_iter()) {
                        Ok(n) => {
                            prop_assert_eq!(n, values.len());
                            accepted.extend(values);
                        }
                        Err(e) => {
                            prop_assert_eq!(e.enqueued + e.remaining.len(), values.len());
                            let rejected: HashSet<u64> = e.remaining.iter().copied().collect();
                            prop_assert_eq!(rejected.len(), e.remaining.len(), "dup leftovers");
                            accepted.extend(values.into_iter().filter(|v| !rejected.contains(v)));
                        }
                    }
                }
                BatchScriptOp::DequeueBatch(max) => {
                    let mut out = Vec::new();
                    let got = h.dequeue_batch(&mut out, *max);
                    prop_assert_eq!(got, out.len());
                    drained.append(&mut out);
                }
            }
        }
        while let Some(v) = h.dequeue() {
            drained.push(v);
        }
        let drained_set: HashSet<u64> = drained.iter().copied().collect();
        prop_assert_eq!(drained_set.len(), drained.len(), "a value came out twice");
        prop_assert_eq!(drained_set, accepted, "loss or thin-air value");
    }

    #[test]
    fn llsc_queue_matches_model(script in script_strategy(120), cap in 1usize..20) {
        assert_matches_model(&LlScQueue::<u64>::with_capacity(cap), &script);
    }

    #[test]
    fn llsc_queue_over_weak_cells_matches_model(
        script in script_strategy(80),
        cap in 1usize..12,
        seed in any::<u64>(),
    ) {
        let q: LlScQueue<u64, WeakCell> = LlScQueue::with_cells(
            cap,
            nbq_core::llsc_queue::LlScQueueConfig::default(),
            |_, v| WeakCell::new(v, FaultPlan::Probability { seed, num: 1, den: 3 }),
        );
        assert_matches_model(&q, &script);
    }

    #[test]
    fn shann_queue_matches_model(script in script_strategy(120), cap in 1usize..20) {
        assert_matches_model(&ShannQueue::<u64>::with_capacity(cap), &script);
    }

    #[test]
    fn tsigas_zhang_matches_model(script in script_strategy(120), cap in 1usize..20) {
        assert_matches_model(&TsigasZhangQueue::<u64>::with_capacity(cap), &script);
    }

    #[test]
    fn scq_queue_matches_model(script in script_strategy(120), cap in 1usize..20) {
        assert_matches_model(&ScqQueue::<u64>::with_capacity(cap), &script);
    }

    #[test]
    fn scq_queue_batches_match_model(script in batch_script_strategy(60), cap in 1usize..12) {
        assert_batch_matches_model(&ScqQueue::<u64>::with_capacity(cap), &script);
    }

    #[test]
    fn wcq_queue_matches_model(
        script in script_strategy(120),
        cap in 1usize..20,
        slow in any::<bool>(),
    ) {
        // Half the cases run entirely on the helped slow path.
        let patience = if slow { 0 } else { DEFAULT_PATIENCE };
        assert_matches_model(&WcqQueue::<u64>::with_patience(cap, patience), &script);
    }

    #[test]
    fn wcq_queue_batches_match_model(
        script in batch_script_strategy(60),
        cap in 1usize..12,
        slow in any::<bool>(),
    ) {
        let patience = if slow { 0 } else { DEFAULT_PATIENCE };
        assert_batch_matches_model(&WcqQueue::<u64>::with_patience(cap, patience), &script);
    }

    // --- Cycle-index arithmetic for the modern-rival rings ------------

    #[test]
    fn scq_entry_packing_roundtrips_at_every_order(
        order in 1u32..20,
        cycle in any::<u64>(),
        safe in any::<bool>(),
        idx in any::<u64>(),
    ) {
        let cycle = cycle & ones(scq_cycle_bits(order));
        let idx = idx & ones(order); // includes ⊥ = all-ones
        let e = scq_pack(order, cycle, safe, idx);
        prop_assert_eq!(scq_cycle(e, order), cycle);
        prop_assert_eq!(scq_is_safe(e, order), safe);
        prop_assert_eq!(scq_idx(e, order), idx);
    }

    #[test]
    fn wcq_entry_packing_roundtrips_at_every_order(
        order in 1u32..20,
        cycle in any::<u64>(),
        safe in any::<bool>(),
        live in any::<bool>(),
        tag in 0u64..128,
        idx in any::<u64>(),
    ) {
        let cycle = cycle & ones(wcq_cycle_bits(order));
        let idx = idx & ones(order);
        let e = wcq_pack(order, cycle, safe, live, tag, idx);
        prop_assert_eq!(wcq_cycle(e, order), cycle);
        prop_assert_eq!(wcq_is_safe(e, order), safe);
        prop_assert_eq!(wcq_is_live(e, order), live);
        prop_assert_eq!(wcq_tag(e, order), tag);
        prop_assert_eq!(wcq_idx(e, order), idx);
    }

    #[test]
    fn cycle_comparison_is_correct_across_the_wrap(
        bits in 4u32..62,
        base in any::<u64>(),
        delta in any::<u64>(),
    ) {
        // Truncated cycles wrap mod 2^bits; the sign-bit comparison must
        // order any pair whose true distance is under half the space, on
        // either side of the wrap — including 2^bits - 1 < 0.
        let a = base & ones(bits);
        let half = 1u64 << (bits - 1);
        let delta = delta % (half - 1) + 1; // 1 .. half-1
        let b = a.wrapping_add(delta) & ones(bits);
        prop_assert!(cycle_lt(a, b, bits), "{a:#x} !< {b:#x} (bits {bits})");
        prop_assert!(!cycle_lt(b, a, bits));
        prop_assert!(!cycle_eq(a, b, bits));
        prop_assert!(cycle_eq(a, a, bits));
        prop_assert!(!cycle_lt(a, a, bits));
    }

    #[test]
    fn position_cycle_wraps_with_the_u64_position_counter(
        order in 1u32..16,
        back in 1u64..1000,
        fwd in 1u64..1000,
    ) {
        // Positions just below u64::MAX and just above 0: the truncated
        // cycles must still compare "before wrap" < "after wrap", for
        // both entry widths (SCQ's bits and wCQ's narrower field).
        let n = 1u64 << order;
        let before = position_cycle(0u64.wrapping_sub(back * n), order);
        let after = position_cycle((fwd - 1) * n, order);
        for bits in [scq_cycle_bits(order), wcq_cycle_bits(order)] {
            prop_assert!(
                cycle_lt(before & ones(bits), after & ones(bits), bits),
                "cycle {before:#x} !< {after:#x} at {bits} bits"
            );
        }
        // The raw position comparison agrees.
        prop_assert!(pos_le(0u64.wrapping_sub(back * n), (fwd - 1) * n));
    }

    #[test]
    fn ring_slot_remap_is_a_lap_permutation(order in 0u32..12, lap in any::<u64>()) {
        let n = 1usize << order;
        let mut seen = vec![false; n];
        for off in 0..n as u64 {
            let pos = lap.wrapping_mul(n as u64).wrapping_add(off);
            let s = ring_slot(pos, order);
            prop_assert!(s < n);
            prop_assert!(!seen[s], "slot {s} hit twice in one lap (order {order})");
            seen[s] = true;
        }
    }

    #[test]
    fn invalidated_entries_stay_distinguishable_and_reclaimable(
        order in 1u32..20,
        cycle in any::<u64>(),
        idx in any::<u64>(),
    ) {
        // Invalidation (clearing the safe bit) must not disturb the
        // cycle or index fields: a skipped entry still carries enough
        // state for a later-lap enqueue to recognise and reclaim it.
        let bits = scq_cycle_bits(order);
        let cycle = cycle & (ones(bits) >> 1); // room for cycle + 1
        let idx = idx & ones(order);
        let live = scq_pack(order, cycle, true, idx);
        let dead = scq_pack(order, cycle, false, idx);
        prop_assert!(!scq_is_safe(dead, order));
        prop_assert_eq!(scq_cycle(dead, order), scq_cycle(live, order));
        prop_assert_eq!(scq_idx(dead, order), scq_idx(live, order));
        // The next lap's cycle still reads as strictly later, so the
        // unsafe entry loses every CAS race it should lose.
        prop_assert!(cycle_lt(scq_cycle(dead, order), cycle + 1, bits));
    }

    #[test]
    fn scq_threshold_exhaustion_and_catchup_stay_model_conformant(
        empties in 1usize..40,
        cap in 1usize..8,
    ) {
        // Arbitrary runs of dequeue-on-empty exhaust the threshold and
        // leave over-claimed tickets for catchup to repair; the queue
        // must come back indistinguishable from the model afterwards.
        let q = ScqQueue::<u64>::with_stats(cap);
        let mut h = q.handle();
        prop_assert_eq!(h.dequeue(), None);
        h.enqueue(1).unwrap();
        prop_assert_eq!(h.dequeue(), Some(1));
        for _ in 0..empties {
            prop_assert_eq!(h.dequeue(), None);
        }
        let n = ConcurrentQueue::capacity(&q).unwrap() as u64;
        for v in 0..2 * n {
            h.enqueue(v).unwrap();
            prop_assert_eq!(h.dequeue(), Some(v));
        }
        let stats = q.stats().unwrap();
        prop_assert!(
            stats.threshold_resets.load(std::sync::atomic::Ordering::Relaxed) >= 1,
            "enqueues after exhaustion must re-arm the threshold"
        );
        prop_assert!(
            stats.catchups.load(std::sync::atomic::Ordering::Relaxed) >= 1,
            "over-claimed empty dequeues must repair Tail"
        );
    }

    #[test]
    fn ms_queue_matches_model(script in script_strategy(120)) {
        // Unbounded: model never reports full.
        assert_matches_model(&MsQueue::<u64>::new(ScanMode::Sorted), &script);
    }

    #[test]
    fn valois_queue_matches_model(script in script_strategy(100), cap in 1usize..16) {
        assert_matches_model(&ValoisQueue::<u64>::with_capacity(cap), &script);
    }

    #[test]
    fn treiber_queue_matches_model(script in script_strategy(100)) {
        assert_matches_model(&TreiberQueue::<u64>::new(), &script);
    }

    #[test]
    fn lms_queue_matches_model(script in script_strategy(100)) {
        assert_matches_model(&LmsQueue::<u64>::new(), &script);
    }

    #[test]
    fn herlihy_wing_matches_model_within_history(script in script_strategy(100)) {
        // The HW "capacity" is a lifetime-enqueue budget; with a budget
        // far above the script length the occupancy model never sees Full,
        // matching HW's behavior exactly.
        assert_matches_model(
            &HerlihyWingQueue::<u64>::with_history_capacity(100_000),
            &script,
        );
    }

    #[test]
    fn versioned_cell_agrees_with_fig2_oracle_single_thread(
        ops in prop::collection::vec((any::<bool>(), 0u64..1000), 1..60),
    ) {
        // Single-threaded differential test: a sequence of (ll+sc | load)
        // steps must behave identically on the emulation and the Fig. 2
        // oracle (single thread => the oracle's validX membership matches
        // the emulation's unwritten-since-LL exactly, as every SC
        // immediately follows its LL).
        let cell = VersionedCell::new(0);
        let oracle = OracleCell::new(0);
        for (do_store, v) in ops {
            if do_store {
                let (a, t) = LlScCell::ll(&cell);
                let (b, tb) = LlScCell::ll(&oracle);
                prop_assert_eq!(a, b);
                let ra = LlScCell::sc(&cell, t, v);
                let rb = LlScCell::sc(&oracle, tb, v);
                prop_assert_eq!(ra, rb);
            } else {
                prop_assert_eq!(LlScCell::load(&cell), LlScCell::load(&oracle));
            }
        }
    }

    #[test]
    fn search_and_cheap_checks_agree_on_sequential_histories(
        script in script_strategy(20),
    ) {
        // Build a history by running the script on a model queue with
        // strictly increasing timestamps: such a history is linearizable
        // by construction, so both checkers must accept it.
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut ops = Vec::new();
        let mut ts = 0u64;
        let mut tag = 0u64;
        for op in &script {
            let (start, end) = (ts, ts + 1);
            ts += 2;
            match op {
                ScriptOp::Enqueue(_) => {
                    // Unique values for the integrity checks.
                    tag += 1;
                    model.push_back(tag);
                    ops.push(Op { thread: 0, kind: OpKind::Enqueue(tag), start, end });
                }
                ScriptOp::Dequeue => {
                    let got = model.pop_front();
                    ops.push(Op { thread: 0, kind: OpKind::Dequeue(got), start, end });
                }
            }
        }
        let h = History { ops };
        prop_assert_eq!(check_history(&h), Ok(()));
        if h.ops.len() <= 20 {
            prop_assert!(matches!(
                check_linearizable(&h, None),
                SearchResult::Linearizable(_)
            ));
        }
    }

    #[test]
    fn corrupted_histories_are_rejected(
        script in script_strategy(20),
        flip in 0usize..20,
    ) {
        // Take a valid sequential history with >= 2 dequeues and corrupt
        // one dequeue's value; at least one checker must object.
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut ops = Vec::new();
        let mut ts = 0u64;
        let mut tag = 0u64;
        for op in &script {
            let (start, end) = (ts, ts + 1);
            ts += 2;
            match op {
                ScriptOp::Enqueue(_) => {
                    tag += 1;
                    model.push_back(tag);
                    ops.push(Op { thread: 0, kind: OpKind::Enqueue(tag), start, end });
                }
                ScriptOp::Dequeue => {
                    let got = model.pop_front();
                    ops.push(Op { thread: 0, kind: OpKind::Dequeue(got), start, end });
                }
            }
        }
        let deq_positions: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o.kind, OpKind::Dequeue(Some(_))))
            .map(|(i, _)| i)
            .collect();
        prop_assume!(!deq_positions.is_empty());
        let target = deq_positions[flip % deq_positions.len()];
        // Corrupt: claim a never-enqueued value came out.
        ops[target].kind = OpKind::Dequeue(Some(999_999_999));
        let h = History { ops };
        let cheap_rejects = check_history(&h).is_err();
        let search_rejects = h.ops.len() <= 20
            && matches!(check_linearizable(&h, None), SearchResult::NotLinearizable);
        prop_assert!(cheap_rejects || search_rejects);
    }
}

#[test]
fn zero_length_batches_are_noops_everywhere() {
    fn check<Q: ConcurrentQueue<u64>>(queue: &Q) {
        let name = queue.algorithm_name();
        let mut h = queue.handle();
        h.enqueue(7).unwrap();
        assert_eq!(
            h.enqueue_batch(Vec::new().into_iter()).unwrap_or_else(|_| {
                panic!("{name}: empty batch reported Full");
            }),
            0,
            "{name}: empty batch enqueued something"
        );
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 0), 0, "{name}: max=0 dequeued");
        assert!(out.is_empty());
        assert_eq!(
            h.dequeue(),
            Some(7),
            "{name}: no-op batches disturbed state"
        );
        assert_eq!(h.dequeue(), None);
    }
    check(&CasQueue::<u64>::with_capacity(4));
    check(&LlScQueue::<u64>::with_capacity(4));
    check(&ShardedQueue::with_lanes(2, |_| {
        CasQueue::<u64>::with_capacity(4)
    }));
    check(&nbq::baselines::MutexQueue::<u64>::with_capacity(4));
}

#[test]
fn batch_larger_than_total_capacity_reports_exact_split() {
    // Capacity 4 (2 lanes x 2): a batch of 10 must land exactly 4 and
    // return the other 6 — across lanes, not just within one.
    let q = ShardedQueue::with_lanes(2, |_| CasQueue::<u64>::with_capacity(2));
    let mut h = q.handle();
    let e = h
        .enqueue_batch((0..10u64).collect::<Vec<_>>().into_iter())
        .unwrap_err();
    assert_eq!(e.enqueued, 4);
    assert_eq!(e.remaining.len(), 6);
    let mut out = Vec::new();
    assert_eq!(h.dequeue_batch(&mut out, 16), 4);
    let mut all: Vec<u64> = out.clone();
    all.extend(&e.remaining);
    all.sort_unstable();
    assert_eq!(all, (0..10).collect::<Vec<_>>(), "split lost a value");
}

#[test]
fn regression_fixed_scripts() {
    // Deterministic corner scripts kept out of proptest for clarity.
    let scripts: Vec<Vec<ScriptOp>> = vec![
        vec![ScriptOp::Dequeue, ScriptOp::Dequeue],
        vec![
            ScriptOp::Enqueue(1),
            ScriptOp::Enqueue(2),
            ScriptOp::Enqueue(3),
        ],
        (0..40)
            .map(|i| {
                if i % 3 == 0 {
                    ScriptOp::Dequeue
                } else {
                    ScriptOp::Enqueue(i)
                }
            })
            .collect(),
    ];
    for script in &scripts {
        assert_matches_model(&CasQueue::<u64>::with_capacity(2), script);
        assert_matches_model(&LlScQueue::<u64>::with_capacity(2), script);
        assert_matches_model(&ShannQueue::<u64>::with_capacity(2), script);
        assert_matches_model(&TsigasZhangQueue::<u64>::with_capacity(2), script);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every `ArityRegistry` transition — the two seat flags and the
    /// sticky promotion flag — against a three-field reference model.
    /// Claim outcomes are *predicted* from the model, not just observed,
    /// so a transition that wrongly succeeds or wrongly fails is caught at
    /// the op that took it, and each flag is checked to move alone.
    #[test]
    fn arity_registry_transitions_match_model(ops in prop::collection::vec(0u8..6, 0..64)) {
        let reg = nbq::ArityRegistry::new();
        let (mut prod, mut cons, mut promoted) = (false, false, false);
        for op in ops {
            match op {
                0 => {
                    let want = !prod && !promoted;
                    prop_assert_eq!(reg.try_claim_producer(), want);
                    prod |= want;
                }
                1 => {
                    let want = !cons && !promoted;
                    prop_assert_eq!(reg.try_claim_consumer(), want);
                    cons |= want;
                }
                2 => {
                    // Reclaim ignores promotion (drain-only claims are
                    // safe) but still respects the seat.
                    let want = !cons;
                    prop_assert_eq!(reg.try_reclaim_consumer(), want);
                    cons = true;
                }
                3 => {
                    if prod {
                        reg.release_producer();
                        prod = false;
                    }
                }
                4 => {
                    if cons {
                        reg.release_consumer();
                        cons = false;
                    }
                }
                _ => {
                    reg.promote();
                    promoted = true;
                }
            }
            prop_assert_eq!(reg.producer_claimed(), prod);
            prop_assert_eq!(reg.consumer_claimed(), cons);
            prop_assert_eq!(reg.promoted(), promoted);
        }
    }
}
