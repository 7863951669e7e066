//! wCQ — a helping-based rendition of Nikolaev & Ravindran's wait-free
//! circular queue (arXiv:2201.02179) — modern-rival extension.
//!
//! wCQ is the 2022 successor to [`crate::scq`]: the same two-index-ring
//! indirection design (values in a data array, slot *indices* circulating
//! through cycle-tagged `aq`/`fq` rings), upgraded from lock-free to
//! wait-free by **helping**. A thread first runs SCQ's fast path for a
//! bounded number of attempts (the *patience*); once patience runs out it
//! publishes a per-thread **request record** and every other thread that
//! touches the ring helps pending records to completion before (and
//! while) running its own operation, so one thread's preemption can never
//! strand another thread's operation.
//!
//! ## This rendition vs. the paper
//!
//! The published wCQ threads a finalization bit through the head/tail
//! counters themselves and proves a strict wait-free bound. This
//! rendition keeps the paper's architecture — fast path + per-thread
//! records + helpers that agree on a position and complete it
//! idempotently — but arbitrates through the *slot words* instead of
//! finalized counters:
//!
//! * a ring entry carries `[cycle | safe | live | tag | index]` in one
//!   `u64`; **consuming keeps the index in the word** and stamps the
//!   consumer's `tag`, so a helper can always tell *who* took a position
//!   and complete the right record exactly once;
//! * a record's claimed position is round-stamped (`[round | pos]`), and
//!   helpers may only abandon a round after slot-word evidence that the
//!   position is lost — every abandon path leaves the slot word changed
//!   (burned, marked unsafe, or taken), which is what makes a stale
//!   helper's late CAS fail instead of double-applying the operation;
//! * a helped dequeue reports empty only on an instantaneous
//!   `Tail ≤ Head` observation — the unambiguous linearizable-empty
//!   condition — while the fast path keeps SCQ's threshold bound.
//!
//! The result is formally lock-free with helping (a round can be re-run
//! under adversarial scheduling), and non-blocking under single-thread
//! stalls: the `stalled-thread` stress test parks a thread mid-operation
//! and asserts the rest of the system completes it. DESIGN.md §12
//! records the exact deltas from the paper's protocol. The
//! [`QueueKind::mpmc_wait_free`] envelope advertises the *intended*
//! progress class; treat it with that caveat.

use crate::cycle::{cycle_eq, cycle_lt, ones, pos_le, position_cycle};
use core::cell::UnsafeCell;
use core::mem::MaybeUninit;
use core::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use nbq_core::OpStats;
use nbq_util::{mem, ring_slot, CachePadded, ConcurrentQueue, Full, QueueHandle, QueueKind};

/// Maximum concurrently registered handles (tag space is 7 bits, and the
/// registry bitmap is one word).
pub const MAX_THREADS: usize = 64;

/// Fast-path attempts before an operation falls back to a helped record.
pub const DEFAULT_PATIENCE: u32 = 64;

const TAG_BITS: u32 = 7;

/// Packs one wCQ ring entry:
/// `[cycle | safe:1 | live:1 | tag:7 | index:order]`.
///
/// `live` distinguishes "value present" from "empty/consumed/burned";
/// `tag` records the consumer (0 = fast path, `r + 1` = record `r`) so
/// helpers can attribute a consumption; the index field *survives*
/// consumption for the same reason. Public for `tests/properties.rs`.
#[inline]
pub fn wcq_pack(order: u32, cycle: u64, safe: bool, live: bool, tag: u64, idx: u64) -> u64 {
    debug_assert!(tag < (1 << TAG_BITS));
    debug_assert!(idx <= ones(order));
    (cycle << (order + TAG_BITS + 2))
        | ((safe as u64) << (order + TAG_BITS + 1))
        | ((live as u64) << (order + TAG_BITS))
        | ((tag & ones(TAG_BITS)) << order)
        | (idx & ones(order))
}

/// The (truncated) cycle field of an entry.
#[inline]
pub fn wcq_cycle(e: u64, order: u32) -> u64 {
    e >> (order + TAG_BITS + 2)
}

/// The safe bit of an entry.
#[inline]
pub fn wcq_is_safe(e: u64, order: u32) -> bool {
    (e >> (order + TAG_BITS + 1)) & 1 == 1
}

/// The live bit of an entry (a value is present and unconsumed).
#[inline]
pub fn wcq_is_live(e: u64, order: u32) -> bool {
    (e >> (order + TAG_BITS)) & 1 == 1
}

/// The consumer tag of an entry (meaningful once `live` has dropped).
#[inline]
pub fn wcq_tag(e: u64, order: u32) -> u64 {
    (e >> order) & ones(TAG_BITS)
}

/// The index field of an entry.
#[inline]
pub fn wcq_idx(e: u64, order: u32) -> u64 {
    e & ones(order)
}

/// The ⊥ index marker (all ones in the index field).
#[inline]
pub fn wcq_empty_idx(order: u32) -> u64 {
    ones(order)
}

/// Width of the truncated cycle field for a ring of `1 << order` entries.
#[inline]
pub fn wcq_cycle_bits(order: u32) -> u32 {
    64 - order - TAG_BITS - 2
}

// ---- request-record state words -------------------------------------

const KIND_IDLE: u64 = 0;
const KIND_ENQ: u64 = 1;
const KIND_DEQ: u64 = 2;
const KIND_DONE_OK: u64 = 3;
const KIND_DONE_IDX: u64 = 4;
const KIND_DONE_EMPTY: u64 = 5;

const ROUND_SHIFT: u32 = 48;
const KIND_SHIFT: u32 = 45;

#[inline]
fn pack_state(round: u64, kind: u64, result: u64) -> u64 {
    debug_assert!(result < (1 << KIND_SHIFT));
    ((round & ones(16)) << ROUND_SHIFT) | (kind << KIND_SHIFT) | result
}

#[inline]
fn state_round(s: u64) -> u64 {
    s >> ROUND_SHIFT
}

#[inline]
fn state_kind(s: u64) -> u64 {
    (s >> KIND_SHIFT) & 7
}

#[inline]
fn state_result(s: u64) -> u64 {
    s & ones(KIND_SHIFT)
}

#[inline]
fn pack_claim(round: u64, pos: u64) -> u64 {
    ((round & ones(16)) << ROUND_SHIFT) | (pos & ones(48))
}

/// Claim-word position marking a dequeue round decided *empty* (all ones
/// in the 48-bit position field — never a real position).
const CLAIM_POISON: u64 = (1 << ROUND_SHIFT) - 1;

#[inline]
fn claim_round(p: u64) -> u64 {
    p >> ROUND_SHIFT
}

#[inline]
fn claim_pos(p: u64) -> u64 {
    p & ones(48)
}

/// One thread's pending-operation record (one per registered handle per
/// ring).
///
/// `state` is `[round:16 | kind:3 | result]`; every transition is a CAS
/// from the exact previously observed word, and the round survives
/// across operations (the owner bumps it on publish), so a stale helper's
/// CAS can never apply to a later operation. `claim` is the round-stamped
/// claimed position `[round:16 | pos:48]` — positions past 2^48 are out
/// of this rendition's envelope (≈ 3·10^14 operations).
#[derive(Default)]
struct Record {
    state: AtomicU64,
    claim: AtomicU64,
    /// Input index of a pending enqueue (owner-written before publish).
    idx: AtomicU64,
}

/// Ticks an optional stats block.
#[inline]
fn tick(stats: Option<&OpStats>, f: impl FnOnce(&OpStats)) {
    if let Some(s) = stats {
        f(s);
    }
}

/// One wCQ index ring: SCQ's cycle-tagged ring plus the helping layer.
pub(crate) struct WRing {
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
    threshold: CachePadded<AtomicI64>,
    /// Number of published, uncompleted records — the cheap "anyone need
    /// help?" gate every operation checks before scanning `records`.
    slow_pending: CachePadded<AtomicU64>,
    entries: Box<[AtomicU64]>,
    records: Box<[Record]>,
    order: u32,
    patience: u32,
}

impl WRing {
    #[inline]
    fn threshold_max(&self) -> i64 {
        3 * (1i64 << (self.order - 1)) - 1
    }

    fn new_empty(order: u32, patience: u32) -> Self {
        assert!((1..=32).contains(&order), "ring order out of range");
        let init = wcq_pack(
            order,
            ones(wcq_cycle_bits(order)), // cycle −1
            true,
            false,
            0,
            wcq_empty_idx(order),
        );
        WRing {
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
            threshold: CachePadded::new(AtomicI64::new(-1)),
            slow_pending: CachePadded::new(AtomicU64::new(0)),
            entries: (0..1u64 << order).map(|_| AtomicU64::new(init)).collect(),
            records: (0..MAX_THREADS).map(|_| Record::default()).collect(),
            order,
            patience,
        }
    }

    fn new_full(order: u32, patience: u32) -> Self {
        let ring = Self::new_empty(order, patience);
        let half = 1u64 << (order - 1);
        for p in 0..half {
            ring.entries[ring_slot(p, order)]
                .store(wcq_pack(order, 0, true, true, 0, p), mem::RING_STORE);
        }
        ring.tail.store(half, mem::RING_STORE);
        ring.threshold.store(ring.threshold_max(), mem::RING_STORE);
        ring
    }

    #[inline]
    fn reset_threshold(&self, stats: Option<&OpStats>) {
        if self.threshold.load(mem::INDEX_LOAD) != self.threshold_max() {
            self.threshold.store(self.threshold_max(), mem::RING_STORE);
            tick(stats, |s| s.record_threshold_reset());
        }
    }

    /// Helps every pending record except the caller's own. Cheap when
    /// nothing is pending (one load).
    fn help_others(&self, me: usize, stats: Option<&OpStats>) {
        if self.slow_pending.load(mem::INDEX_LOAD) == 0 {
            return;
        }
        for r in 0..MAX_THREADS {
            if r != me {
                self.help_record(r, stats);
            }
        }
    }

    /// Drives record `r` until it is no longer pending (done or idle).
    fn help_record(&self, r: usize, stats: Option<&OpStats>) {
        let rec = &self.records[r];
        loop {
            let s = rec.state.load(mem::SLOT_LOAD);
            match state_kind(s) {
                KIND_ENQ => self.help_enqueue(r, rec, s, stats),
                KIND_DEQ => self.help_dequeue(r, rec, s, stats),
                _ => return,
            }
        }
    }

    /// Resolves the claimed position for round `round` of `rec`, racing
    /// the claim CAS if this round has none yet. Returns `None` when the
    /// state has moved on (caller re-reads) — or, for dequeues, when the
    /// ring was instantaneously empty and the record was completed here.
    ///
    /// The empty verdict must go *through the claim word*: a helper that
    /// wants to declare empty first CASes the round's claim to
    /// [`CLAIM_POISON`], so it cannot race another helper that claims a
    /// real position for the same round and consumes a value into a
    /// record that then reports `DONE_EMPTY` (a lost value). Whichever
    /// CAS wins decides the round's fate for every helper.
    #[inline]
    fn resolve_claim(&self, rec: &Record, s: u64, empty_check: bool) -> Option<u64> {
        let round = state_round(s);
        let p = rec.claim.load(mem::SLOT_LOAD);
        if claim_round(p) == round {
            let pos = claim_pos(p);
            if pos == CLAIM_POISON {
                // A peer poisoned this round as empty but stalled before
                // finishing the state transition: complete it.
                let _ = rec.state.compare_exchange(
                    s,
                    pack_state(round, KIND_DONE_EMPTY, 0),
                    mem::SLOT_CAS,
                    mem::SLOT_CAS_FAIL,
                );
                return None;
            }
            return Some(pos);
        }
        let target = if state_kind(s) == KIND_ENQ {
            self.tail.load(mem::INDEX_LOAD)
        } else {
            let h = self.head.load(mem::INDEX_LOAD);
            if empty_check {
                let t = self.tail.load(mem::INDEX_LOAD);
                if pos_le(t, h) {
                    // Instantaneously empty — but only binding if we win
                    // the claim word for this round.
                    if rec
                        .claim
                        .compare_exchange(
                            p,
                            pack_claim(round, CLAIM_POISON),
                            mem::INDEX_CAS,
                            mem::INDEX_CAS_FAIL,
                        )
                        .is_ok()
                    {
                        let _ = rec.state.compare_exchange(
                            s,
                            pack_state(round, KIND_DONE_EMPTY, 0),
                            mem::SLOT_CAS,
                            mem::SLOT_CAS_FAIL,
                        );
                    }
                    // Lost the claim race: re-read state and claim.
                    return None;
                }
            }
            h
        };
        debug_assert!(target < CLAIM_POISON, "wcq position exceeds claim field");
        match rec.claim.compare_exchange(
            p,
            pack_claim(round, target),
            mem::INDEX_CAS,
            mem::INDEX_CAS_FAIL,
        ) {
            Ok(_) => Some(target),
            Err(cur) if claim_round(cur) == round && claim_pos(cur) != CLAIM_POISON => {
                Some(claim_pos(cur))
            }
            Err(_) => None,
        }
    }

    /// One helping step for a pending enqueue record. Progress per call:
    /// either the record's state moves (done / next round) or a slot CAS
    /// raced and the caller re-reads.
    fn help_enqueue(&self, r: usize, rec: &Record, s: u64, stats: Option<&OpStats>) {
        let order = self.order;
        let cbits = wcq_cycle_bits(order);
        let round = state_round(s);
        let idx_in = rec.idx.load(mem::SLOT_LOAD);
        let Some(pos) = self.resolve_claim(rec, s, false) else {
            return;
        };
        let cycle_pos = position_cycle(pos, order);
        let j = ring_slot(pos, order);
        let e = self.entries[j].load(mem::SLOT_LOAD);
        let cycle_e = wcq_cycle(e, order);

        let advance_tail = || {
            let _ = self.tail.compare_exchange(
                pos,
                pos.wrapping_add(1),
                mem::INDEX_CAS,
                mem::INDEX_CAS_FAIL,
            );
        };
        let next_round = |s: u64| {
            let _ = rec.state.compare_exchange(
                s,
                pack_state(round.wrapping_add(1), KIND_ENQ, 0),
                mem::SLOT_CAS,
                mem::SLOT_CAS_FAIL,
            );
        };

        let my_tag = (r as u64) + 1;
        let done = |s: u64| {
            advance_tail();
            self.reset_threshold(stats);
            if rec
                .state
                .compare_exchange(
                    s,
                    pack_state(round, KIND_DONE_OK, 0),
                    mem::SLOT_CAS,
                    mem::SLOT_CAS_FAIL,
                )
                .is_ok()
            {
                tick(stats, |st| st.record_help_event());
            }
        };

        if cycle_eq(cycle_e, cycle_pos, cbits) {
            if wcq_idx(e, order) == idx_in {
                // Our deposit landed (the index is exclusively ours, and
                // consumption preserves it) — possibly installed by a
                // helper that then stalled. Finish the record.
                done(s);
            } else if !wcq_is_live(e, order)
                && wcq_tag(e, order) == my_tag
                && wcq_idx(e, order) == wcq_empty_idx(order)
            {
                // Our own pending *reservation* (phase one of the
                // two-phase deposit below). Re-validate that the record
                // still wants this round, then promote it to a fill —
                // or retire the orphan if the operation has moved on.
                if rec.state.load(mem::SLOT_LOAD) == s {
                    let fill = wcq_pack(order, cycle_pos, true, true, 0, idx_in);
                    tick(stats, |st| st.record_slot_cas_attempt());
                    if self.entries[j]
                        .compare_exchange(e, fill, mem::SLOT_CAS, mem::SLOT_CAS_FAIL)
                        .is_ok()
                    {
                        tick(stats, |st| st.record_slot_cas_success());
                        done(s);
                    }
                    // On CAS failure the reservation was burned by a
                    // passing dequeuer or promoted by a peer: re-read.
                } else {
                    // Stale round: retire the reservation to a burned
                    // word so it cannot be promoted later.
                    let _ = self.entries[j].compare_exchange(
                        e,
                        wcq_pack(order, cycle_pos, true, false, 0, wcq_empty_idx(order)),
                        mem::SLOT_CAS,
                        mem::SLOT_CAS_FAIL,
                    );
                }
            } else {
                // Position went to someone else (other fill, a burn, or
                // a consumed foreign entry).
                advance_tail();
                next_round(s);
            }
        } else if cycle_lt(cycle_e, cycle_pos, cbits) {
            if !wcq_is_live(e, order) {
                if wcq_is_safe(e, order) || pos_le(self.head.load(mem::INDEX_LOAD), pos) {
                    // Usable. Deposits are two-phase: install a tagged
                    // reservation, then (next outer iteration, after
                    // re-validating the record round) promote it to the
                    // fill. A direct fill here would let a helper that
                    // stalled on a *stale* round re-observe a usable
                    // word after the round was abandoned and deposit a
                    // second copy — the reservation's validation step
                    // closes exactly that window, and every abandon path
                    // leaves the slot word cycle-advanced so the stale
                    // helper's promotion CAS can never succeed.
                    let reserved =
                        wcq_pack(order, cycle_pos, true, false, my_tag, wcq_empty_idx(order));
                    tick(stats, |st| st.record_slot_cas_attempt());
                    if self.entries[j]
                        .compare_exchange(e, reserved, mem::SLOT_CAS, mem::SLOT_CAS_FAIL)
                        .is_ok()
                    {
                        tick(stats, |st| st.record_slot_cas_success());
                    }
                    // Either way, re-read via the outer loop.
                } else {
                    // Unsafe and the matching dequeue ticket is already
                    // out: fence the position (the slot word must change
                    // before the round is abandoned). Burn to our cycle.
                    let new = wcq_pack(
                        order,
                        cycle_pos,
                        wcq_is_safe(e, order),
                        false,
                        0,
                        wcq_empty_idx(order),
                    );
                    tick(stats, |st| st.record_slot_cas_attempt());
                    if self.entries[j]
                        .compare_exchange(e, new, mem::SLOT_CAS, mem::SLOT_CAS_FAIL)
                        .is_ok()
                    {
                        tick(stats, |st| st.record_slot_cas_success());
                        advance_tail();
                        next_round(s);
                    }
                }
            } else {
                // Old unconsumed value occupies the slot. Its eventual
                // consumer preserves the cycle, and a stale helper can
                // only act through a validated reservation, so moving on
                // without touching the word is safe.
                advance_tail();
                next_round(s);
            }
        } else {
            // Entry already on a later lap: position long lost.
            advance_tail();
            next_round(s);
        }
    }

    /// One helping step for a pending dequeue record.
    fn help_dequeue(&self, r: usize, rec: &Record, s: u64, stats: Option<&OpStats>) {
        let order = self.order;
        let cbits = wcq_cycle_bits(order);
        let round = state_round(s);
        let Some(pos) = self.resolve_claim(rec, s, true) else {
            return;
        };
        let cycle_pos = position_cycle(pos, order);
        let j = ring_slot(pos, order);
        let e = self.entries[j].load(mem::SLOT_LOAD);
        let cycle_e = wcq_cycle(e, order);

        let advance_head = || {
            let _ = self.head.compare_exchange(
                pos,
                pos.wrapping_add(1),
                mem::INDEX_CAS,
                mem::INDEX_CAS_FAIL,
            );
        };
        let next_round = |s: u64| {
            let _ = rec.state.compare_exchange(
                s,
                pack_state(round.wrapping_add(1), KIND_DEQ, 0),
                mem::SLOT_CAS,
                mem::SLOT_CAS_FAIL,
            );
        };
        let finish = |s: u64, idx: u64| {
            if rec
                .state
                .compare_exchange(
                    s,
                    pack_state(round, KIND_DONE_IDX, idx),
                    mem::SLOT_CAS,
                    mem::SLOT_CAS_FAIL,
                )
                .is_ok()
            {
                tick(stats, |st| st.record_help_event());
            }
        };

        if cycle_eq(cycle_e, cycle_pos, cbits) {
            if wcq_is_live(e, order) {
                // Consume on the record's behalf, stamping its tag so
                // every helper can attribute the consumption.
                let idx = wcq_idx(e, order);
                let new = wcq_pack(
                    order,
                    cycle_pos,
                    wcq_is_safe(e, order),
                    false,
                    (r as u64) + 1,
                    idx,
                );
                tick(stats, |st| st.record_slot_cas_attempt());
                if self.entries[j]
                    .compare_exchange(e, new, mem::SLOT_CAS, mem::SLOT_CAS_FAIL)
                    .is_ok()
                {
                    tick(stats, |st| st.record_slot_cas_success());
                    advance_head();
                    finish(s, idx);
                }
            } else if wcq_tag(e, order) == (r as u64) + 1
                && wcq_idx(e, order) != wcq_empty_idx(order)
            {
                // Already consumed *for this record* by a helper that
                // stalled before finishing: complete idempotently.
                advance_head();
                finish(s, wcq_idx(e, order));
            } else if wcq_tag(e, order) != 0 && wcq_idx(e, order) == wcq_empty_idx(order) {
                // A pending enqueue-record reservation. It must not be
                // promoted to a fill after this dequeue position is
                // spent (the value would be stranded), so burn it; the
                // enqueue record observes the burn and retries at a
                // fresh position.
                let new = wcq_pack(
                    order,
                    cycle_pos,
                    wcq_is_safe(e, order),
                    false,
                    0,
                    wcq_empty_idx(order),
                );
                tick(stats, |st| st.record_slot_cas_attempt());
                if self.entries[j]
                    .compare_exchange(e, new, mem::SLOT_CAS, mem::SLOT_CAS_FAIL)
                    .is_ok()
                {
                    tick(stats, |st| st.record_slot_cas_success());
                    advance_head();
                    next_round(s);
                }
                // On failure the reservation was promoted: re-read.
            } else {
                // Consumed by someone else, or burned: position lost.
                advance_head();
                next_round(s);
            }
        } else if cycle_lt(cycle_e, cycle_pos, cbits) {
            if wcq_is_live(e, order) {
                // Old unconsumed value: clear the safe bit (its stalled
                // dequeuer still owns the value), then move on.
                if wcq_is_safe(e, order) {
                    let new = wcq_pack(
                        order,
                        cycle_e,
                        false,
                        true,
                        wcq_tag(e, order),
                        wcq_idx(e, order),
                    );
                    tick(stats, |st| st.record_slot_cas_attempt());
                    if self.entries[j]
                        .compare_exchange(e, new, mem::SLOT_CAS, mem::SLOT_CAS_FAIL)
                        .is_err()
                    {
                        return; // slot changed; re-read
                    }
                    tick(stats, |st| st.record_slot_cas_success());
                }
                advance_head();
                next_round(s);
            } else {
                // Not yet filled at our cycle: burn the position and
                // retry on a fresh claim (emptiness is only ever decided
                // by the Tail ≤ Head check at claim time).
                let new = wcq_pack(
                    order,
                    cycle_pos,
                    wcq_is_safe(e, order),
                    false,
                    0,
                    wcq_empty_idx(order),
                );
                tick(stats, |st| st.record_slot_cas_attempt());
                if self.entries[j]
                    .compare_exchange(e, new, mem::SLOT_CAS, mem::SLOT_CAS_FAIL)
                    .is_ok()
                {
                    tick(stats, |st| st.record_slot_cas_success());
                    advance_head();
                    next_round(s);
                }
            }
        } else {
            // Later lap already: lost long ago.
            advance_head();
            next_round(s);
        }
    }

    /// Publishes and drives an enqueue record to completion.
    fn slow_enqueue(&self, idx: u64, tid: usize, stats: Option<&OpStats>) {
        let rec = &self.records[tid];
        let round = state_round(rec.state.load(Ordering::Relaxed)).wrapping_add(1);
        rec.idx.store(idx, mem::RING_STORE);
        self.slow_pending.fetch_add(1, mem::INDEX_CAS);
        rec.state
            .store(pack_state(round, KIND_ENQ, 0), mem::RING_STORE);
        self.help_record(tid, stats);
        let s = rec.state.load(mem::SLOT_LOAD);
        debug_assert_eq!(state_kind(s), KIND_DONE_OK);
        rec.state
            .store(pack_state(state_round(s), KIND_IDLE, 0), mem::RING_STORE);
        self.slow_pending.fetch_sub(1, mem::INDEX_CAS);
    }

    /// Publishes and drives a dequeue record to completion.
    fn slow_dequeue(&self, tid: usize, stats: Option<&OpStats>) -> Option<u64> {
        let rec = &self.records[tid];
        let round = state_round(rec.state.load(Ordering::Relaxed)).wrapping_add(1);
        self.slow_pending.fetch_add(1, mem::INDEX_CAS);
        rec.state
            .store(pack_state(round, KIND_DEQ, 0), mem::RING_STORE);
        self.help_record(tid, stats);
        let s = rec.state.load(mem::SLOT_LOAD);
        let result = match state_kind(s) {
            KIND_DONE_IDX => Some(state_result(s)),
            KIND_DONE_EMPTY => None,
            k => unreachable!("wcq dequeue record finished in kind {k}"),
        };
        rec.state
            .store(pack_state(state_round(s), KIND_IDLE, 0), mem::RING_STORE);
        self.slow_pending.fetch_sub(1, mem::INDEX_CAS);
        result
    }

    /// Deposits index `idx`: bounded fast path, then the helped record.
    fn enqueue(&self, idx: u64, tid: usize, stats: Option<&OpStats>) {
        self.help_others(tid, stats);
        let order = self.order;
        let cbits = wcq_cycle_bits(order);
        for _ in 0..self.patience {
            let t = self.tail.fetch_add(1, mem::INDEX_CAS);
            tick(stats, |s| s.record_faa());
            if t & ones(order) == 0 {
                tick(stats, |s| s.record_cycle_wrap());
            }
            let cycle_t = position_cycle(t, order);
            let j = ring_slot(t, order);
            let mut e = self.entries[j].load(mem::SLOT_LOAD);
            loop {
                let usable = cycle_lt(wcq_cycle(e, order), cycle_t, cbits)
                    && !wcq_is_live(e, order)
                    && (wcq_is_safe(e, order) || pos_le(self.head.load(mem::INDEX_LOAD), t));
                if !usable {
                    break;
                }
                let new = wcq_pack(order, cycle_t, true, true, 0, idx);
                tick(stats, |s| s.record_slot_cas_attempt());
                match self.entries[j].compare_exchange_weak(
                    e,
                    new,
                    mem::SLOT_CAS,
                    mem::SLOT_CAS_FAIL,
                ) {
                    Ok(_) => {
                        tick(stats, |s| s.record_slot_cas_success());
                        self.reset_threshold(stats);
                        return;
                    }
                    Err(cur) => e = cur,
                }
            }
        }
        self.slow_enqueue(idx, tid, stats);
    }

    /// Pops the next index (or `None` when linearizably empty): bounded
    /// fast path, then the helped record.
    fn dequeue(&self, tid: usize, stats: Option<&OpStats>) -> Option<u64> {
        self.help_others(tid, stats);
        let order = self.order;
        let cbits = wcq_cycle_bits(order);
        if self.threshold.load(mem::INDEX_LOAD) < 0 {
            return None;
        }
        for _ in 0..self.patience {
            let h = self.head.fetch_add(1, mem::INDEX_CAS);
            tick(stats, |s| s.record_faa());
            let cycle_h = position_cycle(h, order);
            let j = ring_slot(h, order);
            let mut e = self.entries[j].load(mem::SLOT_LOAD);
            loop {
                let cycle_e = wcq_cycle(e, order);
                if cycle_eq(cycle_e, cycle_h, cbits) {
                    if !wcq_is_live(e, order) {
                        if wcq_tag(e, order) != 0 && wcq_idx(e, order) == wcq_empty_idx(order) {
                            // Pending enqueue-record reservation on our
                            // ticket's position: burn it so the fill
                            // cannot land behind the head (see
                            // `help_dequeue`).
                            let new = wcq_pack(
                                order,
                                cycle_h,
                                wcq_is_safe(e, order),
                                false,
                                0,
                                wcq_empty_idx(order),
                            );
                            tick(stats, |s| s.record_slot_cas_attempt());
                            match self.entries[j].compare_exchange_weak(
                                e,
                                new,
                                mem::SLOT_CAS,
                                mem::SLOT_CAS_FAIL,
                            ) {
                                Ok(_) => {
                                    tick(stats, |s| s.record_slot_cas_success());
                                    break;
                                }
                                Err(cur) => {
                                    e = cur;
                                    continue;
                                }
                            }
                        }
                        // A record's helper consumed or burned our
                        // ticket's position: ticket wasted.
                        break;
                    }
                    let idx = wcq_idx(e, order);
                    let new = wcq_pack(order, cycle_h, wcq_is_safe(e, order), false, 0, idx);
                    tick(stats, |s| s.record_slot_cas_attempt());
                    match self.entries[j].compare_exchange_weak(
                        e,
                        new,
                        mem::SLOT_CAS,
                        mem::SLOT_CAS_FAIL,
                    ) {
                        Ok(_) => {
                            tick(stats, |s| s.record_slot_cas_success());
                            return Some(idx);
                        }
                        Err(cur) => e = cur,
                    }
                    continue;
                }
                if !cycle_lt(cycle_e, cycle_h, cbits) {
                    break;
                }
                // Older lap: stamp (burn if empty, unsafe-mark if an old
                // value is parked here) so late enqueuers cannot target
                // a passed ticket.
                let new = if wcq_is_live(e, order) {
                    wcq_pack(
                        order,
                        cycle_e,
                        false,
                        true,
                        wcq_tag(e, order),
                        wcq_idx(e, order),
                    )
                } else {
                    wcq_pack(
                        order,
                        cycle_h,
                        wcq_is_safe(e, order),
                        false,
                        0,
                        wcq_empty_idx(order),
                    )
                };
                tick(stats, |s| s.record_slot_cas_attempt());
                match self.entries[j].compare_exchange_weak(
                    e,
                    new,
                    mem::SLOT_CAS,
                    mem::SLOT_CAS_FAIL,
                ) {
                    Ok(_) => {
                        tick(stats, |s| s.record_slot_cas_success());
                        break;
                    }
                    Err(cur) => e = cur,
                }
            }
            // Ticket spent: SCQ's emptiness bookkeeping.
            let t = self.tail.load(mem::INDEX_LOAD);
            if pos_le(t, h.wrapping_add(1)) {
                self.catchup(t, h.wrapping_add(1), stats);
                self.threshold.fetch_sub(1, mem::INDEX_CAS);
                return None;
            }
            if self.threshold.fetch_sub(1, mem::INDEX_CAS) <= 0 {
                return None;
            }
        }
        self.slow_dequeue(tid, stats)
    }

    /// SCQ's `Tail` repair loop (see [`crate::scq`]).
    fn catchup(&self, mut tail: u64, mut head: u64, stats: Option<&OpStats>) {
        tick(stats, |s| s.record_catchup());
        loop {
            tick(stats, |s| s.record_index_cas_attempt());
            match self
                .tail
                .compare_exchange_weak(tail, head, mem::INDEX_CAS, mem::INDEX_CAS_FAIL)
            {
                Ok(_) => {
                    tick(stats, |s| s.record_index_cas_success());
                    return;
                }
                Err(_) => {
                    head = self.head.load(mem::INDEX_LOAD);
                    tail = self.tail.load(mem::INDEX_LOAD);
                    if pos_le(head, tail) {
                        return;
                    }
                }
            }
        }
    }

    fn occupancy(&self) -> usize {
        let t = self.tail.load(mem::INDEX_LOAD);
        let h = self.head.load(mem::INDEX_LOAD);
        let diff = t.wrapping_sub(h) as i64;
        (diff.max(0) as u64).min(1 << (self.order - 1)) as usize
    }
}

/// wCQ: the helping-based wait-free sibling of [`crate::scq::ScqQueue`] —
/// bounded MPMC FIFO, no dynamic nodes, every operation completable by
/// *any* thread once its record is published.
///
/// ```
/// use nbq_baselines::WcqQueue;
/// use nbq_util::{ConcurrentQueue, QueueHandle};
///
/// // patience 0 = every operation takes the helped slow path.
/// let q = WcqQueue::<u32>::with_patience(4, 0);
/// let mut h = q.handle();
/// h.enqueue(1).unwrap();
/// assert_eq!(h.dequeue(), Some(1));
/// assert_eq!(h.dequeue(), None);
/// ```
pub struct WcqQueue<T> {
    aq: WRing,
    fq: WRing,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    capacity: usize,
    /// Bitmap of registered handle slots (bit = tid taken).
    tids: AtomicU64,
    stats: Option<Box<OpStats>>,
}

// SAFETY: identical ownership argument to `ScqQueue` — slot indices are
// reachable from exactly one ring at a time and every transfer pairs a
// release CAS/store with an acquire load.
unsafe impl<T: Send> Send for WcqQueue<T> {}
unsafe impl<T: Send> Sync for WcqQueue<T> {}

impl<T: Send> WcqQueue<T> {
    /// A queue holding up to `capacity` items (rounded up to a power of
    /// two, minimum 1), with the default fast-path patience.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(capacity, DEFAULT_PATIENCE, false)
    }

    /// Like [`Self::with_capacity`] with an explicit fast-path patience:
    /// `0` forces every operation through the helped record path (the
    /// verification suites use this to keep the helping machinery under
    /// continuous test).
    pub fn with_patience(capacity: usize, patience: u32) -> Self {
        Self::build(capacity, patience, false)
    }

    /// Like [`Self::with_capacity`], with per-operation instruction
    /// counters enabled (see [`OpStats`]).
    pub fn with_stats(capacity: usize) -> Self {
        Self::build(capacity, DEFAULT_PATIENCE, true)
    }

    fn build(capacity: usize, patience: u32, stats: bool) -> Self {
        let capacity = capacity.next_power_of_two().max(1);
        assert!(capacity <= 1 << 31, "wcq capacity out of range");
        let order = capacity.trailing_zeros() + 1;
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        WcqQueue {
            aq: WRing::new_empty(order, patience),
            fq: WRing::new_full(order, patience),
            slots,
            capacity,
            tids: AtomicU64::new(0),
            stats: stats.then(|| Box::new(OpStats::default())),
        }
    }

    /// The instruction counters, if built via [`Self::with_stats`].
    pub fn stats(&self) -> Option<&OpStats> {
        self.stats.as_deref()
    }

    fn push(&self, value: T, tid: usize) -> Result<(), Full<T>> {
        let stats = self.stats.as_deref();
        let Some(idx) = self.fq.dequeue(tid, stats) else {
            return Err(Full(value));
        };
        // SAFETY: `idx` came off the free ring; see `ScqQueue::push`.
        unsafe { (*self.slots[idx as usize].get()).write(value) };
        self.aq.enqueue(idx, tid, stats);
        tick(stats, |s| s.record_operation());
        Ok(())
    }

    fn pop(&self, tid: usize) -> Option<T> {
        let stats = self.stats.as_deref();
        let idx = self.aq.dequeue(tid, stats)?;
        // SAFETY: consumption grants exclusive slot ownership; see
        // `ScqQueue::pop`.
        let value = unsafe { (*self.slots[idx as usize].get()).assume_init_read() };
        self.fq.enqueue(idx, tid, stats);
        tick(stats, |s| s.record_operation());
        Some(value)
    }
}

impl<T> WcqQueue<T> {
    fn alloc_tid(&self) -> usize {
        let mut bits = self.tids.load(mem::ARITY_LOAD);
        loop {
            let free = (!bits).trailing_zeros() as usize;
            assert!(
                free < MAX_THREADS,
                "wcq: more than {MAX_THREADS} live handles"
            );
            match self.tids.compare_exchange_weak(
                bits,
                bits | (1 << free),
                mem::ARITY_CAS,
                mem::ARITY_CAS_FAIL,
            ) {
                Ok(_) => return free,
                Err(cur) => bits = cur,
            }
        }
    }

    fn release_tid(&self, tid: usize) {
        self.tids.fetch_and(!(1u64 << tid), mem::ARITY_CAS);
    }

    /// Publishes a slow-path dequeue record and returns *without driving
    /// it*, emulating a thread preempted mid-operation. Other threads'
    /// operations on the queue must complete the request; resume with
    /// [`StalledDequeue::finish`]. Hidden: exists for the
    /// helping-protocol stress tests.
    #[doc(hidden)]
    pub fn begin_stalled_dequeue(&self) -> StalledDequeue<'_, T> {
        let tid = self.alloc_tid();
        let rec = &self.aq.records[tid];
        let round = state_round(rec.state.load(Ordering::Relaxed)).wrapping_add(1);
        self.aq.slow_pending.fetch_add(1, mem::INDEX_CAS);
        rec.state
            .store(pack_state(round, KIND_DEQ, 0), mem::RING_STORE);
        StalledDequeue {
            queue: self,
            tid,
            finished: false,
        }
    }
}

impl<T> Drop for WcqQueue<T> {
    fn drop(&mut self) {
        while let Some(idx) = self.aq.dequeue(0, None) {
            unsafe { (*self.slots[idx as usize].get()).assume_init_drop() };
        }
    }
}

/// Per-thread handle for [`WcqQueue`]: owns a registered record slot.
pub struct WcqHandle<'q, T> {
    queue: &'q WcqQueue<T>,
    tid: usize,
}

impl<T> Drop for WcqHandle<'_, T> {
    fn drop(&mut self) {
        self.queue.release_tid(self.tid);
    }
}

impl<T: Send> QueueHandle<T> for WcqHandle<'_, T> {
    fn enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        self.queue.push(value, self.tid)
    }

    fn dequeue(&mut self) -> Option<T> {
        self.queue.pop(self.tid)
    }
}

impl<T: Send> ConcurrentQueue<T> for WcqQueue<T> {
    type Handle<'q>
        = WcqHandle<'q, T>
    where
        Self: 'q;

    fn handle(&self) -> Self::Handle<'_> {
        WcqHandle {
            queue: self,
            tid: self.alloc_tid(),
        }
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.capacity)
    }

    fn len(&self) -> Option<usize> {
        Some(self.aq.occupancy())
    }

    fn algorithm_name(&self) -> &'static str {
        "wcq"
    }

    fn kind(&self) -> QueueKind {
        QueueKind::mpmc_wait_free()
    }
}

/// A dequeue operation frozen right after publishing its record — the
/// "suspended mid-operation" half of the helping stress test.
#[doc(hidden)]
pub struct StalledDequeue<'q, T> {
    queue: &'q WcqQueue<T>,
    tid: usize,
    finished: bool,
}

impl<T: Send> StalledDequeue<'_, T> {
    /// Whether helpers have already completed the frozen request.
    pub fn is_complete(&self) -> bool {
        let s = self.queue.aq.records[self.tid].state.load(mem::SLOT_LOAD);
        matches!(state_kind(s), KIND_DONE_IDX | KIND_DONE_EMPTY)
    }

    /// Resumes the stalled thread: drives the record to completion (a
    /// no-op if helpers already finished it) and returns the dequeued
    /// value.
    pub fn finish(mut self) -> Option<T> {
        self.finished = true;
        self.take()
    }

    fn take(&mut self) -> Option<T> {
        let q = self.queue;
        let rec = &q.aq.records[self.tid];
        q.aq.help_record(self.tid, None);
        let s = rec.state.load(mem::SLOT_LOAD);
        let result = match state_kind(s) {
            KIND_DONE_IDX => {
                let idx = state_result(s);
                // SAFETY: the record's consumption granted exclusive
                // ownership of the slot, exactly as in `WcqQueue::pop`.
                let value = unsafe { (*q.slots[idx as usize].get()).assume_init_read() };
                q.fq.enqueue(idx, self.tid, None);
                Some(value)
            }
            KIND_DONE_EMPTY => None,
            k => unreachable!("stalled wcq dequeue finished in kind {k}"),
        };
        rec.state
            .store(pack_state(state_round(s), KIND_IDLE, 0), mem::RING_STORE);
        q.aq.slow_pending.fetch_sub(1, mem::INDEX_CAS);
        q.release_tid(self.tid);
        result
    }
}

impl<T> Drop for StalledDequeue<'_, T> {
    fn drop(&mut self) {
        if !self.finished {
            // Abandoned probe: complete it so the queue stays coherent.
            // (T: Send bound is on the impls above; the raw drive below
            // only needs the ring.) Restricted to Send payloads in
            // practice because the queue itself requires it.
            let q = self.queue;
            q.aq.help_record(self.tid, None);
            let rec = &q.aq.records[self.tid];
            let s = rec.state.load(mem::SLOT_LOAD);
            if state_kind(s) == KIND_DONE_IDX {
                let idx = state_result(s);
                unsafe { (*q.slots[idx as usize].get()).assume_init_drop() };
                q.fq.enqueue(idx, self.tid, None);
            }
            rec.state
                .store(pack_state(state_round(s), KIND_IDLE, 0), mem::RING_STORE);
            q.aq.slow_pending.fetch_sub(1, mem::INDEX_CAS);
            q.release_tid(self.tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn cycle_entry_roundtrip() {
        for order in 1..20u32 {
            let empty = wcq_empty_idx(order);
            for &(cycle, safe, live, tag, idx) in &[
                (0u64, true, false, 0u64, 0u64),
                (9, false, true, 64, 1),
                (ones(wcq_cycle_bits(order)), true, false, 127, 0),
            ] {
                let idx = idx.min(empty);
                let e = wcq_pack(order, cycle, safe, live, tag, idx);
                assert_eq!(wcq_cycle(e, order), cycle & ones(wcq_cycle_bits(order)));
                assert_eq!(wcq_is_safe(e, order), safe);
                assert_eq!(wcq_is_live(e, order), live);
                assert_eq!(wcq_tag(e, order), tag);
                assert_eq!(wcq_idx(e, order), idx);
            }
        }
    }

    #[test]
    fn cycle_state_words_roundtrip() {
        for &(round, kind, result) in &[
            (0u64, KIND_IDLE, 0u64),
            (7, KIND_DEQ, 0),
            (0xFFFF, KIND_DONE_IDX, 123),
            (0x1_0002, KIND_ENQ, 0), // round truncates to 16 bits
        ] {
            let s = pack_state(round, kind, result);
            assert_eq!(state_round(s), round & ones(16));
            assert_eq!(state_kind(s), kind);
            assert_eq!(state_result(s), result);
        }
        let p = pack_claim(0xFFFF, (1 << 48) - 5);
        assert_eq!(claim_round(p), 0xFFFF);
        assert_eq!(claim_pos(p), (1 << 48) - 5);
    }

    fn fifo_roundtrip(q: &WcqQueue<u64>) {
        let mut h = q.handle();
        for v in 0..8 {
            h.enqueue(v).unwrap();
        }
        for v in 0..8 {
            assert_eq!(h.dequeue(), Some(v));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn fifo_fast_path() {
        fifo_roundtrip(&WcqQueue::with_capacity(8));
    }

    #[test]
    fn fifo_slow_path_only() {
        fifo_roundtrip(&WcqQueue::with_patience(8, 0));
    }

    #[test]
    fn full_at_exact_capacity_both_paths() {
        for patience in [DEFAULT_PATIENCE, 0] {
            let q = WcqQueue::<u64>::with_patience(4, patience);
            let mut h = q.handle();
            for v in 0..4 {
                h.enqueue(v).unwrap();
            }
            assert_eq!(h.enqueue(99).unwrap_err().into_inner(), 99);
            assert_eq!(h.dequeue(), Some(0));
            h.enqueue(99).unwrap();
        }
    }

    #[test]
    fn wraps_many_laps_both_paths() {
        for patience in [DEFAULT_PATIENCE, 0] {
            let q = WcqQueue::<u64>::with_patience(2, patience);
            let mut h = q.handle();
            for v in 0..1000u64 {
                h.enqueue(v).unwrap();
                assert_eq!(h.dequeue(), Some(v));
            }
            assert_eq!(h.dequeue(), None);
        }
    }

    #[test]
    fn slow_path_records_help_events() {
        let q = WcqQueue::<u64>::with_patience(4, 0);
        // with_patience has no stats constructor; drive the ring directly
        // through a stats block instead.
        let stats = OpStats::default();
        let h = q.handle();
        let tid = h.tid;
        q.fq.dequeue(tid, Some(&stats)).unwrap();
        assert!(stats.help_events.load(Ordering::Relaxed) >= 1);
        drop(h);
    }

    #[test]
    fn handle_registry_recycles_tids() {
        let q = WcqQueue::<u64>::with_capacity(4);
        for _ in 0..1000 {
            let mut h = q.handle();
            h.enqueue(1).unwrap();
            assert_eq!(h.dequeue(), Some(1));
        }
        let handles: Vec<_> = (0..MAX_THREADS).map(|_| q.handle()).collect();
        drop(handles);
        let _ = q.handle();
    }

    #[test]
    fn stalled_dequeue_is_completed_by_other_threads() {
        let q = WcqQueue::<u64>::with_capacity(8);
        {
            let mut h = q.handle();
            for v in 0..4 {
                h.enqueue(v).unwrap();
            }
        }
        let probe = q.begin_stalled_dequeue();
        assert!(!probe.is_complete());
        // Another thread's ordinary operation must help it through.
        {
            let mut h = q.handle();
            h.enqueue(100).unwrap();
        }
        assert!(probe.is_complete(), "helping did not complete the record");
        // FIFO: the stalled dequeue was first in line.
        assert_eq!(probe.finish(), Some(0));
        let mut h = q.handle();
        assert_eq!(h.dequeue(), Some(1));
    }

    #[test]
    fn abandoned_stalled_probe_keeps_queue_coherent() {
        let q = WcqQueue::<u64>::with_capacity(4);
        {
            let mut h = q.handle();
            h.enqueue(7).unwrap();
            h.enqueue(8).unwrap();
        }
        drop(q.begin_stalled_dequeue()); // drops 7
        let mut h = q.handle();
        assert_eq!(h.dequeue(), Some(8));
        assert_eq!(h.dequeue(), None);
        h.enqueue(9).unwrap();
        assert_eq!(h.dequeue(), Some(9));
    }

    #[test]
    fn mpmc_stress_no_loss_no_dup_both_paths() {
        for patience in [DEFAULT_PATIENCE, 0] {
            let q = Arc::new(WcqQueue::<u64>::with_patience(64, patience));
            let producers = 4u64;
            let per = if patience == 0 { 1_000u64 } else { 5_000u64 };
            let consumed = Arc::new(AtomicU64::new(0));
            let mut prod = Vec::new();
            for p in 0..producers {
                let q = Arc::clone(&q);
                prod.push(std::thread::spawn(move || {
                    let mut h = q.handle();
                    for i in 0..per {
                        let mut v = (p << 32) | i;
                        loop {
                            match h.enqueue(v) {
                                Ok(()) => break,
                                Err(Full(back)) => {
                                    v = back;
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                }));
            }
            let mut cons: Vec<std::thread::JoinHandle<Vec<u64>>> = Vec::new();
            for _ in 0..4 {
                let q = Arc::clone(&q);
                let consumed = Arc::clone(&consumed);
                cons.push(std::thread::spawn(move || {
                    let mut h = q.handle();
                    let mut got = Vec::new();
                    while consumed.load(Ordering::Relaxed) < producers * per {
                        if let Some(v) = h.dequeue() {
                            consumed.fetch_add(1, Ordering::Relaxed);
                            got.push(v);
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    got
                }));
            }
            for t in prod {
                t.join().unwrap();
            }
            let mut all: Vec<u64> = cons.into_iter().flat_map(|t| t.join().unwrap()).collect();
            all.sort_unstable();
            assert_eq!(all.len(), (producers * per) as usize, "lost values");
            all.dedup();
            assert_eq!(all.len(), (producers * per) as usize, "duplicate delivery");
        }
    }

    #[test]
    fn drops_undelivered_values() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let q = WcqQueue::<D>::with_capacity(8);
            let mut h = q.handle();
            for _ in 0..3 {
                h.enqueue(D).unwrap();
            }
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 3);
    }
}
