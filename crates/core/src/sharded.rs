//! A sharded multi-lane frontend over any workspace queue.
//!
//! Both paper algorithms funnel every operation through a single
//! `Head`/`Tail` pair, so throughput plateaus once those two cache lines
//! saturate — the bottleneck that motivates ring-segmented designs such
//! as Nikolaev's SCQ/wCQ. [`ShardedQueue`] composes `N` independent
//! *lanes* (each any [`ConcurrentQueue`], e.g. a [`crate::CasQueue`] or
//! [`crate::LlScQueue`]) behind one queue interface, spreading the index
//! contention across `N` `Head`/`Tail` pairs while every lane keeps the
//! paper's §3 ABA defenses intact unchanged.
//!
//! # The relaxed-FIFO contract
//!
//! Sharding trades global FIFO order for scalability. Precisely:
//!
//! * **Per-lane FIFO is strict.** Each lane is a linearizable FIFO
//!   queue; nothing about its protocol changes.
//! * **Per-producer FIFO is preserved while a producer stays on its
//!   lane.** A handle owns an *affinity cursor* selecting its lane; all
//!   of a producer's items pass through that single FIFO lane and are
//!   therefore dequeued in enqueue order — machine-checked by
//!   `nbq_lincheck::check_per_producer_fifo` on recorded histories.
//!   Handles created with [`ShardedQueue::handle_pinned`] (or with
//!   `steal_attempts == 0`) never leave their lane, so their per-producer
//!   order is unconditional.
//! * **Bounded work-stealing relaxes order only at migration points.**
//!   A default handle that finds its lane `Full` (enqueue) or empty
//!   (dequeue) probes up to `steal_attempts` neighboring lanes and
//!   *migrates* its cursor to the lane that served it. Items enqueued
//!   after a migration are ordered after the migration only within the
//!   new lane; the two lane-resident runs may interleave at the
//!   consumers. Migration happens at most once per `Full`/empty
//!   encounter, so the relaxation is proportional to how often lanes
//!   overflow or drain, not to the op count.
//! * **Cross-lane order is advisory.** Two values enqueued by different
//!   producers on different lanes may be dequeued in either order even
//!   when the enqueues did not overlap in real time. Consumers that need
//!   global FIFO must use a single-lane queue.
//!
//! Conservation is unconditional: no value is ever lost, duplicated, or
//! invented, because every value lives in exactly one lane and lanes are
//! linearizable (`nbq_lincheck::check_value_integrity` holds on every
//! recorded history).
//!
//! # Lane kinds and the wait-free SPSC fast path
//!
//! A lane is no longer hard-wired to one MPMC algorithm. Each lane pairs
//! the factory-built MPMC queue with an optional [`SpscRing`] *fast
//! path* ([`LanePolicy::SpscFastPath`]), planned from the
//! [`nbq_util::QueueKind`] capability envelopes: the ring's
//! `spsc_wait_free` kind admits one registrant per side, the MPMC lane's
//! `mpmc` kind admits the rest. Routing is decided per handle, per lane:
//!
//! * The **first** producer (consumer) to touch a fast-path lane claims
//!   the ring's producer (consumer) endpoint through its
//!   [`crate::ArityRegistry`] and operates **wait-free** — no CAS, no
//!   retry loops, one cache-line handoff per `capacity` ops.
//! * A **second** registrant on an already-claimed side *promotes* the
//!   lane (a sticky flag in the same registry word) and takes the MPMC
//!   queue instead — misuse of the SPSC envelope degrades to the paper's
//!   lock-free algorithm, never to corruption.
//! * After promotion, the ring producer keeps its wait-free path while
//!   the ring is non-empty and hands over **only at an exact-empty
//!   instant** (the producer owns `tail`, so its emptiness check is
//!   exact): switching lanes only when the ring is empty keeps that
//!   producer's values totally ordered — ring items drain before its
//!   first MPMC item is enqueued — so per-producer FIFO survives
//!   promotion with no drain/transfer machinery.
//! * Consumers on a promoted lane drain **ring first**, then fall
//!   through to the MPMC queue; once the producer side is observed
//!   released *and the ring verified empty after that observation*, the
//!   handle caches the lane as ring-dead and pays pure MPMC cost from
//!   then on. The order matters: endpoint claims are promotion-blocked
//!   (the `PROMOTED` check rides inside the claim CAS loop), so no new
//!   ring producer can ever appear on a promoted lane, and the acquire
//!   read of the released claim orders any value the departing producer
//!   pushed — emptiness confirmed after that read holds forever.
//! * **Stealing probes are read-only.** A handle whose consumer role on
//!   a lane is still unresolved and that merely *probes* the lane (it is
//!   not the handle's affinity lane) never claims-or-promotes just for
//!   looking: it takes a ring's single-consumer endpoint only when the
//!   ring actually holds work (draining residue is productive), and
//!   otherwise reads only the MPMC queue. Without this, any workload
//!   with ≥ 2 stealing consumers would promote every lane almost
//!   immediately. Producer-side resolution stays eager: an enqueue probe
//!   only happens on `Full` and always lands a value, and an MPMC
//!   enqueue on a fast-path lane *requires* promotion to be visible to a
//!   ring-role consumer.
//!
//! Dropping a handle releases its endpoint claims, so strictly
//! sequential handle turnover (thread pools) keeps the fast path alive.
//! Ring residue left by a departed claimant is drained by whichever
//! consumer next observes it (re-claim on the consumer side is permitted
//! even after promotion, producer-side never). See DESIGN.md §10 for the
//! full promotion state machine.
//!
//! `capacity()` under any fast-path policy reports the conservative
//! reachable bound — each lane's MPMC capacity, to which the lane's
//! ring(s) are sized — so `enqueue` on a lane never reports `Full` below
//! the lane's advertised share; `len()` may transiently exceed
//! `capacity()` on a promoted lane carrying ring residue.
//!
//! # Fan-in and fan-out lanes, and the adaptive planner
//!
//! [`LanePolicy::MpscFastPath`] and [`LanePolicy::SpmcFastPath`] extend
//! the taxonomy with the two *half-relaxed* ring kinds:
//!
//! * An **MPSC lane** fronts the MPMC queue with an [`MpscRing`]: any
//!   number of producers FAA-ticket slots (the ring's *multi* side —
//!   registering never promotes and never fails while the lane is
//!   unpromoted), while the **single** consumer side is claimed like the
//!   SPSC ring's and pops wait-free. The lane promotes only when a
//!   **second consumer** appears. A fan-in producer hands the lane over
//!   not at a global-empty instant (it cannot observe one exactly) but
//!   at its **own-residue-drained** instant: [`MpscRing::producer_drained`]
//!   keys on the producer's last ticket against the monotone `head`, so
//!   everything *this* producer pushed has drained before its first MPMC
//!   item — per-producer FIFO survives the switch exactly as in the SPSC
//!   case.
//! * An **SPMC lane** is the mirror: the **single** producer side is
//!   claimed and pushes wait-free, consumers FAA-arbitrate pops on the
//!   ring's multi side (draining never claims, never promotes). The lane
//!   promotes only on a **second producer**, and the ring producer hands
//!   over at its exact-empty instant just like the SPSC case. Ring-dead
//!   caching keys on the producer claim alone — consumer registrations
//!   are bookkeeping, not a safety input.
//!
//! [`LanePolicy::Adaptive`] builds **all three rings** per lane and lets
//! a *planner* choose which one serves fresh claims. Each lane carries a
//! packed 64-bit observation word counting producer/consumer role
//! resolutions and (sampled) `Full`/empty/steal encounters since the
//! last re-plan. [`ShardedQueue::replan`] — called explicitly or piggy-
//! backed on [`ConcurrentQueue::handle`] creation — maps the observed
//! registration pattern to a lane kind (1p/1c → SPSC, Np/1c → MPSC,
//! 1p/Nc → SPMC, Np/Nc → plain MPMC) and flips the lane's `active` ring
//! **only when the lane is fresh**: the outgoing ring empty and
//! claim-free, the incoming ring additionally unpromoted. Promotion
//! burning one ring does not burn the lane — the planner can activate a
//! sibling ring whose envelope fits the observed arity.
//!
//! The flip is advisory and deliberately not fenced against concurrent
//! role resolution; safety never depends on it. A claim that races a
//! flip can land on a now-inactive ring, so on adaptive lanes every
//! consumer path falls through to **scavenging**: any non-active ring
//! observed non-empty is drained (claim-pop-release on the single-
//! consumer rings, plain arbitrated pops on the SPMC ring), and when
//! scavenging turns up nothing the path falls through again to the
//! lane's **MPMC queue** — a previously promoted sibling ring may have
//! demoted its registrants onto the MPMC lane before the flip, so an
//! unpromoted active ring does *not* imply the queue behind it is
//! empty. Together the two fall-throughs make conservation
//! unconditional under planner races. A lane is cached `RingDead` only
//! once *every* built ring is verifiably dead.
//!
//! Emptiness on an MPSC lane inherits the ring's bounded-stall
//! relaxation (a ticketed-but-unpublished slot hides later published
//! ones); SPMC and SPSC lane emptiness is exact. Both inherit the
//! relaxed-FIFO contract above unchanged.
//!
//! # Batches
//!
//! The native [`QueueHandle::enqueue_batch`]/[`QueueHandle::dequeue_batch`]
//! overrides forward to the lanes' own native batch paths, so the
//! amortized index publication from the batch API composes with the
//! sharded frontend (on a ring fast path that is the ring's
//! single-release-store batched publication). [`BatchPolicy`] selects how
//! a batch maps to lanes:
//!
//! * [`BatchPolicy::Pin`] (default) hands the whole batch to the
//!   affinity lane (overflowing into stolen lanes only on `Full`),
//!   keeping the batch contiguous per lane and per-producer order exact.
//! * [`BatchPolicy::Stripe`] splits a batch into contiguous chunks round-
//!   robined across all lanes, maximizing lane parallelism for bulk
//!   loads at the cost of cross-chunk ordering.

use core::fmt;
use core::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

use crate::mpsc::{MpscConsumerCursor, MpscProducerCursor, MpscRing};
use crate::registry::ArityRegistry;
use crate::spmc::{SpmcProducerCursor, SpmcRing};
use crate::spsc::{SpscConsumerCursor, SpscProducerCursor, SpscRing};
use nbq_util::{
    BatchFull, CachePadded, ConcurrentQueue, Full, LaneFactory, QueueHandle, QueueKind,
};

/// Ring capacity used for fast-path lanes whose MPMC queue is unbounded.
const DEFAULT_RING_CAPACITY: usize = 1024;

/// `active` selector values: which ring serves fresh claims on a lane.
const ACTIVE_NONE: u8 = 0;
const ACTIVE_SPSC: u8 = 1;
const ACTIVE_MPSC: u8 = 2;
const ACTIVE_SPMC: u8 = 3;

/// Ring-presence / ring-dead bits (per built ring, not per `active`).
const RING_BIT_SPSC: u8 = 1 << 0;
const RING_BIT_MPSC: u8 = 1 << 1;
const RING_BIT_SPMC: u8 = 1 << 2;

/// Steal count past which the planner treats a lane as having one more
/// consumer than its registrations show (foreign consumers visit often
/// enough that a single-consumer ring claim would just bounce).
const STEAL_PLAN_THRESHOLD: u32 = 8;

// Packed layout of the per-lane observation word (low → high):
// producer resolutions, consumer resolutions, steals, fulls, empties.
// Counters are advisory: increments are plain `fetch_add`s whose wrap
// may carry one count into the neighboring field; the planner compares
// against small thresholds and resets the word at every re-plan, so the
// noise is harmless. Event fields sit above the registration fields so
// their (far more likely) wrap never pollutes a registration count.
const OBS_PROD_SHIFT: u32 = 0;
const OBS_PROD_BITS: u32 = 10;
const OBS_CONS_SHIFT: u32 = 10;
const OBS_CONS_BITS: u32 = 10;
const OBS_STEAL_SHIFT: u32 = 20;
const OBS_STEAL_BITS: u32 = 14;
const OBS_FULL_SHIFT: u32 = 34;
const OBS_FULL_BITS: u32 = 15;
const OBS_EMPTY_SHIFT: u32 = 49;
const OBS_EMPTY_BITS: u32 = 15;

fn obs_field(word: u64, shift: u32, bits: u32) -> u32 {
    ((word >> shift) & ((1u64 << bits) - 1)) as u32
}

/// The per-lane observation word feeding [`ShardedQueue::replan`].
struct LaneObsWord(AtomicU64);

impl LaneObsWord {
    fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    fn record_prod(&self) {
        self.0.fetch_add(1 << OBS_PROD_SHIFT, Ordering::Relaxed);
    }

    fn record_cons(&self) {
        self.0.fetch_add(1 << OBS_CONS_SHIFT, Ordering::Relaxed);
    }

    fn record_steal(&self) {
        self.0.fetch_add(1 << OBS_STEAL_SHIFT, Ordering::Relaxed);
    }

    fn record_full(&self) {
        self.0.fetch_add(1 << OBS_FULL_SHIFT, Ordering::Relaxed);
    }

    fn record_empty(&self) {
        self.0.fetch_add(1 << OBS_EMPTY_SHIFT, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LaneObservation {
        let w = self.0.load(Ordering::Relaxed);
        LaneObservation {
            producers: obs_field(w, OBS_PROD_SHIFT, OBS_PROD_BITS),
            consumers: obs_field(w, OBS_CONS_SHIFT, OBS_CONS_BITS),
            steals: obs_field(w, OBS_STEAL_SHIFT, OBS_STEAL_BITS),
            fulls: obs_field(w, OBS_FULL_SHIFT, OBS_FULL_BITS),
            empties: obs_field(w, OBS_EMPTY_SHIFT, OBS_EMPTY_BITS),
        }
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Decoded snapshot of one lane's observation word: what the planner saw
/// since the last re-plan. All counts are advisory (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneObservation {
    /// Producer role resolutions on the lane.
    pub producers: u32,
    /// Consumer role resolutions on the lane.
    pub consumers: u32,
    /// Successful steals served by the lane to non-affinity handles.
    pub steals: u32,
    /// Sampled `Full` encounters on the lane.
    pub fulls: u32,
    /// Sampled empty-dequeue encounters on the lane.
    pub empties: u32,
}

impl LaneObservation {
    /// Whether the lane saw no activity at all since the last re-plan.
    pub fn is_idle(&self) -> bool {
        self.producers == 0
            && self.consumers == 0
            && self.steals == 0
            && self.fulls == 0
            && self.empties == 0
    }
}

/// How a batch call maps onto lanes. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchPolicy {
    /// Whole batch to the affinity lane; overflow spills into stolen
    /// lanes only on `Full`. Preserves per-producer batch contiguity.
    #[default]
    Pin,
    /// Split the batch into contiguous chunks striped across all lanes
    /// starting at the affinity lane. Chunks stay internally ordered;
    /// cross-chunk order is advisory.
    Stripe,
}

/// Which queue kinds a lane composes. See the
/// [module docs](self#lane-kinds-and-the-wait-free-spsc-fast-path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LanePolicy {
    /// Every lane is exactly the factory-built MPMC queue — the
    /// pre-existing behavior, and the default.
    #[default]
    Mpmc,
    /// Every lane pairs its MPMC queue with a wait-free [`SpscRing`]
    /// fast path serving the lane while it has at most one registrant
    /// per side, with dynamic promotion to the MPMC queue on a second
    /// registrant.
    SpscFastPath,
    /// Every lane fronts its MPMC queue with an [`MpscRing`] fan-in
    /// ring: any number of wait-free-ticketing producers, one wait-free
    /// consumer; promotion only on a second consumer.
    MpscFastPath,
    /// Every lane fronts its MPMC queue with an [`SpmcRing`] fan-out
    /// ring: one wait-free producer, any number of FAA-arbitrated
    /// consumers; promotion only on a second producer.
    SpmcFastPath,
    /// Every lane builds all three rings; the runtime planner
    /// ([`ShardedQueue::replan`]) selects which ring serves fresh claims
    /// from the lane's observed registration pattern.
    Adaptive,
}

/// Construction parameters for [`ShardedQueue`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of independent lanes (≥ 1).
    pub lanes: usize,
    /// How many neighboring lanes an operation may probe after its
    /// affinity lane reports `Full`/empty. `0` pins every handle to its
    /// lane (strict per-producer FIFO, but a full/empty lane surfaces
    /// immediately as `Full`/`None`). Values ≥ `lanes - 1` probe every
    /// other lane.
    pub steal_attempts: usize,
    /// Batch-to-lane mapping policy.
    pub batch_policy: BatchPolicy,
    /// Which queue kinds each lane composes.
    pub lane_policy: LanePolicy,
}

impl ShardedConfig {
    /// A config with `lanes` lanes, full stealing, pinned batches, and
    /// pure-MPMC lanes — the setup the `ext-sharding` experiment sweeps.
    pub fn with_lanes(lanes: usize) -> Self {
        Self {
            lanes,
            steal_attempts: lanes.saturating_sub(1),
            batch_policy: BatchPolicy::Pin,
            lane_policy: LanePolicy::Mpmc,
        }
    }

    /// This config with [`LanePolicy::SpscFastPath`] lanes.
    pub fn spsc_fast_path(mut self) -> Self {
        self.lane_policy = LanePolicy::SpscFastPath;
        self
    }

    /// This config with [`LanePolicy::MpscFastPath`] (fan-in) lanes.
    pub fn mpsc_fast_path(mut self) -> Self {
        self.lane_policy = LanePolicy::MpscFastPath;
        self
    }

    /// This config with [`LanePolicy::SpmcFastPath`] (fan-out) lanes.
    pub fn spmc_fast_path(mut self) -> Self {
        self.lane_policy = LanePolicy::SpmcFastPath;
        self
    }

    /// This config with [`LanePolicy::Adaptive`] planner-driven lanes.
    pub fn adaptive(mut self) -> Self {
        self.lane_policy = LanePolicy::Adaptive;
        self
    }
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self::with_lanes(4)
    }
}

/// One lane: the factory-built MPMC queue plus the fast-path ring(s) in
/// front of it, the `active` selector steering fresh claims, and the
/// observation word feeding the planner.
struct ShardLane<T: Send, Q> {
    mpmc: Q,
    spsc_ring: Option<SpscRing<T>>,
    mpsc_ring: Option<MpscRing<T>>,
    spmc_ring: Option<SpmcRing<T>>,
    /// Which ring fresh role resolutions claim (`ACTIVE_*`). Static
    /// policies pin it at construction; the adaptive planner flips it on
    /// fresh lanes only. Advisory: safety never depends on the flip
    /// being observed — see the scavenging rules in the module docs.
    active: AtomicU8,
    obs: LaneObsWord,
}

impl<T: Send, Q> ShardLane<T, Q> {
    fn active(&self) -> u8 {
        self.active.load(Ordering::Acquire)
    }

    /// Bit per ring this lane actually built.
    fn built_mask(&self) -> u8 {
        let mut m = 0;
        if self.spsc_ring.is_some() {
            m |= RING_BIT_SPSC;
        }
        if self.mpsc_ring.is_some() {
            m |= RING_BIT_MPSC;
        }
        if self.spmc_ring.is_some() {
            m |= RING_BIT_SPMC;
        }
        m
    }

    /// Whether ring `kind` is safe to plan away from / onto: empty and
    /// claim-free (and, for the incoming ring, unpromoted — a promoted
    /// ring stays burnt; the planner routes around it, never through).
    fn ring_fresh(&self, kind: u8, need_unpromoted: bool) -> bool {
        let fresh = |a: &ArityRegistry, empty: bool| {
            (!need_unpromoted || !a.promoted())
                && !a.producer_claimed()
                && !a.consumer_claimed()
                && a.multi_count() == 0
                && empty
        };
        match kind {
            ACTIVE_SPSC => self
                .spsc_ring
                .as_ref()
                .is_none_or(|r| fresh(r.arity(), r.is_empty())),
            ACTIVE_MPSC => self
                .mpsc_ring
                .as_ref()
                .is_none_or(|r| fresh(r.arity(), r.is_empty())),
            ACTIVE_SPMC => self
                .spmc_ring
                .as_ref()
                .is_none_or(|r| fresh(r.arity(), r.is_empty())),
            _ => true,
        }
    }

    /// Drains one value of residue from any ring other than `skip` —
    /// claim-pop-release on the single-consumer rings, a plain
    /// arbitrated pop on the SPMC ring. Never promotes; claims only a
    /// ring observed to hold work. This is what makes conservation
    /// unconditional under planner/claim races on adaptive lanes.
    fn scavenge(&self, skip: u8) -> Option<T> {
        if skip & RING_BIT_SPSC == 0 {
            if let Some(ring) = &self.spsc_ring {
                if !ring.is_empty() && ring.arity().try_reclaim_consumer() {
                    let mut cur = ring.consumer_cursor();
                    // SAFETY: the claim above grants sole-popper.
                    let v = unsafe { ring.pop(&mut cur) };
                    ring.arity().release_consumer();
                    if v.is_some() {
                        return v;
                    }
                }
            }
        }
        if skip & RING_BIT_MPSC == 0 {
            if let Some(ring) = &self.mpsc_ring {
                if !ring.is_empty() && ring.arity().try_reclaim_consumer() {
                    let mut cur = ring.consumer_cursor();
                    // SAFETY: the claim above grants sole-popper.
                    let v = unsafe { ring.pop(&mut cur) };
                    ring.arity().release_consumer();
                    if v.is_some() {
                        return v;
                    }
                }
            }
        }
        if skip & RING_BIT_SPMC == 0 {
            if let Some(ring) = &self.spmc_ring {
                // The drain side is FAA-arbitrated: scavenging needs no
                // claim and can never promote.
                if let Some(v) = ring.pop() {
                    return Some(v);
                }
            }
        }
        None
    }

    /// Batch analog of [`ShardLane::scavenge`].
    fn scavenge_batch(&self, skip: u8, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut taken = 0usize;
        if skip & RING_BIT_SPSC == 0 {
            if let Some(ring) = &self.spsc_ring {
                if !ring.is_empty() && ring.arity().try_reclaim_consumer() {
                    let mut cur = ring.consumer_cursor();
                    // SAFETY: the claim above grants sole-popper.
                    taken += unsafe { ring.pop_batch(&mut cur, out, max - taken) };
                    ring.arity().release_consumer();
                }
            }
        }
        if taken < max && skip & RING_BIT_MPSC == 0 {
            if let Some(ring) = &self.mpsc_ring {
                if !ring.is_empty() && ring.arity().try_reclaim_consumer() {
                    let mut cur = ring.consumer_cursor();
                    // SAFETY: the claim above grants sole-popper.
                    taken += unsafe { ring.pop_batch(&mut cur, out, max - taken) };
                    ring.arity().release_consumer();
                }
            }
        }
        if taken < max && skip & RING_BIT_SPMC == 0 {
            if let Some(ring) = &self.spmc_ring {
                taken += ring.pop_batch(out, max - taken);
            }
        }
        taken
    }
}

impl<T: Send, Q: fmt::Debug> fmt::Debug for ShardLane<T, Q> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardLane")
            .field("mpmc", &self.mpmc)
            .field("spsc_ring", &self.spsc_ring.is_some())
            .field("mpsc_ring", &self.mpsc_ring.is_some())
            .field("spmc_ring", &self.spmc_ring.is_some())
            .field("active", &self.active.load(Ordering::Relaxed))
            .finish()
    }
}

/// A sharded multi-lane frontend composing `N` independent FIFO lanes
/// into one relaxed-FIFO queue. See the [module docs](self) for the
/// ordering contract and the fast-path protocols.
pub struct ShardedQueue<T: Send, Q: ConcurrentQueue<T>> {
    /// Each lane on its own cache line(s): a lane's `Head`/`Tail` traffic
    /// must not false-share with its neighbor's.
    lanes: Box<[CachePadded<ShardLane<T, Q>>]>,
    /// Round-robin assignment cursor for new handles.
    next_handle: AtomicUsize,
    config: ShardedConfig,
    _marker: PhantomData<fn(T) -> T>,
}

impl<T: Send, Q: ConcurrentQueue<T>> ShardedQueue<T, Q> {
    /// Builds a sharded queue whose lane `i` is `factory.make_lane(i)`.
    ///
    /// Any `FnMut(usize) -> Q` closure is a [`LaneFactory`] via the
    /// blanket impl, so pre-existing closure call sites work unchanged.
    /// Fast-path policies additionally build the policy's ring(s), each
    /// sized to the lane's own capacity.
    ///
    /// # Panics
    ///
    /// Panics if `config.lanes == 0`.
    pub fn with_config<F>(config: ShardedConfig, mut factory: F) -> Self
    where
        F: LaneFactory<T, Lane = Q>,
    {
        assert!(config.lanes > 0, "a sharded queue needs at least one lane");
        let lanes: Box<[CachePadded<ShardLane<T, Q>>]> = (0..config.lanes)
            .map(|i| {
                let mpmc = factory.make_lane(i);
                let cap = mpmc.capacity().unwrap_or(DEFAULT_RING_CAPACITY);
                let (spsc_ring, mpsc_ring, spmc_ring, active) = match config.lane_policy {
                    LanePolicy::Mpmc => (None, None, None, ACTIVE_NONE),
                    LanePolicy::SpscFastPath => {
                        (Some(SpscRing::with_capacity(cap)), None, None, ACTIVE_SPSC)
                    }
                    LanePolicy::MpscFastPath => {
                        (None, Some(MpscRing::with_capacity(cap)), None, ACTIVE_MPSC)
                    }
                    LanePolicy::SpmcFastPath => {
                        (None, None, Some(SpmcRing::with_capacity(cap)), ACTIVE_SPMC)
                    }
                    LanePolicy::Adaptive => (
                        Some(SpscRing::with_capacity(cap)),
                        Some(MpscRing::with_capacity(cap)),
                        Some(SpmcRing::with_capacity(cap)),
                        // Optimistic default until observations land.
                        ACTIVE_SPSC,
                    ),
                };
                CachePadded::new(ShardLane {
                    mpmc,
                    spsc_ring,
                    mpsc_ring,
                    spmc_ring,
                    active: AtomicU8::new(active),
                    obs: LaneObsWord::new(),
                })
            })
            .collect();
        Self {
            lanes,
            next_handle: AtomicUsize::new(0),
            config,
            _marker: PhantomData,
        }
    }

    /// [`ShardedQueue::with_config`] with the default full-steal,
    /// pin-batch, pure-MPMC configuration for `lanes` lanes.
    pub fn with_lanes<F>(lanes: usize, factory: F) -> Self
    where
        F: LaneFactory<T, Lane = Q>,
    {
        Self::with_config(ShardedConfig::with_lanes(lanes), factory)
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Direct access to lane `i`'s MPMC queue (for per-lane statistics
    /// and tests — each is itself a complete [`ConcurrentQueue`]).
    pub fn lane(&self, i: usize) -> &Q {
        &self.lanes[i].mpmc
    }

    /// Whether lane `i` was built with any fast-path ring.
    pub fn lane_has_fast_path(&self, i: usize) -> bool {
        self.lanes[i].built_mask() != 0
    }

    /// Whether lane `i`'s *active* fast path has been promoted to MPMC
    /// service (a second registrant appeared on a single side). `None`
    /// when no ring is active on the lane.
    pub fn lane_promoted(&self, i: usize) -> Option<bool> {
        let l = &self.lanes[i];
        match l.active() {
            ACTIVE_SPSC => l.spsc_ring.as_ref().map(|r| r.arity().promoted()),
            ACTIVE_MPSC => l.mpsc_ring.as_ref().map(|r| r.arity().promoted()),
            ACTIVE_SPMC => l.spmc_ring.as_ref().map(|r| r.arity().promoted()),
            _ => None,
        }
    }

    /// The capability envelope lane `i` currently serves fresh claims
    /// under: the active ring's wait-free kind, demoted to plain `mpmc`
    /// once that ring promoted (or when no ring is active).
    pub fn lane_kind(&self, i: usize) -> QueueKind {
        let l = &self.lanes[i];
        match l.active() {
            ACTIVE_SPSC => match &l.spsc_ring {
                Some(r) if !r.arity().promoted() => QueueKind::spsc_wait_free(),
                _ => QueueKind::mpmc(),
            },
            ACTIVE_MPSC => match &l.mpsc_ring {
                Some(r) if !r.arity().promoted() => QueueKind::mpsc_wait_free(),
                _ => QueueKind::mpmc(),
            },
            ACTIVE_SPMC => match &l.spmc_ring {
                Some(r) if !r.arity().promoted() => QueueKind::spmc_wait_free(),
                _ => QueueKind::mpmc(),
            },
            _ => QueueKind::mpmc(),
        }
    }

    /// Decoded snapshot of lane `i`'s observation word (what the planner
    /// would see right now).
    pub fn lane_observation(&self, i: usize) -> LaneObservation {
        self.lanes[i].obs.snapshot()
    }

    /// One planner step: for every lane, map the registrations observed
    /// since the last re-plan to a target ring kind and flip the lane's
    /// `active` selector if — and only if — the lane is fresh (outgoing
    /// ring empty and claim-free, incoming ring additionally
    /// unpromoted). No-op unless the queue was built with
    /// [`LanePolicy::Adaptive`]. Also piggy-backed on every
    /// [`ConcurrentQueue::handle`] creation, the natural quiesce point
    /// where a new participant's roles are still unresolved.
    pub fn replan(&self) {
        if self.config.lane_policy != LanePolicy::Adaptive {
            return;
        }
        for lane in self.lanes.iter() {
            let obs = lane.obs.snapshot();
            if obs.is_idle() {
                // Nothing moved since the last re-plan: keep the plan
                // (and the counters — they are already zero).
                continue;
            }
            // Heavy stealing means consumers beyond the registered set
            // visit this lane: plan as if one more consumer registered,
            // so a single-consumer ring claim is not handed to a lane
            // where it would only bounce.
            let consumers = obs.consumers + u32::from(obs.steals > STEAL_PLAN_THRESHOLD);
            let target = match (obs.producers > 1, consumers > 1) {
                (false, false) => ACTIVE_SPSC,
                (true, false) => ACTIVE_MPSC,
                (false, true) => ACTIVE_SPMC,
                (true, true) => ACTIVE_NONE,
            };
            let cur = lane.active();
            if target == cur {
                lane.obs.reset();
                continue;
            }
            if !lane.ring_fresh(cur, false) || !lane.ring_fresh(target, true) {
                // Lane still busy (claims held or values in flight):
                // keep the counters so a later step can retry the flip.
                continue;
            }
            lane.active.store(target, Ordering::Release);
            lane.obs.reset();
        }
    }

    /// A handle pinned to `lane`: it never steals, so its per-producer
    /// FIFO order is unconditional and a full/empty lane surfaces
    /// immediately as `Full`/`None`. On a fast-path lane, endpoint-
    /// compatible registrants run entirely on the wait-free ring.
    pub fn handle_pinned(&self, lane: usize) -> ShardedHandle<'_, T, Q> {
        assert!(lane < self.lanes.len(), "lane {lane} out of range");
        self.make_handle(lane, 0)
    }

    #[cfg(test)]
    fn force_active(&self, lane: usize, kind: u8) {
        self.lanes[lane].active.store(kind, Ordering::Release);
    }

    #[cfg(test)]
    fn active_of(&self, lane: usize) -> u8 {
        self.lanes[lane].active()
    }

    fn make_handle(&self, cursor: usize, steal_attempts: usize) -> ShardedHandle<'_, T, Q> {
        ShardedHandle {
            handles: self.lanes.iter().map(|_| None).collect(),
            roles: self.lanes.iter().map(|_| LaneRole::default()).collect(),
            lanes: &self.lanes,
            cursor,
            steal_attempts,
            batch_policy: self.config.batch_policy,
            adaptive: self.config.lane_policy == LanePolicy::Adaptive,
            obs_tick: 0,
        }
    }
}

impl<T: Send, Q: ConcurrentQueue<T> + fmt::Debug> fmt::Debug for ShardedQueue<T, Q> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedQueue")
            .field("lanes", &self.lanes)
            .field("config", &self.config)
            .finish()
    }
}

/// This handle's producer-side relationship to one lane.
enum ProdRole {
    /// Not yet resolved: first enqueue on the lane decides.
    Unknown,
    /// Holds the SPSC ring's producer claim; enqueues are wait-free
    /// pushes.
    Spsc(SpscProducerCursor),
    /// Registered on the MPSC ring's multi producer side; enqueues are
    /// FAA-ticketed wait-free pushes.
    Mpsc(MpscProducerCursor),
    /// Holds the SPMC ring's producer claim; enqueues are wait-free
    /// pushes.
    Spmc(SpmcProducerCursor),
    /// Enqueues go to the lane's MPMC queue.
    Mpmc,
}

/// This handle's consumer-side relationship to one lane.
enum ConsRole {
    /// Not yet resolved: first dequeue on the lane decides.
    Unknown,
    /// Holds the SPSC ring's consumer claim; dequeues drain the ring
    /// first.
    Spsc(SpscConsumerCursor),
    /// Holds the MPSC ring's single consumer claim; dequeues drain the
    /// fan-in ring first.
    Mpsc(MpscConsumerCursor),
    /// Registered on the SPMC ring's multi drain side; dequeues take
    /// FAA-arbitrated pops from the fan-out ring first.
    Spmc,
    /// Dequeues go to the lane's MPMC queue, with opportunistic residue
    /// reclaim from any ring not yet verified dead (`dead` is a
    /// `RING_BIT_*` mask of rings proven permanently empty).
    Mpmc {
        /// Rings this handle has verified permanently empty.
        dead: u8,
    },
    /// Every built ring is permanently empty; dequeues skip them all.
    RingDead,
}

/// Per-lane routing state of one handle.
struct LaneRole {
    prod: ProdRole,
    cons: ConsRole,
}

impl Default for LaneRole {
    fn default() -> Self {
        Self {
            prod: ProdRole::Unknown,
            cons: ConsRole::Unknown,
        }
    }
}

/// Per-thread handle to a [`ShardedQueue`]: one inner MPMC handle per
/// lane (built on first use), the per-lane fast-path roles, and the
/// affinity cursor steering lane selection.
pub struct ShardedHandle<'q, T: Send, Q: ConcurrentQueue<T> + 'q> {
    /// Each lane's inner MPMC handle, built the first time an operation
    /// falls through to that lane's MPMC queue. A handle that stays on
    /// its fast-path ring never builds one, and so never pays for what
    /// the inner queue's handle sets up (a `CasQueue` handle registers
    /// an LL/SC variable and a node-pool cache).
    handles: Box<[Option<Q::Handle<'q>>]>,
    roles: Box<[LaneRole]>,
    lanes: &'q [CachePadded<ShardLane<T, Q>>],
    /// Affinity lane; migrates to the serving lane on successful steals.
    cursor: usize,
    steal_attempts: usize,
    batch_policy: BatchPolicy,
    /// Whether the queue runs the adaptive planner (gates the sampled
    /// event recording on the hot paths).
    adaptive: bool,
    /// Local sampling tick for `Full`/empty observation recording.
    obs_tick: u32,
}

impl<'q, T: Send, Q: ConcurrentQueue<T> + 'q> ShardedHandle<'q, T, Q> {
    /// The lane this handle currently prefers.
    pub fn affinity(&self) -> usize {
        self.cursor
    }

    /// The inner MPMC handle on `lane`, built on first use.
    fn mpmc(&mut self, lane: usize) -> &mut Q::Handle<'q> {
        let lanes = self.lanes;
        self.handles[lane].get_or_insert_with(|| lanes[lane].mpmc.handle())
    }

    /// Lane probe order: affinity lane first, then up to
    /// `steal_attempts` neighbors, wrapping.
    fn probe_order(&self) -> impl Iterator<Item = usize> {
        let lanes = self.lanes.len();
        let cursor = self.cursor;
        let probes = self.steal_attempts.min(lanes - 1);
        (0..=probes).map(move |i| (cursor + i) % lanes)
    }

    /// Resolves this handle's producer role on `lane` on first use:
    /// claim (or register on) the active ring's producer side, or
    /// promote and fall back to MPMC.
    fn resolve_prod(&mut self, lane: usize) {
        if !matches!(self.roles[lane].prod, ProdRole::Unknown) {
            return;
        }
        let l = &self.lanes[lane];
        let role = match l.active() {
            ACTIVE_SPSC => match &l.spsc_ring {
                // The claim itself rejects promoted lanes inside its CAS
                // loop, so claim-vs-promote is decided by a single CAS: a
                // new ring producer can never slip onto a lane whose
                // consumers already cached the ring as dead.
                Some(ring) if ring.arity().try_claim_producer() => {
                    ProdRole::Spsc(ring.producer_cursor())
                }
                Some(ring) => {
                    // Second registrant on a claimed side (or the lane
                    // was already promoted): degrade this lane to MPMC
                    // service. Promotion is sticky, so the ring can only
                    // drain from here on.
                    ring.arity().promote();
                    ProdRole::Mpmc
                }
                None => ProdRole::Mpmc,
            },
            ACTIVE_MPSC => match &l.mpsc_ring {
                // Producers are the fan-in ring's *multi* side: any
                // number may register; registration never promotes and
                // fails only once the lane promoted (second consumer).
                Some(ring) if ring.arity().try_register_multi() => {
                    ProdRole::Mpsc(ring.producer_cursor())
                }
                Some(_) | None => ProdRole::Mpmc,
            },
            ACTIVE_SPMC => match &l.spmc_ring {
                Some(ring) if ring.arity().try_claim_producer() => {
                    ProdRole::Spmc(ring.producer_cursor())
                }
                Some(ring) => {
                    // Second producer on the fan-out ring: promote.
                    ring.arity().promote();
                    ProdRole::Mpmc
                }
                None => ProdRole::Mpmc,
            },
            _ => ProdRole::Mpmc,
        };
        l.obs.record_prod();
        self.roles[lane].prod = role;
    }

    /// Resolves this handle's consumer role on `lane` on first use.
    fn resolve_cons(&mut self, lane: usize) {
        if !matches!(self.roles[lane].cons, ConsRole::Unknown) {
            return;
        }
        let l = &self.lanes[lane];
        let role = match l.active() {
            ACTIVE_SPSC => match &l.spsc_ring {
                Some(ring) if ring.arity().try_claim_consumer() => {
                    ConsRole::Spsc(ring.consumer_cursor())
                }
                Some(ring) => {
                    ring.arity().promote();
                    ConsRole::Mpmc { dead: 0 }
                }
                None => ConsRole::Mpmc { dead: 0 },
            },
            ACTIVE_MPSC => match &l.mpsc_ring {
                Some(ring) if ring.arity().try_claim_consumer() => {
                    ConsRole::Mpsc(ring.consumer_cursor())
                }
                Some(ring) => {
                    // Second consumer on the fan-in ring: promote.
                    ring.arity().promote();
                    ConsRole::Mpmc { dead: 0 }
                }
                None => ConsRole::Mpmc { dead: 0 },
            },
            ACTIVE_SPMC => match &l.spmc_ring {
                Some(ring) => {
                    // Consumers are the fan-out ring's *multi* side:
                    // registering is unconditional bookkeeping — drain-
                    // side arrival never promotes and never fails.
                    ring.arity().register_multi_drain();
                    ConsRole::Spmc
                }
                None => ConsRole::Mpmc { dead: 0 },
            },
            _ => {
                if l.built_mask() == 0 {
                    // Pure-MPMC lane: nothing to ever scan.
                    ConsRole::RingDead
                } else {
                    ConsRole::Mpmc { dead: 0 }
                }
            }
        };
        l.obs.record_cons();
        self.roles[lane].cons = role;
    }

    /// Enqueue on one specific lane, routed by this handle's role there.
    fn lane_enqueue(&mut self, lane: usize, value: T) -> Result<(), Full<T>> {
        self.resolve_prod(lane);
        match &mut self.roles[lane].prod {
            ProdRole::Spsc(cur) => {
                let ring = self.lanes[lane]
                    .spsc_ring
                    .as_ref()
                    .expect("role implies a ring");
                if !(ring.arity().promoted() && ring.producer_sees_empty()) {
                    return unsafe {
                        // SAFETY: this handle holds the producer claim.
                        ring.push(cur, value)
                    };
                }
                // Switch point: the lane promoted and the ring is exactly
                // empty (the producer owns `tail`, so its emptiness check
                // is exact). Handing the lane over *now* keeps this
                // producer's values totally ordered: everything it pushed
                // to the ring has already drained ahead of its first MPMC
                // item.
                ring.arity().release_producer();
                self.roles[lane].prod = ProdRole::Mpmc;
            }
            ProdRole::Mpsc(cur) => {
                let ring = self.lanes[lane]
                    .mpsc_ring
                    .as_ref()
                    .expect("role implies a ring");
                // A fan-in producer cannot observe global emptiness
                // exactly, but it can observe its *own* residue drained:
                // `producer_drained` keys this producer's last ticket
                // against the monotone `head`, so switching right then
                // still keeps per-producer FIFO across the hand-over.
                if !(ring.arity().promoted() && ring.producer_drained(cur)) {
                    return ring.push(cur, value);
                }
                ring.arity().release_multi();
                self.roles[lane].prod = ProdRole::Mpmc;
            }
            ProdRole::Spmc(cur) => {
                let ring = self.lanes[lane]
                    .spmc_ring
                    .as_ref()
                    .expect("role implies a ring");
                if !(ring.arity().promoted() && ring.producer_sees_empty()) {
                    return unsafe {
                        // SAFETY: this handle holds the producer claim.
                        ring.push(cur, value)
                    };
                }
                // Same exact-empty switch point as the SPSC ring: the
                // fan-out producer owns `tail`.
                ring.arity().release_producer();
                self.roles[lane].prod = ProdRole::Mpmc;
            }
            _ => {}
        }
        self.mpmc(lane).enqueue(value)
    }

    /// Batch enqueue on one specific lane; the ring paths publish the
    /// moved `tail` once for the whole batch.
    fn lane_enqueue_batch<I>(&mut self, lane: usize, items: I) -> Result<usize, BatchFull<T>>
    where
        I: ExactSizeIterator<Item = T>,
    {
        self.resolve_prod(lane);
        match &mut self.roles[lane].prod {
            ProdRole::Spsc(cur) => {
                let ring = self.lanes[lane]
                    .spsc_ring
                    .as_ref()
                    .expect("role implies a ring");
                if !(ring.arity().promoted() && ring.producer_sees_empty()) {
                    let mut items = items;
                    // SAFETY: this handle holds the producer claim.
                    let pushed = unsafe { ring.push_batch(cur, &mut items) };
                    return if items.len() == 0 {
                        Ok(pushed)
                    } else {
                        Err(BatchFull {
                            enqueued: pushed,
                            remaining: items.collect(),
                        })
                    };
                }
                // Same exact-empty switch point as `lane_enqueue`.
                ring.arity().release_producer();
                self.roles[lane].prod = ProdRole::Mpmc;
            }
            ProdRole::Mpsc(cur) => {
                let ring = self.lanes[lane]
                    .mpsc_ring
                    .as_ref()
                    .expect("role implies a ring");
                if !(ring.arity().promoted() && ring.producer_drained(cur)) {
                    let mut items = items;
                    let pushed = ring.push_batch(cur, &mut items);
                    return if items.len() == 0 {
                        Ok(pushed)
                    } else {
                        Err(BatchFull {
                            enqueued: pushed,
                            remaining: items.collect(),
                        })
                    };
                }
                ring.arity().release_multi();
                self.roles[lane].prod = ProdRole::Mpmc;
            }
            ProdRole::Spmc(cur) => {
                let ring = self.lanes[lane]
                    .spmc_ring
                    .as_ref()
                    .expect("role implies a ring");
                if !(ring.arity().promoted() && ring.producer_sees_empty()) {
                    let mut items = items;
                    // SAFETY: this handle holds the producer claim.
                    let pushed = unsafe { ring.push_batch(cur, &mut items) };
                    return if items.len() == 0 {
                        Ok(pushed)
                    } else {
                        Err(BatchFull {
                            enqueued: pushed,
                            remaining: items.collect(),
                        })
                    };
                }
                ring.arity().release_producer();
                self.roles[lane].prod = ProdRole::Mpmc;
            }
            _ => {}
        }
        self.mpmc(lane).enqueue_batch(items)
    }

    /// Dequeue from a lane this handle is merely probing (stealing into
    /// with its consumer role still unresolved): strictly read-only with
    /// respect to the lane's single-consumer fast paths. Probes never
    /// promote, and claim a single-consumer endpoint only when that ring
    /// actually holds work — a handle *looking* at an empty fast-path
    /// lane must not degrade the pinned registrants that own it. The
    /// SPMC ring's drain side is FAA-arbitrated, so a probe may always
    /// pop from it directly.
    fn probe_dequeue(&mut self, lane: usize) -> Option<T> {
        if let Some(ring) = &self.lanes[lane].spsc_ring {
            if !ring.is_empty() && ring.arity().try_reclaim_consumer() {
                let mut cur = ring.consumer_cursor();
                // SAFETY: the claim above grants sole-popper.
                let popped = unsafe { ring.pop(&mut cur) };
                if popped.is_some() {
                    // The probe found ring work: adopt the endpoint. The
                    // caller's migration makes this the affinity lane.
                    self.roles[lane].cons = ConsRole::Spsc(cur);
                    return popped;
                }
                // Raced with the ring draining: hand the endpoint back
                // and stay unresolved.
                ring.arity().release_consumer();
            }
        }
        if let Some(ring) = &self.lanes[lane].mpsc_ring {
            if !ring.is_empty() && ring.arity().try_reclaim_consumer() {
                let mut cur = ring.consumer_cursor();
                // SAFETY: the claim above grants sole-popper.
                let popped = unsafe { ring.pop(&mut cur) };
                if popped.is_some() {
                    self.roles[lane].cons = ConsRole::Mpsc(cur);
                    return popped;
                }
                ring.arity().release_consumer();
            }
        }
        if let Some(ring) = &self.lanes[lane].spmc_ring {
            // Arbitrated drain side: popping is the probe. No claim, no
            // promotion, and the role stays unresolved.
            if let Some(v) = ring.pop() {
                return Some(v);
            }
        }
        self.mpmc(lane).dequeue()
    }

    /// Dequeue from one specific lane, routed by this handle's role
    /// there. On a promoted lane the active ring drains first, preserving
    /// the ring producers' FIFO order across the switch.
    ///
    /// Every dead-ring transition below observes the arity word
    /// **before** re-verifying emptiness: the acquire load that sees the
    /// producer side released (claim released, or the fan-in registrant
    /// count at zero) orders any prior ring publication, and promotion-
    /// blocked claims/registrations mean no *new* ring producer can
    /// appear — so "empty after the claim observation" really does mean
    /// empty forever. Checking in the stale order (emptiness first) can
    /// strand a value pushed between the two reads.
    fn lane_dequeue(&mut self, lane: usize) -> Option<T> {
        if lane != self.cursor && matches!(self.roles[lane].cons, ConsRole::Unknown) {
            return self.probe_dequeue(lane);
        }
        self.resolve_cons(lane);
        match &mut self.roles[lane].cons {
            ConsRole::Spsc(cur) => {
                let ring = self.lanes[lane]
                    .spsc_ring
                    .as_ref()
                    .expect("role implies a ring");
                // SAFETY: this handle holds the consumer claim.
                if let Some(v) = unsafe { ring.pop(cur) } {
                    return Some(v);
                }
                if !ring.arity().promoted() {
                    // Unpromoted empty ring: under a static policy the
                    // MPMC queue behind it is empty too, but on an
                    // adaptive lane a planner race may have stranded
                    // values in a sibling ring — or, via a promoted
                    // sibling's demoted producers, in the MPMC queue
                    // itself. Scavenge the siblings, then fall through
                    // to the MPMC queue; the role (and the claim) stay
                    // put so the ring fast path is retried first next
                    // time.
                    if let Some(v) = self.lanes[lane].scavenge(RING_BIT_SPSC) {
                        return Some(v);
                    }
                    return self.mpmc(lane).dequeue();
                }
                if !ring.arity().producer_claimed() {
                    // Re-poll *after* observing the released claim: a
                    // value pushed just before the release is published
                    // by the release/acquire pair on the arity word.
                    // SAFETY: as above.
                    if let Some(v) = unsafe { ring.pop(cur) } {
                        return Some(v);
                    }
                    // Promotion is sticky and claims are promotion-
                    // blocked, so no new ring producer can ever appear:
                    // the ring is empty forever.
                    ring.arity().release_consumer();
                    self.roles[lane].cons = ConsRole::Mpmc {
                        dead: RING_BIT_SPSC,
                    };
                }
                self.mpmc(lane).dequeue()
            }
            ConsRole::Mpsc(cur) => {
                let ring = self.lanes[lane]
                    .mpsc_ring
                    .as_ref()
                    .expect("role implies a ring");
                // SAFETY: this handle holds the single-consumer claim.
                if let Some(v) = unsafe { ring.pop(cur) } {
                    return Some(v);
                }
                if !ring.arity().promoted() {
                    // Same stranding hazard as the SPSC branch above:
                    // scavenge siblings, then fall through to MPMC.
                    if let Some(v) = self.lanes[lane].scavenge(RING_BIT_MPSC) {
                        return Some(v);
                    }
                    return self.mpmc(lane).dequeue();
                }
                if ring.arity().multi_count() == 0 {
                    // Every fan-in producer released its registration —
                    // each after its final publication, and the acquire
                    // read of the zero count orders those pushes.
                    // SAFETY: as above.
                    if let Some(v) = unsafe { ring.pop(cur) } {
                        return Some(v);
                    }
                    // Registration is promotion-blocked: no new fan-in
                    // producer can appear. Empty forever.
                    ring.arity().release_consumer();
                    self.roles[lane].cons = ConsRole::Mpmc {
                        dead: RING_BIT_MPSC,
                    };
                }
                self.mpmc(lane).dequeue()
            }
            ConsRole::Spmc => {
                let ring = self.lanes[lane]
                    .spmc_ring
                    .as_ref()
                    .expect("role implies a ring");
                if let Some(v) = ring.pop() {
                    return Some(v);
                }
                if !ring.arity().promoted() {
                    // Same stranding hazard as the SPSC branch above:
                    // scavenge siblings, then fall through to MPMC.
                    if let Some(v) = self.lanes[lane].scavenge(RING_BIT_SPMC) {
                        return Some(v);
                    }
                    return self.mpmc(lane).dequeue();
                }
                if !ring.arity().producer_claimed() {
                    // Re-poll after observing the released producer
                    // claim, exactly as in the SPSC case; drain-side
                    // registrations are irrelevant to deadness.
                    if let Some(v) = ring.pop() {
                        return Some(v);
                    }
                    ring.arity().release_multi();
                    self.roles[lane].cons = ConsRole::Mpmc {
                        dead: RING_BIT_SPMC,
                    };
                }
                self.mpmc(lane).dequeue()
            }
            ConsRole::Mpmc { dead } => {
                let mut dead = *dead;
                // For each built, not-yet-dead ring: claim state first,
                // emptiness second (see the method docs); reclaim any
                // ring observed to hold residue, adopting its endpoint.
                if dead & RING_BIT_SPSC == 0 {
                    if let Some(ring) = &self.lanes[lane].spsc_ring {
                        let producer_gone =
                            ring.arity().promoted() && !ring.arity().producer_claimed();
                        if !ring.is_empty() {
                            if ring.arity().try_reclaim_consumer() {
                                let mut cur = ring.consumer_cursor();
                                // SAFETY: the claim grants sole-popper.
                                let popped = unsafe { ring.pop(&mut cur) };
                                self.roles[lane].cons = ConsRole::Spsc(cur);
                                if popped.is_some() {
                                    return popped;
                                }
                                return self.mpmc(lane).dequeue();
                            }
                        } else if producer_gone {
                            dead |= RING_BIT_SPSC;
                        }
                    }
                }
                if dead & RING_BIT_MPSC == 0 {
                    if let Some(ring) = &self.lanes[lane].mpsc_ring {
                        let producers_gone =
                            ring.arity().promoted() && ring.arity().multi_count() == 0;
                        if !ring.is_empty() {
                            if ring.arity().try_reclaim_consumer() {
                                let mut cur = ring.consumer_cursor();
                                // SAFETY: the claim grants sole-popper.
                                let popped = unsafe { ring.pop(&mut cur) };
                                self.roles[lane].cons = ConsRole::Mpsc(cur);
                                if popped.is_some() {
                                    return popped;
                                }
                                return self.mpmc(lane).dequeue();
                            }
                        } else if producers_gone {
                            dead |= RING_BIT_MPSC;
                        }
                    }
                }
                if dead & RING_BIT_SPMC == 0 {
                    if let Some(ring) = &self.lanes[lane].spmc_ring {
                        let producer_gone =
                            ring.arity().promoted() && !ring.arity().producer_claimed();
                        if let Some(v) = ring.pop() {
                            self.roles[lane].cons = ConsRole::Mpmc { dead };
                            return Some(v);
                        } else if producer_gone {
                            // The pop observed the gate empty *after*
                            // the claim read above: empty forever.
                            dead |= RING_BIT_SPMC;
                        }
                    }
                }
                self.roles[lane].cons = if dead == self.lanes[lane].built_mask() {
                    ConsRole::RingDead
                } else {
                    ConsRole::Mpmc { dead }
                };
                self.mpmc(lane).dequeue()
            }
            ConsRole::RingDead => self.mpmc(lane).dequeue(),
            ConsRole::Unknown => unreachable!("resolved above"),
        }
    }

    /// Batch analog of [`ShardedHandle::probe_dequeue`]: read-only with
    /// respect to the lane's single-consumer fast paths unless a ring
    /// holds work; the SPMC drain side is always poppable.
    fn probe_dequeue_batch(&mut self, lane: usize, out: &mut Vec<T>, max: usize) -> usize {
        let mut taken = 0usize;
        if let Some(ring) = &self.lanes[lane].spsc_ring {
            if !ring.is_empty() && ring.arity().try_reclaim_consumer() {
                let mut cur = ring.consumer_cursor();
                // SAFETY: the claim above grants sole-popper.
                taken = unsafe { ring.pop_batch(&mut cur, out, max) };
                if taken > 0 {
                    self.roles[lane].cons = ConsRole::Spsc(cur);
                } else {
                    ring.arity().release_consumer();
                }
            }
        }
        if taken == 0 {
            if let Some(ring) = &self.lanes[lane].mpsc_ring {
                if !ring.is_empty() && ring.arity().try_reclaim_consumer() {
                    let mut cur = ring.consumer_cursor();
                    // SAFETY: the claim above grants sole-popper.
                    taken = unsafe { ring.pop_batch(&mut cur, out, max) };
                    if taken > 0 {
                        self.roles[lane].cons = ConsRole::Mpsc(cur);
                    } else {
                        ring.arity().release_consumer();
                    }
                }
            }
        }
        if taken < max {
            if let Some(ring) = &self.lanes[lane].spmc_ring {
                taken += ring.pop_batch(out, max - taken);
            }
        }
        if taken < max {
            taken += self.mpmc(lane).dequeue_batch(out, max - taken);
        }
        taken
    }

    /// Batch dequeue from one specific lane; the ring paths publish the
    /// moved `head` once for the whole batch. Dead-ring transitions
    /// follow the same claim-observation-before-emptiness order as
    /// [`ShardedHandle::lane_dequeue`].
    fn lane_dequeue_batch(&mut self, lane: usize, out: &mut Vec<T>, max: usize) -> usize {
        if lane != self.cursor && matches!(self.roles[lane].cons, ConsRole::Unknown) {
            return self.probe_dequeue_batch(lane, out, max);
        }
        self.resolve_cons(lane);
        match &mut self.roles[lane].cons {
            ConsRole::Spsc(cur) => {
                let ring = self.lanes[lane]
                    .spsc_ring
                    .as_ref()
                    .expect("role implies a ring");
                // SAFETY: this handle holds the consumer claim.
                let mut got = unsafe { ring.pop_batch(cur, out, max) };
                if got == max {
                    return got;
                }
                if !ring.arity().promoted() {
                    // Scavenge siblings, then fall through to the MPMC
                    // queue (see [`ShardedHandle::lane_dequeue`] for
                    // the adaptive-lane stranding hazard this closes).
                    got += self.lanes[lane].scavenge_batch(RING_BIT_SPSC, out, max - got);
                    if got == max {
                        return got;
                    }
                    return got + self.mpmc(lane).dequeue_batch(out, max - got);
                }
                if !ring.arity().producer_claimed() {
                    // Re-poll after observing the released claim (the
                    // short first poll forces a fresh `tail` read), then
                    // the ring is verifiably empty forever.
                    // SAFETY: as above.
                    got += unsafe { ring.pop_batch(cur, out, max - got) };
                    if got == max {
                        return got;
                    }
                    ring.arity().release_consumer();
                    self.roles[lane].cons = ConsRole::Mpmc {
                        dead: RING_BIT_SPSC,
                    };
                }
                got + self.mpmc(lane).dequeue_batch(out, max - got)
            }
            ConsRole::Mpsc(cur) => {
                let ring = self.lanes[lane]
                    .mpsc_ring
                    .as_ref()
                    .expect("role implies a ring");
                // SAFETY: this handle holds the single-consumer claim.
                let mut got = unsafe { ring.pop_batch(cur, out, max) };
                if got == max {
                    return got;
                }
                if !ring.arity().promoted() {
                    // Scavenge, then fall through to MPMC (as above).
                    got += self.lanes[lane].scavenge_batch(RING_BIT_MPSC, out, max - got);
                    if got == max {
                        return got;
                    }
                    return got + self.mpmc(lane).dequeue_batch(out, max - got);
                }
                if ring.arity().multi_count() == 0 {
                    // SAFETY: as above.
                    got += unsafe { ring.pop_batch(cur, out, max - got) };
                    if got == max {
                        return got;
                    }
                    ring.arity().release_consumer();
                    self.roles[lane].cons = ConsRole::Mpmc {
                        dead: RING_BIT_MPSC,
                    };
                }
                got + self.mpmc(lane).dequeue_batch(out, max - got)
            }
            ConsRole::Spmc => {
                let ring = self.lanes[lane]
                    .spmc_ring
                    .as_ref()
                    .expect("role implies a ring");
                let mut got = ring.pop_batch(out, max);
                if got == max {
                    return got;
                }
                if !ring.arity().promoted() {
                    // Scavenge, then fall through to MPMC (as above).
                    got += self.lanes[lane].scavenge_batch(RING_BIT_SPMC, out, max - got);
                    if got == max {
                        return got;
                    }
                    return got + self.mpmc(lane).dequeue_batch(out, max - got);
                }
                if !ring.arity().producer_claimed() {
                    got += ring.pop_batch(out, max - got);
                    if got == max {
                        return got;
                    }
                    ring.arity().release_multi();
                    self.roles[lane].cons = ConsRole::Mpmc {
                        dead: RING_BIT_SPMC,
                    };
                }
                got + self.mpmc(lane).dequeue_batch(out, max - got)
            }
            ConsRole::Mpmc { dead } => {
                let mut dead = *dead;
                let mut taken = 0usize;
                if dead & RING_BIT_SPSC == 0 {
                    if let Some(ring) = &self.lanes[lane].spsc_ring {
                        let producer_gone =
                            ring.arity().promoted() && !ring.arity().producer_claimed();
                        if !ring.is_empty() {
                            if ring.arity().try_reclaim_consumer() {
                                let mut cur = ring.consumer_cursor();
                                // SAFETY: the claim grants sole-popper.
                                taken = unsafe { ring.pop_batch(&mut cur, out, max) };
                                self.roles[lane].cons = ConsRole::Spsc(cur);
                                if taken < max {
                                    taken += self.mpmc(lane).dequeue_batch(out, max - taken);
                                }
                                return taken;
                            }
                        } else if producer_gone {
                            dead |= RING_BIT_SPSC;
                        }
                    }
                }
                if dead & RING_BIT_MPSC == 0 {
                    if let Some(ring) = &self.lanes[lane].mpsc_ring {
                        let producers_gone =
                            ring.arity().promoted() && ring.arity().multi_count() == 0;
                        if !ring.is_empty() {
                            if ring.arity().try_reclaim_consumer() {
                                let mut cur = ring.consumer_cursor();
                                // SAFETY: the claim grants sole-popper.
                                taken = unsafe { ring.pop_batch(&mut cur, out, max) };
                                self.roles[lane].cons = ConsRole::Mpsc(cur);
                                if taken < max {
                                    taken += self.mpmc(lane).dequeue_batch(out, max - taken);
                                }
                                return taken;
                            }
                        } else if producers_gone {
                            dead |= RING_BIT_MPSC;
                        }
                    }
                }
                if dead & RING_BIT_SPMC == 0 {
                    if let Some(ring) = &self.lanes[lane].spmc_ring {
                        let producer_gone =
                            ring.arity().promoted() && !ring.arity().producer_claimed();
                        let got = ring.pop_batch(out, max - taken);
                        taken += got;
                        if got == 0 && producer_gone {
                            dead |= RING_BIT_SPMC;
                        }
                    }
                }
                self.roles[lane].cons = if dead == self.lanes[lane].built_mask() {
                    ConsRole::RingDead
                } else {
                    ConsRole::Mpmc { dead }
                };
                if taken < max {
                    taken += self.mpmc(lane).dequeue_batch(out, max - taken);
                }
                taken
            }
            ConsRole::RingDead => self.mpmc(lane).dequeue_batch(out, max),
            ConsRole::Unknown => unreachable!("resolved above"),
        }
    }
}

impl<'q, T: Send, Q: ConcurrentQueue<T> + 'q> Drop for ShardedHandle<'q, T, Q> {
    fn drop(&mut self) {
        // Release every ring endpoint this handle claimed or registered.
        // The release RMW publishes the final cursor values, so a later
        // claimant (or a promoting second registrant's consumers) sees
        // every value we pushed; un-drained residue is picked up via the
        // Mpmc-role reclaim path or by the next claiming handle.
        for (lane, role) in self.roles.iter().enumerate() {
            let l = &self.lanes[lane];
            match &role.prod {
                ProdRole::Spsc(_) => l
                    .spsc_ring
                    .as_ref()
                    .expect("role implies a ring")
                    .arity()
                    .release_producer(),
                ProdRole::Mpsc(_) => l
                    .mpsc_ring
                    .as_ref()
                    .expect("role implies a ring")
                    .arity()
                    .release_multi(),
                ProdRole::Spmc(_) => l
                    .spmc_ring
                    .as_ref()
                    .expect("role implies a ring")
                    .arity()
                    .release_producer(),
                _ => {}
            }
            match &role.cons {
                ConsRole::Spsc(_) => l
                    .spsc_ring
                    .as_ref()
                    .expect("role implies a ring")
                    .arity()
                    .release_consumer(),
                ConsRole::Mpsc(_) => l
                    .mpsc_ring
                    .as_ref()
                    .expect("role implies a ring")
                    .arity()
                    .release_consumer(),
                ConsRole::Spmc => l
                    .spmc_ring
                    .as_ref()
                    .expect("role implies a ring")
                    .arity()
                    .release_multi(),
                _ => {}
            }
        }
    }
}

impl<'q, T: Send, Q: ConcurrentQueue<T> + 'q> QueueHandle<T> for ShardedHandle<'q, T, Q> {
    fn enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        let mut value = value;
        for lane in self.probe_order() {
            match self.lane_enqueue(lane, value) {
                Ok(()) => {
                    // Sticky affinity: follow the lane that had room, so a
                    // producer's run of items stays contiguous per lane.
                    self.cursor = lane;
                    return Ok(());
                }
                Err(Full(v)) => {
                    if self.adaptive {
                        self.obs_tick = self.obs_tick.wrapping_add(1);
                        if self.obs_tick & 0xF == 0 {
                            self.lanes[lane].obs.record_full();
                        }
                    }
                    value = v;
                }
            }
        }
        Err(Full(value))
    }

    fn dequeue(&mut self) -> Option<T> {
        let home = self.cursor;
        for lane in self.probe_order() {
            if let Some(v) = self.lane_dequeue(lane) {
                if self.adaptive && lane != home {
                    self.lanes[lane].obs.record_steal();
                }
                // Follow the non-empty lane: the next dequeue drains it
                // without re-probing the empty ones.
                self.cursor = lane;
                return Some(v);
            }
        }
        if self.adaptive {
            self.obs_tick = self.obs_tick.wrapping_add(1);
            if self.obs_tick & 0xF == 0 {
                self.lanes[home].obs.record_empty();
            }
        }
        None
    }

    fn enqueue_batch(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
    ) -> Result<usize, BatchFull<T>> {
        match self.batch_policy {
            BatchPolicy::Pin => {
                // Whole batch to the affinity lane's native batch path;
                // on Full, spill the leftover suffix into stolen lanes.
                let lanes: Vec<usize> = self.probe_order().collect();
                let mut lanes = lanes.into_iter();
                let first = lanes.next().expect("at least one lane");
                let mut total = 0usize;
                let mut remaining = match self.lane_enqueue_batch(first, items) {
                    Ok(n) => return Ok(n),
                    Err(e) => {
                        total += e.enqueued;
                        e.remaining
                    }
                };
                for lane in lanes {
                    match self.lane_enqueue_batch(lane, remaining.into_iter()) {
                        Ok(n) => {
                            // Sticky affinity: the batch's tail landed
                            // here, so follow it (a migration point in
                            // the relaxed-FIFO contract).
                            self.cursor = lane;
                            return Ok(total + n);
                        }
                        Err(e) => {
                            total += e.enqueued;
                            remaining = e.remaining;
                        }
                    }
                }
                Err(BatchFull {
                    enqueued: total,
                    remaining,
                })
            }
            BatchPolicy::Stripe => {
                // Contiguous chunks round-robined across all lanes
                // starting at the affinity lane. Leftovers of filled
                // lanes come back in their original relative order.
                let lanes = self.lanes.len();
                let len = items.len();
                if len == 0 {
                    return Ok(0);
                }
                let chunk = len.div_ceil(lanes);
                let mut iter = items;
                let mut total = 0usize;
                let mut leftovers: Vec<T> = Vec::new();
                let start = self.cursor;
                for k in 0..lanes {
                    let chunk_items: Vec<T> = iter.by_ref().take(chunk).collect();
                    if chunk_items.is_empty() {
                        break;
                    }
                    let lane = (start + k) % lanes;
                    match self.lane_enqueue_batch(lane, chunk_items.into_iter()) {
                        Ok(n) => total += n,
                        Err(e) => {
                            total += e.enqueued;
                            leftovers.extend(e.remaining);
                        }
                    }
                }
                // Rotate so successive striped batches start one lane on.
                self.cursor = (start + 1) % lanes;
                if leftovers.is_empty() {
                    Ok(total)
                } else {
                    Err(BatchFull {
                        enqueued: total,
                        remaining: leftovers,
                    })
                }
            }
        }
    }

    fn dequeue_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let lanes: Vec<usize> = self.probe_order().collect();
        let mut taken = 0usize;
        for lane in lanes {
            if taken >= max {
                break;
            }
            let got = self.lane_dequeue_batch(lane, out, max - taken);
            if got > 0 && taken == 0 {
                self.cursor = lane;
            }
            taken += got;
        }
        taken
    }
}

impl<T: Send, Q: ConcurrentQueue<T>> ConcurrentQueue<T> for ShardedQueue<T, Q> {
    type Handle<'q>
        = ShardedHandle<'q, T, Q>
    where
        Self: 'q;

    fn handle(&self) -> Self::Handle<'_> {
        // A new participant is the natural quiesce point for the
        // planner: its roles are still unresolved, so a flipped lane is
        // exactly what it will claim into. No-op except under
        // `LanePolicy::Adaptive`.
        self.replan();
        // Round-robin lane assignment spreads threads across lanes; the
        // Relaxed ticket is only a load-balancing hint, never a
        // correctness input.
        let cursor = self.next_handle.fetch_add(1, Ordering::Relaxed) % self.lanes.len();
        self.make_handle(cursor, self.config.steal_attempts)
    }

    fn capacity(&self) -> Option<usize> {
        // Conservative reachable bound: only the MPMC capacities. A
        // fast-path lane's ring is sized to the *same* bound and serves
        // as the lane's storage instead of (not on top of) the MPMC
        // queue for an unpromoted producer, so any single producer can
        // place at least a lane's reported share before seeing `Full`.
        // Summing ring + MPMC would over-report: an unpromoted ring
        // producer can only reach the ring's half, surfacing `Full`
        // while `len()` is far below the advertised capacity. The price
        // of the conservative bound is the other direction — `len()` on
        // a promoted lane holding both ring residue and MPMC items may
        // transiently exceed `capacity()`.
        self.lanes
            .iter()
            .try_fold(0usize, |acc, lane| lane.mpmc.capacity().map(|c| acc + c))
    }

    fn len(&self) -> Option<usize> {
        // Single pass over the lanes, summing each lane's MPMC and ring
        // occupancy from one snapshot per component. The result is
        // advisory under concurrent mutation — with mixed lane kinds a
        // value migrating from ring to MPMC service is never double
        // counted (it lives in exactly one structure at any instant),
        // but lanes counted early can change while later lanes are read.
        let mut total = 0usize;
        for lane in self.lanes.iter() {
            total += ConcurrentQueue::len(&lane.mpmc)?;
            if let Some(ring) = &lane.spsc_ring {
                total += ring.len();
            }
            if let Some(ring) = &lane.mpsc_ring {
                total += ring.len();
            }
            if let Some(ring) = &lane.spmc_ring {
                total += ring.len();
            }
        }
        Some(total)
    }

    fn algorithm_name(&self) -> &'static str {
        match self.config.lane_policy {
            LanePolicy::Mpmc => "Sharded frontend",
            LanePolicy::SpscFastPath => "Sharded mixed-lane frontend",
            LanePolicy::MpscFastPath => "Sharded fan-in-lane frontend",
            LanePolicy::SpmcFastPath => "Sharded fan-out-lane frontend",
            LanePolicy::Adaptive => "Sharded adaptive-lane frontend",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CasQueue;

    fn sharded_cas(lanes: usize, lane_cap: usize) -> ShardedQueue<u64, CasQueue<u64>> {
        ShardedQueue::with_lanes(lanes, |_| CasQueue::with_capacity(lane_cap))
    }

    fn mixed_cas(lanes: usize, lane_cap: usize) -> ShardedQueue<u64, CasQueue<u64>> {
        ShardedQueue::with_config(
            ShardedConfig::with_lanes(lanes).spsc_fast_path(),
            move |_| CasQueue::with_capacity(lane_cap),
        )
    }

    fn mpsc_cas(lanes: usize, lane_cap: usize) -> ShardedQueue<u64, CasQueue<u64>> {
        ShardedQueue::with_config(
            ShardedConfig::with_lanes(lanes).mpsc_fast_path(),
            move |_| CasQueue::with_capacity(lane_cap),
        )
    }

    fn spmc_cas(lanes: usize, lane_cap: usize) -> ShardedQueue<u64, CasQueue<u64>> {
        ShardedQueue::with_config(
            ShardedConfig::with_lanes(lanes).spmc_fast_path(),
            move |_| CasQueue::with_capacity(lane_cap),
        )
    }

    fn adaptive_cas(lanes: usize, lane_cap: usize) -> ShardedQueue<u64, CasQueue<u64>> {
        ShardedQueue::with_config(ShardedConfig::with_lanes(lanes).adaptive(), move |_| {
            CasQueue::with_capacity(lane_cap)
        })
    }

    #[test]
    fn capacity_and_len_sum_over_lanes() {
        let q = sharded_cas(4, 8);
        assert_eq!(q.lanes(), 4);
        assert_eq!(ConcurrentQueue::capacity(&q), Some(32));
        assert_eq!(ConcurrentQueue::len(&q), Some(0));
        let mut h = q.handle();
        for i in 0..10 {
            h.enqueue(i).unwrap();
        }
        assert_eq!(ConcurrentQueue::len(&q), Some(10));
    }

    #[test]
    fn single_handle_round_trip_is_fifo_per_lane_run() {
        // One pinned handle uses exactly one lane, so it is plain FIFO.
        let q = sharded_cas(4, 16);
        let mut h = q.handle_pinned(2);
        for i in 0..10 {
            h.enqueue(i).unwrap();
        }
        assert_eq!(ConcurrentQueue::len(q.lane(2)), Some(10));
        for i in 0..10 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn pinned_handle_surfaces_full_and_empty_immediately() {
        let q = sharded_cas(2, 2);
        let mut h = q.handle_pinned(0);
        h.enqueue(1).unwrap();
        h.enqueue(2).unwrap();
        // Lane 1 has room, but a pinned handle must not touch it.
        let err = h.enqueue(3).unwrap_err();
        assert_eq!(err.into_inner(), 3);
        let mut other = q.handle_pinned(1);
        assert_eq!(other.dequeue(), None);
    }

    #[test]
    fn enqueue_steals_on_full_and_migrates() {
        let q = sharded_cas(2, 2);
        let mut h = q.handle_pinned(0);
        let mut stealer = q.make_handle(0, 1);
        h.enqueue(10).unwrap();
        h.enqueue(11).unwrap(); // lane 0 now full
        assert_eq!(stealer.affinity(), 0);
        stealer.enqueue(12).unwrap(); // lands on lane 1 via steal
        assert_eq!(stealer.affinity(), 1, "cursor follows the serving lane");
        assert_eq!(ConcurrentQueue::len(q.lane(1)), Some(1));
    }

    #[test]
    fn dequeue_steals_from_nonempty_lanes() {
        let q = sharded_cas(4, 8);
        q.handle_pinned(3).enqueue(99).unwrap();
        let mut h = q.make_handle(0, 3);
        assert_eq!(h.dequeue(), Some(99));
        assert_eq!(h.affinity(), 3);
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn all_lanes_full_reports_full() {
        // CasQueue rounds capacity up to a minimum of 2, so 2 lanes x 2.
        let q = sharded_cas(2, 2);
        let mut h = q.handle();
        for v in 1..=4 {
            h.enqueue(v).unwrap();
        }
        let err = h.enqueue(5).unwrap_err();
        assert_eq!(err.into_inner(), 5);
    }

    #[test]
    fn pinned_batches_spill_only_on_full() {
        let q = sharded_cas(2, 4);
        let mut h = q.make_handle(0, 1);
        assert_eq!(
            h.enqueue_batch((0..3u64).collect::<Vec<_>>().into_iter())
                .unwrap(),
            3
        );
        // Whole batch stayed on lane 0.
        assert_eq!(ConcurrentQueue::len(q.lane(0)), Some(3));
        assert_eq!(ConcurrentQueue::len(q.lane(1)), Some(0));
        // 3 more: 1 fits on lane 0, 2 spill to lane 1, cursor migrates.
        assert_eq!(
            h.enqueue_batch((3..6u64).collect::<Vec<_>>().into_iter())
                .unwrap(),
            3
        );
        assert_eq!(ConcurrentQueue::len(q.lane(0)), Some(4));
        assert_eq!(ConcurrentQueue::len(q.lane(1)), Some(2));
        assert_eq!(h.affinity(), 1);
    }

    #[test]
    fn striped_batches_spread_across_lanes() {
        let q = ShardedQueue::with_config(
            ShardedConfig {
                lanes: 4,
                steal_attempts: 3,
                batch_policy: BatchPolicy::Stripe,
                lane_policy: LanePolicy::Mpmc,
            },
            |_| CasQueue::<u64>::with_capacity(16),
        );
        let mut h = q.handle();
        assert_eq!(
            h.enqueue_batch((0..8u64).collect::<Vec<_>>().into_iter())
                .unwrap(),
            8
        );
        for lane in 0..4 {
            assert_eq!(
                ConcurrentQueue::len(q.lane(lane)),
                Some(2),
                "stripe must balance lanes"
            );
        }
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 8), 8);
        out.sort_unstable();
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn batch_full_returns_leftovers_in_order() {
        let q = sharded_cas(2, 2);
        let mut h = q.handle();
        let err = h
            .enqueue_batch((0..6u64).collect::<Vec<_>>().into_iter())
            .unwrap_err();
        assert_eq!(err.enqueued, 4);
        assert_eq!(err.remaining, vec![4, 5]);
    }

    #[test]
    fn dequeue_batch_collects_across_lanes() {
        let q = sharded_cas(3, 4);
        for lane in 0..3u64 {
            let mut h = q.handle_pinned(lane as usize);
            h.enqueue(lane * 10).unwrap();
            h.enqueue(lane * 10 + 1).unwrap();
        }
        let mut h = q.make_handle(0, 2);
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 6), 6);
        // Per-lane runs stay contiguous and in FIFO order.
        assert_eq!(out, vec![0, 1, 10, 11, 20, 21]);
    }

    #[test]
    fn handles_round_robin_across_lanes() {
        let q = sharded_cas(3, 4);
        let a = q.handle();
        let b = q.handle();
        let c = q.handle();
        let d = q.handle();
        let mut seen: Vec<usize> = [&a, &b, &c, &d].iter().map(|h| h.affinity()).collect();
        assert_eq!(seen.remove(3), 0, "fourth handle wraps to lane 0");
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2], "first three handles cover all lanes");
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = ShardedQueue::with_config(
            ShardedConfig {
                lanes: 0,
                steal_attempts: 0,
                batch_policy: BatchPolicy::Pin,
                lane_policy: LanePolicy::Mpmc,
            },
            |_| CasQueue::<u64>::with_capacity(4),
        );
    }

    #[test]
    fn unbounded_lane_makes_capacity_none() {
        use nbq_util::Full;
        struct Unbounded;
        struct UnboundedHandle;
        impl QueueHandle<u64> for UnboundedHandle {
            fn enqueue(&mut self, _v: u64) -> Result<(), Full<u64>> {
                Ok(())
            }
            fn dequeue(&mut self) -> Option<u64> {
                None
            }
        }
        impl ConcurrentQueue<u64> for Unbounded {
            type Handle<'q> = UnboundedHandle;
            fn handle(&self) -> UnboundedHandle {
                UnboundedHandle
            }
            fn capacity(&self) -> Option<usize> {
                None
            }
            fn algorithm_name(&self) -> &'static str {
                "unbounded stub"
            }
        }
        let q = ShardedQueue::with_lanes(2, |_| Unbounded);
        assert_eq!(ConcurrentQueue::capacity(&q), None);
        assert_eq!(ConcurrentQueue::len(&q), None);
    }

    #[test]
    fn default_policy_builds_no_rings() {
        let q = sharded_cas(2, 4);
        assert!(!q.lane_has_fast_path(0));
        assert_eq!(q.lane_promoted(0), None);
        assert_eq!(q.algorithm_name(), "Sharded frontend");
    }

    #[test]
    fn fast_path_lane_round_trip_stays_unpromoted() {
        let q = mixed_cas(2, 8);
        assert!(q.lane_has_fast_path(0));
        assert_eq!(q.algorithm_name(), "Sharded mixed-lane frontend");
        let mut h = q.handle_pinned(0);
        for i in 0..20 {
            h.enqueue(i).unwrap();
            assert_eq!(h.dequeue(), Some(i));
        }
        // One registrant per side: the ring served everything; the MPMC
        // lane never saw a value and the lane never promoted.
        assert_eq!(q.lane_promoted(0), Some(false));
        assert_eq!(ConcurrentQueue::len(q.lane(0)), Some(0));
    }

    #[test]
    fn mixed_capacity_is_reachable_and_len_includes_rings() {
        let q = mixed_cas(2, 8);
        // Conservative reachable bound: each lane reports only its MPMC
        // share (the ring is sized to the same figure, as the lane's
        // alternative storage, not extra storage).
        assert_eq!(ConcurrentQueue::capacity(&q), Some(16));
        let mut h = q.handle_pinned(0);
        for i in 0..5 {
            h.enqueue(i).unwrap();
        }
        // All five sit in lane 0's ring, invisible to the MPMC lane but
        // counted by the frontend.
        assert_eq!(ConcurrentQueue::len(q.lane(0)), Some(0));
        assert_eq!(ConcurrentQueue::len(&q), Some(5));
    }

    #[test]
    fn fast_path_lane_fills_to_its_advertised_capacity() {
        // The bounded contract a fast-path lane must honor: a pinned
        // producer reaches the lane's full reported share before `Full`.
        let q = mixed_cas(1, 8);
        assert_eq!(ConcurrentQueue::capacity(&q), Some(8));
        let mut h = q.handle_pinned(0);
        for i in 0..8 {
            h.enqueue(i).unwrap();
        }
        assert!(h.enqueue(8).is_err(), "Full only at the advertised bound");
        assert_eq!(ConcurrentQueue::len(&q), Some(8));
    }

    #[test]
    fn probing_consumers_do_not_promote_fast_path_lanes() {
        let q = mixed_cas(2, 8);
        // A pinned 1p/1c pair owns lane 0's ring endpoints.
        let mut p = q.handle_pinned(0);
        let mut c = q.handle_pinned(0);
        p.enqueue(1).unwrap();
        assert_eq!(c.dequeue(), Some(1));
        // A stealing handle homed on lane 1 probes lane 0 while empty:
        // the read-only probe must not claim or promote anything.
        let mut stealer = q.make_handle(1, 1);
        assert_eq!(stealer.dequeue(), None);
        assert_eq!(q.lane_promoted(0), Some(false), "probe must not promote");
        p.enqueue(2).unwrap();
        assert_eq!(c.dequeue(), Some(2), "pinned pair keeps its fast path");
        assert_eq!(q.lane_promoted(0), Some(false));
    }

    #[test]
    fn probing_consumer_drains_abandoned_nonempty_ring() {
        let q = mixed_cas(2, 8);
        {
            let mut p = q.handle_pinned(0);
            p.enqueue(7).unwrap();
        } // p drops: ring residue, both endpoints free
        let mut stealer = q.make_handle(1, 1);
        assert_eq!(stealer.dequeue(), Some(7), "probes do take real ring work");
        assert_eq!(q.lane_promoted(0), Some(false));
    }

    #[test]
    fn no_new_ring_producer_after_promotion() {
        let q = mixed_cas(1, 8);
        let mut a = q.handle_pinned(0);
        let mut b = q.handle_pinned(0);
        a.enqueue(1).unwrap(); // a holds the ring producer endpoint
        b.enqueue(2).unwrap(); // promotes
        drop(a); // residue 1 in the ring, producer side released
        let mut c = q.handle_pinned(0);
        c.enqueue(3).unwrap();
        // c must have landed on the MPMC queue: a post-promotion ring
        // producer could strand values behind RingDead-cached consumers.
        assert_eq!(ConcurrentQueue::len(q.lane(0)), Some(2), "2 and 3 on MPMC");
        let got: Vec<u64> = std::iter::from_fn(|| b.dequeue()).collect();
        assert_eq!(got.len(), 3, "ring residue and both MPMC values drain");
        assert!(got.contains(&1) && got.contains(&2) && got.contains(&3));
    }

    #[test]
    fn racing_producer_release_never_strands_ring_values() {
        // Regression for the stale-emptiness RingDead hazard: a consumer
        // that observes an empty unpromoted ring, while a producer
        // pushes, a second producer promotes, and the first drops
        // (releasing its claim with residue in the ring), must still
        // drain every value — the deadness check re-verifies emptiness
        // *after* observing the released producer claim.
        for _ in 0..300 {
            let q = mixed_cas(1, 8);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut p = q.handle_pinned(0);
                    p.enqueue(1).unwrap();
                    drop(p); // release mid-stream, possibly with residue
                    let mut p2 = q.handle_pinned(0);
                    p2.enqueue(2).unwrap();
                });
                s.spawn(|| {
                    let mut p = q.handle_pinned(0);
                    p.enqueue(3).unwrap();
                });
                s.spawn(|| {
                    let mut c = q.handle_pinned(0);
                    let mut got = 0u32;
                    let mut spins = 0u64;
                    while got < 3 {
                        if c.dequeue().is_some() {
                            got += 1;
                        } else {
                            spins += 1;
                            assert!(spins < 500_000_000, "values stranded: got {got}/3");
                            std::hint::spin_loop();
                        }
                    }
                    assert_eq!(c.dequeue(), None);
                });
            });
        }
    }

    #[test]
    fn second_producer_promotes_instead_of_corrupting() {
        let q = mixed_cas(1, 8);
        let mut a = q.handle_pinned(0);
        let mut b = q.handle_pinned(0);
        a.enqueue(1).unwrap(); // a claims the ring producer endpoint
        assert_eq!(q.lane_promoted(0), Some(false));
        b.enqueue(2).unwrap(); // second producer: promote, land on MPMC
        assert_eq!(q.lane_promoted(0), Some(true));
        a.enqueue(3).unwrap(); // a still rides the non-empty ring
                               // Everything is conserved and per-producer order holds: a's ring
                               // values drain before b's MPMC value is even visible to a
                               // ring-claiming consumer.
        let mut c = q.handle_pinned(0);
        let got: Vec<u64> = std::iter::from_fn(|| c.dequeue()).collect();
        assert_eq!(got, vec![1, 3, 2]);
    }

    #[test]
    fn promoted_producer_switches_to_mpmc_only_when_ring_empty() {
        let q = mixed_cas(1, 8);
        let mut a = q.handle_pinned(0);
        let mut b = q.handle_pinned(0);
        a.enqueue(10).unwrap();
        b.enqueue(20).unwrap(); // promotes
                                // Ring still holds 10, so a keeps its wait-free path…
        a.enqueue(11).unwrap();
        assert_eq!(ConcurrentQueue::len(q.lane(0)), Some(1), "only 20 on MPMC");
        // …drain the ring, and a's next enqueue hands the lane over.
        let mut c = q.handle_pinned(0);
        assert_eq!(c.dequeue(), Some(10));
        assert_eq!(c.dequeue(), Some(11));
        a.enqueue(12).unwrap();
        assert_eq!(
            ConcurrentQueue::len(q.lane(0)),
            Some(2),
            "20 and 12 on MPMC"
        );
        assert_eq!(c.dequeue(), Some(20));
        assert_eq!(c.dequeue(), Some(12));
        assert_eq!(c.dequeue(), None);
    }

    #[test]
    fn mpmc_role_consumer_reclaims_ring_residue() {
        let q = mixed_cas(1, 8);
        let mut a = q.handle_pinned(0);
        let mut b = q.handle_pinned(0);
        a.enqueue(1).unwrap();
        a.enqueue(2).unwrap();
        b.enqueue(100).unwrap(); // promotes; b's consumer side is Mpmc
                                 // b never claimed the ring consumer endpoint, but must still see
                                 // the ring residue (and first, preserving a's FIFO).
        assert_eq!(b.dequeue(), Some(1));
        assert_eq!(b.dequeue(), Some(2));
        assert_eq!(b.dequeue(), Some(100));
        assert_eq!(b.dequeue(), None);
    }

    #[test]
    fn dropping_handles_releases_ring_endpoints() {
        let q = mixed_cas(1, 8);
        {
            let mut a = q.handle_pinned(0);
            a.enqueue(7).unwrap();
            assert_eq!(a.dequeue(), Some(7));
        }
        // Fresh handle re-claims both endpoints — the fast path survives
        // sequential handle turnover without promotion.
        let mut b = q.handle_pinned(0);
        b.enqueue(8).unwrap();
        assert_eq!(b.dequeue(), Some(8));
        assert_eq!(q.lane_promoted(0), Some(false));
    }

    #[test]
    fn ring_only_handles_never_build_inner_handles() {
        let q = mpsc_cas(1, 8);
        let mut p = q.handle_pinned(0);
        let mut c = q.handle_pinned(0);
        for round in 0..3u64 {
            for v in 0..8 {
                p.enqueue(round * 8 + v).unwrap();
            }
            for v in 0..8 {
                assert_eq!(c.dequeue(), Some(round * 8 + v));
            }
        }
        assert_eq!(q.lane(0).vars_allocated(), 0, "both stayed on the ring");
        // An empty ring falls through to the MPMC queue: that dequeue is
        // the first to need the consumer's inner handle.
        assert_eq!(c.dequeue(), None);
        assert_eq!(q.lane(0).vars_allocated(), 1);
    }

    #[test]
    fn inner_handles_built_after_promotion_conserve_values() {
        const N: u64 = 200;
        let q = mpsc_cas(1, 8);
        let mut p = q.handle_pinned(0);
        let mut c1 = q.handle_pinned(0);
        let mut got = Vec::new();
        for v in 0..4 {
            p.enqueue(v).unwrap();
        }
        got.extend(c1.dequeue()); // c1 claims the ring's consumer side
        assert_eq!(q.lane(0).vars_allocated(), 0, "ring only so far");
        // A second consumer promotes the lane. From here on each handle
        // builds its inner handle when it first falls through to MPMC:
        // p once its ring residue drains, c1 once the ring is dead.
        let mut c2 = q.handle_pinned(0);
        for v in 4..N {
            p.enqueue(v).unwrap();
            // c1 drains faster than p fills, so p's residue runs out.
            got.extend(c2.dequeue());
            got.extend(c1.dequeue());
            got.extend(c1.dequeue());
        }
        while let Some(v) = c1.dequeue().or_else(|| c2.dequeue()) {
            got.push(v);
        }
        assert_eq!(q.lane_promoted(0), Some(true));
        assert_eq!(q.lane(0).vars_allocated(), 3, "all three built one");
        got.sort_unstable();
        assert_eq!(got, (0..N).collect::<Vec<_>>(), "no loss, no duplicate");
    }

    #[test]
    fn dropping_a_ring_only_handle_releases_its_claims() {
        let q = mixed_cas(1, 8);
        {
            let mut a = q.handle_pinned(0);
            a.enqueue(7).unwrap();
            assert_eq!(a.dequeue(), Some(7));
            assert_eq!(q.lane(0).vars_allocated(), 0, "no inner handle");
        }
        // Both endpoints came back: a fresh handle claims them without
        // promoting the lane.
        let mut b = q.handle_pinned(0);
        b.enqueue(8).unwrap();
        assert_eq!(b.dequeue(), Some(8));
        assert_eq!(q.lane_promoted(0), Some(false));
        assert_eq!(q.lane(0).vars_allocated(), 0);
    }

    #[test]
    fn fresh_handle_drains_residue_left_by_dropped_producer() {
        let q = mixed_cas(1, 8);
        {
            let mut a = q.handle_pinned(0);
            a.enqueue(41).unwrap();
            a.enqueue(42).unwrap();
        } // a drops with the ring non-empty; its claims release
        let mut b = q.handle_pinned(0);
        assert_eq!(b.dequeue(), Some(41));
        assert_eq!(b.dequeue(), Some(42));
        assert_eq!(b.dequeue(), None);
        assert_eq!(q.lane_promoted(0), Some(false));
    }

    #[test]
    fn mixed_batches_ride_the_ring() {
        let q = mixed_cas(1, 8);
        let mut h = q.handle_pinned(0);
        assert_eq!(
            h.enqueue_batch((0..6u64).collect::<Vec<_>>().into_iter())
                .unwrap(),
            6
        );
        assert_eq!(ConcurrentQueue::len(q.lane(0)), Some(0), "all on the ring");
        let mut out = Vec::new();
        assert_eq!(h.dequeue_batch(&mut out, 8), 6);
        assert_eq!(out, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn mixed_two_thread_pipe_is_fifo() {
        const N: u64 = 50_000;
        let q = mixed_cas(1, 64);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut h = q.handle_pinned(0);
                for i in 0..N {
                    let mut v = i;
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
            });
            s.spawn(|| {
                let mut h = q.handle_pinned(0);
                let mut expected = 0u64;
                while expected < N {
                    if let Some(v) = h.dequeue() {
                        assert_eq!(v, expected, "1p/1c pinned lane is strict FIFO");
                        expected += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            });
        });
        assert_eq!(q.lane_promoted(0), Some(false), "pair stayed on the ring");
    }

    #[test]
    fn mpsc_lane_fan_in_stays_unpromoted() {
        let q = mpsc_cas(1, 8);
        assert!(q.lane_has_fast_path(0));
        assert_eq!(q.algorithm_name(), "Sharded fan-in-lane frontend");
        let mut p1 = q.handle_pinned(0);
        let mut p2 = q.handle_pinned(0);
        let mut c = q.handle_pinned(0);
        p1.enqueue(1).unwrap();
        p2.enqueue(2).unwrap();
        // Two producers on the fan-in ring's multi side never promote;
        // the single consumer drains in ticket order.
        assert_eq!(c.dequeue(), Some(1));
        assert_eq!(c.dequeue(), Some(2));
        assert_eq!(c.dequeue(), None);
        assert_eq!(q.lane_promoted(0), Some(false));
        assert_eq!(ConcurrentQueue::len(q.lane(0)), Some(0), "MPMC untouched");
    }

    #[test]
    fn mpsc_producer_switches_after_own_residue_drains() {
        let q = mpsc_cas(1, 8);
        let mut p = q.handle_pinned(0);
        let mut c1 = q.handle_pinned(0);
        let mut c2 = q.handle_pinned(0);
        p.enqueue(1).unwrap(); // tickets 0…
        p.enqueue(2).unwrap(); // …and 1
        assert_eq!(c1.dequeue(), Some(1)); // c1 claims the consumer side
        assert_eq!(c2.dequeue(), None); // second consumer: promotes
        assert_eq!(q.lane_promoted(0), Some(true));
        // p's own residue (ticket 1) has not drained: it keeps the ring.
        p.enqueue(3).unwrap();
        assert_eq!(ConcurrentQueue::len(q.lane(0)), Some(0), "3 on the ring");
        assert_eq!(c1.dequeue(), Some(2));
        assert_eq!(c1.dequeue(), Some(3));
        // Now head has passed p's last ticket: the next enqueue releases
        // the registration and lands on the MPMC queue.
        p.enqueue(4).unwrap();
        assert_eq!(ConcurrentQueue::len(q.lane(0)), Some(1), "4 on MPMC");
        assert_eq!(c1.dequeue(), Some(4), "ring-dead transition finds MPMC");
        assert_eq!(c1.dequeue(), None);
        assert_eq!(c2.dequeue(), None);
    }

    #[test]
    fn spmc_lane_fan_out_stays_unpromoted() {
        let q = spmc_cas(1, 8);
        assert!(q.lane_has_fast_path(0));
        assert_eq!(q.algorithm_name(), "Sharded fan-out-lane frontend");
        let mut p = q.handle_pinned(0);
        let mut c1 = q.handle_pinned(0);
        let mut c2 = q.handle_pinned(0);
        p.enqueue(1).unwrap();
        p.enqueue(2).unwrap();
        // Two consumers arbitrate the drain side without promoting.
        assert_eq!(c1.dequeue(), Some(1));
        assert_eq!(c2.dequeue(), Some(2));
        assert_eq!(c1.dequeue(), None);
        assert_eq!(q.lane_promoted(0), Some(false));
        assert_eq!(ConcurrentQueue::len(q.lane(0)), Some(0), "MPMC untouched");
    }

    #[test]
    fn spmc_second_producer_promotes_not_corrupts() {
        let q = spmc_cas(1, 8);
        let mut p1 = q.handle_pinned(0);
        let mut p2 = q.handle_pinned(0);
        let mut c = q.handle_pinned(0);
        p1.enqueue(1).unwrap(); // p1 claims the ring producer endpoint
        assert_eq!(q.lane_promoted(0), Some(false));
        p2.enqueue(100).unwrap(); // second producer: promote, go MPMC
        assert_eq!(q.lane_promoted(0), Some(true));
        p1.enqueue(2).unwrap(); // ring non-empty: p1 keeps its fast path
        assert_eq!(ConcurrentQueue::len(q.lane(0)), Some(1), "only 100 on MPMC");
        assert_eq!(c.dequeue(), Some(1));
        assert_eq!(c.dequeue(), Some(2));
        // Ring drained: p1's next enqueue hands the lane over exactly
        // like the SPSC case (it owns `tail`, emptiness is exact).
        p1.enqueue(3).unwrap();
        assert_eq!(
            ConcurrentQueue::len(q.lane(0)),
            Some(2),
            "100 and 3 on MPMC"
        );
        assert_eq!(c.dequeue(), Some(100));
        assert_eq!(c.dequeue(), Some(3));
        assert_eq!(c.dequeue(), None);
    }

    #[test]
    fn probing_consumer_takes_spmc_work_without_claiming() {
        let q = spmc_cas(2, 8);
        let mut p = q.handle_pinned(0);
        p.enqueue(5).unwrap();
        // A stealing handle homed on lane 1 probes lane 0: the fan-out
        // drain side is FAA-arbitrated, so the probe pops directly —
        // no claim, no registration, no promotion.
        let mut stealer = q.make_handle(1, 1);
        assert_eq!(stealer.dequeue(), Some(5));
        assert_eq!(q.lane_promoted(0), Some(false));
        // The pinned producer's fast path is intact.
        p.enqueue(6).unwrap();
        let mut c = q.handle_pinned(0);
        assert_eq!(c.dequeue(), Some(6));
        assert_eq!(q.lane_promoted(0), Some(false));
    }

    #[test]
    fn adaptive_planner_selects_each_kind_and_conserves() {
        let q = adaptive_cas(1, 8);
        assert_eq!(q.algorithm_name(), "Sharded adaptive-lane frontend");
        assert_eq!(q.lane_kind(0), QueueKind::spsc_wait_free(), "optimistic");

        // Phase 1 — fan-in shape (2p/1c) on the default SPSC plan: the
        // second producer promotes the SPSC ring; everything conserves.
        {
            let mut p1 = q.handle_pinned(0);
            let mut p2 = q.handle_pinned(0);
            let mut c = q.handle_pinned(0);
            p1.enqueue(1).unwrap();
            p2.enqueue(2).unwrap(); // promotes the SPSC ring
            assert_eq!(c.dequeue(), Some(1));
            assert_eq!(c.dequeue(), Some(2));
            assert_eq!(c.dequeue(), None);
        }
        // The planner maps 2p/1c to the fan-in ring; the burnt SPSC
        // ring is empty and claim-free, so the flip is legal.
        q.replan();
        assert_eq!(q.lane_kind(0), QueueKind::mpsc_wait_free());

        // Phase 2 — fan-out shape (1p/2c) on the MPSC plan: the second
        // consumer promotes the MPSC ring.
        {
            let mut p = q.handle_pinned(0);
            let mut c1 = q.handle_pinned(0);
            let mut c2 = q.handle_pinned(0);
            p.enqueue(10).unwrap();
            assert_eq!(c1.dequeue(), Some(10));
            assert_eq!(c2.dequeue(), None); // promotes the MPSC ring
        }
        q.replan();
        assert_eq!(q.lane_kind(0), QueueKind::spmc_wait_free());

        // Phase 3 — symmetric shape (2p/2c) on the SPMC plan: the
        // second producer promotes the SPMC ring and the planner falls
        // back to pure MPMC service.
        {
            let mut p1 = q.handle_pinned(0);
            let mut p2 = q.handle_pinned(0);
            let mut c1 = q.handle_pinned(0);
            let mut c2 = q.handle_pinned(0);
            p1.enqueue(100).unwrap();
            p2.enqueue(200).unwrap(); // promotes the SPMC ring
            assert_eq!(c1.dequeue(), Some(100));
            assert_eq!(c2.dequeue(), Some(200));
        }
        q.replan();
        assert_eq!(q.active_of(0), ACTIVE_NONE);
        assert_eq!(q.lane_kind(0), QueueKind::mpmc());
    }

    #[test]
    fn adaptive_replan_refuses_while_claims_or_values_live() {
        let q = adaptive_cas(1, 8);
        let mut p1 = q.handle_pinned(0);
        let mut p2 = q.handle_pinned(0);
        p1.enqueue(1).unwrap(); // p1 holds the SPSC producer claim
        p2.enqueue(2).unwrap(); // promotes; lands on MPMC
        q.replan();
        // 2p/0c wants ACTIVE_NONE, but p1's live claim pins the plan.
        assert_eq!(q.active_of(0), ACTIVE_SPSC, "flip refused: claim live");
        let mut c = q.handle_pinned(0);
        assert_eq!(c.dequeue(), Some(1));
        assert_eq!(c.dequeue(), Some(2));
        drop(p1);
        drop(p2);
        drop(c);
        // Lane quiesced (rings empty, claims released): the retained
        // counters (2p/1c) now map to the fan-in ring and the flip runs.
        q.replan();
        assert_eq!(q.active_of(0), ACTIVE_MPSC);
    }

    #[test]
    fn adaptive_scavenges_residue_after_forced_replan_race() {
        // Simulate the claim-vs-replan race: values land in the fan-in
        // ring, then the plan flips before any consumer resolves. The
        // consumer claims the (empty) SPSC ring but must still drain the
        // stranded fan-in values via scavenging.
        let q = adaptive_cas(1, 8);
        q.force_active(0, ACTIVE_MPSC);
        let mut p = q.handle_pinned(0);
        p.enqueue(1).unwrap();
        p.enqueue(2).unwrap();
        q.force_active(0, ACTIVE_SPSC);
        let mut c = q.handle_pinned(0);
        assert_eq!(c.dequeue(), Some(1), "scavenged from the inactive ring");
        assert_eq!(c.dequeue(), Some(2));
        assert_eq!(c.dequeue(), None);
        // The producer's resolved role still targets the fan-in ring;
        // later values keep flowing and keep being scavenged.
        p.enqueue(3).unwrap();
        assert_eq!(c.dequeue(), Some(3));
        assert_eq!(c.dequeue(), None);
    }

    #[test]
    fn replan_flip_cannot_strand_mpmc_values() {
        // The promotion → quiesce → flip sequence: SPSC promotion
        // demotes the second producer onto the MPMC lane (its value
        // lands there), the rings quiesce, and the planner flips
        // `active` onto the fresh fan-in ring. A consumer that then
        // claims the fresh (unpromoted, empty) ring must still fall
        // through to the MPMC residue — early-returning on ring
        // emptiness would strand the value forever while `len() == 1`.
        let q = adaptive_cas(1, 8);
        {
            let mut p1 = q.handle_pinned(0);
            let mut p2 = q.handle_pinned(0);
            p1.enqueue(1).unwrap(); // SPSC ring
            p2.enqueue(2).unwrap(); // promotes; lands on MPMC
            let mut c = q.handle_pinned(0);
            // Drain the ring so it is fresh at flip time, but leave
            // p2's value sitting in the MPMC queue.
            assert_eq!(c.dequeue(), Some(1));
        }
        // 2p/1c maps to the fan-in ring; the outgoing SPSC ring is
        // empty and claim-free, so the flip is legal even though the
        // MPMC queue behind it still holds a value.
        q.replan();
        assert_eq!(q.active_of(0), ACTIVE_MPSC);
        assert_eq!(q.len(), Some(1));
        let mut c = q.handle_pinned(0);
        assert_eq!(c.dequeue(), Some(2), "MPMC residue must not strand");
        assert_eq!(c.dequeue(), None);
        assert_eq!(q.is_empty(), Some(true));
    }

    #[test]
    fn replan_flip_cannot_strand_mpmc_values_batch() {
        // Batch analog of `replan_flip_cannot_strand_mpmc_values`,
        // covering the `lane_dequeue_batch` unpromoted-ring paths.
        let q = adaptive_cas(1, 8);
        {
            let mut p1 = q.handle_pinned(0);
            let mut p2 = q.handle_pinned(0);
            p1.enqueue(1).unwrap();
            p2.enqueue(2).unwrap();
            let mut c = q.handle_pinned(0);
            assert_eq!(c.dequeue(), Some(1));
        }
        q.replan();
        assert_eq!(q.active_of(0), ACTIVE_MPSC);
        let mut c = q.handle_pinned(0);
        let mut out = Vec::new();
        assert_eq!(c.dequeue_batch(&mut out, 4), 1);
        assert_eq!(out, vec![2]);
        assert_eq!(q.is_empty(), Some(true));
    }

    #[test]
    fn lane_observation_counts_registrations() {
        let q = adaptive_cas(2, 8);
        assert!(q.lane_observation(0).is_idle());
        let mut p = q.handle_pinned(0);
        p.enqueue(1).unwrap();
        let mut c = q.handle_pinned(0);
        assert_eq!(c.dequeue(), Some(1));
        let obs = q.lane_observation(0);
        assert_eq!(obs.producers, 1);
        assert_eq!(obs.consumers, 1);
        assert_eq!(obs.steals, 0);
        assert!(q.lane_observation(1).is_idle(), "lane 1 untouched");
    }
}
