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
//! # Fast-path lanes: one ring per lane
//!
//! Under a fast-path [`LanePolicy`] each lane fronts its factory-built
//! MPMC queue with exactly **one** wait-free ring, planned from the
//! [`nbq_util::QueueKind`] capability envelopes: an [`SpscRing`]
//! (one registrant per side), an [`MpscRing`] (fan-in: any number of
//! FAA-ticketing producers, one consumer) or an [`SpmcRing`] (fan-out:
//! one producer, FAA-arbitrated consumers), each an `ArityRing`. A ring
//! end is either *single* (claimed by one handle through the ring's
//! [`crate::ArityRegistry`]) or *shared* (any number of them).
//! A handle holds what it claimed or registered as an owned endpoint
//! value that releases itself on drop, so handle turnover (thread
//! pools) keeps the fast path alive. The protocol has four rules:
//!
//! * **Claim-or-promote.** A handle's first operation on a lane takes
//!   the ring endpoint of its side. A *second* registrant on a single
//!   side *promotes* the lane (a sticky registry flag) and takes the
//!   MPMC queue instead: misuse degrades to the paper's lock-free
//!   algorithm, never to corruption. Claims are promotion-blocked, so
//!   every MPMC enqueue on a ring lane follows its promotion: an
//!   *unpromoted* lane's MPMC queue is empty, and a consumer that finds
//!   the ring empty returns `None` without touching it.
//! * **The producer's switch point.** After promotion a ring producer
//!   keeps its wait-free path until everything *it* pushed has drained:
//!   for a single producer, the exact-empty instant (it owns `tail`); for
//!   a fan-in producer, its own last ticket passed by the monotone
//!   `head` (`Endpoint::drained`). Its ring values thus all
//!   precede its first MPMC value, so per-producer FIFO survives
//!   promotion with no drain/transfer machinery. The same rule keeps a
//!   dequeue steal from moving the handle's cursor (and so its later
//!   enqueues) off a lane whose ring still holds its values.
//! * **The ring-dead transition.** Consumers on a promoted lane drain the
//!   ring first, then the MPMC queue, re-taking the single consumer
//!   endpoint while the ring holds residue. A consumer caches the ring
//!   as dead once it has observed every writer gone — the lane promoted
//!   and the producer side released — *and then* found the ring empty.
//!   The order matters: the acquire read of the released claim orders
//!   every value the departing producer pushed, so emptiness confirmed
//!   after it holds forever; the opposite order can strand a value
//!   pushed between the two reads.
//! * **Stealing probes are read-only.** A handle that merely probes a
//!   lane (not its affinity lane, consumer role unresolved) never
//!   claims-or-promotes just for looking: it takes a ring consumer
//!   endpoint only while the ring holds work, and keeps it only if that
//!   yields a value — else ≥ 2 stealing consumers would promote every
//!   lane. Producer resolution stays eager: an enqueue probe only
//!   happens on `Full` and always lands a value.
//!
//! Emptiness on an MPSC lane inherits the ring's bounded-stall
//! relaxation (a ticketed-but-unpublished slot hides later published
//! ones); SPSC and SPMC lane emptiness is exact. See DESIGN.md §10 and
//! §13 for the full state machine.
//!
//! # Handles
//!
//! A [`ShardedHandle`] keeps, per lane it touched, the lane's inner
//! MPMC handle (built the first time an operation reaches the MPMC
//! queue) and its producer and consumer roles there. The *home* lane's
//! state (the affinity lane at construction) is stored inline; the table
//! for every other lane is allocated the first time the handle touches
//! one of them (a steal probe, a striped batch, a migrated cursor). A
//! pinned handle, or any handle on a one-lane queue, therefore never
//! allocates, so a caller that builds a handle per operation (the async
//! frontend's `send`/`recv`, the broker's per-message paths) pays what a
//! held handle pays plus the endpoint claim and release.
//!
//! `capacity()` under any fast-path policy reports the conservative
//! reachable bound — each lane's MPMC capacity, to which the lane's ring
//! is sized — so `enqueue` on a lane never reports `Full` below the
//! lane's advertised share; `len()` may transiently exceed `capacity()`
//! on a promoted lane carrying ring residue.
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
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::arity_ring::{
    MpscConsumer, MpscProducer, MpscRing, SpmcConsumer, SpmcProducer, SpmcRing, SpscConsumer,
    SpscProducer, SpscRing,
};
use nbq_util::{
    BatchFull, CachePadded, ConcurrentQueue, Full, LaneFactory, QueueHandle, QueueKind,
};

/// Ring capacity used for fast-path lanes whose MPMC queue is unbounded.
const DEFAULT_RING_CAPACITY: usize = 1024;

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
/// [module docs](self#fast-path-lanes-one-ring-per-lane).
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
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self::with_lanes(4)
    }
}

/// Applies `$body` to whichever ring kind `$value` (a [`LaneRing`],
/// [`RingProducer`] or [`RingConsumer`]) holds: the three kinds are one
/// generic ring, so one expression covers all three. The `=> $out` form
/// wraps the body's `Option` result in the same kind of `$out`.
macro_rules! each_kind {
    ($value:expr, $enum:ident, $x:ident => $body:expr) => {
        match $value {
            $enum::Spsc($x) => $body,
            $enum::Mpsc($x) => $body,
            $enum::Spmc($x) => $body,
        }
    };
    ($value:expr, $enum:ident => $out:ident, $x:ident => $body:expr) => {
        match $value {
            $enum::Spsc($x) => $body.map($out::Spsc),
            $enum::Mpsc($x) => $body.map($out::Mpsc),
            $enum::Spmc($x) => $body.map($out::Spmc),
        }
    };
}

/// A lane's fast-path ring: the one kind its [`LanePolicy`] selected.
enum LaneRing<T: Send> {
    Spsc(SpscRing<T>),
    Mpsc(MpscRing<T>),
    Spmc(SpmcRing<T>),
}

/// A ring producer endpoint held on one lane: the claim on a single
/// producer end, or a registration on the fan-in ring's shared end.
/// Dropping it releases the claim or registration.
enum RingProducer<'q, T: Send> {
    Spsc(SpscProducer<'q, T>),
    Mpsc(MpscProducer<'q, T>),
    Spmc(SpmcProducer<'q, T>),
}

/// A ring consumer endpoint held on one lane: the claim on a single
/// consumer end, or a registration on the fan-out ring's shared end.
enum RingConsumer<'q, T: Send> {
    Spsc(SpscConsumer<'q, T>),
    Mpsc(MpscConsumer<'q, T>),
    Spmc(SpmcConsumer<'q, T>),
}

impl<T: Send> LaneRing<T> {
    fn new(policy: LanePolicy, cap: usize) -> Option<Self> {
        match policy {
            LanePolicy::Mpmc => None,
            LanePolicy::SpscFastPath => Some(Self::Spsc(SpscRing::with_capacity(cap))),
            LanePolicy::MpscFastPath => Some(Self::Mpsc(MpscRing::with_capacity(cap))),
            LanePolicy::SpmcFastPath => Some(Self::Spmc(SpmcRing::with_capacity(cap))),
        }
    }

    fn promote(&self) {
        each_kind!(self, LaneRing, r => r.promote())
    }

    fn promoted(&self) -> bool {
        each_kind!(self, LaneRing, r => r.promoted())
    }

    fn len(&self) -> usize {
        each_kind!(self, LaneRing, r => r.len())
    }

    /// The envelope the ring serves while its lane is unpromoted.
    fn kind(&self) -> QueueKind {
        each_kind!(self, LaneRing, r => r.kind())
    }

    /// Claim-or-promote, producer side: the ring's producer endpoint, or
    /// `None` after promoting the lane. A fan-in registration fails only
    /// once the lane already promoted (re-promoting is a no-op).
    fn producer(&self) -> Option<RingProducer<'_, T>> {
        each_kind!(self, LaneRing => RingProducer, r => r.claim_producer()).or_else(|| {
            self.promote();
            None
        })
    }

    /// Claim-or-promote, consumer side. A fan-out registration never
    /// fails, so it never promotes.
    fn consumer(&self) -> Option<RingConsumer<'_, T>> {
        each_kind!(self, LaneRing => RingConsumer, r => r.claim_consumer()).or_else(|| {
            self.promote();
            None
        })
    }

    /// A consumer endpoint taken only while the ring holds work, even on
    /// a promoted lane; never promotes.
    fn reclaim(&self) -> Option<RingConsumer<'_, T>> {
        if self.len() == 0 {
            return None;
        }
        each_kind!(self, LaneRing => RingConsumer, r => r.reclaim_consumer())
    }

    /// Whether no ring writer can ever push again; emptiness checked
    /// *after* this holds forever.
    fn writers_gone(&self) -> bool {
        each_kind!(self, LaneRing, r => r.writers_gone())
    }
}

impl<T: Send> RingProducer<'_, T> {
    fn push(&mut self, value: T) -> Result<(), Full<T>> {
        each_kind!(self, RingProducer, p => p.push(value))
    }

    fn push_batch<I: ExactSizeIterator<Item = T>>(&mut self, items: &mut I) -> usize {
        each_kind!(self, RingProducer, p => p.push_batch(items))
    }

    fn drained(&self) -> bool {
        each_kind!(self, RingProducer, p => p.drained())
    }
}

/// One lane: the factory-built MPMC queue plus the fast-path ring (if
/// the policy builds one) in front of it.
struct ShardLane<T: Send, Q> {
    mpmc: Q,
    ring: Option<LaneRing<T>>,
}

impl<T: Send, Q: fmt::Debug> fmt::Debug for ShardLane<T, Q> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardLane")
            .field("mpmc", &self.mpmc)
            .field("ring", &self.ring.as_ref().map(LaneRing::kind))
            .finish()
    }
}

/// A sharded multi-lane frontend composing `N` independent FIFO lanes
/// into one relaxed-FIFO queue. See the [module docs](self) for the
/// ordering contract and the fast-path protocol.
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
    /// Fast-path policies additionally build the policy's ring, sized to
    /// the lane's own capacity.
    ///
    /// # Panics
    ///
    /// Panics if `config.lanes == 0`.
    pub fn with_config<F>(config: ShardedConfig, mut factory: F) -> Self
    where
        F: LaneFactory<T, Lane = Q>,
    {
        assert!(config.lanes > 0, "a sharded queue needs at least one lane");
        let lanes = (0..config.lanes)
            .map(|i| {
                let mpmc = factory.make_lane(i);
                let cap = mpmc.capacity().unwrap_or(DEFAULT_RING_CAPACITY);
                let ring = LaneRing::new(config.lane_policy, cap);
                CachePadded::new(ShardLane { mpmc, ring })
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

    /// Whether lane `i` was built with a fast-path ring.
    pub fn lane_has_fast_path(&self, i: usize) -> bool {
        self.lanes[i].ring.is_some()
    }

    /// Whether lane `i`'s fast path has been promoted to MPMC service (a
    /// second registrant appeared on a single side). `None` when the
    /// lane has no ring.
    pub fn lane_promoted(&self, i: usize) -> Option<bool> {
        self.lanes[i].ring.as_ref().map(|r| r.promoted())
    }

    /// The capability envelope lane `i` currently serves fresh claims
    /// under: its ring's wait-free kind, demoted to plain `mpmc` once
    /// the lane promoted (or when it has no ring).
    pub fn lane_kind(&self, i: usize) -> QueueKind {
        match &self.lanes[i].ring {
            Some(r) if !r.promoted() => r.kind(),
            _ => QueueKind::mpmc(),
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

    fn make_handle(&self, cursor: usize, steal_attempts: usize) -> ShardedHandle<'_, T, Q> {
        ShardedHandle {
            home_lane: cursor,
            home: LaneState::new(),
            others: None,
            lanes: &self.lanes,
            cursor,
            steal_attempts,
            batch_policy: self.config.batch_policy,
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
enum ProdRole<'q, T: Send> {
    /// Not yet resolved: the first enqueue on the lane decides.
    Unknown,
    /// Holds a ring producer endpoint; enqueues are wait-free pushes.
    Ring(RingProducer<'q, T>),
    /// Enqueues go to the lane's MPMC queue.
    Mpmc,
}

/// This handle's consumer-side relationship to one lane.
enum ConsRole<'q, T: Send> {
    /// Not yet resolved: the first dequeue with the lane as affinity
    /// lane decides (probes leave it unresolved).
    Unknown,
    /// Holds a ring consumer endpoint; dequeues drain the ring first.
    Ring(RingConsumer<'q, T>),
    /// Lost claim-or-promote: dequeues go to the MPMC queue, re-taking
    /// the ring's consumer endpoint while the ring holds residue.
    Mpmc,
    /// The ring is verified permanently empty, or the lane has none.
    RingDead,
}

/// One handle's state on one lane: the inner MPMC handle, built the
/// first time an operation reaches that lane's MPMC queue, and the
/// handle's producer and consumer roles there. A handle that stays on
/// its fast-path ring never builds the inner handle, and so never pays
/// for what the inner queue's handle sets up (a `CasQueue` handle
/// registers an LL/SC variable and a node-pool cache).
struct LaneState<'q, T: Send, Q: ConcurrentQueue<T> + 'q> {
    mpmc: Option<Q::Handle<'q>>,
    prod: ProdRole<'q, T>,
    cons: ConsRole<'q, T>,
}

impl<'q, T: Send, Q: ConcurrentQueue<T> + 'q> LaneState<'q, T, Q> {
    fn new() -> Self {
        Self {
            mpmc: None,
            prod: ProdRole::Unknown,
            cons: ConsRole::Unknown,
        }
    }
}

/// Where one dequeue step puts what it takes: the scalar path holds one
/// value, the batch path appends a bounded run. Each keeps its own ring
/// and MPMC calls — the scalar path never goes through `pop_batch` — so
/// the lane state machine in [`ShardedHandle::lane_take`] is written
/// once for both.
trait Take<T: Send> {
    /// Takes from the ring; whether that yielded anything.
    fn ring(&mut self, c: &mut RingConsumer<'_, T>) -> bool;
    fn mpmc<H: QueueHandle<T>>(&mut self, h: &mut H);
    /// Whether nothing more fits.
    fn full(&self) -> bool;
}

/// The scalar dequeue's sink.
struct One<T>(Option<T>);

impl<T: Send> Take<T> for One<T> {
    fn ring(&mut self, c: &mut RingConsumer<'_, T>) -> bool {
        self.0 = each_kind!(c, RingConsumer, c => c.pop());
        self.0.is_some()
    }

    fn mpmc<H: QueueHandle<T>>(&mut self, h: &mut H) {
        self.0 = h.dequeue();
    }

    fn full(&self) -> bool {
        self.0.is_some()
    }
}

/// The batch dequeue's sink: at most `max` values appended to `out`.
struct Run<'a, T> {
    out: &'a mut Vec<T>,
    max: usize,
    got: usize,
}

impl<T: Send> Take<T> for Run<'_, T> {
    fn ring(&mut self, c: &mut RingConsumer<'_, T>) -> bool {
        let n = each_kind!(c, RingConsumer, c => c.pop_batch(self.out, self.max - self.got));
        self.got += n;
        n > 0
    }

    fn mpmc<H: QueueHandle<T>>(&mut self, h: &mut H) {
        self.got += h.dequeue_batch(self.out, self.max - self.got);
    }

    fn full(&self) -> bool {
        self.got >= self.max
    }
}

/// Per-thread handle to a [`ShardedQueue`]: its state on each lane it
/// touched (inner MPMC handle, ring endpoints and roles) and the
/// affinity cursor steering lane selection. Dropping it drops the
/// endpoints, which release their claims and registrations. The home
/// lane's state is inline and the other lanes' table is allocated on
/// first touch (see the [module docs](self#handles)).
pub struct ShardedHandle<'q, T: Send, Q: ConcurrentQueue<T> + 'q> {
    /// The affinity lane at construction; its state is `home`.
    home_lane: usize,
    home: LaneState<'q, T, Q>,
    /// Every lane but the home lane, in lane order.
    others: Option<Box<[LaneState<'q, T, Q>]>>,
    lanes: &'q [CachePadded<ShardLane<T, Q>>],
    /// Affinity lane; migrates to the serving lane on successful steals.
    cursor: usize,
    steal_attempts: usize,
    batch_policy: BatchPolicy,
}

impl<'q, T: Send, Q: ConcurrentQueue<T> + 'q> ShardedHandle<'q, T, Q> {
    /// The lane this handle currently prefers.
    pub fn affinity(&self) -> usize {
        self.cursor
    }

    /// Where `lane` (not the home lane) sits in the other lanes' table.
    fn other(&self, lane: usize) -> usize {
        lane - usize::from(lane > self.home_lane)
    }

    /// This handle's state on `lane`, allocating the other lanes' table
    /// on the first touch of a lane other than the home lane.
    fn state(&mut self, lane: usize) -> &mut LaneState<'q, T, Q> {
        if lane == self.home_lane {
            return &mut self.home;
        }
        let (i, others) = (self.other(lane), self.lanes.len() - 1);
        let table = self
            .others
            .get_or_insert_with(|| (0..others).map(|_| LaneState::new()).collect());
        &mut table[i]
    }

    /// This handle's state on `lane` if it ever touched it.
    fn touched(&self, lane: usize) -> Option<&LaneState<'q, T, Q>> {
        if lane == self.home_lane {
            return Some(&self.home);
        }
        Some(&self.others.as_deref()?[self.other(lane)])
    }

    /// The inner MPMC handle on `lane`, built on first use.
    fn mpmc(&mut self, lane: usize) -> &mut Q::Handle<'q> {
        let lanes = self.lanes;
        self.state(lane)
            .mpmc
            .get_or_insert_with(|| lanes[lane].mpmc.handle())
    }

    /// Lane probe order: affinity lane first, then up to
    /// `steal_attempts` neighbors, wrapping.
    fn probe_order(&self) -> impl Iterator<Item = usize> {
        let lanes = self.lanes.len();
        let cursor = self.cursor;
        let probes = self.steal_attempts.min(lanes - 1);
        (0..=probes).map(move |i| (cursor + i) % lanes)
    }

    /// This handle's ring producer endpoint on `lane` if it still rides
    /// the ring: resolves the role on first use (claim-or-promote) and
    /// hands the lane over to MPMC service at the producer's switch
    /// point — the lane promoted and everything this producer pushed
    /// drained, so its ring values all precede its first MPMC value.
    fn ring_producer(&mut self, lane: usize) -> Option<&mut RingProducer<'q, T>> {
        let lanes = self.lanes;
        let ring = lanes[lane].ring.as_ref()?;
        let role = &mut self.state(lane).prod;
        if let ProdRole::Unknown = role {
            *role = ring.producer().map_or(ProdRole::Mpmc, ProdRole::Ring);
        }
        if let ProdRole::Ring(p) = role {
            if ring.promoted() && p.drained() {
                // Dropping the endpoint releases the claim/registration.
                *role = ProdRole::Mpmc;
            }
        }
        match role {
            ProdRole::Ring(p) => Some(p),
            _ => None,
        }
    }

    /// Whether a dequeue that stole from another lane may move the cursor
    /// there. Not while this handle is its affinity lane's ring producer
    /// with values still in that ring: a consumer claim held by another
    /// handle can keep them there, and enqueues following the cursor
    /// elsewhere would overtake them — the producer's switch point,
    /// applied to leaving the lane.
    fn may_migrate(&self) -> bool {
        !matches!(
            self.touched(self.cursor),
            Some(LaneState { prod: ProdRole::Ring(p), .. }) if !p.drained()
        )
    }

    /// Enqueue on one specific lane, routed by this handle's role there.
    fn lane_enqueue(&mut self, lane: usize, value: T) -> Result<(), Full<T>> {
        match self.ring_producer(lane) {
            Some(p) => p.push(value),
            None => self.mpmc(lane).enqueue(value),
        }
    }

    /// Batch enqueue on one specific lane; the ring paths publish the
    /// moved `tail` once for the whole batch.
    fn lane_enqueue_batch<I>(&mut self, lane: usize, mut items: I) -> Result<usize, BatchFull<T>>
    where
        I: ExactSizeIterator<Item = T>,
    {
        let Some(p) = self.ring_producer(lane) else {
            return self.mpmc(lane).enqueue_batch(items);
        };
        let pushed = p.push_batch(&mut items);
        if items.len() == 0 {
            Ok(pushed)
        } else {
            Err(BatchFull {
                enqueued: pushed,
                remaining: items.collect(),
            })
        }
    }

    /// One dequeue step on `lane`, routed by this handle's consumer role
    /// there: the ring drains before the MPMC queue, preserving the ring
    /// producers' FIFO order across a promotion. Each rule of the module
    /// docs' fast-path protocol appears here once.
    fn lane_take<S: Take<T>>(&mut self, lane: usize, s: &mut S) {
        let lanes = self.lanes;
        if let Some(ring) = &lanes[lane].ring {
            let affinity = lane == self.cursor;
            let role = &mut self.state(lane).cons;
            if matches!(role, ConsRole::Unknown) && affinity {
                *role = ring.consumer().map_or(ConsRole::Mpmc, ConsRole::Ring);
            }
            match role {
                // The read-only probe rule.
                ConsRole::Unknown => {
                    if let Some(mut c) = ring.reclaim() {
                        if s.ring(&mut c) {
                            // Adopt the endpoint: the caller's migration
                            // makes this the affinity lane.
                            *role = ConsRole::Ring(c);
                        }
                    }
                }
                // The ring-dead transition: writers observed gone
                // first, emptiness re-checked second.
                ConsRole::Ring(c) => {
                    s.ring(c);
                    if !s.full() && ring.writers_gone() {
                        s.ring(c);
                        if !s.full() {
                            *role = ConsRole::RingDead;
                        }
                    }
                }
                ConsRole::Mpmc => {
                    let gone = ring.writers_gone();
                    if let Some(mut c) = ring.reclaim() {
                        s.ring(&mut c);
                        *role = ConsRole::Ring(c);
                    } else if gone && ring.len() == 0 {
                        *role = ConsRole::RingDead;
                    }
                }
                ConsRole::RingDead => {}
            }
            // An unpromoted ring lane's MPMC queue is empty (see
            // claim-or-promote): skip it and the inner handle it needs.
            if s.full() || !ring.promoted() {
                return;
            }
        }
        s.mpmc(self.mpmc(lane));
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
                Err(Full(v)) => value = v,
            }
        }
        Err(Full(value))
    }

    fn dequeue(&mut self) -> Option<T> {
        for lane in self.probe_order() {
            let mut one = One(None);
            self.lane_take(lane, &mut one);
            if one.0.is_some() {
                // Follow the non-empty lane: the next dequeue drains it
                // without re-probing the empty ones.
                if lane != self.cursor && self.may_migrate() {
                    self.cursor = lane;
                }
                return one.0;
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
                let mut lanes = self.probe_order();
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
        let mut run = Run { out, max, got: 0 };
        for lane in self.probe_order() {
            if run.full() {
                break;
            }
            let before = run.got;
            self.lane_take(lane, &mut run);
            if before == 0 && run.got > 0 && self.may_migrate() {
                self.cursor = lane;
            }
        }
        run.got
    }
}

impl<T: Send, Q: ConcurrentQueue<T>> ConcurrentQueue<T> for ShardedQueue<T, Q> {
    type Handle<'q>
        = ShardedHandle<'q, T, Q>
    where
        Self: 'q;

    fn handle(&self) -> Self::Handle<'_> {
        // Round-robin lane assignment spreads threads across lanes; the
        // Relaxed ticket is only a load-balancing hint, never a
        // correctness input.
        let cursor = self.next_handle.fetch_add(1, Ordering::Relaxed) % self.lanes.len();
        self.make_handle(cursor, self.config.steal_attempts)
    }

    fn capacity(&self) -> Option<usize> {
        // Conservative reachable bound: only the MPMC capacities. A
        // lane's ring is sized to the same bound and is an unpromoted
        // producer's storage *instead of* the MPMC queue, so summing both
        // would advertise room that producer can never reach. The price:
        // `len()` on a promoted lane holding ring residue and MPMC items
        // may transiently exceed `capacity()`.
        self.lanes
            .iter()
            .try_fold(0usize, |acc, lane| lane.mpmc.capacity().map(|c| acc + c))
    }

    fn len(&self) -> Option<usize> {
        // Advisory under concurrent mutation: a value lives in exactly
        // one structure at any instant, so none is double counted, but
        // lanes counted early can change while later lanes are read.
        self.lanes.iter().try_fold(0usize, |acc, lane| {
            let ring = lane.ring.as_ref().map_or(0, LaneRing::len);
            Some(acc + ConcurrentQueue::len(&lane.mpmc)? + ring)
        })
    }

    fn algorithm_name(&self) -> &'static str {
        match self.config.lane_policy {
            LanePolicy::Mpmc => "Sharded frontend",
            LanePolicy::SpscFastPath => "Sharded mixed-lane frontend",
            LanePolicy::MpscFastPath => "Sharded fan-in-lane frontend",
            LanePolicy::SpmcFastPath => "Sharded fan-out-lane frontend",
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
        // An empty unpromoted ring means an empty lane: the dequeue
        // returns without building the consumer's inner handle.
        assert_eq!(c.dequeue(), None);
        assert_eq!(q.lane(0).vars_allocated(), 0);
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
        // no claim, no promotion (a drain registration never promotes).
        let mut stealer = q.make_handle(1, 1);
        assert_eq!(stealer.dequeue(), Some(5));
        assert_eq!(q.lane_promoted(0), Some(false));
        // The pinned producer's fast path is intact.
        p.enqueue(6).unwrap();
        let mut c = q.handle_pinned(0);
        assert_eq!(c.dequeue(), Some(6));
        assert_eq!(q.lane_promoted(0), Some(false));
    }
}
