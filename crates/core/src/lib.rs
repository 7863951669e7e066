//! The paper's primary contribution: two non-blocking bounded MPMC FIFO
//! queues over a circular array, using only single-word synchronization
//! primitives.
//!
//! Both are one ring, [`ring::Ring`]: Algorithm 1's (paper Fig. 3) loop,
//! written once over a per-handle slot-link protocol (`ll`, `sc`,
//! `unlink`). They differ only in the link:
//!
//! * [`LlScQueue`] — Algorithm 1 (paper Fig. 3), the ring over
//!   load-linked/store-conditional cells with the full Fig. 2 semantics
//!   (emulated by [`nbq_llsc::VersionedCell`] on CAS-only hardware).
//!   Immune to all three ABA problems of §3 by construction; keeps **no
//!   per-thread state**, so its space consumption depends only on the
//!   queue capacity.
//! * [`CasQueue`] — Algorithm 2 (paper Fig. 5), the ring over plain
//!   pointer-wide words whose `LL` is simulated with CAS plus
//!   fetch-and-add: it installs a tagged thread-owned
//!   [`registry::LlScVar`] reservation, and every non-SC exit restores the
//!   slot over it. Space consumption is `O(capacity + max concurrent
//!   threads)` and — like Algorithm 1 — requires **no advance knowledge of
//!   the thread count** (population-oblivious).
//!
//! Both implement [`nbq_util::ConcurrentQueue`], the workspace-wide trait
//! the harness and tests drive every algorithm through.
//!
//! For scaling past the single `Head`/`Tail` pair both algorithms share,
//! [`ShardedQueue`] composes `N` independent lanes of either queue into a
//! relaxed-FIFO frontend (per-lane FIFO strict, per-producer FIFO
//! preserved on-lane, cross-lane order advisory — see [`sharded`]). A
//! lane can front its queue with one wait-free ring for the arity it
//! actually serves: [`SpscRing`], [`MpscRing`] (fan-in) or [`SpmcRing`]
//! (fan-out), the three instances of one ring,
//! [`arity_ring::ArityRing`], whose producer and consumer ends are each
//! `Single` or `Shared`.
//!
//! ```
//! use nbq_core::CasQueue;
//! use nbq_util::{ConcurrentQueue, QueueHandle};
//!
//! let q = CasQueue::<u64>::with_capacity(16);
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         let mut h = q.handle();
//!         for i in 0..100 {
//!             while h.enqueue(i).is_err() {}
//!         }
//!     });
//!     s.spawn(|| {
//!         let mut h = q.handle();
//!         let mut last = None;
//!         let mut n = 0;
//!         while n < 100 {
//!             if let Some(v) = h.dequeue() {
//!                 assert!(last.is_none_or(|l| l < v)); // FIFO per producer
//!                 last = Some(v);
//!                 n += 1;
//!             }
//!         }
//!     });
//! });
//! ```

#![warn(missing_docs)]

mod node;

pub mod arity_ring;
pub mod cas_queue;
pub mod llsc_queue;
pub mod opstats;
pub mod registry;
pub mod ring;
pub mod sharded;

pub use arity_ring::{
    MpscConsumer, MpscProducer, MpscRing, MpscRingHandle, SpmcConsumer, SpmcProducer, SpmcRing,
    SpmcRingHandle, SpscConsumer, SpscProducer, SpscRing, SpscRingHandle,
};
pub use cas_queue::{CasHandle, CasQueue, CasQueueConfig, GatePolicy};
pub use llsc_queue::{LlScHandle, LlScQueue, LlScQueueConfig};
pub use opstats::{OpStats, OpStatsSnapshot};
pub use registry::ArityRegistry;
pub use sharded::{LanePolicy, ShardedConfig, ShardedHandle, ShardedQueue};
