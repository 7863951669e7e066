//! # nbq — non-blocking bounded FIFO queues
//!
//! Facade crate for the reproduction of **Evequoz, “Non-Blocking Concurrent
//! FIFO Queues With Single Word Synchronization Primitives”, ICPP 2008**.
//!
//! The paper's two contributions are re-exported at the root:
//!
//! * [`LlScQueue`] — Algorithm 1 (Fig. 3): a circular-array queue driven by
//!   load-linked/store-conditional, emulated on x86-64 by
//!   [`nbq_llsc::VersionedCell`].
//! * [`CasQueue`] — Algorithm 2 (Fig. 5): the same queue driven by plain
//!   pointer-wide CAS via tagged thread-owned `LLSCvar` reservations.
//!
//! Everything the paper's evaluation compares against lives in
//! [`baselines`] (including the full §2 related-work catalogue:
//! Michael–Scott over two reclamation schemes, Shann, Tsigas–Zhang,
//! Herlihy–Wing, Treiber, Ladan-Mozes/Shavit, and Valois over the
//! software DCAS in [`mcas`]), the substrates in [`llsc`] and
//! [`hazard`], the history checker in [`lincheck`], and the benchmark
//! machinery in [`harness`].
//!
//! ## Quickstart
//!
//! ```
//! use nbq::prelude::*;
//!
//! let q = CasQueue::<String>::with_capacity(8);
//! let mut h = q.handle();
//! h.enqueue("first".into()).unwrap();
//! h.enqueue("second".into()).unwrap();
//! assert_eq!(h.dequeue().as_deref(), Some("first"));
//! assert_eq!(h.dequeue().as_deref(), Some("second"));
//! assert_eq!(h.dequeue(), None);
//! ```
//!
//! ## Batched operations
//!
//! Both paper queues override the [`QueueHandle`] batch methods with a
//! native multi-slot path: the per-slot protocol is unchanged (so every
//! ABA defense of §3 still applies) but `Head`/`Tail` advance with one
//! jump-CAS per batch instead of one CAS per element. Every other queue
//! gets element-wise defaults with identical semantics.
//!
//! ```
//! use nbq::prelude::*;
//!
//! let q = LlScQueue::<u32>::with_capacity(16);
//! let mut h = q.handle();
//! assert_eq!(h.enqueue_batch(vec![1, 2, 3].into_iter()).unwrap(), 3);
//! assert_eq!(q.len(), 3);
//! let mut out = Vec::new();
//! assert_eq!(h.dequeue_batch(&mut out, 8), 3);
//! assert_eq!(out, vec![1, 2, 3]);
//! ```
//!
//! A batch that no longer fits reports how far it got and returns the
//! leftovers in order ([`BatchFull`]), so nothing is lost:
//!
//! ```
//! use nbq::prelude::*;
//!
//! let q = CasQueue::<u32>::with_capacity(2);
//! let mut h = q.handle();
//! let err = h.enqueue_batch(vec![1, 2, 3, 4].into_iter()).unwrap_err();
//! assert_eq!(err.enqueued, 2);
//! assert_eq!(err.remaining, vec![3, 4]);
//! ```
//!
//! ## Sharded multi-lane frontend
//!
//! Past ~8 heavily contending threads the single `Head`/`Tail` pair of
//! either queue saturates; [`ShardedQueue`] spreads the load over `N`
//! independent lanes (each a complete paper queue with all §3 ABA
//! defenses) behind the same [`ConcurrentQueue`] interface. The cost is
//! a documented *relaxed-FIFO* contract: per-lane FIFO stays strict and
//! per-producer FIFO is preserved while a producer stays on its lane,
//! but cross-lane ordering is advisory (see [`nbq_core::sharded`]).
//!
//! ```
//! use nbq::prelude::*;
//!
//! // 4 CAS-queue lanes of 1024 slots each.
//! let q = ShardedQueue::with_lanes(4, |_| CasQueue::<u64>::with_capacity(1024));
//! let mut h = q.handle();
//! h.enqueue(7).unwrap();
//! assert_eq!(h.dequeue(), Some(7));
//! // A pinned handle never leaves its lane: strict FIFO per producer.
//! let mut pinned = q.handle_pinned(0);
//! pinned.enqueue(1).unwrap();
//! pinned.enqueue(2).unwrap();
//! assert_eq!(pinned.dequeue(), Some(1));
//! assert_eq!(pinned.dequeue(), Some(2));
//! ```
//!
//! ## Async channel frontend
//!
//! [`AsyncQueue`] (crate [`aio`], re-exported here — `async` is a
//! reserved word) turns any of the queues above into an async MPMC
//! channel: `send().await` parks the task when the queue is full,
//! `recv().await` when it is empty, with wakeups flowing through a
//! FIFO waiter list per direction. The list's short lock sits on the
//! parking path only — the queue's non-blocking hot path is untouched
//! and takes no lock. Futures are cancellation-safe (dropping one
//! deregisters its waker), `close()` wakes every parked task, and
//! `stream()`/`sink()` give `Stream`/`Sink` views. See `DESIGN.md` §9
//! for the park protocol, written once for all four futures, and the
//! registry's wake-token protocol.
//!
//! ```
//! use nbq::prelude::*;
//! use std::sync::Arc;
//!
//! let rt = tokio::runtime::Builder::new_multi_thread()
//!     .worker_threads(2)
//!     .enable_all()
//!     .build()
//!     .unwrap();
//! let q = Arc::new(AsyncQueue::new(CasQueue::<u64>::with_capacity(4)));
//! rt.block_on(async {
//!     let consumer = {
//!         let q = Arc::clone(&q);
//!         tokio::spawn(async move {
//!             let mut sum = 0;
//!             while let Some(v) = q.recv().await {
//!                 sum += v;
//!             }
//!             sum
//!         })
//!     };
//!     for v in 1..=10 {
//!         q.send(v).await.unwrap(); // parks when the 4-slot queue is full
//!     }
//!     q.close(); // consumer's recv() resolves to None after the drain
//!     assert_eq!(consumer.await.unwrap(), 55);
//! });
//! ```

pub use nbq_async as aio;
pub use nbq_async::AsyncQueue;
pub use nbq_baselines as baselines;
pub use nbq_core::{
    ArityRegistry, CasQueue, LanePolicy, LlScQueue, MpscRing, ShardedConfig, ShardedQueue,
    SpmcRing, SpscRing,
};
pub use nbq_harness as harness;
pub use nbq_hazard as hazard;
pub use nbq_lincheck as lincheck;
pub use nbq_llsc as llsc;
pub use nbq_mcas as mcas;
pub use nbq_net as net;
pub use nbq_util::{
    Arity, Backoff, BatchFull, BlockingQueue, CachePadded, ConcurrentQueue, Full, LaneFactory,
    LatencyHistogram, QueueHandle, QueueKind, TrySendError,
};

/// One-line import for the common case: the two paper queues plus the
/// traits and error types needed to drive them.
///
/// ```
/// use nbq::prelude::*;
///
/// let q = CasQueue::<u64>::with_capacity(4);
/// let mut h = q.handle();
/// h.enqueue(7).unwrap();
/// assert_eq!(h.dequeue(), Some(7));
/// ```
pub mod prelude {
    pub use nbq_async::AsyncQueue;
    pub use nbq_core::{
        CasQueue, LanePolicy, LlScQueue, MpscRing, ShardedConfig, ShardedQueue, SpmcRing, SpscRing,
    };
    pub use nbq_util::{
        Arity, BatchFull, ConcurrentQueue, Full, LaneFactory, QueueHandle, QueueKind, TrySendError,
    };
}
