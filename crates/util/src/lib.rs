//! Shared substrate for the `nbq` workspace.
//!
//! This crate holds the pieces every queue implementation and the benchmark
//! harness need but that are not themselves part of any single algorithm:
//!
//! * [`CachePadded`] — false-sharing avoidance for hot atomics such as the
//!   `Head` and `Tail` indices of the array queues, and [`ring_slot`], the
//!   cache remap the SCQ/wCQ rings use to keep adjacent positions on
//!   different lines.
//! * [`Backoff`] — bounded exponential backoff for retry loops around failed
//!   CAS/SC attempts.
//! * [`ConcurrentQueue`] / [`QueueHandle`] — the uniform bounded-FIFO
//!   interface all queues in the workspace implement, so the harness,
//!   integration tests, and the linearizability checker can drive any of
//!   them interchangeably.
//! * [`BlockingQueue`] — an opt-in parking layer giving any of the
//!   non-blocking queues bounded-channel `send`/`recv` semantics.
//! * [`rng::SplitMix64`] — tiny deterministic RNG for fault injection and
//!   workload shuffling without pulling `rand` into the core crates.
//! * [`stats`] — mean/stddev/min/max summaries used by the harness.
//! * [`latency`] — dep-free log-bucketed latency histogram
//!   ([`latency::LatencyHistogram`], HdrHistogram-style, mergeable across
//!   threads) behind the harness's p50/p90/p99/p999 tables.
//! * [`mem`] — the per-site memory-ordering policy every hot path names
//!   its orderings through; the `strict-sc` cargo feature maps all of
//!   them back to `SeqCst`.
//! * [`pool`] — pooled node recycling ([`pool::NodePool`]) so the
//!   node-per-element queues' steady state never touches the global
//!   allocator; the `no-pool` cargo feature maps it back to per-node
//!   `alloc`/`dealloc`.

#![warn(missing_docs)]

pub mod backoff;
pub mod blocking;
pub mod latency;
pub mod mem;
pub mod pad;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod stats;

pub use backoff::Backoff;
pub use blocking::{BlockingHandle, BlockingQueue};
pub use latency::LatencyHistogram;
pub use pad::{ring_slot, CachePadded};
pub use queue::{
    Arity, BatchFull, Closed, ConcurrentQueue, Full, LaneFactory, QueueHandle, QueueKind,
    TrySendError,
};
