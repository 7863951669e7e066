//! Per-operation synchronization-instruction accounting.
//!
//! The paper argues about its algorithms in units of atomic instructions:
//! "our CAS-based implementation requires three 32-bit CAS and two
//! FetchAndAdd operations" per queue operation, against Shann's one wide
//! CAS + one CAS, Michael–Scott's 1–2 successful CASes, and Doherty's
//! "7 successful CAS instructions per queueing operation". [`OpStats`]
//! lets a queue built with `with_stats` count exactly that, so the claim
//! is *measured* here rather than quoted (experiment `t4-opcounts`).
//!
//! Counters are `Relaxed` and live behind an `Option`, so queues built
//! through the normal constructors pay one well-predicted branch; the
//! benchmark constructors never enable them.
//!
//! The block holds only queue-level events: the backbone's CAS/FAA
//! traffic, node-pool traffic, and the SCQ/wCQ ring events of
//! `nbq-baselines`. Layers above count their own events where they
//! happen — waker traffic in `nbq-async`'s `AsyncStats`, scheduler
//! events in the runtime's `RuntimeMetrics`.

use nbq_util::pool::{AcquireSource, ReleaseTarget};
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic-instruction counters for one queue instance.
#[derive(Debug, Default)]
pub struct OpStats {
    /// CAS attempts on array slots (the simulated LL install, the "SC",
    /// and restores).
    pub slot_cas_attempts: AtomicU64,
    /// Successful slot CASes.
    pub slot_cas_successes: AtomicU64,
    /// CAS attempts on the `Head`/`Tail` indices.
    pub index_cas_attempts: AtomicU64,
    /// Successful index CASes.
    pub index_cas_successes: AtomicU64,
    /// Fetch-and-add operations on `LLSCvar` reference counts.
    pub faa_ops: AtomicU64,
    /// Completed enqueue+dequeue operations (denominator). Batch calls
    /// count one operation per *element*, so the per-operation ratios
    /// stay comparable between the single and batched paths.
    pub operations: AtomicU64,
    /// Help actions (advancing a lagging index on a peer's behalf).
    pub helps: AtomicU64,
    /// Batch calls (`enqueue_batch`/`dequeue_batch`) completed.
    pub batch_ops: AtomicU64,
    /// Elements moved by batch calls (sums into `operations` too).
    pub batch_items: AtomicU64,
    /// `Backoff::snooze` invocations — one per contention-induced retry,
    /// counted even when backoff is disabled (see `Backoff::snoozes`), so
    /// `abl-backoff` and `abl-ordering` can report contention on an equal
    /// footing across configurations.
    pub backoff_snoozes: AtomicU64,
    /// Node acquisitions that carved fresh memory (pool slab growth, or
    /// every acquisition under `no-pool`). In steady state this stays flat
    /// while `operations` grows — the tentpole claim of DESIGN.md §8.
    pub pool_alloc: AtomicU64,
    /// Node acquisitions served by recycling (handle cache or global
    /// spill stack).
    pub pool_recycle_hits: AtomicU64,
    /// Node releases that overflowed the handle cache onto the shared
    /// spill stack (cross-thread producer/consumer imbalance measure).
    pub pool_spills: AtomicU64,
    /// Acquisitions that pulled a batch from the spill stack into the
    /// handle cache.
    pub pool_refills: AtomicU64,
    /// Ring-position cycle wraps in the modern-rival baselines (SCQ/wCQ):
    /// a fetch-and-add ticket crossed into a new lap of the index ring.
    pub cycle_wraps: AtomicU64,
    /// SCQ/wCQ livelock-threshold resets (a successful enqueue re-arming
    /// the dequeuers' bounded-emptiness counter, Nikolaev Fig. 5).
    pub threshold_resets: AtomicU64,
    /// SCQ/wCQ `catchup` invocations — a dequeuer repairing `Tail`
    /// after over-claiming tickets past it on an empty ring.
    pub catchups: AtomicU64,
    /// wCQ help events: a published slow-path record completed through
    /// the helping protocol (by any thread, including its owner).
    pub help_events: AtomicU64,
}

/// A point-in-time, per-operation view of the counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpStatsSnapshot {
    /// Slot CAS attempts per completed operation.
    pub slot_cas_attempts: f64,
    /// Successful slot CASes per completed operation.
    pub slot_cas_successes: f64,
    /// Index CAS attempts per completed operation.
    pub index_cas_attempts: f64,
    /// Successful index CASes per completed operation.
    pub index_cas_successes: f64,
    /// Fetch-and-adds per completed operation.
    pub faa_ops: f64,
    /// Help actions per completed operation.
    pub helps: f64,
    /// Completed operations counted.
    pub operations: u64,
    /// Batch calls completed.
    pub batch_ops: u64,
    /// Elements moved through batch calls.
    pub batch_items: u64,
    /// Backoff snoozes per completed operation (contention measure).
    pub backoff_snoozes: f64,
    /// Total node acquisitions that carved fresh memory (absolute count,
    /// not per-op: the headline is that it stops growing).
    pub pool_alloc: u64,
    /// Total recycled node acquisitions (absolute count).
    pub pool_recycle_hits: u64,
    /// Total cache-overflow spills to the shared stack (absolute count).
    pub pool_spills: u64,
    /// Total batch refills from the shared stack (absolute count).
    pub pool_refills: u64,
    /// Ring cycle wraps per completed operation (SCQ/wCQ).
    pub cycle_wraps: f64,
    /// Threshold resets per completed operation (SCQ/wCQ).
    pub threshold_resets: f64,
    /// `catchup` repairs per completed operation (SCQ/wCQ).
    pub catchups: f64,
    /// Helped slow-path completions per completed operation (wCQ).
    pub help_events: f64,
}

impl OpStats {
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Per-operation averages since construction.
    pub fn snapshot(&self) -> OpStatsSnapshot {
        let ops = self.operations.load(Ordering::Relaxed).max(1);
        let per = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64 / ops as f64;
        OpStatsSnapshot {
            slot_cas_attempts: per(&self.slot_cas_attempts),
            slot_cas_successes: per(&self.slot_cas_successes),
            index_cas_attempts: per(&self.index_cas_attempts),
            index_cas_successes: per(&self.index_cas_successes),
            faa_ops: per(&self.faa_ops),
            helps: per(&self.helps),
            operations: self.operations.load(Ordering::Relaxed),
            batch_ops: self.batch_ops.load(Ordering::Relaxed),
            batch_items: self.batch_items.load(Ordering::Relaxed),
            backoff_snoozes: per(&self.backoff_snoozes),
            pool_alloc: self.pool_alloc.load(Ordering::Relaxed),
            pool_recycle_hits: self.pool_recycle_hits.load(Ordering::Relaxed),
            pool_spills: self.pool_spills.load(Ordering::Relaxed),
            pool_refills: self.pool_refills.load(Ordering::Relaxed),
            cycle_wraps: per(&self.cycle_wraps),
            threshold_resets: per(&self.threshold_resets),
            catchups: per(&self.catchups),
            help_events: per(&self.help_events),
        }
    }

    /// Records a completed queue operation (the per-op denominator).
    /// Public (unlike the `pub(crate)` recorders) because the modern-rival
    /// baselines live in `nbq-baselines`, outside this crate, and drive
    /// the counters through these methods.
    #[inline]
    pub fn record_operation(&self) {
        Self::bump(&self.operations);
    }

    /// Records a fetch-and-add on a ring position counter.
    #[inline]
    pub fn record_faa(&self) {
        Self::bump(&self.faa_ops);
    }

    /// Records a CAS attempt on a ring slot word.
    #[inline]
    pub fn record_slot_cas_attempt(&self) {
        Self::bump(&self.slot_cas_attempts);
    }

    /// Records a successful ring-slot CAS.
    #[inline]
    pub fn record_slot_cas_success(&self) {
        Self::bump(&self.slot_cas_successes);
    }

    /// Records a CAS attempt on a `Head`/`Tail` index.
    #[inline]
    pub fn record_index_cas_attempt(&self) {
        Self::bump(&self.index_cas_attempts);
    }

    /// Records a successful index CAS.
    #[inline]
    pub fn record_index_cas_success(&self) {
        Self::bump(&self.index_cas_successes);
    }

    /// Records a ring-position ticket crossing into a new cycle (lap).
    #[inline]
    pub fn record_cycle_wrap(&self) {
        Self::bump(&self.cycle_wraps);
    }

    /// Records a livelock-threshold reset after a successful enqueue.
    #[inline]
    pub fn record_threshold_reset(&self) {
        Self::bump(&self.threshold_resets);
    }

    /// Records one `catchup` repair of a lagging `Tail`.
    #[inline]
    pub fn record_catchup(&self) {
        Self::bump(&self.catchups);
    }

    /// Records a slow-path record completed through helping.
    #[inline]
    pub fn record_help_event(&self) {
        Self::bump(&self.help_events);
    }

    /// Classifies where a node acquisition came from. A `Refill` both
    /// counts as a recycle hit (the node was recycled memory) and ticks
    /// the refill counter (it paid one shared-stack round trip).
    #[inline]
    pub(crate) fn record_pool_acquire(&self, src: AcquireSource) {
        match src {
            AcquireSource::Fresh => Self::bump(&self.pool_alloc),
            AcquireSource::CacheHit => Self::bump(&self.pool_recycle_hits),
            AcquireSource::Refill => {
                Self::bump(&self.pool_recycle_hits);
                Self::bump(&self.pool_refills);
            }
        }
    }

    /// Classifies where a released node went. Only cache overflows are
    /// interesting (`Cache` is the free fast path; `Freed` only happens
    /// under `no-pool`, where `pool_alloc` already tells the story).
    #[inline]
    pub(crate) fn record_pool_release(&self, target: ReleaseTarget) {
        if target == ReleaseTarget::Spill {
            Self::bump(&self.pool_spills);
        }
    }

    /// Folds a finished retry loop's [`nbq_util::Backoff`] snooze count
    /// into the contention counter (no-op for a zero count, keeping the
    /// uncontended fast path store-free).
    #[inline]
    pub(crate) fn add_snoozes(&self, snoozes: u64) {
        if snoozes > 0 {
            self.backoff_snoozes.fetch_add(snoozes, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_divides_by_operations() {
        let s = OpStats::default();
        s.operations.store(4, Ordering::Relaxed);
        s.slot_cas_attempts.store(12, Ordering::Relaxed);
        s.faa_ops.store(8, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.slot_cas_attempts, 3.0);
        assert_eq!(snap.faa_ops, 2.0);
        assert_eq!(snap.operations, 4);
    }

    #[test]
    fn snapshot_of_empty_stats_is_zero_not_nan() {
        let snap = OpStats::default().snapshot();
        assert_eq!(snap.slot_cas_attempts, 0.0);
        assert_eq!(snap.operations, 0);
    }
}
