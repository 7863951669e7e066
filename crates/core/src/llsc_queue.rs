//! Algorithm 1 (paper Fig. 3): the LL/SC circular-array FIFO queue.
//!
//! The algorithm itself — the E5–E18/D5–D18 loops, helping, the batch
//! paths — is the shared [`Ring`]; see its module docs for the paper-line
//! mapping. This module supplies the ring's slot link over real LL/SC
//! cells: `LL`/`SC` are [`LlScCell::ll`]/[`LlScCell::sc`] on the slot, and
//! a link that ends without an SC simply lapses, so `unlink` does nothing.
//!
//! The queue is generic over the cell type so the test suite can run the
//! *same algorithm* over the strong emulation, the spurious-failure
//! emulation, and the Fig. 2 oracle.

use crate::node::NULL;
use crate::opstats::OpStats;
use crate::ring::{Link, Ring, RingHandle, SlotLink};
use core::marker::PhantomData;
use nbq_llsc::{LlScCell, VersionedCell};

/// Tuning knobs (ablation points, see DESIGN.md `abl-backoff`).
#[derive(Debug, Clone, Copy)]
pub struct LlScQueueConfig {
    /// Exponential backoff after a contended SC failure. The paper's
    /// pseudocode retries immediately; backoff is our (measured) addition.
    pub backoff: bool,
}

impl Default for LlScQueueConfig {
    fn default() -> Self {
        Self { backoff: true }
    }
}

/// Algorithm 1: non-blocking bounded MPMC FIFO over LL/SC cells.
///
/// `C` is the LL/SC cell implementation; the default
/// [`VersionedCell`] is the production strong emulation. Algorithm 1
/// keeps **no per-thread state** of its own, so a handle is a reference
/// plus the thread's private node-pool cache.
pub type LlScQueue<T, C = VersionedCell> = Ring<T, CellLink<C>>;

/// Per-thread handle for [`LlScQueue`].
pub type LlScHandle<'q, T, C = VersionedCell> = RingHandle<'q, T, CellLink<C>>;

impl<T: Send> LlScQueue<T> {
    /// Creates a queue over [`VersionedCell`]s with room for at least
    /// `capacity` items (rounded up to a power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_config(capacity, LlScQueueConfig::default())
    }

    /// [`Self::with_capacity`] with explicit tuning.
    pub fn with_config(capacity: usize, config: LlScQueueConfig) -> Self {
        Self::with_cells(capacity, config, |_, v| VersionedCell::new(v))
    }

    /// [`Self::with_capacity`] plus instruction/contention accounting; see
    /// [`OpStats`]. Slot counts stay zero: the cells' LL/SC is not a
    /// counted CAS.
    pub fn with_stats(capacity: usize) -> Self {
        Self::with_capacity(capacity).counted()
    }

    /// [`Self::with_config`] plus contention accounting — the combination
    /// the tuning ablations use to attribute time differences to retry
    /// pressure.
    pub fn with_config_stats(capacity: usize, config: LlScQueueConfig) -> Self {
        Self::with_config(capacity, config).counted()
    }
}

impl<T: Send, C: LlScCell> LlScQueue<T, C> {
    /// Creates a queue whose slot cells are built by `factory`
    /// (index, initial value) — the hook the fault-injection and oracle
    /// tests use.
    pub fn with_cells(
        capacity: usize,
        config: LlScQueueConfig,
        factory: impl Fn(usize, u64) -> C,
    ) -> Self {
        Ring::new(capacity, config.backoff, CellLink(PhantomData), |i| {
            factory(i, NULL)
        })
    }
}

/// The slot link over real LL/SC cells of type `C`.
pub struct CellLink<C>(PhantomData<C>);

impl<C: LlScCell> Link for CellLink<C> {
    type Slot = C;
    type Handle<'q>
        = &'q [C]
    where
        C: 'q;
    const NAME: &'static str = "FIFO Array LL/SC";

    fn handle<'q>(&'q self, slots: &'q [C], _stats: Option<&'q OpStats>) -> &'q [C] {
        slots
    }

    fn load(slot: &C) -> u64 {
        slot.load()
    }
}

impl<C: LlScCell> SlotLink for &[C] {
    type Token = C::Token;

    #[inline]
    fn ll(&mut self, idx: usize) -> (u64, C::Token) {
        self[idx].ll()
    }

    #[inline]
    fn sc(&mut self, idx: usize, token: C::Token, new: u64) -> bool {
        self[idx].sc(token, new)
    }

    /// A real link lapses on its own: nothing was written.
    #[inline]
    fn unlink(&mut self, _idx: usize, _token: C::Token, _word: u64) {}
}
