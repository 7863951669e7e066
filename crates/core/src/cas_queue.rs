//! Algorithm 2 (paper Fig. 5): the pointer-wide-CAS FIFO queue with
//! thread-owned `LLSCvar` reservations.
//!
//! Real LL/SC implementations carry the restrictions listed in §5 of the
//! paper (no nesting, reservation granules, spurious failures) and x86 has
//! no LL/SC at all, so Algorithm 2 *simulates* the `LL` of Algorithm 1 on
//! top of plain CAS:
//!
//! 1. A thread's simulated `LL(&Q[i])` reads the slot and atomically
//!    replaces its content with the thread's **tag** — the address of its
//!    registered [`LlScVar`](crate::registry::LlScVar) with bit 0 set.
//!    Odd values cannot be node addresses (alignment), so any reader can
//!    tell reservation markers from data.
//! 2. A reader that finds *another thread's* tag dereferences it to fetch
//!    the slot's logical value from the owner's `node` field, guarded by a
//!    `fetch_add` on the owner's reference count (paper lines L7/L14), and
//!    then installs its own tag over it.
//! 3. The paired "SC" is a CAS whose **expected** value is the caller's
//!    tag: it can only succeed while the reservation is still physically
//!    in the slot, which is what defeats the data-/null-ABA problems.
//! 4. Every non-SC exit path restores the slot's logical value over the
//!    tag (the paper's `CAS(&Q[i], var^1, slot)` lines), so reservations
//!    never outlive the operation that created them.
//!
//! ## Corrections applied (see DESIGN.md errata)
//!
//! * Fig. 5's `restart = CAS(...)` is inverted; the loop exits when the
//!   tag installation succeeds.
//! * The paper re-registers "between any two consecutive operations". That
//!   leaves a narrow window (reader preempted between reading a stale tag
//!   at L5 and incrementing `r` at L7, spanning the owner's entire next
//!   operation) in which a reader can copy a stale `node` value. Two
//!   tightened rules close it:
//!   - the owner re-runs `ReRegister` before **every** link attempt
//!     ([`GatePolicy::PerLink`], the default), so it never rewrites its
//!     `node` field while a reader holds a reference — `r == 1` is checked
//!     immediately before each rewrite, and a reader's `fetch_add`
//!     strictly precedes its re-validation of the slot;
//!   - the reader re-validates that the slot still contains the tag it
//!     read *after* taking its reference and before trusting the owner's
//!     `node` field.
//!
//!   With both rules: if the re-validation sees the tag, the owner's
//!   `node` write happened-before the tag's installation and cannot recur
//!   until the reader releases its reference. The paper's original gating
//!   is kept as [`GatePolicy::PerOperation`] for the `abl-reregister`
//!   ablation (the cost difference is one uncontended load per retry).
//!
//! ## One ring, a simulated link
//!
//! Algorithm 2 *is* Algorithm 1 with its `LL` simulated, so [`CasQueue`]
//! is the shared Fig. 3 [`Ring`] over plain `AtomicU64` slots; only the
//! link is written here. Per handle ([`SimHandle`]), `ll` is the simulated
//! `LL` below, `sc` is `CAS(&Q[i], var^1, new)` and `unlink` is the
//! restore `CAS(&Q[i], var^1, slot)`. Inside `SimHandle::sim_ll`:
//!
//! | Fig. 5 | Here |
//! |---|---|
//! | L5 `slot = Q[i]` | `SLOT_LOAD` |
//! | L6 `slot & 1`: another thread's reservation | the foreign-tag branch |
//! | L7 `FetchAndAdd(&other->r, 1)` | `REFCOUNT_ACQUIRE`, then the re-validation correction (`TAG_REVALIDATE`) |
//! | L8 read `other->node` | `NODE_READ`, copied into our own `node` (`NODE_PUBLISH`) |
//! | L11 copy a data/null slot into our `node` | the data branch |
//! | L12 `CAS(&Q[i], slot, var^1)` | install our tag (`TAG_CAS`) |
//! | L13–L14 `FetchAndAdd(&other->r, -1)` | `REFCOUNT_RELEASE`, whether or not L12 succeeded |
//! | L16 return the logical value | `return (value, tag)` |

use crate::node::NULL;
use crate::opstats::OpStats;
use crate::registry::{LlScVar, Registry};
use crate::ring::{Link, Ring, RingHandle, SlotLink};
use core::sync::atomic::{AtomicU64, Ordering};
use nbq_util::mem;

/// When the owner re-validates exclusive ownership of its `LLSCvar`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatePolicy {
    /// Before every link attempt (our corrected default; safe).
    PerLink,
    /// Once per enqueue/dequeue (the paper's original protocol; retains a
    /// theoretical stale-read window — kept for the ablation benchmark
    /// only).
    PerOperation,
}

/// Tuning knobs for [`CasQueue`].
#[derive(Debug, Clone, Copy)]
pub struct CasQueueConfig {
    /// Exponential backoff after a contended CAS failure.
    pub backoff: bool,
    /// Re-registration gate placement.
    pub gate: GatePolicy,
}

impl Default for CasQueueConfig {
    fn default() -> Self {
        Self {
            backoff: true,
            gate: GatePolicy::PerLink,
        }
    }
}

/// Algorithm 2: non-blocking bounded MPMC FIFO using only pointer-wide
/// CAS and fetch-and-add.
///
/// Space consumption is `O(capacity + max concurrent threads)` — the
/// registry grows with the *maximum concurrent* registration count and is
/// recycled across thread generations (population-oblivious).
pub type CasQueue<T> = Ring<T, SimLink>;

/// Per-thread handle for [`CasQueue`] (owns a registered `LLSCvar`).
pub type CasHandle<'q, T> = RingHandle<'q, T, SimLink>;

impl<T: Send> CasQueue<T> {
    /// Creates a queue with room for at least `capacity` items (rounded up
    /// to a power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_config(capacity, CasQueueConfig::default())
    }

    /// [`Self::with_capacity`] with explicit tuning.
    pub fn with_config(capacity: usize, config: CasQueueConfig) -> Self {
        let link = SimLink {
            registry: Registry::new(),
            gate: config.gate,
        };
        Ring::new(capacity, config.backoff, link, |_| AtomicU64::new(NULL))
    }

    /// [`Self::with_capacity`] plus per-operation synchronization-
    /// instruction accounting (experiment `t4-opcounts`); see
    /// [`OpStats`].
    pub fn with_stats(capacity: usize) -> Self {
        Self::with_capacity(capacity).counted()
    }

    /// [`Self::with_config`] plus instruction/contention accounting — the
    /// combination the tuning ablations use to attribute time differences
    /// to retry pressure.
    pub fn with_config_stats(capacity: usize, config: CasQueueConfig) -> Self {
        Self::with_config(capacity, config).counted()
    }

    /// Total `LLSCvar`s ever allocated — tracks the maximum number of
    /// concurrently registered threads (population-obliviousness metric).
    pub fn vars_allocated(&self) -> usize {
        self.link.registry.total_vars()
    }
}

/// The simulated slot link: the queue's `LLSCvar` registry and gate
/// placement.
pub struct SimLink {
    registry: Registry,
    gate: GatePolicy,
}

impl Link for SimLink {
    type Slot = AtomicU64;
    type Handle<'q> = SimHandle<'q>;
    const NAME: &'static str = "FIFO Array Simulated CAS";

    fn handle<'q>(&'q self, slots: &'q [AtomicU64], stats: Option<&'q OpStats>) -> SimHandle<'q> {
        SimHandle {
            slots,
            link: self,
            var: self.registry.register(),
            stats,
        }
    }

    fn load(slot: &AtomicU64) -> u64 {
        slot.load(Ordering::Relaxed)
    }
}

/// One handle's side of the simulated link: the `LLSCvar` it owns.
/// Dropping it deregisters.
pub struct SimHandle<'q> {
    slots: &'q [AtomicU64],
    link: &'q SimLink,
    var: *const LlScVar,
    stats: Option<&'q OpStats>,
}

// SAFETY: the handle owns its LLSCvar registration; moving the handle to
// another thread moves the ownership wholesale. It is not Sync/Clone. The
// other fields are shared references to atomics (`slots`, `stats`) and to
// the `Sync` registry (`link`).
unsafe impl Send for SimHandle<'_> {}

impl SimHandle<'_> {
    /// Counted slot CAS `expected → new` (an "SC", a restore, or a tag
    /// installation).
    ///
    /// TAG_CAS (SeqCst-pinned): every slot CAS either installs or removes
    /// a reservation tag, and tag removal is one edge of the Dekker cycle
    /// with the owner's `r` gate (DESIGN.md §7). Pinning is free here —
    /// an RMW compiles identically at AcqRel on x86-64/AArch64.
    #[inline]
    fn slot_cas(&self, cell: &AtomicU64, expected: u64, new: u64) -> bool {
        let ok = cell
            .compare_exchange(expected, new, mem::TAG_CAS, mem::TAG_CAS_FAIL)
            .is_ok();
        if let Some(st) = self.stats {
            OpStats::bump(&st.slot_cas_attempts);
            if ok {
                OpStats::bump(&st.slot_cas_successes);
            }
        }
        ok
    }

    #[inline]
    fn count_faa(&self) {
        if let Some(st) = self.stats {
            OpStats::bump(&st.faa_ops);
        }
    }

    /// Owner-side gate: ensure `self.var` is exclusively ours before
    /// writing its `node` field (paper `ReRegister`, tightened per the
    /// module docs).
    #[inline]
    fn gate(&mut self) {
        // SAFETY: self.var came from this queue's registry and is owned
        // by this handle.
        self.var = unsafe { self.link.registry.reregister(self.var) };
    }

    /// The simulated `LL` (paper Fig. 5, L1–L17, with the reader
    /// re-validation correction). On return, the caller's tag is installed
    /// in slot `idx`; returns the slot's logical value and that tag.
    #[inline]
    fn sim_ll(&mut self, idx: usize) -> (u64, u64) {
        let cell = &self.slots[idx];
        loop {
            if self.link.gate == GatePolicy::PerLink {
                self.gate();
            }
            let var = self.var;
            let tag = LlScVar::tag(var);
            let slot = cell.load(mem::SLOT_LOAD); // L5
            if slot & 1 == 1 {
                // L6: the slot holds another thread's reservation.
                debug_assert_ne!(slot, tag, "own tag found in slot");
                let other = LlScVar::from_tag(slot);
                // SAFETY: LLSCvars are never freed while the queue lives.
                let other = unsafe { &*other };
                // REFCOUNT_ACQUIRE (SeqCst-pinned): reader's edge of the
                // Dekker race with the owner's REFCOUNT_GATE load — must
                // be globally ordered before TAG_REVALIDATE below.
                other.r.fetch_add(1, mem::REFCOUNT_ACQUIRE); // L7
                self.count_faa();
                // Correction: only trust other->node if the reservation is
                // still physically installed now that we hold a reference —
                // this orders our read against the owner's next rewrite
                // (which is gated on r == 1). TAG_REVALIDATE (SeqCst-
                // pinned): store-buffering pattern; acquire/release cannot
                // exclude both threads missing each other's write.
                if cell.load(mem::TAG_REVALIDATE) != slot {
                    other.r.fetch_sub(1, mem::REFCOUNT_RELEASE);
                    self.count_faa();
                    continue;
                }
                // L8
                let value = other.node.load(mem::NODE_READ);
                // SAFETY: `var` is exclusively ours (gate) — no reader can
                // be consuming it because our tag is installed nowhere.
                // NODE_PUBLISH (release): readers acquire via NODE_READ;
                // visibility before tag install is carried by TAG_CAS.
                unsafe { &*var }.node.store(value, mem::NODE_PUBLISH);
                let installed = self.slot_cas(cell, slot, tag); // L12
                other.r.fetch_sub(1, mem::REFCOUNT_RELEASE); // L13–L14
                self.count_faa();
                if installed {
                    return (value, tag); // L16
                }
            } else {
                // Slot holds data (or null): copy it to our placeholder
                // and try to install the reservation.
                // SAFETY: as above, `var` is exclusively ours.
                unsafe { &*var }.node.store(slot, mem::NODE_PUBLISH); // L11
                if self.slot_cas(cell, slot, tag) {
                    return (slot, tag);
                }
            }
        }
    }
}

impl SlotLink for SimHandle<'_> {
    /// Our reservation tag, as installed by `SimHandle::sim_ll`.
    type Token = u64;

    #[inline]
    fn begin_op(&mut self) {
        if self.link.gate == GatePolicy::PerOperation {
            self.gate();
        }
    }

    #[inline]
    fn ll(&mut self, idx: usize) -> (u64, u64) {
        self.sim_ll(idx)
    }

    /// The "SC": a CAS whose expected value is our tag, so it can only
    /// succeed while the reservation is still physically in the slot.
    #[inline]
    fn sc(&mut self, idx: usize, tag: u64, new: u64) -> bool {
        self.slot_cas(&self.slots[idx], tag, new)
    }

    /// Restores the slot's logical value over our tag (the paper's
    /// `CAS(&Q[i], var^1, slot)`). It fails only if a competing LL already
    /// replaced our tag with its own — which carries the same value.
    #[inline]
    fn unlink(&mut self, idx: usize, tag: u64, word: u64) {
        self.slot_cas(&self.slots[idx], tag, word);
    }
}

impl Drop for SimHandle<'_> {
    fn drop(&mut self) {
        // Paper `Deregister`: drop the owner reference; the variable is
        // recycled by a future Register once readers drain.
        // SAFETY: self.var came from this queue's registry and is owned by
        // this handle, which is going away.
        unsafe { self.link.registry.deregister(self.var) };
    }
}

#[cfg(test)]
mod tests {
    // The queue behaviours both links share run from `ring`'s generic
    // suite; these pin down the registry's population-oblivious space.
    use super::*;
    use nbq_util::QueueHandle;

    #[test]
    fn handles_recycle_llscvars() {
        let q = CasQueue::<u32>::with_capacity(8);
        for _ in 0..20 {
            let mut h = q.handle();
            h.enqueue(1).unwrap();
            assert_eq!(h.dequeue(), Some(1));
        }
        assert_eq!(
            q.vars_allocated(),
            1,
            "sequential handles must reuse one LLSCvar"
        );
    }

    #[test]
    fn population_oblivious_space() {
        // Waves of short-lived threads: allocation tracks max concurrency,
        // at most one owned var plus one reader-held var per thread
        // (registry module docs).
        let q = CasQueue::<u64>::with_capacity(64);
        for _wave in 0..5 {
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let q = &q;
                    s.spawn(move || {
                        let mut h = q.handle();
                        for i in 0..100 {
                            while h.enqueue(t * 1000 + i).is_err() {
                                h.dequeue();
                            }
                            h.dequeue();
                        }
                    });
                }
            });
        }
        assert!(
            q.vars_allocated() <= 2 * 4,
            "vars allocated {} > twice the max concurrent threads 4",
            q.vars_allocated()
        );
    }
}
