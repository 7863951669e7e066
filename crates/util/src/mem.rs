//! Per-site memory-ordering policy for the whole workspace.
//!
//! Every atomic in the hot paths names its ordering through this module
//! instead of writing `Ordering::…` inline. Each name stands for one
//! *class* of sites with one invariant, so the ordering argument lives in
//! exactly one place (here and in DESIGN.md §7, "per-site ordering
//! argument") rather than being re-derived at 50 call sites.
//!
//! Two groups of names:
//!
//! * **Relaxable** — sites whose invariant is a plain acquire/release
//!   pairing (payload publication, monotone index counters). These carry
//!   the weakest ordering the invariant permits by default and are mapped
//!   back to `SeqCst` by the `strict-sc` cargo feature, the
//!   debugging/triage escape hatch: if a concurrency bug reproduces under
//!   the default build but not under `--features strict-sc`, the ordering
//!   relaxation is the prime suspect.
//! * **SC-pinned** — sites that participate in a store-buffering (Dekker)
//!   handshake, where acquire/release provably cannot exclude both sides
//!   missing each other's writes: hazard-pointer publication (Michael,
//!   TPDS 2004, Fig. 2 — the publish/re-validate vs. unlink/scan pair)
//!   and the `CasQueue` reservation-tag/refcount handshake (paper lines
//!   L7–L12 vs. RR2), which is the same pattern. These are `SeqCst` in
//!   *both* modes. On x86-64 and AArch64 this pinning is free where it
//!   lands on RMWs and loads (`lock cmpxchg` / `ldar` regardless); the
//!   measurable cost of `SeqCst` is on plain *stores*, none of which are
//!   pinned.

use core::sync::atomic::Ordering;

/// Expands to one `pub const` per named site: the given ordering by
/// default, `SeqCst` under `--features strict-sc`.
macro_rules! relaxable {
    ($($(#[$doc:meta])* $name:ident = $ord:ident;)*) => {
        $(
            $(#[$doc])*
            #[cfg(not(feature = "strict-sc"))]
            pub const $name: Ordering = Ordering::$ord;
            $(#[$doc])*
            #[cfg(feature = "strict-sc")]
            pub const $name: Ordering = Ordering::SeqCst;
        )*
    };
}

relaxable! {
    /// Loads of the monotone `Head`/`Tail` counters (paper lines E5/E6,
    /// D5/D6, the E10/D10 rechecks, batch cursor re-anchoring, and
    /// `len()`/`is_empty()`). The counters only grow and every consequent
    /// slot write is validated by the slot protocol itself (tag-expecting
    /// CAS / versioned SC), so a stale value costs a retry, never safety.
    INDEX_LOAD = Acquire;
    /// Success ordering of `Head`/`Tail` CASes (E15/E17, D15/D17 helping,
    /// and the batch jump-CAS publication). Release publishes the filled
    /// (resp. drained) slots to threads that acquire-load the index;
    /// acquire on the RMW keeps helpers ordered behind the slots they
    /// publish past.
    INDEX_CAS = AcqRel;
    /// Failure ordering of index CASes: the loaded value is either
    /// discarded or re-validated through `INDEX_LOAD` on the next lap.
    INDEX_CAS_FAIL = Relaxed;
    /// First read of an array slot (paper line L5; E7/D7 on the
    /// baselines). Acquire pairs with the release in `SLOT_CAS` /
    /// `TAG_CAS` so a node pointer read here has its pointee's contents
    /// visible.
    SLOT_LOAD = Acquire;
    /// Success ordering of slot CASes in the *baseline* queues
    /// (Michael–Scott link/swing, Shann, Tsigas–Zhang): release publishes
    /// the enqueued payload, acquire transfers ownership to the dequeuer.
    /// (`CasQueue` slot CASes are `TAG_CAS`, which is SC-pinned.)
    SLOT_CAS = AcqRel;
    /// Failure ordering of baseline slot CASes (value is re-read via
    /// `SLOT_LOAD` before reuse).
    SLOT_CAS_FAIL = Relaxed;
    /// `VersionedCell::ll` / `load` / `validate` (Algorithm 1's LL, line
    /// E7/D7): acquire pairs with `CELL_SC`'s release so the 48-bit node
    /// pointer's contents are visible to the linking thread.
    CELL_LL = Acquire;
    /// `VersionedCell::sc` / `DohertyCell::sc` success (the SC of lines
    /// E13/D13): release publishes the payload written before the SC;
    /// acquire orders the successful writer behind the value it replaced.
    CELL_SC = AcqRel;
    /// SC failure ordering: a failed SC transfers no ownership; the
    /// caller must re-LL (`CELL_LL`) before retrying.
    CELL_SC_FAIL = Relaxed;
    /// Owner's write of its `LLSCvar.node` placeholder (line L10): release
    /// so a reader that acquire-loads it (`NODE_READ`) after the SC-pinned
    /// handshake sees the value the owner staged. This is the single
    /// hottest relaxation in the workspace: on x86-64 it turns an
    /// `xchg`/`mfence` per operation into a plain store.
    NODE_PUBLISH = Release;
    /// Reader's copy of a foreign `LLSCvar.node` (line L8), paired with
    /// `NODE_PUBLISH`.
    NODE_READ = Acquire;
    /// `LLSCvar.r` / hazard-record release decrements (lines L13–L14,
    /// RR3, DR2, HP record release): release so the reference holder's
    /// reads complete before the variable becomes recyclable; acquire on
    /// the RMW so the recycler's claim (`register`'s 0→1 CAS) observes
    /// them.
    REFCOUNT_RELEASE = AcqRel;
    /// Clearing a hazard slot after the protected access: release keeps
    /// the protected reads ordered before the slot is surrendered to the
    /// scanner.
    HP_CLEAR = Release;
    /// Load of the node pool's packed spill-stack head (`version<<48 |
    /// addr`). Acquire pairs with [`POOL_CAS`]'s release so a popped
    /// node's header link (written by the pusher) is visible.
    POOL_HEAD_LOAD = Acquire;
    /// Success ordering of the spill-stack head CAS (push and pop).
    /// Release publishes the pushed node's header; acquire orders the
    /// popper behind the push it consumes. The 16-bit version stamped
    /// into the head on every transition is the ABA defense — correctness
    /// never rides on the ordering of the header link itself.
    POOL_CAS = AcqRel;
    /// Failure ordering of the spill-stack head CAS: the loaded word is
    /// fed straight back into the retry loop.
    POOL_CAS_FAIL = Relaxed;
    /// Reads/writes of a pooled node's header link. Relaxed: the link is
    /// only trusted after the versioned head CAS validates it, and pooled
    /// nodes are never individually freed, so a stale read is harmless.
    POOL_NEXT = Relaxed;
    /// A lane ring's single end publishing its own monotone cursor
    /// (producer's `tail` store after filling slots, consumer's `head`
    /// store after draining them), and a shared end stamping a slot's
    /// `seq` word. Release: the slot writes/reads it covers must be
    /// visible before the opposite end trusts the new cursor or stamp.
    /// The cursor store *is* the batched-publication point — a native
    /// batch writes k slots and issues it once.
    SPSC_PUBLISH = Release;
    /// A lane ring single end's read of the *opposite* cursor (producer
    /// reloading `head` when its shadow says full, consumer reloading
    /// `tail` when its shadow says empty). Acquire pairs with
    /// [`SPSC_PUBLISH`]; a stale value costs a spurious `Full`/`None`,
    /// never safety, because each cursor is monotone.
    SPSC_CURSOR_LOAD = Acquire;
    /// A lane ring single end's read of its *own* cursor. Relaxed: the
    /// claimant is the only writer of that cursor, so it always reads its
    /// own latest store.
    SPSC_OWN_CURSOR = Relaxed;
    /// Loads of a lane's arity-registration word (claimed-endpoint bits +
    /// the sticky `PROMOTED` flag). Acquire pairs with [`ARITY_CAS`] so a
    /// thread that observes a claim/promotion also observes the ring
    /// state published before it. A stale read is conservative: a missed
    /// promotion only delays a producer's switch to the MPMC lane, which
    /// the ring-first dequeue rule tolerates by construction.
    ARITY_LOAD = Acquire;
    /// CASes on the arity-registration word (endpoint claim/release,
    /// promotion). Release publishes the claimer's prior state; acquire
    /// orders it behind the claim it replaces.
    ARITY_CAS = AcqRel;
    /// Failure ordering of arity CASes: the loaded word feeds straight
    /// back into the claim/promote retry loop.
    ARITY_CAS_FAIL = Relaxed;
    /// Plain stores of SCQ/wCQ ring bookkeeping (ring initialization and
    /// the livelock-threshold reset after a successful enqueue, Nikolaev
    /// Fig. 5). Release pairs with the dequeuers' [`INDEX_LOAD`]-class
    /// acquire of the threshold: a dequeuer that observes the reset also
    /// observes the slot fill published before it, so the extra attempts
    /// the reset grants always have something to find. A *missed* reset
    /// costs at most one spurious empty re-probe — the enqueued entry
    /// itself is published by [`SLOT_CAS`].
    RING_STORE = Release;
    /// Fetch-and-add tickets on the shared end of a half-relaxed lane
    /// ring (`MpscRing` producers bumping `tail`, `SpmcRing` consumers
    /// bumping `head`). AcqRel: the RMW chain on the position counter is
    /// what carries a peer's view of the opposite cursor to later ticket
    /// holders — ticket `t`'s holder synchronizes with every earlier
    /// ticket's FAA, and through the one whose grant came last, with the
    /// single end's cursor release that freed slot `t - N` (fan-in) or
    /// published position `t` (fan-out). See the "last grant" argument in
    /// `nbq_core::arity_ring`.
    RING_TICKET = AcqRel;
    /// RMWs on a half-relaxed ring's grant counter (`granted`: the units
    /// a shared end's registrants drew, net of refunds; only the shared
    /// end touches it). The reuse-safety argument rests on the counter's
    /// modification order alone — the happens-before edges run through
    /// the opposite cursor's acquire load and [`RING_TICKET`] — so this
    /// is stronger than the protocol needs; it is an RMW on a line only
    /// the shared end writes, where `AcqRel` costs nothing extra on x86.
    RING_GATE = AcqRel;
}

/// CASes that install or remove a `CasQueue` reservation tag in a slot
/// (line L12's tag install, the own-tag "SC" of E13/D13, and every
/// restore). SC-pinned: each tag transition is one of the four edges of
/// the reader/owner store-buffering cycle (see [`REFCOUNT_GATE`]); the
/// total order over these SC operations is what forbids a reader trusting
/// a re-installed tag while the owner has already passed its gate. Free
/// pinning: CAS compiles to `lock cmpxchg`/`ldaxr;stlxr` at `AcqRel`
/// already.
pub const TAG_CAS: Ordering = Ordering::SeqCst;
/// Failure ordering of tag CASes: the observed value is re-examined
/// through `SLOT_LOAD`/`TAG_REVALIDATE` before any further trust.
pub const TAG_CAS_FAIL: Ordering = Ordering::Relaxed;
/// Reader's re-read of the slot *after* its refcount increment (the
/// second half of the L5–L7 correction; see DESIGN.md §3). SC-pinned:
/// this is the reader's "load" edge of the store-buffering cycle — at
/// `Acquire` both the reader and the owner could miss each other's
/// writes. Free pinning: SC loads are `mov`/`ldar`.
pub const TAG_REVALIDATE: Ordering = Ordering::SeqCst;
/// Reader's `FetchAndAdd(&var->r, 1)` (line L7). SC-pinned: the reader's
/// "store" edge of the cycle, the exact analogue of hazard-pointer
/// publication. Free pinning: RMW.
pub const REFCOUNT_ACQUIRE: Ordering = Ordering::SeqCst;
/// Owner's `r == 1` check in `ReRegister` (line RR2), run before every
/// link attempt (DESIGN.md §3 correction). SC-pinned: the owner's "load"
/// edge — if this read misses a reader's increment, the SC total order
/// forces that reader's `TAG_REVALIDATE` to see the owner's tag removal
/// and retry. Free pinning: SC loads are `mov`/`ldar`.
pub const REFCOUNT_GATE: Ordering = Ordering::SeqCst;
/// Publishing a hazard pointer (Michael, TPDS 2004: the store of the
/// protected address). SC-pinned per the paper's Fig. 2 requirement — the
/// store must be ordered before the re-validating load on the reader side
/// and before the scanner's reads on the reclaimer side; this is the one
/// SC *store* we keep, and it is inherent to hazard pointers, not to the
/// queues.
pub const HP_PUBLISH: Ordering = Ordering::SeqCst;
/// The re-read of the source pointer that validates a just-published
/// hazard (`protect_ptr`'s loop load). SC-pinned: reader's "load" edge.
pub const HP_VALIDATE: Ordering = Ordering::SeqCst;
/// The scanner's reads of all published hazard slots. SC-pinned: with
/// the unlinking CAS sequenced before the scan, the C++17 SC-fence/SC-op
/// coherence rules guarantee a reader that the scan missed will fail its
/// `HP_VALIDATE` re-read. Free pinning: SC loads are `mov`/`ldar`.
pub const HP_SCAN: Ordering = Ordering::SeqCst;

/// The ordering mode this workspace was compiled with: `"relaxed"` for
/// the per-site policy above, `"seqcst"` under `--features strict-sc`.
/// The `abl-ordering` experiment stamps its rows with this so results
/// from the two builds can sit in one table.
pub fn mode() -> &'static str {
    if cfg!(feature = "strict-sc") {
        "seqcst"
    } else {
        "relaxed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxable_names_follow_the_feature() {
        if cfg!(feature = "strict-sc") {
            assert_eq!(INDEX_LOAD, Ordering::SeqCst);
            assert_eq!(INDEX_CAS, Ordering::SeqCst);
            assert_eq!(CELL_SC, Ordering::SeqCst);
            assert_eq!(NODE_PUBLISH, Ordering::SeqCst);
            assert_eq!(POOL_CAS, Ordering::SeqCst);
            assert_eq!(SPSC_PUBLISH, Ordering::SeqCst);
            assert_eq!(SPSC_CURSOR_LOAD, Ordering::SeqCst);
            assert_eq!(ARITY_CAS, Ordering::SeqCst);
            assert_eq!(RING_TICKET, Ordering::SeqCst);
            assert_eq!(RING_GATE, Ordering::SeqCst);
            assert_eq!(mode(), "seqcst");
        } else {
            assert_eq!(INDEX_LOAD, Ordering::Acquire);
            assert_eq!(INDEX_CAS, Ordering::AcqRel);
            assert_eq!(CELL_SC, Ordering::AcqRel);
            assert_eq!(NODE_PUBLISH, Ordering::Release);
            assert_eq!(POOL_HEAD_LOAD, Ordering::Acquire);
            assert_eq!(POOL_CAS, Ordering::AcqRel);
            assert_eq!(SPSC_PUBLISH, Ordering::Release);
            assert_eq!(SPSC_CURSOR_LOAD, Ordering::Acquire);
            assert_eq!(SPSC_OWN_CURSOR, Ordering::Relaxed);
            assert_eq!(ARITY_LOAD, Ordering::Acquire);
            assert_eq!(ARITY_CAS, Ordering::AcqRel);
            assert_eq!(RING_TICKET, Ordering::AcqRel);
            assert_eq!(RING_GATE, Ordering::AcqRel);
            assert_eq!(mode(), "relaxed");
        }
    }

    #[test]
    fn dekker_sites_are_pinned_in_every_mode() {
        // The store-buffering participants must stay SeqCst even in the
        // relaxed build; a regression here is a memory-safety bug, not a
        // performance choice.
        assert_eq!(TAG_CAS, Ordering::SeqCst);
        assert_eq!(TAG_REVALIDATE, Ordering::SeqCst);
        assert_eq!(REFCOUNT_ACQUIRE, Ordering::SeqCst);
        assert_eq!(REFCOUNT_GATE, Ordering::SeqCst);
        assert_eq!(HP_PUBLISH, Ordering::SeqCst);
        assert_eq!(HP_VALIDATE, Ordering::SeqCst);
        assert_eq!(HP_SCAN, Ordering::SeqCst);
    }

    #[test]
    fn cas_failure_orderings_are_valid_for_compare_exchange() {
        // compare_exchange rejects Release/AcqRel failure orderings at
        // runtime; make sure no feature combination produces one.
        for fail in [
            INDEX_CAS_FAIL,
            SLOT_CAS_FAIL,
            CELL_SC_FAIL,
            TAG_CAS_FAIL,
            POOL_CAS_FAIL,
            ARITY_CAS_FAIL,
        ] {
            assert!(matches!(
                fail,
                Ordering::Relaxed | Ordering::Acquire | Ordering::SeqCst
            ));
        }
    }
}
