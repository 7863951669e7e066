//! Software multi-word compare-and-swap, in the style of Harris, Fraser &
//! Pratt, *A Practical Multi-Word Compare-and-Swap Operation* (DISC 2002).
//!
//! ## Why this exists in a FIFO-queue reproduction
//!
//! The ICPP'08 paper's related-work section dismisses Valois's 1995
//! circular-array queue because "both enqueue and dequeue operations
//! require that two array locations which may not be adjacent be
//! simultaneously updated with a CAS primitive. Unfortunately this
//! primitive is not available on modern processors." This crate *builds*
//! that primitive out of single-word CAS so the workspace can implement a
//! Valois-style queue and **measure** what the missing hardware support
//! costs (experiment `ext-modern` / the `valois` rows), instead of only
//! citing the objection.
//!
//! ## Construction
//!
//! Classic two-layer recipe:
//!
//! * **RDCSS** (restricted double-compare single-swap): writes `new2`
//!   into `a2` iff `*a1 == expect1 ∧ *a2 == expect2`, where `a1` is
//!   always an MCAS status word. Implemented by parking a small
//!   descriptor in `a2` (low-bits tag `01`), then completing it.
//! * **MCAS**: a descriptor (tag `11`) holding `(addr, expect, new)`
//!   entries sorted by address and a status word
//!   (`UNDECIDED → SUCCEEDED | FAILED`). Phase 1 installs the descriptor
//!   into every location via RDCSS (helping any other MCAS it trips
//!   over); phase 2 resolves the status and replaces the descriptor with
//!   the new (or old) values.
//!
//! Any thread that encounters a descriptor helps complete it, so the
//! operation is lock-free. Descriptors are reclaimed through
//! [`nbq_hazard`]: a helper protects a descriptor pointer and re-validates
//! the cell before dereferencing, and the initiating thread retires the
//! descriptor once its operation is decided and detached.
//!
//! ## Value representation
//!
//! Cells hold `u64` values whose **two low bits must be zero** (the tag
//! space). That fits both users in this workspace: 8-aligned node
//! addresses, and counters stored shifted left by two
//! ([`McasCell::encode_counter`]).
//!
//! ```
//! use nbq_mcas::{Mcas, McasCell};
//!
//! let domain = Mcas::new();
//! let mut local = domain.register();
//! let a = McasCell::new(0);
//! let b = McasCell::new(8);
//!
//! // Succeeds only if *both* expectations hold; writes both or neither.
//! assert!(local.cas2(&a, 0, 4, &b, 8, 12));
//! assert!(!local.cas2(&a, 0, 16, &b, 12, 16)); // a no longer holds 0
//! assert_eq!(local.read(&a), 4);
//! assert_eq!(local.read(&b), 12);
//! ```

#![warn(missing_docs)]

use nbq_hazard::{Domain as HazardDomain, LocalHazards};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tag of a parked RDCSS descriptor.
const TAG_RDCSS: u64 = 0b01;
/// Tag of a parked MCAS descriptor.
const TAG_MCAS: u64 = 0b11;
const TAG_MASK: u64 = 0b11;

/// MCAS status values.
const UNDECIDED: u64 = 0;
const SUCCEEDED: u64 = 1;
const FAILED: u64 = 2;

/// Hazard slot reserved for RDCSS descriptors (leaf helping, never
/// nested per thread).
const HP_RDCSS: usize = 4;
/// Hazard slot for the MCAS descriptor *owning* an RDCSS being helped
/// (its status word must stay readable while the RDCSS completes).
const HP_RDCSS_OWNER: usize = 5;
/// MCAS descriptors are protected at the slot equal to the helping depth
/// (0..MAX_HELP_DEPTH); beyond the cap a thread spins instead of helping
/// further (others drive the chain forward), keeping every live
/// protection on its own slot.
const MAX_HELP_DEPTH: usize = 4;

/// A shared cell updatable by [`Mcas::cas2`] / readable by
/// [`Mcas::read`].
///
/// Plain values must have their two low bits clear.
#[derive(Debug)]
pub struct McasCell {
    word: AtomicU64,
}

impl McasCell {
    /// Creates a cell. Panics if `value` uses the tag bits.
    pub fn new(value: u64) -> Self {
        assert_eq!(value & TAG_MASK, 0, "low two bits are reserved");
        Self {
            word: AtomicU64::new(value),
        }
    }

    /// Encodes an arbitrary 62-bit counter into the value space.
    #[inline]
    pub fn encode_counter(counter: u64) -> u64 {
        debug_assert!(counter < (1 << 62));
        counter << 2
    }

    /// Inverse of [`McasCell::encode_counter`].
    #[inline]
    pub fn decode_counter(value: u64) -> u64 {
        value >> 2
    }

    /// Non-atomic read for exclusive contexts (e.g. `Drop`); the cell
    /// must be quiescent (no parked descriptor).
    pub fn load_exclusive(&self) -> u64 {
        let v = self.word.load(Ordering::Acquire);
        debug_assert_eq!(v & TAG_MASK, 0, "descriptor parked during teardown");
        v
    }
}

struct RdcssDesc {
    /// The owning MCAS descriptor (whose status conditions the write).
    owner: *const McasDesc,
    expect_status: u64,
    expect: u64,
    new: u64, // the tagged MCAS descriptor pointer
}

struct McasDesc {
    status: AtomicU64,
    /// Sorted by cell address (global lock-free ordering prevents two
    /// MCASes from installing into each other's footprint in opposite
    /// orders forever).
    entries: Vec<Entry>,
}

struct Entry {
    cell: *const McasCell,
    expect: u64,
    new: u64,
}

/// An MCAS domain: the hazard domain that guards descriptor reclamation.
///
/// All cells updated through one `Mcas` must outlive it; handles borrow
/// the domain.
pub struct Mcas {
    hazard: HazardDomain,
}

// SAFETY: descriptor pointers are managed via hazard pointers; cells are
// atomics.
unsafe impl Send for Mcas {}
unsafe impl Sync for Mcas {}

impl Default for Mcas {
    fn default() -> Self {
        Self::new()
    }
}

impl Mcas {
    /// Creates an MCAS domain.
    pub fn new() -> Self {
        Self {
            hazard: HazardDomain::default(),
        }
    }

    /// Registers the calling thread.
    pub fn register(&self) -> McasLocal<'_> {
        McasLocal {
            hp: self.hazard.register(),
        }
    }
}

/// Per-thread handle for [`Mcas`] operations.
pub struct McasLocal<'d> {
    hp: LocalHazards<'d>,
}

impl McasLocal<'_> {
    /// Double-word CAS over two cells.
    ///
    /// Atomically: if `*a == ae ∧ *b == be` then `*a = an; *b = bn` and
    /// return true. The cells may be any two distinct [`McasCell`]s.
    ///
    /// All four values must have clear tag bits.
    pub fn cas2(&mut self, a: &McasCell, ae: u64, an: u64, b: &McasCell, be: u64, bn: u64) -> bool {
        assert!(!std::ptr::eq(a, b), "cas2 requires two distinct cells");
        for v in [ae, an, be, bn] {
            debug_assert_eq!(v & TAG_MASK, 0, "value uses reserved tag bits");
        }
        // Sort by address (see McasDesc::entries).
        let (e1, e2) = if (a as *const McasCell) < (b as *const McasCell) {
            (
                Entry {
                    cell: a,
                    expect: ae,
                    new: an,
                },
                Entry {
                    cell: b,
                    expect: be,
                    new: bn,
                },
            )
        } else {
            (
                Entry {
                    cell: b,
                    expect: be,
                    new: bn,
                },
                Entry {
                    cell: a,
                    expect: ae,
                    new: an,
                },
            )
        };
        self.run_mcas(vec![e1, e2])
    }

    /// General N-word CAS: every `(cell, expect, new)` triple is applied
    /// atomically iff every `expect` matches.
    ///
    /// Cells must be pairwise distinct; values must have clear tag bits.
    pub fn cas_n(&mut self, ops: &[(&McasCell, u64, u64)]) -> bool {
        assert!(!ops.is_empty(), "cas_n of zero entries");
        let mut entries: Vec<Entry> = ops
            .iter()
            .map(|&(cell, expect, new)| {
                debug_assert_eq!(expect & TAG_MASK, 0);
                debug_assert_eq!(new & TAG_MASK, 0);
                Entry { cell, expect, new }
            })
            .collect();
        entries.sort_by_key(|e| e.cell as usize);
        assert!(
            entries
                .windows(2)
                .all(|w| !std::ptr::eq(w[0].cell, w[1].cell)),
            "cas_n requires pairwise distinct cells"
        );
        self.run_mcas(entries)
    }

    fn run_mcas(&mut self, entries: Vec<Entry>) -> bool {
        let desc = Box::into_raw(Box::new(McasDesc {
            status: AtomicU64::new(UNDECIDED),
            entries,
        }));
        debug_assert_eq!(desc as u64 & TAG_MASK, 0);
        // SAFETY: desc is live; we are the initiator.
        let outcome = unsafe { mcas_help(&mut self.hp, desc, 0) };
        // The operation is decided and phase 2 detached the descriptor
        // from every cell; helpers may still hold hazard references.
        // SAFETY: desc came from Box::into_raw and is retired exactly once
        // (only the initiator retires).
        unsafe { self.hp.retire_box(desc) };
        outcome == SUCCEEDED
    }

    /// Reads a cell, helping any in-flight operation it trips over.
    pub fn read(&mut self, cell: &McasCell) -> u64 {
        loop {
            let v = cell.word.load(Ordering::SeqCst);
            match v & TAG_MASK {
                0 => return v,
                TAG_RDCSS => {
                    // SAFETY: protected+revalidated inside.
                    unsafe { help_rdcss_at(&mut self.hp, cell, v) };
                }
                _ => {
                    // SAFETY: protected+revalidated inside.
                    unsafe { help_mcas_at(&mut self.hp, cell, v, 0) };
                }
            }
        }
    }
}

/// Protects the descriptor tagged in `tagged` (found in `cell`) and
/// re-validates; returns the raw pointer if still current.
///
/// # Safety
///
/// `tagged` was just loaded from `cell` and carries a descriptor tag.
unsafe fn protect_desc<T>(
    hp: &LocalHazards<'_>,
    slot: usize,
    cell: &McasCell,
    tagged: u64,
) -> Option<*mut T> {
    let raw = (tagged & !TAG_MASK) as *mut T;
    hp.set(slot, raw as usize);
    if cell.word.load(Ordering::SeqCst) != tagged {
        hp.clear(slot);
        return None;
    }
    Some(raw)
}

/// Completes the RDCSS whose tagged descriptor `tagged` sits in `cell`.
///
/// # Safety
///
/// `tagged` has tag `01` and was just loaded from `cell`.
unsafe fn help_rdcss_at(hp: &mut LocalHazards<'_>, cell: &McasCell, tagged: u64) {
    // SAFETY: per contract; revalidated by protect_desc.
    let Some(desc) = (unsafe { protect_desc::<RdcssDesc>(hp, HP_RDCSS, cell, tagged) }) else {
        return;
    };
    // SAFETY: desc is hazard-protected and was current in the cell, so its
    // creator has not retired+freed it (a creator detaches before
    // retiring).
    let d = unsafe { &*desc };
    // Protect the *owning* MCAS descriptor before touching its status:
    // while the RDCSS stays parked its creator is still inside mcas_help
    // (owner alive), and once our hazard is validated against the still-
    // parked cell the owner cannot be reclaimed out from under us.
    hp.set(HP_RDCSS_OWNER, d.owner as usize);
    if cell.word.load(Ordering::SeqCst) != tagged {
        // Detached while we were arming; whoever detached it also
        // resolved it.
        hp.clear(HP_RDCSS_OWNER);
        hp.clear(HP_RDCSS);
        return;
    }
    // SAFETY: owner is hazard-protected and was alive at validation.
    let status_ok = unsafe { &*d.owner }.status.load(Ordering::SeqCst) == d.expect_status;
    let replacement = if status_ok { d.new } else { d.expect };
    let _ = cell
        .word
        .compare_exchange(tagged, replacement, Ordering::SeqCst, Ordering::SeqCst);
    hp.clear(HP_RDCSS_OWNER);
    hp.clear(HP_RDCSS);
}

/// Helps the MCAS whose tagged descriptor `tagged` sits in `cell`.
///
/// The descriptor is protected at hazard slot `depth`, so each level of a
/// helping chain keeps its own protection live (depth is capped by the
/// caller at [`MAX_HELP_DEPTH`]).
///
/// # Safety
///
/// `tagged` has tag `11`, was just loaded from `cell`, and
/// `depth < MAX_HELP_DEPTH`.
unsafe fn help_mcas_at(hp: &mut LocalHazards<'_>, cell: &McasCell, tagged: u64, depth: usize) {
    debug_assert!(depth < MAX_HELP_DEPTH);
    // SAFETY: per contract.
    let Some(desc) = (unsafe { protect_desc::<McasDesc>(hp, depth, cell, tagged) }) else {
        return;
    };
    // SAFETY: hazard-protected, revalidated.
    unsafe { mcas_help(hp, desc, depth + 1) };
    hp.clear(depth);
}

/// Drives `desc` to completion (phases 1 and 2); returns the decided
/// status.
///
/// # Safety
///
/// `desc` is live: either owned by the caller (initiator) or
/// hazard-protected (helper).
unsafe fn mcas_help(hp: &mut LocalHazards<'_>, desc: *mut McasDesc, depth: usize) -> u64 {
    // SAFETY: per contract.
    let d = unsafe { &*desc };
    let tagged = desc as u64 | TAG_MCAS;

    // Phase 1: install the descriptor into every entry via RDCSS.
    'phase1: while d.status.load(Ordering::SeqCst) == UNDECIDED {
        for e in &d.entries {
            // SAFETY: cells outlive the Mcas domain per its contract.
            let cell = unsafe { &*e.cell };
            loop {
                if d.status.load(Ordering::SeqCst) != UNDECIDED {
                    break 'phase1;
                }
                let cur = cell.word.load(Ordering::SeqCst);
                if cur == tagged {
                    break; // already installed (possibly by a helper)
                }
                match cur & TAG_MASK {
                    0 => {
                        if cur != e.expect {
                            let _ = d.status.compare_exchange(
                                UNDECIDED,
                                FAILED,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            );
                            break 'phase1;
                        }
                        // RDCSS: park a conditional descriptor, then
                        // resolve it against our status word.
                        let r = Box::into_raw(Box::new(RdcssDesc {
                            owner: desc,
                            expect_status: UNDECIDED,
                            expect: e.expect,
                            new: tagged,
                        }));
                        let r_tagged = r as u64 | TAG_RDCSS;
                        let installed = cell
                            .word
                            .compare_exchange(cur, r_tagged, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok();
                        if installed {
                            // Complete our own RDCSS (helpers may race us
                            // benignly — the completion CAS is idempotent).
                            let status_ok = d.status.load(Ordering::SeqCst) == UNDECIDED;
                            let replacement = if status_ok { tagged } else { e.expect };
                            let _ = cell.word.compare_exchange(
                                r_tagged,
                                replacement,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            );
                        }
                        // SAFETY: detached (or never parked); helpers may
                        // still hold it — defer through the hazard domain.
                        unsafe { hp.retire_box(r) };
                        // Loop to confirm installation.
                    }
                    TAG_RDCSS => {
                        // SAFETY: just loaded with that tag.
                        unsafe { help_rdcss_at(hp, cell, cur) };
                    }
                    _ => {
                        // Another MCAS owns the cell: help it first
                        // (bounded depth; beyond the cap, spin — the
                        // threads already in the chain make progress).
                        if depth < MAX_HELP_DEPTH {
                            // SAFETY: just loaded with that tag.
                            unsafe { help_mcas_at(hp, cell, cur, depth) };
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        }
        // Every entry holds our descriptor: decide success.
        let _ = d
            .status
            .compare_exchange(UNDECIDED, SUCCEEDED, Ordering::SeqCst, Ordering::SeqCst);
    }

    // Phase 2: detach the descriptor, writing new or old values.
    let status = d.status.load(Ordering::SeqCst);
    for e in &d.entries {
        // SAFETY: as above.
        let cell = unsafe { &*e.cell };
        let replacement = if status == SUCCEEDED { e.new } else { e.expect };
        let _ = cell
            .word
            .compare_exchange(tagged, replacement, Ordering::SeqCst, Ordering::SeqCst);
    }
    status
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cas2_succeeds_when_both_match() {
        let m = Mcas::new();
        let mut l = m.register();
        let a = McasCell::new(0);
        let b = McasCell::new(8);
        assert!(l.cas2(&a, 0, 4, &b, 8, 12));
        assert_eq!(l.read(&a), 4);
        assert_eq!(l.read(&b), 12);
    }

    #[test]
    fn cas2_fails_when_either_mismatches() {
        let m = Mcas::new();
        let mut l = m.register();
        let a = McasCell::new(0);
        let b = McasCell::new(8);
        assert!(!l.cas2(&a, 4, 16, &b, 8, 12), "a mismatches");
        assert_eq!(l.read(&a), 0);
        assert_eq!(l.read(&b), 8, "b must be untouched on failure");
        assert!(!l.cas2(&a, 0, 16, &b, 4, 12), "b mismatches");
        assert_eq!(l.read(&a), 0, "a must be rolled back");
    }

    #[test]
    fn cas2_is_atomic_under_contention() {
        // Two cells must always carry equal values if every update writes
        // (v, v) -> (v+4, v+4) atomically.
        const THREADS: usize = 4;
        const OPS: usize = 2_000;
        let m = Mcas::new();
        let a = McasCell::new(0);
        let b = McasCell::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let m = &m;
                let a = &a;
                let b = &b;
                s.spawn(move || {
                    let mut l = m.register();
                    let mut done = 0;
                    while done < OPS {
                        // Two reads are no snapshot: a peer's `cas2` can
                        // land between them. Values only grow, so an
                        // unchanged re-read of `a` brackets `b`'s read
                        // within one state of the pair.
                        let (va, vb) = loop {
                            let va = l.read(a);
                            let vb = l.read(b);
                            if l.read(a) == va {
                                break (va, vb);
                            }
                        };
                        assert_eq!(va, vb, "atomicity violated");
                        if l.cas2(a, va, va + 4, b, vb, vb + 4) {
                            done += 1;
                        }
                    }
                });
            }
        });
        let mut l = m.register();
        assert_eq!(l.read(&a), (THREADS * OPS * 4) as u64);
        assert_eq!(l.read(&b), (THREADS * OPS * 4) as u64);
    }

    #[test]
    fn disjoint_pairs_make_progress() {
        // Opposite-order acquisition across overlapping pairs must not
        // deadlock (address-sorted installation).
        let m = Mcas::new();
        let a = McasCell::new(0);
        let b = McasCell::new(0);
        let c = McasCell::new(0);
        std::thread::scope(|s| {
            {
                let (m, a, b) = (&m, &a, &b);
                s.spawn(move || {
                    let mut l = m.register();
                    for _ in 0..1_000 {
                        loop {
                            let (x, y) = (l.read(a), l.read(b));
                            if l.cas2(a, x, x + 4, b, y, y + 4) {
                                break;
                            }
                        }
                    }
                });
            }
            {
                let (m, b, c) = (&m, &b, &c);
                s.spawn(move || {
                    let mut l = m.register();
                    for _ in 0..1_000 {
                        loop {
                            let (x, y) = (l.read(c), l.read(b));
                            if l.cas2(c, x, x + 4, b, y, y + 4) {
                                break;
                            }
                        }
                    }
                });
            }
        });
        let mut l = m.register();
        assert_eq!(l.read(&a), 4_000);
        assert_eq!(l.read(&c), 4_000);
        assert_eq!(l.read(&b), 8_000);
    }

    #[test]
    fn counter_encoding_round_trips() {
        for c in [0u64, 1, 2, 12345, (1 << 62) - 1] {
            assert_eq!(McasCell::decode_counter(McasCell::encode_counter(c)), c);
            assert_eq!(McasCell::encode_counter(c) & TAG_MASK, 0);
        }
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn tagged_initial_value_panics() {
        McasCell::new(3);
    }

    #[test]
    #[should_panic(expected = "distinct cells")]
    fn same_cell_twice_panics() {
        let m = Mcas::new();
        let mut l = m.register();
        let a = McasCell::new(0);
        l.cas2(&a, 0, 4, &a, 0, 8);
    }

    #[test]
    fn cas_n_three_cells_is_atomic() {
        let m = Mcas::new();
        let mut l = m.register();
        let cells: Vec<McasCell> = (0..3).map(|i| McasCell::new(i * 4)).collect();
        let ops: Vec<(&McasCell, u64, u64)> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| (c, (i as u64) * 4, (i as u64) * 4 + 100))
            .collect();
        assert!(l.cas_n(&ops));
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(l.read(c), (i as u64) * 4 + 100);
        }
        // Mismatch on any entry rolls everything back.
        let bad: Vec<(&McasCell, u64, u64)> = cells.iter().map(|c| (c, 0, 200)).collect();
        assert!(!l.cas_n(&bad));
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(l.read(c), (i as u64) * 4 + 100, "rolled back");
        }
    }

    #[test]
    fn cas_n_concurrent_transfers_conserve_sum() {
        // "Bank accounts": each op moves 4 units between two of three
        // cells via cas_n; the total must be conserved exactly.
        let m = Mcas::new();
        let cells: Vec<McasCell> = (0..3).map(|_| McasCell::new(400)).collect();
        std::thread::scope(|s| {
            for t in 0..3usize {
                let m = &m;
                let cells = &cells;
                s.spawn(move || {
                    let mut l = m.register();
                    let (from, to) = (t % 3, (t + 1) % 3);
                    let mut done = 0;
                    while done < 500 {
                        let a = l.read(&cells[from]);
                        let b = l.read(&cells[to]);
                        if a < 4 {
                            // Recipient-only op to unblock: skip.
                            std::thread::yield_now();
                            continue;
                        }
                        if l.cas_n(&[(&cells[from], a, a - 4), (&cells[to], b, b + 4)]) {
                            done += 1;
                        }
                    }
                });
            }
        });
        let mut l = m.register();
        let total: u64 = cells.iter().map(|c| l.read(c)).sum();
        assert_eq!(total, 1200, "transfers must conserve the sum");
    }

    #[test]
    #[should_panic(expected = "pairwise distinct")]
    fn cas_n_duplicate_cells_panics() {
        let m = Mcas::new();
        let mut l = m.register();
        let a = McasCell::new(0);
        let ops = [(&a, 0u64, 4u64), (&a, 0u64, 8u64)];
        l.cas_n(&ops);
    }

    #[test]
    fn read_returns_plain_values_quickly() {
        let m = Mcas::new();
        let mut l = m.register();
        let a = McasCell::new(40);
        assert_eq!(l.read(&a), 40);
        assert_eq!(a.load_exclusive(), 40);
    }
}
