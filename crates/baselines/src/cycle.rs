//! Cycle-index arithmetic shared by the modern-rival ring baselines
//! ([`crate::scq`], [`crate::wcq`]).
//!
//! Both queues index a power-of-two ring with an *unbounded* monotone
//! position counter (advanced by fetch-and-add or CAS) and stamp each ring
//! entry with the **cycle** — the lap number `position >> order` — so that
//! a slot can tell "filled this lap" apart from "leftover from an earlier
//! lap" without per-slot version counters. The entry word has fewer than
//! 64 bits left for the cycle once the index/flag fields are packed in, so
//! every stored cycle is *truncated*; comparisons must therefore be
//! **wrapping** (two's-complement difference within the truncated width),
//! exactly like a seqlock or TCP sequence-number compare. These helpers
//! centralize that arithmetic; `tests/properties.rs` drives them through
//! the wrap-around edge cases and the Miri CI leg interprets the unit
//! tests below. The position-to-slot cache remap both rings use is
//! [`nbq_util::ring_slot`].

/// The lap number of unbounded ring position `pos` on a ring of
/// `1 << order` entries.
#[inline]
pub fn position_cycle(pos: u64, order: u32) -> u64 {
    pos >> order
}

/// Wrapping "less than" on cycles truncated to `bits` bits: true iff `a`
/// precedes `b` by less than half the cycle space.
///
/// Entry words store truncated cycles, so after `2^bits` laps the raw
/// values wrap; interpreting the difference as a signed `bits`-wide
/// integer keeps comparisons correct as long as live entries never span
/// more than half the space — guaranteed here because a ring holds at
/// most one pending lap (entries are consumed before the position counter
/// can lap them again).
#[inline]
pub fn cycle_lt(a: u64, b: u64, bits: u32) -> bool {
    let mask = ones(bits);
    // Sign bit of the `bits`-wide difference a - b (zero difference has
    // sign 0, so equality correctly reads as "not less").
    (a.wrapping_sub(b) & mask) >> (bits - 1) == 1
}

/// Wrapping equality on cycles truncated to `bits` bits.
#[inline]
pub fn cycle_eq(a: u64, b: u64, bits: u32) -> bool {
    let mask = ones(bits);
    (a & mask) == (b & mask)
}

/// Wrapping `a <= b` on the *untruncated* 64-bit position counters
/// (head/tail tickets). Positions in flight are always within `2^63` of
/// each other, so the two's-complement sign of the difference decides.
#[inline]
pub fn pos_le(a: u64, b: u64) -> bool {
    (b.wrapping_sub(a) as i64) >= 0
}

/// A mask of `bits` low ones (`bits` ≤ 64).
#[inline]
pub fn ones(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_compare_is_wrapping() {
        // Plain small cycles.
        assert!(cycle_lt(0, 1, 16));
        assert!(!cycle_lt(1, 0, 16));
        assert!(!cycle_lt(5, 5, 16));
        assert!(cycle_eq(5, 5, 16));
        // The all-ones "initial" cycle reads as -1: less than 0.
        assert!(cycle_lt(ones(16), 0, 16));
        assert!(cycle_lt(ones(16) - 1, ones(16), 16));
        // Across the wrap boundary: 0xFFFF < 0x0000 < 0x0001.
        assert!(cycle_lt(0xFFFF, 0x0001, 16));
        // Truncation: cycles equal mod 2^bits compare equal.
        assert!(cycle_eq(0x1_0005, 0x0005, 16));
        assert!(!cycle_lt(0x1_0005, 0x0005, 16));
    }

    #[test]
    fn position_compare_is_wrapping() {
        assert!(pos_le(0, 0));
        assert!(pos_le(3, 7));
        assert!(!pos_le(7, 3));
        // Near the u64 wrap: MAX precedes 1 (difference 2 < 2^63).
        assert!(pos_le(u64::MAX, 1));
        assert!(!pos_le(1, u64::MAX));
    }
}
