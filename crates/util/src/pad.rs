//! False-sharing avoidance: cache-line padding for hot shared variables
//! ([`CachePadded`]) and the cache remap that spreads a ring's adjacent
//! positions across lines ([`ring_slot`]).

use core::fmt;
use core::ops::{Deref, DerefMut};

/// Pads and aligns a value to (at least) one cache line.
///
/// The `Head` and `Tail` counters of the array queues are written by
/// different sets of threads; placing them on distinct cache lines avoids
/// the coherence ping-pong the paper's evaluation section is implicitly
/// fighting on its PowerPC/AMD test machines.
///
/// 128 bytes covers the adjacent-line prefetcher pairs on modern x86 as well
/// as the 128-byte lines on Apple Silicon and POWER.
#[derive(Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in cache-line padding.
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Consumes the padding wrapper, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CachePadded").field(&self.value).finish()
    }
}

impl<T: Clone> Clone for CachePadded<T> {
    fn clone(&self) -> Self {
        Self::new(self.value.clone())
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

/// Maps a ring position to a physical slot, spreading *adjacent* positions
/// across cache lines (Nikolaev's "cache remap", arXiv 1908.04511).
///
/// Eight `u64` entries share a 64-byte line, so with the identity map the
/// hot head/tail positions of a busy ring all contend on one line. The
/// remap rotates the masked position right by three bits within the
/// `order`-bit field of a `1 << order`-entry ring: consecutive positions
/// land `2^(order-3)` slots apart (distinct lines once the ring has ≥ 64
/// entries) while remaining a pure permutation of each lap. Rings under
/// 16 entries keep the identity map (rotating a field of at most three
/// bits by three is the identity) — there is nothing to spread.
#[inline]
pub fn ring_slot(pos: u64, order: u32) -> usize {
    let mask = (1u64 << order) - 1;
    let i = pos & mask;
    if order >= 3 {
        (((i >> 3) | (i << (order - 3))) & mask) as usize
    } else {
        i as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::mem::{align_of, size_of};
    use core::sync::atomic::AtomicU64;

    #[test]
    fn alignment_is_at_least_128() {
        assert!(align_of::<CachePadded<AtomicU64>>() >= 128);
        assert!(size_of::<CachePadded<AtomicU64>>() >= 128);
    }

    #[test]
    fn two_padded_values_do_not_share_a_line() {
        struct Pair {
            a: CachePadded<u64>,
            b: CachePadded<u64>,
        }
        let p = Pair {
            a: CachePadded::new(1),
            b: CachePadded::new(2),
        };
        let a = &*p.a as *const u64 as usize;
        let b = &*p.b as *const u64 as usize;
        assert!(a.abs_diff(b) >= 128);
    }

    #[test]
    fn deref_and_into_inner_round_trip() {
        let mut p = CachePadded::new(41u32);
        *p += 1;
        assert_eq!(*p, 42);
        assert_eq!(p.into_inner(), 42);
    }

    #[test]
    fn debug_and_clone() {
        let p = CachePadded::new(7u8);
        assert_eq!(format!("{p:?}"), "CachePadded(7)");
        assert_eq!(*p.clone(), 7);
    }

    #[test]
    fn from_value() {
        let p: CachePadded<&str> = "x".into();
        assert_eq!(*p, "x");
    }

    #[test]
    fn ring_slot_is_a_permutation() {
        for order in 0..12u32 {
            let n = 1usize << order;
            let mut seen = vec![false; n];
            for pos in 0..n as u64 {
                let j = ring_slot(pos, order);
                assert!(j < n, "slot {j} out of range for order {order}");
                assert!(!seen[j], "slot {j} hit twice for order {order}");
                seen[j] = true;
            }
            // The remap only depends on the masked position.
            assert_eq!(ring_slot(0, order), ring_slot(n as u64, order));
        }
    }

    #[test]
    fn ring_slot_keeps_small_rings_in_order() {
        for order in 0..4u32 {
            for pos in 0..1u64 << order {
                assert_eq!(ring_slot(pos, order), pos as usize);
            }
        }
    }

    #[test]
    fn ring_slot_spreads_neighbours_across_lines() {
        // With ≥ 64 entries, positions p and p+1 must not share a
        // 64-byte line (8 u64 slots).
        for order in 6..12u32 {
            for pos in 0..(1u64 << order) - 1 {
                let a = ring_slot(pos, order) / 8;
                let b = ring_slot(pos + 1, order) / 8;
                assert_ne!(a, b, "positions {pos},{} share a line", pos + 1);
            }
        }
    }
}
