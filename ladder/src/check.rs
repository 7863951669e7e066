//! Conservation and per-producer FIFO checking for the item streams.
//!
//! Every workload stamps items with `(producer, seq)`, where each producer
//! counts `seq` up from 0. Each consumer keeps a [`Tally`]: the last seq it
//! saw from every producer (a value at or below it is a reorder or a
//! duplicate), how many items it got, and a multiset hash of the seqs.
//! [`failures`] then compares the tallies with what each producer sent: a
//! count mismatch is a loss or a duplicate, and equal counts with a hash
//! mismatch catch a duplicate that hides a loss across two consumers.

/// SplitMix64 finalizer: the multiset hash of one seq, and the payload
/// generator.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one consumer observed, per producer.
#[derive(Debug, Clone)]
pub struct Tally {
    last: Vec<Option<u64>>,
    received: Vec<u64>,
    hash: Vec<u64>,
    disorder: u64,
}

impl Tally {
    /// A tally for a flow with `producers` producers.
    pub fn new(producers: usize) -> Tally {
        Tally {
            last: vec![None; producers],
            received: vec![0; producers],
            hash: vec![0; producers],
            disorder: 0,
        }
    }

    /// Records the receipt of `seq` from `producer`.
    #[inline]
    pub fn observe(&mut self, producer: usize, seq: u64) {
        let Some(last) = self.last.get_mut(producer) else {
            // An item from a producer that does not exist.
            self.disorder += 1;
            return;
        };
        if last.is_some_and(|l| seq <= l) {
            self.disorder += 1;
        }
        *last = Some(seq);
        self.received[producer] += 1;
        self.hash[producer] = self.hash[producer].wrapping_add(mix64(seq));
    }
}

/// Items that were not received exactly once and in per-producer order,
/// given that producer `p` sent seqs `0..sent[p]`. Zero exactly when the
/// streams are correct (up to a 2^-64 hash collision).
pub fn failures(sent: &[u64], tallies: &[Tally]) -> u64 {
    let mut failed: u64 = tallies.iter().map(|t| t.disorder).sum();
    for (p, &n) in sent.iter().enumerate() {
        let got: u64 = tallies.iter().map(|t| t.received[p]).sum();
        let hash = tallies.iter().fold(0u64, |h, t| h.wrapping_add(t.hash[p]));
        let want = (0..n).fold(0u64, |h, s| h.wrapping_add(mix64(s)));
        failed += got.abs_diff(n);
        if got == n && hash != want {
            failed += 1;
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(stream: &[(usize, u64)]) -> Tally {
        let mut t = Tally::new(2);
        for &(p, s) in stream {
            t.observe(p, s);
        }
        t
    }

    #[test]
    fn clean_streams_pass() {
        let a = tally(&[(0, 0), (1, 0), (0, 1), (0, 3), (1, 1)]);
        let b = tally(&[(0, 2), (1, 2)]);
        assert_eq!(failures(&[4, 3], &[a, b]), 0);
    }

    #[test]
    fn gap_is_caught() {
        let a = tally(&[(0, 0), (0, 1), (0, 3)]);
        assert!(failures(&[4, 0], &[a]) > 0);
    }

    #[test]
    fn duplicate_is_caught() {
        let a = tally(&[(0, 0), (0, 1), (0, 1), (0, 2)]);
        assert!(failures(&[3, 0], &[a]) > 0);
    }

    #[test]
    fn reorder_is_caught() {
        let a = tally(&[(0, 0), (0, 2), (0, 1), (0, 3)]);
        assert_eq!(failures(&[4, 0], &[a]), 1);
    }

    #[test]
    fn duplicate_hiding_a_gap_across_consumers_is_caught() {
        // Counts match (4 of 4) and each consumer is in order; only the
        // multiset hash sees that 2 is missing and 3 arrived twice.
        let a = tally(&[(0, 0), (0, 1), (0, 3)]);
        let b = tally(&[(0, 3)]);
        assert!(failures(&[4, 0], &[a, b]) > 0);
    }

    #[test]
    fn unknown_producer_is_caught() {
        let a = tally(&[(0, 0), (7, 0)]);
        assert!(failures(&[1, 0], &[a]) > 0);
    }

    #[test]
    fn extra_items_are_caught() {
        let a = tally(&[(0, 0), (0, 1), (0, 2)]);
        assert_eq!(failures(&[2, 0], &[a]), 1);
    }
}
