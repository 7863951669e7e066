//! Fast necessary-condition checks over complete FIFO histories.
//!
//! These run in `O(n log n)` and catch the failure modes the paper's §3
//! ABA analysis predicts for buggy array queues:
//!
//! * **lost values** (a null-ABA'd enqueue writing into the dequeued
//!   region never surfaces),
//! * **duplicated values** (a data-ABA'd dequeue returning a stale item),
//! * **out-of-thin-air values**,
//! * **FIFO inversions observable in real time** (if `enq(a)` finished
//!   before `enq(b)` began and `b` was dequeued, `a` must have been
//!   dequeued no later — formally, not strictly after in real time).
//!
//! They are *necessary* conditions (a history failing any is definitely
//! not linearizable to a FIFO queue) but not sufficient; the exhaustive
//! [`crate::search`] covers small histories completely.

use crate::history::{History, OpKind};
use std::collections::HashMap;
use std::fmt;

/// A concrete violation found in a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A value was enqueued (successfully) more than once — the driver
    /// must use unique values for checking to be meaningful.
    DuplicateEnqueue(u64),
    /// A value came out of a dequeue but was never successfully enqueued.
    OutOfThinAir(u64),
    /// A value was dequeued more than once.
    DuplicateDequeue(u64),
    /// `enq(first)` really-precedes `enq(second)` and `second` was
    /// dequeued, but `first` came out strictly later (or never).
    FifoInversion {
        /// The earlier-enqueued value.
        first: u64,
        /// The later-enqueued value that overtook it.
        second: u64,
    },
    /// More dequeues of a value than enqueues (conservation, should be
    /// caught by the above but kept for belt-and-braces counting).
    Conservation {
        /// Successful enqueue count.
        enqueued: usize,
        /// Successful dequeue count.
        dequeued: usize,
    },
    /// One producer thread enqueued `first` before `second`, and `second`
    /// was dequeued, but `first` came out strictly later (or never). This
    /// is the violation the sharded frontend's relaxed-FIFO contract
    /// still forbids: cross-producer order is advisory, same-producer
    /// order is not.
    ProducerFifoInversion {
        /// The producer thread that enqueued both values.
        thread: usize,
        /// The earlier-enqueued value.
        first: u64,
        /// The later-enqueued value that overtook it.
        second: u64,
    },
    /// An SPSC history's consumer observed `got` at stream position
    /// `index` where the producer's program order demanded `expected` —
    /// the single-stream contract (dequeues are exactly a prefix of the
    /// enqueue stream) admits no other interleaving.
    SpscStreamMismatch {
        /// Position in the consumer's dequeue stream.
        index: usize,
        /// The value the producer's order demanded at that position.
        expected: u64,
        /// The value actually dequeued.
        got: u64,
    },
    /// In a fan-in (MPSC) history, the single consumer's dequeue stream
    /// restricted to `producer`'s values must be exactly a prefix of that
    /// producer's enqueue stream — the consumer has a program order, so
    /// there is no overlapping-window slack: position `index` of the
    /// restricted stream demanded `expected` but held `got`.
    ProducerStreamMismatch {
        /// The producer thread whose sub-stream was scrambled.
        producer: usize,
        /// Position within the consumer's stream restricted to that
        /// producer's values.
        index: usize,
        /// The value the producer's program order demanded there.
        expected: u64,
        /// The value the consumer actually observed.
        got: u64,
    },
    /// In a fan-out (SPMC) history, each consumer's dequeue stream must
    /// be ascending in the single producer's enqueue order — consumers
    /// arbitrate a monotone head, so one consumer observing `second`
    /// before `first` (which the producer enqueued earlier) is a ring
    /// protocol violation, not admissible interleaving.
    ConsumerStreamInversion {
        /// The consumer thread that observed the inversion.
        consumer: usize,
        /// The earlier-enqueued value, dequeued second.
        first: u64,
        /// The later-enqueued value, dequeued first.
        second: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DuplicateEnqueue(v) => write!(f, "value {v} enqueued twice"),
            Violation::OutOfThinAir(v) => write!(f, "value {v} dequeued but never enqueued"),
            Violation::DuplicateDequeue(v) => write!(f, "value {v} dequeued twice"),
            Violation::FifoInversion { first, second } => write!(
                f,
                "FIFO inversion: enq({first}) real-time-precedes enq({second}) \
                 but {second} was dequeued strictly before {first}"
            ),
            Violation::Conservation { enqueued, dequeued } => {
                write!(
                    f,
                    "conservation: {enqueued} enqueued vs {dequeued} dequeued"
                )
            }
            Violation::ProducerFifoInversion {
                thread,
                first,
                second,
            } => write!(
                f,
                "per-producer FIFO inversion: thread {thread} enqueued {first} \
                 before {second} but {second} was dequeued strictly before {first}"
            ),
            Violation::SpscStreamMismatch {
                index,
                expected,
                got,
            } => write!(
                f,
                "SPSC stream mismatch at dequeue {index}: producer order \
                 demands {expected}, consumer observed {got}"
            ),
            Violation::ProducerStreamMismatch {
                producer,
                index,
                expected,
                got,
            } => write!(
                f,
                "fan-in stream mismatch: consumer's sub-stream for producer \
                 {producer} demands {expected} at position {index}, observed {got}"
            ),
            Violation::ConsumerStreamInversion {
                consumer,
                first,
                second,
            } => write!(
                f,
                "fan-out inversion: consumer {consumer} observed {second} \
                 before {first}, but the producer enqueued {first} first"
            ),
        }
    }
}

impl std::error::Error for Violation {}

/// Runs every cheap check; `Ok` means no necessary condition is violated.
pub fn check_history(h: &History) -> Result<(), Violation> {
    check_value_integrity(h)?;
    check_realtime_fifo(h)?;
    Ok(())
}

/// Uniqueness, conservation, and out-of-thin-air checks.
pub fn check_value_integrity(h: &History) -> Result<(), Violation> {
    let mut enqueued: HashMap<u64, usize> = HashMap::new();
    let mut dequeued: HashMap<u64, usize> = HashMap::new();
    for op in &h.ops {
        match op.kind {
            OpKind::Enqueue(v) => {
                let c = enqueued.entry(v).or_insert(0);
                *c += 1;
                if *c > 1 {
                    return Err(Violation::DuplicateEnqueue(v));
                }
            }
            OpKind::Dequeue(Some(v)) => {
                let c = dequeued.entry(v).or_insert(0);
                *c += 1;
                if *c > 1 {
                    return Err(Violation::DuplicateDequeue(v));
                }
            }
            _ => {}
        }
    }
    for v in dequeued.keys() {
        if !enqueued.contains_key(v) {
            return Err(Violation::OutOfThinAir(*v));
        }
    }
    if dequeued.len() > enqueued.len() {
        return Err(Violation::Conservation {
            enqueued: enqueued.len(),
            dequeued: dequeued.len(),
        });
    }
    Ok(())
}

/// Real-time FIFO order check (sweep-line, `O(n log n)`).
///
/// For each pair of values where `enq(a)` responds before `enq(b)` is
/// invoked: if `b` was dequeued, then `a` must also be dequeued, and
/// `deq(a)` must not begin strictly after `deq(b)` responds.
pub fn check_realtime_fifo(h: &History) -> Result<(), Violation> {
    struct Item {
        value: u64,
        enq_start: u64,
        enq_end: u64,
        /// Invocation of the dequeue that removed it; `u64::MAX` if never
        /// dequeued.
        deq_start: u64,
        /// Response of that dequeue; `u64::MAX` if never dequeued.
        deq_end: u64,
    }
    let mut by_value: HashMap<u64, Item> = HashMap::new();
    for op in &h.ops {
        if let OpKind::Enqueue(v) = op.kind {
            by_value.insert(
                v,
                Item {
                    value: v,
                    enq_start: op.start,
                    enq_end: op.end,
                    deq_start: u64::MAX,
                    deq_end: u64::MAX,
                },
            );
        }
    }
    for op in &h.ops {
        if let OpKind::Dequeue(Some(v)) = op.kind {
            if let Some(item) = by_value.get_mut(&v) {
                item.deq_start = op.start;
                item.deq_end = op.end;
            }
        }
    }
    let items: Vec<Item> = by_value.into_values().collect();
    if items.is_empty() {
        return Ok(());
    }

    // Sweep values in order of enqueue invocation; a pointer over values
    // sorted by enqueue response adds each `a` to the running prefix the
    // moment enq(a).end < enq(b).start, maintaining the max deq_start seen.
    let mut by_enq_start: Vec<usize> = (0..items.len()).collect();
    by_enq_start.sort_by_key(|&i| items[i].enq_start);
    let mut by_enq_end: Vec<usize> = (0..items.len()).collect();
    by_enq_end.sort_by_key(|&i| items[i].enq_end);

    let mut ptr = 0;
    let mut max_deq_start: Option<usize> = None; // index of predecessor with max deq_start
    for &bi in &by_enq_start {
        let b = &items[bi];
        while ptr < by_enq_end.len() && items[by_enq_end[ptr]].enq_end < b.enq_start {
            let ai = by_enq_end[ptr];
            if max_deq_start.is_none_or(|m| items[ai].deq_start > items[m].deq_start) {
                max_deq_start = Some(ai);
            }
            ptr += 1;
        }
        if b.deq_end == u64::MAX {
            continue; // b never dequeued: imposes nothing here
        }
        if let Some(ai) = max_deq_start {
            let a = &items[ai];
            // a's enqueue really precedes b's; if a's dequeue begins
            // strictly after b's dequeue responds (or never), FIFO is
            // violated.
            if a.deq_start > b.deq_end {
                return Err(Violation::FifoInversion {
                    first: a.value,
                    second: b.value,
                });
            }
        }
    }
    Ok(())
}

/// Per-producer FIFO order check (`O(n)` after grouping by thread).
///
/// The weakest order guarantee in the workspace: for two successful
/// enqueues by the *same thread*, the earlier value must not be dequeued
/// strictly after the later one (never-dequeued counts as "after" once
/// the later value came out). Single queues satisfy this as a corollary
/// of [`check_realtime_fifo`]; the sharded frontend promises it outright
/// for pinned (non-migrating) producers while leaving cross-producer
/// order advisory, so this is the check its relaxed histories must pass.
pub fn check_per_producer_fifo(h: &History) -> Result<(), Violation> {
    // deq_start / deq_end per value (u64::MAX = never dequeued).
    let mut deq_window: HashMap<u64, (u64, u64)> = HashMap::new();
    for op in &h.ops {
        if let OpKind::Dequeue(Some(v)) = op.kind {
            deq_window.insert(v, (op.start, op.end));
        }
    }
    // Successful enqueues grouped per thread, in that thread's program
    // order (a thread's ops are totally ordered, so start time is it).
    let mut per_thread: HashMap<usize, Vec<(u64, u64)>> = HashMap::new(); // (enq_start, value)
    for op in &h.ops {
        if let OpKind::Enqueue(v) = op.kind {
            per_thread.entry(op.thread).or_default().push((op.start, v));
        }
    }
    for (&thread, enqs) in per_thread.iter_mut() {
        enqs.sort_unstable();
        // Running max of deq_start over the enqueue-order prefix: if any
        // predecessor's dequeue begins strictly after b's responds, the
        // producer's order was inverted.
        let mut max_prefix: Option<(u64, u64)> = None; // (deq_start, value)
        for &(_, b) in enqs.iter() {
            let (b_deq_start, b_deq_end) =
                deq_window.get(&b).copied().unwrap_or((u64::MAX, u64::MAX));
            if b_deq_end != u64::MAX {
                if let Some((a_deq_start, a)) = max_prefix {
                    if a_deq_start > b_deq_end {
                        return Err(Violation::ProducerFifoInversion {
                            thread,
                            first: a,
                            second: b,
                        });
                    }
                }
            }
            if max_prefix.is_none_or(|(m, _)| b_deq_start > m) {
                max_prefix = Some((b_deq_start, b));
            }
        }
    }
    Ok(())
}

/// Strict single-stream FIFO check for 1-producer/1-consumer histories
/// (`O(n log n)` for the two sorts).
///
/// An SPSC queue admits exactly one correct behavior: the consumer's
/// dequeue stream is a contiguous prefix of the producer's enqueue
/// stream, in order. This is much stronger than
/// [`check_realtime_fifo`] — with one thread per side, both streams are
/// program-ordered, so there is no overlapping-window slack to hide
/// behind; every reordering, loss, or duplication surfaces as a
/// position-by-position mismatch.
///
/// Runs [`check_value_integrity`] and [`check_per_producer_fifo`] first
/// (so their violations keep their sharper names), then the prefix
/// comparison. Histories from the wait-free SPSC ring and from a
/// ShardedQueue lane pinned 1p/1c must pass this; a promoted (mixed)
/// lane only owes the per-producer check.
pub fn check_spsc_fifo(h: &History) -> Result<(), Violation> {
    check_value_integrity(h)?;
    check_per_producer_fifo(h)?;
    // Program order per side: each side is one thread, whose ops are
    // totally ordered by start time.
    let mut enqs: Vec<(u64, u64)> = Vec::new(); // (start, value)
    let mut deqs: Vec<(u64, u64)> = Vec::new();
    for op in &h.ops {
        match op.kind {
            OpKind::Enqueue(v) => enqs.push((op.start, v)),
            OpKind::Dequeue(Some(v)) => deqs.push((op.start, v)),
            _ => {}
        }
    }
    enqs.sort_unstable();
    deqs.sort_unstable();
    for (index, (&(_, got), &(_, expected))) in deqs.iter().zip(enqs.iter()).enumerate() {
        if got != expected {
            return Err(Violation::SpscStreamMismatch {
                index,
                expected,
                got,
            });
        }
    }
    Ok(())
}

/// Exact fan-in (MPSC) check: with one consumer, every producer's
/// sub-stream is program-ordered on *both* sides (`O(n log n)`).
///
/// Runs [`check_value_integrity`] and [`check_per_producer_fifo`] first,
/// then the sharp per-stream comparison the windowed per-producer check
/// cannot make: the single consumer's dequeue stream, restricted to the
/// values of one producer thread, must be exactly a prefix of that
/// producer's enqueue stream. Histories from [`MpscRing`] fan-in runs
/// (the shared-producer instance of `nbq_core::ArityRing`) and from an
/// unpromoted sharded MPSC lane must pass this; the queue's
/// only admitted freedom is *interleaving between* producers' streams.
///
/// [`MpscRing`]: https://docs.rs/nbq-core
pub fn check_mpsc_fan_in(h: &History) -> Result<(), Violation> {
    check_value_integrity(h)?;
    check_per_producer_fifo(h)?;
    // Which producer enqueued each value, and at which position of that
    // producer's program order.
    let mut per_producer: HashMap<usize, Vec<(u64, u64)>> = HashMap::new(); // (enq_start, value)
    for op in &h.ops {
        if let OpKind::Enqueue(v) = op.kind {
            per_producer
                .entry(op.thread)
                .or_default()
                .push((op.start, v));
        }
    }
    let mut owner: HashMap<u64, usize> = HashMap::new();
    for (&t, enqs) in per_producer.iter_mut() {
        enqs.sort_unstable();
        for &(_, v) in enqs.iter() {
            owner.insert(v, t);
        }
    }
    // The single consumer's program order is its dequeue start order.
    let mut deqs: Vec<(u64, u64)> = Vec::new(); // (deq_start, value)
    for op in &h.ops {
        if let OpKind::Dequeue(Some(v)) = op.kind {
            deqs.push((op.start, v));
        }
    }
    deqs.sort_unstable();
    // Walk the consumer stream, advancing a cursor per producer.
    let mut cursors: HashMap<usize, usize> = HashMap::new();
    for &(_, got) in &deqs {
        let Some(&producer) = owner.get(&got) else {
            continue; // integrity check already vetted thin air
        };
        let index = cursors.entry(producer).or_insert(0);
        let expected = per_producer[&producer][*index].1;
        if got != expected {
            return Err(Violation::ProducerStreamMismatch {
                producer,
                index: *index,
                expected,
                got,
            });
        }
        *index += 1;
    }
    Ok(())
}

/// Exact fan-out (SPMC) check: with one producer, every consumer's
/// dequeue stream must ascend in enqueue order (`O(n log n)`).
///
/// Runs [`check_value_integrity`] first, then orders the single
/// producer's enqueue stream by program order and verifies each consumer
/// thread's dequeue stream is strictly ascending in that order —
/// consumers take gate-backed FAA tickets on a monotone head, so a
/// consumer can skip values (taken by its peers) but never step
/// backwards. Histories from `SpmcRing` fan-out runs (the
/// shared-consumer instance of `nbq_core::ArityRing`) and from an
/// unpromoted sharded SPMC lane must pass this.
pub fn check_spmc_fan_out(h: &History) -> Result<(), Violation> {
    check_value_integrity(h)?;
    // Enqueue position of each value in the producer's program order.
    let mut enqs: Vec<(u64, u64)> = Vec::new(); // (enq_start, value)
    for op in &h.ops {
        if let OpKind::Enqueue(v) = op.kind {
            enqs.push((op.start, v));
        }
    }
    enqs.sort_unstable();
    let position: HashMap<u64, usize> =
        enqs.iter().enumerate().map(|(i, &(_, v))| (v, i)).collect();
    // Each consumer's program order is its dequeue start order.
    let mut per_consumer: HashMap<usize, Vec<(u64, u64)>> = HashMap::new(); // (deq_start, value)
    for op in &h.ops {
        if let OpKind::Dequeue(Some(v)) = op.kind {
            per_consumer
                .entry(op.thread)
                .or_default()
                .push((op.start, v));
        }
    }
    for (&consumer, deqs) in per_consumer.iter_mut() {
        deqs.sort_unstable();
        let mut last: Option<(usize, u64)> = None; // (enqueue position, value)
        for &(_, v) in deqs.iter() {
            let Some(&pos) = position.get(&v) else {
                continue; // integrity check already vetted thin air
            };
            if let Some((last_pos, last_v)) = last {
                if pos < last_pos {
                    return Err(Violation::ConsumerStreamInversion {
                        consumer,
                        first: v,
                        second: last_v,
                    });
                }
            }
            last = Some((pos, v));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::Op;

    fn enq(thread: usize, v: u64, start: u64, end: u64) -> Op {
        Op {
            thread,
            kind: OpKind::Enqueue(v),
            start,
            end,
        }
    }

    fn deq(thread: usize, v: Option<u64>, start: u64, end: u64) -> Op {
        Op {
            thread,
            kind: OpKind::Dequeue(v),
            start,
            end,
        }
    }

    #[test]
    fn clean_sequential_history_passes() {
        let h = History {
            ops: vec![
                enq(0, 1, 0, 1),
                enq(0, 2, 2, 3),
                deq(0, Some(1), 4, 5),
                deq(0, Some(2), 6, 7),
                deq(0, None, 8, 9),
            ],
        };
        assert_eq!(check_history(&h), Ok(()));
    }

    #[test]
    fn duplicate_dequeue_is_caught() {
        let h = History {
            ops: vec![
                enq(0, 1, 0, 1),
                deq(0, Some(1), 2, 3),
                deq(1, Some(1), 2, 3),
            ],
        };
        assert_eq!(
            check_value_integrity(&h),
            Err(Violation::DuplicateDequeue(1))
        );
    }

    #[test]
    fn thin_air_value_is_caught() {
        let h = History {
            ops: vec![enq(0, 1, 0, 1), deq(0, Some(99), 2, 3)],
        };
        assert_eq!(check_value_integrity(&h), Err(Violation::OutOfThinAir(99)));
    }

    #[test]
    fn duplicate_enqueue_is_caught() {
        let h = History {
            ops: vec![enq(0, 1, 0, 1), enq(1, 1, 2, 3)],
        };
        assert_eq!(
            check_value_integrity(&h),
            Err(Violation::DuplicateEnqueue(1))
        );
    }

    #[test]
    fn fifo_inversion_is_caught() {
        // enq(1) fully before enq(2); 2 dequeued fully before 1.
        let h = History {
            ops: vec![
                enq(0, 1, 0, 1),
                enq(0, 2, 2, 3),
                deq(1, Some(2), 10, 11),
                deq(1, Some(1), 20, 21),
            ],
        };
        assert!(matches!(
            check_realtime_fifo(&h),
            Err(Violation::FifoInversion {
                first: 1,
                second: 2
            })
        ));
    }

    #[test]
    fn lost_value_is_caught_as_inversion() {
        // enq(1) fully before enq(2); 2 dequeued, 1 never comes out.
        let h = History {
            ops: vec![enq(0, 1, 0, 1), enq(0, 2, 2, 3), deq(1, Some(2), 10, 11)],
        };
        assert!(matches!(
            check_realtime_fifo(&h),
            Err(Violation::FifoInversion {
                first: 1,
                second: 2
            })
        ));
    }

    #[test]
    fn overlapping_enqueues_permit_either_order() {
        // enq(1) and enq(2) overlap: either dequeue order linearizes.
        let h = History {
            ops: vec![
                enq(0, 1, 0, 10),
                enq(1, 2, 5, 6),
                deq(0, Some(2), 20, 21),
                deq(0, Some(1), 22, 23),
            ],
        };
        assert_eq!(check_realtime_fifo(&h), Ok(()));
    }

    #[test]
    fn overlapping_dequeues_permit_either_completion_order() {
        // deq windows overlap, so no strict real-time reversal exists.
        let h = History {
            ops: vec![
                enq(0, 1, 0, 1),
                enq(0, 2, 2, 3),
                deq(0, Some(2), 10, 30),
                deq(1, Some(1), 11, 29),
            ],
        };
        assert_eq!(check_realtime_fifo(&h), Ok(()));
    }

    #[test]
    fn unmatched_enqueues_at_end_are_fine() {
        // Values still in the queue when the run stopped.
        let h = History {
            ops: vec![enq(0, 1, 0, 1), enq(0, 2, 2, 3), deq(0, Some(1), 4, 5)],
        };
        assert_eq!(check_history(&h), Ok(()));
    }

    #[test]
    fn empty_history_passes() {
        assert_eq!(check_history(&History::default()), Ok(()));
    }

    #[test]
    fn per_producer_fifo_accepts_cross_producer_reordering() {
        // Thread 0 enqueued 1 well before thread 1 enqueued 2, and 2 came
        // out first: a strict FIFO inversion, but fine per-producer (the
        // sharded relaxation).
        let h = History {
            ops: vec![
                enq(0, 1, 0, 1),
                enq(1, 2, 2, 3),
                deq(2, Some(2), 10, 11),
                deq(2, Some(1), 20, 21),
            ],
        };
        assert!(matches!(
            check_realtime_fifo(&h),
            Err(Violation::FifoInversion { .. })
        ));
        assert_eq!(check_per_producer_fifo(&h), Ok(()));
    }

    #[test]
    fn per_producer_fifo_catches_same_thread_inversion() {
        let h = History {
            ops: vec![
                enq(0, 1, 0, 1),
                enq(0, 2, 2, 3),
                deq(1, Some(2), 10, 11),
                deq(1, Some(1), 20, 21),
            ],
        };
        assert_eq!(
            check_per_producer_fifo(&h),
            Err(Violation::ProducerFifoInversion {
                thread: 0,
                first: 1,
                second: 2
            })
        );
    }

    #[test]
    fn per_producer_fifo_catches_lost_earlier_value() {
        // Thread 0's first value never surfaces while its second does.
        let h = History {
            ops: vec![enq(0, 1, 0, 1), enq(0, 2, 2, 3), deq(1, Some(2), 10, 11)],
        };
        assert_eq!(
            check_per_producer_fifo(&h),
            Err(Violation::ProducerFifoInversion {
                thread: 0,
                first: 1,
                second: 2
            })
        );
    }

    #[test]
    fn per_producer_fifo_permits_overlapping_dequeues() {
        // Same producer, but the two dequeue windows overlap: either
        // completion order linearizes, so no violation.
        let h = History {
            ops: vec![
                enq(0, 1, 0, 1),
                enq(0, 2, 2, 3),
                deq(1, Some(2), 10, 30),
                deq(2, Some(1), 11, 29),
            ],
        };
        assert_eq!(check_per_producer_fifo(&h), Ok(()));
    }

    #[test]
    fn per_producer_fifo_ignores_unmatched_tail() {
        // Later values still in the queue impose nothing.
        let h = History {
            ops: vec![enq(0, 1, 0, 1), enq(0, 2, 2, 3), deq(1, Some(1), 4, 5)],
        };
        assert_eq!(check_per_producer_fifo(&h), Ok(()));
    }

    #[test]
    fn spsc_accepts_a_clean_prefix() {
        let h = History {
            ops: vec![
                enq(0, 1, 0, 1),
                enq(0, 2, 2, 3),
                enq(0, 3, 4, 5),
                deq(1, Some(1), 2, 6),
                deq(1, Some(2), 7, 8),
            ],
        };
        assert_eq!(check_spsc_fifo(&h), Ok(()));
    }

    #[test]
    fn spsc_rejects_overlap_slack_that_realtime_fifo_permits() {
        // The dequeue windows overlap, so the MPMC real-time check is
        // satisfied by linearizing them either way — but a single
        // consumer has a program order, and it saw 2 before 1.
        let h = History {
            ops: vec![
                enq(0, 1, 0, 1),
                enq(0, 2, 2, 3),
                deq(1, Some(2), 10, 30),
                deq(1, Some(1), 11, 29),
            ],
        };
        assert_eq!(check_realtime_fifo(&h), Ok(()));
        assert_eq!(
            check_spsc_fifo(&h),
            Err(Violation::SpscStreamMismatch {
                index: 0,
                expected: 1,
                got: 2
            })
        );
    }

    #[test]
    fn spsc_rejects_a_hole_in_the_stream() {
        // Value 2 vanished: 3 surfaces at the position 2 owned. The
        // per-producer sweep already names this (2 lost while 3 came
        // out), so that sharper violation is the one reported.
        let h = History {
            ops: vec![
                enq(0, 1, 0, 1),
                enq(0, 2, 2, 3),
                enq(0, 3, 4, 5),
                deq(1, Some(1), 6, 7),
                deq(1, Some(3), 8, 9),
            ],
        };
        assert_eq!(
            check_spsc_fifo(&h),
            Err(Violation::ProducerFifoInversion {
                thread: 0,
                first: 2,
                second: 3
            })
        );
    }

    #[test]
    fn spsc_still_reports_integrity_violations_by_name() {
        let h = History {
            ops: vec![
                enq(0, 1, 0, 1),
                deq(1, Some(1), 2, 3),
                deq(1, Some(1), 4, 5),
            ],
        };
        assert_eq!(check_spsc_fifo(&h), Err(Violation::DuplicateDequeue(1)));
    }

    #[test]
    fn mpsc_accepts_interleaved_producer_streams() {
        // Two producers' streams interleave freely at the consumer; each
        // sub-stream stays in its producer's order.
        let h = History {
            ops: vec![
                enq(0, 1, 0, 1),
                enq(1, 10, 2, 3),
                enq(0, 2, 4, 5),
                enq(1, 11, 6, 7),
                deq(2, Some(10), 8, 9),
                deq(2, Some(1), 10, 11),
                deq(2, Some(2), 12, 13),
                deq(2, Some(11), 14, 15),
            ],
        };
        assert_eq!(check_mpsc_fan_in(&h), Ok(()));
    }

    #[test]
    fn mpsc_rejects_scrambled_sub_stream_that_windows_permit() {
        // Producer 0's dequeue windows overlap, so the windowed
        // per-producer check is satisfied either way — but the single
        // consumer's program order saw 2 before 1.
        let h = History {
            ops: vec![
                enq(0, 1, 0, 1),
                enq(0, 2, 2, 3),
                deq(1, Some(2), 10, 30),
                deq(1, Some(1), 11, 29),
            ],
        };
        assert_eq!(check_per_producer_fifo(&h), Ok(()));
        assert_eq!(
            check_mpsc_fan_in(&h),
            Err(Violation::ProducerStreamMismatch {
                producer: 0,
                index: 0,
                expected: 1,
                got: 2
            })
        );
    }

    #[test]
    fn spmc_accepts_consumers_skipping_peer_taken_values() {
        // Consumer 1 takes 1 and 3, consumer 2 takes 2: both streams
        // ascend in enqueue order.
        let h = History {
            ops: vec![
                enq(0, 1, 0, 1),
                enq(0, 2, 2, 3),
                enq(0, 3, 4, 5),
                deq(1, Some(1), 6, 7),
                deq(2, Some(2), 6, 7),
                deq(1, Some(3), 8, 9),
            ],
        };
        assert_eq!(check_spmc_fan_out(&h), Ok(()));
    }

    #[test]
    fn spmc_rejects_one_consumer_stepping_backwards() {
        // Consumer 1 observed 3 then 1: its arbitrated head went back.
        let h = History {
            ops: vec![
                enq(0, 1, 0, 1),
                enq(0, 2, 2, 3),
                enq(0, 3, 4, 5),
                deq(1, Some(3), 6, 7),
                deq(1, Some(1), 8, 9),
            ],
        };
        assert_eq!(
            check_spmc_fan_out(&h),
            Err(Violation::ConsumerStreamInversion {
                consumer: 1,
                first: 1,
                second: 3
            })
        );
    }
}
