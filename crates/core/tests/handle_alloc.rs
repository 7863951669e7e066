//! A handle built for one operation and dropped must cost what a held
//! handle costs: no heap allocation for a sharded handle that stays on
//! its home lane, and one node moved from the pool's shared spill stack
//! for a per-call `CasQueue` handle (DESIGN.md §8 and §10c).
//!
//! A counting `#[global_allocator]` wrapped around `System` counts every
//! allocator call into a per-thread counter, so the test harness's other
//! threads (which allocate lazily at unpredictable moments) never show up
//! in the measuring thread's figures. The counter is a const-initialized
//! thread-local, so bumping it inside the allocator never allocates.

use nbq_core::{CasQueue, ShardedConfig, ShardedQueue};
use nbq_util::{ConcurrentQueue, QueueHandle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocator calls (alloc, realloc and dealloc) made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // try_with: TLS may be mid-teardown when late allocator calls arrive.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: defers to System for every operation; the counting path touches
// only a const-init thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count();
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// How many allocator calls this thread made while running `op`.
fn allocator_calls(op: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    op();
    CALLS.with(Cell::get) - before
}

fn fan_in(lanes: usize) -> ShardedQueue<u64, CasQueue<u64>> {
    ShardedQueue::with_config(ShardedConfig::with_lanes(lanes).mpsc_fast_path(), |_| {
        CasQueue::with_capacity(8)
    })
}

#[test]
fn per_call_pinned_handles_never_allocate() {
    for lanes in [1, 4] {
        let q = fan_in(lanes);
        for lane in 0..lanes {
            let calls = allocator_calls(|| {
                for v in 0..100u64 {
                    q.handle_pinned(lane).enqueue(v).unwrap();
                    assert_eq!(q.handle_pinned(lane).dequeue(), Some(v));
                }
            });
            assert_eq!(calls, 0, "{lanes} lanes, pinned to lane {lane}");
        }
        assert_eq!(q.lane_promoted(0), Some(false), "turnover kept the ring");
    }
}

#[test]
fn per_call_unpinned_handles_on_one_lane_never_allocate() {
    let q = fan_in(1);
    let calls = allocator_calls(|| {
        for v in 0..100u64 {
            q.handle().enqueue(v).unwrap();
            assert_eq!(q.handle().dequeue(), Some(v));
        }
        assert_eq!(q.handle().dequeue(), None);
    });
    assert_eq!(calls, 0);
}

/// A per-call `CasQueue` handle that enqueues takes one node from the
/// shared spill stack and returns nothing to it on drop, instead of
/// pulling a full refill batch and pushing it all back.
#[cfg(not(feature = "no-pool"))]
#[test]
fn per_call_cas_handle_moves_one_node() {
    let q = CasQueue::<u64>::with_capacity(64);
    // Warm up: a held handle carves the pool's nodes and its drop parks
    // its cache on the spill stack.
    {
        let mut h = q.handle();
        for v in 0..1_000u64 {
            h.enqueue(v).unwrap();
            assert_eq!(h.dequeue(), Some(v));
        }
    }
    for v in 0..32u64 {
        let before = q.pool_stats();
        let calls = allocator_calls(|| q.handle().enqueue(v).unwrap());
        let after = q.pool_stats();
        assert_eq!(after.fresh, before.fresh, "warm pool carves nothing");
        assert!(
            after.recycled - before.recycled <= 1,
            "took {} nodes from the spill stack",
            after.recycled - before.recycled
        );
        assert_eq!(calls, 0, "per-call enqueue #{v} allocated");
    }
    let mut h = q.handle();
    assert_eq!((0..32).map(|_| h.dequeue().unwrap()).sum::<u64>(), 496);
}
