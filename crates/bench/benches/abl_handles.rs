//! `abl-handles`: what a queue handle built for one operation costs
//! against one held across operations, on one thread.
//!
//! Each iteration moves one value through the queue: an enqueue, then a
//! dequeue. The `held` rows reuse one handle per side for every
//! iteration; the `per-call` rows build and drop a handle for each
//! operation, the way a caller without a place to keep one does (the
//! async frontend's plain `send`/`recv`, the broker's per-message paths,
//! the ladder's `async-pipe` rung). Three subjects:
//!
//! * **`CasQueue`**: a handle registers an `LLSCvar` and opens a node-pool
//!   cache, so a per-call handle pays `Register`/`Deregister` plus
//!   whatever it takes from and returns to the pool's spill stack.
//! * **pinned sharded lane**: `handle_pinned(0)` on a 4-lane fan-in
//!   (`MpscFastPath`) `ShardedQueue`, which serves the pair from the
//!   lane's wait-free ring; a per-call handle pays for its construction
//!   and for claiming and releasing the ring endpoints.
//! * **`AsyncQueue`** over that sharded queue: `send`/`recv` futures built
//!   on per-call pinned handles, polled once (the queue never parks
//!   here), against the synchronous `try_send_with_handle`/
//!   `try_recv_with_handle` on held handles.
//!
//! ```text
//! cargo bench -p nbq-bench --bench abl_handles
//! ```

use criterion::{BenchmarkId, Criterion};
use nbq_async::AsyncQueue;
use nbq_bench::criterion;
use nbq_core::{CasQueue, ShardedConfig, ShardedQueue};
use nbq_util::{ConcurrentQueue, QueueHandle};
use std::future::Future;
use std::hint::black_box;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

type Lanes = ShardedQueue<u64, CasQueue<u64>>;

fn lanes() -> Lanes {
    ShardedQueue::with_config(ShardedConfig::with_lanes(4).mpsc_fast_path(), |_| {
        CasQueue::with_capacity(64)
    })
}

/// Polls a future that must resolve at once (nothing here ever parks).
fn ready<F: Future>(fut: F) -> F::Output {
    match pin!(fut).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!("the bench queue never parks"),
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_handles");
    group.throughput(criterion::Throughput::Elements(1));

    let q = CasQueue::<u64>::with_capacity(64);
    group.bench_function(BenchmarkId::new("CasQueue", "held"), |b| {
        let (mut p, mut c) = (q.handle(), q.handle());
        b.iter(|| {
            p.enqueue(black_box(1)).unwrap();
            c.dequeue()
        })
    });
    group.bench_function(BenchmarkId::new("CasQueue", "per-call"), |b| {
        b.iter(|| {
            q.handle().enqueue(black_box(1)).unwrap();
            q.handle().dequeue()
        })
    });

    let q = lanes();
    group.bench_function(BenchmarkId::new("pinned sharded lane", "held"), |b| {
        let (mut p, mut c) = (q.handle_pinned(0), q.handle_pinned(0));
        b.iter(|| {
            p.enqueue(black_box(1)).unwrap();
            c.dequeue()
        })
    });
    group.bench_function(BenchmarkId::new("pinned sharded lane", "per-call"), |b| {
        b.iter(|| {
            q.handle_pinned(0).enqueue(black_box(1)).unwrap();
            q.handle_pinned(0).dequeue()
        })
    });

    let q = AsyncQueue::new(lanes());
    group.bench_function(BenchmarkId::new("AsyncQueue send+recv", "held"), |b| {
        let (mut p, mut c) = (q.inner().handle_pinned(0), q.inner().handle_pinned(0));
        b.iter(|| {
            q.try_send_with_handle(&mut p, black_box(1)).unwrap();
            q.try_recv_with_handle(&mut c)
        })
    });
    group.bench_function(BenchmarkId::new("AsyncQueue send+recv", "per-call"), |b| {
        b.iter(|| {
            ready(q.send_with_handle(q.inner().handle_pinned(0), black_box(1))).unwrap();
            ready(q.recv_with_handle(q.inner().handle_pinned(0)))
        })
    });
    assert_eq!(ConcurrentQueue::len(q.inner()), Some(0));
    group.finish();
}

fn main() {
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
