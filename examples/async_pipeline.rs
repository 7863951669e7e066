//! Async two-stage pipeline over the paper's queues.
//!
//! ```text
//! cargo run --release --example async_pipeline
//! ```
//!
//! The paper's queues never block — [`AsyncQueue`] keeps it that way
//! while adding async channel ergonomics: a full `send` or empty `recv`
//! parks the *task* in a waiter registry (its lock is taken only on the
//! parking path, never by the queue's own operations) and the executor's
//! worker thread moves on. This example
//! runs a classic fan-in/fan-out pipeline on the tokio runtime:
//!
//! ```text
//! producers --Sink--> [stage queue] --> transform workers --> [result
//! queue] --Stream--> consumer
//! ```
//!
//! The producers speak `futures::Sink`, the consumer drains a
//! `futures::Stream`, and the middle stage uses the plain `send`/`recv`
//! futures. Tiny queue capacities force constant parking on both Full
//! and empty, exercising backpressure end to end; closing each stage
//! cascades shutdown through the pipeline.

use futures::{SinkExt, StreamExt};
use nbq::prelude::*;
use std::sync::Arc;

fn main() {
    const PRODUCERS: u64 = 3;
    const WORKERS: usize = 2;
    const ITEMS_PER_PRODUCER: u64 = 2_000;
    // Small on purpose: full/empty transitions on every burst.
    const STAGE_CAPACITY: usize = 16;

    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(4)
        .enable_all()
        .build()
        .expect("building the tokio runtime");

    let stage = Arc::new(AsyncQueue::new(CasQueue::<u64>::with_capacity(
        STAGE_CAPACITY,
    )));
    let results = Arc::new(AsyncQueue::new(CasQueue::<u64>::with_capacity(
        STAGE_CAPACITY,
    )));

    let total: u64 = rt.block_on(async {
        // Producers: each feeds the stage queue through a Sink.
        let mut producers = Vec::new();
        for p in 0..PRODUCERS {
            let stage = Arc::clone(&stage);
            producers.push(tokio::spawn(async move {
                let mut sink = stage.sink();
                for i in 0..ITEMS_PER_PRODUCER {
                    sink.send(p << 32 | i)
                        .await
                        .expect("stage closes only after producers finish");
                }
                sink.flush().await.expect("channel still open");
            }));
        }

        // Transform workers: recv from the stage, send downstream.
        let mut workers = Vec::new();
        for _ in 0..WORKERS {
            let stage = Arc::clone(&stage);
            let results = Arc::clone(&results);
            workers.push(tokio::spawn(async move {
                // recv() resolves to None once the stage is closed and
                // drained: the pipeline's shutdown signal.
                while let Some(v) = stage.recv().await {
                    let transformed = v.wrapping_mul(31) ^ (v >> 7);
                    results
                        .send(transformed)
                        .await
                        .expect("results close only after workers finish");
                }
            }));
        }

        // Consumer: drain the result queue as a Stream.
        let consumer = {
            let results = Arc::clone(&results);
            tokio::spawn(async move {
                let mut stream = results.stream();
                let mut count = 0u64;
                while let Some(_item) = stream.next().await {
                    count += 1;
                }
                count
            })
        };

        for p in producers {
            p.await.expect("producer panicked");
        }
        stage.close(); // workers' recv() drains then sees None
        for w in workers {
            w.await.expect("worker panicked");
        }
        results.close(); // consumer's stream ends after the drain
        consumer.await.expect("consumer panicked")
    });

    assert_eq!(total, PRODUCERS * ITEMS_PER_PRODUCER);
    assert_eq!(stage.live_waiters(), 0);
    assert_eq!(results.live_waiters(), 0);
    println!(
        "pipeline moved {total} items through {STAGE_CAPACITY}-slot stages \
         ({PRODUCERS} producers, {WORKERS} workers, 1 consumer) with zero \
         leaked waiter slots"
    );
}
