//! One driver function per paper figure/table plus the ablations —
//! the experiment index of DESIGN.md, executable.
//!
//! Each row of a table names the queue it builds ([`Algo`]) and the
//! [`Workload`] that drives it; the runner reports the operations it
//! performed, so throughput cells come from [`Cell::throughput`].

use crate::algos::{Algo, Tuning, Visit, AMD_SET, MODERN_SET, POWERPC_SET};
use crate::casbench;
use crate::report::{Cell, Table};
use crate::workload::{
    run_once, Driven, Frontend, LatencyReport, RunReport, Shape, Workload, WorkloadConfig,
};
use nbq_core::LanePolicy::{Mpmc, MpscFastPath, SpmcFastPath, SpscFastPath};
use nbq_core::{GatePolicy, OpStatsSnapshot};
use nbq_util::LatencyHistogram;

/// The paper's §6 loop on the raw queue.
const PAPER: Workload = Workload::raw(Shape::Mixed);

/// A table whose columns are `thread_counts`.
fn by_threads(id: &str, title: &str, unit: &str, thread_counts: &[usize]) -> Table {
    let columns = thread_counts.iter().map(|&t| t as u64).collect();
    Table::new(id, title, "threads", unit, columns)
}

/// `run` at each of the thread counts, all other parameters from `base`.
fn sweep<T>(counts: &[usize], base: &WorkloadConfig, run: impl Fn(&WorkloadConfig) -> T) -> Vec<T> {
    let cfg = |threads| WorkloadConfig { threads, ..*base };
    counts.iter().map(|&t| run(&cfg(t))).collect()
}

/// Mean seconds per run.
fn seconds(r: &RunReport) -> Cell {
    Cell::from(r.summary)
}

/// Throughput in Mops/s.
fn mops(r: &RunReport) -> Cell {
    Cell::throughput(r.ops, &r.summary)
}

/// One exact cell per measurement.
fn cells<R>(measured: &[R], value: impl Fn(&R) -> f64) -> Vec<Cell> {
    measured.iter().map(|m| Cell::exact(value(m))).collect()
}

/// Sweeps `algos` over `thread_counts` under the paper workload.
pub fn time_vs_threads(
    id: &str,
    title: &str,
    algos: &[Algo],
    thread_counts: &[usize],
    base: &WorkloadConfig,
) -> Table {
    let mut table = by_threads(id, title, "s", thread_counts);
    for &algo in algos {
        let cells = sweep(thread_counts, base, |cfg| seconds(&algo.run(&PAPER, cfg)));
        table.push_row(&algo.name(), cells);
    }
    table
}

/// Fig. 6(a): PowerPC set, absolute time.
pub fn fig6a(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    time_vs_threads(
        "fig6a",
        "Running time vs threads (PowerPC set)",
        POWERPC_SET,
        thread_counts,
        base,
    )
}

/// Fig. 6(b): AMD set, absolute time.
pub fn fig6b(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    time_vs_threads(
        "fig6b",
        "Running time vs threads (AMD set)",
        AMD_SET,
        thread_counts,
        base,
    )
}

/// Fig. 6(c): Fig. 6(a) normalized to the CAS queue ("the basis of
/// normalization was chosen to be our CAS-based implementation").
pub fn fig6c(fig6a: &Table) -> Table {
    fig6a.normalized_to(
        &Algo::CasQueue.name(),
        "fig6c",
        "Normalized running time (PowerPC set)",
    )
}

/// Fig. 6(d): Fig. 6(b) normalized to the CAS queue.
pub fn fig6d(fig6b: &Table) -> Table {
    fig6b.normalized_to(
        &Algo::CasQueue.name(),
        "fig6d",
        "Normalized running time (AMD set)",
    )
}

/// In-text T1: single-thread overhead of each synchronized queue over the
/// unsynchronized sequential queue. Returns (table of times, overhead
/// ratios keyed by algorithm name).
pub fn overhead(base: &WorkloadConfig) -> (Table, Vec<(String, f64)>) {
    let cfg = WorkloadConfig {
        threads: 1,
        ..*base
    };
    let mut table = by_threads(
        "t1-overhead",
        "Single-thread time vs unsynchronized queue",
        "s",
        &[1],
    );
    let times = [
        Algo::Sequential,
        Algo::LlScQueue,
        Algo::CasQueue,
        Algo::Shann,
        Algo::MsHpSorted,
        Algo::TsigasZhang,
    ]
    .map(|algo| (algo.name(), algo.run(&PAPER, &cfg).summary));
    for (name, s) in &times {
        table.push_row(name, vec![Cell::from(*s)]);
    }
    let seq = times[0].1.mean;
    let ratios = times[1..]
        .iter()
        .map(|(name, s)| (name.clone(), s.mean / seq - 1.0));
    (table, ratios.collect())
}

/// In-text T2: raw primitive costs.
pub fn cas_width(iters: u64) -> Table {
    let costs = casbench::measure(iters);
    let mut t = Table::new(
        "t2-caswidth",
        "Atomic primitive mixes",
        "ns_per_op",
        "ns",
        vec![0],
    );
    for c in &costs {
        t.push_row(c.name, vec![Cell::exact(c.ns_per_op)]);
    }
    t
}

/// `abl-reregister`: the corrected per-link gate vs the paper's per-op
/// gate (CAS queue).
pub fn ablate_reregister(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    let mut table = by_threads(
        "abl-reregister",
        "CAS queue: ReRegister gate per link vs per operation",
        "s",
        thread_counts,
    );
    for (label, gate) in [
        ("gate per link (corrected)", GatePolicy::PerLink),
        ("gate per operation (paper)", GatePolicy::PerOperation),
    ] {
        let tuning = Tuning {
            gate,
            ..Tuning::default()
        };
        let cells = sweep(thread_counts, base, |cfg| {
            seconds(&Algo::CasQueue.visit(cfg, tuning, &PAPER))
        });
        table.push_row(label, cells);
    }
    table
}

/// `abl-backoff` and `abl-backoff-contention`: exponential backoff on vs
/// off for both core queues — running time, and backoff snoozes per
/// operation. The snooze counter ticks even when backoff is disabled (the
/// would-have-yielded count), so the on/off rows compare like for like.
pub fn ablate_backoff(thread_counts: &[usize], base: &WorkloadConfig) -> (Table, Table) {
    let mut time = by_threads(
        "abl-backoff",
        "Core queues: exponential backoff on vs off",
        "s",
        thread_counts,
    );
    let mut snoozes = by_threads(
        "abl-backoff-contention",
        "Core queues: backoff snoozes per op, backoff on vs off",
        "snoozes/op",
        thread_counts,
    );
    for (algo, backoff, label) in [
        (Algo::CasQueue, true, "CAS queue, backoff on"),
        (Algo::CasQueue, false, "CAS queue, backoff off"),
        (Algo::LlScQueue, true, "LL/SC queue, backoff on"),
        (Algo::LlScQueue, false, "LL/SC queue, backoff off"),
    ] {
        let tuning = Tuning {
            backoff,
            ..Tuning::default()
        };
        let run = |cfg: &WorkloadConfig| seconds(&algo.visit(cfg, tuning, &PAPER));
        time.push_row(label, sweep(thread_counts, base, run));
        let snooze = |cfg: &WorkloadConfig| counters(algo, backoff, cfg).backoff_snoozes;
        let count = |cfg: &WorkloadConfig| Cell::exact(snooze(cfg));
        snoozes.push_row(label, sweep(thread_counts, base, count));
    }
    (time, snoozes)
}

/// `abl-capacity`: CAS queue time vs array capacity at fixed threads.
pub fn ablate_capacity(capacities: &[usize], base: &WorkloadConfig) -> Table {
    let mut table = Table::new(
        "abl-capacity",
        "CAS queue: running time vs array capacity",
        "capacity",
        "s",
        capacities.iter().map(|&c| c as u64).collect(),
    );
    let cells: Vec<Cell> = capacities
        .iter()
        .map(|&capacity| {
            let cfg = WorkloadConfig { capacity, ..*base };
            seconds(&Algo::CasQueue.run(&PAPER, &cfg))
        })
        .collect();
    table.push_row(&Algo::CasQueue.name(), cells);
    table
}

/// `abl-scan`: raw hazard-scan cost, sorted vs unsorted, as the hazard
/// list grows (the mechanism behind the MS-HP sorted/unsorted crossover).
pub fn ablate_scan(record_counts: &[usize], probes: usize) -> Table {
    use std::time::Instant;
    let mut table = Table::new(
        "abl-scan",
        "Hazard scan: ns per retired-node probe vs record count",
        "records",
        "ns",
        record_counts.iter().map(|&c| c as u64).collect(),
    );
    let mut sorted_cells = Vec::new();
    let mut unsorted_cells = Vec::new();
    for &records in record_counts {
        // Build a synthetic hazard snapshot (3 live hazards per record,
        // roughly what MS dequeue publishes).
        let hazards: Vec<usize> = (0..records * 3).map(|i| (i * 2654435761) | 1).collect();
        let lookups: Vec<usize> = (0..probes)
            .map(|i| {
                if i % 4 == 0 {
                    hazards[i % hazards.len()] // hit
                } else {
                    (i * 40503) | 1 // almost surely a miss
                }
            })
            .collect();

        let mut sorted = hazards.clone();
        let t0 = Instant::now();
        sorted.sort_unstable();
        let mut found = 0usize;
        for &p in &lookups {
            if sorted.binary_search(&p).is_ok() {
                found += 1;
            }
        }
        let sorted_ns = t0.elapsed().as_nanos() as f64 / probes as f64;
        std::hint::black_box(found);

        let t0 = Instant::now();
        let mut found = 0usize;
        for &p in &lookups {
            if hazards.contains(&p) {
                found += 1;
            }
        }
        let unsorted_ns = t0.elapsed().as_nanos() as f64 / probes as f64;
        std::hint::black_box(found);

        sorted_cells.push(Cell::exact(sorted_ns));
        unsorted_cells.push(Cell::exact(unsorted_ns));
    }
    table.push_row("sorted scan (sort + binary search)", sorted_cells);
    table.push_row("unsorted scan (linear probe)", unsorted_cells);
    table
}

/// `ext-ordering` and `ext-ordering-contention`: the compiled
/// memory-ordering mode's running time for the two core queues, and
/// their backoff snoozes per operation. A mode that wins on time but
/// loses on snoozes is winning on instruction cost, not on reduced
/// contention.
///
/// Row labels carry [`nbq_util::mem::mode()`] (`relaxed` for the default
/// per-site policy, `seqcst` under `--features strict-sc`), so running the
/// experiment once per build and merging the CSVs (see
/// [`Table::merge_csv_rows`]) yields the relaxed-vs-SeqCst comparison —
/// the ordering sweep's measured payoff.
pub fn ordering(thread_counts: &[usize], base: &WorkloadConfig) -> (Table, Table) {
    let mode = nbq_util::mem::mode();
    let mut time = by_threads(
        "ext-ordering",
        "Core queues: per-site relaxed orderings vs strict SeqCst",
        "s",
        thread_counts,
    );
    let mut snoozes = by_threads(
        "ext-ordering-contention",
        "Core queues: backoff snoozes per op by ordering mode",
        "snoozes/op",
        thread_counts,
    );
    for algo in [Algo::CasQueue, Algo::LlScQueue] {
        let label = format!("{} [{mode}]", algo.name());
        let run = |cfg: &WorkloadConfig| seconds(&algo.run(&PAPER, cfg));
        time.push_row(&label, sweep(thread_counts, base, run));
        let snooze = |cfg: &WorkloadConfig| Cell::exact(counters(algo, true, cfg).backoff_snoozes);
        snoozes.push_row(&label, sweep(thread_counts, base, snooze));
    }
    (time, snoozes)
}

/// The counters of one paper-workload run on a fresh counted queue.
struct Counted;

impl Visit for Counted {
    type Out = OpStatsSnapshot;
    fn visit<Q: Driven>(self, factory: impl Fn() -> Q, cfg: &WorkloadConfig) -> Self::Out {
        let q = factory();
        run_once(&q, cfg);
        let stats = q.op_stats().expect("Counted needs a counting queue");
        stats.snapshot()
    }
}

/// [`Counted`] on `algo` with backoff on or off: the source of the
/// backoff-snoozes-per-operation contention metric.
fn counters(algo: Algo, backoff: bool, cfg: &WorkloadConfig) -> OpStatsSnapshot {
    let tuning = Tuning {
        backoff,
        stats: true,
        ..Tuning::default()
    };
    algo.visit(cfg, tuning, Counted)
}

/// `ext-alloc`: throughput of the compiled node-lifecycle mode — pooled
/// recycling vs the `no-pool` per-node malloc build — for the two core
/// queues and the hazard-reclaimed MS baselines.
///
/// Row labels carry [`nbq_util::pool::mode()`] (`pooled` for the default
/// build, `malloc` under `--features no-pool`), so running once per build
/// and merging the CSVs (see [`Table::merge_csv_rows`]) yields the
/// cross-build comparison, exactly as `ext-ordering` does for memory
/// orderings. Reported in Mops/s (higher is better) so the pooled-vs-
/// malloc margin reads directly off the table.
pub fn alloc_throughput(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    let mode = nbq_util::pool::mode();
    let mut table = by_threads(
        "ext-alloc",
        "Node lifecycle: pooled recycling vs per-node malloc",
        "Mops/s",
        thread_counts,
    );
    for algo in [
        Algo::CasQueue,
        Algo::LlScQueue,
        Algo::MsHpUnsorted,
        Algo::MsDoherty,
    ] {
        let cells = sweep(thread_counts, base, |cfg| mops(&algo.run(&PAPER, cfg)));
        table.push_row(&format!("{} [{mode}]", algo.name()), cells);
    }
    table
}

/// `ext-alloc-counters`: where the CAS queue's nodes actually come from
/// under the paper workload — fresh allocations, recycle hits, spills and
/// refills per completed operation (the counter-to-code-site table in
/// DESIGN.md §8, measured).
///
/// Under the pooled build the `fresh alloc/op` row collapses toward zero
/// after warmup while `recycle hit/op` absorbs the traffic; under
/// `no-pool` every acquire is fresh and the recycle rows are zero.
pub fn alloc_counters(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    let mode = nbq_util::pool::mode();
    let mut table = by_threads(
        "ext-alloc-counters",
        "CAS queue: node-pool events per operation",
        "events/op",
        thread_counts,
    );
    let runs = sweep(thread_counts, base, |cfg| {
        (counters(Algo::CasQueue, true, cfg), cfg.total_ops().max(1))
    });
    type Events = fn(&OpStatsSnapshot) -> u64;
    let events: [(&str, Events); 4] = [
        ("fresh alloc/op", |s| s.pool_alloc),
        ("recycle hit/op", |s| s.pool_recycle_hits),
        ("spill/op", |s| s.pool_spills),
        ("refill/op", |s| s.pool_refills),
    ];
    for (label, count) in events {
        let per_op = cells(&runs, |(snap, ops)| count(snap) as f64 / *ops as f64);
        table.push_row(&format!("{label} [{mode}]"), per_op);
    }
    table
}

/// `ext-modern`: the paper's algorithms against modern comparators.
pub fn modern(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    time_vs_threads(
        "ext-modern",
        "Paper algorithms vs modern comparators",
        MODERN_SET,
        thread_counts,
        base,
    )
}

/// `ext-modern-ops`: per-operation protocol counters for the modern
/// rivals — SCQ's cycle wraps, threshold resets and catchup repairs, and
/// wCQ's helped slow-path completions on top of the same ring events —
/// alongside the shared FAA/slot-CAS instruction counts. One row per
/// (algorithm, metric), columns = thread counts.
pub fn modern_ops(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    let mut table = by_threads(
        "ext-modern-ops",
        "SCQ/wCQ: ring-protocol events per operation",
        "events/op",
        thread_counts,
    );
    // (row label, per-snapshot extractor) — identical metric set for the
    // two rivals so the rows compare directly; `help/op` is structurally
    // zero for SCQ (it has no helping path).
    type OpsMetric = (&'static str, fn(&OpStatsSnapshot) -> f64);
    let metrics: &[OpsMetric] = &[
        ("faa/op", |s| s.faa_ops),
        ("slot CAS attempt/op", |s| s.slot_cas_attempts),
        ("cycle wrap/op", |s| s.cycle_wraps),
        ("threshold reset/op", |s| s.threshold_resets),
        ("catchup/op", |s| s.catchups),
        ("help/op", |s| s.help_events),
    ];
    for (name, algo) in [("SCQ", Algo::Scq), ("wCQ", Algo::Wcq)] {
        let snaps = sweep(thread_counts, base, |cfg| counters(algo, true, cfg));
        for (label, get) in metrics {
            table.push_row(&format!("{name}: {label}"), cells(&snaps, get));
        }
    }
    table
}

/// `t4-opcounts`: the paper's per-operation synchronization-instruction
/// accounting, measured. Returns a table with one row per (algorithm,
/// metric) and columns = thread counts.
pub fn opcounts(thread_counts: &[usize], iterations: usize) -> Table {
    use nbq_baselines::MsDohertyQueue;

    let mut table = by_threads(
        "t4-opcounts",
        "Synchronization instructions per queue operation",
        "count/op",
        thread_counts,
    );
    // One enqueue then one dequeue per iteration: the paper's loop with
    // bursts of one.
    let base = WorkloadConfig {
        iterations,
        runs: 1,
        capacity: 4096,
        burst: 1,
        ..WorkloadConfig::default()
    };
    let cas = sweep(thread_counts, &base, |cfg| {
        counters(Algo::CasQueue, true, cfg)
    });
    table.push_row(
        "CAS queue: successful slot CAS",
        cells(&cas, |s| s.slot_cas_successes),
    );
    table.push_row(
        "CAS queue: successful index CAS",
        cells(&cas, |s| s.index_cas_successes),
    );
    table.push_row("CAS queue: fetch-and-add", cells(&cas, |s| s.faa_ops));
    // MS-Doherty successful SCs per operation.
    let sc = sweep(thread_counts, &base, |cfg| {
        let q = MsDohertyQueue::<u64>::new();
        run_once(&q, cfg);
        q.domain().pool().sc_successes() as f64 / cfg.total_ops() as f64
    });
    table.push_row("MS-Doherty: successful SC (cell CAS)", cells(&sc, |&sc| sc));
    table
}

/// `ext-batch` (instructions): index-CAS cost per element for the CAS
/// queue as the batch size grows, measured with [`nbq_core::OpStats`].
///
/// The batch API's claim is that the slot protocol stays per-element
/// (2 successful slot CASes, irreducible) while the Head/Tail advance
/// becomes one jump-CAS per *batch*; this table shows the index row
/// falling as `~2/batch` while the slot row stays flat.
pub fn batch_amortization(batch_sizes: &[usize], laps: usize) -> Table {
    use nbq_core::CasQueue;
    use nbq_util::QueueHandle;

    let mut table = Table::new(
        "ext-batch-ops",
        "CAS queue: synchronization instructions per element vs batch size",
        "batch",
        "count/element",
        batch_sizes.iter().map(|&b| b as u64).collect(),
    );
    let mut index_cells = Vec::new();
    let mut slot_cells = Vec::new();
    for &batch in batch_sizes {
        let q = CasQueue::<u64>::with_stats((batch * 4).max(64));
        let mut h = q.handle();
        let mut out = Vec::with_capacity(batch);
        for lap in 0..laps as u64 {
            let base = lap * batch as u64;
            let items: Vec<u64> = (base..base + batch as u64).collect();
            if batch == 1 {
                // Batch 1 through the single-op path: the baseline the
                // amortization is measured against.
                for v in items {
                    h.enqueue(v).expect("capacity sized for the lap");
                }
                while h.dequeue().is_some() {}
            } else {
                h.enqueue_batch(items.into_iter())
                    .expect("capacity sized for the lap");
                out.clear();
                h.dequeue_batch(&mut out, batch);
            }
        }
        let snap = q.stats().expect("stats enabled").snapshot();
        index_cells.push(Cell::exact(snap.index_cas_attempts));
        slot_cells.push(Cell::exact(snap.slot_cas_successes));
    }
    table.push_row("index CAS attempts", index_cells);
    table.push_row("successful slot CAS", slot_cells);
    table
}

/// `ext-batch` (time): the paper workload with `burst`-sized batch calls
/// vs `burst` single calls, for both core queues.
pub fn batch_time(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    let mut table = by_threads(
        "ext-batch-time",
        "Core queues: batched vs single-op workload",
        "s",
        thread_counts,
    );
    for (shape, calls) in [
        (Shape::Mixed, "single ops".to_string()),
        (Shape::Batched, format!("batched x{}", base.burst)),
    ] {
        for algo in [Algo::CasQueue, Algo::LlScQueue] {
            let workload = Workload::raw(shape);
            let cells = sweep(thread_counts, base, |cfg| {
                seconds(&algo.run(&workload, cfg))
            });
            table.push_row(&format!("{}, {calls}", algo.name()), cells);
        }
    }
    table
}

/// `ext-sharding`: throughput of the sharded frontend vs the single-lane
/// core queues across thread counts.
///
/// Reported in Mops/s (higher is better) rather than seconds so the
/// scaling claim — some lane count > 1 beating the single-lane queue's
/// peak once the `Head`/`Tail` pair saturates — is directly readable off
/// the CSV. Row set: both single-lane paper queues plus `Sharded CAS xN`
/// and `Sharded LL/SC xN` for every `N` in `lane_counts`.
pub fn sharding(thread_counts: &[usize], lane_counts: &[usize], base: &WorkloadConfig) -> Table {
    use crate::algos::Lane;

    let mut table = by_threads(
        "ext-sharding",
        "Sharded frontend: throughput vs lane count vs threads",
        "Mops/s",
        thread_counts,
    );
    let mut algos: Vec<Algo> = vec![Algo::CasQueue, Algo::LlScQueue];
    for lane in [Lane::Cas, Lane::Llsc] {
        algos.extend(lane_counts.iter().map(|&lanes| Algo::Sharded {
            lane,
            lanes,
            policy: Mpmc,
        }));
    }
    for algo in algos {
        let cells = sweep(thread_counts, base, |cfg| mops(&algo.run(&PAPER, cfg)));
        table.push_row(&algo.name(), cells);
    }
    table
}

/// `ext-sharding-ops`: per-lane index-CAS attempts per completed
/// operation for a `Sharded CAS x<lanes>` frontend under the paper
/// workload — the contention picture behind [`sharding`]'s times.
///
/// One row per lane plus a `single lane (baseline)` row measuring an
/// unsharded CAS queue under the same load. Lane affinity working means
/// every lane's row sits near the uncontended ~1 attempt/op while the
/// baseline row climbs with the thread count.
pub fn sharding_opstats(thread_counts: &[usize], lanes: usize, base: &WorkloadConfig) -> Table {
    use nbq_core::{CasQueue, ShardedQueue};

    let mut table = by_threads(
        "ext-sharding-ops",
        "Sharded CAS frontend: index CAS attempts per op, by lane",
        "attempts/op",
        thread_counts,
    );
    // Per column: each lane's attempts, then the single-lane baseline's.
    let runs = sweep(thread_counts, base, |cfg| {
        let per_lane = cfg.capacity.div_ceil(lanes);
        let q = ShardedQueue::with_lanes(lanes, |_| CasQueue::<u64>::with_stats(per_lane));
        run_once(&q, cfg);
        let lane = |l| q.lane(l).stats().expect("stats enabled").snapshot();
        let mut attempts: Vec<f64> = (0..lanes).map(|l| lane(l).index_cas_attempts).collect();
        attempts.push(counters(Algo::CasQueue, true, cfg).index_cas_attempts);
        attempts
    });
    for lane in 0..lanes {
        table.push_row(
            &format!("lane {lane} of {lanes}"),
            cells(&runs, |r| r[lane]),
        );
    }
    table.push_row("single lane (baseline)", cells(&runs, |r| r[lanes]));
    table
}

/// The async frontend over the work-stealing scheduler.
const ASYNC: Frontend = Frontend::Async {
    injection_only: false,
};

/// `ext-async`: throughput of the async channel frontend (tokio
/// multi-thread runtime, one task per paper thread) against the same
/// queues driven raw (spin on Full/empty) and through the condvar
/// [`BlockingQueue`](nbq_util::BlockingQueue) frontend.
///
/// Reported in Mops/s. The interesting contrast is *cost of parking*:
/// the raw rows spin (cheapest under this balanced workload), the
/// blocking rows pay a mutex+condvar per park, the async rows pay a
/// lock-free waiter-slot push plus an executor reschedule. Async rows
/// run on the vendored tokio stand-in's work-stealing scheduler
/// (per-worker run queues + LIFO slots; see [`async_latency`] for the
/// scheduler-mode comparison and the latency distributions behind these
/// throughputs).
pub fn async_frontend(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    let mut table = by_threads(
        "ext-async",
        "Async channel frontend: throughput vs raw and blocking frontends",
        "Mops/s",
        thread_counts,
    );
    let mut row = |label: &str, algo: Algo, workload: Workload| {
        let cells = sweep(thread_counts, base, |cfg| mops(&algo.run(&workload, cfg)));
        table.push_row(label, cells);
    };
    for algo in [Algo::CasQueue, Algo::LlScQueue] {
        row(&format!("{} (raw)", algo.name()), algo, PAPER);
    }
    let (blocking, asynchronous) = (PAPER.via(Frontend::Blocking), PAPER.via(ASYNC));
    row("Blocking CAS frontend (condvar)", Algo::CasQueue, blocking);
    row("Async CAS frontend", Algo::CasQueue, asynchronous);
    row("Async LL/SC frontend", Algo::LlScQueue, asynchronous);
    row("Async Sharded CAS x4", Algo::sharded(4, Mpmc), asynchronous);
    table
}

/// `ext-async-wakers`: waiter-registry traffic per operation for the
/// async CAS frontend — how often futures actually park (registrations),
/// how many wakes the registry issues, and how many woken polls find the
/// queue already raced away (spurious).
///
/// The balanced paper workload never parks (each task dequeues its own
/// burst right back), so this table drives the frontend in its natural
/// channel shape instead: half the tasks are pure producers, half pure
/// consumers, over a queue sized to one burst per task — receivers park
/// on empty and senders on Full constantly, and the close-time drain
/// exercises `wake_all`.
pub fn async_wakers(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    let mut table = by_threads(
        "ext-async-wakers",
        "Async CAS frontend: waiter-registry events per op (producer/consumer split)",
        "events/op",
        thread_counts,
    );
    let runs = sweep(thread_counts, base, |cfg| {
        let producers = (cfg.threads / 2).max(1);
        let fan = Workload::raw(Shape::Fan { producers }).via(ASYNC);
        let cfg = WorkloadConfig {
            threads: producers + cfg.threads.saturating_sub(producers).max(1),
            // One burst of headroom per task: small enough to park on
            // every rate mismatch, large enough to keep both sides moving.
            capacity: (cfg.burst * cfg.threads).min(cfg.capacity),
            runs: 1,
            ..*cfg
        };
        Algo::CasQueue.run(&fan, &cfg)
    });
    type Events = fn(&OpStatsSnapshot) -> u64;
    let events: [(&str, Events); 3] = [
        ("waker registrations", |s| s.waker_registrations),
        ("wakes issued", |s| s.waker_wakes),
        ("spurious polls", |s| s.spurious_polls),
    ];
    for (label, count) in events {
        let per_op =
            |r: &RunReport| count(r.counters.as_ref().expect("async run")) as f64 / r.ops as f64;
        table.push_row(label, cells(&runs, per_op));
    }
    table
}

/// `ext-async-latency` and `ext-steal`: end-to-end per-operation latency
/// distributions (p50/p99/p999 for enqueue and dequeue, p99 for the echo)
/// plus throughput, for the condvar blocking frontend and the async
/// frontend under both executor schedulers — the work-stealing scheduler
/// and its single-injection-queue control (`injection_only`) — and the
/// scheduler counters behind the async pipe rows.
///
/// Two async workload shapes per scheduler: the balanced paper shape
/// (each task alternates bursts; echo = one full burst iteration), and
/// the split-role *pipe* shape (half senders, half receivers, one burst
/// of capacity headroom per producer; echo = in-queue transit time from
/// `send` to `recv`). The pipe rows are the scheduler-sensitive ones:
/// every value's delivery rides a park → wake → re-poll round trip, so
/// the wake path (worker LIFO slot vs shared injection mutex) is the
/// critical path.
///
/// Latencies include parking and reschedule time (that is the point:
/// the async rows measure the *executor round trip*, not just the queue
/// op), quantized ≤ 3.1% by [`nbq_util::LatencyHistogram`]. The latency
/// table's unit is `mixed`: each row label carries its own unit (Mops/s
/// or µs).
///
/// `ext-steal` reports, from the same pipe runs, steals, steal batches,
/// LIFO-slot hits, injection-queue polls and parks per 1000 completed
/// queue operations, per scheduler mode. The injection-only control's
/// rows pin the baseline: zero steals and LIFO hits by construction,
/// every poll through the shared queue.
///
/// Under a `--features injection-only` build the work-stealing scheduler
/// does not exist, so its rows are omitted rather than silently measuring
/// the control twice.
pub fn async_latency(thread_counts: &[usize], base: &WorkloadConfig) -> (Table, Table) {
    use tokio::runtime::RuntimeMetrics;

    let mut latency = by_threads(
        "ext-async-latency",
        "End-to-end latency and throughput: blocking vs async frontends \
         (CAS queue), work-stealing vs injection-only executor",
        "mixed",
        thread_counts,
    );
    let mut steal = by_threads(
        "ext-steal",
        "Executor scheduler counters per 1000 async queue ops, by mode",
        "events/kop",
        thread_counts,
    );
    let mut modes = vec![("injection-only", true)];
    if !tokio::runtime::injection_only_build() {
        modes.insert(0, ("work-stealing", false));
    }
    let timed =
        |workload: Workload| move |cfg: &WorkloadConfig| Algo::CasQueue.run(&workload.timed(), cfg);
    let blocking = sweep(thread_counts, base, timed(PAPER.via(Frontend::Blocking)));
    let mut frontends = vec![("blocking (condvar)".to_string(), blocking)];
    for &(mode, injection_only) in &modes {
        let asynchronous = PAPER.via(Frontend::Async { injection_only });
        let runs = sweep(thread_counts, base, timed(asynchronous));
        frontends.push((format!("async ({mode})"), runs));
    }
    type Count = fn(&RuntimeMetrics) -> u64;
    let counters: [(&str, Count); 5] = [
        ("steals", |m| m.steals),
        ("steal batches", |m| m.steal_batches),
        ("lifo hits", |m| m.lifo_hits),
        ("injection polls", |m| m.injection_polls),
        ("parks", |m| m.parks),
    ];
    for &(mode, injection_only) in &modes {
        let pipe = |cfg: &WorkloadConfig| {
            // One burst of capacity headroom per pipe producer.
            let capacity = ((cfg.threads / 2).max(1) * cfg.burst).min(cfg.capacity);
            let asynchronous = Frontend::Async { injection_only };
            let workload = Workload::raw(Shape::pipe(cfg.threads)).via(asynchronous);
            timed(workload)(&WorkloadConfig { capacity, ..*cfg })
        };
        let runs = sweep(thread_counts, base, pipe);
        for (label, count) in counters {
            // Counters are cumulative over all runs on the one runtime.
            let per_kop = |r: &RunReport| {
                let kops = (r.ops * r.summary.n as u64) as f64 / 1e3;
                count(&r.executor.expect("async run")) as f64 / kops
            };
            steal.push_row(&format!("{label} [{mode}]"), cells(&runs, per_kop));
        }
        frontends.push((format!("async pipe ({mode})"), runs));
    }

    type HistPick = fn(&LatencyReport) -> &LatencyHistogram;
    let us = |pick: HistPick, q: f64| {
        move |r: &RunReport| {
            pick(r.latency.as_ref().expect("timed run")).quantile_ns(q) as f64 / 1e3
        }
    };
    for (frontend, runs) in &frontends {
        let tput = runs.iter().map(mops).collect();
        latency.push_row(&format!("{frontend} throughput (Mops/s)"), tput);
        let hist_of: [(&str, HistPick); 2] =
            [("enqueue", |r| &r.enqueue), ("dequeue", |r| &r.dequeue)];
        for (op, pick) in hist_of {
            for (q_label, q) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
                let label = format!("{frontend} {op} {q_label} (us)");
                latency.push_row(&label, cells(runs, us(pick, q)));
            }
        }
        let echo = cells(runs, us(|r| &r.echo, 0.99));
        latency.push_row(&format!("{frontend} echo p99 (us)"), echo);
    }
    (latency, steal)
}

/// `ext-spsc`: the SPSC crossover sweep. Every column is a split-role
/// pipe (`threads/2` producers, `threads/2` consumers); the sharded rows
/// pin producer/consumer pairs one-per-lane, so the mixed row's lanes run
/// entirely on their wait-free SPSC rings while the pinned-MPMC control
/// row pays the full CAS protocol for the identical load shape.
///
/// Lane counts scale with the column (`lanes = threads / 2`), which keeps
/// the comparison honest: both sharded rows always have exactly one
/// producer and one consumer per lane, so the only difference is the
/// ring. Reported in Mops/s (higher is better); the crossover claim reads
/// directly off the mixed-vs-control margin as threads grow.
pub fn spsc(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    assert!(
        thread_counts.iter().all(|&t| t >= 2 && t % 2 == 0),
        "the pipe pairs producers with consumers: thread counts must be even"
    );
    let mut table = by_threads(
        "ext-spsc",
        "SPSC fast-path lanes: pipe throughput vs MPMC lanes",
        "Mops/s",
        thread_counts,
    );
    for algo in [Algo::CasQueue, Algo::LlScQueue] {
        let cells = sweep(thread_counts, base, |cfg| {
            mops(&algo.run(&Workload::raw(Shape::pipe(cfg.threads)), cfg))
        });
        table.push_row(&format!("{} (pipe)", algo.name()), cells);
    }
    for (label, policy) in [
        ("Sharded pinned MPMC (lane per pair)", Mpmc),
        ("Sharded mixed SPSC (lane per pair)", SpscFastPath),
    ] {
        let cells = sweep(thread_counts, base, |cfg| {
            let algo = Algo::sharded(cfg.threads / 2, policy);
            mops(&algo.run(&Workload::raw(Shape::Pairs), cfg))
        });
        table.push_row(label, cells);
    }
    table
}

/// `ext-spsc-1p1c`: the acceptance cell, isolated — every queue on the
/// identical 2-thread (1 producer, 1 consumer) pipe, including the raw
/// wait-free ring (which only admits this arrangement, hence its own
/// table). The SPSC rows beating the best MPMC row here is the point of
/// the fast path.
pub fn spsc_1p1c(base: &WorkloadConfig) -> Table {
    let mut table = by_threads(
        "ext-spsc-1p1c",
        "1p/1c pipe: wait-free SPSC ring vs MPMC queues",
        "Mops/s",
        &[2],
    );
    let cfg = WorkloadConfig {
        threads: 2,
        ..*base
    };
    for (label, algo) in [
        ("Wait-free SPSC ring (pipe)", Algo::SpscRing),
        ("Sharded mixed SPSC x1", Algo::sharded(1, SpscFastPath)),
        ("Sharded pinned MPMC x1", Algo::sharded(1, Mpmc)),
        ("FIFO Array Simulated CAS (pipe)", Algo::CasQueue),
        ("FIFO Array LL/SC (pipe)", Algo::LlScQueue),
    ] {
        // The sharded rows pin their one pair to the lane.
        let shape = match algo {
            Algo::Sharded { .. } => Shape::Pairs,
            _ => Shape::pipe(2),
        };
        table.push_row(label, vec![mops(&algo.run(&Workload::raw(shape), &cfg))]);
    }
    table
}

/// `ext-arity`: arity-specialized lanes on asymmetric split-role
/// workloads. Fan-in columns run `threads - lanes` producers into one
/// consumer per lane (the MPSC shape); fan-out mirrors it (one producer
/// per lane, `threads - lanes` consumers — the SPMC shape). The raw-ring
/// rows bound what the half-relaxed protocols can do; the pinned-MPMC
/// control rows pay the full CAS protocol for the identical load shape,
/// so each fast path's gain reads directly off its margin over the
/// control.
///
/// Every row label carries the capability-kind column (`[mpsc+wf]`,
/// `[mpmc]`, ...) from [`Algo::kind`]. Reported in Mops/s (higher is
/// better). Thread counts must be >= 4 so every 2-lane entry keeps at
/// least one endpoint per lane on each side.
pub fn arity(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    assert!(
        thread_counts.iter().all(|&t| t >= 4),
        "2-lane fan entries need >= 4 threads (one single-side endpoint \
         per lane plus one multi-side endpoint per lane)"
    );
    let mut table = by_threads(
        "ext-arity",
        "Arity-specialized lanes: fan-in/fan-out throughput vs MPMC",
        "Mops/s",
        thread_counts,
    );
    // Over the single-lane raw rings and CAS queue the pinned fans are
    // the plain fans: `threads - 1` producers into one consumer, or one
    // producer out to `threads - 1` consumers.
    let fan_in = [
        ("Wait-free MPSC ring (fan-in)", Algo::MpscRing),
        ("FIFO Array Simulated CAS (fan-in)", Algo::CasQueue),
        ("Sharded MPSC fan-in x2", Algo::sharded(2, MpscFastPath)),
        ("Sharded pinned MPMC fan-in x2", Algo::sharded(2, Mpmc)),
    ];
    let fan_out = [
        ("Wait-free SPMC ring (fan-out)", Algo::SpmcRing),
        ("FIFO Array Simulated CAS (fan-out)", Algo::CasQueue),
        ("Sharded SPMC fan-out x2", Algo::sharded(2, SpmcFastPath)),
        ("Sharded pinned MPMC fan-out x2", Algo::sharded(2, Mpmc)),
    ];
    for (shape, rows) in [(Shape::FanIn, fan_in), (Shape::FanOut, fan_out)] {
        for (label, algo) in rows {
            let workload = Workload::raw(shape);
            let cells = sweep(thread_counts, base, |cfg| mops(&algo.run(&workload, cfg)));
            table.push_row(&format!("{label} [{}]", algo.kind()), cells);
        }
    }
    table
}

/// `ext-net` / `ext-net-lat`: the whole stack under real kernel traffic.
///
/// Each column runs the loopback broker workload ([`nbq_net::run_workload_net`]):
/// `connections/2` stop-and-wait publishers and as many subscribers,
/// paired onto shared topics, every topic a `ShardedQueue`-backed async
/// channel whose lanes are built from the row's backbone queue. The
/// measurement includes the full path the microbenchmarks skip — frame
/// encode, `write(2)`, epoll wakeup inside the executor's parker, frame
/// decode, queue, and the same back out — so the backbone differences
/// that dominate `fig6a` shrink to their share of a real message cycle.
///
/// Returns the throughput table (`ext-net`: delivered kmsg/s plus the
/// broker-side BUSY rate per 1000 published) and the latency table
/// (`ext-net-lat`: publish→deliver e2e and PUB→ACK RTT p50/p99/p999,
/// µs) for the four backbones: the paper's CAS and LL/SC queues and the
/// SCQ/wCQ modern rivals. Lane capacity is fixed at 128 so protocol
/// backpressure actually engages at the default fan-in.
pub fn net(connection_counts: &[usize], messages_per_publisher: usize) -> (Table, Table) {
    use nbq_baselines::{ScqQueue, WcqQueue};
    use nbq_core::{CasQueue, LlScQueue};
    use nbq_net::{run_workload_net, NetConfig, NetMsg, NetReport};

    /// Per-lane backbone capacity: small enough that the default fan-in
    /// (8 pairs per topic) can fill a lane and surface BUSY, large
    /// enough that steady state is not backpressure-bound.
    const LANE_CAP: usize = 128;
    let columns: Vec<u64> = connection_counts.iter().map(|&c| c as u64).collect();
    let mut tput = Table::new(
        "ext-net",
        "Networked broker: delivered throughput by queue backbone",
        "connections",
        "mixed",
        columns.clone(),
    );
    let mut lat = Table::new(
        "ext-net-lat",
        "Networked broker: end-to-end and ACK-RTT quantiles by backbone",
        "connections",
        "us",
        columns,
    );
    type Runner = fn(NetConfig) -> NetReport;
    let backbones: [(&str, Runner); 4] = [
        ("cas", |cfg| {
            run_workload_net(cfg, |_: usize| CasQueue::<NetMsg>::with_capacity(LANE_CAP))
        }),
        ("llsc", |cfg| {
            run_workload_net(cfg, |_: usize| LlScQueue::<NetMsg>::with_capacity(LANE_CAP))
        }),
        ("scq", |cfg| {
            run_workload_net(cfg, |_: usize| ScqQueue::<NetMsg>::with_capacity(LANE_CAP))
        }),
        ("wcq", |cfg| {
            run_workload_net(cfg, |_: usize| WcqQueue::<NetMsg>::with_capacity(LANE_CAP))
        }),
    ];
    type HistPick = fn(&NetReport) -> &LatencyHistogram;
    for (name, run) in backbones {
        let reports: Vec<NetReport> = connection_counts
            .iter()
            .map(|&connections| {
                run(NetConfig {
                    connections,
                    messages_per_publisher,
                    ..NetConfig::default()
                })
            })
            .collect();
        let delivered = cells(&reports, |r| r.throughput() / 1e3);
        tput.push_row(&format!("{name} delivered (kmsg/s)"), delivered);
        let busy = cells(&reports, |r| {
            r.broker.busy as f64 * 1e3 / r.published.max(1) as f64
        });
        tput.push_row(&format!("{name} busy/kmsg"), busy);
        let picks: [(&str, HistPick); 2] = [("e2e", |r| &r.e2e), ("ack rtt", |r| &r.ack_rtt)];
        for (op, pick) in picks {
            for (q_label, q) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
                let us = cells(&reports, |r| pick(r).quantile_ns(q) as f64 / 1e3);
                lat.push_row(&format!("{name} {op} {q_label} (us)"), us);
            }
        }
    }
    (tput, lat)
}

/// In-text T3 helper: LL/SC-vs-CAS speed ratio out of a fig6a table.
pub fn llsc_vs_cas_ratio(fig6a: &Table) -> Vec<(u64, f64)> {
    let (llsc, cas) = (Algo::LlScQueue.name(), Algo::CasQueue.name());
    fig6a
        .columns
        .iter()
        .filter_map(|&threads| {
            let llsc = fig6a.cell(&llsc, threads)?;
            let cas = fig6a.cell(&cas, threads)?;
            Some((threads, cas.mean / llsc.mean - 1.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WorkloadConfig {
        WorkloadConfig {
            threads: 2,
            iterations: 20,
            runs: 1,
            capacity: 128,
            burst: 5,
        }
    }

    #[test]
    fn fig6a_has_the_paper_rows() {
        let t = fig6a(&[1, 2], &tiny());
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.columns, vec![1, 2]);
        assert!(t.cell("FIFO Array LL/SC", 2).is_some());
    }

    #[test]
    fn fig6c_normalizes_cas_row_to_one() {
        let a = fig6a(&[1], &tiny());
        let c = fig6c(&a);
        let cas = c.cell(&Algo::CasQueue.name(), 1).unwrap();
        assert!((cas.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_reports_positive_times_and_finite_ratios() {
        let (table, ratios) = overhead(&WorkloadConfig {
            threads: 1,
            iterations: 200,
            runs: 2,
            capacity: 128,
            burst: 5,
        });
        assert_eq!(table.rows.len(), 6);
        assert_eq!(ratios.len(), 5);
        for (name, r) in &ratios {
            assert!(r.is_finite(), "{name} ratio not finite");
        }
    }

    #[test]
    fn cas_width_table_lists_all_mixes() {
        let t = cas_width(5_000);
        assert_eq!(t.rows.len(), 5);
        for (_, cells) in &t.rows {
            assert!(cells[0].mean > 0.0);
        }
    }

    #[test]
    fn scan_ablation_has_two_strategies() {
        let t = ablate_scan(&[2, 64], 1_000);
        assert_eq!(t.rows.len(), 2);
        // At 64 records (192 hazards), linear probing must not beat
        // binary search by much; don't assert a winner (machine noise),
        // just positivity.
        for (_, cells) in &t.rows {
            assert!(cells.iter().all(|c| c.mean >= 0.0));
        }
    }

    #[test]
    fn reregister_ablation_runs_both_gates() {
        let t = ablate_reregister(&[1], &tiny());
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn opcounts_reproduces_the_three_cas_claim() {
        let t = opcounts(&[1], 300);
        let slot = t.cell("CAS queue: successful slot CAS", 1).unwrap().mean;
        let index = t.cell("CAS queue: successful index CAS", 1).unwrap().mean;
        assert!((slot - 2.0).abs() < 0.05, "slot {slot}");
        assert!((index - 1.0).abs() < 0.05, "index {index}");
        let sc = t
            .cell("MS-Doherty: successful SC (cell CAS)", 1)
            .unwrap()
            .mean;
        assert!(sc >= 1.0, "MS-Doherty does >=1 successful SC per op: {sc}");
    }

    #[test]
    fn batch_amortization_index_row_falls_with_batch_size() {
        let t = batch_amortization(&[1, 16], 200);
        let at1 = t.cell("index CAS attempts", 1).unwrap().mean;
        let at16 = t.cell("index CAS attempts", 16).unwrap().mean;
        assert!((at1 - 1.0).abs() < 0.05, "single-op baseline {at1}");
        assert!(at16 < 0.25 * at1, "batch 16 not amortized: {at16} vs {at1}");
        // Slot cost is flat: 2 successful slot CASes per element either way.
        let s1 = t.cell("successful slot CAS", 1).unwrap().mean;
        let s16 = t.cell("successful slot CAS", 16).unwrap().mean;
        assert!((s1 - 2.0).abs() < 0.05 && (s16 - 2.0).abs() < 0.05);
    }

    #[test]
    fn batch_time_runs_all_four_rows() {
        let t = batch_time(&[2], &tiny());
        assert_eq!(t.rows.len(), 4);
        for (label, cells) in &t.rows {
            assert!(cells[0].mean > 0.0, "{label} returned zero time");
        }
    }

    #[test]
    fn ordering_rows_carry_the_compiled_mode() {
        let (t, _) = ordering(&[1, 2], &tiny());
        assert_eq!(t.rows.len(), 2);
        let mode = nbq_util::mem::mode();
        for (label, cells) in &t.rows {
            assert!(
                label.ends_with(&format!("[{mode}]")),
                "row {label} missing mode suffix"
            );
            assert!(cells.iter().all(|c| c.mean > 0.0));
        }
        #[cfg(feature = "strict-sc")]
        assert_eq!(mode, "seqcst");
        #[cfg(not(feature = "strict-sc"))]
        assert_eq!(mode, "relaxed");
    }

    #[test]
    fn contention_tables_report_finite_snoozes() {
        let (_, t) = ordering(&[2], &tiny());
        assert_eq!(t.rows.len(), 2);
        let (_, b) = ablate_backoff(&[2], &tiny());
        assert_eq!(b.rows.len(), 4);
        for table in [&t, &b] {
            for (label, cells) in &table.rows {
                assert!(
                    cells.iter().all(|c| c.mean.is_finite() && c.mean >= 0.0),
                    "{label} snoozes not finite"
                );
            }
        }
    }

    #[test]
    fn alloc_rows_carry_the_compiled_mode() {
        let t = alloc_throughput(&[1, 2], &tiny());
        assert_eq!(t.rows.len(), 4);
        let mode = nbq_util::pool::mode();
        for (label, cells) in &t.rows {
            assert!(
                label.ends_with(&format!("[{mode}]")),
                "row {label} missing mode suffix"
            );
            assert!(cells.iter().all(|c| c.mean > 0.0 && c.mean.is_finite()));
        }
        #[cfg(feature = "no-pool")]
        assert_eq!(mode, "malloc");
        #[cfg(not(feature = "no-pool"))]
        assert_eq!(mode, "pooled");
    }

    #[test]
    fn alloc_counters_split_fresh_from_recycled() {
        let t = alloc_counters(&[2], &tiny());
        assert_eq!(t.rows.len(), 4);
        let mode = nbq_util::pool::mode();
        let fresh = t.cell(&format!("fresh alloc/op [{mode}]"), 2).unwrap().mean;
        let hits = t.cell(&format!("recycle hit/op [{mode}]"), 2).unwrap().mean;
        assert!(fresh >= 0.0 && hits >= 0.0);
        #[cfg(feature = "no-pool")]
        assert_eq!(hits, 0.0, "malloc mode never reports recycle hits");
        #[cfg(not(feature = "no-pool"))]
        assert!(
            hits > 0.0,
            "pooled mode must recycle under a cyclic workload"
        );
    }

    #[test]
    fn sharding_table_has_baselines_and_all_lane_counts() {
        let t = sharding(&[1, 2], &[2, 4], &tiny());
        // 2 single-lane baselines + 2 sharded CAS + 2 sharded LL/SC.
        assert_eq!(t.rows.len(), 6);
        assert!(t.cell("FIFO Array Simulated CAS", 2).is_some());
        assert!(t.cell("Sharded CAS x2", 2).is_some());
        assert!(t.cell("Sharded LL/SC x4", 1).is_some());
        for (label, cells) in &t.rows {
            assert!(
                cells.iter().all(|c| c.mean > 0.0 && c.mean.is_finite()),
                "{label} throughput not positive"
            );
        }
    }

    #[test]
    fn sharding_opstats_reports_every_lane_plus_baseline() {
        let t = sharding_opstats(&[2], 2, &tiny());
        assert_eq!(t.rows.len(), 3);
        assert!(t.cell("lane 0 of 2", 2).is_some());
        assert!(t.cell("single lane (baseline)", 2).is_some());
        for (label, cells) in &t.rows {
            assert!(
                cells.iter().all(|c| c.mean.is_finite() && c.mean >= 0.0),
                "{label} attempts not finite"
            );
        }
    }

    #[test]
    fn async_latency_table_has_throughput_and_quantile_rows() {
        let (t, _) = async_latency(&[1, 2], &tiny());
        // 8 rows per frontend: blocking + two injection-only shapes
        // always, plus two work-stealing shapes unless this build forces
        // the control.
        let frontends = if tokio::runtime::injection_only_build() {
            3
        } else {
            5
        };
        assert_eq!(t.rows.len(), 8 * frontends);
        assert!(t
            .cell("async pipe (injection-only) echo p99 (us)", 2)
            .is_some());
        assert!(t
            .cell("async (injection-only) throughput (Mops/s)", 2)
            .is_some());
        assert!(t.cell("blocking (condvar) enqueue p99 (us)", 1).is_some());
        for (label, cells) in &t.rows {
            assert!(
                cells.iter().all(|c| c.mean.is_finite() && c.mean >= 0.0),
                "{label} not finite"
            );
        }
        // p50 <= p99 <= p999 within each op's row triple.
        for frontend in ["blocking (condvar)", "async (injection-only)"] {
            for op in ["enqueue", "dequeue"] {
                let p50 = t.cell(&format!("{frontend} {op} p50 (us)"), 2).unwrap();
                let p99 = t.cell(&format!("{frontend} {op} p99 (us)"), 2).unwrap();
                let p999 = t.cell(&format!("{frontend} {op} p999 (us)"), 2).unwrap();
                assert!(p50.mean <= p99.mean && p99.mean <= p999.mean);
            }
        }
    }

    #[test]
    fn steal_table_reports_every_counter_per_mode() {
        let (_, t) = async_latency(&[2], &tiny());
        let modes = if tokio::runtime::injection_only_build() {
            1
        } else {
            2
        };
        assert_eq!(t.rows.len(), 5 * modes);
        assert!(t.cell("parks [injection-only]", 2).is_some());
        assert_eq!(
            t.cell("steals [injection-only]", 2).unwrap().mean,
            0.0,
            "the control scheduler must never steal"
        );
        for (label, cells) in &t.rows {
            assert!(
                cells.iter().all(|c| c.mean.is_finite() && c.mean >= 0.0),
                "{label} not finite"
            );
        }
    }

    #[test]
    fn spsc_table_has_mpmc_rows_and_both_sharded_controls() {
        let t = spsc(&[2, 4], &tiny());
        assert_eq!(t.rows.len(), 4);
        assert!(t.cell("FIFO Array Simulated CAS (pipe)", 2).is_some());
        assert!(t.cell("Sharded mixed SPSC (lane per pair)", 4).is_some());
        assert!(t.cell("Sharded pinned MPMC (lane per pair)", 4).is_some());
        for (label, cells) in &t.rows {
            assert!(
                cells.iter().all(|c| c.mean > 0.0 && c.mean.is_finite()),
                "{label} throughput not positive"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn spsc_rejects_odd_thread_counts() {
        spsc(&[3], &tiny());
    }

    #[test]
    fn spsc_1p1c_table_includes_the_raw_ring() {
        let t = spsc_1p1c(&tiny());
        assert_eq!(t.rows.len(), 5);
        assert!(t.cell("Wait-free SPSC ring (pipe)", 2).is_some());
        for (label, cells) in &t.rows {
            assert!(
                cells.iter().all(|c| c.mean > 0.0 && c.mean.is_finite()),
                "{label} throughput not positive"
            );
        }
    }

    #[test]
    fn llsc_ratio_helper() {
        let a = fig6a(&[1], &tiny());
        let r = llsc_vs_cas_ratio(&a);
        assert_eq!(r.len(), 1);
        assert!(r[0].1.is_finite());
    }

    #[test]
    fn arity_table_tags_every_row_with_its_kind() {
        let cfg = WorkloadConfig {
            threads: 4,
            ..tiny()
        };
        let t = arity(&[4], &cfg);
        assert_eq!(t.id, "ext-arity");
        assert_eq!(t.rows.len(), 8);
        assert!(t
            .cell("Wait-free MPSC ring (fan-in) [mpsc+wf]", 4)
            .is_some());
        assert!(t
            .cell("Wait-free SPMC ring (fan-out) [spmc+wf]", 4)
            .is_some());
        assert!(t.cell("Sharded pinned MPMC fan-in x2 [mpmc]", 4).is_some());
        assert!(t.cell("Sharded SPMC fan-out x2 [spmc+wf]", 4).is_some());
        for (label, cells) in &t.rows {
            assert!(
                label.contains('[') && label.ends_with(']'),
                "{label} is missing its kind column"
            );
            assert!(
                cells.iter().all(|c| c.mean > 0.0 && c.mean.is_finite()),
                "{label} throughput not positive"
            );
        }
    }

    #[test]
    #[should_panic(expected = ">= 4 threads")]
    fn arity_rejects_undersized_thread_counts() {
        arity(&[2], &tiny());
    }

    #[test]
    fn net_tables_cover_all_four_backbones() {
        let (tput, lat) = net(&[8], 3);
        assert_eq!(tput.id, "ext-net");
        assert_eq!(lat.id, "ext-net-lat");
        // 2 throughput rows and 6 quantile rows per backbone.
        assert_eq!(tput.rows.len(), 8);
        assert_eq!(lat.rows.len(), 24);
        for name in ["cas", "llsc", "scq", "wcq"] {
            let row = tput.cell(&format!("{name} delivered (kmsg/s)"), 8).unwrap();
            assert!(row.mean > 0.0 && row.mean.is_finite(), "{name} throughput");
            let p50 = lat.cell(&format!("{name} e2e p50 (us)"), 8).unwrap();
            let p999 = lat.cell(&format!("{name} e2e p999 (us)"), 8).unwrap();
            assert!(p50.mean <= p999.mean, "{name} quantiles out of order");
        }
    }
}
