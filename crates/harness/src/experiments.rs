//! One driver function per paper figure/table plus the ablations —
//! the experiment index of DESIGN.md, executable.

use crate::algos::{Algo, Tuning, AMD_SET, MODERN_SET, POWERPC_SET};
use crate::casbench;
use crate::report::{Cell, Table};
use crate::workload::WorkloadConfig;
use nbq_core::GatePolicy;
use nbq_util::stats::Summary;

/// Sweeps `algos` over `thread_counts` under the paper workload.
pub fn time_vs_threads(
    id: &str,
    title: &str,
    algos: &[Algo],
    thread_counts: &[usize],
    base: &WorkloadConfig,
) -> Table {
    let mut table = Table::new(
        id,
        title,
        "threads",
        "s",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    for &algo in algos {
        let cells: Vec<Cell> = thread_counts
            .iter()
            .map(|&threads| {
                let cfg = WorkloadConfig { threads, ..*base };
                Cell::from(algo.run(&cfg))
            })
            .collect();
        table.push_row(algo.name(), cells);
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
        Algo::CasQueue.name(),
        "fig6c",
        "Normalized running time (PowerPC set)",
    )
}

/// Fig. 6(d): Fig. 6(b) normalized to the CAS queue.
pub fn fig6d(fig6b: &Table) -> Table {
    fig6b.normalized_to(
        Algo::CasQueue.name(),
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
    let seq = Algo::Sequential.run(&cfg);
    let mut table = Table::new(
        "t1-overhead",
        "Single-thread time vs unsynchronized queue",
        "threads",
        "s",
        vec![1],
    );
    table.push_row(Algo::Sequential.name(), vec![Cell::from(seq)]);
    let mut ratios = Vec::new();
    for algo in [
        Algo::LlScQueue,
        Algo::CasQueue,
        Algo::Shann,
        Algo::MsHpSorted,
        Algo::TsigasZhang,
    ] {
        let s = algo.run(&cfg);
        table.push_row(algo.name(), vec![Cell::from(s)]);
        ratios.push((algo.name().to_string(), s.mean / seq.mean - 1.0));
    }
    (table, ratios)
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
        t.push_row(
            c.name,
            vec![Cell {
                mean: c.ns_per_op,
                stddev: 0.0,
            }],
        );
    }
    t
}

/// `abl-reregister`: the corrected per-link gate vs the paper's per-op
/// gate (CAS queue).
pub fn ablate_reregister(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    let mut table = Table::new(
        "abl-reregister",
        "CAS queue: ReRegister gate per link vs per operation",
        "threads",
        "s",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    for (label, gate) in [
        ("gate per link (corrected)", GatePolicy::PerLink),
        ("gate per operation (paper)", GatePolicy::PerOperation),
    ] {
        let cells: Vec<Cell> = thread_counts
            .iter()
            .map(|&threads| {
                let cfg = WorkloadConfig { threads, ..*base };
                Cell::from(Algo::CasQueue.run_tuned(
                    &cfg,
                    Tuning {
                        backoff: true,
                        gate,
                    },
                ))
            })
            .collect();
        table.push_row(label, cells);
    }
    table
}

/// `abl-backoff`: exponential backoff on vs off for both core queues.
pub fn ablate_backoff(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    let mut table = Table::new(
        "abl-backoff",
        "Core queues: exponential backoff on vs off",
        "threads",
        "s",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    for (algo, backoff, label) in [
        (Algo::CasQueue, true, "CAS queue, backoff on"),
        (Algo::CasQueue, false, "CAS queue, backoff off"),
        (Algo::LlScQueue, true, "LL/SC queue, backoff on"),
        (Algo::LlScQueue, false, "LL/SC queue, backoff off"),
    ] {
        let cells: Vec<Cell> = thread_counts
            .iter()
            .map(|&threads| {
                let cfg = WorkloadConfig { threads, ..*base };
                Cell::from(algo.run_tuned(
                    &cfg,
                    Tuning {
                        backoff,
                        gate: GatePolicy::PerLink,
                    },
                ))
            })
            .collect();
        table.push_row(label, cells);
    }
    table
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
            Cell::from(Algo::CasQueue.run(&cfg))
        })
        .collect();
    table.push_row(Algo::CasQueue.name(), cells);
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

        sorted_cells.push(Cell {
            mean: sorted_ns,
            stddev: 0.0,
        });
        unsorted_cells.push(Cell {
            mean: unsorted_ns,
            stddev: 0.0,
        });
    }
    table.push_row("sorted scan (sort + binary search)", sorted_cells);
    table.push_row("unsorted scan (linear probe)", unsorted_cells);
    table
}

/// `ext-ordering`: the compiled memory-ordering mode's throughput for the
/// two core queues.
///
/// Row labels carry [`nbq_util::mem::mode()`] (`relaxed` for the default
/// per-site policy, `seqcst` under `--features strict-sc`), so running the
/// experiment once per build and merging the CSVs (see
/// [`Table::merge_csv_rows`]) yields the relaxed-vs-SeqCst comparison —
/// the ordering sweep's measured payoff.
pub fn ordering(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    let mode = nbq_util::mem::mode();
    let mut table = Table::new(
        "ext-ordering",
        "Core queues: per-site relaxed orderings vs strict SeqCst",
        "threads",
        "s",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    for algo in [Algo::CasQueue, Algo::LlScQueue] {
        let cells: Vec<Cell> = thread_counts
            .iter()
            .map(|&threads| {
                let cfg = WorkloadConfig { threads, ..*base };
                Cell::from(algo.run(&cfg))
            })
            .collect();
        table.push_row(&format!("{} [{mode}]", algo.name()), cells);
    }
    table
}

/// Backoff snoozes per completed operation for one core queue under the
/// paper workload — the contention metric behind the `abl-backoff` and
/// `ext-ordering` tables.
fn snoozes_per_op(algo: Algo, backoff: bool, cfg: &WorkloadConfig) -> f64 {
    use crate::workload::run_once;
    use nbq_core::{CasQueue, CasQueueConfig, LlScQueue, LlScQueueConfig};

    let cap = cfg.capacity;
    match algo {
        Algo::CasQueue => {
            let q = CasQueue::<u64>::with_config_stats(
                cap,
                CasQueueConfig {
                    backoff,
                    gate: GatePolicy::PerLink,
                },
            );
            run_once(&q, cfg);
            q.stats().expect("stats enabled").snapshot().backoff_snoozes
        }
        Algo::LlScQueue => {
            let q = LlScQueue::<u64>::with_config_stats(cap, LlScQueueConfig { backoff });
            run_once(&q, cfg);
            q.stats().expect("stats enabled").snapshot().backoff_snoozes
        }
        _ => panic!("contention accounting only exists for the core queues"),
    }
}

/// `ext-ordering-contention`: backoff snoozes per operation alongside
/// [`ordering`]'s times, labeled with the same compiled mode. A mode that
/// wins on time but loses on snoozes is winning on instruction cost, not
/// on reduced contention.
pub fn ordering_contention(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    let mode = nbq_util::mem::mode();
    let mut table = Table::new(
        "ext-ordering-contention",
        "Core queues: backoff snoozes per op by ordering mode",
        "threads",
        "snoozes/op",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    for algo in [Algo::CasQueue, Algo::LlScQueue] {
        let cells: Vec<Cell> = thread_counts
            .iter()
            .map(|&threads| {
                let cfg = WorkloadConfig { threads, ..*base };
                Cell {
                    mean: snoozes_per_op(algo, true, &cfg),
                    stddev: 0.0,
                }
            })
            .collect();
        table.push_row(&format!("{} [{mode}]", algo.name()), cells);
    }
    table
}

/// `abl-backoff-contention`: snoozes per operation for the [`ablate_backoff`]
/// grid. The snooze counter ticks even when backoff is disabled (the
/// would-have-yielded count), so the on/off rows compare like for like.
pub fn backoff_contention(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    let mut table = Table::new(
        "abl-backoff-contention",
        "Core queues: backoff snoozes per op, backoff on vs off",
        "threads",
        "snoozes/op",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    for (algo, backoff, label) in [
        (Algo::CasQueue, true, "CAS queue, backoff on"),
        (Algo::CasQueue, false, "CAS queue, backoff off"),
        (Algo::LlScQueue, true, "LL/SC queue, backoff on"),
        (Algo::LlScQueue, false, "LL/SC queue, backoff off"),
    ] {
        let cells: Vec<Cell> = thread_counts
            .iter()
            .map(|&threads| {
                let cfg = WorkloadConfig { threads, ..*base };
                Cell {
                    mean: snoozes_per_op(algo, backoff, &cfg),
                    stddev: 0.0,
                }
            })
            .collect();
        table.push_row(label, cells);
    }
    table
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
    let mut table = Table::new(
        "ext-alloc",
        "Node lifecycle: pooled recycling vs per-node malloc",
        "threads",
        "Mops/s",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    for algo in [
        Algo::CasQueue,
        Algo::LlScQueue,
        Algo::MsHpUnsorted,
        Algo::MsDoherty,
    ] {
        let cells: Vec<Cell> = thread_counts
            .iter()
            .map(|&threads| {
                let cfg = WorkloadConfig { threads, ..*base };
                let s = algo.run(&cfg);
                let ops = cfg.total_ops() as f64;
                let mean = ops / s.mean / 1e6;
                // First-order error propagation: d(ops/t) = ops * dt / t^2.
                let stddev = ops * s.stddev / (s.mean * s.mean) / 1e6;
                Cell { mean, stddev }
            })
            .collect();
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
    use crate::workload::run_once;
    use nbq_core::CasQueue;

    let mode = nbq_util::pool::mode();
    let mut table = Table::new(
        "ext-alloc-counters",
        "CAS queue: node-pool events per operation",
        "threads",
        "events/op",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    let mut alloc_cells = Vec::new();
    let mut hit_cells = Vec::new();
    let mut spill_cells = Vec::new();
    let mut refill_cells = Vec::new();
    for &threads in thread_counts {
        let cfg = WorkloadConfig { threads, ..*base };
        let q = CasQueue::<u64>::with_stats(cfg.capacity);
        run_once(&q, &cfg);
        let snap = q.stats().expect("stats enabled").snapshot();
        let ops = cfg.total_ops().max(1) as f64;
        for (cells, total) in [
            (&mut alloc_cells, snap.pool_alloc),
            (&mut hit_cells, snap.pool_recycle_hits),
            (&mut spill_cells, snap.pool_spills),
            (&mut refill_cells, snap.pool_refills),
        ] {
            cells.push(Cell {
                mean: total as f64 / ops,
                stddev: 0.0,
            });
        }
    }
    table.push_row(&format!("fresh alloc/op [{mode}]"), alloc_cells);
    table.push_row(&format!("recycle hit/op [{mode}]"), hit_cells);
    table.push_row(&format!("spill/op [{mode}]"), spill_cells);
    table.push_row(&format!("refill/op [{mode}]"), refill_cells);
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
    use crate::workload::run_once;
    use nbq_baselines::{ScqQueue, WcqQueue};

    let mut table = Table::new(
        "ext-modern-ops",
        "SCQ/wCQ: ring-protocol events per operation",
        "threads",
        "events/op",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    // (row label, per-snapshot extractor) — identical metric set for the
    // two rivals so the rows compare directly; `help/op` is structurally
    // zero for SCQ (it has no helping path).
    type OpsMetric = (&'static str, fn(&nbq_core::OpStatsSnapshot) -> f64);
    let metrics: &[OpsMetric] = &[
        ("faa/op", |s| s.faa_ops),
        ("slot CAS attempt/op", |s| s.slot_cas_attempts),
        ("cycle wrap/op", |s| s.cycle_wraps),
        ("threshold reset/op", |s| s.threshold_resets),
        ("catchup/op", |s| s.catchups),
        ("help/op", |s| s.help_events),
    ];
    let mut rows: Vec<Vec<Cell>> = vec![Vec::new(); 2 * metrics.len()];
    for &threads in thread_counts {
        let cfg = WorkloadConfig { threads, ..*base };
        let q = ScqQueue::<u64>::with_stats(cfg.capacity);
        run_once(&q, &cfg);
        let snap = q.stats().expect("stats enabled").snapshot();
        for (i, (_, get)) in metrics.iter().enumerate() {
            rows[i].push(Cell {
                mean: get(&snap),
                stddev: 0.0,
            });
        }
        let q = WcqQueue::<u64>::with_stats(cfg.capacity);
        run_once(&q, &cfg);
        let snap = q.stats().expect("stats enabled").snapshot();
        for (i, (_, get)) in metrics.iter().enumerate() {
            rows[metrics.len() + i].push(Cell {
                mean: get(&snap),
                stddev: 0.0,
            });
        }
    }
    for (i, (label, _)) in metrics.iter().enumerate() {
        table.push_row(&format!("SCQ: {label}"), rows[i].clone());
    }
    for (i, (label, _)) in metrics.iter().enumerate() {
        table.push_row(&format!("wCQ: {label}"), rows[metrics.len() + i].clone());
    }
    table
}

/// `t4-opcounts`: the paper's per-operation synchronization-instruction
/// accounting, measured. Returns a table with one row per (algorithm,
/// metric) and columns = thread counts.
pub fn opcounts(thread_counts: &[usize], iterations: usize) -> Table {
    use nbq_baselines::MsDohertyQueue;
    use nbq_core::CasQueue;
    use nbq_util::QueueHandle;

    let mut table = Table::new(
        "t4-opcounts",
        "Synchronization instructions per queue operation",
        "threads",
        "count/op",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    let mut cas_slot = Vec::new();
    let mut cas_index = Vec::new();
    let mut cas_faa = Vec::new();
    let mut md_sc = Vec::new();
    for &threads in thread_counts {
        // CAS queue with counters.
        let q = CasQueue::<u64>::with_stats(4096);
        std::thread::scope(|s| {
            for t in 0..threads {
                let q = &q;
                s.spawn(move || {
                    let mut h = q.handle();
                    for i in 0..iterations as u64 {
                        while h.enqueue((t as u64) << 40 | i).is_err() {
                            h.dequeue();
                        }
                        while h.dequeue().is_none() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        let snap = q.stats().expect("stats enabled").snapshot();
        cas_slot.push(Cell {
            mean: snap.slot_cas_successes,
            stddev: 0.0,
        });
        cas_index.push(Cell {
            mean: snap.index_cas_successes,
            stddev: 0.0,
        });
        cas_faa.push(Cell {
            mean: snap.faa_ops,
            stddev: 0.0,
        });

        // MS-Doherty successful SCs per operation.
        let q = MsDohertyQueue::<u64>::new();
        let ops = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let q = &q;
                let ops = &ops;
                s.spawn(move || {
                    let mut h = q.handle();
                    for i in 0..iterations as u64 {
                        h.enqueue((t as u64) << 40 | i).unwrap();
                        while h.dequeue().is_none() {
                            std::thread::yield_now();
                        }
                        ops.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        let total_ops = ops.load(std::sync::atomic::Ordering::Relaxed).max(1);
        md_sc.push(Cell {
            mean: q.domain().pool().sc_successes() as f64 / total_ops as f64,
            stddev: 0.0,
        });
    }
    table.push_row("CAS queue: successful slot CAS", cas_slot);
    table.push_row("CAS queue: successful index CAS", cas_index);
    table.push_row("CAS queue: fetch-and-add", cas_faa);
    table.push_row("MS-Doherty: successful SC (cell CAS)", md_sc);
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
        index_cells.push(Cell {
            mean: snap.index_cas_attempts,
            stddev: 0.0,
        });
        slot_cells.push(Cell {
            mean: snap.slot_cas_successes,
            stddev: 0.0,
        });
    }
    table.push_row("index CAS attempts", index_cells);
    table.push_row("successful slot CAS", slot_cells);
    table
}

/// `ext-batch` (time): the paper workload with `burst`-sized batch calls
/// vs `burst` single calls, for both core queues.
pub fn batch_time(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    use crate::workload::{run_workload, run_workload_batched};
    use nbq_core::{CasQueue, LlScQueue};

    let mut table = Table::new(
        "ext-batch-time",
        "Core queues: batched vs single-op workload",
        "threads",
        "s",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    for batched in [false, true] {
        for algo in [Algo::CasQueue, Algo::LlScQueue] {
            let cells: Vec<Cell> = thread_counts
                .iter()
                .map(|&threads| {
                    let cfg = WorkloadConfig { threads, ..*base };
                    let cap = cfg.capacity;
                    let summary = match (algo, batched) {
                        (Algo::CasQueue, false) => {
                            run_workload(|| CasQueue::<u64>::with_capacity(cap), &cfg)
                        }
                        (Algo::CasQueue, true) => {
                            run_workload_batched(|| CasQueue::<u64>::with_capacity(cap), &cfg)
                        }
                        (Algo::LlScQueue, false) => {
                            run_workload(|| LlScQueue::<u64>::with_capacity(cap), &cfg)
                        }
                        (Algo::LlScQueue, true) => {
                            run_workload_batched(|| LlScQueue::<u64>::with_capacity(cap), &cfg)
                        }
                        _ => unreachable!(),
                    };
                    Cell::from(summary)
                })
                .collect();
            let label = if batched {
                format!("{}, batched x{}", algo.name(), base.burst)
            } else {
                format!("{}, single ops", algo.name())
            };
            table.push_row(&label, cells);
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
/// the CSV. Row set: both single-lane paper queues plus `sharded-cas-N` /
/// `sharded-llsc-N` for every `N` in `lane_counts`.
pub fn sharding(thread_counts: &[usize], lane_counts: &[usize], base: &WorkloadConfig) -> Table {
    let mut table = Table::new(
        "ext-sharding",
        "Sharded frontend: throughput vs lane count vs threads",
        "threads",
        "Mops/s",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    let mut algos: Vec<Algo> = vec![Algo::CasQueue, Algo::LlScQueue];
    for &lanes in lane_counts {
        algos.push(Algo::ShardedCas { lanes });
    }
    for &lanes in lane_counts {
        algos.push(Algo::ShardedLlsc { lanes });
    }
    for algo in algos {
        let cells: Vec<Cell> = thread_counts
            .iter()
            .map(|&threads| {
                let cfg = WorkloadConfig { threads, ..*base };
                let s = algo.run(&cfg);
                let ops = cfg.total_ops() as f64;
                let mean = ops / s.mean / 1e6;
                // First-order error propagation: d(ops/t) = ops * dt / t^2.
                let stddev = ops * s.stddev / (s.mean * s.mean) / 1e6;
                Cell { mean, stddev }
            })
            .collect();
        table.push_row(algo.name(), cells);
    }
    table
}

/// `ext-sharding-ops`: per-lane index-CAS attempts per completed
/// operation for a `sharded-cas-<lanes>` frontend under the paper
/// workload — the contention picture behind [`sharding`]'s times.
///
/// One row per lane plus a `single lane (baseline)` row measuring an
/// unsharded CAS queue under the same load. Lane affinity working means
/// every lane's row sits near the uncontended ~1 attempt/op while the
/// baseline row climbs with the thread count.
pub fn sharding_opstats(thread_counts: &[usize], lanes: usize, base: &WorkloadConfig) -> Table {
    use crate::workload::run_once;
    use nbq_core::{CasQueue, ShardedQueue};

    let mut table = Table::new(
        "ext-sharding-ops",
        "Sharded CAS frontend: index CAS attempts per op, by lane",
        "threads",
        "attempts/op",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    let mut lane_cells: Vec<Vec<Cell>> = vec![Vec::new(); lanes];
    let mut baseline_cells: Vec<Cell> = Vec::new();
    for &threads in thread_counts {
        let cfg = WorkloadConfig { threads, ..*base };
        let per_lane = cfg.capacity.div_ceil(lanes);
        let q = ShardedQueue::with_lanes(lanes, |_| CasQueue::<u64>::with_stats(per_lane));
        run_once(&q, &cfg);
        for (lane, cells) in lane_cells.iter_mut().enumerate() {
            let snap = q.lane(lane).stats().expect("stats enabled").snapshot();
            cells.push(Cell {
                mean: snap.index_cas_attempts,
                stddev: 0.0,
            });
        }
        let q = CasQueue::<u64>::with_stats(cfg.capacity);
        run_once(&q, &cfg);
        let snap = q.stats().expect("stats enabled").snapshot();
        baseline_cells.push(Cell {
            mean: snap.index_cas_attempts,
            stddev: 0.0,
        });
    }
    for (lane, cells) in lane_cells.into_iter().enumerate() {
        table.push_row(&format!("lane {lane} of {lanes}"), cells);
    }
    table.push_row("single lane (baseline)", baseline_cells);
    table
}

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
    use crate::workload::run_workload_blocking;
    use nbq_core::CasQueue;

    let mut table = Table::new(
        "ext-async",
        "Async channel frontend: throughput vs raw and blocking frontends",
        "threads",
        "Mops/s",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    let to_cell = |cfg: &WorkloadConfig, s: &Summary| {
        let ops = cfg.total_ops() as f64;
        Cell {
            mean: ops / s.mean / 1e6,
            // First-order error propagation: d(ops/t) = ops * dt / t^2.
            stddev: ops * s.stddev / (s.mean * s.mean) / 1e6,
        }
    };
    for algo in [Algo::CasQueue, Algo::LlScQueue] {
        let cells: Vec<Cell> = thread_counts
            .iter()
            .map(|&threads| {
                let cfg = WorkloadConfig { threads, ..*base };
                to_cell(&cfg, &algo.run(&cfg))
            })
            .collect();
        table.push_row(&format!("{} (raw)", algo.name()), cells);
    }
    let blocking_cells: Vec<Cell> = thread_counts
        .iter()
        .map(|&threads| {
            let cfg = WorkloadConfig { threads, ..*base };
            let s = run_workload_blocking(|| CasQueue::<u64>::with_capacity(cfg.capacity), &cfg);
            to_cell(&cfg, &s)
        })
        .collect();
    table.push_row("Blocking CAS frontend (condvar)", blocking_cells);
    for algo in [
        Algo::AsyncCas,
        Algo::AsyncLlsc,
        Algo::AsyncSharded { lanes: 4 },
    ] {
        let cells: Vec<Cell> = thread_counts
            .iter()
            .map(|&threads| {
                let cfg = WorkloadConfig { threads, ..*base };
                to_cell(&cfg, &algo.run(&cfg))
            })
            .collect();
        table.push_row(algo.name(), cells);
    }
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
    use nbq_async::AsyncQueue;
    use nbq_core::CasQueue;
    use std::sync::Arc;

    let mut table = Table::new(
        "ext-async-wakers",
        "Async CAS frontend: waiter-registry events per op (producer/consumer split)",
        "threads",
        "events/op",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    let mut registrations: Vec<Cell> = Vec::new();
    let mut wakes: Vec<Cell> = Vec::new();
    let mut spurious: Vec<Cell> = Vec::new();
    for &threads in thread_counts {
        let producers = (threads / 2).max(1);
        let consumers = threads.saturating_sub(producers).max(1);
        let per_producer = base.iterations * base.burst;
        // One burst of headroom per task: small enough to park on every
        // rate mismatch, large enough to keep both sides moving.
        let capacity = (base.burst * threads).min(base.capacity);
        let rt = tokio::runtime::Builder::new_multi_thread()
            .worker_threads(producers + consumers)
            .enable_all()
            .build()
            .expect("building the tokio runtime");
        let q = Arc::new(AsyncQueue::with_stats(CasQueue::<u64>::with_capacity(
            capacity,
        )));
        rt.block_on(async {
            let mut senders = Vec::new();
            for p in 0..producers {
                let q = Arc::clone(&q);
                senders.push(tokio::spawn(async move {
                    for i in 0..per_producer {
                        let value = ((p as u64) << 40) | i as u64;
                        q.send(value).await.expect("closed only after producers");
                    }
                }));
            }
            let mut receivers = Vec::new();
            for _ in 0..consumers {
                let q = Arc::clone(&q);
                receivers.push(tokio::spawn(
                    async move { while q.recv().await.is_some() {} },
                ));
            }
            for s in senders {
                s.await.expect("producer panicked");
            }
            q.close();
            for r in receivers {
                r.await.expect("consumer panicked");
            }
        });
        assert_eq!(q.live_waiters(), 0, "no leaked waiter slots");
        let snap = q.stats().expect("stats enabled").snapshot();
        // Every sent value is received exactly once: 2 ops per value.
        let ops = (2 * producers * per_producer) as f64;
        let cell = |count: u64| Cell {
            mean: count as f64 / ops,
            stddev: 0.0,
        };
        registrations.push(cell(snap.waker_registrations));
        wakes.push(cell(snap.waker_wakes));
        spurious.push(cell(snap.spurious_polls));
    }
    table.push_row("waker registrations", registrations);
    table.push_row("wakes issued", wakes);
    table.push_row("spurious polls", spurious);
    table
}

/// `ext-async-latency`: end-to-end per-operation latency distributions
/// (p50/p99/p999 for enqueue and dequeue, p99 for the echo) plus
/// throughput, for the condvar blocking frontend and the async frontend
/// under both executor schedulers — the work-stealing scheduler and its
/// single-injection-queue control (`injection_only`).
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
/// op), quantized ≤ 3.1% by [`nbq_util::LatencyHistogram`]. The unit is
/// `mixed`: each row label carries its own unit (Mops/s or µs).
///
/// Under a `--features injection-only` build the work-stealing scheduler
/// does not exist, so its rows are omitted rather than silently measuring
/// the control twice.
pub fn async_latency(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    use crate::workload::{
        run_workload_async_latency, run_workload_async_split_latency,
        run_workload_blocking_latency, LatencyReport,
    };
    use nbq_core::CasQueue;
    use nbq_util::LatencyHistogram;

    let mut table = Table::new(
        "ext-async-latency",
        "End-to-end latency and throughput: blocking vs async frontends \
         (CAS queue), work-stealing vs injection-only executor",
        "threads",
        "mixed",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );

    // One (total ops, summary, capture) per column, per frontend.
    type Runs = Vec<(f64, Summary, LatencyReport)>;
    type HistPick = fn(&LatencyReport) -> &LatencyHistogram;
    let collect = |f: &dyn Fn(&WorkloadConfig) -> (f64, Summary, LatencyReport)| -> Runs {
        thread_counts
            .iter()
            .map(|&threads| f(&WorkloadConfig { threads, ..*base }))
            .collect()
    };
    // The split-role (pipe) rows park on every rate mismatch: one burst
    // of headroom per producer, so each value's delivery rides the
    // executor's wake path (this is where the schedulers differ).
    let pipe_cfg = |cfg: &WorkloadConfig| WorkloadConfig {
        capacity: (cfg.pipe_producers() * cfg.burst).min(cfg.capacity),
        ..*cfg
    };
    let stealing = !tokio::runtime::injection_only_build();
    let mut frontends: Vec<(&str, Runs)> = vec![(
        "blocking (condvar)",
        collect(&|cfg| {
            let (s, r) =
                run_workload_blocking_latency(|| CasQueue::<u64>::with_capacity(cfg.capacity), cfg);
            (cfg.total_ops() as f64, s, r)
        }),
    )];
    for (label, injection_only) in [
        ("async (work-stealing)", false),
        ("async (injection-only)", true),
    ] {
        if !injection_only && !stealing {
            continue;
        }
        frontends.push((
            label,
            collect(&|cfg| {
                let (s, r, _) = run_workload_async_latency(
                    || CasQueue::<u64>::with_capacity(cfg.capacity),
                    cfg,
                    injection_only,
                );
                (cfg.total_ops() as f64, s, r)
            }),
        ));
    }
    for (label, injection_only) in [
        ("async pipe (work-stealing)", false),
        ("async pipe (injection-only)", true),
    ] {
        if !injection_only && !stealing {
            continue;
        }
        frontends.push((
            label,
            collect(&|cfg| {
                let cfg = pipe_cfg(cfg);
                let (s, r, _) = run_workload_async_split_latency(
                    || CasQueue::<u64>::with_capacity(cfg.capacity),
                    &cfg,
                    injection_only,
                );
                (cfg.pipe_total_ops() as f64, s, r)
            }),
        ));
    }

    for (frontend, runs) in &frontends {
        let tput: Vec<Cell> = runs
            .iter()
            .map(|(ops, s, _)| Cell {
                mean: ops / s.mean / 1e6,
                // First-order error propagation: d(ops/t) = ops * dt / t^2.
                stddev: ops * s.stddev / (s.mean * s.mean) / 1e6,
            })
            .collect();
        table.push_row(&format!("{frontend} throughput (Mops/s)"), tput);
        let hist_of: [(&str, HistPick); 2] =
            [("enqueue", |r| &r.enqueue), ("dequeue", |r| &r.dequeue)];
        for (op, pick) in hist_of {
            for (q_label, q) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
                let cells: Vec<Cell> = runs
                    .iter()
                    .map(|(_, _, r)| Cell {
                        mean: pick(r).quantile_ns(q) as f64 / 1e3,
                        stddev: 0.0,
                    })
                    .collect();
                table.push_row(&format!("{frontend} {op} {q_label} (us)"), cells);
            }
        }
        let echo: Vec<Cell> = runs
            .iter()
            .map(|(_, _, r)| Cell {
                mean: r.echo.quantile_ns(0.99) as f64 / 1e3,
                stddev: 0.0,
            })
            .collect();
        table.push_row(&format!("{frontend} echo p99 (us)"), echo);
    }
    table
}

/// `ext-steal`: the work-stealing executor's scheduler counters under the
/// split-role async pipe workload (the parking-heavy shape of
/// [`async_latency`]), per 1000 completed queue operations — steals,
/// steal batches, LIFO-slot hits, injection-queue polls, and parks — for
/// both scheduler modes. The injection-only control's rows pin the
/// baseline: zero steals and LIFO hits by construction, every poll
/// through the shared queue.
///
/// Under a `--features injection-only` build only the control rows exist.
pub fn steal_counters(thread_counts: &[usize], base: &WorkloadConfig) -> Table {
    use crate::workload::run_workload_async_split_latency;
    use nbq_core::CasQueue;

    let mut table = Table::new(
        "ext-steal",
        "Executor scheduler counters per 1000 async queue ops, by mode",
        "threads",
        "events/kop",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    let mut modes: Vec<(&str, bool)> = Vec::new();
    if !tokio::runtime::injection_only_build() {
        modes.push(("work-stealing", false));
    }
    modes.push(("injection-only", true));
    for (mode, injection_only) in modes {
        let mut rows: [(&str, Vec<Cell>); 5] = [
            ("steals", Vec::new()),
            ("steal batches", Vec::new()),
            ("lifo hits", Vec::new()),
            ("injection polls", Vec::new()),
            ("parks", Vec::new()),
        ];
        for &threads in thread_counts {
            let cfg = WorkloadConfig { threads, ..*base };
            let cfg = WorkloadConfig {
                capacity: (cfg.pipe_producers() * cfg.burst).min(cfg.capacity),
                ..cfg
            };
            let (_, _, m) = run_workload_async_split_latency(
                || CasQueue::<u64>::with_capacity(cfg.capacity),
                &cfg,
                injection_only,
            );
            // Counters are cumulative over all runs on the one runtime.
            let kops = (cfg.pipe_total_ops() * cfg.runs as u64) as f64 / 1e3;
            let counts = [
                m.steals,
                m.steal_batches,
                m.lifo_hits,
                m.injection_polls,
                m.parks,
            ];
            for (row, count) in rows.iter_mut().zip(counts) {
                row.1.push(Cell {
                    mean: count as f64 / kops,
                    stddev: 0.0,
                });
            }
        }
        for (label, cells) in rows {
            table.push_row(&format!("{label} [{mode}]"), cells);
        }
    }
    table
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
    let mut table = Table::new(
        "ext-spsc",
        "SPSC fast-path lanes: pipe throughput vs MPMC lanes",
        "threads",
        "Mops/s",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    let to_cell = |cfg: &WorkloadConfig, s: &Summary| {
        let ops = cfg.pipe_total_ops() as f64;
        Cell {
            mean: ops / s.mean / 1e6,
            // First-order error propagation: d(ops/t) = ops * dt / t^2.
            stddev: ops * s.stddev / (s.mean * s.mean) / 1e6,
        }
    };
    for algo in [Algo::SpscCasPipe, Algo::SpscLlscPipe] {
        let cells: Vec<Cell> = thread_counts
            .iter()
            .map(|&threads| {
                let cfg = WorkloadConfig { threads, ..*base };
                to_cell(&cfg, &algo.run(&cfg))
            })
            .collect();
        table.push_row(algo.name(), cells);
    }
    for (label, mixed) in [
        ("Sharded pinned MPMC (lane per pair)", false),
        ("Sharded mixed SPSC (lane per pair)", true),
    ] {
        let cells: Vec<Cell> = thread_counts
            .iter()
            .map(|&threads| {
                let cfg = WorkloadConfig { threads, ..*base };
                let lanes = threads / 2;
                let algo = if mixed {
                    Algo::ShardedMixed { lanes }
                } else {
                    Algo::ShardedPinned { lanes }
                };
                to_cell(&cfg, &algo.run(&cfg))
            })
            .collect();
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
    let mut table = Table::new(
        "ext-spsc-1p1c",
        "1p/1c pipe: wait-free SPSC ring vs MPMC queues",
        "threads",
        "Mops/s",
        vec![2],
    );
    let cfg = WorkloadConfig {
        threads: 2,
        ..*base
    };
    let ops = cfg.pipe_total_ops() as f64;
    for algo in [
        Algo::SpscRingPipe,
        Algo::ShardedMixed { lanes: 1 },
        Algo::ShardedPinned { lanes: 1 },
        Algo::SpscCasPipe,
        Algo::SpscLlscPipe,
    ] {
        let s = algo.run(&cfg);
        table.push_row(
            algo.name(),
            vec![Cell {
                mean: ops / s.mean / 1e6,
                stddev: ops * s.stddev / (s.mean * s.mean) / 1e6,
            }],
        );
    }
    table
}

/// Producer-thread count each fan algorithm uses at a given total thread
/// count — the throughput denominator of [`arity`] (each produced value
/// is one enqueue plus one dequeue).
fn fan_producers(algo: Algo, threads: usize) -> usize {
    match algo {
        Algo::MpscRingFan | Algo::FanInCas => threads - 1,
        Algo::SpmcRingFan | Algo::FanOutCas => 1,
        Algo::ShardedMpsc { lanes } | Algo::ShardedFanInCtl { lanes } => threads - lanes,
        Algo::ShardedSpmc { lanes } | Algo::ShardedFanOutCtl { lanes } => lanes,
        _ => unreachable!("not a fan algorithm"),
    }
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
    let mut table = Table::new(
        "ext-arity",
        "Arity-specialized lanes: fan-in/fan-out throughput vs MPMC",
        "threads",
        "Mops/s",
        thread_counts.iter().map(|&t| t as u64).collect(),
    );
    for algo in [
        Algo::MpscRingFan,
        Algo::FanInCas,
        Algo::ShardedMpsc { lanes: 2 },
        Algo::ShardedFanInCtl { lanes: 2 },
        Algo::SpmcRingFan,
        Algo::FanOutCas,
        Algo::ShardedSpmc { lanes: 2 },
        Algo::ShardedFanOutCtl { lanes: 2 },
    ] {
        let cells: Vec<Cell> = thread_counts
            .iter()
            .map(|&threads| {
                let cfg = WorkloadConfig { threads, ..*base };
                let ops = cfg.fan_total_ops(fan_producers(algo, threads)) as f64;
                let s = algo.run(&cfg);
                Cell {
                    mean: ops / s.mean / 1e6,
                    stddev: ops * s.stddev / (s.mean * s.mean) / 1e6,
                }
            })
            .collect();
        table.push_row(&format!("{} [{}]", algo.name(), algo.kind()), cells);
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
    use nbq_util::LatencyHistogram;

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
        tput.push_row(
            &format!("{name} delivered (kmsg/s)"),
            reports
                .iter()
                .map(|r| Cell {
                    mean: r.throughput() / 1e3,
                    stddev: 0.0,
                })
                .collect(),
        );
        tput.push_row(
            &format!("{name} busy/kmsg"),
            reports
                .iter()
                .map(|r| Cell {
                    mean: r.broker.busy as f64 * 1e3 / r.published.max(1) as f64,
                    stddev: 0.0,
                })
                .collect(),
        );
        let picks: [(&str, HistPick); 2] = [("e2e", |r| &r.e2e), ("ack rtt", |r| &r.ack_rtt)];
        for (op, pick) in picks {
            for (q_label, q) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
                lat.push_row(
                    &format!("{name} {op} {q_label} (us)"),
                    reports
                        .iter()
                        .map(|r| Cell {
                            mean: pick(r).quantile_ns(q) as f64 / 1e3,
                            stddev: 0.0,
                        })
                        .collect(),
                );
            }
        }
    }
    (tput, lat)
}

/// In-text T3 helper: LL/SC-vs-CAS speed ratio out of a fig6a table.
pub fn llsc_vs_cas_ratio(fig6a: &Table) -> Vec<(u64, f64)> {
    fig6a
        .columns
        .iter()
        .filter_map(|&threads| {
            let llsc = fig6a.cell(Algo::LlScQueue.name(), threads)?;
            let cas = fig6a.cell(Algo::CasQueue.name(), threads)?;
            Some((threads, cas.mean / llsc.mean - 1.0))
        })
        .collect()
}

/// Convenience summary used by tests.
pub fn quick_summary(algo: Algo, cfg: &WorkloadConfig) -> Summary {
    algo.run(cfg)
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
        let cas = c.cell(Algo::CasQueue.name(), 1).unwrap();
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
        let t = ordering(&[1, 2], &tiny());
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
        let t = ordering_contention(&[2], &tiny());
        assert_eq!(t.rows.len(), 2);
        let b = backoff_contention(&[2], &tiny());
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
        // 2 single-lane baselines + 2 sharded-cas + 2 sharded-llsc.
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
        let t = async_latency(&[1, 2], &tiny());
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
    fn steal_counters_reports_every_counter_per_mode() {
        let t = steal_counters(&[2], &tiny());
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
