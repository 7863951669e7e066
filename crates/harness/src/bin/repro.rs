//! `repro` — regenerate the paper's figures and tables.
//!
//! ```text
//! repro <experiment> [flags]
//!
//! experiments:
//!   fig6a | fig6b | fig6c | fig6d    the paper's Figure 6 panels
//!   overhead                         in-text T1 (single-thread overhead)
//!   caswidth                         in-text T2 (primitive costs)
//!   opcounts                         in-text T4 (instructions per op)
//!   ablate-scan | ablate-reregister | ablate-capacity | ablate-backoff
//!   modern                           extension: modern comparators incl.
//!                                    the SCQ/wCQ rivals, plus their
//!                                    ring-protocol counters table
//!   batch                            extension: batch API amortization
//!   ordering                         extension: per-site relaxed orderings
//!                                    vs strict SeqCst (build once per
//!                                    mode; --csv merges across builds)
//!   sharding                         extension: sharded multi-lane
//!                                    frontend throughput + per-lane CAS
//!                                    contention (--lanes to sweep)
//!   alloc                            extension: pooled node recycling vs
//!                                    per-node malloc (build once per
//!                                    mode; --csv merges builds, see
//!                                    `no-pool` feature)
//!   async                            extension: async channel frontend
//!                                    on a tokio multi-thread runtime vs
//!                                    the raw and blocking frontends,
//!                                    plus waiter-registry event rates
//!   latency                          extension: end-to-end p50/p99/p999
//!                                    per-op latency for the blocking and
//!                                    async frontends, work-stealing vs
//!                                    injection-only executor, plus the
//!                                    scheduler counters behind them
//!   spsc                             extension: wait-free SPSC fast-path
//!                                    lanes vs MPMC on split-role pipes
//!                                    (even --threads only), plus the
//!                                    isolated 1p/1c acceptance table
//!   arity                            extension: wait-free MPSC fan-in and
//!                                    SPMC fan-out lanes vs pinned-MPMC
//!                                    controls (--threads >= 4 only)
//!   net                              extension: the epoll message broker
//!                                    under loopback traffic — delivered
//!                                    throughput and e2e/ACK-RTT quantiles
//!                                    per queue backbone (cas, llsc, scq,
//!                                    wcq); --connections to sweep
//!   all                              everything above
//!
//! flags:
//!   --threads 1,2,4,8   thread counts to sweep
//!   --lanes 2,4,8       lane counts for `sharding`   (default 2,4,8)
//!   --connections N,M   connection counts for `net`  (default 256,1024)
//!   --iters N           iterations per thread        (default 2000)
//!   --runs N            runs per cell                (default 5)
//!   --capacity N        queue capacity               (default 4096)
//!   --csv DIR           also write <DIR>/<id>.{csv,json}
//!   --paper             paper-scale parameters (100000 iters, 50 runs)
//! ```

use nbq_harness::experiments;
use nbq_harness::{Table, WorkloadConfig};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    experiment: String,
    threads: Vec<usize>,
    lanes: Vec<usize>,
    connections: Vec<usize>,
    csv: Option<PathBuf>,
    config: WorkloadConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: repro <fig6a|fig6b|fig6c|fig6d|overhead|caswidth|opcounts|ablate-scan|\
         ablate-reregister|ablate-capacity|ablate-backoff|modern|batch|ordering|sharding|alloc|\
         async|latency|spsc|arity|net|all> \
         [--threads 1,2,4] [--lanes 2,4,8] [--connections 256,1024] [--iters N] [--runs N] \
         [--capacity N] [--csv DIR] [--paper]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let Some(experiment) = args.next() else {
        usage()
    };
    let mut threads: Option<Vec<usize>> = None;
    let mut lanes: Option<Vec<usize>> = None;
    let mut connections: Option<Vec<usize>> = None;
    let mut csv = None;
    let mut config = WorkloadConfig::default();
    let mut paper = false;
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
        match flag.as_str() {
            "--threads" => {
                threads = Some(
                    value("--threads")
                        .split(',')
                        .map(|s| {
                            s.trim().parse().unwrap_or_else(|_| {
                                eprintln!("bad thread count: {s}");
                                usage()
                            })
                        })
                        .collect(),
                );
            }
            "--lanes" => {
                lanes = Some(
                    value("--lanes")
                        .split(',')
                        .map(|s| {
                            s.trim().parse().unwrap_or_else(|_| {
                                eprintln!("bad lane count: {s}");
                                usage()
                            })
                        })
                        .collect(),
                );
            }
            "--connections" => {
                connections = Some(
                    value("--connections")
                        .split(',')
                        .map(|s| {
                            s.trim().parse().unwrap_or_else(|_| {
                                eprintln!("bad connection count: {s}");
                                usage()
                            })
                        })
                        .collect(),
                );
            }
            "--iters" => config.iterations = value("--iters").parse().unwrap_or_else(|_| usage()),
            "--runs" => config.runs = value("--runs").parse().unwrap_or_else(|_| usage()),
            "--capacity" => {
                config.capacity = value("--capacity").parse().unwrap_or_else(|_| usage())
            }
            "--csv" => csv = Some(PathBuf::from(value("--csv"))),
            "--paper" => paper = true,
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    if paper {
        config.iterations = 100_000;
        config.runs = 50;
    }
    Args {
        experiment,
        threads: threads.unwrap_or_else(|| vec![1, 2, 4, 8, 16, 32]),
        lanes: lanes.unwrap_or_else(|| vec![2, 4, 8]),
        connections: connections.unwrap_or_else(|| vec![256, 1024]),
        csv,
        config,
    }
}

fn emit(table: &Table, csv: &Option<PathBuf>) {
    print!("{}", table.render_text());
    println!();
    if let Some(dir) = csv {
        table
            .write_to(dir)
            .unwrap_or_else(|e| eprintln!("warning: writing {dir:?} failed: {e}"));
    }
}

fn run_fig6a(args: &Args) -> Table {
    experiments::fig6a(&args.threads, &args.config)
}

fn run_fig6b(args: &Args) -> Table {
    // Paper sweeps the AMD to 64 threads; honor --threads if given.
    experiments::fig6b(&args.threads, &args.config)
}

/// The `ordering` experiment: this build measures one compiled mode
/// (`strict-sc` is a cargo feature), so rows from a previous run's CSV —
/// the other mode's build — are merged in before writing, accumulating
/// the relaxed-vs-SeqCst table across two invocations.
fn run_ordering(args: &Args) {
    let mut t = experiments::ordering(&args.threads, &args.config);
    let mut c = experiments::ordering_contention(&args.threads, &args.config);
    if let Some(dir) = &args.csv {
        for table in [&mut t, &mut c] {
            let path = dir.join(format!("{}.csv", table.id));
            if let Ok(prev) = std::fs::read_to_string(&path) {
                table.merge_csv_rows(&prev);
            }
        }
    }
    emit(&t, &args.csv);
    emit(&c, &args.csv);
    println!(
        "mode compiled into this binary: {} (rebuild with --features \
         strict-sc for the SeqCst rows; --csv merges both builds' rows)",
        nbq_util::mem::mode()
    );
}

/// The `alloc` experiment: like [`run_ordering`], one build measures one
/// compiled node-lifecycle mode (`no-pool` is a cargo feature), so rows
/// from a previous run's CSV — the other mode's build — are merged in
/// before writing, accumulating the pooled-vs-malloc table across two
/// invocations.
fn run_alloc(args: &Args) {
    let mut t = experiments::alloc_throughput(&args.threads, &args.config);
    let mut c = experiments::alloc_counters(&args.threads, &args.config);
    if let Some(dir) = &args.csv {
        for table in [&mut t, &mut c] {
            let path = dir.join(format!("{}.csv", table.id));
            if let Ok(prev) = std::fs::read_to_string(&path) {
                table.merge_csv_rows(&prev);
            }
        }
    }
    emit(&t, &args.csv);
    emit(&c, &args.csv);
    println!(
        "mode compiled into this binary: {} (rebuild with --features \
         no-pool for the malloc rows; --csv merges both builds' rows)",
        nbq_util::pool::mode()
    );
}

/// The `sharding` experiment: throughput table (the scaling claim) plus
/// the per-lane contention table that explains it.
fn run_sharding(args: &Args) {
    let t = experiments::sharding(&args.threads, &args.lanes, &args.config);
    emit(&t, &args.csv);
    let lanes = args.lanes.iter().copied().max().unwrap_or(4);
    emit(
        &experiments::sharding_opstats(&args.threads, lanes, &args.config),
        &args.csv,
    );
    println!(
        "relaxed-FIFO contract: per-lane FIFO strict, per-producer FIFO \
         preserved on-lane, cross-lane order advisory (DESIGN.md §5c)"
    );
}

/// The `async` experiment: frontend throughput comparison plus the
/// waiter-registry event-rate table behind it.
fn run_async(args: &Args) {
    emit(
        &experiments::async_frontend(&args.threads, &args.config),
        &args.csv,
    );
    emit(
        &experiments::async_wakers(&args.threads, &args.config),
        &args.csv,
    );
    println!(
        "async rows run one tokio task per paper thread on the vendored \
         work-stealing runtime (see vendor/tokio and `repro latency` for \
         the scheduler-mode comparison); shrink --capacity to make \
         futures actually park"
    );
}

/// The `latency` experiment: end-to-end latency distributions for the
/// blocking and async frontends with the executor in both scheduler
/// modes, plus the scheduler-counter table explaining the difference.
fn run_latency(args: &Args) {
    emit(
        &experiments::async_latency(&args.threads, &args.config),
        &args.csv,
    );
    emit(
        &experiments::steal_counters(&args.threads, &args.config),
        &args.csv,
    );
    if tokio::runtime::injection_only_build() {
        println!(
            "this binary was built with --features injection-only: only the \
             control scheduler exists, so the work-stealing rows are omitted"
        );
    } else {
        println!(
            "async rows run one task per paper thread on the vendored \
             work-stealing runtime (per-worker run queues + LIFO slots, \
             DESIGN.md §11); the injection-only rows force every task \
             through the shared queue — the pre-work-stealing scheduler, \
             kept as the control"
        );
    }
}

/// The `spsc` experiment: the crossover sweep (even thread counts; the
/// pipe pairs producers with consumers) plus the isolated 1p/1c table
/// where the raw ring is admissible.
fn run_spsc(args: &Args) {
    let threads: Vec<usize> = args
        .threads
        .iter()
        .copied()
        .filter(|&t| t >= 2 && t % 2 == 0)
        .collect();
    if threads.len() < args.threads.len() {
        eprintln!(
            "note: spsc sweeps even thread counts only (pipe pairs); using {threads:?} \
             of {:?}",
            args.threads
        );
    }
    if !threads.is_empty() {
        emit(&experiments::spsc(&threads, &args.config), &args.csv);
    }
    emit(&experiments::spsc_1p1c(&args.config), &args.csv);
    println!(
        "mixed rows pin one producer/consumer pair per lane, so every lane \
         stays on its wait-free SPSC ring; a second registrant on a lane \
         would promote it to the MPMC path (DESIGN.md §10)"
    );
}

/// The `arity` experiment: the fan-in/fan-out throughput sweep (thread
/// counts >= 4 only; every 2-lane entry needs one single-side endpoint
/// per lane plus at least one multi-side endpoint per lane).
fn run_arity(args: &Args) {
    let threads: Vec<usize> = args.threads.iter().copied().filter(|&t| t >= 4).collect();
    if threads.len() < args.threads.len() {
        eprintln!(
            "note: arity sweeps thread counts >= 4 only (2-lane fans); using {threads:?} \
             of {:?}",
            args.threads
        );
    }
    if threads.is_empty() {
        eprintln!("note: no usable thread counts for arity; skipping");
        return;
    }
    emit(&experiments::arity(&threads, &args.config), &args.csv);
    println!(
        "fan rows pin one single-arity endpoint per lane (the claimed \
         side) while the opposite side fans over the lane's FAA ticket \
         (DESIGN.md §13)"
    );
}

/// The `net` experiment: the loopback broker sweep — delivered
/// throughput plus end-to-end and ACK-RTT quantiles, one row set per
/// queue backbone.
fn run_net(args: &Args) {
    // 20 stop-and-wait messages per publisher: enough cycles per
    // connection to populate the p999 bucket at the default sweep
    // without dragging out the 4-backbone run.
    let (tput, lat) = experiments::net(&args.connections, 20);
    emit(&tput, &args.csv);
    emit(&lat, &args.csv);
    println!(
        "each connection pair is one stop-and-wait publisher and one \
         subscriber sharing a topic; topics are ShardedQueue-backed \
         channels (MPSC fast-path lanes) and BUSY rows are protocol \
         backpressure, not errors (DESIGN.md §14)"
    );
}

fn main() -> ExitCode {
    let args = parse_args();
    eprintln!(
        "# repro {}: iters={} runs={} capacity={} threads={:?} (host CPUs: {})",
        args.experiment,
        args.config.iterations,
        args.config.runs,
        args.config.capacity,
        args.threads,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    match args.experiment.as_str() {
        "fig6a" => {
            let t = run_fig6a(&args);
            emit(&t, &args.csv);
            println!("LL/SC vs CAS speedup by thread count (in-text T3):");
            for (threads, ratio) in experiments::llsc_vs_cas_ratio(&t) {
                println!(
                    "  {threads:>3} threads: CAS is {:+.1}% vs LL/SC",
                    ratio * 100.0
                );
            }
        }
        "fig6b" => emit(&run_fig6b(&args), &args.csv),
        "fig6c" => {
            let t = experiments::fig6c(&run_fig6a(&args));
            emit(&t, &args.csv);
        }
        "fig6d" => {
            let t = experiments::fig6d(&run_fig6b(&args));
            emit(&t, &args.csv);
        }
        "overhead" => {
            let (t, ratios) = experiments::overhead(&args.config);
            emit(&t, &args.csv);
            println!("Overhead vs unsynchronized queue (paper: LL/SC +12%, CAS +50%/+90%):");
            for (name, r) in ratios {
                println!("  {name}: {:+.1}%", r * 100.0);
            }
        }
        "opcounts" => {
            emit(
                &experiments::opcounts(&args.threads, args.config.iterations),
                &args.csv,
            );
            println!(
                "paper: Algorithm 2 = 3 CAS + 2 FAA per op; MS-Doherty = 7 \
                 successful CAS per op (incl. its reclamation bookkeeping)"
            );
        }
        "caswidth" => {
            let iters = (args.config.iterations as u64 * 100).max(100_000);
            emit(&experiments::cas_width(iters), &args.csv);
        }
        "ablate-scan" => {
            let t = experiments::ablate_scan(&[2, 4, 8, 16, 32, 64, 128, 256], 100_000);
            emit(&t, &args.csv);
        }
        "ablate-reregister" => {
            emit(
                &experiments::ablate_reregister(&args.threads, &args.config),
                &args.csv,
            );
        }
        "ablate-capacity" => {
            let caps = [32, 64, 256, 1024, 4096, 16384];
            emit(
                &experiments::ablate_capacity(&caps, &args.config),
                &args.csv,
            );
        }
        "ablate-backoff" => {
            emit(
                &experiments::ablate_backoff(&args.threads, &args.config),
                &args.csv,
            );
            emit(
                &experiments::backoff_contention(&args.threads, &args.config),
                &args.csv,
            );
        }
        "ordering" => {
            run_ordering(&args);
        }
        "sharding" => {
            run_sharding(&args);
        }
        "alloc" => {
            run_alloc(&args);
        }
        "async" => {
            run_async(&args);
        }
        "latency" => {
            run_latency(&args);
        }
        "spsc" => {
            run_spsc(&args);
        }
        "arity" => {
            run_arity(&args);
        }
        "net" => {
            run_net(&args);
        }
        "modern" => {
            emit(&experiments::modern(&args.threads, &args.config), &args.csv);
            emit(
                &experiments::modern_ops(&args.threads, &args.config),
                &args.csv,
            );
            println!(
                "SCQ/wCQ counter rows: wraps/resets/catchups trace the ring \
                 protocol; a zero help/op row means wCQ never left its fast path"
            );
        }
        "batch" => {
            let laps = args.config.iterations.max(200);
            emit(
                &experiments::batch_amortization(&[1, 4, 16, 64], laps),
                &args.csv,
            );
            emit(
                &experiments::batch_time(&args.threads, &args.config),
                &args.csv,
            );
            println!(
                "batch calls amortize the Head/Tail index CAS (one jump per \
                 batch); the 2 slot CASes per element are irreducible"
            );
        }
        "all" => {
            let a = run_fig6a(&args);
            emit(&a, &args.csv);
            let b = run_fig6b(&args);
            emit(&b, &args.csv);
            emit(&experiments::fig6c(&a), &args.csv);
            emit(&experiments::fig6d(&b), &args.csv);
            let (t, ratios) = experiments::overhead(&args.config);
            emit(&t, &args.csv);
            for (name, r) in ratios {
                println!("  {name}: {:+.1}%", r * 100.0);
            }
            emit(&experiments::cas_width(1_000_000), &args.csv);
            emit(
                &experiments::opcounts(&args.threads, args.config.iterations),
                &args.csv,
            );
            emit(
                &experiments::ablate_scan(&[2, 4, 8, 16, 32, 64, 128, 256], 100_000),
                &args.csv,
            );
            emit(
                &experiments::ablate_reregister(&args.threads, &args.config),
                &args.csv,
            );
            emit(
                &experiments::ablate_capacity(&[32, 64, 256, 1024, 4096], &args.config),
                &args.csv,
            );
            emit(
                &experiments::ablate_backoff(&args.threads, &args.config),
                &args.csv,
            );
            emit(
                &experiments::backoff_contention(&args.threads, &args.config),
                &args.csv,
            );
            emit(&experiments::modern(&args.threads, &args.config), &args.csv);
            emit(
                &experiments::modern_ops(&args.threads, &args.config),
                &args.csv,
            );
            emit(
                &experiments::batch_amortization(&[1, 4, 16, 64], args.config.iterations),
                &args.csv,
            );
            emit(
                &experiments::batch_time(&args.threads, &args.config),
                &args.csv,
            );
            run_ordering(&args);
            run_sharding(&args);
            run_alloc(&args);
            run_async(&args);
            run_latency(&args);
            run_spsc(&args);
            run_arity(&args);
            run_net(&args);
        }
        other => {
            eprintln!("unknown experiment: {other}");
            usage();
        }
    }
    ExitCode::SUCCESS
}
