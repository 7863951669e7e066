//! `repro` — regenerate the paper's figures and tables.
//!
//! ```text
//! repro <experiment> [flags]
//!
//! experiments:
//!   fig6a | fig6b | fig6c | fig6d    the paper's Figure 6 panels
//!   overhead | caswidth | opcounts   in-text T1, T2 and T4
//!   ablate-scan | ablate-reregister | ablate-capacity | ablate-backoff
//!   modern                           modern comparators, SCQ/wCQ counters
//!   batch                            batch API amortization
//!   ordering | alloc                 relaxed vs SeqCst orderings, pooled vs
//!                                    malloc nodes (one build per mode;
//!                                    --csv merges the builds' rows)
//!   sharding                         sharded lanes (--lanes to sweep)
//!   async | latency                  async frontend vs raw and blocking;
//!                                    per-op latency, scheduler counters
//!   spsc | arity                     SPSC pipes (even --threads); MPSC/SPMC
//!                                    fans (--threads >= 4)
//!   net                              loopback broker per queue backbone
//!                                    (--connections to sweep)
//!   all                              every experiment above, in order,
//!                                    with the same parameters
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
use std::cell::OnceCell;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    experiment: String,
    threads: Vec<usize>,
    lanes: Vec<usize>,
    connections: Vec<usize>,
    csv: Option<PathBuf>,
    config: WorkloadConfig,
    /// fig6a and fig6b, each measured at most once per invocation: `all`
    /// normalizes fig6c/fig6d from the very runs it printed.
    fig6: [OnceCell<Table>; 2],
}

impl Args {
    fn fig6a(&self) -> &Table {
        self.fig6[0].get_or_init(|| experiments::fig6a(&self.threads, &self.config))
    }

    fn fig6b(&self) -> &Table {
        // Paper sweeps the AMD to 64 threads; honor --threads if given.
        self.fig6[1].get_or_init(|| experiments::fig6b(&self.threads, &self.config))
    }

    /// Prints `table` and, with `--csv`, writes it.
    fn emit(&self, table: &Table) {
        print!("{}", table.render_text());
        println!();
        if let Some(dir) = &self.csv {
            table
                .write_to(dir)
                .unwrap_or_else(|e| eprintln!("warning: writing {dir:?} failed: {e}"));
        }
    }

    /// For experiments that measure one compiled mode per build: merges
    /// the rows a previous run — the other mode's build — left in the CSV
    /// directory before emitting, accumulating the cross-build table over
    /// two invocations.
    fn emit_merged(&self, mut table: Table) {
        if let Some(dir) = &self.csv {
            let path = dir.join(format!("{}.csv", table.id));
            if let Ok(prev) = std::fs::read_to_string(&path) {
                table.merge_csv_rows(&prev);
            }
        }
        self.emit(&table);
    }
}

/// A subcommand: its name and what it runs.
type Entry = (&'static str, fn(&Args));

/// Every subcommand; `all` runs them in this order.
const EXPERIMENTS: &[Entry] = &[
    ("fig6a", fig6a),
    ("fig6b", |a| a.emit(a.fig6b())),
    ("fig6c", |a| a.emit(&experiments::fig6c(a.fig6a()))),
    ("fig6d", |a| a.emit(&experiments::fig6d(a.fig6b()))),
    ("overhead", overhead),
    ("caswidth", |a| {
        let iters = (a.config.iterations as u64 * 100).max(100_000);
        a.emit(&experiments::cas_width(iters));
    }),
    ("opcounts", opcounts),
    ("ablate-scan", |a| {
        let records = [2, 4, 8, 16, 32, 64, 128, 256];
        a.emit(&experiments::ablate_scan(&records, 100_000));
    }),
    ("ablate-reregister", |a| {
        a.emit(&experiments::ablate_reregister(&a.threads, &a.config));
    }),
    ("ablate-capacity", |a| {
        let caps = [32, 64, 256, 1024, 4096, 16384];
        a.emit(&experiments::ablate_capacity(&caps, &a.config));
    }),
    ("ablate-backoff", |a| {
        let (time, snoozes) = experiments::ablate_backoff(&a.threads, &a.config);
        a.emit(&time);
        a.emit(&snoozes);
    }),
    ("modern", modern),
    ("batch", batch),
    ("ordering", ordering),
    ("sharding", sharding),
    ("alloc", alloc),
    ("async", run_async),
    ("latency", latency),
    ("spsc", spsc),
    ("arity", arity),
    ("net", net),
];

/// The experiments `name` runs, in order; empty for an unknown name.
fn plan(name: &str) -> Vec<Entry> {
    let runs = |&(experiment, _): &Entry| name == "all" || experiment == name;
    EXPERIMENTS.iter().copied().filter(runs).collect()
}

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    eprintln!(
        "usage: repro <{}|all> \
         [--threads 1,2,4] [--lanes 2,4,8] [--connections 256,1024] [--iters N] [--runs N] \
         [--capacity N] [--csv DIR] [--paper]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let Some(experiment) = argv.next() else {
        usage()
    };
    let mut args = Args {
        experiment,
        threads: vec![1, 2, 4, 8, 16, 32],
        lanes: vec![2, 4, 8],
        connections: vec![256, 1024],
        csv: None,
        config: WorkloadConfig::default(),
        fig6: Default::default(),
    };
    let mut paper = false;
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
        let mut list = |flag: &str, what: &str| -> Vec<usize> {
            value(flag)
                .split(',')
                .map(|s| {
                    s.trim().parse().unwrap_or_else(|_| {
                        eprintln!("bad {what}: {s}");
                        usage()
                    })
                })
                .collect()
        };
        let config = &mut args.config;
        match flag.as_str() {
            "--threads" => args.threads = list("--threads", "thread count"),
            "--lanes" => args.lanes = list("--lanes", "lane count"),
            "--connections" => args.connections = list("--connections", "connection count"),
            "--iters" => config.iterations = value("--iters").parse().unwrap_or_else(|_| usage()),
            "--runs" => config.runs = value("--runs").parse().unwrap_or_else(|_| usage()),
            "--capacity" => {
                config.capacity = value("--capacity").parse().unwrap_or_else(|_| usage())
            }
            "--csv" => args.csv = Some(PathBuf::from(value("--csv"))),
            "--paper" => paper = true,
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    if paper {
        args.config.iterations = 100_000;
        args.config.runs = 50;
    }
    args
}

fn fig6a(args: &Args) {
    let t = args.fig6a();
    args.emit(t);
    println!("LL/SC vs CAS speedup by thread count (in-text T3):");
    for (threads, ratio) in experiments::llsc_vs_cas_ratio(t) {
        println!(
            "  {threads:>3} threads: CAS is {:+.1}% vs LL/SC",
            ratio * 100.0
        );
    }
}

fn overhead(args: &Args) {
    let (t, ratios) = experiments::overhead(&args.config);
    args.emit(&t);
    println!("Overhead vs unsynchronized queue (paper: LL/SC +12%, CAS +50%/+90%):");
    for (name, r) in ratios {
        println!("  {name}: {:+.1}%", r * 100.0);
    }
}

fn opcounts(args: &Args) {
    args.emit(&experiments::opcounts(
        &args.threads,
        args.config.iterations,
    ));
    println!(
        "paper: Algorithm 2 = 3 CAS + 2 FAA per op; MS-Doherty = 7 \
         successful CAS per op (incl. its reclamation bookkeeping)"
    );
}

fn modern(args: &Args) {
    args.emit(&experiments::modern(&args.threads, &args.config));
    args.emit(&experiments::modern_ops(&args.threads, &args.config));
    println!(
        "SCQ/wCQ counter rows: wraps/resets/catchups trace the ring \
         protocol; a zero help/op row means wCQ never left its fast path"
    );
}

fn batch(args: &Args) {
    let laps = args.config.iterations.max(200);
    args.emit(&experiments::batch_amortization(&[1, 4, 16, 64], laps));
    args.emit(&experiments::batch_time(&args.threads, &args.config));
    println!(
        "batch calls amortize the Head/Tail index CAS (one jump per \
         batch); the 2 slot CASes per element are irreducible"
    );
}

/// The `ordering` experiment: this build measures one compiled mode
/// (`strict-sc` is a cargo feature), so `--csv` accumulates the
/// relaxed-vs-SeqCst table across two invocations.
fn ordering(args: &Args) {
    let (time, snoozes) = experiments::ordering(&args.threads, &args.config);
    args.emit_merged(time);
    args.emit_merged(snoozes);
    println!(
        "mode compiled into this binary: {} (rebuild with --features \
         strict-sc for the SeqCst rows; --csv merges both builds' rows)",
        nbq_util::mem::mode()
    );
}

/// The `alloc` experiment: like [`ordering`], one build measures one
/// compiled node-lifecycle mode (`no-pool` is a cargo feature), so `--csv`
/// accumulates the pooled-vs-malloc table across two invocations.
fn alloc(args: &Args) {
    args.emit_merged(experiments::alloc_throughput(&args.threads, &args.config));
    args.emit_merged(experiments::alloc_counters(&args.threads, &args.config));
    println!(
        "mode compiled into this binary: {} (rebuild with --features \
         no-pool for the malloc rows; --csv merges both builds' rows)",
        nbq_util::pool::mode()
    );
}

/// The `sharding` experiment: throughput table (the scaling claim) plus
/// the per-lane contention table that explains it.
fn sharding(args: &Args) {
    args.emit(&experiments::sharding(
        &args.threads,
        &args.lanes,
        &args.config,
    ));
    let lanes = args.lanes.iter().copied().max().unwrap_or(4);
    args.emit(&experiments::sharding_opstats(
        &args.threads,
        lanes,
        &args.config,
    ));
    println!(
        "relaxed-FIFO contract: per-lane FIFO strict, per-producer FIFO \
         preserved on-lane, cross-lane order advisory (DESIGN.md §5c)"
    );
}

/// The `async` experiment: frontend throughput comparison plus the
/// waiter-registry event-rate table behind it.
fn run_async(args: &Args) {
    args.emit(&experiments::async_frontend(&args.threads, &args.config));
    args.emit(&experiments::async_wakers(&args.threads, &args.config));
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
fn latency(args: &Args) {
    let (latency, steal) = experiments::async_latency(&args.threads, &args.config);
    args.emit(&latency);
    args.emit(&steal);
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

/// `--threads` restricted to the counts `keep` admits, with a note on
/// stderr about any dropped.
fn usable_threads(args: &Args, experiment: &str, why: &str, keep: fn(usize) -> bool) -> Vec<usize> {
    let threads: Vec<usize> = args.threads.iter().copied().filter(|&t| keep(t)).collect();
    if threads.len() < args.threads.len() {
        eprintln!(
            "note: {experiment} sweeps {why}; using {threads:?} of {:?}",
            args.threads
        );
    }
    threads
}

/// The `spsc` experiment: the crossover sweep (even thread counts; the
/// pipe pairs producers with consumers) plus the isolated 1p/1c table
/// where the raw ring is admissible.
fn spsc(args: &Args) {
    let even = |t: usize| t >= 2 && t % 2 == 0;
    let threads = usable_threads(args, "spsc", "even thread counts only (pipe pairs)", even);
    if !threads.is_empty() {
        args.emit(&experiments::spsc(&threads, &args.config));
    }
    args.emit(&experiments::spsc_1p1c(&args.config));
    println!(
        "mixed rows pin one producer/consumer pair per lane, so every lane \
         stays on its wait-free SPSC ring; a second registrant on a lane \
         would promote it to the MPMC path (DESIGN.md §10)"
    );
}

/// The `arity` experiment: the fan-in/fan-out throughput sweep (thread
/// counts >= 4 only; every 2-lane entry needs one single-side endpoint
/// per lane plus at least one multi-side endpoint per lane).
fn arity(args: &Args) {
    let why = "thread counts >= 4 only (2-lane fans)";
    let threads = usable_threads(args, "arity", why, |t| t >= 4);
    if threads.is_empty() {
        eprintln!("note: no usable thread counts for arity; skipping");
        return;
    }
    args.emit(&experiments::arity(&threads, &args.config));
    println!(
        "fan rows pin one single-arity endpoint per lane (the claimed \
         side) while the opposite side fans over the lane's FAA ticket \
         (DESIGN.md §13)"
    );
}

/// The `net` experiment: the loopback broker sweep — delivered
/// throughput plus end-to-end and ACK-RTT quantiles, one row set per
/// queue backbone.
fn net(args: &Args) {
    // 20 stop-and-wait messages per publisher: enough cycles per
    // connection to populate the p999 bucket at the default sweep
    // without dragging out the 4-backbone run.
    let (tput, lat) = experiments::net(&args.connections, 20, args.config.runs);
    args.emit(&tput);
    args.emit(&lat);
    println!(
        "each connection pair is one stop-and-wait publisher and one \
         subscriber sharing a topic; topics are ShardedQueue-backed \
         channels (MPSC fast-path lanes) and BUSY rows are protocol \
         backpressure, not errors (DESIGN.md §14)"
    );
}

fn main() -> ExitCode {
    let args = parse_args();
    let plan = plan(&args.experiment);
    if plan.is_empty() {
        eprintln!("unknown experiment: {}", args.experiment);
        usage();
    }
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
    for (_, run) in plan {
        run(&args);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(plan: Vec<Entry>) -> Vec<&'static str> {
        plan.into_iter().map(|(name, _)| name).collect()
    }

    #[test]
    fn all_runs_every_registry_entry_in_order() {
        assert_eq!(names(plan("all")), names(EXPERIMENTS.to_vec()));
        assert_eq!(EXPERIMENTS.len(), 21);
    }

    #[test]
    fn each_name_runs_exactly_its_own_entry() {
        for &(name, _) in EXPERIMENTS {
            assert_eq!(names(plan(name)), [name], "registry names must be unique");
        }
        assert!(plan("nope").is_empty());
    }
}
