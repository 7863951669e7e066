//! The repository benchmark: one item flow pushed up the stack one layer
//! at a time, so the cost a layer adds is the difference between
//! neighbouring rungs.
//!
//! | workload     | flow                                                        |
//! |--------------|-------------------------------------------------------------|
//! | `mix`        | paper §6 loop: 2 threads, 5 enqueues + 5 dequeues, `CasQueue` |
//! | `pipe`       | 1 producer thread → one `MpscFastPath` lane → 1 consumer     |
//! | `async-pipe` | the same lane behind `AsyncQueue`, 2 tasks on 1 worker       |
//! | `broker`     | the same lane inside `nbq-net`, 1 publisher + 1 subscriber   |
//!
//! Usage: `ladder --workload <name> --seed <n> --seconds <n> --trace <0|1>`.
//!
//! Every run builds [`RIGS`] rigs one after another. A rig is the queue,
//! its threads or runtime, and its connections; it runs an untimed
//! warm-up pass (set-up ends there) and then times its share of the
//! window. Throughput is taken over all the windows; every other metric
//! is the median over the rigs, so one disturbed rig does not move it.
//! Load threads and runtime workers are pinned one per CPU (see [`pin`]),
//! and each rig's heap layout is shifted (see [`measure::layout_shift`]). Items carry per-producer sequence numbers, and
//! every stream is checked for conservation and per-producer FIFO order.
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics;
//! with `--trace 1` it reports the per-layer metrics of a traced rig
//! (stats-enabled constructors, spans around the calls into each layer)
//! plus the tracing overhead against an untraced rig of the same run.
//! Layers a workload does not trace read 0; `layers.json` maps every
//! per-layer metric to its workload and the end-to-end metric it moves.
//! Each run also writes its record to `ladder/runs/`.

mod async_pipe;
mod broker;
mod check;
mod measure;
mod mix;
mod pin;
mod pipe;

use measure::{peak_rss_mb, ratio, Quantiles};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Rigs per run; every metric is a median over them.
const RIGS: usize = 20;

/// Per-layer metrics and their units, in report order.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.cas_queue.enqueue_ns_p50", "ns"),
    ("core.cas_queue.enqueue_ns_p99", "ns"),
    ("core.cas_queue.dequeue_ns_p50", "ns"),
    ("core.cas_queue.dequeue_ns_p99", "ns"),
    ("core.cas_queue.empty_frac", "frac"),
    ("core.cas_queue.slot_cas_per_op", "count/op"),
    ("core.cas_queue.index_cas_fail_frac", "frac"),
    ("core.cas_queue.helps_per_op", "count/op"),
    ("core.cas_queue.backoff_snoozes_per_op", "count/op"),
    ("util.pool.recycle_frac", "frac"),
    ("util.pool.spills_per_kop", "count/kop"),
    ("core.sharded.enqueue_ns_p50", "ns"),
    ("core.sharded.dequeue_ns_p50", "ns"),
    ("core.sharded.full_frac", "frac"),
    ("core.sharded.empty_frac", "frac"),
    ("core.sharded.lanes_promoted", "count"),
    ("async.send_ns_p50", "ns"),
    ("async.send_ns_p99", "ns"),
    ("async.recv_ns_p50", "ns"),
    ("async.recv_ns_p99", "ns"),
    ("async.send_park_frac", "frac"),
    ("async.recv_park_frac", "frac"),
    ("async.waker_registrations_per_item", "count/item"),
    ("async.spurious_polls_per_item", "count/item"),
    ("executor.parks_per_kitem", "count/kitem"),
    ("executor.io_parks_per_kitem", "count/kitem"),
    ("executor.lifo_hits_per_kitem", "count/kitem"),
    ("executor.steals_per_kitem", "count/kitem"),
    ("executor.injection_polls_per_kitem", "count/kitem"),
    ("net.frame.encode_ns_p50", "ns"),
    ("net.frame.decode_ns_p50", "ns"),
    ("net.conn.write_ns_p50", "ns"),
    ("net.conn.reads_per_msg", "count/msg"),
    ("net.reactor.dispatched_per_msg", "count/msg"),
    ("net.broker.ack_rtt_us_p50", "us"),
    ("net.broker.ack_rtt_us_p99", "us"),
    ("net.broker.busy_per_msg", "count/msg"),
    ("trace.items_per_s", "1/s"),
    ("trace.untraced_items_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
];

/// What one rig measured.
pub struct RigOut {
    pub setup_s: f64,
    /// Items sent, warm-up included.
    pub attempted: u64,
    /// Items not received exactly once and in per-producer order, plus
    /// corrupted payloads and protocol faults.
    pub failed: u64,
    /// Items completed inside the timed window.
    pub items: u64,
    pub window_s: f64,
    pub latency: Quantiles,
    /// Per-layer metrics of a traced rig, in a fixed order.
    pub layers: Vec<(&'static str, f64)>,
}

/// What a run of [`RIGS`] rigs measured: items per second over all the
/// rigs' windows, medians over the rigs of the set-up times, latency
/// quantiles and layer metrics, and counts summed.
struct Outcome {
    setup_s: f64,
    items_per_s: f64,
    latency_p50_us: f64,
    latency_p99_us: f64,
    latency_samples: usize,
    attempted: u64,
    failed: u64,
    layers: Vec<(&'static str, f64)>,
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 2).copied().unwrap_or(0.0)
}

#[derive(Clone, Copy)]
enum Workload {
    Mix,
    Pipe,
    AsyncPipe,
    Broker,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("mix", Workload::Mix),
        ("pipe", Workload::Pipe),
        ("async-pipe", Workload::AsyncPipe),
        ("broker", Workload::Broker),
    ];

    fn rig(self, seed: u64, traced: bool, seconds: f64) -> RigOut {
        match self {
            Workload::Mix => mix::rig(traced, seconds),
            Workload::Pipe => pipe::rig(seed, traced, seconds),
            Workload::AsyncPipe => async_pipe::rig(seed, traced, seconds),
            Workload::Broker => broker::rig(seed, traced, seconds),
        }
    }

    /// [`RIGS`] rigs sharing `seconds` of timed window.
    fn run(self, seed: u64, traced: bool, seconds: f64) -> Outcome {
        let rigs: Vec<RigOut> = (0..RIGS)
            .map(|i| {
                let _shift = measure::layout_shift(seed, i);
                self.rig(seed, traced, seconds / RIGS as f64)
            })
            .collect();
        let med = |f: &dyn Fn(&RigOut) -> f64| median(rigs.iter().map(f).collect());
        let layers = rigs[0]
            .layers
            .iter()
            .enumerate()
            .map(|(i, &(name, _))| (name, med(&|r| r.layers[i].1)))
            .collect();
        Outcome {
            setup_s: med(&|r| r.setup_s),
            items_per_s: ratio(
                rigs.iter().map(|r| r.items as f64).sum(),
                rigs.iter().map(|r| r.window_s).sum(),
            ),
            latency_p50_us: med(&|r| r.latency.p50_ns / 1e3),
            latency_p99_us: med(&|r| r.latency.p99_ns / 1e3),
            latency_samples: rigs.iter().map(|r| r.latency.count).sum(),
            attempted: rigs.iter().map(|r| r.attempted).sum(),
            failed: rigs.iter().map(|r| r.failed).sum(),
            layers,
        }
    }
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::ALL
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, w)| w)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit of a git checkout in the working directory, read from its
/// metadata without leaving the directory; `unknown` elsewhere.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (commit, name) = l.split_once(' ')?;
                (name == reference).then(|| commit.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ladder: {e}");
            eprintln!(
                "usage: ladder --workload <mix|pipe|async-pipe|broker> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds as f64;
    // `metrics` are the contract's; `extra` are printed and recorded only.
    let (metrics, extra, attempted, failed, overhead) = if args.trace {
        // Half the window untraced, half traced, each on its own rigs.
        let plain = args.workload.run(args.seed, false, seconds / 2.0);
        let traced = args.workload.run(args.seed, true, seconds / 2.0);
        let overhead = 1.0 - ratio(traced.items_per_s, plain.items_per_s);
        let mut values: Vec<(&str, f64)> = traced.layers.clone();
        values.push(("trace.items_per_s", traced.items_per_s));
        values.push(("trace.untraced_items_per_s", plain.items_per_s));
        values.push(("trace.overhead_frac", overhead));
        let metrics = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let v = values.iter().find(|(n, _)| *n == name).map_or(0.0, |p| p.1);
                (name, v, unit)
            })
            .collect();
        (
            metrics,
            Vec::new(),
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            Some(overhead),
        )
    } else {
        let out = args.workload.run(args.seed, false, seconds);
        let metrics = vec![
            ("items_per_s", out.items_per_s, "1/s"),
            ("latency_p50_us", out.latency_p50_us, "us"),
            ("setup_s", out.setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        // The p99 spreads more from run to run than a bound could
        // allow on a shared two-CPU host, so it is reported unbounded.
        let extra = vec![
            ("latency_p99_us", out.latency_p99_us, "us"),
            ("latency_samples", out.latency_samples as f64, "count"),
        ];
        (metrics, extra, out.attempted, out.failed, None)
    };
    let failed_frac = ratio(failed as f64, attempted as f64);
    let correct = failed == 0 && attempted > 0;

    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"cpus\": {cpus}, \
         \"git_commit\": {}, \"rustc\": {}, \"rigs\": {RIGS}, \"failed_frac\": {failed_frac}, \
         \"tracing_overhead_frac\": {}, \"unbounded\": {}}}",
        json_str(&args.name),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&git_commit()),
        json_str(env!("LADDER_RUSTC_VERSION")),
        overhead.map_or("null".to_owned(), |o| o.to_string()),
        json_metrics(&extra),
    );
    for (name, value, unit) in metrics.iter().chain(&extra) {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    println!("{:<40} {failed_frac:>16.4} frac", "failed_frac");
    println!("record: {record}");
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/runs");
    let file = format!(
        "{dir}/{}-seed{}-trace{}.json",
        args.name,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(
            &file,
            format!("{{\"record\": {record}, \"result\": {result}}}\n"),
        )
    });
    if let Err(e) = written {
        eprintln!("ladder: could not write {file}: {e}");
    }
    if !correct {
        eprintln!("ladder: FAILED: {failed} of {attempted} items were lost, duplicated, reordered or corrupted");
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
