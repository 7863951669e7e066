//! Reproduction harness for the paper's evaluation (§6).
//!
//! * [`workload`] — one workload model and its runner: a [`Workload`] is
//!   a [`Shape`] (the paper's 5-enqueue/5-dequeue loop, its batched
//!   form, or a producer/consumer split, optionally pinned to lanes), a
//!   [`Frontend`] (raw spin, condvar, async tasks) and optional latency
//!   capture; [`Workload::run`] builds fresh queues from a factory and
//!   reports mean-of-runs time, the operations performed and the latency
//!   histograms. [`run_once`] is the paper's loop on one queue.
//! * [`algos`] — the algorithm registry (paper algorithms, every §6
//!   baseline, extension comparators): an [`Algo`] names only the queue
//!   it builds, and [`Algo::visit`] hands any [`Visit`]or a factory for it.
//! * [`experiments`] — one driver per figure/table (`fig6a`–`fig6d`,
//!   the in-text measurements) and per ablation; each table row is an
//!   `Algo` plus the `Workload` that drives it.
//! * [`casbench`] — raw atomic-primitive cost measurements.
//! * [`report`] — text/CSV/JSON tables.
//!
//! The `repro` binary exposes all of it from one registry of
//! subcommands:
//!
//! ```text
//! repro fig6a --threads 1,2,4,8 --iters 2000 --runs 5 --csv results/
//! repro all --paper        # the full published parameter set (slow!)
//! ```

#![warn(missing_docs)]

pub mod algos;
pub mod casbench;
pub mod experiments;
pub mod report;
pub mod workload;

pub use algos::{Algo, Lane, Tuning, Visit, AMD_SET, MODERN_SET, POWERPC_SET};
pub use report::{Cell, Table};
pub use workload::{
    run_once, Driven, Frontend, LatencyReport, RunReport, Shape, Workload, WorkloadConfig,
};
