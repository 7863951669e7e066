//! Per-operation latency capture.

use nbq_util::LatencyHistogram;
use std::time::Instant;

/// Per-operation latency capture from one workload run (or several,
/// merged): one histogram per operation kind plus one for the *echo* —
/// in the balanced shapes, a complete iteration of `burst` enqueues then
/// `burst` dequeues (the round-trip a message-passing caller actually
/// waits for); in the async fan, the in-queue transit time of one value
/// from `send` to `recv`, scheduler reschedule included (each value
/// carries its send timestamp).
///
/// Histograms are recorded per thread/task (no sharing on the hot path)
/// and merged after the run; see [`nbq_util::latency`].
#[derive(Debug, Clone, Default)]
pub struct LatencyReport {
    /// Time per enqueue/`send`, including Full retries or parking.
    pub enqueue: LatencyHistogram,
    /// Time per dequeue/`recv`, including empty retries or parking.
    pub dequeue: LatencyHistogram,
    /// Time per full burst iteration, or per value's transit.
    pub echo: LatencyHistogram,
}

impl LatencyReport {
    /// Folds another capture (a per-thread or per-run report) into this
    /// one.
    pub fn merge(&mut self, other: &LatencyReport) {
        self.enqueue.merge(&other.enqueue);
        self.dequeue.merge(&other.dequeue);
        self.echo.merge(&other.echo);
    }
}

/// The histogram a timing lands in.
#[derive(Debug, Clone, Copy)]
pub(super) enum Op {
    Enqueue,
    Dequeue,
    Echo,
}

/// Latency capture as a type parameter of the workload loops. `()`
/// records nothing: it is zero-sized and every call compiles away, so the
/// untimed hot loop has no branch, no `Instant::now` and no dynamic
/// dispatch. [`LatencyReport`] times each operation.
pub(super) trait Clock: Default + Send + 'static {
    /// A start point: `()` untimed, an [`Instant`] timed.
    type Mark: Copy + Send;
    fn mark() -> Self::Mark;
    fn record(&mut self, op: Op, since: Self::Mark);
    /// The value an async fan producer sends: its send time when timed.
    fn stamp(epoch: Instant, value: u64) -> u64;
    /// Records a received [`Clock::stamp`]'s transit time as an echo.
    fn transit(&mut self, epoch: Instant, stamp: u64);
    fn absorb(&mut self, other: Self);
    fn report(self) -> Option<LatencyReport>;
}

impl Clock for () {
    type Mark = ();
    fn mark() {}
    fn record(&mut self, _: Op, _: ()) {}
    fn stamp(_: Instant, value: u64) -> u64 {
        value
    }
    fn transit(&mut self, _: Instant, _: u64) {}
    fn absorb(&mut self, _: ()) {}
    fn report(self) -> Option<LatencyReport> {
        None
    }
}

impl Clock for LatencyReport {
    type Mark = Instant;
    fn mark() -> Instant {
        Instant::now()
    }
    fn record(&mut self, op: Op, since: Instant) {
        let histogram = match op {
            Op::Enqueue => &mut self.enqueue,
            Op::Dequeue => &mut self.dequeue,
            Op::Echo => &mut self.echo,
        };
        histogram.record(since.elapsed());
    }
    fn stamp(epoch: Instant, _: u64) -> u64 {
        epoch.elapsed().as_nanos() as u64
    }
    fn transit(&mut self, epoch: Instant, stamp: u64) {
        let now = epoch.elapsed().as_nanos() as u64;
        self.echo.record_ns(now.saturating_sub(stamp));
    }
    fn absorb(&mut self, other: Self) {
        self.merge(&other);
    }
    fn report(self) -> Option<LatencyReport> {
        Some(self)
    }
}
