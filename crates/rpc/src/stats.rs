//! Per-procedure RPC traffic statistics.
//!
//! The paper's evaluation reports "the number of RPCs transferred over the
//! network" broken down by procedure (Figures 4a and 6a). [`RpcStats`] is a
//! cheap, thread-safe counter set that transports attach to each link;
//! the experiment harness snapshots it per setup.
//!
//! Beyond call/byte counts, the stats track an **in-flight gauge** with a
//! high-water mark and a per-procedure **latency accumulator**: with the
//! xid-multiplexed [`RpcChannel`](crate::channel::RpcChannel) a batch of
//! pipelined WRITEs shows up as `max_in_flight > 1`, which is how the
//! experiment output makes pipelining depth observable.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A snapshot-able set of per-(program, procedure) counters.
///
/// Cloning shares the underlying counters ([`Arc`] semantics), so a
/// transport and the harness can hold the same instance.
///
/// # Examples
///
/// ```
/// let stats = gvfs_rpc::stats::RpcStats::new();
/// stats.record(100003, 1, 128, 96); // one GETATTR: 128 B out, 96 B in
/// let snap = stats.snapshot();
/// assert_eq!(snap.calls(100003, 1), 1);
/// assert_eq!(snap.total_calls(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RpcStats {
    inner: Arc<Mutex<Inner>>,
}

/// The live counters plus the in-flight gauge, the one value a
/// snapshot does not carry.
#[derive(Debug, Default)]
struct Inner {
    snap: StatsSnapshot,
    in_flight: u64,
}

/// Counters for a single procedure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcCounter {
    /// Number of calls.
    pub calls: u64,
    /// Bytes sent in call messages (including RPC headers).
    pub bytes_out: u64,
    /// Bytes received in replies.
    pub bytes_in: u64,
    /// Total latency across all calls, in nanoseconds (virtual time on
    /// the simulated transport, wall-clock on TCP).
    pub latency_nanos: u64,
}

impl ProcCounter {
    /// Mean per-call latency in nanoseconds (zero when no calls).
    pub fn mean_latency_nanos(&self) -> u64 {
        self.latency_nanos.checked_div(self.calls).unwrap_or(0)
    }
}

/// An immutable copy of the counters at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    counters: BTreeMap<(u32, u32), ProcCounter>,
    max_in_flight: u64,
    unreachable: u64,
    timeouts: u64,
    breaker_trips: u64,
    breaker_probes: u64,
    breakers_open: u64,
}

impl RpcStats {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed call for `(program, procedure)`.
    pub fn record(&self, program: u32, procedure: u32, bytes_out: u64, bytes_in: u64) {
        self.record_latency(program, procedure, bytes_out, bytes_in, 0);
    }

    /// Records one completed call including its observed latency.
    pub fn record_latency(
        &self,
        program: u32,
        procedure: u32,
        bytes_out: u64,
        bytes_in: u64,
        latency_nanos: u64,
    ) {
        let mut inner = self.inner.lock();
        let c = inner.snap.counters.entry((program, procedure)).or_default();
        c.calls += 1;
        c.bytes_out += bytes_out;
        c.bytes_in += bytes_in;
        c.latency_nanos += latency_nanos;
    }

    /// Records one call that could not be put on the wire at all
    /// (partitioned link). These calls never reach the per-procedure
    /// counters, so a dedicated tally is the only way a harness can see
    /// how hard a client hammered a dead link — the chaos back-off
    /// regression tests read this.
    pub fn record_unreachable(&self) {
        self.inner.lock().snap.unreachable += 1;
    }

    /// Records one call that was sent but never answered (lost request
    /// or reply, or a down server) and burned its RPC timeout.
    pub fn record_timeout(&self) {
        self.inner.lock().snap.timeouts += 1;
    }

    /// Records one circuit-breaker trip (Closed → Open) and bumps the
    /// open-breaker gauge. Fed by
    /// [`CircuitBreaker`](crate::breaker::CircuitBreaker) when a stats
    /// sink is attached.
    pub fn record_breaker_trip(&self) {
        let snap = &mut self.inner.lock().snap;
        snap.breaker_trips += 1;
        snap.breakers_open += 1;
    }

    /// Records one breaker heal (a probe succeeded; Open/HalfOpen →
    /// Closed) and drops the open-breaker gauge.
    pub fn record_breaker_heal(&self) {
        let snap = &mut self.inner.lock().snap;
        snap.breakers_open = snap.breakers_open.saturating_sub(1);
    }

    /// Records one half-open probe window (Open → HalfOpen promotion).
    pub fn record_breaker_probe(&self) {
        self.inner.lock().snap.breaker_probes += 1;
    }

    /// Notes that one call entered the wire; bumps the in-flight gauge
    /// and its high-water mark.
    pub fn call_started(&self) {
        let mut inner = self.inner.lock();
        inner.in_flight += 1;
        inner.snap.max_in_flight = inner.snap.max_in_flight.max(inner.in_flight);
    }

    /// Notes that one call left the wire (reply claimed or failed).
    pub fn call_finished(&self) {
        let mut inner = self.inner.lock();
        inner.in_flight = inner.in_flight.saturating_sub(1);
    }

    /// Calls currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.inner.lock().in_flight
    }

    /// Copies out the current counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.inner.lock().snap.clone()
    }

    /// Resets all counters (and the in-flight high-water mark) to zero.
    /// The open-breaker gauge is state, not a tally, and survives.
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        inner.snap = StatsSnapshot {
            max_in_flight: inner.in_flight,
            breakers_open: inner.snap.breakers_open,
            ..StatsSnapshot::default()
        };
    }
}

impl StatsSnapshot {
    /// Calls recorded for one procedure.
    pub fn calls(&self, program: u32, procedure: u32) -> u64 {
        self.counters.get(&(program, procedure)).map_or(0, |c| c.calls)
    }

    /// Total calls across all procedures.
    pub fn total_calls(&self) -> u64 {
        self.counters.values().map(|c| c.calls).sum()
    }

    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.counters.values().map(|c| c.bytes_in + c.bytes_out).sum()
    }

    /// Highest number of simultaneously in-flight calls observed since
    /// the stats were created (or last [`reset`](RpcStats::reset)).
    pub fn max_in_flight(&self) -> u64 {
        self.max_in_flight
    }

    /// Calls that failed before reaching the wire (partitioned link).
    pub fn transport_unreachable(&self) -> u64 {
        self.unreachable
    }

    /// Calls that were sent but burned their RPC timeout unanswered.
    pub fn transport_timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Circuit-breaker trips (Closed → Open) recorded into this sink.
    pub fn breaker_trips(&self) -> u64 {
        self.breaker_trips
    }

    /// Half-open probe windows (Open → HalfOpen promotions) recorded.
    pub fn breaker_probes(&self) -> u64 {
        self.breaker_probes
    }

    /// Breakers currently open or half-open (a gauge, not a tally).
    pub fn breakers_open(&self) -> u64 {
        self.breakers_open
    }

    /// Mean latency for one procedure, in nanoseconds.
    pub fn mean_latency_nanos(&self, program: u32, procedure: u32) -> u64 {
        self.counters.get(&(program, procedure)).map_or(0, ProcCounter::mean_latency_nanos)
    }

    /// Iterates over `((program, procedure), counter)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (&(u32, u32), &ProcCounter)> {
        self.counters.iter()
    }

    /// Returns the difference `self - earlier`, for measuring an interval.
    ///
    /// Counters absent from `earlier` are taken as zero. The in-flight
    /// high-water mark is not differenced (it is a maximum, not a sum);
    /// the later snapshot's value is kept.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut counters = BTreeMap::new();
        for (key, c) in &self.counters {
            let before = earlier.counters.get(key).copied().unwrap_or_default();
            let delta = ProcCounter {
                calls: c.calls - before.calls,
                bytes_out: c.bytes_out - before.bytes_out,
                bytes_in: c.bytes_in - before.bytes_in,
                latency_nanos: c.latency_nanos - before.latency_nanos,
            };
            if delta != ProcCounter::default() {
                counters.insert(*key, delta);
            }
        }
        StatsSnapshot {
            counters,
            max_in_flight: self.max_in_flight,
            unreachable: self.unreachable - earlier.unreachable,
            timeouts: self.timeouts - earlier.timeouts,
            breaker_trips: self.breaker_trips - earlier.breaker_trips,
            breaker_probes: self.breaker_probes - earlier.breaker_probes,
            // A gauge: the later snapshot's value is kept, like
            // `max_in_flight`.
            breakers_open: self.breakers_open,
        }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>10} {:>10} {:>10} {:>12} {:>12} {:>12}",
            "prog", "proc", "calls", "bytes_out", "bytes_in", "mean_lat_us"
        )?;
        for ((prog, pr), c) in &self.counters {
            writeln!(
                f,
                "{prog:>10} {pr:>10} {:>10} {:>12} {:>12} {:>12}",
                c.calls,
                c.bytes_out,
                c.bytes_in,
                c.mean_latency_nanos() / 1_000
            )?;
        }
        writeln!(
            f,
            "max in-flight: {}  unreachable: {}  timeouts: {}  breaker trips: {} \
             (open: {}, probes: {})",
            self.max_in_flight,
            self.unreachable,
            self.timeouts,
            self.breaker_trips,
            self.breakers_open,
            self.breaker_probes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let s = RpcStats::new();
        s.record(1, 2, 10, 20);
        s.record(1, 2, 5, 5);
        s.record(1, 3, 1, 1);
        let snap = s.snapshot();
        assert_eq!(snap.calls(1, 2), 2);
        assert_eq!(snap.calls(1, 3), 1);
        assert_eq!(snap.calls(9, 9), 0);
        assert_eq!(snap.total_calls(), 3);
        assert_eq!(snap.total_bytes(), 42);
    }

    #[test]
    fn clones_share_counters() {
        let s = RpcStats::new();
        let s2 = s.clone();
        s2.record(7, 7, 1, 1);
        assert_eq!(s.snapshot().calls(7, 7), 1);
    }

    #[test]
    fn since_computes_interval() {
        let s = RpcStats::new();
        s.record(1, 1, 100, 100);
        let before = s.snapshot();
        s.record(1, 1, 50, 50);
        s.record(1, 2, 1, 1);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.calls(1, 1), 1);
        assert_eq!(delta.calls(1, 2), 1);
        assert_eq!(delta.total_bytes(), 102);
    }

    #[test]
    fn reset_zeroes_counters() {
        let s = RpcStats::new();
        s.record(1, 1, 1, 1);
        s.reset();
        assert_eq!(s.snapshot().total_calls(), 0);
    }

    #[test]
    fn display_lists_procedures() {
        let s = RpcStats::new();
        s.record(100003, 4, 10, 10);
        let text = s.snapshot().to_string();
        assert!(text.contains("100003"));
        assert!(text.contains("calls"));
    }

    #[test]
    fn in_flight_gauge_tracks_high_water() {
        let s = RpcStats::new();
        s.call_started();
        s.call_started();
        assert_eq!(s.in_flight(), 2);
        s.call_finished();
        s.call_started();
        s.call_finished();
        s.call_finished();
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.snapshot().max_in_flight(), 2);
    }

    #[test]
    fn latency_accumulates_and_averages() {
        let s = RpcStats::new();
        s.record_latency(1, 1, 10, 10, 1_000);
        s.record_latency(1, 1, 10, 10, 3_000);
        let snap = s.snapshot();
        assert_eq!(snap.mean_latency_nanos(1, 1), 2_000);
        assert_eq!(snap.mean_latency_nanos(1, 9), 0);
    }

    #[test]
    fn transport_failures_are_tallied_and_differenced() {
        let s = RpcStats::new();
        s.record_unreachable();
        s.record_unreachable();
        s.record_timeout();
        let before = s.snapshot();
        assert_eq!(before.transport_unreachable(), 2);
        assert_eq!(before.transport_timeouts(), 1);
        s.record_unreachable();
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.transport_unreachable(), 1);
        assert_eq!(delta.transport_timeouts(), 0);
        s.reset();
        assert_eq!(s.snapshot().transport_unreachable(), 0);
    }

    #[test]
    fn breaker_counters_tally_difference_and_reset() {
        let s = RpcStats::new();
        s.record_breaker_trip();
        s.record_breaker_probe();
        let before = s.snapshot();
        assert_eq!(before.breaker_trips(), 1);
        assert_eq!(before.breaker_probes(), 1);
        assert_eq!(before.breakers_open(), 1);
        s.record_breaker_heal();
        s.record_breaker_trip();
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.breaker_trips(), 1);
        assert_eq!(delta.breaker_probes(), 0);
        assert_eq!(delta.breakers_open(), 1, "gauge keeps the later value");
        s.reset();
        let snap = s.snapshot();
        assert_eq!(snap.breaker_trips(), 0);
        assert_eq!(snap.breakers_open(), 1, "the gauge is state and survives reset");
    }

    #[test]
    fn reset_keeps_current_in_flight_as_floor() {
        let s = RpcStats::new();
        s.call_started();
        s.call_started();
        s.call_finished();
        s.reset();
        // One call still in flight: the new high-water mark starts there.
        assert_eq!(s.snapshot().max_in_flight(), 1);
    }
}
