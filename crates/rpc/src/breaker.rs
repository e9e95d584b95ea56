//! Per-peer WAN health supervision: a circuit breaker fed by call
//! outcomes and a latency EWMA.
//!
//! A wide-area proxy session needs to *know* when its link is sick, not
//! just outwait it: the degradation ladder in the proxy client serves
//! bounded-staleness reads while the breaker is open, and the proxy
//! server short-circuits recalls to clients whose breaker is open
//! instead of burning a callback timeout per access (§4.3.4's
//! revoked-unreachable rule, applied proactively).
//!
//! The state machine is the classic three-state breaker:
//!
//! ```text
//!            failures >= threshold
//!   Closed ────────────────────────▶ Open
//!     ▲                               │ cooldown elapsed
//!     │  probe succeeds               ▼ (cooldown doubles per re-open)
//!     └────────────────────────── HalfOpen
//!                                     │ probe fails
//!                                     └──────▶ Open
//! ```
//!
//! Every method takes an explicit `now` (duration since an arbitrary,
//! monotone epoch) instead of reading a clock, so the breaker is fully
//! deterministic under the virtual-time simulator and trivially unit
//! testable. Latency is tracked as an integer EWMA (alpha = 1/8) —
//! no floating point, no cross-platform drift.

use crate::stats::RpcStats;
use parking_lot::Mutex;
use std::time::Duration;

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// The peer is healthy; calls flow normally.
    Closed,
    /// The peer failed repeatedly; callers should avoid non-essential
    /// traffic and serve degraded until a probe succeeds.
    Open,
    /// The cooldown elapsed; the next call is a probe whose outcome
    /// decides between re-opening and closing.
    HalfOpen,
}

impl BreakerState {
    /// `true` unless the breaker is [`BreakerState::Closed`].
    pub fn is_degraded(&self) -> bool {
        !matches!(self, BreakerState::Closed)
    }
}

/// Tuning knobs for one [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive breaker-relevant failures that trip Closed → Open.
    pub failure_threshold: u32,
    /// Initial Open → HalfOpen delay after a trip.
    pub cooldown: Duration,
    /// Cap for the cooldown, which doubles every time a half-open probe
    /// fails (so a long outage is probed at a bounded, decaying rate).
    pub cooldown_max: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        // Three consecutive transport failures on a WAN link is already
        // several seconds of virtual time under the forward path's
        // exponential back-off; a healthy network never strings three
        // together, so the figure-generating benchmarks see no trips.
        Self {
            failure_threshold: 3,
            cooldown: Duration::from_secs(5),
            cooldown_max: Duration::from_secs(60),
        }
    }
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    consecutive_failures: u32,
    /// When the breaker last entered Open (paces the next probe).
    reopened_at: Duration,
    /// When the current outage began (first trip of this episode);
    /// drives the client's `DEGRADE_AFTER` ladder rung.
    outage_since: Option<Duration>,
    /// Current Open → HalfOpen delay (doubles per failed probe).
    cooldown: Duration,
    /// Integer EWMA of call latency, alpha = 1/8.
    ewma_latency_nanos: u64,
    trips: u64,
}

/// A deterministic closed/open/half-open circuit breaker for one peer.
///
/// Outcome feeding is the caller's job: report every completed call via
/// [`on_success`](CircuitBreaker::on_success) and every breaker-relevant
/// failure (see `RpcError::trips_breaker`) via
/// [`on_failure`](CircuitBreaker::on_failure). The breaker never gates
/// calls by itself — callers consult [`state`](CircuitBreaker::state)
/// to decide whether to degrade, probe, or short-circuit.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    stats: Option<RpcStats>,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// Creates a closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            stats: None,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                reopened_at: Duration::ZERO,
                outage_since: None,
                cooldown: config.cooldown,
                ewma_latency_nanos: 0,
                trips: 0,
            }),
        }
    }

    /// Attaches a stats sink: trips, heals, and probes are tallied into
    /// it so the experiment harness can observe breaker activity through
    /// the same [`RpcStats`] snapshots it already takes.
    pub fn with_stats(mut self, stats: RpcStats) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The configuration this breaker was built with.
    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    /// Reports a successful call and its observed latency. Closes the
    /// breaker from any state and resets the cooldown ladder.
    pub fn on_success(&self, _now: Duration, latency: Duration) {
        let mut inner = self.inner.lock();
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        inner.ewma_latency_nanos = if inner.ewma_latency_nanos == 0 {
            nanos
        } else {
            inner.ewma_latency_nanos - inner.ewma_latency_nanos / 8 + nanos / 8
        };
        inner.consecutive_failures = 0;
        if inner.state.is_degraded() {
            inner.state = BreakerState::Closed;
            inner.outage_since = None;
            inner.cooldown = self.config.cooldown;
            drop(inner);
            if let Some(stats) = &self.stats {
                stats.record_breaker_heal();
            }
        }
    }

    /// Reports a breaker-relevant failure (transport timeout or an
    /// unreachable peer). Trips Closed → Open at the threshold and
    /// re-opens a half-open breaker with a doubled cooldown.
    pub fn on_failure(&self, now: Duration) {
        let mut inner = self.inner.lock();
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        let tripped = match inner.state {
            BreakerState::Closed => {
                if inner.consecutive_failures >= self.config.failure_threshold {
                    inner.state = BreakerState::Open;
                    inner.reopened_at = now;
                    inner.outage_since = Some(now);
                    inner.trips += 1;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                // The probe failed: back to Open, probing more slowly.
                inner.state = BreakerState::Open;
                inner.reopened_at = now;
                inner.cooldown = (inner.cooldown * 2).min(self.config.cooldown_max);
                false
            }
            BreakerState::Open => {
                // Extra failures while open (e.g. a blocked forward still
                // retrying) re-arm the probe timer but do not re-count as
                // trips.
                inner.reopened_at = now;
                false
            }
        };
        drop(inner);
        if tripped {
            if let Some(stats) = &self.stats {
                stats.record_breaker_trip();
            }
        }
    }

    /// The state at `now`, lazily promoting Open → HalfOpen once the
    /// cooldown since the last (re-)open has elapsed.
    pub fn state(&self, now: Duration) -> BreakerState {
        let mut inner = self.inner.lock();
        if inner.state == BreakerState::Open && now >= inner.reopened_at + inner.cooldown {
            inner.state = BreakerState::HalfOpen;
            drop(inner);
            if let Some(stats) = &self.stats {
                stats.record_breaker_probe();
            }
            return BreakerState::HalfOpen;
        }
        inner.state
    }

    /// How long the current outage has lasted, or `None` when closed.
    /// Measured from the first trip of the episode, not the last re-open,
    /// so the degradation ladder advances monotonically during one
    /// outage.
    pub fn open_for(&self, now: Duration) -> Option<Duration> {
        let inner = self.inner.lock();
        inner.outage_since.map(|since| now.saturating_sub(since))
    }

    /// The integer EWMA (alpha = 1/8) of observed call latency.
    pub fn ewma_latency(&self) -> Duration {
        Duration::from_nanos(self.inner.lock().ewma_latency_nanos)
    }

    /// Total Closed → Open trips since creation.
    pub fn trips(&self) -> u64 {
        self.inner.lock().trips
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig::default())
    }

    #[test]
    fn stays_closed_below_threshold() {
        let b = breaker();
        b.on_failure(secs(1));
        b.on_failure(secs(2));
        assert_eq!(b.state(secs(3)), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
        assert!(b.open_for(secs(3)).is_none());
    }

    #[test]
    fn trips_at_threshold_and_half_opens_after_cooldown() {
        let b = breaker();
        for t in 1..=3 {
            b.on_failure(secs(t));
        }
        assert_eq!(b.state(secs(3)), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert_eq!(b.open_for(secs(10)), Some(secs(7)), "outage began at the trip (t=3)");
        // Cooldown is 5 s from the last failure at t=3.
        assert_eq!(b.state(secs(7)), BreakerState::Open);
        assert_eq!(b.state(secs(8)), BreakerState::HalfOpen);
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let b = breaker();
        b.on_failure(secs(1));
        b.on_failure(secs(2));
        b.on_success(secs(3), Duration::from_millis(10));
        b.on_failure(secs(4));
        b.on_failure(secs(5));
        assert_eq!(b.state(secs(6)), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_with_doubled_cooldown() {
        let b = breaker();
        for t in 1..=3 {
            b.on_failure(secs(t));
        }
        assert_eq!(b.state(secs(8)), BreakerState::HalfOpen);
        b.on_failure(secs(8));
        // Re-opened at t=8 with a 10 s cooldown now.
        assert_eq!(b.state(secs(17)), BreakerState::Open);
        assert_eq!(b.state(secs(18)), BreakerState::HalfOpen);
        // Still one trip — re-opens within an outage are not new trips —
        // and the outage is still measured from the first trip.
        assert_eq!(b.trips(), 1);
        assert_eq!(b.open_for(secs(18)), Some(secs(15)));
    }

    #[test]
    fn cooldown_is_capped() {
        let b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(40),
            cooldown_max: Duration::from_secs(60),
        });
        b.on_failure(secs(0));
        assert_eq!(b.state(secs(40)), BreakerState::HalfOpen);
        b.on_failure(secs(40));
        // Doubled 40 s is capped at 60 s.
        assert_eq!(b.state(secs(99)), BreakerState::Open);
        assert_eq!(b.state(secs(100)), BreakerState::HalfOpen);
    }

    #[test]
    fn successful_probe_closes_and_resets_cooldown() {
        let b = breaker();
        for t in 1..=3 {
            b.on_failure(secs(t));
        }
        assert_eq!(b.state(secs(8)), BreakerState::HalfOpen);
        b.on_failure(secs(8)); // cooldown now 10 s
        assert_eq!(b.state(secs(18)), BreakerState::HalfOpen);
        b.on_success(secs(18), Duration::from_millis(200));
        assert_eq!(b.state(secs(19)), BreakerState::Closed);
        assert!(b.open_for(secs(19)).is_none());
        // A fresh outage starts back at the initial 5 s cooldown.
        for t in 20..=22 {
            b.on_failure(secs(t));
        }
        assert_eq!(b.trips(), 2);
        assert_eq!(b.state(secs(26)), BreakerState::Open);
        assert_eq!(b.state(secs(27)), BreakerState::HalfOpen);
    }

    #[test]
    fn latency_ewma_converges() {
        let b = breaker();
        b.on_success(secs(1), Duration::from_millis(100));
        assert_eq!(b.ewma_latency(), Duration::from_millis(100));
        // Feed a long run of 900 ms samples: alpha=1/8 converges near it.
        for t in 2..60 {
            b.on_success(secs(t), Duration::from_millis(900));
        }
        let ewma = b.ewma_latency();
        assert!(ewma > Duration::from_millis(800), "ewma {ewma:?} should approach 900 ms");
        assert!(ewma <= Duration::from_millis(900));
    }

    #[test]
    fn stats_sink_sees_trips_heals_and_probes() {
        let stats = RpcStats::new();
        let b = CircuitBreaker::new(BreakerConfig::default()).with_stats(stats.clone());
        for t in 1..=3 {
            b.on_failure(secs(t));
        }
        let snap = stats.snapshot();
        assert_eq!(snap.breaker_trips(), 1);
        assert_eq!(snap.breakers_open(), 1);
        assert_eq!(b.state(secs(8)), BreakerState::HalfOpen);
        assert_eq!(stats.snapshot().breaker_probes(), 1);
        b.on_success(secs(8), Duration::from_millis(5));
        let snap = stats.snapshot();
        assert_eq!(snap.breakers_open(), 0);
        assert_eq!(snap.breaker_trips(), 1);
    }

    #[test]
    fn degraded_helper_matches_states() {
        assert!(!BreakerState::Closed.is_degraded());
        assert!(BreakerState::Open.is_degraded());
        assert!(BreakerState::HalfOpen.is_degraded());
    }
}
