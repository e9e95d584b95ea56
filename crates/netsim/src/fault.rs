//! Seeded fault injection for simulated links.
//!
//! A [`FaultPlan`] describes, for one link direction, every fault the
//! chaos harness can inject: transient partition windows, probabilistic
//! message drop and duplication, and extra random jitter (which reorders
//! deliveries relative to program order). All randomness comes from one
//! `u64` seed expanded into a dedicated [`StdRng`],
//! and dice are rolled under the scheduler's serialization, so a given
//! plan replays the identical fate sequence on every run — any failure a
//! chaos run finds is reproducible from the seed alone.
//!
//! Plans are installed per direction with
//! [`Link::set_fault_plan`](crate::link::Link::set_fault_plan); the
//! transport reads the resulting [`Delivery`] fate and turns it into
//! protocol-visible behaviour (a dropped request or reply becomes an RPC
//! timeout, a duplicate becomes a re-executed call).

use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A half-open virtual-time window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First instant the window covers.
    pub start: SimTime,
    /// First instant past the window.
    pub end: SimTime,
}

impl Window {
    /// Builds a window covering `[start, end)`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        Window { start, end }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// A probabilistic per-message fault active within a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbWindow {
    /// When the fault is armed.
    pub window: Window,
    /// Per-message probability in `[0, 1]`.
    pub probability: f64,
}

/// Extra uniformly-random delivery latency within a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitterWindow {
    /// When the jitter is armed.
    pub window: Window,
    /// Upper bound on the extra latency (inclusive).
    pub max: Duration,
}

/// Everything that can go wrong on one link direction, derived from one
/// seed.
///
/// An empty plan (no windows) behaves exactly like an unfaulted link.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the direction's private RNG.
    pub seed: u64,
    /// Hard outage windows: sends fail as partitioned.
    pub partitions: Vec<Window>,
    /// Message-loss windows.
    pub drops: Vec<ProbWindow>,
    /// Message-duplication windows.
    pub duplicates: Vec<ProbWindow>,
    /// Extra-latency (reorder) windows.
    pub jitters: Vec<JitterWindow>,
}

impl FaultPlan {
    /// An empty plan seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Adds a partition window.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_partition(mut self, window: Window) -> Self {
        self.partitions.push(window);
        self
    }

    /// Adds a drop window with the given per-message probability.
    #[must_use]
    pub fn with_drop(mut self, window: Window, probability: f64) -> Self {
        self.drops.push(ProbWindow { window, probability });
        self
    }

    /// Adds a duplication window with the given per-message probability.
    #[must_use]
    pub fn with_duplicate(mut self, window: Window, probability: f64) -> Self {
        self.duplicates.push(ProbWindow { window, probability });
        self
    }

    /// Adds a jitter window with the given maximum extra latency.
    #[must_use]
    pub fn with_jitter(mut self, window: Window, max: Duration) -> Self {
        self.jitters.push(JitterWindow { window, max });
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
            && self.drops.is_empty()
            && self.duplicates.is_empty()
            && self.jitters.is_empty()
    }
}

/// The fate of one transfer under a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the message reaches the far end (includes any jitter).
    pub arrival: SimTime,
    /// The message was lost in flight (the pipe was still occupied).
    pub dropped: bool,
    /// The message arrives twice (models an ONC-RPC retransmission).
    pub duplicated: bool,
}

impl Delivery {
    /// An undisturbed delivery at `arrival`.
    pub fn clean(arrival: SimTime) -> Self {
        Delivery { arrival, dropped: false, duplicated: false }
    }
}

/// A plan plus its running RNG, owned by one link direction.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: StdRng,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        FaultState { plan, rng }
    }

    pub(crate) fn partitioned_at(&self, t: SimTime) -> bool {
        self.plan.partitions.iter().any(|w| w.contains(t))
    }

    /// Rolls the dice for one transfer sent at `t`. The draw order is
    /// fixed (drop, duplicate, jitter) and a die is only cast when a
    /// window covers `t`, so the fate sequence is a pure function of the
    /// plan and the send times.
    pub(crate) fn roll(&mut self, t: SimTime) -> (bool, bool, Duration) {
        let dropped = match self.plan.drops.iter().find(|p| p.window.contains(t)) {
            Some(p) => self.rng.gen_bool(p.probability),
            None => false,
        };
        let duplicated = match self.plan.duplicates.iter().find(|p| p.window.contains(t)) {
            Some(p) => self.rng.gen_bool(p.probability),
            None => false,
        };
        let jitter = match self.plan.jitters.iter().find(|j| j.window.contains(t)) {
            Some(j) if !j.max.is_zero() => {
                let bound = u64::try_from(j.max.as_nanos()).unwrap_or(u64::MAX);
                Duration::from_nanos(self.rng.gen_range(0..=bound))
            }
            _ => Duration::ZERO,
        };
        (dropped, duplicated, jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn win(start_ms: u64, end_ms: u64) -> Window {
        Window::new(SimTime::from_millis(start_ms), SimTime::from_millis(end_ms))
    }

    #[test]
    fn window_is_half_open() {
        let w = win(10, 20);
        assert!(!w.contains(SimTime::from_millis(9)));
        assert!(w.contains(SimTime::from_millis(10)));
        assert!(w.contains(SimTime::from_millis(19)));
        assert!(!w.contains(SimTime::from_millis(20)));
    }

    #[test]
    fn empty_plan_never_disturbs() {
        let mut state = FaultState::new(FaultPlan::new(7));
        for ms in 0..100 {
            let t = SimTime::from_millis(ms);
            assert!(!state.partitioned_at(t));
            assert_eq!(state.roll(t), (false, false, Duration::ZERO));
        }
    }

    #[test]
    fn partition_window_cuts_only_inside() {
        let state = FaultState::new(FaultPlan::new(1).with_partition(win(50, 60)));
        assert!(!state.partitioned_at(SimTime::from_millis(49)));
        assert!(state.partitioned_at(SimTime::from_millis(55)));
        assert!(!state.partitioned_at(SimTime::from_millis(60)));
    }

    #[test]
    fn certain_drop_always_drops_inside_window() {
        let mut state = FaultState::new(FaultPlan::new(3).with_drop(win(0, 100), 1.0));
        let (dropped, duplicated, _) = state.roll(SimTime::from_millis(5));
        assert!(dropped);
        assert!(!duplicated);
        let (dropped, _, _) = state.roll(SimTime::from_millis(500));
        assert!(!dropped, "outside the window nothing is lost");
    }

    #[test]
    fn same_seed_replays_identical_fates() {
        let plan = FaultPlan::new(99)
            .with_drop(win(0, 1000), 0.3)
            .with_duplicate(win(0, 1000), 0.2)
            .with_jitter(win(0, 1000), Duration::from_millis(5));
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        for ms in 0..200 {
            let t = SimTime::from_millis(ms);
            assert_eq!(a.roll(t), b.roll(t));
        }
    }

    #[test]
    fn jitter_bounded_by_max() {
        let max = Duration::from_millis(7);
        let mut state = FaultState::new(FaultPlan::new(11).with_jitter(win(0, 1000), max));
        for ms in 0..200 {
            let (_, _, jitter) = state.roll(SimTime::from_millis(ms));
            assert!(jitter <= max);
        }
    }
}
