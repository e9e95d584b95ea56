//! Simulated network links.
//!
//! A [`Link`] joins two endpoints with configurable one-way propagation
//! latency and bandwidth, mirroring the paper's NIST Net configuration
//! (40 ms RTT, 4 Mbit/s per client–server link). Each direction is
//! modelled independently (full duplex) with FIFO serialization: a
//! transfer occupies the directional pipe for `bytes × 8 ÷ bandwidth`
//! seconds starting no earlier than the previous transfer finished.
//!
//! Links can be [partitioned](Link::set_partitioned) to inject failures,
//! and each direction can carry a seeded
//! [`FaultPlan`] injecting probabilistic drop,
//! duplication, jitter and timed partition windows; [`LinkHalf::transfer`]
//! exposes the resulting [`Delivery`] fate to the transport.

use crate::fault::{Delivery, FaultPlan, FaultState};
use crate::time::SimTime;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a [`Link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// One-way propagation delay (half the RTT).
    pub one_way_latency: Duration,
    /// Bandwidth in bits per second; `None` means unlimited.
    pub bandwidth_bps: Option<u64>,
    /// Fixed per-message framing overhead in bytes (TCP/IP headers and
    /// the RPC record mark), charged against bandwidth.
    pub per_message_overhead: usize,
}

impl LinkConfig {
    /// A link shaped like the paper's emulated WAN: 40 ms RTT, 4 Mbit/s.
    pub fn wan() -> Self {
        LinkConfig {
            one_way_latency: Duration::from_millis(20),
            bandwidth_bps: Some(4_000_000),
            per_message_overhead: 68,
        }
    }

    /// A link shaped like the paper's 100 Mbit/s LAN (0.2 ms RTT).
    pub fn lan() -> Self {
        LinkConfig {
            one_way_latency: Duration::from_micros(100),
            bandwidth_bps: Some(100_000_000),
            per_message_overhead: 68,
        }
    }

    /// A loopback link between co-located processes (proxy ↔ kernel
    /// client on the same host): negligible latency, no bandwidth cap.
    pub fn loopback() -> Self {
        LinkConfig {
            one_way_latency: Duration::from_micros(15),
            bandwidth_bps: None,
            per_message_overhead: 0,
        }
    }

    /// Returns `self` with the round-trip time set to `rtt`
    /// (one-way latency = `rtt / 2`).
    pub fn with_rtt(mut self, rtt: Duration) -> Self {
        self.one_way_latency = rtt / 2;
        self
    }

    /// Returns `self` with the given bandwidth in bits per second.
    pub fn with_bandwidth_bps(mut self, bps: u64) -> Self {
        self.bandwidth_bps = Some(bps);
        self
    }
}

#[derive(Debug, Default)]
struct DirState {
    busy_until: SimTime,
    messages: u64,
    bytes: u64,
}

/// A bidirectional point-to-point link.
///
/// Obtain directional senders with [`Link::forward`] and [`Link::reverse`].
///
/// # Examples
///
/// ```
/// use gvfs_netsim::link::{Link, LinkConfig};
/// use gvfs_netsim::{Sim, now};
///
/// let link = Link::new(LinkConfig::wan());
/// let half = link.forward();
/// let sim = Sim::new();
/// sim.spawn("sender", move || {
///     let arrival = half.send(now(), 1000).unwrap();
///     // 20 ms propagation + (1068 bytes * 8) / 4 Mbit/s ≈ 2.1 ms
///     assert!(arrival.as_secs_f64() > 0.020);
/// });
/// sim.run();
/// ```
#[derive(Debug)]
pub struct Link {
    config: LinkConfig,
    partitioned: AtomicBool,
    ab: Mutex<DirState>,
    ba: Mutex<DirState>,
    fault_ab: Mutex<Option<FaultState>>,
    fault_ba: Mutex<Option<FaultState>>,
}

/// Error returned when sending over a partitioned link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioned;

impl std::fmt::Display for Partitioned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "link is partitioned")
    }
}

impl std::error::Error for Partitioned {}

impl Link {
    /// Creates a link with the given configuration.
    pub fn new(config: LinkConfig) -> Arc<Self> {
        Arc::new(Link {
            config,
            partitioned: AtomicBool::new(false),
            ab: Mutex::new(DirState::default()),
            ba: Mutex::new(DirState::default()),
            fault_ab: Mutex::new(None),
            fault_ba: Mutex::new(None),
        })
    }

    /// The sender for the A→B direction.
    pub fn forward(self: &Arc<Self>) -> LinkHalf {
        LinkHalf { link: Arc::clone(self), forward: true }
    }

    /// The sender for the B→A direction.
    pub fn reverse(self: &Arc<Self>) -> LinkHalf {
        LinkHalf { link: Arc::clone(self), forward: false }
    }

    /// Cuts or heals the link. While partitioned, sends in both
    /// directions fail with [`Partitioned`].
    pub fn set_partitioned(&self, partitioned: bool) {
        self.partitioned.store(partitioned, Ordering::SeqCst);
    }

    /// Whether the link is currently partitioned.
    pub fn is_partitioned(&self) -> bool {
        self.partitioned.load(Ordering::SeqCst)
    }

    /// Total messages and bytes sent in both directions.
    pub fn traffic(&self) -> (u64, u64) {
        let ab = self.ab.lock();
        let ba = self.ba.lock();
        (ab.messages + ba.messages, ab.bytes + ba.bytes)
    }

    /// Installs (or, with `None`, clears) the fault plan for one
    /// direction (`forward` = A→B). Installing a plan reseeds its RNG,
    /// so re-installing the same plan replays the same fate sequence.
    pub fn set_fault_plan(&self, forward: bool, plan: Option<FaultPlan>) {
        let slot = if forward { &self.fault_ab } else { &self.fault_ba };
        *slot.lock() = plan.map(FaultState::new);
    }

    /// Clears the fault plans of both directions (the link heals).
    pub fn clear_fault_plans(&self) {
        *self.fault_ab.lock() = None;
        *self.fault_ba.lock() = None;
    }

    fn send_dir(&self, forward: bool, now: SimTime, bytes: usize) -> Result<SimTime, Partitioned> {
        self.transfer_dir(forward, now, bytes).map(|d| d.arrival)
    }

    fn transfer_dir(
        &self,
        forward: bool,
        now: SimTime,
        bytes: usize,
    ) -> Result<Delivery, Partitioned> {
        if self.is_partitioned() {
            return Err(Partitioned);
        }
        let (dropped, duplicated, jitter) = {
            let mut fault = if forward { self.fault_ab.lock() } else { self.fault_ba.lock() };
            match fault.as_mut() {
                Some(state) if state.partitioned_at(now) => return Err(Partitioned),
                Some(state) => state.roll(now),
                None => (false, false, Duration::ZERO),
            }
        };
        let config = self.config;
        let total = bytes + config.per_message_overhead;
        let serialization = match config.bandwidth_bps {
            Some(bps) => {
                let nanos = (total as u128 * 8 * 1_000_000_000) / bps as u128;
                Duration::from_nanos(u64::try_from(nanos).expect("transfer time overflow"))
            }
            None => Duration::ZERO,
        };
        let mut dir = if forward { self.ab.lock() } else { self.ba.lock() };
        let start = now.max(dir.busy_until);
        dir.busy_until = start + serialization;
        dir.messages += 1;
        dir.bytes += total as u64;
        // A lost message still occupied the pipe: loss happens in flight.
        Ok(Delivery {
            arrival: dir.busy_until + config.one_way_latency + jitter,
            dropped,
            duplicated,
        })
    }
}

/// One direction of a [`Link`].
#[derive(Debug, Clone)]
pub struct LinkHalf {
    link: Arc<Link>,
    forward: bool,
}

impl LinkHalf {
    /// Sends `bytes` at virtual time `now`; returns the arrival time at
    /// the far end.
    ///
    /// # Errors
    ///
    /// Returns [`Partitioned`] if the link is cut.
    pub fn send(&self, now: SimTime, bytes: usize) -> Result<SimTime, Partitioned> {
        self.link.send_dir(self.forward, now, bytes)
    }

    /// Sends `bytes` under the direction's fault plan, exposing the full
    /// [`Delivery`] fate (arrival time, dropped, duplicated) instead of
    /// the arrival time alone.
    ///
    /// # Errors
    ///
    /// Returns [`Partitioned`] if the link is cut, globally or by a
    /// fault-plan partition window covering `now`.
    pub fn transfer(&self, now: SimTime, bytes: usize) -> Result<Delivery, Partitioned> {
        self.link.transfer_dir(self.forward, now, bytes)
    }

    /// Like [`LinkHalf::transfer`] in the opposite direction (replies).
    ///
    /// # Errors
    ///
    /// As for [`LinkHalf::transfer`].
    pub fn transfer_reverse(&self, now: SimTime, bytes: usize) -> Result<Delivery, Partitioned> {
        self.link.transfer_dir(!self.forward, now, bytes)
    }

    /// The underlying link.
    pub fn link(&self) -> &Arc<Link> {
        &self.link
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_overhead(mut c: LinkConfig) -> LinkConfig {
        c.per_message_overhead = 0;
        c
    }

    #[test]
    fn latency_only_transfer() {
        let link = Link::new(no_overhead(LinkConfig {
            one_way_latency: Duration::from_millis(20),
            bandwidth_bps: None,
            per_message_overhead: 0,
        }));
        let arrival = link.forward().send(SimTime::ZERO, 10_000).unwrap();
        assert_eq!(arrival, SimTime::from_millis(20));
    }

    #[test]
    fn bandwidth_adds_serialization_delay() {
        // 1 Mbit/s, 1250 bytes = 10_000 bits = 10 ms serialization.
        let link = Link::new(no_overhead(LinkConfig {
            one_way_latency: Duration::from_millis(5),
            bandwidth_bps: Some(1_000_000),
            per_message_overhead: 0,
        }));
        let arrival = link.forward().send(SimTime::ZERO, 1250).unwrap();
        assert_eq!(arrival, SimTime::from_millis(15));
    }

    #[test]
    fn back_to_back_sends_queue_on_the_pipe() {
        let link = Link::new(no_overhead(LinkConfig {
            one_way_latency: Duration::from_millis(5),
            bandwidth_bps: Some(1_000_000),
            per_message_overhead: 0,
        }));
        let h = link.forward();
        let first = h.send(SimTime::ZERO, 1250).unwrap();
        let second = h.send(SimTime::ZERO, 1250).unwrap();
        assert_eq!(first, SimTime::from_millis(15));
        assert_eq!(second, SimTime::from_millis(25)); // waits for the pipe
    }

    #[test]
    fn directions_are_independent() {
        let link = Link::new(no_overhead(LinkConfig {
            one_way_latency: Duration::from_millis(5),
            bandwidth_bps: Some(1_000_000),
            per_message_overhead: 0,
        }));
        let fwd = link.forward().send(SimTime::ZERO, 1250).unwrap();
        let rev = link.reverse().send(SimTime::ZERO, 1250).unwrap();
        assert_eq!(fwd, rev); // no shared occupancy
    }

    #[test]
    fn partition_blocks_both_directions() {
        let link = Link::new(LinkConfig::wan());
        link.set_partitioned(true);
        assert_eq!(link.forward().send(SimTime::ZERO, 1).unwrap_err(), Partitioned);
        assert_eq!(link.reverse().send(SimTime::ZERO, 1).unwrap_err(), Partitioned);
        link.set_partitioned(false);
        assert!(link.forward().send(SimTime::ZERO, 1).is_ok());
    }

    #[test]
    fn overhead_is_charged() {
        let link = Link::new(LinkConfig {
            one_way_latency: Duration::ZERO,
            bandwidth_bps: Some(8_000), // 1000 bytes/s
            per_message_overhead: 100,
        });
        // 0 payload bytes + 100 overhead = 100 bytes = 100 ms at 1000 B/s.
        let arrival = link.forward().send(SimTime::ZERO, 0).unwrap();
        assert_eq!(arrival, SimTime::from_millis(100));
    }

    #[test]
    fn traffic_counters_accumulate() {
        let link = Link::new(no_overhead(LinkConfig::lan()));
        link.forward().send(SimTime::ZERO, 100).unwrap();
        link.reverse().send(SimTime::ZERO, 50).unwrap();
        assert_eq!(link.traffic(), (2, 150));
    }

    #[test]
    fn send_reverse_uses_opposite_pipe() {
        let link = Link::new(no_overhead(LinkConfig {
            one_way_latency: Duration::ZERO,
            bandwidth_bps: Some(1_000_000),
            per_message_overhead: 0,
        }));
        link.forward().send(SimTime::ZERO, 1250).unwrap();
        // Reply path must not be delayed by the forward transfer.
        let back = link.reverse().send(SimTime::ZERO, 1250).unwrap();
        assert_eq!(back, SimTime::from_millis(10));
    }

    #[test]
    fn fault_plan_partition_window_cuts_one_direction() {
        use crate::fault::{FaultPlan, Window};
        let link = Link::new(no_overhead(LinkConfig::lan()));
        let window = Window::new(SimTime::from_millis(10), SimTime::from_millis(20));
        link.set_fault_plan(true, Some(FaultPlan::new(1).with_partition(window)));
        assert!(link.forward().send(SimTime::from_millis(5), 1).is_ok());
        assert_eq!(link.forward().send(SimTime::from_millis(15), 1).unwrap_err(), Partitioned);
        // The reverse direction carries no plan and stays healthy.
        assert!(link.reverse().send(SimTime::from_millis(15), 1).is_ok());
        assert!(link.forward().send(SimTime::from_millis(25), 1).is_ok());
        link.clear_fault_plans();
        assert!(link.forward().send(SimTime::from_millis(15), 1).is_ok());
    }

    #[test]
    fn certain_drop_marks_delivery_and_still_charges_pipe() {
        use crate::fault::{FaultPlan, Window};
        let link = Link::new(no_overhead(LinkConfig {
            one_way_latency: Duration::from_millis(5),
            bandwidth_bps: Some(1_000_000),
            per_message_overhead: 0,
        }));
        let window = Window::new(SimTime::ZERO, SimTime::from_secs(1));
        link.set_fault_plan(true, Some(FaultPlan::new(2).with_drop(window, 1.0)));
        let d = link.forward().transfer(SimTime::ZERO, 1250).unwrap();
        assert!(d.dropped);
        assert_eq!(d.arrival, SimTime::from_millis(15));
        // The lost transfer occupied the pipe: the next one queues.
        let d2 = link.forward().transfer(SimTime::ZERO, 1250).unwrap();
        assert_eq!(d2.arrival, SimTime::from_millis(25));
        assert_eq!(link.traffic().0, 2);
    }

    #[test]
    fn fault_plan_replays_identically_after_reinstall() {
        use crate::fault::{FaultPlan, Window};
        let plan = FaultPlan::new(42)
            .with_drop(Window::new(SimTime::ZERO, SimTime::from_secs(10)), 0.5)
            .with_jitter(
                Window::new(SimTime::ZERO, SimTime::from_secs(10)),
                Duration::from_millis(3),
            );
        let run = |plan: FaultPlan| {
            let link = Link::new(no_overhead(LinkConfig::lan()));
            link.set_fault_plan(true, Some(plan));
            (0..50)
                .map(|ms| link.forward().transfer(SimTime::from_millis(ms), 100).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(plan.clone()), run(plan));
    }

    #[test]
    fn presets_have_expected_rtt() {
        assert_eq!(LinkConfig::wan().one_way_latency, Duration::from_millis(20));
        let cfg = LinkConfig::wan().with_rtt(Duration::from_millis(10));
        assert_eq!(cfg.one_way_latency, Duration::from_millis(5));
    }
}
