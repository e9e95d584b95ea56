//! Deterministic virtual-time simulation of wide-area networks.
//!
//! The paper evaluates GVFS on a physical testbed: VMware VMs connected
//! through a [NIST Net] WAN emulator configured with a 40 ms round-trip
//! time and 4 Mbit/s of bandwidth per client–server link. This crate is
//! the in-process substitute: protocol stacks run unmodified over
//! simulated links, and *time is virtual* — an experiment that takes
//! 800 seconds of emulated WAN traffic completes in milliseconds of real
//! time, fully deterministically.
//!
//! # Model
//!
//! * A [`Sim`] hosts a set of **actors** — logical threads, run on a pool
//!   of reused OS threads, whose progress through virtual time is
//!   serialized by a conservative discrete-event scheduler: only the actor with the globally minimum local clock runs
//!   at any instant (ties broken by spawn order), so every run of a given
//!   program produces the identical event order.
//! * Actors advance their clock explicitly: [`sleep`], [`advance_to`], or
//!   implicitly by performing RPC over a [`Link`](link::Link), which
//!   charges propagation latency, serialization (bytes ÷ bandwidth) and
//!   link occupancy.
//! * [`park`]/[`ActorHandle::unpark`] let actors wait on conditions
//!   instead of time (e.g. a write-back flusher waiting for dirty blocks).
//! * [`transport::SimRpcClient`] carries real, byte-accurate ONC RPC
//!   messages across a link to a [`transport::ServerNode`] and executes
//!   the server's dispatch inline, nested calls included.
//! * Failure injection: links can be [partitioned](link::Link::set_partitioned),
//!   server nodes taken [down](transport::ServerNode::set_up), and each
//!   link direction can carry a seeded [`fault::FaultPlan`] injecting
//!   probabilistic drop, duplication, jitter and timed partition windows
//!   — all reproducible from one `u64` seed.
//!
//! # Examples
//!
//! ```
//! use gvfs_netsim::{Sim, now, sleep};
//! use std::time::Duration;
//!
//! let sim = Sim::new();
//! let order = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
//! for (name, delay_ms) in [("late", 20u64), ("early", 10)] {
//!     let order = order.clone();
//!     sim.spawn(name, move || {
//!         sleep(Duration::from_millis(delay_ms));
//!         order.lock().push((name, now()));
//!     });
//! }
//! sim.run();
//! let order = order.lock();
//! assert_eq!(order[0].0, "early"); // virtual time, not spawn order
//! assert_eq!(order[1].1.as_nanos(), 20_000_000);
//! ```
//!
//! [NIST Net]: https://en.wikipedia.org/wiki/NIST_Net

pub mod disk;
pub mod fault;
pub mod link;
pub mod transport;

mod sched;
mod time;

pub use sched::{
    advance_to, current_actor, in_actor, now, park, park_timeout, sleep, spawn_from_actor,
    ActorHandle, Sim,
};
pub use time::SimTime;
