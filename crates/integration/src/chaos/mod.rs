//! `gvfs-chaos`: the deterministic chaos harness.
//!
//! One `u64` seed expands into a fault plan ([`plan`]), a scenario
//! driver runs a randomized multi-client workload under it on the
//! virtual-time simulator ([`driver`]), per-model oracles judge the
//! recorded history ([`oracle`]), and a shrinker bisects any violating
//! plan to a minimal reproducer ([`shrink`]). The scripted scenarios
//! ([`scenario`]) lay out one fault timeline each. The randomized
//! driver and every scripted scenario are built on one run harness
//! ([`harness`]) and return one report type, [`ChaosReport`].
//! Determinism is end to end: the same seed reproduces the identical
//! event trace, verdict, and [`ChaosReport::trace_hash`] on every run.

pub mod driver;
pub mod harness;
pub mod history;
pub mod oracle;
pub mod plan;
pub mod scenario;
pub mod shrink;

pub use driver::{run_scenario, run_with_events, ModelKind, ScenarioConfig};
pub use harness::{ChaosReport, Extras};
pub use history::{Event, History, Observation};
pub use oracle::{Violation, ViolationKind};
pub use plan::{compile_fault_plans, generate_events, FaultEvent};
pub use scenario::{
    run_crash_restart, run_disk_corruption, run_partition_heal, run_peer_partition,
};
pub use shrink::{format_reproducer, shrink_failure, Shrunk};
