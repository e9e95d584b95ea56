//! The experiment table: every paper figure, bench and ablation that
//! writes a committed result file.
//!
//! Each experiment builds its setups, runs the workload in a
//! virtual-time simulation, prints its tables to stdout, panics if one
//! of its built-in assertions fails, and returns the JSON document the
//! `gvfs-bench` runner writes to `results/<file>`.

mod ablations;
mod bench_peer;
mod bench_read;
mod bench_restart;
mod bench_scale;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;

use gvfs_core::ConsistencyModel;
use gvfs_netsim::link::LinkConfig;
use std::time::Duration;

/// One experiment: a name, the result file it regenerates and its run.
pub struct Experiment {
    /// Name on the `gvfs-bench` command line.
    pub name: &'static str,
    /// File under `results/` that `gvfs-bench gate` writes.
    pub file: &'static str,
    /// Runs the experiment (`true`: reduced workloads) and returns its
    /// result document.
    pub run: fn(bool) -> serde_json::Value,
}

/// Every experiment, in the order `gvfs-bench gate` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "fig4", file: "fig4.json", run: fig4::run },
    Experiment { name: "fig5", file: "fig5.json", run: fig5::run },
    Experiment { name: "fig6", file: "fig6.json", run: fig6::run },
    Experiment { name: "fig7", file: "fig7.json", run: fig7::run },
    Experiment { name: "fig8", file: "fig8.json", run: fig8::run },
    Experiment { name: "bench_read", file: "BENCH_read.json", run: bench_read::run },
    Experiment { name: "bench_restart", file: "BENCH_restart.json", run: bench_restart::run },
    Experiment { name: "bench_scale", file: "BENCH_scale.json", run: bench_scale::run },
    Experiment { name: "bench_peer", file: "BENCH_peer.json", run: bench_peer::run },
    Experiment { name: "ablations", file: "ablations.json", run: ablations::run },
];

/// The read-path WAN: 200 ms RTT at 100 Mbit/s, a long-fat link on
/// which round trips, not bandwidth, bound a cold read.
fn long_fat_link() -> LinkConfig {
    LinkConfig::wan().with_rtt(Duration::from_millis(200)).with_bandwidth_bps(100_000_000)
}

/// The read-path consistency model: invalidation polling every
/// 300 s with no back-off, far longer than any measured read phase.
fn quiet_polling() -> ConsistencyModel {
    ConsistencyModel::InvalidationPolling { period: Duration::from_secs(300), backoff_max: None }
}
