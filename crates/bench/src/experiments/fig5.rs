//! Figure 5: PostMark runtime vs network round-trip time.
//!
//! Three setups — native NFS, GVFS with the default kernel buffer setup
//! (GVFS1, invalidation polling overlaid), and GVFS with kernel
//! attribute caching disabled (GVFS2, the base for strong consistency
//! via delegation/callback) — across RTTs of 0.5, 5, 10, 20 and 40 ms
//! at 4 Mbit/s.

use crate::{print_table, rpc_meta};
use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::session::{NativeMount, Session, SessionConfig};
use gvfs_core::ConsistencyModel;
use gvfs_netsim::link::LinkConfig;
use gvfs_netsim::Sim;
use gvfs_workloads::postmark::{self, PostmarkConfig};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Setup {
    Nfs,
    Gvfs1,
    Gvfs2,
}

impl Setup {
    fn name(self) -> &'static str {
        match self {
            Setup::Nfs => "NFS",
            Setup::Gvfs1 => "GVFS1",
            Setup::Gvfs2 => "GVFS2",
        }
    }
}

fn run_one(setup: Setup, rtt_ms: f64, config: &PostmarkConfig) -> (Duration, serde_json::Value) {
    // Figure 5 varies only the end-to-end latency (NIST Net delay
    // emulation on the testbed LAN); bandwidth stays at 100 Mbit/s.
    let link = LinkConfig::lan().with_rtt(Duration::from_micros((rtt_ms * 1000.0) as u64));
    let sim = Sim::new();
    let result = Arc::new(Mutex::new(None));
    let r2 = Arc::clone(&result);
    let cfg = config.clone();
    let stats = match setup {
        Setup::Nfs => {
            let native = NativeMount::establish(1, link, None);
            let (t, root) = (native.client_transport(0), native.root_fh());
            sim.spawn("postmark", move || {
                let client = NfsClient::new(t, root, MountOptions::default());
                *r2.lock() = Some(postmark::run(&client, &cfg).runtime);
            });
            native.stats().clone()
        }
        Setup::Gvfs1 | Setup::Gvfs2 => {
            let session_config = SessionConfig {
                model: if setup == Setup::Gvfs1 {
                    ConsistencyModel::polling_30s()
                } else {
                    ConsistencyModel::delegation()
                },
                ..SessionConfig::default()
            };
            let session = Session::builder(session_config).clients(1).wan(link).establish(&sim);
            let (t, root) = (session.client_transport(0), session.root_fh());
            let handle = session.handle();
            let mount =
                if setup == Setup::Gvfs1 { MountOptions::default() } else { MountOptions::noac() };
            let stats = session.wan_stats().clone();
            sim.spawn("postmark", move || {
                let client = NfsClient::new(t, root, mount);
                let report = postmark::run(&client, &cfg);
                handle.shutdown();
                *r2.lock() = Some(report.runtime);
            });
            stats
        }
    };
    sim.run();
    let out = result.lock().take().expect("runtime");
    (out, rpc_meta(&stats.snapshot()))
}

pub fn run(small: bool) -> serde_json::Value {
    let config = if small { PostmarkConfig::small() } else { PostmarkConfig::default() };
    let rtts = [0.5f64, 5.0, 10.0, 20.0, 40.0];
    let setups = [Setup::Nfs, Setup::Gvfs1, Setup::Gvfs2];

    let mut rows = Vec::new();
    let mut series = Vec::new();
    for setup in setups {
        let mut row = vec![setup.name().to_string()];
        let mut points = Vec::new();
        for &rtt in &rtts {
            let (runtime, rpc) = run_one(setup, rtt, &config);
            row.push(format!("{:.1}", runtime.as_secs_f64()));
            points.push(serde_json::json!({
                "rtt_ms": rtt,
                "runtime_s": runtime.as_secs_f64(),
                "rpc": rpc,
            }));
            eprintln!("  [{} @ {rtt} ms: {:.1}s]", setup.name(), runtime.as_secs_f64());
        }
        rows.push(row);
        series.push(serde_json::json!({ "setup": setup.name(), "points": points }));
    }

    print_table(
        "Figure 5: PostMark runtime (seconds) vs RTT (ms)",
        &["setup", "0.5", "5", "10", "20", "40"],
        &rows,
    );

    serde_json::json!({
        "experiment": "fig5-postmark",
        "config": {
            "files": config.files, "transactions": config.transactions,
            "min_size": config.min_size, "max_size": config.max_size,
            "subdirs": config.subdirs,
        },
        "series": series,
    })
}
