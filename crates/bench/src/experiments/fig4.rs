//! Figure 4: the Make benchmark.
//!
//! (a) RPCs transferred over the network and (b) runtimes, for native
//! NFS, GVFS with read-only caching, and GVFS with write-back caching,
//! on LAN and WAN. Also prints the §5.1.1 LAN interception-overhead
//! numbers (E8).

use crate::{print_table, rpc_meta, RpcBreakdown};
use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::session::{NativeMount, Session, SessionConfig};
use gvfs_core::ConsistencyModel;
use gvfs_netsim::link::LinkConfig;
use gvfs_netsim::Sim;
use gvfs_rpc::stats::RpcStats;
use gvfs_vfs::Vfs;
use gvfs_workloads::make::{self, MakeConfig};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Setup {
    Nfs,
    Gvfs,
    GvfsWb,
}

impl Setup {
    fn name(self) -> &'static str {
        match self {
            Setup::Nfs => "NFS",
            Setup::Gvfs => "GVFS",
            Setup::GvfsWb => "GVFS-WB",
        }
    }
}

struct Outcome {
    runtime: Duration,
    rpcs: RpcBreakdown,
    rpc: serde_json::Value,
    /// Proxy read-path counters (absent for native NFS, which has no proxy).
    read_path: serde_json::Value,
}

fn run_one(setup: Setup, link: LinkConfig, config: &MakeConfig) -> Outcome {
    let vfs = Arc::new(Vfs::new());
    make::populate(&vfs, config);
    let sim = Sim::new();
    let result = Arc::new(Mutex::new(None));

    let (transport, root, stats): (_, _, RpcStats) = match setup {
        Setup::Nfs => {
            let native = NativeMount::establish(1, link, Some(vfs));
            (native.client_transport(0), native.root_fh(), native.stats().clone())
        }
        Setup::Gvfs | Setup::GvfsWb => {
            let session_config = SessionConfig {
                model: ConsistencyModel::polling_30s(),
                write_back: setup == Setup::GvfsWb,
                ..SessionConfig::default()
            };
            let session =
                Session::builder(session_config).clients(1).wan(link).vfs(vfs).establish(&sim);
            let t = session.client_transport(0);
            let root = session.root_fh();
            let stats = session.wan_stats().clone();
            let handle = session.handle();
            let r2 = Arc::clone(&result);
            let cfg = config.clone();
            sim.spawn("builder", move || {
                let client = NfsClient::new(t, root, MountOptions::default());
                let report = make::run(&client, &cfg);
                // Unmount at the end of the session: flush delayed writes
                // (charged to the build, as unmounting would be).
                handle.shutdown();
                *r2.lock() = Some(report);
            });
            sim.run();
            let report = result.lock().take().expect("report");
            let snap = stats.snapshot();
            return Outcome {
                runtime: report.runtime,
                rpcs: RpcBreakdown::from_snapshot(&snap),
                rpc: rpc_meta(&snap),
                read_path: crate::read_path_json(&session.proxy_client(0).stats()),
            };
        }
    };

    let r2 = Arc::clone(&result);
    let cfg = config.clone();
    sim.spawn("builder", move || {
        let client = NfsClient::new(transport, root, MountOptions::default());
        *r2.lock() = Some(make::run(&client, &cfg));
    });
    sim.run();
    let report = result.lock().take().expect("report");
    let snap = stats.snapshot();
    Outcome {
        runtime: report.runtime,
        rpcs: RpcBreakdown::from_snapshot(&snap),
        rpc: rpc_meta(&snap),
        read_path: serde_json::Value::Null,
    }
}

pub fn run(small: bool) -> serde_json::Value {
    let config = if small { MakeConfig::small() } else { MakeConfig::default() };
    let setups = [Setup::Nfs, Setup::Gvfs, Setup::GvfsWb];

    // --- Figure 4(a): WAN RPC counts ---
    let mut wan_outcomes = Vec::new();
    for setup in setups {
        wan_outcomes.push((setup, run_one(setup, LinkConfig::wan(), &config)));
    }
    let rows: Vec<Vec<String>> = wan_outcomes
        .iter()
        .map(|(s, o)| {
            vec![
                s.name().to_string(),
                o.rpcs.getattr.to_string(),
                o.rpcs.lookup.to_string(),
                o.rpcs.read.to_string(),
                o.rpcs.write.to_string(),
                o.rpcs.getinv.to_string(),
                o.rpcs.other.to_string(),
                o.rpcs.total().to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 4(a): Make — RPCs over the WAN",
        &["setup", "GETATTR", "LOOKUP", "READ", "WRITE", "GETINV", "other", "total"],
        &rows,
    );

    // --- Figure 4(b): runtimes LAN and WAN ---
    let mut lan_outcomes = Vec::new();
    for setup in setups {
        lan_outcomes.push((setup, run_one(setup, LinkConfig::lan(), &config)));
    }
    let rows: Vec<Vec<String>> = setups
        .iter()
        .enumerate()
        .map(|(i, s)| {
            vec![
                s.name().to_string(),
                format!("{:.1}", lan_outcomes[i].1.runtime.as_secs_f64()),
                format!("{:.1}", wan_outcomes[i].1.runtime.as_secs_f64()),
            ]
        })
        .collect();
    print_table("Figure 4(b): Make — runtime (seconds)", &["setup", "LAN", "WAN"], &rows);

    let nfs_wan = wan_outcomes[0].1.runtime.as_secs_f64();
    let gvfs_wan = wan_outcomes[1].1.runtime.as_secs_f64();
    println!("\nWAN speedup GVFS vs NFS: {:.2}x", nfs_wan / gvfs_wan);

    // --- §5.1.1 LAN overhead (E8) ---
    let nfs_lan = lan_outcomes[0].1.runtime.as_secs_f64();
    let overhead_ro = (lan_outcomes[1].1.runtime.as_secs_f64() / nfs_lan - 1.0) * 100.0;
    let overhead_wb = (lan_outcomes[2].1.runtime.as_secs_f64() / nfs_lan - 1.0) * 100.0;
    println!(
        "LAN interception overhead: GVFS {overhead_ro:+.1}%  GVFS-WB {overhead_wb:+.1}%  (paper: 4% / 8%)"
    );

    serde_json::json!({
        "experiment": "fig4-make",
        "config": { "sources": config.sources, "headers": config.headers, "objects": config.objects },
        "wan": wan_outcomes.iter().map(|(s, o)| serde_json::json!({
            "setup": s.name(),
            "runtime_s": o.runtime.as_secs_f64(),
            "rpcs": o.rpcs.to_json(),
            "rpc": o.rpc,
            "read_path": o.read_path,
        })).collect::<Vec<_>>(),
        "lan": lan_outcomes.iter().map(|(s, o)| serde_json::json!({
            "setup": s.name(),
            "runtime_s": o.runtime.as_secs_f64(),
        })).collect::<Vec<_>>(),
        "wan_speedup_gvfs_vs_nfs": nfs_wan / gvfs_wan,
        "lan_overhead_pct": { "gvfs": overhead_ro, "gvfs_wb": overhead_wb },
    })
}
