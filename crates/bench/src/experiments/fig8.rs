//! Figure 8: the CH1D coastal-modelling pipeline.
//!
//! A producer adds 30 input files per run; the consumer re-processes
//! the full accumulated set each run, 15 runs. On native NFS the
//! consumer's consistency checking grows linearly with the dataset;
//! GVFS with delegation/callback keeps it nearly constant (~30
//! callbacks per run).

use crate::{callback_calls, print_table, rpc_meta};
use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::session::{NativeMount, Session, SessionConfig};
use gvfs_core::ConsistencyModel;
use gvfs_netsim::link::LinkConfig;
use gvfs_netsim::Sim;
use gvfs_rpc::stats::RpcStats;
use gvfs_vfs::Vfs;
use gvfs_workloads::ch1d::{self, Ch1dConfig};
use parking_lot::Mutex;
use std::sync::Arc;

struct Outcome {
    runtimes: Vec<f64>,
    callbacks_per_run: Vec<f64>,
    rpc: serde_json::Value,
}

fn run_one(gvfs: bool, config: &Ch1dConfig) -> Outcome {
    let sim = Sim::new();
    let vfs = Arc::new(Vfs::new());
    ch1d::populate(&vfs);

    let out = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    let cfg = config.clone();

    if gvfs {
        let session_config = SessionConfig {
            model: ConsistencyModel::delegation(),
            write_back: true,
            ..SessionConfig::default()
        };
        let session = Session::builder(session_config)
            .clients(2)
            .wan(LinkConfig::wan())
            .vfs(vfs)
            .establish(&sim);
        let (tp, tc) = (session.client_transport(0), session.client_transport(1));
        let root = session.root_fh();
        let stats: RpcStats = session.wan_stats().clone();
        let handle = session.handle();
        sim.spawn("pipeline", move || {
            let producer = NfsClient::new(tp, root, MountOptions::noac());
            let consumer = NfsClient::new(tc, root, MountOptions::noac());
            let mut runtimes = Vec::new();
            let mut callbacks = Vec::new();
            let mut last = stats.snapshot();
            for run in 0..cfg.runs {
                ch1d::produce_run(&producer, &cfg, run);
                let runtime = ch1d::consume_run(&consumer, &cfg, run);
                let snap = stats.snapshot();
                callbacks.push(callback_calls(&snap.since(&last)) as f64);
                last = snap;
                runtimes.push(runtime.as_secs_f64());
            }
            handle.shutdown();
            *o2.lock() = Some(Outcome {
                runtimes,
                callbacks_per_run: callbacks,
                rpc: rpc_meta(&stats.snapshot()),
            });
        });
    } else {
        let native = NativeMount::establish(2, LinkConfig::wan(), Some(vfs));
        let (tp, tc) = (native.client_transport(0), native.client_transport(1));
        let root = native.root_fh();
        let stats: RpcStats = native.stats().clone();
        sim.spawn("pipeline", move || {
            let producer = NfsClient::new(tp, root, MountOptions::default());
            let consumer = NfsClient::new(tc, root, MountOptions::default());
            let runtimes = ch1d::run_pipeline(&producer, &consumer, &cfg)
                .into_iter()
                .map(|d| d.as_secs_f64())
                .collect();
            *o2.lock() = Some(Outcome {
                runtimes,
                callbacks_per_run: Vec::new(),
                rpc: rpc_meta(&stats.snapshot()),
            });
        });
    }
    sim.run();
    let outcome = out.lock().take().expect("outcome");
    outcome
}

pub fn run(small: bool) -> serde_json::Value {
    let config = if small { Ch1dConfig::small() } else { Ch1dConfig::default() };

    let nfs = run_one(false, &config);
    let gvfs = run_one(true, &config);

    let rows: Vec<Vec<String>> = (0..config.runs)
        .map(|r| {
            vec![
                (r + 1).to_string(),
                format!("{:.1}", nfs.runtimes[r]),
                format!("{:.1}", gvfs.runtimes[r]),
                format!("{:.0}", gvfs.callbacks_per_run.get(r).copied().unwrap_or(0.0)),
            ]
        })
        .collect();
    print_table(
        "Figure 8: CH1D consumer runtime per run (seconds)",
        &["run", "NFS", "GVFS-cb", "callbacks"],
        &rows,
    );

    let last = config.runs - 1;
    println!(
        "\nRun {} speedup GVFS vs NFS: {:.1}x (paper: ~5x); NFS growth {:.1}s -> {:.1}s",
        config.runs,
        nfs.runtimes[last] / gvfs.runtimes[last],
        nfs.runtimes[0],
        nfs.runtimes[last],
    );

    serde_json::json!({
        "experiment": "fig8-ch1d",
        "runs": config.runs,
        "files_per_run": config.files_per_run,
        "nfs_runtimes_s": nfs.runtimes,
        "gvfs_runtimes_s": gvfs.runtimes,
        "gvfs_callbacks_per_run": gvfs.callbacks_per_run,
        "nfs_rpc": nfs.rpc,
        "gvfs_rpc": gvfs.rpc,
        "final_speedup": nfs.runtimes[last] / gvfs.runtimes[last],
    })
}
