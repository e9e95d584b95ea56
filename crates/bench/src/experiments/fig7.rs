//! Figure 7: parallel NanoMOS on a wide-area software repository.
//!
//! Six WAN clients run eight iterations; between runs four and five a
//! LAN administrator updates (a) the entire MATLAB tree or (b) only the
//! MPITB toolbox. Native NFS re-checks consistency per file; GVFS with
//! invalidation polling learns about the update in a handful of GETINV
//! batches proportional to the update's size.

use crate::{getinv_calls, nfs_calls, print_table, rpc_meta};
use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::session::{NativeMount, Session, SessionConfig};
use gvfs_core::ConsistencyModel;
use gvfs_netsim::link::LinkConfig;
use gvfs_netsim::transport::SimRpcClient;
use gvfs_netsim::Sim;
use gvfs_nfs3::proc3;
use gvfs_rpc::stats::RpcStats;
use gvfs_vfs::Vfs;
use gvfs_workloads::nanomos::{self, NanomosConfig, UpdateScope};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const COMPUTE_CLIENTS: usize = 6;

struct Outcome {
    /// Mean per-iteration runtime across clients, per iteration.
    runtimes: Vec<f64>,
    /// GETINV calls per client during the update window (GVFS only).
    getinv_for_update: f64,
    /// GETATTR calls per client per run (steady state).
    getattr_per_client_run: f64,
    /// Channel metadata (pipelining high-water mark, latencies).
    rpc: serde_json::Value,
    /// Proxy read-path counters (absent for native NFS).
    read_path: serde_json::Value,
}

fn run_one(gvfs: bool, scope: UpdateScope, config: &NanomosConfig) -> Outcome {
    let sim = Sim::new();
    let vfs = Arc::new(Vfs::new());
    nanomos::populate(&vfs, config);

    // Six WAN compute clients plus one LAN administrator.
    let mut links = vec![LinkConfig::wan(); COMPUTE_CLIENTS];
    links.push(LinkConfig::lan());

    let mut gvfs_session = None;
    let (transports, root, stats, handle): (Vec<SimRpcClient>, _, RpcStats, _) = if gvfs {
        let session_config = SessionConfig {
            model: ConsistencyModel::polling_30s(),
            invalidation_buffer: 32 * 1024,
            ..SessionConfig::default()
        };
        let session = Session::builder(session_config).client_links(links).vfs(vfs).establish(&sim);
        let parts = (
            (0..=COMPUTE_CLIENTS).map(|i| session.client_transport(i)).collect(),
            session.root_fh(),
            session.wan_stats().clone(),
            Some(session.handle()),
        );
        gvfs_session = Some(session);
        parts
    } else {
        let native = NativeMount::establish_with_links(links, Some(vfs));
        (
            (0..=COMPUTE_CLIENTS).map(|i| native.client_transport(i)).collect(),
            native.root_fh(),
            native.stats().clone(),
            None,
        )
    };

    let runtimes: Arc<Mutex<Vec<Vec<f64>>>> =
        Arc::new(Mutex::new(vec![Vec::new(); COMPUTE_CLIENTS]));
    let progress = Arc::new(AtomicUsize::new(0)); // total completed iterations
    let update_done = Arc::new(AtomicBool::new(false));
    let finished = Arc::new(AtomicUsize::new(0));
    let stats_before_update = Arc::new(Mutex::new(None));
    let stats_after_update = Arc::new(Mutex::new(None));

    let mut iter_transports = transports.into_iter();
    for i in 0..COMPUTE_CLIENTS {
        let transport = iter_transports.next().expect("transport");
        let config = config.clone();
        let runtimes = Arc::clone(&runtimes);
        let progress = Arc::clone(&progress);
        let update_done = Arc::clone(&update_done);
        let finished = Arc::clone(&finished);
        sim.spawn(&format!("nanomos-{i}"), move || {
            let client = NfsClient::new(transport, root, MountOptions::default());
            for iteration in 0..config.iterations {
                if iteration == config.iterations / 2 {
                    // Wait for the administrator's update to land before
                    // starting the second half.
                    while !update_done.load(Ordering::SeqCst) {
                        gvfs_netsim::sleep(Duration::from_secs(1));
                    }
                }
                let runtime = nanomos::run_iteration(&client, &config);
                runtimes.lock()[i].push(runtime.as_secs_f64());
                progress.fetch_add(1, Ordering::SeqCst);
            }
            finished.fetch_add(1, Ordering::SeqCst);
        });
    }

    // The administrator: waits for everyone to finish the first half,
    // applies the update, releases the second half.
    let admin_transport = iter_transports.next().expect("admin transport");
    let config2 = config.clone();
    let progress2 = Arc::clone(&progress);
    let update_done2 = Arc::clone(&update_done);
    let stats2 = stats.clone();
    let before2 = Arc::clone(&stats_before_update);
    let after2 = Arc::clone(&stats_after_update);
    sim.spawn("administrator", move || {
        let client = NfsClient::new(admin_transport, root, MountOptions::default());
        let half = COMPUTE_CLIENTS * (config2.iterations / 2);
        while progress2.load(Ordering::SeqCst) < half {
            gvfs_netsim::sleep(Duration::from_secs(2));
        }
        *before2.lock() = Some(stats2.snapshot());
        nanomos::admin_update(&client, &config2, scope);
        *after2.lock() = Some(stats2.snapshot());
        update_done2.store(true, Ordering::SeqCst);
    });

    if let Some(handle) = handle {
        let finished2 = Arc::clone(&finished);
        sim.spawn("janitor", move || loop {
            gvfs_netsim::sleep(Duration::from_secs(10));
            if finished2.load(Ordering::SeqCst) >= COMPUTE_CLIENTS {
                handle.shutdown();
                return;
            }
        });
    }

    sim.run();

    let per_client = runtimes.lock();
    let iterations = config.iterations;
    let mut means = Vec::with_capacity(iterations);
    for it in 0..iterations {
        let sum: f64 = per_client.iter().map(|v| v[it]).sum();
        means.push(sum / COMPUTE_CLIENTS as f64);
    }

    // Update-window GETINV per client (GVFS; includes the drain right
    // after the update as clients poll it in).
    let before = stats_before_update.lock().take().unwrap_or_default();
    let final_snap = stats.snapshot();
    let update_delta = final_snap.since(&before);
    let getinv_for_update = getinv_calls(&update_delta) as f64 / COMPUTE_CLIENTS as f64
        - (COMPUTE_CLIENTS as f64).recip() * 0.0;

    // Steady-state GETATTR per client per run: take the whole run's
    // GETATTRs over clients × iterations (first-run cold misses raise
    // the NFS number slightly; the paper quotes ~2.7K per client run).
    let getattr_per_client_run =
        nfs_calls(&final_snap, proc3::GETATTR) as f64 / (COMPUTE_CLIENTS * iterations) as f64;

    Outcome {
        runtimes: means,
        getinv_for_update,
        getattr_per_client_run,
        rpc: rpc_meta(&final_snap),
        read_path: match &gvfs_session {
            Some(s) => crate::session_read_path(s, COMPUTE_CLIENTS),
            None => serde_json::Value::Null,
        },
    }
}

pub fn run(small: bool) -> serde_json::Value {
    let config = if small { NanomosConfig::small() } else { NanomosConfig::default() };

    let mut table_rows = Vec::new();
    let mut json_scopes = Vec::new();
    for (scope, label) in
        [(UpdateScope::Matlab, "a: MATLAB update"), (UpdateScope::Mpitb, "b: MPITB update")]
    {
        let nfs = run_one(false, scope, &config);
        let gvfs = run_one(true, scope, &config);
        eprintln!(
            "  [{label}: NFS getattr/client/run {:.0}; GVFS getinv/client for update {:.1}]",
            nfs.getattr_per_client_run, gvfs.getinv_for_update
        );
        for it in 0..config.iterations {
            table_rows.push(vec![
                label.to_string(),
                (it + 1).to_string(),
                format!("{:.1}", nfs.runtimes[it]),
                format!("{:.1}", gvfs.runtimes[it]),
            ]);
        }
        json_scopes.push(serde_json::json!({
            "scope": label,
            "nfs_runtimes_s": nfs.runtimes,
            "gvfs_runtimes_s": gvfs.runtimes,
            "nfs_getattr_per_client_run": nfs.getattr_per_client_run,
            "gvfs_getinv_per_client_update": gvfs.getinv_for_update,
            "nfs_rpc": nfs.rpc,
            "gvfs_rpc": gvfs.rpc,
            "gvfs_read_path": gvfs.read_path,
        }));
    }

    print_table(
        "Figure 7: NanoMOS mean runtime per iteration (seconds); update lands between runs 4 and 5",
        &["scope", "iter", "NFS", "GVFS"],
        &table_rows,
    );

    serde_json::json!({
        "experiment": "fig7-nanomos",
        "clients": COMPUTE_CLIENTS,
        "iterations": config.iterations,
        "tree": { "matlab": config.matlab_files, "mpitb": config.mpitb_files },
        "scopes": json_scopes,
    })
}
