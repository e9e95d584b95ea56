//! Proxy-server scale bench: 1k–10k lightweight protocol clients
//! against one proxy server, measuring the hot paths the fan-out and
//! invalidation rework targets:
//!
//! 1. **recall fan-out** — N read-delegation holders on one shared
//!    file; a writer triggers an N-recall round. The round is driven
//!    through the bounded fan-out window (pre-rework arm: window 1 =
//!    sequential issue-and-wait). Measured: round latency, recalls/sec,
//!    in-flight high-water mark.
//! 2. **GETINV at scale** — N polling clients bootstrap, a writer
//!    churns files, every client drains. Measured: poll throughput,
//!    p50/p99 GETINV latency and invalidation-lock contention.
//! 3. **piggybacked drains** — the same drain riding back on ordinary
//!    NFS replies: steady-state polls cost zero extra WAN messages.
//! 4. **paged drains** — a churn burst larger than one reply pages
//!    through `poll_again`.
//! 5. **idle eviction** — after the churn, epoch sweeps must evict
//!    every idle client's buffers and breakers while keeping the
//!    active set, bounding delegation/invalidation/breaker state.
//!
//! Unlike the `fig*` binaries this harness does not build full proxy
//! clients (disk cache, poller, flusher per client — far too heavy at
//! 10k): it drives credentialed wire-level calls against the proxy
//! server from a small pool of driver actors, one `GvfsCred` per
//! simulated client, which is exactly what the server sees from 10k
//! real proxies.
//!
//! Run: `cargo run --release -p gvfs-bench --bin bench_scale [--small]`
//! Writes `results/BENCH_scale.json`.

use gvfs_bench::scale::{
    cred, drive, fanout_round, getinv_call, percentile, write_call, World, DRIVERS,
};
use gvfs_core::protocol::{proc_ext, WrappedReply, GVFS_PROXY_PROGRAM, GVFS_VERSION};
use gvfs_core::proxy::server::ServerConfig;
use gvfs_core::ConsistencyModel;
use gvfs_netsim::transport::SimRpcClient;
use gvfs_netsim::Sim;
use gvfs_nfs3::{proc3, Fh3};
use gvfs_vfs::Timestamp;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Phases 2–5: polling world. Bootstraps N clients, churns, drains
/// (plain + piggybacked), pages a big burst, then evicts the idle.
fn polling_phases(clients: usize) -> (f64, f64, serde_json::Value) {
    const CHURN_FILES: usize = 32;
    const ACTIVE: usize = 8;
    let sim = Sim::new();
    let result = Arc::new(Mutex::new(None));
    let out = Arc::clone(&result);
    sim.spawn("bench-main", move || {
        // Piggybacking is on for the whole world; only the piggyback
        // phase issues the ordinary NFS calls a drain can ride on
        // (the writer, which never polls, has no buffer to drain).
        let world = World::establish(
            ServerConfig {
                model: ConsistencyModel::InvalidationPolling {
                    period: Duration::from_secs(30),
                    backoff_max: None,
                },
                invalidation_capacity: 1024,
                piggyback_inval: true,
                ..ServerConfig::default()
            },
            clients,
        );
        let churn: Vec<Fh3> =
            (0..CHURN_FILES).map(|n| world.seed_file(&format!("churn-{n:04}"))).collect();
        let transports: Arc<Vec<SimRpcClient>> =
            Arc::new((0..DRIVERS).map(|d| world.transport(d)).collect());

        // Bootstrap: every client's first GETINV registers its buffer.
        let timestamps: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(vec![0; clients]));
        {
            let ts = Arc::clone(&timestamps);
            let tx = Arc::clone(&transports);
            drive(clients, move |d, i| {
                let res = getinv_call(&tx[d], i as u32 + 1, None);
                ts.lock()[i] = res.timestamp;
            });
        }

        // Churn: one writer dirties the working set.
        let writer = clients as u32 + 1;
        for &fh in &churn {
            write_call(&transports[0], writer, fh);
        }

        // Plain drains, timed per call.
        let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let drained: Arc<AtomicUsize> = Arc::new(AtomicUsize::new(0));
        let t0 = gvfs_netsim::now();
        {
            let ts = Arc::clone(&timestamps);
            let lat = Arc::clone(&latencies);
            let drained = Arc::clone(&drained);
            let tx = Arc::clone(&transports);
            drive(clients, move |d, i| {
                let last = ts.lock()[i];
                let c0 = gvfs_netsim::now();
                let res = getinv_call(&tx[d], i as u32 + 1, Some(last));
                lat.lock().push(gvfs_netsim::now().saturating_since(c0).as_secs_f64());
                drained.fetch_add(res.handles.len(), Ordering::Relaxed);
                ts.lock()[i] = res.timestamp;
            });
        }
        let drain_s = gvfs_netsim::now().saturating_since(t0).as_secs_f64();
        let mut lat = latencies.lock().clone();
        lat.sort_by(f64::total_cmp);
        assert_eq!(
            drained.load(Ordering::Relaxed),
            clients * CHURN_FILES,
            "every client must drain the full churn set"
        );

        // Piggyback: churn again, then every client does one ordinary
        // GETATTR; the drain rides back on the reply and the poll is
        // skipped. Steady-state consistency costs zero extra messages.
        for &fh in &churn {
            write_call(&transports[0], writer, fh);
        }
        let getinv_before = world.wan_stats.snapshot().calls(GVFS_PROXY_PROGRAM, proc_ext::GETINV);
        let piggybacked: Arc<AtomicUsize> = Arc::new(AtomicUsize::new(0));
        let fell_back: Arc<AtomicUsize> = Arc::new(AtomicUsize::new(0));
        {
            let ts = Arc::clone(&timestamps);
            let piggybacked = Arc::clone(&piggybacked);
            let fell_back = Arc::clone(&fell_back);
            let tx = Arc::clone(&transports);
            let churn0 = churn[0];
            drive(clients, move |d, i| {
                let id = i as u32 + 1;
                let args = gvfs_xdr::to_bytes(&gvfs_nfs3::GetattrArgs { object: churn0 })
                    .expect("encode getattr");
                let bytes = tx[d]
                    .call_with_cred(
                        GVFS_PROXY_PROGRAM,
                        GVFS_VERSION,
                        proc3::GETATTR,
                        args,
                        cred(id),
                    )
                    .expect("getattr");
                let reply: WrappedReply = gvfs_xdr::from_bytes(&bytes).expect("decode");
                match reply.inv {
                    Some(inv) if !inv.poll_again => {
                        piggybacked.fetch_add(inv.handles.len(), Ordering::Relaxed);
                        ts.lock()[i] = inv.timestamp;
                    }
                    _ => {
                        // Paged or missing: fall back to a real poll.
                        fell_back.fetch_add(1, Ordering::Relaxed);
                        let last = ts.lock()[i];
                        let res = getinv_call(&tx[d], id, Some(last));
                        ts.lock()[i] = res.timestamp;
                    }
                }
            });
        }
        let getinv_extra =
            world.wan_stats.snapshot().calls(GVFS_PROXY_PROGRAM, proc_ext::GETINV) - getinv_before;
        assert_eq!(
            piggybacked.load(Ordering::Relaxed),
            clients * CHURN_FILES,
            "every drain must ride back piggybacked"
        );
        assert_eq!(getinv_extra, 0, "steady-state polls must cost zero extra GETINV messages");

        // Paging: a churn burst larger than one reply; client 1 pages
        // through `poll_again`.
        let burst = gvfs_core::protocol::MAX_INVALIDATIONS_PER_REPLY + 80;
        {
            let t = Timestamp::from_nanos(0);
            for n in 0..burst {
                let id =
                    world.vfs.create(world.vfs.root(), &format!("burst-{n:05}"), 0o644, t).unwrap();
                let fh = Fh3::from_fileid(id.as_u64());
                write_call(&transports[0], writer, fh);
            }
        }
        let mut pages = 0usize;
        let mut paged_handles = 0usize;
        {
            let mut last = timestamps.lock()[0];
            loop {
                let res = getinv_call(&transports[0], 1, Some(last));
                pages += 1;
                paged_handles += res.handles.len();
                last = res.timestamp;
                assert!(!res.force_invalidate, "paged drain must not degrade to a force");
                if !res.poll_again {
                    break;
                }
            }
            timestamps.lock()[0] = last;
        }
        assert!(pages >= 2, "burst of {burst} must page, got {pages} page(s)");
        assert_eq!(paged_handles, burst, "paged drain must deliver the full burst");

        // Idle eviction: only ACTIVE clients keep polling while epochs
        // pass; everyone else's buffers must be evicted.
        for _ in 0..4 {
            for i in 0..ACTIVE.min(clients) {
                let last = timestamps.lock()[i];
                let res = getinv_call(&transports[0], i as u32 + 1, Some(last));
                timestamps.lock()[i] = res.timestamp;
            }
            world.server.maintain(2);
        }
        let stats = world.server.scale_stats();
        assert!(
            stats.inval_clients <= ACTIVE,
            "idle eviction must bound tracker state: {} clients tracked after churn of {}",
            stats.inval_clients,
            clients
        );
        assert!(
            stats.inval.evicted_buffers >= (clients - ACTIVE) as u64,
            "expected >= {} evictions, saw {}",
            clients - ACTIVE,
            stats.inval.evicted_buffers
        );

        let snap = world.wan_stats.snapshot();
        let polls_per_sec = clients as f64 / drain_s;
        let p99 = percentile(&lat, 0.99);
        let json = serde_json::json!({
            "drain": {
                "throughput_polls_per_sec": polls_per_sec,
                "p50_s": percentile(&lat, 0.50),
                "p99_s": p99,
                "handles": drained.load(Ordering::Relaxed),
            },
            "piggyback": {
                "piggybacked_handles": piggybacked.load(Ordering::Relaxed),
                "fallback_polls": fell_back.load(Ordering::Relaxed),
                "extra_getinv_msgs": getinv_extra,
            },
            "paging": { "burst": burst, "pages": pages },
            "eviction": {
                "tracked_after_churn": stats.inval_clients,
                "evicted_buffers": stats.inval.evicted_buffers,
                "active_kept": ACTIVE.min(clients),
            },
            "server": gvfs_bench::server_meta(&world.server),
            "rpc": gvfs_bench::rpc_meta(&snap),
        });
        *out.lock() = Some((polls_per_sec, p99, json));
    });
    sim.run();
    let v = result.lock().take();
    v.expect("polling phases produced no result")
}

fn main() {
    let small = gvfs_bench::small_mode();
    let arms: &[usize] = if small { &[48, 96] } else { &[1000, 2500] };
    let windows: &[usize] = &[1, 64];

    let mut arm_docs = Vec::new();
    let mut rows = Vec::new();
    for &clients in arms {
        let mut fanout = Vec::new();
        let mut round = [0.0f64; 2];
        for (i, &w) in windows.iter().enumerate() {
            let (round_s, v) = fanout_round(clients, w);
            round[i] = round_s;
            fanout.push(v);
        }
        let speedup = round[0] / round[1];
        let (polls_per_sec, p99, polling) = polling_phases(clients);
        rows.push(vec![
            clients.to_string(),
            format!("{:.3}", round[0]),
            format!("{:.3}", round[1]),
            format!("{speedup:.1}x"),
            format!("{polls_per_sec:.0}"),
            format!("{p99:.4}"),
        ]);
        arm_docs.push(serde_json::json!({
            "clients": clients,
            "fanout": fanout,
            "fanout_speedup": speedup,
            "polling": polling,
        }));
        assert!(
            speedup >= 2.0,
            "bounded fan-out window must beat sequential-wait >=2x at {clients} clients, \
             got {speedup:.2}x"
        );
    }
    print_summary(&rows);
    gvfs_bench::save_json(
        "BENCH_scale.json",
        &serde_json::json!({
            "experiment": "bench_scale",
            "small": small,
            "fanout_windows": windows,
            "arms": arm_docs,
        }),
    );
}

fn print_summary(rows: &[Vec<String>]) {
    gvfs_bench::print_table(
        "Proxy-server scale (recall fan-out round + GETINV drains)",
        &["clients", "round w=1 (s)", "round w=64 (s)", "speedup", "polls/s", "drain p99 (s)"],
        rows,
    );
}
