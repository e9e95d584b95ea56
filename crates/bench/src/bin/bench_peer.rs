//! Peer-sourcing fan-in: many clients behind long-fat WAN links
//! cold-read the same small tree. Star topology (peer sourcing off)
//! pays one origin READ per client per block; with `PEERREAD` on, one
//! seeder warms the mesh and everyone else pulls blocks from advertised
//! peers over the LAN, so origin READs drop from O(clients) to O(1)
//! per block. Emits `results/BENCH_peer.json` with both topologies'
//! origin READ counts, PEERREAD volume, and the aggregated read-path
//! counters.
//!
//! Run: `cargo run --release -p gvfs-bench --bin bench_peer [--small]`

use gvfs_bench::{
    nfs_calls, peerread_calls, print_table, save_json, session_read_path, small_mode,
};
use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::session::{Session, SessionConfig};
use gvfs_core::ConsistencyModel;
use gvfs_netsim::link::LinkConfig;
use gvfs_netsim::Sim;
use gvfs_nfs3::proc3;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const BLOCK: u64 = 32 * 1024;
/// The seeder finishes its pass well inside this window; the fan-in
/// wave starts together after it.
const FAN_IN_AT: Duration = Duration::from_secs(60);

struct RunOut {
    label: &'static str,
    doc: serde_json::Value,
    origin_reads: u64,
    peerreads: u64,
    peer_hits: u64,
    fan_in_wall_s: f64,
}

/// One topology: client 0 cold-reads the shared tree first (the
/// seeder), then every other client fans in concurrently. Returns the
/// JSON block plus the gate inputs.
fn run_config(
    label: &'static str,
    peer_read: bool,
    clients: usize,
    files: usize,
    blocks: u64,
) -> RunOut {
    let sim = Sim::new();
    let session = Session::builder(SessionConfig {
        model: ConsistencyModel::InvalidationPolling {
            period: Duration::from_secs(300),
            backoff_max: None,
        },
        readahead_window: 8,
        peer_read,
        ..SessionConfig::default()
    })
    .clients(clients)
    .wan(LinkConfig::wan().with_rtt(Duration::from_millis(200)).with_bandwidth_bps(100_000_000))
    .establish(&sim);
    // Seed the shared tree server-side so every proxy cache starts cold.
    let seed_t = gvfs_vfs::Timestamp::from_nanos(0);
    let vfs = session.vfs();
    for f in 0..files {
        let fh = vfs.create(vfs.root(), &format!("tree{f}"), 0o644, seed_t).unwrap();
        vfs.write(fh, 0, &vec![fill(f); (blocks * BLOCK) as usize], seed_t).unwrap();
    }
    let session = Arc::new(session);
    let stats = session.wan_stats().clone();
    let before = stats.snapshot();
    let done = Arc::new(AtomicUsize::new(0));
    let wall = Arc::new(Mutex::new(0f64));
    for i in 0..clients {
        let t = session.client_transport(i);
        let root = session.root_fh();
        let handle = session.handle();
        let done = Arc::clone(&done);
        let wall = Arc::clone(&wall);
        sim.spawn(&format!("reader-{i}"), move || {
            if i > 0 {
                // Staggered fan-in: a couple of clients overlap at any
                // moment (the seeder's callback node is one 1 ms-per-op
                // server, not a cluster) and the wave is deterministic.
                gvfs_netsim::sleep(FAN_IN_AT + Duration::from_millis(i as u64 * 200));
            }
            let c = NfsClient::new(t, root, MountOptions::noac());
            for f in 0..files {
                let fh = c.open(&format!("/tree{f}")).unwrap();
                for b in 0..blocks {
                    assert_eq!(
                        c.read(fh, b * BLOCK, BLOCK as u32).unwrap(),
                        vec![fill(f); BLOCK as usize],
                        "client {i} file {f} block {b}"
                    );
                }
            }
            if done.fetch_add(1, Ordering::SeqCst) + 1 == clients {
                let fan_in_start = gvfs_netsim::SimTime::from_secs(FAN_IN_AT.as_secs());
                *wall.lock() = gvfs_netsim::now().saturating_since(fan_in_start).as_secs_f64();
                handle.shutdown();
            }
        });
    }
    sim.run();
    let delta = stats.snapshot().since(&before);
    let origin_reads = nfs_calls(&delta, proc3::READ);
    let peerreads = peerread_calls(&session.peer_stats().snapshot());
    let read_path = session_read_path(&session, clients);
    let peer_hits = (0..clients).map(|i| session.proxy_client(i).stats().peer_hits).sum();
    let fan_in_wall_s = *wall.lock();
    RunOut {
        label,
        doc: serde_json::json!({
            "config": label,
            "peer_read": peer_read,
            "origin_reads": origin_reads,
            "origin_rpcs": delta.total_calls(),
            "peerread_calls": peerreads,
            "fan_in_wall_s": fan_in_wall_s,
            "read_path": read_path,
        }),
        origin_reads,
        peerreads,
        peer_hits,
        fan_in_wall_s,
    }
}

/// Per-file fill byte so a cross-file mixup fails the data assert.
fn fill(f: usize) -> u8 {
    (f as u8) ^ 0x5a
}

fn main() {
    let (clients, files, blocks) = if small_mode() { (8, 2, 8u64) } else { (100, 4, 16u64) };
    let star = run_config("star", false, clients, files, blocks);
    let peer = run_config("peer", true, clients, files, blocks);
    let rows = [&star, &peer]
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                r.origin_reads.to_string(),
                r.peerreads.to_string(),
                r.peer_hits.to_string(),
                format!("{:.3}", r.fan_in_wall_s),
            ]
        })
        .collect::<Vec<_>>();
    print_table(
        &format!("BENCH_peer ({clients} clients, {files} x {blocks} x 32 KiB, 200 ms RTT)"),
        &["topology", "origin READs", "PEERREADs", "peer hits", "fan-in wall (s)"],
        &rows,
    );
    let reduction = star.origin_reads as f64 / peer.origin_reads.max(1) as f64;
    println!("\norigin READ reduction: {reduction:.1}x");
    // Sanity gates: the mesh must actually carry blocks, and the origin
    // fan-in must collapse (O(clients) -> O(1) per block; the full-size
    // run must clear the paper's 10x bar).
    assert!(peer.peer_hits > 0, "peer mesh served no blocks");
    let bar = if small_mode() { 2.0 } else { 10.0 };
    assert!(
        reduction >= bar,
        "origin READ reduction {reduction:.1}x below {bar}x (star {}, peer {})",
        star.origin_reads,
        peer.origin_reads
    );
    save_json(
        "BENCH_peer.json",
        &serde_json::json!({
            "experiment": "BENCH_peer",
            "clients": clients,
            "files": files,
            "blocks": blocks,
            "block_bytes": BLOCK,
            "link": { "rtt_ms": 200, "bandwidth_mbps": 100 },
            "origin_read_reduction": reduction,
            "configs": [star.doc, peer.doc],
        }),
    );
}
