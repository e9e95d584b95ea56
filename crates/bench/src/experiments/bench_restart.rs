//! Restart-warm bench: a client with a persistent block store reads a
//! 1 MiB file cold over the long-fat link, shuts down cleanly (flushing
//! and syncing the store), and a *new* session is established over the
//! same virtual disk — modelling a proxy machine reboot. The reopened
//! store must replay its on-disk index and serve every block warm: the
//! warm-restart phase is asserted to issue **zero** WAN data READs
//! (revalidation GETATTRs are allowed — consistency is still checked,
//! the data just never crosses the WAN again). Emits
//! `results/BENCH_restart.json` with both phases' wall times, WAN RPC
//! splits, and the store's restart counters.

use super::{long_fat_link, quiet_polling};
use crate::{nfs_calls, print_table, read_path_json};
use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::proxy::BLOCK_SIZE;
use gvfs_core::session::{Session, SessionConfig};
use gvfs_netsim::disk::VirtualDisk;
use gvfs_netsim::Sim;
use gvfs_nfs3::proc3;
use gvfs_vfs::Vfs;
use parking_lot::Mutex;
use std::sync::Arc;

fn config() -> SessionConfig {
    SessionConfig { model: quiet_polling(), persistent_store: true, ..SessionConfig::default() }
}

struct PhaseResult {
    wall_s: f64,
    wan_reads: u64,
    wan_getattrs: u64,
    wan_total: u64,
    warm_blocks: u64,
    read_path: serde_json::Value,
}

/// Runs one session over `vfs` (and `disk`, when restarting): a full
/// sequential pass over `/seq`, then a clean shutdown that flushes and
/// syncs the store. Returns the phase counters and the client's disk
/// for the next incarnation.
fn run_session(
    name: &'static str,
    vfs: &Arc<Vfs>,
    disk: Option<Arc<VirtualDisk>>,
    blocks: u64,
) -> (PhaseResult, Arc<VirtualDisk>) {
    let sim = Sim::new();
    let mut builder =
        Session::builder(config()).clients(1).wan(long_fat_link()).vfs(Arc::clone(vfs));
    if let Some(disk) = disk {
        builder = builder.client_disks(vec![disk]);
    }
    let session = builder.establish(&sim);
    let t = session.client_transport(0);
    let root = session.root_fh();
    let stats = session.wan_stats().clone();
    let handle = session.handle();
    let session = Arc::new(session);
    let s2 = Arc::clone(&session);
    let out: Arc<Mutex<Option<PhaseResult>>> = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    sim.spawn(name, move || {
        let c = NfsClient::new(t, root, MountOptions::noac());
        let seq = c.open("/seq").unwrap();
        let before = stats.snapshot();
        let t0 = gvfs_netsim::now();
        for b in 0..blocks {
            assert_eq!(
                c.read(seq, b * BLOCK_SIZE, BLOCK_SIZE as u32).unwrap(),
                vec![6u8; BLOCK_SIZE as usize]
            );
        }
        let wall_s = gvfs_netsim::now().saturating_since(t0).as_secs_f64();
        let delta = stats.snapshot().since(&before);
        let proxy_stats = s2.proxy_client(0).stats();
        *out2.lock() = Some(PhaseResult {
            wall_s,
            wan_reads: nfs_calls(&delta, proc3::READ),
            wan_getattrs: nfs_calls(&delta, proc3::GETATTR),
            wan_total: delta.total_calls(),
            warm_blocks: proxy_stats.restart_warm_blocks,
            read_path: read_path_json(&proxy_stats),
        });
        // Clean shutdown: flush write-back (none here) and sync the
        // store, so the next incarnation reopens a barrier-covered WAL.
        handle.shutdown();
    });
    sim.run();
    let disk = session.client_disk(0).expect("session runs a persistent store");
    let result = out.lock().take().expect("reader actor completed");
    (result, disk)
}

pub fn run(small: bool) -> serde_json::Value {
    let blocks: u64 = if small { 8 } else { 32 };

    // One filesystem outlives both sessions, exactly like the server
    // outlives a proxy machine reboot.
    let vfs = Arc::new(Vfs::new());
    let t0 = gvfs_vfs::Timestamp::from_nanos(0);
    let f = vfs.create(vfs.root(), "seq", 0o644, t0).unwrap();
    vfs.write(f, 0, &vec![6u8; (blocks * BLOCK_SIZE) as usize], t0).unwrap();

    let (cold, disk) = run_session("cold-reader", &vfs, None, blocks);
    let (warm, _disk) = run_session("restart-reader", &vfs, Some(disk), blocks);

    let rows = [("cold", &cold), ("warm_restart", &warm)]
        .iter()
        .map(|(name, p)| {
            vec![
                (*name).to_string(),
                format!("{:.3}", p.wall_s),
                p.wan_reads.to_string(),
                p.wan_getattrs.to_string(),
                p.wan_total.to_string(),
            ]
        })
        .collect::<Vec<_>>();
    print_table(
        &format!("BENCH_restart ({blocks} x 32 KiB blocks, 200 ms RTT)"),
        &["phase", "wall (s)", "WAN READs", "WAN GETATTRs", "WAN RPCs"],
        &rows,
    );

    // The point of the persistent store: a restart costs revalidation,
    // never data. The reopened index must also report the blocks warm.
    assert_eq!(
        warm.wan_reads, 0,
        "warm-restart pass must serve every block from the reopened store"
    );
    let warm_blocks = warm.warm_blocks;
    assert!(
        warm_blocks >= blocks,
        "the reopened index must cover the file's {blocks} blocks, reported {warm_blocks}"
    );
    assert!(
        warm.wall_s < cold.wall_s,
        "revalidation-only restart must beat the cold pass ({:.3}s vs {:.3}s)",
        warm.wall_s,
        cold.wall_s
    );
    println!(
        "\ncold {:.3}s ({} WAN READs) -> warm restart {:.3}s ({} WAN READs, {} blocks warm)",
        cold.wall_s, cold.wan_reads, warm.wall_s, warm.wan_reads, warm_blocks
    );

    let phase_json = |p: &PhaseResult| {
        serde_json::json!({
            "wall_s": p.wall_s,
            "wan_reads": p.wan_reads,
            "wan_getattrs": p.wan_getattrs,
            "wan_rpcs": p.wan_total,
            "read_path": p.read_path,
        })
    };
    serde_json::json!({
        "experiment": "BENCH_restart",
        "blocks": blocks,
        "block_bytes": BLOCK_SIZE,
        "link": { "rtt_ms": 200, "bandwidth_mbps": 100 },
        "cold": phase_json(&cold),
        "warm_restart": phase_json(&warm),
    })
}
