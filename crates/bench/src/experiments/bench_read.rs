//! Read-path baseline: cold sequential, warm re-read, and random-order
//! reads of a 1 MiB file over the long-fat link, under each read-path
//! configuration (gap-only, gap+readahead). Emits
//! `results/BENCH_read.json` with per-config wall times, WAN RPC counts
//! and the proxy's read-path counters, so regressions in the pipelined
//! read engine show up as numbers, not vibes.

use super::{long_fat_link, quiet_polling};
use crate::{nfs_calls, print_table, read_path_json};
use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::proxy::BLOCK_SIZE;
use gvfs_core::session::{Session, SessionConfig};
use gvfs_netsim::Sim;
use gvfs_nfs3::proc3;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

struct Phase {
    name: &'static str,
    wall_s: f64,
    wan_reads: u64,
    wan_total: u64,
}

/// One simulated session: cold sequential pass, warm sequential
/// re-read, then a cold random-order pass over a second file. Returns
/// the JSON block plus (cold-sequential wall time, warm-pass WAN READs)
/// for the sanity gates.
fn run_config(label: &str, window: usize, blocks: u64) -> (serde_json::Value, f64, u64) {
    let sim = Sim::new();
    let session = Session::builder(SessionConfig {
        model: quiet_polling(),
        readahead_window: window,
        ..SessionConfig::default()
    })
    .clients(1)
    .wan(long_fat_link())
    .establish(&sim);
    let t = session.client_transport(0);
    let root = session.root_fh();
    let stats = session.wan_stats().clone();
    let handle = session.handle();
    // Seed both files server-side so the proxy cache starts cold.
    let seed_t = gvfs_vfs::Timestamp::from_nanos(0);
    let vfs = session.vfs();
    for name in ["seq", "rand"] {
        let f = vfs.create(vfs.root(), name, 0o644, seed_t).unwrap();
        vfs.write(f, 0, &vec![6u8; (blocks * BLOCK_SIZE) as usize], seed_t).unwrap();
    }
    let session = Arc::new(session);
    let s2 = Arc::clone(&session);
    let phases: Arc<Mutex<Vec<Phase>>> = Arc::new(Mutex::new(Vec::new()));
    let ph = Arc::clone(&phases);
    let read_path = Arc::new(Mutex::new(serde_json::Value::Null));
    let rp = Arc::clone(&read_path);
    sim.spawn("reader", move || {
        let c = NfsClient::new(t, root, MountOptions::noac());
        let record = |name: &'static str, f: &mut dyn FnMut(&NfsClient)| {
            c.drop_caches(); // every phase reaches the proxy
            let before = stats.snapshot();
            let t0 = gvfs_netsim::now();
            f(&c);
            let wall = gvfs_netsim::now().saturating_since(t0).as_secs_f64();
            let delta = stats.snapshot().since(&before);
            ph.lock().push(Phase {
                name,
                wall_s: wall,
                wan_reads: nfs_calls(&delta, proc3::READ),
                wan_total: delta.total_calls(),
            });
        };
        let seq = c.open("/seq").unwrap();
        record("sequential_cold", &mut |c| {
            for b in 0..blocks {
                assert_eq!(
                    c.read(seq, b * BLOCK_SIZE, BLOCK_SIZE as u32).unwrap(),
                    vec![6u8; BLOCK_SIZE as usize]
                );
            }
        });
        record("sequential_warm", &mut |c| {
            for b in 0..blocks {
                assert_eq!(
                    c.read(seq, b * BLOCK_SIZE, BLOCK_SIZE as u32).unwrap(),
                    vec![6u8; BLOCK_SIZE as usize]
                );
            }
        });
        let rnd = c.open("/rand").unwrap();
        let mut order: Vec<u64> = (0..blocks).collect();
        let mut rng = StdRng::seed_from_u64(42);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        record("random_cold", &mut |c| {
            for &b in &order {
                assert_eq!(
                    c.read(rnd, b * BLOCK_SIZE, BLOCK_SIZE as u32).unwrap(),
                    vec![6u8; BLOCK_SIZE as usize]
                );
            }
        });
        *rp.lock() = read_path_json(&s2.proxy_client(0).stats());
        handle.shutdown();
    });
    sim.run();
    let phases = phases.lock();
    let mut rows = Vec::new();
    let mut phase_json = Vec::new();
    for p in phases.iter() {
        rows.push(vec![
            p.name.to_string(),
            format!("{:.3}", p.wall_s),
            p.wan_reads.to_string(),
            p.wan_total.to_string(),
        ]);
        phase_json.push(serde_json::json!({
            "phase": p.name,
            "wall_s": p.wall_s,
            "wan_reads": p.wan_reads,
            "wan_rpcs": p.wan_total,
        }));
    }
    print_table(
        &format!("BENCH_read [{label}] ({blocks} x 32 KiB blocks, 200 ms RTT)"),
        &["phase", "wall (s)", "WAN READs", "WAN RPCs"],
        &rows,
    );
    let doc = serde_json::json!({
        "config": label,
        "readahead_window": window,
        "phases": phase_json,
        "read_path": read_path.lock().clone(),
    });
    (doc, phases[0].wall_s, phases[1].wan_reads)
}

pub fn run(small: bool) -> serde_json::Value {
    let blocks: u64 = if small { 8 } else { 32 };
    let mut configs = Vec::new();
    let mut colds = Vec::new();
    let mut warm_reads = Vec::new();
    for (label, window) in [("gap-only", 0usize), ("gap+readahead", 8)] {
        let (doc, cold, warm) = run_config(label, window, blocks);
        configs.push(doc);
        colds.push(cold);
        warm_reads.push(warm);
    }
    // Sanity gate: the warm pass must be WAN-free.
    let (gap_cold, ra_cold) = (colds[0], colds[1]);
    assert_eq!(warm_reads[1], 0, "warm re-read must be served from the disk cache");
    println!(
        "\ncold sequential: gap-only {gap_cold:.3}s, gap+readahead {ra_cold:.3}s ({:.1}x)",
        gap_cold / ra_cold
    );
    serde_json::json!({
        "experiment": "BENCH_read",
        "blocks": blocks,
        "block_bytes": BLOCK_SIZE,
        "link": { "rtt_ms": 200, "bandwidth_mbps": 100 },
        "configs": configs,
    })
}
