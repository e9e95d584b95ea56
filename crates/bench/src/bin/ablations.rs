//! Ablations over the design choices DESIGN.md calls out (§8):
//!
//! 1. invalidation-buffer capacity vs force-invalidation rate,
//! 2. polling period (fixed vs exponential back-off) vs staleness and
//!    poll traffic,
//! 3. delegation expiration vs callback volume and tracked state,
//! 4. partial write-back threshold vs contending-reader latency,
//! 5. write-back pipelining (xid-multiplexed WRITE batches sharing one
//!    WAN round trip) vs the serial one-RPC-at-a-time fallback,
//! 6. the read path: gap-only miss fetching vs gap fetching plus
//!    sequential read-ahead,
//! 7. the degradation ladder: availability through a 60 s partition with
//!    bounded-staleness cache-only reads vs the hard-retry baseline,
//! 8. recall fan-out: the bounded-concurrency fan-out window vs the
//!    sequential issue-and-wait baseline at 1k delegation holders,
//! 9. peer sourcing: a cold fan-in on the star topology (every block
//!    over the WAN) vs `PEERREAD` block sourcing from advertised peers
//!    over the LAN,
//! 10. self-healing scrub: after on-disk corruption of a warm
//!     persistent cache, demand-time refetch repair vs the background
//!     scrub sweep repairing ahead of the reader.
//!
//! Run: `cargo run --release -p gvfs-bench --bin ablations [--only <name>]`
//! where `<name>` is one of `buffer-capacity`, `polling-period`,
//! `delegation-expiration`, `writeback-threshold`, `pipelining`,
//! `readahead`, `degradation`, `fanout`, `peerread`, `scrub`.

use gvfs_bench::scale::fanout_round;
use gvfs_bench::{getinv_calls, nfs_calls, print_table, rpc_meta, save_json, small_mode};
use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::session::{Session, SessionConfig};
use gvfs_core::{ConsistencyModel, DelegationConfig};
use gvfs_netsim::link::LinkConfig;
use gvfs_netsim::Sim;
use gvfs_nfs3::proc3;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Ablation 1: a writer churns through many distinct files while a
/// reader polls with a given invalidation-buffer capacity. Small
/// buffers wrap around and degrade into force-invalidations, which
/// blow away the reader's whole attribute cache.
fn buffer_capacity_sweep() -> Vec<serde_json::Value> {
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for capacity in [16usize, 64, 256, 1024] {
        let sim = Sim::new();
        let session = Session::builder(SessionConfig {
            model: ConsistencyModel::InvalidationPolling {
                period: Duration::from_secs(30),
                backoff_max: None,
            },
            invalidation_buffer: capacity,
            ..SessionConfig::default()
        })
        .clients(2)
        .wan(LinkConfig::wan())
        .establish(&sim);
        let (wt, rt) = (session.client_transport(0), session.client_transport(1));
        let root = session.root_fh();
        let stats = session.wan_stats().clone();
        let handle = session.handle();
        sim.spawn("writer", move || {
            let c = NfsClient::new(wt, root, MountOptions::noac());
            // 600 distinct files modified over 5 minutes.
            for n in 0..600 {
                c.write_file(&format!("/churn-{n:04}"), b"x").unwrap();
                gvfs_netsim::sleep(Duration::from_millis(500));
            }
        });
        sim.spawn("reader", move || {
            let c = NfsClient::new(rt, root, MountOptions::noac());
            // A working set the reader keeps cached.
            gvfs_netsim::sleep(Duration::from_secs(1));
            for n in 0..50 {
                c.write_file(&format!("/hot-{n:02}"), b"h").unwrap();
            }
            // Touch the working set regularly; refetches after a
            // force-invalidation show up as WAN GETATTR/LOOKUPs.
            for _ in 0..60 {
                for n in 0..50 {
                    let _ = c.stat(&format!("/hot-{n:02}"));
                }
                gvfs_netsim::sleep(Duration::from_secs(6));
            }
            handle.shutdown();
        });
        sim.run();
        let snap = stats.snapshot();
        let refetches = nfs_calls(&snap, proc3::GETATTR) + nfs_calls(&snap, proc3::LOOKUP);
        rows.push(vec![
            capacity.to_string(),
            getinv_calls(&snap).to_string(),
            refetches.to_string(),
        ]);
        json.push(serde_json::json!({
            "capacity": capacity,
            "getinv": getinv_calls(&snap),
            "refetch_rpcs": refetches,
        }));
    }
    print_table(
        "Ablation 1: invalidation-buffer capacity (writer churns 600 files; reader keeps 50 hot)",
        &["capacity", "GETINV", "refetch RPCs"],
        &rows,
    );
    json
}

/// Ablation 2: polling period and back-off vs staleness and traffic.
fn polling_period_sweep() -> Vec<serde_json::Value> {
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (period_s, backoff) in
        [(5u64, None), (15, None), (30, None), (60, None), (15, Some(120u64))]
    {
        let sim = Sim::new();
        let session = Session::builder(SessionConfig {
            model: ConsistencyModel::InvalidationPolling {
                period: Duration::from_secs(period_s),
                backoff_max: backoff.map(Duration::from_secs),
            },
            ..SessionConfig::default()
        })
        .clients(2)
        .wan(LinkConfig::wan())
        .establish(&sim);
        let (wt, rt) = (session.client_transport(0), session.client_transport(1));
        let root = session.root_fh();
        let stats = session.wan_stats().clone();
        let handle = session.handle();
        let staleness = Arc::new(Mutex::new(Vec::new()));
        sim.spawn("writer", move || {
            let c = NfsClient::new(wt, root, MountOptions::noac());
            c.write_file("/doc", b"v0").unwrap();
            // A write every 100 s; long quiet tail exercises back-off.
            for v in 1..=5u8 {
                gvfs_netsim::sleep(Duration::from_secs(100));
                let fh = c.resolve("/doc").unwrap();
                c.write(fh, 0, &[b'v', b'0' + v]).unwrap();
            }
            gvfs_netsim::sleep(Duration::from_secs(400)); // idle tail
        });
        let st = Arc::clone(&staleness);
        sim.spawn("reader", move || {
            let c = NfsClient::new(rt, root, MountOptions::noac());
            gvfs_netsim::sleep(Duration::from_secs(5));
            let mut last = Vec::new();
            let mut last_change = 0f64;
            loop {
                let now = gvfs_netsim::now().as_secs_f64();
                if now > 920.0 {
                    break;
                }
                if let Ok(data) = c.read_file("/doc") {
                    if data != last {
                        // Versions change at multiples of 100 s.
                        let written = (now / 100.0).floor() * 100.0;
                        if !last.is_empty() {
                            st.lock().push(now - written);
                        }
                        last = data;
                        last_change = now;
                    }
                }
                let _ = last_change;
                gvfs_netsim::sleep(Duration::from_secs(2));
            }
            handle.shutdown();
        });
        sim.run();
        let snap = stats.snapshot();
        let st = staleness.lock();
        let mean_staleness =
            if st.is_empty() { 0.0 } else { st.iter().sum::<f64>() / st.len() as f64 };
        let label = match backoff {
            Some(max) => format!("{period_s}s..{max}s backoff"),
            None => format!("{period_s}s fixed"),
        };
        rows.push(vec![
            label.clone(),
            format!("{:.1}", mean_staleness),
            getinv_calls(&snap).to_string(),
        ]);
        json.push(serde_json::json!({
            "period_s": period_s,
            "backoff_max_s": backoff,
            "mean_staleness_s": mean_staleness,
            "getinv": getinv_calls(&snap),
        }));
    }
    print_table(
        "Ablation 2: polling period vs staleness and GETINV traffic (900 s run, 5 updates)",
        &["policy", "mean staleness (s)", "GETINV"],
        &rows,
    );
    json
}

/// Ablation 3: delegation expiration vs callback volume (the §4.3.3
/// trade-off): short expirations churn delegations; long ones leave the
/// server tracking more state.
fn expiration_sweep() -> Vec<serde_json::Value> {
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for expiration_s in [30u64, 120, 600, 3600] {
        let config = DelegationConfig {
            expiration: Duration::from_secs(expiration_s),
            renewal: Duration::from_secs((expiration_s * 8 / 10).max(1)),
            ..DelegationConfig::default()
        };
        let sim = Sim::new();
        let session = Session::builder(SessionConfig {
            model: ConsistencyModel::DelegationCallback(config),
            sweep_interval: Some(Duration::from_secs(15)),
            ..SessionConfig::default()
        })
        .clients(2)
        .wan(LinkConfig::wan())
        .establish(&sim);
        let (t0, t1) = (session.client_transport(0), session.client_transport(1));
        let root = session.root_fh();
        let stats = session.wan_stats().clone();
        let handle = session.handle();
        let session = Arc::new(session);
        let tracked = Arc::new(Mutex::new(0usize));
        let s2 = Arc::clone(&session);
        let tr = Arc::clone(&tracked);
        sim.spawn("working-set", move || {
            let c = NfsClient::new(t0, root, MountOptions::noac());
            for n in 0..100 {
                c.write_file(&format!("/ws-{n:03}"), b"w").unwrap();
            }
            // Re-read the working set every 20 s for 10 minutes.
            for _ in 0..30 {
                for n in 0..100 {
                    let _ = c.stat(&format!("/ws-{n:03}"));
                }
                gvfs_netsim::sleep(Duration::from_secs(20));
            }
            *tr.lock() = s2.proxy_server().scale_stats().deleg_files;
        });
        sim.spawn("occasional", move || {
            let c = NfsClient::new(t1, root, MountOptions::noac());
            gvfs_netsim::sleep(Duration::from_secs(300));
            for n in 0..20 {
                if let Ok(fh) = c.resolve(&format!("/ws-{n:03}")) {
                    let _ = c.write(fh, 0, b"x");
                }
            }
            gvfs_netsim::sleep(Duration::from_secs(330));
            handle.shutdown();
        });
        sim.run();
        let snap = stats.snapshot();
        let callbacks = gvfs_bench::callback_calls(&snap);
        rows.push(vec![
            format!("{expiration_s}s"),
            callbacks.to_string(),
            nfs_calls(&snap, proc3::GETATTR).to_string(),
            tracked.lock().to_string(),
        ]);
        json.push(serde_json::json!({
            "expiration_s": expiration_s,
            "callbacks": callbacks,
            "getattr": nfs_calls(&snap, proc3::GETATTR),
            "tracked_files_at_end": *tracked.lock(),
        }));
    }
    print_table(
        "Ablation 3: delegation expiration (100-file working set + 20-file writer burst)",
        &["expiration", "CALLBACK", "GETATTR", "tracked files"],
        &rows,
    );
    json
}

/// Ablation 4: partial write-back threshold vs the latency a contending
/// reader observes when recalling a large dirty file.
fn writeback_threshold_sweep() -> Vec<serde_json::Value> {
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for threshold in [1usize, 4, 16, 1 << 20] {
        let config = DelegationConfig {
            partial_writeback_threshold: threshold,
            ..DelegationConfig::default()
        };
        let sim = Sim::new();
        let session = Session::builder(SessionConfig {
            model: ConsistencyModel::DelegationCallback(config),
            write_back: true,
            ..SessionConfig::default()
        })
        .clients(2)
        .wan(LinkConfig::wan())
        .establish(&sim);
        let (t0, t1) = (session.client_transport(0), session.client_transport(1));
        let root = session.root_fh();
        let handle = session.handle();
        let latency = Arc::new(Mutex::new(0.0f64));
        sim.spawn("producer", move || {
            let c = NfsClient::new(t0, root, MountOptions::noac());
            let fh = c.write_file("/big", b"seed").unwrap();
            // 32 dirty blocks (1 MiB) under a write delegation.
            c.write(fh, 0, &vec![7u8; 32 * 32 * 1024]).unwrap();
            gvfs_netsim::sleep(Duration::from_secs(3600));
        });
        let lat = Arc::clone(&latency);
        sim.spawn("reader", move || {
            let c = NfsClient::new(t1, root, MountOptions::noac());
            gvfs_netsim::sleep(Duration::from_secs(10));
            let t0 = gvfs_netsim::now();
            let fh = c.open("/big").unwrap();
            let _ = c.read(fh, 31 * 32 * 1024, 32 * 1024).unwrap();
            *lat.lock() = gvfs_netsim::now().saturating_since(t0).as_secs_f64();
            gvfs_netsim::sleep(Duration::from_secs(120)); // let the flusher drain
            handle.shutdown();
        });
        sim.run();
        let observed = *latency.lock();
        let label =
            if threshold >= 1 << 20 { "inline (∞)".to_string() } else { threshold.to_string() };
        rows.push(vec![label, format!("{:.3}", observed)]);
        json.push(serde_json::json!({
            "threshold_blocks": threshold,
            "reader_latency_s": observed,
        }));
    }
    print_table(
        "Ablation 4: partial write-back threshold (1 MiB dirty; reader wants one block)",
        &["threshold (blocks)", "reader latency (s)"],
        &rows,
    );
    json
}

/// Ablation 5: write-back pipelining. One client dirties 32 blocks
/// (4 KiB in each 32 KiB block, so the flush sends partial segments)
/// and unmounts; the flush drain is timed with pipelining on and off.
/// Pipelined, the batch pays 32 serializations and one WAN round trip;
/// serial, every block pays its own round trip.
fn pipelining_sweep() -> Vec<serde_json::Value> {
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut drains = [0.0f64; 2];
    for (i, pipeline) in [false, true].into_iter().enumerate() {
        let sim = Sim::new();
        let session = Session::builder(SessionConfig {
            model: ConsistencyModel::InvalidationPolling {
                period: Duration::from_secs(30),
                backoff_max: None,
            },
            write_back: true,
            pipeline_writeback: pipeline,
            ..SessionConfig::default()
        })
        .clients(1)
        .wan(LinkConfig::wan())
        .establish(&sim);
        let t = session.client_transport(0);
        let root = session.root_fh();
        let stats = session.wan_stats().clone();
        let handle = session.handle();
        let drain = Arc::new(Mutex::new(0.0f64));
        let d2 = Arc::clone(&drain);
        sim.spawn("trickler", move || {
            let c = NfsClient::new(t, root, MountOptions::noac());
            let fh = c.write_file("/trickle", b"seed").unwrap();
            for block in 0..32u64 {
                c.write(fh, block * 32 * 1024, &[9u8; 4096]).unwrap();
            }
            // Unmounting drains the delayed writes; time that drain.
            let t0 = gvfs_netsim::now();
            handle.shutdown();
            *d2.lock() = gvfs_netsim::now().saturating_since(t0).as_secs_f64();
        });
        sim.run();
        let snap = stats.snapshot();
        let drained = *drain.lock();
        drains[i] = drained;
        rows.push(vec![
            if pipeline { "pipelined" } else { "serial" }.to_string(),
            format!("{:.3}", drained),
            snap.max_in_flight().to_string(),
        ]);
        json.push(serde_json::json!({
            "pipeline": pipeline,
            "flush_drain_s": drained,
            "rpc": rpc_meta(&snap),
        }));
    }
    let speedup = drains[0] / drains[1];
    print_table(
        "Ablation 5: write-back pipelining (32 dirty blocks flushed at unmount)",
        &["mode", "flush drain (s)", "max in-flight"],
        &rows,
    );
    println!("pipelining speedup: {speedup:.1}x (target: >=2x)");
    assert!(speedup >= 2.0, "pipelined flush must drain >=2x faster, got {speedup:.2}x");
    json.push(serde_json::json!({ "speedup": speedup }));
    json
}

/// Ablation 6: the read path. A cold sequential read of a 1 MiB file
/// over a long-fat link (200 ms RTT, 100 Mbit/s — latency-bound, so
/// round trips dominate), under two arms: gap-only concurrent miss
/// fetching (read-ahead window 0, the baseline) and gap fetching with
/// the sequential read-ahead window.
fn readahead_sweep() -> Vec<serde_json::Value> {
    const BLOCKS: u64 = 32;
    const BLOCK: u64 = 32 * 1024;
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut times = Vec::new();
    for (label, window) in [("gap-only", 0usize), ("gap+readahead", 8)] {
        let sim = Sim::new();
        let session = Session::builder(SessionConfig {
            model: ConsistencyModel::InvalidationPolling {
                period: Duration::from_secs(300),
                backoff_max: None,
            },
            readahead_window: window,
            ..SessionConfig::default()
        })
        .clients(1)
        .wan(LinkConfig::wan().with_rtt(Duration::from_millis(200)).with_bandwidth_bps(100_000_000))
        .establish(&sim);
        let t = session.client_transport(0);
        let root = session.root_fh();
        let stats = session.wan_stats().clone();
        let handle = session.handle();
        // Seed server-side so the proxy cache is genuinely cold.
        let seed_t = gvfs_vfs::Timestamp::from_nanos(0);
        let vfs = session.vfs();
        let f = vfs.create(vfs.root(), "seq", 0o644, seed_t).unwrap();
        vfs.write(f, 0, &vec![6u8; (BLOCKS * BLOCK) as usize], seed_t).unwrap();
        let session = Arc::new(session);
        let s2 = Arc::clone(&session);
        let elapsed = Arc::new(Mutex::new(0.0f64));
        let el = Arc::clone(&elapsed);
        let read_path = Arc::new(Mutex::new(serde_json::Value::Null));
        let rp = Arc::clone(&read_path);
        sim.spawn("reader", move || {
            let c = NfsClient::new(t, root, MountOptions::noac());
            let fh = c.open("/seq").unwrap();
            let t0 = gvfs_netsim::now();
            for b in 0..BLOCKS {
                let data = c.read(fh, b * BLOCK, BLOCK as u32).unwrap();
                assert_eq!(data, vec![6u8; BLOCK as usize], "block {b} content");
            }
            *el.lock() = gvfs_netsim::now().saturating_since(t0).as_secs_f64();
            *rp.lock() = gvfs_bench::read_path_json(&s2.proxy_client(0).stats());
            handle.shutdown();
        });
        sim.run();
        let snap = stats.snapshot();
        let t = *elapsed.lock();
        times.push(t);
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", t),
            nfs_calls(&snap, proc3::READ).to_string(),
            snap.max_in_flight().to_string(),
        ]);
        json.push(serde_json::json!({
            "arm": label,
            "cold_sequential_s": t,
            "wan_reads": nfs_calls(&snap, proc3::READ),
            "read_path": read_path.lock().clone(),
            "rpc": rpc_meta(&snap),
        }));
    }
    let speedup = times[0] / times[1];
    print_table(
        "Ablation 6: read path (1 MiB cold sequential read, 200 ms RTT)",
        &["arm", "cold read (s)", "WAN READs", "max in-flight"],
        &rows,
    );
    println!("read-ahead speedup over gap-only: {speedup:.1}x (target: >=2x)");
    assert!(speedup >= 2.0, "read-ahead must beat gap-only reads >=2x, got {speedup:.2}x");
    json.push(serde_json::json!({ "speedup": speedup }));
    json
}

/// Ablation 7: availability under a WAN partition. A delegation client
/// with a warm cache reads one hot file every 100 ms across a scripted
/// 60 s partition of a 200 ms-RTT link. With the ladder off
/// (`max_staleness: None`) the first read whose renewal lapsed blocks in
/// the retry loop for the rest of the outage, like a hard NFS mount.
/// With the ladder on, the breaker opens after a few fast failures and
/// the session degrades to bounded-staleness cache-only reads, so the
/// reader keeps completing operations until the heal re-promotes it.
fn degradation_sweep() -> Vec<serde_json::Value> {
    const PARTITION_AT: f64 = 5.0;
    const PARTITION_END: f64 = 65.0;
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut ops = [0u64; 2];
    for (i, (label, staleness)) in
        [("hard-retry", None), ("degraded", Some(Duration::from_secs(120)))].into_iter().enumerate()
    {
        let config = SessionConfig {
            model: ConsistencyModel::DelegationCallback(DelegationConfig {
                // A short renewal so the reader's delegation lapses
                // early in the outage and reads must face the WAN.
                renewal: Duration::from_secs(5),
                lease: Duration::from_secs(30),
                ..DelegationConfig::default()
            }),
            max_staleness: staleness,
            ..SessionConfig::default()
        };
        let sim = Sim::new();
        let session = Session::builder(config)
            .clients(1)
            .wan(LinkConfig::wan().with_rtt(Duration::from_millis(200)))
            .establish(&sim);
        let t = session.client_transport(0);
        let root = session.root_fh();
        let handle = session.handle();
        let session = Arc::new(session);
        let s2 = Arc::clone(&session);
        let counted = Arc::new(Mutex::new((0u64, 0u64, 0u64)));
        let ct = Arc::clone(&counted);
        sim.spawn("survivor", move || {
            let c = NfsClient::new(t, root, MountOptions::noac());
            gvfs_netsim::sleep(Duration::from_secs(1));
            let fh = c.write_file("/hot", &[5u8; 4096]).unwrap();
            let mut in_window = 0u64;
            while gvfs_netsim::now().as_secs_f64() < 75.0 {
                if c.read(fh, 0, 4096).is_ok() {
                    let done = gvfs_netsim::now().as_secs_f64();
                    if (PARTITION_AT..PARTITION_END).contains(&done) {
                        in_window += 1;
                    }
                }
                gvfs_netsim::sleep(Duration::from_millis(100));
            }
            let stats = s2.proxy_client(0).stats();
            *ct.lock() = (in_window, s2.proxy_client(0).breaker().trips(), stats.degraded_reads);
            handle.shutdown();
        });
        {
            let session = Arc::clone(&session);
            sim.spawn("partitioner", move || {
                gvfs_netsim::sleep(Duration::from_secs_f64(PARTITION_AT));
                session.wan_link(0).set_partitioned(true);
                gvfs_netsim::sleep(Duration::from_secs_f64(PARTITION_END - PARTITION_AT));
                session.wan_link(0).set_partitioned(false);
            });
        }
        sim.run();
        let (in_window, trips, degraded_reads) = *counted.lock();
        ops[i] = in_window;
        rows.push(vec![
            label.to_string(),
            in_window.to_string(),
            trips.to_string(),
            degraded_reads.to_string(),
        ]);
        json.push(serde_json::json!({
            "arm": label,
            "reads_during_partition": in_window,
            "breaker_trips": trips,
            "degraded_reads": degraded_reads,
        }));
    }
    let gain = ops[1] as f64 / ops[0].max(1) as f64;
    print_table(
        "Ablation 7: degradation ladder (60 s partition, 200 ms RTT, hot-file reads every 100 ms)",
        &["arm", "reads in partition", "breaker trips", "degraded reads"],
        &rows,
    );
    println!("availability gain: {gain:.1}x (target: >=10x)");
    assert!(
        gain >= 10.0,
        "the ladder must complete >=10x more reads mid-partition, got {gain:.1}x"
    );
    json.push(serde_json::json!({ "availability_gain": gain }));
    json
}

/// Ablation 8: recall fan-out. A writer invalidates a file held by 1k
/// read delegations; the server must recall every holder before the
/// write completes. Sequential issue-and-wait (window 1, the pre-rework
/// shape) pays one WAN round trip per holder; the bounded window
/// overlaps them, bounded only by the in-flight cap. The window must
/// win by >=2x (in practice it wins by the window size, minus the
/// short issue phase).
fn fanout_sweep() -> Vec<serde_json::Value> {
    let clients = if small_mode() { 96 } else { 1000 };
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut round = [0.0f64; 2];
    for (i, (label, window)) in
        [("sequential-wait", 1usize), ("bounded-window", 64)].into_iter().enumerate()
    {
        let (round_s, block) = fanout_round(clients, window);
        round[i] = round_s;
        rows.push(vec![
            label.to_string(),
            window.to_string(),
            format!("{round_s:.3}"),
            format!("{:.0}", clients as f64 / round_s),
        ]);
        json.push(serde_json::json!({ "arm": label, "holders": clients, "detail": block }));
    }
    let speedup = round[0] / round[1];
    print_table(
        "Ablation 8: recall fan-out window (1k holders, one shared-file invalidation)",
        &["arm", "window", "recall round (s)", "recalls/s"],
        &rows,
    );
    println!("fan-out speedup: {speedup:.1}x (target: >=2x)");
    assert!(
        speedup >= 2.0,
        "the bounded window must beat sequential-wait >=2x at {clients} holders,          got {speedup:.2}x"
    );
    json.push(serde_json::json!({ "fanout_speedup": speedup }));
    json
}

/// Ablation 9: peer-to-peer block sourcing. A staggered fan-in of
/// clients behind 200 ms-RTT WAN links cold-reads the same shared file.
/// On the star topology every block of every client pays the WAN; with
/// `PEERREAD` on, the origin serves each client one attestation-bearing
/// READ and the remaining blocks arrive from advertised peers over the
/// LAN, so the mean per-client cold read collapses.
fn peerread_sweep() -> Vec<serde_json::Value> {
    const BLOCK: u64 = 32 * 1024;
    // Blocks stay at 16 even in small mode: with fewer the per-client
    // fixed WAN costs (open + the attestation-bearing first READ)
    // dominate both arms and flatten the ratio.
    let (clients, blocks) = if small_mode() { (6usize, 16u64) } else { (12, 16) };
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut means = [0.0f64; 2];
    for (i, (label, peer_read)) in [("star", false), ("peer", true)].into_iter().enumerate() {
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
        let seed_t = gvfs_vfs::Timestamp::from_nanos(0);
        let vfs = session.vfs();
        let f = vfs.create(vfs.root(), "shared", 0o644, seed_t).unwrap();
        vfs.write(f, 0, &vec![3u8; (blocks * BLOCK) as usize], seed_t).unwrap();
        let stats = session.wan_stats().clone();
        let peer_stats = session.peer_stats().clone();
        let walls = Arc::new(Mutex::new(Vec::new()));
        let done = Arc::new(Mutex::new(0usize));
        for n in 0..clients {
            let t = session.client_transport(n);
            let root = session.root_fh();
            let handle = session.handle();
            let walls = Arc::clone(&walls);
            let done = Arc::clone(&done);
            sim.spawn(&format!("fan-in-{n}"), move || {
                if n > 0 {
                    // Client 0 seeds the mesh; the rest fan in with a
                    // small stagger (a couple overlap at any moment).
                    gvfs_netsim::sleep(Duration::from_millis(30_000 + n as u64 * 200));
                }
                let c = NfsClient::new(t, root, MountOptions::noac());
                let t0 = gvfs_netsim::now();
                let fh = c.open("/shared").unwrap();
                for b in 0..blocks {
                    let data = c.read(fh, b * BLOCK, BLOCK as u32).unwrap();
                    assert_eq!(data, vec![3u8; BLOCK as usize], "client {n} block {b}");
                }
                if n > 0 {
                    walls.lock().push(gvfs_netsim::now().saturating_since(t0).as_secs_f64());
                }
                let mut d = done.lock();
                *d += 1;
                if *d == clients {
                    handle.shutdown();
                }
            });
        }
        sim.run();
        let walls = walls.lock();
        let mean = walls.iter().sum::<f64>() / walls.len() as f64;
        means[i] = mean;
        let snap = stats.snapshot();
        let peerreads = gvfs_bench::peerread_calls(&peer_stats.snapshot());
        rows.push(vec![
            label.to_string(),
            format!("{mean:.3}"),
            nfs_calls(&snap, proc3::READ).to_string(),
            peerreads.to_string(),
        ]);
        json.push(serde_json::json!({
            "arm": label,
            "clients": clients,
            "mean_cold_read_s": mean,
            "wan_reads": nfs_calls(&snap, proc3::READ),
            "peerreads": peerreads,
        }));
    }
    let speedup = means[0] / means[1];
    print_table(
        "Ablation 9: peer sourcing (cold fan-in on one shared file, 200 ms RTT)",
        &["arm", "mean cold read (s)", "WAN READs", "PEERREADs"],
        &rows,
    );
    println!("peer-sourcing speedup: {speedup:.1}x (target: >=2x)");
    assert!(
        speedup >= 2.0,
        "peer sourcing must beat the star topology >=2x on the fan-in, got {speedup:.2}x"
    );
    json.push(serde_json::json!({ "speedup": speedup }));
    json
}

/// Ablation 10: self-healing scrub. One delegation client cold-reads a
/// 16-block file into its persistent cache (every block distinct, so
/// each lands in its own content-addressed chunk), then every chunk on
/// the platter is corrupted. Both arms must serve zero corrupt reads —
/// verify-on-read quarantines rot into misses either way. The arms
/// differ in *when* the damage is repaired: without the scrubber every
/// re-read pays a demand refetch over the WAN (`refetch_repairs`);
/// with it the background sweep has already refetched every block by
/// the time the reader arrives (`scrub_repairs`), and the re-read runs
/// at LAN speed off the repaired cache.
fn scrub_sweep() -> Vec<serde_json::Value> {
    const BLOCK: u64 = 32 * 1024;
    const BLOCKS: u64 = 16;
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut walls = [0.0f64; 2];
    for (i, (label, period)) in
        [("demand-repair", None), ("scrub", Some(Duration::from_millis(500)))]
            .into_iter()
            .enumerate()
    {
        let sim = Sim::new();
        let session = Session::builder(SessionConfig {
            model: ConsistencyModel::DelegationCallback(DelegationConfig::default()),
            persistent_store: true,
            scrub_period: period,
            ..SessionConfig::default()
        })
        .clients(1)
        .wan(LinkConfig::wan().with_rtt(Duration::from_millis(200)).with_bandwidth_bps(100_000_000))
        .establish(&sim);
        // Seed server-side, each block distinct: 16 chunks, no dedup.
        let seed_t = gvfs_vfs::Timestamp::from_nanos(0);
        let vfs = session.vfs();
        let f = vfs.create(vfs.root(), "rotme", 0o644, seed_t).unwrap();
        let mut content = Vec::with_capacity((BLOCKS * BLOCK) as usize);
        for b in 0..BLOCKS {
            content.extend(std::iter::repeat_n(0x40 + b as u8, BLOCK as usize));
        }
        vfs.write(f, 0, &content, seed_t).unwrap();
        let disk = session.client_disk(0).expect("persistent store has a disk");
        let session = Arc::new(session);
        let s2 = Arc::clone(&session);
        let cold_t = session.client_transport(0);
        let warm_t = session.client_transport(0);
        let root = session.root_fh();
        let handle = session.handle();
        let wall = Arc::new(Mutex::new(0.0f64));
        let w2 = Arc::clone(&wall);
        let rotted = Arc::new(Mutex::new(0usize));
        let r2 = Arc::clone(&rotted);
        sim.spawn("scrub-ablation", move || {
            let c = NfsClient::new(cold_t, root, MountOptions::noac());
            let fh = c.open("/rotme").unwrap();
            for b in 0..BLOCKS {
                let data = c.read(fh, b * BLOCK, BLOCK as u32).unwrap();
                assert_eq!(data, vec![0x40 + b as u8; BLOCK as usize], "cold block {b}");
            }
            // Rot every stored chunk, one flipped byte each.
            let mut n = 0usize;
            for path in disk.list("chunks/") {
                if disk.corrupt_byte(&path, 17, 0x80) {
                    n += 1;
                }
            }
            *r2.lock() = n;
            // Give the scrub arm time for a few sweeps; the demand arm
            // idles identically so the two timelines stay comparable.
            gvfs_netsim::sleep(Duration::from_secs(10));
            // A fresh mount, so the re-reads come back through the
            // proxy's stored bytes instead of the first client's page
            // cache.
            let c = NfsClient::new(warm_t, root, MountOptions::noac());
            let fh = c.open("/rotme").unwrap();
            let t0 = gvfs_netsim::now();
            for b in 0..BLOCKS {
                let data = c.read(fh, b * BLOCK, BLOCK as u32).unwrap();
                assert_eq!(
                    data,
                    vec![0x40 + b as u8; BLOCK as usize],
                    "re-read block {b} must never see rot"
                );
            }
            *w2.lock() = gvfs_netsim::now().saturating_since(t0).as_secs_f64();
            handle.shutdown();
        });
        sim.run();
        let stats = s2.proxy_client(0).stats();
        let rotted = *rotted.lock();
        let wall_s = *wall.lock();
        walls[i] = wall_s;
        assert_eq!(rotted, BLOCKS as usize, "every chunk must take a flipped byte");
        assert_eq!(
            stats.integrity_failures, BLOCKS,
            "every rotted chunk must fail exactly one verification ({label})"
        );
        assert_eq!(stats.integrity_dirty_loss, 0, "only clean data was rotted ({label})");
        let (repairs, kind) = match period {
            None => (stats.refetch_repairs, "demand"),
            Some(_) => (stats.scrub_repairs, "scrub"),
        };
        assert_eq!(
            repairs, BLOCKS,
            "{label}: all {BLOCKS} rotted blocks must be repaired by the {kind} path, stats: {stats:?}"
        );
        rows.push(vec![
            label.to_string(),
            rotted.to_string(),
            format!("{:.3}", wall_s),
            stats.refetch_repairs.to_string(),
            stats.scrub_repairs.to_string(),
        ]);
        json.push(serde_json::json!({
            "arm": label,
            "corrupted_blocks": rotted,
            "reread_s": wall_s,
            "read_path": gvfs_bench::read_path_json(&stats),
        }));
    }
    let speedup = walls[0] / walls[1];
    print_table(
        "Ablation 10: self-healing scrub (16 corrupted blocks, 200 ms RTT)",
        &["arm", "corrupted", "re-read (s)", "demand repairs", "scrub repairs"],
        &rows,
    );
    println!("scrubbed re-read speedup over demand repair: {speedup:.1}x (target: >=2x)");
    assert!(
        speedup >= 2.0,
        "the scrubbed cache must re-read >=2x faster than demand repair, got {speedup:.2}x"
    );
    json.push(serde_json::json!({ "speedup": speedup }));
    json
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let only = args.iter().position(|a| a == "--only").and_then(|i| args.get(i + 1)).cloned();
    let run = |name: &str| only.as_deref().is_none_or(|o| o == name);

    let mut doc: Vec<(String, serde_json::Value)> = Vec::new();
    doc.push(("experiment".into(), serde_json::json!("ablations")));
    if run("buffer-capacity") {
        doc.push(("buffer_capacity".into(), buffer_capacity_sweep().into()));
    }
    if run("polling-period") {
        doc.push(("polling_period".into(), polling_period_sweep().into()));
    }
    if run("delegation-expiration") {
        doc.push(("delegation_expiration".into(), expiration_sweep().into()));
    }
    if run("writeback-threshold") {
        doc.push(("writeback_threshold".into(), writeback_threshold_sweep().into()));
    }
    if run("pipelining") {
        doc.push(("pipelining".into(), pipelining_sweep().into()));
    }
    if run("readahead") {
        doc.push(("readahead".into(), readahead_sweep().into()));
    }
    if run("degradation") {
        doc.push(("degradation".into(), degradation_sweep().into()));
    }
    if run("fanout") {
        doc.push(("fanout".into(), fanout_sweep().into()));
    }
    if run("peerread") {
        doc.push(("peerread".into(), peerread_sweep().into()));
    }
    if run("scrub") {
        doc.push(("scrub".into(), scrub_sweep().into()));
    }
    // A partial run must not clobber the full committed results.
    let name = if only.is_some() { "ablations-partial.json" } else { "ablations.json" };
    save_json(name, &serde_json::Value::Object(doc));
}
