//! End-to-end consistency tests: kernel clients → proxy clients → WAN →
//! proxy server → kernel NFS server, under each consistency model.

use gvfs_client::{ClientError, MountOptions, NfsClient};
use gvfs_core::session::{NativeMount, Session, SessionConfig};
use gvfs_core::ConsistencyModel;
use gvfs_core::DelegationConfig;
use gvfs_netsim::link::LinkConfig;
use gvfs_netsim::Sim;
use gvfs_nfs3::{proc3, Nfsstat3};
use gvfs_rpc::stats::StatsSnapshot;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

fn polling(period_secs: u64) -> SessionConfig {
    SessionConfig {
        model: ConsistencyModel::InvalidationPolling {
            period: Duration::from_secs(period_secs),
            backoff_max: None,
        },
        ..SessionConfig::default()
    }
}

fn delegation() -> SessionConfig {
    SessionConfig { model: ConsistencyModel::delegation(), ..SessionConfig::default() }
}

/// Sums calls across the NFS and GVFS-proxy programs for one procedure.
fn wan_calls(snap: &StatsSnapshot, procedure: u32) -> u64 {
    snap.calls(gvfs_nfs3::NFS_PROGRAM, procedure)
        + snap.calls(gvfs_core::protocol::GVFS_PROXY_PROGRAM, procedure)
}

#[test]
fn polling_proxy_absorbs_getattr_storm() {
    let sim = Sim::new();
    let session = Session::builder(polling(30)).clients(1).establish(&sim);
    let transport = session.client_transport(0);
    let root = session.root_fh();
    let wan = session.wan_stats().clone();
    let handle = session.handle();
    sim.spawn("app", move || {
        // noac kernel: every stat reaches the proxy.
        let client = NfsClient::new(transport, root, MountOptions::noac());
        client.write_file("/f", b"data").unwrap();
        let before = wan.snapshot();
        for _ in 0..200 {
            client.stat("/f").unwrap();
        }
        let delta = wan.snapshot().since(&before);
        assert_eq!(
            wan_calls(&delta, proc3::GETATTR),
            0,
            "proxy cache must absorb all revalidations: {delta}"
        );
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn polling_invalidation_propagates_within_window() {
    let sim = Sim::new();
    let session = Session::builder(polling(30)).clients(2).establish(&sim);
    let (t0, t1) = (session.client_transport(0), session.client_transport(1));
    let root = session.root_fh();
    let handle = session.handle();
    let seen_at = Arc::new(Mutex::new(None));
    let writer_done = Arc::new(Mutex::new(false));

    let wd = writer_done.clone();
    sim.spawn("writer", move || {
        let c = NfsClient::new(t0, root, MountOptions::noac());
        c.write_file("/shared", b"v1").unwrap();
        gvfs_netsim::sleep(Duration::from_secs(100));
        let fh = c.resolve("/shared").unwrap();
        c.write(fh, 0, b"v2").unwrap();
        *wd.lock() = true;
    });
    let sa = seen_at.clone();
    sim.spawn("reader", move || {
        let c = NfsClient::new(t1, root, MountOptions::noac());
        gvfs_netsim::sleep(Duration::from_secs(50));
        assert_eq!(c.read_file("/shared").unwrap(), b"v1");
        // Poll for the new version; relaxed model may serve v1 for up
        // to one polling window.
        let write_time = 100.0;
        loop {
            gvfs_netsim::sleep(Duration::from_secs(2));
            let data = c.read_file("/shared").unwrap();
            if data == b"v2" {
                *sa.lock() = Some(gvfs_netsim::now().as_secs_f64() - write_time);
                break;
            }
        }
        handle.shutdown();
    });
    sim.run();
    let delay = seen_at.lock().expect("reader saw v2");
    assert!(delay <= 35.0, "stale window bounded by polling period, got {delay}");
    assert!(*writer_done.lock());
}

#[test]
fn polling_getinv_traffic_is_periodic_and_small() {
    let sim = Sim::new();
    let session = Session::builder(polling(30)).clients(1).establish(&sim);
    let transport = session.client_transport(0);
    let root = session.root_fh();
    let wan = session.wan_stats().clone();
    let handle = session.handle();
    sim.spawn("app", move || {
        let client = NfsClient::new(transport, root, MountOptions::noac());
        client.write_file("/f", b"x").unwrap();
        let before = wan.snapshot();
        gvfs_netsim::sleep(Duration::from_secs(300)); // ten polling windows
        let delta = wan.snapshot().since(&before);
        let getinvs = delta
            .calls(gvfs_core::protocol::GVFS_PROXY_PROGRAM, gvfs_core::protocol::proc_ext::GETINV);
        assert!((9..=11).contains(&getinvs), "expected ~10 GETINVs, got {getinvs}");
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn delegation_gives_strong_consistency() {
    let sim = Sim::new();
    let session = Session::builder(delegation()).clients(2).establish(&sim);
    let (t0, t1) = (session.client_transport(0), session.client_transport(1));
    let root = session.root_fh();
    let handle = session.handle();
    sim.spawn("writer", move || {
        let c = NfsClient::new(t0, root, MountOptions::noac());
        c.write_file("/strong", b"one").unwrap();
        gvfs_netsim::sleep(Duration::from_secs(10));
        let fh = c.resolve("/strong").unwrap();
        c.write(fh, 0, b"two").unwrap();
    });
    sim.spawn("reader", move || {
        let c = NfsClient::new(t1, root, MountOptions::noac());
        gvfs_netsim::sleep(Duration::from_secs(5));
        assert_eq!(c.read_file("/strong").unwrap(), b"one");
        // Immediately after the write lands, the view must be current:
        // the write recalled our read delegation.
        gvfs_netsim::sleep(Duration::from_secs(6));
        assert_eq!(c.read_file("/strong").unwrap(), b"two");
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn delegation_caches_locally_without_extra_calls() {
    let sim = Sim::new();
    let session = Session::builder(delegation()).clients(1).establish(&sim);
    let transport = session.client_transport(0);
    let root = session.root_fh();
    let wan = session.wan_stats().clone();
    let handle = session.handle();
    sim.spawn("app", move || {
        let client = NfsClient::new(transport, root, MountOptions::noac());
        client.write_file("/f", &[9u8; 50_000]).unwrap();
        let _ = client.read_file("/f").unwrap();
        let before = wan.snapshot();
        for _ in 0..50 {
            let _ = client.read_file("/f").unwrap();
            client.stat("/f").unwrap();
        }
        let delta = wan.snapshot().since(&before);
        assert_eq!(delta.total_calls(), 0, "delegated reads are fully local: {delta}");
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn write_back_delays_and_coalesces_writes() {
    let config = SessionConfig { write_back: true, ..polling(30) };
    let sim = Sim::new();
    let session = Session::builder(config).clients(1).establish(&sim);
    let transport = session.client_transport(0);
    let root = session.root_fh();
    let wan = session.wan_stats().clone();
    let vfs = Arc::clone(session.vfs());
    let handle = session.handle();
    sim.spawn("app", move || {
        let client = NfsClient::new(transport, root, MountOptions::noac());
        let fh = client.create_path("/wb", true).unwrap();
        let before = wan.snapshot();
        // Rewrite the same range many times.
        for round in 0..20u8 {
            client.write(fh, 0, &[round; 1000]).unwrap();
        }
        let delta = wan.snapshot().since(&before);
        assert_eq!(wan_calls(&delta, proc3::WRITE), 0, "writes delayed in the disk cache");
        // Unmount: the single coalesced extent goes back.
        handle.shutdown();
        let after = wan.snapshot().since(&before);
        assert_eq!(wan_calls(&after, proc3::WRITE), 1, "one coalesced write-back");
        let file = vfs.lookup_path("/wb").unwrap();
        assert_eq!(vfs.read(file, 0, 2000).unwrap().0, vec![19u8; 1000]);
    });
    sim.run();
}

#[test]
fn write_back_discards_writes_to_deleted_files() {
    let config = SessionConfig { write_back: true, ..polling(30) };
    let sim = Sim::new();
    let session = Session::builder(config).clients(1).establish(&sim);
    let transport = session.client_transport(0);
    let root = session.root_fh();
    let wan = session.wan_stats().clone();
    let handle = session.handle();
    sim.spawn("app", move || {
        let client = NfsClient::new(transport, root, MountOptions::noac());
        let fh = client.create_path("/tmp_obj", true).unwrap();
        client.write(fh, 0, &[1u8; 100_000]).unwrap();
        client.remove_path("/tmp_obj").unwrap();
        let before_shutdown = wan.snapshot();
        handle.shutdown();
        let delta = wan.snapshot().since(&before_shutdown);
        assert_eq!(
            wan_calls(&delta, proc3::WRITE),
            0,
            "temporary file data must never cross the WAN"
        );
    });
    sim.run();
}

#[test]
fn delegation_write_back_flushes_on_recall() {
    let config = SessionConfig { write_back: true, ..delegation() };
    let sim = Sim::new();
    let session = Session::builder(config).clients(2).establish(&sim);
    let (t0, t1) = (session.client_transport(0), session.client_transport(1));
    let root = session.root_fh();
    let handle = session.handle();
    sim.spawn("producer", move || {
        let c = NfsClient::new(t0, root, MountOptions::noac());
        let fh = c.write_file("/data", b"seed").unwrap();
        // Now delegated: delayed writes stay local.
        c.write(fh, 0, b"delayed-write-content").unwrap();
    });
    sim.spawn("consumer", move || {
        let c = NfsClient::new(t1, root, MountOptions::noac());
        gvfs_netsim::sleep(Duration::from_secs(30));
        // The read recalls the producer's write delegation; the dirty
        // data must be written back before we see the file.
        assert_eq!(c.read_file("/data").unwrap(), b"delayed-write-content");
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn partial_writeback_serves_contended_block_first() {
    let deleg = DelegationConfig { partial_writeback_threshold: 2, ..DelegationConfig::default() };
    let config = SessionConfig {
        write_back: true,
        model: ConsistencyModel::DelegationCallback(deleg),
        ..SessionConfig::default()
    };
    let sim = Sim::new();
    let session = Session::builder(config).clients(2).establish(&sim);
    let (t0, t1) = (session.client_transport(0), session.client_transport(1));
    let root = session.root_fh();
    let vfs = Arc::clone(session.vfs());
    let handle = session.handle();
    sim.spawn("producer", move || {
        let c = NfsClient::new(t0, root, MountOptions::noac());
        let fh = c.write_file("/big", b"seed").unwrap();
        // Dirty 8 blocks (8 × 32 KiB), far over the threshold of 2.
        c.write(fh, 0, &[7u8; 8 * 32768]).unwrap();
        gvfs_netsim::sleep(Duration::from_secs(3600)); // stay alive for the flusher
    });
    sim.spawn("consumer", move || {
        let c = NfsClient::new(t1, root, MountOptions::noac());
        gvfs_netsim::sleep(Duration::from_secs(30));
        let t_req = gvfs_netsim::now();
        // Read one late block: only that block must be written back
        // synchronously; the rest trickles in the background.
        let fh = c.open("/big").unwrap();
        let data = c.read(fh, 7 * 32768, 32768).unwrap();
        assert_eq!(data, vec![7u8; 32768]);
        let waited = gvfs_netsim::now().saturating_since(t_req);
        assert!(
            waited < Duration::from_secs(2),
            "must not wait for the full 256 KiB write-back: {waited:?}"
        );
        // Eventually the background flusher completes the file.
        gvfs_netsim::sleep(Duration::from_secs(60));
        let file = vfs.lookup_path("/big").unwrap();
        let (server_data, _) = vfs.read(file, 0, 8 * 32768).unwrap();
        assert_eq!(server_data, vec![7u8; 8 * 32768], "all dirty blocks flushed");
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn proxy_server_crash_polling_rebootstraps_with_force_invalidate() {
    let sim = Sim::new();
    let session = Session::builder(polling(10)).clients(1).establish(&sim);
    let transport = session.client_transport(0);
    let root = session.root_fh();
    let handle = session.handle();
    let session = Arc::new(session);
    let s2 = Arc::clone(&session);
    sim.spawn("app", move || {
        let client = NfsClient::new(transport, root, MountOptions::noac());
        client.write_file("/f", b"pre-crash").unwrap();
        // Crash and restart the proxy server between polls.
        s2.crash_proxy_server();
        gvfs_netsim::sleep(Duration::from_secs(2));
        s2.restart_proxy_server();
        gvfs_netsim::sleep(Duration::from_secs(30)); // poller re-bootstraps
                                                     // Everything still works; soft state was rebuilt.
        assert_eq!(client.read_file("/f").unwrap(), b"pre-crash");
        client.write_file("/g", b"post-crash").unwrap();
        assert_eq!(client.read_file("/g").unwrap(), b"post-crash");
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn proxy_server_crash_delegation_recovers_dirty_state() {
    let config = SessionConfig { write_back: true, ..delegation() };
    let sim = Sim::new();
    let session = Session::builder(config).clients(2).establish(&sim);
    let (t0, t1) = (session.client_transport(0), session.client_transport(1));
    let root = session.root_fh();
    let handle = session.handle();
    let session = Arc::new(session);
    let s2 = Arc::clone(&session);
    sim.spawn("producer", move || {
        let c = NfsClient::new(t0, root, MountOptions::noac());
        let fh = c.write_file("/survivor", b"seed").unwrap();
        c.write(fh, 0, b"dirty-after-crash").unwrap(); // delayed locally
                                                       // Wait for the consumer to have contacted the session too (the
                                                       // persisted client list drives the recovery multicast).
        gvfs_netsim::sleep(Duration::from_secs(10));
        // Proxy server crashes and recovers; RECOVER callbacks rebuild
        // the write-delegation state from our dirty list.
        s2.crash_proxy_server();
        gvfs_netsim::sleep(Duration::from_secs(1));
        let answered = s2.restart_proxy_server();
        assert_eq!(answered, 2);
        gvfs_netsim::sleep(Duration::from_secs(3600));
    });
    sim.spawn("consumer", move || {
        let c = NfsClient::new(t1, root, MountOptions::noac());
        gvfs_netsim::sleep(Duration::from_secs(2));
        let _ = c.readdir_all(root).unwrap(); // register with the session
        gvfs_netsim::sleep(Duration::from_secs(60));
        // Reading recalls the recovered write delegation; the delayed
        // write survives the server crash.
        assert_eq!(c.read_file("/survivor").unwrap(), b"dirty-after-crash");
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn proxy_client_crash_reconciles_or_corrupts() {
    let config = SessionConfig { write_back: true, ..delegation() };
    let sim = Sim::new();
    let session = Session::builder(config).clients(2).establish(&sim);
    let (t0, t1) = (session.client_transport(0), session.client_transport(1));
    let root = session.root_fh();
    let handle = session.handle();
    let session = Arc::new(session);
    let s2 = Arc::clone(&session);
    sim.spawn("victim", move || {
        let c = NfsClient::new(t0, root, MountOptions::noac());
        let clean_fh = c.write_file("/clean", b"seed-a").unwrap();
        let conflict_fh = c.write_file("/conflicted", b"seed-b").unwrap();
        c.write(clean_fh, 0, b"safe-x").unwrap(); // delayed
        c.write(conflict_fh, 0, b"lost-y").unwrap(); // delayed, will conflict
                                                     // "Crash": the victim machine drops off the network, so the
                                                     // recall triggered by the interferer cannot flush its dirty data.
        s2.wan_link(0).set_partitioned(true);
        gvfs_netsim::sleep(Duration::from_secs(100));
        s2.wan_link(0).set_partitioned(false);
        // Recover this proxy client: it reconciles with the server.
        let corrupted = s2.proxy_client(0).crash_recover();
        assert_eq!(corrupted.len(), 1, "only the conflicted file is corrupted");
        // The clean file's delayed write survived and reconciled.
        assert_eq!(c.read_file("/clean").unwrap(), b"safe-x");
        // The conflicted file reports an I/O error on access.
        c.drop_caches();
        assert!(matches!(c.read_file("/conflicted").unwrap_err(), ClientError::Nfs(Nfsstat3::Io)));
        handle.shutdown();
    });
    sim.spawn("interferer", move || {
        let c = NfsClient::new(t1, root, MountOptions::noac());
        gvfs_netsim::sleep(Duration::from_secs(60));
        // Modify /conflicted while the victim is "crashed". The write
        // recalls the victim's delegation, but the victim is
        // unreachable, so the server revokes it with nothing recovered;
        // the write then bumps the server mtime past the victim's base.
        let fh = c.resolve("/conflicted").unwrap();
        c.write(fh, 0, b"other!").unwrap();
    });
    sim.run();
}

#[test]
fn mount_protocol_bootstraps_through_the_proxy_chain() {
    // Kernel clients mount "in the same way as conventional NFS": the
    // MOUNT protocol travels kernel → proxy client → WAN → proxy server
    // → NFS host, and the returned root handle drives real NFS traffic.
    let sim = Sim::new();
    let session = Session::builder(polling(30)).clients(1).establish(&sim);
    let transport = session.client_transport(0);
    let handle = session.handle();
    sim.spawn("mounter", move || {
        assert!(
            gvfs_client::mount(&transport, "/no/such/export").is_err(),
            "unknown exports are refused"
        );
        let root = gvfs_client::mount(&transport, gvfs_core::session::EXPORT_PATH).unwrap();
        let client = NfsClient::new(transport, root, MountOptions::default());
        client.write_file("/mounted", b"via MOUNT").unwrap();
        assert_eq!(client.read_file("/mounted").unwrap(), b"via MOUNT");
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn native_mount_baseline_works() {
    let sim = Sim::new();
    let native = NativeMount::establish(2, LinkConfig::wan(), None);
    let (t0, t1) = (native.client_transport(0), native.client_transport(1));
    let root = native.root_fh();
    sim.spawn("a", move || {
        let c = NfsClient::new(t0, root, MountOptions::default());
        c.write_file("/x", b"native").unwrap();
    });
    sim.spawn("b", move || {
        let c = NfsClient::new(t1, root, MountOptions::default());
        gvfs_netsim::sleep(Duration::from_secs(5));
        assert_eq!(c.read_file("/x").unwrap(), b"native");
    });
    sim.run();
    assert!(native.stats().snapshot().total_calls() > 0);
}

#[test]
fn passthrough_session_preserves_semantics() {
    let sim = Sim::new();
    let session = Session::builder(SessionConfig::default()).clients(1).establish(&sim);
    let transport = session.client_transport(0);
    let root = session.root_fh();
    let wan = session.wan_stats().clone();
    let handle = session.handle();
    sim.spawn("app", move || {
        let client = NfsClient::new(transport, root, MountOptions::noac());
        client.write_file("/p", b"through").unwrap();
        let before = wan.snapshot();
        client.stat("/p").unwrap();
        client.stat("/p").unwrap();
        let delta = wan.snapshot().since(&before);
        assert!(
            wan_calls(&delta, proc3::GETATTR) >= 2,
            "passthrough must not absorb revalidations"
        );
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn proxy_client_stats_reflect_absorption() {
    let sim = Sim::new();
    let session = Session::builder(polling(30)).clients(1).establish(&sim);
    let transport = session.client_transport(0);
    let root = session.root_fh();
    let handle = session.handle();
    let session = Arc::new(session);
    let s2 = Arc::clone(&session);
    sim.spawn("app", move || {
        let client = NfsClient::new(transport, root, MountOptions::noac());
        client.write_file("/observed", b"data").unwrap();
        for _ in 0..100 {
            client.stat("/observed").unwrap();
        }
        let stats = s2.proxy_client(0).stats();
        assert!(stats.served_local >= 100, "the storm was served locally: {stats:?}");
        assert!(stats.forwarded < 20, "only the initial misses forwarded: {stats:?}");
        handle.shutdown();
    });
    sim.run();
}

/// A session that leaves `persistent_store` at its default still caches
/// into the block store, on a free disk, and a client restart there is
/// a process crash: the store is not replayed, and once the attributes
/// are revalidated the cached blocks are served warm.
#[test]
fn default_session_caches_into_the_store_and_restarts_as_a_process() {
    let config = polling(30);
    assert!(!config.persistent_store, "the default configuration");
    let sim = Sim::new();
    let session = Session::builder(config).clients(1).establish(&sim);
    let transport = session.client_transport(0);
    let root = session.root_fh();
    let wan = session.wan_stats().clone();
    let handle = session.handle();
    let session = Arc::new(session);
    let s2 = Arc::clone(&session);
    sim.spawn("app", move || {
        let data: Vec<u8> = (0..64 * 1024u32).map(|i| (i % 251) as u8).collect();
        let client = NfsClient::new(transport, root, MountOptions::noac());
        client.write_file("/kept", &data).unwrap();
        client.drop_caches();
        assert_eq!(client.read_file("/kept").unwrap(), data);
        let disk = s2.client_disk(0).expect("every session runs a store");
        assert!(disk.stats().bytes_written > 0, "the store wrote: {:?}", disk.stats());

        let before = disk.stats();
        s2.crash_proxy_client(0);
        assert!(s2.restart_proxy_client(0).is_empty(), "nothing was dirty");
        assert_eq!(disk.stats().reads, before.reads, "a process crash replays no log");
        assert_eq!(s2.proxy_client(0).stats().restart_warm_blocks, 0);

        client.drop_caches();
        let snap = wan.snapshot();
        assert_eq!(client.read_file("/kept").unwrap(), data);
        let delta = wan.snapshot().since(&snap);
        assert!(delta.total_calls() > 0, "the re-read revalidated: {delta}");
        assert_eq!(wan_calls(&delta, proc3::READ), 0, "the re-read was served warm: {delta}");
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn reads_merge_local_dirty_data_over_stale_server_bytes() {
    // Write-back holds dirty bytes locally; a read of a range that is
    // only partially cached must fetch the rest from the server and
    // overlay the local dirty data on top.
    let config = SessionConfig { write_back: true, ..polling(30) };
    let sim = Sim::new();
    let session = Session::builder(config).clients(1).establish(&sim);
    let transport = session.client_transport(0);
    let root = session.root_fh();
    let handle = session.handle();
    let session = Arc::new(session);
    let s2 = Arc::clone(&session);
    sim.spawn("app", move || {
        let client = NfsClient::new(transport, root, MountOptions::noac());
        // Server holds 100 KiB of zeros.
        let fh = client.create_path("/merged", true).unwrap();
        client.write(fh, 0, &vec![0u8; 100_000]).unwrap();
        // Forget local clean copies, then delay a small dirty write.
        s2.proxy_client(0).flush_all();
        client.drop_caches();
        client.write(fh, 50_000, &[9u8; 10]).unwrap(); // delayed (write-back)
        client.drop_caches(); // force the read through the proxy
        let data = client.read(fh, 49_990, 40).unwrap();
        let mut expected = vec![0u8; 40];
        expected[10..20].copy_from_slice(&[9u8; 10]);
        assert_eq!(data, expected, "dirty bytes overlay server data");
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn wan_partition_heals_transparently() {
    let sim = Sim::new();
    let session = Session::builder(polling(10)).clients(1).establish(&sim);
    let transport = session.client_transport(0);
    let root = session.root_fh();
    let handle = session.handle();
    let session = Arc::new(session);
    let s2 = Arc::clone(&session);
    sim.spawn("app", move || {
        let client = NfsClient::new(transport, root, MountOptions::noac());
        client.write_file("/f", b"before").unwrap();
        let link = Arc::clone(s2.wan_link(0));
        gvfs_netsim::spawn_from_actor("healer", move || {
            gvfs_netsim::sleep(Duration::from_secs(45));
            link.set_partitioned(false);
        });
        s2.wan_link(0).set_partitioned(true);
        // The proxy disk cache keeps serving what it has, even across
        // the partition — cached availability of the relaxed model.
        client.drop_caches();
        let t0 = gvfs_netsim::now();
        assert_eq!(client.read_file("/f").unwrap(), b"before");
        assert!(
            gvfs_netsim::now().saturating_since(t0) < Duration::from_secs(1),
            "cached data served during the partition"
        );
        // New work that must reach the server blocks until it heals.
        let t1 = gvfs_netsim::now();
        client.write_file("/g", b"after").unwrap();
        assert!(gvfs_netsim::now().saturating_since(t1) >= Duration::from_secs(40));
        handle.shutdown();
    });
    sim.run();
}
