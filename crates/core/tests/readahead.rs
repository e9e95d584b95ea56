//! Read-ahead pipeline tests: sequential detection, prefetch claiming,
//! and — the load-bearing property — that a prefetch in flight across an
//! invalidation (GETINV or callback recall) is provably discarded and
//! never resurrects stale data or clobbers a newer local write.

use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::session::{Session, SessionConfig};
use gvfs_core::ConsistencyModel;
use gvfs_netsim::link::LinkConfig;
use gvfs_netsim::Sim;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

const BLOCK: u64 = 32 * 1024; // gvfs_server::TRANSFER_SIZE

/// Seeds a file straight into the server-side VFS so the proxy cache
/// stays cold — a read of it is a true WAN miss.
fn seed(vfs: &Arc<gvfs_vfs::Vfs>, name: &str, data: &[u8]) {
    let t = gvfs_vfs::Timestamp::from_nanos(0);
    let f = vfs.create(vfs.root(), name, 0o644, t).expect("create seed file");
    vfs.write(f, 0, data, t).expect("write seed data");
}

fn polling(period_secs: u64) -> SessionConfig {
    SessionConfig {
        model: ConsistencyModel::InvalidationPolling {
            period: Duration::from_secs(period_secs),
            backoff_max: None,
        },
        ..SessionConfig::default()
    }
}

/// A link where pipelining matters: high propagation delay, enough
/// bandwidth that serialization does not dominate.
fn long_fat_link() -> LinkConfig {
    LinkConfig::wan().with_rtt(Duration::from_millis(200)).with_bandwidth_bps(100_000_000)
}

#[test]
fn sequential_read_triggers_prefetch_and_hits() {
    let sim = Sim::new();
    let session = Session::builder(polling(300)).clients(1).wan(long_fat_link()).establish(&sim);
    let transport = session.client_transport(0);
    let root = session.root_fh();
    let handle = session.handle();
    seed(session.vfs(), "seq", &vec![5u8; 16 * BLOCK as usize]);
    let session = Arc::new(session);
    let s2 = Arc::clone(&session);
    sim.spawn("app", move || {
        let client = NfsClient::new(transport, root, MountOptions::noac());
        let fh = client.open("/seq").unwrap();
        for b in 0..16u64 {
            let data = client.read(fh, b * BLOCK, BLOCK as u32).unwrap();
            assert_eq!(data, vec![5u8; BLOCK as usize], "block {b}");
        }
        let stats = s2.proxy_client(0).stats();
        assert!(stats.read_misses > 0, "cold read must miss: {stats:?}");
        assert!(stats.prefetch_issued >= 8, "window must open: {stats:?}");
        assert!(stats.prefetch_hits >= 8, "demand reads must claim prefetches: {stats:?}");
        assert_eq!(stats.prefetch_wasted, 0, "nothing invalidated: {stats:?}");
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn readahead_beats_gap_only_on_long_fat_link() {
    // The same cold sequential read, once with the read-ahead window and
    // once gap-only (window 0); virtual time must favor read-ahead by at
    // least 2x. This is the in-tree twin of the `readahead` bench
    // ablation gate. Returns the elapsed time, the WAN READs, and the
    // prefetches issued.
    fn run(window: usize) -> (Duration, u64, u64) {
        let config = SessionConfig { readahead_window: window, ..polling(300) };
        let sim = Sim::new();
        let session = Session::builder(config).clients(1).wan(long_fat_link()).establish(&sim);
        let transport = session.client_transport(0);
        let root = session.root_fh();
        let wan = session.wan_stats().clone();
        let handle = session.handle();
        seed(session.vfs(), "seq", &vec![7u8; 16 * BLOCK as usize]);
        let session = Arc::new(session);
        let s2 = Arc::clone(&session);
        let out = Arc::new(Mutex::new((Duration::ZERO, 0, 0)));
        let o = Arc::clone(&out);
        sim.spawn("app", move || {
            let client = NfsClient::new(transport, root, MountOptions::noac());
            let fh = client.open("/seq").unwrap();
            let before = wan.snapshot();
            let t0 = gvfs_netsim::now();
            for b in 0..16u64 {
                let data = client.read(fh, b * BLOCK, BLOCK as u32).unwrap();
                assert_eq!(data, vec![7u8; BLOCK as usize], "block {b}");
            }
            let elapsed = gvfs_netsim::now().saturating_since(t0);
            let delta = wan.snapshot().since(&before);
            let reads = delta.calls(gvfs_nfs3::NFS_PROGRAM, gvfs_nfs3::proc3::READ)
                + delta.calls(gvfs_core::protocol::GVFS_PROXY_PROGRAM, gvfs_nfs3::proc3::READ);
            *o.lock() = (elapsed, reads, s2.proxy_client(0).stats().prefetch_issued);
            handle.shutdown();
        });
        sim.run();
        let r = *out.lock();
        r
    }
    let (gap_only, gap_reads, gap_prefetches) = run(0);
    assert_eq!(gap_reads, 16, "gap-only fetches each cold block once");
    assert_eq!(gap_prefetches, 0, "window 0 never speculates");
    let (readahead, _, _) = run(8);
    assert!(
        gap_only >= readahead * 2,
        "read-ahead must at least halve the cold sequential read: gap-only {gap_only:?}, read-ahead {readahead:?}"
    );
}

#[test]
fn getinv_cancels_in_flight_prefetch() {
    // Reader's window is open (speculative READs pending) when a remote
    // write invalidates the file via GETINV. The pending prefetches must
    // be discarded — counted as wasted — and the next read must observe
    // the new version, never the prefetched stale bytes.
    let sim = Sim::new();
    let session = Session::builder(polling(30)).clients(2).establish(&sim);
    let (t0, t1) = (session.client_transport(0), session.client_transport(1));
    let root = session.root_fh();
    let handle = session.handle();
    let session = Arc::new(session);
    let s2 = Arc::clone(&session);
    sim.spawn("writer", move || {
        let c = NfsClient::new(t0, root, MountOptions::noac());
        let fh = c.write_file("/big", &vec![1u8; 6 * BLOCK as usize]).unwrap();
        gvfs_netsim::sleep(Duration::from_secs(60));
        c.write(fh, 3 * BLOCK, &vec![2u8; BLOCK as usize]).unwrap();
    });
    sim.spawn("reader", move || {
        let c = NfsClient::new(t1, root, MountOptions::noac());
        gvfs_netsim::sleep(Duration::from_secs(10));
        let fh = c.open("/big").unwrap();
        // Two sequential reads arm the detector; the window opens with
        // speculative READs for blocks 2..6 that nobody claims.
        assert_eq!(c.read(fh, 0, BLOCK as u32).unwrap(), vec![1u8; BLOCK as usize]);
        assert_eq!(c.read(fh, BLOCK, BLOCK as u32).unwrap(), vec![1u8; BLOCK as usize]);
        let armed = s2.proxy_client(1).stats();
        assert!(armed.prefetch_issued > 0, "window must be open: {armed:?}");
        assert_eq!(armed.prefetch_wasted, 0, "{armed:?}");
        // The writer updates block 3 at t=60; our GETINV poll picks the
        // invalidation up within one period and must cancel the window.
        gvfs_netsim::sleep(Duration::from_secs(90));
        c.drop_caches();
        let data = c.read(fh, 3 * BLOCK, BLOCK as u32).unwrap();
        assert_eq!(data, vec![2u8; BLOCK as usize], "stale prefetch must not win");
        let stats = s2.proxy_client(1).stats();
        assert!(stats.prefetch_wasted > 0, "cancelled window counted: {stats:?}");
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn delegation_recall_cancels_in_flight_prefetch() {
    // Same property under the strong model: the recall that precedes a
    // remote write must tear the reader's open window down, and the
    // post-recall read must be current immediately.
    let sim = Sim::new();
    let session = Session::builder(SessionConfig {
        model: ConsistencyModel::delegation(),
        ..SessionConfig::default()
    })
    .clients(2)
    .establish(&sim);
    let (t0, t1) = (session.client_transport(0), session.client_transport(1));
    let root = session.root_fh();
    let handle = session.handle();
    let session = Arc::new(session);
    let s2 = Arc::clone(&session);
    sim.spawn("writer", move || {
        let c = NfsClient::new(t0, root, MountOptions::noac());
        let fh = c.write_file("/d", &vec![1u8; 6 * BLOCK as usize]).unwrap();
        gvfs_netsim::sleep(Duration::from_secs(20));
        // Recalls the reader's read delegation before the write applies.
        c.write(fh, 3 * BLOCK, &vec![2u8; BLOCK as usize]).unwrap();
    });
    sim.spawn("reader", move || {
        let c = NfsClient::new(t1, root, MountOptions::noac());
        gvfs_netsim::sleep(Duration::from_secs(10));
        let fh = c.open("/d").unwrap();
        assert_eq!(c.read(fh, 0, BLOCK as u32).unwrap(), vec![1u8; BLOCK as usize]);
        assert_eq!(c.read(fh, BLOCK, BLOCK as u32).unwrap(), vec![1u8; BLOCK as usize]);
        assert!(s2.proxy_client(1).stats().prefetch_issued > 0);
        // t=20: the writer's recall lands. Strong consistency: the very
        // next read must see the new version.
        gvfs_netsim::sleep(Duration::from_secs(15));
        c.drop_caches();
        let data = c.read(fh, 3 * BLOCK, BLOCK as u32).unwrap();
        assert_eq!(data, vec![2u8; BLOCK as usize], "recall must beat the prefetch");
        let stats = s2.proxy_client(1).stats();
        assert!(stats.prefetch_wasted > 0, "recalled window counted: {stats:?}");
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn claimed_prefetch_does_not_clobber_delayed_write_attrs() {
    // put_attr_prefetch regression, end to end: a speculative READ is in
    // flight with the server's (older) attributes when the application
    // delays a local write to the same block. Claiming the prefetch must
    // keep the dirty bytes on top and must not roll the cached
    // attributes back to the server's — which would make the delayed
    // write invisible to revalidation.
    let config = SessionConfig { write_back: true, ..polling(300) };
    let sim = Sim::new();
    let session = Session::builder(config).clients(1).wan(long_fat_link()).establish(&sim);
    let transport = session.client_transport(0);
    let root = session.root_fh();
    let wan = session.wan_stats().clone();
    let vfs = Arc::clone(session.vfs());
    let handle = session.handle();
    seed(session.vfs(), "raced", &vec![3u8; 4 * BLOCK as usize]);
    let session = Arc::new(session);
    let s2 = Arc::clone(&session);
    sim.spawn("app", move || {
        let client = NfsClient::new(transport, root, MountOptions::noac());
        let fh = client.open("/raced").unwrap();
        // Arm the detector: the window opens with blocks 2..4 in flight.
        assert_eq!(client.read(fh, 0, BLOCK as u32).unwrap(), vec![3u8; BLOCK as usize]);
        assert_eq!(client.read(fh, BLOCK, BLOCK as u32).unwrap(), vec![3u8; BLOCK as usize]);
        assert!(s2.proxy_client(0).stats().prefetch_issued > 0);
        // Delay a dirty write into block 2 while its prefetch is pending.
        client.write(fh, 2 * BLOCK + 100, &[9u8; 10]).unwrap();
        let before = wan.snapshot();
        client.drop_caches();
        // This demand read claims the pending block-2 prefetch; the
        // reply's stale attributes must be rejected, the dirty bytes
        // must overlay the fetched clean data.
        let data = client.read(fh, 2 * BLOCK, BLOCK as u32).unwrap();
        let mut expected = vec![3u8; BLOCK as usize];
        expected[100..110].copy_from_slice(&[9u8; 10]);
        assert_eq!(data, expected, "dirty bytes overlay the claimed prefetch");
        let stats = s2.proxy_client(0).stats();
        assert!(stats.prefetch_hits > 0, "the prefetch was claimed: {stats:?}");
        // The delayed write is still delayed — no WRITE crossed the WAN.
        let delta = wan.snapshot().since(&before);
        assert_eq!(delta.calls(gvfs_nfs3::NFS_PROGRAM, gvfs_nfs3::proc3::WRITE), 0);
        assert_eq!(
            delta.calls(gvfs_core::protocol::GVFS_PROXY_PROGRAM, gvfs_nfs3::proc3::WRITE),
            0,
            "claiming a prefetch must not force the delayed write out: {delta}"
        );
        // Shutdown flushes; the server ends with the merged content.
        handle.shutdown();
        let file = vfs.lookup_path("/raced").unwrap();
        let (server_data, _) = vfs.read(file, 2 * BLOCK, BLOCK as u32).unwrap();
        assert_eq!(server_data, expected, "delayed write survived the prefetch");
    });
    sim.run();
}

#[test]
fn gap_only_fetch_skips_dirty_edges() {
    // A read spanning [dirty][gap][dirty] must fetch only the gap —
    // exactly one WAN READ — and must never refetch (and thus clobber)
    // the locally delayed dirty bytes.
    // Readahead off: this test isolates the gap planner.
    let config = SessionConfig { write_back: true, readahead_window: 0, ..polling(300) };
    let sim = Sim::new();
    let session = Session::builder(config).clients(1).establish(&sim);
    let transport = session.client_transport(0);
    let root = session.root_fh();
    let wan = session.wan_stats().clone();
    let handle = session.handle();
    seed(session.vfs(), "gappy", &vec![4u8; BLOCK as usize]);
    sim.spawn("app", move || {
        let client = NfsClient::new(transport, root, MountOptions::noac());
        let fh = client.open("/gappy").unwrap();
        // Delay dirty writes at the two edges of the block.
        client.write(fh, 0, &[9u8; 100]).unwrap();
        client.write(fh, BLOCK - 100, &[9u8; 100]).unwrap();
        client.drop_caches();
        let before = wan.snapshot();
        let data = client.read(fh, 0, BLOCK as u32).unwrap();
        let mut expected = vec![4u8; BLOCK as usize];
        expected[..100].copy_from_slice(&[9u8; 100]);
        expected[BLOCK as usize - 100..].copy_from_slice(&[9u8; 100]);
        assert_eq!(data, expected, "dirty edges overlay the fetched middle");
        let delta = wan.snapshot().since(&before);
        let reads = delta.calls(gvfs_nfs3::NFS_PROGRAM, gvfs_nfs3::proc3::READ)
            + delta.calls(gvfs_core::protocol::GVFS_PROXY_PROGRAM, gvfs_nfs3::proc3::READ);
        assert_eq!(reads, 1, "only the middle gap crosses the WAN: {delta}");
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn failed_gap_fetch_falls_back_to_hard_retry_read() {
    // The one remaining full-forward fallback of a caching READ miss:
    // with the WAN partitioned, the gap fetch fails at send, and the
    // READ must then ride the hard-retry forward loop until the heal
    // and still return the server's bytes.
    let sim = Sim::new();
    let session = Session::builder(polling(300)).clients(1).establish(&sim);
    let transport = session.client_transport(0);
    let root = session.root_fh();
    let handle = session.handle();
    let content: Vec<u8> = (0..BLOCK).map(|i| (i % 251) as u8).collect();
    seed(session.vfs(), "cold", &content);
    let session = Arc::new(session);
    let s2 = Arc::clone(&session);
    sim.spawn("reader", move || {
        let client = NfsClient::new(transport, root, MountOptions::noac());
        // Resolving caches the attributes, so the READ below reaches the
        // gap fetch rather than the missing-attributes fallback.
        let fh = client.open("/cold").unwrap();
        s2.wan_link(0).set_partitioned(true);
        let healer = Arc::clone(&s2);
        gvfs_netsim::spawn_from_actor("healer", move || {
            gvfs_netsim::sleep(Duration::from_secs(20));
            healer.wan_link(0).set_partitioned(false);
        });
        let data = client.read(fh, 0, BLOCK as u32).unwrap();
        assert_eq!(data, content, "the fallback returns the server's bytes");
        let stats = s2.proxy_client(0).stats();
        assert_eq!(stats.read_misses, 1, "one cold miss reached the gap fetch: {stats:?}");
        assert!(stats.transport_retries >= 1, "the fallback hard-retried: {stats:?}");
        handle.shutdown();
    });
    sim.run();
}
