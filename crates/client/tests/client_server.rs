//! End-to-end tests: kernel-client emulation against the NFS server over
//! a simulated link, checking both semantics and the *consistency
//! traffic* (GETATTR counts) that the paper's experiments measure.

use gvfs_client::{ClientError, MountOptions, NfsClient};
use gvfs_netsim::link::{Link, LinkConfig};
use gvfs_netsim::transport::{ServerNode, SimRpcClient};
use gvfs_netsim::Sim;
use gvfs_nfs3::{proc3, Nfsstat3, NFS_PROGRAM};
use gvfs_rpc::dispatch::Dispatcher;
use gvfs_rpc::stats::RpcStats;
use gvfs_server::Nfs3Server;
use gvfs_vfs::{Timestamp, Vfs};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

struct Rig {
    vfs: Arc<Vfs>,
    server: Arc<ServerNode>,
    link: Arc<Link>,
    stats: RpcStats,
    root: gvfs_nfs3::Fh3,
}

fn rig() -> Rig {
    let vfs = Arc::new(Vfs::new());
    let nfs = Nfs3Server::new(
        Arc::clone(&vfs),
        Arc::new(|| Timestamp::from_nanos(gvfs_netsim::now().as_nanos())),
    );
    let root = nfs.root_fh();
    let mut dispatcher = Dispatcher::new();
    dispatcher.register(nfs);
    let server = ServerNode::new("nfs", dispatcher, Duration::from_micros(200));
    let link = Link::new(LinkConfig::wan());
    Rig { vfs, server, link, stats: RpcStats::new(), root }
}

impl Rig {
    fn client(&self, opts: MountOptions) -> NfsClient {
        let transport =
            SimRpcClient::new(self.link.forward(), Arc::clone(&self.server), self.stats.clone());
        NfsClient::new(transport, self.root, opts)
    }
}

fn getattrs(stats: &RpcStats) -> u64 {
    stats.snapshot().calls(NFS_PROGRAM, proc3::GETATTR)
}

#[test]
fn write_then_read_roundtrips_over_wan() {
    let r = rig();
    let client = r.client(MountOptions::default());
    let out = Arc::new(Mutex::new(Vec::new()));
    let o = out.clone();
    let sim = Sim::new();
    sim.spawn("c1", move || {
        client.write_file("/hello.txt", b"wide area").unwrap();
        *o.lock() = client.read_file("/hello.txt").unwrap();
    });
    let end = sim.run();
    assert_eq!(&*out.lock(), b"wide area");
    // At least two WAN round trips of 40 ms each.
    assert!(end.as_secs_f64() > 0.08, "end={end}");
}

#[test]
fn cached_read_is_fast_and_quiet() {
    let r = rig();
    let client = r.client(MountOptions { close_to_open: false, ..Default::default() });
    let stats = r.stats.clone();
    let sim = Sim::new();
    sim.spawn("c1", move || {
        client.write_file("/f", &[7u8; 100_000]).unwrap();
        let _ = client.read_file("/f").unwrap();
        let before = stats.snapshot();
        let t0 = gvfs_netsim::now();
        let _ = client.read_file("/f").unwrap();
        let elapsed = gvfs_netsim::now().saturating_since(t0);
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.calls(NFS_PROGRAM, proc3::READ), 0, "reads served from page cache");
        assert!(elapsed < Duration::from_millis(1), "no WAN trips: {elapsed:?}");
    });
    sim.run();
}

#[test]
fn close_to_open_forces_getattr_per_open() {
    let r = rig();
    let client = r.client(MountOptions::default());
    let stats = r.stats.clone();
    let sim = Sim::new();
    sim.spawn("c1", move || {
        client.write_file("/f", b"x").unwrap();
        let before = getattrs(&stats);
        for _ in 0..10 {
            let _ = client.read_file("/f").unwrap();
        }
        let after = getattrs(&stats);
        assert!(after - before >= 10, "cto must revalidate every open: {}", after - before);
    });
    sim.run();
}

#[test]
fn attribute_cache_suppresses_stat_traffic() {
    let r = rig();
    let client = r.client(MountOptions::default());
    let stats = r.stats.clone();
    let sim = Sim::new();
    sim.spawn("c1", move || {
        client.write_file("/f", b"x").unwrap();
        client.stat("/f").unwrap();
        let before = getattrs(&stats);
        for _ in 0..50 {
            client.stat("/f").unwrap(); // within ac timeout
        }
        assert_eq!(getattrs(&stats) - before, 0, "fresh attrs must not hit the wire");
        gvfs_netsim::sleep(Duration::from_secs(120));
        client.stat("/f").unwrap();
        // One GETATTR for the directory (dnlc validation) + one for the file.
        assert_eq!(getattrs(&stats) - before, 2, "expired attrs revalidate dir + file");
    });
    sim.run();
}

#[test]
fn noac_revalidates_every_stat() {
    let r = rig();
    let client = r.client(MountOptions::noac());
    let stats = r.stats.clone();
    let sim = Sim::new();
    sim.spawn("c1", move || {
        client.write_file("/f", b"x").unwrap();
        let before = getattrs(&stats);
        for _ in 0..10 {
            client.stat("/f").unwrap();
        }
        assert!(getattrs(&stats) - before >= 10);
    });
    sim.run();
}

#[test]
fn two_clients_see_writes_after_attr_timeout() {
    let r = rig();
    let writer = r.client(MountOptions::with_attr_timeout(Duration::from_secs(30)));
    let reader = r.client(MountOptions {
        close_to_open: false,
        ..MountOptions::with_attr_timeout(Duration::from_secs(30))
    });
    let sim = Sim::new();
    sim.spawn("writer", move || {
        writer.write_file("/shared", b"v1").unwrap();
        gvfs_netsim::sleep(Duration::from_secs(5));
        let fh = writer.resolve("/shared").unwrap();
        writer.write(fh, 0, b"v2").unwrap();
    });
    sim.spawn("reader", move || {
        gvfs_netsim::sleep(Duration::from_secs(2));
        assert_eq!(reader.read_file("/shared").unwrap(), b"v1");
        // Immediately after the remote write, the stale cache may serve v1.
        gvfs_netsim::sleep(Duration::from_secs(5));
        let stale = reader.read_file("/shared").unwrap();
        assert_eq!(stale, b"v1", "within the attr window the stale copy is served");
        // After the attribute timeout the change is detected.
        gvfs_netsim::sleep(Duration::from_secs(31));
        assert_eq!(reader.read_file("/shared").unwrap(), b"v2");
    });
    sim.run();
}

#[test]
fn link_is_atomic_lock_primitive() {
    let r = rig();
    let c1 = r.client(MountOptions::default());
    let c2 = r.client(MountOptions::default());
    // Seed the lock directory and temp files.
    let winners = Arc::new(Mutex::new(Vec::new()));
    let sim = Sim::new();
    for (name, client) in [("c1", c1), ("c2", c2)] {
        let winners = winners.clone();
        sim.spawn(name, move || {
            let root = client.root();
            let tmp = client.create(root, &format!("tmp-{name}"), true).unwrap();
            match client.link(tmp, root, "lockfile") {
                Ok(()) => winners.lock().push(name),
                Err(ClientError::Nfs(Nfsstat3::Exist)) => {}
                Err(e) => panic!("unexpected: {e}"),
            }
        });
    }
    sim.run();
    assert_eq!(winners.lock().len(), 1, "exactly one client wins the lock");
}

#[test]
fn remove_then_access_is_stale_or_noent() {
    let r = rig();
    let client = r.client(MountOptions::default());
    let sim = Sim::new();
    sim.spawn("c1", move || {
        let fh = client.write_file("/gone", b"x").unwrap();
        client.remove_path("/gone").unwrap();
        assert!(matches!(client.getattr_force(fh).unwrap_err(), ClientError::Nfs(Nfsstat3::Stale)));
        assert!(matches!(
            client.read_file("/gone").unwrap_err(),
            ClientError::Nfs(Nfsstat3::Noent)
        ));
    });
    sim.run();
}

#[test]
fn readdir_lists_server_side_tree() {
    let r = rig();
    // Server-side population (out of band, like restoring a repository).
    for i in 0..25 {
        r.vfs.create(r.vfs.root(), &format!("pkg{i:02}"), 0o644, Timestamp::default()).unwrap();
    }
    let client = r.client(MountOptions::default());
    let sim = Sim::new();
    sim.spawn("c1", move || {
        let entries = client.readdir_all(client.root()).unwrap();
        assert_eq!(entries.len(), 25);
        assert!(entries.iter().any(|e| e.name == "pkg13"));
    });
    sim.run();
}

#[test]
fn hard_mount_retries_through_partition() {
    let r = rig();
    let client =
        r.client(MountOptions { retry_backoff: Duration::from_secs(1), ..Default::default() });
    let link = Arc::clone(&r.link);
    let sim = Sim::new();
    sim.spawn("c1", move || {
        client.write_file("/f", b"pre").unwrap();
        gvfs_netsim::spawn_from_actor("healer", {
            let link = Arc::clone(&link);
            move || {
                gvfs_netsim::sleep(Duration::from_secs(5));
                link.set_partitioned(false);
            }
        });
        link.set_partitioned(true);
        // This stat blocks through the partition and then succeeds.
        let t0 = gvfs_netsim::now();
        client.drop_caches();
        client.stat("/f").unwrap();
        let waited = gvfs_netsim::now().saturating_since(t0);
        assert!(waited >= Duration::from_secs(5), "waited {waited:?}");
    });
    sim.run();
}

#[test]
fn symlink_and_readlink_roundtrip() {
    let r = rig();
    let client = r.client(MountOptions::default());
    let sim = Sim::new();
    sim.spawn("c1", move || {
        let root = client.root();
        let link = client.symlink(root, "latest", "/releases/v2").unwrap();
        assert_eq!(client.readlink(link).unwrap(), "/releases/v2");
        let resolved = client.resolve("/latest").unwrap();
        assert_eq!(resolved, link);
    });
    sim.run();
}

#[test]
fn readdir_plus_warms_the_caches() {
    let r = rig();
    for i in 0..30 {
        let f = r
            .vfs
            .create(r.vfs.root(), &format!("warm{i:02}"), 0o644, Timestamp::default())
            .unwrap();
        r.vfs.write(f, 0, &[1u8; 100], Timestamp::default()).unwrap();
    }
    let client = r.client(MountOptions { close_to_open: false, ..Default::default() });
    let stats = r.stats.clone();
    let sim = Sim::new();
    sim.spawn("c1", move || {
        let entries = client.readdir_plus_all(client.root()).unwrap();
        assert_eq!(entries.len(), 30);
        // Everything needed for an `ls -l` is now cached: stats are free.
        let before = stats.snapshot();
        for e in &entries {
            let attr = client.stat(&format!("/{}", e.name)).unwrap();
            assert_eq!(attr.size, 100);
        }
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.total_calls(), 0, "READDIRPLUS warmed attrs and bindings: {delta}");
    });
    sim.run();
}

#[test]
fn rename_and_truncate_update_view() {
    let r = rig();
    let client = r.client(MountOptions::default());
    let sim = Sim::new();
    sim.spawn("c1", move || {
        let fh = client.write_file("/a", b"0123456789").unwrap();
        client.truncate(fh, 4).unwrap();
        assert_eq!(client.read_file("/a").unwrap(), b"0123");
        let root = client.root();
        client.rename(root, "a", root, "b").unwrap();
        assert!(client.read_file("/a").is_err());
        assert_eq!(client.read_file("/b").unwrap(), b"0123");
    });
    sim.run();
}

#[test]
fn a_whole_page_read_matches_every_other_read_shape() {
    let r = rig();
    let client = r.client(MountOptions::default());
    let page = gvfs_nfs3::TRANSFER_SIZE as usize;
    // Two and a half pages, so the file ends in a short page.
    let content: Vec<u8> = (0..5 * page / 2).map(|i| (i * 7 + i / 251) as u8).collect();
    let want = content.clone();
    let sim = Sim::new();
    sim.spawn("c1", move || {
        client.write_file("/f", &content).unwrap();
        let fh = client.open("/f").unwrap();
        let len = content.len();
        let shapes = [
            (0, page),                  // one whole page from its start
            (page, page),               // the second whole page
            (2 * page, page),           // the short page at EOF, asked in full
            (2 * page, len - 2 * page), // the short page at EOF, asked exactly
            (0, page - 1),              // a page less its last byte
            (1, page - 1),              // a page less its first byte
            (100, 300),                 // inside one page
            (page - 10, 20),            // across a page boundary
            (0, 2 * page),              // two whole pages
            (page / 2, 2 * page),       // unaligned, three pages
            (0, len + 100),             // the whole file and past EOF
            (len, 10),                  // at EOF
        ];
        for (offset, count) in shapes {
            let got = client.read(fh, offset as u64, count as u32).unwrap();
            let end = (offset + count).min(len);
            assert_eq!(got, content[offset.min(end)..end], "read {count} B at {offset}");
        }
    });
    sim.run();
    assert_eq!(r.vfs.read(r.vfs.lookup_path("/f").unwrap(), 0, u32::MAX).unwrap().0, want);
}
