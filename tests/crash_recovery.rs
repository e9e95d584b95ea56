//! Crash/recovery end to end (§4.3.4): a proxy-server crash with an
//! outstanding partial write-back must not lose acknowledged data, and a
//! proxy-client crash must replay its dirty cache only when the server
//! copy is provably unchanged — otherwise the dirty data is discarded as
//! corrupted, never blindly replayed over someone else's writes.

use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::session::{Session, SessionConfig};
use gvfs_core::{ConsistencyModel, DelegationConfig};
use gvfs_netsim::Sim;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn delegation_config(partial_writeback_threshold: usize) -> SessionConfig {
    SessionConfig {
        model: ConsistencyModel::DelegationCallback(DelegationConfig {
            partial_writeback_threshold,
            ..DelegationConfig::default()
        }),
        write_back: true,
        ..SessionConfig::default()
    }
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt)).collect()
}

fn sleep_until(at: Duration) {
    let elapsed = gvfs_netsim::now().saturating_since(gvfs_netsim::SimTime::ZERO);
    if at > elapsed {
        gvfs_netsim::sleep(at - elapsed);
    }
}

/// A proxy-server crash while a recalled write delegation is still
/// writing back asynchronously: the recall answered with a block list
/// (dirty blocks > threshold), the flusher is mid-stream when the server
/// dies, and recovery must rebuild the delegation table from the
/// clients' dirty-file answers so the remaining blocks land. No
/// acknowledged byte may be lost.
#[test]
fn server_crash_mid_partial_writeback_loses_nothing() {
    let sim = Sim::new();
    let session = Arc::new(Session::builder(delegation_config(2)).clients(2).establish(&sim));
    let data = pattern(64 * 4096, 7);

    let done = Arc::new(AtomicUsize::new(0));
    let answered = Arc::new(AtomicUsize::new(usize::MAX));

    {
        let t = session.client_transport(0);
        let root = session.root_fh();
        let done = Arc::clone(&done);
        let data = data.clone();
        sim.spawn("cr-writer", move || {
            let c = NfsClient::new(t, root, MountOptions::noac());
            gvfs_netsim::sleep(Duration::from_secs(1));
            // 64 dirty blocks against a threshold of 2: the later recall
            // must choose the partial (asynchronous) write-back path.
            c.write_file("/cr-a", &data).expect("write survives in cache");
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let t = session.client_transport(1);
        let root = session.root_fh();
        let done = Arc::clone(&done);
        sim.spawn("cr-reader", move || {
            let c = NfsClient::new(t, root, MountOptions::noac());
            sleep_until(Duration::from_secs(4));
            // The read recalls the write delegation; the answer is a
            // block list and the writer starts flushing asynchronously.
            // The server crashes under it, so this forward blocks until
            // recovery — completion (not content) is the assertion here.
            let _ = c.read_file("/cr-a");
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let session = Arc::clone(&session);
        let done = Arc::clone(&done);
        let answered = Arc::clone(&answered);
        sim.spawn("cr-controller", move || {
            sleep_until(Duration::from_millis(4_200));
            session.crash_proxy_server();
            gvfs_netsim::sleep(Duration::from_secs(8));
            answered.store(session.restart_proxy_server(), Ordering::SeqCst);
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let handle = session.handle();
        let done = Arc::clone(&done);
        sim.spawn("cr-closer", move || {
            loop {
                gvfs_netsim::park_timeout(Duration::from_secs(1));
                if done.load(Ordering::SeqCst) >= 3 {
                    break;
                }
            }
            handle.shutdown();
        });
    }
    sim.run();

    assert!(
        answered.load(Ordering::SeqCst) >= 1,
        "recovery must hear back from at least the dirty client"
    );
    let vfs = session.vfs();
    let id = vfs.lookup_path("/cr-a").expect("file survives the crash");
    let (bytes, _) = vfs.read(id, 0, data.len() as u32).expect("readable after recovery");
    assert_eq!(bytes, data, "every acknowledged byte must reach stable storage");
}

/// A proxy-client crash while the server copy moved on: the crashed
/// client held dirty data, its delegation was revoked unreachable, and
/// another client's write was flushed in the meantime. Recovery must
/// notice the mtime mismatch, discard the stale dirty cache as
/// corrupted, and leave the surviving writer's data in place.
#[test]
fn client_crash_discards_dirty_when_server_moved_on() {
    let sim = Sim::new();
    let session = Arc::new(Session::builder(delegation_config(1024)).clients(2).establish(&sim));
    let stale = pattern(4096, 1);
    let fresh = pattern(4096, 2);

    let done = Arc::new(AtomicUsize::new(0));
    let corrupted = Arc::new(Mutex::new(Vec::new()));

    {
        let t = session.client_transport(0);
        let root = session.root_fh();
        let done = Arc::clone(&done);
        let stale = stale.clone();
        sim.spawn("cr-crasher", move || {
            let c = NfsClient::new(t, root, MountOptions::noac());
            gvfs_netsim::sleep(Duration::from_secs(1));
            // The first write forwards write-through and acquires the
            // write delegation; the second is the one that stays dirty
            // in the disk cache across the crash.
            let fh = c.write_file("/cr-b", &pattern(4096, 0)).expect("acquire delegation");
            c.write(fh, 0, &stale).expect("dirty write acked");
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let t = session.client_transport(1);
        let root = session.root_fh();
        let done = Arc::clone(&done);
        let fresh = fresh.clone();
        sim.spawn("cr-survivor", move || {
            let c = NfsClient::new(t, root, MountOptions::noac());
            // Client 0 is already down: the recall of its write
            // delegation times out and the server revokes it
            // unreachable, losing the unflushed dirty data (§4.3.4).
            // This first write then forwards write-through, so the
            // server copy's mtime moves past the crashed client's
            // write-back base.
            sleep_until(Duration::from_secs(8));
            let fh = c.resolve("/cr-b").expect("resolve");
            c.write(fh, 0, &fresh).expect("surviving write acked");
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let session = Arc::clone(&session);
        let done = Arc::clone(&done);
        let corrupted = Arc::clone(&corrupted);
        sim.spawn("cr-controller", move || {
            sleep_until(Duration::from_secs(4));
            session.crash_proxy_client(0);
            sleep_until(Duration::from_secs(30));
            *corrupted.lock() = session.restart_proxy_client(0);
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let handle = session.handle();
        let done = Arc::clone(&done);
        sim.spawn("cr-closer", move || {
            loop {
                gvfs_netsim::park_timeout(Duration::from_secs(1));
                if done.load(Ordering::SeqCst) >= 3 {
                    break;
                }
            }
            handle.shutdown();
        });
    }
    sim.run();

    assert_eq!(
        corrupted.lock().len(),
        1,
        "the crashed client's dirty file must be flagged corrupted, not replayed"
    );
    let vfs = session.vfs();
    let id = vfs.lookup_path("/cr-b").expect("lookup");
    let (bytes, _) = vfs.read(id, 0, fresh.len() as u32).expect("read");
    assert_eq!(bytes, fresh, "the surviving writer's data must not be clobbered");
}

/// Lease-based revocation end to end: a client holding write
/// delegations drops off the WAN, and conflicting writers on another
/// client must not block behind it. The first conflicts are resolved by
/// failed recalls (the partitioned link refuses the callback, the
/// holder is revoked unreachable, and each failure feeds the server's
/// per-client breaker); once the breaker opens, further recalls are
/// short-circuited without even trying the link; and a conflict that
/// arrives after the holder's renewal lease lapsed is revoked straight
/// from the delegation table with no recall round trip at all. In every
/// case the writer proceeds within one lease period.
#[test]
fn partitioned_holder_unblocks_conflicting_writer_within_lease() {
    const LEASE: Duration = Duration::from_secs(30);
    let config = SessionConfig {
        model: ConsistencyModel::DelegationCallback(DelegationConfig {
            expiration: Duration::from_secs(90),
            renewal: Duration::from_secs(20),
            lease: LEASE,
            ..DelegationConfig::default()
        }),
        write_back: true,
        ..SessionConfig::default()
    };
    let sim = Sim::new();
    let session = Arc::new(Session::builder(config).clients(2).establish(&sim));

    let done = Arc::new(AtomicUsize::new(0));
    let waits = Arc::new(Mutex::new(Vec::new()));

    {
        let t = session.client_transport(0);
        let root = session.root_fh();
        let done = Arc::clone(&done);
        sim.spawn("lz-holder", move || {
            let c = NfsClient::new(t, root, MountOptions::noac());
            gvfs_netsim::sleep(Duration::from_secs(1));
            // Five write delegations; the holder then goes silent behind
            // a partition and never hears a single recall.
            for i in 0..5 {
                c.write_file(&format!("/lz-{i}"), &pattern(4096, i)).expect("acquire delegation");
            }
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let t = session.client_transport(1);
        let root = session.root_fh();
        let done = Arc::clone(&done);
        let waits = Arc::clone(&waits);
        sim.spawn("lz-writer", move || {
            let c = NfsClient::new(t, root, MountOptions::noac());
            let conflict = |path: &str, salt: u8| {
                let started = gvfs_netsim::now();
                let fh = c.resolve(path).expect("resolve");
                c.write(fh, 0, &pattern(4096, salt)).expect("conflicting write proceeds");
                waits.lock().push(gvfs_netsim::now().saturating_since(started));
            };
            // Three conflicts while the holder's lease is still fresh:
            // each recall fails fast on the cut link, revokes the holder
            // unreachable, and trips the server-side breaker.
            sleep_until(Duration::from_secs(5));
            for i in 0..3 {
                conflict(&format!("/lz-{i}"), 100 + i as u8);
            }
            // Breaker open: this recall is short-circuited outright.
            conflict("/lz-3", 103);
            // Past the holder's lease: revoked from the table, no recall.
            sleep_until(Duration::from_secs(40));
            conflict("/lz-4", 104);
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let session = Arc::clone(&session);
        sim.spawn("lz-controller", move || {
            sleep_until(Duration::from_secs(3));
            session.wan_link(0).set_partitioned(true);
        });
    }
    {
        let session = Arc::clone(&session);
        let handle = session.handle();
        let done = Arc::clone(&done);
        sim.spawn("lz-closer", move || {
            loop {
                gvfs_netsim::park_timeout(Duration::from_secs(1));
                if done.load(Ordering::SeqCst) >= 2 {
                    break;
                }
            }
            // Heal before shutdown so the holder's teardown does not
            // hang retrying DELEGRETURNs into the void.
            session.wan_link(0).set_partitioned(false);
            handle.shutdown();
        });
    }
    sim.run();

    let waits = waits.lock();
    assert_eq!(waits.len(), 5, "every conflicting write must complete");
    for (i, wait) in waits.iter().enumerate() {
        assert!(
            *wait < LEASE,
            "conflict {i} blocked {wait:?}, more than one lease period ({LEASE:?})"
        );
    }
    let server = session.proxy_server();
    assert!(
        server.scale_stats().recalls_short_circuited >= 1,
        "the open breaker must short-circuit at least one recall"
    );
    assert!(
        server.lease_revocations() >= 1,
        "the post-lease conflict must be revoked without a recall"
    );
}

/// A holder that *returns* from a partition (no crash, no restart) must
/// route its dirty write-back data through reconciliation when the
/// supervisor re-promotes the session: the file another client rewrote
/// in the meantime is discarded as stale — not poisoned as corrupted,
/// applications just see the fresh server copy — while the file only
/// this client ever wrote is replayed and survives.
#[test]
fn returning_holder_reconciles_dirty_without_poisoning() {
    let sim = Sim::new();
    let session = Arc::new(Session::builder(delegation_config(1024)).clients(2).establish(&sim));
    let stale = pattern(4096, 1);
    let keep = pattern(4096, 2);
    let fresh = pattern(4096, 3);

    let done = Arc::new(AtomicUsize::new(0));

    {
        let t = session.client_transport(0);
        let root = session.root_fh();
        let done = Arc::clone(&done);
        let stale = stale.clone();
        let keep = keep.clone();
        let fresh = fresh.clone();
        sim.spawn("lz-returner", move || {
            let c = NfsClient::new(t, root, MountOptions::noac());
            gvfs_netsim::sleep(Duration::from_secs(1));
            // Two write delegations, each with a dirty block parked in
            // the write-back cache across the coming partition.
            let fh_r = c.write_file("/lz-r", &pattern(4096, 0)).expect("acquire delegation");
            c.write(fh_r, 0, &stale).expect("dirty write acked");
            let fh_s = c.write_file("/lz-s", &pattern(4096, 0)).expect("acquire delegation");
            c.write(fh_s, 0, &keep).expect("dirty write acked");
            // A cold lookup during the partition: the retries trip this
            // client's WAN breaker, which flags the post-heal resync.
            sleep_until(Duration::from_secs(6));
            c.resolve("/lz-probe").expect("completes after the heal");
            // By now the supervisor has re-promoted and reconciled. The
            // conflicted file reads back the *other* writer's data — a
            // late but consistent view, never an I/O error.
            sleep_until(Duration::from_secs(20));
            let got = c.read_file("/lz-r").expect("discarded file is not poisoned");
            assert_eq!(got, fresh, "the surviving writer's data wins");
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let t = session.client_transport(1);
        let root = session.root_fh();
        let done = Arc::clone(&done);
        let fresh = fresh.clone();
        sim.spawn("lz-rival", move || {
            let c = NfsClient::new(t, root, MountOptions::noac());
            sleep_until(Duration::from_secs(4));
            c.write_file("/lz-probe", &pattern(4096, 9)).expect("probe target");
            // Conflicts with the partitioned holder: the recall fails on
            // the cut link, the holder is revoked unreachable, and the
            // server copy's mtime moves past its write-back base.
            let fh = c.resolve("/lz-r").expect("resolve");
            c.write(fh, 0, &fresh).expect("rival write proceeds");
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let session = Arc::clone(&session);
        let done = Arc::clone(&done);
        sim.spawn("lz-controller", move || {
            sleep_until(Duration::from_secs(3));
            session.wan_link(0).set_partitioned(true);
            sleep_until(Duration::from_secs(12));
            session.wan_link(0).set_partitioned(false);
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let handle = session.handle();
        let done = Arc::clone(&done);
        sim.spawn("lz-closer", move || {
            loop {
                gvfs_netsim::park_timeout(Duration::from_secs(1));
                if done.load(Ordering::SeqCst) >= 3 {
                    break;
                }
            }
            handle.shutdown();
        });
    }
    sim.run();

    let stats = session.proxy_client(0).stats();
    assert_eq!(stats.repromotions, 1, "the heal must re-promote exactly once, stats: {stats:?}");
    assert_eq!(stats.stale_discards, 1, "the conflicted file is discarded as stale");
    assert_eq!(stats.corrupted_discards, 0, "a live return never poisons files as corrupted");
    let vfs = session.vfs();
    let id = vfs.lookup_path("/lz-r").expect("lookup");
    let (bytes, _) = vfs.read(id, 0, fresh.len() as u32).expect("read");
    assert_eq!(bytes, fresh, "the rival's data must not be clobbered by a stale replay");
    let id = vfs.lookup_path("/lz-s").expect("lookup");
    let (bytes, _) = vfs.read(id, 0, keep.len() as u32).expect("read");
    assert_eq!(bytes, keep, "the sole-writer file's dirty data must be replayed, not dropped");
}

/// The companion case: the server copy did NOT change while the client
/// was down, so crash recovery replays the dirty cache — one block
/// written back inline to reacquire the delegation, the rest via the
/// flusher — and nothing is reported corrupted.
#[test]
fn client_crash_replays_dirty_when_server_unchanged() {
    let sim = Sim::new();
    let session = Arc::new(Session::builder(delegation_config(1024)).clients(1).establish(&sim));
    let data = pattern(4 * 4096, 3);

    let done = Arc::new(AtomicUsize::new(0));
    let corrupted = Arc::new(Mutex::new(vec![gvfs_nfs3::Fh3::from_fileid(u64::MAX)]));

    {
        let t = session.client_transport(0);
        let root = session.root_fh();
        let done = Arc::clone(&done);
        let data = data.clone();
        sim.spawn("cr-writer", move || {
            let c = NfsClient::new(t, root, MountOptions::noac());
            gvfs_netsim::sleep(Duration::from_secs(1));
            c.write_file("/cr-c", &data).expect("dirty write acked");
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let session = Arc::clone(&session);
        let done = Arc::clone(&done);
        let corrupted = Arc::clone(&corrupted);
        sim.spawn("cr-controller", move || {
            sleep_until(Duration::from_secs(3));
            session.crash_proxy_client(0);
            gvfs_netsim::sleep(Duration::from_secs(10));
            *corrupted.lock() = session.restart_proxy_client(0);
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let handle = session.handle();
        let done = Arc::clone(&done);
        sim.spawn("cr-closer", move || {
            loop {
                gvfs_netsim::park_timeout(Duration::from_secs(1));
                if done.load(Ordering::SeqCst) >= 2 {
                    break;
                }
            }
            handle.shutdown();
        });
    }
    sim.run();

    assert!(
        corrupted.lock().is_empty(),
        "an unchanged server copy means the dirty cache is replayed, not discarded"
    );
    let vfs = session.vfs();
    let id = vfs.lookup_path("/cr-c").expect("lookup");
    let (bytes, _) = vfs.read(id, 0, data.len() as u32).expect("read");
    assert_eq!(bytes, data, "the replayed dirty data must reach stable storage");
}
