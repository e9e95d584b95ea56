//! Integration coverage for the `PEERREAD` peer-sourcing layer's
//! failure and lifecycle paths:
//!
//! * a breaker-open peer is skipped for the next-best advertised holder
//!   without a single byte hitting its LAN link;
//! * with every advertised peer unreachable, the reader falls back to
//!   the origin and still observes correct bytes;
//! * an idle-swept holder is de-advertised server-side, and a holder
//!   that evicted the content for capacity answers an honest `Miss`
//!   that the reader converts into an origin fallback;
//! * a delegation recall condemns every advertised peer copy before the
//!   conflicting writer proceeds.

use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::session::{Session, SessionConfig};
use gvfs_integration::chaos::ModelKind;
use gvfs_netsim::{Sim, SimTime};
use parking_lot::Mutex;
use std::sync::Arc;

/// The proxy cache's transfer-block granularity (one fetch per block).
const BLOCK: u64 = 32 * 1024;
/// Scenario files span two blocks: block 0 always comes from the origin
/// (attestation + advert), block 1 is the one the mesh sources.
const BLOCKS: u64 = 2;
/// Fill byte of the seeded version.
const V1: u8 = 0x5a;
/// Fill byte the conflicting writer lands.
const V2: u8 = 0xa5;

fn sleep_to(secs: u64) {
    let target = SimTime::from_secs(secs);
    let wait = target.saturating_since(gvfs_netsim::now());
    if !wait.is_zero() {
        gvfs_netsim::sleep(wait);
    }
}

/// A delegation-model session with peer sourcing on and read-ahead off,
/// so every block read is exactly one demand fetch and the per-test
/// accounting is deterministic.
fn peer_config() -> SessionConfig {
    let mut config = ModelKind::Delegation.session_config();
    config.peer_read = true;
    config.readahead_window = 0;
    config
}

/// Seeds `names` as two-block files filled with [`V1`], out of band.
fn seed_files(session: &Session, names: &[&str]) {
    let vfs = Arc::clone(session.vfs());
    let t0 = gvfs_vfs::Timestamp::from_nanos(0);
    for name in names {
        let id = vfs.create(vfs.root(), name, 0o644, t0).expect("create");
        vfs.write(id, 0, &vec![V1; (BLOCKS * BLOCK) as usize], t0).expect("seed");
    }
}

#[test]
fn breaker_open_peer_is_skipped_for_next_best() {
    let sim = Sim::new();
    let session = Session::builder(peer_config()).clients(3).establish(&sim);
    seed_files(&session, &["skip"]);
    let session = Arc::new(session);

    let s = Arc::clone(&session);
    let handle = session.handle();
    sim.spawn("breaker-skip", move || {
        let clients: Vec<NfsClient> = (0..3)
            .map(|i| NfsClient::new(s.client_transport(i), s.root_fh(), MountOptions::noac()))
            .collect();
        let fh = clients[0].resolve("/skip").expect("resolve");
        // Both candidate holders warm the whole file. (Client 2's own
        // block 1 may itself arrive over the mesh from client 1 — that
        // is fine; both end up advertised.)
        for holder in [1usize, 2] {
            for b in 0..BLOCKS {
                clients[holder].read(fh, b * BLOCK, BLOCK as u32).expect("warm");
                sleep_to(gvfs_netsim::now().saturating_since(SimTime::ZERO).as_secs() + 1);
            }
        }
        // The reader's block-0 read carries the advert naming both.
        clients[0].read(fh, 0, BLOCK as u32).expect("attested read");
        // Untried peers tie-break by id, so the lowest-id holder
        // (client index 1, proxy id 2) would carry the fetch. Trip its
        // breaker open first.
        for _ in 0..3 {
            s.proxy_client(0).note_peer_failure(2);
        }
        let served_low_before = s.proxy_client(1).stats().peer_bytes_served;
        let lan_low_before = s.peer_link(0, 1).expect("peer link 0-1").traffic();
        let hits_before = s.proxy_client(0).stats().peer_hits;

        let data = clients[0].read(fh, BLOCK, BLOCK as u32).expect("peer read");
        assert!(data.iter().all(|&b| b == V1), "next-best peer served wrong bytes");

        let r = s.proxy_client(0).stats();
        assert_eq!(r.peer_hits, hits_before + 1, "the fetch must still be a peer hit");
        assert_eq!(r.peer_fallbacks, 0, "next-best selection must not fall back to origin");
        assert_eq!(
            s.proxy_client(1).stats().peer_bytes_served,
            served_low_before,
            "the breaker-open peer must not serve"
        );
        assert_eq!(
            s.peer_link(0, 1).expect("peer link 0-1").traffic(),
            lan_low_before,
            "breaker-open skip must not even touch the peer's LAN link"
        );
        assert!(
            s.proxy_client(2).stats().peer_bytes_served > 0,
            "the next-best holder must carry the fetch"
        );
        handle.shutdown();
    });
    sim.run();
}

/// A finished session must be freed once it and its `Sim` are dropped.
/// The proxies and the nodes serving them form reference cycles (the
/// proxy server reaches each client through its callback node, each
/// client reaches the server through its WAN node, and peers reach each
/// other through their callback nodes); dropping the session breaks them.
#[test]
fn dropped_session_frees_its_proxies() {
    let sim = Sim::new();
    let session = Session::builder(peer_config()).clients(2).establish(&sim);
    seed_files(&session, &["freed"]);
    let clients: Vec<_> = (0..2).map(|i| Arc::downgrade(session.proxy_client(i))).collect();
    let server = Arc::downgrade(session.proxy_server());
    let session = Arc::new(session);

    let s = Arc::clone(&session);
    let handle = session.handle();
    sim.spawn("peer-read", move || {
        let holder = NfsClient::new(s.client_transport(1), s.root_fh(), MountOptions::noac());
        let reader = NfsClient::new(s.client_transport(0), s.root_fh(), MountOptions::noac());
        let fh = holder.resolve("/freed").expect("resolve");
        for b in 0..BLOCKS {
            holder.read(fh, b * BLOCK, BLOCK as u32).expect("warm");
        }
        for b in 0..BLOCKS {
            reader.read(fh, b * BLOCK, BLOCK as u32).expect("read");
        }
        assert!(s.proxy_client(0).stats().peer_hits >= 1, "the mesh must have carried a block");
        handle.shutdown();
    });
    sim.run();
    drop(session);
    for (i, client) in clients.iter().enumerate() {
        assert!(client.upgrade().is_none(), "proxy client {i} outlived its session");
    }
    assert!(server.upgrade().is_none(), "the proxy server outlived its session");
}

#[test]
fn all_peers_dead_falls_back_to_origin() {
    let sim = Sim::new();
    let session = Session::builder(peer_config()).clients(3).establish(&sim);
    seed_files(&session, &["dead"]);
    let session = Arc::new(session);

    let s = Arc::clone(&session);
    let handle = session.handle();
    sim.spawn("all-dead", move || {
        let clients: Vec<NfsClient> = (0..3)
            .map(|i| NfsClient::new(s.client_transport(i), s.root_fh(), MountOptions::noac()))
            .collect();
        let fh = clients[0].resolve("/dead").expect("resolve");
        for holder in [1usize, 2] {
            for b in 0..BLOCKS {
                clients[holder].read(fh, b * BLOCK, BLOCK as u32).expect("warm");
                sleep_to(gvfs_netsim::now().saturating_since(SimTime::ZERO).as_secs() + 1);
            }
        }
        clients[0].read(fh, 0, BLOCK as u32).expect("attested read");
        // Cut the reader's entire mesh: both advertised holders are
        // unreachable at send time.
        s.peer_link(0, 1).expect("peer link 0-1").set_partitioned(true);
        s.peer_link(0, 2).expect("peer link 0-2").set_partitioned(true);
        let hits_before = s.proxy_client(0).stats().peer_hits;

        let data = clients[0].read(fh, BLOCK, BLOCK as u32).expect("fallback read");
        assert!(data.iter().all(|&b| b == V1), "origin fallback served wrong bytes");

        let r = s.proxy_client(0).stats();
        assert_eq!(r.peer_hits, hits_before, "no peer was reachable — a hit is impossible");
        assert!(r.peer_fallbacks >= 1, "the dead mesh must be accounted as a fallback");
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn idle_swept_holder_is_deadvertised() {
    let sim = Sim::new();
    let session = Session::builder(peer_config()).clients(2).establish(&sim);
    seed_files(&session, &["swept"]);
    let session = Arc::new(session);

    let s = Arc::clone(&session);
    let handle = session.handle();
    sim.spawn("idle-sweep", move || {
        let holder = NfsClient::new(s.client_transport(1), s.root_fh(), MountOptions::noac());
        let fh = holder.resolve("/swept").expect("resolve");
        for b in 0..BLOCKS {
            holder.read(fh, b * BLOCK, BLOCK as u32).expect("warm");
        }
        let server = s.proxy_server();
        assert_eq!(server.peer_holders(fh), vec![2], "the warm holder must be advertised");
        let condemned_before = server.scale_stats().inval.peer_condemned;

        // One idle epoch with a zero-idle budget drops the holder's
        // per-client state — holdings go with the slot.
        server.maintain(0);
        assert!(server.peer_holders(fh).is_empty(), "an idle-swept holder must be de-advertised");
        assert!(
            server.scale_stats().inval.peer_condemned > condemned_before,
            "the sweep must account the condemned adverts"
        );
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn capacity_evicted_holder_answers_miss_and_reader_falls_back() {
    let sim = Sim::new();
    // A cache that holds at most three blocks: warming the second file
    // evicts the first file's content from the holder's store.
    let mut config = peer_config();
    config.disk_cache_bytes = (3 * BLOCK) as usize;
    let session = Session::builder(config).clients(2).establish(&sim);
    seed_files(&session, &["evicted", "filler"]);
    let session = Arc::new(session);

    let s = Arc::clone(&session);
    let handle = session.handle();
    sim.spawn("capacity-miss", move || {
        let reader = NfsClient::new(s.client_transport(0), s.root_fh(), MountOptions::noac());
        let holder = NfsClient::new(s.client_transport(1), s.root_fh(), MountOptions::noac());
        let fh = holder.resolve("/evicted").expect("resolve");
        let filler = holder.resolve("/filler").expect("resolve");
        for b in 0..BLOCKS {
            holder.read(fh, b * BLOCK, BLOCK as u32).expect("warm target");
        }
        // The origin advertises the holder...
        assert_eq!(s.proxy_server().peer_holders(fh), vec![2]);
        // ...but its capacity-squeezed store evicts the target's blocks
        // while warming the filler.
        for b in 0..BLOCKS {
            holder.read(filler, b * BLOCK, BLOCK as u32).expect("warm filler");
        }
        reader.read(fh, 0, BLOCK as u32).expect("attested read");

        let data = reader.read(fh, BLOCK, BLOCK as u32).expect("miss-fallback read");
        assert!(data.iter().all(|&b| b == V1), "fallback read served wrong bytes");
        let r = s.proxy_client(0).stats();
        assert!(r.peer_misses >= 1, "the evicted holder must answer an honest Miss (stats: {r:?})");
        assert!(r.peer_fallbacks >= 1, "a Miss must fall back to the origin");
        handle.shutdown();
    });
    sim.run();
}

#[test]
fn recall_condemns_peer_copies_before_writer_proceeds() {
    let sim = Sim::new();
    let session = Session::builder(peer_config()).clients(3).establish(&sim);
    seed_files(&session, &["recalled"]);
    let session = Arc::new(session);

    let s = Arc::clone(&session);
    let handle = session.handle();
    let observed = Arc::new(Mutex::new(Vec::<u8>::new()));
    let obs = Arc::clone(&observed);
    sim.spawn("recall-condemn", move || {
        let clients: Vec<NfsClient> = (0..3)
            .map(|i| NfsClient::new(s.client_transport(i), s.root_fh(), MountOptions::noac()))
            .collect();
        let fh = clients[0].resolve("/recalled").expect("resolve");
        // Both readers warm the file; the origin advertises both.
        for reader in [0usize, 1] {
            for b in 0..BLOCKS {
                clients[reader].read(fh, b * BLOCK, BLOCK as u32).expect("warm");
                sleep_to(gvfs_netsim::now().saturating_since(SimTime::ZERO).as_secs() + 1);
            }
        }
        let server = s.proxy_server();
        let mut holders = server.peer_holders(fh);
        holders.sort_unstable();
        assert_eq!(holders, vec![1, 2], "both warm readers must be advertised");
        let condemned_before = server.scale_stats().inval.peer_condemned;

        // The conflicting write recalls both read delegations; the
        // recall condemns every advertised copy before it completes, so
        // by the time the writer's WRITE is acknowledged no advert for
        // the pre-recall version can exist.
        clients[2].write(fh, 0, &vec![V2; (BLOCKS * BLOCK) as usize]).expect("recall write");
        assert!(server.peer_holders(fh).is_empty(), "acked write left stale peer adverts behind");
        assert!(
            server.scale_stats().inval.peer_condemned > condemned_before,
            "the recall must account the condemned adverts"
        );

        // And the post-recall read observes the writer's version,
        // whichever path serves it.
        let data = clients[0].read(fh, 0, (BLOCKS * BLOCK) as u32).expect("post-recall read");
        obs.lock().extend_from_slice(&data);
        handle.shutdown();
    });
    sim.run();
    let data = observed.lock();
    assert_eq!(data.len(), (BLOCKS * BLOCK) as usize);
    assert!(data.iter().all(|&b| b == V2), "post-recall read observed a condemned version");
}
