//! Server-scale regressions: per-client state on the proxy server must
//! stay bounded after a churn of mostly-idle clients, recall, sweep and
//! `RECOVER` rounds must stay within the fan-out window, a large
//! invalidation backlog must drain through `poll_again` paging without
//! degrading to a force-invalidation, and the open-file table's LRU
//! bound is one global budget.
//!
//! These are the cargo-test twins of the `bench_scale` harness asserts:
//! the bench exercises them at 1,000 and 2,500 clients, these pin the behavior
//! at CI-sized populations.

use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::invalidation::ConcurrentInvalidationTracker;
use gvfs_core::protocol::{
    proc_ext, CallbackRes, GetinvArgs, GetinvRes, RecoverRes, GVFS_CALLBACK_PROGRAM,
    GVFS_PROXY_PROGRAM, GVFS_VERSION, MAX_INVALIDATIONS_PER_REPLY,
};
use gvfs_core::proxy::server::{ProxyServer, ServerConfig};
use gvfs_core::session::{Session, SessionConfig};
use gvfs_core::trace::{ProtocolEvent, TraceBuffer};
use gvfs_core::{ConsistencyModel, DelegationConfig};
use gvfs_netsim::link::{Link, LinkConfig};
use gvfs_netsim::transport::{ServerNode, SimRpcClient};
use gvfs_netsim::Sim;
use gvfs_nfs3::{proc3, Fh3};
use gvfs_rpc::dispatch::{Dispatcher, RpcService};
use gvfs_rpc::message::{GvfsCred, OpaqueAuth};
use gvfs_rpc::stats::RpcStats;
use gvfs_rpc::RpcError;
use gvfs_vfs::{Timestamp, Vfs};
use std::sync::Arc;
use std::time::Duration;

fn cred(client: u32) -> OpaqueAuth {
    let cred = GvfsCred { session_key: 0xb0a7, client_id: client, callback_port: 7000 + client };
    OpaqueAuth::gvfs(&cred).expect("encode credential")
}

/// Answers every recall instantly with nothing pending.
struct NullCallback;

impl RpcService for NullCallback {
    fn program(&self) -> u32 {
        GVFS_CALLBACK_PROGRAM
    }
    fn version(&self) -> u32 {
        GVFS_VERSION
    }
    fn call(&self, procedure: u32, _args: &[u8]) -> Result<Vec<u8>, RpcError> {
        match procedure {
            proc_ext::CALLBACK => Ok(gvfs_xdr::to_bytes(&CallbackRes::default())?),
            proc_ext::RECOVER => Ok(gvfs_xdr::to_bytes(&RecoverRes::default())?),
            p => {
                Err(RpcError::ProcedureUnavailable { program: GVFS_CALLBACK_PROGRAM, procedure: p })
            }
        }
    }
}

fn getinv(t: &SimRpcClient, id: u32, last: Option<u64>) -> GetinvRes {
    let args = gvfs_xdr::to_bytes(&GetinvArgs { last_timestamp: last }).expect("encode");
    let bytes = t
        .call_with_cred(GVFS_PROXY_PROGRAM, GVFS_VERSION, proc_ext::GETINV, args, cred(id))
        .expect("getinv");
    gvfs_xdr::from_bytes(&bytes).expect("decode")
}

/// A proxy server built with `config` in front of a fresh NFS server
/// exporting `vfs`, with instant-answer callback routes for clients
/// `1..=callbacks`, and a wire transport to it.
fn proxy_stack(
    vfs: &Arc<Vfs>,
    config: ServerConfig,
    callbacks: usize,
) -> (Arc<ProxyServer>, SimRpcClient) {
    let clock: gvfs_server::Clock =
        Arc::new(|| Timestamp::from_nanos(gvfs_netsim::now().as_nanos()));
    let nfs = gvfs_server::Nfs3Server::new(Arc::clone(vfs), clock);
    let mut dispatcher = Dispatcher::new();
    dispatcher.register(nfs);
    let nfs_node = ServerNode::new("nfs-server", dispatcher, Duration::from_micros(100));
    let loopback = Link::new(LinkConfig::loopback());
    let server =
        ProxyServer::new(config, SimRpcClient::new(loopback.forward(), nfs_node, RpcStats::new()));
    let mut ps_dispatcher = Dispatcher::new();
    ps_dispatcher.register_arc(Arc::clone(&server) as Arc<dyn RpcService>);
    let node = ServerNode::new("proxy-server", ps_dispatcher, Duration::from_micros(100));

    let link = Link::new(LinkConfig::loopback());
    let wan_stats = RpcStats::new();
    let mut cb_dispatcher = Dispatcher::new();
    cb_dispatcher.register(NullCallback);
    let cb_node = ServerNode::new("callback", cb_dispatcher, Duration::from_micros(100));
    for id in 1..=callbacks as u32 {
        server.register_callback(
            id,
            SimRpcClient::new(link.reverse(), Arc::clone(&cb_node), wan_stats.clone()),
        );
    }
    (server, SimRpcClient::new(link.forward(), node, wan_stats))
}

/// Seeds one 512-byte file named `name` in `vfs` and returns its handle.
fn seed_file(vfs: &Vfs, name: &str) -> Fh3 {
    let fid = vfs.create(vfs.root(), name, 0o644, Timestamp::from_nanos(0)).unwrap();
    vfs.write(fid, 0, &[7u8; 512], Timestamp::from_nanos(0)).unwrap();
    Fh3::from_fileid(fid.as_u64())
}

/// Seeds the one shared file of a test.
fn seed_shared(vfs: &Vfs) -> Fh3 {
    seed_file(vfs, "shared")
}

/// One wrapped NFS call on the wire as client `id`.
fn nfs_call<A: gvfs_xdr::Xdr>(t: &SimRpcClient, id: u32, procedure: u32, args: &A) {
    let args = gvfs_xdr::to_bytes(args).expect("encode");
    t.call_with_cred(GVFS_PROXY_PROGRAM, GVFS_VERSION, procedure, args, cred(id))
        .expect("nfs call");
}

fn read_args(fh: Fh3) -> gvfs_nfs3::ReadArgs {
    gvfs_nfs3::ReadArgs { file: fh, offset: 0, count: 512 }
}

fn write_args(fh: Fh3) -> gvfs_nfs3::WriteArgs {
    gvfs_nfs3::WriteArgs {
        file: fh,
        offset: 0,
        count: 8,
        stable: gvfs_nfs3::StableHow::FileSync,
        data: vec![9u8; 8],
    }
}

/// A churn of `CLIENTS` delegation holders and pollers leaves the
/// server tracking every one of them; after the active set shrinks to
/// `ACTIVE`, epoch sweeps must evict the idle majority's invalidation
/// buffers and health breakers, bounding per-client state by the live
/// population rather than the historical one.
#[test]
fn idle_client_state_is_bounded_after_churn() {
    const CLIENTS: usize = 64;
    const ACTIVE: usize = 4;
    let sim = Sim::new();
    sim.spawn("test", || {
        let vfs = Arc::new(Vfs::new());
        let config = ServerConfig {
            model: ConsistencyModel::DelegationCallback(DelegationConfig::default()),
            ..ServerConfig::default()
        };
        let (server, t) = proxy_stack(&vfs, config, CLIENTS);

        // Seed one shared file; every client reads it (a delegation
        // each) and bootstraps a poll buffer.
        let fh = seed_shared(&vfs);
        let mut ts: Vec<u64> = (0..CLIENTS)
            .map(|i| {
                let id = i as u32 + 1;
                nfs_call(&t, id, proc3::READ, &read_args(fh));
                getinv(&t, id, None).timestamp
            })
            .collect();

        // A writer invalidates it: the server recalls all CLIENTS
        // holders, creating a health breaker per client.
        nfs_call(&t, CLIENTS as u32 + 1, proc3::WRITE, &write_args(fh));
        let before = server.scale_stats();
        assert!(before.recalls_sent >= CLIENTS as u64, "every holder must be recalled");
        assert_eq!(before.inval_clients, CLIENTS, "every poller is tracked before eviction");
        assert!(before.health_entries >= CLIENTS, "every recall target has a breaker");

        // Only ACTIVE clients keep polling while epochs pass.
        for _ in 0..4 {
            for (i, slot) in ts.iter_mut().enumerate().take(ACTIVE) {
                *slot = getinv(&t, i as u32 + 1, Some(*slot)).timestamp;
            }
            server.maintain(2);
        }
        let after = server.scale_stats();
        assert!(
            after.inval_clients <= ACTIVE,
            "idle buffers must be evicted: {} tracked after churn of {CLIENTS}",
            after.inval_clients
        );
        assert!(
            after.inval.evicted_buffers >= (CLIENTS - ACTIVE) as u64,
            "expected >= {} buffer evictions, saw {}",
            CLIENTS - ACTIVE,
            after.inval.evicted_buffers
        );
        assert!(
            after.health_entries <= ACTIVE,
            "idle breakers must be evicted: {} remain",
            after.health_entries
        );
        assert!(
            after.health_evicted >= (CLIENTS - ACTIVE) as u64,
            "expected >= {} breaker evictions, saw {}",
            CLIENTS - ACTIVE,
            after.health_evicted
        );

        // Eviction is invisible beyond one re-bootstrap: an evicted
        // client's next poll force-invalidates and re-registers it.
        let back = getinv(&t, CLIENTS as u32, Some(ts[CLIENTS - 1]));
        assert!(back.force_invalidate, "an evicted poller re-enters via first contact");
    });
    sim.run();
}

/// The most recall callbacks the protocol trace shows on the wire at
/// once: a `RecallSent` opens one, and the `RecallDone` of the same
/// client and file closes it.
fn max_recalls_in_flight(trace: &TraceBuffer) -> usize {
    let mut open: Vec<(u32, u64)> = Vec::new();
    let mut max = 0;
    for record in trace.records() {
        match record.ev {
            ProtocolEvent::RecallSent { client, fh, .. } => {
                open.push((client, fh));
                max = max.max(open.len());
            }
            ProtocolEvent::RecallDone { client, fh, .. } => {
                if let Some(i) = open.iter().position(|&o| o == (client, fh)) {
                    open.remove(i);
                }
            }
            _ => {}
        }
    }
    max
}

/// Whether the trace shows client `client`'s recall of `fh` answered.
fn recall_done(trace: &TraceBuffer, client: u32, fh: Fh3) -> bool {
    trace.records().iter().any(|r| {
        matches!(r.ev, ProtocolEvent::RecallDone { client: c, fh: f, ok: true, .. }
            if c == client && f == fh.fileid())
    })
}

/// A conflicting WRITE recalls all 16 read-delegation holders through
/// the fan-out window while a delegation sweep recalls an idle holder
/// of another file, and a crash followed by the `RECOVER` multicast to
/// the same clients stays within the window too. The sweep recall fires
/// once the round holds the whole window, so it must wait for a slot:
/// the protocol trace never shows more recalls on the wire than the
/// window, and the in-flight high-water mark reaches the window and
/// never exceeds it. With a window of 1, two concurrent rounds larger
/// than the window both finish within it.
#[test]
fn recall_and_recover_rounds_stay_within_the_fanout_window() {
    const HOLDERS: usize = 16;
    /// Holds a delegation on a second file and then idles past the
    /// sweep's expiration.
    const IDLER: u32 = HOLDERS as u32 + 1;
    for window in [1, 4] {
        let sim = Sim::new();
        sim.spawn("test", move || {
            let vfs = Arc::new(Vfs::new());
            let config = ServerConfig {
                model: ConsistencyModel::DelegationCallback(DelegationConfig::default()),
                fanout_window: window,
                ..ServerConfig::default()
            };
            let (server, t) = proxy_stack(&vfs, config, HOLDERS + 1);
            let trace = TraceBuffer::new();
            server.install_trace(Arc::clone(&trace));
            let idle = seed_file(&vfs, "idle");
            nfs_call(&t, IDLER, proc3::READ, &read_args(idle));
            gvfs_netsim::sleep(DelegationConfig::default().expiration);
            let fh = seed_shared(&vfs);
            for id in 1..=HOLDERS as u32 {
                nfs_call(&t, id, proc3::READ, &read_args(fh));
            }

            // The sweep fires once the round has filled the window.
            let sweeper = Arc::clone(&server);
            gvfs_netsim::spawn_from_actor("sweeper", move || {
                while sweeper.scale_stats().recalls_sent < window as u64 {
                    gvfs_netsim::sleep(Duration::from_micros(10));
                }
                sweeper.sweep();
            });
            nfs_call(&t, HOLDERS as u32 + 2, proc3::WRITE, &write_args(fh));
            while !recall_done(&trace, IDLER, idle) {
                gvfs_netsim::sleep(Duration::from_millis(1));
            }
            let stats = server.scale_stats();
            assert_eq!(
                stats.recalls_sent,
                HOLDERS as u64 + 1,
                "every holder is recalled, and the idle one by the sweep"
            );
            assert_eq!(stats.fanout_window, window);
            assert_eq!(
                max_recalls_in_flight(&trace),
                window,
                "the round fills the window of {window}, and the sweep recall waits for a slot"
            );
            assert_eq!(
                stats.fanout_in_flight_hwm, window as u64,
                "the recall round fills the window of {window} and never exceeds it"
            );

            server.crash();
            assert_eq!(server.recover(), HOLDERS + 1, "every client answers RECOVER");
            assert_eq!(
                server.scale_stats().fanout_in_flight_hwm,
                window as u64,
                "the RECOVER multicast stays within the window of {window}"
            );
        });
        sim.run();
    }

    // Two rounds of 8 recalls each share a window of 1.
    let sim = Sim::new();
    sim.spawn("test", || {
        let vfs = Arc::new(Vfs::new());
        let config = ServerConfig {
            model: ConsistencyModel::DelegationCallback(DelegationConfig::default()),
            fanout_window: 1,
            ..ServerConfig::default()
        };
        let (server, t) = proxy_stack(&vfs, config, HOLDERS);
        let trace = TraceBuffer::new();
        server.install_trace(Arc::clone(&trace));
        let files = [seed_file(&vfs, "a"), seed_file(&vfs, "b")];
        for id in 1..=HOLDERS as u32 {
            nfs_call(&t, id, proc3::READ, &read_args(files[id as usize % 2]));
        }
        for (i, fh) in files.into_iter().enumerate() {
            let t = t.clone();
            gvfs_netsim::spawn_from_actor(&format!("writer-{i}"), move || {
                nfs_call(&t, HOLDERS as u32 + 1 + i as u32, proc3::WRITE, &write_args(fh));
            });
        }
        while (1..=HOLDERS as u32).any(|id| !recall_done(&trace, id, files[id as usize % 2])) {
            gvfs_netsim::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.scale_stats().recalls_sent, HOLDERS as u64, "both rounds finish");
        assert_eq!(max_recalls_in_flight(&trace), 1, "both rounds share the window of 1");
    });
    sim.run();
}

/// A backlog several times the per-reply cap must drain through
/// `poll_again` pages — each page full, none forced — and leave the
/// buffer empty: the piggyback path (`try_drain`) then has nothing to
/// attach.
#[test]
fn poll_again_drains_multi_page_backlog() {
    let tracker = ConcurrentInvalidationTracker::new(10_000);
    let boot = tracker.getinv(1, None);
    let total = 2 * MAX_INVALIDATIONS_PER_REPLY + 50;
    for i in 0..total {
        tracker.record_modification(Fh3::from_fileid(5000 + i as u64), 2);
    }

    let mut last = boot.timestamp;
    let mut pages = Vec::new();
    let mut drained = 0usize;
    loop {
        let res = tracker.getinv(1, Some(last));
        assert!(!res.force_invalidate, "a paged drain must never degrade to a force");
        pages.push(res.handles.len());
        drained += res.handles.len();
        last = res.timestamp;
        if !res.poll_again {
            break;
        }
    }
    assert_eq!(
        pages,
        vec![MAX_INVALIDATIONS_PER_REPLY, MAX_INVALIDATIONS_PER_REPLY, 50],
        "three pages: two full, one remainder"
    );
    assert_eq!(drained, total, "every invalidation is delivered exactly once");
    assert_eq!(
        tracker.try_drain(1),
        None,
        "a fully drained buffer must not piggyback spurious replies"
    );
}

/// A proxy-server crash loses the invalidation buffers, not their
/// configured capacity: after the restart a two-entry buffer must still
/// wrap on the third distinct modification and force-invalidate.
#[test]
fn crash_keeps_configured_invalidation_capacity() {
    let sim = Sim::new();
    sim.spawn("test", || {
        let vfs = Arc::new(Vfs::new());
        let config = ServerConfig {
            model: ConsistencyModel::polling_30s(),
            invalidation_capacity: 2,
            ..ServerConfig::default()
        };
        let (server, t) = proxy_stack(&vfs, config, 0);
        server.crash();

        let boot = getinv(&t, 1, None);
        for name in ["a", "b", "c"] {
            let fid = vfs.create(vfs.root(), name, 0o644, Timestamp::from_nanos(0)).unwrap();
            nfs_call(&t, 2, proc3::WRITE, &write_args(Fh3::from_fileid(fid.as_u64())));
        }
        let res = getinv(&t, 1, Some(boot.timestamp));
        assert!(res.force_invalidate, "three writes must wrap the configured 2-entry buffer");
    });
    sim.run();
}

/// One client reads `files` seeded files in a delegation session whose
/// open-file table holds at most 8 entries, then one sweep runs.
/// Returns the recalls that sweep sent and the files still tracked.
fn lru_sweep(files: usize) -> (u64, usize) {
    let sim = Sim::new();
    let vfs = Arc::new(Vfs::new());
    for n in 0..files {
        let fid =
            vfs.create(vfs.root(), &format!("f{n}"), 0o644, Timestamp::from_nanos(0)).unwrap();
        vfs.write(fid, 0, &[n as u8; 64], Timestamp::from_nanos(0)).unwrap();
    }
    let session = Session::builder(SessionConfig {
        model: ConsistencyModel::DelegationCallback(DelegationConfig {
            max_tracked_files: 8,
            ..DelegationConfig::default()
        }),
        sweep_interval: None,
        ..SessionConfig::default()
    })
    .clients(1)
    .vfs(vfs)
    .establish(&sim);
    let out = Arc::new(parking_lot::Mutex::new(None));
    let result = Arc::clone(&out);
    sim.spawn("lru", move || {
        let c =
            NfsClient::new(session.client_transport(0), session.root_fh(), MountOptions::default());
        for n in 0..files {
            assert_eq!(c.read_file(&format!("/f{n}")).unwrap(), vec![n as u8; 64]);
        }
        let server = session.proxy_server();
        let before = server.scale_stats().recalls_sent;
        server.sweep();
        let after = server.scale_stats();
        *result.lock() = Some((after.recalls_sent - before, after.deleg_files));
        session.handle().shutdown();
    });
    sim.run();
    let result = out.lock().take();
    result.expect("the client actor ran")
}

/// The open-file table's LRU bound (§4.3.3) is one global budget: with
/// the root directory, 7 read files fill the 8-entry table and a sweep
/// recalls nothing; an 8th file overflows it by one, and the sweep
/// recalls exactly the least recently used file.
#[test]
fn lru_bound_is_one_global_budget() {
    assert_eq!(lru_sweep(7), (0, 8), "a full table must not be swept");
    assert_eq!(lru_sweep(8), (1, 8), "one file over the bound costs one recall");
}
