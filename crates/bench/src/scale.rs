//! The proxy-server scale world: a population of lightweight
//! wire-level clients multiplexed over a small driver-actor pool,
//! shared by `bench_scale` and the `fanout` ablation.
//!
//! Unlike the `fig*` experiments this harness does not build full proxy
//! clients (disk cache, poller, flusher per client — far too heavy at
//! thousands): it drives credentialed calls against the proxy server
//! with one `GvfsCred` per simulated client, which is exactly what the
//! server sees from that many real proxies.

use gvfs_core::protocol::{
    proc_ext, CallbackRes, GetinvArgs, GetinvRes, RecoverRes, GVFS_CALLBACK_PROGRAM,
    GVFS_PROXY_PROGRAM, GVFS_VERSION,
};
use gvfs_core::proxy::server::{ProxyServer, ServerConfig};
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
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Driver actors the simulated clients are multiplexed over (also the
/// number of distinct WAN links).
pub const DRIVERS: usize = 16;
const SESSION_KEY: u64 = 0x7363_616c;

/// A client population served by lightweight drivers: all the shared
/// state a phase needs to issue calls for any simulated client.
pub struct World {
    pub server: Arc<ProxyServer>,
    pub node: Arc<ServerNode>,
    pub links: Vec<Arc<Link>>,
    pub wan_stats: RpcStats,
    pub vfs: Arc<Vfs>,
}

/// The wire credential for simulated client `client`.
pub fn cred(client: u32) -> OpaqueAuth {
    let cred =
        GvfsCred { session_key: SESSION_KEY, client_id: client, callback_port: 7000 + client };
    OpaqueAuth::gvfs(&cred).expect("encode credential")
}

/// Replies to recalls instantly with nothing pending: the cheapest
/// possible client end of the callback channel, so the bench measures
/// the server's fan-out machinery and the wire, not client work.
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

impl World {
    /// Builds the NFS origin, a proxy server built with `config`,
    /// `DRIVERS` WAN links and a callback route for every simulated
    /// client.
    pub fn establish(config: ServerConfig, clients: usize) -> World {
        let vfs = Arc::new(Vfs::new());
        let clock: gvfs_server::Clock =
            Arc::new(|| Timestamp::from_nanos(gvfs_netsim::now().as_nanos()));
        let nfs = gvfs_server::Nfs3Server::new(Arc::clone(&vfs), clock);
        let mut dispatcher = Dispatcher::new();
        dispatcher.register(nfs);
        let nfs_node = ServerNode::new("nfs-server", dispatcher, Duration::from_micros(200));

        let loopback = Link::new(LinkConfig::loopback());
        let server = ProxyServer::new(
            config,
            SimRpcClient::new(loopback.forward(), Arc::clone(&nfs_node), RpcStats::new()),
        );
        let mut ps_dispatcher = Dispatcher::new();
        ps_dispatcher.register_arc(Arc::clone(&server) as Arc<dyn RpcService>);
        let node = ServerNode::new("proxy-server", ps_dispatcher, Duration::from_micros(1000));

        let wan_stats = RpcStats::new();
        let links: Vec<Arc<Link>> = (0..DRIVERS).map(|_| Link::new(LinkConfig::wan())).collect();

        // Callback routes: every simulated client answers recalls on a
        // shared no-op callback node over its driver group's link.
        let mut cb_dispatcher = Dispatcher::new();
        cb_dispatcher.register(NullCallback);
        let cb_node =
            ServerNode::new("clients-callback", cb_dispatcher, Duration::from_micros(200));
        for i in 0..clients {
            let id = i as u32 + 1;
            let link = &links[i % DRIVERS];
            server.register_callback(
                id,
                SimRpcClient::new(link.reverse(), Arc::clone(&cb_node), wan_stats.clone()),
            );
        }

        World { server, node, links, wan_stats, vfs }
    }

    /// A wire client for driver `d`, sharing that driver group's link.
    pub fn transport(&self, d: usize) -> SimRpcClient {
        SimRpcClient::new(
            self.links[d % DRIVERS].forward(),
            Arc::clone(&self.node),
            self.wan_stats.clone(),
        )
    }

    /// Creates and seeds one 512-byte file, returning its handle.
    pub fn seed_file(&self, name: &str) -> Fh3 {
        let t = Timestamp::from_nanos(0);
        let id = self.vfs.create(self.vfs.root(), name, 0o644, t).expect("seed create");
        self.vfs.write(id, 0, &[7u8; 512], t).expect("seed write");
        Fh3::from_fileid(id.as_u64())
    }
}

/// Runs `f(driver, client_index)` for every client, fanned over the
/// driver pool, and parks the caller until every driver finished.
pub fn drive<F>(clients: usize, f: F)
where
    F: Fn(usize, usize) + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let pending = Arc::new(AtomicUsize::new(DRIVERS));
    let caller = gvfs_netsim::current_actor();
    for d in 0..DRIVERS {
        let f = Arc::clone(&f);
        let pending = Arc::clone(&pending);
        let caller = caller.clone();
        gvfs_netsim::spawn_from_actor(&format!("driver-{d}"), move || {
            let mut i = d;
            while i < clients {
                f(d, i);
                i += DRIVERS;
            }
            if pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                caller.unpark();
            }
        });
    }
    while pending.load(Ordering::SeqCst) > 0 {
        gvfs_netsim::park();
    }
}

/// Nearest-rank percentile of an already-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// One `GETINV` on the wire as client `id`.
pub fn getinv_call(t: &SimRpcClient, id: u32, last: Option<u64>) -> GetinvRes {
    let args = gvfs_xdr::to_bytes(&GetinvArgs { last_timestamp: last }).expect("encode getinv");
    let bytes = t
        .call_with_cred(GVFS_PROXY_PROGRAM, GVFS_VERSION, proc_ext::GETINV, args, cred(id))
        .expect("getinv");
    gvfs_xdr::from_bytes(&bytes).expect("decode getinv")
}

/// One small wrapped `WRITE` on the wire as client `id`.
pub fn write_call(t: &SimRpcClient, id: u32, fh: Fh3) {
    let args = gvfs_xdr::to_bytes(&gvfs_nfs3::WriteArgs {
        file: fh,
        offset: 0,
        count: 8,
        stable: gvfs_nfs3::StableHow::FileSync,
        data: vec![3u8; 8],
    })
    .expect("encode write");
    t.call_with_cred(GVFS_PROXY_PROGRAM, GVFS_VERSION, proc3::WRITE, args, cred(id))
        .expect("write");
}

/// One recall fan-out round: `clients` read-delegation holders on one
/// shared file, then a writer triggers the N-recall round through a
/// fan-out window of `window` (1 = the pre-rework sequential
/// issue-and-wait arm). Returns the round latency in (virtual) seconds
/// — the ablation's comparison unit — and a JSON block with the
/// server's scale counters.
pub fn fanout_round(clients: usize, window: usize) -> (f64, serde_json::Value) {
    let sim = Sim::new();
    let result = Arc::new(Mutex::new(None));
    let out = Arc::clone(&result);
    sim.spawn("bench-main", move || {
        let world = World::establish(
            ServerConfig {
                model: ConsistencyModel::DelegationCallback(DelegationConfig::default()),
                invalidation_capacity: 1024,
                fanout_window: window,
                ..ServerConfig::default()
            },
            clients,
        );
        let shared = world.seed_file("shared");

        // Every client reads the shared file once: N read delegations.
        let transports: Vec<SimRpcClient> = (0..DRIVERS).map(|d| world.transport(d)).collect();
        let read_args =
            gvfs_xdr::to_bytes(&gvfs_nfs3::ReadArgs { file: shared, offset: 0, count: 512 })
                .expect("encode read");
        {
            let transports = transports.clone();
            let read_args = read_args.clone();
            drive(clients, move |d, i| {
                let id = i as u32 + 1;
                transports[d]
                    .call_with_cred(
                        GVFS_PROXY_PROGRAM,
                        GVFS_VERSION,
                        proc3::READ,
                        read_args.clone(),
                        cred(id),
                    )
                    .expect("read");
            });
        }

        // The writer modifies it: the server must recall all N holders.
        let writer = clients as u32 + 1;
        let write_args = gvfs_xdr::to_bytes(&gvfs_nfs3::WriteArgs {
            file: shared,
            offset: 0,
            count: 64,
            stable: gvfs_nfs3::StableHow::FileSync,
            data: vec![9u8; 64],
        })
        .expect("encode write");
        let t0 = gvfs_netsim::now();
        transports[0]
            .call_with_cred(
                GVFS_PROXY_PROGRAM,
                GVFS_VERSION,
                proc3::WRITE,
                write_args,
                cred(writer),
            )
            .expect("write");
        let round_s = gvfs_netsim::now().saturating_since(t0).as_secs_f64();

        let stats = world.server.scale_stats();
        assert!(
            stats.recalls_sent >= clients as u64,
            "expected >= {clients} recalls, sent {}",
            stats.recalls_sent
        );
        assert!(
            stats.fanout_in_flight_hwm <= window as u64,
            "window {} exceeded: hwm {}",
            window,
            stats.fanout_in_flight_hwm
        );
        let json = serde_json::json!({
            "window": window,
            "recall_round_s": round_s,
            "recalls_per_sec": clients as f64 / round_s,
            "server": crate::server_meta(&world.server),
        });
        *out.lock() = Some((round_s, json));
    });
    sim.run();
    let v = result.lock().take();
    v.expect("fanout round produced no result")
}
