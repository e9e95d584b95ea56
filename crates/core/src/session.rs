//! Session establishment — the middleware role (Figure 1).
//!
//! A GVFS session overlays shared physical resources: one kernel NFS
//! server, a proxy server beside it, and per-client proxy clients, each
//! pair joined by a WAN link and fronted to its kernel NFS client over
//! loopback. The [`SessionBuilder`] performs what the paper's
//! middleware does — dynamic creation and configuration of the proxies
//! with the session's consistency model and cache policy — and spawns
//! the background actors (invalidation pollers, write-back flushers,
//! the delegation sweeper). The proxy server and each proxy client are
//! built from the [`SessionConfig`] in one constructor and never
//! reconfigured; so are the chaos self-test [`Faults`].
//!
//! [`SessionConfig`] holds only what a session tailors: the consistency
//! model and the cache policy. What no caller varies is a constant at
//! its point of use: the modelled per-RPC process costs, the session
//! key, the proxy disk and peer LAN profiles here, and the read-ahead
//! trigger, the degradation delay, the retry budget and the scrub batch
//! in the proxy client.
//!
//! [`NativeMount`] builds the baseline the paper compares against:
//! kernel NFS clients talking straight to the kernel NFS server across
//! the WAN, no proxies.

use crate::model::ConsistencyModel;
use crate::proxy::client::{CallbackService, ProxyClient, DEGRADE_AFTER};
use crate::proxy::server::{ProxyServer, ServerConfig};
use crate::store::persist::{PersistConfig, PersistentStore};
use gvfs_netsim::disk::{DiskConfig, VirtualDisk};
use gvfs_netsim::link::{Link, LinkConfig};
use gvfs_netsim::transport::{ServerNode, SimRpcClient};
use gvfs_netsim::Sim;
use gvfs_nfs3::Fh3;
use gvfs_rpc::dispatch::Dispatcher;
use gvfs_rpc::message::{GvfsCred, OpaqueAuth};
use gvfs_rpc::stats::RpcStats;
use gvfs_server::Nfs3Server;
use gvfs_vfs::{Timestamp, Vfs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Forwards a whole RPC program to an upstream node unmodified — used
/// to carry the MOUNT protocol through the proxy chain so kernel
/// clients bootstrap "in the same way as conventional NFS" (§2).
struct ForwardService {
    program: u32,
    version: u32,
    upstream: SimRpcClient,
}

impl gvfs_rpc::dispatch::RpcService for ForwardService {
    fn program(&self) -> u32 {
        self.program
    }
    fn version(&self) -> u32 {
        self.version
    }
    fn call(&self, procedure: u32, args: &[u8]) -> Result<Vec<u8>, gvfs_rpc::RpcError> {
        self.upstream.call(self.program, self.version, procedure, args.to_vec())
    }
}

/// The export path every session and native mount publishes via the
/// MOUNT protocol.
pub const EXPORT_PATH: &str = "/export/grid";

/// Per-RPC processing time modelled for each proxy process: the
/// user-level interception overhead the paper measures at 4–8 % on a
/// LAN (forwarded calls pay two extra process traversals).
const PROXY_PROC_TIME: Duration = Duration::from_millis(1);

/// Per-RPC processing time of the kernel NFS server.
const NFS_PROC_TIME: Duration = Duration::from_micros(200);

/// The session key carried in every request credential.
const SESSION_KEY: u64 = 0x6776_6673;

/// Session-wide configuration chosen by the middleware.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// The consistency model.
    pub model: ConsistencyModel,
    /// Enable write-back caching at the proxy clients (the paper's
    /// GVFS-WB setup; under delegation, delayed writes additionally
    /// require a write delegation).
    pub write_back: bool,
    /// Proxy disk-cache capacity per client, in bytes.
    pub disk_cache_bytes: usize,
    /// Per-client invalidation buffer capacity (entries).
    pub invalidation_buffer: usize,
    /// Delegation sweeper period (speculated closes); `None` disables.
    pub sweep_interval: Option<Duration>,
    /// Picks the proxy client's write-back window: unbounded, so a
    /// batch's WRITEs share one WAN round trip, or one WRITE in flight,
    /// so each pays a round trip; the `pipelining` ablation compares.
    pub pipeline_writeback: bool,
    /// Sequential read-ahead window, in `BLOCK_SIZE` blocks
    /// speculatively fetched past a detected sequential run. Zero
    /// disables speculation while keeping gap-only fetching (a READ
    /// miss still fetches just its uncached gaps as one concurrent
    /// burst); the `readahead` ablation measures the difference.
    pub readahead_window: usize,
    /// Bounded-staleness limit for degraded serving: once the breaker
    /// has been open for 2 s (`DEGRADE_AFTER`), a cached read is
    /// answered locally only if the cache was validated against the
    /// server within this window. `None` disables
    /// the degradation ladder entirely — forwarded calls hard-retry
    /// through the outage (the availability ablation's baseline arm).
    pub max_staleness: Option<Duration>,
    /// Every proxy client caches into the persistent block store; this
    /// picks two things only. The disk's cost model: off, the store
    /// runs on a free disk ([`DiskConfig::instant`]); on, on a modelled
    /// SSD or the disks given to [`SessionBuilder::client_disks`]. And
    /// the crash [`Session::restart_proxy_client`] models: off, a
    /// process crash (the store keeps its content); on, a machine
    /// crash (the store reopens from its disk, losing what no
    /// durability barrier covered).
    pub persistent_store: bool,
    /// Enable peer-to-peer block sourcing (`PEERREAD`): the origin
    /// advertises live holders of clean blocks, and gap fetches try the
    /// lowest-latency advertised peer over a LAN link before paying the
    /// WAN round trip to the origin. Off, the wire traffic is
    /// byte-identical to a star-only session.
    pub peer_read: bool,
    /// Background scrub period per client: each tick verifies 4 MiB of
    /// stored checksums ahead of demand and re-fetches whatever the
    /// sweep quarantines. `None` (the default) disables the scrub actor.
    pub scrub_period: Option<Duration>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            model: ConsistencyModel::Passthrough,
            write_back: false,
            disk_cache_bytes: 4 << 30,
            invalidation_buffer: 4096,
            sweep_interval: Some(Duration::from_secs(60)),
            pipeline_writeback: true,
            readahead_window: 8,
            max_staleness: Some(Duration::from_secs(120)),
            persistent_store: false,
            peer_read: false,
            scrub_period: None,
        }
    }
}

/// Deliberate protocol breakages the chaos harness builds into a
/// session to prove that its oracles convict them. The default is the
/// correct system; nothing else sets a fault. Clients are named by
/// index, as in [`Session::proxy_client`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Faults {
    /// `--break-recall`: the proxy server discards recall callbacks
    /// instead of sending them, so holders are revoked without knowing.
    pub suppress_recalls: bool,
    /// `--break-peerread`: the proxy server stops de-advertising
    /// condemned peer copies, and this client serves `PEERREAD`s from
    /// raw store bytes under the requester's echoed attestation.
    pub stale_peer: Option<usize>,
    /// `--break-scrub`: this client's persistent store skips
    /// verify-on-read and the scrub sweep, so it serves rotten bytes.
    pub unverified_store: Option<usize>,
}

/// Builder for a [`Session`].
#[derive(Debug)]
pub struct SessionBuilder {
    config: SessionConfig,
    faults: Faults,
    clients: usize,
    wan: LinkConfig,
    client_links: Option<Vec<LinkConfig>>,
    vfs: Option<Arc<Vfs>>,
    client_disks: Option<Vec<Arc<VirtualDisk>>>,
}

impl SessionBuilder {
    /// Number of proxy clients (client machines) in the session.
    pub fn clients(mut self, n: usize) -> Self {
        self.clients = n;
        self
    }

    /// The WAN link configuration used for every client–server link.
    pub fn wan(mut self, config: LinkConfig) -> Self {
        self.wan = config;
        self
    }

    /// Per-client link configurations (overrides [`SessionBuilder::wan`]
    /// and [`SessionBuilder::clients`]); lets a session mix WAN users
    /// with a LAN administrator, as in the paper's software-repository
    /// scenario (Figure 1, VC5).
    pub fn client_links(mut self, links: Vec<LinkConfig>) -> Self {
        self.clients = links.len();
        self.client_links = Some(links);
        self
    }

    /// Uses an existing (pre-populated) filesystem instead of an empty
    /// one.
    pub fn vfs(mut self, vfs: Arc<Vfs>) -> Self {
        self.vfs = Some(vfs);
        self
    }

    /// Uses existing per-client virtual disks for the block stores
    /// instead of fresh ones — a session established over the disks of
    /// a previous session models a restart: the stores replay their
    /// on-disk indexes and serve surviving clean blocks warm. Implies
    /// [`SessionConfig::persistent_store`], so these disks keep their
    /// own cost model and a client restart is a machine crash. Entries
    /// beyond the list get fresh SSDs.
    pub fn client_disks(mut self, disks: Vec<Arc<VirtualDisk>>) -> Self {
        self.config.persistent_store = true;
        self.client_disks = Some(disks);
        self
    }

    /// Builds the chaos self-test `faults` into the session's proxies.
    pub fn faults(mut self, faults: Faults) -> Self {
        self.faults = faults;
        self
    }

    /// Establishes the session: creates the proxies, registers callback
    /// routes, and spawns the background actors on `sim`.
    pub fn establish(self, sim: &Sim) -> Session {
        let config = self.config;
        let vfs = self.vfs.unwrap_or_else(|| Arc::new(Vfs::new()));
        let clock: gvfs_server::Clock =
            Arc::new(|| Timestamp::from_nanos(gvfs_netsim::now().as_nanos()));
        let nfs = Nfs3Server::new(Arc::clone(&vfs), clock);
        let root = nfs.root_fh();
        let mut dispatcher = Dispatcher::new();
        dispatcher.register(nfs);
        dispatcher.register(gvfs_server::MountServer::new(Arc::clone(&vfs), EXPORT_PATH));
        let nfs_node = ServerNode::new("nfs-server", dispatcher, NFS_PROC_TIME);

        // Proxy server beside the NFS server (loopback link).
        let server_loop = Link::new(LinkConfig::loopback());
        let lan_stats = RpcStats::new();
        let proxy_server = ProxyServer::new(
            ServerConfig {
                model: config.model,
                invalidation_capacity: config.invalidation_buffer,
                peer_read: config.peer_read,
                suppress_recalls: self.faults.suppress_recalls,
                suppress_deadvertise: self.faults.stale_peer.is_some(),
                ..ServerConfig::default()
            },
            SimRpcClient::new(server_loop.forward(), Arc::clone(&nfs_node), lan_stats.clone()),
        );
        let mut ps_dispatcher = Dispatcher::new();
        ps_dispatcher
            .register_arc(Arc::clone(&proxy_server) as Arc<dyn gvfs_rpc::dispatch::RpcService>);
        // MOUNT passes through the proxy server to the NFS host.
        ps_dispatcher.register(ForwardService {
            program: gvfs_nfs3::mount::MOUNT_PROGRAM,
            version: gvfs_nfs3::mount::MOUNT_V3,
            upstream: SimRpcClient::new(
                server_loop.forward(),
                Arc::clone(&nfs_node),
                lan_stats.clone(),
            ),
        });
        let proxy_server_node = ServerNode::new("proxy-server", ps_dispatcher, PROXY_PROC_TIME);

        let wan_stats = RpcStats::new();
        let stop = Arc::new(AtomicBool::new(false));
        let mut clients = Vec::with_capacity(self.clients);
        for i in 0..self.clients {
            let id = i as u32 + 1;
            let link_config = self
                .client_links
                .as_ref()
                .and_then(|links| links.get(i).copied())
                .unwrap_or(self.wan);
            let wan_link = Link::new(link_config);
            let cred =
                GvfsCred { session_key: SESSION_KEY, client_id: id, callback_port: 7000 + id };
            let wan = SimRpcClient::new(
                wan_link.forward(),
                Arc::clone(&proxy_server_node),
                wan_stats.clone(),
            )
            .with_credential(OpaqueAuth::gvfs(&cred).expect("encode credential"));
            let disk = match self.client_disks.as_ref().and_then(|disks| disks.get(i)) {
                Some(disk) => Arc::clone(disk),
                None if config.persistent_store => VirtualDisk::new(DiskConfig::ssd()),
                None => VirtualDisk::new(DiskConfig::instant()),
            };
            let store = PersistentStore::open(
                Arc::clone(&disk),
                PersistConfig {
                    capacity: config.disk_cache_bytes,
                    verify: self.faults.unverified_store != Some(i),
                    ..PersistConfig::default()
                },
            );
            let break_peerread = self.faults.stale_peer == Some(i);
            let proxy = ProxyClient::new(id, &config, wan, store, break_peerread);

            // Callback service node, reached from the proxy server over
            // the reverse WAN direction (and from peers over the LAN).
            let mut cb_dispatcher = Dispatcher::new();
            cb_dispatcher.register(CallbackService(Arc::downgrade(&proxy)));
            let cb_node = ServerNode::new(
                &format!("proxy-client-{id}-callback"),
                cb_dispatcher,
                PROXY_PROC_TIME,
            );
            proxy_server.register_callback(
                id,
                SimRpcClient::new(wan_link.reverse(), Arc::clone(&cb_node), wan_stats.clone()),
            );

            // Kernel-facing node over loopback: NFS via the proxy
            // client, MOUNT forwarded over the WAN.
            let mut pc_dispatcher = Dispatcher::new();
            pc_dispatcher
                .register_arc(Arc::clone(&proxy) as Arc<dyn gvfs_rpc::dispatch::RpcService>);
            pc_dispatcher.register(ForwardService {
                program: gvfs_nfs3::mount::MOUNT_PROGRAM,
                version: gvfs_nfs3::mount::MOUNT_V3,
                upstream: SimRpcClient::new(
                    wan_link.forward(),
                    Arc::clone(&proxy_server_node),
                    wan_stats.clone(),
                ),
            });
            let pc_node =
                ServerNode::new(&format!("proxy-client-{id}"), pc_dispatcher, PROXY_PROC_TIME);
            let loopback = Link::new(LinkConfig::loopback());

            // Background actors.
            if let ConsistencyModel::InvalidationPolling { period, backoff_max } = config.model {
                let p = Arc::clone(&proxy);
                sim.spawn(&format!("poller-{id}"), move || p.run_poller(period, backoff_max));
            }
            {
                let p = Arc::clone(&proxy);
                sim.spawn(&format!("flusher-{id}"), move || p.run_flusher());
            }
            // The WAN health supervisor drives half-open probes and
            // post-heal re-promotion for the degradation ladder; only
            // the delegation model degrades (polling sessions already
            // serve stale-bounded reads by construction).
            if matches!(config.model, ConsistencyModel::DelegationCallback(_))
                && config.max_staleness.is_some()
            {
                let p = Arc::clone(&proxy);
                sim.spawn(&format!("supervisor-{id}"), move || p.run_supervisor());
            }
            if let Some(period) = config.scrub_period {
                let p = Arc::clone(&proxy);
                sim.spawn(&format!("scrubber-{id}"), move || p.run_scrubber(period));
            }

            clients.push(ClientEnd { proxy, node: pc_node, loopback, wan_link, cb_node, disk });
        }

        // Peer mesh: one LAN link per client pair, used forward in one
        // direction and reverse in the other, each end registered as a
        // peer transport targeting the other end's callback node (where
        // the PEERREAD service lives).
        let peer_stats = RpcStats::new();
        let mut peer_links = std::collections::HashMap::new();
        if config.peer_read {
            for i in 0..clients.len() {
                for j in i + 1..clients.len() {
                    let (id_i, id_j) = (i as u32 + 1, j as u32 + 1);
                    let link = Link::new(LinkConfig::lan());
                    clients[i].proxy.add_peer(
                        id_j,
                        SimRpcClient::new(
                            link.forward(),
                            Arc::clone(&clients[j].cb_node),
                            peer_stats.clone(),
                        ),
                    );
                    clients[j].proxy.add_peer(
                        id_i,
                        SimRpcClient::new(
                            link.reverse(),
                            Arc::clone(&clients[i].cb_node),
                            peer_stats.clone(),
                        ),
                    );
                    peer_links.insert((id_i, id_j), link);
                }
            }
        }

        if let (ConsistencyModel::DelegationCallback(_), Some(interval)) =
            (config.model, config.sweep_interval)
        {
            let ps = Arc::clone(&proxy_server);
            let stop_flag = Arc::clone(&stop);
            sim.spawn("delegation-sweeper", move || loop {
                gvfs_netsim::park_timeout(interval);
                if stop_flag.load(Ordering::SeqCst) {
                    return;
                }
                ps.sweep();
            });
        }

        Session {
            config,
            vfs,
            nfs_node,
            proxy_server,
            proxy_server_node,
            clients,
            wan_stats,
            lan_stats,
            peer_stats,
            peer_links,
            root,
            stop,
        }
    }
}

struct ClientEnd {
    proxy: Arc<ProxyClient>,
    node: Arc<ServerNode>,
    loopback: Arc<Link>,
    wan_link: Arc<Link>,
    cb_node: Arc<ServerNode>,
    disk: Arc<VirtualDisk>,
}

/// An established GVFS session.
pub struct Session {
    config: SessionConfig,
    vfs: Arc<Vfs>,
    nfs_node: Arc<ServerNode>,
    proxy_server: Arc<ProxyServer>,
    proxy_server_node: Arc<ServerNode>,
    clients: Vec<ClientEnd>,
    wan_stats: RpcStats,
    lan_stats: RpcStats,
    peer_stats: RpcStats,
    peer_links: std::collections::HashMap<(u32, u32), Arc<Link>>,
    root: Fh3,
    stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("model", &self.config.model)
            .field("clients", &self.clients.len())
            .finish()
    }
}

impl Session {
    /// Starts building a session with `config`.
    pub fn builder(config: SessionConfig) -> SessionBuilder {
        SessionBuilder {
            config,
            faults: Faults::default(),
            clients: 1,
            wan: LinkConfig::wan(),
            client_links: None,
            vfs: None,
            client_disks: None,
        }
    }

    /// The transport a kernel NFS client on machine `i` mounts through
    /// (loopback to that machine's proxy client).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn client_transport(&self, i: usize) -> SimRpcClient {
        let end = &self.clients[i];
        SimRpcClient::new(end.loopback.forward(), Arc::clone(&end.node), RpcStats::new())
    }

    /// The export's root file handle.
    pub fn root_fh(&self) -> Fh3 {
        self.root
    }

    /// The exported filesystem (for out-of-band population).
    pub fn vfs(&self) -> &Arc<Vfs> {
        &self.vfs
    }

    /// WAN traffic counters — the paper's "RPCs transferred over the
    /// network". Covers all clients' WAN links, both directions
    /// (callbacks included).
    pub fn wan_stats(&self) -> &RpcStats {
        &self.wan_stats
    }

    /// Loopback traffic counters (proxy server ↔ NFS server).
    pub fn lan_stats(&self) -> &RpcStats {
        &self.lan_stats
    }

    /// Peer-mesh traffic counters (`PEERREAD`s between clients); all
    /// zero unless [`SessionConfig::peer_read`] is on.
    pub fn peer_stats(&self) -> &RpcStats {
        &self.peer_stats
    }

    /// The LAN link between clients `i` and `j` (partition injection
    /// for the peer-partition chaos scenario); `None` when the session
    /// runs without a peer mesh or `i == j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn peer_link(&self, i: usize, j: usize) -> Option<&Arc<Link>> {
        assert!(i < self.clients.len() && j < self.clients.len());
        let (a, b) = ((i.min(j)) as u32 + 1, (i.max(j)) as u32 + 1);
        self.peer_links.get(&(a, b))
    }

    /// The proxy server (failure injection, diagnostics).
    pub fn proxy_server(&self) -> &Arc<ProxyServer> {
        &self.proxy_server
    }

    /// Installs a fresh protocol-trace buffer into the proxy server and
    /// every proxy client, emits the `meta` record the replay checker
    /// needs, and returns the shared buffer. Call once, before virtual
    /// time starts.
    pub fn install_trace(&self) -> Arc<crate::trace::TraceBuffer> {
        let buf = crate::trace::TraceBuffer::new();
        let lease_ms = match self.config.model {
            ConsistencyModel::DelegationCallback(c) => c.lease.as_millis() as u64,
            _ => 0,
        };
        buf.record_at(
            0,
            crate::trace::ProtocolEvent::Meta {
                lease_ms,
                degrade_after_ms: DEGRADE_AFTER.as_millis() as u64,
                max_staleness_ms: self
                    .config
                    .max_staleness
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0),
                clients: self.clients.len() as u32,
            },
        );
        self.proxy_server.install_trace(Arc::clone(&buf));
        for end in &self.clients {
            end.proxy.install_trace(Arc::clone(&buf));
        }
        buf
    }

    /// The proxy client of machine `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn proxy_client(&self, i: usize) -> &Arc<ProxyClient> {
        &self.clients[i].proxy
    }

    /// The WAN link of machine `i` (partition injection).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn wan_link(&self, i: usize) -> &Arc<Link> {
        &self.clients[i].wan_link
    }

    /// The kernel NFS server node (failure injection).
    pub fn nfs_node(&self) -> &Arc<ServerNode> {
        &self.nfs_node
    }

    /// The proxy server node (failure injection).
    pub fn proxy_server_node(&self) -> &Arc<ServerNode> {
        &self.proxy_server_node
    }

    /// Crashes the proxy server: it stops answering and loses its
    /// volatile state (buffers, timestamps, delegation table).
    pub fn crash_proxy_server(&self) {
        self.proxy_server_node.set_up(false);
        self.proxy_server.crash();
    }

    /// Restarts the proxy server and runs recovery (the cache-wide
    /// callback round, §4.3.4). Returns how many clients answered.
    pub fn restart_proxy_server(&self) -> usize {
        self.proxy_server_node.set_up(true);
        self.proxy_server.recover()
    }

    /// Crashes proxy client `i`: both its kernel-facing node and its
    /// callback node stop answering. The disk cache (and the volatile
    /// state, untouchable while the node is down) stays in place until
    /// [`Session::restart_proxy_client`] reconciles it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn crash_proxy_client(&self, i: usize) {
        let end = &self.clients[i];
        end.node.set_up(false);
        end.cb_node.set_up(false);
    }

    /// Restarts proxy client `i` and runs client-side crash recovery
    /// (§4.3.4): volatile state is cleared, attributes invalidated, and
    /// dirty files reconciled against the server. With
    /// [`SessionConfig::persistent_store`] the crash was the machine's,
    /// and the store first reopens from its disk; without it only the
    /// process crashed, and the store keeps its content. Must be called
    /// from a simulation actor (recovery performs WAN RPCs). Returns the
    /// handles whose dirty data was discarded as corrupted.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn restart_proxy_client(&self, i: usize) -> Vec<Fh3> {
        let end = &self.clients[i];
        end.node.set_up(true);
        end.cb_node.set_up(true);
        if self.config.persistent_store {
            // The machine crashed, not just the process: the store
            // reopens from its disk, losing whatever a durability
            // barrier didn't cover, before the protocol reconciles.
            end.proxy.crash_restart()
        } else {
            // Only the process crashed: the store keeps its content.
            end.proxy.crash_recover()
        }
    }

    /// The virtual disk backing client `i`'s block store — hand it to a
    /// later session's [`SessionBuilder::client_disks`] to model a
    /// restart. Every session runs a store, so this is always `Some`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn client_disk(&self, i: usize) -> Option<Arc<VirtualDisk>> {
        Some(Arc::clone(&self.clients[i].disk))
    }

    /// A cloneable control handle usable from workload actors.
    pub fn handle(&self) -> SessionHandle {
        SessionHandle {
            proxies: self.clients.iter().map(|c| Arc::clone(&c.proxy)).collect(),
            stop: Arc::clone(&self.stop),
        }
    }
}

/// Cloneable session control passed into workload actors.
#[derive(Clone)]
pub struct SessionHandle {
    proxies: Vec<Arc<ProxyClient>>,
    stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle").field("clients", &self.proxies.len()).finish()
    }
}

impl SessionHandle {
    /// Unmount semantics: flush all delayed writes (charging the calling
    /// actor's clock), then stop the background actors.
    pub fn shutdown(&self) {
        for proxy in &self.proxies {
            proxy.flush_all();
            // Clean unmount: make the block store durable so a session
            // re-established over the same disks restarts warm.
            proxy.sync_store();
        }
        self.stop.store(true, Ordering::SeqCst);
        for proxy in &self.proxies {
            proxy.shutdown();
        }
    }
}

/// The no-proxy baseline: kernel clients mount the kernel NFS server
/// straight across the WAN.
pub struct NativeMount {
    vfs: Arc<Vfs>,
    nfs_node: Arc<ServerNode>,
    links: Vec<Arc<Link>>,
    stats: RpcStats,
    root: Fh3,
}

impl std::fmt::Debug for NativeMount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeMount").field("clients", &self.links.len()).finish()
    }
}

impl NativeMount {
    /// Builds the baseline with `clients` links shaped by `wan`.
    pub fn establish(clients: usize, wan: LinkConfig, vfs: Option<Arc<Vfs>>) -> Self {
        Self::establish_with_links(vec![wan; clients], vfs)
    }

    /// Builds the baseline with one explicit link configuration per
    /// client (mixing WAN users with a LAN administrator).
    pub fn establish_with_links(links: Vec<LinkConfig>, vfs: Option<Arc<Vfs>>) -> Self {
        let vfs = vfs.unwrap_or_else(|| Arc::new(Vfs::new()));
        let clock: gvfs_server::Clock =
            Arc::new(|| Timestamp::from_nanos(gvfs_netsim::now().as_nanos()));
        let nfs = Nfs3Server::new(Arc::clone(&vfs), clock);
        let root = nfs.root_fh();
        let mut dispatcher = Dispatcher::new();
        dispatcher.register(nfs);
        dispatcher.register(gvfs_server::MountServer::new(Arc::clone(&vfs), EXPORT_PATH));
        let nfs_node = ServerNode::new("nfs-server", dispatcher, NFS_PROC_TIME);
        let links = links.into_iter().map(Link::new).collect();
        NativeMount { vfs, nfs_node, links, stats: RpcStats::new(), root }
    }

    /// The WAN transport for kernel client `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn client_transport(&self, i: usize) -> SimRpcClient {
        SimRpcClient::new(self.links[i].forward(), Arc::clone(&self.nfs_node), self.stats.clone())
    }

    /// The export root handle.
    pub fn root_fh(&self) -> Fh3 {
        self.root
    }

    /// The exported filesystem.
    pub fn vfs(&self) -> &Arc<Vfs> {
        &self.vfs
    }

    /// WAN traffic counters.
    pub fn stats(&self) -> &RpcStats {
        &self.stats
    }

    /// The WAN link of client `i` (partition injection).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn link(&self, i: usize) -> &Arc<Link> {
        &self.links[i]
    }

    /// The server node (failure injection).
    pub fn nfs_node(&self) -> &Arc<ServerNode> {
        &self.nfs_node
    }
}
