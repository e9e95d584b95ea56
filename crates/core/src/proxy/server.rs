//! The GVFS proxy server.
//!
//! Sits beside the kernel NFS server. For every proxy-program call it
//! forwards the native NFSv3 procedure over loopback, and around that
//! forwarding implements the session's consistency model:
//!
//! * **invalidation polling** — appends modified file handles to the
//!   per-client invalidation buffers and answers `GETINV`;
//! * **delegation/callback** — consults the [`DelegationTable`], issues
//!   recall callbacks to proxy clients *before* serving conflicting
//!   requests, and piggybacks grants on replies;
//! * tracks the participating-client list persistently, so a restarted
//!   proxy server can multicast recovery callbacks (§4.3.4).
//!
//! # Concurrency
//!
//! The proxy is multithreaded (§4.3.2): while one handler waits out a
//! WAN callback, others keep serving. Each consistency table has one
//! lock, held only for table operations and never across the wire:
//!
//! * one [`DelegationTable`] (the paper's open-file table, with one
//!   global LRU bound, §4.3.3) behind the `deleg` lock;
//! * one [`ConcurrentInvalidationTracker`] holding every client's
//!   invalidation buffer behind its `buffers` lock (§4.2).
//!
//! Recall fan-out and the `RECOVER` multicast use the RPC channel's
//! send/wait split ([`SimRpcClient::send`]) behind a **bounded fan-out
//! window** (a semaphore over in-flight `PendingCall`s): up to the
//! window's worth of callbacks overlap on the wire, so a round to N
//! clients costs ~N/window WAN round trips instead of N serialized
//! ones, while a 10k-holder round can no longer bury the callback
//! network under 10k simultaneous calls. Breaker-open targets are
//! short-circuited before a slot is taken, so unreachable peers never
//! consume window capacity. No lock is ever held across the wire.

use crate::delegation::{DelegationKind, DelegationTable, RecallAction};
use crate::invalidation::{ConcurrentInvalidationTracker, InvalScaleCounters};
use crate::model::ConsistencyModel;
use crate::protocol::{
    change_of, proc_ext, CallbackArgs, CallbackKind, CallbackRes, DelegationGrant, GetinvArgs,
    GetinvRes, PeerAdvert, RecoverRes, WrappedReply, GVFS_CALLBACK_PROGRAM, GVFS_PROXY_PROGRAM,
    GVFS_VERSION, MAX_PEER_HOLDERS,
};
use crate::proxy::{block_of, classify, OpClass};
use crate::trace::{ProtocolEvent, TraceBuffer, TraceKind};
use gvfs_netsim::transport::SimRpcClient;
use gvfs_netsim::{ActorHandle, SimTime};
use gvfs_nfs3::{proc3, Fh3, LookupArgs, LookupRes, NFS_PROGRAM, NFS_V3};
use gvfs_rpc::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use gvfs_rpc::channel::PendingCall;
use gvfs_rpc::dispatch::RpcService;
use gvfs_rpc::message::OpaqueAuth;
use gvfs_rpc::RpcError;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Virtual time as a `Duration` since the simulation epoch (the
/// breaker's clock representation).
fn now_dur() -> Duration {
    gvfs_netsim::now().saturating_since(SimTime::ZERO)
}

/// A recall callback that has been put on the wire but not yet
/// acknowledged (phase one of a fan-out round).
struct RecallInFlight {
    action: RecallAction,
    call: (SimRpcClient, PendingCall),
}

/// Whole sweep epochs a client may stay idle before [`ProxyServer::sweep`]
/// evicts its per-client state.
const SWEEP_IDLE_EPOCHS: u64 = 8;

/// The mutable half of [`FanoutSemaphore`], behind its lock.
struct FanoutState {
    available: usize,
    /// Handlers parked waiting for a slot, FIFO.
    waiters: VecDeque<ActorHandle>,
}

/// A deterministic counting semaphore bounding how many recall or
/// `RECOVER` callbacks may be in flight at once (the fan-out window).
///
/// The `fanout` lock is terminal: no other lock is acquired and no RPC
/// is sent while it is held; waiters park strictly *after* dropping the
/// guard (the unpark permit is banked if the release wins the race).
struct FanoutSemaphore {
    capacity: usize,
    fanout: Mutex<FanoutState>,
    /// High-water mark of slots in use, for the scale bench.
    in_flight_hwm: AtomicU64,
}

impl FanoutSemaphore {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FanoutSemaphore {
            capacity,
            fanout: Mutex::new(FanoutState { available: capacity, waiters: VecDeque::new() }),
            in_flight_hwm: AtomicU64::new(0),
        }
    }

    /// Takes a slot if one is free.
    fn try_acquire(&self) -> bool {
        let in_flight = {
            let mut st = self.fanout.lock();
            if st.available == 0 {
                return false;
            }
            st.available -= 1;
            (self.capacity - st.available) as u64
        };
        self.in_flight_hwm.fetch_max(in_flight, Ordering::Relaxed);
        true
    }

    /// Takes a slot, parking until one frees up.
    fn acquire(&self) {
        loop {
            {
                let mut st = self.fanout.lock();
                if st.available > 0 {
                    st.available -= 1;
                    let in_flight = (self.capacity - st.available) as u64;
                    drop(st);
                    self.in_flight_hwm.fetch_max(in_flight, Ordering::Relaxed);
                    return;
                }
                st.waiters.push_back(gvfs_netsim::current_actor());
            }
            gvfs_netsim::park();
        }
    }

    /// Returns a slot and wakes the oldest waiter, if any.
    fn release(&self) {
        let waiter = {
            let mut st = self.fanout.lock();
            st.available = (st.available + 1).min(self.capacity);
            st.waiters.pop_front()
        };
        if let Some(w) = waiter {
            w.unpark();
        }
    }

    fn hwm(&self) -> u64 {
        self.in_flight_hwm.load(Ordering::Relaxed)
    }
}

/// One client's WAN-health record: the breaker plus the sweep epoch of
/// its last use, for idle eviction.
struct HealthEntry {
    breaker: Arc<CircuitBreaker>,
    epoch: u64,
}

/// The server-side scale counters exported by
/// [`ProxyServer::scale_stats`]: fan-out window pressure, per-client
/// state cardinality and memory, and the invalidation tracker's lock
/// and drain counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerScaleStats {
    /// Recall callbacks put on the wire.
    pub recalls_sent: u64,
    /// Recalls short-circuited (breaker open).
    pub recalls_short_circuited: u64,
    /// Configured fan-out window.
    pub fanout_window: usize,
    /// High-water mark of concurrently in-flight fan-out callbacks.
    pub fanout_in_flight_hwm: u64,
    /// Live per-client health breakers.
    pub health_entries: usize,
    /// Health breakers dropped by idle eviction.
    pub health_evicted: u64,
    /// Files tracked in the delegation table.
    pub deleg_files: usize,
    /// Sharer entries in the delegation table.
    pub deleg_sharers: usize,
    /// Rough delegation-table heap footprint in bytes.
    pub deleg_approx_bytes: usize,
    /// Live invalidation client buffers.
    pub inval_clients: usize,
    /// Rough invalidation-buffer heap footprint in bytes.
    pub inval_approx_bytes: usize,
    /// The invalidation tracker's lock and drain counters.
    pub inval: InvalScaleCounters,
}

/// Everything a [`ProxyServer`] is built with. The middleware fills it
/// from the session's configuration (§2); it never changes afterwards.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// The session's consistency model.
    pub model: ConsistencyModel,
    /// Per-client invalidation buffer capacity (entries).
    pub invalidation_capacity: usize,
    /// Bound on concurrently in-flight recall and `RECOVER` callbacks;
    /// a window of 1 reproduces fully serialized fan-out.
    pub fanout_window: usize,
    /// Replies to NFS calls piggyback the client's pending invalidation
    /// drain (see [`WrappedReply::inv`]). Off by default: the scale
    /// bench turns it on; the figure harnesses keep the paper's
    /// pure-polling message pattern.
    pub piggyback_inval: bool,
    /// Successful READ replies advertise which live clients hold clean
    /// copies of the file ([`WrappedReply::peers`]) and the tracker's
    /// peer map is maintained. Off by default: the wire stays
    /// byte-identical to the star topology.
    pub peer_read: bool,
    /// Chaos self-test fault (`--break-recall`): recall callbacks are
    /// silently discarded instead of sent, so holders are revoked
    /// without ever learning about it. The chaos oracles must catch the
    /// resulting stale reads.
    pub suppress_recalls: bool,
    /// Chaos self-test fault (`--break-peerread`): modifications and
    /// recalls stop de-advertising peer copies, so a stale advert
    /// survives for the oracle to convict.
    pub suppress_deadvertise: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            model: ConsistencyModel::Passthrough,
            invalidation_capacity: 4096,
            fanout_window: 64,
            piggyback_inval: false,
            peer_read: false,
            suppress_recalls: false,
            suppress_deadvertise: false,
        }
    }
}

/// The proxy server service. Register it (wrapped in an `Arc`) with a
/// [`gvfs_netsim::transport::ServerNode`]; proxy clients call it on
/// [`GVFS_PROXY_PROGRAM`].
pub struct ProxyServer {
    config: ServerConfig,
    nfs: SimRpcClient,
    /// The open-file delegation table (§4.3.3).
    deleg: Mutex<DelegationTable>,
    /// Per-client invalidation buffers (internally locked).
    inval: ConcurrentInvalidationTracker,
    /// Callback transports per client id, registered by the session.
    callbacks: RwLock<HashMap<u32, SimRpcClient>>,
    /// The client list is "always stored directly on disk" (§4.3.4):
    /// it survives crashes.
    persisted_clients: Mutex<HashSet<u32>>,
    /// Recall callbacks actually put on the wire.
    recalls_sent: AtomicU64,
    /// Recalls short-circuited because the target's breaker was open.
    recalls_short_circuited: AtomicU64,
    /// Per-client WAN health, fed by recall outcomes: a recall to a
    /// breaker-open client is short-circuited (the holder is revoked as
    /// unreachable immediately) instead of burning a callback timeout
    /// per conflicting access. Guards are scoped to the map lookup and
    /// never held across the wire or another lock. Entries are stamped
    /// with the sweep epoch of their last use and evicted when idle.
    health: Mutex<HashMap<u32, HealthEntry>>,
    /// Bounded window over in-flight recall/`RECOVER` callbacks.
    fanout: FanoutSemaphore,
    /// Idle-eviction epoch, advanced once per [`ProxyServer::maintain`].
    sweep_epoch: AtomicU64,
    /// Idle health entries dropped by epoch eviction.
    health_evicted: AtomicU64,
    /// Protocol-event sink for spec-conformance replay, installed once
    /// by the session. Grant/recall/revocation events are recorded
    /// under the `deleg` lock so the per-file subsequence is linearized
    /// exactly as the table decided it.
    trace: std::sync::OnceLock<Arc<TraceBuffer>>,
}

impl std::fmt::Debug for ProxyServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProxyServer").field("model", &self.config.model).finish()
    }
}

impl ProxyServer {
    /// Creates a proxy server built with `config`, forwarding to the
    /// kernel NFS server via `nfs` (a loopback transport).
    pub fn new(config: ServerConfig, nfs: SimRpcClient) -> Arc<Self> {
        let deleg_config = match config.model {
            ConsistencyModel::DelegationCallback(c) => c,
            _ => crate::model::DelegationConfig::default(),
        };
        Arc::new(ProxyServer {
            config,
            nfs,
            deleg: Mutex::new(DelegationTable::new(deleg_config)),
            inval: ConcurrentInvalidationTracker::with_deadvertise_suppressed(
                config.invalidation_capacity,
                config.suppress_deadvertise,
            ),
            callbacks: RwLock::new(HashMap::new()),
            persisted_clients: Mutex::new(HashSet::new()),
            recalls_sent: AtomicU64::new(0),
            recalls_short_circuited: AtomicU64::new(0),
            health: Mutex::new(HashMap::new()),
            fanout: FanoutSemaphore::new(config.fanout_window),
            sweep_epoch: AtomicU64::new(0),
            health_evicted: AtomicU64::new(0),
            trace: std::sync::OnceLock::new(),
        })
    }

    /// Installs the shared protocol-trace buffer (first call wins) and
    /// turns on per-event lease-revocation recording in the table.
    pub fn install_trace(&self, buf: Arc<TraceBuffer>) {
        let _ = self.trace.set(buf);
        self.deleg.lock().set_revocation_log(true);
    }

    fn emit_trace(&self, ev: ProtocolEvent) {
        if let Some(buf) = self.trace.get() {
            buf.record(ev);
        }
    }

    /// The health breaker for one client, created closed on first use
    /// and re-stamped with the current sweep epoch (so idle eviction
    /// only reaps clients no recall has touched for whole epochs).
    fn client_breaker(&self, client: u32) -> Arc<CircuitBreaker> {
        let epoch = self.sweep_epoch.load(Ordering::Relaxed);
        let mut health = self.health.lock();
        let entry = health.entry(client).or_insert_with(|| HealthEntry {
            breaker: Arc::new(CircuitBreaker::new(BreakerConfig::default())),
            epoch,
        });
        entry.epoch = epoch;
        Arc::clone(&entry.breaker)
    }

    /// Performs a batch of recalls concurrently through the bounded
    /// fan-out window: up to a window's worth of callbacks overlap on
    /// the wire (§4.3.2), completions are claimed oldest-first as the
    /// window slides, and short-circuited recalls (suppressed targets,
    /// open breakers, missing routes) complete immediately without
    /// consuming a slot.
    fn perform_recalls(&self, actions: Vec<RecallAction>) {
        let mut in_flight: VecDeque<RecallInFlight> = VecDeque::new();
        for action in actions {
            if self.recall_short_circuits(&action) {
                self.finish_recall(&action, None);
                continue;
            }
            self.acquire_fanout_slot(&mut in_flight, |f| {
                self.finish_recall(&f.action, Some(f.call));
            });
            match self.send_recall(&action) {
                Some(call) => in_flight.push_back(RecallInFlight { action, call }),
                None => {
                    // Send failed at the link: the slot was held only
                    // for the (local, instantaneous) send attempt.
                    self.fanout.release();
                    self.finish_recall(&action, None);
                }
            }
        }
        while let Some(f) = in_flight.pop_front() {
            self.finish_recall(&f.action, Some(f.call));
            self.fanout.release();
        }
    }

    /// Takes one fan-out window slot for a recall or `RECOVER` round.
    /// While the window is full the round claims its *own* oldest
    /// in-flight callback first with `retire` (a round larger than the
    /// window can therefore never deadlock on slots it holds itself),
    /// and parks only when another handler owns the missing slot.
    fn acquire_fanout_slot<T>(&self, in_flight: &mut VecDeque<T>, mut retire: impl FnMut(T)) {
        loop {
            if self.fanout.try_acquire() {
                return;
            }
            if let Some(f) = in_flight.pop_front() {
                retire(f);
                self.fanout.release();
                // The freed slot may have gone to a parked waiter;
                // retry rather than assume it is ours.
                continue;
            }
            self.fanout.acquire();
            return;
        }
    }

    /// Registers the callback transport for a proxy client (done by the
    /// middleware when the session is established; in the real system
    /// the port arrives in each request's credential).
    pub fn register_callback(&self, client: u32, transport: SimRpcClient) {
        self.callbacks.write().insert(client, transport);
    }

    /// The consistency model in effect.
    pub fn model(&self) -> ConsistencyModel {
        self.config.model
    }

    /// Simulates a crash: volatile state (invalidation buffers,
    /// timestamps, delegation table) is lost; the persisted client list
    /// survives. The configured invalidation-buffer capacity is
    /// configuration, not volatile state, and survives too.
    pub fn crash(&self) {
        self.emit_trace(ProtocolEvent::ServerCrash);
        self.inval.reset();
        let mut table = self.deleg.lock();
        *table = DelegationTable::new(*table.config());
        if self.trace.get().is_some() {
            table.set_revocation_log(true);
        }
    }

    /// Recovery after restart (§4.3.4): multicasts a cache-wide
    /// `RECOVER` callback to every known client and rebuilds the
    /// delegation tables from their dirty-file lists. Incoming requests
    /// are implicitly blocked for the duration (the grace period) by the
    /// callback round.
    ///
    /// Returns the number of clients that answered.
    pub fn recover(&self) -> usize {
        if !matches!(self.config.model, ConsistencyModel::DelegationCallback(_)) {
            return 0;
        }
        let mut clients: Vec<u32> = self.persisted_clients.lock().iter().copied().collect();
        clients.sort_unstable();
        // "A single multicasted callback to the clients" (§4.3.4),
        // bounded by the fan-out window: up to a window's worth of
        // `RECOVER` callbacks overlap on the wire at once, so the grace
        // period is ~ceil(N/window) WAN round trips while a 10k-client
        // restart cannot flood the callback network.
        let mut in_flight: VecDeque<(u32, SimRpcClient, PendingCall)> = VecDeque::new();
        let mut answered = 0;
        for client in clients {
            let Some(transport) = self.callbacks.read().get(&client).cloned() else { continue };
            self.acquire_fanout_slot(&mut in_flight, |(c, t, call)| {
                answered += usize::from(self.finish_recover(c, &t, call));
            });
            match transport.send(GVFS_CALLBACK_PROGRAM, GVFS_VERSION, proc_ext::RECOVER, Vec::new())
            {
                Ok(call) => in_flight.push_back((client, transport, call)),
                Err(_) => self.fanout.release(),
            }
        }
        while let Some((c, t, call)) = in_flight.pop_front() {
            answered += usize::from(self.finish_recover(c, &t, call));
            self.fanout.release();
        }
        self.emit_trace(ProtocolEvent::ServerRecover { answered: answered as u32 });
        answered
    }

    /// Claims one `RECOVER` reply and re-enters the client's dirty
    /// files in the delegation table. Returns whether the client
    /// answered.
    fn finish_recover(&self, client: u32, transport: &SimRpcClient, call: PendingCall) -> bool {
        let Ok(bytes) = transport.wait_pending(call) else { return false };
        let Ok(res) = gvfs_xdr::from_bytes::<RecoverRes>(&bytes) else { return false };
        let mut table = self.deleg.lock();
        table.recover_client(client, &res.dirty_files, gvfs_netsim::now());
        for &fh in &res.dirty_files {
            self.emit_trace(ProtocolEvent::Regrant { client, fh: fh.fileid() });
        }
        true
    }

    /// Runs one delegation sweep (speculated closes, LRU eviction); the
    /// session's sweeper actor calls this periodically. Each sweep also
    /// advances the idle-eviction epoch ([`ProxyServer::maintain`]) with
    /// an idle budget of [`SWEEP_IDLE_EPOCHS`].
    pub fn sweep(&self) {
        let actions = self.deleg.lock().sweep(gvfs_netsim::now());
        for action in actions {
            self.deleg.lock().begin_recall(action.fh);
            self.perform_recall(&action);
            let mut table = self.deleg.lock();
            table.end_recall(action.fh);
            table.sweep_done(action.fh, action.client);
        }
        self.maintain(SWEEP_IDLE_EPOCHS);
    }

    /// Advances the idle-eviction epoch by one and drops per-client
    /// state — invalidation buffers and health breakers — belonging to
    /// clients idle for more than `idle_epochs` whole epochs.
    /// Delegation table entries are bounded separately by the table's
    /// own expiry + LRU sweep. Returns `(buffers, breakers)`
    /// evicted.
    ///
    /// Eviction is protocol-invisible beyond one extra full
    /// invalidation: an evicted poller re-bootstraps through the
    /// first-contact path, and an evicted breaker is recreated closed
    /// on the next recall to that client.
    pub fn maintain(&self, idle_epochs: u64) -> (usize, usize) {
        let epoch = self.sweep_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let buffers = self.inval.advance_epoch(idle_epochs);
        let breakers = {
            let mut health = self.health.lock();
            let before = health.len();
            health.retain(|_, e| epoch.saturating_sub(e.epoch) <= idle_epochs);
            before - health.len()
        };
        self.health_evicted.fetch_add(breakers as u64, Ordering::Relaxed);
        (buffers, breakers)
    }

    /// Clients currently advertised as holding a clean copy of `fh`
    /// (diagnostics and integration tests).
    pub fn peer_holders(&self, fh: Fh3) -> Vec<u32> {
        self.inval.collect_holders(fh, u32::MAX, usize::MAX)
    }

    /// The delegation table's [`DelegationTable::snapshot`], for
    /// diagnostics and the chaos harness's write-exclusion oracle.
    pub fn delegation_snapshot(&self) -> Vec<crate::delegation::FileSnapshot> {
        self.deleg.lock().snapshot()
    }

    /// Delegations revoked server-side by lease expiry.
    pub fn lease_revocations(&self) -> u64 {
        self.deleg.lock().lease_revocations()
    }

    /// One coherent dump of the server's scale counters, for the bench
    /// harness's `server` JSON block.
    pub fn scale_stats(&self) -> ServerScaleStats {
        let (deleg_files, deleg_sharers, deleg_bytes) = self.deleg.lock().scale_footprint();
        ServerScaleStats {
            recalls_sent: self.recalls_sent.load(Ordering::SeqCst),
            recalls_short_circuited: self.recalls_short_circuited.load(Ordering::SeqCst),
            fanout_window: self.fanout.capacity,
            fanout_in_flight_hwm: self.fanout.hwm(),
            health_entries: self.health.lock().len(),
            health_evicted: self.health_evicted.load(Ordering::Relaxed),
            deleg_files,
            deleg_sharers,
            deleg_approx_bytes: deleg_bytes,
            inval_clients: self.inval.client_count(),
            inval_approx_bytes: self.inval.approx_bytes(),
            inval: self.inval.scale_counters(),
        }
    }

    fn forward(&self, procedure: u32, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        self.nfs.call(NFS_PROGRAM, NFS_V3, procedure, args.to_vec())
    }

    /// Resolves the file handle a REMOVE/RENAME will affect, so its
    /// holders can be invalidated/recalled. Loopback lookup; cheap.
    fn resolve_target(&self, dir: Fh3, name: &str) -> Option<Fh3> {
        let args = gvfs_xdr::to_bytes(&LookupArgs { dir, name: name.to_string() }).ok()?;
        let bytes = self.forward(proc3::LOOKUP, &args).ok()?;
        match gvfs_xdr::from_bytes::<LookupRes>(&bytes).ok()? {
            LookupRes::Ok { object, .. } => Some(object),
            LookupRes::Fail { .. } => None,
        }
    }

    /// Pre-wire short-circuit check, run *before* a fan-out window slot
    /// is taken so suppressed targets and breaker-open peers never
    /// consume window capacity.
    fn recall_short_circuits(&self, action: &RecallAction) -> bool {
        if self.config.suppress_recalls {
            // The holder is revoked without being told: exactly the bug
            // class the chaos oracles exist to catch.
            return true;
        }
        // Health short-circuit: a recall to a client whose breaker is
        // open would only burn a callback timeout before reaching the
        // same "revoked as unreachable" outcome — take it immediately.
        // A half-open breaker lets the recall through as the probe.
        if self.client_breaker(action.client).state(now_dur()) == BreakerState::Open {
            self.recalls_short_circuited.fetch_add(1, Ordering::SeqCst);
            self.emit_trace(ProtocolEvent::RecallShort {
                client: action.client,
                fh: action.fh.fileid(),
            });
            return true;
        }
        false
    }

    /// Phase one of a recall: put the callback on the wire. Returns
    /// `None` when there is no route or the link rejects the send — the
    /// recall then completes immediately with nothing recovered.
    fn send_recall(&self, action: &RecallAction) -> Option<(SimRpcClient, PendingCall)> {
        let transport = self.callbacks.read().get(&action.client).cloned();
        let Some(transport) = transport else {
            self.emit_trace(ProtocolEvent::RecallFail {
                client: action.client,
                fh: action.fh.fileid(),
            });
            return None;
        };
        let kind = match action.kind {
            DelegationKind::Read => CallbackKind::RecallRead,
            DelegationKind::Write => CallbackKind::RecallWrite,
        };
        let args = CallbackArgs { fh: action.fh, kind, requested_offset: action.requested_offset };
        let encoded = gvfs_xdr::to_bytes(&args).unwrap_or_default();
        let sent = match transport.send(
            GVFS_CALLBACK_PROGRAM,
            GVFS_VERSION,
            proc_ext::CALLBACK,
            encoded,
        ) {
            Ok(call) => Some((transport, call)),
            Err(e) => {
                // A partitioned client fails at send time: feed the
                // breaker here so later recalls short-circuit.
                if e.trips_breaker() {
                    self.client_breaker(action.client).on_failure(now_dur());
                }
                self.emit_trace(ProtocolEvent::RecallFail {
                    client: action.client,
                    fh: action.fh.fileid(),
                });
                None
            }
        };
        if sent.is_some() {
            self.recalls_sent.fetch_add(1, Ordering::SeqCst);
            self.emit_trace(ProtocolEvent::RecallSent {
                client: action.client,
                fh: action.fh.fileid(),
                kind: match action.kind {
                    DelegationKind::Read => TraceKind::Read,
                    DelegationKind::Write => TraceKind::Write,
                },
            });
        }
        sent
    }

    /// Phase two of a recall: claim the reply and report the outcome to
    /// the delegation table. An unreachable client is treated as revoked
    /// with nothing recovered (its writes are lost unless it reconciles
    /// after recovery, §4.3.4).
    fn finish_recall(&self, action: &RecallAction, call: Option<(SimRpcClient, PendingCall)>) {
        let (pending_blocks, answered) = match call {
            Some((transport, call)) => {
                let breaker = self.client_breaker(action.client);
                let started = now_dur();
                match transport.wait_pending(call) {
                    Ok(bytes) => {
                        let now = now_dur();
                        breaker.on_success(now, now.saturating_sub(started));
                        let blocks = gvfs_xdr::from_bytes::<CallbackRes>(&bytes)
                            .map(|r| r.pending_blocks)
                            .unwrap_or_default();
                        (blocks, true)
                    }
                    Err(e) => {
                        if e.trips_breaker() {
                            breaker.on_failure(now_dur());
                        }
                        (Vec::new(), false)
                    }
                }
            }
            None => (Vec::new(), false),
        };
        let pending = pending_blocks.len() as u32;
        let mut table = self.deleg.lock();
        table.recall_done(action.fh, action.client, pending_blocks);
        self.emit_trace(ProtocolEvent::RecallDone {
            client: action.client,
            fh: action.fh.fileid(),
            ok: answered,
            pending,
        });
    }

    fn perform_recall(&self, action: &RecallAction) {
        if self.recall_short_circuits(action) {
            self.finish_recall(action, None);
            return;
        }
        let call = self.send_recall(action);
        self.finish_recall(action, call);
    }

    fn record_invalidations(&self, class: &OpClass, client: u32, removed_targets: &[Fh3]) {
        match class {
            OpClass::Write { fh, .. } | OpClass::SetAttr { fh } => {
                self.inval.record_modification(*fh, client);
            }
            OpClass::DirModify { dir, extra, file, .. } => {
                self.inval.record_modification(*dir, client);
                if let Some((extra_dir, _)) = extra {
                    self.inval.record_modification(*extra_dir, client);
                }
                if let Some(fh) = file {
                    self.inval.record_modification(*fh, client);
                }
                for fh in removed_targets {
                    self.inval.record_modification(*fh, client);
                }
            }
            _ => {}
        }
    }

    /// Delegation-model admission: returns the grant for the reply after
    /// performing any recalls the access requires.
    fn admit_delegation(&self, class: &OpClass, client: u32) -> DelegationGrant {
        let accesses: Vec<(Fh3, bool, Option<u64>)> = match class {
            OpClass::AttrRead { fh } => vec![(*fh, false, None)],
            OpClass::Lookup { dir, .. } | OpClass::ReadDir { dir } => vec![(*dir, false, None)],
            OpClass::Read { fh, offset, .. } => vec![(*fh, false, Some(block_of(*offset)))],
            OpClass::Write { fh, offset } => {
                // A write that is part of a tracked partial write-back
                // bypasses conflict processing.
                if self.deleg.lock().note_writeback(*fh, client, block_of(*offset)) {
                    return DelegationGrant::None;
                }
                vec![(*fh, true, Some(block_of(*offset)))]
            }
            OpClass::SetAttr { fh } => vec![(*fh, true, None)],
            OpClass::DirModify { dir, extra, file, .. } => {
                let mut v = vec![(*dir, true, None)];
                if let Some((extra_dir, _)) = extra {
                    v.push((*extra_dir, true, None));
                }
                if let Some(fh) = file {
                    v.push((*fh, true, None));
                }
                v
            }
            OpClass::Other => return DelegationGrant::None,
        };

        let mut grant = DelegationGrant::None;
        for (i, (fh, write, offset)) in accesses.iter().enumerate() {
            loop {
                let (g, recalls) = {
                    let now = gvfs_netsim::now();
                    let mut table = self.deleg.lock();
                    let (g, recalls) = table.access(*fh, client, *write, *offset, now);
                    // Emission happens under the `deleg` lock so the
                    // trace's per-file order is the table's own.
                    {
                        for (revoked, rfh) in table.take_revocations() {
                            self.emit_trace(ProtocolEvent::LeaseRevoke {
                                client: revoked,
                                fh: rfh.fileid(),
                            });
                        }
                        if recalls.is_empty() {
                            let kind = match g {
                                DelegationGrant::Read => Some(TraceKind::Read),
                                DelegationGrant::Write => Some(TraceKind::Write),
                                DelegationGrant::NonCacheable => Some(TraceKind::NonCacheable),
                                DelegationGrant::None => None,
                            };
                            if let Some(kind) = kind {
                                self.emit_trace(ProtocolEvent::Grant {
                                    client,
                                    fh: fh.fileid(),
                                    kind,
                                });
                            }
                        }
                    }
                    (g, recalls)
                };
                if recalls.is_empty() {
                    if i == 0 {
                        grant = g;
                    }
                    break;
                }
                // The file is temporarily non-cacheable while the recall
                // round is in flight: no delegation may be granted in the
                // window, or the round's completion would silently revoke
                // it server-side.
                self.deleg.lock().begin_recall(*fh);
                // Condemn peer copies before the recalls go out: once
                // the conflicting writer proceeds, no reader may be
                // handed an advert for the pre-recall version.
                if self.config.peer_read {
                    self.inval.condemn(*fh);
                }
                self.perform_recalls(recalls);
                self.deleg.lock().end_recall(*fh);
                // Re-admit after the recalls completed: the pending
                // write-back (if any) may still cover the block, in
                // which case another targeted recall is issued; the
                // inline flush of the requested block guarantees
                // progress.
                let covered = {
                    let table = self.deleg.lock();
                    match (offset, table.pending_writeback(*fh)) {
                        (Some(off), Some(p)) => p.blocks.contains(off),
                        _ => false,
                    }
                };
                if !covered {
                    if i == 0 {
                        grant = DelegationGrant::NonCacheable;
                    }
                    self.emit_trace(ProtocolEvent::Grant {
                        client,
                        fh: fh.fileid(),
                        kind: TraceKind::NonCacheable,
                    });
                    break;
                }
            }
        }
        grant
    }

    fn handle_nfs(&self, procedure: u32, args: &[u8], client: u32) -> Result<Vec<u8>, RpcError> {
        let class = classify(procedure, args)?;

        // Resolve handles that REMOVE/RENAME will detach, before the
        // operation destroys the name.
        let mut removed_targets = Vec::new();
        if let OpClass::DirModify { dir, names, extra, .. } = &class {
            if matches!(procedure, proc3::REMOVE | proc3::RENAME) {
                for name in names {
                    if let Some(fh) = self.resolve_target(*dir, name) {
                        removed_targets.push(fh);
                    }
                }
                if let Some((extra_dir, extra_name)) = extra {
                    if let Some(fh) = self.resolve_target(*extra_dir, extra_name) {
                        removed_targets.push(fh);
                    }
                }
            }
        }

        let grant = match self.config.model {
            ConsistencyModel::DelegationCallback(_) => {
                // Recall delegations on files a REMOVE/RENAME destroys.
                for fh in &removed_targets {
                    let class = OpClass::SetAttr { fh: *fh };
                    let _ = self.admit_delegation(&class, client);
                }
                self.admit_delegation(&class, client)
            }
            _ => DelegationGrant::None,
        };

        let nfs_bytes = self.forward(procedure, args)?;

        // Invalidations are recorded for every caching model, not just
        // polling: a delegation client whose breaker opened degrades to
        // invalidation-polling semantics, and its GETINV probes must see
        // the modifications it missed. Buffers only exist for clients
        // that have actually polled, so under healthy delegation
        // sessions this records into zero buffers.
        if self.config.model.caches() && class.is_modification() {
            self.record_invalidations(&class, client, &removed_targets);
        }

        // Steady-state polls cost zero extra messages when enabled: the
        // drain the client's next GETINV would return rides back on
        // this reply. `try_drain` never creates buffers, so clients
        // that never polled (pure delegation sessions) pay nothing.
        let inv = if self.config.piggyback_inval && self.config.model.caches() {
            self.inval.try_drain(client)
        } else {
            None
        };

        // Peer sourcing: a successful READ proves this client now
        // holds a clean copy — record it, and advertise the other live
        // holders so the client's next cold block can be sourced over
        // the LAN instead of this WAN link.
        let peers =
            if self.config.peer_read { self.peer_advert(&class, client, &nfs_bytes) } else { None };
        // The advert rides as the second trailing optional, so it
        // needs a drain in front of it; synthesize an empty one
        // anchored at the client's sync point when nothing is pending.
        let inv = match (&peers, inv) {
            (Some(_), None) => Some(self.inval.empty_drain(client)),
            (_, inv) => inv,
        };

        Ok(gvfs_xdr::to_bytes(&WrappedReply { grant, inv, peers, nfs_bytes })?)
    }

    /// Builds the peer advert for a successful READ reply: collects the
    /// live holders of the file (excluding the requester), attests the
    /// reply's own post-op attributes, and records the requester as a
    /// new holder. Returns `None` for non-READ operations, failed
    /// reads, or when no other client holds a clean copy.
    fn peer_advert(&self, class: &OpClass, client: u32, nfs_bytes: &[u8]) -> Option<PeerAdvert> {
        let OpClass::Read { fh, .. } = class else { return None };
        let res = gvfs_xdr::from_bytes::<gvfs_nfs3::ReadRes>(nfs_bytes).ok()?;
        let gvfs_nfs3::ReadRes::Ok { file_attributes, .. } = res else { return None };
        let attrs = file_attributes?;
        let holders = self.inval.collect_holders(*fh, client, MAX_PEER_HOLDERS);
        self.inval.advertise(client, *fh);
        if holders.is_empty() {
            return None;
        }
        Some(PeerAdvert { fh: *fh, change: change_of(attrs.mtime), len: attrs.size, holders })
    }

    fn handle_getinv(&self, args: &[u8], client: u32) -> Result<Vec<u8>, RpcError> {
        let a: GetinvArgs = gvfs_xdr::from_bytes(args).map_err(|_| RpcError::GarbageArgs)?;
        let res: GetinvRes = self.inval.getinv(client, a.last_timestamp);
        Ok(gvfs_xdr::to_bytes(&res)?)
    }
}

impl RpcService for ProxyServer {
    fn program(&self) -> u32 {
        GVFS_PROXY_PROGRAM
    }
    fn version(&self) -> u32 {
        GVFS_VERSION
    }
    fn call(&self, _procedure: u32, _args: &[u8]) -> Result<Vec<u8>, RpcError> {
        // The proxy server authenticates every call; reject
        // credential-less entry.
        Err(RpcError::AuthError)
    }
    fn call_with_cred(
        &self,
        procedure: u32,
        args: &[u8],
        credential: &OpaqueAuth,
    ) -> Result<Vec<u8>, RpcError> {
        let cred = credential.as_gvfs()?;
        self.persisted_clients.lock().insert(cred.client_id);
        match procedure {
            proc_ext::GETINV => self.handle_getinv(args, cred.client_id),
            proc3::NULL => Ok(Vec::new()),
            p if p <= proc3::COMMIT => self.handle_nfs(p, args, cred.client_id),
            p => Err(RpcError::ProcedureUnavailable { program: GVFS_PROXY_PROGRAM, procedure: p }),
        }
    }
}
