//! The GVFS proxy client.
//!
//! Runs beside each kernel NFS client (mounted over loopback, so the
//! kernel talks ordinary NFSv3 to it) and implements the client half of
//! the session's consistency model over its disk cache:
//!
//! * serves `GETATTR`/`LOOKUP`/`READ` hits locally — absorbing the
//!   kernel's consistency-check storms — and forwards misses over the
//!   WAN wrapped in the proxy program;
//! * under **invalidation polling**, runs a poller that drains the proxy
//!   server's invalidation buffer with `GETINV` (fixed period or
//!   exponential back-off) and invalidates cached attributes;
//! * under **delegation/callback**, tracks granted delegations, renews
//!   them by periodically letting a request bypass the cache, serves the
//!   callback program (recalls, partial write-back with a background
//!   flusher), and reconciles after crashes;
//! * with **write-back** enabled, absorbs writes as dirty extents and
//!   flushes them on recall, shutdown, or file removal (delayed writes
//!   to later-deleted files are never sent — the paper's `make`
//!   temporary-file win).

use crate::cache::DiskCache;
use crate::model::{ConsistencyModel, DelegationConfig};
use crate::protocol::{
    change_of, proc_ext, CallbackArgs, CallbackKind, CallbackRes, DelegationGrant, GetinvArgs,
    GetinvRes, PeerAdvert, PeerReadArgs, PeerReadRes, RecoverRes, WrappedReply,
    GVFS_CALLBACK_PROGRAM, GVFS_PROXY_PROGRAM, GVFS_VERSION,
};
use crate::proxy::{block_of, BLOCK_SIZE};
use crate::session::SessionConfig;
use crate::store::persist::content_hash;
use crate::store::BlockStore;
use crate::trace::{ProtocolEvent, TraceBuffer, TraceKind};
use gvfs_netsim::transport::SimRpcClient;
use gvfs_netsim::SimTime;
use gvfs_nfs3::{
    proc3, CreateArgs, DirOpArgs, Fattr3, Fh3, GetattrArgs, GetattrRes, LinkArgs, LookupArgs,
    LookupRes, MkdirArgs, NfsTime3, Nfsstat3, ReadArgs, ReadRes, ReaddirRes, RenameArgs,
    SetattrRes, StableHow, SymlinkArgs, WccData, WriteArgs, WriteRes,
};
use gvfs_rpc::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use gvfs_rpc::channel::PendingCall;
use gvfs_rpc::dispatch::RpcService;
use gvfs_rpc::RpcError;
use gvfs_xdr::Xdr;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Deterministic per-client retry jitter: a hash of `(client_id,
/// attempt)` spreads N clients' k-th retransmissions across
/// `[0, delay/2)`, so a heal after a shared partition is not greeted by
/// a synchronized retry storm. `DefaultHasher` has fixed keys, so the
/// schedule is reproducible across runs — the simulator's determinism
/// contract holds.
pub fn retry_jitter(client_id: u32, attempt: u32, delay: Duration) -> Duration {
    let mut hasher = DefaultHasher::new();
    (client_id, attempt).hash(&mut hasher);
    let slot = (hasher.finish() % 1024) as u32;
    delay * slot / 2048
}

#[derive(Debug, Default)]
struct ClientState {
    delegations: HashMap<Fh3, DelegationGrant>,
    noncacheable: HashSet<Fh3>,
    last_forward: HashMap<Fh3, SimTime>,
    /// Server mtime observed when a file first accumulated dirty data —
    /// persisted with the disk cache, used for post-crash reconciliation.
    wb_base: HashMap<Fh3, NfsTime3>,
    corrupted: HashSet<Fh3>,
}

/// Statistics a proxy client keeps about its own effectiveness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProxyClientStats {
    /// Kernel RPCs answered from the disk cache.
    pub served_local: u64,
    /// Kernel RPCs forwarded over the WAN.
    pub forwarded: u64,
    /// Invalidation handles applied from `GETINV` replies.
    pub invalidations_applied: u64,
    /// Invalidation drains applied from piggybacked NFS replies
    /// (polls that cost zero extra messages).
    pub piggyback_drains: u64,
    /// Callbacks received.
    pub callbacks: u64,
    /// READ requests served entirely from cached extents.
    pub read_hits: u64,
    /// READ requests that found at least one uncached gap.
    pub read_misses: u64,
    /// Speculative read-ahead READs put on the wire.
    pub prefetch_issued: u64,
    /// Prefetched replies that landed in the cache for a demand read.
    pub prefetch_hits: u64,
    /// Prefetched replies discarded: cancelled by an invalidation or
    /// recall, or failed in flight.
    pub prefetch_wasted: u64,
    /// Transient WAN failures (timeout/unreachable) retried with
    /// back-off by [`ProxyClient::forward`].
    pub transport_retries: u64,
    /// `GETINV` replies that demanded a full attribute purge (buffer
    /// wrap or server restart, §4.2).
    pub force_invalidations: u64,
    /// Files whose dirty data was discarded during crash recovery
    /// because the server-side copy changed during the outage (§4.3.4).
    pub corrupted_discards: u64,
    /// READ and GETATTR calls answered from cache by the degradation
    /// ladder's bounded-staleness rung while the WAN breaker was open.
    pub degraded_reads: u64,
    /// Files whose dirty data was discarded during post-heal
    /// re-promotion because the server-side copy changed during the
    /// outage (the lease-revocation analogue of `corrupted_discards`;
    /// the file is *not* poisoned — fresh data is refetched).
    pub stale_discards: u64,
    /// Times the supervisor re-promoted the session to full delegation
    /// semantics after an outage healed.
    pub repromotions: u64,
    /// Bytes of file content currently held by the block store.
    pub cache_bytes: u64,
    /// Files whose clean content the block store evicted for capacity.
    pub cache_evictions: u64,
    /// Clean chunk insertions deduplicated against an identical stored
    /// chunk (persistent store only).
    pub dedup_hits: u64,
    /// Clean blocks served warm from the replayed on-disk index after
    /// the last restart (persistent store only).
    pub restart_warm_blocks: u64,
    /// Block fetches satisfied by a peer's clean cache over the LAN
    /// (verified against the origin-attested change/length/hash).
    pub peer_hits: u64,
    /// Peer fetches that came back empty or failed verification (the
    /// block then falls back to the origin).
    pub peer_misses: u64,
    /// Block fetches that fell back to the origin: no live peer, peer
    /// miss, breaker-open, timeout, or verification failure.
    pub peer_fallbacks: u64,
    /// Bytes this client served to other peers' `PEERREAD`s.
    pub peer_bytes_served: u64,
    /// Checksum verifications the block store failed (bit rot, torn
    /// writes, unreadable media) — merged from the store's counters.
    pub integrity_failures: u64,
    /// Extents the block store quarantined instead of serving — merged
    /// from the store's counters.
    pub quarantined_blocks: u64,
    /// Quarantined *clean* extents the demand read path turned into
    /// misses and transparently re-fetched from the origin or a peer.
    pub refetch_repairs: u64,
    /// Quarantined clean extents the background scrub actor re-fetched
    /// ahead of any demand read.
    pub scrub_repairs: u64,
    /// Quarantined *dirty* extents: locally written bytes lost to
    /// corruption before write-back. Explicit data loss — the file is
    /// poisoned like `corrupted_discards`, never silently zero-filled.
    pub integrity_dirty_loss: u64,
}

/// One block-bounded chunk of a file reserved for fetching (a demand
/// gap or a speculative read-ahead block): its reservation token and
/// range.
#[derive(Clone, Copy)]
struct Chunk {
    /// Unique reservation id: the issuer applies the reply only while
    /// the token is still present, so a cancellation (which removes the
    /// entry) makes every in-flight reply land on the floor instead of
    /// overwriting a newer invalidation.
    token: u64,
    offset: u64,
    count: u32,
    /// Speculative read-ahead (true) vs a demand gap fetch (false) —
    /// only speculative chunks move the prefetch counters.
    speculative: bool,
}

impl Chunk {
    fn end(&self) -> u64 {
        self.offset + u64::from(self.count)
    }
}

/// One chunk fetch on the wire: an origin READ over the WAN or, with
/// `peer` set, a `PEERREAD` to a peer over the LAN.
struct InFlight {
    chunk: Chunk,
    call: PendingCall,
    /// Set when the call is a `PEERREAD`: the claimant must verify the
    /// reply against these origin-attested values (and knows which
    /// breaker to feed).
    peer: Option<PeerMeta>,
}

/// What became of one chunk fetch once its reply was claimed.
enum Landed {
    /// Applied to the cache.
    Applied,
    /// Failed in flight, answered with an error, or cancelled by an
    /// invalidation or recall that raced it: the caller re-plans.
    Lost,
    /// A peer could not serve the chunk (miss, transport failure, or
    /// verification failure): it re-fetches from the origin.
    Fallback(Chunk),
}

/// One reserved chunk in [`FileReadState::pending`], from the moment
/// the range is reserved until its reply is applied, discarded, or
/// cancelled.
struct PendingFetch {
    chunk: Chunk,
    /// The in-flight call, present while unclaimed. A demand read takes
    /// it and waits on it; `None` means some actor is already completing
    /// this fetch, so overlapping readers park as waiters instead of
    /// re-sending.
    call: Option<PendingCall>,
    /// Provenance of `call` when it is a `PEERREAD` (see
    /// [`InFlight::peer`]).
    peer: Option<PeerMeta>,
    /// Actors parked until this fetch resolves.
    waiters: Vec<gvfs_netsim::ActorHandle>,
}

impl PendingFetch {
    fn reserve(chunk: Chunk) -> Self {
        PendingFetch { chunk, call: None, peer: None, waiters: Vec::new() }
    }
}

/// Per-file sequential-access detector plus in-flight fetch table.
#[derive(Default)]
struct FileReadState {
    /// Offset one past the last served read; a read starting here (or
    /// overlapping it) extends the sequential run.
    next_expected: u64,
    /// Consecutive sequential reads observed.
    run: usize,
    pending: Vec<PendingFetch>,
}

/// One registered peer: a LAN-priced transport to the peer's callback
/// node plus a dedicated health breaker. The breaker's integer-EWMA
/// latency is the peer-selection key; an open breaker removes the peer
/// from candidacy until its cooldown elapses.
struct PeerTransport {
    rpc: SimRpcClient,
    breaker: CircuitBreaker,
}

/// Provenance of one in-flight `PEERREAD`: which peer it went to and the
/// origin-attested values its reply must verify against. Travels with
/// the chunk so a demand read claiming a peer-sent prefetch knows how to
/// complete (and verify) it.
struct PeerMeta {
    peer: Arc<PeerTransport>,
    peer_id: u32,
    started: Duration,
    /// Origin-attested change attribute the block must match.
    change: u64,
    /// Origin-attested file length the reply must stay within.
    total_len: u64,
}

/// The read engine's shared state (lock rank: after `disk`).
#[derive(Default)]
struct ReadAheadState {
    files: HashMap<Fh3, FileReadState>,
}

impl ReadAheadState {
    /// Removes the reservation `token` of `fh`, if it is still present.
    fn take(&mut self, fh: Fh3, token: u64) -> Option<PendingFetch> {
        let fs = self.files.get_mut(&fh)?;
        let i = fs.pending.iter().position(|e| e.chunk.token == token)?;
        Some(fs.pending.remove(i))
    }
}

/// The proxy client service (see module docs).
pub struct ProxyClient {
    id: u32,
    /// The session's configuration, fixed when the middleware creates
    /// the proxy (§2): consistency model, write-back, read-ahead,
    /// resilience and peer-sourcing settings.
    config: SessionConfig,
    wan: SimRpcClient,
    disk: Mutex<DiskCache>,
    state: Mutex<ClientState>,
    poll_ts: Mutex<Option<u64>>,
    flush_queue: Mutex<VecDeque<(Fh3, u64)>>,
    flusher: Mutex<Option<gvfs_netsim::ActorHandle>>,
    poller: Mutex<Option<gvfs_netsim::ActorHandle>>,
    stopped: AtomicBool,
    readahead: Mutex<ReadAheadState>,
    fetch_token: AtomicU64,
    stats: Mutex<ProxyClientStats>,
    /// Per-peer WAN health: fed by every forwarded call's outcome,
    /// consulted by the degradation ladder and the supervisor.
    breaker: CircuitBreaker,
    /// Set when the breaker degrades a delegation session: the held
    /// delegations may have been revoked server-side, so the supervisor
    /// must resync before trusting them again.
    needs_resync: AtomicBool,
    /// Last whole-cache validation point (a successful `GETINV`
    /// exchange), in virtual milliseconds since the epoch; 0 = never.
    last_validated_ms: AtomicU64,
    supervisor: Mutex<Option<gvfs_netsim::ActorHandle>>,
    /// LAN transports to registered peers, keyed by peer client id
    /// (lock rank: terminal — nothing else is taken under it).
    peers: Mutex<HashMap<u32, Arc<PeerTransport>>>,
    /// Origin-attested peer advertisements, one per handle, absorbed
    /// from `WrappedReply.peers` and dropped whenever the handle is
    /// invalidated (lock rank: terminal).
    peer_hints: Mutex<HashMap<Fh3, PeerAdvert>>,
    /// Chaos self-test fault (`--break-peerread`): serve `PEERREAD`s
    /// from raw store content, skipping the attestation checks — the
    /// oracle must convict this.
    break_peerread: bool,
    /// The scrub actor's handle, for shutdown (lock rank: after
    /// `supervisor`; only taken to install/unpark the handle).
    scrubber: Mutex<Option<gvfs_netsim::ActorHandle>>,
    /// Protocol-event sink for spec-conformance replay, installed once
    /// by the session (shared with the proxy server so `seq` is a
    /// session-global order).
    trace: std::sync::OnceLock<Arc<TraceBuffer>>,
}

impl std::fmt::Debug for ProxyClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProxyClient")
            .field("id", &self.id)
            .field("model", &self.config.model)
            .finish()
    }
}

fn decode<T: Xdr>(bytes: &[u8]) -> Result<T, RpcError> {
    gvfs_xdr::from_bytes(bytes).map_err(|_| RpcError::GarbageArgs)
}

fn encode<T: Xdr>(value: &T) -> Result<Vec<u8>, RpcError> {
    Ok(gvfs_xdr::to_bytes(value)?)
}

/// Outcome of a forwarded WAN call that may escape to the degradation
/// ladder instead of blocking through an outage.
enum Forwarded {
    /// The call completed; the unwrapped NFS bytes follow.
    Replied(Vec<u8>),
    /// The ladder engaged mid-retry: the caller serves from cache.
    Degraded,
}

impl ProxyClient {
    /// Creates a proxy client configured for `config`'s session, caching
    /// into `store` (the in-memory store, or a
    /// [`crate::store::persist::PersistentStore`] whose disk survives
    /// restarts).
    ///
    /// `wan` must carry a GVFS credential identifying `id` (the session
    /// middleware arranges this). `break_peerread` builds in the chaos
    /// self-test fault that serves condemned bytes to peers; a correct
    /// session passes `false`.
    pub fn new(
        id: u32,
        config: &SessionConfig,
        wan: SimRpcClient,
        store: Box<dyn BlockStore>,
        break_peerread: bool,
    ) -> Arc<Self> {
        let breaker = CircuitBreaker::new(BreakerConfig::default()).with_stats(wan.stats().clone());
        Arc::new(ProxyClient {
            id,
            config: *config,
            wan,
            disk: Mutex::new(DiskCache::with_store(store)),
            state: Mutex::new(ClientState::default()),
            poll_ts: Mutex::new(None),
            flush_queue: Mutex::new(VecDeque::new()),
            flusher: Mutex::new(None),
            poller: Mutex::new(None),
            stopped: AtomicBool::new(false),
            readahead: Mutex::new(ReadAheadState::default()),
            fetch_token: AtomicU64::new(0),
            stats: Mutex::new(ProxyClientStats::default()),
            breaker,
            needs_resync: AtomicBool::new(false),
            last_validated_ms: AtomicU64::new(0),
            supervisor: Mutex::new(None),
            peers: Mutex::new(HashMap::new()),
            peer_hints: Mutex::new(HashMap::new()),
            break_peerread,
            scrubber: Mutex::new(None),
            trace: std::sync::OnceLock::new(),
        })
    }

    /// Installs the shared protocol-trace buffer (first call wins).
    pub fn install_trace(&self, buf: Arc<TraceBuffer>) {
        let _ = self.trace.set(buf);
    }

    fn emit_trace(&self, ev: ProtocolEvent) {
        if let Some(buf) = self.trace.get() {
            buf.record(ev);
        }
    }

    /// This client's WAN health breaker (diagnostics).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Registers a LAN transport to peer `id` (the session middleware
    /// wires the full mesh). Each peer gets its own health breaker.
    pub fn add_peer(&self, id: u32, rpc: SimRpcClient) {
        let breaker = CircuitBreaker::new(BreakerConfig::default());
        self.peers.lock().insert(id, Arc::new(PeerTransport { rpc, breaker }));
    }

    /// Feeds one failure into peer `id`'s health breaker at the current
    /// virtual time (tests force a breaker open with a burst of these).
    pub fn note_peer_failure(&self, id: u32) {
        if let Some(p) = self.peers.lock().get(&id) {
            p.breaker.on_failure(Self::now_dur());
        }
    }

    /// Drops the peer hint for one invalidated handle: the origin
    /// condemned its advertised copies, so the hint is dead.
    fn drop_peer_hint(&self, fh: Fh3) {
        self.peer_hints.lock().remove(&fh);
    }

    /// Invalidates one handle: its cached attributes, its in-flight
    /// fetches and its peer hint. The caller holds `disk` across the
    /// call, so a stale fetch reply can never apply after the
    /// invalidation.
    fn invalidate_handle(&self, disk: &mut DiskCache, fh: Fh3) {
        disk.invalidate_attr(fh);
        self.cancel_prefetch(fh);
        self.drop_peer_hint(fh);
    }

    /// Invalidates every handle (force invalidation, `RECOVER`, crash
    /// reconciliation), under the caller's `disk` hold like
    /// [`ProxyClient::invalidate_handle`].
    fn invalidate_everything(&self, disk: &mut DiskCache) {
        disk.invalidate_all_attrs();
        self.cancel_all_prefetch();
        self.peer_hints.lock().clear();
    }

    /// Virtual time as a `Duration` since the simulation epoch (the
    /// breaker's clock representation).
    fn now_dur() -> Duration {
        gvfs_netsim::now().saturating_since(SimTime::ZERO)
    }

    /// This client's session-local id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Effectiveness counters, merged with the block store's.
    pub fn stats(&self) -> ProxyClientStats {
        let store = self.disk.lock().store.stats();
        let mut s = *self.stats.lock();
        s.cache_bytes = store.bytes;
        s.cache_evictions = store.evictions;
        s.dedup_hits = store.dedup_hits;
        s.restart_warm_blocks = store.restart_warm_blocks;
        s.integrity_failures = store.integrity_failures;
        s.quarantined_blocks = store.quarantined_blocks;
        s
    }

    /// Forces a durability barrier on the block store (no-op for the
    /// in-memory store). Everything cached so far survives a crash.
    pub fn sync_store(&self) {
        self.disk.lock().store.sync();
        self.settle_disk();
    }

    /// Charges any simulated disk I/O cost accrued by the block store to
    /// this actor's virtual clock. Must be called with no locks held;
    /// outside an actor the cost is absorbed silently (unit tests).
    /// Doubles as the backstop drain for integrity events, so a
    /// quarantine raised anywhere in a service call is attributed
    /// before the call returns.
    fn settle_disk(&self) {
        self.drain_integrity_events(false);
        let cost = self.disk.lock().store.take_cost();
        if !cost.is_zero() && gvfs_netsim::in_actor() {
            gvfs_netsim::sleep(cost);
        }
    }

    /// Attributes the store's quarantine events. Dirty extents are
    /// unrecoverable local writes: the file is poisoned (`corrupted`,
    /// like crash-recovery conflicts) and counted as explicit data
    /// loss. Clean extents are now plain cache misses: on the demand
    /// path (`scrub` false) the very read that uncovered them refetches,
    /// counted as `refetch_repairs`; the scrub actor (`scrub` true)
    /// repairs them itself and does its own accounting, so clean events
    /// are only traced here. `served` events (verification disabled by
    /// the `--break-scrub` knob) are traced for the replay oracle to
    /// convict and deliberately not repaired.
    fn drain_integrity_events(&self, scrub: bool) -> Vec<crate::store::IntegrityEvent> {
        let events = self.disk.lock().store.take_integrity_events();
        for ev in &events {
            self.emit_trace(ProtocolEvent::IntegrityFault {
                client: self.id,
                fh: ev.fh.fileid(),
                dirty: ev.dirty,
                served: ev.served,
            });
            if ev.served {
                continue;
            }
            if ev.dirty {
                self.state.lock().corrupted.insert(ev.fh);
                self.stats.lock().integrity_dirty_loss += 1;
            } else if !scrub {
                self.stats.lock().refetch_repairs += 1;
            }
        }
        events
    }

    /// Re-fetches a quarantined clean range ahead of demand (the scrub
    /// repair). Returns whether the range is fully cached again.
    fn repair_clean_range(&self, fh: Fh3, offset: u64, len: u64) -> bool {
        let Ok(len) = usize::try_from(len) else { return false };
        for _ in 0..4 {
            if self.disk.lock().store.missing_ranges(fh, offset, len).is_empty() {
                return true;
            }
            if !self.fetch_missing(fh, offset, len) {
                return false;
            }
        }
        self.disk.lock().store.missing_ranges(fh, offset, len).is_empty()
    }

    /// Runs the background scrub actor until shutdown: every `period`
    /// it verifies up to `batch` bytes of stored content against their
    /// checksums (advancing a persistent sweep cursor), re-fetches any
    /// clean extent the sweep quarantined, and surfaces dirty ones as
    /// data loss — rot is found and healed ahead of demand instead of
    /// at first read. Spawn this on its own actor (the session
    /// middleware does when `scrub_period` is configured).
    pub fn run_scrubber(self: &Arc<Self>, period: Duration, batch: usize) {
        *self.scrubber.lock() = Some(gvfs_netsim::current_actor());
        loop {
            gvfs_netsim::park_timeout(period);
            if self.stopped.load(Ordering::SeqCst) {
                return;
            }
            let _ = self.disk.lock().store.scrub_step(batch);
            for ev in self.drain_integrity_events(true) {
                if ev.served || ev.dirty {
                    continue; // attributed by the drain
                }
                if self.repair_clean_range(ev.fh, ev.offset, ev.len) {
                    self.stats.lock().scrub_repairs += 1;
                    self.emit_trace(ProtocolEvent::ScrubRepair {
                        client: self.id,
                        fh: ev.fh.fileid(),
                    });
                }
            }
            self.settle_disk();
        }
    }

    fn deleg_config(&self) -> DelegationConfig {
        match self.config.model {
            ConsistencyModel::DelegationCallback(c) => c,
            _ => DelegationConfig::default(),
        }
    }

    /// Whether cached state for `fh` may be served without contacting
    /// the server.
    fn can_serve(&self, fh: Fh3) -> bool {
        let st = self.state.lock();
        if st.noncacheable.contains(&fh) {
            return false;
        }
        match self.config.model {
            ConsistencyModel::Passthrough => false,
            ConsistencyModel::InvalidationPolling { .. } => true,
            ConsistencyModel::DelegationCallback(config) => {
                if !st.delegations.contains_key(&fh) {
                    return false;
                }
                // Renewal: periodically let a request through to keep
                // the server's speculated-open fresh (§4.3.1).
                match st.last_forward.get(&fh) {
                    Some(t) => gvfs_netsim::now().saturating_since(*t) < config.renewal,
                    None => false,
                }
            }
        }
    }

    /// One wrapped WAN call; applies the piggybacked grant for `target`.
    ///
    /// Transport failures (partition, proxy server down) are retried
    /// with jittered exponential backoff up to the configured retry
    /// budget: a user-level proxy simply holds the kernel's request
    /// until the upstream answers, exactly as a hard NFS mount over TCP
    /// behaves.
    fn forward(
        &self,
        procedure: u32,
        args: Vec<u8>,
        target: Option<Fh3>,
    ) -> Result<Vec<u8>, RpcError> {
        match self.forward_wan(procedure, args, target, false)? {
            Forwarded::Replied(bytes) => Ok(bytes),
            // With `degrade` off the retry loop only ends in a reply or
            // an error; this arm is unreachable but must not panic.
            Forwarded::Degraded => Err(RpcError::Unreachable),
        }
    }

    /// The retrying WAN call behind [`ProxyClient::forward`]. Every
    /// outcome feeds the health breaker; with `degrade` set, the loop
    /// re-checks the degradation ladder before each attempt and escapes
    /// with [`Forwarded::Degraded`] once it engages, so a read that was
    /// already blocked when the breaker opened reaches the cache instead
    /// of sleeping through the whole outage.
    fn forward_wan(
        &self,
        procedure: u32,
        args: Vec<u8>,
        target: Option<Fh3>,
        degrade: bool,
    ) -> Result<Forwarded, RpcError> {
        const RETRY_CAP: Duration = Duration::from_secs(60);
        let budget = self.config.retry_budget;
        let mut attempts = 0u32;
        let mut delay = Duration::from_secs(1);
        let bytes = loop {
            if degrade && self.degraded_now() {
                return Ok(Forwarded::Degraded);
            }
            let started = Self::now_dur();
            match self.wan.call(GVFS_PROXY_PROGRAM, GVFS_VERSION, procedure, args.clone()) {
                Ok(bytes) => {
                    let now = Self::now_dur();
                    self.breaker.on_success(now, now.saturating_sub(started));
                    break bytes;
                }
                Err(e) if e.is_transient() && attempts < budget => {
                    // Exponential back-off, like the empty-poll path: a
                    // long partition costs O(log) attempts, not one per
                    // second. The jitter decorrelates parallel clients'
                    // post-heal retransmissions.
                    self.note_wan_failure(&e);
                    attempts += 1;
                    self.stats.lock().transport_retries += 1;
                    gvfs_netsim::sleep(delay + retry_jitter(self.id, attempts, delay));
                    delay = (delay * 2).min(RETRY_CAP);
                }
                Err(e) => {
                    self.note_wan_failure(&e);
                    return Err(e);
                }
            }
        };
        self.absorb_reply(target, &bytes).map(Forwarded::Replied)
    }

    /// Feeds one failed WAN call into the breaker and, once the breaker
    /// degrades a delegation session, flags the post-heal resync.
    fn note_wan_failure(&self, e: &RpcError) {
        if !e.trips_breaker() {
            return;
        }
        let now = Self::now_dur();
        self.breaker.on_failure(now);
        if self.breaker.state(now).is_degraded()
            && matches!(self.config.model, ConsistencyModel::DelegationCallback(_))
        {
            // Held delegations may be revoked server-side (lease expiry,
            // short-circuited recalls) while we cannot hear the recalls.
            if !self.needs_resync.swap(true, Ordering::SeqCst) {
                self.emit_trace(ProtocolEvent::Degrade { client: self.id });
            }
        }
    }

    /// Whether the degradation ladder is engaged right now: enabled
    /// (a `max_staleness` is configured), delegation model, and the
    /// breaker open (or probing) for at least `degrade_after`.
    fn degraded_now(&self) -> bool {
        if self.config.max_staleness.is_none()
            || !matches!(self.config.model, ConsistencyModel::DelegationCallback(_))
        {
            return false;
        }
        let now = Self::now_dur();
        if !self.breaker.state(now).is_degraded() {
            return false;
        }
        self.breaker.open_for(now).is_some_and(|open| open >= self.config.degrade_after)
    }

    /// Unwraps one proxy-program reply: counts it, applies the
    /// piggybacked grant for `target`, and returns the inner NFS bytes.
    /// Shared by the blocking [`ProxyClient::forward`] path and the
    /// pipelined write-back path, which claims replies after the fact.
    fn absorb_reply(&self, target: Option<Fh3>, bytes: &[u8]) -> Result<Vec<u8>, RpcError> {
        let wrapped: WrappedReply = decode(bytes)?;
        self.stats.lock().forwarded += 1;
        if let Some(fh) = target {
            let mut st = self.state.lock();
            st.last_forward.insert(fh, gvfs_netsim::now());
            match wrapped.grant {
                DelegationGrant::Read | DelegationGrant::Write => {
                    st.delegations.insert(fh, wrapped.grant);
                    st.noncacheable.remove(&fh);
                }
                DelegationGrant::NonCacheable => {
                    st.delegations.remove(&fh);
                    st.noncacheable.insert(fh);
                }
                DelegationGrant::None => {}
            }
        }
        if let Some(inv) = &wrapped.inv {
            self.apply_piggyback_inv(inv);
        }
        if let Some(advert) = wrapped.peers {
            // The advert is absorbed after the piggybacked drain: a
            // drain that just invalidated this handle dropped the old
            // hint, and the advert (served with the reply that carries
            // the drain) postdates it.
            if self.config.peer_read {
                self.peer_hints.lock().insert(advert.fh, advert);
            }
        }
        Ok(wrapped.nfs_bytes)
    }

    /// Applies an invalidation drain piggybacked on an NFS reply — the
    /// poll the server answered for free on this round trip.
    ///
    /// Only a client that has already bootstrapped (holds a poll
    /// timestamp) applies piggybacks, and only forward in time: a
    /// pre-bootstrap or stale drain is dropped, which is always safe —
    /// the server detects the resulting timestamp lag on the next real
    /// `GETINV` and force-invalidates.
    fn apply_piggyback_inv(&self, res: &GetinvRes) {
        {
            let mut ts = self.poll_ts.lock();
            match *ts {
                Some(current) if res.timestamp > current => *ts = Some(res.timestamp),
                _ => return,
            }
        }
        self.stats.lock().piggyback_drains += 1;
        self.apply_drain(res);
        if res.poll_again {
            // More pages are waiting server-side: kick the poller so a
            // real GETINV drains them now instead of at the next window.
            if let Some(poller) = self.poller.lock().clone() {
                poller.unpark();
            }
        }
    }

    /// Applies one invalidation drain, polled or piggybacked, and
    /// records the validation. Prefetch cancellation happens under the
    /// same disk-lock hold as the invalidations: a fetch still in flight
    /// for an invalidated file must be discarded before any of its
    /// stale bytes can reach the cache.
    fn apply_drain(&self, res: &GetinvRes) {
        let mut disk = self.disk.lock();
        if res.force_invalidate {
            self.invalidate_everything(&mut disk);
        }
        for fh in &res.handles {
            self.invalidate_handle(&mut disk, *fh);
        }
        drop(disk);
        let mut stats = self.stats.lock();
        stats.invalidations_applied += res.handles.len() as u64;
        if res.force_invalidate {
            stats.force_invalidations += 1;
        }
        drop(stats);
        self.emit_trace(ProtocolEvent::Validate {
            client: self.id,
            force: res.force_invalidate,
            n: res.handles.len() as u32,
            ts: res.timestamp,
        });
    }

    fn served(&self) {
        self.stats.lock().served_local += 1;
    }

    // --- per-procedure handlers -------------------------------------

    fn op_getattr(&self, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        let a: GetattrArgs = decode(args)?;
        if self.can_serve(a.object) {
            if let Some(attr) = self.disk.lock().attr(a.object) {
                self.served();
                return encode(&GetattrRes::Ok(attr));
            }
        }
        // Degradation ladder: `noac` kernels revalidate attributes
        // before every read, so the bounded-staleness rung must answer
        // GETATTR too — otherwise reads block on the dead WAN one RPC
        // before the READ the rung was built for.
        if self.degraded_now() {
            if let Some(reply) = self.serve_degraded_getattr(a.object)? {
                return Ok(reply);
            }
        }
        let reply = match self.forward_wan(proc3::GETATTR, args.to_vec(), Some(a.object), true)? {
            Forwarded::Replied(bytes) => bytes,
            Forwarded::Degraded => {
                // The breaker opened while this GETATTR was blocked
                // mid-retry: escape to the cached attributes if the
                // staleness bound allows, otherwise keep blocking like a
                // hard mount.
                match self.serve_degraded_getattr(a.object)? {
                    Some(reply) => return Ok(reply),
                    None => self.forward(proc3::GETATTR, args.to_vec(), Some(a.object))?,
                }
            }
        };
        match gvfs_xdr::from_bytes::<GetattrRes>(&reply) {
            Ok(GetattrRes::Ok(attr)) => self.disk.lock().put_attr(a.object, attr),
            Ok(GetattrRes::Fail(Nfsstat3::Stale)) => {
                let mut disk = self.disk.lock();
                disk.forget_file(a.object);
                disk.purge_bindings_to(a.object);
                self.cancel_prefetch(a.object);
                self.drop_peer_hint(a.object);
            }
            _ => {}
        }
        Ok(reply)
    }

    /// Bulk-refreshes a stale directory's name bindings with a
    /// READDIRPLUS sweep — a few WAN RPCs bring back hundreds of names
    /// *with handles and attributes*, the proxy's prefetching advantage
    /// over per-name LOOKUPs.
    fn ensure_dir_bindings(&self, dir: Fh3) {
        if !self.disk.lock().take_stale_dir(dir) {
            return;
        }
        let mut cookie = 0u64;
        let mut cookieverf = 0u64;
        loop {
            let Ok(args) = gvfs_xdr::to_bytes(&gvfs_nfs3::ReaddirplusArgs {
                dir,
                cookie,
                cookieverf,
                dircount: 16384,
                maxcount: 65536,
            }) else {
                return;
            };
            let Ok(reply) = self.forward(proc3::READDIRPLUS, args, Some(dir)) else { return };
            match gvfs_xdr::from_bytes::<gvfs_nfs3::ReaddirplusRes>(&reply) {
                Ok(gvfs_nfs3::ReaddirplusRes::Ok {
                    dir_attributes,
                    cookieverf: verf,
                    entries,
                    eof,
                }) => {
                    let mut disk = self.disk.lock();
                    if let Some(attr) = dir_attributes {
                        disk.put_attr(dir, attr);
                    }
                    for e in &entries {
                        let fh = e.name_handle.unwrap_or(Fh3::from_fileid(e.fileid));
                        disk.put_lookup(dir, &e.name, fh);
                        if let Some(attr) = e.name_attributes {
                            disk.put_attr(fh, attr);
                        }
                        cookie = e.cookie;
                    }
                    cookieverf = verf;
                    if eof {
                        return;
                    }
                }
                _ => return,
            }
        }
    }

    fn op_lookup(&self, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        let a: LookupArgs = decode(args)?;
        if self.config.model.caches() {
            self.ensure_dir_bindings(a.dir);
        }
        if self.can_serve(a.dir) {
            let disk = self.disk.lock();
            if let Some(dir_attr) = disk.attr(a.dir) {
                match disk.lookup(a.dir, &a.name) {
                    Some(Some(child)) => {
                        let res = LookupRes::Ok {
                            object: child,
                            obj_attributes: disk.attr(child),
                            dir_attributes: Some(dir_attr),
                        };
                        drop(disk);
                        self.served();
                        return encode(&res);
                    }
                    Some(None) => {
                        let res = LookupRes::Fail {
                            status: Nfsstat3::Noent,
                            dir_attributes: Some(dir_attr),
                        };
                        drop(disk);
                        self.served();
                        return encode(&res);
                    }
                    None => {}
                }
            }
        }
        let reply = self.forward(proc3::LOOKUP, args.to_vec(), Some(a.dir))?;
        match gvfs_xdr::from_bytes::<LookupRes>(&reply) {
            Ok(LookupRes::Ok { object, obj_attributes, dir_attributes }) => {
                let mut disk = self.disk.lock();
                disk.put_lookup(a.dir, &a.name, object);
                if let Some(attr) = obj_attributes {
                    disk.put_attr(object, attr);
                }
                if let Some(attr) = dir_attributes {
                    disk.put_attr(a.dir, attr);
                }
            }
            Ok(LookupRes::Fail { status, dir_attributes }) => {
                let mut disk = self.disk.lock();
                if status == Nfsstat3::Noent {
                    disk.put_negative_lookup(a.dir, &a.name);
                }
                if let Some(attr) = dir_attributes {
                    disk.put_attr(a.dir, attr);
                }
            }
            Err(_) => {}
        }
        Ok(reply)
    }

    fn op_read(&self, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        let a: ReadArgs = decode(args)?;
        if self.state.lock().corrupted.contains(&a.file) {
            return encode(&ReadRes::Fail { status: Nfsstat3::Io, file_attributes: None });
        }
        if self.config.model.caches() && self.can_serve(a.file) {
            if let Some(reply) = self.read_from_cache(&a)? {
                return Ok(reply);
            }
        }
        // Degradation ladder: while the WAN breaker is open, answer from
        // sufficiently fresh cached state instead of blocking on a
        // partitioned upstream (bounded staleness, §4 tailored per
        // session).
        if self.degraded_now() {
            if let Some(reply) = self.serve_degraded_read(&a)? {
                return Ok(reply);
            }
        }
        let reply = match self.forward_wan(proc3::READ, args.to_vec(), Some(a.file), true)? {
            Forwarded::Replied(bytes) => bytes,
            Forwarded::Degraded => {
                // The breaker opened while this read was blocked
                // mid-retry: escape to the cache if the staleness bound
                // allows, otherwise keep blocking like a hard mount.
                match self.serve_degraded_read(&a)? {
                    Some(reply) => return Ok(reply),
                    None => self.forward(proc3::READ, args.to_vec(), Some(a.file))?,
                }
            }
        };
        if let Ok(ReadRes::Ok { file_attributes, data, eof, .. }) =
            gvfs_xdr::from_bytes::<ReadRes>(&reply)
        {
            if self.config.model.caches() {
                {
                    let mut disk = self.disk.lock();
                    if let Some(attr) = file_attributes {
                        disk.put_attr(a.file, attr);
                    }
                    disk.store.insert_clean(a.file, a.offset, data.clone());
                }
                if self.can_serve(a.file) {
                    self.maybe_prefetch(a.file, a.offset, a.count);
                }
                // Local dirty bytes win over what the server returned:
                // re-serve from the merged cache when possible.
                let mut disk = self.disk.lock();
                if disk.store.has_dirty(a.file) {
                    if let Some(merged) = disk.store.read(a.file, a.offset, data.len()) {
                        let attr = disk.attr(a.file);
                        let res = ReadRes::Ok {
                            file_attributes: attr,
                            count: merged.len() as u32,
                            eof,
                            data: merged,
                        };
                        return encode(&res);
                    }
                }
            }
        }
        Ok(reply)
    }

    /// Serves a READ from the disk cache under the bounded-staleness
    /// rung of the degradation ladder. The cached state qualifies only
    /// if it was validated against the server within `max_staleness`:
    /// the validation point is the newer of the last successful `GETINV`
    /// exchange (which carries every invalidation the server saw, so it
    /// vouches for the whole cache) and the file's own last forwarded
    /// access. Returns `Ok(None)` when the state is too old or absent —
    /// the caller then blocks on the WAN like a hard mount.
    fn serve_degraded_read(&self, a: &ReadArgs) -> Result<Option<Vec<u8>>, RpcError> {
        if !self.degraded_fresh_enough(a.file) {
            return Ok(None);
        }
        let (attr, end, data) = {
            let mut disk = self.disk.lock();
            let Some(attr) = disk.attr(a.file) else { return Ok(None) };
            let end = (a.offset + u64::from(a.count)).min(attr.size);
            let len = end.saturating_sub(a.offset) as usize;
            match disk.store.read(a.file, a.offset, len) {
                Some(data) => (attr, end, data),
                None => return Ok(None),
            }
        };
        {
            let mut stats = self.stats.lock();
            stats.degraded_reads += 1;
            stats.served_local += 1;
        }
        self.emit_trace(ProtocolEvent::DegradedServe { client: self.id, fh: a.file.fileid() });
        let res = ReadRes::Ok {
            file_attributes: Some(attr),
            count: data.len() as u32,
            eof: end >= attr.size,
            data,
        };
        encode(&res).map(Some)
    }

    /// Whether `fh`'s cached state is fresh enough for the ladder's
    /// bounded-staleness rung: validated against the server within
    /// `max_staleness`, where the validation point is the newer of the
    /// last successful `GETINV` exchange (which carries every
    /// invalidation the server saw, so it vouches for the whole cache)
    /// and the file's own last forwarded access.
    fn degraded_fresh_enough(&self, fh: Fh3) -> bool {
        let Some(staleness) = self.config.max_staleness else { return false };
        let now = gvfs_netsim::now();
        let validated_ms = self.last_validated_ms.load(Ordering::SeqCst);
        let mut age = Self::now_dur().saturating_sub(Duration::from_millis(validated_ms));
        if validated_ms == 0 {
            // Never polled: only the file's own forwarding history can
            // vouch for it.
            age = Duration::MAX;
        }
        if let Some(t) = self.state.lock().last_forward.get(&fh) {
            age = age.min(now.saturating_since(*t));
        }
        age <= staleness
    }

    /// Serves a GETATTR from cached attributes under the same
    /// bounded-staleness rung as [`ProxyClient::serve_degraded_read`].
    /// Attribute refreshes gate every kernel read (`noac` clients
    /// revalidate per operation), so degraded serving must cover them or
    /// the read path blocks on the dead WAN before the READ is even
    /// issued.
    fn serve_degraded_getattr(&self, fh: Fh3) -> Result<Option<Vec<u8>>, RpcError> {
        if !self.degraded_fresh_enough(fh) {
            return Ok(None);
        }
        let Some(attr) = self.disk.lock().attr(fh) else { return Ok(None) };
        {
            let mut stats = self.stats.lock();
            stats.degraded_reads += 1;
            stats.served_local += 1;
        }
        self.emit_trace(ProtocolEvent::DegradedServe { client: self.id, fh: fh.fileid() });
        encode(&GetattrRes::Ok(attr)).map(Some)
    }

    // --- pipelined read path & read-ahead -----------------------------

    /// Serves a READ from the disk cache, fetching uncached gaps over
    /// the WAN as a concurrent pipelined burst (one round trip per miss
    /// burst instead of one per gap). Returns `Ok(None)` to fall back to
    /// the full-forward path: no cached attributes, or a fetch failed
    /// (the fallback retries like a hard mount and surfaces server
    /// errors verbatim).
    fn read_from_cache(&self, a: &ReadArgs) -> Result<Option<Vec<u8>>, RpcError> {
        for attempt in 0..32 {
            let (attr, end, len, hit) = {
                let mut disk = self.disk.lock();
                let Some(attr) = disk.attr(a.file) else { return Ok(None) };
                let end = (a.offset + u64::from(a.count)).min(attr.size);
                let len = end.saturating_sub(a.offset) as usize;
                let hit = disk.store.read(a.file, a.offset, len);
                (attr, end, len, hit)
            };
            if let Some(data) = hit {
                {
                    let mut stats = self.stats.lock();
                    if attempt == 0 {
                        stats.read_hits += 1;
                        stats.served_local += 1;
                    }
                }
                self.maybe_prefetch(a.file, a.offset, a.count);
                let res = ReadRes::Ok {
                    file_attributes: Some(attr),
                    count: data.len() as u32,
                    eof: end >= attr.size,
                    data,
                };
                return encode(&res).map(Some);
            }
            // The miss may be a fresh quarantine. Attribute it *before*
            // refetching: a lost dirty extent must surface as an I/O
            // error here, not be papered over by origin data.
            self.drain_integrity_events(false);
            if self.state.lock().corrupted.contains(&a.file) {
                return encode(&ReadRes::Fail { status: Nfsstat3::Io, file_attributes: None })
                    .map(Some);
            }
            if attempt == 0 {
                self.stats.lock().read_misses += 1;
            }
            if !self.fetch_missing(a.file, a.offset, len) {
                return Ok(None);
            }
        }
        Ok(None)
    }

    /// Fills the uncached gaps of `[offset, offset+len)`: claims
    /// overlapping in-flight fetches (prefetches pay off here — their
    /// reply is already on the wire, often already arrived), parks on
    /// gaps some other reader is completing, and fans out concurrent
    /// fetches for the rest. Returns whether the caller should re-check
    /// the cache; `false` falls back to the full-forward path.
    fn fetch_missing(&self, fh: Fh3, offset: u64, len: usize) -> bool {
        let mut claimed: Vec<InFlight> = Vec::new();
        let mut own: Vec<Chunk> = Vec::new();
        let mut parked = false;
        {
            let disk = self.disk.lock();
            let gaps = disk.store.missing_ranges(fh, offset, len);
            if gaps.is_empty() {
                return true; // raced to a hit; caller re-serves
            }
            let mut ra = self.readahead.lock();
            let fs = ra.files.entry(fh).or_default();
            for (goff, glen) in gaps {
                let gend = goff + glen as u64;
                let mut pos = goff;
                while pos < gend {
                    // One chunk per block: prefetch entries are
                    // block-granular, so a chunk never spans two.
                    let chunk_end = gend.min(block_of(pos) + BLOCK_SIZE);
                    if let Some(e) = fs
                        .pending
                        .iter_mut()
                        .find(|e| e.chunk.offset <= pos && e.chunk.end() >= chunk_end)
                    {
                        if claimed.iter().any(|c| c.chunk.token == e.chunk.token) {
                            // Already claimed for an earlier chunk.
                        } else if let Some(call) = e.call.take() {
                            claimed.push(InFlight { chunk: e.chunk, call, peer: e.peer.take() });
                        } else {
                            e.waiters.push(gvfs_netsim::current_actor());
                            parked = true;
                        }
                    } else {
                        let chunk = Chunk {
                            token: self.fetch_token.fetch_add(1, Ordering::SeqCst),
                            offset: pos,
                            count: (chunk_end - pos) as u32,
                            speculative: false,
                        };
                        fs.pending.push(PendingFetch::reserve(chunk));
                        own.push(chunk);
                    }
                    pos = chunk_end;
                }
            }
        }
        // Phase 1: every gap fetch on the wire before the first reply is
        // claimed.
        let hint = self.peer_hint(fh);
        let mut peer_sent: Vec<InFlight> = Vec::new();
        let mut sent: Vec<InFlight> = Vec::new();
        let mut ok = true;
        for chunk in own {
            match self.send_chunk(fh, chunk, hint.as_ref()) {
                Some(f) if f.peer.is_some() => peer_sent.push(f),
                Some(f) => sent.push(f),
                None => ok = false,
            }
        }
        // Phase 2: claim replies, earliest sends (claimed prefetches)
        // first. A claimed prefetch that went to a peer verifies exactly
        // like a demand peer fetch, after the demand ones.
        for f in claimed {
            if f.peer.is_some() {
                peer_sent.push(f);
            } else if !matches!(self.land_chunk(fh, f), Landed::Applied) {
                ok = false;
            }
        }
        // Peer replies verify against the origin-attested advert; every
        // chunk a peer could not serve falls back to the origin as one
        // more pipelined burst.
        let mut fallback: Vec<Chunk> = Vec::new();
        for f in peer_sent {
            match self.land_chunk(fh, f) {
                Landed::Applied => {}
                Landed::Lost => ok = false,
                Landed::Fallback(chunk) => fallback.push(chunk),
            }
        }
        for chunk in fallback {
            self.stats.lock().peer_fallbacks += 1;
            self.emit_trace(ProtocolEvent::PeerFallback { client: self.id, fh: fh.fileid() });
            match self.send_chunk(fh, chunk, None) {
                Some(f) => sent.push(f),
                None => ok = false,
            }
        }
        for f in sent {
            if !matches!(self.land_chunk(fh, f), Landed::Applied) {
                ok = false;
            }
        }
        if !ok {
            return false;
        }
        if parked {
            // The completing actor unparks us when its fetch resolves;
            // permits are banked, so a resolution that already happened
            // returns immediately.
            gvfs_netsim::park();
        }
        true
    }

    /// The origin-attested peer advertisement for `fh`, when peer
    /// sourcing is on.
    fn peer_hint(&self, fh: Fh3) -> Option<PeerAdvert> {
        if self.config.peer_read {
            self.peer_hints.lock().get(&fh).cloned()
        } else {
            None
        }
    }

    /// Puts one reserved chunk on the wire — the only place a chunk
    /// fetch is sent. With an advertised live holder in `hint`, the
    /// chunk goes to the lowest-latency peer over the LAN; otherwise
    /// (or when no peer could take it) it goes to the origin as a READ.
    /// A failed origin send drops the reservation, waking its waiters,
    /// and returns `None`.
    fn send_chunk(&self, fh: Fh3, chunk: Chunk, hint: Option<&PeerAdvert>) -> Option<InFlight> {
        if let Some((call, meta)) = hint.and_then(|h| self.peer_transmit(fh, chunk, h)) {
            return Some(InFlight { chunk, call, peer: Some(meta) });
        }
        let sent =
            gvfs_xdr::to_bytes(&ReadArgs { file: fh, offset: chunk.offset, count: chunk.count })
                .map_err(RpcError::from)
                .and_then(|args| {
                    self.wan.send(GVFS_PROXY_PROGRAM, GVFS_VERSION, proc3::READ, args)
                });
        match sent {
            Ok(call) => Some(InFlight { chunk, call, peer: None }),
            Err(_) => {
                self.discard_fetch(fh, chunk.token);
                None
            }
        }
    }

    /// Waits for one chunk fetch and applies its reply; an undecodable
    /// or error origin reply drops the reservation. A peer reply is
    /// verified end to end against the origin-attested advert first: the
    /// echoed change attribute must match, the data must be exactly the
    /// requested length and stay within the attested file size, and the
    /// store's content hash must check out.
    fn land_chunk(&self, fh: Fh3, f: InFlight) -> Landed {
        let chunk = f.chunk;
        let Some(m) = f.peer else {
            let reply = self
                .wan
                .wait_pending(f.call)
                .and_then(|bytes| self.absorb_reply(Some(fh), &bytes))
                .and_then(|inner| decode::<ReadRes>(&inner));
            let applied = match reply {
                Ok(ReadRes::Ok { file_attributes, data, .. }) => {
                    self.apply_chunk(fh, chunk, file_attributes, data)
                }
                _ => {
                    self.discard_fetch(fh, chunk.token);
                    false
                }
            };
            return if applied { Landed::Applied } else { Landed::Lost };
        };
        let reply = m.peer.rpc.wait_pending(f.call).and_then(|bytes| decode::<PeerReadRes>(&bytes));
        let now = Self::now_dur();
        let verified: Option<Vec<u8>> = match reply {
            Ok(PeerReadRes::Ok { change, len: _, hash, data })
                if change == m.change
                    && data.len() == chunk.count as usize
                    && chunk.offset + data.len() as u64 <= m.total_len
                    && content_hash(&data) == hash =>
            {
                m.peer.breaker.on_success(now, now.saturating_sub(m.started));
                Some(data)
            }
            Ok(PeerReadRes::Miss) => {
                // An honest miss is a healthy RPC (no breaker failure)
                // but not a transfer: recording it as a success would
                // hand a consistently-missing peer an attractive EWMA,
                // so the breaker only samples verified transfers.
                None
            }
            Ok(PeerReadRes::Ok { .. }) | Err(_) => {
                // Transport failure, or a garbled or
                // attestation-mismatched reply: the peer is unreachable,
                // stale or misbehaving; its breaker absorbs it.
                m.peer.breaker.on_failure(now);
                None
            }
        };
        self.emit_trace(ProtocolEvent::PeerFetch {
            client: self.id,
            peer: m.peer_id,
            fh: fh.fileid(),
            ok: verified.is_some(),
        });
        match verified {
            // Peers never carry attributes — the reader's own
            // origin-attested attributes stay authoritative.
            Some(data) => {
                if !self.apply_chunk(fh, chunk, None, data) {
                    return Landed::Lost;
                }
                self.stats.lock().peer_hits += 1;
                Landed::Applied
            }
            None => {
                self.stats.lock().peer_misses += 1;
                Landed::Fallback(chunk)
            }
        }
    }

    /// Applies one fetched chunk to the disk cache — unless the
    /// reservation token is gone, which means an invalidation or recall
    /// cancelled the fetch while it was in flight: the bytes (and any
    /// attributes) predate the invalidation and are discarded.
    /// Attributes go through the monotonic `put_attr_prefetch` guard so
    /// a reply racing a delayed write can never regress the file's
    /// own-write mtime.
    fn apply_chunk(&self, fh: Fh3, chunk: Chunk, attr: Option<Fattr3>, data: Vec<u8>) -> bool {
        let mut disk = self.disk.lock();
        let mut ra = self.readahead.lock();
        let Some(entry) = ra.take(fh, chunk.token) else {
            drop(ra);
            drop(disk);
            if chunk.speculative {
                self.stats.lock().prefetch_wasted += 1;
            }
            return false;
        };
        if let Some(attr) = attr {
            disk.put_attr_prefetch(fh, attr);
        }
        disk.store.insert_clean(fh, entry.chunk.offset, data);
        drop(ra);
        drop(disk);
        if chunk.speculative {
            self.stats.lock().prefetch_hits += 1;
        }
        for w in entry.waiters {
            w.unpark();
        }
        true
    }

    /// Drops one reserved fetch (send failure, error reply) and wakes
    /// its waiters so they re-plan.
    fn discard_fetch(&self, fh: Fh3, token: u64) {
        let entry = self.readahead.lock().take(fh, token);
        if let Some(entry) = entry {
            if entry.chunk.speculative {
                self.stats.lock().prefetch_wasted += 1;
            }
            for w in entry.waiters {
                w.unpark();
            }
        }
    }

    // --- peer sourcing (PEERREAD) -------------------------------------

    /// Picks the lowest-EWMA live peer advertised for `fh` and puts one
    /// `PEERREAD` for `chunk` on its LAN link. Breaker-open peers are
    /// skipped for the next-best; a send failure feeds that peer's
    /// breaker and tries the next. `None` means no live peer could take
    /// the send — the caller uses the origin.
    fn peer_transmit(
        &self,
        fh: Fh3,
        chunk: Chunk,
        hint: &PeerAdvert,
    ) -> Option<(PendingCall, PeerMeta)> {
        let now = Self::now_dur();
        let mut candidates: Vec<(Duration, u32, Arc<PeerTransport>)> = Vec::new();
        {
            let peers = self.peers.lock();
            for &holder in &hint.holders {
                if holder == self.id {
                    continue;
                }
                let Some(p) = peers.get(&holder) else { continue };
                if matches!(p.breaker.state(now), BreakerState::Open) {
                    continue;
                }
                candidates.push((p.breaker.ewma_latency(), holder, Arc::clone(p)));
            }
        }
        // Proven peers (a successful transfer behind them) first by
        // EWMA latency; untried peers — whose zero EWMA says nothing —
        // are probes of last resort. The peer id breaks ties so the
        // selection is deterministic.
        candidates.sort_by_key(|(ewma, id, _)| (ewma.is_zero(), *ewma, *id));
        let args = gvfs_xdr::to_bytes(&PeerReadArgs {
            fh,
            offset: chunk.offset,
            count: chunk.count,
            change: hint.change,
        })
        .ok()?;
        for (_, id, peer) in candidates {
            let started = Self::now_dur();
            match peer.rpc.send(
                GVFS_CALLBACK_PROGRAM,
                GVFS_VERSION,
                proc_ext::PEERREAD,
                args.clone(),
            ) {
                Ok(call) => {
                    let meta = PeerMeta {
                        peer,
                        peer_id: id,
                        started,
                        change: hint.change,
                        total_len: hint.len,
                    };
                    return Some((call, meta));
                }
                Err(_) => peer.breaker.on_failure(Self::now_dur()),
            }
        }
        // The advert named live holders but none could carry the fetch
        // (breaker open, unregistered, or the send itself failed — e.g.
        // a partitioned LAN link errors at transmit time). The caller
        // goes to the origin, and that is a peer fallback just as much
        // as a post-flight timeout.
        if hint.holders.iter().any(|&h| h != self.id) {
            self.stats.lock().peer_fallbacks += 1;
            self.emit_trace(ProtocolEvent::PeerFallback { client: self.id, fh: fh.fileid() });
        }
        None
    }

    /// Serves one `PEERREAD` from this client's clean cache. The block
    /// is served only while every origin attestation holds: cached
    /// attributes present (an invalidation or recall drops them, so a
    /// condemned block is never served), the change attribute matching
    /// the requester's origin-attested value, no local dirty bytes, and
    /// the range fully cached. Anything else is an honest `Miss` — the
    /// requester falls back to the origin.
    fn handle_peerread(&self, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        let a: PeerReadArgs = decode(args)?;
        let res = if self.break_peerread {
            // Chaos self-test fault: serve raw store content with the
            // requester's attestation echoed back. After an invalidation
            // the attributes are gone but the condemned bytes linger in
            // the store until revalidation — exactly the stale serve the
            // oracle must convict.
            let data = self.disk.lock().store.read(a.fh, a.offset, a.count as usize);
            match data {
                Some(data) => PeerReadRes::Ok {
                    change: a.change,
                    len: a.offset + data.len() as u64,
                    hash: content_hash(&data),
                    data,
                },
                None => PeerReadRes::Miss,
            }
        } else {
            let mut disk = self.disk.lock();
            let attested = disk.attr(a.fh).filter(|attr| change_of(attr.mtime) == a.change);
            let served = attested.and_then(|attr| {
                if disk.store.has_dirty(a.fh) {
                    return None;
                }
                let end = (a.offset + u64::from(a.count)).min(attr.size);
                let len = end.saturating_sub(a.offset) as usize;
                if len != a.count as usize {
                    // The requester clamps against the same attested
                    // size; a disagreement means a different version.
                    return None;
                }
                disk.store.read(a.fh, a.offset, len).map(|data| (attr.size, data))
            });
            match served {
                Some((size, data)) => {
                    PeerReadRes::Ok { change: a.change, len: size, hash: content_hash(&data), data }
                }
                None => PeerReadRes::Miss,
            }
        };
        if let PeerReadRes::Ok { data, .. } = &res {
            self.stats.lock().peer_bytes_served += data.len() as u64;
            self.emit_trace(ProtocolEvent::PeerServe {
                client: self.id,
                fh: a.fh.fileid(),
                bytes: data.len() as u32,
            });
        }
        encode(&res)
    }

    /// Feeds the sequential-access detector with one served read and,
    /// when a run of `trigger` sequential reads is up, speculatively
    /// pipelines the next `window` uncached block-aligned chunks onto
    /// the wire. Nobody waits on them: a later demand read claims the
    /// pending reply (usually already arrived — the WAN round trip
    /// overlapped the application's compute) or parks on it.
    fn maybe_prefetch(&self, fh: Fh3, offset: u64, count: u32) {
        let mut plan: Vec<Chunk> = Vec::new();
        {
            let disk = self.disk.lock();
            let Some(attr) = disk.attr(fh) else { return };
            let end = (offset + u64::from(count)).min(attr.size);
            let (window, trigger) =
                (self.config.readahead_window, self.config.readahead_trigger.max(1));
            let mut ra = self.readahead.lock();
            let fs = ra.files.entry(fh).or_default();
            if offset == fs.next_expected || (offset < fs.next_expected && end > fs.next_expected) {
                fs.run = fs.run.saturating_add(1);
            } else {
                fs.run = 1;
            }
            fs.next_expected = end;
            if window == 0 || fs.run < trigger {
                return;
            }
            let first = block_of(end);
            for i in 0..window {
                let b = first + i as u64 * BLOCK_SIZE;
                if b >= attr.size {
                    break;
                }
                let blen = BLOCK_SIZE.min(attr.size - b) as usize;
                let blocked = fs
                    .pending
                    .iter()
                    .any(|e| e.chunk.offset < b + blen as u64 && e.chunk.end() > b);
                if blocked || disk.store.missing_ranges(fh, b, blen).is_empty() {
                    continue;
                }
                let chunk = Chunk {
                    token: self.fetch_token.fetch_add(1, Ordering::SeqCst),
                    offset: b,
                    count: blen as u32,
                    speculative: true,
                };
                fs.pending.push(PendingFetch::reserve(chunk));
                plan.push(chunk);
            }
        }
        // Read-ahead pipelines over peers too: with an advertised live
        // holder, speculative blocks go out as LAN `PEERREAD`s; the
        // claimant verifies them like any peer fetch.
        let hint = self.peer_hint(fh);
        let mut issued = 0u64;
        for chunk in plan {
            let Some(f) = self.send_chunk(fh, chunk, hint.as_ref()) else { continue };
            let mut ra = self.readahead.lock();
            let entry = ra
                .files
                .get_mut(&fh)
                .and_then(|fs| fs.pending.iter_mut().find(|e| e.chunk.token == chunk.token));
            if let Some(e) = entry {
                e.call = Some(f.call);
                e.peer = f.peer;
                issued += 1;
            } else {
                // Cancelled between reservation and send; dropping the
                // call abandons the reply.
                drop(ra);
                self.stats.lock().prefetch_wasted += 1;
            }
        }
        if issued > 0 {
            self.stats.lock().prefetch_issued += issued;
        }
    }

    /// Cancels every in-flight fetch for `fh` and disarms its detector.
    /// Must be called under the same disk-lock hold that invalidates the
    /// file so a stale reply can never apply after the invalidation.
    fn cancel_prefetch(&self, fh: Fh3) {
        let entries = {
            let mut ra = self.readahead.lock();
            match ra.files.get_mut(&fh) {
                Some(fs) => {
                    fs.run = 0;
                    std::mem::take(&mut fs.pending)
                }
                None => return,
            }
        };
        self.retire_cancelled(entries);
    }

    /// Cancels every in-flight fetch of every file (force invalidation,
    /// RECOVER, crash reconciliation).
    fn cancel_all_prefetch(&self) {
        let mut all = Vec::new();
        {
            let mut ra = self.readahead.lock();
            for fs in ra.files.values_mut() {
                fs.run = 0;
                all.append(&mut fs.pending);
            }
        }
        self.retire_cancelled(all);
    }

    fn retire_cancelled(&self, entries: Vec<PendingFetch>) {
        let mut wasted = 0u64;
        let mut waiters = Vec::new();
        for e in entries {
            // Dropping an unclaimed call abandons its reply at the
            // transport. Claimed calls are discarded by their claimant,
            // which finds the token gone and counts the waste itself.
            if e.chunk.speculative && e.call.is_some() {
                wasted += 1;
            }
            waiters.extend(e.waiters);
        }
        if wasted > 0 {
            self.stats.lock().prefetch_wasted += wasted;
        }
        for w in waiters {
            w.unpark();
        }
    }

    fn op_write(&self, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        let a: WriteArgs = decode(args)?;
        if self.state.lock().corrupted.contains(&a.file) {
            return encode(&WriteRes::Fail { status: Nfsstat3::Io, file_wcc: WccData::default() });
        }
        let wb_allowed = self.config.write_back
            && match self.config.model {
                ConsistencyModel::Passthrough => false,
                ConsistencyModel::InvalidationPolling { .. } => true,
                ConsistencyModel::DelegationCallback(_) => {
                    self.state.lock().delegations.get(&a.file) == Some(&DelegationGrant::Write)
                }
            }
            && self.disk.lock().attr(a.file).is_some();
        if wb_allowed {
            let mut disk = self.disk.lock();
            // Re-checked under one lock hold: the attribute could have
            // been evicted since the wb_allowed probe. If it is gone the
            // write simply forwards.
            if let Some(mut attr) = disk.attr(a.file) {
                {
                    let mut st = self.state.lock();
                    st.wb_base.entry(a.file).or_insert(attr.mtime);
                }
                disk.store.write_dirty(a.file, a.offset, a.data.clone());
                let before =
                    gvfs_nfs3::WccAttr { size: attr.size, mtime: attr.mtime, ctime: attr.ctime };
                attr.size = attr.size.max(a.offset + a.data.len() as u64);
                attr.used = attr.size;
                let now = gvfs_netsim::now();
                attr.mtime = NfsTime3 {
                    seconds: (now.as_nanos() / 1_000_000_000) as u32,
                    nseconds: (now.as_nanos() % 1_000_000_000) as u32,
                };
                attr.ctime = attr.mtime;
                disk.put_attr_own_write(a.file, attr);
                drop(disk);
                self.served();
                return encode(&WriteRes::Ok {
                    file_wcc: WccData { before: Some(before), after: Some(attr) },
                    count: a.data.len() as u32,
                    committed: StableHow::FileSync,
                    verf: 1,
                });
            }
        }
        let reply = self.forward(proc3::WRITE, args.to_vec(), Some(a.file))?;
        if let Ok(WriteRes::Ok { file_wcc, .. }) = gvfs_xdr::from_bytes::<WriteRes>(&reply) {
            if self.config.model.caches() {
                let mut disk = self.disk.lock();
                if let Some(attr) = file_wcc.after {
                    disk.put_attr_own_write(a.file, attr);
                }
                disk.store.insert_clean(a.file, a.offset, a.data.clone());
            }
        }
        Ok(reply)
    }

    fn op_create_like(&self, procedure: u32, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        // CREATE / MKDIR / SYMLINK share the NewObjRes shape.
        let (dir, name) = match procedure {
            proc3::CREATE => {
                let a: CreateArgs = decode(args)?;
                (a.dir, a.name)
            }
            proc3::MKDIR => {
                let a: MkdirArgs = decode(args)?;
                (a.dir, a.name)
            }
            proc3::SYMLINK => {
                let a: SymlinkArgs = decode(args)?;
                (a.dir, a.name)
            }
            _ => unreachable!("caller routes only create-like procedures"),
        };
        let reply = self.forward(procedure, args.to_vec(), Some(dir))?;
        if let Ok(gvfs_nfs3::NewObjRes::Ok { obj, obj_attributes, dir_wcc }) =
            gvfs_xdr::from_bytes::<gvfs_nfs3::NewObjRes>(&reply)
        {
            if self.config.model.caches() {
                let mut disk = self.disk.lock();
                if let (Some(fh), Some(attr)) = (obj, obj_attributes) {
                    disk.put_attr(fh, attr);
                    disk.put_lookup(dir, &name, fh);
                }
                if let Some(attr) = dir_wcc.after {
                    disk.put_attr_own_write(dir, attr);
                }
            }
        }
        Ok(reply)
    }

    fn op_remove_like(&self, procedure: u32, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        let a: DirOpArgs = decode(args)?;
        let reply = self.forward(procedure, args.to_vec(), Some(a.dir))?;
        if let Ok(res) = gvfs_xdr::from_bytes::<gvfs_nfs3::DirOpRes>(&reply) {
            if self.config.model.caches() && res.status.is_ok() {
                let mut disk = self.disk.lock();
                if let Some(Some(gone)) = disk.lookup(a.dir, &a.name) {
                    disk.forget_file(gone);
                    self.cancel_prefetch(gone);
                    self.drop_peer_hint(gone);
                    {
                        let mut st = self.state.lock();
                        st.wb_base.remove(&gone);
                        st.corrupted.remove(&gone);
                        st.delegations.remove(&gone);
                    }
                }
                disk.put_negative_lookup(a.dir, &a.name);
                if let Some(attr) = res.dir_wcc.after {
                    disk.put_attr_own_write(a.dir, attr);
                }
            }
        }
        Ok(reply)
    }

    fn op_rename(&self, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        let a: RenameArgs = decode(args)?;
        let reply = self.forward(proc3::RENAME, args.to_vec(), Some(a.from_dir))?;
        if let Ok(res) = gvfs_xdr::from_bytes::<gvfs_nfs3::RenameRes>(&reply) {
            if self.config.model.caches() && res.status.is_ok() {
                let mut disk = self.disk.lock();
                let moved = disk.lookup(a.from_dir, &a.from_name).flatten();
                disk.put_negative_lookup(a.from_dir, &a.from_name);
                if let Some(fh) = moved {
                    disk.put_lookup(a.to_dir, &a.to_name, fh);
                }
                if let Some(attr) = res.fromdir_wcc.after {
                    disk.put_attr_own_write(a.from_dir, attr);
                }
                if let Some(attr) = res.todir_wcc.after {
                    disk.put_attr_own_write(a.to_dir, attr);
                }
            }
        }
        Ok(reply)
    }

    fn op_link(&self, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        let a: LinkArgs = decode(args)?;
        let reply = self.forward(proc3::LINK, args.to_vec(), Some(a.dir))?;
        if let Ok(res) = gvfs_xdr::from_bytes::<gvfs_nfs3::LinkRes>(&reply) {
            if self.config.model.caches() && res.status.is_ok() {
                let mut disk = self.disk.lock();
                disk.put_lookup(a.dir, &a.name, a.file);
                if let Some(attr) = res.file_attributes {
                    disk.put_attr(a.file, attr);
                }
                if let Some(attr) = res.linkdir_wcc.after {
                    disk.put_attr_own_write(a.dir, attr);
                }
            }
        }
        Ok(reply)
    }

    fn op_setattr(&self, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        let a: gvfs_nfs3::SetattrArgs = decode(args)?;
        let reply = self.forward(proc3::SETATTR, args.to_vec(), Some(a.object))?;
        if let Ok(res) = gvfs_xdr::from_bytes::<SetattrRes>(&reply) {
            if self.config.model.caches() && res.status.is_ok() {
                if let Some(attr) = res.obj_wcc.after {
                    self.disk.lock().put_attr_own_write(a.object, attr);
                }
            }
        }
        Ok(reply)
    }

    fn op_readdir(&self, procedure: u32, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        let dir = if procedure == proc3::READDIR {
            decode::<gvfs_nfs3::ReaddirArgs>(args)?.dir
        } else {
            decode::<gvfs_nfs3::ReaddirplusArgs>(args)?.dir
        };
        let reply = self.forward(procedure, args.to_vec(), Some(dir))?;
        if self.config.model.caches() {
            if procedure == proc3::READDIR {
                if let Ok(ReaddirRes::Ok { dir_attributes: Some(attr), .. }) =
                    gvfs_xdr::from_bytes::<ReaddirRes>(&reply)
                {
                    self.disk.lock().put_attr(dir, attr);
                }
            } else if let Ok(gvfs_nfs3::ReaddirplusRes::Ok { dir_attributes, entries, .. }) =
                gvfs_xdr::from_bytes::<gvfs_nfs3::ReaddirplusRes>(&reply)
            {
                let mut disk = self.disk.lock();
                if let Some(attr) = dir_attributes {
                    disk.put_attr(dir, attr);
                }
                for e in &entries {
                    let fh = e.name_handle.unwrap_or(Fh3::from_fileid(e.fileid));
                    disk.put_lookup(dir, &e.name, fh);
                    if let Some(attr) = e.name_attributes {
                        disk.put_attr(fh, attr);
                    }
                }
            }
        }
        Ok(reply)
    }

    // --- polling (§4.2) ----------------------------------------------

    /// Performs one `GETINV` exchange (including any `poll-again`
    /// continuation) and applies the invalidations. Returns the number
    /// of invalidation handles applied, or `None` if the server was
    /// unreachable (soft state: just poll again next window).
    pub fn poll_once(&self) -> Option<usize> {
        let mut applied = 0;
        loop {
            let last = *self.poll_ts.lock();
            let args = gvfs_xdr::to_bytes(&GetinvArgs { last_timestamp: last }).ok()?;
            let started = Self::now_dur();
            let bytes =
                match self.wan.call(GVFS_PROXY_PROGRAM, GVFS_VERSION, proc_ext::GETINV, args) {
                    Ok(bytes) => {
                        let now = Self::now_dur();
                        self.breaker.on_success(now, now.saturating_sub(started));
                        bytes
                    }
                    Err(e) => {
                        self.note_wan_failure(&e);
                        return None;
                    }
                };
            let res: GetinvRes = gvfs_xdr::from_bytes(&bytes).ok()?;
            // A successful exchange validates the whole cache as of its
            // send time: the reply carries every invalidation since the
            // previous poll, so anything still cached is provably
            // current up to `started`. This is what the degradation
            // ladder's bounded-staleness rung measures age against.
            let started_ms = u64::try_from(started.as_millis()).unwrap_or(u64::MAX);
            self.last_validated_ms.fetch_max(started_ms, Ordering::SeqCst);
            *self.poll_ts.lock() = Some(res.timestamp);
            self.apply_drain(&res);
            applied += res.handles.len();
            if !res.poll_again {
                self.settle_disk();
                return Some(applied);
            }
        }
    }

    /// Runs the polling loop until [`ProxyClient::shutdown`]. Spawn this
    /// on its own actor.
    pub fn run_poller(self: &Arc<Self>, period: Duration, backoff_max: Option<Duration>) {
        *self.poller.lock() = Some(gvfs_netsim::current_actor());
        let mut window = period;
        loop {
            gvfs_netsim::park_timeout(window);
            if self.stopped.load(Ordering::SeqCst) {
                return;
            }
            let applied = self.poll_once();
            window = match (backoff_max, applied) {
                // Exponential back-off while quiet — and while the server
                // is unreachable, so a partition doesn't turn the poller
                // into a hot loop of doomed GETINVs.
                (Some(max), Some(0) | None) => (window * 2).min(max),
                (Some(_), Some(_)) => period,
                (None, _) => period,
            };
        }
    }

    // --- write-back flushing ------------------------------------------

    /// Writes back the dirty segments of one block over the WAN and
    /// marks them clean.
    fn flush_block(&self, fh: Fh3, block_offset: u64) {
        let segments: Vec<(u64, Vec<u8>)> =
            self.disk.lock().store.dirty_in_block(fh, block_offset, BLOCK_SIZE);
        if segments.is_empty() {
            return;
        }
        for (offset, data) in segments {
            let count = data.len() as u32;
            let Ok(args) = gvfs_xdr::to_bytes(&WriteArgs {
                file: fh,
                offset,
                count,
                stable: StableHow::FileSync,
                data,
            }) else {
                // Leave the segment dirty; a later flush retries it.
                return;
            };
            // Failures leave the segment dirty for a later retry.
            if self.forward(proc3::WRITE, args, Some(fh)).is_err() {
                return;
            }
        }
        let mut disk = self.disk.lock();
        disk.store.clean_range(fh, block_offset, BLOCK_SIZE);
        if !disk.store.has_dirty(fh) {
            self.state.lock().wb_base.remove(&fh);
        }
    }

    /// Writes back the dirty segments of the given blocks as one
    /// pipelined batch: every WRITE goes on the wire before the first
    /// reply is claimed, so a trickle of N blocks costs N serializations
    /// plus one WAN round trip instead of N round trips. Blocks whose
    /// WRITEs fail stay dirty and are retried through the serial
    /// (hard-mount) path.
    fn flush_blocks(&self, fh: Fh3, blocks: &[u64]) {
        if blocks.is_empty() {
            return;
        }
        if !self.config.pipeline_writeback {
            for &block in blocks {
                self.flush_block(fh, block);
            }
            return;
        }
        // Phase 1: every segment of every block on the wire.
        let mut in_flight = Vec::new();
        let mut failed: HashSet<u64> = HashSet::new();
        for &block in blocks {
            let segments: Vec<(u64, Vec<u8>)> =
                self.disk.lock().store.dirty_in_block(fh, block, BLOCK_SIZE);
            for (offset, data) in segments {
                let count = data.len() as u32;
                let Ok(args) = gvfs_xdr::to_bytes(&WriteArgs {
                    file: fh,
                    offset,
                    count,
                    stable: StableHow::FileSync,
                    data,
                }) else {
                    failed.insert(block);
                    continue;
                };
                match self.wan.send(GVFS_PROXY_PROGRAM, GVFS_VERSION, proc3::WRITE, args) {
                    Ok(call) => in_flight.push((block, call)),
                    Err(_) => {
                        failed.insert(block);
                    }
                }
            }
        }
        // Phase 2: claim replies (in send order) and apply piggybacked
        // grants.
        for (block, call) in in_flight {
            match self.wan.wait_pending(call) {
                Ok(bytes) => {
                    if self.absorb_reply(Some(fh), &bytes).is_err() {
                        failed.insert(block);
                    }
                }
                Err(_) => {
                    failed.insert(block);
                }
            }
        }
        // Mark the fully-acknowledged blocks clean.
        {
            let mut disk = self.disk.lock();
            for &block in blocks {
                if !failed.contains(&block) {
                    disk.store.clean_range(fh, block, BLOCK_SIZE);
                }
            }
            if !disk.store.has_dirty(fh) {
                self.state.lock().wb_base.remove(&fh);
            }
        }
        // Transport failures retry serially; the serial path waits out
        // an outage like a hard mount.
        for &block in blocks {
            if failed.contains(&block) {
                self.flush_block(fh, block);
            }
        }
    }

    /// Flushes every dirty block of every file (unmount/shutdown path),
    /// one pipelined batch per file.
    pub fn flush_all(&self) {
        let files = self.disk.lock().store.dirty_files();
        for fh in files {
            let blocks = self.disk.lock().store.dirty_blocks(fh, BLOCK_SIZE);
            self.flush_blocks(fh, &blocks);
        }
    }

    /// Drains the flush queue, grouping queued blocks into one pipelined
    /// batch per file.
    fn drain_flush_queue(&self) {
        loop {
            let mut batch: Vec<(Fh3, u64)> = Vec::new();
            {
                let mut q = self.flush_queue.lock();
                while let Some(item) = q.pop_front() {
                    batch.push(item);
                }
            }
            if batch.is_empty() {
                return;
            }
            let mut by_file: Vec<(Fh3, Vec<u64>)> = Vec::new();
            for (fh, block) in batch {
                match by_file.iter_mut().find(|(f, _)| *f == fh) {
                    Some((_, blocks)) => blocks.push(block),
                    None => by_file.push((fh, vec![block])),
                }
            }
            for (fh, blocks) in by_file {
                self.flush_blocks(fh, &blocks);
            }
            self.settle_disk();
        }
    }

    /// Runs the background flusher until shutdown: parked until a
    /// partial write-back queues blocks. Spawn this on its own actor.
    pub fn run_flusher(self: &Arc<Self>) {
        *self.flusher.lock() = Some(gvfs_netsim::current_actor());
        loop {
            gvfs_netsim::park();
            let stopping = self.stopped.load(Ordering::SeqCst);
            // Drain whatever is queued (everything, when stopping).
            self.drain_flush_queue();
            if stopping {
                return;
            }
        }
    }

    // --- WAN health supervision -----------------------------------------

    /// Runs the WAN health supervisor until shutdown: while the breaker
    /// is degraded it paces half-open probes (a `GETINV`, which doubles
    /// as a whole-cache validation point on success), and after a heal
    /// it re-promotes the session to full delegation semantics. Spawn
    /// this on its own actor (the session middleware does, for
    /// delegation-model sessions with the ladder enabled).
    pub fn run_supervisor(self: &Arc<Self>) {
        const TICK: Duration = Duration::from_secs(1);
        *self.supervisor.lock() = Some(gvfs_netsim::current_actor());
        loop {
            gvfs_netsim::park_timeout(TICK);
            if self.stopped.load(Ordering::SeqCst) {
                return;
            }
            match self.breaker.state(Self::now_dur()) {
                // Open: the cooldown has not elapsed; wait it out.
                BreakerState::Open => {}
                // Probe. Success closes the breaker and advances the
                // validation point; failure re-opens it with a doubled
                // cooldown. Either way `poll_once` feeds the breaker.
                BreakerState::HalfOpen => {
                    self.poll_once();
                }
                BreakerState::Closed => {
                    if self.needs_resync.swap(false, Ordering::SeqCst) {
                        self.repromote();
                    }
                }
            }
        }
    }

    /// Re-promotes the session after an outage healed. The delegations
    /// held before the outage may have been revoked server-side (lease
    /// expiry, short-circuited recalls) without this client hearing the
    /// recalls, so they are dropped wholesale and re-acquired through
    /// normal forwarding; dirty write-back data is reconciled against
    /// the server under the crash-recovery rules — replayed only when
    /// the server copy is provably unchanged (§4.3.4). Unlike a crash,
    /// a conflicting change does not poison the file: the stale dirty
    /// data is dropped and fresh data refetched, so applications see a
    /// consistent (if late) view instead of a permanent I/O error.
    fn repromote(&self) {
        // Drain the invalidation stream first: every file the server
        // saw modified during the outage loses its cached attributes,
        // so post-heal reads revalidate instead of serving outage-stale
        // data. A failed poll means the heal was illusory — retry on a
        // later tick.
        if self.poll_once().is_none() {
            self.needs_resync.store(true, Ordering::SeqCst);
            return;
        }
        {
            let mut st = self.state.lock();
            st.delegations.clear();
            st.noncacheable.clear();
        }
        let discarded = self.reconcile_dirty(false);
        self.stats.lock().repromotions += 1;
        self.emit_trace(ProtocolEvent::Repromote {
            client: self.id,
            discarded: discarded.len() as u32,
        });
    }

    /// Stops the poller, flusher, supervisor, and scrubber actors.
    pub fn shutdown(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        if let Some(h) = self.poller.lock().clone() {
            h.unpark();
        }
        if let Some(h) = self.flusher.lock().clone() {
            h.unpark();
        }
        if let Some(h) = self.supervisor.lock().clone() {
            h.unpark();
        }
        if let Some(h) = self.scrubber.lock().clone() {
            h.unpark();
        }
    }

    // --- callbacks (§4.3) ----------------------------------------------

    fn handle_callback(&self, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        let a: CallbackArgs = decode(args)?;
        self.stats.lock().callbacks += 1;
        self.emit_trace(ProtocolEvent::RecallRecv {
            client: self.id,
            fh: a.fh.fileid(),
            kind: match a.kind {
                CallbackKind::RecallRead => TraceKind::Read,
                CallbackKind::RecallWrite => TraceKind::Write,
            },
        });
        self.state.lock().delegations.remove(&a.fh);
        {
            let mut disk = self.disk.lock();
            self.invalidate_handle(&mut disk, a.fh);
        }
        if matches!(a.kind, CallbackKind::RecallRead) {
            return encode(&CallbackRes::default());
        }
        let blocks = self.disk.lock().store.dirty_blocks(a.fh, BLOCK_SIZE);
        if blocks.is_empty() {
            return encode(&CallbackRes::default());
        }
        let threshold = self.deleg_config().partial_writeback_threshold;
        if blocks.len() <= threshold {
            // Small enough: flush inline (pipelined) before replying.
            self.flush_blocks(a.fh, &blocks);
            return encode(&CallbackRes::default());
        }
        // Partial write-back: submit the contended block immediately,
        // report the rest, trickle them in the background (§4.3.2). A
        // metadata-only recall (no requested block) flushes the highest
        // block so the server's file size becomes correct at once.
        let mut remaining = blocks;
        let wanted = a.requested_offset.map(block_of).or_else(|| remaining.last().copied());
        if let Some(wanted) = wanted {
            if let Some(pos) = remaining.iter().position(|b| *b == wanted) {
                remaining.remove(pos);
                self.flush_block(a.fh, wanted);
            }
        }
        {
            let mut q = self.flush_queue.lock();
            for block in &remaining {
                q.push_back((a.fh, *block));
            }
        }
        if let Some(h) = self.flusher.lock().clone() {
            h.unpark();
        }
        encode(&CallbackRes { pending_blocks: remaining })
    }

    fn handle_recover(&self) -> Result<Vec<u8>, RpcError> {
        // Cache-wide callback: invalidate all attributes and report the
        // files we hold dirty so the server can rebuild its table.
        let mut disk = self.disk.lock();
        self.invalidate_everything(&mut disk);
        let dirty_files = disk.store.dirty_files();
        drop(disk);
        self.state.lock().delegations.clear();
        encode(&RecoverRes { dirty_files })
    }

    // --- crash recovery (§4.3.4, client side) ---------------------------

    /// Reconciles after a proxy-client crash: the disk cache survived,
    /// volatile state did not. All attributes are invalidated; for each
    /// file with dirty data, one block is written back to try to
    /// reacquire the delegation — unless the server-side file changed
    /// during the crash, in which case the dirty data is discarded as
    /// corrupted and subsequent application access reports an I/O error.
    ///
    /// Returns the handles found corrupted.
    pub fn crash_recover(&self) -> Vec<Fh3> {
        self.emit_trace(ProtocolEvent::ClientCrash { client: self.id });
        self.crash_recover_inner()
    }

    /// Reconciles after a whole-machine crash and restart: the block
    /// store reopens from its backing disk first — a persistent store
    /// replays its index and discards entries whose dirty WAL records
    /// are torn; the in-memory store comes back empty — and then the
    /// usual crash recovery of [`ProxyClient::crash_recover`] runs over
    /// whatever dirty data provably survived.
    pub fn crash_restart(&self) -> Vec<Fh3> {
        self.emit_trace(ProtocolEvent::ClientCrash { client: self.id });
        self.disk.lock().store.crash_reopen();
        // Replaying the on-disk index is real I/O: charge it to the
        // restarting actor's clock.
        self.settle_disk();
        self.crash_recover_inner()
    }

    fn crash_recover_inner(&self) -> Vec<Fh3> {
        {
            let mut st = self.state.lock();
            st.delegations.clear();
            st.noncacheable.clear();
            st.last_forward.clear();
        }
        *self.poll_ts.lock() = None; // next GETINV bootstraps with null
        self.last_validated_ms.store(0, Ordering::SeqCst);
        {
            let mut disk = self.disk.lock();
            self.invalidate_everything(&mut disk);
        }
        self.reconcile_dirty(true)
    }

    /// Reconciles every dirty file against the server (§4.3.4): the
    /// dirty data is replayed only when the server copy is provably
    /// unchanged since it accumulated (`wb_base` mtime match) —
    /// otherwise it is discarded, with `poison` deciding whether the
    /// file is additionally marked corrupted (crash recovery) or just
    /// dropped for refetch (post-heal re-promotion). Returns the
    /// discarded handles.
    fn reconcile_dirty(&self, poison: bool) -> Vec<Fh3> {
        let dirty = self.disk.lock().store.dirty_files();
        let mut discarded = Vec::new();
        for fh in dirty {
            let base = self.state.lock().wb_base.get(&fh).copied();
            let current = gvfs_xdr::to_bytes(&GetattrArgs { object: fh })
                .ok()
                .and_then(|args| self.forward(proc3::GETATTR, args, Some(fh)).ok())
                .and_then(|bytes| gvfs_xdr::from_bytes::<GetattrRes>(&bytes).ok());
            let unchanged = matches!(
                (current, base),
                (Some(GetattrRes::Ok(attr)), Some(base_mtime)) if attr.mtime == base_mtime
            );
            if unchanged {
                // Write back one block to reacquire the delegation.
                let first = self.disk.lock().store.dirty_blocks(fh, BLOCK_SIZE).first().copied();
                if let Some(block) = first {
                    self.flush_block(fh, block);
                }
                // Remaining blocks flush lazily (queue to flusher).
                let rest = self.disk.lock().store.dirty_blocks(fh, BLOCK_SIZE);
                if !rest.is_empty() {
                    let mut q = self.flush_queue.lock();
                    for block in rest {
                        q.push_back((fh, block));
                    }
                    drop(q);
                    if let Some(h) = self.flusher.lock().clone() {
                        h.unpark();
                    }
                }
            } else {
                let mut disk = self.disk.lock();
                disk.forget_file(fh);
                drop(disk);
                let mut st = self.state.lock();
                st.wb_base.remove(&fh);
                if poison {
                    st.corrupted.insert(fh);
                }
                drop(st);
                let mut stats = self.stats.lock();
                if poison {
                    stats.corrupted_discards += 1;
                } else {
                    stats.stale_discards += 1;
                }
                drop(stats);
                discarded.push(fh);
            }
        }
        discarded
    }
}

impl RpcService for ProxyClient {
    fn program(&self) -> u32 {
        gvfs_nfs3::NFS_PROGRAM
    }
    fn version(&self) -> u32 {
        gvfs_nfs3::NFS_V3
    }
    fn call(&self, procedure: u32, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        let result = match procedure {
            proc3::NULL => Ok(Vec::new()),
            proc3::GETATTR => self.op_getattr(args),
            proc3::LOOKUP => self.op_lookup(args),
            proc3::READ => self.op_read(args),
            proc3::WRITE => self.op_write(args),
            proc3::CREATE | proc3::MKDIR | proc3::SYMLINK => self.op_create_like(procedure, args),
            proc3::REMOVE | proc3::RMDIR => self.op_remove_like(procedure, args),
            proc3::RENAME => self.op_rename(args),
            proc3::LINK => self.op_link(args),
            proc3::SETATTR => self.op_setattr(args),
            proc3::READDIR | proc3::READDIRPLUS => self.op_readdir(procedure, args),
            proc3::ACCESS | proc3::READLINK | proc3::FSSTAT | proc3::FSINFO | proc3::COMMIT => {
                self.forward(procedure, args.to_vec(), None)
            }
            p => Err(RpcError::ProcedureUnavailable {
                program: gvfs_nfs3::NFS_PROGRAM,
                procedure: p,
            }),
        };
        // Pay for any block-store I/O this call performed, with no
        // locks held, so a persistent store's seek/throughput costs
        // land on this actor's virtual clock deterministically.
        self.settle_disk();
        result
    }
}

/// The callback service facade: the same proxy client, addressable as
/// the callback RPC program.
///
/// It holds the client weakly. The proxy server and the client's peers
/// reach this service through transports they own, while the client
/// itself holds transports back to them; a strong reference here would
/// close those loops into reference cycles and no finished session
/// could ever be freed. A call that arrives after the client is gone
/// finds the program unavailable, like a dead machine.
#[derive(Debug, Clone)]
pub struct CallbackService(pub Weak<ProxyClient>);

impl RpcService for CallbackService {
    fn program(&self) -> u32 {
        crate::protocol::GVFS_CALLBACK_PROGRAM
    }
    fn version(&self) -> u32 {
        GVFS_VERSION
    }
    fn call(&self, procedure: u32, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        let program = crate::protocol::GVFS_CALLBACK_PROGRAM;
        let Some(client) = self.0.upgrade() else {
            return Err(RpcError::ProgramUnavailable { program });
        };
        let result = match procedure {
            proc_ext::CALLBACK => client.handle_callback(args),
            proc_ext::RECOVER => client.handle_recover(),
            proc_ext::PEERREAD => client.handle_peerread(args),
            p => Err(RpcError::ProcedureUnavailable { program, procedure: p }),
        };
        client.settle_disk();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::retry_jitter;
    use std::time::Duration;

    #[test]
    fn retry_jitter_stays_under_half_the_delay_and_reproduces() {
        for delay in [Duration::from_secs(1), Duration::from_secs(8), Duration::from_secs(60)] {
            for client in 0..8u32 {
                for attempt in 1..=8u32 {
                    let j = retry_jitter(client, attempt, delay);
                    assert!(j < delay / 2, "jitter {j:?} must stay in [0, {delay:?}/2)");
                    assert_eq!(
                        j,
                        retry_jitter(client, attempt, delay),
                        "the schedule must be reproducible for the determinism contract"
                    );
                }
            }
        }
    }

    /// Clients cut by one shared partition back off in lockstep without
    /// jitter, so the heal would be greeted by a synchronized retry
    /// storm. The per-client hash must spread them: no two clients may
    /// share a retransmission schedule, and each round's offsets must
    /// actually scatter instead of clustering on a few slots.
    #[test]
    fn retry_jitter_decorrelates_parallel_clients() {
        let delay = Duration::from_secs(8);
        let schedules: Vec<Vec<Duration>> = (0..16u32)
            .map(|client| (1..=6u32).map(|a| retry_jitter(client, a, delay)).collect())
            .collect();
        for i in 0..schedules.len() {
            for j in i + 1..schedules.len() {
                assert_ne!(
                    schedules[i], schedules[j],
                    "clients {i} and {j} would retransmit in lockstep after a heal"
                );
            }
        }
        for attempt in 0..6 {
            let mut offsets: Vec<Duration> = schedules.iter().map(|s| s[attempt]).collect();
            offsets.sort();
            offsets.dedup();
            assert!(
                offsets.len() >= schedules.len() / 2,
                "round {attempt} clusters on {} slot(s) across {} clients",
                offsets.len(),
                schedules.len()
            );
        }
    }
}
