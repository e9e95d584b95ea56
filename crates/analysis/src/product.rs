//! Composed product-model checking: delegation × invalidation ×
//! breaker × degradation ladder × lease.
//!
//! The per-machine models in [`crate::model`] prove each protocol piece
//! refines its own spec, but the session-resilience bugs worth losing
//! sleep over live in the *composition*: a lease revocation racing a
//! recall, a degraded client serving reads the invalidation stream
//! already disowned, a repromotion that skips the GETINV drain. This
//! module explores the product machine — the real
//! [`DelegationTable`] and the shipped [`ConcurrentInvalidationTracker`]
//! (invalidation buffers *and* peer-advert holdings) composed with
//! explicit spec machines for the WAN breaker, the client degradation
//! ladder (healthy → degraded → repromoting) and per-delegation lease
//! bookkeeping — under an explicit virtual clock, and checks
//! cross-machine invariants in every reachable state:
//!
//! * **I1 bounded-staleness** — a degraded client never serves a read
//!   older than `max_staleness` past its last freshness proof (grant or
//!   GETINV drain); equivalently, it never serves a byte the
//!   invalidation machinery claims invalidated outside the bound.
//! * **I2 lease-revocation-legitimacy** — an in-table revocation
//!   implies the holder's lease really elapsed since its last
//!   server-visible access, or the holder was partitioned with its
//!   breaker open (so its renewals could not reach the server).
//! * **I3 repromote-drains-getinv** — a ladder transition out of
//!   degraded always drains the invalidation stream first; at the
//!   moment of repromotion the spec owes the client nothing.
//! * **I4 failed-recall-eviction** — a recall round that ends with the
//!   target partitioned still evicts the target's table entry; a stale
//!   sharer left behind would read as an open file and starve every
//!   later writer of a delegation until the open-speculation expiry.
//! * **I5 getinv-soundness-under-composition** — GETINV timestamps stay
//!   monotone per client and a non-forced drain delivers exactly the
//!   owed set, even with delegation traffic, partitions and lease
//!   revocations interleaved.
//! * **I6 write-exclusion-under-composition** — write delegations stay
//!   exclusive per file across partitions, heals and revocations.
//! * **I7 no-condemned-peer-serve** — a peer never serves a block the
//!   origin has condemned: every write eagerly de-advertises all peer
//!   holders of the file (the tracker's own `record_modification` pass),
//!   so a holder the tracker still advertises always carries the
//!   origin's current version when it answers a `PEERREAD`.
//! * **I8 no-corrupt-serve** — no block whose checksum fails
//!   verification is ever returned to a reader, local or peer: a
//!   rotten stored copy is quarantined into a cache miss (and repaired
//!   by refetch), never served.
//!
//! Each invariant has a fault knob ([`Knobs`]) that re-introduces the
//! corresponding bug — in the spec side, or for I7 in the shipped
//! tracker itself through its chaos knob; the unit tests flip the knobs
//! one at a time and assert the checker convicts — a checker that
//! cannot see a planted bug proves nothing.
//!
//! The GETINV (I5), write-exclusion (I6), ladder (I1, I3) and
//! lease-legitimacy (I2) rules are the ones stated in [`crate::spec`].

use crate::model::{explore, Machine, ModelReport};
use crate::spec::{self, GetinvSpec, Ladder};
use gvfs_core::delegation::DelegationTable;
use gvfs_core::invalidation::ConcurrentInvalidationTracker;
use gvfs_core::DelegationConfig;
use gvfs_netsim::SimTime;
use gvfs_nfs3::Fh3;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Duration;

/// Renewal lease used by the product configurations: short enough that
/// the clock actions can lapse it within the depth bound.
const LEASE_S: u64 = 3;
/// Bounded-staleness window for degraded reads.
const MAX_STALENESS_S: u64 = 4;
/// WAN failures before the spec breaker trips open.
const BREAKER_THRESHOLD: u32 = 2;
/// Invalidation buffer capacity (large enough that the small
/// configurations never wrap; wrap is the per-machine model's job).
const INVAL_CAPACITY: usize = 8;
/// Virtual-clock ceiling: ticks are disabled past this point. Raw
/// timestamps are sound but each tick mints a fresh state, so an
/// unbounded clock starves the protocol actions of frontier budget;
/// 10 s comfortably straddles both the lease (3 s) and the staleness
/// bound (4 s).
const MAX_CLOCK_S: u64 = 10;
/// Bound on states explored per configuration. Sized for the machine
/// as composed — the peer-sourcing state (versions, adverts, clean
/// copies) multiplies the reachable set, and the cap must leave the
/// frontier enough budget to reach every knob's conviction depth.
const STATE_CAP: usize = 24_000;

/// Fault-injection knobs: each re-introduces one composition bug so the
/// unit tests can prove the corresponding invariant has teeth.
#[derive(Debug, Clone, Copy, Default)]
pub struct Knobs {
    /// Degraded reads ignore the staleness bound (breaks I1).
    pub serve_ignores_staleness: bool,
    /// The spec's lease bookkeeping counts accesses made while
    /// partitioned, as if client-side renewals reached the server
    /// (breaks I2: real revocations then look premature).
    pub lease_counts_offline_access: bool,
    /// Repromotion is enabled without the GETINV drain (breaks I3).
    pub repromote_skips_drain: bool,
    /// A recall round skips `recall_done` for partitioned targets, so
    /// their delegations survive the round (breaks I4).
    pub recall_keeps_partitioned_holder: bool,
    /// Writes skip the eager de-advertisement, so stale holders stay
    /// advertised and serve condemned blocks (breaks I7): the shipped
    /// tracker built `with_deadvertise_suppressed`, the same fault the
    /// chaos harness's `--break-peerread` self-test builds in.
    pub peer_ignores_condemnation: bool,
    /// Verify-on-read is disabled: a read hitting a rotten stored copy
    /// serves the bytes instead of quarantining them (breaks I8) — the
    /// model twin of the chaos harness's `--break-scrub` knob.
    pub serve_corrupt_blocks: bool,
}

/// One actionable step of the composed machine.
#[derive(Debug, Clone, Copy)]
enum ProductAction {
    /// The virtual clock advances.
    Tick { secs: u64 },
    /// A client read/write reaches (or, partitioned, fails to reach)
    /// the proxy server.
    Access { client: u32, fh: Fh3, write: bool },
    /// The WAN link to `client` partitions.
    Partition { client: u32 },
    /// The WAN link to `client` heals (breaker probe succeeds).
    Heal { client: u32 },
    /// `client` polls the invalidation stream.
    Getinv { client: u32 },
    /// A degraded, healed client re-promotes to healthy.
    Repromote { client: u32 },
    /// A degraded client serves a read from its frozen cache.
    DegradedRead { client: u32, fh: Fh3 },
    /// An advertised holder answers a `PEERREAD` for `fh`.
    PeerServe { client: u32, fh: Fh3 },
    /// Disk corruption lands on `client`'s stored clean copy of `fh`.
    Rot { client: u32, fh: Fh3 },
    /// A local reader hits `client`'s cached clean copy of `fh`.
    CacheRead { client: u32, fh: Fh3 },
}

/// Spec breaker: two observable positions are enough for the product
/// (the full lazy-promotion machine is checked by
/// [`crate::model::check_breaker`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecBreaker {
    Closed { fails: u32 },
    Open,
}

#[derive(Debug, Clone)]
struct ClientSpec {
    partitioned: bool,
    breaker: SpecBreaker,
    /// The spec side of the proxy client's `needs_resync` + breaker
    /// machinery.
    ladder: Ladder,
    /// Virtual second of the last freshness proof (grant or drain).
    last_sync: Option<u64>,
    /// fileid → origin version this client's clean cached copy carries
    /// (the peer-sourcing machine: only these copies can answer a
    /// `PEERREAD`; an applied invalidation drops the entry).
    clean: BTreeMap<u64, u64>,
    /// Clean copies whose stored bytes have rotted on disk: the next
    /// verification must quarantine them, never serve them.
    rotten: BTreeSet<u64>,
}

impl ClientSpec {
    fn new() -> Self {
        ClientSpec {
            partitioned: false,
            breaker: SpecBreaker::Closed { fails: 0 },
            ladder: Ladder::Healthy,
            last_sync: None,
            clean: BTreeMap::new(),
            rotten: BTreeSet::new(),
        }
    }
}

#[derive(Clone)]
struct ProductState {
    now_s: u64,
    table: DelegationTable,
    tracker: ConcurrentInvalidationTracker,
    /// What the invalidation stream owes each client.
    getinv: GetinvSpec,
    clients: BTreeMap<u32, ClientSpec>,
    /// (client, fh) → virtual second of the last access the *server*
    /// saw; the spec mirror of the table's lease bookkeeping.
    last_access: BTreeMap<(u32, u64), u64>,
    /// fileid → origin content version, bumped by every write.
    version: BTreeMap<u64, u64>,
    files: Vec<Fh3>,
    knobs: Knobs,
}

fn product_config() -> DelegationConfig {
    DelegationConfig { lease: Duration::from_secs(LEASE_S), ..DelegationConfig::default() }
}

impl ProductState {
    fn new(n_clients: u32, n_files: u64, knobs: Knobs) -> Self {
        let mut table = DelegationTable::new(product_config());
        table.set_revocation_log(true);
        let tracker = ConcurrentInvalidationTracker::with_deadvertise_suppressed(
            INVAL_CAPACITY,
            knobs.peer_ignores_condemnation,
        );
        ProductState {
            now_s: 0,
            table,
            tracker,
            getinv: GetinvSpec::new(INVAL_CAPACITY, 1..=n_clients),
            clients: (1..=n_clients).map(|c| (c, ClientSpec::new())).collect(),
            last_access: BTreeMap::new(),
            version: BTreeMap::new(),
            files: (1..=n_files).map(Fh3::from_fileid).collect(),
            knobs,
        }
    }

    fn now(&self) -> SimTime {
        SimTime::ZERO + Duration::from_secs(self.now_s)
    }

    /// Every client the tracker advertises as holding `fh`.
    fn holders(&self, fh: Fh3) -> Vec<u32> {
        self.tracker.collect_holders(fh, u32::MAX, usize::MAX)
    }

    /// I2: every revocation the table just performed must be
    /// legitimate.
    fn check_revocations(&mut self) -> Result<(), String> {
        for (holder, fh) in self.table.take_revocations() {
            let last = self.last_access.get(&(holder, fh.fileid())).copied();
            let renewals_blocked = self
                .clients
                .get(&holder)
                .is_some_and(|cs| cs.partitioned && cs.breaker == SpecBreaker::Open);
            let verdict = spec::lease_revocation(last, self.now_s, LEASE_S, renewals_blocked);
            verdict.map_err(|rule| {
                format!(
                    "I2 {rule}: in-table revocation of client {holder} on {fh:?} at t={}s, last \
                     access t={last:?}, lease {LEASE_S}s, breaker not open",
                    self.now_s
                )
            })?;
        }
        Ok(())
    }
}

impl Machine for ProductState {
    type Action = ProductAction;

    fn fingerprint(&self) -> String {
        let mut s = String::new();
        // Raw timestamps on purpose: the lease and staleness invariants
        // are time-dependent, so time-shifted states are NOT equivalent
        // and folding them would be unsound.
        let _ = write!(s, "t={};", self.now_s);
        for f in self.table.snapshot() {
            let _ = write!(s, "{f:?};");
        }
        let _ = write!(s, "inv={:?}@{};", self.tracker.snapshot(), self.tracker.now());
        let _ = write!(s, "getinv={:?};", self.getinv);
        for (c, cs) in &self.clients {
            let _ = write!(
                s,
                "c{c}={:?}/{:?}/{:?}/{:?}/{:?}/{:?};",
                cs.partitioned, cs.breaker, cs.ladder, cs.last_sync, cs.clean, cs.rotten
            );
        }
        let _ = write!(s, "la={:?};", self.last_access);
        let _ = write!(s, "v={:?};", self.version);
        for &fh in &self.files {
            let _ = write!(s, "adv{}={:?};", fh.fileid(), self.holders(fh));
        }
        s
    }

    fn apply(&mut self, action: &ProductAction) -> Result<(), String> {
        match *action {
            ProductAction::Tick { secs } => {
                self.now_s += secs;
            }
            ProductAction::Access { client, fh, write } => {
                let cs = self.clients.get_mut(&client).expect("model client");
                if cs.partitioned {
                    // WAN failure: the breaker counts it; tripping open
                    // degrades the ladder (the proxy client's
                    // DEGRADE_AFTER machinery, collapsed to the trip).
                    cs.breaker = match cs.breaker {
                        SpecBreaker::Closed { fails } if fails + 1 >= BREAKER_THRESHOLD => {
                            SpecBreaker::Open
                        }
                        SpecBreaker::Closed { fails } => SpecBreaker::Closed { fails: fails + 1 },
                        SpecBreaker::Open => SpecBreaker::Open,
                    };
                    if cs.breaker == SpecBreaker::Open && !cs.ladder.is_degraded() {
                        cs.ladder = Ladder::Degraded { drained: false };
                    }
                    if self.knobs.lease_counts_offline_access {
                        self.last_access.insert((client, fh.fileid()), self.now_s);
                    }
                    return Ok(());
                }
                let now = self.now();
                let (grant, recalls) = self.table.access(fh, client, write, Some(0), now);
                self.last_access.insert((client, fh.fileid()), self.now_s);
                self.check_revocations()?;
                if grant != gvfs_core::protocol::DelegationGrant::None {
                    // Any grant is a freshness proof for the accessor.
                    self.clients.get_mut(&client).expect("model client").last_sync =
                        Some(self.now_s);
                }
                if !recalls.is_empty() {
                    self.table.begin_recall(fh);
                    for r in &recalls {
                        let target_partitioned =
                            self.clients.get(&r.client).is_some_and(|t| t.partitioned);
                        if target_partitioned && self.knobs.recall_keeps_partitioned_holder {
                            continue;
                        }
                        // Answered recalls flush clean; partitioned
                        // targets time out and are evicted unanswered.
                        self.table.recall_done(r.fh, r.client, Vec::new());
                    }
                    self.table.end_recall(fh);
                    // The table strips the delegation at recall-issue
                    // time; what an unanswered recall must still clean
                    // up is the *sharer entry* — left behind, it reads
                    // as an open file and starves every later writer of
                    // a delegation until the 10-minute expiration.
                    for r in &recalls {
                        let target_partitioned =
                            self.clients.get(&r.client).is_some_and(|t| t.partitioned);
                        let still_sharer = self
                            .table
                            .snapshot()
                            .iter()
                            .find(|f| f.fh == r.fh)
                            .is_some_and(|f| f.sharers.iter().any(|&(c, _)| c == r.client));
                        if target_partitioned && still_sharer {
                            return Err(format!(
                                "I4: partitioned client {} still registered on {:?} after its \
                                 recall round completed (writers stay undelegable)",
                                r.client, r.fh
                            ));
                        }
                    }
                }
                if write {
                    // The write condemns every cached copy: the tracker
                    // enqueues the invalidation and, under the same
                    // `buffers` lock, de-advertises all peer holders; the
                    // origin bumps the content version. The writer's own
                    // copy turns dirty, which a peer answers as a miss.
                    self.tracker.record_modification(fh, client);
                    self.getinv.modify(fh, client);
                    *self.version.entry(fh.fileid()).or_insert(0) += 1;
                    let cs = self.clients.get_mut(&client).expect("model client");
                    cs.clean.remove(&fh.fileid());
                    cs.rotten.remove(&fh.fileid());
                } else {
                    // A served read leaves the client holding the
                    // origin's current version; the origin advertises it
                    // as a live peer source. Fresh bytes overwrite
                    // whatever rot the old stored copy carried.
                    let v = self.version.get(&fh.fileid()).copied().unwrap_or(0);
                    let cs = self.clients.get_mut(&client).expect("model client");
                    cs.clean.insert(fh.fileid(), v);
                    cs.rotten.remove(&fh.fileid());
                    self.tracker.advertise(client, fh);
                }
            }
            ProductAction::Partition { client } => {
                self.clients.get_mut(&client).expect("model client").partitioned = true;
            }
            ProductAction::Heal { client } => {
                let cs = self.clients.get_mut(&client).expect("model client");
                cs.partitioned = false;
                // The healed probe succeeds: the breaker closes. The
                // ladder stays degraded until an explicit repromote.
                cs.breaker = SpecBreaker::Closed { fails: 0 };
            }
            ProductAction::Getinv { client } => {
                let res = self.tracker.getinv(client, self.getinv.ts(client));
                self.getinv.reply(client, &res).map_err(|v| format!("I5: {v}"))?;
                // Applying the drain drops the invalidated copies; they
                // can no longer back a PEERREAD.
                let cs = self.clients.get_mut(&client).expect("model client");
                if res.force_invalidate {
                    cs.clean.clear();
                    cs.rotten.clear();
                } else {
                    for fh in &res.handles {
                        cs.clean.remove(&fh.fileid());
                        cs.rotten.remove(&fh.fileid());
                    }
                }
                cs.last_sync = Some(self.now_s);
                cs.ladder.drain();
            }
            ProductAction::Repromote { client } => {
                let owes_nothing = self.getinv.owes_nothing(client);
                let cs = self.clients.get_mut(&client).expect("model client");
                cs.ladder
                    .repromote(owes_nothing)
                    .map_err(|rule| format!("I3 {rule}: client {client}"))?;
            }
            ProductAction::DegradedRead { client, fh } => {
                let cs = &self.clients[&client];
                let age = cs.last_sync.map_or(u64::MAX, |t| self.now_s.saturating_sub(t));
                // The implementation refuses the serve outside the
                // bound; the knob re-introduces serving regardless, and
                // only then can the bound be broken.
                let served_age = self.knobs.serve_ignores_staleness.then_some(age);
                cs.ladder.serve(served_age, MAX_STALENESS_S).map_err(|rule| {
                    format!("I1 {rule}: client {client} read {fh:?} at age {age}s")
                })?;
            }
            ProductAction::PeerServe { client, fh } => {
                // A holder without a clean copy (its own drain already
                // dropped it) answers an honest miss — safe. Serving
                // *content* of a superseded version is the sin.
                let current = self.version.get(&fh.fileid()).copied().unwrap_or(0);
                let cs = self.clients.get_mut(&client).expect("model client");
                if let Some(&v) = cs.clean.get(&fh.fileid()) {
                    // Verification runs before the serve: a rotten copy
                    // never reaches the wire. Quarantined, the holder
                    // answers an honest miss and the requester falls
                    // back to the origin.
                    if cs.rotten.contains(&fh.fileid()) {
                        if self.knobs.serve_corrupt_blocks {
                            return Err(format!(
                                "I8: advertised client {client} answered a PEERREAD for {fh:?} \
                                 with a stored copy whose checksum fails verification"
                            ));
                        }
                        cs.rotten.remove(&fh.fileid());
                        cs.clean.remove(&fh.fileid());
                    } else if v != current {
                        return Err(format!(
                            "I7: advertised client {client} served {fh:?} holding version {v} \
                             while the origin is at {current} — condemned block served by a peer"
                        ));
                    }
                }
            }
            ProductAction::Rot { client, fh } => {
                self.clients.get_mut(&client).expect("model client").rotten.insert(fh.fileid());
            }
            ProductAction::CacheRead { client, fh } => {
                let current = self.version.get(&fh.fileid()).copied().unwrap_or(0);
                let cs = self.clients.get_mut(&client).expect("model client");
                if cs.rotten.contains(&fh.fileid()) {
                    if self.knobs.serve_corrupt_blocks {
                        return Err(format!(
                            "I8: client {client} served a local read of {fh:?} from a stored \
                             copy whose checksum fails verification"
                        ));
                    }
                    // Verify-on-read quarantines the copy into a miss;
                    // the refetch repairs it at the origin's current
                    // version when the WAN is up, or leaves a plain
                    // miss when it is not.
                    cs.rotten.remove(&fh.fileid());
                    cs.clean.remove(&fh.fileid());
                    if !cs.partitioned {
                        cs.clean.insert(fh.fileid(), current);
                        self.tracker.advertise(client, fh);
                    }
                }
            }
        }
        spec::write_exclusion(&self.table.snapshot()).map_err(|v| format!("I6: {v}"))
    }

    fn enabled(&self) -> Vec<ProductAction> {
        let mut acts = Vec::new();
        if self.now_s < MAX_CLOCK_S {
            // One fine step and one jump past the lease/staleness
            // boundaries; more deltas add breadth, not coverage.
            for &secs in &[1u64, 4] {
                acts.push(ProductAction::Tick { secs });
            }
        }
        for (&client, cs) in &self.clients {
            for &fh in &self.files {
                for write in [false, true] {
                    acts.push(ProductAction::Access { client, fh, write });
                }
            }
            if cs.partitioned {
                acts.push(ProductAction::Heal { client });
            } else {
                acts.push(ProductAction::Partition { client });
                acts.push(ProductAction::Getinv { client });
            }
            for &fileid in cs.clean.keys() {
                let fh = Fh3::from_fileid(fileid);
                acts.push(ProductAction::CacheRead { client, fh });
                if !cs.rotten.contains(&fileid) {
                    acts.push(ProductAction::Rot { client, fh });
                }
            }
            match cs.ladder {
                Ladder::Degraded { drained } => {
                    for &fh in &self.files {
                        acts.push(ProductAction::DegradedRead { client, fh });
                    }
                    let repromotable =
                        !cs.partitioned && (drained || self.knobs.repromote_skips_drain);
                    if repromotable {
                        acts.push(ProductAction::Repromote { client });
                    }
                }
                Ladder::Healthy => {}
            }
        }
        // Any advertised holder can be asked for any advertised file —
        // the requester trusts the origin's advert, so the serve must be
        // safe whenever the tracker still hands the advert out.
        for &fh in &self.files {
            for client in self.holders(fh) {
                acts.push(ProductAction::PeerServe { client, fh });
            }
        }
        acts
    }
}

/// Exhaustively checks the composed product machine over small
/// configurations with the given fault knobs.
pub fn check_product_with(knobs: Knobs) -> ModelReport {
    let mut report = ModelReport { machine: "product", ..ModelReport::default() };
    for &(n_clients, n_files) in &[(2u32, 1u64), (2, 2), (3, 1)] {
        let label = format!("product[clients={n_clients},files={n_files}]");
        explore(&mut report, &label, ProductState::new(n_clients, n_files, knobs), STATE_CAP);
    }
    report
}

/// Exhaustively checks the composed product machine (CI entry).
pub fn check_product() -> ModelReport {
    check_product_with(Knobs::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_violation(knobs: Knobs) -> String {
        let report = check_product_with(knobs);
        assert!(
            !report.violations.is_empty(),
            "planted bug produced no violation ({knobs:?}); the checker is toothless"
        );
        report.violations[0].clone()
    }

    #[test]
    fn clean_product_holds_all_invariants() {
        let report = check_product();
        assert!(report.violations.is_empty(), "violations: {:?}", report.violations);
        assert!(report.states > 1_000, "only {} states explored", report.states);
    }

    #[test]
    fn catches_staleness_bound_violation() {
        let v = first_violation(Knobs { serve_ignores_staleness: true, ..Knobs::default() });
        assert!(v.contains("I1"), "wrong invariant convicted: {v}");
    }

    #[test]
    fn catches_premature_lease_revocation() {
        let v = first_violation(Knobs { lease_counts_offline_access: true, ..Knobs::default() });
        assert!(v.contains("I2"), "wrong invariant convicted: {v}");
    }

    #[test]
    fn catches_undrained_repromotion() {
        let v = first_violation(Knobs { repromote_skips_drain: true, ..Knobs::default() });
        assert!(v.contains("I3"), "wrong invariant convicted: {v}");
    }

    #[test]
    fn catches_surviving_partitioned_holder() {
        let v =
            first_violation(Knobs { recall_keeps_partitioned_holder: true, ..Knobs::default() });
        assert!(v.contains("I4"), "wrong invariant convicted: {v}");
    }

    #[test]
    fn catches_condemned_peer_serve() {
        let v = first_violation(Knobs { peer_ignores_condemnation: true, ..Knobs::default() });
        assert!(v.contains("I7"), "wrong invariant convicted: {v}");
    }

    #[test]
    fn catches_served_corruption() {
        let v = first_violation(Knobs { serve_corrupt_blocks: true, ..Knobs::default() });
        assert!(v.contains("I8"), "wrong invariant convicted: {v}");
    }
}
