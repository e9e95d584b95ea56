//! The one statement of each protocol rule that more than one checker
//! enforces. The model checkers ([`crate::model`], [`crate::product`])
//! explore states and ask these rules whether a step is legal; trace
//! replay ([`crate::replay`]) asks the same rules about recorded events,
//! and the conformance proptests ask them about random histories. A rule
//! changed here changes for every checker at once.
//!
//! * **GETINV soundness** (§4.2, [`GetinvSpec`]): per client, the
//!   timestamp it acknowledged, whether the server holds a buffer for
//!   it, the files it is owed and whether that set wrapped. A reply
//!   forces exactly on first contact, a null timestamp or a wrap; a
//!   non-forced reply is exactly the owed set; timestamps are monotone
//!   ([`getinv_clock_monotone`]).
//! * **Write exclusion** (§4.3, [`write_exclusion`]): no two sharers of
//!   a file hold [`conflicts`]-ing delegations, and a pending write-back
//!   always has a block left to drain. [`settle`] and [`regrantable`]
//!   state the liveness side: a settled table re-grants every file.
//! * **The degradation ladder** ([`Ladder`]): degrade, drain, repromote
//!   and degraded serves within the staleness bound.
//! * **Lease-revocation legitimacy** ([`lease_revocation`]).
//!
//! The ladder and lease rules report a broken rule by the name trace
//! replay rejects under.

use gvfs_core::delegation::{DelegationKind, DelegationTable, FileSnapshot, RecallAction};
use gvfs_core::protocol::{DelegationGrant, GetinvRes};
use gvfs_core::trace::TraceKind;
use gvfs_netsim::SimTime;
use gvfs_nfs3::Fh3;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------
// GETINV soundness
// ---------------------------------------------------------------------

/// What the protocol owes one client.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Owed {
    /// Timestamp the client would send on its next poll.
    ts: Option<u64>,
    /// Whether the server currently has a buffer for this client.
    registered: bool,
    /// Files modified by others since the client's last drain.
    owed: BTreeSet<Fh3>,
    /// An owed entry was discarded by wrap-around: the next reply must
    /// force-invalidate.
    wrapped: bool,
}

/// The §4.2.1 spec of the invalidation buffers that the shipped
/// `ConcurrentInvalidationTracker` must refine: the logical clock and
/// what each client is owed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetinvSpec {
    capacity: usize,
    clock: u64,
    clients: BTreeMap<u32, Owed>,
}

/// Per-client GETINV timestamps are monotone. A forced reply
/// re-bootstraps the client (it discards its cache and its old
/// timestamp with it), so only a non-forced reply must not regress.
pub fn getinv_clock_monotone(prev: Option<u64>, ts: u64, forced: bool) -> bool {
    forced || prev.is_none_or(|prev| ts >= prev)
}

impl GetinvSpec {
    /// A server with buffers of `capacity` entries and no registered
    /// client yet.
    pub fn new(capacity: usize, clients: impl IntoIterator<Item = u32>) -> Self {
        GetinvSpec {
            capacity,
            clock: 0,
            clients: clients.into_iter().map(|c| (c, Owed::default())).collect(),
        }
    }

    /// The server's logical clock: one tick per modification.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The timestamp `client` sends on its next poll.
    pub fn ts(&self, client: u32) -> Option<u64> {
        self.clients.get(&client).and_then(|o| o.ts)
    }

    /// Whether `client` is owed no invalidation.
    pub fn owes_nothing(&self, client: u32) -> bool {
        self.clients.get(&client).is_none_or(|o| o.owed.is_empty())
    }

    /// `writer` modified `fh`: every other registered client is owed
    /// it, and one owed more files than its buffer holds has wrapped.
    pub fn modify(&mut self, fh: Fh3, writer: u32) {
        self.clock += 1;
        for (&client, o) in &mut self.clients {
            if client != writer && o.registered && o.owed.insert(fh) && o.owed.len() > self.capacity
            {
                o.wrapped = true;
            }
        }
    }

    /// `client` restarted and lost its timestamp: it polls with null.
    pub fn client_crash(&mut self, client: u32) {
        if let Some(o) = self.clients.get_mut(&client) {
            o.ts = None;
        }
    }

    /// The server restarted: every buffer and the clock are lost, and
    /// the clients keep their timestamps.
    pub fn server_restart(&mut self) {
        self.clock = 0;
        for o in self.clients.values_mut() {
            *o = Owed { ts: o.ts, ..Owed::default() };
        }
    }

    /// Checks the server's reply `res` to `client`'s poll, sent with
    /// [`GetinvSpec::ts`]: stamped with the clock, monotone, forced
    /// exactly on first contact, a null timestamp or a wrap, and
    /// otherwise exactly the owed set, each handle once. Forced or not,
    /// the client is square afterwards.
    pub fn reply(&mut self, client: u32, res: &GetinvRes) -> Result<(), String> {
        let o = self.clients.entry(client).or_default();
        if !getinv_clock_monotone(o.ts, res.timestamp, res.force_invalidate) {
            return Err(format!(
                "GETINV timestamp regressed for client {client}: {} < {:?}",
                res.timestamp, o.ts
            ));
        }
        if res.timestamp != self.clock {
            return Err(format!(
                "client {client}: GETINV stamped {} but the clock is {}",
                res.timestamp, self.clock
            ));
        }
        let expect_force = !o.registered || o.ts.is_none() || o.wrapped;
        if res.force_invalidate != expect_force {
            return Err(format!(
                "client {client}: force_invalidate={} but spec expects {expect_force} \
                 (registered={}, ts={:?}, wrapped={})",
                res.force_invalidate, o.registered, o.ts, o.wrapped
            ));
        }
        if res.poll_again {
            return Err(format!(
                "client {client}: poll_again in a configuration far below the pagination \
                 threshold"
            ));
        }
        let got: BTreeSet<Fh3> = res.handles.iter().copied().collect();
        if got.len() != res.handles.len() {
            return Err(format!(
                "client {client}: duplicate handles in a GETINV reply (coalescing violated): {:?}",
                res.handles
            ));
        }
        let want = if res.force_invalidate { BTreeSet::new() } else { std::mem::take(&mut o.owed) };
        if got != want {
            return Err(format!(
                "client {client}: GETINV delivered {got:?} but spec owes {want:?} (forced={})",
                res.force_invalidate
            ));
        }
        *o = Owed { ts: Some(res.timestamp), registered: true, ..Owed::default() };
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Write exclusion and re-grantability
// ---------------------------------------------------------------------

/// Two sharers' delegations on one file conflict when both hold one and
/// either is a write.
pub fn conflicts(a: Option<DelegationKind>, b: Option<DelegationKind>) -> bool {
    matches!((a, b), (Some(x), Some(y)) if x == DelegationKind::Write || y == DelegationKind::Write)
}

/// The delegation a traced grant or recall concerns.
pub fn traced(kind: TraceKind) -> Option<DelegationKind> {
    match kind {
        TraceKind::Read => Some(DelegationKind::Read),
        TraceKind::Write => Some(DelegationKind::Write),
        TraceKind::NonCacheable => None,
    }
}

/// Write exclusion over a table snapshot: no two sharers of a file hold
/// conflicting delegations, and a pending write-back never has an empty
/// block list (it would be undrainable).
pub fn write_exclusion(snapshot: &[FileSnapshot]) -> Result<(), String> {
    for f in snapshot {
        let clash = f
            .sharers
            .iter()
            .enumerate()
            .any(|(i, &(_, a))| f.sharers[i + 1..].iter().any(|&(_, b)| conflicts(a, b)));
        if clash {
            return Err(format!(
                "write delegation coexists with another delegation on {:?}: {:?}",
                f.fh, f.sharers
            ));
        }
        if let Some((client, blocks)) = &f.pending {
            if blocks.is_empty() {
                return Err(format!(
                    "pending write-back for client {client} on {:?} has no blocks",
                    f.fh
                ));
            }
        }
    }
    Ok(())
}

/// An in-flight recall round: `begin_recall` has run and the callbacks
/// are on the wire; `end_recall` runs when the last one is answered.
#[derive(Debug, Clone)]
pub struct RecallRound {
    pub fh: Fh3,
    pub pending: Vec<RecallAction>,
}

/// Settles the table as a correct set of clients eventually would:
/// every outstanding recall answered with a full flush, then every
/// pending write-back drained block by block.
pub fn settle(table: &mut DelegationTable, rounds: Vec<RecallRound>) -> Result<(), String> {
    for round in rounds {
        for r in &round.pending {
            table.recall_done(r.fh, r.client, Vec::new());
        }
        table.end_recall(round.fh);
    }
    for f in table.snapshot() {
        for _ in 0..=64 {
            let Some(p) = table.pending_writeback(f.fh) else { break };
            let (client, block) = (p.client, p.blocks.iter().next().copied());
            let Some(block) = block else {
                return Err(format!("stuck pending write-back without blocks on {:?}", f.fh));
            };
            table.note_writeback(f.fh, client, block);
        }
        if table.pending_writeback(f.fh).is_some() {
            return Err(format!("pending write-back on {:?} does not drain", f.fh));
        }
    }
    Ok(())
}

/// Re-grantability: in a settled table, a write access by `probe` at
/// `now` (past open speculation) wins a write delegation on every file
/// within eight accesses, each losing one followed by a fully answered
/// recall round.
pub fn regrantable(
    table: &mut DelegationTable,
    files: &[Fh3],
    probe: u32,
    now: SimTime,
) -> Result<(), String> {
    for &fh in files {
        let mut accesses = 0;
        loop {
            let (grant, recalls) = table.access(fh, probe, true, Some(0), now);
            if grant == DelegationGrant::Write {
                break;
            }
            if recalls.is_empty() {
                return Err(format!(
                    "file {fh:?} stuck: write access yields {grant:?} with nothing to recall"
                ));
            }
            accesses += 1;
            if accesses == 8 {
                return Err(format!("file {fh:?} not re-grantable within 8 write accesses"));
            }
            table.begin_recall(fh);
            settle(table, vec![RecallRound { fh, pending: recalls }])?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------

/// The client degradation ladder (DESIGN.md, "Degradation ladder"): a
/// WAN breaker trip degrades a healthy client; a completed GETINV
/// drains it; only a drained client owed nothing re-promotes; and only
/// a degraded client serves cached reads, within the staleness bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Ladder {
    #[default]
    Healthy,
    Degraded {
        drained: bool,
    },
}

impl Ladder {
    /// Whether the client is on the degraded rung.
    pub fn is_degraded(self) -> bool {
        matches!(self, Ladder::Degraded { .. })
    }

    /// The WAN breaker tripped open.
    pub fn degrade(&mut self) -> Result<(), &'static str> {
        if self.is_degraded() {
            return Err("degrade-while-degraded");
        }
        *self = Ladder::Degraded { drained: false };
        Ok(())
    }

    /// A GETINV exchange completed.
    pub fn drain(&mut self) {
        if self.is_degraded() {
            *self = Ladder::Degraded { drained: true };
        }
    }

    /// The client re-promotes to healthy; `owes_nothing` is whether the
    /// invalidation stream owes it nothing at that moment.
    pub fn repromote(&mut self, owes_nothing: bool) -> Result<(), &'static str> {
        match *self {
            Ladder::Healthy => Err("repromote-healthy"),
            Ladder::Degraded { drained: false } => Err("repromote-undrained"),
            Ladder::Degraded { drained: true } if !owes_nothing => Err("repromote-owed"),
            Ladder::Degraded { drained: true } => {
                *self = Ladder::Healthy;
                Ok(())
            }
        }
    }

    /// The client serves a read from its frozen cache, `age` after its
    /// last freshness proof (`None` when no staleness can be shown).
    pub fn serve(self, age: Option<u64>, bound: u64) -> Result<(), &'static str> {
        if !self.is_degraded() {
            return Err("degraded-serve-healthy");
        }
        match age {
            Some(age) if age > bound => Err("staleness-bound"),
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// Lease-revocation legitimacy
// ---------------------------------------------------------------------

/// Lease-revocation legitimacy: the table may revoke a delegation
/// in-table at `now` only once a full `lease` elapsed since the holder's
/// last server-visible access (`None`: none seen), or while the
/// holder's renewals cannot reach the server (`renewals_blocked`: it
/// sits partitioned behind an open breaker). With no lease configured,
/// nothing may be lease-revoked.
pub fn lease_revocation(
    last_access: Option<u64>,
    now: u64,
    lease: u64,
    renewals_blocked: bool,
) -> Result<(), &'static str> {
    if lease == 0 {
        return Err("lease-revoke-unleased");
    }
    let early = last_access.is_some_and(|t| now.saturating_sub(t) < lease);
    if early && !renewals_blocked {
        return Err("lease-revoke-early");
    }
    Ok(())
}
