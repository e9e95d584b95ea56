//! Explicit-state model checking of the GVFS protocol state machines.
//!
//! The delegation table ([`gvfs_core::delegation::DelegationTable`]) and
//! the invalidation buffers
//! ([`gvfs_core::invalidation::ConcurrentInvalidationTracker`]) — the
//! one table and the one tracker the proxy server runs — are the two
//! pieces of the protocol whose correctness is a *global* property — no
//! unit test of a single call sequence can show that write delegations
//! are exclusive in every interleaving. This module drives the shipped implementations
//! through exhaustive breadth-first exploration of
//! small configurations (2–3 clients, 1–2 files) and checks safety
//! invariants in every reachable state:
//!
//! * **write-exclusion** — a write delegation never coexists with any
//!   other delegation on the same file;
//! * **re-grantability** — from every reachable state, answering the
//!   outstanding recalls and draining pending write-backs makes the
//!   file write-delegable again (no stuck `PendingWriteback`);
//! * **getinv-soundness** — `GETINV` timestamps are monotone per
//!   client, `force_invalidate` fires exactly on first contact, client
//!   restart (null timestamp) or buffer wrap, and a non-forced reply
//!   delivers exactly the invalidations owed;
//! * **lease-bounded-blocking** — from every reachable delegation
//!   state, a conflicting write arriving one lease period after the
//!   last activity needs *no recall round trip*: every stale delegation
//!   is revoked server-side on the spot, so an unresponsive holder
//!   blocks a writer for at most one lease period;
//! * **breaker-refinement** — the WAN circuit breaker
//!   ([`gvfs_rpc::breaker::CircuitBreaker`]) refines an explicit
//!   three-state spec over every interleaving of successes, failures
//!   and clock reads, including the lazy Open → HalfOpen promotion and
//!   the capped cooldown doubling.
//!
//! The delegation and invalidation machines check the rules stated once
//! in [`crate::spec`]; the breaker machine carries its own spec
//! (`BreakerSpec`). `explore` is the one breadth-first explorer the
//! delegation, invalidation and product machines share. Violations
//! carry the full action trace that reaches them, so they replay as a
//! unit test.

use crate::spec::{self, GetinvSpec, RecallRound};
use gvfs_core::delegation::{DelegationKind, DelegationTable};
use gvfs_core::invalidation::ConcurrentInvalidationTracker;
use gvfs_core::protocol::DelegationGrant;
use gvfs_core::proxy::window::{Round, Step, Window, UNBOUNDED};
use gvfs_core::DelegationConfig;
use gvfs_netsim::SimTime;
use gvfs_nfs3::Fh3;
use gvfs_rpc::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use std::cell::Cell;
use std::collections::{HashSet, VecDeque};
use std::fmt::{Debug, Write as _};
use std::time::Duration;

const T0: SimTime = SimTime::ZERO;
/// Second dirty block reported by a partial write-back answer.
const BLOCK: u64 = 32_768;
/// Bound on states explored per configuration.
const STATE_CAP: usize = 4_000;
/// Bound on exploration depth (actions from the initial state).
const DEPTH_CAP: usize = 6;

/// Outcome of checking one state machine.
#[derive(Debug, Default)]
pub struct ModelReport {
    /// Machine name (`delegation`, `invalidation`, `breaker`, `fanout`
    /// or `product`).
    pub machine: &'static str,
    /// Distinct states visited across all configurations.
    pub states: usize,
    /// Transitions executed (including duplicates into visited states).
    pub transitions: usize,
    /// Invariant violations, each with its replaying action trace.
    pub violations: Vec<String>,
}

fn fmt_trace(trace: &[String]) -> String {
    trace.join(" ; ")
}

/// A state machine [`explore`] can drive: the actions enabled in a
/// state, their effect (or the invariant they break), and a
/// fingerprint that identifies equivalent states.
pub(crate) trait Machine: Clone {
    type Action: Debug;
    /// Actions explored from the initial state.
    const DEPTH: usize = DEPTH_CAP;

    fn enabled(&self) -> Vec<Self::Action>;

    /// Applies `action`, returning the first invariant it violates.
    fn apply(&mut self, action: &Self::Action) -> Result<(), String>;

    fn fingerprint(&self) -> String;

    /// Checks run once on every newly discovered state.
    fn check_new_state(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Breadth-first exploration of one configuration from `initial`, up
/// to `state_cap` distinct states and [`Machine::DEPTH`] actions deep,
/// adding its states, transitions and violations to `report`.
pub(crate) fn explore<M: Machine>(
    report: &mut ModelReport,
    label: &str,
    initial: M,
    state_cap: usize,
) {
    let mut visited: HashSet<String> = HashSet::new();
    visited.insert(initial.fingerprint());
    let mut queue: VecDeque<(M, Vec<String>, usize)> = VecDeque::from([(initial, Vec::new(), 0)]);
    let mut states = 1usize;
    while let Some((state, trace, depth)) = queue.pop_front() {
        if depth >= M::DEPTH || states >= state_cap {
            continue;
        }
        for action in state.enabled() {
            let mut next = state.clone();
            let mut next_trace = trace.clone();
            next_trace.push(format!("{action:?}"));
            report.transitions += 1;
            let violation =
                |v: String| format!("{label}: {v}\n  trace: {}", fmt_trace(&next_trace));
            if let Err(v) = next.apply(&action) {
                report.violations.push(violation(v));
                continue;
            }
            if visited.insert(next.fingerprint()) {
                states += 1;
                report.violations.extend(next.check_new_state().into_iter().map(violation));
                queue.push_back((next, next_trace, depth + 1));
            }
        }
    }
    report.states += states;
}

// ---------------------------------------------------------------------
// Delegation machine
// ---------------------------------------------------------------------

/// One actionable step of the delegation machine.
#[derive(Debug, Clone)]
enum DelegAction {
    /// A client's read/write access reaches the proxy server.
    Access { client: u32, fh: Fh3, write: bool },
    /// One recall of an in-flight round is answered; `partial` answers
    /// a write recall with a dirty-block list instead of a full flush.
    Answer { round: usize, idx: usize, partial: bool },
    /// The flusher submits the next outstanding write-back block.
    Writeback { fh: Fh3 },
}

/// The shipped table plus the recall rounds in flight: `begin_recall`
/// has run, the callbacks are on the wire, `end_recall` runs when the
/// last one is answered. Other accesses interleave freely — exactly
/// the window `recalling` guards.
#[derive(Clone)]
struct DelegState {
    table: DelegationTable,
    rounds: Vec<RecallRound>,
    clients: Vec<u32>,
    files: Vec<Fh3>,
}

impl DelegState {
    /// The table with every outstanding recall answered and every
    /// pending write-back drained.
    fn settled(&self) -> Result<DelegationTable, String> {
        let mut table = self.table.clone();
        spec::settle(&mut table, self.rounds.clone())?;
        Ok(table)
    }

    /// Invariant: once every outstanding recall is answered and every
    /// pending write-back drained, a conflicting write arriving one
    /// lease period after the last activity needs *no recall round
    /// trip* — lapsed delegations are revoked server-side on the spot
    /// (`DelegationTable::access` lease revocation), so an unresponsive
    /// holder blocks a writer for at most one lease period. Open
    /// speculation may still withhold the write *delegation* (that is
    /// `expiration`'s business), but no stale delegation may survive
    /// the probe.
    fn check_lease_expiry(&self) -> Result<(), String> {
        // A client id outside the model's set: a brand-new writer.
        const PROBE: u32 = 99;
        let mut table = self.settled()?;
        // All model activity happens at T0, so one lease later every
        // delegation's renewal lease has lapsed (but open speculation,
        // with its longer `expiration`, has not).
        let late = T0 + DelegationConfig::default().lease + Duration::from_secs(1);
        for &fh in &self.files {
            let (grant, recalls) = table.access(fh, PROBE, true, Some(0), late);
            if !recalls.is_empty() {
                return Err(format!(
                    "write at lease expiry on {fh:?} still issues a recall round trip: {:?}",
                    recalls.iter().map(|r| (r.client, r.kind)).collect::<Vec<_>>()
                ));
            }
            if grant != DelegationGrant::Write {
                // Blocking past the lease may only come from open
                // speculation, never from a delegation that should have
                // been lease-revoked.
                if let Some(f) = table.snapshot().iter().find(|f| f.fh == fh) {
                    if f.sharers.iter().any(|&(c, d)| c != PROBE && d.is_some()) {
                        return Err(format!(
                            "stale delegation survived lease expiry on {fh:?}: {:?}",
                            f.sharers
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl Machine for DelegState {
    type Action = DelegAction;

    fn fingerprint(&self) -> String {
        let mut rounds: Vec<String> = self
            .rounds
            .iter()
            .map(|r| {
                let mut recalls: Vec<_> = r
                    .pending
                    .iter()
                    .map(|a| format!("{}:{:?}:{:?}", a.client, a.fh, a.kind))
                    .collect();
                recalls.sort();
                format!("{:?}[{}]", r.fh, recalls.join(","))
            })
            .collect();
        rounds.sort();
        let mut s = String::new();
        for f in self.table.snapshot() {
            let _ = write!(s, "{:?};", f);
        }
        let _ = write!(s, "|{}", rounds.join("|"));
        s
    }

    fn apply(&mut self, action: &DelegAction) -> Result<(), String> {
        match *action {
            DelegAction::Access { client, fh, write } => {
                let (grant, recalls) = self.table.access(fh, client, write, Some(0), T0);
                if grant == DelegationGrant::Write
                    && self.table.held(fh, client) != Some(DelegationKind::Write)
                {
                    return Err("Write grant returned but table does not record it".into());
                }
                if !recalls.is_empty() {
                    if grant != DelegationGrant::NonCacheable {
                        return Err(format!(
                            "recalls issued but grant is {grant:?}, not NonCacheable"
                        ));
                    }
                    self.table.begin_recall(fh);
                    self.rounds.push(RecallRound { fh, pending: recalls });
                }
            }
            DelegAction::Answer { round, idx, partial } => {
                let r = self.rounds[round].pending.remove(idx);
                let blocks = if partial && r.kind == DelegationKind::Write {
                    vec![0, BLOCK]
                } else {
                    Vec::new()
                };
                self.table.recall_done(r.fh, r.client, blocks);
                if self.rounds[round].pending.is_empty() {
                    let fh = self.rounds[round].fh;
                    self.table.end_recall(fh);
                    self.rounds.remove(round);
                }
            }
            DelegAction::Writeback { fh } => {
                let next = self
                    .table
                    .pending_writeback(fh)
                    .map(|p| (p.client, p.blocks.iter().next().copied()));
                if let Some((client, Some(block))) = next {
                    self.table.note_writeback(fh, client, block);
                }
            }
        }
        spec::write_exclusion(&self.table.snapshot())
    }

    /// Re-grantability (probed once speculated opens have expired) and
    /// lease-bounded blocking.
    fn check_new_state(&self) -> Vec<String> {
        let probe_now = T0 + Duration::from_secs(1_000); // past speculation expiry
        let regrant = self
            .settled()
            .and_then(|mut t| spec::regrantable(&mut t, &self.files, self.clients[0], probe_now));
        [regrant, self.check_lease_expiry()].into_iter().filter_map(Result::err).collect()
    }

    fn enabled(&self) -> Vec<DelegAction> {
        let mut acts = Vec::new();
        for &client in &self.clients {
            for &fh in &self.files {
                for write in [false, true] {
                    acts.push(DelegAction::Access { client, fh, write });
                }
            }
        }
        for (round, r) in self.rounds.iter().enumerate() {
            for (idx, recall) in r.pending.iter().enumerate() {
                acts.push(DelegAction::Answer { round, idx, partial: false });
                if recall.kind == DelegationKind::Write {
                    acts.push(DelegAction::Answer { round, idx, partial: true });
                }
            }
        }
        for &fh in &self.files {
            if self.table.pending_writeback(fh).is_some() {
                acts.push(DelegAction::Writeback { fh });
            }
        }
        acts
    }
}

/// Exhaustively checks the delegation machine over small configurations.
pub fn check_delegation() -> ModelReport {
    let mut report = ModelReport { machine: "delegation", ..ModelReport::default() };
    for &(n_clients, n_files) in &[(2u32, 1u64), (2, 2), (3, 1), (3, 2)] {
        let initial = DelegState {
            table: DelegationTable::new(DelegationConfig::default()),
            rounds: Vec::new(),
            clients: (1..=n_clients).collect(),
            files: (1..=n_files).map(Fh3::from_fileid).collect(),
        };
        let label = format!("delegation[clients={n_clients},files={n_files}]");
        explore(&mut report, &label, initial, STATE_CAP);
    }
    report
}

// ---------------------------------------------------------------------
// Invalidation machine
// ---------------------------------------------------------------------

/// One actionable step of the invalidation machine.
#[derive(Debug, Clone)]
enum InvalAction {
    /// `writer` modifies `fh` (the server records it for everyone else).
    Modify { writer: u32, fh: Fh3 },
    /// `client` polls with its last acknowledged timestamp.
    Getinv { client: u32 },
    /// `client` crashes and loses its timestamp (next poll sends null).
    ClientCrash { client: u32 },
    /// The server restarts: all buffers are lost, clients keep their
    /// timestamps.
    ServerRestart,
}

/// The shipped tracker beside the spec it must refine.
#[derive(Clone)]
struct InvalState {
    tracker: ConcurrentInvalidationTracker,
    spec: GetinvSpec,
    clients: Vec<u32>,
    files: Vec<Fh3>,
}

impl Machine for InvalState {
    type Action = InvalAction;

    fn fingerprint(&self) -> String {
        format!("{:?}|{}|{:?}", self.tracker.snapshot(), self.tracker.now(), self.spec)
    }

    fn apply(&mut self, action: &InvalAction) -> Result<(), String> {
        match *action {
            InvalAction::Modify { writer, fh } => {
                self.tracker.record_modification(fh, writer);
                self.spec.modify(fh, writer);
            }
            InvalAction::Getinv { client } => {
                let res = self.tracker.getinv(client, self.spec.ts(client));
                self.spec.reply(client, &res)?;
            }
            InvalAction::ClientCrash { client } => self.spec.client_crash(client),
            InvalAction::ServerRestart => {
                // The crash path the proxy server takes: every buffer
                // is dropped and the clock restarts.
                self.tracker.reset();
                self.spec.server_restart();
            }
        }
        Ok(())
    }

    fn enabled(&self) -> Vec<InvalAction> {
        let mut acts = Vec::new();
        for &client in &self.clients {
            for &fh in &self.files {
                acts.push(InvalAction::Modify { writer: client, fh });
            }
            acts.push(InvalAction::Getinv { client });
            acts.push(InvalAction::ClientCrash { client });
        }
        acts.push(InvalAction::ServerRestart);
        acts
    }
}

/// Exhaustively checks the invalidation machine over small
/// configurations, including capacities low enough to exercise wrap.
pub fn check_invalidation() -> ModelReport {
    let mut report = ModelReport { machine: "invalidation", ..ModelReport::default() };
    for &(n_clients, capacity) in &[(2u32, 1usize), (2, 2), (3, 2)] {
        let clients: Vec<u32> = (1..=n_clients).collect();
        let initial = InvalState {
            tracker: ConcurrentInvalidationTracker::new(capacity),
            spec: GetinvSpec::new(capacity, clients.iter().copied()),
            clients,
            files: (1..=2u64).map(Fh3::from_fileid).collect(),
        };
        let label = format!("invalidation[clients={n_clients},capacity={capacity}]");
        explore(&mut report, &label, initial, STATE_CAP);
    }
    report
}

// ---------------------------------------------------------------------
// Breaker machine
// ---------------------------------------------------------------------

/// One step of the breaker spec: advance the clock, then feed one
/// event. `Observe` matters because the implementation promotes
/// Open → HalfOpen *lazily* inside `state()`; a failure reported
/// without an intervening observation must be handled in the stored
/// (un-promoted) state, and the spec mirrors exactly that.
#[derive(Debug, Clone, Copy)]
enum BreakerOp {
    Success,
    Failure,
    Observe,
}

/// The explicit spec the breaker must refine (`DESIGN.md`,
/// "Degradation ladder": Closed → Open at the failure threshold,
/// lazy Open → HalfOpen after the cooldown, probe failure doubles the
/// cooldown up to the cap, any success closes and resets).
struct BreakerSpec {
    state: BreakerState,
    fails: u32,
    reopened_at: Duration,
    outage_since: Option<Duration>,
    cooldown: Duration,
    trips: u64,
}

impl BreakerSpec {
    fn new(cfg: &BreakerConfig) -> Self {
        BreakerSpec {
            state: BreakerState::Closed,
            fails: 0,
            reopened_at: Duration::ZERO,
            outage_since: None,
            cooldown: cfg.cooldown,
            trips: 0,
        }
    }

    fn on_success(&mut self, cfg: &BreakerConfig) {
        self.fails = 0;
        if self.state.is_degraded() {
            self.state = BreakerState::Closed;
            self.outage_since = None;
            self.cooldown = cfg.cooldown;
        }
    }

    fn on_failure(&mut self, cfg: &BreakerConfig, now: Duration) {
        self.fails = self.fails.saturating_add(1);
        match self.state {
            BreakerState::Closed => {
                if self.fails >= cfg.failure_threshold {
                    self.state = BreakerState::Open;
                    self.reopened_at = now;
                    self.outage_since = Some(now);
                    self.trips += 1;
                }
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.reopened_at = now;
                self.cooldown = (self.cooldown * 2).min(cfg.cooldown_max);
            }
            BreakerState::Open => self.reopened_at = now,
        }
    }

    fn observe(&mut self, now: Duration) -> BreakerState {
        if self.state == BreakerState::Open && now >= self.reopened_at + self.cooldown {
            self.state = BreakerState::HalfOpen;
        }
        self.state
    }

    fn fingerprint(&self, cfg: &BreakerConfig) -> String {
        format!(
            "{:?}|{}|{:?}|{}|{}",
            self.state,
            self.fails.min(cfg.failure_threshold),
            self.cooldown,
            self.outage_since.is_some(),
            self.trips.min(2)
        )
    }
}

/// Exhaustively checks the circuit breaker against `BreakerSpec` over
/// every trace of clock advances and events up to a fixed depth. The
/// clock deltas straddle the interesting boundaries: within the base
/// cooldown (1 s), past it (6 s) and past the cooldown cap (61 s).
pub fn check_breaker() -> ModelReport {
    let mut report = ModelReport { machine: "breaker", ..ModelReport::default() };
    let cfg = BreakerConfig::default();
    let deltas = [Duration::from_secs(1), Duration::from_secs(6), Duration::from_secs(61)];
    let ops = [BreakerOp::Success, BreakerOp::Failure, BreakerOp::Observe];
    const DEPTH: usize = 5;
    let arity = deltas.len() * ops.len();
    let traces = arity.pow(DEPTH as u32);
    let mut visited: HashSet<String> = HashSet::new();

    'trace: for mut code in 0..traces {
        let breaker = CircuitBreaker::new(cfg);
        let mut spec = BreakerSpec::new(&cfg);
        let mut now = Duration::ZERO;
        let mut trace: Vec<String> = Vec::new();
        for _ in 0..DEPTH {
            let step = code % arity;
            code /= arity;
            let delta = deltas[step / ops.len()];
            let op = ops[step % ops.len()];
            now += delta;
            trace.push(format!("+{delta:?} {op:?}"));
            report.transitions += 1;
            match op {
                BreakerOp::Success => {
                    breaker.on_success(now, Duration::from_millis(50));
                    spec.on_success(&cfg);
                }
                BreakerOp::Failure => {
                    breaker.on_failure(now);
                    spec.on_failure(&cfg, now);
                }
                BreakerOp::Observe => {
                    let got = breaker.state(now);
                    let want = spec.observe(now);
                    if got != want {
                        report.violations.push(format!(
                            "breaker state {got:?} but spec says {want:?} at {now:?}\n  trace: {}",
                            fmt_trace(&trace)
                        ));
                        continue 'trace;
                    }
                }
            }
            if breaker.trips() != spec.trips {
                report.violations.push(format!(
                    "breaker trips {} but spec says {} at {now:?}\n  trace: {}",
                    breaker.trips(),
                    spec.trips,
                    fmt_trace(&trace)
                ));
                continue 'trace;
            }
            let want_open_for = spec.outage_since.map(|s| now.saturating_sub(s));
            if breaker.open_for(now) != want_open_for {
                report.violations.push(format!(
                    "breaker open_for {:?} but spec says {want_open_for:?} at {now:?}\n  trace: {}",
                    breaker.open_for(now),
                    fmt_trace(&trace)
                ));
                continue 'trace;
            }
            if spec.cooldown > cfg.cooldown_max {
                report.violations.push(format!(
                    "cooldown {:?} exceeds the cap {:?}\n  trace: {}",
                    spec.cooldown,
                    cfg.cooldown_max,
                    fmt_trace(&trace)
                ));
                continue 'trace;
            }
            if visited.insert(spec.fingerprint(&cfg)) {
                report.states += 1;
            }
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Fan-out window: the shipped loop, two rounds sharing one window
// ---------------------------------------------------------------------------

/// Fault knobs for the fan-out model, mirroring the product checker's
/// pattern: each knob injects a bug class the shipped loop must not
/// have, and a unit test asserts the checker convicts it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FanoutKnobs {
    /// The driver's claim returns the call's slot but loses its
    /// completion, which a windowed loop must never do.
    pub drop_completion: bool,
}

/// Items are `(index, breaker open)`; drawing one skips an open target
/// before it takes a slot, as the recall fan-out's short-circuit does.
type Items = std::iter::Filter<std::vec::IntoIter<(usize, bool)>, fn(&(usize, bool)) -> bool>;

/// Two shipped [`Round`]s, whose calls are item indices, sharing one
/// shipped [`Window`].
#[derive(Debug, Clone)]
struct FanoutMachine {
    window: Window<usize>,
    rounds: [Round<Items, usize>; 2],
    /// Per round: the reachable items, the items whose completion was
    /// recorded (claimed, or failed at send), and whether it is done.
    live: [u64; 2],
    completed: [u64; 2],
    done: [bool; 2],
    knobs: FanoutKnobs,
}

impl Machine for FanoutMachine {
    /// A round to step, and whether a send it makes fails.
    type Action = (usize, bool);
    const DEPTH: usize = usize::MAX;

    /// Unfinished rounds that are not queued for a slot may step.
    fn enabled(&self) -> Vec<(usize, bool)> {
        let runnable = (0..2).filter(|&r| !self.done[r] && !self.window.queued(&r));
        runnable.flat_map(|r| [(r, false), (r, true)]).collect()
    }

    fn apply(&mut self, &(r, fail): &(usize, bool)) -> Result<(), String> {
        let completed = Cell::new(self.completed[r]);
        let complete = |i: usize| completed.set(completed.get() | 1 << i);
        let lose = self.knobs.drop_completion;
        let send = |(i, _): (usize, bool)| {
            if fail {
                complete(i);
            }
            (!fail).then_some(i)
        };
        let claim = |i| {
            if !lose {
                complete(i);
            }
        };
        let step = self.rounds[r].advance(&self.window, || r, send, claim, |_| {});
        self.completed[r] = completed.get();
        self.done[r] |= step == Step::Done;
        Ok(())
    }

    fn fingerprint(&self) -> String {
        format!("{self:?}")
    }

    fn check_new_state(&self) -> Vec<String> {
        let mut v = Vec::new();
        let in_flight: usize = self.rounds.iter().map(|round| round.in_flight().count()).sum();
        if in_flight > self.window.capacity() {
            v.push(format!("{in_flight} calls in flight exceeds the window"));
        }
        for r in 0..2 {
            if let Some(i) = self.rounds[r].in_flight().find(|&&i| self.live[r] & 1 << i == 0) {
                v.push(format!("breaker-open target {i} of round {r} holds a slot"));
            }
            let lost = self.live[r] & !self.completed[r];
            if self.done[r] && lost != 0 {
                v.push(format!("round {r} item {} never completed", lost.trailing_zeros()));
            }
        }
        if self.done.contains(&false) && self.enabled().is_empty() {
            v.push("stuck: every unfinished round is parked".to_string());
        }
        v
    }
}

/// Explores two rounds sharing one window, each stepped through the
/// shipped [`Round::advance`] and the window's decision, over every
/// interleaving of their steps and every pattern of failed sends: round
/// sizes 3+3 and 4+2, windows of 1, 2, n (both rounds' items) and
/// unbounded, and breaker-open targets per round of none, the first,
/// alternating and all. Checked in every reachable state: the **window
/// bound**, **breaker isolation** (an open target never holds a slot),
/// **completion** (a finished round recorded every completion) and **no
/// stuck state** (not every unfinished round is parked).
pub fn check_fanout_with(knobs: FanoutKnobs) -> ModelReport {
    let mut report = ModelReport { machine: "fanout", ..ModelReport::default() };
    let masks = |n: usize| [0, 1, 0b0101_0101 & ((1u64 << n) - 1), (1u64 << n) - 1];
    for sizes in [[3usize, 3], [4, 2]] {
        for window in [1, 2, sizes[0] + sizes[1], UNBOUNDED] {
            for open in masks(sizes[0]).into_iter().flat_map(|a| masks(sizes[1]).map(|b| [a, b])) {
                let round = |r: usize| {
                    let items: Vec<_> = (0..sizes[r]).map(|i| (i, open[r] & 1 << i != 0)).collect();
                    Round::new(items.into_iter().filter((|i| !i.1) as fn(&(usize, bool)) -> bool))
                };
                let live = |r: usize| ((1u64 << sizes[r]) - 1) & !open[r];
                let initial = FanoutMachine {
                    window: Window::new(window),
                    rounds: [round(0), round(1)],
                    live: [live(0), live(1)],
                    completed: [0; 2],
                    done: [false; 2],
                    knobs,
                };
                explore(
                    &mut report,
                    &format!("fanout {sizes:?}/{window}/{open:?}"),
                    initial,
                    usize::MAX,
                );
            }
        }
    }
    report
}

/// [`check_fanout_with`] with all fault knobs off — the shipped
/// configuration.
pub fn check_fanout() -> ModelReport {
    check_fanout_with(FanoutKnobs::default())
}

#[cfg(test)]
mod fanout_tests {
    use super::*;

    #[test]
    fn fanout_invariants_hold() {
        let report = check_fanout();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.states > 1_000, "only {} states", report.states);
    }

    #[test]
    fn dropped_completion_is_convicted() {
        let report = check_fanout_with(FanoutKnobs { drop_completion: true });
        let v = report.violations.first().expect("knob must convict");
        assert!(v.contains("never completed"), "unexpected violation: {v}");
    }
}
