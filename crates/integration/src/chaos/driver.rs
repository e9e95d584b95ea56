//! The chaos scenario driver: spins up a full simulated session, runs a
//! seeded multi-client workload while a controller actor executes the
//! crash events of a fault plan, and hands the recorded history to the
//! per-model oracles.
//!
//! A run is a pure function of ([`ScenarioConfig`], fault-event list):
//! all randomness comes from RNGs derived from the scenario seed, all
//! time is virtual, and the scheduler serializes every actor — the
//! returned [`ChaosReport::trace_hash`] is therefore bit-identical
//! across repeated runs of the same scenario, which CI checks on every
//! seed.

use crate::chaos::history::{
    encode_tag, make_tag, run_fingerprint, Event, History, Observation, FILE_LEN,
};
use crate::chaos::oracle::{self, Violation};
use crate::chaos::plan::{compile_fault_plans, generate_events, FaultEvent};
use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::delegation::DelegationKind;
use gvfs_core::session::{Faults, Session, SessionConfig};
use gvfs_core::{ConsistencyModel, DelegationConfig};
use gvfs_netsim::{Sim, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Polling period used by chaos polling scenarios.
pub const POLL_PERIOD: Duration = Duration::from_secs(5);
/// Poll back-off cap used by chaos polling scenarios.
pub const POLL_BACKOFF_MAX: Duration = Duration::from_secs(30);
/// Delegation renewal window used by chaos delegation scenarios.
pub const DELEG_RENEWAL: Duration = Duration::from_secs(20);
/// Delegation lease used by chaos delegation scenarios: a partitioned
/// holder blocks a conflicting writer for at most this long before the
/// server revokes it without a recall round trip.
pub const DELEG_LEASE: Duration = Duration::from_secs(30);
/// Bounded-staleness limit the degradation ladder enforces while a
/// chaos client's WAN breaker is open. The oracle's degraded-mode rule
/// is calibrated against this value.
pub const MAX_STALENESS: Duration = Duration::from_secs(30);
/// How long a breaker must stay open before chaos clients degrade.
pub const DEGRADE_AFTER: Duration = Duration::from_secs(2);

/// Which consistency model a scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Every RPC forwarded, no proxy caching.
    Passthrough,
    /// Invalidation polling, write-through.
    Polling,
    /// Delegation callbacks, write-back.
    Delegation,
}

impl ModelKind {
    /// All three models, in matrix order.
    pub const ALL: [ModelKind; 3] =
        [ModelKind::Passthrough, ModelKind::Polling, ModelKind::Delegation];

    /// Stable name for reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Passthrough => "passthrough",
            ModelKind::Polling => "polling",
            ModelKind::Delegation => "delegation",
        }
    }

    /// Parses [`ModelKind::name`] back.
    pub fn parse(s: &str) -> Option<ModelKind> {
        ModelKind::ALL.into_iter().find(|m| m.name() == s)
    }

    /// The session configuration a chaos run of this model uses.
    ///
    /// Polling runs write-through: under write-back the polling model
    /// only flushes at shutdown, which would make mid-run staleness
    /// unbounded by design rather than by fault.
    pub fn session_config(self) -> SessionConfig {
        match self {
            ModelKind::Passthrough => SessionConfig {
                model: ConsistencyModel::Passthrough,
                write_back: false,
                ..SessionConfig::default()
            },
            ModelKind::Polling => SessionConfig {
                model: ConsistencyModel::InvalidationPolling {
                    period: POLL_PERIOD,
                    backoff_max: Some(POLL_BACKOFF_MAX),
                },
                write_back: false,
                ..SessionConfig::default()
            },
            ModelKind::Delegation => SessionConfig {
                model: ConsistencyModel::DelegationCallback(DelegationConfig {
                    expiration: Duration::from_secs(90),
                    renewal: DELEG_RENEWAL,
                    lease: DELEG_LEASE,
                    ..DelegationConfig::default()
                }),
                write_back: true,
                degrade_after: DEGRADE_AFTER,
                max_staleness: Some(MAX_STALENESS),
                ..SessionConfig::default()
            },
        }
    }

    /// Undisturbed staleness bound the freshness oracle grants this
    /// model (fault windows extend it; see the oracle).
    pub fn staleness_base(self) -> Duration {
        match self {
            // One forwarded round trip plus scheduling slack.
            ModelKind::Passthrough => Duration::from_secs(8),
            // A full polling window, one backed-off window, and slack.
            ModelKind::Polling => POLL_PERIOD + POLL_BACKOFF_MAX + Duration::from_secs(5),
            // Recalls run before the conflicting write is acknowledged,
            // so an undisturbed run has near-zero staleness; the bound
            // only covers recall round trips and scheduling slack. It is
            // deliberately below the 20 s renewal window: a holder that
            // was *silently* revoked (which only a fault window or the
            // suppression knob can cause) serves stale data until its
            // renewal bypass, and the oracle must catch that unless a
            // fault window excuses it.
            ModelKind::Delegation => Duration::from_secs(12),
        }
    }

    /// Whether the workload restricts each file to one writing client.
    /// Without write delegations there is no cross-client write
    /// serialization, so the oracles could not order concurrent writers.
    pub fn single_writer_per_file(self) -> bool {
        !matches!(self, ModelKind::Delegation)
    }
}

/// Everything that parameterizes one chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Master seed: expands into the fault plan and every workload RNG.
    pub seed: u64,
    /// The consistency model under test.
    pub model: ModelKind,
    /// Client machines.
    pub clients: usize,
    /// Shared files (`/chaos-{i}`).
    pub files: usize,
    /// Operations each client performs.
    pub ops_per_client: usize,
    /// Breakage knob for the harness self-test: delegation recalls are
    /// silently swallowed, so holders are revoked without being told.
    pub suppress_recalls: bool,
}

impl ScenarioConfig {
    /// The default chaos scenario for `seed` and `model`.
    pub fn new(seed: u64, model: ModelKind) -> Self {
        ScenarioConfig {
            seed,
            model,
            clients: 3,
            files: 3,
            ops_per_client: 25,
            suppress_recalls: false,
        }
    }
}

/// The outcome of one chaos run.
#[derive(Debug)]
pub struct ChaosReport {
    /// The scenario seed.
    pub seed: u64,
    /// The model exercised.
    pub model: ModelKind,
    /// The fault-event list the run executed.
    pub events: Vec<FaultEvent>,
    /// The full recorded history.
    pub history: Vec<Event>,
    /// Final content of each chaos file, read out of band.
    pub final_tags: Vec<Observation>,
    /// Deterministic fingerprint of (history, final state).
    pub trace_hash: u64,
    /// Everything the oracles rejected; empty means the run is clean.
    pub violations: Vec<Violation>,
    /// The protocol-event trace (JSONL; see `gvfs_core::trace`), fed to
    /// `gvfs-analysis -- replay` for spec-conformance checking.
    pub protocol_trace: String,
}

fn worker_seed(seed: u64, client: usize) -> u64 {
    // Offset past the per-direction link seeds derived from the same
    // multiplier in `compile_fault_plans`.
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x1_0000 + client as u64)
}

fn sleep_until(t: SimTime) {
    let wait = t.saturating_since(gvfs_netsim::now());
    if !wait.is_zero() {
        gvfs_netsim::sleep(wait);
    }
}

/// Expands the seed into its fault-event list and runs the scenario.
pub fn run_scenario(cfg: &ScenarioConfig) -> ChaosReport {
    let events = generate_events(cfg.seed, cfg.clients);
    run_with_events(cfg, &events)
}

/// Runs the scenario under an explicit fault-event list (the shrinker
/// re-enters here with subsets of the generated list).
pub fn run_with_events(cfg: &ScenarioConfig, events: &[FaultEvent]) -> ChaosReport {
    let sim = Sim::new();
    let faults = Faults { suppress_recalls: cfg.suppress_recalls, ..Faults::default() };
    let session = Session::builder(cfg.model.session_config())
        .clients(cfg.clients)
        .faults(faults)
        .establish(&sim);
    let protocol_trace = session.install_trace();

    // Pre-populate the chaos files out of band, before virtual time
    // starts: every file begins as FILE_LEN zero bytes (tag 0).
    let vfs = Arc::clone(session.vfs());
    let t0 = gvfs_vfs::Timestamp::from_nanos(0);
    for f in 0..cfg.files {
        let id =
            vfs.create(vfs.root(), &format!("chaos-{f}"), 0o644, t0).expect("create chaos file");
        vfs.write(id, 0, &vec![0u8; FILE_LEN], t0).expect("initialize chaos file");
    }

    for (client, to_server, plan) in compile_fault_plans(cfg.seed, events) {
        session.wan_link(client).set_fault_plan(to_server, Some(plan));
    }

    let history = Arc::new(History::new());
    let done = Arc::new(AtomicUsize::new(0));
    let stop_sampler = Arc::new(AtomicBool::new(false));
    let session = Arc::new(session);

    for i in 0..cfg.clients {
        let transport = session.client_transport(i);
        let root = session.root_fh();
        let history = Arc::clone(&history);
        let done = Arc::clone(&done);
        let cfg = *cfg;
        sim.spawn(&format!("chaos-worker-{i}"), move || {
            gvfs_netsim::sleep(Duration::from_secs(2));
            let client = NfsClient::new(transport, root, MountOptions::noac());
            let mut fhs = Vec::with_capacity(cfg.files);
            for f in 0..cfg.files {
                let path = format!("/chaos-{f}");
                let mut tries = 0u32;
                loop {
                    match client.resolve(&path) {
                        Ok(fh) => {
                            fhs.push(fh);
                            break;
                        }
                        // The local proxy may be mid-crash; retry.
                        Err(_) if tries < 600 => {
                            tries += 1;
                            gvfs_netsim::sleep(Duration::from_secs(1));
                        }
                        Err(e) => panic!("chaos worker {i}: cannot resolve {path}: {e:?}"),
                    }
                }
            }
            let single_writer = cfg.model.single_writer_per_file();
            let mut rng = StdRng::seed_from_u64(worker_seed(cfg.seed, i));
            let mut seq = 0u64;
            for _ in 0..cfg.ops_per_client {
                gvfs_netsim::sleep(Duration::from_millis(rng.gen_range(400u64..6000)));
                let file = rng.gen_range(0..cfg.files);
                let wants_write = rng.gen_bool(0.45);
                if wants_write && (!single_writer || file % cfg.clients == i) {
                    seq += 1;
                    let tag = make_tag(i, seq);
                    let started = gvfs_netsim::now();
                    let outcome = client.write(fhs[file], 0, &encode_tag(tag));
                    let finished = gvfs_netsim::now();
                    history.push(match outcome {
                        Ok(()) => Event::WriteAcked { client: i, file, tag, started, finished },
                        Err(_) => Event::WriteFailed { client: i, file, tag, started, finished },
                    });
                } else {
                    let started = gvfs_netsim::now();
                    if let Ok(buf) = client.read(fhs[file], 0, FILE_LEN as u32) {
                        let finished = gvfs_netsim::now();
                        history.push(Event::Read {
                            client: i,
                            file,
                            observed: Observation::decode(&buf),
                            started,
                            finished,
                        });
                    }
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
        });
    }

    // Controller: executes the crash events at their scheduled instants.
    {
        let session = Arc::clone(&session);
        let history = Arc::clone(&history);
        let done = Arc::clone(&done);
        let crashes: Vec<FaultEvent> = events
            .iter()
            .copied()
            .filter(|e| {
                matches!(e, FaultEvent::ServerCrash { .. } | FaultEvent::ClientCrash { .. })
            })
            .collect();
        sim.spawn("chaos-controller", move || {
            for ev in crashes {
                match ev {
                    FaultEvent::ServerCrash { at_ms, down_ms } => {
                        sleep_until(SimTime::from_millis(at_ms));
                        session.crash_proxy_server();
                        history.push(Event::ServerCrashed { at: gvfs_netsim::now() });
                        gvfs_netsim::sleep(Duration::from_millis(down_ms));
                        let answered = session.restart_proxy_server();
                        history.push(Event::ServerRestarted { at: gvfs_netsim::now(), answered });
                    }
                    FaultEvent::ClientCrash { client, at_ms, down_ms } => {
                        sleep_until(SimTime::from_millis(at_ms));
                        session.crash_proxy_client(client);
                        history.push(Event::ClientCrashed { client, at: gvfs_netsim::now() });
                        gvfs_netsim::sleep(Duration::from_millis(down_ms));
                        let corrupted = session.restart_proxy_client(client).len();
                        history.push(Event::ClientRestarted {
                            client,
                            at: gvfs_netsim::now(),
                            corrupted,
                        });
                    }
                    FaultEvent::Partition { .. }
                    | FaultEvent::Drop { .. }
                    | FaultEvent::Duplicate { .. }
                    | FaultEvent::Jitter { .. } => {}
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
        });
    }

    // Exclusion sampler: under delegation, periodically checks the
    // server-side table for two concurrent holders with a writer among
    // them (outside recall/write-back transients) — the write-exclusion
    // invariant the model promises.
    if matches!(cfg.model, ModelKind::Delegation) {
        let session = Arc::clone(&session);
        let history = Arc::clone(&history);
        let stop = Arc::clone(&stop_sampler);
        sim.spawn("chaos-exclusion-sampler", move || loop {
            gvfs_netsim::park_timeout(Duration::from_secs(2));
            if stop.load(Ordering::SeqCst) {
                return;
            }
            for snap in session.proxy_server().delegation_snapshot() {
                let holders = snap.sharers.iter().filter(|(_, k)| k.is_some()).count();
                let writers = snap
                    .sharers
                    .iter()
                    .filter(|(_, k)| matches!(k, Some(DelegationKind::Write)))
                    .count();
                if writers >= 1 && holders >= 2 && snap.recalling == 0 && snap.pending.is_none() {
                    history.push(Event::ExclusionViolation {
                        at: gvfs_netsim::now(),
                        fh: snap.fh.fileid(),
                        sharers: holders,
                        writers,
                    });
                }
            }
        });
    }

    // Closer: once every worker and the controller are done, heal all
    // links, stop the sampler, and shut the session down (flushing any
    // delayed writes).
    {
        let session = Arc::clone(&session);
        let done = Arc::clone(&done);
        let stop = Arc::clone(&stop_sampler);
        let handle = session.handle();
        let total = cfg.clients + 1;
        let clients = cfg.clients;
        sim.spawn("chaos-closer", move || {
            loop {
                gvfs_netsim::park_timeout(Duration::from_secs(1));
                if done.load(Ordering::SeqCst) >= total {
                    break;
                }
            }
            for i in 0..clients {
                let link = session.wan_link(i);
                link.set_partitioned(false);
                link.clear_fault_plans();
            }
            stop.store(true, Ordering::SeqCst);
            handle.shutdown();
        });
    }

    sim.run();

    let mut final_tags = Vec::with_capacity(cfg.files);
    for f in 0..cfg.files {
        let id = vfs.lookup_path(&format!("/chaos-{f}")).expect("chaos file still present");
        let (buf, _eof) = vfs.read(id, 0, FILE_LEN as u32).expect("read final state");
        final_tags.push(Observation::decode(&buf));
    }

    let history = history.events();
    let violations = oracle::check(cfg.model, events, &history, &final_tags);
    let hash = run_fingerprint(&history, &final_tags);
    ChaosReport {
        seed: cfg.seed,
        model: cfg.model,
        events: events.to_vec(),
        history,
        final_tags,
        trace_hash: hash,
        violations,
        protocol_trace: protocol_trace.to_jsonl(),
    }
}
