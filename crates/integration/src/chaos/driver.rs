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

use crate::chaos::harness::{sleep_until, ChaosReport, Run};
use crate::chaos::history::{Event, FILE_LEN};
use crate::chaos::oracle;
use crate::chaos::plan::{generate_events, FaultEvent};
use gvfs_core::delegation::DelegationKind;
use gvfs_core::session::{Faults, SessionConfig};
use gvfs_core::{ConsistencyModel, DelegationConfig};
use gvfs_netsim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
            ModelKind::Passthrough => SessionConfig::default(),
            ModelKind::Polling => SessionConfig {
                model: ConsistencyModel::InvalidationPolling {
                    period: POLL_PERIOD,
                    backoff_max: Some(POLL_BACKOFF_MAX),
                },
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

fn worker_seed(seed: u64, client: usize) -> u64 {
    // Offset past the per-direction link seeds derived from the same
    // multiplier in `compile_fault_plans`.
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x1_0000 + client as u64)
}

/// Expands the seed into its fault-event list and runs the scenario.
pub fn run_scenario(cfg: &ScenarioConfig) -> ChaosReport {
    let events = generate_events(cfg.seed, cfg.clients);
    run_with_events(cfg, &events)
}

/// Runs the scenario under an explicit fault-event list (the shrinker
/// re-enters here with subsets of the generated list).
pub fn run_with_events(cfg: &ScenarioConfig, events: &[FaultEvent]) -> ChaosReport {
    let faults = Faults { suppress_recalls: cfg.suppress_recalls, ..Faults::default() };
    let mut run = Run::new(cfg.seed, cfg.model, cfg.model.session_config(), cfg.clients, faults);
    // Every chaos file begins as FILE_LEN zero bytes (tag 0).
    let files: Vec<String> = (0..cfg.files).map(|f| format!("chaos-{f}")).collect();
    for name in &files {
        run.seed_file(name, &[0u8; FILE_LEN]);
    }
    run.inject(events);

    for i in 0..cfg.clients {
        let cfg = *cfg;
        run.actor(&format!("chaos-worker-{i}"), move |ctx| {
            gvfs_netsim::sleep(Duration::from_secs(2));
            let client = ctx.mount(i);
            let mut fhs = Vec::with_capacity(cfg.files);
            for f in 0..cfg.files {
                let path = format!("/chaos-{f}");
                let mut tries = 0u32;
                loop {
                    match client.nfs.resolve(&path) {
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
                let when = gvfs_netsim::now() + Duration::from_millis(rng.gen_range(400u64..6000));
                let file = rng.gen_range(0..cfg.files);
                let wants_write = rng.gen_bool(0.45);
                if wants_write && (!single_writer || file % cfg.clients == i) {
                    seq += 1;
                    client.write(fhs[file], file, seq, when);
                } else {
                    client.read(fhs[file], file, when);
                }
            }
        });
    }

    // Controller: executes the crash events at their scheduled instants.
    let crashes: Vec<FaultEvent> = events
        .iter()
        .copied()
        .filter(|e| matches!(e, FaultEvent::ServerCrash { .. } | FaultEvent::ClientCrash { .. }))
        .collect();
    run.actor("chaos-controller", move |ctx| {
        let session = &ctx.session;
        for ev in crashes {
            match ev {
                FaultEvent::ServerCrash { at_ms, down_ms } => {
                    sleep_until(SimTime::from_millis(at_ms));
                    session.crash_proxy_server();
                    ctx.record(Event::ServerCrashed { at: gvfs_netsim::now() });
                    gvfs_netsim::sleep(Duration::from_millis(down_ms));
                    let answered = session.restart_proxy_server();
                    ctx.record(Event::ServerRestarted { at: gvfs_netsim::now(), answered });
                }
                FaultEvent::ClientCrash { client, at_ms, down_ms } => {
                    sleep_until(SimTime::from_millis(at_ms));
                    session.crash_proxy_client(client);
                    ctx.record(Event::ClientCrashed { client, at: gvfs_netsim::now() });
                    gvfs_netsim::sleep(Duration::from_millis(down_ms));
                    let corrupted = session.restart_proxy_client(client).len();
                    ctx.record(Event::ClientRestarted {
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
    });

    // Exclusion sampler: under delegation, periodically checks the
    // server-side table for two concurrent holders with a writer among
    // them (outside recall/write-back transients) — the write-exclusion
    // invariant the model promises.
    if matches!(cfg.model, ModelKind::Delegation) {
        run.background("chaos-exclusion-sampler", |ctx| loop {
            gvfs_netsim::park_timeout(Duration::from_secs(2));
            if ctx.closed() {
                return;
            }
            for snap in ctx.session.proxy_server().delegation_snapshot() {
                let holders = snap.sharers.iter().filter(|(_, k)| k.is_some()).count();
                let writers = snap
                    .sharers
                    .iter()
                    .filter(|(_, k)| matches!(k, Some(DelegationKind::Write)))
                    .count();
                if writers >= 1 && holders >= 2 && snap.recalling == 0 && snap.pending.is_none() {
                    ctx.record(Event::ExclusionViolation {
                        at: gvfs_netsim::now(),
                        fh: snap.fh.fileid(),
                        sharers: holders,
                        writers,
                    });
                }
            }
        });
    }

    // The closer heals every link and stops the sampler before shutdown
    // flushes any delayed writes.
    let heal: Vec<usize> = (0..cfg.clients).collect();
    let files: Vec<&str> = files.iter().map(String::as_str).collect();
    let mut report = run.finish(&heal, &files);
    report.violations = oracle::check(cfg.model, events, &report.history, &report.final_tags);
    report
}
