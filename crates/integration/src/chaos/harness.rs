//! The run harness every chaos scenario is built on, and the one report
//! type every run returns.
//!
//! A scenario establishes a `Run`, seeds its files out of band,
//! installs its fault plans, spawns its actors, and calls
//! `Run::finish`. The harness owns everything in between: the shared
//! [`History`], the count of finished actors, the closer that waits for
//! them (healing the named WAN links and shutting the session down,
//! which flushes delayed writes), the out-of-band read of the final
//! tags, and the fingerprint. The scenario then adds its own checks to
//! [`ChaosReport::violations`].

use crate::chaos::driver::ModelKind;
use crate::chaos::history::{
    encode_tag, make_tag, run_fingerprint, Event, History, Observation, FILE_LEN,
};
use crate::chaos::oracle::Violation;
use crate::chaos::plan::{compile_fault_plans, FaultEvent};
use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::proxy::client::ProxyClientStats;
use gvfs_core::proxy::BLOCK_SIZE;
use gvfs_core::session::{Faults, Session, SessionConfig};
use gvfs_core::trace::TraceBuffer;
use gvfs_netsim::{Sim, SimTime};
use gvfs_nfs3::Fh3;
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The outcome of one chaos run, randomized or scripted.
#[derive(Debug)]
pub struct ChaosReport {
    /// The scenario seed.
    pub seed: u64,
    /// The model exercised (every scripted scenario runs delegation).
    pub model: ModelKind,
    /// The fault-event list the run executed.
    pub events: Vec<FaultEvent>,
    /// Client 0's proxy statistics at shutdown.
    pub stats: ProxyClientStats,
    /// Client 0's WAN breaker trip count.
    pub breaker_trips: u64,
    /// The full recorded history.
    pub history: Vec<Event>,
    /// Final content of the scenario's tag files, read out of band.
    pub final_tags: Vec<Observation>,
    /// Deterministic fingerprint of (history, final state).
    pub trace_hash: u64,
    /// Everything the oracles and the scenario's own checks rejected;
    /// empty means the run is clean.
    pub violations: Vec<Violation>,
    /// The protocol-event trace (JSONL; see `gvfs_core::trace`), fed to
    /// `gvfs-analysis -- replay` for spec-conformance checking.
    pub protocol_trace: String,
    /// The scenario-specific values its checks and tests read.
    pub extras: Extras,
}

/// Scenario-specific report values; a scenario that does not measure
/// one leaves it at its default.
#[derive(Debug, Clone, Default)]
pub struct Extras {
    /// Handles whose dirty data the restart discarded as corrupted
    /// (crash-restart).
    pub corrupted: Vec<Fh3>,
    /// Stored files the operator rotted (disk-corruption).
    pub corrupted_paths: usize,
}

/// Sleeps the calling actor until virtual time `t` (no-op if past).
pub(crate) fn sleep_until(t: SimTime) {
    let wait = t.saturating_since(gvfs_netsim::now());
    if !wait.is_zero() {
        gvfs_netsim::sleep(wait);
    }
}

/// One chaos run being assembled: a session on a fresh simulator, with
/// the protocol trace installed.
pub(crate) struct Run {
    sim: Sim,
    seed: u64,
    model: ModelKind,
    events: Vec<FaultEvent>,
    trace: Arc<TraceBuffer>,
    ctx: Ctx,
    done: Arc<AtomicUsize>,
    actors: usize,
}

impl Run {
    /// Establishes a session of `clients` machines under `config`.
    pub fn new(
        seed: u64,
        model: ModelKind,
        config: SessionConfig,
        clients: usize,
        faults: Faults,
    ) -> Run {
        let sim = Sim::new();
        let session = Session::builder(config).clients(clients).faults(faults).establish(&sim);
        let trace = session.install_trace();
        Run {
            sim,
            seed,
            model,
            events: Vec::new(),
            trace,
            ctx: Ctx {
                session: Arc::new(session),
                history: Arc::new(History::new()),
                closed: Arc::new(AtomicBool::new(false)),
                extras: Arc::new(Mutex::new(Extras::default())),
            },
            done: Arc::new(AtomicUsize::new(0)),
            actors: 0,
        }
    }

    /// Creates `/name` holding `content`, out of band, before virtual
    /// time starts.
    pub fn seed_file(&self, name: &str, content: &[u8]) {
        let vfs = self.ctx.session.vfs();
        let t0 = gvfs_vfs::Timestamp::from_nanos(0);
        let id = vfs.create(vfs.root(), name, 0o644, t0).expect("create scenario file");
        vfs.write(id, 0, content, t0).expect("initialize scenario file");
    }

    /// Installs the WAN fault plans `events` compile to; the report
    /// carries the list for the oracle.
    pub fn inject(&mut self, events: &[FaultEvent]) {
        for (client, to_server, plan) in compile_fault_plans(self.seed, events) {
            self.ctx.session.wan_link(client).set_fault_plan(to_server, Some(plan));
        }
        self.events = events.to_vec();
    }

    /// Spawns an actor the closer waits for.
    pub fn actor(&mut self, name: &str, f: impl FnOnce(&Ctx) + Send + 'static) {
        self.actors += 1;
        let ctx = self.ctx.clone();
        let done = Arc::clone(&self.done);
        self.sim.spawn(name, move || {
            f(&ctx);
            done.fetch_add(1, Ordering::SeqCst);
        });
    }

    /// Spawns an actor the closer does not wait for (a sampler or a
    /// link partitioner).
    pub fn background(&self, name: &str, f: impl FnOnce(&Ctx) + Send + 'static) {
        let ctx = self.ctx.clone();
        self.sim.spawn(name, move || f(&ctx));
    }

    /// Runs the simulation: once every [`Run::actor`] is done, a closer
    /// heals the WAN links of the `heal` clients, marks the run closed
    /// and shuts the session down. Then reads the final content of the
    /// `finals` tag files and fingerprints the run. The report's
    /// violations start empty.
    pub fn finish(self, heal: &[usize], finals: &[&str]) -> ChaosReport {
        let Run { sim, seed, model, events, trace, ctx, done, actors } = self;
        {
            let ctx = ctx.clone();
            let handle = ctx.session.handle();
            let heal = heal.to_vec();
            sim.spawn("chaos-closer", move || {
                loop {
                    gvfs_netsim::park_timeout(Duration::from_secs(1));
                    if done.load(Ordering::SeqCst) >= actors {
                        break;
                    }
                }
                for i in heal {
                    let link = ctx.session.wan_link(i);
                    link.set_partitioned(false);
                    link.clear_fault_plans();
                }
                ctx.closed.store(true, Ordering::SeqCst);
                handle.shutdown();
            });
        }
        sim.run();

        let vfs = ctx.session.vfs();
        let final_tags: Vec<Observation> = finals
            .iter()
            .map(|name| {
                let id = vfs.lookup_path(&format!("/{name}")).expect("scenario file still present");
                let (buf, _eof) = vfs.read(id, 0, FILE_LEN as u32).expect("read final state");
                Observation::decode(&buf)
            })
            .collect();
        let history = ctx.history.events();
        let extras = ctx.extras.lock().clone();
        ChaosReport {
            seed,
            model,
            events,
            stats: ctx.session.proxy_client(0).stats(),
            breaker_trips: ctx.session.proxy_client(0).breaker().trips(),
            trace_hash: run_fingerprint(&history, &final_tags),
            history,
            final_tags,
            violations: Vec::new(),
            protocol_trace: trace.to_jsonl(),
            extras,
        }
    }
}

/// What every actor of a run shares.
#[derive(Clone)]
pub(crate) struct Ctx {
    /// The session under test.
    pub session: Arc<Session>,
    history: Arc<History>,
    closed: Arc<AtomicBool>,
    extras: Arc<Mutex<Extras>>,
}

impl Ctx {
    /// A fresh `noac` mount on machine `id`, recording its ops as
    /// client `id`.
    pub fn mount(&self, id: usize) -> Client {
        let nfs = NfsClient::new(
            self.session.client_transport(id),
            self.session.root_fh(),
            MountOptions::noac(),
        );
        Client { nfs, history: Arc::clone(&self.history), id }
    }

    /// Appends one event to the history.
    pub fn record(&self, event: Event) {
        self.history.push(event);
    }

    /// Whether the closer has run (every waited-for actor is done).
    pub fn closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// The report's scenario-specific values, for an actor to fill in.
    pub fn extras(&self) -> MutexGuard<'_, Extras> {
        self.extras.lock()
    }
}

/// A mount whose reads and writes land in the run's history, each
/// issued at a given virtual instant.
pub(crate) struct Client {
    /// The kernel NFS client.
    pub nfs: NfsClient,
    history: Arc<History>,
    id: usize,
}

impl Client {
    /// Resolves `path`, which must succeed.
    pub fn resolve(&self, path: &str) -> Fh3 {
        self.nfs.resolve(path).unwrap_or_else(|e| panic!("resolve {path}: {e:?}"))
    }

    /// Writes this client's `seq`-th tag over the whole tag file `fh`.
    pub fn write(&self, fh: Fh3, file: usize, seq: u64, when: SimTime) {
        let tag = make_tag(self.id, seq);
        self.write_bytes(fh, file, tag, &encode_tag(tag), when);
    }

    /// Writes `data` at offset 0 of `fh`, recorded as a write of `tag`.
    pub fn write_bytes(&self, fh: Fh3, file: usize, tag: u64, data: &[u8], when: SimTime) {
        sleep_until(when);
        let (client, started) = (self.id, gvfs_netsim::now());
        let outcome = self.nfs.write(fh, 0, data);
        let finished = gvfs_netsim::now();
        self.history.push(match outcome {
            Ok(()) => Event::WriteAcked { client, file, tag, started, finished },
            Err(_) => Event::WriteFailed { client, file, tag, started, finished },
        });
    }

    /// Reads the whole tag file `fh`.
    pub fn read(&self, fh: Fh3, file: usize, when: SimTime) {
        self.read_as(fh, file, 0, FILE_LEN, Observation::decode, when);
    }

    /// Reads block `block` of a file filled with one byte per version:
    /// a uniform block observes that byte as its tag, anything else is
    /// torn.
    pub fn read_block(&self, fh: Fh3, file: usize, block: u64, when: SimTime) {
        let decode = |buf: &[u8]| match buf.first() {
            Some(&b) if buf.len() == BLOCK_SIZE as usize && buf.iter().all(|&x| x == b) => {
                Observation::Tag(u64::from(b))
            }
            _ => Observation::Torn,
        };
        self.read_as(fh, file, block * BLOCK_SIZE, BLOCK_SIZE as usize, decode, when);
    }

    fn read_as(
        &self,
        fh: Fh3,
        file: usize,
        offset: u64,
        len: usize,
        decode: impl Fn(&[u8]) -> Observation,
        when: SimTime,
    ) {
        sleep_until(when);
        let started = gvfs_netsim::now();
        if let Ok(buf) = self.nfs.read(fh, offset, len as u32) {
            let finished = gvfs_netsim::now();
            let observed = decode(&buf);
            self.history.push(Event::Read { client: self.id, file, observed, started, finished });
        }
    }
}
