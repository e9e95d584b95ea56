//! Scripted chaos scenarios: deterministic, hand-laid-out fault
//! timelines that exercise one resilience mechanism end to end, in
//! contrast to [`super::driver`]'s seed-randomized workloads.
//!
//! The first scenario is **partition-heal**: a
//! delegation client with dirty write-back data loses its WAN link for
//! ~35 s of virtual time, rides the degradation ladder (breaker opens →
//! bounded-staleness cached reads, local write acknowledgement), is
//! revoked server-side so a conflicting reader is never blocked past
//! the outage, and is then re-promoted after the heal — replaying every
//! acknowledged write, so nothing is lost. The recorded history goes
//! through the same per-model oracle as the randomized runs (including
//! the degraded-mode staleness cap), and the report carries the ladder
//! counters the harness asserts on.
//!
//! The second is **crash-restart**: a write-back client on a persistent
//! block store is killed mid-write-back — after a durability barrier
//! covered some of its dirty data but not the latest write — and
//! restarted on the same virtual disk. The store must reopen to an
//! exact historical state: the synced write survives and reconciles to
//! the server, the never-synced write vanishes entirely (it was never
//! acknowledged durable by a barrier), and no reader anywhere observes
//! a torn block or the discarded write's data.
//!
//! The fourth (after **peer-partition** below) is **disk-corruption**:
//! silent media rot lands on a client's persistent store — one flipped
//! byte in every stored file, plus a seeded [`DiskFaultPlan`] of torn
//! writes and read-time bit rot — and verify-on-read plus the
//! background scrubber must quarantine and repair every mismatch
//! before any reader observes it.
//!
//! [`DiskFaultPlan`]: gvfs_netsim::disk::DiskFaultPlan

use crate::chaos::driver::ModelKind;
use crate::chaos::history::{
    encode_tag, make_tag, run_fingerprint, trace_hash, Event, History, Observation, FILE_LEN,
};
use crate::chaos::oracle::{self, Violation};
use crate::chaos::plan::{compile_fault_plans, FaultEvent};
use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::session::{Faults, Session};
use gvfs_netsim::{Sim, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// When the partition window on client 0's WAN link opens.
pub const PARTITION_AT: Duration = Duration::from_secs(30);
/// How long the partition lasts. Ends well before the verification
/// phase so even the slowest breaker probe schedule re-promotes first.
pub const PARTITION_FOR: Duration = Duration::from_secs(35);

/// The outcome of one partition-heal run.
#[derive(Debug)]
pub struct PartitionHealReport {
    /// The scenario seed (jitters the op schedule, not the structure).
    pub seed: u64,
    /// Client 0's proxy statistics at shutdown.
    pub writer_stats: gvfs_core::proxy::client::ProxyClientStats,
    /// Client 0's WAN breaker trip count.
    pub breaker_trips: u64,
    /// The fault-event list (one partition window) the oracle judged.
    pub events: Vec<FaultEvent>,
    /// The full recorded history.
    pub history: Vec<Event>,
    /// Final content of `/heal-0` and `/heal-1`, read out of band.
    pub final_tags: Vec<Observation>,
    /// Deterministic fingerprint of (history, final state).
    pub trace_hash: u64,
    /// Oracle rejections plus scenario-specific checks; empty = clean.
    pub violations: Vec<Violation>,
    /// The protocol-event trace (JSONL; see `gvfs_core::trace`), fed to
    /// `gvfs-analysis -- replay` for spec-conformance checking.
    pub protocol_trace: String,
}

/// The tag the partitioned writer must land as the final content of
/// `/heal-0` (its last acknowledged write, issued after re-promotion).
pub fn final_writer_tag() -> u64 {
    make_tag(0, 6)
}

/// The tag the healthy client lands as the final content of `/heal-1`.
pub fn final_partner_tag() -> u64 {
    make_tag(1, 2)
}

fn sleep_until(t: SimTime) {
    let wait = t.saturating_since(gvfs_netsim::now());
    if !wait.is_zero() {
        gvfs_netsim::sleep(wait);
    }
}

/// An op instant: the scripted second plus a little seeded jitter, so
/// the 32-seed matrix explores distinct interleavings without moving
/// any op across a phase boundary.
fn at(rng: &mut StdRng, secs: u64) -> SimTime {
    SimTime::from_millis(secs * 1000 + rng.gen_range(0u64..200))
}

struct Scripted<'a> {
    client: &'a NfsClient,
    history: &'a History,
    id: usize,
}

impl Scripted<'_> {
    fn write(&self, fh: gvfs_nfs3::Fh3, file: usize, seq: u64, when: SimTime) {
        sleep_until(when);
        let tag = make_tag(self.id, seq);
        let started = gvfs_netsim::now();
        let outcome = self.client.write(fh, 0, &encode_tag(tag));
        let finished = gvfs_netsim::now();
        self.history.push(match outcome {
            Ok(()) => Event::WriteAcked { client: self.id, file, tag, started, finished },
            Err(_) => Event::WriteFailed { client: self.id, file, tag, started, finished },
        });
    }

    fn read(&self, fh: gvfs_nfs3::Fh3, file: usize, when: SimTime) {
        sleep_until(when);
        let started = gvfs_netsim::now();
        if let Ok(buf) = self.client.read(fh, 0, FILE_LEN as u32) {
            let finished = gvfs_netsim::now();
            self.history.push(Event::Read {
                client: self.id,
                file,
                observed: Observation::decode(&buf),
                started,
                finished,
            });
        }
    }
}

/// Runs the partition-heal scenario for `seed`.
///
/// Phase map (virtual seconds; every op carries ≤200 ms seeded jitter):
///
/// - **0–29 warm-up**: client 1 seeds `/heal-1`; client 0 forwards one
///   write to `/heal-0` (acquiring a write delegation and a
///   server-stamped write-back base), acknowledges two more locally,
///   and re-validates `/heal-1` just before the window opens.
/// - **30–65 partition**: client 0's link is cut. A canary lookup trips
///   the breaker within seconds; client 0 keeps acknowledging writes
///   into the write-back cache and, once its delegation's renewal
///   lapses, serves reads under the bounded-staleness rung. Client 1
///   writes `/heal-1` and reads `/heal-0` — the recalls aimed at the
///   unreachable holder fail fast and revoke it, so client 1 is never
///   blocked on the dead link.
/// - **65+ heal**: a supervisor probe (or the canary's own retry)
///   closes the breaker; re-promotion drains invalidations, drops the
///   revoked delegations, and replays the dirty write-back data (the
///   server copy is provably unchanged). The verification phase at
///   110 s+ then lands one forwarded write per client and cross-reads
///   both files fresh.
pub fn run_partition_heal(seed: u64) -> PartitionHealReport {
    let sim = Sim::new();
    let session =
        Session::builder(ModelKind::Delegation.session_config()).clients(2).establish(&sim);
    let protocol_trace = session.install_trace();

    // Pre-populate out of band: both files start as FILE_LEN zeros
    // (tag 0), plus a canary file nobody caches before the partition.
    let vfs = Arc::clone(session.vfs());
    let t0 = gvfs_vfs::Timestamp::from_nanos(0);
    for name in ["heal-0", "heal-1", "heal-canary"] {
        let id = vfs.create(vfs.root(), name, 0o644, t0).expect("create scenario file");
        vfs.write(id, 0, &vec![0u8; FILE_LEN], t0).expect("initialize scenario file");
    }

    let events = vec![FaultEvent::Partition {
        client: 0,
        at_ms: PARTITION_AT.as_millis() as u64,
        dur_ms: PARTITION_FOR.as_millis() as u64,
    }];
    for (client, to_server, plan) in compile_fault_plans(seed, &events) {
        session.wan_link(client).set_fault_plan(to_server, Some(plan));
    }

    let history = Arc::new(History::new());
    let done = Arc::new(AtomicUsize::new(0));
    let session = Arc::new(session);

    // Client 0: the writer that rides the ladder through the outage.
    {
        let transport = session.client_transport(0);
        let root = session.root_fh();
        let history = Arc::clone(&history);
        let done = Arc::clone(&done);
        sim.spawn("heal-writer", move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(3).wrapping_add(1));
            sleep_until(at(&mut rng, 2));
            let client = NfsClient::new(transport, root, MountOptions::noac());
            let w = client.resolve("/heal-0").expect("resolve /heal-0");
            let r = client.resolve("/heal-1").expect("resolve /heal-1");
            let s = Scripted { client: &client, history: &history, id: 0 };

            // Warm-up: forwarded write seeds the delegation and the
            // write-back base; the next two acknowledge locally.
            s.write(w, 0, 1, at(&mut rng, 4));
            s.read(r, 1, at(&mut rng, 6));
            s.write(w, 0, 2, at(&mut rng, 8));
            s.write(w, 0, 3, at(&mut rng, 20));
            // Re-validate /heal-1 just before the window: the renewal
            // has lapsed, so this read forwards and refreshes the
            // degraded-serving validation point.
            s.read(r, 1, at(&mut rng, 27));

            // Partition [30, 65): delayed writes keep acknowledging
            // locally; reads serve from the delegation until its
            // renewal lapses at ~47 s, then from the ladder's
            // bounded-staleness rung (the breaker tripped at ~34 s).
            s.write(w, 0, 4, at(&mut rng, 35));
            s.read(r, 1, at(&mut rng, 42));
            s.write(w, 0, 5, at(&mut rng, 43));
            s.read(r, 1, at(&mut rng, 48));
            s.read(r, 1, at(&mut rng, 51));
            s.read(r, 1, at(&mut rng, 54));

            // Verification, far past the slowest possible re-promotion
            // schedule: a forwarded write and a fresh cross-read.
            s.write(w, 0, 6, at(&mut rng, 115));
            s.read(r, 1, at(&mut rng, 120));
            done.fetch_add(1, Ordering::SeqCst);
        });
    }

    // Client 0's canary: one lookup of a never-cached file, started
    // just inside the window. Its fast-failing retries trip the breaker
    // long before the scripted reads need the degraded rung; it then
    // blocks like a hard mount and completes after the heal.
    {
        let transport = session.client_transport(0);
        let root = session.root_fh();
        let done = Arc::clone(&done);
        sim.spawn("heal-canary", move || {
            sleep_until(SimTime::from_millis(31_000));
            let client = NfsClient::new(transport, root, MountOptions::noac());
            client.resolve("/heal-canary").expect("canary resolves after the heal");
            done.fetch_add(1, Ordering::SeqCst);
        });
    }

    // Client 1: the healthy partner that must never block on client
    // 0's dead link.
    {
        let transport = session.client_transport(1);
        let root = session.root_fh();
        let history = Arc::clone(&history);
        let done = Arc::clone(&done);
        sim.spawn("heal-partner", move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(3).wrapping_add(2));
            sleep_until(at(&mut rng, 2));
            let client = NfsClient::new(transport, root, MountOptions::noac());
            let w = client.resolve("/heal-0").expect("resolve /heal-0");
            let r = client.resolve("/heal-1").expect("resolve /heal-1");
            let s = Scripted { client: &client, history: &history, id: 1 };

            s.write(r, 1, 1, at(&mut rng, 3));
            // Mid-partition: this write recalls client 0's read
            // delegation and the read recalls its write delegation;
            // both recalls fail fast and revoke the unreachable holder.
            s.write(r, 1, 2, at(&mut rng, 40));
            s.read(w, 0, at(&mut rng, 45));
            s.read(w, 0, at(&mut rng, 70));
            // Verification: the replayed write-back data and the
            // post-heal forwarded write must both be visible.
            s.read(w, 0, at(&mut rng, 120));
            done.fetch_add(1, Ordering::SeqCst);
        });
    }

    // Closer: waits for all three actors, heals the link, shuts down
    // (flushing any remaining delayed writes).
    {
        let session = Arc::clone(&session);
        let done = Arc::clone(&done);
        let handle = session.handle();
        sim.spawn("heal-closer", move || {
            loop {
                gvfs_netsim::park_timeout(Duration::from_secs(1));
                if done.load(Ordering::SeqCst) >= 3 {
                    break;
                }
            }
            let link = session.wan_link(0);
            link.set_partitioned(false);
            link.clear_fault_plans();
            handle.shutdown();
        });
    }

    sim.run();

    let writer_stats = session.proxy_client(0).stats();
    let breaker_trips = session.proxy_client(0).breaker().trips();

    let mut final_tags = Vec::with_capacity(2);
    for name in ["/heal-0", "/heal-1"] {
        let id = vfs.lookup_path(name).expect("scenario file still present");
        let (buf, _eof) = vfs.read(id, 0, FILE_LEN as u32).expect("read final state");
        final_tags.push(Observation::decode(&buf));
    }

    let history = history.events();
    let mut violations = oracle::check(ModelKind::Delegation, &events, &history, &final_tags);

    // Scenario-specific checks, on top of the oracle: the ladder must
    // actually have engaged, the heal must have re-promoted, and no
    // acknowledged write may be lost across the outage — the randomized
    // oracle excuses a partitioned writer's data, the scripted scenario
    // does not.
    if writer_stats.degraded_reads == 0 {
        violations.push(Violation {
            kind: oracle::ViolationKind::StaleRead,
            detail: "degradation ladder never served a bounded-staleness read".into(),
        });
    }
    if writer_stats.repromotions == 0 {
        violations.push(Violation {
            kind: oracle::ViolationKind::FinalState,
            detail: "supervisor never re-promoted the session after the heal".into(),
        });
    }
    if breaker_trips == 0 {
        violations.push(Violation {
            kind: oracle::ViolationKind::StaleRead,
            detail: "WAN breaker never tripped during the partition".into(),
        });
    }
    let expected = [final_writer_tag(), final_partner_tag()];
    for (file, (&obs, &want)) in final_tags.iter().zip(expected.iter()).enumerate() {
        if obs != Observation::Tag(want) {
            violations.push(Violation {
                kind: oracle::ViolationKind::FinalState,
                detail: format!(
                    "acknowledged write lost across re-promotion: file {file} ended as \
                     {obs:?}, expected tag {want:#x}"
                ),
            });
        }
    }

    let hash = run_fingerprint(&history, &final_tags);
    PartitionHealReport {
        seed,
        writer_stats,
        breaker_trips,
        events,
        history,
        final_tags,
        trace_hash: hash,
        violations,
        protocol_trace: protocol_trace.to_jsonl(),
    }
}

/// The outcome of one crash-restart run.
#[derive(Debug)]
pub struct CrashRestartReport {
    /// The scenario seed (jitters the op schedule, not the structure).
    pub seed: u64,
    /// Client 0's proxy statistics at shutdown (carries the store's
    /// `restart_warm_blocks` from the reopen).
    pub writer_stats: gvfs_core::proxy::client::ProxyClientStats,
    /// Handles whose dirty data the restart discarded as corrupted —
    /// must be empty: the server copy never moved during the outage.
    pub corrupted: Vec<gvfs_nfs3::Fh3>,
    /// The full recorded history.
    pub history: Vec<Event>,
    /// Final content of `/crash-0`, read out of band.
    pub final_tag: Observation,
    /// Deterministic fingerprint of (history, final state).
    pub trace_hash: u64,
    /// Scenario-specific oracle rejections; empty = clean.
    pub violations: Vec<Violation>,
    /// The protocol-event trace (JSONL), for conformance replay.
    pub protocol_trace: String,
}

/// The tag client 0 lands as the final content of `/crash-0`.
pub fn final_crash_tag() -> u64 {
    make_tag(0, 4)
}

/// The write the crash must discard: acknowledged into the write-back
/// cache after the last durability barrier, never synced.
pub fn lost_crash_tag() -> u64 {
    make_tag(0, 3)
}

/// Runs the crash-restart scenario for `seed`.
///
/// Phase map (virtual seconds; every op carries ≤200 ms seeded jitter):
///
/// - **0–11 accumulate**: client 0 forwards one write to `/crash-0`
///   (delegation + write-back base), reads `/crash-1` (a clean block in
///   the persistent store), acknowledges write 2 locally, and hits a
///   durability barrier (`sync_store`) at 8 s. Write 3 lands at 10 s —
///   dirty in the cache, WAL record appended but **not** synced.
/// - **12 crash**: the proxy machine dies. The virtual disk keeps only
///   what the barrier covered, plus a torn fragment of write 3's WAL
///   record.
/// - **16 restart**: the store reopens from disk — replay stops at the
///   torn record, so write 2's dirty bytes and `/crash-1`'s clean block
///   come back and write 3 is gone — then crash recovery reconciles the
///   surviving dirty data against the (unchanged) server.
/// - **20+ verify**: client 1 cross-reads `/crash-0` (must see write 2,
///   then write 4, never write 3 or a torn block), client 0 lands one
///   more forwarded write, and a final out-of-band read pins the end
///   state.
pub fn run_crash_restart(seed: u64) -> CrashRestartReport {
    let sim = Sim::new();
    let mut config = ModelKind::Delegation.session_config();
    config.persistent_store = true;
    let session = Session::builder(config).clients(2).establish(&sim);
    let protocol_trace = session.install_trace();

    let vfs = Arc::clone(session.vfs());
    let t0 = gvfs_vfs::Timestamp::from_nanos(0);
    for name in ["crash-0", "crash-1"] {
        let id = vfs.create(vfs.root(), name, 0o644, t0).expect("create scenario file");
        vfs.write(id, 0, &vec![0u8; FILE_LEN], t0).expect("initialize scenario file");
    }

    let history = Arc::new(History::new());
    let done = Arc::new(AtomicUsize::new(0));
    let session = Arc::new(session);
    let corrupted = Arc::new(parking_lot::Mutex::new(Vec::new()));

    // Client 0: accumulates write-back data across the barrier, then
    // keeps using the cache after the restart.
    {
        let transport = session.client_transport(0);
        let root = session.root_fh();
        let history = Arc::clone(&history);
        let done = Arc::clone(&done);
        sim.spawn("crash-writer", move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(5).wrapping_add(1));
            sleep_until(at(&mut rng, 1));
            let client = NfsClient::new(transport, root, MountOptions::noac());
            let w = client.resolve("/crash-0").expect("resolve /crash-0");
            let r = client.resolve("/crash-1").expect("resolve /crash-1");
            let s = Scripted { client: &client, history: &history, id: 0 };

            // Forwarded write: delegation + write-back base.
            s.write(w, 0, 1, at(&mut rng, 2));
            // A clean block the restart must serve warm.
            s.read(r, 1, at(&mut rng, 4));
            // Local acknowledgement, covered by the 8 s barrier.
            s.write(w, 0, 2, at(&mut rng, 6));
            // Local acknowledgement the crash must discard cleanly.
            s.write(w, 0, 3, at(&mut rng, 10));

            // Post-restart: land the final state with a forwarded write
            // (the restart cleared the delegation).
            s.write(w, 0, 4, at(&mut rng, 24));
            done.fetch_add(1, Ordering::SeqCst);
        });
    }

    // The operator: barrier at 8 s, crash at 12 s, restart at 16 s.
    {
        let session = Arc::clone(&session);
        let done = Arc::clone(&done);
        let corrupted = Arc::clone(&corrupted);
        sim.spawn("crash-operator", move || {
            sleep_until(SimTime::from_millis(8_500));
            session.proxy_client(0).sync_store();
            sleep_until(SimTime::from_millis(12_000));
            session.crash_proxy_client(0);
            sleep_until(SimTime::from_millis(16_000));
            *corrupted.lock() = session.restart_proxy_client(0);
            done.fetch_add(1, Ordering::SeqCst);
        });
    }

    // Client 1: the cross-reader that must never see the lost write.
    {
        let transport = session.client_transport(1);
        let root = session.root_fh();
        let history = Arc::clone(&history);
        let done = Arc::clone(&done);
        sim.spawn("crash-reader", move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(5).wrapping_add(2));
            sleep_until(at(&mut rng, 20));
            let client = NfsClient::new(transport, root, MountOptions::noac());
            let w = client.resolve("/crash-0").expect("resolve /crash-0");
            let s = Scripted { client: &client, history: &history, id: 1 };
            // Post-restart, pre-final-write: the reconciled write 2.
            s.read(w, 0, at(&mut rng, 21));
            s.read(w, 0, at(&mut rng, 22));
            // Past the final write: write 4.
            s.read(w, 0, at(&mut rng, 28));
            done.fetch_add(1, Ordering::SeqCst);
        });
    }

    // Closer: waits for all three actors, then shuts down (flushing and
    // syncing the store).
    {
        let session = Arc::clone(&session);
        let done = Arc::clone(&done);
        let handle = session.handle();
        sim.spawn("crash-closer", move || {
            loop {
                gvfs_netsim::park_timeout(Duration::from_secs(1));
                if done.load(Ordering::SeqCst) >= 3 {
                    break;
                }
            }
            handle.shutdown();
        });
    }

    sim.run();

    let writer_stats = session.proxy_client(0).stats();
    let corrupted = corrupted.lock().clone();

    let final_tag = {
        let id = vfs.lookup_path("/crash-0").expect("scenario file still present");
        let (buf, _eof) = vfs.read(id, 0, FILE_LEN as u32).expect("read final state");
        Observation::decode(&buf)
    };

    let history = history.events();
    let mut violations = Vec::new();

    // No torn block may ever be observed — not from the wire, and above
    // all not from the reopened store.
    for ev in &history {
        if let Event::Read { client, file, observed: Observation::Torn, started, .. } = ev {
            violations.push(Violation {
                kind: oracle::ViolationKind::TornRead,
                detail: format!(
                    "client {client} observed a torn block of file {file} at {started:?}"
                ),
            });
        }
    }
    // The never-synced write must have vanished with the crash: its WAL
    // record was torn, so serving its data anywhere means the store
    // replayed past a failed verification.
    for ev in &history {
        if let Event::Read { client, file, observed: Observation::Tag(t), started, .. } = ev {
            if *t == lost_crash_tag() {
                violations.push(Violation {
                    kind: oracle::ViolationKind::StaleRead,
                    detail: format!(
                        "client {client} read the never-synced write {t:#x} of file {file} \
                         at {started:?} — a torn WAL record was replayed"
                    ),
                });
            }
        }
    }
    // The cross-reader's view must move monotonically through the
    // surviving states: write 2 (reconciled from the reopened store),
    // then write 4.
    let allowed = [make_tag(0, 2), final_crash_tag()];
    let mut last_pos = 0usize;
    for ev in &history {
        let Event::Read { client: 1, observed, started, .. } = ev else { continue };
        match observed {
            Observation::Tag(t) if allowed.contains(t) => {
                let pos = allowed.iter().position(|a| a == t).expect("just matched");
                if pos < last_pos {
                    violations.push(Violation {
                        kind: oracle::ViolationKind::StaleRead,
                        detail: format!(
                            "cross-reader regressed from {:#x} to {t:#x} at {started:?}",
                            allowed[last_pos]
                        ),
                    });
                }
                last_pos = pos;
            }
            Observation::Torn => {} // already reported above
            other => violations.push(Violation {
                kind: oracle::ViolationKind::InvalidValue,
                detail: format!(
                    "cross-reader observed {other:?} at {started:?}; the only states the \
                     crash leaves behind are {allowed:?}"
                ),
            }),
        }
    }
    // Every scripted write happened outside the outage and must ack.
    for ev in &history {
        if let Event::WriteFailed { client, file, tag, started, .. } = ev {
            violations.push(Violation {
                kind: oracle::ViolationKind::FinalState,
                detail: format!(
                    "client {client} write {tag:#x} to file {file} failed at {started:?}"
                ),
            });
        }
    }
    // The server never moved while client 0 was down, so the restart
    // must reconcile — not discard — the surviving dirty data.
    if !corrupted.is_empty() {
        violations.push(Violation {
            kind: oracle::ViolationKind::FinalState,
            detail: format!(
                "restart discarded {corrupted:?} as corrupted; the server copy was unchanged"
            ),
        });
    }
    // The store must actually have come back warm: the barrier covered
    // /crash-1's clean block (and write 2's dirty bytes).
    if writer_stats.restart_warm_blocks == 0 {
        violations.push(Violation {
            kind: oracle::ViolationKind::FinalState,
            detail: "the reopened store served nothing warm; every block was refetched".into(),
        });
    }
    if final_tag != Observation::Tag(final_crash_tag()) {
        violations.push(Violation {
            kind: oracle::ViolationKind::FinalState,
            detail: format!(
                "/crash-0 ended as {final_tag:?}, expected tag {:#x}",
                final_crash_tag()
            ),
        });
    }

    let hash = run_fingerprint(&history, std::slice::from_ref(&final_tag));
    CrashRestartReport {
        seed,
        writer_stats,
        corrupted,
        history,
        final_tag,
        trace_hash: hash,
        violations,
        protocol_trace: protocol_trace.to_jsonl(),
    }
}

/// Block size of the peer-partition scenario's shared file (the proxy
/// cache's block granularity, so each block is one fetch).
const PEER_BLOCK: u64 = 32 * 1024;
/// The scenario file spans two blocks: block 0 is always fetched from
/// the origin (it carries the attestation and the peer advert), block 1
/// is the one the mesh sources from a peer.
const PEER_BLOCKS: u64 = 2;
/// Fill byte of the seeded version.
const PEER_V1: u8 = 0x11;
/// Fill byte the writer lands mid-scenario.
const PEER_V2: u8 = 0x22;

/// The outcome of one peer-partition run.
#[derive(Debug)]
pub struct PeerPartitionReport {
    /// The scenario seed (jitters the op schedule, not the structure).
    pub seed: u64,
    /// Client 0's (the fan-in reader's) proxy statistics at shutdown —
    /// carries the `peer_hits` / `peer_fallbacks` counters the harness
    /// asserts on.
    pub reader_stats: gvfs_core::proxy::client::ProxyClientStats,
    /// Whether the serving peer ran with the `--break-peerread` knob
    /// (serving condemned store bytes under an echoed attestation).
    pub broken_peer: bool,
    /// The full recorded history (reads observe one block each; the
    /// `file` field is the block index).
    pub history: Vec<Event>,
    /// Deterministic fingerprint of the history.
    pub trace_hash: u64,
    /// Oracle rejections; empty = clean.
    pub violations: Vec<Violation>,
    /// The protocol-event trace (JSONL), for conformance replay.
    pub protocol_trace: String,
}

/// Decodes one block of the peer-partition file: a single repeated fill
/// byte is a version observation, anything else is torn.
fn decode_peer_block(buf: &[u8]) -> Observation {
    if buf.len() != PEER_BLOCK as usize {
        return Observation::Torn;
    }
    let first = buf[0];
    if buf.iter().any(|&b| b != first) {
        return Observation::Torn;
    }
    Observation::Tag(u64::from(first))
}

/// Runs the peer-partition scenario for `seed`. With
/// `broken_peer = false` this is the 32-seed matrix scenario; with
/// `broken_peer = true` it is the `--break-peerread` self-test arm the
/// oracle must convict.
///
/// Phase map (virtual seconds; every op carries ≤200 ms seeded jitter):
///
/// - **0–4 warm-up**: the serving peer (client 1) cold-reads both
///   blocks of `/peer-0` from the origin; the origin now advertises it
///   as a live holder.
/// - **5–8 mid-PEERREAD partition**: the reader (client 0) fetches
///   block 0 from the origin (attestation + advert), the peer LAN link
///   between reader and serving peer is cut, and the reader's block-1
///   `PEERREAD` times out into the breaker. The read must still
///   complete — via origin fallback — and observe the seeded version,
///   never a stale or torn block.
/// - **12 heal**, then **20–24 condemnation**: client 2 overwrites the
///   file. The recall invalidates both caches and — unless suppressed
///   by the break knob — de-advertises every peer copy under the same
///   `buffers` lock. In the honest run the serving peer re-reads the new
///   version and is re-advertised.
/// - **26+ verify**: the reader cold-reads both blocks again. Block 1
///   arrives over the mesh; it must carry the writer's version. The
///   broken peer instead serves its condemned bytes under the echoed
///   attestation, which the oracle convicts as a stale read.
pub fn run_peer_partition(seed: u64, broken_peer: bool) -> PeerPartitionReport {
    let sim = Sim::new();
    let mut config = ModelKind::Delegation.session_config();
    config.peer_read = true;
    // No read-ahead: block 1 must be a *demand* PEERREAD so the
    // partition window provably interrupts an in-flight peer fetch
    // (read-ahead would warm it over the mesh before the cut).
    config.readahead_window = 0;
    // The self-test fault: the origin stops de-advertising condemned
    // copies and the serving peer serves raw store bytes under the
    // requester's echoed attestation.
    let faults = Faults { stale_peer: broken_peer.then_some(1), ..Faults::default() };
    let session = Session::builder(config).clients(3).faults(faults).establish(&sim);
    let protocol_trace = session.install_trace();

    // Pre-populate out of band: two blocks of the seeded version.
    let vfs = Arc::clone(session.vfs());
    let t0 = gvfs_vfs::Timestamp::from_nanos(0);
    let id = vfs.create(vfs.root(), "peer-0", 0o644, t0).expect("create scenario file");
    vfs.write(id, 0, &vec![PEER_V1; (PEER_BLOCKS * PEER_BLOCK) as usize], t0)
        .expect("initialize scenario file");

    let history = Arc::new(History::new());
    let done = Arc::new(AtomicUsize::new(0));
    let session = Arc::new(session);

    let read_block = |client: &NfsClient,
                      history: &History,
                      id: usize,
                      fh: gvfs_nfs3::Fh3,
                      block: u64,
                      when: SimTime| {
        sleep_until(when);
        let started = gvfs_netsim::now();
        if let Ok(buf) = client.read(fh, block * PEER_BLOCK, PEER_BLOCK as u32) {
            let finished = gvfs_netsim::now();
            history.push(Event::Read {
                client: id,
                file: block as usize,
                observed: decode_peer_block(&buf),
                started,
                finished,
            });
        }
    };

    // Client 1: the serving peer. Cold-reads both blocks in warm-up; in
    // the honest run it re-reads the writer's version afterwards so the
    // origin re-advertises it for the verify phase.
    {
        let transport = session.client_transport(1);
        let root = session.root_fh();
        let history = Arc::clone(&history);
        let done = Arc::clone(&done);
        sim.spawn("peer-holder", move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7).wrapping_add(1));
            sleep_until(at(&mut rng, 1));
            let client = NfsClient::new(transport, root, MountOptions::noac());
            let fh = client.resolve("/peer-0").expect("resolve /peer-0");
            for block in 0..PEER_BLOCKS {
                read_block(&client, &history, 1, fh, block, at(&mut rng, 2 + block));
            }
            if !broken_peer {
                for block in 0..PEER_BLOCKS {
                    read_block(&client, &history, 1, fh, block, at(&mut rng, 23 + block));
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
        });
    }

    // Client 0: the fan-in reader whose block-1 PEERREAD the partition
    // interrupts, and whose verify-phase reads the oracle judges.
    {
        let transport = session.client_transport(0);
        let root = session.root_fh();
        let history = Arc::clone(&history);
        let done = Arc::clone(&done);
        sim.spawn("peer-reader", move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7).wrapping_add(2));
            sleep_until(at(&mut rng, 5));
            let client = NfsClient::new(transport, root, MountOptions::noac());
            let fh = client.resolve("/peer-0").expect("resolve /peer-0");
            // Attestation + advert from the origin.
            read_block(&client, &history, 0, fh, 0, at(&mut rng, 5));
            // Mid-PEERREAD partition: the serving peer is unreachable;
            // this read must complete via origin fallback.
            read_block(&client, &history, 0, fh, 1, at(&mut rng, 8));
            // Verify phase, after the writer's version and the recall.
            read_block(&client, &history, 0, fh, 0, at(&mut rng, 26));
            read_block(&client, &history, 0, fh, 1, at(&mut rng, 27));
            done.fetch_add(1, Ordering::SeqCst);
        });
    }

    // Client 2: the writer whose modification condemns every advertised
    // peer copy before it proceeds.
    {
        let transport = session.client_transport(2);
        let root = session.root_fh();
        let history = Arc::clone(&history);
        let done = Arc::clone(&done);
        sim.spawn("peer-writer", move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7).wrapping_add(3));
            sleep_until(at(&mut rng, 20));
            let client = NfsClient::new(transport, root, MountOptions::noac());
            let fh = client.resolve("/peer-0").expect("resolve /peer-0");
            let started = gvfs_netsim::now();
            let outcome = client.write(fh, 0, &vec![PEER_V2; (PEER_BLOCKS * PEER_BLOCK) as usize]);
            let finished = gvfs_netsim::now();
            history.push(match outcome {
                Ok(()) => Event::WriteAcked {
                    client: 2,
                    file: 0,
                    tag: u64::from(PEER_V2),
                    started,
                    finished,
                },
                Err(_) => Event::WriteFailed {
                    client: 2,
                    file: 0,
                    tag: u64::from(PEER_V2),
                    started,
                    finished,
                },
            });
            done.fetch_add(1, Ordering::SeqCst);
        });
    }

    // The partitioner: cuts the reader↔peer LAN link just before the
    // reader's block-1 PEERREAD, heals it at 12 s.
    {
        let session = Arc::clone(&session);
        sim.spawn("peer-partitioner", move || {
            sleep_until(SimTime::from_millis(7_500));
            let link = session.peer_link(0, 1).expect("peer mesh is on").clone();
            link.set_partitioned(true);
            sleep_until(SimTime::from_millis(12_000));
            link.set_partitioned(false);
        });
    }

    // Closer: waits for all three scripted actors, then shuts down.
    {
        let session = Arc::clone(&session);
        let done = Arc::clone(&done);
        let handle = session.handle();
        sim.spawn("peer-closer", move || {
            loop {
                gvfs_netsim::park_timeout(Duration::from_secs(1));
                if done.load(Ordering::SeqCst) >= 3 {
                    break;
                }
            }
            handle.shutdown();
        });
    }

    sim.run();

    let reader_stats = session.proxy_client(0).stats();
    let history = history.events();
    let mut violations = Vec::new();

    // No torn block, ever — not mid-partition, not from the mesh.
    for ev in &history {
        if let Event::Read { client, file, observed: Observation::Torn, started, .. } = ev {
            violations.push(Violation {
                kind: oracle::ViolationKind::TornRead,
                detail: format!("client {client} observed a torn block {file} at {started:?}"),
            });
        }
    }
    // The writer's acknowledgement window splits the timeline: reads
    // finished before it began must observe the seeded version, reads
    // started after it acked must observe the writer's — "no condemned
    // block served by a peer". Reads overlapping the window may land on
    // either side (but never torn; checked above).
    let write_window = history.iter().find_map(|ev| match ev {
        Event::WriteAcked { started, finished, .. } => Some((*started, *finished)),
        _ => None,
    });
    let mut fallback_read_done = false;
    for ev in &history {
        let Event::Read { client, file, observed, started, finished } = ev else { continue };
        let want = match write_window {
            Some((w_start, _)) if *finished < w_start => Some(PEER_V1),
            Some((_, w_end)) if *started > w_end => Some(PEER_V2),
            Some(_) => None,
            None => Some(PEER_V1),
        };
        if *started >= SimTime::from_secs(7) && *started < SimTime::from_secs(12) {
            fallback_read_done = true;
        }
        if let (Observation::Tag(t), Some(want)) = (observed, want) {
            if *t != u64::from(want) {
                violations.push(Violation {
                    kind: oracle::ViolationKind::StaleRead,
                    detail: format!(
                        "client {client} read version {t:#x} of block {file} at {started:?}, \
                         expected {want:#x} — a condemned peer copy was served"
                    ),
                });
            }
        }
    }
    if !fallback_read_done {
        violations.push(Violation {
            kind: oracle::ViolationKind::FinalState,
            detail: "the mid-partition read never completed via origin fallback".into(),
        });
    }
    // Every scripted write happens on a healthy WAN link and must ack.
    for ev in &history {
        if let Event::WriteFailed { client, tag, started, .. } = ev {
            violations.push(Violation {
                kind: oracle::ViolationKind::FinalState,
                detail: format!("client {client} write {tag:#x} failed at {started:?}"),
            });
        }
    }
    // Mechanism checks: the partition must have forced at least one
    // origin fallback, and (honestly run) the mesh must have actually
    // served the verify-phase block.
    if reader_stats.peer_fallbacks == 0 {
        violations.push(Violation {
            kind: oracle::ViolationKind::FinalState,
            detail: "the partitioned PEERREAD never fell back to the origin".into(),
        });
    }
    if !broken_peer && reader_stats.peer_hits == 0 {
        violations.push(Violation {
            kind: oracle::ViolationKind::FinalState,
            detail: "the peer mesh never served a block; the scenario lost its subject".into(),
        });
    }

    PeerPartitionReport {
        seed,
        reader_stats,
        broken_peer,
        trace_hash: trace_hash(&history),
        history,
        violations,
        protocol_trace: protocol_trace.to_jsonl(),
    }
}

/// Block size of the disk-corruption scenario's chunked file.
const ROT_BLOCK: u64 = 32 * 1024;
/// The chunked file spans four blocks, comfortably past the store's
/// small-file threshold, so its clean bytes land as content-addressed
/// chunk files under `chunks/`; the two tag files stay under the
/// threshold and land as per-handle segments under `data/`.
const ROT_BLOCKS: u64 = 4;
/// Fill byte of the chunked file (never overwritten).
const ROT_FILL: u8 = 0x5a;
/// History index of the chunked file's block `b` (`10 + b`); the tag
/// files use indices 0 and 1.
const ROT_BIG_FILE: usize = 10;

/// The outcome of one disk-corruption run.
#[derive(Debug)]
pub struct DiskCorruptionReport {
    /// The scenario seed (jitters the op schedule, picks the rotted
    /// bytes, and seeds the disk fault plan).
    pub seed: u64,
    /// Client 0's (the corrupted machine's) proxy statistics at
    /// shutdown — carries the `integrity_failures` /
    /// `quarantined_blocks` / `scrub_repairs` counters the harness
    /// asserts on.
    pub reader_stats: gvfs_core::proxy::client::ProxyClientStats,
    /// Whether the run disabled verify-on-read (`--break-scrub`): the
    /// store serves rotted bytes and the oracle must convict.
    pub break_scrub: bool,
    /// Stored files (under `data/` and `chunks/`) the operator rotted.
    pub corrupted_paths: usize,
    /// The full recorded history.
    pub history: Vec<Event>,
    /// Deterministic fingerprint of the history.
    pub trace_hash: u64,
    /// Oracle rejections; empty = clean.
    pub violations: Vec<Violation>,
    /// The protocol-event trace (JSONL), for conformance replay.
    pub protocol_trace: String,
}

/// The tag seeded into `/rot-{i}` (out of band, never overwritten).
pub fn rot_tag(file: usize) -> u64 {
    make_tag(9, 1 + file as u64)
}

/// Runs the disk-corruption scenario for `seed`. With
/// `break_scrub = false` this is the 32-seed matrix scenario; with
/// `break_scrub = true` it is the `--break-scrub` self-test arm the
/// oracle must convict.
///
/// Phase map (virtual seconds; every op carries ≤200 ms seeded jitter):
///
/// - **0–6 warm-up**: client 0 reads `/rot-0` and `/rot-1` (512-byte
///   tag files → `data/` segments) and all four blocks of `/rot-big`
///   (128 KiB of one fill byte → a content-addressed chunk under
///   `chunks/`); client 1 reads `/rot-1` into its own, never-corrupted
///   store.
/// - **7.5–9.5 WAN noise**: a seeded message-drop window on client 0's
///   WAN link, composing the wire fault plan with the disk fault plan
///   (both draw from dedicated seeded RNGs, so the composition replays
///   identically).
/// - **10 rot**: the operator flips one seeded byte in every stored
///   file under `data/` and `chunks/` on client 0's disk (durably —
///   media decay, not a transport error), and arms a seeded
///   [`gvfs_netsim::disk::DiskFaultPlan`] over the same prefixes: torn
///   repair writes until 16 s and read-time bit rot until 30 s. No
///   crash is scripted: replay skips the pre-write verification, so a
///   crash window would launder rot into fresh checksums — that corner
///   is excluded here and documented in the store.
/// - **10–18 self-heal**: the background scrubber sweeps the store
///   (1 s period), quarantines every checksum mismatch, and refetches
///   the clean bytes from the origin; torn repair writes are caught by
///   the next sweep and repaired again.
/// - **18+ verify**: both clients re-read everything. Every read must
///   observe the seeded content — never a rotted, torn, or partially
///   repaired block. With `break_scrub` the store serves the rot
///   instead, which the oracle convicts.
pub fn run_disk_corruption(seed: u64, break_scrub: bool) -> DiskCorruptionReport {
    let sim = Sim::new();
    let mut config = ModelKind::Delegation.session_config();
    config.persistent_store = true;
    config.scrub_period = Some(Duration::from_secs(1));
    // The self-test fault: verify-on-read (and with it the scrub sweep)
    // is disabled, so the store serves whatever the platter holds.
    let faults = Faults { unverified_store: break_scrub.then_some(0), ..Faults::default() };
    let session = Session::builder(config).clients(2).faults(faults).establish(&sim);
    let protocol_trace = session.install_trace();

    // Pre-populate out of band: two tag files and the chunked file.
    let vfs = Arc::clone(session.vfs());
    let t0 = gvfs_vfs::Timestamp::from_nanos(0);
    for file in 0..2usize {
        let id =
            vfs.create(vfs.root(), &format!("rot-{file}"), 0o644, t0).expect("create tag file");
        vfs.write(id, 0, &encode_tag(rot_tag(file)), t0).expect("initialize tag file");
    }
    let id = vfs.create(vfs.root(), "rot-big", 0o644, t0).expect("create chunked file");
    vfs.write(id, 0, &vec![ROT_FILL; (ROT_BLOCKS * ROT_BLOCK) as usize], t0)
        .expect("initialize chunked file");

    // WAN noise on the corrupted machine's link, composed with the
    // disk faults below.
    let events = vec![FaultEvent::Drop {
        client: 0,
        to_server: true,
        at_ms: 7_500,
        dur_ms: 2_000,
        permille: 250,
    }];
    for (client, to_server, plan) in compile_fault_plans(seed, &events) {
        session.wan_link(client).set_fault_plan(to_server, Some(plan));
    }

    let history = Arc::new(History::new());
    let done = Arc::new(AtomicUsize::new(0));
    let session = Arc::new(session);
    let corrupted_paths = Arc::new(AtomicUsize::new(0));

    let read_block = |client: &NfsClient,
                      history: &History,
                      id: usize,
                      fh: gvfs_nfs3::Fh3,
                      block: u64,
                      when: SimTime| {
        sleep_until(when);
        let started = gvfs_netsim::now();
        if let Ok(buf) = client.read(fh, block * ROT_BLOCK, ROT_BLOCK as u32) {
            let finished = gvfs_netsim::now();
            let observed = if buf.len() == ROT_BLOCK as usize && buf.iter().all(|&b| b == buf[0]) {
                Observation::Tag(u64::from(buf[0]))
            } else {
                Observation::Torn
            };
            history.push(Event::Read {
                client: id,
                file: ROT_BIG_FILE + block as usize,
                observed,
                started,
                finished,
            });
        }
    };

    // Client 0: the machine whose platter rots. Warm reads populate the
    // persistent store; verify reads must never observe the rot.
    {
        let transport = session.client_transport(0);
        let verify_transport = session.client_transport(0);
        let root = session.root_fh();
        let history = Arc::clone(&history);
        let done = Arc::clone(&done);
        sim.spawn("rot-reader", move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(11).wrapping_add(1));
            sleep_until(at(&mut rng, 1));
            let client = NfsClient::new(transport, root, MountOptions::noac());
            let t0 = client.resolve("/rot-0").expect("resolve /rot-0");
            let t1 = client.resolve("/rot-1").expect("resolve /rot-1");
            let big = client.resolve("/rot-big").expect("resolve /rot-big");
            let s = Scripted { client: &client, history: &history, id: 0 };

            // Warm-up: everything lands clean in the persistent store.
            s.read(t0, 0, at(&mut rng, 2));
            s.read(t1, 1, at(&mut rng, 3));
            for block in 0..ROT_BLOCKS {
                read_block(&client, &history, 0, big, block, at(&mut rng, 4));
            }

            // Verify: past the rot (10 s) and several scrub sweeps. A
            // fresh mount — nothing ever writes these files, so the
            // first mount's kernel page cache would revalidate clean
            // and serve its own warm copies; the verify reads must
            // come back through the proxy's stored (rotted) bytes.
            sleep_until(at(&mut rng, 18));
            let verify = NfsClient::new(verify_transport, root, MountOptions::noac());
            let t0 = verify.resolve("/rot-0").expect("re-resolve /rot-0");
            let t1 = verify.resolve("/rot-1").expect("re-resolve /rot-1");
            let big = verify.resolve("/rot-big").expect("re-resolve /rot-big");
            let s = Scripted { client: &verify, history: &history, id: 0 };
            s.read(t0, 0, at(&mut rng, 18));
            s.read(t1, 1, at(&mut rng, 19));
            for block in 0..ROT_BLOCKS {
                read_block(&verify, &history, 0, big, block, at(&mut rng, 20));
            }
            done.fetch_add(1, Ordering::SeqCst);
        });
    }

    // Client 1: a bystander on an honest platter; its reads pin the
    // origin copy as unaffected by client 0's rot.
    {
        let transport = session.client_transport(1);
        let root = session.root_fh();
        let history = Arc::clone(&history);
        let done = Arc::clone(&done);
        sim.spawn("rot-bystander", move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(11).wrapping_add(2));
            sleep_until(at(&mut rng, 3));
            let client = NfsClient::new(transport, root, MountOptions::noac());
            let t1 = client.resolve("/rot-1").expect("resolve /rot-1");
            let s = Scripted { client: &client, history: &history, id: 1 };
            s.read(t1, 1, at(&mut rng, 4));
            s.read(t1, 1, at(&mut rng, 21));
            done.fetch_add(1, Ordering::SeqCst);
        });
    }

    // The operator: at 10 s, rots one seeded byte of every stored file
    // under data/ and chunks/ on client 0's disk, and arms the seeded
    // disk fault plan over the same prefixes.
    {
        let session = Arc::clone(&session);
        let done = Arc::clone(&done);
        let corrupted_paths = Arc::clone(&corrupted_paths);
        sim.spawn("rot-operator", move || {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(11).wrapping_add(3));
            sleep_until(SimTime::from_millis(10_000));
            let disk = session.client_disk(0).expect("persistent store has a disk");
            let mut rotted = 0usize;
            for prefix in ["data/", "chunks/"] {
                for path in disk.list(prefix) {
                    let len = disk.len(&path).unwrap_or(0);
                    if len == 0 {
                        continue;
                    }
                    let offset = rng.gen_range(0..len);
                    let xor = rng.gen_range(1u8..=255);
                    if disk.corrupt_byte(&path, offset, xor) {
                        rotted += 1;
                    }
                }
            }
            corrupted_paths.store(rotted, Ordering::SeqCst);
            disk.set_fault_plan(Some(
                gvfs_netsim::disk::DiskFaultPlan::new(seed ^ 0xd15c_0000)
                    .with_torn_writes(
                        gvfs_netsim::fault::Window::new(
                            SimTime::from_secs(10),
                            SimTime::from_secs(16),
                        ),
                        0.25,
                    )
                    .with_flips(
                        gvfs_netsim::fault::Window::new(
                            SimTime::from_secs(10),
                            SimTime::from_secs(30),
                        ),
                        0.1,
                    )
                    .with_path_prefix("data/")
                    .with_path_prefix("chunks/"),
            ));
            done.fetch_add(1, Ordering::SeqCst);
        });
    }

    // Closer: waits for both readers and the operator, then shuts down.
    {
        let session = Arc::clone(&session);
        let done = Arc::clone(&done);
        let handle = session.handle();
        sim.spawn("rot-closer", move || {
            loop {
                gvfs_netsim::park_timeout(Duration::from_secs(1));
                if done.load(Ordering::SeqCst) >= 3 {
                    break;
                }
            }
            handle.shutdown();
        });
    }

    sim.run();

    let reader_stats = session.proxy_client(0).stats();
    let corrupted_paths = corrupted_paths.load(Ordering::SeqCst);
    let history = history.events();
    let mut violations = Vec::new();

    // The heart of the scenario: no checksum-failed block may ever
    // reach a reader. A rotted byte turns a uniform block or tag file
    // into a torn observation — any torn read is a served corruption.
    for ev in &history {
        if let Event::Read { client, file, observed: Observation::Torn, started, .. } = ev {
            violations.push(Violation {
                kind: oracle::ViolationKind::TornRead,
                detail: format!(
                    "client {client} read a corrupted block of file {file} at {started:?} — a \
                     checksum-failed block reached a reader"
                ),
            });
        }
    }
    // Nothing ever writes these files, so every read must observe the
    // seeded content exactly.
    for ev in &history {
        let Event::Read { client, file, observed: Observation::Tag(t), started, .. } = ev else {
            continue;
        };
        let want = match *file {
            0 | 1 => rot_tag(*file),
            f if f >= ROT_BIG_FILE => u64::from(ROT_FILL),
            _ => continue,
        };
        if *t != want {
            violations.push(Violation {
                kind: oracle::ViolationKind::InvalidValue,
                detail: format!(
                    "client {client} read {t:#x} of file {file} at {started:?}, expected \
                     {want:#x}; nothing ever wrote this file"
                ),
            });
        }
    }
    // Engagement checks (honest run only): the rot must have landed on
    // both storage classes, verify-on-read must have caught it, and the
    // scrubber — not just demand traffic — must have repaired ahead of
    // the verify reads.
    if !break_scrub {
        if corrupted_paths < 2 {
            violations.push(Violation {
                kind: oracle::ViolationKind::FinalState,
                detail: format!(
                    "the operator rotted only {corrupted_paths} stored file(s); the scenario \
                     needs both a data/ segment and a chunks/ chunk"
                ),
            });
        }
        if reader_stats.integrity_failures == 0 {
            violations.push(Violation {
                kind: oracle::ViolationKind::FinalState,
                detail: "verify-on-read never caught the planted rot".into(),
            });
        }
        if reader_stats.quarantined_blocks == 0 {
            violations.push(Violation {
                kind: oracle::ViolationKind::FinalState,
                detail: "no rotted extent was ever quarantined".into(),
            });
        }
        if reader_stats.scrub_repairs == 0 {
            violations.push(Violation {
                kind: oracle::ViolationKind::FinalState,
                detail: "the background scrubber never repaired a quarantined extent".into(),
            });
        }
        if reader_stats.integrity_dirty_loss != 0 {
            violations.push(Violation {
                kind: oracle::ViolationKind::FinalState,
                detail: format!(
                    "{} dirty extent(s) reported lost; the scenario only rots clean data",
                    reader_stats.integrity_dirty_loss
                ),
            });
        }
    }

    DiskCorruptionReport {
        seed,
        reader_stats,
        break_scrub,
        corrupted_paths,
        trace_hash: trace_hash(&history),
        history,
        violations,
        protocol_trace: protocol_trace.to_jsonl(),
    }
}
