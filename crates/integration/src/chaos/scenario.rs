//! Scripted chaos scenarios: deterministic, hand-laid-out fault
//! timelines that exercise one resilience mechanism end to end, in
//! contrast to [`super::driver`]'s seed-randomized workloads. Each is a
//! script on the shared [`super::harness`] plus its own checks, and
//! returns the same [`ChaosReport`]. There are four:
//!
//! 1. **partition-heal**: a delegation client with dirty write-back data
//!    loses its WAN link for ~35 s of virtual time, rides the
//!    degradation ladder (breaker opens → bounded-staleness cached
//!    reads, local write acknowledgement), is revoked server-side so a
//!    conflicting reader is never blocked past the outage, and is then
//!    re-promoted after the heal — replaying every acknowledged write,
//!    so nothing is lost. The history goes through the same per-model
//!    oracle as the randomized runs (including the degraded-mode
//!    staleness cap).
//! 2. **crash-restart**: a write-back client on a persistent block store
//!    is killed mid-write-back — after a durability barrier covered some
//!    of its dirty data but not the latest write — and restarted on the
//!    same virtual disk. The store must reopen to an exact historical
//!    state: the synced write survives and reconciles to the server, the
//!    never-synced write vanishes entirely, and no reader anywhere
//!    observes a torn block or the discarded write's data.
//! 3. **peer-partition**: a serving peer is cut off mid-`PEERREAD`; the
//!    read must complete via origin fallback, and a later write must
//!    condemn every advertised peer copy before the verify-phase mesh
//!    reads.
//! 4. **disk-corruption**: silent media rot lands on a client's
//!    persistent store — one flipped byte in every stored file, plus a
//!    seeded [`DiskFaultPlan`] of torn writes and read-time bit rot —
//!    and verify-on-read plus the background scrubber must quarantine
//!    and repair every mismatch before any reader observes it.
//!
//! [`DiskFaultPlan`]: gvfs_netsim::disk::DiskFaultPlan

use crate::chaos::driver::ModelKind;
use crate::chaos::harness::{sleep_until, ChaosReport, Run};
use crate::chaos::history::{encode_tag, make_tag, Event, Observation, FILE_LEN};
use crate::chaos::oracle::{self, Violation, ViolationKind};
use crate::chaos::plan::FaultEvent;
use gvfs_core::proxy::BLOCK_SIZE;
use gvfs_core::session::Faults;
use gvfs_netsim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// When the partition window on client 0's WAN link opens.
pub const PARTITION_AT: Duration = Duration::from_secs(30);
/// How long the partition lasts. Ends well before the verification
/// phase so even the slowest breaker probe schedule re-promotes first.
pub const PARTITION_FOR: Duration = Duration::from_secs(35);

/// The tag the partitioned writer must land as the final content of
/// `/heal-0` (its last acknowledged write, issued after re-promotion).
pub fn final_writer_tag() -> u64 {
    make_tag(0, 6)
}

/// The tag the healthy client lands as the final content of `/heal-1`.
pub fn final_partner_tag() -> u64 {
    make_tag(1, 2)
}

/// An op instant: the scripted second plus a little seeded jitter, so
/// the 32-seed matrix explores distinct interleavings without moving
/// any op across a phase boundary.
fn at(rng: &mut StdRng, secs: u64) -> SimTime {
    SimTime::from_millis(secs * 1000 + rng.gen_range(0u64..200))
}

fn violation(kind: ViolationKind, detail: impl Into<String>) -> Violation {
    Violation { kind, detail: detail.into() }
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
pub fn run_partition_heal(seed: u64) -> ChaosReport {
    let config = ModelKind::Delegation.session_config();
    let mut run = Run::new(seed, ModelKind::Delegation, config, 2, Faults::default());
    // Both files start as FILE_LEN zeros (tag 0), plus a canary file
    // nobody caches before the partition.
    for name in ["heal-0", "heal-1", "heal-canary"] {
        run.seed_file(name, &[0u8; FILE_LEN]);
    }
    run.inject(&[FaultEvent::Partition {
        client: 0,
        at_ms: PARTITION_AT.as_millis() as u64,
        dur_ms: PARTITION_FOR.as_millis() as u64,
    }]);

    // Client 0: the writer that rides the ladder through the outage.
    run.actor("heal-writer", move |ctx| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(3).wrapping_add(1));
        sleep_until(at(&mut rng, 2));
        let s = ctx.mount(0);
        let w = s.resolve("/heal-0");
        let r = s.resolve("/heal-1");

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
    });

    // Client 0's canary: one lookup of a never-cached file, started
    // just inside the window. Its fast-failing retries trip the breaker
    // long before the scripted reads need the degraded rung; it then
    // blocks like a hard mount and completes after the heal.
    run.actor("heal-canary", |ctx| {
        sleep_until(SimTime::from_millis(31_000));
        ctx.mount(0).nfs.resolve("/heal-canary").expect("canary resolves after the heal");
    });

    // Client 1: the healthy partner that must never block on client
    // 0's dead link.
    run.actor("heal-partner", move |ctx| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(3).wrapping_add(2));
        sleep_until(at(&mut rng, 2));
        let s = ctx.mount(1);
        let w = s.resolve("/heal-0");
        let r = s.resolve("/heal-1");

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
    });

    // The closer heals the link before shutdown flushes any remaining
    // delayed writes.
    let mut report = run.finish(&[0], &["heal-0", "heal-1"]);
    let mut v =
        oracle::check(ModelKind::Delegation, &report.events, &report.history, &report.final_tags);

    // Scenario-specific checks, on top of the oracle: the ladder must
    // actually have engaged, the heal must have re-promoted, and no
    // acknowledged write may be lost across the outage — the randomized
    // oracle excuses a partitioned writer's data, the scripted scenario
    // does not.
    if report.stats.degraded_reads == 0 {
        v.push(violation(
            ViolationKind::StaleRead,
            "degradation ladder never served a bounded-staleness read",
        ));
    }
    if report.stats.repromotions == 0 {
        v.push(violation(
            ViolationKind::FinalState,
            "supervisor never re-promoted the session after the heal",
        ));
    }
    if report.breaker_trips == 0 {
        v.push(violation(
            ViolationKind::StaleRead,
            "WAN breaker never tripped during the partition",
        ));
    }
    let expected = [final_writer_tag(), final_partner_tag()];
    for (file, (&obs, &want)) in report.final_tags.iter().zip(expected.iter()).enumerate() {
        if obs != Observation::Tag(want) {
            v.push(violation(
                ViolationKind::FinalState,
                format!(
                    "acknowledged write lost across re-promotion: file {file} ended as \
                     {obs:?}, expected tag {want:#x}"
                ),
            ));
        }
    }
    report.violations = v;
    report
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

/// Runs the crash-restart scenario for `seed`. The report's
/// [`Extras::corrupted`](crate::chaos::Extras::corrupted) lists the
/// handles the restart discarded — it must stay empty, because the
/// server copy never moved during the outage — and its stats carry the
/// store's `restart_warm_blocks` from the reopen.
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
pub fn run_crash_restart(seed: u64) -> ChaosReport {
    let mut config = ModelKind::Delegation.session_config();
    config.persistent_store = true;
    let mut run = Run::new(seed, ModelKind::Delegation, config, 2, Faults::default());
    for name in ["crash-0", "crash-1"] {
        run.seed_file(name, &[0u8; FILE_LEN]);
    }

    // Client 0: accumulates write-back data across the barrier, then
    // keeps using the cache after the restart.
    run.actor("crash-writer", move |ctx| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(5).wrapping_add(1));
        sleep_until(at(&mut rng, 1));
        let s = ctx.mount(0);
        let w = s.resolve("/crash-0");
        let r = s.resolve("/crash-1");

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
    });

    // The operator: barrier at 8 s, crash at 12 s, restart at 16 s.
    run.actor("crash-operator", |ctx| {
        sleep_until(SimTime::from_millis(8_500));
        ctx.session.proxy_client(0).sync_store();
        sleep_until(SimTime::from_millis(12_000));
        ctx.session.crash_proxy_client(0);
        sleep_until(SimTime::from_millis(16_000));
        let corrupted = ctx.session.restart_proxy_client(0);
        ctx.extras().corrupted = corrupted;
    });

    // Client 1: the cross-reader that must never see the lost write.
    run.actor("crash-reader", move |ctx| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(5).wrapping_add(2));
        sleep_until(at(&mut rng, 20));
        let s = ctx.mount(1);
        let w = s.resolve("/crash-0");
        // Post-restart, pre-final-write: the reconciled write 2.
        s.read(w, 0, at(&mut rng, 21));
        s.read(w, 0, at(&mut rng, 22));
        // Past the final write: write 4.
        s.read(w, 0, at(&mut rng, 28));
    });

    // Shutdown flushes and syncs the store.
    let mut report = run.finish(&[], &["crash-0"]);
    // No torn block may ever be observed — not from the wire, and above
    // all not from the reopened store — and every scripted write
    // happened outside the outage and must ack.
    let mut v = oracle::torn_or_failed(&report.history);

    // The never-synced write must have vanished with the crash: its WAL
    // record was torn, so serving its data anywhere means the store
    // replayed past a failed verification.
    for ev in &report.history {
        if let Event::Read { client, file, observed: Observation::Tag(t), started, .. } = ev {
            if *t == lost_crash_tag() {
                v.push(violation(
                    ViolationKind::StaleRead,
                    format!(
                        "client {client} read the never-synced write {t:#x} of file {file} \
                         at {started:?} — a torn WAL record was replayed"
                    ),
                ));
            }
        }
    }
    // The cross-reader's view must move monotonically through the
    // surviving states: write 2 (reconciled from the reopened store),
    // then write 4.
    let allowed = [make_tag(0, 2), final_crash_tag()];
    let mut last_pos = 0usize;
    for ev in &report.history {
        let Event::Read { client: 1, observed, started, .. } = ev else { continue };
        match observed {
            Observation::Tag(t) if allowed.contains(t) => {
                let pos = allowed.iter().position(|a| a == t).expect("just matched");
                if pos < last_pos {
                    v.push(violation(
                        ViolationKind::StaleRead,
                        format!(
                            "cross-reader regressed from {:#x} to {t:#x} at {started:?}",
                            allowed[last_pos]
                        ),
                    ));
                }
                last_pos = pos;
            }
            Observation::Torn => {} // already reported above
            other => v.push(violation(
                ViolationKind::InvalidValue,
                format!(
                    "cross-reader observed {other:?} at {started:?}; the only states the \
                     crash leaves behind are {allowed:?}"
                ),
            )),
        }
    }
    // The server never moved while client 0 was down, so the restart
    // must reconcile — not discard — the surviving dirty data.
    let corrupted = &report.extras.corrupted;
    if !corrupted.is_empty() {
        v.push(violation(
            ViolationKind::FinalState,
            format!("restart discarded {corrupted:?} as corrupted; the server copy was unchanged"),
        ));
    }
    // The store must actually have come back warm: the barrier covered
    // /crash-1's clean block (and write 2's dirty bytes).
    if report.stats.restart_warm_blocks == 0 {
        v.push(violation(
            ViolationKind::FinalState,
            "the reopened store served nothing warm; every block was refetched",
        ));
    }
    let final_tag = report.final_tags[0];
    if final_tag != Observation::Tag(final_crash_tag()) {
        v.push(violation(
            ViolationKind::FinalState,
            format!("/crash-0 ended as {final_tag:?}, expected tag {:#x}", final_crash_tag()),
        ));
    }
    report.violations = v;
    report
}

/// The peer-partition file spans two blocks: block 0 is always fetched
/// from the origin (it carries the attestation and the peer advert),
/// block 1 is the one the mesh sources from a peer. Each read observes
/// one block; its history `file` is the block index.
const PEER_BLOCKS: u64 = 2;
/// Fill byte of the seeded version.
const PEER_V1: u8 = 0x11;
/// Fill byte the writer lands mid-scenario.
const PEER_V2: u8 = 0x22;

/// Runs the peer-partition scenario for `seed`. With
/// `broken_peer = false` this is the 32-seed matrix scenario; with
/// `broken_peer = true` it is the `--break-peerread` self-test arm the
/// oracle must convict. The report's stats are the fan-in reader's and
/// carry the `peer_hits` / `peer_fallbacks` counters.
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
pub fn run_peer_partition(seed: u64, broken_peer: bool) -> ChaosReport {
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
    let mut run = Run::new(seed, ModelKind::Delegation, config, 3, faults);
    run.seed_file("peer-0", &vec![PEER_V1; (PEER_BLOCKS * BLOCK_SIZE) as usize]);

    // Client 1: the serving peer. Cold-reads both blocks in warm-up; in
    // the honest run it re-reads the writer's version afterwards so the
    // origin re-advertises it for the verify phase.
    run.actor("peer-holder", move |ctx| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7).wrapping_add(1));
        sleep_until(at(&mut rng, 1));
        let s = ctx.mount(1);
        let fh = s.resolve("/peer-0");
        for block in 0..PEER_BLOCKS {
            s.read_block(fh, block as usize, block, at(&mut rng, 2 + block));
        }
        if !broken_peer {
            for block in 0..PEER_BLOCKS {
                s.read_block(fh, block as usize, block, at(&mut rng, 23 + block));
            }
        }
    });

    // Client 0: the fan-in reader whose block-1 PEERREAD the partition
    // interrupts, and whose verify-phase reads the oracle judges.
    run.actor("peer-reader", move |ctx| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7).wrapping_add(2));
        sleep_until(at(&mut rng, 5));
        let s = ctx.mount(0);
        let fh = s.resolve("/peer-0");
        // Attestation + advert from the origin.
        s.read_block(fh, 0, 0, at(&mut rng, 5));
        // Mid-PEERREAD partition: the serving peer is unreachable;
        // this read must complete via origin fallback.
        s.read_block(fh, 1, 1, at(&mut rng, 8));
        // Verify phase, after the writer's version and the recall.
        s.read_block(fh, 0, 0, at(&mut rng, 26));
        s.read_block(fh, 1, 1, at(&mut rng, 27));
    });

    // Client 2: the writer whose modification condemns every advertised
    // peer copy before it proceeds.
    run.actor("peer-writer", move |ctx| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7).wrapping_add(3));
        sleep_until(at(&mut rng, 20));
        let s = ctx.mount(2);
        let fh = s.resolve("/peer-0");
        let data = vec![PEER_V2; (PEER_BLOCKS * BLOCK_SIZE) as usize];
        s.write_bytes(fh, 0, u64::from(PEER_V2), &data, gvfs_netsim::now());
    });

    // The partitioner: cuts the reader↔peer LAN link just before the
    // reader's block-1 PEERREAD, heals it at 12 s.
    run.background("peer-partitioner", |ctx| {
        sleep_until(SimTime::from_millis(7_500));
        let link = ctx.session.peer_link(0, 1).expect("peer mesh is on").clone();
        link.set_partitioned(true);
        sleep_until(SimTime::from_millis(12_000));
        link.set_partitioned(false);
    });

    let mut report = run.finish(&[], &[]);
    // No torn block, ever — not mid-partition, not from the mesh — and
    // every scripted write happens on a healthy WAN link and must ack.
    let mut v = oracle::torn_or_failed(&report.history);

    // The writer's acknowledgement window splits the timeline: reads
    // finished before it began must observe the seeded version, reads
    // started after it acked must observe the writer's — "no condemned
    // block served by a peer". Reads overlapping the window may land on
    // either side (but never torn; checked above).
    let write_window = report.history.iter().find_map(|ev| match ev {
        Event::WriteAcked { started, finished, .. } => Some((*started, *finished)),
        _ => None,
    });
    let mut fallback_read_done = false;
    for ev in &report.history {
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
                v.push(violation(
                    ViolationKind::StaleRead,
                    format!(
                        "client {client} read version {t:#x} of block {file} at {started:?}, \
                         expected {want:#x} — a condemned peer copy was served"
                    ),
                ));
            }
        }
    }
    if !fallback_read_done {
        v.push(violation(
            ViolationKind::FinalState,
            "the mid-partition read never completed via origin fallback",
        ));
    }
    // Mechanism checks: the partition must have forced at least one
    // origin fallback, and (honestly run) the mesh must have actually
    // served the verify-phase block.
    if report.stats.peer_fallbacks == 0 {
        v.push(violation(
            ViolationKind::FinalState,
            "the partitioned PEERREAD never fell back to the origin",
        ));
    }
    if !broken_peer && report.stats.peer_hits == 0 {
        v.push(violation(
            ViolationKind::FinalState,
            "the peer mesh never served a block; the scenario lost its subject",
        ));
    }
    report.violations = v;
    report
}

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

/// The tag seeded into `/rot-{i}` (out of band, never overwritten).
pub fn rot_tag(file: usize) -> u64 {
    make_tag(9, 1 + file as u64)
}

/// Runs the disk-corruption scenario for `seed`. With
/// `break_scrub = false` this is the 32-seed matrix scenario; with
/// `break_scrub = true` it is the `--break-scrub` self-test arm the
/// oracle must convict. The report's stats are the corrupted machine's
/// and carry the `integrity_failures` / `quarantined_blocks` /
/// `scrub_repairs` counters;
/// [`Extras::corrupted_paths`](crate::chaos::Extras::corrupted_paths)
/// counts the stored files the operator rotted.
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
pub fn run_disk_corruption(seed: u64, break_scrub: bool) -> ChaosReport {
    let mut config = ModelKind::Delegation.session_config();
    config.persistent_store = true;
    config.scrub_period = Some(Duration::from_secs(1));
    // The self-test fault: verify-on-read (and with it the scrub sweep)
    // is disabled, so the store serves whatever the platter holds.
    let faults = Faults { unverified_store: break_scrub.then_some(0), ..Faults::default() };
    let mut run = Run::new(seed, ModelKind::Delegation, config, 2, faults);
    for file in 0..2usize {
        run.seed_file(&format!("rot-{file}"), &encode_tag(rot_tag(file)));
    }
    run.seed_file("rot-big", &vec![ROT_FILL; (ROT_BLOCKS * BLOCK_SIZE) as usize]);

    // WAN noise on the corrupted machine's link, composed with the
    // disk faults below.
    run.inject(&[FaultEvent::Drop {
        client: 0,
        to_server: true,
        at_ms: 7_500,
        dur_ms: 2_000,
        permille: 250,
    }]);

    // Client 0: the machine whose platter rots. Warm reads populate the
    // persistent store; verify reads must never observe the rot.
    run.actor("rot-reader", move |ctx| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(11).wrapping_add(1));
        sleep_until(at(&mut rng, 1));
        let s = ctx.mount(0);
        let t0 = s.resolve("/rot-0");
        let t1 = s.resolve("/rot-1");
        let big = s.resolve("/rot-big");

        // Warm-up: everything lands clean in the persistent store.
        s.read(t0, 0, at(&mut rng, 2));
        s.read(t1, 1, at(&mut rng, 3));
        for block in 0..ROT_BLOCKS {
            s.read_block(big, ROT_BIG_FILE + block as usize, block, at(&mut rng, 4));
        }

        // Verify: past the rot (10 s) and several scrub sweeps. A
        // fresh mount — nothing ever writes these files, so the
        // first mount's kernel page cache would revalidate clean
        // and serve its own warm copies; the verify reads must
        // come back through the proxy's stored (rotted) bytes.
        sleep_until(at(&mut rng, 18));
        let s = ctx.mount(0);
        let t0 = s.resolve("/rot-0");
        let t1 = s.resolve("/rot-1");
        let big = s.resolve("/rot-big");
        s.read(t0, 0, at(&mut rng, 18));
        s.read(t1, 1, at(&mut rng, 19));
        for block in 0..ROT_BLOCKS {
            s.read_block(big, ROT_BIG_FILE + block as usize, block, at(&mut rng, 20));
        }
    });

    // Client 1: a bystander on an honest platter; its reads pin the
    // origin copy as unaffected by client 0's rot.
    run.actor("rot-bystander", move |ctx| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(11).wrapping_add(2));
        sleep_until(at(&mut rng, 3));
        let s = ctx.mount(1);
        let t1 = s.resolve("/rot-1");
        s.read(t1, 1, at(&mut rng, 4));
        s.read(t1, 1, at(&mut rng, 21));
    });

    // The operator: at 10 s, rots one seeded byte of every stored file
    // under data/ and chunks/ on client 0's disk, and arms the seeded
    // disk fault plan over the same prefixes.
    run.actor("rot-operator", move |ctx| {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(11).wrapping_add(3));
        sleep_until(SimTime::from_millis(10_000));
        let disk = ctx.session.client_disk(0).expect("persistent store has a disk");
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
        ctx.extras().corrupted_paths = rotted;
        let window = |from, to| {
            gvfs_netsim::fault::Window::new(SimTime::from_secs(from), SimTime::from_secs(to))
        };
        disk.set_fault_plan(Some(
            gvfs_netsim::disk::DiskFaultPlan::new(seed ^ 0xd15c_0000)
                .with_torn_writes(window(10, 16), 0.25)
                .with_flips(window(10, 30), 0.1)
                .with_path_prefix("data/")
                .with_path_prefix("chunks/"),
        ));
    });

    let mut report = run.finish(&[], &[]);
    // The heart of the scenario: no checksum-failed block may ever
    // reach a reader. A rotted byte turns a uniform block or tag file
    // into a torn observation — any torn read is a served corruption.
    let mut v = oracle::torn_or_failed(&report.history);

    // Nothing ever writes these files, so every read must observe the
    // seeded content exactly.
    for ev in &report.history {
        let Event::Read { client, file, observed: Observation::Tag(t), started, .. } = ev else {
            continue;
        };
        let want = match *file {
            0 | 1 => rot_tag(*file),
            f if f >= ROT_BIG_FILE => u64::from(ROT_FILL),
            _ => continue,
        };
        if *t != want {
            v.push(violation(
                ViolationKind::InvalidValue,
                format!(
                    "client {client} read {t:#x} of file {file} at {started:?}, expected \
                     {want:#x}; nothing ever wrote this file"
                ),
            ));
        }
    }
    // Engagement checks (honest run only): the rot must have landed on
    // both storage classes, verify-on-read must have caught it, and the
    // scrubber — not just demand traffic — must have repaired ahead of
    // the verify reads.
    if !break_scrub {
        let (stats, rotted) = (&report.stats, report.extras.corrupted_paths);
        if rotted < 2 {
            v.push(violation(
                ViolationKind::FinalState,
                format!(
                    "the operator rotted only {rotted} stored file(s); the scenario needs both \
                     a data/ segment and a chunks/ chunk"
                ),
            ));
        }
        let engaged = [
            (stats.integrity_failures, "verify-on-read never caught the planted rot"),
            (stats.quarantined_blocks, "no rotted extent was ever quarantined"),
            (stats.scrub_repairs, "the background scrubber never repaired a quarantined extent"),
        ];
        for (count, detail) in engaged {
            if count == 0 {
                v.push(violation(ViolationKind::FinalState, detail));
            }
        }
        if stats.integrity_dirty_loss != 0 {
            v.push(violation(
                ViolationKind::FinalState,
                format!(
                    "{} dirty extent(s) reported lost; the scenario only rots clean data",
                    stats.integrity_dirty_loss
                ),
            ));
        }
    }
    report.violations = v;
    report
}
