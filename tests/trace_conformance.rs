//! Trace conformance: the protocol-event emitter is exercised by a
//! fully scripted netsim run whose event sequence is asserted exactly,
//! and recorded partition-heal traces are replayed through
//! `gvfs-analysis`'s conformance checker as accepted paths of the
//! protocol model.

use gvfs_analysis::replay;
use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::session::Session;
use gvfs_core::trace::{ProtocolEvent, TraceKind};
use gvfs_integration::chaos::driver::{run_scenario, ModelKind, ScenarioConfig};
use gvfs_integration::chaos::scenario;
use gvfs_netsim::Sim;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A scripted recall round, driven from one actor so the op order (and
/// therefore the emitted event order) is exact: client 0 takes a write
/// delegation, client 1's conflicting read recalls it, and the server
/// re-resolves both ends non-cacheable.
#[test]
fn scripted_recall_emits_exact_event_sequence() {
    let sim = Sim::new();
    let session =
        Session::builder(ModelKind::Delegation.session_config()).clients(2).establish(&sim);
    let trace = session.install_trace();

    let vfs = Arc::clone(session.vfs());
    let t0 = gvfs_vfs::Timestamp::from_nanos(0);
    let id = vfs.create(vfs.root(), "traced", 0o644, t0).expect("create traced file");
    vfs.write(id, 0, &[0u8; 32], t0).expect("seed traced file");

    let tr0 = session.client_transport(0);
    let tr1 = session.client_transport(1);
    let root = session.root_fh();
    let handle = session.handle();
    sim.spawn("script", move || {
        let c0 = NfsClient::new(tr0, root, MountOptions::noac());
        let c1 = NfsClient::new(tr1, root, MountOptions::noac());
        let fh = c0.resolve("/traced").expect("resolve /traced");
        c0.write(fh, 0, b"from-zero").expect("scripted write");
        let buf = c1.read(fh, 0, 9).expect("scripted read");
        assert_eq!(&buf, b"from-zero");
        handle.shutdown();
    });
    sim.run();

    // Client IDs in the trace are 1-based; fh 1 is the root directory
    // and fh 2 is `/traced`. The sequence reads: client 1's path
    // resolution takes a read delegation on the root, its write takes
    // the write delegation; client 2's conflicting read (it skips
    // resolution by reusing the handle) recalls that delegation — sent,
    // received, completed with the holder's write-back — and the server
    // then re-resolves client 2 non-cacheable while the round is still
    // open and as a read delegation once the table is clear.
    let events: Vec<ProtocolEvent> = trace.records().into_iter().map(|r| r.ev).collect();
    let expected = vec![
        ProtocolEvent::Meta {
            lease_ms: 30_000,
            degrade_after_ms: 2_000,
            max_staleness_ms: 30_000,
            clients: 2,
        },
        ProtocolEvent::Grant { client: 1, fh: 1, kind: TraceKind::Read },
        ProtocolEvent::Grant { client: 1, fh: 2, kind: TraceKind::Write },
        ProtocolEvent::RecallSent { client: 1, fh: 2, kind: TraceKind::Write },
        ProtocolEvent::RecallRecv { client: 1, fh: 2, kind: TraceKind::Write },
        ProtocolEvent::RecallDone { client: 1, fh: 2, ok: true, pending: 0 },
        ProtocolEvent::Grant { client: 2, fh: 2, kind: TraceKind::NonCacheable },
        ProtocolEvent::Grant { client: 2, fh: 2, kind: TraceKind::Read },
    ];
    assert_eq!(events, expected);

    // And the recorded sequence is, of course, an accepted model path.
    let replayed = replay::replay_str(std::path::Path::new("scripted-recall"), &trace.to_jsonl());
    assert!(replayed.accepted(), "scripted trace rejected: {:#?}", replayed.rejections);
}

/// Every partition-heal trace must be an accepted path of the protocol
/// model, and the milestone events must appear in ladder order: the
/// breaker degrades the writer, the degraded rung serves, and the heal
/// re-promotes.
#[test]
fn partition_heal_trace_replays_clean_with_ladder_milestones() {
    let report = scenario::run_partition_heal(0);
    assert!(report.violations.is_empty(), "{:#?}", report.violations);

    let replayed =
        replay::replay_str(std::path::Path::new("partition-heal-seed0"), &report.protocol_trace);
    assert!(replayed.accepted(), "trace rejected: {:#?}", replayed.rejections);
    assert!(replayed.events > 0, "empty protocol trace");

    let names: Vec<&str> = report
        .protocol_trace
        .lines()
        .filter_map(|l| l.split(r#""ev":""#).nth(1))
        .filter_map(|rest| rest.split('"').next())
        .collect();
    let degrade = names.iter().position(|&n| n == "degrade");
    let degraded_serve = names.iter().position(|&n| n == "degraded_serve");
    let repromote = names.iter().position(|&n| n == "repromote");
    let (Some(d), Some(s), Some(r)) = (degrade, degraded_serve, repromote) else {
        panic!("ladder milestones missing from trace: {names:?}");
    };
    assert!(d < s && s < r, "ladder milestones out of order: {names:?}");
}

/// Replay convicts the shipped code's planted bugs, not only
/// hand-written lines: each chaos self-test knob leaves a seed-1 trace
/// that the checker rejects under exactly the rules the knob breaks, as
/// many times as it breaks them, and the clean twin of the scrub
/// scenario is accepted.
#[test]
fn replay_convicts_the_planted_chaos_bugs() {
    fn rules(name: &str, trace: &str) -> BTreeMap<&'static str, usize> {
        let report = replay::replay_str(std::path::Path::new(name), trace);
        let mut counts = BTreeMap::new();
        for r in &report.rejections {
            *counts.entry(r.rule).or_insert(0) += 1;
        }
        counts
    }

    // One served block per rotted data file: the two tag files and the
    // one rotted block of the big file.
    let scrub = rules("break-scrub", &scenario::run_disk_corruption(1, true).protocol_trace);
    assert_eq!(scrub, BTreeMap::from([("corrupt-served", 3)]));

    let peer = rules("break-peerread", &scenario::run_peer_partition(1, true).protocol_trace);
    assert_eq!(peer, BTreeMap::from([("peer-serve-condemned", 1)]));

    let mut cfg = ScenarioConfig::new(1, ModelKind::Delegation);
    cfg.suppress_recalls = true;
    let recall = rules("break-recall", &run_scenario(&cfg).protocol_trace);
    assert_eq!(recall, BTreeMap::from([("grant-exclusivity", 13), ("recall-done-unfailed", 16)]));

    let clean = rules("clean-scrub", &scenario::run_disk_corruption(1, false).protocol_trace);
    assert!(clean.is_empty(), "{clean:?}");
}
