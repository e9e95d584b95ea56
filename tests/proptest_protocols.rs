//! Property tests over the protocol state machines:
//!
//! * the invalidation protocol never loses an invalidation — a client
//!   that applies every GETINV reply (honoring force-invalidate) ends
//!   with no stale attribute cached, for arbitrary interleavings;
//! * the delegation table never grants conflicting delegations;
//! * GVFS protocol messages round-trip through XDR.

use gvfs_core::delegation::{DelegationKind, DelegationTable};
use gvfs_core::invalidation::ConcurrentInvalidationTracker;
use gvfs_core::protocol::{CallbackArgs, CallbackKind, DelegationGrant, GetinvRes, WrappedReply};
use gvfs_core::DelegationConfig;
use gvfs_netsim::SimTime;
use gvfs_nfs3::Fh3;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone)]
enum InvOp {
    /// Client `writer` modifies file `fh`.
    Modify { fh: u64, writer: u32 },
    /// Client polls.
    Poll { client: u32 },
}

fn inv_op() -> impl Strategy<Value = InvOp> {
    prop_oneof![
        (0u64..20, 1u32..4).prop_map(|(fh, writer)| InvOp::Modify { fh, writer }),
        (1u32..4).prop_map(|client| InvOp::Poll { client }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Oracle: a client model that caches attribute "versions" and
    /// applies GETINV replies must never hold a version older than the
    /// last modification it was supposed to know about by its previous
    /// poll.
    #[test]
    fn invalidation_protocol_never_loses_updates(
        ops in proptest::collection::vec(inv_op(), 1..200),
        capacity in 1usize..16,
    ) {
        let tracker = ConcurrentInvalidationTracker::new(capacity);
        // Per-client simulated caches: fh -> version cached.
        let mut caches: HashMap<u32, HashMap<u64, u64>> = HashMap::new();
        let mut timestamps: HashMap<u32, Option<u64>> = HashMap::new();
        // Global truth: fh -> current version.
        let mut versions: HashMap<u64, u64> = HashMap::new();
        let mut version_counter = 0u64;

        for op in ops {
            match op {
                InvOp::Modify { fh, writer } => {
                    version_counter += 1;
                    versions.insert(fh, version_counter);
                    tracker.record_modification(Fh3::from_fileid(fh), writer);
                    // The writer observes its own write.
                    caches.entry(writer).or_default().insert(fh, version_counter);
                }
                InvOp::Poll { client } => {
                    loop {
                        let last = timestamps.get(&client).copied().flatten();
                        let res: GetinvRes = tracker.getinv(client, last);
                        timestamps.insert(client, Some(res.timestamp));
                        let cache = caches.entry(client).or_default();
                        if res.force_invalidate {
                            cache.clear();
                        }
                        for fh in &res.handles {
                            cache.remove(&fh.fileid());
                        }
                        // A paged reply: poll again at once (the
                        // protocol's rule).
                        if !res.poll_again {
                            break;
                        }
                    }
                    // INVARIANT: after a completed poll, nothing cached
                    // by this client is stale (the cache only contains
                    // entries at the current version or entries the
                    // client itself wrote last).
                    let cache = &caches[&client];
                    for (fh, cached_version) in cache {
                        let current = versions.get(fh).copied().unwrap_or(0);
                        prop_assert_eq!(
                            *cached_version, current,
                            "client {} caches stale version of file {}", client, fh
                        );
                    }
                }
            }
        }
    }

    /// Refetch-after-invalidation completeness: any file modified after
    /// a client's poll is delivered by its next poll (or covered by a
    /// force-invalidation).
    #[test]
    fn next_poll_delivers_everything_modified_since(
        mods in proptest::collection::vec((0u64..50, 2u32..4), 1..100),
    ) {
        let tracker = ConcurrentInvalidationTracker::new(8);
        let boot = tracker.getinv(1, None);
        let modified: HashSet<u64> = mods.iter().map(|(fh, _)| *fh).collect();
        for (fh, writer) in &mods {
            tracker.record_modification(Fh3::from_fileid(*fh), *writer);
        }
        let mut delivered = HashSet::new();
        let mut last = Some(boot.timestamp);
        let mut forced = false;
        loop {
            let res = tracker.getinv(1, last);
            last = Some(res.timestamp);
            forced |= res.force_invalidate;
            delivered.extend(res.handles.iter().map(|f| f.fileid()));
            if !res.poll_again {
                break;
            }
        }
        prop_assert!(
            forced || delivered == modified,
            "delivered {:?} != modified {:?} without force", delivered, modified
        );
    }

    /// The delegation table never ends an operation with two write
    /// delegations, or a read and a write delegation, on the same file.
    #[test]
    fn delegation_exclusivity_invariant(
        ops in proptest::collection::vec((0u64..6, 1u32..5, any::<bool>()), 1..150),
    ) {
        let mut table = DelegationTable::new(DelegationConfig::default());
        let mut t = 0u64;
        for (fh, client, write) in ops {
            t += 1;
            let fh = Fh3::from_fileid(fh);
            let (_, recalls) = table.access(fh, client, write, None, SimTime::from_secs(t));
            for recall in recalls {
                // Model the callback completing with a full flush.
                table.recall_done(recall.fh, recall.client, Vec::new());
            }
            // Invariant check over all tracked files and clients.
            for probe_fh in 0..6u64 {
                let probe_fh = Fh3::from_fileid(probe_fh);
                let mut writers = 0;
                let mut readers = 0;
                for probe_client in 1..5u32 {
                    match table.held(probe_fh, probe_client) {
                        Some(DelegationKind::Write) => writers += 1,
                        Some(DelegationKind::Read) => readers += 1,
                        None => {}
                    }
                }
                prop_assert!(writers <= 1, "two write delegations on {probe_fh:?}");
                prop_assert!(
                    writers == 0 || readers == 0,
                    "read+write delegations coexist on {probe_fh:?}"
                );
            }
        }
    }

    /// GVFS wire messages round-trip.
    #[test]
    fn gvfs_protocol_messages_roundtrip(
        ts in any::<u64>(),
        force in any::<bool>(),
        again in any::<bool>(),
        handles in proptest::collection::vec(any::<u64>(), 0..64),
        nfs_payload in proptest::collection::vec(any::<u8>(), 0..128),
        offset in proptest::option::of(any::<u64>()),
    ) {
        let res = GetinvRes {
            timestamp: ts,
            force_invalidate: force,
            poll_again: again,
            handles: handles.iter().map(|&h| Fh3::from_fileid(h)).collect(),
        };
        let bytes = gvfs_xdr::to_bytes(&res).unwrap();
        prop_assert_eq!(gvfs_xdr::from_bytes::<GetinvRes>(&bytes).unwrap(), res);

        // Payloads must stay word-aligned for the wrapper.
        let mut payload = nfs_payload;
        payload.resize(payload.len().div_ceil(4) * 4, 0);
        let inv = again.then(|| GetinvRes {
            timestamp: ts,
            force_invalidate: force,
            poll_again: false,
            handles: handles.iter().map(|&h| Fh3::from_fileid(h)).collect(),
        });
        let wrapped =
            WrappedReply { grant: DelegationGrant::Read, inv, peers: None, nfs_bytes: payload };
        let bytes = gvfs_xdr::to_bytes(&wrapped).unwrap();
        prop_assert_eq!(gvfs_xdr::from_bytes::<WrappedReply>(&bytes).unwrap(), wrapped);

        let cb = CallbackArgs {
            fh: Fh3::from_fileid(ts),
            kind: if force { CallbackKind::RecallWrite } else { CallbackKind::RecallRead },
            requested_offset: offset,
        };
        let bytes = gvfs_xdr::to_bytes(&cb).unwrap();
        prop_assert_eq!(gvfs_xdr::from_bytes::<CallbackArgs>(&bytes).unwrap(), cb);
    }

    /// A piggybacked drain plus the follow-up poll delivers exactly
    /// what a plain poll would have: piggybacking never loses an
    /// invalidation (wrap-around included) and never delivers one the
    /// per-client path would not.
    #[test]
    fn piggybacked_drain_equivalent_to_poll(
        ops in proptest::collection::vec(inv_op(), 1..120),
        capacity in 1usize..16,
    ) {
        let plain = ConcurrentInvalidationTracker::new(capacity);
        let piggy = ConcurrentInvalidationTracker::new(capacity);
        let mut timestamps: HashMap<u32, Option<u64>> = HashMap::new();
        // The piggybacked client applies every drain it is handed, like
        // a live client absorbing replies.
        for op in ops {
            match op {
                InvOp::Modify { fh, writer } => {
                    plain.record_modification(Fh3::from_fileid(fh), writer);
                    piggy.record_modification(Fh3::from_fileid(fh), writer);
                }
                InvOp::Poll { client } => {
                    let last = timestamps.get(&client).copied().flatten();
                    let a = plain.getinv(client, last);
                    // The piggybacked path: try a free drain first, then
                    // poll with whatever timestamp it handed out.
                    let drained = piggy.try_drain(client);
                    let ts = drained.as_ref().map(|d| d.timestamp).or(last);
                    let b = piggy.getinv(client, ts);
                    // Between them, the piggyback and the poll must
                    // deliver the same handles the plain poll did (order
                    // preserved), or force when the plain path forced.
                    let mut via_piggy: Vec<Fh3> =
                        drained.as_ref().map(|d| d.handles.clone()).unwrap_or_default();
                    via_piggy.extend(b.handles.iter().copied());
                    let forced_piggy =
                        drained.as_ref().is_some_and(|d| d.force_invalidate) || b.force_invalidate;
                    if a.force_invalidate {
                        prop_assert!(
                            forced_piggy,
                            "plain path forced but piggybacked path did not"
                        );
                    } else if !forced_piggy {
                        prop_assert_eq!(&a.handles, &via_piggy);
                    }
                    prop_assert_eq!(a.timestamp, b.timestamp, "paths diverged in time");
                    timestamps.insert(client, Some(b.timestamp));
                }
            }
        }
        prop_assert_eq!(plain.snapshot(), piggy.snapshot());
    }
}
