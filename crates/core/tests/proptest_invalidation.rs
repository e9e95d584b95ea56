//! Model-based property test for the server's invalidation buffers.
//!
//! [`ConcurrentInvalidationTracker`], the tracker the proxy server runs,
//! keeps one bounded circular buffer per client with per-file
//! coalescing, a completeness floor that rises on wrap-around, and the
//! `GETINV` force-invalidate bootstrap (§4.2.1). This test drives it
//! with random modify/poll/crash sequences against a set-based
//! reference model and checks, after every step:
//!
//! * coalescing: a buffer never holds two entries for one handle, and
//!   never more than `capacity` entries;
//! * timestamps in a buffer are strictly increasing and above the floor;
//! * the floor never moves backwards;
//! * `force_invalidate` fires exactly on first contact, a null client
//!   timestamp, or a wrapped buffer (client timestamp below the floor);
//! * a non-forced reply carries exactly the handles owed since the
//!   client's last drain, and leaves the floor at the current clock.
//!
//! The exhaustive interleaving version of these checks (including
//! server restarts) lives in the `gvfs-analysis` model checker; this
//! test covers much longer histories at random.

use gvfs_core::invalidation::ConcurrentInvalidationTracker;
use gvfs_nfs3::Fh3;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};

const CLIENTS: u32 = 3;
const FILES: u64 = 4;

#[derive(Debug, Clone)]
enum Op {
    Modify {
        writer: u32,
        file: u64,
    },
    Getinv {
        client: u32,
    },
    /// Poll with a null timestamp, as a restarted client would.
    GetinvNull {
        client: u32,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..=CLIENTS, 1u64..=FILES).prop_map(|(writer, file)| Op::Modify { writer, file }),
        (1u32..=CLIENTS).prop_map(|client| Op::Getinv { client }),
        (1u32..=CLIENTS).prop_map(|client| Op::GetinvNull { client }),
    ]
}

/// Reference model of what the protocol owes one client.
#[derive(Debug, Default, Clone)]
struct Owed {
    ts: Option<u64>,
    owed: BTreeSet<Fh3>,
    wrapped: bool,
}

fn buffer_of(
    tracker: &ConcurrentInvalidationTracker,
    client: u32,
) -> Option<(u64, Vec<(u64, Fh3)>)> {
    tracker.snapshot().into_iter().find(|&(c, _, _)| c == client).map(|(_, f, e)| (f, e))
}

fn check_buffer_shape(
    tracker: &ConcurrentInvalidationTracker,
    capacity: usize,
) -> Result<(), TestCaseError> {
    for (client, floor, entries) in tracker.snapshot() {
        prop_assert!(
            entries.len() <= capacity,
            "client {} buffer holds {} entries, capacity {}",
            client,
            entries.len(),
            capacity
        );
        let mut seen = HashSet::new();
        let mut prev = floor;
        for (ts, fh) in entries {
            prop_assert!(seen.insert(fh), "client {client} buffer holds {fh:?} twice");
            prop_assert!(ts > prev, "client {client} entry ts {ts} not above {prev}");
            prev = ts;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invalidation_buffer_invariants(
        capacity in 1usize..=5,
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let tracker = ConcurrentInvalidationTracker::new(capacity);
        let mut model: HashMap<u32, Owed> = HashMap::new();
        let mut floors: HashMap<u32, u64> = HashMap::new();

        for op in ops {
            match op {
                Op::Modify { writer, file } => {
                    let fh = Fh3::from_fileid(file);
                    tracker.record_modification(fh, writer);
                    for (&client, owed) in &mut model {
                        if client == writer {
                            continue;
                        }
                        if owed.owed.insert(fh) && owed.owed.len() > capacity {
                            owed.wrapped = true;
                        }
                    }
                }
                Op::Getinv { client } | Op::GetinvNull { client } => {
                    let null_ts = matches!(op, Op::GetinvNull { .. });
                    let registered = buffer_of(&tracker, client).is_some();
                    let owed = model.entry(client).or_default();
                    let sent_ts = if null_ts { None } else { owed.ts };
                    let res = tracker.getinv(client, sent_ts);

                    let expect_force = !registered || sent_ts.is_none() || owed.wrapped;
                    prop_assert_eq!(
                        res.force_invalidate, expect_force,
                        "client {}: force mismatch (registered={}, ts={:?}, wrapped={})",
                        client, registered, sent_ts, owed.wrapped
                    );
                    if !res.force_invalidate {
                        if let Some(prev) = sent_ts {
                            prop_assert!(
                                res.timestamp >= prev,
                                "client {} timestamp regressed: {} < {}",
                                client, res.timestamp, prev
                            );
                        }
                        prop_assert!(!res.poll_again, "poll_again below the pagination threshold");
                        let got: BTreeSet<Fh3> = res.handles.iter().copied().collect();
                        prop_assert_eq!(got.len(), res.handles.len(), "duplicate handles in reply");
                        prop_assert_eq!(&got, &owed.owed, "client {} reply != owed set", client);
                    }
                    // Either way the client is square afterwards.
                    *owed = Owed { ts: Some(res.timestamp), owed: BTreeSet::new(), wrapped: false };
                    // A drained (or rebooted) buffer sits at the clock.
                    let (floor, entries) = buffer_of(&tracker, client).expect("registered");
                    prop_assert_eq!(floor, tracker.now(), "post-drain floor not at clock");
                    prop_assert!(entries.is_empty(), "post-drain buffer not empty");
                }
            }

            check_buffer_shape(&tracker, capacity)?;
            for (client, floor, _) in tracker.snapshot() {
                let prev = floors.entry(client).or_insert(floor);
                prop_assert!(
                    floor >= *prev,
                    "client {} floor moved backwards: {} < {}",
                    client, floor, *prev
                );
                *prev = floor;
            }
        }
    }
}
