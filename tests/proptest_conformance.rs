//! Property-based conformance bridge between the `gvfs-analysis` model
//! checker and the runtime protocol tables.
//!
//! The checker proves the invariants below over *every* interleaving of
//! small configurations (depth ≤ 6); this bridge drives the same
//! implementations — [`DelegationTable`] and the shipped
//! [`ConcurrentInvalidationTracker`] — through random histories hundreds
//! of steps long and re-asserts the same safety properties after every
//! step:
//!
//! * **write-exclusion** — a write delegation never coexists with any
//!   other delegation on the same file, in any reachable state;
//! * **recall bookkeeping** — the table's `recalling` counter always
//!   equals the recall rounds the driver actually has in flight;
//! * **re-grantability** — from every final state, answering the
//!   outstanding recalls and draining pending write-backs makes every
//!   file write-delegable again (no stuck `PendingWriteback`);
//! * **refinement** — [`ConcurrentInvalidationTracker`] observed under
//!   a serial schedule refines §4.2.1's spec machine (the model
//!   checker's [`GetinvSpec`]): exact force flags, exact coalesced
//!   handle sets and the logical clock as the reply timestamp.
//!
//! Every rule is the one `gvfs_analysis::spec` states for the checker.

use gvfs_analysis::spec::{self, GetinvSpec, RecallRound};
use gvfs_core::delegation::{DelegationKind, DelegationTable};
use gvfs_core::invalidation::ConcurrentInvalidationTracker;
use gvfs_core::protocol::DelegationGrant;
use gvfs_core::DelegationConfig;
use gvfs_netsim::SimTime;
use gvfs_nfs3::Fh3;
use proptest::prelude::*;

const T0: SimTime = SimTime::ZERO;
/// Second dirty block a partial write-back answer reports (matches the
/// model checker's fixture).
const BLOCK: u64 = 32_768;
const CLIENTS: u32 = 3;
const FILES: u64 = 2;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// A client access reaches the proxy server.
    Access { client: u32, file: u64, write: bool },
    /// One outstanding recall is answered; `partial` answers a write
    /// recall with a dirty-block list instead of a full flush.
    Answer { pick: usize, partial: bool },
    /// The flusher submits the next outstanding write-back block.
    Writeback { file: u64 },
    /// Server restart: volatile table lost, rebuilt from the clients'
    /// RECOVER answers (each write-delegation holder reports its file
    /// dirty).
    Restart,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..=CLIENTS, 1u64..=FILES, any::<bool>())
            .prop_map(|(client, file, write)| Op::Access { client, file, write }),
        (0usize..64, any::<bool>()).prop_map(|(pick, partial)| Op::Answer { pick, partial }),
        (1u64..=FILES).prop_map(|file| Op::Writeback { file }),
        Just(Op::Restart),
    ]
}

fn check_recall_bookkeeping(
    table: &DelegationTable,
    rounds: &[RecallRound],
) -> Result<(), TestCaseError> {
    for snap in table.snapshot() {
        let in_flight = rounds.iter().filter(|r| r.fh == snap.fh).count() as u32;
        prop_assert_eq!(
            snap.recalling,
            in_flight,
            "{:?}: table says {} recall rounds, driver has {}",
            snap.fh,
            snap.recalling,
            in_flight
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random delegation histories keep the checker's invariants.
    #[test]
    fn delegation_table_conformance(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let mut table = DelegationTable::new(DelegationConfig::default());
        let mut rounds: Vec<RecallRound> = Vec::new();

        for op in ops {
            match op {
                Op::Access { client, file, write } => {
                    let fh = Fh3::from_fileid(file);
                    let (grant, recalls) = table.access(fh, client, write, Some(0), T0);
                    if grant == DelegationGrant::Write {
                        prop_assert_eq!(
                            table.held(fh, client),
                            Some(DelegationKind::Write),
                            "write grant not recorded for client {}",
                            client
                        );
                    }
                    if !recalls.is_empty() {
                        prop_assert_eq!(
                            grant,
                            DelegationGrant::NonCacheable,
                            "a conflicted access must be served non-cacheable"
                        );
                        table.begin_recall(fh);
                        rounds.push(RecallRound { fh, pending: recalls });
                    }
                }
                Op::Answer { pick, partial } => {
                    if rounds.is_empty() {
                        continue;
                    }
                    let r = pick % rounds.len();
                    let i = pick % rounds[r].pending.len();
                    let recall = rounds[r].pending.remove(i);
                    let blocks = if partial && recall.kind == DelegationKind::Write {
                        vec![0, BLOCK]
                    } else {
                        Vec::new()
                    };
                    table.recall_done(recall.fh, recall.client, blocks);
                    if rounds[r].pending.is_empty() {
                        let done = rounds.remove(r);
                        table.end_recall(done.fh);
                    }
                }
                Op::Writeback { file } => {
                    let fh = Fh3::from_fileid(file);
                    if let Some(p) = table.pending_writeback(fh) {
                        let (client, block) =
                            (p.client, *p.blocks.iter().next().expect("non-empty pending"));
                        table.note_writeback(fh, client, block);
                    }
                }
                Op::Restart => {
                    // Each client re-reports the files it holds write
                    // delegations on (those are the ones it may hold
                    // dirty data for); recall rounds die with the server.
                    let mut dirty: Vec<(u32, Vec<Fh3>)> = Vec::new();
                    for snap in table.snapshot() {
                        for &(client, kind) in &snap.sharers {
                            if kind == Some(DelegationKind::Write) {
                                match dirty.iter_mut().find(|(c, _)| *c == client) {
                                    Some((_, files)) => files.push(snap.fh),
                                    None => dirty.push((client, vec![snap.fh])),
                                }
                            }
                        }
                    }
                    table = DelegationTable::new(DelegationConfig::default());
                    rounds.clear();
                    for (client, files) in dirty {
                        table.recover_client(client, &files, T0);
                    }
                }
            }

            spec::write_exclusion(&table.snapshot()).map_err(TestCaseError::fail)?;
            check_recall_bookkeeping(&table, &rounds)?;
        }

        // Re-grantability: once the dust settles — recalls answered,
        // write-backs drained, and enough time passed for speculated
        // opens to expire — every file must be write-delegable again
        // for a fresh client.
        spec::settle(&mut table, rounds).map_err(TestCaseError::fail)?;
        let late = T0 + DelegationConfig::default().expiration + std::time::Duration::from_secs(1);
        let files: Vec<Fh3> = (1..=FILES).map(Fh3::from_fileid).collect();
        spec::regrantable(&mut table, &files, 99, late).map_err(TestCaseError::fail)?;
    }

    /// The shipped invalidation tracker refines the §4.2.1 spec: per
    /// registered client, the set of files owed since its last drain
    /// and whether that set outgrew the buffer (wrap). A reply forces
    /// exactly on a null timestamp, first contact or wrap; otherwise it
    /// delivers exactly the owed set, each handle once, stamped with the
    /// current logical clock.
    #[test]
    fn invalidation_tracker_refines_spec(
        capacity in 1usize..=5,
        ops in proptest::collection::vec(
            prop_oneof![
                (1u32..=CLIENTS, 1u64..=4u64).prop_map(|(w, f)| (0u8, w, f)),
                (1u32..=CLIENTS).prop_map(|c| (1u8, c, 0)),
                (1u32..=CLIENTS).prop_map(|c| (2u8, c, 0)),
            ],
            1..150,
        ),
    ) {
        let tracker = ConcurrentInvalidationTracker::new(capacity);
        let mut getinv = GetinvSpec::new(capacity, 1..=CLIENTS);

        for (kind, client, file) in ops {
            match kind {
                0 => {
                    let fh = Fh3::from_fileid(file);
                    tracker.record_modification(fh, client);
                    getinv.modify(fh, client);
                }
                kind => {
                    // kind 1 polls with the remembered timestamp, kind 2
                    // with null (a restarted client).
                    if kind == 2 {
                        getinv.client_crash(client);
                    }
                    let res = tracker.getinv(client, getinv.ts(client));
                    getinv.reply(client, &res).map_err(TestCaseError::fail)?;
                }
            }
            prop_assert_eq!(tracker.now(), getinv.clock(), "logical clock diverges from the spec");
        }
    }
}
