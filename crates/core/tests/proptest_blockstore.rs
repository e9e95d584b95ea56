//! Differential property test: the persistent block store must be
//! observably identical to the in-memory one.
//!
//! Random operation sequences — clean inserts, dirty writes, block
//! cleaning, invalidation (revalidate with a moved tag), forget,
//! eviction pressure, sync and crash-reopen — drive a
//! [`PersistentStore`] and a [`MemStore`] in lockstep. After every
//! operation the two must agree on every probed read, on the
//! `missing_ranges` tiling, and on the dirty-extent tiling.
//!
//! Crashes come in two flavours:
//!
//! * **Synced crash** — `sync()` then `crash_reopen()`. The WAL covers
//!   everything, so recovery must reproduce the current state exactly;
//!   the mirror is left untouched and lockstep comparison continues.
//! * **Unsynced crash** — `crash_reopen()` with arbitrary unsynced
//!   tail. The store may legally lose a suffix of operations, but what
//!   it recovers must be *some* historical state between the last
//!   durability point and now — never a torn or reordered mixture. The
//!   test keeps a snapshot of the mirror after every op and requires
//!   the recovered fingerprint to equal one of the eligible snapshots,
//!   then rolls the mirror back to the matching snapshot and resumes
//!   lockstep comparison from there.
//!
//! Each write's payload is drawn from a global counter so every
//! operation's bytes are distinct — a recovered state can only
//! fingerprint-match the snapshot it truly corresponds to.

use gvfs_core::store::mem::MemStore;
use gvfs_core::store::persist::{PersistConfig, PersistentStore};
use gvfs_core::store::BlockStore;
use gvfs_netsim::disk::{DiskConfig, DiskFaultPlan, VirtualDisk};
use gvfs_netsim::fault::Window;
use gvfs_netsim::SimTime;
use gvfs_nfs3::{Fh3, NfsTime3};
use proptest::prelude::*;

const SPACE: u64 = 1024; // probed address space per file
const NFILES: u64 = 3;
const BLOCK: u64 = 64; // persistent-store chunking granularity

fn fh(i: u64) -> Fh3 {
    Fh3::from_fileid(i + 1)
}

fn tag(s: u32) -> NfsTime3 {
    NfsTime3 { seconds: s, nseconds: 0 }
}

/// Distinct bytes per operation: `fill(counter, len)` never collides
/// with another op's payload unless lengths and counter agree.
fn fill(counter: u32, len: usize) -> Vec<u8> {
    let b = counter.to_le_bytes();
    (0..len).map(|i| b[i % 4].wrapping_add((i / 4) as u8)).collect()
}

#[derive(Debug, Clone)]
enum Op {
    InsertClean { file: u64, offset: u64, len: usize },
    WriteDirty { file: u64, offset: u64, len: usize },
    CleanRange { file: u64, offset: u64, len: u64 },
    DropClean { file: u64 },
    Forget { file: u64 },
    Revalidate { file: u64, tag: u32 },
    Retag { file: u64, tag: u32 },
    NoteSize { file: u64, size: u64 },
    Sync,
    Crash,
}

fn op_strategy(with_crash: bool) -> impl Strategy<Value = Op> {
    let file = 0..NFILES;
    let span = (0..NFILES, 0..SPACE - 1, 1usize..256);
    // The shimmed prop_oneof! has no weights; duplicated arms bias the
    // mix toward data-moving operations.
    let base = prop_oneof![
        span.clone().prop_map(|(file, offset, len)| Op::InsertClean {
            file,
            offset,
            len: len.min((SPACE - offset) as usize),
        }),
        span.clone().prop_map(|(file, offset, len)| Op::InsertClean {
            file,
            offset,
            len: len.min((SPACE - offset) as usize),
        }),
        span.clone().prop_map(|(file, offset, len)| Op::WriteDirty {
            file,
            offset,
            len: len.min((SPACE - offset) as usize),
        }),
        span.prop_map(|(file, offset, len)| Op::WriteDirty {
            file,
            offset,
            len: len.min((SPACE - offset) as usize),
        }),
        (0..NFILES, 0..SPACE - 1, 1u64..512).prop_map(|(file, offset, len)| {
            Op::CleanRange { file, offset, len: len.min(SPACE - offset) }
        }),
        file.clone().prop_map(|file| Op::DropClean { file }),
        file.clone().prop_map(|file| Op::Forget { file }),
        (file.clone(), 1u32..4).prop_map(|(file, tag)| Op::Revalidate { file, tag }),
        (file.clone(), 1u32..4).prop_map(|(file, tag)| Op::Retag { file, tag }),
        (file, prop_oneof![Just(64u64), Just(SPACE)])
            .prop_map(|(file, size)| Op::NoteSize { file, size }),
    ];
    if with_crash {
        prop_oneof![base, Just(Op::Sync), Just(Op::Crash)].boxed()
    } else {
        base.boxed()
    }
}

/// Applies one op to a store; `counter` disambiguates payloads.
fn apply(store: &mut dyn BlockStore, op: &Op, counter: u32) {
    match *op {
        Op::InsertClean { file, offset, len } => {
            store.insert_clean(fh(file), offset, fill(counter, len));
        }
        Op::WriteDirty { file, offset, len } => {
            store.write_dirty(fh(file), offset, fill(counter, len));
        }
        Op::CleanRange { file, offset, len } => store.clean_range(fh(file), offset, len),
        Op::DropClean { file } => store.drop_clean(fh(file)),
        Op::Forget { file } => store.forget(fh(file)),
        Op::Revalidate { file, tag: t } => store.revalidate(fh(file), tag(t)),
        Op::Retag { file, tag: t } => store.retag(fh(file), tag(t)),
        Op::NoteSize { file, size } => store.note_size(fh(file), size),
        Op::Sync | Op::Crash => unreachable!("handled by the driver"),
    }
}

/// Everything observable about a store, byte by byte.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    /// Per file: which bytes are readable and their values, probed in
    /// `BLOCK`-sized reads plus per-byte reads over the gaps.
    content: Vec<Vec<Option<u8>>>,
    dirty: Vec<Vec<(u64, usize)>>,
}

fn fingerprint(store: &mut dyn BlockStore) -> Fingerprint {
    let mut content = Vec::new();
    let mut dirty = Vec::new();
    for i in 0..NFILES {
        let mut bytes: Vec<Option<u8>> = vec![None; SPACE as usize];
        // Per-byte availability via missing_ranges (cheap), values via
        // reads over the present runs.
        let gaps = store.missing_ranges(fh(i), 0, SPACE as usize);
        let mut present = vec![true; SPACE as usize];
        for (off, len) in gaps {
            for p in &mut present[off as usize..off as usize + len] {
                *p = false;
            }
        }
        let mut pos = 0usize;
        while pos < SPACE as usize {
            if present[pos] {
                let mut end = pos;
                while end < SPACE as usize && present[end] {
                    end += 1;
                }
                let data = store
                    .read(fh(i), pos as u64, end - pos)
                    .expect("missing_ranges says the run is fully covered");
                for (k, b) in data.iter().enumerate() {
                    bytes[pos + k] = Some(*b);
                }
                pos = end;
            } else {
                pos += 1;
            }
        }
        content.push(bytes);
        dirty.push(store.dirty_ranges(fh(i)));
    }
    Fingerprint { content, dirty }
}

/// Asserts full observable equality between the two stores.
fn assert_match(
    persist: &mut PersistentStore,
    mirror: &mut MemStore,
    probes: &[(u64, u64, usize)],
    context: &Op,
) -> Result<(), TestCaseError> {
    for &(file, offset, len) in probes {
        let len = len.min((SPACE - offset) as usize);
        let p = persist.read(fh(file), offset, len);
        let m = mirror.read(fh(file), offset, len);
        prop_assert_eq!(&p, &m, "read({}, {}, {}) diverged after {:?}", file, offset, len, context);
        let pg = persist.missing_ranges(fh(file), offset, len);
        let mg = mirror.missing_ranges(fh(file), offset, len);
        prop_assert_eq!(
            &pg,
            &mg,
            "missing_ranges({}, {}, {}) diverged after {:?}",
            file,
            offset,
            len,
            context
        );
    }
    for i in 0..NFILES {
        prop_assert_eq!(
            persist.dirty_ranges(fh(i)),
            mirror.dirty_ranges(fh(i)),
            "dirty tiling diverged for file {} after {:?}",
            i,
            context
        );
        prop_assert_eq!(
            persist.dirty_blocks(fh(i), BLOCK),
            mirror.dirty_blocks(fh(i), BLOCK),
            "dirty_blocks diverged for file {} after {:?}",
            i,
            context
        );
        prop_assert_eq!(persist.has_dirty(fh(i)), mirror.has_dirty(fh(i)));
    }
    prop_assert_eq!(persist.dirty_files(), mirror.dirty_files());
    Ok(())
}

fn big_store(disk: std::sync::Arc<VirtualDisk>) -> PersistentStore {
    PersistentStore::open(
        disk,
        PersistConfig {
            capacity: 1 << 30, // no eviction: LRU recency is volatile across replay
            block_size: BLOCK,
            file_threshold: 128,
            // No implicit durability: the only sync points are the ones
            // the op sequence performs (plus clean_range's barrier).
            checkpoint_every: usize::MAX,
            sync_every: usize::MAX,
            verify: true,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lockstep equivalence with crash-reopen, both synced and not.
    #[test]
    fn persistent_store_matches_mem_store(
        ops in proptest::collection::vec(op_strategy(true), 1..50),
        probes in proptest::collection::vec((0..NFILES, 0..SPACE - 1, 1usize..300), 6),
    ) {
        let disk = VirtualDisk::new(DiskConfig::instant());
        let mut persist = big_store(disk);
        let mut mirror = MemStore::new(1 << 30);

        // Mirror snapshots along the current timeline; the top is always
        // the present state. `floor` is the last *durability barrier*
        // (sync or clean_range): any crash — including one right after a
        // recovery, whose replayed-but-unsynced WAL suffix may be lost
        // again — must land on some state in `floor..=top`.
        let mut snapshots: Vec<MemStore> = vec![mirror.clone()];
        let mut floor = 0usize;
        let mut counter = 0u32;

        for op in &ops {
            match op {
                Op::Sync => {
                    persist.sync();
                    floor = snapshots.len() - 1;
                }
                Op::Crash => {
                    persist.crash_reopen();
                    let got = fingerprint(&mut persist);
                    let eligible = floor..snapshots.len();
                    let matched = eligible.clone().rev().find(|&k| {
                        fingerprint(&mut snapshots[k].clone()) == got
                    });
                    prop_assert!(
                        matched.is_some(),
                        "recovered state is not any historical state in {:?} (ops={:?})",
                        eligible, ops
                    );
                    let k = matched.expect("checked");
                    // Resume lockstep from the state the store recovered.
                    // `floor` does not move: replay does not sync, so a
                    // later crash may regress further (never below floor).
                    mirror = snapshots[k].clone();
                    snapshots.truncate(k + 1);
                }
                other => {
                    counter += 1;
                    apply(&mut persist, other, counter);
                    apply(&mut mirror, other, counter);
                    snapshots.push(mirror.clone());
                    // clean_range is an unconditional durability barrier
                    // (write-back completion must survive restart).
                    if let Op::CleanRange { .. } = other {
                        floor = snapshots.len() - 1;
                    }
                    assert_match(&mut persist, &mut mirror, &probes, other)?;
                }
            }
        }
    }

    /// A synced crash must recover the *current* state exactly — the
    /// strong version of the property above.
    #[test]
    fn synced_crash_recovers_the_live_state(
        ops in proptest::collection::vec(op_strategy(false), 1..40),
        probes in proptest::collection::vec((0..NFILES, 0..SPACE - 1, 1usize..300), 6),
    ) {
        let disk = VirtualDisk::new(DiskConfig::instant());
        let mut persist = big_store(disk);
        let mut mirror = MemStore::new(1 << 30);
        let mut counter = 0u32;
        for op in &ops {
            counter += 1;
            apply(&mut persist, op, counter);
            apply(&mut mirror, op, counter);
        }
        persist.sync();
        persist.crash_reopen();
        let last = ops.last().expect("non-empty");
        assert_match(&mut persist, &mut mirror, &probes, last)?;
        prop_assert_eq!(
            fingerprint(&mut persist),
            fingerprint(&mut mirror),
            "synced crash lost or invented state"
        );
    }

    /// Under eviction pressure (no crashes) the two stores still agree:
    /// the LRU clocks tick identically, dirty data is never evicted, and
    /// accounting stays within bounds.
    #[test]
    fn eviction_pressure_stays_in_lockstep(
        ops in proptest::collection::vec(op_strategy(false), 1..40),
        probes in proptest::collection::vec((0..NFILES, 0..SPACE - 1, 1usize..300), 6),
    ) {
        const CAP: usize = 1200; // forces eviction with 1 KiB files
        let disk = VirtualDisk::new(DiskConfig::instant());
        let mut persist = PersistentStore::open(
            disk,
            PersistConfig {
                capacity: CAP,
                block_size: BLOCK,
                file_threshold: 128,
                checkpoint_every: usize::MAX,
                sync_every: usize::MAX,
                verify: true,
            },
        );
        let mut mirror = MemStore::new(CAP);
        let mut counter = 0u32;
        for op in &ops {
            counter += 1;
            apply(&mut persist, op, counter);
            apply(&mut mirror, op, counter);
            assert_match(&mut persist, &mut mirror, &probes, op)?;
            // Dirty bytes may exceed capacity (they are unevictable);
            // clean bytes beyond capacity must have been evicted.
            let dirty_total: usize = (0..NFILES)
                .map(|i| persist.dirty_ranges(fh(i)).iter().map(|(_, l)| l).sum::<usize>())
                .sum();
            prop_assert!(
                persist.used_bytes() <= CAP.max(dirty_total) + SPACE as usize,
                "used {} exceeds capacity {} + slack", persist.used_bytes(), CAP
            );
            prop_assert_eq!(persist.used_bytes(), mirror.used_bytes());
        }
    }
}

/// Re-feeds the oracle's bytes over one quarantined range, the way the
/// proxy's miss path (clean: a refetch) or the application (dirty: a
/// re-issued write) would. Quarantine is block-granular, so an event
/// may overhang the oracle's coverage — only the covered runs are
/// repairable, and only they are compared afterwards.
fn repair_from(
    persist: &mut PersistentStore,
    mirror: &mut MemStore,
    ev: &gvfs_core::store::IntegrityEvent,
) {
    let len = usize::try_from(ev.len).expect("extent fits");
    let end = ev.offset + ev.len;
    let mut pos = ev.offset;
    for (goff, glen) in mirror.missing_ranges(ev.fh, ev.offset, len).into_iter().chain([(end, 0)]) {
        if pos < goff {
            let run = usize::try_from(goff - pos).expect("run fits");
            let bytes = mirror.read(ev.fh, pos, run).expect("between gaps the run is covered");
            if ev.dirty {
                persist.write_dirty(ev.fh, pos, bytes);
            } else {
                persist.insert_clean(ev.fh, pos, bytes);
            }
        }
        pos = goff + glen as u64;
    }
}

/// Expands a store's dirty tiling into a per-byte set, so the
/// corruption arm can compare dirtiness without demanding that the two
/// stores coalesce repaired runs into identical `(offset, len)` pairs.
fn dirty_byte_sets(store: &mut dyn BlockStore) -> Vec<Vec<bool>> {
    (0..NFILES)
        .map(|i| {
            let mut set = vec![false; SPACE as usize];
            for (off, len) in store.dirty_ranges(fh(i)) {
                for b in &mut set[off as usize..off as usize + len] {
                    *b = true;
                }
            }
            set
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Corruption arm: a seeded [`DiskFaultPlan`] rolls bit flips, torn
    /// sector writes and transient read errors under an arbitrary op
    /// sequence. Crash ops are excluded on purpose: WAL replay skips
    /// pre-write verification, so a crash inside the fault window could
    /// launder rot into "recovered" state — that corner is carved out
    /// here exactly as it is in the chaos scenario, and covered by the
    /// WAL-frame quarantine regression test instead.
    ///
    /// The live property is one-sided: every read the store *answers*
    /// must be byte-identical to the oracle — a rotted or unreadable
    /// block may surface only as `None` (a quarantine-induced miss),
    /// never as wrong bytes, and never with `served` set while
    /// verification is on. Quarantined extents are repaired the way the
    /// proxy's miss path would — clean extents re-inserted from the
    /// oracle (a refetch), dirty extents re-written (the application
    /// re-issuing the write it was told was lost). After the fault plan
    /// is disarmed, one full scrub sweep plus those repairs must
    /// reconverge the store with the oracle byte for byte.
    #[test]
    fn corruption_is_quarantined_never_served(
        ops in proptest::collection::vec(op_strategy(false), 1..40),
        probes in proptest::collection::vec((0..NFILES, 0..SPACE - 1, 1usize..300), 6),
        seed in 0u64..1 << 32,
    ) {
        let disk = VirtualDisk::new(DiskConfig::instant());
        let mut persist = big_store(disk.clone());
        let mut mirror = MemStore::new(1 << 30);

        // Outside the simulator the disk clock is pinned at ZERO, so
        // one open-ended window keeps every fault armed for the whole
        // op sequence. The plan covers only data/ and chunks/ — WAL
        // corruption has its own replay-path tests.
        let always = Window::new(SimTime::ZERO, SimTime::from_secs(1));
        disk.set_fault_plan(Some(
            DiskFaultPlan::new(seed)
                .with_flips(always, 0.05)
                .with_torn_writes(always, 0.05)
                .with_transient_read_errors(0, SPACE / 2, 0.05)
                .with_path_prefix("data/")
                .with_path_prefix("chunks/"),
        ));

        let mut counter = 0u32;
        for op in &ops {
            counter += 1;
            apply(&mut persist, op, counter);
            apply(&mut mirror, op, counter);
            for &(file, offset, len) in &probes {
                let len = len.min((SPACE - offset) as usize);
                if let Some(p) = persist.read(fh(file), offset, len) {
                    let m = mirror.read(fh(file), offset, len);
                    prop_assert_eq!(
                        Some(p), m,
                        "served bytes diverged from the oracle on read({}, {}, {}) after {:?}",
                        file, offset, len, op
                    );
                }
            }
            // Repair what this iteration quarantined, while the oracle
            // still holds the matching state. Repair writes roll the
            // same torn-write dice, so a repair may itself be
            // re-quarantined later — the post-disarm sweep settles it.
            for ev in persist.take_integrity_events() {
                prop_assert!(!ev.served, "verification is on: nothing may be served corrupt");
                repair_from(&mut persist, &mut mirror, &ev);
            }
        }

        // Disarm the rot, then sweep-and-repair to a fixed point. One
        // pass is not always enough: a repair write that only partially
        // covers a block pre-verifies the block's old content, and a
        // stale rotted sum there quarantines a *neighboring* extent —
        // which the next pass repairs in turn. Each pass rewrites rot
        // with fresh content and sums, so the fallout strictly shrinks.
        disk.set_fault_plan(None);
        let mut settled = false;
        for _ in 0..8 {
            persist.scrub_step(usize::MAX);
            let events = persist.take_integrity_events();
            if events.is_empty() {
                settled = true;
                break;
            }
            for ev in events {
                prop_assert!(!ev.served);
                repair_from(&mut persist, &mut mirror, &ev);
            }
        }
        // At the fixed point nothing is left to quarantine, and the
        // store agrees with the oracle byte for byte (tilings may
        // coalesce differently after repair, so dirtiness is compared
        // per byte, not per run).
        prop_assert!(settled, "the repaired store must verify clean");
        let p = fingerprint(&mut persist);
        let m = fingerprint(&mut mirror);
        prop_assert_eq!(p.content, m.content, "post-repair content must match the oracle");
        prop_assert_eq!(
            dirty_byte_sets(&mut persist),
            dirty_byte_sets(&mut mirror),
            "post-repair dirtiness must match the oracle"
        );
    }
}
