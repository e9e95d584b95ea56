//! Allocation budget of the persistent store's block path: a counting
//! global allocator pins the bytes one steady-state 32 KiB `write_dirty`
//! or `insert_clean` (the most over 1,024 of each), one 32 KiB
//! `insert_clean` 64 MiB into a new file, one 32 KiB `read` and one
//! whole `sync_every` cycle of writes allocate on an instant-disk store
//! (the least cycle, and the most over forty cycles), and that a disk
//! sync allocates nothing. Each budget is the measured count rounded
//! up to the next 32 KiB, so one more copy of the block anywhere on the
//! path fails the test. It also counts the allocations of one scrub
//! step over a store of many files, which must not grow with the number
//! of files.

use gvfs_core::store::persist::{PersistConfig, PersistentStore};
use gvfs_netsim::disk::{DiskConfig, VirtualDisk};
use gvfs_nfs3::Fh3;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::thread::LocalKey;

const BLOCK: usize = 32 * 1024;
/// Measured 65,536 B at most: the two WAL pages a frame lands about once
/// in a thousand writes (32,768 B, one page, on most). The frame buffer
/// is kept between appends, and the index and the data-file path
/// allocate nothing per write.
const WRITE_BUDGET: u64 = 2 * BLOCK as u64;
/// Measured 32,768 B at most: the WAL's last page growing to a whole
/// page under the small `InsertClean` frames (0 B on most inserts). The
/// data file keeps the inserted buffer as its page.
const INSERT_BUDGET: u64 = BLOCK as u64;
/// Where the far insert lands: 64 MiB into a new file.
const FAR_OFFSET: u64 = 64 << 20;
/// Measured 88,452 B: the block's own page (32,768 B) and the data
/// file's page table across the hole (33 chunks of 64 entries, 50,688
/// B), plus the new entry and the file's path. The 64 MiB hole before
/// the block allocates nothing.
const FAR_INSERT_BUDGET: u64 = 3 * BLOCK as u64;
/// Measured 32,768 B: the bytes read off the disk, which the caller gets.
const READ_BUDGET: u64 = 2 * BLOCK as u64;
/// Measured 2,098,688 B: 64 WAL pages (the data file keeps each written
/// block as its page, and the page it replaces moves into the undo
/// record) and one chunk of the WAL's page table; 2,132,992 B at most,
/// on the cycles that land a 65th WAL page.
const CYCLE_BUDGET: u64 = 66 * BLOCK as u64;

thread_local! {
    /// Only allocations of the measuring thread count, into its own
    /// total, so tests measuring at the same time do not add up.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: `alloc` and `dealloc` forward to `System` unchanged, so its
// guarantees carry over; the counting touches only const-initialized
// thread-locals, which do not allocate. The
// default `alloc_zeroed` and `realloc` allocate through `alloc`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATED.with(|a| a.set(a.get() + layout.size() as u64));
            ALLOCATIONS.with(|a| a.set(a.get() + 1));
        }
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated on this thread while `f` runs.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (u64, R) {
    counted(&ALLOCATED, f)
}

/// Allocations made on this thread while `f` runs.
fn allocations_by<R>(f: impl FnOnce() -> R) -> (u64, R) {
    counted(&ALLOCATIONS, f)
}

/// What `f` adds to this thread's `counter`.
fn counted<R>(counter: &'static LocalKey<Cell<u64>>, f: impl FnOnce() -> R) -> (u64, R) {
    let before = counter.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (counter.with(Cell::get) - before, out)
}

/// Writes 32 KiB blocks to `fh` at offset 0 until the store has synced
/// once, so the data file, the WAL and their durable copies exist;
/// returns the next round.
fn warm_up(store: &mut PersistentStore, disk: &VirtualDisk, fh: Fh3) -> usize {
    let mut round = 0;
    while disk.stats().syncs == 0 {
        store.write_dirty(fh, 0, block(round));
        round += 1;
    }
    round
}

fn block(round: usize) -> Vec<u8> {
    vec![round as u8; BLOCK]
}

#[test]
fn a_block_write_and_read_allocate_within_budget() {
    let disk = VirtualDisk::new(DiskConfig::instant());
    let mut store = PersistentStore::open(Arc::clone(&disk), PersistConfig::default());
    let fh = Fh3::from_fileid(1);
    let first = warm_up(&mut store, &disk, fh);
    // The most over 1,024 writes: the periodic syncs, the WAL's page
    // table chunks and the writes whose frame lands a second WAL page
    // all fall among them.
    let rounds = first..first + 1024;
    let write = rounds
        .clone()
        .map(|round| {
            let data = block(round);
            allocated_by(|| store.write_dirty(fh, 0, data)).0
        })
        .max()
        .expect("measured writes");
    let (read, data) = allocated_by(|| store.read(fh, 0, BLOCK));
    assert_eq!(data, Some(block(rounds.end - 1)), "the read returns the last write");
    assert!(write <= WRITE_BUDGET, "write_dirty allocated {write} B, budget {WRITE_BUDGET} B");
    assert!(read <= READ_BUDGET, "read allocated {read} B, budget {READ_BUDGET} B");
}

#[test]
fn a_block_clean_insert_allocates_within_budget() {
    let disk = VirtualDisk::new(DiskConfig::instant());
    let mut store = PersistentStore::open(Arc::clone(&disk), PersistConfig::default());
    let fh = Fh3::from_fileid(1);
    let first = warm_up(&mut store, &disk, fh);
    store.clean_range(fh, 0, BLOCK as u64);
    // The most over 1,024 refetches of the block, as after an
    // invalidation, so every insert overwrites the one before.
    let insert = (first..first + 1024)
        .map(|round| {
            store.drop_clean(fh);
            let data = block(round);
            allocated_by(|| store.insert_clean(fh, 0, data)).0
        })
        .max()
        .expect("measured inserts");
    assert_eq!(store.read(fh, 0, BLOCK), Some(block(first + 1023)));
    assert!(insert <= INSERT_BUDGET, "insert_clean allocated {insert} B, budget {INSERT_BUDGET} B");
}

#[test]
fn a_clean_insert_far_into_a_file_allocates_its_own_block_not_the_hole() {
    let disk = VirtualDisk::new(DiskConfig::instant());
    let mut store = PersistentStore::open(Arc::clone(&disk), PersistConfig::default());
    warm_up(&mut store, &disk, Fh3::from_fileid(1));
    let (fh, far) = (Fh3::from_fileid(2), FAR_OFFSET);
    let data = block(7);
    let (insert, ()) = allocated_by(|| store.insert_clean(fh, far, data));
    assert_eq!(store.read(fh, far, BLOCK), Some(block(7)));
    assert_eq!(store.read(fh, far - BLOCK as u64, BLOCK), None, "the hole is not cached");
    assert!(
        insert <= FAR_INSERT_BUDGET,
        "insert_clean at {far} B allocated {insert} B, budget {FAR_INSERT_BUDGET} B"
    );
}

#[test]
fn a_sync_every_cycle_allocates_within_budget_and_sync_allocates_nothing() {
    let disk = VirtualDisk::new(DiskConfig::instant());
    let cfg = PersistConfig::default();
    let cycle = cfg.sync_every;
    let mut store = PersistentStore::open(Arc::clone(&disk), cfg);
    let fh = Fh3::from_fileid(1);
    // Warm up through two syncs, stopping on the write that synced.
    let mut round = 0;
    let warm = disk.stats().syncs + 2;
    while disk.stats().syncs < warm {
        store.write_dirty(fh, 0, block(round));
        round += 1;
    }
    // The least over four cycles: the WAL's amortized growth lands on
    // some cycles and not others.
    let cycle_bytes = (0..4)
        .map(|_| {
            let blocks: Vec<Vec<u8>> = (round..round + cycle).map(block).collect();
            round += cycle;
            let before = disk.stats().syncs;
            allocated_by(|| {
                for (i, data) in blocks.into_iter().enumerate() {
                    store.write_dirty(fh, 0, data);
                    let synced = disk.stats().syncs - before;
                    assert_eq!(synced, u64::from(i + 1 == cycle), "only the last write syncs");
                }
            })
            .0
        })
        .min()
        .expect("measured cycles");
    assert!(
        cycle_bytes <= CYCLE_BUDGET,
        "a {cycle}-write cycle allocated {cycle_bytes} B, budget {CYCLE_BUDGET} B"
    );
    // A sync after overwrites, appends and a new file copies nothing.
    store.write_dirty(fh, 0, block(round));
    store.write_dirty(Fh3::from_fileid(2), 0, block(round));
    let (sync, ()) = allocated_by(|| disk.sync());
    assert_eq!(sync, 0, "VirtualDisk::sync allocated {sync} B");
}

#[test]
fn every_cycle_up_to_a_wal_of_80_mib_allocates_within_budget() {
    let disk = VirtualDisk::new(DiskConfig::instant());
    let cfg = PersistConfig::default();
    let cycle = cfg.sync_every;
    let mut store = PersistentStore::open(Arc::clone(&disk), cfg);
    let fh = Fh3::from_fileid(1);
    // Warm up through the first sync only, so the measured cycles start
    // below 4 MiB of WAL and cross every doubling of its length up to
    // 64 MiB.
    let mut round = 0;
    while disk.stats().syncs == 0 {
        store.write_dirty(fh, 0, block(round));
        round += 1;
    }
    let wal_len = || disk.len("wal.log").expect("the WAL exists");
    let first = wal_len();
    assert!(first < 4 << 20, "the measured cycles start at {first} B of WAL, past 4 MiB");
    // The most over forty cycles: about one in fourteen lands a 65th
    // WAL page, and the WAL grows past 80 MiB.
    let mut most = 0;
    for _ in 0..40 {
        let blocks: Vec<Vec<u8>> = (round..round + cycle).map(block).collect();
        round += cycle;
        let (bytes, ()) = allocated_by(|| {
            for data in blocks {
                store.write_dirty(fh, 0, data);
            }
        });
        most = most.max(bytes);
    }
    assert!(wal_len() > 80 << 20, "the WAL reached {} B", wal_len());
    assert!(
        most <= CYCLE_BUDGET,
        "a {cycle}-write cycle allocated up to {most} B, budget {CYCLE_BUDGET} B"
    );
}

/// One scrub step over every block of 64 files of four blocks each
/// builds one sweep list for the whole store: fewer allocations than
/// files (measured 7, the list's growth).
#[test]
fn a_scrub_step_allocates_less_than_once_per_file() {
    const FILES: u64 = 64;
    let disk = VirtualDisk::new(DiskConfig::instant());
    let mut store = PersistentStore::open(Arc::clone(&disk), PersistConfig::default());
    for id in 1..=FILES {
        store.insert_clean(Fh3::from_fileid(id), 0, vec![id as u8; 4 * BLOCK]);
    }
    let (allocs, scrubbed) = allocations_by(|| store.scrub_step(usize::MAX));
    assert_eq!(scrubbed, FILES as usize * 4 * BLOCK, "the step verified every block");
    assert_eq!(store.stats().integrity_failures, 0);
    assert!(allocs < FILES, "a scrub step over {FILES} files made {allocs} allocations");
}
