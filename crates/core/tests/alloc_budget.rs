//! Allocation budget of the persistent store's block path: a counting
//! global allocator pins the bytes one steady-state 32 KiB `write_dirty`,
//! one 32 KiB `read` and one whole `sync_every` cycle of writes allocate
//! on an instant-disk store (the least cycle, and the most over forty
//! cycles), and that a disk sync allocates nothing. Each budget is the
//! measured count rounded up to the next 32 KiB, so one more copy of
//! the block anywhere on the path fails the test.

use gvfs_core::store::persist::{PersistConfig, PersistentStore};
use gvfs_core::store::BlockStore;
use gvfs_netsim::disk::{DiskConfig, VirtualDisk};
use gvfs_nfs3::Fh3;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

const BLOCK: usize = 32 * 1024;
/// Measured 32,908 B: the WAL page the frame fills (the frame buffer is
/// kept between appends).
const WRITE_BUDGET: u64 = 2 * BLOCK as u64;
/// Measured 32,840 B: the bytes read off the disk, which the caller gets.
const READ_BUDGET: u64 = 2 * BLOCK as u64;
/// Measured 2,107,648 B: 64 WAL pages (the data file keeps each written
/// block as its page, and the page it replaces moves into the undo
/// record), one chunk of the WAL's page table and about 140 B of index
/// and path allocations per write; 2,140,416 B at most, on the cycles
/// that land a 65th WAL page.
const CYCLE_BUDGET: u64 = 66 * BLOCK as u64;

thread_local! {
    /// Only allocations of the measuring thread count, into its own
    /// total, so tests measuring at the same time do not add up.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
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
    let before = ALLOCATED.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATED.with(Cell::get) - before, out)
}

#[test]
fn a_block_write_and_read_allocate_within_budget() {
    let disk = VirtualDisk::new(DiskConfig::instant());
    let mut store = PersistentStore::open(disk, PersistConfig::default());
    let fh = Fh3::from_fileid(1);
    let block = |round: usize| vec![round as u8; BLOCK];
    // Warm up the data file, the WAL and their durable copies. Then take
    // the least over several writes: the WAL's amortized growth and its
    // periodic syncs land on some writes and not others.
    for round in 0..8 {
        store.write_dirty(fh, 0, block(round));
    }
    let write = (8..24)
        .map(|round| {
            let data = block(round);
            allocated_by(|| store.write_dirty(fh, 0, data)).0
        })
        .min()
        .expect("measured writes");
    let (read, data) = allocated_by(|| store.read(fh, 0, BLOCK));
    assert_eq!(data, Some(block(23)), "the read returns the last write");
    assert!(write <= WRITE_BUDGET, "write_dirty allocated {write} B, budget {WRITE_BUDGET} B");
    assert!(read <= READ_BUDGET, "read allocated {read} B, budget {READ_BUDGET} B");
}

#[test]
fn a_sync_every_cycle_allocates_within_budget_and_sync_allocates_nothing() {
    let disk = VirtualDisk::new(DiskConfig::instant());
    let cfg = PersistConfig::default();
    let cycle = cfg.sync_every;
    let mut store = PersistentStore::open(Arc::clone(&disk), cfg);
    let fh = Fh3::from_fileid(1);
    let block = |round: usize| vec![round as u8; BLOCK];
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
    let block = |round: usize| vec![round as u8; BLOCK];
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
