//! Pluggable block stores backing the proxy client's disk cache.
//!
//! The paper's proxy clients keep *disk* caches (§4.1) whose validity is
//! maintained by the consistency protocol alone. [`BlockStore`] is the
//! storage abstraction under [`crate::cache::DiskCache`]: byte extents
//! per file handle, clean or dirty, with LRU eviction of clean data and
//! an mtime *tag* per file used for revalidation-by-invalidation.
//!
//! Two implementations:
//!
//! * [`mem::MemStore`] — the original in-memory extent maps. Volatile:
//!   a restart is a cold WAN start.
//! * [`persist::PersistentStore`] — an on-disk layout over a
//!   [`gvfs_netsim::disk::VirtualDisk`]: one sharded sparse data file
//!   per handle for its clean and dirty bytes, checksummed per block,
//!   and a write-ahead-logged index replayed on restart so clean blocks
//!   are served warm with ~0 WAN data RPCs.
//!
//! All methods operate on one file handle's extent map; semantics are
//! pinned by the differential proptest
//! (`crates/core/tests/proptest_blockstore.rs`), which drives both
//! implementations through random op sequences — including crash and
//! reopen — and requires identical reads and `missing_ranges` tilings.

pub mod mem;
pub mod persist;

use gvfs_nfs3::{Fh3, NfsTime3};
use std::time::Duration;

/// Counters every store maintains, surfaced via `ProxyClientStats`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes of file content currently cached.
    pub bytes: u64,
    /// Files whose clean content was evicted to stay within capacity.
    pub evictions: u64,
    /// Clean blocks served warm from the replayed index after the last
    /// crash/reopen. Always 0 for the in-memory store.
    pub restart_warm_blocks: u64,
    /// Checksum verifications that failed (a flipped bit, a torn write,
    /// an unreadable region). Always 0 for the in-memory store.
    pub integrity_failures: u64,
    /// Extents quarantined — dropped from the index instead of being
    /// served — after a failed verification.
    pub quarantined_blocks: u64,
    /// Interior WAL frames skipped (quarantined) during replay; later
    /// durable frames were still applied.
    pub wal_quarantined_frames: u64,
}

/// One quarantined extent, reported by [`BlockStore::take_integrity_events`].
///
/// Clean extents are re-fetchable: the quarantine turns them into cache
/// misses the normal origin/peer read path repairs. Dirty extents are
/// unrecoverable local writes — the client must surface them as explicit
/// data loss, never refetch over them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityEvent {
    /// The file the extent belonged to.
    pub fh: Fh3,
    /// Absolute offset of the quarantined extent.
    pub offset: u64,
    /// Length of the quarantined extent.
    pub len: u64,
    /// Whether the extent held dirty (locally written) bytes.
    pub dirty: bool,
    /// Whether the corrupt bytes were served anyway (only possible with
    /// [`persist::PersistConfig::verify`] off — the `--break-scrub`
    /// self-test fault).
    pub served: bool,
}

/// Extent storage for the disk cache; see the module docs.
///
/// Dirty data is sacred: no operation other than [`BlockStore::forget`],
/// [`BlockStore::clean_range`] and an unsynced crash may lose it —
/// eviction, revalidation and clean inserts must all preserve dirty
/// bytes exactly as [`crate::cache::FileCache`] does.
pub trait BlockStore: std::fmt::Debug + Send {
    /// The bytes in `[offset, offset+len)` if fully covered, touching
    /// the file in the LRU.
    fn read(&mut self, fh: Fh3, offset: u64, len: usize) -> Option<Vec<u8>>;

    /// The sub-ranges of `[offset, offset+len)` not covered by cached
    /// extents, in order; an unknown file is one whole gap. Dirty
    /// extents count as covered.
    fn missing_ranges(&self, fh: Fh3, offset: u64, len: usize) -> Vec<(u64, usize)>;

    /// Stores server-fetched bytes; cached dirty bytes beat the
    /// incoming clean data.
    fn insert_clean(&mut self, fh: Fh3, offset: u64, data: Vec<u8>);

    /// Records locally written bytes as dirty (write-back mode).
    fn write_dirty(&mut self, fh: Fh3, offset: u64, data: Vec<u8>);

    /// Marks every byte of `[offset, offset+len)` clean after a
    /// successful write-back, splitting extents at the boundaries.
    fn clean_range(&mut self, fh: Fh3, offset: u64, len: u64);

    /// Drops the file's clean extents, keeping dirty data.
    fn drop_clean(&mut self, fh: Fh3);

    /// Drops everything known about the file (it was removed),
    /// including its mtime tag.
    fn forget(&mut self, fh: Fh3);

    /// Offsets and lengths of the file's dirty extents, in order.
    fn dirty_ranges(&self, fh: Fh3) -> Vec<(u64, usize)>;

    /// Aligned offsets of every `block_size` block holding dirty bytes
    /// — the "list of blocks' offsets" a recalled write delegation
    /// reports (§4.3.2).
    fn dirty_blocks(&self, fh: Fh3, block_size: u64) -> Vec<u64> {
        blocks_touched(self.dirty_ranges(fh), block_size)
    }

    /// The dirty byte segments inside one aligned block, as
    /// `(absolute_offset, bytes)` pairs.
    fn dirty_in_block(&self, fh: Fh3, block_offset: u64, block_size: u64) -> Vec<(u64, Vec<u8>)>;

    /// Whether the file holds any dirty extent.
    fn has_dirty(&self, fh: Fh3) -> bool;

    /// All files holding dirty data, sorted.
    fn dirty_files(&self) -> Vec<Fh3>;

    /// Revalidates the file against a server mtime: if the recorded tag
    /// differs, clean content is dropped (the protocol invalidated it).
    /// Records `mtime` as the new tag either way.
    fn revalidate(&mut self, fh: Fh3, mtime: NfsTime3);

    /// Records `mtime` as the file's tag without dropping content (the
    /// mtime moved because of our own write).
    fn retag(&mut self, fh: Fh3, mtime: NfsTime3);

    /// Bytes of file content cached.
    fn used_bytes(&self) -> usize;

    /// Current counters.
    fn stats(&self) -> StoreStats;

    /// Durability barrier: everything stored so far survives a crash.
    /// No-op for the in-memory store.
    fn sync(&mut self);

    /// Simulates a machine crash followed by a reopen: volatile state is
    /// lost, the index is replayed from disk, and entries whose dirty
    /// WAL records are torn are discarded. The in-memory store simply
    /// loses everything.
    fn crash_reopen(&mut self);

    /// Drains accrued simulated I/O cost. The caller charges it to its
    /// actor clock while holding no locks.
    fn take_cost(&mut self) -> Duration {
        Duration::ZERO
    }

    /// Drains the extents quarantined since the last drain. The caller
    /// attributes them: the demand read path counts clean ones as
    /// refetch repairs, the scrub actor as scrub repairs, and dirty
    /// ones as explicit data loss. Stores without verification (the
    /// in-memory store) never report any.
    fn take_integrity_events(&mut self) -> Vec<IntegrityEvent> {
        Vec::new()
    }

    /// Verifies up to `max_bytes` of stored content ahead of demand,
    /// advancing a persistent sweep cursor; mismatches quarantine
    /// exactly as verify-on-read does. Returns the bytes verified (0
    /// when there is nothing to scrub). No-op for stores without
    /// checksums.
    fn scrub_step(&mut self, _max_bytes: usize) -> usize {
        0
    }
}

/// Writes 80 dirty bytes to each of two files of a store built by `open`
/// with room for 100 and checks that eviction gives up instead of
/// spinning: both files stay dirty and nothing is dropped. The writes run
/// on a thread behind a watchdog, so a spinning loop fails the caller
/// instead of hanging it.
#[cfg(test)]
fn assert_evict_stops_on_dirty_only<S: BlockStore + 'static>(open: fn(usize) -> S) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut s = open(100);
        s.write_dirty(Fh3::from_fileid(1), 0, vec![1; 80]);
        s.write_dirty(Fh3::from_fileid(2), 0, vec![2; 80]);
        let _ = tx.send((s.dirty_files(), s.used_bytes()));
    });
    let (dirty, used) =
        rx.recv_timeout(Duration::from_secs(10)).expect("evict spun on dirty-only data");
    assert_eq!(dirty, vec![Fh3::from_fileid(1), Fh3::from_fileid(2)]);
    assert_eq!(used, 160, "dirty data is never evicted");
}

/// The aligned offsets, sorted and distinct, of every `block_size`
/// block that one of the `(offset, len)` ranges touches.
pub(crate) fn blocks_touched(
    ranges: impl IntoIterator<Item = (u64, usize)>,
    block_size: u64,
) -> Vec<u64> {
    let step = usize::try_from(block_size).expect("block size fits usize");
    let mut blocks = std::collections::BTreeSet::new();
    for (offset, len) in ranges {
        blocks.extend((offset / block_size * block_size..offset + len as u64).step_by(step));
    }
    blocks.into_iter().collect()
}
