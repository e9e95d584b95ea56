//! The block store behind the proxy client's disk cache.
//!
//! The paper's proxy clients keep *disk* caches (§4.1) whose validity is
//! maintained by the consistency protocol alone. One store ships:
//! [`persist::PersistentStore`], byte extents per file handle, clean or
//! dirty, with LRU eviction of clean data and an mtime *tag* per file
//! used for revalidation-by-invalidation. It lays them out on a
//! [`gvfs_netsim::disk::VirtualDisk`]: one sharded sparse data file per
//! handle for its clean and dirty bytes, checksummed per block, and a
//! write-ahead-logged index replayed on restart so clean blocks are
//! served warm with ~0 WAN data RPCs. Every session caches into it; a
//! session without `persistent_store` runs it on a free disk.
//!
//! Its semantics are pinned by the differential proptest
//! (`crates/core/tests/proptest_blockstore.rs`), which drives it and a
//! volatile in-memory reference store through random op sequences —
//! including crash and reopen — and requires identical reads and
//! `missing_ranges` tilings. The reference store is that test's oracle
//! and lives on the test side (`crates/core/tests/support/mem.rs`).

pub mod persist;

use gvfs_nfs3::Fh3;

/// The store's counters, surfaced via `ProxyClientStats`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes of file content currently cached.
    pub bytes: u64,
    /// Files whose clean content was evicted to stay within capacity.
    pub evictions: u64,
    /// Clean blocks served warm from the replayed index after the last
    /// crash/reopen.
    pub restart_warm_blocks: u64,
    /// Checksum verifications that failed (a flipped bit, a torn write,
    /// an unreadable region).
    pub integrity_failures: u64,
    /// Extents quarantined — dropped from the index instead of being
    /// served — after a failed verification.
    pub quarantined_blocks: u64,
    /// Interior WAL frames skipped (quarantined) during replay; later
    /// durable frames were still applied.
    pub wal_quarantined_frames: u64,
}

/// One quarantined extent, reported by
/// [`persist::PersistentStore::take_integrity_events`].
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

/// The aligned offsets, ascending and distinct, of every `block_size`
/// block that one of the `(offset, len)` ranges touches. The ranges
/// ascend without overlapping, as an extent map's do, so the blocks
/// they touch never descend and a repeat can only be of the last one.
pub(crate) fn blocks_touched(
    ranges: impl IntoIterator<Item = (u64, usize)>,
    block_size: u64,
) -> impl Iterator<Item = u64> {
    let step = usize::try_from(block_size).expect("block size fits usize");
    let (mut prev_end, mut last) = (0, None);
    ranges
        .into_iter()
        .flat_map(move |(offset, len)| {
            debug_assert!(offset >= prev_end, "ranges ascend without overlapping");
            prev_end = offset + len as u64;
            (offset / block_size * block_size..prev_end).step_by(step)
        })
        .filter(move |&b| last.replace(b) != Some(b))
}
