//! The volatile reference store, shared by the store property tests.
//!
//! [`mem::MemStore`] keeps each file's content as a
//! [`file_cache::FileCache`] extent map in memory. It is the oracle the
//! lockstep proptest compares [`PersistentStore`] against; no session
//! runs it. Each test crate uses only part of this module.
#![allow(dead_code)]

pub mod file_cache;
pub mod mem;

use gvfs_core::store::persist::PersistentStore;
use gvfs_nfs3::{Fh3, NfsTime3};

/// What the lockstep harness drives both stores through. Dirty data is
/// sacred: no operation other than `forget`, `clean_range` and an
/// unsynced crash may lose it.
pub trait BlockStore {
    /// The bytes in `[offset, offset+len)` if fully covered.
    fn read(&mut self, fh: Fh3, offset: u64, len: usize) -> Option<Vec<u8>>;
    /// The uncovered sub-ranges of `[offset, offset+len)`, in order.
    fn missing_ranges(&self, fh: Fh3, offset: u64, len: usize) -> Vec<(u64, usize)>;
    /// Stores fetched bytes; cached dirty bytes win.
    fn insert_clean(&mut self, fh: Fh3, offset: u64, data: Vec<u8>);
    /// Records locally written bytes as dirty.
    fn write_dirty(&mut self, fh: Fh3, offset: u64, data: Vec<u8>);
    /// Marks `[offset, offset+len)` clean.
    fn clean_range(&mut self, fh: Fh3, offset: u64, len: u64);
    /// Drops the file's clean extents.
    fn drop_clean(&mut self, fh: Fh3);
    /// Drops everything known about the file.
    fn forget(&mut self, fh: Fh3);
    /// The file's dirty extents, in order.
    fn dirty_ranges(&self, fh: Fh3) -> Vec<(u64, usize)>;
    /// Aligned offsets of every `block_size` block holding dirty bytes.
    fn dirty_blocks(&self, fh: Fh3, block_size: u64) -> Vec<u64>;
    /// Whether the file holds any dirty extent.
    fn has_dirty(&self, fh: Fh3) -> bool;
    /// All files holding dirty data, sorted.
    fn dirty_files(&self) -> Vec<Fh3>;
    /// Drops clean content if the tag moved; records `mtime` either way.
    fn revalidate(&mut self, fh: Fh3, mtime: NfsTime3);
    /// Records `mtime` without dropping content.
    fn retag(&mut self, fh: Fh3, mtime: NfsTime3);
    /// Bytes of file content cached.
    fn used_bytes(&self) -> usize;
}

impl BlockStore for PersistentStore {
    fn read(&mut self, fh: Fh3, offset: u64, len: usize) -> Option<Vec<u8>> {
        PersistentStore::read(self, fh, offset, len)
    }
    fn missing_ranges(&self, fh: Fh3, offset: u64, len: usize) -> Vec<(u64, usize)> {
        PersistentStore::missing_ranges(self, fh, offset, len)
    }
    fn insert_clean(&mut self, fh: Fh3, offset: u64, data: Vec<u8>) {
        PersistentStore::insert_clean(self, fh, offset, data);
    }
    fn write_dirty(&mut self, fh: Fh3, offset: u64, data: Vec<u8>) {
        PersistentStore::write_dirty(self, fh, offset, data);
    }
    fn clean_range(&mut self, fh: Fh3, offset: u64, len: u64) {
        PersistentStore::clean_range(self, fh, offset, len);
    }
    fn drop_clean(&mut self, fh: Fh3) {
        PersistentStore::drop_clean(self, fh);
    }
    fn forget(&mut self, fh: Fh3) {
        PersistentStore::forget(self, fh);
    }
    fn dirty_ranges(&self, fh: Fh3) -> Vec<(u64, usize)> {
        PersistentStore::dirty_ranges(self, fh)
    }
    fn dirty_blocks(&self, fh: Fh3, block_size: u64) -> Vec<u64> {
        PersistentStore::dirty_blocks(self, fh, block_size)
    }
    fn has_dirty(&self, fh: Fh3) -> bool {
        PersistentStore::has_dirty(self, fh)
    }
    fn dirty_files(&self) -> Vec<Fh3> {
        PersistentStore::dirty_files(self)
    }
    fn revalidate(&mut self, fh: Fh3, mtime: NfsTime3) {
        PersistentStore::revalidate(self, fh, mtime);
    }
    fn retag(&mut self, fh: Fh3, mtime: NfsTime3) {
        PersistentStore::retag(self, fh, mtime);
    }
    fn used_bytes(&self) -> usize {
        PersistentStore::used_bytes(self)
    }
}
