//! The original in-memory block store: per-file extent maps with LRU
//! eviction, extracted verbatim from the pre-refactor `DiskCache`.

use super::{BlockStore, StoreStats};
use crate::cache::FileCache;
use gvfs_nfs3::{Fh3, NfsTime3};
use std::collections::{BTreeMap, HashMap};

/// Volatile extent storage; the default store.
#[derive(Debug, Clone)]
pub struct MemStore {
    files: HashMap<Fh3, FileCache>,
    tags: HashMap<Fh3, NfsTime3>,
    lru: BTreeMap<u64, Fh3>,
    lru_seq: HashMap<Fh3, u64>,
    next_seq: u64,
    capacity: usize,
    used: usize,
    evictions: u64,
}

impl MemStore {
    /// Creates a store bounded to `capacity` bytes of file content.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        MemStore {
            files: HashMap::new(),
            tags: HashMap::new(),
            lru: BTreeMap::new(),
            lru_seq: HashMap::new(),
            next_seq: 0,
            capacity,
            used: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self, fh: Fh3) {
        if let Some(old) = self.lru_seq.remove(&fh) {
            self.lru.remove(&old);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.lru.insert(seq, fh);
        self.lru_seq.insert(fh, seq);
    }

    /// Evicts clean content of least-recently-used files until within
    /// capacity. Dirty data is never evicted, so the loop also stops
    /// once a full LRU pass has dropped nothing.
    fn evict(&mut self) {
        // Consecutive dirty-only files re-touched without dropping a byte.
        let mut idle = 0;
        while self.used > self.capacity {
            let Some((&seq, &fh)) = self.lru.iter().next() else { break };
            self.lru.remove(&seq);
            self.lru_seq.remove(&fh);
            let Some(fc) = self.files.get_mut(&fh) else { continue };
            let before = fc.bytes();
            fc.drop_clean();
            let dropped = before - fc.bytes();
            self.used -= dropped;
            if dropped > 0 {
                self.evictions += 1;
            }
            if fc.bytes() == 0 {
                self.files.remove(&fh);
            } else {
                // Still holds dirty data: keep it hot so the loop makes
                // progress on other files.
                self.touch(fh);
                idle = if dropped > 0 { 0 } else { idle + 1 };
                if self.lru.len() <= 1 || idle >= self.lru.len() {
                    break; // only dirty files remain
                }
            }
        }
    }
}

impl BlockStore for MemStore {
    fn read(&mut self, fh: Fh3, offset: u64, len: usize) -> Option<Vec<u8>> {
        let result = self.files.get(&fh)?.read(offset, len);
        if result.is_some() {
            self.touch(fh);
        }
        result
    }

    fn missing_ranges(&self, fh: Fh3, offset: u64, len: usize) -> Vec<(u64, usize)> {
        match self.files.get(&fh) {
            Some(fc) => fc.missing_ranges(offset, len),
            None if len == 0 => Vec::new(),
            None => vec![(offset, len)],
        }
    }

    fn insert_clean(&mut self, fh: Fh3, offset: u64, data: Vec<u8>) {
        let fc = self.files.entry(fh).or_default();
        let before = fc.bytes();
        fc.insert_clean(offset, data);
        self.used += fc.bytes() - before;
        self.touch(fh);
        self.evict();
    }

    fn write_dirty(&mut self, fh: Fh3, offset: u64, data: Vec<u8>) {
        let fc = self.files.entry(fh).or_default();
        let before = fc.bytes();
        fc.write_dirty(offset, data);
        self.used += fc.bytes() - before;
        self.touch(fh);
        self.evict();
    }

    fn clean_range(&mut self, fh: Fh3, offset: u64, len: u64) {
        if let Some(fc) = self.files.get_mut(&fh) {
            fc.clean_range(offset, len);
        }
    }

    fn drop_clean(&mut self, fh: Fh3) {
        if let Some(fc) = self.files.get_mut(&fh) {
            let before = fc.bytes();
            fc.drop_clean();
            self.used -= before - fc.bytes();
            if fc.bytes() == 0 {
                self.files.remove(&fh);
            }
        }
    }

    fn forget(&mut self, fh: Fh3) {
        if let Some(fc) = self.files.remove(&fh) {
            self.used -= fc.bytes();
        }
        if let Some(seq) = self.lru_seq.remove(&fh) {
            self.lru.remove(&seq);
        }
        self.tags.remove(&fh);
    }

    fn dirty_ranges(&self, fh: Fh3) -> Vec<(u64, usize)> {
        self.files.get(&fh).map(FileCache::dirty_ranges).unwrap_or_default()
    }

    fn dirty_blocks(&self, fh: Fh3, block_size: u64) -> Vec<u64> {
        self.files.get(&fh).map(|fc| fc.dirty_blocks(block_size)).unwrap_or_default()
    }

    fn dirty_in_block(&self, fh: Fh3, block_offset: u64, block_size: u64) -> Vec<(u64, Vec<u8>)> {
        self.files
            .get(&fh)
            .map(|fc| fc.dirty_in_block(block_offset, block_size))
            .unwrap_or_default()
    }

    fn has_dirty(&self, fh: Fh3) -> bool {
        self.files.get(&fh).is_some_and(FileCache::has_dirty)
    }

    fn dirty_files(&self) -> Vec<Fh3> {
        let mut v: Vec<Fh3> =
            self.files.iter().filter(|(_, fc)| fc.has_dirty()).map(|(fh, _)| *fh).collect();
        v.sort_unstable();
        v
    }

    fn revalidate(&mut self, fh: Fh3, mtime: NfsTime3) {
        if self.tags.get(&fh).is_some_and(|tag| *tag != mtime) {
            self.drop_clean(fh);
        }
        self.tags.insert(fh, mtime);
    }

    fn retag(&mut self, fh: Fh3, mtime: NfsTime3) {
        self.tags.insert(fh, mtime);
    }

    fn note_size(&mut self, _fh: Fh3, _size: u64) {}

    fn used_bytes(&self) -> usize {
        self.used
    }

    fn stats(&self) -> StoreStats {
        StoreStats { bytes: self.used as u64, evictions: self.evictions, ..StoreStats::default() }
    }

    fn sync(&mut self) {}

    fn crash_reopen(&mut self) {
        let capacity = self.capacity;
        let evictions = self.evictions;
        *self = MemStore::new(capacity);
        self.evictions = evictions;
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn eviction_stops_when_dirty_data_alone_exceeds_capacity() {
        crate::store::assert_evict_stops_on_dirty_only(super::MemStore::new);
    }
}
