//! The proxy client's disk cache.
//!
//! GVFS proxy clients keep client-side *disk* caches for file attributes
//! and data blocks — much larger than the kernel's memory caches, which
//! is what lets a session absorb the kernel client's consistency checks
//! and (in write-back mode) its writes. Unlike the kernel caches, these
//! entries carry no timeout: their validity is maintained by the
//! session's consistency protocol (invalidation polling or delegations),
//! so a cached entry is served until the protocol invalidates it.
//!
//! Data is stored as byte extents (clean or dirty), which supports the
//! partial write-back protocol: dirty extents are exactly the "list of
//! blocks' offsets" a recalled write delegation reports (§4.3.2).

use crate::store::BlockStore;
use gvfs_nfs3::{EntryPlus3, Fattr3, Fh3};
use std::collections::{BTreeMap, HashMap};

/// One cached byte range of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extent {
    /// The bytes.
    pub data: Vec<u8>,
    /// Whether this range holds locally modified data not yet written
    /// back to the server.
    pub dirty: bool,
}

/// Per-file cached content: non-overlapping extents keyed by offset.
#[derive(Debug, Default, Clone)]
pub struct FileCache {
    extents: BTreeMap<u64, Extent>,
}

impl FileCache {
    /// Returns the bytes in `[offset, offset+len)` if fully covered by
    /// cached extents.
    pub fn read(&self, offset: u64, len: usize) -> Option<Vec<u8>> {
        if len == 0 {
            return Some(Vec::new());
        }
        let end = offset + len as u64;
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        while pos < end {
            let (start, ext) = self.extents.range(..=pos).next_back()?;
            let ext_end = start + ext.data.len() as u64;
            if pos >= ext_end {
                return None; // gap
            }
            let from = (pos - start) as usize;
            let to = ((end.min(ext_end)) - start) as usize;
            out.extend_from_slice(&ext.data[from..to]);
            pos = start + to as u64;
        }
        Some(out)
    }

    /// The sub-ranges of `[offset, offset+len)` *not* covered by any
    /// cached extent, in order. Empty when the range is fully cached.
    /// Dirty extents count as covered: locally written bytes are never
    /// refetched.
    pub fn missing_ranges(&self, offset: u64, len: usize) -> Vec<(u64, usize)> {
        let mut gaps = Vec::new();
        if len == 0 {
            return gaps;
        }
        let end = offset + len as u64;
        let mut pos = offset;
        // The extent containing `pos` (if any), then everything after.
        let head = self.extents.range(..=pos).next_back();
        let tail = self.extents.range(pos + 1..end);
        for (start, ext) in head.into_iter().chain(tail) {
            let ext_end = start + ext.data.len() as u64;
            if ext_end <= pos {
                continue; // ends before the cursor
            }
            if *start > pos {
                gaps.push((pos, (*start - pos) as usize));
            }
            pos = ext_end;
            if pos >= end {
                return gaps;
            }
        }
        gaps.push((pos, (end - pos) as usize));
        gaps
    }

    /// Inserts bytes fetched from the server (clean). Overlapping cached
    /// ranges are replaced, except dirty bytes, which always win over
    /// incoming clean data.
    pub fn insert_clean(&mut self, offset: u64, data: Vec<u8>) {
        self.insert(offset, data, false);
    }

    /// Records locally written bytes (dirty).
    pub fn write_dirty(&mut self, offset: u64, data: Vec<u8>) {
        self.insert(offset, data, true);
    }

    fn insert(&mut self, offset: u64, data: Vec<u8>, dirty: bool) {
        if data.is_empty() {
            return;
        }
        let end = offset + data.len() as u64;
        // Collect overlapping extents.
        let overlapping: Vec<u64> = {
            let mut keys: Vec<u64> = self
                .extents
                .range(..end)
                .filter(|(start, ext)| *start + ext.data.len() as u64 > offset)
                .map(|(k, _)| *k)
                .collect();
            keys.sort_unstable();
            keys
        };
        let mut incoming: BTreeMap<u64, Extent> = BTreeMap::new();
        incoming.insert(offset, Extent { data, dirty });
        for key in overlapping {
            let existing = self.extents.remove(&key).expect("listed key");
            let existing_end = key + existing.data.len() as u64;
            // Head segment before the new range.
            if key < offset {
                let head_len = (offset - key) as usize;
                self.extents.insert(
                    key,
                    Extent { data: existing.data[..head_len].to_vec(), dirty: existing.dirty },
                );
            }
            // Tail segment after the new range.
            if existing_end > end {
                let tail_from = (end - key) as usize;
                self.extents.insert(
                    end,
                    Extent { data: existing.data[tail_from..].to_vec(), dirty: existing.dirty },
                );
            }
            // Overlapped middle: dirty existing bytes beat clean incoming.
            if existing.dirty && !dirty {
                let seg_start = key.max(offset);
                let seg_end = existing_end.min(end);
                let seg =
                    existing.data[(seg_start - key) as usize..(seg_end - key) as usize].to_vec();
                overlay(&mut incoming, seg_start, seg, true);
            }
        }
        for (k, v) in incoming {
            self.extents.insert(k, v);
        }
        self.coalesce();
    }

    fn coalesce(&mut self) {
        let keys: Vec<u64> = self.extents.keys().copied().collect();
        let mut prev: Option<u64> = None;
        for key in keys {
            if let Some(p) = prev {
                let merge = {
                    let prev_ext = &self.extents[&p];
                    let prev_end = p + prev_ext.data.len() as u64;
                    prev_end == key && prev_ext.dirty == self.extents[&key].dirty
                };
                if merge {
                    let ext = self.extents.remove(&key).expect("key");
                    self.extents.get_mut(&p).expect("prev").data.extend(ext.data);
                    continue;
                }
            }
            prev = Some(key);
        }
    }

    /// Offsets and lengths of all dirty extents, in order.
    pub fn dirty_ranges(&self) -> Vec<(u64, usize)> {
        self.extents.iter().filter(|(_, e)| e.dirty).map(|(o, e)| (*o, e.data.len())).collect()
    }

    /// Drops clean extents, keeping dirty data (attribute invalidation
    /// must never lose delayed writes).
    pub fn drop_clean(&mut self) {
        self.extents.retain(|_, e| e.dirty);
    }

    /// The aligned offsets of every `block_size` block containing dirty
    /// bytes — the "list of blocks' offsets" a recalled write delegation
    /// reports (§4.3.2).
    pub fn dirty_blocks(&self, block_size: u64) -> Vec<u64> {
        crate::store::blocks_touched(self.dirty_ranges(), block_size)
    }

    /// The dirty byte segments inside one aligned block, as
    /// `(absolute_offset, bytes)` pairs.
    pub fn dirty_in_block(&self, block_offset: u64, block_size: u64) -> Vec<(u64, Vec<u8>)> {
        let block_end = block_offset + block_size;
        let mut out = Vec::new();
        for (start, ext) in &self.extents {
            if !ext.dirty {
                continue;
            }
            let ext_end = start + ext.data.len() as u64;
            if ext_end <= block_offset || *start >= block_end {
                continue;
            }
            let from = block_offset.max(*start);
            let to = block_end.min(ext_end);
            out.push((from, ext.data[(from - start) as usize..(to - start) as usize].to_vec()));
        }
        out
    }

    /// Marks every byte in `[offset, offset+len)` clean, splitting
    /// extents at the boundaries.
    pub fn clean_range(&mut self, offset: u64, len: u64) {
        let end = offset + len;
        let overlapping: Vec<u64> = self
            .extents
            .range(..end)
            .filter(|(start, ext)| ext.dirty && *start + ext.data.len() as u64 > offset)
            .map(|(k, _)| *k)
            .collect();
        for key in overlapping {
            let ext = self.extents.remove(&key).expect("listed key");
            let ext_end = key + ext.data.len() as u64;
            if key < offset {
                self.extents.insert(
                    key,
                    Extent { data: ext.data[..(offset - key) as usize].to_vec(), dirty: true },
                );
            }
            if ext_end > end {
                self.extents.insert(
                    end,
                    Extent { data: ext.data[(end - key) as usize..].to_vec(), dirty: true },
                );
            }
            let seg_start = key.max(offset);
            let seg_end = ext_end.min(end);
            self.extents.insert(
                seg_start,
                Extent {
                    data: ext.data[(seg_start - key) as usize..(seg_end - key) as usize].to_vec(),
                    dirty: false,
                },
            );
        }
        self.coalesce();
    }

    /// Whether any dirty extent exists.
    pub fn has_dirty(&self) -> bool {
        self.extents.values().any(|e| e.dirty)
    }

    /// Total cached bytes.
    pub fn bytes(&self) -> usize {
        self.extents.values().map(|e| e.data.len()).sum()
    }

    #[cfg(test)]
    fn extent_count(&self) -> usize {
        self.extents.len()
    }
}

fn overlay(map: &mut BTreeMap<u64, Extent>, offset: u64, data: Vec<u8>, dirty: bool) {
    // Helper used only while building the incoming set: the incoming map
    // holds exactly one base extent, and dirty segments are laid on top.
    let keys: Vec<u64> = map.keys().copied().collect();
    for key in keys {
        let ext = map.remove(&key).expect("key");
        let ext_end = key + ext.data.len() as u64;
        let end = offset + data.len() as u64;
        if key < offset {
            let head = (offset.min(ext_end) - key) as usize;
            map.insert(key, Extent { data: ext.data[..head].to_vec(), dirty: ext.dirty });
        }
        if ext_end > end {
            let from = (end.max(key) - key) as usize;
            map.insert(
                ext_end - (ext.data.len() - from) as u64,
                Extent { data: ext.data[from..].to_vec(), dirty: ext.dirty },
            );
        }
    }
    map.insert(offset, Extent { data, dirty });
}

/// The proxy client's disk cache: attributes, name lookups and file
/// content. Content lives in a pluggable [`BlockStore`] — the in-memory
/// [`MemStore`](crate::store::mem::MemStore) by default, or the
/// persistent [`PersistentStore`](crate::store::persist::PersistentStore)
/// that survives proxy restarts.
#[derive(Debug)]
pub struct DiskCache {
    attrs: HashMap<Fh3, Fattr3>,
    lookups: HashMap<(Fh3, String), Option<Fh3>>,
    /// Directories whose name bindings need a bulk refresh because the
    /// directory was invalidated by the consistency protocol. Serving a
    /// stale binding is unsafe even with STALE-detection: a removed name
    /// whose inode survives through another hard link (the lock-file
    /// pattern) would keep resolving.
    stale_dirs: std::collections::HashSet<Fh3>,
    /// The file content. Callers read and write it directly; the cache
    /// itself only retags it when attributes arrive and forgets a
    /// removed file's content together with its attributes.
    pub store: Box<dyn BlockStore>,
}

impl DiskCache {
    /// Creates a cache bounded to `capacity` bytes of file content,
    /// backed by the in-memory store.
    pub fn new(capacity: usize) -> Self {
        DiskCache::with_store(Box::new(crate::store::mem::MemStore::new(capacity)))
    }

    /// Creates a cache over an explicit block store.
    pub fn with_store(store: Box<dyn BlockStore>) -> Self {
        DiskCache {
            attrs: HashMap::new(),
            lookups: HashMap::new(),
            stale_dirs: std::collections::HashSet::new(),
            store,
        }
    }

    // --- attributes ---

    /// Cached attributes of `fh`, if valid.
    pub fn attr(&self, fh: Fh3) -> Option<Fattr3> {
        self.attrs.get(&fh).copied()
    }

    /// Caches attributes; if the mtime moved against cached data, the
    /// file's clean content is dropped.
    pub fn put_attr(&mut self, fh: Fh3, attr: Fattr3) {
        self.store.revalidate(fh, attr.mtime);
        self.store.note_size(fh, attr.size);
        self.attrs.insert(fh, attr);
    }

    /// Caches attributes for data we wrote ourselves: retags without
    /// dropping content.
    pub fn put_attr_own_write(&mut self, fh: Fh3, attr: Fattr3) {
        self.store.retag(fh, attr.mtime);
        self.store.note_size(fh, attr.size);
        self.attrs.insert(fh, attr);
    }

    /// Caches attributes piggybacked on an asynchronous READ reply
    /// (prefetch or pipelined gap fetch). Unlike [`DiskCache::put_attr`],
    /// the incoming attributes are applied only if they are not *older*
    /// than what we already hold: a delayed write advances the cached
    /// mtime/ctime locally (`put_attr_own_write`), and a prefetch reply
    /// that was in flight before that write must not clobber it — doing
    /// so would retag the file to the pre-write mtime and make the next
    /// server attribute fetch discard our freshly written-back data.
    /// Returns whether the attributes were applied.
    pub fn put_attr_prefetch(&mut self, fh: Fh3, attr: Fattr3) -> bool {
        if let Some(cached) = self.attrs.get(&fh) {
            if (attr.mtime, attr.ctime) < (cached.mtime, cached.ctime) {
                return false;
            }
        }
        self.put_attr(fh, attr);
        true
    }

    /// Invalidates one file's cached attributes (the consistency
    /// protocols' unit of invalidation). Data stays; it will be
    /// revalidated through the mtime tag on the next attribute fetch.
    ///
    /// If the invalidated handle has name bindings cached under it (it
    /// is a directory the proxy has resolved names in), the directory is
    /// marked *stale*: the proxy bulk-refreshes its bindings with a
    /// `READDIR` sweep on the next lookup (see
    /// [`DiskCache::take_stale_dir`]) instead of forwarding every name
    /// individually — a few RPCs instead of one per entry, which is what
    /// keeps the CH1D per-run cost flat.
    pub fn invalidate_attr(&mut self, fh: Fh3) {
        self.attrs.remove(&fh);
        if self.lookups.keys().any(|(dir, _)| *dir == fh) {
            self.stale_dirs.insert(fh);
        }
    }

    /// If `dir` was marked stale, purges its bindings and clears the
    /// mark, returning `true` (the caller should bulk-refresh).
    pub fn take_stale_dir(&mut self, dir: Fh3) -> bool {
        if self.stale_dirs.remove(&dir) {
            self.lookups.retain(|(d, _), _| *d != dir);
            true
        } else {
            false
        }
    }

    /// Drops every name binding resolving to `fh` (called when the
    /// server reports the handle stale).
    pub fn purge_bindings_to(&mut self, fh: Fh3) {
        self.lookups.retain(|_, v| *v != Some(fh));
    }

    /// Invalidates the entire attribute cache (force-invalidation).
    pub fn invalidate_all_attrs(&mut self) {
        self.attrs.clear();
        self.lookups.clear();
        self.stale_dirs.clear();
    }

    #[cfg(test)]
    fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    // --- lookups ---

    /// Cached lookup of `name` in `dir`: `Some(Some(fh))` positive,
    /// `Some(None)` negative (known absent), `None` unknown.
    pub fn lookup(&self, dir: Fh3, name: &str) -> Option<Option<Fh3>> {
        self.lookups.get(&(dir, name.to_string())).copied()
    }

    /// Caches a positive name binding.
    pub fn put_lookup(&mut self, dir: Fh3, name: &str, child: Fh3) {
        self.lookups.insert((dir, name.to_string()), Some(child));
    }

    /// Caches a negative name binding (known absent).
    pub fn put_negative_lookup(&mut self, dir: Fh3, name: &str) {
        self.lookups.insert((dir, name.to_string()), None);
    }

    /// Installs one `READDIRPLUS` reply: the directory's attributes and,
    /// for each entry, its name binding plus the attributes it carried.
    pub fn put_readdirplus(&mut self, dir: Fh3, dir_attr: Option<Fattr3>, entries: &[EntryPlus3]) {
        if let Some(attr) = dir_attr {
            self.put_attr(dir, attr);
        }
        for e in entries {
            let fh = e.name_handle.unwrap_or(Fh3::from_fileid(e.fileid));
            self.put_lookup(dir, &e.name, fh);
            if let Some(attr) = e.name_attributes {
                self.put_attr(fh, attr);
            }
        }
    }

    // --- data ---

    /// Drops everything known about a file (it was removed).
    pub fn forget_file(&mut self, fh: Fh3) {
        self.store.forget(fh);
        self.attrs.remove(&fh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvfs_nfs3::{Ftype3, NfsTime3};

    fn attr(fileid: u64, mtime_s: u32) -> Fattr3 {
        Fattr3 {
            ftype: Ftype3::Reg,
            mode: 0o644,
            nlink: 1,
            uid: 0,
            gid: 0,
            size: 0,
            used: 0,
            rdev: (0, 0),
            fsid: 1,
            fileid,
            atime: NfsTime3::default(),
            mtime: NfsTime3 { seconds: mtime_s, nseconds: 0 },
            ctime: NfsTime3 { seconds: mtime_s, nseconds: 0 },
        }
    }

    #[test]
    fn file_cache_read_exact_and_partial() {
        let mut fc = FileCache::default();
        fc.insert_clean(0, vec![1, 2, 3, 4]);
        assert_eq!(fc.read(0, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(fc.read(1, 2).unwrap(), vec![2, 3]);
        assert!(fc.read(0, 5).is_none(), "uncovered tail");
        assert!(fc.read(4, 1).is_none());
        assert_eq!(fc.read(0, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn file_cache_detects_gaps() {
        let mut fc = FileCache::default();
        fc.insert_clean(0, vec![1; 4]);
        fc.insert_clean(8, vec![2; 4]);
        assert!(fc.read(0, 12).is_none());
        assert_eq!(fc.read(8, 4).unwrap(), vec![2; 4]);
    }

    #[test]
    fn file_cache_coalesces_adjacent() {
        let mut fc = FileCache::default();
        fc.insert_clean(0, vec![1; 4]);
        fc.insert_clean(4, vec![2; 4]);
        assert_eq!(fc.extent_count(), 1);
        assert_eq!(fc.read(0, 8).unwrap(), [[1u8; 4], [2u8; 4]].concat());
    }

    #[test]
    fn overwrite_replaces_clean_data() {
        let mut fc = FileCache::default();
        fc.insert_clean(0, vec![1; 8]);
        fc.insert_clean(2, vec![9; 4]);
        assert_eq!(fc.read(0, 8).unwrap(), vec![1, 1, 9, 9, 9, 9, 1, 1]);
    }

    #[test]
    fn dirty_beats_incoming_clean() {
        let mut fc = FileCache::default();
        fc.write_dirty(2, vec![7; 4]);
        fc.insert_clean(0, vec![0; 8]); // stale server data arrives
        assert_eq!(fc.read(0, 8).unwrap(), vec![0, 0, 7, 7, 7, 7, 0, 0]);
        assert_eq!(fc.dirty_ranges(), vec![(2, 4)]);
    }

    #[test]
    fn dirty_overwrites_clean_and_tracks_ranges() {
        let mut fc = FileCache::default();
        fc.insert_clean(0, vec![1; 10]);
        fc.write_dirty(4, vec![9; 2]);
        assert_eq!(fc.read(0, 10).unwrap(), vec![1, 1, 1, 1, 9, 9, 1, 1, 1, 1]);
        assert_eq!(fc.dirty_ranges(), vec![(4, 2)]);
        assert!(fc.has_dirty());
    }

    #[test]
    fn drop_clean_preserves_dirty() {
        let mut fc = FileCache::default();
        fc.insert_clean(0, vec![1; 4]);
        fc.write_dirty(8, vec![2; 4]);
        fc.drop_clean();
        assert!(fc.read(0, 4).is_none());
        assert_eq!(fc.read(8, 4).unwrap(), vec![2; 4]);
    }

    #[test]
    fn dirty_blocks_enumerates_aligned_blocks() {
        let mut fc = FileCache::default();
        fc.write_dirty(100, vec![1; 50]); // block 0
        fc.write_dirty(32768 + 10, vec![2; 32768]); // blocks 1 and 2
        assert_eq!(fc.dirty_blocks(32768), vec![0, 32768, 65536]);
    }

    #[test]
    fn dirty_in_block_returns_segments() {
        let mut fc = FileCache::default();
        fc.write_dirty(100, vec![1; 50]);
        fc.write_dirty(200, vec![2; 10]);
        fc.write_dirty(40000, vec![3; 10]); // next block
        let segs = fc.dirty_in_block(0, 32768);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0], (100, vec![1; 50]));
        assert_eq!(segs[1], (200, vec![2; 10]));
        assert_eq!(fc.dirty_in_block(32768, 32768), vec![(40000, vec![3; 10])]);
    }

    #[test]
    fn clean_range_splits_extents() {
        let mut fc = FileCache::default();
        fc.write_dirty(0, vec![1; 100]);
        fc.clean_range(20, 30);
        let ranges = fc.dirty_ranges();
        assert_eq!(ranges, vec![(0, 20), (50, 50)]);
        // Data is unchanged.
        assert_eq!(fc.read(0, 100).unwrap(), vec![1; 100]);
        fc.clean_range(0, 100);
        assert!(!fc.has_dirty());
    }

    #[test]
    fn missing_ranges_reports_gaps_in_order() {
        let mut fc = FileCache::default();
        assert_eq!(fc.missing_ranges(0, 10), vec![(0, 10)], "empty cache is one gap");
        assert_eq!(fc.missing_ranges(5, 0), Vec::<(u64, usize)>::new());
        fc.insert_clean(4, vec![1; 4]); // [4, 8)
        assert_eq!(fc.missing_ranges(0, 12), vec![(0, 4), (8, 4)]);
        assert_eq!(fc.missing_ranges(4, 4), Vec::<(u64, usize)>::new());
        assert_eq!(fc.missing_ranges(5, 2), Vec::<(u64, usize)>::new(), "inside one extent");
        assert_eq!(fc.missing_ranges(6, 4), vec![(8, 2)], "tail gap only");
        assert_eq!(fc.missing_ranges(0, 5), vec![(0, 4)], "head gap only");
        fc.insert_clean(10, vec![2; 2]); // [10, 12)
        assert_eq!(fc.missing_ranges(0, 14), vec![(0, 4), (8, 2), (12, 2)]);
        assert_eq!(fc.missing_ranges(20, 3), vec![(20, 3)], "fully past cached data");
    }

    #[test]
    fn missing_ranges_counts_dirty_as_covered() {
        let mut fc = FileCache::default();
        fc.write_dirty(4, vec![9; 4]);
        assert_eq!(fc.missing_ranges(0, 12), vec![(0, 4), (8, 4)]);
        assert_eq!(fc.missing_ranges(4, 4), Vec::<(u64, usize)>::new());
    }

    #[test]
    fn disk_cache_missing_ranges_unknown_file_is_one_gap() {
        let mut c = DiskCache::new(1 << 20);
        let fh = Fh3::from_fileid(1);
        assert_eq!(c.store.missing_ranges(fh, 3, 7), vec![(3, 7)]);
        assert_eq!(c.store.missing_ranges(fh, 3, 0), Vec::<(u64, usize)>::new());
        c.store.insert_clean(fh, 0, vec![1; 5]);
        assert_eq!(c.store.missing_ranges(fh, 3, 7), vec![(5, 5)]);
    }

    #[test]
    fn put_attr_prefetch_rejects_older_attr() {
        let mut c = DiskCache::new(1 << 20);
        let fh = Fh3::from_fileid(1);
        // A delayed write advanced the cached attributes locally.
        c.put_attr_own_write(fh, attr(1, 5));
        c.store.write_dirty(fh, 0, vec![7; 4]);
        // A prefetch reply from before the write carries the old mtime.
        assert!(!c.put_attr_prefetch(fh, attr(1, 3)), "stale attr must be rejected");
        assert_eq!(c.attr(fh).unwrap().mtime.seconds, 5, "own-write attr preserved");
        assert!(c.store.read(fh, 0, 4).is_some(), "dirty data untouched");
        // The next real server attr (same mtime tag as ours) must not
        // drop the data either — the tag was never regressed.
        c.put_attr(fh, attr(1, 5));
        assert!(c.store.read(fh, 0, 4).is_some());
    }

    #[test]
    fn put_attr_prefetch_applies_fresh_attr() {
        let mut c = DiskCache::new(1 << 20);
        let fh = Fh3::from_fileid(1);
        assert!(c.put_attr_prefetch(fh, attr(1, 2)), "no cached attr: applies");
        assert_eq!(c.attr(fh).unwrap().mtime.seconds, 2);
        c.store.insert_clean(fh, 0, vec![1; 4]);
        // Equal attrs re-apply harmlessly.
        assert!(c.put_attr_prefetch(fh, attr(1, 2)));
        assert!(c.store.read(fh, 0, 4).is_some());
        // Newer attrs apply with full put_attr semantics: clean drop.
        assert!(c.put_attr_prefetch(fh, attr(1, 9)));
        assert!(c.store.read(fh, 0, 4).is_none(), "mtime moved: clean data dropped");
    }

    #[test]
    fn disk_cache_attr_mtime_change_drops_clean_data() {
        let mut c = DiskCache::new(1 << 20);
        let fh = Fh3::from_fileid(1);
        c.put_attr(fh, attr(1, 1));
        c.store.insert_clean(fh, 0, vec![1; 100]);
        assert!(c.store.read(fh, 0, 100).is_some());
        c.put_attr(fh, attr(1, 2)); // changed on server
        assert!(c.store.read(fh, 0, 100).is_none());
    }

    #[test]
    fn disk_cache_own_write_keeps_data() {
        let mut c = DiskCache::new(1 << 20);
        let fh = Fh3::from_fileid(1);
        c.put_attr(fh, attr(1, 1));
        c.store.insert_clean(fh, 0, vec![1; 100]);
        c.put_attr_own_write(fh, attr(1, 5));
        assert!(c.store.read(fh, 0, 100).is_some());
    }

    #[test]
    fn disk_cache_invalidate_attr_keeps_data_until_revalidation() {
        let mut c = DiskCache::new(1 << 20);
        let fh = Fh3::from_fileid(1);
        c.put_attr(fh, attr(1, 1));
        c.store.insert_clean(fh, 0, vec![1; 10]);
        c.invalidate_attr(fh);
        assert!(c.attr(fh).is_none());
        // Data is still there; revalidation with the same mtime keeps it.
        c.put_attr(fh, attr(1, 1));
        assert!(c.store.read(fh, 0, 10).is_some());
        // Revalidation with a changed mtime drops it.
        c.invalidate_attr(fh);
        c.put_attr(fh, attr(1, 9));
        assert!(c.store.read(fh, 0, 10).is_none());
    }

    #[test]
    fn dir_invalidation_keeps_bindings_but_gates_them_via_attrs() {
        let mut c = DiskCache::new(1 << 20);
        let dir = Fh3::from_fileid(1);
        c.put_attr(dir, attr(1, 1));
        c.put_lookup(dir, "a", Fh3::from_fileid(2));
        c.invalidate_attr(dir);
        // The binding survives — but the proxy only serves it when the
        // directory's attributes are valid, which they no longer are.
        assert!(c.attr(dir).is_none());
        assert_eq!(c.lookup(dir, "a"), Some(Some(Fh3::from_fileid(2))));
    }

    #[test]
    fn stale_handle_purges_its_bindings() {
        let mut c = DiskCache::new(1 << 20);
        let dir = Fh3::from_fileid(1);
        c.put_lookup(dir, "a", Fh3::from_fileid(2));
        c.put_lookup(dir, "b", Fh3::from_fileid(3));
        c.purge_bindings_to(Fh3::from_fileid(2));
        assert!(c.lookup(dir, "a").is_none());
        assert_eq!(c.lookup(dir, "b"), Some(Some(Fh3::from_fileid(3))));
    }

    #[test]
    fn disk_cache_eviction_spares_dirty() {
        let mut c = DiskCache::new(100);
        let clean = Fh3::from_fileid(1);
        let dirty = Fh3::from_fileid(2);
        c.store.write_dirty(dirty, 0, vec![1; 80]);
        c.store.insert_clean(clean, 0, vec![2; 80]); // over capacity
        assert!(c.store.used_bytes() <= 160);
        assert_eq!(c.store.dirty_files(), vec![dirty]);
        assert!(c.store.read(dirty, 0, 80).is_some(), "dirty data must survive eviction");
    }

    #[test]
    fn disk_cache_forget_file() {
        let mut c = DiskCache::new(1 << 20);
        let fh = Fh3::from_fileid(1);
        c.put_attr(fh, attr(1, 1));
        c.store.insert_clean(fh, 0, vec![1; 10]);
        c.forget_file(fh);
        assert!(c.attr(fh).is_none());
        assert!(c.store.read(fh, 0, 10).is_none());
        assert_eq!(c.store.used_bytes(), 0);
    }

    #[test]
    fn force_invalidation_clears_attrs_and_lookups_only() {
        let mut c = DiskCache::new(1 << 20);
        let fh = Fh3::from_fileid(1);
        c.put_attr(fh, attr(1, 1));
        c.put_lookup(Fh3::from_fileid(9), "x", fh);
        c.store.insert_clean(fh, 0, vec![3; 8]);
        c.invalidate_all_attrs();
        assert_eq!(c.attr_count(), 0);
        assert!(c.lookup(Fh3::from_fileid(9), "x").is_none());
        // Data remains pending revalidation.
        c.put_attr(fh, attr(1, 1));
        assert!(c.store.read(fh, 0, 8).is_some());
    }
}
