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

use crate::store::persist::PersistentStore;
use gvfs_nfs3::{EntryPlus3, Fattr3, Fh3};
use std::collections::HashMap;

/// The proxy client's disk cache: attributes, name lookups and file
/// content. Content lives in a [`PersistentStore`] on the proxy
/// machine's disk, so it survives proxy restarts.
#[derive(Debug)]
pub struct DiskCache {
    attrs: HashMap<Fh3, Fattr3>,
    /// Name bindings per directory, so a probe borrows its name. No
    /// directory's map is ever empty: a directory has bindings exactly
    /// when it has an entry.
    lookups: HashMap<Fh3, HashMap<String, Option<Fh3>>>,
    /// Directories whose name bindings need a bulk refresh because the
    /// directory was invalidated by the consistency protocol. Serving a
    /// stale binding is unsafe even with STALE-detection: a removed name
    /// whose inode survives through another hard link (the lock-file
    /// pattern) would keep resolving.
    stale_dirs: std::collections::HashSet<Fh3>,
    /// The file content. Callers read and write it directly; the cache
    /// itself only retags it when attributes arrive and forgets a
    /// removed file's content together with its attributes.
    pub store: PersistentStore,
}

impl DiskCache {
    /// Creates a cache whose file content lives in `store`.
    pub fn new(store: PersistentStore) -> Self {
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
        self.attrs.insert(fh, attr);
    }

    /// Caches attributes for data we wrote ourselves: retags without
    /// dropping content.
    pub fn put_attr_own_write(&mut self, fh: Fh3, attr: Fattr3) {
        self.store.retag(fh, attr.mtime);
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
        if self.lookups.contains_key(&fh) {
            self.stale_dirs.insert(fh);
        }
    }

    /// If `dir` was marked stale, purges its bindings and clears the
    /// mark, returning `true` (the caller should bulk-refresh).
    pub fn take_stale_dir(&mut self, dir: Fh3) -> bool {
        if self.stale_dirs.remove(&dir) {
            self.lookups.remove(&dir);
            true
        } else {
            false
        }
    }

    /// Drops every name binding resolving to `fh` (called when the
    /// server reports the handle stale).
    pub fn purge_bindings_to(&mut self, fh: Fh3) {
        self.lookups.retain(|_, names| {
            names.retain(|_, v| *v != Some(fh));
            !names.is_empty()
        });
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
        self.lookups.get(&dir)?.get(name).copied()
    }

    /// Caches a positive name binding.
    pub fn put_lookup(&mut self, dir: Fh3, name: &str, child: Fh3) {
        self.put_binding(dir, name, Some(child));
    }

    /// Caches a negative name binding (known absent).
    pub fn put_negative_lookup(&mut self, dir: Fh3, name: &str) {
        self.put_binding(dir, name, None);
    }

    fn put_binding(&mut self, dir: Fh3, name: &str, child: Option<Fh3>) {
        let names = self.lookups.entry(dir).or_default();
        match names.get_mut(name) {
            Some(bound) => *bound = child,
            None => {
                names.insert(name.to_owned(), child);
            }
        }
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
    use crate::store::persist::PersistConfig;
    use gvfs_netsim::disk::{DiskConfig, VirtualDisk};
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

    /// A cache over a persistent store on a free disk, bounded to
    /// `capacity` bytes of file content.
    fn cache(capacity: usize) -> DiskCache {
        let cfg = PersistConfig { capacity, ..PersistConfig::default() };
        DiskCache::new(PersistentStore::open(VirtualDisk::new(DiskConfig::instant()), cfg))
    }

    const FH: Fh3 = Fh3::from_fileid(1);

    #[test]
    fn file_cache_read_exact_and_partial() {
        let mut c = cache(1 << 20);
        c.store.insert_clean(FH, 0, vec![1, 2, 3, 4]);
        assert_eq!(c.store.read(FH, 0, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(c.store.read(FH, 1, 2).unwrap(), vec![2, 3]);
        assert!(c.store.read(FH, 0, 5).is_none(), "uncovered tail");
        assert!(c.store.read(FH, 4, 1).is_none());
        assert_eq!(c.store.read(FH, 0, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn file_cache_detects_gaps() {
        let mut c = cache(1 << 20);
        c.store.insert_clean(FH, 0, vec![1; 4]);
        c.store.insert_clean(FH, 8, vec![2; 4]);
        assert!(c.store.read(FH, 0, 12).is_none());
        assert_eq!(c.store.read(FH, 8, 4).unwrap(), vec![2; 4]);
    }

    #[test]
    fn file_cache_coalesces_adjacent() {
        let mut c = cache(1 << 20);
        c.store.insert_clean(FH, 0, vec![1; 4]);
        c.store.insert_clean(FH, 4, vec![2; 4]);
        assert_eq!(c.store.read(FH, 0, 8).unwrap(), [[1u8; 4], [2u8; 4]].concat());
        c.store.write_dirty(FH, 16, vec![3; 4]);
        c.store.write_dirty(FH, 20, vec![4; 4]);
        assert_eq!(c.store.dirty_ranges(FH), vec![(16, 8)]);
    }

    #[test]
    fn overwrite_replaces_clean_data() {
        let mut c = cache(1 << 20);
        c.store.insert_clean(FH, 0, vec![1; 8]);
        c.store.insert_clean(FH, 2, vec![9; 4]);
        assert_eq!(c.store.read(FH, 0, 8).unwrap(), vec![1, 1, 9, 9, 9, 9, 1, 1]);
    }

    #[test]
    fn dirty_beats_incoming_clean() {
        let mut c = cache(1 << 20);
        c.store.write_dirty(FH, 2, vec![7; 4]);
        c.store.insert_clean(FH, 0, vec![0; 8]); // stale server data arrives
        assert_eq!(c.store.read(FH, 0, 8).unwrap(), vec![0, 0, 7, 7, 7, 7, 0, 0]);
        assert_eq!(c.store.dirty_ranges(FH), vec![(2, 4)]);
    }

    #[test]
    fn dirty_overwrites_clean_and_tracks_ranges() {
        let mut c = cache(1 << 20);
        c.store.insert_clean(FH, 0, vec![1; 10]);
        c.store.write_dirty(FH, 4, vec![9; 2]);
        assert_eq!(c.store.read(FH, 0, 10).unwrap(), vec![1, 1, 1, 1, 9, 9, 1, 1, 1, 1]);
        assert_eq!(c.store.dirty_ranges(FH), vec![(4, 2)]);
        assert!(c.store.has_dirty(FH));
    }

    #[test]
    fn drop_clean_preserves_dirty() {
        let mut c = cache(1 << 20);
        c.store.insert_clean(FH, 0, vec![1; 4]);
        c.store.write_dirty(FH, 8, vec![2; 4]);
        c.store.drop_clean(FH);
        assert!(c.store.read(FH, 0, 4).is_none());
        assert_eq!(c.store.read(FH, 8, 4).unwrap(), vec![2; 4]);
    }

    #[test]
    fn dirty_blocks_enumerates_aligned_blocks() {
        let mut c = cache(1 << 20);
        c.store.write_dirty(FH, 100, vec![1; 50]); // block 0
        c.store.write_dirty(FH, 32768 + 10, vec![2; 32768]); // blocks 1 and 2
        assert_eq!(c.store.dirty_blocks(FH, 32768), vec![0, 32768, 65536]);
    }

    #[test]
    fn dirty_in_block_returns_segments() {
        let mut c = cache(1 << 20);
        c.store.write_dirty(FH, 100, vec![1; 50]);
        c.store.write_dirty(FH, 200, vec![2; 10]);
        c.store.write_dirty(FH, 40000, vec![3; 10]); // next block
        let segs = c.store.dirty_in_block(FH, 0, 32768);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0], (100, vec![1; 50]));
        assert_eq!(segs[1], (200, vec![2; 10]));
        assert_eq!(c.store.dirty_in_block(FH, 32768, 32768), vec![(40000, vec![3; 10])]);
    }

    #[test]
    fn clean_range_splits_extents() {
        let mut c = cache(1 << 20);
        c.store.write_dirty(FH, 0, vec![1; 100]);
        c.store.clean_range(FH, 20, 30);
        assert_eq!(c.store.dirty_ranges(FH), vec![(0, 20), (50, 50)]);
        // Data is unchanged.
        assert_eq!(c.store.read(FH, 0, 100).unwrap(), vec![1; 100]);
        c.store.clean_range(FH, 0, 100);
        assert!(!c.store.has_dirty(FH));
    }

    #[test]
    fn missing_ranges_reports_gaps_in_order() {
        let mut c = cache(1 << 20);
        let s = &mut c.store;
        assert_eq!(s.missing_ranges(FH, 0, 10), vec![(0, 10)], "empty cache is one gap");
        assert_eq!(s.missing_ranges(FH, 5, 0), Vec::<(u64, usize)>::new());
        s.insert_clean(FH, 4, vec![1; 4]); // [4, 8)
        assert_eq!(s.missing_ranges(FH, 0, 12), vec![(0, 4), (8, 4)]);
        assert_eq!(s.missing_ranges(FH, 4, 4), Vec::<(u64, usize)>::new());
        assert_eq!(s.missing_ranges(FH, 5, 2), Vec::<(u64, usize)>::new(), "inside one extent");
        assert_eq!(s.missing_ranges(FH, 6, 4), vec![(8, 2)], "tail gap only");
        assert_eq!(s.missing_ranges(FH, 0, 5), vec![(0, 4)], "head gap only");
        s.insert_clean(FH, 10, vec![2; 2]); // [10, 12)
        assert_eq!(s.missing_ranges(FH, 0, 14), vec![(0, 4), (8, 2), (12, 2)]);
        assert_eq!(s.missing_ranges(FH, 20, 3), vec![(20, 3)], "fully past cached data");
    }

    #[test]
    fn missing_ranges_counts_dirty_as_covered() {
        let mut c = cache(1 << 20);
        c.store.write_dirty(FH, 4, vec![9; 4]);
        assert_eq!(c.store.missing_ranges(FH, 0, 12), vec![(0, 4), (8, 4)]);
        assert_eq!(c.store.missing_ranges(FH, 4, 4), Vec::<(u64, usize)>::new());
    }

    #[test]
    fn disk_cache_missing_ranges_unknown_file_is_one_gap() {
        let mut c = cache(1 << 20);
        let fh = Fh3::from_fileid(1);
        assert_eq!(c.store.missing_ranges(fh, 3, 7), vec![(3, 7)]);
        assert_eq!(c.store.missing_ranges(fh, 3, 0), Vec::<(u64, usize)>::new());
        c.store.insert_clean(fh, 0, vec![1; 5]);
        assert_eq!(c.store.missing_ranges(fh, 3, 7), vec![(5, 5)]);
    }

    #[test]
    fn put_attr_prefetch_rejects_older_attr() {
        let mut c = cache(1 << 20);
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
        let mut c = cache(1 << 20);
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
        let mut c = cache(1 << 20);
        let fh = Fh3::from_fileid(1);
        c.put_attr(fh, attr(1, 1));
        c.store.insert_clean(fh, 0, vec![1; 100]);
        assert!(c.store.read(fh, 0, 100).is_some());
        c.put_attr(fh, attr(1, 2)); // changed on server
        assert!(c.store.read(fh, 0, 100).is_none());
    }

    #[test]
    fn disk_cache_own_write_keeps_data() {
        let mut c = cache(1 << 20);
        let fh = Fh3::from_fileid(1);
        c.put_attr(fh, attr(1, 1));
        c.store.insert_clean(fh, 0, vec![1; 100]);
        c.put_attr_own_write(fh, attr(1, 5));
        assert!(c.store.read(fh, 0, 100).is_some());
    }

    #[test]
    fn disk_cache_invalidate_attr_keeps_data_until_revalidation() {
        let mut c = cache(1 << 20);
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
        let mut c = cache(1 << 20);
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
        let mut c = cache(1 << 20);
        let dir = Fh3::from_fileid(1);
        c.put_lookup(dir, "a", Fh3::from_fileid(2));
        c.put_lookup(dir, "b", Fh3::from_fileid(3));
        c.purge_bindings_to(Fh3::from_fileid(2));
        assert!(c.lookup(dir, "a").is_none());
        assert_eq!(c.lookup(dir, "b"), Some(Some(Fh3::from_fileid(3))));
    }

    #[test]
    fn disk_cache_eviction_spares_dirty() {
        let mut c = cache(100);
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
        let mut c = cache(1 << 20);
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
        let mut c = cache(1 << 20);
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
