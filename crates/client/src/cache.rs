//! Client-side caches: attributes, lookups (dnlc) and data pages.
//!
//! These model the kernel caches whose consistency traffic the paper
//! measures. They are plain data structures driven by the client; all
//! policy (when to revalidate) lives in [`crate::NfsClient`].

use gvfs_netsim::SimTime;
use gvfs_nfs3::{Fattr3, Fh3, NfsTime3};
use std::collections::HashMap;
use std::time::Duration;

/// One cached attribute record.
#[derive(Debug, Clone, Copy)]
struct AttrEntry {
    attr: Fattr3,
    /// Time the attributes were fetched or last revalidated.
    fetched: SimTime,
    /// Current adaptive timeout.
    timeout: Duration,
}

/// The attribute cache with Linux-style adaptive timeouts.
#[derive(Debug, Default)]
pub struct AttrCache {
    entries: HashMap<Fh3, AttrEntry>,
}

impl AttrCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns cached attributes if the entry is still fresh at `now`.
    pub fn fresh(&self, fh: Fh3, now: SimTime) -> Option<Fattr3> {
        let e = self.entries.get(&fh)?;
        (now.saturating_since(e.fetched) < e.timeout).then_some(e.attr)
    }

    /// Returns cached attributes regardless of freshness.
    pub fn peek(&self, fh: Fh3) -> Option<Fattr3> {
        self.entries.get(&fh).map(|e| e.attr)
    }

    /// Inserts attributes fetched at `now` with the initial timeout
    /// `min_timeout`. Returns the mtime previously cached, if any.
    pub fn insert(
        &mut self,
        fh: Fh3,
        attr: Fattr3,
        now: SimTime,
        min_timeout: Duration,
    ) -> Option<NfsTime3> {
        let old = self.entries.insert(fh, AttrEntry { attr, fetched: now, timeout: min_timeout });
        old.map(|e| e.attr.mtime)
    }

    /// Records a revalidation at `now`: if the mtime is unchanged the
    /// adaptive timeout doubles (capped at `max_timeout`); if it changed
    /// the timeout resets to `min_timeout`. Returns `true` if the file
    /// changed since last cached.
    pub fn revalidate(
        &mut self,
        fh: Fh3,
        attr: Fattr3,
        now: SimTime,
        min_timeout: Duration,
        max_timeout: Duration,
    ) -> bool {
        match self.entries.get_mut(&fh) {
            Some(e) => {
                let changed = e.attr.mtime != attr.mtime || e.attr.size != attr.size;
                e.timeout = if changed {
                    min_timeout
                } else {
                    (e.timeout * 2).min(max_timeout).max(min_timeout)
                };
                e.attr = attr;
                e.fetched = now;
                changed
            }
            None => {
                self.insert(fh, attr, now, min_timeout);
                false
            }
        }
    }

    /// Drops one entry.
    pub fn invalidate(&mut self, fh: Fh3) {
        self.entries.remove(&fh);
    }

    /// Drops everything (the paper's force-invalidation path).
    pub fn invalidate_all(&mut self) {
        self.entries.clear();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The lookup (dnlc) cache: `(dir, name) → Some(fh)` for positive
/// entries, `None` for negative entries (the name is known absent —
/// kernel dnlc caches these too, and the paper's lock benchmark
/// behaviour depends on them). Bindings are kept per directory, so a
/// probe borrows its name and a directory purge is one removal.
#[derive(Debug)]
pub struct LookupCache {
    dirs: HashMap<Fh3, HashMap<String, Option<Fh3>>>,
    /// Bindings across all directories.
    len: usize,
    capacity: usize,
}

impl LookupCache {
    /// Creates a cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LookupCache { dirs: HashMap::new(), len: 0, capacity }
    }

    /// Returns the cached binding: `Some(Some(fh))` positive,
    /// `Some(None)` negative, `None` unknown.
    pub fn get(&self, dir: Fh3, name: &str) -> Option<Option<Fh3>> {
        self.dirs.get(&dir)?.get(name).copied()
    }

    /// Inserts a positive binding; on overflow the cache is cleared (a
    /// crude but deterministic stand-in for kernel dnlc pressure).
    pub fn insert(&mut self, dir: Fh3, name: &str, child: Fh3) {
        self.insert_entry(dir, name, Some(child));
    }

    /// Inserts a negative binding (name known absent).
    pub fn insert_negative(&mut self, dir: Fh3, name: &str) {
        self.insert_entry(dir, name, None);
    }

    fn insert_entry(&mut self, dir: Fh3, name: &str, child: Option<Fh3>) {
        if self.len >= self.capacity {
            self.clear();
        }
        let names = self.dirs.entry(dir).or_default();
        match names.get_mut(name) {
            Some(bound) => *bound = child,
            None => {
                names.insert(name.to_owned(), child);
                self.len += 1;
            }
        }
    }

    /// Removes one binding.
    pub fn remove(&mut self, dir: Fh3, name: &str) {
        if self.dirs.get_mut(&dir).and_then(|names| names.remove(name)).is_some() {
            self.len -= 1;
        }
    }

    /// Removes every binding under `dir` (directory changed).
    pub fn purge_dir(&mut self, dir: Fh3) {
        if let Some(names) = self.dirs.remove(&dir) {
            self.len -= names.len();
        }
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.dirs.clear();
        self.len = 0;
    }

    /// Number of cached bindings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A page-cache key: file and page index.
type PageKey = (Fh3, u64);

/// The data page cache: fixed-size pages with LRU eviction and per-file
/// mtime tags for validation.
#[derive(Debug)]
pub struct PageCache {
    pages: HashMap<PageKey, (Vec<u8>, u64)>, // data, lru sequence
    lru: std::collections::BTreeMap<u64, PageKey>,
    mtimes: HashMap<Fh3, NfsTime3>,
    next_seq: u64,
    used: usize,
    capacity: usize,
    page_size: usize,
}

impl PageCache {
    /// Creates a cache of `capacity` bytes with pages of `page_size`.
    pub fn new(capacity: usize, page_size: usize) -> Self {
        PageCache {
            pages: HashMap::new(),
            lru: std::collections::BTreeMap::new(),
            mtimes: HashMap::new(),
            next_seq: 0,
            used: 0,
            capacity,
            page_size,
        }
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The mtime the cached pages of `fh` were valid for.
    pub fn mtime_tag(&self, fh: Fh3) -> Option<NfsTime3> {
        self.mtimes.get(&fh).copied()
    }

    /// Records the mtime tag for a file's pages.
    pub fn set_mtime_tag(&mut self, fh: Fh3, mtime: NfsTime3) {
        self.mtimes.insert(fh, mtime);
    }

    /// Returns the cached page, updating recency.
    pub fn get(&mut self, fh: Fh3, page: u64) -> Option<&[u8]> {
        let key = (fh, page);
        let seq = self.next_seq;
        match self.pages.get_mut(&key) {
            Some((_, old_seq)) => {
                self.lru.remove(old_seq);
                *old_seq = seq;
                self.next_seq += 1;
                self.lru.insert(seq, key);
                self.pages.get(&key).map(|(d, _)| d.as_slice())
            }
            None => None,
        }
    }

    /// Inserts a page, evicting least-recently-used pages as needed.
    pub fn insert(&mut self, fh: Fh3, page: u64, data: Vec<u8>) {
        let key = (fh, page);
        if let Some((old, seq)) = self.pages.remove(&key) {
            self.used -= old.len();
            self.lru.remove(&seq);
        }
        self.used += data.len();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pages.insert(key, (data, seq));
        self.lru.insert(seq, key);
        while self.used > self.capacity {
            let Some((&oldest, &victim)) = self.lru.iter().next() else { break };
            self.lru.remove(&oldest);
            if let Some((data, _)) = self.pages.remove(&victim) {
                self.used -= data.len();
            }
        }
    }

    /// Drops all pages of one file.
    pub fn invalidate_file(&mut self, fh: Fh3) {
        let keys: Vec<PageKey> = self.pages.keys().filter(|(f, _)| *f == fh).copied().collect();
        for key in keys {
            if let Some((data, seq)) = self.pages.remove(&key) {
                self.used -= data.len();
                self.lru.remove(&seq);
            }
        }
        self.mtimes.remove(&fh);
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.lru.clear();
        self.mtimes.clear();
        self.used = 0;
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> usize {
        self.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(fileid: u64, mtime_s: u32, size: u64) -> Fattr3 {
        Fattr3 {
            ftype: gvfs_nfs3::Ftype3::Reg,
            mode: 0o644,
            nlink: 1,
            uid: 0,
            gid: 0,
            size,
            used: size,
            rdev: (0, 0),
            fsid: 1,
            fileid,
            atime: NfsTime3::default(),
            mtime: NfsTime3 { seconds: mtime_s, nseconds: 0 },
            ctime: NfsTime3 { seconds: mtime_s, nseconds: 0 },
        }
    }

    const MIN: Duration = Duration::from_secs(3);
    const MAX: Duration = Duration::from_secs(60);

    #[test]
    fn attr_cache_fresh_until_timeout() {
        let mut c = AttrCache::new();
        let fh = Fh3::from_fileid(1);
        c.insert(fh, attr(1, 0, 0), SimTime::ZERO, MIN);
        assert!(c.fresh(fh, SimTime::from_secs(2)).is_some());
        assert!(c.fresh(fh, SimTime::from_secs(4)).is_none());
        assert!(c.peek(fh).is_some());
    }

    #[test]
    fn attr_cache_timeout_doubles_when_unchanged() {
        let mut c = AttrCache::new();
        let fh = Fh3::from_fileid(1);
        c.insert(fh, attr(1, 0, 0), SimTime::ZERO, MIN);
        let changed = c.revalidate(fh, attr(1, 0, 0), SimTime::from_secs(3), MIN, MAX);
        assert!(!changed);
        // timeout now 6s
        assert!(c.fresh(fh, SimTime::from_secs(8)).is_some());
        assert!(c.fresh(fh, SimTime::from_secs(10)).is_none());
    }

    #[test]
    fn attr_cache_timeout_resets_on_change() {
        let mut c = AttrCache::new();
        let fh = Fh3::from_fileid(1);
        c.insert(fh, attr(1, 0, 0), SimTime::ZERO, MIN);
        c.revalidate(fh, attr(1, 0, 0), SimTime::from_secs(3), MIN, MAX); // 6s
        let changed = c.revalidate(fh, attr(1, 9, 1), SimTime::from_secs(9), MIN, MAX);
        assert!(changed);
        assert!(c.fresh(fh, SimTime::from_secs(11)).is_some());
        assert!(c.fresh(fh, SimTime::from_secs(13)).is_none()); // back to 3s
    }

    #[test]
    fn attr_cache_timeout_caps_at_max() {
        let mut c = AttrCache::new();
        let fh = Fh3::from_fileid(1);
        c.insert(fh, attr(1, 0, 0), SimTime::ZERO, MIN);
        for i in 0..10 {
            c.revalidate(fh, attr(1, 0, 0), SimTime::from_secs(3 * (i + 1)), MIN, MAX);
        }
        let last = SimTime::from_secs(30); // time of the final revalidation
        assert!(c.fresh(fh, last + Duration::from_secs(59)).is_some());
        assert!(c.fresh(fh, last + Duration::from_secs(61)).is_none());
    }

    #[test]
    fn lookup_cache_purge_dir() {
        let mut c = LookupCache::new(10);
        let d1 = Fh3::from_fileid(1);
        let d2 = Fh3::from_fileid(2);
        c.insert(d1, "a", Fh3::from_fileid(10));
        c.insert(d1, "b", Fh3::from_fileid(11));
        c.insert(d2, "a", Fh3::from_fileid(12));
        c.purge_dir(d1);
        assert!(c.get(d1, "a").is_none());
        assert_eq!(c.get(d2, "a"), Some(Some(Fh3::from_fileid(12))));
    }

    #[test]
    fn lookup_cache_overflow_clears() {
        let mut c = LookupCache::new(2);
        let d = Fh3::from_fileid(1);
        c.insert(d, "a", Fh3::from_fileid(10));
        c.insert(d, "b", Fh3::from_fileid(11));
        c.insert(d, "c", Fh3::from_fileid(12));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(d, "c"), Some(Some(Fh3::from_fileid(12))));
    }

    #[test]
    fn lookup_cache_negative_entries() {
        let mut c = LookupCache::new(10);
        let d = Fh3::from_fileid(1);
        c.insert_negative(d, "ghost");
        assert_eq!(c.get(d, "ghost"), Some(None), "negative entry cached");
        assert_eq!(c.get(d, "other"), None, "unknown name");
        c.insert(d, "ghost", Fh3::from_fileid(9));
        assert_eq!(c.get(d, "ghost"), Some(Some(Fh3::from_fileid(9))));
    }

    #[test]
    fn page_cache_roundtrip_and_eviction() {
        let mut c = PageCache::new(100, 32);
        let fh = Fh3::from_fileid(1);
        c.insert(fh, 0, vec![1; 32]);
        c.insert(fh, 1, vec![2; 32]);
        c.insert(fh, 2, vec![3; 32]);
        assert_eq!(c.used_bytes(), 96);
        // Touch page 0 so page 1 is the LRU victim.
        assert!(c.get(fh, 0).is_some());
        c.insert(fh, 3, vec![4; 32]); // 128 > 100 → evict
        assert!(c.get(fh, 1).is_none(), "lru page evicted");
        assert!(c.get(fh, 0).is_some());
        assert!(c.used_bytes() <= 100);
    }

    #[test]
    fn page_cache_invalidate_file() {
        let mut c = PageCache::new(1000, 32);
        let f1 = Fh3::from_fileid(1);
        let f2 = Fh3::from_fileid(2);
        c.insert(f1, 0, vec![1; 32]);
        c.insert(f2, 0, vec![2; 32]);
        c.set_mtime_tag(f1, NfsTime3 { seconds: 5, nseconds: 0 });
        c.invalidate_file(f1);
        assert!(c.get(f1, 0).is_none());
        assert!(c.mtime_tag(f1).is_none());
        assert!(c.get(f2, 0).is_some());
        assert_eq!(c.used_bytes(), 32);
    }

    #[test]
    fn page_cache_reinsert_same_page_accounts_once() {
        let mut c = PageCache::new(1000, 32);
        let fh = Fh3::from_fileid(1);
        c.insert(fh, 0, vec![1; 32]);
        c.insert(fh, 0, vec![2; 16]);
        assert_eq!(c.used_bytes(), 16);
        assert_eq!(c.get(fh, 0).unwrap(), &[2; 16]);
    }
}
