//! The duplicate request cache (DRC).
//!
//! NFS procedures are not all idempotent: a retransmitted `REMOVE` whose
//! first execution succeeded would otherwise fail with `NOENT`, a
//! retransmitted exclusive `CREATE` with `EXIST`. Servers therefore keep
//! a bounded cache of recently sent replies keyed by `(client, xid,
//! procedure)` and replay the cached reply for retransmissions instead
//! of re-executing the call.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Key identifying one client request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DrcKey {
    /// Client identity (address or session id), shared by every key of
    /// one client.
    pub client: Arc<str>,
    /// RPC transaction id.
    pub xid: u32,
    /// Procedure number (paranoia against xid reuse across procedures).
    pub procedure: u32,
}

/// A bounded reply cache with FIFO eviction.
///
/// # Examples
///
/// ```
/// use gvfs_rpc::drc::{DuplicateRequestCache, DrcKey};
///
/// let mut drc = DuplicateRequestCache::new(128);
/// let key = DrcKey { client: "10.0.0.1:714".into(), xid: 7, procedure: 12 };
/// assert!(drc.lookup(&key).is_none());
/// drc.insert(key.clone(), vec![1, 2, 3]);
/// assert_eq!(drc.lookup(&key), Some(&[1u8, 2, 3][..]));
/// ```
#[derive(Debug)]
pub struct DuplicateRequestCache {
    entries: HashMap<DrcKey, Vec<u8>>,
    order: VecDeque<DrcKey>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl DuplicateRequestCache {
    /// Creates a cache holding at most `capacity` replies.
    pub fn new(capacity: usize) -> Self {
        DuplicateRequestCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Returns the cached reply for a retransmission, if present.
    pub fn lookup(&mut self, key: &DrcKey) -> Option<&[u8]> {
        match self.entries.get(key) {
            Some(reply) => {
                self.hits += 1;
                Some(reply.as_slice())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records the reply sent for `key`, evicting the oldest entry when
    /// full.
    pub fn insert(&mut self, key: DrcKey, reply: Vec<u8>) {
        if self.entries.insert(key.clone(), reply).is_none() {
            self.order.push_back(key);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.entries.remove(&old);
                }
            }
        }
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of cached replies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(xid: u32) -> DrcKey {
        DrcKey { client: "c".into(), xid, procedure: 1 }
    }

    #[test]
    fn replays_cached_reply() {
        let mut drc = DuplicateRequestCache::new(4);
        drc.insert(key(1), vec![9]);
        assert_eq!(drc.lookup(&key(1)), Some(&[9u8][..]));
        assert_eq!(drc.stats(), (1, 0));
    }

    #[test]
    fn distinct_clients_do_not_collide() {
        let mut drc = DuplicateRequestCache::new(4);
        drc.insert(DrcKey { client: "a".into(), xid: 1, procedure: 1 }, vec![1]);
        assert!(drc.lookup(&DrcKey { client: "b".into(), xid: 1, procedure: 1 }).is_none());
    }

    #[test]
    fn fifo_eviction_bounds_memory() {
        let mut drc = DuplicateRequestCache::new(2);
        drc.insert(key(1), vec![1]);
        drc.insert(key(2), vec![2]);
        drc.insert(key(3), vec![3]);
        assert_eq!(drc.len(), 2);
        assert!(drc.lookup(&key(1)).is_none(), "oldest evicted");
        assert!(drc.lookup(&key(3)).is_some());
    }

    #[test]
    fn reinsert_does_not_duplicate_order_entries() {
        let mut drc = DuplicateRequestCache::new(2);
        drc.insert(key(1), vec![1]);
        drc.insert(key(1), vec![2]); // retransmit path re-stores
        drc.insert(key(2), vec![3]);
        assert_eq!(drc.len(), 2);
        assert_eq!(drc.lookup(&key(1)), Some(&[2u8][..]));
    }
}
