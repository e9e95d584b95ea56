//! The proxy server's invalidation buffers (§4.2).
//!
//! The server keeps one bounded, logically-timestamped circular queue
//! per client. File modifications append invalidation entries to every
//! *other* client's buffer (the writer observed its own change), with
//! repeated invalidations of the same file coalesced. Clients drain
//! their buffer with `GETINV`; the server detects first contact, client
//! restart and wrap-around and answers with a `force-invalidate` flag in
//! those cases.
//!
//! There is one tracker, [`ConcurrentInvalidationTracker`], and it is
//! the one the proxy server runs: the logical clock is atomic and every
//! client buffer lives in one map behind one lock, so a modification
//! pass costs one lock acquisition however many clients are
//! registered. The lock counts its acquisitions and contended
//! acquisitions, so a real-transport run can show whether contention
//! ever appears. It also supports piggybacked drains
//! ([`ConcurrentInvalidationTracker::try_drain`]), epoch-based
//! idle-client eviction
//! ([`ConcurrentInvalidationTracker::advance_epoch`]) and the peer-advert
//! holdings that live under the same lock. The `gvfs-analysis` model
//! checker and the property tests drive this same type (it is `Clone`
//! for explicit-state exploration), so what they prove is a property of
//! the shipped code.

use crate::protocol::{GetinvRes, MAX_INVALIDATIONS_PER_REPLY};
use gvfs_nfs3::Fh3;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// One client's buffer as reported by
/// [`ConcurrentInvalidationTracker::snapshot`]: `(client, floor, queued
/// (timestamp, handle) entries)`.
pub type BufferSnapshot = (u32, u64, Vec<(u64, Fh3)>);

/// One client's invalidation buffer plus the bookkeeping the tracker
/// keeps around it.
#[derive(Debug, Clone)]
struct ClientSlot {
    entries: VecDeque<(u64, Fh3)>,
    members: HashSet<Fh3>,
    /// Timestamps at or below this value may have been discarded
    /// (buffer creation point or wrap-around).
    floor: u64,
    /// The timestamp of the last reply produced for this client over
    /// any path (a real `GETINV` or a piggybacked drain). The client's
    /// own timestamp can only lag this value, so `synced < floor`
    /// detects a wrap-around the client has not yet been told about.
    synced: u64,
    /// Eviction epoch at the client's last contact.
    epoch: u64,
    /// Files this client is advertised as holding a clean copy of
    /// (peer sourcing). Living inside the slot puts the holdings under
    /// the *same lock* as the invalidation buffer: the
    /// modification pass that enqueues an invalidation for a handle
    /// removes the handle from every holding in the same critical
    /// section, so no reader can be handed an advert for a condemned
    /// copy. Eviction drops the slot and the holdings with it.
    holdings: HashSet<Fh3>,
}

impl ClientSlot {
    /// Appends one invalidation entry (coalesced per file; wraps past
    /// `capacity` by discarding the oldest entry and raising the floor).
    fn record(&mut self, ts: u64, fh: Fh3, capacity: usize) {
        if self.members.contains(&fh) {
            return; // coalesced with a pending entry
        }
        self.entries.push_back((ts, fh));
        self.members.insert(fh);
        if self.entries.len() > capacity {
            // Wrap-around: discard the oldest and remember how far back
            // the buffer is still complete.
            if let Some((lost_ts, lost_fh)) = self.entries.pop_front() {
                self.members.remove(&lost_fh);
                self.floor = self.floor.max(lost_ts);
            }
        }
    }

    /// Answers one `GETINV` call — or produces a piggybacked drain —
    /// against this buffer (§4.2.1, server side). `first_contact` is
    /// decided by the owner (slot existence); `clock` is the tracker's
    /// current logical timestamp. `synced` moves to the reply, and
    /// `replies`/`handles` count it.
    fn reply(
        &mut self,
        last_timestamp: Option<u64>,
        clock: u64,
        first_contact: bool,
        replies: &AtomicU64,
        handles: &AtomicU64,
    ) -> GetinvRes {
        // Rule 1 (§4.2.1): the first GETINV from a client — including
        // the first after a server restart lost all buffers — always
        // bootstraps with a force-invalidation. So does a client that
        // lost its timestamp. Rule 2: so does a buffer that has wrapped
        // past what the client has seen.
        let force = first_contact
            || match last_timestamp {
                None => true,
                Some(ts) if ts < self.floor => true,
                Some(_) => false,
            };
        let res = if force {
            self.entries.clear();
            self.members.clear();
            self.floor = clock;
            // The client is discarding its whole cache; none of its
            // copies are known-clean any more.
            self.holdings.clear();
            GetinvRes {
                timestamp: clock,
                force_invalidate: true,
                poll_again: false,
                handles: Vec::new(),
            }
        } else if self.entries.len() > MAX_INVALIDATIONS_PER_REPLY {
            // Partial drain: return the oldest slice and have the client
            // poll again immediately.
            let mut handles = Vec::with_capacity(MAX_INVALIDATIONS_PER_REPLY);
            let mut last_ts = clock;
            for _ in 0..MAX_INVALIDATIONS_PER_REPLY {
                let (ts, fh) = self.entries.pop_front().expect("len checked");
                self.members.remove(&fh);
                last_ts = ts;
                handles.push(fh);
            }
            self.floor = last_ts;
            GetinvRes { timestamp: last_ts, force_invalidate: false, poll_again: true, handles }
        } else {
            let handles: Vec<Fh3> = self.entries.drain(..).map(|(_, fh)| fh).collect();
            self.members.clear();
            self.floor = clock;
            GetinvRes { timestamp: clock, force_invalidate: false, poll_again: false, handles }
        };
        self.synced = res.timestamp;
        replies.fetch_add(1, Ordering::Relaxed);
        handles.fetch_add(res.handles.len() as u64, Ordering::Relaxed);
        res
    }
}

fn copy_u64(a: &AtomicU64) -> AtomicU64 {
    AtomicU64::new(a.load(Ordering::SeqCst))
}

/// Scale counters exported by [`ConcurrentInvalidationTracker`] for the
/// bench harness's `server` JSON block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvalScaleCounters {
    /// Acquisitions of the `buffers` lock.
    pub lock_acquisitions: u64,
    /// Acquisitions that found the `buffers` lock held.
    pub lock_contended: u64,
    /// `GETINV` replies produced.
    pub getinv_replies: u64,
    /// File handles delivered across all `GETINV` replies (batch-size
    /// numerator; `/ getinv_replies` gives the mean batch size).
    pub getinv_handles: u64,
    /// Piggybacked drains produced (replies that cost zero messages).
    pub piggyback_replies: u64,
    /// File handles delivered via piggybacked drains.
    pub piggyback_handles: u64,
    /// Idle client buffers dropped by epoch eviction.
    pub evicted_buffers: u64,
    /// Peer adverts recorded (client, file) pairs.
    pub peer_advertised: u64,
    /// Peer adverts condemned by modifications, recalls or client
    /// resets.
    pub peer_condemned: u64,
}

/// The proxy server's per-client invalidation buffers and logical
/// clock. The clock is an atomic; the buffers share one map behind one
/// lock, taken once per append pass, drain or lookup.
///
/// Lock order: the `buffers` lock is terminal — no other lock is
/// acquired and no RPC is ever sent while it is held.
#[derive(Debug)]
pub struct ConcurrentInvalidationTracker {
    buffers: Mutex<HashMap<u32, ClientSlot>>,
    /// Acquisitions of the `buffers` lock.
    lock_acquisitions: AtomicU64,
    /// Acquisitions that found the `buffers` lock already held.
    lock_contended: AtomicU64,
    capacity: usize,
    clock: AtomicU64,
    /// Idle-eviction epoch, advanced by [`Self::advance_epoch`].
    epoch: AtomicU64,
    getinv_replies: AtomicU64,
    getinv_handles: AtomicU64,
    piggyback_replies: AtomicU64,
    piggyback_handles: AtomicU64,
    evicted_buffers: AtomicU64,
    peer_advertised: AtomicU64,
    peer_condemned: AtomicU64,
    /// Chaos self-test fault: suppress peer de-advertising so the
    /// oracle can prove it would catch a stale peer serve.
    deadvertise_suppressed: bool,
}

impl Clone for ConcurrentInvalidationTracker {
    /// A deep copy: the map is cloned under its lock (not counted as an
    /// acquisition) and every atomic is copied — exact for the
    /// single-threaded histories the model checker branches at every
    /// state.
    fn clone(&self) -> Self {
        ConcurrentInvalidationTracker {
            buffers: Mutex::new(self.buffers.lock().clone()),
            lock_acquisitions: copy_u64(&self.lock_acquisitions),
            lock_contended: copy_u64(&self.lock_contended),
            capacity: self.capacity,
            clock: copy_u64(&self.clock),
            epoch: copy_u64(&self.epoch),
            getinv_replies: copy_u64(&self.getinv_replies),
            getinv_handles: copy_u64(&self.getinv_handles),
            piggyback_replies: copy_u64(&self.piggyback_replies),
            piggyback_handles: copy_u64(&self.piggyback_handles),
            evicted_buffers: copy_u64(&self.evicted_buffers),
            peer_advertised: copy_u64(&self.peer_advertised),
            peer_condemned: copy_u64(&self.peer_condemned),
            deadvertise_suppressed: self.deadvertise_suppressed,
        }
    }
}

impl ConcurrentInvalidationTracker {
    /// Creates a tracker whose per-client buffers hold at most
    /// `capacity` entries before wrapping.
    pub fn new(capacity: usize) -> Self {
        Self::with_deadvertise_suppressed(capacity, false)
    }

    /// Like [`Self::new`], but with `suppressed` set modifications and
    /// recalls stop de-advertising peer copies — the chaos self-test
    /// fault behind `--break-peerread` and the product model's I7
    /// knob, which the oracles must convict.
    pub fn with_deadvertise_suppressed(capacity: usize, suppressed: bool) -> Self {
        ConcurrentInvalidationTracker {
            buffers: Mutex::new(HashMap::new()),
            lock_acquisitions: AtomicU64::new(0),
            lock_contended: AtomicU64::new(0),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            getinv_replies: AtomicU64::new(0),
            getinv_handles: AtomicU64::new(0),
            piggyback_replies: AtomicU64::new(0),
            piggyback_handles: AtomicU64::new(0),
            evicted_buffers: AtomicU64::new(0),
            peer_advertised: AtomicU64::new(0),
            peer_condemned: AtomicU64::new(0),
            deadvertise_suppressed: suppressed,
        }
    }

    /// Acquires the `buffers` lock, counting the acquisition and
    /// whether it contended.
    fn guard(&self) -> parking_lot::MutexGuard<'_, HashMap<u32, ClientSlot>> {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        if let Some(guard) = self.buffers.try_lock() {
            return guard;
        }
        self.lock_contended.fetch_add(1, Ordering::Relaxed);
        self.buffers.lock()
    }

    /// Discards all buffers and restarts the clock (server crash). The
    /// buffer capacity is configuration and survives.
    pub fn reset(&self) {
        self.guard().clear();
        self.clock.store(0, Ordering::SeqCst);
    }

    /// The current logical timestamp.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// The slot of `client` in the map (the caller holds the `buffers`
    /// lock), created empty at `clock` on first contact and stamped
    /// with the current eviction epoch. Also returns whether this call
    /// created it.
    fn open<'a>(
        &self,
        buffers: &'a mut HashMap<u32, ClientSlot>,
        client: u32,
        clock: u64,
    ) -> (&'a mut ClientSlot, bool) {
        let epoch = self.epoch.load(Ordering::SeqCst);
        let mut created = false;
        let slot = buffers.entry(client).or_insert_with(|| {
            created = true;
            ClientSlot {
                entries: VecDeque::with_capacity(self.capacity),
                members: HashSet::new(),
                floor: clock,
                synced: clock,
                epoch,
                holdings: HashSet::new(),
            }
        });
        slot.epoch = epoch;
        (slot, created)
    }

    /// Records a file modification observed from `writer`: every other
    /// registered client gets an invalidation entry (coalesced per
    /// file). One lock acquisition, regardless of how many clients are
    /// registered.
    pub fn record_modification(&self, fh: Fh3, writer: u32) {
        let ts = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        let suppress = self.deadvertise_suppressed;
        for (&client, slot) in self.guard().iter_mut() {
            // Condemn every advertised copy of the modified file —
            // including the writer's, whose copy now carries a change
            // attribute the origin has moved past. Done under the same
            // lock as the invalidation enqueue: an advert can never be
            // collected for a handle this pass has condemned.
            if !suppress && slot.holdings.remove(&fh) {
                self.peer_condemned.fetch_add(1, Ordering::Relaxed);
            }
            if client == writer {
                continue;
            }
            slot.record(ts, fh, self.capacity);
        }
    }

    /// Advertises `client` as holding a clean copy of `fh`. Creates
    /// the client's slot if it has none yet (a delegation-model client
    /// may be advertised before it ever polls): the slot then queues
    /// invalidations from this point on, and the first real `GETINV`
    /// behaves exactly as a poll against an empty buffer.
    pub fn advertise(&self, client: u32, fh: Fh3) {
        let mut buffers = self.guard();
        let (slot, _) = self.open(&mut buffers, client, self.now());
        if slot.holdings.insert(fh) {
            self.peer_advertised.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Removes every client's advert for `fh` (delegation recall,
    /// explicit invalidation): after this returns, no collected advert
    /// names the handle. One lock pass, same rank as
    /// [`Self::record_modification`].
    pub fn condemn(&self, fh: Fh3) {
        if self.deadvertise_suppressed {
            return;
        }
        for slot in self.guard().values_mut() {
            if slot.holdings.remove(&fh) {
                self.peer_condemned.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Removes every advert held by one client (the client crashed or
    /// told us it dropped its cache).
    pub fn deadvertise_client(&self, client: u32) {
        if let Some(slot) = self.guard().get_mut(&client) {
            self.peer_condemned.fetch_add(slot.holdings.len() as u64, Ordering::Relaxed);
            slot.holdings.clear();
        }
    }

    /// Clients currently advertised as holding a clean copy of `fh`,
    /// excluding `exclude` (the requester), sorted by id for
    /// determinism and capped at `cap`.
    pub fn collect_holders(&self, fh: Fh3, exclude: u32, cap: usize) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .guard()
            .iter()
            .filter(|&(&client, slot)| client != exclude && slot.holdings.contains(&fh))
            .map(|(&client, _)| client)
            .collect();
        out.sort_unstable();
        out.truncate(cap);
        out
    }

    /// An empty drain anchored at `client`'s current sync point. Used
    /// to satisfy the `peers ⟹ inv` wire-framing invariant when a
    /// reply carries a peer advert but no pending invalidations: the
    /// timestamp never moves past entries still queued for the client,
    /// so applying it is a no-op for invalidation state.
    pub fn empty_drain(&self, client: u32) -> GetinvRes {
        let timestamp = self
            .guard()
            .get(&client)
            .map_or_else(|| self.clock.load(Ordering::SeqCst), |slot| slot.synced);
        GetinvRes { timestamp, force_invalidate: false, poll_again: false, handles: Vec::new() }
    }

    /// Processes one `GETINV` call (§4.2.1, server side).
    pub fn getinv(&self, client: u32, last_timestamp: Option<u64>) -> GetinvRes {
        let mut buffers = self.guard();
        let clock = self.now();
        let (slot, first_contact) = self.open(&mut buffers, client, clock);
        slot.reply(last_timestamp, clock, first_contact, &self.getinv_replies, &self.getinv_handles)
    }

    /// Attempts a piggybacked drain for `client`: if the client has a
    /// buffer with pending entries (or an unreported wrap-around), the
    /// drain the client's next `GETINV` would have produced is returned
    /// for free-riding on an outgoing reply. Returns `None` — at zero
    /// cost beyond one map lookup — when there is nothing to say.
    ///
    /// Safety: the drain is computed against `synced`, the timestamp of
    /// the last reply this client was handed. If the client never
    /// applies the piggyback, its own timestamp stays behind the
    /// buffer's floor and the next real `GETINV` force-invalidates — a
    /// lost piggyback degrades to one extra full invalidation, never to
    /// a stale cache.
    pub fn try_drain(&self, client: u32) -> Option<GetinvRes> {
        let mut buffers = self.guard();
        let slot = buffers.get_mut(&client)?;
        slot.epoch = self.epoch.load(Ordering::Relaxed);
        if slot.entries.is_empty() && slot.synced >= slot.floor {
            return None;
        }
        let (synced, clock) = (Some(slot.synced), self.now());
        Some(slot.reply(synced, clock, false, &self.piggyback_replies, &self.piggyback_handles))
    }

    /// Advances the eviction epoch and drops buffers of clients idle
    /// for more than `max_idle` whole epochs, in one pass under the
    /// lock. Returns the number of buffers evicted.
    ///
    /// An evicted client re-enters through the first-contact path on
    /// its next poll and is force-invalidated — eviction is invisible
    /// to the protocol beyond that one extra full invalidation. Peer
    /// adverts die with the slot (an idle holder cannot be trusted to
    /// still hold the copy) and are accounted as condemned.
    pub fn advance_epoch(&self, max_idle: u64) -> usize {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let mut condemned = 0u64;
        let evicted = {
            let mut buffers = self.guard();
            let before = buffers.len();
            buffers.retain(|_, slot| {
                let keep = epoch.saturating_sub(slot.epoch) <= max_idle;
                if !keep {
                    condemned += slot.holdings.len() as u64;
                }
                keep
            });
            before - buffers.len()
        };
        self.evicted_buffers.fetch_add(evicted as u64, Ordering::Relaxed);
        self.peer_condemned.fetch_add(condemned, Ordering::Relaxed);
        evicted
    }

    /// Number of registered client buffers.
    pub fn client_count(&self) -> usize {
        self.guard().len()
    }

    /// Entries pending for one client (diagnostics).
    pub fn pending(&self, client: u32) -> usize {
        self.guard().get(&client).map_or(0, |s| s.entries.len())
    }

    /// Rough heap footprint of all client buffers, for the scale
    /// bench's memory counter.
    pub fn approx_bytes(&self) -> usize {
        // Per entry: a (u64, Fh3) deque slot plus a HashSet member.
        const PER_ENTRY: usize = 48;
        // Per client: buffer + map-entry fixed overhead.
        const PER_SLOT: usize = 96;
        // Per peer-advert holding: one HashSet member.
        const PER_HOLDING: usize = 40;
        self.guard()
            .values()
            .map(|slot| {
                PER_SLOT + slot.entries.len() * PER_ENTRY + slot.holdings.len() * PER_HOLDING
            })
            .sum()
    }

    /// The tracker's scale counters (lock contention, reply batch sizes,
    /// piggyback volume, eviction).
    pub fn scale_counters(&self) -> InvalScaleCounters {
        InvalScaleCounters {
            lock_acquisitions: self.lock_acquisitions.load(Ordering::Relaxed),
            lock_contended: self.lock_contended.load(Ordering::Relaxed),
            getinv_replies: self.getinv_replies.load(Ordering::Relaxed),
            getinv_handles: self.getinv_handles.load(Ordering::Relaxed),
            piggyback_replies: self.piggyback_replies.load(Ordering::Relaxed),
            piggyback_handles: self.piggyback_handles.load(Ordering::Relaxed),
            evicted_buffers: self.evicted_buffers.load(Ordering::Relaxed),
            peer_advertised: self.peer_advertised.load(Ordering::Relaxed),
            peer_condemned: self.peer_condemned.load(Ordering::Relaxed),
        }
    }

    /// A canonical dump of every client buffer, sorted by client id.
    /// Used by diagnostics, the property tests and the protocol model
    /// checker.
    pub fn snapshot(&self) -> Vec<BufferSnapshot> {
        let mut out: Vec<BufferSnapshot> = self
            .guard()
            .iter()
            .map(|(&c, s)| (c, s.floor, s.entries.iter().copied().collect()))
            .collect();
        out.sort_unstable_by_key(|&(c, _, _)| c);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fh(n: u64) -> Fh3 {
        Fh3::from_fileid(n)
    }

    #[test]
    fn bootstrap_forces_invalidation() {
        let t = ConcurrentInvalidationTracker::new(8);
        let res = t.getinv(1, None);
        assert!(res.force_invalidate);
        assert!(res.handles.is_empty());
        // Second poll with the returned timestamp is clean.
        let res2 = t.getinv(1, Some(res.timestamp));
        assert!(!res2.force_invalidate);
        assert!(res2.handles.is_empty());
    }

    #[test]
    fn modifications_flow_to_other_clients_only() {
        let t = ConcurrentInvalidationTracker::new(8);
        let a = t.getinv(1, None);
        let b = t.getinv(2, None);
        t.record_modification(fh(7), 1);
        let to_writer = t.getinv(1, Some(a.timestamp));
        assert!(to_writer.handles.is_empty(), "writer does not self-invalidate");
        let to_other = t.getinv(2, Some(b.timestamp));
        assert_eq!(to_other.handles, vec![fh(7)]);
    }

    #[test]
    fn repeated_modifications_coalesce() {
        let t = ConcurrentInvalidationTracker::new(8);
        let boot = t.getinv(1, None);
        for _ in 0..5 {
            t.record_modification(fh(7), 2);
        }
        t.record_modification(fh(8), 2);
        let res = t.getinv(1, Some(boot.timestamp));
        assert_eq!(res.handles, vec![fh(7), fh(8)]);
    }

    #[test]
    fn buffer_is_cleared_after_drain() {
        let t = ConcurrentInvalidationTracker::new(8);
        let boot = t.getinv(1, None);
        t.record_modification(fh(1), 2);
        let first = t.getinv(1, Some(boot.timestamp));
        assert_eq!(first.handles.len(), 1);
        let second = t.getinv(1, Some(first.timestamp));
        assert!(second.handles.is_empty());
    }

    #[test]
    fn wrap_around_forces_full_invalidation() {
        let t = ConcurrentInvalidationTracker::new(4);
        let boot = t.getinv(1, None);
        for i in 0..10 {
            t.record_modification(fh(100 + i), 2); // distinct files
        }
        // Entries were dropped; the client's timestamp predates the floor.
        let res = t.getinv(1, Some(boot.timestamp));
        assert!(res.force_invalidate);
        assert!(res.handles.is_empty());
        // After the force, polling resumes normally.
        t.record_modification(fh(55), 2);
        let next = t.getinv(1, Some(res.timestamp));
        assert!(!next.force_invalidate);
        assert_eq!(next.handles, vec![fh(55)]);
    }

    #[test]
    fn overflow_with_fresh_timestamp_still_delivers_remainder() {
        let t = ConcurrentInvalidationTracker::new(4);
        let boot = t.getinv(1, None);
        t.record_modification(fh(1), 2);
        let mid = t.getinv(1, Some(boot.timestamp));
        assert_eq!(mid.handles.len(), 1);
        // Fewer than capacity new entries: no wrap, normal delivery.
        for i in 0..3 {
            t.record_modification(fh(10 + i), 2);
        }
        let res = t.getinv(1, Some(mid.timestamp));
        assert!(!res.force_invalidate);
        assert_eq!(res.handles.len(), 3);
    }

    #[test]
    fn poll_again_paginates_large_backlogs() {
        let t = ConcurrentInvalidationTracker::new(10_000);
        let boot = t.getinv(1, None);
        let total = MAX_INVALIDATIONS_PER_REPLY + 50;
        for i in 0..total {
            t.record_modification(fh(1000 + i as u64), 2);
        }
        let first = t.getinv(1, Some(boot.timestamp));
        assert!(first.poll_again);
        assert_eq!(first.handles.len(), MAX_INVALIDATIONS_PER_REPLY);
        let second = t.getinv(1, Some(first.timestamp));
        assert!(!second.poll_again);
        assert_eq!(second.handles.len(), 50);
        assert!(!second.force_invalidate);
    }

    #[test]
    fn server_restart_bootstrap() {
        let t = ConcurrentInvalidationTracker::new(8);
        let boot = t.getinv(1, None);
        t.record_modification(fh(1), 2);
        // Server "restarts": new tracker, no buffers.
        let t2 = ConcurrentInvalidationTracker::new(8);
        let res = t2.getinv(1, Some(boot.timestamp));
        assert!(res.force_invalidate, "unknown client after restart is re-bootstrapped");
    }

    #[test]
    fn client_crash_null_timestamp_rebootstraps() {
        let t = ConcurrentInvalidationTracker::new(8);
        let boot = t.getinv(1, None);
        t.record_modification(fh(1), 2);
        assert_eq!(t.pending(1), 1);
        // Client crashed, lost its timestamp, polls with null.
        let res = t.getinv(1, None);
        assert!(res.force_invalidate);
        assert_eq!(t.pending(1), 0, "buffer reset on bootstrap");
        let _ = boot;
    }

    #[test]
    fn timestamps_increase_monotonically() {
        let t = ConcurrentInvalidationTracker::new(8);
        t.getinv(1, None);
        let mut last = 0;
        for i in 0..20 {
            t.record_modification(fh(i), 2);
            assert!(t.now() > last);
            last = t.now();
        }
    }

    #[test]
    fn try_drain_returns_pending_and_matches_poll() {
        let t = ConcurrentInvalidationTracker::new(64);
        let boot = t.getinv(1, None);
        assert!(t.try_drain(1).is_none(), "empty buffer piggybacks nothing");
        t.record_modification(fh(7), 2);
        t.record_modification(fh(8), 2);
        let drained = t.try_drain(1).expect("pending entries piggyback");
        assert!(!drained.force_invalidate);
        assert_eq!(drained.handles, vec![fh(7), fh(8)]);
        // The piggyback advanced the server's view: a poll with the
        // piggybacked timestamp is clean.
        let follow = t.getinv(1, Some(drained.timestamp));
        assert!(!follow.force_invalidate);
        assert!(follow.handles.is_empty());
        let _ = boot;
    }

    #[test]
    fn try_drain_never_creates_buffers() {
        let t = ConcurrentInvalidationTracker::new(64);
        assert!(t.try_drain(9).is_none());
        assert_eq!(t.client_count(), 0);
    }

    #[test]
    fn try_drain_after_wrap_forces() {
        let t = ConcurrentInvalidationTracker::new(4);
        let _boot = t.getinv(1, None);
        for i in 0..10 {
            t.record_modification(fh(100 + i), 2); // wraps past capacity 4
        }
        let drained = t.try_drain(1).expect("wrap must be reported");
        assert!(drained.force_invalidate, "piggyback may not silently skip wrapped entries");
        // Follow-up poll with the piggybacked timestamp is clean.
        let follow = t.getinv(1, Some(drained.timestamp));
        assert!(!follow.force_invalidate);
    }

    #[test]
    fn ignored_piggyback_degrades_to_force_not_staleness() {
        let t = ConcurrentInvalidationTracker::new(64);
        let boot = t.getinv(1, None);
        t.record_modification(fh(7), 2);
        let drained = t.try_drain(1).expect("pending entry");
        assert_eq!(drained.handles, vec![fh(7)]);
        // The client never applied the piggyback and polls with its old
        // timestamp: the floor rule must force a full invalidation, so
        // the drained handle is never silently lost.
        let res = t.getinv(1, Some(boot.timestamp));
        assert!(res.force_invalidate);
    }

    #[test]
    fn epoch_eviction_drops_only_idle_clients() {
        let t = ConcurrentInvalidationTracker::new(8);
        for c in 1..=10u32 {
            t.getinv(c, None);
        }
        assert_eq!(t.client_count(), 10);
        // Clients 1 and 2 stay active across epochs; the rest go idle.
        for _ in 0..4 {
            t.advance_epoch(2);
            t.getinv(1, None);
            let _ = t.try_drain(2);
        }
        assert_eq!(t.client_count(), 2, "idle clients evicted, active ones kept");
        // An evicted client re-bootstraps like a first contact.
        let res = t.getinv(5, Some(t.now()));
        assert!(res.force_invalidate);
    }

    #[test]
    fn scale_counters_track_lock_and_batch_activity() {
        let t = ConcurrentInvalidationTracker::new(8);
        t.getinv(1, None);
        t.record_modification(fh(1), 2);
        let drained = t.try_drain(1).expect("pending");
        let c = t.scale_counters();
        assert!(c.lock_acquisitions > 0);
        assert_eq!(c.getinv_replies, 1);
        assert_eq!(c.piggyback_replies, 1);
        assert_eq!(c.piggyback_handles, drained.handles.len() as u64);
        assert!(t.approx_bytes() > 0);
    }

    #[test]
    fn advertise_and_collect_holders() {
        let t = ConcurrentInvalidationTracker::new(8);
        for c in 1..=4u32 {
            t.getinv(c, None);
        }
        t.advertise(1, fh(7));
        t.advertise(2, fh(7));
        t.advertise(2, fh(7)); // repeat coalesces
        t.advertise(3, fh(9));
        // A client the tracker has never seen gets a slot on advertise
        // (delegation clients may never poll).
        t.advertise(99, fh(7));
        assert_eq!(t.collect_holders(fh(7), 4, 8), vec![1, 2, 99]);
        assert_eq!(t.collect_holders(fh(7), 2, 8), vec![1, 99], "requester excluded");
        assert_eq!(t.collect_holders(fh(7), 4, 1), vec![1], "cap respected");
        assert_eq!(t.collect_holders(fh(9), 4, 8), vec![3]);
        let c = t.scale_counters();
        assert_eq!(c.peer_advertised, 4, "repeat advert coalesced");
    }

    #[test]
    fn modification_condemns_all_adverts_including_writer() {
        let t = ConcurrentInvalidationTracker::new(8);
        for c in 1..=3u32 {
            t.getinv(c, None);
        }
        t.advertise(1, fh(7));
        t.advertise(2, fh(7));
        t.advertise(2, fh(8));
        t.record_modification(fh(7), 1);
        assert!(t.collect_holders(fh(7), 99, 8).is_empty(), "write condemns every copy");
        assert_eq!(t.collect_holders(fh(8), 99, 8), vec![2], "other files untouched");
        assert_eq!(t.scale_counters().peer_condemned, 2);
    }

    #[test]
    fn explicit_condemn_and_client_deadvertise() {
        let t = ConcurrentInvalidationTracker::new(8);
        for c in 1..=3u32 {
            t.getinv(c, None);
        }
        t.advertise(1, fh(7));
        t.advertise(2, fh(7));
        t.advertise(2, fh(8));
        t.condemn(fh(7));
        assert!(t.collect_holders(fh(7), 99, 8).is_empty());
        t.deadvertise_client(2);
        assert!(t.collect_holders(fh(8), 99, 8).is_empty());
    }

    #[test]
    fn force_invalidate_clears_holdings() {
        let t = ConcurrentInvalidationTracker::new(4);
        let _boot = t.getinv(1, None);
        t.advertise(1, fh(7));
        // Client restarts and polls with a null timestamp: force path.
        let res = t.getinv(1, None);
        assert!(res.force_invalidate);
        assert!(t.collect_holders(fh(7), 99, 8).is_empty(), "forced client holds nothing");
    }

    #[test]
    fn eviction_drops_holdings_with_the_slot() {
        let t = ConcurrentInvalidationTracker::new(8);
        t.getinv(1, None);
        t.getinv(2, None);
        t.advertise(1, fh(7));
        t.advertise(2, fh(7));
        // Client 2 stays active; client 1 goes idle past the limit.
        for _ in 0..4 {
            t.advance_epoch(2);
            let _ = t.try_drain(2);
        }
        assert_eq!(t.collect_holders(fh(7), 99, 8), vec![2], "evicted peer de-advertised");
    }

    #[test]
    fn suppression_knob_keeps_condemned_adverts() {
        for suppressed in [true, false] {
            let t = ConcurrentInvalidationTracker::with_deadvertise_suppressed(8, suppressed);
            t.getinv(1, None);
            t.getinv(2, None);
            t.advertise(1, fh(7));
            t.record_modification(fh(7), 2);
            t.condemn(fh(7));
            let expected = if suppressed { vec![1] } else { Vec::new() };
            assert_eq!(
                t.collect_holders(fh(7), 2, 8),
                expected,
                "only a suppressed de-advertise leaves the stale advert for the oracle to convict"
            );
        }
    }

    #[test]
    fn concurrent_reset_rebootstraps_clients() {
        let t = ConcurrentInvalidationTracker::new(8);
        let boot = t.getinv(1, None);
        t.record_modification(fh(1), 2);
        assert_eq!(t.pending(1), 1);
        t.reset();
        assert_eq!(t.client_count(), 0);
        let res = t.getinv(1, Some(boot.timestamp));
        assert!(res.force_invalidate, "buffers lost in reset force a bootstrap");
    }

    #[test]
    fn clone_is_an_independent_deep_copy() {
        let t = ConcurrentInvalidationTracker::with_deadvertise_suppressed(8, true);
        t.getinv(1, None);
        t.advertise(1, fh(7));
        let c = t.clone();
        t.record_modification(fh(9), 2);
        assert_eq!(c.now(), 0, "the copy does not see the original's later writes");
        assert_eq!(c.snapshot(), vec![(1, 0, Vec::new())]);
        c.record_modification(fh(7), 2);
        assert_eq!(c.collect_holders(fh(7), 99, 8), vec![1], "the copy keeps the knob");
        assert_eq!(c.scale_counters().getinv_replies, 1, "counters are copied");
    }
}
