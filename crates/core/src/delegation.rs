//! The proxy server's delegation state machine (§4.3).
//!
//! NFSv3 has no OPEN/CLOSE, so the proxy server *speculates*: a file is
//! considered opened by a client when a read or write request arrives,
//! and closed when the client has not touched it for the configured
//! expiration time. Around that speculation it maintains per-file state:
//!
//! * multiple concurrent **read delegations** are allowed;
//! * a **write delegation** is granted only when no other client has the
//!   file open;
//! * conflicting requests trigger **recalls** (callbacks) of existing
//!   delegations and make the file temporarily non-cacheable;
//! * a recalled write delegation may answer with a dirty-block list
//!   (partial write-back); the server tracks the list, and accesses to
//!   still-dirty blocks force their immediate submission via targeted
//!   callbacks.
//!
//! The table itself is pure state: it returns [`RecallAction`]s for the
//! proxy server to execute (callbacks must happen outside the lock), and
//! is told the outcomes.

use crate::model::DelegationConfig;
use crate::protocol::DelegationGrant;
use gvfs_netsim::SimTime;
use gvfs_nfs3::Fh3;
use std::collections::{BTreeSet, HashMap};

/// A delegation held by a client on a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DelegationKind {
    /// Read delegation.
    Read,
    /// Write delegation.
    Write,
}

#[derive(Debug, Clone, Copy)]
struct Sharer {
    delegation: Option<DelegationKind>,
    last_access: SimTime,
}

// Conflict rules (§4.3.1, aligned with NFSv4 semantics):
//
// * a READ conflicts only with another client's *write delegation* — a
//   past writer without a delegation must route its next write through
//   the server anyway, which will recall whatever read delegations exist
//   by then, so read delegations are safe to hand out immediately;
// * a WRITE conflicts with any other client's delegation (read or
//   write), and a *write delegation* is additionally granted only when
//   no other client has the file speculatively open;
// * recalling a delegation also closes the holder's speculated open (the
//   write-back is the flush-on-close analogue), so a recalled file can
//   be re-delegated right away.

/// An in-progress partial write-back of a recalled write delegation.
#[derive(Debug, Clone)]
pub struct PendingWriteback {
    /// The client flushing its dirty data.
    pub client: u32,
    /// Byte offsets of extents not yet submitted.
    pub blocks: BTreeSet<u64>,
}

#[derive(Debug, Default, Clone)]
struct FileEntry {
    sharers: HashMap<u32, Sharer>,
    pending: Option<PendingWriteback>,
    /// Number of recall rounds currently in flight for this file. While
    /// non-zero the file is temporarily non-cacheable (§4.3.1): no new
    /// delegations are granted, so a grant can never race with the
    /// `recall_done` of an earlier round (which would silently desync
    /// the client's view).
    recalling: u32,
}

/// A callback the proxy server must perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecallAction {
    /// Which client to call back.
    pub client: u32,
    /// The file being recalled.
    pub fh: Fh3,
    /// What is recalled.
    pub kind: DelegationKind,
    /// For write recalls triggered by a block access: the offset the
    /// requester is blocked on.
    pub requested_offset: Option<u64>,
}

/// The per-session delegation table.
///
/// # Examples
///
/// ```
/// use gvfs_core::delegation::DelegationTable;
/// use gvfs_core::protocol::DelegationGrant;
/// use gvfs_core::DelegationConfig;
/// use gvfs_netsim::SimTime;
/// use gvfs_nfs3::Fh3;
///
/// let mut table = DelegationTable::new(DelegationConfig::default());
/// let fh = Fh3::from_fileid(1);
/// let (grant, recalls) = table.access(fh, 1, false, None, SimTime::ZERO);
/// assert_eq!(grant, DelegationGrant::Read);
/// assert!(recalls.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct DelegationTable {
    files: HashMap<Fh3, FileEntry>,
    config: DelegationConfig,
    /// Delegations revoked server-side by lease expiry (no recall).
    lease_revocations: u64,
    /// When set, every in-table lease revocation is appended to
    /// `revocation_log` for the caller to drain (trace emission, the
    /// product model). Off by default so untraced long-running sessions
    /// accumulate nothing.
    log_revocations: bool,
    /// `(client, fh)` pairs revoked since the last drain.
    revocation_log: Vec<(u32, Fh3)>,
}

/// A canonical, ordered dump of one file's delegation state, produced by
/// [`DelegationTable::snapshot`] for diagnostics and model checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSnapshot {
    /// The file.
    pub fh: Fh3,
    /// `(client, delegation)` pairs, sorted by client id.
    pub sharers: Vec<(u32, Option<DelegationKind>)>,
    /// In-progress partial write-back: `(client, dirty offsets)`.
    pub pending: Option<(u32, Vec<u64>)>,
    /// Recall rounds currently in flight.
    pub recalling: u32,
}

impl DelegationTable {
    /// Creates an empty table with the given policy.
    pub fn new(config: DelegationConfig) -> Self {
        DelegationTable {
            files: HashMap::new(),
            config,
            lease_revocations: 0,
            log_revocations: false,
            revocation_log: Vec::new(),
        }
    }

    /// Enables or disables per-event recording of in-table lease
    /// revocations (drained with [`DelegationTable::take_revocations`]).
    pub fn set_revocation_log(&mut self, enabled: bool) {
        self.log_revocations = enabled;
        if !enabled {
            self.revocation_log.clear();
        }
    }

    /// Drains the `(client, fh)` pairs revoked in-table since the last
    /// drain. Always empty unless recording was enabled.
    pub fn take_revocations(&mut self) -> Vec<(u32, Fh3)> {
        std::mem::take(&mut self.revocation_log)
    }

    /// The policy in effect.
    pub fn config(&self) -> &DelegationConfig {
        &self.config
    }

    /// Delegations revoked server-side by lease expiry (diagnostics).
    pub fn lease_revocations(&self) -> u64 {
        self.lease_revocations
    }

    /// Registers an access by `client` to `fh` and decides the grant.
    ///
    /// Returns the grant to piggyback on the reply plus any recalls the
    /// server must perform *before* serving the request. When recalls
    /// are returned the grant is [`DelegationGrant::NonCacheable`]; the
    /// caller executes the callbacks, reports outcomes via
    /// [`DelegationTable::recall_done`], and serves the request
    /// non-cached.
    ///
    /// `requested_offset` identifies the block a read/write is after, so
    /// a partial write-back in progress can be short-circuited for just
    /// that block.
    pub fn access(
        &mut self,
        fh: Fh3,
        client: u32,
        write: bool,
        requested_offset: Option<u64>,
        now: SimTime,
    ) -> (DelegationGrant, Vec<RecallAction>) {
        let entry = self.files.entry(fh).or_default();

        // A partial write-back in progress: if the requested block is
        // still dirty at the flusher, force its submission first.
        if let Some(pending) = &entry.pending {
            if pending.client != client {
                let hit = match requested_offset {
                    Some(off) => pending.blocks.contains(&off),
                    // Metadata access: any outstanding block matters only
                    // for reads of data; attribute reads proceed.
                    None => false,
                };
                if hit {
                    let recall = RecallAction {
                        client: pending.client,
                        fh,
                        kind: DelegationKind::Write,
                        requested_offset,
                    };
                    entry.sharers.insert(client, Sharer { delegation: None, last_access: now });
                    return (DelegationGrant::NonCacheable, vec![recall]);
                }
            }
        }

        // A recall round is in flight: stay out of its way — register
        // the open but grant nothing until the round completes.
        if entry.recalling > 0 {
            entry.sharers.insert(client, Sharer { delegation: None, last_access: now });
            return (DelegationGrant::NonCacheable, Vec::new());
        }

        // Collect conflicting delegations held by other clients. A
        // conflicting holder whose renewal lease has lapsed is revoked
        // on the spot instead of recalled (lease-based revocation): no
        // recall round trip is spent on a client that stopped renewing
        // — typically one that is partitioned — so a conflicting writer
        // is blocked for at most one lease period. The lease is at
        // least as long as the holder's renewal window, so a revoked
        // holder has already stopped serving from the delegation; it
        // learns of the revocation at re-promotion, when its dirty data
        // goes through the §4.3.4 reconciliation rules.
        let lease = self.config.lease;
        let mut recalls = Vec::new();
        let mut lapsed: Vec<u32> = Vec::new();
        for (&other, sharer) in &entry.sharers {
            if other == client {
                continue;
            }
            let conflict = match sharer.delegation {
                Some(DelegationKind::Write) => Some(RecallAction {
                    client: other,
                    fh,
                    kind: DelegationKind::Write,
                    requested_offset,
                }),
                Some(DelegationKind::Read) if write => Some(RecallAction {
                    client: other,
                    fh,
                    kind: DelegationKind::Read,
                    requested_offset: None,
                }),
                _ => None,
            };
            if let Some(recall) = conflict {
                if now.saturating_since(sharer.last_access) >= lease {
                    lapsed.push(other);
                } else {
                    recalls.push(recall);
                }
            }
        }
        for other in &lapsed {
            entry.sharers.remove(other);
        }
        self.lease_revocations += lapsed.len() as u64;
        if self.log_revocations {
            // Deterministic drain order regardless of map iteration.
            lapsed.sort_unstable();
            self.revocation_log.extend(lapsed.iter().map(|&c| (c, fh)));
        }

        if !recalls.is_empty() {
            // Deterministic callback order regardless of map iteration.
            recalls.sort_unstable_by_key(|r| r.client);
            // Conflict: recall existing delegations; the file is
            // temporarily non-cacheable for the requester (§4.3.1).
            for recall in &recalls {
                if let Some(s) = entry.sharers.get_mut(&recall.client) {
                    s.delegation = None;
                }
            }
            entry.sharers.insert(client, Sharer { delegation: None, last_access: now });
            return (DelegationGrant::NonCacheable, recalls);
        }

        // Does any *other* client have the file open (speculated)?
        let expiration = self.config.expiration;
        let others_open = entry
            .sharers
            .iter()
            .any(|(&c, s)| c != client && now.saturating_since(s.last_access) < expiration);

        // Drop speculated-closed sharers without delegations.
        entry.sharers.retain(|_, s| {
            s.delegation.is_some() || now.saturating_since(s.last_access) < expiration
        });

        let grant = if write {
            if others_open {
                // Write sharing: the write proceeds through the server
                // and nothing is delegated while others hold the file
                // open.
                entry.sharers.insert(client, Sharer { delegation: None, last_access: now });
                DelegationGrant::NonCacheable
            } else {
                entry.sharers.insert(
                    client,
                    Sharer { delegation: Some(DelegationKind::Write), last_access: now },
                );
                DelegationGrant::Write
            }
        } else {
            entry
                .sharers
                .entry(client)
                .and_modify(|s| {
                    s.last_access = now;
                    if s.delegation.is_none() {
                        s.delegation = Some(DelegationKind::Read);
                    }
                })
                .or_insert(Sharer { delegation: Some(DelegationKind::Read), last_access: now });
            match entry.sharers[&client].delegation {
                Some(DelegationKind::Write) => DelegationGrant::Write,
                _ => DelegationGrant::Read,
            }
        };
        (grant, Vec::new())
    }

    /// Marks the start of a recall round for `fh`: until the matching
    /// [`DelegationTable::end_recall`], accesses to the file are
    /// answered non-cacheable and no delegations are granted.
    pub fn begin_recall(&mut self, fh: Fh3) {
        self.files.entry(fh).or_default().recalling += 1;
    }

    /// Ends a recall round started with [`DelegationTable::begin_recall`].
    pub fn end_recall(&mut self, fh: Fh3) {
        if let Some(entry) = self.files.get_mut(&fh) {
            entry.recalling = entry.recalling.saturating_sub(1);
        }
    }

    /// Reports the outcome of a recall: for write recalls, the blocks
    /// the client still holds dirty (empty = fully flushed). The
    /// delegation is considered revoked either way (§4.3.2), and the
    /// recall also closes the holder's speculated open — its next access
    /// reopens through the server.
    pub fn recall_done(&mut self, fh: Fh3, client: u32, pending_blocks: Vec<u64>) {
        let Some(entry) = self.files.get_mut(&fh) else { return };
        if pending_blocks.is_empty() {
            entry.sharers.remove(&client);
            if entry.pending.as_ref().is_some_and(|p| p.client == client) {
                entry.pending = None;
            }
        } else {
            // Keep the sharer visible while its write-back trickles.
            if let Some(s) = entry.sharers.get_mut(&client) {
                s.delegation = None;
            }
            entry.pending =
                Some(PendingWriteback { client, blocks: pending_blocks.into_iter().collect() });
        }
    }

    /// Notes a write-back write from `client` covering `offset`,
    /// clearing it from the pending list. Returns `true` if this write
    /// belongs to a pending write-back (so the caller skips conflict
    /// processing for it).
    pub fn note_writeback(&mut self, fh: Fh3, client: u32, offset: u64) -> bool {
        let Some(entry) = self.files.get_mut(&fh) else { return false };
        let Some(pending) = &mut entry.pending else { return false };
        if pending.client != client {
            return false;
        }
        pending.blocks.remove(&offset);
        if pending.blocks.is_empty() {
            entry.pending = None;
            entry.sharers.remove(&client);
        }
        true
    }

    /// The pending write-back for a file, if any.
    pub fn pending_writeback(&self, fh: Fh3) -> Option<&PendingWriteback> {
        self.files.get(&fh).and_then(|e| e.pending.as_ref())
    }

    /// The delegation `client` holds on `fh`, if any.
    pub fn held(&self, fh: Fh3, client: u32) -> Option<DelegationKind> {
        self.files.get(&fh)?.sharers.get(&client)?.delegation
    }

    /// Sweeps for speculated-closed sharers (idle ≥ expiration) that
    /// still hold delegations; returns the callbacks needed to reclaim
    /// them. Entries without sharers are dropped. Also enforces the
    /// table size bound by recalling the least recently used entries.
    pub fn sweep(&mut self, now: SimTime) -> Vec<RecallAction> {
        let expiration = self.config.expiration;
        let mut actions = Vec::new();
        for (&fh, entry) in &mut self.files {
            for (&client, sharer) in &entry.sharers {
                if now.saturating_since(sharer.last_access) >= expiration {
                    if let Some(kind) = sharer.delegation {
                        actions.push(RecallAction { client, fh, kind, requested_offset: None });
                    }
                }
            }
            entry.sharers.retain(|_, s| {
                now.saturating_since(s.last_access) < expiration || s.delegation.is_some()
            });
        }
        self.files.retain(|_, e| !e.sharers.is_empty() || e.pending.is_some() || e.recalling > 0);
        actions.sort_unstable_by_key(|a| (a.fh, a.client));

        // LRU bound on tracked files (§4.3.3): proactively recall the
        // least recently accessed entries beyond the limit.
        if self.files.len() > self.config.max_tracked_files {
            let mut by_age: Vec<(SimTime, Fh3)> = self
                .files
                .iter()
                .map(|(&fh, e)| {
                    let newest =
                        e.sharers.values().map(|s| s.last_access).max().unwrap_or(SimTime::ZERO);
                    (newest, fh)
                })
                .collect();
            by_age.sort_unstable();
            let excess = self.files.len() - self.config.max_tracked_files;
            for &(_, fh) in by_age.iter().take(excess) {
                if let Some(entry) = self.files.get(&fh) {
                    for (&client, sharer) in &entry.sharers {
                        if let Some(kind) = sharer.delegation {
                            actions.push(RecallAction { client, fh, kind, requested_offset: None });
                        }
                    }
                }
                self.files.remove(&fh);
            }
        }
        actions
    }

    /// Marks a sharer's delegation dropped after a sweep recall
    /// completed.
    pub fn sweep_done(&mut self, fh: Fh3, client: u32) {
        if let Some(entry) = self.files.get_mut(&fh) {
            entry.sharers.remove(&client);
            if entry.sharers.is_empty() && entry.pending.is_none() {
                self.files.remove(&fh);
            }
        }
    }

    /// Rebuilds state after a server restart from clients' `RECOVER`
    /// replies: each dirty file reported by a client is re-entered with
    /// a write delegation so its delayed writes stay safe.
    pub fn recover_client(&mut self, client: u32, dirty_files: &[Fh3], now: SimTime) {
        for &fh in dirty_files {
            let entry = self.files.entry(fh).or_default();
            entry.sharers.insert(
                client,
                Sharer { delegation: Some(DelegationKind::Write), last_access: now },
            );
        }
    }

    #[cfg(test)]
    fn tracked_files(&self) -> usize {
        self.files.len()
    }

    /// Total sharer entries across all tracked files (diagnostics; the
    /// per-client half of the table's cardinality).
    pub fn sharer_entries(&self) -> usize {
        self.files.values().map(|e| e.sharers.len()).sum()
    }

    /// Rough heap footprint of the table, for the scale bench's memory
    /// counter.
    pub fn approx_bytes(&self) -> usize {
        // Map-entry + FileEntry fixed overhead per file; a Sharer plus
        // its map slot per sharer; pending write-backs add their block
        // set.
        const PER_FILE: usize = 128;
        const PER_SHARER: usize = 48;
        const PER_PENDING_BLOCK: usize = 16;
        self.files
            .values()
            .map(|e| {
                PER_FILE
                    + e.sharers.len() * PER_SHARER
                    + e.pending.as_ref().map_or(0, |p| 32 + p.blocks.len() * PER_PENDING_BLOCK)
            })
            .sum()
    }

    /// `(files, sharer entries, approx bytes)` in one call, for the
    /// server's scale-stats dump (one guard acquisition per shard).
    pub fn scale_footprint(&self) -> (usize, usize, usize) {
        (self.files.len(), self.sharer_entries(), self.approx_bytes())
    }

    /// A canonical dump of the table, sorted by file handle, for
    /// diagnostics and the protocol model checker. Access times are
    /// deliberately omitted so snapshots of behaviourally-equal states
    /// compare equal.
    pub fn snapshot(&self) -> Vec<FileSnapshot> {
        let mut out: Vec<FileSnapshot> = self
            .files
            .iter()
            .map(|(&fh, e)| {
                let mut sharers: Vec<(u32, Option<DelegationKind>)> =
                    e.sharers.iter().map(|(&c, s)| (c, s.delegation)).collect();
                sharers.sort_unstable();
                FileSnapshot {
                    fh,
                    sharers,
                    pending: e
                        .pending
                        .as_ref()
                        .map(|p| (p.client, p.blocks.iter().copied().collect())),
                    recalling: e.recalling,
                }
            })
            .collect();
        out.sort_unstable_by_key(|s| s.fh);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn table() -> DelegationTable {
        DelegationTable::new(DelegationConfig::default())
    }

    fn fh(n: u64) -> Fh3 {
        Fh3::from_fileid(n)
    }

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn first_reader_gets_read_delegation() {
        let mut t = table();
        let (grant, recalls) = t.access(fh(1), 1, false, None, T0);
        assert_eq!(grant, DelegationGrant::Read);
        assert!(recalls.is_empty());
        assert_eq!(t.held(fh(1), 1), Some(DelegationKind::Read));
    }

    #[test]
    fn multiple_readers_share_delegations() {
        let mut t = table();
        t.access(fh(1), 1, false, None, T0);
        let (grant, recalls) = t.access(fh(1), 2, false, None, T0);
        assert_eq!(grant, DelegationGrant::Read);
        assert!(recalls.is_empty());
        assert_eq!(t.held(fh(1), 1), Some(DelegationKind::Read));
        assert_eq!(t.held(fh(1), 2), Some(DelegationKind::Read));
    }

    #[test]
    fn sole_writer_gets_write_delegation() {
        let mut t = table();
        let (grant, _) = t.access(fh(1), 1, true, None, T0);
        assert_eq!(grant, DelegationGrant::Write);
        // Upgrades from read are allowed when alone.
        let mut t = table();
        t.access(fh(2), 1, false, None, T0);
        let (grant, recalls) = t.access(fh(2), 1, true, None, T0);
        assert_eq!(grant, DelegationGrant::Write);
        assert!(recalls.is_empty());
    }

    #[test]
    fn writer_conflicts_with_reader_recalls_and_uncaches() {
        let mut t = table();
        t.access(fh(1), 1, false, None, T0);
        let (grant, recalls) = t.access(fh(1), 2, true, None, T0);
        assert_eq!(grant, DelegationGrant::NonCacheable);
        assert_eq!(
            recalls,
            vec![RecallAction {
                client: 1,
                fh: fh(1),
                kind: DelegationKind::Read,
                requested_offset: None
            }]
        );
        assert_eq!(t.held(fh(1), 1), None, "read delegation revoked");
    }

    #[test]
    fn reader_conflicts_with_writer_recalls_write() {
        let mut t = table();
        t.access(fh(1), 1, true, None, T0);
        let (grant, recalls) = t.access(fh(1), 2, false, Some(32768), T0);
        assert_eq!(grant, DelegationGrant::NonCacheable);
        assert_eq!(recalls.len(), 1);
        assert_eq!(recalls[0].kind, DelegationKind::Write);
        assert_eq!(recalls[0].requested_offset, Some(32768));
    }

    #[test]
    fn read_write_ping_pong_uses_callbacks() {
        let mut t = table();
        t.access(fh(1), 1, false, None, T0);
        let (g, recalls) = t.access(fh(1), 2, true, None, T0); // conflict, recalls
        assert_eq!(g, DelegationGrant::NonCacheable);
        assert_eq!(recalls.len(), 1);
        t.recall_done(fh(1), 1, Vec::new());
        // The reader comes back: reads conflict only with *write
        // delegations* (the writer holds none), so it is re-delegated —
        // the writer's next write will recall it again.
        let (grant, recalls) = t.access(fh(1), 1, false, None, T0 + Duration::from_secs(1));
        assert_eq!(grant, DelegationGrant::Read);
        assert!(recalls.is_empty());
        let (grant, recalls) = t.access(fh(1), 2, true, None, T0 + Duration::from_secs(2));
        assert_eq!(grant, DelegationGrant::NonCacheable);
        assert_eq!(recalls.len(), 1, "next write recalls the fresh read delegation");
    }

    #[test]
    fn write_while_others_open_gets_no_delegation() {
        let mut t = table();
        t.access(fh(1), 1, false, None, T0);
        t.access(fh(1), 2, true, None, T0);
        t.recall_done(fh(1), 1, Vec::new());
        // Client 1 reopens (no delegation recalls needed after its next
        // read is granted and then dropped by a write)...
        t.access(fh(1), 1, false, None, T0 + Duration::from_secs(1));
        let (_, recalls) = t.access(fh(1), 2, true, None, T0 + Duration::from_secs(2));
        for r in &recalls {
            t.recall_done(r.fh, r.client, Vec::new());
        }
        // ...but while client 2 is speculatively open, client 1 cannot
        // take a *write* delegation.
        let (grant, recalls) = t.access(fh(1), 1, true, None, T0 + Duration::from_secs(3));
        assert!(recalls.is_empty());
        assert_eq!(grant, DelegationGrant::NonCacheable);
    }

    #[test]
    fn cacheability_returns_when_sharing_ends() {
        let mut t = table();
        t.access(fh(1), 1, false, None, T0);
        t.access(fh(1), 2, true, None, T0);
        t.recall_done(fh(1), 1, Vec::new());
        // Long after client 1's speculated close...
        let later = T0 + Duration::from_secs(700);
        let (grant, _) = t.access(fh(1), 2, true, None, later);
        assert_eq!(grant, DelegationGrant::Write, "sole opener regains delegation");
    }

    #[test]
    fn partial_writeback_tracks_blocks() {
        let mut t = table();
        t.access(fh(1), 1, true, None, T0);
        let (_, recalls) = t.access(fh(1), 2, false, Some(0), T0);
        assert_eq!(recalls.len(), 1);
        // Holder answers with a block list: delegation revoked, blocks tracked.
        t.recall_done(fh(1), 1, vec![0, 32768, 65536]);
        assert_eq!(t.pending_writeback(fh(1)).unwrap().blocks.len(), 3);
        // Write-back writes drain the list.
        assert!(t.note_writeback(fh(1), 1, 0));
        assert!(t.note_writeback(fh(1), 1, 32768));
        assert!(t.note_writeback(fh(1), 1, 65536));
        assert!(t.pending_writeback(fh(1)).is_none());
    }

    #[test]
    fn access_to_pending_block_forces_submission() {
        let mut t = table();
        t.access(fh(1), 1, true, None, T0);
        let (_, recalls) = t.access(fh(1), 2, false, Some(0), T0);
        t.recall_done(fh(1), 1, vec![32768, 65536]);
        assert_eq!(recalls.len(), 1);
        // Client 3 reads a still-dirty block: targeted recall.
        let (grant, recalls) = t.access(fh(1), 3, false, Some(65536), T0);
        assert_eq!(grant, DelegationGrant::NonCacheable);
        assert_eq!(recalls.len(), 1);
        assert_eq!(recalls[0].requested_offset, Some(65536));
        // A clean block does not.
        let (_, recalls) = t.access(fh(1), 3, false, Some(0), T0);
        assert!(recalls.is_empty());
    }

    #[test]
    fn writeback_from_other_client_is_not_confused() {
        let mut t = table();
        t.access(fh(1), 1, true, None, T0);
        t.access(fh(1), 2, false, Some(0), T0);
        t.recall_done(fh(1), 1, vec![0]);
        assert!(!t.note_writeback(fh(1), 2, 0), "only the flusher's writes count");
    }

    #[test]
    fn sweep_recalls_expired_delegations() {
        let mut t = table();
        t.access(fh(1), 1, false, None, T0);
        let late = T0 + Duration::from_secs(601);
        let actions = t.sweep(late);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].kind, DelegationKind::Read);
        t.sweep_done(fh(1), 1);
        assert_eq!(t.tracked_files(), 0);
    }

    #[test]
    fn sweep_keeps_active_sharers() {
        let mut t = table();
        t.access(fh(1), 1, false, None, T0);
        let actions = t.sweep(T0 + Duration::from_secs(10));
        assert!(actions.is_empty());
        assert_eq!(t.tracked_files(), 1);
    }

    #[test]
    fn renewal_extends_delegation() {
        let mut t = table();
        t.access(fh(1), 1, false, None, T0);
        // Renewed before expiration.
        t.access(fh(1), 1, false, None, T0 + Duration::from_secs(480));
        let actions = t.sweep(T0 + Duration::from_secs(700));
        assert!(actions.is_empty(), "renewed at 480s, expires at 1080s");
    }

    #[test]
    fn lru_eviction_bounds_state() {
        let mut t = DelegationTable::new(DelegationConfig {
            max_tracked_files: 4,
            ..DelegationConfig::default()
        });
        for i in 0..8 {
            t.access(fh(i), 1, false, None, T0 + Duration::from_secs(i));
        }
        let actions = t.sweep(T0 + Duration::from_secs(10));
        assert_eq!(t.tracked_files(), 4);
        assert_eq!(actions.len(), 4, "evicted entries are recalled first");
    }

    #[test]
    fn lease_expired_holder_revoked_without_recall() {
        let mut t = table();
        t.access(fh(1), 1, true, None, T0);
        assert_eq!(t.held(fh(1), 1), Some(DelegationKind::Write));
        // 550 s later the lease (540 s) has lapsed: a conflicting writer
        // proceeds immediately, no recall round trip, holder revoked.
        let late = T0 + Duration::from_secs(550);
        let (grant, recalls) = t.access(fh(1), 2, true, None, late);
        assert!(recalls.is_empty(), "lease lapsed: no recall round trip");
        assert_eq!(grant, DelegationGrant::Write, "writer unblocks within one lease period");
        assert_eq!(t.held(fh(1), 1), None, "stale delegation revoked server-side");
        assert_eq!(t.lease_revocations(), 1);
    }

    #[test]
    fn fresh_holder_still_recalled_not_lease_revoked() {
        let mut t = table();
        t.access(fh(1), 1, true, None, T0);
        // Well within the lease: the ordinary recall path applies.
        let (grant, recalls) = t.access(fh(1), 2, true, None, T0 + Duration::from_secs(100));
        assert_eq!(grant, DelegationGrant::NonCacheable);
        assert_eq!(recalls.len(), 1);
        assert_eq!(t.lease_revocations(), 0);
    }

    #[test]
    fn lease_revocation_only_hits_conflicting_holders() {
        let mut t = table();
        t.access(fh(1), 1, false, None, T0);
        // Another READ long past the holder's lease does not conflict
        // with a read delegation, so nothing is revoked.
        let late = T0 + Duration::from_secs(550);
        let (grant, recalls) = t.access(fh(1), 2, false, None, late);
        assert_eq!(grant, DelegationGrant::Read);
        assert!(recalls.is_empty());
        assert_eq!(t.lease_revocations(), 0);
        assert_eq!(t.held(fh(1), 1), Some(DelegationKind::Read));
    }

    #[test]
    fn recover_rebuilds_write_state() {
        let mut t = table();
        t.recover_client(3, &[fh(10), fh(11)], T0);
        assert_eq!(t.held(fh(10), 3), Some(DelegationKind::Write));
        assert_eq!(t.tracked_files(), 2);
    }
}
