//! The persistent content-addressed block store.
//!
//! On-disk layout over one [`VirtualDisk`] (one per proxy machine):
//!
//! ```text
//! wal.log                      append-only redo log (framed XDR records)
//! index.snap                   checkpoint snapshot of the extent index
//! data/<2hex>/<16hex>          per-handle sparse file (dirty bytes and
//!                              bytes cleaned in place after write-back),
//!                              keyed by the content hash of the Fh3
//! chunks/<2hex>/<16hex>-<8hex> refcounted clean chunks, keyed by
//!                              (content hash, length) — duplicate
//!                              blocks across files are stored once
//! ```
//!
//! **Write-ahead log.** Every mutation appends one framed record
//! (`[u32 len][XDR payload][u64 hash]`). `WriteDirty` records carry the
//! written bytes inline — the WAL is a *redo* log, so replay never
//! depends on the data file having survived for dirty bytes. Clean
//! inserts reference chunk files by content hash instead of inlining
//! (clean data is refetchable; dirty data is not).
//!
//! **Recovery.** On open (and after [`BlockStore::crash_reopen`]) the
//! store loads `index.snap` if its trailing checksum verifies, then
//! replays `wal.log` record by record. A frame extending past the end
//! of the log is a *torn tail* — replay stops and truncates there, so
//! no torn dirty record is ever applied. An in-bounds frame that fails
//! verification — a flipped bit in its payload or checksum, an
//! undecodable record, or an `InsertClean` whose chunk is absent or
//! fails its content hash — is *interior corruption*: the frame is
//! skipped and counted (`wal_quarantined_frames`) and replay continues,
//! so one rotted bit can never silently truncate away the durable
//! frames behind it. (A flip inside a frame's *length prefix* is
//! indistinguishable from a torn tail and still truncates — the length
//! is what frame navigation stands on.)
//!
//! **Integrity.** Every stored unit carries a checksum that is verified
//! on every read. Content chunks are self-addressed: the chunk is
//! hashed whole and compared against its id. Bytes in per-handle data
//! files (dirty extents, raw collision fallbacks, and ranges cleaned in
//! place) carry per-block hash records over `block_size`-aligned spans
//! of the data file, zero-padded to full blocks, maintained by every
//! data-file write: partially covered blocks are pre-verified first (a
//! previously corrupted byte is never laundered into a fresh sum) and
//! the new sum hashes the *intended* content (a torn write fails its
//! next verification). A mismatch **quarantines** the extent — it is
//! dropped from the index instead of served, counted, and reported via
//! [`BlockStore::take_integrity_events`]: clean extents become cache
//! misses the origin/peer read path repairs transparently; dirty
//! extents are explicit data loss the client must surface. A scrub
//! sweep ([`BlockStore::scrub_step`]) verifies content ahead of demand
//! behind a persistent cursor. Verification reads are cost-free in the
//! simulation (modeled as piggybacked on the data transfer they guard);
//! only the served bytes are charged, as before.
//!
//! **Chunking.** A clean insert is split at absolute `block_size`
//! boundaries — unless the file's last known size is at or below
//! `file_threshold`, in which case the whole insert is one chunk
//! (full-file mode: small files dedup and restore as a unit, the
//! MosaicFS split). A chunk whose `(hash, len)` already exists is not
//! rewritten: its refcount rises and `dedup_hits` is counted, after a
//! byte-compare guards against hash collisions (a colliding insert
//! falls back to a raw WAL record). Refcounts are not persisted; they
//! are recomputed by replay. Dead chunk files are garbage-collected at
//! checkpoint time, never between checkpoints — earlier WAL records may
//! still reference them.
//!
//! **Checkpoint.** Every `checkpoint_every` records the index is
//! snapshotted (`index.snap.new` → sync → rename → sync), the WAL is
//! truncated, and unreferenced chunk files are removed.
//!
//! **Eviction.** Clean extents of least-recently-used files are dropped
//! (with an `Evict` record) until within capacity; dirty bytes are
//! never evicted. The LRU clock is volatile: after a restart, recency
//! is WAL replay order.
//!
//! Lock order: `index` before `wal`, both ranked in the analysis
//! crate's `LOCK_ORDER` table; neither may be held across a WAN send.

use super::{blocks_touched, BlockStore, IntegrityEvent, StoreStats};
use gvfs_netsim::disk::{Slices, VirtualDisk};
use gvfs_nfs3::{Fh3, NfsTime3};
use gvfs_xdr::{Decoder, Encoder, Xdr, XdrError};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

const WAL_PATH: &str = "wal.log";
const SNAP_PATH: &str = "index.snap";
const SNAP_NEW_PATH: &str = "index.snap.new";
const SNAP_MAGIC: u32 = 0x6776_7353; // "gvsS"
/// Version 2 added per-block data-file checksums; version 3 moved every
/// checksum from FNV-1a to [`content_hash`].
const SNAP_VERSION: u32 = 3;

/// Tuning for a [`PersistentStore`].
#[derive(Debug, Clone, Copy)]
pub struct PersistConfig {
    /// Cached-content byte budget (clean data beyond it is evicted).
    pub capacity: usize,
    /// Chunking granularity for clean data, normally the transfer size.
    pub block_size: u64,
    /// Files whose known size is at or below this are stored as one
    /// whole-file chunk per insert instead of per-block chunks.
    pub file_threshold: u64,
    /// WAL records between checkpoints (snapshot + WAL truncate + GC).
    pub checkpoint_every: usize,
    /// WAL records between implicit durability barriers.
    pub sync_every: usize,
    /// Verify every stored byte on read and let the scrub sweep run.
    /// Only the chaos self-test (`--break-scrub`) turns it off: corrupt
    /// bytes are then served as-is, which the chaos oracles and the
    /// analysis invariant must convict.
    pub verify: bool,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig {
            capacity: 4 << 30,
            block_size: crate::proxy::BLOCK_SIZE,
            file_threshold: 64 * 1024,
            checkpoint_every: 8192,
            sync_every: 64,
            verify: true,
        }
    }
}

/// Content address of a clean chunk: ([`content_hash`], length).
type ChunkId = (u64, u32);

const PRIME64_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME64_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME64_3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME64_4: u64 = 0x85eb_ca77_c2b2_ae63;
const PRIME64_5: u64 = 0x27d4_eb2f_1656_67c5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME64_2)).rotate_left(31).wrapping_mul(PRIME64_1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane)).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4)
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

/// The lanes before the first stripe.
const LANES0: [u64; 4] =
    [PRIME64_1.wrapping_add(PRIME64_2), PRIME64_2, 0, PRIME64_1.wrapping_neg()];

/// Folds one 32-byte stripe into the four lanes.
#[inline]
fn xxh_stripe(lanes: &mut [u64; 4], stripe: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
        *lane = xxh_round(*lane, le64(word));
    }
}

/// The hash of `total` bytes: `lanes` after their whole stripes (unused
/// when `total < 32`), then the `tail` that follows them.
fn xxh_finish(lanes: &[u64; 4], total: u64, mut tail: &[u8]) -> u64 {
    let mut h = if total >= 32 {
        let h = lanes[0]
            .rotate_left(1)
            .wrapping_add(lanes[1].rotate_left(7))
            .wrapping_add(lanes[2].rotate_left(12))
            .wrapping_add(lanes[3].rotate_left(18));
        lanes.iter().fold(h, |h, &lane| xxh_merge(h, lane))
    } else {
        PRIME64_5
    };
    h = h.wrapping_add(total);
    while tail.len() >= 8 {
        h = (h ^ xxh_round(0, le64(tail)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        h = (h ^ u64::from(word).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(PRIME64_5)).rotate_left(11).wrapping_mul(PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

/// XXH64 with seed 0: the content hash, record checksum and handle shard
/// function (stable across processes, unlike `DefaultHasher`). It reads
/// eight bytes at a time, in four independent lanes over each 32-byte
/// stripe. Also the end-to-end integrity hash on `PEERREAD` transfers,
/// so a peer-served block is checked with the same machinery that
/// checks the on-disk chunks it came from. [`ContentHasher`] is its
/// streaming form.
#[must_use]
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut lanes = LANES0;
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        xxh_stripe(&mut lanes, stripe);
    }
    xxh_finish(&lanes, bytes.len() as u64, stripes.remainder())
}

/// [`content_hash`] of bytes fed in pieces: the pieces of a disk read
/// that crosses a page boundary, or a block and its zero padding,
/// hashed without gathering them into one buffer.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    lanes: [u64; 4],
    /// The bytes of the stripe in progress.
    stripe: [u8; 32],
    buffered: usize,
    total: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher { lanes: LANES0, stripe: [0; 32], buffered: 0, total: 0 }
    }
}

impl ContentHasher {
    /// A hasher that has seen no bytes.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds `bytes`.
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.buffered > 0 {
            let n = bytes.len().min(32 - self.buffered);
            self.stripe[self.buffered..self.buffered + n].copy_from_slice(&bytes[..n]);
            self.buffered += n;
            bytes = &bytes[n..];
            if self.buffered < 32 {
                return;
            }
            xxh_stripe(&mut self.lanes, &self.stripe);
            self.buffered = 0;
        }
        let mut stripes = bytes.chunks_exact(32);
        for stripe in &mut stripes {
            xxh_stripe(&mut self.lanes, stripe);
        }
        let rest = stripes.remainder();
        self.stripe[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Feeds every piece of `bytes`.
    pub fn write_slices(&mut self, bytes: Slices<'_>) {
        for piece in bytes.iter() {
            self.write(piece);
        }
    }

    /// Feeds `n` zero bytes.
    pub fn write_zeros(&mut self, mut n: usize) {
        const ZEROS: [u8; 256] = [0; 256];
        while n > 0 {
            let k = n.min(ZEROS.len());
            self.write(&ZEROS[..k]);
            n -= k;
        }
    }

    /// The hash of everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        xxh_finish(&self.lanes, self.total, &self.stripe[..self.buffered])
    }
}

/// [`content_hash`] of the pieces of `bytes`, zero-padded to `pad_to`
/// bytes if they are shorter.
fn slices_hash(bytes: Slices<'_>, pad_to: usize) -> u64 {
    let mut h = ContentHasher::new();
    h.write_slices(bytes);
    h.write_zeros(pad_to.saturating_sub(bytes.len()));
    h.finish()
}

fn data_path(fh: Fh3) -> String {
    let h = content_hash(&fh.fileid().to_be_bytes());
    format!("data/{:02x}/{:016x}", h & 0xff, h)
}

fn chunk_path(id: ChunkId) -> String {
    format!("chunks/{:02x}/{:016x}-{:08x}", id.0 & 0xff, id.0, id.1)
}

fn parse_chunk_path(path: &str) -> Option<ChunkId> {
    let name = path.rsplit('/').next()?;
    let (h, l) = name.split_once('-')?;
    Some((u64::from_str_radix(h, 16).ok()?, u32::from_str_radix(l, 16).ok()?))
}

/// Where an extent's bytes live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// Clean bytes inside a content chunk, starting `off` bytes in.
    Chunk { id: ChunkId, off: u32 },
    /// Bytes in the handle's own data file at the extent's absolute
    /// offset; dirty, or cleaned in place after write-back.
    Data { dirty: bool },
}

#[derive(Debug, Clone, Copy)]
struct Ext {
    len: usize,
    src: Src,
}

impl Ext {
    fn dirty(&self) -> bool {
        matches!(self.src, Src::Data { dirty: true })
    }

    /// Splits at `at` bytes in, returning the tail.
    fn split_off(&mut self, at: usize) -> Ext {
        let tail_len = self.len - at;
        self.len = at;
        let tail_src = match self.src {
            Src::Chunk { id, off } => {
                Src::Chunk { id, off: off + u32::try_from(at).expect("extent fits u32") }
            }
            Src::Data { dirty } => Src::Data { dirty },
        };
        Ext { len: tail_len, src: tail_src }
    }
}

#[derive(Debug, Default)]
struct Entry {
    tag: Option<NfsTime3>,
    size_hint: Option<u64>,
    extents: BTreeMap<u64, Ext>,
    /// [`content_hash`] of each `block_size`-aligned span of the handle's
    /// data file (zero-padded to a full block), for every block any data
    /// extent touches. Maintained by `write_data`, verified on read.
    data_sums: BTreeMap<u64, u64>,
}

impl Entry {
    fn bytes(&self) -> usize {
        self.extents.values().map(|e| e.len).sum()
    }
}

/// One clean segment of an `InsertClean` record.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SegRec {
    /// A refcounted content chunk.
    Chunk { id: ChunkId },
    /// Raw bytes (hash-collision fallback), carried in the record and
    /// stored in the handle's data file.
    Raw { bytes: Vec<u8> },
}

impl SegRec {
    fn len(&self) -> usize {
        match self {
            SegRec::Chunk { id } => id.1 as usize,
            SegRec::Raw { bytes } => bytes.len(),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum WalRecord {
    Retag { fh: Fh3, mtime: NfsTime3, drop: bool },
    InsertClean { fh: Fh3, offset: u64, segs: Vec<SegRec> },
    WriteDirty { fh: Fh3, offset: u64, bytes: Vec<u8> },
    CleanRange { fh: Fh3, offset: u64, len: u64 },
    DropClean { fh: Fh3 },
    Evict { fh: Fh3 },
    Forget { fh: Fh3 },
}

/// Encodes a [`WalRecord::WriteDirty`] from borrowed bytes.
fn encode_write_dirty(
    enc: &mut Encoder,
    fh: Fh3,
    offset: u64,
    bytes: &[u8],
) -> Result<(), XdrError> {
    enc.put_u32(3);
    enc.put_u64(fh.fileid());
    enc.put_u64(offset);
    enc.put_opaque(bytes)
}

impl Xdr for WalRecord {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        match self {
            WalRecord::Retag { fh, mtime, drop } => {
                enc.put_u32(1);
                enc.put_u64(fh.fileid());
                mtime.encode(enc)?;
                enc.put_bool(*drop);
            }
            WalRecord::InsertClean { fh, offset, segs } => {
                enc.put_u32(2);
                enc.put_u64(fh.fileid());
                enc.put_u64(*offset);
                enc.put_u32(u32::try_from(segs.len()).map_err(|_| XdrError::LengthOverflow)?);
                for seg in segs {
                    match seg {
                        SegRec::Chunk { id } => {
                            enc.put_u32(0);
                            enc.put_u64(id.0);
                            enc.put_u32(id.1);
                        }
                        SegRec::Raw { bytes } => {
                            enc.put_u32(1);
                            enc.put_opaque(bytes)?;
                        }
                    }
                }
            }
            WalRecord::WriteDirty { fh, offset, bytes } => {
                encode_write_dirty(enc, *fh, *offset, bytes)?;
            }
            WalRecord::CleanRange { fh, offset, len } => {
                enc.put_u32(4);
                enc.put_u64(fh.fileid());
                enc.put_u64(*offset);
                enc.put_u64(*len);
            }
            WalRecord::DropClean { fh } => {
                enc.put_u32(5);
                enc.put_u64(fh.fileid());
            }
            WalRecord::Evict { fh } => {
                enc.put_u32(6);
                enc.put_u64(fh.fileid());
            }
            WalRecord::Forget { fh } => {
                enc.put_u32(7);
                enc.put_u64(fh.fileid());
            }
        }
        Ok(())
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let disc = dec.get_u32()?;
        let fh = Fh3::from_fileid(dec.get_u64()?);
        Ok(match disc {
            1 => WalRecord::Retag { fh, mtime: NfsTime3::decode(dec)?, drop: dec.get_bool()? },
            2 => {
                let offset = dec.get_u64()?;
                let n = dec.get_u32()?;
                let mut segs = Vec::new();
                for _ in 0..n {
                    segs.push(match dec.get_u32()? {
                        0 => SegRec::Chunk { id: (dec.get_u64()?, dec.get_u32()?) },
                        1 => SegRec::Raw { bytes: dec.get_opaque()? },
                        other => {
                            return Err(XdrError::InvalidDiscriminant {
                                type_name: "SegRec",
                                value: other,
                            })
                        }
                    });
                }
                WalRecord::InsertClean { fh, offset, segs }
            }
            3 => WalRecord::WriteDirty { fh, offset: dec.get_u64()?, bytes: dec.get_opaque()? },
            4 => WalRecord::CleanRange { fh, offset: dec.get_u64()?, len: dec.get_u64()? },
            5 => WalRecord::DropClean { fh },
            6 => WalRecord::Evict { fh },
            7 => WalRecord::Forget { fh },
            other => {
                return Err(XdrError::InvalidDiscriminant { type_name: "WalRecord", value: other })
            }
        })
    }
}

#[derive(Debug, Default)]
struct Idx {
    files: HashMap<Fh3, Entry>,
    chunk_refs: HashMap<ChunkId, u32>,
    /// Chunks whose refcount hit zero; files removed at checkpoint.
    dead_chunks: HashSet<ChunkId>,
    lru: BTreeMap<u64, Fh3>,
    lru_seq: HashMap<Fh3, u64>,
    next_seq: u64,
    used: usize,
    evictions: u64,
    dedup_hits: u64,
    warm_blocks: u64,
    integrity_failures: u64,
    quarantined_blocks: u64,
    wal_quarantined: u64,
    events: Vec<IntegrityEvent>,
    scrub_cursor: (u64, u64),
    replaying: bool,
}

impl Idx {
    fn touch(&mut self, fh: Fh3) {
        if let Some(old) = self.lru_seq.remove(&fh) {
            self.lru.remove(&old);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.lru.insert(seq, fh);
        self.lru_seq.insert(fh, seq);
    }

    fn add_ref(&mut self, id: ChunkId) {
        *self.chunk_refs.entry(id).or_insert(0) += 1;
        self.dead_chunks.remove(&id);
    }

    fn drop_ref(&mut self, id: ChunkId) {
        if let Some(rc) = self.chunk_refs.get_mut(&id) {
            *rc -= 1;
            if *rc == 0 {
                self.chunk_refs.remove(&id);
                self.dead_chunks.insert(id);
            }
        }
    }

    fn insert_ext(&mut self, fh: Fh3, offset: u64, ext: Ext) {
        if ext.len == 0 {
            return;
        }
        if let Src::Chunk { id, .. } = ext.src {
            self.add_ref(id);
        }
        self.files.entry(fh).or_default().extents.insert(offset, ext);
    }

    /// Removes every extent overlapping `[start, end)`, reinserting the
    /// parts outside the range and returning the *dirty* sub-ranges
    /// inside it (whose data-file bytes are untouched).
    fn remove_overlaps(&mut self, fh: Fh3, start: u64, end: u64) -> Vec<(u64, usize)> {
        let Some(entry) = self.files.get_mut(&fh) else { return Vec::new() };
        let overlapping: Vec<u64> = entry
            .extents
            .range(..end)
            .filter(|(s, e)| *s + e.len as u64 > start)
            .map(|(k, _)| *k)
            .collect();
        let mut dirty_kept = Vec::new();
        let mut reinsert = Vec::new();
        let mut derefs = Vec::new();
        for key in overlapping {
            let mut ext = entry.extents.remove(&key).expect("listed key");
            if let Src::Chunk { id, .. } = ext.src {
                derefs.push(id);
            }
            let ext_end = key + ext.len as u64;
            let mut seg_start = key;
            if key < start {
                let tail = ext.split_off((start - key) as usize);
                reinsert.push((key, ext));
                ext = tail;
                seg_start = start;
            }
            if ext_end > end {
                let tail = ext.split_off(ext.len - (ext_end - end) as usize);
                reinsert.push((end, tail));
            }
            if ext.dirty() {
                dirty_kept.push((seg_start, ext.len));
            }
        }
        for (k, e) in reinsert {
            self.insert_ext(fh, k, e);
        }
        for id in derefs {
            self.drop_ref(id);
        }
        dirty_kept.sort_unstable();
        dirty_kept
    }

    /// Merges adjacent extents with compatible sources, mirroring
    /// `FileCache::coalesce` so dirty-range tilings agree exactly.
    fn coalesce(&mut self, fh: Fh3) {
        let Some(entry) = self.files.get_mut(&fh) else { return };
        let keys: Vec<u64> = entry.extents.keys().copied().collect();
        let mut derefs = Vec::new();
        let mut prev: Option<u64> = None;
        for key in keys {
            if let Some(p) = prev {
                let prev_ext = entry.extents[&p];
                let cur = entry.extents[&key];
                let adjacent = p + prev_ext.len as u64 == key;
                let merge = adjacent
                    && match (prev_ext.src, cur.src) {
                        (Src::Data { dirty: a }, Src::Data { dirty: b }) => a == b,
                        (Src::Chunk { id: a, off: ao }, Src::Chunk { id: b, off: bo }) => {
                            a == b && ao as usize + prev_ext.len == bo as usize
                        }
                        _ => false,
                    };
                if merge {
                    let ext = entry.extents.remove(&key).expect("key");
                    if let Src::Chunk { id, .. } = ext.src {
                        derefs.push(id);
                    }
                    entry.extents.get_mut(&p).expect("prev").len += ext.len;
                    continue;
                }
            }
            prev = Some(key);
        }
        for id in derefs {
            self.drop_ref(id);
        }
    }

    fn recount_used(&mut self, fh: Fh3, before: usize) {
        let after = self.files.get(&fh).map_or(0, Entry::bytes);
        self.used = self.used + after - before;
    }

    fn entry_bytes(&self, fh: Fh3) -> usize {
        self.files.get(&fh).map_or(0, Entry::bytes)
    }

    fn apply_insert_clean(&mut self, fh: Fh3, offset: u64, segs: &[SegRec]) {
        let total: u64 = segs.iter().map(|s| s.len() as u64).sum();
        if total == 0 {
            return;
        }
        let before = self.entry_bytes(fh);
        let end = offset + total;
        let dirty_kept = self.remove_overlaps(fh, offset, end);
        // Insert the incoming clean segments, skipping dirty sub-ranges.
        let mut seg_start = offset;
        for seg in segs {
            let seg_len = seg.len() as u64;
            let seg_end = seg_start + seg_len;
            // Uncovered pieces of [seg_start, seg_end) w.r.t. dirty_kept.
            let mut pos = seg_start;
            for &(d_off, d_len) in &dirty_kept {
                let d_end = d_off + d_len as u64;
                if d_end <= pos || d_off >= seg_end {
                    continue;
                }
                if d_off > pos {
                    self.insert_clean_piece(fh, seg, seg_start, pos, (d_off - pos) as usize);
                }
                pos = d_end.min(seg_end);
            }
            if pos < seg_end {
                self.insert_clean_piece(fh, seg, seg_start, pos, (seg_end - pos) as usize);
            }
            seg_start = seg_end;
        }
        for (d_off, d_len) in dirty_kept {
            self.insert_ext(fh, d_off, Ext { len: d_len, src: Src::Data { dirty: true } });
        }
        self.coalesce(fh);
        self.recount_used(fh, before);
    }

    fn insert_clean_piece(&mut self, fh: Fh3, seg: &SegRec, seg_start: u64, at: u64, len: usize) {
        let src = match seg {
            SegRec::Chunk { id } => Src::Chunk {
                id: *id,
                off: u32::try_from(at - seg_start).expect("chunk offset fits u32"),
            },
            SegRec::Raw { .. } => Src::Data { dirty: false },
        };
        self.insert_ext(fh, at, Ext { len, src });
    }

    fn apply_write_dirty(&mut self, fh: Fh3, offset: u64, len: usize) {
        if len == 0 {
            return;
        }
        let before = self.entry_bytes(fh);
        let end = offset + len as u64;
        self.remove_overlaps(fh, offset, end);
        self.insert_ext(fh, offset, Ext { len, src: Src::Data { dirty: true } });
        self.coalesce(fh);
        self.recount_used(fh, before);
    }

    fn apply_clean_range(&mut self, fh: Fh3, offset: u64, len: u64) {
        let Some(entry) = self.files.get_mut(&fh) else { return };
        let end = offset + len;
        let overlapping: Vec<u64> = entry
            .extents
            .range(..end)
            .filter(|(s, e)| e.dirty() && *s + e.len as u64 > offset)
            .map(|(k, _)| *k)
            .collect();
        for key in overlapping {
            let mut ext = entry.extents.remove(&key).expect("listed key");
            let ext_end = key + ext.len as u64;
            let mut seg_start = key;
            if key < offset {
                let tail = ext.split_off((offset - key) as usize);
                entry.extents.insert(key, ext);
                ext = tail;
                seg_start = offset;
            }
            if ext_end > end {
                let tail = ext.split_off(ext.len - (ext_end - end) as usize);
                entry.extents.insert(end, tail);
            }
            ext.src = Src::Data { dirty: false };
            entry.extents.insert(seg_start, ext);
        }
        self.coalesce(fh);
    }

    fn apply_drop_clean(&mut self, fh: Fh3) {
        let Some(entry) = self.files.get_mut(&fh) else { return };
        let before = entry.bytes();
        let clean: Vec<u64> =
            entry.extents.iter().filter(|(_, e)| !e.dirty()).map(|(k, _)| *k).collect();
        let mut derefs = Vec::new();
        for key in clean {
            if let Some(ext) = entry.extents.remove(&key) {
                if let Src::Chunk { id, .. } = ext.src {
                    derefs.push(id);
                }
            }
        }
        for id in derefs {
            self.drop_ref(id);
        }
        self.recount_used(fh, before);
    }

    fn apply_forget(&mut self, fh: Fh3) {
        let before = self.entry_bytes(fh);
        if let Some(entry) = self.files.remove(&fh) {
            let ids: Vec<ChunkId> = entry
                .extents
                .values()
                .filter_map(|e| match e.src {
                    Src::Chunk { id, .. } => Some(id),
                    Src::Data { .. } => None,
                })
                .collect();
            for id in ids {
                self.drop_ref(id);
            }
        }
        if let Some(seq) = self.lru_seq.remove(&fh) {
            self.lru.remove(&seq);
        }
        self.used -= before;
    }

    fn apply_record(&mut self, rec: &WalRecord) {
        match rec {
            WalRecord::Retag { fh, mtime, drop } => {
                if *drop {
                    self.apply_drop_clean(*fh);
                }
                self.files.entry(*fh).or_default().tag = Some(*mtime);
            }
            WalRecord::InsertClean { fh, offset, segs } => {
                self.apply_insert_clean(*fh, *offset, segs);
                self.touch(*fh);
            }
            WalRecord::WriteDirty { fh, offset, bytes } => {
                self.apply_write_dirty(*fh, *offset, bytes.len());
                self.touch(*fh);
            }
            WalRecord::CleanRange { fh, offset, len } => self.apply_clean_range(*fh, *offset, *len),
            WalRecord::DropClean { fh } | WalRecord::Evict { fh } => self.apply_drop_clean(*fh),
            WalRecord::Forget { fh } => self.apply_forget(*fh),
        }
    }
}

#[derive(Debug, Default)]
struct WalState {
    since_sync: usize,
    since_checkpoint: usize,
    /// The buffer each frame is encoded into, kept between appends.
    frame: Vec<u8>,
}

/// Lifetime counters that survive a crash/reopen replay.
#[derive(Debug, Default, Clone, Copy)]
struct Carry {
    evictions: u64,
    dedup_hits: u64,
    integrity_failures: u64,
    quarantined_blocks: u64,
    wal_quarantined: u64,
}

/// The persistent store; see the module docs.
#[derive(Debug)]
pub struct PersistentStore {
    cfg: PersistConfig,
    disk: Arc<VirtualDisk>,
    index: Mutex<Idx>,
    wal: Mutex<WalState>,
}

impl PersistentStore {
    /// Opens (or creates) the store on `disk`, replaying any index
    /// snapshot and WAL left by a previous incarnation. Replay I/O is
    /// treated as mount-time work: its simulated cost is discarded.
    #[must_use]
    pub fn open(disk: Arc<VirtualDisk>, cfg: PersistConfig) -> Self {
        let store = PersistentStore {
            cfg,
            disk,
            index: Mutex::new(Idx::default()),
            wal: Mutex::new(WalState::default()),
        };
        store.replay(Carry::default());
        let _ = store.disk.take_pending_cost();
        store
    }

    /// The underlying disk (shared with a restarted successor).
    #[must_use]
    pub fn disk(&self) -> Arc<VirtualDisk> {
        Arc::clone(&self.disk)
    }

    // --- WAL ---

    fn log(&self, idx: &mut Idx, rec: &WalRecord) {
        if idx.replaying {
            return;
        }
        self.encode_frame(|enc| rec.encode(enc));
        self.append_frame(idx);
    }

    /// Encodes the frame of the record that `encode` writes into the
    /// kept frame buffer, which grows only to the largest frame so far.
    fn encode_frame(&self, encode: impl FnOnce(&mut Encoder) -> Result<(), XdrError>) {
        let mut wal = self.wal.lock();
        let mut enc = Encoder::reusing(std::mem::take(&mut wal.frame));
        enc.put_u32(0); // the payload length, patched in below
        encode(&mut enc).expect("WAL records always encode");
        let mut frame = enc.into_bytes();
        let len = u32::try_from(frame.len() - 4).expect("record fits u32");
        frame[..4].copy_from_slice(&len.to_be_bytes());
        let sum = content_hash(&frame[4..]);
        frame.extend_from_slice(&sum.to_be_bytes());
        wal.frame = frame;
    }

    /// Appends the encoded frame to the WAL, then syncs or checkpoints
    /// when one is due.
    fn append_frame(&self, idx: &mut Idx) {
        let mut wal = self.wal.lock();
        self.disk.append(WAL_PATH, &wal.frame);
        wal.since_sync += 1;
        wal.since_checkpoint += 1;
        if wal.since_checkpoint >= self.cfg.checkpoint_every {
            self.checkpoint(idx, &mut wal);
        } else if wal.since_sync >= self.cfg.sync_every {
            self.disk.sync();
            wal.since_sync = 0;
        }
    }

    /// Snapshot + sync + WAL truncate + dead-chunk GC.
    fn checkpoint(&self, idx: &mut Idx, wal: &mut WalState) {
        let snap = encode_snapshot(idx);
        self.disk.remove(SNAP_NEW_PATH);
        self.disk.write(SNAP_NEW_PATH, 0, &snap);
        self.disk.sync();
        self.disk.rename(SNAP_NEW_PATH, SNAP_PATH);
        self.disk.sync();
        self.disk.truncate(WAL_PATH, 0);
        // Chunk files no WAL record references any more and no extent
        // holds: safe to delete only now that the WAL is empty.
        for path in self.disk.list("chunks/") {
            match parse_chunk_path(&path) {
                Some(id) if !idx.chunk_refs.contains_key(&id) => self.disk.remove(&path),
                _ => {}
            }
        }
        idx.dead_chunks.clear();
        self.disk.sync();
        wal.since_sync = 0;
        wal.since_checkpoint = 0;
    }

    /// Loads the snapshot and replays the WAL: a torn tail stops replay
    /// and is truncated; an in-bounds frame that fails verification is
    /// interior corruption — skipped and counted, with every later
    /// durable frame still applied. Carries over lifetime counters.
    fn replay(&self, carry: Carry) {
        let mut idx = Idx {
            replaying: true,
            evictions: carry.evictions,
            dedup_hits: carry.dedup_hits,
            integrity_failures: carry.integrity_failures,
            quarantined_blocks: carry.quarantined_blocks,
            wal_quarantined: carry.wal_quarantined,
            ..Idx::default()
        };
        if let Some(snap) = self.disk.read(SNAP_PATH, 0, usize::MAX) {
            decode_snapshot(&snap, &mut idx);
        }
        let wal_bytes = self.disk.read(WAL_PATH, 0, usize::MAX).unwrap_or_default();
        let mut pos = 0usize;
        let mut valid = 0usize;
        while pos + 12 <= wal_bytes.len() {
            let len =
                u32::from_be_bytes(wal_bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let Some(frame_end) = pos.checked_add(4 + len + 8) else { break };
            if frame_end > wal_bytes.len() {
                break; // torn tail
            }
            let payload = &wal_bytes[pos + 4..pos + 4 + len];
            let stored = u64::from_be_bytes(
                wal_bytes[pos + 4 + len..frame_end].try_into().expect("8 bytes"),
            );
            let rec = if content_hash(payload) == stored {
                gvfs_xdr::from_bytes::<WalRecord>(payload).ok().filter(|r| self.verify_record(r))
            } else {
                None
            };
            let Some(rec) = rec else {
                // Interior corruption (flipped payload bit, undecodable
                // record, or a chunk lost with a crash): quarantine the
                // frame but keep the durable frames behind it.
                idx.wal_quarantined += 1;
                idx.integrity_failures += 1;
                pos = frame_end;
                valid = frame_end;
                continue;
            };
            match &rec {
                WalRecord::WriteDirty { fh, offset, bytes } => {
                    // Redo: the WAL carries the dirty bytes.
                    self.write_data(&mut idx, *fh, *offset, Cow::Borrowed(bytes));
                }
                WalRecord::InsertClean { fh, offset, segs } => {
                    // Raw segments (hash-collision fallback) live in the
                    // data file; redo them from the inline copy.
                    let mut abs = *offset;
                    for seg in segs {
                        if let SegRec::Raw { bytes } = seg {
                            self.write_data(&mut idx, *fh, abs, Cow::Borrowed(bytes));
                        }
                        abs += seg.len() as u64;
                    }
                }
                _ => {}
            }
            idx.apply_record(&rec);
            pos = frame_end;
            valid = frame_end;
        }
        if valid < wal_bytes.len() {
            self.disk.truncate(WAL_PATH, valid as u64);
        }
        // Everything replayed clean is servable warm.
        idx.warm_blocks = count_clean_blocks(&idx, self.cfg.block_size);
        idx.used = idx.files.values().map(Entry::bytes).sum();
        idx.replaying = false;
        *self.index.lock() = idx;
        let mut wal = self.wal.lock();
        wal.since_sync = 0;
        wal.since_checkpoint = 0;
    }

    /// A record may only be applied if every chunk it references is
    /// present with matching content hash.
    fn verify_record(&self, rec: &WalRecord) -> bool {
        let WalRecord::InsertClean { segs, .. } = rec else { return true };
        segs.iter().all(|seg| match seg {
            SegRec::Chunk { id } => matches!(
                self.disk.read_with(&chunk_path(*id), 0, id.1 as usize, |b| {
                    b.len() == id.1 as usize && slices_hash(b, 0) == id.0
                }),
                Ok(Some(true))
            ),
            SegRec::Raw { .. } => true,
        })
    }

    /// Stores one clean segment, dedup-ing against existing chunks.
    fn store_segment(&self, idx: &mut Idx, fh: Fh3, abs_off: u64, bytes: &[u8]) -> SegRec {
        let id: ChunkId =
            (content_hash(bytes), u32::try_from(bytes.len()).expect("segment fits u32"));
        let path = chunk_path(id);
        if let Ok(Some(same)) = self.disk.read_with(&path, 0, bytes.len() + 1, |b| b == *bytes) {
            if same {
                idx.dedup_hits += 1;
                return SegRec::Chunk { id };
            }
            // The byte-compare guard: a content-hash collision — or an
            // existing chunk whose bytes have rotted — falls back to
            // raw bytes in the handle's data file, carried inline by
            // the WAL record.
            self.write_data(idx, fh, abs_off, Cow::Borrowed(bytes));
            return SegRec::Raw { bytes: bytes.to_vec() };
        }
        self.disk.write(&path, 0, bytes);
        SegRec::Chunk { id }
    }

    /// Writes `bytes` into the handle's data file, maintaining the
    /// per-block hash records. Partially covered blocks are pre-verified
    /// (quarantining on mismatch) so a corrupt byte is never laundered
    /// into a fresh sum, and the new sums hash the *intended* content,
    /// so a torn write fails its next verification. Pre-verification is
    /// skipped during replay: snapshot-era sums legitimately lag the
    /// durable content the WAL is about to redo.
    /// An owned `bytes` goes to [`VirtualDisk::write_owned`], which may
    /// keep the buffer as a page.
    fn write_data(&self, idx: &mut Idx, fh: Fh3, offset: u64, bytes: Cow<'_, [u8]>) {
        let bs = self.cfg.block_size;
        let block_len = usize::try_from(bs).expect("bs fits");
        let path = data_path(fh);
        let end = offset + bytes.len() as u64;
        let replaying = idx.replaying;
        for b in (offset / bs * bs..end).step_by(block_len) {
            let lo = b.max(offset);
            let hi = (b + bs).min(end);
            let new = &bytes[usize::try_from(lo - offset).expect("in write")
                ..usize::try_from(hi - offset).expect("in write")];
            let sum = if lo == b && hi == b + bs {
                // A fully covered block hashes straight from the write.
                content_hash(new)
            } else {
                let recorded = idx.files.get(&fh).and_then(|e| e.data_sums.get(&b)).copied();
                let (from, to) = (
                    usize::try_from(lo - b).expect("in block"),
                    usize::try_from(hi - b).expect("in block"),
                );
                // The old block and the new one (the old bytes around
                // the write), zero-padded and hashed from the disk's
                // pages; an absent file reads as zeros.
                let hash = |span: Slices<'_>| {
                    let old = recorded.filter(|_| !replaying).map(|_| slices_hash(span, block_len));
                    let mut h = ContentHasher::new();
                    let head = span.sub(0, from);
                    h.write_slices(head);
                    h.write_zeros(from - head.len());
                    h.write(new);
                    let tail = span.sub(to, block_len);
                    h.write_slices(tail);
                    h.write_zeros(block_len - to - tail.len());
                    (old, h.finish())
                };
                let (old, sum) = self
                    .disk
                    .read_quiet(&path, b, block_len, hash)
                    .unwrap_or_else(|| hash(Slices::default()));
                if old.is_some() && old != recorded {
                    self.quarantine(idx, fh, b, b + bs);
                }
                sum
            };
            idx.files.entry(fh).or_default().data_sums.insert(b, sum);
        }
        match bytes {
            Cow::Borrowed(bytes) => self.disk.write(&path, offset, bytes),
            Cow::Owned(bytes) => self.disk.write_owned(&path, offset, bytes),
        }
    }

    /// Verifies one extent's backing bytes against its checksum: the
    /// whole content chunk against its id, or every data-file block the
    /// extent touches against its recorded sum. Verification reads are
    /// quiet (no cost, no dice) but still see durable bit rot — flips
    /// persist in the content.
    fn verify_ext(&self, idx: &Idx, fh: Fh3, start: u64, ext: &Ext) -> bool {
        match ext.src {
            Src::Chunk { id, .. } => self
                .disk
                .read_quiet(&chunk_path(id), 0, id.1 as usize, |b| {
                    b.len() == id.1 as usize && slices_hash(b, 0) == id.0
                })
                .unwrap_or(false),
            Src::Data { .. } => {
                let Some(entry) = idx.files.get(&fh) else { return false };
                let bs = self.cfg.block_size;
                let block_len = usize::try_from(bs).expect("bs fits");
                let path = data_path(fh);
                for b in (start / bs * bs..start + ext.len as u64).step_by(block_len) {
                    let Some(&sum) = entry.data_sums.get(&b) else { return false };
                    let hash = self
                        .disk
                        .read_quiet(&path, b, block_len, |span| slices_hash(span, block_len));
                    if hash != Some(sum) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Quarantines `[start, end)` of `fh` after a failed verification:
    /// every overlapping extent is dropped instead of served, and one
    /// [`IntegrityEvent`] per dropped piece is queued for the client —
    /// clean pieces as repairable misses, dirty pieces as data loss.
    fn quarantine(&self, idx: &mut Idx, fh: Fh3, start: u64, end: u64) {
        idx.integrity_failures += 1;
        let before = idx.entry_bytes(fh);
        let dirty = idx.remove_overlaps(fh, start, end);
        let after = idx.entry_bytes(fh);
        idx.recount_used(fh, before);
        let dirty_total: usize = dirty.iter().map(|(_, l)| *l).sum();
        if before - after > dirty_total {
            idx.quarantined_blocks += 1;
            idx.events.push(IntegrityEvent {
                fh,
                offset: start,
                len: end - start,
                dirty: false,
                served: false,
            });
        }
        for (off, len) in dirty {
            idx.quarantined_blocks += 1;
            idx.events.push(IntegrityEvent {
                fh,
                offset: off,
                len: len as u64,
                dirty: true,
                served: false,
            });
        }
    }

    /// Counts a verification failure in served-anyway mode (the
    /// `--break-scrub` knob): the corrupt extent stays in the index and
    /// its bytes go to the reader, which the oracles must convict.
    fn note_served_corrupt(&self, idx: &mut Idx, fh: Fh3, start: u64, ext: &Ext) {
        idx.integrity_failures += 1;
        idx.events.push(IntegrityEvent {
            fh,
            offset: start,
            len: ext.len as u64,
            dirty: ext.dirty(),
            served: true,
        });
    }

    /// Drops clean extents of least-recently-used files until within
    /// capacity. Dirty data is never evicted, so the loop also stops
    /// once a full LRU pass has dropped nothing.
    fn evict_over_capacity(&self, idx: &mut Idx) {
        // Consecutive dirty-only files re-touched without dropping a byte.
        let mut idle = 0;
        while idx.used > self.cfg.capacity {
            let Some((&seq, &fh)) = idx.lru.iter().next() else { break };
            idx.lru.remove(&seq);
            idx.lru_seq.remove(&fh);
            if !idx.files.contains_key(&fh) {
                continue;
            }
            let before = idx.entry_bytes(fh);
            idx.apply_drop_clean(fh);
            let dropped = before - idx.entry_bytes(fh);
            if dropped > 0 {
                idx.evictions += 1;
                self.log(idx, &WalRecord::Evict { fh });
            }
            if idx.files.get(&fh).is_some_and(|e| !e.extents.is_empty()) {
                // Still dirty: keep hot so the loop can make progress.
                idx.touch(fh);
                idle = if dropped > 0 { 0 } else { idle + 1 };
                if idx.lru.len() <= 1 || idle >= idx.lru.len() {
                    break;
                }
            }
        }
    }

    fn read_ext(
        &self,
        fh: Fh3,
        start: u64,
        ext: &Ext,
        from: usize,
        take: usize,
    ) -> Option<Vec<u8>> {
        let bytes = match ext.src {
            Src::Chunk { id, off } => {
                self.disk.read(&chunk_path(id), u64::from(off) + from as u64, take)?
            }
            Src::Data { .. } => self.disk.read(&data_path(fh), start + from as u64, take)?,
        };
        (bytes.len() == take).then_some(bytes)
    }
}

fn count_clean_blocks(idx: &Idx, block_size: u64) -> u64 {
    let clean = |entry: &Entry| {
        let ranges = entry.extents.iter().filter(|(_, e)| !e.dirty()).map(|(o, e)| (*o, e.len));
        blocks_touched(ranges, block_size).len() as u64
    };
    idx.files.values().map(clean).sum()
}

fn encode_snapshot(idx: &Idx) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u32(SNAP_MAGIC);
    enc.put_u32(SNAP_VERSION);
    let mut fhs: Vec<Fh3> = idx.files.keys().copied().collect();
    fhs.sort_unstable();
    enc.put_u32(u32::try_from(fhs.len()).expect("file count fits u32"));
    for fh in fhs {
        let entry = &idx.files[&fh];
        enc.put_u64(fh.fileid());
        match entry.tag {
            Some(t) => {
                enc.put_bool(true);
                enc.put_u32(t.seconds);
                enc.put_u32(t.nseconds);
            }
            None => enc.put_bool(false),
        }
        enc.put_u32(u32::try_from(entry.extents.len()).expect("extent count fits u32"));
        for (off, ext) in &entry.extents {
            enc.put_u64(*off);
            enc.put_u32(u32::try_from(ext.len).expect("extent len fits u32"));
            match ext.src {
                Src::Chunk { id, off: coff } => {
                    enc.put_u32(0);
                    enc.put_u64(id.0);
                    enc.put_u32(id.1);
                    enc.put_u32(coff);
                }
                Src::Data { dirty } => {
                    enc.put_u32(1);
                    enc.put_bool(dirty);
                }
            }
        }
        enc.put_u32(u32::try_from(entry.data_sums.len()).expect("sum count fits u32"));
        for (block, sum) in &entry.data_sums {
            enc.put_u64(*block);
            enc.put_u64(*sum);
        }
    }
    enc.put_u64(idx.next_seq);
    let mut bytes = enc.into_bytes();
    let sum = content_hash(&bytes);
    bytes.extend_from_slice(&sum.to_be_bytes());
    bytes
}

/// Populates `idx` from a snapshot if it verifies; a torn or corrupt
/// snapshot is ignored (the WAL alone still recovers a valid prefix).
fn decode_snapshot(bytes: &[u8], idx: &mut Idx) {
    if bytes.len() < 8 {
        return;
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_be_bytes(trailer.try_into().expect("8 bytes"));
    if content_hash(payload) != stored {
        return;
    }
    let mut dec = Decoder::new(payload);
    let ok = (|| -> Result<(), XdrError> {
        if dec.get_u32()? != SNAP_MAGIC || dec.get_u32()? != SNAP_VERSION {
            return Err(XdrError::InvalidDiscriminant { type_name: "snapshot", value: 0 });
        }
        let nfiles = dec.get_u32()?;
        for _ in 0..nfiles {
            let fh = Fh3::from_fileid(dec.get_u64()?);
            let tag = if dec.get_bool()? {
                Some(NfsTime3 { seconds: dec.get_u32()?, nseconds: dec.get_u32()? })
            } else {
                None
            };
            let mut entry = Entry { tag, ..Entry::default() };
            let nexts = dec.get_u32()?;
            for _ in 0..nexts {
                let off = dec.get_u64()?;
                let len = dec.get_u32()? as usize;
                let src = match dec.get_u32()? {
                    0 => {
                        let hash = dec.get_u64()?;
                        let clen = dec.get_u32()?;
                        let coff = dec.get_u32()?;
                        Src::Chunk { id: (hash, clen), off: coff }
                    }
                    _ => Src::Data { dirty: dec.get_bool()? },
                };
                entry.extents.insert(off, Ext { len, src });
            }
            let nsums = dec.get_u32()?;
            for _ in 0..nsums {
                let block = dec.get_u64()?;
                let sum = dec.get_u64()?;
                entry.data_sums.insert(block, sum);
            }
            idx.files.insert(fh, entry);
        }
        idx.next_seq = dec.get_u64()?;
        Ok(())
    })();
    if ok.is_err() {
        idx.files.clear();
        idx.next_seq = 0;
        return;
    }
    // Rebuild refcounts and the LRU (recency order is volatile; seed it
    // with snapshot order).
    let fhs: Vec<Fh3> = {
        let mut v: Vec<Fh3> = idx.files.keys().copied().collect();
        v.sort_unstable();
        v
    };
    for fh in fhs {
        let ids: Vec<ChunkId> = idx.files[&fh]
            .extents
            .values()
            .filter_map(|e| match e.src {
                Src::Chunk { id, .. } => Some(id),
                Src::Data { .. } => None,
            })
            .collect();
        for id in ids {
            idx.add_ref(id);
        }
        idx.touch(fh);
    }
}

impl BlockStore for PersistentStore {
    fn read(&mut self, fh: Fh3, offset: u64, len: usize) -> Option<Vec<u8>> {
        let mut idx = self.index.lock();
        idx.files.get(&fh)?;
        if len == 0 {
            return Some(Vec::new());
        }
        let end = offset + len as u64;
        let mut out = Vec::new();
        let mut pos = offset;
        while pos < end {
            let (start, ext) = {
                let entry = idx.files.get(&fh)?;
                let (s, e) = entry.extents.range(..=pos).next_back()?;
                (*s, *e)
            };
            let ext_end = start + ext.len as u64;
            if pos >= ext_end {
                return None; // gap
            }
            let from = (pos - start) as usize;
            let to = ((end.min(ext_end)) - start) as usize;
            // Read first, verify second: a bit that rots during the
            // read persists in the content, so the verification pass
            // sees it and the corrupt bytes are never served.
            let piece = self.read_ext(fh, start, &ext, from, to - from);
            if !self.verify_ext(&idx, fh, start, &ext) {
                if !self.cfg.verify {
                    self.note_served_corrupt(&mut idx, fh, start, &ext);
                } else {
                    self.quarantine(&mut idx, fh, start, ext_end);
                    return None; // now a miss; the read path refetches
                }
            }
            let piece = piece?;
            if out.is_empty() {
                // The first piece becomes the buffer: a request one
                // extent covers is returned without another copy.
                out = piece;
                out.reserve_exact(len - out.len());
            } else {
                out.extend_from_slice(&piece);
            }
            pos = start + to as u64;
        }
        idx.touch(fh);
        Some(out)
    }

    fn missing_ranges(&self, fh: Fh3, offset: u64, len: usize) -> Vec<(u64, usize)> {
        let idx = self.index.lock();
        let Some(entry) = idx.files.get(&fh) else {
            return if len == 0 { Vec::new() } else { vec![(offset, len)] };
        };
        let mut gaps = Vec::new();
        if len == 0 {
            return gaps;
        }
        let end = offset + len as u64;
        let mut pos = offset;
        let head = entry.extents.range(..=pos).next_back();
        let tail = entry.extents.range(pos + 1..end);
        for (start, ext) in head.into_iter().chain(tail) {
            let ext_end = start + ext.len as u64;
            if ext_end <= pos {
                continue;
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

    fn insert_clean(&mut self, fh: Fh3, offset: u64, data: Vec<u8>) {
        if data.is_empty() {
            return;
        }
        let mut idx = self.index.lock();
        // Full-file mode below the size threshold, else absolute
        // block_size-aligned chunks (maximizes cross-file dedup).
        let full_file = idx
            .files
            .get(&fh)
            .and_then(|e| e.size_hint)
            .is_some_and(|s| s <= self.cfg.file_threshold);
        let mut segs = Vec::new();
        let mut rel = 0usize;
        while rel < data.len() {
            let abs = offset + rel as u64;
            let piece_len = if full_file {
                data.len() - rel
            } else {
                let next_boundary = (abs / self.cfg.block_size + 1) * self.cfg.block_size;
                ((next_boundary - abs) as usize).min(data.len() - rel)
            };
            segs.push(self.store_segment(&mut idx, fh, abs, &data[rel..rel + piece_len]));
            rel += piece_len;
        }
        idx.apply_insert_clean(fh, offset, &segs);
        idx.touch(fh);
        self.log(&mut idx, &WalRecord::InsertClean { fh, offset, segs });
        self.evict_over_capacity(&mut idx);
    }

    fn write_dirty(&mut self, fh: Fh3, offset: u64, data: Vec<u8>) {
        if data.is_empty() {
            return;
        }
        let mut idx = self.index.lock();
        // The frame is encoded first, so the data file can keep `data`.
        self.encode_frame(|enc| encode_write_dirty(enc, fh, offset, &data));
        let len = data.len();
        self.write_data(&mut idx, fh, offset, Cow::Owned(data));
        idx.apply_write_dirty(fh, offset, len);
        idx.touch(fh);
        self.append_frame(&mut idx);
        self.evict_over_capacity(&mut idx);
    }

    fn clean_range(&mut self, fh: Fh3, offset: u64, len: u64) {
        let mut idx = self.index.lock();
        if idx.files.contains_key(&fh) {
            idx.apply_clean_range(fh, offset, len);
            self.log(&mut idx, &WalRecord::CleanRange { fh, offset, len });
        }
        drop(idx);
        // The server holds the data now; make the clean marking (and the
        // write-back it records) durable so a restart serves it warm
        // instead of re-flushing. Unconditional: clean_range is always a
        // durability barrier, whether or not the handle was cached.
        self.disk.sync();
        self.wal.lock().since_sync = 0;
    }

    fn drop_clean(&mut self, fh: Fh3) {
        let mut idx = self.index.lock();
        if !idx.files.contains_key(&fh) {
            return;
        }
        idx.apply_drop_clean(fh);
        self.log(&mut idx, &WalRecord::DropClean { fh });
    }

    fn forget(&mut self, fh: Fh3) {
        let mut idx = self.index.lock();
        if !idx.files.contains_key(&fh) && !idx.lru_seq.contains_key(&fh) {
            return;
        }
        idx.apply_forget(fh);
        self.disk.remove(&data_path(fh));
        self.log(&mut idx, &WalRecord::Forget { fh });
    }

    fn dirty_ranges(&self, fh: Fh3) -> Vec<(u64, usize)> {
        let idx = self.index.lock();
        idx.files.get(&fh).map_or_else(Vec::new, |e| {
            e.extents.iter().filter(|(_, x)| x.dirty()).map(|(o, x)| (*o, x.len)).collect()
        })
    }

    fn dirty_in_block(&self, fh: Fh3, block_offset: u64, block_size: u64) -> Vec<(u64, Vec<u8>)> {
        let mut idx = self.index.lock();
        let block_end = block_offset + block_size;
        let segs: Vec<(u64, u64, u64, Ext)> = {
            let Some(entry) = idx.files.get(&fh) else { return Vec::new() };
            entry
                .extents
                .iter()
                .filter(|(_, e)| e.dirty())
                .filter_map(|(start, ext)| {
                    let ext_end = start + ext.len as u64;
                    if ext_end <= block_offset || *start >= block_end {
                        return None;
                    }
                    Some((block_offset.max(*start), block_end.min(ext_end), *start, *ext))
                })
                .collect()
        };
        let mut out = Vec::new();
        for (from, to, estart, ext) in segs {
            // Verify before handing dirty bytes to the flusher: a
            // corrupt block must surface as data loss, never be written
            // back to the origin as if it were the application's data.
            let want = (to - from) as usize;
            let bytes = match self.disk.try_read(&data_path(fh), from, want) {
                Ok(Some(b)) if b.len() == want => Some(b),
                _ => None,
            };
            let verified = self.verify_ext(&idx, fh, estart, &ext);
            match bytes {
                Some(b) if verified => out.push((from, b)),
                Some(b) if !self.cfg.verify => {
                    self.note_served_corrupt(&mut idx, fh, estart, &ext);
                    out.push((from, b));
                }
                _ => self.quarantine(&mut idx, fh, estart, estart + ext.len as u64),
            }
        }
        out
    }

    fn has_dirty(&self, fh: Fh3) -> bool {
        let idx = self.index.lock();
        idx.files.get(&fh).is_some_and(|e| e.extents.values().any(Ext::dirty))
    }

    fn dirty_files(&self) -> Vec<Fh3> {
        let idx = self.index.lock();
        let mut v: Vec<Fh3> = idx
            .files
            .iter()
            .filter(|(_, e)| e.extents.values().any(Ext::dirty))
            .map(|(fh, _)| *fh)
            .collect();
        v.sort_unstable();
        v
    }

    fn revalidate(&mut self, fh: Fh3, mtime: NfsTime3) {
        let mut idx = self.index.lock();
        let changed = idx.files.get(&fh).and_then(|e| e.tag).is_some_and(|t| t != mtime);
        if changed {
            idx.apply_drop_clean(fh);
        }
        let had_entry = idx.files.contains_key(&fh);
        let prev_tag = idx.files.get(&fh).and_then(|e| e.tag);
        idx.files.entry(fh).or_default().tag = Some(mtime);
        // Only log when something durable changed: first sight of the
        // handle, a tag move, or a clean drop.
        if changed || !had_entry || prev_tag != Some(mtime) {
            self.log(&mut idx, &WalRecord::Retag { fh, mtime, drop: changed });
        }
    }

    fn retag(&mut self, fh: Fh3, mtime: NfsTime3) {
        let mut idx = self.index.lock();
        let prev = idx.files.get(&fh).and_then(|e| e.tag);
        idx.files.entry(fh).or_default().tag = Some(mtime);
        if prev != Some(mtime) {
            self.log(&mut idx, &WalRecord::Retag { fh, mtime, drop: false });
        }
    }

    fn note_size(&mut self, fh: Fh3, size: u64) {
        self.index.lock().files.entry(fh).or_default().size_hint = Some(size);
    }

    fn used_bytes(&self) -> usize {
        self.index.lock().used
    }

    fn stats(&self) -> StoreStats {
        let idx = self.index.lock();
        StoreStats {
            bytes: idx.used as u64,
            evictions: idx.evictions,
            dedup_hits: idx.dedup_hits,
            restart_warm_blocks: idx.warm_blocks,
            integrity_failures: idx.integrity_failures,
            quarantined_blocks: idx.quarantined_blocks,
            wal_quarantined_frames: idx.wal_quarantined,
        }
    }

    fn sync(&mut self) {
        let idx = self.index.lock();
        let mut wal = self.wal.lock();
        drop(idx);
        self.disk.sync();
        wal.since_sync = 0;
    }

    fn crash_reopen(&mut self) {
        let carry = {
            let idx = self.index.lock();
            Carry {
                evictions: idx.evictions,
                dedup_hits: idx.dedup_hits,
                integrity_failures: idx.integrity_failures,
                quarantined_blocks: idx.quarantined_blocks,
                wal_quarantined: idx.wal_quarantined,
            }
        };
        self.disk.crash();
        self.replay(carry);
    }

    fn take_cost(&mut self) -> Duration {
        self.disk.take_pending_cost()
    }

    fn take_integrity_events(&mut self) -> Vec<IntegrityEvent> {
        std::mem::take(&mut self.index.lock().events)
    }

    fn scrub_step(&mut self, max_bytes: usize) -> usize {
        if !self.cfg.verify {
            return 0;
        }
        let mut idx = self.index.lock();
        // A stable sweep order over every stored extent; the persistent
        // cursor picks up where the previous step stopped so repeated
        // small steps cover the whole store.
        let mut exts: Vec<(Fh3, u64, Ext)> = idx
            .files
            .iter()
            .flat_map(|(fh, e)| e.extents.iter().map(|(off, ext)| (*fh, *off, *ext)))
            .collect();
        if exts.is_empty() {
            return 0;
        }
        exts.sort_unstable_by_key(|(fh, off, _)| (fh.fileid(), *off));
        let cursor = idx.scrub_cursor;
        let at = exts.iter().position(|(fh, off, _)| (fh.fileid(), *off) >= cursor).unwrap_or(0);
        exts.rotate_left(at);
        let mut scrubbed = 0usize;
        let mut next = (0, 0);
        for (i, (fh, off, ext)) in exts.iter().enumerate() {
            if scrubbed >= max_bytes {
                next = (fh.fileid(), *off);
                break;
            }
            // An extent may have been quarantined (or split) by an
            // earlier failure in this same step; skip stale entries.
            let live = idx
                .files
                .get(fh)
                .and_then(|e| e.extents.get(off))
                .is_some_and(|e| e.len == ext.len);
            if !live {
                continue;
            }
            if !self.verify_ext(&idx, *fh, *off, ext) {
                self.quarantine(&mut idx, *fh, *off, *off + ext.len as u64);
            }
            scrubbed += ext.len;
            if i + 1 == exts.len() {
                next = (0, 0); // wrapped: restart the sweep
            }
        }
        idx.scrub_cursor = next;
        scrubbed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvfs_netsim::disk::DiskConfig;

    fn store() -> PersistentStore {
        PersistentStore::open(
            VirtualDisk::new(DiskConfig::instant()),
            PersistConfig { capacity: 1 << 20, ..PersistConfig::default() },
        )
    }

    fn t(s: u32) -> NfsTime3 {
        NfsTime3 { seconds: s, nseconds: 0 }
    }

    #[test]
    fn read_write_roundtrip_with_gaps() {
        let mut s = store();
        let fh = Fh3::from_fileid(1);
        s.insert_clean(fh, 0, vec![1; 4]);
        s.insert_clean(fh, 8, vec![2; 4]);
        assert_eq!(s.read(fh, 0, 4).unwrap(), vec![1; 4]);
        assert!(s.read(fh, 0, 12).is_none(), "gap at [4,8)");
        assert_eq!(s.missing_ranges(fh, 0, 12), vec![(4, 4)]);
        s.write_dirty(fh, 4, vec![9; 4]);
        assert_eq!(s.read(fh, 0, 12).unwrap(), [vec![1; 4], vec![9; 4], vec![2; 4]].concat());
        assert_eq!(s.dirty_ranges(fh), vec![(4, 4)]);
    }

    #[test]
    fn dirty_beats_incoming_clean() {
        let mut s = store();
        let fh = Fh3::from_fileid(1);
        s.write_dirty(fh, 2, vec![7; 4]);
        s.insert_clean(fh, 0, vec![0; 8]);
        assert_eq!(s.read(fh, 0, 8).unwrap(), vec![0, 0, 7, 7, 7, 7, 0, 0]);
        assert_eq!(s.dirty_ranges(fh), vec![(2, 4)]);
    }

    #[test]
    fn warm_restart_serves_clean_blocks() {
        let disk = VirtualDisk::new(DiskConfig::instant());
        let cfg = PersistConfig { capacity: 1 << 20, ..PersistConfig::default() };
        let fh = Fh3::from_fileid(7);
        {
            let mut s = PersistentStore::open(Arc::clone(&disk), cfg);
            s.revalidate(fh, t(5));
            s.insert_clean(fh, 0, vec![3; 1000]);
            s.sync();
        }
        let mut s2 = PersistentStore::open(disk, cfg);
        assert_eq!(s2.read(fh, 0, 1000).unwrap(), vec![3; 1000]);
        assert_eq!(s2.stats().restart_warm_blocks, 1);
        // The tag survived: revalidating with the same mtime keeps data.
        s2.revalidate(fh, t(5));
        assert!(s2.read(fh, 0, 1000).is_some());
        s2.revalidate(fh, t(9));
        assert!(s2.read(fh, 0, 1000).is_none(), "tag moved: clean dropped");
    }

    #[test]
    fn unsynced_dirty_tail_is_discarded_after_crash() {
        let mut s = store();
        let fh = Fh3::from_fileid(1);
        s.write_dirty(fh, 0, vec![1; 100]);
        s.sync();
        s.write_dirty(fh, 200, vec![2; 100]); // never synced
        s.crash_reopen();
        assert_eq!(s.read(fh, 0, 100).unwrap(), vec![1; 100], "synced dirty survives");
        assert_eq!(s.dirty_ranges(fh), vec![(0, 100)], "torn record discarded");
    }

    #[test]
    fn dedup_stores_identical_chunks_once() {
        let mut s = store();
        let a = Fh3::from_fileid(1);
        let b = Fh3::from_fileid(2);
        let block = vec![42u8; 32 * 1024];
        s.insert_clean(a, 0, block.clone());
        assert_eq!(s.stats().dedup_hits, 0);
        s.insert_clean(b, 0, block.clone());
        assert_eq!(s.stats().dedup_hits, 1);
        assert_eq!(s.read(b, 0, block.len()).unwrap(), block);
        // One chunk file backs both.
        assert_eq!(s.disk.list("chunks/").len(), 1);
        s.forget(a);
        assert_eq!(s.read(b, 0, block.len()).unwrap(), block, "refcount keeps the chunk");
    }

    #[test]
    fn eviction_spares_dirty_and_counts() {
        let mut s = PersistentStore::open(
            VirtualDisk::new(DiskConfig::instant()),
            PersistConfig { capacity: 100, ..PersistConfig::default() },
        );
        let dirty = Fh3::from_fileid(1);
        let clean = Fh3::from_fileid(2);
        s.write_dirty(dirty, 0, vec![1; 80]);
        s.insert_clean(clean, 0, vec![2; 80]);
        assert!(s.used_bytes() <= 160);
        assert_eq!(s.dirty_files(), vec![dirty]);
        assert!(s.read(dirty, 0, 80).is_some(), "dirty survives eviction");
        assert!(s.stats().evictions >= 1);
    }

    #[test]
    fn eviction_stops_when_dirty_data_alone_exceeds_capacity() {
        crate::store::assert_evict_stops_on_dirty_only(|capacity| {
            let cfg = PersistConfig { capacity, ..PersistConfig::default() };
            PersistentStore::open(VirtualDisk::new(DiskConfig::instant()), cfg)
        });
    }

    #[test]
    fn checkpoint_snapshots_and_truncates_wal() {
        let disk = VirtualDisk::new(DiskConfig::instant());
        let cfg = PersistConfig {
            capacity: 1 << 20,
            checkpoint_every: 4,
            sync_every: usize::MAX,
            ..PersistConfig::default()
        };
        let fh = Fh3::from_fileid(1);
        let mut s = PersistentStore::open(Arc::clone(&disk), cfg);
        for i in 0..6u64 {
            s.write_dirty(fh, i * 10, vec![i as u8 + 1; 10]);
        }
        assert!(disk.exists(SNAP_PATH), "checkpoint wrote a snapshot");
        s.sync();
        drop(s);
        let mut s2 = PersistentStore::open(disk, cfg);
        let got = s2.read(fh, 0, 60).unwrap();
        let want: Vec<u8> = (0..6u64).flat_map(|i| vec![i as u8 + 1; 10]).collect();
        assert_eq!(got, want);
        assert_eq!(s2.dirty_ranges(fh), vec![(0, 60)]);
    }

    #[test]
    fn clean_range_is_durable_and_restores_warm() {
        let disk = VirtualDisk::new(DiskConfig::instant());
        let cfg = PersistConfig { capacity: 1 << 20, ..PersistConfig::default() };
        let fh = Fh3::from_fileid(3);
        {
            let mut s = PersistentStore::open(Arc::clone(&disk), cfg);
            s.write_dirty(fh, 0, vec![5; 512]);
            s.clean_range(fh, 0, 512); // implies a durability barrier
        }
        let mut s2 = PersistentStore::open(disk, cfg);
        assert_eq!(s2.read(fh, 0, 512).unwrap(), vec![5; 512]);
        assert!(!s2.has_dirty(fh), "cleaned-in-place bytes restore clean");
        assert_eq!(s2.stats().restart_warm_blocks, 1);
    }

    /// The satellite regression: an interior WAL corruption (bit flip in
    /// frame 2 of 5) quarantines that frame only — frames 3–5 still
    /// replay — while a torn tail still truncates.
    #[test]
    fn interior_wal_flip_keeps_later_frames() {
        let disk = VirtualDisk::new(DiskConfig::instant());
        let cfg = PersistConfig {
            capacity: 1 << 20,
            checkpoint_every: usize::MAX,
            sync_every: usize::MAX,
            ..PersistConfig::default()
        };
        {
            let mut s = PersistentStore::open(Arc::clone(&disk), cfg);
            for i in 1..=5u64 {
                s.write_dirty(Fh3::from_fileid(i), 0, vec![i as u8; 64]);
            }
            s.sync();
        }
        // Frame layout: [u32 len][payload][u64 hash]. Walk to frame 2's
        // payload and flip one bit.
        let wal = disk.read(WAL_PATH, 0, usize::MAX).unwrap();
        let len1 = u32::from_be_bytes(wal[0..4].try_into().unwrap()) as usize;
        let frame2 = 4 + len1 + 8;
        assert!(disk.corrupt_byte(WAL_PATH, (frame2 + 4 + 2) as u64, 0x40));
        let mut s2 = PersistentStore::open(disk, cfg);
        assert_eq!(s2.stats().wal_quarantined_frames, 1, "frame 2 quarantined");
        for i in [1u64, 3, 4, 5] {
            assert_eq!(s2.read(Fh3::from_fileid(i), 0, 64).unwrap(), vec![i as u8; 64]);
        }
        assert!(s2.read(Fh3::from_fileid(2), 0, 64).is_none(), "frame 2 lost");
    }

    /// A flipped bit in a clean chunk is never served: the read misses,
    /// the extent is quarantined, and re-inserting the fetched bytes
    /// (what the client's refetch repair does) reconverges — via the
    /// byte-compare dedup guard, since the rotten chunk still exists.
    #[test]
    fn corrupt_clean_chunk_quarantined_then_repaired() {
        let mut s = store();
        let fh = Fh3::from_fileid(1);
        let data: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        s.insert_clean(fh, 0, data.clone());
        let chunk = &s.disk.list("chunks/")[0];
        assert!(s.disk.corrupt_byte(chunk, 100, 0xff));
        assert!(s.read(fh, 0, 4096).is_none(), "corrupt bytes are never served");
        let st = s.stats();
        assert_eq!(st.integrity_failures, 1);
        assert_eq!(st.quarantined_blocks, 1);
        let ev = s.take_integrity_events();
        assert_eq!(ev.len(), 1);
        assert!(!ev[0].dirty && !ev[0].served);
        assert!(s.take_integrity_events().is_empty(), "events drain once");
        // Refetch repair: the store accepts the origin bytes again.
        s.insert_clean(fh, 0, data.clone());
        assert_eq!(s.read(fh, 0, 4096).unwrap(), data);
    }

    /// Corruption under a dirty extent is explicit data loss, never a
    /// zero-filled read.
    #[test]
    fn corrupt_dirty_data_is_explicit_loss() {
        let mut s = store();
        let fh = Fh3::from_fileid(1);
        s.write_dirty(fh, 0, vec![7; 100]);
        assert!(s.disk.corrupt_byte(&data_path(fh), 50, 0x01));
        assert!(s.read(fh, 0, 100).is_none());
        let ev = s.take_integrity_events();
        assert_eq!(ev.len(), 1);
        assert!(ev[0].dirty, "lost bytes were dirty");
        assert!(!s.has_dirty(fh), "the unrecoverable extent is dropped");
        assert_eq!(s.stats().quarantined_blocks, 1);
    }

    /// A torn data-file write (sector-prefix only) fails its next
    /// verification: the sums hash the intended content.
    #[test]
    fn torn_data_write_is_caught() {
        use gvfs_netsim::disk::DiskFaultPlan;
        use gvfs_netsim::fault::Window;
        use gvfs_netsim::SimTime;
        let disk = VirtualDisk::new(DiskConfig::instant());
        let mut s = PersistentStore::open(
            Arc::clone(&disk),
            PersistConfig { capacity: 1 << 20, ..PersistConfig::default() },
        );
        let all = Window::new(SimTime::ZERO, SimTime::from_secs(1 << 30));
        disk.set_fault_plan(Some(
            DiskFaultPlan::new(7).with_torn_writes(all, 1.0).with_path_prefix("data/"),
        ));
        s.write_dirty(Fh3::from_fileid(1), 0, vec![9; 600]);
        disk.set_fault_plan(None);
        assert!(s.read(Fh3::from_fileid(1), 0, 600).is_none(), "torn bytes never served");
        assert!(s.stats().integrity_failures >= 1);
    }

    /// The scrub sweep finds rot ahead of demand and its cursor covers
    /// the whole store across small steps.
    #[test]
    fn scrub_step_quarantines_ahead_of_demand() {
        let mut s = store();
        let good = Fh3::from_fileid(1);
        let bad = Fh3::from_fileid(2);
        s.insert_clean(good, 0, vec![1; 4096]);
        s.insert_clean(bad, 0, vec![2; 4096]);
        // Corrupt only the second file's chunk.
        for chunk in s.disk.list("chunks/") {
            let id = parse_chunk_path(&chunk).unwrap();
            if id.0 == content_hash(&[2u8; 4096][..]) {
                assert!(s.disk.corrupt_byte(&chunk, 9, 0x80));
            }
        }
        let mut scrubbed = 0;
        for _ in 0..16 {
            scrubbed += s.scrub_step(1024);
        }
        assert!(scrubbed >= 8192, "cursor wrapped the whole store");
        assert_eq!(s.stats().integrity_failures, 1, "scrub found the rot");
        let ev = s.take_integrity_events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].fh, bad);
        assert!(s.read(bad, 0, 4096).is_none(), "quarantined before any reader saw it");
        assert_eq!(s.read(good, 0, 4096).unwrap(), vec![1; 4096]);
    }

    /// The `--break-scrub` fault: verification off serves the corrupt
    /// bytes (counted, `served` flagged) so the oracles can convict.
    #[test]
    fn verify_off_serves_corrupt_and_flags_it() {
        let cfg = PersistConfig { capacity: 1 << 20, ..PersistConfig::default() };
        let disk = VirtualDisk::new(DiskConfig::instant());
        let mut s =
            PersistentStore::open(Arc::clone(&disk), PersistConfig { verify: false, ..cfg });
        let fh = Fh3::from_fileid(1);
        s.insert_clean(fh, 0, vec![3; 4096]);
        let chunk = &s.disk.list("chunks/")[0];
        assert!(s.disk.corrupt_byte(chunk, 0, 0xff));
        assert_eq!(s.scrub_step(usize::MAX), 0, "scrub disabled with the knob");
        let got = s.read(fh, 0, 4096).expect("served anyway");
        assert_ne!(got, vec![3; 4096], "and the bytes are wrong");
        let ev = s.take_integrity_events();
        assert_eq!(ev.len(), 1);
        assert!(ev[0].served);
        assert_eq!(s.stats().quarantined_blocks, 0, "nothing quarantined");
        let mut verified = PersistentStore::open(disk, cfg);
        assert!(verified.read(fh, 0, 4096).is_none(), "verifying store: quarantined");
    }

    /// Integrity counters and the scrub cursor survive a crash/reopen;
    /// per-block sums ride the snapshot across checkpoints.
    #[test]
    fn sums_survive_checkpoint_and_counters_survive_crash() {
        let disk = VirtualDisk::new(DiskConfig::instant());
        let cfg = PersistConfig {
            capacity: 1 << 20,
            checkpoint_every: 2,
            sync_every: usize::MAX,
            ..PersistConfig::default()
        };
        let fh = Fh3::from_fileid(1);
        let mut s = PersistentStore::open(Arc::clone(&disk), cfg);
        for i in 0..4u64 {
            s.write_dirty(fh, i * 100, vec![i as u8 + 1; 100]);
        }
        assert!(disk.exists(SNAP_PATH));
        s.sync();
        assert!(s.disk.corrupt_byte(&data_path(fh), 150, 0x04));
        assert!(s.read(fh, 0, 400).is_none());
        let failures = s.stats().integrity_failures;
        assert!(failures >= 1);
        s.crash_reopen();
        assert_eq!(s.stats().integrity_failures, failures, "counters carry over");
        // The snapshot restored sums for the surviving blocks: corrupt
        // the replayed data file and verification still catches it.
        assert!(s.disk.corrupt_byte(&data_path(fh), 350, 0x04));
        assert!(s.read(fh, 300, 100).is_none(), "snapshot-era sums still verify");
    }

    /// The published XXH64 (seed 0) test vectors.
    #[test]
    fn content_hash_matches_xxh64_reference_vectors() {
        assert_eq!(content_hash(b""), 0xef46_db37_51d8_e999);
        assert_eq!(content_hash(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(content_hash(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(content_hash(b"Nobody inspects the spammish repetition"), 0xfbce_a83c_8a37_8bf1);
    }

    /// Every length from 0 to 100 bytes, so the 32-byte stripes and the
    /// 8-, 4- and 1-byte tails all run. The pinned fold (the hash of the
    /// 101 hashes, little-endian) comes from an independent
    /// implementation of the XXH64 spec.
    #[test]
    fn content_hash_covers_every_tail_length() {
        let buf: Vec<u8> = (0..100u32).map(|i| (i * 31 + 7) as u8).collect();
        let hashes: Vec<u64> = (0..=buf.len()).map(|n| content_hash(&buf[..n])).collect();
        let distinct: HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), hashes.len(), "every prefix hashes differently");
        let folded: Vec<u8> = hashes.iter().flat_map(|h| h.to_le_bytes()).collect();
        assert_eq!(content_hash(&folded), 0x2325_63d5_f16e_82d9);
    }

    /// The streaming hasher equals the one-shot hash for every split of
    /// the input into two and three pieces.
    #[test]
    fn the_streaming_hash_equals_the_one_shot_hash_for_every_split() {
        let buf: Vec<u8> = (0..100u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in 0..=buf.len() {
            let want = content_hash(&buf[..len]);
            for a in 0..=len {
                for b in a..=len {
                    let mut h = ContentHasher::new();
                    h.write(&buf[..a]);
                    h.write(&buf[a..b]);
                    h.write(&buf[b..len]);
                    assert_eq!(h.finish(), want, "len {len} split at {a}, {b}");
                }
            }
        }
        // The pieces of a read across a page boundary.
        let big: Vec<u8> = (0..3 * gvfs_vfs::PAGE_SIZE as u32).map(|i| (i * 13) as u8).collect();
        let mut pages = gvfs_vfs::Pages::new();
        pages.append(&big);
        let mut h = ContentHasher::new();
        h.write_slices(pages.slice(7, big.len() - 5));
        assert_eq!(h.finish(), content_hash(&big[7..big.len() - 5]));
    }

    /// Hashing a short block with its zero padding streamed equals
    /// hashing a zero-padded copy, for lengths around the 32-byte stripe
    /// and the 8-, 4- and 1-byte steps of the tail.
    #[test]
    fn a_streamed_padding_hashes_like_a_padded_copy() {
        let buf: Vec<u8> = (0..200u32).map(|i| (i * 29 + 3) as u8).collect();
        for pad_to in [0, 1, 4, 8, 31, 32, 33, 40, 44, 45, 64, 100, 200] {
            for len in [0, 1, 3, 4, 5, 7, 8, 9, 12, 13, 31, 32, 33, 36, 39, 40, 63, 64, 65] {
                let mut bytes = gvfs_vfs::Pages::new();
                bytes.append(&buf[..len]);
                let mut padded = buf[..len].to_vec();
                padded.resize(len.max(pad_to), 0);
                assert_eq!(
                    slices_hash(bytes.slice(0, len), pad_to),
                    content_hash(&padded),
                    "{len} B padded to {pad_to}"
                );
            }
        }
    }

    /// Any single flipped bit in a 4 KiB block changes its hash.
    #[test]
    fn every_single_bit_flip_changes_the_hash() {
        let mut block: Vec<u8> = (0..4096u32).map(|i| (i * 131 + 17) as u8).collect();
        let clean = content_hash(&block);
        for byte in 0..block.len() {
            for bit in 0..8 {
                block[byte] ^= 1 << bit;
                assert_ne!(content_hash(&block), clean, "byte {byte} bit {bit}");
                block[byte] ^= 1 << bit;
            }
        }
    }

    /// A snapshot of an older format version is ignored, even with a
    /// valid trailer; the WAL written after it still replays.
    #[test]
    fn version_2_snapshot_is_ignored_and_wal_still_replays() {
        let cfg = PersistConfig {
            checkpoint_every: 2,
            sync_every: usize::MAX,
            ..PersistConfig::default()
        };
        let snapped = Fh3::from_fileid(1);
        let logged = Fh3::from_fileid(2);
        let build = || {
            let disk = VirtualDisk::new(DiskConfig::instant());
            let mut s = PersistentStore::open(Arc::clone(&disk), cfg);
            s.write_dirty(snapped, 0, vec![1; 100]);
            s.write_dirty(snapped, 100, vec![2; 100]); // checkpoint
            assert!(disk.exists(SNAP_PATH));
            s.write_dirty(logged, 0, vec![3; 100]);
            s.sync();
            disk
        };
        let mut current = PersistentStore::open(build(), cfg);
        assert!(current.read(snapped, 0, 200).is_some(), "a version-3 snapshot loads");

        let disk = build();
        let snap = disk.read(SNAP_PATH, 0, usize::MAX).unwrap();
        let mut old = snap[..snap.len() - 8].to_vec();
        old[4..8].copy_from_slice(&2u32.to_be_bytes());
        let sum = content_hash(&old);
        old.extend_from_slice(&sum.to_be_bytes());
        disk.write(SNAP_PATH, 0, &old);
        disk.sync();
        let mut s = PersistentStore::open(disk, cfg);
        assert!(s.read(snapped, 0, 200).is_none(), "the version-2 snapshot is ignored");
        assert_eq!(s.read(logged, 0, 100).unwrap(), vec![3; 100], "the WAL replays");
        assert_eq!(s.dirty_ranges(logged), vec![(0, 100)]);
    }

    /// The write-back flush pattern: one `clean_range` (and so one disk
    /// sync) per flushed block must copy only what changed since the
    /// previous sync, not every changed file (WAL included) whole again.
    #[test]
    fn per_block_clean_range_syncs_only_the_bytes_written() {
        let disk = VirtualDisk::new(DiskConfig::instant());
        let mut s = PersistentStore::open(Arc::clone(&disk), PersistConfig::default());
        let block = 32 * 1024u64;
        for f in 1..=8u64 {
            for b in 0..8u64 {
                s.write_dirty(Fh3::from_fileid(f), b * block, vec![(f * 8 + b) as u8; 32 * 1024]);
            }
        }
        for f in 1..=8u64 {
            for b in 0..8u64 {
                s.clean_range(Fh3::from_fileid(f), b * block, block);
            }
        }
        let st = disk.stats();
        assert_eq!(st.syncs, 65, "one implicit sync plus one per cleaned block");
        assert!(
            st.bytes_synced <= st.bytes_written,
            "synced {} bytes for {} written",
            st.bytes_synced,
            st.bytes_written
        );
    }
}
