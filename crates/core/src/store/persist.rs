//! The persistent block store.
//!
//! On-disk layout over one [`VirtualDisk`] (one per proxy machine):
//!
//! ```text
//! wal.log              append-only redo log (framed XDR records); a
//!                      checkpoint starts it afresh with the index
//! data/<2hex>/<16hex>  per-handle sparse file: every cached byte of the
//!                      handle, clean or dirty, at its file offset; keyed
//!                      by the content hash of the Fh3
//! ```
//!
//! **Write-ahead log.** Every mutation appends one framed record
//! (`[u32 len][XDR payload][u64 hash]`). `WriteDirty` records carry the
//! written bytes inline — the WAL is a *redo* log, so replay never
//! depends on the data file having survived for dirty bytes.
//! `InsertClean` records carry only the range (clean data is
//! refetchable; dirty data is not). Both carry the sum of every block
//! their range touches, as the write left it. Every sync the store makes
//! is preceded by a `Synced` record, the *barrier*: the data writes of
//! the records before it reached the disk.
//!
//! **Recovery.** On open (and after [`PersistentStore::crash_reopen`]) the
//! store replays `wal.log` record by record. A frame extending past the
//! end of the log is a *torn tail* — replay stops and truncates there, so
//! no torn dirty record is ever applied. Up to the barrier, an in-bounds
//! frame that fails verification — a flipped bit in its payload or
//! checksum, or an undecodable record — is *interior corruption*: the
//! frame is skipped and counted (`wal_quarantined_frames`) and replay
//! continues, so one rotted bit costs only its own frame. A `Synced`
//! record is the only one with a 4-byte payload, so a rotted one still
//! marks the barrier. (A flip inside a frame's *length prefix* is
//! indistinguishable from a torn tail and still truncates — the length
//! is what frame navigation stands on.) The records up to the barrier
//! are applied with the sums they logged, so rot that lands while the
//! store is down is caught by the first read after it. At the barrier,
//! each data file is cut to the length its replayed writes reached and
//! a data file no entry owns is removed, which drops the bytes a crash
//! keeps of unsynced growth (a torn prefix, see [`VirtualDisk::crash`]).
//! After the barrier, the data writes may have been lost with the
//! crash: dirty writes are redone from the log, and the log ends at the
//! first clean insert, whose bytes it does not hold, or at the first
//! frame that fails verification — what replay recovers is always a
//! prefix of the logged operations. The sums of the blocks that the
//! records from there on wrote are taken afresh from the disk, as those
//! writes may have reached it when no crash came between.
//!
//! **Integrity.** Every `block_size`-aligned span of a data file that
//! holds cached bytes carries a [`content_hash`] of the span, zero-padded
//! to a full block, maintained by every data-file write: partially
//! covered blocks are pre-verified first (a previously corrupted byte is
//! never laundered into a fresh sum) and the new sum hashes the
//! *intended* content (a torn write fails its next verification). A read
//! verifies the blocks it serves; a mismatch **quarantines** that block
//! — its extents are dropped instead of served, counted, and reported
//! via [`PersistentStore::take_integrity_events`]: clean bytes become cache
//! misses the origin/peer read path repairs transparently; dirty bytes
//! are explicit data loss the client must surface. A scrub sweep
//! ([`PersistentStore::scrub_step`]) verifies blocks ahead of demand behind a
//! persistent cursor. Verification reads are cost-free in the simulation
//! (modeled as piggybacked on the data transfer they guard); only the
//! served bytes are charged.
//!
//! **Checkpoint.** Every `checkpoint_every` records the log starts
//! afresh: the whole index goes into `wal.log.new` as one `Checkpoint`
//! record per handle, in handle order, then a `Synced` record, and the
//! file replaces the log (`wal.log.new` → sync → rename → sync). Replay
//! applies these records like any other, so a rotted one costs only its
//! handle.
//!
//! **Eviction.** Clean extents of least-recently-used files are dropped
//! (with a `DropClean` record) until within capacity; dirty bytes are
//! never evicted. The LRU clock is volatile: after a restart, recency
//! is WAL replay order.
//!
//! **Locking.** None of its own: the proxy client reaches the store only
//! under its `disk` lock, which is never held across a WAN send.

use super::{blocks_touched, IntegrityEvent, StoreStats};
use gvfs_netsim::disk::{Slices, VirtualDisk};
use gvfs_nfs3::{Fh3, NfsTime3};
use gvfs_xdr::{Decoder, Encoder, Xdr, XdrError};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

const WAL_PATH: &str = "wal.log";
const WAL_NEW_PATH: &str = "wal.log.new";

/// Tuning for a [`PersistentStore`].
#[derive(Debug, Clone, Copy)]
pub struct PersistConfig {
    /// Cached-content byte budget (clean data beyond it is evicted).
    pub capacity: usize,
    /// Checksum granularity of the data files, normally the transfer
    /// size.
    pub block_size: u64,
    /// WAL records between checkpoints (a fresh WAL that starts with the
    /// index).
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
            checkpoint_every: 8192,
            sync_every: 64,
            verify: true,
        }
    }
}

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
/// checks the on-disk blocks it came from. [`ContentHasher`] is its
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

/// `len` bytes of the handle's data file, at the extent's offset.
#[derive(Debug, Clone, Copy)]
struct Ext {
    len: usize,
    /// Written locally and not yet written back.
    dirty: bool,
}

#[derive(Debug)]
struct Entry {
    /// The handle's data file.
    path: String,
    /// The data file's length as written: the end of the furthest write.
    len: u64,
    tag: Option<NfsTime3>,
    extents: BTreeMap<u64, Ext>,
    /// [`content_hash`] of each `block_size`-aligned span of the data
    /// file (zero-padded to a full block), for every block any extent
    /// touches. Maintained by `write_data`, verified on read.
    data_sums: BTreeMap<u64, u64>,
}

impl Entry {
    fn new(fh: Fh3) -> Self {
        Entry {
            path: data_path(fh),
            len: 0,
            tag: None,
            extents: BTreeMap::new(),
            data_sums: BTreeMap::new(),
        }
    }

    fn bytes(&self) -> usize {
        self.extents.values().map(|e| e.len).sum()
    }
}

/// The first extent overlapping `[start, end)`.
fn first_overlap(extents: &BTreeMap<u64, Ext>, start: u64, end: u64) -> Option<(u64, Ext)> {
    if start >= end {
        return None;
    }
    let head = extents.range(..=start).next_back().filter(|(s, e)| **s + e.len as u64 > start);
    head.or_else(|| extents.range(start..end).next()).map(|(s, e)| (*s, *e))
}

/// The first piece of `[pos, end)` that no dirty extent covers.
fn next_clean_piece(extents: &BTreeMap<u64, Ext>, mut pos: u64, end: u64) -> Option<(u64, u64)> {
    let mut at = pos;
    while let Some((key, ext)) = first_overlap(extents, at, end) {
        at = key + ext.len as u64;
        if !ext.dirty {
            continue;
        }
        if key > pos {
            return Some((pos, key));
        }
        pos = at;
    }
    (pos < end).then_some((pos, end))
}

/// Whether extents cover every byte of `[start, end)`.
fn covers(extents: &BTreeMap<u64, Ext>, start: u64, end: u64) -> bool {
    let mut pos = start;
    while pos < end {
        match extents.range(..=pos).next_back() {
            Some((s, e)) if s + e.len as u64 > pos => pos = s + e.len as u64,
            _ => return false,
        }
    }
    true
}

/// One WAL record. `InsertClean` logs clean bytes written into the data
/// file over `[offset, offset + len)`, around the dirty bytes there;
/// `InsertClean` and `WriteDirty` carry the sum of each block their
/// range touches, as it stood after the write; `Checkpoint`, a handle's
/// whole entry, at the start of a log a checkpoint began; `Synced`, that
/// the disk was synced right after it was logged; `Quarantine`, that a
/// failed verification dropped every extent overlapping its range.
#[derive(Debug)]
enum WalRecord {
    Retag { fh: Fh3, mtime: NfsTime3, drop: bool },
    InsertClean { fh: Fh3, offset: u64, len: u64, sums: Vec<u64> },
    WriteDirty { fh: Fh3, offset: u64, bytes: Vec<u8>, sums: Vec<u64> },
    CleanRange { fh: Fh3, offset: u64, len: u64 },
    DropClean { fh: Fh3 },
    Forget { fh: Fh3 },
    Checkpoint { fh: Fh3, entry: Entry },
    Quarantine { fh: Fh3, offset: u64, len: u64 },
    Synced,
}

const SYNCED: u32 = 9;

/// The starts of the `bs`-sized blocks that `[start, end)` touches.
fn blocks(bs: u64, start: u64, end: u64) -> impl ExactSizeIterator<Item = u64> {
    let first = start / bs * bs;
    let n = usize::try_from(end.saturating_sub(first).div_ceil(bs)).expect("block count fits");
    (0..n).map(move |i| first + i as u64 * bs)
}

/// The sums in `data_sums` of the blocks `[offset, end)` touches. Every
/// block an extent touches has a sum, and a logged write leaves an
/// extent or a written sum on each block of its range.
fn range_sums(
    data_sums: &BTreeMap<u64, u64>,
    bs: u64,
    offset: u64,
    end: u64,
) -> impl ExactSizeIterator<Item = u64> + '_ {
    blocks(bs, offset, end).map(|b| data_sums.get(&b).copied().unwrap_or_default())
}

/// Encodes block sums: a count, then each sum.
fn put_sums(enc: &mut Encoder, sums: impl ExactSizeIterator<Item = u64>) {
    enc.put_u32(u32::try_from(sums.len()).expect("block count fits u32"));
    for sum in sums {
        enc.put_u64(sum);
    }
}

/// Encodes a [`WalRecord::InsertClean`].
fn encode_insert_clean(
    enc: &mut Encoder,
    fh: Fh3,
    offset: u64,
    len: u64,
    sums: impl ExactSizeIterator<Item = u64>,
) {
    enc.put_u32(8);
    enc.put_u64(fh.fileid());
    enc.put_u64(offset);
    enc.put_u64(len);
    put_sums(enc, sums);
}

/// Encodes a [`WalRecord::WriteDirty`] from borrowed bytes.
fn encode_write_dirty(
    enc: &mut Encoder,
    fh: Fh3,
    offset: u64,
    bytes: &[u8],
    sums: impl ExactSizeIterator<Item = u64>,
) -> Result<(), XdrError> {
    enc.put_u32(3);
    enc.put_u64(fh.fileid());
    enc.put_u64(offset);
    enc.put_opaque(bytes)?;
    put_sums(enc, sums);
    Ok(())
}

/// Encodes a [`WalRecord::Checkpoint`] of `entry`: its length, tag,
/// extents and block sums.
fn encode_checkpoint(enc: &mut Encoder, fh: Fh3, entry: &Entry) -> Result<(), XdrError> {
    enc.put_u32(2);
    enc.put_u64(fh.fileid());
    enc.put_u64(entry.len);
    entry.tag.encode(enc)?;
    enc.put_u32(u32::try_from(entry.extents.len()).expect("extent count fits u32"));
    for (offset, ext) in &entry.extents {
        enc.put_u64(*offset);
        enc.put_u64(ext.len as u64);
        enc.put_bool(ext.dirty);
    }
    enc.put_u32(u32::try_from(entry.data_sums.len()).expect("sum count fits u32"));
    for (block, sum) in &entry.data_sums {
        enc.put_u64(*block);
        enc.put_u64(*sum);
    }
    Ok(())
}

fn get_sums(dec: &mut Decoder<'_>) -> Result<Vec<u64>, XdrError> {
    let count = dec.get_u32()?;
    (0..count).map(|_| dec.get_u64()).collect()
}

fn get_entry(dec: &mut Decoder<'_>, fh: Fh3) -> Result<Entry, XdrError> {
    let mut entry = Entry::new(fh);
    entry.len = dec.get_u64()?;
    entry.tag = Option::decode(dec)?;
    for _ in 0..dec.get_u32()? {
        let offset = dec.get_u64()?;
        let len = usize::try_from(dec.get_u64()?).map_err(|_| XdrError::LengthOverflow)?;
        entry.extents.insert(offset, Ext { len, dirty: dec.get_bool()? });
    }
    for _ in 0..dec.get_u32()? {
        entry.data_sums.insert(dec.get_u64()?, dec.get_u64()?);
    }
    Ok(entry)
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
            WalRecord::InsertClean { fh, offset, len, sums } => {
                encode_insert_clean(enc, *fh, *offset, *len, sums.iter().copied());
            }
            WalRecord::WriteDirty { fh, offset, bytes, sums } => {
                encode_write_dirty(enc, *fh, *offset, bytes, sums.iter().copied())?;
            }
            WalRecord::CleanRange { fh, offset, len }
            | WalRecord::Quarantine { fh, offset, len } => {
                enc.put_u32(if matches!(self, WalRecord::CleanRange { .. }) { 4 } else { 10 });
                enc.put_u64(fh.fileid());
                enc.put_u64(*offset);
                enc.put_u64(*len);
            }
            WalRecord::DropClean { fh } => {
                enc.put_u32(5);
                enc.put_u64(fh.fileid());
            }
            WalRecord::Forget { fh } => {
                enc.put_u32(7);
                enc.put_u64(fh.fileid());
            }
            WalRecord::Checkpoint { fh, entry } => encode_checkpoint(enc, *fh, entry)?,
            WalRecord::Synced => enc.put_u32(SYNCED),
        }
        Ok(())
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let disc = dec.get_u32()?;
        if disc == SYNCED {
            return Ok(WalRecord::Synced);
        }
        let fh = Fh3::from_fileid(dec.get_u64()?);
        Ok(match disc {
            1 => WalRecord::Retag { fh, mtime: NfsTime3::decode(dec)?, drop: dec.get_bool()? },
            8 => WalRecord::InsertClean {
                fh,
                offset: dec.get_u64()?,
                len: dec.get_u64()?,
                sums: get_sums(dec)?,
            },
            3 => WalRecord::WriteDirty {
                fh,
                offset: dec.get_u64()?,
                bytes: dec.get_opaque()?,
                sums: get_sums(dec)?,
            },
            4 => WalRecord::CleanRange { fh, offset: dec.get_u64()?, len: dec.get_u64()? },
            10 => WalRecord::Quarantine { fh, offset: dec.get_u64()?, len: dec.get_u64()? },
            5 => WalRecord::DropClean { fh },
            7 => WalRecord::Forget { fh },
            2 => WalRecord::Checkpoint { fh, entry: get_entry(dec, fh)? },
            other => {
                return Err(XdrError::InvalidDiscriminant { type_name: "WalRecord", value: other })
            }
        })
    }
}

/// The frames of a WAL image up to its torn tail: each frame's end, its
/// payload, and whether the frame's checksum holds.
fn frames(wal: &[u8]) -> impl Iterator<Item = (usize, &[u8], bool)> {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        let head = wal.get(pos..pos + 4)?;
        let len = u32::from_be_bytes(head.try_into().expect("4 bytes")) as usize;
        let end = pos.checked_add(4 + len + 8).filter(|&end| end <= wal.len())?;
        let payload = &wal[pos + 4..pos + 4 + len];
        let stored = u64::from_be_bytes(wal[end - 8..end].try_into().expect("8 bytes"));
        pos = end;
        Some((end, payload, content_hash(payload) == stored))
    })
}

/// The record a frame holds, if its checksum holds and it decodes.
fn record(payload: &[u8], sound: bool) -> Option<WalRecord> {
    sound.then(|| gvfs_xdr::from_bytes::<WalRecord>(payload).ok()).flatten()
}

#[derive(Debug, Default)]
struct Idx {
    files: HashMap<Fh3, Entry>,
    lru: BTreeMap<u64, Fh3>,
    lru_seq: HashMap<Fh3, u64>,
    next_seq: u64,
    used: usize,
    evictions: u64,
    warm_blocks: u64,
    integrity_failures: u64,
    quarantined_blocks: u64,
    wal_quarantined: u64,
    events: Vec<IntegrityEvent>,
    scrub_cursor: (u64, u64),
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

    fn entry(&mut self, fh: Fh3) -> &mut Entry {
        self.files.entry(fh).or_insert_with(|| Entry::new(fh))
    }

    /// Removes every extent piece inside `[start, end)`, keeping the
    /// parts of straddling extents outside it.
    fn remove_overlaps(&mut self, fh: Fh3, start: u64, end: u64) {
        let Some(entry) = self.files.get_mut(&fh) else { return };
        while let Some((key, ext)) = first_overlap(&entry.extents, start, end) {
            entry.extents.remove(&key);
            let ext_end = key + ext.len as u64;
            self.used -= (ext_end.min(end) - key.max(start)) as usize;
            if key < start {
                entry.extents.insert(key, Ext { len: (start - key) as usize, ..ext });
            }
            if ext_end > end {
                entry.extents.insert(end, Ext { len: (ext_end - end) as usize, ..ext });
            }
        }
    }

    /// Makes `[start, end)` one extent of the given kind.
    fn put_ext(&mut self, fh: Fh3, start: u64, end: u64, dirty: bool) {
        self.remove_overlaps(fh, start, end);
        self.entry(fh).extents.insert(start, Ext { len: (end - start) as usize, dirty });
        self.used += (end - start) as usize;
    }

    /// Merges the extents from the one before `start` through the one
    /// at `end` with adjacent extents of the same kind, as the test
    /// oracle's extent map does, so dirty-range tilings agree exactly. Every
    /// change coalesces its own range, so no seam is left elsewhere.
    fn coalesce(&mut self, fh: Fh3, start: u64, end: u64) {
        let Some(entry) = self.files.get_mut(&fh) else { return };
        let exts = &mut entry.extents;
        let first = exts.range(..start).next_back().or_else(|| exts.range(start..).next());
        let Some(mut key) = first.map(|(k, _)| *k) else { return };
        loop {
            let cur = exts[&key];
            let cur_end = key + cur.len as u64;
            if let Some(next) = exts.get(&cur_end).copied().filter(|n| n.dirty == cur.dirty) {
                exts.remove(&cur_end);
                exts.get_mut(&key).expect("current extent").len += next.len;
                continue;
            }
            if cur_end >= end {
                return;
            }
            match exts.range(cur_end..).next() {
                Some((next, _)) if *next <= end => key = *next,
                _ => return,
            }
        }
    }

    /// Marks clean every piece of `[offset, offset + len)` no dirty
    /// extent covers.
    fn apply_insert_clean(&mut self, fh: Fh3, offset: u64, len: u64) {
        let end = offset + len;
        let mut pos = offset;
        while let Some((lo, hi)) = next_clean_piece(&self.entry(fh).extents, pos, end) {
            self.put_ext(fh, lo, hi, false);
            pos = hi;
        }
        self.coalesce(fh, offset, end);
    }

    fn apply_write_dirty(&mut self, fh: Fh3, offset: u64, len: usize) {
        let end = offset + len as u64;
        self.put_ext(fh, offset, end, true);
        self.coalesce(fh, offset, end);
    }

    fn apply_clean_range(&mut self, fh: Fh3, offset: u64, len: u64) {
        let end = offset + len;
        let mut pos = offset;
        while let Some((key, ext)) =
            self.files.get(&fh).and_then(|e| first_overlap(&e.extents, pos, end))
        {
            pos = (key + ext.len as u64).min(end);
            if ext.dirty {
                self.put_ext(fh, key.max(offset), pos, false);
            }
        }
        self.coalesce(fh, offset, end);
    }

    /// Drops the file's clean extents, returning the bytes dropped.
    fn apply_drop_clean(&mut self, fh: Fh3) -> usize {
        let Some(entry) = self.files.get_mut(&fh) else { return 0 };
        let before = entry.bytes();
        entry.extents.retain(|_, e| e.dirty);
        let dropped = before - entry.bytes();
        self.used -= dropped;
        dropped
    }

    fn apply_forget(&mut self, fh: Fh3) -> Option<Entry> {
        let entry = self.files.remove(&fh);
        if let Some(seq) = self.lru_seq.remove(&fh) {
            self.lru.remove(&seq);
        }
        self.used -= entry.as_ref().map_or(0, Entry::bytes);
        entry
    }

    /// Takes the block sums and the file length a write of
    /// `[offset, end)` logged.
    fn adopt_sums(&mut self, fh: Fh3, offset: u64, end: u64, sums: &[u64], bs: u64) {
        let entry = self.entry(fh);
        entry.len = entry.len.max(end);
        entry.data_sums.extend(blocks(bs, offset, end).zip(sums.iter().copied()));
    }

    fn apply_record(&mut self, rec: WalRecord, bs: u64) {
        match rec {
            WalRecord::Retag { fh, mtime, drop } => {
                if drop {
                    self.apply_drop_clean(fh);
                }
                self.entry(fh).tag = Some(mtime);
            }
            WalRecord::InsertClean { fh, offset, len, sums } => {
                self.apply_insert_clean(fh, offset, len);
                self.adopt_sums(fh, offset, offset + len, &sums, bs);
                self.touch(fh);
            }
            WalRecord::WriteDirty { fh, offset, bytes, sums } => {
                let end = offset + bytes.len() as u64;
                self.apply_write_dirty(fh, offset, bytes.len());
                self.adopt_sums(fh, offset, end, &sums, bs);
                self.touch(fh);
            }
            WalRecord::CleanRange { fh, offset, len } => self.apply_clean_range(fh, offset, len),
            WalRecord::Quarantine { fh, offset, len } => {
                self.remove_overlaps(fh, offset, offset + len)
            }
            WalRecord::DropClean { fh } => {
                self.apply_drop_clean(fh);
            }
            WalRecord::Forget { fh } => {
                self.apply_forget(fh);
            }
            WalRecord::Checkpoint { fh, entry } => {
                // Only the start of a fresh log holds these records, one
                // per handle, so no entry is there to replace.
                self.used += entry.bytes();
                self.files.insert(fh, entry);
                self.touch(fh);
            }
            WalRecord::Synced => {}
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

/// Encodes the frame of the record that `encode` writes into the WAL's
/// kept frame buffer, which grows only to the largest frame so far.
fn encode_frame(wal: &mut WalState, encode: impl FnOnce(&mut Encoder) -> Result<(), XdrError>) {
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

/// The persistent store; see the module docs.
#[derive(Debug)]
pub struct PersistentStore {
    cfg: PersistConfig,
    disk: Arc<VirtualDisk>,
    idx: Idx,
    wal: WalState,
}

impl PersistentStore {
    /// Opens (or creates) the store on `disk`, replaying the WAL left by
    /// a previous incarnation. Replay I/O is treated as mount-time work:
    /// its simulated cost is discarded.
    #[must_use]
    pub fn open(disk: Arc<VirtualDisk>, cfg: PersistConfig) -> Self {
        let mut store =
            PersistentStore { cfg, disk, idx: Idx::default(), wal: WalState::default() };
        store.replay();
        let _ = store.disk.take_pending_cost();
        store
    }

    /// The underlying disk (shared with a restarted successor).
    #[must_use]
    pub fn disk(&self) -> Arc<VirtualDisk> {
        Arc::clone(&self.disk)
    }

    fn block_len(&self) -> usize {
        usize::try_from(self.cfg.block_size).expect("block size fits usize")
    }

    // --- WAL ---

    fn log(&mut self, rec: &WalRecord) {
        encode_frame(&mut self.wal, |enc| rec.encode(enc));
        self.append_frame();
    }

    /// Appends the encoded frame to the WAL, then syncs or checkpoints
    /// when one is due.
    fn append_frame(&mut self) {
        self.disk.append(WAL_PATH, &self.wal.frame);
        self.wal.since_sync += 1;
        self.wal.since_checkpoint += 1;
        if self.wal.since_checkpoint >= self.cfg.checkpoint_every {
            self.checkpoint();
        } else if self.wal.since_sync >= self.cfg.sync_every {
            self.sync_wal();
        }
    }

    /// Syncs the disk, first marking the end of the synced log with a
    /// `Synced` record if anything was logged since the last one.
    fn sync_wal(&mut self) {
        if self.wal.since_sync > 0 {
            encode_frame(&mut self.wal, |enc| WalRecord::Synced.encode(enc));
            self.disk.append(WAL_PATH, &self.wal.frame);
        }
        self.disk.sync();
        self.wal.since_sync = 0;
    }

    /// Starts a fresh WAL whose first records are the index, one
    /// `Checkpoint` record per handle in handle order, then a `Synced`
    /// one; it replaces the log once it is synced.
    fn checkpoint(&mut self) {
        self.disk.remove(WAL_NEW_PATH);
        let mut fhs: Vec<Fh3> = self.idx.files.keys().copied().collect();
        fhs.sort_unstable();
        for fh in fhs {
            encode_frame(&mut self.wal, |enc| encode_checkpoint(enc, fh, &self.idx.files[&fh]));
            self.disk.append(WAL_NEW_PATH, &self.wal.frame);
        }
        encode_frame(&mut self.wal, |enc| WalRecord::Synced.encode(enc));
        self.disk.append(WAL_NEW_PATH, &self.wal.frame);
        self.disk.sync();
        self.disk.rename(WAL_NEW_PATH, WAL_PATH);
        self.disk.sync();
        self.wal.since_sync = 0;
        self.wal.since_checkpoint = 0;
    }

    /// Replays the WAL up to its last `Synced` record (the barrier),
    /// skipping and counting any frame that fails verification, a
    /// checkpoint's records among them; these records' data writes
    /// reached the disk, so their logged sums are taken as they are.
    /// Each data file is then cut to the length those records wrote
    /// (and a file no entry owns is removed), which drops whatever bytes
    /// unsynced writes left. After the barrier, dirty writes are redone
    /// from the log, and the log ends at the first clean insert, whose
    /// bytes it does not hold, or at the first frame that fails
    /// verification. The sums of the blocks the records from there on
    /// wrote are taken afresh, and the WAL is truncated there. The index
    /// it replaces leaves only its lifetime counters behind.
    fn replay(&mut self) {
        let old = std::mem::take(&mut self.idx);
        self.idx.evictions = old.evictions;
        self.idx.integrity_failures = old.integrity_failures;
        self.idx.quarantined_blocks = old.quarantined_blocks;
        self.idx.wal_quarantined = old.wal_quarantined;
        let wal_bytes = self.disk.read(WAL_PATH, 0, usize::MAX).unwrap_or_default();
        // A `Synced` record is the only one whose payload is its 4-byte
        // discriminant, so a rotted one still marks its barrier.
        let synced_end = frames(&wal_bytes)
            .filter(|(_, payload, _)| payload.len() == 4)
            .map(|(end, ..)| end)
            .last()
            .unwrap_or(0);
        let bs = self.cfg.block_size;
        let mut frames = frames(&wal_bytes).peekable();
        while let Some((_, payload, sound)) = frames.next_if(|(end, ..)| *end <= synced_end) {
            if let Some(rec) = record(payload, sound) {
                self.idx.apply_record(rec, bs);
            } else {
                // Interior corruption (flipped payload bit or an
                // undecodable record): quarantine the frame but keep
                // the durable frames behind it.
                self.idx.wal_quarantined += 1;
                self.idx.integrity_failures += 1;
            }
        }
        self.settle_data_files();
        let mut valid = synced_end;
        let mut unsynced = 0;
        let mut cut = false;
        for (end, payload, sound) in frames {
            let rec = record(payload, sound);
            match rec {
                Some(rec) if !cut && !matches!(rec, WalRecord::InsertClean { .. }) => {
                    match &rec {
                        // Redo: the WAL carries the dirty bytes.
                        WalRecord::WriteDirty { fh, offset, bytes, .. } => {
                            self.disk.write(&self.idx.entry(*fh).path, *offset, bytes);
                        }
                        WalRecord::Forget { fh } => {
                            if let Some(entry) = self.idx.files.get(fh) {
                                self.disk.remove(&entry.path);
                            }
                        }
                        _ => {}
                    }
                    self.idx.apply_record(rec, bs);
                    unsynced += 1;
                    valid = end;
                    continue;
                }
                None if !cut => {
                    self.idx.wal_quarantined += 1;
                    self.idx.integrity_failures += 1;
                }
                _ => {}
            }
            // The log ends before this record, but with no crash between,
            // its write reached the disk: re-take the sums it changed.
            cut = true;
            let written = match rec {
                Some(WalRecord::InsertClean { fh, offset, len, .. }) => (fh, offset, offset + len),
                Some(WalRecord::WriteDirty { fh, offset, bytes, .. }) => {
                    (fh, offset, offset + bytes.len() as u64)
                }
                _ => continue,
            };
            self.retake_sums(written);
        }
        if valid < wal_bytes.len() {
            self.disk.truncate(WAL_PATH, valid as u64);
        }
        // Everything replayed clean is servable warm.
        self.idx.warm_blocks = count_clean_blocks(&self.idx, bs);
        // The replayed records after the last `Synced` one are still
        // unsynced: the next sync marks them.
        self.wal.since_sync = unsynced;
        self.wal.since_checkpoint = 0;
    }

    /// Takes afresh from the disk the sums that `fh` holds for the blocks
    /// of `[start, end)`.
    fn retake_sums(&mut self, (fh, start, end): (Fh3, u64, u64)) {
        let Some(entry) = self.idx.files.get(&fh) else { return };
        let sums: Vec<(u64, u64)> = blocks(self.cfg.block_size, start, end)
            .filter(|b| entry.data_sums.contains_key(b))
            .map(|b| (b, self.block_hash(entry, b)))
            .collect();
        self.idx.entry(fh).data_sums.extend(sums);
    }

    /// Cuts each data file to the length its entry's writes reached and
    /// removes the data files no entry owns: at the barrier, every byte
    /// past those lengths is from a write the barrier does not cover.
    fn settle_data_files(&self) {
        let lens: HashMap<&str, u64> =
            self.idx.files.values().map(|e| (e.path.as_str(), e.len)).collect();
        for path in self.disk.list("data/") {
            match lens.get(path.as_str()) {
                None => self.disk.remove(&path),
                Some(&len) if self.disk.len(&path).is_some_and(|l| l > len) => {
                    self.disk.truncate(&path, len);
                }
                Some(_) => {}
            }
        }
    }

    /// Updates the sums of the blocks a write of `bytes` at `offset`
    /// touches. Partially covered blocks are pre-verified (quarantining
    /// on mismatch) so a corrupt byte is never laundered into a fresh
    /// sum, and the new sums hash the *intended* content, so a torn
    /// write fails its next verification.
    fn sum_blocks(&mut self, fh: Fh3, offset: u64, bytes: &[u8]) {
        let bs = self.cfg.block_size;
        let block_len = self.block_len();
        let end = offset + bytes.len() as u64;
        let entry = self.idx.entry(fh);
        // Only the first and the last block can be partial.
        let mut rotted = [None; 2];
        for b in blocks(bs, offset, end) {
            let lo = b.max(offset);
            let hi = (b + bs).min(end);
            let new = &bytes[usize::try_from(lo - offset).expect("in write")
                ..usize::try_from(hi - offset).expect("in write")];
            let sum = if lo == b && hi == b + bs {
                // A fully covered block hashes straight from the write.
                content_hash(new)
            } else {
                let recorded = entry.data_sums.get(&b).copied();
                let (from, to) = (
                    usize::try_from(lo - b).expect("in block"),
                    usize::try_from(hi - b).expect("in block"),
                );
                // The old block and the new one (the old bytes around
                // the write), zero-padded and hashed from the disk's
                // pages; an absent file reads as zeros.
                let hash = |span: Slices<'_>| {
                    let old = recorded.map(|_| slices_hash(span, block_len));
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
                    .read_quiet(&entry.path, b, block_len, hash)
                    .unwrap_or_else(|| hash(Slices::default()));
                if old != recorded {
                    rotted[usize::from(b > offset)] = Some(b);
                }
                sum
            };
            entry.data_sums.insert(b, sum);
        }
        for b in rotted.into_iter().flatten() {
            self.quarantine(fh, b, b + bs);
        }
    }

    /// Writes `bytes` into the handle's data file, maintaining the
    /// per-block sums ([`PersistentStore::sum_blocks`]). An owned
    /// `bytes` goes to [`VirtualDisk::write_owned`], which may keep the
    /// buffer as a page.
    fn write_data(&mut self, fh: Fh3, offset: u64, bytes: Cow<'_, [u8]>) {
        self.sum_blocks(fh, offset, &bytes);
        self.put_bytes(fh, offset, bytes);
    }

    /// The disk write of [`PersistentStore::write_data`], after the sums.
    fn put_bytes(&mut self, fh: Fh3, offset: u64, bytes: Cow<'_, [u8]>) {
        let entry = self.idx.entry(fh);
        entry.len = entry.len.max(offset + bytes.len() as u64);
        match bytes {
            Cow::Borrowed(bytes) => self.disk.write(&entry.path, offset, bytes),
            Cow::Owned(bytes) => self.disk.write_owned(&entry.path, offset, bytes),
        }
    }

    /// The data file's block at `block`, zero-padded and hashed. The
    /// read is quiet (no cost, no dice) but still sees durable bit rot —
    /// flips persist in the content.
    fn block_hash(&self, entry: &Entry, block: u64) -> u64 {
        let block_len = self.block_len();
        self.disk
            .read_quiet(&entry.path, block, block_len, |span| slices_hash(span, block_len))
            .unwrap_or_else(|| slices_hash(Slices::default(), block_len))
    }

    /// Whether the data file's block at `block` matches its sum.
    fn block_sound(&self, entry: &Entry, block: u64) -> bool {
        entry.data_sums.get(&block).is_some_and(|&sum| self.block_hash(entry, block) == sum)
    }

    /// The blocks of `[start, end)` that fail their sums.
    fn unsound_blocks(&self, entry: &Entry, start: u64, end: u64) -> Vec<u64> {
        blocks(self.cfg.block_size, start, end).filter(|&b| !self.block_sound(entry, b)).collect()
    }

    /// Quarantines `[start, end)` of `fh` after a failed verification:
    /// every overlapping extent is dropped instead of served, and one
    /// [`IntegrityEvent`] is queued for the client per dirty piece
    /// (data loss) and one for the span of the clean pieces (a
    /// repairable miss).
    fn quarantine(&mut self, fh: Fh3, start: u64, end: u64) {
        let idx = &mut self.idx;
        idx.integrity_failures += 1;
        let Some(entry) = idx.files.get(&fh) else { return };
        let first = idx.events.len();
        let mut clean: Option<(u64, u64)> = None;
        let mut pos = start;
        while let Some((key, ext)) = first_overlap(&entry.extents, pos, end) {
            let lo = key.max(start);
            pos = (key + ext.len as u64).min(end);
            if ext.dirty {
                let len = pos - lo;
                idx.events.push(IntegrityEvent { fh, offset: lo, len, dirty: true, served: false });
            } else {
                clean = Some((clean.map_or(lo, |(from, _)| from), pos));
            }
        }
        if let Some((lo, hi)) = clean {
            let ev = IntegrityEvent { fh, offset: lo, len: hi - lo, dirty: false, served: false };
            idx.events.insert(first, ev);
        }
        idx.quarantined_blocks += (idx.events.len() - first) as u64;
        idx.remove_overlaps(fh, start, end);
        // Logged, so a restart does not bring the dropped bytes back.
        self.log(&WalRecord::Quarantine { fh, offset: start, len: end - start });
    }

    /// Counts a verification failure in served-anyway mode (the
    /// `--break-scrub` knob): the corrupt block stays in the index and
    /// its bytes in `[start, end)` go to the reader, which the oracles
    /// must convict.
    fn note_served_corrupt(&mut self, fh: Fh3, start: u64, end: u64) {
        let idx = &mut self.idx;
        idx.integrity_failures += 1;
        let dirty = idx
            .files
            .get(&fh)
            .is_some_and(|e| next_clean_piece(&e.extents, start, end) != Some((start, end)));
        idx.events.push(IntegrityEvent {
            fh,
            offset: start,
            len: end - start,
            dirty,
            served: true,
        });
    }

    /// Drops clean extents of least-recently-used files until within
    /// capacity. Dirty data is never evicted, so the loop also stops
    /// once a full LRU pass has dropped nothing.
    fn evict_over_capacity(&mut self) {
        // Consecutive dirty-only files re-touched without dropping a byte.
        let mut idle = 0;
        while self.idx.used > self.cfg.capacity {
            let Some((&seq, &fh)) = self.idx.lru.iter().next() else { break };
            self.idx.lru.remove(&seq);
            self.idx.lru_seq.remove(&fh);
            if !self.idx.files.contains_key(&fh) {
                continue;
            }
            let dropped = self.idx.apply_drop_clean(fh);
            if dropped > 0 {
                self.idx.evictions += 1;
                self.log(&WalRecord::DropClean { fh });
            }
            if self.idx.files.get(&fh).is_some_and(|e| !e.extents.is_empty()) {
                // Still dirty: keep hot so the loop can make progress.
                self.idx.touch(fh);
                idle = if dropped > 0 { 0 } else { idle + 1 };
                if self.idx.lru.len() <= 1 || idle >= self.idx.lru.len() {
                    break;
                }
            }
        }
    }
}

/// A data-file read of `len` bytes: what lies past the end of the file
/// (or of an absent file) reads as zeros, as the block sums hash it.
fn zero_padded(bytes: Option<Vec<u8>>, len: usize) -> Vec<u8> {
    let mut bytes = bytes.unwrap_or_default();
    bytes.resize(len, 0);
    bytes
}

fn count_clean_blocks(idx: &Idx, block_size: u64) -> u64 {
    let clean = |entry: &Entry| {
        let ranges = entry.extents.iter().filter(|(_, e)| !e.dirty).map(|(o, e)| (*o, e.len));
        blocks_touched(ranges, block_size).count() as u64
    };
    idx.files.values().map(clean).sum()
}

impl PersistentStore {
    /// The bytes in `[offset, offset+len)` if fully covered, touching
    /// the file in the LRU. Only the blocks served are verified; a block
    /// that fails is quarantined and the read becomes a miss.
    pub fn read(&mut self, fh: Fh3, offset: u64, len: usize) -> Option<Vec<u8>> {
        let entry = self.idx.files.get(&fh)?;
        if len == 0 {
            return Some(Vec::new());
        }
        let end = offset + len as u64;
        if !covers(&entry.extents, offset, end) {
            return None;
        }
        // Read first, verify second: a bit that rots during the read
        // persists in the content, so the verification sees it and the
        // corrupt bytes are never served. Only the blocks served are
        // verified, and only the failing ones are quarantined.
        let bytes = self.disk.try_read(&entry.path, offset, len).ok().map(|b| zero_padded(b, len));
        let unsound = self.unsound_blocks(entry, offset, end);
        let bs = self.cfg.block_size;
        for &b in &unsound {
            if self.cfg.verify {
                self.quarantine(fh, b, b + bs);
            } else {
                self.note_served_corrupt(fh, b.max(offset), (b + bs).min(end));
            }
        }
        if self.cfg.verify && !unsound.is_empty() {
            return None; // now a miss; the read path refetches
        }
        let bytes = bytes?;
        self.idx.touch(fh);
        Some(bytes)
    }

    /// The sub-ranges of `[offset, offset+len)` not covered by cached
    /// extents, in order; an unknown file is one whole gap. Dirty
    /// extents count as covered: locally written bytes are never
    /// refetched.
    pub fn missing_ranges(&self, fh: Fh3, offset: u64, len: usize) -> Vec<(u64, usize)> {
        let Some(entry) = self.idx.files.get(&fh) else {
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

    /// Stores server-fetched bytes; cached dirty bytes beat the
    /// incoming clean data.
    pub fn insert_clean(&mut self, fh: Fh3, offset: u64, data: Vec<u8>) {
        if data.is_empty() {
            return;
        }
        let end = offset + data.len() as u64;
        // Cached dirty bytes beat the incoming clean ones: only the
        // pieces no dirty extent covers now are written (a write that
        // quarantines a dirty extent leaves its range a hole).
        let extents = &self.idx.entry(fh).extents;
        if next_clean_piece(extents, offset, end) == Some((offset, end)) {
            self.write_data(fh, offset, Cow::Owned(data));
            self.idx.put_ext(fh, offset, end, false);
        } else {
            let pieces: Vec<(u64, u64)> =
                std::iter::successors(next_clean_piece(extents, offset, end), |&(_, hi)| {
                    next_clean_piece(extents, hi, end)
                })
                .collect();
            for (lo, hi) in pieces {
                let piece = &data[(lo - offset) as usize..(hi - offset) as usize];
                self.write_data(fh, lo, Cow::Borrowed(piece));
                self.idx.put_ext(fh, lo, hi, false);
            }
        }
        self.idx.coalesce(fh, offset, end);
        self.idx.touch(fh);
        let sums = range_sums(&self.idx.files[&fh].data_sums, self.cfg.block_size, offset, end);
        encode_frame(&mut self.wal, |enc| {
            encode_insert_clean(enc, fh, offset, end - offset, sums);
            Ok(())
        });
        self.append_frame();
        self.evict_over_capacity();
    }

    /// Records locally written bytes as dirty (write-back mode).
    pub fn write_dirty(&mut self, fh: Fh3, offset: u64, data: Vec<u8>) {
        if data.is_empty() {
            return;
        }
        let (len, end) = (data.len(), offset + data.len() as u64);
        self.sum_blocks(fh, offset, &data);
        // The frame is encoded before the disk write, so the data file
        // can keep `data`.
        let sums = range_sums(&self.idx.files[&fh].data_sums, self.cfg.block_size, offset, end);
        encode_frame(&mut self.wal, |enc| encode_write_dirty(enc, fh, offset, &data, sums));
        self.put_bytes(fh, offset, Cow::Owned(data));
        self.idx.apply_write_dirty(fh, offset, len);
        self.idx.touch(fh);
        self.append_frame();
        self.evict_over_capacity();
    }

    /// Marks every byte of `[offset, offset+len)` clean after a
    /// successful write-back, splitting extents at the boundaries. A
    /// durability barrier.
    pub fn clean_range(&mut self, fh: Fh3, offset: u64, len: u64) {
        if self.idx.files.contains_key(&fh) {
            self.idx.apply_clean_range(fh, offset, len);
            self.log(&WalRecord::CleanRange { fh, offset, len });
        }
        // The server holds the data now; make the clean marking (and the
        // write-back it records) durable so a restart serves it warm
        // instead of re-flushing. Unconditional: clean_range is always a
        // durability barrier, whether or not the handle was cached.
        self.sync_wal();
    }

    /// Drops the file's clean extents, keeping dirty data.
    pub fn drop_clean(&mut self, fh: Fh3) {
        if !self.idx.files.contains_key(&fh) {
            return;
        }
        self.idx.apply_drop_clean(fh);
        self.log(&WalRecord::DropClean { fh });
    }

    /// Drops everything known about the file (it was removed),
    /// including its mtime tag.
    pub fn forget(&mut self, fh: Fh3) {
        if !self.idx.files.contains_key(&fh) && !self.idx.lru_seq.contains_key(&fh) {
            return;
        }
        if let Some(entry) = self.idx.apply_forget(fh) {
            self.disk.remove(&entry.path);
        }
        self.log(&WalRecord::Forget { fh });
    }

    /// Offsets and lengths of the file's dirty extents, in order.
    pub fn dirty_ranges(&self, fh: Fh3) -> Vec<(u64, usize)> {
        self.idx.files.get(&fh).map_or_else(Vec::new, |e| {
            e.extents.iter().filter(|(_, x)| x.dirty).map(|(o, x)| (*o, x.len)).collect()
        })
    }

    /// Aligned offsets of every `block_size` block holding dirty bytes
    /// — the "list of blocks' offsets" a recalled write delegation
    /// reports (§4.3.2).
    pub fn dirty_blocks(&self, fh: Fh3, block_size: u64) -> Vec<u64> {
        blocks_touched(self.dirty_ranges(fh), block_size).collect()
    }

    /// The dirty byte segments inside one aligned block, as
    /// `(absolute_offset, bytes)` pairs. A segment that fails
    /// verification is quarantined (reported as dirty data loss), never
    /// handed to the flusher.
    pub fn dirty_in_block(
        &mut self,
        fh: Fh3,
        block_offset: u64,
        block_size: u64,
    ) -> Vec<(u64, Vec<u8>)> {
        let end = block_offset + block_size;
        let mut out = Vec::new();
        let mut served = Vec::new();
        let mut lost = Vec::new();
        let Some(entry) = self.idx.files.get(&fh) else { return out };
        let mut pos = block_offset;
        while let Some((key, ext)) = first_overlap(&entry.extents, pos, end) {
            let lo = key.max(block_offset);
            pos = (key + ext.len as u64).min(end);
            if !ext.dirty {
                continue;
            }
            // Verify before handing dirty bytes to the flusher: a
            // corrupt block must surface as data loss, never be written
            // back to the origin as if it were the application's data.
            let want = (pos - lo) as usize;
            let bytes =
                self.disk.try_read(&entry.path, lo, want).ok().map(|b| zero_padded(b, want));
            let sound = self.unsound_blocks(entry, lo, pos).is_empty();
            match bytes {
                Some(b) if sound => out.push((lo, b)),
                Some(b) if !self.cfg.verify => {
                    served.push((lo, pos));
                    out.push((lo, b));
                }
                _ => lost.push((lo, pos)),
            }
        }
        for (lo, hi) in served {
            self.note_served_corrupt(fh, lo, hi);
        }
        let bs = self.cfg.block_size;
        for (lo, hi) in lost {
            self.quarantine(fh, lo / bs * bs, hi.div_ceil(bs) * bs);
        }
        out
    }

    /// Whether the file holds any dirty extent.
    pub fn has_dirty(&self, fh: Fh3) -> bool {
        self.idx.files.get(&fh).is_some_and(|e| e.extents.values().any(|x| x.dirty))
    }

    /// All files holding dirty data, sorted.
    pub fn dirty_files(&self) -> Vec<Fh3> {
        let mut v: Vec<Fh3> = self
            .idx
            .files
            .iter()
            .filter(|(_, e)| e.extents.values().any(|x| x.dirty))
            .map(|(fh, _)| *fh)
            .collect();
        v.sort_unstable();
        v
    }

    /// Revalidates the file against a server mtime: if the recorded tag
    /// differs, clean content is dropped (the protocol invalidated it).
    /// Records `mtime` as the new tag either way.
    pub fn revalidate(&mut self, fh: Fh3, mtime: NfsTime3) {
        let idx = &mut self.idx;
        let changed = idx.files.get(&fh).and_then(|e| e.tag).is_some_and(|t| t != mtime);
        if changed {
            idx.apply_drop_clean(fh);
        }
        let had_entry = idx.files.contains_key(&fh);
        let prev_tag = idx.files.get(&fh).and_then(|e| e.tag);
        idx.entry(fh).tag = Some(mtime);
        // Only log when something durable changed: first sight of the
        // handle, a tag move, or a clean drop.
        if changed || !had_entry || prev_tag != Some(mtime) {
            self.log(&WalRecord::Retag { fh, mtime, drop: changed });
        }
    }

    /// Records `mtime` as the file's tag without dropping content (the
    /// mtime moved because of our own write).
    pub fn retag(&mut self, fh: Fh3, mtime: NfsTime3) {
        let prev = self.idx.files.get(&fh).and_then(|e| e.tag);
        self.idx.entry(fh).tag = Some(mtime);
        if prev != Some(mtime) {
            self.log(&WalRecord::Retag { fh, mtime, drop: false });
        }
    }

    /// Bytes of file content cached.
    pub fn used_bytes(&self) -> usize {
        self.idx.used
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        let idx = &self.idx;
        StoreStats {
            bytes: idx.used as u64,
            evictions: idx.evictions,
            restart_warm_blocks: idx.warm_blocks,
            integrity_failures: idx.integrity_failures,
            quarantined_blocks: idx.quarantined_blocks,
            wal_quarantined_frames: idx.wal_quarantined,
        }
    }

    /// Durability barrier: everything stored so far survives a crash.
    pub fn sync(&mut self) {
        self.sync_wal();
    }

    /// Simulates a machine crash followed by a reopen: volatile state is
    /// lost, the index is replayed from disk, and entries whose dirty
    /// WAL records are torn are discarded.
    pub fn crash_reopen(&mut self) {
        self.disk.crash();
        self.replay();
    }

    /// Drains accrued simulated I/O cost. The caller charges it to its
    /// actor clock while holding no locks.
    pub fn take_cost(&mut self) -> Duration {
        self.disk.take_pending_cost()
    }

    /// Drains the extents quarantined since the last drain. The caller
    /// attributes them: the demand read path counts clean ones as
    /// refetch repairs, the scrub actor as scrub repairs, and dirty
    /// ones as explicit data loss.
    pub fn take_integrity_events(&mut self) -> Vec<IntegrityEvent> {
        std::mem::take(&mut self.idx.events)
    }

    /// Verifies up to `max_bytes` of stored content ahead of demand,
    /// advancing a persistent sweep cursor; mismatches quarantine
    /// exactly as verify-on-read does. Returns the bytes verified (0
    /// when there is nothing to scrub, or with verification off).
    pub fn scrub_step(&mut self, max_bytes: usize) -> usize {
        if !self.cfg.verify {
            return 0;
        }
        let bs = self.cfg.block_size;
        // A stable sweep order over every stored block; the persistent
        // cursor picks up where the previous step stopped so repeated
        // small steps cover the whole store.
        let mut blocks: Vec<(u64, u64)> = self
            .idx
            .files
            .iter()
            .flat_map(|(fh, e)| {
                let ranges = e.extents.iter().map(|(o, x)| (*o, x.len));
                blocks_touched(ranges, bs).map(|b| (fh.fileid(), b))
            })
            .collect();
        if blocks.is_empty() {
            return 0;
        }
        blocks.sort_unstable();
        let at = blocks.partition_point(|&key| key < self.idx.scrub_cursor);
        let n = blocks.len();
        blocks.rotate_left(at % n);
        let mut scrubbed = 0usize;
        let mut next = (0, 0);
        for (i, &(id, b)) in blocks.iter().enumerate() {
            if scrubbed >= max_bytes {
                next = (id, b);
                break;
            }
            let fh = Fh3::from_fileid(id);
            if !self.block_sound(&self.idx.files[&fh], b) {
                self.quarantine(fh, b, b + bs);
            }
            scrubbed += self.block_len();
            if i + 1 == blocks.len() {
                next = (0, 0); // wrapped: restart the sweep
            }
        }
        self.idx.scrub_cursor = next;
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

    const BS: u64 = 32 * 1024;

    /// The fill of block `b` of the multi-block tests.
    fn blocks(n: u64) -> Vec<u8> {
        (0..n * BS).map(|i| (i / BS * 7 + i % 251) as u8).collect()
    }

    /// A clean insert over a range holding dirty bytes writes only the
    /// pieces around them: the dirty bytes, the sum of the block they
    /// fill and the dirty tiling are the same before and after the
    /// insert and a crash, and the clean pieces read back.
    #[test]
    fn a_clean_insert_never_touches_dirty_bytes() {
        let mut s = store();
        let fh = Fh3::from_fileid(1);
        let dirty = vec![0xd1; (BS + BS / 2) as usize];
        s.write_dirty(fh, BS / 2, dirty.clone());
        s.sync();
        let path = data_path(fh);
        let sum_1 = |s: &PersistentStore| s.idx.files[&fh].data_sums[&BS];
        let before = sum_1(&s);
        let clean = blocks(3);
        s.insert_clean(fh, 0, clean.clone());
        s.sync();
        for crashed in [false, true] {
            if crashed {
                s.crash_reopen();
            }
            assert_eq!(s.disk.read(&path, BS / 2, dirty.len()).unwrap(), dirty, "{crashed}");
            assert_eq!(sum_1(&s), before, "the dirty block's sum ({crashed})");
            assert_eq!(s.dirty_ranges(fh), vec![(BS / 2, dirty.len())], "{crashed}");
            let mut want = clean.clone();
            want[(BS / 2) as usize..(2 * BS) as usize].copy_from_slice(&dirty);
            assert_eq!(s.read(fh, 0, want.len()).unwrap(), want, "{crashed}");
            assert_eq!(s.stats().integrity_failures, 0, "{crashed}");
        }
    }

    /// A crash that keeps a clean insert's WAL record but tears its
    /// data-file write leaves the range a miss; the torn bytes are never
    /// served. The log ends at that record, so the dirty write logged
    /// after it is gone too: what replay recovers is a prefix of the
    /// operations.
    #[test]
    fn a_clean_write_torn_by_a_crash_is_a_miss() {
        let disk = VirtualDisk::new(DiskConfig::instant());
        let cfg = PersistConfig { capacity: 1 << 20, ..PersistConfig::default() };
        let mut s = PersistentStore::open(Arc::clone(&disk), cfg);
        let (fh, later) = (Fh3::from_fileid(1), Fh3::from_fileid(2));
        s.write_dirty(later, 0, vec![7; 10]);
        s.sync();
        s.insert_clean(fh, 0, blocks(1));
        s.write_dirty(later, 0, vec![8; 10]);
        // A larger record after both, so the WAL's kept half of the
        // unsynced tail holds their frames whole.
        s.write_dirty(Fh3::from_fileid(3), 0, vec![3; 4 * BS as usize]);
        drop(s);
        disk.crash();
        let wal = disk.read(WAL_PATH, 0, usize::MAX).unwrap();
        let recs: Vec<WalRecord> =
            frames(&wal).map(|(_, p, sound)| record(p, sound).unwrap()).collect();
        assert!(matches!(recs[2], WalRecord::InsertClean { .. }), "the record survived: {recs:?}");
        assert!(matches!(recs[3], WalRecord::WriteDirty { .. }), "{recs:?}");
        assert!(disk.len(&data_path(fh)).unwrap() < BS, "the data-file write was torn");
        let mut s = PersistentStore::open(Arc::clone(&disk), cfg);
        assert_eq!(s.read(fh, 0, BS as usize), None, "torn bytes are never served");
        assert_eq!(s.missing_ranges(fh, 0, BS as usize), vec![(0, BS as usize)]);
        assert_eq!(s.stats().restart_warm_blocks, 0);
        assert_eq!(s.read(later, 0, 10).unwrap(), vec![7; 10], "the synced write, not the later");
        let synced_end = frames(&wal).nth(1).unwrap().0 as u64;
        assert_eq!(disk.len(WAL_PATH), Some(synced_end), "the log ends at the insert");
        s.insert_clean(fh, 0, blocks(1));
        assert_eq!(s.read(fh, 0, BS as usize).unwrap(), blocks(1), "and refetchable");
    }

    /// One flipped byte in a 16-block clean extent costs exactly that
    /// block, whether a read or the scrub sweep finds it.
    #[test]
    fn one_rotted_byte_in_a_16_block_extent_costs_one_block() {
        for scrub in [false, true] {
            let mut s = store();
            let fh = Fh3::from_fileid(1);
            let data = blocks(16);
            s.insert_clean(fh, 0, data.clone());
            assert_eq!(s.idx.files[&fh].extents.len(), 1, "one coalesced extent");
            assert!(s.disk.corrupt_byte(&data_path(fh), 5 * BS + 9, 0x10));
            if scrub {
                assert_eq!(s.scrub_step(usize::MAX), 16 * BS as usize);
            } else {
                assert!(s.read(fh, 0, data.len()).is_none(), "rot is never served");
            }
            let st = s.stats();
            assert_eq!((st.integrity_failures, st.quarantined_blocks), (1, 1), "scrub {scrub}");
            let ev = s.take_integrity_events();
            let one = IntegrityEvent { fh, offset: 5 * BS, len: BS, dirty: false, served: false };
            assert_eq!(ev, vec![one], "scrub {scrub}");
            assert_eq!(s.missing_ranges(fh, 0, data.len()), vec![(5 * BS, BS as usize)]);
            let (head, tail) = (5 * BS as usize, 6 * BS as usize);
            assert_eq!(s.read(fh, 0, head).unwrap(), data[..head]);
            assert_eq!(s.read(fh, 6 * BS, data.len() - tail).unwrap(), data[tail..]);
        }
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

    /// Writes 80 dirty bytes to each of two files of a store with room
    /// for 100 and checks that eviction gives up instead of spinning:
    /// both files stay dirty and nothing is dropped. The writes run on a
    /// thread behind a watchdog, so a spinning loop fails the test
    /// instead of hanging it.
    #[test]
    fn eviction_stops_when_dirty_data_alone_exceeds_capacity() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cfg = PersistConfig { capacity: 100, ..PersistConfig::default() };
            let mut s = PersistentStore::open(VirtualDisk::new(DiskConfig::instant()), cfg);
            s.write_dirty(Fh3::from_fileid(1), 0, vec![1; 80]);
            s.write_dirty(Fh3::from_fileid(2), 0, vec![2; 80]);
            let _ = tx.send((s.dirty_files(), s.used_bytes()));
        });
        let (dirty, used) =
            rx.recv_timeout(Duration::from_secs(10)).expect("evict spun on dirty-only data");
        assert_eq!(dirty, vec![Fh3::from_fileid(1), Fh3::from_fileid(2)]);
        assert_eq!(used, 160, "dirty data is never evicted");
    }

    /// Asserts that the log on `disk` starts as a checkpoint left it,
    /// one `Checkpoint` record per handle and then a `Synced` one, and
    /// that the disk holds no file but the log and the data files.
    fn assert_checkpointed_log(disk: &VirtualDisk, handles: usize) {
        let wal = disk.read(WAL_PATH, 0, usize::MAX).unwrap();
        let recs: Vec<WalRecord> =
            frames(&wal).map(|(_, p, sound)| record(p, sound).unwrap()).collect();
        let (index, rest) = recs.split_at(handles);
        assert!(index.iter().all(|r| matches!(r, WalRecord::Checkpoint { .. })), "{recs:?}");
        assert!(matches!(rest.first(), Some(WalRecord::Synced)), "{recs:?}");
        let files = disk.list("");
        assert!(files.iter().all(|p| p == WAL_PATH || p.starts_with("data/")), "{files:?}");
    }

    #[test]
    fn checkpoint_starts_a_fresh_wal_with_the_index() {
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
        assert_checkpointed_log(&disk, 1);
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

    /// A flipped bit under a clean extent is never served: the read
    /// misses, the block is quarantined, and re-inserting the fetched
    /// bytes (what the client's refetch repair does) reconverges.
    #[test]
    fn corrupt_clean_block_quarantined_then_repaired() {
        let mut s = store();
        let fh = Fh3::from_fileid(1);
        let data: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        s.insert_clean(fh, 0, data.clone());
        assert!(s.disk.corrupt_byte(&data_path(fh), 100, 0xff));
        assert!(s.read(fh, 0, 4096).is_none(), "corrupt bytes are never served");
        let st = s.stats();
        assert_eq!(st.integrity_failures, 1);
        assert_eq!(st.quarantined_blocks, 1);
        let ev = s.take_integrity_events();
        assert_eq!(ev.len(), 1);
        assert!(!ev[0].dirty && !ev[0].served);
        assert_eq!((ev[0].offset, ev[0].len), (0, 4096), "the event spans the clean bytes");
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

    /// A quarantine is logged: the dirty bytes a read dropped stay
    /// dropped across a sync and a crash, so the loss is reported once.
    #[test]
    fn a_quarantine_survives_a_restart() {
        let mut s = store();
        let fh = Fh3::from_fileid(1);
        s.write_dirty(fh, 0, vec![7; 100]);
        assert!(s.disk.corrupt_byte(&data_path(fh), 50, 0x01));
        assert!(s.read(fh, 0, 100).is_none());
        assert_eq!(s.take_integrity_events().len(), 1);
        s.sync();
        s.crash_reopen();
        assert_eq!(s.dirty_ranges(fh), vec![], "the quarantined extent stays dropped");
        assert_eq!(s.dirty_files(), vec![]);
        assert!(s.read(fh, 0, 100).is_none(), "a plain miss");
        assert_eq!(s.take_integrity_events(), vec![], "no second loss event");
        assert_eq!(s.stats().integrity_failures, 1);
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
        // Corrupt only the second file's data.
        assert!(s.disk.corrupt_byte(&data_path(bad), 9, 0x80));
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
        assert!(s.disk.corrupt_byte(&data_path(fh), 0, 0xff));
        assert_eq!(s.scrub_step(usize::MAX), 0, "scrub disabled with the knob");
        let got = s.read(fh, 0, 4096).expect("served anyway");
        assert_ne!(got, vec![3; 4096], "and the bytes are wrong");
        let ev = s.take_integrity_events();
        assert_eq!(ev.len(), 1);
        assert!(ev[0].served);
        assert_eq!(s.stats().quarantined_blocks, 0, "nothing quarantined");
        s.sync();
        let mut verified = PersistentStore::open(disk, cfg);
        assert!(verified.read(fh, 0, 4096).is_none(), "verifying store: never served");
    }

    /// Rot that lands while the store is down, or before a crash, is
    /// caught after the restart: replay takes the logged sums, not sums
    /// of what the disk now holds.
    #[test]
    fn rot_before_a_restart_is_caught_after_it() {
        for crash in [false, true] {
            let disk = VirtualDisk::new(DiskConfig::instant());
            let cfg = PersistConfig { capacity: 1 << 20, ..PersistConfig::default() };
            let mut s = PersistentStore::open(Arc::clone(&disk), cfg);
            let (clean, dirty) = (Fh3::from_fileid(1), Fh3::from_fileid(2));
            s.insert_clean(clean, 0, blocks(2));
            s.write_dirty(dirty, 0, vec![5; 300]);
            s.sync();
            assert!(disk.corrupt_byte(&data_path(clean), BS + 17, 0x20));
            assert!(disk.corrupt_byte(&data_path(dirty), 250, 0x02));
            let mut s = if crash {
                s.crash_reopen();
                s
            } else {
                drop(s);
                PersistentStore::open(disk, cfg)
            };
            assert_eq!(s.read(clean, 0, BS as usize).unwrap(), blocks(2)[..BS as usize]);
            assert!(s.read(clean, 0, 2 * BS as usize).is_none(), "rotted clean block ({crash})");
            assert!(s.read(dirty, 0, 300).is_none(), "rotted dirty block ({crash})");
            let ev = s.take_integrity_events();
            let want = [
                IntegrityEvent { fh: clean, offset: BS, len: BS, dirty: false, served: false },
                IntegrityEvent { fh: dirty, offset: 0, len: 300, dirty: true, served: false },
            ];
            assert_eq!(ev, want, "crash {crash}");
        }
    }

    /// A flipped bit in the last `Synced` frame costs that frame only:
    /// it still marks the barrier, so the clean insert logged before it
    /// is not taken for an unsynced one and the synced dirty write after
    /// that insert survives.
    #[test]
    fn a_rotted_synced_frame_costs_only_its_frame() {
        let disk = VirtualDisk::new(DiskConfig::instant());
        let cfg = PersistConfig { capacity: 1 << 20, ..PersistConfig::default() };
        let mut s = PersistentStore::open(Arc::clone(&disk), cfg);
        let (fh, other) = (Fh3::from_fileid(1), Fh3::from_fileid(2));
        s.write_dirty(other, 0, vec![1; 10]);
        s.sync();
        s.insert_clean(fh, 0, blocks(1));
        s.write_dirty(fh, BS, vec![2; 100]);
        s.sync();
        let wal = disk.read(WAL_PATH, 0, usize::MAX).unwrap();
        let barriers: Vec<usize> =
            frames(&wal).filter(|(_, p, _)| p.len() == 4).map(|(end, ..)| end).collect();
        assert_eq!(barriers.len(), 2);
        let last = barriers[1];
        assert_eq!(last, wal.len(), "the last frame is the barrier");
        assert!(disk.corrupt_byte(WAL_PATH, (last - 9) as u64, 0x01), "flip its discriminant");
        s.crash_reopen();
        let st = s.stats();
        assert_eq!((st.wal_quarantined_frames, st.integrity_failures), (1, 1));
        assert_eq!(s.read(fh, 0, BS as usize).unwrap(), blocks(1));
        assert_eq!(s.read(fh, BS, 100).unwrap(), vec![2; 100]);
        assert_eq!(s.dirty_ranges(fh), vec![(BS, 100)]);
        assert_eq!(s.dirty_ranges(other), vec![(0, 10)]);
        assert!(s.take_integrity_events().is_empty(), "no data lost");
        assert_eq!(disk.len(WAL_PATH), Some(wal.len() as u64), "nothing truncated");
    }

    /// A refetch that fills the rest of a block holding synced dirty
    /// bytes, lost with a crash, leaves those dirty bytes intact: replay
    /// cuts the data file back to the length its logged writes reached,
    /// so the bytes the crash kept of the unsynced growth are gone.
    #[test]
    fn a_crash_during_a_refetch_keeps_the_dirty_bytes_of_its_block() {
        let disk = VirtualDisk::new(DiskConfig::instant());
        let cfg = PersistConfig {
            capacity: 1 << 20,
            checkpoint_every: 2,
            sync_every: usize::MAX,
            ..PersistConfig::default()
        };
        let mut s = PersistentStore::open(Arc::clone(&disk), cfg);
        let fh = Fh3::from_fileid(1);
        s.write_dirty(fh, 0, vec![4; 100]);
        s.retag(fh, t(1)); // the second record: a checkpoint
        assert_checkpointed_log(&disk, 1);
        s.insert_clean(fh, 0, blocks(1));
        s.crash_reopen();
        assert_eq!(disk.len(&data_path(fh)), Some(100), "the torn growth is cut");
        assert_eq!(s.read(fh, 0, 100).unwrap(), vec![4; 100]);
        assert_eq!(s.dirty_ranges(fh), vec![(0, 100)]);
        assert_eq!(s.stats().integrity_failures, 0);
        assert!(s.take_integrity_events().is_empty());
    }

    /// Integrity counters and the scrub cursor survive a crash/reopen;
    /// per-block sums ride the checkpoint records across checkpoints.
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
        assert_checkpointed_log(&disk, 1);
        s.sync();
        assert!(s.disk.corrupt_byte(&data_path(fh), 150, 0x04));
        assert!(s.read(fh, 0, 400).is_none());
        let failures = s.stats().integrity_failures;
        assert!(failures >= 1);
        s.crash_reopen();
        assert_eq!(s.stats().integrity_failures, failures, "counters carry over");
        // The checkpoint restored sums for the surviving blocks: corrupt
        // the replayed data file and verification still catches it.
        assert!(s.disk.corrupt_byte(&data_path(fh), 350, 0x04));
        assert!(s.read(fh, 300, 100).is_none(), "checkpointed sums still verify");
    }

    /// Replay appends nothing to the log: after `open` and after
    /// `crash_reopen` the WAL is the prefix of frames replay applied,
    /// and a second reopen, which replays that prefix, leaves it byte
    /// for byte as it was.
    #[test]
    fn replay_appends_no_wal_frame() {
        for crash in [false, true] {
            let disk = VirtualDisk::new(DiskConfig::instant());
            let cfg = PersistConfig { capacity: 1 << 20, ..PersistConfig::default() };
            let (fh, clean, big) = (Fh3::from_fileid(1), Fh3::from_fileid(2), Fh3::from_fileid(3));
            let mut s = PersistentStore::open(Arc::clone(&disk), cfg);
            s.write_dirty(fh, 0, vec![1; 100]);
            s.retag(fh, t(1));
            s.sync();
            // The unsynced tail: a dirty write replay redoes, a clean
            // insert the log ends at, and a larger write, so a crash
            // keeps the first two frames whole.
            s.write_dirty(fh, 100, vec![2; 100]);
            s.insert_clean(clean, 0, vec![3; 100]);
            s.write_dirty(big, 0, vec![4; 4 * BS as usize]);
            let wal = disk.read(WAL_PATH, 0, usize::MAX).unwrap();
            let replayed = frames(&wal).nth(3).unwrap().0;
            let s = if crash {
                s.crash_reopen();
                s
            } else {
                drop(s);
                PersistentStore::open(Arc::clone(&disk), cfg)
            };
            assert_eq!(disk.read(WAL_PATH, 0, usize::MAX).unwrap(), wal[..replayed], "{crash}");
            assert_eq!(s.dirty_ranges(fh), vec![(0, 200)], "{crash}");
            drop(s);
            let _s = PersistentStore::open(Arc::clone(&disk), cfg);
            assert_eq!(disk.read(WAL_PATH, 0, usize::MAX).unwrap(), wal[..replayed], "{crash}");
        }
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
        let distinct: std::collections::HashSet<u64> = hashes.iter().copied().collect();
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

    /// One flipped byte in a checkpoint record costs only its handle:
    /// the other handle's dirty bytes come back, and the loss is counted.
    #[test]
    fn a_rotted_checkpoint_frame_costs_only_its_handle() {
        let disk = VirtualDisk::new(DiskConfig::instant());
        let cfg = PersistConfig {
            capacity: 1 << 20,
            checkpoint_every: 2,
            sync_every: usize::MAX,
            ..PersistConfig::default()
        };
        let (a, b) = (Fh3::from_fileid(1), Fh3::from_fileid(2));
        let mut s = PersistentStore::open(Arc::clone(&disk), cfg);
        s.write_dirty(a, 0, vec![1; 100]);
        s.write_dirty(b, 0, vec![2; 100]); // the second record: a checkpoint
        s.sync();
        assert_checkpointed_log(&disk, 2);
        // The first frame holds `a`, the lower handle; flip a byte of
        // its block sums.
        let wal = disk.read(WAL_PATH, 0, usize::MAX).unwrap();
        let end = frames(&wal).next().unwrap().0;
        assert!(disk.corrupt_byte(WAL_PATH, (end - 20) as u64, 0x08));
        drop(s);
        let mut s = PersistentStore::open(Arc::clone(&disk), cfg);
        assert_eq!(s.read(b, 0, 100).unwrap(), vec![2; 100]);
        assert_eq!(s.dirty_ranges(b), vec![(0, 100)]);
        assert!(s.read(a, 0, 100).is_none(), "the rotted handle is gone");
        assert!(s.dirty_ranges(a).is_empty());
        assert!(!disk.exists(&data_path(a)), "with its data file");
        let st = s.stats();
        assert_eq!((st.wal_quarantined_frames, st.integrity_failures), (1, 1));
        assert_eq!(s.used_bytes(), 100);
    }

    /// A dirty write over bytes a checkpoint recorded replaces them, and
    /// replay keeps the byte count exact.
    #[test]
    fn an_overwrite_after_a_checkpoint_replays_exactly() {
        let disk = VirtualDisk::new(DiskConfig::instant());
        let cfg = PersistConfig {
            capacity: 1 << 20,
            checkpoint_every: 2,
            sync_every: usize::MAX,
            ..PersistConfig::default()
        };
        let fh = Fh3::from_fileid(1);
        let mut s = PersistentStore::open(Arc::clone(&disk), cfg);
        s.write_dirty(fh, 0, vec![1; 100]);
        s.write_dirty(fh, 100, vec![2; 100]); // the second record: a checkpoint
        s.write_dirty(fh, 0, vec![3; 50]);
        s.sync();
        drop(s);
        let mut s = PersistentStore::open(disk, cfg);
        assert_eq!(s.dirty_ranges(fh), vec![(0, 200)]);
        assert_eq!(s.used_bytes(), 200);
        let want = [vec![3; 50], vec![1; 50], vec![2; 100]].concat();
        assert_eq!(s.read(fh, 0, 200).unwrap(), want);
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
