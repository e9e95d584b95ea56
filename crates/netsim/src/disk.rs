//! An in-memory "disk" with deterministic seek/throughput costs and
//! crash semantics, for persistent caches living inside the simulation.
//!
//! Real disks would wreck the determinism the scheduler guarantees, so a
//! [`VirtualDisk`] keeps every file as two byte vectors: the *current*
//! content (what reads observe) and the *durable* content (what survives
//! a crash). [`VirtualDisk::sync`] promotes current to durable from the
//! lowest offset each file changed at since the previous sync, so a
//! sync costs the bytes changed; [`VirtualDisk::crash`] reverts
//! to durable, except that the first unsynced appended region of each
//! file keeps a deterministic half-way *torn prefix* — exactly the
//! failure a write-ahead log must tolerate.
//!
//! I/O never blocks: each operation accrues virtual nanoseconds
//! (per-operation seek plus bytes ÷ throughput) into a pending-cost
//! accumulator. Callers drain it with [`VirtualDisk::take_pending_cost`]
//! and charge it to their own actor clock via [`crate::sleep`] at a
//! point where no locks are held — sleeping inside a store method would
//! deadlock the cooperative scheduler if the store's mutex is contended.
//!
//! Beyond crashes, a seeded [`DiskFaultPlan`] injects *media* faults —
//! durable bit flips surfacing at read time, torn sector writes, and
//! transient or permanent read errors per offset range — the storage
//! sibling of the WAN-side [`crate::fault::FaultPlan`], so disk chaos
//! and network chaos compose in one deterministic run.

use crate::fault::{ProbWindow, Window};
use crate::time::SimTime;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sector granularity for torn (partial) writes.
const SECTOR: usize = 512;

/// Cost model for one simulated disk.
#[derive(Debug, Clone, Copy)]
pub struct DiskConfig {
    /// Fixed positioning cost charged once per operation.
    pub seek: Duration,
    /// Sequential read throughput, bytes per second.
    pub read_bps: u64,
    /// Sequential write throughput, bytes per second.
    pub write_bps: u64,
}

impl DiskConfig {
    /// A commodity SSD: 80 µs access, 500/450 MB/s read/write.
    #[must_use]
    pub fn ssd() -> Self {
        DiskConfig {
            seek: Duration::from_micros(80),
            read_bps: 500_000_000,
            write_bps: 450_000_000,
        }
    }

    /// A 7200 rpm hard drive: 8 ms seek, 120 MB/s both ways.
    #[must_use]
    pub fn hdd() -> Self {
        DiskConfig { seek: Duration::from_millis(8), read_bps: 120_000_000, write_bps: 120_000_000 }
    }

    /// A free disk for tests that only care about contents.
    #[must_use]
    pub fn instant() -> Self {
        DiskConfig { seek: Duration::ZERO, read_bps: u64::MAX, write_bps: u64::MAX }
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig::ssd()
    }
}

/// Operation counters, for benchmarks and tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DiskStats {
    /// Read operations.
    pub reads: u64,
    /// Write operations (including appends and truncates).
    pub writes: u64,
    /// Bytes returned by reads.
    pub bytes_read: u64,
    /// Bytes accepted by writes.
    pub bytes_written: u64,
    /// Completed [`VirtualDisk::sync`] barriers.
    pub syncs: u64,
    /// Bytes [`VirtualDisk::sync`] copied to durable content: each
    /// changed file from its lowest offset changed since the last sync.
    pub bytes_synced: u64,
    /// Simulated crashes.
    pub crashes: u64,
    /// Bits flipped in durable bytes by the fault plan.
    pub flips_injected: u64,
    /// Writes torn at a sector boundary by the fault plan.
    pub torn_writes: u64,
    /// Reads failed (transient or permanent) by the fault plan.
    pub read_errors_injected: u64,
}

/// Why a [`VirtualDisk::try_read`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskError {
    /// A one-off media error; a retry may succeed.
    Transient,
    /// An unrecoverable bad region; every overlapping read fails.
    Permanent,
}

/// A read-error region: file offsets `[start, end)` (any path the plan
/// covers). `permanent` regions always fail; otherwise each overlapping
/// read rolls `probability`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorRange {
    /// First failing byte offset.
    pub start: u64,
    /// First offset past the failing region.
    pub end: u64,
    /// Per-read failure probability (ignored when `permanent`).
    pub probability: f64,
    /// Whether the region is permanently unreadable.
    pub permanent: bool,
}

/// Seeded disk-fault injection, the storage-side sibling of
/// [`crate::fault::FaultPlan`]: bit flips in durable bytes, torn
/// (partial-sector) writes, and transient or permanent read errors per
/// offset range. All randomness comes from one seed expanded into a
/// dedicated RNG, and dice are rolled under the disk mutex inside the
/// serialized scheduler, so a plan replays the identical fate sequence
/// on every run — WAN chaos ([`crate::fault::FaultPlan`]) and disk
/// chaos compose deterministically.
///
/// The draw order per operation is fixed: reads roll transient-error
/// dice first (only when an [`ErrorRange`] overlaps), then bit-flip
/// dice (only when a flip window covers the current virtual time);
/// writes roll torn-write dice. An empty plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiskFaultPlan {
    /// Seed for the disk's private RNG.
    pub seed: u64,
    /// Bit-rot windows: each covered read rolls the probability and, on
    /// a hit, one bit inside the read range flips *durably* (the flip
    /// persists in both current and durable content — it is media decay
    /// surfacing at read time, not a transport error).
    pub flips: Vec<ProbWindow>,
    /// Torn-write windows: each covered write or append rolls the
    /// probability and, on a hit, only a prefix cut at a sector
    /// boundary actually lands.
    pub torn: Vec<ProbWindow>,
    /// Read-error regions (see [`ErrorRange`]).
    pub read_errors: Vec<ErrorRange>,
    /// Path prefixes the plan applies to; empty means every path.
    pub path_prefixes: Vec<String>,
}

impl DiskFaultPlan {
    /// An empty plan seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        DiskFaultPlan { seed, ..DiskFaultPlan::default() }
    }

    /// Adds a bit-rot window with the given per-read probability.
    #[must_use]
    pub fn with_flips(mut self, window: Window, probability: f64) -> Self {
        self.flips.push(ProbWindow { window, probability });
        self
    }

    /// Adds a torn-write window with the given per-write probability.
    #[must_use]
    pub fn with_torn_writes(mut self, window: Window, probability: f64) -> Self {
        self.torn.push(ProbWindow { window, probability });
        self
    }

    /// Adds a transient read-error region over offsets `[start, end)`.
    #[must_use]
    pub fn with_transient_read_errors(mut self, start: u64, end: u64, probability: f64) -> Self {
        self.read_errors.push(ErrorRange { start, end, probability, permanent: false });
        self
    }

    /// Adds a permanently unreadable region over offsets `[start, end)`.
    #[must_use]
    pub fn with_permanent_read_error(mut self, start: u64, end: u64) -> Self {
        self.read_errors.push(ErrorRange { start, end, probability: 1.0, permanent: true });
        self
    }

    /// Restricts the plan to paths starting with `prefix` (additive;
    /// a plan with no prefixes covers every path).
    #[must_use]
    pub fn with_path_prefix(mut self, prefix: &str) -> Self {
        self.path_prefixes.push(prefix.to_owned());
        self
    }

    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flips.is_empty() && self.torn.is_empty() && self.read_errors.is_empty()
    }

    fn covers(&self, path: &str) -> bool {
        self.path_prefixes.is_empty() || self.path_prefixes.iter().any(|p| path.starts_with(p))
    }
}

/// A plan plus its running RNG, owned by one disk.
#[derive(Debug)]
struct DiskFaultState {
    plan: DiskFaultPlan,
    rng: StdRng,
}

impl DiskFaultState {
    fn new(plan: DiskFaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        DiskFaultState { plan, rng }
    }
}

#[derive(Debug, Default, Clone)]
struct VFile {
    /// Current content, as in-flight writes left it.
    data: Vec<u8>,
    /// Content as of the last global [`VirtualDisk::sync`].
    durable: Vec<u8>,
    /// Removed since the last sync: invisible to reads, but the durable
    /// content must survive a crash (an unlink is only durable after a
    /// sync, like a POSIX unlink without a directory fsync).
    deleted: bool,
    /// Lowest offset possibly changed since the last sync: `data` and
    /// `durable` agree below it, so [`VirtualDisk::sync`] copies only
    /// `data[from..]`. `None` means `data == durable` and `!deleted`, and
    /// the sync skips the file.
    dirty_from: Option<usize>,
}

impl VFile {
    /// Records a change at or after `offset`.
    fn touch(&mut self, offset: usize) {
        self.dirty_from = Some(self.dirty_from.map_or(offset, |from| from.min(offset)));
    }

    /// Re-creates a removed path: fresh content, but the durable copy of
    /// the old file still governs what a crash restores.
    fn revive(&mut self) {
        if self.deleted {
            self.deleted = false;
            self.data.clear();
            self.touch(0);
        }
    }
}

#[derive(Debug, Default)]
struct DiskInner {
    files: HashMap<String, VFile>,
    stats: DiskStats,
    faults: Option<DiskFaultState>,
}

impl DiskInner {
    /// Rolls the torn-write die for one write of `len` bytes at virtual
    /// time `t`; `Some(keep)` tears the write down to its first `keep`
    /// bytes (a sector-aligned prefix, possibly empty).
    fn roll_torn(&mut self, path: &str, len: usize, t: SimTime) -> Option<usize> {
        let fs = self.faults.as_mut()?;
        if len == 0 || !fs.plan.covers(path) {
            return None;
        }
        let p = fs.plan.torn.iter().find(|p| p.window.contains(t))?;
        if !fs.rng.gen_bool(p.probability) {
            return None;
        }
        let cut = fs.rng.gen_range(0..len);
        Some(cut / SECTOR * SECTOR)
    }

    /// Rolls the read dice for one read. `Err` fails the read;
    /// `Ok(Some((rel, bit)))` flips one bit `rel` bytes into the read
    /// range before serving it.
    fn roll_read(
        &mut self,
        path: &str,
        offset: u64,
        len: usize,
        t: SimTime,
    ) -> Result<Option<(usize, u8)>, DiskError> {
        let Some(fs) = self.faults.as_mut() else { return Ok(None) };
        if !fs.plan.covers(path) {
            return Ok(None);
        }
        let end = offset.saturating_add(len as u64);
        for r in &fs.plan.read_errors {
            if r.permanent && r.start < end && offset < r.end {
                return Err(DiskError::Permanent);
            }
        }
        for i in 0..fs.plan.read_errors.len() {
            let r = fs.plan.read_errors[i];
            if !r.permanent && r.start < end && offset < r.end && fs.rng.gen_bool(r.probability) {
                return Err(DiskError::Transient);
            }
        }
        if len > 0 {
            if let Some(p) = fs.plan.flips.iter().find(|p| p.window.contains(t)).copied() {
                if fs.rng.gen_bool(p.probability) {
                    let rel = fs.rng.gen_range(0..len);
                    let bit = u8::try_from(fs.rng.gen_range(0..8u32)).expect("bit in 0..8");
                    return Ok(Some((rel, bit)));
                }
            }
        }
        Ok(None)
    }
}

/// The current virtual time, or `ZERO` outside the simulation (unit
/// tests and property tests drive the disk without a scheduler).
fn sim_now() -> SimTime {
    if crate::in_actor() {
        crate::now()
    } else {
        SimTime::ZERO
    }
}

/// A deterministic in-memory disk; see the module docs.
///
/// Cloneable via `Arc`; a proxy client and a restarted successor share
/// the same `Arc<VirtualDisk>` to model one machine's platter.
#[derive(Debug)]
pub struct VirtualDisk {
    cfg: DiskConfig,
    inner: Mutex<DiskInner>,
    pending_ns: AtomicU64,
}

impl VirtualDisk {
    /// Creates an empty disk with the given cost model.
    #[must_use]
    pub fn new(cfg: DiskConfig) -> Arc<Self> {
        Arc::new(VirtualDisk {
            cfg,
            inner: Mutex::new(DiskInner::default()),
            pending_ns: AtomicU64::new(0),
        })
    }

    fn charge(&self, bytes: usize, bps: u64) {
        let mut ns = u64::try_from(self.cfg.seek.as_nanos()).unwrap_or(u64::MAX);
        if bps < u64::MAX && bytes > 0 {
            ns = ns.saturating_add((bytes as u64).saturating_mul(1_000_000_000) / bps.max(1));
        }
        self.pending_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Drains the accrued I/O cost. The caller should charge it to its
    /// actor clock (`gvfs_netsim::sleep`) while holding no locks; code
    /// running outside the simulation may simply drop it.
    pub fn take_pending_cost(&self) -> Duration {
        Duration::from_nanos(self.pending_ns.swap(0, Ordering::Relaxed))
    }

    /// Operation counters so far.
    pub fn stats(&self) -> DiskStats {
        self.inner.lock().stats
    }

    /// Installs (or clears) the disk's fault plan; the plan's RNG
    /// restarts from its seed.
    pub fn set_fault_plan(&self, plan: Option<DiskFaultPlan>) {
        self.inner.lock().faults = plan.map(DiskFaultState::new);
    }

    /// Writes `bytes` at `offset`, zero-extending any hole. A torn-write
    /// fault lands only a sector-aligned prefix.
    pub fn write(&self, path: &str, offset: u64, bytes: &[u8]) {
        let t = sim_now();
        self.charge(bytes.len(), self.cfg.write_bps);
        let mut inner = self.inner.lock();
        let keep = inner.roll_torn(path, bytes.len(), t);
        if keep.is_some() {
            inner.stats.torn_writes += 1;
        }
        let bytes = &bytes[..keep.unwrap_or(bytes.len())];
        inner.stats.writes += 1;
        inner.stats.bytes_written += bytes.len() as u64;
        let file = inner.files.entry(path.to_owned()).or_default();
        file.revive();
        let off = usize::try_from(offset).expect("offset fits usize");
        // A write past the end also zero-fills the hole before it.
        file.touch(off.min(file.data.len()));
        let end = off + bytes.len();
        if file.data.len() < end {
            file.data.resize(end, 0);
        }
        file.data[off..end].copy_from_slice(bytes);
    }

    /// Appends `bytes`, returning the offset they landed at. A torn
    /// append lands only a sector-aligned prefix — the file ends
    /// mid-record and later appends continue from the torn end.
    pub fn append(&self, path: &str, bytes: &[u8]) -> u64 {
        let t = sim_now();
        self.charge(bytes.len(), self.cfg.write_bps);
        let mut inner = self.inner.lock();
        let keep = inner.roll_torn(path, bytes.len(), t);
        if keep.is_some() {
            inner.stats.torn_writes += 1;
        }
        let bytes = &bytes[..keep.unwrap_or(bytes.len())];
        inner.stats.writes += 1;
        inner.stats.bytes_written += bytes.len() as u64;
        let file = inner.files.entry(path.to_owned()).or_default();
        file.revive();
        file.touch(file.data.len());
        let off = file.data.len() as u64;
        file.data.extend_from_slice(bytes);
        off
    }

    /// Reads up to `len` bytes at `offset`; short at end of file, `None`
    /// if the file does not exist. Injected read errors surface as
    /// `None` here; fault-aware callers use [`VirtualDisk::try_read`].
    pub fn read(&self, path: &str, offset: u64, len: usize) -> Option<Vec<u8>> {
        self.try_read(path, offset, len).unwrap_or(None)
    }

    /// Reads up to `len` bytes at `offset`, distinguishing an injected
    /// media error ([`DiskError`]) from an absent file (`Ok(None)`). A
    /// bit-rot fault flips one bit *durably* inside the range before
    /// serving it.
    pub fn try_read(
        &self,
        path: &str,
        offset: u64,
        len: usize,
    ) -> Result<Option<Vec<u8>>, DiskError> {
        let t = sim_now();
        let mut inner = self.inner.lock();
        if inner.files.get(path).is_none_or(|f| f.deleted) {
            return Ok(None);
        }
        let flip = match inner.roll_read(path, offset, len, t) {
            Err(e) => {
                inner.stats.reads += 1;
                inner.stats.read_errors_injected += 1;
                drop(inner);
                self.charge(0, self.cfg.read_bps);
                return Err(e);
            }
            Ok(flip) => flip,
        };
        let file = inner.files.get_mut(path).expect("checked present");
        let off = usize::try_from(offset).expect("offset fits usize");
        let mut flipped = false;
        if let Some((rel, bit)) = flip {
            if off < file.data.len() {
                let span = file.data.len().min(off + len) - off;
                let idx = off + rel % span;
                file.data[idx] ^= 1 << bit;
                if idx < file.durable.len() {
                    file.durable[idx] ^= 1 << bit;
                } else {
                    file.touch(idx);
                }
                flipped = true;
            }
        }
        let end = off.saturating_add(len).min(file.data.len());
        let out = if off >= file.data.len() { Vec::new() } else { file.data[off..end].to_vec() };
        inner.stats.reads += 1;
        inner.stats.bytes_read += out.len() as u64;
        if flipped {
            inner.stats.flips_injected += 1;
        }
        drop(inner);
        self.charge(out.len(), self.cfg.read_bps);
        Ok(Some(out))
    }

    /// Verification read: charges no cost, counts no stats and rolls no
    /// dice — checksum verification models as piggybacked on the data
    /// transfer it guards — but permanently unreadable regions still
    /// fail (media that cannot be read cannot be verified either).
    pub fn read_quiet(
        &self,
        path: &str,
        offset: u64,
        len: usize,
    ) -> Result<Option<Vec<u8>>, DiskError> {
        let inner = self.inner.lock();
        let Some(file) = inner.files.get(path).filter(|f| !f.deleted) else { return Ok(None) };
        if let Some(fs) = &inner.faults {
            if fs.plan.covers(path) {
                let end = offset.saturating_add(len as u64);
                if fs
                    .plan
                    .read_errors
                    .iter()
                    .any(|r| r.permanent && r.start < end && offset < r.end)
                {
                    return Err(DiskError::Permanent);
                }
            }
        }
        let off = usize::try_from(offset).expect("offset fits usize");
        let end = off.saturating_add(len).min(file.data.len());
        Ok(Some(if off >= file.data.len() { Vec::new() } else { file.data[off..end].to_vec() }))
    }

    /// Deterministically corrupts one byte (XOR mask) in both current
    /// and durable content — targeted bit rot for tests and ablations.
    /// Returns `false` if the path is absent or shorter than `offset`.
    pub fn corrupt_byte(&self, path: &str, offset: u64, xor: u8) -> bool {
        if xor == 0 {
            return false;
        }
        let mut inner = self.inner.lock();
        let Some(file) = inner.files.get_mut(path).filter(|f| !f.deleted) else { return false };
        let off = usize::try_from(offset).expect("offset fits usize");
        if off >= file.data.len() {
            return false;
        }
        file.data[off] ^= xor;
        if off < file.durable.len() {
            file.durable[off] ^= xor;
        } else {
            file.touch(off);
        }
        inner.stats.flips_injected += 1;
        true
    }

    /// Current length of `path`, or `None` if absent.
    pub fn len(&self, path: &str) -> Option<u64> {
        self.inner.lock().files.get(path).filter(|f| !f.deleted).map(|f| f.data.len() as u64)
    }

    /// Whether `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.inner.lock().files.get(path).is_some_and(|f| !f.deleted)
    }

    /// All paths starting with `prefix`, sorted (a readdir stand-in for
    /// garbage collection).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let inner = self.inner.lock();
        let mut v: Vec<String> = inner
            .files
            .iter()
            .filter(|(p, f)| p.starts_with(prefix) && !f.deleted)
            .map(|(p, _)| p.clone())
            .collect();
        v.sort_unstable();
        v
    }

    /// Truncates `path` to `len` bytes (creating it if absent).
    pub fn truncate(&self, path: &str, len: u64) {
        self.charge(0, self.cfg.write_bps);
        let mut inner = self.inner.lock();
        inner.stats.writes += 1;
        let file = inner.files.entry(path.to_owned()).or_default();
        file.revive();
        file.data.truncate(usize::try_from(len).expect("len fits usize"));
        file.touch(file.data.len());
    }

    /// Removes `path` if present. Durable only after the next
    /// [`VirtualDisk::sync`]: a crash before it resurrects the durable
    /// content.
    pub fn remove(&self, path: &str) {
        self.charge(0, self.cfg.write_bps);
        let mut inner = self.inner.lock();
        inner.stats.writes += 1;
        if let Some(f) = inner.files.get_mut(path) {
            if f.durable.is_empty() {
                inner.files.remove(path);
            } else {
                f.deleted = true;
                f.touch(0);
                f.data.clear();
            }
        }
    }

    /// Atomically renames `old` to `new` (replacing `new`). The old name
    /// is gone at once, even across a crash. The moved file keeps its
    /// durable copy, or takes over the replaced target's if it has none,
    /// so a crash before the next [`VirtualDisk::sync`] reverts `new` to
    /// one of the two durable contents under the usual
    /// [`VirtualDisk::crash`] rules.
    pub fn rename(&self, old: &str, new: &str) {
        self.charge(0, self.cfg.write_bps);
        let mut inner = self.inner.lock();
        inner.stats.writes += 1;
        if let Some(mut f) = inner.files.remove(old) {
            // The moved file carries its durable copy; if the target had
            // one it is replaced wholesale (no torn mix across a rename).
            if let Some(prev) = inner.files.get(new) {
                if !prev.durable.is_empty() && f.durable.is_empty() {
                    f.durable = prev.durable.clone();
                }
            }
            f.touch(0);
            inner.files.insert(new.to_owned(), f);
        }
    }

    /// Durability barrier: everything written so far survives a crash.
    /// Copies each changed file only from its lowest offset changed since
    /// the last sync, so its cost is the bytes changed, not the size of
    /// the files (or of everything stored).
    pub fn sync(&self) {
        self.charge(0, self.cfg.write_bps);
        let mut inner = self.inner.lock();
        let DiskInner { files, stats, .. } = &mut *inner;
        stats.syncs += 1;
        files.retain(|_, f| {
            let Some(from) = f.dirty_from.take() else { return true };
            if f.deleted {
                return false;
            }
            f.durable.truncate(from);
            f.durable.extend_from_slice(&f.data[from..]);
            stats.bytes_synced += (f.data.len() - from) as u64;
            true
        });
    }

    /// Simulates a machine crash: every file reverts to its durable
    /// content, except that a file that grew since the last sync keeps a
    /// deterministic **torn prefix** — half (rounded down) of the
    /// unsynced appended bytes. In-place overwrites of durable bytes are
    /// reverted entirely. Files never synced keep only their torn half.
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        inner.stats.crashes += 1;
        inner.files.retain(|_, f| {
            if f.deleted {
                // Unsynced removal: the unlink is lost with the crash.
                f.deleted = false;
                f.data.clone_from(&f.durable);
            } else if f.data.len() > f.durable.len() {
                let torn = (f.data.len() - f.durable.len()) / 2;
                f.data.truncate(f.durable.len() + torn);
                f.data[..f.durable.len()].copy_from_slice(&f.durable);
            } else {
                f.data.clone_from(&f.durable);
            }
            f.dirty_from = (f.data != f.durable)
                .then(|| f.data.iter().zip(&f.durable).take_while(|(a, b)| a == b).count());
            !f.data.is_empty() || !f.durable.is_empty()
        });
        // A crash forgets queued I/O cost along with the dirty pages.
        self.pending_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip_and_holes() {
        let d = VirtualDisk::new(DiskConfig::instant());
        d.write("a", 4, b"xyz");
        assert_eq!(d.read("a", 0, 8).unwrap(), vec![0, 0, 0, 0, b'x', b'y', b'z']);
        assert_eq!(d.len("a"), Some(7));
        assert_eq!(d.read("missing", 0, 1), None);
    }

    #[test]
    fn crash_reverts_unsynced_overwrites() {
        let d = VirtualDisk::new(DiskConfig::instant());
        d.write("f", 0, b"aaaa");
        d.sync();
        d.write("f", 0, b"bbbb");
        d.crash();
        assert_eq!(d.read("f", 0, 4).unwrap(), b"aaaa");
    }

    #[test]
    fn crash_keeps_torn_prefix_of_unsynced_append() {
        let d = VirtualDisk::new(DiskConfig::instant());
        d.append("log", b"aaaa");
        d.sync();
        d.append("log", b"bbbbbb");
        d.crash();
        // 6 unsynced bytes -> 3 survive.
        assert_eq!(d.read("log", 0, 16).unwrap(), b"aaaabbb");
    }

    #[test]
    fn sync_then_crash_is_lossless() {
        let d = VirtualDisk::new(DiskConfig::instant());
        d.append("log", b"abcdef");
        d.write("data", 8, b"zz");
        d.sync();
        d.crash();
        assert_eq!(d.read("log", 0, 16).unwrap(), b"abcdef");
        assert_eq!(d.read("data", 6, 4).unwrap(), vec![0, 0, b'z', b'z']);
    }

    #[test]
    fn costs_accrue_and_drain() {
        let d = VirtualDisk::new(DiskConfig {
            seek: Duration::from_millis(1),
            read_bps: 1_000_000,
            write_bps: 1_000_000,
        });
        d.write("f", 0, &[0u8; 1000]); // 1 ms seek + 1 ms transfer
        let cost = d.take_pending_cost();
        assert_eq!(cost, Duration::from_millis(2));
        assert_eq!(d.take_pending_cost(), Duration::ZERO);
    }

    #[test]
    fn unsynced_remove_is_resurrected_by_crash() {
        let d = VirtualDisk::new(DiskConfig::instant());
        d.write("f", 0, b"keep");
        d.sync();
        d.remove("f");
        assert!(!d.exists("f"));
        assert_eq!(d.read("f", 0, 4), None);
        d.crash();
        assert_eq!(d.read("f", 0, 4).unwrap(), b"keep", "unlink was not durable");
        // A synced removal is final.
        d.remove("f");
        d.sync();
        d.crash();
        assert!(!d.exists("f"));
    }

    #[test]
    fn recreate_after_remove_starts_fresh() {
        let d = VirtualDisk::new(DiskConfig::instant());
        d.write("f", 0, b"oldcontent");
        d.sync();
        d.remove("f");
        d.write("f", 0, b"nw");
        assert_eq!(d.read("f", 0, 16).unwrap(), b"nw", "no stale tail from the removed file");
    }

    fn always() -> Window {
        Window::new(SimTime::ZERO, SimTime::from_secs(1 << 20))
    }

    #[test]
    fn flip_fault_is_durable_and_counted() {
        let d = VirtualDisk::new(DiskConfig::instant());
        d.write("data/f", 0, &[0xAA; 64]);
        d.sync();
        d.set_fault_plan(Some(DiskFaultPlan::new(7).with_flips(always(), 1.0)));
        let corrupted = d.read("data/f", 0, 64).unwrap();
        d.set_fault_plan(None);
        let diff: u32 = corrupted.iter().map(|b| (b ^ 0xAA).count_ones()).sum();
        assert_eq!(diff, 1, "exactly one bit flipped");
        assert_eq!(d.stats().flips_injected, 1);
        assert_eq!(d.read("data/f", 0, 64).unwrap(), corrupted, "flip persists");
        d.crash();
        assert_eq!(d.read("data/f", 0, 64).unwrap(), corrupted, "flip is durable");
    }

    #[test]
    fn torn_write_lands_sector_prefix() {
        let d = VirtualDisk::new(DiskConfig::instant());
        d.set_fault_plan(Some(DiskFaultPlan::new(3).with_torn_writes(always(), 1.0)));
        d.write("data/f", 0, &[7u8; 2000]);
        let len = d.len("data/f").unwrap_or(0);
        assert_eq!(len % 512, 0, "torn at a sector boundary");
        assert!(len < 2000, "a prefix, not the whole write");
        assert_eq!(d.stats().torn_writes, 1);
        let off = d.append("data/f", &[9u8; 600]);
        assert_eq!(off, len, "append continues from the torn end");
    }

    #[test]
    fn read_error_ranges_fail_reads() {
        let d = VirtualDisk::new(DiskConfig::instant());
        d.write("data/f", 0, &[1u8; 100]);
        d.set_fault_plan(Some(
            DiskFaultPlan::new(5)
                .with_permanent_read_error(40, 60)
                .with_transient_read_errors(80, 90, 1.0),
        ));
        assert_eq!(d.try_read("data/f", 0, 10), Ok(Some(vec![1u8; 10])));
        assert_eq!(d.try_read("data/f", 50, 4), Err(DiskError::Permanent));
        assert_eq!(d.try_read("data/f", 30, 20), Err(DiskError::Permanent), "overlap fails");
        assert_eq!(d.try_read("data/f", 82, 2), Err(DiskError::Transient));
        assert_eq!(d.stats().read_errors_injected, 3);
        assert_eq!(d.read("data/f", 50, 4), None, "legacy read maps errors to None");
        // Quiet reads see permanent damage but never roll transient dice.
        assert_eq!(d.read_quiet("data/f", 50, 4), Err(DiskError::Permanent));
        assert_eq!(d.read_quiet("data/f", 82, 2), Ok(Some(vec![1u8; 2])));
    }

    #[test]
    fn path_prefix_scopes_the_plan() {
        let d = VirtualDisk::new(DiskConfig::instant());
        d.write("data/f", 0, &[1u8; 100]);
        d.write("wal.log", 0, &[1u8; 100]);
        d.set_fault_plan(Some(
            DiskFaultPlan::new(9).with_path_prefix("data/").with_permanent_read_error(0, 100),
        ));
        assert_eq!(d.try_read("data/f", 0, 10), Err(DiskError::Permanent));
        assert_eq!(d.try_read("wal.log", 0, 10), Ok(Some(vec![1u8; 10])));
    }

    #[test]
    fn same_seed_replays_identical_disk_fates() {
        let run = || {
            let d = VirtualDisk::new(DiskConfig::instant());
            d.set_fault_plan(Some(
                DiskFaultPlan::new(42)
                    .with_flips(always(), 0.5)
                    .with_torn_writes(always(), 0.5)
                    .with_transient_read_errors(0, 1 << 30, 0.3),
            ));
            for i in 0..50u64 {
                d.write("data/f", i * 64, &[i as u8; 64]);
            }
            let mut log = Vec::new();
            for i in 0..50u64 {
                log.push(d.try_read("data/f", i * 64, 64));
            }
            (log, d.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn corrupt_byte_hits_data_and_durable() {
        let d = VirtualDisk::new(DiskConfig::instant());
        d.write("f", 0, b"hello");
        d.sync();
        assert!(d.corrupt_byte("f", 1, 0x01));
        assert_eq!(d.read("f", 0, 5).unwrap(), b"hdllo");
        d.crash();
        assert_eq!(d.read("f", 0, 5).unwrap(), b"hdllo", "corruption survives the crash");
        assert!(!d.corrupt_byte("f", 99, 0x01), "out of range");
        assert!(!d.corrupt_byte("missing", 0, 0x01));
    }

    #[test]
    fn sync_copies_only_files_written_since_last_sync() {
        let d = VirtualDisk::new(DiskConfig::instant());
        for i in 0..100 {
            d.write(&format!("data/{i}"), 0, &[1u8; 64 << 10]);
        }
        d.sync();
        assert_eq!(d.stats().bytes_synced, 100 * (64 << 10));
        let synced = |op: &dyn Fn()| {
            let before = d.stats().bytes_synced;
            op();
            d.sync();
            d.stats().bytes_synced - before
        };
        assert_eq!(
            synced(&|| d.write("data/7", 100, &[2u8])),
            (64 << 10) - 100,
            "copied from the write on"
        );
        assert_eq!(synced(&|| {}), 0, "nothing left to copy");
        let append = || {
            d.append("data/7", &[3u8; 10]);
        };
        assert_eq!(synced(&append), 10, "an append copies itself");
        assert_eq!(
            synced(&|| {
                d.truncate("data/7", 1000);
                d.append("data/7", &[4u8; 24]);
            }),
            24,
            "truncate-then-append copies from the truncation point"
        );
        assert_eq!(synced(&|| d.rename("data/8", "data/r")), 64 << 10, "a rename copies whole");
        d.write("data/9", 0, &[5u8; 10]);
        d.remove("data/9");
        assert_eq!(
            synced(&|| d.write("data/9", 0, &[6u8; 4])),
            4,
            "a re-created file copies whole"
        );
        assert_eq!(d.read("data/9", 0, 16).unwrap(), [6u8; 4]);
        assert_eq!(d.stats().syncs, 7);
    }

    #[test]
    fn rename_replaces_target() {
        let d = VirtualDisk::new(DiskConfig::instant());
        d.write("new", 0, b"vvvv");
        d.write("old", 0, b"ww");
        d.rename("old", "new");
        assert_eq!(d.read("new", 0, 8).unwrap(), b"ww");
        assert!(!d.exists("old"));
    }
}
