//! Differential property test: the disk's one-image representation must
//! be observably identical to a disk that keeps two full images.
//!
//! [`VirtualDisk`] keeps each file's current content only, plus its
//! length at the last sync and undo records of the durable bytes changed
//! since. A mutation path that forgot to save what it overwrites, or a
//! bit flip that missed an undo record, would lose data silently, and
//! only at the next crash. The reference model below is the two-image
//! disk: every file holds its current and its durable content in full,
//! with the same crash, torn-write, deferred-unlink, rename and bit-rot
//! rules, and its `sync` copies every file's current content to
//! durable. Random sequences of write, append, truncate, remove, rename,
//! sync, crash and `corrupt_byte` drive both in lockstep, with and
//! without a seeded [`DiskFaultPlan`] (bit flips and torn writes) on
//! both sides. After every step `read`, `len`, `exists` and `list` must
//! agree on every path. Every sync must also count no more bytes made
//! durable than the live files hold, and a second sync straight after
//! it must count none.

use gvfs_netsim::disk::{DiskConfig, DiskFaultPlan, VirtualDisk};
use gvfs_netsim::fault::Window;
use gvfs_netsim::SimTime;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const PATHS: [&str; 4] = ["a", "b", "dir/c", "dir/d"];
/// Sector granularity of torn writes, as in the disk.
const SECTOR: usize = 512;
/// Larger than any file the ops can build, so a read sees all of it.
const WHOLE: usize = 1 << 16;

#[derive(Debug, Clone)]
enum Op {
    Write { path: usize, offset: u64, len: usize },
    Append { path: usize, len: usize },
    Truncate { path: usize, len: u64 },
    Remove { path: usize },
    Rename { from: usize, to: usize },
    Corrupt { path: usize, offset: u64, xor: u8 },
    Sync,
    Crash,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let path = 0..PATHS.len();
    // The shimmed prop_oneof! has no weights; duplicated arms bias the
    // mix toward the barriers that expose a missed flag.
    prop_oneof![
        (path.clone(), 0u64..2048, 1usize..1500).prop_map(|(path, offset, len)| Op::Write {
            path,
            offset,
            len
        }),
        (path.clone(), 0usize..1500).prop_map(|(path, len)| Op::Append { path, len }),
        (path.clone(), prop_oneof![Just(0u64), 0u64..3000])
            .prop_map(|(path, len)| Op::Truncate { path, len }),
        path.clone().prop_map(|path| Op::Remove { path }),
        (path.clone(), path.clone()).prop_map(|(from, to)| Op::Rename { from, to }),
        (path, 0u64..3000, 1u8..=255).prop_map(|(path, offset, xor)| Op::Corrupt {
            path,
            offset,
            xor
        }),
        Just(Op::Sync),
        Just(Op::Sync),
        Just(Op::Crash),
        Just(Op::Crash),
    ]
}

/// Distinct bytes per operation, so a stale copy never reads as fresh.
fn fill(counter: u32, len: usize) -> Vec<u8> {
    let b = counter.to_le_bytes();
    (0..len).map(|i| b[i % 4].wrapping_add((i / 4) as u8)).collect()
}

/// One reference file: current and durable content, plus the deferred
/// unlink, with no record of what changed since the last sync.
#[derive(Debug, Default)]
struct RefFile {
    data: Vec<u8>,
    durable: Vec<u8>,
    deleted: bool,
}

/// The reference disk: the same rules as [`VirtualDisk`], with a sync
/// that copies every file. Its fault dice are rolled from the same seed
/// in the same order as the disk's, so both see the same fates.
#[derive(Default)]
struct RefDisk {
    files: HashMap<String, RefFile>,
    /// `(rng, flip probability, torn probability)`; the windows always
    /// cover the current time.
    faults: Option<(StdRng, f64, f64)>,
}

impl RefDisk {
    fn roll_torn(&mut self, len: usize) -> Option<usize> {
        let (rng, _, torn) = self.faults.as_mut()?;
        if len == 0 || !rng.gen_bool(*torn) {
            return None;
        }
        let cut = rng.gen_range(0..len);
        Some(cut / SECTOR * SECTOR)
    }

    fn roll_flip(&mut self, len: usize) -> Option<(usize, u8)> {
        let (rng, flip, _) = self.faults.as_mut()?;
        if len == 0 || !rng.gen_bool(*flip) {
            return None;
        }
        let rel = rng.gen_range(0..len);
        let bit = u8::try_from(rng.gen_range(0..8u32)).expect("bit in 0..8");
        Some((rel, bit))
    }

    /// The file `path` names, re-created fresh if it was removed.
    fn open(&mut self, path: &str) -> &mut RefFile {
        let file = self.files.entry(path.to_owned()).or_default();
        if file.deleted {
            file.deleted = false;
            file.data.clear();
        }
        file
    }

    fn write(&mut self, path: &str, offset: u64, bytes: &[u8]) {
        let keep = self.roll_torn(bytes.len()).unwrap_or(bytes.len());
        let bytes = &bytes[..keep];
        let file = self.open(path);
        let off = usize::try_from(offset).expect("offset fits usize");
        let end = off + bytes.len();
        if file.data.len() < end {
            file.data.resize(end, 0);
        }
        file.data[off..end].copy_from_slice(bytes);
    }

    fn append(&mut self, path: &str, bytes: &[u8]) {
        let keep = self.roll_torn(bytes.len()).unwrap_or(bytes.len());
        self.open(path).data.extend_from_slice(&bytes[..keep]);
    }

    fn read(&mut self, path: &str, len: usize) -> Option<Vec<u8>> {
        if self.files.get(path).is_none_or(|f| f.deleted) {
            return None;
        }
        let flip = self.roll_flip(len);
        let file = self.files.get_mut(path).expect("checked present");
        if let Some((rel, bit)) = flip {
            if !file.data.is_empty() {
                let idx = rel % file.data.len().min(len);
                file.data[idx] ^= 1 << bit;
                if idx < file.durable.len() {
                    file.durable[idx] ^= 1 << bit;
                }
            }
        }
        Some(file.data[..file.data.len().min(len)].to_vec())
    }

    fn corrupt_byte(&mut self, path: &str, offset: u64, xor: u8) -> bool {
        let Some(file) = self.files.get_mut(path).filter(|f| !f.deleted) else { return false };
        let off = usize::try_from(offset).expect("offset fits usize");
        if off >= file.data.len() {
            return false;
        }
        file.data[off] ^= xor;
        if off < file.durable.len() {
            file.durable[off] ^= xor;
        }
        true
    }

    fn truncate(&mut self, path: &str, len: u64) {
        self.open(path).data.truncate(usize::try_from(len).expect("len fits usize"));
    }

    fn remove(&mut self, path: &str) {
        if let Some(f) = self.files.get_mut(path) {
            if f.durable.is_empty() {
                self.files.remove(path);
            } else {
                f.deleted = true;
                f.data.clear();
            }
        }
    }

    fn rename(&mut self, old: &str, new: &str) {
        if let Some(mut f) = self.files.remove(old) {
            if let Some(prev) = self.files.get(new) {
                if !prev.durable.is_empty() && f.durable.is_empty() {
                    f.durable = prev.durable.clone();
                }
            }
            self.files.insert(new.to_owned(), f);
        }
    }

    /// Total length of the live files.
    fn live_bytes(&self) -> u64 {
        self.files.values().filter(|f| !f.deleted).map(|f| f.data.len() as u64).sum()
    }

    /// Clone-everything sync: every live file's content becomes durable.
    fn sync(&mut self) {
        self.files.retain(|_, f| !f.deleted);
        for f in self.files.values_mut() {
            f.durable = f.data.clone();
        }
    }

    fn crash(&mut self) {
        self.files.retain(|_, f| {
            if f.deleted {
                f.deleted = false;
                f.data = f.durable.clone();
            } else if f.data.len() > f.durable.len() {
                let torn = (f.data.len() - f.durable.len()) / 2;
                f.data.truncate(f.durable.len() + torn);
                f.data[..f.durable.len()].copy_from_slice(&f.durable);
            } else {
                f.data = f.durable.clone();
            }
            !f.data.is_empty() || !f.durable.is_empty()
        });
    }

    fn len(&self, path: &str) -> Option<u64> {
        self.files.get(path).filter(|f| !f.deleted).map(|f| f.data.len() as u64)
    }

    fn exists(&self, path: &str) -> bool {
        self.files.get(path).is_some_and(|f| !f.deleted)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let mut v: Vec<String> = self
            .files
            .iter()
            .filter(|(p, f)| p.starts_with(prefix) && !f.deleted)
            .map(|(p, _)| p.clone())
            .collect();
        v.sort_unstable();
        v
    }
}

/// Runs `ops` on a [`VirtualDisk`] and the reference in lockstep,
/// comparing every observable after each step. `faults` is
/// `(seed, flip probability, torn probability)`.
fn run(ops: &[Op], faults: Option<(u64, f64, f64)>) -> Result<(), TestCaseError> {
    let disk = VirtualDisk::new(DiskConfig::instant());
    let mut model = RefDisk::default();
    if let Some((seed, flip, torn)) = faults {
        let always = Window::new(SimTime::ZERO, SimTime::from_secs(1 << 20));
        disk.set_fault_plan(Some(
            DiskFaultPlan::new(seed).with_flips(always, flip).with_torn_writes(always, torn),
        ));
        model.faults = Some((StdRng::seed_from_u64(seed), flip, torn));
    }
    for (step, op) in ops.iter().enumerate() {
        let counter = u32::try_from(step).expect("few steps") + 1;
        match *op {
            Op::Write { path, offset, len } => {
                let bytes = fill(counter, len);
                disk.write(PATHS[path], offset, &bytes);
                model.write(PATHS[path], offset, &bytes);
            }
            Op::Append { path, len } => {
                let bytes = fill(counter, len);
                disk.append(PATHS[path], &bytes);
                model.append(PATHS[path], &bytes);
            }
            Op::Truncate { path, len } => {
                disk.truncate(PATHS[path], len);
                model.truncate(PATHS[path], len);
            }
            Op::Remove { path } => {
                disk.remove(PATHS[path]);
                model.remove(PATHS[path]);
            }
            Op::Rename { from, to } => {
                disk.rename(PATHS[from], PATHS[to]);
                model.rename(PATHS[from], PATHS[to]);
            }
            Op::Corrupt { path, offset, xor } => {
                prop_assert_eq!(
                    disk.corrupt_byte(PATHS[path], offset, xor),
                    model.corrupt_byte(PATHS[path], offset, xor),
                    "step {}: corrupt_byte outcome",
                    step
                );
            }
            Op::Sync => {
                let before = disk.stats().bytes_synced;
                disk.sync();
                model.sync();
                let copied = disk.stats().bytes_synced - before;
                prop_assert!(
                    copied <= model.live_bytes(),
                    "step {}: sync copied {} bytes, more than the {} live",
                    step,
                    copied,
                    model.live_bytes()
                );
                disk.sync();
                prop_assert_eq!(
                    disk.stats().bytes_synced - before,
                    copied,
                    "step {}: a second sync copied bytes",
                    step
                );
            }
            Op::Crash => {
                disk.crash();
                model.crash();
            }
        }
        for path in PATHS {
            prop_assert_eq!(
                disk.read(path, 0, WHOLE),
                model.read(path, WHOLE),
                "step {} ({:?}): read {}",
                step,
                op,
                path
            );
            prop_assert_eq!(disk.len(path), model.len(path), "step {}: len {}", step, path);
            prop_assert_eq!(
                disk.exists(path),
                model.exists(path),
                "step {}: exists {}",
                step,
                path
            );
        }
        for prefix in ["", "dir/"] {
            prop_assert_eq!(disk.list(prefix), model.list(prefix), "step {}: list", step);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lockstep equivalence on a fault-free disk.
    #[test]
    fn incremental_sync_matches_clone_everything(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        run(&ops, None)?;
    }

    /// Lockstep equivalence under the same seeded bit flips and torn
    /// writes on both sides.
    #[test]
    fn incremental_sync_matches_clone_everything_under_faults(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        seed in 0u64..1 << 32,
        flip in prop_oneof![Just(0.05f64), Just(0.3f64)],
        torn in prop_oneof![Just(0.1f64), Just(0.5f64)],
    ) {
        run(&ops, Some((seed, flip, torn)))?;
    }
}
