//! Differential property test at page scale: the disk's paged files,
//! with their moved-page undo records, must be observably identical to
//! a disk that keeps two full images of every file.
//!
//! File content lives in 32 KiB pages ([`gvfs_vfs::PAGE_SIZE`]), and a
//! truncation, removal or rename moves whole pages into the undo
//! records that a crash writes back; a `write_owned` buffer that fills
//! a page becomes that page, and the page it replaces moves into the
//! undo records too. Writes, appends and truncations
//! here reach several pages, so they cross page boundaries, cut pages
//! mid-way and move whole ones; sync, crash, remove, rename and bit rot
//! then exercise every path that saves or restores them. The reference
//! keeps the current and the durable image of each file in full, with
//! the disk's crash, deferred-unlink and rename rules. After every step
//! `read` and `len` must agree on both paths.

use gvfs_netsim::disk::{DiskConfig, VirtualDisk};
use gvfs_vfs::PAGE_SIZE;
use proptest::prelude::*;
use std::collections::HashMap;

const PATHS: [&str; 2] = ["a", "b"];
/// Offsets reach three pages in.
const SPAN: u64 = 3 * PAGE_SIZE as u64;

#[derive(Debug, Clone)]
enum Op {
    /// `owned` writes go through `write_owned`.
    Write {
        path: usize,
        offset: u64,
        len: usize,
        owned: bool,
    },
    Append {
        path: usize,
        len: usize,
    },
    Truncate {
        path: usize,
        len: u64,
    },
    Remove {
        path: usize,
    },
    Rename {
        from: usize,
    },
    Corrupt {
        path: usize,
        offset: u64,
    },
    Sync,
    Crash,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let path = 0..PATHS.len();
    prop_oneof![
        (path.clone(), 0..SPAN, 1..PAGE_SIZE + 512, any::<bool>())
            .prop_map(|(path, offset, len, owned)| Op::Write { path, offset, len, owned }),
        // Owned whole and last pages, which the disk keeps uncopied.
        (path.clone(), 0..SPAN / PAGE_SIZE as u64, prop_oneof![Just(PAGE_SIZE), 1..PAGE_SIZE])
            .prop_map(|(path, page, len)| Op::Write {
                path,
                offset: page * PAGE_SIZE as u64,
                len,
                owned: true
            }),
        (path.clone(), 0..2 * PAGE_SIZE).prop_map(|(path, len)| Op::Append { path, len }),
        (path.clone(), prop_oneof![Just(0u64), 0..SPAN])
            .prop_map(|(path, len)| Op::Truncate { path, len }),
        path.clone().prop_map(|path| Op::Remove { path }),
        path.clone().prop_map(|from| Op::Rename { from }),
        (path, 0..SPAN).prop_map(|(path, offset)| Op::Corrupt { path, offset }),
        Just(Op::Sync),
        Just(Op::Crash),
    ]
}

/// Distinct bytes per operation, so a stale copy never reads as fresh.
fn fill(counter: u32, len: usize) -> Vec<u8> {
    let b = counter.to_le_bytes();
    (0..len).map(|i| b[i % 4].wrapping_add((i / 4) as u8)).collect()
}

/// One reference file: the current and the durable image in full.
#[derive(Debug, Default)]
struct RefFile {
    data: Vec<u8>,
    durable: Vec<u8>,
    deleted: bool,
}

#[derive(Default)]
struct RefDisk {
    files: HashMap<String, RefFile>,
}

impl RefDisk {
    fn open(&mut self, path: &str) -> &mut Vec<u8> {
        let file = self.files.entry(path.to_owned()).or_default();
        if file.deleted {
            file.deleted = false;
            file.data.clear();
        }
        &mut file.data
    }

    fn live(&mut self, path: &str) -> Option<&mut RefFile> {
        self.files.get_mut(path).filter(|f| !f.deleted)
    }

    fn apply(&mut self, op: &Op, bytes: &[u8]) -> bool {
        match *op {
            Op::Write { path, offset, .. } => {
                let data = self.open(PATHS[path]);
                let (off, end) = (offset as usize, offset as usize + bytes.len());
                if data.len() < end {
                    data.resize(end, 0);
                }
                data[off..end].copy_from_slice(bytes);
            }
            Op::Append { path, .. } => self.open(PATHS[path]).extend_from_slice(bytes),
            Op::Truncate { path, len } => self.open(PATHS[path]).truncate(len as usize),
            Op::Remove { path } => {
                if let Some(f) = self.files.get_mut(PATHS[path]) {
                    if f.durable.is_empty() {
                        self.files.remove(PATHS[path]);
                    } else {
                        f.deleted = true;
                        f.data.clear();
                    }
                }
            }
            Op::Rename { from } => {
                let (old, new) = (PATHS[from], PATHS[1 - from]);
                if let Some(mut f) = self.files.remove(old) {
                    if let Some(prev) = self.files.get(new) {
                        if !prev.durable.is_empty() && f.durable.is_empty() {
                            f.durable = prev.durable.clone();
                        }
                    }
                    self.files.insert(new.to_owned(), f);
                }
            }
            Op::Corrupt { path, offset } => {
                let Some(f) = self.live(PATHS[path]) else { return false };
                let off = offset as usize;
                if off >= f.data.len() {
                    return false;
                }
                f.data[off] ^= 0x5a;
                if off < f.durable.len() {
                    f.durable[off] ^= 0x5a;
                }
                return true;
            }
            Op::Sync => {
                self.files.retain(|_, f| !f.deleted);
                for f in self.files.values_mut() {
                    f.durable = f.data.clone();
                }
            }
            Op::Crash => self.files.retain(|_, f| {
                if !f.deleted && f.data.len() > f.durable.len() {
                    let torn = (f.data.len() - f.durable.len()) / 2;
                    f.data.truncate(f.durable.len() + torn);
                    f.data[..f.durable.len()].copy_from_slice(&f.durable);
                } else {
                    f.data = f.durable.clone();
                }
                f.deleted = false;
                !f.data.is_empty() || !f.durable.is_empty()
            }),
        }
        false
    }
}

fn run(ops: &[Op]) -> Result<(), TestCaseError> {
    let disk = VirtualDisk::new(DiskConfig::instant());
    let mut model = RefDisk::default();
    for (step, op) in ops.iter().enumerate() {
        let counter = u32::try_from(step).expect("few steps") + 1;
        let bytes = match *op {
            Op::Write { len, .. } | Op::Append { len, .. } => fill(counter, len),
            _ => Vec::new(),
        };
        match *op {
            Op::Write { path, offset, owned: false, .. } => disk.write(PATHS[path], offset, &bytes),
            Op::Write { path, offset, owned: true, .. } => {
                disk.write_owned(PATHS[path], offset, bytes.clone());
            }
            Op::Append { path, .. } => {
                disk.append(PATHS[path], &bytes);
            }
            Op::Truncate { path, len } => disk.truncate(PATHS[path], len),
            Op::Remove { path } => disk.remove(PATHS[path]),
            Op::Rename { from } => disk.rename(PATHS[from], PATHS[1 - from]),
            Op::Corrupt { path, offset } => {
                let hit = disk.corrupt_byte(PATHS[path], offset, 0x5a);
                prop_assert_eq!(hit, model.apply(op, &bytes), "step {}: corrupt_byte", step);
                continue;
            }
            Op::Sync => disk.sync(),
            Op::Crash => disk.crash(),
        }
        model.apply(op, &bytes);
        for path in PATHS {
            let want = model.live(path).map(|f| f.data.clone());
            prop_assert_eq!(
                disk.read(path, 0, usize::MAX),
                want.clone(),
                "step {} ({:?}): read {}",
                step,
                op,
                path
            );
            prop_assert_eq!(disk.len(path), want.map(|d| d.len() as u64), "step {}: len", step);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lockstep equivalence with the two-image disk at page scale.
    #[test]
    fn paged_files_match_two_full_images(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        run(&ops)?;
    }
}
