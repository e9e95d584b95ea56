//! Model-based property test for the proxy's extent cache.
//!
//! `FileCache`, the extent map of the in-memory oracle store
//! (`support/file_cache.rs`), maintains non-overlapping
//! clean/dirty extents with splitting, coalescing, overlays (dirty beats
//! incoming clean) and block-grained cleaning. This test drives it with
//! random operation sequences against a flat reference model (one byte +
//! one state flag per offset) and checks every observable after every
//! step. Unit tests of single operations follow the properties.

mod support;

use proptest::prelude::*;
use support::file_cache::FileCache;

const SPACE: usize = 4096; // model address space
const BLOCK: u64 = 256;

#[derive(Debug, Clone)]
enum Op {
    InsertClean { offset: usize, len: usize, byte: u8 },
    WriteDirty { offset: usize, len: usize, byte: u8 },
    CleanRange { offset: usize, len: usize },
    DropClean,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let range = (0usize..SPACE - 1, 1usize..512, any::<u8>());
    prop_oneof![
        range.clone().prop_map(|(offset, len, byte)| Op::InsertClean {
            offset,
            len: len.min(SPACE - offset),
            byte
        }),
        range.prop_map(|(offset, len, byte)| Op::WriteDirty {
            offset,
            len: len.min(SPACE - offset),
            byte
        }),
        (0usize..SPACE - 1, 1usize..1024)
            .prop_map(|(offset, len)| Op::CleanRange { offset, len: len.min(SPACE - offset) }),
        Just(Op::DropClean),
    ]
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum CellState {
    Absent,
    Clean,
    Dirty,
}

struct Model {
    bytes: [u8; SPACE],
    state: [CellState; SPACE],
}

impl Model {
    fn new() -> Self {
        Model { bytes: [0; SPACE], state: [CellState::Absent; SPACE] }
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::InsertClean { offset, len, byte } => {
                for i in offset..offset + len {
                    // Dirty bytes beat incoming clean data.
                    if self.state[i] != CellState::Dirty {
                        self.bytes[i] = byte;
                        self.state[i] = CellState::Clean;
                    }
                }
            }
            Op::WriteDirty { offset, len, byte } => {
                for i in offset..offset + len {
                    self.bytes[i] = byte;
                    self.state[i] = CellState::Dirty;
                }
            }
            Op::CleanRange { offset, len } => {
                for i in offset..offset + len {
                    if self.state[i] == CellState::Dirty {
                        self.state[i] = CellState::Clean;
                    }
                }
            }
            Op::DropClean => {
                for i in 0..SPACE {
                    if self.state[i] == CellState::Clean {
                        self.state[i] = CellState::Absent;
                    }
                }
            }
        }
    }

    /// `Some(bytes)` iff the whole range is present.
    fn read(&self, offset: usize, len: usize) -> Option<Vec<u8>> {
        if (offset..offset + len).all(|i| self.state[i] != CellState::Absent) {
            Some(self.bytes[offset..offset + len].to_vec())
        } else {
            None
        }
    }

    fn dirty_mask(&self) -> Vec<bool> {
        self.state.iter().map(|s| *s == CellState::Dirty).collect()
    }
}

fn apply_real(fc: &mut FileCache, op: &Op) {
    match *op {
        Op::InsertClean { offset, len, byte } => fc.insert_clean(offset as u64, vec![byte; len]),
        Op::WriteDirty { offset, len, byte } => fc.write_dirty(offset as u64, vec![byte; len]),
        Op::CleanRange { offset, len } => fc.clean_range(offset as u64, len as u64),
        Op::DropClean => fc.drop_clean(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn file_cache_matches_flat_model(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        probes in proptest::collection::vec((0usize..SPACE - 1, 1usize..256), 8),
    ) {
        let mut fc = FileCache::default();
        let mut model = Model::new();
        for op in &ops {
            apply_real(&mut fc, op);
            model.apply(op);

            // Probe random reads.
            for &(offset, len) in &probes {
                let len = len.min(SPACE - offset);
                let real = fc.read(offset as u64, len);
                let expected = model.read(offset, len);
                prop_assert_eq!(&real, &expected,
                    "read({}, {}) diverged after {:?}", offset, len, op);
            }

            // Dirty ranges must match the model's dirty mask exactly.
            let mask = model.dirty_mask();
            let mut real_mask = vec![false; SPACE];
            for (off, len) in fc.dirty_ranges() {
                prop_assert!(off as usize + len <= SPACE);
                for flag in &mut real_mask[off as usize..off as usize + len] {
                    prop_assert!(!*flag, "overlapping dirty extents");
                    *flag = true;
                }
            }
            prop_assert_eq!(&real_mask, &mask, "dirty mask diverged after {:?}", op);

            // dirty_blocks covers exactly the blocks containing dirty bytes.
            let expected_blocks: Vec<u64> = (0..SPACE as u64 / BLOCK)
                .map(|b| b * BLOCK)
                .filter(|&b| (b..b + BLOCK).any(|i| mask[i as usize]))
                .collect();
            prop_assert_eq!(fc.dirty_blocks(BLOCK), expected_blocks);

            // dirty_in_block segments reassemble the block's dirty bytes.
            for &block in &fc.dirty_blocks(BLOCK) {
                for (seg_off, seg) in fc.dirty_in_block(block, BLOCK) {
                    for (k, &byte) in seg.iter().enumerate() {
                        let i = seg_off as usize + k;
                        prop_assert!(mask[i], "segment byte not dirty in model");
                        prop_assert_eq!(byte, model.bytes[i]);
                    }
                }
            }

            // has_dirty agrees.
            prop_assert_eq!(fc.has_dirty(), mask.iter().any(|&d| d));
        }
    }

    /// `missing_ranges` is the read path's gap planner: the union of the
    /// returned gaps and the cached cells must tile the requested range
    /// exactly, gaps must be in order and disjoint, and dirty bytes must
    /// never be scheduled for refetch.
    #[test]
    fn missing_ranges_tiles_the_requested_range(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        probes in proptest::collection::vec((0usize..SPACE - 1, 0usize..512), 8),
    ) {
        let mut fc = FileCache::default();
        let mut model = Model::new();
        for op in &ops {
            apply_real(&mut fc, op);
            model.apply(op);

            for &(offset, len) in &probes {
                let len = len.min(SPACE - offset);
                let gaps = fc.missing_ranges(offset as u64, len);
                prop_assert_eq!(gaps.is_empty(), len == 0 || model.read(offset, len).is_some(),
                    "no gaps iff the whole range is cached");

                let mut in_gap = vec![false; len];
                let mut last_end = offset as u64;
                for &(goff, glen) in &gaps {
                    prop_assert!(glen > 0, "empty gap");
                    prop_assert!(goff >= last_end, "gaps out of order or overlapping");
                    prop_assert!(goff as usize + glen <= offset + len, "gap leaks past range");
                    last_end = goff + glen as u64;
                    for flag in &mut in_gap[goff as usize - offset..goff as usize - offset + glen] {
                        *flag = true;
                    }
                }

                // Gaps ∪ cached cells == requested range, disjointly:
                // a cell is in a gap exactly when the model lacks it.
                for (i, &flag) in in_gap.iter().enumerate() {
                    let absent = model.state[offset + i] == CellState::Absent;
                    prop_assert_eq!(flag, absent,
                        "cell {} of range ({}, {}) miscategorized", i, offset, len);
                    if model.state[offset + i] == CellState::Dirty {
                        prop_assert!(!flag, "dirty byte scheduled for refetch");
                    }
                }
            }
        }
    }
}

#[test]
fn file_cache_read_exact_and_partial() {
    let mut fc = FileCache::default();
    fc.insert_clean(0, vec![1, 2, 3, 4]);
    assert_eq!(fc.read(0, 4).unwrap(), vec![1, 2, 3, 4]);
    assert_eq!(fc.read(1, 2).unwrap(), vec![2, 3]);
    assert!(fc.read(0, 5).is_none(), "uncovered tail");
    assert!(fc.read(4, 1).is_none());
    assert_eq!(fc.read(0, 0).unwrap(), Vec::<u8>::new());
}

#[test]
fn file_cache_detects_gaps() {
    let mut fc = FileCache::default();
    fc.insert_clean(0, vec![1; 4]);
    fc.insert_clean(8, vec![2; 4]);
    assert!(fc.read(0, 12).is_none());
    assert_eq!(fc.read(8, 4).unwrap(), vec![2; 4]);
}

#[test]
fn file_cache_coalesces_adjacent() {
    let mut fc = FileCache::default();
    fc.insert_clean(0, vec![1; 4]);
    fc.insert_clean(4, vec![2; 4]);
    assert_eq!(fc.extent_count(), 1);
    assert_eq!(fc.read(0, 8).unwrap(), [[1u8; 4], [2u8; 4]].concat());
}

#[test]
fn overwrite_replaces_clean_data() {
    let mut fc = FileCache::default();
    fc.insert_clean(0, vec![1; 8]);
    fc.insert_clean(2, vec![9; 4]);
    assert_eq!(fc.read(0, 8).unwrap(), vec![1, 1, 9, 9, 9, 9, 1, 1]);
}

#[test]
fn dirty_beats_incoming_clean() {
    let mut fc = FileCache::default();
    fc.write_dirty(2, vec![7; 4]);
    fc.insert_clean(0, vec![0; 8]); // stale server data arrives
    assert_eq!(fc.read(0, 8).unwrap(), vec![0, 0, 7, 7, 7, 7, 0, 0]);
    assert_eq!(fc.dirty_ranges(), vec![(2, 4)]);
}

#[test]
fn dirty_overwrites_clean_and_tracks_ranges() {
    let mut fc = FileCache::default();
    fc.insert_clean(0, vec![1; 10]);
    fc.write_dirty(4, vec![9; 2]);
    assert_eq!(fc.read(0, 10).unwrap(), vec![1, 1, 1, 1, 9, 9, 1, 1, 1, 1]);
    assert_eq!(fc.dirty_ranges(), vec![(4, 2)]);
    assert!(fc.has_dirty());
}

#[test]
fn drop_clean_preserves_dirty() {
    let mut fc = FileCache::default();
    fc.insert_clean(0, vec![1; 4]);
    fc.write_dirty(8, vec![2; 4]);
    fc.drop_clean();
    assert!(fc.read(0, 4).is_none());
    assert_eq!(fc.read(8, 4).unwrap(), vec![2; 4]);
}

#[test]
fn dirty_blocks_enumerates_aligned_blocks() {
    let mut fc = FileCache::default();
    fc.write_dirty(100, vec![1; 50]); // block 0
    fc.write_dirty(32768 + 10, vec![2; 32768]); // blocks 1 and 2
    assert_eq!(fc.dirty_blocks(32768), vec![0, 32768, 65536]);
}

#[test]
fn dirty_in_block_returns_segments() {
    let mut fc = FileCache::default();
    fc.write_dirty(100, vec![1; 50]);
    fc.write_dirty(200, vec![2; 10]);
    fc.write_dirty(40000, vec![3; 10]); // next block
    let segs = fc.dirty_in_block(0, 32768);
    assert_eq!(segs.len(), 2);
    assert_eq!(segs[0], (100, vec![1; 50]));
    assert_eq!(segs[1], (200, vec![2; 10]));
    assert_eq!(fc.dirty_in_block(32768, 32768), vec![(40000, vec![3; 10])]);
}

#[test]
fn clean_range_splits_extents() {
    let mut fc = FileCache::default();
    fc.write_dirty(0, vec![1; 100]);
    fc.clean_range(20, 30);
    let ranges = fc.dirty_ranges();
    assert_eq!(ranges, vec![(0, 20), (50, 50)]);
    // Data is unchanged.
    assert_eq!(fc.read(0, 100).unwrap(), vec![1; 100]);
    fc.clean_range(0, 100);
    assert!(!fc.has_dirty());
}

#[test]
fn missing_ranges_reports_gaps_in_order() {
    let mut fc = FileCache::default();
    assert_eq!(fc.missing_ranges(0, 10), vec![(0, 10)], "empty cache is one gap");
    assert_eq!(fc.missing_ranges(5, 0), Vec::<(u64, usize)>::new());
    fc.insert_clean(4, vec![1; 4]); // [4, 8)
    assert_eq!(fc.missing_ranges(0, 12), vec![(0, 4), (8, 4)]);
    assert_eq!(fc.missing_ranges(4, 4), Vec::<(u64, usize)>::new());
    assert_eq!(fc.missing_ranges(5, 2), Vec::<(u64, usize)>::new(), "inside one extent");
    assert_eq!(fc.missing_ranges(6, 4), vec![(8, 2)], "tail gap only");
    assert_eq!(fc.missing_ranges(0, 5), vec![(0, 4)], "head gap only");
    fc.insert_clean(10, vec![2; 2]); // [10, 12)
    assert_eq!(fc.missing_ranges(0, 14), vec![(0, 4), (8, 2), (12, 2)]);
    assert_eq!(fc.missing_ranges(20, 3), vec![(20, 3)], "fully past cached data");
}

#[test]
fn missing_ranges_counts_dirty_as_covered() {
    let mut fc = FileCache::default();
    fc.write_dirty(4, vec![9; 4]);
    assert_eq!(fc.missing_ranges(0, 12), vec![(0, 4), (8, 4)]);
    assert_eq!(fc.missing_ranges(4, 4), Vec::<(u64, usize)>::new());
}
