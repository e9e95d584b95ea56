//! Per-file cached content as an in-memory extent map: the reference
//! implementation of the extent semantics the persistent store keeps.
//!
//! Data is stored as byte extents (clean or dirty), which supports the
//! partial write-back protocol: dirty extents are exactly the "list of
//! blocks' offsets" a recalled write delegation reports (§4.3.2).

use std::collections::{BTreeMap, BTreeSet};

/// One cached byte range of a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extent {
    /// The bytes.
    pub data: Vec<u8>,
    /// Whether this range holds locally modified data not yet written
    /// back to the server.
    pub dirty: bool,
}

/// Per-file cached content: non-overlapping extents keyed by offset.
#[derive(Debug, Default, Clone)]
pub struct FileCache {
    extents: BTreeMap<u64, Extent>,
}

impl FileCache {
    /// Returns the bytes in `[offset, offset+len)` if fully covered by
    /// cached extents.
    pub fn read(&self, offset: u64, len: usize) -> Option<Vec<u8>> {
        if len == 0 {
            return Some(Vec::new());
        }
        let end = offset + len as u64;
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        while pos < end {
            let (start, ext) = self.extents.range(..=pos).next_back()?;
            let ext_end = start + ext.data.len() as u64;
            if pos >= ext_end {
                return None; // gap
            }
            let from = (pos - start) as usize;
            let to = ((end.min(ext_end)) - start) as usize;
            out.extend_from_slice(&ext.data[from..to]);
            pos = start + to as u64;
        }
        Some(out)
    }

    /// The sub-ranges of `[offset, offset+len)` *not* covered by any
    /// cached extent, in order. Empty when the range is fully cached.
    /// Dirty extents count as covered: locally written bytes are never
    /// refetched.
    pub fn missing_ranges(&self, offset: u64, len: usize) -> Vec<(u64, usize)> {
        let mut gaps = Vec::new();
        if len == 0 {
            return gaps;
        }
        let end = offset + len as u64;
        let mut pos = offset;
        // The extent containing `pos` (if any), then everything after.
        let head = self.extents.range(..=pos).next_back();
        let tail = self.extents.range(pos + 1..end);
        for (start, ext) in head.into_iter().chain(tail) {
            let ext_end = start + ext.data.len() as u64;
            if ext_end <= pos {
                continue; // ends before the cursor
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

    /// Inserts bytes fetched from the server (clean). Overlapping cached
    /// ranges are replaced, except dirty bytes, which always win over
    /// incoming clean data.
    pub fn insert_clean(&mut self, offset: u64, data: Vec<u8>) {
        self.insert(offset, data, false);
    }

    /// Records locally written bytes (dirty).
    pub fn write_dirty(&mut self, offset: u64, data: Vec<u8>) {
        self.insert(offset, data, true);
    }

    fn insert(&mut self, offset: u64, data: Vec<u8>, dirty: bool) {
        if data.is_empty() {
            return;
        }
        let end = offset + data.len() as u64;
        // Collect overlapping extents.
        let overlapping: Vec<u64> = {
            let mut keys: Vec<u64> = self
                .extents
                .range(..end)
                .filter(|(start, ext)| *start + ext.data.len() as u64 > offset)
                .map(|(k, _)| *k)
                .collect();
            keys.sort_unstable();
            keys
        };
        let mut incoming: BTreeMap<u64, Extent> = BTreeMap::new();
        incoming.insert(offset, Extent { data, dirty });
        for key in overlapping {
            let existing = self.extents.remove(&key).expect("listed key");
            let existing_end = key + existing.data.len() as u64;
            // Head segment before the new range.
            if key < offset {
                let head_len = (offset - key) as usize;
                self.extents.insert(
                    key,
                    Extent { data: existing.data[..head_len].to_vec(), dirty: existing.dirty },
                );
            }
            // Tail segment after the new range.
            if existing_end > end {
                let tail_from = (end - key) as usize;
                self.extents.insert(
                    end,
                    Extent { data: existing.data[tail_from..].to_vec(), dirty: existing.dirty },
                );
            }
            // Overlapped middle: dirty existing bytes beat clean incoming.
            if existing.dirty && !dirty {
                let seg_start = key.max(offset);
                let seg_end = existing_end.min(end);
                let seg =
                    existing.data[(seg_start - key) as usize..(seg_end - key) as usize].to_vec();
                overlay(&mut incoming, seg_start, seg, true);
            }
        }
        for (k, v) in incoming {
            self.extents.insert(k, v);
        }
        self.coalesce();
    }

    fn coalesce(&mut self) {
        let keys: Vec<u64> = self.extents.keys().copied().collect();
        let mut prev: Option<u64> = None;
        for key in keys {
            if let Some(p) = prev {
                let merge = {
                    let prev_ext = &self.extents[&p];
                    let prev_end = p + prev_ext.data.len() as u64;
                    prev_end == key && prev_ext.dirty == self.extents[&key].dirty
                };
                if merge {
                    let ext = self.extents.remove(&key).expect("key");
                    self.extents.get_mut(&p).expect("prev").data.extend(ext.data);
                    continue;
                }
            }
            prev = Some(key);
        }
    }

    /// Offsets and lengths of all dirty extents, in order.
    pub fn dirty_ranges(&self) -> Vec<(u64, usize)> {
        self.extents.iter().filter(|(_, e)| e.dirty).map(|(o, e)| (*o, e.data.len())).collect()
    }

    /// Drops clean extents, keeping dirty data (attribute invalidation
    /// must never lose delayed writes).
    pub fn drop_clean(&mut self) {
        self.extents.retain(|_, e| e.dirty);
    }

    /// The aligned offsets of every `block_size` block containing dirty
    /// bytes — the "list of blocks' offsets" a recalled write delegation
    /// reports (§4.3.2).
    pub fn dirty_blocks(&self, block_size: u64) -> Vec<u64> {
        let mut blocks = BTreeSet::new();
        for (offset, len) in self.dirty_ranges() {
            let mut block = offset / block_size * block_size;
            while block < offset + len as u64 {
                blocks.insert(block);
                block += block_size;
            }
        }
        blocks.into_iter().collect()
    }

    /// The dirty byte segments inside one aligned block, as
    /// `(absolute_offset, bytes)` pairs.
    pub fn dirty_in_block(&self, block_offset: u64, block_size: u64) -> Vec<(u64, Vec<u8>)> {
        let block_end = block_offset + block_size;
        let mut out = Vec::new();
        for (start, ext) in &self.extents {
            if !ext.dirty {
                continue;
            }
            let ext_end = start + ext.data.len() as u64;
            if ext_end <= block_offset || *start >= block_end {
                continue;
            }
            let from = block_offset.max(*start);
            let to = block_end.min(ext_end);
            out.push((from, ext.data[(from - start) as usize..(to - start) as usize].to_vec()));
        }
        out
    }

    /// Marks every byte in `[offset, offset+len)` clean, splitting
    /// extents at the boundaries.
    pub fn clean_range(&mut self, offset: u64, len: u64) {
        let end = offset + len;
        let overlapping: Vec<u64> = self
            .extents
            .range(..end)
            .filter(|(start, ext)| ext.dirty && *start + ext.data.len() as u64 > offset)
            .map(|(k, _)| *k)
            .collect();
        for key in overlapping {
            let ext = self.extents.remove(&key).expect("listed key");
            let ext_end = key + ext.data.len() as u64;
            if key < offset {
                self.extents.insert(
                    key,
                    Extent { data: ext.data[..(offset - key) as usize].to_vec(), dirty: true },
                );
            }
            if ext_end > end {
                self.extents.insert(
                    end,
                    Extent { data: ext.data[(end - key) as usize..].to_vec(), dirty: true },
                );
            }
            let seg_start = key.max(offset);
            let seg_end = ext_end.min(end);
            self.extents.insert(
                seg_start,
                Extent {
                    data: ext.data[(seg_start - key) as usize..(seg_end - key) as usize].to_vec(),
                    dirty: false,
                },
            );
        }
        self.coalesce();
    }

    /// Whether any dirty extent exists.
    pub fn has_dirty(&self) -> bool {
        self.extents.values().any(|e| e.dirty)
    }

    /// Total cached bytes.
    pub fn bytes(&self) -> usize {
        self.extents.values().map(|e| e.data.len()).sum()
    }

    /// Number of extents; adjacent extents of one kind coalesce.
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }
}

fn overlay(map: &mut BTreeMap<u64, Extent>, offset: u64, data: Vec<u8>, dirty: bool) {
    // Helper used only while building the incoming set: the incoming map
    // holds exactly one base extent, and dirty segments are laid on top.
    let keys: Vec<u64> = map.keys().copied().collect();
    for key in keys {
        let ext = map.remove(&key).expect("key");
        let ext_end = key + ext.data.len() as u64;
        let end = offset + data.len() as u64;
        if key < offset {
            let head = (offset.min(ext_end) - key) as usize;
            map.insert(key, Extent { data: ext.data[..head].to_vec(), dirty: ext.dirty });
        }
        if ext_end > end {
            let from = (end.max(key) - key) as usize;
            map.insert(
                ext_end - (ext.data.len() - from) as u64,
                Extent { data: ext.data[from..].to_vec(), dirty: ext.dirty },
            );
        }
    }
    map.insert(offset, Extent { data, dirty });
}
