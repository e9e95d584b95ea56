//! File content in fixed-size pages.

use std::fmt;

/// Bytes per page: the NFS transfer size, so one block of the proxies'
/// caches and one READ or WRITE reply map onto one page.
pub const PAGE_SIZE: usize = 32 * 1024;

/// Zeros to fill holes and extensions from.
static ZEROS: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// Pages per chunk of a file's page table. The table grows a chunk at a
/// time, so a long file never reallocates and copies its whole table: a
/// 256 MiB log has 8192 pages, 192 KiB of table.
const TABLE_CHUNK: usize = 64;

/// A file's bytes in [`PAGE_SIZE`] pages.
///
/// Every page but the last holds exactly `PAGE_SIZE` bytes in an
/// allocation of exactly that size, so a growing file never copies the
/// bytes it already holds and never holds more than one page of unused
/// capacity. The last page is allocated to its exact length, with two
/// kinds of bounded growth: an append that starts mid-page and runs past
/// that page allocates its own last page whole (a streaming writer
/// fills it next), and shorter appends grow it by doubling up to a
/// page. A page of a hole that no write has touched since is a *hole
/// page*: an empty vector that reads as zeros and allocates nothing, so
/// a write far past the end costs its own pages, not the hole's. A
/// write into a hole page allocates it.
#[derive(Default)]
pub struct Pages {
    /// The pages, in chunks of [`TABLE_CHUNK`]; every chunk but the last
    /// is full, and the file has `len.div_ceil(PAGE_SIZE)` pages.
    table: Vec<Vec<Vec<u8>>>,
    len: usize,
}

impl fmt::Debug for Pages {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pages").field("len", &self.len).field("pages", &self.page_count()).finish()
    }
}

impl Pages {
    /// An empty file.
    #[must_use]
    pub const fn new() -> Self {
        Pages { table: Vec::new(), len: 0 }
    }

    fn page_count(&self) -> usize {
        self.len.div_ceil(PAGE_SIZE)
    }

    /// The vector of page `i`, empty for a hole page.
    fn slot(&mut self, i: usize) -> &mut Vec<u8> {
        &mut self.table[i / TABLE_CHUNK][i % TABLE_CHUNK]
    }

    /// The length of page `i`: a whole page, or what the last one holds.
    fn page_len(&self, i: usize) -> usize {
        PAGE_SIZE.min(self.len - i * PAGE_SIZE)
    }

    /// Page `i`, allocated (as zeros) if it is a hole page.
    fn page_mut(&mut self, i: usize) -> &mut Vec<u8> {
        let len = self.page_len(i);
        let page = self.slot(i);
        if page.is_empty() {
            *page = vec![0; len];
        }
        page
    }

    /// Adds a page after the last one. A file's first chunk grows with
    /// it from one entry; later chunks are allocated whole.
    fn push(&mut self, page: Vec<u8>) {
        match self.table.last_mut() {
            Some(chunk) if chunk.len() < TABLE_CHUNK => chunk.push(page),
            Some(_) => {
                let mut chunk = Vec::with_capacity(TABLE_CHUNK);
                chunk.push(page);
                self.table.push(chunk);
            }
            None => self.table = vec![vec![page]],
        }
    }

    /// Drops the pages from the `n`-th on.
    fn truncate_pages(&mut self, n: usize) {
        self.table.truncate(n.div_ceil(TABLE_CHUNK));
        if let Some(chunk) = self.table.last_mut() {
            chunk.truncate(n - (n - 1) / TABLE_CHUNK * TABLE_CHUNK);
        }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the file holds no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes allocated for the pages' content.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.table.iter().flatten().map(Vec::capacity).sum()
    }

    /// Borrows `[start, end)`, clamped to the length.
    #[must_use]
    pub fn slice(&self, start: usize, end: usize) -> Slices<'_> {
        Slices { table: &self.table, start: 0, len: self.len }.sub(start, end)
    }

    /// Writes `bytes` at `offset`, zero-filling any hole before it.
    pub fn write(&mut self, offset: usize, bytes: &[u8]) {
        if offset > self.len {
            self.resize(offset);
        }
        let (over, tail) = bytes.split_at(bytes.len().min(self.len - offset));
        let mut pos = offset;
        for piece in over.chunks(PAGE_SIZE) {
            // A piece that starts mid-page may cross into the next page.
            let (page, at) = (pos / PAGE_SIZE, pos % PAGE_SIZE);
            let head = piece.len().min(PAGE_SIZE - at);
            self.page_mut(page)[at..at + head].copy_from_slice(&piece[..head]);
            if head < piece.len() {
                self.page_mut(page + 1)[..piece.len() - head].copy_from_slice(&piece[head..]);
            }
            pos += piece.len();
        }
        self.append(tail);
    }

    /// Truncates to `len` bytes, or zero-extends to it. Truncation frees
    /// the pages past the end; a cut last page keeps its allocation. An
    /// allocated last page is zero-filled to its end, and the rest of the
    /// extension is hole pages.
    pub fn resize(&mut self, len: usize) {
        let at = self.len % PAGE_SIZE;
        if len > self.len && at > 0 && !self.slot(self.len / PAGE_SIZE).is_empty() {
            self.append(&ZEROS[..(len - self.len).min(PAGE_SIZE - at)]);
        }
        if len > self.len {
            for _ in self.page_count()..len.div_ceil(PAGE_SIZE) {
                self.push(Vec::new());
            }
            self.len = len;
        }
        if len < self.len {
            self.truncate_pages(len.div_ceil(PAGE_SIZE));
            if len > 0 {
                self.slot((len - 1) / PAGE_SIZE).truncate(len - (len - 1) / PAGE_SIZE * PAGE_SIZE);
            }
            self.len = len;
        }
    }

    /// Removes the bytes from `at` on and returns them as
    /// `(offset, bytes)` pieces, one per page: whole pages move out
    /// uncopied, and only the part of a page cut at `at` is copied. A
    /// hole page comes out as zeros.
    pub fn split_off(&mut self, at: usize) -> Vec<(usize, Vec<u8>)> {
        if at >= self.len {
            return Vec::new();
        }
        let (first, end) = (at.div_ceil(PAGE_SIZE), self.len);
        let mut out = Vec::with_capacity(self.page_count() - first + 1);
        if !at.is_multiple_of(PAGE_SIZE) {
            let page_end = end.min(at.next_multiple_of(PAGE_SIZE));
            let cut = self.slot(at / PAGE_SIZE);
            let tail =
                if cut.is_empty() { vec![0; page_end - at] } else { cut.split_off(at % PAGE_SIZE) };
            out.push((at, tail));
        }
        // The pages from `first` on in its chunk, then the later chunks.
        let mut offset = first * PAGE_SIZE;
        let mut take = |page: Vec<u8>| {
            let page = if page.is_empty() { vec![0; PAGE_SIZE.min(end - offset)] } else { page };
            out.push((offset, page));
            offset += PAGE_SIZE;
        };
        if !first.is_multiple_of(TABLE_CHUNK) {
            self.table[first / TABLE_CHUNK].drain(first % TABLE_CHUNK..).for_each(&mut take);
        }
        self.table.drain(first.div_ceil(TABLE_CHUNK)..).flatten().for_each(take);
        self.len = at;
        out
    }

    /// XORs `mask` into the byte at `idx` (below the length).
    pub fn xor(&mut self, idx: usize, mask: u8) {
        assert!(idx < self.len, "byte {idx} past the end ({})", self.len);
        self.page_mut(idx / PAGE_SIZE)[idx % PAGE_SIZE] ^= mask;
    }

    /// Makes `page` the page that starts at `offset` and returns the page
    /// it replaces, copying neither (a hole page comes back as zeros).
    /// `page` must fill that page's place: be `PAGE_SIZE` long, or be the
    /// last page and reach at least the end; and its allocation must be
    /// exactly its length.
    ///
    /// # Errors
    ///
    /// `page` itself, and nothing changes, when `offset` is not a page
    /// start below the length or `page` does not fill the place.
    pub fn replace_page(&mut self, offset: usize, page: Vec<u8>) -> Result<Vec<u8>, Vec<u8>> {
        let end = offset + page.len();
        let fills = page.len() == PAGE_SIZE || (page.len() < PAGE_SIZE && end >= self.len);
        let exact = page.capacity() == page.len();
        if !offset.is_multiple_of(PAGE_SIZE) || offset >= self.len || !fills || !exact {
            return Err(page);
        }
        let old = std::mem::replace(self.page_mut(offset / PAGE_SIZE), page);
        self.len = self.len.max(end);
        Ok(old)
    }

    /// Appends `bytes` page by page. Every page but the last is
    /// allocated once, full. An append that starts mid-page and runs
    /// past that page's end allocates its own last page whole (a
    /// streaming writer fills it next); other appends allocate it exactly
    /// or, growing it, double its capacity up to a page.
    pub fn append(&mut self, mut bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let at = self.len % PAGE_SIZE;
        let streaming = at > 0 && at + bytes.len() > PAGE_SIZE;
        let len = self.len + bytes.len();
        if at > 0 {
            let last = self.page_mut(self.len / PAGE_SIZE);
            let n = bytes.len().min(PAGE_SIZE - last.len());
            let need = last.len() + n;
            if need > last.capacity() {
                let cap = need.max(2 * last.capacity()).min(PAGE_SIZE);
                last.reserve_exact(cap - last.len());
            }
            last.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
        }
        for piece in bytes.chunks(PAGE_SIZE) {
            let mut page = Vec::with_capacity(if streaming { PAGE_SIZE } else { piece.len() });
            page.extend_from_slice(piece);
            self.push(page);
        }
        self.len = len;
    }
}

/// A borrowed byte range of a [`Pages`]: one piece per page it
/// touches, lent in order without gathering them into a copy. The
/// default is the empty range.
#[derive(Clone, Copy, Default)]
pub struct Slices<'a> {
    /// The page table of the [`Pages`] the range is in.
    table: &'a [Vec<Vec<u8>>],
    /// Offset of the range in the file.
    start: usize,
    len: usize,
}

impl fmt::Debug for Slices<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(<[u8]>::len)).finish()
    }
}

impl<'a> Slices<'a> {
    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the range is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pieces, in order; none is empty.
    pub fn iter(&self) -> impl Iterator<Item = &'a [u8]> + 'a {
        let (table, start, end) = (self.table, self.start, self.start + self.len);
        let pages = if self.len == 0 { 0..0 } else { start / PAGE_SIZE..end.div_ceil(PAGE_SIZE) };
        pages.map(move |i| {
            let base = i * PAGE_SIZE;
            let page = &table[i / TABLE_CHUNK][i % TABLE_CHUNK];
            let page = if page.is_empty() { &ZEROS[..] } else { page };
            &page[start.max(base) - base..end.min(base + PAGE_SIZE) - base]
        })
    }

    /// The sub-range `[start, end)` of this range, clamped to its length.
    #[must_use]
    pub fn sub(&self, start: usize, end: usize) -> Slices<'a> {
        let end = end.min(self.len);
        let start = start.min(end);
        if start == end {
            return Slices::default();
        }
        Slices { table: self.table, start: self.start + start, len: end - start }
    }

    /// Copies the range into a new vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for piece in self.iter() {
            out.extend_from_slice(piece);
        }
        out
    }
}

impl PartialEq<[u8]> for Slices<'_> {
    fn eq(&self, other: &[u8]) -> bool {
        if self.len != other.len() {
            return false;
        }
        let mut rest = other;
        self.iter().all(|piece| {
            let (head, tail) = rest.split_at(piece.len());
            rest = tail;
            head == piece
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
    }

    fn pages(bytes: &[u8]) -> Pages {
        let mut p = Pages::new();
        p.append(bytes);
        p
    }

    #[test]
    fn a_write_straddling_page_boundaries_reads_back_in_pieces() {
        let mut p = Pages::new();
        let bytes = pattern(3 * PAGE_SIZE, 1);
        p.write(0, &bytes);
        let over = pattern(PAGE_SIZE + 100, 2);
        p.write(PAGE_SIZE - 50, &over);
        let mut want = bytes.clone();
        want[PAGE_SIZE - 50..2 * PAGE_SIZE + 50].copy_from_slice(&over);
        assert_eq!(p.slice(0, p.len()).to_vec(), want);
        let s = p.slice(PAGE_SIZE - 10, 2 * PAGE_SIZE + 10);
        let lens: Vec<usize> = s.iter().map(<[u8]>::len).collect();
        assert_eq!(lens, [10, PAGE_SIZE, 10], "one piece per page touched");
        assert_eq!(s, want[PAGE_SIZE - 10..2 * PAGE_SIZE + 10]);
        assert_eq!(s.sub(5, PAGE_SIZE + 15), want[PAGE_SIZE - 5..2 * PAGE_SIZE + 5]);
        assert_eq!(s.sub(12, 14).iter().count(), 1, "a sub-range inside one page is one piece");
    }

    #[test]
    fn holes_read_as_zeros() {
        let mut p = Pages::new();
        p.write(2 * PAGE_SIZE + 7, b"xy");
        assert_eq!(p.len(), 2 * PAGE_SIZE + 9);
        let all = p.slice(0, p.len()).to_vec();
        assert!(all[..2 * PAGE_SIZE + 7].iter().all(|&b| b == 0));
        assert_eq!(&all[2 * PAGE_SIZE + 7..], b"xy");
        assert!(p.slice(10, 5).is_empty());
        assert!(p.slice(p.len() + 1, p.len() + 9).is_empty());
    }

    #[test]
    fn a_hole_allocates_nothing_until_written() {
        let mut p = Pages::new();
        p.write(1000 * PAGE_SIZE + 3, b"far");
        assert_eq!(p.len(), 1000 * PAGE_SIZE + 6);
        assert_eq!(p.capacity(), 6, "only the written page");
        assert!(p.slice(0, 1000 * PAGE_SIZE + 3).iter().all(|piece| piece.iter().all(|&b| b == 0)));
        p.write(7 * PAGE_SIZE + 1, b"x");
        p.xor(9 * PAGE_SIZE, 0x10);
        assert_eq!(p.capacity(), 6 + 2 * PAGE_SIZE, "a touched hole page is allocated");
        let mut want = vec![0; 1000 * PAGE_SIZE + 6];
        want[7 * PAGE_SIZE + 1] = b'x';
        want[9 * PAGE_SIZE] = 0x10;
        want[1000 * PAGE_SIZE + 3..].copy_from_slice(b"far");
        assert_eq!(p.slice(0, p.len()), want[..]);
        let old = p.replace_page(10 * PAGE_SIZE, vec![1; PAGE_SIZE]).expect("a whole page");
        assert_eq!(old, vec![0; PAGE_SIZE], "a replaced hole page comes back as zeros");
        want[10 * PAGE_SIZE..11 * PAGE_SIZE].fill(1);
        let tail: Vec<u8> =
            p.split_off(8 * PAGE_SIZE + 5).into_iter().flat_map(|(_, b)| b).collect();
        assert_eq!(tail, want[8 * PAGE_SIZE + 5..], "split-off hole pages come out as zeros");
        p.resize(20 * PAGE_SIZE + 9);
        assert_eq!(
            p.capacity(),
            PAGE_SIZE,
            "only page 7 is left allocated; the regrown tail is holes"
        );
        assert_eq!(p.slice(8 * PAGE_SIZE, p.len()).to_vec(), vec![0; 12 * PAGE_SIZE + 9]);
    }

    #[test]
    fn shrink_and_grow_zero_the_regrown_bytes() {
        let mut p = pages(&pattern(PAGE_SIZE + 500, 3));
        p.resize(PAGE_SIZE - 3);
        assert_eq!(p.len(), PAGE_SIZE - 3);
        p.resize(PAGE_SIZE + 10);
        let all = p.slice(0, p.len()).to_vec();
        assert_eq!(all[..PAGE_SIZE - 3], pattern(PAGE_SIZE + 500, 3)[..PAGE_SIZE - 3]);
        assert!(all[PAGE_SIZE - 3..].iter().all(|&b| b == 0), "regrown bytes are zero");
        p.resize(0);
        assert!(p.is_empty());
        assert_eq!(p.capacity(), 0, "no pages are kept");
    }

    #[test]
    fn capacity_equals_length_for_page_aligned_writes() {
        for len in [1, 100, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1, 5 * PAGE_SIZE + 77] {
            let p = pages(&pattern(len, 4));
            assert_eq!(p.capacity(), len, "one write of {len} B");
            let mut q = Pages::new();
            for (i, block) in pattern(len, 5).chunks(PAGE_SIZE).enumerate() {
                q.write(i * PAGE_SIZE, block);
            }
            assert_eq!(q.capacity(), len, "page-sized writes of {len} B");
            assert_eq!(q.slice(0, q.len()), pattern(len, 5)[..]);
        }
    }

    #[test]
    fn cuts_and_ranges_across_table_chunks_match_the_bytes() {
        let chunk = TABLE_CHUNK * PAGE_SIZE;
        let bytes = pattern(2 * chunk + 3 * PAGE_SIZE + 5, 6);
        let cuts = [0, 1, PAGE_SIZE, chunk - PAGE_SIZE, chunk - 1, chunk, chunk + 1, 2 * chunk + 7];
        for at in cuts {
            let mut p = pages(&bytes);
            let around = at.saturating_sub(PAGE_SIZE + 3)..at + PAGE_SIZE + 3;
            assert_eq!(p.slice(around.start, around.end), bytes[around], "range around {at}");
            let mut tail = Vec::new();
            for (off, piece) in p.split_off(at) {
                assert_eq!(off, at + tail.len(), "piece offset after a cut at {at}");
                tail.extend_from_slice(&piece);
            }
            assert_eq!(tail, bytes[at..], "bytes split off at {at}");
            assert_eq!(p.slice(0, p.len()), bytes[..at], "bytes kept at {at}");
            p.append(&bytes[at..]);
            assert_eq!(p.slice(0, p.len()), bytes[..], "regrown after a cut at {at}");
            p.resize(at);
            p.resize(at + chunk);
            let all = p.slice(0, p.len()).to_vec();
            assert_eq!(all[..at], bytes[..at], "kept by a truncation to {at}");
            assert!(all[at..].iter().all(|&b| b == 0), "regrown from {at} as zeros");
        }
    }

    #[test]
    fn a_replaced_page_is_the_buffer_itself() {
        let bytes = pattern(2 * PAGE_SIZE + 10, 7);
        let mut p = pages(&bytes);
        let new = pattern(PAGE_SIZE, 8);
        let at = new.as_ptr();
        let old = p.replace_page(PAGE_SIZE, new).expect("a whole page");
        assert_eq!(old, bytes[PAGE_SIZE..2 * PAGE_SIZE]);
        let piece = p.slice(PAGE_SIZE, 2 * PAGE_SIZE).iter().next().expect("one piece");
        assert_eq!(piece.as_ptr(), at, "the buffer is the page, uncopied");
        // A last page may be replaced by one reaching at least as far.
        assert_eq!(p.replace_page(2 * PAGE_SIZE, vec![9; 20]), Ok(bytes[2 * PAGE_SIZE..].to_vec()));
        assert_eq!(p.len(), 2 * PAGE_SIZE + 20);
        let mut roomy = Vec::with_capacity(PAGE_SIZE + 1);
        roomy.resize(PAGE_SIZE, 1);
        for (offset, page) in [
            (1, vec![1; PAGE_SIZE]),      // not a page start
            (3 * PAGE_SIZE, vec![1; 5]),  // past the end
            (2 * PAGE_SIZE, vec![1; 19]), // a last page that ends short
            (0, vec![1; PAGE_SIZE - 1]),  // short, and not the last page
            (0, vec![1; PAGE_SIZE + 1]),  // longer than a page
            (0, roomy),                   // more capacity than bytes
        ] {
            let len = page.len();
            assert_eq!(p.replace_page(offset, page).map_err(|b| b.len()), Err(len), "at {offset}");
        }
        assert_eq!(p.len(), 2 * PAGE_SIZE + 20, "a refused page changes nothing");
    }

    #[test]
    fn growth_is_bounded_by_one_page() {
        // Short appends double the first page up to a page, and no
        // page ever holds more than a page.
        let mut p = Pages::new();
        for _ in 0..1000 {
            p.append(&[7; 100]);
            let bound =
                if p.len() < PAGE_SIZE { 2 * p.len() } else { p.len().next_multiple_of(PAGE_SIZE) };
            assert!(p.capacity() <= bound, "{} B in {} B", p.len(), p.capacity());
        }
        // Unaligned appends longer than a page allocate whole pages.
        let mut p = Pages::new();
        p.append(&[1; 40]);
        for _ in 0..20 {
            p.append(&[2; PAGE_SIZE + 40]);
            assert_eq!(p.capacity(), p.len().next_multiple_of(PAGE_SIZE), "{}", p.len());
        }
    }
}
