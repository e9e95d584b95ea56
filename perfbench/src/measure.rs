//! Clocks, process counters, percentiles and the seeded input source.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call, and
    // both clock ids are defined by Linux for every process and thread.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed so far by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// User plus system CPU time consumed so far by the whole process, in
/// nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Nanoseconds since the first call in this process (a shared monotonic
/// origin for span start and end stamps taken on different threads).
pub fn wall_ns() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One numeric field of `/proc/self/status` (`VmHWM`, `Threads`, ...),
/// without its unit.
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident memory of the process since the last
/// [`reset_peak_rss`] (or since start), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Resets the peak resident memory to the current resident memory, so
/// each round's peak is its own. A kernel without the interface leaves
/// the peak running across rounds.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The `p`-th percentile (0 < p <= 100) of ascending `sorted` samples,
/// by the nearest-rank rule.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles a timing may be reported at, in increasing order.
const TAIL_LEVELS: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// The highest reportable percentile for `n` samples: the highest level
/// that still has at least ten samples beyond it. `None` below 20
/// samples, where not even the median has ten beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .iter()
        .copied()
        .take_while(|p| (n as f64) * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .last()
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of the values left after dropping the lowest and the highest,
/// when there are at least four; the plain mean otherwise.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() >= 4 { &v[1..v.len() - 1] } else { &v[..] };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// SplitMix64: the benchmark's only source of input randomness, so a
/// seed fixes every generated name, size, offset and byte.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.range(0, n as u64) as usize
    }

    /// The seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// Number of distinct 32 KiB blocks file contents are cut from.
const POOL_BLOCKS: usize = 64;

/// Seeded file content. Every byte of a generated range is a function
/// of the seed, the file's content id and the offset, so a read can be
/// checked against a shadow copy. Content ids below
/// [`ContentPool::SHARED_IDS`] name content shared between files, which
/// the persistent store can deduplicate; other ids stamp their own id
/// and offset into every block, so no two such blocks are equal.
#[derive(Debug)]
pub struct ContentPool {
    blocks: Vec<Vec<u8>>,
}

impl ContentPool {
    /// Block size of the pool (the NFS transfer size).
    pub const BLOCK: usize = 32 * 1024;
    /// Content ids below this value are shared between files.
    pub const SHARED_IDS: u64 = 4;

    /// The pool for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0xC0DE);
        let blocks = (0..POOL_BLOCKS)
            .map(|_| {
                let mut block = Vec::with_capacity(Self::BLOCK);
                while block.len() < Self::BLOCK {
                    block.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                block
            })
            .collect();
        ContentPool { blocks }
    }

    /// `len` bytes of content `id` starting at `offset`.
    pub fn bytes(&self, id: u64, offset: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        while out.len() < len {
            let block = pos / Self::BLOCK as u64;
            let within = (pos % Self::BLOCK as u64) as usize;
            let pick = (id.wrapping_mul(31).wrapping_add(block.wrapping_mul(17))) as usize;
            let src = &self.blocks[pick % POOL_BLOCKS];
            let take = (Self::BLOCK - within).min(len - out.len());
            let start = out.len();
            out.extend_from_slice(&src[within..within + take]);
            if id >= Self::SHARED_IDS && within < 16 {
                let mut stamp = [0u8; 16];
                stamp[..8].copy_from_slice(&id.to_le_bytes());
                stamp[8..].copy_from_slice(&block.to_le_bytes());
                let n = (16 - within).min(take);
                out[start..start + n].copy_from_slice(&stamp[within..within + n]);
            }
            pos += take as u64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(10_000_000), Some(99.999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(trimmed_mean(&[9.0, 1.0, 2.0, 4.0]), 3.0);
        assert_eq!(trimmed_mean(&[3.0, 1.0]), 2.0);
    }

    #[test]
    fn content_is_a_pure_function_of_id_and_offset() {
        let pool = ContentPool::new(7);
        let whole = pool.bytes(9, 0, 3 * ContentPool::BLOCK);
        assert_eq!(pool.bytes(9, 5, 40_000), whole[5..40_005].to_vec());
        assert_ne!(pool.bytes(10, 0, 64), whole[..64].to_vec());
        // Shared ids repeat whole blocks; private ids never do.
        let shared = pool.bytes(1, 0, 2 * ContentPool::BLOCK);
        assert_eq!(shared, ContentPool::new(7).bytes(1, 0, 2 * ContentPool::BLOCK));
        assert_ne!(whole[..ContentPool::BLOCK], whole[ContentPool::BLOCK..2 * ContentPool::BLOCK]);
    }

    #[test]
    fn cpu_clocks_advance() {
        let (t0, p0) = (thread_cpu_ns(), process_cpu_ns());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > t0 && process_cpu_ns() > p0, "{x}");
        assert!(proc_status("Threads").is_some_and(|n| n >= 1));
    }
}
