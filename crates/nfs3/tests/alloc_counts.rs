//! Allocation counts of the NFS codec: a counting global allocator pins
//! that `to_bytes` makes exactly one allocation, of exactly the encoded
//! size, for a `GETATTR` reply, a 32 KiB `READ` reply and a 32 KiB
//! `WRITE` request, and that decoding a file handle allocates nothing.

use gvfs_nfs3::{Fattr3, Fh3, Ftype3, GetattrRes, NfsTime3, ReadRes, StableHow, WriteArgs};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Only allocations of the measuring thread count, into its own
    /// total, so tests measuring at the same time do not add up.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: `alloc` and `dealloc` forward to `System` unchanged, so its
// guarantees carry over; the counting touches only const-initialized
// thread-locals, which do not allocate. The default `alloc_zeroed` and
// `realloc` allocate through `alloc`, so a growth counts as one.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.with(|a| a.set(a.get() + 1));
        }
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged from the caller.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations_by<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const BLOCK: usize = 32 * 1024;

fn attr() -> Fattr3 {
    let t = NfsTime3 { seconds: 7, nseconds: 9 };
    Fattr3 {
        ftype: Ftype3::Reg,
        mode: 0o644,
        nlink: 1,
        uid: 1000,
        gid: 100,
        size: BLOCK as u64,
        used: BLOCK as u64,
        rdev: (0, 0),
        fsid: 1,
        fileid: 42,
        atime: t,
        mtime: t,
        ctime: t,
    }
}

/// `to_bytes(value)` in one allocation whose capacity is its length.
fn assert_one_exact_allocation<T: gvfs_xdr::Xdr>(what: &str, value: &T) {
    let (allocations, bytes) = allocations_by(|| gvfs_xdr::to_bytes(value).unwrap());
    assert_eq!(allocations, 1, "{what}: allocations");
    assert_eq!(bytes.capacity(), bytes.len(), "{what}: spare capacity");
}

#[test]
fn each_message_encodes_into_one_exact_allocation() {
    assert_one_exact_allocation("GETATTR reply", &GetattrRes::Ok(attr()));
    let read = ReadRes::Ok {
        file_attributes: Some(attr()),
        count: BLOCK as u32,
        eof: false,
        data: vec![0xa5; BLOCK],
    };
    assert_one_exact_allocation("32 KiB READ reply", &read);
    let write = WriteArgs {
        file: Fh3::from_fileid(42),
        offset: 0,
        count: BLOCK as u32,
        stable: StableHow::FileSync,
        data: vec![0x5a; BLOCK],
    };
    assert_one_exact_allocation("32 KiB WRITE request", &write);
}

#[test]
fn decoding_a_file_handle_allocates_nothing() {
    let bytes = gvfs_xdr::to_bytes(&Fh3::from_fileid(0x0102_0304_0506_0708)).unwrap();
    let (allocations, fh) = allocations_by(|| gvfs_xdr::from_bytes::<Fh3>(&bytes).unwrap());
    assert_eq!(fh, Fh3::from_fileid(0x0102_0304_0506_0708));
    assert_eq!(allocations, 0);
}
