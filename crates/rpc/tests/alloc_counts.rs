//! Allocation counts of the RPC codec: a counting global allocator pins
//! that sizing a call with an `AUTH_SYS` credential allocates nothing,
//! that `to_bytes` encodes it in one allocation of exactly its size,
//! and that `encode_record` frames a message of one fragment in one.

use gvfs_rpc::message::{AuthSys, CallBody, MessageBody, OpaqueAuth, RpcMessage, AUTH_SYS};
use gvfs_rpc::record::encode_record;
use gvfs_xdr::Encoder;
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

/// A `GETATTR` call as a kernel client sends it: an `AUTH_SYS`
/// credential and a file handle's worth of arguments.
fn getattr_call() -> RpcMessage {
    let sys = AuthSys {
        stamp: 1,
        machine_name: "client-0".into(),
        uid: 1000,
        gid: 100,
        gids: vec![100, 101],
    };
    let mut enc = Encoder::new();
    enc.put_u32(AUTH_SYS);
    enc.put_opaque(&gvfs_xdr::to_bytes(&sys).expect("encode AUTH_SYS")).expect("a short body");
    let credential = gvfs_xdr::from_bytes::<OpaqueAuth>(enc.as_bytes()).expect("decode");
    let args = vec![0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 42];
    RpcMessage { xid: 7, body: MessageBody::Call(CallBody::new(100_003, 3, 1, credential, args)) }
}

#[test]
fn sizing_a_call_allocates_nothing() {
    let msg = getattr_call();
    let (allocations, len) = allocations_by(|| gvfs_xdr::encoded_len(&msg).unwrap());
    assert_eq!(len, gvfs_xdr::to_bytes(&msg).unwrap().len());
    assert_eq!(allocations, 0);
}

#[test]
fn a_call_encodes_into_one_exact_allocation() {
    let msg = getattr_call();
    let (allocations, bytes) = allocations_by(|| gvfs_xdr::to_bytes(&msg).unwrap());
    assert_eq!(allocations, 1);
    assert_eq!(bytes.capacity(), bytes.len());
}

#[test]
fn a_one_fragment_record_is_one_allocation() {
    let msg = getattr_call();
    let (allocations, frame) = allocations_by(|| encode_record(&msg).unwrap());
    assert_eq!(allocations, 1);
    assert_eq!(frame.capacity(), frame.len());
}
