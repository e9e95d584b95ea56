//! Transport-independent RPC channels with xid-multiplexed concurrency.
//!
//! The paper's proxies are explicitly multithreaded (§4.3): callbacks,
//! delayed writes and the partial write-back trickle all overlap on the
//! wire. [`RpcChannel`] is the abstraction that makes that possible over
//! any transport: [`send`](RpcChannel::send) transmits a call and returns
//! a [`PendingCall`]; [`wait`](RpcChannel::wait) claims its reply later.
//! Many xids may be in flight on one connection at once, so a batch of N
//! WRITEs costs one serialized transfer plus one round trip instead of N
//! round trips.
//!
//! Both transports implement the trait:
//!
//! * `gvfs_netsim::transport::SimRpcClient` — virtual-time actors; each
//!   in-flight call progresses on a child actor, and replies complete in
//!   link arrival order, preserving determinism.
//! * [`TcpRpcClient`](crate::tcp::TcpRpcClient) — the waiting callers
//!   read the socket themselves, one at a time, and demux every reply
//!   into an outstanding-call table keyed by xid; a sender whose write
//!   stalls drains queued replies the same way.
//!
//! The blocking `call` is a thin default wrapper over send + wait.
//!
//! # Examples
//!
//! ```
//! use gvfs_rpc::channel::RpcChannel;
//! use gvfs_rpc::dispatch::{Dispatcher, RpcService};
//! use gvfs_rpc::message::OpaqueAuth;
//! use gvfs_rpc::tcp::{TcpRpcClient, TcpRpcServer};
//!
//! struct Echo;
//! impl RpcService for Echo {
//!     fn program(&self) -> u32 { 99 }
//!     fn version(&self) -> u32 { 1 }
//!     fn call(&self, _p: u32, args: &[u8]) -> Result<Vec<u8>, gvfs_rpc::RpcError> {
//!         Ok(args.to_vec())
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dispatcher = Dispatcher::new();
//! dispatcher.register(Echo);
//! let server = TcpRpcServer::bind("127.0.0.1:0", dispatcher)?.spawn();
//! let client = TcpRpcClient::connect(server.addr())?;
//!
//! // Two calls in flight on one connection, claimed out of order.
//! let a = RpcChannel::send(&client, 99, 1, 0, OpaqueAuth::none(), vec![0, 0, 0, 1])?;
//! let b = RpcChannel::send(&client, 99, 1, 0, OpaqueAuth::none(), vec![0, 0, 0, 2])?;
//! assert_eq!(RpcChannel::wait(&client, b)?, vec![0, 0, 0, 2]);
//! assert_eq!(RpcChannel::wait(&client, a)?, vec![0, 0, 0, 1]);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

use crate::message::OpaqueAuth;
use crate::RpcError;
use std::sync::Arc;

/// Transport-specific completion slot for one in-flight call.
///
/// Implementations block the caller until the reply (or a transport
/// error) is available. On the simulated transport "blocking" means
/// parking the calling actor and then advancing its virtual clock to the
/// reply's arrival time.
pub trait CallSlot: Send + Sync {
    /// Blocks until this call completes and returns its raw results.
    ///
    /// # Errors
    ///
    /// Transport failures and RFC 5531 error statuses, exactly as the
    /// blocking `call` would have returned them.
    fn wait(&self) -> Result<Vec<u8>, RpcError>;
}

/// A call that has been transmitted but whose reply has not been claimed.
///
/// Returned by [`RpcChannel::send`]; redeem it with
/// [`RpcChannel::wait`] (or [`PendingCall::wait`]). Dropping a pending
/// call abandons the reply: the transport discards it when it arrives.
#[must_use = "a pending call does nothing until waited on"]
pub struct PendingCall {
    xid: u32,
    program: u32,
    procedure: u32,
    slot: Arc<dyn CallSlot>,
}

impl std::fmt::Debug for PendingCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingCall")
            .field("xid", &self.xid)
            .field("program", &self.program)
            .field("procedure", &self.procedure)
            .finish()
    }
}

impl PendingCall {
    /// Wraps a transport's completion slot. Transports call this from
    /// their [`RpcChannel::send`] implementations.
    pub fn new(xid: u32, program: u32, procedure: u32, slot: Arc<dyn CallSlot>) -> Self {
        PendingCall { xid, program, procedure, slot }
    }

    /// The transaction id assigned to this call.
    pub fn xid(&self) -> u32 {
        self.xid
    }

    /// The remote program called.
    pub fn program(&self) -> u32 {
        self.program
    }

    /// The procedure called.
    pub fn procedure(&self) -> u32 {
        self.procedure
    }

    /// Blocks until the reply arrives and returns the raw results.
    ///
    /// # Errors
    ///
    /// As for the blocking `call`: transport failures and RFC 5531
    /// error statuses.
    pub fn wait(self) -> Result<Vec<u8>, RpcError> {
        self.slot.wait()
    }
}

/// One RPC connection able to carry many concurrent calls.
///
/// The single abstraction both the simulated and the TCP transports
/// implement; upper layers (write-back flusher, recall fan-out, RECOVER
/// multicast) pipeline batches through it instead of paying one round
/// trip per call.
pub trait RpcChannel: Send + Sync {
    /// Transmits one call and returns a handle to its future reply.
    ///
    /// # Errors
    ///
    /// Transport failures detected at send time (e.g. a partitioned link
    /// or closed connection) surface as [`RpcError::Unreachable`];
    /// oversized messages as [`RpcError::SystemError`].
    fn send(
        &self,
        program: u32,
        version: u32,
        procedure: u32,
        credential: OpaqueAuth,
        args: Vec<u8>,
    ) -> Result<PendingCall, RpcError>;

    /// Claims the reply of an earlier [`send`](RpcChannel::send).
    ///
    /// Calls may be waited on in any order; replies are matched by xid.
    ///
    /// # Errors
    ///
    /// As for the blocking [`call`](RpcChannel::call).
    fn wait(&self, pending: PendingCall) -> Result<Vec<u8>, RpcError> {
        pending.wait()
    }

    /// One blocking round trip: send + wait.
    ///
    /// # Errors
    ///
    /// Transport failures ([`RpcError::Unreachable`], [`RpcError::Timeout`])
    /// and RFC 5531 error statuses from the server.
    fn call(
        &self,
        program: u32,
        version: u32,
        procedure: u32,
        credential: OpaqueAuth,
        args: Vec<u8>,
    ) -> Result<Vec<u8>, RpcError> {
        let pending = self.send(program, version, procedure, credential, args)?;
        self.wait(pending)
    }
}

pub mod testkit {
    //! Shared cross-transport conformance suite.
    //!
    //! One set of checks exercised over every [`RpcChannel`]
    //! implementation: the netsim channel runs them inside a simulation
    //! actor, the TCP channel over a real socket. Keeping the suite in
    //! one place is what guarantees the two transports stay
    //! behavior-identical.

    use super::RpcChannel;
    use crate::dispatch::RpcService;
    use crate::message::OpaqueAuth;
    use crate::record::MAX_RECORD;
    use crate::RpcError;

    /// Program number of the [`ConformanceService`].
    pub const CONFORMANCE_PROGRAM: u32 = 424_242;
    /// Version of the [`ConformanceService`].
    pub const CONFORMANCE_VERSION: u32 = 1;
    /// Procedure: returns its arguments unchanged.
    pub const PROC_ECHO: u32 = 1;
    /// Procedure: decodes a `u32` and returns its double.
    pub const PROC_DOUBLE: u32 = 2;
    /// Procedure: decodes a `u32` block number and returns that block's
    /// deterministic content (see [`read_block_content`]) — the testkit's
    /// stand-in for a file-server READ.
    pub const PROC_READ_BLOCK: u32 = 3;
    /// Procedure: the testkit's stand-in for the proxy mesh's `PEERREAD`.
    /// Args are `(fh: u64, offset: u64, count: u32, change: u64)`; the
    /// reply is the same discriminated union the proxy protocol uses —
    /// `Ok { change, len, hash, data }` when the attested change matches
    /// [`PEER_ATTESTED_CHANGE`], `Miss` otherwise.
    pub const PROC_PEERREAD: u32 = 4;

    /// Size of the blocks served by [`PROC_READ_BLOCK`].
    pub const READ_BLOCK_SIZE: usize = 4096;

    /// The change attribute the conformance peer's copy carries; any
    /// other attested value is answered with a `Miss`.
    pub const PEER_ATTESTED_CHANGE: u64 = 0x5eed_c0de_0000_0001;
    /// Length of the virtual file the conformance peer serves.
    pub const PEER_FILE_LEN: u64 = 8 * READ_BLOCK_SIZE as u64;

    /// FNV-1a, the testkit's own content hash: its `PEERREAD` replies
    /// carry it and [`check_concurrent_peerread_burst`] verifies it. The
    /// proxy's block store hashes with its own function; only the wire
    /// layout (one `u64`) is shared.
    pub fn fnv(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The deterministic content of the conformance peer's virtual file
    /// `fh` at `[offset, offset + count)`, clamped to the attested file
    /// length — every byte derived from the handle and its absolute
    /// offset, so a swapped or torn peer reply is detected byte-for-byte.
    pub fn peer_block_content(fh: u64, offset: u64, count: u32) -> Vec<u8> {
        let end = (offset + u64::from(count)).min(PEER_FILE_LEN);
        (offset..end).map(|p| (fh.wrapping_mul(37).wrapping_add(p) % 251) as u8).collect()
    }

    /// The deterministic content of block `n`: every byte derived from
    /// the block number and its offset, so a swapped or torn reply is
    /// detected byte-for-byte.
    pub fn read_block_content(n: u32) -> Vec<u8> {
        (0..READ_BLOCK_SIZE).map(|i| (n as usize).wrapping_mul(31).wrapping_add(i) as u8).collect()
    }

    /// The service every conformance channel must dispatch to.
    #[derive(Debug, Default)]
    pub struct ConformanceService;

    impl RpcService for ConformanceService {
        fn program(&self) -> u32 {
            CONFORMANCE_PROGRAM
        }
        fn version(&self) -> u32 {
            CONFORMANCE_VERSION
        }
        fn call(&self, procedure: u32, args: &[u8]) -> Result<Vec<u8>, RpcError> {
            match procedure {
                0 => Ok(Vec::new()),
                PROC_ECHO => Ok(args.to_vec()),
                PROC_DOUBLE => {
                    let n: u32 = gvfs_xdr::from_bytes(args).map_err(|_| RpcError::GarbageArgs)?;
                    gvfs_xdr::to_bytes(&(n * 2)).map_err(RpcError::from)
                }
                PROC_READ_BLOCK => {
                    let n: u32 = gvfs_xdr::from_bytes(args).map_err(|_| RpcError::GarbageArgs)?;
                    Ok(read_block_content(n))
                }
                PROC_PEERREAD => {
                    let mut dec = gvfs_xdr::Decoder::new(args);
                    let (fh, offset, count, change) = (|| {
                        let fh = dec.get_u64()?;
                        let offset = dec.get_u64()?;
                        let count = dec.get_u32()?;
                        let change = dec.get_u64()?;
                        Ok::<_, gvfs_xdr::XdrError>((fh, offset, count, change))
                    })()
                    .map_err(|_| RpcError::GarbageArgs)?;
                    let mut enc = gvfs_xdr::Encoder::new();
                    if change == PEER_ATTESTED_CHANGE && offset < PEER_FILE_LEN {
                        let data = peer_block_content(fh, offset, count);
                        enc.put_u32(0);
                        enc.put_u64(change);
                        enc.put_u64(PEER_FILE_LEN);
                        enc.put_u64(fnv(&data));
                        enc.put_opaque(&data).map_err(|_| RpcError::GarbageArgs)?;
                    } else {
                        // A change the copy does not carry (or a range
                        // past the file) is an honest Miss.
                        enc.put_u32(1);
                    }
                    Ok(enc.into_bytes())
                }
                _ => {
                    Err(RpcError::ProcedureUnavailable { program: CONFORMANCE_PROGRAM, procedure })
                }
            }
        }
    }

    fn call(channel: &dyn RpcChannel, procedure: u32, args: Vec<u8>) -> Result<Vec<u8>, RpcError> {
        channel.call(CONFORMANCE_PROGRAM, CONFORMANCE_VERSION, procedure, OpaqueAuth::none(), args)
    }

    /// A payload round-trips byte-for-byte, including one large enough to
    /// span several record-marking fragments on stream transports.
    ///
    /// # Panics
    ///
    /// Panics when the channel misbehaves.
    pub fn check_echo_roundtrip(channel: &dyn RpcChannel) {
        let small = vec![0xab; 8];
        match call(channel, PROC_ECHO, small.clone()) {
            Ok(reply) => assert_eq!(reply, small, "small echo must round-trip"),
            Err(e) => panic!("small echo failed: {e}"),
        }
        // Two fragments and change at MAX_FRAGMENT = 1 MiB.
        let big: Vec<u8> = (0..(2 * 1024 * 1024 + 512)).map(|i| (i % 251) as u8).collect();
        match call(channel, PROC_ECHO, big.clone()) {
            Ok(reply) => assert_eq!(reply, big, "multi-fragment echo must round-trip"),
            Err(e) => panic!("multi-fragment echo failed: {e}"),
        }
    }

    /// Undecodable arguments surface as [`RpcError::GarbageArgs`].
    ///
    /// # Panics
    ///
    /// Panics when the channel misbehaves.
    pub fn check_garbage_args(channel: &dyn RpcChannel) {
        let err = match call(channel, PROC_DOUBLE, Vec::new()) {
            Ok(_) => panic!("empty args must not decode as u32"),
            Err(e) => e,
        };
        assert_eq!(err, RpcError::GarbageArgs);
    }

    /// Unknown procedures surface as [`RpcError::ProcedureUnavailable`].
    ///
    /// # Panics
    ///
    /// Panics when the channel misbehaves.
    pub fn check_unknown_procedure(channel: &dyn RpcChannel) {
        let err = match call(channel, 99, Vec::new()) {
            Ok(_) => panic!("unknown procedure must fail"),
            Err(e) => e,
        };
        assert!(
            matches!(err, RpcError::ProcedureUnavailable { .. }),
            "expected ProcedureUnavailable, got {err}"
        );
    }

    /// A call whose encoded message exceeds the record-marking limit
    /// ([`MAX_RECORD`]) is rejected at the sender instead of poisoning
    /// the connection.
    ///
    /// # Panics
    ///
    /// Panics when the channel misbehaves.
    pub fn check_oversized_record(channel: &dyn RpcChannel) {
        let err = match channel.send(
            CONFORMANCE_PROGRAM,
            CONFORMANCE_VERSION,
            PROC_ECHO,
            OpaqueAuth::none(),
            vec![0u8; MAX_RECORD],
        ) {
            Ok(_) => panic!("oversized record must be rejected at send"),
            Err(e) => e,
        };
        assert!(
            matches!(err, RpcError::SystemError { .. }),
            "expected SystemError for oversized record, got {err}"
        );
        // The connection survives and serves the next call.
        match call(channel, PROC_ECHO, vec![1, 2, 3, 4]) {
            Ok(reply) => assert_eq!(reply, vec![1, 2, 3, 4]),
            Err(e) => panic!("channel must survive an oversized send: {e}"),
        }
    }

    /// Several xids in flight at once, completed out of order: every
    /// reply must match its own call.
    ///
    /// # Panics
    ///
    /// Panics when the channel misbehaves.
    pub fn check_concurrent_xids_out_of_order(channel: &dyn RpcChannel) {
        let payloads: Vec<Vec<u8>> =
            (0u32..8).map(|i| gvfs_xdr::to_bytes(&i).unwrap_or_default()).collect();
        let mut pending = Vec::new();
        for p in &payloads {
            match channel.send(
                CONFORMANCE_PROGRAM,
                CONFORMANCE_VERSION,
                PROC_ECHO,
                OpaqueAuth::none(),
                p.clone(),
            ) {
                Ok(call) => pending.push(call),
                Err(e) => panic!("send must accept concurrent calls: {e}"),
            }
        }
        let xids: Vec<u32> = pending.iter().map(super::PendingCall::xid).collect();
        let mut unique = xids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), xids.len(), "xids must be distinct: {xids:?}");
        // Claim replies in reverse send order.
        for (pending, expect) in pending.into_iter().zip(payloads.iter()).rev() {
            match channel.wait(pending) {
                Ok(reply) => assert_eq!(&reply, expect, "reply must match its xid"),
                Err(e) => panic!("out-of-order wait failed: {e}"),
            }
        }
    }

    /// The pipelined read path's wire pattern: a burst of concurrent
    /// READs all on the wire before the first reply is claimed. Every
    /// reply must carry its own block's content, claimed both in send
    /// order (the gap fan-out) and reverse order (a demand read claiming
    /// a late prefetch first).
    ///
    /// # Panics
    ///
    /// Panics when the channel misbehaves.
    pub fn check_concurrent_read_burst(channel: &dyn RpcChannel) {
        const BURST: u32 = 8;
        for reverse in [false, true] {
            let mut pending = Vec::new();
            for n in 0..BURST {
                let args = gvfs_xdr::to_bytes(&n).unwrap_or_default();
                match channel.send(
                    CONFORMANCE_PROGRAM,
                    CONFORMANCE_VERSION,
                    PROC_READ_BLOCK,
                    OpaqueAuth::none(),
                    args,
                ) {
                    Ok(call) => pending.push((n, call)),
                    Err(e) => panic!("read burst send {n} failed: {e}"),
                }
            }
            assert_eq!(pending.len() as u32, BURST, "all READs in flight before any claim");
            if reverse {
                pending.reverse();
            }
            for (n, call) in pending {
                match channel.wait(call) {
                    Ok(reply) => {
                        assert_eq!(
                            reply,
                            read_block_content(n),
                            "block {n} reply must carry block {n} content"
                        );
                    }
                    Err(e) => panic!("read burst wait {n} failed: {e}"),
                }
            }
        }
    }

    /// The peer-sourcing wire pattern: an 8-deep burst of concurrent
    /// `PEERREAD`s all on the wire before the first reply is claimed,
    /// mixing attested hits with stale-change misses. Every hit must
    /// verify end to end — change echoed, attested length, the testkit's
    /// [`fnv`] over byte-exact block content — and every stale attestation
    /// must decode as a `Miss`, claimed both in send order and reverse
    /// (the proxy's demand read claiming a late peer prefetch first).
    ///
    /// # Panics
    ///
    /// Panics when the channel misbehaves.
    pub fn check_concurrent_peerread_burst(channel: &dyn RpcChannel) {
        const BURST: u32 = 8;
        for reverse in [false, true] {
            let mut pending = Vec::new();
            for n in 0..BURST {
                // Odd requests attest a change the peer's copy does not
                // carry — those must come back as honest misses.
                let hit = n % 2 == 0;
                let fh = u64::from(n / 2 + 1);
                let offset = u64::from(n) * READ_BLOCK_SIZE as u64;
                let count = READ_BLOCK_SIZE as u32;
                let change = if hit {
                    PEER_ATTESTED_CHANGE
                } else {
                    PEER_ATTESTED_CHANGE ^ u64::from(n + 1)
                };
                let mut enc = gvfs_xdr::Encoder::new();
                enc.put_u64(fh);
                enc.put_u64(offset);
                enc.put_u32(count);
                enc.put_u64(change);
                match channel.send(
                    CONFORMANCE_PROGRAM,
                    CONFORMANCE_VERSION,
                    PROC_PEERREAD,
                    OpaqueAuth::none(),
                    enc.into_bytes(),
                ) {
                    Ok(call) => pending.push((n, hit, fh, offset, count, call)),
                    Err(e) => panic!("peerread burst send {n} failed: {e}"),
                }
            }
            assert_eq!(pending.len() as u32, BURST, "all PEERREADs in flight before any claim");
            if reverse {
                pending.reverse();
            }
            for (n, hit, fh, offset, count, call) in pending {
                let reply = match channel.wait(call) {
                    Ok(reply) => reply,
                    Err(e) => panic!("peerread burst wait {n} failed: {e}"),
                };
                let mut dec = gvfs_xdr::Decoder::new(&reply);
                let disc = match dec.get_u32() {
                    Ok(d) => d,
                    Err(e) => panic!("request {n}: undecodable reply discriminant: {e}"),
                };
                if hit {
                    assert_eq!(disc, 0, "attested request {n} must be served");
                    let fields = (|| {
                        Ok::<_, gvfs_xdr::XdrError>((
                            dec.get_u64()?,
                            dec.get_u64()?,
                            dec.get_u64()?,
                            dec.get_opaque()?,
                        ))
                    })();
                    let (change, len, hash, data) = match fields {
                        Ok(f) => f,
                        Err(e) => panic!("request {n}: undecodable Ok reply: {e}"),
                    };
                    assert_eq!(change, PEER_ATTESTED_CHANGE, "request {n}: change echo");
                    assert_eq!(len, PEER_FILE_LEN, "request {n}: attested length");
                    let expect = peer_block_content(fh, offset, count);
                    assert_eq!(data, expect, "request {n}: reply must carry its own block");
                    assert_eq!(hash, fnv(&data), "request {n}: content hash must verify");
                } else {
                    assert_eq!(disc, 1, "stale attestation {n} must answer Miss, not bytes");
                    assert_eq!(dec.remaining(), 0, "a Miss carries nothing");
                }
            }
        }
    }
}
