//! ONC RPC over real TCP sockets.
//!
//! The simulation transport (`gvfs-netsim`) carries the same wire
//! bytes over virtual links; this module carries them over actual
//! sockets with RFC 5531 record marking, demonstrating that the whole
//! protocol stack is transport-independent. The server runs one thread
//! per accepted connection; replies are cached in a [duplicate request
//! cache](crate::drc) so retransmitted non-idempotent calls are
//! replayed, not re-executed.
//!
//! [`TcpRpcClient`] implements [`RpcChannel`] and starts no thread of
//! its own: its callers read the replies. A caller waiting for a reply
//! that gets the socket's read half reads and demultiplexes replies by
//! xid for every outstanding call, then wakes one other waiting caller
//! to take over; the rest sleep until their reply is in or their
//! deadline passes. So many calls can be in flight on one connection at
//! once. A sender whose write stalls (the server is blocked writing
//! replies nobody reads) drains the queued replies through the same
//! path before writing on. Each call carries a timeout; on expiry the
//! identical record (same xid) is retransmitted a bounded number of
//! times, relying on the server's duplicate request cache to replay
//! rather than re-execute.
//!
//! # Examples
//!
//! ```
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
//! let server = TcpRpcServer::bind("127.0.0.1:0", dispatcher)?;
//! let addr = server.local_addr();
//! let handle = server.spawn();
//!
//! let client = TcpRpcClient::connect(addr)?;
//! let reply = client.call(99, 1, 0, OpaqueAuth::none(), vec![0, 0, 0, 7])?;
//! assert_eq!(reply, vec![0, 0, 0, 7]);
//!
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

use crate::channel::{CallSlot, PendingCall, RpcChannel};
use crate::dispatch::Dispatcher;
use crate::drc::{DrcKey, DuplicateRequestCache};
use crate::message::{CallBody, MessageBody, OpaqueAuth, RpcMessage};
use crate::record::{encode_record, RecordReader};
use crate::stats::RpcStats;
use crate::RpcError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

/// A TCP RPC server: accepts connections and dispatches record-marked
/// RPC messages.
#[derive(Debug)]
pub struct TcpRpcServer {
    listener: TcpListener,
    addr: SocketAddr,
    dispatcher: Arc<Dispatcher>,
}

/// Running-server control handle; joins the acceptor on shutdown.
#[derive(Debug)]
pub struct TcpServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl TcpRpcServer {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// I/O errors from binding.
    pub fn bind<A: ToSocketAddrs>(addr: A, dispatcher: Dispatcher) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(TcpRpcServer { listener, addr, dispatcher: Arc::new(dispatcher) })
    }

    /// The bound address, captured at bind time.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts the acceptor thread and returns the control handle.
    pub fn spawn(self) -> TcpServerHandle {
        let addr = self.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let dispatcher = Arc::clone(&self.dispatcher);
        let listener = self.listener;
        let acceptor = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let dispatcher = Arc::clone(&dispatcher);
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, &dispatcher);
                });
            }
        });
        TcpServerHandle { addr, stop, acceptor: Some(acceptor) }
    }
}

impl TcpServerHandle {
    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the acceptor thread.
    /// Existing connections finish their in-flight calls and close when
    /// their peers disconnect.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with one last connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for TcpServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            if let Some(acceptor) = self.acceptor.take() {
                let _ = acceptor.join();
            }
        }
    }
}

fn serve_connection(mut stream: TcpStream, dispatcher: &Dispatcher) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let peer: Arc<str> = stream.peer_addr().map_or_else(|_| "?".into(), |a| a.to_string().into());
    let mut drc = DuplicateRequestCache::new(256);
    let mut reader = RecordReader::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(()); // peer closed
        }
        if reader.push(&buf[..n]).is_err() {
            return Ok(()); // hostile record; drop the connection
        }
        while let Some(record) = reader.pop() {
            let Ok(msg) = gvfs_xdr::from_bytes::<RpcMessage>(&record) else { continue };
            let MessageBody::Call(call) = msg.body else { continue };
            let key =
                DrcKey { client: Arc::clone(&peer), xid: msg.xid, procedure: call.procedure() };
            if let Some(frame) = drc.lookup(&key) {
                stream.write_all(frame)?;
                continue;
            }
            let reply = dispatcher.dispatch(msg.xid, &call);
            let reply_msg = RpcMessage { xid: msg.xid, body: MessageBody::Reply(reply) };
            let Ok(frame) = encode_record(&reply_msg) else {
                // An unencodable reply is a local protocol bug; skip
                // the record rather than kill the connection thread.
                continue;
            };
            stream.write_all(&frame)?;
            drc.insert(key, frame);
        }
    }
}

/// Default per-call timeout before a retransmission is attempted.
pub const DEFAULT_CALL_TIMEOUT: Duration = Duration::from_secs(30);
/// Default number of retransmissions after the first timeout.
pub const DEFAULT_RETRIES: u32 = 2;

/// How long a write may stall before its sender drains the replies
/// queued on the socket, and how long a drain waits for them.
const WRITE_STALL: Duration = Duration::from_millis(1);

/// A TCP RPC client with xid-multiplexed concurrency.
///
/// Any number of [`send`](RpcChannel::send)s may be in flight before
/// their [`wait`](RpcChannel::wait)s. The callers read the replies
/// themselves: one waiting caller at a time holds the socket's read half
/// and resolves every outstanding call whose reply it reads. Calls that
/// time out are retransmitted verbatim — same xid — up to the configured
/// retry bound; the server's [duplicate request cache](crate::drc)
/// replays the reply if the original execution already happened.
#[derive(Debug)]
pub struct TcpRpcClient {
    inner: Arc<ClientInner>,
    timeout: Duration,
    retries: u32,
}

#[derive(Debug)]
struct ClientInner {
    writer: Mutex<TcpStream>,
    /// Whoever holds the read half reads replies for every caller.
    reader: Mutex<ReadHalf>,
    calls: StdMutex<Calls>,
    next_xid: AtomicU32,
    stats: RpcStats,
}

#[derive(Debug)]
struct ReadHalf {
    stream: TcpStream,
    records: RecordReader,
    buf: Box<[u8]>,
}

/// The outstanding-call table. Std primitives: waiting callers sleep on
/// their slots' condvars with a timeout under this lock, which the
/// vendored parking_lot shim does not provide.
#[derive(Debug, Default)]
struct Calls {
    /// Unresolved calls by xid. A call is resolved exactly once, by
    /// whoever removes it from here.
    pending: HashMap<u32, Arc<TcpSlot>>,
    /// Callers asleep in `wait` while another caller reads.
    sleepers: Vec<u32>,
    /// The connection is gone: no call can be answered any more.
    dead: bool,
}

impl Calls {
    /// Resolves call `xid` if it is still pending: stores its outcome,
    /// accounts it and wakes its caller. `wire_in` is the size of the
    /// reply, if one came. Returns whether the call was pending.
    fn resolve(
        &mut self,
        stats: &RpcStats,
        xid: u32,
        outcome: Result<Vec<u8>, RpcError>,
        wire_in: Option<u64>,
    ) -> bool {
        // A miss is a stale reply from a call that already timed out.
        let Some(slot) = self.pending.remove(&xid) else { return false };
        if let Some(wire_in) = wire_in {
            let latency = u64::try_from(slot.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            stats.record_latency(slot.program, slot.procedure, slot.wire_out, wire_in, latency);
        }
        stats.call_finished();
        *slot.outcome.lock() = Some(outcome);
        slot.cond.notify_one();
        true
    }

    /// Marks the connection dead and fails every pending call.
    fn fail_all(&mut self, stats: &RpcStats) {
        self.dead = true;
        let xids: Vec<u32> = self.pending.keys().copied().collect();
        for xid in xids {
            self.resolve(stats, xid, Err(RpcError::Unreachable), None);
        }
    }

    /// Wakes one sleeping caller whose call is still pending, to take
    /// over reading from the caller that just let go of the read half.
    fn hand_off(&mut self) {
        while let Some(xid) = self.sleepers.pop() {
            if let Some(slot) = self.pending.get(&xid) {
                slot.cond.notify_one();
                return;
            }
        }
    }
}

/// Completion slot for one outstanding TCP call.
#[derive(Debug)]
struct TcpSlot {
    client: Weak<ClientInner>,
    xid: u32,
    program: u32,
    procedure: u32,
    /// The framed record, kept verbatim for retransmission with the
    /// same xid.
    frame: Vec<u8>,
    wire_out: u64,
    started: Instant,
    timeout: Duration,
    retries: u32,
    /// Set once, under the calls lock, by [`Calls::resolve`].
    outcome: Mutex<Option<Result<Vec<u8>, RpcError>>>,
    /// Used with the calls lock only.
    cond: Condvar,
}

impl ClientInner {
    fn lock_calls(&self) -> MutexGuard<'_, Calls> {
        self.calls.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one reply path, for waiting callers and stalled senders alike:
    /// reads what the socket delivers within `wait` and resolves every
    /// call whose reply that completes. Returns the bytes read, 0 when
    /// nothing came in time. A closed or broken connection fails every
    /// pending call and returns `None`.
    fn read_replies(&self, rd: &mut ReadHalf, wait: Duration) -> Option<usize> {
        let read = match rd.stream.set_read_timeout(Some(wait)) {
            Ok(()) => rd.stream.read(&mut rd.buf),
            Err(e) => Err(e),
        };
        let n = match read {
            Ok(n) if n > 0 => n,
            Err(e) if is_stall(&e) || e.kind() == ErrorKind::Interrupted => return Some(0),
            // Closed or broken.
            _ => return self.die(),
        };
        if rd.records.push(&rd.buf[..n]).is_err() {
            return self.die(); // hostile record from the server side
        }
        while let Some(record) = rd.records.pop() {
            let Ok(msg) = gvfs_xdr::from_bytes::<RpcMessage>(&record) else { continue };
            let MessageBody::Reply(body) = msg.body else { continue };
            let wire_in = record.len() as u64 + 4;
            self.lock_calls().resolve(&self.stats, msg.xid, body.into_results(), Some(wire_in));
        }
        Some(n)
    }

    fn die(&self) -> Option<usize> {
        self.lock_calls().fail_all(&self.stats);
        None
    }

    /// Writes `frame` whole. While the socket takes no more bytes, the
    /// server may be blocked writing replies that nobody reads, so the
    /// sender drains them before it writes on.
    fn write_frame(&self, frame: &[u8]) -> std::io::Result<()> {
        let mut writer = self.writer.lock();
        let mut rest = frame;
        while !rest.is_empty() {
            match writer.write(rest) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if is_stall(&e) => self.drain(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads the replies queued on the socket until a read comes back
    /// short. Does nothing while a waiting caller holds the read half:
    /// it is reading them already.
    fn drain(&self) {
        let Some(mut rd) = self.reader.try_lock() else { return };
        while let Some(n) = self.read_replies(&mut rd, WRITE_STALL) {
            if n < rd.buf.len() {
                break;
            }
        }
        drop(rd);
        self.lock_calls().hand_off();
    }
}

/// Whether `e` is a socket timeout rather than a failure.
fn is_stall(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

impl CallSlot for TcpSlot {
    fn wait(&self) -> Result<Vec<u8>, RpcError> {
        if let Some(outcome) = self.outcome.lock().take() {
            return outcome;
        }
        let Some(inner) = self.client.upgrade() else {
            return Err(RpcError::Unreachable);
        };
        let mut retries = self.retries;
        let mut deadline = Instant::now() + self.timeout;
        let mut calls = inner.lock_calls();
        loop {
            if let Some(outcome) = self.outcome.lock().take() {
                return outcome;
            }
            let now = Instant::now();
            if now >= deadline {
                if retries == 0 {
                    // Forget the xid so a late reply is dropped.
                    if calls.resolve(&inner.stats, self.xid, Err(RpcError::Timeout), None) {
                        inner.stats.record_timeout();
                    }
                    continue;
                }
                retries -= 1;
                deadline = now + self.timeout;
                drop(calls);
                // Retransmit the identical record: the xid is reused so the
                // server's duplicate request cache can suppress re-execution.
                // A broken connection shows up on the read side.
                let _ = inner.write_frame(&self.frame);
                calls = inner.lock_calls();
                continue;
            }
            // Holding the calls lock, so a reader that lets go of the read
            // half after this try finds this caller among the sleepers.
            if let Some(mut rd) = inner.reader.try_lock() {
                drop(calls);
                while self.outcome.lock().is_none() {
                    let now = Instant::now();
                    if now >= deadline || inner.read_replies(&mut rd, deadline - now).is_none() {
                        break;
                    }
                }
                drop(rd);
                calls = inner.lock_calls();
                calls.hand_off();
                continue;
            }
            calls.sleepers.push(self.xid);
            calls = self
                .cond
                .wait_timeout(calls, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            calls.sleepers.retain(|&x| x != self.xid);
        }
    }
}

impl TcpRpcClient {
    /// Connects to an RPC server. Starts no thread: callers read their
    /// own replies.
    ///
    /// # Errors
    ///
    /// I/O errors from connecting.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Frames written in parts around a drain must not wait on Nagle.
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(WRITE_STALL))?;
        let read_half = ReadHalf {
            stream: stream.try_clone()?,
            records: RecordReader::new(),
            buf: vec![0u8; 64 * 1024].into_boxed_slice(),
        };
        let inner = Arc::new(ClientInner {
            writer: Mutex::new(stream),
            reader: Mutex::new(read_half),
            calls: StdMutex::new(Calls::default()),
            next_xid: AtomicU32::new(1),
            stats: RpcStats::new(),
        });
        Ok(TcpRpcClient { inner, timeout: DEFAULT_CALL_TIMEOUT, retries: DEFAULT_RETRIES })
    }

    /// Sets the per-call timeout after which the call is retransmitted.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets how many times a timed-out call is retransmitted before it
    /// fails with [`RpcError::Timeout`].
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// The per-procedure statistics recorded by this client.
    pub fn stats(&self) -> &RpcStats {
        &self.inner.stats
    }

    /// Performs one blocking call — a thin wrapper over
    /// [`send`](RpcChannel::send) + [`wait`](RpcChannel::wait).
    ///
    /// # Errors
    ///
    /// Transport failures surface as [`RpcError::Unreachable`] or
    /// [`RpcError::Timeout`]; protocol errors as their RFC 5531 statuses.
    pub fn call(
        &self,
        program: u32,
        version: u32,
        procedure: u32,
        credential: OpaqueAuth,
        args: Vec<u8>,
    ) -> Result<Vec<u8>, RpcError> {
        RpcChannel::call(self, program, version, procedure, credential, args)
    }
}

impl RpcChannel for TcpRpcClient {
    fn send(
        &self,
        program: u32,
        version: u32,
        procedure: u32,
        credential: OpaqueAuth,
        args: Vec<u8>,
    ) -> Result<PendingCall, RpcError> {
        let inner = &self.inner;
        let xid = inner.next_xid.fetch_add(1, Ordering::SeqCst);
        let msg = RpcMessage {
            xid,
            body: MessageBody::Call(CallBody::new(program, version, procedure, credential, args)),
        };
        let frame = encode_record(&msg)?;
        let slot = Arc::new(TcpSlot {
            client: Arc::downgrade(inner),
            xid,
            program,
            procedure,
            wire_out: frame.len() as u64,
            frame,
            started: Instant::now(),
            timeout: self.timeout,
            retries: self.retries,
            outcome: Mutex::new(None),
            cond: Condvar::new(),
        });
        {
            let mut calls = inner.lock_calls();
            if calls.dead {
                drop(calls);
                inner.stats.record_unreachable();
                return Err(RpcError::Unreachable);
            }
            calls.pending.insert(xid, Arc::clone(&slot));
        }
        inner.stats.call_started();
        if inner.write_frame(&slot.frame).is_err() {
            inner.lock_calls().resolve(&inner.stats, xid, Err(RpcError::Unreachable), None);
            inner.stats.record_unreachable();
            return Err(RpcError::Unreachable);
        }
        Ok(PendingCall::new(xid, program, procedure, slot))
    }
}
