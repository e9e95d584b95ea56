//! RPC transport over simulated links.
//!
//! [`SimRpcClient`] encodes real ONC RPC messages (so transfer sizes are
//! byte-accurate), charges them against a [`LinkHalf`], and executes the
//! destination [`ServerNode`]'s dispatcher — at the correct virtual
//! time. Handlers may themselves own `SimRpcClient`s and make nested
//! calls (the GVFS proxy server calls the kernel NFS server; callbacks
//! flow server → client), all accounted on the same virtual clock.
//!
//! The client implements [`RpcChannel`]: [`SimRpcClient::send`] puts a
//! call on the wire and hands its remaining round trip to a child actor,
//! so many xids can be in flight at once — a pipelined batch of N WRITEs
//! costs N serializations plus one round trip instead of N round trips.
//! Replies complete in link-arrival order and child actors are spawned
//! in program order, so simulations stay fully deterministic. The
//! blocking [`SimRpcClient::call`] runs the identical execution body
//! inline in the calling actor (no extra thread per call).

use crate::link::LinkHalf;
use crate::{advance_to, current_actor, now, park, sleep, spawn_from_actor, SimTime};
use gvfs_rpc::channel::{CallSlot, PendingCall, RpcChannel};
use gvfs_rpc::dispatch::Dispatcher;
use gvfs_rpc::message::{AcceptStat, CallBody, MessageBody, OpaqueAuth, ReplyBody, RpcMessage};
use gvfs_rpc::record::ensure_sendable;
use gvfs_rpc::stats::RpcStats;
use gvfs_rpc::RpcError;
use gvfs_xdr::XdrError;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A server endpoint: a dispatcher plus availability state.
///
/// The per-call processing time models the host's service latency
/// (the paper's VMs served RPCs from memory in well under a millisecond).
#[derive(Debug)]
pub struct ServerNode {
    name: String,
    dispatcher: RwLock<Dispatcher>,
    proc_time: Duration,
    up: AtomicBool,
}

impl ServerNode {
    /// Creates a server named `name` with per-call processing time
    /// `proc_time`.
    pub fn new(name: &str, dispatcher: Dispatcher, proc_time: Duration) -> Arc<Self> {
        Arc::new(ServerNode {
            name: name.to_string(),
            dispatcher: RwLock::new(dispatcher),
            proc_time,
            up: AtomicBool::new(true),
        })
    }

    /// The server's name (diagnostics only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replaces the dispatcher (used when a restarted server re-registers
    /// services with fresh state).
    pub fn set_dispatcher(&self, dispatcher: Dispatcher) {
        *self.dispatcher.write() = dispatcher;
    }

    /// Marks the server up or down. While down, calls time out.
    pub fn set_up(&self, up: bool) {
        self.up.store(up, Ordering::SeqCst);
    }

    /// Whether the server is accepting calls.
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    /// Dispatches a call inline (no network accounting).
    pub fn dispatch(&self, xid: u32, call: &CallBody) -> ReplyBody {
        self.dispatcher.read().dispatch(xid, call)
    }
}

/// A client stub bound to one link direction and one server.
///
/// Cheap to clone; clones share the xid counter and statistics.
#[derive(Clone)]
pub struct SimRpcClient {
    link: LinkHalf,
    server: Arc<ServerNode>,
    stats: RpcStats,
    xid: Arc<AtomicU32>,
    timeout: Duration,
    credential: OpaqueAuth,
}

impl std::fmt::Debug for SimRpcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRpcClient").field("server", &self.server.name()).finish()
    }
}

impl SimRpcClient {
    /// Creates a client calling `server` over `link`.
    ///
    /// `stats` receives one record per call that actually crossed the
    /// link — this is the counter the experiment harness reads to
    /// reproduce the paper's RPC-count figures.
    pub fn new(link: LinkHalf, server: Arc<ServerNode>, stats: RpcStats) -> Self {
        SimRpcClient {
            link,
            server,
            stats,
            xid: Arc::new(AtomicU32::new(1)),
            timeout: Duration::from_millis(1100),
            credential: OpaqueAuth::none(),
        }
    }

    /// Sets the credential attached to every call.
    pub fn with_credential(mut self, credential: OpaqueAuth) -> Self {
        self.credential = credential;
        self
    }

    /// Sets the simulated RPC timeout charged when the server is down.
    #[cfg(test)]
    fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// The statistics counter shared by this client.
    pub fn stats(&self) -> &RpcStats {
        &self.stats
    }

    /// The destination server.
    pub fn server(&self) -> &Arc<ServerNode> {
        &self.server
    }

    /// Performs one RPC, advancing the calling actor's virtual clock by
    /// the full round trip (request serialization + propagation + server
    /// processing + reply path).
    ///
    /// # Errors
    ///
    /// * [`RpcError::Unreachable`] — the link is partitioned.
    /// * [`RpcError::Timeout`] — the server is down (the timeout is
    ///   charged to the virtual clock).
    /// * Any RFC 5531 error status returned by the server.
    ///
    /// # Panics
    ///
    /// Panics when called outside a simulation actor.
    pub fn call(
        &self,
        program: u32,
        version: u32,
        procedure: u32,
        args: Vec<u8>,
    ) -> Result<Vec<u8>, RpcError> {
        self.call_with_cred(program, version, procedure, args, self.credential.clone())
    }

    /// Like [`SimRpcClient::call`] with an explicit credential.
    ///
    /// # Errors
    ///
    /// As for [`SimRpcClient::call`].
    pub fn call_with_cred(
        &self,
        program: u32,
        version: u32,
        procedure: u32,
        args: Vec<u8>,
        credential: OpaqueAuth,
    ) -> Result<Vec<u8>, RpcError> {
        // The single execution body, run inline: identical timing to a
        // send immediately followed by a wait, without the child actor.
        let tx = self.transmit(program, version, procedure, credential, args)?;
        self.complete(tx).0
    }

    /// Transmits one call and returns a [`PendingCall`]; the remaining
    /// round trip (propagation, server processing, reply path) runs on a
    /// child actor so further sends can overlap it on the wire. Uses the
    /// client's default credential.
    ///
    /// # Errors
    ///
    /// [`RpcError::Unreachable`] when the link is partitioned at send
    /// time; oversized messages as [`RpcError::SystemError`].
    ///
    /// # Panics
    ///
    /// Panics when called outside a simulation actor.
    pub fn send(
        &self,
        program: u32,
        version: u32,
        procedure: u32,
        args: Vec<u8>,
    ) -> Result<PendingCall, RpcError> {
        self.send_with_cred(program, version, procedure, args, self.credential.clone())
    }

    /// Like [`SimRpcClient::send`] with an explicit credential.
    ///
    /// # Errors
    ///
    /// As for [`SimRpcClient::send`].
    pub fn send_with_cred(
        &self,
        program: u32,
        version: u32,
        procedure: u32,
        args: Vec<u8>,
        credential: OpaqueAuth,
    ) -> Result<PendingCall, RpcError> {
        let tx = self.transmit(program, version, procedure, credential, args)?;
        let xid = tx.xid;
        let slot = Arc::new(SimSlot::default());
        let client = self.clone();
        let filler = Arc::clone(&slot);
        // Child actors are spawned in program order, which is how the
        // scheduler breaks clock ties — determinism is preserved.
        spawn_from_actor(&format!("rpc-{}-xid-{xid}", self.server.name()), move || {
            let (result, at) = client.complete(tx);
            filler.fill(result, at);
        });
        Ok(PendingCall::new(xid, program, procedure, slot))
    }

    /// Claims the reply of an earlier [`SimRpcClient::send`], parking
    /// the calling actor until it arrives and advancing its clock to the
    /// completion time. Pending calls may be waited on in any order.
    ///
    /// # Errors
    ///
    /// As for [`SimRpcClient::call`].
    pub fn wait_pending(&self, pending: PendingCall) -> Result<Vec<u8>, RpcError> {
        pending.wait()
    }

    /// Encodes and charges one call message against the link at the
    /// current virtual time. This is the half of the round trip that
    /// must happen at send time: link occupancy (serialization) is
    /// claimed in program order, so a batch of sends queues back-to-back
    /// on the pipe.
    fn transmit(
        &self,
        program: u32,
        version: u32,
        procedure: u32,
        credential: OpaqueAuth,
        args: Vec<u8>,
    ) -> Result<Transmitted, RpcError> {
        let xid = self.xid.fetch_add(1, Ordering::Relaxed);
        let call = CallBody::new(program, version, procedure, credential, args);
        let wire_out = call_wire_size(&call)?;
        ensure_sendable(wire_out - RECORD_MARK)?;

        let started = now();
        let delivery = self.link.transfer(started, wire_out).map_err(|_| {
            self.stats.record_unreachable();
            RpcError::Unreachable
        })?;
        self.stats.call_started();
        Ok(Transmitted {
            xid,
            program,
            procedure,
            call,
            wire_out,
            started,
            arrival: delivery.arrival,
            dropped: delivery.dropped,
            duplicated: delivery.duplicated,
        })
    }

    /// Runs a transmitted call to completion on the calling actor's
    /// clock: waits out propagation, executes the server dispatch, and
    /// charges the reply path. Returns the result together with the
    /// completion time.
    fn complete(&self, tx: Transmitted) -> (Result<Vec<u8>, RpcError>, SimTime) {
        let result = self.complete_inner(&tx);
        self.stats.call_finished();
        (result, now())
    }

    fn complete_inner(&self, tx: &Transmitted) -> Result<Vec<u8>, RpcError> {
        advance_to(tx.arrival);

        if tx.dropped {
            // The request was lost in flight: the server never saw it and
            // the caller burns its full RPC timeout before giving up.
            sleep(self.timeout);
            self.stats.record_timeout();
            return Err(RpcError::Timeout);
        }
        if !self.server.is_up() {
            sleep(self.timeout);
            self.stats.record_timeout();
            return Err(RpcError::Timeout);
        }
        sleep(self.server_proc_time());

        let reply = self.server.dispatch(tx.xid, &tx.call);
        if tx.duplicated {
            // A duplicated request is a retransmission the server executes
            // a second time (no duplicate-request cache, as with ONC RPC
            // over UDP); the xid matcher claims only the first reply.
            sleep(self.server_proc_time());
            let _ = self.server.dispatch(tx.xid, &tx.call);
        }
        let (wire_in, result) = reply_outcome(tx.xid, reply)?;

        let back = match self.link.transfer_reverse(now(), wire_in) {
            Ok(delivery) if delivery.dropped => {
                // The reply was lost after the server executed the call:
                // the caller observes a timeout even though the server's
                // state changed (a lost acknowledgement).
                sleep(self.timeout);
                self.stats.record_timeout();
                return Err(RpcError::Timeout);
            }
            Ok(delivery) => delivery.arrival,
            Err(_) => {
                self.stats.record_unreachable();
                return Err(RpcError::Unreachable);
            }
        };
        advance_to(back);

        let latency = u64::try_from(back.saturating_since(tx.started).as_nanos()).unwrap_or(0);
        self.stats.record_latency(
            tx.program,
            tx.procedure,
            tx.wire_out as u64,
            wire_in as u64,
            latency,
        );
        result
    }

    fn server_proc_time(&self) -> Duration {
        self.server.proc_time
    }
}

/// Bytes of the record mark that frames each message on the wire.
const RECORD_MARK: usize = 4;

/// Wire bytes of a payload that trails a message header: the payload
/// zero-padded to a 4-byte word, as the codec writes it. Payloads are
/// XDR streams themselves, so the padding is zero in practice.
fn payload_wire_size(len: usize) -> usize {
    len.next_multiple_of(4)
}

/// Bytes of the xid and the message type that open every message.
const MESSAGE_HEAD: usize = 8;

/// The wire size of a call: the record mark, the message head and the
/// call body, from a sizing pass that charges the args their length
/// without copying them.
fn call_wire_size(call: &CallBody) -> Result<usize, XdrError> {
    Ok(RECORD_MARK + MESSAGE_HEAD + gvfs_xdr::encoded_len(call)?)
}

/// A reply's wire size and outcome. A success's results move out of the
/// reply and count like call args.
fn reply_outcome(
    xid: u32,
    mut reply: ReplyBody,
) -> Result<(usize, Result<Vec<u8>, RpcError>), XdrError> {
    let result = match &mut reply {
        ReplyBody::Accepted { stat: AcceptStat::Success(results), .. } => {
            Ok(std::mem::take(results))
        }
        failed => Err(failed.results().expect_err("only a success carries results")),
    };
    let header = gvfs_xdr::encoded_len(&RpcMessage { xid, body: MessageBody::Reply(reply) })?;
    Ok((RECORD_MARK + header + payload_wire_size(result.as_ref().map_or(0, Vec::len)), result))
}

/// A call that has been charged against the link but not yet completed.
struct Transmitted {
    xid: u32,
    program: u32,
    procedure: u32,
    call: CallBody,
    wire_out: usize,
    started: SimTime,
    arrival: SimTime,
    dropped: bool,
    duplicated: bool,
}

/// A completed call's reply bytes and virtual completion time.
type SlotResult = (Result<Vec<u8>, RpcError>, SimTime);

/// Completion slot for one in-flight simulated call: filled by the
/// call's child actor, claimed by whichever actor waits on it.
#[derive(Default)]
struct SimSlot {
    done: Mutex<Option<SlotResult>>,
    waiter: Mutex<Option<crate::ActorHandle>>,
}

impl SimSlot {
    fn fill(&self, result: Result<Vec<u8>, RpcError>, at: SimTime) {
        *self.done.lock() = Some((result, at));
        if let Some(waiter) = self.waiter.lock().take() {
            waiter.unpark();
        }
    }
}

impl CallSlot for SimSlot {
    /// Parks the calling actor until the call's child actor delivers the
    /// reply, then advances the caller's clock to the completion time.
    /// Waiting on calls out of order works: each wait only ever moves
    /// the waiter's clock forward.
    fn wait(&self) -> Result<Vec<u8>, RpcError> {
        loop {
            if let Some((result, at)) = self.done.lock().take() {
                advance_to(at);
                return result;
            }
            *self.waiter.lock() = Some(current_actor());
            park();
        }
    }
}

impl RpcChannel for SimRpcClient {
    fn send(
        &self,
        program: u32,
        version: u32,
        procedure: u32,
        credential: OpaqueAuth,
        args: Vec<u8>,
    ) -> Result<PendingCall, RpcError> {
        self.send_with_cred(program, version, procedure, args, credential)
    }

    fn call(
        &self,
        program: u32,
        version: u32,
        procedure: u32,
        credential: OpaqueAuth,
        args: Vec<u8>,
    ) -> Result<Vec<u8>, RpcError> {
        // Same execution body as send + wait, run inline to spare the
        // child actor for the (very common) blocking case.
        self.call_with_cred(program, version, procedure, args, credential)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Link, LinkConfig};
    use crate::{Sim, SimTime};
    use gvfs_rpc::dispatch::RpcService;
    use parking_lot::Mutex;

    struct Echo;
    impl RpcService for Echo {
        fn program(&self) -> u32 {
            50
        }
        fn version(&self) -> u32 {
            1
        }
        fn call(&self, procedure: u32, args: &[u8]) -> Result<Vec<u8>, RpcError> {
            match procedure {
                0 => Ok(args.to_vec()),
                _ => Err(RpcError::ProcedureUnavailable { program: 50, procedure }),
            }
        }
    }

    fn server() -> Arc<ServerNode> {
        let mut d = Dispatcher::new();
        d.register(Echo);
        ServerNode::new("s1", d, Duration::from_micros(200))
    }

    #[test]
    fn call_charges_round_trip_time() {
        let link = Link::new(LinkConfig {
            one_way_latency: Duration::from_millis(20),
            bandwidth_bps: None,
            per_message_overhead: 0,
        });
        let client = SimRpcClient::new(link.forward(), server(), RpcStats::new());
        let out = Arc::new(Mutex::new(None));
        let o = out.clone();
        let sim = Sim::new();
        sim.spawn("c", move || {
            let reply = client.call(50, 1, 0, vec![0, 0, 0, 1]).unwrap();
            assert_eq!(reply, vec![0, 0, 0, 1]);
            *o.lock() = Some(now());
        });
        sim.run();
        let t = out.lock().unwrap();
        // 2 × 20 ms propagation + 200 µs processing.
        assert_eq!(t, SimTime::from_nanos(40_200_000));
    }

    #[test]
    fn stats_record_wire_sizes() {
        let link = Link::new(LinkConfig::loopback());
        let stats = RpcStats::new();
        let client = SimRpcClient::new(link.forward(), server(), stats.clone());
        let sim = Sim::new();
        sim.spawn("c", move || {
            client.call(50, 1, 0, vec![]).unwrap();
        });
        sim.run();
        let snap = stats.snapshot();
        assert_eq!(snap.calls(50, 0), 1);
        assert!(snap.total_bytes() > 40, "rpc headers must be accounted");
    }

    #[test]
    fn down_server_times_out_and_charges_clock() {
        let link = Link::new(LinkConfig::loopback());
        let srv = server();
        srv.set_up(false);
        let client = SimRpcClient::new(link.forward(), srv, RpcStats::new())
            .with_timeout(Duration::from_secs(1));
        let out = Arc::new(Mutex::new(None));
        let o = out.clone();
        let sim = Sim::new();
        sim.spawn("c", move || {
            assert_eq!(client.call(50, 1, 0, vec![]).unwrap_err(), RpcError::Timeout);
            *o.lock() = Some(now());
        });
        sim.run();
        assert!(out.lock().unwrap() >= SimTime::from_secs(1));
    }

    #[test]
    fn partitioned_link_is_unreachable() {
        let link = Link::new(LinkConfig::loopback());
        link.set_partitioned(true);
        let client = SimRpcClient::new(link.forward(), server(), RpcStats::new());
        let sim = Sim::new();
        sim.spawn("c", move || {
            assert_eq!(client.call(50, 1, 0, vec![]).unwrap_err(), RpcError::Unreachable);
        });
        sim.run();
    }

    #[test]
    fn remote_errors_surface() {
        let link = Link::new(LinkConfig::loopback());
        let client = SimRpcClient::new(link.forward(), server(), RpcStats::new());
        let sim = Sim::new();
        sim.spawn("c", move || {
            let err = client.call(50, 1, 99, vec![]).unwrap_err();
            assert!(matches!(err, RpcError::ProcedureUnavailable { .. }));
        });
        sim.run();
    }

    #[test]
    fn pipelined_sends_share_one_round_trip() {
        let link = Link::new(LinkConfig {
            one_way_latency: Duration::from_millis(20),
            bandwidth_bps: None,
            per_message_overhead: 0,
        });
        let client = SimRpcClient::new(link.forward(), server(), RpcStats::new());
        let out = Arc::new(Mutex::new(None));
        let o = out.clone();
        let sim = Sim::new();
        sim.spawn("c", move || {
            let a = client.send(50, 1, 0, vec![0, 0, 0, 1]).unwrap();
            let b = client.send(50, 1, 0, vec![0, 0, 0, 2]).unwrap();
            // Claim out of order: replies are matched by xid, not arrival.
            assert_eq!(client.wait_pending(b).unwrap(), vec![0, 0, 0, 2]);
            assert_eq!(client.wait_pending(a).unwrap(), vec![0, 0, 0, 1]);
            *o.lock() = Some(now());
        });
        sim.run();
        let t = out.lock().unwrap();
        // Both calls overlap: one 2 × 20 ms round trip + 200 µs
        // processing, not two.
        assert_eq!(t, SimTime::from_nanos(40_200_000));
    }

    #[test]
    fn pipelined_sends_are_deterministic() {
        let run = || {
            let link = Link::new(LinkConfig::wan());
            let stats = RpcStats::new();
            let client = SimRpcClient::new(link.forward(), server(), stats.clone());
            let sim = Sim::new();
            sim.spawn("c", move || {
                let pending: Vec<_> =
                    (0u8..5).map(|i| client.send(50, 1, 0, vec![0, 0, 0, i]).unwrap()).collect();
                for (i, p) in pending.into_iter().enumerate() {
                    assert_eq!(client.wait_pending(p).unwrap(), vec![0, 0, 0, i as u8]);
                }
            });
            (sim.run(), stats.snapshot().max_in_flight())
        };
        let (t1, hwm1) = run();
        let (t2, hwm2) = run();
        assert_eq!(t1, t2, "virtual completion time must be reproducible");
        assert_eq!(hwm1, 5, "all five calls must be in flight at once");
        assert_eq!(hwm1, hwm2);
    }

    #[test]
    fn sequential_sends_reuse_a_few_worker_threads() {
        let link = Link::new(LinkConfig::loopback());
        let client = SimRpcClient::new(link.forward(), server(), RpcStats::new());
        let workers = Arc::new(Mutex::new(0));
        let w = workers.clone();
        let sim = Sim::new();
        sim.spawn("c", move || {
            for i in 0..10_000u32 {
                let pending = client.send(50, 1, 0, i.to_be_bytes().to_vec()).unwrap();
                assert_eq!(client.wait_pending(pending).unwrap(), i.to_be_bytes());
            }
            *w.lock() = crate::sched::workers_started();
        });
        sim.run();
        let started = *workers.lock();
        assert!(started <= 4, "10,000 sends started {started} worker threads");
    }

    /// The encoded message's length plus its record mark.
    fn encoded_wire_size(msg: &RpcMessage) -> usize {
        gvfs_xdr::to_bytes(msg).unwrap().len() + RECORD_MARK
    }

    /// `len` payload bytes zero-padded to a word, as the codec writes an
    /// unaligned payload (debug builds assert it never sees one).
    fn padded(len: usize, byte: u8) -> Vec<u8> {
        let mut payload = vec![byte; len];
        payload.resize(len.next_multiple_of(4), 0);
        payload
    }

    #[test]
    fn computed_wire_sizes_match_the_encoding() {
        use gvfs_rpc::message::{RejectedReply, AUTH_SYS};
        // An AUTH_SYS credential with a `len`-byte body, padded or not.
        let cred = |len: usize| {
            let mut enc = gvfs_xdr::Encoder::new();
            enc.put_u32(AUTH_SYS);
            enc.put_opaque(&vec![1; len]).unwrap();
            gvfs_xdr::from_bytes::<OpaqueAuth>(enc.as_bytes()).unwrap()
        };
        for credential in [OpaqueAuth::none(), cred(1), cred(5), cred(16), cred(400)] {
            for len in 0..10 {
                let call = |args| CallBody::new(100_003, 3, 7, credential.clone(), args);
                let want = encoded_wire_size(&RpcMessage {
                    xid: 42,
                    body: MessageBody::Call(call(padded(len, 0xa5))),
                });
                let size = call_wire_size(&call(vec![0xa5; len])).unwrap();
                assert_eq!(size, want, "args of {len} bytes");
            }
        }
        let accepted =
            |stat: AcceptStat| ReplyBody::Accepted { verifier: OpaqueAuth::none(), stat };
        for len in 0..10 {
            let want = encoded_wire_size(&RpcMessage {
                xid: 42,
                body: MessageBody::Reply(accepted(AcceptStat::Success(padded(len, 0x5a)))),
            });
            let results = vec![0x5a; len];
            let reply = accepted(AcceptStat::Success(results.clone()));
            assert_eq!(reply_outcome(42, reply).unwrap(), (want, Ok(results)), "{len} bytes");
        }
        for reply in [
            accepted(AcceptStat::ProgramUnavailable),
            accepted(AcceptStat::ProgramMismatch { low: 2, high: 3 }),
            accepted(AcceptStat::ProcedureUnavailable),
            accepted(AcceptStat::GarbageArgs),
            accepted(AcceptStat::SystemError),
            ReplyBody::Denied(RejectedReply::RpcMismatch { low: 2, high: 2 }),
            ReplyBody::Denied(RejectedReply::AuthError(1)),
        ] {
            let want =
                encoded_wire_size(&RpcMessage { xid: 42, body: MessageBody::Reply(reply.clone()) });
            let outcome = reply.results().map(<[u8]>::to_vec);
            assert_eq!(reply_outcome(42, reply.clone()).unwrap(), (want, outcome), "{reply:?}");
        }
    }

    #[test]
    fn stats_gauge_and_latency_observed() {
        let link = Link::new(LinkConfig {
            one_way_latency: Duration::from_millis(20),
            bandwidth_bps: None,
            per_message_overhead: 0,
        });
        let stats = RpcStats::new();
        let client = SimRpcClient::new(link.forward(), server(), stats.clone());
        let sim = Sim::new();
        sim.spawn("c", move || {
            client.call(50, 1, 0, vec![]).unwrap();
        });
        sim.run();
        let snap = stats.snapshot();
        assert_eq!(snap.max_in_flight(), 1);
        assert_eq!(snap.mean_latency_nanos(50, 0), 40_200_000);
    }

    #[test]
    fn dropped_request_times_out_without_dispatch() {
        use crate::fault::{FaultPlan, Window};
        let link = Link::new(LinkConfig::loopback());
        let window = Window::new(SimTime::ZERO, SimTime::from_secs(10));
        link.set_fault_plan(true, Some(FaultPlan::new(5).with_drop(window, 1.0)));
        let stats = RpcStats::new();
        let client = SimRpcClient::new(link.forward(), server(), stats.clone())
            .with_timeout(Duration::from_secs(1));
        let out = Arc::new(Mutex::new(None));
        let o = out.clone();
        let sim = Sim::new();
        sim.spawn("c", move || {
            assert_eq!(client.call(50, 1, 0, vec![]).unwrap_err(), RpcError::Timeout);
            *o.lock() = Some(now());
        });
        sim.run();
        assert!(out.lock().unwrap() >= SimTime::from_secs(1), "timeout must be charged");
        let snap = stats.snapshot();
        assert_eq!(snap.transport_timeouts(), 1);
        assert_eq!(snap.calls(50, 0), 0, "a lost call never completes");
    }

    #[test]
    fn dropped_reply_loses_the_acknowledgement() {
        use crate::fault::{FaultPlan, Window};
        let link = Link::new(LinkConfig::loopback());
        let window = Window::new(SimTime::ZERO, SimTime::from_secs(10));
        // Fault only the reply direction: the server executes the call.
        link.set_fault_plan(false, Some(FaultPlan::new(6).with_drop(window, 1.0)));
        let hits = Arc::new(Mutex::new(0u32));
        let h = hits.clone();
        struct Counting(Arc<Mutex<u32>>);
        impl RpcService for Counting {
            fn program(&self) -> u32 {
                50
            }
            fn version(&self) -> u32 {
                1
            }
            fn call(&self, _procedure: u32, args: &[u8]) -> Result<Vec<u8>, RpcError> {
                *self.0.lock() += 1;
                Ok(args.to_vec())
            }
        }
        let mut d = Dispatcher::new();
        d.register(Counting(h));
        let srv = ServerNode::new("s1", d, Duration::from_micros(200));
        let client = SimRpcClient::new(link.forward(), srv, RpcStats::new())
            .with_timeout(Duration::from_secs(1));
        let sim = Sim::new();
        sim.spawn("c", move || {
            assert_eq!(client.call(50, 1, 0, vec![]).unwrap_err(), RpcError::Timeout);
        });
        sim.run();
        assert_eq!(*hits.lock(), 1, "the server executed the call despite the lost ack");
    }

    #[test]
    fn duplicated_request_executes_twice_but_replies_once() {
        use crate::fault::{FaultPlan, Window};
        let link = Link::new(LinkConfig::loopback());
        let window = Window::new(SimTime::ZERO, SimTime::from_secs(10));
        link.set_fault_plan(true, Some(FaultPlan::new(7).with_duplicate(window, 1.0)));
        let hits = Arc::new(Mutex::new(0u32));
        let h = hits.clone();
        struct Counting(Arc<Mutex<u32>>);
        impl RpcService for Counting {
            fn program(&self) -> u32 {
                50
            }
            fn version(&self) -> u32 {
                1
            }
            fn call(&self, _procedure: u32, args: &[u8]) -> Result<Vec<u8>, RpcError> {
                *self.0.lock() += 1;
                Ok(args.to_vec())
            }
        }
        let mut d = Dispatcher::new();
        d.register(Counting(h));
        let srv = ServerNode::new("s1", d, Duration::from_micros(200));
        let client = SimRpcClient::new(link.forward(), srv, RpcStats::new());
        let sim = Sim::new();
        sim.spawn("c", move || {
            assert_eq!(client.call(50, 1, 0, vec![1, 2, 3, 4]).unwrap(), vec![1, 2, 3, 4]);
        });
        sim.run();
        assert_eq!(*hits.lock(), 2, "the retransmission reached the dispatcher");
    }

    #[test]
    fn unreachable_sends_are_counted() {
        let link = Link::new(LinkConfig::loopback());
        link.set_partitioned(true);
        let stats = RpcStats::new();
        let client = SimRpcClient::new(link.forward(), server(), stats.clone());
        let sim = Sim::new();
        sim.spawn("c", move || {
            assert_eq!(client.call(50, 1, 0, vec![]).unwrap_err(), RpcError::Unreachable);
            assert_eq!(client.call(50, 1, 0, vec![]).unwrap_err(), RpcError::Unreachable);
        });
        sim.run();
        assert_eq!(stats.snapshot().transport_unreachable(), 2);
    }

    #[test]
    fn restarted_server_serves_again() {
        let link = Link::new(LinkConfig::loopback());
        let srv = server();
        let srv2 = Arc::clone(&srv);
        let client = SimRpcClient::new(link.forward(), srv, RpcStats::new())
            .with_timeout(Duration::from_millis(100));
        let sim = Sim::new();
        sim.spawn("c", move || {
            srv2.set_up(false);
            assert!(client.call(50, 1, 0, vec![]).is_err());
            srv2.set_up(true);
            assert!(client.call(50, 1, 0, vec![]).is_ok());
        });
        sim.run();
    }
}
