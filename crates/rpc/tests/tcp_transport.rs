//! Integration tests for the real-TCP transport: concurrency, large
//! transfers crossing fragment boundaries, and duplicate-request
//! replay for non-idempotent services.

use gvfs_rpc::channel::RpcChannel;
use gvfs_rpc::dispatch::{Dispatcher, RpcService};
use gvfs_rpc::message::{CallBody, MessageBody, OpaqueAuth, RpcMessage};
use gvfs_rpc::record::{write_record, RecordReader, MAX_FRAGMENT};
use gvfs_rpc::tcp::{TcpRpcClient, TcpRpcServer};
use gvfs_rpc::RpcError;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A service where re-execution is observable: each *executed* call
/// increments a counter and returns its value.
struct CountingService(Arc<AtomicU32>);

impl RpcService for CountingService {
    fn program(&self) -> u32 {
        77
    }
    fn version(&self) -> u32 {
        1
    }
    fn call(&self, procedure: u32, args: &[u8]) -> Result<Vec<u8>, RpcError> {
        match procedure {
            0 => Ok(args.to_vec()),
            1 => {
                let n = self.0.fetch_add(1, Ordering::SeqCst) + 1;
                Ok(gvfs_xdr::to_bytes(&n).expect("encode"))
            }
            2 => {
                // Slow enough that an impatient client retransmits while
                // the original execution is still running.
                std::thread::sleep(std::time::Duration::from_millis(300));
                let n = self.0.fetch_add(1, Ordering::SeqCst) + 1;
                Ok(gvfs_xdr::to_bytes(&n).expect("encode"))
            }
            p => Err(RpcError::ProcedureUnavailable { program: 77, procedure: p }),
        }
    }
}

fn start() -> (gvfs_rpc::tcp::TcpServerHandle, Arc<AtomicU32>) {
    let counter = Arc::new(AtomicU32::new(0));
    let mut dispatcher = Dispatcher::new();
    dispatcher.register(CountingService(Arc::clone(&counter)));
    let server = TcpRpcServer::bind("127.0.0.1:0", dispatcher).expect("bind");
    (server.spawn(), counter)
}

#[test]
fn concurrent_clients_get_their_own_replies() {
    let (handle, _) = start();
    let addr = handle.addr();
    let mut threads = Vec::new();
    for t in 0..8u32 {
        threads.push(std::thread::spawn(move || {
            let client = TcpRpcClient::connect(addr).expect("connect");
            for i in 0..50u32 {
                let payload = gvfs_xdr::to_bytes(&(t * 1000 + i)).unwrap();
                let reply = client.call(77, 1, 0, OpaqueAuth::none(), payload.clone()).unwrap();
                assert_eq!(reply, payload);
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown();
}

#[test]
fn threads_sharing_one_client_take_turns_reading() {
    // Callers on one connection read for each other: whoever holds the
    // read half resolves everyone's replies and, on letting go, wakes a
    // sleeping caller to take over. A caller left asleep with nobody
    // reading would burn its timeout, and with no retries fail.
    let (handle, _) = start();
    let client = Arc::new(
        TcpRpcClient::connect(handle.addr())
            .expect("connect")
            .with_timeout(std::time::Duration::from_secs(10))
            .with_retries(0),
    );
    let threads: Vec<_> = (0..8u32)
        .map(|t| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                for i in 0..300u32 {
                    let mut payload = vec![t as u8; 4 + (i % 5) as usize * 8 * 1024];
                    payload[..4].copy_from_slice(&i.to_be_bytes());
                    let reply = client.call(77, 1, 0, OpaqueAuth::none(), payload.clone()).unwrap();
                    assert_eq!(reply, payload, "thread {t} call {i}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(client.stats().snapshot().transport_timeouts(), 0);
    handle.shutdown();
}

#[test]
fn a_sleeping_caller_takes_over_reading() {
    // Two slow calls, answered 300 ms apart. The main thread waits first
    // and reads; the second caller comes in while it reads and sleeps.
    // The reader leaves with the first reply, so it must wake the
    // sleeper to read the second, or that caller burns its timeout.
    // Nothing shows which caller holds the read half, hence the sleep:
    // a second caller that came first would read both replies itself,
    // which passes without a hand-off but cannot fail falsely.
    let (handle, _) = start();
    let client = Arc::new(
        TcpRpcClient::connect(handle.addr())
            .expect("connect")
            .with_timeout(std::time::Duration::from_secs(5))
            .with_retries(0),
    );
    let first = RpcChannel::send(&*client, 77, 1, 2, OpaqueAuth::none(), Vec::new()).unwrap();
    let second = RpcChannel::send(&*client, 77, 1, 2, OpaqueAuth::none(), Vec::new()).unwrap();
    let sleeper = {
        let client = Arc::clone(&client);
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(100));
            RpcChannel::wait(&*client, second)
        })
    };
    let n: u32 = gvfs_xdr::from_bytes(&RpcChannel::wait(&*client, first).unwrap()).unwrap();
    assert_eq!(n, 1);
    let n: u32 = gvfs_xdr::from_bytes(&sleeper.join().unwrap().unwrap()).unwrap();
    assert_eq!(n, 2);
    handle.shutdown();
}

#[test]
fn large_payloads_cross_fragment_boundaries() {
    let (handle, _) = start();
    let client = TcpRpcClient::connect(handle.addr()).expect("connect");
    let big = vec![0xabu8; 2 * 1024 * 1024]; // 2 MiB: multiple fragments
    let reply = client.call(77, 1, 0, OpaqueAuth::none(), big.clone()).unwrap();
    assert_eq!(reply, big);
    handle.shutdown();
}

#[test]
fn duplicate_xid_is_replayed_not_reexecuted() {
    let (handle, counter) = start();
    let addr = handle.addr();

    // Hand-roll the retransmission: send the *same* record twice on one
    // connection (TcpRpcClient always bumps its xid, so go raw).
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let call = RpcMessage {
        xid: 42,
        body: MessageBody::Call(CallBody::new(77, 1, 1, OpaqueAuth::none(), Vec::new())),
    };
    let bytes = gvfs_xdr::to_bytes(&call).unwrap();
    let framed = write_record(&bytes, MAX_FRAGMENT);

    let mut reader = RecordReader::new();
    let read_reply = |stream: &mut std::net::TcpStream, reader: &mut RecordReader| {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(record) = reader.pop() {
                let msg: RpcMessage = gvfs_xdr::from_bytes(&record).unwrap();
                let MessageBody::Reply(reply) = msg.body else { panic!("not a reply") };
                let n: u32 = gvfs_xdr::from_bytes(reply.results().unwrap()).unwrap();
                return n;
            }
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "server closed early");
            reader.push(&buf[..n]).unwrap();
        }
    };

    stream.write_all(&framed).unwrap();
    let first = read_reply(&mut stream, &mut reader);
    stream.write_all(&framed).unwrap(); // retransmission
    let second = read_reply(&mut stream, &mut reader);

    assert_eq!(first, second, "the DRC must replay the original reply");
    assert_eq!(counter.load(Ordering::SeqCst), 1, "the call executed exactly once");

    // A genuinely new xid executes again.
    let call2 = RpcMessage {
        xid: 43,
        body: MessageBody::Call(CallBody::new(77, 1, 1, OpaqueAuth::none(), Vec::new())),
    };
    let framed2 = write_record(&gvfs_xdr::to_bytes(&call2).unwrap(), MAX_FRAGMENT);
    stream.write_all(&framed2).unwrap();
    let third = read_reply(&mut stream, &mut reader);
    assert_eq!(third, 2);
    handle.shutdown();
}

#[test]
fn client_retransmission_is_suppressed_by_drc() {
    let (handle, counter) = start();
    let client = TcpRpcClient::connect(handle.addr())
        .expect("connect")
        .with_timeout(std::time::Duration::from_millis(60))
        .with_retries(8);
    // The call takes ~300 ms server-side; the client times out at 60 ms
    // and retransmits the identical record (same xid) several times.
    // The connection thread executes the original, then replays the
    // cached reply for every retransmission: exactly one execution.
    let reply = client.call(77, 1, 2, OpaqueAuth::none(), Vec::new()).unwrap();
    let n: u32 = gvfs_xdr::from_bytes(&reply).unwrap();
    assert_eq!(n, 1);
    // Allow the server to drain the retransmitted duplicates.
    std::thread::sleep(std::time::Duration::from_millis(200));
    assert_eq!(counter.load(Ordering::SeqCst), 1, "retransmissions must not re-execute");
    handle.shutdown();
}

#[test]
fn call_times_out_after_bounded_retries() {
    // A listener that accepts but never replies.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
    let client = TcpRpcClient::connect(addr)
        .expect("connect")
        .with_timeout(std::time::Duration::from_millis(40))
        .with_retries(2);
    let started = std::time::Instant::now();
    let err = client.call(77, 1, 0, OpaqueAuth::none(), Vec::new()).unwrap_err();
    assert_eq!(err, RpcError::Timeout);
    // One initial timeout plus two retransmission windows.
    assert!(started.elapsed() >= std::time::Duration::from_millis(120));
    assert_eq!(client.stats().snapshot().transport_timeouts(), 1);
    drop(hold.join());
}

#[test]
fn send_after_server_closes_counts_unreachable() {
    // A listener that accepts and at once closes the connection.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let closer = std::thread::spawn(move || drop(listener.accept()));
    let client = TcpRpcClient::connect(addr).expect("connect");
    closer.join().unwrap();
    // The waiting caller reads the close and fails the call.
    let err = client.call(77, 1, 0, OpaqueAuth::none(), Vec::new()).unwrap_err();
    assert_eq!(err, RpcError::Unreachable);
    assert_eq!(client.stats().snapshot().transport_unreachable(), 0);
    let err = RpcChannel::send(&client, 77, 1, 0, OpaqueAuth::none(), Vec::new()).unwrap_err();
    assert_eq!(err, RpcError::Unreachable);
    assert_eq!(client.stats().snapshot().transport_unreachable(), 1);
}

#[test]
fn many_sends_before_the_first_wait_all_complete() {
    // Far more reply bytes than the socket buffers hold: the server
    // blocks writing replies while the client is still sending, so the
    // sender must drain them for either side to make progress.
    let (handle, _) = start();
    let client = TcpRpcClient::connect(handle.addr()).expect("connect");
    let payload = |i: u32| {
        let mut p = vec![(i % 251) as u8; 32 * 1024];
        p[..4].copy_from_slice(&i.to_be_bytes());
        p
    };
    let pending: Vec<_> = (0..2000u32)
        .map(|i| RpcChannel::send(&client, 77, 1, 0, OpaqueAuth::none(), payload(i)).unwrap())
        .collect();
    for (i, call) in (0..2000u32).zip(pending) {
        assert_eq!(RpcChannel::wait(&client, call).unwrap(), payload(i), "call {i}");
    }
    handle.shutdown();
}

#[test]
fn unknown_program_reported_over_tcp() {
    let (handle, _) = start();
    let client = TcpRpcClient::connect(handle.addr()).expect("connect");
    let err = client.call(12345, 1, 0, OpaqueAuth::none(), Vec::new()).unwrap_err();
    assert!(matches!(err, RpcError::ProgramUnavailable { .. }));
    handle.shutdown();
}

#[test]
fn shutdown_is_idempotent_and_joins() {
    let (handle, _) = start();
    let addr = handle.addr();
    handle.shutdown();
    // The port no longer accepts RPC service (a fresh connect may succeed
    // at the TCP level on some platforms before the listener closes, but
    // calls must fail).
    if let Ok(client) = TcpRpcClient::connect(addr) {
        let _ = client.call(77, 1, 0, OpaqueAuth::none(), Vec::new());
    }
}
