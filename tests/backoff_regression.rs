//! Regression tests for the exponential back-off on doomed WAN calls: a
//! partitioned client must not hammer its dead link. Before the fix the
//! GETINV poller retried every period and the forward path every second,
//! so a six-minute outage burned hundreds of unreachable attempts; with
//! back-off (window doubling to the cap) the count stays in the teens.

use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::protocol::{proc_ext, GVFS_PROXY_PROGRAM};
use gvfs_core::proxy::client::RETRY_BUDGET;
use gvfs_core::session::{Session, SessionConfig};
use gvfs_core::ConsistencyModel;
use gvfs_netsim::Sim;
use gvfs_nfs3::{proc3, GetattrArgs};
use gvfs_rpc::dispatch::RpcService;
use gvfs_rpc::RpcError;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn sleep_until(at: Duration) {
    let elapsed = gvfs_netsim::now().saturating_since(gvfs_netsim::SimTime::ZERO);
    if at > elapsed {
        gvfs_netsim::sleep(at - elapsed);
    }
}

/// The GETINV poller across a 390 s partition: the polling window must
/// back off (2 s doubling to 60 s ≈ a dozen attempts), not fire every
/// period (~195 attempts), and polling must resume after the heal.
#[test]
fn poller_backs_off_across_a_partition() {
    let sim = Sim::new();
    let session = Arc::new(
        Session::builder(SessionConfig {
            model: ConsistencyModel::InvalidationPolling {
                period: Duration::from_secs(2),
                backoff_max: Some(Duration::from_secs(60)),
            },
            write_back: false,
            ..SessionConfig::default()
        })
        .clients(1)
        .establish(&sim),
    );

    let done = Arc::new(AtomicUsize::new(0));
    let outage = Arc::new(Mutex::new(None));

    {
        let t = session.client_transport(0);
        let root = session.root_fh();
        let done = Arc::clone(&done);
        sim.spawn("bo-warm", move || {
            let c = NfsClient::new(t, root, MountOptions::noac());
            gvfs_netsim::sleep(Duration::from_secs(1));
            c.write_file("/bo-a", b"warm").expect("warm write");
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let session = Arc::clone(&session);
        let done = Arc::clone(&done);
        let outage = Arc::clone(&outage);
        sim.spawn("bo-controller", move || {
            sleep_until(Duration::from_secs(10));
            let before = session.wan_stats().snapshot();
            session.wan_link(0).set_partitioned(true);
            sleep_until(Duration::from_secs(400));
            let during = session.wan_stats().snapshot().since(&before);
            session.wan_link(0).set_partitioned(false);
            // Leave time for a healed polling round before shutdown.
            gvfs_netsim::sleep(Duration::from_secs(90));
            let healed = session.wan_stats().snapshot();
            *outage.lock() = Some((during, healed.since(&before)));
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let handle = session.handle();
        let done = Arc::clone(&done);
        sim.spawn("bo-closer", move || {
            loop {
                gvfs_netsim::park_timeout(Duration::from_secs(1));
                if done.load(Ordering::SeqCst) >= 2 {
                    break;
                }
            }
            handle.shutdown();
        });
    }
    sim.run();

    let guard = outage.lock();
    let (during, after) = guard.as_ref().expect("controller ran");
    let attempts = during.transport_unreachable();
    assert!(attempts >= 3, "the poller must keep probing the dead link (saw {attempts} attempts)");
    assert!(
        attempts <= 20,
        "390 s of partition burned {attempts} unreachable attempts; \
         the back-off (2 s doubling to 60 s) allows at most ~a dozen"
    );
    assert!(
        after.calls(GVFS_PROXY_PROGRAM, proc_ext::GETINV) >= 1,
        "polling must resume once the link heals"
    );
}

/// A forwarded request issued into a partition: the retry loop must
/// back off (1 s doubling to 60 s) while the link is dead, then complete
/// the request after the heal — a hard-mount wait, not a hot loop.
#[test]
fn blocked_forward_backs_off_and_completes_after_heal() {
    let sim = Sim::new();
    let session = Arc::new(
        Session::builder(SessionConfig {
            model: ConsistencyModel::Passthrough,
            write_back: false,
            ..SessionConfig::default()
        })
        .clients(1)
        .establish(&sim),
    );

    let done = Arc::new(AtomicUsize::new(0));
    let read_back = Arc::new(Mutex::new(Vec::new()));
    let attempts = Arc::new(AtomicUsize::new(usize::MAX));

    {
        let t = session.client_transport(0);
        let root = session.root_fh();
        let done = Arc::clone(&done);
        let read_back = Arc::clone(&read_back);
        sim.spawn("bo-reader", move || {
            let c = NfsClient::new(t, root, MountOptions::noac());
            gvfs_netsim::sleep(Duration::from_secs(1));
            let fh = c.write_file("/bo-b", b"payload").expect("warm write");
            // Issued one second into the partition; the proxy's forward
            // loop holds it like a hard mount until the link heals.
            sleep_until(Duration::from_secs(6));
            *read_back.lock() = c.read(fh, 0, 7).expect("read completes after the heal");
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let session = Arc::clone(&session);
        let done = Arc::clone(&done);
        let attempts = Arc::clone(&attempts);
        sim.spawn("bo-controller", move || {
            sleep_until(Duration::from_secs(5));
            let before = session.wan_stats().snapshot();
            session.wan_link(0).set_partitioned(true);
            sleep_until(Duration::from_secs(200));
            attempts.store(
                session.wan_stats().snapshot().since(&before).transport_unreachable() as usize,
                Ordering::SeqCst,
            );
            session.wan_link(0).set_partitioned(false);
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    {
        let handle = session.handle();
        let done = Arc::clone(&done);
        sim.spawn("bo-closer", move || {
            loop {
                gvfs_netsim::park_timeout(Duration::from_secs(1));
                if done.load(Ordering::SeqCst) >= 2 {
                    break;
                }
            }
            handle.shutdown();
        });
    }
    sim.run();

    assert_eq!(&*read_back.lock(), b"payload", "the held request must complete intact");
    let tries = attempts.load(Ordering::SeqCst);
    assert!(tries >= 2, "the forward loop must keep probing the dead link (saw {tries} attempts)");
    assert!(
        tries <= 15,
        "195 s of partition burned {tries} unreachable attempts; \
         the 1 s-doubling-to-60 s back-off allows at most ~ten"
    );
}

/// `RETRY_BUDGET` bounds the hard-retry loop: with the WAN partitioned
/// for good, a forwarded call gives up after exactly that many
/// retransmissions and surfaces the transport error instead of holding
/// the request forever.
#[test]
fn retry_budget_bounds_the_hard_retry_loop() {
    let sim = Sim::new();
    let session = Arc::new(
        Session::builder(SessionConfig {
            model: ConsistencyModel::Passthrough,
            ..SessionConfig::default()
        })
        .clients(1)
        .establish(&sim),
    );
    let outcome = Arc::new(Mutex::new(None));
    {
        let session = Arc::clone(&session);
        let outcome = Arc::clone(&outcome);
        let handle = session.handle();
        sim.spawn("rb-caller", move || {
            session.wan_link(0).set_partitioned(true);
            let args = gvfs_xdr::to_bytes(&GetattrArgs { object: session.root_fh() })
                .expect("encode GETATTR");
            let proxy = session.proxy_client(0);
            let t0 = gvfs_netsim::now();
            let res = proxy.call(proc3::GETATTR, &args);
            let elapsed = gvfs_netsim::now().saturating_since(t0);
            *outcome.lock() = Some((res, elapsed, proxy.stats().transport_retries));
            handle.shutdown();
        });
    }
    sim.run();

    let (res, elapsed, retries) = outcome.lock().take().expect("caller ran");
    assert_eq!(res, Err(RpcError::Unreachable), "the call must fail, not hang");
    assert_eq!(retries, u64::from(RETRY_BUDGET), "exactly the budgeted retransmissions");
    // Back-off doubling from 1 s to the 60 s cap: 1 + 2 + ... + 32 s,
    // then 60 s for each later retransmission, plus under half of each
    // in jitter.
    let backoff = Duration::from_secs(63 + 60 * (u64::from(RETRY_BUDGET) - 6));
    assert!(elapsed >= backoff, "gave up early, after {elapsed:?}");
    assert!(elapsed < backoff * 3 / 2, "gave up after {elapsed:?}");
}
