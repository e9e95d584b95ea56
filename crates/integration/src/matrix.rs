//! The scripted consistency matrix: one fixed two-client scenario run
//! under each model, returning what the reader observed at each step so
//! a test can assert the *model-specific* visibility — passthrough sees
//! a remote write immediately, polling sees it only after the next
//! polling window, delegation sees it immediately because the write
//! recalls the reader's delegation first.

use crate::chaos::ModelKind;
use gvfs_client::{MountOptions, NfsClient};
use gvfs_core::session::{Session, SessionConfig};
use gvfs_core::ConsistencyModel;
use gvfs_netsim::Sim;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// The polling window the matrix scenario uses — long enough that the
/// read right after the remote write predates the next poll.
pub const MATRIX_POLL_PERIOD: Duration = Duration::from_secs(30);

/// What the reader observed at the three scripted instants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixOutcome {
    /// The model that produced this outcome.
    pub model: ModelKind,
    /// Read at t=50 s, after the writer wrote `v1` at t≈1 s.
    pub warm: Vec<u8>,
    /// Read at t=103 s, right after the writer wrote `v2` at t=100 s
    /// (before the next polling window).
    pub after_write: Vec<u8>,
    /// Read at t=135 s, after every model's visibility window passed.
    pub after_window: Vec<u8>,
}

fn matrix_config(model: ModelKind) -> SessionConfig {
    match model {
        ModelKind::Passthrough => SessionConfig::default(),
        ModelKind::Polling => SessionConfig {
            model: ConsistencyModel::InvalidationPolling {
                period: MATRIX_POLL_PERIOD,
                backoff_max: None,
            },
            ..SessionConfig::default()
        },
        ModelKind::Delegation => SessionConfig {
            model: ConsistencyModel::delegation(),
            write_back: true,
            ..SessionConfig::default()
        },
    }
}

fn sleep_until(at: Duration) {
    let elapsed = gvfs_netsim::now().saturating_since(gvfs_netsim::SimTime::ZERO);
    if at > elapsed {
        gvfs_netsim::sleep(at - elapsed);
    }
}

/// Runs the scripted two-client scenario under `model`.
pub fn run_matrix(model: ModelKind) -> MatrixOutcome {
    let sim = Sim::new();
    let session = Session::builder(matrix_config(model)).clients(2).establish(&sim);
    let (wt, rt, root, handle) = (
        session.client_transport(0),
        session.client_transport(1),
        session.root_fh(),
        session.handle(),
    );

    sim.spawn("matrix-writer", move || {
        let c = NfsClient::new(wt, root, MountOptions::noac());
        gvfs_netsim::sleep(Duration::from_secs(1));
        c.write_file("/matrix", b"v1").expect("write v1");
        sleep_until(Duration::from_secs(100));
        let fh = c.resolve("/matrix").expect("resolve for v2");
        c.write(fh, 0, b"v2").expect("write v2");
    });

    let observed = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&observed);
    sim.spawn("matrix-reader", move || {
        let c = NfsClient::new(rt, root, MountOptions::noac());
        for at in [Duration::from_secs(50), Duration::from_secs(103), Duration::from_secs(135)] {
            sleep_until(at);
            let data = c.read_file("/matrix").expect("matrix read");
            sink.lock().push(data);
        }
        handle.shutdown();
    });

    sim.run();
    let reads = observed.lock().clone();
    assert_eq!(reads.len(), 3, "the reader performs exactly three scripted reads");
    MatrixOutcome {
        model,
        warm: reads[0].clone(),
        after_write: reads[1].clone(),
        after_window: reads[2].clone(),
    }
}
