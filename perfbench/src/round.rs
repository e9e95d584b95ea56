//! One round of a workload: set up, run the generated ops, check.

use crate::trace::Span;

/// The per-op record one driving thread or actor keeps.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Wall-clock latency of each op, ns.
    pub wall_ns: Vec<u64>,
    /// Virtual latency of each op, ns (simulated workloads only).
    pub virtual_ns: Vec<u64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned an error or a wrong answer, plus every
    /// mismatch found by the checks after the run.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// File bytes the ops wrote.
    pub bytes_written: u64,
    /// File bytes the ops read.
    pub bytes_read: u64,
}

impl OpLog {
    /// Records a failure.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Appends `other`'s records.
    pub fn merge(&mut self, other: OpLog) {
        self.wall_ns.extend(other.wall_ns);
        self.virtual_ns.extend(other.virtual_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.bytes_written += other.bytes_written;
        self.bytes_read += other.bytes_read;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// What the model charged for one simulated round. Identical for every
/// round of one seed; the traced round must reproduce it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Modelled {
    /// Modelled application runtime, ns.
    pub virtual_ns: u64,
    /// RPCs over the WAN links, both directions.
    pub wan_rpcs: u64,
    /// Bytes over the WAN links, both directions.
    pub wan_bytes: u64,
}

/// The outcome of one round.
#[derive(Debug, Default)]
pub struct Round {
    /// Whether the layers were wrapped in timing decorators.
    pub traced: bool,
    /// Wall time to establish the session or server and seed the tree.
    pub setup_s: f64,
    /// Wall time of the run phase (the ops, then unmount).
    pub run_s: f64,
    /// Process CPU time during the run phase.
    pub cpu_s: f64,
    /// Peak resident memory during the round, MiB.
    pub peak_rss_mb: f64,
    /// The ops' records.
    pub ops: OpLog,
    /// Modelled results (simulated workloads only).
    pub modelled: Option<Modelled>,
    /// Per-layer metrics of a traced round, by name.
    pub layers: Vec<(&'static str, f64)>,
    /// The traced round's spans.
    pub spans: Vec<Span>,
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
