//! Fault-plan shrinking: bisect a violating event list down to a
//! minimal reproducer.
//!
//! Because every run is a pure function of (scenario, event list), the
//! shrinker can simply re-run subsets: first the empty list (a run that
//! fails with *no* injected faults means the bug is in the protocol
//! logic itself, not fault handling — the suppressed-recall self-test
//! reduces to exactly this), then greedy single-event deletions until a
//! fixpoint. The result plus the seed is a complete reproducer.

use crate::chaos::driver::{run_with_events, ScenarioConfig};
use crate::chaos::harness::ChaosReport;
use crate::chaos::plan::FaultEvent;
use std::fmt::Write as _;

/// A minimized reproducer.
#[derive(Debug)]
pub struct Shrunk {
    /// The minimal event subset that still violates.
    pub events: Vec<FaultEvent>,
    /// How many scenario re-runs the shrink took.
    pub runs: usize,
    /// The report of the final (minimal) failing run.
    pub report: ChaosReport,
}

/// Shrinks `events` to a minimal subset on which `cfg` still produces
/// violations. Returns `None` if the full list does not violate (there
/// is nothing to shrink).
pub fn shrink_failure(cfg: &ScenarioConfig, events: &[FaultEvent]) -> Option<Shrunk> {
    let mut runs = 0usize;
    let mut attempt = |subset: &[FaultEvent]| -> Option<ChaosReport> {
        runs += 1;
        let report = run_with_events(cfg, subset);
        if report.violations.is_empty() {
            None
        } else {
            Some(report)
        }
    };

    let mut report = attempt(events)?;
    let mut current = events.to_vec();

    // Fast path: does the failure even need the faults?
    if !current.is_empty() {
        if let Some(r) = attempt(&[]) {
            return Some(Shrunk { events: Vec::new(), runs, report: r });
        }
    }

    // Greedy deletion to a fixpoint: drop any single event whose removal
    // keeps the run failing, then start over.
    loop {
        let mut reduced = false;
        for i in 0..current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if let Some(r) = attempt(&candidate) {
                current = candidate;
                report = r;
                reduced = true;
                break;
            }
        }
        if !reduced {
            break;
        }
    }
    Some(Shrunk { events: current, runs, report })
}

/// Renders a reproducer block (seed, model, minimal plan, violations)
/// suitable for a CI artifact or a bug report.
pub fn format_reproducer(shrunk: &Shrunk) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos reproducer: seed={} model={} events={}",
        shrunk.report.seed,
        shrunk.report.model.name(),
        shrunk.events.len()
    );
    for ev in &shrunk.events {
        let _ = writeln!(out, "  plan: {ev}");
    }
    for v in &shrunk.report.violations {
        let _ = writeln!(out, "  violation: {v}");
    }
    out
}
