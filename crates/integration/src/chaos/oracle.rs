//! Per-model consistency oracles over a recorded chaos history.
//!
//! The oracles only use *observable* facts — acknowledged writes, read
//! observations, crash markers, and the fault-event list — and judge
//! them against what each model promises:
//!
//! - **validity**: every read returns the initial content or the intact
//!   content of an acknowledged write (a torn mix or a never-dispatched
//!   value is always a violation);
//! - **read-your-writes**: a client never reads something older than its
//!   own last acknowledged write;
//! - **freshness**: a read may lag the newest acknowledged write by at
//!   most the model's staleness base, stretched by the fault windows
//!   overlapping the interval (a partitioned poller polls late; a
//!   crashed server answers late);
//! - **final state**: after shutdown flushes, the exported filesystem
//!   holds the last acknowledged write;
//! - **write exclusion**: the delegation table never shows two
//!   concurrent holders with a writer among them.
//!
//! Under delegation, a writer that was partitioned, dropped, or crashed
//! may *legitimately* lose acknowledged-but-unflushed data: an
//! unreachable recall is revoked with nothing recovered (§4.3.4). Those
//! writers are excluded from the strict checks; everything else stays
//! strict — which is exactly how the suppressed-recall breakage knob is
//! caught on a fault-free run.

use crate::chaos::driver::{ModelKind, DELEG_RENEWAL, MAX_STALENESS};
use crate::chaos::history::{Event, Observation};
use crate::chaos::plan::FaultEvent;
use gvfs_netsim::SimTime;
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// The invariant class a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A read returned a torn mix of writes.
    TornRead,
    /// A read returned data that was never acknowledged into the system.
    InvalidValue,
    /// A read lagged an acknowledged write beyond the model's bound.
    StaleRead,
    /// A client read something older than its own acknowledged write.
    ReadYourWrites,
    /// The final filesystem state disagrees with the acknowledged
    /// history.
    FinalState,
    /// The delegation table showed concurrent holders with a writer.
    Exclusion,
}

/// One oracle rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated invariant.
    pub kind: ViolationKind,
    /// Human-readable specifics (file, tags, virtual times).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.detail)
    }
}

/// An acknowledged write, in per-file acknowledgement order.
#[derive(Debug, Clone, Copy)]
struct AckedWrite {
    client: usize,
    tag: u64,
    started: SimTime,
    finished: SimTime,
}

fn secs(t: SimTime) -> f64 {
    t.as_secs_f64()
}

/// Sum of fault-window interference over `[from, to]`: each partition,
/// drop, or crash window overlapping the interval stretches the
/// staleness bound by twice its overlap (retry back-off can roughly
/// double a wait) plus a fixed re-sync allowance.
fn disturbed(from: SimTime, to: SimTime, events: &[FaultEvent]) -> Duration {
    if to <= from {
        return Duration::ZERO;
    }
    const RECOVERY_SLACK_MS: u64 = 10_000;
    let a = from.saturating_since(SimTime::ZERO);
    let b = to.saturating_since(SimTime::ZERO);
    let mut total = Duration::ZERO;
    for ev in events {
        let (start_ms, end_ms) = match *ev {
            FaultEvent::Partition { at_ms, dur_ms, .. }
            | FaultEvent::Drop { at_ms, dur_ms, .. } => (at_ms, at_ms + dur_ms),
            FaultEvent::ServerCrash { at_ms, down_ms } => {
                (at_ms, at_ms + down_ms + RECOVERY_SLACK_MS)
            }
            FaultEvent::ClientCrash { at_ms, down_ms, .. } => {
                (at_ms, at_ms + down_ms + RECOVERY_SLACK_MS)
            }
            // Jitter is micro-scale and duplicates are idempotent;
            // neither delays visibility.
            FaultEvent::Duplicate { .. } | FaultEvent::Jitter { .. } => continue,
        };
        let start = Duration::from_millis(start_ms);
        let end = Duration::from_millis(end_ms);
        let lo = start.max(a);
        let hi = end.min(b);
        if hi > lo {
            total += (hi - lo) * 2 + Duration::from_secs(10);
        }
    }
    total
}

/// Degraded-mode freshness cap (delegation only). While a client's WAN
/// link is partitioned or lossy its breaker opens and the degradation
/// ladder takes over: cached reads are served only while the cache was
/// validated against the server within [`MAX_STALENESS`], and a holder
/// may have served without revalidation for up to [`DELEG_RENEWAL`]
/// before that. So even though [`disturbed`] stretches the bound with
/// the fault window, a read *started inside the reading client's own
/// partition/drop window* must never lag an acknowledged write by more
/// than `base + DELEG_RENEWAL + MAX_STALENESS` — the ladder promises
/// bounded staleness, and this rule is what holds it to that promise
/// (without it, a long window would excuse arbitrarily stale degraded
/// serving).
fn degraded_cap(
    model: ModelKind,
    client: usize,
    started: SimTime,
    events: &[FaultEvent],
) -> Option<Duration> {
    if !matches!(model, ModelKind::Delegation) {
        return None;
    }
    let at = started.saturating_since(SimTime::ZERO);
    let in_own_window = events.iter().any(|ev| match *ev {
        FaultEvent::Partition { client: c, at_ms, dur_ms }
        | FaultEvent::Drop { client: c, at_ms, dur_ms, .. } => {
            c == client
                && at >= Duration::from_millis(at_ms)
                && at < Duration::from_millis(at_ms + dur_ms)
        }
        _ => false,
    });
    in_own_window.then(|| ModelKind::Delegation.staleness_base() + DELEG_RENEWAL + MAX_STALENESS)
}

/// Clients whose acknowledged writes the delegation oracles must not
/// trust: a crashed client discards its dirty data on restart, and a
/// partitioned or lossy client can be revoked while unreachable, losing
/// its unflushed writes by design.
fn untrusted_writers(model: ModelKind, events: &[FaultEvent]) -> HashSet<usize> {
    let mut set = HashSet::new();
    if !matches!(model, ModelKind::Delegation) {
        return set;
    }
    for ev in events {
        match *ev {
            FaultEvent::Partition { client, .. }
            | FaultEvent::Drop { client, .. }
            | FaultEvent::ClientCrash { client, .. } => {
                set.insert(client);
            }
            FaultEvent::Duplicate { .. }
            | FaultEvent::Jitter { .. }
            | FaultEvent::ServerCrash { .. } => {}
        }
    }
    set
}

/// The checks every scripted scenario shares: no read may observe a
/// torn block, and every scripted write must be acknowledged (the
/// scripts issue none on a dead path).
pub fn torn_or_failed(history: &[Event]) -> Vec<Violation> {
    let torn = history.iter().filter_map(|ev| match ev {
        Event::Read { client, file, observed: Observation::Torn, started, .. } => Some(Violation {
            kind: ViolationKind::TornRead,
            detail: format!("client {client} observed a torn block of file {file} at {started:?}"),
        }),
        _ => None,
    });
    let failed = history.iter().filter_map(|ev| match ev {
        Event::WriteFailed { client, file, tag, started, .. } => Some(Violation {
            kind: ViolationKind::FinalState,
            detail: format!("client {client} write {tag:#x} to file {file} failed at {started:?}"),
        }),
        _ => None,
    });
    torn.chain(failed).collect()
}

/// Runs every oracle over one recorded run. `final_tags[f]` is the
/// out-of-band content of file `f` after shutdown.
pub fn check(
    model: ModelKind,
    events: &[FaultEvent],
    history: &[Event],
    final_tags: &[Observation],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let files = final_tags.len();

    // Per-file acknowledged writes in acknowledgement order; the rank of
    // a write is its index (the initial content ranks below everything).
    let mut acked: Vec<Vec<AckedWrite>> = vec![Vec::new(); files];
    for ev in history {
        if let Event::WriteAcked { client, file, tag, started, finished } = *ev {
            acked[file].push(AckedWrite { client, tag, started, finished });
        }
    }
    for writes in &mut acked {
        writes.sort_by_key(|w| (w.finished, w.tag));
    }
    let ranks: Vec<HashMap<u64, usize>> = acked
        .iter()
        .map(|writes| writes.iter().enumerate().map(|(i, w)| (w.tag, i)).collect())
        .collect();
    let rank_of = |file: usize, obs: Observation| -> Option<i64> {
        match obs {
            Observation::Initial => Some(-1),
            Observation::Tag(tag) => ranks[file].get(&tag).map(|&r| r as i64),
            Observation::Torn => None,
        }
    };

    let untrusted = untrusted_writers(model, events);
    let base = model.staleness_base();

    for ev in history {
        match *ev {
            Event::Read { client, file, observed, started, finished } => {
                let observed_rank = match observed {
                    Observation::Torn => {
                        violations.push(Violation {
                            kind: ViolationKind::TornRead,
                            detail: format!(
                                "client {client} read a torn mix of writes from file {file} at {:.3}s",
                                secs(finished)
                            ),
                        });
                        continue;
                    }
                    Observation::Tag(tag) if !ranks[file].contains_key(&tag) => {
                        violations.push(Violation {
                            kind: ViolationKind::InvalidValue,
                            detail: format!(
                                "client {client} read tag {tag:#x} from file {file} at {:.3}s, \
                                 but no such write was ever acknowledged",
                                secs(finished)
                            ),
                        });
                        continue;
                    }
                    obs => rank_of(file, obs).expect("tag rank checked above"),
                };

                // Read-your-writes: never older than the client's own
                // last acknowledged write (delegation excuses untrusted
                // writers — their dirty data may be legitimately gone).
                if !untrusted.contains(&client) {
                    let own_last = acked[file]
                        .iter()
                        .enumerate()
                        .filter(|(_, w)| w.client == client && w.finished <= started)
                        .map(|(i, _)| i as i64)
                        .max();
                    if let Some(own_rank) = own_last {
                        if observed_rank < own_rank {
                            let own = acked[file][own_rank as usize];
                            violations.push(Violation {
                                kind: ViolationKind::ReadYourWrites,
                                detail: format!(
                                    "client {client} acknowledged its own tag {:#x} on file \
                                     {file} at {:.3}s but read {observed:?} at {:.3}s",
                                    own.tag,
                                    secs(own.finished),
                                    secs(started)
                                ),
                            });
                            continue;
                        }
                    }
                }

                // Freshness: every newer acknowledged write must be
                // visible once its bound (base + fault interference) has
                // elapsed before the read even started. Interference is
                // measured from the write's *start*, because the recall
                // that makes the write visible runs inside the write —
                // a fault window that swallowed that recall must count.
                for (i, w) in acked[file].iter().enumerate() {
                    if (i as i64) <= observed_rank || untrusted.contains(&w.client) {
                        continue;
                    }
                    let mut bound = base + disturbed(w.started, started, events);
                    // Degraded mode promises *bounded* staleness: the
                    // reader's own fault window must not excuse more lag
                    // than the ladder's cap.
                    if let Some(cap) = degraded_cap(model, client, started, events) {
                        bound = bound.min(cap);
                    }
                    if w.finished + bound < started {
                        violations.push(Violation {
                            kind: ViolationKind::StaleRead,
                            detail: format!(
                                "client {client} read {observed:?} from file {file} at {:.3}s, \
                                 {:.3}s after tag {:#x} was acknowledged (bound {:.3}s)",
                                secs(started),
                                secs(started) - secs(w.finished),
                                w.tag,
                                bound.as_secs_f64()
                            ),
                        });
                        break;
                    }
                }
            }
            Event::ExclusionViolation { at, fh, sharers, writers } => {
                violations.push(Violation {
                    kind: ViolationKind::Exclusion,
                    detail: format!(
                        "delegation table held {sharers} concurrent sharers ({writers} \
                         writers) of file handle {fh} at {:.3}s",
                        secs(at)
                    ),
                });
            }
            _ => {}
        }
    }

    // Final state: shutdown flushed everything and healed every link, so
    // the exported filesystem must hold the last acknowledged write —
    // except writes by untrusted delegation writers, whose data may have
    // been revoked or discarded mid-run.
    for (file, &obs) in final_tags.iter().enumerate() {
        if obs == Observation::Torn {
            violations.push(Violation {
                kind: ViolationKind::FinalState,
                detail: format!("file {file} ended torn"),
            });
            continue;
        }
        let expected = acked[file].iter().rev().find(|w| !untrusted.contains(&w.client));
        let strict_ok = match (expected, obs) {
            (Some(w), Observation::Tag(tag)) => {
                // Any acknowledged write at or above the expected rank is
                // acceptable (an untrusted writer may still have landed
                // last).
                ranks[file].get(&tag).is_some_and(|&r| r >= ranks[file][&w.tag])
            }
            (Some(_), _) => false,
            (None, Observation::Tag(tag)) => ranks[file].contains_key(&tag),
            (None, Observation::Initial) => true,
            (_, Observation::Torn) => false,
        };
        if !strict_ok {
            let expected_tag = expected.map(|w| format!("{:#x}", w.tag));
            violations.push(Violation {
                kind: ViolationKind::FinalState,
                detail: format!(
                    "file {file} ended as {obs:?} but the last trusted acknowledged write \
                     was {}",
                    expected_tag.unwrap_or_else(|| "none (initial)".to_string())
                ),
            });
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::history::make_tag;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn write(client: usize, file: usize, tag: u64, at: u64) -> Event {
        Event::WriteAcked { client, file, tag, started: ms(at), finished: ms(at + 100) }
    }

    fn read(client: usize, file: usize, observed: Observation, at: u64) -> Event {
        Event::Read { client, file, observed, started: ms(at), finished: ms(at + 100) }
    }

    #[test]
    fn clean_history_passes() {
        let t = make_tag(0, 1);
        let history = vec![write(0, 0, t, 1_000), read(1, 0, Observation::Tag(t), 50_000)];
        let v = check(ModelKind::Polling, &[], &history, &[Observation::Tag(t)]);
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn stale_read_beyond_bound_is_flagged() {
        let t = make_tag(0, 1);
        // Polling bound is 40 s undisturbed; a 100 s-later Initial read
        // must be stale.
        let history = vec![write(0, 0, t, 1_000), read(1, 0, Observation::Initial, 101_000)];
        let v = check(ModelKind::Polling, &[], &history, &[Observation::Tag(t)]);
        assert!(v.iter().any(|x| x.kind == ViolationKind::StaleRead), "got: {v:?}");
    }

    #[test]
    fn fault_windows_stretch_the_bound() {
        let t = make_tag(0, 1);
        let history = vec![write(0, 0, t, 1_000), read(1, 0, Observation::Initial, 101_000)];
        // A 30 s partition inside the interval adds 2*30+10 s of slack:
        // 40 + 70 = 110 s bound, so the same read is no longer stale.
        let events = [FaultEvent::Partition { client: 1, at_ms: 20_000, dur_ms: 30_000 }];
        let v = check(ModelKind::Polling, &events, &history, &[Observation::Tag(t)]);
        assert!(!v.iter().any(|x| x.kind == ViolationKind::StaleRead), "got: {v:?}");
    }

    #[test]
    fn degraded_reads_are_held_to_the_staleness_cap() {
        let t = make_tag(0, 1);
        // Client 1 sits in a long partition window; the general rule
        // would stretch its bound far past the write, but a degraded
        // delegation client serves bounded-staleness reads, so an 83 s
        // lag must still be flagged (cap is 12 + 20 + 30 = 62 s).
        let history = vec![write(0, 0, t, 1_000), read(1, 0, Observation::Initial, 84_000)];
        let events = [FaultEvent::Partition { client: 1, at_ms: 5_000, dur_ms: 80_000 }];
        let v = check(ModelKind::Delegation, &events, &history, &[Observation::Tag(t)]);
        assert!(v.iter().any(|x| x.kind == ViolationKind::StaleRead), "got: {v:?}");
    }

    #[test]
    fn degraded_reads_within_the_cap_pass() {
        let t = make_tag(0, 1);
        // Same window, but the read lags by only ~29 s — inside the
        // ladder's bounded-staleness promise.
        let history = vec![write(0, 0, t, 1_000), read(1, 0, Observation::Initial, 30_000)];
        let events = [FaultEvent::Partition { client: 1, at_ms: 5_000, dur_ms: 80_000 }];
        let v = check(ModelKind::Delegation, &events, &history, &[Observation::Tag(t)]);
        assert!(!v.iter().any(|x| x.kind == ViolationKind::StaleRead), "got: {v:?}");
    }

    #[test]
    fn degraded_cap_only_binds_the_partitioned_reader() {
        let t = make_tag(0, 1);
        // A different client (2) reading equally late is judged by the
        // general stretched bound, not the degraded cap — it never
        // entered degraded mode.
        let history = vec![write(0, 0, t, 1_000), read(2, 0, Observation::Initial, 84_000)];
        let events = [FaultEvent::Partition { client: 1, at_ms: 5_000, dur_ms: 80_000 }];
        let v = check(ModelKind::Delegation, &events, &history, &[Observation::Tag(t)]);
        assert!(!v.iter().any(|x| x.kind == ViolationKind::StaleRead), "got: {v:?}");
    }

    #[test]
    fn read_your_writes_is_enforced() {
        let t = make_tag(1, 1);
        let history = vec![write(1, 0, t, 1_000), read(1, 0, Observation::Initial, 2_000)];
        let v = check(ModelKind::Delegation, &[], &history, &[Observation::Tag(t)]);
        assert!(v.iter().any(|x| x.kind == ViolationKind::ReadYourWrites), "got: {v:?}");
    }

    #[test]
    fn never_acknowledged_data_is_invalid() {
        let bogus = make_tag(2, 9);
        let history = vec![read(0, 0, Observation::Tag(bogus), 5_000)];
        let v = check(ModelKind::Passthrough, &[], &history, &[Observation::Initial]);
        assert!(v.iter().any(|x| x.kind == ViolationKind::InvalidValue), "got: {v:?}");
    }

    #[test]
    fn lost_final_write_is_flagged() {
        let t = make_tag(0, 1);
        let history = vec![write(0, 0, t, 1_000)];
        let v = check(ModelKind::Polling, &[], &history, &[Observation::Initial]);
        assert!(v.iter().any(|x| x.kind == ViolationKind::FinalState), "got: {v:?}");
    }

    #[test]
    fn untrusted_delegation_writers_are_excused() {
        let t = make_tag(0, 1);
        let history = vec![write(0, 0, t, 30_000)];
        // Client 0 crashed: its acknowledged-but-dirty write may be
        // legitimately discarded, so an Initial final state is fine.
        let events = [FaultEvent::ClientCrash { client: 0, at_ms: 40_000, down_ms: 5_000 }];
        let v = check(ModelKind::Delegation, &events, &history, &[Observation::Initial]);
        assert!(v.is_empty(), "got: {v:?}");
        // But under polling (write-through) the same loss is real.
        let v = check(ModelKind::Polling, &events, &history, &[Observation::Initial]);
        assert!(v.iter().any(|x| x.kind == ViolationKind::FinalState), "got: {v:?}");
    }
}
