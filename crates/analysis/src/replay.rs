//! Trace-conformance replay: asserts that a protocol-event trace
//! recorded by `gvfs_core::trace` (chaos soak, netsim integration
//! tests) is an accepted path of the composed protocol model.
//!
//! The checker is a deterministic abstract machine mirroring the
//! server's delegation table, the breaker-driven recall lifecycle, and
//! the client degradation ladder. Every rule errs conservative: when
//! the trace cannot prove a violation (because an internal transition
//! is not observable), the event is accepted. What it *can* prove:
//!
//! - structure: `meta` first, `seq` strictly increasing, `t_ms`
//!   non-decreasing, known discriminators, required fields present;
//! - exclusivity: a `write` grant admits no other holder, a `read`
//!   grant admits no write holder (modulo in-flight recalls);
//! - recall lifecycle: every `recall_done` consumes a prior
//!   `recall_sent` (ok) or `recall_short`/`recall_fail` (not ok), and
//!   `recall_recv` on a client consumes a matching `recall_sent`;
//! - lease discipline: an in-table `lease_revoke` only fires after a
//!   full lease elapsed since the holder's last observed grant;
//! - ladder discipline: `degrade` only from healthy, `degraded_serve`
//!   and `repromote` only while degraded, and every `repromote` drains
//!   GETINV first (a `validate` for that client after the `degrade`);
//! - bounded staleness: a degraded read is served within
//!   `max_staleness_ms` (plus poll-cadence slack) of the client's last
//!   proof of freshness;
//! - invalidation clock: per-client GETINV timestamps are monotone,
//!   resetting only across a server crash;
//! - peer sourcing: a `peer_serve` never comes from a condemned copy —
//!   a client that received a recall for the handle must re-validate
//!   (a later grant) before it may serve peers again — and a verified
//!   `peer_fetch` always has a matching prior `peer_serve`;
//! - integrity: no block whose checksum failed verification is ever
//!   returned to a reader — an `integrity_fault` with `served` set
//!   (the `--break-scrub` knob's signature) is a violation — and every
//!   `scrub_repair` is backed by a prior quarantine on that client and
//!   handle.
//!
//! The GETINV, write-exclusion, ladder and lease-legitimacy rules are
//! the ones stated in [`crate::spec`]; lines are read with
//! [`TraceRecord::from_json_line`], the inverse of the writer.

use crate::spec::{self, Ladder};
use gvfs_core::trace::{ProtocolEvent, TraceKind, TraceLineError, TraceRecord};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Freshness slack for the bounded-staleness rule, covering the gap
/// between a client's last *observable* freshness proof (grant or
/// GETINV exchange) and the cache entry's actual validation stamp,
/// which the poll loop may have refreshed without emitting an event.
const STALENESS_SLACK_MS: u64 = 5_000;

/// One rejected event with enough context to find it in the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    pub line: usize,
    pub seq: u64,
    pub t_ms: u64,
    pub rule: &'static str,
    pub detail: String,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {} (seq {}, t={}ms): {}: {}",
            self.line, self.seq, self.t_ms, self.rule, self.detail
        )
    }
}

/// Outcome of replaying one trace file.
#[derive(Debug)]
pub struct ReplayReport {
    pub path: PathBuf,
    pub events: usize,
    pub rejections: Vec<Rejection>,
}

impl ReplayReport {
    pub fn accepted(&self) -> bool {
        self.rejections.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Conformance state machine
// ---------------------------------------------------------------------------

/// A rejected event: the rule it breaks and why.
type Verdict = Result<(), (&'static str, String)>;

#[derive(Default)]
struct ClientState {
    /// Ladder position reconstructed from `degrade`, `validate` and
    /// `repromote` events.
    ladder: Ladder,
    /// Timestamp of the last GETINV exchange (freshness proof).
    last_validate_t: Option<u64>,
    /// Last GETINV invalidation-clock value; monotone between crashes.
    last_ts: Option<u64>,
}

#[derive(Default)]
struct Checker {
    lease_ms: u64,
    max_staleness_ms: u64,
    /// fh → (client → kind): delegations the trace shows outstanding,
    /// ordered so a rejection names the same conflicting holder on
    /// every run.
    holders: HashMap<u64, BTreeMap<u32, TraceKind>>,
    /// (client, fh) → timestamp of the last grant/regrant observed.
    last_grant: HashMap<(u32, u64), u64>,
    /// (client, fh) pairs that have ever been sent a recall. The fault
    /// injector duplicates packets, so delivery is at-least-once and a
    /// recv cannot be matched one-to-one against a send.
    recall_sent_ever: HashSet<(u32, u64)>,
    /// (client, fh) → (ok-capable, fail-capable) outstanding recall
    /// outcomes awaiting a recall_done.
    done_credit: HashMap<(u32, u64), (u64, u64)>,
    clients: HashMap<u32, ClientState>,
    server_crashed_once: bool,
    /// (client, fh) pairs whose cached copy the trace shows condemned
    /// (a recall arrived) with no re-validation (grant) since. Serving
    /// a peer from such a copy is the peer-sourcing cardinal sin.
    condemned: HashSet<(u32, u64)>,
    /// (client, fh) pairs that have ever answered a PEERREAD with data;
    /// a verified peer_fetch must be backed by one of these.
    served_ever: HashSet<(u32, u64)>,
    /// (client, fh) pairs whose store quarantined an extent; a
    /// scrub_repair must be backed by one of these.
    quarantined_ever: HashSet<(u32, u64)>,
}

impl Checker {
    fn new(lease_ms: u64, max_staleness_ms: u64) -> Self {
        Checker { lease_ms, max_staleness_ms, ..Checker::default() }
    }

    fn client(&mut self, id: u32) -> &mut ClientState {
        self.clients.entry(id).or_default()
    }

    /// Applies one event recorded at `t_ms`.
    fn step(&mut self, t_ms: u64, ev: &ProtocolEvent) -> Verdict {
        use ProtocolEvent as E;
        match *ev {
            E::Grant { client, fh, kind } => {
                // Exclusivity, modulo holders a concurrent recall is
                // already evicting (their recall_done arrives later).
                let conflict = self.holders.get(&fh).and_then(|held| {
                    held.iter().find(|&(&c, &k)| {
                        c != client
                            && self.done_credit.get(&(c, fh)).is_none_or(|&(a, b)| a + b == 0)
                            && spec::conflicts(spec::traced(kind), spec::traced(k))
                    })
                });
                if let Some((&c, &k)) = conflict {
                    return Err((
                        "grant-exclusivity",
                        format!(
                            "{kind:?} grant to client {client} for fh {fh} while client {c} \
                             holds {k:?}"
                        ),
                    ));
                }
                self.holders.entry(fh).or_default().insert(client, kind);
                self.last_grant.insert((client, fh), t_ms);
                // A fresh grant is a re-validation: the client's copy is
                // current again and may back PEERREADs.
                self.condemned.remove(&(client, fh));
            }
            E::Regrant { client, fh } => {
                if !self.server_crashed_once {
                    return Err((
                        "regrant-without-crash",
                        format!("regrant to client {client} for fh {fh} before any server crash"),
                    ));
                }
                self.holders.entry(fh).or_default().insert(client, TraceKind::Read);
                self.last_grant.insert((client, fh), t_ms);
                self.condemned.remove(&(client, fh));
            }
            E::RecallSent { client, fh, .. } => {
                self.recall_sent_ever.insert((client, fh));
                self.done_credit.entry((client, fh)).or_default().0 += 1;
            }
            E::RecallShort { client, fh } | E::RecallFail { client, fh } => {
                self.done_credit.entry((client, fh)).or_default().1 += 1;
            }
            E::RecallRecv { client, fh, .. } => {
                if !self.recall_sent_ever.contains(&(client, fh)) {
                    return Err((
                        "recall-recv-unsent",
                        format!("client {client} received a recall for fh {fh} never sent"),
                    ));
                }
                // The recall condemns this client's cached copy until a
                // later grant proves it re-validated.
                self.condemned.insert((client, fh));
            }
            E::RecallDone { client, fh, ok, .. } => {
                let credit = self.done_credit.entry((client, fh)).or_default();
                if ok {
                    if credit.0 == 0 {
                        return Err((
                            "recall-done-unsent",
                            format!(
                                "answered recall_done for client {client} fh {fh} with no \
                                 outstanding recall_sent"
                            ),
                        ));
                    }
                    credit.0 -= 1;
                } else if credit.1 > 0 {
                    // An unanswered recall was either never sent (the
                    // breaker short-circuited it, or the send failed:
                    // recall_short/recall_fail) or sent and then timed
                    // out unanswered (recall_sent only).
                    credit.1 -= 1;
                } else if credit.0 > 0 {
                    credit.0 -= 1;
                } else {
                    return Err((
                        "recall-done-unfailed",
                        format!(
                            "unanswered recall_done for client {client} fh {fh} with no prior \
                             recall_sent/recall_short/recall_fail"
                        ),
                    ));
                }
                if let Some(held) = self.holders.get_mut(&fh) {
                    held.remove(&client);
                }
            }
            E::LeaseRevoke { client, fh } => {
                // The trace's last grant is at or before the holder's
                // last access, so measuring from it is conservative; the
                // trace cannot see whether renewals were blocked.
                let granted = self.last_grant.get(&(client, fh)).copied();
                spec::lease_revocation(granted, t_ms, self.lease_ms, false).map_err(|rule| {
                    let lease = self.lease_ms;
                    (
                        rule,
                        format!(
                            "client {client} fh {fh} granted at {granted:?}ms, lease {lease}ms"
                        ),
                    )
                })?;
                if let Some(held) = self.holders.get_mut(&fh) {
                    held.remove(&client);
                }
            }
            E::Degrade { client } => {
                let ladder = &mut self.client(client).ladder;
                ladder.degrade().map_err(|rule| (rule, format!("client {client}")))?;
            }
            E::DegradedServe { client, fh } => {
                // Bounded staleness: the serve must sit within
                // max_staleness (plus slack) of the client's freshest
                // proof; with no bound configured or no proof seen, the
                // trace cannot show staleness.
                let grant_t = self.last_grant.get(&(client, fh)).copied();
                let state = self.clients.entry(client).or_default();
                let age = (self.max_staleness_ms > 0)
                    .then(|| state.last_validate_t.max(grant_t).map(|f| t_ms.saturating_sub(f)))
                    .flatten();
                let bound = self.max_staleness_ms + STALENESS_SLACK_MS;
                state.ladder.serve(age, bound).map_err(|rule| {
                    (rule, format!("client {client} fh {fh} at age {age:?}ms (bound {bound}ms)"))
                })?;
            }
            E::Validate { client, force, ts, .. } => {
                let state = self.client(client);
                if !spec::getinv_clock_monotone(state.last_ts, ts, force) {
                    return Err((
                        "invalidation-clock-regressed",
                        format!(
                            "client {client} GETINV timestamp went {:?} -> {ts}",
                            state.last_ts
                        ),
                    ));
                }
                state.last_ts = Some(ts);
                state.last_validate_t = Some(t_ms);
                state.ladder.drain();
            }
            E::Repromote { client, .. } => {
                // The trace cannot see the owed set; a drained ladder is
                // the observable half of the rule.
                let ladder = &mut self.client(client).ladder;
                ladder.repromote(true).map_err(|rule| (rule, format!("client {client}")))?;
            }
            E::ServerCrash => {
                self.server_crashed_once = true;
                // The table is wiped; every outstanding delegation dies.
                self.holders.clear();
                // GETINV clocks restart from zero after recovery.
                for state in self.clients.values_mut() {
                    state.last_ts = None;
                }
                // Post-crash the trace can no longer prove a copy stale
                // (the condemning writes may have been lost); err
                // conservative and accept.
                self.condemned.clear();
            }
            E::ServerRecover { .. } => {
                if !self.server_crashed_once {
                    return Err((
                        "recover-without-crash",
                        "server_recover with no preceding server_crash".to_string(),
                    ));
                }
            }
            // The crashed client loses its cache, but the resync flag
            // behind the ladder survives (it is repromote that clears
            // it), and the server-side table keeps its entries until
            // recall or lease expiry — so neither the ladder nor the
            // holders map changes here. An origin fallback is always a
            // legal move.
            E::ClientCrash { .. } | E::PeerFallback { .. } => {}
            E::PeerServe { client, fh, .. } => {
                // Recorded before the verdict: even a condemned serve
                // structurally backs the requester's peer_fetch, which
                // should not be convicted a second time for it.
                self.served_ever.insert((client, fh));
                if self.condemned.contains(&(client, fh)) {
                    return Err((
                        "peer-serve-condemned",
                        format!(
                            "client {client} served fh {fh} to a peer after a recall condemned \
                             its copy and before any re-validating grant"
                        ),
                    ));
                }
            }
            E::PeerFetch { client, peer, fh, ok } => {
                if ok && !self.served_ever.contains(&(peer, fh)) {
                    return Err((
                        "peer-fetch-unserved",
                        format!(
                            "client {client} verified a peer transfer of fh {fh} from peer \
                             {peer}, which never served that handle"
                        ),
                    ));
                }
            }
            E::IntegrityFault { client, fh, served, .. } => {
                self.quarantined_ever.insert((client, fh));
                // The integrity cardinal sin: the store detected the
                // corruption and handed the bytes to the reader anyway.
                // A conforming store quarantines instead (served=0).
                if served {
                    return Err((
                        "corrupt-served",
                        format!(
                            "client {client} served fh {fh} after its checksum failed \
                             verification"
                        ),
                    ));
                }
            }
            E::ScrubRepair { client, fh } => {
                if !self.quarantined_ever.contains(&(client, fh)) {
                    return Err((
                        "scrub-repair-unfaulted",
                        format!(
                            "client {client} scrub-repaired fh {fh} with no prior quarantine \
                             on that handle"
                        ),
                    ));
                }
            }
            E::Meta { .. } => {
                return Err(("duplicate-meta", "second meta record".to_string()));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Replays one JSONL trace string against the conformance machine.
pub fn replay_str(path: &Path, text: &str) -> ReplayReport {
    let mut rejections = Vec::new();
    let mut events = 0usize;
    let mut checker: Option<Checker> = None;
    let mut prev_seq: Option<u64> = None;
    let mut prev_t: u64 = 0;

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let (seq, t_ms, parsed) = match TraceRecord::from_json_line(line) {
            Ok(record) => (record.seq, record.t_ms, Ok(record.ev)),
            Err(TraceLineError::Malformed(detail)) => {
                let rule = "malformed-line";
                rejections.push(Rejection { line: lineno, seq: 0, t_ms: 0, rule, detail });
                continue;
            }
            Err(TraceLineError::UnknownEvent { seq, t_ms, ev }) => {
                let detail = format!("unknown discriminator {ev:?}");
                (seq, t_ms, Err((ev, "unknown-event", detail)))
            }
            Err(TraceLineError::BadField { seq, t_ms, ev, detail }) => {
                (seq, t_ms, Err((ev, "malformed-event", detail)))
            }
        };
        events += 1;
        let reject = |rule: &'static str, detail: String| Rejection {
            line: lineno,
            seq,
            t_ms,
            rule,
            detail,
        };
        if let Some(p) = prev_seq {
            if seq <= p {
                rejections.push(reject("seq-not-increasing", format!("seq {seq} after {p}")));
            }
        }
        if t_ms < prev_t {
            rejections.push(reject("time-regressed", format!("t_ms {t_ms} after {prev_t}")));
        }
        prev_seq = Some(seq);
        prev_t = prev_t.max(t_ms);

        let verdict = match (parsed, &mut checker) {
            (Ok(ProtocolEvent::Meta { lease_ms, max_staleness_ms, .. }), None) => {
                checker = Some(Checker::new(lease_ms, max_staleness_ms));
                Ok(())
            }
            // A meta with a bad field leaves the config unset, so a
            // later well-formed meta still installs it.
            (Err((ev, rule, detail)), None) if ev == "meta" => Err((rule, detail)),
            (parsed, None) => {
                let ev = parsed.map_or_else(|(ev, ..)| ev, |ev| ev.name().into());
                // Synthesize a permissive config so later structural
                // checks still run instead of cascading.
                checker = Some(Checker::new(0, 0));
                Err(("missing-meta", format!("first record is {ev:?}, expected meta")))
            }
            (Err((_, rule, detail)), Some(_)) => Err((rule, detail)),
            (Ok(ev), Some(c)) => c.step(t_ms, &ev),
        };
        if let Err((rule, detail)) = verdict {
            rejections.push(reject(rule, detail));
        }
    }
    ReplayReport { path: path.to_path_buf(), events, rejections }
}

/// Replays one trace file from disk.
pub fn replay_file(path: &Path) -> std::io::Result<ReplayReport> {
    let text = std::fs::read_to_string(path)?;
    Ok(replay_str(path, &text))
}

/// Replays a file, or every `*.jsonl` under a directory (sorted for
/// deterministic output).
pub fn replay_path(path: &Path) -> std::io::Result<Vec<ReplayReport>> {
    if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        files.sort();
        files.iter().map(|f| replay_file(f)).collect()
    } else {
        Ok(vec![replay_file(path)?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const META: &str = r#"{"seq":0,"t_ms":0,"ev":"meta","lease_ms":30000,"degrade_after_ms":2000,"max_staleness_ms":30000,"clients":2}"#;

    fn replay(lines: &[&str]) -> ReplayReport {
        let text = lines.join("\n");
        replay_str(Path::new("<test>"), &text)
    }

    #[test]
    fn accepts_grant_recall_cycle() {
        let r = replay(&[
            META,
            r#"{"seq":1,"t_ms":100,"ev":"grant","client":1,"fh":7,"kind":"write"}"#,
            r#"{"seq":2,"t_ms":200,"ev":"recall_sent","client":1,"fh":7,"kind":"write"}"#,
            r#"{"seq":3,"t_ms":210,"ev":"recall_recv","client":1,"fh":7,"kind":"write"}"#,
            r#"{"seq":4,"t_ms":250,"ev":"recall_done","client":1,"fh":7,"ok":1,"pending":0}"#,
            r#"{"seq":5,"t_ms":260,"ev":"grant","client":2,"fh":7,"kind":"write"}"#,
        ]);
        assert!(r.accepted(), "{:?}", r.rejections);
        assert_eq!(r.events, 6);
    }

    #[test]
    fn rejects_conflicting_write_grants() {
        let r = replay(&[
            META,
            r#"{"seq":1,"t_ms":100,"ev":"grant","client":1,"fh":7,"kind":"write"}"#,
            r#"{"seq":2,"t_ms":150,"ev":"grant","client":2,"fh":7,"kind":"write"}"#,
        ]);
        assert_eq!(r.rejections.len(), 1);
        assert_eq!(r.rejections[0].rule, "grant-exclusivity");
    }

    #[test]
    fn rejects_early_lease_revoke() {
        let r = replay(&[
            META,
            r#"{"seq":1,"t_ms":1000,"ev":"grant","client":1,"fh":3,"kind":"write"}"#,
            r#"{"seq":2,"t_ms":5000,"ev":"lease_revoke","client":1,"fh":3}"#,
        ]);
        assert_eq!(r.rejections.len(), 1);
        assert_eq!(r.rejections[0].rule, "lease-revoke-early");
    }

    #[test]
    fn accepts_expired_lease_revoke() {
        let r = replay(&[
            META,
            r#"{"seq":1,"t_ms":1000,"ev":"grant","client":1,"fh":3,"kind":"write"}"#,
            r#"{"seq":2,"t_ms":40000,"ev":"lease_revoke","client":1,"fh":3}"#,
        ]);
        assert!(r.accepted(), "{:?}", r.rejections);
    }

    #[test]
    fn rejects_repromote_without_drain() {
        let r = replay(&[
            META,
            r#"{"seq":1,"t_ms":100,"ev":"degrade","client":1}"#,
            r#"{"seq":2,"t_ms":200,"ev":"repromote","client":1,"discarded":0}"#,
        ]);
        assert_eq!(r.rejections.len(), 1);
        assert_eq!(r.rejections[0].rule, "repromote-undrained");
    }

    #[test]
    fn accepts_drained_repromote() {
        let r = replay(&[
            META,
            r#"{"seq":1,"t_ms":100,"ev":"degrade","client":1}"#,
            r#"{"seq":2,"t_ms":200,"ev":"validate","client":1,"force":1,"n":0,"ts":0}"#,
            r#"{"seq":3,"t_ms":250,"ev":"repromote","client":1,"discarded":0}"#,
        ]);
        assert!(r.accepted(), "{:?}", r.rejections);
    }

    #[test]
    fn rejects_degraded_serve_while_healthy() {
        let r = replay(&[META, r#"{"seq":1,"t_ms":100,"ev":"degraded_serve","client":1,"fh":2}"#]);
        assert_eq!(r.rejections.len(), 1);
        assert_eq!(r.rejections[0].rule, "degraded-serve-healthy");
    }

    #[test]
    fn rejects_stale_degraded_serve() {
        let r = replay(&[
            META,
            r#"{"seq":1,"t_ms":1000,"ev":"grant","client":1,"fh":2,"kind":"read"}"#,
            r#"{"seq":2,"t_ms":2000,"ev":"degrade","client":1}"#,
            r#"{"seq":3,"t_ms":90000,"ev":"degraded_serve","client":1,"fh":2}"#,
        ]);
        assert_eq!(r.rejections.len(), 1);
        assert_eq!(r.rejections[0].rule, "staleness-bound");
    }

    #[test]
    fn rejects_recall_done_without_sent() {
        let r = replay(&[
            META,
            r#"{"seq":1,"t_ms":100,"ev":"recall_done","client":1,"fh":7,"ok":1,"pending":0}"#,
        ]);
        assert_eq!(r.rejections.len(), 1);
        assert_eq!(r.rejections[0].rule, "recall-done-unsent");
    }

    #[test]
    fn unanswered_recall_done_needs_failure_evidence() {
        let bad = replay(&[
            META,
            r#"{"seq":1,"t_ms":100,"ev":"recall_done","client":1,"fh":7,"ok":0,"pending":0}"#,
        ]);
        assert_eq!(bad.rejections[0].rule, "recall-done-unfailed");
        let good = replay(&[
            META,
            r#"{"seq":1,"t_ms":100,"ev":"recall_fail","client":1,"fh":7}"#,
            r#"{"seq":2,"t_ms":150,"ev":"recall_done","client":1,"fh":7,"ok":0,"pending":0}"#,
        ]);
        assert!(good.accepted(), "{:?}", good.rejections);
    }

    #[test]
    fn rejects_clock_regression_and_missing_meta() {
        let r = replay(&[
            META,
            r#"{"seq":1,"t_ms":100,"ev":"validate","client":1,"force":0,"n":1,"ts":5}"#,
            r#"{"seq":2,"t_ms":200,"ev":"validate","client":1,"force":0,"n":0,"ts":3}"#,
        ]);
        assert_eq!(r.rejections[0].rule, "invalidation-clock-regressed");

        let r = replay(&[r#"{"seq":1,"t_ms":100,"ev":"degrade","client":1}"#]);
        assert_eq!(r.rejections[0].rule, "missing-meta");
    }

    #[test]
    fn server_crash_resets_clock_and_holders() {
        let r = replay(&[
            META,
            r#"{"seq":1,"t_ms":100,"ev":"grant","client":1,"fh":7,"kind":"write"}"#,
            r#"{"seq":2,"t_ms":200,"ev":"validate","client":1,"force":0,"n":1,"ts":9}"#,
            r#"{"seq":3,"t_ms":300,"ev":"server_crash"}"#,
            r#"{"seq":4,"t_ms":400,"ev":"server_recover","answered":1}"#,
            r#"{"seq":5,"t_ms":500,"ev":"regrant","client":1,"fh":7}"#,
            r#"{"seq":6,"t_ms":600,"ev":"validate","client":1,"force":0,"n":0,"ts":0}"#,
            r#"{"seq":7,"t_ms":700,"ev":"grant","client":2,"fh":9,"kind":"write"}"#,
        ]);
        assert!(r.accepted(), "{:?}", r.rejections);
    }

    #[test]
    fn accepts_revalidated_peer_serve() {
        let r = replay(&[
            META,
            r#"{"seq":1,"t_ms":100,"ev":"grant","client":1,"fh":7,"kind":"read"}"#,
            r#"{"seq":2,"t_ms":200,"ev":"peer_serve","client":1,"fh":7,"bytes":32768}"#,
            r#"{"seq":3,"t_ms":300,"ev":"recall_sent","client":1,"fh":7,"kind":"read"}"#,
            r#"{"seq":4,"t_ms":310,"ev":"recall_recv","client":1,"fh":7,"kind":"read"}"#,
            r#"{"seq":5,"t_ms":350,"ev":"recall_done","client":1,"fh":7,"ok":1,"pending":0}"#,
            r#"{"seq":6,"t_ms":400,"ev":"grant","client":1,"fh":7,"kind":"read"}"#,
            r#"{"seq":7,"t_ms":500,"ev":"peer_serve","client":1,"fh":7,"bytes":32768}"#,
            r#"{"seq":8,"t_ms":510,"ev":"peer_fetch","client":2,"peer":1,"fh":7,"ok":1}"#,
        ]);
        assert!(r.accepted(), "{:?}", r.rejections);
    }

    #[test]
    fn rejects_condemned_peer_serve() {
        let r = replay(&[
            META,
            r#"{"seq":1,"t_ms":100,"ev":"grant","client":1,"fh":7,"kind":"read"}"#,
            r#"{"seq":2,"t_ms":300,"ev":"recall_sent","client":1,"fh":7,"kind":"read"}"#,
            r#"{"seq":3,"t_ms":310,"ev":"recall_recv","client":1,"fh":7,"kind":"read"}"#,
            r#"{"seq":4,"t_ms":350,"ev":"recall_done","client":1,"fh":7,"ok":1,"pending":0}"#,
            r#"{"seq":5,"t_ms":500,"ev":"peer_serve","client":1,"fh":7,"bytes":32768}"#,
        ]);
        assert_eq!(r.rejections.len(), 1);
        assert_eq!(r.rejections[0].rule, "peer-serve-condemned");
    }

    #[test]
    fn rejects_verified_fetch_without_serve() {
        let r = replay(&[
            META,
            r#"{"seq":1,"t_ms":100,"ev":"peer_fetch","client":2,"peer":1,"fh":7,"ok":1}"#,
        ]);
        assert_eq!(r.rejections.len(), 1);
        assert_eq!(r.rejections[0].rule, "peer-fetch-unserved");
        // An unverified fetch (miss or garbled) needs no serve behind it.
        let r = replay(&[
            META,
            r#"{"seq":1,"t_ms":100,"ev":"peer_fetch","client":2,"peer":1,"fh":7,"ok":0}"#,
            r#"{"seq":2,"t_ms":150,"ev":"peer_fallback","client":2,"fh":7}"#,
        ]);
        assert!(r.accepted(), "{:?}", r.rejections);
    }

    #[test]
    fn convicts_served_corruption_and_accepts_quarantine() {
        // Quarantine → scrub repair is the conforming path.
        let good = replay(&[
            META,
            r#"{"seq":1,"t_ms":100,"ev":"integrity_fault","client":1,"fh":7,"dirty":0,"served":0}"#,
            r#"{"seq":2,"t_ms":200,"ev":"scrub_repair","client":1,"fh":7}"#,
        ]);
        assert!(good.accepted(), "{:?}", good.rejections);
        // Detect-but-serve (the --break-scrub knob) is the violation.
        let bad = replay(&[
            META,
            r#"{"seq":1,"t_ms":100,"ev":"integrity_fault","client":1,"fh":7,"dirty":0,"served":1}"#,
        ]);
        assert_eq!(bad.rejections.len(), 1);
        assert_eq!(bad.rejections[0].rule, "corrupt-served");
        // A repair with no quarantine behind it is structural nonsense.
        let orphan =
            replay(&[META, r#"{"seq":1,"t_ms":100,"ev":"scrub_repair","client":1,"fh":7}"#]);
        assert_eq!(orphan.rejections[0].rule, "scrub-repair-unfaulted");
    }

    #[test]
    fn rejects_seq_regression_and_malformed_lines() {
        let r = replay(&[
            META,
            r#"{"seq":5,"t_ms":100,"ev":"degrade","client":1}"#,
            r#"{"seq":4,"t_ms":150,"ev":"validate","client":1,"force":0,"n":0,"ts":0}"#,
            "not json at all",
        ]);
        let rules: Vec<_> = r.rejections.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"seq-not-increasing"), "{rules:?}");
        assert!(rules.contains(&"malformed-line"), "{rules:?}");
    }

    #[test]
    fn malformed_lines_keep_their_rule_names() {
        let r = replay(&[
            META,
            "not json at all",
            r#"{"t_ms":100,"ev":"degrade","client":1}"#,
            r#"{"seq":1,"t_ms":100,"ev":"teleport","client":1}"#,
            r#"{"seq":2,"t_ms":100,"ev":"degrade"}"#,
            r#"{"seq":3,"t_ms":100,"ev":"grant","client":1,"fh":7,"kind":"exclusive"}"#,
            r#"{"seq":4,"t_ms":100,"ev":"degrade","client":4294967296}"#,
            META.replace(r#""seq":0,"t_ms":0"#, r#""seq":5,"t_ms":200"#).as_str(),
        ]);
        let rules: Vec<_> = r.rejections.iter().map(|x| x.rule).collect();
        assert_eq!(
            rules,
            [
                "malformed-line",
                "malformed-line",
                "unknown-event",
                "malformed-event",
                "malformed-event",
                "malformed-event",
                "duplicate-meta"
            ]
        );
    }

    #[test]
    fn unparseable_first_record_still_checks_what_follows() {
        let r = replay(&[
            r#"{"seq":0,"t_ms":0,"ev":"teleport"}"#,
            r#"{"seq":1,"t_ms":100,"ev":"grant","client":1,"fh":7,"kind":"write"}"#,
            r#"{"seq":2,"t_ms":150,"ev":"grant","client":2,"fh":7,"kind":"write"}"#,
        ]);
        let rules: Vec<_> = r.rejections.iter().map(|x| x.rule).collect();
        assert_eq!(rules, ["missing-meta", "grant-exclusivity"]);

        let bad_meta = META.replace(r#""lease_ms":30000,"#, "");
        let r = replay(&[bad_meta.as_str(), META.replace(r#""seq":0"#, r#""seq":1"#).as_str()]);
        let rules: Vec<_> = r.rejections.iter().map(|x| x.rule).collect();
        assert_eq!(rules, ["malformed-event"]);
    }
}
