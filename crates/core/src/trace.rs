//! Protocol-event tracing for spec-conformance replay.
//!
//! The proxies can record every externally meaningful protocol
//! transition — delegation grants, recall rounds, in-table lease
//! revocations, GETINV validations, and the degradation ladder's
//! degrade/repromote steps — into a [`TraceBuffer`] shared across the
//! session. `gvfs-analysis -- replay` then asserts the recorded run is
//! an accepted path of the composed product model, turning every netsim
//! and chaos run into a spec-conformance run (TLA+-style trace
//! validation).
//!
//! Every build compiles the emission sites. A proxy records only once
//! the session installs a buffer (`Session::install_trace`); until then
//! each site costs one empty `OnceLock` check.
//!
//! # Trace schema (JSONL)
//!
//! One flat JSON object per line, `seq`-ordered, `t_ms` in virtual
//! milliseconds. The first line is always the `meta` record carrying
//! the session parameters the replay checker needs:
//!
//! ```text
//! {"seq":0,"t_ms":0,"ev":"meta","lease_ms":30000,"degrade_after_ms":2000,"max_staleness_ms":30000,"clients":3}
//! {"seq":1,"t_ms":4103,"ev":"grant","client":1,"fh":5,"kind":"write"}
//! {"seq":2,"t_ms":40210,"ev":"recall_short","client":1,"fh":5}
//! {"seq":3,"t_ms":40210,"ev":"recall_done","client":1,"fh":5,"ok":0,"pending":0}
//! ```

use gvfs_netsim::SimTime;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which delegation a grant or recall concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A read delegation.
    Read,
    /// A write delegation.
    Write,
    /// No delegation: the file is served non-cacheable.
    NonCacheable,
}

impl TraceKind {
    fn name(self) -> &'static str {
        match self {
            TraceKind::Read => "read",
            TraceKind::Write => "write",
            TraceKind::NonCacheable => "noncacheable",
        }
    }

    /// Parses a kind's `name` (the trace's `kind` field) back.
    pub fn parse(s: &str) -> Option<TraceKind> {
        match s {
            "read" => Some(TraceKind::Read),
            "write" => Some(TraceKind::Write),
            "noncacheable" => Some(TraceKind::NonCacheable),
            _ => None,
        }
    }
}

/// One protocol transition, as recorded by the proxies.
///
/// Server-side events (grants, recalls, revocations) are emitted under
/// the delegation table's lock, so the per-file subsequence is
/// linearized exactly as the table saw it; client-side events are
/// emitted by the client's own actors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// Session parameters; always the first record of a trace.
    Meta { lease_ms: u64, degrade_after_ms: u64, max_staleness_ms: u64, clients: u32 },
    /// The server resolved an access and granted `kind` to `client`.
    Grant { client: u32, fh: u64, kind: TraceKind },
    /// A recall callback went on the wire to `client`.
    RecallSent { client: u32, fh: u64, kind: TraceKind },
    /// A recall was short-circuited: the target's health breaker was
    /// open, so the holder is revoked as unreachable without a timeout.
    RecallShort { client: u32, fh: u64 },
    /// A recall could not be sent (no route, or the link rejected it).
    RecallFail { client: u32, fh: u64 },
    /// A recall round finished for `client`; `ok` is false when no
    /// reply was received and the holder was revoked as unreachable.
    RecallDone { client: u32, fh: u64, ok: bool, pending: u32 },
    /// The server revoked `client`'s delegation in-table because its
    /// renewal lease had lapsed (no recall round trip).
    LeaseRevoke { client: u32, fh: u64 },
    /// Post-restart recovery re-entered a write delegation reported in
    /// `client`'s dirty-file list.
    Regrant { client: u32, fh: u64 },
    /// The proxy server crashed (volatile state lost).
    ServerCrash,
    /// The restarted server finished its `RECOVER` multicast round.
    ServerRecover { answered: u32 },
    /// Proxy client `client` restarted and ran crash recovery.
    ClientCrash { client: u32 },
    /// A recall callback arrived at `client`.
    RecallRecv { client: u32, fh: u64, kind: TraceKind },
    /// `client` completed one GETINV exchange: `n` invalidations
    /// applied, `force` when the server demanded a cache-wide
    /// invalidation, `ts` the server timestamp acknowledged.
    Validate { client: u32, force: bool, n: u32, ts: u64 },
    /// `client`'s WAN breaker degraded its delegation session: the
    /// resync flag is raised and the ladder may start serving
    /// bounded-staleness reads.
    Degrade { client: u32 },
    /// `client` answered a read or getattr from cache under the
    /// bounded-staleness rung while its breaker was open.
    DegradedServe { client: u32, fh: u64 },
    /// `client` re-promoted after a heal: invalidations drained, stale
    /// delegations dropped, `discarded` dirty files thrown away as
    /// unreconcilable.
    Repromote { client: u32, discarded: u32 },
    /// `client` answered a `PEERREAD` from its clean cache (`bytes`
    /// served to the requesting peer).
    PeerServe { client: u32, fh: u64, bytes: u32 },
    /// `client` completed a peer-sourced block fetch from `peer`; `ok`
    /// is false when the peer missed or the block failed verification.
    PeerFetch { client: u32, peer: u32, fh: u64, ok: bool },
    /// `client` fell back to the origin for a block no live peer could
    /// serve (miss, breaker-open, timeout, or verification failure).
    PeerFallback { client: u32, fh: u64 },
    /// `client`'s store failed a checksum verification on `fh`: `dirty`
    /// when the quarantined bytes were unflushed local writes (explicit
    /// data loss), `served` when verification was disabled and the
    /// corrupt bytes went to the reader anyway (the `--break-scrub`
    /// knob; the replay oracle must convict such a trace).
    IntegrityFault { client: u32, fh: u64, dirty: bool, served: bool },
    /// `client`'s scrub actor re-fetched a clean extent it had
    /// quarantined, healing the rot before any reader missed on it.
    ScrubRepair { client: u32, fh: u64 },
}

impl ProtocolEvent {
    /// The record's `ev` discriminator string.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolEvent::Meta { .. } => "meta",
            ProtocolEvent::Grant { .. } => "grant",
            ProtocolEvent::RecallSent { .. } => "recall_sent",
            ProtocolEvent::RecallShort { .. } => "recall_short",
            ProtocolEvent::RecallFail { .. } => "recall_fail",
            ProtocolEvent::RecallDone { .. } => "recall_done",
            ProtocolEvent::LeaseRevoke { .. } => "lease_revoke",
            ProtocolEvent::Regrant { .. } => "regrant",
            ProtocolEvent::ServerCrash => "server_crash",
            ProtocolEvent::ServerRecover { .. } => "server_recover",
            ProtocolEvent::ClientCrash { .. } => "client_crash",
            ProtocolEvent::RecallRecv { .. } => "recall_recv",
            ProtocolEvent::Validate { .. } => "validate",
            ProtocolEvent::Degrade { .. } => "degrade",
            ProtocolEvent::DegradedServe { .. } => "degraded_serve",
            ProtocolEvent::Repromote { .. } => "repromote",
            ProtocolEvent::PeerServe { .. } => "peer_serve",
            ProtocolEvent::PeerFetch { .. } => "peer_fetch",
            ProtocolEvent::PeerFallback { .. } => "peer_fallback",
            ProtocolEvent::IntegrityFault { .. } => "integrity_fault",
            ProtocolEvent::ScrubRepair { .. } => "scrub_repair",
        }
    }
}

/// One timestamped, sequence-numbered record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global emission order (atomic counter).
    pub seq: u64,
    /// Virtual time of emission, in milliseconds.
    pub t_ms: u64,
    /// The transition.
    pub ev: ProtocolEvent,
}

impl TraceRecord {
    /// Serializes the record as one flat JSON object, the trace-line
    /// schema [`TraceRecord::from_json_line`] reads back.
    pub fn to_json_line(&self) -> String {
        let mut s =
            format!(r#"{{"seq":{},"t_ms":{},"ev":"{}""#, self.seq, self.t_ms, self.ev.name());
        match &self.ev {
            ProtocolEvent::Meta { lease_ms, degrade_after_ms, max_staleness_ms, clients } => {
                s.push_str(&format!(
                    r#","lease_ms":{lease_ms},"degrade_after_ms":{degrade_after_ms},"max_staleness_ms":{max_staleness_ms},"clients":{clients}"#
                ));
            }
            ProtocolEvent::Grant { client, fh, kind }
            | ProtocolEvent::RecallSent { client, fh, kind }
            | ProtocolEvent::RecallRecv { client, fh, kind } => {
                s.push_str(&format!(r#","client":{client},"fh":{fh},"kind":"{}""#, kind.name()));
            }
            ProtocolEvent::RecallShort { client, fh }
            | ProtocolEvent::RecallFail { client, fh }
            | ProtocolEvent::LeaseRevoke { client, fh }
            | ProtocolEvent::Regrant { client, fh }
            | ProtocolEvent::DegradedServe { client, fh } => {
                s.push_str(&format!(r#","client":{client},"fh":{fh}"#));
            }
            ProtocolEvent::RecallDone { client, fh, ok, pending } => {
                s.push_str(&format!(
                    r#","client":{client},"fh":{fh},"ok":{},"pending":{pending}"#,
                    u32::from(*ok)
                ));
            }
            ProtocolEvent::ServerCrash => {}
            ProtocolEvent::ServerRecover { answered } => {
                s.push_str(&format!(r#","answered":{answered}"#));
            }
            ProtocolEvent::ClientCrash { client } | ProtocolEvent::Degrade { client } => {
                s.push_str(&format!(r#","client":{client}"#));
            }
            ProtocolEvent::Validate { client, force, n, ts } => {
                s.push_str(&format!(
                    r#","client":{client},"force":{},"n":{n},"ts":{ts}"#,
                    u32::from(*force)
                ));
            }
            ProtocolEvent::Repromote { client, discarded } => {
                s.push_str(&format!(r#","client":{client},"discarded":{discarded}"#));
            }
            ProtocolEvent::PeerServe { client, fh, bytes } => {
                s.push_str(&format!(r#","client":{client},"fh":{fh},"bytes":{bytes}"#));
            }
            ProtocolEvent::PeerFetch { client, peer, fh, ok } => {
                s.push_str(&format!(
                    r#","client":{client},"peer":{peer},"fh":{fh},"ok":{}"#,
                    u32::from(*ok)
                ));
            }
            ProtocolEvent::PeerFallback { client, fh }
            | ProtocolEvent::ScrubRepair { client, fh } => {
                s.push_str(&format!(r#","client":{client},"fh":{fh}"#));
            }
            ProtocolEvent::IntegrityFault { client, fh, dirty, served } => {
                s.push_str(&format!(
                    r#","client":{client},"fh":{fh},"dirty":{},"served":{}"#,
                    u32::from(*dirty),
                    u32::from(*served)
                ));
            }
        }
        s.push('}');
        s
    }

    /// Parses one line written by [`TraceRecord::to_json_line`] back.
    /// Fields beyond the ones the event carries are ignored.
    pub fn from_json_line(line: &str) -> Result<TraceRecord, TraceLineError> {
        let fields = flat_fields(line).map_err(TraceLineError::Malformed)?;
        let get = |key: &str| fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
        let header = |key: &str| match get(key) {
            Some(Flat::Num(n)) => Ok(n),
            _ => Err(TraceLineError::Malformed(format!("missing {key}"))),
        };
        let (seq, t_ms) = (header("seq")?, header("t_ms")?);
        let Some(Flat::Str(name)) = get("ev") else {
            return Err(TraceLineError::Malformed("missing ev".into()));
        };
        let bad = |detail: String| TraceLineError::BadField { seq, t_ms, ev: name.into(), detail };
        let num = |key: &str| match get(key) {
            Some(Flat::Num(n)) => Ok(n),
            _ => Err(bad(format!("{name}: missing field {key:?}"))),
        };
        let id = |key: &str| {
            num(key)?.try_into().map_err(|_| bad(format!("{name}: field {key:?} out of range")))
        };
        let flag = |key: &str| num(key).map(|n| n != 0);
        let kind = || match get("kind") {
            Some(Flat::Str(s)) => {
                TraceKind::parse(s).ok_or_else(|| bad(format!("{name}: unknown kind {s:?}")))
            }
            _ => Err(bad(format!("{name}: missing field \"kind\""))),
        };
        use ProtocolEvent as E;
        let ev = match name {
            "meta" => E::Meta {
                lease_ms: num("lease_ms")?,
                degrade_after_ms: num("degrade_after_ms")?,
                max_staleness_ms: num("max_staleness_ms")?,
                clients: id("clients")?,
            },
            "grant" => E::Grant { client: id("client")?, fh: num("fh")?, kind: kind()? },
            "recall_sent" => E::RecallSent { client: id("client")?, fh: num("fh")?, kind: kind()? },
            "recall_recv" => E::RecallRecv { client: id("client")?, fh: num("fh")?, kind: kind()? },
            "recall_short" => E::RecallShort { client: id("client")?, fh: num("fh")? },
            "recall_fail" => E::RecallFail { client: id("client")?, fh: num("fh")? },
            "recall_done" => E::RecallDone {
                client: id("client")?,
                fh: num("fh")?,
                ok: flag("ok")?,
                pending: id("pending")?,
            },
            "lease_revoke" => E::LeaseRevoke { client: id("client")?, fh: num("fh")? },
            "regrant" => E::Regrant { client: id("client")?, fh: num("fh")? },
            "server_crash" => E::ServerCrash,
            "server_recover" => E::ServerRecover { answered: id("answered")? },
            "client_crash" => E::ClientCrash { client: id("client")? },
            "validate" => E::Validate {
                client: id("client")?,
                force: flag("force")?,
                n: id("n")?,
                ts: num("ts")?,
            },
            "degrade" => E::Degrade { client: id("client")? },
            "degraded_serve" => E::DegradedServe { client: id("client")?, fh: num("fh")? },
            "repromote" => E::Repromote { client: id("client")?, discarded: id("discarded")? },
            "peer_serve" => {
                E::PeerServe { client: id("client")?, fh: num("fh")?, bytes: id("bytes")? }
            }
            "peer_fetch" => E::PeerFetch {
                client: id("client")?,
                peer: id("peer")?,
                fh: num("fh")?,
                ok: flag("ok")?,
            },
            "peer_fallback" => E::PeerFallback { client: id("client")?, fh: num("fh")? },
            "integrity_fault" => E::IntegrityFault {
                client: id("client")?,
                fh: num("fh")?,
                dirty: flag("dirty")?,
                served: flag("served")?,
            },
            "scrub_repair" => E::ScrubRepair { client: id("client")?, fh: num("fh")? },
            other => return Err(TraceLineError::UnknownEvent { seq, t_ms, ev: other.into() }),
        };
        Ok(TraceRecord { seq, t_ms, ev })
    }
}

/// Why a line is not a [`TraceRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceLineError {
    /// Not a flat JSON object carrying `seq`, `t_ms` and `ev`.
    Malformed(String),
    /// A record whose `ev` names no [`ProtocolEvent`].
    UnknownEvent { seq: u64, t_ms: u64, ev: String },
    /// A known `ev` with a field missing or out of range, or an unknown
    /// `kind`.
    BadField { seq: u64, t_ms: u64, ev: String, detail: String },
}

/// One value of a flat trace line: the writer emits only unsigned
/// integers and plain strings.
#[derive(Clone, Copy)]
enum Flat<'a> {
    Num(u64),
    Str(&'a str),
}

/// Splits one `{"k":v,...}` line into its fields. The writer never
/// produces nesting, escapes, floats or negative numbers, so none are
/// accepted.
fn flat_fields(line: &str) -> Result<Vec<(&str, Flat<'_>)>, String> {
    let mut rest = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let mut fields = Vec::new();
    while !rest.is_empty() {
        let (key, tail) = rest
            .strip_prefix('"')
            .and_then(|s| s.split_once('"'))
            .ok_or_else(|| format!("expected a quoted key at {rest:?}"))?;
        let value = tail.strip_prefix(':').ok_or_else(|| format!("expected ':' after {key:?}"))?;
        let (flat, tail) = match value.strip_prefix('"') {
            Some(s) => {
                let (s, tail) = s.split_once('"').ok_or("unterminated string value")?;
                (Flat::Str(s), tail)
            }
            None => {
                let end = value.find(|c: char| !c.is_ascii_digit()).unwrap_or(value.len());
                let n = value[..end].parse().map_err(|e| format!("bad number for {key:?}: {e}"))?;
                (Flat::Num(n), &value[end..])
            }
        };
        fields.push((key, flat));
        rest = match tail.strip_prefix(',') {
            Some(next) => next,
            None if tail.is_empty() => tail,
            None => return Err(format!("expected ',' after {key:?}")),
        };
    }
    Ok(fields)
}

/// A shared, append-only buffer of protocol events for one session.
///
/// Cheap enough to record under the delegation table's lock: one mutex
/// push. The session installs one buffer into the proxy server and
/// every proxy client, so `seq` is a session-global order.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    seq: AtomicU64,
    tracebuf: Mutex<Vec<TraceRecord>>,
}

impl TraceBuffer {
    /// Creates an empty shared buffer.
    pub fn new() -> Arc<TraceBuffer> {
        Arc::new(TraceBuffer::default())
    }

    /// Appends `ev` stamped with the current virtual time. Must be
    /// called from a simulation actor; use [`TraceBuffer::record_at`]
    /// outside one (e.g. the pre-run `meta` record).
    pub fn record(&self, ev: ProtocolEvent) {
        let t_ms = gvfs_netsim::now().saturating_since(SimTime::ZERO).as_millis() as u64;
        self.record_at(t_ms, ev);
    }

    /// Appends `ev` with an explicit virtual timestamp.
    pub fn record_at(&self, t_ms: u64, ev: ProtocolEvent) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.tracebuf.lock().push(TraceRecord { seq, t_ms, ev });
    }

    /// All records so far, in emission (`seq`) order.
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out = self.tracebuf.lock().clone();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// The whole trace as JSONL (one record per line, `seq`-ordered).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in self.records() {
            out.push_str(&record.to_json_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_round_trip_fields() {
        use ProtocolEvent as E;
        let events = [
            E::Meta {
                lease_ms: 30_000,
                degrade_after_ms: 2_000,
                max_staleness_ms: 30_000,
                clients: 2,
            },
            E::Grant { client: 1, fh: 7, kind: TraceKind::Write },
            E::RecallSent { client: 1, fh: 7, kind: TraceKind::Read },
            E::RecallShort { client: 2, fh: 7 },
            E::RecallFail { client: 3, fh: 8 },
            E::RecallDone { client: 1, fh: 7, ok: false, pending: 3 },
            E::LeaseRevoke { client: 1, fh: 9 },
            E::Regrant { client: 2, fh: 9 },
            E::ServerCrash,
            E::ServerRecover { answered: 4 },
            E::ClientCrash { client: 2 },
            E::RecallRecv { client: 1, fh: 7, kind: TraceKind::NonCacheable },
            E::Validate { client: 2, force: true, n: 4, ts: 9 },
            E::Degrade { client: 1 },
            E::DegradedServe { client: 1, fh: 5 },
            E::Repromote { client: 1, discarded: 2 },
            E::PeerServe { client: 2, fh: 5, bytes: 32_768 },
            E::PeerFetch { client: 1, peer: 2, fh: 5, ok: true },
            E::PeerFallback { client: 1, fh: 5 },
            E::IntegrityFault { client: 1, fh: 7, dirty: true, served: false },
            E::ScrubRepair { client: 1, fh: 7 },
        ];
        let buf = TraceBuffer::new();
        for (t, ev) in events.iter().enumerate() {
            buf.record_at(t as u64, ev.clone());
        }
        let jsonl = buf.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, record) in lines.iter().zip(buf.records()) {
            assert_eq!(TraceRecord::from_json_line(line), Ok(record), "{line}");
        }
        assert!(lines[0].contains(r#""ev":"meta""#) && lines[0].contains(r#""lease_ms":30000"#));
        assert!(lines[1].contains(r#""kind":"write""#));
        assert!(lines[5].contains(r#""ok":0"#) && lines[5].contains(r#""pending":3"#));
        assert!(lines[12].contains(r#""force":1"#) && lines[12].contains(r#""ts":9"#));
        assert!(lines[19].contains(r#""dirty":1"#) && lines[19].contains(r#""served":0"#));
    }

    #[test]
    fn records_are_seq_ordered() {
        let buf = TraceBuffer::new();
        for i in 0..10u32 {
            buf.record_at(u64::from(i), ProtocolEvent::Degrade { client: i });
        }
        let records = buf.records();
        assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
