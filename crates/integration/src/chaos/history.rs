//! Global run history: tagged file contents, recorded operations, and
//! the deterministic trace hash.
//!
//! Every chaos file holds [`FILE_LEN`] bytes: [`TAG_WORDS`] repetitions
//! of one little-endian `u64` *tag* identifying the write that produced
//! it (`0` = the initial all-zero content). A reader therefore sees
//! either a well-formed tag, the initial state, or a torn mix — and a
//! torn mix is always a violation, because every writer writes the whole
//! file in one NFS WRITE.

use gvfs_netsim::SimTime;
use parking_lot::Mutex;
use std::fmt::Write as _;

/// Length of every chaos file, in bytes.
pub const FILE_LEN: usize = 512;
/// Number of repeated tag words in a file.
pub const TAG_WORDS: usize = FILE_LEN / 8;

/// Encodes `tag` as the full file content.
pub fn encode_tag(tag: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FILE_LEN);
    for _ in 0..TAG_WORDS {
        buf.extend_from_slice(&tag.to_le_bytes());
    }
    buf
}

/// Builds the tag for `client`'s `seq`-th write (1-based). Tag `0` is
/// reserved for the initial content.
pub fn make_tag(client: usize, seq: u64) -> u64 {
    ((client as u64 + 1) << 32) | seq
}

/// What one read observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// The untouched all-zero initial content.
    Initial,
    /// A complete write, identified by its tag.
    Tag(u64),
    /// A mix of writes (or a short read) — always a violation.
    Torn,
}

impl Observation {
    /// Decodes a read buffer into an observation.
    pub fn decode(buf: &[u8]) -> Observation {
        if buf.len() != FILE_LEN {
            return Observation::Torn;
        }
        let first = u64::from_le_bytes(buf[0..8].try_into().expect("8-byte slice"));
        for word in buf.chunks_exact(8) {
            if u64::from_le_bytes(word.try_into().expect("8-byte slice")) != first {
                return Observation::Torn;
            }
        }
        if first == 0 {
            Observation::Initial
        } else {
            Observation::Tag(first)
        }
    }
}

/// One entry in the global run history, stamped with virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A write acknowledged to the application.
    WriteAcked {
        /// Writing client.
        client: usize,
        /// File index.
        file: usize,
        /// The written tag.
        tag: u64,
        /// When the write was issued.
        started: SimTime,
        /// When the acknowledgement returned.
        finished: SimTime,
    },
    /// A write that errored at the application (its proxy was down when
    /// it was issued, so it was never dispatched).
    WriteFailed {
        /// Writing client.
        client: usize,
        /// File index.
        file: usize,
        /// The tag that was being written.
        tag: u64,
        /// When the write was issued.
        started: SimTime,
        /// When the error returned.
        finished: SimTime,
    },
    /// A completed read.
    Read {
        /// Reading client.
        client: usize,
        /// File index.
        file: usize,
        /// What it saw.
        observed: Observation,
        /// When the read was issued.
        started: SimTime,
        /// When the data returned.
        finished: SimTime,
    },
    /// The proxy server crashed (volatile state lost).
    ServerCrashed {
        /// Crash instant.
        at: SimTime,
    },
    /// The proxy server restarted and ran its recovery round.
    ServerRestarted {
        /// Restart instant (after recovery completed).
        at: SimTime,
        /// Clients that answered the `RECOVER` multicast.
        answered: usize,
    },
    /// A proxy client crashed.
    ClientCrashed {
        /// Crashed client.
        client: usize,
        /// Crash instant.
        at: SimTime,
    },
    /// A proxy client restarted and reconciled its disk cache.
    ClientRestarted {
        /// Restarted client.
        client: usize,
        /// Restart instant (after reconciliation).
        at: SimTime,
        /// Dirty files discarded as corrupted.
        corrupted: usize,
    },
    /// The server-side delegation table showed two concurrent holders
    /// with at least one writer (observed by the exclusion sampler).
    ExclusionViolation {
        /// Observation instant.
        at: SimTime,
        /// Raw file-handle id of the offending file.
        fh: u64,
        /// Holders at that instant.
        sharers: usize,
        /// Writers among them.
        writers: usize,
    },
}

/// The shared, scheduler-serialized event log of one chaos run.
#[derive(Debug, Default)]
pub struct History {
    events: Mutex<Vec<Event>>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Appends one event.
    pub fn push(&self, event: Event) {
        self.events.lock().push(event);
    }

    /// A snapshot of all events recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().clone()
    }
}

/// FNV-1a over the debug rendering of the event list — the run's
/// deterministic trace fingerprint. Two runs of the same scenario must
/// produce the same hash; CI replays every seed twice and compares.
pub fn trace_hash(events: &[Event]) -> u64 {
    let mut text = String::new();
    for event in events {
        let _ = writeln!(text, "{event:?}");
    }
    fnv1a(0xcbf2_9ce4_8422_2325, text.as_bytes())
}

/// The run's fingerprint, the `trace 0x…` the chaos binaries print:
/// [`trace_hash`] of the history, extended over the debug rendering of
/// each final observation.
pub fn run_fingerprint<T: std::fmt::Debug>(events: &[Event], finals: &[T]) -> u64 {
    finals.iter().fold(trace_hash(events), |hash, obs| fnv1a(hash, format!("{obs:?}").as_bytes()))
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip_through_file_content() {
        let tag = make_tag(2, 17);
        assert_eq!(Observation::decode(&encode_tag(tag)), Observation::Tag(tag));
        assert_eq!(Observation::decode(&vec![0u8; FILE_LEN]), Observation::Initial);
    }

    #[test]
    fn torn_content_is_detected() {
        let mut buf = encode_tag(make_tag(0, 1));
        buf[100] ^= 0xff;
        assert_eq!(Observation::decode(&buf), Observation::Torn);
        assert_eq!(Observation::decode(&buf[..FILE_LEN - 8]), Observation::Torn);
    }

    #[test]
    fn trace_hash_is_order_sensitive() {
        let a = Event::ServerCrashed { at: SimTime::from_millis(1) };
        let b = Event::ServerCrashed { at: SimTime::from_millis(2) };
        assert_ne!(
            trace_hash(&[a.clone(), b.clone()]),
            trace_hash(&[b, a]),
            "reordering events must change the fingerprint"
        );
    }
}
