//! TCP record marking (RFC 5531 §11).
//!
//! When RPC runs over a byte stream, each message is sent as a *record*
//! split into one or more *fragments*. Each fragment is preceded by a
//! 32-bit header: the top bit marks the final fragment of the record and
//! the low 31 bits carry the fragment length.
//!
//! [`write_record`] frames a message; [`RecordReader`] incrementally
//! reassembles records from arbitrarily-chunked input, as a socket would
//! deliver it.

use crate::RpcError;
use gvfs_xdr::{Encoder, Xdr};

/// Largest fragment this implementation emits. Readers accept any
/// RFC-legal fragment size.
pub const MAX_FRAGMENT: usize = 1 << 20;

/// Hard cap on a reassembled record, to bound memory under hostile input.
pub const MAX_RECORD: usize = 1 << 26;

/// Checks that a message of `len` bytes may legally be sent as one
/// record. Senders on every transport apply this before transmitting so
/// an oversized message is rejected locally instead of poisoning the
/// connection (receivers would drop it per [`RecordReader::push`]).
///
/// # Errors
///
/// Returns [`RpcError::SystemError`] when `len` exceeds [`MAX_RECORD`].
pub fn ensure_sendable(len: usize) -> Result<(), RpcError> {
    if len > MAX_RECORD {
        return Err(RpcError::SystemError {
            detail: format!("message of {len} bytes exceeds the {MAX_RECORD}-byte record limit"),
        });
    }
    Ok(())
}

/// Frames `payload` as a record-marked byte sequence, splitting into
/// fragments of at most `max_fragment` bytes.
///
/// # Panics
///
/// Panics if `max_fragment` is zero.
///
/// # Examples
///
/// ```
/// let framed = gvfs_rpc::record::write_record(&[1, 2, 3], gvfs_rpc::record::MAX_FRAGMENT);
/// assert_eq!(framed, vec![0x80, 0, 0, 3, 1, 2, 3]);
/// ```
pub fn write_record(payload: &[u8], max_fragment: usize) -> Vec<u8> {
    assert!(max_fragment > 0, "max_fragment must be positive");
    let mut out = Vec::with_capacity(payload.len() + 8);
    if payload.is_empty() {
        out.extend_from_slice(&0x8000_0000u32.to_be_bytes());
        return out;
    }
    let mut chunks = payload.chunks(max_fragment).peekable();
    while let Some(chunk) = chunks.next() {
        let mut header = chunk.len() as u32;
        if chunks.peek().is_none() {
            header |= 0x8000_0000;
        }
        out.extend_from_slice(&header.to_be_bytes());
        out.extend_from_slice(chunk);
    }
    out
}

/// Encodes `msg` straight into one record-marked frame: the 4-byte
/// header, then the XDR encoding behind it, in one buffer sized exactly
/// by a sizing pass. A message longer than [`MAX_FRAGMENT`] falls back
/// to [`write_record`]; either way the bytes equal
/// `write_record(&to_bytes(msg)?, MAX_FRAGMENT)`.
///
/// # Errors
///
/// [`RpcError::SystemError`] for a message over [`MAX_RECORD`] (see
/// [`ensure_sendable`]); encoding errors as [`RpcError::Xdr`].
pub fn encode_record<T: Xdr>(msg: &T) -> Result<Vec<u8>, RpcError> {
    let len = gvfs_xdr::encoded_len(msg)?;
    ensure_sendable(len)?;
    if len > MAX_FRAGMENT {
        return Ok(write_record(&gvfs_xdr::to_bytes(msg)?, MAX_FRAGMENT));
    }
    let mut enc = Encoder::with_capacity(4 + len);
    enc.put_u32(len as u32 | 0x8000_0000);
    msg.encode(&mut enc)?;
    Ok(enc.into_bytes())
}

/// Incremental reassembler of record-marked streams.
///
/// Feed it bytes in any chunking with [`RecordReader::push`]; complete
/// records come out of [`RecordReader::pop`].
///
/// # Examples
///
/// ```
/// use gvfs_rpc::record::{write_record, RecordReader, MAX_FRAGMENT};
///
/// # fn main() -> Result<(), gvfs_rpc::RpcError> {
/// let framed = write_record(b"hello", MAX_FRAGMENT);
/// let mut reader = RecordReader::new();
/// for byte in framed {
///     reader.push(&[byte])?; // worst-case chunking: one byte at a time
/// }
/// assert_eq!(reader.pop().as_deref(), Some(&b"hello"[..]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct RecordReader {
    /// The bytes of a fragment header split across pushes.
    header: [u8; 4],
    header_len: usize,
    /// Body bytes still due for the current fragment.
    body_left: usize,
    /// Whether the current fragment ends its record.
    last: bool,
    record: Vec<u8>,
    complete: std::collections::VecDeque<Vec<u8>>,
}

impl RecordReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes, reassembling any records they complete.
    /// Fragment bodies are copied once, from `data` into their record.
    ///
    /// # Errors
    ///
    /// Returns [`RpcError::SystemError`] if a record would exceed
    /// [`MAX_RECORD`].
    pub fn push(&mut self, mut data: &[u8]) -> Result<(), RpcError> {
        while !data.is_empty() {
            if self.body_left == 0 {
                let take = (4 - self.header_len).min(data.len());
                self.header[self.header_len..self.header_len + take].copy_from_slice(&data[..take]);
                self.header_len += take;
                data = &data[take..];
                if self.header_len < 4 {
                    return Ok(());
                }
                self.header_len = 0;
                let header = u32::from_be_bytes(self.header);
                let len = (header & 0x7fff_ffff) as usize;
                if self.record.len() + len > MAX_RECORD {
                    return Err(RpcError::SystemError {
                        detail: format!("record exceeds {MAX_RECORD} bytes"),
                    });
                }
                self.last = header & 0x8000_0000 != 0;
                self.body_left = len;
                // Size the record for this fragment up front, but never
                // past what the stream has delivered: a header alone
                // must not buy a large allocation.
                self.record.reserve(len.min(data.len()));
            }
            let take = self.body_left.min(data.len());
            self.record.extend_from_slice(&data[..take]);
            self.body_left -= take;
            data = &data[take..];
            if self.body_left == 0 && self.last {
                self.last = false;
                self.complete.push_back(std::mem::take(&mut self.record));
            }
        }
        Ok(())
    }

    /// Removes and returns the oldest complete record, if any.
    pub fn pop(&mut self) -> Option<Vec<u8>> {
        self.complete.pop_front()
    }

    /// Number of complete records waiting to be popped.
    pub fn pending(&self) -> usize {
        self.complete.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_fragment_roundtrip() {
        let framed = write_record(b"abcd", MAX_FRAGMENT);
        let mut r = RecordReader::new();
        r.push(&framed).unwrap();
        assert_eq!(r.pop().unwrap(), b"abcd");
        assert!(r.pop().is_none());
    }

    #[test]
    fn multi_fragment_roundtrip() {
        let payload: Vec<u8> = (0..=255).collect();
        let framed = write_record(&payload, 16);
        // 256/16 = 16 fragments, each with a 4-byte header
        assert_eq!(framed.len(), 256 + 16 * 4);
        let mut r = RecordReader::new();
        r.push(&framed).unwrap();
        assert_eq!(r.pop().unwrap(), payload);
    }

    #[test]
    fn empty_record_roundtrip() {
        let framed = write_record(&[], MAX_FRAGMENT);
        assert_eq!(framed, vec![0x80, 0, 0, 0]);
        let mut r = RecordReader::new();
        r.push(&framed).unwrap();
        assert_eq!(r.pop().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let framed = write_record(b"stream me", 4);
        let mut r = RecordReader::new();
        for b in &framed {
            r.push(std::slice::from_ref(b)).unwrap();
        }
        assert_eq!(r.pop().unwrap(), b"stream me");
    }

    #[test]
    fn two_records_in_one_push() {
        let mut stream = write_record(b"one", MAX_FRAGMENT);
        stream.extend(write_record(b"two!", MAX_FRAGMENT));
        let mut r = RecordReader::new();
        r.push(&stream).unwrap();
        assert_eq!(r.pending(), 2);
        assert_eq!(r.pop().unwrap(), b"one");
        assert_eq!(r.pop().unwrap(), b"two!");
    }

    #[test]
    fn oversized_record_is_rejected() {
        let mut r = RecordReader::new();
        // Non-final fragment claiming 0x7fffffff bytes repeatedly would
        // overflow MAX_RECORD; the header alone triggers the check once
        // enough has accumulated. Simulate with headers claiming max size.
        let header = 0x7fff_ffffu32.to_be_bytes();
        let err = r.push(&header).unwrap_err();
        assert!(matches!(err, RpcError::SystemError { .. }));
    }

    #[test]
    fn split_at_every_offset_matches_one_push() {
        let mut stream = write_record(b"first, in fragments of three", 3);
        stream.extend(write_record(b"second", MAX_FRAGMENT));
        let mut whole = RecordReader::new();
        whole.push(&stream).unwrap();
        let want: Vec<Vec<u8>> = std::iter::from_fn(|| whole.pop()).collect();
        assert_eq!(want.len(), 2);
        for at in 0..=stream.len() {
            let mut r = RecordReader::new();
            r.push(&stream[..at]).unwrap();
            r.push(&stream[at..]).unwrap();
            let got: Vec<Vec<u8>> = std::iter::from_fn(|| r.pop()).collect();
            assert_eq!(got, want, "split at byte {at}");
        }
    }

    #[test]
    fn encoded_frame_equals_write_record_of_the_message() {
        use crate::message::{CallBody, MessageBody, OpaqueAuth, ReplyBody, RpcMessage};
        // Encoded sizes of a call (AUTH_NONE) and a success reply
        // around their payloads.
        const CALL_HEADER: usize = 40;
        const REPLY_HEADER: usize = 24;
        let check = |msg: RpcMessage| {
            let want = write_record(&gvfs_xdr::to_bytes(&msg).unwrap(), MAX_FRAGMENT);
            let frame = encode_record(&msg).unwrap();
            assert_eq!(frame, want);
            if frame.len() <= 4 + MAX_FRAGMENT {
                assert_eq!(frame.capacity(), frame.len(), "one fragment, sized exactly");
            }
        };
        for (header, build) in [
            (
                CALL_HEADER,
                (|p| MessageBody::Call(CallBody::new(7, 1, 2, OpaqueAuth::none(), p)))
                    as fn(Vec<u8>) -> MessageBody,
            ),
            (REPLY_HEADER, |p| MessageBody::Reply(ReplyBody::success(p))),
        ] {
            let mut sizes = vec![0, 4, 32 * 1024];
            // Messages just below, at and just above one fragment.
            sizes.extend([MAX_FRAGMENT - 4, MAX_FRAGMENT, MAX_FRAGMENT + 4].map(|m| m - header));
            for size in sizes {
                let payload: Vec<u8> = (0..size).map(|i| i as u8).collect();
                let msg = RpcMessage { xid: 9, body: build(payload) };
                assert_eq!(gvfs_xdr::to_bytes(&msg).unwrap().len(), header + size);
                check(msg);
            }
        }
    }

    #[test]
    #[should_panic(expected = "max_fragment")]
    fn zero_fragment_size_panics() {
        let _ = write_record(b"x", 0);
    }
}
