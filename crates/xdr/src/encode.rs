//! The XDR encoder: an append-only, four-byte-aligned byte sink.

use crate::XdrError;

/// Serializes XDR primitives into a growable buffer.
///
/// All `put_*` methods maintain the RFC 4506 invariant that the buffer
/// length is always a multiple of four.
///
/// # Examples
///
/// ```
/// use gvfs_xdr::Encoder;
///
/// # fn main() -> Result<(), gvfs_xdr::XdrError> {
/// let mut enc = Encoder::new();
/// enc.put_u32(3);
/// enc.put_opaque(&[1, 2, 3])?; // padded to 8 bytes on the wire
/// assert_eq!(enc.len(), 4 + 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Encoder { buf: Vec::with_capacity(capacity) }
    }

    /// Creates an encoder that writes into `buf`, emptied first: a
    /// caller that encodes one message after another keeps one buffer's
    /// allocation instead of making a new one each time.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Encoder { buf }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes encoded so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends an unsigned 32-bit integer.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a signed 32-bit integer.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an unsigned 64-bit integer ("unsigned hyper").
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a signed 64-bit integer ("hyper").
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a boolean as a full word (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(u32::from(v));
    }

    /// Appends fixed-length opaque data, zero-padding to a word boundary.
    ///
    /// The length is *not* written; the receiver must know it.
    pub fn put_opaque_fixed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
        self.pad();
    }

    /// Appends variable-length opaque data: a `u32` length followed by the
    /// bytes, zero-padded to a word boundary.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::LengthOverflow`] if `data.len() > u32::MAX`.
    pub fn put_opaque(&mut self, data: &[u8]) -> Result<(), XdrError> {
        let len = u32::try_from(data.len()).map_err(|_| XdrError::LengthOverflow)?;
        self.put_u32(len);
        self.put_opaque_fixed(data);
        Ok(())
    }

    /// Appends a string as variable-length opaque UTF-8.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::LengthOverflow`] if the string is longer than
    /// `u32::MAX` bytes.
    pub fn put_string(&mut self, s: &str) -> Result<(), XdrError> {
        self.put_opaque(s.as_bytes())
    }

    fn pad(&mut self) {
        while !self.buf.len().is_multiple_of(4) {
            self.buf.push(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_default_agree() {
        assert_eq!(Encoder::new().as_bytes(), Encoder::default().as_bytes());
    }

    #[test]
    fn opaque_fixed_pads_to_word() {
        let mut enc = Encoder::new();
        enc.put_opaque_fixed(&[0xaa]);
        assert_eq!(enc.as_bytes(), &[0xaa, 0, 0, 0]);
    }

    #[test]
    fn opaque_variable_writes_length_prefix() {
        let mut enc = Encoder::new();
        enc.put_opaque(&[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(enc.as_bytes(), &[0, 0, 0, 5, 1, 2, 3, 4, 5, 0, 0, 0]);
    }

    #[test]
    fn empty_opaque_is_just_length_word() {
        let mut enc = Encoder::new();
        enc.put_opaque(&[]).unwrap();
        assert_eq!(enc.as_bytes(), &[0, 0, 0, 0]);
    }

    #[test]
    fn length_always_word_aligned() {
        let mut enc = Encoder::new();
        for n in 0..9 {
            enc.put_opaque(&vec![7u8; n]).unwrap();
            assert_eq!(enc.len() % 4, 0, "misaligned after opaque of {n}");
        }
    }

    #[test]
    fn with_capacity_does_not_affect_contents() {
        let mut enc = Encoder::with_capacity(1024);
        assert!(enc.is_empty());
        enc.put_u32(1);
        assert_eq!(enc.len(), 4);
    }
}
