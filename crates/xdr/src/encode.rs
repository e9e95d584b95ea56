//! The XDR encoder: an append-only, four-byte-aligned byte sink.

use crate::XdrError;

/// Serializes XDR primitives into a growable buffer, or counts the
/// bytes they would take.
///
/// All `put_*` methods maintain the RFC 4506 invariant that the length
/// is always a multiple of four.
///
/// [`to_bytes`](crate::to_bytes) encodes a value twice: a *sizing* pass,
/// which counts bytes and stores none, then an encoding pass into a
/// buffer of exactly that size, so a message costs one allocation.
/// [`encoded_len`](crate::encoded_len) runs the sizing pass alone. Both
/// passes must write the same words, so an [`Xdr::encode`](crate::Xdr)
/// never reads back its own output: it calls no [`Encoder::len`],
/// [`Encoder::as_bytes`] or nested [`to_bytes`](crate::to_bytes), whose
/// answers differ between the passes.
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
    /// The byte count of a sizing pass, which leaves `buf` empty;
    /// `None` when encoding.
    sized: Option<usize>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Encoder { buf: Vec::with_capacity(capacity), sized: None }
    }

    /// Creates an encoder that writes into `buf`, emptied first: a
    /// caller that encodes one message after another keeps one buffer's
    /// allocation instead of making a new one each time.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Encoder { buf, sized: None }
    }

    /// Creates an encoder for a sizing pass: it counts the bytes put
    /// into it and stores none.
    pub(crate) fn sizing() -> Self {
        Encoder { buf: Vec::new(), sized: Some(0) }
    }

    /// Number of bytes written (or, in a sizing pass, counted) so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.sized.unwrap_or(self.buf.len())
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes encoded so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The one write every `put_*` makes: append `bytes`, or count them.
    /// It and the `put_*` methods are `#[inline]`, as `to_bytes` runs
    /// each of them twice per field, from another crate's `encode`.
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        match &mut self.sized {
            Some(n) => *n += bytes.len(),
            None => self.buf.extend_from_slice(bytes),
        }
    }

    /// Appends an unsigned 32-bit integer.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put(&v.to_be_bytes());
    }

    /// Appends a signed 32-bit integer.
    #[inline]
    pub fn put_i32(&mut self, v: i32) {
        self.put(&v.to_be_bytes());
    }

    /// Appends an unsigned 64-bit integer ("unsigned hyper").
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.put(&v.to_be_bytes());
    }

    /// Appends a signed 64-bit integer ("hyper").
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.put(&v.to_be_bytes());
    }

    /// Appends a boolean as a full word (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(u32::from(v));
    }

    /// Appends fixed-length opaque data, zero-padding to a word boundary.
    ///
    /// The length is *not* written; the receiver must know it.
    #[inline]
    pub fn put_opaque_fixed(&mut self, data: &[u8]) {
        self.put(data);
        self.put(&[0; 3][..(4 - data.len() % 4) % 4]);
    }

    /// Appends bytes that are themselves an XDR encoding, such as the
    /// arguments or results trailing an RPC header: no length word, and
    /// no padding, as an encoding is word-aligned. Debug builds assert
    /// that when encoding; a sizing pass charges an unaligned `data` the
    /// padded words an encoding pass would write.
    #[inline]
    pub fn put_encoded(&mut self, data: &[u8]) {
        debug_assert!(
            self.sized.is_some() || data.len().is_multiple_of(4),
            "an XDR encoding must be word-aligned"
        );
        self.put_opaque_fixed(data);
    }

    /// Appends variable-length opaque data: a `u32` length followed by the
    /// bytes, zero-padded to a word boundary.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::LengthOverflow`] if `data.len() > u32::MAX`.
    #[inline]
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
    #[inline]
    pub fn put_string(&mut self, s: &str) -> Result<(), XdrError> {
        self.put_opaque(s.as_bytes())
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
