//! The XDR decoder: a checked cursor over a byte slice.

use crate::XdrError;

/// Deserializes XDR primitives from a borrowed byte slice.
///
/// Every read is bounds-checked and enforces RFC 4506 padding rules
/// (pad bytes must be zero).
///
/// # Examples
///
/// ```
/// use gvfs_xdr::Decoder;
///
/// # fn main() -> Result<(), gvfs_xdr::XdrError> {
/// let mut dec = Decoder::new(&[0, 0, 0, 5, b'h', b'e', b'l', b'l', b'o', 0, 0, 0]);
/// assert_eq!(dec.get_string()?, "hello");
/// dec.finish()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder reading from `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Decoder { input, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Current read offset from the start of the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Asserts that the entire input has been consumed.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::TrailingBytes`] if bytes remain.
    pub fn finish(&self) -> Result<(), XdrError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(XdrError::TrailingBytes { remaining: self.remaining() })
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], XdrError> {
        if self.remaining() < n {
            return Err(XdrError::UnexpectedEof { needed: n, available: self.remaining() });
        }
        let slice = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads an unsigned 32-bit integer.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::UnexpectedEof`] on truncated input.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, XdrError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a signed 32-bit integer.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::UnexpectedEof`] on truncated input.
    #[inline]
    pub fn get_i32(&mut self) -> Result<i32, XdrError> {
        Ok(self.get_u32()? as i32)
    }

    /// Reads an unsigned 64-bit integer ("unsigned hyper").
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::UnexpectedEof`] on truncated input.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, XdrError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_be_bytes(arr))
    }

    /// Reads a signed 64-bit integer ("hyper").
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::UnexpectedEof`] on truncated input.
    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, XdrError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads a boolean word.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::InvalidDiscriminant`] if the word is neither
    /// 0 nor 1, or [`XdrError::UnexpectedEof`] on truncated input.
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool, XdrError> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(XdrError::InvalidDiscriminant { type_name: "bool", value }),
        }
    }

    /// Reads `len` bytes of fixed-length opaque data plus padding.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::UnexpectedEof`] on truncated input or
    /// [`XdrError::NonZeroPadding`] if pad bytes are non-zero.
    pub fn get_opaque_fixed(&mut self, len: usize) -> Result<Vec<u8>, XdrError> {
        self.get_opaque_fixed_ref(len).map(<[u8]>::to_vec)
    }

    #[inline]
    fn get_opaque_fixed_ref(&mut self, len: usize) -> Result<&'a [u8], XdrError> {
        let data = self.take(len)?;
        let pad = (4 - len % 4) % 4;
        let pad_bytes = self.take(pad)?;
        if pad_bytes.iter().any(|&b| b != 0) {
            return Err(XdrError::NonZeroPadding);
        }
        Ok(data)
    }

    /// Reads variable-length opaque data (length prefix + bytes + padding).
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::UnexpectedEof`] if the declared length exceeds
    /// the remaining input, or padding errors as in
    /// [`Decoder::get_opaque_fixed`].
    pub fn get_opaque(&mut self) -> Result<Vec<u8>, XdrError> {
        self.get_opaque_ref().map(<[u8]>::to_vec)
    }

    /// [`Decoder::get_opaque`] that borrows the bytes from the input
    /// instead of copying them.
    ///
    /// # Errors
    ///
    /// As for [`Decoder::get_opaque`].
    #[inline]
    pub fn get_opaque_ref(&mut self) -> Result<&'a [u8], XdrError> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() {
            return Err(XdrError::UnexpectedEof { needed: len, available: self.remaining() });
        }
        self.get_opaque_fixed_ref(len)
    }

    /// Reads variable-length opaque data, enforcing a protocol bound.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::LengthBound`] if the declared length exceeds
    /// `max`, plus the errors of [`Decoder::get_opaque`].
    pub fn get_opaque_bounded(
        &mut self,
        type_name: &'static str,
        max: usize,
    ) -> Result<Vec<u8>, XdrError> {
        self.get_opaque_bounded_ref(type_name, max).map(<[u8]>::to_vec)
    }

    /// [`Decoder::get_opaque_bounded`] that borrows the bytes from the
    /// input instead of copying them. The bound is checked before the
    /// input's length, as there.
    ///
    /// # Errors
    ///
    /// As for [`Decoder::get_opaque_bounded`].
    #[inline]
    pub fn get_opaque_bounded_ref(
        &mut self,
        type_name: &'static str,
        max: usize,
    ) -> Result<&'a [u8], XdrError> {
        let len = self.get_u32()? as usize;
        if len > max {
            return Err(XdrError::LengthBound { type_name, declared: len, max });
        }
        if len > self.remaining() {
            return Err(XdrError::UnexpectedEof { needed: len, available: self.remaining() });
        }
        self.get_opaque_fixed_ref(len)
    }

    /// Reads a UTF-8 string (variable-length opaque).
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::InvalidUtf8`] on non-UTF-8 data, plus the errors
    /// of [`Decoder::get_opaque`].
    pub fn get_string(&mut self) -> Result<String, XdrError> {
        let bytes = self.get_opaque()?;
        String::from_utf8(bytes).map_err(|_| XdrError::InvalidUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eof_reports_needed_and_available() {
        let mut dec = Decoder::new(&[0, 0]);
        let err = dec.get_u32().unwrap_err();
        assert_eq!(err, XdrError::UnexpectedEof { needed: 4, available: 2 });
    }

    #[test]
    fn opaque_fixed_checks_padding_is_zero() {
        let mut dec = Decoder::new(&[0xaa, 1, 0, 0]);
        assert_eq!(dec.get_opaque_fixed(1).unwrap_err(), XdrError::NonZeroPadding);
    }

    #[test]
    fn opaque_variable_round_trip() {
        let mut dec = Decoder::new(&[0, 0, 0, 3, 9, 8, 7, 0]);
        assert_eq!(dec.get_opaque().unwrap(), vec![9, 8, 7]);
        assert!(dec.finish().is_ok());
    }

    #[test]
    fn opaque_with_declared_length_beyond_input_is_eof_not_alloc() {
        let mut dec = Decoder::new(&[0x7f, 0xff, 0xff, 0xff]);
        assert!(matches!(dec.get_opaque().unwrap_err(), XdrError::UnexpectedEof { .. }));
    }

    #[test]
    fn bounded_opaque_enforces_bound() {
        let mut dec = Decoder::new(&[0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8]);
        let err = dec.get_opaque_bounded("fh", 4).unwrap_err();
        assert_eq!(err, XdrError::LengthBound { type_name: "fh", declared: 8, max: 4 });
    }

    #[test]
    fn bounded_opaque_checks_the_bound_before_the_input() {
        // Declares 8 bytes, bound 4, only 4 present: the bound wins.
        for input in [&[0, 0, 0, 8, 1, 2, 3, 4][..], &[0, 0, 0, 8]] {
            let want = XdrError::LengthBound { type_name: "fh", declared: 8, max: 4 };
            assert_eq!(Decoder::new(input).get_opaque_bounded("fh", 4).unwrap_err(), want);
            assert_eq!(Decoder::new(input).get_opaque_bounded_ref("fh", 4).unwrap_err(), want);
        }
        let short = [0, 0, 0, 8, 1, 2, 3, 4];
        let want = XdrError::UnexpectedEof { needed: 8, available: 4 };
        assert_eq!(Decoder::new(&short).get_opaque_bounded_ref("fh", 64).unwrap_err(), want);
        let mut dec = Decoder::new(&[0, 0, 0, 3, 9, 8, 7, 0]);
        assert_eq!(dec.get_opaque_bounded_ref("fh", 4).unwrap(), &[9, 8, 7]);
        dec.finish().unwrap();
    }

    #[test]
    fn string_rejects_invalid_utf8() {
        let mut dec = Decoder::new(&[0, 0, 0, 1, 0xff, 0, 0, 0]);
        assert_eq!(dec.get_string().unwrap_err(), XdrError::InvalidUtf8);
    }

    #[test]
    fn position_tracks_consumption() {
        let mut dec = Decoder::new(&[0, 0, 0, 1, 0, 0, 0, 2]);
        assert_eq!(dec.position(), 0);
        dec.get_u32().unwrap();
        assert_eq!(dec.position(), 4);
        assert_eq!(dec.remaining(), 4);
    }
}
