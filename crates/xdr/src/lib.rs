//! XDR (External Data Representation, [RFC 4506]) encoding and decoding.
//!
//! XDR is the wire format underlying ONC RPC and therefore NFS. Every
//! quantity is encoded big-endian and padded to a multiple of four bytes.
//! This crate provides:
//!
//! * [`Encoder`] — an append-only byte sink with typed `put_*` methods,
//! * [`Decoder`] — a cursor over a byte slice with typed `get_*` methods,
//! * the [`Xdr`] trait — types that know how to encode/decode themselves,
//!   with blanket support for `Option<T>`, `Vec<T>` and tuples.
//!
//! # Examples
//!
//! ```
//! use gvfs_xdr::{Encoder, Decoder, Xdr};
//!
//! # fn main() -> Result<(), gvfs_xdr::XdrError> {
//! let mut enc = Encoder::new();
//! enc.put_u32(7);
//! enc.put_string("lock.tmp")?;
//! let bytes = enc.into_bytes();
//!
//! let mut dec = Decoder::new(&bytes);
//! assert_eq!(dec.get_u32()?, 7);
//! assert_eq!(dec.get_string()?, "lock.tmp");
//! dec.finish()?;
//! # Ok(())
//! # }
//! ```
//!
//! [RFC 4506]: https://www.rfc-editor.org/rfc/rfc4506

mod decode;
mod encode;
mod error;

pub use decode::Decoder;
pub use encode::Encoder;
pub use error::XdrError;

/// A type with a canonical XDR wire representation.
///
/// Implementations must round-trip: decoding the output of
/// [`Xdr::encode`] yields an equal value.
///
/// # Examples
///
/// ```
/// use gvfs_xdr::{Encoder, Decoder, Xdr, XdrError};
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u32, y: u32 }
///
/// impl Xdr for Point {
///     fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
///         enc.put_u32(self.x);
///         enc.put_u32(self.y);
///         Ok(())
///     }
///     fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
///         Ok(Point { x: dec.get_u32()?, y: dec.get_u32()? })
///     }
/// }
///
/// # fn main() -> Result<(), XdrError> {
/// let p = Point { x: 1, y: 2 };
/// let bytes = gvfs_xdr::to_bytes(&p)?;
/// assert_eq!(gvfs_xdr::from_bytes::<Point>(&bytes)?, p);
/// # Ok(())
/// # }
/// ```
pub trait Xdr: Sized {
    /// Appends the XDR representation of `self` to `enc`.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError`] if a length limit is exceeded (e.g. a string
    /// longer than `u32::MAX`).
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError>;

    /// Reads a value of this type from `dec`.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError`] on truncated input, invalid discriminants or
    /// malformed padding.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError>;
}

/// Encodes `value` into a fresh byte vector. A sizing pass first finds
/// the encoded length, so the vector is allocated once, at exactly that
/// size.
///
/// # Errors
///
/// Propagates any error from [`Xdr::encode`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), gvfs_xdr::XdrError> {
/// let bytes = gvfs_xdr::to_bytes(&0xdead_beef_u32)?;
/// assert_eq!(bytes, [0xde, 0xad, 0xbe, 0xef]);
/// # Ok(())
/// # }
/// ```
pub fn to_bytes<T: Xdr>(value: &T) -> Result<Vec<u8>, XdrError> {
    let mut enc = Encoder::with_capacity(encoded_len(value)?);
    value.encode(&mut enc)?;
    Ok(enc.into_bytes())
}

/// Decodes a `T` from `bytes`, requiring that all input is consumed.
///
/// # Errors
///
/// Returns [`XdrError::TrailingBytes`] if input remains after decoding, or
/// any error from [`Xdr::decode`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), gvfs_xdr::XdrError> {
/// let n: u32 = gvfs_xdr::from_bytes(&[0, 0, 0, 5])?;
/// assert_eq!(n, 5);
/// # Ok(())
/// # }
/// ```
pub fn from_bytes<T: Xdr>(bytes: &[u8]) -> Result<T, XdrError> {
    let mut dec = Decoder::new(bytes);
    let value = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(value)
}

/// Returns the number of bytes `value` occupies on the wire, from a
/// sizing pass that allocates nothing (see [`Encoder`]).
///
/// # Errors
///
/// Propagates any error from [`Xdr::encode`].
pub fn encoded_len<T: Xdr>(value: &T) -> Result<usize, XdrError> {
    let mut enc = Encoder::sizing();
    value.encode(&mut enc)?;
    Ok(enc.len())
}

impl Xdr for u32 {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_u32(*self);
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        dec.get_u32()
    }
}

impl Xdr for i32 {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_i32(*self);
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        dec.get_i32()
    }
}

impl Xdr for u64 {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_u64(*self);
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        dec.get_u64()
    }
}

impl Xdr for i64 {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_i64(*self);
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        dec.get_i64()
    }
}

impl Xdr for bool {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_bool(*self);
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        dec.get_bool()
    }
}

impl Xdr for String {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_string(self)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        dec.get_string()
    }
}

/// `Option<T>` encodes as XDR "optional-data": a boolean discriminant
/// followed by the value when present.
impl<T: Xdr> Xdr for Option<T> {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        match self {
            Some(v) => {
                enc.put_bool(true);
                v.encode(enc)
            }
            None => {
                enc.put_bool(false);
                Ok(())
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        if dec.get_bool()? {
            Ok(Some(T::decode(dec)?))
        } else {
            Ok(None)
        }
    }
}

/// `Vec<T>` encodes as an XDR variable-length array: a `u32` count
/// followed by that many elements.
impl<T: Xdr> Xdr for Vec<T> {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        let len = u32::try_from(self.len()).map_err(|_| XdrError::LengthOverflow)?;
        enc.put_u32(len);
        for item in self {
            item.encode(enc)?;
        }
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let len = dec.get_u32()? as usize;
        // Guard against hostile counts: never pre-reserve more than the
        // remaining input could possibly encode (1 byte per element floor).
        let mut items = Vec::with_capacity(len.min(dec.remaining()));
        for _ in 0..len {
            items.push(T::decode(dec)?);
        }
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_wire_format_is_big_endian() {
        assert_eq!(to_bytes(&0x0102_0304_u32).unwrap(), [1, 2, 3, 4]);
    }

    #[test]
    fn i32_negative_round_trip() {
        let bytes = to_bytes(&(-2i32)).unwrap();
        assert_eq!(bytes, [0xff, 0xff, 0xff, 0xfe]);
        assert_eq!(from_bytes::<i32>(&bytes).unwrap(), -2);
    }

    #[test]
    fn u64_spans_two_words() {
        let bytes = to_bytes(&0x0102_0304_0506_0708_u64).unwrap();
        assert_eq!(bytes, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn bool_encodes_as_word() {
        assert_eq!(to_bytes(&true).unwrap(), [0, 0, 0, 1]);
        assert_eq!(to_bytes(&false).unwrap(), [0, 0, 0, 0]);
    }

    #[test]
    fn bool_rejects_other_discriminants() {
        let err = from_bytes::<bool>(&[0, 0, 0, 2]).unwrap_err();
        assert!(matches!(err, XdrError::InvalidDiscriminant { value: 2, .. }));
    }

    #[test]
    fn option_none_is_single_zero_word() {
        assert_eq!(to_bytes(&Option::<u32>::None).unwrap(), [0, 0, 0, 0]);
    }

    #[test]
    fn option_some_round_trip() {
        let v = Some(99u32);
        assert_eq!(from_bytes::<Option<u32>>(&to_bytes(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn vec_round_trip() {
        let v = vec![1u32, 2, 3];
        let bytes = to_bytes(&v).unwrap();
        assert_eq!(bytes.len(), 16);
        assert_eq!(from_bytes::<Vec<u32>>(&bytes).unwrap(), v);
    }

    #[test]
    fn vec_with_hostile_count_errors_instead_of_allocating() {
        // count = u32::MAX but no elements follow
        let bytes = [0xff, 0xff, 0xff, 0xff];
        assert!(from_bytes::<Vec<u32>>(&bytes).is_err());
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let err = from_bytes::<u32>(&[0, 0, 0, 1, 0]).unwrap_err();
        assert!(matches!(err, XdrError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn string_round_trip_with_padding() {
        let s = "ab".to_string();
        let bytes = to_bytes(&s).unwrap();
        assert_eq!(bytes, [0, 0, 0, 2, b'a', b'b', 0, 0]);
        assert_eq!(from_bytes::<String>(&bytes).unwrap(), s);
    }

    #[test]
    fn encoded_len_matches_serialization() {
        let v = vec![7u64; 5];
        assert_eq!(encoded_len(&v).unwrap(), 4 + 5 * 8);
    }
}
