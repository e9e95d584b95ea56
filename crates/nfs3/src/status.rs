//! The `nfsstat3` status code.

use gvfs_vfs::VfsError;
use gvfs_xdr::{Decoder, Encoder, Xdr, XdrError};

/// NFSv3 status codes (RFC 1813 §2.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum Nfsstat3 {
    /// The call completed successfully.
    Ok = 0,
    /// Not owner.
    Perm = 1,
    /// No such file or directory.
    Noent = 2,
    /// I/O error.
    Io = 5,
    /// Permission denied.
    Acces = 13,
    /// File exists.
    Exist = 17,
    /// Attempt to do a cross-device hard link.
    Xdev = 18,
    /// No such device.
    Nodev = 19,
    /// Not a directory.
    Notdir = 20,
    /// Is a directory.
    Isdir = 21,
    /// Invalid argument.
    Inval = 22,
    /// File too large.
    Fbig = 27,
    /// No space left on device.
    Nospc = 28,
    /// Read-only filesystem.
    Rofs = 30,
    /// Too many hard links.
    Mlink = 31,
    /// Filename too long.
    Nametoolong = 63,
    /// Directory not empty.
    Notempty = 66,
    /// Quota exceeded.
    Dquot = 69,
    /// Stale file handle.
    Stale = 70,
    /// Too many levels of remote in path.
    Remote = 71,
    /// Illegal file handle.
    Badhandle = 10001,
    /// Update synchronization mismatch.
    NotSync = 10002,
    /// Bad readdir cookie.
    BadCookie = 10003,
    /// Operation not supported.
    Notsupp = 10004,
    /// Buffer or request too small.
    Toosmall = 10005,
    /// Server fault.
    Serverfault = 10006,
    /// Bad type for operation.
    Badtype = 10007,
    /// Request initiated, try again later.
    Jukebox = 10008,
}

impl Nfsstat3 {
    /// All defined codes, for table-driven tests.
    pub const ALL: [Nfsstat3; 28] = [
        Nfsstat3::Ok,
        Nfsstat3::Perm,
        Nfsstat3::Noent,
        Nfsstat3::Io,
        Nfsstat3::Acces,
        Nfsstat3::Exist,
        Nfsstat3::Xdev,
        Nfsstat3::Nodev,
        Nfsstat3::Notdir,
        Nfsstat3::Isdir,
        Nfsstat3::Inval,
        Nfsstat3::Fbig,
        Nfsstat3::Nospc,
        Nfsstat3::Rofs,
        Nfsstat3::Mlink,
        Nfsstat3::Nametoolong,
        Nfsstat3::Notempty,
        Nfsstat3::Dquot,
        Nfsstat3::Stale,
        Nfsstat3::Remote,
        Nfsstat3::Badhandle,
        Nfsstat3::NotSync,
        Nfsstat3::BadCookie,
        Nfsstat3::Notsupp,
        Nfsstat3::Toosmall,
        Nfsstat3::Serverfault,
        Nfsstat3::Badtype,
        Nfsstat3::Jukebox,
    ];

    /// Parses a wire code.
    ///
    /// # Errors
    ///
    /// Returns [`XdrError::InvalidDiscriminant`] for unknown codes.
    pub fn from_u32(value: u32) -> Result<Self, XdrError> {
        Self::ALL
            .iter()
            .copied()
            .find(|s| *s as u32 == value)
            .ok_or(XdrError::InvalidDiscriminant { type_name: "Nfsstat3", value })
    }

    /// `true` for [`Nfsstat3::Ok`].
    pub fn is_ok(self) -> bool {
        self == Nfsstat3::Ok
    }
}

impl Xdr for Nfsstat3 {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_u32(*self as u32);
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Nfsstat3::from_u32(dec.get_u32()?)
    }
}

impl From<VfsError> for Nfsstat3 {
    fn from(e: VfsError) -> Self {
        match e {
            VfsError::NotFound => Nfsstat3::Noent,
            VfsError::Exists => Nfsstat3::Exist,
            VfsError::NotDir => Nfsstat3::Notdir,
            VfsError::IsDir => Nfsstat3::Isdir,
            VfsError::NotEmpty => Nfsstat3::Notempty,
            VfsError::Stale => Nfsstat3::Stale,
            VfsError::Access => Nfsstat3::Acces,
            VfsError::InvalidArgument => Nfsstat3::Inval,
            VfsError::NotSupported => Nfsstat3::Notsupp,
            _ => Nfsstat3::Serverfault,
        }
    }
}

impl std::fmt::Display for Nfsstat3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}({})", *self as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_codes_roundtrip() {
        for status in Nfsstat3::ALL {
            let bytes = gvfs_xdr::to_bytes(&status).unwrap();
            assert_eq!(gvfs_xdr::from_bytes::<Nfsstat3>(&bytes).unwrap(), status);
        }
    }

    #[test]
    fn unknown_code_rejected() {
        assert!(Nfsstat3::from_u32(12345).is_err());
    }

    #[test]
    fn vfs_error_mapping() {
        assert_eq!(Nfsstat3::from(VfsError::NotFound), Nfsstat3::Noent);
        assert_eq!(Nfsstat3::from(VfsError::Stale), Nfsstat3::Stale);
        assert_eq!(Nfsstat3::from(VfsError::NotEmpty), Nfsstat3::Notempty);
    }

    #[test]
    fn is_ok_only_for_ok() {
        assert!(Nfsstat3::Ok.is_ok());
        assert!(!Nfsstat3::Stale.is_ok());
    }
}
