//! Filesystem error type, mirroring the NFSv3 status codes it maps to.

use std::error::Error;
use std::fmt;

/// An error from a filesystem operation.
///
/// Each variant corresponds to an NFSv3 `nfsstat3` code so the server
/// layer can translate without losing information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum VfsError {
    /// No such file or directory (`NFS3ERR_NOENT`).
    NotFound,
    /// The entry already exists (`NFS3ERR_EXIST`).
    Exists,
    /// The operand is not a directory (`NFS3ERR_NOTDIR`).
    NotDir,
    /// The operand is a directory (`NFS3ERR_ISDIR`).
    IsDir,
    /// Directory not empty (`NFS3ERR_NOTEMPTY`).
    NotEmpty,
    /// The file handle is stale — the file was deleted (`NFS3ERR_STALE`).
    Stale,
    /// Permission denied (`NFS3ERR_ACCES`).
    Access,
    /// Invalid argument, e.g. an illegal name (`NFS3ERR_INVAL`).
    InvalidArgument,
    /// Operation not supported on this object (`NFS3ERR_NOTSUPP`).
    NotSupported,
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            VfsError::NotFound => "no such file or directory",
            VfsError::Exists => "file exists",
            VfsError::NotDir => "not a directory",
            VfsError::IsDir => "is a directory",
            VfsError::NotEmpty => "directory not empty",
            VfsError::Stale => "stale file handle",
            VfsError::Access => "permission denied",
            VfsError::InvalidArgument => "invalid argument",
            VfsError::NotSupported => "operation not supported",
        };
        f.write_str(msg)
    }
}

impl Error for VfsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_meaningful() {
        assert_eq!(VfsError::Stale.to_string(), "stale file handle");
        assert_eq!(VfsError::NotEmpty.to_string(), "directory not empty");
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync + Error>() {}
        check::<VfsError>();
    }
}
