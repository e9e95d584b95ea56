//! NFS version 3 protocol types and XDR codecs.
//!
//! A faithful subset of [RFC 1813] sufficient to run the paper's
//! workloads: file handles, `fattr3`/`sattr3` attributes, weak cache
//! consistency (`wcc_data`) and the argument/result structures of the
//! procedures GVFS exercises — `GETATTR`, `SETATTR`, `LOOKUP`, `ACCESS`,
//! `READLINK`, `READ`, `WRITE`, `CREATE`, `MKDIR`, `SYMLINK`, `REMOVE`,
//! `RMDIR`, `RENAME`, `LINK`, `READDIR`, `FSSTAT`, `FSINFO` and `COMMIT`.
//! (`MKNOD`, `READDIRPLUS` and `PATHCONF` are omitted; no workload in the
//! paper uses them.)
//!
//! All structures implement [`gvfs_xdr::Xdr`], so what travels over the
//! simulated links is byte-for-byte valid NFSv3 wire format — transfer
//! sizes in the experiments are therefore realistic.
//!
//! # Examples
//!
//! ```
//! use gvfs_nfs3::{Fh3, LookupArgs, proc3};
//!
//! # fn main() -> Result<(), gvfs_xdr::XdrError> {
//! let args = LookupArgs { dir: Fh3::from_fileid(1), name: "Makefile".into() };
//! let bytes = gvfs_xdr::to_bytes(&args)?;
//! let back: LookupArgs = gvfs_xdr::from_bytes(&bytes)?;
//! assert_eq!(back.name, "Makefile");
//! assert_eq!(proc3::LOOKUP, 3);
//! # Ok(())
//! # }
//! ```
//!
//! [RFC 1813]: https://www.rfc-editor.org/rfc/rfc1813

pub mod mount;

mod procs;
mod status;
mod types;

pub use procs::*;
pub use status::Nfsstat3;
pub use types::{
    Fattr3, Fh3, Ftype3, NfsTime3, PostOpAttr, PostOpFh3, PreOpAttr, Sattr3, TimeHow, WccAttr,
    WccData, FHSIZE3,
};

/// The ONC RPC program number of NFS.
pub const NFS_PROGRAM: u32 = 100003;
/// NFS protocol version implemented by this crate.
pub const NFS_V3: u32 = 3;

/// The read/write transfer size: what the server advertises in `FSINFO`
/// and caps `READ` at, the kernel client's page size, and the proxy's
/// cache block size.
pub const TRANSFER_SIZE: u32 = 32 * 1024;

/// NFSv3 procedure numbers (RFC 1813 §3).
pub mod proc3 {
    /// Do nothing (ping).
    pub const NULL: u32 = 0;
    /// Get file attributes.
    pub const GETATTR: u32 = 1;
    /// Set file attributes.
    pub const SETATTR: u32 = 2;
    /// Look up a file name.
    pub const LOOKUP: u32 = 3;
    /// Check access permission.
    pub const ACCESS: u32 = 4;
    /// Read a symbolic link.
    pub const READLINK: u32 = 5;
    /// Read from a file.
    pub const READ: u32 = 6;
    /// Write to a file.
    pub const WRITE: u32 = 7;
    /// Create a file.
    pub const CREATE: u32 = 8;
    /// Create a directory.
    pub const MKDIR: u32 = 9;
    /// Create a symbolic link.
    pub const SYMLINK: u32 = 10;
    /// Remove a file.
    pub const REMOVE: u32 = 12;
    /// Remove a directory.
    pub const RMDIR: u32 = 13;
    /// Rename a file or directory.
    pub const RENAME: u32 = 14;
    /// Create a hard link.
    pub const LINK: u32 = 15;
    /// Read a directory.
    pub const READDIR: u32 = 16;
    /// Read a directory with attributes and handles.
    pub const READDIRPLUS: u32 = 17;
    /// Get dynamic filesystem statistics.
    pub const FSSTAT: u32 = 18;
    /// Get static filesystem info.
    pub const FSINFO: u32 = 19;
    /// Commit cached writes to stable storage.
    pub const COMMIT: u32 = 21;

    /// A readable name for a procedure number (diagnostics and reports).
    pub fn name(procedure: u32) -> &'static str {
        match procedure {
            NULL => "NULL",
            GETATTR => "GETATTR",
            SETATTR => "SETATTR",
            LOOKUP => "LOOKUP",
            ACCESS => "ACCESS",
            READLINK => "READLINK",
            READ => "READ",
            WRITE => "WRITE",
            CREATE => "CREATE",
            MKDIR => "MKDIR",
            SYMLINK => "SYMLINK",
            REMOVE => "REMOVE",
            RMDIR => "RMDIR",
            RENAME => "RENAME",
            LINK => "LINK",
            READDIR => "READDIR",
            READDIRPLUS => "READDIRPLUS",
            FSSTAT => "FSSTAT",
            FSINFO => "FSINFO",
            COMMIT => "COMMIT",
            _ => "UNKNOWN",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procedure_names() {
        assert_eq!(proc3::name(proc3::GETATTR), "GETATTR");
        assert_eq!(proc3::name(999), "UNKNOWN");
    }

    #[test]
    fn program_constants() {
        assert_eq!(NFS_PROGRAM, 100003);
        assert_eq!(NFS_V3, 3);
    }
}
