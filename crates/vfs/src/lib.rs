//! An in-memory POSIX-style filesystem.
//!
//! This crate substitutes for the disk filesystem exported by the paper's
//! NFS server VM. It implements the operations NFSv3 needs — lookup,
//! create (unchecked/guarded/exclusive), read/write with sparse-file
//! semantics, remove, rename, hard links, symlinks, directories with
//! stable readdir cookies — with POSIX-ish metadata: file ids that are
//! never reused (so stale handles are detectable), link counts, and
//! mtime/ctime maintenance.
//!
//! Time is supplied by the caller (the NFS server passes the simulation
//! clock), keeping this crate independent of the simulator.
//!
//! File content is held in [`Pages`]: 32 KiB pages ([`PAGE_SIZE`], the
//! NFS transfer size), each allocated to its exact length, so a growing
//! file never copies what it holds and keeps at most one page of unused
//! capacity. The simulated proxies' virtual disks store their files in
//! the same type, and ranges are lent out as [`Slices`], one piece per
//! page, without a gathering copy.
//!
//! # Examples
//!
//! ```
//! use gvfs_vfs::{Vfs, Timestamp};
//!
//! # fn main() -> Result<(), gvfs_vfs::VfsError> {
//! let fs = Vfs::new();
//! let t = Timestamp::from_nanos(0);
//! let dir = fs.mkdir(fs.root(), "src", 0o755, t)?;
//! let file = fs.create(fs.root(), "README", 0o644, t)?;
//! fs.write(file, 0, b"hello", t)?;
//! assert_eq!(fs.read(file, 0, 100)?.0, b"hello");
//! assert_eq!(fs.lookup(fs.root(), "src")?, dir);
//! # Ok(())
//! # }
//! ```

mod attr;
mod error;
mod fs;
mod pages;

pub use attr::{Attr, FileKind, SetAttr, Timestamp};
pub use error::VfsError;
pub use fs::{DirEntry, FileId, FsStat, ReadDirPage, Vfs};
pub use pages::{Pages, Slices, PAGE_SIZE};
