//! The GVFS proxies: the user-level processes that interpose on NFS
//! traffic (Figure 1 of the paper).
//!
//! * [`client::ProxyClient`] — runs beside each kernel NFS client,
//!   serving its RPCs from a disk cache and forwarding misses over the
//!   WAN; also hosts the callback service.
//! * [`server::ProxyServer`] — runs beside the kernel NFS server,
//!   forwarding NFS calls over loopback while tracking modifications
//!   (invalidation buffers) or delegations, and issuing callbacks.
//! * [`window::Window`] — the one loop behind every batch of concurrent
//!   calls.

pub mod client;
pub mod server;
pub mod window;

use gvfs_nfs3::{proc3, Fh3};
use gvfs_rpc::RpcError;
use gvfs_xdr::Xdr;

/// The block size used for data caching and write-back accounting,
/// matching the NFS transfer size.
pub const BLOCK_SIZE: u64 = gvfs_nfs3::TRANSFER_SIZE as u64;

/// Aligns a byte offset down to its block.
pub fn block_of(offset: u64) -> u64 {
    offset / BLOCK_SIZE * BLOCK_SIZE
}

/// What an NFS call does, from the proxies' point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpClass {
    /// Reads attributes of one object (GETATTR, ACCESS, COMMIT).
    AttrRead {
        /// Target object.
        fh: Fh3,
    },
    /// Resolves a name in a directory.
    Lookup {
        /// The directory.
        dir: Fh3,
        /// The name.
        name: String,
    },
    /// Reads file data.
    Read {
        /// The file.
        fh: Fh3,
        /// Byte offset.
        offset: u64,
        /// Byte count.
        count: u32,
    },
    /// Writes file data.
    Write {
        /// The file.
        fh: Fh3,
        /// Byte offset.
        offset: u64,
    },
    /// Modifies one object's attributes (SETATTR).
    SetAttr {
        /// The object.
        fh: Fh3,
    },
    /// Modifies directory contents (CREATE, MKDIR, SYMLINK, REMOVE,
    /// RMDIR, RENAME, LINK).
    DirModify {
        /// The primary directory.
        dir: Fh3,
        /// Names affected in `dir`.
        names: Vec<String>,
        /// A second affected directory (RENAME target dir) with its
        /// affected name.
        extra: Option<(Fh3, String)>,
        /// An affected file handle carried in the arguments (LINK).
        file: Option<Fh3>,
    },
    /// Reads directory contents.
    ReadDir {
        /// The directory.
        dir: Fh3,
    },
    /// Anything else (NULL, FSSTAT, FSINFO, READLINK).
    Other,
}

impl OpClass {
    /// Whether this operation modifies server state.
    pub fn is_modification(&self) -> bool {
        matches!(self, OpClass::Write { .. } | OpClass::SetAttr { .. } | OpClass::DirModify { .. })
    }
}

fn decode<T: Xdr>(bytes: &[u8]) -> Result<T, RpcError> {
    gvfs_xdr::from_bytes(bytes).map_err(|_| RpcError::GarbageArgs)
}

/// Classifies an NFSv3 call for the proxies.
///
/// # Errors
///
/// Returns [`RpcError::GarbageArgs`] when the arguments do not decode.
pub fn classify(procedure: u32, args: &[u8]) -> Result<OpClass, RpcError> {
    use gvfs_nfs3 as n;
    Ok(match procedure {
        proc3::GETATTR | proc3::ACCESS | proc3::COMMIT | proc3::FSSTAT | proc3::FSINFO => {
            // All start with a file handle.
            let fh = {
                let mut dec = gvfs_xdr::Decoder::new(args);
                Fh3::decode(&mut dec).map_err(|_| RpcError::GarbageArgs)?
            };
            match procedure {
                proc3::FSSTAT | proc3::FSINFO => OpClass::Other,
                _ => OpClass::AttrRead { fh },
            }
        }
        proc3::LOOKUP => {
            let a: n::LookupArgs = decode(args)?;
            OpClass::Lookup { dir: a.dir, name: a.name }
        }
        proc3::READ => {
            let a: n::ReadArgs = decode(args)?;
            OpClass::Read { fh: a.file, offset: a.offset, count: a.count }
        }
        proc3::WRITE => {
            // Only the handle and offset are kept. The rest of the args
            // is checked where it lies, so the payload is not copied.
            let mut dec = gvfs_xdr::Decoder::new(args);
            let mut write = || -> Result<OpClass, gvfs_xdr::XdrError> {
                let fh = Fh3::decode(&mut dec)?;
                let offset = dec.get_u64()?;
                dec.get_u32()?; // count
                n::StableHow::decode(&mut dec)?;
                dec.get_opaque_ref()?;
                dec.finish()?;
                Ok(OpClass::Write { fh, offset })
            };
            write().map_err(|_| RpcError::GarbageArgs)?
        }
        proc3::SETATTR => {
            let a: n::SetattrArgs = decode(args)?;
            OpClass::SetAttr { fh: a.object }
        }
        proc3::CREATE => {
            let a: n::CreateArgs = decode(args)?;
            OpClass::DirModify { dir: a.dir, names: vec![a.name], extra: None, file: None }
        }
        proc3::MKDIR => {
            let a: n::MkdirArgs = decode(args)?;
            OpClass::DirModify { dir: a.dir, names: vec![a.name], extra: None, file: None }
        }
        proc3::SYMLINK => {
            let a: n::SymlinkArgs = decode(args)?;
            OpClass::DirModify { dir: a.dir, names: vec![a.name], extra: None, file: None }
        }
        proc3::REMOVE | proc3::RMDIR => {
            let a: n::DirOpArgs = decode(args)?;
            OpClass::DirModify { dir: a.dir, names: vec![a.name], extra: None, file: None }
        }
        proc3::RENAME => {
            let a: n::RenameArgs = decode(args)?;
            OpClass::DirModify {
                dir: a.from_dir,
                names: vec![a.from_name],
                extra: Some((a.to_dir, a.to_name)),
                file: None,
            }
        }
        proc3::LINK => {
            let a: n::LinkArgs = decode(args)?;
            OpClass::DirModify { dir: a.dir, names: vec![a.name], extra: None, file: Some(a.file) }
        }
        proc3::READDIR => {
            let a: n::ReaddirArgs = decode(args)?;
            OpClass::ReadDir { dir: a.dir }
        }
        proc3::READDIRPLUS => {
            let a: n::ReaddirplusArgs = decode(args)?;
            OpClass::ReadDir { dir: a.dir }
        }
        proc3::READLINK | proc3::NULL => OpClass::Other,
        _ => OpClass::Other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gvfs_nfs3::{CreateHow, Sattr3};

    #[test]
    fn classify_checks_a_write_without_keeping_its_payload() {
        let fh = Fh3::from_fileid(9);
        let args = gvfs_xdr::to_bytes(&gvfs_nfs3::WriteArgs {
            file: fh,
            offset: 4096,
            count: 5,
            stable: gvfs_nfs3::StableHow::Unstable,
            data: b"hello".to_vec(),
        })
        .unwrap();
        assert_eq!(classify(proc3::WRITE, &args).unwrap(), OpClass::Write { fh, offset: 4096 });
        // Truncated anywhere, in the payload or its padding, is garbage.
        for cut in [0, 8, args.len() - 4, args.len() - 1] {
            assert_eq!(
                classify(proc3::WRITE, &args[..cut]),
                Err(RpcError::GarbageArgs),
                "cut at {cut}"
            );
        }
        let mut padded = args.clone();
        *padded.last_mut().unwrap() = 1;
        assert_eq!(classify(proc3::WRITE, &padded), Err(RpcError::GarbageArgs), "padding");
        let mut trailing = args.clone();
        trailing.extend([0; 4]);
        assert_eq!(classify(proc3::WRITE, &trailing), Err(RpcError::GarbageArgs), "trailing");
        // The stable word sits before the 12 bytes of "hello" as opaque.
        let mut stable = args;
        let at = stable.len() - 16;
        stable[at..at + 4].copy_from_slice(&7u32.to_be_bytes());
        assert_eq!(classify(proc3::WRITE, &stable), Err(RpcError::GarbageArgs), "stable");
    }

    #[test]
    fn classify_covers_key_procedures() {
        let fh = Fh3::from_fileid(5);
        let args = gvfs_xdr::to_bytes(&gvfs_nfs3::GetattrArgs { object: fh }).unwrap();
        assert_eq!(classify(proc3::GETATTR, &args).unwrap(), OpClass::AttrRead { fh });

        let args =
            gvfs_xdr::to_bytes(&gvfs_nfs3::ReadArgs { file: fh, offset: 64, count: 32 }).unwrap();
        let c = classify(proc3::READ, &args).unwrap();
        assert_eq!(c, OpClass::Read { fh, offset: 64, count: 32 });
        assert!(!c.is_modification());

        let args = gvfs_xdr::to_bytes(&gvfs_nfs3::CreateArgs {
            dir: fh,
            name: "x".into(),
            how: CreateHow::Unchecked(Sattr3::default()),
        })
        .unwrap();
        let c = classify(proc3::CREATE, &args).unwrap();
        assert!(c.is_modification());
        assert_eq!(
            c,
            OpClass::DirModify { dir: fh, names: vec!["x".into()], extra: None, file: None }
        );
    }

    #[test]
    fn classify_rename_tracks_both_dirs() {
        let a = gvfs_nfs3::RenameArgs {
            from_dir: Fh3::from_fileid(1),
            from_name: "a".into(),
            to_dir: Fh3::from_fileid(2),
            to_name: "b".into(),
        };
        let c = classify(proc3::RENAME, &gvfs_xdr::to_bytes(&a).unwrap()).unwrap();
        let OpClass::DirModify { dir, extra, .. } = c else { panic!() };
        assert_eq!(dir, Fh3::from_fileid(1));
        assert_eq!(extra, Some((Fh3::from_fileid(2), "b".to_string())));
    }

    #[test]
    fn classify_garbage_is_error() {
        assert!(classify(proc3::READ, &[1, 2, 3]).is_err());
    }

    #[test]
    fn block_alignment() {
        assert_eq!(block_of(0), 0);
        assert_eq!(block_of(32767), 0);
        assert_eq!(block_of(32768), 32768);
        assert_eq!(block_of(40000), 32768);
    }
}
