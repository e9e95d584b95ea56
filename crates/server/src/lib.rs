//! The NFSv3 server: [`Nfs3Server`] implements
//! [`gvfs_rpc::dispatch::RpcService`] over a [`gvfs_vfs::Vfs`].
//!
//! This plays the role of the paper's kernel NFS server (knfsd exporting
//! an ext3 volume with synchronous writes). Every supported procedure
//! decodes RFC 1813 arguments, performs the operation on the backing
//! filesystem, and encodes a faithful result — including weak cache
//! consistency (`wcc_data`) pre/post attributes, which the client layers
//! rely on for cache validation.
//!
//! The server is time-agnostic: it is constructed with a clock callback
//! (in simulations, the virtual clock).
//!
//! # Examples
//!
//! ```
//! use gvfs_server::Nfs3Server;
//! use gvfs_rpc::dispatch::RpcService;
//! use gvfs_nfs3::{proc3, GetattrArgs, GetattrRes, NFS_PROGRAM};
//! use gvfs_vfs::{Timestamp, Vfs};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let vfs = Arc::new(Vfs::new());
//! let server = Nfs3Server::new(Arc::clone(&vfs), Arc::new(|| Timestamp::from_nanos(0)));
//! let root = server.root_fh();
//! let args = gvfs_xdr::to_bytes(&GetattrArgs { object: root })?;
//! let reply = server.call(proc3::GETATTR, &args)?;
//! assert!(matches!(gvfs_xdr::from_bytes::<GetattrRes>(&reply)?, GetattrRes::Ok(_)));
//! assert_eq!(server.program(), NFS_PROGRAM);
//! # Ok(())
//! # }
//! ```

use gvfs_nfs3::{
    access, proc3, AccessArgs, AccessRes, CommitArgs, CommitRes, CreateArgs, CreateHow, DirOpArgs,
    DirOpRes, Entry3, Fattr3, Fh3, FsinfoRes, FsstatRes, GetattrArgs, GetattrRes, LinkArgs,
    LinkRes, LookupArgs, LookupRes, MkdirArgs, Nfsstat3, PreOpAttr, ReadArgs, ReadRes, ReaddirArgs,
    ReaddirRes, ReadlinkArgs, ReadlinkRes, RenameArgs, RenameRes, Sattr3, SetattrArgs, SetattrRes,
    StableHow, SymlinkArgs, TimeHow, WccData, WriteArgs, WriteRes, NFS_PROGRAM, NFS_V3,
    TRANSFER_SIZE,
};
use gvfs_rpc::dispatch::RpcService;
use gvfs_rpc::RpcError;
use gvfs_vfs::{FileId, SetAttr, Timestamp, Vfs};
use gvfs_xdr::Xdr;
use std::sync::Arc;

/// Clock used to stamp mtimes/ctimes.
pub type Clock = Arc<dyn Fn() -> Timestamp + Send + Sync>;

/// An NFSv3 server over an in-memory filesystem.
///
/// See the [crate docs](crate) for an example.
pub struct Nfs3Server {
    vfs: Arc<Vfs>,
    clock: Clock,
    /// Write verifier: changes on every restart so clients can detect
    /// that unstable writes may have been lost.
    verf: u64,
}

impl std::fmt::Debug for Nfs3Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nfs3Server").field("verf", &self.verf).finish()
    }
}

impl Nfs3Server {
    /// Creates a server exporting `vfs`, stamping times from `clock`.
    pub fn new(vfs: Arc<Vfs>, clock: Clock) -> Self {
        Nfs3Server { vfs, clock, verf: 1 }
    }

    /// Creates a server with an explicit write verifier (use a fresh
    /// value when simulating a server restart).
    pub fn with_verifier(vfs: Arc<Vfs>, clock: Clock, verf: u64) -> Self {
        Nfs3Server { vfs, clock, verf }
    }

    /// The file handle of the export root.
    pub fn root_fh(&self) -> Fh3 {
        Fh3::from_fileid(self.vfs.root().as_u64())
    }

    /// The exported filesystem.
    pub fn vfs(&self) -> &Arc<Vfs> {
        &self.vfs
    }

    fn now(&self) -> Timestamp {
        (self.clock)()
    }

    fn attr(&self, fh: Fh3) -> Option<Fattr3> {
        self.vfs.getattr(FileId::from_u64(fh.fileid())).ok().map(Fattr3::from)
    }

    fn pre_attr(&self, fh: Fh3) -> PreOpAttr {
        self.vfs.getattr(FileId::from_u64(fh.fileid())).ok().map(Into::into)
    }

    fn apply_sattr(&self, id: FileId, sattr: &Sattr3) -> Result<(), Nfsstat3> {
        let now = self.now();
        let set = SetAttr {
            mode: sattr.mode,
            uid: sattr.uid,
            gid: sattr.gid,
            size: sattr.size,
            atime: match sattr.atime {
                TimeHow::DontChange => None,
                TimeHow::ServerTime => Some(now),
                TimeHow::Client(t) => Some(t.into()),
            },
            mtime: match sattr.mtime {
                TimeHow::DontChange => None,
                TimeHow::ServerTime => Some(now),
                TimeHow::Client(t) => Some(t.into()),
            },
        };
        if set.is_empty() {
            return Ok(());
        }
        self.vfs.setattr(id, set, now).map(|_| ()).map_err(Nfsstat3::from)
    }

    fn getattr(&self, args: GetattrArgs) -> GetattrRes {
        match self.vfs.getattr(FileId::from_u64(args.object.fileid())) {
            Ok(attr) => GetattrRes::Ok(attr.into()),
            Err(e) => GetattrRes::Fail(e.into()),
        }
    }

    fn setattr(&self, args: SetattrArgs) -> SetattrRes {
        let id = FileId::from_u64(args.object.fileid());
        let before = self.pre_attr(args.object);
        if let Some(guard) = args.guard {
            match self.vfs.getattr(id) {
                Ok(attr) if gvfs_nfs3::NfsTime3::from(attr.ctime) != guard => {
                    return SetattrRes {
                        status: Nfsstat3::NotSync,
                        obj_wcc: WccData { before, after: self.attr(args.object) },
                    };
                }
                Ok(_) => {}
                Err(e) => {
                    return SetattrRes { status: e.into(), obj_wcc: WccData::default() };
                }
            }
        }
        let status = match self.apply_sattr(id, &args.new_attributes) {
            Ok(()) => Nfsstat3::Ok,
            Err(s) => s,
        };
        SetattrRes { status, obj_wcc: WccData { before, after: self.attr(args.object) } }
    }

    fn lookup(&self, args: LookupArgs) -> LookupRes {
        let dir = FileId::from_u64(args.dir.fileid());
        match self.vfs.lookup(dir, &args.name) {
            Ok(found) => LookupRes::Ok {
                object: Fh3::from_fileid(found.as_u64()),
                obj_attributes: self.attr(Fh3::from_fileid(found.as_u64())),
                dir_attributes: self.attr(args.dir),
            },
            Err(e) => LookupRes::Fail { status: e.into(), dir_attributes: self.attr(args.dir) },
        }
    }

    fn access(&self, args: AccessArgs) -> AccessRes {
        // The export has ACLs disabled (as in the paper's setup): grant
        // everything that makes sense for the object type.
        match self.vfs.getattr(FileId::from_u64(args.object.fileid())) {
            Ok(attr) => {
                let granted = match attr.kind {
                    gvfs_vfs::FileKind::Directory => {
                        access::READ
                            | access::LOOKUP
                            | access::MODIFY
                            | access::EXTEND
                            | access::DELETE
                    }
                    _ => access::READ | access::MODIFY | access::EXTEND | access::EXECUTE,
                };
                AccessRes::Ok { obj_attributes: Some(attr.into()), access: granted & args.access }
            }
            Err(e) => AccessRes::Fail { status: e.into(), obj_attributes: None },
        }
    }

    fn readlink(&self, args: ReadlinkArgs) -> ReadlinkRes {
        match self.vfs.readlink(FileId::from_u64(args.symlink.fileid())) {
            Ok(data) => ReadlinkRes::Ok { symlink_attributes: self.attr(args.symlink), data },
            Err(e) => {
                ReadlinkRes::Fail { status: e.into(), symlink_attributes: self.attr(args.symlink) }
            }
        }
    }

    fn read(&self, args: ReadArgs) -> ReadRes {
        let count = args.count.min(TRANSFER_SIZE);
        match self.vfs.read(FileId::from_u64(args.file.fileid()), args.offset, count) {
            Ok((data, eof)) => ReadRes::Ok {
                file_attributes: self.attr(args.file),
                count: data.len() as u32,
                eof,
                data,
            },
            Err(e) => ReadRes::Fail { status: e.into(), file_attributes: self.attr(args.file) },
        }
    }

    fn write(&self, args: WriteArgs) -> WriteRes {
        let before = self.pre_attr(args.file);
        let data = &args.data[..args.data.len().min(args.count as usize)];
        match self.vfs.write(FileId::from_u64(args.file.fileid()), args.offset, data, self.now()) {
            Ok(attr) => WriteRes::Ok {
                file_wcc: WccData { before, after: Some(attr.into()) },
                count: data.len() as u32,
                // The export is synchronous: all writes are stable.
                committed: StableHow::FileSync,
                verf: self.verf,
            },
            Err(e) => WriteRes::Fail {
                status: e.into(),
                file_wcc: WccData { before, after: self.attr(args.file) },
            },
        }
    }

    fn create(&self, args: CreateArgs) -> gvfs_nfs3::NewObjRes {
        let dir = FileId::from_u64(args.dir.fileid());
        let before = self.pre_attr(args.dir);
        let now = self.now();
        let (result, sattr) = match &args.how {
            CreateHow::Unchecked(sattr) => (
                self.vfs.create_unchecked(dir, &args.name, sattr.mode.unwrap_or(0o644), now),
                Some(*sattr),
            ),
            CreateHow::Guarded(sattr) => {
                (self.vfs.create(dir, &args.name, sattr.mode.unwrap_or(0o644), now), Some(*sattr))
            }
            CreateHow::Exclusive(_verf) => (self.vfs.create(dir, &args.name, 0o644, now), None),
        };
        match result {
            Ok(id) => {
                if let Some(sattr) = sattr {
                    // Only size matters post-create (mode was set above).
                    if sattr.size.is_some() {
                        let _ = self
                            .apply_sattr(id, &Sattr3 { size: sattr.size, ..Default::default() });
                    }
                }
                let fh = Fh3::from_fileid(id.as_u64());
                gvfs_nfs3::NewObjRes::Ok {
                    obj: Some(fh),
                    obj_attributes: self.attr(fh),
                    dir_wcc: WccData { before, after: self.attr(args.dir) },
                }
            }
            Err(e) => gvfs_nfs3::NewObjRes::Fail {
                status: e.into(),
                dir_wcc: WccData { before, after: self.attr(args.dir) },
            },
        }
    }

    fn mkdir(&self, args: MkdirArgs) -> gvfs_nfs3::NewObjRes {
        let dir = FileId::from_u64(args.dir.fileid());
        let before = self.pre_attr(args.dir);
        match self.vfs.mkdir(dir, &args.name, args.attributes.mode.unwrap_or(0o755), self.now()) {
            Ok(id) => {
                let fh = Fh3::from_fileid(id.as_u64());
                gvfs_nfs3::NewObjRes::Ok {
                    obj: Some(fh),
                    obj_attributes: self.attr(fh),
                    dir_wcc: WccData { before, after: self.attr(args.dir) },
                }
            }
            Err(e) => gvfs_nfs3::NewObjRes::Fail {
                status: e.into(),
                dir_wcc: WccData { before, after: self.attr(args.dir) },
            },
        }
    }

    fn symlink(&self, args: SymlinkArgs) -> gvfs_nfs3::NewObjRes {
        let dir = FileId::from_u64(args.dir.fileid());
        let before = self.pre_attr(args.dir);
        match self.vfs.symlink(dir, &args.name, &args.symlink_data, self.now()) {
            Ok(id) => {
                let fh = Fh3::from_fileid(id.as_u64());
                gvfs_nfs3::NewObjRes::Ok {
                    obj: Some(fh),
                    obj_attributes: self.attr(fh),
                    dir_wcc: WccData { before, after: self.attr(args.dir) },
                }
            }
            Err(e) => gvfs_nfs3::NewObjRes::Fail {
                status: e.into(),
                dir_wcc: WccData { before, after: self.attr(args.dir) },
            },
        }
    }

    fn remove(&self, args: DirOpArgs, is_rmdir: bool) -> DirOpRes {
        let dir = FileId::from_u64(args.dir.fileid());
        let before = self.pre_attr(args.dir);
        let result = if is_rmdir {
            self.vfs.rmdir(dir, &args.name, self.now())
        } else {
            self.vfs.remove(dir, &args.name, self.now())
        };
        DirOpRes {
            status: result.map(|()| Nfsstat3::Ok).unwrap_or_else(Nfsstat3::from),
            dir_wcc: WccData { before, after: self.attr(args.dir) },
        }
    }

    fn rename(&self, args: RenameArgs) -> RenameRes {
        let from_before = self.pre_attr(args.from_dir);
        let to_before = self.pre_attr(args.to_dir);
        let result = self.vfs.rename(
            FileId::from_u64(args.from_dir.fileid()),
            &args.from_name,
            FileId::from_u64(args.to_dir.fileid()),
            &args.to_name,
            self.now(),
        );
        RenameRes {
            status: result.map(|()| Nfsstat3::Ok).unwrap_or_else(Nfsstat3::from),
            fromdir_wcc: WccData { before: from_before, after: self.attr(args.from_dir) },
            todir_wcc: WccData { before: to_before, after: self.attr(args.to_dir) },
        }
    }

    fn link(&self, args: LinkArgs) -> LinkRes {
        let before = self.pre_attr(args.dir);
        let result = self.vfs.link(
            FileId::from_u64(args.file.fileid()),
            FileId::from_u64(args.dir.fileid()),
            &args.name,
            self.now(),
        );
        LinkRes {
            status: result.map(|()| Nfsstat3::Ok).unwrap_or_else(Nfsstat3::from),
            file_attributes: self.attr(args.file),
            linkdir_wcc: WccData { before, after: self.attr(args.dir) },
        }
    }

    fn readdir(&self, args: ReaddirArgs) -> ReaddirRes {
        // Approximate the byte budget as ~48 bytes per entry.
        let max_entries = ((args.count as usize).saturating_sub(64) / 48).max(1);
        match self.vfs.readdir(FileId::from_u64(args.dir.fileid()), args.cookie, max_entries) {
            Ok(page) => ReaddirRes::Ok {
                dir_attributes: self.attr(args.dir),
                cookieverf: 1,
                entries: page
                    .entries
                    .into_iter()
                    .map(|e| Entry3 { fileid: e.fileid.as_u64(), name: e.name, cookie: e.cookie })
                    .collect(),
                eof: page.eof,
            },
            Err(e) => ReaddirRes::Fail { status: e.into(), dir_attributes: self.attr(args.dir) },
        }
    }

    fn readdirplus(&self, args: gvfs_nfs3::ReaddirplusArgs) -> gvfs_nfs3::ReaddirplusRes {
        use gvfs_nfs3::{EntryPlus3, ReaddirplusRes};
        // Budget ≈ 200 bytes per entry (name + cookie + fattr3 + fh).
        let max_entries = ((args.maxcount as usize).saturating_sub(88) / 200).max(1);
        match self.vfs.readdir(FileId::from_u64(args.dir.fileid()), args.cookie, max_entries) {
            Ok(page) => ReaddirplusRes::Ok {
                dir_attributes: self.attr(args.dir),
                cookieverf: 1,
                entries: page
                    .entries
                    .into_iter()
                    .map(|e| {
                        let fh = Fh3::from_fileid(e.fileid.as_u64());
                        EntryPlus3 {
                            fileid: e.fileid.as_u64(),
                            name: e.name,
                            cookie: e.cookie,
                            name_attributes: self.attr(fh),
                            name_handle: Some(fh),
                        }
                    })
                    .collect(),
                eof: page.eof,
            },
            Err(e) => {
                ReaddirplusRes::Fail { status: e.into(), dir_attributes: self.attr(args.dir) }
            }
        }
    }

    fn fsstat(&self, root: Fh3) -> FsstatRes {
        let stat = self.vfs.fsstat();
        let total: u64 = 1 << 40;
        FsstatRes::Ok {
            obj_attributes: self.attr(root),
            tbytes: total,
            fbytes: total - stat.used_bytes,
            abytes: total - stat.used_bytes,
            tfiles: 1 << 24,
            ffiles: (1 << 24) - stat.objects,
            afiles: (1 << 24) - stat.objects,
            invarsec: 0,
        }
    }

    fn fsinfo(&self, root: Fh3) -> FsinfoRes {
        FsinfoRes::Ok {
            obj_attributes: self.attr(root),
            rtmax: TRANSFER_SIZE,
            rtpref: TRANSFER_SIZE,
            wtmax: TRANSFER_SIZE,
            wtpref: TRANSFER_SIZE,
            dtpref: 4096,
            maxfilesize: u64::MAX,
        }
    }

    fn commit(&self, args: CommitArgs) -> CommitRes {
        // All writes are synchronous, so commit is a no-op.
        match self.vfs.getattr(FileId::from_u64(args.file.fileid())) {
            Ok(attr) => CommitRes::Ok {
                file_wcc: WccData { before: Some(attr.into()), after: Some(attr.into()) },
                verf: self.verf,
            },
            Err(e) => CommitRes::Fail { status: e.into(), file_wcc: WccData::default() },
        }
    }
}

/// The MOUNT protocol service (RFC 1813 Appendix I): maps export paths
/// to root file handles and lists the export table. Register it next to
/// the [`Nfs3Server`] on the same node.
///
/// # Examples
///
/// ```
/// use gvfs_server::{MountServer, Nfs3Server};
/// use gvfs_rpc::dispatch::RpcService;
/// use gvfs_nfs3::mount::{mount_proc, MntArgs, MntRes};
/// use gvfs_vfs::{Timestamp, Vfs};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let vfs = Arc::new(Vfs::new());
/// let mount = MountServer::new(Arc::clone(&vfs), "/export/grid");
/// let args = gvfs_xdr::to_bytes(&MntArgs { dirpath: "/export/grid".into() })?;
/// let reply = mount.call(mount_proc::MNT, &args)?;
/// let res: MntRes = gvfs_xdr::from_bytes(&reply)?;
/// assert!(matches!(res, MntRes::Ok { .. }));
/// # Ok(())
/// # }
/// ```
pub struct MountServer {
    vfs: Arc<Vfs>,
    export_path: String,
    /// Client machine names with active mounts (the DUMP/UMNT ledger).
    mounts: parking_lot::Mutex<std::collections::HashSet<String>>,
}

impl std::fmt::Debug for MountServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MountServer").field("export", &self.export_path).finish()
    }
}

impl MountServer {
    /// Creates a mount service exporting the root of `vfs` as
    /// `export_path`.
    pub fn new(vfs: Arc<Vfs>, export_path: &str) -> Self {
        MountServer {
            vfs,
            export_path: export_path.to_string(),
            mounts: parking_lot::Mutex::new(std::collections::HashSet::new()),
        }
    }

    #[cfg(test)]
    fn active_mounts(&self) -> usize {
        self.mounts.lock().len()
    }

    fn mnt(&self, args: gvfs_nfs3::mount::MntArgs, client: &str) -> gvfs_nfs3::mount::MntRes {
        use gvfs_nfs3::mount::{MntRes, MountStat3};
        if args.dirpath != self.export_path {
            return MntRes::Fail(MountStat3::Noent);
        }
        self.mounts.lock().insert(client.to_string());
        MntRes::Ok {
            fhandle: Fh3::from_fileid(self.vfs.root().as_u64()),
            auth_flavors: vec![gvfs_rpc::message::AUTH_NONE, gvfs_rpc::message::AUTH_SYS],
        }
    }
}

impl RpcService for MountServer {
    fn program(&self) -> u32 {
        gvfs_nfs3::mount::MOUNT_PROGRAM
    }
    fn version(&self) -> u32 {
        gvfs_nfs3::mount::MOUNT_V3
    }
    fn call(&self, procedure: u32, payload: &[u8]) -> Result<Vec<u8>, RpcError> {
        self.call_with_cred(procedure, payload, &gvfs_rpc::message::OpaqueAuth::none())
    }
    fn call_with_cred(
        &self,
        procedure: u32,
        payload: &[u8],
        credential: &gvfs_rpc::message::OpaqueAuth,
    ) -> Result<Vec<u8>, RpcError> {
        use gvfs_nfs3::mount::{mount_proc, ExportEntry, ExportRes};
        let client =
            credential.as_sys().map(|c| c.machine_name).unwrap_or_else(|_| "anonymous".to_string());
        match procedure {
            mount_proc::NULL => Ok(Vec::new()),
            mount_proc::MNT => reply(&self.mnt(args(payload)?, &client)),
            mount_proc::UMNT => {
                let _: gvfs_nfs3::mount::MntArgs = args(payload)?;
                self.mounts.lock().remove(&client);
                Ok(Vec::new())
            }
            mount_proc::UMNTALL => {
                self.mounts.lock().remove(&client);
                Ok(Vec::new())
            }
            mount_proc::EXPORT => reply(&ExportRes {
                exports: vec![ExportEntry { dirpath: self.export_path.clone(), groups: vec![] }],
            }),
            p => Err(RpcError::ProcedureUnavailable {
                program: gvfs_nfs3::mount::MOUNT_PROGRAM,
                procedure: p,
            }),
        }
    }
}

fn reply<T: Xdr>(value: &T) -> Result<Vec<u8>, RpcError> {
    Ok(gvfs_xdr::to_bytes(value)?)
}

fn args<T: Xdr>(bytes: &[u8]) -> Result<T, RpcError> {
    gvfs_xdr::from_bytes(bytes).map_err(|_| RpcError::GarbageArgs)
}

impl RpcService for Nfs3Server {
    fn program(&self) -> u32 {
        NFS_PROGRAM
    }
    fn version(&self) -> u32 {
        NFS_V3
    }
    fn call(&self, procedure: u32, payload: &[u8]) -> Result<Vec<u8>, RpcError> {
        match procedure {
            proc3::NULL => Ok(Vec::new()),
            proc3::GETATTR => reply(&self.getattr(args(payload)?)),
            proc3::SETATTR => reply(&self.setattr(args(payload)?)),
            proc3::LOOKUP => reply(&self.lookup(args(payload)?)),
            proc3::ACCESS => reply(&self.access(args(payload)?)),
            proc3::READLINK => reply(&self.readlink(args(payload)?)),
            proc3::READ => reply(&self.read(args(payload)?)),
            proc3::WRITE => reply(&self.write(args(payload)?)),
            proc3::CREATE => reply(&self.create(args(payload)?)),
            proc3::MKDIR => reply(&self.mkdir(args(payload)?)),
            proc3::SYMLINK => reply(&self.symlink(args(payload)?)),
            proc3::REMOVE => reply(&self.remove(args(payload)?, false)),
            proc3::RMDIR => reply(&self.remove(args(payload)?, true)),
            proc3::RENAME => reply(&self.rename(args(payload)?)),
            proc3::LINK => reply(&self.link(args(payload)?)),
            proc3::READDIR => reply(&self.readdir(args(payload)?)),
            proc3::READDIRPLUS => reply(&self.readdirplus(args(payload)?)),
            proc3::FSSTAT => reply(&self.fsstat(args::<GetattrArgs>(payload)?.object)),
            proc3::FSINFO => reply(&self.fsinfo(args::<GetattrArgs>(payload)?.object)),
            proc3::COMMIT => reply(&self.commit(args(payload)?)),
            _ => Err(RpcError::ProcedureUnavailable { program: NFS_PROGRAM, procedure }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_clock(nanos: u64) -> Clock {
        Arc::new(move || Timestamp::from_nanos(nanos))
    }

    fn server() -> Nfs3Server {
        Nfs3Server::new(Arc::new(Vfs::new()), fixed_clock(1_000_000_000))
    }

    fn call<A: Xdr, R: Xdr>(s: &Nfs3Server, procedure: u32, a: &A) -> R {
        let bytes = s.call(procedure, &gvfs_xdr::to_bytes(a).unwrap()).unwrap();
        gvfs_xdr::from_bytes(&bytes).unwrap()
    }

    #[test]
    fn null_returns_empty() {
        assert!(server().call(proc3::NULL, &[]).unwrap().is_empty());
    }

    #[test]
    fn create_lookup_read_write_flow() {
        let s = server();
        let root = s.root_fh();
        let created: gvfs_nfs3::NewObjRes = call(
            &s,
            proc3::CREATE,
            &CreateArgs {
                dir: root,
                name: "data.txt".into(),
                how: CreateHow::Guarded(Sattr3::default()),
            },
        );
        let gvfs_nfs3::NewObjRes::Ok { obj: Some(fh), .. } = created else {
            panic!("create failed: {created:?}")
        };
        let written: WriteRes = call(
            &s,
            proc3::WRITE,
            &WriteArgs {
                file: fh,
                offset: 0,
                count: 5,
                stable: StableHow::FileSync,
                data: b"hello".to_vec(),
            },
        );
        assert!(matches!(written, WriteRes::Ok { count: 5, committed: StableHow::FileSync, .. }));
        let read: ReadRes = call(&s, proc3::READ, &ReadArgs { file: fh, offset: 0, count: 100 });
        let ReadRes::Ok { data, eof, .. } = read else { panic!("read failed") };
        assert_eq!(data, b"hello");
        assert!(eof);
        let looked: LookupRes =
            call(&s, proc3::LOOKUP, &LookupArgs { dir: root, name: "data.txt".into() });
        assert!(matches!(looked, LookupRes::Ok { object, .. } if object == fh));
    }

    #[test]
    fn lookup_missing_is_noent_with_dir_attrs() {
        let s = server();
        let res: LookupRes =
            call(&s, proc3::LOOKUP, &LookupArgs { dir: s.root_fh(), name: "ghost".into() });
        let LookupRes::Fail { status, dir_attributes } = res else { panic!("expected failure") };
        assert_eq!(status, Nfsstat3::Noent);
        assert!(dir_attributes.is_some(), "failed lookup still returns dir attrs");
    }

    #[test]
    fn stale_handle_reported() {
        let s = server();
        let res: GetattrRes =
            call(&s, proc3::GETATTR, &GetattrArgs { object: Fh3::from_fileid(9999) });
        assert_eq!(res, GetattrRes::Fail(Nfsstat3::Stale));
    }

    #[test]
    fn write_carries_wcc_before_and_after() {
        let s = server();
        let created: gvfs_nfs3::NewObjRes = call(
            &s,
            proc3::CREATE,
            &CreateArgs {
                dir: s.root_fh(),
                name: "w".into(),
                how: CreateHow::Unchecked(Sattr3::default()),
            },
        );
        let gvfs_nfs3::NewObjRes::Ok { obj: Some(fh), .. } = created else { panic!() };
        let res: WriteRes = call(
            &s,
            proc3::WRITE,
            &WriteArgs {
                file: fh,
                offset: 0,
                count: 3,
                stable: StableHow::Unstable,
                data: vec![1, 2, 3],
            },
        );
        let WriteRes::Ok { file_wcc, .. } = res else { panic!() };
        assert_eq!(file_wcc.before.unwrap().size, 0);
        assert_eq!(file_wcc.after.unwrap().size, 3);
    }

    #[test]
    fn guarded_create_conflict() {
        let s = server();
        let mk = |name: &str| CreateArgs {
            dir: s.root_fh(),
            name: name.into(),
            how: CreateHow::Guarded(Sattr3::default()),
        };
        let _: gvfs_nfs3::NewObjRes = call(&s, proc3::CREATE, &mk("a"));
        let res: gvfs_nfs3::NewObjRes = call(&s, proc3::CREATE, &mk("a"));
        assert!(matches!(res, gvfs_nfs3::NewObjRes::Fail { status: Nfsstat3::Exist, .. }));
    }

    #[test]
    fn link_then_remove_keeps_file_alive() {
        let s = server();
        let root = s.root_fh();
        let created: gvfs_nfs3::NewObjRes = call(
            &s,
            proc3::CREATE,
            &CreateArgs {
                dir: root,
                name: "orig".into(),
                how: CreateHow::Unchecked(Sattr3::default()),
            },
        );
        let gvfs_nfs3::NewObjRes::Ok { obj: Some(fh), .. } = created else { panic!() };
        let linked: LinkRes =
            call(&s, proc3::LINK, &LinkArgs { file: fh, dir: root, name: "alias".into() });
        assert_eq!(linked.status, Nfsstat3::Ok);
        assert_eq!(linked.file_attributes.unwrap().nlink, 2);
        let removed: DirOpRes =
            call(&s, proc3::REMOVE, &DirOpArgs { dir: root, name: "orig".into() });
        assert_eq!(removed.status, Nfsstat3::Ok);
        let res: GetattrRes = call(&s, proc3::GETATTR, &GetattrArgs { object: fh });
        assert!(matches!(res, GetattrRes::Ok(a) if a.nlink == 1));
    }

    #[test]
    fn readdir_paginates_with_count_budget() {
        let s = server();
        let vfs = s.vfs();
        for i in 0..50 {
            vfs.create(vfs.root(), &format!("f{i:02}"), 0o644, Timestamp::default()).unwrap();
        }
        let first: ReaddirRes = call(
            &s,
            proc3::READDIR,
            &ReaddirArgs { dir: s.root_fh(), cookie: 0, cookieverf: 0, count: 1024 },
        );
        let ReaddirRes::Ok { entries, eof, .. } = first else { panic!() };
        assert!(!eof);
        assert!(!entries.is_empty() && entries.len() < 50);
        let resume = entries.last().unwrap().cookie;
        let rest: ReaddirRes = call(
            &s,
            proc3::READDIR,
            &ReaddirArgs { dir: s.root_fh(), cookie: resume, cookieverf: 1, count: 1 << 20 },
        );
        let ReaddirRes::Ok { entries: rest_entries, eof: true, .. } = rest else { panic!() };
        assert_eq!(entries.len() + rest_entries.len(), 50);
    }

    #[test]
    fn setattr_guard_mismatch_is_not_sync() {
        let s = server();
        let created: gvfs_nfs3::NewObjRes = call(
            &s,
            proc3::CREATE,
            &CreateArgs {
                dir: s.root_fh(),
                name: "g".into(),
                how: CreateHow::Unchecked(Sattr3::default()),
            },
        );
        let gvfs_nfs3::NewObjRes::Ok { obj: Some(fh), .. } = created else { panic!() };
        let res: SetattrRes = call(
            &s,
            proc3::SETATTR,
            &SetattrArgs {
                object: fh,
                new_attributes: Sattr3 { size: Some(1), ..Default::default() },
                guard: Some(gvfs_nfs3::NfsTime3 { seconds: 77, nseconds: 0 }),
            },
        );
        assert_eq!(res.status, Nfsstat3::NotSync);
    }

    #[test]
    fn fsinfo_advertises_transfer_sizes() {
        let s = server();
        let res: FsinfoRes = call(&s, proc3::FSINFO, &GetattrArgs { object: s.root_fh() });
        assert!(matches!(res, FsinfoRes::Ok { rtmax: TRANSFER_SIZE, wtmax: TRANSFER_SIZE, .. }));
    }

    #[test]
    fn read_caps_at_transfer_size() {
        let s = server();
        let vfs = s.vfs();
        let f = vfs.create(vfs.root(), "big", 0o644, Timestamp::default()).unwrap();
        vfs.write(f, 0, &vec![7u8; 100_000], Timestamp::default()).unwrap();
        let res: ReadRes = call(
            &s,
            proc3::READ,
            &ReadArgs { file: Fh3::from_fileid(f.as_u64()), offset: 0, count: 100_000 },
        );
        let ReadRes::Ok { count, eof, .. } = res else { panic!() };
        assert_eq!(count, TRANSFER_SIZE);
        assert!(!eof);
    }

    #[test]
    fn garbage_args_rejected() {
        let s = server();
        assert_eq!(s.call(proc3::GETATTR, &[1, 2]).unwrap_err(), RpcError::GarbageArgs);
    }

    #[test]
    fn unknown_procedure_rejected() {
        let s = server();
        assert!(matches!(
            s.call(99, &[]).unwrap_err(),
            RpcError::ProcedureUnavailable { procedure: 99, .. }
        ));
    }

    #[test]
    fn readdirplus_returns_attrs_and_handles() {
        use gvfs_nfs3::{ReaddirplusArgs, ReaddirplusRes};
        let s = server();
        let vfs = s.vfs();
        for i in 0..5 {
            let f = vfs.create(vfs.root(), &format!("p{i}"), 0o644, Timestamp::default()).unwrap();
            vfs.write(f, 0, &[7u8; 10], Timestamp::default()).unwrap();
        }
        let res: ReaddirplusRes = call(
            &s,
            proc3::READDIRPLUS,
            &ReaddirplusArgs {
                dir: s.root_fh(),
                cookie: 0,
                cookieverf: 0,
                dircount: 8192,
                maxcount: 32768,
            },
        );
        let ReaddirplusRes::Ok { entries, eof: true, .. } = res else { panic!("{res:?}") };
        assert_eq!(entries.len(), 5);
        for e in &entries {
            let attr = e.name_attributes.expect("attrs supplied");
            assert_eq!(attr.size, 10);
            assert_eq!(e.name_handle.expect("handle supplied").fileid(), e.fileid);
        }
    }

    #[test]
    fn mount_protocol_bootstrap() {
        use gvfs_nfs3::mount::{mount_proc, ExportRes, MntArgs, MntRes, MountStat3};
        let vfs = Arc::new(Vfs::new());
        let mount = MountServer::new(Arc::clone(&vfs), "/export/grid");
        // Listing the exports.
        let exports: ExportRes =
            gvfs_xdr::from_bytes(&mount.call(mount_proc::EXPORT, &[]).unwrap()).unwrap();
        assert_eq!(exports.exports.len(), 1);
        assert_eq!(exports.exports[0].dirpath, "/export/grid");
        // Mounting the right path yields the root handle.
        let ok: MntRes = gvfs_xdr::from_bytes(
            &mount
                .call(
                    mount_proc::MNT,
                    &gvfs_xdr::to_bytes(&MntArgs { dirpath: "/export/grid".into() }).unwrap(),
                )
                .unwrap(),
        )
        .unwrap();
        let MntRes::Ok { fhandle, auth_flavors } = ok else { panic!("{ok:?}") };
        assert_eq!(fhandle.fileid(), vfs.root().as_u64());
        assert!(auth_flavors.contains(&gvfs_rpc::message::AUTH_SYS));
        assert_eq!(mount.active_mounts(), 1);
        // A wrong path is refused.
        let bad: MntRes = gvfs_xdr::from_bytes(
            &mount
                .call(
                    mount_proc::MNT,
                    &gvfs_xdr::to_bytes(&MntArgs { dirpath: "/wrong".into() }).unwrap(),
                )
                .unwrap(),
        )
        .unwrap();
        assert_eq!(bad, MntRes::Fail(MountStat3::Noent));
        // Unmount clears the ledger.
        mount
            .call(
                mount_proc::UMNT,
                &gvfs_xdr::to_bytes(&MntArgs { dirpath: "/export/grid".into() }).unwrap(),
            )
            .unwrap();
        assert_eq!(mount.active_mounts(), 0);
    }

    #[test]
    fn commit_is_noop_on_sync_export() {
        let s = server();
        let created: gvfs_nfs3::NewObjRes = call(
            &s,
            proc3::CREATE,
            &CreateArgs {
                dir: s.root_fh(),
                name: "c".into(),
                how: CreateHow::Unchecked(Sattr3::default()),
            },
        );
        let gvfs_nfs3::NewObjRes::Ok { obj: Some(fh), .. } = created else { panic!() };
        let res: CommitRes = call(&s, proc3::COMMIT, &CommitArgs { file: fh, offset: 0, count: 0 });
        assert!(matches!(res, CommitRes::Ok { verf: 1, .. }));
    }
}
