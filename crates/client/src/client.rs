//! The NFS client proper: path walking, cache policy and RPC plumbing.

use crate::cache::{AttrCache, LookupCache, PageCache};
use crate::options::MountOptions;
use gvfs_netsim::transport::SimRpcClient;
use gvfs_nfs3::{
    proc3, CommitArgs, CommitRes, CreateArgs, CreateHow, DirOpArgs, DirOpRes, Entry3, Fattr3, Fh3,
    Ftype3, GetattrArgs, GetattrRes, LinkArgs, LinkRes, LookupArgs, LookupRes, MkdirArgs, Nfsstat3,
    ReadArgs, ReadRes, ReaddirArgs, ReaddirRes, RenameArgs, RenameRes, Sattr3, SetattrArgs,
    SetattrRes, StableHow, WriteArgs, WriteRes, NFS_PROGRAM, NFS_V3, TRANSFER_SIZE,
};
use gvfs_rpc::RpcError;
use gvfs_xdr::Xdr;
use parking_lot::Mutex;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Lookup (dnlc) cache capacity in entries.
const LOOKUP_CACHE_ENTRIES: usize = 4096;

/// Maximum RPC retries before giving up (hard mounts retry long).
const MAX_RETRIES: u32 = 120;

/// An error from a client file operation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClientError {
    /// The server returned an NFS error status.
    Nfs(Nfsstat3),
    /// The RPC layer failed (after retries, for transport errors).
    Rpc(RpcError),
    /// The path was malformed (empty component, not absolute).
    InvalidPath,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Nfs(status) => write!(f, "nfs error: {status}"),
            ClientError::Rpc(e) => write!(f, "rpc error: {e}"),
            ClientError::InvalidPath => write!(f, "invalid path"),
        }
    }
}

impl Error for ClientError {}

impl From<RpcError> for ClientError {
    fn from(e: RpcError) -> Self {
        ClientError::Rpc(e)
    }
}

impl From<Nfsstat3> for ClientError {
    fn from(s: Nfsstat3) -> Self {
        ClientError::Nfs(s)
    }
}

/// Bootstraps a mount the way `mount(8)` does: asks the transport's
/// MOUNT service for the export's root file handle.
///
/// # Errors
///
/// [`ClientError::Nfs`] with [`Nfsstat3::Noent`] when the export path is
/// unknown; transport errors otherwise.
///
/// # Panics
///
/// Panics when called outside a simulation actor.
pub fn mount(transport: &SimRpcClient, export_path: &str) -> Result<Fh3, ClientError> {
    use gvfs_nfs3::mount::{mount_proc, MntArgs, MntRes, MOUNT_PROGRAM, MOUNT_V3};
    let args = gvfs_xdr::to_bytes(&MntArgs { dirpath: export_path.to_string() })
        .map_err(RpcError::from)?;
    let bytes = transport.call(MOUNT_PROGRAM, MOUNT_V3, mount_proc::MNT, args)?;
    let res: MntRes = gvfs_xdr::from_bytes(&bytes).map_err(RpcError::from)?;
    match res {
        MntRes::Ok { fhandle, .. } => Ok(fhandle),
        MntRes::Fail(_) => Err(ClientError::Nfs(Nfsstat3::Noent)),
    }
}

/// A directory entry as returned by [`NfsClient::readdir_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntryInfo {
    /// File id.
    pub fileid: u64,
    /// Entry name.
    pub name: String,
}

#[derive(Debug)]
struct Caches {
    attrs: AttrCache,
    lookups: LookupCache,
    pages: PageCache,
}

/// The kernel NFS client emulation.
///
/// One instance models one client machine's kernel NFS mount. Its file
/// operations must run inside a simulation actor (they advance virtual
/// time through the transport). See the [crate docs](crate) for the
/// behavioural model.
pub struct NfsClient {
    transport: SimRpcClient,
    root: Fh3,
    opts: MountOptions,
    caches: Mutex<Caches>,
}

impl fmt::Debug for NfsClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NfsClient").field("root", &self.root).finish()
    }
}

impl NfsClient {
    /// Creates a client mounted at `root` over `transport`.
    pub fn new(transport: SimRpcClient, root: Fh3, opts: MountOptions) -> Self {
        let caches = Caches {
            attrs: AttrCache::new(),
            lookups: LookupCache::new(LOOKUP_CACHE_ENTRIES),
            pages: PageCache::new(opts.page_cache_bytes, TRANSFER_SIZE as usize),
        };
        NfsClient { transport, root, opts, caches: Mutex::new(caches) }
    }

    /// The mount's root file handle.
    pub fn root(&self) -> Fh3 {
        self.root
    }

    /// The mount options in effect.
    pub fn options(&self) -> &MountOptions {
        &self.opts
    }

    /// Empties every cache, as unmounting and remounting would
    /// (experiments start cold).
    pub fn drop_caches(&self) {
        let mut c = self.caches.lock();
        c.attrs.invalidate_all();
        c.lookups.clear();
        c.pages.clear();
    }

    fn min_timeout(&self, is_dir: bool) -> Duration {
        if self.opts.noac {
            return Duration::ZERO;
        }
        if is_dir {
            self.opts.acdirmin
        } else {
            self.opts.acregmin
        }
    }

    fn max_timeout(&self, is_dir: bool) -> Duration {
        if self.opts.noac {
            return Duration::ZERO;
        }
        if is_dir {
            self.opts.acdirmax
        } else {
            self.opts.acregmax
        }
    }

    /// One RPC with hard-mount retry semantics. Each attempt encodes its
    /// own message, so the common single attempt costs one buffer.
    fn rpc<A: Xdr, R: Xdr>(&self, procedure: u32, a: &A) -> Result<R, ClientError> {
        let mut attempts = 0;
        loop {
            let args = gvfs_xdr::to_bytes(a).map_err(RpcError::from)?;
            match self.transport.call(NFS_PROGRAM, NFS_V3, procedure, args) {
                Ok(bytes) => {
                    return Ok(gvfs_xdr::from_bytes(&bytes).map_err(RpcError::from)?);
                }
                Err(RpcError::Timeout | RpcError::Unreachable) if attempts < MAX_RETRIES => {
                    attempts += 1;
                    gvfs_netsim::sleep(self.opts.retry_backoff);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Absorbs post-op attributes the way the kernel does: update the
    /// attribute cache, and if the mtime moved against our cached pages,
    /// purge them.
    fn note_attrs(&self, fh: Fh3, attr: Fattr3) {
        let now = gvfs_netsim::now();
        let is_dir = attr.ftype == Ftype3::Dir;
        let mut c = self.caches.lock();
        let old_mtime = c.attrs.insert(fh, attr, now, self.min_timeout(is_dir));
        if is_dir {
            if old_mtime.is_some_and(|m| m != attr.mtime) {
                c.lookups.purge_dir(fh);
            }
        } else if c.pages.mtime_tag(fh).is_some_and(|m| m != attr.mtime) {
            c.pages.invalidate_file(fh);
        }
    }

    /// Attributes of `fh`, served from cache when fresh, revalidated with
    /// a `GETATTR` otherwise.
    ///
    /// # Errors
    ///
    /// NFS or transport errors.
    pub fn getattr(&self, fh: Fh3) -> Result<Fattr3, ClientError> {
        let now = gvfs_netsim::now();
        if !self.opts.noac {
            if let Some(attr) = self.caches.lock().attrs.fresh(fh, now) {
                return Ok(attr);
            }
        }
        self.getattr_force(fh)
    }

    /// Unconditional `GETATTR` revalidation (the close-to-open open path).
    ///
    /// # Errors
    ///
    /// NFS or transport errors.
    pub fn getattr_force(&self, fh: Fh3) -> Result<Fattr3, ClientError> {
        let res: GetattrRes = self.rpc(proc3::GETATTR, &GetattrArgs { object: fh })?;
        match res {
            GetattrRes::Ok(attr) => {
                let now = gvfs_netsim::now();
                let is_dir = attr.ftype == Ftype3::Dir;
                let mut c = self.caches.lock();
                let changed = c.attrs.revalidate(
                    fh,
                    attr,
                    now,
                    self.min_timeout(is_dir),
                    self.max_timeout(is_dir),
                );
                if changed {
                    if is_dir {
                        c.lookups.purge_dir(fh);
                    } else {
                        c.pages.invalidate_file(fh);
                    }
                }
                Ok(attr)
            }
            GetattrRes::Fail(status) => {
                if status == Nfsstat3::Stale {
                    let mut c = self.caches.lock();
                    c.attrs.invalidate(fh);
                    c.pages.invalidate_file(fh);
                }
                Err(status.into())
            }
        }
    }

    /// Looks up one name in a directory, through the lookup cache.
    ///
    /// # Errors
    ///
    /// [`Nfsstat3::Noent`] and friends, or transport errors.
    pub fn lookup(&self, dir: Fh3, name: &str) -> Result<Fh3, ClientError> {
        // The dnlc entry (positive or negative) is only trusted while the
        // directory's attributes are; revalidating the directory purges
        // its entries on change.
        if self.caches.lock().lookups.get(dir, name).is_some() {
            self.getattr(dir)?;
            match self.caches.lock().lookups.get(dir, name) {
                Some(Some(child)) => return Ok(child),
                Some(None) => return Err(Nfsstat3::Noent.into()),
                None => {} // purged by revalidation; fall through
            }
        }
        let res: LookupRes =
            self.rpc(proc3::LOOKUP, &LookupArgs { dir, name: name.to_string() })?;
        match res {
            LookupRes::Ok { object, obj_attributes, dir_attributes } => {
                if let Some(attr) = obj_attributes {
                    self.note_attrs(object, attr);
                }
                if let Some(attr) = dir_attributes {
                    self.note_attrs(dir, attr);
                }
                self.caches.lock().lookups.insert(dir, name, object);
                Ok(object)
            }
            LookupRes::Fail { status, dir_attributes } => {
                if let Some(attr) = dir_attributes {
                    self.note_attrs(dir, attr);
                }
                if status == Nfsstat3::Noent {
                    self.caches.lock().lookups.insert_negative(dir, name);
                }
                Err(status.into())
            }
        }
    }

    fn split_path(path: &str) -> Result<Vec<&str>, ClientError> {
        if path.is_empty() {
            return Err(ClientError::InvalidPath);
        }
        Ok(path.split('/').filter(|c| !c.is_empty()).collect())
    }

    /// Resolves an absolute path to a handle, walking through the lookup
    /// cache.
    ///
    /// # Errors
    ///
    /// As for [`NfsClient::lookup`] on each component.
    pub fn resolve(&self, path: &str) -> Result<Fh3, ClientError> {
        let mut cur = self.root;
        for part in Self::split_path(path)? {
            cur = self.lookup(cur, part)?;
        }
        Ok(cur)
    }

    /// Resolves the parent directory and leaf name of a path.
    ///
    /// # Errors
    ///
    /// [`ClientError::InvalidPath`] for the root path; lookup errors on
    /// intermediate components.
    pub fn resolve_parent<'p>(&self, path: &'p str) -> Result<(Fh3, &'p str), ClientError> {
        let parts = Self::split_path(path)?;
        let Some((leaf, dirs)) = parts.split_last() else {
            return Err(ClientError::InvalidPath);
        };
        let mut cur = self.root;
        for part in dirs {
            cur = self.lookup(cur, part)?;
        }
        Ok((cur, leaf))
    }

    /// Opens a file by path: resolves it and, under close-to-open
    /// consistency, revalidates its attributes with the server.
    ///
    /// # Errors
    ///
    /// Lookup and revalidation errors.
    pub fn open(&self, path: &str) -> Result<Fh3, ClientError> {
        let fh = self.resolve(path)?;
        self.open_fh(fh)?;
        Ok(fh)
    }

    /// The open-time revalidation for an already-resolved handle.
    ///
    /// # Errors
    ///
    /// Revalidation errors.
    pub fn open_fh(&self, fh: Fh3) -> Result<Fattr3, ClientError> {
        if self.opts.close_to_open {
            self.getattr_force(fh)
        } else {
            self.getattr(fh)
        }
    }

    /// `stat(2)`: attributes by path through the caches.
    ///
    /// # Errors
    ///
    /// Lookup and attribute errors.
    pub fn stat(&self, path: &str) -> Result<Fattr3, ClientError> {
        let fh = self.resolve(path)?;
        self.getattr(fh)
    }

    /// Reads up to `count` bytes at `offset`, serving whole pages from
    /// the page cache. A read of one whole page from its start returns
    /// that page itself; any other read gathers its pages' bytes.
    ///
    /// # Errors
    ///
    /// NFS or transport errors.
    pub fn read(&self, fh: Fh3, offset: u64, count: u32) -> Result<Vec<u8>, ClientError> {
        let attr = self.getattr(fh)?;
        {
            let mut c = self.caches.lock();
            match c.pages.mtime_tag(fh) {
                Some(tag) if tag != attr.mtime => c.pages.invalidate_file(fh),
                None => {}
                Some(_) => {}
            }
            c.pages.set_mtime_tag(fh, attr.mtime);
        }
        let page_size = u64::from(TRANSFER_SIZE);
        let end = (offset + count as u64).min(attr.size);
        if offset >= end {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity((end - offset) as usize);
        let mut page = offset / page_size;
        while page * page_size < end {
            let page_data = self.read_page(fh, page)?;
            let page_start = page * page_size;
            let from = offset.saturating_sub(page_start) as usize;
            let to = ((end - page_start) as usize).min(page_data.len());
            if from == 0 && to == page_data.len() && to as u64 == end - offset {
                return Ok(page_data); // this page alone serves the read
            }
            if from < to {
                out.extend_from_slice(&page_data[from..to]);
            }
            if page_data.len() < page_size as usize {
                break; // short page = end of file
            }
            page += 1;
        }
        Ok(out)
    }

    fn read_page(&self, fh: Fh3, page: u64) -> Result<Vec<u8>, ClientError> {
        if let Some(data) = self.caches.lock().pages.get(fh, page) {
            return Ok(data.to_vec());
        }
        let page_size = TRANSFER_SIZE;
        let res: ReadRes = self.rpc(
            proc3::READ,
            &ReadArgs { file: fh, offset: page * page_size as u64, count: page_size },
        )?;
        match res {
            ReadRes::Ok { file_attributes, data, .. } => {
                let mut c = self.caches.lock();
                c.pages.insert(fh, page, data.clone());
                drop(c);
                if let Some(attr) = file_attributes {
                    let now = gvfs_netsim::now();
                    let mut c = self.caches.lock();
                    c.attrs.insert(fh, attr, now, self.min_timeout(false));
                    c.pages.set_mtime_tag(fh, attr.mtime);
                }
                Ok(data)
            }
            ReadRes::Fail { status, .. } => Err(status.into()),
        }
    }

    /// Reads an entire file (open + sequential read).
    ///
    /// # Errors
    ///
    /// Open and read errors.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, ClientError> {
        let fh = self.resolve(path)?;
        let attr = self.open_fh(fh)?;
        self.read(fh, 0, attr.size.min(u32::MAX as u64) as u32)
    }

    /// Writes `data` at `offset`. The export is synchronous, so this is
    /// write-through; the page cache is updated in place.
    ///
    /// # Errors
    ///
    /// NFS or transport errors.
    pub fn write(&self, fh: Fh3, offset: u64, data: &[u8]) -> Result<(), ClientError> {
        let chunk = TRANSFER_SIZE as usize;
        let mut written = 0;
        while written < data.len() {
            let end = (written + chunk).min(data.len());
            let res: WriteRes = self.rpc(
                proc3::WRITE,
                &WriteArgs {
                    file: fh,
                    offset: offset + written as u64,
                    count: (end - written) as u32,
                    stable: StableHow::FileSync,
                    data: data[written..end].to_vec(),
                },
            )?;
            match res {
                WriteRes::Ok { file_wcc, .. } => {
                    if let Some(attr) = file_wcc.after {
                        // Our own write: keep pages, retag with new mtime.
                        let now = gvfs_netsim::now();
                        let mut c = self.caches.lock();
                        c.attrs.insert(fh, attr, now, self.min_timeout(false));
                        c.pages.set_mtime_tag(fh, attr.mtime);
                    }
                }
                WriteRes::Fail { status, .. } => return Err(status.into()),
            }
            written = end;
        }
        // Keep the written range readable from cache.
        self.cache_written_range(fh, offset, data);
        Ok(())
    }

    fn cache_written_range(&self, fh: Fh3, offset: u64, data: &[u8]) {
        let page_size = u64::from(TRANSFER_SIZE);
        let mut c = self.caches.lock();
        // Only page-aligned full pages are kept; partial edges are
        // dropped so reads refetch them (simple and safe).
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let page = abs / page_size;
            let in_page = (abs % page_size) as usize;
            let take = ((page_size as usize) - in_page).min(data.len() - pos);
            if in_page == 0 && take == page_size as usize {
                c.pages.insert(fh, page, data[pos..pos + take].to_vec());
            } else {
                // Partial page: merge if present, else drop.
                if let Some(existing) = c.pages.get(fh, page).map(<[u8]>::to_vec) {
                    let mut merged = existing;
                    if merged.len() < in_page + take {
                        merged.resize(in_page + take, 0);
                    }
                    merged[in_page..in_page + take].copy_from_slice(&data[pos..pos + take]);
                    c.pages.insert(fh, page, merged);
                }
            }
            pos += take;
        }
    }

    /// Creates (or opens, with `UNCHECKED` semantics) a file.
    ///
    /// # Errors
    ///
    /// NFS or transport errors.
    pub fn create(&self, dir: Fh3, name: &str, guarded: bool) -> Result<Fh3, ClientError> {
        let how = if guarded {
            CreateHow::Guarded(Sattr3 { mode: Some(0o644), ..Default::default() })
        } else {
            CreateHow::Unchecked(Sattr3 { mode: Some(0o644), ..Default::default() })
        };
        let res: gvfs_nfs3::NewObjRes =
            self.rpc(proc3::CREATE, &CreateArgs { dir, name: name.to_string(), how })?;
        self.absorb_new_obj(dir, name, res)
    }

    /// Creates a file by absolute path.
    ///
    /// # Errors
    ///
    /// Parent resolution and creation errors.
    pub fn create_path(&self, path: &str, guarded: bool) -> Result<Fh3, ClientError> {
        let (dir, name) = self.resolve_parent(path)?;
        self.create(dir, name, guarded)
    }

    /// Creates a whole file in one call (create + write).
    ///
    /// # Errors
    ///
    /// Creation and write errors.
    pub fn write_file(&self, path: &str, data: &[u8]) -> Result<Fh3, ClientError> {
        let fh = self.create_path(path, false)?;
        self.write(fh, 0, data)?;
        Ok(fh)
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// NFS or transport errors.
    pub fn mkdir(&self, dir: Fh3, name: &str) -> Result<Fh3, ClientError> {
        let res: gvfs_nfs3::NewObjRes = self.rpc(
            proc3::MKDIR,
            &MkdirArgs {
                dir,
                name: name.to_string(),
                attributes: Sattr3 { mode: Some(0o755), ..Default::default() },
            },
        )?;
        self.absorb_new_obj(dir, name, res)
    }

    fn absorb_new_obj(
        &self,
        dir: Fh3,
        name: &str,
        res: gvfs_nfs3::NewObjRes,
    ) -> Result<Fh3, ClientError> {
        match res {
            gvfs_nfs3::NewObjRes::Ok { obj, obj_attributes, dir_wcc } => {
                let fh = obj.ok_or(ClientError::Nfs(Nfsstat3::Serverfault))?;
                if let Some(attr) = obj_attributes {
                    self.note_attrs(fh, attr);
                }
                if let Some(attr) = dir_wcc.after {
                    self.note_attrs(dir, attr);
                }
                self.caches.lock().lookups.insert(dir, name, fh);
                Ok(fh)
            }
            gvfs_nfs3::NewObjRes::Fail { status, dir_wcc } => {
                if let Some(attr) = dir_wcc.after {
                    self.note_attrs(dir, attr);
                }
                Err(status.into())
            }
        }
    }

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// NFS or transport errors.
    pub fn remove(&self, dir: Fh3, name: &str) -> Result<(), ClientError> {
        let res: DirOpRes = self.rpc(proc3::REMOVE, &DirOpArgs { dir, name: name.to_string() })?;
        if res.status.is_ok() {
            self.caches.lock().lookups.insert_negative(dir, name);
        } else {
            self.caches.lock().lookups.remove(dir, name);
        }
        if let Some(attr) = res.dir_wcc.after {
            self.note_attrs(dir, attr);
        }
        if res.status.is_ok() {
            Ok(())
        } else {
            Err(res.status.into())
        }
    }

    /// Removes a file by absolute path.
    ///
    /// # Errors
    ///
    /// Parent resolution and removal errors.
    pub fn remove_path(&self, path: &str) -> Result<(), ClientError> {
        let (dir, name) = self.resolve_parent(path)?;
        self.remove(dir, name)
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// NFS or transport errors.
    pub fn rmdir(&self, dir: Fh3, name: &str) -> Result<(), ClientError> {
        let res: DirOpRes = self.rpc(proc3::RMDIR, &DirOpArgs { dir, name: name.to_string() })?;
        self.caches.lock().lookups.remove(dir, name);
        if let Some(attr) = res.dir_wcc.after {
            self.note_attrs(dir, attr);
        }
        if res.status.is_ok() {
            Ok(())
        } else {
            Err(res.status.into())
        }
    }

    /// Renames an entry.
    ///
    /// # Errors
    ///
    /// NFS or transport errors.
    pub fn rename(
        &self,
        from_dir: Fh3,
        from_name: &str,
        to_dir: Fh3,
        to_name: &str,
    ) -> Result<(), ClientError> {
        let res: RenameRes = self.rpc(
            proc3::RENAME,
            &RenameArgs {
                from_dir,
                from_name: from_name.to_string(),
                to_dir,
                to_name: to_name.to_string(),
            },
        )?;
        {
            let mut c = self.caches.lock();
            c.lookups.remove(from_dir, from_name);
            c.lookups.remove(to_dir, to_name);
        }
        if let Some(attr) = res.fromdir_wcc.after {
            self.note_attrs(from_dir, attr);
        }
        if let Some(attr) = res.todir_wcc.after {
            self.note_attrs(to_dir, attr);
        }
        if res.status.is_ok() {
            Ok(())
        } else {
            Err(res.status.into())
        }
    }

    /// Creates a hard link `dir/name` to `file`. This is the mutual
    /// exclusion primitive of the paper's lock benchmark: `LINK` is
    /// atomic at the server, so exactly one of several racing clients
    /// succeeds.
    ///
    /// # Errors
    ///
    /// [`Nfsstat3::Exist`] when another client holds the name, other NFS
    /// or transport errors.
    pub fn link(&self, file: Fh3, dir: Fh3, name: &str) -> Result<(), ClientError> {
        let res: LinkRes =
            self.rpc(proc3::LINK, &LinkArgs { file, dir, name: name.to_string() })?;
        if let Some(attr) = res.file_attributes {
            self.note_attrs(file, attr);
        }
        if let Some(attr) = res.linkdir_wcc.after {
            self.note_attrs(dir, attr);
        }
        if res.status.is_ok() {
            self.caches.lock().lookups.insert(dir, name, file);
            Ok(())
        } else {
            Err(res.status.into())
        }
    }

    /// Updates a file's modification time to the server's current time
    /// (`touch(1)` — the repository-maintenance primitive).
    ///
    /// # Errors
    ///
    /// NFS or transport errors.
    pub fn touch(&self, fh: Fh3) -> Result<(), ClientError> {
        let res: SetattrRes = self.rpc(
            proc3::SETATTR,
            &SetattrArgs {
                object: fh,
                new_attributes: Sattr3 {
                    mtime: gvfs_nfs3::TimeHow::ServerTime,
                    ..Default::default()
                },
                guard: None,
            },
        )?;
        if let Some(attr) = res.obj_wcc.after {
            self.note_attrs(fh, attr);
        }
        if res.status.is_ok() {
            Ok(())
        } else {
            Err(res.status.into())
        }
    }

    /// Truncates a file to `size`.
    ///
    /// # Errors
    ///
    /// NFS or transport errors.
    pub fn truncate(&self, fh: Fh3, size: u64) -> Result<(), ClientError> {
        let res: SetattrRes = self.rpc(
            proc3::SETATTR,
            &SetattrArgs {
                object: fh,
                new_attributes: Sattr3 { size: Some(size), ..Default::default() },
                guard: None,
            },
        )?;
        if let Some(attr) = res.obj_wcc.after {
            let now = gvfs_netsim::now();
            let mut c = self.caches.lock();
            c.attrs.insert(fh, attr, now, self.min_timeout(false));
            c.pages.invalidate_file(fh);
        }
        if res.status.is_ok() {
            Ok(())
        } else {
            Err(res.status.into())
        }
    }

    /// Lists an entire directory, paginating `READDIR` as needed.
    ///
    /// # Errors
    ///
    /// NFS or transport errors.
    pub fn readdir_all(&self, dir: Fh3) -> Result<Vec<DirEntryInfo>, ClientError> {
        let mut out = Vec::new();
        let mut cookie = 0u64;
        let mut cookieverf = 0u64;
        loop {
            let res: ReaddirRes =
                self.rpc(proc3::READDIR, &ReaddirArgs { dir, cookie, cookieverf, count: 4096 })?;
            match res {
                ReaddirRes::Ok { dir_attributes, cookieverf: verf, entries, eof } => {
                    if let Some(attr) = dir_attributes {
                        self.note_attrs(dir, attr);
                    }
                    let last: Option<&Entry3> = entries.last();
                    cookie = last.map_or(cookie, |e| e.cookie);
                    cookieverf = verf;
                    out.extend(
                        entries
                            .into_iter()
                            .map(|e| DirEntryInfo { fileid: e.fileid, name: e.name }),
                    );
                    if eof {
                        return Ok(out);
                    }
                }
                ReaddirRes::Fail { status, .. } => return Err(status.into()),
            }
        }
    }

    /// Creates a symbolic link `dir/name` pointing at `target`.
    ///
    /// # Errors
    ///
    /// NFS or transport errors.
    pub fn symlink(&self, dir: Fh3, name: &str, target: &str) -> Result<Fh3, ClientError> {
        let res: gvfs_nfs3::NewObjRes = self.rpc(
            proc3::SYMLINK,
            &gvfs_nfs3::SymlinkArgs {
                dir,
                name: name.to_string(),
                symlink_attributes: Sattr3::default(),
                symlink_data: target.to_string(),
            },
        )?;
        self.absorb_new_obj(dir, name, res)
    }

    /// Reads a symbolic link's target.
    ///
    /// # Errors
    ///
    /// NFS or transport errors.
    pub fn readlink(&self, fh: Fh3) -> Result<String, ClientError> {
        let res: gvfs_nfs3::ReadlinkRes =
            self.rpc(proc3::READLINK, &gvfs_nfs3::ReadlinkArgs { symlink: fh })?;
        match res {
            gvfs_nfs3::ReadlinkRes::Ok { symlink_attributes, data } => {
                if let Some(attr) = symlink_attributes {
                    self.note_attrs(fh, attr);
                }
                Ok(data)
            }
            gvfs_nfs3::ReadlinkRes::Fail { status, .. } => Err(status.into()),
        }
    }

    /// Lists an entire directory with `READDIRPLUS`, absorbing the
    /// returned attributes and handles into the caches (the mount-time
    /// `ls -l` pattern).
    ///
    /// # Errors
    ///
    /// NFS or transport errors.
    pub fn readdir_plus_all(&self, dir: Fh3) -> Result<Vec<DirEntryInfo>, ClientError> {
        use gvfs_nfs3::{ReaddirplusArgs, ReaddirplusRes};
        let mut out = Vec::new();
        let mut cookie = 0u64;
        let mut cookieverf = 0u64;
        loop {
            let res: ReaddirplusRes = self.rpc(
                proc3::READDIRPLUS,
                &ReaddirplusArgs { dir, cookie, cookieverf, dircount: 8192, maxcount: 32768 },
            )?;
            match res {
                ReaddirplusRes::Ok { dir_attributes, cookieverf: verf, entries, eof } => {
                    if let Some(attr) = dir_attributes {
                        self.note_attrs(dir, attr);
                    }
                    for e in &entries {
                        cookie = e.cookie;
                        if let (Some(fh), Some(attr)) = (e.name_handle, e.name_attributes) {
                            self.note_attrs(fh, attr);
                            self.caches.lock().lookups.insert(dir, &e.name, fh);
                        }
                        out.push(DirEntryInfo { fileid: e.fileid, name: e.name.clone() });
                    }
                    cookieverf = verf;
                    if eof {
                        return Ok(out);
                    }
                }
                ReaddirplusRes::Fail { status, .. } => return Err(status.into()),
            }
        }
    }

    /// Commits unstable writes (no-op against this synchronous server,
    /// but exercised for protocol completeness).
    ///
    /// # Errors
    ///
    /// NFS or transport errors.
    pub fn commit(&self, fh: Fh3) -> Result<(), ClientError> {
        let res: CommitRes =
            self.rpc(proc3::COMMIT, &CommitArgs { file: fh, offset: 0, count: 0 })?;
        match res {
            CommitRes::Ok { .. } => Ok(()),
            CommitRes::Fail { status, .. } => Err(status.into()),
        }
    }
}
