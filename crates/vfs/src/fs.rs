//! The filesystem proper.

use crate::attr::{Attr, FileKind, SetAttr, Timestamp};
use crate::error::VfsError;
use crate::pages::Pages;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A stable identifier for a filesystem object.
///
/// Ids are never reused; a lookup with the id of a deleted object fails
/// with [`VfsError::Stale`], which is how stale NFS file handles are
/// detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(u64);

impl FileId {
    /// The raw id value (used to build NFS file handles).
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Reconstructs an id from its raw value (from an NFS file handle).
    pub const fn from_u64(raw: u64) -> Self {
        FileId(raw)
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One entry of a [`Vfs::readdir`] page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// The entry's file id.
    pub fileid: FileId,
    /// The entry's name within the directory.
    pub name: String,
    /// Opaque cookie to resume reading after this entry.
    pub cookie: u64,
}

/// A page of directory entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadDirPage {
    /// Entries in stable order.
    pub entries: Vec<DirEntry>,
    /// `true` if the page reaches the end of the directory.
    pub eof: bool,
}

/// Aggregate filesystem statistics (NFS `FSSTAT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsStat {
    /// Bytes of file content stored.
    pub used_bytes: u64,
    /// Total object count (files, directories, symlinks).
    pub objects: u64,
}

#[derive(Debug)]
struct DirContent {
    by_name: HashMap<String, (u64, u64)>, // name -> (seq, fileid)
    by_seq: BTreeMap<u64, (String, u64)>, // seq -> (name, fileid)
    next_seq: u64,
}

impl DirContent {
    fn new() -> Self {
        DirContent { by_name: HashMap::new(), by_seq: BTreeMap::new(), next_seq: 1 }
    }

    fn insert(&mut self, name: &str, fileid: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_name.insert(name.to_string(), (seq, fileid));
        self.by_seq.insert(seq, (name.to_string(), fileid));
    }

    fn remove(&mut self, name: &str) -> Option<u64> {
        let (seq, fileid) = self.by_name.remove(name)?;
        self.by_seq.remove(&seq);
        Some(fileid)
    }

    fn get(&self, name: &str) -> Option<u64> {
        self.by_name.get(name).map(|&(_, id)| id)
    }

    fn len(&self) -> usize {
        self.by_name.len()
    }
}

#[derive(Debug)]
enum Content {
    File(Pages),
    Dir(DirContent),
    Symlink(String),
}

#[derive(Debug)]
struct Inode {
    kind: FileKind,
    mode: u32,
    nlink: u32,
    uid: u32,
    gid: u32,
    atime: Timestamp,
    mtime: Timestamp,
    ctime: Timestamp,
    content: Content,
}

impl Inode {
    fn attr(&self, fileid: u64) -> Attr {
        let size = match &self.content {
            Content::File(data) => data.len() as u64,
            Content::Dir(d) => 512 + 32 * d.len() as u64,
            Content::Symlink(target) => target.len() as u64,
        };
        Attr {
            kind: self.kind,
            mode: self.mode,
            nlink: self.nlink,
            uid: self.uid,
            gid: self.gid,
            size,
            fileid,
            atime: self.atime,
            mtime: self.mtime,
            ctime: self.ctime,
        }
    }

    fn dir(&self) -> Result<&DirContent, VfsError> {
        match &self.content {
            Content::Dir(d) => Ok(d),
            _ => Err(VfsError::NotDir),
        }
    }

    fn dir_mut(&mut self) -> Result<&mut DirContent, VfsError> {
        match &mut self.content {
            Content::Dir(d) => Ok(d),
            _ => Err(VfsError::NotDir),
        }
    }
}

#[derive(Debug)]
struct Inner {
    inodes: HashMap<u64, Inode>,
    parents: HashMap<u64, u64>, // directory id -> parent directory id
    next_id: u64,
    used_bytes: u64,
}

/// The in-memory filesystem. Thread-safe; cheap operations under one lock.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Vfs {
    inner: Mutex<Inner>,
}

const ROOT_ID: u64 = 1;

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// Creates a filesystem containing only an empty root directory.
    pub fn new() -> Self {
        let mut inodes = HashMap::new();
        inodes.insert(
            ROOT_ID,
            Inode {
                kind: FileKind::Directory,
                mode: 0o755,
                nlink: 2,
                uid: 0,
                gid: 0,
                atime: Timestamp::default(),
                mtime: Timestamp::default(),
                ctime: Timestamp::default(),
                content: Content::Dir(DirContent::new()),
            },
        );
        let mut parents = HashMap::new();
        parents.insert(ROOT_ID, ROOT_ID);
        Vfs { inner: Mutex::new(Inner { inodes, parents, next_id: ROOT_ID + 1, used_bytes: 0 }) }
    }

    /// The root directory id.
    pub fn root(&self) -> FileId {
        FileId(ROOT_ID)
    }

    /// Looks up `name` in directory `dir`.
    ///
    /// # Errors
    ///
    /// [`VfsError::Stale`] for a dead handle, [`VfsError::NotDir`] if `dir`
    /// is not a directory, [`VfsError::NotFound`] if absent.
    pub fn lookup(&self, dir: FileId, name: &str) -> Result<FileId, VfsError> {
        let inner = self.inner.lock();
        let inode = inner.inodes.get(&dir.0).ok_or(VfsError::Stale)?;
        inode.dir()?.get(name).map(FileId).ok_or(VfsError::NotFound)
    }

    /// Resolves a `/`-separated absolute path from the root.
    ///
    /// # Errors
    ///
    /// As for [`Vfs::lookup`] on each component.
    pub fn lookup_path(&self, path: &str) -> Result<FileId, VfsError> {
        let mut cur = self.root();
        for part in path.split('/').filter(|p| !p.is_empty()) {
            cur = self.lookup(cur, part)?;
        }
        Ok(cur)
    }

    /// Returns the attributes of `id`.
    ///
    /// # Errors
    ///
    /// [`VfsError::Stale`] for a dead handle.
    pub fn getattr(&self, id: FileId) -> Result<Attr, VfsError> {
        let inner = self.inner.lock();
        inner.inodes.get(&id.0).map(|i| i.attr(id.0)).ok_or(VfsError::Stale)
    }

    /// Applies a partial attribute update.
    ///
    /// # Errors
    ///
    /// [`VfsError::Stale`] for a dead handle; [`VfsError::IsDir`] when
    /// truncating a directory.
    pub fn setattr(&self, id: FileId, set: SetAttr, now: Timestamp) -> Result<Attr, VfsError> {
        let mut inner = self.inner.lock();
        let mut freed_or_used: i64 = 0;
        let inode = inner.inodes.get_mut(&id.0).ok_or(VfsError::Stale)?;
        if let Some(mode) = set.mode {
            inode.mode = mode & 0o7777;
        }
        if let Some(uid) = set.uid {
            inode.uid = uid;
        }
        if let Some(gid) = set.gid {
            inode.gid = gid;
        }
        if let Some(size) = set.size {
            match &mut inode.content {
                Content::File(data) => {
                    freed_or_used = size as i64 - data.len() as i64;
                    data.resize(size as usize);
                    inode.mtime = now;
                }
                Content::Dir(_) => return Err(VfsError::IsDir),
                Content::Symlink(_) => return Err(VfsError::InvalidArgument),
            }
        }
        if let Some(atime) = set.atime {
            inode.atime = atime;
        }
        if let Some(mtime) = set.mtime {
            inode.mtime = mtime;
        }
        inode.ctime = now;
        let attr = inode.attr(id.0);
        inner.used_bytes = (inner.used_bytes as i64 + freed_or_used).max(0) as u64;
        Ok(attr)
    }

    fn alloc(&self, inner: &mut Inner, inode: Inode) -> u64 {
        let id = inner.next_id;
        inner.next_id += 1;
        inner.inodes.insert(id, inode);
        id
    }

    fn new_inode(kind: FileKind, mode: u32, now: Timestamp, content: Content) -> Inode {
        Inode {
            kind,
            mode,
            nlink: if matches!(kind, FileKind::Directory) { 2 } else { 1 },
            uid: 0,
            gid: 0,
            atime: now,
            mtime: now,
            ctime: now,
            content,
        }
    }

    fn validate_name(name: &str) -> Result<(), VfsError> {
        if name.is_empty() || name == "." || name == ".." || name.contains('/') {
            return Err(VfsError::InvalidArgument);
        }
        Ok(())
    }

    /// Creates a regular file (guarded: fails if the name exists).
    ///
    /// # Errors
    ///
    /// [`VfsError::Exists`] if present; [`VfsError::InvalidArgument`] for
    /// illegal names; [`VfsError::Stale`]/[`VfsError::NotDir`] on `dir`.
    pub fn create(
        &self,
        dir: FileId,
        name: &str,
        mode: u32,
        now: Timestamp,
    ) -> Result<FileId, VfsError> {
        Self::validate_name(name)?;
        let mut inner = self.inner.lock();
        {
            let d = inner.inodes.get(&dir.0).ok_or(VfsError::Stale)?.dir()?;
            if d.get(name).is_some() {
                return Err(VfsError::Exists);
            }
        }
        let id = self.alloc(
            &mut inner,
            Self::new_inode(FileKind::Regular, mode, now, Content::File(Pages::new())),
        );
        let d = inner.inodes.get_mut(&dir.0).expect("checked").dir_mut().expect("checked");
        d.insert(name, id);
        let dirnode = inner.inodes.get_mut(&dir.0).expect("checked");
        dirnode.mtime = now;
        dirnode.ctime = now;
        Ok(FileId(id))
    }

    /// Creates a regular file, or returns the existing file of that name
    /// (NFS `CREATE` with the `UNCHECKED` guard).
    ///
    /// # Errors
    ///
    /// [`VfsError::IsDir`] if the name is a directory; otherwise as for
    /// [`Vfs::create`].
    pub fn create_unchecked(
        &self,
        dir: FileId,
        name: &str,
        mode: u32,
        now: Timestamp,
    ) -> Result<FileId, VfsError> {
        match self.create(dir, name, mode, now) {
            Ok(id) => Ok(id),
            Err(VfsError::Exists) => {
                let existing = self.lookup(dir, name)?;
                match self.getattr(existing)?.kind {
                    FileKind::Regular => Ok(existing),
                    FileKind::Directory => Err(VfsError::IsDir),
                    FileKind::Symlink => Err(VfsError::InvalidArgument),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// As for [`Vfs::create`].
    pub fn mkdir(
        &self,
        dir: FileId,
        name: &str,
        mode: u32,
        now: Timestamp,
    ) -> Result<FileId, VfsError> {
        Self::validate_name(name)?;
        let mut inner = self.inner.lock();
        {
            let d = inner.inodes.get(&dir.0).ok_or(VfsError::Stale)?.dir()?;
            if d.get(name).is_some() {
                return Err(VfsError::Exists);
            }
        }
        let id = self.alloc(
            &mut inner,
            Self::new_inode(FileKind::Directory, mode, now, Content::Dir(DirContent::new())),
        );
        inner.parents.insert(id, dir.0);
        let parent = inner.inodes.get_mut(&dir.0).expect("checked");
        parent.dir_mut().expect("checked").insert(name, id);
        parent.nlink += 1; // the child's ".." reference
        parent.mtime = now;
        parent.ctime = now;
        Ok(FileId(id))
    }

    /// Creates a symbolic link containing `target`.
    ///
    /// # Errors
    ///
    /// As for [`Vfs::create`].
    pub fn symlink(
        &self,
        dir: FileId,
        name: &str,
        target: &str,
        now: Timestamp,
    ) -> Result<FileId, VfsError> {
        Self::validate_name(name)?;
        let mut inner = self.inner.lock();
        {
            let d = inner.inodes.get(&dir.0).ok_or(VfsError::Stale)?.dir()?;
            if d.get(name).is_some() {
                return Err(VfsError::Exists);
            }
        }
        let id = self.alloc(
            &mut inner,
            Self::new_inode(FileKind::Symlink, 0o777, now, Content::Symlink(target.to_string())),
        );
        let parent = inner.inodes.get_mut(&dir.0).expect("checked");
        parent.dir_mut().expect("checked").insert(name, id);
        parent.mtime = now;
        parent.ctime = now;
        Ok(FileId(id))
    }

    /// Reads a symbolic link's target.
    ///
    /// # Errors
    ///
    /// [`VfsError::InvalidArgument`] if `id` is not a symlink.
    pub fn readlink(&self, id: FileId) -> Result<String, VfsError> {
        let inner = self.inner.lock();
        match &inner.inodes.get(&id.0).ok_or(VfsError::Stale)?.content {
            Content::Symlink(target) => Ok(target.clone()),
            _ => Err(VfsError::InvalidArgument),
        }
    }

    /// Reads up to `count` bytes at `offset`. Returns the data and an
    /// EOF flag (true when the read reaches or passes end of file).
    ///
    /// # Errors
    ///
    /// [`VfsError::IsDir`] when reading a directory.
    pub fn read(&self, id: FileId, offset: u64, count: u32) -> Result<(Vec<u8>, bool), VfsError> {
        let inner = self.inner.lock();
        let inode = inner.inodes.get(&id.0).ok_or(VfsError::Stale)?;
        match &inode.content {
            Content::File(data) => {
                let len = data.len() as u64;
                if offset >= len {
                    return Ok((Vec::new(), true));
                }
                let end = (offset + count as u64).min(len);
                Ok((data.slice(offset as usize, end as usize).to_vec(), end >= len))
            }
            Content::Dir(_) => Err(VfsError::IsDir),
            Content::Symlink(_) => Err(VfsError::InvalidArgument),
        }
    }

    /// Writes `data` at `offset`, zero-filling any gap (sparse write),
    /// and returns the post-write attributes.
    ///
    /// # Errors
    ///
    /// [`VfsError::IsDir`] when writing a directory.
    pub fn write(
        &self,
        id: FileId,
        offset: u64,
        data: &[u8],
        now: Timestamp,
    ) -> Result<Attr, VfsError> {
        let mut inner = self.inner.lock();
        let inode = inner.inodes.get_mut(&id.0).ok_or(VfsError::Stale)?;
        let grown;
        match &mut inode.content {
            Content::File(content) => {
                let before = content.len();
                content.write(offset as usize, data);
                grown = content.len() - before;
                inode.mtime = now;
                inode.ctime = now;
            }
            Content::Dir(_) => return Err(VfsError::IsDir),
            Content::Symlink(_) => return Err(VfsError::InvalidArgument),
        }
        let attr = inode.attr(id.0);
        inner.used_bytes += grown as u64;
        Ok(attr)
    }

    /// Removes a non-directory entry, deleting the object when its link
    /// count reaches zero.
    ///
    /// # Errors
    ///
    /// [`VfsError::IsDir`] for directories (use [`Vfs::rmdir`]);
    /// [`VfsError::NotFound`] if absent.
    pub fn remove(&self, dir: FileId, name: &str, now: Timestamp) -> Result<(), VfsError> {
        let mut inner = self.inner.lock();
        let target_id = {
            let d = inner.inodes.get(&dir.0).ok_or(VfsError::Stale)?.dir()?;
            d.get(name).ok_or(VfsError::NotFound)?
        };
        if matches!(inner.inodes.get(&target_id).map(|i| i.kind), Some(FileKind::Directory)) {
            return Err(VfsError::IsDir);
        }
        let parent = inner.inodes.get_mut(&dir.0).expect("checked");
        parent.dir_mut().expect("checked").remove(name);
        parent.mtime = now;
        parent.ctime = now;
        let target = inner.inodes.get_mut(&target_id).expect("target inode");
        target.nlink -= 1;
        target.ctime = now;
        if target.nlink == 0 {
            let freed = match &target.content {
                Content::File(data) => data.len() as u64,
                _ => 0,
            };
            inner.inodes.remove(&target_id);
            inner.used_bytes -= freed;
        }
        Ok(())
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotEmpty`] if it has entries; [`VfsError::NotDir`] if
    /// the name is not a directory.
    pub fn rmdir(&self, dir: FileId, name: &str, now: Timestamp) -> Result<(), VfsError> {
        let mut inner = self.inner.lock();
        let target_id = {
            let d = inner.inodes.get(&dir.0).ok_or(VfsError::Stale)?.dir()?;
            d.get(name).ok_or(VfsError::NotFound)?
        };
        {
            let target = inner.inodes.get(&target_id).expect("target inode");
            let content = target.dir()?;
            if content.len() > 0 {
                return Err(VfsError::NotEmpty);
            }
        }
        let parent = inner.inodes.get_mut(&dir.0).expect("checked");
        parent.dir_mut().expect("checked").remove(name);
        parent.nlink -= 1;
        parent.mtime = now;
        parent.ctime = now;
        inner.inodes.remove(&target_id);
        inner.parents.remove(&target_id);
        Ok(())
    }

    /// Creates a hard link `dir/name` to the existing file `id`.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotSupported`] for directories;
    /// [`VfsError::Exists`] if the name is taken.
    pub fn link(
        &self,
        id: FileId,
        dir: FileId,
        name: &str,
        now: Timestamp,
    ) -> Result<(), VfsError> {
        Self::validate_name(name)?;
        let mut inner = self.inner.lock();
        match inner.inodes.get(&id.0).ok_or(VfsError::Stale)?.kind {
            FileKind::Directory => return Err(VfsError::NotSupported),
            FileKind::Regular | FileKind::Symlink => {}
        }
        {
            let d = inner.inodes.get(&dir.0).ok_or(VfsError::Stale)?.dir()?;
            if d.get(name).is_some() {
                return Err(VfsError::Exists);
            }
        }
        let parent = inner.inodes.get_mut(&dir.0).expect("checked");
        parent.dir_mut().expect("checked").insert(name, id.0);
        parent.mtime = now;
        parent.ctime = now;
        let target = inner.inodes.get_mut(&id.0).expect("checked");
        target.nlink += 1;
        target.ctime = now;
        Ok(())
    }

    /// Atomically renames `from_dir/from_name` to `to_dir/to_name`,
    /// replacing a compatible existing target (file over file, empty
    /// directory over directory).
    ///
    /// # Errors
    ///
    /// [`VfsError::InvalidArgument`] when moving a directory under
    /// itself; [`VfsError::NotEmpty`], [`VfsError::IsDir`],
    /// [`VfsError::NotDir`] on incompatible replacement.
    pub fn rename(
        &self,
        from_dir: FileId,
        from_name: &str,
        to_dir: FileId,
        to_name: &str,
        now: Timestamp,
    ) -> Result<(), VfsError> {
        Self::validate_name(to_name)?;
        let mut inner = self.inner.lock();
        let moving_id = {
            let d = inner.inodes.get(&from_dir.0).ok_or(VfsError::Stale)?.dir()?;
            d.get(from_name).ok_or(VfsError::NotFound)?
        };
        inner.inodes.get(&to_dir.0).ok_or(VfsError::Stale)?.dir()?;
        let moving_is_dir =
            matches!(inner.inodes.get(&moving_id).map(|i| i.kind), Some(FileKind::Directory));

        if moving_is_dir {
            // Forbid moving a directory into its own subtree.
            let mut cur = to_dir.0;
            loop {
                if cur == moving_id {
                    return Err(VfsError::InvalidArgument);
                }
                let parent = *inner.parents.get(&cur).ok_or(VfsError::Stale)?;
                if parent == cur {
                    break;
                }
                cur = parent;
            }
        }

        if from_dir == to_dir && from_name == to_name {
            return Ok(());
        }

        // Handle an existing target.
        let existing =
            inner.inodes.get(&to_dir.0).expect("checked").dir().expect("checked").get(to_name);
        if let Some(existing_id) = existing {
            if existing_id == moving_id {
                return Ok(());
            }
            let existing_is_dir =
                matches!(inner.inodes.get(&existing_id).map(|i| i.kind), Some(FileKind::Directory));
            match (moving_is_dir, existing_is_dir) {
                (true, false) => return Err(VfsError::NotDir),
                (false, true) => return Err(VfsError::IsDir),
                (true, true) => {
                    let empty = inner
                        .inodes
                        .get(&existing_id)
                        .expect("checked")
                        .dir()
                        .expect("checked")
                        .len()
                        == 0;
                    if !empty {
                        return Err(VfsError::NotEmpty);
                    }
                    inner
                        .inodes
                        .get_mut(&to_dir.0)
                        .expect("checked")
                        .dir_mut()
                        .expect("checked")
                        .remove(to_name);
                    inner.inodes.remove(&existing_id);
                    inner.parents.remove(&existing_id);
                    inner.inodes.get_mut(&to_dir.0).expect("checked").nlink -= 1;
                }
                (false, false) => {
                    inner
                        .inodes
                        .get_mut(&to_dir.0)
                        .expect("checked")
                        .dir_mut()
                        .expect("checked")
                        .remove(to_name);
                    let target = inner.inodes.get_mut(&existing_id).expect("checked");
                    target.nlink -= 1;
                    target.ctime = now;
                    if target.nlink == 0 {
                        let freed = match &target.content {
                            Content::File(data) => data.len() as u64,
                            _ => 0,
                        };
                        inner.inodes.remove(&existing_id);
                        inner.used_bytes -= freed;
                    }
                }
            }
        }

        inner
            .inodes
            .get_mut(&from_dir.0)
            .expect("checked")
            .dir_mut()
            .expect("checked")
            .remove(from_name);
        inner
            .inodes
            .get_mut(&to_dir.0)
            .expect("checked")
            .dir_mut()
            .expect("checked")
            .insert(to_name, moving_id);
        if moving_is_dir && from_dir != to_dir {
            inner.inodes.get_mut(&from_dir.0).expect("checked").nlink -= 1;
            inner.inodes.get_mut(&to_dir.0).expect("checked").nlink += 1;
            inner.parents.insert(moving_id, to_dir.0);
        }
        for d in [from_dir.0, to_dir.0] {
            let dirnode = inner.inodes.get_mut(&d).expect("checked");
            dirnode.mtime = now;
            dirnode.ctime = now;
        }
        let moved = inner.inodes.get_mut(&moving_id).expect("checked");
        moved.ctime = now;
        Ok(())
    }

    /// Reads a page of directory entries starting after `cookie`
    /// (0 = from the beginning), returning at most `max_entries`.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotDir`] if `dir` is not a directory.
    pub fn readdir(
        &self,
        dir: FileId,
        cookie: u64,
        max_entries: usize,
    ) -> Result<ReadDirPage, VfsError> {
        let inner = self.inner.lock();
        let d = inner.inodes.get(&dir.0).ok_or(VfsError::Stale)?.dir()?;
        let mut entries = Vec::new();
        let mut iter = d.by_seq.range(cookie + 1..);
        for (&seq, (name, fileid)) in iter.by_ref() {
            if entries.len() >= max_entries {
                return Ok(ReadDirPage { entries, eof: false });
            }
            entries.push(DirEntry { fileid: FileId(*fileid), name: name.clone(), cookie: seq });
        }
        Ok(ReadDirPage { entries, eof: true })
    }

    /// Aggregate statistics.
    pub fn fsstat(&self) -> FsStat {
        let inner = self.inner.lock();
        FsStat { used_bytes: inner.used_bytes, objects: inner.inodes.len() as u64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: Timestamp = Timestamp::from_nanos(0);
    const T1: Timestamp = Timestamp::from_nanos(1_000_000_000);
    const T2: Timestamp = Timestamp::from_nanos(2_000_000_000);

    fn fs() -> Vfs {
        Vfs::new()
    }

    #[test]
    fn create_lookup_getattr() {
        let fs = fs();
        let f = fs.create(fs.root(), "a", 0o644, T1).unwrap();
        assert_eq!(fs.lookup(fs.root(), "a").unwrap(), f);
        let attr = fs.getattr(f).unwrap();
        assert_eq!(attr.kind, FileKind::Regular);
        assert_eq!(attr.size, 0);
        assert_eq!(attr.nlink, 1);
        assert_eq!(attr.mtime, T1);
    }

    #[test]
    fn create_guarded_fails_on_existing() {
        let fs = fs();
        fs.create(fs.root(), "a", 0o644, T0).unwrap();
        assert_eq!(fs.create(fs.root(), "a", 0o644, T0).unwrap_err(), VfsError::Exists);
    }

    #[test]
    fn create_unchecked_returns_existing() {
        let fs = fs();
        let f = fs.create(fs.root(), "a", 0o644, T0).unwrap();
        fs.write(f, 0, b"data", T0).unwrap();
        let again = fs.create_unchecked(fs.root(), "a", 0o644, T1).unwrap();
        assert_eq!(again, f);
        assert_eq!(fs.getattr(f).unwrap().size, 4, "unchecked create must not truncate");
    }

    #[test]
    fn invalid_names_rejected() {
        let fs = fs();
        for name in ["", ".", "..", "a/b"] {
            assert_eq!(
                fs.create(fs.root(), name, 0o644, T0).unwrap_err(),
                VfsError::InvalidArgument
            );
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let fs = fs();
        let f = fs.create(fs.root(), "f", 0o644, T0).unwrap();
        fs.write(f, 0, b"hello world", T1).unwrap();
        let (data, eof) = fs.read(f, 0, 5).unwrap();
        assert_eq!(data, b"hello");
        assert!(!eof);
        let (data, eof) = fs.read(f, 6, 100).unwrap();
        assert_eq!(data, b"world");
        assert!(eof);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let fs = fs();
        let f = fs.create(fs.root(), "f", 0o644, T0).unwrap();
        fs.write(f, 10, b"x", T1).unwrap();
        let (data, _) = fs.read(f, 0, 11).unwrap();
        assert_eq!(data.len(), 11);
        assert!(data[..10].iter().all(|&b| b == 0));
        assert_eq!(data[10], b'x');
    }

    #[test]
    fn read_past_eof_is_empty_eof() {
        let fs = fs();
        let f = fs.create(fs.root(), "f", 0o644, T0).unwrap();
        let (data, eof) = fs.read(f, 100, 10).unwrap();
        assert!(data.is_empty());
        assert!(eof);
    }

    #[test]
    fn write_updates_mtime_and_ctime() {
        let fs = fs();
        let f = fs.create(fs.root(), "f", 0o644, T0).unwrap();
        fs.write(f, 0, b"x", T2).unwrap();
        let attr = fs.getattr(f).unwrap();
        assert_eq!(attr.mtime, T2);
        assert_eq!(attr.ctime, T2);
    }

    #[test]
    fn remove_deletes_when_last_link() {
        let fs = fs();
        let f = fs.create(fs.root(), "f", 0o644, T0).unwrap();
        fs.remove(fs.root(), "f", T1).unwrap();
        assert_eq!(fs.getattr(f).unwrap_err(), VfsError::Stale);
        assert_eq!(fs.lookup(fs.root(), "f").unwrap_err(), VfsError::NotFound);
    }

    #[test]
    fn hard_link_shares_inode() {
        let fs = fs();
        let f = fs.create(fs.root(), "orig", 0o644, T0).unwrap();
        fs.write(f, 0, b"shared", T0).unwrap();
        fs.link(f, fs.root(), "alias", T1).unwrap();
        assert_eq!(fs.getattr(f).unwrap().nlink, 2);
        let alias = fs.lookup(fs.root(), "alias").unwrap();
        assert_eq!(alias, f);
        fs.remove(fs.root(), "orig", T2).unwrap();
        // Still alive through the alias.
        assert_eq!(fs.getattr(f).unwrap().nlink, 1);
        assert_eq!(fs.read(alias, 0, 100).unwrap().0, b"shared");
    }

    #[test]
    fn link_to_existing_name_fails() {
        let fs = fs();
        let f = fs.create(fs.root(), "a", 0o644, T0).unwrap();
        fs.create(fs.root(), "b", 0o644, T0).unwrap();
        assert_eq!(fs.link(f, fs.root(), "b", T1).unwrap_err(), VfsError::Exists);
    }

    #[test]
    fn link_directory_not_supported() {
        let fs = fs();
        let d = fs.mkdir(fs.root(), "d", 0o755, T0).unwrap();
        assert_eq!(fs.link(d, fs.root(), "d2", T0).unwrap_err(), VfsError::NotSupported);
    }

    #[test]
    fn mkdir_updates_parent_nlink() {
        let fs = fs();
        assert_eq!(fs.getattr(fs.root()).unwrap().nlink, 2);
        fs.mkdir(fs.root(), "d", 0o755, T0).unwrap();
        assert_eq!(fs.getattr(fs.root()).unwrap().nlink, 3);
        fs.rmdir(fs.root(), "d", T1).unwrap();
        assert_eq!(fs.getattr(fs.root()).unwrap().nlink, 2);
    }

    #[test]
    fn rmdir_nonempty_fails() {
        let fs = fs();
        let d = fs.mkdir(fs.root(), "d", 0o755, T0).unwrap();
        fs.create(d, "f", 0o644, T0).unwrap();
        assert_eq!(fs.rmdir(fs.root(), "d", T1).unwrap_err(), VfsError::NotEmpty);
    }

    #[test]
    fn remove_on_directory_is_isdir() {
        let fs = fs();
        fs.mkdir(fs.root(), "d", 0o755, T0).unwrap();
        assert_eq!(fs.remove(fs.root(), "d", T1).unwrap_err(), VfsError::IsDir);
    }

    #[test]
    fn rename_within_directory() {
        let fs = fs();
        let f = fs.create(fs.root(), "old", 0o644, T0).unwrap();
        fs.rename(fs.root(), "old", fs.root(), "new", T1).unwrap();
        assert_eq!(fs.lookup(fs.root(), "new").unwrap(), f);
        assert_eq!(fs.lookup(fs.root(), "old").unwrap_err(), VfsError::NotFound);
    }

    #[test]
    fn rename_replaces_existing_file() {
        let fs = fs();
        let a = fs.create(fs.root(), "a", 0o644, T0).unwrap();
        let b = fs.create(fs.root(), "b", 0o644, T0).unwrap();
        fs.rename(fs.root(), "a", fs.root(), "b", T1).unwrap();
        assert_eq!(fs.lookup(fs.root(), "b").unwrap(), a);
        assert_eq!(fs.getattr(b).unwrap_err(), VfsError::Stale);
    }

    #[test]
    fn rename_directory_across_parents_fixes_nlink() {
        let fs = fs();
        let d1 = fs.mkdir(fs.root(), "d1", 0o755, T0).unwrap();
        let d2 = fs.mkdir(fs.root(), "d2", 0o755, T0).unwrap();
        let sub = fs.mkdir(d1, "sub", 0o755, T0).unwrap();
        assert_eq!(fs.getattr(d1).unwrap().nlink, 3);
        fs.rename(d1, "sub", d2, "sub", T1).unwrap();
        assert_eq!(fs.getattr(d1).unwrap().nlink, 2);
        assert_eq!(fs.getattr(d2).unwrap().nlink, 3);
        assert_eq!(fs.lookup(d2, "sub").unwrap(), sub);
    }

    #[test]
    fn rename_into_own_subtree_fails() {
        let fs = fs();
        let d = fs.mkdir(fs.root(), "d", 0o755, T0).unwrap();
        let sub = fs.mkdir(d, "sub", 0o755, T0).unwrap();
        assert_eq!(fs.rename(fs.root(), "d", sub, "d", T1).unwrap_err(), VfsError::InvalidArgument);
    }

    #[test]
    fn rename_noop_same_name() {
        let fs = fs();
        fs.create(fs.root(), "a", 0o644, T0).unwrap();
        fs.rename(fs.root(), "a", fs.root(), "a", T1).unwrap();
        assert!(fs.lookup(fs.root(), "a").is_ok());
    }

    #[test]
    fn readdir_pagination_is_stable() {
        let fs = fs();
        for i in 0..10 {
            fs.create(fs.root(), &format!("f{i}"), 0o644, T0).unwrap();
        }
        let page1 = fs.readdir(fs.root(), 0, 4).unwrap();
        assert_eq!(page1.entries.len(), 4);
        assert!(!page1.eof);
        let page2 = fs.readdir(fs.root(), page1.entries.last().unwrap().cookie, 100).unwrap();
        assert_eq!(page2.entries.len(), 6);
        assert!(page2.eof);
        let names: Vec<_> =
            page1.entries.iter().chain(&page2.entries).map(|e| e.name.clone()).collect();
        assert_eq!(names, (0..10).map(|i| format!("f{i}")).collect::<Vec<_>>());
    }

    #[test]
    fn readdir_survives_concurrent_removal() {
        let fs = fs();
        for i in 0..6 {
            fs.create(fs.root(), &format!("f{i}"), 0o644, T0).unwrap();
        }
        let page1 = fs.readdir(fs.root(), 0, 3).unwrap();
        fs.remove(fs.root(), "f4", T1).unwrap();
        let page2 = fs.readdir(fs.root(), page1.entries.last().unwrap().cookie, 100).unwrap();
        let names: Vec<_> = page2.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["f3", "f5"]);
    }

    #[test]
    fn setattr_truncate_and_extend() {
        let fs = fs();
        let f = fs.create(fs.root(), "f", 0o644, T0).unwrap();
        fs.write(f, 0, b"hello", T0).unwrap();
        fs.setattr(f, SetAttr { size: Some(2), ..Default::default() }, T1).unwrap();
        assert_eq!(fs.read(f, 0, 100).unwrap().0, b"he");
        fs.setattr(f, SetAttr { size: Some(4), ..Default::default() }, T2).unwrap();
        assert_eq!(fs.read(f, 0, 100).unwrap().0, b"he\0\0");
    }

    #[test]
    fn setattr_mode_masks_type_bits() {
        let fs = fs();
        let f = fs.create(fs.root(), "f", 0o644, T0).unwrap();
        fs.setattr(f, SetAttr { mode: Some(0o100_777), ..Default::default() }, T1).unwrap();
        assert_eq!(fs.getattr(f).unwrap().mode, 0o777);
    }

    #[test]
    fn symlink_roundtrip() {
        let fs = fs();
        let l = fs.symlink(fs.root(), "l", "/target/path", T0).unwrap();
        assert_eq!(fs.readlink(l).unwrap(), "/target/path");
        assert_eq!(fs.getattr(l).unwrap().kind, FileKind::Symlink);
    }

    #[test]
    fn lookup_path_resolves_nested() {
        let fs = fs();
        let a = fs.mkdir(fs.root(), "a", 0o755, T0).unwrap();
        let b = fs.mkdir(a, "b", 0o755, T0).unwrap();
        let f = fs.create(b, "c", 0o644, T0).unwrap();
        assert_eq!(fs.lookup_path("/a/b/c").unwrap(), f);
        assert_eq!(fs.lookup_path("a/b/c").unwrap(), f);
        assert_eq!(fs.lookup_path("/").unwrap(), fs.root());
        assert_eq!(fs.lookup_path("/a/x").unwrap_err(), VfsError::NotFound);
    }

    #[test]
    fn fsstat_tracks_bytes_and_objects() {
        let fs = fs();
        let f = fs.create(fs.root(), "f", 0o644, T0).unwrap();
        fs.write(f, 0, &[0u8; 1000], T0).unwrap();
        let stat = fs.fsstat();
        assert_eq!(stat.used_bytes, 1000);
        assert_eq!(stat.objects, 2); // root + file
        fs.remove(fs.root(), "f", T1).unwrap();
        assert_eq!(fs.fsstat().used_bytes, 0);
    }

    #[test]
    fn fileids_are_never_reused() {
        let fs = fs();
        let a = fs.create(fs.root(), "a", 0o644, T0).unwrap();
        fs.remove(fs.root(), "a", T0).unwrap();
        let b = fs.create(fs.root(), "a", 0o644, T0).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn dir_mtime_changes_on_child_creation() {
        let fs = fs();
        let before = fs.getattr(fs.root()).unwrap().mtime;
        fs.create(fs.root(), "f", 0o644, T2).unwrap();
        let after = fs.getattr(fs.root()).unwrap().mtime;
        assert!(after > before);
    }
}
