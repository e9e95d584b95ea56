//! Shared NFSv3 data types: file handles, attributes, weak cache
//! consistency data.

use gvfs_vfs::{Attr, FileKind, Timestamp};
use gvfs_xdr::{Decoder, Encoder, Xdr, XdrError};

/// Maximum file-handle size in bytes (RFC 1813).
pub const FHSIZE3: usize = 64;

/// An NFSv3 file handle: opaque to clients, minted by the server.
///
/// This implementation encodes the backing filesystem's stable file id
/// in eight bytes; handles of deleted files are detected as stale by the
/// id never being reused.
///
/// # Examples
///
/// ```
/// let fh = gvfs_nfs3::Fh3::from_fileid(42);
/// assert_eq!(fh.fileid(), 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fh3 {
    fileid: u64,
}

impl Fh3 {
    /// Builds a handle for a file id.
    pub const fn from_fileid(fileid: u64) -> Self {
        Fh3 { fileid }
    }

    /// The embedded file id.
    pub const fn fileid(self) -> u64 {
        self.fileid
    }
}

impl Xdr for Fh3 {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_opaque(&self.fileid.to_be_bytes())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let data = dec.get_opaque_bounded_ref("Fh3", FHSIZE3)?;
        let bytes = <[u8; 8]>::try_from(data).map_err(|_| XdrError::LengthBound {
            type_name: "Fh3",
            declared: data.len(),
            max: 8,
        })?;
        Ok(Fh3 { fileid: u64::from_be_bytes(bytes) })
    }
}

/// NFS object type (`ftype3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum Ftype3 {
    /// Regular file.
    Reg = 1,
    /// Directory.
    Dir = 2,
    /// Symbolic link.
    Lnk = 5,
}

impl Xdr for Ftype3 {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_u32(*self as u32);
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            1 => Ok(Ftype3::Reg),
            2 => Ok(Ftype3::Dir),
            5 => Ok(Ftype3::Lnk),
            value => Err(XdrError::InvalidDiscriminant { type_name: "Ftype3", value }),
        }
    }
}

impl From<FileKind> for Ftype3 {
    fn from(kind: FileKind) -> Self {
        match kind {
            FileKind::Regular => Ftype3::Reg,
            FileKind::Directory => Ftype3::Dir,
            FileKind::Symlink => Ftype3::Lnk,
        }
    }
}

/// NFS timestamp (`nfstime3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct NfsTime3 {
    /// Whole seconds.
    pub seconds: u32,
    /// Nanoseconds within the second.
    pub nseconds: u32,
}

impl Xdr for NfsTime3 {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_u32(self.seconds);
        enc.put_u32(self.nseconds);
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(NfsTime3 { seconds: dec.get_u32()?, nseconds: dec.get_u32()? })
    }
}

impl From<Timestamp> for NfsTime3 {
    fn from(t: Timestamp) -> Self {
        let (seconds, nseconds) = t.to_secs_nanos();
        NfsTime3 { seconds, nseconds }
    }
}

impl From<NfsTime3> for Timestamp {
    fn from(t: NfsTime3) -> Self {
        Timestamp::from_nanos(t.seconds as u64 * 1_000_000_000 + t.nseconds as u64)
    }
}

/// File attributes (`fattr3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fattr3 {
    /// Object type.
    pub ftype: Ftype3,
    /// Permission bits.
    pub mode: u32,
    /// Hard-link count.
    pub nlink: u32,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// File size in bytes.
    pub size: u64,
    /// Bytes actually used on disk.
    pub used: u64,
    /// Device numbers (always zero here).
    pub rdev: (u32, u32),
    /// Filesystem id.
    pub fsid: u64,
    /// Stable file id.
    pub fileid: u64,
    /// Last access time.
    pub atime: NfsTime3,
    /// Last modification time.
    pub mtime: NfsTime3,
    /// Last attribute change time.
    pub ctime: NfsTime3,
}

impl Xdr for Fattr3 {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        self.ftype.encode(enc)?;
        enc.put_u32(self.mode);
        enc.put_u32(self.nlink);
        enc.put_u32(self.uid);
        enc.put_u32(self.gid);
        enc.put_u64(self.size);
        enc.put_u64(self.used);
        enc.put_u32(self.rdev.0);
        enc.put_u32(self.rdev.1);
        enc.put_u64(self.fsid);
        enc.put_u64(self.fileid);
        self.atime.encode(enc)?;
        self.mtime.encode(enc)?;
        self.ctime.encode(enc)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(Fattr3 {
            ftype: Ftype3::decode(dec)?,
            mode: dec.get_u32()?,
            nlink: dec.get_u32()?,
            uid: dec.get_u32()?,
            gid: dec.get_u32()?,
            size: dec.get_u64()?,
            used: dec.get_u64()?,
            rdev: (dec.get_u32()?, dec.get_u32()?),
            fsid: dec.get_u64()?,
            fileid: dec.get_u64()?,
            atime: NfsTime3::decode(dec)?,
            mtime: NfsTime3::decode(dec)?,
            ctime: NfsTime3::decode(dec)?,
        })
    }
}

impl From<Attr> for Fattr3 {
    fn from(a: Attr) -> Self {
        Fattr3 {
            ftype: a.kind.into(),
            mode: a.mode,
            nlink: a.nlink,
            uid: a.uid,
            gid: a.gid,
            size: a.size,
            used: a.size,
            rdev: (0, 0),
            fsid: 1,
            fileid: a.fileid,
            atime: a.atime.into(),
            mtime: a.mtime.into(),
            ctime: a.ctime.into(),
        }
    }
}

/// Optional post-operation attributes (`post_op_attr`).
pub type PostOpAttr = Option<Fattr3>;

/// Optional post-operation file handle (`post_op_fh3`).
pub type PostOpFh3 = Option<Fh3>;

/// The attribute subset carried in pre-operation WCC data (`wcc_attr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WccAttr {
    /// File size before the operation.
    pub size: u64,
    /// Modification time before the operation.
    pub mtime: NfsTime3,
    /// Change time before the operation.
    pub ctime: NfsTime3,
}

impl Xdr for WccAttr {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_u64(self.size);
        self.mtime.encode(enc)?;
        self.ctime.encode(enc)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(WccAttr {
            size: dec.get_u64()?,
            mtime: NfsTime3::decode(dec)?,
            ctime: NfsTime3::decode(dec)?,
        })
    }
}

impl From<Attr> for WccAttr {
    fn from(a: Attr) -> Self {
        WccAttr { size: a.size, mtime: a.mtime.into(), ctime: a.ctime.into() }
    }
}

/// Optional pre-operation attributes (`pre_op_attr`).
pub type PreOpAttr = Option<WccAttr>;

/// Weak cache consistency data (`wcc_data`): before/after attributes so
/// clients can detect whether their cached view remained valid across
/// the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WccData {
    /// Attributes before the operation, if the server captured them.
    pub before: PreOpAttr,
    /// Attributes after the operation, if available.
    pub after: PostOpAttr,
}

impl Xdr for WccData {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        self.before.encode(enc)?;
        self.after.encode(enc)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(WccData { before: PreOpAttr::decode(dec)?, after: PostOpAttr::decode(dec)? })
    }
}

/// How to set a time field in `sattr3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeHow {
    /// Leave the time unchanged.
    #[default]
    DontChange,
    /// Set to the server's current time.
    ServerTime,
    /// Set to this client-supplied time.
    Client(NfsTime3),
}

impl Xdr for TimeHow {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        match self {
            TimeHow::DontChange => enc.put_u32(0),
            TimeHow::ServerTime => enc.put_u32(1),
            TimeHow::Client(t) => {
                enc.put_u32(2);
                t.encode(enc)?;
            }
        }
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            0 => Ok(TimeHow::DontChange),
            1 => Ok(TimeHow::ServerTime),
            2 => Ok(TimeHow::Client(NfsTime3::decode(dec)?)),
            value => Err(XdrError::InvalidDiscriminant { type_name: "TimeHow", value }),
        }
    }
}

/// Settable attributes (`sattr3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sattr3 {
    /// New mode bits.
    pub mode: Option<u32>,
    /// New owner uid.
    pub uid: Option<u32>,
    /// New owner gid.
    pub gid: Option<u32>,
    /// New size (truncate/extend).
    pub size: Option<u64>,
    /// Access-time policy.
    pub atime: TimeHow,
    /// Modification-time policy.
    pub mtime: TimeHow,
}

impl Xdr for Sattr3 {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        self.mode.encode(enc)?;
        self.uid.encode(enc)?;
        self.gid.encode(enc)?;
        self.size.encode(enc)?;
        self.atime.encode(enc)?;
        self.mtime.encode(enc)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(Sattr3 {
            mode: Option::<u32>::decode(dec)?,
            uid: Option::<u32>::decode(dec)?,
            gid: Option::<u32>::decode(dec)?,
            size: Option::<u64>::decode(dec)?,
            atime: TimeHow::decode(dec)?,
            mtime: TimeHow::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt<T: Xdr + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = gvfs_xdr::to_bytes(v).unwrap();
        assert_eq!(&gvfs_xdr::from_bytes::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn fh3_roundtrip_and_width() {
        let fh = Fh3::from_fileid(0x0102_0304_0506_0708);
        let bytes = gvfs_xdr::to_bytes(&fh).unwrap();
        assert_eq!(bytes.len(), 12); // 4-byte length + 8 data
        rt(&fh);
    }

    #[test]
    fn fh3_rejects_wrong_width() {
        let mut enc = Encoder::new();
        enc.put_opaque(&[1, 2, 3]).unwrap();
        assert!(gvfs_xdr::from_bytes::<Fh3>(&enc.into_bytes()).is_err());
    }

    #[test]
    fn fattr3_roundtrip() {
        let attr = Fattr3 {
            ftype: Ftype3::Reg,
            mode: 0o644,
            nlink: 2,
            uid: 1000,
            gid: 100,
            size: 12345,
            used: 12345,
            rdev: (0, 0),
            fsid: 1,
            fileid: 99,
            atime: NfsTime3 { seconds: 1, nseconds: 2 },
            mtime: NfsTime3 { seconds: 3, nseconds: 4 },
            ctime: NfsTime3 { seconds: 5, nseconds: 6 },
        };
        rt(&attr);
        // fattr3 is 84 bytes on the wire (RFC 1813).
        assert_eq!(gvfs_xdr::encoded_len(&attr).unwrap(), 84);
    }

    #[test]
    fn wcc_data_roundtrip() {
        rt(&WccData::default());
        let wcc = WccData {
            before: Some(WccAttr {
                size: 1,
                mtime: NfsTime3::default(),
                ctime: NfsTime3::default(),
            }),
            after: None,
        };
        rt(&wcc);
    }

    #[test]
    fn sattr3_roundtrip() {
        rt(&Sattr3::default());
        rt(&Sattr3 {
            mode: Some(0o755),
            uid: None,
            gid: Some(5),
            size: Some(0),
            atime: TimeHow::ServerTime,
            mtime: TimeHow::Client(NfsTime3 { seconds: 9, nseconds: 9 }),
        });
    }

    #[test]
    fn ftype_from_kind() {
        assert_eq!(Ftype3::from(FileKind::Regular), Ftype3::Reg);
        assert_eq!(Ftype3::from(FileKind::Directory), Ftype3::Dir);
        assert_eq!(Ftype3::from(FileKind::Symlink), Ftype3::Lnk);
    }

    #[test]
    fn time_conversions_roundtrip() {
        let t = Timestamp::from_nanos(5_123_456_789);
        let nfs: NfsTime3 = t.into();
        assert_eq!(nfs, NfsTime3 { seconds: 5, nseconds: 123_456_789 });
        assert_eq!(Timestamp::from(nfs), t);
    }
}
