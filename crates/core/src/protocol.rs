//! GVFS wire-protocol extensions.
//!
//! Three pieces ride on ONC RPC alongside native NFS:
//!
//! * The **proxy program** ([`GVFS_PROXY_PROGRAM`]): proxy clients send
//!   NFSv3 procedures (same procedure numbers, same argument encodings)
//!   to the proxy server, which replies with the native NFS result
//!   prefixed by a piggybacked [`DelegationGrant`] — the paper's
//!   "delegation and cacheability decisions piggybacked on the native
//!   NFS reply message". Procedure [`proc_ext::GETINV`] implements the
//!   invalidation poll.
//! * The **callback program** ([`GVFS_CALLBACK_PROGRAM`]) served by each
//!   proxy *client*: per-file delegation recalls ([`CallbackArgs`]) and
//!   the cache-wide recovery callback after a server restart.

use gvfs_nfs3::Fh3;
use gvfs_xdr::{Decoder, Encoder, Xdr, XdrError};

/// RPC program number of the GVFS proxy service (proxy client → proxy
/// server). Sits in the transient range.
pub const GVFS_PROXY_PROGRAM: u32 = 0x4000_0100;
/// RPC program number of the proxy client's callback service (proxy
/// server → proxy client).
pub const GVFS_CALLBACK_PROGRAM: u32 = 0x4000_0101;
/// Version of both GVFS programs.
pub const GVFS_VERSION: u32 = 1;

/// Extension procedure numbers (NFS procedures keep their RFC 1813
/// numbers on the proxy program).
pub mod proc_ext {
    /// Poll the proxy server's invalidation buffer (§4.2).
    pub const GETINV: u32 = 100;
    /// Per-file delegation recall (callback program).
    pub const CALLBACK: u32 = 1;
    /// Cache-wide recovery callback after proxy-server restart
    /// (callback program).
    pub const RECOVER: u32 = 2;
    /// Peer block fetch (callback program): one proxy *client* asks
    /// another for a clean cached block range it was advertised as
    /// holding. The origin keeps sole authority over attributes and
    /// invalidation; the peer only moves verified bytes.
    pub const PEERREAD: u32 = 3;
}

/// Maximum invalidation handles carried in a single `GETINV` reply; more
/// pending entries set the `poll_again` flag (§4.2.1 step 3). At 512
/// handles (~6 KiB of payload) a 14 K-entry update drains in ~28 calls,
/// matching the paper's "about 30 GETINV calls" for the MATLAB update.
pub const MAX_INVALIDATIONS_PER_REPLY: usize = 512;

/// Maximum peer client ids carried in one [`PeerAdvert`]. Enough for a
/// useful next-best list after breaker skips without bloating every
/// reply; the origin picks the advertised subset.
pub const MAX_PEER_HOLDERS: usize = 8;

/// The change attribute peer sourcing attests blocks against: a
/// monotone `u64` folding of the file's NFSv3 modification time (v3
/// has no `change` attribute; mtime is what the attribute cache keys
/// freshness on, so it is what a peer's copy must match exactly).
pub fn change_of(mtime: gvfs_nfs3::NfsTime3) -> u64 {
    (u64::from(mtime.seconds) << 32) | u64::from(mtime.nseconds)
}

/// The delegation/cacheability decision piggybacked on every proxy
/// reply (§4.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u32)]
pub enum DelegationGrant {
    /// No delegation; cache per the session's relaxed model.
    #[default]
    None = 0,
    /// Read delegation: cached reads need no revalidation.
    Read = 1,
    /// Write delegation: reads and delayed writes served from cache.
    Write = 2,
    /// The file is temporarily non-cacheable (a sharing conflict is
    /// being resolved); bypass the cache for it.
    NonCacheable = 3,
}

impl Xdr for DelegationGrant {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_u32(*self as u32);
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            0 => Ok(DelegationGrant::None),
            1 => Ok(DelegationGrant::Read),
            2 => Ok(DelegationGrant::Write),
            3 => Ok(DelegationGrant::NonCacheable),
            value => Err(XdrError::InvalidDiscriminant { type_name: "DelegationGrant", value }),
        }
    }
}

/// A proxy-program reply: the piggybacked grant plus the raw native NFS
/// reply bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrappedReply {
    /// Piggybacked delegation decision.
    pub grant: DelegationGrant,
    /// Piggybacked invalidation drain (§4.2 extension): the reply the
    /// client's next `GETINV` would have produced, riding on this call
    /// so a steady-state poll costs zero extra messages. `None` when
    /// the client has no pending invalidations.
    pub inv: Option<GetinvRes>,
    /// Piggybacked peer advertisement: which live clients hold a clean
    /// copy of the file this reply served, so a `peer_read` client can
    /// source the bytes over the LAN instead of the origin WAN. Rides
    /// as a *second* trailing optional, so `peers` may only be present
    /// when `inv` is — the server synthesizes an empty drain when it
    /// has an advert but nothing pending.
    pub peers: Option<PeerAdvert>,
    /// The unmodified NFSv3 result encoding.
    pub nfs_bytes: Vec<u8>,
}

impl Xdr for WrappedReply {
    // `inv` rides as a *trailing* optional — present iff bytes follow
    // the opaque NFS reply — so a reply with nothing to piggyback is
    // byte-identical (and therefore wire-time identical) to the
    // pre-piggyback format. The encoding stays unambiguous because
    // `nfs_bytes` is length-prefixed. `peers` extends the same trick
    // one level: present iff bytes follow the drain, which is why the
    // encoder refuses to write an advert without a drain in front of
    // it (the decoder could not tell the two apart).
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        self.grant.encode(enc)?;
        enc.put_opaque(&self.nfs_bytes)?;
        match &self.inv {
            Some(inv) => {
                inv.encode(enc)?;
                match &self.peers {
                    Some(peers) => peers.encode(enc),
                    None => Ok(()),
                }
            }
            // Invariant: peers ⟹ inv. An advert with no drain is
            // undecodable, so it is dropped rather than mis-framed.
            None => Ok(()),
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let grant = DelegationGrant::decode(dec)?;
        let nfs_bytes = dec.get_opaque()?;
        let inv = if dec.remaining() > 0 { Some(GetinvRes::decode(dec)?) } else { None };
        let peers = if inv.is_some() && dec.remaining() > 0 {
            Some(PeerAdvert::decode(dec)?)
        } else {
            None
        };
        Ok(WrappedReply { grant, inv, peers, nfs_bytes })
    }
}

/// A peer advertisement: live clients known by the origin to hold a
/// clean copy of `fh`, plus the origin-attested attributes the reader
/// must verify any peer-served bytes against. The origin de-advertises
/// eagerly — under the same invalidation `buffers` lock that condemns the
/// handle — so an advert never outlives the data's validity *at the
/// origin*; the `change` check catches the remaining races end-to-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerAdvert {
    /// The advertised file.
    pub fh: Fh3,
    /// Origin-attested change attribute the peer's copy must match.
    pub change: u64,
    /// Origin-attested file length (guards truncated peer copies).
    pub len: u64,
    /// Client ids holding clean copies, capped at
    /// [`MAX_PEER_HOLDERS`].
    pub holders: Vec<u32>,
}

impl Xdr for PeerAdvert {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        self.fh.encode(enc)?;
        enc.put_u64(self.change);
        enc.put_u64(self.len);
        self.holders.encode(enc)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(PeerAdvert {
            fh: Fh3::decode(dec)?,
            change: dec.get_u64()?,
            len: dec.get_u64()?,
            holders: Vec::<u32>::decode(dec)?,
        })
    }
}

/// `PEERREAD` arguments: the block range wanted and the origin-attested
/// change attribute the peer's cached copy must match exactly — a peer
/// holding any other version answers [`PeerReadRes::Miss`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerReadArgs {
    /// The file to read.
    pub fh: Fh3,
    /// Byte offset of the wanted range.
    pub offset: u64,
    /// Byte count of the wanted range.
    pub count: u32,
    /// Origin-attested change attribute the copy must carry.
    pub change: u64,
}

impl Xdr for PeerReadArgs {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        self.fh.encode(enc)?;
        enc.put_u64(self.offset);
        enc.put_u32(self.count);
        enc.put_u64(self.change);
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(PeerReadArgs {
            fh: Fh3::decode(dec)?,
            offset: dec.get_u64()?,
            count: dec.get_u32()?,
            change: dec.get_u64()?,
        })
    }
}

/// `PEERREAD` result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerReadRes {
    /// The peer holds a clean, change-matched copy of the range.
    Ok {
        /// The change attribute of the served copy (echoes the
        /// request's on a well-behaved peer; the reader re-checks).
        change: u64,
        /// The peer's cached file length.
        len: u64,
        /// The store's content hash of `data` (`content_hash`, the
        /// content-address form), verified end-to-end by the reader.
        hash: u64,
        /// The block bytes.
        data: Vec<u8>,
    },
    /// The peer no longer holds a clean matching copy; the reader
    /// falls back to the origin.
    Miss,
}

impl Xdr for PeerReadRes {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        match self {
            PeerReadRes::Ok { change, len, hash, data } => {
                enc.put_u32(0);
                enc.put_u64(*change);
                enc.put_u64(*len);
                enc.put_u64(*hash);
                enc.put_opaque(data)?;
                Ok(())
            }
            PeerReadRes::Miss => {
                enc.put_u32(1);
                Ok(())
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            0 => Ok(PeerReadRes::Ok {
                change: dec.get_u64()?,
                len: dec.get_u64()?,
                hash: dec.get_u64()?,
                data: dec.get_opaque()?,
            }),
            1 => Ok(PeerReadRes::Miss),
            value => Err(XdrError::InvalidDiscriminant { type_name: "PeerReadRes", value }),
        }
    }
}

/// `GETINV` arguments: the client's last known server timestamp, or
/// `None` to bootstrap (§4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetinvArgs {
    /// Last invalidation timestamp the client has applied.
    pub last_timestamp: Option<u64>,
}

impl Xdr for GetinvArgs {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        self.last_timestamp.encode(enc)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(GetinvArgs { last_timestamp: Option::<u64>::decode(dec)? })
    }
}

/// `GETINV` result (§4.2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetinvRes {
    /// The server's current logical timestamp.
    pub timestamp: u64,
    /// When set, the client must invalidate its entire attribute cache
    /// (first contact, wrap-around, or server restart).
    pub force_invalidate: bool,
    /// When set, more invalidations are pending than fit this reply;
    /// poll again immediately.
    pub poll_again: bool,
    /// File handles whose cached attributes must be invalidated.
    pub handles: Vec<Fh3>,
}

impl Xdr for GetinvRes {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_u64(self.timestamp);
        enc.put_bool(self.force_invalidate);
        enc.put_bool(self.poll_again);
        self.handles.encode(enc)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(GetinvRes {
            timestamp: dec.get_u64()?,
            force_invalidate: dec.get_bool()?,
            poll_again: dec.get_bool()?,
            handles: Vec::<Fh3>::decode(dec)?,
        })
    }
}

/// Which delegation a callback recalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum CallbackKind {
    /// Recall a read delegation: invalidate the file's cached
    /// attributes.
    RecallRead = 1,
    /// Recall a write delegation: write dirty data back (fully, or
    /// partially with a block list).
    RecallWrite = 2,
}

impl Xdr for CallbackKind {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_u32(*self as u32);
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            1 => Ok(CallbackKind::RecallRead),
            2 => Ok(CallbackKind::RecallWrite),
            value => Err(XdrError::InvalidDiscriminant { type_name: "CallbackKind", value }),
        }
    }
}

/// `CALLBACK` arguments: the file being recalled and, when another
/// client is waiting on a specific block, that block's offset — "the
/// requested block's offset is sent along with the file's handle in the
/// callback" (§4.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallbackArgs {
    /// The recalled file.
    pub fh: Fh3,
    /// What is being recalled.
    pub kind: CallbackKind,
    /// Block offset another client is blocked on, if any.
    pub requested_offset: Option<u64>,
}

impl Xdr for CallbackArgs {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        self.fh.encode(enc)?;
        self.kind.encode(enc)?;
        self.requested_offset.encode(enc)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(CallbackArgs {
            fh: Fh3::decode(dec)?,
            kind: CallbackKind::decode(dec)?,
            requested_offset: Option::<u64>::decode(dec)?,
        })
    }
}

/// `CALLBACK` result: when the client elects partial write-back, the
/// offsets of blocks still dirty (to be submitted asynchronously);
/// empty when everything is already flushed or the recall was for a
/// read delegation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CallbackRes {
    /// Offsets (in bytes) of blocks not yet written back.
    pub pending_blocks: Vec<u64>,
}

impl Xdr for CallbackRes {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        self.pending_blocks.encode(enc)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(CallbackRes { pending_blocks: Vec::<u64>::decode(dec)? })
    }
}

/// `RECOVER` result: a recovering proxy server multicasts this
/// cache-wide callback; clients invalidate all cached attributes and
/// write-delegation holders return the files they hold dirty so the
/// server can rebuild its open-file table (§4.3.4).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoverRes {
    /// Files for which this client holds locally modified data.
    pub dirty_files: Vec<Fh3>,
}

impl Xdr for RecoverRes {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        self.dirty_files.encode(enc)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(RecoverRes { dirty_files: Vec::<Fh3>::decode(dec)? })
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
    fn grants_roundtrip() {
        for g in [
            DelegationGrant::None,
            DelegationGrant::Read,
            DelegationGrant::Write,
            DelegationGrant::NonCacheable,
        ] {
            rt(&g);
        }
        assert!(gvfs_xdr::from_bytes::<DelegationGrant>(&[0, 0, 0, 9]).is_err());
    }

    #[test]
    fn wrapped_reply_roundtrip() {
        rt(&WrappedReply {
            grant: DelegationGrant::Read,
            inv: None,
            peers: None,
            nfs_bytes: vec![0, 0, 0, 0],
        });
        rt(&WrappedReply {
            grant: DelegationGrant::None,
            inv: None,
            peers: None,
            nfs_bytes: vec![],
        });
        rt(&WrappedReply {
            grant: DelegationGrant::None,
            inv: Some(GetinvRes {
                timestamp: 17,
                force_invalidate: false,
                poll_again: true,
                handles: vec![Fh3::from_fileid(3)],
            }),
            peers: None,
            nfs_bytes: vec![1, 2, 3, 4],
        });
        rt(&WrappedReply {
            grant: DelegationGrant::Read,
            inv: Some(GetinvRes {
                timestamp: 99,
                force_invalidate: false,
                poll_again: false,
                handles: vec![],
            }),
            peers: Some(PeerAdvert {
                fh: Fh3::from_fileid(7),
                change: 3,
                len: 65536,
                holders: vec![0, 2, 5],
            }),
            nfs_bytes: vec![9, 9],
        });
    }

    #[test]
    fn wrapped_reply_without_peers_is_byte_identical_to_pre_peer_format() {
        // A reply carrying no advert must encode to exactly the bytes
        // the pre-PEERREAD format produced: grant + opaque + optional
        // drain, nothing more. This is the wire-compat half of the
        // trailing-optional discipline.
        let reply = WrappedReply {
            grant: DelegationGrant::Write,
            inv: Some(GetinvRes {
                timestamp: 5,
                force_invalidate: false,
                poll_again: false,
                handles: vec![Fh3::from_fileid(1)],
            }),
            peers: None,
            nfs_bytes: vec![1, 2, 3, 4],
        };
        let bytes = gvfs_xdr::to_bytes(&reply).unwrap();
        let mut manual = gvfs_xdr::Encoder::new();
        reply.grant.encode(&mut manual).unwrap();
        manual.put_opaque(&reply.nfs_bytes).unwrap();
        reply.inv.as_ref().unwrap().encode(&mut manual).unwrap();
        assert_eq!(bytes, manual.into_bytes());
    }

    #[test]
    fn wrapped_reply_advert_without_drain_is_dropped_not_misframed() {
        // peers ⟹ inv: an advert without a drain in front of it would
        // be undecodable, so the encoder drops it entirely.
        let reply = WrappedReply {
            grant: DelegationGrant::None,
            inv: None,
            peers: Some(PeerAdvert {
                fh: Fh3::from_fileid(9),
                change: 1,
                len: 10,
                holders: vec![4],
            }),
            nfs_bytes: vec![8, 8, 8, 8],
        };
        let bytes = gvfs_xdr::to_bytes(&reply).unwrap();
        let decoded = gvfs_xdr::from_bytes::<WrappedReply>(&bytes).unwrap();
        assert_eq!(decoded.inv, None);
        assert_eq!(decoded.peers, None);
        assert_eq!(decoded.nfs_bytes, reply.nfs_bytes);
    }

    #[test]
    fn peer_types_roundtrip() {
        rt(&PeerAdvert { fh: Fh3::from_fileid(11), change: 7, len: 1 << 20, holders: vec![1, 3] });
        rt(&PeerAdvert { fh: Fh3::from_fileid(11), change: 0, len: 0, holders: vec![] });
        rt(&PeerReadArgs { fh: Fh3::from_fileid(2), offset: 32768, count: 32768, change: 4 });
        rt(&PeerReadRes::Ok { change: 4, len: 65536, hash: 0xdead_beef, data: vec![5; 128] });
        rt(&PeerReadRes::Miss);
        assert!(gvfs_xdr::from_bytes::<PeerReadRes>(&[0, 0, 0, 7]).is_err());
    }

    #[test]
    fn getinv_roundtrip() {
        rt(&GetinvArgs { last_timestamp: None });
        rt(&GetinvArgs { last_timestamp: Some(42) });
        rt(&GetinvRes {
            timestamp: 99,
            force_invalidate: true,
            poll_again: false,
            handles: vec![Fh3::from_fileid(1), Fh3::from_fileid(2)],
        });
    }

    #[test]
    fn callback_roundtrip() {
        rt(&CallbackArgs {
            fh: Fh3::from_fileid(7),
            kind: CallbackKind::RecallWrite,
            requested_offset: Some(65536),
        });
        rt(&CallbackArgs {
            fh: Fh3::from_fileid(7),
            kind: CallbackKind::RecallRead,
            requested_offset: None,
        });
        rt(&CallbackRes { pending_blocks: vec![0, 32768, 65536] });
        rt(&RecoverRes { dirty_files: vec![Fh3::from_fileid(3)] });
    }

    #[test]
    fn programs_are_distinct_and_transient() {
        assert_ne!(GVFS_PROXY_PROGRAM, GVFS_CALLBACK_PROGRAM);
        // The transient program-number range starts at 0x4000_0000.
        let transient_floor: u32 = 0x4000_0000;
        assert!(GVFS_PROXY_PROGRAM >= transient_floor);
    }
}
