//! The `rpc_msg` wire structures of RFC 5531.
//!
//! A message is a transaction id (`xid`) plus either a [`CallBody`] or a
//! [`ReplyBody`]. Procedure arguments and results are carried as raw,
//! already-XDR-encoded bytes trailing the header, exactly as on the wire.

use crate::RpcError;
use gvfs_xdr::{Decoder, Encoder, Xdr, XdrError};

/// The fixed RPC protocol version.
pub const RPC_VERSION: u32 = 2;

/// `AUTH_NONE` flavor number.
pub const AUTH_NONE: u32 = 0;
/// `AUTH_SYS` (a.k.a. `AUTH_UNIX`) flavor number.
pub const AUTH_SYS: u32 = 1;
/// GVFS session credential flavor. Proxy clients encapsulate a unique
/// session key, client id and callback listening port in every request
/// (paper §4.3.2/§4.3.3) so the proxy server can authenticate the session
/// and knows how to connect back for callbacks.
pub const AUTH_GVFS_SESSION: u32 = 0x4756_4653; // "GVFS"

/// Maximum accepted size for an auth body, per RFC 5531.
pub const MAX_AUTH_BODY: usize = 400;

/// An authenticator: a flavor number and opaque body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpaqueAuth {
    flavor: u32,
    body: Vec<u8>,
}

impl OpaqueAuth {
    /// The `AUTH_NONE` authenticator.
    pub fn none() -> Self {
        OpaqueAuth { flavor: AUTH_NONE, body: Vec::new() }
    }

    /// Builds a GVFS session credential.
    pub fn gvfs(cred: &GvfsCred) -> Result<Self, XdrError> {
        Ok(OpaqueAuth { flavor: AUTH_GVFS_SESSION, body: gvfs_xdr::to_bytes(cred)? })
    }

    /// The flavor number.
    pub fn flavor(&self) -> u32 {
        self.flavor
    }

    /// The opaque body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Decodes the body as an `AUTH_SYS` credential.
    ///
    /// # Errors
    ///
    /// Returns an error if the flavor is not `AUTH_SYS` or the body is
    /// malformed.
    pub fn as_sys(&self) -> Result<AuthSys, RpcError> {
        if self.flavor != AUTH_SYS {
            return Err(RpcError::AuthError);
        }
        Ok(gvfs_xdr::from_bytes(&self.body)?)
    }

    /// Decodes the body as a GVFS session credential.
    ///
    /// # Errors
    ///
    /// Returns an error if the flavor is not [`AUTH_GVFS_SESSION`] or the
    /// body is malformed.
    pub fn as_gvfs(&self) -> Result<GvfsCred, RpcError> {
        if self.flavor != AUTH_GVFS_SESSION {
            return Err(RpcError::AuthError);
        }
        Ok(gvfs_xdr::from_bytes(&self.body)?)
    }
}

impl Xdr for OpaqueAuth {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_u32(self.flavor);
        enc.put_opaque(&self.body)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let flavor = dec.get_u32()?;
        let body = dec.get_opaque_bounded("OpaqueAuth", MAX_AUTH_BODY)?;
        Ok(OpaqueAuth { flavor, body })
    }
}

/// An `AUTH_SYS` credential body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuthSys {
    /// Arbitrary caller-chosen stamp.
    pub stamp: u32,
    /// Caller machine name.
    pub machine_name: String,
    /// Effective user id.
    pub uid: u32,
    /// Effective group id.
    pub gid: u32,
    /// Supplementary group ids (at most 16).
    pub gids: Vec<u32>,
}

impl Xdr for AuthSys {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_u32(self.stamp);
        enc.put_string(&self.machine_name)?;
        enc.put_u32(self.uid);
        enc.put_u32(self.gid);
        self.gids.encode(enc)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(AuthSys {
            stamp: dec.get_u32()?,
            machine_name: dec.get_string()?,
            uid: dec.get_u32()?,
            gid: dec.get_u32()?,
            gids: Vec::<u32>::decode(dec)?,
        })
    }
}

/// The GVFS session credential carried in every proxy-client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct GvfsCred {
    /// Unique session key identifying the GVFS session.
    pub session_key: u64,
    /// Identifier of the proxy client within the session.
    pub client_id: u32,
    /// Port on which the proxy client listens for server callbacks.
    pub callback_port: u32,
}

impl Xdr for GvfsCred {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_u64(self.session_key);
        enc.put_u32(self.client_id);
        enc.put_u32(self.callback_port);
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        Ok(GvfsCred {
            session_key: dec.get_u64()?,
            client_id: dec.get_u32()?,
            callback_port: dec.get_u32()?,
        })
    }
}

/// The body of an RPC call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallBody {
    rpc_version: u32,
    program: u32,
    version: u32,
    procedure: u32,
    credential: OpaqueAuth,
    verifier: OpaqueAuth,
    args: Vec<u8>,
}

impl CallBody {
    /// Builds a call with the standard RPC version and empty verifier.
    pub fn new(
        program: u32,
        version: u32,
        procedure: u32,
        credential: OpaqueAuth,
        args: Vec<u8>,
    ) -> Self {
        CallBody {
            rpc_version: RPC_VERSION,
            program,
            version,
            procedure,
            credential,
            verifier: OpaqueAuth::none(),
            args,
        }
    }

    /// The RPC protocol version (2 for well-formed calls).
    pub fn rpc_version(&self) -> u32 {
        self.rpc_version
    }
    /// The remote program number.
    pub fn program(&self) -> u32 {
        self.program
    }
    /// The remote program version.
    pub fn version(&self) -> u32 {
        self.version
    }
    /// The procedure number within the program.
    pub fn procedure(&self) -> u32 {
        self.procedure
    }
    /// The caller's credential.
    pub fn credential(&self) -> &OpaqueAuth {
        &self.credential
    }
    /// The caller's verifier.
    pub fn verifier(&self) -> &OpaqueAuth {
        &self.verifier
    }
    /// The raw XDR-encoded procedure arguments.
    pub fn args(&self) -> &[u8] {
        &self.args
    }
}

impl Xdr for CallBody {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_u32(self.rpc_version);
        enc.put_u32(self.program);
        enc.put_u32(self.version);
        enc.put_u32(self.procedure);
        self.credential.encode(enc)?;
        self.verifier.encode(enc)?;
        // Args are the raw remainder of the message; no length prefix.
        enc.put_opaque_fixed_unpadded(&self.args);
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let rpc_version = dec.get_u32()?;
        let program = dec.get_u32()?;
        let version = dec.get_u32()?;
        let procedure = dec.get_u32()?;
        let credential = OpaqueAuth::decode(dec)?;
        let verifier = OpaqueAuth::decode(dec)?;
        let args = dec.get_opaque_fixed(dec.remaining())?;
        Ok(CallBody { rpc_version, program, version, procedure, credential, verifier, args })
    }
}

/// Why a call was rejected outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectedReply {
    /// The server only speaks RPC versions in `low..=high`.
    RpcMismatch {
        /// Lowest supported RPC version.
        low: u32,
        /// Highest supported RPC version.
        high: u32,
    },
    /// Authentication failed, with the `auth_stat` code.
    AuthError(u32),
}

impl Xdr for RejectedReply {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        match self {
            RejectedReply::RpcMismatch { low, high } => {
                enc.put_u32(0);
                enc.put_u32(*low);
                enc.put_u32(*high);
            }
            RejectedReply::AuthError(stat) => {
                enc.put_u32(1);
                enc.put_u32(*stat);
            }
        }
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            0 => Ok(RejectedReply::RpcMismatch { low: dec.get_u32()?, high: dec.get_u32()? }),
            1 => Ok(RejectedReply::AuthError(dec.get_u32()?)),
            value => Err(XdrError::InvalidDiscriminant { type_name: "RejectedReply", value }),
        }
    }
}

/// The status of an accepted call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcceptStat {
    /// The call succeeded; the raw XDR-encoded results follow.
    Success(Vec<u8>),
    /// The program is not exported by this server.
    ProgramUnavailable,
    /// The program is exported, but not at this version.
    ProgramMismatch {
        /// Lowest supported program version.
        low: u32,
        /// Highest supported program version.
        high: u32,
    },
    /// The procedure number is undefined.
    ProcedureUnavailable,
    /// The arguments could not be decoded.
    GarbageArgs,
    /// The server failed internally.
    SystemError,
}

impl Xdr for AcceptStat {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        match self {
            AcceptStat::Success(results) => {
                enc.put_u32(0);
                enc.put_opaque_fixed_unpadded(results);
            }
            AcceptStat::ProgramUnavailable => enc.put_u32(1),
            AcceptStat::ProgramMismatch { low, high } => {
                enc.put_u32(2);
                enc.put_u32(*low);
                enc.put_u32(*high);
            }
            AcceptStat::ProcedureUnavailable => enc.put_u32(3),
            AcceptStat::GarbageArgs => enc.put_u32(4),
            AcceptStat::SystemError => enc.put_u32(5),
        }
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            0 => Ok(AcceptStat::Success(dec.get_opaque_fixed(dec.remaining())?)),
            1 => Ok(AcceptStat::ProgramUnavailable),
            2 => Ok(AcceptStat::ProgramMismatch { low: dec.get_u32()?, high: dec.get_u32()? }),
            3 => Ok(AcceptStat::ProcedureUnavailable),
            4 => Ok(AcceptStat::GarbageArgs),
            5 => Ok(AcceptStat::SystemError),
            value => Err(XdrError::InvalidDiscriminant { type_name: "AcceptStat", value }),
        }
    }
}

/// The body of an RPC reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyBody {
    /// The call was accepted (though it may still have failed).
    Accepted {
        /// Server verifier.
        verifier: OpaqueAuth,
        /// Outcome of the accepted call.
        stat: AcceptStat,
    },
    /// The call was rejected.
    Denied(RejectedReply),
}

impl ReplyBody {
    /// Builds a successful reply carrying `results`.
    pub fn success(results: Vec<u8>) -> Self {
        ReplyBody::Accepted { verifier: OpaqueAuth::none(), stat: AcceptStat::Success(results) }
    }

    /// Builds the reply corresponding to a dispatch error.
    pub fn from_error(err: &RpcError) -> Self {
        match err {
            RpcError::ProgramUnavailable { .. } => ReplyBody::Accepted {
                verifier: OpaqueAuth::none(),
                stat: AcceptStat::ProgramUnavailable,
            },
            RpcError::ProgramMismatch { low, high, .. } => ReplyBody::Accepted {
                verifier: OpaqueAuth::none(),
                stat: AcceptStat::ProgramMismatch { low: *low, high: *high },
            },
            RpcError::ProcedureUnavailable { .. } => ReplyBody::Accepted {
                verifier: OpaqueAuth::none(),
                stat: AcceptStat::ProcedureUnavailable,
            },
            RpcError::GarbageArgs | RpcError::Xdr(_) => {
                ReplyBody::Accepted { verifier: OpaqueAuth::none(), stat: AcceptStat::GarbageArgs }
            }
            RpcError::AuthError => ReplyBody::Denied(RejectedReply::AuthError(1)),
            _ => {
                ReplyBody::Accepted { verifier: OpaqueAuth::none(), stat: AcceptStat::SystemError }
            }
        }
    }

    /// Returns the raw results of a successful reply.
    ///
    /// # Errors
    ///
    /// Maps every non-success reply to the matching [`RpcError`].
    pub fn results(&self) -> Result<&[u8], RpcError> {
        match self {
            ReplyBody::Accepted { stat: AcceptStat::Success(results), .. } => Ok(results),
            ReplyBody::Accepted { stat: AcceptStat::ProgramUnavailable, .. } => {
                Err(RpcError::ProgramUnavailable { program: 0 })
            }
            ReplyBody::Accepted { stat: AcceptStat::ProgramMismatch { low, high }, .. } => {
                Err(RpcError::ProgramMismatch { program: 0, low: *low, high: *high })
            }
            ReplyBody::Accepted { stat: AcceptStat::ProcedureUnavailable, .. } => {
                Err(RpcError::ProcedureUnavailable { program: 0, procedure: 0 })
            }
            ReplyBody::Accepted { stat: AcceptStat::GarbageArgs, .. } => Err(RpcError::GarbageArgs),
            ReplyBody::Accepted { stat: AcceptStat::SystemError, .. } => {
                Err(RpcError::SystemError { detail: "remote system error".into() })
            }
            ReplyBody::Denied(_) => Err(RpcError::AuthError),
        }
    }
}

impl Xdr for ReplyBody {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        match self {
            ReplyBody::Accepted { verifier, stat } => {
                enc.put_u32(0);
                verifier.encode(enc)?;
                stat.encode(enc)
            }
            ReplyBody::Denied(rej) => {
                enc.put_u32(1);
                rej.encode(enc)
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            0 => Ok(ReplyBody::Accepted {
                verifier: OpaqueAuth::decode(dec)?,
                stat: AcceptStat::decode(dec)?,
            }),
            1 => Ok(ReplyBody::Denied(RejectedReply::decode(dec)?)),
            value => Err(XdrError::InvalidDiscriminant { type_name: "ReplyBody", value }),
        }
    }
}

/// A complete RPC message: transaction id plus call or reply body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcMessage {
    /// Transaction id matching calls with replies (and deduplicating
    /// retransmissions).
    pub xid: u32,
    /// The message body.
    pub body: MessageBody,
}

/// Either side of an RPC exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageBody {
    /// A call from client to server.
    Call(CallBody),
    /// A reply from server to client.
    Reply(ReplyBody),
}

impl Xdr for RpcMessage {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_u32(self.xid);
        match &self.body {
            MessageBody::Call(c) => {
                enc.put_u32(0);
                c.encode(enc)
            }
            MessageBody::Reply(r) => {
                enc.put_u32(1);
                r.encode(enc)
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        let xid = dec.get_u32()?;
        let body = match dec.get_u32()? {
            0 => MessageBody::Call(CallBody::decode(dec)?),
            1 => MessageBody::Reply(ReplyBody::decode(dec)?),
            value => return Err(XdrError::InvalidDiscriminant { type_name: "RpcMessage", value }),
        };
        Ok(RpcMessage { xid, body })
    }
}

/// Extension for appending raw pre-encoded payload bytes.
trait EncoderExt {
    fn put_opaque_fixed_unpadded(&mut self, data: &[u8]);
}

impl EncoderExt for Encoder {
    fn put_opaque_fixed_unpadded(&mut self, data: &[u8]) {
        // Payloads are themselves XDR streams, hence already word-aligned;
        // put_opaque_fixed would not add padding, but spell it out.
        debug_assert_eq!(data.len() % 4, 0, "rpc payload must be word-aligned");
        self.put_opaque_fixed(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &RpcMessage) -> RpcMessage {
        gvfs_xdr::from_bytes(&gvfs_xdr::to_bytes(msg).unwrap()).unwrap()
    }

    #[test]
    fn call_roundtrip() {
        let msg = RpcMessage {
            xid: 42,
            body: MessageBody::Call(CallBody::new(
                100003,
                3,
                1,
                OpaqueAuth::none(),
                vec![0, 0, 0, 9],
            )),
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn reply_success_roundtrip() {
        let msg =
            RpcMessage { xid: 7, body: MessageBody::Reply(ReplyBody::success(vec![1, 2, 3, 4])) };
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn reply_error_variants_roundtrip() {
        for stat in [
            AcceptStat::ProgramUnavailable,
            AcceptStat::ProgramMismatch { low: 2, high: 4 },
            AcceptStat::ProcedureUnavailable,
            AcceptStat::GarbageArgs,
            AcceptStat::SystemError,
        ] {
            let msg = RpcMessage {
                xid: 1,
                body: MessageBody::Reply(ReplyBody::Accepted {
                    verifier: OpaqueAuth::none(),
                    stat,
                }),
            };
            assert_eq!(roundtrip(&msg), msg);
        }
    }

    #[test]
    fn denied_roundtrip() {
        for rej in [RejectedReply::RpcMismatch { low: 2, high: 2 }, RejectedReply::AuthError(5)] {
            let msg = RpcMessage { xid: 1, body: MessageBody::Reply(ReplyBody::Denied(rej)) };
            assert_eq!(roundtrip(&msg), msg);
        }
    }

    #[test]
    fn auth_sys_roundtrip_through_opaque() {
        let cred = AuthSys {
            stamp: 1,
            machine_name: "vc1".into(),
            uid: 1000,
            gid: 100,
            gids: vec![100, 101],
        };
        let auth = OpaqueAuth { flavor: AUTH_SYS, body: gvfs_xdr::to_bytes(&cred).unwrap() };
        assert_eq!(auth.as_sys().unwrap(), cred);
    }

    #[test]
    fn gvfs_cred_roundtrip_through_opaque() {
        let cred = GvfsCred { session_key: 0xdead_beef, client_id: 3, callback_port: 9999 };
        let auth = OpaqueAuth::gvfs(&cred).unwrap();
        assert_eq!(auth.as_gvfs().unwrap(), cred);
    }

    #[test]
    fn wrong_flavor_decode_is_auth_error() {
        let auth = OpaqueAuth::none();
        assert_eq!(auth.as_gvfs().unwrap_err(), RpcError::AuthError);
        assert_eq!(auth.as_sys().unwrap_err(), RpcError::AuthError);
    }

    #[test]
    fn oversized_auth_body_is_rejected() {
        let mut enc = Encoder::new();
        enc.put_u32(AUTH_SYS);
        enc.put_opaque(&vec![0u8; MAX_AUTH_BODY + 1]).unwrap();
        let err = gvfs_xdr::from_bytes::<OpaqueAuth>(&enc.into_bytes()).unwrap_err();
        assert!(matches!(err, XdrError::LengthBound { .. }));
    }

    #[test]
    fn results_maps_errors() {
        let reply = ReplyBody::from_error(&RpcError::GarbageArgs);
        assert_eq!(reply.results().unwrap_err(), RpcError::GarbageArgs);
        let ok = ReplyBody::success(vec![]);
        assert_eq!(ok.results().unwrap(), &[] as &[u8]);
    }

    #[test]
    fn from_error_covers_transport_errors_as_system() {
        let reply = ReplyBody::from_error(&RpcError::Timeout);
        assert!(matches!(reply, ReplyBody::Accepted { stat: AcceptStat::SystemError, .. }));
    }
}
