//! Property tests: every XDR value round-trips and produces word-aligned
//! output; decoding arbitrary bytes never panics; the sizing pass counts
//! exactly the bytes `to_bytes` writes, into a vector with no spare
//! capacity.

use gvfs_rpc::message::{
    AcceptStat, CallBody, MessageBody, OpaqueAuth, RejectedReply, ReplyBody, RpcMessage,
    MAX_AUTH_BODY,
};
use gvfs_xdr::{encoded_len, from_bytes, to_bytes, Decoder, Encoder, Xdr, XdrError};
use proptest::prelude::*;

/// `encoded_len(value)` is `to_bytes(value)`'s length, and that vector
/// holds no spare capacity.
fn sized_exactly<T: Xdr>(value: &T) -> Result<(), TestCaseError> {
    let bytes = to_bytes(value).unwrap();
    prop_assert_eq!(encoded_len(value).unwrap(), bytes.len());
    prop_assert_eq!(bytes.capacity(), bytes.len());
    Ok(())
}

/// Variable-length opaque data, as an [`Xdr`] type.
struct Opaque(Vec<u8>);

impl Xdr for Opaque {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_opaque(&self.0)
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        dec.get_opaque().map(Opaque)
    }
}

/// Fixed-length opaque data of a known length, as an [`Xdr`] type.
struct Fixed(Vec<u8>);

impl Xdr for Fixed {
    fn encode(&self, enc: &mut Encoder) -> Result<(), XdrError> {
        enc.put_opaque_fixed(&self.0);
        Ok(())
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, XdrError> {
        dec.get_opaque_fixed(dec.remaining()).map(Fixed)
    }
}

/// An XDR stream of `words` words, as RPC args and results are.
fn payload(words: Vec<u32>) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_be_bytes()).collect()
}

/// An authenticator of any flavor with a legal body.
fn auth() -> impl Strategy<Value = OpaqueAuth> {
    (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..MAX_AUTH_BODY + 1)).prop_map(
        |(flavor, body)| {
            let mut enc = Encoder::new();
            enc.put_u32(flavor);
            enc.put_opaque(&body).unwrap();
            from_bytes::<OpaqueAuth>(enc.as_bytes()).unwrap()
        },
    )
}

fn call() -> impl Strategy<Value = RpcMessage> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        auth(),
        proptest::collection::vec(any::<u32>(), 0..64),
    )
        .prop_map(|(xid, program, procedure, credential, args)| RpcMessage {
            xid,
            body: MessageBody::Call(CallBody::new(
                program,
                3,
                procedure,
                credential,
                payload(args),
            )),
        })
}

fn reply() -> impl Strategy<Value = RpcMessage> {
    let stat = prop_oneof![
        proptest::collection::vec(any::<u32>(), 0..64)
            .prop_map(|w| AcceptStat::Success(payload(w))),
        (any::<u32>(), any::<u32>())
            .prop_map(|(low, high)| AcceptStat::ProgramMismatch { low, high }),
        Just(AcceptStat::ProgramUnavailable),
        Just(AcceptStat::ProcedureUnavailable),
        Just(AcceptStat::GarbageArgs),
        Just(AcceptStat::SystemError),
    ];
    let body = prop_oneof![
        stat.prop_map(|stat| ReplyBody::Accepted { verifier: OpaqueAuth::none(), stat }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(low, high)| ReplyBody::Denied(RejectedReply::RpcMismatch { low, high })),
        any::<u32>().prop_map(|stat| ReplyBody::Denied(RejectedReply::AuthError(stat))),
    ];
    (any::<u32>(), body).prop_map(|(xid, body)| RpcMessage { xid, body: MessageBody::Reply(body) })
}

proptest! {
    #[test]
    fn u32_roundtrip(v in any::<u32>()) {
        prop_assert_eq!(from_bytes::<u32>(&to_bytes(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn i32_roundtrip(v in any::<i32>()) {
        prop_assert_eq!(from_bytes::<i32>(&to_bytes(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn u64_roundtrip(v in any::<u64>()) {
        prop_assert_eq!(from_bytes::<u64>(&to_bytes(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn i64_roundtrip(v in any::<i64>()) {
        prop_assert_eq!(from_bytes::<i64>(&to_bytes(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn string_roundtrip(s in ".{0,200}") {
        let owned = s.to_string();
        prop_assert_eq!(from_bytes::<String>(&to_bytes(&owned).unwrap()).unwrap(), owned);
    }

    #[test]
    fn opaque_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut enc = Encoder::new();
        enc.put_opaque(&data).unwrap();
        let bytes = enc.into_bytes();
        prop_assert_eq!(bytes.len() % 4, 0);
        let mut dec = Decoder::new(&bytes);
        prop_assert_eq!(dec.get_opaque().unwrap(), data);
        dec.finish().unwrap();
    }

    #[test]
    fn opaque_fixed_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut enc = Encoder::new();
        enc.put_opaque_fixed(&data);
        let bytes = enc.into_bytes();
        prop_assert_eq!(bytes.len() % 4, 0);
        let mut dec = Decoder::new(&bytes);
        prop_assert_eq!(dec.get_opaque_fixed(data.len()).unwrap(), data);
        dec.finish().unwrap();
    }

    #[test]
    fn vec_of_u64_roundtrip(v in proptest::collection::vec(any::<u64>(), 0..64)) {
        prop_assert_eq!(from_bytes::<Vec<u64>>(&to_bytes(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn option_roundtrip(v in proptest::option::of(any::<u32>())) {
        prop_assert_eq!(from_bytes::<Option<u32>>(&to_bytes(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn decoding_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Must either succeed or return a structured error — never panic.
        let _ = from_bytes::<Vec<u64>>(&bytes);
        let _ = from_bytes::<String>(&bytes);
        let _ = from_bytes::<Option<u64>>(&bytes);
        let mut dec = Decoder::new(&bytes);
        let _ = dec.get_opaque();
    }

    #[test]
    fn nested_structures_roundtrip(v in proptest::collection::vec(proptest::option::of(".{0,16}".prop_map(String::from)), 0..16)) {
        prop_assert_eq!(from_bytes::<Vec<Option<String>>>(&to_bytes(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn sizing_equals_encoding(
        n in any::<u32>(),
        i in any::<i32>(),
        h in any::<u64>(),
        sh in any::<i64>(),
        s in ".{0,200}",
        data in proptest::collection::vec(any::<u8>(), 0..512),
        v in proptest::collection::vec(any::<u64>(), 0..64),
        o in proptest::option::of(any::<u32>()),
        nested in proptest::collection::vec(proptest::option::of(".{0,16}".prop_map(String::from)), 0..16),
        call in call(),
        reply in reply(),
    ) {
        sized_exactly(&n)?;
        sized_exactly(&i)?;
        sized_exactly(&h)?;
        sized_exactly(&sh)?;
        sized_exactly(&s.to_string())?;
        sized_exactly(&v)?;
        sized_exactly(&o)?;
        sized_exactly(&nested)?;
        sized_exactly(&call)?;
        sized_exactly(&reply)?;
        sized_exactly(&Fixed(data.clone()))?;
        sized_exactly(&Opaque(data))?;
    }
}
