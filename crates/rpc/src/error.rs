//! Error type for the RPC layer.

use gvfs_xdr::XdrError;
use std::error::Error;
use std::fmt;

/// An error produced by the RPC layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RpcError {
    /// A message failed to encode or decode.
    Xdr(XdrError),
    /// The requested program is not registered with the dispatcher.
    ProgramUnavailable {
        /// The requested program number.
        program: u32,
    },
    /// The program exists but not at the requested version.
    ProgramMismatch {
        /// The requested program number.
        program: u32,
        /// Lowest supported version.
        low: u32,
        /// Highest supported version.
        high: u32,
    },
    /// The procedure number is not defined for this program.
    ProcedureUnavailable {
        /// The requested program number.
        program: u32,
        /// The requested procedure number.
        procedure: u32,
    },
    /// The arguments could not be decoded by the service.
    GarbageArgs,
    /// The credential was rejected.
    AuthError,
    /// The call could not be delivered (e.g. network partition) or timed
    /// out waiting for a reply.
    Timeout,
    /// The remote endpoint is not reachable at all.
    Unreachable,
    /// The service failed internally.
    SystemError {
        /// Human-readable detail.
        detail: String,
    },
}

impl RpcError {
    /// Whether the error is a transient transport condition (a timeout
    /// or an unreachable peer) that a retry with back-off can outwait,
    /// as opposed to a protocol-level rejection that will recur.
    ///
    /// The chaos harness injects exactly these two conditions (dropped
    /// messages surface as [`RpcError::Timeout`], partition windows as
    /// [`RpcError::Unreachable`]); retry loops in the proxy key off this
    /// predicate so injected faults and real outages take the same path.
    pub fn is_transient(&self) -> bool {
        matches!(self, RpcError::Timeout | RpcError::Unreachable)
    }

    /// Whether the error is evidence of a *sick transport* and should
    /// feed the per-peer circuit breaker
    /// ([`CircuitBreaker`](crate::breaker::CircuitBreaker)).
    ///
    /// Only transport-health conditions qualify: a timeout or an
    /// unreachable peer. Protocol rejections arrive over a perfectly
    /// healthy wire — [`RpcError::ProcedureUnavailable`] in particular
    /// means the peer answered promptly that it does not implement the
    /// procedure, and must **not** trip the breaker (nor must a server
    /// that rejects arguments or credentials). Today the predicate
    /// coincides with [`is_transient`](Self::is_transient), but the
    /// contracts differ: a future retryable-but-reachable condition
    /// (e.g. server busy) would be transient without being
    /// breaker-relevant.
    pub fn trips_breaker(&self) -> bool {
        match self {
            RpcError::Timeout | RpcError::Unreachable => true,
            RpcError::Xdr(_)
            | RpcError::ProgramUnavailable { .. }
            | RpcError::ProgramMismatch { .. }
            | RpcError::ProcedureUnavailable { .. }
            | RpcError::GarbageArgs
            | RpcError::AuthError
            | RpcError::SystemError { .. } => false,
        }
    }
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Xdr(e) => write!(f, "xdr error: {e}"),
            RpcError::ProgramUnavailable { program } => {
                write!(f, "program {program} unavailable")
            }
            RpcError::ProgramMismatch { program, low, high } => {
                write!(f, "program {program} version mismatch (supported {low}..={high})")
            }
            RpcError::ProcedureUnavailable { program, procedure } => {
                write!(f, "procedure {procedure} unavailable in program {program}")
            }
            RpcError::GarbageArgs => write!(f, "garbage arguments"),
            RpcError::AuthError => write!(f, "authentication error"),
            RpcError::Timeout => write!(f, "rpc timed out"),
            RpcError::Unreachable => write!(f, "remote endpoint unreachable"),
            RpcError::SystemError { detail } => write!(f, "system error: {detail}"),
        }
    }
}

impl Error for RpcError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RpcError::Xdr(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XdrError> for RpcError {
    fn from(e: XdrError) -> Self {
        RpcError::Xdr(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants_are_nonempty() {
        let variants = vec![
            RpcError::Xdr(XdrError::LengthOverflow),
            RpcError::ProgramUnavailable { program: 1 },
            RpcError::ProgramMismatch { program: 1, low: 2, high: 3 },
            RpcError::ProcedureUnavailable { program: 1, procedure: 9 },
            RpcError::GarbageArgs,
            RpcError::AuthError,
            RpcError::Timeout,
            RpcError::Unreachable,
            RpcError::SystemError { detail: "x".into() },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn transient_classification() {
        assert!(RpcError::Timeout.is_transient());
        assert!(RpcError::Unreachable.is_transient());
        assert!(!RpcError::GarbageArgs.is_transient());
        assert!(!RpcError::SystemError { detail: "x".into() }.is_transient());
    }

    /// Every variant, against all three predicates: transient and fatal
    /// must partition the taxonomy, and only transport-health conditions
    /// may feed the breaker.
    #[test]
    fn taxonomy_per_variant() {
        // (variant, is_transient, trips_breaker)
        let table = vec![
            (RpcError::Xdr(XdrError::LengthOverflow), false, false),
            (RpcError::ProgramUnavailable { program: 1 }, false, false),
            (RpcError::ProgramMismatch { program: 1, low: 2, high: 3 }, false, false),
            (RpcError::ProcedureUnavailable { program: 1, procedure: 9 }, false, false),
            (RpcError::GarbageArgs, false, false),
            (RpcError::AuthError, false, false),
            (RpcError::Timeout, true, true),
            (RpcError::Unreachable, true, true),
            (RpcError::SystemError { detail: "x".into() }, false, false),
        ];
        for (err, transient, breaker) in table {
            assert_eq!(err.is_transient(), transient, "is_transient({err})");
            assert_eq!(err.trips_breaker(), breaker, "trips_breaker({err})");
        }
    }

    /// The regression the taxonomy exists for: a peer answering "no such
    /// procedure" is a *healthy* peer and must never open its breaker.
    #[test]
    fn procedure_unavailable_never_trips_breaker() {
        let err = RpcError::ProcedureUnavailable { program: 200_501, procedure: 77 };
        assert!(!err.is_transient());
        assert!(!err.trips_breaker());
    }

    #[test]
    fn xdr_error_is_source() {
        let err = RpcError::from(XdrError::InvalidUtf8);
        assert!(std::error::Error::source(&err).is_some());
    }
}
