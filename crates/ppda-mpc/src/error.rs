//! Error type for protocol configuration and execution.

use core::fmt;

use ppda_sss::SssError;

/// Errors raised while configuring or running an aggregation protocol.
///
/// Marked `#[non_exhaustive]`; it implements [`std::error::Error`], so it
/// boxes into `Box<dyn Error>` like any other error.
///
/// # Example
///
/// ```
/// use ppda_mpc::{MpcError, ProtocolConfig};
/// let err = ProtocolConfig::builder(1).build().unwrap_err();
/// assert!(matches!(err, MpcError::InvalidConfig { .. }));
/// assert!(err.to_string().contains("2..=128"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MpcError {
    /// A configuration constraint was violated.
    InvalidConfig {
        /// Human-readable description of the violated constraint.
        what: String,
    },
    /// Supplied runtime inputs disagree with the configuration.
    InputMismatch {
        /// Human-readable description of the mismatch.
        what: String,
    },
    /// The topology is disconnected at the configured link threshold; no
    /// CT round can cover it.
    TopologyDisconnected,
    /// A sensor reading does not fit the field.
    ReadingTooLarge {
        /// The offending reading.
        value: u64,
    },
    /// The configured lane width `batch` cannot fit the 802.15.4 frame
    /// budget: either the sealed share payload or the sum-share packet
    /// would overflow the 127-byte PSDU. Raised at configuration build
    /// time so a deployment never compiles a plan it cannot transmit.
    ///
    /// The escape hatch for wider batches is
    /// [`ProtocolConfigBuilder::fragmentation`](crate::ProtocolConfigBuilder::fragmentation):
    /// with fragmentation enabled, packets span multiple frames (at the
    /// honest cost of proportionally longer rounds) and this error only
    /// appears past the fragment layer's own cap of 64 fragments per
    /// packet (1754 lanes at the default tag length).
    BatchTooWide {
        /// The requested lane width.
        lanes: usize,
        /// The widest lane batch the frame budget admits at this tag
        /// length.
        max_lanes: usize,
    },
    /// A degraded round ended with fewer surviving sum shares than the
    /// reconstruction threshold: the aggregate is unrecoverable this
    /// round (it is *not* silently wrong — nothing reconstructs).
    AggregationFailed {
        /// How many more surviving shares the threshold needed.
        missing: usize,
    },
    /// A membership change emptied the destination set: no live node is
    /// left to hold shares, so no plan can be patched or compiled for
    /// this view.
    MembershipExhausted,
    /// A membership-driven driver was asked for a round *before* one it
    /// already patched the plan for; incremental patching only moves
    /// forward. Use a fresh driver (they fast-forward deterministically)
    /// to revisit earlier rounds.
    MembershipRegression {
        /// The round id the driver has already patched up to.
        patched_to: u32,
        /// The earlier round that was requested.
        requested: u32,
    },
    /// The sum audit caught a reported sum share that disagrees with the
    /// one it recomputed from the sources' shares: some aggregator forged,
    /// swapped or corrupted a sum share after honest accumulation. Raised by
    /// [`DegradedOutcome::require_verified`](crate::DegradedOutcome::require_verified)
    /// when a round's verdict is
    /// [`IntegrityVerdict::Tampered`](crate::IntegrityVerdict::Tampered);
    /// the round's aggregate must be discarded.
    IntegrityViolation {
        /// First batch lane whose reported aggregate mismatched.
        lane: u16,
        /// The first aggregator whose reported sum share disagreed with
        /// the audit's recomputation, when one is identifiable.
        aggregator: Option<u16>,
    },
    /// Propagated SSS-layer failure.
    Sss(SssError),
}

impl fmt::Display for MpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpcError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            MpcError::InputMismatch { what } => write!(f, "input mismatch: {what}"),
            MpcError::TopologyDisconnected => {
                write!(f, "topology is disconnected at the link threshold")
            }
            MpcError::ReadingTooLarge { value } => {
                write!(f, "reading {value} does not fit the field modulus")
            }
            MpcError::BatchTooWide { lanes, max_lanes } => {
                write!(
                    f,
                    "lane width {lanes} overflows the 802.15.4 frame budget \
                     (at most {max_lanes} lanes fit); enable fragmentation to \
                     carry wider batches across multiple frames"
                )
            }
            MpcError::AggregationFailed { missing } => {
                write!(
                    f,
                    "aggregation failed: {missing} surviving sum share(s) short of the threshold"
                )
            }
            MpcError::MembershipExhausted => {
                write!(
                    f,
                    "membership change left no live destination to hold shares"
                )
            }
            MpcError::MembershipRegression {
                patched_to,
                requested,
            } => {
                write!(
                    f,
                    "round {requested} precedes the plan's patched state (round {patched_to}); \
                     membership-driven drivers only advance"
                )
            }
            MpcError::IntegrityViolation { lane, aggregator } => {
                write!(f, "integrity violation: reported aggregate on lane {lane} ")?;
                match aggregator {
                    Some(a) => write!(f, "(first mismatch at aggregator {a}) "),
                    None => Ok(()),
                }?;
                write!(f, "disagrees with the share commitments")
            }
            MpcError::Sss(e) => write!(f, "secret-sharing error: {e}"),
        }
    }
}

impl std::error::Error for MpcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpcError::Sss(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SssError> for MpcError {
    fn from(e: SssError) -> Self {
        MpcError::Sss(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(MpcError::InvalidConfig { what: "x".into() }
            .to_string()
            .contains("invalid configuration"));
        assert!(MpcError::TopologyDisconnected
            .to_string()
            .contains("disconnected"));
        assert!(MpcError::ReadingTooLarge { value: 7 }
            .to_string()
            .contains('7'));
        let failed = MpcError::AggregationFailed { missing: 3 };
        assert!(failed.to_string().contains("aggregation failed"));
        assert!(failed.to_string().contains('3'));
        let wide = MpcError::BatchTooWide {
            lanes: 64,
            max_lanes: 23,
        };
        assert!(wide.to_string().contains("64"));
        assert!(wide.to_string().contains("23"));
        assert!(
            wide.to_string().contains("fragmentation"),
            "the error must point at the escape hatch"
        );
        assert!(MpcError::MembershipExhausted
            .to_string()
            .contains("no live destination"));
        let reg = MpcError::MembershipRegression {
            patched_to: 9,
            requested: 4,
        };
        assert!(reg.to_string().contains('9'));
        assert!(reg.to_string().contains('4'));
        let violation = MpcError::IntegrityViolation {
            lane: 2,
            aggregator: Some(11),
        };
        assert!(violation.to_string().contains("integrity violation"));
        assert!(violation.to_string().contains("lane 2"));
        assert!(violation.to_string().contains("aggregator 11"));
        let anon = MpcError::IntegrityViolation {
            lane: 0,
            aggregator: None,
        };
        assert!(anon.to_string().contains("share commitments"));
        assert!(!anon.to_string().contains("aggregator"));
        let e = MpcError::from(SssError::InconsistentShares);
        assert!(e.to_string().contains("secret-sharing"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn send_sync() {
        fn takes<E: std::error::Error + Send + Sync + 'static>(_e: E) {}
        takes(MpcError::TopologyDisconnected);
    }
}
