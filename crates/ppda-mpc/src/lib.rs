//! **The paper's contribution**: Shamir Secret Sharing hosted on MiniCast
//! for privacy-preserving data aggregation in low-power IoT networks.
//!
//! Two protocol variants, exactly as evaluated in Goyal & Saha (ICDCS'22):
//!
//! * [`ProtocolKind::S3`] — the *naive* mapping. Every source encrypts one
//!   share for **every** node (sharing chain of `S × n` sub-slots,
//!   AES-128-CCM per packet) and both phases run at a full-coverage NTX.
//!   Reconstruction shares all `n` local sums in plaintext.
//! * [`ProtocolKind::S4`] — the *scalable* variant. A low polynomial
//!   degree `k = ⌊n/3⌋` means `k+1` shares suffice, so the sharing chain is
//!   trimmed to the `k+1+r` designated **aggregator** nodes discovered
//!   during [`Bootstrap`], both phases run at a low NTX (6 on FlockLab, 5
//!   on DCube), non-aggregators sleep right after their relay duty, and
//!   reconstruction succeeds from *any* `k+1` sum shares — which is also
//!   what makes the protocol fault-tolerant.
//!
//! Both variants are one pipeline: a [`RoundPlan`] compiles the variant's
//! chains and schedules once, and a [`RoundDriver`] runs every round over
//! it — the only way rounds execute.
//!
//! The privacy guarantee (any collusion of at most `k` nodes learns nothing
//! about an honest node's reading) is not just asserted: the
//! [`adversary`] module constructs, for every candidate secret, a share
//! polynomial consistent with everything a collusion observed.
//!
//! # Example
//!
//! Fuse a topology, a configuration, a protocol variant and an optional
//! fault model into a [`Deployment`] once, then stream rounds from a
//! [`RoundDriver`].
//!
//! ```
//! use ppda_mpc::{Deployment, ProtocolConfig, ProtocolKind};
//! use ppda_topology::Topology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topology = Topology::flocklab();
//! let config = ProtocolConfig::builder(topology.len()).build()?;
//!
//! let s3 = Deployment::builder()
//!     .topology(topology.clone())
//!     .config(config.clone())
//!     .protocol(ProtocolKind::S3)
//!     .build()?
//!     .driver()
//!     .step()?;
//! let s4 = Deployment::builder()
//!     .topology(topology)
//!     .config(config)
//!     .protocol(ProtocolKind::S4)
//!     .build()?
//!     .driver()
//!     .step()?;
//!
//! assert!(s3.correct() && s4.correct());
//! // The headline of the paper: S4 is several times faster.
//! assert!(
//!     s4.outcome.mean_latency_ms().unwrap() < s3.outcome.mean_latency_ms().unwrap()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
mod bootstrap;
mod config;
mod driver;
mod error;
mod execute;
mod membership;
mod outcome;
mod plan;

pub use bootstrap::Bootstrap;
pub use config::{ProtocolConfig, ProtocolConfigBuilder};
pub use driver::{
    Deployment, DeploymentBuilder, DriverStats, MembershipMode, RoundDriver, RoundObserver,
};
pub use error::MpcError;
pub use membership::{MembershipDelta, MembershipTimeline, PlanPatch};
pub use outcome::{
    BatchAggregationOutcome, BatchNodeResult, DegradedOutcome, FaultReport, PhaseStats,
    RecoveryStatus, RoundReport,
};
pub use plan::{ProtocolKind, RoundPlan};
// The fault/churn model consumed by every driven round, re-exported so
// protocol users need not depend on the transport/sim crates directly.
pub use ppda_ct::{Delivery, FaultPlan};
// The integrity subsystem's surface, re-exported for the same reason:
// the config switch, the per-round verdict, and the cheating-aggregator
// model driven rounds (and tests) inject with.
pub use ppda_integrity::{IntegrityMode, IntegrityVerdict, TamperPlan};
pub use ppda_sim::{ChurnSchedule, MembershipEvent, MembershipEventKind, TrickleConfig};

/// The field all protocol arithmetic runs in (p = 2³¹ − 1): a sensor
/// reading is ≤ 2²⁰ and even 128 sources cannot wrap the modulus.
pub type Field = ppda_field::Mersenne31;
/// A field element of [`Field`].
pub type Elem = ppda_field::Gf31;
