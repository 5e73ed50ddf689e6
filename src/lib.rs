//! # ppda — Privacy-Preserving Data Aggregation for IoT
//!
//! Umbrella crate re-exporting the whole workspace: Shamir Secret Sharing
//! realized over concurrent-transmission (CT) communication, reproducing
//! Goyal & Saha, *Multi-Party Computation in IoT for Privacy-Preservation*
//! (ICDCS 2022, arXiv:2206.01956).
//!
//! Execution goes through one façade: a [`mpc::Deployment`] fuses the
//! topology, the protocol configuration, the variant
//! ([`mpc::ProtocolKind::S3`] naive / [`mpc::ProtocolKind::S4`] scalable)
//! and an optional fault model, compiles the round plan once, and streams
//! rounds from a [`mpc::RoundDriver`]. Fleets of deployments are
//! multiplexed over a work-stealing worker pool by the
//! [`service::CampaignEngine`].
//!
//! ## Quickstart
//!
//! ```
//! use ppda::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topology = Topology::flocklab();
//! let config = ProtocolConfig::builder(topology.len())
//!     .sources(topology.len())
//!     .build()?;
//! let deployment = Deployment::builder()
//!     .topology(topology)
//!     .config(config)
//!     .protocol(ProtocolKind::S4)
//!     .seed(0xBEEF)
//!     .build()?;
//! let report = deployment.driver().step()?;
//! assert!(report.correct() && report.recovered());
//! # Ok(())
//! # }
//! ```

pub use ppda_crypto as crypto;
pub use ppda_ct as ct;
pub use ppda_field as field;
pub use ppda_integrity as integrity;
pub use ppda_metrics as metrics;
pub use ppda_mpc as mpc;
pub use ppda_radio as radio;
pub use ppda_service as service;
pub use ppda_sim as sim;
pub use ppda_sss as sss;
pub use ppda_topology as topology;

/// Commonly used items, for glob import in examples and applications.
///
/// The prelude is the façade's surface: deployments, drivers, reports and
/// the fault/churn models they fuse. Every item re-exported here carries
/// a runnable doctest on its own definition. Lower-level machinery
/// (compiled round plans, the bootstrap, membership timelines) stays
/// behind the [`mpc`] module path.
pub mod prelude {
    pub use ppda_ct::FaultPlan;
    pub use ppda_integrity::{IntegrityMode, IntegrityVerdict, TamperPlan, Transcript};
    pub use ppda_mpc::{
        Deployment, DeploymentBuilder, DriverStats, MpcError, PlanPatch, ProtocolConfig,
        ProtocolKind, RecoveryStatus, RoundDriver, RoundObserver, RoundReport,
    };
    pub use ppda_sim::{ChurnSchedule, MembershipEvent, MembershipEventKind, TrickleConfig};
    pub use ppda_topology::Topology;
}
