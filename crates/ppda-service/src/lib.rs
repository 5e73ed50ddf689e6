//! Sharded multi-deployment campaign engine with work-stealing round
//! scheduling.
//!
//! The paper's evaluation — and the `ppda-bench` harnesses that
//! reproduce it — run *one* deployment at a time. A long-running
//! aggregation service faces the opposite shape: thousands of
//! independent, mostly-small deployments (one per building, per testbed,
//! per tenant), each advancing a few rounds per scheduling epoch. This
//! crate multiplexes such a fleet over a fixed worker pool:
//!
//! * every deployment's plan is **compiled once** (a
//!   [`ppda_mpc::Deployment`]) and shared read-only by all workers;
//! * rounds are scheduled as per-deployment index **spans** in
//!   per-worker deques; a worker that drains its deque **steals** spans
//!   from a victim's back, so imbalanced fleets rebalance without a
//!   global queue — the round loop itself takes no lock at all;
//! * each deployment's driver (scratch, caches, membership-patched plan)
//!   is **parked** at the end of a span and resumed by whichever span of
//!   the deployment begins next (any driver runs any round with the
//!   bytes a fresh one gives), so a fleet advanced one round at a time
//!   does not rebuild that state every round;
//! * each deployment keeps **one metrics accumulator**
//!   ([`ppda_metrics::CampaignAccumulator`]) that each span merges into
//!   once, at its end; [`CampaignEngine::snapshot`] copies them without
//!   stopping the workers;
//! * a round failure stops the fleet early and deterministically: the
//!   surfaced error is the erroring round with the lowest
//!   `(round index, deployment)` key for **any** worker count;
//! * with the `serde` feature, a quiesced engine checkpoints to a
//!   self-contained byte blob (`Checkpoint`) and restores to a fleet
//!   whose subsequent rounds are byte-identical to an uninterrupted
//!   run.
//!
//! Because round outcomes are pure functions of their
//! `(round_id, seed)` coordinates, out-of-order and stolen execution
//! changes *nothing* about results: per-deployment reports and merged
//! metrics are identical to driving each deployment single-threaded, for
//! any worker count and span length (proved in `tests/service.rs`).
//!
//! # Example
//!
//! ```
//! use ppda_mpc::ProtocolConfig;
//! use ppda_service::{CampaignEngine, DeploymentSpec};
//! use ppda_topology::Topology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small fleet: four deployments on different grids and seeds.
//! let mut specs = Vec::new();
//! for site in 0..4u64 {
//!     let topology = Topology::grid(3, 3, 15.0, 9 + site);
//!     let config = ProtocolConfig::builder(topology.len()).sources(3).build()?;
//!     let mut spec = DeploymentSpec::new(format!("site-{site}"), topology, config);
//!     spec.seed = 0xC0FFEE + site;
//!     specs.push(spec);
//! }
//! let engine = CampaignEngine::builder()
//!     .workers(2)
//!     .deployments(specs)
//!     .build()?;
//!
//! // Advance every deployment by 5 rounds over the worker pool.
//! let stats = engine.advance(5)?;
//! assert_eq!(stats.rounds, 4 * 5);
//!
//! // Merge a live fleet-wide view.
//! let snapshot = engine.snapshot();
//! assert_eq!(snapshot.total_rounds(), 20);
//! assert!(snapshot.merged().round_success() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "serde")]
mod checkpoint;
mod engine;
mod scheduler;

#[cfg(feature = "serde")]
pub use checkpoint::{Checkpoint, CheckpointError};
pub use engine::{
    AdvanceStats, CampaignEngine, CampaignEngineBuilder, ClockMode, DeploymentSnapshot,
    DeploymentSpec, EngineError, FleetSnapshot, MAX_WORKERS,
};
