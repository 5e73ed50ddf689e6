//! Deterministic simulation substrate.
//!
//! The transport above this crate is slot-synchronous: MiniCast chains
//! advance one TDMA sub-slot at a time and account time by slot
//! arithmetic, so no event queue is needed. What they share is
//! provided here:
//!
//! * [`SimTime`] / [`SimDuration`] — µs-resolution virtual time. There is no
//!   wall clock anywhere in the simulator; runs are exactly reproducible.
//! * [`Xoshiro256`] — the workspace's deterministic RNG
//!   (xoshiro256++), with [`derive_stream`] for spawning per-node
//!   independent streams from a campaign seed.
//! * [`ChurnSchedule`] — deterministic per-round node outage windows,
//!   consumed by the fault-injection layers above.
//! * [`MembershipEvent`] / [`TrickleConfig`] / [`disseminate`] — online
//!   membership changes (join, leave, crash, rejoin) and the
//!   RFC-6206-style Trickle dissemination model: [`disseminate`] returns
//!   the rounds until an announcement reaches every node, the delay that
//!   turns events into per-round membership views.
//!
//! # Example
//!
//! ```
//! use ppda_sim::{derive_stream, SimDuration, SimTime, Xoshiro256};
//!
//! // One independent, replayable stream per node from a campaign seed.
//! let mut node3 = Xoshiro256::seed_from(derive_stream(0xC0FE, 3));
//! let mut again = Xoshiro256::seed_from(derive_stream(0xC0FE, 3));
//! assert_eq!(node3.next_f64(), again.next_f64());
//!
//! // Slot arithmetic on virtual time.
//! let slot = SimDuration::from_micros(1_228);
//! let end = SimTime::ZERO + slot * 4;
//! assert_eq!(end.as_micros(), 4_912);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod membership;
mod rng;
mod time;

pub use churn::{ChurnSchedule, ChurnWindow};
pub use membership::{disseminate, MembershipEvent, MembershipEventKind, TrickleConfig};
pub use rng::{derive_stream, Xoshiro256};
pub use time::{SimDuration, SimTime};
