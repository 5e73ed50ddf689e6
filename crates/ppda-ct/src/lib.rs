//! Concurrent-transmission (CT) communication protocols.
//!
//! Low-power CT protocols exploit the physical layer: when several nodes
//! transmit the *same* packet within ±0.5 µs, receivers decode the
//! superposition (constructive interference), so a packet can sweep a
//! multi-hop network hop-by-hop in milliseconds with no routing state.
//!
//! One protocol is implemented on the slot-synchronous engine:
//! [MiniCast](MiniCastSchedule), many-to-many sharing (Saha et al.,
//! DCOSS'17). The transmissions of *all* nodes are arranged into a TDMA
//! **chain** of sub-slots, one per packet; the whole chain is flooded as a
//! unit and each node transmits the chain up to NTX times, filling the
//! sub-slots it has data for. This is the transport on which both SSS
//! variants of the paper run. A [`MiniCastSchedule`] is compiled once per
//! chain; each round runs it over one [`LinkConditions`], the link table
//! under that round's attenuation and loss, into a caller-owned
//! [`MiniCastScratch`].
//!
//! Nodes are assumed to be time-synchronized before a round starts, as in
//! the paper's evaluation: no synchronization flood is simulated, and none
//! is part of a round's latency or radio-on time.
//!
//! The key empirical property the paper's S4 exploits — **coverage grows
//! steeply with NTX, then saturates slowly toward full coverage** — emerges
//! from the propagation model; see [`MiniCastSchedule::coverage_vs_ntx`]
//! and the `ablation_ntx` harness.
//!
//! # Example
//!
//! ```
//! use ppda_ct::{ChainSpec, LinkConditions, MiniCastConfig, MiniCastSchedule};
//! use ppda_radio::FrameSpec;
//! use ppda_sim::Xoshiro256;
//! use ppda_topology::Topology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topology = Topology::flocklab();
//! let n = topology.len();
//! // One packet per node: classic all-to-all sharing.
//! let chain = ChainSpec::new(FrameSpec::new(8, 0)?, (0..n as u16).collect())?;
//! let schedule = MiniCastSchedule::new(&topology, chain, MiniCastConfig::default());
//! // This round's radio conditions: no extra attenuation, no link loss.
//! let conditions = LinkConditions::new(&topology, 0.0, 0.0);
//! let result = schedule.run(&conditions, &mut Xoshiro256::seed_from(1));
//! assert!(result.coverage() > 0.95);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod engine;
mod fault;
mod minicast;

pub use chain::{ChainError, ChainSpec};
pub use fault::{Delivery, FaultPlan, RoundFaults};
pub use minicast::{
    LinkConditions, LinkConditionsCache, MiniCastConfig, MiniCastResult, MiniCastSchedule,
    MiniCastScratch, NodeOutcome,
};
