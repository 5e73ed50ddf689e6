//! IEEE 802.15.4 PHY model for the nRF52840, as used on FlockLab and DCube.
//!
//! The paper's latency and radio-on-time figures are, at bottom, slot
//! arithmetic: `bytes × 32 µs + overheads`, multiplied by chain lengths and
//! NTX counts. This crate supplies that arithmetic plus the two physical
//! ingredients the CT protocols rely on:
//!
//! * [`phy`] — timing constants (250 kbit/s, SHR/PHR overhead, turnaround)
//!   and [`FrameSpec`] airtime computation.
//! * [`channel`] — a log-distance path-loss model with static per-link
//!   shadowing, RSSI→PRR mapping for the nRF52840 sensitivity, and the
//!   constructive-interference reliability of concurrent same-packet
//!   transmissions.
//! * [`EnergyLedger`] — per-node radio-on bookkeeping (tx / rx / idle
//!   listening) and energy conversion with datasheet currents.
//! * [`fragment`] — 6LoWPAN-style datagram fragmentation/reassembly so
//!   payloads wider than one 127-byte PSDU can span multiple frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
mod energy;
mod fading;
pub mod fragment;
mod frame;
pub mod phy;

pub use channel::PathLossModel;
pub use energy::{EnergyLedger, RadioCurrents};
pub use fading::FadingProfile;
pub use fragment::{
    fragment_frame, frames_for_datagram, FragmentError, FragmentHeader, Fragmenter, Reassembler,
    FRAGMENT_HEADER_LEN, MAX_DATAGRAM_LEN, MAX_FRAGMENTS, MAX_FRAGMENT_DATA,
};
pub use frame::{FrameSpec, FrameTooLong, MAX_PSDU_LEN};
