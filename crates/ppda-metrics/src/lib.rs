//! Summary statistics and paper-style table rendering for the experiment
//! harnesses.
//!
//! The paper's evaluation repeats every configuration for thousands of
//! iterations and reports time metrics on a log scale. This crate provides
//! the small amount of statistics machinery that workflow needs —
//! [`Summary`] (mean / CI / percentiles over a sample), a campaign
//! accumulator, and a fixed-width [`Table`] renderer for harness output —
//! with no external dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
#[cfg(feature = "serde")]
mod serde_impl;
mod summary;
mod table;

pub use campaign::CampaignAccumulator;
pub use summary::Summary;
pub use table::Table;
