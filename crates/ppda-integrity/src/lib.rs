//! The sum audit and a cheating-aggregator model.
//!
//! Everything below `ppda-mpc` assumes an honest-but-curious world: a
//! passive collusion learns nothing beyond the aggregate, but a Byzantine
//! aggregator can report any sum it likes. This crate makes that
//! detectable:
//!
//! * [`SumAudit`] — given `t+1` usable sum shares, the executor re-derives
//!   every aggregator's honest sum share from the sources' share slabs
//!   and the audit compares it with the reported one, rendering an
//!   [`IntegrityVerdict`]. The slabs are executor memory that no real
//!   node holds, so the verdict is a simulator oracle;
//! * [`TamperPlan`] — the adversary: a seeded, pure-function model of a
//!   cheating aggregator (sum forgery, lane swaps, bit flips) so detection
//!   is testable end to end;
//! * [`IntegrityMode`] — the config switch; `Off` is byte-identical to a
//!   build without this crate.
//!
//! Integrity-on rounds run the sum audit only. [`Transcript`] is a
//! deterministic, domain-separated absorb/challenge byte hash built on the
//! repo's own AES-128 (single-permutation Davies–Meyer compression),
//! KAT-pinned. [`ShareCommitment`] and [`CommitContext`] — a 16-byte
//! transcript digest over a source's full per-lane share vector — and
//! [`SumAudit::flag`] are not on the round path: the audit reads the share
//! slabs directly, so a commitment cannot change a verdict. They remain
//! only because perfbench's traced replay still times a commitment pass.
//!
//! # Example: the audit catches a forged sum
//!
//! ```
//! use ppda_integrity::{IntegrityVerdict, SumAudit};
//!
//! // Degree 1: two usable sum shares reach the audit's quorum.
//! let mut audit = SumAudit::new(1);
//! audit.set_survivors(2);
//! // Lane 0: the recomputed honest sum share against what aggregator 4
//! // reported.
//! audit.check_lane(0, b"honest", b"forged", Some(4));
//! assert_eq!(
//!     audit.verdict(),
//!     IntegrityVerdict::Tampered { lane: 0, aggregator: Some(4) },
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commit;
mod tamper;
mod transcript;

pub use commit::{CommitContext, IntegrityMode, IntegrityVerdict, ShareCommitment, SumAudit};
pub use tamper::{RoundTampering, TamperAction, TamperPlan};
pub use transcript::Transcript;
