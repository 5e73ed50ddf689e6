//! Shamir Secret Sharing for privacy-preserving data aggregation.
//!
//! The algebra of the paper's §II, independent of any transport:
//!
//! * [`split_secret`] — evaluate a random degree-k polynomial with the
//!   secret as constant term at a set of public points.
//! * [`SumAccumulator`] — the per-node local summation of incoming shares
//!   (the additive homomorphism that makes aggregation private).
//! * [`reconstruct`] / [`reconstruct_checked`] — Lagrange reconstruction of
//!   the aggregate from any k+1 sum shares.
//! * [`seal_share_lanes`] / [`open_share_lanes`] and [`SumBatch`] — the
//!   wire formats carried in MiniCast sub-slots: AES-CCM-sealed share
//!   lanes in the sharing phase, plaintext sum lanes with a contributor
//!   mask in the reconstruction phase. The one-lane batch is the paper's
//!   packet.
//!
//! # Example: the full algebraic pipeline
//!
//! ```
//! use ppda_field::{share_x, Gf31, Mersenne31};
//! use ppda_sss::{reconstruct, split_secret, SumAccumulator};
//! use ppda_sim::Xoshiro256;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = Xoshiro256::seed_from(1);
//! let degree = 2;
//! let xs: Vec<_> = (0..5).map(share_x::<Mersenne31>).collect();
//!
//! // Three sources secret-share their readings to five holders.
//! let secrets = [10u64, 20, 12];
//! let mut holders: Vec<_> = xs.iter().map(|&x| SumAccumulator::new(x)).collect();
//! for (src, &s) in secrets.iter().enumerate() {
//!     let shares = split_secret(Gf31::new(s), degree, &xs, &mut rng)?;
//!     for (holder, share) in holders.iter_mut().zip(shares) {
//!         holder.add(src as u16, share.y)?;
//!     }
//! }
//!
//! // Any degree+1 sums reconstruct the aggregate.
//! let sums: Vec<_> = holders.iter().map(|h| h.share()).collect();
//! assert_eq!(reconstruct(&sums[..degree + 1])?, Gf31::new(42));
//! assert_eq!(reconstruct(&sums[2..])?, Gf31::new(42));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accumulate;
mod batch;
mod error;
mod packet;
mod share;
mod weights;

pub use accumulate::SumAccumulator;
pub use batch::BatchSplitter;
pub use error::SssError;
pub use packet::{
    open_share_lanes, seal_share_lanes, CommitPacket, SharePacket, SumBatch, MAX_MASK_SOURCES,
};
pub use share::{reconstruct, reconstruct_checked, split_secret, Share};
pub use weights::{ReconstructionPlan, WeightCache, DEFAULT_WEIGHT_CAPACITY};
