//! Prime-field arithmetic, polynomials and Lagrange interpolation.
//!
//! This crate provides the algebraic substrate for Shamir Secret Sharing
//! (SSS) as used by the rest of the `ppda` workspace: fixed Mersenne prime
//! fields, dense polynomials with Horner evaluation, and Lagrange
//! interpolation (full, and the cheap "evaluate at zero" special case that
//! SSS reconstruction needs).
//!
//! Two fields are provided out of the box:
//!
//! * [`Mersenne31`] — p = 2³¹ − 1. The default for the IoT protocols: a
//!   sensor reading fits comfortably, a share is 4 bytes on the wire, and
//!   sums of dozens of readings never wrap.
//! * [`Mersenne61`] — p = 2⁶¹ − 1, for wider payloads.
//!
//! # Example
//!
//! ```
//! use ppda_field::{Gf31, Polynomial, lagrange};
//!
//! # fn main() -> Result<(), ppda_field::FieldError> {
//! // A degree-2 polynomial with constant term (the "secret") 42.
//! let mut rng = ppda_field::SplitMix64::new(7);
//! let poly = Polynomial::<ppda_field::Mersenne31>::random_with_constant(
//!     Gf31::new(42), 2, &mut rng);
//!
//! // Evaluate at three public points and reconstruct the secret.
//! let points: Vec<_> = (1u64..=3).map(|x| {
//!     let x = Gf31::new(x);
//!     (x, poly.eval(x))
//! }).collect();
//! assert_eq!(lagrange::interpolate_at_zero(&points)?, Gf31::new(42));
//! # Ok(())
//! # }
//! ```

// Unsafe is denied crate-wide and allowed back in exactly one place: the
// private AVX2 module of `packed`. It runs only behind a token that run-time
// CPU detection mints, and its intrinsics carry SAFETY notes.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod element;
mod error;
mod poly;
mod rng;

pub mod lagrange;
pub mod packed;

pub use batch::PolyBatch;
pub use element::{Gf, Gf31, Gf61, GfBytes, Mersenne31, Mersenne61, PrimeField};
pub use error::FieldError;
pub use lagrange::batch_invert;
pub use poly::Polynomial;
pub use rng::SplitMix64;

/// The public evaluation point assigned to a node index.
///
/// Node `i` (zero-based) is designated the public point `x = i + 1`; zero is
/// reserved for the secret itself and must never be used as an evaluation
/// point.
///
/// # Example
///
/// ```
/// use ppda_field::{share_x, Gf31, Mersenne31};
/// assert_eq!(share_x::<Mersenne31>(0), Gf31::new(1));
/// assert_eq!(share_x::<Mersenne31>(4), Gf31::new(5));
/// ```
pub fn share_x<P: PrimeField>(node_index: usize) -> Gf<P> {
    Gf::new(node_index as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_x_is_one_based() {
        assert_eq!(share_x::<Mersenne31>(0), Gf31::new(1));
        assert_eq!(share_x::<Mersenne31>(25), Gf31::new(26));
    }

    #[test]
    fn share_x_never_zero() {
        for i in 0..1000 {
            assert_ne!(share_x::<Mersenne31>(i), Gf31::ZERO);
        }
    }
}
