//! Vectorized polynomial evaluation: many polynomials, one x-set.
//!
//! Batched secret sharing evaluates B independent share polynomials at the
//! *same* public points (one per share holder). Doing that lane-wise over a
//! structure-of-arrays coefficient slab turns B·(d+1) scattered Horner
//! loops into d+1 passes of B independent multiply-adds each — the memory
//! access is sequential and the multiplies pipeline, where the
//! array-of-polynomials form stalls on one dependent chain per lane.

use rand::RngCore;

use crate::element::{Gf, PrimeField};
use crate::poly::Polynomial;

/// A batch of `lanes` dense polynomials of the same degree bound, stored as
/// a degree-major coefficient slab: `coeffs[d * lanes + lane]` is lane
/// `lane`'s degree-`d` coefficient.
///
/// In Shamir terms, lane `l`'s constant coefficient is the `l`-th secret
/// and the remaining coefficients are uniformly random.
///
/// # Example
///
/// ```
/// use ppda_field::{Gf31, Mersenne31, PolyBatch, SplitMix64};
/// let mut rng = SplitMix64::new(1);
/// let secrets = [Gf31::new(5), Gf31::new(9)];
/// let batch = PolyBatch::<Mersenne31>::random_with_constants(&secrets, 3, &mut rng);
/// let mut at_zero = [Gf31::ZERO; 2];
/// batch.eval_at_into(Gf31::ZERO, &mut at_zero);
/// assert_eq!(at_zero, secrets);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyBatch<P: PrimeField> {
    lanes: usize,
    degree: usize,
    coeffs: Vec<Gf<P>>,
}

impl<P: PrimeField> PolyBatch<P> {
    /// A batch of `lanes` zero polynomials with degree bound `degree`,
    /// ready for [`PolyBatch::refill_random`].
    pub fn zeroed(degree: usize, lanes: usize) -> Self {
        PolyBatch {
            lanes,
            degree,
            coeffs: vec![Gf::ZERO; (degree + 1) * lanes],
        }
    }

    /// Fresh uniformly random polynomials with the given constant terms.
    ///
    /// The degree bound is exact in the [`Polynomial::random_with_constant`]
    /// sense: top coefficients may be zero. Lane count equals
    /// `constants.len()`.
    pub fn random_with_constants<R: RngCore + ?Sized>(
        constants: &[Gf<P>],
        degree: usize,
        rng: &mut R,
    ) -> Self {
        let mut batch = Self::zeroed(degree, constants.len());
        batch.refill_random(constants, rng);
        batch
    }

    /// Refill in place with fresh random polynomials (reuses the slab).
    ///
    /// Randomness is drawn **lane-major** — lane 0's coefficients first,
    /// ascending degree — exactly the order `lanes` sequential
    /// [`Polynomial::random_with_constant`] calls would consume, so batched
    /// and scalar share generation are interchangeable under one RNG.
    ///
    /// # Panics
    ///
    /// Panics if `constants.len()` differs from the batch's lane count.
    pub fn refill_random<R: RngCore + ?Sized>(&mut self, constants: &[Gf<P>], rng: &mut R) {
        assert_eq!(
            constants.len(),
            self.lanes,
            "constants must cover all lanes"
        );
        for (lane, &c) in constants.iter().enumerate() {
            self.coeffs[lane] = c;
            for d in 1..=self.degree {
                self.coeffs[d * self.lanes + lane] = Gf::random(rng);
            }
        }
    }

    /// Number of polynomials in the batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The shared degree bound.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The constant terms (lane-ordered): the secrets under SSS.
    pub fn constants(&self) -> &[Gf<P>] {
        &self.coeffs[..self.lanes]
    }

    /// Evaluate every lane at `x`: the one-point call of
    /// [`PolyBatch::eval_many_into`]'s kernel.
    ///
    /// A zero-lane batch is a no-op; a degree-0 batch copies the constants.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the lane count.
    pub fn eval_at_into(&self, x: Gf<P>, out: &mut [Gf<P>]) {
        crate::packed::horner_lanes_into(&self.coeffs, self.lanes, self.degree, &[x], out);
    }

    /// Evaluate every lane at every point of `xs` into an x-major slab:
    /// `out[i * lanes + lane]` is lane `lane` evaluated at `xs[i]`.
    ///
    /// One call of the all-points Horner kernel
    /// ([`packed::horner_lanes_into`](crate::packed::horner_lanes_into)), on
    /// the lanes this CPU runs (AVX2 for Mersenne-31 when the CPU has it,
    /// detected at run time; else portable): four points' chains per
    /// four-lane chunk, or, below four lanes, the points in the vector
    /// lanes. Every value is the exact element the scalar oracle produces.
    ///
    /// `out` is cleared and resized to `xs.len() * lanes` — so it ends
    /// empty (not a panic) when `xs` is empty or the batch has zero lanes.
    pub fn eval_many_into(&self, xs: &[Gf<P>], out: &mut Vec<Gf<P>>) {
        out.clear();
        out.resize(xs.len() * self.lanes, Gf::ZERO);
        crate::packed::horner_lanes_into(&self.coeffs, self.lanes, self.degree, xs, out);
    }

    /// Evaluate every lane at every point of `xs` (allocating convenience
    /// over [`PolyBatch::eval_many_into`]).
    pub fn eval_many(&self, xs: &[Gf<P>]) -> Vec<Gf<P>> {
        let mut out = Vec::new();
        self.eval_many_into(xs, &mut out);
        out
    }

    /// Extract one lane as a standalone [`Polynomial`] (test/debug aid).
    pub fn lane_poly(&self, lane: usize) -> Polynomial<P> {
        let coeffs = (0..=self.degree)
            .map(|d| self.coeffs[d * self.lanes + lane])
            .collect();
        Polynomial::new(coeffs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Gf31, Mersenne31};
    use crate::SplitMix64;

    #[test]
    fn batch_matches_sequential_scalar_polynomials() {
        // The contract batched secret sharing relies on: one RNG, drawn
        // lane-major, gives the same polynomials as sequential scalar calls.
        let secrets: Vec<Gf31> = (0..5).map(|i| Gf31::new(100 + i)).collect();
        let degree = 4;

        let mut rng_batch = SplitMix64::new(77);
        let batch =
            PolyBatch::<Mersenne31>::random_with_constants(&secrets, degree, &mut rng_batch);

        let mut rng_scalar = SplitMix64::new(77);
        for (lane, &s) in secrets.iter().enumerate() {
            let poly = Polynomial::<Mersenne31>::random_with_constant(s, degree, &mut rng_scalar);
            assert_eq!(batch.lane_poly(lane), poly, "lane {lane}");
        }
        // And the RNGs end in the same state.
        assert_eq!(rng_batch.next_u64(), rng_scalar.next_u64());
    }

    #[test]
    fn eval_matches_per_lane_eval() {
        let mut rng = SplitMix64::new(3);
        let secrets: Vec<Gf31> = (0..7).map(|i| Gf31::new(i * i)).collect();
        let batch = PolyBatch::<Mersenne31>::random_with_constants(&secrets, 3, &mut rng);
        let xs: Vec<Gf31> = (1u64..=6).map(Gf31::new).collect();
        let slab = batch.eval_many(&xs);
        assert_eq!(slab.len(), xs.len() * batch.lanes());
        for (i, &x) in xs.iter().enumerate() {
            for lane in 0..batch.lanes() {
                assert_eq!(
                    slab[i * batch.lanes() + lane],
                    batch.lane_poly(lane).eval(x),
                    "x index {i}, lane {lane}"
                );
            }
        }
    }

    #[test]
    fn constants_are_the_secrets() {
        let mut rng = SplitMix64::new(4);
        let secrets = [Gf31::new(11), Gf31::new(22)];
        let batch = PolyBatch::<Mersenne31>::random_with_constants(&secrets, 2, &mut rng);
        assert_eq!(batch.constants(), &secrets);
        let mut at_zero = [Gf31::ZERO; 2];
        batch.eval_at_into(Gf31::ZERO, &mut at_zero);
        assert_eq!(at_zero, secrets);
    }

    #[test]
    fn refill_reuses_capacity() {
        let mut rng = SplitMix64::new(5);
        let mut batch = PolyBatch::<Mersenne31>::zeroed(3, 4);
        let secrets: Vec<Gf31> = (0..4).map(Gf31::new).collect();
        batch.refill_random(&secrets, &mut rng);
        let first = batch.clone();
        batch.refill_random(&secrets, &mut rng);
        assert_ne!(first, batch, "fresh randomness per refill");
        assert_eq!(batch.constants(), &secrets[..]);
        assert_eq!(batch.degree(), 3);
        assert_eq!(batch.lanes(), 4);
    }

    #[test]
    fn degree_zero_batch_is_constant() {
        let mut rng = SplitMix64::new(6);
        let secrets = [Gf31::new(9)];
        let batch = PolyBatch::<Mersenne31>::random_with_constants(&secrets, 0, &mut rng);
        let mut out = [Gf31::ZERO; 1];
        batch.eval_at_into(Gf31::new(1234), &mut out);
        assert_eq!(out[0], Gf31::new(9));
    }

    #[test]
    fn zero_lane_batch_is_well_defined() {
        // Zero lanes: every operation is a no-op, never a panic.
        let mut rng = SplitMix64::new(8);
        let mut batch = PolyBatch::<Mersenne31>::zeroed(3, 0);
        batch.refill_random(&[], &mut rng);
        assert_eq!(batch.lanes(), 0);
        assert_eq!(batch.constants(), &[]);
        let mut out: [Gf31; 0] = [];
        batch.eval_at_into(Gf31::new(5), &mut out);
        let mut slab = vec![Gf31::ONE; 3];
        batch.eval_many_into(&[Gf31::ONE, Gf31::new(2)], &mut slab);
        assert!(slab.is_empty(), "zero-lane slab is empty");
        assert!(batch.eval_many(&[Gf31::ONE]).is_empty());
    }

    #[test]
    fn empty_xs_yield_empty_slab() {
        let mut rng = SplitMix64::new(9);
        let batch = PolyBatch::<Mersenne31>::random_with_constants(&[Gf31::new(4)], 2, &mut rng);
        let mut slab = vec![Gf31::ONE; 7];
        batch.eval_many_into(&[], &mut slab);
        assert!(slab.is_empty(), "no points, no values");
    }

    #[test]
    fn odd_lane_counts_cover_packed_tails() {
        // Lane counts straddling the packed width exercise full chunks,
        // tails, and the all-tail case against the per-lane polynomials.
        let mut rng = SplitMix64::new(10);
        for lanes in [1usize, 3, 4, 5, 7, 9, 16, 23] {
            let secrets: Vec<Gf31> = (0..lanes as u64).map(|i| Gf31::new(i * 31 + 1)).collect();
            let batch = PolyBatch::<Mersenne31>::random_with_constants(&secrets, 3, &mut rng);
            let x = Gf31::new(0xABCD);
            let mut out = vec![Gf31::ZERO; lanes];
            batch.eval_at_into(x, &mut out);
            for (lane, &got) in out.iter().enumerate() {
                assert_eq!(
                    got,
                    batch.lane_poly(lane).eval(x),
                    "lanes={lanes} lane={lane}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "all lanes")]
    fn lane_mismatch_panics() {
        let mut rng = SplitMix64::new(7);
        let batch = PolyBatch::<Mersenne31>::random_with_constants(&[Gf31::new(1)], 1, &mut rng);
        let mut out = [Gf31::ZERO; 2];
        batch.eval_at_into(Gf31::ONE, &mut out);
    }
}
