//! Batched share generation: B secrets through one splitting pass.
//!
//! The paper's protocol aggregates one scalar per source per round, which
//! wastes the fixed radio/crypto cost of a round. Batching B readings per
//! source into lanes amortizes that cost: one polynomial batch, one CCM
//! seal per (source, destination), one transport round — B aggregates out.
//! [`BatchSplitter`] is the vectorized twin of
//! [`split_secret`](crate::split_secret); with the same RNG it draws the
//! identical randomness, so lane `l` of the batch *is* the scalar share
//! vector of secret `l` (enforced by the equivalence suite).

use ppda_field::{Gf, PolyBatch, PrimeField};
use rand::RngCore;

use crate::error::SssError;
use crate::share::validate_points;

/// A reusable batched splitter: owns the polynomial slab so periodic
/// callers (one split per source per round) never reallocate.
///
/// # Example
///
/// ```
/// use ppda_field::{share_x, Gf31, Mersenne31};
/// use ppda_sss::{BatchSplitter, ReconstructionPlan};
/// # fn main() -> Result<(), ppda_sss::SssError> {
/// let mut rng = ppda_sim::Xoshiro256::seed_from(7);
/// let xs: Vec<_> = (0..3).map(share_x::<Mersenne31>).collect();
/// let secrets = [Gf31::new(10), Gf31::new(20)];
/// let mut splitter = BatchSplitter::new(2, secrets.len());
/// // The x-major slab: the lanes at xs[0], then at xs[1], then at xs[2].
/// let mut slab = Vec::new();
/// splitter.split_into(&secrets, &xs, &mut rng, &mut slab)?;
/// let plan = ReconstructionPlan::new(&xs)?;
/// let mut out = Vec::new();
/// plan.reconstruct_batch_into(2, &slab, &mut out)?;
/// assert_eq!(out, secrets);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchSplitter<P: PrimeField> {
    poly: PolyBatch<P>,
}

impl<P: PrimeField> BatchSplitter<P> {
    /// A splitter for `lanes` secrets under degree-`degree` polynomials.
    pub fn new(degree: usize, lanes: usize) -> Self {
        BatchSplitter {
            poly: PolyBatch::zeroed(degree, lanes),
        }
    }

    /// Number of lanes this splitter was built for.
    pub fn lanes(&self) -> usize {
        self.poly.lanes()
    }

    /// Split `secrets` (one per lane) at the points `xs`, writing the
    /// x-major share slab into `ys_out` (cleared and resized).
    ///
    /// Randomness is consumed in the exact order of `lanes` sequential
    /// [`split_secret`](crate::split_secret) calls.
    ///
    /// # Errors
    ///
    /// Each is returned before any randomness is drawn.
    ///
    /// * [`SssError::BadPacket`] if `secrets.len()` differs from the
    ///   splitter's lane count.
    /// * [`SssError::TooFewPoints`] if `xs.len() < degree + 1`.
    /// * [`SssError::Field`] if `xs` contains zero or duplicates.
    pub fn split_into<R: RngCore + ?Sized>(
        &mut self,
        secrets: &[Gf<P>],
        xs: &[Gf<P>],
        rng: &mut R,
        ys_out: &mut Vec<Gf<P>>,
    ) -> Result<(), SssError> {
        if secrets.len() != self.poly.lanes() {
            return Err(SssError::BadPacket {
                what: "secret count disagrees with the splitter's lane count",
            });
        }
        let degree = self.poly.degree();
        if xs.len() < degree + 1 {
            return Err(SssError::TooFewPoints {
                needed: degree + 1,
                got: xs.len(),
            });
        }
        validate_points(xs)?;
        self.poly.refill_random(secrets, rng);
        self.poly.eval_many_into(xs, ys_out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share::split_secret;
    use ppda_field::{share_x, Gf31, Mersenne31};
    use ppda_sim::Xoshiro256;

    fn xs(n: usize) -> Vec<Gf31> {
        (0..n).map(share_x::<Mersenne31>).collect()
    }

    /// Split `secrets` once through a fresh splitter: the x-major slab.
    fn split(
        secrets: &[Gf31],
        degree: usize,
        points: &[Gf31],
        rng: &mut Xoshiro256,
    ) -> Result<Vec<Gf31>, SssError> {
        let mut ys = Vec::new();
        BatchSplitter::new(degree, secrets.len()).split_into(secrets, points, rng, &mut ys)?;
        Ok(ys)
    }

    #[test]
    fn batch_equals_sequential_scalar_splits() {
        let secrets: Vec<Gf31> = (0..6).map(|i| Gf31::new(1000 + i)).collect();
        let points = xs(9);
        let degree = 3;

        let mut rng_batch = Xoshiro256::seed_from(42);
        let ys = split(&secrets, degree, &points, &mut rng_batch).unwrap();

        let mut rng_scalar = Xoshiro256::seed_from(42);
        for (lane, &s) in secrets.iter().enumerate() {
            let scalar = split_secret(s, degree, &points, &mut rng_scalar).unwrap();
            for (i, sh) in scalar.iter().enumerate() {
                assert_eq!(sh.x, points[i]);
                assert_eq!(ys[i * secrets.len() + lane], sh.y, "lane {lane}, point {i}");
            }
        }
    }

    #[test]
    fn single_lane_batch_is_the_scalar_path() {
        let points = xs(5);
        let mut rng_a = Xoshiro256::seed_from(9);
        let mut rng_b = Xoshiro256::seed_from(9);
        let ys = split(&[Gf31::new(77)], 2, &points, &mut rng_a).unwrap();
        let scalar = split_secret(Gf31::new(77), 2, &points, &mut rng_b).unwrap();
        let scalar_ys: Vec<Gf31> = scalar.iter().map(|sh| sh.y).collect();
        assert_eq!(ys, scalar_ys);
    }

    #[test]
    fn batch_validation_mirrors_scalar() {
        let mut rng = Xoshiro256::seed_from(1);
        let secrets = [Gf31::new(1), Gf31::new(2)];
        assert_eq!(
            split(&secrets, 5, &xs(5), &mut rng).unwrap_err(),
            SssError::TooFewPoints { needed: 6, got: 5 }
        );
        let bad = vec![Gf31::ZERO, Gf31::ONE];
        assert!(matches!(
            split(&secrets, 1, &bad, &mut rng),
            Err(SssError::Field(ppda_field::FieldError::ZeroAbscissa))
        ));
        let dup = vec![Gf31::new(3), Gf31::new(3)];
        assert!(matches!(
            split(&secrets, 1, &dup, &mut rng),
            Err(SssError::Field(ppda_field::FieldError::DuplicateX { x: 3 }))
        ));
    }

    #[test]
    fn lane_mismatch_is_an_error_before_any_draw() {
        use rand::RngCore;
        let points = xs(4);
        let mut splitter = BatchSplitter::new(2, 3);
        let mut rng = Xoshiro256::seed_from(6);
        let mut ys = Vec::new();
        for secrets in [&[Gf31::new(1)][..], &[Gf31::new(1); 4]] {
            assert!(matches!(
                splitter.split_into(secrets, &points, &mut rng, &mut ys),
                Err(SssError::BadPacket { .. })
            ));
        }
        assert_eq!(rng.next_u64(), Xoshiro256::seed_from(6).next_u64());
    }

    #[test]
    fn splitter_reuse_is_deterministic() {
        let points = xs(6);
        let secrets = [Gf31::new(5), Gf31::new(6), Gf31::new(7)];
        let mut splitter = BatchSplitter::new(2, 3);
        assert_eq!(splitter.lanes(), 3);
        let mut ys_a = Vec::new();
        let mut ys_b = Vec::new();
        let mut rng = Xoshiro256::seed_from(4);
        splitter
            .split_into(&secrets, &points, &mut rng, &mut ys_a)
            .unwrap();
        let mut rng = Xoshiro256::seed_from(4);
        splitter
            .split_into(&secrets, &points, &mut rng, &mut ys_b)
            .unwrap();
        assert_eq!(ys_a, ys_b);
        assert_eq!(ys_a.len(), points.len() * 3);
    }
}
