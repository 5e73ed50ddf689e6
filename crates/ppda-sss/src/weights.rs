//! Precomputed Lagrange reconstruction weights.
//!
//! A periodic-aggregation deployment reconstructs at the *same* share-holder
//! set every epoch (the designated aggregators), so the Lagrange basis at
//! x = 0 can be computed once and each round reduced to `m` multiplications
//! and additions. [`ReconstructionPlan`] packages that precomputation for
//! the canonical set; [`WeightCache`] memoizes the weights of the survivor
//! subsets that faults leave instead.

use ppda_field::{lagrange, Gf, PrimeField};

use crate::error::SssError;

/// Precomputed Lagrange weights at x = 0 for one canonical abscissa set.
///
/// # Example
///
/// ```
/// use ppda_field::{share_x, Gf31, Mersenne31};
/// use ppda_sss::{split_secret, ReconstructionPlan};
/// # fn main() -> Result<(), ppda_sss::SssError> {
/// let mut rng = ppda_sim::Xoshiro256::seed_from(9);
/// let xs: Vec<_> = (0..3).map(share_x::<Mersenne31>).collect();
/// let plan = ReconstructionPlan::new(&xs)?;
/// let shares = split_secret(Gf31::new(77), 2, &xs, &mut rng)?;
/// // One lane: the slab holds one share value per canonical point.
/// let ys: Vec<_> = shares.iter().map(|s| s.y).collect();
/// let mut out = Vec::new();
/// plan.reconstruct_batch_into(1, &ys, &mut out)?;
/// assert_eq!(out, [Gf31::new(77)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconstructionPlan<P: PrimeField> {
    xs: Vec<Gf<P>>,
    weights: Vec<Gf<P>>,
}

impl<P: PrimeField> ReconstructionPlan<P> {
    /// Precompute the basis weights for the canonical point set `xs`.
    ///
    /// # Errors
    ///
    /// [`SssError::Field`] if `xs` is empty, contains zero, or has
    /// duplicates.
    pub fn new(xs: &[Gf<P>]) -> Result<Self, SssError> {
        let weights = lagrange::basis_at_zero(xs)?;
        Ok(ReconstructionPlan {
            xs: xs.to_vec(),
            weights,
        })
    }

    /// The canonical abscissas, in weight order.
    pub fn xs(&self) -> &[Gf<P>] {
        &self.xs
    }

    /// The precomputed basis weights (same order as [`Self::xs`]).
    pub fn weights(&self) -> &[Gf<P>] {
        &self.weights
    }

    /// Number of canonical points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `false` always (an empty plan is unconstructible); for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Reconstruct a whole lane batch with one weight pass: `ys` is an
    /// x-major slab (`ys[i * lanes + lane]` = lane `lane`'s sum share at
    /// canonical point `i`), `out[lane]` becomes `Σᵢ wᵢ · ys[i][lane]`.
    ///
    /// The sum runs through [`ppda_field::packed::weighted_sum_rows_into`]
    /// on the lanes this CPU runs (AVX2 for Mersenne-31 when the CPU has
    /// it, detected at run time; else portable) with exact scalar tails,
    /// so lane `l` equals [`reconstruct`](crate::reconstruct) over lane
    /// `l`'s scalar shares.
    ///
    /// `out` is cleared and resized to `lanes`.
    ///
    /// # Errors
    ///
    /// [`SssError::BadPacket`] if the slab length is not
    /// `self.len() * lanes`.
    pub fn reconstruct_batch_into(
        &self,
        lanes: usize,
        ys: &[Gf<P>],
        out: &mut Vec<Gf<P>>,
    ) -> Result<(), SssError> {
        if ys.len() != self.xs.len() * lanes {
            return Err(SssError::BadPacket {
                what: "share slab length disagrees with plan size × lanes",
            });
        }
        out.clear();
        out.resize(lanes, Gf::ZERO);
        ppda_field::packed::weighted_sum_rows_into(&self.weights, ys, lanes, out);
        Ok(())
    }
}

/// Lagrange weights per *survivor subset* of one canonical point set,
/// memoized by survivor bitmask, **bounded** by a capacity with
/// oldest-first eviction.
///
/// Degraded rounds reconstruct from whichever `t = threshold` sum shares
/// actually arrived, and lossy links tend to repeat the same few survivor
/// patterns round after round. Recomputing the basis for every round is
/// `O(t²)` field work; this cache pays it once per *distinct* survivor
/// mask and then answers in a hash lookup. Bit `i` of a mask corresponds
/// to `xs[i]` of the full canonical set (≤ 128 points, matching the
/// protocol's node-id mask width).
///
/// A churny campaign can produce a new survivor mask every round — with
/// up to 2¹²⁸ possible masks an unbounded memo is a slow leak across a
/// long deployment. The cache therefore holds at most
/// [`WeightCache::capacity`] masks ([`DEFAULT_WEIGHT_CAPACITY`] unless
/// [`WeightCache::with_capacity`] says otherwise) and evicts the
/// oldest-inserted entry when full, counting evictions in
/// [`WeightCache::evictions`]. Eviction only ever costs a recomputation,
/// never correctness.
///
/// # Example
///
/// ```
/// use ppda_field::{share_x, Mersenne31};
/// use ppda_sss::WeightCache;
/// # fn main() -> Result<(), ppda_sss::SssError> {
/// let xs: Vec<_> = (0..5).map(share_x::<Mersenne31>).collect();
/// let mut cache = WeightCache::new(&xs, 3)?;
/// // Survivors {0, 2, 4}: weights for their x-set, ascending by x.
/// let w = cache.weights(0b10101)?.to_vec();
/// assert_eq!(w.len(), 3);
/// assert_eq!(cache.cached(), 1);
/// cache.weights(0b10101)?; // second hit: no recomputation
/// assert_eq!(cache.cached(), 1);
/// assert_eq!(cache.evictions(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WeightCache<P: PrimeField> {
    xs: Vec<Gf<P>>,
    threshold: usize,
    capacity: usize,
    cache: std::collections::HashMap<u128, Vec<Gf<P>>>,
    /// Masks in insertion order — the eviction queue.
    order: std::collections::VecDeque<u128>,
    evictions: u64,
}

/// Default bound on distinct survivor masks a [`WeightCache`] memoizes.
///
/// Sized for the protocols' realistic churn: a steady deployment repeats a
/// handful of masks, a degraded one cycles through a few hundred; at ≤ 128
/// weights per entry this caps the memo at a few MiB worst-case where the
/// unbounded map grew with every novel mask forever.
pub const DEFAULT_WEIGHT_CAPACITY: usize = 512;

impl<P: PrimeField> WeightCache<P> {
    /// Build a cache over the full canonical point set `xs` with
    /// reconstruction threshold `threshold` (= degree + 1) and the
    /// [`DEFAULT_WEIGHT_CAPACITY`] mask bound.
    ///
    /// # Errors
    ///
    /// [`SssError::TooFewPoints`] if `threshold` is zero or exceeds
    /// `xs.len()`, or [`SssError::BadPacket`] if `xs` has more than 128
    /// points (the survivor mask width).
    pub fn new(xs: &[Gf<P>], threshold: usize) -> Result<Self, SssError> {
        Self::with_capacity(xs, threshold, DEFAULT_WEIGHT_CAPACITY)
    }

    /// [`WeightCache::new`] with an explicit mask capacity (`capacity ≥ 1`;
    /// zero is clamped to one so the current round's mask always fits).
    ///
    /// # Errors
    ///
    /// Same conditions as [`WeightCache::new`].
    pub fn with_capacity(
        xs: &[Gf<P>],
        threshold: usize,
        capacity: usize,
    ) -> Result<Self, SssError> {
        if threshold == 0 || threshold > xs.len() {
            return Err(SssError::TooFewPoints {
                needed: threshold.max(1),
                got: xs.len(),
            });
        }
        if xs.len() > 128 {
            return Err(SssError::BadPacket {
                what: "survivor masks cover at most 128 canonical points",
            });
        }
        Ok(WeightCache {
            xs: xs.to_vec(),
            threshold,
            capacity: capacity.max(1),
            cache: std::collections::HashMap::new(),
            order: std::collections::VecDeque::new(),
            evictions: 0,
        })
    }

    /// The full canonical point set (mask bit `i` ↔ `xs[i]`).
    pub fn full_xs(&self) -> &[Gf<P>] {
        &self.xs
    }

    /// The reconstruction threshold t.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Number of distinct survivor masks currently cached (≤
    /// [`WeightCache::capacity`] at all times).
    pub fn cached(&self) -> usize {
        self.cache.len()
    }

    /// The bound on cached masks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many memoized entries have been evicted to stay within
    /// capacity since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The x-set a survivor mask reconstructs from: the `threshold`
    /// smallest-x survivors among the set bits, ascending by x.
    ///
    /// # Errors
    ///
    /// [`SssError::TooFewPoints`] if the mask has fewer than `threshold`
    /// surviving points, or [`SssError::BadPacket`] if a set bit is
    /// outside the canonical set.
    pub fn survivor_xs(&self, mask: u128) -> Result<Vec<Gf<P>>, SssError> {
        // At 128 points every bit is inside the set; `>>` by 128 would
        // overflow.
        if mask.checked_shr(self.xs.len() as u32).unwrap_or(0) != 0 {
            return Err(SssError::BadPacket {
                what: "survivor mask has bits outside the canonical point set",
            });
        }
        let mut xs: Vec<Gf<P>> = self
            .xs
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1u128 << i) != 0)
            .map(|(_, &x)| x)
            .collect();
        if xs.len() < self.threshold {
            return Err(SssError::TooFewPoints {
                needed: self.threshold,
                got: xs.len(),
            });
        }
        xs.sort_unstable();
        xs.truncate(self.threshold);
        Ok(xs)
    }

    /// Lagrange weights at x = 0 for the survivor mask, computed once per
    /// distinct mask and memoized (up to [`WeightCache::capacity`] masks;
    /// the oldest entry is evicted to admit a new one). Weight order
    /// matches [`WeightCache::survivor_xs`] (ascending by x).
    ///
    /// # Errors
    ///
    /// Same conditions as [`WeightCache::survivor_xs`]; a failed lookup
    /// never inserts or evicts anything.
    pub fn weights(&mut self, mask: u128) -> Result<&[Gf<P>], SssError> {
        if !self.cache.contains_key(&mask) {
            let xs = self.survivor_xs(mask)?;
            let weights = lagrange::basis_at_zero(&xs)?;
            if self.cache.len() >= self.capacity {
                // Oldest-first: under churn the masks that stopped
                // recurring are the ones least likely to come back.
                if let Some(old) = self.order.pop_front() {
                    self.cache.remove(&old);
                    self.evictions += 1;
                }
            }
            self.cache.insert(mask, weights);
            self.order.push_back(mask);
        }
        Ok(self.cache.get(&mask).expect("inserted above"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::share::{reconstruct, split_secret, Share};
    use ppda_field::{share_x, Gf31, Mersenne31};
    use ppda_sim::Xoshiro256;

    fn xs(n: usize) -> Vec<Gf31> {
        (0..n).map(share_x::<Mersenne31>).collect()
    }

    #[test]
    fn fast_path_matches_fresh_interpolation() {
        let mut rng = Xoshiro256::seed_from(1);
        let points = xs(6);
        let plan = ReconstructionPlan::new(&points[..4]).unwrap();
        let shares = split_secret(Gf31::new(123456), 3, &points, &mut rng).unwrap();
        let canonical = &shares[..4];
        let ys: Vec<Gf31> = canonical.iter().map(|s| s.y).collect();
        let mut out = Vec::new();
        plan.reconstruct_batch_into(1, &ys, &mut out).unwrap();
        assert_eq!(out, [reconstruct(canonical).unwrap()]);
        assert_eq!(out, [Gf31::new(123456)]);
    }

    #[test]
    fn weights_equal_basis_at_zero() {
        let points = xs(5);
        let plan = ReconstructionPlan::new(&points).unwrap();
        let basis = lagrange::basis_at_zero(&points).unwrap();
        assert_eq!(plan.weights(), &basis[..]);
        assert_eq!(plan.xs(), &points[..]);
        assert_eq!(plan.len(), 5);
        assert!(!plan.is_empty());
    }

    #[test]
    fn batch_reconstruction_matches_per_lane() {
        let mut rng = Xoshiro256::seed_from(5);
        let points = xs(4);
        let plan = ReconstructionPlan::new(&points).unwrap();
        let secrets: Vec<Gf31> = (0..6).map(|i| Gf31::new(7000 + i)).collect();
        let lanes = secrets.len();
        let mut slab = Vec::new();
        crate::BatchSplitter::new(3, lanes)
            .split_into(&secrets, &points, &mut rng, &mut slab)
            .unwrap();
        let mut recovered = Vec::new();
        plan.reconstruct_batch_into(lanes, &slab, &mut recovered)
            .unwrap();
        assert_eq!(recovered, secrets);
        for (lane, &rec) in recovered.iter().enumerate() {
            let shares: Vec<_> = (0..points.len())
                .map(|i| Share {
                    x: points[i],
                    y: slab[i * lanes + lane],
                })
                .collect();
            assert_eq!(reconstruct(&shares).unwrap(), rec);
        }
    }

    #[test]
    fn batch_reconstruction_rejects_misshapen_slab() {
        let plan = ReconstructionPlan::new(&xs(3)).unwrap();
        let slab = vec![Gf31::ONE; 5]; // not 3 × lanes for any integer lanes=2
        assert!(matches!(
            plan.reconstruct_batch_into(2, &slab, &mut Vec::new()),
            Err(SssError::BadPacket { .. })
        ));
    }

    #[test]
    fn invalid_points_rejected() {
        assert!(ReconstructionPlan::<Mersenne31>::new(&[]).is_err());
        assert!(ReconstructionPlan::new(&[Gf31::ZERO, Gf31::ONE]).is_err());
        assert!(ReconstructionPlan::new(&[Gf31::ONE, Gf31::ONE]).is_err());
    }

    #[test]
    fn cached_weights_equal_fresh_basis() {
        let points = xs(8);
        let mut cache = WeightCache::new(&points, 4).unwrap();
        for mask in [0b0000_1111u128, 0b1111_0000, 0b1010_1010, 0b1111_1111] {
            let survivors = cache.survivor_xs(mask).unwrap();
            let fresh = lagrange::basis_at_zero(&survivors).unwrap();
            assert_eq!(cache.weights(mask).unwrap(), &fresh[..]);
        }
        assert_eq!(cache.cached(), 4);
    }

    #[test]
    fn any_threshold_survivor_subset_reconstructs_the_secret() {
        let mut rng = Xoshiro256::seed_from(11);
        let points = xs(7);
        let degree = 2;
        let shares = split_secret(Gf31::new(987_654), degree, &points, &mut rng).unwrap();
        let mut cache = WeightCache::new(&points, degree + 1).unwrap();
        // Every 3-of-7 survivor pattern yields the same secret.
        for mask in 0u128..(1 << 7) {
            if mask.count_ones() as usize != degree + 1 {
                continue;
            }
            let survivors = cache.survivor_xs(mask).unwrap();
            let weights = cache.weights(mask).unwrap();
            let value: Gf31 = survivors
                .iter()
                .zip(weights)
                .map(|(&x, &w)| {
                    let share = shares.iter().find(|s| s.x == x).unwrap();
                    share.y * w
                })
                .sum();
            assert_eq!(value, Gf31::new(987_654), "mask {mask:#b}");
        }
    }

    #[test]
    fn wide_masks_use_the_lowest_x_survivors() {
        let points = xs(6);
        let mut cache = WeightCache::new(&points, 2).unwrap();
        // Mask with 4 survivors {1, 2, 4, 5}: selection is {x(1), x(2)}.
        assert_eq!(
            cache.survivor_xs(0b110110).unwrap(),
            vec![points[1], points[2]]
        );
        assert_eq!(
            cache.weights(0b110110).unwrap(),
            &lagrange::basis_at_zero(&[points[1], points[2]]).unwrap()[..]
        );
    }

    #[test]
    fn full_width_masks_cover_all_128_points() {
        // 128 canonical points fill the mask: no bit lies outside the set.
        let points = xs(128);
        let mut cache = WeightCache::new(&points, 3).unwrap();
        let mask = (1u128 << 1) | (1 << 2) | (1 << 127);
        let survivors = vec![points[1], points[2], points[127]];
        assert_eq!(cache.survivor_xs(mask).unwrap(), survivors);
        assert_eq!(
            cache.weights(mask).unwrap(),
            &lagrange::basis_at_zero(&survivors).unwrap()[..]
        );
    }

    #[test]
    fn churny_10k_round_campaign_keeps_the_cache_bounded() {
        // Regression for the unbounded-growth leak: a long campaign whose
        // survivor pattern churns every round used to insert a fresh entry
        // per distinct mask forever. 10 000 rounds over a 20-point set,
        // mask drawn per round — the cache must stay at its capacity while
        // every answer still matches a fresh basis.
        let points = xs(20);
        let threshold = 4;
        let mut cache = WeightCache::new(&points, threshold).unwrap();
        use rand::RngCore;
        let mut rng = Xoshiro256::seed_from(0xC0FFEE);
        let mut distinct = std::collections::HashSet::new();
        for round in 0..10_000u32 {
            // A churny survivor draw: 4–20 random survivors.
            let mut mask = 0u128;
            while (mask.count_ones() as usize) < threshold {
                mask |= 1u128 << (rng.next_u64() % 20);
            }
            distinct.insert(mask);
            let w = cache.weights(mask).unwrap().to_vec();
            assert!(
                cache.cached() <= cache.capacity(),
                "round {round}: cache grew past its bound"
            );
            // Eviction must never change answers — only recompute them.
            let survivors = cache.survivor_xs(mask).unwrap();
            assert_eq!(w, lagrange::basis_at_zero(&survivors).unwrap());
        }
        assert!(
            distinct.len() > cache.capacity(),
            "the campaign must actually exercise eviction (saw {} masks)",
            distinct.len()
        );
        assert_eq!(cache.capacity(), DEFAULT_WEIGHT_CAPACITY);
        assert!(cache.cached() <= DEFAULT_WEIGHT_CAPACITY);
        assert!(cache.evictions() > 0, "churn past capacity must evict");
    }

    #[test]
    fn eviction_is_oldest_first_and_reinsertable() {
        let points = xs(6);
        let mut cache = WeightCache::with_capacity(&points, 2, 2).unwrap();
        assert_eq!(cache.capacity(), 2);
        let first = cache.weights(0b000011).unwrap().to_vec();
        cache.weights(0b000110).unwrap();
        assert_eq!(cache.cached(), 2);
        cache.weights(0b001100).unwrap(); // evicts 0b000011
        assert_eq!(cache.cached(), 2);
        assert_eq!(cache.evictions(), 1);
        // The evicted mask recomputes to the identical weights.
        assert_eq!(cache.weights(0b000011).unwrap(), &first[..]);
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let points = xs(4);
        let mut cache = WeightCache::with_capacity(&points, 2, 0).unwrap();
        assert_eq!(cache.capacity(), 1);
        cache.weights(0b0011).unwrap();
        cache.weights(0b1100).unwrap();
        assert_eq!(cache.cached(), 1);
    }

    #[test]
    fn cache_rejects_bad_inputs() {
        let points = xs(4);
        assert!(matches!(
            WeightCache::new(&points, 0),
            Err(SssError::TooFewPoints { .. })
        ));
        assert!(matches!(
            WeightCache::new(&points, 5),
            Err(SssError::TooFewPoints { .. })
        ));
        let mut cache = WeightCache::new(&points, 3).unwrap();
        assert!(matches!(
            cache.weights(0b11),
            Err(SssError::TooFewPoints { needed: 3, got: 2 })
        ));
        assert!(matches!(
            cache.weights(1 << 10),
            Err(SssError::BadPacket { .. })
        ));
        assert_eq!(cache.cached(), 0, "failed lookups must not pollute");
        assert_eq!(cache.threshold(), 3);
        assert_eq!(cache.full_xs(), &points[..]);
    }
}
