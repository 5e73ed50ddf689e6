//! The two lane kernels the batched protocols run hot, with their scalar
//! oracles.
//!
//! The batched protocols lay share data out structure-of-arrays precisely so
//! that lanes can map onto hardware vector lanes. Two loop shapes run hot:
//! Horner evaluation over lanes ([`horner_lanes_into`], behind share
//! splitting) and weighted row sums ([`weighted_sum_rows_into`], behind
//! reconstruction and per-node aggregation). Both run whole chunks of four
//! lanes in vector registers and the `lanes % 4` tail through the scalar
//! oracle's loop. The chunks run on one of two implementations:
//!
//! * AVX2, for [`Mersenne31`](crate::Mersenne31) on a CPU that has it: four
//!   64-bit lanes per `__m256i`. Residues stay below 2³¹, so `vpmuludq`
//!   computes exact products, and two 31-bit folds plus one conditional
//!   subtract re-canonicalize them.
//! * Portable lanes everywhere else: four `u64` residues with branchless
//!   arithmetic, written so the compiler can autovectorize them on any
//!   target (NEON on aarch64). Mersenne-61 always runs them: its products
//!   need 122 bits, beyond AVX2's 32 × 32-bit multiplier.
//!
//! The choice is made at run time, the way `ppda_crypto::Aes128::new` picks
//! AES-NI: each kernel call asks `is_x86_feature_detected!("avx2")` (std
//! caches the CPUID probe) through the field's [`PrimeField`] lane hooks.
//! No build flag, feature or option picks a path; [`backend_name`] reports
//! the one this CPU runs.
//!
//! Every path is *bit-identical* to its scalar oracle
//! ([`horner_lanes_scalar_into`], [`weighted_sum_rows_scalar_into`]).
//! Field arithmetic is exact, so this is strict equality. This module's
//! unit tests check AVX2 (when the CPU has it), the portable lanes and the
//! oracles against each other in one build, and it is why golden wire
//! fixtures do not depend on the CPU.
//!
//! # Example
//!
//! ```
//! use ppda_field::{packed, Gf31, Mersenne31};
//! let weights = [Gf31::new(3), Gf31::new(5)];
//! let slab: Vec<Gf31> = (0..14).map(Gf31::new).collect(); // 7 lanes: tail covered
//! let mut out = vec![Gf31::ZERO; 7];
//! packed::weighted_sum_rows_into(&weights, &slab, 7, &mut out);
//! let mut oracle = vec![Gf31::ZERO; 7];
//! packed::weighted_sum_rows_scalar_into(&weights, &slab, 7, &mut oracle);
//! assert_eq!(out, oracle);
//! assert!(["avx2", "portable"].contains(&packed::backend_name::<Mersenne31>()));
//! ```

use core::marker::PhantomData;

use crate::element::{Gf, PrimeField};

pub(crate) use avx2::Avx2;

/// The lanes this CPU runs for field `P`: `"avx2"` for Mersenne-31 on a
/// CPU with AVX2, else `"portable"`. Benchmarks record it next to their
/// numbers so a perf trajectory always names the code that produced it.
pub fn backend_name<P: PrimeField>() -> &'static str {
    P::lane_backend()
}

/// The four elements starting at `src[at]`.
#[inline]
fn quad<T>(src: &[T], at: usize) -> &[T; 4] {
    src[at..]
        .first_chunk()
        .expect("a whole lane chunk lies inside the slab")
}

// ---------------------------------------------------------------------------
// Portable lanes
// ---------------------------------------------------------------------------

/// Portable packed lanes: four `u64` residues, all operations branchless.
///
/// The scalar [`Gf`] operators branch on the reduction carry, which blocks
/// autovectorization; these lanes use the `min`-select idiom instead
/// (`s.min(s - p)` picks the reduced representative because the subtraction
/// wraps far above `p` when no fold is due), so the compiler can keep the
/// whole Horner/weighted-sum kernel in vector registers on any target.
/// Every lane stays canonical (`< p`).
#[derive(Copy, Clone)]
struct PortableGf<P: PrimeField>([u64; 4], PhantomData<P>);

impl<P: PrimeField> PortableGf<P> {
    #[inline]
    fn splat(v: Gf<P>) -> Self {
        PortableGf([v.value(); 4], PhantomData)
    }

    #[inline]
    fn zero() -> Self {
        PortableGf([0; 4], PhantomData)
    }

    #[inline]
    fn load(src: &[Gf<P>; 4]) -> Self {
        PortableGf(src.map(Gf::value), PhantomData)
    }

    #[inline]
    fn store(self, dst: &mut [Gf<P>; 4]) {
        *dst = self.0.map(Gf::new_unchecked);
    }

    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut lanes = [0u64; 4];
        for (lane, (&a, &b)) in lanes.iter_mut().zip(self.0.iter().zip(&rhs.0)) {
            // Both operands < p < 2^62: the sum cannot overflow, and when
            // it is already reduced the wrapping subtraction lands above
            // 2^63, so `min` selects the canonical representative.
            let s = a + b;
            *lane = s.min(s.wrapping_sub(P::MODULUS));
        }
        PortableGf(lanes, PhantomData)
    }

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let mut lanes = [0u64; 4];
        for (lane, (&a, &b)) in lanes.iter_mut().zip(self.0.iter().zip(&rhs.0)) {
            *lane = P::mul_reduced(a, b);
        }
        PortableGf(lanes, PhantomData)
    }

    /// `self * m + a`, lane-wise (the Horner step).
    #[inline]
    fn mul_add(self, m: Self, a: Self) -> Self {
        self.mul(m).add(a)
    }
}

/// [`horner_lanes_into`] on the portable lanes, tail included (the
/// default [`PrimeField::horner_lanes`]).
pub(crate) fn horner_lanes_portable<P: PrimeField>(
    coeffs: &[Gf<P>],
    lanes: usize,
    degree: usize,
    x: Gf<P>,
    out: &mut [Gf<P>],
) {
    let xs = PortableGf::splat(x);
    let (chunks, _) = out[..lanes].as_chunks_mut::<4>();
    for (c, chunk) in chunks.iter_mut().enumerate() {
        let mut acc = PortableGf::zero();
        for d in (0..=degree).rev() {
            acc = acc.mul_add(xs, PortableGf::load(quad(coeffs, d * lanes + 4 * c)));
        }
        acc.store(chunk);
    }
    horner_tail_scalar(coeffs, lanes, degree, x, out, lanes - lanes % 4);
}

/// [`weighted_sum_rows_into`] on the portable lanes, tail included (the
/// default [`PrimeField::weighted_sum_rows`]).
pub(crate) fn weighted_sum_rows_portable<P: PrimeField>(
    weights: &[Gf<P>],
    slab: &[Gf<P>],
    lanes: usize,
    out: &mut [Gf<P>],
) {
    let (chunks, _) = out[..lanes].as_chunks_mut::<4>();
    for (c, chunk) in chunks.iter_mut().enumerate() {
        let mut acc = PortableGf::zero();
        for (i, &w) in weights.iter().enumerate() {
            let row = PortableGf::load(quad(slab, i * lanes + 4 * c));
            acc = row.mul_add(PortableGf::splat(w), acc);
        }
        acc.store(chunk);
    }
    weighted_tail_scalar(weights, slab, lanes, out, lanes - lanes % 4);
}

// ---------------------------------------------------------------------------
// AVX2 lanes (x86-64, chosen at run time)
// ---------------------------------------------------------------------------

/// The Mersenne-31 AVX2 kernels, behind a token only CPU detection can mint.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_blendv_epi8, _mm256_cmpgt_epi64,
        _mm256_loadu_si256, _mm256_mul_epu32, _mm256_set1_epi64x, _mm256_setzero_si256,
        _mm256_srli_epi64, _mm256_storeu_si256, _mm256_sub_epi64,
    };

    use super::quad;
    use crate::element::Gf31;

    const P: i64 = (1 << 31) - 1;

    /// Proof that the running CPU executes AVX2: the field is private, so
    /// [`Avx2::detect`] is the only constructor.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2(());

    impl Avx2 {
        /// `Some` iff the CPU reports AVX2 (std caches the CPUID probe).
        #[inline]
        pub(crate) fn detect() -> Option<Self> {
            std::arch::is_x86_feature_detected!("avx2").then_some(Avx2(()))
        }

        /// [`super::horner_lanes_into`] on AVX2 lanes, tail included.
        #[inline]
        pub(crate) fn horner_lanes(
            self,
            coeffs: &[Gf31],
            lanes: usize,
            degree: usize,
            x: Gf31,
            out: &mut [Gf31],
        ) {
            // SAFETY: `self` exists only if `detect` found AVX2 on this CPU,
            // which is all `horner_chunks`' target feature requires.
            unsafe { horner_chunks(coeffs, lanes, degree, x, out) };
            super::horner_tail_scalar(coeffs, lanes, degree, x, out, lanes - lanes % 4);
        }

        /// [`super::weighted_sum_rows_into`] on AVX2 lanes, tail included.
        #[inline]
        pub(crate) fn weighted_sum_rows(
            self,
            weights: &[Gf31],
            slab: &[Gf31],
            lanes: usize,
            out: &mut [Gf31],
        ) {
            // SAFETY: as in `horner_lanes`.
            unsafe { weighted_chunks(weights, slab, lanes, out) };
            super::weighted_tail_scalar(weights, slab, lanes, out, lanes - lanes % 4);
        }
    }

    /// Horner over the whole four-lane chunks of `out[..lanes]`. Outside
    /// code compiled for AVX2, calling it needs an `Avx2` token as proof
    /// the CPU has it.
    #[target_feature(enable = "avx2")]
    fn horner_chunks(coeffs: &[Gf31], lanes: usize, degree: usize, x: Gf31, out: &mut [Gf31]) {
        let xs = _mm256_set1_epi64x(x.value() as i64);
        let (chunks, _) = out[..lanes].as_chunks_mut::<4>();
        for (c, chunk) in chunks.iter_mut().enumerate() {
            let mut acc = _mm256_setzero_si256();
            for d in (0..=degree).rev() {
                acc = add(mul(acc, xs), load(quad(coeffs, d * lanes + 4 * c)));
            }
            store(acc, chunk);
        }
    }

    /// Weighted row sums over the whole four-lane chunks of `out[..lanes]`.
    /// Same calling condition as `horner_chunks`.
    #[target_feature(enable = "avx2")]
    fn weighted_chunks(weights: &[Gf31], slab: &[Gf31], lanes: usize, out: &mut [Gf31]) {
        let (chunks, _) = out[..lanes].as_chunks_mut::<4>();
        for (c, chunk) in chunks.iter_mut().enumerate() {
            let mut acc = _mm256_setzero_si256();
            for (i, &w) in weights.iter().enumerate() {
                let row = load(quad(slab, i * lanes + 4 * c));
                acc = add(mul(row, _mm256_set1_epi64x(w.value() as i64)), acc);
            }
            store(acc, chunk);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(src: &[Gf31; 4]) -> __m256i {
        // SAFETY: an unaligned load of exactly the 32 bytes `src` borrows;
        // `Gf` is `repr(transparent)` over its `u64` residue.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(lanes: __m256i, dst: &mut [Gf31; 4]) {
        // SAFETY: an unaligned store of exactly the 32 bytes `dst` borrows;
        // `Gf` is `repr(transparent)` over its `u64` residue, and every
        // lane this module computes is canonical (< p).
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), lanes) }
    }

    /// Lane-wise field addition of canonical residues.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add(a: __m256i, b: __m256i) -> __m256i {
        // a + b ≤ 2p − 2: one conditional subtract canonicalizes.
        canonicalize(_mm256_add_epi64(a, b))
    }

    /// Lane-wise field multiplication of canonical residues.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul(a: __m256i, b: __m256i) -> __m256i {
        let p = _mm256_set1_epi64x(P);
        // Exact 62-bit products of the sub-2^31 residues.
        let prod = _mm256_mul_epu32(a, b);
        // Two folds of 2^31 ≡ 1 (mod p): < 2^62 → < 2^32 → ≤ p + 1.
        let fold1 = _mm256_add_epi64(_mm256_and_si256(prod, p), _mm256_srli_epi64::<31>(prod));
        let fold2 = _mm256_add_epi64(_mm256_and_si256(fold1, p), _mm256_srli_epi64::<31>(fold1));
        canonicalize(fold2)
    }

    /// The canonical representative of `r < 2p` held in 64-bit lanes: `r`
    /// when `r < p`, else `r − p`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn canonicalize(r: __m256i) -> __m256i {
        let p = _mm256_set1_epi64x(P);
        let folded = _mm256_sub_epi64(r, p);
        // Lanes are far below 2^63, so the signed compare is exact.
        let keep = _mm256_cmpgt_epi64(p, r);
        _mm256_blendv_epi8(folded, r, keep)
    }
}

/// Off x86-64 there is no AVX2: the token cannot exist, and every field
/// runs the portable lanes.
#[cfg(not(target_arch = "x86_64"))]
mod avx2 {
    use crate::element::Gf31;

    #[derive(Clone, Copy)]
    pub(crate) enum Avx2 {}

    impl Avx2 {
        pub(crate) fn detect() -> Option<Self> {
            None
        }

        pub(crate) fn horner_lanes(self, _: &[Gf31], _: usize, _: usize, _: Gf31, _: &mut [Gf31]) {
            match self {}
        }

        pub(crate) fn weighted_sum_rows(self, _: &[Gf31], _: &[Gf31], _: usize, _: &mut [Gf31]) {
            match self {}
        }
    }
}

// ---------------------------------------------------------------------------
// The two hot-loop shapes, with scalar tails and scalar oracles
// ---------------------------------------------------------------------------

/// Horner-evaluate `lanes` polynomials held degree-major in `coeffs`
/// (`coeffs[d * lanes + lane]`) at `x`, writing lane results into `out`.
///
/// Whole four-lane chunks keep their accumulator in a vector register
/// across all degrees, on the lanes this CPU runs for `P` (see the module
/// docs); the `lanes % 4` tail runs the scalar oracle's loop, so every
/// lane produces the identical element.
///
/// # Panics
///
/// Panics if `out.len() != lanes` or `coeffs.len() < (degree + 1) * lanes`.
pub fn horner_lanes_into<P: PrimeField>(
    coeffs: &[Gf<P>],
    lanes: usize,
    degree: usize,
    x: Gf<P>,
    out: &mut [Gf<P>],
) {
    assert_eq!(out.len(), lanes, "output must cover all lanes");
    assert!(
        coeffs.len() >= (degree + 1) * lanes,
        "coefficient slab too short"
    );
    P::horner_lanes(coeffs, lanes, degree, x, out);
}

/// Scalar oracle for [`horner_lanes_into`]: the pre-SIMD loop, kept as the
/// reference every lane kernel is proptest-proven identical to.
pub fn horner_lanes_scalar_into<P: PrimeField>(
    coeffs: &[Gf<P>],
    lanes: usize,
    degree: usize,
    x: Gf<P>,
    out: &mut [Gf<P>],
) {
    assert_eq!(out.len(), lanes, "output must cover all lanes");
    assert!(
        coeffs.len() >= (degree + 1) * lanes,
        "coefficient slab too short"
    );
    horner_tail_scalar(coeffs, lanes, degree, x, out, 0);
}

/// Scalar Horner over lanes `from..lanes` (whole loop when `from == 0`).
fn horner_tail_scalar<P: PrimeField>(
    coeffs: &[Gf<P>],
    lanes: usize,
    degree: usize,
    x: Gf<P>,
    out: &mut [Gf<P>],
    from: usize,
) {
    for lane in from..lanes {
        let mut acc = Gf::ZERO;
        for d in (0..=degree).rev() {
            acc = acc * x + coeffs[d * lanes + lane];
        }
        out[lane] = acc;
    }
}

/// Weighted row sum over an x-major slab: `out[lane] = Σᵢ wᵢ ·
/// slab[i * lanes + lane]` — the reconstruction/aggregation kernel.
///
/// Accumulates whole four-lane chunks in vector registers across every
/// row, on the lanes this CPU runs for `P`; the tail lanes run the scalar
/// loop.
///
/// # Panics
///
/// Panics if `out.len() != lanes` or `slab.len() < weights.len() * lanes`.
pub fn weighted_sum_rows_into<P: PrimeField>(
    weights: &[Gf<P>],
    slab: &[Gf<P>],
    lanes: usize,
    out: &mut [Gf<P>],
) {
    assert_eq!(out.len(), lanes, "output must cover all lanes");
    assert!(
        slab.len() >= weights.len() * lanes,
        "share slab shorter than weights × lanes"
    );
    P::weighted_sum_rows(weights, slab, lanes, out);
}

/// Scalar weighted sums over lanes `from..lanes`.
fn weighted_tail_scalar<P: PrimeField>(
    weights: &[Gf<P>],
    slab: &[Gf<P>],
    lanes: usize,
    out: &mut [Gf<P>],
    from: usize,
) {
    for l in from..lanes {
        let mut acc = Gf::ZERO;
        for (i, &w) in weights.iter().enumerate() {
            acc += slab[i * lanes + l] * w;
        }
        out[l] = acc;
    }
}

/// Scalar oracle for [`weighted_sum_rows_into`]: row-major accumulation,
/// exactly the pre-SIMD reconstruction loop.
pub fn weighted_sum_rows_scalar_into<P: PrimeField>(
    weights: &[Gf<P>],
    slab: &[Gf<P>],
    lanes: usize,
    out: &mut [Gf<P>],
) {
    assert_eq!(out.len(), lanes, "output must cover all lanes");
    assert!(
        slab.len() >= weights.len() * lanes,
        "share slab shorter than weights × lanes"
    );
    if lanes == 0 {
        return; // zero lanes: nothing to accumulate (chunks(0) would panic)
    }
    out.fill(Gf::ZERO);
    for (&w, row) in weights.iter().zip(slab.chunks(lanes)) {
        for (acc, &y) in out.iter_mut().zip(row) {
            *acc += y * w;
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::RngCore;

    use super::*;
    use crate::element::{Gf31, Gf61, Mersenne31, Mersenne61};
    use crate::SplitMix64;

    type Horner<P> = fn(&[Gf<P>], usize, usize, Gf<P>, &mut [Gf<P>]);
    type Weighted<P> = fn(&[Gf<P>], &[Gf<P>], usize, &mut [Gf<P>]);

    /// A named pair of Horner and weighted-sum kernels.
    struct Path<P: PrimeField> {
        name: &'static str,
        horner: Horner<P>,
        weighted: Weighted<P>,
    }

    impl<P: PrimeField> Path<P> {
        fn horner(&self, coeffs: &[Gf<P>], lanes: usize, degree: usize, x: Gf<P>) -> Vec<Gf<P>> {
            let mut out = vec![Gf::ZERO; lanes];
            (self.horner)(coeffs, lanes, degree, x, &mut out);
            out
        }

        fn weighted(&self, weights: &[Gf<P>], slab: &[Gf<P>], lanes: usize) -> Vec<Gf<P>> {
            let mut out = vec![Gf::ZERO; lanes];
            (self.weighted)(weights, slab, lanes, &mut out);
            out
        }
    }

    /// Every path this build can run for `P`, the scalar oracles first,
    /// then the portable lanes and the public entry points (which dispatch
    /// on the CPU).
    fn paths<P: PrimeField>() -> Vec<Path<P>> {
        vec![
            Path {
                name: "scalar oracle",
                horner: horner_lanes_scalar_into::<P>,
                weighted: weighted_sum_rows_scalar_into::<P>,
            },
            Path {
                name: "portable",
                horner: horner_lanes_portable::<P>,
                weighted: weighted_sum_rows_portable::<P>,
            },
            Path {
                name: "dispatched",
                horner: horner_lanes_into::<P>,
                weighted: weighted_sum_rows_into::<P>,
            },
        ]
    }

    /// [`paths`] for Mersenne-31, plus the AVX2 lanes when the CPU has
    /// them. Without AVX2 that arm is skipped, not failed.
    fn m31_paths() -> Vec<Path<Mersenne31>> {
        let mut paths = paths();
        if Avx2::detect().is_some() {
            paths.push(Path {
                name: "avx2",
                horner: |coeffs, lanes, degree, x, out| {
                    let avx2 = Avx2::detect().expect("checked above");
                    avx2.horner_lanes(coeffs, lanes, degree, x, out)
                },
                weighted: |weights, slab, lanes, out| {
                    let avx2 = Avx2::detect().expect("checked above");
                    avx2.weighted_sum_rows(weights, slab, lanes, out)
                },
            });
        }
        paths
    }

    /// Every path after the first agrees with it on one Horner input.
    fn agree_horner<P: PrimeField>(
        paths: &[Path<P>],
        coeffs: &[Gf<P>],
        lanes: usize,
        degree: usize,
        x: Gf<P>,
    ) -> Result<(), TestCaseError> {
        let want = paths[0].horner(coeffs, lanes, degree, x);
        for path in &paths[1..] {
            prop_assert!(
                path.horner(coeffs, lanes, degree, x) == want,
                "{}: Horner differs from {} at lanes={lanes} degree={degree}",
                path.name,
                paths[0].name
            );
        }
        Ok(())
    }

    /// Every path after the first agrees with it on one weighted-sum input.
    fn agree_weighted<P: PrimeField>(
        paths: &[Path<P>],
        weights: &[Gf<P>],
        slab: &[Gf<P>],
        lanes: usize,
    ) -> Result<(), TestCaseError> {
        let want = paths[0].weighted(weights, slab, lanes);
        for path in &paths[1..] {
            prop_assert!(
                path.weighted(weights, slab, lanes) == want,
                "{}: weighted sum differs from {} at lanes={lanes} rows={}",
                path.name,
                paths[0].name,
                weights.len()
            );
        }
        Ok(())
    }

    /// `n` residues: uniform when `pin` is 0, all p − 1 or all p − 2 when it
    /// is 1 or 2, and each one drawn from those three when it is 3.
    fn residues<P: PrimeField>(rng: &mut SplitMix64, n: usize, pin: u64) -> Vec<Gf<P>> {
        (0..n)
            .map(|_| {
                let pick = if pin < 3 { pin } else { rng.next_u64() % 3 };
                if pick == 0 {
                    Gf::random(rng)
                } else {
                    Gf::new(P::MODULUS - pick)
                }
            })
            .collect()
    }

    fn random<P: PrimeField>(rng: &mut SplitMix64, n: usize) -> Vec<Gf<P>> {
        residues(rng, n, 0)
    }

    /// Draw one Horner and one weighted-sum input of `P` from `seed` and
    /// check every path on them.
    fn agree_on_draw<P: PrimeField>(
        paths: &[Path<P>],
        (lanes, degree, rows): (usize, usize, usize),
        pin: u64,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut rng = SplitMix64::new(seed);
        let x = residues(&mut rng, 1, pin)[0];
        let coeffs = residues(&mut rng, (degree + 1) * lanes, pin);
        agree_horner(paths, &coeffs, lanes, degree, x)?;
        let weights = residues(&mut rng, rows, pin);
        let slab = residues(&mut rng, rows * lanes, pin);
        agree_weighted(paths, &weights, &slab, lanes)
    }

    /// Lane-wise sums, products and fused multiply-adds through every
    /// path, against the scalar operators: rows `a` and `b` under weights
    /// 1 and 1 add, row `a` under weight `w` multiplies, and Horner at
    /// degree 1 over coefficients `b`, `a` at `w` is `a · w + b`.
    fn assert_lane_ops<P: PrimeField>(paths: &[Path<P>], a: &[Gf<P>], b: &[Gf<P>], w: Gf<P>) {
        let lanes = a.len();
        let rows = [a, b].concat();
        let coeffs = [b, a].concat();
        for path in paths {
            let name = path.name;
            let sum = path.weighted(&[Gf::ONE, Gf::ONE], &rows, lanes);
            let prod = path.weighted(&[w], a, lanes);
            let fused = path.horner(&coeffs, lanes, 1, w);
            for i in 0..lanes {
                assert_eq!(sum[i], a[i] + b[i], "{name}: add lane {i}");
                assert_eq!(prod[i], a[i] * w, "{name}: mul lane {i}");
                assert_eq!(fused[i], a[i] * w + b[i], "{name}: mul_add lane {i}");
            }
        }
    }

    proptest! {
        /// AVX2 (when the CPU has it), the portable lanes, the dispatched
        /// entry points and the scalar oracles agree on Horner and weighted
        /// sums over both fields, at lane counts with and without tails and
        /// at uniform and worst-case residues.
        #[test]
        fn every_lane_kernel_matches_the_scalar_oracle(
            lanes in 0usize..=80,
            degree in 0usize..=9,
            rows in 0usize..=12,
            pin in 0u64..4,
            seed in any::<u64>(),
        ) {
            let shape = (lanes, degree, rows);
            agree_on_draw(&m31_paths(), shape, pin, seed)?;
            agree_on_draw(&paths::<Mersenne61>(), shape, pin, seed)?;
        }
    }

    #[test]
    fn packed_add_mul_match_scalar_lanewise() {
        let mut rng = SplitMix64::new(0xACED);
        let (m31, m61) = (m31_paths(), paths::<Mersenne61>());
        for _ in 0..200 {
            let w = Gf31::random(&mut rng);
            assert_lane_ops(&m31, &random(&mut rng, 4), &random(&mut rng, 4), w);
            let w = Gf61::random(&mut rng);
            assert_lane_ops(&m61, &random(&mut rng, 4), &random(&mut rng, 4), w);
        }
    }

    #[test]
    fn packed_extremes_reduce_correctly() {
        // p−1 is the worst case for every fold and conditional subtract.
        let top31 = Gf31::new(Gf31::modulus() - 1);
        assert_lane_ops(&m31_paths(), &[top31; 4], &[top31; 4], top31);
        let top61 = Gf61::new(Gf61::modulus() - 1);
        assert_lane_ops(&paths::<Mersenne61>(), &[top61; 4], &[top61; 4], top61);
    }

    #[test]
    fn portable_backend_matches_build_backend() {
        // The portable lanes against the lanes this build picks at run
        // time for Mersenne-31 (AVX2 when the CPU has it), over three
        // whole chunks.
        let paths = &m31_paths()[1..];
        let mut rng = SplitMix64::new(0xBEEF);
        for _ in 0..200 {
            let coeffs = random(&mut rng, 3 * 12);
            agree_horner(paths, &coeffs, 12, 2, Gf31::random(&mut rng)).unwrap();
            agree_weighted(paths, &coeffs[..3], &coeffs, 12).unwrap();
        }
    }

    #[test]
    fn horner_matches_oracle_including_tails() {
        let mut rng = SplitMix64::new(0x40E);
        let paths = m31_paths();
        for lanes in [0usize, 1, 3, 4, 5, 7, 8, 11, 16, 23] {
            for degree in [0usize, 1, 2, 5] {
                let coeffs = random(&mut rng, (degree + 1) * lanes);
                let x = Gf31::random(&mut rng);
                agree_horner(&paths, &coeffs, lanes, degree, x).unwrap();
            }
        }
    }

    #[test]
    fn weighted_sum_matches_oracle_including_tails() {
        let mut rng = SplitMix64::new(0x5EED);
        let paths = m31_paths();
        for lanes in [0usize, 1, 2, 3, 5, 6, 9, 13, 16] {
            for rows in [0usize, 1, 3, 7] {
                let weights = random(&mut rng, rows);
                let slab = random(&mut rng, rows * lanes);
                agree_weighted(&paths, &weights, &slab, lanes).unwrap();
            }
        }
    }

    #[test]
    fn m61_kernels_match_oracles() {
        let mut rng = SplitMix64::new(0x61);
        let paths = paths::<Mersenne61>();
        let coeffs = random(&mut rng, 4 * 7);
        agree_horner(&paths, &coeffs, 7, 3, Gf61::random(&mut rng)).unwrap();
        agree_weighted(&paths, &random(&mut rng, 4), &coeffs, 7).unwrap();
    }

    #[test]
    fn backend_is_named_and_sized() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        let m31 = if avx2 { "avx2" } else { "portable" };
        assert_eq!(backend_name::<Mersenne31>(), m31);
        assert_eq!(backend_name::<Mersenne61>(), "portable");
    }

    #[test]
    fn splat_rng_state_is_untouched() {
        // Packed evaluation draws no randomness: RNG-order invariance of
        // the callers reduces to "these kernels never touch an RNG", which
        // the signatures already guarantee; this pins the weaker dynamic
        // fact that a round of packed math leaves a shared RNG untouched.
        let mut rng = SplitMix64::new(1);
        let before = rng.next_u64();
        let mut rng2 = SplitMix64::new(1);
        let coeffs = random::<Mersenne31>(&mut SplitMix64::new(9), 8);
        let mut out = vec![Gf31::ZERO; 4];
        horner_lanes_into(&coeffs, 4, 1, Gf31::new(3), &mut out);
        assert_eq!(before, rng2.next_u64());
    }
}
