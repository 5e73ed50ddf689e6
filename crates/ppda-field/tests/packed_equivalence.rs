//! Property suite: the public lane kernels, on the lanes this CPU runs
//! (AVX2 for Mersenne-31 when the CPU has it, else portable), are
//! bit-identical to the scalar operators and oracles: lane-wise add, mul
//! and mul_add, Horner evaluation and weighted sums, at lane counts that
//! force `lanes % 4 != 0` tails. The crate's unit tests check every path
//! against the others in one build. Replayed in CI under
//! `PROPTEST_SEED=1` like the fault suite.

use proptest::prelude::*;

use ppda_field::packed::{
    horner_lanes_into, horner_lanes_scalar_into, weighted_sum_rows_into,
    weighted_sum_rows_scalar_into,
};
use ppda_field::{Gf, Gf31, Mersenne31, PolyBatch, PrimeField, SplitMix64};

fn gf31() -> impl Strategy<Value = Gf31> {
    any::<u64>().prop_map(Gf31::new)
}

/// Lane-wise add, mul and mul_add through the kernels versus the scalar
/// operators, generically over the field: the first half of `values` is
/// lane vector `a`, the second `b`. Rows `a` and `b` under weights 1 and 1
/// add; row `a` under weight `w` multiplies every lane by `w`; Horner at
/// degree 1 over coefficients `b`, `a` at `w` is `a · w + b`. Every lane of
/// `b` serves as `w` once.
fn lanes_match_scalar<P: PrimeField>(values: Vec<Gf<P>>) {
    let lanes = values.len() / 2;
    let (a, b) = (&values[..lanes], &values[lanes..2 * lanes]);
    let mut sum = vec![Gf::ZERO; lanes];
    weighted_sum_rows_into(&[Gf::ONE, Gf::ONE], &[a, b].concat(), lanes, &mut sum);
    let coeffs = [b, a].concat();
    let mut prod = vec![Gf::ZERO; lanes];
    let mut fused = vec![Gf::ZERO; lanes];
    for &w in b {
        weighted_sum_rows_into(&[w], a, lanes, &mut prod);
        horner_lanes_into(&coeffs, lanes, 1, &[w], &mut fused);
        for i in 0..lanes {
            assert_eq!(prod[i], a[i] * w, "mul lane {i}");
            assert_eq!(fused[i], a[i] * w + b[i], "mul_add lane {i}");
        }
    }
    for i in 0..lanes {
        assert_eq!(sum[i], a[i] + b[i], "add lane {i}");
    }
}

proptest! {
    // ---- Lane arithmetic ≡ scalar operators ----

    #[test]
    fn m31_lanes_match_scalar(values in prop::collection::vec(gf31(), 8..16)) {
        lanes_match_scalar::<Mersenne31>(values);
    }

    #[test]
    fn m31_worst_case_residues(offset_a in 0u64..4, offset_b in 0u64..4) {
        // Residues pinned next to p − 1 stress every fold and subtract.
        let p = Gf31::modulus();
        let a = vec![Gf31::new(p - 1 - offset_a); 8];
        let b = vec![Gf31::new(p - 1 - offset_b); 8];
        lanes_match_scalar::<Mersenne31>([a, b].concat());
    }

    // ---- Horner over lanes ≡ scalar oracle (odd lane counts → tails) ----

    #[test]
    fn m31_horner_packed_equals_scalar(
        lanes in 0usize..26,
        degree in 0usize..7,
        seed in any::<u64>(),
        xs in prop::collection::vec(gf31(), 0..20),
    ) {
        // Every point of one all-points call against the oracle at it.
        let mut rng = SplitMix64::new(seed);
        let coeffs: Vec<Gf31> = (0..(degree + 1) * lanes)
            .map(|_| Gf31::random(&mut rng))
            .collect();
        let mut fast = vec![Gf31::ZERO; xs.len() * lanes];
        horner_lanes_into(&coeffs, lanes, degree, &xs, &mut fast);
        let mut slow = vec![Gf31::ZERO; lanes];
        for (i, &x) in xs.iter().enumerate() {
            horner_lanes_scalar_into(&coeffs, lanes, degree, x, &mut slow);
            prop_assert_eq!(&fast[i * lanes..(i + 1) * lanes], &slow[..]);
        }
    }

    // ---- Weighted sums ≡ scalar oracle ----

    #[test]
    fn m31_weighted_sum_packed_equals_scalar(
        lanes in 0usize..26,
        rows in 0usize..9,
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let weights: Vec<Gf31> = (0..rows).map(|_| Gf31::random(&mut rng)).collect();
        let slab: Vec<Gf31> = (0..rows * lanes).map(|_| Gf31::random(&mut rng)).collect();
        let mut fast = vec![Gf31::ZERO; lanes];
        let mut slow = vec![Gf31::ZERO; lanes];
        weighted_sum_rows_into(&weights, &slab, lanes, &mut fast);
        weighted_sum_rows_scalar_into(&weights, &slab, lanes, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    // ---- The consuming API end to end: PolyBatch stays lane-exact ----

    #[test]
    fn poly_batch_eval_equals_lane_polynomials_at_odd_widths(
        lanes in 1usize..24,
        degree in 0usize..6,
        seed in any::<u64>(),
        x in gf31(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let secrets: Vec<Gf31> = (0..lanes).map(|i| Gf31::new(i as u64)).collect();
        let batch = PolyBatch::<Mersenne31>::random_with_constants(&secrets, degree, &mut rng);
        let mut out = vec![Gf31::ZERO; lanes];
        batch.eval_at_into(x, &mut out);
        for (lane, &got) in out.iter().enumerate() {
            prop_assert_eq!(got, batch.lane_poly(lane).eval(x));
        }
    }
}
