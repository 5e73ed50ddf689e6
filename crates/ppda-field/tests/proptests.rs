//! Property-based tests: field axioms, polynomial identities and
//! interpolation round-trips over the provided field.

use proptest::prelude::*;

use ppda_field::{lagrange, Gf31, Mersenne31, Polynomial, SplitMix64};

fn gf31() -> impl Strategy<Value = Gf31> {
    any::<u64>().prop_map(Gf31::new)
}

proptest! {
    // ---- Field axioms over M31 ----

    #[test]
    fn add_commutative(a in gf31(), b in gf31()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn add_associative(a in gf31(), b in gf31(), c in gf31()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn mul_commutative(a in gf31(), b in gf31()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn mul_associative(a in gf31(), b in gf31(), c in gf31()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn distributive(a in gf31(), b in gf31(), c in gf31()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn additive_identity(a in gf31()) {
        prop_assert_eq!(a + Gf31::ZERO, a);
    }

    #[test]
    fn multiplicative_identity(a in gf31()) {
        prop_assert_eq!(a * Gf31::ONE, a);
    }

    #[test]
    fn additive_inverse(a in gf31()) {
        prop_assert_eq!(a + (-a), Gf31::ZERO);
    }

    #[test]
    fn multiplicative_inverse(a in gf31()) {
        if !a.is_zero() {
            prop_assert_eq!(a * a.inverse().unwrap(), Gf31::ONE);
        }
    }

    #[test]
    fn sub_then_add_round_trips(a in gf31(), b in gf31()) {
        prop_assert_eq!(a - b + b, a);
    }

    #[test]
    fn div_then_mul_round_trips(a in gf31(), b in gf31()) {
        if !b.is_zero() {
            prop_assert_eq!(a / b * b, a);
        }
    }

    #[test]
    fn pow_adds_exponents(a in gf31(), e1 in 0u64..64, e2 in 0u64..64) {
        prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
    }

    #[test]
    fn bytes_round_trip_m31(a in gf31()) {
        prop_assert_eq!(Gf31::from_bytes(&a.to_bytes()), Some(a));
    }

    // ---- Polynomial identities ----

    #[test]
    fn poly_add_pointwise(
        cs1 in prop::collection::vec(any::<u64>(), 0..8),
        cs2 in prop::collection::vec(any::<u64>(), 0..8),
        x in gf31(),
    ) {
        let p1 = Polynomial::<Mersenne31>::new(cs1.into_iter().map(Gf31::new).collect());
        let p2 = Polynomial::<Mersenne31>::new(cs2.into_iter().map(Gf31::new).collect());
        prop_assert_eq!(p1.add(&p2).eval(x), p1.eval(x) + p2.eval(x));
    }

    #[test]
    fn poly_mul_pointwise(
        cs1 in prop::collection::vec(any::<u64>(), 0..6),
        cs2 in prop::collection::vec(any::<u64>(), 0..6),
        x in gf31(),
    ) {
        let p1 = Polynomial::<Mersenne31>::new(cs1.into_iter().map(Gf31::new).collect());
        let p2 = Polynomial::<Mersenne31>::new(cs2.into_iter().map(Gf31::new).collect());
        prop_assert_eq!(p1.mul(&p2).eval(x), p1.eval(x) * p2.eval(x));
    }

    #[test]
    fn poly_scale_pointwise(
        cs in prop::collection::vec(any::<u64>(), 0..8),
        s in gf31(),
        x in gf31(),
    ) {
        let p = Polynomial::<Mersenne31>::new(cs.into_iter().map(Gf31::new).collect());
        prop_assert_eq!(p.scale(s).eval(x), p.eval(x) * s);
    }

    // ---- Interpolation round trips ----

    #[test]
    fn interpolation_recovers_secret(
        secret in any::<u64>(),
        degree in 0usize..12,
        seed in any::<u64>(),
        extra in 0usize..8,
    ) {
        let mut rng = SplitMix64::new(seed);
        let secret = Gf31::new(secret);
        let poly = Polynomial::<Mersenne31>::random_with_constant(secret, degree, &mut rng);
        let m = degree + 1 + extra;
        let points: Vec<(Gf31, Gf31)> = (1..=m as u64)
            .map(|x| (Gf31::new(x), poly.eval(Gf31::new(x))))
            .collect();
        // Exactly degree+1 points suffice.
        prop_assert_eq!(
            lagrange::interpolate_at_zero(&points[..degree + 1]).unwrap(),
            secret
        );
        // The full set is consistent with the degree bound.
        prop_assert!(lagrange::consistent_with_degree(&points, degree).unwrap());
    }

    #[test]
    fn interpolation_recovers_full_polynomial(
        degree in 0usize..10,
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let poly = Polynomial::<Mersenne31>::random_with_constant(
            Gf31::random(&mut rng), degree, &mut rng);
        let points: Vec<(Gf31, Gf31)> = (1..=degree as u64 + 1)
            .map(|x| (Gf31::new(x), poly.eval(Gf31::new(x))))
            .collect();
        prop_assert_eq!(lagrange::interpolate(&points).unwrap(), poly);
    }

    #[test]
    fn batch_invert_matches_individual(
        seeds in prop::collection::vec(1u64..u64::MAX, 1..40),
    ) {
        let values: Vec<Gf31> = seeds
            .into_iter()
            .map(|s| {
                let v = Gf31::new(s);
                if v.is_zero() { Gf31::ONE } else { v }
            })
            .collect();
        let batch = lagrange::batch_invert(&values);
        for (v, inv) in values.iter().zip(&batch) {
            prop_assert_eq!(v.inverse().unwrap(), *inv);
        }
    }

    // ---- Batched polynomial evaluation vs the scalar path ----

    #[test]
    fn poly_batch_equals_sequential_scalar_polynomials(
        // Lane counts past the four-lane chunk width so the SIMD tail
        // (`lanes % 4 != 0`) is exercised against the scalar oracle, odd
        // counts included.
        secrets in prop::collection::vec(0u64..1_000_000, 1..26),
        degree in 0usize..6,
        seed in any::<u64>(),
        xs in prop::collection::vec(1u64..100_000, 1..10),
    ) {
        let constants: Vec<Gf31> = secrets.iter().map(|&s| Gf31::new(s)).collect();
        let points: Vec<Gf31> = xs.iter().map(|&x| Gf31::new(x)).collect();

        // Same RNG, drawn lane-major: the batch IS the scalar sequence.
        let mut rng_batch = SplitMix64::new(seed);
        let batch = ppda_field::PolyBatch::<Mersenne31>::random_with_constants(
            &constants, degree, &mut rng_batch);
        let slab = batch.eval_many(&points);

        let mut rng_scalar = SplitMix64::new(seed);
        for (lane, &c) in constants.iter().enumerate() {
            let poly = Polynomial::<Mersenne31>::random_with_constant(c, degree, &mut rng_scalar);
            for (i, &x) in points.iter().enumerate() {
                prop_assert_eq!(slab[i * constants.len() + lane], poly.eval(x));
            }
        }
    }

    #[test]
    fn write_bytes_is_to_bytes(v in any::<u64>()) {
        let a = Gf31::new(v);
        let mut buf = [0u8; 8];
        a.write_bytes(&mut buf);
        prop_assert_eq!(&buf[..4], &*a.to_bytes());
    }

    // ---- The SSS aggregation identity end-to-end in field land ----

    #[test]
    fn sum_of_shares_reconstructs_sum_of_secrets(
        secrets in prop::collection::vec(0u64..1_000_000, 1..10),
        degree in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let n = 12usize; // share holders
        let polys: Vec<Polynomial<Mersenne31>> = secrets
            .iter()
            .map(|&s| Polynomial::random_with_constant(Gf31::new(s), degree, &mut rng))
            .collect();
        // Each holder j sums the evaluations it receives.
        let sums: Vec<(Gf31, Gf31)> = (0..n)
            .map(|j| {
                let x = ppda_field::share_x::<Mersenne31>(j);
                let sum: Gf31 = polys.iter().map(|p| p.eval(x)).sum();
                (x, sum)
            })
            .collect();
        let expected = Gf31::new(secrets.iter().sum());
        // Any degree+1 of the sums reconstruct the aggregate.
        prop_assert_eq!(
            lagrange::interpolate_at_zero(&sums[..degree + 1]).unwrap(),
            expected
        );
        prop_assert_eq!(
            lagrange::interpolate_at_zero(&sums[n - degree - 1..]).unwrap(),
            expected
        );
    }
}
