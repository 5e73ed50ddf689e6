//! Criterion micro-benchmarks for the computational primitives the
//! protocols assume cheap: field arithmetic, Lagrange reconstruction,
//! AES-128/CCM, share generation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use ppda_crypto::{Aes128, Ccm, CtrDrbg, PairwiseKeys};
use ppda_field::{lagrange, share_x, Gf31, Mersenne31, Polynomial};
use ppda_sim::Xoshiro256;
use ppda_sss::{reconstruct, split_secret, Share};

fn bench_field(c: &mut Criterion) {
    let mut group = c.benchmark_group("field");
    let a = Gf31::new(1_234_567_890);
    let b = Gf31::new(987_654_321);
    group.bench_function("mul", |bench| bench.iter(|| black_box(a) * black_box(b)));
    group.bench_function("add", |bench| bench.iter(|| black_box(a) + black_box(b)));
    group.bench_function("inverse", |bench| {
        bench.iter(|| black_box(a).inverse().unwrap())
    });
    group.bench_function("pow", |bench| bench.iter(|| black_box(a).pow(1 << 30)));
    group.finish();
}

fn bench_poly(c: &mut Criterion) {
    let mut group = c.benchmark_group("polynomial");
    let mut rng = Xoshiro256::seed_from(1);
    for degree in [8usize, 15] {
        let poly = Polynomial::<Mersenne31>::random_with_constant(Gf31::new(42), degree, &mut rng);
        group.bench_function(format!("eval/degree-{degree}"), |bench| {
            bench.iter(|| poly.eval(black_box(Gf31::new(17))))
        });
    }
    group.finish();
}

fn bench_lagrange(c: &mut Criterion) {
    let mut group = c.benchmark_group("lagrange");
    let mut rng = Xoshiro256::seed_from(2);
    // The two reconstruction sizes used on the testbeds: k+1 = 9 and 16.
    for m in [9usize, 16, 46] {
        let poly = Polynomial::<Mersenne31>::random_with_constant(Gf31::new(5), m - 1, &mut rng);
        let points: Vec<(Gf31, Gf31)> = (0..m)
            .map(|i| {
                let x = share_x::<Mersenne31>(i);
                (x, poly.eval(x))
            })
            .collect();
        group.bench_function(format!("interpolate_at_zero/{m}"), |bench| {
            bench.iter(|| lagrange::interpolate_at_zero(black_box(&points)).unwrap())
        });
    }
    let values: Vec<Gf31> = (1..=32).map(Gf31::new).collect();
    group.bench_function("batch_invert/32", |bench| {
        bench.iter(|| lagrange::batch_invert(black_box(&values)))
    });
    group.finish();
}

fn bench_packed(c: &mut Criterion) {
    // The lane kernels the batched hot path runs through, on the lanes
    // this CPU runs, against the scalar oracle. AVX2 is picked at run time
    // when the CPU has it, so no build flag is needed; the group name
    // records which lanes ran.
    use ppda_field::packed;
    let mut group = c.benchmark_group(format!("packed[{}]", packed::backend_name::<Mersenne31>()));
    let mut rng = Xoshiro256::seed_from(7);
    let lanes = 16usize;
    let degree = 8usize;
    let coeffs: Vec<Gf31> = (0..(degree + 1) * lanes)
        .map(|_| Gf31::random(&mut rng))
        .collect();
    let x = Gf31::new(17);
    let mut out = vec![Gf31::new(0); lanes];
    group.bench_function("horner_lanes/b16-d8", |bench| {
        bench.iter(|| packed::horner_lanes_into(black_box(&coeffs), lanes, degree, x, &mut out))
    });
    group.bench_function("horner_lanes_scalar/b16-d8", |bench| {
        bench.iter(|| {
            packed::horner_lanes_scalar_into(black_box(&coeffs), lanes, degree, x, &mut out)
        })
    });
    let rows = 9usize;
    let weights: Vec<Gf31> = (0..rows).map(|_| Gf31::random(&mut rng)).collect();
    let slab: Vec<Gf31> = (0..rows * lanes).map(|_| Gf31::random(&mut rng)).collect();
    group.bench_function("weighted_sum/r9-b16", |bench| {
        bench.iter(|| packed::weighted_sum_rows_into(black_box(&weights), &slab, lanes, &mut out))
    });
    group.bench_function("weighted_sum_scalar/r9-b16", |bench| {
        bench.iter(|| {
            packed::weighted_sum_rows_scalar_into(black_box(&weights), &slab, lanes, &mut out)
        })
    });
    group.finish();
}

fn bench_aes(c: &mut Criterion) {
    let mut group = c.benchmark_group("aes");
    let aes = Aes128::new(&[7u8; 16]);
    let block = [0x42u8; 16];
    group.bench_function("key_schedule", |bench| {
        bench.iter(|| Aes128::new(black_box(&[7u8; 16])))
    });
    group.bench_function("encrypt_block", |bench| {
        bench.iter(|| aes.encrypt_block(black_box(&block)))
    });
    group.bench_function("encrypt_block_reference", |bench| {
        bench.iter(|| aes.encrypt_block_reference(black_box(&block)))
    });
    group.bench_function("decrypt_block", |bench| {
        bench.iter(|| aes.decrypt_block(black_box(&block)))
    });
    let mut buf = vec![0u8; 1024];
    group.bench_function("ctr_bulk_1k", |bench| {
        bench.iter(|| {
            let mut counter = [0u8; 16];
            ppda_crypto::ctr::xor_keystream_bulk(&aes, &mut counter, black_box(&mut buf));
        })
    });
    group.finish();
}

fn bench_ccm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ccm");
    let ccm = Ccm::new([9u8; 16], 4).unwrap();
    let nonce = Ccm::nonce(1, 2, 3, 4);
    // A share packet payload: 4 bytes.
    let sealed = ccm.seal(&nonce, b"hdr", &[1, 2, 3, 4]).unwrap();
    group.bench_function("seal_share", |bench| {
        bench.iter(|| ccm.seal(black_box(&nonce), b"hdr", &[1, 2, 3, 4]).unwrap())
    });
    group.bench_function("open_share", |bench| {
        bench.iter(|| ccm.open(black_box(&nonce), b"hdr", &sealed).unwrap())
    });
    group.finish();
}

fn bench_sss(c: &mut Criterion) {
    let mut group = c.benchmark_group("sss");
    let xs9: Vec<Gf31> = (0..9).map(share_x::<Mersenne31>).collect();
    let xs16: Vec<Gf31> = (0..16).map(share_x::<Mersenne31>).collect();
    group.bench_function("split/k8-n9", |bench| {
        bench.iter_batched(
            || Xoshiro256::seed_from(3),
            |mut rng| split_secret(Gf31::new(42), 8, &xs9, &mut rng).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("split/k15-n16", |bench| {
        bench.iter_batched(
            || Xoshiro256::seed_from(3),
            |mut rng| split_secret(Gf31::new(42), 15, &xs16, &mut rng).unwrap(),
            BatchSize::SmallInput,
        )
    });
    let secrets16: Vec<Gf31> = (0..16).map(|i| Gf31::new(42 + i)).collect();
    group.bench_function("split_batch16/k8-n9", |bench| {
        bench.iter_batched(
            || Xoshiro256::seed_from(3),
            |mut rng| ppda_sss::split_secret_batch(&secrets16, 8, &xs9, &mut rng).unwrap(),
            BatchSize::SmallInput,
        )
    });
    let mut rng = Xoshiro256::seed_from(4);
    let shares: Vec<Share<Mersenne31>> = split_secret(Gf31::new(42), 8, &xs9, &mut rng).unwrap();
    group.bench_function("reconstruct/k8", |bench| {
        bench.iter(|| reconstruct(black_box(&shares)).unwrap())
    });
    group.finish();
}

fn bench_keys(c: &mut Criterion) {
    let mut group = c.benchmark_group("bootstrap");
    group.bench_function("pairwise_derive/45", |bench| {
        bench.iter(|| PairwiseKeys::derive(black_box(&[1u8; 16]), 45))
    });
    let mut drbg = CtrDrbg::new([2u8; 16], b"bench");
    group.bench_function("drbg_u64", |bench| {
        bench.iter(|| rand::RngCore::next_u64(&mut drbg))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_field,
    bench_poly,
    bench_packed,
    bench_lagrange,
    bench_aes,
    bench_ccm,
    bench_sss,
    bench_keys
);
criterion_main!(benches);
