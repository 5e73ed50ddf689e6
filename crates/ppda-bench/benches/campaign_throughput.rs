//! Criterion benchmarks for campaign throughput: wall-clock cost of one
//! executed round at the testbed operating points, scalar vs batched.
//!
//! The bench isolates the single-round cost the batching work targets:
//! per-round crypto (AES on AES-NI when the CPU has it, else the T-table
//! path; cached CCM contexts; one seal per (source, destination) carrying
//! all B lanes) plus the MiniCast transport simulation. B = 64 sits past
//! the 23-lane single-frame cap, so its packets span three frames each;
//! `config_wide` enables that fragmentation and changes nothing at the
//! narrower widths. End-to-end throughput over whole campaigns is
//! perfbench's job (`BENCHMARK.json`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ppda_bench::{Protocol, TestbedSetup};
use ppda_mpc::Deployment;

fn bench_round_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_throughput");
    for (setup, sources) in [
        (TestbedSetup::flocklab(), 3usize),
        (TestbedSetup::flocklab(), 24),
        (TestbedSetup::dcube(), 5),
    ] {
        let topology = setup.topology();
        for batch in [1usize, 16, 64] {
            let config = setup
                .config_wide(sources, batch)
                .expect("operating point is valid");
            let deployment = Deployment::builder()
                .topology_ref(&topology)
                .config(config.clone())
                .protocol(Protocol::S4)
                .build()
                .expect("deployment compiles");
            let mut driver = deployment.driver();
            let mut seed = 0u64;
            group.bench_function(
                format!("S4/{}-{}src/batch-{}", setup.name, sources, batch),
                |bench| {
                    bench.iter(|| {
                        seed = seed.wrapping_add(1);
                        black_box(driver.round_at(config.round_id, seed).expect("round runs"))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_round_throughput);
criterion_main!(benches);
