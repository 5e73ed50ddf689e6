//! Criterion benchmarks for the campaign engine's scheduler: the cost of
//! advancing a many-deployment fleet, across worker counts and span
//! chunk sizes.
//!
//! The bench isolates two scheduler knobs on a small fixed fleet, so
//! regressions in the dispatch path itself (span dealing, deque locking,
//! stealing, metrics merges) show up without an hour of wall clock. A
//! mixed fleet under faults and churn, timed end to end, is perfbench's
//! `fleet_churn_lossy` workload (`BENCHMARK.json`).
//!
//! * `workers/*` — same fleet, growing pool. On a single-core host the
//!   multi-worker points measure scheduling overhead, not speedup.
//! * `chunk/*` — same fleet and pool, varying rounds-per-span: small
//!   spans stress the queues, large spans amortize per-span driver
//!   setup.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ppda_mpc::ProtocolConfig;
use ppda_service::{CampaignEngine, DeploymentSpec};
use ppda_topology::Topology;

/// A small fleet: `n` deployments on 3×3 grids with distinct seeds.
fn fleet(n: u64) -> Vec<DeploymentSpec> {
    (0..n)
        .map(|site| {
            let topology = Topology::grid(3, 3, 15.0, 9 + site);
            let config = ProtocolConfig::builder(topology.len())
                .sources(3)
                .build()
                .expect("grid config is valid");
            let mut spec = DeploymentSpec::new(format!("site-{site}"), topology, config);
            spec.seed = 0xC0FFEE + site;
            spec
        })
        .collect()
}

fn bench_workers(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler");
    group.sample_size(10);
    for workers in [1usize, 2, 4] {
        let engine = CampaignEngine::builder()
            .workers(workers)
            .chunk(4)
            .deployments(fleet(16))
            .build()
            .expect("fleet compiles");
        group.bench_function(format!("workers/{workers}"), |bench| {
            bench.iter(|| black_box(engine.advance(4).expect("advance runs")))
        });
    }
    for chunk in [1u64, 8, 64] {
        let engine = CampaignEngine::builder()
            .workers(2)
            .chunk(chunk)
            .deployments(fleet(16))
            .build()
            .expect("fleet compiles");
        group.bench_function(format!("chunk/{chunk}"), |bench| {
            bench.iter(|| black_box(engine.advance(4).expect("advance runs")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_workers);
criterion_main!(benches);
