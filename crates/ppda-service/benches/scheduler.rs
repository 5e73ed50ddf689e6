//! Criterion benchmarks for the campaign engine's scheduler: the cost of
//! advancing a many-deployment fleet, across worker counts and span
//! chunk sizes.
//!
//! The bench isolates the scheduler's knobs on a small fixed fleet, so
//! regressions in the dispatch path itself (span listing, the shared
//! cursor, driver parking, metrics merges) show up without an hour of
//! wall clock. A mixed fleet under faults and churn, timed end to end, is
//! perfbench's `fleet_churn_lossy` workload (`BENCHMARK.json`).
//!
//! * `workers/*` — same fleet, growing pool. On a single-core host the
//!   multi-worker points measure scheduling overhead, not speedup.
//! * `chunk/*` — same fleet and pool, varying rounds-per-span: small
//!   spans stress the cursor and the parking, large spans amortize
//!   per-span driver setup.
//! * `spread/4` — same fleet at 4 workers and chunk 1: four spans per
//!   deployment per advance, so the dispatch order decides how often a
//!   deployment's next span starts before its previous one has parked
//!   the driver.
//! * `lone/4` — one larger deployment (6×6 grid, 12 sources) on 4
//!   workers at the default chunk, `advance(128)`: its four spans spread
//!   over the pool.

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

/// One larger deployment: a 6×6 grid with 12 sources.
fn lone() -> DeploymentSpec {
    let topology = Topology::grid(6, 6, 15.0, 9);
    let config = ProtocolConfig::builder(topology.len())
        .sources(12)
        .build()
        .expect("grid config is valid");
    let mut spec = DeploymentSpec::new("lone", topology, config);
    spec.seed = 0xC0FFEE;
    spec
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
    let engine = CampaignEngine::builder()
        .workers(4)
        .chunk(1)
        .deployments(fleet(16))
        .build()
        .expect("fleet compiles");
    group.bench_function("spread/4", |bench| {
        bench.iter(|| black_box(engine.advance(4).expect("advance runs")))
    });
    let engine = CampaignEngine::builder()
        .workers(4)
        .deployment(lone())
        .build()
        .expect("deployment compiles");
    group.bench_function("lone/4", |bench| {
        bench.iter(|| black_box(engine.advance(128).expect("advance runs")))
    });
    group.finish();
}

criterion_group!(benches, bench_workers);
criterion_main!(benches);
