//! Measures what the compile-once plan layer buys: per-round cost with a
//! reused [`RoundPlan`] (one deployment, one driver) versus the
//! bootstrap-per-round baseline (a fresh deployment per round, as the
//! campaign runner did before the plan split). The gap is the amortized
//! work — pairwise key derivation, hop tables, aggregator election,
//! chain/schedule compilation, Lagrange weights. Recorded ratios live in
//! `EXPERIMENTS.md`.

use criterion::{criterion_group, criterion_main, Criterion};

use ppda_bench::TestbedSetup;
use ppda_mpc::{Deployment, ProtocolConfig, ProtocolKind, RoundPlan, RoundReport};
use ppda_topology::Topology;

/// A deployment of `kind` over a borrowed topology.
fn deployment<'t>(
    topology: &'t Topology,
    config: &ProtocolConfig,
    kind: ProtocolKind,
) -> Deployment<'t> {
    Deployment::builder()
        .topology_ref(topology)
        .config(config.clone())
        .protocol(kind)
        .build()
        .unwrap()
}

/// The bootstrap-per-round baseline: compile a fresh deployment, then run
/// its one round.
fn fresh_round(
    topology: &Topology,
    config: &ProtocolConfig,
    kind: ProtocolKind,
    seed: u64,
) -> RoundReport {
    deployment(topology, config, kind)
        .driver()
        .round_at(config.round_id, seed)
        .unwrap()
}

fn bench_plan_amortization(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_amortization");
    group.sample_size(20);

    for setup in [TestbedSetup::flocklab(), TestbedSetup::dcube()] {
        let topology = setup.topology();
        // The smallest sweep point of each testbed (3 sources on FlockLab,
        // 5 on D-Cube): short chains make rounds cheap, which is exactly
        // where the per-round bootstrap overhead is proportionally worst —
        // and the operating point a periodic sensing deployment runs at.
        let sources = setup.source_sweep[0];
        let config = setup.config(sources).unwrap();

        // S4, the periodic-aggregation production path.
        let reused = deployment(&topology, &config, ProtocolKind::S4);
        let label = |what: &str| format!("{what}/{}-{sources}src", setup.name);
        group.bench_function(label("s4_reused_plan"), |bench| {
            let mut driver = reused.driver();
            let mut seed = 0u64;
            bench.iter(|| {
                seed += 1;
                driver.round_at(config.round_id, seed).unwrap()
            })
        });
        group.bench_function(label("s4_bootstrap_per_round"), |bench| {
            let mut seed = 0u64;
            bench.iter(|| {
                seed += 1;
                // The pre-plan campaign body: fresh config clone, fresh
                // bootstrap, every round.
                fresh_round(&topology, &config, ProtocolKind::S4, seed)
            })
        });

        // Plan compilation alone (what gets amortized away).
        group.bench_function(label("plan_compile"), |bench| {
            bench.iter(|| RoundPlan::new(&topology, &config, ProtocolKind::S4).unwrap())
        });

        // The full network for context (simulation-dominated).
        let full = setup.config(topology.len()).unwrap();
        let full_deployment = deployment(&topology, &full, ProtocolKind::S4);
        group.bench_function(format!("s4_reused_plan/{}-full", setup.name), |bench| {
            let mut driver = full_deployment.driver();
            let mut seed = 0u64;
            bench.iter(|| {
                seed += 1;
                driver.round_at(full.round_id, seed).unwrap()
            })
        });
        group.bench_function(
            format!("s4_bootstrap_per_round/{}-full", setup.name),
            |bench| {
                let mut seed = 0u64;
                bench.iter(|| {
                    seed += 1;
                    fresh_round(&topology, &full, ProtocolKind::S4, seed)
                })
            },
        );
    }

    // S3 for completeness, on the smaller testbed only (its rounds are an
    // order of magnitude slower).
    let setup = TestbedSetup::flocklab();
    let topology = setup.topology();
    let config = setup.config(6).unwrap();
    let reused = deployment(&topology, &config, ProtocolKind::S3);
    group.bench_function("s3_reused_plan/flocklab-6src", |bench| {
        let mut driver = reused.driver();
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            driver.round_at(config.round_id, seed).unwrap()
        })
    });
    group.bench_function("s3_bootstrap_per_round/flocklab-6src", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            fresh_round(&topology, &config, ProtocolKind::S3, seed)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_plan_amortization);
criterion_main!(benches);
