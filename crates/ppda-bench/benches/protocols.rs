//! Criterion benchmarks for the transport and the end-to-end protocol
//! rounds — one per panel of Fig. 1 plus the CT building blocks. These
//! guard against performance regressions in the simulation core; the
//! *measured system metrics* (latency, radio-on) come from the `fig1`
//! harness, not from wall-clock times here. Each round runs through one
//! driver over a deployment compiled once.

use criterion::{criterion_group, criterion_main, Criterion};

use ppda_bench::TestbedSetup;
use ppda_ct::{ChainSpec, LinkConditions, MiniCastConfig, MiniCastSchedule};
use ppda_mpc::{Deployment, ProtocolKind};
use ppda_radio::FrameSpec;
use ppda_sim::Xoshiro256;
use ppda_topology::Topology;

fn bench_ct(c: &mut Criterion) {
    let mut group = c.benchmark_group("ct");
    group.sample_size(20);
    let flocklab = Topology::flocklab();
    let frame = FrameSpec::new(8, 0).unwrap();

    let chain = ChainSpec::new(frame, (0..flocklab.len() as u16).collect()).unwrap();
    let minicast = MiniCastSchedule::new(&flocklab, chain, MiniCastConfig::default());
    let conditions = LinkConditions::new(&flocklab, 0.0, 0.0);
    group.bench_function("minicast_all_to_all/flocklab", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            minicast.run(&conditions, &mut Xoshiro256::seed_from(seed))
        })
    });
    group.finish();
}

fn bench_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("round");
    group.sample_size(10);

    // Fig. 1 (a)/(b) on FlockLab and (c)/(d) on D-Cube, each at the
    // complete network.
    for (setup, panel) in [
        (TestbedSetup::flocklab(), "fig1ab"),
        (TestbedSetup::dcube(), "fig1cd"),
    ] {
        let topology = setup.topology();
        let config = setup.config(topology.len()).unwrap();
        for kind in [ProtocolKind::S3, ProtocolKind::S4] {
            let deployment = Deployment::builder()
                .topology_ref(&topology)
                .config(config.clone())
                .protocol(kind)
                .build()
                .unwrap();
            let name = format!(
                "{panel}_{}/{}-{}src",
                kind.name().to_lowercase(),
                setup.name,
                topology.len()
            );
            group.bench_function(name, |bench| {
                let mut driver = deployment.driver();
                let mut seed = 0u64;
                bench.iter(|| {
                    seed += 1;
                    driver.round_at(config.round_id, seed).unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ct, bench_rounds);
criterion_main!(benches);
