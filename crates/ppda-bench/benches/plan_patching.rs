//! Measures what incremental membership patching buys: applying a
//! [`MembershipDelta`] to a compiled [`RoundPlan`] versus recompiling
//! the plan from scratch for the new view (what a deployment without
//! `RoundPlan::apply` would have to do on every membership change). The
//! patch path re-elects from the retained bootstrap ranking, splices the
//! sharing chain and reuses every retained pairwise cipher; the
//! recompile re-derives all n² keys and re-runs the hop BFS.
//!
//! Two victims bracket the patch cost on each testbed:
//!
//! * the top-ranked aggregator (`*_leave_rejoin/*`): its departure
//!   forces a re-election and a chain splice, the most expensive patch;
//! * a node outside the aggregator set (`*_leave_rejoin_non_aggregator/*`):
//!   the destination set stays the same, so the patch only updates the
//!   membership mask, the cheapest one.
//!
//! Recorded ratios live in `EXPERIMENTS.md`.

use criterion::{criterion_group, criterion_main, Criterion};

use ppda_bench::TestbedSetup;
use ppda_mpc::{MembershipDelta, ProtocolKind, RoundPlan};

fn bench_plan_patching(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_patching");
    group.sample_size(20);

    for setup in [TestbedSetup::flocklab(), TestbedSetup::dcube()] {
        let topology = setup.topology();
        let config = setup.config(topology.len()).unwrap();
        let n = topology.len() as u16;
        let base = RoundPlan::new(&topology, &config, ProtocolKind::S4).unwrap();
        let aggregator = base.destinations()[0];
        let non_aggregator = (0..n)
            .find(|v| !base.destinations().contains(v))
            .expect("S4 elects fewer aggregators than nodes");

        for (suffix, victim) in [("", aggregator), ("_non_aggregator", non_aggregator)] {
            let leave = MembershipDelta {
                round: config.round_id,
                joins: vec![],
                leaves: vec![victim],
            };
            let rejoin = MembershipDelta {
                round: config.round_id,
                joins: vec![victim],
                leaves: vec![],
            };

            // One leave + one rejoin per iteration keeps the plan state
            // cycling, so every apply does its full patch work.
            let mut plan = base.clone().into_owned();
            group.bench_function(
                format!("patch_leave_rejoin{suffix}/{}", setup.name),
                |bench| {
                    bench.iter(|| {
                        let a = plan.apply(&leave).unwrap();
                        let b = plan.apply(&rejoin).unwrap();
                        (a, b)
                    })
                },
            );

            // The baseline: recompile the whole plan for each of the two views.
            let mut without = vec![true; n as usize];
            without[victim as usize] = false;
            let full = vec![true; n as usize];
            group.bench_function(
                format!("recompile_leave_rejoin{suffix}/{}", setup.name),
                |bench| {
                    bench.iter(|| {
                        let a = RoundPlan::new_with_membership(
                            &topology,
                            &config,
                            ProtocolKind::S4,
                            &without,
                        )
                        .unwrap();
                        let b = RoundPlan::new_with_membership(
                            &topology,
                            &config,
                            ProtocolKind::S4,
                            &full,
                        )
                        .unwrap();
                        (a, b)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_plan_patching);
criterion_main!(benches);
