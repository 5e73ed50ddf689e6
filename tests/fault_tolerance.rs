//! Fault-tolerant rounds: the degraded-path conformance suite.
//!
//! Two contracts are enforced here (a zero [`FaultPlan`] leaving rounds
//! byte-identical is pinned by `tests/golden/driver_rounds.txt`, whose
//! rounds all run under the default zero plan):
//!
//! 1. **Threshold-degraded reconstruction is exact** — any survivor set
//!    of size ≥ t+1 reconstructs the same aggregate as the full set
//!    (exhaustively at the SSS layer, and proptested over seeded fault
//!    plans at the protocol layer), and below-threshold rounds report
//!    [`RecoveryStatus::Failed`] / [`MpcError::AggregationFailed`] —
//!    never a wrong aggregate, never a panic.
//! 2. **The degraded outcome format is frozen** — golden fixtures under
//!    `tests/golden/` pin the report text for a recovered lossy round and
//!    a below-threshold failure (regenerate with `GOLDEN_REGEN=1`).

use ppda::mpc::{
    Deployment, FaultPlan, MpcError, ProtocolConfig, ProtocolKind, RecoveryStatus, RoundPlan,
    RoundReport,
};
use ppda::topology::Topology;
use ppda_bench::{run_campaign_faulty, Protocol};
use ppda_testkit::{assert_golden, churn, grid9, grid9_config, lossy_flocklab};
use proptest::prelude::*;

/// One S4 round at the config's round id under `faults`, with generated
/// readings.
fn faulty_round(
    topology: &Topology,
    config: &ProtocolConfig,
    faults: FaultPlan,
    seed: u64,
) -> RoundReport {
    Deployment::builder()
        .topology_ref(topology)
        .config(config.clone())
        .protocol(ProtocolKind::S4)
        .faults(faults)
        .build()
        .unwrap()
        .driver()
        .round_at(config.round_id, seed)
        .unwrap()
}

#[test]
fn every_threshold_survivor_subset_reconstructs_the_full_aggregate() {
    // The fault-tolerance algebra, exhaustively: build the real S4 sum
    // shares of a round (all destinations), then check that *every*
    // (t+1)-subset of survivors reconstructs the same aggregate.
    use ppda::field::{share_x, Gf31, Mersenne31};
    use ppda::sss::{split_secret, SumAccumulator, WeightCache};
    use ppda_testkit::aggregator_setup;

    let topology = Topology::flocklab();
    let (config, aggregators) = aggregator_setup(&topology);
    let k = config.degree;
    let xs: Vec<Gf31> = aggregators
        .iter()
        .map(|&d| share_x::<Mersenne31>(d as usize))
        .collect();
    let readings: Vec<u64> = (0..10u64).map(|i| 500 + 13 * i).collect();
    let expected: u64 = readings.iter().sum();

    let mut rng = ppda_testkit::rng(0xF417);
    let mut holders: Vec<SumAccumulator<Mersenne31>> =
        xs.iter().map(|&x| SumAccumulator::new(x)).collect();
    for (src, &r) in readings.iter().enumerate() {
        let shares = split_secret(Gf31::new(r), k, &xs, &mut rng).unwrap();
        for (holder, share) in holders.iter_mut().zip(shares) {
            holder.add(src as u16, share.y).unwrap();
        }
    }
    let sums: Vec<Gf31> = holders.iter().map(|h| h.share().y).collect();

    let mut cache = WeightCache::new(&xs, k + 1).unwrap();
    let m = xs.len();
    let mut checked = 0usize;
    for mask in 1u128..(1 << m) {
        if mask.count_ones() as usize != k + 1 {
            continue;
        }
        let survivors = cache.survivor_xs(mask).unwrap();
        let weights = cache.weights(mask).unwrap();
        let value: Gf31 = survivors
            .iter()
            .zip(weights)
            .map(|(&x, &w)| {
                let i = xs.iter().position(|&p| p == x).unwrap();
                sums[i] * w
            })
            .sum();
        assert_eq!(value, Gf31::new(expected), "survivor mask {mask:#b}");
        checked += 1;
    }
    // 11 aggregators choose 9 on FlockLab: 55 distinct survivor sets.
    assert!(checked > 50, "only {checked} subsets checked");
}

#[test]
fn below_threshold_rounds_fail_typed_not_wrong() {
    // Take enough aggregators down (via churn, deterministically) that
    // the survivor set cannot reach the threshold: the round must report
    // AggregationFailed — and no live node may hold *any* aggregate.
    let topology = grid9();
    let config = grid9_config().sources(4).build().unwrap();
    let plan = RoundPlan::new(&topology, &config, ProtocolKind::S4).unwrap();
    let threshold = plan.threshold();
    let destinations = plan.destinations().to_vec();
    // Kill all but threshold-1 aggregators for this round id.
    let round_id = config.round_id;
    let victims = &destinations[..destinations.len() - (threshold - 1)];
    let windows: Vec<(u16, u32, u32)> = victims
        .iter()
        .map(|&d| (d, round_id, round_id + 1))
        .collect();
    let faults = churn(&windows);

    let out = faulty_round(&topology, &config, faults, 5);
    assert!(!out.degraded.recovered());
    assert!(matches!(
        out.degraded.recovery,
        RecoveryStatus::Failed { missing: 1 }
    ));
    assert!(matches!(
        out.degraded.require_recovered(),
        Err(MpcError::AggregationFailed { missing: 1 })
    ));
    assert_eq!(out.degraded.survivors.len(), threshold - 1);
    assert_eq!(out.degraded.nodes_recovered, 0);
    for node in out.outcome.live_nodes() {
        assert_eq!(
            node.aggregates, None,
            "below the threshold nothing may reconstruct"
        );
    }
}

#[test]
fn degraded_campaign_at_twenty_percent_loss_recovers() {
    // The acceptance sweep point: FlockLab, S4, 24 sources, 20% link
    // loss. The campaign must complete with a positive recovery rate and
    // without ever producing a wrong aggregate (node_success counts only
    // exact full aggregates; failures show up as missing, not wrong).
    let (topology, config, faults) = lossy_flocklab(24, 0.2);
    let result = run_campaign_faulty(Protocol::S4, &topology, &config, 8, 0x5EED, &faults).unwrap();
    assert_eq!(result.rounds, 8);
    assert!(
        result.recovery_rate > 0.0,
        "20% loss must leave recoverable rounds, got rate {}",
        result.recovery_rate
    );
    assert_eq!(
        result.margin.len() + result.rounds_failed,
        8,
        "every round is recovered-with-margin or failed"
    );
    // Determinism of the whole degraded campaign path.
    let again = run_campaign_faulty(Protocol::S4, &topology, &config, 8, 0x5EED, &faults).unwrap();
    assert_eq!(result.recovery_rate, again.recovery_rate);
    assert_eq!(result.node_success, again.node_success);
}

#[test]
fn golden_degraded_outcome_recovered() {
    // Freeze the degraded outcome text format on a seeded lossy round.
    let (topology, config, faults) = lossy_flocklab(6, 0.3);
    let out = faulty_round(&topology, &config, faults, 11);
    let text = format!(
        "protocol {} testbed {} lanes {}\n{}",
        out.outcome.protocol,
        topology.name(),
        out.outcome.lanes,
        out.degraded
    );
    assert_golden("degraded_outcome.txt", &text);
}

#[test]
fn golden_degraded_outcome_below_threshold() {
    // The below-threshold failure case, frozen: grid9 S4 with churn
    // removing all but t-1 aggregators.
    let topology = grid9();
    let config = grid9_config().sources(4).build().unwrap();
    let plan = RoundPlan::new(&topology, &config, ProtocolKind::S4).unwrap();
    let destinations = plan.destinations().to_vec();
    let round_id = config.round_id;
    let windows: Vec<(u16, u32, u32)> = destinations[..destinations.len() - (plan.threshold() - 1)]
        .iter()
        .map(|&d| (d, round_id, round_id + 1))
        .collect();
    let out = faulty_round(&topology, &config, churn(&windows), 5);
    let text = format!(
        "protocol {} testbed grid9 lanes {}\n{}",
        out.outcome.protocol, out.outcome.lanes, out.degraded
    );
    assert_golden("degraded_failure.txt", &text);
}

#[test]
fn batched_lanes_take_the_same_degraded_path() {
    // B = 4 under loss: the transport, survivor set and fault report are
    // lane-independent (the lanes travel together), and every node that
    // recovered holds all four correct lane aggregates.
    let (topology, scalar_config, faults) = lossy_flocklab(6, 0.25);
    let mut config = scalar_config.clone();
    config.batch = 4;
    for seed in [2u64, 9, 33] {
        let b = faulty_round(&topology, &config, faults.clone(), seed);
        let s = faulty_round(&topology, &scalar_config, faults.clone(), seed);
        // Same fault realization and survivor set regardless of B: the
        // degraded path is lane-width-agnostic.
        assert_eq!(b.degraded.survivors, s.degraded.survivors, "seed {seed}");
        assert_eq!(b.degraded.recovery, s.degraded.recovery, "seed {seed}");
        assert_eq!(
            b.degraded.faults.nodes_dropped, s.degraded.faults.nodes_dropped,
            "seed {seed}"
        );
        assert_eq!(b.outcome.lanes, 4);
        for node in b.outcome.live_nodes() {
            if let Some(aggs) = &node.aggregates {
                if node.included_sources as usize == config.sources.len() {
                    assert_eq!(aggs, &b.outcome.expected_sums, "seed {seed}");
                }
            }
        }
    }
}

#[test]
fn s3_reconstructs_from_full_width_survivor_masks_at_128_nodes() {
    // S3 on 128 nodes makes every node a destination, so survivor masks
    // span all 128 bits of the weight cache's mask. Under loss and
    // decode-deadline misses (no dropout, so every sum is sent) nodes
    // reconstruct from non-canonical survivor sets, and every live node
    // must end with the correct aggregate.
    let topology = Topology::grid(16, 8, 15.0, 7);
    let config = ProtocolConfig::builder(topology.len())
        .sources(24)
        .build()
        .unwrap();
    let deployment = Deployment::builder()
        .topology_ref(&topology)
        .config(config)
        .protocol(ProtocolKind::S3)
        .faults(FaultPlan::lossy(9, 0.05).with_delay(0.02))
        .seed(11)
        .build()
        .unwrap();
    let mut driver = deployment.driver();
    for round in 0..3 {
        let report = driver.step().unwrap();
        assert!(report.recovered(), "round {round}");
        assert_eq!(
            report.degraded.nodes_recovered, report.degraded.live_nodes,
            "round {round}"
        );
        assert!(report.correct(), "round {round}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Over seeded fault plans: degraded rounds never panic, never emit a
    /// wrong full aggregate, and classify recovery exactly by the
    /// survivor count vs the threshold.
    #[test]
    fn degraded_rounds_are_sound_under_random_faults(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        loss_pct in 0u32..50,
        dropout_pct in 0u32..30,
    ) {
        let topology = grid9();
        let config = grid9_config().sources(5).build().unwrap();
        let faults = FaultPlan::lossy(fault_seed, loss_pct as f64 / 100.0)
            .with_dropout(dropout_pct as f64 / 100.0);
        let out = faulty_round(&topology, &config, faults, seed);

        let threshold = config.degree + 1;
        match out.degraded.recovery {
            RecoveryStatus::Recovered { margin } => {
                prop_assert_eq!(out.degraded.survivors.len(), threshold + margin);
            }
            RecoveryStatus::Failed { missing } => {
                prop_assert_eq!(out.degraded.survivors.len() + missing, threshold);
                prop_assert_eq!(out.degraded.nodes_recovered, 0);
            }
            status => prop_assert!(false, "unknown recovery verdict {status:?}"),
        }
        // Live sources this round (the fault plan may have dropped some).
        let live_sources = out.outcome.source_count
            - out.outcome.nodes.iter().enumerate()
                .filter(|&(v, n)| n.failed && config.sources.contains(&(v as u16)))
                .count();
        for node in out.outcome.live_nodes() {
            if let Some(aggs) = &node.aggregates {
                // A full-coverage aggregate must be *the* aggregate.
                if node.included_sources as usize == live_sources {
                    prop_assert_eq!(aggs, &out.outcome.expected_sums);
                }
            }
        }
        prop_assert_eq!(
            out.degraded.nodes_recovered > 0,
            out.outcome.live_nodes().any(|n| {
                n.aggregates.as_deref() == Some(&out.outcome.expected_sums[..])
                    && n.included_sources as usize == live_sources
            })
        );
    }

    /// Any survivor set of size exactly t+1 reconstructs the same
    /// aggregate as the full set, over seeded fault plans: nodes holding
    /// *different* threshold subsets (because loss erased different sum
    /// deliveries) all agree on the full aggregate.
    #[test]
    fn threshold_survivor_sets_agree_on_the_aggregate(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        loss_pct in 5u32..40,
    ) {
        let topology = grid9();
        let config = grid9_config().sources(6).build().unwrap();
        let faults = FaultPlan::lossy(fault_seed, loss_pct as f64 / 100.0).with_delay(0.1);
        let out = faulty_round(&topology, &config, faults, seed);
        let full = config.sources.len() as u32;
        let mut agreed: Option<Vec<u64>> = None;
        for node in out.outcome.live_nodes() {
            if node.included_sources == full {
                let aggs = node.aggregates.clone().expect("full coverage implies a value");
                prop_assert_eq!(&aggs, &out.outcome.expected_sums);
                if let Some(prev) = &agreed {
                    prop_assert_eq!(prev, &aggs);
                }
                agreed = Some(aggs);
            }
        }
    }
}
