//! Cross-crate property tests: protocol invariants over randomized
//! configurations on small synthetic topologies (kept small so the whole
//! suite stays fast in debug builds).

use proptest::prelude::*;

use ppda::mpc::{Deployment, FaultPlan, MembershipEvent, MembershipEventKind, ProtocolKind};
use ppda::sim::TrickleConfig;
use ppda_testkit::{drive_round, grid9, grid9_config};

/// The first `count` of the drawn membership events, in round order.
/// The churn property draws nodes from 3..9: nodes 0, 1 and 2 stay
/// members throughout, so the destination set never empties, and the
/// other nodes (sources 3 and 6 among them) churn freely — including
/// streams that drop the round below threshold.
fn churn_events(
    count: usize,
    rounds: &[u32],
    nodes: &[u16],
    kinds: &[usize],
) -> Vec<MembershipEvent> {
    let mut events: Vec<MembershipEvent> = (0..count)
        .map(|i| MembershipEvent {
            round: rounds[i],
            node: nodes[i],
            kind: [
                MembershipEventKind::Join,
                MembershipEventKind::Leave,
                MembershipEventKind::Crash,
                MembershipEventKind::Rejoin,
            ][kinds[i]],
        })
        .collect();
    events.sort_by_key(|e| e.round);
    events
}

/// A grid9 S4 deployment under `events` and `faults`.
fn churn_deployment(
    events: &[MembershipEvent],
    faults: FaultPlan,
    seed: u64,
) -> Deployment<'static> {
    Deployment::builder()
        .topology(grid9())
        .config(grid9_config().sources(3).build().unwrap())
        .protocol(ProtocolKind::S4)
        .faults(faults)
        .seed(seed)
        .membership(events.to_vec())
        .trickle(TrickleConfig {
            i_min: 1,
            crash_detection: 1,
        })
        .build()
        .expect("churny deployment compiles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any reading vector and seed, every completing node computes the
    /// field sum of the live sources' readings.
    #[test]
    fn s4_aggregate_is_field_sum(
        readings in prop::collection::vec(0u64..10_000, 9),
        seed in any::<u64>(),
    ) {
        let topology = grid9();
        let config = grid9_config().build().unwrap();
        let outcome = drive_round(
            &topology,
            &config,
            ProtocolKind::S4,
            seed,
            Some((&readings, &[false; 9])),
        )
        .unwrap()
        .outcome;
        let expected: u64 = readings.iter().sum::<u64>() % ppda::field::Gf31::modulus();
        prop_assert_eq!(&outcome.expected_sums, &[expected]);
        for node in outcome.live_nodes() {
            if let Some(got) = &node.aggregates {
                prop_assert_eq!(got, &[expected]);
            }
        }
    }

    /// Node latencies never exceed the scheduled round duration, and the
    /// radio ledger never exceeds it either.
    #[test]
    fn metrics_respect_the_schedule(seed in any::<u64>(), sources in 2usize..9) {
        let topology = grid9();
        let config = grid9_config().sources(sources).build().unwrap();
        let outcome = drive_round(&topology, &config, ProtocolKind::S4, seed, None)
            .unwrap()
            .outcome;
        let budget = outcome.scheduled_round_ms() * 1.01;
        for node in outcome.live_nodes() {
            if let Some(latency) = node.latency {
                prop_assert!(latency.as_millis_f64() <= budget);
            }
            prop_assert!(node.radio_on.as_millis_f64() <= budget);
        }
    }

    /// Failure masks never crash the protocol, and failed nodes report
    /// no activity.
    #[test]
    fn failure_injection_is_safe(
        seed in any::<u64>(),
        fail_bits in prop::collection::vec(any::<bool>(), 9),
    ) {
        let topology = grid9();
        // Keep at least 6 nodes alive so an aggregator majority can exist.
        let mut failed = fail_bits;
        let alive = failed.iter().filter(|&&f| !f).count();
        if alive < 6 {
            for f in failed.iter_mut() {
                *f = false;
            }
        }
        let config = grid9_config()
            .sources_explicit(
                (0..9u16).filter(|&v| !failed[v as usize]).take(4).collect(),
            )
            .build()
            .unwrap();
        let readings: Vec<u64> = (0..config.sources.len() as u64).map(|i| i + 1).collect();
        let outcome = drive_round(
            &topology,
            &config,
            ProtocolKind::S4,
            seed,
            Some((&readings, &failed)),
        )
        .unwrap()
        .outcome;
        for (v, node) in outcome.nodes.iter().enumerate() {
            if failed[v] {
                prop_assert!(node.failed);
                prop_assert_eq!(&node.aggregates, &None);
                prop_assert_eq!(node.radio_on.as_micros(), 0);
            }
        }
    }

    /// The protocol is a deterministic function of (config, seed, inputs).
    #[test]
    fn replay_determinism(seed in any::<u64>()) {
        let topology = grid9();
        let config = grid9_config().build().unwrap();
        let a = drive_round(&topology, &config, ProtocolKind::S4, seed, None)
            .unwrap()
            .outcome;
        let b = drive_round(&topology, &config, ProtocolKind::S4, seed, None)
            .unwrap()
            .outcome;
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            prop_assert_eq!(&x.aggregates, &y.aggregates);
            prop_assert_eq!(x.latency, y.latency);
        }
    }

    /// Batched share generation is the scalar path, lane for lane, under
    /// one shared RNG stream.
    #[test]
    fn split_secret_batch_equals_sequential_scalar_splits(
        secrets in prop::collection::vec(0u64..2_000_000_000, 1..9),
        degree in 1usize..5,
        holders in 6usize..12,
        seed in any::<u64>(),
    ) {
        use ppda::field::{share_x, Gf31, Mersenne31};
        use ppda::sss::{split_secret, BatchSplitter};

        let constants: Vec<Gf31> = secrets.iter().map(|&s| Gf31::new(s)).collect();
        let xs: Vec<Gf31> = (0..holders).map(share_x::<Mersenne31>).collect();
        let lanes = constants.len();

        let mut rng_batch = ppda::sim::Xoshiro256::seed_from(seed);
        let mut slab = Vec::new();
        BatchSplitter::new(degree, lanes)
            .split_into(&constants, &xs, &mut rng_batch, &mut slab)
            .unwrap();

        let mut rng_scalar = ppda::sim::Xoshiro256::seed_from(seed);
        for (lane, &c) in constants.iter().enumerate() {
            let scalar = split_secret(c, degree, &xs, &mut rng_scalar).unwrap();
            for (i, sh) in scalar.iter().enumerate() {
                prop_assert_eq!(sh.x, xs[i]);
                prop_assert_eq!(slab[i * lanes + lane], sh.y);
            }
        }
    }

    /// One membership-driven driver run through any order of round ids,
    /// repeats and backward jumps included, reports for each exactly what
    /// a fresh driver reports. Links are lossy, so rounds reconstruct from
    /// varying survivor sets through the driver's weight cache.
    #[test]
    fn any_order_of_round_ids_matches_fresh_drivers(
        count in 0usize..8,
        rounds in prop::collection::vec(1u32..12, 8),
        nodes in prop::collection::vec(3u16..9, 8),
        kinds in prop::collection::vec(0usize..4, 8),
        round_ids in prop::collection::vec(0u32..16, 2..12),
        seed in any::<u64>(),
    ) {
        let events = churn_events(count, &rounds, &nodes, &kinds);
        let faults = FaultPlan::lossy(seed, 0.3);
        let deployment = churn_deployment(&events, faults, seed);
        let mut driver = deployment.driver();
        for &round_id in &round_ids {
            let round_seed = seed ^ u64::from(round_id);
            let fresh = deployment
                .driver()
                .round_at(round_id, round_seed)
                .expect("fresh round runs");
            // Each id runs twice in a row, so every id is also a repeat.
            for _ in 0..2 {
                let report = driver.round_at(round_id, round_seed).expect("round runs");
                prop_assert_eq!(&report, &fresh);
            }
        }
    }

    /// Batched reconstruction over the canonical weights equals per-lane
    /// scalar reconstruction for every lane.
    #[test]
    fn reconstruct_batch_equals_per_lane_reconstruct(
        secrets in prop::collection::vec(0u64..2_000_000_000, 1..9),
        degree in 1usize..5,
        seed in any::<u64>(),
    ) {
        use ppda::field::{share_x, Gf31, Mersenne31};
        use ppda::sss::{reconstruct, BatchSplitter, ReconstructionPlan, Share};

        let constants: Vec<Gf31> = secrets.iter().map(|&s| Gf31::new(s)).collect();
        let xs: Vec<Gf31> = (0..degree + 1).map(share_x::<Mersenne31>).collect();
        let plan = ReconstructionPlan::new(&xs).unwrap();
        let lanes = constants.len();

        let mut rng = ppda::sim::Xoshiro256::seed_from(seed);
        let mut slab = Vec::new();
        BatchSplitter::new(degree, lanes)
            .split_into(&constants, &xs, &mut rng, &mut slab)
            .unwrap();
        let mut recovered = Vec::new();
        plan.reconstruct_batch_into(lanes, &slab, &mut recovered).unwrap();
        prop_assert_eq!(&recovered, &constants);
        for (lane, &c) in constants.iter().enumerate() {
            let shares: Vec<_> = xs
                .iter()
                .enumerate()
                .map(|(i, &x)| Share { x, y: slab[i * lanes + lane] })
                .collect();
            prop_assert_eq!(reconstruct(&shares).unwrap(), c);
        }
    }
}
