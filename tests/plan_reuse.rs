//! Reusing one compiled deployment across rounds: a batched round
//! aggregates each lane separately, a coordinate replays exactly after
//! other rounds ran on the same driver (B = 1 and B = 8), and a
//! deployment that owns its topology runs the same rounds as one that
//! borrows it.

use ppda::mpc::{Deployment, ProtocolConfig, ProtocolKind};
use ppda::topology::Topology;
use ppda_testkit::drive_round;

fn testbeds() -> Vec<(Topology, ProtocolConfig)> {
    let flocklab = Topology::flocklab();
    let dcube = Topology::dcube();
    let flocklab_config = ProtocolConfig::builder(flocklab.len())
        .sources(6)
        .build()
        .unwrap();
    let dcube_config = ProtocolConfig::builder(dcube.len())
        .sources(7)
        .ntx_sharing(7)
        .ntx_reconstruction(7)
        .build()
        .unwrap();
    vec![(flocklab, flocklab_config), (dcube, dcube_config)]
}

/// The FlockLab S4 deployment at lane width `lanes`, and its round id.
fn flocklab_s4(lanes: usize) -> (Deployment<'static>, u32) {
    let (topology, mut config) = testbeds().remove(0);
    config.batch = lanes;
    let round_id = config.round_id;
    let deployment = Deployment::builder()
        .topology(topology)
        .config(config)
        .protocol(ProtocolKind::S4)
        .build()
        .unwrap();
    (deployment, round_id)
}

/// Replaying a seed after other rounds ran in between gives the same
/// round: the plan carries no mutable round state.
#[test]
fn plan_rounds_are_independent_of_execution_order() {
    let (deployment, round_id) = flocklab_s4(1);
    let mut driver = deployment.driver();
    let first = driver.round_at(round_id, 11).unwrap();
    for seed in [5u64, 23, 99] {
        driver.round_at(round_id, seed).unwrap();
    }
    assert_eq!(driver.round_at(round_id, 11).unwrap(), first);
}

/// A 4-lane round on both testbeds aggregates each lane's readings
/// separately, at one round's transport cost.
#[test]
fn batched_lanes_aggregate_independent_readings() {
    for (topology, base_config) in testbeds() {
        let mut config = base_config.clone();
        config.batch = 4;
        let sources = config.sources.len();
        // secrets[si * 4 + lane] = 1000·(lane+1) + si
        let secrets: Vec<u64> = (0..sources as u64)
            .flat_map(|si| (0..4u64).map(move |lane| 1000 * (lane + 1) + si))
            .collect();
        let failed = vec![false; topology.len()];
        let outcome = drive_round(
            &topology,
            &config,
            ProtocolKind::S4,
            4,
            Some((&secrets, &failed)),
        )
        .unwrap()
        .outcome;
        assert_eq!(outcome.lanes, 4);
        for lane in 0..4u64 {
            let expected: u64 = (0..sources as u64).map(|si| 1000 * (lane + 1) + si).sum();
            assert_eq!(
                outcome.expected_sums[lane as usize],
                expected,
                "lane {lane} on {}",
                topology.name()
            );
        }
        // Radio loss can leave individual nodes without an aggregate (as
        // at B = 1); every node that reconstructed must hold every lane's
        // correct sum.
        let reconstructed = outcome
            .live_nodes()
            .filter(|n| n.aggregates.is_some())
            .count();
        assert!(
            reconstructed > 0,
            "no node reconstructed on {}",
            topology.name()
        );
        for node in outcome.live_nodes() {
            if let Some(aggs) = &node.aggregates {
                assert_eq!(aggs, &outcome.expected_sums, "on {}", topology.name());
            }
        }
    }
}

/// Two drivers of one 8-lane deployment agree round for round, and the
/// driver's scratch buffers and caches leak no state: a replay after
/// other work is exact.
#[test]
fn batched_rounds_replay_deterministically() {
    let (deployment, round_id) = flocklab_s4(8);
    let (mut a, mut b) = (deployment.driver(), deployment.driver());
    for seed in [2u64, 9, 77] {
        assert_eq!(
            a.round_at(round_id, seed).unwrap(),
            b.round_at(round_id, seed).unwrap()
        );
    }
    let first = a.round_at(round_id, 11).unwrap();
    a.round_at(round_id, 12).unwrap();
    assert_eq!(a.round_at(round_id, 11).unwrap(), first);
}

/// A deployment that owns its topology runs the same rounds as one that
/// borrows it.
#[test]
fn owned_plan_matches_borrowed_plan() {
    let (topology, config) = testbeds().remove(0);
    let borrowed = Deployment::builder()
        .topology_ref(&topology)
        .config(config.clone())
        .build()
        .unwrap();
    let owned = Deployment::builder()
        .topology(topology.clone())
        .config(config.clone())
        .build()
        .unwrap();
    let (mut a, mut b) = (borrowed.driver(), owned.driver());
    for seed in [2u64, 13] {
        assert_eq!(
            a.round_at(config.round_id, seed).unwrap(),
            b.round_at(config.round_id, seed).unwrap()
        );
    }
}
