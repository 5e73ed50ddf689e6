//! End-to-end privacy tests: the collusion threshold holds for the actual
//! destination assignments produced by the bootstrap on the real testbed
//! models, the constructive indistinguishability argument goes through
//! with real shares, and the fault-injection layer leaks nothing — which
//! shares were lost is secret-independent metadata, and losing shares can
//! only *shrink* what a collusion observes.

use ppda::field::{lagrange, share_x, Gf31, Mersenne31};
use ppda::mpc::adversary::{
    consistent_polynomial, destination_points, observed_shares, SecrecyAnalysis,
};
use ppda::mpc::{Deployment, ProtocolKind};
use ppda::sss::split_secret;
use ppda::topology::Topology;
use ppda_testkit::{aggregator_setup, lossy_dropout, rng};

#[test]
fn threshold_collusion_learns_nothing_on_flocklab() {
    let topology = Topology::flocklab();
    let (config, aggregators) = aggregator_setup(&topology);
    let k = config.degree;

    // Collude exactly k of the real aggregators.
    let colluders: Vec<u16> = aggregators[..k].to_vec();
    let analysis = SecrecyAnalysis::new(k, &aggregators, &colluders);
    assert!(analysis.secret_hidden());
    assert_eq!(analysis.observed_points(), k);

    // With real shares: every candidate secret is constructible.
    let mut rng = rng(404);
    let xs = destination_points::<Mersenne31>(&aggregators);
    let secret = Gf31::new(22_50); // a 22.50 °C reading
    let shares = split_secret(secret, k, &xs, &mut rng).unwrap();
    let observed = observed_shares(&aggregators, &shares, &colluders);
    for candidate in [0u64, 1, 9_999, 1_000_000] {
        let poly = consistent_polynomial(Gf31::new(candidate), &observed, k, &mut rng).unwrap();
        assert_eq!(poly.eval(Gf31::ZERO), Gf31::new(candidate));
        for s in &observed {
            assert_eq!(poly.eval(s.x), s.y);
        }
    }
}

#[test]
fn threshold_plus_one_collusion_breaks_secrecy() {
    let topology = Topology::flocklab();
    let (config, aggregators) = aggregator_setup(&topology);
    let k = config.degree;

    let colluders: Vec<u16> = aggregators[..k + 1].to_vec();
    let analysis = SecrecyAnalysis::new(k, &aggregators, &colluders);
    assert!(!analysis.secret_hidden());

    // And indeed k+1 real shares pin the secret exactly.
    let mut rng = rng(405);
    let xs = destination_points::<Mersenne31>(&aggregators);
    let secret = Gf31::new(1234);
    let shares = split_secret(secret, k, &xs, &mut rng).unwrap();
    let observed = observed_shares(&aggregators, &shares, &colluders);
    let points: Vec<(Gf31, Gf31)> = observed.iter().map(|s| (s.x, s.y)).collect();
    assert_eq!(lagrange::interpolate_at_zero(&points).unwrap(), secret);
    assert!(consistent_polynomial(Gf31::new(9), &observed, k, &mut rng).is_none());
}

#[test]
fn dcube_threshold_matches_degree() {
    let topology = Topology::dcube();
    let (config, aggregators) = aggregator_setup(&topology);
    let k = config.degree; // 15
    assert_eq!(aggregators.len(), k + 1 + config.aggregator_redundancy);

    for colluding in [1usize, k / 2, k] {
        let analysis = SecrecyAnalysis::new(k, &aggregators, &aggregators[..colluding]);
        assert!(analysis.secret_hidden(), "{colluding} colluders must fail");
        assert_eq!(analysis.margin(), k + 1 - colluding);
    }
    let analysis = SecrecyAnalysis::new(k, &aggregators, &aggregators[..k + 1]);
    assert!(!analysis.secret_hidden());
}

#[test]
fn non_aggregators_observe_nothing_in_s4() {
    // In S4, shares travel only to aggregators (encrypted for them); a
    // collusion of arbitrarily many NON-aggregator nodes sees zero points.
    let topology = Topology::flocklab();
    let (config, aggregators) = aggregator_setup(&topology);
    let outsiders: Vec<u16> = (0..topology.len() as u16)
        .filter(|v| !aggregators.contains(v))
        .collect();
    assert!(outsiders.len() > config.degree, "test needs many outsiders");
    let analysis = SecrecyAnalysis::new(config.degree, &aggregators, &outsiders);
    assert_eq!(analysis.observed_points(), 0);
    assert!(analysis.secret_hidden());
}

#[test]
fn share_x_assignment_is_injective_over_testbeds() {
    // Distinct nodes must map to distinct public points or shares collide.
    for topology in [Topology::flocklab(), Topology::dcube()] {
        let mut seen = std::collections::HashSet::new();
        for v in 0..topology.len() {
            assert!(seen.insert(share_x::<Mersenne31>(v)));
        }
    }
}

#[test]
fn fault_metadata_is_secret_independent() {
    // The fault layer's draws (which links lost, who dropped out, what
    // was delayed) are pure functions of seeds and coordinates — NEVER of
    // the secrets. Two degraded rounds with identical seeds but entirely
    // different readings must realize the *identical* fault pattern and
    // survivor set, so observing loss metadata gives a colluder zero bits
    // about any reading.
    let topology = Topology::flocklab();
    let config = ppda::mpc::ProtocolConfig::builder(topology.len())
        .sources(6)
        .build()
        .unwrap();
    let deployment = Deployment::builder()
        .topology_ref(&topology)
        .config(config.clone())
        .protocol(ProtocolKind::S4)
        .faults(lossy_dropout(0.3, 0.1).with_delay(0.1))
        .build()
        .unwrap();
    let failed = vec![false; topology.len()];
    let secrets_a: Vec<u64> = (0..6u64).map(|i| 100 + i).collect();
    let secrets_b: Vec<u64> = (0..6u64).map(|i| 65_000 - 7 * i).collect();
    let mut driver = deployment.driver();
    for seed in [4u64, 17, 0xC0FFEE] {
        let a = driver
            .round_at_with(config.round_id, seed, &secrets_a, &failed)
            .unwrap();
        let b = driver
            .round_at_with(config.round_id, seed, &secrets_b, &failed)
            .unwrap();
        assert_eq!(
            a.degraded, b.degraded,
            "fault realization must not depend on the secrets (seed {seed})"
        );
        assert_ne!(
            a.outcome.expected_sums, b.outcome.expected_sums,
            "sanity: the readings really differ"
        );
    }
}

#[test]
fn lost_shares_grant_no_collusion_margin() {
    // Share loss only removes points from a collusion's view: for every
    // loss pattern, the colluders' observed count is ≤ the loss-free
    // count, so the secrecy margin never shrinks. Sweep seeded loss
    // patterns over the real FlockLab aggregator assignment.
    let topology = Topology::flocklab();
    let (config, aggregators) = aggregator_setup(&topology);
    let k = config.degree;
    let colluders: Vec<u16> = aggregators[..k].to_vec();
    let baseline = SecrecyAnalysis::new(k, &aggregators, &colluders);
    assert!(baseline.secret_hidden());

    let faults = ppda::mpc::FaultPlan::none().with_delay(0.4);
    for round_seed in 0..32u64 {
        let rf = faults.realize(1, round_seed);
        // Destinations whose share delivery survived this round's faults.
        let delivered: Vec<u16> = aggregators
            .iter()
            .enumerate()
            .filter(|&(slot, &d)| {
                matches!(
                    rf.delivery(0, slot, d as usize),
                    ppda::mpc::Delivery::OnTime | ppda::mpc::Delivery::Duplicated
                )
            })
            .map(|(_, &d)| d)
            .collect();
        let degraded = SecrecyAnalysis::new(k, &delivered, &colluders);
        assert!(
            degraded.observed_points() <= baseline.observed_points(),
            "loss cannot add observations"
        );
        assert!(
            degraded.margin() >= baseline.margin(),
            "loss cannot shrink the secrecy margin"
        );
        assert!(degraded.secret_hidden());
    }
}

#[test]
fn sum_shares_hide_individual_contributions() {
    // A sum share is the sum of k-degree evaluations; even the aggregator
    // holding it cannot separate the addends. Sanity-check the algebra:
    // two different reading vectors with the same total produce sums that
    // reconstruct identically at x = 0.
    let mut rng = rng(7);
    let k = 3;
    let xs: Vec<Gf31> = (0..6).map(share_x::<Mersenne31>).collect();
    let total_a = [10u64, 20, 30];
    let total_b = [30u64, 20, 10];
    let reconstruct = |readings: &[u64], rng: &mut ppda::sim::Xoshiro256| {
        let mut sums = vec![Gf31::ZERO; xs.len()];
        for &r in readings {
            let shares = split_secret(Gf31::new(r), k, &xs, rng).unwrap();
            for (acc, s) in sums.iter_mut().zip(shares) {
                *acc += s.y;
            }
        }
        let pts: Vec<(Gf31, Gf31)> = xs.iter().copied().zip(sums).take(k + 1).collect();
        lagrange::interpolate_at_zero(&pts).unwrap()
    };
    assert_eq!(
        reconstruct(&total_a, &mut rng),
        reconstruct(&total_b, &mut rng)
    );
}

#[test]
fn membership_metadata_is_secret_independent() {
    // Trickle beacons, convergence times and plan patches are pure
    // functions of the topology, the event stream and the deployment
    // seed — NEVER of the master key the readings derive from. Two
    // deployments differing only in their master key (and therefore in
    // every secret reading) must disseminate, patch and re-elect
    // identically, so a colluder watching the membership control plane
    // learns zero bits about any reading.
    use ppda::prelude::*;

    let topology = Topology::flocklab();
    let n = topology.len() as u16;
    let events = vec![
        MembershipEvent::leave(3, n - 2),
        MembershipEvent::crash(5, n - 3),
        MembershipEvent::rejoin(10, n - 2),
    ];
    let run = |key: [u8; 16]| {
        let config = ppda::mpc::ProtocolConfig::builder(topology.len())
            .sources(6)
            .master_key(key)
            .build()
            .unwrap();
        let deployment = Deployment::builder()
            .topology(topology.clone())
            .config(config)
            .protocol(ProtocolKind::S4)
            .seed(0xD15C)
            .membership(events.clone())
            .build()
            .unwrap();
        let deltas = deployment
            .membership()
            .expect("timeline compiled")
            .deltas()
            .to_vec();
        let mut driver = deployment.driver();
        let reports: Vec<RoundReport> = (0..16).map(|_| driver.step().unwrap()).collect();
        let patches: Vec<Option<PlanPatch>> = reports.iter().map(|r| r.patch).collect();
        let sums: Vec<Vec<u64>> = reports
            .iter()
            .map(|r| r.outcome.expected_sums.clone())
            .collect();
        (deltas, patches, sums)
    };

    let (deltas_a, patches_a, sums_a) = run([0x11; 16]);
    let (deltas_b, patches_b, sums_b) = run([0xEE; 16]);
    assert_eq!(deltas_a, deltas_b, "dissemination must ignore secrets");
    assert_eq!(patches_a, patches_b, "patching must ignore secrets");
    assert_ne!(sums_a, sums_b, "sanity: the readings really differ");
}

#[test]
fn churn_never_shrinks_the_secrecy_margin() {
    // Membership churn only ever removes destinations from (or restores
    // them to) the elected set — it can hand a fixed collusion no extra
    // share points. Walk a churny S4 run and check the live destination
    // set against the static baseline at every round: the colluders'
    // view never grows, the margin never shrinks, and a fresh worst-case
    // collusion of k current aggregators still learns nothing.
    use ppda::prelude::*;

    let topology = Topology::flocklab();
    let (config, aggregators) = aggregator_setup(&topology);
    let k = config.degree;
    let colluders: Vec<u16> = aggregators[..k].to_vec();
    let baseline = SecrecyAnalysis::new(k, &aggregators, &colluders);
    assert!(baseline.secret_hidden());

    let events = vec![
        MembershipEvent::crash(2, aggregators[0]),
        MembershipEvent::leave(4, aggregators[1]),
        MembershipEvent::rejoin(9, aggregators[0]),
    ];
    let deployment = Deployment::builder()
        .topology(topology.clone())
        .config(config)
        .protocol(ProtocolKind::S4)
        .seed(0xD15C)
        .membership(events)
        .build()
        .unwrap();
    let mut driver = deployment.driver();
    let mut patched_rounds = 0;
    for _ in 0..16 {
        let report = driver.step().unwrap();
        if report.membership_patch().is_some() {
            patched_rounds += 1;
        }
        let destinations = driver.plan().destinations().to_vec();
        let now = SecrecyAnalysis::new(k, &destinations, &colluders);
        assert!(
            now.observed_points() <= baseline.observed_points(),
            "churn cannot add observations"
        );
        assert!(
            now.margin() >= baseline.margin(),
            "churn cannot shrink the secrecy margin"
        );
        assert!(now.secret_hidden());

        // Even a fresh collusion of k *current* aggregators stays blind.
        let worst: Vec<u16> = destinations[..k.min(destinations.len())].to_vec();
        assert!(SecrecyAnalysis::new(k, &destinations, &worst).secret_hidden());
    }
    assert!(patched_rounds >= 2, "the churn must actually re-elect");
}

#[test]
fn tamper_forgeries_are_detected_across_testbeds() {
    // The active-adversary property the integrity subsystem exists for:
    // on both real testbed models and both protocol variants, a seeded
    // cheating aggregator that forges, lane-swaps or bit-flips its
    // reported sums is caught by the sum audit — while the identical
    // deployment (same seeds, same coordinates) with the adversary
    // removed renders `Verified`.
    use ppda::prelude::*;

    // (tamper kind, lane width, plan). A lane swap runs at B = 8: with one
    // lane a drawn swap degrades to a bit flip.
    let kinds = [
        (
            "forging",
            1,
            TamperPlan::forging(0xBAD, 1.0).with_lane_swap(0.0),
        ),
        (
            "lane swap",
            8,
            TamperPlan::forging(0xBAD, 0.0).with_lane_swap(1.0),
        ),
        (
            "bit flip",
            1,
            TamperPlan::forging(0xBAD, 0.0).with_bit_flip(1.0),
        ),
    ];
    for topology in [Topology::flocklab(), Topology::dcube()] {
        for protocol in [ProtocolKind::S3, ProtocolKind::S4] {
            for (kind, lanes, plan) in &kinds {
                let config = ppda::mpc::ProtocolConfig::builder(topology.len())
                    .sources(6)
                    .ntx_sharing(7)
                    .ntx_reconstruction(7)
                    .batch(*lanes)
                    .integrity(IntegrityMode::On)
                    .build()
                    .unwrap();
                let run = |tamper: TamperPlan| {
                    let deployment = Deployment::builder()
                        .topology(topology.clone())
                        .config(config.clone())
                        .protocol(protocol)
                        .seed(0x7A3)
                        .tamper(tamper)
                        .build()
                        .unwrap();
                    let mut driver = deployment.driver();
                    let reports: Vec<RoundReport> =
                        (0..4).map(|_| driver.step().unwrap()).collect();
                    (reports, driver.stats())
                };

                let (tampered, stats) = run(plan.clone());
                for report in &tampered {
                    assert!(
                        report.integrity().is_tampered(),
                        "{protocol:?}: an always-cheating aggregator ({kind}) must be caught"
                    );
                    assert!(matches!(
                        report.require_verified(),
                        Err(ppda::mpc::MpcError::IntegrityViolation { .. })
                    ));
                }
                assert_eq!(stats.audited_rounds, 4, "{kind}");
                assert_eq!(stats.tampered_rounds, 4, "{kind}");

                let (honest, stats) = run(TamperPlan::none());
                for report in &honest {
                    assert!(
                        report.integrity().is_verified(),
                        "{protocol:?}: same seeds without the adversary must verify"
                    );
                    report.require_verified().unwrap();
                }
                assert_eq!(stats.audited_rounds, 4);
                assert_eq!(stats.tampered_rounds, 0);
            }
        }
    }
}

#[test]
fn honest_integrity_rounds_match_integrity_off_reports() {
    // Enabling integrity must not perturb the protocol itself: an honest
    // integrity-on round carries the `Verified` verdict but is otherwise
    // byte-identical to the same round with integrity off — identical
    // aggregates, transport statistics, survivor sets and fault reports.
    use ppda::prelude::*;

    let topology = Topology::flocklab();
    let run = |mode: IntegrityMode| {
        let config = ppda::mpc::ProtocolConfig::builder(topology.len())
            .sources(6)
            .integrity(mode)
            .build()
            .unwrap();
        let deployment = Deployment::builder()
            .topology(topology.clone())
            .config(config)
            .protocol(ProtocolKind::S4)
            .faults(ppda::mpc::FaultPlan::lossy(0xFA, 0.05))
            .seed(0x0FF)
            .build()
            .unwrap();
        let mut driver = deployment.driver();
        (0..6)
            .map(|_| driver.step().unwrap())
            .collect::<Vec<RoundReport>>()
    };

    let on = run(IntegrityMode::On);
    let off = run(IntegrityMode::Off);
    for (a, b) in on.iter().zip(&off) {
        assert!(a.integrity().is_verified(), "honest rounds must verify");
        assert_eq!(b.integrity(), IntegrityVerdict::Unchecked);
        let mut a = a.clone();
        a.outcome.integrity = IntegrityVerdict::Unchecked;
        a.degraded.integrity = IntegrityVerdict::Unchecked;
        assert_eq!(&a, b, "the verdict must be the only difference");
    }
}

#[test]
fn tamper_metadata_is_secret_independent() {
    // Like fault draws, the tamper layer's decisions (which aggregator
    // cheats, on which lane, by how much) and the audit's detection
    // metadata (verdict, flagged lane, flagged aggregator) are pure
    // functions of seeds and coordinates — NEVER of the secrets. A
    // colluder watching verdicts learns zero bits about any reading.
    use ppda::prelude::*;

    let topology = Topology::flocklab();
    let config = ppda::mpc::ProtocolConfig::builder(topology.len())
        .sources(6)
        .integrity(IntegrityMode::On)
        .build()
        .unwrap();
    let deployment = Deployment::builder()
        .topology_ref(&topology)
        .config(config.clone())
        .protocol(ProtocolKind::S4)
        .tamper(TamperPlan::forging(0xBAD, 0.5).with_bit_flip(0.2))
        .build()
        .unwrap();
    let failed = vec![false; topology.len()];
    let secrets_a: Vec<u64> = (0..6u64).map(|i| 100 + i).collect();
    let secrets_b: Vec<u64> = (0..6u64).map(|i| 65_000 - 7 * i).collect();
    let mut driver = deployment.driver();
    for seed in [4u64, 17, 0xC0FFEE] {
        let a = driver
            .round_at_with(config.round_id, seed, &secrets_a, &failed)
            .unwrap();
        let b = driver
            .round_at_with(config.round_id, seed, &secrets_b, &failed)
            .unwrap();
        assert_eq!(
            a.degraded.integrity, b.degraded.integrity,
            "detection metadata must not depend on the secrets (seed {seed})"
        );
        assert_eq!(a.degraded.survivors, b.degraded.survivors);
        assert_ne!(
            a.outcome.expected_sums, b.outcome.expected_sums,
            "sanity: the readings really differ"
        );
    }
}
