//! Online-membership conformance through the public façade.
//!
//! Contracts enforced here:
//!
//! 1. **Aggregator death re-elects from the retained ranking** — when an
//!    S4 aggregator crashes, the patched plan swaps in the next-ranked
//!    node and the round still recovers.
//! 2. **Any round id, in any order** — a membership-driven driver asked
//!    for a round id at or below one it already ran starts over from the
//!    deployment's initial view and reports exactly what a fresh driver
//!    reports, membership patch included.
//! 3. **Patching is visible** — applied deltas surface as
//!    [`RoundReport::membership_patch`] and count into
//!    [`DriverStats::plan_patches`]; a leave reuses the retained pairwise
//!    ciphers.
//!
//! That a patched plan runs every round exactly as a plan recompiled
//! from scratch for that round's membership view does — every event
//! kind, both variants, B ∈ {1, 4}, both testbeds, fault-free and lossy —
//! is checked by `ppda-mpc`'s own unit tests (its `recompile_oracle`
//! module), which re-run each patched round on the recompiled plan.

use ppda::prelude::*;

/// Trickle tuned for short test windows: minimal intervals so a
/// membership announcement converges within a handful of rounds.
fn fast_trickle() -> TrickleConfig {
    TrickleConfig {
        i_min: 1,
        crash_detection: 1,
    }
}

/// One event of every kind, on the three highest node ids (valid on
/// both testbeds). The join-first node starts absent.
fn all_kinds(n: u16) -> Vec<MembershipEvent> {
    vec![
        MembershipEvent::leave(3, n - 2),
        MembershipEvent::crash(5, n - 3),
        MembershipEvent::join(6, n - 1),
        MembershipEvent::rejoin(10, n - 2),
    ]
}

fn churn_deployment(
    topology: &Topology,
    protocol: ProtocolKind,
    batch: usize,
    events: Vec<MembershipEvent>,
) -> Deployment<'_> {
    let config = ProtocolConfig::builder(topology.len())
        .sources(topology.len())
        .batch(batch)
        .build()
        .expect("config builds");
    Deployment::builder()
        .topology(topology.clone())
        .config(config)
        .protocol(protocol)
        .seed(0xD1FF)
        .membership(events)
        .trickle(fast_trickle())
        .build()
        .expect("deployment compiles")
}

/// Drive `rounds` epochs and return the report stream plus the stats.
fn stream(deployment: &Deployment, rounds: usize) -> (Vec<RoundReport>, DriverStats) {
    let mut driver = deployment.driver();
    let reports = (0..rounds)
        .map(|_| driver.step().expect("round runs"))
        .collect();
    (reports, driver.stats())
}

#[test]
fn leave_patches_reuse_pairwise_ccms() {
    // A leave only shrinks the destination set: every retained
    // (source, destination) pair keeps its derived cipher, so the patch
    // must account real reuse — the whole point of patching over
    // recompiling. S3 makes every node a destination, so any leave
    // shrinks the set.
    let topology = Topology::flocklab();
    let n = topology.len() as u16;
    let deployment = churn_deployment(
        &topology,
        ProtocolKind::S3,
        1,
        vec![MembershipEvent::leave(3, n - 2)],
    );
    let (reports, stats) = stream(&deployment, 12);
    assert_eq!(stats.plan_patches, 1);
    let patch = reports
        .iter()
        .find_map(|r| r.membership_patch())
        .expect("the leave becomes effective");
    assert_eq!(patch.left, 1);
    assert_eq!(patch.joined, 0);
    assert!(patch.destinations_changed);
    assert!(
        patch.ccm_reused > 0,
        "a leave-only patch must reuse retained pairwise ciphers"
    );
}

#[test]
fn aggregator_death_re_elects_from_retained_ranking() {
    let topology = Topology::flocklab();
    let config = ProtocolConfig::builder(topology.len())
        .sources(topology.len())
        .build()
        .expect("config builds");
    // Find the top-ranked S4 aggregator from a static deployment first.
    let static_deployment = Deployment::builder()
        .topology(topology.clone())
        .config(config.clone())
        .protocol(ProtocolKind::S4)
        .seed(0xD1FF)
        .build()
        .expect("static deployment compiles");
    let victim = static_deployment.plan().destinations()[0];

    let deployment = churn_deployment(
        &topology,
        ProtocolKind::S4,
        1,
        vec![MembershipEvent::crash(3, victim)],
    );
    let (reports, stats) = stream(&deployment, 12);
    assert_eq!(stats.plan_patches, 1);
    let patched_round = reports
        .iter()
        .find(|r| r.membership_patch().is_some())
        .expect("the crash becomes effective");
    let patch = patched_round.membership_patch().unwrap();
    assert!(patch.destinations_changed);
    // Every round — before, at and after the re-election — recovers and
    // agrees on the correct sum.
    for report in &reports {
        assert!(report.correct(), "round {} wrong", report.round_id);
        assert!(
            report.recovered(),
            "round {} below threshold",
            report.round_id
        );
    }
}

#[test]
fn rewound_drivers_report_what_fresh_drivers_do() {
    let topology = Topology::flocklab();
    let n = topology.len() as u16;
    let deployment = churn_deployment(
        &topology,
        ProtocolKind::S4,
        1,
        vec![MembershipEvent::leave(3, n - 2)],
    );
    let due = deployment.membership().expect("membership-driven").deltas()[0].round;
    assert!(due > 5 && due <= 8, "the leave comes due at round {due}");
    let fresh = |round_id| {
        deployment
            .driver()
            .round_at(round_id, 0xFEED)
            .expect("fresh round runs")
    };
    let left = usize::from(n - 2);
    let mut driver = deployment.driver();
    let forward = driver.round_at(8, 0xFEED).expect("forward round runs");
    assert!(
        forward.outcome.nodes[left].failed,
        "the node has left by round 8"
    );
    // Round 5 precedes the plan's patched state: the driver starts over
    // from the initial view, where the node is still a member, as a
    // fresh driver does.
    let rewound = driver.round_at(5, 0xFEED).expect("rewound round runs");
    assert!(!rewound.outcome.nodes[left].failed);
    assert_eq!(rewound, fresh(5));
    // A repeat of the round the leave comes due reports the patch again.
    let at_due = fresh(due);
    assert!(at_due.membership_patch().is_some());
    for _ in 0..2 {
        assert_eq!(driver.round_at(due, 0xFEED).expect("round runs"), at_due);
    }
    // Static drivers (no membership) replay any round id as well.
    let static_deployment = Deployment::builder()
        .topology(topology.clone())
        .config(
            ProtocolConfig::builder(topology.len())
                .sources(topology.len())
                .build()
                .unwrap(),
        )
        .protocol(ProtocolKind::S4)
        .seed(0xD1FF)
        .build()
        .expect("static deployment compiles");
    let mut static_driver = static_deployment.driver();
    static_driver.round_at(8, 0xFEED).expect("forward");
    assert_eq!(
        static_driver.round_at(5, 0xFEED).expect("rewind is fine"),
        static_deployment.driver().round_at(5, 0xFEED).unwrap()
    );

    // Under loss, rounds reconstruct from survivor masks through the
    // driver's weight cache, which holds weights for its plan's
    // destinations. An aggregator crash at round 20 re-elects them, so a
    // rewind below it must reconstruct with the initial destinations'
    // weights again: three passes over rounds 1..40 match fresh drivers.
    let config = ppda_testkit::grid9_config().sources(3).build().unwrap();
    let lossy_grid = || {
        Deployment::builder()
            .topology(ppda_testkit::grid9())
            .config(config.clone())
            .faults(FaultPlan::lossy(7, 0.3))
            .seed(7)
    };
    let aggregator = lossy_grid().build().unwrap().plan().destinations()[0];
    let deployment = lossy_grid()
        .membership(vec![MembershipEvent::crash(20, aggregator)])
        .trickle(fast_trickle())
        .build()
        .expect("churny grid deployment compiles");
    let mut driver = deployment.driver();
    for pass in 0..3u64 {
        for round_id in 1..40u32 {
            let seed = u64::from(round_id) + 100 * pass;
            assert_eq!(
                driver.round_at(round_id, seed).expect("round runs"),
                deployment.driver().round_at(round_id, seed).unwrap(),
                "round {round_id} of pass {pass}"
            );
        }
    }
}

#[test]
fn fresh_drivers_fast_forward_to_identical_reports() {
    // A driver created mid-campaign must replay the exact same rounds a
    // continuously streaming driver produced — the property the
    // campaign engine's span-parallel execution rests on.
    let topology = Topology::flocklab();
    let n = topology.len() as u16;
    let deployment = churn_deployment(&topology, ProtocolKind::S4, 1, all_kinds(n));
    let (continuous, _) = stream(&deployment, 16);
    for start in [0usize, 5, 9, 13] {
        let mut fresh = deployment.driver();
        for (i, expected) in continuous.iter().enumerate().skip(start) {
            let report = fresh.step_at(i as u64).expect("fast-forwarded round runs");
            assert_eq!(&report, expected, "round {} diverged from start {start}", i);
        }
    }
}

/// Compiled membership timelines, frozen byte for byte. A Trickle
/// transmit point is random only when `i_min` ≥ 3 (a shorter interval
/// `[I/2, I)` holds one round), so the grid spans wider intervals than
/// every other suite, which all run at `i_min` = 1.
/// The event stream holds every kind, a node whose first event is a
/// join (24, absent at the start), an event in force before the first
/// round (the leave at round 0), and a crash whose effective round
/// falls before the first round at small `i_min` and after it at large.
#[test]
fn compiled_timelines_match_golden() {
    const FIRST_ROUND: u32 = 100;
    let events = [
        MembershipEvent::leave(0, 3),
        MembershipEvent::crash(90, 7),
        MembershipEvent::join(100, 24),
        MembershipEvent::leave(104, 12),
        MembershipEvent::crash(104, 18),
        MembershipEvent::rejoin(120, 3),
        MembershipEvent::rejoin(121, 7),
        MembershipEvent::leave(140, 24),
        MembershipEvent::rejoin(141, 12),
        MembershipEvent::join(150, 18),
    ];
    let testbeds = [
        ("flocklab", Topology::flocklab()),
        ("dcube", Topology::dcube()),
        ("grid6x6", Topology::grid(6, 6, 15.0, 3)),
    ];
    let mut out = String::new();
    for (name, topology) in &testbeds {
        let config = ProtocolConfig::builder(topology.len())
            .round_id(FIRST_ROUND)
            .build()
            .expect("config builds");
        let bootstrap = ppda::mpc::Bootstrap::run(topology, &config).expect("bootstrap runs");
        for i_min in [1, 2, 3, 8] {
            for crash_detection in [0, 2] {
                let trickle = TrickleConfig {
                    i_min,
                    crash_detection,
                };
                for seed in [1, 1009] {
                    let timeline = ppda::mpc::MembershipTimeline::compile(
                        &bootstrap, &config, &events, &trickle, seed,
                    )
                    .expect("timeline compiles");
                    let absent: Vec<usize> = (0..topology.len())
                        .filter(|&v| !timeline.initial()[v])
                        .collect();
                    out.push_str(&format!(
                        "{name} i_min={i_min} crash_detection={crash_detection} \
                         seed={seed} absent={absent:?}"
                    ));
                    for delta in timeline.deltas() {
                        out.push_str(&format!(
                            " | {} +{:?} -{:?}",
                            delta.round, delta.joins, delta.leaves
                        ));
                    }
                    out.push('\n');
                }
            }
        }
    }
    ppda_testkit::assert_golden("membership_timelines.txt", &out);
}
