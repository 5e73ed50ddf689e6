//! The `Deployment` façade's conformance suite.
//!
//! Contracts enforced here:
//!
//! 1. **Driven rounds are frozen byte for byte** — a golden fixture,
//!    recorded while the legacy single-shot paths still matched the
//!    driver, holds a digest of every `RoundReport` field at the legacy
//!    differentials' coordinates; each differential checks its own lines
//!    and one test checks and regenerates the whole file. Three more
//!    fixtures freeze fragmented rounds (B = 64 and 256), rounds on
//!    81- and 128-node grids, and integrity-on rounds under every tamper
//!    kind the same way.
//! 2. **One pipeline, every scenario** — batching, fault plans and churn
//!    all flow through the same `step()`; observers see every round.
//! 3. **The report format is frozen** — a golden fixture pins
//!    `RoundReport`'s `Display` text alongside the degraded-outcome
//!    fixtures.
//! 4. **Error-type hygiene** — every public error type in the workspace
//!    implements `Display + std::error::Error + Send + Sync`.

use ppda::mpc::{
    Deployment, FaultPlan, IntegrityMode, IntegrityVerdict, MpcError, ProtocolConfig, ProtocolKind,
    RecoveryStatus, RoundObserver, RoundReport, TamperPlan,
};
use ppda::topology::Topology;
use ppda_bench::TestbedSetup;
use ppda_metrics::{CampaignAccumulator, Summary};
use ppda_testkit::{assert_golden, drive_round, grid9_deployment, lossy_flocklab_deployment};

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

/// A frozen coordinate: its case key and the round driven there.
type Case = (String, RoundReport);

/// `kind` at lane width `lanes` with readings drawn from the seed, at the
/// four seeds the single-shot differentials ran.
fn generated_cases(
    topology: &Topology,
    base_config: &ProtocolConfig,
    kind: ProtocolKind,
    lanes: usize,
) -> Vec<Case> {
    let mut config = base_config.clone();
    config.batch = lanes;
    [1u64, 7, 42, 0xBEEF]
        .into_iter()
        .map(|seed| {
            let key = format!("{} {} B={lanes} seed={seed}", topology.name(), kind.name());
            let report = drive_round(topology, &config, kind, seed, None).unwrap();
            (key, report)
        })
        .collect()
}

/// `kind` at B = 1 with readings `100 + i` and nodes 1 and n − 1 failed,
/// at seeds 3 and 19.
fn failure_cases(topology: &Topology, config: &ProtocolConfig, kind: ProtocolKind) -> Vec<Case> {
    let n = topology.len();
    let readings: Vec<u64> = (0..config.sources.len() as u64).map(|i| 100 + i).collect();
    let mut failed = vec![false; n];
    failed[1] = true;
    failed[n - 1] = true;
    [3u64, 19]
        .into_iter()
        .map(|seed| {
            let key = format!(
                "{} {} B=1 seed={seed} readings=100+i failed=1,{}",
                topology.name(),
                kind.name(),
                n - 1
            );
            let inputs = Some((&readings[..], &failed[..]));
            let report = drive_round(topology, config, kind, seed, inputs).unwrap();
            (key, report)
        })
        .collect()
}

/// Three stepped S4 epochs of the driver clock at base seed 0xFEED.
fn epoch_cases(topology: &Topology, config: &ProtocolConfig) -> Vec<Case> {
    let deployment = Deployment::builder()
        .topology_ref(topology)
        .config(config.clone())
        .protocol(ProtocolKind::S4)
        .seed(0xFEED)
        .build()
        .unwrap();
    let mut driver = deployment.driver();
    (0..3)
        .map(|epoch| {
            let key = format!("{} S4 B=1 epoch={epoch} base_seed=0xfeed", topology.name());
            (key, driver.step().unwrap())
        })
        .collect()
}

/// One golden line: the case key and a transcript digest of the report's
/// `Debug` text, which covers every field of the `RoundReport`. The full
/// report goes to the captured test output, so a drifting line can be
/// inspected from the failure log.
fn golden_line(key: &str, report: &RoundReport) -> String {
    let text = format!("{report:?}");
    eprintln!("{key}\n{text}");
    let mut transcript = ppda::integrity::Transcript::new(b"ppda/golden/driver_rounds");
    transcript.absorb(b"report", text.as_bytes());
    let digest: String = transcript
        .challenge_block(b"digest")
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    format!("{key} {digest}\n")
}

/// The committed `tests/golden/driver_rounds.txt`, compiled in.
const FROZEN_ROUNDS: &str = include_str!("golden/driver_rounds.txt");

/// The round at a frozen coordinate reproduces its fixture line. Under
/// `GOLDEN_REGEN` nothing is compared, as in `assert_golden`: the
/// whole-file test rewrites the fixture and the next build compiles it in.
fn assert_frozen((key, report): &Case) {
    let line = golden_line(key, report);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        return;
    }
    let frozen = FROZEN_ROUNDS
        .lines()
        .find(|l| l.rsplit_once(' ').is_some_and(|(k, _)| k == key));
    assert_eq!(
        frozen,
        Some(line.trim_end()),
        "{key} drifted from tests/golden/driver_rounds.txt"
    );
}

/// The whole fixture, in file order: per testbed, S3 and S4 at
/// B ∈ {1, 4} with generated readings, then the failure cases, then the
/// stepped epochs — 46 lines. Regenerate with `GOLDEN_REGEN=1` only for
/// an intentional change of round semantics.
#[test]
fn driver_rounds_match_golden_digests() {
    let mut lines = String::new();
    for (topology, config) in testbeds() {
        let mut cases = Vec::new();
        for kind in [ProtocolKind::S3, ProtocolKind::S4] {
            for lanes in [1, 4] {
                cases.extend(generated_cases(&topology, &config, kind, lanes));
            }
        }
        for kind in [ProtocolKind::S3, ProtocolKind::S4] {
            cases.extend(failure_cases(&topology, &config, kind));
        }
        cases.extend(epoch_cases(&topology, &config));
        lines.extend(cases.iter().map(|(key, report)| golden_line(key, report)));
    }
    assert_eq!(lines.lines().count(), 46);
    assert_golden("driver_rounds.txt", &lines);
}

/// Fragmented rounds, whose share and sum packets span several frames,
/// frozen the same way: each case is `config_wide(6, B)` driven at
/// `round_at(round_id, seed)`. FlockLab S3 and S4 at B = 64 with
/// integrity off, S4 with integrity on, S4 under delivery faults and a
/// forging aggregator, D-Cube S4 at B = 64, and FlockLab S4 at B = 256
/// (10 frames per packet) — 11 lines.
#[test]
fn fragmented_rounds_match_golden_digests() {
    let faults = FaultPlan::lossy(0xFA17, 0.2)
        .with_delay(0.05)
        .with_duplicate(0.05);
    let tamper = TamperPlan::forging(7, 0.5);
    let (flocklab, dcube) = (TestbedSetup::flocklab(), TestbedSetup::dcube());
    let (off, on) = (IntegrityMode::Off, IntegrityMode::On);
    // (testbed, protocol, B, integrity, faults and tampering, seeds).
    let cases = [
        (&flocklab, ProtocolKind::S3, 64, off, false, &[1u64, 7][..]),
        (&flocklab, ProtocolKind::S4, 64, off, false, &[1, 7]),
        (&flocklab, ProtocolKind::S4, 64, on, false, &[1, 7]),
        (&flocklab, ProtocolKind::S4, 64, on, true, &[1, 7, 42]),
        (&dcube, ProtocolKind::S4, 64, on, false, &[1]),
        (&flocklab, ProtocolKind::S4, 256, off, false, &[1]),
    ];
    let mut lines = String::new();
    let mut faulty_reports = Vec::new();
    for (setup, kind, batch, integrity, faulty, seeds) in cases {
        let topology = setup.topology();
        let mut config = setup.config_wide(6, batch).unwrap();
        config.integrity = integrity;
        let mut builder = Deployment::builder()
            .topology_ref(&topology)
            .config(config.clone())
            .protocol(kind);
        let mut plans = "";
        if faulty {
            builder = builder.faults(faults.clone()).tamper(tamper.clone());
            plans = " faults=lossy+delay+dup tamper=forging";
        }
        let deployment = builder.build().unwrap();
        let mut driver = deployment.driver();
        for &seed in seeds {
            let report = driver.round_at(config.round_id, seed).unwrap();
            let key = format!(
                "{} {} B={batch} integrity={integrity:?}{plans} seed={seed}",
                setup.name,
                kind.name()
            );
            lines.push_str(&golden_line(&key, &report));
            if faulty {
                faulty_reports.push(report);
            }
        }
    }
    assert_eq!(lines.lines().count(), 11);
    // The faulty rounds reach the verdicts and fault counters that only a
    // degraded round produces.
    assert!(faulty_reports.iter().any(|r| r.integrity().is_tampered()));
    assert!(faulty_reports
        .iter()
        .any(|r| r.integrity() == IntegrityVerdict::Unchecked));
    assert!(faulty_reports.iter().any(|r| !r.recovered()));
    assert!(faulty_reports
        .iter()
        .any(|r| r.degraded.faults.shares_delayed > 0));
    assert!(faulty_reports
        .iter()
        .any(|r| r.degraded.faults.duplicates > 0));
    assert_golden("fragmented_rounds.txt", &lines);
}

/// Integrity-on rounds that fit one frame, frozen under every tamper
/// kind: per testbed, S3 and S4 at B ∈ {1, 8}, each driven at
/// `round_at(round_id, 1)` honest, under a forging, a lane-swapping and a
/// bit-flipping aggregator, and under all three at once over a lossy
/// network with dropout — 40 lines.
#[test]
fn integrity_rounds_match_golden_digests() {
    let lossy = FaultPlan::lossy(0x10, 0.35).with_dropout(0.1);
    let mixed = TamperPlan::forging(0x7B, 0.3)
        .with_lane_swap(0.3)
        .with_bit_flip(0.3);
    // (key suffix, faults, tampering).
    let plans = [
        ("tamper=none", FaultPlan::none(), TamperPlan::none()),
        (
            "tamper=forging",
            FaultPlan::none(),
            TamperPlan::forging(0x7A, 0.5),
        ),
        (
            "tamper=lane_swap",
            FaultPlan::none(),
            TamperPlan::none().with_lane_swap(0.5),
        ),
        (
            "tamper=bit_flip",
            FaultPlan::none(),
            TamperPlan::none().with_bit_flip(0.5),
        ),
        ("faults=lossy+dropout tamper=mixed", lossy, mixed),
    ];
    let mut lines = String::new();
    let mut verdicts = Vec::new();
    for (topology, base_config) in testbeds() {
        for kind in [ProtocolKind::S3, ProtocolKind::S4] {
            for lanes in [1, 8] {
                let mut config = base_config.clone();
                config.batch = lanes;
                config.integrity = IntegrityMode::On;
                for (plans_key, faults, tamper) in &plans {
                    let deployment = Deployment::builder()
                        .topology_ref(&topology)
                        .config(config.clone())
                        .protocol(kind)
                        .faults(faults.clone())
                        .tamper(tamper.clone())
                        .build()
                        .unwrap();
                    let report = deployment.driver().round_at(config.round_id, 1).unwrap();
                    let key = format!(
                        "{} {} B={lanes} integrity=On {plans_key} seed=1",
                        topology.name(),
                        kind.name()
                    );
                    lines.push_str(&golden_line(&key, &report));
                    verdicts.push((key, report.integrity()));
                }
            }
        }
    }
    assert_eq!(lines.lines().count(), 40);
    assert!(verdicts.iter().any(|(_, v)| v.is_verified()));
    assert!(verdicts.iter().any(|(_, v)| v.is_tampered()));
    // Too few usable sum shares survive the lossy D-Cube S4 rounds for
    // the audit to reach its quorum, at both lane widths.
    let unchecked: Vec<&str> = verdicts
        .iter()
        .filter(|(_, v)| *v == IntegrityVerdict::Unchecked)
        .map(|(key, _)| key.as_str())
        .collect();
    for lanes in [1, 8] {
        let key =
            format!("dcube S4 B={lanes} integrity=On faults=lossy+dropout tamper=mixed seed=1");
        assert!(unchecked.contains(&key.as_str()), "{key} must be Unchecked");
    }
    assert_golden("integrity_rounds.txt", &lines);
}

/// Driver rounds on grids of 81 and 128 nodes (the protocol maximum), so
/// node sets span more than one 64-bit word: three stepped rounds each of
/// S3 and S4 with 24 sources under 10% link loss and 5% dropout at base
/// seed 11 — 12 lines.
#[test]
fn large_topology_rounds_match_golden_digests() {
    let faults = FaultPlan::lossy(9, 0.1).with_dropout(0.05);
    let mut lines = String::new();
    for (name, topology) in [
        ("grid9x9", Topology::grid(9, 9, 16.0, 5)),
        ("grid16x8", Topology::grid(16, 8, 15.0, 7)),
    ] {
        let config = ProtocolConfig::builder(topology.len())
            .sources(24)
            .build()
            .unwrap();
        for kind in [ProtocolKind::S3, ProtocolKind::S4] {
            let deployment = Deployment::builder()
                .topology_ref(&topology)
                .config(config.clone())
                .protocol(kind)
                .faults(faults.clone())
                .seed(11)
                .build()
                .unwrap();
            let mut driver = deployment.driver();
            for round in 0..3 {
                let key = format!(
                    "{name} {} sources=24 faults=lossy+dropout seed=11 round={round}",
                    kind.name()
                );
                lines.push_str(&golden_line(&key, &driver.step().unwrap()));
            }
        }
    }
    assert_eq!(lines.lines().count(), 12);
    assert_golden("large_topology_rounds.txt", &lines);
}

/// Zero-fault B = 1 rounds with generated readings, S3 and S4 on both
/// testbeds, recover and reproduce the lines frozen from the legacy
/// single-shot `S3Protocol::run` / `S4Protocol::run` oracles.
#[test]
fn driver_rounds_are_byte_identical_to_legacy_single_shot() {
    for (topology, config) in testbeds() {
        for kind in [ProtocolKind::S3, ProtocolKind::S4] {
            for case in generated_cases(&topology, &config, kind, 1) {
                assert!(case.1.recovered(), "zero-fault rounds always recover");
                assert_frozen(&case);
            }
        }
    }
}

/// Explicit readings with nodes 1 and n − 1 failed: the report marks the
/// failed nodes and reproduces the lines frozen from the legacy
/// `run_with` oracles.
#[test]
fn driver_rounds_match_legacy_under_explicit_inputs_and_failures() {
    for (topology, config) in testbeds() {
        let n = topology.len();
        for kind in [ProtocolKind::S3, ProtocolKind::S4] {
            for case in failure_cases(&topology, &config, kind) {
                let nodes = &case.1.outcome.nodes;
                assert!(nodes[1].failed && nodes[n - 1].failed, "{}", case.0);
                assert_frozen(&case);
            }
        }
    }
}

/// The driver's automatic clock replays the session scheme: round r at
/// `round_id + r` with seed `derive_stream(base, r)`, reproducing the
/// lines frozen from legacy single-shot runs at those coordinates.
#[test]
fn driver_clock_matches_legacy_at_advanced_round_ids() {
    for (topology, config) in testbeds() {
        for (epoch, case) in epoch_cases(&topology, &config).iter().enumerate() {
            assert_eq!(case.1.round_id, config.round_id + epoch as u32);
            assert_eq!(case.1.seed, ppda::sim::derive_stream(0xFEED, epoch as u64));
            assert_frozen(case);
        }
    }
}

/// Batched rounds take the same single path: 4-lane S3 and S4 rounds on
/// both testbeds carry four lanes and reproduce the lines frozen from the
/// executor-level batched round.
#[test]
fn batched_driver_rounds_take_the_same_path() {
    for (topology, config) in testbeds() {
        for kind in [ProtocolKind::S3, ProtocolKind::S4] {
            for case in generated_cases(&topology, &config, kind, 4) {
                assert_eq!(case.1.lanes(), 4);
                assert_frozen(&case);
            }
        }
    }
}

/// An attached accumulator observes exactly what a hand-threaded harness
/// would have recorded.
#[test]
fn campaign_accumulator_subscribes_to_the_driver() {
    let deployment = lossy_flocklab_deployment(6, 0.25);
    let mut acc = CampaignAccumulator::new();
    let reports: Vec<RoundReport> = {
        let mut driver = deployment.driver();
        driver.attach(&mut acc);
        (0..6).map(|_| driver.step().unwrap()).collect()
    };
    assert_eq!(acc.rounds(), 6);
    let recovered = reports.iter().filter(|r| r.recovered()).count() as u64;
    assert_eq!(acc.rounds_recovered(), recovered);
    let live_nodes: usize = reports.iter().map(|r| r.outcome.live_nodes().count()).sum();
    assert_eq!(acc.radio_on().len(), live_nodes);
    let perfect = reports.iter().filter(|r| r.correct()).count();
    assert_eq!(acc.round_success(), perfect as f64 / 6.0);
    // The accumulator's run-length samples summarise exactly as the flat
    // per-node samples do.
    let nodes = || reports.iter().flat_map(|r| r.outcome.live_nodes());
    let latencies: Vec<f64> = nodes()
        .filter_map(|n| n.latency.map(|l| l.as_millis_f64()))
        .collect();
    let radios: Vec<f64> = nodes().map(|n| n.radio_on.as_millis_f64()).collect();
    assert!(!latencies.is_empty());
    assert_eq!(acc.latency(), Summary::of(&latencies));
    assert_eq!(acc.radio_on(), Summary::of(&radios));
}

/// Fused fault plans and the driver's availability stats: a lossy
/// deployment reports recovery like the campaign layer does.
#[test]
fn fused_fault_plans_shape_driver_stats() {
    let deployment = lossy_flocklab_deployment(24, 0.3);
    let mut driver = deployment.driver();
    let epoch = driver.run_epoch(6).unwrap();
    assert_eq!(epoch.rounds, 6);
    assert_eq!(epoch.recovered_rounds + epoch.failed_rounds, 6);
    // Determinism across drivers of the same deployment.
    let again = deployment.driver().run_epoch(6).unwrap();
    assert_eq!(epoch, again);
}

/// `RoundReport::Display` is frozen by a golden fixture, alongside the
/// degraded-outcome fixtures (same regeneration contract:
/// `GOLDEN_REGEN=1`).
#[test]
fn golden_round_report_display() {
    let deployment = lossy_flocklab_deployment(6, 0.3);
    let report = deployment.driver().step().unwrap();
    assert_golden("round_report.txt", &report.to_string());
}

/// Observer fan-out and iterator streaming compose.
#[test]
fn observers_and_iterator_compose() {
    struct Margins(Vec<Option<usize>>);
    impl RoundObserver for Margins {
        fn on_round(&mut self, report: &RoundReport) {
            self.0.push(match report.recovery() {
                RecoveryStatus::Recovered { margin } => Some(margin),
                RecoveryStatus::Failed { .. } => None,
                _ => None, // non_exhaustive: future verdicts
            });
        }
    }
    let deployment = grid9_deployment(ProtocolKind::S4);
    let mut margins = Margins(Vec::new());
    let mut driver = deployment.driver();
    driver.attach(&mut margins);
    // `take` consumes the driver; the observer borrow ends with it.
    let reports: Vec<RoundReport> = driver.take(3).collect::<Result<_, _>>().unwrap();
    assert_eq!(margins.0.len(), 3);
    for (report, margin) in reports.iter().zip(&margins.0) {
        assert_eq!(report.degraded.margin(), *margin);
    }
}

/// Every public error type in the workspace is a well-behaved
/// `std::error::Error`: Display, source chaining, Send + Sync — the audit
/// the API redesign demands before anything lands in `#[non_exhaustive]`
/// signatures.
#[test]
fn public_error_types_are_well_behaved() {
    fn well_behaved<E: std::error::Error + std::fmt::Display + Send + Sync + 'static>(e: E) {
        assert!(!e.to_string().is_empty());
    }
    well_behaved(MpcError::TopologyDisconnected);
    well_behaved(MpcError::BatchTooWide {
        lanes: 64,
        max_lanes: 23,
    });
    well_behaved(ppda::sss::SssError::InconsistentShares);
    well_behaved(ppda::field::FieldError::ZeroAbscissa);
    well_behaved(ppda::crypto::CryptoError::AuthenticationFailed);
    well_behaved(ppda::ct::ChainError::Empty);
    well_behaved(
        ppda::radio::FrameSpec::new(200, 4).expect_err("200-byte payload overflows the PSDU"),
    );
    // And the MpcError source chain survives the façade boundary.
    let err = Deployment::builder().build().unwrap_err();
    let boxed: Box<dyn std::error::Error> = Box::new(err);
    assert!(boxed.to_string().contains("topology"));
}

/// The builder rejects incomplete or impossible deployments with typed
/// errors at build time — nothing defers to the first round.
#[test]
fn deployment_build_time_validation() {
    assert!(matches!(
        Deployment::builder().build(),
        Err(MpcError::InvalidConfig { .. })
    ));
    // Lane widths that overflow the 802.15.4 frame budget die in the
    // config builder, before a deployment is even attempted.
    assert!(matches!(
        ProtocolConfig::builder(26).batch(64).build(),
        Err(MpcError::BatchTooWide { .. })
    ));
}
