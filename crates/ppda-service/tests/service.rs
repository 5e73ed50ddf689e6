//! Differential conformance for the campaign engine: work-stealing,
//! out-of-order, multi-worker execution must be **byte-identical** to
//! driving every deployment single-threaded, and a checkpoint/restore
//! cycle must change nothing about subsequent rounds.

use ppda_metrics::CampaignAccumulator;
use ppda_mpc::{
    Deployment, FaultPlan, MembershipEvent, ProtocolConfig, ProtocolKind, RoundObserver,
    RoundReport,
};
use ppda_service::{CampaignEngine, ClockMode, DeploymentSpec, EngineError};
use ppda_topology::Topology;

/// A deliberately heterogeneous fleet: different topologies, protocol
/// variants, lane widths, fault plans, seeds and clock modes.
fn fleet() -> Vec<DeploymentSpec> {
    let mut specs = Vec::new();

    let topology = Topology::grid(3, 3, 15.0, 9);
    let config = ProtocolConfig::builder(topology.len())
        .sources(3)
        .build()
        .expect("grid config");
    let mut spec = DeploymentSpec::new("plain-s4", topology, config);
    spec.seed = 0xA11CE;
    specs.push(spec);

    let topology = Topology::grid(4, 3, 15.0, 21);
    let config = ProtocolConfig::builder(topology.len())
        .sources(4)
        .build()
        .expect("grid config");
    let mut spec = DeploymentSpec::new("plain-s3", topology, config);
    spec.protocol = ProtocolKind::S3;
    spec.seed = 0xB0B;
    specs.push(spec);

    let topology = Topology::grid(3, 3, 15.0, 33);
    let config = ProtocolConfig::builder(topology.len())
        .sources(3)
        .batch(4)
        .build()
        .expect("batched config");
    let mut spec = DeploymentSpec::new("batched", topology, config);
    spec.seed = 0xBA7C;
    specs.push(spec);

    let topology = Topology::grid(3, 4, 15.0, 45);
    let config = ProtocolConfig::builder(topology.len())
        .sources(4)
        .build()
        .expect("faulty config");
    let mut spec = DeploymentSpec::new("faulty", topology, config);
    spec.faults = FaultPlan::lossy(0x5EED, 0.15).with_dropout(0.05);
    spec.seed = 0xFA17;
    specs.push(spec);

    let topology = Topology::grid(3, 3, 15.0, 57);
    let config = ProtocolConfig::builder(topology.len())
        .sources(3)
        .build()
        .expect("striped config");
    let mut spec = DeploymentSpec::new("seed-striped", topology, config);
    spec.clock = ClockMode::SeedStripe { round_id: 7 };
    spec.seed = 1000;
    specs.push(spec);

    // Online membership: node 6 is provisioned late (join-first nodes
    // start absent), node 8 leaves and later rejoins, node 7 crashes.
    let topology = Topology::grid(3, 3, 15.0, 69);
    let config = ProtocolConfig::builder(topology.len())
        .sources(3)
        .build()
        .expect("churny config");
    let mut spec = DeploymentSpec::new("churny", topology, config);
    spec.membership = vec![
        MembershipEvent::leave(2, 8),
        MembershipEvent::join(4, 6),
        MembershipEvent::crash(6, 7),
        MembershipEvent::rejoin(12, 8),
    ];
    spec.seed = 0xC0FFEE;
    specs.push(spec);

    specs
}

/// The single-threaded reference stream: `rounds` reports of `spec`
/// starting at round index `from`, plus the accumulator over them.
fn baseline(
    spec: &DeploymentSpec,
    from: u64,
    rounds: u64,
) -> (Vec<RoundReport>, CampaignAccumulator) {
    let mut builder = Deployment::builder()
        .topology(spec.topology.clone())
        .config(spec.config.clone())
        .protocol(spec.protocol)
        .faults(spec.faults.clone())
        .seed(spec.seed);
    if !spec.membership.is_empty() {
        builder = builder
            .membership(spec.membership.clone())
            .trickle(spec.trickle);
    }
    let deployment = builder.build().expect("spec compiles");
    let mut driver = deployment.driver();
    let mut acc = CampaignAccumulator::new();
    let mut reports = Vec::new();
    for index in from..from + rounds {
        let (round_id, seed) = spec.coordinates(index);
        let report = driver
            .round_at(round_id, seed)
            .expect("baseline round runs");
        acc.on_round(&report);
        reports.push(report);
    }
    (reports, acc)
}

fn assert_same_metrics(a: &CampaignAccumulator, b: &CampaignAccumulator) {
    assert_eq!(a.rounds(), b.rounds());
    assert_eq!(a.round_success(), b.round_success());
    assert_eq!(a.node_success(), b.node_success());
    assert_eq!(a.latency(), b.latency());
    assert_eq!(a.radio_on(), b.radio_on());
    assert_eq!(a.recovery_rate(), b.recovery_rate());
    assert_eq!(a.margin_histogram(), b.margin_histogram());
}

#[test]
fn engine_streams_are_byte_identical_to_single_threaded_drivers() {
    let specs = fleet();
    // chunk 3 with 10 rounds forces several spans per deployment, and 4
    // workers on a fleet of 5 forces interleaving and stealing.
    let engine = CampaignEngine::builder()
        .workers(4)
        .chunk(3)
        .deployments(specs.clone())
        .build()
        .expect("fleet compiles");
    let recorded = engine.advance_recorded(10).expect("advance runs");
    assert_eq!(recorded.len(), specs.len());

    let snapshot = engine.snapshot();
    for (dep, spec) in specs.iter().enumerate() {
        let (reports, acc) = baseline(spec, 0, 10);
        // RoundReport derives PartialEq over the full outcome graph:
        // equality here is byte-identity of every aggregate, share path
        // and fault report.
        assert_eq!(recorded[dep], reports, "deployment {} diverged", spec.name);
        assert_eq!(snapshot.deployments()[dep].completed, 10);
        assert_same_metrics(&snapshot.deployments()[dep].metrics, &acc);
    }
}

#[test]
fn advances_continue_the_round_clock() {
    let specs = fleet();
    let engine = CampaignEngine::builder()
        .workers(2)
        .chunk(2)
        .deployments(specs.clone())
        .build()
        .expect("fleet compiles");
    engine.advance(6).expect("first advance");
    let recorded = engine.advance_recorded(4).expect("second advance");

    for (dep, spec) in specs.iter().enumerate() {
        let (reports, _) = baseline(spec, 6, 4);
        assert_eq!(recorded[dep], reports, "deployment {} diverged", spec.name);
        assert_eq!(engine.completed(dep), 10);
    }
}

#[test]
fn advance_stats_account_for_every_round() {
    let engine = CampaignEngine::builder()
        .workers(3)
        .chunk(4)
        .deployments(fleet())
        .build()
        .expect("fleet compiles");
    let stats = engine.advance(8).expect("advance runs");
    assert_eq!(stats.rounds, 6 * 8);
    assert_eq!(stats.per_worker.len(), 3);
    assert_eq!(stats.per_worker.iter().sum::<u64>(), 6 * 8);
    assert_eq!(engine.snapshot().total_rounds(), 6 * 8);
}

#[test]
fn worker_count_does_not_change_results() {
    let specs = fleet();
    let mut merged: Vec<CampaignAccumulator> = Vec::new();
    for workers in [1usize, 2, 4] {
        let engine = CampaignEngine::builder()
            .workers(workers)
            .chunk(2)
            .deployments(specs.clone())
            .build()
            .expect("fleet compiles");
        engine.advance(6).expect("advance runs");
        merged.push(engine.snapshot().merged());
    }
    assert_same_metrics(&merged[0], &merged[1]);
    assert_same_metrics(&merged[0], &merged[2]);
}

#[test]
fn a_panicking_round_surfaces_as_worker_panicked_and_taints() {
    // Silence the default panic hook: the probe's panic is expected and
    // caught inside the worker pool.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let engine = CampaignEngine::builder()
        .workers(2)
        .chunk(2)
        .deployments(fleet())
        .panic_probe(1, 3)
        .build()
        .expect("fleet compiles");
    let err = engine.advance(6).expect_err("the probe must fire");
    std::panic::set_hook(hook);

    match err {
        EngineError::WorkerPanicked {
            deployment,
            name,
            round_index,
            message,
        } => {
            assert_eq!(deployment, 1);
            assert_eq!(name, "plain-s3");
            assert_eq!(round_index, 3);
            assert!(message.contains("synthetic worker panic"), "{message}");
        }
        other => panic!("expected WorkerPanicked, got: {other}"),
    }
    // The round stream has a hole, so the engine refuses to continue.
    assert!(engine.is_tainted());
    assert!(matches!(engine.advance(1), Err(EngineError::Tainted)));
}

#[cfg(feature = "serde")]
mod checkpointing {
    use super::*;
    use ppda_service::{Checkpoint, CheckpointError};
    use serde::value::{from_value, to_value};

    #[test]
    fn restore_is_byte_identical_to_an_uninterrupted_run() {
        let specs = fleet();
        // The uninterrupted reference: 6 + 4 rounds in one engine.
        let uninterrupted = CampaignEngine::builder()
            .workers(3)
            .chunk(2)
            .deployments(specs.clone())
            .build()
            .expect("fleet compiles");
        uninterrupted.advance(6).expect("reference first leg");
        let reference_tail = uninterrupted
            .advance_recorded(4)
            .expect("reference second leg");

        // The interrupted run: 6 rounds, checkpoint, restore, 4 rounds.
        let engine = CampaignEngine::builder()
            .workers(3)
            .chunk(2)
            .deployments(specs.clone())
            .build()
            .expect("fleet compiles");
        engine.advance(6).expect("first leg");
        let checkpoint = Checkpoint::capture(&engine).expect("checkpoint");
        drop(engine);

        let restored = Checkpoint::from_bytes(checkpoint.as_bytes().to_vec())
            .restore()
            .expect("restore");
        assert_eq!(restored.workers(), 3);
        assert_eq!(restored.chunk(), 2);
        for (dep, spec) in specs.iter().enumerate() {
            assert_eq!(restored.completed(dep), 6);
            assert_eq!(restored.spec(dep).name, spec.name);
        }
        let restored_tail = restored.advance_recorded(4).expect("second leg");

        // Subsequent rounds are byte-identical...
        assert_eq!(restored_tail, reference_tail);
        // ...and so are the merged end-of-campaign metrics.
        let a = uninterrupted.snapshot();
        let b = restored.snapshot();
        for (x, y) in a.deployments().iter().zip(b.deployments()) {
            assert_eq!(x.completed, y.completed);
            assert_same_metrics(&x.metrics, &y.metrics);
        }
        assert_same_metrics(&a.merged(), &b.merged());
    }

    #[test]
    fn checkpoint_round_trips_through_serde() {
        let engine = CampaignEngine::builder()
            .workers(2)
            .deployments(fleet())
            .build()
            .expect("fleet compiles");
        engine.advance(3).expect("advance runs");
        let checkpoint = Checkpoint::capture(&engine).expect("checkpoint");
        let back: Checkpoint = from_value(to_value(&checkpoint).unwrap()).unwrap();
        assert_eq!(back, checkpoint);
        let restored = back.restore().expect("restore");
        assert_eq!(restored.len(), engine.len());
        assert_eq!(restored.snapshot().total_rounds(), 6 * 3);
    }

    #[test]
    fn membership_specs_round_trip_through_checkpoints() {
        let specs = fleet();
        let engine = CampaignEngine::builder()
            .workers(2)
            .deployments(specs.clone())
            .build()
            .expect("fleet compiles");
        engine.advance(4).expect("advance runs");
        let restored = Checkpoint::capture(&engine)
            .expect("checkpoint")
            .restore()
            .expect("restore");
        for (dep, spec) in specs.iter().enumerate() {
            assert_eq!(restored.spec(dep).membership, spec.membership);
            assert_eq!(restored.spec(dep).trickle, spec.trickle);
        }
        // The churny deployment keeps producing the exact rounds an
        // uninterrupted engine would after the restore.
        let churny = specs.iter().position(|s| s.name == "churny").unwrap();
        let (reports, _) = baseline(&specs[churny], 4, 6);
        let recorded = restored.advance_recorded(6).expect("post-restore leg");
        assert_eq!(recorded[churny], reports);
    }

    /// A fresh, membership-free, single-deployment engine whose current
    /// (v4) checkpoint blob this strips back down to an older encoding:
    /// the per-spec appendices sit right before the trailing `completed`
    /// u64 and the length-prefixed (empty) accumulator — v2 added a
    /// 24-byte appendix (membership count 0 as u64, four u32 Trickle
    /// params), v3 a single fragmentation-flag byte after it, v4 a
    /// single integrity-mode byte after that.
    fn legacy_checkpoint_fixture() -> (DeploymentSpec, Vec<u8>, usize) {
        let spec = {
            let topology = Topology::grid(3, 3, 15.0, 9);
            let config = ProtocolConfig::builder(topology.len())
                .sources(3)
                .build()
                .expect("grid config");
            DeploymentSpec::new("legacy", topology, config)
        };
        let engine = CampaignEngine::builder()
            .workers(1)
            .deployment(spec.clone())
            .build()
            .expect("spec compiles");
        let current = Checkpoint::capture(&engine).expect("checkpoint");
        let bytes = current.as_bytes().to_vec();
        let metrics_len = 8 + CampaignAccumulator::new().to_blob().len();
        let trailer_len = 8 + metrics_len;
        (spec, bytes, trailer_len)
    }

    #[test]
    fn version_1_checkpoints_still_restore() {
        let (spec, bytes, trailer_len) = legacy_checkpoint_fixture();
        // Strip the v4 integrity byte, the v3 flag byte and the v2
        // appendix, rewind the version byte to synthesize the v1
        // encoding.
        let appendix_at = bytes.len() - (26 + trailer_len);
        let mut v1 = bytes;
        v1.drain(appendix_at..appendix_at + 26);
        v1[0] = 1;

        let restored = Checkpoint::from_bytes(v1).restore().expect("v1 restores");
        assert_eq!(restored.spec(0).name, "legacy");
        assert!(restored.spec(0).membership.is_empty());
        assert_eq!(restored.spec(0).trickle, spec.trickle);
        assert!(!restored.spec(0).config.fragmentation);
        assert!(!restored.spec(0).config.integrity.is_on());
        restored.advance(2).expect("restored engine runs");
    }

    #[test]
    fn version_2_checkpoints_still_restore() {
        let (spec, bytes, trailer_len) = legacy_checkpoint_fixture();
        // Strip the v3 fragmentation and v4 integrity bytes to
        // synthesize v2.
        let flag_at = bytes.len() - (2 + trailer_len);
        let mut v2 = bytes;
        v2.drain(flag_at..flag_at + 2);
        v2[0] = 2;

        let restored = Checkpoint::from_bytes(v2).restore().expect("v2 restores");
        assert_eq!(restored.spec(0).name, "legacy");
        assert_eq!(restored.spec(0).trickle, spec.trickle);
        assert!(!restored.spec(0).config.fragmentation);
        assert!(!restored.spec(0).config.integrity.is_on());
        restored.advance(2).expect("restored engine runs");
    }

    #[test]
    fn version_3_checkpoints_still_restore() {
        let (spec, bytes, trailer_len) = legacy_checkpoint_fixture();
        // Strip only the v4 integrity byte to synthesize v3.
        let flag_at = bytes.len() - (1 + trailer_len);
        let mut v3 = bytes;
        v3.drain(flag_at..flag_at + 1);
        v3[0] = 3;

        let restored = Checkpoint::from_bytes(v3).restore().expect("v3 restores");
        assert_eq!(restored.spec(0).name, "legacy");
        assert_eq!(restored.spec(0).trickle, spec.trickle);
        assert!(!restored.spec(0).config.integrity.is_on());
        restored.advance(2).expect("restored engine runs");
    }

    #[test]
    fn integrity_mode_survives_checkpoint_round_trip() {
        let topology = Topology::grid(3, 3, 15.0, 9);
        let config = ProtocolConfig::builder(topology.len())
            .sources(3)
            .integrity(ppda_mpc::IntegrityMode::On)
            .build()
            .expect("grid config");
        let spec = DeploymentSpec::new("audited", topology, config);
        let engine = CampaignEngine::builder()
            .workers(1)
            .deployment(spec)
            .build()
            .expect("spec compiles");
        engine.advance(2).expect("advance runs");
        let restored = Checkpoint::capture(&engine)
            .expect("checkpoint")
            .restore()
            .expect("restore");
        assert!(restored.spec(0).config.integrity.is_on());
        restored.advance(2).expect("restored engine runs");
    }

    #[test]
    fn checkpointed_configs_are_checked_on_restore() {
        // Two blobs that differ only in the encoded degree locate its
        // bytes. Zeroing them leaves a blob that decodes field by field
        // into a degree-0 configuration, which must not compile.
        let capture = |degree| {
            let topology = Topology::grid(3, 3, 15.0, 9);
            let config = ProtocolConfig::builder(topology.len())
                .sources(3)
                .degree(degree)
                .build()
                .expect("grid config");
            let engine = CampaignEngine::builder()
                .workers(1)
                .deployment(DeploymentSpec::new("degree", topology, config))
                .build()
                .expect("spec compiles");
            Checkpoint::capture(&engine)
                .expect("checkpoint")
                .as_bytes()
                .to_vec()
        };
        let (one, mut blob) = (capture(1), capture(2));
        let at = one
            .iter()
            .zip(&blob)
            .position(|(a, b)| a != b)
            .expect("the blobs differ in the degree");
        assert_eq!((one[at], blob[at]), (1, 2));
        blob[at] = 0;
        match Checkpoint::from_bytes(blob).restore() {
            Err(CheckpointError::Compile(ppda_mpc::MpcError::InvalidConfig { what })) => {
                assert!(what.contains("degree 0"), "{what}")
            }
            Err(other) => panic!("expected a degree-0 compile error, got {other}"),
            Ok(_) => panic!("a degree-0 checkpoint restored"),
        }
    }

    #[test]
    fn malformed_checkpoints_are_rejected() {
        let engine = CampaignEngine::builder()
            .workers(1)
            .deployments(fleet())
            .build()
            .expect("fleet compiles");
        let checkpoint = Checkpoint::capture(&engine).expect("checkpoint");
        let bytes = checkpoint.as_bytes();
        // Truncation.
        assert!(Checkpoint::from_bytes(&bytes[..bytes.len() - 1])
            .restore()
            .is_err());
        // Wrong version byte.
        let mut wrong = bytes.to_vec();
        wrong[0] = 99;
        assert!(Checkpoint::from_bytes(wrong).restore().is_err());
        // serde layer rejects non-checkpoint payloads eagerly.
        assert!(from_value::<Checkpoint>(to_value(&vec![9u8, 9, 9]).unwrap()).is_err());
    }
}

/// Release-mode stress lane: a large fleet of small deployments, a few
/// rounds each (`cargo test --release -p ppda-service -- --ignored`).
#[test]
#[ignore = "release-mode stress lane (see CI service-stress job)"]
fn thousand_deployment_fleet_accounts_for_every_round() {
    let specs: Vec<DeploymentSpec> = (0..1000u64)
        .map(|site| {
            let topology = Topology::grid(3, 3, 15.0, site);
            let config = ProtocolConfig::builder(topology.len())
                .sources(3)
                .build()
                .expect("grid config");
            let mut spec = DeploymentSpec::new(format!("site-{site}"), topology, config);
            spec.seed = site.wrapping_mul(0x9E37_79B9);
            spec
        })
        .collect();
    let engine = CampaignEngine::builder()
        .workers(4)
        .chunk(1)
        .deployments(specs)
        .build()
        .expect("fleet compiles");
    let stats = engine.advance(2).expect("advance runs");
    assert_eq!(stats.rounds, 2000);
    let snapshot = engine.snapshot();
    assert_eq!(snapshot.total_rounds(), 2000);
    assert!(snapshot
        .deployments()
        .iter()
        .all(|d| d.completed == 2 && d.metrics.rounds() == 2));
    assert!(snapshot.merged().round_success() > 0.5);
}
