//! Differential conformance for the campaign engine: out-of-order,
//! multi-worker execution from one shared span list must be
//! **byte-identical** to driving every deployment single-threaded, and a
//! checkpoint/restore cycle must change nothing about subsequent rounds.
//! Checkpoints restore only in the version they are captured in.

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

/// Compile `spec` exactly as the engine does.
fn compile(spec: &DeploymentSpec) -> Deployment<'static> {
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
    builder.build().expect("spec compiles")
}

/// The single-threaded reference stream: `rounds` reports of `spec`
/// starting at round index `from`, plus the accumulator over them.
fn baseline(
    spec: &DeploymentSpec,
    from: u64,
    rounds: u64,
) -> (Vec<RoundReport>, CampaignAccumulator) {
    let deployment = compile(spec);
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

/// `ticks` one-round advances of `engine`, each deployment's reports
/// concatenated in round order.
fn recorded_ticks(engine: &CampaignEngine, ticks: u64) -> Vec<Vec<RoundReport>> {
    let mut streams = vec![Vec::new(); engine.len()];
    for _ in 0..ticks {
        let recorded = engine.advance_recorded(1).expect("tick runs");
        for (stream, reports) in streams.iter_mut().zip(recorded) {
            stream.extend(reports);
        }
    }
    streams
}

/// `spec`'s rounds at indices `0..rounds`, each on a fresh driver: what
/// an engine that builds a driver for every span runs under one-round
/// ticks.
fn fresh_rounds(spec: &DeploymentSpec, rounds: u64) -> Vec<RoundReport> {
    let deployment = compile(spec);
    (0..rounds)
        .map(|index| {
            let (round_id, seed) = spec.coordinates(index);
            deployment
                .driver()
                .round_at(round_id, seed)
                .expect("fresh round runs")
        })
        .collect()
}

#[test]
fn resumed_drivers_stream_what_single_threaded_drivers_do() {
    let specs = fleet();
    let baselines: Vec<_> = specs.iter().map(|spec| baseline(spec, 0, 16)).collect();
    for workers in [1usize, 2] {
        for chunk in [Some(1), None] {
            let build = || {
                let mut builder = CampaignEngine::builder()
                    .workers(workers)
                    .deployments(specs.clone());
                if let Some(chunk) = chunk {
                    builder = builder.chunk(chunk);
                }
                builder.build().expect("fleet compiles")
            };
            let streams = recorded_ticks(&build(), 16);
            for (dep, spec) in specs.iter().enumerate() {
                assert_eq!(
                    streams[dep], baselines[dep].0,
                    "deployment {} diverged at {workers} workers, chunk {chunk:?}",
                    spec.name
                );
            }
            // Every tick after the first resumes each deployment's driver:
            // the previous tick parked it.
            let engine = build();
            for tick in 0..16 {
                let stats = engine.advance(1).expect("tick runs");
                let expected = if tick == 0 { 0 } else { specs.len() as u64 };
                assert_eq!(stats.resumed, expected, "tick {tick} at {workers} workers");
            }
            let snapshot = engine.snapshot();
            for (dep, (_, acc)) in baselines.iter().enumerate() {
                assert_same_metrics(&snapshot.deployments()[dep].metrics, acc);
            }
        }
    }
}

/// A membership-driven spec whose round clock wraps: round indices 0..6
/// run round ids MAX-2, MAX-1, MAX, 0, 1, 2, and a leave comes due before
/// the wrap.
fn wrapping_spec() -> DeploymentSpec {
    let topology = Topology::grid(3, 3, 15.0, 69);
    let config = ProtocolConfig::builder(topology.len())
        .sources(3)
        .round_id(u32::MAX - 2)
        .build()
        .expect("wrapping config");
    let mut spec = DeploymentSpec::new("wrapping", topology, config);
    spec.membership = vec![MembershipEvent::leave(u32::MAX - 2, 8)];
    spec.seed = 0xC0FFEE;
    spec
}

/// The fleet's churny deployment on a seed-striped clock pinned to the
/// round its first membership delta comes due: every round runs that one
/// round id, so every fresh driver reports the patch.
fn striped_membership_spec() -> DeploymentSpec {
    let mut spec = fleet()
        .into_iter()
        .find(|s| s.name == "churny")
        .expect("the fleet has a churny deployment");
    let due = compile(&spec)
        .membership()
        .expect("membership-driven")
        .deltas()[0]
        .round;
    spec.clock = ClockMode::SeedStripe { round_id: due };
    spec.name = "striped-churny".into();
    spec
}

#[test]
fn resumed_drivers_run_across_the_round_id_wrap() {
    // A driver patched up to round MAX starts over from the initial view
    // for round 0, as a fresh driver does, so the span after the wrap
    // resumes like any other, and one span crossing the wrap runs too.
    let spec = wrapping_spec();
    let fresh = fresh_rounds(&spec, 6);
    assert_eq!(fresh[3].round_id, 0);
    assert!(
        fresh[..3].iter().any(|r| r.membership_patch().is_some()),
        "the leave must come due before the wrap"
    );

    let build = || {
        CampaignEngine::builder()
            .workers(1)
            .deployment(spec.clone())
            .build()
            .expect("spec compiles")
    };
    assert_eq!(recorded_ticks(&build(), 6), vec![fresh.clone()]);
    let one_span = build().advance_recorded(6).expect("one span runs");
    assert_eq!(one_span, vec![fresh]);
    let engine = build();
    let resumed: Vec<u64> = (0..6)
        .map(|_| engine.advance(1).expect("tick runs").resumed)
        .collect();
    assert_eq!(resumed, [0, 1, 1, 1, 1, 1]);
}

#[test]
fn resumed_drivers_report_every_seed_striped_membership_patch() {
    // A driver already patched for the pinned round starts over from the
    // initial view on each repeat of it, so it reports the patch again,
    // whether its rounds run in one span or in one span per tick.
    let spec = striped_membership_spec();
    let fresh = fresh_rounds(&spec, 4);
    assert!(fresh.iter().all(|r| r.membership_patch().is_some()));

    let build = || {
        CampaignEngine::builder()
            .workers(1)
            .deployment(spec.clone())
            .build()
            .expect("spec compiles")
    };
    assert_eq!(recorded_ticks(&build(), 4), vec![fresh.clone()]);
    let one_span = build().advance_recorded(4).expect("one span runs");
    assert_eq!(one_span, vec![fresh]);
    let engine = build();
    let resumed: Vec<u64> = (0..4)
        .map(|_| engine.advance(1).expect("tick runs").resumed)
        .collect();
    assert_eq!(resumed, [0, 1, 1, 1]);
}

#[test]
fn results_do_not_depend_on_span_length_or_worker_count() {
    // The fleet plus the wrapping and seed-striped membership specs, run
    // as two advances (8 rounds, then 4) at span lengths 1, 3 and the
    // default and on 1, 2 and 4 workers: every stream and every
    // deployment's metrics equal one single-threaded driver's.
    let mut specs = fleet();
    specs.push(wrapping_spec());
    specs.push(striped_membership_spec());
    let baselines: Vec<_> = specs.iter().map(|spec| baseline(spec, 0, 12)).collect();
    for workers in [1usize, 2, 4] {
        for chunk in [Some(1), Some(3), None] {
            let mut builder = CampaignEngine::builder()
                .workers(workers)
                .deployments(specs.clone());
            if let Some(chunk) = chunk {
                builder = builder.chunk(chunk);
            }
            let engine = builder.build().expect("fleet compiles");
            let mut streams = engine.advance_recorded(8).expect("first advance");
            let tail = engine.advance_recorded(4).expect("second advance");
            for (stream, reports) in streams.iter_mut().zip(tail) {
                stream.extend(reports);
            }
            let snapshot = engine.snapshot();
            for (dep, spec) in specs.iter().enumerate() {
                let (reports, acc) = &baselines[dep];
                assert_eq!(
                    &streams[dep], reports,
                    "deployment {} diverged at {workers} workers, chunk {chunk:?}",
                    spec.name
                );
                assert_same_metrics(&snapshot.deployments()[dep].metrics, acc);
            }
        }
    }
}

#[test]
fn a_parked_driver_never_runs_on_another_deployment() {
    let specs = fleet();
    let churny = specs
        .iter()
        .find(|s| s.name == "churny")
        .expect("the fleet has a churny deployment");
    let deployment = compile(churny);
    let mut driver = deployment.driver();
    for index in 0..8 {
        let (round_id, seed) = churny.coordinates(index);
        driver.round_at(round_id, seed).expect("round runs");
    }
    let (tail, _) = baseline(churny, 8, 2);

    // A clone shares the deployment's identity: the state carries on.
    let clone = deployment.clone();
    let mut resumed = clone.resume(driver.park());
    assert_eq!(resumed.stats().rounds, 8);
    let (round_id, seed) = churny.coordinates(8);
    assert_eq!(
        resumed.round_at(round_id, seed).expect("round runs"),
        tail[0]
    );

    // Another deployment, even one compiled from the same spec, drops the
    // state and starts a fresh driver over its own plan.
    let twin = compile(churny);
    let mut on_twin = twin.resume(resumed.park());
    assert_eq!(on_twin.stats().rounds, 0);
    let (round_id, seed) = churny.coordinates(9);
    assert_eq!(
        on_twin.round_at(round_id, seed).expect("round runs"),
        tail[1]
    );

    let plain = &specs[0];
    let other = compile(plain);
    let mut on_other = other.resume(on_twin.park());
    assert_eq!(on_other.stats().rounds, 0);
    assert_eq!(on_other.plan().destinations(), other.plan().destinations());
    let (reports, _) = baseline(plain, 0, 2);
    for (index, report) in reports.iter().enumerate() {
        let (round_id, seed) = plain.coordinates(index as u64);
        assert_eq!(
            &on_other.round_at(round_id, seed).expect("round runs"),
            report
        );
    }
}

#[test]
fn advances_past_the_round_index_budget_are_refused() {
    let engine = CampaignEngine::builder()
        .workers(1)
        .deployments(fleet().into_iter().take(2))
        .build()
        .expect("fleet compiles");
    engine.advance(1).expect("advance runs");
    for (rounds, index) in [(u32::MAX as u64, u32::MAX as u64 + 1), (u64::MAX, u64::MAX)] {
        match engine.advance(rounds) {
            Err(EngineError::RoundIndexOverflow {
                deployment,
                index: at,
            }) => {
                assert_eq!((deployment, at), (0, index), "advance({rounds})")
            }
            other => panic!("advance({rounds}) returned {other:?}"),
        }
    }
    // A refused advance runs nothing and leaves the engine usable.
    assert!(!engine.is_tainted());
    assert_eq!(engine.advance(1).expect("advance runs").rounds, 2);
    assert_eq!(engine.snapshot().total_rounds(), 4);
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
    use ppda_service::{Checkpoint, CheckpointError, MAX_WORKERS};
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

    /// Restored engines are never advanced here: an advance spawns one
    /// OS thread per worker.
    #[test]
    fn worker_counts_above_the_ceiling_are_refused() {
        let engine = CampaignEngine::builder()
            .workers(1)
            .deployment(fleet().swap_remove(0))
            .build()
            .expect("spec compiles");
        let blob = Checkpoint::capture(&engine).expect("checkpoint");
        // The worker count is the u64 right after the version byte.
        let restore_with = |workers: u64| {
            let mut bytes = blob.as_bytes().to_vec();
            bytes[1..9].copy_from_slice(&workers.to_le_bytes());
            Checkpoint::from_bytes(bytes).restore()
        };
        for workers in [u64::MAX, MAX_WORKERS as u64 + 1] {
            match restore_with(workers) {
                Err(CheckpointError::Format(what)) => assert!(what.contains("workers"), "{what}"),
                Err(other) => panic!("expected a format error for {workers} workers, got {other}"),
                Ok(_) => panic!("a {workers}-worker checkpoint restored"),
            }
        }
        let restored = restore_with(MAX_WORKERS as u64).expect("the ceiling restores");
        assert_eq!(restored.workers(), MAX_WORKERS);
        // The builder clamps to the same ceiling.
        let clamped = CampaignEngine::builder()
            .workers(usize::MAX)
            .deployment(fleet().swap_remove(0))
            .build()
            .expect("spec compiles");
        assert_eq!(clamped.workers(), MAX_WORKERS);
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
        // Wrong version byte, including the retired version 4.
        for version in [4, 99] {
            let mut wrong = bytes.to_vec();
            wrong[0] = version;
            assert!(Checkpoint::from_bytes(wrong).restore().is_err());
        }
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

    // One-round ticks: each deployment's one span resumes the driver its
    // previous span parked, so a thousand parked drivers are resumed per
    // tick without losing or repeating a round.
    for tick in 1..=3u64 {
        let stats = engine.advance(1).expect("tick runs");
        assert_eq!(stats.rounds, 1000);
        assert_eq!(stats.resumed, 1000);
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.total_rounds(), 1000 * (2 + tick));
        assert!(snapshot
            .deployments()
            .iter()
            .all(|d| d.completed == 2 + tick && d.metrics.rounds() == 2 + tick));
    }
}
