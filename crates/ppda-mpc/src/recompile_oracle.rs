//! The recompile oracle for membership patching.
//!
//! A membership-driven driver keeps its plan current by patching it
//! ([`RoundPlan::apply`]) as each compiled delta comes due. The reference
//! is a plan compiled from scratch for the membership view in force at
//! the round ([`RoundPlan::new_with_membership`]). These tests re-run
//! every round a patched driver ran on a fresh [`ExecState`] over that
//! recompiled plan, with the readings a driver draws ([`readings_into`])
//! and the deployment's fault and tamper plans, and require the same
//! outcome, the same degraded report and the same patch record. Only the
//! patch's reuse accounting (slots rebuilt, CCM contexts reused or
//! created) is not compared: a full recompile reuses nothing.

use proptest::prelude::*;

use ppda_sim::{MembershipEvent, MembershipEventKind, TrickleConfig};
use ppda_topology::Topology;

use crate::execute::{readings_into, ExecState};
use crate::{
    Deployment, Elem, FaultPlan, PlanPatch, ProtocolConfig, ProtocolKind, RecoveryStatus,
    RoundPlan, RoundReport,
};

/// Trickle tuned for short test windows: minimal intervals so a
/// membership announcement converges within a handful of rounds.
const FAST_TRICKLE: TrickleConfig = TrickleConfig {
    i_min: 1,
    crash_detection: 1,
};

/// The lossy network every differential also runs under: link loss, node
/// dropout, decode-deadline misses and duplicate deliveries.
fn lossy(seed: u64) -> FaultPlan {
    FaultPlan::lossy(seed, 0.2)
        .with_dropout(0.05)
        .with_delay(0.02)
        .with_duplicate(0.02)
}

/// The plan compiled from scratch for the membership view in force at
/// `round_id`.
fn recompiled(deployment: &Deployment<'_>, round_id: u32) -> RoundPlan<'static> {
    let timeline = deployment.membership().expect("membership-driven");
    RoundPlan::new_with_membership(
        deployment.topology(),
        deployment.config(),
        deployment.protocol(),
        &timeline.view_at(round_id),
    )
    .expect("the recompiled plan compiles")
}

/// Re-run `report`'s round over the recompiled plan and compare.
fn check_against_recompile(
    deployment: &Deployment<'_>,
    report: &RoundReport,
) -> Result<(), TestCaseError> {
    let round_id = report.round_id;
    let plan = recompiled(deployment, round_id);
    let config = plan.config();
    let mut readings = Vec::new();
    readings_into(
        &plan.master_cipher,
        config,
        round_id,
        report.seed,
        config.batch,
        &mut readings,
    );
    let (outcome, degraded) = ExecState::new(&plan)
        .run_round(
            &plan,
            round_id,
            report.seed,
            &readings,
            &vec![false; config.n_nodes],
            deployment.faults(),
            deployment.tamper(),
        )
        .expect("the recompiled round runs");
    prop_assert!(
        report.outcome == outcome,
        "outcome diverged from the recompile at round {round_id}"
    );
    prop_assert!(
        report.degraded == degraded,
        "degraded report diverged from the recompile at round {round_id}"
    );

    // At most one delta comes due per round; its record is what the
    // timeline and the recompiled plans before and after it say.
    let timeline = deployment.membership().expect("membership-driven");
    let expected = timeline
        .deltas()
        .iter()
        .find(|delta| delta.round == round_id)
        .map(|delta| PlanPatch {
            round: delta.round,
            joined: delta.joins.len() as u32,
            left: delta.leaves.len() as u32,
            destinations: plan.destinations().len() as u32,
            destinations_changed: recompiled(deployment, round_id - 1).destinations()
                != plan.destinations(),
            ..PlanPatch::default()
        });
    let patched = report.membership_patch().map(|patch| PlanPatch {
        slots_rebuilt: 0,
        ccm_reused: 0,
        ccm_created: 0,
        ..*patch
    });
    prop_assert!(
        patched == expected,
        "patch record at round {round_id}: patched {patched:?}, recompiled {expected:?}"
    );
    Ok(())
}

/// Step a fresh driver `rounds` times, checking every round against the
/// recompile, and return the reports.
fn drive_against_recompile(
    deployment: &Deployment<'_>,
    rounds: usize,
) -> Result<Vec<RoundReport>, TestCaseError> {
    let mut driver = deployment.driver();
    let mut reports = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let report = driver.step().expect("patched round runs");
        check_against_recompile(deployment, &report)?;
        reports.push(report);
    }
    Ok(reports)
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

/// The acceptance differential: every event kind on `topology` under
/// `protocol`, every source sharing, at B = 1 and 4, fault-free and
/// lossy, 18 rounds each.
fn assert_patch_matches_recompile(topology: &Topology, protocol: ProtocolKind) {
    let n = topology.len();
    for batch in [1, 4] {
        for faults in [FaultPlan::none(), lossy(0xFA17)] {
            let config = ProtocolConfig::builder(n)
                .sources(n)
                .batch(batch)
                .build()
                .expect("config builds");
            let deployment = Deployment::builder()
                .topology_ref(topology)
                .config(config)
                .protocol(protocol)
                .faults(faults.clone())
                .seed(0xD1FF)
                .membership(all_kinds(n as u16))
                .trickle(FAST_TRICKLE)
                .build()
                .expect("deployment compiles");
            let reports = drive_against_recompile(&deployment, 18)
                .unwrap_or_else(|err| panic!("B = {batch}, {faults:?}: {err}"));
            // The event stream must actually land inside the window (leave,
            // crash and join converge early; the late rejoin may not).
            let patches = reports
                .iter()
                .filter(|r| r.membership_patch().is_some())
                .count();
            assert!(patches >= 3, "only {patches} deltas became effective");
            if !faults.is_zero() {
                assert!(
                    reports.iter().any(|r| r.degraded.faults.nodes_dropped > 0),
                    "B = {batch}: no node dropped out under the lossy plan"
                );
            }
        }
    }
}

#[test]
fn patch_matches_recompile_flocklab_s3() {
    assert_patch_matches_recompile(&Topology::flocklab(), ProtocolKind::S3);
}

#[test]
fn patch_matches_recompile_flocklab_s4() {
    assert_patch_matches_recompile(&Topology::flocklab(), ProtocolKind::S4);
}

#[test]
fn patch_matches_recompile_dcube_s3() {
    assert_patch_matches_recompile(&Topology::dcube(), ProtocolKind::S3);
}

#[test]
fn patch_matches_recompile_dcube_s4() {
    assert_patch_matches_recompile(&Topology::dcube(), ProtocolKind::S4);
}

/// The first `count` of the drawn membership events, in round order.
/// Nodes are drawn from 3..9: nodes 0, 1 and 2 stay members throughout,
/// so the destination set never empties, and the other nodes (sources 3
/// and 6 among them) churn freely — including streams that drop the
/// round below threshold.
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

/// Every aggregate a live node of `report`'s round holds is exact: the
/// lane sums of the readings of `included_sources` of the round's live
/// sources, which is `expected_sums` when it covers them all. A node
/// whose sum shares cover fewer sources reconstructs the widest aggregate
/// it can and says how many sources it holds.
fn check_aggregates_exact(
    deployment: &Deployment<'_>,
    report: &RoundReport,
) -> Result<(), TestCaseError> {
    let config = deployment.config();
    let lanes = config.batch;
    let mut readings = Vec::new();
    readings_into(
        &deployment.plan().master_cipher,
        config,
        report.round_id,
        report.seed,
        lanes,
        &mut readings,
    );
    let live: Vec<usize> = (0..config.sources.len())
        .filter(|&si| !report.outcome.nodes[usize::from(config.sources[si])].failed)
        .collect();
    // The lane sums of the live sources picked by bit `i` of `chosen`;
    // the grid has three sources, so every subset is tried.
    let sums_of = |chosen: u32| -> Vec<u64> {
        (0..lanes)
            .map(|lane| {
                live.iter()
                    .enumerate()
                    .filter(|&(i, _)| chosen >> i & 1 == 1)
                    .fold(Elem::ZERO, |acc, (_, &si)| {
                        acc + Elem::new(readings[si * lanes + lane])
                    })
                    .value()
            })
            .collect()
    };
    for node in report.outcome.live_nodes() {
        if let Some(sums) = &node.aggregates {
            let included = node.included_sources;
            prop_assert!(
                (0u32..1 << live.len())
                    .filter(|chosen| chosen.count_ones() == included)
                    .any(|chosen| sums_of(chosen) == *sums),
                "round {}: {sums:?} is no sum of {included} live sources' readings",
                report.round_id
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Incremental plan patching equals full recompilation for *any*
    /// membership event stream on the 3×3 grid, over a clean or a lossy
    /// network: same outcomes, same degraded reports, the same patch
    /// records at the same rounds.
    #[test]
    fn plan_patching_matches_recompile_for_random_event_streams(
        count in 0usize..8,
        rounds in prop::collection::vec(1u32..12, 8),
        nodes in prop::collection::vec(3u16..9, 8),
        kinds in prop::collection::vec(0usize..4, 8),
        lossy_network in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // The grid's standard operating point (ppda_testkit::grid9_config
        // names the same one), three sources.
        let config = ProtocolConfig::builder(9)
            .degree(2)
            .ntx_sharing(6)
            .ntx_reconstruction(6)
            .sources(3)
            .build()
            .unwrap();
        let deployment = Deployment::builder()
            .topology(ppda_testkit::grid9())
            .config(config)
            .protocol(ProtocolKind::S4)
            .faults(if lossy_network { lossy(seed) } else { FaultPlan::none() })
            .seed(seed)
            .membership(churn_events(count, &rounds, &nodes, &kinds))
            .trickle(FAST_TRICKLE)
            .build()
            .expect("churny deployment compiles");
        for report in drive_against_recompile(&deployment, 14)? {
            // Safety under arbitrary churn: a below-threshold round
            // escalates to AggregationFailed with no node holding the full
            // aggregate, and no live node ever reports a wrong sum.
            if let RecoveryStatus::Failed { missing } = report.recovery() {
                prop_assert!(missing > 0);
                prop_assert!(report.degraded.require_recovered().is_err());
                prop_assert_eq!(report.degraded.nodes_recovered, 0);
            }
            check_aggregates_exact(&deployment, &report)?;
        }
    }
}
