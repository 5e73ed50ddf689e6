//! Protocol-level integration tests on small synthetic topologies (fast in
//! debug builds; the testbed-scale runs live in the workspace-root tests).

use ppda_mpc::{MpcError, ProtocolConfig, ProtocolKind};
use ppda_testkit::{drive_round, grid9};
use ppda_topology::Topology;

fn config9() -> ProtocolConfig {
    ProtocolConfig::builder(9).degree(2).build().unwrap()
}

#[test]
fn both_protocols_agree_with_each_other() {
    let t = grid9();
    let secrets: Vec<u64> = (1..=9).collect();
    let failed = [false; 9];
    let inputs = Some((&secrets[..], &failed[..]));
    let s3 = drive_round(&t, &config9(), ProtocolKind::S3, 3, inputs).unwrap();
    let s4 = drive_round(&t, &config9(), ProtocolKind::S4, 3, inputs).unwrap();
    assert_eq!(s3.expected_sums(), &[45]);
    assert_eq!(s4.expected_sums(), &[45]);
    assert!(s3.correct());
    assert!(s4.correct());
}

#[test]
fn s3_uses_all_nodes_as_sum_holders_s4_only_aggregators() {
    let t = grid9();
    let s3 = drive_round(&t, &config9(), ProtocolKind::S3, 1, None).unwrap();
    let s4 = drive_round(&t, &config9(), ProtocolKind::S4, 1, None).unwrap();
    assert_eq!(s3.outcome.aggregator_count, 9);
    assert_eq!(s4.outcome.aggregator_count, 2 + 1 + 2); // k + 1 + redundancy
}

#[test]
fn s4_sharing_chain_is_trimmed() {
    let t = grid9();
    let s3 = drive_round(&t, &config9(), ProtocolKind::S3, 1, None).unwrap();
    let s4 = drive_round(&t, &config9(), ProtocolKind::S4, 1, None).unwrap();
    // S3: 9 sources × 8 non-self destinations; S4: ≤ 9 × 5.
    assert_eq!(s3.outcome.sharing.chain_len, 9 * 8);
    assert!(s4.outcome.sharing.chain_len <= 9 * 5);
    assert!(s4.outcome.sharing.chain_len >= 9 * 4);
}

#[test]
fn tag_lengths_all_work_end_to_end() {
    let t = grid9();
    for tag_len in [4usize, 8, 16] {
        let config = ProtocolConfig::builder(9)
            .degree(2)
            .tag_len(tag_len)
            .build()
            .unwrap();
        let o = drive_round(&t, &config, ProtocolKind::S4, 2, None).unwrap();
        assert!(o.correct(), "tag_len {tag_len}");
    }
}

#[test]
fn small_network_works() {
    let t = Topology::grid(2, 2, 15.0, 3);
    let config = ProtocolConfig::builder(4)
        .degree(1)
        .aggregator_redundancy(0)
        .build()
        .unwrap();
    let o = drive_round(&t, &config, ProtocolKind::S4, 1, None).unwrap();
    assert!(o.correct());
    assert_eq!(o.outcome.aggregator_count, 2);
}

#[test]
fn mismatched_inputs_rejected() {
    let t = grid9();
    let run = |t: &Topology, secrets: &[u64], failed: &[bool]| {
        drive_round(t, &config9(), ProtocolKind::S4, 1, Some((secrets, failed)))
    };
    // Wrong secret count.
    assert!(matches!(
        run(&t, &[1, 2], &[false; 9]),
        Err(MpcError::InputMismatch { .. })
    ));
    // Wrong failure mask size.
    let secrets: Vec<u64> = (0..9).collect();
    assert!(matches!(
        run(&t, &secrets, &[false; 4]),
        Err(MpcError::InputMismatch { .. })
    ));
    // Wrong topology size.
    let t4 = Topology::grid(2, 2, 15.0, 3);
    assert!(matches!(
        run(&t4, &secrets, &[false; 9]),
        Err(MpcError::InputMismatch { .. })
    ));
}

#[test]
fn oversized_reading_rejected() {
    let t = grid9();
    let mut secrets: Vec<u64> = (0..9).collect();
    secrets[0] = u64::MAX;
    assert!(matches!(
        drive_round(
            &t,
            &config9(),
            ProtocolKind::S4,
            1,
            Some((&secrets, &[false; 9]))
        ),
        Err(MpcError::ReadingTooLarge { .. })
    ));
}

#[test]
fn disconnected_topology_rejected() {
    let t = Topology::line(9, 400.0, 1);
    assert!(matches!(
        drive_round(&t, &config9(), ProtocolKind::S4, 1, None),
        Err(MpcError::TopologyDisconnected)
    ));
}

#[test]
fn aggregator_failures_tolerated_up_to_redundancy() {
    let t = grid9();
    // degree 1, redundancy 2: 4 aggregators, any 2 suffice.
    let config = ProtocolConfig::builder(9)
        .degree(1)
        .aggregator_redundancy(2)
        .sources_explicit(vec![8]) // one corner source, never failed
        .build()
        .unwrap();
    let bootstrap = ppda_mpc::Bootstrap::run(&t, &config).unwrap();
    let aggs: Vec<u16> = bootstrap
        .aggregators()
        .iter()
        .copied()
        .filter(|&a| a != 8)
        .collect();
    let mut failed = vec![false; 9];
    failed[aggs[0] as usize] = true;
    failed[aggs[1] as usize] = true;

    let o = drive_round(&t, &config, ProtocolKind::S4, 9, Some((&[77], &failed)))
        .unwrap()
        .outcome;
    assert_eq!(o.expected_sums, [77]);
    let ok = o
        .live_nodes()
        .filter(|n| n.aggregates.as_deref() == Some(&[77][..]))
        .count();
    let success = ok as f64 / o.live_nodes().count() as f64;
    assert!(
        success > 0.8,
        "S4 must survive two dead aggregators: {success}"
    );
}

#[test]
fn round_ids_change_ciphertexts_not_results() {
    let t = grid9();
    let secrets: Vec<u64> = (1..=9).collect();
    let failed = [false; 9];
    let mk = |round: u32| {
        ProtocolConfig::builder(9)
            .degree(2)
            .round_id(round)
            .build()
            .unwrap()
    };
    let inputs = Some((&secrets[..], &failed[..]));
    let a = drive_round(&t, &mk(1), ProtocolKind::S4, 4, inputs).unwrap();
    let b = drive_round(&t, &mk(2), ProtocolKind::S4, 4, inputs).unwrap();
    assert_eq!(a.expected_sums(), b.expected_sums());
    assert!(a.correct() && b.correct());
}

#[test]
fn latency_includes_both_phases() {
    let t = grid9();
    let o = drive_round(&t, &config9(), ProtocolKind::S4, 6, None)
        .unwrap()
        .outcome;
    let sharing_ms = o.sharing.scheduled_duration.as_millis_f64();
    for node in o.live_nodes() {
        let latency = node.latency.expect("grid completes").as_millis_f64();
        assert!(
            latency > sharing_ms,
            "latency {latency} must extend past the sharing phase {sharing_ms}"
        );
    }
}

#[test]
fn success_implies_included_all_sources() {
    let t = grid9();
    let o = drive_round(&t, &config9(), ProtocolKind::S4, 8, None)
        .unwrap()
        .outcome;
    for node in o.live_nodes() {
        if node.aggregates.as_deref() == Some(&o.expected_sums[..]) {
            assert_eq!(node.included_sources, 9);
        }
    }
}
