//! Cross-crate integration tests: full protocol rounds on both testbed
//! models, exercising field + crypto + sim + radio + topology + ct + sss +
//! mpc together.

use ppda::mpc::{BatchAggregationOutcome, ProtocolConfig, ProtocolKind};
use ppda::topology::Topology;
use ppda_testkit::{drive_round, flocklab_scenario};

/// One generated-readings round's outcome.
fn round(
    t: &Topology,
    config: &ProtocolConfig,
    kind: ProtocolKind,
    seed: u64,
) -> BatchAggregationOutcome {
    drive_round(t, config, kind, seed, None).unwrap().outcome
}

#[test]
fn s3_correct_on_flocklab() {
    let (t, config) = flocklab_scenario();
    for seed in 0..5 {
        let o = round(&t, &config, ProtocolKind::S3, seed);
        assert!(o.correct(), "seed {seed}");
        // Every live node that reconstructed holds the same aggregate.
        let mut held = o.live_nodes().filter_map(|n| n.aggregates.as_deref());
        let first = held.next().expect("some node reconstructed");
        assert!(held.all(|a| a == first));
        assert_eq!(o.protocol, "S3");
    }
}

#[test]
fn s4_correct_on_flocklab() {
    let (t, config) = flocklab_scenario();
    for seed in 0..5 {
        let o = round(&t, &config, ProtocolKind::S4, seed);
        assert!(o.correct(), "seed {seed}");
        assert_eq!(o.protocol, "S4");
    }
}

#[test]
fn s3_correct_on_dcube() {
    let t = Topology::dcube();
    let config = ProtocolConfig::builder(t.len())
        .full_coverage_ntx(20)
        .build()
        .unwrap();
    assert!(round(&t, &config, ProtocolKind::S3, 3).correct());
}

#[test]
fn s4_correct_on_dcube_at_operating_ntx() {
    let t = Topology::dcube();
    let config = ProtocolConfig::builder(t.len())
        .ntx_sharing(7)
        .ntx_reconstruction(7)
        .build()
        .unwrap();
    // D-Cube injects interference (modeled as round-scale fading); the
    // operating point trades occasional harsh-round misses for a ~9x
    // speed-up, so expect most — not all — rounds to be perfect.
    let runs = 8;
    let ok = (0..runs)
        .filter(|&seed| round(&t, &config, ProtocolKind::S4, seed).correct())
        .count() as u64;
    assert!(ok > runs / 2, "only {ok}/{runs} rounds fully correct");
}

#[test]
fn s4_beats_s3_on_both_metrics() {
    let (t, config) = flocklab_scenario();
    let s3 = round(&t, &config, ProtocolKind::S3, 9);
    let s4 = round(&t, &config, ProtocolKind::S4, 9);
    let lat3 = s3.max_latency_ms().expect("S3 completes");
    let lat4 = s4.max_latency_ms().expect("S4 completes");
    assert!(
        lat3 > 3.0 * lat4,
        "paper claims ≥6x at full network; got S3 {lat3:.0} vs S4 {lat4:.0}"
    );
    assert!(s3.mean_radio_on_ms() > 3.0 * s4.mean_radio_on_ms());
}

#[test]
fn outcomes_are_deterministic() {
    let t = Topology::flocklab();
    let config = ProtocolConfig::builder(t.len()).sources(6).build().unwrap();
    let a = round(&t, &config, ProtocolKind::S4, 77);
    let b = round(&t, &config, ProtocolKind::S4, 77);
    assert_eq!(a.expected_sums, b.expected_sums);
    for (x, y) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(x.aggregates, y.aggregates);
        assert_eq!(x.latency, y.latency);
        assert_eq!(x.radio_on, y.radio_on);
    }
}

#[test]
fn different_seeds_different_readings() {
    let (t, config) = flocklab_scenario();
    let a = round(&t, &config, ProtocolKind::S4, 1);
    let b = round(&t, &config, ProtocolKind::S4, 2);
    assert_ne!(a.expected_sums, b.expected_sums);
}

#[test]
fn explicit_readings_are_summed() {
    let t = Topology::flocklab();
    let n = t.len();
    let config = ProtocolConfig::builder(n).sources(4).build().unwrap();
    let secrets = [10u64, 20, 30, 40];
    let o = drive_round(
        &t,
        &config,
        ProtocolKind::S4,
        5,
        Some((&secrets, &vec![false; n])),
    )
    .unwrap();
    assert_eq!(o.expected_sums(), &[100]);
    assert!(o.correct());
}

#[test]
fn source_sweep_points_all_run() {
    let t = Topology::flocklab();
    for sources in [3usize, 6, 10, 24] {
        let config = ProtocolConfig::builder(t.len())
            .sources(sources)
            .build()
            .unwrap();
        let o = round(&t, &config, ProtocolKind::S4, 13);
        assert!(o.correct(), "{sources} sources");
        assert_eq!(o.source_count, sources);
    }
}

#[test]
fn latency_grows_with_sources() {
    let t = Topology::flocklab();
    let run = |sources: usize| {
        let config = ProtocolConfig::builder(t.len())
            .sources(sources)
            .build()
            .unwrap();
        round(&t, &config, ProtocolKind::S4, 21)
            .max_latency_ms()
            .expect("completes")
    };
    let small = run(3);
    let large = run(24);
    assert!(
        large > 2.0 * small,
        "chain length scales with sources: {small:.0} vs {large:.0}"
    );
}

#[test]
fn failed_source_excluded_from_sum() {
    let t = Topology::flocklab();
    let n = t.len();
    let config = ProtocolConfig::builder(n)
        .sources_explicit(vec![0, 5, 10])
        .build()
        .unwrap();
    let mut failed = vec![false; n];
    failed[5] = true;
    let o = drive_round(
        &t,
        &config,
        ProtocolKind::S4,
        31,
        Some((&[100, 200, 300], &failed)),
    )
    .unwrap()
    .outcome;
    assert_eq!(
        o.expected_sums,
        [400],
        "dead source's reading must not count"
    );
    let ok = o
        .live_nodes()
        .filter(|n| n.aggregates.as_deref() == Some(&[400][..]))
        .count();
    let success = ok as f64 / o.live_nodes().count() as f64;
    assert!(success > 0.9, "success fraction {success}");
}

#[test]
fn radio_on_is_positive_and_bounded_by_schedule() {
    let (t, config) = flocklab_scenario();
    let o = round(&t, &config, ProtocolKind::S4, 41);
    let budget = o.scheduled_round_ms();
    for node in o.live_nodes() {
        let on = node.radio_on.as_millis_f64();
        assert!(on > 0.0);
        assert!(
            on <= budget * 1.01,
            "radio-on {on} exceeds schedule {budget}"
        );
    }
}

#[test]
fn phase_stats_are_consistent() {
    let (t, config) = flocklab_scenario();
    let o = round(&t, &config, ProtocolKind::S4, 51);
    // Sharing chain: S sources × (|A| − (1 if source is aggregator)).
    assert!(o.sharing.chain_len > 0);
    assert!(o.sharing.chain_len <= o.source_count * o.aggregator_count);
    assert_eq!(o.reconstruction.chain_len, o.aggregator_count);
    assert!(o.sharing.coverage > 0.5);
    // S4 chains are trimmed versus the naive S × n layout.
    let s3 = round(&t, &config, ProtocolKind::S3, 51);
    assert!(s3.sharing.chain_len > 2 * o.sharing.chain_len);
    assert_eq!(s3.aggregator_count, t.len());
}
