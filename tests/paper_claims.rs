//! The paper's qualitative claims, asserted as executable tests. These are
//! deliberately conservative versions of the quantitative results recorded
//! in EXPERIMENTS.md (which use 100-iteration campaigns); here a handful of
//! seeded rounds must reproduce each *shape*.

use ppda::ct::MiniCastSchedule;
use ppda::mpc::{BatchAggregationOutcome, ProtocolConfig, ProtocolKind};
use ppda::radio::{FadingProfile, FrameSpec};
use ppda::topology::Topology;
use ppda_testkit::drive_round;

/// The S3 and S4 outcomes of the generated-readings round at `seed`.
fn s3_and_s4(
    t: &Topology,
    config: &ProtocolConfig,
    seed: u64,
) -> (BatchAggregationOutcome, BatchAggregationOutcome) {
    let round = |kind| drive_round(t, config, kind, seed, None).unwrap().outcome;
    (round(ProtocolKind::S3), round(ProtocolKind::S4))
}

/// §IV: "S4 achieves private aggregation at least 6× faster … in FlockLab".
/// Conservative bound here (≥4× over 3 seeds) — the full campaign measures
/// 6.0–6.1×.
#[test]
fn s4_latency_advantage_flocklab() {
    let t = Topology::flocklab();
    let config = ProtocolConfig::builder(t.len()).build().unwrap();
    for seed in [2u64, 4, 8] {
        let (s3, s4) = s3_and_s4(&t, &config, seed);
        let (l3, l4) = (
            s3.mean_latency_ms().expect("S3 completes"),
            s4.mean_latency_ms().expect("S4 completes"),
        );
        assert!(l3 > 4.0 * l4, "seed {seed}: S3 {l3:.0} vs S4 {l4:.0}");
    }
}

/// §IV: "consuming 7× lesser radio-on time" — conservative ≥4× bound.
#[test]
fn s4_radio_advantage_flocklab() {
    let t = Topology::flocklab();
    let config = ProtocolConfig::builder(t.len()).build().unwrap();
    let (s3, s4) = s3_and_s4(&t, &config, 6);
    assert!(s3.mean_radio_on_ms() > 4.0 * s4.mean_radio_on_ms());
}

/// §IV: the D-Cube advantage exceeds the FlockLab advantage (9× vs 6× in
/// the paper; 7.4× vs 6.1× here).
#[test]
fn dcube_ratio_exceeds_flocklab_ratio() {
    let ratio = |t: &Topology, s3_ntx: u32, s4_ntx: u32, fading: FadingProfile| {
        let config = ProtocolConfig::builder(t.len())
            .full_coverage_ntx(s3_ntx)
            .ntx_sharing(s4_ntx)
            .ntx_reconstruction(s4_ntx)
            .fading(fading)
            .build()
            .unwrap();
        let (s3, s4) = s3_and_s4(t, &config, 5);
        s3.scheduled_round_ms() / s4.scheduled_round_ms()
    };
    let fl = ratio(&Topology::flocklab(), 15, 6, FadingProfile::office());
    let dc = ratio(
        &Topology::dcube(),
        20,
        7,
        FadingProfile::industrial_interference(),
    );
    assert!(dc > fl, "dcube {dc:.1}x must exceed flocklab {fl:.1}x");
}

/// §II: the sharing chain is O(n²) for S3 and O(n·(k+1)) for S4; the
/// reconstruction chain is n (S3) vs k+1+r (S4).
#[test]
fn chain_size_complexity() {
    let t = Topology::flocklab();
    let n = t.len();
    let config = ProtocolConfig::builder(n).build().unwrap();
    let k = config.degree;
    let r = config.aggregator_redundancy;
    let (s3, s4) = s3_and_s4(&t, &config, 1);
    assert_eq!(s3.sharing.chain_len, n * (n - 1));
    assert_eq!(s3.reconstruction.chain_len, n);
    // Every source sends to the k+1+r aggregators (minus itself if it is one).
    assert!(s4.sharing.chain_len >= n * (k + r));
    assert!(s4.sharing.chain_len <= n * (k + 1 + r));
    assert_eq!(s4.reconstruction.chain_len, k + 1 + r);
}

/// §III: MiniCast coverage is non-linear in NTX — most data arrives within
/// a few transmissions, full coverage takes disproportionately longer.
#[test]
fn coverage_knee_exists() {
    let t = Topology::dcube();
    let frame = FrameSpec::new(8, 0).unwrap();
    let curve = MiniCastSchedule::coverage_vs_ntx(&t, frame, &[2, 5, 12], 5, 31);
    let c2 = curve[0].1;
    let c5 = curve[1].1;
    let c12 = curve[2].1;
    // Half the doubling from 2→5 brings a big jump…
    assert!(c5 - c2 > 0.2, "steep rise: {c2:.2} -> {c5:.2}");
    // …while more than doubling again adds only the tail.
    assert!(c12 - c5 < c5 - c2, "flattening tail: {c5:.3} -> {c12:.3}");
    assert!(c12 > 0.999, "full coverage eventually: {c12:.4}");
}

/// §III: lower degree ⇒ cheaper S4 (the paper's closing observation).
#[test]
fn lower_degree_is_cheaper() {
    let t = Topology::flocklab();
    let run = |k: usize| {
        let config = ProtocolConfig::builder(t.len()).degree(k).build().unwrap();
        drive_round(&t, &config, ProtocolKind::S4, 9, None)
            .unwrap()
            .outcome
            .scheduled_round_ms()
    };
    let low = run(2);
    let paper = run(8);
    assert!(
        paper > 1.5 * low,
        "degree 2 round {low:.0} ms must undercut degree 8 round {paper:.0} ms"
    );
}

/// §II: the reconstruction phase runs in plaintext while the sharing phase
/// pays for AES-CCM tags — visible in the frame budgets.
#[test]
fn phase_frame_budgets() {
    // Sharing: 4-byte share + 4-byte MIC. Reconstruction: 26-byte sum
    // packet, no MIC.
    let sharing = FrameSpec::new(4, 4).unwrap();
    let recon = FrameSpec::new(26, 0).unwrap();
    assert_eq!(sharing.mic_len(), 4);
    assert_eq!(recon.mic_len(), 0);
    assert!(recon.psdu_len() > sharing.psdu_len());
}

/// The scheduled round durations land on the paper's log-scale axis
/// (10³–10⁵ ms) at the complete network.
#[test]
fn absolute_scale_matches_paper_axis() {
    for (t, s3_ntx) in [(Topology::flocklab(), 15u32), (Topology::dcube(), 20)] {
        let config = ProtocolConfig::builder(t.len())
            .full_coverage_ntx(s3_ntx)
            .build()
            .unwrap();
        let (s3, s4) = s3_and_s4(&t, &config, 3);
        for ms in [s3.scheduled_round_ms(), s4.scheduled_round_ms()] {
            assert!(
                (100.0..200_000.0).contains(&ms),
                "{}: {ms:.0} ms outside the paper's axis",
                t.name()
            );
        }
    }
}
