//! The fragmenting transport's conformance suite.
//!
//! Contracts enforced here:
//!
//! 1. **The codec is lossless and loss-honest** — proptested: any
//!    datagram up to the 7 KB cap survives fragment/reassemble under
//!    arbitrary delivery order and duplication, and a missing fragment
//!    costs the *whole* datagram (6LoWPAN semantics), never a partial
//!    delivery.
//! 2. **The flag is inert below the cap** — for {S3, S4} × both
//!    testbeds, every outcome of a `fragmentation(true)` deployment at
//!    B ≤ 23 equals the `fragmentation(false)` outcome bit for bit, and
//!    the round-report text is unchanged (no `fragments` line). Together
//!    with the golden fixtures (`tests/golden/round_report.txt` et al.,
//!    which pin the pre-fragmentation text) this is the differential
//!    guarantee that the tentpole did not move any existing byte.
//! 3. **Wide batches actually complete** — B = 64 and B = 256 rounds
//!    run end to end on both testbed topologies, every live node
//!    reconstructs every lane, and the report carries the honest
//!    fragment-aware cost: the `fragments` line, and a scheduled phase
//!    duration that grows with the per-slot frame count.

use ppda::mpc::{Deployment, ProtocolConfig, ProtocolKind};
use ppda::radio::{Fragmenter, Reassembler, MAX_DATAGRAM_LEN, MAX_FRAGMENT_DATA};
use ppda::sim::Xoshiro256;
use ppda::topology::Topology;
use ppda_bench::TestbedSetup;
use proptest::prelude::*;
use rand::RngCore;

// ---- 1. Codec properties ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any datagram — including multi-KB ones spanning dozens of frames
    /// — reassembles exactly, regardless of the order fragments arrive
    /// in and of duplicated deliveries.
    #[test]
    fn reassembly_survives_reorder_and_duplication(
        len in 1usize..(4 * MAX_FRAGMENT_DATA),
        big in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Half the cases stretch past 4 KB so reordering exercises the
        // full 64-bit completion mask, not just a few fragments.
        let len = if big { 4096 + len } else { len };
        prop_assert!(len <= MAX_DATAGRAM_LEN);
        let mut rng = Xoshiro256::seed_from(seed);
        let mut datagram = vec![0u8; len];
        rng.fill_bytes(&mut datagram);

        let mut tx = Fragmenter::default();
        let frames = tx.fragment(&datagram).unwrap();

        // Shuffle the delivery order (Fisher–Yates off the same rng).
        let mut order: Vec<usize> = (0..frames.len()).collect();
        for i in (1..order.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }

        let mut rx = Reassembler::default();
        let mut delivered = None;
        for &i in &order {
            // Every fragment arrives twice; the duplicate must be inert.
            if let Some(whole) = rx.accept(3, &frames[i]).unwrap() {
                delivered = Some(whole);
            }
            prop_assert!(rx.accept(3, &frames[i]).unwrap().is_none());
        }
        prop_assert_eq!(delivered.as_deref(), Some(&datagram[..]));
        prop_assert_eq!(rx.completed(), 1);
        prop_assert_eq!(rx.dropped(), 0);
    }

    /// A single missing fragment loses the whole datagram: nothing is
    /// delivered, and the loss is accounted the moment the next
    /// datagram's fragments displace the stale partial state.
    #[test]
    fn missing_fragment_drops_the_whole_datagram(
        len in (MAX_FRAGMENT_DATA + 1)..(8 * MAX_FRAGMENT_DATA),
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut datagram = vec![0u8; len];
        rng.fill_bytes(&mut datagram);

        let mut tx = Fragmenter::default();
        let frames = tx.fragment(&datagram).unwrap();
        prop_assert!(frames.len() >= 2);
        let lost = (rng.next_u64() % frames.len() as u64) as usize;

        let mut rx = Reassembler::default();
        for (i, frame) in frames.iter().enumerate() {
            if i == lost {
                continue;
            }
            prop_assert!(rx.accept(9, frame).unwrap().is_none());
        }
        prop_assert_eq!(rx.completed(), 0);

        // The next datagram from the same source completes normally and
        // retires the incomplete predecessor as a drop.
        let next = tx.fragment(&[0xAB; 4]).unwrap();
        let whole = rx.accept(9, &next[0]).unwrap();
        prop_assert_eq!(whole.as_deref(), Some(&[0xAB; 4][..]));
        prop_assert_eq!(rx.dropped(), 1);
    }
}

// ---- 2. The flag is inert below the single-frame cap -------------------

fn testbeds() -> Vec<TestbedSetup> {
    vec![TestbedSetup::flocklab(), TestbedSetup::dcube()]
}

/// For every protocol × testbed × in-cap lane width, a deployment with
/// fragmentation enabled produces byte-identical outcomes *and* report
/// text to one without: the flag only changes what happens past the cap.
#[test]
fn fragmentation_flag_is_differential_noop_below_the_cap() {
    for setup in testbeds() {
        let topology = setup.topology();
        for kind in [ProtocolKind::S3, ProtocolKind::S4] {
            for batch in [1usize, 8, 23] {
                let plain = setup.config_batched(6, batch).unwrap();
                let flagged = setup.config_wide(6, batch).unwrap();
                assert_eq!(flagged.share_fragments(), 1);
                assert_eq!(flagged.sum_fragments(), 1);

                let drive = |config: ProtocolConfig| {
                    let deployment = Deployment::builder()
                        .topology_ref(&topology)
                        .config(config)
                        .protocol(kind)
                        .build()
                        .unwrap();
                    let mut driver = deployment.driver();
                    [3u64, 17, 4242].map(|seed| driver.round_at(plain.round_id, seed).unwrap())
                };
                for (a, b) in drive(plain.clone()).iter().zip(&drive(flagged.clone())) {
                    assert_eq!(
                        a,
                        b,
                        "{} B={batch} on {}: fragmentation flag changed an in-cap round",
                        kind.name(),
                        topology.name()
                    );
                    let text = a.to_string();
                    assert_eq!(text, b.to_string());
                    assert!(
                        !text.contains("fragments"),
                        "in-cap rounds must not grow a fragments line:\n{text}"
                    );
                }
            }
        }
    }
}

// ---- 3. Wide batches complete, with honest fragment-aware cost ---------

/// B = 64 and B = 256 rounds complete on both testbeds: every live node
/// reconstructs every lane correctly, the report names the fragment
/// counts, and the scheduled phase durations carry the multi-frame cost.
#[test]
fn wide_batches_complete_on_both_testbeds() {
    // (testbed, B, ntx override, expected share/sum fragments, seeds).
    // D-Cube at B = 256 needs a larger retransmission budget: its harsher
    // fading must now land 10 frames per packet — exactly the honest
    // cost the fragmenting transport makes explicit.
    let cases = [
        ("flocklab", 64usize, None, (3u32, 3u32), [1u64, 2, 4]),
        ("flocklab", 256, None, (10, 10), [1, 2, 4]),
        ("dcube", 64, None, (3, 3), [1, 2, 4]),
        ("dcube", 256, Some(12u32), (10, 10), [1, 2, 4]),
    ];
    for (name, batch, ntx, (share_frags, sum_frags), seeds) in cases {
        let setup = TestbedSetup::by_name(name).unwrap();
        let topology = setup.topology();
        let config = match ntx {
            None => setup.config_wide(6, batch).unwrap(),
            Some(ntx) => ProtocolConfig::builder(topology.len())
                .sources(6)
                .ntx_sharing(ntx)
                .ntx_reconstruction(ntx)
                .full_coverage_ntx(setup.s3_ntx)
                .aggregator_redundancy(setup.redundancy)
                .fading(setup.fading)
                .batch(batch)
                .fragmentation(true)
                .build()
                .unwrap(),
        };
        assert_eq!(config.share_fragments(), share_frags);
        assert_eq!(config.sum_fragments(), sum_frags);

        // The in-cap reference for the cost comparison: same deployment
        // at the widest unfragmented width.
        let narrow = setup.config_batched(6, 23).unwrap();
        let narrow_sharing = Deployment::builder()
            .topology_ref(&topology)
            .config(narrow.clone())
            .protocol(ProtocolKind::S4)
            .build()
            .unwrap()
            .driver()
            .round_at(narrow.round_id, 1)
            .unwrap()
            .outcome
            .sharing
            .scheduled_duration;

        let deployment = Deployment::builder()
            .topology_ref(&topology)
            .config(config.clone())
            .protocol(ProtocolKind::S4)
            .build()
            .unwrap();
        let mut driver = deployment.driver();
        for seed in seeds {
            let report = driver.round_at(config.round_id, seed).unwrap();
            assert!(
                report.correct(),
                "{name} B={batch} seed={seed}: a wide round failed to complete"
            );
            assert_eq!(report.lanes(), batch);
            assert_eq!(report.outcome.sharing.fragments, share_frags);
            assert_eq!(report.outcome.reconstruction.fragments, sum_frags);
            assert!(
                report.outcome.sharing.scheduled_duration
                    > narrow_sharing * (share_frags as u64 - 1),
                "{name} B={batch}: fragmented sharing phase must cost \
                 proportionally more air time than the 23-lane round"
            );
            let text = report.to_string();
            assert!(
                text.contains(&format!(
                    "fragments sharing {share_frags} reconstruction {sum_frags}"
                )),
                "report must surface the fragment counts:\n{text}"
            );
        }
    }
}

/// The fragment layer has its own ceiling, and the config error names
/// the escape hatch on both sides of it.
#[test]
fn wide_batch_errors_point_at_fragmentation() {
    let topology = Topology::flocklab();
    let unflagged = ProtocolConfig::builder(topology.len())
        .sources(6)
        .batch(64)
        .build()
        .unwrap_err();
    assert!(unflagged.to_string().contains("fragmentation"));
}
