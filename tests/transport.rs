//! Integration tests of the CT transport on the testbed models:
//! MiniCast's coverage-vs-NTX behaviour and schedule arithmetic, and a
//! golden fixture freezing MiniCast rounds on topologies over 64 nodes.

use ppda::ct::{ChainSpec, LinkConditions, MiniCastConfig, MiniCastResult, MiniCastSchedule};
use ppda::radio::FrameSpec;
use ppda::sim::Xoshiro256;
use ppda::topology::Topology;
use ppda_testkit::assert_golden;

fn frame() -> FrameSpec {
    FrameSpec::new(8, 4).unwrap()
}

/// Calm, loss-free link conditions.
fn calm(topology: &Topology) -> LinkConditions {
    LinkConditions::new(topology, 0.0, 0.0)
}

#[test]
fn minicast_coverage_knee_on_flocklab() {
    // The §III observation: steep coverage growth at low NTX, slow tail.
    let topology = Topology::flocklab();
    let curve = MiniCastSchedule::coverage_vs_ntx(&topology, frame(), &[1, 2, 4, 8, 14], 10, 99);
    let at = |ntx: u32| {
        curve
            .iter()
            .find(|&&(n, _)| n == ntx)
            .map(|&(_, c)| c)
            .expect("swept value")
    };
    // Low NTX already moves most of the data...
    assert!(at(4) > 0.80, "coverage at ntx=4: {}", at(4));
    // ...but full coverage needs much more.
    assert!(at(4) < 0.9999);
    assert!(at(14) > 0.999, "coverage at ntx=14: {}", at(14));
    // The marginal gain flattens: first doubling gains more than the last.
    let gain_early = at(2) - at(1);
    let gain_late = at(14) - at(8);
    assert!(gain_early > gain_late);
}

#[test]
fn minicast_all_to_all_delivers_on_dcube_at_high_ntx() {
    let topology = Topology::dcube();
    let owners: Vec<u16> = (0..topology.len() as u16).collect();
    let chain = ChainSpec::new(frame(), owners).unwrap();
    let mc = MiniCastSchedule::new(
        &topology,
        chain,
        MiniCastConfig {
            ntx: 14,
            ..MiniCastConfig::default()
        },
    );
    let r = mc.run(&calm(&topology), &mut Xoshiro256::seed_from(5));
    assert!(r.coverage() > 0.995, "coverage {}", r.coverage());
}

#[test]
fn attenuation_degrades_coverage() {
    let topology = Topology::dcube();
    let owners: Vec<u16> = (0..topology.len() as u16).collect();
    // The schedule is attenuation-independent; only the conditions change.
    let mc = MiniCastSchedule::new(
        &topology,
        ChainSpec::new(frame(), owners).unwrap(),
        MiniCastConfig {
            ntx: 5,
            ..MiniCastConfig::default()
        },
    );
    let run_at = |att: f64| {
        let conditions = LinkConditions::new(&topology, att, 0.0);
        mc.run(&conditions, &mut Xoshiro256::seed_from(3))
            .coverage()
    };
    let calm = run_at(0.0);
    let harsh = run_at(6.0);
    assert!(
        harsh < calm,
        "6 dB of interference must hurt: {calm} vs {harsh}"
    );
}

#[test]
fn chain_cycle_time_arithmetic() {
    // 8-byte payload + 4-byte MIC frame: 6 + 9+8+4+2 = 29 bytes on air
    // -> 928 µs airtime + 300 µs slot overhead = 1228 µs per sub-slot.
    let spec = frame();
    assert_eq!(spec.airtime().as_micros(), 29 * 32);
    assert_eq!(spec.slot_duration().as_micros(), 29 * 32 + 192 + 108);
    let chain = ChainSpec::new(spec, vec![0, 1, 2, 3]).unwrap();
    assert_eq!(
        chain.cycle_duration().as_micros(),
        4 * spec.slot_duration().as_micros()
    );
}

#[test]
fn scheduled_rounds_scale_with_ntx() {
    let topology = Topology::flocklab();
    let owners: Vec<u16> = (0..topology.len() as u16).collect();
    let rounds = |ntx: u32| {
        let chain = ChainSpec::new(frame(), owners.clone()).unwrap();
        MiniCastSchedule::new(
            &topology,
            chain,
            MiniCastConfig {
                ntx,
                ..MiniCastConfig::default()
            },
        )
        .round_cycles()
    };
    assert_eq!(rounds(10) - rounds(5), 5);
}

#[test]
fn early_off_saves_radio_time() {
    let topology = Topology::flocklab();
    let owners: Vec<u16> = (0..topology.len() as u16).collect();
    let run = |early: bool| {
        let chain = ChainSpec::new(frame(), owners.clone()).unwrap();
        let mc = MiniCastSchedule::new(
            &topology,
            chain,
            MiniCastConfig {
                ntx: 4,
                early_radio_off: early,
                ..MiniCastConfig::default()
            },
        );
        // Trivial predicate: own packet only.
        let failed = vec![false; topology.len()];
        let r = mc.run_with(
            &calm(&topology),
            &mut Xoshiro256::seed_from(8),
            &failed,
            |v, have| have[v],
        );
        r.mean_radio_on_ms()
    };
    assert!(run(true) < run(false));
}

/// One golden line: the case key and a transcript digest of the round's
/// `cycles_run` and the `Debug` text of its per-node outcomes, which
/// covers every field of every `NodeOutcome`.
fn golden_line(key: &str, result: &MiniCastResult) -> String {
    let text = format!("{} {:?}", result.cycles_run, result.nodes);
    let mut transcript = ppda::integrity::Transcript::new(b"ppda/golden/minicast_rounds");
    transcript.absorb(b"result", text.as_bytes());
    let digest: String = transcript
        .challenge_block(b"digest")
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    format!("{key} {digest}\n")
}

/// MiniCast rounds on four topologies of 65 to 128 nodes, so node sets
/// span more than one 64-bit word: all-to-all chains of 1 or 3
/// fragments, at (NTX 3, early radio-off) or (NTX 6, always on), under
/// 2 dB of attenuation at seed 1 or with 30% link loss at seed 2 and the
/// initiator failed. The last node and node 63 are failed in every case,
/// and nodes complete on every third packet (or at once, for multiples
/// of 7) — 32 lines.
#[test]
fn minicast_rounds_over_64_nodes_match_golden_digests() {
    let topologies = [
        ("line65", Topology::line(65, 12.0, 2)),
        ("grid9x9", Topology::grid(9, 9, 16.0, 5)),
        ("grid16x8", Topology::grid(16, 8, 15.0, 7)),
        ("rgg100", Topology::random_geometric(100, 120.0, 90.0, 3)),
    ];
    let mut lines = String::new();
    for (name, topology) in &topologies {
        let n = topology.len();
        let owners: Vec<u16> = (0..n as u16).collect();
        for fragments in [1, 3] {
            let chain = ChainSpec::with_fragments(frame(), owners.clone(), fragments).unwrap();
            for (ntx, early_radio_off) in [(3, true), (6, false)] {
                let config = MiniCastConfig {
                    ntx,
                    early_radio_off,
                    ..MiniCastConfig::default()
                };
                let mc = MiniCastSchedule::new(topology, chain.clone(), config);
                for (loss, seed) in [(0.0, 1), (0.3, 2)] {
                    let mut failed = vec![false; n];
                    failed[n - 1] = true;
                    failed[63] = true;
                    if seed == 2 {
                        failed[mc.initiator()] = true;
                    }
                    let conditions = LinkConditions::new(topology, 2.0, loss);
                    let result = mc.run_with(
                        &conditions,
                        &mut Xoshiro256::seed_from(seed),
                        &failed,
                        |v, have| have.iter().step_by(3).all(|&x| x) || v % 7 == 0,
                    );
                    let key = format!(
                        "{name} fragments={fragments} ntx={ntx} early_off={early_radio_off} \
                         loss={loss} seed={seed}"
                    );
                    lines.push_str(&golden_line(&key, &result));
                }
            }
        }
    }
    assert_eq!(lines.lines().count(), 32);
    assert_golden("minicast_rounds.txt", &lines);
}
