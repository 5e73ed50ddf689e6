//! Cross-crate wire-format tests: the byte-level contracts between the SSS
//! layer, the crypto layer and the radio frame budget — including golden
//! vectors committed under `tests/golden/` that freeze the exact bytes (and
//! timing numbers) on the wire. A change that shuffles the encoding breaks
//! interop with deployed nodes even if round-trips still pass; the golden
//! files catch that class of regression.
//!
//! To regenerate after an *intentional* format change:
//! `GOLDEN_REGEN=1 cargo test --test wire_formats` — then review the diff.

use ppda::crypto::{Aes128, Ccm, CtrDrbg, PairwiseKeys};
use ppda::field::{share_x, Gf, Gf31, Mersenne31, PrimeField};
use ppda::radio::FrameSpec;
use ppda::sss::{open_share_lanes, seal_share_lanes, SharePacket, SumBatch};
use ppda_testkit::assert_golden;
use rand::RngCore;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The paper's reconstruction-phase packet: a one-lane sum batch.
fn sum1<P: PrimeField>(node: u16, round: u32, y: Gf<P>, mask: u128) -> SumBatch<P> {
    SumBatch {
        node,
        round,
        x: share_x::<P>(node as usize),
        ys: vec![y],
        mask,
    }
}

/// The paper's sharing-phase packet: one share value sealed as a
/// one-lane batch at `(src, dst, round)` under the pairwise key.
fn seal1(keys: &PairwiseKeys, tag_len: usize, src: u16, dst: u16, round: u32, y: Gf31) -> Vec<u8> {
    let ccm = Ccm::new(keys.key(src, dst).unwrap(), tag_len).unwrap();
    let x = share_x::<Mersenne31>(dst as usize);
    let mut sealed = Vec::new();
    seal_share_lanes(&ccm, src, dst, round, x, &[y], &mut sealed).unwrap();
    sealed
}

#[test]
fn golden_sum_packet_m31() {
    let pkt = sum1::<Mersenne31>(
        3,
        0x0102_0304,
        Gf31::new(0x0BAD_CAFE),
        0x0000_0000_0000_0000_0000_0000_DEAD_BEEF,
    );
    let encoded = pkt.encode();
    assert_golden("sum_packet_m31.hex", &format!("{}\n", hex(&encoded)));
    assert_eq!(SumBatch::<Mersenne31>::decode(&encoded, 1).unwrap(), pkt);
}

#[test]
fn golden_sealed_share_packet() {
    // AES-CCM is deterministic for a fixed (master key, src, dst, round, x,
    // y), so the full sealed ciphertext is a stable fixture: it freezes the
    // pairwise KDF, the nonce layout, the AAD layout and the CCM encoding
    // all at once.
    let keys = PairwiseKeys::derive(&[9u8; 16], 8);
    let y = Gf31::new(123_456_789);
    let mut lines = String::new();
    for tag_len in [4usize, 8, 16] {
        let sealed = seal1(&keys, tag_len, 2, 5, 7, y);
        assert_eq!(
            sealed.len(),
            SharePacket::<Mersenne31>::sealed_len_batch(1, tag_len)
        );
        lines.push_str(&format!("tag{tag_len} {}\n", hex(&sealed)));
    }
    assert_golden("sealed_share_packet_m31.hex", &lines);
    let sealed = seal1(&keys, 4, 2, 5, 7, y);
    let ccm = Ccm::new(keys.key(2, 5).unwrap(), 4).unwrap();
    let (mut scratch, mut opened) = (Vec::new(), Vec::new());
    let x = share_x::<Mersenne31>(5);
    open_share_lanes(&ccm, 2, 5, 7, x, 1, &sealed, &mut scratch, &mut opened).unwrap();
    assert_eq!(opened, [y]);
}

#[test]
fn golden_sealed_share_lanes() {
    // The one-lane fixture above seals a 4-byte payload, which never reaches
    // the 4-block keystream runs of the bulk CTR path. Lane batches of
    // B ∈ {1, 3, 4, 16, 64} seal 4, 12, 16, 64 and 256 bytes: tail only,
    // exactly one run, and several runs.
    let keys = PairwiseKeys::derive(&[9u8; 16], 8);
    let ccm = Ccm::new(keys.key(2, 5).unwrap(), 4).unwrap();
    let x = share_x::<Mersenne31>(5);
    let mut lines = String::new();
    let (mut sealed, mut scratch, mut opened) = (Vec::new(), Vec::new(), Vec::new());
    for lanes in [1usize, 3, 4, 16, 64] {
        let ys: Vec<Gf31> = (0..lanes as u64)
            .map(|i| Gf31::new(i.wrapping_mul(0x9E37_79B9) ^ lanes as u64))
            .collect();
        seal_share_lanes(&ccm, 2, 5, 7, x, &ys, &mut sealed).unwrap();
        assert_eq!(
            sealed.len(),
            SharePacket::<Mersenne31>::sealed_len_batch(lanes, 4)
        );
        lines.push_str(&format!("B{lanes} {}\n", hex(&sealed)));
        open_share_lanes(&ccm, 2, 5, 7, x, lanes, &sealed, &mut scratch, &mut opened).unwrap();
        assert_eq!(opened, ys, "B = {lanes} did not reopen to its lanes");
    }
    assert_golden("sealed_share_lanes_m31.hex", &lines);
}

#[test]
fn golden_drbg_stream() {
    // Share randomness and readings come from `CtrDrbg`; freeze its stream
    // under a mix of word reads and byte requests that start and end at
    // every kind of offset within a keystream block and across blocks.
    enum Read {
        U64,
        U32,
        Bytes(usize),
    }
    let reads = [
        Read::U64,
        Read::U32,
        Read::Bytes(0),
        Read::Bytes(5),
        Read::U64,
        Read::Bytes(16),
        Read::U32,
        Read::Bytes(64),
        Read::Bytes(100),
        Read::U64,
        Read::Bytes(5),
        Read::U32,
    ];
    let master = Aes128::new(&[0x5E; 16]);
    let mut lines = String::new();
    for domain in ["node-3", "a domain longer than one AES block"] {
        let mut rng = CtrDrbg::with_master_cipher(&master, domain.as_bytes());
        for pass in 0..2 {
            for read in &reads {
                let (label, bytes) = match *read {
                    Read::U64 => ("u64".to_string(), rng.next_u64().to_le_bytes().to_vec()),
                    Read::U32 => ("u32".to_string(), rng.next_u32().to_le_bytes().to_vec()),
                    Read::Bytes(len) => {
                        let mut buf = vec![0u8; len];
                        rng.fill_bytes(&mut buf);
                        (format!("bytes{len}"), buf)
                    }
                };
                lines.push_str(&format!("{domain} {pass} {label}={}\n", hex(&bytes)));
            }
        }
    }
    assert_golden("drbg_stream.hex", &lines);
}

#[test]
fn golden_ccm_nonce_layout() {
    let mut lines = String::new();
    for (src, dst, round, x) in [
        (0u16, 0u16, 0u32, 0u32),
        (2, 5, 7, 6),
        (65535, 1, 4_000_000_000, 45),
    ] {
        lines.push_str(&format!(
            "{src} {dst} {round} {x} {}\n",
            hex(&Ccm::nonce(src, dst, round, x))
        ));
    }
    assert_golden("ccm_nonce.hex", &lines);
}

#[test]
fn golden_frame_timing_table() {
    // FrameSpec has no byte serialization; its wire contract is the derived
    // slot arithmetic. Freeze psdu/on-air length and airtime/slot µs for
    // the frame shapes the protocols use.
    let mut lines = String::from("payload mic psdu on_air airtime_us slot_us\n");
    for (payload, mic) in [(4usize, 4usize), (4, 8), (4, 16), (8, 0), (26, 0), (116, 0)] {
        let f = FrameSpec::new(payload, mic).unwrap();
        lines.push_str(&format!(
            "{payload} {mic} {} {} {} {}\n",
            f.psdu_len(),
            f.on_air_len(),
            f.airtime().as_micros(),
            f.slot_duration().as_micros()
        ));
    }
    assert_golden("frame_timing.txt", &lines);
}

#[test]
fn share_packet_fits_its_frame_budget() {
    // The sharing-phase FrameSpec used by the protocols: 4-byte payload +
    // 4-byte MIC. The sealed one-lane share must fit exactly.
    let frame = FrameSpec::new(4, 4).unwrap();
    let keys = PairwiseKeys::derive(&[5u8; 16], 8);
    let sealed = seal1(&keys, 4, 1, 2, 3, Gf31::new(4242));
    assert_eq!(sealed.len(), frame.payload_len() + frame.mic_len());
}

#[test]
fn sum_packet_fits_its_frame_budget() {
    let frame = FrameSpec::new(SumBatch::<Mersenne31>::encoded_len(1), 0).unwrap();
    let pkt = sum1::<Mersenne31>(7, 1, Gf31::new(99), 0b1111);
    assert_eq!(pkt.encode().len(), frame.payload_len());
}

#[test]
fn all_testbed_frames_respect_psdu_limit() {
    // 128 sources is the configured maximum; the sum packet must still fit
    // an 802.15.4 frame.
    assert!(SumBatch::<Mersenne31>::encoded_len(1) <= 116);
    assert!(FrameSpec::new(SumBatch::<Mersenne31>::encoded_len(1), 0).is_ok());
    for tag in [4usize, 8, 16] {
        assert!(FrameSpec::new(4, tag).is_ok());
    }
}

#[test]
fn nonces_are_unique_across_protocol_coordinates() {
    // Every (src, dst, round, x) combination used by a deployment must
    // give a distinct CCM nonce, or share confidentiality collapses.
    let mut seen = std::collections::HashSet::new();
    for src in 0..8u16 {
        for dst in 0..8u16 {
            for round in 1..4u32 {
                let x = share_x::<Mersenne31>(dst as usize);
                assert!(seen.insert(Ccm::nonce(src, dst, round, x.value() as u32)));
            }
        }
    }
}

#[test]
fn cross_round_ciphertexts_differ() {
    // The same share value sealed in different rounds yields unrelated
    // ciphertexts (nonce freshness), so traffic analysis across epochs
    // learns nothing from repeats.
    let keys = PairwiseKeys::derive(&[5u8; 16], 4);
    let a = seal1(&keys, 4, 0, 1, 1, Gf31::new(1234));
    let b = seal1(&keys, 4, 0, 1, 2, Gf31::new(1234));
    assert_ne!(a, b);
}

#[test]
fn decode_rejects_garbage() {
    assert!(SumBatch::<Mersenne31>::decode(&[], 1).is_err());
    assert!(SumBatch::<Mersenne31>::decode(&[0u8; 5], 1).is_err());
    // A non-canonical field value (≥ p) in the y slot must be rejected.
    let mut bytes = sum1::<Mersenne31>(0, 0, Gf31::new(1), 0).encode();
    // y occupies bytes [6, 10); overwrite with p (non-canonical).
    bytes[6..10].copy_from_slice(&(Gf31::modulus() as u32).to_le_bytes());
    assert!(SumBatch::<Mersenne31>::decode(&bytes, 1).is_err());
}
