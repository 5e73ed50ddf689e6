//! Wire formats for the two protocol phases. Each carries a lane batch;
//! the one-lane batch is the paper's packet.
//!
//! * Sharing phase: [`seal_share_lanes`] seals a source's share values for
//!   one destination under their pairwise AES-CCM key, and
//!   [`open_share_lanes`] authenticates and decodes them. The MAC header
//!   fields (src, dst, round) are authenticated as associated data;
//!   [`SharePacket`] names the format and its length.
//! * Reconstruction phase: [`SumBatch`] carries a node's sum shares plus
//!   their 128-bit contributor mask, in plaintext (the sums are blinded by
//!   share randomness; the paper runs this phase "in plane text").

use std::marker::PhantomData;

use bytes::{Buf, BufMut};
use ppda_crypto::Ccm;
use ppda_field::{Gf, PrimeField};

use crate::error::SssError;

/// Maximum number of distinct source ids representable in the contributor
/// mask (u128).
pub const MAX_MASK_SOURCES: usize = 128;

/// The sharing-phase packet format: a lane batch of share values for one
/// `(src, dst, round, x)` coordinate, sealed by [`seal_share_lanes`] and
/// opened by [`open_share_lanes`].
#[derive(Debug)]
pub struct SharePacket<P: PrimeField>(PhantomData<P>);

impl<P: PrimeField> SharePacket<P> {
    /// Sealed payload length for a `lanes`-wide batch (see
    /// [`seal_share_lanes`]), saturating at `usize::MAX`.
    pub fn sealed_len_batch(lanes: usize, tag_len: usize) -> usize {
        lanes.saturating_mul(P::ENCODED_LEN).saturating_add(tag_len)
    }

    /// Associated data binding the ciphertext to its chain position.
    fn aad(src: u16, dst: u16, round: u32) -> [u8; 8] {
        let mut aad = [0u8; 8];
        aad[0..2].copy_from_slice(&src.to_be_bytes());
        aad[2..4].copy_from_slice(&dst.to_be_bytes());
        aad[4..8].copy_from_slice(&round.to_be_bytes());
        aad
    }
}

/// Seal a lane batch of share values for one `(src, dst, round, x)`
/// coordinate under **one** CCM invocation: the payload is the
/// concatenation of the B little-endian lane encodings, the nonce is
/// derived from the coordinate and the associated data binds
/// `(src, dst, round)`, so the ciphertext opens only for its destination,
/// in its round.
///
/// `out` is cleared and receives `ciphertext ‖ tag`: the lanes are encoded
/// straight into it and sealed there, so a reused buffer makes no
/// allocation at any lane count.
///
/// # Errors
///
/// Propagates sealing failures from `ppda-crypto`; `out` is then empty.
pub fn seal_share_lanes<P: PrimeField>(
    ccm: &Ccm,
    src: u16,
    dst: u16,
    round: u32,
    x: Gf<P>,
    ys: &[Gf<P>],
    out: &mut Vec<u8>,
) -> Result<(), SssError> {
    let len = ys.len() * P::ENCODED_LEN;
    out.clear();
    out.reserve(len + ccm.tag_len());
    out.resize(len, 0);
    for (chunk, &y) in out.chunks_exact_mut(P::ENCODED_LEN).zip(ys) {
        y.write_bytes(chunk);
    }
    let nonce = Ccm::nonce(src, dst, round, x.value() as u32);
    ccm.seal_in_place(&nonce, &SharePacket::<P>::aad(src, dst, round), out)?;
    Ok(())
}

/// Open a lane batch sealed by [`seal_share_lanes`]: authenticates the
/// ciphertext, then decodes exactly `lanes` canonical field elements into
/// `out` (cleared first). `scratch` holds the decrypted payload between
/// the two steps so round loops can reuse one buffer.
///
/// # Errors
///
/// * [`SssError::Crypto`] on authentication failure.
/// * [`SssError::BadPacket`] if the plaintext length disagrees with
///   `lanes` or any lane is non-canonical.
// The argument list is the packet coordinate plus two scratch buffers;
// bundling them into a struct would only rename the problem.
#[allow(clippy::too_many_arguments)]
pub fn open_share_lanes<P: PrimeField>(
    ccm: &Ccm,
    src: u16,
    dst: u16,
    round: u32,
    x: Gf<P>,
    lanes: usize,
    sealed: &[u8],
    scratch: &mut Vec<u8>,
    out: &mut Vec<Gf<P>>,
) -> Result<(), SssError> {
    let nonce = Ccm::nonce(src, dst, round, x.value() as u32);
    ccm.open_into(
        &nonce,
        &SharePacket::<P>::aad(src, dst, round),
        sealed,
        scratch,
    )?;
    if lanes.checked_mul(P::ENCODED_LEN) != Some(scratch.len()) {
        return Err(SssError::BadPacket {
            what: "lane payload length disagrees with the batch width",
        });
    }
    out.clear();
    for chunk in scratch.chunks_exact(P::ENCODED_LEN) {
        out.push(Gf::from_bytes(chunk).ok_or(SssError::BadPacket {
            what: "share lane is not a canonical field element",
        })?);
    }
    Ok(())
}

/// The reconstruction-phase packet of a batched round: one sum share *per
/// lane* plus the shared contributor mask. Every lane was accumulated from
/// the same set of sources (they travel in the same sealed share packets),
/// so one mask covers the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SumBatch<P: PrimeField> {
    /// The node publishing its sums (identifies the public point).
    pub node: u16,
    /// Round identifier.
    pub round: u32,
    /// The public evaluation point (implied by `node`, not transmitted).
    pub x: Gf<P>,
    /// Lane-ordered sum share values at `x`.
    pub ys: Vec<Gf<P>>,
    /// Contributor mask: bit s set iff source s's shares were included.
    pub mask: u128,
}

impl<P: PrimeField> SumBatch<P> {
    /// Encoded payload length: node(2) + round(4) + lanes·y + mask(16),
    /// saturating at `usize::MAX`.
    pub fn encoded_len(lanes: usize) -> usize {
        lanes
            .saturating_mul(P::ENCODED_LEN)
            .saturating_add(2 + 4 + 16)
    }

    /// Serialize to the wire form, appending to `out` (cleared first).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(Self::encoded_len(self.ys.len()));
        out.put_u16(self.node);
        out.put_u32(self.round);
        for &y in &self.ys {
            out.extend_from_slice(&y.to_bytes());
        }
        out.put_u128(self.mask);
    }

    /// Serialize to the wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Deserialize a `lanes`-wide batch from the wire form.
    ///
    /// # Errors
    ///
    /// [`SssError::BadPacket`] on truncation, a non-canonical lane value,
    /// or a lane count whose encoded length overflows `usize`.
    pub fn decode(bytes: &[u8], lanes: usize) -> Result<Self, SssError> {
        let len = lanes
            .checked_mul(P::ENCODED_LEN)
            .and_then(|ys| ys.checked_add(Self::encoded_len(0)))
            .ok_or(SssError::BadPacket {
                what: "sum batch lane count overflows its encoded length",
            })?;
        if bytes.len() < len {
            return Err(SssError::BadPacket {
                what: "sum batch truncated",
            });
        }
        let mut buf = bytes;
        let node = buf.get_u16();
        let round = buf.get_u32();
        let mut ys = Vec::with_capacity(lanes);
        for _ in 0..lanes {
            let y = Gf::from_bytes(&buf[..P::ENCODED_LEN]).ok_or(SssError::BadPacket {
                what: "sum lane is not a canonical field element",
            })?;
            buf.advance(P::ENCODED_LEN);
            ys.push(y);
        }
        let mask = buf.get_u128();
        Ok(SumBatch {
            node,
            round,
            x: ppda_field::share_x::<P>(node as usize),
            ys,
            mask,
        })
    }
}

/// The sharing-phase integrity packet: a source's transcript commitment
/// to its full per-lane share vector for one round. No round sends it:
/// integrity-on rounds run the sum audit only, and perfbench's traced
/// replay is its one caller.
///
/// The digest itself is computed by the integrity layer (`ppda-integrity`);
/// this type only fixes its wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitPacket {
    /// The committing source's node id.
    pub src: u16,
    /// Round identifier.
    pub round: u32,
    /// 16-byte transcript digest over the source's share vector.
    pub digest: [u8; 16],
}

impl CommitPacket {
    /// Encoded payload length: src(2) + round(4) + digest(16).
    pub const ENCODED_LEN: usize = 2 + 4 + 16;

    /// Serialize to the wire form, appending to `out` (cleared first).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(Self::ENCODED_LEN);
        out.put_u16(self.src);
        out.put_u32(self.round);
        out.extend_from_slice(&self.digest);
    }

    /// Serialize to the wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Deserialize from the wire form.
    ///
    /// # Errors
    ///
    /// [`SssError::BadPacket`] on truncation.
    pub fn decode(bytes: &[u8]) -> Result<Self, SssError> {
        if bytes.len() < Self::ENCODED_LEN {
            return Err(SssError::BadPacket {
                what: "commit packet truncated",
            });
        }
        let mut buf = bytes;
        let src = buf.get_u16();
        let round = buf.get_u32();
        let mut digest = [0u8; 16];
        digest.copy_from_slice(&buf[..16]);
        Ok(CommitPacket { src, round, digest })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppda_crypto::PairwiseKeys;
    use ppda_field::{share_x, Gf31, Mersenne31};
    use proptest::prelude::*;

    fn keys() -> PairwiseKeys {
        PairwiseKeys::derive(&[9u8; 16], 8)
    }

    fn ccm(src: u16, dst: u16) -> Ccm {
        Ccm::new(keys().key(src, dst).unwrap(), 4).unwrap()
    }

    /// Seal one share value at `(src, dst, round)`: the paper's
    /// sharing-phase packet is a one-lane batch.
    fn seal1(src: u16, dst: u16, round: u32, y: Gf31) -> Vec<u8> {
        let x = share_x::<Mersenne31>(dst as usize);
        let mut sealed = Vec::new();
        seal_share_lanes(&ccm(src, dst), src, dst, round, x, &[y], &mut sealed).unwrap();
        sealed
    }

    /// Open a one-lane batch as `reader` would, with its pairwise key
    /// and its own coordinate.
    fn open1(src: u16, reader: u16, round: u32, sealed: &[u8]) -> Result<Vec<Gf31>, SssError> {
        let x = share_x::<Mersenne31>(reader as usize);
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        let ccm = ccm(src, reader);
        open_share_lanes(
            &ccm,
            src,
            reader,
            round,
            x,
            1,
            sealed,
            &mut scratch,
            &mut out,
        )?;
        Ok(out)
    }

    /// The paper's reconstruction-phase packet: a one-lane sum batch.
    fn sum1(node: u16, round: u32, y: Gf31, mask: u128) -> SumBatch<Mersenne31> {
        SumBatch {
            node,
            round,
            x: share_x::<Mersenne31>(node as usize),
            ys: vec![y],
            mask,
        }
    }

    #[test]
    fn share_packet_seal_open_round_trip() {
        let y = Gf31::new(123456789);
        let sealed = seal1(2, 5, 7, y);
        assert_eq!(
            sealed.len(),
            SharePacket::<Mersenne31>::sealed_len_batch(1, 4)
        );
        assert_eq!(open1(2, 5, 7, &sealed).unwrap(), [y]);
    }

    #[test]
    fn wrong_reader_cannot_open() {
        let sealed = seal1(2, 5, 7, Gf31::new(42));
        // Node 3 tries to decrypt with its own pairwise key (2,3).
        assert!(matches!(open1(2, 3, 7, &sealed), Err(SssError::Crypto(_))));
    }

    #[test]
    fn replay_across_rounds_fails() {
        let sealed = seal1(1, 4, 10, Gf31::new(5));
        // Replayed in a later round.
        assert!(matches!(open1(1, 4, 11, &sealed), Err(SssError::Crypto(_))));
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let mut sealed = seal1(0, 1, 0, Gf31::new(77));
        sealed[0] ^= 0x80;
        assert!(matches!(open1(0, 1, 0, &sealed), Err(SssError::Crypto(_))));
    }

    #[test]
    fn lane_batch_round_trips_and_authenticates() {
        let ccm = Ccm::new(keys().key(1, 3).unwrap(), 4).unwrap();
        let x = share_x::<Mersenne31>(3);
        let ys: Vec<Gf31> = (0..16).map(|i| Gf31::new(1_000_000 + i)).collect();
        let mut sealed = Vec::new();
        seal_share_lanes(&ccm, 1, 3, 9, x, &ys, &mut sealed).unwrap();
        assert_eq!(
            sealed.len(),
            SharePacket::<Mersenne31>::sealed_len_batch(16, 4)
        );

        let mut scratch = Vec::new();
        let mut out = Vec::new();
        open_share_lanes(&ccm, 1, 3, 9, x, 16, &sealed, &mut scratch, &mut out).unwrap();
        assert_eq!(out, ys);

        // Wrong lane count: authentic ciphertext, wrong shape.
        assert!(matches!(
            open_share_lanes(&ccm, 1, 3, 9, x, 8, &sealed, &mut scratch, &mut out),
            Err(SssError::BadPacket { .. })
        ));
        // Tampering is caught before decoding.
        sealed[0] ^= 1;
        assert!(matches!(
            open_share_lanes(&ccm, 1, 3, 9, x, 16, &sealed, &mut scratch, &mut out),
            Err(SssError::Crypto(_))
        ));
    }

    #[test]
    fn open_share_lanes_rejects_an_oversized_lane_count() {
        // 2^62 lanes of 4 bytes is 2^64 bytes: an unchecked product wraps
        // to 0 and would accept this empty plaintext as the whole batch.
        let ccm = Ccm::new(keys().key(1, 3).unwrap(), 4).unwrap();
        let x = share_x::<Mersenne31>(3);
        let mut sealed = Vec::new();
        seal_share_lanes::<Mersenne31>(&ccm, 1, 3, 9, x, &[], &mut sealed).unwrap();
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        assert!(matches!(
            open_share_lanes(&ccm, 1, 3, 9, x, 1 << 62, &sealed, &mut scratch, &mut out),
            Err(SssError::BadPacket { .. })
        ));
    }

    #[test]
    fn packet_lengths_saturate_instead_of_overflowing() {
        type Share = SharePacket<Mersenne31>;
        type Sums = SumBatch<Mersenne31>;
        assert_eq!(Share::sealed_len_batch(usize::MAX, 4), usize::MAX);
        assert_eq!(Share::sealed_len_batch(1, usize::MAX), usize::MAX);
        assert_eq!(Share::sealed_len_batch(usize::MAX / 4, 4), usize::MAX);
        assert_eq!(Sums::encoded_len(usize::MAX), usize::MAX);
        assert_eq!(Sums::encoded_len(usize::MAX / 4), usize::MAX);
        // Below saturation the lengths are exact.
        assert_eq!(Share::sealed_len_batch(16, 4), 68);
        assert_eq!(Sums::encoded_len(1), 26);
    }

    #[test]
    fn wide_lane_batch_exceeding_one_frame_round_trips() {
        // 64 lanes = 256 payload bytes: past the single-frame budget, the
        // regime the fragmenting transport carries. The sealing path must
        // not be capped at one PSDU.
        let ccm = Ccm::new(keys().key(2, 4).unwrap(), 4).unwrap();
        let x = share_x::<Mersenne31>(4);
        let ys: Vec<Gf31> = (0..64).map(|i| Gf31::new(7_000_000 + i * 13)).collect();
        let mut sealed = Vec::new();
        seal_share_lanes(&ccm, 2, 4, 5, x, &ys, &mut sealed).unwrap();
        assert_eq!(
            sealed.len(),
            SharePacket::<Mersenne31>::sealed_len_batch(64, 4)
        );
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        open_share_lanes(&ccm, 2, 4, 5, x, 64, &sealed, &mut scratch, &mut out).unwrap();
        assert_eq!(out, ys);
    }

    #[test]
    fn sum_batch_round_trip() {
        let batch = SumBatch::<Mersenne31> {
            node: 7,
            round: 2,
            x: share_x::<Mersenne31>(7),
            ys: (0..5).map(|i| Gf31::new(40 + i)).collect(),
            mask: u128::MAX >> 1,
        };
        let bytes = batch.encode();
        assert_eq!(bytes.len(), SumBatch::<Mersenne31>::encoded_len(5));
        let decoded = SumBatch::<Mersenne31>::decode(&bytes, 5).unwrap();
        assert_eq!(decoded, batch);
        assert!(matches!(
            SumBatch::<Mersenne31>::decode(&bytes[..bytes.len() - 1], 5),
            Err(SssError::BadPacket { .. })
        ));
    }

    #[test]
    fn sum_batch_decode_rejects_an_oversized_lane_count() {
        // The encoded length of 2^62 lanes overflows usize: an error, not
        // an arithmetic-overflow or capacity-overflow panic.
        assert!(matches!(
            SumBatch::<Mersenne31>::decode(&[0; 64], 1 << 62),
            Err(SssError::BadPacket { .. })
        ));
    }

    #[test]
    fn sum_packet_round_trip() {
        let pkt = sum1(3, 9, Gf31::new(999), 0b1011);
        let encoded = pkt.encode();
        assert_eq!(encoded.len(), SumBatch::<Mersenne31>::encoded_len(1));
        assert_eq!(SumBatch::<Mersenne31>::decode(&encoded, 1).unwrap(), pkt);
    }

    #[test]
    fn sum_packet_truncation_rejected() {
        let encoded = sum1(3, 9, Gf31::new(999), 1).encode();
        assert!(matches!(
            SumBatch::<Mersenne31>::decode(&encoded[..encoded.len() - 1], 1),
            Err(SssError::BadPacket { .. })
        ));
    }

    #[test]
    fn sum_packet_x_derived_from_node() {
        let encoded = sum1(7, 0, Gf31::new(1), 0).encode();
        let decoded = SumBatch::<Mersenne31>::decode(&encoded, 1).unwrap();
        assert_eq!(decoded.x, Gf31::new(8));
    }

    #[test]
    fn large_mask_round_trips() {
        let encoded = sum1(0, 1, Gf31::new(2), u128::MAX).encode();
        assert_eq!(
            SumBatch::<Mersenne31>::decode(&encoded, 1).unwrap().mask,
            u128::MAX
        );
    }

    #[test]
    fn commit_packet_round_trips() {
        let pkt = CommitPacket {
            src: 6,
            round: 0xDEAD_BEEF,
            digest: *b"0123456789abcdef",
        };
        let bytes = pkt.encode();
        assert_eq!(bytes.len(), CommitPacket::ENCODED_LEN);
        assert_eq!(CommitPacket::decode(&bytes).unwrap(), pkt);
    }

    #[test]
    fn truncated_commit_packet_is_rejected() {
        let pkt = CommitPacket {
            src: 1,
            round: 2,
            digest: [0x5a; 16],
        };
        let bytes = pkt.encode();
        for cut in 0..bytes.len() {
            assert!(matches!(
                CommitPacket::decode(&bytes[..cut]),
                Err(SssError::BadPacket { .. })
            ));
        }
    }

    /// Arbitrary bytes (mode 0), or the non-empty `valid` truncated (1),
    /// with one bit flipped (2) or intact (3).
    fn mutate(valid: &[u8], mode: u8, garbage: &[u8], at: prop::sample::Index) -> Vec<u8> {
        match mode {
            0 => garbage.to_vec(),
            1 => valid[..at.index(valid.len() + 1)].to_vec(),
            2 => {
                let mut bytes = valid.to_vec();
                let bit = at.index(bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                bytes
            }
            _ => valid.to_vec(),
        }
    }

    /// `SumBatch::decode` returns `BadPacket` or a batch that re-encodes
    /// to the prefix it was read from.
    fn sum_decode_is_total<P: PrimeField>(
        bytes: &[u8],
        lanes: usize,
    ) -> Result<Option<SumBatch<P>>, TestCaseError> {
        match SumBatch::<P>::decode(bytes, lanes) {
            Ok(batch) => {
                let wire = batch.encode();
                prop_assert_eq!(bytes.get(..wire.len()), Some(&wire[..]));
                Ok(Some(batch))
            }
            Err(e) => {
                prop_assert!(matches!(e, SssError::BadPacket { .. }), "{e:?}");
                Ok(None)
            }
        }
    }

    proptest! {
        /// Every decoder here is total. On arbitrary bytes, on truncations
        /// and bit flips of valid encodings, and at lane counts whose
        /// encoded length nears or passes `usize::MAX`, each call returns
        /// a typed error or a value that re-encodes to the bytes it was
        /// read from; an intact encoding reads back as what was written.
        #[test]
        fn decoders_are_total(
            lanes in 0usize..80,
            values in prop::collection::vec(any::<u64>(), 80),
            node in any::<u16>(),
            round in any::<u32>(),
            mask in any::<u128>(),
            digest in any::<[u8; 16]>(),
            garbage in prop::collection::vec(any::<u8>(), 0..300),
            mode in 0u8..4,
            at in any::<prop::sample::Index>(),
            huge in 0u8..3,
            below in 0usize..8,
        ) {
            let ys: Vec<Gf31> = values[..lanes].iter().map(|&v| Gf31::new(v)).collect();
            // Huge lane counts: just below usize::MAX / 4 the encoded
            // length's addition overflows (or its sum exceeds any input),
            // and just below usize::MAX its multiplication does.
            let read_lanes = match huge {
                0 => lanes,
                1 => usize::MAX / 4 - below,
                _ => usize::MAX - below,
            };
            let intact = mode == 3 && huge == 0;

            let sum = SumBatch::<Mersenne31> {
                node,
                round,
                x: share_x::<Mersenne31>(node as usize),
                ys: ys.clone(),
                mask,
            };
            let bytes = mutate(&sum.encode(), mode, &garbage, at);
            let decoded = sum_decode_is_total::<Mersenne31>(&bytes, read_lanes)?;
            if intact {
                prop_assert_eq!(decoded, Some(sum));
            }

            let commit = CommitPacket { src: node, round, digest };
            let bytes = mutate(&commit.encode(), mode, &garbage, at);
            match CommitPacket::decode(&bytes) {
                Ok(decoded) => {
                    let wire = decoded.encode();
                    prop_assert_eq!(bytes.get(..wire.len()), Some(&wire[..]));
                    prop_assert!(mode != 3 || decoded == commit);
                }
                Err(e) => {
                    prop_assert!(mode != 3, "an intact commit packet failed: {e:?}");
                    prop_assert!(matches!(e, SssError::BadPacket { .. }), "{e:?}");
                }
            }

            let (ccm, x) = (ccm(1, 3), share_x::<Mersenne31>(3));
            let mut sealed = Vec::new();
            seal_share_lanes(&ccm, 1, 3, round, x, &ys, &mut sealed).unwrap();
            let bytes = mutate(&sealed, mode, &garbage, at);
            let (mut scratch, mut opened) = (Vec::new(), Vec::new());
            let result = open_share_lanes(
                &ccm, 1, 3, round, x, read_lanes, &bytes, &mut scratch, &mut opened,
            );
            match result {
                Ok(()) => {
                    prop_assert_eq!(opened.len(), read_lanes);
                    let mut resealed = Vec::new();
                    seal_share_lanes(&ccm, 1, 3, round, x, &opened, &mut resealed).unwrap();
                    prop_assert_eq!(&resealed, &bytes);
                    prop_assert!(!intact || opened == ys);
                }
                Err(e) => {
                    prop_assert!(!intact, "an intact sealed batch failed to open: {e:?}");
                    prop_assert!(
                        matches!(e, SssError::Crypto(_) | SssError::BadPacket { .. }),
                        "{e:?}"
                    );
                }
            }
        }
    }
}
