//! Wire formats for the two protocol phases.
//!
//! * [`SharePacket`] — sharing phase: one evaluation value, AES-CCM sealed
//!   with the pairwise key of (source, destination). The MAC header fields
//!   (src, dst, round, sub-slot) are authenticated as associated data.
//! * [`SumPacket`] — reconstruction phase: one sum share plus its 128-bit
//!   contributor mask, in plaintext (the sums are blinded by share
//!   randomness; the paper runs this phase "in plane text").

use bytes::{Buf, BufMut};
use ppda_crypto::{Ccm, PairwiseKeys};
use ppda_field::{Gf, PrimeField};

use crate::error::SssError;
use crate::share::Share;

/// Maximum number of distinct source ids representable in the contributor
/// mask (u128).
pub const MAX_MASK_SOURCES: usize = 128;

/// A sharing-phase packet: source `src` delivers `share` to destination
/// `dst` in round `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharePacket<P: PrimeField> {
    /// Originating source node.
    pub src: u16,
    /// Designated destination node.
    pub dst: u16,
    /// Aggregation round identifier (freshness for the CCM nonce).
    pub round: u32,
    /// The share carried to the destination's public point.
    pub share: Share<P>,
}

impl<P: PrimeField> SharePacket<P> {
    /// Sealed (ciphertext) payload length for this field and tag size.
    pub fn sealed_len(tag_len: usize) -> usize {
        Self::sealed_len_batch(1, tag_len)
    }

    /// Sealed payload length for a `lanes`-wide batch (see
    /// [`seal_share_lanes`]).
    pub fn sealed_len_batch(lanes: usize, tag_len: usize) -> usize {
        lanes * P::ENCODED_LEN + tag_len
    }

    /// Associated data binding the ciphertext to its chain position.
    fn aad(src: u16, dst: u16, round: u32) -> [u8; 8] {
        let mut aad = [0u8; 8];
        aad[0..2].copy_from_slice(&src.to_be_bytes());
        aad[2..4].copy_from_slice(&dst.to_be_bytes());
        aad[4..8].copy_from_slice(&round.to_be_bytes());
        aad
    }

    /// Encrypt the share value with the (src, dst) pairwise key.
    ///
    /// # Errors
    ///
    /// Propagates key-lookup and sealing failures from `ppda-crypto`.
    pub fn seal(&self, keys: &PairwiseKeys, tag_len: usize) -> Result<Vec<u8>, SssError> {
        let key = keys.key(self.src, self.dst)?;
        let ccm = Ccm::new(key, tag_len)?;
        let mut out = Vec::new();
        self.seal_with(&ccm, &mut out)?;
        Ok(out)
    }

    /// [`SharePacket::seal`] with a prebuilt cipher context and a reusable
    /// output buffer: the pairwise key of a (src, dst) pair never changes
    /// within a deployment, so periodic senders expand the AES key schedule
    /// once instead of once per packet.
    ///
    /// # Errors
    ///
    /// Propagates sealing failures from `ppda-crypto`.
    pub fn seal_with(&self, ccm: &Ccm, out: &mut Vec<u8>) -> Result<(), SssError> {
        seal_share_lanes(
            ccm,
            self.src,
            self.dst,
            self.round,
            self.share.x,
            &[self.share.y],
            out,
        )
    }

    /// Decrypt and authenticate a sealed share value.
    ///
    /// The destination knows `(src, dst, round, x)` from the TDMA schedule;
    /// only the `y` value travels encrypted.
    ///
    /// # Errors
    ///
    /// * [`SssError::Crypto`] on authentication failure (wrong key, replay
    ///   across rounds, tampering).
    /// * [`SssError::BadPacket`] if the plaintext does not decode as a
    ///   canonical field element.
    pub fn open(
        keys: &PairwiseKeys,
        tag_len: usize,
        src: u16,
        dst: u16,
        round: u32,
        x: Gf<P>,
        sealed: &[u8],
    ) -> Result<Self, SssError> {
        let key = keys.key(src, dst)?;
        let ccm = Ccm::new(key, tag_len)?;
        Self::open_with(&ccm, src, dst, round, x, sealed)
    }

    /// [`SharePacket::open`] with a prebuilt cipher context (the receiving
    /// twin of [`SharePacket::seal_with`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SharePacket::open`].
    pub fn open_with(
        ccm: &Ccm,
        src: u16,
        dst: u16,
        round: u32,
        x: Gf<P>,
        sealed: &[u8],
    ) -> Result<Self, SssError> {
        let nonce = Ccm::nonce(src, dst, round, x.value() as u32);
        let plain = ccm.open(&nonce, &Self::aad(src, dst, round), sealed)?;
        let y = Gf::from_bytes(&plain).ok_or(SssError::BadPacket {
            what: "share value is not a canonical field element",
        })?;
        Ok(SharePacket {
            src,
            dst,
            round,
            share: Share { x, y },
        })
    }
}

/// Seal a lane batch of share values for one `(src, dst, round, x)`
/// coordinate under **one** CCM invocation: the payload is the
/// concatenation of the B little-endian lane encodings, the nonce and
/// associated data are exactly those of the scalar [`SharePacket::seal`] —
/// so a 1-lane batch is byte-identical to the scalar packet on the wire.
///
/// `out` is cleared and receives `ciphertext ‖ tag`.
///
/// Wide batches (fragmented transport) can exceed one 802.15.4 frame, so
/// the payload buffer grows with the lane count: batches up to 32 lanes
/// (one frame plus margin) encode on the stack, wider ones take one heap
/// allocation per call.
///
/// # Errors
///
/// Propagates sealing failures from `ppda-crypto`.
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
    let mut stack = [0u8; 128];
    let mut heap;
    let payload: &mut [u8] = if len <= stack.len() {
        &mut stack[..len]
    } else {
        heap = vec![0u8; len];
        &mut heap
    };
    for (chunk, &y) in payload.chunks_exact_mut(P::ENCODED_LEN).zip(ys) {
        y.write_bytes(chunk);
    }
    let nonce = Ccm::nonce(src, dst, round, x.value() as u32);
    ccm.seal_into(
        &nonce,
        &SharePacket::<P>::aad(src, dst, round),
        payload,
        out,
    )?;
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

/// A reconstruction-phase packet: the sum share of one aggregation point,
/// with the mask of sources whose shares were folded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SumPacket<P: PrimeField> {
    /// The node publishing its sum (identifies the public point).
    pub node: u16,
    /// Round identifier.
    pub round: u32,
    /// The sum share (x = the node's public point).
    pub share: Share<P>,
    /// Contributor mask: bit s set iff source s's share was included.
    pub mask: u128,
}

impl<P: PrimeField> SumPacket<P> {
    /// Encoded payload length: node(2) + round(4) + y + mask(16).
    /// (`x` is implied by `node` and not transmitted.)
    pub fn encoded_len() -> usize {
        2 + 4 + P::ENCODED_LEN + 16
    }

    /// Serialize to the wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::encoded_len());
        out.put_u16(self.node);
        out.put_u32(self.round);
        out.extend_from_slice(&self.share.y.to_bytes());
        out.put_u128(self.mask);
        out
    }

    /// Deserialize from the wire form.
    ///
    /// # Errors
    ///
    /// [`SssError::BadPacket`] on truncation, a non-canonical field value,
    /// or a node/x mismatch.
    pub fn decode(bytes: &[u8]) -> Result<Self, SssError> {
        if bytes.len() < Self::encoded_len() {
            return Err(SssError::BadPacket {
                what: "sum packet truncated",
            });
        }
        let mut buf = bytes;
        let node = buf.get_u16();
        let round = buf.get_u32();
        let y = Gf::from_bytes(&buf[..P::ENCODED_LEN]).ok_or(SssError::BadPacket {
            what: "sum value is not a canonical field element",
        })?;
        buf.advance(P::ENCODED_LEN);
        let mask = buf.get_u128();
        Ok(SumPacket {
            node,
            round,
            share: Share {
                x: ppda_field::share_x::<P>(node as usize),
                y,
            },
            mask,
        })
    }
}

/// The reconstruction-phase packet of a batched round: one sum share *per
/// lane* plus the shared contributor mask. Every lane was accumulated from
/// the same set of sources (they travel in the same sealed share packets),
/// so one mask covers the batch.
///
/// A 1-lane [`SumBatch`] is byte-identical on the wire to [`SumPacket`].
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
    /// Encoded payload length: node(2) + round(4) + lanes·y + mask(16).
    pub fn encoded_len(lanes: usize) -> usize {
        2 + 4 + lanes * P::ENCODED_LEN + 16
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
    use ppda_field::{share_x, Gf31, Mersenne31};

    fn keys() -> PairwiseKeys {
        PairwiseKeys::derive(&[9u8; 16], 8)
    }

    #[test]
    fn share_packet_seal_open_round_trip() {
        let pkt = SharePacket::<Mersenne31> {
            src: 2,
            dst: 5,
            round: 7,
            share: Share {
                x: share_x::<Mersenne31>(5),
                y: Gf31::new(123456789),
            },
        };
        let sealed = pkt.seal(&keys(), 4).unwrap();
        assert_eq!(sealed.len(), SharePacket::<Mersenne31>::sealed_len(4));
        let opened =
            SharePacket::<Mersenne31>::open(&keys(), 4, 2, 5, 7, share_x::<Mersenne31>(5), &sealed)
                .unwrap();
        assert_eq!(opened, pkt);
    }

    #[test]
    fn wrong_reader_cannot_open() {
        let pkt = SharePacket::<Mersenne31> {
            src: 2,
            dst: 5,
            round: 7,
            share: Share {
                x: share_x::<Mersenne31>(5),
                y: Gf31::new(42),
            },
        };
        let sealed = pkt.seal(&keys(), 4).unwrap();
        // Node 3 tries to decrypt with its own pairwise key (2,3).
        let eavesdrop =
            SharePacket::<Mersenne31>::open(&keys(), 4, 2, 3, 7, share_x::<Mersenne31>(3), &sealed);
        assert!(matches!(eavesdrop, Err(SssError::Crypto(_))));
    }

    #[test]
    fn replay_across_rounds_fails() {
        let pkt = SharePacket::<Mersenne31> {
            src: 1,
            dst: 4,
            round: 10,
            share: Share {
                x: share_x::<Mersenne31>(4),
                y: Gf31::new(5),
            },
        };
        let sealed = pkt.seal(&keys(), 4).unwrap();
        let replayed = SharePacket::<Mersenne31>::open(
            &keys(),
            4,
            1,
            4,
            11, // a later round
            share_x::<Mersenne31>(4),
            &sealed,
        );
        assert!(matches!(replayed, Err(SssError::Crypto(_))));
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let pkt = SharePacket::<Mersenne31> {
            src: 0,
            dst: 1,
            round: 0,
            share: Share {
                x: share_x::<Mersenne31>(1),
                y: Gf31::new(77),
            },
        };
        let mut sealed = pkt.seal(&keys(), 4).unwrap();
        sealed[0] ^= 0x80;
        let r =
            SharePacket::<Mersenne31>::open(&keys(), 4, 0, 1, 0, share_x::<Mersenne31>(1), &sealed);
        assert!(matches!(r, Err(SssError::Crypto(_))));
    }

    #[test]
    fn one_lane_batch_seal_is_byte_identical_to_scalar() {
        let pkt = SharePacket::<Mersenne31> {
            src: 2,
            dst: 5,
            round: 7,
            share: Share {
                x: share_x::<Mersenne31>(5),
                y: Gf31::new(987654),
            },
        };
        let scalar = pkt.seal(&keys(), 4).unwrap();
        let ccm = Ccm::new(keys().key(2, 5).unwrap(), 4).unwrap();
        let mut batch = Vec::new();
        seal_share_lanes(&ccm, 2, 5, 7, pkt.share.x, &[pkt.share.y], &mut batch).unwrap();
        assert_eq!(scalar, batch);

        // And the batch opener recovers the scalar value.
        let mut scratch = Vec::new();
        let mut lanes = Vec::new();
        open_share_lanes(
            &ccm,
            2,
            5,
            7,
            pkt.share.x,
            1,
            &batch,
            &mut scratch,
            &mut lanes,
        )
        .unwrap();
        assert_eq!(lanes, vec![pkt.share.y]);
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
    fn seal_with_matches_seal() {
        let pkt = SharePacket::<Mersenne31> {
            src: 0,
            dst: 6,
            round: 3,
            share: Share {
                x: share_x::<Mersenne31>(6),
                y: Gf31::new(31337),
            },
        };
        let ccm = Ccm::new(keys().key(0, 6).unwrap(), 4).unwrap();
        let mut reused = Vec::new();
        pkt.seal_with(&ccm, &mut reused).unwrap();
        assert_eq!(reused, pkt.seal(&keys(), 4).unwrap());
        let opened =
            SharePacket::<Mersenne31>::open_with(&ccm, 0, 6, 3, pkt.share.x, &reused).unwrap();
        assert_eq!(opened, pkt);
    }

    #[test]
    fn one_lane_sum_batch_matches_sum_packet_wire() {
        let scalar = SumPacket::<Mersenne31> {
            node: 3,
            round: 9,
            share: Share {
                x: share_x::<Mersenne31>(3),
                y: Gf31::new(999),
            },
            mask: 0b1011,
        };
        let batch = SumBatch::<Mersenne31> {
            node: 3,
            round: 9,
            x: share_x::<Mersenne31>(3),
            ys: vec![Gf31::new(999)],
            mask: 0b1011,
        };
        assert_eq!(scalar.encode(), batch.encode());
        assert_eq!(
            SumBatch::<Mersenne31>::encoded_len(1),
            SumPacket::<Mersenne31>::encoded_len()
        );
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
        let pkt = SumPacket::<Mersenne31> {
            node: 3,
            round: 9,
            share: Share {
                x: share_x::<Mersenne31>(3),
                y: Gf31::new(999),
            },
            mask: 0b1011,
        };
        let encoded = pkt.encode();
        assert_eq!(encoded.len(), SumPacket::<Mersenne31>::encoded_len());
        let decoded = SumPacket::<Mersenne31>::decode(&encoded).unwrap();
        assert_eq!(decoded, pkt);
    }

    #[test]
    fn sum_packet_truncation_rejected() {
        let pkt = SumPacket::<Mersenne31> {
            node: 3,
            round: 9,
            share: Share {
                x: share_x::<Mersenne31>(3),
                y: Gf31::new(999),
            },
            mask: 1,
        };
        let encoded = pkt.encode();
        assert!(matches!(
            SumPacket::<Mersenne31>::decode(&encoded[..encoded.len() - 1]),
            Err(SssError::BadPacket { .. })
        ));
    }

    #[test]
    fn sum_packet_x_derived_from_node() {
        let pkt = SumPacket::<Mersenne31> {
            node: 7,
            round: 0,
            share: Share {
                x: share_x::<Mersenne31>(7),
                y: Gf31::new(1),
            },
            mask: 0,
        };
        let decoded = SumPacket::<Mersenne31>::decode(&pkt.encode()).unwrap();
        assert_eq!(decoded.share.x, Gf31::new(8));
    }

    #[test]
    fn large_mask_round_trips() {
        let pkt = SumPacket::<Mersenne31> {
            node: 0,
            round: 1,
            share: Share {
                x: share_x::<Mersenne31>(0),
                y: Gf31::new(2),
            },
            mask: u128::MAX,
        };
        assert_eq!(
            SumPacket::<Mersenne31>::decode(&pkt.encode()).unwrap().mask,
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
}
