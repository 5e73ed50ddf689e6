//! Protocol configuration.

use ppda_field::PrimeField;
use ppda_integrity::IntegrityMode;
use ppda_radio::{fragment_frame, FadingProfile, FrameSpec, FrameTooLong, MAX_DATAGRAM_LEN};
use ppda_sss::{SharePacket, SumBatch};

use crate::error::MpcError;
use crate::Field;

/// The `B·4`-byte lane payload of a `batch`-wide packet, or an error when
/// it passes the longest datagram the fragment layer carries: no
/// transport fits such a batch, and refusing it here keeps every frame
/// length derived from it below far from overflowing `usize`.
fn lane_payload_len(batch: usize) -> Result<usize, MpcError> {
    batch
        .checked_mul(<Field as PrimeField>::ENCODED_LEN)
        .filter(|&len| len <= MAX_DATAGRAM_LEN)
        .ok_or_else(|| MpcError::InvalidConfig {
            what: format!(
                "a {batch}-lane payload exceeds the {MAX_DATAGRAM_LEN}-byte datagram limit"
            ),
        })
}

/// Wire datagram lengths of the two phases at lane width `batch` and CCM
/// tag length `tag_len`: the sealed share payload (B lane encodings + MIC)
/// and the encoded sum batch (node + round + B lanes + contributor mask).
/// Both the build-time frame-budget check and the fragmenting transport
/// layout derive from these, so they can never disagree about what
/// actually goes on the air. A batch past the datagram limit is an
/// error; a tag so long that the share length passes `usize::MAX`
/// saturates it, which no frame layout accepts.
pub(crate) fn phase_datagram_lens(
    batch: usize,
    tag_len: usize,
) -> Result<(usize, usize), MpcError> {
    lane_payload_len(batch)?;
    Ok((
        SharePacket::<Field>::sealed_len_batch(batch, tag_len),
        SumBatch::<Field>::encoded_len(batch),
    ))
}

/// The per-frame layout and fragment count of the sharing phase: the
/// classic single frame (`B·4`-byte payload + MIC) when the batch fits one
/// PSDU, otherwise — with fragmentation enabled — the uniform fragment
/// frame and the number of fragments per packet.
pub(crate) fn share_frame_layout(
    batch: usize,
    tag_len: usize,
    fragmentation: bool,
) -> Result<(FrameSpec, u32), MpcError> {
    match FrameSpec::new(lane_payload_len(batch)?, tag_len) {
        Ok(frame) => Ok((frame, 1)),
        Err(e) => {
            let (share_len, _) = phase_datagram_lens(batch, tag_len)?;
            fragmented_layout(share_len, fragmentation, e)
        }
    }
}

/// The per-frame layout and fragment count of the reconstruction phase
/// (the sharing twin of [`share_frame_layout`]; sum packets travel in
/// plaintext, so the MIC length is 0).
pub(crate) fn sum_frame_layout(
    batch: usize,
    fragmentation: bool,
) -> Result<(FrameSpec, u32), MpcError> {
    let (_, sum_len) = phase_datagram_lens(batch, 0)?;
    match FrameSpec::new(sum_len, 0) {
        Ok(frame) => Ok((frame, 1)),
        Err(e) => fragmented_layout(sum_len, fragmentation, e),
    }
}

/// Whether a lane batch of `batch` is transportable at CCM tag length
/// `tag_len`: both phases' datagrams (sealed share payload *and* encoded
/// sum batch, via [`phase_datagram_lens`]) must lay out as frames — one
/// each without fragmentation, at most 64 fragments each with it.
fn batch_fits_transport(batch: usize, tag_len: usize, fragmentation: bool) -> bool {
    share_frame_layout(batch, tag_len, fragmentation).is_ok()
        && sum_frame_layout(batch, fragmentation).is_ok()
}

fn fragmented_layout(
    datagram_len: usize,
    fragmentation: bool,
    frame_err: FrameTooLong,
) -> Result<(FrameSpec, u32), MpcError> {
    if !fragmentation {
        return Err(MpcError::InvalidConfig {
            what: frame_err.to_string(),
        });
    }
    let (frame, count) = fragment_frame(datagram_len).map_err(|e| MpcError::InvalidConfig {
        what: e.to_string(),
    })?;
    Ok((frame, count as u32))
}

/// Configuration shared by both protocol variants.
///
/// Build with [`ProtocolConfig::builder`]; defaults follow the paper's
/// evaluation setup (degree ⌊n/3⌋, S4 NTX ≈ 6, AES-128 with 4-byte MIC).
///
/// # Example
///
/// ```
/// use ppda_mpc::ProtocolConfig;
/// let config = ProtocolConfig::builder(26)
///     .sources(6)
///     .degree(4)
///     .batch(8) // 8 readings per source per round
///     .build()?;
/// assert_eq!(config.aggregator_count(), 7); // 4 + 1 + redundancy 2
/// # Ok::<(), ppda_mpc::MpcError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Total nodes in the deployment.
    pub n_nodes: usize,
    /// Nodes contributing a secret reading, in chain order.
    pub sources: Vec<u16>,
    /// Polynomial degree k — the collusion threshold.
    pub degree: usize,
    /// S4 sharing-phase NTX (the paper found 6 on FlockLab, 5 on DCube).
    pub ntx_sharing: u32,
    /// S4 reconstruction-phase NTX.
    pub ntx_reconstruction: u32,
    /// NTX used by naive S3 for full network coverage in both phases.
    pub full_coverage_ntx: u32,
    /// Extra aggregators beyond the k+1 minimum (fault-tolerance headroom).
    pub aggregator_redundancy: usize,
    /// CCM tag length for sharing-phase packets (4, 8 or 16).
    pub tag_len: usize,
    /// Deployment master secret for the bootstrap key derivation.
    pub master_key: [u8; 16],
    /// PRR threshold defining usable links for schedule computation.
    pub link_threshold: f64,
    /// Aggregation round identifier (nonce freshness).
    pub round_id: u32,
    /// Exclusive upper bound for generated sensor readings.
    pub max_reading: u64,
    /// Round-scale fading/interference mixture of the deployment site.
    pub fading: FadingProfile,
    /// Lane width B: readings each source contributes per round. The B
    /// values share one sealed packet per (source, destination) and one
    /// transport round; B = 1 is the paper's scalar protocol. Without
    /// [`fragmentation`](Self::fragmentation) the upper bound is whatever
    /// fits one 802.15.4 frame (23 lanes at the default tag length).
    pub batch: usize,
    /// Whether packets wider than one 802.15.4 frame may be fragmented
    /// across consecutive frames (see [`ppda_radio::fragment`]). Off by
    /// default: the fragmented transport honestly costs proportionally
    /// more airtime and energy per round, so opting into B > 23 is an
    /// explicit deployment decision. Has no effect on batches that fit a
    /// single frame — their wire format and schedules are unchanged. The
    /// transport schedules every fragment and loses a packet unless all of
    /// them land; a packet that lands decodes from its sealed bytes.
    pub fragmentation: bool,
    /// Whether rounds run the sum audit (see [`ppda_integrity`]). Off by
    /// default: the audit re-derives every aggregator's sum share per
    /// lane each round, and `Off` is byte-identical to the
    /// pre-integrity protocol — no packet grows, no RNG draw shifts.
    pub integrity: IntegrityMode,
}

impl ProtocolConfig {
    /// Start building a configuration for an `n`-node deployment. All
    /// nodes are sources by default.
    pub fn builder(n: usize) -> ProtocolConfigBuilder {
        ProtocolConfigBuilder {
            n_nodes: n,
            sources: None,
            degree: None,
            ntx_sharing: 6,
            ntx_reconstruction: 6,
            full_coverage_ntx: 15,
            aggregator_redundancy: 2,
            tag_len: 4,
            master_key: *b"ppda-master-key!",
            link_threshold: 0.5,
            round_id: 1,
            max_reading: 1 << 16,
            fading: FadingProfile::office(),
            batch: 1,
            fragmentation: false,
            integrity: IntegrityMode::Off,
        }
    }

    /// Number of aggregator nodes S4 provisions: degree + 1 + redundancy,
    /// saturating at `usize::MAX`.
    pub fn aggregator_count(&self) -> usize {
        self.degree
            .saturating_add(1)
            .saturating_add(self.aggregator_redundancy)
    }

    /// Frames per sealed share packet: 1 while the batch fits one
    /// 802.15.4 frame, the per-packet fragment count once
    /// [`fragmentation`](Self::fragmentation) carries it across several.
    /// (0 only for hand-assembled configurations no builder would
    /// produce.)
    pub fn share_fragments(&self) -> u32 {
        share_frame_layout(self.batch, self.tag_len, self.fragmentation)
            .map(|(_, count)| count)
            .unwrap_or(0)
    }

    /// Frames per sum-share packet (the reconstruction-phase twin of
    /// [`share_fragments`](Self::share_fragments)).
    pub fn sum_fragments(&self) -> u32 {
        sum_frame_layout(self.batch, self.fragmentation)
            .map(|(_, count)| count)
            .unwrap_or(0)
    }

    /// Check every constraint the round pipeline relies on. The fields
    /// are public, so the builder is not the only way to make a
    /// configuration: [`ProtocolConfigBuilder::build`] and plan
    /// compilation both run this check.
    ///
    /// # Errors
    ///
    /// See [`ProtocolConfigBuilder::build`].
    pub(crate) fn validate(&self) -> Result<(), MpcError> {
        let n = self.n_nodes;
        if !(2..=128).contains(&n) {
            return Err(MpcError::InvalidConfig {
                what: format!("need 2..=128 nodes, got {n}"),
            });
        }
        if self.sources.is_empty() {
            return Err(MpcError::InvalidConfig {
                what: "at least one source required".into(),
            });
        }
        let mut seen = vec![false; n];
        for &s in &self.sources {
            if s as usize >= n {
                return Err(MpcError::InvalidConfig {
                    what: format!("source {s} outside the {n}-node network"),
                });
            }
            if seen[s as usize] {
                return Err(MpcError::InvalidConfig {
                    what: format!("duplicate source {s}"),
                });
            }
            seen[s as usize] = true;
        }
        let degree = self.degree;
        if degree == 0 {
            return Err(MpcError::InvalidConfig {
                what: "degree 0 offers no privacy (shares equal the secret)".into(),
            });
        }
        // Saturating: an overflowing sum exceeds any network size too.
        let aggregators = self.aggregator_count();
        if aggregators > n {
            return Err(MpcError::InvalidConfig {
                what: format!(
                    "need {aggregators} aggregators (degree {degree} + 1 + redundancy {}) but only {n} nodes",
                    self.aggregator_redundancy
                ),
            });
        }
        if !(4..=16).contains(&self.tag_len) || !self.tag_len.is_multiple_of(2) {
            return Err(MpcError::InvalidConfig {
                what: format!("CCM tag length {} unsupported", self.tag_len),
            });
        }
        if self.ntx_sharing == 0 || self.ntx_reconstruction == 0 || self.full_coverage_ntx == 0 {
            return Err(MpcError::InvalidConfig {
                what: "NTX values must be at least 1".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.link_threshold) {
            return Err(MpcError::InvalidConfig {
                what: format!("link threshold {} outside [0, 1]", self.link_threshold),
            });
        }
        if self.batch == 0 {
            return Err(MpcError::InvalidConfig {
                what: "batch lane width must be at least 1".into(),
            });
        }
        // Both phases' datagrams — the sealed share payload (B field
        // elements + MIC) and the encoded sum batch — must be
        // transportable: one 802.15.4 frame each by default, or at most
        // 64 fragments each when fragmentation is enabled. Checked with
        // the other fields, so a too-wide batch is a typed error before
        // plan compilation lays out any frame.
        if !batch_fits_transport(self.batch, self.tag_len, self.fragmentation) {
            let max_lanes = (1..=self.batch)
                .take_while(|&b| batch_fits_transport(b, self.tag_len, self.fragmentation))
                .last()
                .unwrap_or(0);
            return Err(MpcError::BatchTooWide {
                lanes: self.batch,
                max_lanes,
            });
        }
        if self.max_reading == 0 || self.max_reading >= ppda_field::Gf31::modulus() {
            return Err(MpcError::InvalidConfig {
                what: format!(
                    "max reading {} outside (0, field modulus)",
                    self.max_reading
                ),
            });
        }
        Ok(())
    }
}

/// Builder for [`ProtocolConfig`] (see [`ProtocolConfig::builder`]).
#[derive(Debug, Clone)]
pub struct ProtocolConfigBuilder {
    n_nodes: usize,
    sources: Option<Vec<u16>>,
    degree: Option<usize>,
    ntx_sharing: u32,
    ntx_reconstruction: u32,
    full_coverage_ntx: u32,
    aggregator_redundancy: usize,
    tag_len: usize,
    master_key: [u8; 16],
    link_threshold: f64,
    round_id: u32,
    max_reading: u64,
    fading: FadingProfile,
    batch: usize,
    fragmentation: bool,
    integrity: IntegrityMode,
}

impl ProtocolConfigBuilder {
    /// Use `count` sources spread evenly over the node id space (the
    /// paper's "different number of source nodes" sweeps).
    pub fn sources(mut self, count: usize) -> Self {
        let n = self.n_nodes.max(1);
        let picked: Vec<u16> = (0..count)
            .map(|i| ((i * n) / count.max(1)) as u16)
            .collect();
        self.sources = Some(picked);
        self
    }

    /// Use an explicit source set.
    pub fn sources_explicit(mut self, sources: Vec<u16>) -> Self {
        self.sources = Some(sources);
        self
    }

    /// Polynomial degree (collusion threshold). Default: ⌊n/3⌋, min 1.
    pub fn degree(mut self, k: usize) -> Self {
        self.degree = Some(k);
        self
    }

    /// S4 sharing-phase NTX.
    pub fn ntx_sharing(mut self, ntx: u32) -> Self {
        self.ntx_sharing = ntx;
        self
    }

    /// S4 reconstruction-phase NTX.
    pub fn ntx_reconstruction(mut self, ntx: u32) -> Self {
        self.ntx_reconstruction = ntx;
        self
    }

    /// S3 full-coverage NTX for both phases.
    pub fn full_coverage_ntx(mut self, ntx: u32) -> Self {
        self.full_coverage_ntx = ntx;
        self
    }

    /// Aggregators beyond the k+1 minimum.
    pub fn aggregator_redundancy(mut self, extra: usize) -> Self {
        self.aggregator_redundancy = extra;
        self
    }

    /// CCM tag length (4, 8 or 16 bytes).
    pub fn tag_len(mut self, len: usize) -> Self {
        self.tag_len = len;
        self
    }

    /// Deployment master secret.
    pub fn master_key(mut self, key: [u8; 16]) -> Self {
        self.master_key = key;
        self
    }

    /// PRR threshold for schedule computation.
    pub fn link_threshold(mut self, thr: f64) -> Self {
        self.link_threshold = thr;
        self
    }

    /// Aggregation round id.
    pub fn round_id(mut self, id: u32) -> Self {
        self.round_id = id;
        self
    }

    /// Exclusive upper bound on generated readings.
    pub fn max_reading(mut self, bound: u64) -> Self {
        self.max_reading = bound;
        self
    }

    /// Round-scale fading profile of the deployment site.
    pub fn fading(mut self, profile: FadingProfile) -> Self {
        self.fading = profile;
        self
    }

    /// Lane width B: readings each source contributes per round (default 1,
    /// the paper's scalar protocol). Validated against the 802.15.4 frame
    /// budget at [`build`](ProtocolConfigBuilder::build) time; widths past
    /// one frame additionally need
    /// [`fragmentation`](ProtocolConfigBuilder::fragmentation).
    pub fn batch(mut self, lanes: usize) -> Self {
        self.batch = lanes;
        self
    }

    /// Allow packets wider than one 802.15.4 frame to be fragmented
    /// across consecutive frames, lifting the single-frame lane cap (23
    /// lanes at the default tag length) up to the fragment-layer limit.
    /// Default off; see [`ProtocolConfig::fragmentation`].
    pub fn fragmentation(mut self, enabled: bool) -> Self {
        self.fragmentation = enabled;
        self
    }

    /// Audit the aggregators' reported sums each round (see
    /// [`ppda_integrity`]). Default [`IntegrityMode::Off`], which is
    /// byte-identical to the pre-integrity protocol.
    pub fn integrity(mut self, mode: IntegrityMode) -> Self {
        self.integrity = mode;
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    ///
    /// [`MpcError::InvalidConfig`] when any constraint is violated:
    /// network size (2..=128 nodes), source validity/uniqueness, degree
    /// bounds, aggregator count vs. network size, tag length, NTX, link
    /// threshold, a zero lane width, the reading bound.
    /// [`MpcError::BatchTooWide`] when the lane width does not fit the
    /// transport. Plan compilation runs the same checks.
    pub fn build(self) -> Result<ProtocolConfig, MpcError> {
        let n = self.n_nodes;
        let config = ProtocolConfig {
            n_nodes: n,
            sources: self.sources.unwrap_or_else(|| (0..n as u16).collect()),
            degree: self.degree.unwrap_or_else(|| (n / 3).max(1)),
            ntx_sharing: self.ntx_sharing,
            ntx_reconstruction: self.ntx_reconstruction,
            full_coverage_ntx: self.full_coverage_ntx,
            aggregator_redundancy: self.aggregator_redundancy,
            tag_len: self.tag_len,
            master_key: self.master_key,
            link_threshold: self.link_threshold,
            round_id: self.round_id,
            max_reading: self.max_reading,
            fading: self.fading,
            batch: self.batch,
            fragmentation: self.fragmentation,
            integrity: self.integrity,
        };
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper() {
        let c = ProtocolConfig::builder(26).build().unwrap();
        assert_eq!(c.n_nodes, 26);
        assert_eq!(c.sources.len(), 26);
        assert_eq!(c.degree, 8); // ⌊26/3⌋
        assert_eq!(c.ntx_sharing, 6);
        assert_eq!(c.full_coverage_ntx, 15);
        assert_eq!(c.aggregator_count(), 11); // 8 + 1 + 2
        assert_eq!(c.tag_len, 4);
    }

    #[test]
    fn dcube_degree_default() {
        let c = ProtocolConfig::builder(45).build().unwrap();
        assert_eq!(c.degree, 15); // ⌊45/3⌋
    }

    #[test]
    fn even_source_spread() {
        let c = ProtocolConfig::builder(26).sources(3).build().unwrap();
        assert_eq!(c.sources, vec![0, 8, 17]);
        let c = ProtocolConfig::builder(26).sources(26).build().unwrap();
        assert_eq!(c.sources.len(), 26);
    }

    #[test]
    fn explicit_sources_validated() {
        assert!(ProtocolConfig::builder(10)
            .sources_explicit(vec![0, 3, 7])
            .build()
            .is_ok());
        assert!(matches!(
            ProtocolConfig::builder(10)
                .sources_explicit(vec![0, 10])
                .build(),
            Err(MpcError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ProtocolConfig::builder(10)
                .sources_explicit(vec![2, 2])
                .build(),
            Err(MpcError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ProtocolConfig::builder(10).sources_explicit(vec![]).build(),
            Err(MpcError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn degree_bounds() {
        assert!(matches!(
            ProtocolConfig::builder(10).degree(0).build(),
            Err(MpcError::InvalidConfig { .. })
        ));
        // degree 8 + 1 + 2 = 11 aggregators > 10 nodes.
        assert!(matches!(
            ProtocolConfig::builder(10).degree(8).build(),
            Err(MpcError::InvalidConfig { .. })
        ));
        assert!(ProtocolConfig::builder(10).degree(7).build().is_ok());
    }

    #[test]
    fn network_size_limits() {
        assert!(matches!(
            ProtocolConfig::builder(1).build(),
            Err(MpcError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ProtocolConfig::builder(129).build(),
            Err(MpcError::InvalidConfig { .. })
        ));
        assert!(ProtocolConfig::builder(128).build().is_ok());
    }

    #[test]
    fn tag_len_validation() {
        assert!(matches!(
            ProtocolConfig::builder(10).tag_len(3).build(),
            Err(MpcError::InvalidConfig { .. })
        ));
        assert!(ProtocolConfig::builder(10).tag_len(8).build().is_ok());
    }

    #[test]
    fn ntx_validation() {
        assert!(matches!(
            ProtocolConfig::builder(10).ntx_sharing(0).build(),
            Err(MpcError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn max_reading_validation() {
        assert!(matches!(
            ProtocolConfig::builder(10).max_reading(0).build(),
            Err(MpcError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ProtocolConfig::builder(10).max_reading(u64::MAX).build(),
            Err(MpcError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn batch_validation() {
        assert!(matches!(
            ProtocolConfig::builder(10).batch(0).build(),
            Err(MpcError::InvalidConfig { .. })
        ));
        assert_eq!(ProtocolConfig::builder(10).build().unwrap().batch, 1);
        assert_eq!(
            ProtocolConfig::builder(10).batch(16).build().unwrap().batch,
            16
        );
    }

    #[test]
    fn batch_checked_against_frame_budget_at_build_time() {
        // The sum-share packet (node 2 + round 4 + B·4 + mask 16 bytes)
        // is the binding constraint: 23 lanes fit the 116-byte PSDU
        // payload budget, 24 do not.
        assert_eq!(
            ProtocolConfig::builder(10).batch(23).build().unwrap().batch,
            23
        );
        let err = ProtocolConfig::builder(10).batch(24).build().unwrap_err();
        assert!(matches!(
            err,
            MpcError::BatchTooWide {
                lanes: 24,
                max_lanes: 23
            }
        ));
        assert!(err.to_string().contains("frame budget"));
        // A longer MIC cannot shrink the sum-bound maximum below the
        // share-frame bound (share: B·4 + tag ≤ 116).
        assert!(matches!(
            ProtocolConfig::builder(10).tag_len(16).batch(26).build(),
            Err(MpcError::BatchTooWide { max_lanes: 23, .. })
        ));
    }

    #[test]
    fn both_phase_datagrams_derive_from_the_wire_formats() {
        // The shared helper must agree with the actual encoders, not a
        // re-derivation: sealed share = B·4 + tag, sum batch =
        // node(2) + round(4) + B·4 + mask(16).
        let (share, sum) = phase_datagram_lens(23, 4).unwrap();
        assert_eq!(share, 23 * 4 + 4);
        assert_eq!(sum, 2 + 4 + 23 * 4 + 16);
        // At the default tag length the *sum* packet is the binding
        // single-frame constraint: at B = 23 the sum is already at the
        // 116-byte PSDU payload limit while the share frame has slack.
        assert_eq!(sum, 114);
        assert!(share < sum);
        // One lane past the boundary overflows the sum bound first.
        let (share24, sum24) = phase_datagram_lens(24, 4).unwrap();
        assert!(share24 <= 116, "share frame alone would still fit");
        assert!(sum24 > 116, "sum packet is what breaks at 24 lanes");
    }

    #[test]
    fn fragmentation_lifts_the_lane_cap() {
        // 24 lanes: rejected unfragmented (see the boundary test above),
        // accepted with fragmentation — and the *sum* phase is what
        // fragments first.
        let c = ProtocolConfig::builder(10)
            .batch(24)
            .fragmentation(true)
            .build()
            .unwrap();
        assert_eq!(c.batch, 24);
        assert_eq!(c.share_fragments(), 1, "share still fits one frame");
        assert_eq!(c.sum_fragments(), 2);
        // The deliverable widths: B = 64 and B = 256.
        let c = ProtocolConfig::builder(10)
            .batch(64)
            .fragmentation(true)
            .build()
            .unwrap();
        assert_eq!(c.share_fragments(), 3); // 64·4 + 4 = 260 B
        assert_eq!(c.sum_fragments(), 3); // 2+4+256+16 = 278 B
        let c = ProtocolConfig::builder(10)
            .batch(256)
            .fragmentation(true)
            .build()
            .unwrap();
        assert_eq!(c.share_fragments(), 10); // 1028 B
        assert_eq!(c.sum_fragments(), 10); // 1046 B
    }

    #[test]
    fn fragmentation_is_inert_below_the_single_frame_cap() {
        // Enabling the flag must not change anything about batches that
        // already fit one frame: same layout, fragment count 1, and the
        // configs differ only in the flag itself.
        let plain = ProtocolConfig::builder(10).batch(23).build().unwrap();
        let flagged = ProtocolConfig::builder(10)
            .batch(23)
            .fragmentation(true)
            .build()
            .unwrap();
        assert_eq!(flagged.share_fragments(), 1);
        assert_eq!(flagged.sum_fragments(), 1);
        let mut unflagged = flagged.clone();
        unflagged.fragmentation = false;
        assert_eq!(unflagged, plain);
    }

    #[test]
    fn fragment_layer_has_its_own_lane_cap() {
        // 64 fragments × 110 bytes bound the sum datagram:
        // 2+4+B·4+16 ≤ 7040 ⇒ B ≤ 1754.
        assert!(ProtocolConfig::builder(10)
            .batch(1754)
            .fragmentation(true)
            .build()
            .is_ok());
        let err = ProtocolConfig::builder(10)
            .batch(2000)
            .fragmentation(true)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            MpcError::BatchTooWide {
                lanes: 2000,
                max_lanes: 1754
            }
        ));
    }

    #[test]
    fn overflowing_sizes_are_rejected_not_wrapped() {
        // Each of these overflowed an unchecked sum or product: a panic
        // in a test build, and in release a wrapped value that passed.
        let base = || ProtocolConfig::builder(26).sources(6);
        for builder in [
            base().degree(usize::MAX),
            base().aggregator_redundancy(usize::MAX),
        ] {
            let err = builder.build().unwrap_err();
            assert!(matches!(err, MpcError::InvalidConfig { .. }), "{err}");
        }
        for (lanes, fragmentation, max_lanes) in [
            (usize::MAX, false, 23),
            (usize::MAX, true, 1754),
            (usize::MAX / 4, false, 23),
            (usize::MAX / 4, true, 1754),
        ] {
            let err = base()
                .batch(lanes)
                .fragmentation(fragmentation)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, MpcError::BatchTooWide { lanes: l, max_lanes: m }
                    if l == lanes && m == max_lanes),
                "{err}"
            );
        }
        // Edited through the public fields, the count saturates instead
        // of wrapping below the reconstruction threshold (degree + 1).
        let mut config = base().build().unwrap();
        config.aggregator_redundancy = usize::MAX;
        assert_eq!(config.aggregator_count(), usize::MAX);
        assert!(matches!(
            config.validate(),
            Err(MpcError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn a_huge_tag_length_has_no_share_layout() {
        // `tag_len` is public and `share_fragments` runs no validation:
        // a length whose frame or datagram sum overflows has no layout.
        for fragmentation in [false, true] {
            let mut config = ProtocolConfig::builder(26)
                .sources(6)
                .fragmentation(fragmentation)
                .build()
                .unwrap();
            for tag_len in [usize::MAX, usize::MAX - 3, usize::MAX / 2] {
                config.tag_len = tag_len;
                assert_eq!(config.share_fragments(), 0, "tag_len {tag_len}");
            }
        }
    }

    #[test]
    fn integrity_defaults_off_and_is_config_inert() {
        // The mode is carried verbatim, defaults Off, and flipping it is
        // the *only* difference between the two configs — the integrity
        // subsystem must never perturb any other configuration knob.
        let plain = ProtocolConfig::builder(10).build().unwrap();
        assert_eq!(plain.integrity, IntegrityMode::Off);
        let audited = ProtocolConfig::builder(10)
            .integrity(IntegrityMode::On)
            .build()
            .unwrap();
        assert_eq!(audited.integrity, IntegrityMode::On);
        let mut off = audited.clone();
        off.integrity = IntegrityMode::Off;
        assert_eq!(off, plain);
    }
}
