//! The sum audit, and share commitments that no round computes.
//!
//! Once at least `t+1` usable sum shares survive a round, the executor
//! re-derives every aggregator's honest sum share from the sources' share
//! slabs and a [`SumAudit`] compares it against what the aggregator
//! actually reported, rendering an [`IntegrityVerdict`]. An aggregator
//! that forges its reported sums cannot do so silently. Integrity-on
//! rounds run this audit only.
//!
//! A [`ShareCommitment`] is a 16-byte transcript digest over a source's
//! full per-lane share vector. No round computes one: the audit reads the
//! share slabs directly, so a commitment cannot change a verdict. The
//! commitment types remain only because perfbench's traced replay still
//! times a commitment pass.

use crate::Transcript;

/// Domain label for share commitments.
const COMMIT_DOMAIN: &[u8] = b"ppda/share-commitment/v1";

/// Whether rounds run the sum audit.
///
/// `Off` (the default) is byte-identical to a build without the integrity
/// subsystem: no audit runs, no packet grows, no RNG draw shifts.
///
/// # Example
///
/// ```
/// use ppda_integrity::IntegrityMode;
/// assert_eq!(IntegrityMode::default(), IntegrityMode::Off);
/// assert!(IntegrityMode::On.is_on());
/// assert!(!IntegrityMode::Off.is_on());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum IntegrityMode {
    /// No audit — the pre-integrity round.
    #[default]
    Off,
    /// Every round audits the aggregators' reported sum shares.
    On,
}

impl IntegrityMode {
    /// `true` when rounds run the sum audit.
    pub fn is_on(self) -> bool {
        matches!(self, IntegrityMode::On)
    }
}

/// The outcome of one round's sum audit.
///
/// # Example
///
/// ```
/// use ppda_integrity::IntegrityVerdict;
/// let verdict = IntegrityVerdict::Tampered { lane: 3, aggregator: Some(5) };
/// assert!(verdict.is_tampered());
/// assert!(!IntegrityVerdict::Unchecked.is_tampered());
/// assert!(IntegrityVerdict::Verified.is_verified());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum IntegrityVerdict {
    /// Every audited lane matched its recomputed honest sum share.
    Verified,
    /// At least one reported sum share disagrees with its recomputation.
    Tampered {
        /// First batch lane whose reported aggregate mismatched.
        lane: u16,
        /// The first aggregator whose reported sum share disagrees with
        /// the recomputation, when one is identifiable.
        aggregator: Option<u16>,
    },
    /// No audit ran: integrity is off, or fewer than `t+1` usable sum
    /// shares survived this round.
    #[default]
    Unchecked,
}

impl IntegrityVerdict {
    /// `true` when the audit ran and every lane matched.
    pub fn is_verified(self) -> bool {
        matches!(self, IntegrityVerdict::Verified)
    }

    /// `true` when the audit caught a mismatch.
    pub fn is_tampered(self) -> bool {
        matches!(self, IntegrityVerdict::Tampered { .. })
    }
}

/// A source's binding commitment to its per-lane share contributions.
///
/// The digest covers the round id, the source id, and the source's entire
/// encoded share vector (every destination × every batch lane), so a
/// survivor set that re-derives the shares can detect any later
/// substitution. No round computes one; perfbench's traced replay does.
///
/// # Example
///
/// ```
/// use ppda_integrity::ShareCommitment;
/// let shares = [1u8, 2, 3, 4, 5, 6, 7, 8];
/// let c = ShareCommitment::commit(7, 2, &shares);
/// assert!(c.verify(7, &shares));
/// assert!(!c.verify(8, &shares), "round id is bound");
/// assert!(!c.verify(7, &shares[..4]), "share bytes are bound");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShareCommitment {
    /// The committing source's node id.
    pub src: u16,
    /// 16-byte transcript digest over the share vector.
    pub digest: [u8; 16],
}

impl ShareCommitment {
    /// Commit to `shares` — a source's full encoded share vector for one
    /// round, in destination-major lane order.
    pub fn commit(round_id: u32, src: u16, shares: &[u8]) -> Self {
        CommitContext::new(src).commit(round_id, shares)
    }

    /// Recompute the digest over a claimed share vector and compare.
    pub fn verify(&self, round_id: u32, shares: &[u8]) -> bool {
        *self == Self::commit(round_id, self.src, shares)
    }
}

/// A source's reusable commitment context: the transcript prefix that
/// never changes across rounds (domain separator + source id), absorbed
/// once and cloned per commitment.
///
/// # Example
///
/// ```
/// use ppda_integrity::{CommitContext, ShareCommitment};
/// let ctx = CommitContext::new(3);
/// let shares = [9u8; 8];
/// assert_eq!(ctx.commit(5, &shares), ShareCommitment::commit(5, 3, &shares));
/// ```
#[derive(Debug, Clone)]
pub struct CommitContext {
    src: u16,
    prefix: Transcript,
}

impl CommitContext {
    /// Build the per-source prefix transcript.
    pub fn new(src: u16) -> Self {
        let mut prefix = Transcript::new(COMMIT_DOMAIN);
        prefix.absorb_u64(b"src", u64::from(src));
        CommitContext { src, prefix }
    }

    /// The committing source's node id.
    pub fn src(&self) -> u16 {
        self.src
    }

    /// Commit to this source's share vector for one round.
    pub fn commit(&self, round_id: u32, shares: &[u8]) -> ShareCommitment {
        let mut t = self.prefix.clone();
        t.absorb_u64(b"round", u64::from(round_id));
        t.absorb(b"shares", shares);
        ShareCommitment {
            src: self.src,
            digest: t.challenge_block(b"digest"),
        }
    }
}

/// Checker comparing reported sum shares against recomputed honest ones.
///
/// Feed it the survivor count and, per lane, the recomputed honest sum
/// share next to the reported one; it renders the round's
/// [`IntegrityVerdict`]. The audit only claims a verdict when at least
/// `threshold + 1` usable sum shares survived — below that the aggregate
/// is not reconstructible and the round stays
/// [`IntegrityVerdict::Unchecked`].
///
/// # Example
///
/// ```
/// use ppda_integrity::{IntegrityVerdict, SumAudit};
/// let mut audit = SumAudit::new(2);
/// audit.set_survivors(3); // t+1 reached
/// audit.check_lane(0, &[1, 2, 3, 4], &[1, 2, 3, 4], None);
/// assert_eq!(audit.verdict(), IntegrityVerdict::Verified);
/// audit.check_lane(1, &[1, 2, 3, 4], &[9, 2, 3, 4], Some(5));
/// assert_eq!(
///     audit.verdict(),
///     IntegrityVerdict::Tampered { lane: 1, aggregator: Some(5) },
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct SumAudit {
    threshold: usize,
    survivors: usize,
    checked: bool,
    mismatch: Option<(u16, Option<u16>)>,
}

impl SumAudit {
    /// Start an audit for a round with reconstruction `threshold` (the
    /// polynomial degree `t`; `t+1` survivors are needed to recompute).
    pub fn new(threshold: usize) -> Self {
        SumAudit {
            threshold,
            ..Self::default()
        }
    }

    /// Record how many usable sum shares (ones covering every live
    /// source) survived this round.
    pub fn set_survivors(&mut self, survivors: usize) {
        self.survivors = survivors;
    }

    /// `true` when enough survivors remain for the audit to claim a
    /// verdict.
    pub fn quorum(&self) -> bool {
        self.survivors > self.threshold
    }

    /// Compare one lane's recomputed honest sum-share bytes against the
    /// reported ones. `aggregator` names the node whose reported sum share
    /// first disagreed with the recomputation, when identifiable.
    /// The first mismatching lane wins; later checks don't overwrite it.
    pub fn check_lane(
        &mut self,
        lane: u16,
        honest: &[u8],
        reported: &[u8],
        aggregator: Option<u16>,
    ) {
        self.checked = true;
        if honest != reported && self.mismatch.is_none() {
            self.mismatch = Some((lane, aggregator));
        }
    }

    /// Flag a mismatch found out-of-band (e.g. a share commitment that
    /// failed [`ShareCommitment::verify`]). No round calls it; perfbench's
    /// traced replay does.
    pub fn flag(&mut self, lane: u16, aggregator: Option<u16>) {
        self.checked = true;
        if self.mismatch.is_none() {
            self.mismatch = Some((lane, aggregator));
        }
    }

    /// Render the verdict from everything checked so far.
    pub fn verdict(&self) -> IntegrityVerdict {
        if !self.quorum() || !self.checked {
            IntegrityVerdict::Unchecked
        } else if let Some((lane, aggregator)) = self.mismatch {
            IntegrityVerdict::Tampered { lane, aggregator }
        } else {
            IntegrityVerdict::Verified
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commitment_binds_round_src_and_bytes() {
        let shares = [7u8; 24];
        let c = ShareCommitment::commit(3, 1, &shares);
        assert!(c.verify(3, &shares));
        assert!(!c.verify(4, &shares));
        let other = ShareCommitment::commit(3, 2, &shares);
        assert_ne!(c.digest, other.digest, "src is bound into the digest");
        let mut tampered = shares;
        tampered[11] ^= 0x40;
        assert!(!c.verify(3, &tampered));
    }

    #[test]
    fn commitment_is_deterministic() {
        let shares: Vec<u8> = (0..64).collect();
        let a = ShareCommitment::commit(9, 4, &shares);
        let b = ShareCommitment::commit(9, 4, &shares);
        assert_eq!(a, b);
    }

    #[test]
    fn audit_without_quorum_is_unchecked() {
        let mut audit = SumAudit::new(3);
        audit.set_survivors(3); // need 4
        audit.check_lane(0, &[1], &[2], None);
        assert_eq!(audit.verdict(), IntegrityVerdict::Unchecked);
        audit.set_survivors(4);
        assert!(audit.quorum());
        assert!(audit.verdict().is_tampered());
    }

    #[test]
    fn audit_without_checks_is_unchecked() {
        let mut audit = SumAudit::new(1);
        audit.set_survivors(5);
        assert_eq!(audit.verdict(), IntegrityVerdict::Unchecked);
    }

    #[test]
    fn first_mismatching_lane_wins() {
        let mut audit = SumAudit::new(1);
        audit.set_survivors(2);
        audit.check_lane(0, &[1], &[1], None);
        audit.check_lane(1, &[2], &[3], Some(7));
        audit.check_lane(2, &[4], &[5], Some(8));
        assert_eq!(
            audit.verdict(),
            IntegrityVerdict::Tampered {
                lane: 1,
                aggregator: Some(7)
            }
        );
    }

    #[test]
    fn flag_reports_out_of_band_mismatch() {
        let mut audit = SumAudit::new(0);
        audit.set_survivors(1);
        audit.flag(5, None);
        assert_eq!(
            audit.verdict(),
            IntegrityVerdict::Tampered {
                lane: 5,
                aggregator: None
            }
        );
    }

    #[test]
    fn clean_audit_verifies() {
        let mut audit = SumAudit::new(2);
        audit.set_survivors(5);
        for lane in 0..4u16 {
            audit.check_lane(lane, &[lane as u8; 4], &[lane as u8; 4], None);
        }
        assert_eq!(audit.verdict(), IntegrityVerdict::Verified);
    }
}
