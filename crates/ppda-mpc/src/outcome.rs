//! Results of one aggregation round.

use core::fmt;

use ppda_integrity::IntegrityVerdict;
use ppda_sim::SimDuration;

use crate::error::MpcError;
use crate::membership::PlanPatch;

/// Allocation-free mean over a sample stream; `None` when it is empty.
fn mean_of(values: impl Iterator<Item = f64>) -> Option<f64> {
    let (mut sum, mut count) = (0.0f64, 0u64);
    for v in values {
        sum += v;
        count += 1;
    }
    (count > 0).then(|| sum / count as f64)
}

/// Worst-case completion latency over a node stream, ms; `None` if any
/// node never finished.
fn fold_max_latency_ms(latencies: impl Iterator<Item = Option<SimDuration>>) -> Option<f64> {
    let mut worst: f64 = 0.0;
    for l in latencies {
        worst = worst.max(l?.as_millis_f64());
    }
    Some(worst)
}

/// Per-phase transport statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Sub-slots in the phase's MiniCast chain.
    pub chain_len: usize,
    /// Scheduled round length in chain cycles.
    pub cycles_scheduled: u32,
    /// Cycles actually simulated (early exit when all radios were off).
    pub cycles_run: u32,
    /// The a-priori scheduled phase duration (phase boundaries are fixed
    /// by the TDMA schedule, not by early completion).
    pub scheduled_duration: SimDuration,
    /// Fraction of (node, packet) pairs delivered.
    pub coverage: f64,
    /// NTX used in this phase.
    pub ntx: u32,
    /// 802.15.4 frames per packet in this phase (1 = unfragmented; the
    /// phase's slot and cycle durations already include the factor).
    pub fragments: u32,
}

/// The outcome at one node of a batched round: one aggregate per lane.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNodeResult {
    /// The lane aggregates the node computed, if it could (field values,
    /// lane-ordered).
    pub aggregates: Option<Vec<u64>>,
    /// Number of source readings included in those aggregates (shared by
    /// all lanes: the lanes travel together).
    pub included_sources: u32,
    /// Time from round start until this node held the final aggregates.
    pub latency: Option<SimDuration>,
    /// Total radio-on time across both phases.
    pub radio_on: SimDuration,
    /// Radio energy for the round (mJ, nRF52840 current profile).
    pub energy_mj: f64,
    /// Whether this node was failure-injected.
    pub failed: bool,
}

/// Complete outcome of one batched aggregation round: B independent
/// aggregates at one round's transport cost (B = 1 is the paper's scalar
/// round; its aggregate is `nodes[v].aggregates[0]`).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchAggregationOutcome {
    /// Protocol name: `"S3"` or `"S4"`.
    pub protocol: &'static str,
    /// Lane width B.
    pub lanes: usize,
    /// The true aggregates (field values) over live sources, lane-ordered.
    pub expected_sums: Vec<u64>,
    /// Per-node results, indexed by node id.
    pub nodes: Vec<BatchNodeResult>,
    /// Sharing-phase transport stats.
    pub sharing: PhaseStats,
    /// Reconstruction-phase transport stats.
    pub reconstruction: PhaseStats,
    /// Polynomial degree used.
    pub degree: usize,
    /// Number of designated aggregators (n for S3).
    pub aggregator_count: usize,
    /// Number of configured sources.
    pub source_count: usize,
    /// The sum audit's verdict ([`IntegrityVerdict::Unchecked`] unless
    /// the config enables integrity and at least `t+1` usable sum shares
    /// survived).
    pub integrity: IntegrityVerdict,
}

impl BatchAggregationOutcome {
    /// Live (non-failed) node results.
    pub fn live_nodes(&self) -> impl Iterator<Item = &BatchNodeResult> {
        self.nodes.iter().filter(|n| !n.failed)
    }

    /// `true` if every live node computed every lane's correct aggregate.
    pub fn correct(&self) -> bool {
        self.live_nodes()
            .all(|n| n.aggregates.as_deref() == Some(&self.expected_sums[..]))
    }

    /// Worst-case latency over live nodes, ms (`None` if any live node
    /// never finished).
    pub fn max_latency_ms(&self) -> Option<f64> {
        fold_max_latency_ms(self.live_nodes().map(|n| n.latency))
    }

    /// Mean latency over live nodes that finished, ms (`None` if none did).
    pub fn mean_latency_ms(&self) -> Option<f64> {
        mean_of(
            self.live_nodes()
                .filter_map(|n| n.latency.map(|l| l.as_millis_f64())),
        )
    }

    /// Mean radio-on time over live nodes, ms.
    pub fn mean_radio_on_ms(&self) -> f64 {
        mean_of(self.live_nodes().map(|n| n.radio_on.as_millis_f64())).unwrap_or(0.0)
    }

    /// Mean per-node radio energy over live nodes, mJ.
    pub fn mean_energy_mj(&self) -> f64 {
        mean_of(self.live_nodes().map(|n| n.energy_mj)).unwrap_or(0.0)
    }

    /// Total scheduled round duration (both phases), ms.
    pub fn scheduled_round_ms(&self) -> f64 {
        (self.sharing.scheduled_duration + self.reconstruction.scheduled_duration).as_millis_f64()
    }
}

/// Fault events observed during one degraded round. The dropout,
/// delayed and duplicate counters record what the injection layer
/// actually did; the `*_missing` counters record deliveries the
/// *transport* never produced — which includes the testbed's ordinary
/// radio loss, so they can be nonzero even under a zero
/// [`FaultPlan`](ppda_ct::FaultPlan).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Nodes the fault plan took down this round (beyond the caller's
    /// explicit failure mask).
    pub nodes_dropped: u32,
    /// Sharing-phase share deliveries that never reached their
    /// destination (lost in the flood).
    pub shares_missing: u32,
    /// Share deliveries that arrived but missed the decode deadline.
    pub shares_delayed: u32,
    /// Reconstruction-phase sum deliveries a live node never received.
    pub sums_missing: u32,
    /// Sum deliveries that arrived but missed the decode deadline.
    pub sums_delayed: u32,
    /// Duplicated deliveries across both phases (idempotent at the SSS
    /// layer; counted for diagnosis only).
    pub duplicates: u32,
}

/// Whether a round's aggregate was recoverable at the threshold.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm so
/// future verdicts (e.g. partially-recovered lanes) can be added without
/// a breaking release.
///
/// # Example
///
/// ```
/// use ppda_mpc::RecoveryStatus;
/// let status = RecoveryStatus::Recovered { margin: 2 };
/// let spare = match status {
///     RecoveryStatus::Recovered { margin } => margin,
///     RecoveryStatus::Failed { .. } => 0,
///     _ => 0, // non_exhaustive: future verdicts land here
/// };
/// assert_eq!(spare, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecoveryStatus {
    /// At least `threshold` destinations produced usable sum shares;
    /// `margin` counts the spares beyond the minimum.
    Recovered {
        /// Surviving shares beyond the reconstruction threshold.
        margin: usize,
    },
    /// Fewer survivors than the threshold: no node can reconstruct the
    /// full aggregate this round.
    Failed {
        /// Survivors short of the threshold.
        missing: usize,
    },
}

/// The degraded-operation report of one round: who survived, whether the
/// threshold held, and which faults were observed. Every driven round
/// produces one, so complete delivery is reported rather than assumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedOutcome {
    /// Reconstruction threshold t = degree + 1.
    pub threshold: usize,
    /// Destinations (node ids, plan order) whose sum shares cover every
    /// live source — the shares the network can still reconstruct from.
    pub survivors: Vec<u16>,
    /// Threshold verdict for the round.
    pub recovery: RecoveryStatus,
    /// Live nodes that actually reconstructed the full aggregate.
    pub nodes_recovered: usize,
    /// Live nodes in the round (denominator for `nodes_recovered`).
    pub live_nodes: usize,
    /// Observed fault events.
    pub faults: FaultReport,
    /// The sum audit's verdict: whether the reported sum shares matched
    /// the ones recomputed from the sources' shares
    /// ([`IntegrityVerdict::Unchecked`] when integrity is off or no `t+1`
    /// quorum survived).
    pub integrity: IntegrityVerdict,
}

impl DegradedOutcome {
    /// `true` when the surviving share set reached the threshold.
    pub fn recovered(&self) -> bool {
        matches!(self.recovery, RecoveryStatus::Recovered { .. })
    }

    /// Recovery margin (spare survivors beyond the threshold); `None`
    /// when the round failed.
    pub fn margin(&self) -> Option<usize> {
        match self.recovery {
            RecoveryStatus::Recovered { margin } => Some(margin),
            RecoveryStatus::Failed { .. } => None,
        }
    }

    /// Turn a below-threshold round into a typed error.
    ///
    /// # Errors
    ///
    /// [`MpcError::AggregationFailed`] with the share shortfall when the
    /// survivor set is below the threshold.
    pub fn require_recovered(&self) -> Result<(), MpcError> {
        match self.recovery {
            RecoveryStatus::Recovered { .. } => Ok(()),
            RecoveryStatus::Failed { missing } => Err(MpcError::AggregationFailed { missing }),
        }
    }

    /// Turn a tampered round into a typed error. Unchecked and verified
    /// rounds pass — an `Unchecked` round made no integrity claim to
    /// violate.
    ///
    /// # Errors
    ///
    /// [`MpcError::IntegrityViolation`] with the first mismatching lane
    /// when the sum audit caught a forged aggregate.
    pub fn require_verified(&self) -> Result<(), MpcError> {
        match self.integrity {
            IntegrityVerdict::Tampered { lane, aggregator } => {
                Err(MpcError::IntegrityViolation { lane, aggregator })
            }
            IntegrityVerdict::Verified | IntegrityVerdict::Unchecked => Ok(()),
        }
    }
}

impl fmt::Display for DegradedOutcome {
    /// The stable degraded-outcome text format, frozen by the golden
    /// fixtures under `tests/golden/`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.recovery {
            RecoveryStatus::Recovered { margin } => {
                writeln!(f, "recovery recovered margin={margin}")?;
            }
            RecoveryStatus::Failed { missing } => {
                writeln!(f, "recovery failed missing={missing}")?;
            }
        }
        writeln!(f, "threshold {}", self.threshold)?;
        write!(f, "survivors {}", self.survivors.len())?;
        for s in &self.survivors {
            write!(f, " {s}")?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "nodes_recovered {}/{}",
            self.nodes_recovered, self.live_nodes
        )?;
        writeln!(
            f,
            "faults dropped={} shares_missing={} shares_delayed={} sums_missing={} sums_delayed={} duplicates={}",
            self.faults.nodes_dropped,
            self.faults.shares_missing,
            self.faults.shares_delayed,
            self.faults.sums_missing,
            self.faults.sums_delayed,
            self.faults.duplicates,
        )?;
        // Only audited rounds carry the extra line, so every report a
        // pre-integrity golden froze renders byte-identically.
        match self.integrity {
            IntegrityVerdict::Unchecked => Ok(()),
            IntegrityVerdict::Verified => writeln!(f, "integrity verified"),
            IntegrityVerdict::Tampered { lane, aggregator } => {
                write!(f, "integrity tampered lane={lane} aggregator=")?;
                match aggregator {
                    Some(a) => writeln!(f, "{a}"),
                    None => writeln!(f, "-"),
                }
            }
        }
    }
}

/// The unified report of one driven round — what every round of a
/// [`Deployment`](crate::Deployment) produces, whatever the lane width or
/// fault plan.
///
/// A report always carries the per-lane aggregates (B = 1 is the paper's
/// scalar round), the survivor set and [`RecoveryStatus`] (a fault-free
/// round simply recovers with full margin), the observed [`FaultReport`],
/// and the round's transport statistics.
///
/// Marked `#[non_exhaustive]`: reports are produced by
/// [`RoundDriver`](crate::RoundDriver), never constructed downstream, so
/// fields can be added without a breaking release.
///
/// # Example
///
/// ```
/// use ppda_mpc::{Deployment, ProtocolConfig, ProtocolKind};
/// use ppda_topology::Topology;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topology = Topology::flocklab();
/// let config = ProtocolConfig::builder(topology.len()).sources(6).build()?;
/// let deployment = Deployment::builder()
///     .topology(topology)
///     .config(config)
///     .protocol(ProtocolKind::S4)
///     .build()?;
/// let report = deployment.driver().step()?;
/// assert_eq!(report.lanes(), 1);
/// assert!(report.correct() && report.recovered());
/// assert_eq!(report.aggregates(), Some(&report.outcome.expected_sums[..]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RoundReport {
    /// The round id this round ran under (CCM nonce / share freshness).
    pub round_id: u32,
    /// The per-round seed that drove readings, fading and transport.
    pub seed: u64,
    /// Per-node, per-lane aggregation outcome and transport stats.
    pub outcome: BatchAggregationOutcome,
    /// Survivor set, threshold verdict and observed faults.
    pub degraded: DegradedOutcome,
    /// What the plan patch that preceded this round did, when the round
    /// began by applying one or more membership deltas (`None` for the
    /// overwhelmingly common unpatched round). Several deltas landing
    /// before one round are absorbed into a single record.
    pub patch: Option<PlanPatch>,
}

impl RoundReport {
    /// Lane width B of this round.
    pub fn lanes(&self) -> usize {
        self.outcome.lanes
    }

    /// `true` if every live node computed every lane's correct aggregate.
    pub fn correct(&self) -> bool {
        self.outcome.correct()
    }

    /// `true` when the surviving share set reached the threshold.
    pub fn recovered(&self) -> bool {
        self.degraded.recovered()
    }

    /// The round's threshold verdict.
    pub fn recovery(&self) -> RecoveryStatus {
        self.degraded.recovery
    }

    /// Destinations whose sum shares cover every live source.
    pub fn survivors(&self) -> &[u16] {
        &self.degraded.survivors
    }

    /// The round's sum-audit verdict:
    /// [`IntegrityVerdict::Unchecked`] unless the config enables
    /// integrity and at least `t+1` usable sum shares survived.
    pub fn integrity(&self) -> IntegrityVerdict {
        self.degraded.integrity
    }

    /// The expected per-lane aggregates over live sources.
    pub fn expected_sums(&self) -> &[u64] {
        &self.outcome.expected_sums
    }

    /// The lane aggregates the network agreed on: the first live node's
    /// reconstruction that covers every live source. `None` when no live
    /// node reconstructed the full aggregate this round
    /// ([`DegradedOutcome::nodes_recovered`] is 0), so a partial
    /// aggregate — one that omits live sources, as a node holding only
    /// partial sums computes — is never returned.
    pub fn aggregates(&self) -> Option<&[u64]> {
        if self.degraded.nodes_recovered == 0 {
            return None;
        }
        // Once some node recovered, the widest coverage among live nodes
        // is every live source.
        let live = || self.outcome.live_nodes();
        let full = live().map(|n| n.included_sources).max()?;
        live()
            .filter(|n| n.included_sources == full)
            .find_map(|n| n.aggregates.as_deref())
    }

    /// Turn a below-threshold round into a typed error.
    ///
    /// # Errors
    ///
    /// [`MpcError::AggregationFailed`] with the share shortfall when the
    /// survivor set is below the threshold.
    pub fn require_recovered(&self) -> Result<(), MpcError> {
        self.degraded.require_recovered()
    }

    /// Turn a tampered round into a typed error
    /// (see [`DegradedOutcome::require_verified`]).
    ///
    /// # Errors
    ///
    /// [`MpcError::IntegrityViolation`] when this round's sum audit
    /// caught a forged aggregate.
    pub fn require_verified(&self) -> Result<(), MpcError> {
        self.degraded.require_verified()
    }

    /// The membership patch this round began with, if any: what
    /// [`RoundPlan::apply`](crate::RoundPlan::apply) rebuilt (or merely
    /// re-masked) before the round executed.
    pub fn membership_patch(&self) -> Option<&PlanPatch> {
        self.patch.as_ref()
    }
}

impl fmt::Display for RoundReport {
    /// The stable round-report text format, frozen by the golden fixture
    /// `tests/golden/round_report.txt`: a round header, the expected lane
    /// sums, then the [`DegradedOutcome`] block.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "round {} seed {}", self.round_id, self.seed)?;
        writeln!(
            f,
            "protocol {} lanes {}",
            self.outcome.protocol, self.outcome.lanes
        )?;
        // Only fragmented rounds carry the extra line, so every report a
        // pre-fragmentation golden froze renders byte-identically.
        if self.outcome.sharing.fragments > 1 || self.outcome.reconstruction.fragments > 1 {
            writeln!(
                f,
                "fragments sharing {} reconstruction {}",
                self.outcome.sharing.fragments, self.outcome.reconstruction.fragments
            )?;
        }
        write!(f, "expected")?;
        for sum in &self.outcome.expected_sums {
            write!(f, " {sum}")?;
        }
        writeln!(f)?;
        write!(f, "{}", self.degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase() -> PhaseStats {
        PhaseStats {
            chain_len: 10,
            cycles_scheduled: 5,
            cycles_run: 5,
            scheduled_duration: SimDuration::from_millis(100),
            coverage: 1.0,
            ntx: 6,
            fragments: 1,
        }
    }

    fn node(
        aggregates: Option<Vec<u64>>,
        latency_ms: Option<u64>,
        failed: bool,
    ) -> BatchNodeResult {
        BatchNodeResult {
            aggregates,
            included_sources: 3,
            latency: latency_ms.map(SimDuration::from_millis),
            radio_on: SimDuration::from_millis(10),
            energy_mj: 0.15,
            failed,
        }
    }

    fn batch_outcome(lanes: usize, nodes: Vec<BatchNodeResult>) -> BatchAggregationOutcome {
        BatchAggregationOutcome {
            protocol: "S4",
            lanes,
            expected_sums: (0..lanes as u64).map(|l| 42 + l).collect(),
            nodes,
            sharing: phase(),
            reconstruction: phase(),
            degree: 2,
            aggregator_count: 5,
            source_count: 3,
            integrity: IntegrityVerdict::Unchecked,
        }
    }

    #[test]
    fn correct_and_agree() {
        let o = batch_outcome(
            1,
            vec![
                node(Some(vec![42]), Some(5), false),
                node(Some(vec![42]), Some(7), false),
            ],
        );
        assert!(o.correct());
        assert_eq!(o.max_latency_ms(), Some(7.0));
        assert_eq!(o.mean_latency_ms(), Some(6.0));
    }

    #[test]
    fn wrong_aggregate_detected() {
        let o = batch_outcome(
            1,
            vec![
                node(Some(vec![42]), Some(5), false),
                node(Some(vec![41]), Some(5), false),
            ],
        );
        assert!(!o.correct());
    }

    #[test]
    fn failed_nodes_excluded() {
        let o = batch_outcome(
            1,
            vec![node(Some(vec![42]), Some(5), false), node(None, None, true)],
        );
        assert!(o.correct());
        assert_eq!(o.live_nodes().count(), 1);
        assert_eq!(o.max_latency_ms(), Some(5.0));
        assert_eq!(o.mean_radio_on_ms(), 10.0, "failed nodes add no radio time");
    }

    #[test]
    fn unfinished_node_poisons_max_latency() {
        let o = batch_outcome(
            1,
            vec![
                node(Some(vec![42]), Some(5), false),
                node(None, None, false),
            ],
        );
        assert_eq!(o.max_latency_ms(), None);
        assert_eq!(o.mean_latency_ms(), Some(5.0));
        assert!(!o.correct());
    }

    #[test]
    fn radio_on_stats() {
        let o = batch_outcome(
            2,
            vec![
                node(Some(vec![42, 43]), Some(5), false),
                node(Some(vec![42, 43]), Some(5), false),
            ],
        );
        assert_eq!(o.mean_radio_on_ms(), 10.0);
        assert_eq!(o.scheduled_round_ms(), 200.0);
        assert!((o.mean_energy_mj() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn empty_live_set() {
        let o = batch_outcome(1, vec![node(None, None, true)]);
        assert_eq!(o.live_nodes().count(), 0);
        assert_eq!(o.mean_latency_ms(), None);
        assert_eq!(o.mean_radio_on_ms(), 0.0);
        assert_eq!(o.mean_energy_mj(), 0.0);
    }

    #[test]
    fn batch_correctness_requires_every_lane() {
        let good = batch_outcome(2, vec![node(Some(vec![42, 43]), Some(5), false)]);
        assert!(good.correct());
        let one_lane_wrong = batch_outcome(2, vec![node(Some(vec![42, 99]), Some(5), false)]);
        assert!(!one_lane_wrong.correct());
        let failed_ignored = batch_outcome(2, vec![node(None, Some(5), true)]);
        assert!(failed_ignored.correct(), "no live nodes, vacuously correct");
    }

    fn degraded(recovery: RecoveryStatus) -> DegradedOutcome {
        DegradedOutcome {
            threshold: 3,
            survivors: vec![1, 4, 6, 8],
            recovery,
            nodes_recovered: 7,
            live_nodes: 9,
            faults: FaultReport {
                nodes_dropped: 1,
                shares_missing: 2,
                shares_delayed: 0,
                sums_missing: 3,
                sums_delayed: 1,
                duplicates: 4,
            },
            integrity: IntegrityVerdict::Unchecked,
        }
    }

    #[test]
    fn recovery_accessors() {
        let ok = degraded(RecoveryStatus::Recovered { margin: 1 });
        assert!(ok.recovered());
        assert_eq!(ok.margin(), Some(1));
        assert!(ok.require_recovered().is_ok());

        let bad = degraded(RecoveryStatus::Failed { missing: 2 });
        assert!(!bad.recovered());
        assert_eq!(bad.margin(), None);
        assert!(matches!(
            bad.require_recovered(),
            Err(MpcError::AggregationFailed { missing: 2 })
        ));
    }

    #[test]
    fn degraded_display_is_stable() {
        let text = degraded(RecoveryStatus::Recovered { margin: 1 }).to_string();
        assert_eq!(
            text,
            "recovery recovered margin=1\n\
             threshold 3\n\
             survivors 4 1 4 6 8\n\
             nodes_recovered 7/9\n\
             faults dropped=1 shares_missing=2 shares_delayed=0 sums_missing=3 sums_delayed=1 duplicates=4\n"
        );
        let failed = degraded(RecoveryStatus::Failed { missing: 2 }).to_string();
        assert!(failed.starts_with("recovery failed missing=2\n"));
    }

    #[test]
    fn integrity_line_only_renders_for_audited_rounds() {
        // Unchecked (every pre-integrity golden) renders no extra line.
        let unchecked = degraded(RecoveryStatus::Recovered { margin: 1 }).to_string();
        assert!(!unchecked.contains("integrity"));

        let mut verified = degraded(RecoveryStatus::Recovered { margin: 1 });
        verified.integrity = IntegrityVerdict::Verified;
        assert!(verified.to_string().ends_with("integrity verified\n"));

        let mut tampered = degraded(RecoveryStatus::Recovered { margin: 1 });
        tampered.integrity = IntegrityVerdict::Tampered {
            lane: 3,
            aggregator: Some(5),
        };
        assert!(tampered
            .to_string()
            .ends_with("integrity tampered lane=3 aggregator=5\n"));

        tampered.integrity = IntegrityVerdict::Tampered {
            lane: 0,
            aggregator: None,
        };
        assert!(tampered
            .to_string()
            .ends_with("integrity tampered lane=0 aggregator=-\n"));
    }

    #[test]
    fn round_report_accessors_and_display() {
        let report = RoundReport {
            round_id: 9,
            seed: 77,
            outcome: batch_outcome(2, vec![node(Some(vec![42, 43]), Some(5), false)]),
            degraded: degraded(RecoveryStatus::Recovered { margin: 1 }),
            patch: None,
        };
        assert_eq!(report.lanes(), 2);
        assert!(report.membership_patch().is_none());
        assert!(report.correct());
        assert!(report.recovered());
        assert_eq!(report.survivors(), &[1, 4, 6, 8]);
        assert_eq!(report.expected_sums(), &[42, 43]);
        assert_eq!(report.aggregates(), Some(&[42u64, 43][..]));
        assert!(report.require_recovered().is_ok());
        let text = report.to_string();
        assert!(text.starts_with(
            "round 9 seed 77\nprotocol S4 lanes 2\nexpected 42 43\nrecovery recovered margin=1\n"
        ));
    }

    #[test]
    fn aggregates_never_omit_a_live_source() {
        let partial = |sum: u64| BatchNodeResult {
            included_sources: 2,
            ..node(Some(vec![sum]), Some(5), false)
        };
        // A recovered round whose first live node held only partial sums
        // and whose second reconstructed the full aggregate.
        let mut recovered = degraded(RecoveryStatus::Recovered { margin: 1 });
        recovered.nodes_recovered = 1;
        let report = RoundReport {
            round_id: 1,
            seed: 5,
            outcome: batch_outcome(
                1,
                vec![
                    node(None, None, true),
                    partial(40),
                    node(Some(vec![42]), Some(5), false),
                ],
            ),
            degraded: recovered,
            patch: None,
        };
        assert_eq!(report.aggregates(), Some(&[42u64][..]));

        // A failed round in which every live node holds a partial.
        let mut failed = degraded(RecoveryStatus::Failed { missing: 1 });
        failed.nodes_recovered = 0;
        let report = RoundReport {
            round_id: 2,
            seed: 6,
            outcome: batch_outcome(1, vec![partial(40), partial(41)]),
            degraded: failed,
            patch: None,
        };
        assert_eq!(report.aggregates(), None);
    }

    #[test]
    fn round_report_failed_round_accessors() {
        let report = RoundReport {
            round_id: 1,
            seed: 5,
            outcome: batch_outcome(1, vec![node(None, Some(5), false)]),
            degraded: degraded(RecoveryStatus::Failed { missing: 2 }),
            patch: None,
        };
        assert!(!report.recovered());
        assert!(!report.correct());
        assert_eq!(report.aggregates(), None);
        assert_eq!(report.expected_sums(), &[42]);
        assert!(matches!(
            report.require_recovered(),
            Err(MpcError::AggregationFailed { missing: 2 })
        ));
    }
}
