//! Streaming aggregation of Monte-Carlo campaign observations.
//!
//! A campaign of thousands of rounds must not buffer every round's full
//! outcome structure until the end: [`CampaignAccumulator`] folds each
//! round into counters and two run-length sample sets (latency, radio-on)
//! the moment it completes. A sample set holds one (value, count) run per
//! distinct value, so memory is bounded by the number of distinct values,
//! not by the number of node-rounds. Simulated values repeat: latencies
//! end on slot boundaries and radio-on time is whole cycles. The
//! percentiles stay **exact**, and every figure keeps the bits a flat
//! sorted sample would give. A value not seen before shifts the runs
//! above it, so the form suits samples with few distinct values, as
//! simulated ones are.
//!
//! Worker threads each fold their own accumulator and [`merge`] them at
//! join time; all derived statistics are order-independent (counters are
//! integers, and merging runs adds counts per value), so results are
//! identical for any thread count.
//!
//! [`merge`]: CampaignAccumulator::merge

use ppda_mpc::{RoundObserver, RoundReport};

use crate::summary::{Runs, Summary};

/// Folds per-round, per-node campaign observations into summary state.
///
/// # Example
///
/// ```
/// use ppda_metrics::CampaignAccumulator;
/// let mut acc = CampaignAccumulator::new();
/// acc.record_round(true);
/// acc.record_node(true, Some(12.5), 3.0);
/// acc.record_node(false, None, 4.0);
/// assert_eq!(acc.rounds(), 1);
/// assert_eq!(acc.node_success(), 0.5);
/// assert_eq!(acc.latency().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CampaignAccumulator {
    pub(crate) latencies: Runs,
    pub(crate) radios: Runs,
    pub(crate) node_ok: u64,
    pub(crate) node_total: u64,
    pub(crate) round_ok: u64,
    pub(crate) rounds: u64,
    pub(crate) recovered: u64,
    pub(crate) recovery_failed: u64,
    /// Histogram of recovery margins: `margin_hist[m]` counts recovered
    /// rounds that had `m` spare survivors beyond the threshold.
    pub(crate) margin_hist: Vec<u64>,
}

impl CampaignAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed round (`correct` = every live node obtained
    /// the right aggregate).
    pub fn record_round(&mut self, correct: bool) {
        self.rounds += 1;
        if correct {
            self.round_ok += 1;
        }
    }

    /// Record one live node of the current round: whether it got the
    /// correct aggregate, its completion latency (if it finished), and its
    /// radio-on time.
    pub fn record_node(&mut self, correct: bool, latency_ms: Option<f64>, radio_on_ms: f64) {
        self.node_total += 1;
        if correct {
            self.node_ok += 1;
        }
        if let Some(l) = latency_ms {
            self.latencies.add(l, 1);
        }
        self.radios.add(radio_on_ms, 1);
    }

    /// Record one fault-injected round's availability verdict:
    /// `Some(margin)` when the survivor set reached the reconstruction
    /// threshold with `margin` spares, `None` when the round ended below
    /// the threshold (aggregation failed).
    pub fn record_recovery(&mut self, margin: Option<usize>) {
        match margin {
            Some(m) => {
                self.recovered += 1;
                if self.margin_hist.len() <= m {
                    self.margin_hist.resize(m + 1, 0);
                }
                self.margin_hist[m] += 1;
            }
            None => self.recovery_failed += 1,
        }
    }

    /// Absorb another accumulator (e.g. a worker thread's share of the
    /// campaign).
    pub fn merge(&mut self, other: CampaignAccumulator) {
        self.absorb(&other);
    }

    /// [`merge`](CampaignAccumulator::merge) by reference: fold a copy of
    /// `other` in without consuming it. Live snapshots use this to merge
    /// worker shards that keep accumulating afterwards.
    pub fn absorb(&mut self, other: &CampaignAccumulator) {
        self.latencies.absorb(&other.latencies);
        self.radios.absorb(&other.radios);
        self.node_ok += other.node_ok;
        self.node_total += other.node_total;
        self.round_ok += other.round_ok;
        self.rounds += other.rounds;
        self.recovered += other.recovered;
        self.recovery_failed += other.recovery_failed;
        if self.margin_hist.len() < other.margin_hist.len() {
            self.margin_hist.resize(other.margin_hist.len(), 0);
        }
        for (acc, &count) in self.margin_hist.iter_mut().zip(&other.margin_hist) {
            *acc += count;
        }
    }

    /// Rounds recorded so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Fraction of rounds where every live node was correct (0 when no
    /// rounds were recorded).
    pub fn round_success(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.round_ok as f64 / self.rounds as f64
        }
    }

    /// Fraction of recorded nodes that obtained the correct aggregate
    /// (0 when no nodes were recorded).
    pub fn node_success(&self) -> f64 {
        if self.node_total == 0 {
            0.0
        } else {
            self.node_ok as f64 / self.node_total as f64
        }
    }

    /// Fault-injected rounds whose survivor set reached the threshold.
    pub fn rounds_recovered(&self) -> u64 {
        self.recovered
    }

    /// Fault-injected rounds that ended below the threshold.
    pub fn rounds_failed(&self) -> u64 {
        self.recovery_failed
    }

    /// Fraction of fault-injected rounds that recovered (0 when none were
    /// recorded).
    pub fn recovery_rate(&self) -> f64 {
        let total = self.recovered + self.recovery_failed;
        if total == 0 {
            0.0
        } else {
            self.recovered as f64 / total as f64
        }
    }

    /// Histogram of recovery margins: entry `m` counts recovered rounds
    /// with `m` spare survivors beyond the threshold.
    pub fn margin_histogram(&self) -> &[u64] {
        &self.margin_hist
    }

    /// Summary over the recovery margins of recovered rounds (empty when
    /// no recoveries were recorded).
    pub fn margin(&self) -> Summary {
        Summary::from_runs(
            self.margin_hist
                .iter()
                .enumerate()
                .map(|(m, &count)| (m as f64, count)),
        )
    }

    /// Summary of per-node completion latencies (nodes that finished).
    pub fn latency(&self) -> Summary {
        Summary::from_runs(self.latencies.as_slice().iter().copied())
    }

    /// Summary of per-node radio-on times.
    pub fn radio_on(&self) -> Summary {
        Summary::from_runs(self.radios.as_slice().iter().copied())
    }
}

/// The accumulator is a [`RoundObserver`]: attach it to a
/// [`RoundDriver`](ppda_mpc::RoundDriver) and every driven round folds in
/// the moment it completes — round correctness, the availability verdict
/// and every live node's (correctness, latency, radio-on) triple — instead
/// of harnesses hand-threading those fields out of each outcome.
impl RoundObserver for CampaignAccumulator {
    fn on_round(&mut self, report: &RoundReport) {
        self.record_round(report.correct());
        self.record_recovery(report.degraded.margin());
        for node in report.outcome.live_nodes() {
            self.record_node(
                node.aggregates.as_deref() == Some(report.expected_sums()),
                node.latency.map(|l| l.as_millis_f64()),
                node.radio_on.as_millis_f64(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::summary::reference::{matches_reference, unit};

    #[test]
    fn counters_and_summaries() {
        let mut acc = CampaignAccumulator::new();
        acc.record_round(true);
        acc.record_round(false);
        acc.record_node(true, Some(10.0), 1.0);
        acc.record_node(true, Some(20.0), 2.0);
        acc.record_node(false, None, 3.0);
        assert_eq!(acc.rounds(), 2);
        assert_eq!(acc.round_success(), 0.5);
        assert!((acc.node_success() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(acc.latency().len(), 2);
        assert_eq!(acc.latency().mean(), 15.0);
        assert_eq!(acc.radio_on().len(), 3);
        assert_eq!(acc.radio_on().mean(), 2.0);
    }

    #[test]
    fn empty_accumulator_is_sane() {
        let acc = CampaignAccumulator::new();
        assert_eq!(acc.rounds(), 0);
        assert_eq!(acc.round_success(), 0.0);
        assert_eq!(acc.node_success(), 0.0);
        assert!(acc.latency().is_empty());
        assert!(acc.radio_on().is_empty());
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = CampaignAccumulator::new();
        a.record_round(true);
        a.record_node(true, Some(5.0), 1.0);
        a.record_recovery(Some(2));
        let mut b = CampaignAccumulator::new();
        b.record_round(false);
        b.record_node(false, Some(7.0), 2.0);
        b.record_recovery(None);
        b.record_recovery(Some(0));

        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab.rounds(), ba.rounds());
        assert_eq!(ab.round_success(), ba.round_success());
        assert_eq!(ab.node_success(), ba.node_success());
        // Merging runs adds counts per value, so the order of arrival
        // cannot matter.
        assert_eq!(ab.latency(), ba.latency());
        assert_eq!(ab.radio_on(), ba.radio_on());
        assert_eq!(ab.recovery_rate(), ba.recovery_rate());
        assert_eq!(ab.margin_histogram(), ba.margin_histogram());
    }

    #[test]
    fn recovery_counters_and_histogram() {
        let mut acc = CampaignAccumulator::new();
        assert_eq!(acc.recovery_rate(), 0.0);
        assert!(acc.margin().is_empty());
        acc.record_recovery(Some(0));
        acc.record_recovery(Some(2));
        acc.record_recovery(Some(2));
        acc.record_recovery(None);
        assert_eq!(acc.rounds_recovered(), 3);
        assert_eq!(acc.rounds_failed(), 1);
        assert_eq!(acc.recovery_rate(), 0.75);
        assert_eq!(acc.margin_histogram(), &[1, 0, 2]);
        let margins = acc.margin();
        assert_eq!(margins.len(), 3);
        assert!((margins.mean() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merged_histograms_align_by_margin() {
        let mut a = CampaignAccumulator::new();
        a.record_recovery(Some(5));
        let mut b = CampaignAccumulator::new();
        b.record_recovery(Some(1));
        a.merge(b);
        assert_eq!(a.margin_histogram(), &[0, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn runs_are_bounded_by_distinct_values() {
        let mut acc = CampaignAccumulator::new();
        for i in 0..200_000u32 {
            acc.record_node(true, Some(f64::from(i % 60) * 0.5), f64::from(i % 17));
        }
        assert_eq!(acc.latency().len(), 200_000);
        assert!(acc.latencies.as_slice().len() <= 60);
        assert!(acc.radios.as_slice().len() <= 17);
    }

    /// `0..n` shuffled by the drawn swaps (Fisher–Yates).
    fn shuffled(n: usize, swaps: &[prop::sample::Index]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for (i, swap) in swaps.iter().enumerate().take(n) {
            order.swap(i, i + swap.index(n - i));
        }
        order
    }

    proptest! {
        /// Calls drawn from small value pools, split over 1–6
        /// accumulators and folded together through `merge` and through
        /// `absorb` in random orders, summarise exactly as the flat
        /// reference does over every recorded sample.
        #[test]
        fn summaries_match_the_flat_reference(
            latency_pool in prop::collection::vec(any::<u64>(), 1..151),
            radio_pool in prop::collection::vec(any::<u64>(), 1..21),
            calls in prop::collection::vec(any::<u64>(), 0..3001),
            parts in 1usize..7,
            merge_swaps in prop::collection::vec(any::<prop::sample::Index>(), 6),
            absorb_swaps in prop::collection::vec(any::<prop::sample::Index>(), 6),
            qs in prop::collection::vec(any::<u64>(), 3),
        ) {
            // One pool latency in eight is a node that did not finish.
            let latency_pool: Vec<Option<f64>> = latency_pool
                .iter()
                .map(|&raw| (raw % 8 != 0).then(|| 500.0 * unit(raw)))
                .collect();
            let radio_pool: Vec<f64> = radio_pool.iter().map(|&raw| 100.0 * unit(raw)).collect();
            let mut shards = vec![CampaignAccumulator::new(); parts];
            let (mut latencies, mut radios, mut margins) = (Vec::new(), Vec::new(), Vec::new());
            for &call in &calls {
                let shard = &mut shards[(call >> 48) as usize % parts];
                if call & 1 == 0 {
                    let latency = latency_pool[(call >> 8) as usize % latency_pool.len()];
                    let radio = radio_pool[(call >> 24) as usize % radio_pool.len()];
                    shard.record_node(call & 2 == 0, latency, radio);
                    latencies.extend(latency);
                    radios.push(radio);
                } else {
                    // Margins 0–10, and 11 for a round below the threshold.
                    let margin = Some((call >> 8) as usize % 12).filter(|&m| m <= 10);
                    shard.record_recovery(margin);
                    margins.extend(margin.map(|m| m as f64));
                }
            }
            let mut merged = CampaignAccumulator::new();
            for i in shuffled(parts, &merge_swaps) {
                merged.merge(shards[i].clone());
            }
            let mut absorbed = CampaignAccumulator::new();
            for i in shuffled(parts, &absorb_swaps) {
                absorbed.absorb(&shards[i]);
            }
            let qs: Vec<f64> = qs.iter().map(|&raw| unit(raw)).collect();
            for acc in [&merged, &absorbed] {
                matches_reference(&acc.latency(), &latencies, &qs)?;
                matches_reference(&acc.radio_on(), &radios, &qs)?;
                matches_reference(&acc.margin(), &margins, &qs)?;
            }
        }
    }
}
