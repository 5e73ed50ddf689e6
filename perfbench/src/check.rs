//! Output checks and the deterministic side of a run: the recomputed
//! readings every round's expected sums must match, the report digest
//! and the simulated (Fig. 1) statistics.

use std::fmt::Write as _;

use ppda_crypto::{Aes128, CtrDrbg};
use ppda_mpc::{Elem, IntegrityVerdict, ProtocolConfig, RoundReport};
use rand::RngCore;

/// The readings a round draws, recomputed through the public DRBG:
/// `lanes` values per source, lane-major per source.
pub fn readings(
    master: &Aes128,
    config: &ProtocolConfig,
    round_id: u32,
    seed: u64,
    out: &mut Vec<u64>,
) {
    let mut drbg =
        CtrDrbg::with_master_cipher(master, format!("readings|{round_id}|{seed}").as_bytes());
    out.clear();
    for _ in 0..config.sources.len() * config.batch {
        out.push(drbg.next_u64() % config.max_reading);
    }
}

/// Checks one round's report against an independent recomputation of
/// what the round must output.
pub struct RoundChecker {
    master: Aes128,
    config: ProtocolConfig,
    readings: Vec<u64>,
}

impl RoundChecker {
    pub fn new(config: &ProtocolConfig) -> Self {
        RoundChecker {
            master: Aes128::new(&config.master_key),
            config: config.clone(),
            readings: Vec::new(),
        }
    }

    /// `Err` names what is wrong: expected sums that disagree with the
    /// recomputed readings of the round's live sources, a live node whose
    /// aggregate is not the sum over the live sources it claims to
    /// include, or a round the audit calls tampered. Simulated loss is not
    /// an error: a node may hold no aggregate, or (when loss split the
    /// aggregators' contributor masks) an aggregate over fewer sources,
    /// which counts against `node_success` but must still be a true sum.
    pub fn check(&mut self, report: &RoundReport) -> Result<(), String> {
        let lanes = self.config.batch;
        readings(
            &self.master,
            &self.config,
            report.round_id,
            report.seed,
            &mut self.readings,
        );
        // Live sources' readings as field elements, source-major.
        let live: Vec<&[u64]> = self
            .config
            .sources
            .iter()
            .enumerate()
            .filter(|&(_, &src)| !report.outcome.nodes[src as usize].failed)
            .map(|(si, _)| &self.readings[si * lanes..(si + 1) * lanes])
            .collect();
        let expected = lane_sums(&live, lanes);
        if report.expected_sums() != expected {
            return Err(format!(
                "round {}: expected sums disagree with the recomputed readings",
                report.round_id
            ));
        }
        // Nodes that reconstructed from the same sum shares agree, so
        // each distinct (aggregate, sources included) pair is checked once.
        let mut verified: Vec<(&[u64], u32)> = Vec::new();
        for (v, node) in report.outcome.nodes.iter().enumerate() {
            let Some(agg) = node.aggregates.as_deref() else {
                continue;
            };
            if !node.failed && verified.contains(&(agg, node.included_sources)) {
                continue;
            }
            let true_sum = match live.len().checked_sub(node.included_sources as usize) {
                Some(0) => agg == expected,
                Some(k) => partial_sum_matches(agg, &expected, &live, k),
                None => false,
            };
            if node.failed || !true_sum {
                return Err(format!(
                    "round {}: node {v} reconstructed a wrong aggregate",
                    report.round_id
                ));
            }
            verified.push((agg, node.included_sources));
        }
        if let IntegrityVerdict::Tampered { lane, .. } = report.integrity() {
            return Err(format!(
                "round {}: the sum audit flagged lane {lane} of an honest round",
                report.round_id
            ));
        }
        Ok(())
    }
}

/// Per-lane field sums over `sources`.
fn lane_sums(sources: &[&[u64]], lanes: usize) -> Vec<u64> {
    let mut sums = vec![Elem::ZERO; lanes];
    for readings in sources {
        for (sum, &r) in sums.iter_mut().zip(readings.iter()) {
            *sum += Elem::new(r);
        }
    }
    sums.iter().map(|e| e.value()).collect()
}

/// Most excluded sources a partial aggregate is checked for (the search
/// is over every subset of that size); wider partials pass unchecked.
const MAX_EXCLUDED: usize = 4;

/// Whether `agg` is the sum over all of `sources` but `excluded` of them:
/// some subset of that size must sum to `expected - agg` in every lane.
fn partial_sum_matches(agg: &[u64], expected: &[u64], sources: &[&[u64]], excluded: usize) -> bool {
    fn search(
        target: &[Elem],
        sources: &[&[u64]],
        from: usize,
        left: usize,
        acc: Vec<Elem>,
    ) -> bool {
        if left == 0 {
            return acc == target;
        }
        (from..sources.len()).any(|i| {
            let next = acc
                .iter()
                .zip(sources[i].iter())
                .map(|(&a, &r)| a + Elem::new(r))
                .collect();
            search(target, sources, i + 1, left - 1, next)
        })
    }
    let target: Vec<Elem> = expected
        .iter()
        .zip(agg)
        .map(|(&e, &a)| Elem::new(e) - Elem::new(a))
        .collect();
    excluded > MAX_EXCLUDED
        || search(
            &target,
            sources,
            0,
            excluded,
            vec![Elem::ZERO; target.len()],
        )
}

/// FNV-1a over every report's `Display` text plus one line per node
/// (aggregates, simulated latency and radio-on time in µs): equal digests
/// mean byte-identical simulation.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, report: &RoundReport) {
        let mut text = report.to_string();
        for node in &report.outcome.nodes {
            let _ = writeln!(
                text,
                "node {:?} {:?} {}",
                node.aggregates,
                node.latency.map(|l| l.as_micros()),
                node.radio_on.as_micros()
            );
        }
        for byte in text.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The simulated statistics of one deployment's deterministic window of
/// rounds.
#[derive(Default)]
pub struct SimStats {
    /// Per round: mean completion latency over live nodes that finished.
    round_latency_ms: Vec<f64>,
    radio_on_ms: f64,
    rounds: u64,
    recovered: u64,
    node_ok: u64,
    node_live: u64,
}

impl SimStats {
    pub fn add(&mut self, report: &RoundReport) {
        if let Some(l) = report.outcome.mean_latency_ms() {
            self.round_latency_ms.push(l);
        }
        self.radio_on_ms += report.outcome.mean_radio_on_ms();
        self.rounds += 1;
        self.recovered += u64::from(report.recovered());
        for node in report.outcome.live_nodes() {
            self.node_live += 1;
            self.node_ok += u64::from(node.aggregates.as_deref() == Some(report.expected_sums()));
        }
    }
}

/// Fleet-level simulated metrics: per-deployment latency medians and
/// radio-on means averaged over deployments (their operating points
/// differ several-fold, so pooling samples would make the median jump
/// between deployments), success and recovery pooled.
pub struct SimSummary {
    pub latency_ms_p50: f64,
    pub radio_on_ms_mean: f64,
    pub node_success: f64,
    pub recovery_rate: f64,
}

pub fn summarize(stats: &[SimStats]) -> SimSummary {
    let latency: Vec<f64> = stats
        .iter()
        .filter(|s| !s.round_latency_ms.is_empty())
        .map(|s| percentile(&s.round_latency_ms, 0.5))
        .collect();
    let radio: Vec<f64> = stats
        .iter()
        .filter(|s| s.rounds > 0)
        .map(|s| s.radio_on_ms / s.rounds as f64)
        .collect();
    let (ok, live) = stats
        .iter()
        .fold((0, 0), |(o, l), s| (o + s.node_ok, l + s.node_live));
    let (rec, rounds) = stats
        .iter()
        .fold((0, 0), |(r, n), s| (r + s.recovered, n + s.rounds));
    SimSummary {
        latency_ms_p50: mean(&latency),
        radio_on_ms_mean: mean(&radio),
        node_success: ratio(ok, live),
        recovery_rate: ratio(rec, rounds),
    }
}

/// Linear-interpolated percentile `q` in [0, 1] of an unsorted sample
/// (0 for an empty one).
pub fn percentile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
