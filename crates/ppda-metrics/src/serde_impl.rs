//! Feature-gated serde support for [`CampaignAccumulator`].
//!
//! The vendored serde subset has no derive macro and no struct data model,
//! so an accumulator serializes as a single length-prefixed byte string,
//! all little-endian: a version byte, the six counters (nodes correct,
//! nodes, rounds correct, rounds, recovered, recovery failed) and the
//! margin histogram (a length, then one count per margin), then the
//! latency and the radio-on samples.
//!
//! The version is 2, the only one [`CampaignAccumulator::from_blob`]
//! reads. It stores each sample set as its runs: a run count, then
//! (value bits, count) pairs in ascending `f64::total_cmp` order. Its
//! length is bounded by the number of distinct values, however many
//! rounds were recorded.
//!
//! Sample values round-trip through their IEEE-754 bit patterns, so a
//! restored accumulator's summaries are bit-identical to the snapshotted
//! one's. A blob whose counters contradict each other or its samples is
//! refused: the public API can never produce one.

use serde::{Deserialize, Deserializer, Error, Serialize, Serializer};

use crate::summary::Runs;
use crate::CampaignAccumulator;

const FORMAT_VERSION: u8 = 2;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_runs(out: &mut Vec<u8>, runs: &Runs) {
    put_u64(out, runs.as_slice().len() as u64);
    for &(value, count) in runs.as_slice() {
        put_u64(out, value.to_bits());
        put_u64(out, count);
    }
}

/// The sum of `counts`, or `None` when it overflows.
fn total(counts: impl IntoIterator<Item = u64>) -> Option<u64> {
    counts.into_iter().try_fold(0u64, u64::checked_add)
}

fn sample_count(runs: &Runs) -> Option<u64> {
    total(runs.as_slice().iter().map(|&(_, count)| count))
}

struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() < n {
            return Err("campaign accumulator blob truncated".to_owned());
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, String> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    /// A count of items `width` bytes each.
    fn count(&mut self, width: usize) -> Result<usize, String> {
        let n = self.u64()?;
        // The items can never outnumber the bytes that remain, so a
        // corrupt count fails here instead of in a huge allocation.
        if n > (self.bytes.len() / width) as u64 {
            return Err("campaign accumulator blob truncated".to_owned());
        }
        Ok(n as usize)
    }

    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, String> {
        (0..n).map(|_| self.u64()).collect()
    }

    /// A run list.
    fn runs(&mut self) -> Result<Runs, String> {
        let n = self.count(16)?;
        let mut runs = Runs::default();
        for _ in 0..n {
            let value = f64::from_bits(self.u64()?);
            let count = self.u64()?;
            runs.push_ascending(value, count)
                .map_err(|why| format!("campaign accumulator blob: {why}"))?;
        }
        Ok(runs)
    }
}

impl CampaignAccumulator {
    /// Encode to the versioned byte format behind the serde impls.
    ///
    /// Public so hand-rolled container formats (e.g. campaign
    /// checkpoints) can embed an accumulator as one length-prefixed field;
    /// [`CampaignAccumulator::from_blob`] inverts it bit-exactly.
    pub fn to_blob(&self) -> Vec<u8> {
        let runs = self.latencies.as_slice().len() + self.radios.as_slice().len();
        let mut out = Vec::with_capacity(1 + 8 * (6 + 3 + self.margin_hist.len()) + 16 * runs);
        out.push(FORMAT_VERSION);
        put_u64(&mut out, self.node_ok);
        put_u64(&mut out, self.node_total);
        put_u64(&mut out, self.round_ok);
        put_u64(&mut out, self.rounds);
        put_u64(&mut out, self.recovered);
        put_u64(&mut out, self.recovery_failed);
        put_u64(&mut out, self.margin_hist.len() as u64);
        for &count in &self.margin_hist {
            put_u64(&mut out, count);
        }
        put_runs(&mut out, &self.latencies);
        put_runs(&mut out, &self.radios);
        out
    }

    /// Decode the versioned byte format produced by
    /// [`CampaignAccumulator::to_blob`] (version 2 only).
    ///
    /// # Errors
    ///
    /// A human-readable message on an unknown version, truncation,
    /// trailing bytes, sample runs that are out of order, empty or NaN,
    /// or counters that contradict each other or the samples.
    pub fn from_blob(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader { bytes };
        let version = r.u8()?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported campaign accumulator blob version {version}"
            ));
        }
        let node_ok = r.u64()?;
        let node_total = r.u64()?;
        let round_ok = r.u64()?;
        let rounds = r.u64()?;
        let recovered = r.u64()?;
        let recovery_failed = r.u64()?;
        let hist_len = r.count(8)?;
        let margin_hist = r.u64s(hist_len)?;
        let latencies = r.runs()?;
        let radios = r.runs()?;
        if !r.bytes.is_empty() {
            return Err("trailing bytes after campaign accumulator blob".to_owned());
        }
        let acc = CampaignAccumulator {
            latencies,
            radios,
            node_ok,
            node_total,
            round_ok,
            rounds,
            recovered,
            recovery_failed,
            margin_hist,
        };
        acc.check_counters()?;
        Ok(acc)
    }

    /// Refuse counters that no sequence of `record_*` and `absorb` calls
    /// can produce, so `margin()` reads a histogram that sums to the
    /// recovered rounds and every success ratio stays within [0, 1].
    fn check_counters(&self) -> Result<(), String> {
        let contradiction = if total(self.margin_hist.iter().copied()) != Some(self.recovered) {
            "the margin histogram does not sum to the recovered rounds"
        } else if self.recovered.checked_add(self.recovery_failed).is_none() {
            "the recovery counters overflow"
        } else if self.node_ok > self.node_total {
            "more correct nodes than nodes"
        } else if self.round_ok > self.rounds {
            "more correct rounds than rounds"
        } else if sample_count(&self.latencies).is_none_or(|n| n > self.node_total)
            || sample_count(&self.radios).is_none_or(|n| n > self.node_total)
        {
            "more samples than nodes"
        } else {
            return Ok(());
        };
        Err(format!("campaign accumulator blob: {contradiction}"))
    }
}

impl Serialize for CampaignAccumulator {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(&self.to_blob())
    }
}

impl<'de> Deserialize<'de> for CampaignAccumulator {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let bytes = Vec::<u8>::deserialize(deserializer)?;
        CampaignAccumulator::from_blob(&bytes).map_err(D::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use serde::value::{from_value, to_value};

    use super::*;

    fn sample() -> CampaignAccumulator {
        let mut acc = CampaignAccumulator::new();
        acc.record_round(true);
        acc.record_round(false);
        acc.record_node(true, Some(10.5), 1.25);
        acc.record_node(false, None, 2.5);
        acc.record_recovery(Some(2));
        acc.record_recovery(None);
        acc
    }

    #[test]
    fn blob_round_trip_is_bit_exact() {
        let acc = sample();
        let back = CampaignAccumulator::from_blob(&acc.to_blob()).unwrap();
        assert_eq!(back.rounds(), acc.rounds());
        assert_eq!(back.round_success(), acc.round_success());
        assert_eq!(back.node_success(), acc.node_success());
        assert_eq!(back.latency(), acc.latency());
        assert_eq!(back.radio_on(), acc.radio_on());
        assert_eq!(back.margin_histogram(), acc.margin_histogram());
        assert_eq!(back.to_blob(), acc.to_blob());
    }

    #[test]
    fn value_round_trip_matches_blob_round_trip() {
        let acc = sample();
        let back: CampaignAccumulator = from_value(to_value(&acc).unwrap()).unwrap();
        assert_eq!(back.to_blob(), acc.to_blob());
    }

    #[test]
    fn empty_accumulator_round_trips() {
        let acc = CampaignAccumulator::new();
        let back = CampaignAccumulator::from_blob(&acc.to_blob()).unwrap();
        assert_eq!(back.to_blob(), acc.to_blob());
        assert_eq!(back.rounds(), 0);
    }

    #[test]
    fn truncated_blob_rejected() {
        let blob = sample().to_blob();
        assert!(CampaignAccumulator::from_blob(&blob[..blob.len() - 1]).is_err());
        // A corrupt length prefix fails cleanly, not with a huge alloc.
        let mut corrupt = blob.clone();
        corrupt[1 + 8 * 6] = 0xFF;
        corrupt[1 + 8 * 6 + 7] = 0xFF;
        assert!(CampaignAccumulator::from_blob(&corrupt).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        for version in [1, 3, 99] {
            let mut blob = sample().to_blob();
            blob[0] = version;
            assert!(CampaignAccumulator::from_blob(&blob).is_err());
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut blob = sample().to_blob();
        blob.push(0);
        assert!(CampaignAccumulator::from_blob(&blob).is_err());
    }

    fn counters(acc: &CampaignAccumulator) -> [u64; 6] {
        [
            acc.node_ok,
            acc.node_total,
            acc.round_ok,
            acc.rounds,
            acc.recovered,
            acc.recovery_failed,
        ]
    }

    /// A hand-encoded version-2 blob: the counters, the margin histogram
    /// and each sample set as the runs given.
    fn v2_blob(
        counters: [u64; 6],
        margin_hist: &[u64],
        latencies: &[(f64, u64)],
        radios: &[(f64, u64)],
    ) -> Vec<u8> {
        let mut out = vec![2];
        for v in counters {
            put_u64(&mut out, v);
        }
        put_u64(&mut out, margin_hist.len() as u64);
        for &count in margin_hist {
            put_u64(&mut out, count);
        }
        for runs in [latencies, radios] {
            put_u64(&mut out, runs.len() as u64);
            for &(value, count) in runs {
                put_u64(&mut out, value.to_bits());
                put_u64(&mut out, count);
            }
        }
        out
    }

    /// Every counter and summary the public API reports, exactly.
    fn view(acc: &CampaignAccumulator) -> String {
        format!(
            "{} {:?} {:?} {} {} {:?} {:?} {:?} {:?} {:?}",
            acc.rounds(),
            acc.round_success(),
            acc.node_success(),
            acc.rounds_recovered(),
            acc.rounds_failed(),
            acc.recovery_rate(),
            acc.margin_histogram(),
            acc.latency(),
            acc.radio_on(),
            acc.margin(),
        )
    }

    /// The margin histogram must sum to the recovered rounds: this blob's
    /// count of 2^61 used to decode, and `margin()` then panicked
    /// expanding it into a sample vector.
    #[test]
    fn margins_that_contradict_the_recoveries_are_rejected() {
        let blob = v2_blob([0, 0, 0, 0, 1, 0], &[1 << 61], &[], &[]);
        assert_eq!(blob.len(), 81);
        assert!(CampaignAccumulator::from_blob(&blob).is_err());
    }

    #[test]
    fn counters_that_contradict_each_other_or_the_samples_are_rejected() {
        let acc = sample();
        let v2 = |counters| {
            v2_blob(
                counters,
                acc.margin_histogram(),
                &[(10.5, 1)],
                &[(1.25, 1), (2.5, 1)],
            )
        };
        let good = counters(&acc);
        assert_eq!(v2(good), acc.to_blob());
        assert!(CampaignAccumulator::from_blob(&v2(good)).is_ok());
        let with = |at: usize, value: u64| {
            let mut bad = good;
            bad[at] = value;
            bad
        };
        for bad in [
            with(0, good[1] + 1), // more correct nodes than nodes
            with(2, good[3] + 1), // more correct rounds than rounds
            with(4, good[4] + 1), // margins do not sum to the recoveries
            with(5, u64::MAX),    // recovered + failed overflows
            with(1, 1),           // two radio-on samples, one node
        ] {
            assert!(CampaignAccumulator::from_blob(&v2(bad)).is_err());
        }
    }

    #[test]
    fn malformed_runs_are_rejected() {
        let counters = [0, 4, 0, 0, 0, 0];
        let decode = |latencies: &[(f64, u64)]| {
            CampaignAccumulator::from_blob(&v2_blob(counters, &[], latencies, &[]))
        };
        assert!(decode(&[(1.0, 2), (2.5, 1)]).is_ok());
        // total_cmp orders −0.0 below 0.0, so they are two runs.
        assert!(decode(&[(-0.0, 1), (0.0, 1)]).is_ok());
        assert!(decode(&[(2.5, 1), (1.0, 2)]).is_err());
        assert!(decode(&[(1.0, 1), (1.0, 1)]).is_err());
        assert!(decode(&[(0.0, 1), (-0.0, 1)]).is_err());
        assert!(decode(&[(1.0, 0)]).is_err());
        assert!(decode(&[(f64::NAN, 1)]).is_err());
        // A run count past the bytes that remain.
        let mut blob = v2_blob(counters, &[], &[(1.0, 1)], &[]);
        let at = blob.len() - 8 - 16 - 8;
        blob[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(CampaignAccumulator::from_blob(&blob).is_err());
    }

    #[test]
    fn blob_length_is_bounded_by_distinct_values() {
        let mut acc = CampaignAccumulator::new();
        let mut after_20k = Vec::new();
        for i in 0..200_000u32 {
            acc.record_node(true, Some(f64::from(i % 60) * 0.5), f64::from(i % 17));
            if i + 1 == 20_000 {
                after_20k = acc.to_blob();
            }
        }
        assert_eq!(acc.to_blob().len(), after_20k.len());
    }

    /// An accumulator fed by `calls` from small pools (a NaN latency
    /// among them).
    fn recorded(calls: &[u64]) -> CampaignAccumulator {
        const LATENCIES: [f64; 6] = [1.5, 3.0, 4.5, 4.5, 12.25, f64::NAN];
        let mut acc = CampaignAccumulator::new();
        for &call in calls {
            match call % 4 {
                0 => acc.record_round(call & 4 == 0),
                1 => acc.record_recovery(Some((call >> 8) as usize % 5).filter(|&m| m < 4)),
                _ => {
                    let latency = LATENCIES.get((call >> 8) as usize % 8).copied();
                    let radio = f64::from((call >> 16) as u8 % 5) * 2.5;
                    acc.record_node(call & 4 == 0, latency, radio);
                }
            }
        }
        acc
    }

    /// Arbitrary bytes (mode 0), or `valid` truncated (1), with one bit
    /// flipped (2) or intact (3).
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

    proptest! {
        /// `from_blob` is total. On arbitrary bytes, and on truncations
        /// and single bit flips of valid blobs, it returns an error or an
        /// accumulator that holds at most two bytes per input byte and
        /// whose blob decodes back to the same counters and summaries; an
        /// intact blob reads back as what was recorded.
        #[test]
        fn from_blob_is_total(
            calls in prop::collection::vec(any::<u64>(), 0..200),
            garbage in prop::collection::vec(any::<u8>(), 0..401),
            mode in 0u8..4,
            at in any::<prop::sample::Index>(),
        ) {
            let acc = recorded(&calls);
            let valid = acc.to_blob();
            let bytes = mutate(&valid, mode, &garbage, at);
            match CampaignAccumulator::from_blob(&bytes) {
                Ok(decoded) => {
                    let runs = decoded.latencies.as_slice().len() + decoded.radios.as_slice().len();
                    prop_assert!(16 * runs + 8 * decoded.margin_hist.len() <= 2 * bytes.len());
                    let again = CampaignAccumulator::from_blob(&decoded.to_blob());
                    prop_assert!(again.is_ok(), "{again:?}");
                    prop_assert_eq!(view(&again.unwrap()), view(&decoded));
                    prop_assert!(mode != 3 || view(&decoded) == view(&acc));
                }
                Err(e) => prop_assert!(mode != 3, "an intact blob failed: {e}"),
            }
        }
    }
}
