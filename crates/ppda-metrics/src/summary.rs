//! Sample summaries: mean, deviation, confidence intervals, percentiles.
//!
//! Observations are kept as run-length samples: one (value, count) run per
//! distinct value, ascending under [`f64::total_cmp`]. [`Summary`] and the
//! campaign accumulator share that form, so their memory grows with the
//! number of distinct values rather than with the number of observations.
//! The figures stay those of the flat sorted sample: a quantile reads the
//! runs' cumulative counts, and the mean and the deviation add each value
//! once per observation in ascending order, which is the sequence of f64
//! additions a sum over the sorted sample makes, so every figure keeps its
//! bits. `total_cmp` keeps −0.0 and 0.0 in separate runs, so only the sign
//! of a zero quantile can differ from a flat sort, and only for samples
//! that mix both zeros.

use core::fmt;
use std::iter::repeat_n;

/// Observations as (value, count) runs: one run per distinct value,
/// ascending under [`f64::total_cmp`], every count nonzero and no NaN.
#[derive(Debug, Clone, Default)]
pub(crate) struct Runs(Vec<(f64, u64)>);

impl Runs {
    /// The runs of a flat sample; NaN values are dropped.
    pub(crate) fn of(samples: &[f64]) -> Runs {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_unstable_by(f64::total_cmp);
        Runs(
            sorted
                .chunk_by(|a, b| a.total_cmp(b).is_eq())
                .map(|run| (run[0], run.len() as u64))
                .collect(),
        )
    }

    /// Record `count` observations of `x`; NaN is dropped.
    pub(crate) fn add(&mut self, x: f64, count: u64) {
        if x.is_nan() {
            return;
        }
        match self.0.binary_search_by(|(value, _)| value.total_cmp(&x)) {
            Ok(i) => self.0[i].1 += count,
            Err(i) => self.0.insert(i, (x, count)),
        }
    }

    /// Add every observation of `other`.
    pub(crate) fn absorb(&mut self, other: &Runs) {
        for &(x, count) in &other.0 {
            self.add(x, count);
        }
    }

    /// Append a run above every run held, as a decoder reads them back.
    ///
    /// # Errors
    ///
    /// What is wrong with the run: a NaN value, a zero count, or a value
    /// not strictly above the last run's.
    #[cfg(feature = "serde")]
    pub(crate) fn push_ascending(&mut self, value: f64, count: u64) -> Result<(), &'static str> {
        if value.is_nan() {
            return Err("NaN sample run");
        }
        if count == 0 {
            return Err("empty sample run");
        }
        if self
            .0
            .last()
            .is_some_and(|(last, _)| last.total_cmp(&value).is_ge())
        {
            return Err("sample runs out of order");
        }
        self.0.push((value, count));
        Ok(())
    }

    /// The runs, ascending.
    pub(crate) fn as_slice(&self) -> &[(f64, u64)] {
        &self.0
    }
}

/// Summary statistics over a sample of f64 observations.
///
/// # Example
///
/// ```
/// use ppda_metrics::Summary;
/// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// assert_eq!(s.median(), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// One entry per distinct value, ascending under `f64::total_cmp`: the
    /// value and the number of observations at or below it.
    cumulative: Vec<(f64, u64)>,
    mean: f64,
    std: f64,
}

impl Summary {
    /// Summarize a sample. NaN values are discarded.
    pub fn of(samples: &[f64]) -> Self {
        Summary::from_runs(Runs::of(samples).as_slice().iter().copied())
    }

    /// Summarize (value, count) runs that ascend under `f64::total_cmp`,
    /// as [`Runs`] holds them; runs with a zero count are skipped.
    pub(crate) fn from_runs(runs: impl IntoIterator<Item = (f64, u64)>) -> Self {
        let mut n = 0;
        let cumulative: Vec<(f64, u64)> = runs
            .into_iter()
            .filter(|&(_, count)| count > 0)
            .map(|(value, count)| {
                n += count;
                (value, n)
            })
            .collect();
        // Each value is added once per observation, never as
        // `value * count`: these are the additions a sum over the sorted
        // flat sample makes, so the mean and the deviation keep its bits.
        let mean = if n == 0 {
            f64::NAN
        } else {
            counted(&cumulative)
                .flat_map(|(x, count)| repeat_n(x, count))
                .sum::<f64>()
                / n as f64
        };
        let std = if n < 2 {
            0.0
        } else {
            let squares =
                counted(&cumulative).flat_map(|(x, count)| repeat_n((x - mean).powi(2), count));
            (squares.sum::<f64>() / (n - 1) as f64).sqrt()
        };
        Summary {
            cumulative,
            mean,
            std,
        }
    }

    /// The observation at 0-based `rank` in ascending order.
    fn at(&self, rank: usize) -> f64 {
        let run = self
            .cumulative
            .partition_point(|&(_, at_or_below)| at_or_below <= rank as u64);
        self.cumulative[run].0
    }

    /// Number of (non-NaN) observations.
    pub fn len(&self) -> usize {
        self.cumulative.last().map_or(0, |&(_, n)| n as usize)
    }

    /// `true` when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Arithmetic mean (NaN for an empty sample).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (0 for fewer than two observations).
    pub fn std_dev(&self) -> f64 {
        self.std
    }

    /// Half-width of the normal-approximation 95% confidence interval of
    /// the mean.
    pub fn ci95_half_width(&self) -> f64 {
        if self.len() < 2 {
            0.0
        } else {
            1.96 * self.std / (self.len() as f64).sqrt()
        }
    }

    /// Smallest observation.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn min(&self) -> f64 {
        self.cumulative.first().expect("empty sample has no min").0
    }

    /// Largest observation.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn max(&self) -> f64 {
        self.cumulative.last().expect("empty sample has no max").0
    }

    /// The q-quantile (0 ≤ q ≤ 1) by linear interpolation.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a quantile outside [0, 1].
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        assert!(!self.is_empty(), "empty sample has no quantiles");
        let n = self.len();
        if n == 1 {
            return self.at(0);
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.at(lo) * (1.0 - frac) + self.at(hi) * frac
    }

    /// The median (0.5-quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The 95th percentile (0.95-quantile) — the paper's latency claims
    /// are tail-sensitive, so harnesses report it alongside the mean.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// The 99th percentile (0.99-quantile).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// The (value, count) runs behind (value, cumulative count) pairs.
fn counted(cumulative: &[(f64, u64)]) -> impl Iterator<Item = (f64, usize)> + '_ {
    let mut below = 0;
    cumulative.iter().map(move |&(value, at_or_below)| {
        let count = at_or_below - below;
        below = at_or_below;
        (value, count as usize)
    })
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "n=0")
        } else {
            write!(
                f,
                "{:.1} ± {:.1} (n={}, p50 {:.1})",
                self.mean,
                self.ci95_half_width(),
                self.len(),
                self.median()
            )
        }
    }
}

/// The flat summary that [`Summary`]'s run form replaced, verbatim: a
/// stable sort of the flat sample, one sum over it and interpolation by
/// index. The run form must match it bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use proptest::prelude::*;

    use super::Summary;

    pub(crate) struct ReferenceSummary {
        sorted: Vec<f64>,
        mean: f64,
        std: f64,
    }

    pub(crate) fn reference_summary(samples: &[f64]) -> ReferenceSummary {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered"));
        let n = sorted.len();
        let mean = if n == 0 {
            f64::NAN
        } else {
            sorted.iter().sum::<f64>() / n as f64
        };
        let std = if n < 2 {
            0.0
        } else {
            (sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        };
        ReferenceSummary { sorted, mean, std }
    }

    impl ReferenceSummary {
        fn ci95_half_width(&self) -> f64 {
            if self.sorted.len() < 2 {
                0.0
            } else {
                1.96 * self.std / (self.sorted.len() as f64).sqrt()
            }
        }

        fn quantile(&self, q: f64) -> f64 {
            if self.sorted.len() == 1 {
                return self.sorted[0];
            }
            let pos = q * (self.sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
        }

        fn display(&self) -> String {
            if self.sorted.is_empty() {
                "n=0".to_owned()
            } else {
                format!(
                    "{:.1} ± {:.1} (n={}, p50 {:.1})",
                    self.mean,
                    self.ci95_half_width(),
                    self.sorted.len(),
                    self.quantile(0.5)
                )
            }
        }
    }

    /// A draw in [0, 1) with a full 53-bit mantissa.
    pub(crate) fn unit(raw: u64) -> f64 {
        (raw >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `summary` equals the reference over `samples` in its length, its
    /// text and the bits of every figure, at the fixed quantiles and at
    /// `extra_qs`.
    pub(crate) fn matches_reference(
        summary: &Summary,
        samples: &[f64],
        extra_qs: &[f64],
    ) -> Result<(), TestCaseError> {
        let want = reference_summary(samples);
        prop_assert_eq!(summary.len(), want.sorted.len());
        prop_assert_eq!(summary.to_string(), want.display());
        prop_assert_eq!(summary.mean().to_bits(), want.mean.to_bits());
        prop_assert_eq!(summary.std_dev().to_bits(), want.std.to_bits());
        prop_assert_eq!(
            summary.ci95_half_width().to_bits(),
            want.ci95_half_width().to_bits()
        );
        if let (Some(min), Some(max)) = (want.sorted.first(), want.sorted.last()) {
            prop_assert_eq!(summary.min().to_bits(), min.to_bits());
            prop_assert_eq!(summary.max().to_bits(), max.to_bits());
            for &q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0].iter().chain(extra_qs) {
                let (got, want) = (summary.quantile(q), want.quantile(q));
                prop_assert!(got.to_bits() == want.to_bits(), "q = {q}: {got} != {want}");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::reference::{matches_reference, unit};
    use super::*;

    #[test]
    fn basic_stats() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.138).abs() < 0.01);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.median(), 2.5);
        assert!((s.quantile(0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn tail_percentiles() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&samples);
        assert!((s.p95() - 95.05).abs() < 1e-9);
        assert!((s.p99() - 99.01).abs() < 1e-9);
        assert!(s.p99() >= s.p95());
        assert_eq!(Summary::of(&[7.0]).p99(), 7.0);
    }

    #[test]
    fn single_observation() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
        assert_eq!(s.median(), 7.0);
    }

    #[test]
    fn nan_filtered() {
        let s = Summary::of(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn empty_sample() {
        let s = Summary::of(&[]);
        assert!(s.is_empty());
        assert!(s.mean().is_nan());
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    #[should_panic(expected = "no min")]
    fn empty_min_panics() {
        Summary::of(&[]).min();
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_quantile_panics() {
        Summary::of(&[1.0]).quantile(1.5);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let few = Summary::of(&[1.0, 2.0, 3.0]);
        let many: Vec<f64> = (0..300).map(|i| 1.0 + (i % 3) as f64).collect();
        let many = Summary::of(&many);
        assert!(many.ci95_half_width() < few.ci95_half_width());
    }

    #[test]
    fn display_format() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        let text = s.to_string();
        assert!(text.contains("n=3"));
        assert!(text.contains("2.0"));
    }

    /// An arbitrary finite value other than −0.0: half of the pool takes
    /// raw bit patterns (any magnitude), half moderate values.
    fn finite(raw: u64) -> f64 {
        let x = if raw & 1 == 0 {
            let x = f64::from_bits(raw);
            if x.is_finite() {
                x
            } else {
                // Clearing the exponent's top bit leaves a finite value.
                f64::from_bits(raw & !(1 << 62))
            }
        } else {
            (unit(raw) - 0.5) * 1000.0
        };
        if x == 0.0 {
            0.0
        } else {
            x
        }
    }

    proptest! {
        /// On arbitrary finite samples without −0.0, repeats included,
        /// `Summary::of` equals the flat reference bit for bit.
        #[test]
        fn of_matches_the_flat_reference(
            pool in prop::collection::vec(any::<u64>(), 1..40),
            picks in prop::collection::vec(any::<prop::sample::Index>(), 0..300),
            qs in prop::collection::vec(any::<u64>(), 3),
        ) {
            let pool: Vec<f64> = pool.iter().map(|&raw| finite(raw)).collect();
            let samples: Vec<f64> = picks.iter().map(|i| pool[i.index(pool.len())]).collect();
            let qs: Vec<f64> = qs.iter().map(|&raw| unit(raw)).collect();
            matches_reference(&Summary::of(&samples), &samples, &qs)?;
        }
    }
}
