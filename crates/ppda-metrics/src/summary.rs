//! Sample summaries: mean, deviation, confidence intervals, percentiles.

use core::fmt;

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
    sorted: Vec<f64>,
    mean: f64,
    std: f64,
}

impl Summary {
    /// Summarize a sample. NaN values are discarded.
    pub fn of(samples: &[f64]) -> Self {
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
        Summary { sorted, mean, std }
    }

    /// Number of (non-NaN) observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
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
        if self.sorted.len() < 2 {
            0.0
        } else {
            1.96 * self.std / (self.sorted.len() as f64).sqrt()
        }
    }

    /// Smallest observation.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn min(&self) -> f64 {
        *self.sorted.first().expect("empty sample has no min")
    }

    /// Largest observation.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("empty sample has no max")
    }

    /// The q-quantile (0 ≤ q ≤ 1) by linear interpolation.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a quantile outside [0, 1].
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        assert!(!self.sorted.is_empty(), "empty sample has no quantiles");
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
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

#[cfg(test)]
mod tests {
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
}
