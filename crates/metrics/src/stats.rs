//! Streaming moments, five-number summaries and quantiles.

/// Streaming mean/variance accumulator using Welford's algorithm.
///
/// Numerically stable for long streams; `O(1)` memory. Use [`Summary`] when
/// quantiles are also needed (it stores the samples).
///
/// # Example
///
/// ```
/// use recsim_metrics::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN: statistics over NaN are meaningless and a NaN
    /// here always indicates an upstream bug.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "OnlineStats::push received NaN");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sample variance (Bessel-corrected); `0.0` for fewer than 2 samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance; `0.0` when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

/// Linear-interpolation quantile of a sorted slice (type-7, the default of R
/// and NumPy).
///
/// `q` must be in `[0, 1]`.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(recsim_metrics::quantile(&xs, 0.5), 2.5);
/// assert_eq!(recsim_metrics::quantile(&xs, 0.0), 1.0);
/// assert_eq!(recsim_metrics::quantile(&xs, 1.0), 4.0);
/// ```
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile fraction out of range");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns `0.0` when either side has zero variance (no linear relationship
/// is measurable).
///
/// # Panics
///
/// Panics if the slices have different lengths or fewer than two elements.
///
/// # Example
///
/// ```
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [2.0, 4.0, 6.0, 8.0];
/// assert!((recsim_metrics::stats::pearson(&x, &y) - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "length mismatch");
    assert!(x.len() >= 2, "correlation needs at least two points");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// A full distribution summary over a stored sample: moments plus quantiles.
///
/// Used for the utilization-distribution experiment (paper Figure 5), where
/// boxes and whiskers (p5/p25/p50/p75/p95) are the reported quantity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a summary from an existing sample.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        let mut s = Self {
            samples,
            sorted: false,
        };
        s.ensure_sorted();
        s
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "Summary::push received NaN");
        self.samples.push(x);
        self.sorted = false;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN in Summary"));
            self.sorted = true;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Sample standard deviation; `0.0` for fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .samples
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    }

    /// Quantile with linear interpolation.
    ///
    /// # Panics
    ///
    /// Panics when empty or when `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        self.ensure_sorted();
        quantile(&self.samples, q)
    }

    /// Median (p50).
    ///
    /// # Panics
    ///
    /// Panics when empty.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Minimum.
    ///
    /// # Panics
    ///
    /// Panics when empty.
    pub fn min(&mut self) -> f64 {
        self.quantile(0.0)
    }

    /// Maximum.
    ///
    /// # Panics
    ///
    /// Panics when empty.
    pub fn max(&mut self) -> f64 {
        self.quantile(1.0)
    }

    /// The box-and-whisker five-tuple `(p5, p25, p50, p75, p95)` used
    /// throughout the utilization figures.
    ///
    /// # Panics
    ///
    /// Panics when empty.
    pub fn whiskers(&mut self) -> (f64, f64, f64, f64, f64) {
        (
            self.quantile(0.05),
            self.quantile(0.25),
            self.quantile(0.50),
            self.quantile(0.75),
            self.quantile(0.95),
        )
    }

    /// Interquartile range (p75 − p25).
    ///
    /// # Panics
    ///
    /// Panics when empty.
    pub fn iqr(&mut self) -> f64 {
        self.quantile(0.75) - self.quantile(0.25)
    }

    /// Read-only view of the (possibly unsorted) samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn online_stats_single() {
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn online_stats_matches_naive() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let s: OnlineStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-10);
        assert!((s.sample_variance() - var).abs() < 1e-10);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..57).map(|i| i as f64 * 0.37 - 3.0).collect();
        let (a, b) = xs.split_at(23);
        let mut sa: OnlineStats = a.iter().copied().collect();
        let sb: OnlineStats = b.iter().copied().collect();
        sa.merge(&sb);
        let all: OnlineStats = xs.iter().copied().collect();
        assert_eq!(sa.count(), all.count());
        assert!((sa.mean() - all.mean()).abs() < 1e-10);
        assert!((sa.sample_variance() - all.sample_variance()).abs() < 1e-10);
        assert_eq!(sa.min(), all.min());
        assert_eq!(sa.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn online_stats_rejects_nan() {
        OnlineStats::new().push(f64::NAN);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&xs, 0.5), 30.0);
        assert_eq!(quantile(&xs, 0.25), 20.0);
        assert!((quantile(&xs, 0.1) - 14.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        quantile(&[], 0.5);
    }

    #[test]
    fn pearson_detects_sign_and_independence() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let up: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        let down: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!((pearson(&x, &up) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &down) + 1.0).abs() < 1e-12);
        let flat = [7.0; 5];
        assert_eq!(pearson(&x, &flat), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pearson_checks_lengths() {
        pearson(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn summary_whiskers_ordered() {
        let mut s: Summary = (0..1000).map(|i| (i as f64 * 7919.0) % 100.0).collect();
        let (p5, p25, p50, p75, p95) = s.whiskers();
        assert!(p5 <= p25 && p25 <= p50 && p50 <= p75 && p75 <= p95);
    }

    #[test]
    fn summary_median_of_even() {
        let mut s = Summary::from_samples(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
    }

    #[test]
    fn summary_std_dev() {
        let s = Summary::from_samples(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        // population std dev is 2; sample std dev is sqrt(32/7)
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }
}
