//! Statistics collectors used to produce the paper's figures and tables.
//!
//! * [`Summary`] — streaming mean / standard deviation (Welford).
//! * [`Cdf`] — empirical distribution with exact quantiles.
//! * [`TimeWeighted`] — integral of a step function over simulated time
//!   (e.g. powered hosts, watts drawn).
//! * [`TimeSeries`] — timestamped samples for "X over a simulation day"
//!   plots.

use crate::time::SimTime;

/// Streaming summary statistics (Welford's online algorithm).
#[derive(Clone, Debug, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (0 with fewer than two observations).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
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
}

/// Empirical cumulative distribution over collected samples.
#[derive(Clone, Debug, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Cdf { samples: Vec::new(), sorted: true }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
    }

    /// Value at quantile `q ∈ [0, 1]` (nearest-rank; `None` when empty).
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.samples.len() as f64).ceil() as usize).max(1) - 1;
        Some(self.samples[rank.min(self.samples.len() - 1)])
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_le(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.samples.partition_point(|&s| s <= x);
        n as f64 / self.samples.len() as f64
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Evenly spaced `(value, cumulative_fraction)` points for plotting.
    pub fn curve(&mut self, points: usize) -> Vec<(f64, f64)> {
        if self.samples.is_empty() || points == 0 {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.samples.len();
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                let rank = ((frac * n as f64).ceil() as usize).max(1) - 1;
                (self.samples[rank.min(n - 1)], frac)
            })
            .collect()
    }
}

/// Time-weighted integral of a step function.
///
/// Record a new level whenever it changes; the collector integrates
/// `level × dt` between changes. Used for energy (watts over time) and for
/// average powered-host counts.
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    last_time: SimTime,
    level: f64,
    integral: f64,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// Creates a collector with level 0 at time 0.
    pub fn new() -> Self {
        TimeWeighted { last_time: SimTime::ZERO, level: 0.0, integral: 0.0 }
    }

    /// Sets the level at `now`, accumulating the previous level until then.
    pub fn set(&mut self, now: SimTime, level: f64) {
        self.accumulate(now);
        self.level = level;
    }

    /// Adds `delta` to the current level at `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let level = self.level + delta;
        self.set(now, level);
    }

    fn accumulate(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_time).as_secs_f64();
        self.integral += self.level * dt;
        self.last_time = self.last_time.max(now);
    }

    /// Integral of the level up to `now` (level × seconds).
    pub fn integral_at(&mut self, now: SimTime) -> f64 {
        self.accumulate(now);
        self.integral
    }

    /// Time-weighted average level over `[0, now]`.
    pub fn average_at(&mut self, now: SimTime) -> f64 {
        let total = now.as_secs_f64();
        if total == 0.0 {
            return self.level;
        }
        self.integral_at(now) / total
    }
}

/// Timestamped samples for time-series plots.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a sample at `now`.
    pub fn record(&mut self, now: SimTime, value: f64) {
        self.points.push((now, value));
    }

    /// All recorded points in order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Largest value in the series (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).fold(None, |acc, v| {
            Some(match acc {
                Some(a) if a >= v => a,
                _ => v,
            })
        })
    }

    /// Downsamples to at most `n` points by striding (for compact output).
    pub fn thin(&self, n: usize) -> Vec<(SimTime, f64)> {
        if n == 0 || self.points.is_empty() {
            return Vec::new();
        }
        let stride = self.points.len().div_ceil(n);
        self.points.iter().copied().step_by(stride.max(1)).collect()
    }
}

/// Convenience: mean ± sample standard deviation across repeated runs.
///
/// Figure 8 plots averages of five runs with error bars; this helper turns
/// per-run values into the `(mean, std_dev)` pairs the harness prints.
pub fn mean_and_std(values: &[f64]) -> (f64, f64) {
    let mut s = Summary::new();
    for &v in values {
        s.record(v);
    }
    (s.mean(), s.std_dev())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = Summary::new();
        for &x in &xs {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample std of this classic data set is sqrt(32/7).
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn summary_empty_behaviour() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn summary_merge_equals_combined_stream() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        let mut whole = Summary::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.std_dev() - whole.std_dev()).abs() < 1e-9);
    }

    #[test]
    fn cdf_quantiles() {
        let mut c = Cdf::new();
        for i in 1..=100 {
            c.record(i as f64);
        }
        assert_eq!(c.quantile(0.5), Some(50.0));
        assert_eq!(c.quantile(0.99), Some(99.0));
        assert_eq!(c.quantile(1.0), Some(100.0));
        assert_eq!(c.quantile(0.0), Some(1.0));
        assert!((c.fraction_le(50.0) - 0.5).abs() < 1e-12);
        assert_eq!(c.fraction_le(0.0), 0.0);
        assert_eq!(c.fraction_le(1000.0), 1.0);
    }

    #[test]
    fn cdf_empty() {
        let mut c = Cdf::new();
        assert_eq!(c.quantile(0.5), None);
        assert!(c.is_empty());
        assert!(c.curve(10).is_empty());
    }

    #[test]
    fn cdf_curve_is_monotonic() {
        let mut c = Cdf::new();
        for i in 0..57 {
            c.record(((i * 31) % 57) as f64);
        }
        let curve = c.curve(20);
        assert_eq!(curve.len(), 20);
        for w in curve.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_integrates_steps() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::ZERO, 100.0);
        tw.set(SimTime::from_secs(10), 50.0);
        // 100 W for 10 s + 50 W for 10 s = 1500 J.
        assert!((tw.integral_at(SimTime::from_secs(20)) - 1_500.0).abs() < 1e-9);
        assert!((tw.average_at(SimTime::from_secs(20)) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_add() {
        let mut tw = TimeWeighted::new();
        tw.add(SimTime::ZERO, 3.0);
        tw.add(SimTime::from_secs(5), -1.0);
        assert!((tw.integral_at(SimTime::from_secs(10)) - (15.0 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn time_series_thin() {
        let mut ts = TimeSeries::new();
        for i in 0..1_000 {
            ts.record(SimTime::from_secs(i), i as f64);
        }
        let thin = ts.thin(10);
        assert!(thin.len() <= 10);
        assert_eq!(thin[0].1, 0.0);
        assert_eq!(ts.max(), Some(999.0));
    }

    #[test]
    fn mean_and_std_helper() {
        let (m, s) = mean_and_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
    }
}
