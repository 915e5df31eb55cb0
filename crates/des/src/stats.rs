//! Measurement collection: streaming summaries and time-weighted
//! occupancy statistics (queue depths).

use crate::time::{Duration, Time};

/// Streaming scalar summary (count / min / max / mean / variance) using
/// Welford's numerically stable online algorithm.
#[derive(Debug, Clone)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    /// Same as [`Summary::new`]: min/max must start at ±∞, not 0.0.
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_ns_f64());
    }

    pub fn count(&self) -> u64 {
        self.n
    }
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
    /// Sample variance (n-1 denominator).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merge another summary into this one (parallel sweep reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted value tracker: integrates `value(t) dt` so that
/// `average()` is the true time-average (queue occupancy, utilization).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    value: f64,
    last_change: Time,
    integral: f64, // value * ps
    start: Time,
    peak: f64,
}

impl TimeWeighted {
    pub fn new(start: Time, initial: f64) -> Self {
        TimeWeighted {
            value: initial,
            last_change: start,
            integral: 0.0,
            start,
            peak: initial,
        }
    }

    /// Record that the tracked value becomes `v` at time `now`.
    pub fn set(&mut self, now: Time, v: f64) {
        debug_assert!(now >= self.last_change);
        self.integral += self.value * now.saturating_since(self.last_change).as_ps() as f64;
        self.value = v;
        self.last_change = now;
        self.peak = self.peak.max(v);
    }

    pub fn add(&mut self, now: Time, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    pub fn current(&self) -> f64 {
        self.value
    }
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-average of the value over `[start, now]`.
    pub fn average(&self, now: Time) -> f64 {
        let total = now.saturating_since(self.start).as_ps() as f64;
        if total == 0.0 {
            return self.value;
        }
        let integral =
            self.integral + self.value * now.saturating_since(self.last_change).as_ps() as f64;
        integral / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        // Sample variance of this classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Summary::new();
        for &x in &xs {
            all.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn summary_default_matches_new() {
        let mut s = Summary::default();
        s.record(5.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
        let mut neg = Summary::default();
        neg.record(-3.0);
        assert_eq!(neg.max(), -3.0);
    }

    #[test]
    fn summary_empty_is_nan() {
        let s = Summary::new();
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(Time::ZERO, 0.0);
        tw.set(Time::from_ns(10), 4.0); // 0 for 10ns
        tw.set(Time::from_ns(30), 2.0); // 4 for 20ns
        let avg = tw.average(Time::from_ns(40)); // 2 for 10ns
                                                 // (0*10 + 4*20 + 2*10) / 40 = 100/40
        assert!((avg - 2.5).abs() < 1e-12);
        assert_eq!(tw.peak(), 4.0);
        assert_eq!(tw.current(), 2.0);
    }
}
