//! Measurement collection: streaming summaries, fixed-bucket histograms,
//! and time-weighted occupancy statistics (queue depths, busy fractions).

use crate::time::{Duration, Time};

/// Streaming scalar summary (count / min / max / mean / variance) using
/// Welford's numerically stable online algorithm.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
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

/// Histogram over duration values with logarithmic (powers-of-two ns) buckets.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// `buckets[i]` counts samples with ns in `[2^i, 2^(i+1))`; bucket 0 also
    /// holds sub-ns samples.
    buckets: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; 64],
            total: 0,
        }
    }

    pub fn record(&mut self, d: Duration) {
        let ns = d.as_ns();
        let idx = if ns <= 1 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        };
        self.buckets[idx.min(63)] += 1;
        self.total += 1;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// Approximate quantile (upper edge of the bucket containing it).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q));
        if self.total == 0 {
            return 0;
        }
        let target = ((self.total as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
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

/// Busy/idle tracker for a single resource (a DMA engine, a bus): reports
/// utilization as the busy fraction of elapsed time.
#[derive(Debug, Clone)]
pub struct Utilization {
    busy_since: Option<Time>,
    busy_total: Duration,
    start: Time,
}

impl Utilization {
    pub fn new(start: Time) -> Self {
        Utilization {
            busy_since: None,
            busy_total: Duration::ZERO,
            start,
        }
    }

    pub fn set_busy(&mut self, now: Time) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    pub fn set_idle(&mut self, now: Time) {
        if let Some(since) = self.busy_since.take() {
            self.busy_total += now.saturating_since(since);
        }
    }

    pub fn is_busy(&self) -> bool {
        self.busy_since.is_some()
    }

    /// Busy fraction in `[0, 1]` over `[start, now]`.
    pub fn fraction(&self, now: Time) -> f64 {
        let elapsed = now.saturating_since(self.start);
        if elapsed == Duration::ZERO {
            return 0.0;
        }
        let mut busy = self.busy_total;
        if let Some(since) = self.busy_since {
            busy += now.saturating_since(since);
        }
        busy.as_ps() as f64 / elapsed.as_ps() as f64
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
    fn summary_empty_is_nan() {
        let s = Summary::new();
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = LatencyHistogram::new();
        for ns in [1u64, 2, 3, 10, 100, 1000, 10_000] {
            h.record(Duration::from_ns(ns));
        }
        assert_eq!(h.total(), 7);
        // Median falls in the bucket containing 10ns => upper edge 16ns.
        assert_eq!(h.quantile_ns(0.5), 16);
        assert!(h.quantile_ns(1.0) >= 10_000);
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

    #[test]
    fn utilization_fraction() {
        let mut u = Utilization::new(Time::ZERO);
        u.set_busy(Time::from_ns(10));
        u.set_idle(Time::from_ns(30));
        assert!((u.fraction(Time::from_ns(40)) - 0.5).abs() < 1e-12);
        // Still-busy interval counts up to `now`.
        u.set_busy(Time::from_ns(40));
        assert!((u.fraction(Time::from_ns(60)) - (20.0 + 20.0) / 60.0).abs() < 1e-12);
        assert!(u.is_busy());
    }

    #[test]
    fn utilization_idempotent_transitions() {
        let mut u = Utilization::new(Time::ZERO);
        u.set_busy(Time::from_ns(5));
        u.set_busy(Time::from_ns(9)); // no-op: already busy
        u.set_idle(Time::from_ns(10));
        u.set_idle(Time::from_ns(11)); // no-op: already idle
        assert!((u.fraction(Time::from_ns(10)) - 0.5).abs() < 1e-12);
    }
}
