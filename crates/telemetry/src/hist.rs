//! Zero-alloc log-bucketed histograms.
//!
//! A [`Histogram`] is a fixed array of atomic buckets laid out log2-linear:
//! values below [`SUB`] get exact unit buckets, and every octave above that
//! is split into [`SUB`] equal sub-buckets, so the relative quantization
//! error is bounded by `1/SUB` (= 3.125% at the default `SUB_BITS = 5`)
//! across the full `u64` range. Recording is a couple of relaxed atomic
//! adds — no allocation, no locks, safe from concurrent threads — and
//! quantile extraction walks the bucket array once.
//!
//! This replaces the sorted-`Vec` percentile code that used to be
//! duplicated across `bench_gate` and the testbed loss sweep: those paths
//! now record into a `Histogram` and read [`Histogram::quantile`]. The
//! scheme is the standard HDR-style layout (log2 octaves, linear
//! sub-buckets) used by production latency trackers.
//!
//! Quantiles are **nearest-rank** and biased upward: `quantile(q)` returns
//! the upper bound of the bucket holding the rank-`q` sample (clamped to
//! the largest recorded value), so a reported p99 is never smaller than
//! the true p99.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
pub const SUB_BITS: u32 = 5;

/// Sub-buckets per octave (also the width of the exact linear region).
pub const SUB: u64 = 1 << SUB_BITS;

/// Total buckets needed to cover all of `u64`.
pub const BUCKETS: usize = ((64 - SUB_BITS + 1) * SUB as u32) as usize;

/// Index of the bucket holding `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS
        let mantissa = (v >> (exp - SUB_BITS)) & (SUB - 1);
        ((exp - SUB_BITS + 1) as usize) * SUB as usize + mantissa as usize
    }
}

/// Smallest value that lands in bucket `index`.
#[inline]
pub fn bucket_lower(index: usize) -> u64 {
    let group = index as u64 / SUB;
    let m = index as u64 % SUB;
    if group == 0 {
        m
    } else {
        (SUB + m) << (group - 1)
    }
}

/// Largest value that lands in bucket `index`.
#[inline]
pub fn bucket_upper(index: usize) -> u64 {
    if index + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lower(index + 1) - 1
    }
}

/// `word += by` for a word only this thread writes: a relaxed load and store
/// where a shared word needs an atomic read-modify-write.
#[inline]
pub(crate) fn bump(word: &AtomicU64, by: u64) {
    word.store(
        word.load(Ordering::Relaxed).wrapping_add(by),
        Ordering::Relaxed,
    );
}

/// Point-in-time summary of one histogram (see [`Histogram::summary`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSummary {
    pub count: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

/// A concurrent log2-linear histogram of `u64` samples.
///
/// ~15 KB of atomics; construct once and share by reference (or behind the
/// `fm-telemetry` handle). All methods take `&self`.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("summary", &self.summary())
            .finish()
    }
}

impl Histogram {
    pub fn new() -> Self {
        // Initialize via a Vec to keep the large array off the stack.
        let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets = v
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("sized to BUCKETS above"));
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Lock-free; relaxed ordering (telemetry reads are
    /// statistical, not synchronizing).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// [`Histogram::record`] for a histogram with **one writing thread**
    /// (the `fm-telemetry` handle's contract): plain load + store per word
    /// instead of five atomic read-modify-writes. Readers on other threads
    /// stay safe — every word is still an atomic — but a second concurrent
    /// writer would lose samples; shared histograms use `record`.
    #[inline]
    pub fn record_single_writer(&self, v: u64) {
        bump(&self.buckets[bucket_index(v)], 1);
        bump(&self.count, 1);
        bump(&self.sum, v);
        if v < self.min.load(Ordering::Relaxed) {
            self.min.store(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.store(v, Ordering::Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Nearest-rank quantile, `0.0 <= q <= 1.0`. Returns the upper bound of
    /// the bucket containing the rank-`q` sample, clamped to the recorded
    /// max — so the result is `>=` the exact value and overshoots by at
    /// most a factor of `1/SUB`. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i).min(self.max());
            }
        }
        // Concurrent recording can leave count ahead of the bucket sums;
        // the max is the safe answer.
        self.max()
    }

    /// Snapshot count/min/max/p50/p90/p99 in one call.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }

    /// Per-octave sample counts, skipping empty octaves: `(group, count)`
    /// where `group` is the log2-linear bucket group (`bucket_index / SUB`)
    /// and `count` sums that group's sub-buckets. This is the compact form
    /// the telemetry beacons ship — at most `64 - SUB_BITS + 1` entries
    /// regardless of sample count, with the same `1/SUB`-bounded loss of
    /// resolution collapsed to one-octave granularity.
    pub fn octave_counts(&self) -> Vec<(u8, u64)> {
        let mut out = Vec::new();
        for group in 0..(BUCKETS / SUB as usize) {
            let mut n = 0u64;
            for sub in 0..SUB as usize {
                n += self.buckets[group * SUB as usize + sub].load(Ordering::Relaxed);
            }
            if n > 0 {
                out.push((group as u8, n));
            }
        }
        out
    }

    /// Reset every bucket and counter to zero. Not atomic with respect to
    /// concurrent recorders; intended for between-phases reuse in harnesses.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_exact() {
        for v in 0..SUB {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        // Powers of two, their neighbors, and a spread of odd values.
        let mut vals = vec![0u64, 1, SUB - 1, SUB, SUB + 1, u64::MAX];
        for shift in 0..64 {
            let p = 1u64 << shift;
            vals.extend([p.saturating_sub(1), p, p.saturating_add(1), p | (p >> 1)]);
        }
        for v in vals {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v, "lower({i}) > {v}");
            assert!(v <= bucket_upper(i), "upper({i}) < {v}");
            assert_eq!(bucket_index(bucket_lower(i)), i, "lower bound re-indexes");
        }
    }

    #[test]
    fn buckets_are_contiguous() {
        for i in 0..BUCKETS - 1 {
            assert_eq!(
                bucket_upper(i) + 1,
                bucket_lower(i + 1),
                "gap after bucket {i}"
            );
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_bounded_relative_error() {
        let h = Histogram::new();
        let mut exact: Vec<u64> = Vec::new();
        // Deterministic spread over five decades.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 1_000_000;
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let n = exact.len() as f64;
            let rank = ((q * n).ceil() as usize).clamp(1, exact.len());
            let e = exact[rank - 1];
            let r = h.quantile(q);
            assert!(r >= e, "q={q}: hist {r} < exact {e}");
            assert!(
                r - e <= e / SUB + 1,
                "q={q}: hist {r} overshoots exact {e} past 1/{SUB}"
            );
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.summary(), HistSummary::default());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn summary_tracks_min_max_mean() {
        let h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!((s.count, s.min, s.max), (3, 10, 30));
        assert_eq!(h.mean(), 20.0);
        h.reset();
        assert_eq!(h.summary(), HistSummary::default());
    }

    #[test]
    fn octave_counts_partition_the_samples() {
        let h = Histogram::new();
        for v in [0u64, 1, 31, 32, 63, 64, 1000, 1_000_000] {
            h.record(v);
        }
        let octs = h.octave_counts();
        let total: u64 = octs.iter().map(|(_, n)| n).sum();
        assert_eq!(total, h.count(), "octaves partition all samples");
        // Group 0 is the exact linear region [0, SUB).
        assert_eq!(octs[0], (0, 3), "0, 1, 31 land in the linear region");
        for w in octs.windows(2) {
            assert!(w[0].0 < w[1].0, "groups ascend");
        }
        // Each reported group really covers its values.
        for (g, _) in &octs {
            assert!((*g as usize) < BUCKETS / SUB as usize);
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..25_000u64 {
                        h.record(t * 1_000 + (i % 97));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 100_000);
    }
}
