//! Order statistics over per-segment values and raw latency samples.

/// First quartile, median and third quartile, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so spreads the
/// harness prints match what an outside checker computes from the same
/// numbers. Fewer than two values have no spread: all three are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |k: usize| {
                // Position k*(n+1)/4 on a 1-based axis, clamped to the data.
                let pos = k * (n + 1);
                let j = (pos / 4).clamp(1, n - 1);
                let delta = pos as f64 / 4.0 - j as f64;
                let delta = delta.clamp(0.0, 1.0);
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (at(1), at(2), at(3))
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Quantile of raw integer-nanosecond samples; sorts `samples` in place.
/// A clock reading `v` stands for the interval `[v - 0.5, v + 0.5)`, and
/// the quantile is interpolated inside the interval of the tied readings
/// it falls among (the grouped-data quantile). Thousands of samples a few
/// nanoseconds apart tie heavily; the plain nearest rank would then report
/// the same whole number run after run and hide any shift smaller than the
/// clock's step. Returns 0 for an empty set.
pub fn quantile_u32(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let target = samples.len() as f64 * q;
    let rank = (target.ceil() as usize).clamp(1, samples.len());
    let v = samples[rank - 1];
    let below = samples.partition_point(|&s| s < v);
    let tied = samples.partition_point(|&s| s <= v) - below;
    v as f64 - 0.5 + (target - below as f64).clamp(0.0, tied as f64) / tied as f64
}

/// Jain's fairness index over per-flow rates: 1 when all equal, 1/n when
/// one flow takes everything.
pub fn jain(rates: &[f64]) -> f64 {
    let sum: f64 = rates.iter().sum();
    let sq: f64 = rates.iter().map(|r| r * r).sum();
    if rates.is_empty() || sq == 0.0 {
        1.0
    } else {
        sum * sum / (rates.len() as f64 * sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        assert_eq!(
            quartiles(&[7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0]),
            (2.0, 4.0, 6.0)
        );
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] clamps to
        // the data here: the harness never extrapolates past a measurement.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 1.5, 2.0));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
    }

    #[test]
    fn median_of_segments_ignores_one_disturbed_segment() {
        assert_eq!(median(&[10.0, 10.2, 9.9, 55.0, 10.1, 10.0, 9.8]), 10.0);
    }

    #[test]
    fn quantiles_interpolate_inside_tied_readings() {
        let mut s: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile_u32(&mut s, 0.5), 50.5);
        assert_eq!(quantile_u32(&mut s, 0.99), 99.5);
        assert_eq!(quantile_u32(&mut [], 0.5), 0.0);
        // 40 % read 7 and 60 % read 8: the median sits a sixth into 8's
        // interval, and moves when a tenth of the samples do.
        let mut tied: Vec<u32> = [vec![7; 40], vec![8; 60]].concat();
        assert!((quantile_u32(&mut tied, 0.5) - (7.5 + 10.0 / 60.0)).abs() < 1e-12);
        let mut shifted: Vec<u32> = [vec![7; 30], vec![8; 70]].concat();
        assert!(quantile_u32(&mut shifted, 0.5) > quantile_u32(&mut tied, 0.5));
        assert_eq!(quantile_u32(&mut [5], 0.5), 5.0);
    }

    #[test]
    fn jain_bounds() {
        assert_eq!(jain(&[2.0, 2.0, 2.0]), 1.0);
        assert!((jain(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
    }
}
