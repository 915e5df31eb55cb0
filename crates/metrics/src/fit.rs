//! Least-squares fitting and metric extraction (paper Table 2).

use crate::MB;

/// Ordinary least-squares line `y = intercept + slope * x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    pub intercept: f64,
    pub slope: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r2: f64,
}

/// Fit a line through `(x, y)` points.
///
/// # Panics
/// Panics with fewer than two points or when all `x` coincide.
pub fn linear_fit(points: &[(f64, f64)]) -> LinearFit {
    assert!(points.len() >= 2, "need at least two points to fit a line");
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let mx = sx / n;
    let my = sy / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    assert!(sxx > 0.0, "degenerate fit: all x identical");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - my) * (p.1 - my)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| {
            let e = p.1 - (intercept + slope * p.0);
            e * e
        })
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    };
    LinearFit {
        intercept,
        slope,
        r2,
    }
}

/// The derived metrics for one messaging-layer configuration — one row of
/// the paper's Table 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerMetrics {
    /// Startup overhead, microseconds (latency-fit intercept).
    pub t0_us: f64,
    /// Asymptotic bandwidth, MB/s (2^20).
    pub r_inf_mbs: f64,
    /// Half-power packet size, bytes.
    pub n_half_bytes: f64,
    /// Latency slope, ns per byte (not in Table 4 but diagnostic).
    pub latency_ns_per_byte: f64,
}

/// Extract Table-4 metrics from measured curves.
///
/// * `latency`: `(packet bytes, one-way latency in microseconds)`;
/// * `bandwidth`: `(packet bytes, delivered MB/s)`, sorted by size.
pub fn derive_metrics(latency: &[(usize, f64)], bandwidth: &[(usize, f64)]) -> LayerMetrics {
    assert!(latency.len() >= 2 && bandwidth.len() >= 2);
    // t0: latency intercept over the whole sweep.
    let lat_pts: Vec<(f64, f64)> = latency.iter().map(|&(n, us)| (n as f64, us)).collect();
    let lat_fit = linear_fit(&lat_pts);

    // r_inf: Hockney fit T(n) = a + b n of *per-packet time* over the upper
    // half of the bandwidth sweep (where the asymptote dominates).
    // T in microseconds = n / (r in bytes/us).
    let time_pts: Vec<(f64, f64)> = bandwidth
        .iter()
        .map(|&(n, mbs)| {
            let bytes_per_us = mbs * MB / 1e6;
            (n as f64, n as f64 / bytes_per_us)
        })
        .collect();
    let upper = &time_pts[time_pts.len() / 2..];
    let hockney = linear_fit(if upper.len() >= 2 { upper } else { &time_pts });
    let r_inf_bytes_per_us = 1.0 / hockney.slope.max(1e-12);
    let r_inf_mbs = r_inf_bytes_per_us * 1e6 / MB;

    // n_1/2: first crossing of r_inf/2 on the measured curve, linearly
    // interpolated; Hockney fallback a/b when the sweep never gets there.
    let half = r_inf_mbs / 2.0;
    let mut n_half = hockney.intercept / hockney.slope.max(1e-12);
    for w in bandwidth.windows(2) {
        let (n0, b0) = (w[0].0 as f64, w[0].1);
        let (n1, b1) = (w[1].0 as f64, w[1].1);
        if b0 < half && b1 >= half {
            n_half = n0 + (half - b0) / (b1 - b0) * (n1 - n0);
            break;
        }
    }
    if bandwidth[0].1 >= half {
        // Already above half power at the smallest measured size.
        n_half = n_half.min(bandwidth[0].0 as f64);
    }

    LayerMetrics {
        t0_us: lat_fit.intercept,
        r_inf_mbs,
        n_half_bytes: n_half,
        latency_ns_per_byte: lat_fit.slope * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let f = linear_fit(&pts);
        assert!((f.intercept - 3.0).abs() < 1e-9);
        assert!((f.slope - 2.0).abs() < 1e-9);
        assert!((f.r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_line_r2_below_one() {
        let pts = vec![(0.0, 1.0), (1.0, 2.9), (2.0, 5.2), (3.0, 6.8), (4.0, 9.1)];
        let f = linear_fit(&pts);
        assert!((f.slope - 2.0).abs() < 0.1);
        assert!(f.r2 > 0.99 && f.r2 < 1.0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_point_panics() {
        linear_fit(&[(1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn vertical_line_panics() {
        linear_fit(&[(1.0, 1.0), (1.0, 2.0)]);
    }

    /// A measured curve: (packet size, value) points.
    type Curve = Vec<(usize, f64)>;

    /// Synthetic layer following the Appendix-A model exactly: latency
    /// 0.87us + 12.5 ns/B; bandwidth n/(0.32 + 0.0125 n) bytes/us.
    fn appendix_a_curves() -> (Curve, Curve) {
        let sizes = [8usize, 16, 32, 64, 128, 256, 512, 1024, 2048];
        let lat = sizes
            .iter()
            .map(|&n| (n, 0.87 + 0.0125 * n as f64))
            .collect();
        let bw = sizes
            .iter()
            .map(|&n| {
                let bytes_per_us = n as f64 / (0.32 + 0.0125 * n as f64);
                (n, bytes_per_us * 1e6 / MB)
            })
            .collect();
        (lat, bw)
    }

    #[test]
    fn derive_metrics_on_appendix_a_model() {
        let (lat, bw) = appendix_a_curves();
        let m = derive_metrics(&lat, &bw);
        assert!((m.t0_us - 0.87).abs() < 0.01, "t0 {}", m.t0_us);
        assert!((m.latency_ns_per_byte - 12.5).abs() < 0.1);
        // r_inf = 80 bytes/us = 76.3 MB/s.
        assert!((m.r_inf_mbs - 76.3).abs() < 1.0, "r_inf {}", m.r_inf_mbs);
        // n_1/2 = 0.32/0.0125 = 25.6 B.
        assert!(
            (m.n_half_bytes - 25.6).abs() < 3.0,
            "n1/2 {}",
            m.n_half_bytes
        );
    }

    #[test]
    fn n_half_interpolates_inside_sweep() {
        // Bandwidth hits half power between 100 and 200 bytes.
        let bw = vec![
            (50usize, 10.0),
            (100, 20.0),
            (200, 40.0),
            (400, 60.0),
            (800, 75.0),
            (1600, 78.0),
        ];
        let lat = vec![(50usize, 1.0), (1600, 2.0)];
        let m = derive_metrics(&lat, &bw);
        let half = m.r_inf_mbs / 2.0;
        assert!(half > 20.0 && half < 60.0);
        assert!(
            m.n_half_bytes > 100.0 && m.n_half_bytes < 400.0,
            "n1/2 {} (half {half})",
            m.n_half_bytes
        );
    }

    #[test]
    fn n_half_fallback_when_never_reached() {
        // A layer so overhead-bound that the sweep never reaches half
        // power (like the Myrinet API within 600 B): fallback to the
        // Hockney a/b estimate.
        let sizes = [64usize, 128, 256, 512];
        // T(n) = 100 + 0.04 n us -> r_inf = 25 B/us, n_half_model = 2500 B.
        let bw: Vec<(usize, f64)> = sizes
            .iter()
            .map(|&n| (n, (n as f64 / (100.0 + 0.04 * n as f64)) * 1e6 / MB))
            .collect();
        let lat = vec![(64usize, 100.0), (512, 120.0)];
        let m = derive_metrics(&lat, &bw);
        assert!(
            (m.n_half_bytes - 2500.0).abs() / 2500.0 < 0.05,
            "n1/2 {}",
            m.n_half_bytes
        );
    }
}
