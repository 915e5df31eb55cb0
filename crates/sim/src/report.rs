//! Fairness and reporting helpers shared by scenarios, tests and the
//! campaign driver.

/// Jain's fairness index — the same function the live `fm_testbed::scaling`
/// harness reports with.
pub use fm_metrics::jain;

/// Goodput in MB/s (2²⁰) for `bytes` moved over `sim_ns` of simulated time.
pub fn goodput_mbs(bytes: u64, sim_ns: u64) -> f64 {
    if sim_ns == 0 {
        return 0.0;
    }
    bytes as f64 / (sim_ns as f64 * 1e-9) / (1u64 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_round_trip() {
        // 128 bytes in 1.47 µs ≈ the calibrated 83 MB/s.
        let mbs = goodput_mbs(128, 1_470);
        assert!((mbs - 83.0).abs() < 1.0, "{mbs}");
        assert_eq!(goodput_mbs(1, 0), 0.0);
    }
}
