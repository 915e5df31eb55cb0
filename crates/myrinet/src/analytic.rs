//! Appendix A: the paper's closed-form "theoretical peak" LANai model.
//!
//! ```text
//! t_dma = 8 cycles x 40 ns            = 320 ns
//! t0(N) = t_dma + N x 12.5 ns         = (320 + 12.5 N) ns
//! l(N)  = t0(N) + t_switch            = (870 + 12.5 N) ns
//! r(N)  = N / t0(N)                   = N / (320 + 12.5 N) bytes/ns
//! ```
//!
//! These curves are plotted in Figure 3 as the bound no LANai control
//! program can beat; `fm-bench`'s `repro appendix-a` prints them, and the
//! testbed's LCP models are asserted to stay above the latency bound and
//! below the bandwidth bound.

use crate::consts::MB;

/// Message overhead t0(N) in nanoseconds: DMA setup plus channel streaming.
pub fn overhead_ns(n: usize) -> f64 {
    320.0 + 12.5 * n as f64
}

/// One-way packet latency l(N) in nanoseconds, through one switch.
pub fn latency_ns(n: usize) -> f64 {
    overhead_ns(n) + 550.0
}

/// Peak communication bandwidth r(N) in bytes/second.
pub fn bandwidth_bytes_per_sec(n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    n as f64 / (overhead_ns(n) * 1e-9)
}

/// Peak bandwidth in the paper's MB/s (1 MB = 2^20 bytes).
pub fn bandwidth_mbs(n: usize) -> f64 {
    bandwidth_bytes_per_sec(n) / MB
}

/// Asymptotic bandwidth r_inf in MB/s: the 76.3 MB/s link limit.
pub fn r_inf_mbs() -> f64 {
    1e9 / 12.5 / MB
}

/// The model's half-power point n_1/2 in bytes: the N at which r(N) reaches
/// half of r_inf. Solving N / (320 + 12.5 N) = 1 / 25 gives N = 25.6.
pub fn n_half_bytes() -> f64 {
    320.0 / 12.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_at_zero_is_870ns() {
        assert_eq!(latency_ns(0), 870.0);
    }

    #[test]
    fn latency_slope_is_12_5ns_per_byte() {
        assert!((latency_ns(100) - latency_ns(0) - 1250.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_approaches_link_peak() {
        assert!((r_inf_mbs() - 76.29).abs() < 0.01);
        let r = bandwidth_mbs(1 << 20);
        assert!(r > 0.999 * r_inf_mbs() * (1.0 - 320.0 / (12.5 * (1 << 20) as f64)));
        assert!(r < r_inf_mbs());
    }

    #[test]
    fn n_half_satisfies_definition() {
        let n = n_half_bytes();
        let r = n / (overhead_ns(n.round() as usize));
        let half = (1.0 / 12.5) / 2.0;
        assert!((r - half).abs() / half < 0.02, "r={r} half={half}");
    }

    #[test]
    fn bandwidth_monotone_in_n() {
        let mut prev = 0.0;
        for n in [0usize, 4, 16, 64, 128, 256, 512, 4096] {
            let r = bandwidth_mbs(n);
            assert!(r >= prev, "bandwidth must be monotone: {n} -> {r}");
            prev = r;
        }
    }
}
