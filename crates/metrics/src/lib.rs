//! # fm-metrics — the paper's performance metrics and report rendering
//!
//! Table 2 of the paper defines four metrics; this crate extracts them from
//! measured latency/bandwidth curves and renders the tables and figures as
//! text:
//!
//! | metric | definition | extraction here |
//! |---|---|---|
//! | `r_inf` | peak bandwidth for infinitely large packets | Hockney fit of per-packet time `T(n) = a + b n` over the upper half of the sweep; `r_inf = 1/b` |
//! | `n_1/2` | packet size achieving `r_inf / 2` | interpolated crossing of the measured bandwidth curve (falls back to the fit's `a/b` when the sweep never reaches half power) |
//! | `t0` | startup overhead | intercept of the one-way latency fit |
//! | `l` | one-way packet latency | measured directly |
//!
//! Rendering lives in [`table`] (aligned text tables), [`plot`] (ASCII line
//! charts standing in for the paper's figures) and [`csv`] (for external
//! plotting).

pub mod csv;
pub mod fit;
pub mod plot;
pub mod table;

pub use fit::{derive_metrics, linear_fit, LayerMetrics, LinearFit};
pub use plot::AsciiPlot;
pub use table::Table;

/// The paper's megabyte: 2^20 bytes.
pub const MB: f64 = (1u64 << 20) as f64;

/// Jain's fairness index over per-flow rates (or any share vector):
/// `(Σx)² / (n·Σx²)`. 1.0 when all shares are equal, `1/n` when one flow
/// starves the rest; 1.0 for empty or all-zero input (nothing to be unfair
/// about). The one definition behind the scaling harness, the scale
/// campaign's fairness gates and the collector's incast-capture detector.
pub fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::jain;

    #[test]
    fn fairness_index_bounds() {
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0, 0.0, 0.0]), 1.0);
        assert_eq!(jain(&[5.0]), 1.0);
        assert!((jain(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One flow has everything: the index is 1/n.
        assert!((jain(&[1000.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
    }
}
