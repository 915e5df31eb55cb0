//! # fm-bench — regenerates every table and figure of the paper
//!
//! The `repro` binary writes one artifact per subcommand (run from the
//! workspace root; outputs land in `results/`), or all of them with
//! `repro all`:
//!
//! | `repro` subcommand | artifact | what it shows |
//! |---|---|---|
//! | `fig3` | Figure 3(a/b) | LANai-to-LANai: baseline vs streamed vs theoretical peak |
//! | `fig4` | Figure 4(a/b) | minimal host-to-host: hybrid vs all-DMA SBus management |
//! | `fig7` | Figure 7(a/b) | + buffer management, + simulated `switch()` |
//! | `fig8` | Figure 8(a/b) | + return-to-sender flow control (complete FM) |
//! | `fig9` | Figure 9(a/b) | FM vs the Myrinet API (both entry points) |
//! | `table4` | Table 4 | t0 / r_inf / n_1/2 for every configuration, paper vs measured |
//! | `appendix-a` | Appendix A | the analytic LANai peak model |
//! | `headline` | abstract / Section 5 | FM's headline numbers |
//! | `overload` | extension | return-to-sender dynamics under receiver overload |
//! | `scaling` | extension | switch scaling: disjoint pairs and incast fairness |
//! | `ablation` | extension | design-knob sweeps (aggregation, ack batching, window, send queue) |
//! | `tables` | Tables 1/2/3, Fig 5/6 | the qualitative tables, rendered from the code |
//!
//! The `bench_*` and `trace_*` binaries are the gates: each parses its
//! arguments, writes its report and decides its exit status through
//! [`report`]. `bench_udp` and `bench_obs` share the two-process harness
//! in [`udp_pair`]; `trace_merge` and `trace_scaling` share
//! [`merged_trace`].

use fm_metrics::{csv, derive_metrics, AsciiPlot, LayerMetrics, Table};
use fm_testbed::{bandwidth_sweep, latency_sweep, Layer, TestbedConfig};

pub mod alloc_track;
pub mod merged_trace;
pub mod pingpong;
pub mod report;
pub mod telemetry_price;
pub mod udp_pair;

/// Where the figure/table outputs go, relative to the working directory.
pub const RESULTS_DIR: &str = "results";

/// Packet sizes for figure sweeps (the paper plots 0–600 B).
pub use fm_testbed::experiments::FIGURE_SIZES;

/// Ping-pong rounds per latency point.
pub use fm_testbed::experiments::PINGPONG_ROUNDS;

/// One measured curve pair for a layer.
#[derive(Debug, Clone)]
pub struct LayerCurves {
    pub name: String,
    pub latency_us: Vec<(usize, f64)>,
    pub bandwidth_mbs: Vec<(usize, f64)>,
}

/// Measure a testbed layer across the figure sizes.
pub fn measure_layer(layer: Layer, count: usize) -> LayerCurves {
    let cfg = TestbedConfig::default();
    let lat = latency_sweep(layer, &cfg, &FIGURE_SIZES, PINGPONG_ROUNDS)
        .into_iter()
        .map(|p| (p.n, p.one_way.as_us_f64()))
        .collect();
    let bw = bandwidth_sweep(layer, &cfg, &FIGURE_SIZES, count)
        .into_iter()
        .map(|p| (p.n, p.mbs))
        .collect();
    LayerCurves {
        name: layer.name().to_string(),
        latency_us: lat,
        bandwidth_mbs: bw,
    }
}

/// Derived Table-4 metrics for a measured layer.
pub fn layer_metrics(c: &LayerCurves) -> LayerMetrics {
    derive_metrics(&c.latency_us, &c.bandwidth_mbs)
}

/// Render one figure (latency panel + bandwidth panel) as ASCII plots and
/// CSV files, returning the text to print.
pub fn render_figure(fig: &str, curves: &[LayerCurves]) -> String {
    let glyphs = ['*', 'o', '+', 'x', '#', '@'];
    let mut latency = AsciiPlot::new(format!("{fig}(a): one-way latency"))
        .axes("packet size (bytes)", "latency (us)")
        .size(72, 18);
    let mut bandwidth = AsciiPlot::new(format!("{fig}(b): bandwidth"))
        .axes("packet size (bytes)", "bandwidth (MB/s)")
        .size(72, 18);
    for (i, c) in curves.iter().enumerate() {
        let g = glyphs[i % glyphs.len()];
        latency = latency.series(
            &c.name,
            g,
            c.latency_us.iter().map(|&(n, us)| (n as f64, us)),
        );
        bandwidth = bandwidth.series(
            &c.name,
            g,
            c.bandwidth_mbs.iter().map(|&(n, b)| (n as f64, b)),
        );
    }
    // CSVs for external plotting.
    let mut lat_rows = Vec::new();
    let mut bw_rows = Vec::new();
    for c in curves {
        for &(n, us) in &c.latency_us {
            lat_rows.push(vec![c.name.clone(), n.to_string(), format!("{us:.4}")]);
        }
        for &(n, b) in &c.bandwidth_mbs {
            bw_rows.push(vec![c.name.clone(), n.to_string(), format!("{b:.4}")]);
        }
    }
    let slug = fig.to_lowercase().replace(' ', "");
    let _ = csv::write_file(
        format!("{RESULTS_DIR}/{slug}_latency.csv"),
        &["layer", "bytes", "latency_us"],
        &lat_rows,
    );
    let _ = csv::write_file(
        format!("{RESULTS_DIR}/{slug}_bandwidth.csv"),
        &["layer", "bytes", "mbs"],
        &bw_rows,
    );
    format!(
        "{}\n{}\n(curve data: {RESULTS_DIR}/{slug}_latency.csv, {RESULTS_DIR}/{slug}_bandwidth.csv)\n",
        latency.render(),
        bandwidth.render()
    )
}

/// A Table-4 row as printed in the paper.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    pub layer: Layer,
    pub t0_us: f64,
    pub r_inf_mbs: f64,
    pub n_half_bytes: f64,
}

/// The paper's Table 4 (FM rows; the Myrinet API rows live in
/// `fm-myrinet-api`).
pub const TABLE4_PAPER: [PaperRow; 8] = [
    PaperRow {
        layer: Layer::LanaiBaseline,
        t0_us: 4.2,
        r_inf_mbs: 76.3,
        n_half_bytes: 315.0,
    },
    PaperRow {
        layer: Layer::LanaiStreamed,
        t0_us: 3.5,
        r_inf_mbs: 76.3,
        n_half_bytes: 249.0,
    },
    PaperRow {
        layer: Layer::Hybrid,
        t0_us: 3.5,
        r_inf_mbs: 21.2,
        n_half_bytes: 44.0,
    },
    PaperRow {
        layer: Layer::HybridBufMgmt,
        t0_us: 3.8,
        r_inf_mbs: 21.9,
        n_half_bytes: 53.0,
    },
    PaperRow {
        layer: Layer::FullFm,
        t0_us: 4.1,
        r_inf_mbs: 21.4,
        n_half_bytes: 54.0,
    },
    PaperRow {
        layer: Layer::HybridBufMgmtSwitch,
        t0_us: 6.8,
        r_inf_mbs: 21.8,
        n_half_bytes: 127.0,
    },
    PaperRow {
        layer: Layer::FullFmSwitch,
        t0_us: 6.9,
        r_inf_mbs: 21.7,
        n_half_bytes: 127.0,
    },
    PaperRow {
        layer: Layer::AllDma,
        t0_us: 7.5,
        r_inf_mbs: 33.0,
        n_half_bytes: 162.0,
    },
];

/// Build the paper-vs-measured comparison table for a set of layers.
pub fn comparison_table(rows: &[(PaperRow, LayerMetrics)]) -> Table {
    let mut t = Table::new([
        "configuration",
        "t0 paper",
        "t0 sim",
        "r_inf paper",
        "r_inf sim",
        "n1/2 paper",
        "n1/2 sim",
    ])
    .with_title("Table 4: summary of FM 1.0 performance data (paper vs simulated)");
    for (p, m) in rows {
        t.row([
            p.layer.name().to_string(),
            format!("{:.1}", p.t0_us),
            format!("{:.1}", m.t0_us),
            format!("{:.1}", p.r_inf_mbs),
            format!("{:.1}", m.r_inf_mbs),
            format!("{:.0}", p.n_half_bytes),
            format!("{:.0}", m.n_half_bytes),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_and_render_smoke() {
        let c = measure_layer(Layer::LanaiStreamed, 300);
        assert_eq!(c.latency_us.len(), FIGURE_SIZES.len());
        let m = layer_metrics(&c);
        assert!(m.t0_us > 1.0 && m.t0_us < 10.0);
        let text = render_figure("Figure T", &[c]);
        assert!(text.contains("Figure T(a)"));
        assert!(text.contains("Figure T(b)"));
        let _ = std::fs::remove_dir_all(RESULTS_DIR);
    }

    #[test]
    fn table4_paper_rows_cover_all_layers() {
        for l in Layer::ALL {
            assert!(
                TABLE4_PAPER.iter().any(|r| r.layer == l),
                "{l:?} missing from the paper reference table"
            );
        }
    }
}
