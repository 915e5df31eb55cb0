//! Figure 3: LANai-to-LANai performance — *baseline* vs *streamed* LCP
//! main loops against the Appendix-A theoretical peak.
//!
//! Paper shapes this must reproduce: streamed beats baseline in both
//! latency and bandwidth; both sit above the analytic latency bound and
//! below the analytic bandwidth bound; both reach the 76.3 MB/s link rate
//! for large packets but need hundreds of bytes to do so (n_1/2 = 315 B
//! baseline, 249 B streamed).

use fm_bench::{measure_layer, render_figure, stream_count, LayerCurves, FIGURE_SIZES};
use fm_myrinet::analytic;
use fm_testbed::Layer;

fn main() {
    let count = stream_count();
    println!("Figure 3: LANai-to-LANai, {count} packets per bandwidth point\n");

    let baseline = measure_layer(Layer::LanaiBaseline, count);
    let streamed = measure_layer(Layer::LanaiStreamed, count);
    let peak = LayerCurves {
        name: "Theoretical peak (Appendix A)".into(),
        latency_us: FIGURE_SIZES
            .iter()
            .map(|&n| (n, analytic::latency_ns(n) / 1000.0))
            .collect(),
        bandwidth_mbs: FIGURE_SIZES
            .iter()
            .map(|&n| (n, analytic::bandwidth_mbs(n)))
            .collect(),
    };

    println!(
        "{}",
        render_figure("Figure 3", &[baseline.clone(), streamed.clone(), peak])
    );

    for c in [&baseline, &streamed] {
        let m = fm_bench::layer_metrics(c);
        println!(
            "{:<28} t0 = {:>5.2} us   r_inf = {:>5.1} MB/s   n1/2 = {:>5.0} B",
            c.name, m.t0_us, m.r_inf_mbs, m.n_half_bytes
        );
    }
    println!("\npaper: baseline t0 4.2 us / n1/2 315 B; streamed t0 3.5 us / n1/2 249 B; r_inf 76.3 MB/s both");
}
