//! Figure 9: Fast Messages vs Myricom's API — the paper's headline
//! comparison.
//!
//! Paper shapes: the API's latency is 105–121 µs against FM's handful of
//! microseconds; its usable bandwidth for short messages is tiny (half
//! power only at ~4.4–6.9 KB vs FM's 54 B — two orders of magnitude), even
//! though its large-message asymptote is comparable.

use fm_bench::{
    layer_metrics, measure_layer, render_figure, stream_count, LayerCurves, FIGURE_SIZES,
};
use fm_metrics::derive_metrics;
use fm_myrinet_api::{api_bandwidth_sweep, api_latency_sweep, ApiVariant};
use fm_testbed::Layer;

fn main() {
    let count = stream_count();
    // The API's synchronous handshake makes each packet ~100x slower to
    // simulate *and* to run; the paper itself could not push enough data
    // through it to measure r_inf. Use a reduced stream for the API.
    let api_count = (count / 64).clamp(100, 2_000);
    println!("Figure 9: FM vs the Myrinet API ({count} / {api_count} packets per point)\n");

    let fm = measure_layer(Layer::FullFm, count);
    let api = |v: ApiVariant| LayerCurves {
        name: v.name().to_string(),
        latency_us: api_latency_sweep(v, &FIGURE_SIZES, 10),
        bandwidth_mbs: api_bandwidth_sweep(v, &FIGURE_SIZES, api_count),
    };
    let imm = api(ApiVariant::SendImm);
    let dma = api(ApiVariant::Send);

    println!(
        "{}",
        render_figure("Figure 9", &[fm.clone(), imm.clone(), dma.clone()])
    );

    let m_fm = layer_metrics(&fm);
    println!(
        "{:<36} t0 = {:>6.1} us   n1/2 = {:>6.0} B",
        "Fast Messages", m_fm.t0_us, m_fm.n_half_bytes
    );

    // The API never reaches half power within 600 B; extend the sweep into
    // the kilobytes to find n_1/2 as the paper's footnote does.
    let big_sizes = [256usize, 512, 1024, 2048, 4096, 8192, 16384, 32768];
    for v in [ApiVariant::SendImm, ApiVariant::Send] {
        let lat = api_latency_sweep(v, &FIGURE_SIZES, 10);
        let bw = api_bandwidth_sweep(v, &big_sizes, api_count.min(300));
        let m = derive_metrics(&lat, &bw);
        println!(
            "{:<36} t0 = {:>6.1} us   n1/2 = {:>6.0} B",
            v.name(),
            m.t0_us,
            m.n_half_bytes
        );
    }
    println!(
        "\nn1/2 ratio (API send_imm / FM): {:.0}x  (paper: 4409/54 = 82x)",
        {
            let lat = api_latency_sweep(ApiVariant::SendImm, &FIGURE_SIZES, 10);
            let bw = api_bandwidth_sweep(ApiVariant::SendImm, &big_sizes, api_count.min(300));
            derive_metrics(&lat, &bw).n_half_bytes / m_fm.n_half_bytes
        }
    );
    println!("paper: send_imm t0 105 us / n1/2 ~4.4K; send t0 121 us / n1/2 ~6.9K; FM t0 4.1 us / n1/2 54 B");
}
