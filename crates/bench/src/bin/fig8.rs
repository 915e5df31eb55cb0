//! Figure 8: the complete Fast Messages layer — buffer management plus
//! return-to-sender flow control — against the same layer without flow
//! control.
//!
//! Paper shape: flow control is nearly free. Acknowledgements piggyback on
//! reverse data in ping-pong and batch four-to-a-frame in streams, so the
//! complete layer gives up ~0.3 µs of t0 and ~0.5 MB/s of peak bandwidth
//! for guaranteed delivery (t0 4.1 µs, r_inf 21.4 MB/s, n_1/2 54 B).

use fm_bench::{layer_metrics, measure_layer, render_figure, stream_count};
use fm_testbed::{run_stream, Layer, TestbedConfig};

fn main() {
    let count = stream_count();
    println!("Figure 8: Fast Messages messaging layer, {count} packets per bandwidth point\n");

    let bm = measure_layer(Layer::HybridBufMgmt, count);
    let fm = measure_layer(Layer::FullFm, count);

    println!("{}", render_figure("Figure 8", &[fm.clone(), bm.clone()]));

    for c in [&fm, &bm] {
        let m = layer_metrics(c);
        println!(
            "{:<44} t0 = {:>5.2} us   r_inf = {:>5.1} MB/s   n1/2 = {:>5.0} B",
            c.name, m.t0_us, m.r_inf_mbs, m.n_half_bytes
        );
    }

    // Flow-control bookkeeping detail at the FM frame size.
    let r = run_stream(
        Layer::FullFm,
        &TestbedConfig::default(),
        128,
        count.min(10_000),
    );
    println!(
        "\nat 128 B: {} standalone ack frames for {} data packets ({:.2} acks/packet), {} delivery bursts",
        r.ack_frames,
        r.count,
        r.ack_frames as f64 / r.count as f64,
        r.delivery_bursts
    );
    println!("paper: FM 4.1 us / 21.4 MB/s / 54 B vs without flow control 3.8 / 21.9 / 53");
}
