//! Ablations over FM's design knobs — the sizing decisions Section 4
//! makes implicitly, swept explicitly on the simulated testbed:
//!
//! * **delivery aggregation** (`agg_max`) — Section 4.4's argument for a
//!   simple LANai receive queue is that packets can be "aggregated and
//!   transferred with a single DMA operation"; turning it off (agg 1)
//!   shows what that buys;
//! * **ack batching** (`ack_batch`) — Section 4.5's multiple-acks-per-
//!   packet optimization;
//! * **flow-control window** — the reject queue's capacity, trading
//!   pinned sender memory against stall probability;
//! * **LANai send-queue depth** — how much SRAM the host may fill ahead.
//!
//! All numbers are 128-byte packets (FM's frame size) unless stated.

use fm_metrics::{csv, Table};
use fm_testbed::{run_pingpong, run_stream, Layer, TestbedConfig};

const N: usize = 128;
const COUNT: usize = 20_000;

fn main() {
    println!("FM 1.0 design-knob ablations ({N} B packets, {COUNT}-packet streams)\n");
    let mut rows = Vec::new();

    // --- delivery aggregation ----------------------------------------------
    let mut t = Table::new(["agg_max", "bandwidth MB/s", "delivery DMAs", "latency us"])
        .with_title("Receive-side delivery aggregation (Section 4.4)");
    for agg in [1usize, 2, 4, 8, 16] {
        let cfg = TestbedConfig {
            agg_max: agg,
            ..TestbedConfig::default()
        };
        let s = run_stream(Layer::FullFm, &cfg, N, COUNT);
        let l = run_pingpong(Layer::FullFm, &cfg, N, 20);
        t.row([
            agg.to_string(),
            format!("{:.2}", s.mbs),
            s.delivery_bursts.to_string(),
            format!("{:.2}", l.as_us_f64()),
        ]);
        rows.push(vec![
            "agg_max".into(),
            agg.to_string(),
            format!("{:.3}", s.mbs),
        ]);
    }
    println!("{}", t.render());

    // --- ack batching --------------------------------------------------------
    let mut t = Table::new(["ack_batch", "bandwidth MB/s", "ack frames", "latency us"])
        .with_title("Acknowledgement batching (Section 4.5)");
    for batch in [1usize, 2, 4, 8] {
        let cfg = TestbedConfig {
            ack_batch: batch,
            window: (4 * batch).max(16),
            ..TestbedConfig::default()
        };
        let s = run_stream(Layer::FullFm, &cfg, N, COUNT);
        let l = run_pingpong(Layer::FullFm, &cfg, N, 20);
        t.row([
            batch.to_string(),
            format!("{:.2}", s.mbs),
            s.ack_frames.to_string(),
            format!("{:.2}", l.as_us_f64()),
        ]);
        rows.push(vec![
            "ack_batch".into(),
            batch.to_string(),
            format!("{:.3}", s.mbs),
        ]);
    }
    println!("{}", t.render());

    // --- flow-control window --------------------------------------------------
    let mut t = Table::new(["window", "bandwidth MB/s"])
        .with_title("Flow-control window = reject-queue capacity (Section 4.5)");
    for window in [8usize, 16, 32, 64] {
        let cfg = TestbedConfig {
            window,
            ..TestbedConfig::default()
        };
        let s = run_stream(Layer::FullFm, &cfg, N, COUNT);
        t.row([window.to_string(), format!("{:.2}", s.mbs)]);
        rows.push(vec![
            "window".into(),
            window.to_string(),
            format!("{:.3}", s.mbs),
        ]);
    }
    println!("{}", t.render());

    // --- LANai send-queue depth -------------------------------------------------
    let mut t = Table::new(["send_queue", "bandwidth MB/s", "latency us"])
        .with_title("LANai send-queue depth (host-side pipelining into SRAM)");
    for sq in [1usize, 2, 4, 8, 16] {
        let cfg = TestbedConfig {
            send_queue: sq,
            ..TestbedConfig::default()
        };
        let s = run_stream(Layer::FullFm, &cfg, N, COUNT);
        let l = run_pingpong(Layer::FullFm, &cfg, N, 20);
        t.row([
            sq.to_string(),
            format!("{:.2}", s.mbs),
            format!("{:.2}", l.as_us_f64()),
        ]);
        rows.push(vec![
            "send_queue".into(),
            sq.to_string(),
            format!("{:.3}", s.mbs),
        ]);
    }
    println!("{}", t.render());

    let _ = csv::write_file(
        format!("{}/ablation.csv", fm_bench::RESULTS_DIR),
        &["knob", "value", "bandwidth_mbs"],
        &rows,
    );
    println!("(written to {}/ablation.csv)", fm_bench::RESULTS_DIR);
    println!(
        "\nexpected shapes: aggregation and ack batching pay off quickly then flatten;\n\
         a window of 2 ack batches already suffices at this latency; the send queue\n\
         needs only a few slots to keep the LCP busy."
    );
}
