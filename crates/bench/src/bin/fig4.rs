//! Figure 4: minimal host-to-host performance — SBus management
//! alternatives (*hybrid* PIO-out/DMA-in vs *all-DMA*) layered on the
//! streamed LCP.
//!
//! Paper shapes: extending to the hosts costs dearly in both metrics;
//! hybrid has the lower latency (no staging copy, one fewer
//! synchronization) while all-DMA has the higher peak bandwidth
//! (33 vs 21.2 MB/s) — the short/long message tradeoff FM resolves in
//! favor of short messages.

use fm_bench::{measure_layer, render_figure, stream_count, FIGURE_SIZES};
use fm_testbed::Layer;

fn main() {
    let count = stream_count();
    println!("Figure 4: minimal host-to-host, {count} packets per bandwidth point\n");

    let hybrid = measure_layer(Layer::Hybrid, count);
    let alldma = measure_layer(Layer::AllDma, count);
    // The LANai-only streamed curve is the floor the host layers degrade from.
    let floor = measure_layer(Layer::LanaiStreamed, count);

    println!(
        "{}",
        render_figure("Figure 4", &[hybrid.clone(), alldma.clone(), floor.clone()])
    );

    for c in [&hybrid, &alldma, &floor] {
        let m = fm_bench::layer_metrics(c);
        println!(
            "{:<28} t0 = {:>5.2} us   r_inf = {:>5.1} MB/s   n1/2 = {:>5.0} B",
            c.name, m.t0_us, m.r_inf_mbs, m.n_half_bytes
        );
    }

    // The crossover the paper's Section 4.3 discusses.
    let cross = FIGURE_SIZES.iter().find(|&&n| {
        let h = hybrid.bandwidth_mbs.iter().find(|p| p.0 == n).map(|p| p.1);
        let d = alldma.bandwidth_mbs.iter().find(|p| p.0 == n).map(|p| p.1);
        matches!((h, d), (Some(h), Some(d)) if d > h)
    });
    match cross {
        Some(n) => println!("\nall-DMA overtakes hybrid bandwidth at ~{n} B"),
        None => println!("\nno bandwidth crossover within 600 B (unexpected)"),
    }
    println!(
        "paper: hybrid t0 3.5 us / r_inf 21.2 / n1/2 44; all-DMA t0 7.5 us / r_inf 33.0 / n1/2 162"
    );
}
