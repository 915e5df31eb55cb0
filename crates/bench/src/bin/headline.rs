//! The paper's headline numbers (abstract and Section 5), measured on the
//! simulated testbed and on the real threaded library.
//!
//! * 128-byte packets: 16.2 MB/s, one-way latency 32 µs (user to user);
//! * shorter packets: 25 µs one-way;
//! * 512-byte packets: 19.6 MB/s — "delivered bandwidth greater than OC-3"
//!   (19.4 MB/s);
//! * n_1/2 = 54 B at 10.7 MB/s.
//!
//! Our simulation reproduces the bandwidth story closely and the latency
//! story in shape (see EXPERIMENTS.md for the known gap between the
//! abstract's user-level latency and Table 4's layer costs).

use fm_testbed::{run_pingpong, run_stream, Layer, TestbedConfig};

fn main() {
    let cfg = TestbedConfig::default();
    let count = fm_bench::stream_count();

    println!("FM 1.0 headline numbers (simulated testbed, {count}-packet streams)\n");
    let rows: [(&str, usize); 3] = [
        ("4-word message", 16),
        ("128-byte packet", 128),
        ("512-byte packet", 512),
    ];
    for (what, n) in rows {
        let lat = run_pingpong(Layer::FullFm, &cfg, n, 50);
        let bw = run_stream(Layer::FullFm, &cfg, n, count);
        println!(
            "{what:<18} one-way latency {:>7.2} us   bandwidth {:>6.2} MB/s",
            lat.as_us_f64(),
            bw.mbs
        );
    }
    let oc3 = 19.4;
    let bw512 = run_stream(Layer::FullFm, &cfg, 512, count).mbs;
    println!(
        "\n512 B delivered bandwidth vs OC-3 ({oc3} MB/s): {}",
        if bw512 > oc3 {
            format!("{bw512:.1} MB/s -- greater, as the paper claims")
        } else {
            format!("{bw512:.1} MB/s -- below (calibration regression!)")
        }
    );
    let bw54 = run_stream(Layer::FullFm, &cfg, 54, count).mbs;
    println!("54 B (the paper's n1/2): {bw54:.1} MB/s (paper: 10.7 MB/s)");
    println!("\npaper: 25 us @ 4 words, 32 us & 16.2 MB/s @ 128 B, 19.6 MB/s @ 512 B");
}
