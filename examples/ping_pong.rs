//! Ping-pong on the *real* library, measured the way the paper measures it
//! (Section 4.1): bounce a message back and forth, divide total time by the
//! number of one-way trips.
//!
//! ```sh
//! cargo run --release --example ping_pong
//! ```
//!
//! Two measurements:
//!
//! 1. **software path** — both endpoints driven from one thread, so the
//!    number is the pure per-message cost of this implementation (send +
//!    codec + wire channel + extract + handler + ack), the moral
//!    equivalent of the paper's t0;
//! 2. **two threads** — a real concurrent run; on machines with few cores
//!    this mostly measures the OS scheduler, which is exactly the kind of
//!    overhead 1995 user-level messaging was designed to avoid.
//!
//! The reproduction of the paper's 1995 hardware numbers lives in the
//! simulated testbed (`cargo run -p fm-bench --bin repro -- fig8`).

use fm_repro::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    software_path();
    two_threads();
    println!("\n(the paper's SPARCstation testbed: 25 us @ 16 B, 32 us @ 128 B one-way)");
}

/// Single-threaded: the per-message software cost without scheduler noise.
fn software_path() {
    const ROUNDS: u64 = 20_000;
    println!("software path (single thread, {ROUNDS} round trips):");
    for &size in &[16usize, 64, 128] {
        let mut nodes = MemCluster::new(2);
        let mut b = nodes.pop().expect("node 1");
        let mut a = nodes.pop().expect("node 0");
        let echo = b.register_handler(|outbox, src, data| {
            outbox.send(src, HandlerId(1), data.to_vec());
        });
        let got = Arc::new(AtomicU64::new(0));
        let g = got.clone();
        let pong = a.register_handler(move |_, _, _| {
            g.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(pong, HandlerId(1));

        let payload = vec![0x5Au8; size];
        let start = Instant::now();
        for i in 0..ROUNDS {
            a.send(NodeId(1), echo, &payload);
            while b.extract() == 0 {}
            while got.load(Ordering::Relaxed) <= i {
                a.extract();
            }
        }
        let elapsed = start.elapsed();
        println!(
            "  {size:>4} B payload: {:>8.0} ns one-way",
            elapsed.as_nanos() as f64 / (2 * ROUNDS) as f64
        );
    }
}

/// Two OS threads: a genuinely concurrent exchange.
fn two_threads() {
    const ROUNDS: u64 = 300;
    let mut nodes = MemCluster::new(2);
    let mut b = nodes.pop().expect("node 1");
    let mut a = nodes.pop().expect("node 0");
    let echo = b.register_handler(|outbox, src, data| {
        outbox.send(src, HandlerId(1), data.to_vec());
    });
    let got = Arc::new(AtomicU64::new(0));
    let g = got.clone();
    let pong = a.register_handler(move |_, _, _| {
        g.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(pong, HandlerId(1));

    let stop = Arc::new(AtomicU64::new(0));
    let s2 = stop.clone();
    let tb = std::thread::spawn(move || {
        while s2.load(Ordering::Relaxed) == 0 {
            b.extract();
            std::thread::yield_now();
        }
    });

    let start = Instant::now();
    for i in 0..ROUNDS {
        a.send(NodeId(1), echo, &[1u8; 64]);
        while got.load(Ordering::Relaxed) <= i {
            a.extract();
            std::thread::yield_now();
        }
    }
    let elapsed = start.elapsed();
    stop.store(1, Ordering::Relaxed);
    tb.join().expect("echo thread");
    println!(
        "\ntwo threads ({} cores visible): {:>8.0} ns one-way over {ROUNDS} round trips",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        elapsed.as_nanos() as f64 / (2 * ROUNDS) as f64
    );
}
