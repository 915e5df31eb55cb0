//! Where a streamed 128-byte message spends its time in the protocol
//! engine, leg by leg, what the whole `MemEndpoint` loop costs around it,
//! and how much of that the endpoints' telemetry is:
//!
//! ```text
//! cargo run --release -p fm-bench --example phase_probe
//! ```
//!
//! The legs drive two bare `EndpointCore`s through the by-value adapters
//! (`pop_outgoing` / `on_wire`), so `on_data` and `on_ack` include one
//! frame copy each that the ring runtime does not make; the `mem stream`
//! column is the real thing, `MemCluster` over its SPSC rings. The second
//! line prices the stream's telemetry in the same process: the trace and
//! histogram calls its two endpoints made per message, at the isolated ns
//! per call ([`fm_bench::telemetry_price`]). EXPERIMENTS.md records this
//! program's output across the changes that moved these numbers.

use bytes::Bytes;
use fm_bench::telemetry_price::TelemetryPrice;
use fm_core::{EndpointConfig, EndpointCore, HandlerId, MemCluster, NodeId};
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 30_000; // windows of 64 messages; the first tenth warms up
const H: HandlerId = HandlerId(1);

fn main() {
    let payload = [0x5Au8; 128];
    let window = EndpointConfig::default().window as f64;
    let mut a = EndpointCore::new(NodeId(0), EndpointConfig::default());
    let mut b = EndpointCore::new(NodeId(1), EndpointConfig::default());
    b.register_handler_at(
        H,
        Box::new(|_, _, data| {
            black_box(data.len());
        }),
    );
    let mut legs = [0.0f64; 4]; // send, on_data, extract, on_ack
    for round in 0..ROUNDS {
        let t0 = Instant::now();
        while a
            .try_send(NodeId(1), H, Bytes::copy_from_slice(&payload))
            .is_ok()
        {}
        let t1 = Instant::now();
        while let Some(frame) = a.pop_outgoing() {
            b.on_wire(frame);
        }
        let t2 = Instant::now();
        b.extract(usize::MAX);
        let t3 = Instant::now();
        while let Some(frame) = b.pop_outgoing() {
            a.on_wire(frame);
        }
        a.extract(usize::MAX);
        let t4 = Instant::now();
        if round >= ROUNDS / 10 {
            for (leg, (from, to)) in [(t0, t1), (t1, t2), (t2, t3), (t3, t4)].iter().enumerate() {
                legs[leg] += (*to - *from).as_nanos() as f64;
            }
        }
    }
    let per_msg = |ns: f64| ns / (ROUNDS - ROUNDS / 10) as f64 / window;

    let mut nodes = MemCluster::with_config(2, EndpointConfig::default());
    let (mut rx, mut tx) = (nodes.pop().unwrap(), nodes.pop().unwrap());
    rx.register_handler_at(H, |_, _, data| {
        black_box(data.len());
    });
    let (mut sent, mut started) = (0usize, Instant::now());
    let total = ROUNDS * window as usize;
    while sent < total {
        if sent < total / 10 {
            started = Instant::now(); // still warming up
        }
        while tx.try_send(NodeId(1), H, &payload).is_ok() {
            sent += 1;
        }
        rx.extract();
        tx.extract();
    }
    let stream = started.elapsed().as_nanos() as f64 / (total - total / 10) as f64;
    let tel = TelemetryPrice::of(&[tx.telemetry(), rx.telemetry()], total as u64);

    println!(
        "send {:5.1} | on_data {:5.1} | extract {:5.1} | on_ack {:5.1} | core sum {:5.1} | mem stream {:5.1}  (ns per 128-B message)",
        per_msg(legs[0]),
        per_msg(legs[1]),
        per_msg(legs[2]),
        per_msg(legs[3]),
        per_msg(legs.iter().sum()),
        stream,
    );
    println!(
        "telemetry: {:.3} trace x {:.2} ns + {:.3} record x {:.2} ns = {:.2} ns per message ({:.2}% of the stream)",
        tel.trace_calls,
        tel.trace_ns,
        tel.record_calls,
        tel.record_ns,
        tel.ns_per_msg(),
        100.0 * tel.ns_per_msg() / stream,
    );
}
