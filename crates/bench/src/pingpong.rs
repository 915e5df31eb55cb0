//! The full-stack ping-pong harness behind `bench_gate`.
//!
//! Two `MemEndpoint`s run serial echo rounds over the ring fabric; the
//! harness reports throughput, per-frame latency percentiles, the
//! allocation delta across the measured section and what the endpoints'
//! telemetry cost per message ([`TelemetryPrice`]). Round-trip times are
//! recorded into an [`fm_telemetry::Histogram`] (log2-linear buckets,
//! ≤1/32 relative quantization error) — the same extractor the testbed's
//! loss sweep uses, replacing the sorted-`Vec` percentile code both used
//! to duplicate.
//!
//! Allocation counts are only meaningful when the calling binary installs
//! [`crate::alloc_track::CountingAlloc`] as its global allocator
//! (`bench_gate` does; anything else reads zeros).

use crate::alloc_track::{allocations, AllocSnapshot};
use crate::telemetry_price::TelemetryPrice;
use fm_core::mem::{FabricKind, MemCluster};
use fm_core::{EndpointConfig, FaultConfig, HandlerId, NodeId};
use fm_telemetry::Histogram;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Results of one [`pingpong`] run.
pub struct PingPong {
    pub msgs_per_sec: f64,
    /// Per-frame latency (half the round trip), nearest-rank from the
    /// histogram.
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub steady: AllocSnapshot,
    pub frames: u64,
    /// Both endpoints' telemetry calls over the whole run, warmup
    /// included, priced per message.
    pub telemetry: TelemetryPrice,
}

/// Serial echo rounds over the full protocol stack (window, acks, codec)
/// with the default `EndpointConfig`.
pub fn pingpong(faults: Option<FaultConfig>, warmup: u64, rounds: u64) -> PingPong {
    let config = EndpointConfig::default();
    let mut nodes = match faults {
        // Zero-rate injector: every frame still pays the injector's
        // per-frame decision rolls — the clean-path worst case.
        Some(f) => MemCluster::with_faulty_fabric(2, config, FabricKind::Ring, f),
        None => MemCluster::with_config(2, config),
    };
    let mut b = nodes.pop().expect("node 1");
    let mut a = nodes.pop().expect("node 0");
    let hb = b.register_handler(|out, src, data| out.send_copy(src, HandlerId(1), data));
    let echoes = Arc::new(AtomicU64::new(0));
    let e2 = echoes.clone();
    let ha = a.register_handler(move |_, _, _| {
        e2.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(ha, HandlerId(1), "echo handler id is fixed by construction");

    let stop = Arc::new(AtomicBool::new(false));
    let s2 = stop.clone();
    let tb = std::thread::spawn(move || {
        while !s2.load(Ordering::Relaxed) {
            b.extract();
            std::thread::yield_now();
        }
        b
    });

    let payload = [0x5Au8; 16];
    let mut done: u64 = 0;
    let round = |a: &mut fm_core::MemEndpoint, done: &mut u64| {
        a.send(NodeId(1), hb, &payload);
        *done += 1;
        while echoes.load(Ordering::Relaxed) < *done {
            a.extract();
            std::thread::yield_now();
        }
    };
    for _ in 0..warmup {
        round(&mut a, &mut done);
    }
    let rtts = Histogram::new();
    let before = allocations();
    let t0 = Instant::now();
    for _ in 0..rounds {
        let t = Instant::now();
        round(&mut a, &mut done);
        rtts.record(t.elapsed().as_nanos() as u64);
    }
    let elapsed = t0.elapsed();
    let steady = allocations().since(before);
    stop.store(true, Ordering::Relaxed);
    let b = tb.join().expect("echo thread");
    let telemetry = TelemetryPrice::of(&[a.telemetry(), b.telemetry()], 2 * (warmup + rounds));
    PingPong {
        // Each round moves two data frames (ping + echo).
        msgs_per_sec: 2.0 * rounds as f64 / elapsed.as_secs_f64(),
        p50_ns: rtts.quantile(0.50) / 2,
        p99_ns: rtts.quantile(0.99) / 2,
        steady,
        frames: 2 * rounds,
        telemetry,
    }
}
