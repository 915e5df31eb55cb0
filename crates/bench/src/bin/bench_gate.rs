//! Perf-regression gate for the SPSC ring fabric (`fm-core::fabric`).
//!
//! Runs three workloads and writes `BENCH_fabric.json`:
//!
//! 1. **Raw wire throughput** — encoded 156-byte frames (CRC trailer
//!    included) pushed through the SPSC ring (encode-in-place + batched
//!    drain) and through a general-purpose channel (heap-boxed frame +
//!    queue node per send), in bursts of 64 pushed and then drained on one
//!    thread. The ratio is the gate's headline `speedup`. One thread keeps
//!    the scheduler and the allocator's cross-thread history out of the
//!    ratio: timed across two threads it read anywhere from 2× to 12× on
//!    one 2-vCPU host (EXPERIMENTS.md). This raw-wire probe is the only
//!    place the channel baseline still exists: no endpoint can be wired
//!    over it.
//! 2. **Full-stack ping-pong** — two `MemEndpoint`s, serial echo rounds on
//!    the ring fabric: msgs/sec plus p50/p99 per-frame latency (half the
//!    measured round trip).
//! 3. **Steady-state allocations** — the ring ping-pong runs under the
//!    counting allocator ([`fm_bench::alloc_track`]); after warmup the
//!    short-message path must allocate nothing at all.
//!
//! The **reliability layer** (CRC trailer, sequence windows,
//! retransmission timers) is priced by repeating the ping-pong with a
//! zero-rate [`fm_core::FaultConfig`] injector attached (the clean-path
//! worst case: every frame still traverses the injector); the overhead is
//! reported, not gated.
//!
//! The **telemetry layer** (per-endpoint histograms and event ring,
//! causal trace sampling at the default 1-in-64) is gated: the calls the
//! ring ping-pong made into its endpoints' telemetry handles, per message,
//! priced at the isolated cost of each call timed in this process
//! ([`fm_bench::telemetry_price`]), must stay under 10% of the ping-pong's
//! own ns per message.
//!
//! Every gate compares two numbers taken in this process, never a number
//! from a committed file. `--smoke` shrinks the workloads to CI size and
//! leaves the zero-allocation gate unenforced (a descheduled echo thread
//! can let one retransmission timer fire); the wire speedup and the
//! telemetry budget are enforced either way.

use fm_bench::alloc_track::CountingAlloc;
use fm_bench::pingpong::pingpong;
use fm_bench::report::{gate_section, Args, Gate, Report};
use fm_core::{spsc_ring, HandlerId, NodeId, WireFrame, FM_FRAME_MAX};
use fm_core::{EndpointConfig, FaultConfig};
use std::hint::black_box;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The ring must beat the general-purpose channel by at least this factor.
const MIN_WIRE_SPEEDUP: f64 = 3.0;

/// Maximum tolerated telemetry price on the clean ring ping-pong path, as
/// a share of its ns per message: observability must be near-free.
const MAX_TELEMETRY_OVERHEAD: f64 = 0.10;

fn encoded_template() -> ([u8; FM_FRAME_MAX], usize) {
    let frame = WireFrame::data(
        NodeId(0),
        NodeId(1),
        HandlerId(1),
        7,
        42,
        bytes::Bytes::copy_from_slice(&[0xA5u8; 128]),
    );
    let mut buf = [0u8; FM_FRAME_MAX];
    let n = frame.encode_into(&mut buf);
    (buf, n)
}

/// Frames per push-then-drain burst of the wire probes.
const BURST: u64 = 64;

/// Frames/sec through the raw SPSC ring.
fn wire_ring(frames: u64) -> f64 {
    let (mut p, mut c) = spsc_ring(512);
    let (template, len) = encoded_template();
    let mut sum: u64 = 0;
    let t0 = Instant::now();
    for _ in 0..frames / BURST {
        for _ in 0..BURST {
            let pushed = p.try_push_with(|slot| {
                slot[..len].copy_from_slice(&template[..len]);
                len
            });
            assert!(pushed, "a drained ring has room for a burst");
        }
        c.poll_batch(BURST as usize, |b| sum += b[0] as u64);
    }
    black_box(sum);
    frames as f64 / t0.elapsed().as_secs_f64()
}

/// Frames/sec through the channel baseline: one heap box plus one queue
/// node per frame.
fn wire_channel(frames: u64) -> f64 {
    let (tx, rx) = crossbeam::channel::unbounded::<Box<[u8]>>();
    let (template, len) = encoded_template();
    let mut sum: u64 = 0;
    let t0 = Instant::now();
    for _ in 0..frames / BURST {
        for _ in 0..BURST {
            let mut buf = vec![0u8; len];
            buf.copy_from_slice(&template[..len]);
            tx.send(buf.into_boxed_slice()).expect("receiver alive");
        }
        while let Ok(b) = rx.try_recv() {
            sum += b[0] as u64;
        }
    }
    black_box(sum);
    frames as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let args = Args::parse("BENCH_fabric.json", &[]);
    let smoke = args.smoke;
    let (wire_frames, warmup, rounds) = if smoke {
        (50_000, 500, 2_000)
    } else {
        (2_000_000, 20_000, 100_000)
    };

    eprintln!("bench_gate: raw wire throughput ({wire_frames} frames/fabric)...");
    let ring_wire = wire_ring(wire_frames);
    let chan_wire = wire_channel(wire_frames);
    let wire_speedup = ring_wire / chan_wire;

    eprintln!("bench_gate: full-stack ping-pong ({rounds} rounds)...");
    let ring_pp = pingpong(None, warmup, rounds);

    eprintln!("bench_gate: reliability clean path (zero-rate injector, {rounds} rounds)...");
    let clean_faulty_pp = pingpong(Some(FaultConfig::new(0x000C_1EA4)), warmup, rounds);

    let allocs_per_1m = ring_pp.steady.allocs as f64 * 1e6 / ring_pp.frames as f64;
    let bytes_per_1m = ring_pp.steady.bytes as f64 * 1e6 / ring_pp.frames as f64;
    // Injector overhead on the full stack (zero-rate injector vs none).
    let injector_overhead =
        (ring_pp.msgs_per_sec - clean_faulty_pp.msgs_per_sec) / ring_pp.msgs_per_sec;

    // Telemetry price: the ping-pong's own telemetry calls per message at
    // the isolated ns per call, against its ns per message.
    let tel = ring_pp.telemetry;
    let pp_ns_per_msg = 1e9 / ring_pp.msgs_per_sec;
    let telemetry_overhead = tel.ns_per_msg() / pp_ns_per_msg;

    println!("wire:      ring {ring_wire:.3e} msg/s  channel {chan_wire:.3e} msg/s  speedup {wire_speedup:.2}x");
    println!(
        "pingpong:  ring {:.3e} msg/s (p50 {} ns, p99 {} ns); zero-rate injector {:.3e} msg/s ({:+.1}%)",
        ring_pp.msgs_per_sec,
        ring_pp.p50_ns,
        ring_pp.p99_ns,
        clean_faulty_pp.msgs_per_sec,
        -injector_overhead * 100.0,
    );
    println!(
        "steady:    {} allocs / {} bytes over {} frames",
        ring_pp.steady.allocs, ring_pp.steady.bytes, ring_pp.frames
    );
    println!(
        "telemetry: {:.3} trace x {:.2} ns + {:.3} record x {:.2} ns = {:.2} ns per message \
         ({:.2}% of {pp_ns_per_msg:.0} ns)",
        tel.trace_calls,
        tel.trace_ns,
        tel.record_calls,
        tel.record_ns,
        tel.ns_per_msg(),
        telemetry_overhead * 100.0,
    );

    let gates = [
        Gate::at_least("wire_speedup_ok", wire_speedup, MIN_WIRE_SPEEDUP),
        Gate::at_most("zero_alloc_ok", ring_pp.steady.allocs as f64, 0.0).enforced_if(!smoke),
        Gate::below(
            "telemetry_overhead_ok",
            telemetry_overhead,
            MAX_TELEMETRY_OVERHEAD,
        ),
    ];
    let frame_stats = |pp: &fm_bench::pingpong::PingPong| {
        Report::new()
            .num("msgs_per_sec", pp.msgs_per_sec, 0)
            .set("p50_frame_ns", pp.p50_ns)
            .set("p99_frame_ns", pp.p99_ns)
    };
    Report::new()
        .set("bench", "fabric_gate")
        .set("smoke", smoke)
        .set(
            "wire",
            Report::new()
                .set("frames", wire_frames)
                .num("ring_msgs_per_sec", ring_wire, 0)
                .num("channel_msgs_per_sec", chan_wire, 0)
                .num("speedup", wire_speedup, 2),
        )
        .set(
            "pingpong",
            Report::new()
                .set("rounds", rounds)
                .set("ring", frame_stats(&ring_pp)),
        )
        .set(
            "steady_state",
            Report::new()
                .set("frames", ring_pp.frames)
                .set("allocs", ring_pp.steady.allocs)
                .set("bytes", ring_pp.steady.bytes)
                .num("allocs_per_1m_frames", allocs_per_1m, 1)
                .num("bytes_per_1m_frames", bytes_per_1m, 1),
        )
        .set(
            "reliability",
            Report::new()
                .set("clean_injector", frame_stats(&clean_faulty_pp))
                .num("injector_overhead_pct", injector_overhead * 100.0, 1),
        )
        .set(
            "telemetry",
            Report::new()
                .set("trace_one_in", EndpointConfig::default().trace_one_in)
                .num("trace_calls_per_msg", tel.trace_calls, 4)
                .num("record_calls_per_msg", tel.record_calls, 4)
                .num("trace_ns_per_call", tel.trace_ns, 2)
                .num("record_ns_per_call", tel.record_ns, 2)
                .num("price_ns_per_msg", tel.ns_per_msg(), 2)
                .num("pingpong_ns_per_msg", pp_ns_per_msg, 1)
                .num("overhead_pct", telemetry_overhead * 100.0, 2)
                .num("max_overhead_pct", MAX_TELEMETRY_OVERHEAD * 100.0, 1)
                .set("overhead_ok", gates[2].pass),
        )
        .set(
            "gate",
            gate_section(&gates)
                .num("min_wire_speedup", MIN_WIRE_SPEEDUP, 1)
                .set("enforced", !smoke),
        )
        .finish(&args.out, &gates)
}
