//! Perf-regression gate for the SPSC ring fabric (`fm-core::fabric`).
//!
//! Runs three workloads and writes `BENCH_fabric.json`:
//!
//! 1. **Raw wire throughput** — encoded 156-byte frames (CRC trailer
//!    included) pushed from one
//!    thread to another over the SPSC ring (encode-in-place + batched
//!    drain) and over a general-purpose channel (heap-boxed frame + queue
//!    node per send). The ratio is the gate's headline `speedup`. This
//!    raw-wire probe is the only place the channel baseline still exists:
//!    no endpoint can be wired over it.
//! 2. **Full-stack ping-pong** — two `MemEndpoint`s, serial echo rounds on
//!    the ring fabric: msgs/sec plus p50/p99 per-frame latency (half the
//!    measured round trip).
//! 3. **Steady-state allocations** — the ring ping-pong runs under the
//!    counting allocator ([`fm_bench::alloc_track`]); after warmup the
//!    short-message path must allocate nothing at all.
//!
//! A fourth section guards the **reliability layer** (CRC trailer,
//! sequence windows, retransmission timers — always on since the
//! fault-injection PR): the full-stack ping-pong is repeated with a
//! zero-rate [`fm_core::FaultConfig`] injector attached (the clean-path
//! worst case: every frame still traverses the injector), and, when
//! `--baseline PATH` points at a previous `BENCH_fabric.json`, current
//! wire throughput is compared against it — the reliability layer must
//! cost <10% on a clean network.
//!
//! A fifth section guards the **telemetry layer** (per-endpoint
//! histograms and event ring, causal trace sampling at the default
//! 1-in-64): the calls the ring ping-pong made into its endpoints'
//! telemetry handles, per message, priced at the isolated cost of each
//! call timed in this process ([`fm_bench::telemetry_price`]), must stay
//! under 10% of the ping-pong's own ns per message.
//!
//! `--smoke` shrinks the workloads to CI size and skips enforcement of the
//! machine-dependent gates (the JSON is still written, with
//! `"enforced": false`); the telemetry budget, a ratio of two numbers
//! taken in the same process, is enforced either way. Without `--smoke`
//! the process exits nonzero when any gate fails. `--out PATH` overrides
//! the output path.

use fm_bench::alloc_track::CountingAlloc;
use fm_bench::pingpong::pingpong;
use fm_core::{spsc_ring, HandlerId, NodeId, WireFrame, FM_FRAME_MAX};
use fm_core::{EndpointConfig, FaultConfig};
use std::hint::black_box;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Gate thresholds (see ISSUE/ROADMAP: ring must beat the general-purpose
/// channel by at least this factor, and steady state must not allocate).
const MIN_WIRE_SPEEDUP: f64 = 3.0;

/// Maximum tolerated clean-path wire-throughput regression vs the
/// `--baseline` file (the reliability layer must be near-free when the
/// network is clean).
const MAX_WIRE_REGRESSION: f64 = 0.10;

/// Maximum tolerated telemetry price on the clean ring ping-pong path, as
/// a share of its ns per message. Same budget as the reliability layer:
/// observability must be near-free.
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

/// Frames/sec moving `frames` encoded frames producer-thread ->
/// consumer-thread over the raw SPSC ring.
fn wire_ring(frames: u64) -> f64 {
    let (mut p, mut c) = spsc_ring(512);
    let (template, len) = encoded_template();
    let consumer = std::thread::spawn(move || {
        let mut seen: u64 = 0;
        let mut sum: u64 = 0;
        while seen < frames {
            seen += c.poll_batch(64, |b| sum += b[0] as u64) as u64;
            std::thread::yield_now();
        }
        black_box(sum);
    });
    let t0 = Instant::now();
    let mut sent: u64 = 0;
    while sent < frames {
        if p.try_push_with(|slot| {
            slot[..len].copy_from_slice(&template[..len]);
            len
        }) {
            sent += 1;
        } else {
            std::thread::yield_now();
        }
    }
    consumer.join().expect("wire consumer");
    frames as f64 / t0.elapsed().as_secs_f64()
}

/// Frames/sec over the channel baseline: one heap box plus one queue
/// crossing per frame.
fn wire_channel(frames: u64) -> f64 {
    let (tx, rx) = crossbeam::channel::unbounded::<Box<[u8]>>();
    let consumer = std::thread::spawn(move || {
        let mut seen: u64 = 0;
        let mut sum: u64 = 0;
        while seen < frames {
            if let Ok(b) = rx.try_recv() {
                sum += b[0] as u64;
                seen += 1;
            } else {
                std::thread::yield_now();
            }
        }
        black_box(sum);
    });
    let (template, len) = encoded_template();
    let t0 = Instant::now();
    for _ in 0..frames {
        let mut buf = vec![0u8; len];
        buf.copy_from_slice(&template[..len]);
        tx.send(buf.into_boxed_slice()).expect("consumer alive");
    }
    consumer.join().expect("wire consumer");
    frames as f64 / t0.elapsed().as_secs_f64()
}

/// Pull the number after `key` out of a JSON file without a JSON
/// dependency; the first occurrence wins, so the emit order below matters
/// for `BENCH_fabric.json` (the wire section's `ring_msgs_per_sec` comes
/// first).
fn json_number(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let key = format!("\"{key}\":");
    let rest = text[text.find(&key)? + key.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A JSON number with `digits` decimals, or `null`.
fn or_null(v: Option<f64>, digits: usize) -> String {
    v.map_or("null".to_string(), |v| format!("{v:.digits$}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = "BENCH_fabric.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let target = match a.as_str() {
            "--smoke" => {
                smoke = true;
                continue;
            }
            "--out" => &mut out_path,
            "--baseline" => baseline_path.insert(String::new()),
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: bench_gate [--smoke] [--out PATH] [--baseline PATH]");
                std::process::exit(2);
            }
        };
        match it.next() {
            Some(p) => target.clone_from(p),
            None => {
                eprintln!("error: {a} requires a path");
                std::process::exit(2);
            }
        }
    }

    let (wire_frames, warmup, rounds) = if smoke {
        (50_000, 500, 2_000)
    } else {
        (2_000_000, 20_000, 100_000)
    };

    eprintln!("bench_gate: raw wire throughput ({wire_frames} frames/fabric)...");
    let ring_wire = wire_ring(wire_frames);
    let chan_wire = wire_channel(wire_frames);
    let wire_speedup = ring_wire / chan_wire;

    // Read the baseline *before* any chance of overwriting it via --out.
    let baseline_wire = baseline_path
        .as_deref()
        .and_then(|p| json_number(p, "ring_msgs_per_sec"));
    if let Some(p) = &baseline_path {
        if baseline_wire.is_none() {
            eprintln!("bench_gate: warning: no wire baseline readable from {p}");
        }
    }

    eprintln!("bench_gate: full-stack ping-pong ({rounds} rounds)...");
    let ring_pp = pingpong(None, warmup, rounds);

    eprintln!("bench_gate: reliability clean path (zero-rate injector, {rounds} rounds)...");
    let clean_faulty_pp = pingpong(Some(FaultConfig::new(0x000C_1EA4)), warmup, rounds);

    let allocs_per_1m = ring_pp.steady.allocs as f64 * 1e6 / ring_pp.frames as f64;
    let bytes_per_1m = ring_pp.steady.bytes as f64 * 1e6 / ring_pp.frames as f64;

    let speedup_ok = wire_speedup >= MIN_WIRE_SPEEDUP;
    let zero_alloc_ok = ring_pp.steady.allocs == 0;

    // Clean-path regression vs the recorded baseline: positive = slower
    // than the baseline, negative = faster.
    let wire_regression = baseline_wire.map(|b| (b - ring_wire) / b);
    let regression_ok = wire_regression.is_none_or(|r| r < MAX_WIRE_REGRESSION);
    // Injector overhead on the full stack (zero-rate injector vs none).
    let injector_overhead =
        (ring_pp.msgs_per_sec - clean_faulty_pp.msgs_per_sec) / ring_pp.msgs_per_sec;

    // Telemetry price: the ping-pong's own telemetry calls per message at
    // the isolated ns per call, against its ns per message.
    let tel = ring_pp.telemetry;
    let pp_ns_per_msg = 1e9 / ring_pp.msgs_per_sec;
    let telemetry_overhead = tel.ns_per_msg() / pp_ns_per_msg;
    let telemetry_ok = telemetry_overhead < MAX_TELEMETRY_OVERHEAD;

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"fabric_gate\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"wire\": {{\n",
            "    \"frames\": {wire_frames},\n",
            "    \"ring_msgs_per_sec\": {ring_wire:.0},\n",
            "    \"channel_msgs_per_sec\": {chan_wire:.0},\n",
            "    \"speedup\": {wire_speedup:.2}\n",
            "  }},\n",
            "  \"pingpong\": {{\n",
            "    \"rounds\": {rounds},\n",
            "    \"ring\": {{ \"msgs_per_sec\": {rpp:.0}, \"p50_frame_ns\": {rp50}, \"p99_frame_ns\": {rp99} }}\n",
            "  }},\n",
            "  \"steady_state\": {{\n",
            "    \"frames\": {ssf},\n",
            "    \"allocs\": {ssa},\n",
            "    \"bytes\": {ssb},\n",
            "    \"allocs_per_1m_frames\": {a1m:.1},\n",
            "    \"bytes_per_1m_frames\": {b1m:.1}\n",
            "  }},\n",
            "  \"reliability\": {{\n",
            "    \"baseline_path\": {bl_path},\n",
            "    \"baseline_wire_msgs_per_sec\": {bl_wire},\n",
            "    \"wire_regression_pct\": {regr_pct},\n",
            "    \"clean_injector\": {{ \"msgs_per_sec\": {cfpp:.0}, \"p50_frame_ns\": {cfp50}, \"p99_frame_ns\": {cfp99} }},\n",
            "    \"injector_overhead_pct\": {inj_pct:.1}\n",
            "  }},\n",
            "  \"telemetry\": {{\n",
            "    \"trace_one_in\": {tel_rate},\n",
            "    \"trace_calls_per_msg\": {tel_traces:.4},\n",
            "    \"record_calls_per_msg\": {tel_records:.4},\n",
            "    \"trace_ns_per_call\": {tel_trace_ns:.2},\n",
            "    \"record_ns_per_call\": {tel_record_ns:.2},\n",
            "    \"price_ns_per_msg\": {tel_price:.2},\n",
            "    \"pingpong_ns_per_msg\": {pp_ns:.1},\n",
            "    \"overhead_pct\": {tel_pct:.2},\n",
            "    \"max_overhead_pct\": {tel_max:.1},\n",
            "    \"overhead_ok\": {telemetry_ok}\n",
            "  }},\n",
            "  \"gate\": {{\n",
            "    \"min_wire_speedup\": {min_speedup:.1},\n",
            "    \"wire_speedup_ok\": {speedup_ok},\n",
            "    \"zero_alloc_ok\": {zero_alloc_ok},\n",
            "    \"max_wire_regression_pct\": {max_regr_pct:.1},\n",
            "    \"wire_regression_ok\": {regression_ok},\n",
            "    \"telemetry_overhead_ok\": {telemetry_ok},\n",
            "    \"enforced\": {enforced}\n",
            "  }}\n",
            "}}\n",
        ),
        smoke = smoke,
        wire_frames = wire_frames,
        ring_wire = ring_wire,
        chan_wire = chan_wire,
        wire_speedup = wire_speedup,
        rounds = rounds,
        rpp = ring_pp.msgs_per_sec,
        rp50 = ring_pp.p50_ns,
        rp99 = ring_pp.p99_ns,
        ssf = ring_pp.frames,
        ssa = ring_pp.steady.allocs,
        ssb = ring_pp.steady.bytes,
        a1m = allocs_per_1m,
        b1m = bytes_per_1m,
        bl_path = match &baseline_path {
            Some(p) => format!("\"{p}\""),
            None => "null".to_string(),
        },
        bl_wire = or_null(baseline_wire, 0),
        regr_pct = or_null(wire_regression.map(|r| r * 100.0), 1),
        cfpp = clean_faulty_pp.msgs_per_sec,
        cfp50 = clean_faulty_pp.p50_ns,
        cfp99 = clean_faulty_pp.p99_ns,
        inj_pct = injector_overhead * 100.0,
        tel_rate = EndpointConfig::default().trace_one_in,
        tel_traces = tel.trace_calls,
        tel_records = tel.record_calls,
        tel_trace_ns = tel.trace_ns,
        tel_record_ns = tel.record_ns,
        tel_price = tel.ns_per_msg(),
        pp_ns = pp_ns_per_msg,
        tel_pct = telemetry_overhead * 100.0,
        tel_max = MAX_TELEMETRY_OVERHEAD * 100.0,
        telemetry_ok = telemetry_ok,
        min_speedup = MIN_WIRE_SPEEDUP,
        speedup_ok = speedup_ok,
        zero_alloc_ok = zero_alloc_ok,
        max_regr_pct = MAX_WIRE_REGRESSION * 100.0,
        regression_ok = regression_ok,
        enforced = !smoke,
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));

    println!("wire:      ring {ring_wire:.3e} msg/s  channel {chan_wire:.3e} msg/s  speedup {wire_speedup:.2}x");
    println!(
        "pingpong:  ring {:.3e} msg/s (p50 {} ns, p99 {} ns)",
        ring_pp.msgs_per_sec, ring_pp.p50_ns, ring_pp.p99_ns
    );
    println!(
        "steady:    {} allocs / {} bytes over {} frames ({allocs_per_1m:.1} allocs per 1M frames)",
        ring_pp.steady.allocs, ring_pp.steady.bytes, ring_pp.frames
    );
    match (baseline_wire, wire_regression) {
        (Some(b), Some(r)) => println!(
            "reliability: wire {ring_wire:.3e} vs baseline {b:.3e} msg/s ({:+.1}% {})  \
             zero-rate injector pingpong {:.3e} msg/s ({:+.1}% vs plain ring)",
            -r * 100.0,
            if r >= 0.0 { "slower" } else { "faster" },
            clean_faulty_pp.msgs_per_sec,
            -injector_overhead * 100.0,
        ),
        _ => println!(
            "reliability: no baseline — zero-rate injector pingpong {:.3e} msg/s ({:+.1}% vs plain ring)",
            clean_faulty_pp.msgs_per_sec,
            -injector_overhead * 100.0,
        ),
    }
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
    println!("wrote {out_path}");

    if !telemetry_ok {
        eprintln!(
            "GATE FAIL: telemetry costs {:.1}% of a clean ring ping-pong message (max {:.0}%)",
            telemetry_overhead * 100.0,
            MAX_TELEMETRY_OVERHEAD * 100.0
        );
        std::process::exit(1);
    }
    if !smoke {
        let mut failed = false;
        if !speedup_ok {
            eprintln!("GATE FAIL: wire speedup {wire_speedup:.2}x < {MIN_WIRE_SPEEDUP:.1}x");
            failed = true;
        }
        if !zero_alloc_ok {
            eprintln!(
                "GATE FAIL: {} steady-state allocations on the ring short-message path (want 0)",
                ring_pp.steady.allocs
            );
            failed = true;
        }
        if let Some(r) = wire_regression {
            if !regression_ok {
                eprintln!(
                    "GATE FAIL: clean-path wire throughput regressed {:.1}% vs baseline (max {:.0}%)",
                    r * 100.0,
                    MAX_WIRE_REGRESSION * 100.0
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "gate: PASS (speedup >= {MIN_WIRE_SPEEDUP:.1}x, zero steady-state allocations, \
             clean-path regression < {:.0}%, telemetry overhead < {:.0}%)",
            MAX_WIRE_REGRESSION * 100.0,
            MAX_TELEMETRY_OVERHEAD * 100.0
        );
    } else {
        println!("gate: smoke mode — telemetry budget enforced, other thresholds reported only");
    }
}
