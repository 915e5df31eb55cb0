//! Telemetry overhead probe: runs the shared ring ping-pong
//! ([`fm_bench::pingpong`]) and writes a small JSON result.
//!
//! `scripts/bench_gate` builds and runs this binary twice — once normally
//! and once with `--features telemetry-off` (into a separate target dir)
//! — then hands both result files to `bench_gate --telemetry-on/--off`,
//! which computes the instrumentation overhead and holds it to the <10%
//! clean-path budget. The two runs execute the *identical* workload; the
//! only difference is whether the endpoint's counters, histograms and
//! event ring compile to real atomics or to no-ops.
//!
//! No counting allocator is installed here (the steady-state allocation
//! gate belongs to `bench_gate`), so the probe's alloc counters read
//! zero; only throughput and latency matter.

use fm_bench::pingpong::pingpong;
use fm_core::EndpointConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = "BENCH_telemetry_probe.json".to_string();
    // Causal-trace sample rate under test: 1-in-N sends carry a trace
    // context and record span events. The default matches the production
    // default in `EndpointConfig`; 0 disables tracing entirely.
    let mut trace_one_in: u32 = EndpointConfig::default().trace_one_in;
    // Out-of-band beacon pacing under test (micros); 0 leaves beacons off.
    let mut beacon_us: u64 = 0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                }
            },
            "--trace-one-in" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => trace_one_in = n,
                None => {
                    eprintln!("error: --trace-one-in requires an integer");
                    std::process::exit(2);
                }
            },
            "--beacon-us" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => beacon_us = n,
                None => {
                    eprintln!("error: --beacon-us requires an integer");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!(
                    "usage: telemetry_probe [--smoke] [--out PATH] [--trace-one-in N] \
                     [--beacon-us N]"
                );
                std::process::exit(2);
            }
        }
    }

    // Same ring ping-pong sizes as bench_gate's pingpong section. The
    // serial spin-loop workload is very sensitive to scheduling (worst on
    // single-core runners, where the two endpoints timeshare a CPU), so
    // the probe repeats the whole measurement and keeps the best run —
    // the standard way to strip scheduler noise from an A/B comparison.
    const REPS: usize = 3;
    let (warmup, rounds) = if smoke {
        (500, 2_000)
    } else {
        (20_000, 100_000)
    };
    let enabled = fm_telemetry::ENABLED;
    eprintln!(
        "telemetry_probe: ring ping-pong, telemetry {}, trace 1-in-{trace_one_in}, \
         beacons {} ({REPS} x {rounds} rounds)...",
        if enabled { "on" } else { "off" },
        if beacon_us > 0 {
            format!("every {beacon_us} us")
        } else {
            "off".to_string()
        },
    );
    let config = EndpointConfig {
        trace_one_in,
        ..Default::default()
    };
    let pp = (0..REPS)
        .map(|_| {
            let beacon = (beacon_us > 0).then_some(beacon_us);
            pingpong(None, config, warmup, rounds, beacon)
        })
        .max_by(|a, b| a.msgs_per_sec.total_cmp(&b.msgs_per_sec))
        .expect("REPS >= 1");

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"telemetry_probe\",\n",
            "  \"telemetry_enabled\": {enabled},\n",
            "  \"smoke\": {smoke},\n",
            "  \"rounds\": {rounds},\n",
            "  \"trace_one_in\": {rate},\n",
            "  \"beacon_us\": {beacon},\n",
            "  \"msgs_per_sec\": {mps:.0},\n",
            "  \"p50_frame_ns\": {p50},\n",
            "  \"p99_frame_ns\": {p99}\n",
            "}}\n",
        ),
        enabled = enabled,
        smoke = smoke,
        rounds = rounds,
        rate = trace_one_in,
        beacon = beacon_us,
        mps = pp.msgs_per_sec,
        p50 = pp.p50_ns,
        p99 = pp.p99_ns,
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!(
        "telemetry {}: {:.3e} msg/s (p50 {} ns, p99 {} ns) -> {out_path}",
        if enabled { "on" } else { "off" },
        pp.msgs_per_sec,
        pp.p50_ns,
        pp.p99_ns
    );
}
