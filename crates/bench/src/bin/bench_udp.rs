//! Multi-process loopback benchmark for the UDP fabric, written to
//! `BENCH_udp.json`.
//!
//! This is the acceptance harness for the real-network transport: the
//! endpoints live in *separate OS processes* ([`fm_bench::udp_pair`]),
//! exchange CRC-framed wire traffic over kernel UDP sockets on loopback,
//! and the parent assembles three measurements:
//!
//! * **soak** — both children stream sequenced messages at each other at
//!   5% injected drop/dup/corrupt/delay per category (the seeded
//!   [`fm_core::FaultInjector`] composed over the socket — loopback alone
//!   is too reliable to test recovery); each child asserts exactly-once
//!   in-order delivery and a nonzero child exit fails the whole bench;
//! * **pingpong** — clean-path round trips on the wall clock: p50/p99
//!   round-trip microseconds and two-way goodput;
//! * **dead peer** — a roster entry pointing at a dead port; measures how
//!   long the retry budget takes to declare the peer dead.
//!
//! Gates (every mode): both streams delivered in full, the faults really
//! exercised recovery (retransmissions, CRC rejections and suppressed
//! duplicates all nonzero), no spurious peer-generation change, and the
//! dead peer declared inside 5 s. Loopback latency on a shared core is
//! reported, not gated. `--smoke` shrinks the message counts.
//!
//! `--beacon ADDR` points every endpoint (both children and the dead-peer
//! prober) at a telemetry collector, so a separately running
//! `fm_collector` can watch the soak live.

use fm_bench::report::{Args, Gate, Report};
use fm_bench::udp_pair::{self, dead_peer, run_pair};
use std::net::SocketAddr;

/// The dead peer must be declared within this long.
const MAX_DETECT_MS: f64 = 5_000.0;

fn main() {
    if udp_pair::run_child_if_asked() {
        return;
    }
    let args = Args::parse("BENCH_udp.json", &["--beacon"]);
    let beacon: Option<SocketAddr> = args.get("--beacon").map(|a| {
        a.parse()
            .unwrap_or_else(|_| args.fail("--beacon requires a socket address"))
    });
    let soak_msgs: u32 = if args.smoke { 5_000 } else { 20_000 };
    let ping_rounds: u32 = if args.smoke { 1_000 } else { 5_000 };

    eprintln!(
        "bench_udp: two-process soak, {soak_msgs} msgs/stream at {:.0}% faults...",
        udp_pair::FAULT_RATE * 100.0
    );
    let soak = run_pair("soak", soak_msgs, beacon, || {});
    eprintln!("bench_udp: two-process pingpong, {ping_rounds} rounds...");
    let ping = run_pair("pingpong", ping_rounds, beacon, || {});
    eprintln!("bench_udp: dead-peer fast-fail...");
    let detect_ms = dead_peer(beacon);

    let delivered = soak.sum("delivered");
    let (retransmitted, corrupt, dedup) = (
        soak.sum("retransmitted"),
        soak.sum("corrupt"),
        soak.sum("duplicates"),
    );
    let gen_changes = soak.sum("generation_changes");
    let (p50, p99, goodput) = (
        ping.get::<f64>(0, "p50_us"),
        ping.get::<f64>(0, "p99_us"),
        ping.get::<f64>(0, "goodput_mbs"),
    );
    println!(
        "soak    : {delivered} of {} msgs delivered (retransmitted {retransmitted} dedup {dedup} \
         crc {corrupt})",
        2 * soak_msgs
    );
    println!("pingpong: p50 {p50:.1} us  p99 {p99:.1} us  goodput {goodput:.2} MB/s over {ping_rounds} rounds");
    println!("deadpeer: declared after {detect_ms:.1} ms");

    let gates = [
        Gate::at_least("soak_delivered", delivered as f64, 2.0 * soak_msgs as f64),
        Gate::at_least(
            "recovery_exercised",
            retransmitted.min(corrupt).min(dedup) as f64,
            1.0,
        ),
        Gate::at_most("generation_changes", gen_changes as f64, 0.0),
        Gate::below("dead_peer_detect_ms", detect_ms, MAX_DETECT_MS),
    ];
    let soak_section = Report::new()
        .set("messages_per_stream", soak_msgs)
        .num("fault_rate", udp_pair::FAULT_RATE, 2)
        .set("max_delay_us", udp_pair::MAX_DELAY_US)
        .set("delivered", delivered)
        .set("retransmitted", retransmitted)
        .set("timer_retransmits", soak.sum("timer_retransmits"))
        .set("duplicates_suppressed", dedup)
        .set("crc_rejected", corrupt)
        .set("datagrams_out", soak.sum("datagrams_out"))
        .set("srtt_us", soak.get::<u64>(0, "srtt_us"))
        .set("rto_us", soak.get::<u64>(0, "rto_us"))
        .set("generation_changes", gen_changes);
    Report::new()
        .set("bench", "udp_loopback")
        .set("smoke", args.smoke)
        .set("seed", udp_pair::SEED)
        .set("exactly_once", gates[0].pass)
        .set("soak", soak_section)
        .set(
            "pingpong",
            Report::new()
                .set("rounds", ping_rounds)
                .set("payload_bytes", udp_pair::PING_BYTES)
                .num("p50_us", p50, 2)
                .num("p99_us", p99, 2)
                .num("goodput_mbs", goodput, 3),
        )
        .set(
            "dead_peer",
            Report::new()
                .set("retry_budget", udp_pair::PROBE_RETRY_BUDGET)
                .num("detect_ms", detect_ms, 2),
        )
        .finish(&args.out, &gates)
}
