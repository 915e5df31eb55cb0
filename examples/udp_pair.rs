//! UDP pair: the real-network fabric at work, two OS processes deep.
//!
//! ```sh
//! cargo run --example udp_pair
//! ```
//!
//! Everything else in this repo exchanges frames through shared memory —
//! even the "lossy" soaks run both endpoints in one address space. This
//! example runs the same FM protocol across a *process* boundary: it
//! re-executes itself as an echo server on an ephemeral UDP port, learns
//! the port from the child's stdout, and then drives a pingpong over
//! kernel loopback sockets with a seeded 2% fault injector composed over
//! the wire (drop, duplicate, corrupt — loopback alone never misbehaves).
//!
//! Discovery works the way the `bench_udp` harness and a real deployment
//! would: the echo child binds with an *empty* roster and learns the
//! driver's address from the hello handshake; only the driver needs a
//! roster entry. At the end the driver prints its telemetry (the same
//! counters/histograms `observed_cluster` shows for the in-memory fabric), the adaptive RTT estimate the wall-clock timers
//! converged to, and the round-trip percentiles.

use fm_repro::fm_core::{
    EndpointConfig, FaultConfig, HandlerId, NodeId, Roster, TelemetryCounter, TelemetryMetric,
    UdpConfig,
};
use fm_repro::prelude::*;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Round trips driven by the parent.
const ROUNDS: u32 = 2_000;
/// Per-category injected fault rate on the driver's outgoing frames.
const FAULT_RATE: f64 = 0.02;
/// Shared run seed: retransmit jitter derives from (seed, node id), so
/// both processes' backoff schedules are reproducible.
const SEED: u64 = 0x0DDB_A115;

fn config() -> EndpointConfig {
    EndpointConfig {
        window: 32,
        recv_ring: 64,
        // Wall-clock timers tuned for two processes sharing a CPU: the
        // adaptive floor (rto_initial / 4) must outlast a scheduler
        // timeslice or retransmissions fire before the peer ever runs.
        rto_initial: 20_000,
        rto_max: 1 << 17,
        retry_budget: 64,
        adaptive_rto: true,
        seed: SEED,
        ..Default::default()
    }
}

fn wait_established(ep: &mut MemEndpoint, peer: NodeId, deadline: Instant) {
    while ep.udp_established(peer) != Some(true) {
        assert!(Instant::now() < deadline, "handshake wedged");
        ep.extract();
        std::thread::yield_now();
    }
}

/// Echo role (`--echo`): bind an ephemeral port with an empty roster,
/// announce it, and echo every frame until the line goes quiet.
fn run_echo() {
    let mut ep = MemEndpoint::bind_udp(
        NodeId(1),
        UdpConfig::new("127.0.0.1:0".parse().unwrap(), Roster::new(2)),
        config(),
    )
    .expect("bind echo endpoint");
    // Register before pumping the wire: the driver's first ping can land
    // right behind the hello-ack.
    let h = ep.register_handler(|out, src, data| {
        out.send_copy(src, HandlerId(1), data);
    });
    assert_eq!(h, HandlerId(1));
    println!("PORT {}", ep.udp_local_addr().expect("bound socket"));

    let deadline = Instant::now() + Duration::from_secs(60);
    wait_established(&mut ep, NodeId(0), deadline);
    let mut last_in = 0u64;
    let mut last_activity = Instant::now();
    loop {
        ep.extract();
        let now_in = ep.udp_stats().expect("udp wiring").datagrams_in;
        if now_in != last_in {
            last_in = now_in;
            last_activity = Instant::now();
        } else if ep.stats().delivered > 0 && last_activity.elapsed() > Duration::from_millis(800) {
            return; // driver hung up; nothing in flight for a while
        }
        assert!(Instant::now() < deadline, "echo side wedged");
        std::thread::yield_now();
    }
}

fn main() {
    if std::env::args().any(|a| a == "--echo") {
        return run_echo();
    }

    // -- spawn the echo process and learn its port ------------------------
    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(exe)
        .arg("--echo")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn echo process");
    let mut port_line = String::new();
    BufReader::new(child.stdout.take().expect("child stdout"))
        .read_line(&mut port_line)
        .expect("read port announcement");
    let addr = port_line
        .trim()
        .strip_prefix("PORT ")
        .expect("PORT line")
        .parse()
        .expect("socket address");
    println!("echo process listening on {addr}");

    // -- bind the driver and make the wire lie ----------------------------
    let mut roster = Roster::new(2);
    roster.set(NodeId(1), addr);
    let mut ep = MemEndpoint::bind_udp(
        NodeId(0),
        UdpConfig::new("127.0.0.1:0".parse().unwrap(), roster),
        config(),
    )
    .expect("bind driver endpoint");
    ep.inject_faults(&FaultConfig::uniform(SEED, FAULT_RATE));

    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    let pongs = Arc::new(AtomicU32::new(0));
    let p = pongs.clone();
    ep.register_handler(move |_, _, _| {
        p.fetch_add(1, Ordering::Relaxed);
    });

    let deadline = Instant::now() + Duration::from_secs(60);
    wait_established(&mut ep, NodeId(1), deadline);

    // -- pingpong ---------------------------------------------------------
    let payload = [0xABu8; 64];
    let mut rtts_us: Vec<f64> = Vec::with_capacity(ROUNDS as usize);
    for round in 0..ROUNDS {
        let t = Instant::now();
        ep.send(NodeId(1), HandlerId(1), &payload);
        while pongs.load(Ordering::Relaxed) <= round {
            assert!(
                Instant::now() < deadline,
                "pingpong wedged at round {round}"
            );
            if ep.extract() == 0 {
                std::thread::yield_now(); // the echo process needs the CPU
            }
        }
        rtts_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    // Let trailing acks land so the echo side can quiesce and exit.
    let drain = Instant::now() + Duration::from_millis(300);
    while Instant::now() < drain {
        ep.extract();
        std::thread::yield_now();
    }

    rtts_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| rtts_us[((rtts_us.len() - 1) as f64 * p) as usize];
    println!(
        "\n{ROUNDS} round trips through a {:.0}% lossy wire: p50 {:.1} us  p99 {:.1} us",
        FAULT_RATE * 100.0,
        pct(0.50),
        pct(0.99),
    );

    // -- telemetry: the same printout observed_cluster shows --------------
    println!("\ntelemetry, driver:");
    for (c, v) in TelemetryCounter::ALL
        .iter()
        .zip(ep.observability_counters())
    {
        println!("  {:<18} {v}", c.name());
    }
    for m in TelemetryMetric::ALL {
        let s = ep.telemetry().metric(m);
        println!(
            "  {:<18} count {} p50 {} p99 {}",
            m.name(),
            s.count,
            s.p50,
            s.p99
        );
    }
    let stats = ep.stats();
    let rtt = ep.rtt();
    let wire = ep.udp_stats().expect("udp wiring");
    println!(
        "recovered from injected faults: {} retransmits ({} timer-driven), \
         {} datagrams out / {} in",
        stats.retransmitted, stats.timer_retransmits, wire.datagrams_out, wire.datagrams_in,
    );
    println!(
        "adaptive timers: srtt {} us, rto {} us (wall-clock, Karn-filtered)",
        rtt.srtt().unwrap_or(0),
        rtt.rto(),
    );

    let status = child.wait().expect("reap echo process");
    assert!(status.success(), "echo process failed: {status}");
    println!("echo process exited cleanly");
}
