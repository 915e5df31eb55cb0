//! Multi-process loopback benchmark for the UDP fabric, written to
//! `BENCH_udp.json`.
//!
//! This is the acceptance harness for the real-network transport: the
//! endpoints live in *separate OS processes* (the binary re-executes
//! itself in child roles), exchange CRC-framed wire traffic over kernel
//! UDP sockets on loopback, and the parent assembles three measurements:
//!
//! * **soak** — both children stream sequenced messages at each other at
//!   5% injected drop/dup/corrupt/delay per category (the seeded
//!   [`fm_core::FaultInjector`] composed over the socket — loopback alone
//!   is too reliable to test recovery); each child asserts exactly-once
//!   in-order delivery and a nonzero child exit fails the whole bench;
//! * **pingpong** — clean-path round trips on the wall clock: p50/p99
//!   round-trip microseconds and two-way goodput;
//! * **dead peer** — a roster entry pointing at a dead port; measures how
//!   long the retry budget takes to declare `PeerUnreachable`.
//!
//! Discovery mirrors production use: child 0 binds an ephemeral port with
//! an *empty* roster and announces it on stdout; child 1 gets that
//! address on its command line and hellos first; child 0 learns 1's
//! address from the handshake. `--smoke` shrinks the message counts for
//! quick runs; CI's `udp-soak` job runs the full 20k-per-stream soak.
//!
//! `--beacon ADDR` points every endpoint (both children and the in-process
//! dead-peer prober) at a telemetry collector: each enables out-of-band
//! beacons toward ADDR and flushes a final beacon before exiting, so a
//! separately-running `fm_collector` can watch the soak live.

use fm_core::{
    EndpointConfig, FaultConfig, HandlerId, LinkFaults, MemEndpoint, NodeId, Roster, SendError,
    UdpConfig,
};
use std::io::{BufRead, BufReader, Write as _};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Per-category injected fault rate for the soak (drop, dup, corrupt,
/// delay each at this rate — the acceptance criterion's "5% loss").
const FAULT_RATE: f64 = 0.05;
/// Injected delays reach up to 2 ms — several adapted RTOs, so delayed
/// frames really do arrive after their retransmission left.
const MAX_DELAY_US: u64 = 2_000;
/// Run seed shared by both processes: retransmit jitter derives from
/// (seed, node id), so the children's backoff schedules are reproducible
/// without sharing an address space.
const RUN_SEED: u64 = 0xFA57_11E7;
/// Pingpong payload (bytes).
const PING_BYTES: usize = 64;
/// Wall-clock cap per phase; hitting it means a wedge.
const WEDGE_AFTER: Duration = Duration::from_secs(120);
/// Beacon pacing when `--beacon` is given: 50 ms keeps the collector's
/// delta windows wide enough that a scheduler stall's retransmit burst is
/// diluted by the surrounding clean traffic (no false storm alarms).
const BEACON_US: u64 = 50_000;

fn udp_config() -> EndpointConfig {
    EndpointConfig {
        window: 32,
        recv_ring: 64,
        // The children are separate processes that may share one CPU: a
        // descheduled peer can't ack for a whole scheduler timeslice, so
        // the timer floor (rto_initial / 4 once adaptive) must sit above
        // timeslice granularity or every frame retransmits spuriously.
        rto_initial: 20_000,
        rto_max: 1 << 17,
        retry_budget: 64,
        adaptive_rto: true,
        seed: RUN_SEED,
        ..Default::default()
    }
}

fn lossy() -> FaultConfig {
    FaultConfig {
        default: LinkFaults {
            drop: FAULT_RATE,
            dup: FAULT_RATE,
            corrupt: FAULT_RATE,
            delay: FAULT_RATE,
            max_delay_ticks: MAX_DELAY_US,
        },
        ..FaultConfig::new(RUN_SEED)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Child roles are internal: `--child <workload> --id <n> --msgs <n>
    // [--peer <addr>]`.
    if args.first().map(String::as_str) == Some("--child") {
        run_child(&args);
        return;
    }

    let mut smoke = false;
    let mut out_path = "BENCH_udp.json".to_string();
    let mut beacon: Option<SocketAddr> = None;
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
            "--beacon" => match it.next().and_then(|v| v.parse().ok()) {
                Some(addr) => beacon = Some(addr),
                None => {
                    eprintln!("error: --beacon requires a socket address");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: bench_udp [--smoke] [--out PATH] [--beacon ADDR]");
                std::process::exit(2);
            }
        }
    }

    let soak_msgs: u32 = if smoke { 5_000 } else { 20_000 };
    let ping_rounds: u32 = if smoke { 1_000 } else { 5_000 };

    eprintln!(
        "bench_udp: two-process soak, {soak_msgs} msgs/stream at {:.0}% faults...",
        FAULT_RATE * 100.0
    );
    let soak = run_pair("soak", soak_msgs, beacon);
    eprintln!("bench_udp: two-process pingpong, {ping_rounds} rounds...");
    let ping = run_pair("pingpong", ping_rounds, beacon);
    eprintln!("bench_udp: dead-peer fast-fail...");
    let detect_ms = run_dead_peer(beacon);

    let delivered: u64 = soak.get("delivered");
    assert_eq!(
        delivered,
        2 * soak_msgs as u64,
        "soak must deliver every message exactly once"
    );
    println!(
        "soak    : {} msgs/stream delivered exactly-once (retransmitted {} dedup {} crc {})",
        soak_msgs,
        soak.get::<u64>("retransmitted"),
        soak.get::<u64>("duplicates"),
        soak.get::<u64>("corrupt"),
    );
    println!(
        "pingpong: p50 {:.1} us  p99 {:.1} us  goodput {:.2} MB/s over {} rounds",
        ping.get::<f64>("p50_us"),
        ping.get::<f64>("p99_us"),
        ping.get::<f64>("goodput_mbs"),
        ping_rounds,
    );
    println!("deadpeer: unreachable declared after {detect_ms:.1} ms");

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"udp_loopback\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"seed\": {seed},\n",
            "  \"exactly_once\": true,\n",
            "  \"soak\": {{\n",
            "    \"messages_per_stream\": {soak_msgs},\n",
            "    \"fault_rate\": {rate},\n",
            "    \"max_delay_us\": {delay},\n",
            "    \"delivered\": {delivered},\n",
            "    \"retransmitted\": {retransmitted},\n",
            "    \"timer_retransmits\": {timer_rtx},\n",
            "    \"duplicates_suppressed\": {dedup},\n",
            "    \"crc_rejected\": {corrupt},\n",
            "    \"datagrams_out\": {dg_out},\n",
            "    \"srtt_us\": {srtt},\n",
            "    \"rto_us\": {rto},\n",
            "    \"generation_changes\": {gen_changes}\n",
            "  }},\n",
            "  \"pingpong\": {{\n",
            "    \"rounds\": {rounds},\n",
            "    \"payload_bytes\": {payload},\n",
            "    \"p50_us\": {p50:.2},\n",
            "    \"p99_us\": {p99:.2},\n",
            "    \"goodput_mbs\": {goodput:.3}\n",
            "  }},\n",
            "  \"dead_peer\": {{\n",
            "    \"retry_budget\": 6,\n",
            "    \"detect_ms\": {detect:.2}\n",
            "  }}\n",
            "}}\n",
        ),
        smoke = smoke,
        seed = RUN_SEED,
        soak_msgs = soak_msgs,
        rate = FAULT_RATE,
        delay = MAX_DELAY_US,
        delivered = delivered,
        retransmitted = soak.get::<u64>("retransmitted"),
        timer_rtx = soak.get::<u64>("timer_retransmits"),
        dedup = soak.get::<u64>("duplicates"),
        corrupt = soak.get::<u64>("corrupt"),
        dg_out = soak.get::<u64>("datagrams_out"),
        srtt = soak.get::<u64>("srtt_us"),
        rto = soak.get::<u64>("rto_us"),
        gen_changes = soak.get::<u64>("generation_changes"),
        rounds = ping_rounds,
        payload = PING_BYTES,
        p50 = ping.get::<f64>("p50_us"),
        p99 = ping.get::<f64>("p99_us"),
        goodput = ping.get::<f64>("goodput_mbs"),
        detect = detect_ms,
    );
    std::fs::write(&out_path, json).expect("write BENCH_udp.json");
    eprintln!("bench_udp: wrote {out_path}");
}

// ---- parent side -----------------------------------------------------------

/// Accumulated `RESULT key=value` pairs from both children.
struct Results(Vec<(String, String)>);

impl Results {
    fn get<T: std::str::FromStr>(&self, key: &str) -> T
    where
        T::Err: std::fmt::Debug,
    {
        let v = self
            .0
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("children reported no `{key}`"));
        v.1.parse().unwrap_or_else(|e| panic!("bad `{key}`: {e:?}"))
    }
}

/// Spawn the two child processes for `workload`, wire their discovery
/// (child 0's announced port goes on child 1's command line), and merge
/// their reported results. Panics if either child fails.
fn run_pair(workload: &str, msgs: u32, beacon: Option<SocketAddr>) -> Results {
    let exe = std::env::current_exe().expect("own executable path");
    let spawn = |id: usize, peer: Option<SocketAddr>| {
        let mut cmd = Command::new(&exe);
        cmd.arg("--child")
            .arg(workload)
            .arg("--id")
            .arg(id.to_string())
            .arg("--msgs")
            .arg(msgs.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(addr) = peer {
            cmd.arg("--peer").arg(addr.to_string());
        }
        if let Some(addr) = beacon {
            cmd.arg("--beacon").arg(addr.to_string());
        }
        cmd.spawn().expect("spawn child process")
    };

    let mut child0 = spawn(0, None);
    let mut out0 = BufReader::new(child0.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    out0.read_line(&mut line).expect("child 0 port line");
    let addr0: SocketAddr = line
        .trim()
        .strip_prefix("PORT ")
        .unwrap_or_else(|| panic!("child 0 spoke `{line}`, expected `PORT <addr>`"))
        .parse()
        .expect("child 0 announced address");

    let mut child1 = spawn(1, Some(addr0));
    let out1 = BufReader::new(child1.stdout.take().expect("piped stdout"));

    let mut results = Vec::new();
    let mut collect = |reader: Box<dyn BufRead>| {
        for line in reader.lines() {
            let line = line.expect("child stdout");
            if let Some(rest) = line.strip_prefix("RESULT ") {
                for pair in rest.split_whitespace() {
                    if let Some((k, v)) = pair.split_once('=') {
                        results.push((k.to_string(), v.to_string()));
                    }
                }
            }
        }
    };
    collect(Box::new(out0));
    collect(Box::new(out1));
    let st0 = child0.wait().expect("join child 0");
    let st1 = child1.wait().expect("join child 1");
    assert!(st0.success(), "child 0 ({workload}) failed: {st0}");
    assert!(st1.success(), "child 1 ({workload}) failed: {st1}");
    Results(results)
}

/// Dead-peer fast-fail, measured in-process: the roster names a port that
/// was bound once and closed, so every frame vanishes; a tight retry
/// budget must surface `PeerUnreachable` quickly.
fn run_dead_peer(beacon: Option<SocketAddr>) -> f64 {
    let dead_addr = {
        let s = std::net::UdpSocket::bind("127.0.0.1:0").expect("probe socket");
        s.local_addr().expect("probe addr")
    }; // socket closed here; the port is now dead
    let mut roster = Roster::new(3);
    roster.set(NodeId(2), dead_addr);
    let mut config = udp_config();
    config.retry_budget = 6;
    let mut ep = MemEndpoint::bind_udp(
        NodeId(0),
        UdpConfig::new("127.0.0.1:0".parse().unwrap(), roster),
        config,
    )
    .expect("bind dead-peer prober");
    if let Some(addr) = beacon {
        ep.enable_beacon(addr, BEACON_US).expect("beacon socket");
    }
    let h = HandlerId(1);
    let start = Instant::now();
    loop {
        match ep.send_checked(NodeId(2), h, b"are you there") {
            Ok(()) => {
                assert!(
                    start.elapsed() < WEDGE_AFTER,
                    "dead peer never declared unreachable"
                );
            }
            Err(SendError::PeerUnreachable(peer)) => {
                assert_eq!(peer, NodeId(2));
                break;
            }
            Err(e) => panic!("unexpected send failure: {e}"),
        }
    }
    let detect = start.elapsed().as_secs_f64() * 1e3;
    assert!(ep.is_peer_dead(NodeId(2)));
    ep.emit_beacon();
    detect
}

// ---- child side ------------------------------------------------------------

fn run_child(args: &[String]) {
    let mut workload = String::new();
    let mut id = usize::MAX;
    let mut msgs = 0u32;
    let mut peer: Option<SocketAddr> = None;
    let mut beacon: Option<SocketAddr> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--child" => workload = it.next().expect("workload").clone(),
            "--id" => id = it.next().expect("id").parse().expect("id"),
            "--msgs" => msgs = it.next().expect("msgs").parse().expect("msgs"),
            "--peer" => peer = Some(it.next().expect("peer").parse().expect("peer addr")),
            "--beacon" => beacon = Some(it.next().expect("beacon").parse().expect("beacon addr")),
            other => panic!("unknown child argument `{other}`"),
        }
    }
    assert!(id <= 1, "two-process harness");
    let me = NodeId(id as u16);
    let other = NodeId(1 - id as u16);

    // Node 0 starts with an empty roster and learns node 1's address from
    // the handshake; node 1 got node 0's address on the command line.
    let mut roster = Roster::new(2);
    if let Some(addr) = peer {
        roster.set(other, addr);
    }
    let mut ep = MemEndpoint::bind_udp(
        me,
        UdpConfig::new("127.0.0.1:0".parse().unwrap(), roster),
        udp_config(),
    )
    .expect("bind child endpoint");
    if let Some(addr) = beacon {
        // Paced from extract(); the workloads below pump constantly, so
        // the collector sees a live stream without any extra plumbing.
        ep.enable_beacon(addr, BEACON_US).expect("beacon socket");
    }
    let local = ep.udp_local_addr().expect("udp endpoint has an address");
    // Child 0's announcement; harmless from child 1.
    println!("PORT {local}");
    std::io::stdout().flush().expect("flush port line");

    let deadline = Instant::now() + WEDGE_AFTER;
    // NB: the handshake wait lives *inside* each workload, after handler
    // registration — extract() dispatches frames, and the peer's first
    // data frame can arrive right behind the hello-ack; pumping it before
    // the handler exists would consume (and ack) it as unknown-handler.
    match workload.as_str() {
        "soak" => child_soak(ep, me, other, msgs, deadline),
        "pingpong" => child_pingpong(ep, id, other, msgs, deadline),
        other => panic!("unknown workload `{other}`"),
    }
}

/// Pump the wire until the hello/hello-ack handshake with `other` lands.
/// Must run *after* the workload registered its handlers (see above).
fn wait_established(ep: &mut MemEndpoint, other: NodeId, deadline: Instant) {
    while ep.udp_established(other) != Some(true) {
        assert!(Instant::now() < deadline, "handshake wedged");
        ep.extract();
        std::thread::yield_now();
    }
}

/// Both sides stream `msgs` sequenced messages at each other through 5%
/// injected faults; assert exactly-once in-order delivery, then report
/// recovery counters (node 0 reports the shared-shape fields).
fn child_soak(mut ep: MemEndpoint, me: NodeId, other: NodeId, msgs: u32, deadline: Instant) {
    use std::sync::{Arc, Mutex};

    ep.inject_faults(&lossy());
    let got: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let g = got.clone();
    let h = ep.register_handler(move |_, src, data| {
        assert_eq!(src, other);
        g.lock()
            .unwrap()
            .push(u32::from_le_bytes(data.try_into().unwrap()));
    });
    wait_established(&mut ep, other, deadline);

    let mut next = 0u32;
    loop {
        assert!(
            Instant::now() < deadline,
            "soak wedged at sent {next}/{msgs} got {}/{msgs}: {:?} {:?}",
            got.lock().unwrap().len(),
            ep.stats(),
            ep.udp_stats()
        );
        if next < msgs {
            if let Ok(()) = ep.try_send(other, h, &next.to_le_bytes()) {
                next += 1;
            }
        }
        ep.extract();
        assert!(
            !ep.is_peer_dead(other),
            "peer falsely declared dead at sent {next}/{msgs} got {}/{msgs}: {:?}",
            got.lock().unwrap().len(),
            ep.stats()
        );
        if next == msgs && got.lock().unwrap().len() as u32 >= msgs && ep.is_quiescent() {
            break;
        }
        // Cooperative spin: on a shared CPU the peer only runs (and only
        // acks) when we give the scheduler a chance to switch.
        std::thread::yield_now();
    }
    // Linger: we are done, but the peer may still be recovering its last
    // window and needs our acks. Keep extracting until the wire has been
    // quiet for a beat before exiting.
    let quiet = Duration::from_millis(500);
    let mut last_in = ep.udp_stats().expect("udp wiring").datagrams_in;
    let mut last_activity = Instant::now();
    while last_activity.elapsed() < quiet {
        assert!(Instant::now() < deadline, "linger wedged");
        ep.extract();
        let now_in = ep.udp_stats().expect("udp wiring").datagrams_in;
        if now_in != last_in {
            last_in = now_in;
            last_activity = Instant::now();
        }
        std::thread::yield_now();
    }
    let received = got.lock().unwrap();
    assert_eq!(
        *received,
        (0..msgs).collect::<Vec<u32>>(),
        "node {} must receive exactly-once in-order",
        me.0
    );

    ep.emit_beacon(); // final snapshot so the collector sees the end state
    let stats = ep.stats();
    let wire = ep.udp_stats().expect("udp wiring");
    let rtt = ep.rtt();
    // Each child owns half the aggregate counters; the parent sums them.
    println!(
        "RESULT delivered_{}={} retransmitted_{}={} \
         timer_{}={} dedup_{}={} corrupt_{}={} dgout_{}={} gen_{}={}",
        me.0,
        received.len(),
        me.0,
        stats.retransmitted,
        me.0,
        stats.timer_retransmits,
        me.0,
        stats.duplicates,
        me.0,
        stats.corrupt,
        me.0,
        wire.datagrams_out,
        me.0,
        wire.generation_changes,
    );
    if me.0 == 0 {
        println!(
            "RESULT delivered={} retransmitted={} timer_retransmits={} duplicates={} \
             corrupt={} datagrams_out={} generation_changes={} srtt_us={} rto_us={}",
            2 * msgs, // asserted exactly-once on both sides above
            stats.retransmitted,
            stats.timer_retransmits,
            stats.duplicates,
            stats.corrupt,
            wire.datagrams_out,
            wire.generation_changes,
            rtt.srtt().unwrap_or(0),
            rtt.rto(),
        );
    }
}

/// Node 0 drives `msgs` round trips and reports latency percentiles;
/// node 1 echoes from its handler.
fn child_pingpong(mut ep: MemEndpoint, id: usize, other: NodeId, msgs: u32, deadline: Instant) {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    let pongs = Arc::new(AtomicU32::new(0));
    let p = pongs.clone();
    let h = if id == 0 {
        ep.register_handler(move |_, _, _| {
            p.fetch_add(1, Ordering::Relaxed);
        })
    } else {
        ep.register_handler(move |out, src, data| {
            out.send_copy(src, HandlerId(1), data);
        })
    };
    assert_eq!(h, HandlerId(1), "symmetric registration");
    wait_established(&mut ep, other, deadline);

    if id == 1 {
        // Echo until node 0 hangs up (handshake hellos stop implying
        // nothing; we watch for a final `done` marker frame instead:
        // node 0 simply stops, so run until quiescent *and* idle for a
        // beat, then exit 0).
        let mut last_progress = Instant::now();
        let mut last_delivered = 0u64;
        loop {
            ep.extract();
            let d = ep.stats().delivered;
            if d != last_delivered {
                last_delivered = d;
                last_progress = Instant::now();
            } else if d >= msgs as u64 && last_progress.elapsed() > Duration::from_millis(200) {
                break; // all rounds echoed and the line has gone quiet
            }
            assert!(Instant::now() < deadline, "echo side wedged at {d}/{msgs}");
            std::thread::yield_now();
        }
        ep.emit_beacon();
        return;
    }

    let payload = [0x5Au8; PING_BYTES];
    let mut rtts_us: Vec<f64> = Vec::with_capacity(msgs as usize);
    let begin = Instant::now();
    for round in 0..msgs {
        let t = Instant::now();
        ep.send(other, h, &payload);
        while pongs.load(Ordering::Relaxed) <= round {
            assert!(
                Instant::now() < deadline,
                "pingpong wedged at round {round}"
            );
            if ep.extract() == 0 {
                // The echo process can only run when we yield the CPU.
                std::thread::yield_now();
            }
        }
        rtts_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let elapsed = begin.elapsed().as_secs_f64();
    // Let trailing acks land so the echo side can quiesce too.
    let drain_until = Instant::now() + Duration::from_millis(300);
    while Instant::now() < drain_until {
        ep.extract();
        std::thread::yield_now();
    }
    ep.emit_beacon();

    rtts_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| rtts_us[((rtts_us.len() - 1) as f64 * p) as usize];
    let goodput_mbs = (2.0 * msgs as f64 * PING_BYTES as f64) / elapsed / 1e6;
    println!(
        "RESULT p50_us={:.2} p99_us={:.2} goodput_mbs={:.3} rounds={}",
        pct(0.50),
        pct(0.99),
        goodput_mbs,
        msgs,
    );
}
