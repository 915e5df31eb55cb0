//! The two-process UDP harness `bench_udp` and `bench_obs` share.
//!
//! The calling binary re-executes itself twice as children (nodes 8 and
//! 9), which exchange CRC-framed wire traffic over kernel UDP sockets on
//! loopback. Discovery mirrors production use: the first child binds an
//! ephemeral port with an *empty* roster and announces it on stdout as
//! `PORT <addr>`; the second gets that address on its command line and
//! hellos first; the first learns the second's address from the handshake.
//! Each child ends by printing `RESULT key=value ...`, which
//! [`run_pair`] collects per child.
//!
//! Node ids 8–11 stay clear of the 8-host switched cluster `bench_obs`
//! runs, so every source can beacon into one collector.

use fm_core::{
    EndpointConfig, FaultConfig, HandlerId, LinkFaults, MemEndpoint, NodeId, Roster, UdpConfig,
};
use std::io::{BufRead, BufReader, Write as _};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Run seed shared by both processes: retransmit jitter derives from
/// (seed, node id), so the children's backoff schedules are reproducible
/// without sharing an address space.
pub const SEED: u64 = 0xFA57_11E7;
/// Per-category injected fault rate of the soak (drop, dup, corrupt and
/// delay each at this rate).
pub const FAULT_RATE: f64 = 0.05;
/// Injected delays reach up to 2 ms — several adapted RTOs, so delayed
/// frames really do arrive after their retransmission left.
pub const MAX_DELAY_US: u64 = 2_000;
/// Retry budget of the dead-peer prober.
pub const PROBE_RETRY_BUDGET: u32 = 6;
/// The two children's node ids.
pub const PAIR: [NodeId; 2] = [NodeId(8), NodeId(9)];
/// The dead-peer prober and the closed port it probes.
pub const PROBER: NodeId = NodeId(10);
const DEAD: NodeId = NodeId(11);
/// Roster size: every node id the harness uses fits.
const ROSTER: usize = 16;
/// Child beacon pacing: windows wide enough that a scheduler stall's
/// retransmit burst is diluted by the surrounding clean traffic instead of
/// reading as a storm of its own.
const CHILD_BEACON_US: u64 = 200_000;
/// "Never" pacing for the prober, which flushes its beacons explicitly so
/// its delta windows are the probe's boundaries, not the wall clock's.
const MANUAL: u64 = u64::MAX / 4;
/// Wall-clock cap per phase; hitting it means a wedge.
const WEDGE_AFTER: Duration = Duration::from_secs(120);
/// Ping-pong payload (bytes).
pub const PING_BYTES: usize = 64;

/// Endpoint sizing for processes that may share one CPU.
fn udp_config() -> EndpointConfig {
    EndpointConfig {
        window: 32,
        recv_ring: 64,
        // A descheduled peer can't ack for a whole scheduler timeslice, so
        // the timer floor (rto_initial / 4 once adaptive) must sit above
        // timeslice granularity or every frame retransmits spuriously.
        rto_initial: 20_000,
        rto_max: 1 << 17,
        retry_budget: 64,
        adaptive_rto: true,
        seed: SEED,
        // Sample densely so beacons carry span events across the process
        // boundary.
        trace_one_in: 4,
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
        ..FaultConfig::new(SEED)
    }
}

/// The `RESULT key=value` pairs each child reported, in [`PAIR`] order.
pub struct PairResults([Vec<(String, String)>; 2]);

impl PairResults {
    /// Child `i`'s value for `key`.
    ///
    /// # Panics
    /// If the child did not report `key` or reported something unparsable.
    pub fn get<T: std::str::FromStr>(&self, i: usize, key: &str) -> T
    where
        T::Err: std::fmt::Debug,
    {
        let (_, v) = self.0[i]
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("child {i} reported no `{key}`"));
        v.parse()
            .unwrap_or_else(|e| panic!("child {i}: bad `{key}`: {e:?}"))
    }

    /// `key` summed over both children.
    pub fn sum(&self, key: &str) -> u64 {
        self.get::<u64>(0, key) + self.get::<u64>(1, key)
    }
}

/// Spawn the two children for `workload` (`soak` or `pingpong`), wire
/// their discovery, call `poll` every couple of milliseconds while they
/// run, and collect their results.
///
/// # Panics
/// If either child fails or the pair runs past the 120-s wedge limit.
pub fn run_pair(
    workload: &str,
    msgs: u32,
    beacon: Option<SocketAddr>,
    mut poll: impl FnMut(),
) -> PairResults {
    let exe = std::env::current_exe().expect("own executable path");
    let spawn = |id: NodeId, peer: Option<SocketAddr>| {
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", workload])
            .args(["--id", &id.0.to_string(), "--msgs", &msgs.to_string()])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(addr) = peer {
            cmd.args(["--peer", &addr.to_string()]);
        }
        if let Some(addr) = beacon {
            cmd.args(["--beacon", &addr.to_string()]);
        }
        cmd.spawn().expect("spawn child process")
    };

    let mut first = spawn(PAIR[0], None);
    let mut out0 = BufReader::new(first.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    out0.read_line(&mut line).expect("first child's port line");
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("PORT ")
        .unwrap_or_else(|| panic!("first child spoke `{line}`, expected `PORT <addr>`"))
        .parse()
        .expect("first child's announced address");
    let mut second = spawn(PAIR[1], Some(addr));
    let out1 = BufReader::new(second.stdout.take().expect("piped stdout"));

    // Reader threads forward lines; this thread polls while they run.
    let (tx, rx) = mpsc::channel::<(usize, String)>();
    let readers: Vec<_> = [Box::new(out0) as Box<dyn BufRead + Send>, Box::new(out1)]
        .into_iter()
        .enumerate()
        .map(|(i, reader)| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for line in reader.lines() {
                    let _ = tx.send((i, line.expect("child stdout")));
                }
            })
        })
        .collect();
    drop(tx);

    let mut results: [Vec<(String, String)>; 2] = Default::default();
    let deadline = Instant::now() + WEDGE_AFTER;
    loop {
        poll();
        match rx.recv_timeout(Duration::from_millis(2)) {
            Ok((i, line)) => {
                let Some(rest) = line.strip_prefix("RESULT ") else {
                    continue;
                };
                for (k, v) in rest.split_whitespace().filter_map(|p| p.split_once('=')) {
                    results[i].push((k.to_string(), v.to_string()));
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                assert!(Instant::now() < deadline, "{workload} pair wedged");
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    for r in readers {
        r.join().expect("reader thread");
    }
    for (child, id) in [(&mut first, PAIR[0]), (&mut second, PAIR[1])] {
        let status = child.wait().expect("join child");
        assert!(
            status.success(),
            "node {} ({workload}) failed: {status}",
            id.0
        );
    }
    PairResults(results)
}

/// Milliseconds until one probe frame's retry budget declares a closed
/// port's node dead. With `beacon`, the prober flushes a beacon before the
/// probe and one after, so exactly one delta window holds the death.
pub fn dead_peer(beacon: Option<SocketAddr>) -> f64 {
    let dead_addr = {
        let s = std::net::UdpSocket::bind("127.0.0.1:0").expect("probe socket");
        s.local_addr().expect("probe addr")
    }; // closed here: the port is now dead
    let mut roster = Roster::new(ROSTER);
    roster.set(DEAD, dead_addr);
    let config = EndpointConfig {
        retry_budget: PROBE_RETRY_BUDGET,
        ..udp_config()
    };
    let mut ep =
        MemEndpoint::bind_udp(PROBER, loopback(roster), config).expect("bind dead-peer prober");
    if let Some(addr) = beacon {
        ep.enable_beacon(addr, MANUAL).expect("beacon socket");
        ep.emit_beacon(); // baseline window
    }
    // One probe frame only: its retry budget burning down is what declares
    // the peer dead, and six retransmits stay far below the storm
    // threshold, so a collector sees the dead-peer alarm alone.
    let start = Instant::now();
    ep.send_checked(DEAD, HandlerId(1), b"are you there")
        .expect("probe send");
    while !ep.is_peer_dead(DEAD) {
        assert!(start.elapsed() < WEDGE_AFTER, "dead peer never declared");
        ep.extract();
        std::thread::yield_now();
    }
    let detect_ms = start.elapsed().as_secs_f64() * 1e3;
    ep.emit_beacon(); // the window holding the DeadPeers delta
    detect_ms
}

fn loopback(roster: Roster) -> UdpConfig {
    UdpConfig::new("127.0.0.1:0".parse().expect("loopback address"), roster)
}

// ---- child side ------------------------------------------------------------

/// Run the child role when the process was started as one by [`run_pair`]
/// (`--child WORKLOAD --id N --msgs N [--peer ADDR] [--beacon ADDR]`);
/// returns false for a normal start.
pub fn run_child_if_asked() -> bool {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("--child") {
        return false;
    }
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .map(|i| args.get(i + 1).expect("child flag value").as_str())
    };
    let workload = flag("--child").expect("workload");
    let me = NodeId(flag("--id").expect("--id").parse().expect("node id"));
    let msgs: u32 = flag("--msgs")
        .expect("--msgs")
        .parse()
        .expect("message count");
    let other = if me == PAIR[0] { PAIR[1] } else { PAIR[0] };

    // The first child starts with an empty roster and learns its peer's
    // address from the handshake; the second got it on its command line.
    let mut roster = Roster::new(ROSTER);
    if let Some(addr) = flag("--peer") {
        roster.set(other, addr.parse().expect("peer address"));
    }
    let mut ep =
        MemEndpoint::bind_udp(me, loopback(roster), udp_config()).expect("bind child endpoint");
    if let Some(addr) = flag("--beacon") {
        // Paced from extract(); the workloads pump constantly.
        let addr = addr.parse().expect("beacon address");
        ep.enable_beacon(addr, CHILD_BEACON_US)
            .expect("beacon socket");
    }
    let local = ep.udp_local_addr().expect("udp endpoint has an address");
    println!("PORT {local}"); // read from the first child only
    std::io::stdout().flush().expect("flush port line");

    // The handshake wait lives inside each workload, after handler
    // registration: extract() dispatches frames, and the peer's first data
    // frame can arrive right behind the hello-ack; pumping it before the
    // handler exists would consume (and ack) it as unknown-handler.
    let deadline = Instant::now() + WEDGE_AFTER;
    match workload {
        "soak" => child_soak(ep, me, other, msgs, deadline),
        "pingpong" => child_pingpong(ep, me, other, msgs, deadline),
        w => panic!("unknown workload `{w}`"),
    }
    true
}

/// Pump the wire until the hello/hello-ack handshake with `other` lands.
fn wait_established(ep: &mut MemEndpoint, other: NodeId, deadline: Instant) {
    while ep.udp_established(other) != Some(true) {
        assert!(Instant::now() < deadline, "handshake wedged");
        ep.extract();
        std::thread::yield_now();
    }
}

/// Both sides stream `msgs` sequenced messages at each other through the
/// injected faults, assert exactly-once in-order delivery, and report their
/// recovery counters.
fn child_soak(mut ep: MemEndpoint, me: NodeId, other: NodeId, msgs: u32, deadline: Instant) {
    ep.inject_faults(&lossy());
    let got: Arc<Mutex<Vec<u32>>> = Arc::default();
    let g = got.clone();
    let h = ep.register_handler(move |_, src, data| {
        assert_eq!(src, other);
        let seq = u32::from_le_bytes(data.try_into().expect("4-byte sequence number"));
        g.lock().expect("receiver log").push(seq);
    });
    wait_established(&mut ep, other, deadline);

    let received = || got.lock().expect("receiver log").len() as u32;
    let mut next = 0u32;
    loop {
        assert!(
            Instant::now() < deadline,
            "soak wedged at sent {next}/{msgs} got {}/{msgs}: {:?} {:?}",
            received(),
            ep.stats(),
            ep.udp_stats()
        );
        if next < msgs && ep.try_send(other, h, &next.to_le_bytes()).is_ok() {
            next += 1;
        }
        ep.extract();
        assert!(
            !ep.is_peer_dead(other),
            "peer falsely declared dead at sent {next}/{msgs} got {}/{msgs}",
            received()
        );
        if next == msgs && received() >= msgs && ep.is_quiescent() {
            break;
        }
        // On a shared CPU the peer only runs (and only acks) when we give
        // the scheduler a chance to switch.
        std::thread::yield_now();
    }
    // Linger: we are done, but the peer may still be recovering its last
    // window and needs our acks. Extract until the wire has been quiet for
    // a beat.
    let mut last_in = ep.udp_stats().expect("udp wiring").datagrams_in;
    let mut last_activity = Instant::now();
    while last_activity.elapsed() < Duration::from_millis(500) {
        assert!(Instant::now() < deadline, "linger wedged");
        ep.extract();
        let now_in = ep.udp_stats().expect("udp wiring").datagrams_in;
        if now_in != last_in {
            last_in = now_in;
            last_activity = Instant::now();
        }
        std::thread::yield_now();
    }
    let log = got.lock().expect("receiver log");
    assert_eq!(
        *log,
        (0..msgs).collect::<Vec<u32>>(),
        "node {} must receive exactly-once in-order",
        me.0
    );

    ep.emit_beacon(); // final snapshot so a collector sees the end state
    let stats = ep.stats();
    let wire = ep.udp_stats().expect("udp wiring");
    let rtt = ep.rtt();
    println!(
        "RESULT delivered={} retransmitted={} timer_retransmits={} duplicates={} corrupt={} \
         datagrams_out={} generation_changes={} srtt_us={} rto_us={}",
        log.len(),
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

/// The first child drives `msgs` round trips and reports latency
/// percentiles; the second echoes from its handler.
fn child_pingpong(mut ep: MemEndpoint, me: NodeId, other: NodeId, msgs: u32, deadline: Instant) {
    let pongs = Arc::new(AtomicU32::new(0));
    let p = pongs.clone();
    let h = if me == PAIR[0] {
        ep.register_handler(move |_, _, _| {
            p.fetch_add(1, Ordering::Relaxed);
        })
    } else {
        ep.register_handler(|out, src, data| out.send_copy(src, HandlerId(1), data))
    };
    assert_eq!(h, HandlerId(1), "symmetric registration");
    wait_established(&mut ep, other, deadline);

    if me == PAIR[1] {
        // Echo until every round is answered and the line has gone quiet.
        let mut last_progress = Instant::now();
        let mut last_delivered = 0u64;
        loop {
            ep.extract();
            let d = ep.stats().delivered;
            if d != last_delivered {
                last_delivered = d;
                last_progress = Instant::now();
            } else if d >= msgs as u64 && last_progress.elapsed() > Duration::from_millis(200) {
                break;
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

    rtts_us.sort_by(f64::total_cmp);
    let pct = |p: f64| rtts_us[((rtts_us.len() - 1) as f64 * p) as usize];
    let goodput_mbs = (2.0 * msgs as f64 * PING_BYTES as f64) / elapsed / 1e6;
    println!(
        "RESULT p50_us={:.2} p99_us={:.2} goodput_mbs={:.3}",
        pct(0.50),
        pct(0.99),
        goodput_mbs,
    );
}
