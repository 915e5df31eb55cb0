//! Live-observability acceptance harness: one [`fm_telemetry::Collector`]
//! watches telemetry beacons from every kind of source the plane
//! supports, and the health detectors must each fire **exactly once** in
//! a seeded fault scenario. Writes `BENCH_obs.json` plus the collector's
//! rolling Prometheus text (`obs.prom`) and merged chrome trace
//! (`obs.trace.json`) for CI artifacts.
//!
//! Four phases feed the same collector socket:
//!
//! 1. **two-process UDP pair** — the binary re-executes itself twice
//!    (nodes 8 and 9, the `bench_udp` discovery dance); both children
//!    stream sequenced messages through 5% injected faults with beacons
//!    enabled, so the collector ingests endpoint beacons from separate
//!    OS processes over a real socket.
//! 2. **dead peer** — an in-process prober (node 10) burns its retry
//!    budget against a closed port (node 11); the `DeadPeers` counter
//!    delta must raise exactly one `dead_peer` alarm.
//! 3. **switched cluster** — 8 endpoints on the standard switch wiring.
//!    A 40% targeted-drop link makes node 0 retransmit-storm (exactly
//!    one `retransmit_storm` alarm); clean 7-into-1 incast traffic then
//!    populates the per-shard lanes *without* tripping the fairness
//!    detector; a synthetic skewed shard beacon (switch 99, CRC-framed
//!    through the same ingest path) fires exactly one `incast_capture`.
//! 4. **collectives** — four fm-mpi ranks over switch shards on real
//!    threads run barrier/allreduce/bcast cycles; their beacons carry
//!    the per-collective span events, so the collector's
//!    `fm_collective_duration_ticks` series must cover all three kinds.
//!
//! `--smoke` trims message counts; every alarm-count gate is enforced in
//! both modes (detector behaviour is the product under test, not a
//! performance number).

use fm_core::{
    EndpointConfig, FaultConfig, HandlerId, LinkFaults, MemEndpoint, NodeId, Roster, SwitchRunner,
    SwitchTopology, SwitchedCluster, TimeSource, UdpConfig,
};
use fm_mpi::{Communicator, ReduceOp};
use fm_telemetry::beacon::{self, Beacon, BeaconBody, Beaconer, ShardSample};
use fm_telemetry::Collector;
use std::io::{BufRead, BufReader, Write as _};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

const RUN_SEED: u64 = 0x0B5E_7A11;
const FAULT_RATE: f64 = 0.05;
const MAX_DELAY_US: u64 = 2_000;
/// Beacon pacing for the child processes (paced from inside extract).
/// Windows are kept wide so a scheduler stall's retransmit burst is
/// diluted by the surrounding clean traffic instead of reading as a
/// storm of its own.
const CHILD_BEACON_US: u64 = 200_000;
/// "Never" pacing for sources the parent flushes explicitly — phase
/// boundaries are the delta windows, which makes the detector gates
/// deterministic instead of racing the wall clock.
const MANUAL: u64 = u64::MAX / 4;
const WEDGE_AFTER: Duration = Duration::from_secs(120);

fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        run_child(&args);
        return;
    }

    let mut smoke = false;
    let mut out_path = "BENCH_obs.json".to_string();
    let mut prom_path = "obs.prom".to_string();
    let mut trace_path = "obs.trace.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = it.next().expect("--out requires a path").clone(),
            "--prom" => prom_path = it.next().expect("--prom requires a path").clone(),
            "--trace" => trace_path = it.next().expect("--trace requires a path").clone(),
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: bench_obs [--smoke] [--out PATH] [--prom PATH] [--trace PATH]");
                std::process::exit(2);
            }
        }
    }

    let mut collector = Collector::bind("127.0.0.1:0").expect("bind collector socket");
    let addr = collector.local_addr().expect("collector address");
    eprintln!("bench_obs: collector on {addr}");

    // Phase 1: endpoint beacons from two separate OS processes.
    let pair_msgs: u32 = if smoke { 1_500 } else { 6_000 };
    eprintln!("bench_obs: [1/4] two-process UDP pair, {pair_msgs} msgs/stream at 5% faults...");
    let delivered = run_udp_pair(&mut collector, addr, pair_msgs);
    assert_eq!(
        delivered,
        2 * pair_msgs as u64,
        "pair must deliver exactly-once"
    );
    let pair_beacons = (collector.endpoint_beacons(8), collector.endpoint_beacons(9));
    assert!(pair_beacons.0 > 0, "node 8 (child process) sent no beacons");
    assert!(pair_beacons.1 > 0, "node 9 (child process) sent no beacons");
    let pair_flows = collector.merged().flow_pairs();

    // Phase 2: dead-peer detector.
    eprintln!("bench_obs: [2/4] dead-peer probe against a closed port...");
    run_dead_peer(&mut collector, addr);

    // Phase 3: switched cluster — storm, clean incast, synthetic capture.
    let storm_msgs: u32 = if smoke { 300 } else { 1_200 };
    let incast_msgs: u32 = if smoke { 150 } else { 600 };
    eprintln!(
        "bench_obs: [3/4] switched cluster: {storm_msgs}-msg storm at 40% drop, \
         then {incast_msgs}x7 incast..."
    );
    let (shards_seen, fairness_clean) = run_switched(&mut collector, addr, storm_msgs, incast_msgs);
    synthetic_incast(&mut collector);

    // Phase 4: collective spans over threaded switch shards.
    let cycles: u32 = if smoke { 4 } else { 12 };
    eprintln!("bench_obs: [4/4] 4-rank collectives, {cycles} barrier/allreduce/bcast cycles...");
    let coll_kinds = run_collectives(&mut collector, addr, cycles);

    // ---- gates (enforced in --smoke too: detector behaviour, not perf) -----
    let (storm, incast, dead) = collector.alarm_counts();
    let prom = collector.prometheus();
    let trace = collector.chrome_trace();
    std::fs::write(&prom_path, &prom).unwrap_or_else(|e| panic!("writing {prom_path}: {e}"));
    std::fs::write(&trace_path, &trace).unwrap_or_else(|e| panic!("writing {trace_path}: {e}"));

    for a in collector.alarms() {
        println!("alarm: {}", a.describe());
    }
    // The exactly-once gates target the *seeded* fault sources: the 40%
    // link makes node 0 storm, the closed port kills node 10's peer, and
    // the hand-built switch-99 samples collapse fairness. The lossy
    // two-process soak may legitimately raise extra storm alarms when
    // the scheduler stalls a child (reported above, not gated).
    use fm_telemetry::Alarm;
    let seeded_storms = collector
        .alarms()
        .iter()
        .filter(|a| matches!(a, Alarm::RetransmitStorm { node: 0, .. }))
        .count() as u64;
    let seeded_dead = collector
        .alarms()
        .iter()
        .filter(|a| matches!(a, Alarm::DeadPeer { node: 10, .. }))
        .count() as u64;
    let seeded_incast = collector
        .alarms()
        .iter()
        .filter(|a| matches!(a, Alarm::IncastCapture { switch: 99, .. }))
        .count() as u64;
    assert_eq!(
        seeded_storms, 1,
        "seeded retransmit storm must fire exactly once"
    );
    assert_eq!(seeded_dead, 1, "seeded dead peer must fire exactly once");
    assert_eq!(
        seeded_incast, 1,
        "seeded incast capture must fire exactly once"
    );
    assert_eq!(
        incast, 1,
        "no real shard may trip the fairness detector (DRR keeps incast fair)"
    );
    assert!(
        coll_kinds >= 3,
        "collective duration series must cover barrier/allreduce/bcast \
         (saw {coll_kinds} kinds)"
    );
    assert!(
        !prom.contains("NaN"),
        "prometheus output must not contain NaN"
    );
    for needle in [
        "fm_shard_queue_depth",
        "fm_shard_deficit",
        "fm_shard_input_forwarded_total",
        "fm_alarms_total",
        "fm_beacons_total",
    ] {
        assert!(
            prom.contains(needle),
            "prometheus output missing {needle} series"
        );
    }

    let stats = &collector.stats;
    println!(
        "collector: {} datagrams, {} beacons ({} endpoint sources, {} shard sources), \
         {} seq gaps",
        stats.datagrams,
        stats.beacons,
        collector.endpoint_sources().len(),
        collector.shard_sources().len(),
        stats.seq_gaps,
    );
    println!(
        "alarms  : storm {storm}, incast {incast}, dead-peer {dead} \
         (seeded sources each fired exactly once)"
    );
    println!("pair    : {delivered} msgs exactly-once across processes, {pair_flows} merged flows");
    println!("shards  : {shards_seen} live lanes, clean-incast fairness {fairness_clean:.3}");
    println!("colls   : {coll_kinds} collective kinds with duration series");

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"obs\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"seed\": {seed},\n",
            "  \"alarms\": {{\n",
            "    \"retransmit_storm\": {storm},\n",
            "    \"incast_capture\": {incast},\n",
            "    \"dead_peer\": {dead}\n",
            "  }},\n",
            "  \"collector\": {{\n",
            "    \"datagrams\": {datagrams},\n",
            "    \"beacons\": {beacons},\n",
            "    \"crc_rejected\": {crc},\n",
            "    \"malformed\": {malformed},\n",
            "    \"foreign\": {foreign},\n",
            "    \"seq_gaps\": {gaps},\n",
            "    \"endpoint_sources\": {ep_sources},\n",
            "    \"shard_sources\": {shard_sources}\n",
            "  }},\n",
            "  \"udp_pair\": {{\n",
            "    \"messages_per_stream\": {pair_msgs},\n",
            "    \"delivered\": {delivered},\n",
            "    \"beacons_node8\": {b8},\n",
            "    \"beacons_node9\": {b9},\n",
            "    \"merged_flow_pairs\": {flows}\n",
            "  }},\n",
            "  \"switched\": {{\n",
            "    \"shard_lanes\": {shards_seen},\n",
            "    \"clean_incast_fairness\": {fairness:.4}\n",
            "  }},\n",
            "  \"collectives\": {{\n",
            "    \"cycles\": {cycles},\n",
            "    \"kinds_with_durations\": {kinds}\n",
            "  }}\n",
            "}}\n",
        ),
        smoke = smoke,
        seed = RUN_SEED,
        storm = storm,
        incast = incast,
        dead = dead,
        datagrams = stats.datagrams,
        beacons = stats.beacons,
        crc = stats.crc_rejected,
        malformed = stats.malformed,
        foreign = stats.foreign,
        gaps = stats.seq_gaps,
        ep_sources = collector.endpoint_sources().len(),
        shard_sources = collector.shard_sources().len(),
        pair_msgs = pair_msgs,
        delivered = delivered,
        b8 = pair_beacons.0,
        b9 = pair_beacons.1,
        flows = pair_flows,
        shards_seen = shards_seen,
        fairness = fairness_clean,
        cycles = cycles,
        kinds = coll_kinds,
    );
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    eprintln!("bench_obs: wrote {out_path}, {prom_path}, {trace_path}");
}

// ---- phase 1: two OS processes ---------------------------------------------

/// Spawn the two soak children with `--beacon` pointed at the collector,
/// polling the collector socket while they run (beacons arrive live, not
/// from a post-hoc buffer drain). Returns total messages delivered.
fn run_udp_pair(collector: &mut Collector, addr: SocketAddr, msgs: u32) -> u64 {
    let exe = std::env::current_exe().expect("own executable path");
    let spawn = |id: u16, peer: Option<SocketAddr>| {
        let mut cmd = Command::new(&exe);
        cmd.arg("--child")
            .arg("--id")
            .arg(id.to_string())
            .arg("--msgs")
            .arg(msgs.to_string())
            .arg("--beacon")
            .arg(addr.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(p) = peer {
            cmd.arg("--peer").arg(p.to_string());
        }
        cmd.spawn().expect("spawn child process")
    };

    let mut child8 = spawn(8, None);
    let mut out8 = BufReader::new(child8.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    out8.read_line(&mut line).expect("child 8 port line");
    let addr8: SocketAddr = line
        .trim()
        .strip_prefix("PORT ")
        .unwrap_or_else(|| panic!("child 8 spoke `{line}`, expected `PORT <addr>`"))
        .parse()
        .expect("child 8 announced address");
    let mut child9 = spawn(9, Some(addr8));
    let out9 = BufReader::new(child9.stdout.take().expect("piped stdout"));

    // Reader threads forward RESULT lines; the main thread polls beacons.
    let (tx, rx) = mpsc::channel::<String>();
    let readers: Vec<_> = [Box::new(out8) as Box<dyn BufRead + Send>, Box::new(out9)]
        .into_iter()
        .map(|reader| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for line in reader.lines() {
                    let _ = tx.send(line.expect("child stdout"));
                }
            })
        })
        .collect();
    drop(tx);

    let mut delivered = 0u64;
    let deadline = Instant::now() + WEDGE_AFTER;
    loop {
        collector.poll();
        match rx.recv_timeout(Duration::from_millis(2)) {
            Ok(line) => {
                if let Some(rest) = line.strip_prefix("RESULT delivered=") {
                    delivered += rest.trim().parse::<u64>().expect("delivered count");
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                assert!(Instant::now() < deadline, "udp pair wedged");
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    for r in readers {
        r.join().expect("reader thread");
    }
    let st8 = child8.wait().expect("join child 8");
    let st9 = child9.wait().expect("join child 9");
    assert!(st8.success(), "child 8 failed: {st8}");
    assert!(st9.success(), "child 9 failed: {st9}");
    // Final-flush beacons may still be in the socket buffer.
    std::thread::sleep(Duration::from_millis(20));
    collector.poll();
    delivered
}

// ---- phase 2: dead peer ----------------------------------------------------

fn run_dead_peer(collector: &mut Collector, addr: SocketAddr) {
    let dead_addr = {
        let s = std::net::UdpSocket::bind("127.0.0.1:0").expect("probe socket");
        s.local_addr().expect("probe addr")
    }; // closed here: the port is now dead
    let mut roster = Roster::new(16);
    roster.set(NodeId(11), dead_addr);
    let mut config = udp_config();
    config.retry_budget = 6;
    let mut ep = MemEndpoint::bind_udp(
        NodeId(10),
        UdpConfig::new("127.0.0.1:0".parse().unwrap(), roster),
        config,
    )
    .expect("bind dead-peer prober");
    ep.enable_beacon(addr, MANUAL).expect("beacon socket");
    ep.emit_beacon(); // baseline window

    // One probe frame only: its retry budget burning down is what
    // declares the peer dead, and six retransmits stay far below the
    // storm threshold — the dead-peer alarm must fire *alone*.
    let h = HandlerId(1);
    match ep.send_checked(NodeId(11), h, b"are you there") {
        Ok(()) => {}
        Err(e) => panic!("probe send failed: {e}"),
    }
    let deadline = Instant::now() + WEDGE_AFTER;
    while !ep.is_peer_dead(NodeId(11)) {
        assert!(Instant::now() < deadline, "dead peer never declared");
        ep.extract();
        std::thread::yield_now();
    }
    ep.emit_beacon(); // the window holding the DeadPeers delta
    std::thread::sleep(Duration::from_millis(20));
    collector.poll();
}

// ---- phase 3: switched cluster ---------------------------------------------

/// Storm then clean incast on one 8-host switched cluster, with shard
/// samples beaconed by the parent every few drive rounds. Returns (live
/// shard lanes seen by the collector, fairness on the clean incast).
fn run_switched(
    collector: &mut Collector,
    addr: SocketAddr,
    storm_msgs: u32,
    incast_msgs: u32,
) -> (usize, f64) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let topo = SwitchTopology::for_cluster_wide(8);
    // Node 0 -> node 5 loses 40% of frames: enough retransmission to
    // cross the storm thresholds inside one explicit delta window.
    let faults = FaultConfig::new(RUN_SEED).link(
        NodeId(0),
        NodeId(5),
        LinkFaults {
            drop: 0.40,
            dup: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            max_delay_ticks: 0,
        },
    );
    let mut cluster = SwitchedCluster::with_faults(&topo, Default::default(), faults);
    for ep in &mut cluster.endpoints {
        ep.enable_beacon(addr, MANUAL).expect("beacon socket");
        ep.emit_beacon(); // baseline windows for all 8 nodes
    }
    let mut shard_beacons: Vec<Beaconer> = cluster
        .shards
        .iter()
        .map(|s| Beaconer::shard(s.switch_id() as u16, addr, MANUAL).expect("shard beacon socket"))
        .collect();

    let got = Arc::new(AtomicU64::new(0));
    let sink = got.clone();
    cluster.endpoints[5].register_handler_at(HandlerId(1), move |_, _, _| {
        sink.fetch_add(1, Ordering::Relaxed);
    });
    let recv0 = Arc::new(AtomicU64::new(0));
    let sink0 = recv0.clone();
    cluster.endpoints[0].register_handler_at(HandlerId(2), move |_, _, _| {
        sink0.fetch_add(1, Ordering::Relaxed);
    });

    // Storm: only node 0 transmits, through the lossy link.
    let mut sent = 0u32;
    let mut rounds = 0u64;
    while got.load(Ordering::Relaxed) < storm_msgs as u64 {
        while sent < storm_msgs {
            match cluster.endpoints[0].try_send(NodeId(5), HandlerId(1), &[0xAB; 64][..]) {
                Ok(()) => sent += 1,
                Err(_) => break,
            }
        }
        cluster.drive_round();
        rounds += 1;
        if rounds.is_multiple_of(64) {
            emit_shard_samples(&cluster, &mut shard_beacons);
            collector.poll();
        }
        assert!(rounds < 10_000_000, "storm phase wedged");
    }
    for _ in 0..50 {
        cluster.drive_round();
    }
    for ep in &mut cluster.endpoints {
        ep.emit_beacon(); // the storm delta window
    }
    std::thread::sleep(Duration::from_millis(20));
    collector.poll();

    // Clean incast: nodes 1..8 all stream at node 0; DRR keeps the
    // per-input service fair, so the capture detector must stay quiet.
    let mut queued = [0u32; 7];
    rounds = 0;
    loop {
        for (i, q) in queued.iter_mut().enumerate() {
            let src = i + 1;
            while *q < incast_msgs {
                match cluster.endpoints[src].try_send(NodeId(0), HandlerId(2), &[0xCD; 64][..]) {
                    Ok(()) => *q += 1,
                    Err(_) => break,
                }
            }
        }
        cluster.drive_round();
        rounds += 1;
        if rounds.is_multiple_of(64) {
            emit_shard_samples(&cluster, &mut shard_beacons);
            collector.poll();
        }
        if queued.iter().all(|&q| q == incast_msgs)
            && recv0.load(Ordering::Relaxed) == 7 * incast_msgs as u64
        {
            break;
        }
        assert!(rounds < 10_000_000, "incast phase wedged");
    }
    for _ in 0..50 {
        cluster.drive_round();
    }
    emit_shard_samples(&cluster, &mut shard_beacons);
    for ep in &mut cluster.endpoints {
        ep.emit_beacon(); // calm windows start re-arming the storm latch
    }
    std::thread::sleep(Duration::from_millis(20));
    collector.poll();

    let host_switch = cluster.topology().switch_of(NodeId(0)) as u16;
    let fairness = collector.shard_fairness(host_switch);
    (collector.shard_sources().len(), fairness)
}

fn emit_shard_samples(cluster: &SwitchedCluster, beacons: &mut [Beaconer]) {
    for (shard, b) in cluster.shards.iter().zip(beacons.iter_mut()) {
        b.emit_shard(&shard.sample());
    }
}

/// A hand-built pair of shard beacons for a fictitious switch 99 whose
/// second sample shows one input capturing the fabric — the seeded
/// incast-collapse scenario, CRC-framed through the same ingest path
/// real beacons take.
fn synthetic_incast(collector: &mut Collector) {
    let base = ShardSample {
        switch_id: 99,
        forwarded: 4,
        input_forwarded: vec![1, 1, 1, 1],
        output_forwarded: vec![4],
        deficits: vec![0, 0, 0, 0],
        ..Default::default()
    };
    let skewed = ShardSample {
        switch_id: 99,
        forwarded: 2007,
        input_forwarded: vec![2001, 3, 3, 3],
        output_forwarded: vec![2007],
        deficits: vec![-512, 96, 96, 96],
        ..Default::default()
    };
    for (seq, sample) in [(0u32, &base), (1, &skewed)] {
        let datagram = beacon::encode(&Beacon {
            source: 99,
            seq,
            sent_micros: unix_micros(),
            body: BeaconBody::Shard(sample.clone()),
        });
        collector
            .ingest(&datagram, unix_micros())
            .expect("synthetic beacon decodes");
    }
}

// ---- phase 4: collective spans ---------------------------------------------

/// Four ranks over threaded switch shards run interleaved collectives
/// with beacons on; returns how many collective kinds have a duration
/// series in the collector.
fn run_collectives(collector: &mut Collector, addr: SocketAddr, cycles: u32) -> usize {
    let topo = SwitchTopology::for_cluster(4);
    let config = EndpointConfig {
        window: 256,
        recv_ring: 1024,
        // Threaded ranks spin in blocking collectives: deadlines must be
        // wall time (the MpiCluster policy), and span sampling is off so
        // the beacons' event windows stay dense in Coll* events.
        time_source: TimeSource::WallMicros,
        adaptive_rto: true,
        trace_one_in: 0,
        ..Default::default()
    };
    let cluster = SwitchedCluster::new(&topo, config);
    let (mut eps, shards) = cluster.split();
    for ep in &mut eps {
        ep.enable_beacon(addr, 500).expect("beacon socket");
    }
    let comms: Vec<Communicator> = eps
        .into_iter()
        .map(|ep| Communicator::adopt(ep, 4))
        .collect();
    let runner = SwitchRunner::start(shards);

    let handles: Vec<_> = comms
        .into_iter()
        .map(|mut c| {
            std::thread::spawn(move || {
                for _ in 0..cycles {
                    c.barrier();
                    c.allreduce(&[c.rank() as f64; 4], ReduceOp::Sum)
                        .expect("clean fabric");
                    let word = [c.rank() as u8; 8];
                    c.bcast(0, &word);
                    c.barrier();
                }
                for _ in 0..50 {
                    c.progress();
                    std::thread::yield_now();
                }
                c
            })
        })
        .collect();
    // Poll while the ranks run so paced beacons don't pile up in the
    // socket buffer.
    let mut ranks = Vec::new();
    for h in handles {
        while !h.is_finished() {
            collector.poll();
            std::thread::sleep(Duration::from_millis(1));
        }
        ranks.push(h.join().expect("rank thread"));
    }
    runner
        .shutdown(Duration::from_secs(30))
        .expect("shards drain and join");

    // Final flush, from the ranks handed back: each ships its newest
    // event window, which covers the last full collective cycle.
    for mut c in ranks {
        c.emit_beacon();
    }
    std::thread::sleep(Duration::from_millis(20));
    collector.poll();

    ["barrier", "allreduce", "bcast"]
        .iter()
        .filter(|kind| {
            collector.prometheus().contains(&format!(
                "fm_collective_duration_ticks_count{{coll=\"{kind}\"}}"
            ))
        })
        .count()
}

// ---- child process ---------------------------------------------------------

fn udp_config() -> EndpointConfig {
    EndpointConfig {
        window: 32,
        recv_ring: 64,
        rto_initial: 20_000,
        rto_max: 1 << 17,
        retry_budget: 64,
        adaptive_rto: true,
        seed: RUN_SEED,
        // Sample aggressively so the beacons' event windows carry span
        // events across the process boundary.
        trace_one_in: 4,
        ..Default::default()
    }
}

fn run_child(args: &[String]) {
    let mut id = u16::MAX;
    let mut msgs = 0u32;
    let mut peer: Option<SocketAddr> = None;
    let mut beacon: Option<SocketAddr> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--child" => {}
            "--id" => id = it.next().expect("id").parse().expect("id"),
            "--msgs" => msgs = it.next().expect("msgs").parse().expect("msgs"),
            "--peer" => peer = Some(it.next().expect("peer").parse().expect("peer addr")),
            "--beacon" => beacon = Some(it.next().expect("beacon").parse().expect("beacon addr")),
            other => panic!("unknown child argument `{other}`"),
        }
    }
    assert!(id == 8 || id == 9, "pair children are nodes 8 and 9");
    let me = NodeId(id);
    let other = NodeId(17 - id); // 8 <-> 9
    let mut roster = Roster::new(16);
    if let Some(a) = peer {
        roster.set(other, a);
    }
    let mut ep = MemEndpoint::bind_udp(
        me,
        UdpConfig::new("127.0.0.1:0".parse().unwrap(), roster),
        udp_config(),
    )
    .expect("bind child endpoint");
    if let Some(b) = beacon {
        ep.enable_beacon(b, CHILD_BEACON_US).expect("beacon socket");
    }
    let local = ep.udp_local_addr().expect("udp endpoint has an address");
    println!("PORT {local}");
    std::io::stdout().flush().expect("flush port line");

    ep.inject_faults(&FaultConfig {
        default: LinkFaults {
            drop: FAULT_RATE,
            dup: FAULT_RATE,
            corrupt: FAULT_RATE,
            delay: FAULT_RATE,
            max_delay_ticks: MAX_DELAY_US,
        },
        ..FaultConfig::new(RUN_SEED)
    });

    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let got = Arc::new(AtomicU64::new(0));
    let g = got.clone();
    let h = ep.register_handler(move |_, src, _| {
        assert_eq!(src, other);
        g.fetch_add(1, Ordering::Relaxed);
    });

    let deadline = Instant::now() + WEDGE_AFTER;
    while ep.udp_established(other) != Some(true) {
        assert!(Instant::now() < deadline, "handshake wedged");
        ep.extract();
        std::thread::yield_now();
    }

    let mut next = 0u32;
    loop {
        assert!(Instant::now() < deadline, "soak wedged");
        if next < msgs {
            if let Ok(()) = ep.try_send(other, h, &next.to_le_bytes()) {
                next += 1;
            }
        }
        ep.extract();
        assert!(!ep.is_peer_dead(other), "peer falsely declared dead");
        if next == msgs && got.load(Ordering::Relaxed) >= msgs as u64 && ep.is_quiescent() {
            break;
        }
        std::thread::yield_now();
    }
    // Linger so the peer's last window can recover on our acks.
    let quiet = Duration::from_millis(300);
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
    ep.emit_beacon(); // final counters for the collector
    println!("RESULT delivered={}", got.load(Ordering::Relaxed));
}
