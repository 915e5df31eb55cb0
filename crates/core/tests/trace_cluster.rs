//! Cluster-wide causal tracing integration tests.
//!
//! These drive real [`MemCluster`] endpoints (not synthesized events)
//! through the ring fabric and check the observability pipeline
//! end-to-end: trace contexts crossing the wire, span events landing in
//! the per-endpoint rings, [`fm_telemetry::merge`] pairing sends with
//! receives into a clock-aligned timeline, beacons raising a dead-peer
//! alarm in the collector, and the exported counts matching the ledger
//! that counts them. Everything but one test runs single-threaded on
//! seeded fault schedules, so failures reproduce; the exception runs the
//! ring on real threads and wall-clock time, where arrivals race sends.

use fm_core::{
    seg, ClusterRunner, EndpointConfig, EndpointStats, FabricKind, FaultConfig, HandlerId,
    MemCluster, MemEndpoint, NodeId, TimeSource,
};
use fm_telemetry::merge::merge;
use fm_telemetry::{Alarm, BeaconSource, ClusterClock, Collector, Counter, EventKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 4;

/// Drive `tokens` hop-counters around a `NODES`-endpoint ring until every
/// hop is delivered and all endpoints quiesce. Every node's handler
/// forwards to its ring successor, inheriting the incoming trace context,
/// so each sampled token becomes one causal chain crossing all endpoints.
fn drive_ring(loss: f64, tokens: u64, hops: u64, trace_one_in: u32) -> Vec<MemEndpoint> {
    let config = EndpointConfig {
        window: 32,
        recv_ring: 64,
        rto_initial: 96,
        retry_budget: 64,
        trace_one_in,
        // Generous ring: the clean-run tests assert zero orphans, which
        // requires no span event to be overwritten.
        trace_capacity: 1 << 14,
        ..Default::default()
    };
    let faults = FaultConfig::uniform(0x0071_ACE5, loss);
    let mut nodes = MemCluster::with_faulty_fabric(NODES, config, FabricKind::Ring, faults);
    let delivered = Arc::new(AtomicU64::new(0));
    for ep in &mut nodes {
        let me = ep.node_id().0 as usize;
        let next = NodeId(((me + 1) % NODES) as u16);
        let d = delivered.clone();
        ep.register_handler_at(HandlerId(1), move |out, _src, data| {
            let h = u64::from_le_bytes(data.try_into().expect("8-byte token"));
            d.fetch_add(1, Ordering::Relaxed);
            if h < hops {
                out.send(next, HandlerId(1), (h + 1).to_le_bytes().to_vec());
            }
        });
    }
    let want = tokens * hops;
    let mut launched = 0u64;
    let mut spins = 0u64;
    loop {
        if launched < tokens
            && nodes[0]
                .try_send(NodeId(1), HandlerId(1), &1u64.to_le_bytes())
                .is_ok()
        {
            launched += 1;
        }
        for ep in &mut nodes {
            ep.extract();
        }
        if delivered.load(Ordering::Relaxed) >= want
            && launched == tokens
            && nodes.iter().all(|ep| ep.is_quiescent())
        {
            return nodes;
        }
        spins += 1;
        assert!(
            spins < 2_000_000,
            "ring wedged: {}/{want} deliveries",
            delivered.load(Ordering::Relaxed)
        );
    }
}

fn rings_of(nodes: &[MemEndpoint]) -> Vec<Vec<fm_telemetry::TraceEvent>> {
    nodes.iter().map(|n| n.telemetry().events()).collect()
}

/// Under 5% loss every traced `(trace, hop)` crossing that survived both
/// rings pairs with *exactly one* receive — retransmitted frames are
/// deduplicated before the receive span is recorded — and the rest become
/// counted orphans, never a panic or a double pairing.
#[test]
fn lossy_ring_pairs_traced_sends_exactly_once() {
    let nodes = drive_ring(0.05, 8, 32, 1);
    let rings = rings_of(&nodes);
    let report = merge(&rings);
    assert!(report.flow_pairs() > 0, "no traced crossing survived");

    // At most one wire-in span may exist per (trace, hop): duplicate
    // deliveries from retransmission must be suppressed before tracing.
    let mut sends: HashMap<(u32, u16), usize> = HashMap::new();
    let mut recvs: HashMap<(u32, u16), usize> = HashMap::new();
    for e in rings.iter().flatten() {
        match e.kind {
            EventKind::SpanSend { trace, hop, .. } => *sends.entry((trace, hop)).or_insert(0) += 1,
            EventKind::SpanWireIn { trace, hop, .. } => {
                *recvs.entry((trace, hop)).or_insert(0) += 1
            }
            _ => {}
        }
    }
    for (k, n) in &recvs {
        assert_eq!(*n, 1, "duplicate delivery traced for {k:?}");
    }
    for (k, n) in &sends {
        assert_eq!(*n, 1, "send span recorded twice for {k:?}");
    }
    // Accounting closes: every distinct send is either paired or an
    // orphan, and likewise every distinct receive.
    assert_eq!(report.flow_pairs() + report.orphan_sends, sends.len());
    assert_eq!(report.flow_pairs() + report.orphan_receives, recvs.len());
    assert_eq!(report.causal_violations, 0, "alignment broke causality");
}

/// On a clean (lossless) cluster the merged timeline is fully causal:
/// every flow's aligned receive is not earlier than its aligned send, all
/// four endpoints align to the reference clock, no orphans, and the
/// timeline starts at zero.
#[test]
fn clean_cluster_merged_timeline_is_causal() {
    let nodes = drive_ring(0.0, 4, 16, 1);
    let report = merge(&rings_of(&nodes));
    assert!(report.flow_pairs() > 0);
    assert_eq!(report.orphan_sends, 0, "lossless run must pair everything");
    assert_eq!(report.orphan_receives, 0);
    assert_eq!(report.causal_violations, 0);
    for f in &report.flows {
        assert!(
            f.recv_ts >= f.send_ts,
            "flow {:#x}/{} received at {} before sent at {}",
            f.trace,
            f.hop,
            f.recv_ts,
            f.send_ts
        );
    }
    for n in 0..NODES as u16 {
        assert!(report.clock.is_aligned(n), "node {n} never aligned");
    }
    assert_eq!(report.events.iter().map(|e| e.ts).min(), Some(0));
}

/// The ring on its own threads under wall-clock time, every send traced:
/// each node services its wire while its predecessor pushes into it, so a
/// batch can become visible between two clock readings. An arrival is
/// stamped with a reading taken after the batch that carried it became
/// visible, never before its send: the merged timeline has no causal
/// violation and every flow's receive is at or after its send.
#[test]
fn threaded_wall_clock_ring_never_stamps_an_arrival_before_its_send() {
    const TOKENS: u64 = 8;
    const HOPS: u64 = 64;
    let config = EndpointConfig {
        time_source: TimeSource::WallMicros,
        trace_one_in: 1,
        trace_capacity: 1 << 14,
        ..Default::default()
    };
    let mut nodes = MemCluster::with_config(NODES, config);
    let delivered = Arc::new(AtomicU64::new(0));
    for ep in &mut nodes {
        let next = NodeId(((ep.node_id().0 as usize + 1) % NODES) as u16);
        let d = delivered.clone();
        ep.register_handler_at(HandlerId(1), move |out, _src, data| {
            let h = u64::from_le_bytes(data.try_into().expect("8-byte token"));
            d.fetch_add(1, Ordering::Relaxed);
            if h < HOPS {
                out.send(next, HandlerId(1), (h + 1).to_le_bytes().to_vec());
            }
        });
    }
    for _ in 0..TOKENS {
        nodes[0].send(NodeId(1), HandlerId(1), &1u64.to_le_bytes());
    }
    let runner = ClusterRunner::start(nodes);
    let deadline = Instant::now() + Duration::from_secs(60);
    while delivered.load(Ordering::Relaxed) < TOKENS * HOPS {
        assert!(
            Instant::now() < deadline,
            "ring wedged: {}/{} deliveries",
            delivered.load(Ordering::Relaxed),
            TOKENS * HOPS
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let nodes = runner
        .shutdown(Duration::from_secs(10))
        .expect("service threads join");
    let report = merge(&rings_of(&nodes));
    assert!(report.flow_pairs() as u64 >= TOKENS * HOPS);
    assert_eq!(report.causal_violations, 0);
    for f in &report.flows {
        assert!(
            f.recv_ts >= f.send_ts,
            "flow {:#x}/{} received at {} before sent at {}",
            f.trace,
            f.hop,
            f.recv_ts,
            f.send_ts
        );
    }
}

/// Skew one endpoint's virtual clock by a known amount before any traffic
/// flows: the estimated offset must recover it to within RTT/2 (the NTP
/// midpoint bound), and the merged timeline built on those offsets must
/// still order every receive at-or-after its send.
#[test]
fn injected_clock_offset_is_recovered() {
    const SKEW: u64 = 500;
    let config = EndpointConfig {
        trace_one_in: 1,
        ..Default::default()
    };
    let mut nodes = MemCluster::with_fabric(2, config, FabricKind::Ring);
    let mut b = nodes.pop().unwrap();
    let mut a = nodes.pop().unwrap();
    // Each extract advances the virtual clock by one tick; idle-spinning b
    // injects a pure clock offset with no message traffic.
    for _ in 0..SKEW {
        b.extract();
    }
    let h = b.register_handler(|_, _, _| {});
    for i in 0..32u64 {
        a.send(NodeId(1), h, &i.to_le_bytes());
        for _ in 0..4 {
            a.extract();
            b.extract();
        }
    }
    for _ in 0..64 {
        a.extract();
        b.extract();
    }
    assert!(a.is_quiescent() && b.is_quiescent());

    let rings = vec![a.telemetry().events(), b.telemetry().events()];
    let all: Vec<fm_telemetry::TraceEvent> = rings.iter().flatten().copied().collect();
    let clock = ClusterClock::from_events(&all);
    assert!(clock.is_aligned(1));
    let err = (clock.offset(1) - SKEW as i64).abs();
    let bound = (clock.chain_rtt(1) as i64 + 1) / 2;
    assert!(
        err <= bound,
        "estimated offset {} missed injected {SKEW} by {err} > rtt/2 = {bound}",
        clock.offset(1)
    );
    let report = merge(&rings);
    assert!(report.flow_pairs() > 0);
    assert_eq!(report.causal_violations, 0);
}

/// The next beacon from `ep`, stamped with its tick, into `collector`.
fn beacon(collector: &mut Collector, src: &mut BeaconSource, ep: &MemEndpoint) {
    let (counters, gauges) = (ep.observability_counters(), ep.observability_gauges());
    let datagram = src.endpoint_beacon(ep.now(), counters, gauges);
    collector
        .ingest(&datagram, ep.now())
        .expect("a fresh beacon");
}

/// A dead-peer declaration surfaces in the next beacon as exactly one
/// `DeadPeer` alarm, a quiet beacon after it raises none, and the
/// collector's merged window shows the declaration.
#[test]
fn dead_peer_raises_one_alarm_and_shows_in_the_merged_window() {
    let cfg = EndpointConfig {
        window: 16,
        recv_ring: 16,
        rto_initial: 8,
        rto_max: 64,
        retry_budget: 4,
        trace_one_in: 1,
        ..Default::default()
    };
    let faults = FaultConfig::new(99).stall(NodeId(1));
    let mut nodes = MemCluster::with_faulty_fabric(2, cfg, FabricKind::Ring, faults);
    let _stalled = nodes.pop().unwrap(); // node 1: never driven, frames blackhole
    let mut a = nodes.pop().unwrap();

    let mut collector = Collector::new();
    let mut src = BeaconSource::endpoint(a.telemetry().clone());
    beacon(&mut collector, &mut src, &a);
    for _ in 0..4 {
        a.try_send(NodeId(1), HandlerId(1), b"hello?").unwrap();
    }
    let mut iters = 0;
    while !a.is_peer_dead(NodeId(1)) {
        iters += 1;
        assert!(iters < 10_000, "dead-peer detection wedged");
        a.extract();
    }
    assert!(
        collector.alarms().is_empty(),
        "alarm before a beacon saw death"
    );

    beacon(&mut collector, &mut src, &a);
    let dead = Alarm::DeadPeer {
        node: 0,
        dead_peers: 1,
    };
    assert_eq!(
        collector.alarms(),
        [dead],
        "the death beacon raises one alarm"
    );
    assert!(collector.chrome_trace().contains("\"name\":\"peer_dead\""));

    beacon(&mut collector, &mut src, &a);
    assert_eq!(collector.alarms(), [dead], "a quiet beacon raises none");
}

/// The `fm_<counter>_total{node=...}` lines of the Prometheus scrape a
/// collector serves once every endpoint of `nodes` has beaconed into it,
/// the way every exporter is fed.
fn exported_totals(nodes: &[MemEndpoint]) -> Vec<String> {
    let mut collector = Collector::new();
    for ep in nodes {
        beacon(
            &mut collector,
            &mut BeaconSource::endpoint(ep.telemetry().clone()),
            ep,
        );
    }
    let names: Vec<String> = Counter::ALL
        .iter()
        .map(|c| format!("fm_{}_total{{node=", c.name()))
        .collect();
    let prom = collector.prometheus();
    prom.lines()
        .filter(|l| names.iter().any(|n| l.starts_with(n.as_str())))
        .map(String::from)
        .collect()
}

/// `fm_<counter>_total{node="N"} V` for every counter, `value(c, N)` each.
fn totals(nodes: u16, value: impl Fn(Counter, u16) -> u64) -> Vec<String> {
    let line = |c: Counter, n| format!("fm_{}_total{{node=\"{n}\"}} {}", c.name(), value(c, n));
    Counter::ALL
        .iter()
        .flat_map(|&c| (0..nodes).map(move |n| line(c, n)))
        .collect()
}

/// What `examples/observed_cluster.rs` exports, pinned: its lossy
/// 500-message run scrapes to the counts the example wrote while every
/// event was still counted a second time, in the telemetry handle —
/// except two that the wire-format-2 change moved. Node 0's 62 stale acks
/// are re-acks of duplicates whose frames were already freed, counted
/// since acks name seqs. One of the injected bit flips lands on a byte
/// that was the piggyback count in version 1 (refused as a codec error)
/// and is part of the seq in version 2 (caught by the CRC), so node 1
/// counts 15 corrupt frames, not 14.
#[test]
fn observed_cluster_exports_its_pinned_counts() {
    const MSGS: u64 = 500;
    let config = EndpointConfig {
        window: 32,
        recv_ring: 32,
        rto_initial: 64,
        retry_budget: 32,
        trace_one_in: 8,
        ..Default::default()
    };
    let faults = FaultConfig::uniform(0x0B5E_87ED, 0.05);
    let mut nodes = MemCluster::with_faulty_fabric(2, config, FabricKind::Ring, faults);
    let received = Arc::new(AtomicU64::new(0));
    let r = received.clone();
    nodes[0].register_handler(|_, _, _| {});
    let h = nodes[1].register_handler(move |_, _, _| {
        r.fetch_add(1, Ordering::Relaxed);
    });
    let mut sent = 0u32;
    while u64::from(sent) < MSGS
        || received.load(Ordering::Relaxed) < MSGS
        || !nodes.iter().all(|ep| ep.is_quiescent())
    {
        if u64::from(sent) < MSGS && nodes[0].try_send(NodeId(1), h, &sent.to_le_bytes()).is_ok() {
            sent += 1;
        }
        for ep in &mut nodes {
            ep.extract();
        }
    }
    let pinned = totals(2, |c, node| match (c, node) {
        (Counter::Sends, 0) => 500,
        (Counter::Retransmits, 0) => 138,
        (Counter::TimerRetransmits, 0) => 1,
        (Counter::CorruptFrames, 0) => 19,
        (Counter::ReAcks, 1) => 99,
        (Counter::CorruptFrames, 1) => 15,
        (Counter::StaleAcks, 0) => 62,
        _ => 0,
    });
    assert_eq!(exported_totals(&nodes), pinned);
}

/// After a lossy run in which node 1 also gives up on a silent node 2,
/// every exported count equals the cell that counts it: the endpoint's
/// `EndpointStats`, or the reassembler's evictions and aborts. Node 2
/// leaves 65 large messages half sent at node 1, which holds one partial
/// per source: each opening displaces the one before it (64 evicted) and
/// the last is aborted when node 2 is declared dead (1). The sum is 65
/// under any per-source bound; a cap of 64 open per source split it
/// (1, 64).
#[test]
fn exported_counts_equal_the_ledger() {
    let config = EndpointConfig {
        window: 16,
        recv_ring: 8,
        rto_initial: 16,
        rto_max: 64,
        retry_budget: 8,
        ..Default::default()
    };
    let faults = FaultConfig::uniform(0x1ED6_E500, 0.05);
    let mut nodes = MemCluster::with_faulty_fabric(3, config, FabricKind::Ring, faults);
    let received = Arc::new(AtomicU64::new(0));
    let r = received.clone();
    let h = nodes[1].register_handler(move |_, _, _| {
        r.fetch_add(1, Ordering::Relaxed);
    });
    // Node 0 streams 200 messages at node 1, and node 2 opens 65 large
    // messages there without finishing one.
    let (mut sent, mut opened) = (0u32, 0u32);
    for spins in 0.. {
        assert!(spins < 100_000, "lossy phase wedged: {nodes:?}");
        if sent < 200 && nodes[0].try_send(NodeId(1), h, &sent.to_le_bytes()).is_ok() {
            sent += 1;
        }
        let opening = &seg::fragment(opened, h, &[7; 200])[0];
        if opened < 65 && nodes[2].try_send(NodeId(1), HandlerId(0), opening).is_ok() {
            opened += 1;
        }
        for ep in &mut nodes {
            ep.extract();
        }
        if received.load(Ordering::Relaxed) == 200
            && opened == 65
            && nodes[0].is_quiescent()
            && nodes[2].is_quiescent()
        {
            break;
        }
    }
    // Node 2 falls silent; node 1's next message to it exhausts the
    // retry budget.
    nodes[1].try_send(NodeId(2), h, b"still there?").unwrap();
    while !nodes[1].is_peer_dead(NodeId(2)) {
        nodes[0].extract();
        nodes[1].extract();
    }

    let stats: Vec<EndpointStats> = nodes.iter().map(MemEndpoint::stats).collect();
    let ledger = totals(3, |c, node| {
        let s = stats[node as usize];
        let (evicted, aborted) = if node == 1 { (64, 1) } else { (0, 0) };
        match c {
            Counter::Sends => s.sent,
            Counter::Bounces => s.bounced,
            Counter::Retransmits => s.retransmitted,
            Counter::TimerRetransmits => s.timer_retransmits,
            Counter::ReAcks => s.duplicates,
            Counter::CorruptFrames => s.corrupt,
            Counter::DeadPeers => s.dead_peers,
            Counter::ReassemblyAborts => aborted,
            Counter::EvictedPartials => evicted,
            Counter::StaleAcks => s.stale_acks,
            Counter::SeqBufferMisuse => s.seq_buffer_misuse,
        }
    });
    assert_eq!(exported_totals(&nodes), ledger);
    for (ep, s) in nodes.iter().zip(&stats) {
        let dead_marks = (0..3).filter(|&p| ep.is_peer_dead(NodeId(p))).count();
        assert_eq!(s.dead_peers, dead_marks as u64, "{ep:?}");
    }
    // The run exercised what it exports.
    assert_eq!(stats[1].dead_peers, 1);
    let some = |cell: fn(&EndpointStats) -> u64| stats.iter().any(|s| cell(s) > 0);
    assert!(
        some(|s| s.timer_retransmits) && some(|s| s.bounced),
        "{stats:?}"
    );
    assert!(some(|s| s.duplicates) && some(|s| s.corrupt), "{stats:?}");
}
