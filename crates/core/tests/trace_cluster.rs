//! Cluster-wide causal tracing integration tests.
//!
//! These drive real [`MemCluster`] endpoints (not synthesized events)
//! through the ring fabric and check the observability pipeline
//! end-to-end: trace contexts crossing the wire, span events landing in
//! the per-endpoint rings, [`fm_telemetry::merge`] pairing sends with
//! receives into a clock-aligned timeline, and the flight recorder firing
//! on dead-peer declarations. Everything runs single-threaded on seeded
//! fault schedules, so failures reproduce.

use fm_core::{
    EndpointConfig, FabricKind, FaultConfig, HandlerId, MemCluster, MemEndpoint, NodeId,
};
use fm_telemetry::merge::merge;
use fm_telemetry::{ClusterClock, Counter, EventKind, MetricsAggregator};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    if !fm_telemetry::ENABLED {
        return;
    }
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
    if !fm_telemetry::ENABLED {
        return;
    }
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

/// Skew one endpoint's virtual clock by a known amount before any traffic
/// flows: the estimated offset must recover it to within RTT/2 (the NTP
/// midpoint bound), and the merged timeline built on those offsets must
/// still order every receive at-or-after its send.
#[test]
fn injected_clock_offset_is_recovered() {
    if !fm_telemetry::ENABLED {
        return;
    }
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

/// A dead-peer declaration must surface in the next aggregator scrape and
/// capture exactly one flight-recorder dump (the last-N merged events as
/// chrome-trace JSON); quiet ticks afterward must not dump again.
#[test]
fn dead_peer_triggers_flight_recorder_dump() {
    if !fm_telemetry::ENABLED {
        return;
    }
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

    let mut agg = MetricsAggregator::new();
    agg.register(a.telemetry().clone());

    for _ in 0..4 {
        a.try_send(NodeId(1), HandlerId(1), b"hello?").unwrap();
    }
    let mut iters = 0;
    while !a.is_peer_dead(NodeId(1)) {
        iters += 1;
        assert!(iters < 10_000, "dead-peer detection wedged");
        a.extract();
    }
    assert!(agg.flights().is_empty(), "dump before any scrape saw death");

    let sample = agg.tick(1);
    assert!(sample.total(Counter::DeadPeers) > 0);
    assert_eq!(agg.flights().len(), 1, "death scrape captures one dump");
    let dump = &agg.flights()[0];
    assert!(dump.dead_peer_delta > 0);
    assert!(dump.events > 0, "flight dump carries recent events");
    assert!(dump.json.starts_with("{\"traceEvents\":["));

    agg.tick(2);
    assert_eq!(agg.flights().len(), 1, "quiet tick must not dump again");
}

/// The merge pipeline itself is feature-agnostic: with `telemetry-off`
/// the rings are empty and the report degrades to an empty-but-valid
/// document; with telemetry on it carries real flows. Either way nothing
/// panics, so bins and CI can run one code path unconditionally.
#[test]
fn merge_pipeline_survives_telemetry_off() {
    let nodes = drive_ring(0.0, 2, 8, 1);
    let report = merge(&rings_of(&nodes));
    if fm_telemetry::ENABLED {
        assert!(report.flow_pairs() > 0);
    } else {
        assert!(report.events.is_empty());
        assert_eq!(report.flow_pairs(), 0);
        assert_eq!(report.orphan_sends + report.orphan_receives, 0);
    }
    // The chrome-trace document is well-formed JSON either way.
    let doc = report.chrome_trace();
    assert!(doc.starts_with("{\"traceEvents\":["));
    assert_eq!(doc.matches('{').count(), doc.matches('}').count());
}
