//! Observed cluster: the telemetry subsystem at work.
//!
//! ```sh
//! cargo run --example observed_cluster
//! ```
//!
//! Every endpoint counts each protocol event once, in its `EndpointStats`
//! ledger (sends, bounces, retransmits, re-acks, CRC rejects, dead
//! peers...), and carries an `fm_telemetry::Telemetry` handle with what
//! has no other home: log-bucketed latency histograms (send→ack RTT,
//! handler service time, poll batch occupancy) and a bounded ring of typed
//! trace events. This example runs a lossy two-node exchange, prints both
//! endpoints' exported counts (`observability_counters`) and histogram
//! summaries, and exports the sender's event ring as
//! `observed_trace.json` — load it at `chrome://tracing` (or
//! <https://ui.perfetto.dev>) to scrub through the protocol's life frame
//! by frame.
//!
//! Both endpoints also beacon every round into one [`Collector`] — the
//! same datagrams a multi-process cluster sends over UDP, handed over
//! in-process — which dumps the *merged* cluster view: every endpoint's
//! events clock-aligned onto one timeline (`observed_merged.json`, one
//! process lane per endpoint with flow arrows tying each traced send to
//! its receive) plus a Prometheus text scrape (`observed_metrics.prom`). For a bigger version of the same
//! pipeline — four endpoints, multi-hop causal chains — see the
//! `trace_merge` binary in `fm-bench`.

use fm_repro::fm_core::{
    EndpointConfig, FabricKind, FaultConfig, TelemetryCounter, TelemetryMetric,
};
use fm_repro::fm_telemetry::{BeaconSource, Collector};
use fm_repro::prelude::*;

/// Messages pushed through the lossy wire.
const MSGS: u32 = 500;

fn main() {
    // Tight timers for the single-threaded drive loop, and a lossy wire
    // so the telemetry has retransmissions and CRC rejects to count.
    let config = EndpointConfig {
        window: 32,
        recv_ring: 32,
        rto_initial: 64,
        retry_budget: 32,
        // Sample 1 in 8 sends for causal tracing so the merged view has a
        // healthy population of flow arrows (the production default, 64,
        // would trace only ~8 of the 500 messages here).
        trace_one_in: 8,
        ..Default::default()
    };
    let faults = FaultConfig::uniform(0x0B5E_87ED, 0.05);
    let mut nodes = MemCluster::with_faulty_fabric(2, config, FabricKind::Ring, faults);
    let mut b = nodes.pop().expect("node 1");
    let mut a = nodes.pop().expect("node 0");

    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    let received = Arc::new(AtomicU32::new(0));
    let r2 = received.clone();
    let ha = a.register_handler(|_, _, _| {});
    let hb = b.register_handler(move |_, _, _| {
        r2.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(ha, hb, "symmetric registration gives symmetric ids");

    let mut collector = Collector::new();
    let mut beacons = [&a, &b].map(|ep| BeaconSource::endpoint(ep.telemetry().clone()));
    let mut sent = 0u32;
    while sent < MSGS
        || received.load(Ordering::Relaxed) < MSGS
        || !a.is_quiescent()
        || !b.is_quiescent()
    {
        if sent < MSGS && a.try_send(NodeId(1), hb, &sent.to_le_bytes()).is_ok() {
            sent += 1;
        }
        a.extract();
        b.extract();
        let at = a.now();
        for (src, ep) in beacons.iter_mut().zip([&a, &b]) {
            let (counters, gauges) = (ep.observability_counters(), ep.observability_gauges());
            let beacon = src.endpoint_beacon(at, counters, gauges);
            collector.ingest(&beacon, at).expect("a fresh beacon");
        }
    }
    println!(
        "delivered {}/{MSGS} through a 5% lossy wire\n",
        received.load(Ordering::Relaxed)
    );

    // -- counters + histograms, per endpoint -------------------------------
    for (name, ep) in [("node 0 (sender)", &a), ("node 1 (receiver)", &b)] {
        println!("telemetry, {name}:");
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
    }
    println!(
        "sender recovered from loss: {} retransmits ({} timer-driven), {} re-acks seen by peer",
        a.stats().retransmitted,
        a.stats().timer_retransmits,
        b.stats().duplicates,
    );
    let t = a.telemetry();

    // -- event ring: chrome://tracing export ------------------------------
    let trace = t.chrome_trace();
    let events = t.events().len();
    std::fs::write("observed_trace.json", &trace).expect("write observed_trace.json");
    println!(
        "wrote observed_trace.json ({events} events, {} recorded in total) — \
         open it at chrome://tracing",
        t.events_recorded()
    );

    // -- merged cluster view: the collector clock-aligns both endpoints ---
    let report = collector.merged();
    std::fs::write("observed_merged.json", collector.chrome_trace())
        .expect("write observed_merged.json");
    std::fs::write("observed_metrics.prom", collector.prometheus())
        .expect("write observed_metrics.prom");
    println!(
        "\nmerged cluster timeline: {} events, {} flow pairs \
         ({} orphan sends, {} orphan receives, {} causal violations)",
        report.events.len(),
        report.flow_pairs(),
        report.orphan_sends,
        report.orphan_receives,
        report.causal_violations,
    );
    println!(
        "wrote observed_merged.json (one lane per endpoint, flow arrows \
         between them) and observed_metrics.prom (Prometheus text format)"
    );
}
