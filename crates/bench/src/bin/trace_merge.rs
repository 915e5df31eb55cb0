//! Cluster-wide causal tracing demo + CI check: drive a lossy 4-endpoint
//! ring-fabric cluster, then merge every endpoint's trace ring into one
//! clock-aligned chrome-trace timeline with cross-endpoint flow arrows.
//!
//! Node 0 launches tokens that hop around the ring (each handler forwards
//! to the next node, inheriting the message's trace context with the hop
//! stamp incremented), so a single sampled trace id threads through all
//! four endpoints. The wire drops ~5% of frames, exercising retransmit
//! spans and orphan counting. Afterward the merged view, a Prometheus
//! scrape and a CSV snapshot are written:
//!
//! ```sh
//! cargo run --bin trace_merge -- [--smoke] [--out PREFIX]
//!                                [--loss P] [--trace-one-in N]
//! ```
//!
//! Writes `PREFIX.trace.json` (open at <https://ui.perfetto.dev>),
//! `PREFIX.prom` and `PREFIX.csv`. Exits nonzero if the merged timeline
//! contains no cross-endpoint flow pair while telemetry is enabled — the
//! CI gate for the tracing pipeline.

use fm_core::mem::{FabricKind, MemCluster};
use fm_core::{EndpointConfig, FaultConfig, HandlerId, NodeId};
use fm_telemetry::MetricsAggregator;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const NODES: usize = 4;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut prefix = "trace_merge".to_string();
    let mut loss = 0.05f64;
    let mut trace_one_in: u32 = 4;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(p) => prefix = p.clone(),
                None => usage("--out requires a prefix"),
            },
            "--loss" => match it.next().and_then(|v| v.parse().ok()) {
                Some(p) => loss = p,
                None => usage("--loss requires a probability"),
            },
            "--trace-one-in" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => trace_one_in = n,
                None => usage("--trace-one-in requires an integer"),
            },
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let (tokens, hops) = if smoke { (8u64, 16u64) } else { (32, 64) };

    // Tight timers suit the single-threaded drive loop; the generous
    // retry budget keeps 5% loss from declaring anyone dead mid-run.
    let config = EndpointConfig {
        window: 32,
        recv_ring: 64,
        rto_initial: 96,
        retry_budget: 64,
        trace_one_in,
        ..Default::default()
    };
    let faults = FaultConfig::uniform(0x0071_ACED, loss);
    let mut nodes = MemCluster::with_faulty_fabric(NODES, config, FabricKind::Ring, faults);

    // Every node forwards each token to its ring successor until the
    // token's hop budget is spent. Handler sends inherit the incoming
    // frame's trace context, so one sampled send at node 0 becomes a
    // causal chain crossing every endpoint.
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
    eprintln!(
        "trace_merge: {NODES} nodes, {tokens} tokens x {hops} hops, {:.0}% loss, \
         trace 1-in-{trace_one_in}...",
        loss * 100.0
    );
    let mut launched = 0u64;
    let mut spins: u64 = 0;
    loop {
        if launched < tokens {
            let first = NodeId(1);
            if nodes[0]
                .try_send(first, HandlerId(1), &1u64.to_le_bytes())
                .is_ok()
            {
                launched += 1;
            }
        }
        for ep in &mut nodes {
            ep.extract();
        }
        let done = delivered.load(Ordering::Relaxed) >= want
            && launched == tokens
            && nodes.iter().all(|ep| ep.is_quiescent());
        if done {
            break;
        }
        spins += 1;
        if spins > 5_000_000 {
            eprintln!(
                "trace_merge: WEDGED after {spins} spins ({}/{want} deliveries)",
                delivered.load(Ordering::Relaxed)
            );
            std::process::exit(1);
        }
    }

    // Aggregate + merge. One scrape tick gives the Prometheus/CSV export
    // a delta baseline; the merged view reads the trace rings directly.
    let mut agg = MetricsAggregator::new();
    for ep in &nodes {
        agg.register(ep.telemetry().clone());
        agg.set_counters(ep.node_id().0, ep.observability_counters());
    }
    agg.tick(1);
    let report = agg.merged();

    let trace_path = format!("{prefix}.trace.json");
    let prom_path = format!("{prefix}.prom");
    let csv_path = format!("{prefix}.csv");
    std::fs::write(&trace_path, report.chrome_trace())
        .unwrap_or_else(|e| panic!("writing {trace_path}: {e}"));
    std::fs::write(&prom_path, agg.prometheus())
        .unwrap_or_else(|e| panic!("writing {prom_path}: {e}"));
    std::fs::write(&csv_path, agg.csv()).unwrap_or_else(|e| panic!("writing {csv_path}: {e}"));

    println!(
        "delivered {want} hops; merged {} events from {NODES} endpoints",
        report.events.len()
    );
    let aligned = report
        .clock
        .nodes()
        .iter()
        .all(|&n| report.clock.is_aligned(n));
    println!(
        "flows: {} cross-endpoint pairs, {} orphan sends, {} orphan receives, \
         {} causal violations (clock {}aligned)",
        report.flow_pairs(),
        report.orphan_sends,
        report.orphan_receives,
        report.causal_violations,
        if aligned { "" } else { "NOT fully " }
    );
    println!("wrote {trace_path}, {prom_path}, {csv_path}");

    if report.flow_pairs() == 0 {
        eprintln!("trace_merge: FAIL — no cross-endpoint flow pair in the merged trace");
        std::process::exit(1);
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("usage: trace_merge [--smoke] [--out PREFIX] [--loss P] [--trace-one-in N]");
    std::process::exit(2);
}
