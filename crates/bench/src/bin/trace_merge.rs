//! Cluster-wide causal tracing demo and gate: drive a lossy 4-endpoint
//! ring-fabric cluster, then merge every endpoint's trace ring into one
//! clock-aligned chrome-trace timeline with cross-endpoint flow arrows.
//!
//! Node 0 launches tokens that hop around the ring (each handler forwards
//! to the next node, inheriting the message's trace context with the hop
//! stamp incremented), so a single sampled trace id threads through all
//! four endpoints. The wire drops 5% of frames, exercising retransmit
//! spans and orphan counting.
//!
//! ```sh
//! cargo run --release -p fm-bench --bin trace_merge -- [--smoke] [--out PREFIX]
//! ```
//!
//! Every endpoint beacons into one collector as the run goes, which writes
//! `PREFIX.trace.json`, `PREFIX.prom` and `PREFIX.csv`; the bin exits
//! nonzero unless the merged timeline pairs a cross-endpoint flow, shows
//! all four endpoint lanes and never places a receive before its send
//! ([`fm_bench::merged_trace`]).

use fm_bench::merged_trace::{self, Beacons};
use fm_bench::report::Args;
use fm_core::mem::{FabricKind, MemCluster};
use fm_core::{EndpointConfig, FaultConfig, HandlerId, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const NODES: usize = 4;
/// Per-category fault rate of the wire.
const LOSS: f64 = 0.05;
/// Causal trace sampling: dense enough that every run pairs flows.
const TRACE_ONE_IN: u32 = 4;

fn main() {
    let args = Args::parse("trace_merge", &[]);
    let (tokens, hops) = if args.smoke { (8u64, 16u64) } else { (32, 64) };

    // Tight timers suit the single-threaded drive loop; the generous
    // retry budget keeps 5% loss from declaring anyone dead mid-run.
    let config = EndpointConfig {
        window: 32,
        recv_ring: 64,
        rto_initial: 96,
        retry_budget: 64,
        trace_one_in: TRACE_ONE_IN,
        ..Default::default()
    };
    let faults = FaultConfig::uniform(0x0071_ACED, LOSS);
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
         trace 1-in-{TRACE_ONE_IN}...",
        LOSS * 100.0
    );
    let mut beacons = Beacons::new(&nodes, &[]);
    let mut launched = 0u64;
    let mut spins: u64 = 0;
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
        beacons.beacon(&nodes, &[]);
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
    println!("delivered {want} hops");
    merged_trace::finish(&args.out, beacons, &nodes, &[])
}
