//! Scaling-diagnosis tracing: run the `bench_scaling` n=8 configuration —
//! 4 disjoint pairs streaming through the live switched fabric — with
//! causal trace sampling on, and merge every endpoint's trace ring into
//! one clock-aligned chrome-trace timeline.
//!
//! This is the tool the n=8 scaling "anomaly" called for: when a sweep
//! point regresses, the merged timeline shows where sampled frames spent
//! their time (send → wire → switch ring → handler), and the per-shard
//! poll-occupancy histograms show whether the adaptive batcher saw a busy
//! or an idle fabric.
//!
//! ```sh
//! cargo run --release -p fm-bench --bin trace_scaling -- [--smoke] [--out PREFIX]
//! ```
//!
//! Writes `PREFIX.trace.json`, `PREFIX.prom` and `PREFIX.csv` and gates
//! the merged view like `trace_merge` ([`fm_bench::merged_trace`]), now
//! pointed at the switched runtime.
//!
//! Switch shards are first-class in every output: they beacon beside the
//! endpoints as the run goes, so the Prometheus scrape carries per-shard
//! queue-depth, deficit and per-port forwarding series, and the chrome
//! trace gains counter lanes per shard alongside the span flows.

use fm_bench::merged_trace::{self, Beacons};
use fm_bench::report::Args;
use fm_core::{EndpointConfig, HandlerId, NodeId, SwitchTopology, SwitchedCluster};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hosts: `bench_scaling`'s n=8 sweep point.
const N: usize = 8;
/// Causal trace sampling for the diagnosis timeline.
const TRACE_ONE_IN: u32 = 8;

fn main() {
    let args = Args::parse("trace_scaling", &[]);
    let count: usize = if args.smoke { 150 } else { 600 };
    let pairs = N / 2;

    let topo = SwitchTopology::for_cluster_wide(N);
    let config = EndpointConfig {
        trace_one_in: TRACE_ONE_IN,
        ..Default::default()
    };
    let mut cluster = SwitchedCluster::new(&topo, config);
    let delivered: Vec<Arc<AtomicU64>> = (0..pairs).map(|_| Default::default()).collect();
    for (pair, counter) in delivered.iter().enumerate() {
        let c: Arc<AtomicU64> = counter.clone();
        cluster.endpoints[2 * pair + 1].register_handler_at(HandlerId(1), move |_, _, _| {
            c.fetch_add(1, Ordering::Relaxed);
        });
    }

    eprintln!(
        "trace_scaling: n={N} ({pairs} pairs x {count} msgs), trace 1-in-{TRACE_ONE_IN}, \
         {} switch shard(s)...",
        cluster.shards.len()
    );
    // Deterministic single-threaded drive: same frames, same shards as the
    // threaded sweep, but a replayable interleaving — diagnosis wants
    // stable timelines, not scheduler roulette.
    let payload = [0xC3u8; 128];
    let mut beacons = Beacons::new(&cluster.endpoints, &cluster.shards);
    let mut queued = vec![0usize; pairs];
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let mut all_sent = true;
        for (pair, q) in queued.iter_mut().enumerate() {
            while *q < count {
                match cluster.endpoints[2 * pair].try_send(
                    NodeId((2 * pair + 1) as u16),
                    HandlerId(1),
                    &payload,
                ) {
                    Ok(()) => *q += 1,
                    Err(_) => break,
                }
            }
            all_sent &= *q == count;
        }
        cluster.drive_round();
        beacons.beacon(&cluster.endpoints, &cluster.shards);
        if all_sent
            && delivered
                .iter()
                .all(|c| c.load(Ordering::Relaxed) as usize == count)
        {
            break;
        }
        if rounds > 1_000_000 {
            eprintln!("trace_scaling: WEDGED after {rounds} rounds");
            std::process::exit(1);
        }
    }
    // Trailing acks, so sender windows close before the scrape.
    for _ in 0..50 {
        cluster.drive_round();
        beacons.beacon(&cluster.endpoints, &cluster.shards);
    }

    println!(
        "delivered {} msgs over {rounds} drive rounds",
        pairs * count
    );
    for shard in &cluster.shards {
        let occ = shard.occupancy_histogram();
        println!(
            "shard {}: forwarded {}, stalled {}, batch {}, poll occupancy p50 {} / p99 {}",
            shard.switch_id(),
            shard.stats.forwarded,
            shard.stats.stalled,
            shard.batch(),
            occ.quantile(0.50),
            occ.quantile(0.99),
        );
    }
    merged_trace::finish(&args.out, beacons, &cluster.endpoints, &cluster.shards)
}
