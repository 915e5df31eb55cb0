//! Scaling-diagnosis tracing: run the `bench_scaling` n=8 configuration —
//! 4 disjoint pairs streaming through the live switched fabric — with
//! causal trace sampling on, and merge every endpoint's trace ring into
//! one clock-aligned chrome-trace timeline.
//!
//! This is the tool the n=8 scaling "anomaly" called for: when a sweep
//! point regresses, the merged timeline shows where sampled frames spent
//! their time (send → wire → switch ring → handler), and the per-shard
//! poll-occupancy histograms show whether the adaptive batcher saw a busy
//! or an idle fabric. CI runs it in smoke mode and uploads the trace as
//! an artifact, so a future dip is inspectable from the run page at
//! <https://ui.perfetto.dev> without a local repro.
//!
//! ```sh
//! cargo run --bin trace_scaling -- [--smoke] [--out PREFIX]
//!                                  [--trace-one-in N] [--n HOSTS]
//! ```
//!
//! Writes `PREFIX.trace.json`, `PREFIX.prom` and `PREFIX.csv`. Exits
//! nonzero if the merged timeline contains no cross-endpoint flow pair
//! while telemetry is enabled — the same pipeline gate as `trace_merge`,
//! now pointed at the switched runtime.
//!
//! Switch shards are first-class in every output: the drive loop samples
//! each shard periodically, so the Prometheus/CSV scrape carries per-shard
//! queue-depth, deficit and per-port forwarding series, and the chrome
//! trace gains counter lanes per shard alongside the span flows.

use fm_core::{EndpointConfig, HandlerId, NodeId, SwitchTopology, SwitchedCluster};
use fm_telemetry::MetricsAggregator;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut prefix = "trace_scaling".to_string();
    let mut trace_one_in: u32 = 8;
    let mut n: usize = 8;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(p) => prefix = p.clone(),
                None => usage("--out requires a prefix"),
            },
            "--trace-one-in" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => trace_one_in = v,
                None => usage("--trace-one-in requires an integer"),
            },
            "--n" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 2 => n = v,
                _ => usage("--n requires a host count >= 2"),
            },
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let count: usize = if smoke { 150 } else { 600 };
    let pairs = n / 2;

    let topo = SwitchTopology::for_cluster_wide(n);
    let config = EndpointConfig {
        trace_one_in,
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
        "trace_scaling: n={n} ({pairs} pairs x {count} msgs), trace 1-in-{trace_one_in}, \
         {} switch shard(s)...",
        cluster.shards.len()
    );
    // Deterministic single-threaded drive: same frames, same shards as the
    // threaded sweep, but a replayable interleaving — diagnosis wants
    // stable timelines, not scheduler roulette.
    let payload = [0xC3u8; 128];
    let mut agg = MetricsAggregator::new();
    for ep in &cluster.endpoints {
        agg.register(ep.telemetry().clone());
    }
    let mut queued = vec![0usize; pairs];
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        // Periodic shard samples give the chrome-trace counter lanes real
        // time series (occupancy/deficits evolving over the run), not one
        // end-of-run point. Tick-domain timestamps — the same clock the
        // span events carry, so the lanes line up with the flows.
        if rounds.is_multiple_of(4) {
            let at = cluster.endpoints[0].now();
            for shard in &cluster.shards {
                agg.record_shard(at, shard.sample());
            }
        }
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
    }
    let final_at = cluster.endpoints[0].now();
    for shard in &cluster.shards {
        agg.record_shard(final_at, shard.sample());
    }
    for ep in &cluster.endpoints {
        agg.set_counters(ep.node_id().0, ep.observability_counters());
        agg.set_gauges(ep.node_id().0, ep.observability_gauges());
    }
    agg.tick(1);
    let report = agg.merged();

    let trace_path = format!("{prefix}.trace.json");
    let prom_path = format!("{prefix}.prom");
    let csv_path = format!("{prefix}.csv");
    let shard_lanes = agg.shard_lane_events();
    std::fs::write(&trace_path, report.chrome_trace_with(&shard_lanes))
        .unwrap_or_else(|e| panic!("writing {trace_path}: {e}"));
    std::fs::write(&prom_path, agg.prometheus())
        .unwrap_or_else(|e| panic!("writing {prom_path}: {e}"));
    std::fs::write(&csv_path, agg.csv()).unwrap_or_else(|e| panic!("writing {csv_path}: {e}"));

    println!(
        "delivered {} msgs over {rounds} drive rounds; merged {} events from {n} endpoints, \
         {} shard-lane points from {} shard(s)",
        pairs * count,
        report.events.len(),
        shard_lanes.len(),
        cluster.shards.len(),
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
    println!(
        "flows: {} cross-endpoint pairs, {} orphan sends, {} orphan receives, \
         {} causal violations",
        report.flow_pairs(),
        report.orphan_sends,
        report.orphan_receives,
        report.causal_violations,
    );
    println!("wrote {trace_path}, {prom_path}, {csv_path}");

    if report.flow_pairs() == 0 {
        eprintln!("trace_scaling: FAIL — no cross-endpoint flow pair in the merged trace");
        std::process::exit(1);
    }
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("usage: trace_scaling [--smoke] [--out PREFIX] [--trace-one-in N] [--n HOSTS]");
    std::process::exit(2);
}
