//! The tail `trace_merge` and `trace_scaling` share: scrape every
//! endpoint, merge their trace rings into one clock-aligned timeline,
//! write `PREFIX.trace.json` (open at <https://ui.perfetto.dev>),
//! `PREFIX.prom` and `PREFIX.csv`, and gate the merged view.

use crate::report::{verdict, Gate};
use fm_core::MemEndpoint;
use fm_telemetry::MetricsAggregator;

/// Gates (all enforced): at least one cross-endpoint flow pair, one
/// process lane per endpoint, no receive aligned before its send, and
/// both scrapes start with their header. Exits 1 iff one of them failed.
pub fn finish(prefix: &str, mut agg: MetricsAggregator, endpoints: &[MemEndpoint]) -> ! {
    for ep in endpoints {
        agg.register(ep.telemetry().clone());
        agg.set_counters(ep.node_id().0, ep.observability_counters());
        agg.set_gauges(ep.node_id().0, ep.observability_gauges());
    }
    agg.tick(1);
    let report = agg.merged();
    let shard_lanes = agg.shard_lane_events();
    let (prom, csv) = (agg.prometheus(), agg.csv());
    let paths = ["trace.json", "prom", "csv"].map(|ext| format!("{prefix}.{ext}"));
    for (path, body) in paths.iter().zip([
        report.chrome_trace_with(&shard_lanes),
        prom.clone(),
        csv.clone(),
    ]) {
        std::fs::write(path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }

    let mut lanes: Vec<u16> = report.events.iter().map(|e| e.node).collect();
    lanes.sort_unstable();
    lanes.dedup();
    println!(
        "merged {} events from {} endpoints, {} shard-lane points; flows: {} cross-endpoint \
         pairs, {} orphan sends, {} orphan receives, {} causal violations",
        report.events.len(),
        lanes.len(),
        shard_lanes.len(),
        report.flow_pairs(),
        report.orphan_sends,
        report.orphan_receives,
        report.causal_violations,
    );
    println!("wrote {}", paths.join(", "));
    let gates = [
        Gate::at_least("flow_pairs", report.flow_pairs() as f64, 1.0),
        Gate::at_least("endpoint_lanes", lanes.len() as f64, endpoints.len() as f64),
        Gate::at_most("receives_before_send", report.causal_violations as f64, 0.0),
        Gate::holds(
            "scrapes_headed",
            prom.starts_with("# HELP") && csv.starts_with("node,"),
        ),
    ];
    std::process::exit(verdict(&gates))
}
