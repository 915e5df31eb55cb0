//! The observability tail `trace_merge` and `trace_scaling` share: every
//! endpoint and switch shard beacons into one [`Collector`] as the run
//! goes, and at the end the collector writes `PREFIX.trace.json` (open at
//! <https://ui.perfetto.dev>), `PREFIX.prom` and `PREFIX.csv`, and the
//! merged view is gated.

use crate::report::{verdict, Gate};
use fm_core::{MemEndpoint, SwitchShard};
use fm_telemetry::{BeaconSource, Collector};

/// Beacons from every endpoint and shard of a round-driven run, built
/// without a socket and handed to one [`Collector`], stamped with
/// endpoint 0's tick: the clock its span events carry, so the shard lanes
/// line up with the flows.
pub struct Beacons {
    collector: Collector,
    endpoints: Vec<BeaconSource>,
    shards: Vec<BeaconSource>,
}

impl Beacons {
    pub fn new(endpoints: &[MemEndpoint], shards: &[SwitchShard]) -> Beacons {
        Beacons {
            collector: Collector::new(),
            endpoints: endpoints
                .iter()
                .map(|ep| BeaconSource::endpoint(ep.telemetry().clone()))
                .collect(),
            shards: shards
                .iter()
                .map(|s| BeaconSource::shard(s.switch_id() as u16))
                .collect(),
        }
    }

    /// One beacon from every endpoint and shard. Call it every drive
    /// round: a beacon ships an endpoint's newest 96 trace events, so the
    /// collector's deduplicated window then holds every event of the run
    /// but those of a round in which one endpoint records more than 96.
    pub fn beacon(&mut self, endpoints: &[MemEndpoint], shards: &[SwitchShard]) {
        let at = endpoints[0].now();
        for (src, ep) in self.endpoints.iter_mut().zip(endpoints) {
            let (counters, gauges) = (ep.observability_counters(), ep.observability_gauges());
            let datagram = src.endpoint_beacon(at, counters, gauges);
            self.collector
                .ingest(&datagram, at)
                .expect("a fresh beacon");
        }
        for (src, shard) in self.shards.iter_mut().zip(shards) {
            let datagram = src.shard_beacon(at, &shard.sample());
            self.collector
                .ingest(&datagram, at)
                .expect("a fresh beacon");
        }
    }
}

/// Beacon once more, write the collector's three exports and gate them
/// (all enforced): at least one cross-endpoint flow pair, one process
/// lane per endpoint, no receive aligned before its send, and both
/// scrapes start with their header. Exits 1 iff one of them failed.
pub fn finish(
    prefix: &str,
    mut beacons: Beacons,
    endpoints: &[MemEndpoint],
    shards: &[SwitchShard],
) -> ! {
    beacons.beacon(endpoints, shards);
    let collector = &beacons.collector;
    let report = collector.merged();
    let (prom, csv) = (collector.prometheus(), collector.csv());
    let paths = ["trace.json", "prom", "csv"].map(|ext| format!("{prefix}.{ext}"));
    for (path, body) in paths
        .iter()
        .zip([collector.chrome_trace(), prom.clone(), csv.clone()])
    {
        std::fs::write(path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }

    let mut lanes: Vec<u16> = report.events.iter().map(|e| e.node).collect();
    lanes.sort_unstable();
    lanes.dedup();
    println!(
        "merged {} events from {} endpoints out of {} beacons; flows: {} cross-endpoint \
         pairs, {} orphan sends, {} orphan receives, {} causal violations",
        report.events.len(),
        lanes.len(),
        collector.stats.beacons,
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
