//! Cluster-wide metrics aggregation and export.
//!
//! A [`MetricsAggregator`] holds a clone of every endpoint's [`Telemetry`]
//! handle (histograms, trace ring) and the latest [`Counter`] values each
//! endpoint's driver pushed ([`MetricsAggregator::set_counters`]). Each
//! [`MetricsAggregator::tick`] reports per-counter *deltas* since the
//! previous tick. The current state exports as Prometheus text exposition
//! ([`MetricsAggregator::prometheus`]) or as CSV rows through the shared
//! `fm-metrics` csv module ([`MetricsAggregator::csv`]).
//!
//! The aggregator doubles as a **flight recorder**: when a tick observes a
//! `DeadPeers` counter advance on any endpoint, it merges the last-N trace
//! events of *all* endpoints into one clock-aligned timeline (see
//! [`crate::merge`]) and retains the chrome-trace JSON as a post-mortem
//! artifact — the cluster-wide picture of what led up to the death, taken
//! at the moment it was declared.

use crate::beacon::ShardSample;
use crate::collector::{shard_lane_fragments, shard_series_prometheus};
use crate::merge::{self, MergeReport};
use crate::{Counter, Metric, Telemetry};
use std::collections::BTreeMap;

/// Per-endpoint counter deltas observed by one tick.
#[derive(Debug, Clone, Copy)]
pub struct NodeDelta {
    pub node: u16,
    deltas: [u64; Counter::COUNT],
}

impl NodeDelta {
    pub fn delta(&self, c: Counter) -> u64 {
        self.deltas[c as usize]
    }
}

/// One scrape: the tick's timestamp plus every endpoint's deltas.
#[derive(Debug, Clone)]
pub struct TickSample {
    /// Caller-supplied scrape time (any monotonic unit).
    pub at: u64,
    pub nodes: Vec<NodeDelta>,
}

impl TickSample {
    /// Sum of one counter's delta across all endpoints.
    pub fn total(&self, c: Counter) -> u64 {
        self.nodes.iter().map(|n| n.delta(c)).sum()
    }
}

/// A post-mortem artifact captured when a tick saw a peer declared dead.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// The tick timestamp that triggered the capture.
    pub at: u64,
    /// How many `DeadPeers` advances this tick observed.
    pub dead_peer_delta: u64,
    /// Merged events retained (after the last-N cut).
    pub events: usize,
    /// Cross-endpoint flow pairs inside the retained window.
    pub flow_pairs: usize,
    /// The merged timeline as a chrome-trace JSON document.
    pub json: String,
}

/// Scrapes registered endpoints into counter deltas with Prometheus / CSV
/// export and a dead-peer flight recorder.
pub struct MetricsAggregator {
    handles: Vec<Telemetry>,
    /// The latest counters pushed per node, in [`Counter::ALL`] order.
    counters: BTreeMap<u16, [u64; Counter::COUNT]>,
    /// Each registered endpoint's counters at the previous tick (the delta
    /// baseline), parallel to `handles`.
    last: Vec<[u64; Counter::COUNT]>,
    history_cap: usize,
    flight_last_n: usize,
    flights: Vec<FlightDump>,
    /// Named transport gauges per node (e.g. `UdpStats` fields,
    /// `peer_resets`), exported alongside the counters.
    gauges: BTreeMap<u16, Vec<(String, u64)>>,
    /// Per-switch-shard sample history, `(at, sample)`, bounded by
    /// `history_cap`. The latest sample drives the Prometheus shard lanes;
    /// the whole window drives the chrome-trace counter tracks.
    shards: BTreeMap<u16, Vec<(u64, ShardSample)>>,
}

/// Default bound on retained shard samples per switch.
pub const DEFAULT_HISTORY: usize = 256;
/// Default last-N merged events a flight dump retains.
pub const DEFAULT_FLIGHT_EVENTS: usize = 512;

impl MetricsAggregator {
    pub fn new() -> Self {
        Self::with_bounds(DEFAULT_HISTORY, DEFAULT_FLIGHT_EVENTS)
    }

    /// `history` bounds each switch's shard-sample series; `flight_last_n`
    /// bounds how many merged events a dead-peer dump retains.
    pub fn with_bounds(history: usize, flight_last_n: usize) -> Self {
        MetricsAggregator {
            handles: Vec::new(),
            counters: BTreeMap::new(),
            last: Vec::new(),
            history_cap: history.max(1),
            flight_last_n: flight_last_n.max(1),
            flights: Vec::new(),
            gauges: BTreeMap::new(),
            shards: BTreeMap::new(),
        }
    }

    /// Attach (replace) a node's counters, in [`Counter::ALL`] order — the
    /// endpoint's own ledger, read on the thread that drives it. They
    /// export as `fm_<counter>_total{node=...}` and feed the tick deltas.
    pub fn set_counters(&mut self, node: u16, counters: [u64; Counter::COUNT]) {
        self.counters.insert(node, counters);
    }

    /// Attach (replace) a node's named transport gauges — values the
    /// counter enum does not cover, such as the UDP link's `UdpStats`
    /// fields or the endpoint's `peer_resets`. They export as
    /// `fm_<name>{node=...}` gauges and extra CSV columns.
    pub fn set_gauges(&mut self, node: u16, gauges: Vec<(String, u64)>) {
        self.gauges.insert(node, gauges);
    }

    /// Record one switch-shard sample at scrape time `at`. The shard's
    /// occupancy histogram, DRR deficits and per-port forwarding totals
    /// become first-class series in [`MetricsAggregator::prometheus`] and
    /// counter lanes in [`MetricsAggregator::shard_lane_events`].
    pub fn record_shard(&mut self, at: u64, sample: ShardSample) {
        let hist = self.shards.entry(sample.switch_id).or_default();
        if hist.len() >= self.history_cap {
            hist.remove(0);
        }
        hist.push((at, sample));
    }

    /// Chrome-trace counter-lane fragments for every recorded shard, ready
    /// to splice into a merged timeline via
    /// [`MergeReport::chrome_trace_with`].
    pub fn shard_lane_events(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (&switch, hist) in &self.shards {
            out.extend(shard_lane_fragments(switch, hist));
        }
        out
    }

    /// Register an endpoint's telemetry handle (a cheap `Arc` clone). The
    /// baseline for its first delta is the counters set for it *now* (zero
    /// if none are).
    pub fn register(&mut self, handle: Telemetry) {
        self.last.push(self.counters_of(handle.node()));
        self.handles.push(handle);
    }

    fn counters_of(&self, node: u16) -> [u64; Counter::COUNT] {
        self.counters
            .get(&node)
            .copied()
            .unwrap_or([0; Counter::COUNT])
    }

    pub fn endpoints(&self) -> usize {
        self.handles.len()
    }

    /// Scrape every endpoint: counter deltas since the previous tick, and a
    /// flight dump if any endpoint declared a peer dead since last time.
    pub fn tick(&mut self, at: u64) -> TickSample {
        let mut nodes = Vec::with_capacity(self.handles.len());
        let mut dead_delta = 0u64;
        for (i, h) in self.handles.iter().enumerate() {
            let now = self.counters_of(h.node());
            let prev = std::mem::replace(&mut self.last[i], now);
            let nd = NodeDelta {
                node: h.node(),
                deltas: std::array::from_fn(|j| now[j].saturating_sub(prev[j])),
            };
            dead_delta += nd.delta(Counter::DeadPeers);
            nodes.push(nd);
        }
        if dead_delta > 0 {
            self.capture_flight(at, dead_delta);
        }
        TickSample { at, nodes }
    }

    fn capture_flight(&mut self, at: u64, dead_peer_delta: u64) {
        let per_node: Vec<_> = self.handles.iter().map(|h| h.events()).collect();
        let mut report = merge::merge(&per_node);
        if report.events.len() > self.flight_last_n {
            let cut = report.events.len() - self.flight_last_n;
            report.events.drain(..cut);
        }
        self.flights.push(FlightDump {
            at,
            dead_peer_delta,
            events: report.events.len(),
            flow_pairs: report.flow_pairs(),
            json: report.chrome_trace(),
        });
    }

    /// Flight dumps captured so far (one per dead-peer-observing tick).
    pub fn flights(&self) -> &[FlightDump] {
        &self.flights
    }

    /// Merge every registered endpoint's current trace ring into one
    /// aligned timeline (the on-demand, not-post-mortem view).
    pub fn merged(&self) -> MergeReport {
        let per_node: Vec<_> = self.handles.iter().map(|h| h.events()).collect();
        merge::merge(&per_node)
    }

    /// Prometheus text exposition of every endpoint's current state:
    /// `fm_<counter>_total{node="N"}` counters plus per-metric quantile
    /// gauges and sample counts.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for c in Counter::ALL {
            out.push_str(&format!(
                "# HELP fm_{name}_total Total {name} across the run.\n# TYPE fm_{name}_total counter\n",
                name = c.name()
            ));
            for h in &self.handles {
                let node = h.node();
                let v = self.counters_of(node)[c as usize];
                out.push_str(&format!("fm_{}_total{{node=\"{node}\"}} {v}\n", c.name()));
            }
        }
        for m in Metric::ALL {
            out.push_str(&format!(
                "# HELP fm_{name} {name} distribution summary.\n# TYPE fm_{name} summary\n",
                name = m.name()
            ));
            for h in &self.handles {
                let (node, s) = (h.node(), h.metric(m));
                for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                    out.push_str(&format!(
                        "fm_{}{{node=\"{node}\",quantile=\"{q}\"}} {v}\n",
                        m.name()
                    ));
                }
                out.push_str(&format!(
                    "fm_{}_count{{node=\"{node}\"}} {}\n",
                    m.name(),
                    s.count
                ));
            }
        }
        // Named transport gauges (UdpStats fields, peer_resets, ...).
        for name in self.gauge_columns() {
            out.push_str(&format!("# TYPE fm_{name} gauge\n"));
            for (node, gauges) in &self.gauges {
                if let Some((_, v)) = gauges.iter().find(|(n, _)| *n == name) {
                    out.push_str(&format!("fm_{name}{{node=\"{node}\"}} {v}\n"));
                }
            }
        }
        // Switch-shard lanes: latest sample per shard.
        if !self.shards.is_empty() {
            out.push_str(&shard_series_prometheus(
                self.shards
                    .iter()
                    .filter_map(|(&sw, hist)| hist.last().map(|(_, s)| (sw, s))),
            ));
        }
        out
    }

    /// Sorted union of every registered gauge name.
    fn gauge_columns(&self) -> Vec<String> {
        let mut cols: Vec<String> = self
            .gauges
            .values()
            .flat_map(|g| g.iter().map(|(n, _)| n.clone()))
            .collect();
        cols.sort();
        cols.dedup();
        cols
    }

    /// Current per-endpoint state as CSV (one row per endpoint), rendered
    /// by the shared `fm-metrics` csv module.
    pub fn csv(&self) -> String {
        let mut header: Vec<&str> = vec!["node"];
        for c in Counter::ALL {
            header.push(c.name());
        }
        let metric_cols: Vec<String> = Metric::ALL
            .iter()
            .flat_map(|m| {
                ["count", "p50", "p99"]
                    .iter()
                    .map(move |s| format!("{}_{}", m.name(), s))
            })
            .collect();
        for col in &metric_cols {
            header.push(col);
        }
        // Gauge columns appended last so existing consumers' column
        // positions never move.
        let gauge_cols = self.gauge_columns();
        for col in &gauge_cols {
            header.push(col);
        }
        let rows: Vec<Vec<String>> = self
            .handles
            .iter()
            .map(|h| {
                let node = h.node();
                let mut row = vec![node.to_string()];
                row.extend(self.counters_of(node).iter().map(u64::to_string));
                for m in Metric::ALL {
                    let s = h.metric(m);
                    row.extend([s.count, s.p50, s.p99].map(|v| v.to_string()));
                }
                let gauges = self.gauges.get(&node);
                for col in &gauge_cols {
                    let v = gauges
                        .and_then(|g| g.iter().find(|(n, _)| n == col))
                        .map_or(0, |(_, v)| *v);
                    row.push(v.to_string());
                }
                row
            })
            .collect();
        fm_metrics::csv::to_string(&header, &rows)
    }
}

impl Default for MetricsAggregator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    /// Counters with `sends` set and everything else zero.
    fn sends(n: u64) -> [u64; Counter::COUNT] {
        let mut c = [0; Counter::COUNT];
        c[Counter::Sends as usize] = n;
        c
    }

    #[test]
    fn tick_reports_deltas_not_totals() {
        let mut agg = MetricsAggregator::new();
        agg.set_counters(0, sends(5)); // before register → baseline, not a delta
        agg.register(Telemetry::new(0));
        agg.set_counters(0, sends(8));
        let s1 = agg.tick(1);
        agg.set_counters(0, sends(10));
        let s2 = agg.tick(2);
        assert_eq!(s1.total(Counter::Sends), 3);
        assert_eq!(s2.total(Counter::Sends), 2);
    }

    #[test]
    fn dead_peer_triggers_flight_dump() {
        let a = Telemetry::new(0);
        let b = Telemetry::new(1);
        let mut agg = MetricsAggregator::with_bounds(8, 4);
        agg.register(a.clone());
        agg.register(b.clone());
        for i in 0..10 {
            a.trace(
                i,
                EventKind::SpanSend {
                    trace: 9,
                    hop: 0,
                    dst: 1,
                },
            );
        }
        b.trace(
            3,
            EventKind::SpanWireIn {
                trace: 9,
                hop: 0,
                src: 0,
            },
        );
        agg.tick(1);
        assert!(agg.flights().is_empty(), "no dead peer yet");
        let mut dead = [0; Counter::COUNT];
        dead[Counter::DeadPeers as usize] = 1;
        agg.set_counters(0, dead);
        agg.tick(2);
        assert_eq!(agg.flights().len(), 1);
        let f = &agg.flights()[0];
        assert_eq!(f.at, 2);
        assert_eq!(f.dead_peer_delta, 1);
        assert_eq!(f.events, 4, "last-N cut applied");
        assert!(f.json.starts_with("{\"traceEvents\":["));
        agg.tick(3);
        assert_eq!(agg.flights().len(), 1, "no new dump without a new death");
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let t = Telemetry::new(2);
        t.record(Metric::AckRttTicks, 4);
        let mut agg = MetricsAggregator::new();
        agg.register(t);
        agg.set_counters(2, sends(7));
        let text = agg.prometheus();
        assert!(text.contains("# TYPE fm_sends_total counter"));
        assert!(text.contains("fm_sends_total{node=\"2\"} 7"));
        assert!(text.contains("fm_ack_rtt_ticks{node=\"2\",quantile=\"0.5\"}"));
        assert!(text.contains("fm_ack_rtt_ticks_count{node=\"2\"} 1"));
        for c in Counter::ALL {
            assert!(text.contains(&format!("fm_{}_total", c.name())));
        }
    }

    fn sample(switch: u16, forwarded: u64) -> ShardSample {
        ShardSample {
            switch_id: switch,
            forwarded,
            stalled: 1,
            dropped: 0,
            timed_out: 0,
            batch: 8,
            occupancy: crate::hist::HistSummary {
                count: 10,
                min: 1,
                max: 12,
                p50: 3,
                p90: 9,
                p99: 12,
            },
            occupancy_octaves: vec![(0, 10)],
            deficits: vec![0, 96],
            input_forwarded: vec![forwarded / 2, forwarded - forwarded / 2],
            output_forwarded: vec![forwarded],
        }
    }

    #[test]
    fn gauges_export_to_prometheus_and_csv() {
        let t = Telemetry::new(0);
        let mut agg = MetricsAggregator::new();
        agg.register(t);
        agg.register(Telemetry::new(1));
        agg.set_gauges(
            0,
            vec![("udp_datagrams_out".into(), 42), ("peer_resets".into(), 2)],
        );
        let prom = agg.prometheus();
        assert!(prom.contains("# TYPE fm_udp_datagrams_out gauge"));
        assert!(prom.contains("fm_udp_datagrams_out{node=\"0\"} 42"));
        assert!(prom.contains("fm_peer_resets{node=\"0\"} 2"));
        let csv = agg.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(
            lines[0].starts_with("node,sends,"),
            "existing columns keep their slots"
        );
        assert!(lines[0].ends_with(",peer_resets,udp_datagrams_out"));
        assert!(lines[1].ends_with(",2,42"));
        assert!(lines[2].ends_with(",0,0"), "unset gauges default to 0");
    }

    #[test]
    fn shard_samples_become_series_and_lanes() {
        let mut agg = MetricsAggregator::new();
        agg.record_shard(100, sample(3, 50));
        agg.record_shard(200, sample(3, 150));
        let prom = agg.prometheus();
        assert!(prom.contains("fm_shard_queue_depth{switch=\"3\",quantile=\"0.99\"} 12"));
        assert!(prom.contains("fm_shard_deficit{switch=\"3\",input=\"1\"} 96"));
        assert!(prom.contains("fm_shard_input_forwarded_total{switch=\"3\",input=\"0\"} 75"));
        assert!(prom.contains("fm_shard_forwarded_total{switch=\"3\"} 150"));
        let lanes = agg.shard_lane_events();
        assert!(lanes.iter().any(|l| l.contains("\"name\":\"switch 3\"")));
        assert!(
            lanes
                .iter()
                .any(|l| l.contains("\"args\":{\"frames\":100}")),
            "rate delta"
        );
        // Lanes splice into a merged timeline without breaking the JSON.
        let doc = agg.merged().chrome_trace_with(&lanes);
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn shard_history_is_bounded() {
        let mut agg = MetricsAggregator::with_bounds(4, 16);
        for i in 0..10 {
            agg.record_shard(i, sample(0, i * 10));
        }
        assert_eq!(agg.shards[&0].len(), 4);
        assert_eq!(agg.shards[&0][0].0, 6, "oldest evicted");
    }

    #[test]
    fn csv_has_header_and_one_row_per_endpoint() {
        let mut agg = MetricsAggregator::new();
        agg.register(Telemetry::new(0));
        agg.register(Telemetry::new(1));
        let csv = agg.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 endpoints");
        assert!(lines[0].starts_with("node,sends,"));
        assert!(lines[0].contains("ack_rtt_ticks_p50"));
        assert!(lines[1].starts_with("0,"));
        assert!(lines[2].starts_with("1,"));
    }
}
