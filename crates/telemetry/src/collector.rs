//! The beacon collector: live cluster-wide observability from out-of-band
//! telemetry datagrams.
//!
//! A [`Collector`] ingests [`crate::beacon`] datagrams from any number of
//! endpoints and switch shards: off one UDP socket when they live in other
//! OS processes ([`Collector::bind`], [`Collector::poll`]), or handed to
//! [`Collector::ingest`] by an in-process harness that builds the same
//! bytes with a [`crate::beacon::BeaconSource`]. Beacons are the only way
//! in, and from them it maintains:
//!
//! * **cumulative counters and deltas** per endpoint (beacons carry
//!   cumulative values, so a lost beacon merely widens one delta window,
//!   and the per-source sequence numbers count the loss);
//! * **health detectors** over those deltas, firing typed [`Alarm`]s:
//!   *retransmit storm* (an endpoint's retransmit delta dwarfing its fresh
//!   sends), *incast capture* (a shard's per-input forwarding fairness —
//!   Jain's index — collapsing, the failure mode the DRR scheduler
//!   exists to prevent), and *dead peer* (a `DeadPeers` counter advance).
//!   Detectors are edge-triggered with calm-rearm hysteresis, so one
//!   sustained episode fires exactly one alarm;
//! * **clock alignment** from the beacon timestamps themselves: the
//!   minimum observed `recv − sent` skew per source (NTP's minimum-delay
//!   filter, the same idea `clocksync` applies to traced RTT quadruples)
//!   plus the full PR-4 span merge over the collected trace events
//!   ([`Collector::merged`]);
//! * **rolling exports**: Prometheus text ([`Collector::prometheus`]) with
//!   per-shard queue-depth/deficit/forwarding series and per-collective
//!   span timings, one CSV row per endpoint ([`Collector::csv`]), and
//!   merged chrome-trace windows ([`Collector::chrome_trace`]) with one
//!   counter lane per shard.
//!
//! Everything is bounded: per-source event windows, shard sample history
//! and the alarm list all cap out, so a collector can watch a cluster
//! indefinitely.

use crate::beacon::{self, BeaconBody, BeaconError, ShardSample};
use crate::hist::Histogram;
use crate::merge::{self, MergeReport};
use crate::trace::{coll_kind_name, EventKind, TraceEvent};
use crate::{Counter, Metric};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, UdpSocket};

/// Thresholds for the counter-delta health detectors.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Retransmit storm: an endpoint's per-beacon retransmit delta must
    /// reach this floor...
    pub storm_min_retransmits: u64,
    /// ...and this fraction of its fresh-send delta (so a busy-but-clean
    /// endpoint never trips on volume alone).
    pub storm_ratio: f64,
    /// Consecutive calm beacons before a latched storm detector re-arms.
    pub calm_beacons: u32,
    /// Incast capture: Jain's fairness index over a shard's per-input
    /// forwarding deltas below this fires (1.0 = perfectly fair,
    /// 1/n = one input captured the switch).
    pub fairness_min: f64,
    /// ...but only when at least this many inputs forwarded this window,
    pub fairness_min_active: usize,
    /// ...and at least this many frames moved (tiny windows are noise).
    pub fairness_min_frames: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            storm_min_retransmits: 64,
            storm_ratio: 0.25,
            calm_beacons: 3,
            fairness_min: 0.5,
            fairness_min_active: 3,
            fairness_min_frames: 256,
        }
    }
}

/// A typed health alarm raised by the collector's detectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Alarm {
    /// `node`'s retransmit delta crossed the storm threshold.
    RetransmitStorm {
        node: u16,
        retransmits: u64,
        sends: u64,
    },
    /// `switch`'s per-input forwarding fairness collapsed.
    IncastCapture {
        switch: u16,
        fairness: f64,
        frames: u64,
    },
    /// `node` declared `dead_peers` peer(s) dead since its last beacon.
    DeadPeer { node: u16, dead_peers: u64 },
}

impl Alarm {
    /// Stable snake_case name (the Prometheus label / log key).
    pub fn name(&self) -> &'static str {
        match self {
            Alarm::RetransmitStorm { .. } => "retransmit_storm",
            Alarm::IncastCapture { .. } => "incast_capture",
            Alarm::DeadPeer { .. } => "dead_peer",
        }
    }

    /// One human-readable line.
    pub fn describe(&self) -> String {
        match self {
            Alarm::RetransmitStorm {
                node,
                retransmits,
                sends,
            } => format!(
                "retransmit storm on endpoint {node}: {retransmits} retransmits \
                 against {sends} fresh sends in one beacon window"
            ),
            Alarm::IncastCapture {
                switch,
                fairness,
                frames,
            } => format!(
                "incast capture on switch {switch}: input fairness {fairness:.3} \
                 over {frames} forwarded frames"
            ),
            Alarm::DeadPeer { node, dead_peers } => {
                format!("endpoint {node} declared {dead_peers} peer(s) dead")
            }
        }
    }
}

/// Ingest statistics for one [`Collector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Datagrams pulled off the socket (or fed to `ingest`).
    pub datagrams: u64,
    /// Beacons accepted.
    pub beacons: u64,
    /// Rejected: CRC mismatch.
    pub crc_rejected: u64,
    /// Rejected: structurally malformed (truncated body, bad tag).
    pub malformed: u64,
    /// Rejected: wrong magic or version (not ours / newer than us).
    pub foreign: u64,
    /// Beacon sequence gaps observed (beacons lost in flight — widens a
    /// delta window, never corrupts totals).
    pub seq_gaps: u64,
}

/// [`fm_metrics::jain`] over integer shares (per-input forwarded-frame
/// counts).
pub fn jain_fairness(shares: &[u64]) -> f64 {
    let shares: Vec<f64> = shares.iter().map(|&x| x as f64).collect();
    fm_metrics::jain(&shares)
}

/// Per-source beacon arrivals, kept alike for endpoints and shards.
#[derive(Default)]
struct Arrivals {
    beacons: u64,
    last_seq: Option<u32>,
    /// Minimum observed `recv − sent` micros: sender-to-collector clock
    /// offset plus minimum network delay (the NTP minimum filter).
    min_skew_us: Option<i64>,
}

impl Arrivals {
    /// Note one beacon; returns how many of the source's beacons were lost
    /// in flight since its previous one. A sequence that jumps *backwards*
    /// (a huge wrapped "gap") is a restarted source — a new beaconer
    /// reusing the id — not a loss signal.
    fn note(&mut self, seq: u32, skew: i64) -> u64 {
        self.beacons += 1;
        self.min_skew_us = Some(self.min_skew_us.map_or(skew, |m| m.min(skew)));
        let gap = self
            .last_seq
            .replace(seq)
            .map_or(1, |last| seq.wrapping_sub(last));
        if gap > 1 && gap < u32::MAX / 2 {
            (gap - 1) as u64
        } else {
            0
        }
    }
}

/// Per-endpoint ingest state.
struct EndpointState {
    /// Latest cumulative counters (padded/truncated to `Counter::COUNT`).
    totals: [u64; Counter::COUNT],
    /// Latest per-metric octave summaries.
    metrics: Vec<beacon::MetricOctaves>,
    /// Latest named gauges.
    gauges: Vec<(String, u64)>,
    /// Deduplicated trace events (successive beacons overlap), bounded;
    /// `seen` holds exactly the retained ones.
    events: Vec<TraceEvent>,
    seen: HashSet<TraceEvent>,
    /// Open collective spans: (coll, epoch) → begin tick.
    open_colls: HashMap<(u8, u32), u64>,
    arrivals: Arrivals,
    storm_latched: bool,
    calm: u32,
}

impl EndpointState {
    fn new() -> Self {
        EndpointState {
            totals: [0; Counter::COUNT],
            metrics: Vec::new(),
            gauges: Vec::new(),
            events: Vec::new(),
            seen: HashSet::new(),
            open_colls: HashMap::new(),
            arrivals: Arrivals::default(),
            storm_latched: false,
            calm: 0,
        }
    }

    fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Per-shard ingest state.
struct ShardState {
    last: Option<ShardSample>,
    /// `(recv stamp, sample)` history, bounded.
    history: Vec<(u64, ShardSample)>,
    arrivals: Arrivals,
    /// Latest fairness index over the per-input forwarding deltas.
    fairness: f64,
    capture_latched: bool,
    calm: u32,
}

impl ShardState {
    fn new() -> Self {
        ShardState {
            last: None,
            history: Vec::new(),
            arrivals: Arrivals::default(),
            fairness: 1.0,
            capture_latched: false,
            calm: 0,
        }
    }
}

/// Bound on deduplicated trace events retained per endpoint.
const EVENT_CAP: usize = 8192;
/// Bound on shard samples retained per shard.
const SHARD_HISTORY_CAP: usize = 512;
/// Bound on retained alarms (counts keep accumulating past it).
const ALARM_CAP: usize = 1024;

/// Ingests telemetry beacons and serves rolling Prometheus text, merged
/// chrome-trace windows, and typed health alarms. See the module docs.
pub struct Collector {
    sock: Option<UdpSocket>,
    endpoints: BTreeMap<u16, EndpointState>,
    shards: BTreeMap<u16, ShardState>,
    config: DetectorConfig,
    alarms: Vec<Alarm>,
    storm_alarms: u64,
    incast_alarms: u64,
    dead_peer_alarms: u64,
    /// Collective durations (end tick − begin tick) per collective kind.
    coll_durations: BTreeMap<u8, Histogram>,
    pub stats: CollectorStats,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// A socketless collector (feed it with [`Collector::ingest`] — the
    /// deterministic path tests use).
    pub fn new() -> Self {
        Self::with_config(DetectorConfig::default())
    }

    pub fn with_config(config: DetectorConfig) -> Self {
        Collector {
            sock: None,
            endpoints: BTreeMap::new(),
            shards: BTreeMap::new(),
            config,
            alarms: Vec::new(),
            storm_alarms: 0,
            incast_alarms: 0,
            dead_peer_alarms: 0,
            coll_durations: BTreeMap::new(),
            stats: CollectorStats::default(),
        }
    }

    /// Bind the ingest socket (nonblocking) — `"127.0.0.1:0"` for an
    /// ephemeral loopback port, then read it back with
    /// [`Collector::local_addr`] and hand it to the beaconers.
    pub fn bind(addr: &str) -> io::Result<Self> {
        let mut c = Self::new();
        let sock = UdpSocket::bind(addr)?;
        sock.set_nonblocking(true)?;
        c.sock = Some(sock);
        Ok(c)
    }

    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.sock.as_ref().and_then(|s| s.local_addr().ok())
    }

    /// Drain the socket, ingesting every waiting datagram. Returns how
    /// many beacons were accepted this call.
    pub fn poll(&mut self) -> usize {
        let Some(sock) = self.sock.take() else {
            return 0;
        };
        let mut buf = [0u8; beacon::MAX_BEACON_BYTES];
        let mut accepted = 0;
        loop {
            match sock.recv_from(&mut buf) {
                Ok((n, _)) => {
                    if self.ingest(&buf[..n], beacon::unix_micros()).is_ok() {
                        accepted += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        self.sock = Some(sock);
        accepted
    }

    /// Ingest one datagram received at `recv_micros`, on the clock the
    /// beacon was stamped with: Unix micros off the socket, or the tick or
    /// round an in-process harness stamps its beacons with (shard lanes
    /// are drawn on this axis).
    pub fn ingest(&mut self, datagram: &[u8], recv_micros: u64) -> Result<(), BeaconError> {
        self.stats.datagrams += 1;
        let b = match beacon::decode(datagram) {
            Ok(b) => b,
            Err(e) => {
                match e {
                    BeaconError::BadCrc => self.stats.crc_rejected += 1,
                    BeaconError::BadMagic | BeaconError::BadVersion(_) => self.stats.foreign += 1,
                    _ => self.stats.malformed += 1,
                }
                return Err(e);
            }
        };
        self.stats.beacons += 1;
        let skew = recv_micros as i64 - b.sent_micros as i64;
        match b.body {
            BeaconBody::Endpoint(body) => self.ingest_endpoint(b.source, b.seq, skew, body),
            BeaconBody::Shard(body) => self.ingest_shard(b.source, b.seq, skew, recv_micros, body),
        }
        Ok(())
    }

    fn push_alarm(&mut self, a: Alarm) {
        match a {
            Alarm::RetransmitStorm { .. } => self.storm_alarms += 1,
            Alarm::IncastCapture { .. } => self.incast_alarms += 1,
            Alarm::DeadPeer { .. } => self.dead_peer_alarms += 1,
        }
        if self.alarms.len() < ALARM_CAP {
            self.alarms.push(a);
        }
    }

    fn ingest_endpoint(&mut self, source: u16, seq: u32, skew: i64, body: beacon::EndpointBeacon) {
        let cfg = self.config;
        let st = self
            .endpoints
            .entry(source)
            .or_insert_with(EndpointState::new);
        self.stats.seq_gaps += st.arrivals.note(seq, skew);

        // Counter deltas against the previous beacon's cumulative values.
        let mut deltas = [0u64; Counter::COUNT];
        for (i, d) in deltas.iter_mut().enumerate() {
            let new = body.counters.get(i).copied().unwrap_or(st.totals[i]);
            *d = new.saturating_sub(st.totals[i]);
            st.totals[i] = new.max(st.totals[i]);
        }
        st.metrics = body.metrics;
        st.gauges = body.gauges;

        // Deduplicate the overlapping last-N event windows, then fold any
        // fresh collective begin/end pairs into the duration histograms.
        let mut fresh_colls: Vec<(u8, u64)> = Vec::new();
        for ev in body.events {
            if !st.seen.insert(ev) {
                continue;
            }
            match ev.kind {
                EventKind::CollBegin { coll, epoch } => {
                    st.open_colls.insert((coll, epoch), ev.tick);
                }
                EventKind::CollEnd { coll, epoch } => {
                    if let Some(begin) = st.open_colls.remove(&(coll, epoch)) {
                        fresh_colls.push((coll, ev.tick.saturating_sub(begin)));
                    }
                }
                _ => {}
            }
            st.events.push(ev);
        }
        let cut = st.events.len().saturating_sub(EVENT_CAP);
        for ev in st.events.drain(..cut) {
            st.seen.remove(&ev);
        }

        // Detectors.
        let retransmits = deltas[Counter::Retransmits as usize];
        let sends = deltas[Counter::Sends as usize];
        let stormy = retransmits >= cfg.storm_min_retransmits
            && retransmits as f64 >= cfg.storm_ratio * sends as f64;
        let mut fire_storm = false;
        if stormy {
            st.calm = 0;
            if !st.storm_latched {
                st.storm_latched = true;
                fire_storm = true;
            }
        } else if st.storm_latched {
            st.calm += 1;
            if st.calm >= cfg.calm_beacons {
                st.storm_latched = false;
                st.calm = 0;
            }
        }
        let dead = deltas[Counter::DeadPeers as usize];
        if fire_storm {
            self.push_alarm(Alarm::RetransmitStorm {
                node: source,
                retransmits,
                sends,
            });
        }
        if dead > 0 {
            self.push_alarm(Alarm::DeadPeer {
                node: source,
                dead_peers: dead,
            });
        }
        for (coll, dur) in fresh_colls {
            self.coll_durations.entry(coll).or_default().record(dur);
        }
    }

    fn ingest_shard(
        &mut self,
        source: u16,
        seq: u32,
        skew: i64,
        recv_micros: u64,
        body: ShardSample,
    ) {
        let cfg = self.config;
        let st = self.shards.entry(source).or_insert_with(ShardState::new);
        self.stats.seq_gaps += st.arrivals.note(seq, skew);

        // Per-input forwarding deltas since the last beacon drive the
        // fairness detector; the first beacon only sets the baseline.
        let mut fire = None;
        if let Some(prev) = &st.last {
            let n = body.input_forwarded.len().max(prev.input_forwarded.len());
            let mut deltas = Vec::with_capacity(n);
            for i in 0..n {
                let new = body.input_forwarded.get(i).copied().unwrap_or(0);
                let old = prev.input_forwarded.get(i).copied().unwrap_or(0);
                deltas.push(new.saturating_sub(old));
            }
            let frames: u64 = deltas.iter().sum();
            let active = deltas.iter().filter(|&&d| d > 0).count();
            // Fairness over the inputs that *could* have forwarded: every
            // input that has ever carried traffic on this shard. Idle-
            // since-boot ports (an unused trunk) don't count against it.
            let ever_active: Vec<u64> = deltas
                .iter()
                .enumerate()
                .filter(|(i, _)| body.input_forwarded.get(*i).copied().unwrap_or(0) > 0)
                .map(|(_, &d)| d)
                .collect();
            let fairness = jain_fairness(&ever_active);
            st.fairness = fairness;
            let captured = frames >= cfg.fairness_min_frames
                && active.max(ever_active.len()) >= cfg.fairness_min_active
                && fairness < cfg.fairness_min;
            if captured {
                st.calm = 0;
                if !st.capture_latched {
                    st.capture_latched = true;
                    fire = Some(Alarm::IncastCapture {
                        switch: source,
                        fairness,
                        frames,
                    });
                }
            } else if st.capture_latched {
                st.calm += 1;
                if st.calm >= cfg.calm_beacons {
                    st.capture_latched = false;
                    st.calm = 0;
                }
            }
        }
        st.last = Some(body.clone());
        if st.history.len() >= SHARD_HISTORY_CAP {
            st.history.remove(0);
        }
        st.history.push((recv_micros, body));
        if let Some(a) = fire {
            self.push_alarm(a);
        }
    }

    // ---- reads -------------------------------------------------------------

    /// Every alarm raised so far, in ingest order (bounded; the counts
    /// keep going past the bound).
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    /// `(retransmit_storm, incast_capture, dead_peer)` alarm totals.
    pub fn alarm_counts(&self) -> (u64, u64, u64) {
        (self.storm_alarms, self.incast_alarms, self.dead_peer_alarms)
    }

    /// Distinct endpoint sources seen.
    pub fn endpoint_sources(&self) -> Vec<u16> {
        self.endpoints.keys().copied().collect()
    }

    /// Distinct shard sources seen.
    pub fn shard_sources(&self) -> Vec<u16> {
        self.shards.keys().copied().collect()
    }

    /// Beacons accepted from endpoint `node`.
    pub fn endpoint_beacons(&self, node: u16) -> u64 {
        self.endpoints.get(&node).map_or(0, |s| s.arrivals.beacons)
    }

    /// Latest cumulative value of `c` on `node`.
    pub fn counter(&self, node: u16, c: Counter) -> u64 {
        self.endpoints
            .get(&node)
            .map_or(0, |s| s.totals[c as usize])
    }

    /// Minimum observed sender→collector skew for an endpoint, micros
    /// (clock offset plus minimum network delay — the beacon-timestamp
    /// clock sync). `None` before the first beacon.
    pub fn endpoint_skew_us(&self, node: u16) -> Option<i64> {
        self.endpoints.get(&node)?.arrivals.min_skew_us
    }

    /// Latest per-input forwarding fairness for a shard (1.0 before two
    /// beacons have arrived).
    pub fn shard_fairness(&self, switch: u16) -> f64 {
        self.shards.get(&switch).map_or(1.0, |s| s.fairness)
    }

    /// Merge every endpoint's collected trace events into one aligned
    /// cluster timeline ([`crate::merge`]).
    pub fn merged(&self) -> MergeReport {
        let per_node: Vec<Vec<TraceEvent>> =
            self.endpoints.values().map(|s| s.events.clone()).collect();
        merge::merge(&per_node)
    }

    /// The merged timeline as a chrome-trace document, with one counter
    /// lane per switch shard (queue-depth quantiles and per-window
    /// forwarding rate) spliced in.
    pub fn chrome_trace(&self) -> String {
        let mut lanes = Vec::new();
        for (&switch, st) in &self.shards {
            lanes.extend(shard_lane_fragments(switch, &st.history));
        }
        self.merged().chrome_trace_with(&lanes)
    }

    /// Prometheus text exposition of everything the collector knows. All
    /// values are finite by construction (counters are integers; the only
    /// float, fairness, is clamped into `[0, 1]` by its formula) — no NaN
    /// can appear.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        // Ingest meta.
        out.push_str(
            "# HELP fm_beacons_total Beacons accepted, by source kind.\n\
             # TYPE fm_beacons_total counter\n",
        );
        for (&n, st) in &self.endpoints {
            out.push_str(&format!(
                "fm_beacons_total{{kind=\"endpoint\",source=\"{n}\"}} {}\n",
                st.arrivals.beacons
            ));
        }
        for (&sw, st) in &self.shards {
            out.push_str(&format!(
                "fm_beacons_total{{kind=\"shard\",source=\"{sw}\"}} {}\n",
                st.arrivals.beacons
            ));
        }
        for (name, v) in [
            ("crc_rejected", self.stats.crc_rejected),
            ("malformed", self.stats.malformed),
            ("foreign", self.stats.foreign),
            ("seq_gaps", self.stats.seq_gaps),
        ] {
            out.push_str(&format!(
                "# TYPE fm_beacon_{name}_total counter\nfm_beacon_{name}_total {v}\n"
            ));
        }
        // Endpoint counters (cumulative, as shipped).
        for c in Counter::ALL {
            out.push_str(&format!(
                "# HELP fm_{name}_total Total {name} reported by beacons.\n\
                 # TYPE fm_{name}_total counter\n",
                name = c.name()
            ));
            for (&n, st) in &self.endpoints {
                out.push_str(&format!(
                    "fm_{}_total{{node=\"{n}\"}} {}\n",
                    c.name(),
                    st.totals[c as usize]
                ));
            }
        }
        // Metric summaries.
        for (i, m) in Metric::ALL.iter().enumerate() {
            out.push_str(&format!(
                "# HELP fm_{name} {name} distribution summary (from beacons).\n\
                 # TYPE fm_{name} summary\n",
                name = m.name()
            ));
            for (&n, st) in &self.endpoints {
                let Some(mo) = st.metrics.get(i) else {
                    continue;
                };
                let s = mo.summary;
                for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                    out.push_str(&format!(
                        "fm_{}{{node=\"{n}\",quantile=\"{q}\"}} {v}\n",
                        m.name()
                    ));
                }
                out.push_str(&format!(
                    "fm_{}_count{{node=\"{n}\"}} {}\n",
                    m.name(),
                    s.count
                ));
            }
        }
        // Named transport gauges (UdpStats, peer_resets, ...).
        for g in &self.gauge_names() {
            let san = sanitize_metric_name(g);
            out.push_str(&format!("# TYPE fm_{san} gauge\n"));
            for (&n, st) in &self.endpoints {
                if let Some(v) = st.gauge(g) {
                    out.push_str(&format!("fm_{san}{{node=\"{n}\"}} {v}\n"));
                }
            }
        }
        // Clock skew per source.
        out.push_str(
            "# HELP fm_beacon_skew_us Minimum observed sender-to-collector skew \
             (clock offset + min delay), micros.\n# TYPE fm_beacon_skew_us gauge\n",
        );
        for (&n, st) in &self.endpoints {
            if let Some(skew) = st.arrivals.min_skew_us {
                out.push_str(&format!(
                    "fm_beacon_skew_us{{kind=\"endpoint\",source=\"{n}\"}} {skew}\n"
                ));
            }
        }
        for (&sw, st) in &self.shards {
            if let Some(skew) = st.arrivals.min_skew_us {
                out.push_str(&format!(
                    "fm_beacon_skew_us{{kind=\"shard\",source=\"{sw}\"}} {skew}\n"
                ));
            }
        }
        // Shard lanes.
        out.push_str(&shard_series_prometheus(&self.shards));
        // Collective span timings.
        out.push_str(
            "# HELP fm_collective_duration_ticks Collective call duration \
             (rank-local ticks), from collective spans.\n\
             # TYPE fm_collective_duration_ticks summary\n",
        );
        for (&coll, h) in &self.coll_durations {
            let name = coll_kind_name(coll);
            for (q, v) in [
                ("0.5", h.quantile(0.5)),
                ("0.9", h.quantile(0.9)),
                ("0.99", h.quantile(0.99)),
            ] {
                out.push_str(&format!(
                    "fm_collective_duration_ticks{{coll=\"{name}\",quantile=\"{q}\"}} {v}\n"
                ));
            }
            out.push_str(&format!(
                "fm_collective_duration_ticks_count{{coll=\"{name}\"}} {}\n",
                h.count()
            ));
        }
        // Alarms.
        out.push_str(
            "# HELP fm_alarms_total Health-detector alarms raised.\n\
             # TYPE fm_alarms_total counter\n",
        );
        for (name, v) in [
            ("retransmit_storm", self.storm_alarms),
            ("incast_capture", self.incast_alarms),
            ("dead_peer", self.dead_peer_alarms),
        ] {
            out.push_str(&format!("fm_alarms_total{{detector=\"{name}\"}} {v}\n"));
        }
        // Shard fairness (latest window).
        out.push_str("# TYPE fm_shard_fairness gauge\n");
        for (&sw, st) in &self.shards {
            out.push_str(&format!(
                "fm_shard_fairness{{switch=\"{sw}\"}} {:.4}\n",
                st.fairness
            ));
        }
        out
    }

    /// Sorted union of every endpoint's gauge names.
    fn gauge_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .endpoints
            .values()
            .flat_map(|s| s.gauges.iter().map(|(n, _)| n.clone()))
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Every endpoint's latest state as CSV, one row per endpoint, through
    /// the shared `fm-metrics` csv module. Columns: `node`, the counters in
    /// [`Counter::ALL`] order, `<metric>_{count,p50,p99}`, then the named
    /// gauges, sorted and appended last so the other columns never move (a
    /// gauge an endpoint did not ship reads 0).
    pub fn csv(&self) -> String {
        let gauges = self.gauge_names();
        let metric_cols = Metric::ALL
            .iter()
            .flat_map(|m| ["count", "p50", "p99"].map(|q| format!("{}_{q}", m.name())));
        let mut header: Vec<String> = vec!["node".into()];
        header.extend(Counter::ALL.iter().map(|c| c.name().to_string()));
        header.extend(metric_cols);
        header.extend(gauges.iter().cloned());
        let rows: Vec<Vec<String>> = self
            .endpoints
            .iter()
            .map(|(&n, st)| {
                let mut row = vec![n.to_string()];
                row.extend(st.totals.iter().map(u64::to_string));
                for i in 0..Metric::COUNT {
                    let s = st.metrics.get(i).map(|m| m.summary).unwrap_or_default();
                    row.extend([s.count, s.p50, s.p99].map(|v| v.to_string()));
                }
                row.extend(gauges.iter().map(|g| st.gauge(g).unwrap_or(0).to_string()));
                row
            })
            .collect();
        let header: Vec<&str> = header.iter().map(String::as_str).collect();
        fm_metrics::csv::to_string(&header, &rows)
    }
}

/// Sanitize a wire-supplied gauge name into a Prometheus metric-name
/// fragment (`[a-zA-Z0-9_]`, anything else becomes `_`).
fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Render the per-shard series from each shard's newest sample:
/// queue-depth quantiles, DRR deficits, per-port forwarding totals,
/// drop/stall counters.
fn shard_series_prometheus(shards: &BTreeMap<u16, ShardState>) -> String {
    let samples: Vec<(u16, &ShardSample)> = shards
        .iter()
        .filter_map(|(&sw, st)| st.last.as_ref().map(|s| (sw, s)))
        .collect();
    let mut out = String::new();
    out.push_str(
        "# HELP fm_shard_queue_depth Switch shard poll-occupancy (frames per \
         sampled service turn).\n# TYPE fm_shard_queue_depth summary\n",
    );
    for (sw, s) in &samples {
        for (q, v) in [
            ("0.5", s.occupancy.p50),
            ("0.9", s.occupancy.p90),
            ("0.99", s.occupancy.p99),
        ] {
            out.push_str(&format!(
                "fm_shard_queue_depth{{switch=\"{sw}\",quantile=\"{q}\"}} {v}\n"
            ));
        }
        out.push_str(&format!(
            "fm_shard_queue_depth_count{{switch=\"{sw}\"}} {}\n",
            s.occupancy.count
        ));
    }
    out.push_str(
        "# HELP fm_shard_deficit DRR deficit per input port, bytes.\n\
         # TYPE fm_shard_deficit gauge\n",
    );
    for (sw, s) in &samples {
        for (i, d) in s.deficits.iter().enumerate() {
            out.push_str(&format!(
                "fm_shard_deficit{{switch=\"{sw}\",input=\"{i}\"}} {d}\n"
            ));
        }
    }
    out.push_str("# TYPE fm_shard_input_forwarded_total counter\n");
    for (sw, s) in &samples {
        for (i, v) in s.input_forwarded.iter().enumerate() {
            out.push_str(&format!(
                "fm_shard_input_forwarded_total{{switch=\"{sw}\",input=\"{i}\"}} {v}\n"
            ));
        }
    }
    out.push_str("# TYPE fm_shard_output_forwarded_total counter\n");
    for (sw, s) in &samples {
        for (i, v) in s.output_forwarded.iter().enumerate() {
            out.push_str(&format!(
                "fm_shard_output_forwarded_total{{switch=\"{sw}\",output=\"{i}\"}} {v}\n"
            ));
        }
    }
    for (name, get) in [
        (
            "forwarded",
            &(|s: &ShardSample| s.forwarded) as &dyn Fn(&ShardSample) -> u64,
        ),
        ("stalled", &|s: &ShardSample| s.stalled),
        ("dropped", &|s: &ShardSample| s.dropped),
        ("timed_out", &|s: &ShardSample| s.timed_out),
    ] {
        out.push_str(&format!("# TYPE fm_shard_{name}_total counter\n"));
        for (sw, s) in &samples {
            out.push_str(&format!(
                "fm_shard_{name}_total{{switch=\"{sw}\"}} {}\n",
                get(s)
            ));
        }
    }
    out.push_str("# TYPE fm_shard_batch gauge\n");
    for (sw, s) in &samples {
        out.push_str(&format!("fm_shard_batch{{switch=\"{sw}\"}} {}\n", s.batch));
    }
    out
}

/// Chrome-trace counter-lane fragments for one shard's sample history:
/// a `queue_depth` counter track (p50/p99) and a `forwarded` rate track
/// (delta per window), on a dedicated pid so Perfetto draws them as lanes
/// under "switch N". `history` is `(ts, sample)` with `ts` in the
/// document's time unit.
fn shard_lane_fragments(switch: u16, history: &[(u64, ShardSample)]) -> Vec<String> {
    if history.is_empty() {
        return Vec::new();
    }
    // Shard lanes sit far above any endpoint pid (node ids are u16).
    let pid = 100_000 + switch as u64;
    let t0 = history[0].0;
    let mut out = vec![format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"switch {switch}\"}}}}"
    )];
    let mut prev_fwd = None;
    for (at, s) in history {
        let ts = at - t0;
        out.push(format!(
            "{{\"name\":\"queue_depth\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"p50\":{},\"p99\":{}}}}}",
            s.occupancy.p50, s.occupancy.p99
        ));
        let fwd = s.forwarded;
        let delta = prev_fwd.map_or(0, |p: u64| fwd.saturating_sub(p));
        prev_fwd = Some(fwd);
        out.push(format!(
            "{{\"name\":\"forwarded\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"frames\":{delta}}}}}"
        ));
        let max_deficit = s.deficits.iter().copied().max().unwrap_or(0);
        out.push(format!(
            "{{\"name\":\"max_deficit\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"bytes\":{max_deficit}}}}}"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beacon::{encode, Beacon, BeaconBody, BeaconSource, EndpointBeacon};
    use crate::hist::HistSummary;
    use crate::Telemetry;

    fn endpoint_beacon(
        source: u16,
        seq: u32,
        sent: u64,
        counters: Vec<u64>,
        events: Vec<TraceEvent>,
    ) -> Vec<u8> {
        encode(&Beacon {
            source,
            seq,
            sent_micros: sent,
            body: BeaconBody::Endpoint(EndpointBeacon {
                counters,
                metrics: vec![],
                gauges: vec![("udp_datagrams_out".into(), 5)],
                events,
            }),
        })
    }

    fn counters(sends: u64, retransmits: u64, dead: u64) -> Vec<u64> {
        let mut c = vec![0u64; Counter::COUNT];
        c[Counter::Sends as usize] = sends;
        c[Counter::Retransmits as usize] = retransmits;
        c[Counter::DeadPeers as usize] = dead;
        c
    }

    fn shard_beacon(switch: u16, seq: u32, input_forwarded: Vec<u64>) -> Vec<u8> {
        let forwarded = input_forwarded.iter().sum();
        encode(&Beacon {
            source: switch,
            seq,
            sent_micros: 1_000 + seq as u64,
            body: BeaconBody::Shard(ShardSample {
                switch_id: switch,
                forwarded,
                stalled: 0,
                dropped: 0,
                timed_out: 0,
                batch: 8,
                occupancy: HistSummary {
                    count: 4,
                    min: 1,
                    max: 8,
                    p50: 2,
                    p90: 6,
                    p99: 8,
                },
                occupancy_octaves: vec![(0, 4)],
                deficits: vec![0; input_forwarded.len()],
                input_forwarded,
                output_forwarded: vec![forwarded],
            }),
        })
    }

    #[test]
    fn counters_delta_across_beacons_and_survive_loss() {
        let mut c = Collector::new();
        c.ingest(&endpoint_beacon(3, 0, 100, counters(10, 0, 0), vec![]), 150)
            .unwrap();
        // Beacon seq 1 lost; seq 2 arrives with a bigger cumulative count.
        c.ingest(&endpoint_beacon(3, 2, 300, counters(50, 0, 0), vec![]), 350)
            .unwrap();
        assert_eq!(c.counter(3, Counter::Sends), 50, "cumulative, not doubled");
        assert_eq!(c.stats.seq_gaps, 1);
        assert_eq!(c.endpoint_beacons(3), 2);
        assert_eq!(c.endpoint_skew_us(3), Some(50), "min recv-sent skew");
        // A restarted beaconer (seq back at 0) is not a giant loss gap.
        c.ingest(&endpoint_beacon(3, 0, 400, counters(50, 0, 0), vec![]), 450)
            .unwrap();
        assert_eq!(c.stats.seq_gaps, 1, "backwards seq means restart, not loss");
        // A lost shard beacon is counted the same way.
        c.ingest(&shard_beacon(1, 0, vec![1]), 500).unwrap();
        c.ingest(&shard_beacon(1, 2, vec![2]), 600).unwrap();
        assert_eq!(c.stats.seq_gaps, 2, "shard seq 1 lost");
    }

    #[test]
    fn dedup_set_is_bounded_with_the_event_window() {
        let mut c = Collector::new();
        let ev = |tick| TraceEvent {
            tick,
            node: 0,
            kind: EventKind::PeerDead { peer: 1 },
        };
        // Windows of 96 events advancing by 48: every event ships twice.
        let total = EVENT_CAP as u64 + 1_000;
        for (seq, start) in (0..total).step_by(48).enumerate() {
            let window = (start..start + 96).map(ev).collect();
            let beacon = endpoint_beacon(0, seq as u32, 0, counters(0, 0, 0), window);
            c.ingest(&beacon, 1).unwrap();
        }
        let st = &c.endpoints[&0];
        assert_eq!(st.events.len(), EVENT_CAP);
        assert!(st.seen.len() <= EVENT_CAP, "{} remembered", st.seen.len());
        assert!(st.events.iter().all(|e| st.seen.contains(e)));
    }

    #[test]
    fn storm_detector_fires_once_per_episode() {
        let mut c = Collector::new();
        // Baseline.
        c.ingest(&endpoint_beacon(0, 0, 0, counters(100, 0, 0), vec![]), 1)
            .unwrap();
        // Three consecutive stormy windows: one alarm.
        c.ingest(
            &endpoint_beacon(0, 1, 10, counters(300, 150, 0), vec![]),
            11,
        )
        .unwrap();
        c.ingest(
            &endpoint_beacon(0, 2, 20, counters(500, 300, 0), vec![]),
            21,
        )
        .unwrap();
        c.ingest(
            &endpoint_beacon(0, 3, 30, counters(700, 450, 0), vec![]),
            31,
        )
        .unwrap();
        assert_eq!(c.alarm_counts().0, 1, "latched while the storm persists");
        // Calm re-arm, then a second episode: second alarm.
        for s in 4..8 {
            c.ingest(
                &endpoint_beacon(
                    0,
                    s,
                    s as u64 * 10,
                    counters(700 + s as u64, 450, 0),
                    vec![],
                ),
                s as u64 * 10 + 1,
            )
            .unwrap();
        }
        c.ingest(
            &endpoint_beacon(0, 8, 80, counters(1200, 800, 0), vec![]),
            81,
        )
        .unwrap();
        assert_eq!(c.alarm_counts().0, 2, "re-armed after calm");
        assert!(matches!(
            c.alarms()[0],
            Alarm::RetransmitStorm {
                node: 0,
                retransmits: 150,
                sends: 200
            }
        ));
    }

    #[test]
    fn quiet_endpoint_never_storms() {
        let mut c = Collector::new();
        c.ingest(&endpoint_beacon(1, 0, 0, counters(0, 0, 0), vec![]), 1)
            .unwrap();
        // Busy but clean, and lightly lossy below both thresholds.
        c.ingest(
            &endpoint_beacon(1, 1, 10, counters(10_000, 30, 0), vec![]),
            11,
        )
        .unwrap();
        c.ingest(
            &endpoint_beacon(1, 2, 20, counters(20_000, 600, 0), vec![]),
            21,
        )
        .unwrap();
        assert_eq!(c.alarm_counts().0, 0, "ratio guard holds");
    }

    #[test]
    fn dead_peer_fires_exactly_once_per_advance() {
        let mut c = Collector::new();
        c.ingest(&endpoint_beacon(5, 0, 0, counters(10, 0, 0), vec![]), 1)
            .unwrap();
        c.ingest(&endpoint_beacon(5, 1, 10, counters(10, 0, 1), vec![]), 11)
            .unwrap();
        // Same cumulative value repeated: no re-fire.
        c.ingest(&endpoint_beacon(5, 2, 20, counters(10, 0, 1), vec![]), 21)
            .unwrap();
        c.ingest(&endpoint_beacon(5, 3, 30, counters(10, 0, 1), vec![]), 31)
            .unwrap();
        assert_eq!(c.alarm_counts().2, 1);
        assert!(matches!(
            c.alarms()[0],
            Alarm::DeadPeer {
                node: 5,
                dead_peers: 1
            }
        ));
    }

    #[test]
    fn incast_capture_fires_on_fairness_collapse() {
        let mut c = Collector::new();
        // Fair baseline and a fair window: no alarm.
        c.ingest(&shard_beacon(2, 0, vec![100, 100, 100, 100]), 1)
            .unwrap();
        c.ingest(&shard_beacon(2, 1, vec![200, 200, 200, 200]), 2)
            .unwrap();
        assert_eq!(c.alarm_counts().1, 0);
        assert!(c.shard_fairness(2) > 0.99);
        // One input hogs the next window: alarm, exactly once while latched.
        c.ingest(&shard_beacon(2, 2, vec![1200, 201, 201, 201]), 3)
            .unwrap();
        c.ingest(&shard_beacon(2, 3, vec![2200, 202, 202, 202]), 4)
            .unwrap();
        assert_eq!(c.alarm_counts().1, 1);
        assert!(c.shard_fairness(2) < 0.5);
        let Alarm::IncastCapture {
            switch, fairness, ..
        } = c.alarms()[0]
        else {
            panic!("incast alarm")
        };
        assert_eq!(switch, 2);
        assert!(fairness < 0.5);
    }

    #[test]
    fn events_dedup_across_overlapping_beacons_and_merge() {
        let mut c = Collector::new();
        let send = TraceEvent {
            tick: 100,
            node: 0,
            kind: EventKind::SpanSend {
                trace: 7,
                hop: 0,
                dst: 1,
            },
        };
        let recv = TraceEvent {
            tick: 160,
            node: 1,
            kind: EventKind::SpanWireIn {
                trace: 7,
                hop: 0,
                src: 0,
            },
        };
        // The same send ships in two overlapping beacon windows.
        c.ingest(&endpoint_beacon(0, 0, 0, counters(1, 0, 0), vec![send]), 1)
            .unwrap();
        c.ingest(
            &endpoint_beacon(0, 1, 10, counters(2, 0, 0), vec![send]),
            11,
        )
        .unwrap();
        c.ingest(&endpoint_beacon(1, 0, 5, counters(0, 0, 0), vec![recv]), 15)
            .unwrap();
        let report = c.merged();
        assert_eq!(report.flow_pairs(), 1, "deduped to one flow");
        assert_eq!(report.causal_violations, 0);
    }

    #[test]
    fn collective_spans_become_duration_series() {
        let mut c = Collector::new();
        let evs = vec![
            TraceEvent {
                tick: 1000,
                node: 0,
                kind: EventKind::CollBegin { coll: 0, epoch: 1 },
            },
            TraceEvent {
                tick: 1010,
                node: 0,
                kind: EventKind::CollRoundBegin {
                    coll: 0,
                    epoch: 1,
                    round: 0,
                    peer: 1,
                },
            },
            TraceEvent {
                tick: 1050,
                node: 0,
                kind: EventKind::CollRoundEnd {
                    coll: 0,
                    epoch: 1,
                    round: 0,
                },
            },
            TraceEvent {
                tick: 1100,
                node: 0,
                kind: EventKind::CollEnd { coll: 0, epoch: 1 },
            },
            TraceEvent {
                tick: 2000,
                node: 0,
                kind: EventKind::CollBegin { coll: 3, epoch: 1 },
            },
            TraceEvent {
                tick: 2500,
                node: 0,
                kind: EventKind::CollEnd { coll: 3, epoch: 1 },
            },
        ];
        c.ingest(&endpoint_beacon(0, 0, 0, counters(0, 0, 0), evs), 1)
            .unwrap();
        let prom = c.prometheus();
        assert!(prom.contains("fm_collective_duration_ticks{coll=\"barrier\",quantile=\"0.5\"}"));
        assert!(prom.contains("fm_collective_duration_ticks_count{coll=\"barrier\"} 1"));
        assert!(prom.contains("fm_collective_duration_ticks_count{coll=\"allreduce\"} 1"));
    }

    #[test]
    fn prometheus_has_shard_lanes_gauges_and_no_nan() {
        let mut c = Collector::new();
        c.ingest(&shard_beacon(0, 0, vec![10, 20]), 1).unwrap();
        c.ingest(&shard_beacon(0, 1, vec![30, 40]), 2).unwrap();
        c.ingest(&endpoint_beacon(4, 0, 0, counters(9, 0, 0), vec![]), 3)
            .unwrap();
        let prom = c.prometheus();
        for needle in [
            "fm_shard_queue_depth{switch=\"0\",quantile=\"0.99\"}",
            "fm_shard_deficit{switch=\"0\",input=\"1\"}",
            "fm_shard_input_forwarded_total{switch=\"0\",input=\"0\"} 30",
            "fm_shard_output_forwarded_total{switch=\"0\",output=\"0\"}",
            "fm_shard_fairness{switch=\"0\"}",
            "fm_udp_datagrams_out{node=\"4\"} 5",
            "fm_sends_total{node=\"4\"} 9",
            "fm_alarms_total{detector=\"retransmit_storm\"} 0",
            "fm_alarms_total{detector=\"incast_capture\"} 0",
            "fm_alarms_total{detector=\"dead_peer\"} 0",
            "fm_beacons_total{kind=\"shard\",source=\"0\"} 2",
            "fm_beacon_crc_rejected_total 0",
        ] {
            assert!(prom.contains(needle), "missing {needle} in:\n{prom}");
        }
        assert!(
            !prom.contains("NaN") && !prom.contains("inf"),
            "finite values only"
        );
    }

    #[test]
    fn chrome_trace_includes_shard_lanes() {
        let mut c = Collector::new();
        c.ingest(&shard_beacon(1, 0, vec![10, 10]), 100).unwrap();
        c.ingest(&shard_beacon(1, 1, vec![60, 60]), 200).unwrap();
        let send = TraceEvent {
            tick: 5,
            node: 0,
            kind: EventKind::SpanSend {
                trace: 1,
                hop: 0,
                dst: 1,
            },
        };
        c.ingest(
            &endpoint_beacon(0, 0, 0, counters(1, 0, 0), vec![send]),
            150,
        )
        .unwrap();
        let doc = c.chrome_trace();
        assert!(doc.contains("\"name\":\"switch 1\""), "shard lane labeled");
        assert!(doc.contains("\"name\":\"queue_depth\"") && doc.contains("\"ph\":\"C\""));
        assert!(
            doc.contains("\"args\":{\"frames\":100}"),
            "forwarding delta lane"
        );
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn csv_has_one_row_per_endpoint_and_gauges_last() {
        let mut c = Collector::new();
        c.ingest(&endpoint_beacon(0, 0, 0, counters(7, 0, 0), vec![]), 1)
            .unwrap();
        let t = Telemetry::new(1);
        t.record(Metric::AckRttTicks, 4);
        let gauges = vec![("peer_resets".into(), 2)];
        let beacon = BeaconSource::endpoint(t).endpoint_beacon(0, [0; Counter::COUNT], gauges);
        c.ingest(&beacon, 1).unwrap();
        let csv = c.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 endpoints");
        assert!(lines[0].starts_with("node,sends,"), "{}", lines[0]);
        assert!(lines[0].contains(",ack_rtt_ticks_count,ack_rtt_ticks_p50,"));
        assert!(lines[0].ends_with(",peer_resets,udp_datagrams_out"));
        assert!(lines[1].starts_with("0,7,"));
        assert!(lines[1].ends_with(",0,5"), "an unset gauge reads 0");
        assert!(lines[2].ends_with(",2,0"), "an unset gauge reads 0");
        let prom = c.prometheus();
        assert!(prom.contains("fm_ack_rtt_ticks{node=\"1\",quantile=\"0.5\"} 4"));
        assert!(prom.contains("fm_ack_rtt_ticks_count{node=\"1\"} 1"));
    }

    #[test]
    fn rejects_are_counted_not_fatal() {
        let mut c = Collector::new();
        assert!(c.ingest(b"not a beacon at all........", 0).is_err());
        let mut wire = endpoint_beacon(0, 0, 0, counters(1, 0, 0), vec![]);
        let mid = wire.len() / 2;
        wire[mid] ^= 1;
        assert!(c.ingest(&wire, 0).is_err());
        assert_eq!(c.stats.crc_rejected, 1);
        assert_eq!(c.stats.foreign, 1);
        assert_eq!(c.stats.beacons, 0);
    }

    #[test]
    fn socket_poll_end_to_end() {
        let mut c = Collector::bind("127.0.0.1:0").expect("bind collector");
        let addr = c.local_addr().expect("bound");
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(&endpoint_beacon(9, 0, 0, counters(3, 0, 0), vec![]), addr)
            .unwrap();
        tx.send_to(&shard_beacon(0, 0, vec![1, 2]), addr).unwrap();
        let mut got = 0;
        for _ in 0..500 {
            got += c.poll();
            if got >= 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got, 2, "both beacons ingested");
        assert_eq!(c.endpoint_sources(), vec![9]);
        assert_eq!(c.shard_sources(), vec![0]);
    }
}
