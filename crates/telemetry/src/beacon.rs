//! Out-of-band telemetry beacons: compact CRC-framed snapshots over UDP.
//!
//! Every endpoint (and every switch shard) can periodically serialize its
//! telemetry — cumulative counters, per-metric histogram octave summaries,
//! the last-N trace events, and transport gauges like `UdpStats` — into a
//! single datagram on a *side* UDP socket, addressed at a
//! [`crate::collector::Collector`]. This is how the multi-process world
//! (endpoints in separate OS processes, wired over real UDP) gets
//! cluster-wide observability without shared memory: the beacon channel is
//! fully out-of-band, so a wedged data path still reports, and a lossy
//! beacon path only widens a delta window (counters ship cumulative; the
//! collector subtracts).
//!
//! ## Wire format (version 2, all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     1  magic 0xB3 (distinct from every fm-core datagram: 0xE7
//!               control, 0xF0|v framed data, 0..=2 legacy kinds)
//!      1     1  version (2)
//!      2     1  source kind: 0 = endpoint, 1 = switch shard
//!      3     1  reserved (0)
//!      4     2  source id (node id or switch id)
//!      6     4  beacon sequence number (per-beaconer, starts at 0)
//!     10     8  sender wall clock, micros since the Unix epoch
//!     18     …  body (endpoint or shard, see below)
//!  len-4     4  CRC-32 (IEEE) over bytes [0, len-4)
//! ```
//!
//! Endpoint body: counter count + cumulative `u64`s (in [`Counter::ALL`]
//! order), per-metric `HistSummary` + non-empty octave `(group, count)`
//! pairs, named gauges (`len`-prefixed ASCII name + `u64`), then the
//! last-N trace events (three `u64` words each, the same fixed-width form
//! the trace ring stores: `TraceEvent::to_words`). Shard body:
//! the [`ShardSample`] fields in declaration order. Every variable section
//! is count-prefixed, so a decoder never reads past what the sender wrote;
//! the trailing CRC rejects truncation and corruption outright.

use crate::crc::crc32;
use crate::hist::HistSummary;
use crate::trace::TraceEvent;
use crate::{Counter, Metric, Telemetry};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// First byte of every beacon datagram.
pub const BEACON_MAGIC: u8 = 0xB3;

/// Current beacon wire version.
pub const BEACON_VERSION: u8 = 2;

/// Hard bound on an encoded beacon; the encoder truncates the trace-event
/// section (newest events kept) rather than exceed it, so a beacon always
/// fits one comfortable datagram.
pub const MAX_BEACON_BYTES: usize = 8192;

/// Default cap on trace events shipped per beacon.
pub const DEFAULT_BEACON_EVENTS: usize = 96;

/// Who sent a beacon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    Endpoint,
    Shard,
}

impl SourceKind {
    fn byte(self) -> u8 {
        match self {
            SourceKind::Endpoint => 0,
            SourceKind::Shard => 1,
        }
    }
}

/// One metric's beacon form: the summary plus per-octave counts (see
/// [`crate::hist::Histogram::octave_counts`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricOctaves {
    pub summary: HistSummary,
    pub octaves: Vec<(u8, u64)>,
}

/// An endpoint beacon's body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EndpointBeacon {
    /// Cumulative counters in [`Counter::ALL`] order (the collector
    /// computes deltas between successive beacons).
    pub counters: Vec<u64>,
    /// One entry per [`Metric::ALL`] metric.
    pub metrics: Vec<MetricOctaves>,
    /// Named transport gauges (e.g. `udp_datagrams_out`, `peer_resets`) —
    /// cumulative values the counter schema does not cover.
    pub gauges: Vec<(String, u64)>,
    /// The newest retained trace events at emission time. Successive
    /// beacons overlap; receivers deduplicate on event identity.
    pub events: Vec<TraceEvent>,
}

/// A point-in-time scrape of one switch shard: a shard beacon's body, and
/// one point of the collector's per-shard series and lanes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSample {
    pub switch_id: u16,
    /// Lifetime forwarding counters (`SwitchStats` flattened).
    pub forwarded: u64,
    pub stalled: u64,
    pub dropped: u64,
    pub timed_out: u64,
    /// The adaptive poll batch at sample time.
    pub batch: u64,
    /// Poll-occupancy (queue depth per sampled service turn).
    pub occupancy: HistSummary,
    pub occupancy_octaves: Vec<(u8, u64)>,
    /// Per-input DRR deficits, in bytes.
    pub deficits: Vec<i64>,
    /// Lifetime frames forwarded per input port.
    pub input_forwarded: Vec<u64>,
    /// Lifetime frames forwarded per output port.
    pub output_forwarded: Vec<u64>,
}

/// A decoded beacon body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BeaconBody {
    Endpoint(EndpointBeacon),
    Shard(ShardSample),
}

/// One decoded beacon datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Beacon {
    pub source: u16,
    pub seq: u32,
    /// Sender wall clock at emission, micros since the Unix epoch.
    pub sent_micros: u64,
    pub body: BeaconBody,
}

impl Beacon {
    pub fn kind(&self) -> SourceKind {
        match self.body {
            BeaconBody::Endpoint(_) => SourceKind::Endpoint,
            BeaconBody::Shard(_) => SourceKind::Shard,
        }
    }
}

/// Why a datagram was rejected by [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeaconError {
    TooShort,
    BadMagic,
    BadVersion(u8),
    BadCrc,
    Malformed,
}

impl std::fmt::Display for BeaconError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BeaconError::TooShort => write!(f, "datagram shorter than a beacon header"),
            BeaconError::BadMagic => write!(f, "not a beacon (wrong magic byte)"),
            BeaconError::BadVersion(v) => write!(f, "unsupported beacon version {v}"),
            BeaconError::BadCrc => write!(f, "beacon CRC mismatch"),
            BeaconError::Malformed => write!(f, "beacon body truncated or inconsistent"),
        }
    }
}

impl std::error::Error for BeaconError {}

const HEADER_LEN: usize = 18;
const TRAILER_LEN: usize = 4;
/// One encoded trace event: three `u64` words.
const EVENT_BYTES: usize = 24;

// ---- encoding --------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn summary(&mut self, s: &HistSummary) {
        for v in [s.count, s.min, s.max, s.p50, s.p90, s.p99] {
            self.u64(v);
        }
    }
    fn octaves(&mut self, o: &[(u8, u64)]) {
        self.u8(o.len().min(255) as u8);
        for &(g, n) in o.iter().take(255) {
            self.u8(g);
            self.u64(n);
        }
    }
    fn u64s(&mut self, vs: &[u64]) {
        self.u8(vs.len().min(255) as u8);
        for &v in vs.iter().take(255) {
            self.u64(v);
        }
    }
    fn event(&mut self, e: &TraceEvent) {
        e.to_words().into_iter().for_each(|word| self.u64(word));
    }
}

/// Encode one beacon into a CRC-framed datagram. Truncates the trace-event
/// section from the *oldest* end if needed to stay under
/// [`MAX_BEACON_BYTES`].
pub fn encode(b: &Beacon) -> Vec<u8> {
    let mut w = Writer {
        buf: Vec::with_capacity(512),
    };
    w.u8(BEACON_MAGIC);
    w.u8(BEACON_VERSION);
    w.u8(b.kind().byte());
    w.u8(0);
    w.u16(b.source);
    w.u32(b.seq);
    w.u64(b.sent_micros);
    match &b.body {
        BeaconBody::Endpoint(e) => {
            w.u8(e.counters.len().min(255) as u8);
            for &c in e.counters.iter().take(255) {
                w.u64(c);
            }
            w.u8(e.metrics.len().min(255) as u8);
            for m in e.metrics.iter().take(255) {
                w.summary(&m.summary);
                w.octaves(&m.octaves);
            }
            w.u8(e.gauges.len().min(255) as u8);
            for (name, v) in e.gauges.iter().take(255) {
                let bytes = name.as_bytes();
                w.u8(bytes.len().min(255) as u8);
                w.buf.extend_from_slice(&bytes[..bytes.len().min(255)]);
                w.u64(*v);
            }
            // Budget the event section: whatever room remains under the
            // datagram cap, newest events first.
            let room = MAX_BEACON_BYTES.saturating_sub(w.buf.len() + 2 + TRAILER_LEN);
            let fit = (room / EVENT_BYTES)
                .min(e.events.len())
                .min(u16::MAX as usize);
            let events = &e.events[e.events.len() - fit..];
            w.u16(events.len() as u16);
            for ev in events {
                w.event(ev);
            }
        }
        BeaconBody::Shard(s) => {
            w.u16(s.switch_id);
            for v in [s.forwarded, s.stalled, s.dropped, s.timed_out, s.batch] {
                w.u64(v);
            }
            w.summary(&s.occupancy);
            w.octaves(&s.occupancy_octaves);
            w.u8(s.deficits.len().min(255) as u8);
            for &d in s.deficits.iter().take(255) {
                w.i64(d);
            }
            w.u64s(&s.input_forwarded);
            w.u64s(&s.output_forwarded);
        }
    }
    let crc = crc32(&w.buf);
    w.u32(crc);
    w.buf
}

// ---- decoding --------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], BeaconError> {
        if self.at + n > self.buf.len() {
            return Err(BeaconError::Malformed);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, BeaconError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, BeaconError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, BeaconError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, BeaconError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, BeaconError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn summary(&mut self) -> Result<HistSummary, BeaconError> {
        Ok(HistSummary {
            count: self.u64()?,
            min: self.u64()?,
            max: self.u64()?,
            p50: self.u64()?,
            p90: self.u64()?,
            p99: self.u64()?,
        })
    }
    fn octaves(&mut self) -> Result<Vec<(u8, u64)>, BeaconError> {
        let n = self.u8()? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push((self.u8()?, self.u64()?));
        }
        Ok(out)
    }
    fn u64s(&mut self) -> Result<Vec<u64>, BeaconError> {
        let n = self.u8()? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }
    fn event(&mut self) -> Result<TraceEvent, BeaconError> {
        let words = [self.u64()?, self.u64()?, self.u64()?];
        // Only the one spelling `to_words` writes: set bits in a field the
        // event's kind does not use are garbage, not a second encoding.
        TraceEvent::from_words(words)
            .filter(|e| e.to_words() == words)
            .ok_or(BeaconError::Malformed)
    }
}

/// Decode (and CRC-verify) one beacon datagram.
pub fn decode(buf: &[u8]) -> Result<Beacon, BeaconError> {
    if buf.len() < HEADER_LEN + TRAILER_LEN {
        return Err(BeaconError::TooShort);
    }
    if buf[0] != BEACON_MAGIC {
        return Err(BeaconError::BadMagic);
    }
    if buf[1] != BEACON_VERSION {
        return Err(BeaconError::BadVersion(buf[1]));
    }
    let body_end = buf.len() - TRAILER_LEN;
    let want = u32::from_le_bytes(buf[body_end..].try_into().unwrap());
    if crc32(&buf[..body_end]) != want {
        return Err(BeaconError::BadCrc);
    }
    let mut r = Reader {
        buf: &buf[..body_end],
        at: 2,
    };
    let kind = r.u8()?;
    if r.u8()? != 0 {
        return Err(BeaconError::Malformed); // the reserved byte
    }
    let source = r.u16()?;
    let seq = r.u32()?;
    let sent_micros = r.u64()?;
    let body = match kind {
        0 => {
            let nc = r.u8()? as usize;
            let mut counters = Vec::with_capacity(nc);
            for _ in 0..nc {
                counters.push(r.u64()?);
            }
            let nm = r.u8()? as usize;
            let mut metrics = Vec::with_capacity(nm);
            for _ in 0..nm {
                metrics.push(MetricOctaves {
                    summary: r.summary()?,
                    octaves: r.octaves()?,
                });
            }
            let ng = r.u8()? as usize;
            let mut gauges = Vec::with_capacity(ng);
            for _ in 0..ng {
                let len = r.u8()? as usize;
                let name =
                    String::from_utf8(r.take(len)?.to_vec()).map_err(|_| BeaconError::Malformed)?;
                gauges.push((name, r.u64()?));
            }
            let ne = r.u16()? as usize;
            let mut events = Vec::with_capacity(ne);
            for _ in 0..ne {
                events.push(r.event()?);
            }
            BeaconBody::Endpoint(EndpointBeacon {
                counters,
                metrics,
                gauges,
                events,
            })
        }
        1 => {
            let switch_id = r.u16()?;
            let forwarded = r.u64()?;
            let stalled = r.u64()?;
            let dropped = r.u64()?;
            let timed_out = r.u64()?;
            let batch = r.u64()?;
            let occupancy = r.summary()?;
            let occupancy_octaves = r.octaves()?;
            let nd = r.u8()? as usize;
            let mut deficits = Vec::with_capacity(nd);
            for _ in 0..nd {
                deficits.push(r.i64()?);
            }
            let input_forwarded = r.u64s()?;
            let output_forwarded = r.u64s()?;
            BeaconBody::Shard(ShardSample {
                switch_id,
                forwarded,
                stalled,
                dropped,
                timed_out,
                batch,
                occupancy,
                occupancy_octaves,
                deficits,
                input_forwarded,
                output_forwarded,
            })
        }
        _ => return Err(BeaconError::Malformed),
    };
    if r.at != body_end {
        return Err(BeaconError::Malformed);
    }
    Ok(Beacon {
        source,
        seq,
        sent_micros,
        body,
    })
}

// ---- the emitter -----------------------------------------------------------

/// Counters for one [`Beaconer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BeaconStats {
    /// Beacons handed to the kernel.
    pub sent: u64,
    /// `send_to` failures (beacon dropped; the next interval retries —
    /// beacons are loss-tolerant by design).
    pub send_errors: u64,
}

/// Builds one source's beacon datagrams without a socket: the next
/// sequence number, the snapshot and the encoding. [`Beaconer`] sends
/// these bytes; an in-process harness hands the same bytes to
/// [`Collector::ingest`](crate::collector::Collector::ingest), stamped with
/// its own clock (a tick or a round) instead of wall-clock micros.
#[derive(Debug)]
pub struct BeaconSource {
    telemetry: Option<Telemetry>,
    source: u16,
    seq: u32,
}

impl BeaconSource {
    /// An endpoint source: each beacon snapshots `telemetry` (metric
    /// octaves, the newest trace events) beside the caller's counters and
    /// gauges.
    pub fn endpoint(telemetry: Telemetry) -> Self {
        let source = telemetry.node();
        BeaconSource {
            telemetry: Some(telemetry),
            source,
            seq: 0,
        }
    }

    /// A switch-shard source: the caller supplies each [`ShardSample`]
    /// (the shard cannot be captured here — it may live on its own thread).
    pub fn shard(switch_id: u16) -> Self {
        BeaconSource {
            telemetry: None,
            source: switch_id,
            seq: 0,
        }
    }

    fn next(&mut self, sent_micros: u64, body: BeaconBody) -> Vec<u8> {
        let seq = self.seq;
        self.seq = seq.wrapping_add(1);
        encode(&Beacon {
            source: self.source,
            seq,
            sent_micros,
            body,
        })
    }

    /// The next endpoint beacon, carrying the endpoint's `counters` (in
    /// [`Counter::ALL`] order) and named `gauges`, stamped `sent_micros`.
    ///
    /// # Panics
    /// If this source was built with [`BeaconSource::shard`].
    pub fn endpoint_beacon(
        &mut self,
        sent_micros: u64,
        counters: [u64; Counter::COUNT],
        gauges: Vec<(String, u64)>,
    ) -> Vec<u8> {
        let t = self.telemetry.as_ref().expect("endpoint beacon source");
        let metrics = Metric::ALL
            .iter()
            .map(|&m| MetricOctaves {
                summary: t.metric(m),
                octaves: t.metric_octaves(m),
            })
            .collect();
        let mut events = t.events();
        events.drain(..events.len().saturating_sub(DEFAULT_BEACON_EVENTS));
        let body = EndpointBeacon {
            counters: counters.to_vec(),
            metrics,
            gauges,
            events,
        };
        self.next(sent_micros, BeaconBody::Endpoint(body))
    }

    /// The next shard beacon, carrying `sample`, stamped `sent_micros`.
    pub fn shard_beacon(&mut self, sent_micros: u64, sample: &ShardSample) -> Vec<u8> {
        self.next(sent_micros, BeaconBody::Shard(sample.clone()))
    }
}

/// Periodically emits one [`BeaconSource`]'s beacons on its own ephemeral
/// UDP socket, stamped with wall-clock micros. Designed to sit on a hot
/// path: [`Beaconer::due`] is a counter mask most calls (no syscall, no
/// clock read) and only consults the clock every 64th call.
#[derive(Debug)]
pub struct Beaconer {
    sock: UdpSocket,
    dst: SocketAddr,
    beacons: BeaconSource,
    interval: Duration,
    next: Instant,
    calls: u32,
    pub stats: BeaconStats,
}

/// Wall-clock micros since the Unix epoch, the beacons' socket clock.
pub(crate) fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

impl Beaconer {
    fn new(beacons: BeaconSource, dst: SocketAddr, interval_us: u64) -> io::Result<Self> {
        let bind_on: SocketAddr = if dst.is_ipv4() {
            "0.0.0.0:0".parse().unwrap()
        } else {
            "[::]:0".parse().unwrap()
        };
        let sock = UdpSocket::bind(bind_on)?;
        sock.set_nonblocking(true)?;
        Ok(Beaconer {
            sock,
            dst,
            beacons,
            interval: Duration::from_micros(interval_us.max(1)),
            next: Instant::now(),
            calls: 0,
            stats: BeaconStats::default(),
        })
    }

    /// An endpoint beaconer (see [`BeaconSource::endpoint`]).
    pub fn endpoint(telemetry: Telemetry, dst: SocketAddr, interval_us: u64) -> io::Result<Self> {
        Self::new(BeaconSource::endpoint(telemetry), dst, interval_us)
    }

    /// A shard beaconer (see [`BeaconSource::shard`]).
    pub fn shard(switch_id: u16, dst: SocketAddr, interval_us: u64) -> io::Result<Self> {
        Self::new(BeaconSource::shard(switch_id), dst, interval_us)
    }

    /// True when an interval has elapsed since the last emission. Cheap
    /// enough for a per-`extract` call: 63 of every 64 calls are a counter
    /// increment and a branch.
    #[inline]
    pub fn due(&mut self) -> bool {
        self.calls = self.calls.wrapping_add(1);
        if self.calls & 0x3F != 0 {
            return false;
        }
        Instant::now() >= self.next
    }

    fn send(&mut self, datagram: &[u8]) {
        self.next = Instant::now() + self.interval;
        match self.sock.send_to(datagram, self.dst) {
            Ok(_) => self.stats.sent += 1,
            Err(_) => self.stats.send_errors += 1,
        }
    }

    /// Emit one endpoint beacon now ([`BeaconSource::endpoint_beacon`];
    /// callers normally gate on [`Beaconer::due`], and call directly for a
    /// final flush so the collector sees the end-of-run counter state).
    ///
    /// # Panics
    /// If this beaconer was built with [`Beaconer::shard`].
    pub fn emit(&mut self, counters: [u64; Counter::COUNT], gauges: Vec<(String, u64)>) {
        let datagram = self
            .beacons
            .endpoint_beacon(unix_micros(), counters, gauges);
        self.send(&datagram);
    }

    /// Emit one shard beacon now from a caller-captured sample.
    pub fn emit_shard(&mut self, sample: &ShardSample) {
        let datagram = self.beacons.shard_beacon(unix_micros(), sample);
        self.send(&datagram);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EventKind;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                tick: 1,
                node: 3,
                kind: EventKind::Send {
                    dst: 1,
                    slot: 2,
                    seq: 9,
                },
            },
            TraceEvent {
                tick: 2,
                node: 3,
                kind: EventKind::Retransmit {
                    peer: 1,
                    slot: 2,
                    timer: true,
                },
            },
            TraceEvent {
                tick: 3,
                node: 3,
                kind: EventKind::SpanSend {
                    trace: 77,
                    hop: 1,
                    dst: 0,
                },
            },
            TraceEvent {
                tick: 4,
                node: 3,
                kind: EventKind::CollRoundBegin {
                    coll: 3,
                    epoch: 12,
                    round: 2,
                    peer: 5,
                },
            },
            TraceEvent {
                tick: 5,
                node: 3,
                kind: EventKind::CollEnd { coll: 3, epoch: 12 },
            },
            TraceEvent {
                tick: 6,
                node: 3,
                kind: EventKind::PeerDead { peer: 4 },
            },
        ]
    }

    #[test]
    fn endpoint_beacon_round_trips() {
        let b = Beacon {
            source: 7,
            seq: 42,
            sent_micros: 1_700_000_000_000_000,
            body: BeaconBody::Endpoint(EndpointBeacon {
                counters: (0..Counter::COUNT as u64).collect(),
                metrics: vec![
                    MetricOctaves {
                        summary: HistSummary {
                            count: 10,
                            min: 1,
                            max: 900,
                            p50: 40,
                            p90: 600,
                            p99: 880,
                        },
                        octaves: vec![(0, 4), (5, 6)],
                    };
                    Metric::COUNT
                ],
                gauges: vec![("udp_datagrams_out".into(), 123), ("peer_resets".into(), 1)],
                events: sample_events(),
            }),
        };
        let wire = encode(&b);
        assert!(wire.len() <= MAX_BEACON_BYTES);
        let back = decode(&wire).expect("round trip");
        assert_eq!(back, b);
    }

    #[test]
    fn shard_beacon_round_trips() {
        let b = Beacon {
            source: 2,
            seq: 0,
            sent_micros: 5,
            body: BeaconBody::Shard(ShardSample {
                switch_id: 2,
                forwarded: 100,
                stalled: 3,
                dropped: 0,
                timed_out: 1,
                batch: 16,
                occupancy: HistSummary {
                    count: 9,
                    min: 1,
                    max: 64,
                    p50: 8,
                    p90: 32,
                    p99: 64,
                },
                occupancy_octaves: vec![(0, 5), (1, 4)],
                deficits: vec![0, 228, 114],
                input_forwarded: vec![40, 35, 25],
                output_forwarded: vec![60, 40],
            }),
        };
        let back = decode(&encode(&b)).expect("round trip");
        assert_eq!(back, b);
    }

    #[test]
    fn corruption_is_rejected() {
        let b = Beacon {
            source: 0,
            seq: 1,
            sent_micros: 2,
            body: BeaconBody::Endpoint(EndpointBeacon::default()),
        };
        let mut wire = encode(&b);
        assert!(decode(&wire).is_ok());
        let mid = wire.len() / 2;
        wire[mid] ^= 0x40;
        assert_eq!(decode(&wire), Err(BeaconError::BadCrc));
        wire[mid] ^= 0x40;
        wire[0] = 0xE7; // an fm-core control datagram, not a beacon
        assert_eq!(decode(&wire), Err(BeaconError::BadMagic));
        wire[0] = BEACON_MAGIC;
        wire[1] = 9;
        assert_eq!(decode(&wire), Err(BeaconError::BadVersion(9)));
        assert_eq!(decode(&[0xB3]), Err(BeaconError::TooShort));
    }

    #[test]
    fn truncated_body_is_malformed_not_panic() {
        let b = Beacon {
            source: 0,
            seq: 1,
            sent_micros: 2,
            body: BeaconBody::Endpoint(EndpointBeacon {
                counters: vec![1, 2, 3],
                metrics: vec![],
                gauges: vec![],
                events: sample_events(),
            }),
        };
        let wire = encode(&b);
        // Chop the tail off the body, then re-frame with a valid CRC so
        // only the structural check can reject it.
        let cut = wire.len() - 12;
        let mut short = wire[..cut].to_vec();
        let crc = crc32(&short);
        short.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&short), Err(BeaconError::Malformed));
    }

    /// Seeded beacon `i`: an endpoint (even `i`) or shard (odd `i`) body
    /// whose words and section lengths (a few entries at most) derive
    /// from `i`.
    fn seeded_beacon(i: u64) -> Beacon {
        let x = |k: u32| {
            (i + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(7 * k)
        };
        let len = |k: u32, max: u64| (x(k) % (max + 1)) as usize;
        let words = |k: u32, max: u64| (0..len(k, max) as u32).map(x).collect::<Vec<u64>>();
        let summary = HistSummary {
            count: x(1),
            min: x(2),
            max: x(3),
            p50: x(4),
            p90: x(5),
            p99: x(6),
        };
        let octaves = vec![(x(7) as u8, x(8)); len(9, 3)];
        let body = if i.is_multiple_of(2) {
            BeaconBody::Endpoint(EndpointBeacon {
                counters: words(10, Counter::COUNT as u64),
                metrics: vec![MetricOctaves { summary, octaves }; len(11, 3)],
                gauges: (0..len(12, 3))
                    .map(|g| (format!("gauge_{g}"), x(13)))
                    .collect(),
                events: sample_events()[..len(14, 6)].to_vec(),
            })
        } else {
            BeaconBody::Shard(ShardSample {
                switch_id: x(15) as u16,
                forwarded: x(16),
                stalled: x(17),
                dropped: x(18),
                timed_out: x(19),
                batch: x(20),
                occupancy: summary,
                occupancy_octaves: octaves,
                deficits: words(21, 4).into_iter().map(|d| d as i64).collect(),
                input_forwarded: words(22, 4),
                output_forwarded: words(23, 4),
            })
        };
        Beacon {
            source: x(24) as u16,
            seq: x(25) as u32,
            sent_micros: x(26),
            body,
        }
    }

    /// `body` framed as a datagram under a valid CRC, so only the body
    /// parser can reject it.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut out = body.to_vec();
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out
    }

    /// Structure-aware decoder sweep (run in release CI): seeded endpoint
    /// and shard beacons are truncated at every length, extended with
    /// seeded bytes, flipped at every bit and rewritten at every byte —
    /// each count prefix among them — to boundary values, then re-sealed.
    /// Every result must be refused, or decode to a beacon that encodes
    /// back to exactly the input; nothing may panic.
    #[test]
    fn decoder_sweep_refuses_or_round_trips_every_mutation() {
        let mut accepted = 0;
        for i in 0..32 {
            let wire = encode(&seeded_beacon(i));
            let body = &wire[..wire.len() - TRAILER_LEN];
            let mut check = |body: &[u8]| {
                let input = sealed(body);
                if let Ok(b) = decode(&input) {
                    assert_eq!(encode(&b), input, "accepted a non-canonical beacon");
                    accepted += 1;
                }
            };
            for cut in 0..body.len() {
                check(&body[..cut]);
            }
            for extra in 1..=16u8 {
                let mut longer = body.to_vec();
                longer.extend((0..extra).map(|b| b.wrapping_mul(i as u8 | 1)));
                check(&longer);
            }
            let mut edited = body.to_vec();
            for at in 0..body.len() {
                for bit in 0..8 {
                    edited[at] ^= 1 << bit;
                    check(&edited);
                    edited[at] ^= 1 << bit;
                }
                let b = body[at];
                for v in [0, 1, 0x7F, 0xFF, b.wrapping_add(1), b.wrapping_sub(1)] {
                    edited[at] = v;
                    check(&edited);
                }
                edited[at] = b;
            }
            check(body);
        }
        assert!(accepted >= 32, "every unmutated beacon round-trips");
    }

    #[test]
    fn oversized_event_window_is_truncated_newest_kept() {
        let mut events = Vec::new();
        for i in 0..2000u64 {
            events.push(TraceEvent {
                tick: i,
                node: 0,
                kind: EventKind::Send {
                    dst: 1,
                    slot: 0,
                    seq: i as u32,
                },
            });
        }
        let b = Beacon {
            source: 0,
            seq: 0,
            sent_micros: 0,
            body: BeaconBody::Endpoint(EndpointBeacon {
                counters: vec![0; Counter::COUNT],
                metrics: vec![],
                gauges: vec![],
                events,
            }),
        };
        let wire = encode(&b);
        assert!(wire.len() <= MAX_BEACON_BYTES, "capped at {}", wire.len());
        let back = decode(&wire).expect("still well-formed");
        let BeaconBody::Endpoint(e) = back.body else {
            panic!()
        };
        assert!(!e.events.is_empty() && e.events.len() < 2000);
        assert_eq!(e.events.last().unwrap().tick, 1999, "newest survive");
    }

    #[test]
    fn beaconer_emits_over_loopback() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.set_nonblocking(true).unwrap();
        let t = Telemetry::new(4);
        t.record(Metric::AckRttTicks, 120);
        t.trace(
            9,
            EventKind::Send {
                dst: 0,
                slot: 0,
                seq: 0,
            },
        );
        let mut b = Beaconer::endpoint(t, rx.local_addr().unwrap(), 1000).expect("bind beaconer");
        let mut counters = [0; Counter::COUNT];
        counters[Counter::Sends as usize] = 17;
        b.emit(counters, vec![("peer_resets".into(), 2)]);
        assert_eq!(b.stats.sent, 1);
        // Loopback delivery is immediate in practice; poll briefly.
        let mut buf = [0u8; MAX_BEACON_BYTES];
        let n = (0..200)
            .find_map(|_| match rx.recv_from(&mut buf) {
                Ok((n, _)) => Some(n),
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(1));
                    None
                }
            })
            .expect("beacon arrives");
        let beacon = decode(&buf[..n]).expect("decodes");
        assert_eq!(beacon.source, 4);
        let BeaconBody::Endpoint(e) = beacon.body else {
            panic!("endpoint beacon")
        };
        assert_eq!(e.gauges, vec![("peer_resets".to_string(), 2)]);
        assert_eq!(e.counters[Counter::Sends as usize], 17);
        assert_eq!(e.events.len(), 1);
        assert_eq!(e.metrics[Metric::AckRttTicks as usize].summary.count, 1);
    }

    #[test]
    fn due_paces_by_interval() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut b = Beaconer::shard(0, rx.local_addr().unwrap(), 50_000).unwrap();
        // First due() crossing the 64-call mask fires immediately...
        let first = (0..256).any(|_| b.due());
        assert!(first, "initial emission is due");
        b.emit_shard(&ShardSample::default());
        // ...then not again inside the interval.
        assert!(!(0..256).any(|_| b.due()), "interval not yet elapsed");
    }
}
