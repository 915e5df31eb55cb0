//! # fm-telemetry — runtime observability for the FM stack
//!
//! The paper's whole evaluation is measurement (Section 4's ablations,
//! Table 2's derived t0 / r_inf / n_1/2), and this crate is the runtime's
//! unified way of producing such numbers: one cloneable [`Telemetry`]
//! handle per endpoint carrying
//!
//! * **[`Counter`]s** — sends, bounces, retransmits, re-acks, corrupt
//!   frames, dead peers, reassembly aborts, evicted partials, and the
//!   release-mode guard counters (invalid ack slots, sequence-buffer
//!   misuse) — readable any time via [`Telemetry::snapshot`];
//! * **log-bucketed [`Histogram`]s** keyed by [`Metric`] — send→ack RTT,
//!   handler service time, wire poll batch occupancy — zero-alloc recording
//!   with p50/p90/p99 extraction (see [`hist`]);
//! * a **bounded [`trace::EventRing`]** of typed protocol events
//!   (send / bounce / retransmit / slot-reuse / peer-dead) dumpable as JSON
//!   or chrome-trace for time-axis debugging (see [`trace`]).
//!
//! The handle is an `Arc` around the shared state: the endpoint core, the
//! transport and any external observer all hold clones of the same handle.
//!
//! ## One writer, many readers
//!
//! FM gives each side of a queue its own counter so nothing on the message
//! path does a synchronised read-modify-write (paper Section 4.4); the
//! ledger follows the same rule. **All writes to one handle —
//! [`Telemetry::incr`], [`add`](Telemetry::add),
//! [`record`](Telemetry::record), [`trace`](Telemetry::trace), through any
//! clone — must come from one thread at a time**: the thread that drives the
//! endpoint the handle belongs to (ownership may move with the endpoint,
//! e.g. into its service thread). Under that contract a write is a relaxed
//! load and store per word and a trace event is a handful of stores into a
//! ring readers snapshot without ever blocking the writer. Storage stays
//! atomic, so reading from any thread is always safe and sees each counter
//! only ever grow; two threads writing at once would be memory-safe but
//! lose updates, and debug builds assert (on the writing thread's id) that
//! it does not happen.
//!
//! ## The `telemetry-off` feature
//!
//! Building with `--features telemetry-off` compiles every handle method to
//! a no-op (the handle stores nothing but the node id) — the configuration
//! the `bench_gate` overhead probe compares against to prove the
//! instrumented clean path stays inside the <10% regression budget.
//! [`ENABLED`] tells callers which world they are in. Standalone
//! [`Histogram`]s stay fully functional either way: measurement harnesses
//! (the testbed loss sweep, `bench_gate`'s ping-pong) depend on them.

pub mod aggregate;
pub mod beacon;
pub mod clocksync;
pub mod collector;
pub mod crc;
pub mod hist;
pub mod merge;
pub mod trace;

pub use aggregate::{FlightDump, MetricsAggregator, TickSample};
pub use beacon::{Beacon, BeaconBody, BeaconError, Beaconer, EndpointBeacon, ShardSample};
pub use clocksync::{ClockEstimate, ClusterClock, OffsetEstimator, RttSample};
pub use collector::{Alarm, Collector, DetectorConfig};
pub use crc::crc32;
pub use hist::{bucket_index, bucket_lower, bucket_upper, HistSummary, Histogram, BUCKETS, SUB};
pub use merge::{FlowPair, MergeReport, MergedEvent};
pub use trace::{chrome_trace, coll_kind_name, EventKind, EventRing, TraceEvent};

#[cfg(not(feature = "telemetry-off"))]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(feature = "telemetry-off"))]
use std::sync::Arc;

/// False when the crate was built with `telemetry-off` (every handle method
/// is a no-op and snapshots read all-zero).
pub const ENABLED: bool = cfg!(not(feature = "telemetry-off"));

/// Default [`trace::EventRing`] capacity per endpoint.
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// The protocol counters a [`Telemetry`] handle tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Fresh data frames queued for the wire.
    Sends,
    /// Our frames that came back bounced (return-to-sender).
    Bounces,
    /// Frames retransmitted (bounce- and timer-driven together).
    Retransmits,
    /// The timer-driven subset of `Retransmits`.
    TimerRetransmits,
    /// Duplicate data frames re-acknowledged (their ack may have been lost).
    ReAcks,
    /// Frames discarded for a CRC mismatch.
    CorruptFrames,
    /// Peers declared dead after exhausting their retry budget.
    DeadPeers,
    /// Partial large-message reassemblies aborted because their source died.
    ReassemblyAborts,
    /// Partial reassemblies evicted by the per-source cap (a live peer
    /// churning msg_ids without completing them).
    EvictedPartials,
    /// Ack-word packs refused because the slot exceeded the 10-bit range —
    /// the release-mode aliasing bug this counter replaced a `debug_assert!`
    /// for.
    InvalidAckSlots,
    /// `SeqWindow::buffer` misuse caught at runtime (out-of-window or
    /// double-insert), likewise previously only a `debug_assert!`.
    SeqBufferMisuse,
}

impl Counter {
    pub const COUNT: usize = 11;

    /// Every counter, in `repr` order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Sends,
        Counter::Bounces,
        Counter::Retransmits,
        Counter::TimerRetransmits,
        Counter::ReAcks,
        Counter::CorruptFrames,
        Counter::DeadPeers,
        Counter::ReassemblyAborts,
        Counter::EvictedPartials,
        Counter::InvalidAckSlots,
        Counter::SeqBufferMisuse,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Sends => "sends",
            Counter::Bounces => "bounces",
            Counter::Retransmits => "retransmits",
            Counter::TimerRetransmits => "timer_retransmits",
            Counter::ReAcks => "re_acks",
            Counter::CorruptFrames => "corrupt_frames",
            Counter::DeadPeers => "dead_peers",
            Counter::ReassemblyAborts => "reassembly_aborts",
            Counter::EvictedPartials => "evicted_partials",
            Counter::InvalidAckSlots => "invalid_ack_slots",
            Counter::SeqBufferMisuse => "seq_buffer_misuse",
        }
    }
}

/// The latency/occupancy histograms a [`Telemetry`] handle tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// Send→ack round trip, in endpoint virtual ticks.
    AckRttTicks,
    /// Handler service time, in nanoseconds of wall clock.
    HandlerNs,
    /// Frames drained per non-empty wire poll batch.
    PollBatch,
}

impl Metric {
    pub const COUNT: usize = 3;

    pub const ALL: [Metric; Metric::COUNT] =
        [Metric::AckRttTicks, Metric::HandlerNs, Metric::PollBatch];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Metric::AckRttTicks => "ack_rtt_ticks",
            Metric::HandlerNs => "handler_ns",
            Metric::PollBatch => "poll_batch",
        }
    }
}

#[cfg(not(feature = "telemetry-off"))]
struct Inner {
    counters: [AtomicU64; Counter::COUNT],
    hists: [Histogram; Metric::COUNT],
    ring: EventRing,
    /// Debug builds: tag of the thread inside a write right now (0 = none).
    #[cfg(debug_assertions)]
    writing: AtomicU64,
}

#[cfg(not(feature = "telemetry-off"))]
impl Inner {
    /// Run one write under the single-writer contract (module docs). Debug
    /// builds claim the handle for this thread around `write` — with a load
    /// and stores, like the write itself — and panic if another thread is
    /// inside one.
    #[inline]
    fn write(&self, write: impl FnOnce(&Inner)) {
        #[cfg(debug_assertions)]
        {
            // The address of a thread-local: unique among live threads.
            thread_local!(static TAG: u8 = const { 0 });
            let me = TAG.with(|t| t as *const u8 as u64);
            let inside = self.writing.load(Ordering::Acquire);
            debug_assert!(
                inside == 0 || inside == me,
                "two threads writing one Telemetry handle at once"
            );
            self.writing.store(me, Ordering::Relaxed);
        }
        write(self);
        #[cfg(debug_assertions)]
        self.writing.store(0, Ordering::Release);
    }
}

/// A cloneable per-endpoint observability handle. Cheap to clone (an `Arc`
/// bump); all clones share the same counters, histograms and event ring.
#[derive(Clone)]
pub struct Telemetry {
    node: u16,
    #[cfg(not(feature = "telemetry-off"))]
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("node", &self.node)
            .field("enabled", &ENABLED)
            .finish()
    }
}

impl Telemetry {
    /// A handle for `node` with the default trace-ring capacity.
    pub fn new(node: u16) -> Self {
        Self::with_trace_capacity(node, DEFAULT_TRACE_CAPACITY)
    }

    /// A handle for `node` retaining up to `trace_capacity` events.
    #[cfg_attr(feature = "telemetry-off", allow(unused_variables))]
    pub fn with_trace_capacity(node: u16, trace_capacity: usize) -> Self {
        Telemetry {
            node,
            #[cfg(not(feature = "telemetry-off"))]
            inner: Arc::new(Inner {
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                hists: std::array::from_fn(|_| Histogram::new()),
                ring: EventRing::new(trace_capacity),
                #[cfg(debug_assertions)]
                writing: AtomicU64::new(0),
            }),
        }
    }

    pub fn node(&self) -> u16 {
        self.node
    }

    /// Bump `c` by one.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Bump `c` by `n`.
    #[cfg_attr(feature = "telemetry-off", allow(unused_variables))]
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        #[cfg(not(feature = "telemetry-off"))]
        self.inner
            .write(|inner| hist::bump(&inner.counters[c as usize], n));
    }

    /// Current value of `c`.
    #[cfg_attr(feature = "telemetry-off", allow(unused_variables))]
    pub fn counter(&self, c: Counter) -> u64 {
        #[cfg(not(feature = "telemetry-off"))]
        return self.inner.counters[c as usize].load(Ordering::Relaxed);
        #[cfg(feature = "telemetry-off")]
        0
    }

    /// Record a sample into metric `m`'s histogram.
    #[cfg_attr(feature = "telemetry-off", allow(unused_variables))]
    #[inline]
    pub fn record(&self, m: Metric, v: u64) {
        #[cfg(not(feature = "telemetry-off"))]
        self.inner
            .write(|inner| inner.hists[m as usize].record_single_writer(v));
    }

    /// Summary (count/min/max/p50/p90/p99) of metric `m`.
    #[cfg_attr(feature = "telemetry-off", allow(unused_variables))]
    pub fn metric(&self, m: Metric) -> HistSummary {
        #[cfg(not(feature = "telemetry-off"))]
        return self.inner.hists[m as usize].summary();
        #[cfg(feature = "telemetry-off")]
        HistSummary::default()
    }

    /// Arbitrary-quantile read of metric `m` (see [`Histogram::quantile`]).
    #[cfg_attr(feature = "telemetry-off", allow(unused_variables))]
    pub fn metric_quantile(&self, m: Metric, q: f64) -> u64 {
        #[cfg(not(feature = "telemetry-off"))]
        return self.inner.hists[m as usize].quantile(q);
        #[cfg(feature = "telemetry-off")]
        0
    }

    /// Non-empty per-octave counts of metric `m`'s histogram — the compact
    /// form the telemetry beacons ship (see [`Histogram::octave_counts`]).
    #[cfg_attr(feature = "telemetry-off", allow(unused_variables))]
    pub fn metric_octaves(&self, m: Metric) -> Vec<(u8, u64)> {
        #[cfg(not(feature = "telemetry-off"))]
        return self.inner.hists[m as usize].octave_counts();
        #[cfg(feature = "telemetry-off")]
        Vec::new()
    }

    /// Record a trace event at virtual time `tick`.
    #[cfg_attr(feature = "telemetry-off", allow(unused_variables))]
    #[inline]
    pub fn trace(&self, tick: u64, kind: EventKind) {
        #[cfg(not(feature = "telemetry-off"))]
        self.inner.write(|inner| {
            inner.ring.push(TraceEvent {
                tick,
                node: self.node,
                kind,
            })
        });
    }

    /// Retained trace events, oldest first (see [`EventRing::to_vec`]).
    pub fn events(&self) -> Vec<TraceEvent> {
        #[cfg(not(feature = "telemetry-off"))]
        return self.inner.ring.to_vec();
        #[cfg(feature = "telemetry-off")]
        Vec::new()
    }

    /// Total trace events ever recorded (including ones the bounded ring
    /// has since overwritten).
    pub fn events_recorded(&self) -> u64 {
        #[cfg(not(feature = "telemetry-off"))]
        return self.inner.ring.pushed();
        #[cfg(feature = "telemetry-off")]
        0
    }

    /// Point-in-time copy of every counter and histogram summary.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            node: self.node,
            counters: std::array::from_fn(|i| self.counter(Counter::ALL[i])),
            metrics: std::array::from_fn(|i| self.metric(Metric::ALL[i])),
        }
    }

    /// The retained trace as a chrome-trace JSON document.
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.events())
    }
}

/// A read-only copy of one endpoint's telemetry at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    pub node: u16,
    counters: [u64; Counter::COUNT],
    metrics: [HistSummary; Metric::COUNT],
}

impl TelemetrySnapshot {
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    pub fn metric(&self, m: Metric) -> HistSummary {
        self.metrics[m as usize]
    }

    /// Render as a JSON object (hand-rolled like the rest of the repo — the
    /// build container has no serde).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"node\": {},\n  \"counters\": {{", self.node);
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", c.name(), self.counter(*c)));
        }
        out.push_str("\n  },\n  \"metrics\": {");
        for (i, m) in Metric::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = self.metric(*m);
            out.push_str(&format!(
                "\n    \"{}\": {{ \"count\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {} }}",
                m.name(),
                s.count,
                s.min,
                s.max,
                s.p50,
                s.p90,
                s.p99
            ));
        }
        out.push_str("\n  }\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let t = Telemetry::new(7);
        t.incr(Counter::Sends);
        t.add(Counter::Sends, 2);
        t.incr(Counter::Bounces);
        let s = t.snapshot();
        if ENABLED {
            assert_eq!(s.counter(Counter::Sends), 3);
            assert_eq!(s.counter(Counter::Bounces), 1);
        } else {
            assert_eq!(s.counter(Counter::Sends), 0);
        }
        assert_eq!(s.counter(Counter::DeadPeers), 0);
        assert_eq!(s.node, 7);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::new(0);
        let u = t.clone();
        u.incr(Counter::Retransmits);
        u.record(Metric::AckRttTicks, 5);
        if ENABLED {
            assert_eq!(t.counter(Counter::Retransmits), 1);
            assert_eq!(t.metric(Metric::AckRttTicks).count, 1);
        }
    }

    #[test]
    fn snapshot_json_has_every_key() {
        let t = Telemetry::new(1);
        t.incr(Counter::CorruptFrames);
        let j = t.snapshot().to_json();
        for c in Counter::ALL {
            assert!(j.contains(c.name()), "missing counter {}", c.name());
        }
        for m in Metric::ALL {
            assert!(j.contains(m.name()), "missing metric {}", m.name());
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn trace_ring_is_bounded() {
        let t = Telemetry::with_trace_capacity(0, 8);
        for i in 0..100 {
            t.trace(i, EventKind::SlotReuse { slot: 1, gen: 1 });
        }
        let evs = t.events();
        if ENABLED {
            assert_eq!(evs.len(), 8);
            assert_eq!(evs.first().unwrap().tick, 92);
            assert_eq!(evs.last().unwrap().tick, 99);
            assert_eq!(t.events_recorded(), 100);
        } else {
            assert!(evs.is_empty());
        }
    }
}
